"""Tests of the benchmark itself: span bookkeeping, byte identity under
tracing, and the per-layer predictions each workload is chosen for."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

from meandim import cli  # noqa: E402


def test_self_times_of_a_synthetic_call_tree():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("c", 6.0, 7.5, 2),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.5, 1.5]


def test_wrapped_calls_record_parent_links():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: 1)
    inner = tracer.wrap("inner", lambda: leaf() + leaf())
    outer = tracer.wrap("outer", lambda: inner() + leaf())
    assert outer() == 3
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None),
        ("inner", 0),
        ("leaf", 1),
        ("leaf", 1),
        ("leaf", 0),
    ]
    own = self_times(tracer.spans)
    for i, span in enumerate(tracer.spans):
        assert 0 <= own[i] <= span.end - span.start


def test_tracer_restores_every_original():
    from meandim import symbolic, widthmaps

    before = (cli.check_certificate, symbolic.d_N, widthmaps.FlagPoint.realize,
              Fraction.__dict__["__new__"])
    with Tracer():
        assert cli.check_certificate is not before[0]
        assert Fraction(1, 2) == Fraction(2, 4)
    after = (cli.check_certificate, symbolic.d_N, widthmaps.FlagPoint.realize,
             Fraction.__dict__["__new__"])
    assert after == before


TINY = [
    workloads.Command(
        "produce",
        ("counterexample", "fiber-cert", "--delta", "1/2", "--eps", "1/2", "--N", "4",
         "--samples", "1", "--trials", "5", "--out", "fibers.json"),
        "fibers.json",
        lambda out, a: workloads.check_fiber_batch(a, "bound", True, 1, 5),
    ),
    workloads.Command(
        "produce",
        ("gromov", "build", "--cube", "1", "--m", "2", "--eps", "1/2", "--out", "map.json"),
        "map.json",
        lambda out, a: [],
    ),
    workloads.Command(
        "produce",
        ("gromov", "fiber-check", "map.json", "--samples", "2", "--trials", "20",
         "--out", "cube.json"),
        "cube.json",
        lambda out, a: workloads.check_fiber_batch(a, "fiber_bound", False, 2, 20),
    ),
]


def test_traced_and_untraced_artifacts_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = workloads.with_verify(TINY)
    digests = {}
    with run.ScaledTimer() as timer:
        untraced = run.run_pass(cli.main, commands, digests, timer)
        plain = {c.artifact: Path(c.artifact).read_bytes() for c in TINY}
        with Tracer() as tracer:
            traced = run.run_pass(cli.main, commands, digests, timer)
    assert tracer.spans and tracer.counts["fractions.new"] > 0
    assert untraced["failed"] == traced["failed"] == 0, untraced["problems"] + traced["problems"]
    assert {c.artifact: Path(c.artifact).read_bytes() for c in TINY} == plain


def test_a_changed_artifact_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = TINY[1:2]
    digests = {commands[0].key: "0" * 64}
    with run.ScaledTimer() as timer:
        result = run.run_pass(cli.main, commands, digests, timer)
    assert result["failed"] == 1 and "differs from first pass" in result["problems"][0]


def test_witness_mean_counts_visits_directly():
    golden = {"alphabet": ["0", "1"], "transitions": [["0", "0"], ["0", "1"], ["1", "0"]]}
    assert workloads.witness_mean(golden, [[0, "1"]], ["0", "1"]) == Fraction(1, 2)
    assert workloads.witness_mean(golden, [[0, "1"], [1, "0"]], ["0", "1"]) == Fraction(1, 2)
    assert workloads.witness_mean(golden, [[0, "0"]], ["0", "0", "1"]) == Fraction(2, 3)
    assert workloads.witness_mean(golden, [[0, "1"]], ["1", "1"]) is None


# Smaller sizes than the benchmark's own where a prediction does not depend
# on them; factor-fiber keeps its size because its near-pair share does.
REDUCED = {
    "factor-fiber": {"FIBER_COMMANDS": 2},
    "factor-near": {"NEAR_COMMANDS": 1, "NEAR_TRIALS": 5},
    "gromov-cube": {"CUBE_SAMPLES": 2, "CUBE_TRIALS": 50},
    "orbit-capacity": {"ORBIT_INSTANCES": 1},
}


@pytest.fixture(scope="module")
def traced_metrics(tmp_path_factory):
    """One untraced and one traced pass of every workload at seed 0."""
    metrics = {}
    with pytest.MonkeyPatch.context() as mp:
        for name, sizes in REDUCED.items():
            for key, value in sizes.items():
                mp.setattr(workloads, key, value)
            workdir = tmp_path_factory.mktemp(name)
            mp.chdir(workdir)
            commands = workloads.WORKLOADS[name].prepare(0, Path("."))
            with run.ScaledTimer() as timer:
                passes, values, _ = run.run_traced(cli.main, commands, 0, {}, timer)
            assert sum(p["failed"] for p in passes) == 0, [p["problems"] for p in passes]
            metrics[name] = values
    return metrics


MOVES = {
    "factor-fiber": [
        "widthmaps.locate_flag_calls", "widthmaps.locate_flag_s",
        "widthmaps.retract_calls", "widthmaps.retract_s",
        "widthmaps.flag_realize_calls", "widthmaps.flag_realize_s",
        "fractions.new_calls", "counterexample.fiber_dimension_certificate_calls",
        "counterexample.fiber_dimension_certificate_s",
        "counterexample.nonzero_count_check_s", "counterexample.locate_per_block",
        "certificates.trials", "certificates.sample_fiber_check_s",
        "certificates.sampler_s", "certificates.evaluator_s", "certificates.target_dist_s",
        "cli.write_artifact_s", "cli.verify_artifact_s",
        "certificates.recheck_structural_calls", "certificates.recheck_structural_s",
        "serialize.canonical_json_s", "trace.overhead",
    ],
    "factor-near": [
        "symbolic.d_N_calls", "symbolic.d_N_s", "certificates.near_pairs",
        "certificates.domain_dist_s", "certificates.near_pair_ratio",
    ],
    "gromov-cube": [
        "complexes.barycentric_subdivide_s", "complexes.full_subcomplex_calls",
        "complexes.full_subcomplex_s", "complexes.dimension_buckets_s",
        "geometry.kuhn_triangulate_cube_s", "geometry.barycentric_subdivide_geometric_s",
        "geometry.max_star_mesh_s", "widthmaps.cube_width_map_calls",
        "widthmaps.cube_width_map_s", "widthmaps.partition_map_s",
        "widthmaps.partition_fiber_certificate_calls",
        "widthmaps.partition_fiber_certificate_s",
    ],
    "orbit-capacity": [
        "symbolic.ocap_limit_s", "symbolic.ocap_finite_N_s",
        "symbolic.sbp_cover_refine_s", "symbolic.graph_size",
    ],
}


def test_every_per_layer_metric_is_reported_and_moves_somewhere(traced_metrics):
    reported = set(run.PER_LAYER) | set(run.DERIVED_UNITS)
    for values in traced_metrics.values():
        assert set(values) == reported
    assert {m for ms in MOVES.values() for m in ms} == reported


@pytest.mark.parametrize("workload", sorted(MOVES))
def test_per_layer_metric_is_nonzero_where_it_should_move(traced_metrics, workload):
    values = traced_metrics[workload]
    assert [m for m in MOVES[workload] if not values[m] > 0] == []


def test_d_N_runs_only_for_near_pairs(traced_metrics):
    fiber, near = traced_metrics["factor-fiber"], traced_metrics["factor-near"]
    assert fiber["symbolic.d_N_calls"] < 0.05 * fiber["certificates.trials"]
    assert near["symbolic.d_N_calls"] == near["certificates.trials"]
    assert near["certificates.near_pair_ratio"] == 1


def test_materialized_complexes_only_on_gromov_cube(traced_metrics):
    gromov_only = [
        m for m in run.PER_LAYER
        if m.startswith(("complexes.", "geometry.")) or m.startswith("widthmaps.cube_width_map")
    ]
    for workload, values in traced_metrics.items():
        if workload != "gromov-cube":
            assert {m: values[m] for m in gromov_only} == dict.fromkeys(gromov_only, 0)


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER) | set(run.DERIVED_UNITS)
