"""Benchmark for producing and verifying meandim certificates.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports `meandim` from its
`src/`. One process, no worker threads. The run sets up the workload's
inputs (several times, timed), then repeats passes through
`meandim.cli.main` until `--seconds` have gone by; each pass runs the
workload's artifact-producing commands and `verify` on every artifact.
Every output is checked, and a command fails when it exits nonzero, fails
its check, or writes bytes that differ from its first pass in the run.

With `--trace 0` the last line of standard output reports the end-to-end
metrics (medians over passes, with times scaled to a reference speed: see
ScaledTimer); with `--trace 1` it reports per-layer counts
and self times from spans around the package's functions (see spans.py),
after a few untraced passes that give the tracing overhead. Artifact
SHA-256 digests, per-pass figures and spans go to `.bench_out/` in the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
# Nominal seconds of ScaledTimer.reference_work(); reported times are scaled to it.
REFERENCE_SECONDS = 0.0007
REFERENCE_TABLE = 60_000  # entries, a few megabytes
SAMPLE_INTERVAL = 0.05  # seconds between reference samples inside a timed call

sys.path.insert(0, str(HERE))
from spans import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, sampled_fiber_records  # noqa: E402

END_TO_END_UNITS = {
    "produce_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span or counter name, statistic, unit)
PER_LAYER = {
    "widthmaps.locate_flag_calls": ("widthmaps.locate_flag", "calls", "count"),
    "widthmaps.locate_flag_s": ("widthmaps.locate_flag", "self", "s"),
    "widthmaps.retract_calls": ("widthmaps.retract", "calls", "count"),
    "widthmaps.retract_s": ("widthmaps.retract", "self", "s"),
    "widthmaps.flag_realize_calls": ("widthmaps.flag_realize", "calls", "count"),
    "widthmaps.flag_realize_s": ("widthmaps.flag_realize", "self", "s"),
    "fractions.new_calls": ("fractions.new", "count", "count"),
    "symbolic.d_N_calls": ("symbolic.d_N", "calls", "count"),
    "symbolic.d_N_s": ("symbolic.d_N", "self", "s"),
    "symbolic.ocap_limit_s": ("symbolic.ocap_limit", "self", "s"),
    "symbolic.ocap_finite_N_s": ("symbolic.ocap_finite_N", "self", "s"),
    "symbolic.sbp_cover_refine_s": ("symbolic.sbp_cover_refine", "self", "s"),
    "symbolic.graph_size": ("symbolic.ocap_limit", "max_size", "count"),
    "complexes.barycentric_subdivide_s": ("complexes.barycentric_subdivide", "self", "s"),
    "complexes.full_subcomplex_calls": ("complexes.full_subcomplex", "calls", "count"),
    "complexes.full_subcomplex_s": ("complexes.full_subcomplex", "self", "s"),
    "complexes.dimension_buckets_s": ("complexes.dimension_buckets", "self", "s"),
    "geometry.kuhn_triangulate_cube_s": ("geometry.kuhn_triangulate_cube", "self", "s"),
    "geometry.barycentric_subdivide_geometric_s": (
        "geometry.barycentric_subdivide_geometric", "self", "s",
    ),
    "geometry.max_star_mesh_s": ("geometry.max_star_mesh", "self", "s"),
    "widthmaps.cube_width_map_calls": ("widthmaps.cube_width_map", "calls", "count"),
    "widthmaps.cube_width_map_s": ("widthmaps.cube_width_map", "self", "s"),
    "widthmaps.partition_map_s": ("widthmaps.partition_map", "self", "s"),
    "widthmaps.partition_fiber_certificate_calls": (
        "widthmaps.partition_fiber_certificate", "calls", "count",
    ),
    "widthmaps.partition_fiber_certificate_s": (
        "widthmaps.partition_fiber_certificate", "self", "s",
    ),
    "certificates.trials": ("certificates.trials", "count", "count"),
    "certificates.near_pairs": ("certificates.near_pairs", "count", "count"),
    "certificates.sample_fiber_check_s": ("certificates.sample_fiber_check", "self", "s"),
    "certificates.sampler_s": ("certificates.sampler", "self", "s"),
    "certificates.evaluator_s": ("certificates.evaluator", "self", "s"),
    "certificates.domain_dist_s": ("certificates.domain_dist", "self", "s"),
    "certificates.target_dist_s": ("certificates.target_dist", "self", "s"),
    "counterexample.fiber_dimension_certificate_calls": (
        "counterexample.fiber_dimension_certificate", "calls", "count",
    ),
    "counterexample.fiber_dimension_certificate_s": (
        "counterexample.fiber_dimension_certificate", "self", "s",
    ),
    "counterexample.nonzero_count_check_s": ("counterexample.nonzero_count_check", "self", "s"),
    "cli.write_artifact_s": ("cli.write_artifact", "self", "s"),
    "cli.verify_artifact_s": ("cli.verify_artifact", "self", "s"),
    "certificates.recheck_structural_calls": ("certificates.recheck_structural", "calls", "count"),
    "certificates.recheck_structural_s": ("certificates.recheck_structural", "self", "s"),
    "serialize.canonical_json_s": ("serialize.canonical_json", "self", "s"),
}
# derived per-layer metrics, computed in layer_metrics()
DERIVED_UNITS = {
    "counterexample.locate_per_block": "ratio",
    "certificates.near_pair_ratio": "ratio",
    "trace.overhead": "ratio",
}


class ScaledTimer:
    """Wall time scaled to a reference speed.

    The speed of the shared CPUs this benchmark runs on drifts by up to a
    factor of two within seconds, from load outside the process. So
    reference_work() is timed just before and just after each timed call, and
    every SAMPLE_INTERVAL during it from a SIGALRM handler. The call's wall
    time, less the time spent in the samples, is scaled by REFERENCE_SECONDS
    over the mean sample: a reading is the seconds the call would take where
    the reference takes REFERENCE_SECONDS.

    Use as a context manager: it owns the SIGALRM handler while open.
    """

    def __init__(self):
        rng = random.Random(0)
        self._table = [(i, i % 97) for i in range(REFERENCE_TABLE)]
        rng.shuffle(self._table)
        self._next = [rng.randrange(REFERENCE_TABLE) for _ in range(REFERENCE_TABLE)]
        self._at = 0
        self._samples = None

    def reference_work(self):
        """Fixed pure-Python work of the kinds the package does: small
        rationals as integer pairs reduced by gcd, sorting, and reads
        scattered over a table of a few megabytes, as in its large tables of
        exact values. Load from outside slows both kinds, by different
        amounts. It builds no Fraction, so the traced run's Fraction counter
        does not slow it."""
        total = 0
        for i in range(1, 100):
            num, den = 0, 1
            for p, q in sorted(((j * 7919) % (i + 5), i + 1) for j in range(8)):
                num, den = num * q + p * den, den * q
                g = gcd(num, den)
                num, den = num // g, den // g
            total += num % 7
        at = self._at
        for _ in range(8000):
            total += self._table[at][1]
            at = self._next[at]
        self._at = at
        return total

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc):
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, *_):
        if self._samples is not None:  # a late alarm after the call is ignored
            start = time.perf_counter()
            self.reference_work()
            self._samples.append(time.perf_counter() - start)

    def time(self, func, *args):
        """(result, scaled seconds, wall seconds) of func(*args)."""
        self._samples = samples = []
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        start = time.perf_counter()
        try:
            result = func(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start - sum(samples[1:])
        self._sample()
        self._samples = None
        return result, wall * REFERENCE_SECONDS / statistics.mean(samples), wall


def import_meandim():
    """Import meandim afresh from this checkout's src/ and return its CLI."""
    for name in [n for n in sys.modules if n.split(".")[0] == "meandim"]:
        del sys.modules[name]
    cli = importlib.import_module("meandim.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"meandim imported from {cli.__file__}, not {ROOT / 'src'}")
    return cli


def measure_setup(workload, seed: int, workdir: Path, timer: ScaledTimer):
    """Median seconds to import meandim and write the workload's inputs,
    over SETUP_REPEATS fresh imports; returns it with the CLI module and the
    pass's commands from the last repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        (cli, commands), scaled, _ = timer.time(
            lambda: (import_meandim(), workload.prepare(seed, workdir))
        )
        times.append(scaled)
    return statistics.median(times), cli, commands


def run_pass(main, commands, first_digests: dict, timer: ScaledTimer) -> dict:
    """Run one pass and check every output. `first_digests` maps each
    command to its artifact's digest in the first pass and is filled in on
    that pass."""
    result = {"produce_s": 0.0, "verify_s": 0.0, "produce_wall_s": 0.0, "verify_wall_s": 0.0,
              "attempted": 0, "failed": 0, "problems": [], "trials": 0, "near_pairs": 0}
    for command in commands:
        stdout = io.StringIO()
        code, scaled, wall = timer.time(run_command, main, command.argv, stdout)
        result[f"{command.phase}_s"] += scaled
        result[f"{command.phase}_wall_s"] += wall
        result["attempted"] += 1
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0 and command.artifact is not None:
            problems += check_artifact(command, stdout.getvalue(), first_digests, result)
        if problems:
            result["failed"] += 1
            result["problems"] += [f"{command.key}: {p}" for p in problems]
    return result


def run_command(main, argv, stdout):
    try:
        with contextlib.redirect_stdout(stdout):
            return main(list(argv))
    except Exception:  # a crash is a failed command; the run goes on
        traceback.print_exc()
        return None


def check_artifact(command, stdout: str, first_digests: dict, result: dict) -> list:
    data = Path(command.artifact).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    first = first_digests.setdefault(command.key, digest)
    problems = [] if digest == first else [f"sha256 {digest} differs from first pass {first}"]
    try:
        artifact = json.loads(data)
        problems += command.check(stdout, artifact)
        for record in sampled_fiber_records(artifact):
            result["trials"] += int(record["data"]["trials"])
            result["near_pairs"] += int(record["data"].get("near_pairs", 0))
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"malformed artifact: {exc!r}")
    return problems


def run_passes(main, commands, seconds: float, digests: dict, timer: ScaledTimer) -> list:
    """Passes until `seconds` have gone by, at least one."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(main, commands, digests, timer))
    return passes


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def layer_metrics(tracer: Tracer, pass_ranges, count_deltas, untraced, traced) -> dict:
    """Median over traced passes of each per-layer metric."""
    own = self_times(tracer.spans)
    per_pass = []
    for (lo, hi), counts in zip(pass_ranges, count_deltas):
        stats = {}
        locates = blocks = 0  # inside fiber_dimension_certificate itself
        for i in range(lo, hi):
            span = tracer.spans[i]
            entry = stats.setdefault(span.name, {"calls": 0, "self": 0.0, "max_size": 0})
            entry["calls"] += 1
            entry["self"] += own[i]
            if span.size is not None:
                entry["max_size"] = max(entry["max_size"], span.size)
            parent = tracer.spans[span.parent].name if span.parent is not None else None
            if parent == "counterexample.fiber_dimension_certificate":
                if span.name == "widthmaps.locate_flag":
                    locates += 1
                elif span.name == "counterexample.block_starts":
                    blocks += span.size
        values = {}
        for metric, (name, statistic, _) in PER_LAYER.items():
            if statistic == "count":
                values[metric] = counts.get(name, 0)
            else:
                values[metric] = stats.get(name, {}).get(statistic, 0)
        values["counterexample.locate_per_block"] = locates / blocks if blocks else 0
        per_pass.append(values)
    metrics = {m: statistics.median(v[m] for v in per_pass) for m in per_pass[0]}
    trials = sum(p["trials"] for p in untraced)
    metrics["certificates.near_pair_ratio"] = (
        sum(p["near_pairs"] for p in untraced) / trials if trials else 0
    )
    metrics["trace.overhead"] = median_of(traced, "produce_s") / median_of(untraced, "produce_s")
    return metrics


def run_traced(main, commands, seconds: float, digests: dict, timer: ScaledTimer):
    """A third of `seconds` untraced, the rest traced, at least one pass of
    each; returns every pass, the per-layer metrics and the tracer."""
    untraced = run_passes(main, commands, seconds / 3, digests, timer)
    tracer = Tracer()
    traced, pass_ranges, count_deltas = [], [], []
    start = time.perf_counter()
    with tracer:
        while not traced or time.perf_counter() - start < seconds * 2 / 3:
            lo, before = len(tracer.spans), dict(tracer.counts)
            traced.append(run_pass(main, commands, digests, timer))
            pass_ranges.append((lo, len(tracer.spans)))
            count_deltas.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()})
    metrics = layer_metrics(tracer, pass_ranges, count_deltas, untraced, traced)
    for p in traced:
        p["traced"] = True
    return untraced + traced, metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (ROOT / "src" / "meandim" / "__init__.py").is_file():
        print(f"error: no meandim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("MEANDIM_THREADS", None)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        with ScaledTimer() as timer:
            setup_s, cli, commands = measure_setup(workload, args.seed, Path("."), timer)
            digests = {}
            if args.trace:
                passes, values, tracer = run_traced(
                    cli.main, commands, args.seconds, digests, timer
                )
                units = {m: u for m, (_, _, u) in PER_LAYER.items()} | DERIVED_UNITS
                (OUT / f"spans-{tag}.json").write_text(json.dumps(tracer.to_json()))
            else:
                passes = run_passes(cli.main, commands, args.seconds, digests, timer)
                values = {
                    "produce_s": median_of(passes, "produce_s"),
                    "verify_s": median_of(passes, "verify_s"),
                    "setup_s": setup_s,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                }
                units = END_TO_END_UNITS
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [q for p in passes for q in p["problems"]]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"artifacts": digests, "passes": passes, "metrics": values}, indent=1)
    )
    print(json.dumps({"artifacts_sha256": digests}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
