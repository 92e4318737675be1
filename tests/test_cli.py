"""CLI behaviour: commands, artifacts, verification, exit codes, determinism."""

import copy
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import meandim
from meandim import cli, symbolic, widthmaps
from meandim.certificates import (
    CITATIONS,
    STRUCTURAL,
    STRUCTURAL_CHECKS,
    DischargeRecord,
    structural_record,
)
from meandim.cli import PAYLOAD_BUILDERS, main
from meandim.counterexample import CounterexampleParams, CountReport, wedge_cone_embedding
from meandim.serialize import canonical_json
from meandim.symbolic import CylinderSet
from meandim.widthmaps import empty_fiber_certificate
from oracles import (
    empty_cylinder,
    finite_cloud_handle,
    full_shift,
    golden_mean,
    identity_certificate,
    pullback_certificate,
)
from wedge_fixtures import golden_instance


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_golden(tmp_path):
    sft = tmp_path / "golden.json"
    sft.write_text(json.dumps(golden_mean().to_json_dict()))
    one = tmp_path / "one.json"
    one.write_text(json.dumps([[0, "1"]]))
    return sft, one


# The benchmark's first orbit-capacity instance at seed 3: an irreducible SFT
# on 4 symbols whose window-6 word graph has 227 words, a cylinder set
# spanning that window, and a cover of it.
SEED3_SFT = {
    "alphabet": ["0", "1", "2", "3"],
    "transitions": [["0", "0"], ["0", "2"], ["1", "0"], ["1", "1"], ["2", "0"],
                    ["2", "1"], ["2", "3"], ["3", "2"], ["3", "3"]],
}
SEED3_SET = [[0, "1"], [5, "0"]]
SEED3_COVER = [[[0, "0"]], [[0, "1"]], [[0, "2"]], [[0, "3"]], [[0, "11"], [5, "0"]]]


def write_seed3_orbit(tmp_path):
    (tmp_path / "sft.json").write_text(json.dumps(SEED3_SFT))
    (tmp_path / "set.json").write_text(json.dumps(SEED3_SET))
    for j, piece in enumerate(SEED3_COVER):
        (tmp_path / f"cover{j}.json").write_text(json.dumps(piece))


class TestOcapCommand:
    def test_golden_limit(self, workdir, capsys):
        sft, one = write_golden(workdir)
        assert main(["ocap", "--sft", str(sft), "--set", str(one), "--limit"]) == 0
        assert capsys.readouterr().out.strip() == "1/2"

    def test_witness_cycle_of_another_mean_exits_3(self, workdir, capsys, monkeypatch):
        # the self-loop on word "0" has mean 0, the maximum cycle mean is 1/2
        monkeypatch.setattr(symbolic, "_critical_cycle", lambda *args: [0])
        sft, one = write_golden(workdir)
        assert main(["ocap", "--sft", str(sft), "--set", str(one), "--limit"]) == 3
        assert "critical-cycle-mean" in capsys.readouterr().err
        witness = json.loads((workdir / "meandim-witness.json").read_text())
        assert witness["data"]["mean"] == "1/2"

    @pytest.mark.parametrize(
        "planted, length, visits", [(Fraction(0), "11", "5"), (Fraction(1, 2), "0", "0")]
    )
    def test_wrong_maximum_cycle_mean_exits_3(self, workdir, capsys, monkeypatch,
                                              planted, length, visits):
        # the seed-3 SFT's maximum cycle mean is 5/11: below it a cycle of
        # 5 visits in 11 steps beats the planted mean, above it no cycle
        # reaches it
        monkeypatch.setattr(symbolic, "_karp_max_mean", lambda *args: planted)
        write_seed3_orbit(workdir)
        assert main(["ocap", "--sft", "sft.json", "--set", "set.json", "--limit"]) == 3
        assert "critical-cycle-mean" in capsys.readouterr().err
        witness = json.loads((workdir / "meandim-witness.json").read_text())
        assert witness["status"] == "failed"
        assert witness["data"]["mean"] == str(planted)
        assert (witness["data"]["cycle_length"], witness["data"]["cycle_visits"]) == (
            length, visits)

    def test_full_shift_value_one(self, workdir, capsys):
        sft = workdir / "full.json"
        sft.write_text(json.dumps(full_shift("01").to_json_dict()))
        one = workdir / "one.json"
        one.write_text(json.dumps([[0, "1"]]))
        assert main(["ocap", "--sft", str(sft), "--set", str(one), "--limit"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_finite_n(self, workdir, capsys):
        sft, one = write_golden(workdir)
        assert main(["ocap", "--sft", str(sft), "--set", str(one), "--N", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1/2"

    def test_artifact_verifies(self, workdir, capsys):
        sft, one = write_golden(workdir)
        out = workdir / "ocap.json"
        assert (
            main(
                ["ocap", "--sft", str(sft), "--set", str(one), "--limit", "--out", str(out)]
            )
            == 0
        )
        assert main(["verify", str(out)]) == 0

    @pytest.mark.parametrize(
        "sft, constraints",
        [
            (golden_mean(), [[0, "0"], [1000000, "0"]]),
            (full_shift("0123"), [[0, "0"], [12, "0"]]),
        ],
    )
    def test_oversized_set_exits_4(self, workdir, capsys, sft, constraints):
        sft_path = workdir / "sft.json"
        sft_path.write_text(json.dumps(sft.to_json_dict()))
        small, big = workdir / "small.json", workdir / "big.json"
        small.write_text(json.dumps([[0, "0"]]))
        big.write_text(json.dumps(constraints))
        out = workdir / "ocap.json"
        assert main(["ocap", "--sft", str(sft_path), "--set", str(small), "--limit",
                     "--out", str(out)]) == 0
        artifact = json.loads(out.read_text())
        artifact["recipe"]["set"] = constraints
        out.write_text(json.dumps(artifact))
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["ocap", "--sft", str(sft_path), "--set", str(big), "--limit"]) == 4
        assert main(["verify", str(out)]) == 4
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.count("budget exceeded") == 2

    @pytest.mark.parametrize("offset", [0.5, "0", True, False])
    def test_non_integer_offset_exits_2(self, workdir, capsys, offset):
        # an offset is a JSON integer: 0.5 is not truncated, "0" not parsed
        # and a boolean not read as 0 or 1, in a set file or a recipe
        sft, one = write_golden(workdir)
        bad = workdir / "bad.json"
        bad.write_text(json.dumps([[offset, "1"]]))
        for out in ([], ["--out", "bad-ocap.json"]):
            assert main(["ocap", "--sft", str(sft), "--set", str(bad), "--limit", *out]) == 2
        assert not (workdir / "bad-ocap.json").exists()
        assert capsys.readouterr().err.count("cylinder offset must be an integer") == 2
        out = workdir / "ocap.json"
        assert main(["ocap", "--sft", str(sft), "--set", str(one), "--limit",
                     "--out", str(out)]) == 0
        artifact = json.loads(out.read_text())
        artifact["recipe"]["set"][0][0] = offset
        out.write_text(json.dumps(artifact))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        assert "cylinder offset must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "word, message",
        [
            ("2", "cylinder symbol '2' is not in the alphabet"),
            (None, "cylinder word must be a list of symbols or a string, not None"),
            ({"a": 1}, "cylinder word must be a list of symbols or a string, not {'a': 1}"),
            (["1", 5], "cylinder symbol 5 is not in the alphabet"),
            (7, "cylinder word must be a list of symbols or a string, not 7"),
        ],
    )
    def test_bad_cylinder_word_exits_2(self, workdir, capsys, word, message):
        # a symbol outside the alphabet, or a word that is neither a list
        # nor a string, is refused in a set file, a cover file and a recipe
        # alike, not read as the empty set
        sft, one = write_golden(workdir)
        bad = workdir / "bad.json"
        bad.write_text(json.dumps([[0, word]]))
        assert main(["ocap", "--sft", str(sft), "--set", str(bad), "--limit"]) == 2
        assert main(["sbp", "refine", "--sft", str(sft), "--cover", str(bad), str(one),
                     "--delta", "1/2"]) == 2
        out = workdir / "ocap.json"
        assert main(["ocap", "--sft", str(sft), "--set", str(one), "--limit",
                     "--out", str(out)]) == 0
        artifact = json.loads(out.read_text())
        artifact["recipe"]["set"] = [[0, word]]
        out.write_text(json.dumps(artifact))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        assert message in capsys.readouterr().err

    def test_oversized_horizon_exits_4(self, workdir, capsys):
        sft, one = write_golden(workdir)
        out = workdir / "ocap.json"
        assert main(["ocap", "--sft", str(sft), "--set", str(one), "--N", "8",
                     "--out", str(out)]) == 0
        artifact = json.loads(out.read_text())
        artifact["recipe"]["N"] = 10**9
        out.write_text(json.dumps(artifact))
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["ocap", "--sft", str(sft), "--set", str(one), "--N", str(10**9)]) == 4
        assert main(["verify", str(out)]) == 4
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.count("horizon budget") == 2

    def test_oversized_target_simplex_exits_4(self, workdir, capsys):
        out = workdir / "map.json"
        assert main(["gromov", "build", "--cube", "1", "--m", "2", "--eps", "1/2",
                     "--out", str(out)]) == 0
        artifact = json.loads(out.read_text())
        artifact["recipe"]["m"] = 10**6
        out.write_text(json.dumps(artifact))
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["gromov", "build", "--cube", "1", "--m", "40", "--eps", "1/2",
                     "--out", str(workdir / "big.json")]) == 4
        assert main(["verify", str(out)]) == 4
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.count("target simplex") == 2


class TestGromovCommands:
    def test_build_and_fiber_check(self, workdir, capsys):
        out = workdir / "map.json"
        assert (
            main(
                ["gromov", "build", "--cube", "1", "--m", "2", "--eps", "1/2",
                 "--out", str(out)]
            )
            == 0
        )
        fibers = workdir / "fibers.json"
        assert (
            main(
                ["gromov", "fiber-check", str(out), "--samples", "4", "--seed", "7",
                 "--trials", "100", "--out", str(fibers)]
            )
            == 0
        )
        payload = json.loads(fibers.read_text())["payload"]
        assert all(c["target_dim"] <= 0 for c in payload["certificates"])
        assert main(["verify", str(fibers)]) == 0

    def test_square_width_map_certifies_dim_one(self, workdir):
        out = workdir / "square.json"
        assert (
            main(
                ["gromov", "build", "--cube", "2", "--m", "2", "--eps", "1/2",
                 "--out", str(out)]
            )
            == 0
        )
        fibers = workdir / "square-fibers.json"
        assert (
            main(
                ["gromov", "fiber-check", str(out), "--samples", "5", "--seed", "1",
                 "--trials", "200", "--out", str(fibers)]
            )
            == 0
        )
        payload = json.loads(fibers.read_text())["payload"]
        assert payload["fiber_bound"] == "1"
        assert all(c["target_dim"] <= 1 for c in payload["certificates"])

    def test_unknown_flag_exits_2(self, workdir):
        with pytest.raises(SystemExit) as err:
            main(["ocap", "--sft", "x", "--set", "y", "--limit", "--bogus", "1"])
        assert err.value.code == 2

    def test_malformed_rational_exits_2(self, workdir):
        with pytest.raises(SystemExit) as err:
            main(["gromov", "build", "--cube", "1", "--m", "2", "--eps", "1.5",
                  "--out", "x.json"])
        assert err.value.code == 2

    def test_budget_exit_4(self, workdir):
        assert (
            main(
                ["gromov", "build", "--cube", "4", "--m", "2", "--eps", "1/64",
                 "--out", "big.json"]
            )
            == 4
        )


class TestSbpCommand:
    def test_refine(self, workdir, capsys):
        sft, _ = write_golden(workdir)
        v1 = workdir / "v1.json"
        v1.write_text(json.dumps([[0, "0"]]))
        v2 = workdir / "v2.json"
        v2.write_text(json.dumps([[0, "1"]]))
        out = workdir / "sbp.json"
        assert (
            main(
                ["sbp", "refine", "--sft", str(sft), "--cover", str(v1), str(v2),
                 "--delta", "1/2", "--out", str(out)]
            )
            == 0
        )
        assert "complement ocap: 0" in capsys.readouterr().out
        assert main(["verify", str(out)]) == 0

    @pytest.mark.parametrize(
        "cover, word",
        [([[[0, "1"]]], "0"), ([[[0, "1"]], [[1, "1"]]], "00")],
    )
    def test_not_a_cover_exits_2_naming_an_uncovered_word(self, workdir, capsys, cover, word):
        # the golden mean has no "11", so the cover leaves the first word
        # of its complement on the cover's window uncovered
        sft, _ = write_golden(workdir)
        paths = []
        for i, constraints in enumerate(cover):
            paths.append(workdir / f"v{i}.json")
            paths[-1].write_text(json.dumps(constraints))
        assert main(["sbp", "refine", "--sft", str(sft), "--cover", *map(str, paths),
                     "--delta", "1/2"]) == 2
        assert f"not a cover: word {word!r} at offset 0 is uncovered" in capsys.readouterr().err

    @pytest.mark.parametrize("offset", [0.5, "0", True])
    def test_non_integer_cover_offset_exits_2(self, workdir, capsys, offset):
        sft, _ = write_golden(workdir)
        v1, v2 = workdir / "v1.json", workdir / "v2.json"
        v1.write_text(json.dumps([[offset, "0"]]))
        v2.write_text(json.dumps([[0, "1"]]))
        assert main(["sbp", "refine", "--sft", str(sft), "--cover", str(v1), str(v2),
                     "--delta", "1/2"]) == 2
        assert "cylinder offset must be an integer" in capsys.readouterr().err


class TestCounterexampleCommands:
    def test_build_reports_checks(self, workdir, capsys):
        out = workdir / "inst.json"
        assert (
            main(
                ["counterexample", "build", "--delta", "1/2", "--eps", "1/2",
                 "--N", "8", "--out", str(out)]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "1/m < delta" in text
        assert main(["verify", str(out)]) == 0

    def test_check_counts(self, workdir, capsys):
        out = workdir / "counts.json"
        assert (
            main(
                ["counterexample", "check-counts", "--delta", "1/2", "--eps", "1/2",
                 "--N", "16", "--samples", "10", "--seed", "1", "--out", str(out)]
            )
            == 0
        )
        assert "violations: 0" in capsys.readouterr().out
        assert main(["verify", str(out)]) == 0

    def test_count_violation_exits_3_in_check_counts_and_verify(
        self, workdir, capsys, monkeypatch
    ):
        # a report with one violation fails its nonzero-count-bound in both
        # commands; the rebuild reproduces it, so verify fails on the count
        real = cli.nonzero_count_check

        def one_violation(*args):
            r = real(*args)
            return CountReport(
                r.samples, r.horizon, r.max_count, r.bound, r.block_bound, r.hull_max,
                ((0, r.max_count),),
            )

        monkeypatch.setattr(cli, "nonzero_count_check", one_violation)
        out = workdir / "counts.json"
        witness = workdir / "meandim-witness.json"
        assert main(["counterexample", "check-counts", *_FACTOR, "--samples", "2",
                     "--out", str(out)]) == 3
        assert json.loads(out.read_text())["payload"]["violations"] == 1
        assert json.loads(witness.read_text())["obligation"] == "nonzero-count-bound"
        witness.unlink()
        capsys.readouterr()
        assert main(["verify", str(out)]) == 3
        assert "obligation failed: nonzero-count-bound" in capsys.readouterr().err
        assert json.loads(witness.read_text())["obligation"] == "nonzero-count-bound"

    def test_tiny_delta_is_refused_at_once(self, workdir, capsys):
        # m = 10^8 + 1 comes in closed form, and no block level below 2^40
        # fits it
        start = time.perf_counter()
        assert main(["counterexample", "build", "--delta", "1/100000000", "--eps", "1/2",
                     "--N", "8", "--seed", "0"]) == 2
        assert time.perf_counter() - start < 1
        assert "no feasible block level" in capsys.readouterr().err

    def test_fiber_cert(self, workdir, capsys):
        out = workdir / "fibers.json"
        assert (
            main(
                ["counterexample", "fiber-cert", "--delta", "1/2", "--eps", "1/2",
                 "--N", "8", "--samples", "2", "--seed", "2", "--trials", "50",
                 "--out", str(out)]
            )
            == 0
        )
        payload = json.loads(out.read_text())["payload"]
        for cert in payload["certificates"]:
            (record,) = [r for r in cert["obligations"] if r["name"] == "dimension-bookkeeping"]
            assert record["status"] == "discharged"
            assert record["data"]["total_dim"] == str(cert["target_dim"])
            assert record["data"]["bound"] == payload["bound"]
            assert "below_bound" not in cert
        records = [r for c in payload["certificates"] for r in c["obligations"]]
        structural = [r for r in records if r["kind"] == "STRUCTURAL"]
        cited = sum(r["name"] in CITATIONS for r in structural)
        sampled = [r for r in records if r["kind"] == "SAMPLED"]
        near = sum(int(r["data"]["near_pairs"]) for r in sampled)
        assert 0 < cited < len(structural) and near > 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        assert capsys.readouterr().out == (
            f"{out}: verified ({len(structural) - cited} re-derived, {cited} cited, "
            f"{len(sampled)} sampled re-run, {near} near pairs)\n"
        )

    def test_fiber_bound_failure_exits_3_with_witness(self, workdir, monkeypatch):
        # every certificate's dimension-bookkeeping record fails its own
        # check, and both fiber-cert and verify report it
        monkeypatch.setattr(CounterexampleParams, "fiber_dim_bound", lambda self: Fraction(1))
        out = workdir / "fibers.json"
        witness = workdir / "meandim-witness.json"
        assert main(["counterexample", "fiber-cert", *_FACTOR, "--samples", "2",
                     "--trials", "5", "--out", str(out)]) == 3
        for cert in json.loads(out.read_text())["payload"]["certificates"]:
            (record,) = [r for r in cert["obligations"] if r["name"] == "dimension-bookkeeping"]
            assert record["status"] == "failed" and record["data"]["bound"] == "1"
        assert json.loads(witness.read_text())["obligation"] == "dimension-bookkeeping"
        witness.unlink()
        assert main(["verify", str(out)]) == 3
        assert json.loads(witness.read_text())["obligation"] == "dimension-bookkeeping"

    def test_report_csv(self, workdir, capsys):
        # the largest certified fiber dimension over every state, not over
        # sampled ones: 6, 8, 12 and 20 of N
        assert main(["counterexample", "report", "--delta", "1/2", "--eps", "1/2",
                     "--N", "8", "16", "32", "64"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "eps,N,fiber_dim_over_N,image_dim_over_N"
        assert [line.split(",")[2] for line in lines[1:]] == ["3/4", "1/2", "3/8", "5/16"]

    def test_report_artifact_verifies(self, workdir, capsys):
        args = ["counterexample", "report", "--delta", "1/2", "--eps", "1/2",
                "--N", "8", "16"]
        assert main(args) == 0
        printed = capsys.readouterr().out
        out = workdir / "report.json"
        assert main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == printed
        payload = json.loads(out.read_text())["payload"]
        assert [payload["header"]] + payload["rows"] == printed.strip().splitlines()
        assert main(["verify", str(out)]) == 0


# each command that reads an input file, with FILE standing for that file,
# and a JSON document of the wrong shape for it
INPUT_FILE_COMMANDS = [
    (["ocap", "--sft", "FILE", "--set", "one.json", "--limit"], {"alphabet": 5}),
    (["ocap", "--sft", "golden.json", "--set", "FILE", "--N", "4"], [1, 2]),
    (["sbp", "refine", "--sft", "FILE", "--cover", "one.json", "--delta", "1/2"],
     {"alphabet": 5}),
    (["sbp", "refine", "--sft", "golden.json", "--cover", "FILE", "--delta", "1/2"],
     [1, 2]),
    (["gromov", "fiber-check", "FILE"], [1, 2]),
    (["gromov", "fiber-check", "FILE"], {"kind": "cube-width-map", "recipe": [1]}),
    (["verify", "FILE"], [1, 2]),
]


@pytest.mark.parametrize("content", ["missing", "not-json", "too-deep", "wrong-shape"])
@pytest.mark.parametrize(
    "argv, wrong_shape", INPUT_FILE_COMMANDS,
    ids=[" ".join(argv) for argv, _ in INPUT_FILE_COMMANDS],
)
def test_bad_input_file_exits_2(workdir, capsys, argv, wrong_shape, content):
    write_golden(workdir)
    path = workdir / "input.json"
    if content == "not-json":
        path.write_text("{not json")
    elif content == "too-deep":  # deeper than the interpreter's stack
        path.write_text("[" * 100_000 + "]" * 100_000)
    elif content == "wrong-shape":
        path.write_text(json.dumps(wrong_shape))
    # an exception escaping main would be the traceback
    assert main([str(path) if arg == "FILE" else arg for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.fixture(scope="module")
def golden_artifacts(tmp_path_factory):
    """A golden-mean ocap --limit, ocap --N and sbp refine artifact, and a
    small factor-map fiber-cert artifact, built in a directory that stays the
    working directory while the module's tests use it (verify writes its
    witness file there)."""
    root = tmp_path_factory.mktemp("mutations")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        sft, one = write_golden(root)
        pair = root / "pair.json"
        pair.write_text(json.dumps([[0, "1"], [2, "0"]]))
        (root / "zero.json").write_text(json.dumps([[0, "0"]]))
        commands = [
            ["ocap", "--sft", str(sft), "--set", str(pair), "--limit"],
            ["ocap", "--sft", str(sft), "--set", str(one), "--N", "8"],
            ["sbp", "refine", "--sft", str(sft), "--cover", "zero.json", str(one),
             "--delta", "1/2"],
            ["counterexample", "fiber-cert", "--delta", "1/2", "--eps", "1/2", "--N", "8",
             "--samples", "1", "--trials", "5"],
        ]
        artifacts = []
        for i, args in enumerate(commands):
            out = root / f"artifact{i}.json"
            assert main(args + ["--out", str(out)]) == 0
            artifacts.append(json.loads(out.read_text()))
        yield artifacts


def _paths(node, path=()):
    """The path of every key and list entry in a JSON document, root first."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield from _paths(value, path + (key,))


_DELETE = object()


def _mutated(document, path, value):
    """A copy of the document with the entry at `path` deleted (value
    _DELETE) or replaced by `value`; the empty path replaces it whole."""
    if not path:
        return value
    document = copy.deepcopy(document)
    node = document
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return document


# a small artifact of each sampled kind, and the recipe keys that scale its
# sampled work (the gromov one reads map.json)
_FACTOR = ["--delta", "1/2", "--eps", "1/2", "--N", "8"]
SAMPLED_RECIPES = [
    (["counterexample", "fiber-cert", *_FACTOR, "--samples", "1", "--trials", "5"], key)
    for key in ("trials", "N", "samples")
] + [
    (["gromov", "fiber-check", "map.json", "--samples", "2", "--trials", "20"], key)
    for key in ("trials", "samples")
] + [
    (["counterexample", "check-counts", *_FACTOR, "--samples", "2"], key)
    for key in ("samples", "N")
]

# a small run of each sampled kind, without its --samples
SAMPLED_KINDS = [
    ["counterexample", "fiber-cert", *_FACTOR, "--trials", "5"],
    ["gromov", "fiber-check", "map.json", "--trials", "20"],
    ["counterexample", "check-counts", *_FACTOR],
]

# a small artifact of each kind whose payload reads integer recipe fields,
# and those fields (ocap reads golden.json and one.json, gromov map.json)
_GROMOV_MAP = ["gromov", "build", "--cube", "2", "--m", "2", "--eps", "1/2"]
RECIPE_INTEGERS = [
    (argv, key)
    for argv, keys in (
        (_GROMOV_MAP, ("n", "m")),
        (["gromov", "fiber-check", "map.json", "--samples", "1", "--trials", "5"],
         ("n", "m", "samples", "trials", "seed")),
        (["ocap", "--sft", "golden.json", "--set", "one.json", "--N", "8"], ("N",)),
        (["counterexample", "build", *_FACTOR], ("N", "seed")),
        (["counterexample", "check-counts", *_FACTOR, "--samples", "2"],
         ("N", "seed", "samples")),
        (["counterexample", "fiber-cert", *_FACTOR, "--samples", "1", "--trials", "5"],
         ("N", "seed", "samples", "trials")),
        (["counterexample", "report", *_FACTOR], ("N",)),
    )
    for key in keys
]


# options whose zero is a value, refused where it is read like a negative
# one, never replaced by the option's default
VALUED_OPTIONS = [
    (["gromov", "fiber-check", "map.json", "--samples", "1", "--trials", "5", "--eta={}"],
     "eta must be positive"),
    (["counterexample", "fiber-cert", *_FACTOR, "--samples", "1", "--trials", "5", "--eta={}"],
     "eta must be positive"),
]


@pytest.mark.parametrize("value", ["0", "-1/2"])
@pytest.mark.parametrize("argv, message", VALUED_OPTIONS)
def test_zero_or_negative_option_exits_2(workdir, capsys, argv, message, value):
    assert main(_GROMOV_MAP + ["--out", "map.json"]) == 0
    capsys.readouterr()
    assert main([arg.format(value) for arg in argv] + ["--out", "artifact.json"]) == 2
    assert message in capsys.readouterr().err
    assert not (workdir / "artifact.json").exists()


@pytest.mark.parametrize("eps", ["0", "-1/2"])
def test_nonpositive_eps_exits_2_naming_eps(workdir, capsys, eps):
    assert main(["gromov", "build", "--cube", "2", "--m", "2", f"--eps={eps}",
                 "--out", "map.json"]) == 2
    assert "eps must be positive" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fiber_cert_16(tmp_path_factory):
    """The text of a one-sample N = 16 fiber-cert artifact."""
    out = tmp_path_factory.mktemp("fiber16") / "fibers.json"
    assert main(["counterexample", "fiber-cert", "--delta", "1/2", "--eps", "1/2", "--N", "16",
                 "--samples", "1", "--trials", "5", "--out", str(out)]) == 0
    return out.read_text()


class TestVerify:
    def test_determinism_byte_identical(self, workdir):
        a, b = workdir / "a.json", workdir / "b.json"
        args = ["counterexample", "check-counts", "--delta", "1/2", "--eps", "1/2",
                "--N", "8", "--samples", "5", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tampered_structural_value_exits_3(self, workdir, capsys):
        out = workdir / "fibers.json"
        assert (
            main(
                ["counterexample", "fiber-cert", "--delta", "1/2", "--eps", "1/2",
                 "--N", "8", "--samples", "1", "--seed", "4", "--trials", "20",
                 "--out", str(out)]
            )
            == 0
        )
        original = out.read_text()
        for name, key, value in (
            ("star-mesh-grid-bound", "bound", "1/3"),
            ("star-mesh-grid-bound", "scale", "1/0"),
            ("window-tail-rule", "margin", "-1"),
            ("window-tail-rule", "margin", "1000000000000"),
            ("window-tail-rule", "two_sided_tail", "1/1000"),
            ("chain-itinerary-covers-range", "lengths", ""),
            ("chain-itinerary-covers-range", "start", "0"),
        ):
            artifact = json.loads(original)
            tampered = False
            for entry in artifact["payload"]["certificates"][0]["obligations"]:
                if entry["name"] == name:
                    entry["data"][key] = value
                    tampered = True
            assert tampered
            out.write_text(json.dumps(artifact))
            witness = Path("meandim-witness.json")
            witness.unlink(missing_ok=True)
            started = time.perf_counter()
            assert main(["verify", str(out)]) == 3, (name, key, value)
            assert time.perf_counter() - started < 1, (name, key, value)
            assert witness.exists()

    @pytest.mark.parametrize("name, changes", [
        ("star-mesh-grid-bound", {"grid": "-1", "bound": "-2"}),
        ("star-mesh-inherited-bound", {"parent_mesh": "-1"}),
        ("bucket-dimension-bound", {"dim": "-3"}),
        ("bucket-dimension-bound", {"source_dim": "-2", "dim": "-1"}),
    ])
    def test_impossible_mesh_or_bucket_value_fails_its_record(self, workdir, name, changes):
        # each tampered record is consistent with its own inequality, so
        # only the range checks catch it before the reproduction does
        if name == "star-mesh-grid-bound":
            argv = ["counterexample", "fiber-cert", "--delta", "1/2", "--eps", "1/2",
                    "--N", "16", "--samples", "1", "--trials", "5"]
        else:
            assert main(["gromov", "build", "--cube", "1", "--m", "2", "--eps", "1/2",
                         "--out", "map.json"]) == 0
            argv = ["gromov", "fiber-check", "map.json", "--samples", "2", "--trials", "5"]
        out = workdir / "fibers.json"
        assert main(argv + ["--out", str(out)]) == 0
        artifact = json.loads(out.read_text())
        records = [
            entry
            for cert in artifact["payload"]["certificates"]
            for entry in cert["obligations"]
            if entry["name"] == name
        ]
        assert records
        for entry in records:
            entry["data"].update(changes)
        out.write_text(json.dumps(artifact))
        assert main(["verify", str(out)]) == 3
        witness = json.loads((workdir / "meandim-witness.json").read_text())
        assert witness["obligation"] == name
        assert {k: witness["data"][k] for k in changes} == changes

    @pytest.mark.parametrize("name, changes", [
        ("dimension-bookkeeping", {"total_dim": "-5"}),
        ("product-dims-additive", {"factors": "-3;2", "total": "-1"}),
        ("star-mesh-grid-bound", {"grid": "1_7"}),
        ("bucket-dimension-bound", {"source_dim": " 8", "m": "+3"}),
        ("chain-itinerary-covers-range", {"start": "-0", "margin": "0", "N": "20"}),
        ("scale-relaxation", {"from_scale": " 1/4"}),
        ("dimension-bookkeeping", {"window_length": "-1", "m": "-3"}),
        ("scale-relaxation", {"block_scale": "9", "mesh_scale": "-1", "two_sided_tail": "5"}),
        # fiber-cert writes none of these three; verify re-checks every
        # record it finds, so each is appended to the first certificate
        ("wedge-dimension-count", {"n": "-1", "cone_dim": "2", "count_bound": "3",
                                   "global_cone_dim": "1", "wedge_dim": "1"}),
        ("star-mesh-inherited-bound", {"parent_mesh": "2/34", "scale": "1/8"}),
        ("windows-pairwise-disjoint", {"pairwise_disjoint": "true", "count": "-4"}),
        # a citation carries no data, and no record has a field outside its row
        ("coordinate-projection", {"margin": "3"}),
        ("dimension-bookkeeping", {"note": "1"}),
    ])
    def test_noncanonical_or_negative_value_fails_its_record(
        self, workdir, fiber_cert_16, name, changes
    ):
        # every tampered value reads as one that satisfies the record's own
        # inequality, so only the spelling, range or field-set check catches
        # it before the reproduction does
        artifact = json.loads(fiber_cert_16)
        obligations = artifact["payload"]["certificates"][0]["obligations"]
        records = [entry for entry in obligations if entry["name"] == name]
        if not records:
            records = [{"name": name, "kind": "STRUCTURAL", "status": "discharged", "data": {}}]
            obligations.extend(records)
        for entry in records:
            entry["data"].update(changes)
        out = workdir / "fibers.json"
        out.write_text(json.dumps(artifact))
        assert main(["verify", str(out)]) == 3
        witness = json.loads((workdir / "meandim-witness.json").read_text())
        assert witness["obligation"] == name
        assert {k: witness["data"][k] for k in changes} == changes

    def test_tampered_payload_value_exits_3(self, workdir):
        sft, one = write_golden(workdir)
        out = workdir / "ocap.json"
        main(["ocap", "--sft", str(sft), "--set", str(one), "--limit", "--out", str(out)])
        artifact = json.loads(out.read_text())
        artifact["payload"]["value"] = "2/3"
        out.write_text(json.dumps(artifact))
        assert main(["verify", str(out)]) == 3

    def test_unknown_kind_exits_2(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"kind": "mystery", "recipe": {}, "payload": {}}))
        assert main(["verify", str(bad)]) == 2

    def test_malformed_artifact_exits_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        for artifact in (
            ["counterexample-instance", {}, {}],
            {"kind": "counterexample-instance", "recipe": [], "payload": {}},
            {"kind": "counterexample-instance", "recipe": {}},
            {"kind": "ocap-report", "recipe": {}, "payload": {"obligations": ["x"]}},
            {"kind": "ocap-report", "recipe": {}, "payload": {"obligations": [
                {"name": ["x"], "kind": "STRUCTURAL", "status": "discharged"}]}},
        ):
            bad.write_text(json.dumps(artifact))
            assert main(["verify", str(bad)]) == 2, artifact
            assert capsys.readouterr().err.startswith("error:")

    def test_recipe_missing_key_exits_2(self, workdir, capsys):
        out = workdir / "inst.json"
        assert main(["counterexample", "build", "--delta", "1/2", "--eps", "1/2",
                     "--N", "8", "--out", str(out)]) == 0
        artifact = json.loads(out.read_text())
        del artifact["recipe"]["delta"]
        out.write_text(json.dumps(artifact))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv, key", SAMPLED_RECIPES)
    def test_oversized_sampled_recipe_exits_4(self, workdir, capsys, argv, key):
        if "map.json" in argv:
            assert main(["gromov", "build", "--cube", "2", "--m", "2", "--eps", "1/2",
                         "--out", "map.json"]) == 0
        out = workdir / "artifact.json"
        assert main(argv + ["--out", str(out)]) == 0
        artifact = json.loads(out.read_text())
        recipe = artifact["recipe"]
        recipe[key] = [10**6] if isinstance(recipe[key], list) else 10**6
        out.write_text(json.dumps(artifact))
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["verify", str(out)]) == 4
        assert time.perf_counter() - start < 1
        assert "exceeds the sampling budget" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", SAMPLED_KINDS)
    @pytest.mark.parametrize("samples", [0, -2])
    def test_run_that_samples_nothing_exits_2(self, workdir, capsys, argv, samples):
        assert main(_GROMOV_MAP + ["--out", "map.json"]) == 0
        capsys.readouterr()
        assert main(argv + ["--samples", str(samples), "--out", "artifact.json"]) == 2
        assert "samples must be at least 1" in capsys.readouterr().err
        assert not (workdir / "artifact.json").exists()

    @pytest.mark.parametrize("argv", SAMPLED_KINDS)
    def test_recipe_that_samples_nothing_exits_2(self, workdir, capsys, monkeypatch, argv):
        assert main(_GROMOV_MAP + ["--out", "map.json"]) == 0
        out = workdir / "artifact.json"
        assert main(argv + ["--samples", "1", "--out", str(out)]) == 0
        artifact = json.loads(out.read_text())
        for change in ({"samples": 0}, {"samples": -5}):
            # the artifact such a recipe gives without the check: it samples
            # nothing, so its payload is consistent with its recipe
            recipe = dict(artifact["recipe"], **change)
            with monkeypatch.context() as m:
                m.setattr(cli, "_check_sampled_work", lambda *args: None)
                cli.write_artifact(str(out), artifact["kind"], recipe)
            capsys.readouterr()
            assert main(["verify", str(out)]) == 2, change
            assert "samples must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, key", RECIPE_INTEGERS)
    def test_non_integer_recipe_field_exits_2(self, workdir, capsys, argv, key):
        write_golden(workdir)
        if "map.json" in argv:
            assert main(_GROMOV_MAP + ["--out", "map.json"]) == 0
        out = workdir / "artifact.json"
        assert main(argv + ["--out", str(out)]) == 0
        artifact = json.loads(out.read_text())
        assert main(["verify", str(out)]) == 0
        value = artifact["recipe"][key]
        listed = isinstance(value, list)
        (value,) = value if listed else (value,)
        for wrong in (value + 0.5, float(value), str(value), True):
            artifact["recipe"][key] = [wrong] if listed else wrong
            out.write_text(json.dumps(artifact))
            capsys.readouterr()
            assert main(["verify", str(out)]) == 2, (key, wrong)
            assert f"recipe field {key!r} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("slack, code", [(0, 0), (-1, 4)])
    def test_sampling_budget_counts_samples_trials_and_window(
        self, workdir, monkeypatch, slack, code
    ):
        # 2 samples x 5 trials x 32 coordinates: the N = 8 window is
        # [-12, 20), its margin 3 and L' = 9 on each side
        monkeypatch.setattr(cli, "SAMPLE_BUDGET", 2 * 5 * 32 + slack)
        assert main(["counterexample", "fiber-cert", "--delta", "1/2", "--eps", "1/2",
                     "--N", "8", "--samples", "2", "--trials", "5"]) == code

    def test_readme_sampled_commands_fit_the_budget(self):
        # fiber-cert --N 80 --samples 20 (200 trials on the 104-coordinate
        # window) and gromov fiber-check --samples 50 (1000 trials, 2-cube)
        params = CounterexampleParams(Fraction(1, 2), Fraction(1, 2), 80)
        assert 80 + 2 * (params.margin + params.L_prime) == 104
        assert 20 * 200 * 104 <= cli.SAMPLE_BUDGET
        assert 50 * 1000 * 2 <= cli.SAMPLE_BUDGET

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_artifact_exits_with_a_documented_code(self, golden_artifacts, data):
        artifact = data.draw(st.sampled_from(golden_artifacts))
        path = data.draw(st.sampled_from(list(_paths(artifact))))
        values = [None, -1, 10**6, "1/0", [], {}] + ([_DELETE] if path else [])
        value = data.draw(st.sampled_from(values))
        mutant = Path("mutant.json")
        mutant.write_text(json.dumps(_mutated(artifact, path, value)))
        assert main(["verify", str(mutant)]) in (0, 2, 3, 4)


def test_every_structural_record_round_trips_through_its_row(workdir, fiber_cert_16):
    """Each STRUCTURAL record that a 2-cube gromov build and fiber-check, an
    N = 16 fiber-cert and the wedge embeddings write has its row's field
    set, parses through its row, and structural_record gives it back from
    the typed values; together with the empty fiber and the isometric
    pullback, the records reach every row."""
    assert main(_GROMOV_MAP + ["--out", "map.json"]) == 0
    assert main(["gromov", "fiber-check", "map.json", "--samples", "2", "--seed", "7",
                 "--trials", "50", "--out", "fibers.json"]) == 0
    artifacts = [json.loads((workdir / name).read_text()) for name in ("map.json", "fibers.json")]
    artifacts.append(json.loads(fiber_cert_16))
    records = [
        DischargeRecord.from_json_dict(entry)
        for artifact in artifacts
        for entry in cli._iter_obligation_dicts(artifact["payload"])
    ]
    base = golden_mean()
    punctured = [CylinderSet.from_constraints(base, [(0, ("0", "0"))]),
                 CylinderSet.from_constraints(base, [(0, ("1",))])]
    for pieces in (None, punctured, [empty_cylinder(base)] * 2):
        records += wedge_cone_embedding(golden_instance(pieces=pieces), N=4, n=4).obligations
    records += empty_fiber_certificate(Fraction(1, 2)).obligations
    line = finite_cloud_handle([(Fraction(i, 4),) for i in range(5)])
    records += pullback_certificate(
        identity_certificate(line, 1, Fraction(1, 2)), line, lambda x: x,
        witness="isometric-inclusion",
    ).obligations
    reached = set()
    for record in records:
        if record.kind != STRUCTURAL:
            continue
        types, _ = STRUCTURAL_CHECKS[record.name]
        data = record.data_dict
        assert data.keys() == types.keys(), record
        values = {key: read(data[key]) for key, read in types.items()}
        rebuilt = structural_record(record.name, record.status, record.witness, **values)
        assert rebuilt == record
        reached.add(record.name)
    assert reached == set(STRUCTURAL_CHECKS)


# One small artifact of each kind in cli.PAYLOAD_BUILDERS, with the SHA-256
# of the file `--out` writes (canonical JSON plus a newline) and of its
# payload's canonical JSON. A change that alters any artifact's bytes must
# update its digest here and say why; a payload digest changes only with
# what the artifact computes, not with its recipe.
GOLDEN_DIGESTS = [
    ("cube-width-map",
     ["gromov", "build", "--cube", "2", "--m", "2", "--eps", "1/2"],
     "bae755e909cff5c6f74fe56c21cff46345a47adb41af5b2c249c44a7b9afbd73",
     "96d18eb01a10173323d409ad7abec01843d01cfecf9ab1ed46f90855739eb17a"),
    ("gromov-fiber-batch",
     ["gromov", "fiber-check", "map.json", "--samples", "2", "--seed", "7", "--trials", "50"],
     "15e234e288fe7a0d3aa3c6865ab9a1dabb565bc505e9f34daea37a497e54ed4e",
     "8a0f566fe15a5f8494942a944a8a2d90c52fbdc8f26901ce7fbcc8756103c08f"),
    ("ocap-report",
     ["ocap", "--sft", "golden.json", "--set", "one.json", "--limit"],
     "cd47b3f79911eea8ccf6be060cde4d2fd933c4332fceecfc60b99308de64c817",
     "d24a7530e8b2b61c27580971aca4ed0fbe742dcad06d1d9d28ceb987fd2f38ed"),
    ("sbp-refine",
     ["sbp", "refine", "--sft", "golden.json", "--cover", "zero.json", "one.json",
      "--delta", "1/2"],
     "99f54c39dd2d1247eb18d75360faee27795ad5c87a1c496d6daa87161fc86147",
     "46be9e786c857138abf21e4eb5374d032f477632338e2f3daaee1f7c83e4b0fc"),
    ("counterexample-instance",
     ["counterexample", "build", "--delta", "1/2", "--eps", "1/2", "--N", "8"],
     "02ff49f9759b208a3b1a114b6f48871003e751b8e73678afc2e6407be1d85a7a",
     "367020a3df49fd3a0e651a11d61e503e38069c7c6dea8d4635d09b05dcfceaa7"),
    ("count-report",
     ["counterexample", "check-counts", "--delta", "1/2", "--eps", "1/2", "--N", "8",
      "--samples", "2", "--seed", "1"],
     "e026703ffcaecd4ef753dc90b2bdc1bf4c416dd377eb9cd623489a34c6bd66d2",
     "528ff678534f8fba630dd256b820291f9df5e94cb2d186c861e7edfd5cd6be84"),
    ("counterexample-fiber-batch",
     ["counterexample", "fiber-cert", "--delta", "1/2", "--eps", "1/2", "--N", "8",
      "--samples", "2", "--seed", "2", "--trials", "50"],
     "1349dcc88b7a6f66bf46078f3999dffb4eeb54bc42ec06b69c06de5ffc2dd524",
     "ea04a0df514b8a56138425b63720f17c627de67c1925585825ccf093ff6e1a35"),
    ("mdim-report",
     ["counterexample", "report", "--delta", "1/2", "--eps", "1/2", "--N", "8"],
     "1be46338d18bb78c6153b72e273c5da6597857ee7e485d046a90c45a8e2b8589",
     "00a45548d0ae9c86066958ec77e44d680e3cdc05c4048d5ed0aca141cf5a5c6c"),
]


def assert_digests(path: Path, file_digest: str, payload_digest: str, name):
    data = path.read_bytes()
    payload = canonical_json(json.loads(data)["payload"]).encode()
    assert hashlib.sha256(payload).hexdigest() == payload_digest, name
    assert hashlib.sha256(data).hexdigest() == file_digest, name


# the keys that recipes written by earlier versions hold and no payload reads
OLD_RECIPE_KEYS = {"samples": 20, "seed": 0, "trials": 200, "eta": None, "mesh_scale": None}


def test_every_recipe_key_is_read(workdir):
    """Deleting any one key of a recipe makes `verify` exit 2, and the keys
    that earlier versions also wrote are ignored."""
    write_golden(workdir)
    (workdir / "zero.json").write_text(json.dumps([[0, "0"]]))
    assert main(_GROMOV_MAP + ["--out", "map.json"]) == 0
    ocap_finite = ["ocap", "--sft", "golden.json", "--set", "one.json", "--N", "8"]
    mutant = workdir / "mutant.json"
    for args in [args for _, args, _, _ in GOLDEN_DIGESTS] + [ocap_finite]:
        assert main(args + ["--out", "artifact.json"]) == 0, args
        artifact = json.loads((workdir / "artifact.json").read_text())
        recipe = artifact["recipe"]
        for key in recipe:
            mutant.write_text(json.dumps(
                dict(artifact, recipe={k: v for k, v in recipe.items() if k != key})))
            assert main(["verify", str(mutant)]) == 2, (args, key)
        # earlier versions wrote "mode" into ocap recipes, "limit" where N is null
        mode = "limit" if recipe.get("N", 0) is None else "finite"
        old = dict(OLD_RECIPE_KEYS, mode=mode, **recipe)
        mutant.write_text(json.dumps(dict(artifact, recipe=old)))
        assert main(["verify", str(mutant)]) == 0, args


# options that no payload of the action reads, a second --eps or --N where
# the action takes one, and `complex`, which is no command
REFUSED_OPTIONS = [
    ["counterexample", "build", *_FACTOR, "--samples", "3"],
    ["counterexample", "check-counts", *_FACTOR, "--trials", "5"],
    ["counterexample", "report", *_FACTOR, "--eta", "1"],
    ["counterexample", "report", *_FACTOR, "--samples", "2"],
    ["counterexample", "report", *_FACTOR, "--seed", "1"],
    _GROMOV_MAP + ["--mesh-scale", "1/8"],
    ["complex", "subdivide", "triangle.json"],
] + [
    ["counterexample", action, "--delta", "1/2", *twice]
    for action in ("build", "check-counts", "fiber-cert")
    for twice in (["--eps", "1/2", "1/3", "--N", "8"], ["--eps", "1/2", "--N", "8", "16"])
]


@pytest.mark.parametrize("argv", REFUSED_OPTIONS, ids=" ".join)
def test_option_no_payload_reads_is_refused(workdir, argv):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", "artifact.json"])
    assert err.value.code == 2
    assert not (workdir / "artifact.json").exists()


def test_complex_is_no_command(workdir, capsys):
    (workdir / "x.json").write_text(json.dumps({"vertices": [1], "maximal_simplices": [[1]]}))
    with pytest.raises(SystemExit) as err:
        main(["complex", "info", "x.json"])
    assert err.value.code == 2
    assert "invalid choice: 'complex'" in capsys.readouterr().err


def readme_commands() -> list:
    """The argv of every `meandim ...` line of the README's Command line
    block, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        line.split("#", 1)[0].split()[1:]
        for line in block.splitlines()
        if line.startswith("meandim ")
    ]


def test_readme_commands_parse():
    """Every `meandim ...` line of the README's Command line block parses
    (nothing is run), so an option the CLI no longer takes cannot linger in
    the docs."""
    commands = readme_commands()
    assert {argv[0] for argv in commands} == set(cli.COMMANDS)
    for argv in commands:
        cli._parser().parse_args(argv)


def test_golden_artifact_digests(workdir):
    assert sorted(kind for kind, _, _, _ in GOLDEN_DIGESTS) == sorted(PAYLOAD_BUILDERS)
    write_golden(workdir)
    (workdir / "zero.json").write_text(json.dumps([[0, "0"]]))
    for kind, args, file_digest, payload_digest in GOLDEN_DIGESTS:
        out = "map.json" if kind == "cube-width-map" else "artifact.json"
        assert main(args + ["--out", out]) == 0, kind
        assert json.loads((workdir / out).read_bytes())["kind"] == kind
        assert_digests(workdir / out, file_digest, payload_digest, kind)


# The golden digests pin the 2-cube; these pin a 3-cube map (grid 3) and a
# fiber check on it.
CUBE3_DIGESTS = [
    (["gromov", "build", "--cube", "3", "--m", "3", "--eps", "4", "--out", "map.json"],
     "858efef1c56e7ce91f22d79ddc569c5a112341abbac557e9d03b9ac1e3cf6790",
     "d31563c8b1226f31c117e7e12232390eaf2ab79e23a92da44d1ca149946316bc"),
    (["gromov", "fiber-check", "map.json", "--samples", "2", "--seed", "7", "--trials", "50",
      "--out", "fibers.json"],
     "e98e1249887b6e834d7b953fd59a754a98b70137745826c4205c9942f1cafda4",
     "978df91c42e7db560687e551318e027d0a73bc247abc3f73ed07272244c8ec8f"),
]


def test_three_cube_artifact_digests(workdir):
    for args, file_digest, payload_digest in CUBE3_DIGESTS:
        assert main(args) == 0, args[1]
        assert_digests(workdir / args[-1], file_digest, payload_digest, args[1])


def test_map_payload_builds_no_complex(workdir, monkeypatch):
    """`gromov build` and the `verify` of its map count the subdivided Kuhn
    cube: with its builders refusing, they still write and accept the
    golden map."""

    def refuse(*args):
        raise AssertionError("the map payload builds no complex")

    monkeypatch.setattr(widthmaps, "kuhn_triangulate_cube", refuse)
    monkeypatch.setattr(widthmaps, "barycentric_subdivide_geometric", refuse)
    kind, args, file_digest, payload_digest = GOLDEN_DIGESTS[0]
    assert main(args + ["--out", "map.json"]) == 0
    assert main(["verify", "map.json"]) == 0
    assert_digests(workdir / "map.json", file_digest, payload_digest, kind)


def test_fiber_check_and_its_verify_build_the_map_once_each(workdir, monkeypatch):
    calls = []
    real = cli.cube_width_map

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "cube_width_map", counted)
    assert main(_GROMOV_MAP + ["--out", "map.json"]) == 0
    assert main(["verify", "map.json"]) == 0
    assert calls == []
    argv = ["gromov", "fiber-check", "map.json", "--samples", "1", "--trials", "5"]
    assert main(argv + ["--out", "fibers.json"]) == 0
    assert len(calls) == 1
    assert main(["verify", "fibers.json"]) == 0
    assert len(calls) == 2


# The benchmark's factor-fiber workload at seed 3: its check-counts at 200
# samples, and one of its fiber-cert commands (the workload's seed 3 draws
# this one's seed, 12), with the digests of their files and payloads.
FACTOR_FIBER_DIGESTS = [
    (["counterexample", "check-counts", "--delta", "1/2", "--eps", "1/2", "--N", "16",
      "--seed", "3", "--samples", "200"],
     "5ed6c98c1ecf89ddac793704e7143653d3a69e93a48f88e133ff08f07f2cb09f",
     "814efeaffca7ffa4ff813d03a988e83371b76ca35dc554431c7cd7de1cff93bb"),
    (["counterexample", "fiber-cert", "--delta", "1/2", "--eps", "1/2", "--N", "16",
      "--seed", "12", "--samples", "2", "--trials", "30"],
     "bf5f6f17fd7c1dc37f32cd71ba9018fd092bda85bcb42bee759880224a6fbabd",
     "80024a2a2a00c782e112f03bcfe586d940e9385ad585c8b073833edad1246f05"),
]


@pytest.mark.parametrize("args, file_digest, payload_digest", FACTOR_FIBER_DIGESTS)
def test_factor_fiber_workload_digests(workdir, args, file_digest, payload_digest):
    assert main(args + ["--out", "artifact.json"]) == 0
    assert_digests(workdir / "artifact.json", file_digest, payload_digest, args[1])


# The golden digests pin the golden-mean shift, whose word graphs are too
# small for ties between critical cycles; these pin the seed-3 instance's
# witness cycle, its finite value at the benchmark's horizon and its
# refined cover.
SEED3_ORBIT_DIGESTS = [
    (["ocap", "--sft", "sft.json", "--set", "set.json", "--limit"],
     "403693d9e318e5f656c13ef5e179523764925c9b37f9209ade0bc78f1e6e6654",
     "78df5496ddeeaa7c444e1168498ddec3dbd7b65bd43b9726acad1ac30142cc0d"),
    (["ocap", "--sft", "sft.json", "--set", "set.json", "--N", "512"],
     "c11ef8ee89883a00a1f988989424d375f33a14da34e7bcf4ce761a9dd9ab9a3a",
     "f140cbf81569479798a342e6f1aedc88d96ee03ed639f564d1180eb6c42c4fe0"),
    (["sbp", "refine", "--sft", "sft.json", "--cover",
      *(f"cover{j}.json" for j in range(len(SEED3_COVER))), "--delta", "1/2"],
     "2160f19f5a83b26f20b68520e3a093b9a3fc224706ab36fdb91f82d7a0a5619f",
     "3ba731f7c8fb494097f5383f2e5851c8635641bd635d44ec042d8ff8a94d541c"),
]


@pytest.mark.parametrize("args, file_digest, payload_digest", SEED3_ORBIT_DIGESTS)
def test_seed3_orbit_workload_digests(workdir, args, file_digest, payload_digest):
    write_seed3_orbit(workdir)
    assert main(args + ["--out", "artifact.json"]) == 0
    assert_digests(workdir / "artifact.json", file_digest, payload_digest, args[:2])


class TestModuleEntryPoint:
    def test_python_m_meandim_help(self):
        env = dict(os.environ, PYTHONPATH=str(Path(meandim.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "meandim", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage:")


# one command per exit code: 0, 2 (a missing file), 3 (a tampered artifact)
# and 4 (a map over the simplex budget)
EXIT_CODE_COMMANDS = [
    (["counterexample", "build", "--delta", "1/2", "--eps", "1/2", "--N", "16",
      "--out", "inst.json"], 0),
    (["verify", "missing.json"], 2),
    (["verify", "tampered.json"], 3),
    (["gromov", "build", "--cube", "4", "--m", "2", "--eps", "1/100", "--out", "big.json"], 4),
]


def write_tampered(tmp_path) -> Path:
    """An ocap --limit artifact whose value was edited: verify exits 3."""
    sft, one = write_golden(tmp_path)
    out = tmp_path / "tampered.json"
    assert main(["ocap", "--sft", str(sft), "--set", str(one), "--limit",
                 "--out", str(out)]) == 0
    artifact = json.loads(out.read_text())
    artifact["payload"]["value"] = "2/3"
    out.write_text(json.dumps(artifact))
    return out


@pytest.mark.parametrize("caller_collects", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, code", EXIT_CODE_COMMANDS, ids=["0", "2", "3", "4"])
def test_collector_paused_for_the_command_and_restored_after(
    workdir, monkeypatch, argv, code, caller_collects
):
    write_tampered(workdir)
    command = cli.COMMANDS[argv[0]]
    seen = []

    def recording(ns):
        seen.append(gc.isenabled())
        try:
            return command(ns)
        finally:
            seen.append(gc.isenabled())

    monkeypatch.setitem(cli.COMMANDS, argv[0], recording)
    collecting = gc.isenabled()
    try:
        (gc.enable if caller_collects else gc.disable)()
        assert main(argv) == code
        assert gc.isenabled() == caller_collects
    finally:
        (gc.enable if collecting else gc.disable)()
    assert seen == [False, False]


def test_collector_restored_after_a_usage_error(workdir):
    assert gc.isenabled()
    with pytest.raises(SystemExit):
        main(["gromov", "build", "--cube", "1", "--m", "2", "--eps", "1.5", "--out", "x.json"])
    assert gc.isenabled()


# the README's sampling commands at test sizes: option -> its values
TEST_SIZES = {
    ("gromov", "fiber-check"): {"--samples": ["2"], "--trials": ["20"]},
    ("counterexample", "check-counts"): {"--samples": ["20"]},
    ("counterexample", "fiber-cert"): {"--N": ["16"], "--samples": ["2"], "--trials": ["20"]},
    ("counterexample", "report"): {"--N": ["8", "16"]},
}


def at_test_size(argv: list) -> list:
    sizes = TEST_SIZES.get(tuple(argv[:2]), {})
    kept, option = [], None
    for arg in argv:
        if arg.startswith("--"):
            option = arg
        if option not in sizes:
            kept.append(arg)
    for option, values in sizes.items():
        kept += [option, *values]
    return kept


def test_no_command_leaves_cyclic_garbage(workdir, capsys):
    # `main` runs each command with the cyclic collector paused, so a cycle
    # made per trial or per simplex would pile up for the whole command;
    # this is what keeps the pause safe: each README command at test size,
    # the verify of each artifact and one command per failing exit code
    # leave nothing for the collector to free
    write_golden(workdir)
    (workdir / "v1.json").write_text(json.dumps([[0, "0"]]))
    (workdir / "v2.json").write_text(json.dumps([[0, "1"]]))
    write_tampered(workdir)
    runs, artifacts = [], []
    for i, argv in enumerate(readme_commands()):
        argv = at_test_size(argv)
        if argv[0] != "verify" and "--out" not in argv:
            argv += ["--out", f"artifact{i}.json"]
        if "--out" in argv:
            artifacts.append(argv[argv.index("--out") + 1])
        runs.append((argv, 0))
    runs += [(["verify", path], 0) for path in artifacts]
    runs += [(argv, code) for argv, code in EXIT_CODE_COMMANDS if code]
    # the first parser build leaves argparse's cycles once per process
    assert main(["counterexample", "build", "--delta", "1/2", "--eps", "1/2",
                 "--N", "8"]) == 0
    collecting = gc.isenabled()
    try:
        for argv, code in runs:
            gc.collect()
            gc.disable()
            assert main(argv) == code, argv
            assert gc.collect() == 0, argv
    finally:
        (gc.enable if collecting else gc.disable)()
    assert {argv[0] for argv, _ in runs} == set(cli.COMMANDS)


def deep_artifact(payload: str) -> str:
    """An N = 8 counterexample-instance artifact with the given payload text."""
    recipe = {"delta": "1/2", "eps": "1/2", "N": 8, "seed": 0}
    return '{"kind":"counterexample-instance","recipe":%s,"payload":%s}' % (
        json.dumps(recipe), payload)


# an artifact too deep for `json` to read, and artifacts it reads whose
# payload or failed record's witness is too deep to spell back
DEEP_DOCUMENTS = {
    "payload-990": deep_artifact('{"a":' * 990 + "{}" + "}" * 990),
    "payload-600": deep_artifact('{"a":' * 600 + "{}" + "}" * 600),
    "witness-600": deep_artifact(
        '{"obligations":[{"name":"x","kind":"STRUCTURAL","status":"failed","witness":%s}]}'
        % ("[" * 600 + "]" * 600)),
}


@pytest.mark.parametrize("name", DEEP_DOCUMENTS)
def test_deeply_nested_document_exits_2(workdir, capsys, name):
    path = workdir / "deep.json"
    path.write_text(DEEP_DOCUMENTS[name])
    # an exception escaping main would be the traceback
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_obligation_walk_keeps_document_order_at_any_depth():
    document = {"a": [{"obligations": [1, 2]}, {"b": {"obligations": [3]}}],
                "obligations": [4, 5], "c": {"obligations": [6]}}
    assert list(cli._iter_obligation_dicts(document)) == [1, 2, 3, 4, 5, 6]
    deep = {"obligations": [0]}
    for _ in range(100_000):
        deep = {"a": [deep]}
    assert list(cli._iter_obligation_dicts(deep)) == [0]
