"""Batch command-line frontend.

Every command except `verify` builds an artifact (written with `--out`)
that `verify` re-checks. Every artifact is a JSON document {"kind", "recipe", "payload"} where the
payload is a pure function of the recipe: `verify` re-runs arithmetic checks
on every structural obligation it finds, then rebuilds the payload from the
recipe and requires byte-identical canonical JSON (sampled records re-run at
their recorded seeds), and prints how many records it re-derived, accepted as
citations and re-ran. Exit codes: 0 success, 2 precondition or parse
failure, 3 obligation failure (with a witness file), 4 budget exceeded.

Commands build acyclic data: `gromov fiber-check` alone builds tens of
thousands of frozensets and tuples per map, and the generational garbage
collector would re-scan them all, finding nothing to free. So `main` pauses
the cyclic collector for the whole command and then restores the caller's
state, on every exit code. `tests/test_cli.py` pins the premise: no command
leaves an unreachable object behind.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .certificates import (
    CITATIONS,
    FAILED,
    SAMPLED,
    STRUCTURAL,
    DischargeRecord,
    check_certificate,
    recheck_structural,
    structural_record,
)
from .counterexample import (
    CSV_HEADER,
    CounterexampleParams,
    FactorMapInstance,
    fiber_dimension_certificate,
    mdim_report,
    nonzero_count_check,
    sample_coordinates,
)
from .errors import (
    BudgetExceededError,
    MeanDimError,
    ObligationFailedError,
    PreconditionError,
)
from .serialize import canonical_json, format_fraction, parse_fraction, to_jsonable
from .symbolic import (
    CylinderSet,
    Sft,
    ocap_finite_N,
    ocap_limit,
    sbp_cover_refine,
)
from .widthmaps import cube_width_map, cube_width_map_payload

# the most sampled work a recipe may ask for: samples times trials times
# coordinates per sampled point; the README's fiber-cert --N 80 --samples 20
# needs 20 * 200 * 104 = 416,000, its gromov fiber-check 50 * 1000 * 2
SAMPLE_BUDGET = 2 * 10**6


def _rational(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except PreconditionError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# built once: a parser is a reference cycle that only the cyclic garbage
# collector frees, so one per call piles up between collections; the cache
# also keeps argparse's first-build cycles from recurring while `main` has
# the collector paused
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meandim",
        description="width-reducing maps, embedding certificates, orbit capacity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gr = sub.add_parser("gromov", help="width maps on triangulated cubes")
    gr_sub = gr.add_subparsers(dest="action", required=True)
    gr_build = gr_sub.add_parser("build")
    gr_build.add_argument("--cube", dest="n", metavar="N", type=int, required=True)
    gr_build.add_argument("--m", type=int, required=True)
    gr_build.add_argument("--eps", type=_rational, required=True)
    gr_build.add_argument("--out", required=True)
    gr_check = gr_sub.add_parser("fiber-check")
    gr_check.add_argument("map_file")
    gr_check.add_argument("--samples", type=int, default=10)
    gr_check.add_argument("--seed", type=int, default=0)
    gr_check.add_argument("--trials", type=int, default=1000)
    gr_check.add_argument("--eta", type=_rational, default=None)
    gr_check.add_argument("--out")

    oc = sub.add_parser("ocap", help="orbit capacity of a cylinder set")
    oc.add_argument("--sft", required=True)
    oc.add_argument("--set", dest="set_file", required=True)
    group = oc.add_mutually_exclusive_group(required=True)
    group.add_argument("--N", type=int)
    group.add_argument("--limit", action="store_true")
    oc.add_argument("--out")

    sb = sub.add_parser("sbp", help="disjoint refinement of clopen covers")
    sb_sub = sb.add_subparsers(dest="action", required=True)
    sb_ref = sb_sub.add_parser("refine")
    sb_ref.add_argument("--sft", required=True)
    sb_ref.add_argument("--cover", nargs="+", required=True)
    sb_ref.add_argument("--delta", type=_rational, required=True)
    sb_ref.add_argument("--out")

    cx2 = sub.add_parser("counterexample", help="the factor-map construction")
    cx2_sub = cx2.add_subparsers(dest="action", required=True)
    # each action takes the options its payload reads, and only report
    # takes several scales and horizons and draws nothing
    for name in ("build", "check-counts", "fiber-cert", "report"):
        p = cx2_sub.add_parser(name)
        nargs = "+" if name == "report" else None
        p.add_argument("--delta", type=_rational, required=True)
        p.add_argument("--eps", type=_rational, nargs=nargs, required=True)
        p.add_argument("--N", type=int, nargs=nargs, required=True)
        if name != "report":
            p.add_argument("--seed", type=int, default=0)
        if name in ("check-counts", "fiber-cert"):
            p.add_argument("--samples", type=int, default=20)
        if name == "fiber-cert":
            p.add_argument("--trials", type=int, default=200)
            p.add_argument("--eta", type=_rational, default=None)
        p.add_argument("--out")

    ver = sub.add_parser("verify", help="re-check a serialized artifact")
    ver.add_argument("file")

    return parser


# ---------------------------------------------------------------------------
# payload builders: the verifier rebuilds through these same functions
# ---------------------------------------------------------------------------


def _integer(value, name: str) -> int:
    """A recipe's integer field, which must be a JSON integer: a float
    (8.5 or 1.0), a string or a boolean is refused, not truncated or parsed."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise PreconditionError(f"recipe field {name!r} must be an integer, not {value!r}")
    return value


def _map_args(recipe: dict) -> tuple:
    """A map recipe's (n, m, eps), for cube_width_map and its payload."""
    return _integer(recipe["n"], "n"), _integer(recipe["m"], "m"), parse_fraction(recipe["eps"])


def _instance(recipe: dict):
    params = CounterexampleParams(
        parse_fraction(recipe["delta"]),
        parse_fraction(recipe["eps"]),
        _integer(recipe["N"], "N"),
        _integer(recipe["seed"], "seed"),
    )
    return params, FactorMapInstance(params)


def _check_sampled_work(samples: int, trials: int, coordinates: int):
    """Refuse, before anything is drawn, a recipe that samples nothing
    (samples < 1) or whose sampled work (samples times trials times
    coordinates per sampled point) exceeds SAMPLE_BUDGET."""
    if samples < 1:
        raise PreconditionError(f"samples must be at least 1, not {samples}")
    if samples * trials * coordinates > SAMPLE_BUDGET:
        raise BudgetExceededError(
            f"sampled work {samples * trials * coordinates} (samples x trials x "
            f"coordinates per point) exceeds the sampling budget {SAMPLE_BUDGET}"
        )


def _checked_certificates(recipe: dict, coordinates: int, sample_fiber) -> list:
    """Draw recipe["samples"] fibers from one stream seeded by the recipe and
    append each certificate's sampled check, run at a seed drawn from the
    same stream. A sampled point has `coordinates` coordinates.
    sample_fiber(rng) returns a certificate and the extra fields of its
    entry."""
    samples = _integer(recipe["samples"], "samples")
    trials = _integer(recipe["trials"], "trials")
    _check_sampled_work(samples, trials, coordinates)
    rng = random.Random(_integer(recipe["seed"], "seed"))
    eta = None if recipe["eta"] is None else parse_fraction(recipe["eta"])
    entries = []
    for _ in range(samples):
        cert, extra = sample_fiber(rng)
        record = check_certificate(cert, trials=trials, seed=rng.randint(0, 2**32), eta=eta)
        entry = cert.to_json_dict()
        entry["obligations"].append(record.to_json_dict())
        entry.update(extra)
        entries.append(entry)
    return entries


def _payload_cube_width_map(recipe: dict) -> dict:
    return cube_width_map_payload(*_map_args(recipe))


def _payload_gromov_fiber_batch(recipe: dict) -> dict:
    wm = cube_width_map(*_map_args(recipe))

    def sample_fiber(rng):
        p = sample_coordinates(rng, wm.m - 1)
        return wm.fiber_certificate(p), {"p": [format_fraction(c) for c in p]}

    return {
        "fiber_bound": format_fraction(wm.fiber_bound),
        "certificates": _checked_certificates(recipe, wm.n, sample_fiber),
    }


def _payload_ocap(recipe: dict) -> dict:
    sft = Sft.from_json_dict(recipe["sft"])
    A = CylinderSet.from_constraints(sft, recipe["set"])
    if recipe["N"] is None:  # ocap --limit
        result = ocap_limit(sft, A)
        return {
            "value": format_fraction(result.value),
            "witness": list(result.witness),
            "graph_size": result.graph_size,
        }
    N = _integer(recipe["N"], "N")
    return {"value": format_fraction(ocap_finite_N(sft, A, N)), "N": N}


def _payload_sbp(recipe: dict) -> dict:
    sft = Sft.from_json_dict(recipe["sft"])
    cover = [CylinderSet.from_constraints(sft, c) for c in recipe["cover"]]
    pieces, complement, report = sbp_cover_refine(
        sft, cover, parse_fraction(recipe["delta"])
    )
    return {
        "pieces": [p.to_json() for p in pieces],
        "complement": complement.to_json(),
        "complement_ocap": format_fraction(report.value),
        "witness": list(report.witness),
    }


def _payload_counterexample_build(recipe: dict) -> dict:
    params, inst = _instance(recipe)
    return {
        "params": params.to_json_dict(),
        "window": [inst.window_lo, inst.window_hi],
        "checks": [[name, value, kind] for name, value, kind in params.report()],
    }


def _payload_count_report(recipe: dict) -> dict:
    params, inst = _instance(recipe)
    samples = _integer(recipe["samples"], "samples")
    _check_sampled_work(samples, 1, inst.window_hi - inst.window_lo)
    report = nonzero_count_check(inst, samples)
    payload = report.to_json_dict()
    payload["params"] = params.to_json_dict()
    return payload


def _payload_fiber_batch(recipe: dict) -> dict:
    params, inst = _instance(recipe)

    def sample_fiber(rng):
        state = inst.sample_state(rng)
        return fiber_dimension_certificate(inst, state), {"residue": state[1]}

    return {
        "bound": format_fraction(params.fiber_dim_bound()),
        "certificates": _checked_certificates(
            recipe, inst.window_hi - inst.window_lo, sample_fiber
        ),
    }


def _payload_mdim_report(recipe: dict) -> dict:
    rows = mdim_report(
        parse_fraction(recipe["delta"]),
        [_integer(n, "N") for n in recipe["N"]],
        [parse_fraction(e) for e in recipe["eps"]],
    )
    return {
        "header": CSV_HEADER,
        "rows": [row.to_csv() for row in rows],
    }


PAYLOAD_BUILDERS = {
    "cube-width-map": _payload_cube_width_map,
    "gromov-fiber-batch": _payload_gromov_fiber_batch,
    "ocap-report": _payload_ocap,
    "sbp-refine": _payload_sbp,
    "counterexample-instance": _payload_counterexample_build,
    "count-report": _payload_count_report,
    "counterexample-fiber-batch": _payload_fiber_batch,
    "mdim-report": _payload_mdim_report,
}


# what a recipe or an input document of the wrong shape raises
_MALFORMED = (KeyError, TypeError, ValueError)


def _build_payload(kind: str, recipe: dict) -> dict:
    try:
        return PAYLOAD_BUILDERS[kind](recipe)
    except _MALFORMED as exc:
        raise PreconditionError(f"malformed {kind} recipe: {exc!r}") from exc


def _load_json(path: str, parse=lambda data: data):
    """The JSON document in an input file, passed through `parse`. A missing
    or unreadable file, text that is not JSON, a document nested too deep
    for the interpreter's stack and a document of the wrong shape for
    `parse` all raise PreconditionError."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (OSError, RecursionError, *_MALFORMED) as exc:
        raise PreconditionError(f"cannot read {path}: {exc!r}") from exc


def write_artifact(path: str | None, kind: str, recipe: dict) -> dict:
    """Build the artifact of `kind` from `recipe`, and write it to `path`
    unless `path` is None."""
    payload = _build_payload(kind, recipe)
    artifact = {"kind": kind, "recipe": recipe, "payload": payload}
    if path is not None:
        Path(path).write_text(canonical_json(artifact) + "\n")
    return artifact


def _raise_on_count_violations(payload: dict):
    """A count report with violations fails its nonzero-count-bound."""
    if payload["violations"]:
        raise ObligationFailedError(
            structural_record(
                "nonzero-count-bound", FAILED, ("count bound violated",),
                max_count=payload["max_count"],
            )
        )


def _raise_on_failed_obligations(artifact: dict):
    for entry in _iter_obligation_dicts(artifact.get("payload")):
        if entry.get("status") == FAILED:
            raise ObligationFailedError(DischargeRecord.from_json_dict(entry))


def _iter_obligation_dicts(node):
    """Every entry of an "obligations" list under `node`, in document order.
    The walk keeps its own stack, so no depth that `json` reads overflows
    it; an item is (True, entry) or (False, node still to walk)."""
    stack = [(False, node)]
    while stack:
        is_entry, node = stack.pop()
        if is_entry:
            yield node
        elif isinstance(node, dict):
            for key, value in reversed(node.items()):
                if key == "obligations" and isinstance(value, list):
                    stack.extend((True, entry) for entry in reversed(value))
                else:
                    stack.append((False, value))
        elif isinstance(node, list):
            stack.extend((False, item) for item in reversed(node))


class VerifyCounts(NamedTuple):
    """What `verify_artifact` checked: structural records re-derived by
    arithmetic, structural records accepted as citations, sampled records
    reproduced by the rebuild, and the near pairs those records tested."""

    rederived: int
    cited: int
    sampled: int
    near_pairs: int


def verify_artifact(path: str) -> VerifyCounts:
    """Re-discharge structural obligations arithmetically, then rebuild the
    payload from the recipe and require byte-identical canonical JSON; a
    count report with violations then fails as `check-counts` does. Return
    the counts of what was checked."""
    artifact = _load_json(path)
    if not isinstance(artifact, dict):
        raise PreconditionError("artifact is not a JSON object")
    kind = artifact.get("kind")
    if not isinstance(kind, str) or kind not in PAYLOAD_BUILDERS:
        raise PreconditionError(f"unknown artifact kind {kind!r}")
    if not isinstance(artifact.get("recipe"), dict) or "payload" not in artifact:
        raise PreconditionError("artifact needs an object recipe and a payload")
    # spelled first: a payload that `json` reads may still be too deep to
    # spell, and then neither the comparison below nor the witness file of
    # a failed record in it could be written
    try:
        original = canonical_json(artifact["payload"])
    except RecursionError as exc:
        raise PreconditionError(f"payload nested too deep: {exc!r}") from exc
    rederived = cited = 0
    sampled = []
    for entry in _iter_obligation_dicts(artifact["payload"]):
        try:
            record = DischargeRecord.from_json_dict(entry)
        except (AttributeError, KeyError, TypeError) as exc:
            raise PreconditionError(f"malformed obligation record: {exc!r}") from exc
        if record.kind == STRUCTURAL:
            if not recheck_structural(record):
                raise ObligationFailedError(record)
            if record.name in CITATIONS:
                cited += 1
            else:
                rederived += 1
        if record.status == FAILED:
            raise ObligationFailedError(record)
        if record.kind == SAMPLED:
            sampled.append(record)
    rebuilt = _build_payload(kind, artifact["recipe"])
    recomputed = canonical_json(rebuilt)
    if original != recomputed:
        raise ObligationFailedError(
            structural_record(
                "artifact-reproduction", FAILED,
                ("payload does not match recompute from recipe",), path=path,
            )
        )
    if kind == "count-report":
        _raise_on_count_violations(rebuilt)
    # the payload is the rebuild's own output, so its counts are integers
    near_pairs = sum(int(r.data_dict.get("near_pairs", 0)) for r in sampled)
    return VerifyCounts(rederived, cited, len(sampled), near_pairs)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _map_recipe(artifact) -> dict:
    if not isinstance(artifact, dict) or artifact.get("kind") != "cube-width-map":
        raise PreconditionError("fiber-check expects a cube-width-map artifact")
    recipe = artifact["recipe"]
    return {key: recipe[key] for key in ("n", "m", "eps")}


def _options(ns, *skip) -> dict:
    """The command's parsed options as recipe fields: every option but the
    command, the action, the output path and the names in `skip`."""
    dropped = {"command", "action", "out", *skip}
    return {key: value for key, value in to_jsonable(vars(ns)).items() if key not in dropped}


def _cmd_gromov(ns) -> int:
    if ns.action == "build":
        artifact = write_artifact(ns.out, "cube-width-map", _options(ns))
        print(f"wrote {ns.out}: grid {artifact['payload']['grid']}, "
              f"fiber bound {artifact['payload']['fiber_bound']}")
        return 0
    recipe = dict(_load_json(ns.map_file, _map_recipe), **_options(ns, "map_file"))
    out = ns.out or (ns.map_file + ".fibers.json")
    artifact = write_artifact(out, "gromov-fiber-batch", recipe)
    dims = [c["target_dim"] for c in artifact["payload"]["certificates"]]
    print(f"wrote {out}: {len(dims)} fibers, max dim {max(dims)}, "
          f"bound {artifact['payload']['fiber_bound']}")
    _raise_on_failed_obligations(artifact)
    return 0


def _cmd_ocap(ns) -> int:
    recipe = {
        "sft": _load_json(ns.sft),
        "set": _load_json(ns.set_file),
        "N": ns.N,  # None for --limit
    }
    payload = write_artifact(ns.out, "ocap-report", recipe)["payload"]
    print(payload["value"])
    return 0


def _cmd_sbp(ns) -> int:
    recipe = {
        "sft": _load_json(ns.sft),
        "cover": [_load_json(c) for c in ns.cover],
        "delta": format_fraction(ns.delta),
    }
    payload = write_artifact(ns.out, "sbp-refine", recipe)["payload"]
    for i, piece in enumerate(payload["pieces"], start=1):
        print(f"piece {i}: offset {piece['offset']}, {len(piece['words'])} words")
    print(f"complement ocap: {payload['complement_ocap']}")
    return 0


def _cmd_counterexample(ns) -> int:
    recipe = _options(ns)
    if ns.action == "report":
        payload = write_artifact(ns.out, "mdim-report", recipe)["payload"]
        print(payload["header"])
        for row in payload["rows"]:
            print(row)
        return 0
    kinds = {
        "build": "counterexample-instance",
        "check-counts": "count-report",
        "fiber-cert": "counterexample-fiber-batch",
    }
    kind = kinds[ns.action]
    out = ns.out or f"counterexample-{ns.action}.json"
    artifact = write_artifact(out, kind, recipe)
    payload = artifact["payload"]
    if kind == "count-report":
        print(
            f"max nonzero count {payload['max_count']} < bound {payload['bound']} "
            f"(block form {payload['block_bound']}); violations: {payload['violations']}"
        )
        _raise_on_count_violations(payload)
    elif kind == "counterexample-fiber-batch":
        dims = [c["target_dim"] for c in payload["certificates"]]
        print(f"{len(dims)} fiber certificates, max dim {max(dims)}, bound {payload['bound']}")
        _raise_on_failed_obligations(artifact)
    else:
        print(f"wrote {out}")
        for name, value, kind_tag in (
            (row[0], row[1], row[2]) for row in payload["checks"]
        ):
            print(f"  [{kind_tag}] {name}: {value}")
    return 0


def _cmd_verify(ns) -> int:
    counts = verify_artifact(ns.file)
    print(
        f"{ns.file}: verified ({counts.rederived} re-derived, {counts.cited} cited, "
        f"{counts.sampled} sampled re-run, {counts.near_pairs} near pairs)"
    )
    return 0


COMMANDS = {
    "gromov": _cmd_gromov,
    "ocap": _cmd_ocap,
    "sbp": _cmd_sbp,
    "counterexample": _cmd_counterexample,
    "verify": _cmd_verify,
}


def _write_witness(exc: ObligationFailedError):
    record = exc.record
    witness_path = Path("meandim-witness.json")
    witness_path.write_text(
        canonical_json(
            {
                "obligation": record.name,
                "status": record.status,
                "data": {k: v for k, v in record.data},
                "witness": to_jsonable(record.witness),
            }
        )
        + "\n"
    )
    return witness_path


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        ns = _parser().parse_args(argv)
        return COMMANDS[ns.command](ns)
    except ObligationFailedError as exc:
        path = _write_witness(exc)
        print(f"obligation failed: {exc.record.name} (witness in {path})", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except MeanDimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
