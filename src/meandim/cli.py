"""Batch command-line frontend.

Every command except `verify` builds an artifact (written with `--out`),
a JSON document {"kind", "recipe", "payload"} whose payload is a pure
function of the recipe. Each kind has one row of KINDS: its recipe fields
with their types, and its payload's builder. The commands and `verify`
read every recipe through it, so both refuse an unknown, missing or
mistyped field, or one not in its type's one spelling (a rational is
"p/q" in lowest terms). `verify` then re-checks every structural
obligation arithmetically, rebuilds the payload from the recipe's values,
requires byte-identical canonical JSON (sampled records re-run at their
recorded seeds), and prints how many records it re-derived, accepted as
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


def _rational(text: str) -> str:
    """An option's rational, spelled as a recipe holds it."""
    try:
        return format_fraction(parse_fraction(text))
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
# recipe field types and payload builders: the commands and the verifier
# read a recipe through the same row of KINDS and build through its builder
# ---------------------------------------------------------------------------


def _field(what: str, parse, spell):
    """A recipe field type: parse(value), refused with a ValueError saying
    that the field must be `what`, unless `spell` writes the parsed value
    back as the value itself, of the same JSON type."""

    def read(value):
        try:
            parsed = parse(value)
            spelled = spell(parsed)
            if type(spelled) is type(value) and spelled == value:
                return parsed
        except (ArithmeticError, TypeError, ValueError, MeanDimError):
            pass
        raise ValueError(f"must be {what}, not {value!r}")

    return read


# a JSON integer: a float (8.5 or 8.0), a string or a boolean is refused,
# not truncated or parsed; a rational in its one spelling, so "2/4", "+1/2"
# and " 1/2" are refused, not read as 1/2
_INTEGER = _field("an integer", int, int)
_RATIONAL = _field('a rational spelled "p/q" in lowest terms', parse_fraction, format_fraction)


def _or_null(read):
    """The field type `read`, or JSON null."""
    return lambda value: None if value is None else read(value)


def _list_of(read):
    """A JSON list of values of the field type `read`."""
    as_list = _field("a list", list, list)
    return lambda value: [read(item) for item in as_list(value)]


def _sft(value) -> Sft:
    """An SFT object of exactly an alphabet and a list of [a, b]
    transitions; the recipe keeps them as its input file spells them."""
    try:
        if value.keys() == {"alphabet", "transitions"}:
            return Sft.from_json_dict(value)
    except (AttributeError, TypeError, ValueError):
        pass
    raise ValueError('must be an object of exactly an "alphabet" and [a, b] "transitions"')


def _constraints(value) -> list:
    """A cylinder set's [offset, word] pairs, which
    CylinderSet.from_constraints reads against the recipe's SFT."""
    if isinstance(value, list) and all(isinstance(p, list) and len(p) == 2 for p in value):
        return value
    raise ValueError(f"must be a list of [offset, word] pairs, not {value!r}")


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


def _checked_certificates(coordinates: int, sample_fiber, samples, seed, trials, eta) -> list:
    """Draw `samples` fibers from one stream seeded by `seed` and append each
    certificate's sampled check, run at a seed drawn from the same stream. A
    sampled point has `coordinates` coordinates. sample_fiber(rng) returns a
    certificate and the extra fields of its entry."""
    _check_sampled_work(samples, trials, coordinates)
    rng = random.Random(seed)
    entries = []
    for _ in range(samples):
        cert, extra = sample_fiber(rng)
        record = check_certificate(cert, trials=trials, seed=rng.randint(0, 2**32), eta=eta)
        entry = cert.to_json_dict()
        entry["obligations"].append(record.to_json_dict())
        entry.update(extra)
        entries.append(entry)
    return entries


def _payload_gromov_fiber_batch(n, m, eps, samples, seed, trials, eta) -> dict:
    wm = cube_width_map(n, m, eps)

    def sample_fiber(rng):
        p = sample_coordinates(rng, wm.m - 1)
        return wm.fiber_certificate(p), {"p": [format_fraction(c) for c in p]}

    return {
        "fiber_bound": format_fraction(wm.fiber_bound),
        "certificates": _checked_certificates(wm.n, sample_fiber, samples, seed, trials, eta),
    }


def _payload_ocap(sft, set, N) -> dict:
    A = CylinderSet.from_constraints(sft, set)
    if N is None:  # ocap --limit
        result = ocap_limit(sft, A)
        return {
            "value": format_fraction(result.value),
            "witness": list(result.witness),
            "graph_size": result.graph_size,
        }
    return {"value": format_fraction(ocap_finite_N(sft, A, N)), "N": N}


def _payload_sbp(sft, cover, delta) -> dict:
    pieces, complement, report = sbp_cover_refine(
        sft, [CylinderSet.from_constraints(sft, c) for c in cover], delta
    )
    return {
        "pieces": [p.to_json() for p in pieces],
        "complement": complement.to_json(),
        "complement_ocap": format_fraction(report.value),
        "witness": list(report.witness),
    }


def _payload_counterexample_build(delta, eps, N, seed) -> dict:
    inst = FactorMapInstance(CounterexampleParams(delta, eps, N, seed))
    return {
        "params": inst.params.to_json_dict(),
        "window": [inst.window_lo, inst.window_hi],
        "checks": [[name, value, kind] for name, value, kind in inst.params.report()],
    }


def _payload_count_report(delta, eps, N, seed, samples) -> dict:
    inst = FactorMapInstance(CounterexampleParams(delta, eps, N, seed))
    _check_sampled_work(samples, 1, inst.window_hi - inst.window_lo)
    payload = nonzero_count_check(inst, samples).to_json_dict()
    payload["params"] = inst.params.to_json_dict()
    return payload


def _payload_fiber_batch(delta, eps, N, seed, samples, trials, eta) -> dict:
    inst = FactorMapInstance(CounterexampleParams(delta, eps, N, seed))

    def sample_fiber(rng):
        state = inst.sample_state(rng)
        return fiber_dimension_certificate(inst, state), {"residue": state[1]}

    return {
        "bound": format_fraction(inst.params.fiber_dim_bound()),
        "certificates": _checked_certificates(
            inst.window_hi - inst.window_lo, sample_fiber, samples, seed, trials, eta
        ),
    }


def _payload_mdim_report(delta, eps, N) -> dict:
    return {
        "header": CSV_HEADER,
        "rows": [row.to_csv() for row in mdim_report(delta, N, eps)],
    }


_MAP = dict(n=_INTEGER, m=_INTEGER, eps=_RATIONAL)
_FACTOR = dict(delta=_RATIONAL, eps=_RATIONAL, N=_INTEGER, seed=_INTEGER)
_SAMPLING = dict(samples=_INTEGER, seed=_INTEGER, trials=_INTEGER, eta=_or_null(_RATIONAL))

# each artifact kind's row: its recipe fields, exactly what its command
# writes and its builder reads, with their types; and the builder, which
# takes the fields' values by name
KINDS = {
    "cube-width-map": (_MAP, cube_width_map_payload),
    "gromov-fiber-batch": ({**_MAP, **_SAMPLING}, _payload_gromov_fiber_batch),
    "ocap-report": (dict(sft=_sft, set=_constraints, N=_or_null(_INTEGER)), _payload_ocap),
    "sbp-refine": (dict(sft=_sft, cover=_list_of(_constraints), delta=_RATIONAL), _payload_sbp),
    "counterexample-instance": (_FACTOR, _payload_counterexample_build),
    "count-report": ({**_FACTOR, "samples": _INTEGER}, _payload_count_report),
    "counterexample-fiber-batch": ({**_FACTOR, **_SAMPLING}, _payload_fiber_batch),
    "mdim-report": (
        dict(delta=_RATIONAL, eps=_list_of(_RATIONAL), N=_list_of(_INTEGER)),
        _payload_mdim_report,
    ),
}


def _read_recipe(kind: str, recipe) -> dict:
    """The values of a `kind` recipe, each field read through its type in
    the kind's row. A recipe that is not an object, and an unknown, missing,
    mistyped or non-canonically spelled field, raise PreconditionError
    naming it."""
    if not isinstance(recipe, dict):
        raise PreconditionError(f"{kind} recipe is not an object")
    fields = KINDS[kind][0]
    for key in recipe:
        if key not in fields:
            raise PreconditionError(f"{kind} recipe has unknown field {key!r}")
    values = {}
    for key, read in fields.items():
        if key not in recipe:
            raise PreconditionError(f"{kind} recipe lacks field {key!r}")
        try:
            values[key] = read(recipe[key])
        except ValueError as exc:
            raise PreconditionError(f"recipe field {key!r} {exc}") from exc
    return values


def _load_json(path: str):
    """The JSON document in an input file. A missing or unreadable file,
    text that is not JSON and a document nested too deep for the
    interpreter's stack raise PreconditionError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, RecursionError, ValueError) as exc:
        raise PreconditionError(f"cannot read {path}: {exc!r}") from exc


def write_artifact(path: str | None, kind: str, recipe: dict) -> dict:
    """Build the artifact of `kind` from `recipe`, read through the kind's
    row, and write it to `path` unless `path` is None."""
    payload = KINDS[kind][1](**_read_recipe(kind, recipe))
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
    """Read the recipe through its kind's row of KINDS, as the command that
    wrote it did, so an unknown, missing, mistyped or non-canonically
    spelled field exits 2 before any record is re-checked; re-discharge
    structural obligations arithmetically, then rebuild the payload from
    the recipe's values and require byte-identical canonical JSON; a count
    report with violations then fails as `check-counts` does. Return the
    counts of what was checked."""
    artifact = _load_json(path)
    if not isinstance(artifact, dict):
        raise PreconditionError("artifact is not a JSON object")
    kind = artifact.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise PreconditionError(f"unknown artifact kind {kind!r}")
    if "payload" not in artifact:
        raise PreconditionError("artifact needs a payload")
    values = _read_recipe(kind, artifact.get("recipe"))
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
    rebuilt = KINDS[kind][1](**values)
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


def _recipe(kind: str, options: dict) -> dict:
    """A command's `kind` recipe: each field of the kind's row, from the
    option or the input document of its name in `options`."""
    return {key: options[key] for key in KINDS[kind][0]}


def _cmd_gromov(ns) -> int:
    if ns.action == "build":
        artifact = write_artifact(ns.out, "cube-width-map", _recipe("cube-width-map", vars(ns)))
        print(f"wrote {ns.out}: grid {artifact['payload']['grid']}, "
              f"fiber bound {artifact['payload']['fiber_bound']}")
        return 0
    document = _load_json(ns.map_file)
    if not isinstance(document, dict) or document.get("kind") != "cube-width-map":
        raise PreconditionError("fiber-check expects a cube-width-map artifact")
    _read_recipe("cube-width-map", document.get("recipe"))
    recipe = _recipe("gromov-fiber-batch", {**vars(ns), **document["recipe"]})
    out = ns.out or (ns.map_file + ".fibers.json")
    artifact = write_artifact(out, "gromov-fiber-batch", recipe)
    dims = [c["target_dim"] for c in artifact["payload"]["certificates"]]
    print(f"wrote {out}: {len(dims)} fibers, max dim {max(dims)}, "
          f"bound {artifact['payload']['fiber_bound']}")
    _raise_on_failed_obligations(artifact)
    return 0


def _cmd_ocap(ns) -> int:
    files = {"sft": _load_json(ns.sft), "set": _load_json(ns.set_file)}
    recipe = _recipe("ocap-report", {**vars(ns), **files})  # N is None for --limit
    payload = write_artifact(ns.out, "ocap-report", recipe)["payload"]
    print(payload["value"])
    return 0


def _cmd_sbp(ns) -> int:
    files = {"sft": _load_json(ns.sft), "cover": [_load_json(c) for c in ns.cover]}
    recipe = _recipe("sbp-refine", {**vars(ns), **files})
    payload = write_artifact(ns.out, "sbp-refine", recipe)["payload"]
    for i, piece in enumerate(payload["pieces"], start=1):
        print(f"piece {i}: offset {piece['offset']}, {len(piece['words'])} words")
    print(f"complement ocap: {payload['complement_ocap']}")
    return 0


def _cmd_counterexample(ns) -> int:
    kind = {"build": "counterexample-instance", "check-counts": "count-report",
            "fiber-cert": "counterexample-fiber-batch", "report": "mdim-report"}[ns.action]
    # a report is printed, and written only to an --out path
    out = ns.out or (None if kind == "mdim-report" else f"counterexample-{ns.action}.json")
    artifact = write_artifact(out, kind, _recipe(kind, vars(ns)))
    payload = artifact["payload"]
    if kind == "mdim-report":
        print("\n".join([payload["header"], *payload["rows"]]))
    elif kind == "count-report":
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
        for name, value, kind_tag in payload["checks"]:
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
