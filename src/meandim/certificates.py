"""Evaluable maps bundled with machine-checkable discharge obligations.

A certificate asserts an upper bound on the width dimension of its domain at
scale epsilon: the bundled evaluator is claimed to be an epsilon-embedding
into a complex of the stated dimension. Obligations come in two kinds:

* STRUCTURAL: an exact premise (rational arithmetic or a named combinatorial
  fact), re-checkable from serialized data alone. Premises use strict
  inequalities throughout.
* SAMPLED: a randomized near-collision test. Sampling corroborates but never
  proves; in particular a sampled check cannot distinguish a strict fiber
  bound from a non-strict one, and no certificate ever asserts a lower bound
  (finite samples are zero-dimensional).

The one composite certificate is a chain of block certificates laid end to
end in time (chain_fiber_certificate): its target is the product of the
block targets, so their dimensions add. A structural re-check reads every
integer and rational in the one spelling its record writes (str and
format_fraction), and a field outside the range its kind ever writes (a
negative dimension, count or factor, among others) fails the re-check
whatever the record's status.

Certificates are immutable; sampling derives one seed per trial from the
root seed, so results do not depend on execution order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .complexes import bucket_dimension_bound
from .errors import MeanDimError, PreconditionError, Value
from .serialize import format_fraction, to_jsonable

STRUCTURAL = "STRUCTURAL"
SAMPLED = "SAMPLED"

DISCHARGED = "discharged"
SAMPLED_ONLY = "sampled-only"
FAILED = "failed"


class DischargeRecord(Value):
    _fields = ("name", "kind", "status", "data", "witness")

    def __init__(self, name: str, kind: str, status: str, data: tuple = (), witness=None):
        if not isinstance(name, str):
            raise PreconditionError(f"record name must be a string, not {name!r}")
        if kind not in (STRUCTURAL, SAMPLED):
            raise PreconditionError(f"unknown record kind {kind!r}")
        if status not in (DISCHARGED, SAMPLED_ONLY, FAILED):
            raise PreconditionError(f"unknown record status {status!r}")
        if status == FAILED and witness is None:
            raise PreconditionError("failed records must carry a witness")
        self.__dict__.update(name=name, kind=kind, status=status, data=data, witness=witness)

    @property
    def data_dict(self) -> dict:
        return dict(self.data)

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "data": {k: v for k, v in self.data},
        }
        if self.witness is not None:
            out["witness"] = to_jsonable(self.witness)
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "DischargeRecord":
        witness = d.get("witness")
        return cls(
            name=d["name"],
            kind=d["kind"],
            status=d["status"],
            data=tuple(sorted((str(k), str(v)) for k, v in d.get("data", {}).items())),
            witness=tuple(witness) if isinstance(witness, list) else witness,
        )


def _canon_data(data: dict) -> tuple:
    items = []
    for k, v in data.items():
        if isinstance(v, Fraction):
            v = format_fraction(v)
        elif isinstance(v, bool):
            v = str(v).lower()
        else:
            v = str(v)
        items.append((str(k), v))
    return tuple(sorted(items))


def structural_record(name: str, status: str = DISCHARGED, witness=None, **data) -> DischargeRecord:
    return DischargeRecord(name, STRUCTURAL, status, _canon_data(data), witness)


def sampled_record(name: str, status: str, witness=None, **data) -> DischargeRecord:
    return DischargeRecord(name, SAMPLED, status, _canon_data(data), witness)


# ---------------------------------------------------------------------------
# structural re-checks: name -> callable(data_dict) -> bool
#
# Names in CITATIONS are recorded combinatorial facts: the construction
# guarantees them and there is nothing arithmetic to recompute, but a
# verifier must still recognize the name. The premise behind each name:
#   retraction-fibers-lie-in-stars: each fiber lies in one vertex star, which
#     the adjacent star-mesh-* record keeps below scale
#   simplicial-by-block-collapse: every nonempty set of the m target vertices
#     is a face of the full target simplex, so the block map needs no check
#   identity-embedding-fibers-are-points: identity fibers have diameter 0
#   isometric-inclusion: phi preserves distances, so none can shrink
#   coordinate-projection: the blocks of the chain-itinerary-covers-range
#     record cover [-margin, N + margin); coordinates outside them add at
#     most the adjacent window-tail-rule tail, within scale-relaxation's margin
#   cutoff-dichotomy-zero-dimensional: at most one piece is live at each step,
#     by the adjacent windows-pairwise-disjoint record
#   empty-fiber: the target point is outside the image, so nothing is embedded
#   degenerate-cutoff-identically-zero: every window is empty, so the wedge
#     coordinates stay at the apex (cone_dim 0 in wedge-dimension-count)
# ---------------------------------------------------------------------------

CITATIONS = {
    "retraction-fibers-lie-in-stars",
    "simplicial-by-block-collapse",
    "identity-embedding-fibers-are-points",
    "isometric-inclusion",
    "coordinate-projection",
    "cutoff-dichotomy-zero-dimensional",
    "empty-fiber",
    "degenerate-cutoff-identically-zero",
}


def _int(text: str) -> int:
    """The integer that `text` spells as str() writes it: int() alone also
    reads spaces, signs and underscores."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"not a canonical integer: {text!r}")
    return value


def _rational(text: str) -> Fraction:
    """The rational that `text` spells as format_fraction writes it: "p/q"
    in lowest terms with q > 1, or "p"."""
    num, _, den = text.partition("/")
    value = Fraction(int(num), int(den or 1))
    if format_fraction(value) != text:
        raise ValueError(f"not a canonical rational: {text!r}")
    return value


def _in_range(*conditions):
    """Raise unless every condition holds: a field outside the range any
    record of its kind writes makes the record recheck false whatever its
    status, while the check's return value is its premise alone."""
    if not all(conditions):
        raise ValueError("field out of range")


def _check_bookkeeping(data):
    total, bound = _int(data["total_dim"]), _rational(data["bound"])
    _in_range(total >= 0, _int(data["window_length"]) >= 0, _int(data["m"]) >= 1)
    return total < bound


def _check_sum(data):
    factors = [_int(x) for x in data["factors"].split(";")]
    _in_range(min(factors) >= 0)
    return sum(factors) == _int(data["total"])


def _check_chain_partition(data):
    # positive blocks laid end to end from `start` cover [-margin, N + margin)
    # when the first one contains -margin and the last one N + margin - 1
    lengths = [_int(x) for x in data["lengths"].split(";")]
    start, margin, n = _int(data["start"]), _int(data["margin"]), _int(data["N"])
    _in_range(min(lengths) > 0, margin >= 0)
    end = start + sum(lengths)
    return start <= -margin < start + lengths[0] and end - lengths[-1] < n + margin <= end


def _check_bucket_dimension(data):
    # bucket_dimension_bound refuses a negative source dimension
    dim = _int(data["dim"])
    _in_range(dim >= 0)
    return dim <= bucket_dimension_bound(
        _int(data["source_dim"]), _int(data["m"]), _int(data["bucket"])
    )


def _check_scale_relaxation(data):
    # the chain holds at the block scale, which is the scale relaxed from,
    # and its meshes below it; its meshes and tail are positive
    scale, to_scale, block, mesh, tail = (
        _rational(data[k])
        for k in ("from_scale", "to_scale", "block_scale", "mesh_scale", "two_sided_tail")
    )
    _in_range(block == scale, mesh > 0, tail > 0)
    return scale <= to_scale and mesh < block


def _check_tail_rule(data):
    # 2^-M < p/q iff q < p * 2^M, which holds for any p >= 1 once 2^M > q
    margin = _int(data["margin"])
    threshold = _rational(data["threshold"])
    tail = _rational(data["two_sided_tail"])
    # the reduced tail a/b is 4/2^M iff a and b are powers of two with
    # log2 a + M = 2 + log2 b
    a, b = tail.numerator, tail.denominator
    _in_range(
        margin >= 0, threshold > 0, tail > 0, not a & (a - 1), not b & (b - 1),
        a.bit_length() + margin == 2 + b.bit_length(),
    )
    q = threshold.denominator
    return margin >= q.bit_length() or q < threshold.numerator << margin


def _check_visit_count(data):
    n, cone, count, cone_global, total = (
        _int(data[k]) for k in ("n", "cone_dim", "count_bound", "global_cone_dim", "wedge_dim")
    )
    _in_range(min(n, cone, count, cone_global) >= 0)
    return total == n * cone + count * cone_global


def _check_disjoint(data):
    _in_range(_int(data["count"]) >= 0, data["pairwise_disjoint"] in ("true", "false"))
    return data["pairwise_disjoint"] == "true"


def _check_subsampled_visits(data):
    # the subsampled count never beats the full-orbit count, which the best
    # cycle mean bounds up to one traversal of the graph
    steps, length, size, count = (
        _int(data[k]) for k in ("steps", "step_length", "graph_size", "count_bound")
    )
    ocap = _rational(data["complement_ocap"])
    _in_range(min(steps, length, size, count) >= 0, ocap >= 0)
    return count <= ocap * steps * length + size


def _check_inherited_mesh(data):
    parent = _rational(data["parent_mesh"])
    _in_range(parent >= 0)
    return parent < _rational(data["scale"])


def _check_grid_mesh(data):
    g = _int(data["grid"])
    bound = _rational(data["bound"])
    _in_range(g >= 1 and bound == Fraction(2, g))
    return bound < _rational(data["scale"])


STRUCTURAL_CHECKS = {
    "star-mesh-inherited-bound": _check_inherited_mesh,
    "star-mesh-grid-bound": _check_grid_mesh,
    "product-dims-additive": _check_sum,
    "chain-itinerary-covers-range": _check_chain_partition,
    "bucket-dimension-bound": _check_bucket_dimension,
    "scale-relaxation": _check_scale_relaxation,
    "dimension-bookkeeping": _check_bookkeeping,
    "window-tail-rule": _check_tail_rule,
    "wedge-dimension-count": _check_visit_count,
    "windows-pairwise-disjoint": _check_disjoint,
    "subsampled-visits-bound": _check_subsampled_visits,
}


def recheck_structural(record: DischargeRecord) -> bool:
    """Re-discharge a structural obligation from its serialized data alone."""
    if record.kind != STRUCTURAL:
        raise PreconditionError("not a structural record")
    if record.name in CITATIONS:
        return record.status == DISCHARGED
    check = STRUCTURAL_CHECKS.get(record.name)
    if check is None:
        return False
    try:
        return check(record.data_dict) == (record.status == DISCHARGED)
    except (LookupError, ValueError, ArithmeticError, MeanDimError):
        return False


# ---------------------------------------------------------------------------
# metric space handles and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MetricSpaceHandle:
    """A point universe with an exact metric and a seeded sampler.

    kind is a short tag ("geometric-complex", "factor-map-fiber",
    "product", ...); dist may return an exact lower bound
    for window-restricted dynamical metrics, which keeps violation reports
    sound (a reported violation is a real one).
    """

    kind: str
    description: str
    dist: object  # (point, point) -> Fraction-comparable
    sample: object  # random.Random -> point

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "description": self.description}


def flat_linf(a, b, cap):
    """Max metric over arbitrarily nested tuples of rationals (ints or
    Fractions, subtracted as they are). Always exact: `cap` is ignored."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return max(
            (flat_linf(x, y, cap) for x, y in zip(a, b)), default=Fraction(0)
        )
    return abs(a - b)


@dataclass(frozen=True, eq=False)
class EpsEmbeddingCertificate:
    """Claim: the evaluator is an epsilon-embedding of the domain into a
    complex of dimension target_dim, so the domain's width dimension at scale
    epsilon is at most target_dim. Never a lower bound.

    target_dist(a, b, cap) measures two target points against the threshold
    `cap` its caller compares with: with cap None it is the exact distance;
    otherwise it is the exact distance when that is at most cap, and some
    value above cap when the exact one is, so a comparison with cap comes
    out the same either way."""

    domain: MetricSpaceHandle
    target_dim: int
    epsilon: Fraction
    evaluator: object  # point -> target point
    obligations: tuple = ()
    target_dist: object = flat_linf

    def __post_init__(self):
        if self.target_dim < 0:
            raise PreconditionError("target_dim must be nonnegative")
        if Fraction(self.epsilon) <= 0:
            raise PreconditionError("epsilon must be positive")

    def to_json_dict(self) -> dict:
        return {
            "kind": "eps-embedding-certificate",
            "domain": self.domain.to_json_dict(),
            "epsilon": format_fraction(self.epsilon),
            "target_dim": self.target_dim,
            "obligations": [r.to_json_dict() for r in self.obligations],
        }


def chain_fiber_certificate(
    domain: MetricSpaceHandle, shift, block_certs, N: int, start: int, margin: int
) -> EpsEmbeddingCertificate:
    """Cover the time range [-margin, N + margin) by consecutive blocks, the
    first one at offset `start`, and embed the domain into the product of
    the per-block targets, whose dimensions add.

    block_certs lists (certificate, block_length) in time order, all at one
    scale; a block that recurs is listed again. The blocks laid end to end
    from `start` must cover the range: the first one contains -margin and
    the last one N + margin - 1. shift(x, t) is x seen from time t.

    x maps to the flat tuple of block images, one per block, the block at
    offset t evaluated on shift(x, t), and the target metric is the max of
    the block metrics; given a cap, it returns at the first block over it.
    The obligations are the blocks' own records, then
    product-dims-additive over two or more blocks, then
    chain-itinerary-covers-range, which build and verify check with the
    same rule.
    """
    if not block_certs:
        raise PreconditionError("no blocks to chain")
    certs, lengths = zip(*block_certs)
    eps = Fraction(certs[0].epsilon)
    if any(Fraction(c.epsilon) != eps for c in certs[1:]):
        raise PreconditionError("mismatched epsilon")
    chain_record = structural_record(
        "chain-itinerary-covers-range", lengths=";".join(map(str, lengths)), start=start,
        margin=margin, N=N,
    )
    if not recheck_structural(chain_record):
        raise PreconditionError("block offsets inconsistent with block lengths")
    dims = [c.target_dim for c in certs]
    obligations = tuple(r for c in certs for r in c.obligations)
    if len(dims) > 1:
        factors = ";".join(map(str, dims))
        obligations += (
            structural_record("product-dims-additive", factors=factors, total=sum(dims)),
        )
    blocks = tuple(zip(accumulate(lengths[:-1], initial=start), (c.evaluator for c in certs)))
    dists = [c.target_dist for c in certs]

    def target_dist(a, b, cap):
        # the max of the block metrics; one block over cap decides a
        # comparison with cap, so the blocks after it go unmeasured
        top = None
        for d, p, q in zip(dists, a, b):
            value = d(p, q, cap)
            if top is None or value > top:
                top = value
                if cap is not None and top > cap:
                    break
        return top

    return EpsEmbeddingCertificate(
        domain, sum(dims), eps,
        lambda x: tuple(evaluate(shift(x, t)) for t, evaluate in blocks),
        obligations + (chain_record,),
        target_dist,
    )


def to_jsonable_point(pt):
    try:
        return to_jsonable(pt)
    except PreconditionError:
        return repr(pt)


def randint_draws(rng: random.Random, top: int, count: int) -> list:
    """`count` draws of rng.randint(0, top), drawn the way randint draws
    them but without its call layers: (top + 1).bit_length() random bits,
    drawn again while above top. The values and rng's state afterwards are
    those of the randint calls."""
    bits = rng.getrandbits
    k = (top + 1).bit_length()
    draws = []
    for _ in range(count):
        r = bits(k)
        while r > top:
            r = bits(k)
        draws.append(r)
    return draws


def _trial_seed(root: int, index: int) -> int:
    return (root + 0x9E3779B97F4A7C15 * (index + 1)) % 2**64


def sample_fiber_check(
    evaluator,
    domain: MetricSpaceHandle,
    eps,
    eta=None,
    *,
    trials: int,
    seed: int,
    target_dist,
) -> DischargeRecord:
    """Sampled necessary condition for an epsilon-embedding: whenever two
    sampled points land within eta of each other in the target, they must be
    within eps in the domain. The first violating pair, by trial index,
    produces a failed record with the pair as witness; otherwise the record
    stays sampled-only with counts.

    A pair is near when target_dist(fx, fy, eta) is at most eta. The metric
    is given eta as its cap, so it may stop measuring once the distance is
    known to exceed eta; the near pairs, counts and witness are those of the
    exact distance.
    """
    eps = Fraction(eps)
    eta = Fraction(eta) if eta is not None else eps / 100
    if eta <= 0 or trials < 1:
        raise PreconditionError("eta must be positive and trials >= 1")
    near = 0
    for i in range(trials):
        rng = random.Random(_trial_seed(seed, i))
        x, y = domain.sample(rng), domain.sample(rng)
        if target_dist(evaluator(x), evaluator(y), eta) > eta:
            continue
        if domain.dist(x, y) >= eps:
            return sampled_record(
                "fiber-sample-check",
                FAILED,
                witness=(to_jsonable_point(x), to_jsonable_point(y)),
                trials=trials,
                seed=seed,
                eta=format_fraction(eta),
                epsilon=format_fraction(eps),
            )
        near += 1
    return sampled_record(
        "fiber-sample-check",
        SAMPLED_ONLY,
        trials=trials,
        near_pairs=near,
        violations=0,
        seed=seed,
        eta=format_fraction(eta),
        epsilon=format_fraction(eps),
    )


def check_certificate(
    cert: EpsEmbeddingCertificate, trials: int, seed: int, eta=None
) -> DischargeRecord:
    return sample_fiber_check(
        cert.evaluator,
        cert.domain,
        cert.epsilon,
        eta=eta,
        trials=trials,
        seed=seed,
        target_dist=cert.target_dist,
    )
