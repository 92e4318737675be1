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
block targets, so their dimensions add. Each structural record's fields
are declared once, as one row of STRUCTURAL_CHECKS: a record whose field
set differs from its row's (a citation carries no data) fails its
re-check, and so does a field not in the one spelling structural_record
writes or outside the range its writers produce (a negative dimension,
count or factor, a nonpositive scale, among others), whatever the
record's status.

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


def _join(values) -> str:
    return ";".join(map(str, values))


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _spell(value) -> str:
    """The one spelling a record writes for a value: a Fraction as
    format_fraction writes it, a flag as true or false, a tuple or list of
    integers joined by ";", anything else as str() writes it."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, bool):
        return _flag(value)
    if isinstance(value, (tuple, list)):
        return _join(value)
    return str(value)


def _canon_data(data: dict) -> tuple:
    return tuple(sorted((str(k), _spell(v)) for k, v in data.items()))


def structural_record(name: str, status: str = DISCHARGED, witness=None, **data) -> DischargeRecord:
    return DischargeRecord(name, STRUCTURAL, status, _canon_data(data), witness)


def sampled_record(name: str, status: str, witness=None, **data) -> DischargeRecord:
    return DischargeRecord(name, SAMPLED, status, _canon_data(data), witness)


# ---------------------------------------------------------------------------
# structural re-checks: name -> (field types, premise)
#
# A record's fields are exactly its row's. Each field type reads the value
# its text spells as _spell writes it, within the range its writers produce,
# and raises otherwise; the premise takes the typed values as keywords, and
# a cross-field rule it raises on fails the record whatever its status.
#
# Names in CITATIONS are recorded combinatorial facts with an empty row: the
# construction guarantees them and there is nothing arithmetic to recompute,
# so a citation carries no data. The premise behind each name:
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


def _field(parse, spell, in_range):
    """A field type: parse(text), refused with ValueError unless `spell`,
    the one _spell uses for the type, writes that value as `text` and it
    lies in range."""

    def read(text: str):
        value = parse(text)
        if spell(value) != text or not in_range(value):
            raise ValueError(f"not a field of its type: {text!r}")
        return value

    return read


def _fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _ints(text: str) -> tuple:
    return tuple(map(int, text.split(";")))


_INT = _field(int, str, lambda v: True)
_NAT = _field(int, str, lambda v: v >= 0)
_POS = _field(int, str, lambda v: v > 0)
_NATS = _field(_ints, _join, lambda v: min(v) >= 0)
_POSS = _field(_ints, _join, lambda v: min(v) > 0)
# a Fraction's sign is its numerator's, compared without Fraction arithmetic
_RAT_NAT = _field(_fraction, format_fraction, lambda v: v.numerator >= 0)
_RAT_POS = _field(_fraction, format_fraction, lambda v: v.numerator > 0)
_FLAG = _field(lambda text: text == "true", _flag, lambda v: True)


def _check_chain_partition(lengths, start, margin, N):
    # blocks laid end to end from `start` cover [-margin, N + margin) when
    # the first one contains -margin and the last one N + margin - 1
    end = start + sum(lengths)
    return start <= -margin < start + lengths[0] and end - lengths[-1] < N + margin <= end


def _check_scale_relaxation(from_scale, to_scale, block_scale, mesh_scale, two_sided_tail):
    # the chain holds at the block scale, which is the scale relaxed from,
    # and its meshes below it
    if block_scale != from_scale:
        raise ValueError("the block scale is not the scale relaxed from")
    return from_scale <= to_scale and mesh_scale < block_scale


def _check_tail_rule(margin, threshold, two_sided_tail):
    # the reduced tail a/b is 4/2^M iff a and b are powers of two with
    # log2 a + M = 2 + log2 b
    a, b = two_sided_tail.numerator, two_sided_tail.denominator
    if a & (a - 1) or b & (b - 1) or a.bit_length() + margin != 2 + b.bit_length():
        raise ValueError("the tail is not 4/2^margin")
    # 2^-M < p/q iff q < p * 2^M, which holds for any p >= 1 once 2^M > q
    q = threshold.denominator
    return margin >= q.bit_length() or q < threshold.numerator << margin


def _check_grid_mesh(grid, bound, scale):
    if bound != Fraction(2, grid):
        raise ValueError("the bound is not 2/grid")
    return bound < scale


STRUCTURAL_CHECKS = {
    "star-mesh-inherited-bound": (
        dict(parent_mesh=_RAT_NAT, scale=_RAT_POS),
        lambda parent_mesh, scale: parent_mesh < scale,
    ),
    "star-mesh-grid-bound": (dict(grid=_POS, bound=_RAT_POS, scale=_RAT_POS), _check_grid_mesh),
    "product-dims-additive": (
        dict(factors=_NATS, total=_NAT), lambda factors, total: sum(factors) == total,
    ),
    "chain-itinerary-covers-range": (
        dict(lengths=_POSS, start=_INT, margin=_NAT, N=_POS), _check_chain_partition,
    ),
    # bucket_dimension_bound refuses a bucket above m
    "bucket-dimension-bound": (
        dict(source_dim=_NAT, m=_POS, bucket=_POS, dim=_NAT),
        lambda source_dim, m, bucket, dim: dim <= bucket_dimension_bound(source_dim, m, bucket),
    ),
    "scale-relaxation": (
        dict(from_scale=_RAT_POS, to_scale=_RAT_POS, block_scale=_RAT_POS,
             mesh_scale=_RAT_POS, two_sided_tail=_RAT_POS),
        _check_scale_relaxation,
    ),
    "dimension-bookkeeping": (
        dict(total_dim=_NAT, bound=_RAT_POS, window_length=_NAT, m=_POS),
        lambda total_dim, bound, window_length, m: total_dim < bound,
    ),
    "window-tail-rule": (
        dict(margin=_NAT, threshold=_RAT_POS, two_sided_tail=_RAT_POS), _check_tail_rule,
    ),
    "wedge-dimension-count": (
        dict(n=_NAT, cone_dim=_NAT, count_bound=_NAT, global_cone_dim=_NAT, wedge_dim=_NAT),
        lambda n, cone_dim, count_bound, global_cone_dim, wedge_dim:
            wedge_dim == n * cone_dim + count_bound * global_cone_dim,
    ),
    "windows-pairwise-disjoint": (
        dict(pairwise_disjoint=_FLAG, count=_NAT),
        lambda pairwise_disjoint, count: pairwise_disjoint,
    ),
    # the subsampled count never beats the full-orbit count, which the best
    # cycle mean bounds up to one traversal of the graph
    "subsampled-visits-bound": (
        dict(steps=_NAT, step_length=_NAT, graph_size=_NAT, count_bound=_NAT,
             complement_ocap=_RAT_NAT),
        lambda steps, step_length, graph_size, count_bound, complement_ocap:
            count_bound <= complement_ocap * steps * step_length + graph_size,
    ),
    **dict.fromkeys(CITATIONS, ({}, lambda: True)),
}


def recheck_structural(record: DischargeRecord) -> bool:
    """Re-discharge a structural obligation from its serialized data alone:
    its field set must be its row's, each field must read as its type, and
    the premise must hold exactly when the record says discharged."""
    if record.kind != STRUCTURAL:
        raise PreconditionError("not a structural record")
    row = STRUCTURAL_CHECKS.get(record.name)
    if row is None:
        return False
    types, premise = row
    data = record.data_dict
    if len(data) != len(types):
        return False
    try:
        # with the lengths equal, the fields are the row's when each is in it
        values = {key: types[key](text) for key, text in data.items()}
        return premise(**values) == (record.status == DISCHARGED)
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
        "chain-itinerary-covers-range", lengths=lengths, start=start, margin=margin, N=N
    )
    if not recheck_structural(chain_record):
        raise PreconditionError("block offsets inconsistent with block lengths")
    dims = tuple(c.target_dim for c in certs)
    obligations = tuple(r for c in certs for r in c.obligations)
    if len(dims) > 1:
        obligations += (structural_record("product-dims-additive", factors=dims, total=sum(dims)),)
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
                eta=eta,
                epsilon=eps,
            )
        near += 1
    return sampled_record(
        "fiber-sample-check",
        SAMPLED_ONLY,
        trials=trials,
        near_pairs=near,
        violations=0,
        seed=seed,
        eta=eta,
        epsilon=eps,
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
