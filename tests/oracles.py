"""Oracles and fixtures that only the tests use: realizations from
Fraction coordinates and their vertex points, the generic point location
and linear extension on Fractions that the closed-form Kuhn pipeline is
tested against, the radial chart on Fractions, the Kuhn width map and
the factor map evaluated on Fractions through located flags (the path the
integer count check is tested against), the eager Kuhn fiber sampler that
builds each flag's weights as it draws them (the reference for sampled
flags, which keep their draws), the cube-width-map payload read off the
materialized map (the reference for its closed form), the admissible
simplices of a support found by grouping the whole subdivided family and
sorting (the reference for the width map's ordered walk), a metric-axiom check,
small certificate domains for the certificate algebra tests, the pullback
of a certificate along a non-contracting map, whether a certificate's
structural records are all discharged, the full and golden-mean shifts,
the empty clopen set, equality of clopen sets, and the Hilbert-cube window
metric on Fractions.
"""

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import sub

from meandim.certificates import (
    CITATIONS,
    DISCHARGED,
    FAILED,
    SAMPLED_ONLY,
    STRUCTURAL,
    EpsEmbeddingCertificate,
    MetricSpaceHandle,
    flat_linf,
    randint_draws,
    sampled_record,
    structural_record,
    to_jsonable_point,
)
from meandim.errors import PreconditionError
from meandim.geometry import GeometricComplex, common_numerators
from meandim.serialize import format_fraction
from meandim.symbolic import CylinderSet, IntegerWindow, ShiftMetric, Sft, WindowSeq
from meandim.widthmaps import (
    WEIGHT_DENOMINATOR,
    CubeWidthMap,
    FlagPoint,
    KuhnWidthPipeline,
    PartitionWidthMap,
    _cube_numerators,
)


def realize(K, coords: dict) -> GeometricComplex:
    """The realization of K with vertex v at the rational point coords[v]:
    the coordinates go over the lcm of their denominators. Vertices of K
    without coordinates reach the constructor's refusal."""
    points = {v: [Fraction(c) for c in coords[v]] for v in K.vertices if v in coords}
    den = lcm(*{c.denominator for p in points.values() for c in p})
    nums = {v: tuple(den // c.denominator * c.numerator for c in p) for v, p in points.items()}
    return GeometricComplex(K, nums, den)


def vertex_point(G: GeometricComplex, v) -> tuple:
    """The vertex v's coordinates as reduced Fractions."""
    return tuple(Fraction(a, G.den) for a in G.nums[v])


@dataclass(frozen=True, eq=False)
class BarycentricPoint:
    """A point of the realization: a containing simplex plus nonnegative
    rational weights on its vertices summing to one. Strictly positive weights
    identify the simplex interior."""

    simplex: frozenset
    weights: dict

    def __post_init__(self):
        total = Fraction(0)
        for v in self.simplex:
            w = Fraction(self.weights.get(v, 0))
            if w < 0:
                raise PreconditionError("negative barycentric weight")
            total += w
        if total != 1:
            raise PreconditionError("barycentric weights must sum to 1")

    def realize(self, G: GeometricComplex) -> tuple:
        pt = None
        for v in self.simplex:
            w = Fraction(self.weights.get(v, 0))
            coords = vertex_point(G, v)
            if pt is None:
                pt = tuple(w * c for c in coords)
            else:
                pt = tuple(a + w * c for a, c in zip(pt, coords))
        return pt


def _solve_barycentric(points, target):
    """Weights w >= 0 with sum 1 and sum w_i * points_i = target, or None."""
    k = len(points)
    base = points[0]
    if k == 1:
        return [Fraction(1)] if tuple(base) == tuple(target) else None
    cols = [tuple(map(sub, p, base)) for p in points[1:]]
    rhs = list(map(sub, target, base))
    rows = [[cols[j][d] for j in range(k - 1)] + [rhs[d]] for d in range(len(base))]
    # Gaussian elimination; the system may be overdetermined but consistent
    pivots = []
    r = 0
    for c in range(k - 1):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [a / inv for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    sol = [Fraction(0)] * (k - 1)
    for row_idx, c in enumerate(pivots):
        sol[c] = rows[row_idx][-1]
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None  # inconsistent
    # affine independence of realized simplices makes the solution unique
    w0 = 1 - sum(sol, Fraction(0))
    weights = [w0] + sol
    if any(w < 0 for w in weights):
        return None
    # verify exactly (guards the overdetermined case)
    for d in range(len(base)):
        if sum(w * pt[d] for w, pt in zip(weights, points)) != target[d]:
            return None
    return weights


def locate(G: GeometricComplex, p) -> BarycentricPoint:
    """Find a containing simplex and exact barycentric weights for p.

    The simplices are scanned in canonical order and the first admissible
    one wins, so the result is p's carrier: the smallest simplex holding it,
    with positive weights. This generic scan is the oracle that the
    closed-form Kuhn location (kuhn_simplex) is tested against.
    """
    p = tuple(Fraction(c) for c in p)
    for s in G.complex.iter_simplices():
        verts = G.complex.sorted_simplex(s)
        weights = _solve_barycentric([vertex_point(G, v) for v in verts], p)
        if weights is not None:
            return BarycentricPoint(frozenset(verts), dict(zip(verts, weights)))
    raise PreconditionError("not in complex")


def eval_simplicial_map(vertex_images, target, x: BarycentricPoint) -> tuple:
    """Linear extension: image of x under the vertex map `vertex_images`
    (source vertex -> vertex of the GeometricComplex `target`), in target
    coordinates."""
    pt = None
    for v, w in x.weights.items():
        try:
            image = vertex_images[v]
        except KeyError:
            raise PreconditionError(f"vertex {v!r} missing from map table") from None
        coords = vertex_point(target, image)
        if pt is None:
            pt = tuple(Fraction(w) * c for c in coords)
        else:
            pt = tuple(a + Fraction(w) * c for a, c in zip(pt, coords))
    if pt is None:
        raise PreconditionError("empty barycentric point")
    return pt


def spot_check_metric(handle: MetricSpaceHandle, trials: int = 32, seed: int = 0):
    rng = random.Random(seed)
    for _ in range(trials):
        x, y = handle.sample(rng), handle.sample(rng)
        dxy, dyx = handle.dist(x, y), handle.dist(y, x)
        if dxy != dyx or dxy < 0 or handle.dist(x, x) != 0:
            raise PreconditionError(f"metric axioms violated on {handle.kind}")


def one_point_handle(point=()) -> MetricSpaceHandle:
    return MetricSpaceHandle(
        kind="one-point",
        description="single point",
        dist=lambda a, b: Fraction(0),
        sample=lambda rng: point,
    )


def finite_cloud_handle(points, description="finite sample cloud") -> MetricSpaceHandle:
    pts = [tuple(Fraction(c) for c in p) for p in points]
    if not pts:
        raise PreconditionError("empty cloud")
    return MetricSpaceHandle(
        kind="finite-cloud",
        description=description,
        dist=lambda a, b: flat_linf(a, b, None),
        sample=lambda rng: pts[rng.randrange(len(pts))],
    )


def identity_certificate(domain: MetricSpaceHandle, dim: int, epsilon) -> EpsEmbeddingCertificate:
    """The identity map embeds with point fibers; any scale works."""
    return EpsEmbeddingCertificate(
        domain=domain,
        target_dim=dim,
        epsilon=Fraction(epsilon),
        evaluator=lambda x: x,
        obligations=(structural_record("identity-embedding-fibers-are-points"),),
    )


def all_structural_discharged(cert: EpsEmbeddingCertificate) -> bool:
    """Whether every structural record of the certificate is discharged."""
    return all(r.status == DISCHARGED for r in cert.obligations if r.kind == STRUCTURAL)


def cube_from_numerators(s, D) -> tuple:
    """The radial chart at the point s/D of the standard simplex, as
    Fractions built from the chart's integer numerators."""
    nums, den = _cube_numerators(s, D)
    return tuple(Fraction(c, den) for c in nums)


def cube_from_barycentric(t) -> tuple:
    """The radial chart from the standard simplex onto the unit cube on
    Fractions: the inverse of barycentric_from_cube."""
    return cube_from_numerators(*common_numerators([Fraction(x) for x in t]))


def evaluate(pipeline: KuhnWidthPipeline, x) -> tuple:
    """The Kuhn pipeline's width map at the Fraction point x, through its
    located flag: the bucket sums of the flag's prefix weights, charted
    into the (m-1)-cube on Fractions."""
    flag = pipeline.locate_flag(*common_numerators(x))
    return cube_from_numerators(pipeline._bucket_numerators(flag.weights), flag.denom)


def sample_group_weights(rng, groups, scales, size: int):
    """Random weights on `size` slots, drawn one group of slot indices at a
    time and built at once: a group's raw randint(0, 64) draws, one of them
    set to 1 where all are zero, go over their sum s and are scaled by the
    group's scale. Returns the integer weights over the product of the
    sums, and that product."""
    draws = []
    for group in groups:
        raw = randint_draws(rng, WEIGHT_DENOMINATOR, len(group))
        if not any(raw):
            raw[rng.randrange(len(raw))] = 1
        draws.append(raw)
    totals = [sum(raw) for raw in draws]
    product = prod(totals)
    weights = [0] * size
    for group, raw, total, scale in zip(groups, draws, totals, scales):
        factor = scale * (product // total)
        for j, r in zip(group, raw):
            weights[j] = factor * r
    return tuple(weights), product


def materialized_payload(wm: CubeWidthMap) -> dict:
    """The cube-width-map payload read off the materialized map: its
    measured mesh, the subdivision's vertices and simplices counted, and
    each block's full-subcomplex dimension. cube_width_map_payload counts
    the same values in closed form."""
    K = wm.inner.geometry.complex
    return {
        "kind": "cube-width-map",
        "n": wm.n,
        "m": wm.m,
        "eps": format_fraction(wm.eps),
        "mesh_scale": format_fraction(wm.eps / 4),
        "grid": wm.grid,
        "mesh": wm.inner.mesh_record.data_dict["parent_mesh"],
        "vertices": len(K.vertices),
        "simplices": len(K.simplices),
        "fiber_bound": format_fraction(wm.fiber_bound),
        "bucket_dims": [wm.inner.block_dim(i) for i in range(1, wm.m + 1)],
    }


def sorted_admissible(wm: PartitionWidthMap, support) -> list:
    """The simplices of wm's subdivision that meet exactly the blocks in
    `support`, each as its vertex-ordered tuple, in simplex_key order: the
    whole family grouped by the set of blocks each simplex meets, then the
    group sorted on vertex-index tuples and (stably) by size."""
    K = wm.geometry.complex
    found = [s for s in K.simplices if frozenset(map(wm.block_of.__getitem__, s)) == support]
    at = K._vertex_indices().__getitem__
    keys = sorted([tuple(sorted(map(at, s))) for s in found])
    keys.sort(key=len)
    return [tuple(map(K.vertices.__getitem__, key)) for key in keys]


def kuhn_fiber_groups(pipeline: KuhnWidthPipeline, flag) -> tuple:
    """The buckets of positive weight in the fiber through `flag`, and per
    such bucket its prefix indices and its bucket sum over flag.denom."""
    sums = pipeline._bucket_numerators(flag.weights)
    support = [i for i in range(1, pipeline.m + 1) if sums[i - 1] > 0]
    groups = [[j for j, b in enumerate(pipeline.buckets) if b == i] for i in support]
    return support, groups, [sums[i - 1] for i in support]


def eager_flag_sampler(pipeline: KuhnWidthPipeline, flag):
    """The fiber sampler of the flag polytope through `flag`, building each
    sample's weights as it draws them: a FlagPoint with every weight."""
    _, groups, scales = kuhn_fiber_groups(pipeline, flag)

    def sample(rng):
        weights, product = sample_group_weights(rng, groups, scales, len(flag.chain))
        return FlagPoint(flag.chain, weights, flag.denom * product)

    return sample


def eager_fiber_certificate(block_certificate):
    """KuhnWidthPipeline.fiber_certificate, given as `block_certificate`,
    with eager_flag_sampler as each certificate's sampler."""

    def certificate(pipeline, flag, *args):
        cert = block_certificate(pipeline, flag, *args)
        domain = dataclasses.replace(cert.domain, sample=eager_flag_sampler(pipeline, flag))
        return dataclasses.replace(cert, domain=domain)

    return certificate


def fraction_window(x) -> WindowSeq:
    """An IntegerWindow's coordinates as a WindowSeq of Fractions; a
    WindowSeq as it is."""
    if isinstance(x, IntegerWindow):
        return WindowSeq(x.start, tuple(Fraction(a, x.den) for a in x.nums))
    return x


def evaluate_f(inst, x, residue: int, lo: int, hi: int) -> WindowSeq:
    """The factor map f(x) on Fractions, on the complete blocks that meet
    [lo, hi), as a WindowSeq from the first of those blocks: each block's
    image under `evaluate`, padded with zeros to the block length. x is a
    state's window, an IntegerWindow or a WindowSeq."""
    x = fraction_window(x)
    period = inst.params.period
    starts = [a for a in inst.block_starts(residue) if lo - period < a < hi]
    padding = (Fraction(0),) * (period - inst.params.m + 1)
    values = []
    for a in starts:
        values.extend(evaluate(inst.pipeline, x.restrict(a, a + period)))
        values.extend(padding)
    return WindowSeq(starts[0], tuple(values))


def pullback_certificate(
    cert: EpsEmbeddingCertificate,
    new_domain: MetricSpaceHandle,
    phi,
    witness: str | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> EpsEmbeddingCertificate:
    """Compose with a distance non-decreasing map into the certificate's domain.

    `witness` names the structural reason phi cannot shrink distances
    (e.g. "isometric-inclusion"); with no name given, random pairs are tested
    instead and a violating pair turns into a failed record on the result.
    """
    if witness is not None:
        if witness not in CITATIONS:
            raise PreconditionError(f"unknown structural witness {witness!r}")
        record = structural_record(witness)
    else:
        rng = random.Random(seed)
        violation = None
        for _ in range(trials):
            x, y = new_domain.sample(rng), new_domain.sample(rng)
            if new_domain.dist(x, y) > cert.domain.dist(phi(x), phi(y)):
                violation = (to_jsonable_point(x), to_jsonable_point(y))
                break
        if violation is None:
            record = sampled_record(
                "distance-non-decreasing-sampled",
                SAMPLED_ONLY,
                trials=trials,
                seed=seed,
            )
        else:
            record = sampled_record(
                "distance-non-decreasing-sampled",
                FAILED,
                witness=violation,
                trials=trials,
                seed=seed,
            )
    evaluator = cert.evaluator
    return EpsEmbeddingCertificate(
        domain=new_domain,
        target_dim=cert.target_dim,
        epsilon=Fraction(cert.epsilon),
        evaluator=lambda x: evaluator(phi(x)),
        obligations=cert.obligations + (record,),
        target_dist=cert.target_dist,
    )


def full_shift(symbols) -> Sft:
    """The full shift on the given symbols."""
    symbols = tuple(symbols)
    return Sft(symbols, frozenset((a, b) for a in symbols for b in symbols))


def golden_mean() -> Sft:
    """The binary shift forbidding "11"."""
    return Sft(("0", "1"), frozenset({("0", "0"), ("0", "1"), ("1", "0")}))


def empty_cylinder(sft: Sft) -> CylinderSet:
    """The empty clopen set."""
    return CylinderSet(sft, 0, 0, frozenset())


def same_set(a: CylinderSet, b: CylinderSet) -> bool:
    """Whether two clopen sets are equal, whatever their windows."""
    return a.difference(b).is_empty and b.difference(a).is_empty


# |a - b| on Fractions: the oracle that the integer Hilbert metric is tested
# against
HILBERT_METRIC = ShiftMetric(lambda a, b: abs(a - b))
