"""The finite-horizon factor map with small image dimension and small fiber
dimension, and the wedge-of-cones embedding over zero-dimensional bases.

The factor map sends a sequence of cube coordinates through a shared width
map block by block, padding each image with zeros to the block length;
blocks are cut by the dyadic odometer's return times. An instance has one
way in: CounterexampleParams(delta, eps, horizon, seed) derives every
parameter, and FactorMapInstance(params) builds the tower and the width map
from them. Two quantitative bounds are certified exactly at every finite
horizon: the count of nonzero image entries per window, and the fiber-dimension
bookkeeping over a chain of blocks, whose dimensions add. A fiber's certified
dimension depends only on its blocks' buckets, so the largest one over every
state is a closed form (CounterexampleParams.max_fiber_dim), which the ratio
reports read without drawing a state.

A sampled state is an IntegerWindow of numerators over 64, and every block
reaches the width map as its slice of numerators: the fiber certificate
locates each block's flag on it, and the count check reads each block's
image as the chart's integer numerators, building no vertex chain and no
Fraction. A sampled fiber point keeps its free coordinates as integer draws
on the 1/64 grid and each block as its Kuhn flag's raw draws. The domain
metric d_N reads the point as one window of integer numerators over a
common denominator, so a near pair builds no Fraction per coordinate; only a
failure witness realizes the window on Fractions. The 1/64 draws are
randint's values and stream, drawn without its call layers
(certificates.randint_draws).

The wedge-cone embedding composes per-piece fiber embeddings with a global
embedding through a {0,1}-valued cutoff; over a zero-dimensional base every
case split is exact, and the number of time steps where the global factor is
live is bounded by an exact orbit-count dynamic program.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from math import lcm

from .certificates import (
    DISCHARGED,
    FAILED,
    EpsEmbeddingCertificate,
    MetricSpaceHandle,
    chain_fiber_certificate,
    randint_draws,
    structural_record,
)
from .errors import FrozenStruct, PreconditionError, Struct, Value
from .serialize import format_fraction
from .symbolic import (
    INTEGER_HILBERT_METRIC,
    SYMBOL_METRIC,
    CylinderSet,
    IntegerWindow,
    OdometerTower,
    Sft,
    WindowSeq,
    d_N,
    max_subsampled_visits,
    ocap_limit,
    odometer_E,
    sbp_cover_refine,
)
from .widthmaps import KuhnWidthPipeline, grid_for_mesh

F = Fraction

SAMPLE_RESOLUTION = 64  # denominator grid for sampled cube coordinates
_GRID_VALUES = tuple(F(k, SAMPLE_RESOLUTION) for k in range(SAMPLE_RESOLUTION + 1))


def sample_coordinates(rng: random.Random, count: int) -> tuple:
    """count cube coordinates drawn uniformly from the 1/64 grid on [0, 1]:
    the Fractions k/64 for k = rng.randint(0, 64), drawn by randint_draws
    (the same values and rng state as randint's own calls)."""
    return tuple(_GRID_VALUES[k] for k in randint_draws(rng, SAMPLE_RESOLUTION, count))


def derive_m(delta: Fraction) -> int:
    """Smallest m >= 2 with 1/m < delta: m > 1/delta, so floor(1/delta) + 1."""
    return max(2, delta.denominator // delta.numerator + 1)


def derive_level(delta: Fraction, m: int) -> int:
    """Smallest level whose block length keeps the nonzero-count bound valid
    for every horizon: 2^k - 1 > m and (m-1)/2^k <= delta/2."""
    k = 1
    while not (2**k - 1 > m and F(m - 1, 2**k) <= delta / 2):
        k += 1
        if k > 40:
            raise PreconditionError("no feasible block level below 2^40")
    return k


def derive_margin(eps: Fraction) -> int:
    """Smallest window margin M with 2^-M below half the scale."""
    margin = 1
    while not F(1, 2**margin) < eps / 2:
        margin += 1
    return margin


def two_sided_tail(margin: int) -> Fraction:
    """Exact sum of 2^-|n| over |n| >= margin."""
    return F(4, 2**margin)


class CounterexampleParams(Value):
    """Parameters of the factor-map instance at one horizon, derived from
    delta and eps: the smallest m, block level and window margin the
    inequalities allow, and the grid whose mesh is below eps/4. The
    inequalities are checked again on construction and reported with exact
    values by report()."""

    _fields = ("delta", "eps", "m", "level", "grid", "horizon", "margin", "seed")

    def __init__(self, delta, eps, horizon: int, seed: int = 0):
        delta, eps = F(delta), F(eps)
        if delta <= 0 or eps <= 0:
            raise PreconditionError("delta and eps must be positive")
        m = derive_m(delta)
        self.__dict__.update(
            delta=delta, eps=eps, m=m, level=derive_level(delta, m),
            grid=grid_for_mesh(eps / 4), horizon=horizon, margin=derive_margin(eps),
            seed=seed,
        )
        for name, ok in self.core_checks():
            if not ok:
                raise PreconditionError(f"parameter inequality violated: {name}")

    @property
    def period(self) -> int:
        return 2**self.level

    @property
    def L(self) -> int:
        return self.period - 1

    @property
    def L_prime(self) -> int:
        return self.period + 1

    def fiber_dim_bound(self) -> Fraction:
        """The certified fiber dimension at the horizon N stays strictly
        below (N + 2M + 2L')/m."""
        return F(self.horizon + 2 * self.margin + 2 * self.L_prime, self.m)

    def max_fiber_dim(self) -> int:
        """The largest fiber dimension certified at the horizon N, over every
        state: at most ceil((N + 2M + P - 1)/P) blocks of period P start in
        [-M - P + 1, N + M - 1], some residue reaches that count, and each
        block is certified at most at the bucket-1 bound floor(P/m), the
        largest bucket bound."""
        P = self.period
        return -(-(self.horizon + 2 * self.margin + P - 1) // P) * (P // self.m)

    def core_checks(self):
        return [
            ("1/m < delta", F(1, self.m) < self.delta),
            ("L > m", self.L > self.m),
            ("(m-1)/2^k <= delta/2", F(self.m - 1, self.period) <= self.delta / 2),
            ("grid mesh 2/g < eps/4", F(2, self.grid) < self.eps / 4),
            ("2^-M < eps/2", F(1, 2**self.margin) < self.eps / 2),
            ("horizon >= 1", self.horizon >= 1),
        ]

    def report(self):
        """Every inequality with its exact value, including the advisory
        asymptotic one (m/L < delta/2) that finite horizons do not need."""
        rows = [
            (name, "holds" if ok else "fails", "required") for name, ok in self.core_checks()
        ]
        rows.append(
            (
                "m/L < delta/2",
                "holds" if F(self.m, self.L) < self.delta / 2 else "fails",
                "advisory",
            )
        )
        rows.append(
            (
                "two-sided tail",
                format_fraction(two_sided_tail(self.margin)),
                "reported",
            )
        )
        return rows

    def to_json_dict(self) -> dict:
        return {
            "delta": format_fraction(self.delta),
            "eps": format_fraction(self.eps),
            "m": self.m,
            "level": self.level,
            "grid": self.grid,
            "horizon": self.horizon,
            "margin": self.margin,
            "seed": self.seed,
        }


class FactorMapInstance(Struct):
    """The factor map at a finite horizon: cube-sequence windows are pushed
    through the shared width map `pipeline` over the odometer's return
    blocks, each image padded with zeros to the block length; the
    zero-dimensional coordinate passes through unchanged. The odometer
    tower and the pipeline are built from the parameters."""

    _fields = ("params", "tower", "pipeline")

    def __init__(self, params: CounterexampleParams):
        self.params = params
        self.tower = OdometerTower(params.level)
        self.pipeline = KuhnWidthPipeline(params.period, params.m, params.grid)

    @property
    def window_lo(self) -> int:
        return -(self.params.margin + self.params.L_prime)

    @property
    def window_hi(self) -> int:
        return self.params.horizon + self.params.margin + self.params.L_prime

    def block_starts(self, residue: int):
        """Starts of complete blocks inside the represented window."""
        starts = odometer_E(self.tower, residue, self.window_lo, self.window_hi)
        return [a for a in starts if a + self.params.period <= self.window_hi]

    def sample_state(self, rng: random.Random):
        """A state: the window's coordinates drawn from the 1/64 grid by
        randint_draws, as integer numerators over SAMPLE_RESOLUTION, and a
        residue."""
        nums = tuple(randint_draws(rng, SAMPLE_RESOLUTION, self.window_hi - self.window_lo))
        window = IntegerWindow(self.window_lo, nums, SAMPLE_RESOLUTION)
        return window, rng.randrange(self.params.period)


class CountReport(Value):
    _fields = ("samples", "horizon", "max_count", "bound", "block_bound", "hull_max", "violations")

    def __init__(
        self,
        samples: int,
        horizon: int,
        max_count: int,
        bound: Fraction,
        block_bound: int,
        hull_max: int,
        violations: tuple,
    ):
        self.__dict__.update(
            samples=samples, horizon=horizon, max_count=max_count, bound=bound,
            block_bound=block_bound, hull_max=hull_max, violations=violations,
        )

    def to_json_dict(self) -> dict:
        return {
            "samples": self.samples,
            "N": self.horizon,
            "max_count": self.max_count,
            "bound": format_fraction(self.bound),
            "block_bound": self.block_bound,
            "hull_max": self.hull_max,
            "violations": len(self.violations),
        }


def nonzero_count_check(inst: FactorMapInstance, samples: int) -> CountReport:
    """Count nonzero image entries over [0, N), N the horizon, for states
    drawn with the instance's seed; each count must stay strictly below
    delta*N/2 + 2m and below the exact block form (ceil(N/block)+1)(m-1).
    Also reports the per-residue coordinate hull. States are drawn over the
    whole window, but only the complete blocks meeting [0, N) are evaluated,
    each to the chart's integer numerators: no vertex chain and no
    Fraction."""
    p = inst.params
    N, period, m = p.horizon, p.period, p.m
    bound = p.delta * N / 2 + 2 * m
    blocks_touching = -((-N) // period) + 1  # ceil(N/block) + 1
    block_bound = blocks_touching * (m - 1)
    pipeline = inst.pipeline
    rng = random.Random(p.seed)
    max_count = 0
    hulls = {}  # residue -> the positions of [0, N) where its images were nonzero
    violations = []
    for _ in range(samples):
        x, r = inst.sample_state(rng)
        nonzero = []
        for a in inst.block_starts(r):
            if -period < a < N:
                offset = a - x.start
                image, _ = pipeline.image_numerators(x.nums[offset : offset + period], x.den)
                # the image fills the block's first m - 1 entries, zeros the rest
                nonzero.extend(n for n, c in enumerate(image, a) if c and 0 <= n < N)
        count = len(nonzero)
        hulls.setdefault(r, set()).update(nonzero)
        max_count = max(max_count, count)
        if not (count < bound and count <= block_bound):
            violations.append((r, count))
    for r in sorted(hulls):
        if any((n + r) % period >= m - 1 for n in hulls[r]):
            violations.append((r, "hull outside padded positions"))
    hull_max = max(map(len, hulls.values()), default=0)
    return CountReport(
        samples=samples,
        horizon=N,
        max_count=max_count,
        bound=bound,
        block_bound=block_bound,
        hull_max=hull_max,
        violations=tuple(violations),
    )


class FiberPoint(FrozenStruct):
    """A point of the factor map's fiber as the sampler draws it. Its window
    starts at `start` and holds `head` (the free coordinates before the
    first complete block), then each FlagPoint in `flags` realized on the
    grid (one per complete block, in block order), then `tail` (the free
    coordinates after the last block). The free coordinates are integer
    numerators over SAMPLE_RESOLUTION.

    `numerators` builds that window as one IntegerWindow on first read and
    keeps it: every coordinate over the lcm of 64 and the blocks'
    denominators. The domain metric reads it; only a failure witness (through
    the repr, which is the WindowSeq's) realizes `window` on Fractions.
    """

    def __init__(self, start: int, head: tuple, flags: tuple, tail: tuple, grid: int):
        self.__dict__.update(start=start, head=head, flags=flags, tail=tail, grid=grid)

    @cached_property
    def numerators(self) -> IntegerWindow:
        blocks = [flag.realize(self.grid) for flag in self.flags]
        den = lcm(SAMPLE_RESOLUTION, *(d for _, d in blocks))
        free = den // SAMPLE_RESOLUTION
        nums = [k * free for k in self.head]
        for coords, d in blocks:
            factor = den // d
            nums.extend(c * factor for c in coords)
        nums.extend(k * free for k in self.tail)
        return IntegerWindow(self.start, tuple(nums), den)

    @property
    def window(self) -> WindowSeq:
        w = self.numerators
        return WindowSeq(w.start, tuple(Fraction(a, w.den) for a in w.nums))

    def __repr__(self) -> str:
        return repr(self.window)


def fiber_dimension_certificate(inst: FactorMapInstance, state) -> EpsEmbeddingCertificate:
    """Certificate for the fiber of the factor map through `state` at the
    instance's horizon N: the chain of per-block width-map fiber
    certificates over the complete blocks that meet [-M, N + M), with exact
    dimension bookkeeping strictly below (N + 2M + 2L')/m; its
    dimension-bookkeeping record is FAILED, with a witness, where the
    chain's dimension is not below that bound. The chain holds at half the
    scale; the certificate claims eps, with scale-relaxation,
    coordinate-projection, window-tail-rule and dimension-bookkeeping last.

    A fiber point is a FiberPoint over the instance's window. The sampler
    draws its free head coordinates, then each complete block's flag from
    that block's fiber sampler in block order, then its free tail
    coordinates. The chain reads the block at offset a as that block's
    sampled flag, so evaluation reads no coordinates and, of each flag, its
    bucket i*'s draws only. The domain metric d_N reads the point's
    IntegerWindow, which builds its flags' weights; only a failure witness
    realizes the window on Fractions.
    """
    p = inst.params
    N = p.horizon
    x, residue = state
    period = p.period
    all_starts = inst.block_starts(residue)
    cert_starts = [a for a in all_starts if a + period > -p.margin and a < N + p.margin]

    # every complete block in the window is constrained to its own width-map
    # fiber at half the scale, with the grid mesh below a quarter of it,
    # located once; the blocks meeting the certified range also enter the
    # chain
    half, quarter = p.eps / 2, p.eps / 4
    pipeline = inst.pipeline
    block_certs = {}
    for a in all_starts:
        offset = a - x.start
        flag = pipeline.locate_flag(x.nums[offset : offset + period], x.den)
        block_certs[a] = pipeline.fiber_certificate(flag, half, quarter)

    # coordinates outside complete blocks are free
    grid = p.grid
    lo, hi = inst.window_lo, inst.window_hi
    covered_lo, covered_hi = all_starts[0], all_starts[-1] + period

    def sample(rng):
        return FiberPoint(
            lo,
            tuple(randint_draws(rng, SAMPLE_RESOLUTION, covered_lo - lo)),
            tuple(cert.domain.sample(rng) for cert in block_certs.values()),
            tuple(randint_draws(rng, SAMPLE_RESOLUTION, hi - covered_hi)),
            grid,
        )

    fiber_domain = MetricSpaceHandle(
        kind="factor-map-fiber",
        description=f"fiber at horizon {N}, residue {residue}",
        dist=lambda u, v: d_N(INTEGER_HILBERT_METRIC, N, u.numerators, v.numerators),
        sample=sample,
    )

    index = {a: i for i, a in enumerate(all_starts)}
    chain = chain_fiber_certificate(
        fiber_domain,
        lambda point, a: point.flags[index[a]],
        [(block_certs[a], period) for a in cert_starts],
        N,
        start=cert_starts[0],
        margin=p.margin,
    )
    bound = p.fiber_dim_bound()
    below = chain.target_dim < bound
    tail = two_sided_tail(p.margin)
    records = (
        structural_record(
            "scale-relaxation", from_scale=chain.epsilon, to_scale=p.eps,
            block_scale=half, mesh_scale=quarter, two_sided_tail=tail,
        ),
        structural_record("coordinate-projection"),
        structural_record(
            "window-tail-rule", margin=p.margin, threshold=half, two_sided_tail=tail
        ),
        structural_record(
            "dimension-bookkeeping",
            DISCHARGED if below else FAILED,
            None if below else ("fiber dimension bound violated",),
            total_dim=chain.target_dim,
            window_length=len(cert_starts) * period,
            bound=bound,
            m=p.m,
        ),
    )
    return EpsEmbeddingCertificate(
        fiber_domain, chain.target_dim, p.eps, chain.evaluator,
        chain.obligations + records, chain.target_dist,
    )


class ReportRow(Value):
    _fields = ("eps", "N", "fiber_dim", "fiber_dim_over_N", "image_dim_over_N")

    def __init__(
        self,
        eps: Fraction,
        N: int,
        fiber_dim: int,
        fiber_dim_over_N: Fraction,
        image_dim_over_N: Fraction,
    ):
        self.__dict__.update(
            eps=eps, N=N, fiber_dim=fiber_dim, fiber_dim_over_N=fiber_dim_over_N,
            image_dim_over_N=image_dim_over_N,
        )

    def to_csv(self) -> str:
        return ",".join(
            [
                format_fraction(self.eps),
                str(self.N),
                format_fraction(self.fiber_dim_over_N),
                format_fraction(self.image_dim_over_N),
            ]
        )


CSV_HEADER = "eps,N,fiber_dim_over_N,image_dim_over_N"


def mdim_report(delta, N_values, eps_values):
    """Ratio table: the largest certified fiber dimension per step, over
    every state (CounterexampleParams.max_fiber_dim), and the image dimension
    bound per step, for each scale and horizon."""
    delta = F(delta)
    rows = []
    for eps in eps_values:
        eps = F(eps)
        for N in N_values:
            params = CounterexampleParams(delta, eps, N)
            fiber_dim = params.max_fiber_dim()
            rows.append(
                ReportRow(
                    eps=eps,
                    N=N,
                    fiber_dim=fiber_dim,
                    fiber_dim_over_N=F(fiber_dim, N),
                    image_dim_over_N=(delta * N / 2 + 2 * params.m) / N,
                )
            )
    return rows


def stacked_report(delta, depth: int, N: int):
    """Finite truncation of the stacked family: depth-n uses scale 1/n and
    budget delta/2^n; the stacked fiber refines every single-map fiber, so at
    scale 1/n the depth-n certificate applies, and each row holds the
    largest fiber dimension it certifies over every state."""
    delta = F(delta)
    rows = []
    for n in range(1, depth + 1):
        eps_n = F(1, n)
        delta_n = delta / 2**n
        fiber_dim = CounterexampleParams(delta_n, eps_n, N).max_fiber_dim()
        rows.append(
            {
                "depth": n,
                "eps": eps_n,
                "delta": delta_n,
                "fiber_dim": fiber_dim,
                "fiber_dim_over_N": F(fiber_dim, N),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# wedge-of-cones embedding over a zero-dimensional base
# ---------------------------------------------------------------------------

APEX = ("*", F(0), None)


def cone_point(branch, height, payload):
    height = F(height)
    if height == 0:
        return APEX
    return (branch, height, payload)


def cone_distance(dist_for_branch):
    """Metric on a wedge of cones: through the apex across branches, height
    difference plus scaled payload distance along one branch."""

    def dist(p, q):
        bp, tp, xp = p
        bq, tq, xq = q
        if tp == 0 and tq == 0:
            return F(0)
        if tp == 0 or tq == 0:
            return tp + tq
        if bp != bq:
            return tp + tq  # through the apex
        return abs(tp - tq) + min(tp, tq) * dist_for_branch(bp)(xp, xq, None)

    return dist


class SbpEmbeddingInstance(Struct):
    """Zero-dimensional-base data for the wedge-cone embedding.

    The cutoff is the indicator of the union of the refined pieces: it is 1
    on every piece, zero off them, and {0,1}-valued because everything is
    clopen. The pieces are pairwise disjoint, so at most one is live.
    """

    _fields = (
        "base", "cover", "pieces", "complement", "fiber_certs", "global_cert", "base_span"
    )

    def __init__(
        self,
        base: Sft,
        cover: tuple,
        pieces: tuple,  # E_i, pairwise disjoint, E_i <= V_i
        complement: CylinderSet,  # leftover after peeling
        fiber_certs: tuple,  # one per cover element, on the fiber over it
        global_cert: EpsEmbeddingCertificate,
        base_span: tuple,  # sampling window for base points
    ):
        self.base = base
        self.cover = cover
        self.pieces = pieces
        self.complement = complement
        self.fiber_certs = fiber_certs
        self.global_cert = global_cert
        self.base_span = base_span
        eps = F(global_cert.epsilon)
        for cert in fiber_certs:
            if F(cert.epsilon) != eps:
                raise PreconditionError("mismatched epsilon between certificates")
        for i, Ei in enumerate(pieces):
            for Ej in pieces[i + 1 :]:
                if not Ei.intersection(Ej).is_empty:
                    raise PreconditionError("pieces are not pairwise disjoint")
        for Ei, Vi in zip(pieces, cover):
            if not Ei.difference(Vi).is_empty:
                raise PreconditionError("need each piece inside its cover element")

    @property
    def epsilon(self) -> Fraction:
        return F(self.global_cert.epsilon)

    def sample_base(self, rng: random.Random) -> WindowSeq:
        lo, hi = self.base_span
        symbols = []
        prev = None
        order = sorted(self.base.alphabet, key=repr)
        for _ in range(hi - lo):
            choices = (
                order
                if prev is None
                else [b for b in order if (prev, b) in self.base.transitions]
            )
            prev = choices[rng.randrange(len(choices))]
            symbols.append(prev)
        return WindowSeq(lo, tuple(symbols))


def build_sbp_instance(
    base: Sft,
    cover,
    delta,
    fiber_certs,
    global_cert: EpsEmbeddingCertificate,
    base_span,
    pieces=None,
) -> SbpEmbeddingInstance:
    """Refine the cover into disjoint pieces (exactly, the base being
    zero-dimensional) and assemble the embedding data. Passing `pieces`
    directly allows deliberately punctured families."""
    cover = tuple(cover)
    if pieces is None:
        refined, complement, _ = sbp_cover_refine(base, cover, delta)
        pieces = tuple(refined)
    else:
        pieces = tuple(pieces)
        union = pieces[0]
        for piece in pieces[1:]:
            union = union.union(piece)
        complement = union.complement()
    return SbpEmbeddingInstance(
        base=base,
        cover=cover,
        pieces=pieces,
        complement=complement,
        fiber_certs=tuple(fiber_certs),
        global_cert=global_cert,
        base_span=tuple(base_span),
    )


def wedge_cone_embedding(
    inst: SbpEmbeddingInstance, N: int, n: int
) -> EpsEmbeddingCertificate:
    """Certificate on (X, d_{nN}) built from n time steps of the glued map.

    Each step contributes a wedge-of-cones coordinate (the live piece's fiber
    embedding at full cone height, or the apex) and a global-cone coordinate
    that leaves the apex only while the orbit sits outside every piece; the
    number of such steps is bounded by an exact dynamic program over the
    base. Dimension: n * (wedge dim) + (live-step bound) * (global cone dim).
    """
    if N < 1 or n < 1:
        raise PreconditionError("N and n must be positive")
    eps = inst.epsilon
    lo, hi = inst.base_span
    span_needed = (n - 1) * N + max(
        (E.offset + E.length for E in inst.pieces if E.length), default=1
    )
    if not (lo <= 0 and hi >= max(span_needed, n * N)):
        raise PreconditionError("base span too small for the requested horizon")

    cone_dims = [cert.target_dim + 1 for cert in inst.fiber_certs]
    wedge_dim = max(cone_dims) if cone_dims else 0
    global_cone_dim = inst.global_cert.target_dim + 1

    count_bound = max_subsampled_visits(inst.base, inst.complement, n, N)
    complement_ocap = ocap_limit(inst.base, inst.complement)

    degenerate = all(E.is_empty for E in inst.pieces)
    k_contrib = 0 if degenerate else n * wedge_dim
    target_dim = k_contrib + count_bound * global_cone_dim

    records = [
        structural_record(
            "windows-pairwise-disjoint",
            pairwise_disjoint=True,
            count=len(inst.pieces),
        ),
        structural_record("cutoff-dichotomy-zero-dimensional"),
        structural_record(
            "subsampled-visits-bound",
            count_bound=count_bound,
            steps=n,
            step_length=N,
            complement_ocap=complement_ocap.value,
            graph_size=complement_ocap.graph_size,
        ),
        structural_record(
            "wedge-dimension-count",
            n=n,
            cone_dim=0 if degenerate else wedge_dim,
            count_bound=count_bound,
            global_cone_dim=global_cone_dim,
            wedge_dim=target_dim,
        ),
    ]
    if degenerate:
        records.append(structural_record("degenerate-cutoff-identically-zero"))

    pieces = inst.pieces
    fiber_evals = [cert.evaluator for cert in inst.fiber_certs]
    global_eval = inst.global_cert.evaluator

    def evaluate(point):
        base_window, payload = point
        out = []
        for k in range(n):
            t = k * N
            shifted = (WindowSeq(base_window.start - t, base_window.values), payload)
            # the live piece, if any: the pieces are pairwise disjoint
            branch = next(
                (i for i, E in enumerate(pieces) if E.contains_point(base_window, shift=t)),
                None,
            )
            if branch is None:
                out.append((APEX, cone_point("g", 1, global_eval(shifted))))
            else:
                out.append((cone_point(branch, 1, fiber_evals[branch](shifted)), APEX))
        return tuple(out)

    fiber_target_dists = [cert.target_dist for cert in inst.fiber_certs]
    f_cone_dist = cone_distance(lambda branch: fiber_target_dists[branch])
    g_cone_dist = cone_distance(lambda branch: inst.global_cert.target_dist)

    def target_dist(a, b, cap):
        # always exact: the cap is ignored
        return max(
            max(f_cone_dist(fa, fb), g_cone_dist(ga, gb))
            for (fa, ga), (fb, gb) in zip(a, b)
        )

    global_domain = inst.global_cert.domain

    def sample(rng):
        base_window = inst.sample_base(rng)
        _, payload = global_domain.sample(rng)
        return (base_window, payload)

    def dist(pq1, pq2):
        b1, u1 = pq1
        b2, u2 = pq2
        base_part = d_N(SYMBOL_METRIC, n * N, b1, b2)
        fiber_part = global_domain.dist((b1, u1), (b2, u2))
        return max(base_part, fiber_part)

    domain = MetricSpaceHandle(
        kind="product",
        description=f"base x fiber at horizon {n}x{N}",
        dist=dist,
        sample=sample,
    )
    base_obligations = tuple(
        r for cert in inst.fiber_certs for r in cert.obligations
    ) + tuple(inst.global_cert.obligations)
    return EpsEmbeddingCertificate(
        domain=domain,
        target_dim=target_dim,
        epsilon=eps,
        evaluator=evaluate,
        obligations=base_obligations + tuple(records),
        target_dist=target_dist,
    )
