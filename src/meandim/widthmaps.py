"""Width-reducing simplicial maps onto standard simplexes and cubes.

Two layers:

* partition_map: the basic construction. Vertices collapse block-wise onto
  the full standard simplex, so the vertex map needs no simpliciality check:
  every nonempty set of the m target vertices is a face. Each fiber retracts
  into the full subcomplex of one block, and the retraction's fibers sit
  inside vertex stars, so the star mesh bounds every fiber diameter. Meshes
  and fiber distances are l-infinity, the metric of the cube fibers the
  paper certifies. cube_width_map runs it on the Kuhn triangulation of the
  cube at the grid g = grid_for_mesh(eps/4), whose star mesh, min(1, 2/g),
  is measured once and is already below eps/4: the triangulation is
  subdivided once, the subdivision's vertices are partitioned by
  source-simplex dimension, and the subdivision inherits the grid's mesh as
  its premise. It materializes complexes and computes meshes and subcomplex
  dimensions exactly; practical up to four-dimensional cubes. Its artifact
  payload reads only counts, which cube_width_map_payload counts in closed
  form after the same checks. Meshes and subdivision run on the complex's
  integer coordinate numerators (see geometry). A sampled fiber point is a
  simplex's vertices with integer weights over one denominator; a retraction
  keeps the retained weights as such a point, and the fiber metric, which
  measures the target side too, sums integer numerators and builds a
  Fraction only for a distance. Each walk of the subdivided family is paid
  once per map: the closure check records the maximal simplices (the affine
  check visits only those, with one rank per simplex shape), simplices are
  grouped by support pattern without a family sort, each pattern is sorted
  into vertex-ordered tuples when first sampled, and each block's
  full-subcomplex dimension is computed once.
* KuhnWidthPipeline: the same map evaluated in closed form, usable at any
  dimension (the factor map runs it on each block and pads the image with
  zeros). A point is located once, as a FlagPoint: the vertex chain of its
  Kuhn simplex in weight order plus one weight per chain prefix. Prefix j
  is a j-simplex of the grid, so its bucket is fixed by j alone;
  evaluation, retraction and fiber sampling all read one per-prefix bucket
  table. The image needs no flag: a point's prefix weights, and so its
  bucket sums, depend only on its sorted barycentric weights, so
  `image_numerators` builds no vertex chain and returns the image as the
  chart's integer numerators. Location, evaluation, retraction and
  sampling run on integer numerators over one denominator per flag, a
  sampled flag keeps its raw draws until its weights are read (a
  retraction reads one bucket's draws), a retraction stays an unrealized
  flag, a flag realizes its coordinates as integer numerators too, and a
  Fraction is built only where a value leaves the pipeline (distances).
  Its certificates carry arithmetic bounds (grid mesh, chain-length bucket
  dimensions) instead of materialized values; tests cross-check the two
  layers on small grids.

Both layers assemble a fiber's certificate in one function, with the same
records in the same order over each layer's own sampler, metric and retraction.

The radial chart between simplex and cube scales each ray from the center by
the ratio of its two exit times, in closed form: from t = s/D, W_i = m*s_i - D
(i < m) and c_i = (A*D + B*W_i) / (2*A*D); back from p = P/D, W_i = 2*P_i - D
and u_i = (B*D + A*W_i) / (m*B*D), the last at W_m = -sum W. Here
A = max |W_i|, B = max(max_i(-W_i), sum W), and A = 0 is the center.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import mul

from .certificates import (
    EpsEmbeddingCertificate,
    MetricSpaceHandle,
    randint_draws,
    structural_record,
)
from .complexes import (
    VertexPartition,
    bucket_dimension_bound,
    bucket_of_dimension,
    dimension_buckets,
    full_subcomplex,
)
from .errors import BudgetExceededError, FrozenStruct, PreconditionError, Struct, Value
from .geometry import (
    GeometricComplex,
    barycentric_subdivide_geometric,
    common_numerators,
    kuhn_location,
    kuhn_simplex,
    kuhn_triangulate_cube,
    max_star_mesh,
)
from .serialize import format_fraction

WEIGHT_DENOMINATOR = 64  # granularity of sampled rational convex weights
SIZE_BUDGET = 200_000  # estimated top simplices of a cube width map recipe


def _draw_groups(rng, groups) -> list:
    """The draw half of random weights: per group of slot indices, its
    randint(0, 64) draws from randint_draws (randint's values and rng
    state), one of them set to 1 where all are zero."""
    draws = []
    for group in groups:
        raw = randint_draws(rng, WEIGHT_DENOMINATOR, len(group))
        if not any(raw):
            raw[rng.randrange(len(raw))] = 1
        draws.append(raw)
    return draws


def _group_weights(groups, draws, scales, size: int):
    """The build half: a group's draws go over their sum s and are scaled
    by the group's scale. Returns the integer weights on `size` slots over
    the product of the sums, and that product."""
    totals = [sum(raw) for raw in draws]
    product = prod(totals)
    weights = [0] * size
    for group, raw, total, scale in zip(groups, draws, totals, scales):
        factor = scale * (product // total)
        for j, r in zip(group, raw):
            weights[j] = factor * r
    return tuple(weights), product


def empty_fiber_certificate(eps) -> EpsEmbeddingCertificate:
    """The vacuous claim for an empty fiber: nothing to embed."""
    return EpsEmbeddingCertificate(
        domain=MetricSpaceHandle(
            "geometric-complex", "empty fiber", lambda a, b: Fraction(0),
            lambda rng: (),
        ),
        target_dim=0,
        epsilon=Fraction(eps),
        evaluator=lambda x: (),
        obligations=(structural_record("empty-fiber"),),
    )


def _width_fiber_certificate(description, eps, dim, records, sample, dist, retract):
    """A nonempty width-map fiber's certificate, with `retract` as its
    evaluator and `dist` measuring both the fiber and the target, where it
    is always exact. `records` starts with the mesh record; the collapse and
    star-fiber records follow it."""
    mesh_record, *rest = records
    obligations = (
        mesh_record,
        structural_record("simplicial-by-block-collapse"),
        structural_record("retraction-fibers-lie-in-stars"),
        *rest,
    )
    domain = MetricSpaceHandle("geometric-complex", description, dist, sample)
    return EpsEmbeddingCertificate(
        domain, dim, eps, retract, obligations, target_dist=lambda a, b, cap: dist(a, b)
    )


class PartitionWidthMap(Struct):
    """A partition simplicial map plus its per-fiber certificate builder.

    `block_of` sends each vertex to its 1-based block index: the vertex map
    onto the full standard simplex on the m blocks. The blocks are the
    dimension buckets of a subdivided `source_dim`-dimensional complex."""

    _fields = ("geometry", "partition", "eps", "block_of", "mesh_record", "source_dim")

    def __init__(
        self,
        geometry: GeometricComplex,
        partition: VertexPartition,
        eps: Fraction,
        block_of: dict,
        mesh_record,
        source_dim: int,
    ):
        self.geometry = geometry
        self.partition = partition
        self.eps = eps
        self.block_of = block_of
        self.mesh_record = mesh_record
        self.source_dim = source_dim
        self._by_pattern = None
        self._admissible = {}
        self._block_dims = {}

    @property
    def m(self) -> int:
        return self.partition.m

    def _pattern_index(self) -> dict:
        """support pattern (the set of blocks a simplex meets) -> its
        simplices, in no particular order."""
        if self._by_pattern is None:
            block_of = self.block_of
            index = {}
            for s in self.geometry.complex.simplices:
                index.setdefault(frozenset(map(block_of.__getitem__, s)), []).append(s)
            self._by_pattern = index
        return self._by_pattern

    def admissible(self, support) -> list:
        """The simplices whose vertices meet exactly the blocks in `support`,
        each as its vertex-ordered tuple, in simplex_key order; sorted once
        per pattern, when first asked for, on vertex-index tuples and then
        (stably) by size."""
        if support not in self._admissible:
            found = self._pattern_index().get(support, ())
            K = self.geometry.complex
            at = K._vertex_indices().__getitem__
            keys = sorted([tuple(sorted(map(at, s))) for s in found])
            keys.sort(key=len)
            self._admissible[support] = [tuple(map(K.vertices.__getitem__, key)) for key in keys]
        return self._admissible[support]

    def block_dim(self, i: int) -> int:
        """Dimension of the full subcomplex on block i (1-based), built once
        per block."""
        if i not in self._block_dims:
            block = self.partition.blocks[i - 1]
            self._block_dims[i] = full_subcomplex(self.geometry.complex, block).dim
        return self._block_dims[i]

    def fiber_certificate(self, t) -> EpsEmbeddingCertificate:
        """Certificate for the fiber over the barycentric target point t.

        The retraction onto the full subcomplex of the lowest-index positive
        block has fibers inside vertex stars, so the star mesh premise bounds
        every retraction fiber by eps.

        A sampled fiber point is (vertices, weights, denom): a simplex's
        vertices in vertex order and their barycentric weights as integer
        numerators over denom. Block i's weights sum to t_i. The evaluator
        retracts a point to another such point, its block-i* weights over
        their sum, without realizing it; the fiber metric `dist` measures
        the target side too, and builds a Fraction only for a distance.
        """
        t = tuple(Fraction(ti) for ti in t)
        if len(t) != self.m or any(ti < 0 for ti in t) or sum(t) != 1:
            raise PreconditionError("target point must be barycentric over the blocks")
        support = frozenset(i + 1 for i, ti in enumerate(t) if ti > 0)
        admissible = self.admissible(support)
        if not admissible:
            return empty_fiber_certificate(self.eps)
        i_star = min(support)
        dim = self.block_dim(i_star)
        G = self.geometry
        block_of = self.block_of
        t_nums, t_den = common_numerators(t)
        scales = [t_nums[i - 1] for i in support]
        ambient = G.ambient_dim

        def sample(rng):
            verts = admissible[rng.randrange(len(admissible))]
            groups = [[j for j, v in enumerate(verts) if block_of[v] == i] for i in support]
            raw = _draw_groups(rng, groups)
            weights, product = _group_weights(groups, raw, scales, len(verts))
            return verts, weights, t_den * product

        def weighted_sum(verts, weights):
            # the point's coordinates over its denominator times G.den
            coords = [0] * ambient
            for v, w in zip(verts, weights):
                if w:
                    coords = [a + w * c for a, c in zip(coords, G.nums[v])]
            return coords

        def dist(x, y):
            (x_verts, x_weights, dx), (y_verts, y_weights, dy) = x, y
            diffs = [
                a * dy - b * dx
                for a, b in zip(weighted_sum(x_verts, x_weights), weighted_sum(y_verts, y_weights))
            ]
            return Fraction(max(map(abs, diffs), default=0), dx * dy * G.den)

        def retract(x):
            verts, weights, _ = x
            kept = [w if block_of[v] == i_star else 0 for v, w in zip(verts, weights)]
            return verts, kept, sum(kept)

        records = (
            self.mesh_record,
            structural_record(
                "bucket-dimension-bound", source_dim=self.source_dim, m=self.m, bucket=i_star,
                dim=dim,
            ),
        )
        description = f"fiber over {tuple(format_fraction(ti) for ti in t)}"
        return _width_fiber_certificate(description, self.eps, dim, records, sample, dist, retract)


def partition_map(
    G: GeometricComplex, P: VertexPartition, eps, mesh, mesh_scale, source_dim: int
) -> PartitionWidthMap:
    """Collapse each partition block to one target vertex, extended linearly.

    `mesh` is an exact value known to dominate G's star mesh: a parent
    complex's mesh, since subdivision stars live inside parent star
    closures. The premise that it lies strictly below `mesh_scale` is
    checked before the map is built. The blocks are the dimension buckets
    of G, a subdivided `source_dim`-dimensional complex.
    """
    mesh, mesh_scale = Fraction(mesh), Fraction(mesh_scale)
    P.validate_covers(G.complex.vertices)
    if not mesh < mesh_scale:
        raise PreconditionError(f"inherited star mesh bound {mesh} is not below {mesh_scale}")
    mesh_record = structural_record(
        "star-mesh-inherited-bound", parent_mesh=mesh, scale=mesh_scale
    )
    # validate_covers and the partition's disjointness give every vertex
    # exactly one block in 1..m
    block_of = {v: i for i, block in enumerate(P.blocks, start=1) for v in block}
    return PartitionWidthMap(G, P, Fraction(eps), block_of, mesh_record, source_dim)


# ---------------------------------------------------------------------------
# the radial chart between the standard simplex and the cube
# ---------------------------------------------------------------------------


def _cube_numerators(s, D: int) -> tuple:
    """Radial homeomorphism from the standard simplex onto the unit cube,
    centered at the barycenter, at the point t = s/D given by integer
    numerators s; rays scale so boundaries match. Bijective and exact;
    fibers of any map composed with it are unchanged. Returns the image as
    integer numerators over one denominator: A*D + B*W_i over 2*A*D, with
    W_i = m*s_i - D (i < m), A = max |W_i| and B = max(max_i(-W_i), sum W);
    1 over 2 everywhere when A = 0."""
    m = len(s)
    W = [m * si - D for si in s[:-1]]
    A = max(map(abs, W), default=0)
    if A == 0:
        return [1] * len(W), 2
    B = max(max(-w for w in W), sum(W))
    return [A * D + B * w for w in W], 2 * A * D


def barycentric_from_cube(p) -> tuple:
    """Inverse of _cube_numerators. For p = P/D: u_i = (B*D + A*W_i) /
    (m*B*D) with W_i = 2*P_i - D, the last coordinate at W_m = -sum W, and A,
    B as there; 1/m everywhere when A = 0."""
    P, D = common_numerators([Fraction(x) for x in p])
    m = len(P) + 1
    if any(c < 0 or c > D for c in P):
        raise PreconditionError("point outside the unit cube")
    W = [2 * c - D for c in P]
    A = max(map(abs, W), default=0)
    if A == 0:
        return tuple(Fraction(1, m) for _ in range(m))
    B = max(max(-w for w in W), sum(W))
    return tuple(Fraction(B * D + A * w, m * B * D) for w in W + [-sum(W)])


# ---------------------------------------------------------------------------
# closed-form pipeline on Kuhn grids (any dimension)
# ---------------------------------------------------------------------------


class FlagPoint(Value):
    """A point of the barycentric subdivision of one Kuhn simplex.

    `chain` lists the simplex's vertices (integer grid tuples) in decreasing
    order of the point's barycentric weight, so the subdivision simplex that
    holds the point is spanned by the barycenters of the chain's prefixes.
    `weights[j]` is the integer numerator, over `denom`, of the weight on
    prefix j, the face made of the first j + 1 vertices; the numerators are
    nonnegative and sum to `denom` (a SampledFlag builds both on first read).
    """

    _fields = ("chain", "weights", "denom")

    def __init__(self, chain: tuple, weights: tuple, denom: int):
        self.__dict__.update(chain=chain, weights=weights, denom=denom)

    def realize(self, grid: int) -> tuple:
        """The point's coordinates on a grid-`grid` Kuhn cube, as integer
        numerators over one common denominator: (coords, denominator).
        Realizing is linear in the weights, so it also takes signed weights:
        a.weights * b.denom - b.weights * a.denom over a.denom * b.denom
        realizes the difference of two flags a, b on one chain."""
        # the barycenter of prefix k - 1 is its coordinate sum over k * grid,
        # so vertex j carries weights[k - 1] / k for every prefix k > j
        weights = self.weights
        scale = 1
        for k, w in enumerate(weights, start=1):
            if w:
                scale = lcm(scale, k)
        carried = []
        total = 0
        for k in range(len(weights), 0, -1):
            total += weights[k - 1] * (scale // k)
            carried.append(total)
        carried.reverse()
        coords = [sum(map(mul, carried, column)) for column in zip(*self.chain)]
        return coords, scale * self.denom * grid


class _Drawn:
    """A SampledFlag's `weights` or `denom`: the first read builds both into
    the instance dict, which answers every later read."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, flag, owner):
        if flag is None:
            return self
        _, groups, scales, denom = flag.fiber
        weights, product = _group_weights(groups, flag.draws, scales, len(flag.chain))
        flag.__dict__.update(weights=weights, denom=denom * product)
        return flag.__dict__[self.name]


class SampledFlag(FlagPoint):
    """A flag that a Kuhn fiber sampler drew, kept as its raw draws:
    `draws[k]` lists the draws on the prefixes `groups[k]` of bucket
    `support[k]`, where `fiber` is the sampler's (support, groups, scales,
    denom). Realizing, for a near pair's d_N or a failure witness, reads
    `weights` and `denom`, which _group_weights builds on that first read;
    a retraction reads one bucket's draws only."""

    weights = _Drawn()
    denom = _Drawn()

    def __init__(self, chain: tuple, draws: list, fiber: tuple):
        self.__dict__.update(chain=chain, draws=draws, fiber=fiber)


def _prefix_weights(sorted_weights) -> tuple:
    """A flag's prefix weights from a simplex's barycentric weights sorted
    in decreasing order: prefix j carries j + 1 times the gap between the
    j-th and the next weight (the last over 0)."""
    gaps = list(sorted_weights) + [0]
    return tuple([(j + 1) * (gaps[j] - gaps[j + 1]) for j in range(len(sorted_weights))])


class KuhnWidthPipeline(FrozenStruct):
    """Evaluate the dimension-bucket width map on a Kuhn grid without
    materializing the complex. Prefix j of a flag's chain is a j-simplex of
    the grid triangulation, so its barycenter lies in bucket `buckets[j]`."""

    _fields = ("n", "m", "grid")

    def __init__(self, n: int, m: int, grid: int):
        if n < 1 or m < 1 or grid < 1:
            raise PreconditionError("bad pipeline parameters")
        self.__dict__.update(
            n=n,
            m=m,
            grid=grid,
            buckets=tuple(bucket_of_dimension(j, n, m) for j in range(n + 1)),
        )

    def locate_flag(self, nums, res: int) -> FlagPoint:
        """The flag through the point with coordinates nums[i]/res."""
        verts, simplex_weights = kuhn_simplex(nums, res, self.n, self.grid)
        # vertices sorted descending by weight give the containing flag
        by_weight = sorted(range(self.n + 1), key=lambda i: (-simplex_weights[i], verts[i]))
        return FlagPoint(
            tuple(verts[i] for i in by_weight),
            _prefix_weights([simplex_weights[i] for i in by_weight]),
            res,
        )

    def _bucket_numerators(self, prefix_weights) -> list:
        sums = [0] * self.m
        for bucket, w in zip(self.buckets, prefix_weights):
            sums[bucket - 1] += w
        return sums

    def bucket_sums(self, nums, res: int) -> list:
        """The bucket sums of the point nums[i]/res, over res, without its
        flag: the prefix weights depend only on the sorted barycentric
        weights, not on the vertex chain they sit on."""
        _, _, weights = kuhn_location(nums, res, self.n, self.grid)
        return self._bucket_numerators(_prefix_weights(sorted(weights, reverse=True)))

    def image_numerators(self, nums, res: int) -> tuple:
        """The width map into the (m-1)-cube at the point nums[i]/res, as
        integer numerators over one denominator: (numerators, denominator)."""
        return _cube_numerators(self.bucket_sums(nums, res), res)

    def retract(self, flag: FlagPoint, bucket: int) -> FlagPoint:
        """The flag's normalized bucket part, unrealized: its weights on the
        bucket's prefixes over their sum. A SampledFlag's weights there are
        its raw draws times one positive factor, so its part reads only
        that bucket's draws, each over their sum."""
        if type(flag) is SampledFlag:
            support, groups, _, _ = flag.fiber
            kept = [0] * len(flag.chain)
            if bucket in support:
                k = support.index(bucket)
                for j, r in zip(groups[k], flag.draws[k]):
                    kept[j] = r
            kept = tuple(kept)
        else:
            kept = tuple(w if b == bucket else 0 for b, w in zip(self.buckets, flag.weights))
        total = sum(kept)
        if total == 0:
            raise PreconditionError("retraction bucket has zero weight")
        return FlagPoint(flag.chain, kept, total)

    def fiber_certificate(self, flag: FlagPoint, scale, mesh_threshold) -> EpsEmbeddingCertificate:
        """Certificate for the fiber through `flag`, sampled in the flag
        polytope of its chain. Dimensions come from the chain-length bucket
        bounds; the mesh premise is the grid bound 2/g. A sample is a
        SampledFlag. The evaluator retracts onto bucket i* without realizing
        the result, reading bucket i*'s draws only, and the fiber metric
        `dist`, which compares flags on their integer numerators, measures
        the target side too. Every flag it compares lies on `chain`, so it
        realizes their weight difference once."""
        sums = self._bucket_numerators(flag.weights)
        scale = Fraction(scale)
        mesh_threshold = Fraction(mesh_threshold)
        support = [i for i in range(1, self.m + 1) if sums[i - 1] > 0]
        i_star = min(support)
        dim = bucket_dimension_bound(self.n, self.m, i_star)
        groups = [[j for j, b in enumerate(self.buckets) if b == i] for i in support]
        scales = [sums[i - 1] for i in support]
        chain = flag.chain
        fiber = (support, groups, scales, flag.denom)
        g = self.grid

        def sample(rng):
            # bucket i's prefix weights sum to its bucket sum, sums[i] / denom
            return SampledFlag(chain, _draw_groups(rng, groups), fiber)

        def dist(a, b):
            # both flags lie on `chain`; realize is linear in the weights
            da, db = a.denom, b.denom
            weights = tuple(x * db - y * da for x, y in zip(a.weights, b.weights))
            zs, dz = FlagPoint(chain, weights, da * db).realize(g)
            return Fraction(max(map(abs, zs)), dz)

        records = (
            structural_record(
                "star-mesh-grid-bound", grid=g, bound=Fraction(2, g), scale=mesh_threshold
            ),
            structural_record(
                "bucket-dimension-bound",
                source_dim=self.n,
                m=self.m,
                bucket=i_star,
                dim=dim,
            ),
        )
        return _width_fiber_certificate(
            f"grid-{g} width-map fiber in dimension {self.n}", scale, dim, records,
            sample, dist, lambda flag: self.retract(flag, i_star),
        )


def grid_for_mesh(mesh_scale) -> int:
    """Smallest g with 2/g strictly below the mesh scale."""
    mesh_scale = Fraction(mesh_scale)
    if mesh_scale <= 0:
        raise PreconditionError("mesh scale must be positive")
    g = (2 / mesh_scale).__floor__() + 1
    return max(1, g)


class CubeWidthMap(Struct):
    """Explicit width map on the triangulated cube with exact certificates."""

    _fields = ("n", "m", "eps", "grid", "inner")

    def __init__(self, n: int, m: int, eps: Fraction, grid: int, inner: PartitionWidthMap):
        self.n = n
        self.m = m
        self.eps = eps
        self.grid = grid
        self.inner = inner  # on the subdivided triangulation

    @property
    def fiber_bound(self) -> Fraction:
        return Fraction(self.n, self.m)

    def fiber_certificate(self, p) -> EpsEmbeddingCertificate:
        """Certificate for the fiber over a cube point p, with exact
        subcomplex dimensions from the materialized complex. Points outside
        the cube have empty fibers and discharge trivially."""
        p = tuple(Fraction(c) for c in p)
        if len(p) != self.m - 1:
            raise PreconditionError("target point has wrong length")
        if any(c < 0 or c > 1 for c in p):
            return empty_fiber_certificate(self.eps)
        t = barycentric_from_cube(p)
        return self.inner.fiber_certificate(t)


def _cube_grid(n: int, m: int, eps) -> tuple:
    """The checks every cube width map passes before anything is built or
    counted, and its Kuhn grid: (eps, g). SIZE_BUDGET bounds m, through the
    2^m - 1 faces of the target simplex, and, separately, the estimated top
    simplices of the subdivision, g^n * n! * (n+1)!."""
    eps = Fraction(eps)
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    if m < 2:
        raise PreconditionError("m must be at least 2")
    if not 1 <= n <= 4:
        raise PreconditionError("cube dimension out of range (1..4)")
    # the bit-length test comes first, so a huge m never computes 2**m
    if m > SIZE_BUDGET.bit_length() or 2**m - 1 > SIZE_BUDGET:
        raise BudgetExceededError(
            f"size budget exceeded: the target simplex on {m} vertices has 2^{m} - 1 "
            f"faces > {SIZE_BUDGET}"
        )
    g = grid_for_mesh(eps / 4)
    estimated = g**n * factorial(n) * factorial(n + 1)
    if estimated > SIZE_BUDGET:
        raise BudgetExceededError(
            f"size budget exceeded: ~{estimated} subdivided simplices > {SIZE_BUDGET}"
        )
    return eps, g


def cube_width_map(n: int, m: int, eps) -> CubeWidthMap:
    """Width map [0,1]^n -> [0,1]^{m-1} whose fibers certify at dim n/m.

    The Kuhn grid g = grid_for_mesh(eps/4) has star mesh min(1, 2/g),
    strictly below eps/4, the scale the downstream construction consumes,
    so certificates discharge the mesh premise with that margin. The mesh
    is measured once, on the grid, and the subdivision inherits it.
    """
    eps, g = _cube_grid(n, m, eps)
    G = kuhn_triangulate_cube(n, g)
    mesh = max_star_mesh(G)
    sub = barycentric_subdivide_geometric(G)
    inner = partition_map(sub, dimension_buckets(sub.complex, m), eps, mesh, eps / 4, n)
    return CubeWidthMap(n=n, m=m, eps=eps, grid=g, inner=inner)


def _surjections(s: int, k: int) -> int:
    """Ordered partitions of an s-set into k nonempty blocks: k! S(s, k)."""
    return sum((-1) ** i * comb(k, i) * (k - i) ** s for i in range(k + 1))


def _fubini(j: int) -> int:
    """Ordered partitions of a j-set: the strict face chains ending at a (j-1)-simplex."""
    return sum(_surjections(j, k) for k in range(j + 1))


def kuhn_face_counts(n: int, g: int) -> list:
    """f_k, the k-faces of the Kuhn triangulation of the n-cube on the 1/g
    grid, for k = 0..n. A k-face is its least vertex, the set S of the s
    axes it steps along (below g on S, anywhere on the rest) and an ordered
    partition of S into its k steps."""
    return [
        sum(comb(n, s) * g**s * (g + 1) ** (n - s) * _surjections(s, k) for s in range(k, n + 1))
        for k in range(n + 1)
    ]


def cube_width_map_payload(n: int, m: int, eps) -> dict:
    """cube_width_map(n, m, eps)'s artifact payload, counted instead of
    built: a subdivision vertex is a Kuhn face, a simplex a strict chain of
    faces, and each bucket's full subcomplex reaches its chain-length bound,
    since the cube has faces of every dimension 0..n."""
    eps, g = _cube_grid(n, m, eps)
    mesh = min(Fraction(1), Fraction(2, g))
    if not mesh < eps / 4:
        raise PreconditionError(f"inherited star mesh bound {mesh} is not below {eps / 4}")
    faces = kuhn_face_counts(n, g)
    return {
        "kind": "cube-width-map",
        "n": n,
        "m": m,
        "eps": format_fraction(eps),
        "mesh_scale": format_fraction(eps / 4),
        "grid": g,
        "mesh": format_fraction(mesh),
        "vertices": sum(faces),
        "simplices": sum(f * _fubini(k + 1) for k, f in enumerate(faces)),
        "fiber_bound": format_fraction(Fraction(n, m)),
        "bucket_dims": [bucket_dimension_bound(n, m, i) for i in range(1, m + 1)],
    }
