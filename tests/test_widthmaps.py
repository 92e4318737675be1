"""Tests for partition maps, the cube pipeline, and the closed-form Kuhn
evaluation."""

import functools
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from meandim.certificates import check_certificate, flat_linf, structural_record
from meandim.complexes import (
    SimplicialComplex,
    VertexPartition,
    barycentric_subdivide,
    dimension_buckets,
)
from meandim.errors import BudgetExceededError, PreconditionError
from meandim.geometry import (
    GeometricComplex,
    barycentric_subdivide_geometric,
    common_numerators,
    kuhn_triangulate_cube,
    max_star_mesh,
)
from meandim import widthmaps
from meandim.counterexample import CounterexampleParams, FactorMapInstance
from meandim.serialize import format_fraction
from meandim.widthmaps import (
    FlagPoint,
    KuhnWidthPipeline,
    SampledFlag,
    barycentric_from_cube,
    cube_width_map,
    cube_width_map_payload,
    grid_for_mesh,
    kuhn_face_counts,
    partition_map,
)
from oracles import (
    BarycentricPoint,
    all_structural_discharged,
    cube_from_barycentric,
    cube_from_numerators,
    eager_flag_sampler,
    eval_simplicial_map,
    evaluate,
    kuhn_fiber_groups,
    locate,
    materialized_payload,
    realize,
    sorted_admissible,
    vertex_point,
)

F = Fraction


def unit_edge():
    K = SimplicialComplex.from_maximal(["a", "b"], [["a", "b"]])
    return realize(K, {"a": (F(0),), "b": (F(1),)})


def realized(flag, grid):
    """The flag's realized coordinates as Fractions."""
    coords, den = flag.realize(grid)
    return tuple(F(a, den) for a in coords)


def flag_at(pipeline, x):
    """The pipeline's flag through the Fraction point x."""
    return pipeline.locate_flag(*common_numerators(x))


def as_barycentric(x):
    """A sampled fiber point (vertices, integer weights, denominator) as a
    BarycentricPoint, whose constructor validates the weights."""
    verts, weights, denom = x
    return BarycentricPoint(frozenset(verts), {v: F(w, denom) for v, w in zip(verts, weights)})


def standard_simplex(m):
    """The full standard simplex spanned by the basis of R^m, on vertices
    1..m."""
    verts = list(range(1, m + 1))
    K = SimplicialComplex.from_maximal(verts, [verts])
    return realize(K, {i: tuple(F(int(j == i - 1)) for j in range(m)) for i in verts})


def fiber_points_exist(wm, t):
    """Whether some simplex meets exactly the blocks where t is positive."""
    return bool(wm.admissible(frozenset(i + 1 for i, ti in enumerate(t) if ti > 0)))


def bucket_map(G, m, eps, mesh_scale):
    """The partition map on the dimension buckets of G's subdivision, with
    G's measured star mesh as its premise, as cube_width_map builds it."""
    sub = barycentric_subdivide_geometric(G)
    P = dimension_buckets(sub.complex, m)
    return partition_map(sub, P, eps, max_star_mesh(G), mesh_scale, G.complex.dim)


def square_map():
    """The bucket map on the subdivided Kuhn square on the 1/3 grid, whose
    star mesh is 2/3, certified at scale 1."""
    return bucket_map(kuhn_triangulate_cube(2, 3), 2, F(1), F(1))


def standard_two_simplex():
    K = SimplicialComplex.from_maximal(["a", "b", "c"], [["a", "b", "c"]])
    return realize(K, {v: tuple(F(int(u == v)) for u in "abc") for v in "abc"})


class TestPartitionMap:
    @staticmethod
    def _check_edge_fiber(wm, t, points, seed):
        cert = wm.fiber_certificate(t)
        assert cert.target_dim == 0
        target = standard_simplex(wm.m)
        rng = random.Random(seed)
        seen = set()
        for _ in range(20):
            x = as_barycentric(cert.domain.sample(rng))
            seen.add(x.realize(wm.geometry))
            assert eval_simplicial_map(wm.block_of, target, x) == t
        assert seen == points

    def test_unit_edge_fibers(self):
        # the subdivided edge keeps its endpoints in bucket 1 and puts its
        # midpoint in bucket 2; the fiber over the second vertex is the midpoint
        wm = bucket_map(unit_edge(), 2, F(2), F(2))
        assert wm.partition.blocks == (frozenset({("a",), ("b",)}), frozenset({("a", "b")}))
        self._check_edge_fiber(wm, (F(0), F(1)), {(F(1, 2),)}, 0)

    def test_edge_split_by_endpoints(self):
        # over the barycentre of the target edge the fiber picks the middle
        # point of each half of the subdivided edge
        wm = bucket_map(unit_edge(), 2, F(2), F(2))
        self._check_edge_fiber(wm, (F(1, 2), F(1, 2)), {(F(1, 4),), (F(3, 4),)}, 0)

    def test_vertex_target_fiber(self):
        # the fiber over the first vertex is the two endpoints
        wm = bucket_map(unit_edge(), 2, F(2), F(2))
        self._check_edge_fiber(wm, (F(1), F(0)), {(F(0),), (F(1),)}, 1)

    def test_mesh_hypothesis_enforced(self):
        # the unit edge's star mesh is 1
        with pytest.raises(PreconditionError, match="inherited star mesh bound 1 is not below 1/2"):
            bucket_map(unit_edge(), 2, F(1, 2), F(1, 2))

    def test_partition_must_cover_exactly_the_vertices(self):
        # the only check that gives every vertex a block in 1..m
        sub = barycentric_subdivide_geometric(unit_edge())
        ends = {("a",), ("b",)}
        for blocks in ((ends, set()), (ends, {("a", "b"), "c"})):
            P = VertexPartition(tuple(map(frozenset, blocks)))
            with pytest.raises(PreconditionError, match="does not cover"):
                partition_map(sub, P, F(2), F(1), F(2), 1)

    def test_simpliciality(self):
        wm = square_map()
        target = standard_simplex(wm.m).complex
        for s in wm.geometry.complex.simplices:
            image = frozenset(wm.block_of[v] for v in s)
            assert image in target.simplices

    def test_fiber_points_evaluate_back_to_target(self):
        wm = square_map()
        target = standard_simplex(wm.m)
        rng = random.Random(5)
        for _ in range(10):
            t = (F(rng.randint(1, 7), 8),)
            t = (t[0], 1 - t[0])
            cert = wm.fiber_certificate(t)
            for _ in range(5):
                x = as_barycentric(cert.domain.sample(rng))
                assert eval_simplicial_map(wm.block_of, target, x) == t

    def test_retraction_passes_fiber_check(self):
        cert = square_map().fiber_certificate((F(1, 3), F(2, 3)))
        record = check_certificate(cert, trials=300, seed=7)
        assert record.status == "sampled-only"

    def test_constant_map_m1(self):
        wm = bucket_map(unit_edge(), 1, F(3), F(3))
        assert wm.m == 1
        cert = wm.fiber_certificate((F(1),))
        assert cert.target_dim <= 1  # vacuous bound dim K / 1

    def test_two_simplex_m2(self):
        wm = bucket_map(standard_two_simplex(), 2, F(2), F(2))
        for k in range(9):
            cert = wm.fiber_certificate((F(k, 8), 1 - F(k, 8)))
            assert cert.target_dim <= 1
            assert all_structural_discharged(cert)


class TestBucketFibers:
    """Bucket fibers of the cube width map."""

    def test_empty_bucket_gives_an_empty_fiber(self):
        # the subdivided 1-cube has vertices of dimensions 0 and 1 only, so
        # of three dimension buckets the middle one holds no vertex
        wm = cube_width_map(1, 3, F(3))
        assert wm.inner.partition.blocks[1] == frozenset()
        cert = wm.fiber_certificate(cube_from_barycentric((F(0), F(1), F(0))))
        assert cert.target_dim == 0
        assert cert.obligations == (structural_record("empty-fiber"),)

    def test_non_barycentric_target_refused(self):
        wm = cube_width_map(1, 3, F(3)).inner
        for t in (
            (F(1, 2), F(1, 2), F(1, 2)),  # sums to 3/2
            (F(-1), F(1), F(1)),  # a negative weight
            (F(1), F(0)),  # one weight short
        ):
            with pytest.raises(PreconditionError, match="barycentric"):
                wm.fiber_certificate(t)

    def test_dim2_three_buckets_all_zero_dimensional(self):
        from meandim.complexes import bucket_dimension_bound

        # 2/3 rounds down to 0, so every bucket certifies at dimension 0
        assert bucket_dimension_bound(2, 3, 1) == 0
        assert bucket_dimension_bound(2, 3, 2) == 0
        assert bucket_dimension_bound(2, 3, 3) == 0
        wm = cube_width_map(2, 3, F(8, 3)).inner  # grid 4
        for t in _simplex_grid(3):
            if fiber_points_exist(wm, t):
                assert wm.fiber_certificate(t).target_dim <= 0

    def test_fiber_bound_monotone_in_m(self):
        dims = []
        for m in (2, 3, 4):
            wm = cube_width_map(2, m, F(8, 3)).inner  # grid 4
            certs = [
                wm.fiber_certificate(t)
                for t in _simplex_grid(m)
                if fiber_points_exist(wm, t)
            ]
            dims.append(max(c.target_dim for c in certs))
        assert dims[0] >= dims[1] >= dims[2]


class TestStarMeshPremise:
    """The Kuhn grid's star mesh is 2/g, below eps/4 at the grid the cube
    map picks, so the map measures it once and the subdivision inherits it."""

    def test_cube_width_map_measures_the_grid_once(self, monkeypatch):
        calls = []
        real = widthmaps.max_star_mesh

        def counted(G):
            calls.append(G)
            return real(G)

        monkeypatch.setattr(widthmaps, "max_star_mesh", counted)
        cube_width_map(2, 2, F(1, 2))
        assert len(calls) == 1

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_kuhn_star_mesh_is_two_over_the_grid(self, n):
        for g in range(1, 9):
            assert max_star_mesh(kuhn_triangulate_cube(n, g)) == min(1, F(2, g))

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from((1, 2)), data=st.data())
    def test_grid_mesh_is_below_the_scale_and_is_the_payload_mesh(self, n, data):
        low = F(1, 64) if n == 1 else F(1, 2)  # grids up to 513 and 17
        eps = data.draw(st.fractions(low, 8, max_denominator=64))
        g = grid_for_mesh(eps / 4)
        mesh = min(1, F(2, g))
        assert mesh < eps / 4
        payload = materialized_payload(cube_width_map(n, 2, eps))
        assert (payload["grid"], payload["mesh"]) == (g, format_fraction(mesh))


def _simplex_grid(m, steps=4):
    if m == 1:
        return [(F(1),)]
    pts = []
    for i in range(steps + 1):
        t1 = F(i, steps)
        rest = 1 - t1
        pt = (t1,) + tuple(rest / (m - 1) for _ in range(m - 1))
        pts.append(pt)
    return pts


def exit_corner(center, w):
    """Oracle: largest lambda keeping center + lambda*w inside
    {u >= 0, sum u <= 1}."""
    lam = None
    for ci, wi in zip(center, w):
        if wi < 0:
            cand = ci / (-wi)
            lam = cand if lam is None or cand < lam else lam
    total = sum(w, F(0))
    if total > 0:
        cand = (1 - sum(center, F(0))) / total
        lam = cand if lam is None or cand < lam else lam
    return lam


def exit_cube(center, w):
    """Oracle: largest lambda keeping center + lambda*w inside the cube."""
    lam = None
    for ci, wi in zip(center, w):
        if wi > 0:
            cand = (1 - ci) / wi
        elif wi < 0:
            cand = ci / (-wi)
        else:
            continue
        lam = cand if lam is None or cand < lam else lam
    return lam


def exit_time_cube_from_barycentric(t):
    """Oracle: the radial chart as the ratio of the two exit times along the
    ray from the barycenter."""
    m = len(t)
    center_t, center_c = [F(1, m)] * (m - 1), [F(1, 2)] * (m - 1)
    w = [a - b for a, b in zip(t[:-1], center_t)]
    if all(x == 0 for x in w):
        return tuple(center_c)
    ratio = exit_cube(center_c, w) / exit_corner(center_t, w)
    return tuple(c + ratio * x for c, x in zip(center_c, w))


def exit_time_barycentric_from_cube(p):
    """Oracle: the inverse chart by the same two exit times."""
    m = len(p) + 1
    center_t, center_c = [F(1, m)] * (m - 1), [F(1, 2)] * (m - 1)
    w = [a - b for a, b in zip(p, center_c)]
    if all(x == 0 for x in w):
        u = center_t
    else:
        ratio = exit_corner(center_t, w) / exit_cube(center_c, w)
        u = [c + ratio * x for c, x in zip(center_t, w)]
    return tuple(u) + (1 - sum(u, F(0)),)


# rationals with mixed denominators, zero and one included
unit_fractions = st.builds(
    lambda b, a: F(a % (b + 1), b), st.integers(1, 12), st.integers(0, 12)
)


@st.composite
def simplex_points(draw):
    """Barycentric points on m = 1..5 vertices with mixed denominators;
    vertices and faces come up as draws with zero entries."""
    q = draw(st.lists(unit_fractions, min_size=1, max_size=5))
    assume(any(q))
    return tuple(x / sum(q) for x in q)


class TestCubeChart:
    @settings(max_examples=300, deadline=None)
    @given(t=simplex_points())
    def test_forward_matches_exit_times_and_round_trips(self, t):
        p = cube_from_barycentric(t)
        assert p == exit_time_cube_from_barycentric(t)
        assert all(type(c) is F and 0 <= c <= 1 for c in p)
        assert barycentric_from_cube(p) == t

    @settings(max_examples=300, deadline=None)
    @given(p=st.lists(unit_fractions, max_size=4).map(tuple))
    def test_inverse_matches_exit_times_and_round_trips(self, p):
        t = barycentric_from_cube(p)
        assert t == exit_time_barycentric_from_cube(p)
        assert all(type(c) is F for c in t) and sum(t) == 1
        assert cube_from_barycentric(t) == p

    def test_vertices_faces_and_centers_match_exit_times(self):
        for m in range(1, 6):
            center = tuple(F(1, m) for _ in range(m))
            points = [center] + [
                tuple(F(int(j == i)) for j in range(m)) for i in range(m)
            ] + [
                tuple(F(int(j != i), m - 1) for j in range(m)) for i in range(m) if m > 1
            ]
            for t in points:
                assert cube_from_barycentric(t) == exit_time_cube_from_barycentric(t)
                assert barycentric_from_cube(cube_from_barycentric(t)) == t
            assert cube_from_barycentric(center) == tuple(F(1, 2) for _ in range(m - 1))
            for corner in range(2 ** (m - 1)):
                p = tuple(F((corner >> j) & 1) for j in range(m - 1))
                assert barycentric_from_cube(p) == exit_time_barycentric_from_cube(p)

    def test_roundtrip(self):
        rng = random.Random(3)
        for m in (2, 3, 4):
            for _ in range(25):
                raw = [rng.randint(0, 12) for _ in range(m)]
                if not any(raw):
                    raw[0] = 1
                total = sum(raw)
                t = tuple(F(r, total) for r in raw)
                p = cube_from_barycentric(t)
                assert all(0 <= c <= 1 for c in p)
                assert barycentric_from_cube(p) == t

    def test_center_to_center(self):
        assert cube_from_barycentric((F(1, 3), F(1, 3), F(1, 3))) == (F(1, 2), F(1, 2))

    def test_m2_is_projection(self):
        assert cube_from_barycentric((F(1, 4), F(3, 4))) == (F(1, 4),)

    def test_vertices_to_boundary(self):
        p = cube_from_barycentric((F(1), F(0), F(0)))
        assert any(c in (F(0), F(1)) for c in p)

    def test_outside_cube_rejected(self):
        with pytest.raises(PreconditionError):
            barycentric_from_cube((F(3, 2), F(0)))


class TestCubeWidthMap:
    def test_n1_m2_fiber_bound_zero(self):
        wm = cube_width_map(1, 2, F(1, 2))
        cert = wm.fiber_certificate((F(1, 3),))
        assert cert.target_dim == 0
        record = check_certificate(cert, trials=300, seed=11)
        assert record.status == "sampled-only"

    def test_n2_m2_fiber_bound_one(self):
        wm = cube_width_map(2, 2, F(1, 2))
        assert wm.fiber_bound == 1
        cert = wm.fiber_certificate((F(2, 5),))
        assert cert.target_dim <= 1
        assert all_structural_discharged(cert)

    def test_grid_choice_strict(self):
        assert grid_for_mesh(F(1, 8)) == 17
        assert grid_for_mesh(F(1, 2)) == 5  # 2/4 would equal the scale, not below
        assert grid_for_mesh(F(2, 3)) == 4

    def test_budget(self):
        # the 4-cube at grid 17: ~17^4 * 4! * 5! subdivided simplices
        with pytest.raises(BudgetExceededError, match="size budget"):
            cube_width_map(4, 2, F(1, 2))

    def test_target_faces_count_against_the_budget(self):
        # the 16-simplex target has 2^17 - 1 = 131,071 faces, within
        # SIZE_BUDGET; the 17-simplex target has 2^18 - 1 = 262,143, over
        # it; m = 10**9 is refused without computing 2**m
        assert cube_width_map(1, 17, F(1, 2)).m == 17
        with pytest.raises(BudgetExceededError, match="target simplex"):
            cube_width_map(1, 18, F(1, 2))
        with pytest.raises(BudgetExceededError, match="target simplex"):
            cube_width_map(1, 10**9, F(1, 2))

    def test_block_dimension_built_once_per_block(self, monkeypatch):
        calls = []
        real = widthmaps.full_subcomplex

        def counted(K, A):
            calls.append(frozenset(A))
            return real(K, A)

        monkeypatch.setattr(widthmaps, "full_subcomplex", counted)
        wm = cube_width_map(2, 2, F(1))
        first = materialized_payload(wm)
        for k in range(9):
            wm.fiber_certificate((F(k, 8),))
        assert materialized_payload(wm) == first
        assert len(calls) == len(set(calls)) <= wm.m

    def test_bounds(self):
        with pytest.raises(PreconditionError):
            cube_width_map(5, 2, F(1, 2))
        with pytest.raises(PreconditionError):
            cube_width_map(2, 1, F(1, 2))


def _outcome(build, *args):
    """build(*args), or the type and message of what it raises."""
    try:
        return build(*args)
    except (BudgetExceededError, PreconditionError) as exc:
        return type(exc), str(exc)


# eps per cube dimension: refusals (eps <= 0, over the size budget) and
# accepted grids, without the 3-cube's grid 9 (eps = 1), which takes seconds
PAYLOAD_EPS = {
    1: (F(-1), F(0), F(1, 64), F(1, 2), F(1), F(8, 3), F(4), F(8), F(9), F(100)),
    2: (F(-1), F(0), F(1, 64), F(1, 2), F(1), F(8, 3), F(4), F(8), F(9), F(100)),
    3: (F(0), F(1, 64), F(1, 2), F(2), F(8, 3), F(4), F(8), F(9), F(100)),
    4: (F(-1), F(0), F(1, 64), F(1, 2), F(1), F(4), F(8), F(9), F(100)),
}


class TestClosedFormPayload:
    """cube_width_map_payload counts what cube_width_map materializes."""

    def test_payload_matches_the_materialized_map(self, monkeypatch):
        # each grid is triangulated and subdivided once, across the m values
        kuhn = functools.cache(widthmaps.kuhn_triangulate_cube)
        subdivide, subdivided = widthmaps.barycentric_subdivide_geometric, {}

        def subdivide_once(G):
            if id(G) not in subdivided:
                subdivided[id(G)] = subdivide(G)
            return subdivided[id(G)]

        monkeypatch.setattr(widthmaps, "kuhn_triangulate_cube", kuhn)
        monkeypatch.setattr(widthmaps, "barycentric_subdivide_geometric", subdivide_once)
        cases = refused = 0
        for n, eps_values in PAYLOAD_EPS.items():
            for m in (2, 3, 4, 5, 7, 17, 18):
                for eps in eps_values:
                    expected = _outcome(lambda: materialized_payload(cube_width_map(n, m, eps)))
                    assert _outcome(cube_width_map_payload, n, m, eps) == expected, (n, m, eps)
                    cases += 1
                    refused += type(expected) is tuple
        assert (cases, refused) == (266, 122)

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from((1, 2)), m=st.integers(2, 6), data=st.data())
    def test_drawn_payload_matches_the_materialized_map(self, n, m, data):
        low = F(1, 64) if n == 1 else F(1, 2)  # grids up to 513 and 17
        eps = data.draw(st.fractions(low, 8, max_denominator=64))
        assert cube_width_map_payload(n, m, eps) == materialized_payload(cube_width_map(n, m, eps))

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_face_counts_are_the_kuhn_simplices_by_size(self, n):
        for g in range(1, 7):
            by_size = Counter(map(len, kuhn_triangulate_cube(n, g).complex.simplices))
            assert kuhn_face_counts(n, g) == [by_size[k + 1] for k in range(n + 1)], g

    def test_fubini_counts_the_chains_ending_at_a_simplex(self):
        for k in range(5):
            top = tuple(range(k + 1))
            Kp = barycentric_subdivide(SimplicialComplex.from_maximal(top, [top]))
            assert widthmaps._fubini(k + 1) == sum(top in s for s in Kp.simplices), k


class TestClosedFormAgainstExplicit:
    def test_evaluation_matches_explicit_locate(self):
        # dual route: flag location + bucket sums vs explicit point location
        # in the materialized subdivision followed by the simplicial map; the
        # chart is a bijection, so equal cube points mean equal bucket sums
        wm = cube_width_map(2, 2, F(8, 3))  # grid 4
        pipeline = KuhnWidthPipeline(wm.n, wm.m, wm.grid)
        sub = wm.inner.geometry
        target = standard_simplex(wm.m)
        rng = random.Random(13)
        for _ in range(20):
            x = (F(rng.randint(0, 36), 36), F(rng.randint(0, 36), 36))
            flag = flag_at(pipeline, x)
            assert realized(flag, pipeline.grid) == x
            located = locate(sub, x)
            t_explicit = eval_simplicial_map(wm.inner.block_of, target, located)
            assert evaluate(pipeline, x) == cube_from_barycentric(t_explicit)

    def test_retract_matches_explicit_bucket_part(self):
        # retracting a located flag onto bucket i realizes the normalized
        # bucket-i part of the point's weights in the materialized subdivision
        wm = cube_width_map(2, 2, F(8, 3))  # grid 4
        pipeline = KuhnWidthPipeline(wm.n, wm.m, wm.grid)
        sub = wm.inner.geometry
        rng = random.Random(41)
        cases = 0
        for _ in range(40):
            x = (F(rng.randint(0, 36), 36), F(rng.randint(0, 36), 36))
            flag = flag_at(pipeline, x)
            located = locate(sub, x)
            for i, block in enumerate(wm.inner.partition.blocks, start=1):
                part = {v: w for v, w in located.weights.items() if v in block}
                total = sum(part.values(), F(0))
                if total == 0:
                    continue
                explicit = BarycentricPoint(
                    frozenset(part), {v: w / total for v, w in part.items()}
                ).realize(sub)
                assert realized(pipeline.retract(flag, i), pipeline.grid) == explicit
                cases += 1
        assert cases > 40

    def test_closed_form_bucket_dims_match_exact(self):
        from meandim.complexes import bucket_dimension_bound, full_subcomplex

        wm = cube_width_map(2, 2, F(8, 3))  # grid 4
        for i, block in enumerate(wm.inner.partition.blocks, start=1):
            exact = full_subcomplex(wm.inner.geometry.complex, block).dim
            assert exact == bucket_dimension_bound(2, 2, i)


# the factor map's block pipeline at delta = eps = 1/2: blocks of length 8,
# m = 3, certified at eps/2 with the grid mesh below eps/4
BLOCK, M, BLOCK_SCALE, MESH_SCALE = 8, 3, F(1, 4), F(1, 8)


def block_pipeline() -> KuhnWidthPipeline:
    return KuhnWidthPipeline(BLOCK, M, grid_for_mesh(MESH_SCALE))


class TestBlockPipeline:
    def test_fiber_certificate_dimension(self):
        pipeline = block_pipeline()
        rng = random.Random(23)
        x = tuple(F(rng.randint(0, 64), 64) for _ in range(8))
        cert = pipeline.fiber_certificate(flag_at(pipeline, x), BLOCK_SCALE, MESH_SCALE)
        assert cert.target_dim <= F(8, 3)
        assert all_structural_discharged(cert)
        assert cert.epsilon == F(1, 4)

    def test_empty_fiber_outside_cube(self):
        wm = cube_width_map(1, 2, F(1, 2))
        cert = wm.fiber_certificate((F(3, 2),))
        assert cert.target_dim == 0
        assert cert.obligations[0].name == "empty-fiber"
        assert all_structural_discharged(cert)

    def test_fiber_samples_are_true_fiber_points(self):
        pipeline = block_pipeline()
        rng = random.Random(29)
        x = tuple(F(rng.randint(0, 64), 64) for _ in range(8))
        p = evaluate(pipeline, x)
        cert = pipeline.fiber_certificate(flag_at(pipeline, x), BLOCK_SCALE, MESH_SCALE)
        for _ in range(5):
            flag = cert.domain.sample(rng)
            sample_x = realized(flag, pipeline.grid)
            assert evaluate(pipeline, sample_x) == p

    def test_fiber_samples_keep_chain_and_bucket_sums(self):
        pipeline = block_pipeline()
        rng = random.Random(47)
        # ties leave prefixes 0 and 5 with zero weight inside the two
        # supported buckets; bucket 3 is empty
        tied = (F(1, 64), F(1, 64), F(5, 64), F(5, 64), F(0), F(1), F(1, 2), F(33, 64))
        points = [tied] + [tuple(F(rng.randint(0, 64), 64) for _ in range(8)) for _ in range(4)]
        flags = [flag_at(pipeline, x) for x in points]
        assert flags[0].weights[0] == flags[0].weights[5] == 0
        for flag in flags:
            sums = pipeline._bucket_numerators(flag.weights)
            cert = pipeline.fiber_certificate(flag, F(1, 4), F(1, 8))
            for _ in range(20):
                sample = cert.domain.sample(rng)
                assert sample.chain == flag.chain
                assert all(w >= 0 for w in sample.weights)
                assert sum(sample.weights) == sample.denom
                got = pipeline._bucket_numerators(sample.weights)
                assert [a * flag.denom for a in got] == [b * sample.denom for b in sums]

    def test_fiber_check_no_violations(self):
        pipeline = block_pipeline()
        rng = random.Random(31)
        x = tuple(F(rng.randint(0, 64), 64) for _ in range(8))
        cert = pipeline.fiber_certificate(flag_at(pipeline, x), BLOCK_SCALE, MESH_SCALE)
        record = check_certificate(cert, trials=300, seed=37)
        assert record.status == "sampled-only"


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from((1, 2, 3)), g=st.sampled_from((1, 2, 3)), m=st.integers(2, 4),
       data=st.data())
def test_admissible_lists_match_the_full_sort_grouping(n, g, m, data):
    assume(n < 3 or g <= 2)
    wm = bucket_map(kuhn_triangulate_cube(n, g), m, F(3), F(3))
    sub, P = wm.geometry, wm.partition
    block_of = {v: i for i, block in enumerate(P.blocks, start=1) for v in block}
    grouped = {}
    for s in sub.complex.iter_simplices():
        grouped.setdefault(frozenset(block_of[v] for v in s), []).append(
            sub.complex.sorted_simplex(s)
        )
    # every support, the empty one and one naming no block included
    supports = [
        frozenset(c) for k in range(m + 1) for c in combinations(range(1, m + 1), k)
    ] + [frozenset({m + 1})]
    for pattern in data.draw(st.permutations(supports)):
        want = sorted_admissible(wm, pattern)
        assert want == grouped.get(pattern, [])
        assert wm.admissible(pattern) == want
        assert wm.admissible(pattern) == want  # listed once, kept


def test_listing_refuses_a_complex_that_is_no_subdivision():
    # the unsubdivided Kuhn square: the face (0,) of its vertex (0, 0) is no vertex
    G = kuhn_triangulate_cube(2, 3)
    wm = partition_map(G, dimension_buckets(G.complex, 2), F(1), F(2, 3), F(1), 2)
    with pytest.raises(PreconditionError, match=r"vertex \(0, 0\) is no barycentric"):
        wm.admissible(frozenset({1}))
    with pytest.raises(PreconditionError, match="no barycentric subdivision label"):
        wm.fiber_certificate((F(1, 2), F(1, 2)))
    # the subdivided unit edge with its vertex order reversed: the edge's
    # label comes before its faces
    sub = barycentric_subdivide_geometric(unit_edge())
    K = SimplicialComplex(sub.complex.vertices[::-1], sub.complex.simplices)
    flipped = GeometricComplex(K, sub.nums, sub.den)
    wm = partition_map(flipped, dimension_buckets(K, 2), F(2), F(1), F(2), 1)
    with pytest.raises(PreconditionError, match=r"its face \('a',\) is not a vertex before it"):
        wm.admissible(frozenset({1, 2}))
    # the unsubdivided Kuhn interval: its labels have no proper faces, so
    # they make 4 chains, and its edges are no chains
    G = kuhn_triangulate_cube(1, 3)
    wm = partition_map(G, dimension_buckets(G.complex, 2), F(2), F(2, 3), F(2), 1)
    with pytest.raises(PreconditionError, match="make 4 chains, not its 7 simplices"):
        wm.admissible(frozenset({1}))


class TestIntegerFlags:
    """The Kuhn pipeline works on integer numerators and builds a Fraction
    only for the coordinates it returns."""

    def test_locate_and_retract_build_only_output_coordinates(self, request):
        pipeline = block_pipeline()
        rng = random.Random(59)
        points = [tuple(F(rng.randint(0, 64), 64) for _ in range(8)) for _ in range(50)]
        built = request.getfixturevalue("fraction_count")
        flags = [flag_at(pipeline, x) for x in points]
        # location in Fractions built 500 here (10 per point); a retraction
        # builds none, and realizing it none either: its coordinates stay
        # integer numerators
        assert built == []
        for flag in flags:
            i = min(b for b, w in zip(pipeline.buckets, flag.weights) if w)
            retracted = pipeline.retract(flag, i)
            retracted.realize(pipeline.grid)
            assert built == []

    def test_evaluate_and_target_distance_build_only_output_values(self, request):
        pipeline = block_pipeline()
        rng = random.Random(67)
        points = [tuple(F(rng.randint(0, 64), 64) for _ in range(8)) for _ in range(20)]
        cert = pipeline.fiber_certificate(flag_at(pipeline, points[0]), BLOCK_SCALE, MESH_SCALE)
        samples = [cert.domain.sample(rng) for _ in range(20)]
        built = request.getfixturevalue("fraction_count")
        for x in points:
            image, den = pipeline.image_numerators(*common_numerators(x))
            assert built == []  # the image leaves as integer numerators
            assert tuple(F(c, den) for c in image) == evaluate(pipeline, x)
        for a, b in zip(samples, samples[1:]):
            cert.target_dist(cert.evaluator(a), cert.evaluator(b), None)
            assert len(built) == 1  # the distance
            del built[:]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_target_dist_is_flat_linf_of_realized_retractions(self, seed):
        pipeline = block_pipeline()
        rng = random.Random(seed)
        x = tuple(F(rng.randint(0, 64), 64) for _ in range(8))
        flag = flag_at(pipeline, x)
        cert = pipeline.fiber_certificate(flag, BLOCK_SCALE, MESH_SCALE)
        points = [flag] + [cert.domain.sample(rng) for _ in range(6)]
        for a, b in zip(points, points[1:]):
            ra, rb = cert.evaluator(a), cert.evaluator(b)
            got = cert.target_dist(ra, rb, None)
            assert type(got) is F
            assert got == flat_linf(realized(ra, pipeline.grid), realized(rb, pipeline.grid), None)

    def test_dist_on_one_chain_realizes_the_weight_difference_once(self, monkeypatch):
        pipeline = block_pipeline()
        g = pipeline.grid
        flag_realize = FlagPoint.realize
        calls = []

        def counted(flag, grid):
            calls.append(flag)
            return flag_realize(flag, grid)

        def two_realizes(a, b):
            xs, dx = flag_realize(a, g)
            ys, dy = flag_realize(b, g)
            return F(max(abs(x * dy - y * dx) for x, y in zip(xs, ys)), dx * dy)

        def random_flag(rng, chain):
            # about two in three prefix weights are zero
            weights = [rng.choice((0, 0, rng.randint(1, 40))) for _ in chain]
            weights[rng.randrange(len(chain))] += 1
            return FlagPoint(chain, tuple(weights), sum(weights))

        monkeypatch.setattr(FlagPoint, "realize", counted)
        rng = random.Random(73)
        for _ in range(40):
            flag = flag_at(pipeline, tuple(F(rng.randint(0, 64), 64) for _ in range(8)))
            dist = pipeline.fiber_certificate(flag, BLOCK_SCALE, MESH_SCALE).domain.dist
            a, b = random_flag(rng, flag.chain), random_flag(rng, flag.chain)
            scaled = FlagPoint(a.chain, tuple(3 * w for w in a.weights), 3 * a.denom)
            for u, v in ((a, b), (a, a), (a, scaled), (flag, b)):
                del calls[:]
                got = dist(u, v)
                assert len(calls) == 1
                assert type(got) is F
                assert got == two_realizes(u, v)
            assert dist(a, scaled) == dist(a, a) == 0


def factor_block_flags(N: int) -> tuple:
    """The pipeline of the factor instance at horizon N, and the located
    flags of every complete block of a sampled state and of a point whose
    bucket 3 is empty."""
    inst = FactorMapInstance(CounterexampleParams(F(1, 2), F(1, 2), N))
    pipeline, period = inst.pipeline, inst.params.period
    x, r = inst.sample_state(random.Random(N))
    flags = [
        pipeline.locate_flag(x.nums[a - x.start : a - x.start + period], x.den)
        for a in inst.block_starts(r)
    ]
    tied = (F(1, 64), F(1, 64), F(5, 64), F(5, 64), F(0), F(1), F(1, 2), F(33, 64))
    return pipeline, flags + [flag_at(pipeline, tied)]


class ZeroDrawRandom(random.Random):
    """A Random whose first `zeros` getrandbits calls return 0, so that
    the first group of that many draws is all zero; it logs every
    getrandbits and randrange call with its result."""

    def __init__(self, seed, zeros):
        super().__init__(seed)
        self.zeros, self.log = zeros, []

    def getrandbits(self, k):
        value = 0 if self.zeros > 0 else super().getrandbits(k)
        self.zeros -= 1
        self.log.append(("getrandbits", k, value))
        return value

    def randrange(self, *args):
        value = super().randrange(*args)
        self.log.append(("randrange", args, value))
        return value


class TestSampledFlags:
    """A fiber sampler's flag keeps its raw draws, and builds the weights
    and denominator the eager sampler builds only when they are read."""

    @pytest.mark.parametrize("N", [16, 32, 80])
    def test_built_weights_and_retractions_match_the_eager_sampler(self, N):
        pipeline, flags = factor_block_flags(N)
        grid = pipeline.grid
        outside = 0
        for flag in flags:
            cert = pipeline.fiber_certificate(flag, F(1, 4), F(1, 8))
            eager = eager_flag_sampler(pipeline, flag)
            support = kuhn_fiber_groups(pipeline, flag)[0]
            for seed in range(200 // len(flags) + 1):
                drawn, clone = random.Random(seed), random.Random(seed)
                sample, twin = cert.domain.sample(drawn), eager(clone)
                assert drawn.getstate() == clone.getstate()
                assert type(sample) is SampledFlag and type(twin) is FlagPoint
                for b in range(1, pipeline.m + 1):
                    if b in support:
                        got, want = pipeline.retract(sample, b), pipeline.retract(twin, b)
                        assert realized(got, grid) == realized(want, grid)
                    else:
                        outside += 1
                        for point in (sample, twin):
                            with pytest.raises(PreconditionError):
                                pipeline.retract(point, b)
                # retracting read the draws only
                assert "weights" not in vars(sample) and "denom" not in vars(sample)
                assert (sample.chain, sample.weights, sample.denom) == (
                    twin.chain, twin.weights, twin.denom,
                )
                assert sample == SampledFlag(sample.chain, sample.draws, sample.fiber)
        assert outside > 0

    @pytest.mark.parametrize("every", [False, True])
    def test_all_zero_fallback_matches_the_eager_sampler(self, every):
        # the first group's draws are all zero; with `every`, each draw and
        # the fallback's own randrange are, so each group falls back to its
        # first slot
        pipeline, flags = factor_block_flags(16)
        for flag in flags:
            groups = kuhn_fiber_groups(pipeline, flag)[1]
            zeros = 10**9 if every else len(groups[0])
            cert = pipeline.fiber_certificate(flag, F(1, 4), F(1, 8))
            drawn, clone = ZeroDrawRandom(7, zeros), ZeroDrawRandom(7, zeros)
            sample, twin = cert.domain.sample(drawn), eager_flag_sampler(pipeline, flag)(clone)
            assert drawn.log == clone.log and drawn.getstate() == clone.getstate()
            fallen = sample.draws if every else sample.draws[:1]
            assert all(sum(raw) == 1 for raw in fallen)
            assert all(raw[0] == 1 for raw in fallen) or not every
            assert sum(entry[0] == "randrange" for entry in drawn.log) == len(fallen)
            assert (sample.weights, sample.denom) == (twin.weights, twin.denom)


@st.composite
def grid_numerators(draw, n, g):
    """n numerators over 64 * g: points of the 1/64 grid, the faces 0 and 1,
    multiples of 1/g, and repeats of an earlier coordinate."""
    res = 64 * g
    nums = []
    for _ in range(n):
        choices = [
            st.integers(0, 64).map(lambda k: k * g),
            st.sampled_from((0, res)),
            st.integers(0, g).map(lambda k: k * 64),
        ]
        if nums:
            choices.append(st.sampled_from(nums))
        nums.append(draw(st.one_of(choices)))
    return nums, res


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), m=st.integers(2, 5),
       g=st.sampled_from((1, 2, 3, 17)))
def test_chain_free_bucket_sums_match_the_located_flag(data, n, m, g):
    pipeline = KuhnWidthPipeline(n, m, g)
    nums, res = data.draw(grid_numerators(n, g))
    flag = pipeline.locate_flag(nums, res)
    sums = pipeline.bucket_sums(nums, res)
    assert sums == pipeline._bucket_numerators(flag.weights)
    image, den = pipeline.image_numerators(nums, res)
    assert tuple(F(c, den) for c in image) == cube_from_numerators(sums, res)


def test_admissible_and_vertex_order_match_index_sorts():
    wm = square_map()
    P, K = wm.partition, wm.geometry.complex
    block_of = wm.block_of
    for s in K.simplices:
        assert K.sorted_simplex(s) == tuple(sorted(s, key=K.vertices.index))

    def key(s):
        return len(s), tuple(sorted(map(K.vertices.index, s)))

    for size in range(P.m + 1):
        for support in map(frozenset, combinations(range(1, P.m + 1), size)):
            pattern = [s for s in K.simplices if {block_of[v] for v in s} == support]
            assert wm.admissible(support) == [
                tuple(sorted(s, key=K.vertices.index)) for s in sorted(pattern, key=key)
            ]


def fraction_retract(wm, x, t):
    """Oracle: the bucket-i* part of x's Fraction weights, realized and
    divided by t[i*]."""
    i_star = min(i for i, ti in enumerate(t, start=1) if ti > 0)
    block = wm.partition.blocks[i_star - 1]
    coords = None
    for v, w in x.weights.items():
        if v not in block or w == 0:
            continue
        pt = vertex_point(wm.geometry, v)
        coords = tuple(w * c for c in pt) if coords is None else tuple(
            a + w * c for a, c in zip(coords, pt)
        )
    return tuple(c / t[i_star - 1] for c in coords)


class TestPartitionFiberIntegers:
    """The partition map's fiber sampler, retraction and metric work on
    integer numerators and agree with the Fraction formulas."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(0, 8))
    def test_retract_and_dist_match_fraction_formulas(self, seed, k):
        wm = square_map()
        sub = wm.geometry
        t = (F(k, 8), 1 - F(k, 8))
        assume(fiber_points_exist(wm, t))
        cert = wm.fiber_certificate(t)
        target = standard_simplex(wm.m)
        rng = random.Random(seed)
        for _ in range(5):
            x, y = cert.domain.sample(rng), cert.domain.sample(rng)
            bx, by = as_barycentric(x), as_barycentric(y)
            assert eval_simplicial_map(wm.block_of, target, bx) == t
            rx, ry = fraction_retract(wm, bx, t), fraction_retract(wm, by, t)
            assert as_barycentric(cert.evaluator(x)).realize(sub) == rx
            got = cert.target_dist(cert.evaluator(x), cert.evaluator(y), None)
            assert type(got) is Fraction and got == flat_linf(rx, ry, None)
            expected = flat_linf(bx.realize(sub), by.realize(sub), None)
            got = cert.domain.dist(x, y)
            assert type(got) is type(expected) and got == expected

    def test_sample_and_retract_build_none_and_distances_one(self, request):
        cert = square_map().fiber_certificate((F(1, 3), F(2, 3)))
        rng = random.Random(61)
        built = request.getfixturevalue("fraction_count")
        points = [cert.domain.sample(rng) for _ in range(20)]
        assert built == []
        for x, y in zip(points, points[1:]):
            rx, ry = cert.evaluator(x), cert.evaluator(y)
            assert built == []
            cert.target_dist(rx, ry, None)
            assert len(built) == 1
            del built[:]
            cert.domain.dist(x, y)
            assert len(built) == 1
            del built[:]
