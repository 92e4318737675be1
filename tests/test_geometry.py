"""Tests for geometric realizations, Kuhn triangulations and point location."""

import random
import re
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from meandim.complexes import SimplicialComplex, full_subcomplex
from meandim.errors import PreconditionError
from meandim.geometry import (
    GeometricComplex,
    _rank,
    barycentric_subdivide_geometric,
    common_numerators,
    kuhn_simplex,
    kuhn_triangulate_cube,
    max_star_mesh,
)
from meandim.widthmaps import KuhnWidthPipeline
from oracles import BarycentricPoint, eval_simplicial_map, locate, realize, vertex_point
from test_widthmaps import realized

F = Fraction


def standard_two_simplex():
    K = SimplicialComplex.from_maximal(["a", "b", "c"], [["a", "b", "c"]])
    coords = {
        "a": (F(1), F(0), F(0)),
        "b": (F(0), F(1), F(0)),
        "c": (F(0), F(0), F(1)),
    }
    return realize(K, coords)


def exact_det(rows):
    """Oracle: determinant by cofactor expansion over Fractions."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * exact_det(minor)
    return total


def simplex_volume(G, simplex):
    verts = G.complex.sorted_simplex(simplex)
    pts = [vertex_point(G, v) for v in verts]
    n = len(pts) - 1
    rows = [[pts[i + 1][d] - pts[0][d] for d in range(n)] for i in range(n)]
    from math import factorial

    return abs(exact_det(rows)) / factorial(n)


class TestMesh:
    def test_single_two_simplex(self):
        assert max_star_mesh(standard_two_simplex()) == 1

    def test_subdivision_shrinks_mesh(self):
        # one round keeps the closed star of an edge midpoint spanning the
        # whole edge, so the star mesh strictly drops only from round two
        G = standard_two_simplex()
        once = barycentric_subdivide_geometric(G)
        twice = barycentric_subdivide_geometric(once)
        assert max_star_mesh(once) <= max_star_mesh(G)
        assert max_star_mesh(twice) < max_star_mesh(G)

    def test_isolated_points_zero_mesh(self):
        K = SimplicialComplex.from_maximal(["p", "q"], [["p"], ["q"]])
        G = realize(K, {"p": (F(0),), "q": (F(1),)})
        assert max_star_mesh(G) == 0

    def test_unit_edge_meshes_under_subdivision(self):
        K = SimplicialComplex.from_maximal(["a", "b"], [["a", "b"]])
        G = realize(K, {"a": (F(0),), "b": (F(1),)})
        # star meshes go 1 -> 1 -> 1/2 -> 1/4: a midpoint's star spans both
        # incident segments
        meshes = []
        cur = G
        for _ in range(4):
            meshes.append(max_star_mesh(cur))
            cur = barycentric_subdivide_geometric(cur)
        assert meshes == [1, 1, F(1, 2), F(1, 4)]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_sampled_star_points_never_exceed_the_mesh(self, seed):
        G = barycentric_subdivide_geometric(standard_two_simplex())
        mesh = max_star_mesh(G)
        rng = random.Random(seed)
        center = rng.choice(G.complex.vertices)
        star = [s for s in G.complex.simplices if center in s]

        def sample():
            s = G.complex.sorted_simplex(rng.choice(star))
            raw = [F(rng.randint(0, 16), 16) for _ in s]
            total = sum(raw) or F(1)
            weights = [r / total for r in raw]
            weights[0] += 1 - sum(weights)
            pt = BarycentricPoint(frozenset(s), dict(zip(s, weights)))
            return pt.realize(G)

        for _ in range(20):
            assert linf_distance(sample(), sample()) <= mesh


class TestKuhn:
    def test_segment(self):
        G = kuhn_triangulate_cube(1, 2)
        assert len(G.complex.vertices) == 3
        assert len([s for s in G.complex.simplices if len(s) == 2]) == 2

    def test_single_cell_square(self):
        G = kuhn_triangulate_cube(2, 1)
        assert len(G.complex.vertices) == 4
        assert len([s for s in G.complex.simplices if len(s) == 3]) == 2

    def test_grid_16(self):
        G = kuhn_triangulate_cube(2, 16)
        tops = [s for s in G.complex.simplices if len(s) == 3]
        assert len(tops) == 2 * 16 * 16
        assert max_star_mesh(G) <= F(1, 8)

    def test_volumes_sum_to_one(self):
        for n, g in ((1, 3), (2, 2), (3, 1)):
            G = kuhn_triangulate_cube(n, g)
            tops = [s for s in G.complex.simplices if len(s) == n + 1]
            assert sum(simplex_volume(G, s) for s in tops) == 1

    def test_every_grid_point_is_a_vertex(self):
        G = kuhn_triangulate_cube(2, 3)
        assert len(G.complex.vertices) == 16

    def test_star_mesh_bound(self):
        for n, g in ((1, 4), (2, 3), (3, 2)):
            assert max_star_mesh(kuhn_triangulate_cube(n, g)) <= F(2, g)

    def test_bounds_checked(self):
        with pytest.raises(PreconditionError):
            kuhn_triangulate_cube(0, 2)
        with pytest.raises(PreconditionError):
            kuhn_triangulate_cube(7, 1)
        with pytest.raises(PreconditionError):
            kuhn_triangulate_cube(2, 0)


class TestLocate:
    def test_cube_vertex(self):
        G = kuhn_triangulate_cube(2, 2)
        pt = locate(G, (F(1, 2), F(1, 2)))
        assert pt.weights[(1, 1)] == 1

    def test_cell_center(self):
        G = kuhn_triangulate_cube(2, 1)
        pt = locate(G, (F(1, 2), F(1, 2)))
        # the diagonal midpoint: half weight on each diagonal endpoint
        assert pt.weights[(0, 0)] == F(1, 2)
        assert pt.weights[(1, 1)] == F(1, 2)

    def test_outside(self):
        G = kuhn_triangulate_cube(2, 1)
        with pytest.raises(PreconditionError, match="not in complex"):
            locate(G, (F(3, 2), F(0)))

    def test_scan_agrees_with_closed_form(self):
        # the scan returns p's carrier, which is the positive-weight part of
        # the closed-form Kuhn simplex
        for n, g, res in ((2, 2, 24), (3, 2, 12)):
            G = kuhn_triangulate_cube(n, g)
            rng = random.Random(7)
            for _ in range(25):
                p = tuple(F(rng.randint(0, res), res) for _ in range(n))
                located = locate(G, p)
                assert located.realize(G) == p
                nums, common = common_numerators(p)
                verts, weights = kuhn_simplex(nums, common, n, g)
                assert located.weights == {v: F(w, common) for v, w in zip(verts, weights) if w}

    def test_realize_recovers_input(self):
        G = kuhn_triangulate_cube(3, 2)
        rng = random.Random(3)
        for _ in range(20):
            p = tuple(F(rng.randint(0, 12), 12) for _ in range(3))
            assert locate(G, p).realize(G) == p


def fraction_kuhn_simplex(p, n, g):
    """Oracle: the Kuhn cell-and-sort location computed in Fractions."""
    cell, local = [], []
    for c in p:
        scaled = c * g
        i = min(scaled.numerator // scaled.denominator, g - 1)
        cell.append(i)
        local.append(scaled - i)
    order = sorted(range(n), key=lambda j: (-local[j], j))
    verts = [tuple(cell)]
    cur = list(cell)
    for axis in order:
        cur[axis] += 1
        verts.append(tuple(cur))
    sorted_local = [local[j] for j in order] + [F(0)]
    weights = [1 - sorted_local[0]]
    weights += [sorted_local[t] - sorted_local[t + 1] for t in range(n)]
    return verts, weights


@st.composite
def cube_points(draw, n, g):
    """Points of [0,1]^n with mixed denominators, the faces 0 and 1, and
    coordinates whose local coordinate in the 1/g grid ties an earlier one."""
    p = []
    for _ in range(n):
        if p and draw(st.booleans()):
            c = draw(st.sampled_from(p))
            i = min((c * g).__floor__(), g - 1)
            p.append((draw(st.integers(0, g - 1)) + c * g - i) / g)
        else:
            p.append(draw(st.one_of(
                st.sampled_from([F(0), F(1)]),
                st.builds(lambda a, d: F(a % (d + 1), d), st.integers(0, 12), st.integers(1, 12)),
            )))
    return tuple(p)


@cache
def kuhn_cube(n, g):
    return kuhn_triangulate_cube(n, g)


class TestIntegerLocation:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 5), g=st.sampled_from((1, 2, 3, 5, 7)))
    def test_matches_fraction_formula(self, data, n, g):
        p = data.draw(cube_points(n, g))
        verts, weights = fraction_kuhn_simplex(p, n, g)
        nums, res = common_numerators(p)
        got_verts, got_weights = kuhn_simplex(nums, res, n, g)
        assert got_verts == verts
        assert [F(w, res) for w in got_weights] == weights
        assert realized(KuhnWidthPipeline(n, 2, g).locate_flag(*common_numerators(p)), g) == p


def segment_target():
    K = SimplicialComplex.from_maximal([1, 2], [[1, 2]])
    coords = {1: (F(1), F(0)), 2: (F(0), F(1))}
    return realize(K, coords)


class TestEvalSimplicialMap:
    def test_vertex_goes_to_image(self):
        f = {"a": 1, "b": 1, "c": 2}
        x = BarycentricPoint(frozenset({"a"}), {"a": F(1)})
        assert eval_simplicial_map(f, segment_target(), x) == (F(1), F(0))

    def test_collapsed_edge_midpoint(self):
        f = {"a": 1, "b": 1, "c": 2}
        x = BarycentricPoint(frozenset({"a", "b"}), {"a": F(1, 2), "b": F(1, 2)})
        assert eval_simplicial_map(f, segment_target(), x) == (F(1), F(0))

    def test_barycenter_weights(self):
        f = {"a": 1, "b": 1, "c": 2}
        x = BarycentricPoint(
            frozenset({"a", "b", "c"}), {"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)}
        )
        assert eval_simplicial_map(f, segment_target(), x) == (F(2, 3), F(1, 3))

    def test_missing_vertex(self):
        f = {"a": 1}
        x = BarycentricPoint(frozenset({"a", "b"}), {"a": F(1, 2), "b": F(1, 2)})
        with pytest.raises(PreconditionError, match="missing from map table"):
            eval_simplicial_map(f, segment_target(), x)

    @settings(max_examples=30, deadline=None)
    @given(
        t=st.integers(min_value=0, max_value=8),
        wa=st.integers(min_value=0, max_value=8),
        wb=st.integers(min_value=0, max_value=8),
    )
    def test_affine_on_simplices(self, t, wa, wb):
        f = {"a": 1, "b": 1, "c": 2}
        t = F(t, 8)

        def to_point(wa, wb):
            wa, wb = F(wa, 8), F(wb, 8)
            wc = 1 - wa - wb
            if wc < 0:
                wa, wb, wc = wa / 2, wb / 2, 1 - wa / 2 - wb / 2
            return BarycentricPoint(
                frozenset({"a", "b", "c"}), {"a": wa, "b": wb, "c": wc}
            )

        x, y = to_point(wa, wb), to_point(wb, wa)
        mix = BarycentricPoint(
            frozenset({"a", "b", "c"}),
            {
                v: t * x.weights[v] + (1 - t) * y.weights[v]
                for v in ("a", "b", "c")
            },
        )
        target = segment_target()
        fx, fy = eval_simplicial_map(f, target, x), eval_simplicial_map(f, target, y)
        expected = tuple(t * a + (1 - t) * b for a, b in zip(fx, fy))
        assert eval_simplicial_map(f, target, mix) == expected


def test_affine_dependence_rejected():
    K = SimplicialComplex.from_maximal(["a", "b", "c"], [["a", "b", "c"]])
    coords = {"a": (F(0), F(0)), "b": (F(1), F(1)), "c": (F(2), F(2))}
    with pytest.raises(PreconditionError, match="affinely dependent"):
        realize(K, coords)


def test_affine_dependence_names_the_first_dependent_simplex():
    # both triangles are collinear; in vertex order e, d, c, b, a the
    # canonical first one is {c, d, e}
    K = SimplicialComplex.from_maximal(list("edcba"), [list("abc"), list("cde")])
    coords = {v: (F(i), F(i)) for i, v in enumerate("abcde")}
    expected = sorted(map(repr, "cde"))
    with pytest.raises(PreconditionError, match=re.escape(f"affinely dependent: {expected}")):
        realize(K, coords)


@settings(max_examples=30, deadline=None)
@given(
    count=st.integers(2, 12),
    data=st.data(),
    step=st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
)
def test_one_collinear_translate_among_good_triangles_is_named(count, data, step):
    # `count` disjoint triangles, all translates of one right triangle but
    # one, whose vertices lie on a line: the rank cache keyed by shape must
    # not let the good shape vouch for it
    bad = data.draw(st.integers(0, count - 1))
    coords, facets = {}, []
    for k in range(count):
        a, b, c = (k, "a"), (k, "b"), (k, "c")
        x, y = F(3 * k), F(k % 2)
        coords[a] = (x, y)
        if k == bad:
            coords[b] = (x + step[0], y + step[1])
            coords[c] = (x + 2 * step[0], y + 2 * step[1])
        else:
            coords[b], coords[c] = (x + 1, y), (x, y + 1)
        facets.append([a, b, c])
    K = SimplicialComplex.from_maximal(sorted(coords), facets)
    expected = sorted(map(repr, facets[bad]))
    with pytest.raises(PreconditionError, match=re.escape(f"affinely dependent: {expected}")):
        realize(K, coords)
    good = {v: p for v, p in coords.items() if v[0] != bad}
    realize(full_subcomplex(K, good), good)


def test_subdivided_edge_mesh_and_constructor_arguments():
    # the subdivided edge a - ab - b, with a at (0, 1/3) and b at (1, 0)
    a, b, ab = ("a",), ("b",), ("a", "b")
    K = SimplicialComplex.from_maximal([a, b, ab], [[a, ab], [b, ab]])
    G = realize(K, {a: (F(0), F(1, 3)), b: (F(1), F(0)), ab: (F(1, 2), F(1, 6))})
    assert max_star_mesh(G) == F(1)
    # the constructor takes the complex, its coordinate numerators and their
    # denominator only, so a stray positional norm is refused
    with pytest.raises(TypeError):
        GeometricComplex(G.complex, G.nums, G.den, "l1")


def fraction_rank(vectors):
    """Oracle: rank by Gaussian elimination over Fractions."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def linf_distance(p, q):
    """The l-infinity distance between two realized points."""
    return max((abs(a - b) for a, b in zip(p, q)), default=F(0))


def fraction_star_diameter(G, v):
    """Oracle: the largest pairwise l-infinity Fraction distance between the
    vertices of the simplices that contain v."""
    points = set().union(*(s for s in G.complex.simplices if v in s))
    best = F(0)
    for p, q in combinations([vertex_point(G, u) for u in points], 2):
        d = max(abs(a - b) for a, b in zip(p, q))
        if d > best:
            best = d
    return best


RATIONALS = st.builds(F, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def rational_rows(draw):
    """Up to five rational rows of length 1..4; a row may be a rational
    combination of the earlier ones."""
    d = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if rows and draw(st.booleans()):
            coeffs = [draw(RATIONALS) for _ in rows]
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), F(0)) for j in range(d)])
        else:
            rows.append([draw(RATIONALS) for _ in range(d)])
    return rows


@st.composite
def skewed_kuhn(draw):
    """A small Kuhn triangulation under a random injective rational affine
    map (lower triangular with a nonzero diagonal, sometimes into one more
    dimension), with mixed denominators."""
    n, g = draw(st.sampled_from(((1, 1), (1, 3), (2, 1), (2, 2), (3, 1))))
    K = kuhn_cube(n, g)
    nonzero = RATIONALS.filter(lambda q: q != 0)
    rows = [
        [draw(nonzero) if j == i else draw(RATIONALS) if j < i else F(0) for j in range(n)]
        for i in range(n)
    ]
    if draw(st.booleans()):
        rows.append([draw(RATIONALS) for _ in range(n)])
    shift = [draw(RATIONALS) for _ in rows]
    coords = {
        v: tuple(sum((a * c for a, c in zip(row, p)), b) for row, b in zip(rows, shift))
        for v, p in ((v, vertex_point(K, v)) for v in K.complex.vertices)
    }
    return realize(K.complex, coords)


class TestIntegerGeometry:
    """The integer geometry against the Fraction formulas it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(rows=rational_rows())
    def test_rank_matches_fraction_elimination(self, rows):
        # scaling a row by its common denominator keeps the rank
        assert _rank([common_numerators(r)[0] for r in rows]) == fraction_rank(rows)

    @settings(max_examples=60, deadline=None)
    @given(G=skewed_kuhn())
    def test_numerators_and_star_meshes_match_fraction_formulas(self, G):
        for v in G.complex.vertices:
            assert tuple(F(a, G.den) for a in G.nums[v]) == vertex_point(G, v)
        expected = max(fraction_star_diameter(G, v) for v in G.complex.vertices)
        got = max_star_mesh(G)
        assert type(got) is type(expected) and got == expected

    @settings(max_examples=30, deadline=None)
    @given(G=skewed_kuhn())
    def test_subdivision_coordinates_are_fraction_barycenters(self, G):
        sub = barycentric_subdivide_geometric(G)
        for label in sub.complex.vertices:
            points = [vertex_point(G, v) for v in label]
            barycenter = tuple(sum(col, F(0)) / len(label) for col in zip(*points))
            assert vertex_point(sub, label) == barycenter
            assert tuple(F(a, sub.den) for a in sub.nums[label]) == barycenter

    def test_mesh_and_subdivision_build_only_result_fractions(self, request):
        built = request.getfixturevalue("fraction_count")
        G = kuhn_triangulate_cube(2, 4)
        barycentric_subdivide_geometric(G)
        assert built == []  # both hand integer numerators to the complex
        assert max_star_mesh(G) == F(1, 2)
        assert len(built) == 1  # one per mesh

    @settings(max_examples=40, deadline=None)
    @given(G=skewed_kuhn(), scale=st.integers(1, 4))
    def test_numerator_constructor_matches_rational_constructor(self, G, scale):
        # G was built from rational coordinates; H from numerators over a
        # common denominator that need not be the least
        nums = {v: tuple(scale * a for a in G.nums[v]) for v in G.complex.vertices}
        H = GeometricComplex(G.complex, nums, scale * G.den)
        assert H.ambient_dim == G.ambient_dim
        assert max_star_mesh(H) == max_star_mesh(G)
        for v in G.complex.vertices:
            assert vertex_point(H, v) == vertex_point(G, v)

    @pytest.mark.parametrize("nums, message", [
        ({"a": (0, 0), "b": (2, 0)}, "vertex 'c' has no coordinates"),
        ({"a": (0, 0), "b": (2, 0), "c": (0, 1, 0)}, "coordinate dimensions differ"),
        ({"a": (0, 0), "b": (1, 1), "c": (3, 3)}, "realized simplex is affinely dependent"),
    ])
    def test_numerator_constructor_raises_the_rational_messages(self, nums, message):
        K = SimplicialComplex.from_maximal(["a", "b", "c"], [["a", "b", "c"]])
        coords = {v: tuple(F(a, 2) for a in pt) for v, pt in nums.items()}
        with pytest.raises(PreconditionError, match=message) as rational:
            realize(K, coords)
        with pytest.raises(PreconditionError) as integer:
            GeometricComplex(K, nums, 2)
        assert str(integer.value) == str(rational.value)
