"""Tests for the combinatorial complex module."""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import ceil, comb, floor

import pytest
from hypothesis import given, settings, strategies as st

from meandim.complexes import (
    SimplicialComplex,
    VertexPartition,
    barycentric_subdivide,
    bucket_dimension_bound,
    bucket_of_dimension,
    dimension_buckets,
    full_subcomplex,
)
from meandim.errors import PreconditionError
from meandim.geometry import kuhn_triangulate_cube


def two_simplex():
    return SimplicialComplex.from_maximal(["a", "b", "c"], [["a", "b", "c"]])


def brute_force_flag_count(K, length):
    """Oracle: count chains of `length` mutually distinct nested simplices."""
    simplices = list(K.simplices)
    count = 0
    for combo in combinations(simplices, length):
        chain = sorted(combo, key=len)
        if all(chain[i] < chain[i + 1] for i in range(length - 1)):
            count += 1
    return count


class TestSubdivision:
    def test_two_simplex_counts(self):
        K = two_simplex()
        Kp = barycentric_subdivide(K)
        assert len(Kp.vertices) == 7
        tops = [s for s in Kp.simplices if len(s) == 3]
        assert len(tops) == 6
        # oracle cross-check: flags enumerated independently of the DP
        assert len(Kp.vertices) == brute_force_flag_count(K, 1)
        assert len(tops) == brute_force_flag_count(K, 3)
        assert len([s for s in Kp.simplices if len(s) == 2]) == brute_force_flag_count(K, 2)

    def test_edge_split(self):
        K = SimplicialComplex.from_maximal(["a", "b"], [["a", "b"]])
        Kp = barycentric_subdivide(K)
        assert len(Kp.vertices) == 3
        assert len([s for s in Kp.simplices if len(s) == 2]) == 2

    def test_dimension_preserved(self):
        for K in (two_simplex(), SimplicialComplex.from_maximal(["a", "b"], [["a", "b"]])):
            assert barycentric_subdivide(K).dim == K.dim

    def test_empty_complex_rejected(self):
        with pytest.raises(PreconditionError, match="empty complex"):
            barycentric_subdivide(SimplicialComplex((), frozenset()))

    def test_vertex_labels_are_source_simplices(self):
        K = two_simplex()
        Kp = barycentric_subdivide(K)
        assert set(Kp.vertices) == {K.sorted_simplex(s) for s in K.simplices}


    def test_one_simplex_sizes_sum_fubini_numbers(self):
        # an n-vertex simplex: sum over k of C(n, k) * Fubini(k) chains
        for n, size in ((1, 1), (2, 5), (3, 25), (4, 149), (5, 1_081), (7, 94_585)):
            K = SimplicialComplex.from_maximal(list(range(n)), [list(range(n))])
            assert len(barycentric_subdivide(K).simplices) == size


class TestConstruction:
    def test_from_maximal_keeps_vertex_order_and_isolated_vertices(self):
        K = SimplicialComplex.from_maximal(["c", "a", "b"], [["a", "b"]])
        assert K.vertices == ("c", "a", "b")
        assert frozenset({"c"}) in K.simplices
        assert K.maximal == frozenset({frozenset({"a", "b"}), frozenset({"c"})})


# malformed input to the module's constructors and queries, with the
# PreconditionError message each raises
REFUSALS = {
    "from_maximal empty simplex": (
        lambda: SimplicialComplex.from_maximal(["a"], [["a"], []]),
        "simplices must be nonempty"),
    "from_maximal unknown vertex": (
        lambda: SimplicialComplex.from_maximal(["a", "b"], [["a", "z"]]),
        "unknown vertex"),
    "from_maximal unknown lone vertex": (
        lambda: SimplicialComplex.from_maximal(["a"], [["z"]]),
        "unknown vertex"),
    "from_maximal duplicate vertices": (
        lambda: SimplicialComplex.from_maximal(["a", "b", "a"], [["a", "b"]]),
        "duplicate vertices"),
    "init empty simplex": (
        lambda: SimplicialComplex(("a",), frozenset({frozenset({"a"}), frozenset()})),
        "empty simplex"),
    "init unknown vertex": (
        lambda: SimplicialComplex(("a",), frozenset({frozenset({"a"}), frozenset({"z"})})),
        "unknown vertex"),
    "simplex_key unknown vertex": (
        lambda: two_simplex().simplex_key(frozenset({"a", "z"})),
        "unknown vertex: 'z'"),
    "sorted_simplex unknown vertex": (
        lambda: two_simplex().sorted_simplex(frozenset({"z"})),
        "unknown vertex: 'z'"),
    "bucket_of_dimension m 0": (
        lambda: bucket_of_dimension(0, 2, 0),
        "m must be positive"),
    "bucket_of_dimension below 0": (
        lambda: bucket_of_dimension(-1, 2, 2),
        "dimension out of range"),
    "bucket_of_dimension above dim": (
        lambda: bucket_of_dimension(3, 2, 2),
        "dimension out of range"),
    "bucket_dimension_bound index 0": (
        lambda: bucket_dimension_bound(2, 2, 0),
        "bucket index out of range"),
    "bucket_dimension_bound index past m": (
        lambda: bucket_dimension_bound(2, 2, 3),
        "bucket index out of range"),
    "bucket_dimension_bound negative dimension": (
        lambda: bucket_dimension_bound(-1, 2, 1),
        "dimension out of range"),
    "dimension_buckets m 0": (
        lambda: dimension_buckets(barycentric_subdivide(two_simplex()), 0),
        "m must be positive"),
    "dimension_buckets empty complex": (
        lambda: dimension_buckets(SimplicialComplex((), frozenset()), 2),
        "empty complex"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_malformed_input_is_refused(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


class TestFullSubcomplex:
    def test_empty_selection(self):
        K = two_simplex()
        sub = full_subcomplex(K, [])
        assert sub.dim == -1
        assert sub.vertices == ()

    def test_whole_selection(self):
        K = two_simplex()
        sub = full_subcomplex(K, K.vertices)
        assert sub.simplices == K.simplices

    def test_edge_selection(self):
        K = two_simplex()
        sub = full_subcomplex(K, ["a", "b"])
        assert sub.simplices == frozenset(
            {frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})}
        )

    def test_unknown_vertex(self):
        with pytest.raises(PreconditionError, match="unknown vertex"):
            full_subcomplex(two_simplex(), ["a", "z"])


class TestDimensionBuckets:
    def test_two_simplex_two_buckets(self):
        Kp = barycentric_subdivide(two_simplex())
        P = dimension_buckets(Kp, 2)
        assert full_subcomplex(Kp, P.blocks[0]).dim == 1
        assert full_subcomplex(Kp, P.blocks[1]).dim == 0

    def test_single_bucket_is_everything(self):
        Kp = barycentric_subdivide(two_simplex())
        P = dimension_buckets(Kp, 1)
        assert P.blocks[0] == frozenset(Kp.vertices)

    def test_million_dimension_bounds_without_building(self):
        dim_k, m = 10**6, 1001
        for i in range(1, m + 1):
            assert bucket_dimension_bound(dim_k, m, i) < 1000

    def test_bucket_of_dimension_ranges(self):
        assert bucket_of_dimension(0, 2, 2) == 1
        assert bucket_of_dimension(1, 2, 2) == 1
        assert bucket_of_dimension(2, 2, 2) == 2

    def test_integer_buckets_match_the_fraction_formulas(self):
        for dim_k in range(13):
            for m in range(1, 13):
                for d in range(dim_k + 1):
                    expected = max(1, ceil(Fraction(d * m, dim_k))) if dim_k else 1
                    assert bucket_of_dimension(d, dim_k, m) == expected
                floors = [floor(Fraction(i * dim_k, m)) for i in range(m + 1)]
                assert bucket_dimension_bound(dim_k, m, 1) == floors[1]
                for i in range(2, m + 1):
                    expected = floors[i] - floors[i - 1] - 1
                    assert bucket_dimension_bound(dim_k, m, i) == expected


# hypothesis strategy: small random complexes from random maximal simplices
@st.composite
def random_complexes(draw, max_vertices=6, max_facets=5):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    verts = list(range(n))
    facets = draw(
        st.lists(
            st.lists(st.sampled_from(verts), min_size=1, max_size=min(n, 5), unique=True),
            min_size=1,
            max_size=max_facets,
        )
    )
    return SimplicialComplex.from_maximal(verts, facets)


@cache
def fubini(n):
    """Ordered set partitions of n things: the strict chains of nonempty
    subsets of an n-set that end at the whole set."""
    return 1 if n == 0 else sum(comb(n, k) * fubini(n - k) for k in range(1, n + 1))


@settings(max_examples=60, deadline=None)
@given(K=random_complexes())
def test_subdivision_size_sums_fubini_numbers(K):
    assert len(barycentric_subdivide(K).simplices) == sum(
        fubini(len(s)) for s in K.simplices
    )


@settings(max_examples=60, deadline=None)
@given(K=random_complexes())
def test_constructors_stay_downward_closed(K):
    for built in (
        barycentric_subdivide(K),
        full_subcomplex(K, K.vertices[: max(1, len(K.vertices) // 2)]),
    ):
        for s in built.simplices:
            if len(s) > 1:
                for v in s:
                    assert s - {v} in built.simplices


@settings(max_examples=60, deadline=None)
@given(K=random_complexes())
def test_subdivision_dimension_and_vertex_count(K):
    Kp = barycentric_subdivide(K)
    assert Kp.dim == K.dim
    assert len(Kp.vertices) == len(K.simplices)


@settings(max_examples=60, deadline=None)
@given(K=random_complexes(), data=st.data())
def test_full_subcomplex_monotone_in_selection(K, data):
    A = set(data.draw(st.lists(st.sampled_from(list(K.vertices)), unique=True)))
    B = set(data.draw(st.lists(st.sampled_from(list(K.vertices)), unique=True)))
    inner = full_subcomplex(K, A & B)
    outer = full_subcomplex(K, A)
    assert inner.simplices <= outer.simplices


@settings(max_examples=40, deadline=None)
@given(K=random_complexes(max_vertices=5, max_facets=4), m=st.integers(min_value=1, max_value=5))
def test_bucket_partition_and_dimension_bounds(K, m):
    Kp = barycentric_subdivide(K)
    P = dimension_buckets(Kp, m)
    P.validate_covers(Kp.vertices)
    assert P.m == m
    for i, block in enumerate(P.blocks, start=1):
        d = full_subcomplex(Kp, block).dim
        assert d <= bucket_dimension_bound(K.dim, m, i)
        if i == 1:
            assert d <= Fraction(K.dim, m)
        else:
            assert d < Fraction(K.dim, m) or d == -1


@settings(max_examples=60, deadline=None)
@given(K=random_complexes())
def test_maximal_simplices_match_brute_force(K):
    for built in (K, barycentric_subdivide(K)):
        expected = [
            s for s in built.iter_simplices() if not any(s < t for t in built.simplices)
        ]
        assert built.maximal == frozenset(expected)


def brute_force_closure(vertices, family):
    """Oracle: whether the family holds every vertex's singleton and every
    nonempty proper subset of each member, and its members that lie in no
    other member."""
    closed = all(frozenset({v}) in family for v in vertices) and all(
        frozenset(sub) in family
        for s in family
        for r in range(1, len(s))
        for sub in combinations(s, r)
    )
    return closed, frozenset(s for s in family if not any(s < t for t in family))


MIXED_VERTICES = (3, "b", (0, "a"), 1, "a", (1,), 0, ("c", 2))


@st.composite
def mixed_vertex_complexes(draw):
    """A small complex on shuffled int, str and tuple vertices: K's vertex
    order is not their natural order, which Python cannot even compare."""
    verts = draw(st.permutations(MIXED_VERTICES))[: draw(st.integers(1, 6))]
    facet = st.lists(st.sampled_from(verts), min_size=1, max_size=4, unique=True)
    return SimplicialComplex.from_maximal(verts, draw(st.lists(facet, min_size=1, max_size=3)))


def brute_force_flag_complex(K):
    """Oracle: every strict inclusion chain of K's simplices, grown one
    strict superset at a time, as the set of its simplices' labels."""
    simplices = sorted(K.simplices, key=len)
    chains = set()

    def grow(chain, rest):
        chains.add(frozenset(map(K.sorted_simplex, chain)))
        for i, s in enumerate(rest):
            if chain[-1] < s:
                grow(chain + [s], rest[i + 1:])

    for i, s in enumerate(simplices):
        grow([s], simplices[i + 1:])
    return frozenset(chains)


@settings(max_examples=60, deadline=None)
@given(K=mixed_vertex_complexes())
def test_subdivision_is_the_flag_complex_of_labelled_chains(K):
    Kp = barycentric_subdivide(K)
    assert Kp.simplices == brute_force_flag_complex(K)
    assert Kp.vertices == tuple(map(K.sorted_simplex, K.iter_simplices()))
    # labels nest in the second subdivision
    assert barycentric_subdivide(Kp).simplices == brute_force_flag_complex(Kp)


@st.composite
def vertex_families(draw, max_vertices=5):
    """Vertices 0..n-1 and any family of nonempty subsets of them."""
    verts = tuple(range(draw(st.integers(1, max_vertices))))
    members = st.frozensets(st.sampled_from(verts), min_size=1)
    return verts, draw(st.frozensets(members, max_size=12))


@settings(max_examples=200, deadline=None)
@given(family=vertex_families())
def test_closure_verdict_and_maximal_match_brute_force_on_any_family(family):
    verts, simplices = family
    closed, maximal = brute_force_closure(verts, simplices)
    if closed:
        assert SimplicialComplex(verts, simplices).maximal == maximal
    else:
        with pytest.raises(PreconditionError):
            SimplicialComplex(verts, simplices)


@settings(max_examples=200, deadline=None)
@given(K=random_complexes(), data=st.data())
def test_closure_after_deleting_one_simplex_matches_brute_force(K, data):
    family = K.simplices
    removed = None
    if data.draw(st.booleans(), label="delete"):
        removed = data.draw(st.sampled_from(K.iter_simplices()), label="removed")
        family = family - {removed}
    closed, maximal = brute_force_closure(K.vertices, family)
    if closed:
        assert SimplicialComplex(K.vertices, family).maximal == maximal
        return
    # a face of a remaining simplex breaks closure; a lone vertex's own
    # singleton is reported as missing
    lone = not any(removed < t for t in family)
    message = "missing singleton simplex" if lone else "not downward closed"
    with pytest.raises(PreconditionError, match=message):
        SimplicialComplex(K.vertices, family)


def test_lone_vertex_without_its_singleton_is_a_missing_singleton():
    K = SimplicialComplex.from_maximal(["a", "b", "c"], [["a", "b"], ["c"]])
    with pytest.raises(PreconditionError, match="missing singleton simplex"):
        SimplicialComplex(K.vertices, K.simplices - {frozenset({"c"})})
    with pytest.raises(PreconditionError, match="not downward closed"):
        SimplicialComplex(K.vertices, K.simplices - {frozenset({"a"})})


@pytest.mark.parametrize("m", (1, 2, 3, 4))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_dimension_buckets_match_per_simplex_buckets(n, m):
    K = kuhn_triangulate_cube(n, 2).complex
    expected = [set() for _ in range(m)]
    for s in K.simplices:
        expected[bucket_of_dimension(len(s) - 1, K.dim, m) - 1].add(K.sorted_simplex(s))
    assert dimension_buckets(barycentric_subdivide(K), m).blocks == tuple(map(frozenset, expected))


@cache
def subdivided_cube(n, g):
    return barycentric_subdivide(kuhn_triangulate_cube(n, g).complex)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from((1, 2)), g=st.sampled_from((1, 2)), data=st.data())
def test_removing_any_non_maximal_face_breaks_closure(n, g, data):
    K = subdivided_cube(n, g)
    face = data.draw(st.sampled_from([s for s in K.iter_simplices() if s not in K.maximal]))
    with pytest.raises(PreconditionError, match="not downward closed"):
        SimplicialComplex(K.vertices, K.simplices - {face})


def test_partition_rejects_overlap():
    with pytest.raises(PreconditionError):
        VertexPartition((frozenset({1, 2}), frozenset({2, 3})))
