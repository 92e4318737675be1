"""Finite abstract simplicial complexes and purely combinatorial constructions.

A complex stores its full downward-closed simplex family explicitly (not
maximal faces only), so subcomplex and star queries are plain set filters.
Desk-scale sizes make this affordable. All operations are pure, and
instances are immutable.

Construction checks downward closure by visiting every facet of every
simplex of three or more vertices once. An edge's facets are its vertices'
singletons, which the check that every vertex has its singleton covers;
a vertex on an edge without its singleton is reported as a closure fault.
The same loop records which simplices are maximal (an edge's vertices
leave that set in one step), so the affine check of a realization reads
that set instead of walking the family again. `from_maximal` closes a
family in one loop from the vertex singletons; the constructor checks it.
Dimension buckets read a subdivision's vertex labels, whose lengths are
their source simplices' sizes, and bucket them in integer arithmetic.
widthmaps._cube_grid checks widthmaps.SIZE_BUDGET, a bound on a recipe's
estimated top simplices, before a cube width map is built or counted.
"""

from __future__ import annotations

from itertools import combinations

from .errors import FrozenStruct, PreconditionError


class SimplicialComplex(FrozenStruct):
    """Vertex tuple (ordered, unique) plus a downward-closed family of simplices.

    Every vertex appears as a singleton simplex; dim of the empty complex
    is -1 by convention. `maximal` is the set of simplices that are no
    proper face of another, recorded by the downward-closure check.
    """

    _fields = ("vertices", "simplices")

    def __init__(self, vertices: tuple, simplices: frozenset):
        seen = set(vertices)
        if len(seen) != len(vertices):
            raise PreconditionError("duplicate vertices")
        maximal = set(simplices)  # each facet met below is dropped
        on_edges = set()
        for s in simplices:
            if not s:
                raise PreconditionError("empty simplex")
            if not s <= seen:
                raise PreconditionError("unknown vertex")
            if len(s) > 2:
                for v in s:
                    facet = s - {v}
                    if facet not in simplices:
                        raise PreconditionError("simplex family is not downward closed")
                    maximal.discard(facet)
            elif len(s) == 2:
                on_edges |= s
        # an edge's facets are its vertices' singletons, checked here
        for v in vertices:
            if frozenset({v}) not in simplices:
                if v in on_edges:
                    raise PreconditionError("simplex family is not downward closed")
                raise PreconditionError("missing singleton simplex")
        maximal.difference_update(frozenset({v}) for v in on_edges)
        # every proper face lies in a facet, so what is left is maximal
        self.__dict__.update(
            vertices=vertices, simplices=simplices, maximal=frozenset(maximal)
        )

    @classmethod
    def from_maximal(cls, vertices, maximal_simplices) -> "SimplicialComplex":
        """The downward closure of the given simplices, on `vertices`."""
        vertices = tuple(vertices)
        closed = {frozenset({v}) for v in vertices}
        for s in maximal_simplices:
            s = frozenset(s)
            if not s:
                raise PreconditionError("simplices must be nonempty")
            for r in range(1, len(s) + 1):
                closed.update(map(frozenset, combinations(s, r)))
        return cls(vertices, frozenset(closed))

    @property
    def dim(self) -> int:
        if not self.simplices:
            return -1
        return max(map(len, self.simplices)) - 1

    def _vertex_indices(self) -> dict:
        idx = self.__dict__.get("_vindex")
        if idx is None:
            idx = {u: i for i, u in enumerate(self.vertices)}
            object.__setattr__(self, "_vindex", idx)
        return idx

    def simplex_key(self, s):
        try:
            return len(s), tuple(sorted(map(self._vertex_indices().__getitem__, s)))
        except KeyError as exc:
            raise PreconditionError(f"unknown vertex: {exc.args[0]!r}") from None

    def sorted_simplex(self, s) -> tuple:
        try:
            return tuple(sorted(s, key=self._vertex_indices().__getitem__))
        except KeyError as exc:
            raise PreconditionError(f"unknown vertex: {exc.args[0]!r}") from None

    def iter_simplices(self):
        """Simplices ordered by size then vertex indices; faces precede cofaces."""
        return sorted(self.simplices, key=self.simplex_key)



class VertexPartition(FrozenStruct):
    """Disjoint vertex blocks; empty blocks are permitted."""

    _fields = ("blocks",)

    def __init__(self, blocks: tuple):
        seen = set()
        for block in blocks:
            if seen & set(block):
                raise PreconditionError("partition blocks overlap")
            seen |= set(block)
        self.__dict__.update(blocks=blocks)

    @property
    def m(self) -> int:
        return len(self.blocks)

    def validate_covers(self, vertices):
        union = set()
        for block in self.blocks:
            union |= set(block)
        if union != set(vertices):
            raise PreconditionError("partition does not cover the vertex set")


def barycentric_subdivide(K: SimplicialComplex) -> SimplicialComplex:
    """Flag complex of K: one vertex per simplex, one simplex per strict chain.

    Subdivision vertices are labeled by their source simplex as a tuple
    sorted in K's vertex order, giving canonical hashable identifiers that
    stay stable across repeated subdivision.
    """
    if not K.simplices:
        raise PreconditionError("empty complex")
    vertices = tuple(map(K.sorted_simplex, K.iter_simplices()))

    # the chains ending at each simplex, as frozensets of labels, keyed by
    # label; combinations of a label are its faces' labels (every subset is a
    # face by downward closure, and combinations keep K's vertex order)
    ending_at = {}
    for label in vertices:
        top = frozenset((label,))
        ending_at[label] = [top] + [
            chain | top
            for r in range(1, len(label))
            for face in combinations(label, r)
            for chain in ending_at[face]
        ]
    return SimplicialComplex(vertices, frozenset().union(*ending_at.values()))


def full_subcomplex(K: SimplicialComplex, A) -> SimplicialComplex:
    """K(A): all simplices of K with every vertex in A. K(empty) is empty."""
    A = set(A)
    if not A <= set(K.vertices):
        raise PreconditionError("unknown vertex")
    vertices = tuple(v for v in K.vertices if v in A)
    simplices = frozenset(filter(A.issuperset, K.simplices))
    return SimplicialComplex(vertices, simplices)


def bucket_of_dimension(d: int, dim_k: int, m: int) -> int:
    """1-based dimension bucket: bucket i covers ((i-1)*dim_k/m, i*dim_k/m],
    with bucket 1 also taking everything at or below dim_k/m."""
    if m < 1:
        raise PreconditionError("m must be positive")
    if d < 0 or d > dim_k:
        raise PreconditionError("dimension out of range")
    if dim_k == 0:
        return 1
    return max(1, -(-d * m // dim_k))


def bucket_dimension_bound(dim_k: int, m: int, i: int) -> int:
    """Largest possible dimension of the bucket-i full subcomplex of the
    subdivision, by the strict-chain length argument. -1 for an empty bucket."""
    if not 1 <= i <= m:
        raise PreconditionError("bucket index out of range")
    if dim_k < 0:
        raise PreconditionError("dimension out of range")
    if i == 1:
        return dim_k // m
    return i * dim_k // m - (i - 1) * dim_k // m - 1


def dimension_buckets(Kp: SimplicialComplex, m: int) -> VertexPartition:
    """Partition the vertices of a barycentric subdivision Kp of K by the
    dimension of their source simplex. A vertex label is its source simplex
    as a tuple (see barycentric_subdivide), so its length gives the
    dimension, and the longest label gives dim(K). Block 1 keeps the
    subcomplex dimension at or below dim(K)/m and every later block stays
    strictly below it."""
    if m < 1:
        raise PreconditionError("m must be positive")
    if not Kp.vertices:
        raise PreconditionError("empty complex")
    dim_k = max(map(len, Kp.vertices)) - 1
    # a label's bucket depends only on its length: one lookup table
    by_size = [None] + [bucket_of_dimension(d, dim_k, m) - 1 for d in range(dim_k + 1)]
    blocks = [set() for _ in range(m)]
    for label in Kp.vertices:
        blocks[by_size[len(label)]].add(label)
    return VertexPartition(tuple(frozenset(b) for b in blocks))
