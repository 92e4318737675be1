"""Geometric realizations with exact rational coordinates.

Everything is computed in exact arithmetic so certificate premises (star
meshes, containment, affine evaluation) are decided without floating
tolerances. Every complex is measured in the l-infinity norm, the metric of
the cube fibers that the width maps certify; distances are Fractions.

A GeometricComplex is built from, and stores, its coordinates only as
integer numerators over one common denominator, not necessarily the least;
the Kuhn triangulation and barycentric subdivision build them without a
Fraction. The affine-independence check, the star mesh and subdivision
run on those integers; a Fraction is built only for the mesh. The affine
check visits the maximal simplices that the combinatorial complex
recorded, and computes one rank per simplex shape, since translates share
their edge vectors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm
from operator import sub

from .complexes import SimplicialComplex, barycentric_subdivide
from .errors import FrozenStruct, PreconditionError


def _rank(rows) -> int:
    """Exact rank of integer rows by fraction-free (Bareiss) elimination.

    Every entry stays an integer: after k pivots an entry is a (k+1)-minor
    of the input, so the division by the previous pivot is exact.
    """
    rows = [list(r) for r in rows]
    rank = 0
    previous = 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        a = top[col]
        for r in range(rank + 1, len(rows)):
            b = rows[r][col]
            rows[r] = [(a * x - b * y) // previous for x, y in zip(rows[r], top)]
        previous = a
        rank += 1
    return rank


class GeometricComplex(FrozenStruct):
    """A simplicial complex with rational vertex coordinates, measured in the
    l-infinity norm. `nums[v]` holds v's coordinates as integer numerators
    over `den`, a common denominator, not necessarily the least.
    """

    _fields = ("complex", "nums", "den")

    def __init__(self, complex: SimplicialComplex, nums: dict, den: int):
        self.__dict__.update(complex=complex, nums=nums, den=den)
        for v in complex.vertices:
            if v not in nums:
                raise PreconditionError(f"vertex {v!r} has no coordinates")
        if len({len(nums[v]) for v in complex.vertices}) > 1:
            raise PreconditionError("coordinate dimensions differ")
        # a face of an affinely independent simplex is independent, so only
        # maximal simplices are checked. The rank depends only on the
        # simplex's shape: edge vectors from its lexicographically least
        # vertex, in sorted order, are the same for every translate.
        ranks = {}
        dependent = []
        for s in complex.maximal:
            if len(s) > 1:
                base, *rest = sorted(map(nums.__getitem__, s))
                rows = tuple([tuple(map(sub, p, base)) for p in rest])
                rank = ranks.get(rows)
                if rank is None:
                    rank = ranks[rows] = _rank(rows)
                if rank != len(rows):
                    dependent.append(s)
        if dependent:
            s = min(dependent, key=complex.simplex_key)
            raise PreconditionError(
                f"realized simplex is affinely dependent: {sorted(map(repr, s))}"
            )

    @property
    def ambient_dim(self) -> int:
        return len(self.nums[self.complex.vertices[0]]) if self.complex.vertices else 0


def max_star_mesh(G: GeometricComplex):
    """The largest closed-star diameter. The norm's maximum over a union of
    convex hulls is attained at realization vertices, so a star's diameter
    is the largest coordinate range of its vertices: its center and the
    center's neighbors along edges (the family is downward closed)."""
    stars = {v: [G.nums[v]] for v in G.complex.vertices}
    for s in G.complex.simplices:
        if len(s) == 2:
            a, b = s
            stars[a].append(G.nums[b])
            stars[b].append(G.nums[a])
    best = max(
        (max(col) - min(col) for points in stars.values() for col in zip(*points)), default=0
    )
    return Fraction(best, G.den)


def barycentric_subdivide_geometric(G: GeometricComplex) -> GeometricComplex:
    """Subdivide combinatorially; each new vertex sits at its source simplex's
    coordinate average: scale / len(label) times its label's column sums,
    over scale * G.den, with scale = lcm(1, ..., dim + 1)."""
    Kp = barycentric_subdivide(G.complex)
    scale = lcm(*range(1, G.complex.dim + 2))
    nums = {}
    for label in Kp.vertices:
        factor = scale // len(label)
        nums[label] = tuple([sum(col) * factor for col in zip(*map(G.nums.get, label))])
    return GeometricComplex(Kp, nums, scale * G.den)


def kuhn_triangulate_cube(n: int, g: int) -> GeometricComplex:
    """Triangulate the unit n-cube on the uniform 1/g grid.

    Each grid cell splits into n! simplices along coordinate-order chains.
    Vertices are integer grid tuples with coordinates i/g; the l-infinity
    star mesh is min(1, 2/g).
    """
    if not 1 <= n <= 6:
        raise PreconditionError("cube dimension out of range (1..6)")
    if g < 1:
        raise PreconditionError("grid resolution must be positive")
    maximal = []
    cells = [()]
    for _ in range(n):
        cells = [c + (i,) for c in cells for i in range(g)]
    for corner in cells:
        for perm in permutations(range(n)):
            chain = [corner]
            cur = list(corner)
            for axis in perm:
                cur[axis] += 1
                chain.append(tuple(cur))
            maximal.append(chain)
    verts = sorted({v for s in maximal for v in s})
    K = SimplicialComplex.from_maximal(verts, maximal)
    return GeometricComplex(K, dict(zip(verts, verts)), g)


def common_numerators(p):
    """Integer numerators of the rational point p over one common
    resolution, the lcm of its coordinates' denominators: (nums, res)."""
    res = 1
    for c in p:
        res = lcm(res, c.denominator)
    return [c.numerator * (res // c.denominator) for c in p], res


def kuhn_location(nums, res: int, n: int, g: int):
    """Closed-form location on the Kuhn triangulation of the unit n-cube on
    the 1/g grid, for the point with coordinates nums[i]/res: the corner of
    the grid cell that holds it, the axes in the order the containing
    simplex's vertex chain steps along them, and the point's barycentric
    weights in chain order, as integer numerators over res. Ties resolve
    toward the lexicographically smallest admissible simplex."""
    if len(nums) != n or any(c < 0 or c > res for c in nums):
        raise PreconditionError("not in complex")
    cell = [c * g // res if c < res else g - 1 for c in nums]  # 1 lies in the top cell
    local = [c * g - i * res for c, i in zip(nums, cell)]  # in the cell, over res
    # decreasing local coordinate; the stable sort keeps ties in axis order
    order = sorted(range(n), key=local.__getitem__, reverse=True)
    sorted_local = [local[j] for j in order] + [0]
    weights = [res - sorted_local[0]]
    weights += [sorted_local[t] - sorted_local[t + 1] for t in range(n)]
    return cell, order, weights


def kuhn_simplex(nums, res: int, n: int, g: int):
    """kuhn_location's simplex as its vertex chain (grid tuples, cell
    corner first), with the weights in chain order."""
    cell, order, weights = kuhn_location(nums, res, n, g)
    verts = [tuple(cell)]
    cur = list(cell)
    for axis in order:
        cur[axis] += 1
        verts.append(tuple(cur))
    return verts, weights
