"""Subshifts of finite type, cylinder-set algebra, orbit capacity, the dyadic
odometer tower, and window metrics for shift spaces.

Orbit capacity is computed exactly: the finite-horizon value by dynamic
programming over the transition graph of window words, the limit value as the
best cycle mean of that graph (the finite values are sub-additive, so the
limit is their infimum and equals the best cycle mean). The visit weights are
0 or 1, so Karp's walk rows and the potentials that find a critical cycle are
integers; the optimal mean is the only Fraction built per component. The
visit DP and Karp's search both step a max-plus map one row at a time and stop
once the row repeats one of O(log steps) kept rows up to an added constant
(see _iterate_until_repeat). Each component's graph is renumbered once, and
Karp's search and the critical-cycle search both run on it; a computed mean
that no cycle attains raises a FAILED critical-cycle-mean record.
The window metric d_N takes its maximum over shifts on integer numerators in
one pass and builds one Fraction, its value on the common window.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .certificates import FAILED, structural_record
from .errors import (
    BudgetExceededError,
    FrozenStruct,
    InsufficientWindowError,
    ObligationFailedError,
    PreconditionError,
    Value,
)

# the most words Sft.words materializes at any length, and the longest window
# it accepts; the benchmark's word graphs have a few hundred nodes
WORD_BUDGET = 4096
# the most DP steps times word-graph edges max_subsampled_visits runs; the
# benchmark's ocap --N 512 on graphs of about 530 edges needs about 2.7e5
HORIZON_BUDGET = 10**7


class Sft(FrozenStruct):
    """A subshift of finite type given by its allowed adjacent symbol pairs.

    The transition graph must be essential (every symbol has an outgoing and
    an incoming transition), so every finite word of the language extends to
    a bi-infinite point.
    """

    _fields = ("alphabet", "transitions")

    def __init__(self, alphabet: tuple, transitions: frozenset):
        symbols = set(alphabet)
        if len(symbols) != len(alphabet) or not symbols:
            raise PreconditionError("alphabet must be nonempty without duplicates")
        for a, b in transitions:
            if a not in symbols or b not in symbols:
                raise PreconditionError("transition uses unknown symbol")
        outgoing = {a for a, _ in transitions}
        incoming = {b for _, b in transitions}
        if outgoing != symbols or incoming != symbols:
            raise PreconditionError(
                "graph is not essential: every symbol needs an outgoing and an incoming transition"
            )
        self.__dict__.update(alphabet=alphabet, transitions=transitions)

    def words(self, length: int) -> tuple:
        """Language words of the given length, sorted."""
        return tuple(self.word_index(length))

    def word_index(self, length: int) -> dict:
        """The sorted language words of the given length, each mapped to its
        position; cached per length. Every word graph and cylinder set is built
        from these words, so a length above WORD_BUDGET, or more than
        WORD_BUDGET words at this length or on the way to it, raises
        BudgetExceededError instead of exhausting memory.
        """
        if length < 0:
            raise PreconditionError("length must be nonnegative")
        if length > WORD_BUDGET:
            raise BudgetExceededError(
                f"window of {length} symbols exceeds the word budget {WORD_BUDGET}"
            )
        cache = self.__dict__.setdefault("_words_cache", {})
        if length not in cache:
            symbols = sorted(self.alphabet, key=repr)
            result = [()]
            for step in range(1, length + 1):
                result = [
                    w + (b,)
                    for w in result
                    for b in symbols
                    if not w or (w[-1], b) in self.transitions
                ]
                if len(result) > WORD_BUDGET:
                    raise BudgetExceededError(
                        f"{len(result)} words of length {step} exceed the word "
                        f"budget {WORD_BUDGET}"
                    )
            cache[length] = {w: i for i, w in enumerate(sorted(result, key=repr))}
        return cache[length]

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "transitions": sorted([a, b] for a, b in self.transitions),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Sft":
        return cls(
            tuple(data["alphabet"]),
            frozenset((a, b) for a, b in data["transitions"]),
        )


class CylinderSet(FrozenStruct):
    """A clopen set: all points whose window restriction lies in `words`.

    A zero-length window encodes the whole space (words == {()}) or the empty
    set (words == frozenset()). Construction intersects the stated words with
    the language, so the representation is always language-consistent.
    """

    _fields = ("sft", "offset", "length", "words")

    def __init__(self, sft: Sft, offset: int, length: int, words: frozenset):
        if not sft.word_index(length).keys() >= words:
            raise PreconditionError("cylinder word outside the language")
        self.__dict__.update(sft=sft, offset=offset, length=length, words=words)

    @classmethod
    def whole(cls, sft: Sft) -> "CylinderSet":
        return cls(sft, 0, 0, frozenset({()}))

    @classmethod
    def from_constraints(cls, sft: Sft, constraints) -> "CylinderSet":
        """Intersection of (offset, word) constraints, such as a JSON list of
        [offset, word] pairs. An offset must be an integer: a float, a string
        or a boolean is refused, not truncated or parsed. A word is a list or
        tuple of symbols, or a string of one-character symbols; any other
        word, and a symbol outside the alphabet, is refused."""
        parsed = []
        for offset, word in constraints:
            if not isinstance(offset, int) or isinstance(offset, bool):
                raise PreconditionError(f"cylinder offset must be an integer, not {offset!r}")
            if not isinstance(word, (list, tuple, str)):
                raise PreconditionError(
                    f"cylinder word must be a list of symbols or a string, not {word!r}"
                )
            for symbol in word:
                if symbol not in sft.alphabet:
                    raise PreconditionError(f"cylinder symbol {symbol!r} is not in the alphabet")
            parsed.append((offset, tuple(word)))
        if not parsed:
            return cls.whole(sft)
        lo = min(o for o, _ in parsed)
        hi = max(o + len(w) for o, w in parsed)
        words = []
        for w in sft.words(hi - lo):
            if all(
                w[o - lo : o - lo + len(req)] == req for o, req in parsed
            ):
                words.append(w)
        return cls(sft, lo, hi - lo, frozenset(words))

    @property
    def is_empty(self) -> bool:
        return not self.words

    def refine(self, lo: int, hi: int) -> "CylinderSet":
        """The same set presented on the window [lo, hi)."""
        if self.length and (lo > self.offset or hi < self.offset + self.length):
            lo = min(lo, self.offset)
            hi = max(hi, self.offset + self.length)
        if lo == self.offset and hi - lo == self.length:
            return self
        shift = self.offset - lo
        words = frozenset(
            w
            for w in self.sft.words(hi - lo)
            if w[shift : shift + self.length] in self.words
        )
        return CylinderSet(self.sft, lo, hi - lo, words)

    def _common(self, other: "CylinderSet"):
        if self.sft is not other.sft and self.sft.to_json_dict() != other.sft.to_json_dict():
            raise PreconditionError("cylinder sets live on different subshifts")
        windows = [
            (c.offset, c.offset + c.length) for c in (self, other) if c.length
        ]
        if not windows:
            lo, hi = 0, 1
        else:
            lo = min(w[0] for w in windows)
            hi = max(w[1] for w in windows)
        return self.refine(lo, hi), other.refine(lo, hi)

    def union(self, other: "CylinderSet") -> "CylinderSet":
        a, b = self._common(other)
        return CylinderSet(a.sft, a.offset, a.length, a.words | b.words)

    def intersection(self, other: "CylinderSet") -> "CylinderSet":
        a, b = self._common(other)
        return CylinderSet(a.sft, a.offset, a.length, a.words & b.words)

    def difference(self, other: "CylinderSet") -> "CylinderSet":
        a, b = self._common(other)
        return CylinderSet(a.sft, a.offset, a.length, a.words - b.words)

    def complement(self) -> "CylinderSet":
        window = self if self.length else self.refine(0, 1)
        all_words = frozenset(self.sft.words(window.length))
        return CylinderSet(
            self.sft, window.offset, window.length, all_words - window.words
        )

    def contains_point(self, x: WindowSeq, shift: int = 0) -> bool:
        """Membership of the time-`shift` iterate of the point x."""
        if not self.length:
            return bool(self.words)
        lo = self.offset + shift
        return x.restrict(lo, lo + self.length) in self.words

    def indicator_words(self):
        """(length, word set) with length >= 1, for graph weighting."""
        if self.length:
            return self.length, self.words
        refined = self.refine(0, 1)
        return 1, refined.words

    def to_json(self):
        return {
            "offset": self.offset,
            "words": sorted("".join(map(str, w)) for w in self.words),
        }


# ---------------------------------------------------------------------------
# orbit capacity
# ---------------------------------------------------------------------------


class OcapResult(Value):
    _fields = ("value", "witness", "graph_size")

    def __init__(self, value: Fraction, witness: tuple, graph_size: int):
        self.__dict__.update(value=value, witness=witness, graph_size=graph_size)


def _word_graph(sft: Sft, length: int):
    index = sft.word_index(length)  # nonempty: the graph is essential
    words = tuple(index)
    succs = [[] for _ in words]
    symbols = sorted(sft.alphabet, key=repr)
    for i, w in enumerate(words):
        for b in symbols:
            if (w[-1], b) in sft.transitions:
                succs[i].append(index[w[1:] + (b,)])
    return words, succs


def _recode(sft: Sft, A: CylinderSet):
    length, hit = A.indicator_words()
    words, succs = _word_graph(sft, length)
    weights = [1 if w in hit else 0 for w in words]
    return words, succs, weights


def ocap_finite_N(sft: Sft, A: CylinderSet, N: int) -> Fraction:
    """(1/N) times the exact maximum number of visits to A along length-N
    orbit segments."""
    return Fraction(max_subsampled_visits(sft, A, N, 1), N)


def max_subsampled_visits(sft: Sft, A: CylinderSet, count: int, step: int) -> int:
    """Exact maximum of visits to A at times 0, step, ..., (count-1)*step, by
    dynamic programming over window words. A horizon whose DP steps times
    the graph's edges exceed HORIZON_BUDGET raises BudgetExceededError
    before any step runs.

    The DP row after m macro-steps (step - 1 unweighted relaxations, then one
    that adds the visit weights) holds, per word, the most visits of a path
    ending there. A macro-step is a max-plus map, and max-plus maps are
    homogeneous: M(x + K) = M(x) + K. So once a row equals an earlier row,
    c macro-steps back, plus a constant K (with the same None pattern), every
    later row repeats with period c and gains K per period. The search keeps
    O(log count) earlier rows to compare with (see _iterate_until_repeat).
    The DP then runs only (left % c) of the `left` remaining macro-steps and
    adds (left // c) * K. Without a repeat it runs all count - 1 macro-steps.
    """
    if count < 1 or step < 1:
        raise PreconditionError("count and step must be positive")
    words, succs, weights = _recode(sft, A)
    steps, edges = (count - 1) * step, sum(map(len, succs))
    if steps * edges > HORIZON_BUDGET:
        raise BudgetExceededError(
            f"{steps} DP steps on a graph of {edges} edges exceed the horizon "
            f"budget {HORIZON_BUDGET}"
        )
    skipped = [0] * len(words)

    def advance(row):
        for _ in range(step - 1):
            row = _relax(row, succs, skipped)
        return _relax(row, succs, weights)

    done, row, period, shift = _iterate_until_repeat(list(weights), advance, count - 1)
    laps, rest = divmod(count - 1 - done, period or 1)
    for _ in range(rest):
        row = advance(row)
    return max(v for v in row if v is not None) + laps * (shift or 0)


def _relax(row, succs, gain):
    """One max-plus step: the heaviest one-edge extension of the walks in
    `row`, adding gain[v] on entering v (None where no walk arrives)."""
    nxt = [None] * len(row)
    for u, best in enumerate(row):
        if best is None:
            continue
        for v in succs[u]:
            cand = best + gain[v]
            if nxt[v] is None or cand > nxt[v]:
                nxt[v] = cand
    return nxt


def _repeat_shift(row, mark):
    """K with row = mark + K, None entries alike (0 if all are), else None."""
    shift = None
    for x, y in zip(row, mark):
        if x is None or y is None:
            if x is not y:
                return None
        elif shift is None:
            shift = x - y
        elif x - y != shift:
            return None
    return shift or 0


def _iterate_until_repeat(row, advance, limit):
    """Apply `advance` to `row` up to `limit` times, and stop at the first
    row that is an earlier row plus a constant, with the same None pattern.

    The rows at step 0 and at every power of two are kept as marks, at most
    floor(log2 limit) + 2 rows, and each new row is compared with every mark,
    up to the first entry that rules out a repeat. If the rows repeat from
    step t0 on with period c, the first mark at or after t0 is below
    max(1, 2 t0), so the search stops by step max(1, 2 t0) + c. Returns
    (done, row, period, shift): the steps applied, the last row, the steps
    back to the mark it repeats, and the constant with row = mark + shift;
    period and shift are None if no repeat shows within `limit` steps.
    """
    marks = [(0, row)]
    for done in range(1, limit + 1):
        row = advance(row)
        for step, mark in marks:
            shift = _repeat_shift(row, mark)
            if shift is not None:
                return done, row, done - step, shift
        if not done & (done - 1):
            marks.append((done, row))
    return limit, row, None, None


def _sccs(succs):
    """Kosaraju strongly connected components, iterative."""
    n = len(succs)
    visited = [False] * n
    order = []
    for start in range(n):
        if visited[start]:
            continue
        stack = [(start, iter(succs[start]))]
        visited[start] = True
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if not visited[nxt]:
                    visited[nxt] = True
                    stack.append((nxt, iter(succs[nxt])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    preds = [[] for _ in range(n)]
    for u, outs in enumerate(succs):
        for v in outs:
            preds[v].append(u)
    assigned = [None] * n
    comps = []
    for root in reversed(order):
        if assigned[root] is not None:
            continue
        comp = []
        stack = [root]
        assigned[root] = len(comps)
        while stack:
            node = stack.pop()
            comp.append(node)
            for p in preds[node]:
                if assigned[p] is None:
                    assigned[p] = len(comps)
                    stack.append(p)
        comps.append(sorted(comp))
    return comps


def _local_graph(nodes, succs, weights):
    """The subgraph on `nodes` renumbered 0, ..., n - 1 in their order: the
    successor lists (edges leaving `nodes` dropped) and the weights."""
    local = {v: i for i, v in enumerate(nodes)}
    out = [[local[v] for v in succs[u] if v in local] for u in nodes]
    return out, [weights[v] for v in nodes]


def _karp_max_mean(out, w):
    """The maximum cycle mean of a strongly connected local graph (see
    _local_graph); None without edges.

    The weights are integers, so D[k][v], the heaviest walk of k edges from
    node 0 to v (None if there is none), is an integer row. D[k+1] is a
    max-plus map of D[k], homogeneous like every max-plus map. So if some
    D[k] equals an earlier D[k - c] plus K with the same None pattern, the
    rows repeat from there with period c and gain K per period: the heaviest
    k-edge walks grow like k K / c, and K / c is the maximum cycle mean,
    whichever earlier row the repeat shows against. Without a repeat by
    k = n, Karp's formula max_v min_k (D[n][v] - D[k][v]) / (n - k) gives it
    in two passes: the first ends with D[n], the second recomputes D[0], ...,
    D[n-1] and keeps each node's running minimum. Either way O(log n) rows are
    held at once, never the (n+1) x n table. The ratios are compared by
    cross-multiplication (every denominator is positive), and only the
    optimum becomes a Fraction.
    """
    if not any(out):
        return None
    n = len(out)

    def advance(row):
        return _relax(row, out, w)

    first = [0] + [None] * (n - 1)
    _, last, period, shift = _iterate_until_repeat(first, advance, n)
    if period is not None:
        return Fraction(shift, period)
    worst = [None] * n  # per node, the least (num, den) over k so far
    row = first
    for k in range(n):
        if k:
            row = advance(row)
        for v, (top, low) in enumerate(zip(last, row)):
            if top is None or low is None:
                continue
            num, den = top - low, n - k
            if worst[v] is None or num * worst[v][1] < worst[v][0] * den:
                worst[v] = (num, den)
    best_num, best_den = None, 1
    for ratio in worst:
        if ratio is not None and (best_num is None or ratio[0] * best_den > best_num * ratio[1]):
            best_num, best_den = ratio
    return None if best_num is None else Fraction(best_num, best_den)


def _critical_cycle(out, w, mean):
    """A cycle of the local graph (see _local_graph) of exactly the given
    mean p/q, as a list of nodes: stabilize max-plus potentials for the
    shifted weights, then walk tight edges.

    The potentials are kept scaled by q, as integers: the shifted weight of
    an edge into v is q * w[v] - p, so every comparison is the unscaled one
    multiplied by q > 0. They are the least h >= 0 with h[v] >= h[u] +
    shifted[v] on every edge, found by a FIFO worklist counted in passes:
    pass k relaxes the edges out of every node raised in pass k - 1. Without
    a cycle of positive shifted weight (one of mean above p/q) the heaviest
    walks are paths and the worklist empties within n passes. Otherwise it
    is still nonempty after n passes; then the last-raise pointers, followed
    back n times from a node raised in pass n, end on a cycle, and any cycle
    of those pointers has positive shifted weight. That cycle is returned.
    Without a cycle of tight edges, none has mean p/q and the list is empty.
    """
    p, q = mean.numerator, mean.denominator
    n = len(out)
    shifted = [q * x - p for x in w]
    h = [0] * n
    raised_by = [None] * n
    queued = [True] * n
    work = list(range(n))
    for _ in range(n):
        raised = []
        for u in work:
            queued[u] = False
            base = h[u]
            for v in out[u]:
                cand = base + shifted[v]
                if cand > h[v]:
                    h[v] = cand
                    raised_by[v] = u
                    if not queued[v]:
                        queued[v] = True
                        raised.append(v)
        work = raised
        if not work:
            break
    else:
        node = work[0]
        for _ in range(n):
            node = raised_by[node]
        cycle = [node]
        while raised_by[cycle[-1]] != node:
            cycle.append(raised_by[cycle[-1]])
        return cycle[::-1]
    tight = [sorted(v for v in out[u] if h[v] == h[u] + shifted[v]) for u in range(n)]
    # any cycle of tight edges telescopes to the optimal mean, so a depth
    # first search for a back edge suffices
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for start in range(n):
        if color[start]:
            continue
        path = []
        on_path = {}
        stack = [(start, iter(tight[start]))]
        color[start] = 1
        on_path[start] = 0
        path.append(start)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return path[on_path[nxt] :]
                if color[nxt] == 0:
                    color[nxt] = 1
                    on_path[nxt] = len(path)
                    path.append(nxt)
                    stack.append((nxt, iter(tight[nxt])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                color[node] = 2
                on_path.pop(node)
                path.pop()
    return []


def ocap_limit(sft: Sft, A: CylinderSet) -> OcapResult:
    """Exact limit orbit capacity: the maximum mean of the visit indicator
    over cycles of the recoded transition graph, with a witness cycle.

    The witness is checked against the mean: a cycle of another mean, a
    cycle that beats it, or no cycle of that mean raises ObligationFailedError
    with a FAILED critical-cycle-mean record."""
    words, succs, weights = _recode(sft, A)
    best = None
    for comp in sorted(_sccs(succs)):
        out, w = _local_graph(comp, succs, weights)
        mean = _karp_max_mean(out, w)
        if mean is not None and (best is None or mean > best[0]):
            best = (mean, comp, out, w)
    if best is None:
        raise PreconditionError("transition graph has no cycle")
    mean, comp, out, w = best
    cycle = [comp[i] for i in _critical_cycle(out, w, mean)]
    visits = sum(weights[v] for v in cycle)
    if not cycle or visits * mean.denominator != mean.numerator * len(cycle):
        raise ObligationFailedError(
            structural_record(
                "critical-cycle-mean", FAILED,
                ("witness cycle mean differs from the maximum cycle mean" if cycle
                 else "no cycle has the maximum cycle mean",),
                cycle_length=len(cycle), cycle_visits=visits, mean=mean,
            )
        )
    rotation = min(range(len(cycle)), key=lambda i: words[cycle[i]])
    cycle = cycle[rotation:] + cycle[:rotation]
    witness = tuple(words[v][0] for v in cycle)
    return OcapResult(value=mean, witness=witness, graph_size=len(words))


def ocap_neighborhood(sft: Sft, E, delta) -> CylinderSet:
    """A clopen neighborhood whose capacity stays within delta of the target.

    Clopen sets are their own best neighborhood (exact equality). A decreasing
    sequence of cylinder sets (deepest last, standing in for a non-clopen
    intersection) is scanned for the shallowest depth already within delta of
    the deepest available capacity.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise PreconditionError("delta must be positive")
    if isinstance(E, CylinderSet):
        return E
    stages = list(E)
    if not stages:
        raise PreconditionError("empty refinement sequence")
    for prev, nxt in zip(stages, stages[1:]):
        if not nxt.difference(prev).is_empty:
            raise PreconditionError("refinement sequence is not decreasing")
    target = (
        Fraction(0) if stages[-1].is_empty else ocap_limit(sft, stages[-1]).value
    )
    for stage in stages:
        value = Fraction(0) if stage.is_empty else ocap_limit(sft, stage).value
        if value < target + delta:
            return stage
    raise PreconditionError("bound unreachable at depth cap")


def sbp_cover_refine(sft: Sft, cover, delta):
    """Peel a clopen cover into disjoint pieces with the same union.

    Clopen sets have empty boundary, so the peeling is exact: E_1 = V_1 and
    E_i removes everything already covered. Returns the pieces and the orbit
    capacity report of the leftover complement (exactly zero for a cover).
    Raises with an uncovered word witness if the input is not a cover.
    """
    delta = Fraction(delta)
    cover = list(cover)
    if not cover:
        raise PreconditionError("empty cover")
    pieces = []
    covered = None
    for V in cover:
        piece = V if covered is None else V.difference(covered)
        pieces.append(piece)
        covered = piece if covered is None else covered.union(piece)
    complement = covered.complement()
    if not complement.is_empty:
        witness = sorted(complement.words)[0]
        raise PreconditionError(
            f"not a cover: word {''.join(map(str, witness))!r} at offset {complement.offset} is uncovered"
        )
    report = ocap_limit(sft, complement)
    if not report.value < delta:
        raise PreconditionError("peeled complement capacity not below delta")
    return pieces, complement, report


# ---------------------------------------------------------------------------
# the dyadic odometer tower
# ---------------------------------------------------------------------------


class OdometerTower(Value):
    """Level-k tower of the 2-adic adding machine over the clopen base set of
    residue 0 mod 2^k: return times are exactly 2^k, and only the residue of a
    point matters for its return-time set."""

    _fields = ("level",)

    def __init__(self, level: int):
        if level < 1:
            raise PreconditionError("level must be positive")
        self.__dict__.update(level=level)

    @property
    def period(self) -> int:
        return 2**self.level


def odometer_E(tower: OdometerTower, residue: int, lo: int, hi: int) -> list:
    """Return times to the base set within [lo, hi): the arithmetic
    progression of gap 2^k through -residue."""
    if not 0 <= residue < tower.period:
        raise PreconditionError("residue out of range")
    first = lo + ((-residue - lo) % tower.period)
    return list(range(first, hi, tower.period))


# ---------------------------------------------------------------------------
# window sequences and shift metrics
# ---------------------------------------------------------------------------


class WindowSeq(Value):
    """Finitely many consecutive coordinates of a bi-infinite sequence."""

    _fields = ("start", "values")

    def __init__(self, start: int, values: tuple):
        self.__dict__.update(start=start, values=values)

    @property
    def end(self) -> int:
        return self.start + len(self.values)

    def __getitem__(self, n: int):
        if not self.start <= n < self.end:
            raise InsufficientWindowError("coordinate outside window", (n, n + 1))
        return self.values[n - self.start]

    def covers(self, lo: int, hi: int) -> bool:
        return self.start <= lo and hi <= self.end

    def restrict(self, lo: int, hi: int) -> tuple:
        if not self.covers(lo, hi):
            raise InsufficientWindowError("window too small", (lo, hi))
        return self.values[lo - self.start : hi - self.start]


class ShiftMetric(Value):
    """Geometric-weight metric on window sequences: sum of 2^-|n| times a
    per-coordinate distance (coordinate n of the shifted points).

    coord_dist returns a rational, a Fraction or an int, between 0 and 1.
    """

    _fields = ("coord_dist",)

    def __init__(self, coord_dist):
        self.__dict__.update(coord_dist=coord_dist)

    def distances(self, x: WindowSeq, y: WindowSeq, lo: int, hi: int):
        """The coordinate distances on [lo, hi) as integer numerators over
        their least common denominator: (numerators, denominator)."""
        delta = [self.coord_dist(a, b) for a, b in zip(x.restrict(lo, hi), y.restrict(lo, hi))]
        den = math.lcm(*(d.denominator for d in delta))
        return [d.numerator * (den // d.denominator) for d in delta], den


SYMBOL_METRIC = ShiftMetric(lambda a, b: int(a != b))


class IntegerWindow(Value):
    """Consecutive coordinates start, start + 1, ... of a sequence in [0, 1],
    as integer numerators `nums` over one denominator `den`."""

    _fields = ("start", "nums", "den")

    def __init__(self, start: int, nums: tuple, den: int):
        self.__dict__.update(start=start, nums=nums, den=den)

    @property
    def end(self) -> int:
        return self.start + len(self.nums)


class IntegerHilbertMetric:
    """The Hilbert-cube coordinate distance |a - b| on IntegerWindows. The
    coordinates a / dx and b / dy are |a dy - b dx| apart over dx dy, so no
    coordinate builds a Fraction and the denominators need no lcm."""

    @staticmethod
    def distances(x: IntegerWindow, y: IntegerWindow, lo: int, hi: int):
        """The coordinate distances on [lo, hi), which both windows cover,
        as (numerators, denominator)."""
        dx, dy = x.den, y.den
        xs = x.nums[lo - x.start : hi - x.start]
        ys = y.nums[lo - y.start : hi - y.start]
        return [abs(a * dy - b * dx) for a, b in zip(xs, ys)], dx * dy


INTEGER_HILBERT_METRIC = IntegerHilbertMetric()


def d_N(metric, N: int, x, y) -> Fraction:
    """Exact maximum of the shifted window metric over the first N iterates,
    on the common window [lo, hi); a lower bound for the bi-infinite metric.

    `metric` is a ShiftMetric on WindowSeqs, or INTEGER_HILBERT_METRIC on
    IntegerWindows; its `distances` gives the coordinate distances on the
    window as num_c / den. Index the window's coordinates lo, ..., hi - 1 by
    c = 0, ..., W - 1. At shift j, with pivot p = j - lo, the value
    sum_c 2^-|c-p| num_c / den is over the common denominator den 2^(W-1):
    its numerator is (L << (W-1-p)) + (R << p), where
    L = sum_{c<=p} 2^c num_c and R = sum_{c>p} 2^(W-1-c) num_c. One pass
    moves num_p from R to L at each shift and keeps the largest numerator;
    the one Fraction is built from it.
    """
    if N < 1:
        raise PreconditionError("N must be positive")
    lo = max(x.start, y.start)
    hi = min(x.end, y.end)
    if not (lo <= 0 and N <= hi):
        raise InsufficientWindowError("window does not cover the orbit segment", (0, N))
    num, den = metric.distances(x, y, lo, hi)
    top = hi - lo - 1
    first = -lo  # the pivot of shift 0
    left = sum(n << c for c, n in enumerate(num[:first]))
    right = sum(n << (top - c) for c, n in enumerate(num[first:], first))
    best = 0
    for p in range(first, first + N):
        n = num[p]
        left += n << p
        right -= n << (top - p)
        value = (left << (top - p)) + (right << p)
        if value > best:
            best = value
    return Fraction(best, den << top)
