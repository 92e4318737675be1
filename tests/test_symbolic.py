"""Tests for subshifts, cylinder algebra, orbit capacity, odometer, metrics."""

import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from meandim import symbolic
from meandim.counterexample import (
    CounterexampleParams,
    FactorMapInstance,
    fiber_dimension_certificate,
)
from meandim.errors import BudgetExceededError, InsufficientWindowError, PreconditionError
from meandim.symbolic import (
    INTEGER_HILBERT_METRIC,
    SYMBOL_METRIC,
    CylinderSet,
    IntegerWindow,
    OdometerTower,
    Sft,
    ShiftMetric,
    WindowSeq,
    d_N,
    WORD_BUDGET,
    max_subsampled_visits,
    ocap_finite_N,
    ocap_limit,
    ocap_neighborhood,
    odometer_E,
    sbp_cover_refine,
)
from oracles import HILBERT_METRIC, empty_cylinder, full_shift, golden_mean, same_set

F = Fraction


def brute_force_max_visits(sft, A, N):
    """Oracle: enumerate every admissible word and count visits directly."""
    length, hit = A.indicator_words()
    best = 0
    for word in sft.words(N + length - 1):
        visits = sum(1 for n in range(N) if word[n : n + length] in hit)
        best = max(best, visits)
    return best


def karp_full_table(nodes, succs, weights):
    """Oracle: Karp's formula on the whole (n+1) x n table of D[k][v], the
    heaviest walk of k edges from nodes[0] to v; None without edges."""
    local = {v: i for i, v in enumerate(nodes)}
    edges = [(local[u], local[v]) for u in nodes for v in succs[u] if v in local]
    if not edges:
        return None
    n = len(nodes)
    D = [[None] * n for _ in range(n + 1)]
    D[0][0] = 0
    for prev, row in zip(D, D[1:]):
        for u, v in edges:
            if prev[u] is not None:
                cand = prev[u] + weights[nodes[v]]
                if row[v] is None or cand > row[v]:
                    row[v] = cand
    return max(
        (
            min(F(D[n][v] - D[k][v], n - k) for k in range(n) if D[k][v] is not None)
            for v in range(n)
            if D[n][v] is not None
        ),
        default=None,
    )


def visits_step_by_step(sft, A, count, step):
    """Oracle: the visit DP run one step at a time over all (count-1)*step
    steps, adding the visit weights at multiples of `step`."""
    words, succs, weights = symbolic._recode(sft, A)
    dp = list(weights)
    for t in range(1, (count - 1) * step + 1):
        gain = weights if t % step == 0 else [0] * len(words)
        nxt = [None] * len(words)
        for i, best in enumerate(dp):
            for j in succs[i]:
                if best is not None and (nxt[j] is None or best + gain[j] > nxt[j]):
                    nxt[j] = best + gain[j]
        dp = nxt
    return max(v for v in dp if v is not None)


def spy_on_repeats(monkeypatch):
    """Record (done, period) of every repeat search."""
    seen = []
    search = symbolic._iterate_until_repeat

    def spy(row, advance, limit):
        done, row, period, shift = search(row, advance, limit)
        seen.append((done, period))
        return done, row, period, shift

    monkeypatch.setattr(symbolic, "_iterate_until_repeat", spy)
    return seen


def shape_repeat_search(row, advance, limit):
    """Oracle: the repeat search that normalizes every row to (top, row -
    top), top its largest entry, keeps the normalized rows at step 0 and at
    every power of two as marks, and compares each new row with every mark
    as a whole."""

    def shape(row):
        top = max((x for x in row if x is not None), default=0)
        return top, [None if x is None else x - top for x in row]

    marks = [(0, *shape(row))]
    for done in range(1, limit + 1):
        row = advance(row)
        top, normal = shape(row)
        for step, mark_top, mark in marks:
            if normal == mark:
                return done, row, done - step, top - mark_top
        if done & (done - 1) == 0:
            marks.append((done, top, normal))
    return limit, row, None, None


def repeat_onset(row, advance, limit):
    """Oracle: (t0, c) with row t + c = row t plus a constant for every
    t >= t0, t0 and then c least, from the whole history of normalized rows
    up to step `limit`; None if no two rows up to `limit` repeat."""
    history = []
    for _ in range(limit + 1):
        top = max((x for x in row if x is not None), default=0)
        normal = [None if x is None else x - top for x in row]
        if normal in history:
            t0 = history.index(normal)
            return t0, len(history) - t0
        history.append(normal)
        row = advance(row)
    return None


@st.composite
def weighted_graphs(draw):
    """A graph of several strongly connected components: cyclic blocks of
    `cyclicity` layers (every edge of a block goes to the next layer), joined
    by a few forward edges, with integer weights that may all be zero."""
    succs, blocks = [], draw(st.integers(1, 3))
    for _ in range(blocks):
        base, cyclicity, width = len(succs), draw(st.integers(1, 4)), draw(st.integers(1, 3))
        for node in range(cyclicity * width):
            layer = (node // width + 1) % cyclicity
            targets = draw(st.sets(st.integers(0, width - 1), min_size=1, max_size=width))
            succs.append(sorted(base + layer * width + t for t in targets))
    n = len(succs)
    for _ in range(draw(st.integers(0, 3))):
        u, v = sorted(draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        if v not in succs[u]:
            succs[u].append(v)
    if draw(st.booleans()):
        weights = [0] * n
    else:
        weights = draw(st.lists(st.integers(-2, 3), min_size=n, max_size=n))
    return succs, weights


def cyl(sft, *constraints):
    return CylinderSet.from_constraints(sft, constraints)


@st.composite
def sft_and_constraints(draw):
    """An essential SFT on 2 or 3 symbols, often reducible, and one or two
    (offset, word) constraints at offsets -1..1 spanning at most 3 symbols."""
    symbols = [str(a) for a in range(draw(st.integers(2, 3)))]
    pairs = [(a, b) for a in symbols for b in symbols]
    transitions = frozenset(draw(st.sets(st.sampled_from(pairs), min_size=2)))
    assume({a for a, _ in transitions} == set(symbols) == {b for _, b in transitions})
    constraints = draw(
        st.lists(
            st.tuples(
                st.integers(-1, 1),
                st.lists(st.sampled_from(symbols), min_size=1, max_size=3).map(tuple),
            ),
            min_size=1,
            max_size=2,
        )
    )
    lo = min(o for o, _ in constraints)
    assume(max(o + len(w) for o, w in constraints) - lo <= 3)
    return Sft(tuple(symbols), transitions), constraints


def language(sft, length):
    """Oracle: the words of the given length whose adjacent pairs are all
    allowed transitions, by enumerating every word over the alphabet."""
    return [
        w
        for w in itertools.product(sorted(sft.alphabet), repeat=length)
        if all(pair in sft.transitions for pair in zip(w, w[1:]))
    ]


def meets(constraints, offset, word):
    """Whether a word on the window starting at `offset` meets every
    (offset, word) constraint, each inside that window."""
    return all(
        o >= offset and word[o - offset : o - offset + len(req)] == req
        for o, req in constraints
    )


def best_cycle_mean(sft, constraints):
    """Oracle: the max over L <= n and v of (A^L)[v][v] / L, where A is the
    max-plus matrix of the n-node word graph of the constraints' window and an
    edge into a word weighs 1 when the word meets every constraint."""
    lo = min(o for o, _ in constraints)
    length = max(o + len(w) for o, w in constraints) - lo
    nodes = language(sft, length)
    weight = {
        w: int(all(w[o - lo : o - lo + len(req)] == req for o, req in constraints))
        for w in nodes
    }
    succs = {
        u: [v for v in nodes if u[1:] == v[:-1] and (u[-1], v[-1]) in sft.transitions]
        for u in nodes
    }
    best = None
    for start in nodes:
        row = {start: 0}  # row `start` of A^L
        for L in range(1, len(nodes) + 1):
            nxt = {}
            for u, value in row.items():
                for v in succs[u]:
                    if value + weight[v] > nxt.get(v, -1):
                        nxt[v] = value + weight[v]
            row = nxt
            if start in row and (best is None or F(row[start], L) > best):
                best = F(row[start], L)
    return best


class TestSft:
    def test_essential_enforced(self):
        with pytest.raises(PreconditionError, match="essential"):
            Sft(("a", "b"), frozenset({("a", "a"), ("a", "b")}))

    def test_words_golden_mean(self):
        gm = golden_mean()
        assert gm.words(2) == (("0", "0"), ("0", "1"), ("1", "0"))

    def test_json_roundtrip(self):
        gm = golden_mean()
        back = Sft.from_json_dict(json.loads(json.dumps(gm.to_json_dict())))
        assert back.alphabet == gm.alphabet
        assert back.transitions == gm.transitions


class TestCylinderAlgebra:
    def test_constraint_intersection(self):
        gm = golden_mean()
        A = cyl(gm, (0, "0"), (1, "0"))
        assert A.words == {("0", "0")}

    def test_contradictory_constraints_empty(self):
        gm = golden_mean()
        A = cyl(gm, (0, "1"), (1, "1"))  # "11" is forbidden
        assert A.is_empty

    def test_union_and_complement(self):
        gm = golden_mean()
        zero, one = cyl(gm, (0, "0")), cyl(gm, (0, "1"))
        assert same_set(zero.union(one), CylinderSet.whole(gm))
        assert same_set(zero.complement(), one)

    def test_difference(self):
        gm = golden_mean()
        one = cyl(gm, (0, "1"))
        ten = cyl(gm, (0, "10"))
        # in the golden mean shift every 1 is followed by 0
        assert one.difference(ten).is_empty

    def test_refine_preserves_set(self):
        gm = golden_mean()
        A = cyl(gm, (0, "1"))
        B = A.refine(-2, 3)
        assert same_set(A, B)
        assert B.length == 5

    def test_contains_point_with_shift(self):
        gm = golden_mean()
        A = cyl(gm, (0, "1"))
        x = WindowSeq(0, ("0", "1", "0", "0"))
        assert not A.contains_point(x)
        assert A.contains_point(x, shift=1)

    def test_whole_and_empty(self):
        gm = golden_mean()
        assert CylinderSet.whole(gm).contains_point(WindowSeq(0, ("0",)))
        assert empty_cylinder(gm).is_empty


    @pytest.mark.parametrize(
        "length, word",
        [
            (2, ("1", "1")),  # a forbidden transition
            (2, ("0",)),  # the wrong length
            (1, ("2",)),  # a symbol outside the alphabet
            (2, "01"),  # a str, not a tuple of symbols
        ],
    )
    def test_direct_construction_checks_the_language(self, length, word):
        with pytest.raises(PreconditionError, match="outside the language"):
            CylinderSet(golden_mean(), 0, length, frozenset({word}))

    def test_direct_construction_checks_the_word_budget(self):
        with pytest.raises(BudgetExceededError, match="word budget"):
            CylinderSet(golden_mean(), 0, WORD_BUDGET + 1, frozenset())

    @settings(max_examples=100, deadline=None)
    @given(instance=sft_and_constraints(), data=st.data())
    def test_algebra_matches_brute_force_filter(self, instance, data):
        sft, constraints = instance
        symbols = sorted(sft.alphabet)
        others = data.draw(
            st.lists(
                st.tuples(
                    st.integers(-1, 1),
                    st.lists(st.sampled_from(symbols), min_size=1, max_size=3).map(tuple),
                ),
                max_size=2,
            )
        )
        lo, hi = data.draw(st.integers(-2, 1)), data.draw(st.integers(0, 4))
        A = CylinderSet.from_constraints(sft, constraints)
        B = CylinderSet.from_constraints(sft, others)

        def in_a(offset, w):
            return meets(constraints, offset, w)

        def in_b(offset, w):
            return meets(others, offset, w)

        built = [
            (A, in_a),
            (B, in_b),
            (A.refine(lo, hi), in_a),
            (A.union(B), lambda o, w: in_a(o, w) or in_b(o, w)),
            (A.intersection(B), lambda o, w: in_a(o, w) and in_b(o, w)),
            (A.difference(B), lambda o, w: in_a(o, w) and not in_b(o, w)),
            (B.difference(A), lambda o, w: in_b(o, w) and not in_a(o, w)),
            (A.complement(), lambda o, w: not in_a(o, w)),
            (B.complement(), lambda o, w: not in_b(o, w)),
        ]
        for C, member in built:
            expected = {w for w in language(sft, C.length) if member(C.offset, w)}
            assert C.words == expected


class TestOcapFiniteN:
    def test_full_shift_all_ones(self):
        full = full_shift("01")
        A = cyl(full, (0, "1"))
        for N in (1, 2, 5, 16):
            assert ocap_finite_N(full, A, N) == 1

    def test_golden_mean_n2(self):
        gm = golden_mean()
        assert ocap_finite_N(gm, cyl(gm, (0, "1")), 2) == F(1, 2)

    def test_empty_set(self):
        gm = golden_mean()
        assert ocap_finite_N(gm, empty_cylinder(gm), 7) == 0

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(min_value=1, max_value=6), seed=st.integers(0, 10**6))
    def test_against_brute_force(self, N, seed):
        rng = random.Random(seed)
        sft = golden_mean() if rng.random() < 0.5 else full_shift("01")
        length = rng.randint(1, 2)
        word = rng.choice(sft.words(length))
        A = cyl(sft, (0, word))
        assert ocap_finite_N(sft, A, N) == F(brute_force_max_visits(sft, A, N), N)

    def test_longer_window_set(self):
        gm = golden_mean()
        A = cyl(gm, (0, "010"))
        for N in (1, 2, 4):
            assert ocap_finite_N(gm, A, N) == F(brute_force_max_visits(gm, A, N), N)


class TestOcapLimit:
    def test_full_shift(self):
        full = full_shift("01")
        result = ocap_limit(full, cyl(full, (0, "1")))
        assert result.value == 1
        assert result.witness == ("1",)

    def test_golden_mean(self):
        gm = golden_mean()
        result = ocap_limit(gm, cyl(gm, (0, "1")))
        assert result.value == F(1, 2)
        assert set(result.witness) == {"0", "1"}
        assert len(result.witness) == 2

    def test_witness_cycle_realizes_value(self):
        gm = golden_mean()
        A = cyl(gm, (0, "10"))
        result = ocap_limit(gm, A)
        period = result.witness * 4
        visits = sum(
            1
            for n in range(2 * len(result.witness))
            if A.contains_point(WindowSeq(0, period), shift=n)
        )
        assert F(visits, 2 * len(result.witness)) == result.value

    def test_union_subadditive(self):
        rng = random.Random(42)
        gm = golden_mean()
        for _ in range(100):
            length = rng.randint(1, 3)
            wa = rng.choice(gm.words(length))
            wb = rng.choice(gm.words(rng.randint(1, 3)))
            A = cyl(gm, (rng.randint(-2, 2), wa))
            B = cyl(gm, (rng.randint(-2, 2), wb))
            union = A.union(B)
            assert (
                ocap_limit(gm, union).value
                <= ocap_limit(gm, A).value + ocap_limit(gm, B).value
            )

    def test_finite_dominates_limit_with_karp_gap(self):
        gm = golden_mean()
        for word in (("1",), ("1", "0"), ("0", "0")):
            A = cyl(gm, (0, word))
            limit = ocap_limit(gm, A)
            for N in range(1, 65):
                finite = ocap_finite_N(gm, A, N)
                assert finite >= limit.value
                assert finite - limit.value <= F(limit.graph_size, N)

    def test_finite_nonincreasing_on_doublings(self):
        gm = golden_mean()
        A = cyl(gm, (0, "1"))
        values = [ocap_finite_N(gm, A, N) for N in (3, 6, 12, 24, 48)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @settings(max_examples=100, deadline=None)
    @given(instance=sft_and_constraints())
    @example(
        instance=(
            Sft(("0", "1"), frozenset({("0", "0"), ("0", "1"), ("1", "1")})),
            [(0, ("0",)), (1, ("1",))],
        )
    )
    def test_value_and_witness_match_best_cycle_mean(self, instance):
        sft, constraints = instance
        result = ocap_limit(sft, CylinderSet.from_constraints(sft, constraints))
        assert result.value == best_cycle_mean(sft, constraints)
        period = len(result.witness)
        assert all(
            (result.witness[i], result.witness[(i + 1) % period]) in sft.transitions
            for i in range(period)
        )
        visits = sum(
            all(
                result.witness[(t + offset + j) % period] == symbol
                for offset, word in constraints
                for j, symbol in enumerate(word)
            )
            for t in range(period)
        )
        assert F(visits, period) == result.value

    def test_cycle_search_builds_one_fraction_per_component(self, monkeypatch):
        built = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(symbolic, "Fraction", CountingFraction)
        gm = golden_mean()
        # a window of 10 symbols: 144 words, one strongly connected component
        result = ocap_limit(gm, cyl(gm, (0, "1"), (9, "0")))
        assert result.graph_size == 144
        assert result.value == F(1, 2)
        assert len(built) <= 1


    @settings(max_examples=300, deadline=None)
    @given(graph=weighted_graphs())
    def test_karp_matches_full_table(self, graph):
        succs, weights = graph
        for comp in symbolic._sccs(succs):
            local = symbolic._local_graph(comp, succs, weights)
            assert symbolic._karp_max_mean(*local) == karp_full_table(comp, succs, weights)

    @settings(max_examples=200, deadline=None)
    @given(graph=weighted_graphs(), gap=st.fractions(F(1, 50), F(3)))
    def test_critical_cycle_refuses_a_wrong_mean(self, graph, gap):
        succs, weights = graph
        for comp in symbolic._sccs(succs):
            mean = karp_full_table(comp, succs, weights)
            if mean is None:
                continue
            out, w = symbolic._local_graph(comp, succs, weights)
            for planted in (mean, mean - gap, mean + gap):
                cycle = symbolic._critical_cycle(out, w, planted)
                if planted > mean:
                    assert cycle == []
                    continue
                assert all(v in out[u] for u, v in zip(cycle, cycle[1:] + cycle[:1]))
                cycle_mean = F(sum(w[v] for v in cycle), len(cycle))
                assert cycle_mean == mean if planted == mean else cycle_mean > planted

    def test_karp_falls_back_without_a_repeat_by_n(self, monkeypatch):
        # D[0], ..., D[4] are (0, -, -, -), (0, 0, -, -), (0, 0, 3, 0),
        # (0, 3, 6, 3) and (3, 6, 9, 6): D[4] = D[3] + 3, but the marks are
        # D[0], D[1] and D[2], so the repeat first shows at D[5] = D[4] + 3
        seen = spy_on_repeats(monkeypatch)
        succs, weights = [[0, 1], [2, 3], [1, 2, 3], [0, 2]], [0, 0, 3, 0]
        nodes = [0, 1, 2, 3]
        assert symbolic._karp_max_mean(*symbolic._local_graph(nodes, succs, weights)) == 3
        assert karp_full_table(nodes, succs, weights) == 3
        assert seen == [(4, None)]

    @settings(max_examples=300, deadline=None)
    @given(graph=weighted_graphs(), data=st.data())
    def test_repeat_search_matches_shape_search(self, graph, data):
        succs, weights = graph
        n = len(succs)
        starts = [
            list(weights),
            [0] + [None] * (n - 1),
            [None] * n,
            data.draw(st.lists(st.none() | st.integers(-3, 3), min_size=n, max_size=n)),
        ]
        limit = data.draw(st.integers(0, 3 * n))

        def advance(row):
            return symbolic._relax(row, succs, weights)

        for row in starts:
            assert symbolic._iterate_until_repeat(
                row, advance, limit
            ) == shape_repeat_search(row, advance, limit)

    @settings(max_examples=300, deadline=None)
    @given(graph=weighted_graphs(), data=st.data())
    def test_repeat_search_stops_by_twice_the_onset_plus_the_period(self, graph, data):
        succs, weights = graph
        n = len(succs)
        row = data.draw(st.lists(st.none() | st.integers(-3, 3), min_size=n, max_size=n))

        def advance(row):
            return symbolic._relax(row, succs, weights)

        onset = repeat_onset(row, advance, 4 * n + 2)
        assume(onset is not None)
        t0, c = onset
        bound = max(1, 2 * t0) + c
        done, _, period, _ = symbolic._iterate_until_repeat(row, advance, bound)
        assert period is not None and done <= bound
        assert period % c == 0 and done - period >= t0

    def test_large_graph_in_bounded_memory(self, monkeypatch):
        seen = spy_on_repeats(monkeypatch)
        gm = golden_mean()
        A = cyl(gm, (0, "1"), (15, "1"))
        tracemalloc.start()
        try:
            result = ocap_limit(gm, A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.graph_size == 2584
        assert result.value == F(7, 15)
        assert "".join(result.witness) == "001010101010101"
        assert peak < 8 * 2**20
        assert seen and all(period is not None for _, period in seen)


# cyclicity 2: every 1 sits between two symbols of {0, 2}
PERIOD_TWO = Sft(("0", "1", "2"), frozenset({("0", "1"), ("1", "0"), ("1", "2"), ("2", "1")}))


class TestSubsampledVisits:
    def test_step_one_matches_finite_n(self):
        gm = golden_mean()
        A = cyl(gm, (0, "1"))
        for N in (1, 3, 7):
            assert max_subsampled_visits(gm, A, N, 1) == N * ocap_finite_N(gm, A, N)

    def test_subsampling_never_beats_full_count(self):
        gm = golden_mean()
        A = cyl(gm, (0, "0"))
        n, step = 4, 3
        full = max_subsampled_visits(gm, A, n * step, 1)
        assert max_subsampled_visits(gm, A, n, step) <= full

    @pytest.mark.parametrize("step", [1, 2, 3, 7])
    @pytest.mark.parametrize(
        "sft, constraints",
        [
            (golden_mean(), [(0, "1")]),
            (golden_mean(), [(0, "1"), (3, "1")]),
            (golden_mean(), [(0, "00"), (4, "1")]),
            (PERIOD_TWO, [(0, "2"), (2, "0")]),
        ],
    )
    def test_matches_step_by_step_before_and_after_the_repeat(
        self, monkeypatch, sft, constraints, step
    ):
        A = cyl(sft, *constraints)
        seen = spy_on_repeats(monkeypatch)
        max_subsampled_visits(sft, A, 200, step)
        ((done, period),) = seen
        # an even step splits the period-2 shift's word graph into two classes
        # that gain visits at different rates, so its rows never repeat
        assert (period is None) == (sft is PERIOD_TWO and step % 2 == 0)
        for count in range(1, done + 3 * (period or 1) + 3):
            assert max_subsampled_visits(sft, A, count, step) == visits_step_by_step(
                sft, A, count, step
            )

    @settings(max_examples=100, deadline=None)
    @given(
        instance=sft_and_constraints(),
        count=st.integers(1, 40),
        step=st.sampled_from([1, 2, 3, 7]),
    )
    def test_matches_step_by_step_on_reducible_sfts(self, instance, count, step):
        sft, constraints = instance
        A = CylinderSet.from_constraints(sft, constraints)
        assume(not A.is_empty)
        assert max_subsampled_visits(sft, A, count, step) == visits_step_by_step(
            sft, A, count, step
        )


class TestOcapNeighborhood:
    def test_clopen_returns_itself(self):
        gm = golden_mean()
        E = cyl(gm, (0, "1"))
        U = ocap_neighborhood(gm, E, F(1, 10))
        assert U is E

    def test_empty(self):
        gm = golden_mean()
        U = ocap_neighborhood(gm, empty_cylinder(gm), F(1, 10))
        assert U.is_empty

    def test_nested_depths_monotone(self):
        gm = golden_mean()
        stages = [
            cyl(gm, (0, "0")),
            cyl(gm, (0, "00")),
            cyl(gm, (0, "000")),
        ]
        values = [ocap_limit(gm, s).value for s in stages]
        assert values[0] >= values[1] >= values[2]
        U = ocap_neighborhood(gm, stages, F(1, 100))
        assert ocap_limit(gm, U).value < values[-1] + F(1, 100)

    def test_non_nested_rejected(self):
        gm = golden_mean()
        with pytest.raises(PreconditionError, match="not decreasing"):
            ocap_neighborhood(gm, [cyl(gm, (0, "0")), cyl(gm, (0, "1"))], F(1, 2))


class TestSbpCoverRefine:
    def test_single_whole_cover(self):
        gm = golden_mean()
        pieces, complement, report = sbp_cover_refine(
            gm, [CylinderSet.whole(gm)], F(1, 2)
        )
        assert same_set(pieces[0], CylinderSet.whole(gm))
        assert complement.is_empty
        assert report.value == 0

    def test_already_disjoint(self):
        gm = golden_mean()
        pieces, complement, report = sbp_cover_refine(
            gm, [cyl(gm, (0, "0")), cyl(gm, (0, "1"))], F(1, 2)
        )
        assert same_set(pieces[0], cyl(gm, (0, "0")))
        assert same_set(pieces[1], cyl(gm, (0, "1")))
        assert report.value == 0

    def test_overlapping_peeled(self):
        gm = golden_mean()
        V1 = cyl(gm, (0, "0")).union(cyl(gm, (0, "10")))
        V2 = cyl(gm, (0, "1"))
        pieces, complement, report = sbp_cover_refine(gm, [V1, V2], F(1, 2))
        assert same_set(pieces[0], V1)
        # everything in V2 was already covered: every 1 is followed by 0
        assert pieces[1].is_empty
        assert pieces[0].intersection(pieces[1]).is_empty
        assert complement.is_empty
        assert report.value == 0

    def test_not_a_cover(self):
        gm = golden_mean()
        with pytest.raises(PreconditionError, match="not a cover"):
            sbp_cover_refine(gm, [cyl(gm, (0, "1"))], F(1, 2))


class TestOdometer:
    def test_example_window(self):
        tower = OdometerTower(2)
        assert odometer_E(tower, 1, 0, 8) == [3, 7]

    def test_zero_residue(self):
        assert odometer_E(OdometerTower(2), 0, 0, 4) == [0]

    def test_gaps_constant(self):
        E = odometer_E(OdometerTower(2), 1, -20, 20)
        assert all(b - a == 4 for a, b in zip(E, E[1:]))

    def test_tower_invariants_residue_identities(self):
        for k in range(1, 11):
            tower = OdometerTower(k)
            period = tower.period
            # the factor map's block bounds L = 2^k - 1 and L' = 2^k + 1
            L, L_prime = period - 1, period + 1
            # the base set never meets its first L preimages
            for n in range(1, L + 1):
                assert (-n) % period != 0
            assert odometer_E(tower, 0, 1, L + 1) == []
            # the first L'-1 preimages cover every residue
            assert {(-n) % period for n in range(1, L_prime)} == set(range(period))
            assert all(odometer_E(tower, r, 1, L_prime) for r in range(period))

    def test_residue_out_of_range(self):
        with pytest.raises(PreconditionError):
            odometer_E(OdometerTower(2), 4, 0, 8)


def _shift_windows(draw, N, symbols):
    start = draw(st.integers(min_value=-20, max_value=0))
    end = draw(st.integers(min_value=N, max_value=N + 5))
    return WindowSeq(start, tuple(draw(symbols) for _ in range(end - start)))


# the 1/64 grid, and values over 64k as realized flags have
RATIONALS = st.one_of(
    st.integers(0, 64).map(lambda i: F(i, 64)),
    st.integers(1, 7).flatmap(lambda k: st.integers(0, 64 * k).map(lambda i: F(i, 64 * k))),
)


def d_N_by_definition(metric, N, x, y):
    """Oracle: the largest weighted sum over the common window at any shift."""
    window = range(max(x.start, y.start), min(x.end, y.end))
    sums = []
    for j in range(N):
        weights = {c: F(1, 2 ** abs(c - j)) for c in window}
        sums.append(sum((w * metric.coord_dist(x[c], y[c]) for c, w in weights.items()), F(0)))
    return max(sums)


class TestWindowMetrics:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), N=st.integers(min_value=1, max_value=48), hilbert=st.booleans())
    def test_d_N_matches_definition(self, data, N, hilbert):
        if hilbert:
            metric, symbols = HILBERT_METRIC, RATIONALS
        else:
            metric, symbols = SYMBOL_METRIC, st.sampled_from("01")
        x = _shift_windows(data.draw, N, symbols)
        y = _shift_windows(data.draw, N, symbols)
        assert d_N(metric, N, x, y) == d_N_by_definition(metric, N, x, y)

    @pytest.mark.parametrize("hilbert", [True, False])
    def test_d_N_matches_definition_on_the_widest_windows(self, hilbert):
        # 73 coordinates: the common denominator carries shifts past 2^60
        rng = random.Random(71 + hilbert)
        metric = HILBERT_METRIC if hilbert else SYMBOL_METRIC
        N = 48

        def draw():
            if not hilbert:
                return rng.choice("01")
            q = rng.choice(dens)
            return F(rng.randint(0, q), q)

        for _ in range(5):
            dens = (64, 64 * rng.randint(2, 7))
            x = WindowSeq(-20, tuple(draw() for _ in range(N + 25)))
            y = WindowSeq(-20 + rng.randint(0, 2), tuple(draw() for _ in range(N + 20)))
            assert d_N(metric, N, x, y) == d_N_by_definition(metric, N, x, y)

    @settings(max_examples=16, deadline=None)
    @given(
        N=st.sampled_from([8, 16, 32, 80]),
        eps=st.sampled_from([F(1, 2), F(1, 4)]),
        residue=st.integers(0, 7),
        seed=st.integers(0, 10**6),
    )
    def test_factor_map_fiber_distance_matches_definition(self, N, eps, residue, seed):
        # the fiber reads integer windows; the oracle sums their realized
        # Fraction windows by the definition
        inst = FactorMapInstance(CounterexampleParams(F(1, 2), eps, N))
        rng = random.Random(seed)
        x, _ = inst.sample_state(rng)
        cert = fiber_dimension_certificate(inst, (x, residue % inst.params.period))
        points = [cert.domain.sample(rng) for _ in range(3)]
        for u, v in zip(points, points[1:]):
            expected = d_N_by_definition(HILBERT_METRIC, N, u.window, v.window)
            assert cert.domain.dist(u, v) == expected

    def test_factor_map_fiber_distance_builds_one_fraction(self, request):
        N = 32
        inst = FactorMapInstance(CounterexampleParams(F(1, 2), F(1, 2), N))
        rng = random.Random(83)
        cert = fiber_dimension_certificate(inst, inst.sample_state(rng))
        points = [cert.domain.sample(rng) for _ in range(6)]
        built = request.getfixturevalue("fraction_count")
        for u, v in zip(points, points[1:]):
            cert.domain.dist(u, v)
            # the value of d_N; no coordinate of the 56 is realized
            assert len(built) == 1
            del built[:]

    def test_integer_windows_match_their_fraction_windows(self):
        rng = random.Random(89)
        for _ in range(20):
            N = rng.randint(1, 24)
            windows = []
            for _ in range(2):
                start, den = rng.randint(-8, 0), rng.choice((64, 192, 64 * 35))
                nums = tuple(rng.randint(0, den) for _ in range(N - start + rng.randint(0, 4)))
                windows.append((IntegerWindow(start, nums, den),
                                WindowSeq(start, tuple(F(a, den) for a in nums))))
            (ix, fx), (iy, fy) = windows
            assert d_N(INTEGER_HILBERT_METRIC, N, ix, iy) == d_N(HILBERT_METRIC, N, fx, fy)

    def test_integer_window_checks_the_orbit_segment(self):
        x = IntegerWindow(-2, (0, 1, 2, 3, 4), 4)
        with pytest.raises(InsufficientWindowError):
            d_N(INTEGER_HILBERT_METRIC, 4, x, x)
        with pytest.raises(InsufficientWindowError):
            d_N(INTEGER_HILBERT_METRIC, 2, x, IntegerWindow(1, (0,) * 4, 4))
        with pytest.raises(PreconditionError):
            d_N(INTEGER_HILBERT_METRIC, 0, x, x)
        assert d_N(INTEGER_HILBERT_METRIC, 3, x, x) == 0

    def test_d_N_builds_one_fraction(self, request):
        rng = random.Random(79)
        x = WindowSeq(-5, tuple(F(rng.randint(0, 192), 192) for _ in range(40)))
        y = WindowSeq(-4, tuple(F(rng.randint(0, 64), 64) for _ in range(40)))
        built = request.getfixturevalue("fraction_count")
        d_N(HILBERT_METRIC, 30, x, y)
        assert len(built) == 1  # the value, built from its numerator

    def test_each_coordinate_distance_is_computed_once(self):
        calls = []

        def counted(a, b):
            calls.append((a, b))
            return abs(F(a) - F(b))

        x = WindowSeq(-6, tuple(F(c % 3, 2) for c in range(20)))
        y = WindowSeq(-6, tuple(F(c % 5, 4) for c in range(20)))
        d_N(ShiftMetric(counted), 8, x, y)
        assert len(calls) == 20

    def test_d1_is_base_metric(self):
        x = WindowSeq(-2, (F(0), F(1, 2), F(1), F(0), F(1)))
        y = WindowSeq(-2, (F(1), F(1, 2), F(0), F(0), F(1)))
        # 2^-2 * |0 - 1| + 2^0 * |1 - 0|
        assert d_N(HILBERT_METRIC, 1, x, y) == F(5, 4)

    def test_identical_points(self):
        x = WindowSeq(0, (F(1, 3), F(2, 3)))
        assert d_N(HILBERT_METRIC, 2, x, x) == 0

    def test_single_difference_at_last_index(self):
        N = 4
        xs = tuple(F(0) for _ in range(N))
        ys = tuple(F(0) for _ in range(N - 1)) + (F(1),)
        x, y = WindowSeq(0, xs), WindowSeq(0, ys)
        # at the final shift the differing coordinate carries full weight
        assert d_N(HILBERT_METRIC, N, x, y) == 1

    def test_insufficient_window(self):
        x = WindowSeq(0, (F(0), F(1)))
        with pytest.raises(InsufficientWindowError):
            d_N(HILBERT_METRIC, 5, x, x)

    def test_symbol_metric(self):
        x = WindowSeq(0, ("0", "1", "0"))
        y = WindowSeq(0, ("0", "0", "0"))
        assert d_N(SYMBOL_METRIC, 1, x, y) == F(1, 2)
