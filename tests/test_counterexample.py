"""Tests for the factor-map construction and the wedge-cone embedding."""

import dataclasses
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meandim import counterexample, widthmaps
from meandim.certificates import (
    _trial_seed,
    check_certificate,
    chain_fiber_certificate,
    flat_linf,
    recheck_structural,
    sample_fiber_check,
    structural_record,
)
from meandim.cli import main
from meandim.complexes import bucket_dimension_bound
from meandim.counterexample import (
    CSV_HEADER,
    CounterexampleParams,
    FactorMapInstance,
    build_sbp_instance,
    derive_m,
    derive_margin,
    fiber_dimension_certificate,
    mdim_report,
    nonzero_count_check,
    sample_coordinates,
    stacked_report,
    two_sided_tail,
    wedge_cone_embedding,
)
from meandim.errors import PreconditionError
from meandim.serialize import format_fraction, parse_fraction
from meandim.symbolic import (
    CylinderSet,
    WindowSeq,
    d_N,
    max_subsampled_visits,
    ocap_limit,
)
from meandim.widthmaps import KuhnWidthPipeline
from oracles import (
    HILBERT_METRIC,
    all_structural_discharged,
    eager_fiber_certificate,
    empty_cylinder,
    evaluate,
    evaluate_f,
    fraction_window,
    golden_mean,
    identity_certificate,
    one_point_handle,
)
from test_widthmaps import realized

F = Fraction


def std_params(N=16, delta=F(1, 2), eps=F(1, 2), seed=0):
    return CounterexampleParams(delta, eps, N, seed=seed)


class TestParams:
    def test_delta_half_derivation(self):
        p = std_params()
        assert p.m == 3
        assert p.level == 3  # block length 8: smallest with L > m and (m-1)/2^k <= delta/2
        assert p.L == 7
        assert p.L_prime == 9
        assert p.margin == 3
        assert p.grid == 17

    def test_m_rule_is_the_count_up_loop(self):
        # the smallest m >= 2 with 1/m < delta, as the loop it replaced
        # counted up to it, for every delta = p/q with 1 <= p <= q <= 300
        for q in range(1, 301):
            for p in range(1, q + 1):
                delta = F(p, q)
                m = 2
                while F(1, m) >= delta:
                    m += 1
                assert derive_m(delta) == m, delta
        assert derive_m(F(3)) == 2

    def test_margin_rule(self):
        assert derive_margin(F(1, 2)) == 3
        assert derive_margin(F(1, 4)) == 4
        assert derive_margin(F(2)) == 1

    def test_two_sided_tail_reported(self):
        # the full two-sided tail at the acceptance margin is recorded openly
        assert two_sided_tail(3) == F(1, 2)
        rows = {name: val for name, val, _ in std_params().report()}
        assert rows["two-sided tail"] == "1/2"

    def test_core_violation_named(self):
        # the derived m, level, grid and margin meet their inequalities by
        # construction, so the horizon is the one a caller can violate
        message = "parameter inequality violated: horizon >= 1"
        with pytest.raises(PreconditionError, match=message):
            CounterexampleParams(F(1, 2), F(1, 2), 0)

    @pytest.mark.parametrize("delta, eps", [(0, F(1, 2)), (F(1, 2), 0), (F(-1, 2), F(1, 2))])
    def test_nonpositive_delta_or_eps_refused(self, delta, eps):
        with pytest.raises(PreconditionError, match="delta and eps must be positive"):
            CounterexampleParams(delta, eps, 8)

    def test_advisory_inequality_reported_not_fatal(self):
        p = std_params()
        rows = {name: val for name, val, kind in p.report() if kind == "advisory"}
        assert rows == {"m/L < delta/2": "fails"}  # 3/7 is not below 1/4


class TestFactorMap:
    def test_all_zero_input_regression(self):
        # frozen pipeline value for the zero window: each block maps to the
        # width-map image of the origin followed by padding
        p = std_params(N=8)
        inst = FactorMapInstance(p)
        x = WindowSeq(inst.window_lo, tuple(F(0) for _ in range(inst.window_hi - inst.window_lo)))
        fx = evaluate_f(inst, x, 0, inst.window_lo, inst.window_hi)
        block = tuple(fx[n] for n in range(0, 8))
        assert block == (F(1), F(1, 4), F(0), F(0), F(0), F(0), F(0), F(0))

    def test_residue_passes_through(self):
        inst = FactorMapInstance(std_params(N=8))
        rng = random.Random(0)
        x, r = inst.sample_state(rng)
        _, r_out = evaluate_f(inst, x, r, inst.window_lo, inst.window_hi), r
        assert r_out == r

    def test_blockwise_structure(self):
        inst = FactorMapInstance(std_params(N=8))
        rng = random.Random(1)
        x, r = inst.sample_state(rng)
        fx = evaluate_f(inst, x, r, inst.window_lo, inst.window_hi)
        for a in inst.block_starts(r):
            block = fraction_window(x).restrict(a, a + 8)
            expected = evaluate(inst.pipeline, block) + (F(0),) * 6
            assert fx.restrict(a, a + 8) == expected

    def test_each_block_image_has_the_block_length_and_zero_padding(self):
        inst = FactorMapInstance(std_params(N=8))
        m = inst.params.m
        rng = random.Random(17)
        tails = set()
        for _ in range(10):
            x, r = inst.sample_state(rng)
            starts = inst.block_starts(r)
            fx = evaluate_f(inst, x, r, inst.window_lo, inst.window_hi)
            assert (fx.start, fx.end) == (starts[0], starts[-1] + 8)
            for a in starts:
                block = fx.restrict(a, a + 8)
                assert len(block) == 8
                assert sum(1 for c in block if c != 0) <= m - 1 == 2
                tails.add(block[m - 1:])
        # the entries after the first m - 1 are the same zeros for every block
        assert tails == {(F(0),) * 6}

    def test_blocks_cover_requested_horizon(self):
        inst = FactorMapInstance(std_params(N=16))
        for r in range(8):
            starts = inst.block_starts(r)
            assert starts[0] <= 0
            assert starts[-1] + 8 >= 16


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32), count=st.integers(0, 60))
def test_sample_coordinates_draws_the_fresh_grid_fractions(seed, count):
    rng, oracle = random.Random(seed), random.Random(seed)
    values = sample_coordinates(rng, count)
    assert values == tuple(F(oracle.randint(0, 64), 64) for _ in range(count))
    assert all(type(v) is F for v in values)
    assert rng.getstate() == oracle.getstate()


class TestNonzeroCount:
    def test_zero_input_counts(self):
        inst = FactorMapInstance(std_params(N=8, seed=3))
        report = nonzero_count_check(inst, samples=20)
        assert not report.violations
        # one block holds at most m-1 = 2 nonzeros; a window meets two blocks
        assert report.max_count <= report.block_bound == 2 * 2

    def test_aligned_single_block_count(self):
        # residue 0 aligns [0, 8) with one block: at most m-1 nonzeros there
        p = std_params(N=8)
        inst = FactorMapInstance(p)
        rng = random.Random(30)
        for _ in range(10):
            x, _ = inst.sample_state(rng)
            fx = evaluate_f(inst, x, 0, inst.window_lo, inst.window_hi)
            count = sum(1 for n in range(8) if fx[n] != 0)
            assert count <= p.m - 1 < p.delta * 8 / 2 + 2 * p.m

    def test_bound_values(self):
        inst = FactorMapInstance(std_params(N=80, seed=4))
        report = nonzero_count_check(inst, samples=50)
        assert not report.violations
        assert report.bound == F(1, 2) * 80 / 2 + 6 == 26
        assert report.block_bound == (10 + 1) * 2 == 22
        assert report.max_count < 26

    def test_hull_inside_padded_positions(self):
        inst = FactorMapInstance(std_params(N=24, seed=5))
        report = nonzero_count_check(inst, samples=40)
        assert not report.violations
        assert report.hull_max <= report.block_bound


def test_count_check_locates_nothing_and_builds_no_fraction(monkeypatch, request):
    from meandim.widthmaps import KuhnWidthPipeline

    inst = FactorMapInstance(std_params(N=80, seed=6))
    expected = full_window_count_report(inst, 20)

    def no_flag(*args):
        raise AssertionError("the count check located a flag")

    monkeypatch.setattr(KuhnWidthPipeline, "locate_flag", no_flag)
    built = request.getfixturevalue("fraction_count")
    report = nonzero_count_check(inst, samples=20)
    assert built == []  # in counterexample, geometry, symbolic and widthmaps
    assert (report.max_count, report.hull_max, list(report.violations)) == expected


def test_hull_check_at_delta_1_64_follows_the_block_layout(monkeypatch):
    # period 8192: the hull check tests each hull member, so it costs
    # nothing per residue or per position of [0, N)
    from meandim.widthmaps import KuhnWidthPipeline

    inst = FactorMapInstance(CounterexampleParams(F(1, 64), F(1, 2), 2000, seed=4))
    p = inst.params
    assert (p.period, p.m) == (8192, 65)
    image_numerators = KuhnWidthPipeline.image_numerators

    def with_padding_entry(pipeline, nums, res):
        # a block whose first coordinate is even also marks its first
        # padded position, m - 1 entries in
        image, den = image_numerators(pipeline, nums, res)
        return image + [int(nums[0] % 2 == 0)], den

    monkeypatch.setattr(KuhnWidthPipeline, "image_numerators", with_padding_entry)
    samples = 12
    start = time.perf_counter()
    report = nonzero_count_check(inst, samples)
    assert time.perf_counter() - start < 1
    # the oracle places each marked position in its block: it lies in the
    # padding when it is m - 1 or more entries past the block's start
    rng = random.Random(p.seed)
    hulls, padded, counts = {}, set(), []
    for _ in range(samples):
        x, r = inst.sample_state(rng)
        marked = []
        for a in inst.block_starts(r):
            offset = a - x.start
            image, _ = with_padding_entry(inst.pipeline, x.nums[offset : offset + 8192], x.den)
            for i, c in enumerate(image):
                if c and 0 <= a + i < 2000:
                    marked.append(a + i)
                    if i >= p.m - 1:
                        padded.add(r)
        hulls.setdefault(r, set()).update(marked)
        counts.append((r, len(marked)))
    # both outcomes occur
    assert padded and any(hull and r not in padded for r, hull in hulls.items())
    expected = [(r, c) for r, c in counts if not (c < report.bound and c <= report.block_bound)]
    expected += [(r, "hull outside padded positions") for r in sorted(padded)]
    assert list(report.violations) == expected
    assert report.max_count == max(c for _, c in counts)
    assert report.hull_max == max(map(len, hulls.values()))


def full_window_count_report(inst, samples):
    """Oracle for nonzero_count_check: every complete block of the window is
    evaluated and coordinates are read one at a time. Returns max_count,
    hull_max and the violations."""
    p = inst.params
    N = p.horizon
    bound = p.delta * N / 2 + 2 * p.m
    block_bound = (-(-N // p.period) + 1) * (p.m - 1)
    rng = random.Random(p.seed)
    hulls = {r: set() for r in range(p.period)}
    counts = []
    for _ in range(samples):
        x, r = inst.sample_state(rng)
        fx = evaluate_f(inst, x, r, inst.window_lo, inst.window_hi)
        nonzero = {n for n in range(N) if fx[n] != 0}
        hulls[r] |= nonzero
        counts.append((r, len(nonzero)))
    violations = [(r, c) for r, c in counts if not (c < bound and c <= block_bound)]
    violations += [
        (r, "hull outside padded positions")
        for r, hull in hulls.items()
        if any((n + r) % p.period >= p.m - 1 for n in hull)
    ]
    return max(c for _, c in counts), max(map(len, hulls.values())), violations


@pytest.mark.parametrize("N", [1, 8, 13, 16, 24, 80])
def test_count_check_evaluates_only_blocks_meeting_the_range(N):
    for seed in range(5):
        inst = FactorMapInstance(std_params(N=N, seed=seed))
        rng = random.Random(seed)
        for r in range(inst.params.period):
            x, _ = inst.sample_state(rng)
            restricted = evaluate_f(inst, x, r, 0, N)
            period = inst.params.period
            # the first and the last evaluated block both meet [0, N)
            assert restricted.start <= 0 < restricted.start + period
            assert restricted.end - period < N <= restricted.end
            full = evaluate_f(inst, x, r, inst.window_lo, inst.window_hi)
            assert restricted.restrict(0, N) == full.restrict(0, N)
        report = nonzero_count_check(inst, samples=12)
        expected = full_window_count_report(inst, 12)
        assert (report.max_count, report.hull_max, list(report.violations)) == expected


def realized_sampler(inst, state):
    """The factor-map fiber sampler written on WindowSeq: head coordinates,
    then each complete block's sampled flag realized on the grid, then tail
    coordinates, in the draw order of fiber_dimension_certificate."""
    x, r = state
    pipeline, p = inst.pipeline, inst.params
    period = p.period
    starts = inst.block_starts(r)
    certs = [
        pipeline.fiber_certificate(
            pipeline.locate_flag(x.nums[a - x.start : a - x.start + period], x.den),
            p.eps / 2,
            p.eps / 4,
        )
        for a in starts
    ]

    def sample(rng):
        values = list(sample_coordinates(rng, starts[0] - inst.window_lo))
        for cert in certs:
            values.extend(realized(cert.domain.sample(rng), pipeline.grid))
        values.extend(sample_coordinates(rng, inst.window_hi - starts[-1] - period))
        return WindowSeq(inst.window_lo, tuple(values))

    return sample


def cert_starts(inst, residue, N):
    """The starts of the blocks fiber_dimension_certificate chains at
    horizon N for a state of `residue`."""
    p = inst.params
    return [
        a
        for a in inst.block_starts(residue)
        if a + p.period > -p.margin and a < N + p.margin
    ]


class TestFiberCertificate:
    def test_single_block_horizon(self):
        p = std_params(N=8)
        inst = FactorMapInstance(p)
        rng = random.Random(6)
        state = inst.sample_state(rng)
        cert = fiber_dimension_certificate(inst, state)
        bound = F(8 + 2 * 3 + 2 * 9, 3)
        assert F(cert.target_dim) < bound
        assert all_structural_discharged(cert)
        assert cert.epsilon == F(1, 2)

    def test_dimension_equals_window_over_m_when_divisible(self):
        # with m dividing the block length every per-block bound is sharp
        p = CounterexampleParams(F(3, 4), F(1, 2), 8)
        assert p.m == 2 and p.period == 4
        inst = FactorMapInstance(p)
        rng = random.Random(7)
        for _ in range(5):
            x, r = inst.sample_state(rng)
            cert = fiber_dimension_certificate(inst, (x, r))
            starts = cert_starts(inst, r, 8)
            window_len = starts[-1] + 4 - starts[0]
            assert cert.target_dim == F(window_len, 2)

    def test_structural_records_recheck(self):
        inst = FactorMapInstance(std_params(N=8))
        cert = fiber_dimension_certificate(
            inst, inst.sample_state(random.Random(8))
        )
        for record in cert.obligations:
            if record.kind == "STRUCTURAL":
                assert recheck_structural(record), record.name

    def test_tail_rule_rederives_the_two_sided_tail(self):
        inst = FactorMapInstance(std_params(N=16))
        cert = fiber_dimension_certificate(
            inst, inst.sample_state(random.Random(20))
        )
        (record,) = [r for r in cert.obligations if r.name == "window-tail-rule"]
        data = record.data_dict
        assert data["two_sided_tail"] == "1/2" and recheck_structural(record)
        for tail in ("1/1000", "1/4", "1", "2", "0", "-1/2", "3/4"):
            tampered = structural_record(record.name, **{**data, "two_sided_tail": tail})
            assert not recheck_structural(tampered), tail
        for margin in range(70):
            record = structural_record(
                "window-tail-rule",
                margin=margin,
                threshold="2",
                two_sided_tail=format_fraction(two_sided_tail(margin)),
            )
            assert recheck_structural(record), margin
            for other in {max(margin - 1, 0), margin + 1} - {margin}:
                tail = format_fraction(two_sided_tail(other))
                tampered = structural_record(
                    record.name, **{**record.data_dict, "two_sided_tail": tail}
                )
                assert not recheck_structural(tampered), (margin, other)

    def test_each_block_is_located_once(self, monkeypatch):
        from meandim.widthmaps import KuhnWidthPipeline

        inst = FactorMapInstance(std_params(N=8))
        x, r = inst.sample_state(random.Random(12))
        calls = []
        locate_flag = KuhnWidthPipeline.locate_flag

        def counted(pipeline, nums, res):
            calls.append(nums)
            return locate_flag(pipeline, nums, res)

        monkeypatch.setattr(KuhnWidthPipeline, "locate_flag", counted)
        fiber_dimension_certificate(inst, (x, r))
        assert len(calls) == len(inst.block_starts(r))

    def test_fiber_samples_project_to_same_image(self):
        p = std_params(N=8)
        inst = FactorMapInstance(p)
        rng = random.Random(9)
        x, r = inst.sample_state(rng)
        y = evaluate_f(inst, x, r, inst.window_lo, inst.window_hi)
        cert = fiber_dimension_certificate(inst, (x, r))
        for _ in range(5):
            sample = cert.domain.sample(rng)
            fy = evaluate_f(inst, sample.window, r, inst.window_lo, inst.window_hi)
            for a in inst.block_starts(r):
                assert fy.restrict(a, a + 8) == y.restrict(a, a + 8)

    def test_sampling_and_evaluation_locate_nothing_and_build_no_fraction(self, monkeypatch):
        from meandim.widthmaps import KuhnWidthPipeline

        inst = FactorMapInstance(std_params(N=16))
        cert = fiber_dimension_certificate(inst, inst.sample_state(random.Random(14)))
        counts = {"locate_flag": 0, "Fraction": 0}
        locate_flag = KuhnWidthPipeline.locate_flag
        new = Fraction.__dict__["__new__"]
        new = new.__func__ if isinstance(new, staticmethod) else new

        def counted_locate(pipeline, nums, res):
            counts["locate_flag"] += 1
            return locate_flag(pipeline, nums, res)

        def counted_new(cls, *args, **kwargs):
            counts["Fraction"] += 1
            return new(cls, *args, **kwargs)

        rng = random.Random(15)
        monkeypatch.setattr(KuhnWidthPipeline, "locate_flag", counted_locate)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        for _ in range(50):
            cert.evaluator(cert.domain.sample(rng))
        monkeypatch.undo()
        assert counts == {"locate_flag": 0, "Fraction": 0}

    @pytest.mark.parametrize("N, seed", [(8, 16), (16, 17), (32, 18)])
    def test_sample_window_replays_the_realized_sampler(self, N, seed):
        inst = FactorMapInstance(std_params(N=N))
        rng = random.Random(seed)
        state = inst.sample_state(rng)
        cert = fiber_dimension_certificate(inst, state)
        replay = realized_sampler(inst, state)
        for _ in range(5):
            clone = random.Random()
            clone.setstate(rng.getstate())
            point = cert.domain.sample(rng)
            assert point.window == replay(clone)
            assert rng.getstate() == clone.getstate()

    def test_failure_witness_is_the_realized_window(self):
        inst = FactorMapInstance(std_params(N=16))
        state = inst.sample_state(random.Random(19))
        cert = fiber_dimension_certificate(inst, state)
        eps = F(1, 10**6)
        record = sample_fiber_check(
            cert.evaluator, cert.domain, eps, eta=1, trials=5, seed=7,
            target_dist=cert.target_dist,
        )
        # with eta = 1 every pair is near, so the first pair already fails
        replay = realized_sampler(inst, state)
        rng = random.Random(_trial_seed(7, 0))
        x, y = replay(rng), replay(rng)
        assert d_N(HILBERT_METRIC, 16, x, y) >= eps
        assert record.status == "failed"
        assert record.witness == (repr(x), repr(y))
        assert record.to_json_dict()["witness"] == [repr(x), repr(y)]

    @pytest.mark.parametrize("eta, seed, near", [(None, 6, 0), (None, 0, 4), (F(1), 4, 60)])
    def test_only_near_pairs_build_sampled_weights(self, monkeypatch, eta, seed, near):
        # a sampled flag builds its weights only when d_N reads its point,
        # once per flag of both points of a near pair: none where no pair
        # is near, and every flag at eta = 1, where every pair is
        builds, reads = [], []
        group_weights = widthmaps._group_weights

        def counted_build(*args):
            builds.append(1)
            return group_weights(*args)

        def counted_d_N(metric, N, u, v):
            reads.append(1)
            return d_N(metric, N, u, v)

        inst = FactorMapInstance(std_params(N=16))
        x, r = inst.sample_state(random.Random(22))
        cert = fiber_dimension_certificate(inst, (x, r))
        monkeypatch.setattr(widthmaps, "_group_weights", counted_build)
        monkeypatch.setattr(counterexample, "d_N", counted_d_N)
        record = check_certificate(cert, trials=60, seed=seed, eta=eta)
        assert record.status == "sampled-only"
        assert int(record.data_dict["near_pairs"]) == len(reads) == near
        assert len(builds) == 2 * near * len(inst.block_starts(r))

    def test_failed_record_witness_matches_eagerly_built_flags(self, tmp_path, monkeypatch):
        # a planted domain metric puts every pair at eps, and with eta = 1
        # every pair is near, so each certificate's first trial fails; the
        # witness realizes the deferred flags, and must spell the flags the
        # eager sampler builds from the same draws
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(counterexample, "d_N", lambda metric, N, u, v: F(1, 2))
        argv = ["counterexample", "fiber-cert", "--delta", "1/2", "--eps", "1/2", "--N", "16",
                "--eta", "1", "--samples", "2", "--trials", "3", "--seed", "5"]
        outputs = []
        for eager in (False, True):
            if eager:
                monkeypatch.setattr(
                    KuhnWidthPipeline, "fiber_certificate",
                    eager_fiber_certificate(KuhnWidthPipeline.fiber_certificate),
                )
            assert main([*argv, "--out", "fibers.json"]) == 3
            outputs.append(
                ((tmp_path / "fibers.json").read_text(),
                 (tmp_path / "meandim-witness.json").read_text())
            )
        assert outputs[0] == outputs[1]
        artifact, witness = (json.loads(text) for text in outputs[0])
        failed = [
            r for cert in artifact["payload"]["certificates"] for r in cert["obligations"]
            if r["status"] == "failed"
        ]
        assert [r["name"] for r in failed] == ["fiber-sample-check"] * 2
        assert witness["witness"] == failed[0]["witness"]
        assert all(text.startswith("WindowSeq(") for text in witness["witness"])

    def test_fiber_check_passes(self):
        inst = FactorMapInstance(std_params(N=8))
        cert = fiber_dimension_certificate(
            inst, inst.sample_state(random.Random(10))
        )
        record = check_certificate(cert, trials=200, seed=11)
        assert record.status == "sampled-only"

    def test_target_dist_is_flat_linf_of_realized_retractions(self):
        inst = FactorMapInstance(std_params(N=16))
        grid = inst.pipeline.grid

        def realized_all(value):
            if isinstance(value, tuple):
                return tuple(realized_all(v) for v in value)
            return realized(value, grid)

        rng = random.Random(13)
        for _ in range(3):
            cert = fiber_dimension_certificate(inst, inst.sample_state(rng))
            points = [cert.evaluator(cert.domain.sample(rng)) for _ in range(4)]
            for a, b in zip(points, points[1:]):
                expected = flat_linf(realized_all(a), realized_all(b), None)
                assert cert.target_dist(a, b, None) == expected

    def test_product_with_one_point_preserves_dim(self):
        # the fiber and a one-point space as two blocks of length 1
        inst = FactorMapInstance(std_params(N=8))
        rng = random.Random(12)
        cert = fiber_dimension_certificate(inst, inst.sample_state(rng))
        trivial = identity_certificate(one_point_handle(), 0, cert.epsilon)
        chain = chain_fiber_certificate(
            cert.domain, lambda x, t: x[t], [(cert, 1), (trivial, 1)], 2, 0, 0
        )
        assert chain.target_dim == cert.target_dim
        point = cert.domain.sample(rng)
        assert chain.evaluator((point, ())) == (cert.evaluator(point), ())

    @settings(max_examples=60, deadline=None)
    @given(
        N=st.sampled_from([8, 16, 32]),
        seed=st.integers(0, 2**32),
        cap=st.fractions(0, F(1, 20), max_denominator=10**6),
    )
    def test_capped_target_dist_decides_as_the_exact_one(self, N, seed, cap):
        # the sampled distances lie near 1/100, so caps up to 1/20 fall on
        # both sides of them; the exact distance is a cap too
        inst = FactorMapInstance(std_params(N=N))
        rng = random.Random(seed)
        cert = fiber_dimension_certificate(inst, inst.sample_state(rng))
        for _ in range(4):
            a, b = (cert.evaluator(cert.domain.sample(rng)) for _ in range(2))
            exact = cert.target_dist(a, b, None)
            for c in (cap, exact):
                capped = cert.target_dist(a, b, c)
                assert (capped > c) == (exact > c)
                if exact <= c:
                    assert capped == exact

    def test_check_at_eta_stops_at_the_first_block_over_it(self, monkeypatch):
        # every block metric call is counted; with the exact max every trial
        # would measure every block
        calls = []
        block_certificate = KuhnWidthPipeline.fiber_certificate

        def counted_certificate(pipeline, *args):
            cert = block_certificate(pipeline, *args)
            block_dist = cert.target_dist

            def target_dist(*points):
                calls.append(1)
                return block_dist(*points)

            return dataclasses.replace(cert, target_dist=target_dist)

        monkeypatch.setattr(KuhnWidthPipeline, "fiber_certificate", counted_certificate)
        inst = FactorMapInstance(std_params(N=16))
        cert = fiber_dimension_certificate(inst, inst.sample_state(random.Random(21)))
        (chain,) = [r for r in cert.obligations if r.name == "chain-itinerary-covers-range"]
        blocks = len(chain.data_dict["lengths"].split(";"))
        trials = 200
        record = check_certificate(cert, trials=trials, seed=5)
        assert record.data_dict["eta"] == format_fraction(cert.epsilon / 100)
        assert blocks > 1 and 0 < len(calls) < trials * blocks
        exact = sample_fiber_check(
            cert.evaluator, cert.domain, cert.epsilon, trials=trials, seed=5,
            target_dist=lambda a, b, cap: cert.target_dist(a, b, None),
        )
        assert record == exact


class TestReports:
    @pytest.mark.parametrize("delta", [F(1, 2), F(1, 3), F(1, 5), F(2, 3)])
    def test_max_fiber_dim_is_the_worst_residue(self, delta):
        # the closed form is the largest chain over all residues, every
        # block at the bucket-1 bound, and strictly below fiber_dim_bound
        for eps in (F(1, 2), F(1, 4), F(1, 9)):
            for N in range(1, 151):
                p = CounterexampleParams(delta, eps, N)
                inst = FactorMapInstance(p)
                worst = max(
                    len(cert_starts(inst, r, N)) for r in range(p.period)
                ) * (p.period // p.m)
                assert p.max_fiber_dim() == worst, (eps, N)
                assert p.max_fiber_dim() < p.fiber_dim_bound(), (eps, N)

    def test_bucket_one_has_the_largest_bound(self):
        for n in range(1, 70):
            for m in range(1, n + 2):
                bounds = [bucket_dimension_bound(n, m, i) for i in range(1, m + 1)]
                assert max(bounds) == bounds[0] == n // m, (n, m)

    @pytest.mark.parametrize(
        "delta, N", [(F(1, 2), 8), (F(1, 2), 16), (F(1, 2), 64), (F(1, 2), 80), (F(1, 3), 16)]
    )
    def test_row_is_the_largest_certified_dimension(self, delta, N):
        (row,) = mdim_report(delta, [N], [F(1, 2)])
        inst = FactorMapInstance(std_params(N=N, delta=delta))
        rng = random.Random(N)
        dims = [
            fiber_dimension_certificate(inst, inst.sample_state(rng)).target_dim
            for _ in range(60)
        ]
        assert max(dims) == row.fiber_dim and row.fiber_dim_over_N == F(row.fiber_dim, N)

    def test_ratio_identity(self):
        rows = mdim_report(F(1, 2), [8, 16, 32], [F(1, 2)])
        p = std_params()
        for row in rows:
            assert row.fiber_dim_over_N <= F(1, p.m) + F(
                2 * p.margin + 2 * p.L_prime, p.m * row.N
            )

    def test_ratios_fall_below_delta(self):
        rows = mdim_report(F(1, 2), [32, 64], [F(1, 2)])
        for row in rows:
            assert row.fiber_dim_over_N < F(1, 2)

    def test_csv_shape(self):
        rows = mdim_report(F(1, 2), [8], [F(1, 2)])
        assert CSV_HEADER.count(",") == rows[0].to_csv().count(",")

    def test_stacked_depths(self):
        rows = stacked_report(F(1, 2), depth=2, N=8)
        assert [r["depth"] for r in rows] == [1, 2]
        assert rows[0]["eps"] == 1
        assert rows[1]["eps"] == F(1, 2)
        assert rows[1]["delta"] == F(1, 8)


# --- wedge-cone tests (fixtures shared with the acceptance suite) -----------

from wedge_fixtures import golden_instance, make_x_domain, snap_embedding_cert


def punctured_instance():
    """The golden-mean instance whose pieces miss the words 01 and 10 at 0."""
    base = golden_mean()
    pieces = [
        CylinderSet.from_constraints(base, [(0, ("0", "0"))]),
        CylinderSet.from_constraints(base, [(0, ("1",))]),
    ]
    return golden_instance(pieces=pieces)


class TestWedgeCone:
    def test_full_cover_dimension_exact(self):
        inst = golden_instance()
        cert = wedge_cone_embedding(inst, N=4, n=4)
        # every piece covers, so the global cone never leaves the apex
        assert cert.target_dim == 4 * 3
        assert all_structural_discharged(cert)

    def test_punctured_cover_count_bound(self):
        base = golden_mean()
        inst = punctured_instance()
        n, N = 4, 4
        cert = wedge_cone_embedding(inst, N=N, n=n)
        complement = inst.complement
        c = ocap_limit(base, complement)
        count = max_subsampled_visits(base, complement, n, N)
        assert count > 0
        assert F(count) <= c.value * n * N + c.graph_size
        assert cert.target_dim == n * 3 + count * 3

    def test_punctured_evaluator_uses_global_cone(self):
        inst = punctured_instance()
        cert = wedge_cone_embedding(inst, N=4, n=4)
        rng = random.Random(17)
        saw_global = False
        for _ in range(40):
            value = cert.evaluator(cert.domain.sample(rng))
            for f_part, g_part in value:
                assert (f_part[1] == 0) or (g_part[1] == 0)
                if g_part[1] != 0:
                    saw_global = True
        assert saw_global

    @pytest.mark.parametrize("punctured", [False, True])
    def test_wedge_records_recheck_and_tampered_copies_fail(self, punctured):
        inst = punctured_instance() if punctured else golden_instance()
        cert = wedge_cone_embedding(inst, N=4, n=4)
        records = {r.name: r for r in cert.obligations}
        count = records["wedge-dimension-count"]
        disjoint = records["windows-pairwise-disjoint"]
        visits = records["subsampled-visits-bound"]
        for record in (count, disjoint, visits):
            assert recheck_structural(record), record.name

        def tampered(record, **changes):
            return structural_record(record.name, **{**record.data_dict, **changes})

        wedge_dim = int(count.data_dict["wedge_dim"])
        assert not recheck_structural(tampered(count, wedge_dim=wedge_dim + 1))
        assert not recheck_structural(tampered(disjoint, pairwise_disjoint="false"))
        data = visits.data_dict
        horizon = int(data["steps"]) * int(data["step_length"])
        bound = parse_fraction(data["complement_ocap"]) * horizon + int(data["graph_size"])
        assert int(data["count_bound"]) <= bound
        assert recheck_structural(tampered(visits, count_bound=math.floor(bound)))
        assert not recheck_structural(tampered(visits, count_bound=math.floor(bound) + 1))

    def test_degenerate_all_empty(self):
        base = golden_mean()
        empty = empty_cylinder(base)
        inst = golden_instance(pieces=[empty, empty])
        n, N = 3, 4
        cert = wedge_cone_embedding(inst, N=N, n=n)
        assert cert.target_dim == n * 3  # n copies of the global cone only
        assert any(r.name == "degenerate-cutoff-identically-zero" for r in cert.obligations)

    def test_mismatched_epsilon_rejected(self):
        base = golden_mean()
        span = (-6, 24)
        domain = make_x_domain(base, span, F(1, 2), 4)
        cover = [
            CylinderSet.from_constraints(base, [(0, ("0",))]),
            CylinderSet.from_constraints(base, [(0, ("1",))]),
        ]
        certs = [
            snap_embedding_cert(domain, F(1, 2), -4, 8),
            snap_embedding_cert(domain, F(1, 3), -4, 8),
        ]
        global_cert = snap_embedding_cert(domain, F(1, 2), -4, 8)
        with pytest.raises(PreconditionError, match="mismatched epsilon"):
            build_sbp_instance(base, cover, F(1, 2), certs, global_cert, span)

    def test_overlapping_windows_rejected(self):
        base = golden_mean()
        overlapping = [
            CylinderSet.from_constraints(base, [(0, ("0",))]),
            CylinderSet.from_constraints(base, [(0, ("0", "0"))]),
        ]
        with pytest.raises(PreconditionError, match="pairwise disjoint"):
            golden_instance(pieces=overlapping)

    def test_wedge_certificate_fiber_check(self):
        inst = golden_instance()
        cert = wedge_cone_embedding(inst, N=4, n=3)
        record = check_certificate(cert, trials=150, seed=18)
        assert record.status == "sampled-only"
