"""Tests for the certificate algebra."""

import json
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from meandim.certificates import (
    FAILED,
    SAMPLED_ONLY,
    DischargeRecord,
    MetricSpaceHandle,
    chain_fiber_certificate,
    check_certificate,
    flat_linf,
    product_certificate,
    product_handle,
    randint_draws,
    recheck_structural,
    relax_scale,
    sample_fiber_check,
    structural_record,
)
from meandim.errors import PreconditionError
from oracles import (
    all_structural_discharged,
    finite_cloud_handle,
    identity_certificate,
    one_point_handle,
    pullback_certificate,
    spot_check_metric,
)

F = Fraction


def test_randint_draws_keep_randints_values_and_stream():
    # every top from 1 to 200, 64 (the top of the 1/64 grids) among them
    for top in range(1, 201):
        for seed in (top, 2**32 + top):
            rng, oracle = random.Random(seed), random.Random(seed)
            for count in (0, 1, 9, 64):
                draws = randint_draws(rng, top, count)
                assert draws == [oracle.randint(0, top) for _ in range(count)]
                assert rng.getstate() == oracle.getstate()


def grid_cloud(side=5, dim=2, scale=F(1, 4)):
    pts = [()]
    for _ in range(dim):
        pts = [p + (i * scale,) for p in pts for i in range(side)]
    return finite_cloud_handle(pts)


class TestProduct:
    def test_zero_dims(self):
        c1 = identity_certificate(grid_cloud(), 0, F(1, 2))
        c2 = identity_certificate(grid_cloud(), 0, F(1, 2))
        assert product_certificate(c1, c2).target_dim == 0

    def test_dims_add(self):
        c1 = identity_certificate(grid_cloud(), 1, F(1, 2))
        c2 = identity_certificate(grid_cloud(), 2, F(1, 2))
        assert product_certificate(c1, c2).target_dim == 3

    def test_one_point_factor_keeps_dim(self):
        c = identity_certificate(grid_cloud(), 3, F(1, 2))
        p = identity_certificate(one_point_handle(), 0, F(1, 2))
        assert product_certificate(c, p).target_dim == 3
        assert product_certificate(p, c).target_dim == 3

    def test_mismatched_epsilon(self):
        c1 = identity_certificate(grid_cloud(), 1, F(1, 2))
        c2 = identity_certificate(grid_cloud(), 1, F(1, 3))
        with pytest.raises(PreconditionError, match="mismatched epsilon"):
            product_certificate(c1, c2)

    def test_associativity_of_obligations(self):
        c1 = identity_certificate(grid_cloud(), 1, F(1, 2))
        c2 = identity_certificate(grid_cloud(), 2, F(1, 2))
        c3 = identity_certificate(grid_cloud(), 3, F(1, 2))
        left = product_certificate(product_certificate(c1, c2), c3)
        right = product_certificate(c1, product_certificate(c2, c3))
        assert left.target_dim == right.target_dim == 6
        assert sorted(r.to_json_dict()["data"].get("factors", "") for r in left.obligations) == sorted(
            r.to_json_dict()["data"].get("factors", "") for r in right.obligations
        )
        assert sorted(r.name for r in left.obligations) == sorted(
            r.name for r in right.obligations
        )

    def test_product_evaluator_and_metric(self):
        c1 = identity_certificate(grid_cloud(), 1, F(1, 2))
        c2 = identity_certificate(grid_cloud(), 1, F(1, 2))
        prod = product_certificate(c1, c2)
        rng = random.Random(0)
        x = prod.domain.sample(rng)
        y = prod.domain.sample(rng)
        assert prod.evaluator(x) == x
        assert prod.domain.dist(x, y) == max(
            flat_linf(x[0], y[0]), flat_linf(x[1], y[1])
        )

    def test_no_factors(self):
        with pytest.raises(PreconditionError, match="at least one factor"):
            product_certificate()
        with pytest.raises(PreconditionError, match="at least one factor"):
            product_handle()


def obligation_multiset(cert):
    return sorted(json.dumps(r.to_json_dict(), sort_keys=True) for r in cert.obligations)


@settings(max_examples=60, deadline=None)
@given(
    factors=st.lists(
        st.tuples(st.integers(0, 4), st.integers(1, 2), st.integers(2, 4)),
        min_size=1,
        max_size=5,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_product_matches_left_fold(factors, seed):
    """factors: (target_dim, cloud dimension, cloud side) per identity
    certificate."""
    certs = [
        identity_certificate(grid_cloud(side=side, dim=dim), target_dim, F(1, 2))
        for target_dim, dim, side in factors
    ]
    flat = product_certificate(*certs)
    folded = reduce(product_certificate, certs)
    assert flat.target_dim == folded.target_dim == sum(d for d, _, _ in factors)
    assert obligation_multiset(flat) == obligation_multiset(folded)
    rng = random.Random(seed)
    for _ in range(8):
        x, y = flat.domain.sample(rng), flat.domain.sample(rng)
        assert len(x) == len(y) == len(certs)
        fx, fy = flat.evaluator(x), flat.evaluator(y)
        assert fx == tuple(c.evaluator(p) for c, p in zip(certs, x))
        assert flat.domain.dist(x, y) == max(
            c.domain.dist(p, q) for c, p, q in zip(certs, x, y)
        )
        assert flat.target_dist(fx, fy) == max(
            c.target_dist(p, q) for c, p, q in zip(certs, fx, fy)
        )


class TestPullback:
    def test_identity_pullback(self):
        c = identity_certificate(grid_cloud(), 2, F(1, 2))
        pulled = pullback_certificate(
            c, c.domain, lambda x: x, witness="isometric-inclusion"
        )
        assert pulled.target_dim == c.target_dim
        assert pulled.epsilon == c.epsilon

    def test_isometric_slice_into_product(self):
        c = identity_certificate(grid_cloud(), 2, F(1, 2))
        prod = product_certificate(c, identity_certificate(one_point_handle(), 0, F(1, 2)))
        slice_domain = grid_cloud()
        pulled = pullback_certificate(
            prod, slice_domain, lambda x: (x, ()), witness="isometric-inclusion"
        )
        assert pulled.target_dim == prod.target_dim
        assert pulled.epsilon == prod.epsilon

    def test_shrinking_map_fails_sampled_witness(self):
        c = identity_certificate(grid_cloud(), 2, F(1, 2))
        halved = pullback_certificate(
            c, grid_cloud(), lambda x: tuple(v / 2 for v in x), trials=500, seed=1
        )
        failed = [r for r in halved.obligations if r.status == FAILED]
        assert len(failed) == 1
        assert failed[0].witness is not None

    def test_sampled_witness_passes_for_true_expansion(self):
        c = identity_certificate(grid_cloud(), 2, F(1, 2))
        doubled_domain = grid_cloud()
        pulled = pullback_certificate(
            c, doubled_domain, lambda x: tuple(2 * v for v in x), trials=300, seed=2
        )
        assert all(r.status != FAILED for r in pulled.obligations)


class TestChain:
    def make_block(self, dim, eps=F(1, 2)):
        return identity_certificate(grid_cloud(dim=1), dim, eps)

    @staticmethod
    def shift(x, t):
        return x

    def test_single_block(self):
        block = self.make_block(2)
        cert = chain_fiber_certificate(
            grid_cloud(dim=1), self.shift, [(block, 8)], 8
        )
        assert cert.target_dim == block.target_dim

    def test_two_blocks(self):
        blocks = [(self.make_block(1), 4), (self.make_block(1), 4)]
        cert = chain_fiber_certificate(
            grid_cloud(dim=1), self.shift, blocks, 8
        )
        assert cert.target_dim == 2

    def test_inconsistent_offsets(self):
        blocks = [(self.make_block(1), 4)]
        with pytest.raises(PreconditionError, match="inconsistent"):
            chain_fiber_certificate(grid_cloud(dim=1), self.shift, blocks * 3, 8)
        # a block of nonpositive length covers nothing, wherever it sits
        for length in (0, -2):
            blocks = [(self.make_block(1), 4), (self.make_block(1), length)]
            with pytest.raises(PreconditionError, match="inconsistent"):
                chain_fiber_certificate(
                    grid_cloud(dim=1), self.shift, blocks + blocks[:1], 8
                )

    def test_overrun_bookkeeping(self):
        # the blocks may overshoot [-margin, N + margin) by less than a block
        # at each end; half the draws start at 0 with no margin
        rng = random.Random(11)
        for i in range(100):
            k = rng.randint(1, 5)
            blocks = [
                (self.make_block(rng.randint(0, 3)), rng.randint(1, 6))
                for _ in range(k)
            ]
            first, last = blocks[0][1], blocks[-1][1]
            total = sum(length for _, length in blocks)
            longest = max(length for _, length in blocks)
            # a margin below (total - first) / 2 leaves room for N >= 1
            margin = 0 if i % 2 else rng.randint(0, (total - first) // 2)
            start = 0 if i % 2 else -margin - rng.randrange(first)
            end = start + total
            N = rng.randint(max(1, end - last - margin + 1), end - margin)
            build = lambda start: chain_fiber_certificate(
                grid_cloud(dim=1), self.shift, blocks, N,
                start=start, margin=margin,
            )
            cert = build(start)
            assert cert.target_dim == sum(b.target_dim for b, _ in blocks)
            a = max(F(b.target_dim + 1, length) for b, length in blocks)
            assert cert.target_dim < a * (N + margin - start + longest)
            chain = cert.obligations[-1]
            assert chain.name == "chain-itinerary-covers-range"
            assert chain.data_dict["start"] == str(start)
            assert chain.data_dict["margin"] == str(margin)
            assert recheck_structural(chain)
            # the first block must contain -margin
            for bad in (-margin + 1 + rng.randrange(3), -margin - first - rng.randrange(3)):
                with pytest.raises(PreconditionError, match="inconsistent"):
                    build(bad)


class TestSampleFiberCheck:
    def test_identity_never_violates(self):
        record = sample_fiber_check(
            lambda x: x, grid_cloud(), F(1, 2), trials=500, seed=3
        )
        assert record.status == SAMPLED_ONLY
        assert record.data_dict["violations"] == "0"

    def test_constant_map_on_wide_domain_fails(self):
        record = sample_fiber_check(
            lambda x: (F(0),), grid_cloud(), F(1, 2), trials=500, seed=4
        )
        assert record.status == FAILED
        assert record.witness is not None

    def test_structurally_discharged_certificate_passes(self):
        cert = identity_certificate(grid_cloud(), 2, F(1, 2))
        assert all_structural_discharged(cert)
        record = check_certificate(cert, trials=400, seed=5)
        assert record.status == SAMPLED_ONLY

    def test_determinism(self):
        a = sample_fiber_check(lambda x: x, grid_cloud(), F(1, 2), trials=200, seed=9)
        b = sample_fiber_check(lambda x: x, grid_cloud(), F(1, 2), trials=200, seed=9)
        assert a == b


class TestRecords:
    def test_relax_scale(self):
        cert = identity_certificate(grid_cloud(), 1, F(1, 4))
        relaxed = relax_scale(cert, F(1, 2))
        assert relaxed.epsilon == F(1, 2)
        assert relaxed.target_dim == cert.target_dim
        with pytest.raises(PreconditionError):
            relax_scale(cert, F(1, 8))

    def test_failed_record_requires_witness(self):
        with pytest.raises(PreconditionError):
            DischargeRecord("x", "SAMPLED", "failed")

    def test_recheck_structural_roundtrip(self):
        record = structural_record(
            "star-mesh-inherited-bound", parent_mesh=F(2, 17), scale=F(1, 8)
        )
        assert recheck_structural(record)
        tampered = DischargeRecord(
            record.name,
            record.kind,
            record.status,
            tuple(
                (k, "1/3") if k == "parent_mesh" else (k, v) for k, v in record.data
            ),
        )
        assert not recheck_structural(tampered)

    @pytest.mark.parametrize("name, data", [
        ("star-mesh-grid-bound", {"grid": -1, "bound": -2, "scale": F(1, 8)}),
        ("star-mesh-grid-bound", {"grid": 0, "bound": 0, "scale": F(1, 8)}),
        ("star-mesh-inherited-bound", {"parent_mesh": -1, "scale": F(1, 8)}),
        ("bucket-dimension-bound", {"source_dim": 2, "m": 2, "bucket": 1, "dim": -3}),
        ("bucket-dimension-bound", {"source_dim": -2, "m": 2, "bucket": 1, "dim": -1}),
    ])
    def test_impossible_mesh_and_bucket_values_fail_recheck(self, name, data):
        assert not recheck_structural(structural_record(name, **data))

    def test_possible_mesh_and_bucket_values_pass_recheck(self):
        for name, data in (
            ("star-mesh-grid-bound", {"grid": 17, "bound": F(2, 17), "scale": F(1, 8)}),
            ("star-mesh-inherited-bound", {"parent_mesh": 0, "scale": F(1, 8)}),
            ("bucket-dimension-bound", {"source_dim": 0, "m": 2, "bucket": 1, "dim": 0}),
            ("bucket-dimension-bound", {"source_dim": 2, "m": 2, "bucket": 2, "dim": 0}),
        ):
            assert recheck_structural(structural_record(name, **data)), name

    def test_unknown_structural_name_fails_recheck(self):
        record = structural_record("made-up-fact", value="1")
        assert not recheck_structural(record)

    def test_json_roundtrip(self):
        record = structural_record(
            "product-dims-additive", factors="1;2;3", total="6"
        )
        back = DischargeRecord.from_json_dict(record.to_json_dict())
        assert back == record
        assert recheck_structural(back)


def test_metric_spot_check():
    spot_check_metric(grid_cloud(), trials=16, seed=0)
    bad = MetricSpaceHandle(
        kind="broken",
        description="asymmetric",
        dist=lambda a, b: F(1) if a < b else F(0),
        sample=lambda rng: (F(rng.randrange(3)),),
    )
    with pytest.raises(PreconditionError, match="metric axioms"):
        spot_check_metric(bad, trials=64, seed=1)
