"""Tests for the certificate algebra."""

import random
from fractions import Fraction

import pytest

from meandim.certificates import (
    FAILED,
    SAMPLED_ONLY,
    DischargeRecord,
    EpsEmbeddingCertificate,
    MetricSpaceHandle,
    chain_fiber_certificate,
    check_certificate,
    flat_linf,
    randint_draws,
    recheck_structural,
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
    """Chains of blocks of length 1 over the coordinates of a grid cloud:
    the block at offset t reads coordinate t, so the chain is the product
    of its blocks."""

    @staticmethod
    def chain(*certs):
        return chain_fiber_certificate(
            grid_cloud(dim=len(certs)), lambda x, t: x[t], [(c, 1) for c in certs],
            len(certs), 0, 0,
        )

    def test_dims_add(self):
        for dims in ((0, 0), (1, 2), (3, 0, 4)):
            cert = self.chain(*(identity_certificate(grid_cloud(dim=1), d, F(1, 2)) for d in dims))
            assert cert.target_dim == sum(dims)
            assert cert.epsilon == F(1, 2)
            assert [r.name for r in cert.obligations] == [
                *["identity-embedding-fibers-are-points"] * len(dims),
                "product-dims-additive",
                "chain-itinerary-covers-range",
            ]
            assert cert.obligations[-2].data == (
                ("factors", ";".join(map(str, dims))), ("total", str(sum(dims))),
            )
            assert all(recheck_structural(r) for r in cert.obligations)

    def test_one_block_records_no_sum(self):
        cert = self.chain(identity_certificate(grid_cloud(dim=1), 2, F(1, 2)))
        assert cert.target_dim == 2
        assert [r.name for r in cert.obligations] == [
            "identity-embedding-fibers-are-points", "chain-itinerary-covers-range",
        ]

    def test_one_point_factor_keeps_dim(self):
        c = identity_certificate(grid_cloud(dim=1), 3, F(1, 2))
        p = identity_certificate(one_point_handle(), 0, F(1, 2))
        assert self.chain(c, p).target_dim == 3
        assert self.chain(p, c).target_dim == 3

    def test_mismatched_epsilon(self):
        c1 = identity_certificate(grid_cloud(dim=1), 1, F(1, 2))
        c2 = identity_certificate(grid_cloud(dim=1), 1, F(1, 3))
        with pytest.raises(PreconditionError, match="mismatched epsilon"):
            self.chain(c1, c2)

    def test_no_blocks(self):
        with pytest.raises(PreconditionError, match="no blocks to chain"):
            chain_fiber_certificate(grid_cloud(), lambda x, t: x[t], [], 1, 0, 0)

    def test_evaluator_and_metric_are_the_blocks(self):
        # the second block halves its coordinate and triples its metric
        one = identity_certificate(grid_cloud(dim=1), 1, F(1, 2))
        halve = EpsEmbeddingCertificate(
            one.domain, 1, F(1, 2), lambda x: x / 2, one.obligations,
            lambda a, b, cap: 3 * abs(a - b),
        )
        cert = self.chain(one, halve)
        rng = random.Random(0)
        for _ in range(20):
            x, y = cert.domain.sample(rng), cert.domain.sample(rng)
            fx, fy = cert.evaluator(x), cert.evaluator(y)
            assert fx == (x[0], x[1] / 2)
            assert cert.target_dist(fx, fy, None) == max(abs(x[0] - y[0]), 3 * abs(fx[1] - fy[1]))


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
        point = identity_certificate(one_point_handle(), 0, F(1, 2))
        prod = chain_fiber_certificate(
            grid_cloud(), lambda x, t: x[t], [(c, 1), (point, 1)], 2, 0, 0
        )
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
            grid_cloud(dim=1), self.shift, [(block, 8)], 8, 0, 0
        )
        assert cert.target_dim == block.target_dim

    def test_two_blocks(self):
        blocks = [(self.make_block(1), 4), (self.make_block(1), 4)]
        cert = chain_fiber_certificate(
            grid_cloud(dim=1), self.shift, blocks, 8, 0, 0
        )
        assert cert.target_dim == 2

    def test_inconsistent_offsets(self):
        blocks = [(self.make_block(1), 4)]
        with pytest.raises(PreconditionError, match="inconsistent"):
            chain_fiber_certificate(grid_cloud(dim=1), self.shift, blocks * 3, 8, 0, 0)
        # a block of nonpositive length covers nothing, wherever it sits
        for length in (0, -2):
            blocks = [(self.make_block(1), 4), (self.make_block(1), length)]
            with pytest.raises(PreconditionError, match="inconsistent"):
                chain_fiber_certificate(
                    grid_cloud(dim=1), self.shift, blocks + blocks[:1], 8, 0, 0
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
                grid_cloud(dim=1), self.shift, blocks, N, start, margin
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
            lambda x: x, grid_cloud(), F(1, 2), trials=500, seed=3, target_dist=flat_linf
        )
        assert record.status == SAMPLED_ONLY
        assert record.data_dict["violations"] == "0"

    def test_constant_map_on_wide_domain_fails(self):
        record = sample_fiber_check(
            lambda x: (F(0),), grid_cloud(), F(1, 2), trials=500, seed=4,
            target_dist=flat_linf,
        )
        assert record.status == FAILED
        assert record.witness is not None

    def test_structurally_discharged_certificate_passes(self):
        cert = identity_certificate(grid_cloud(), 2, F(1, 2))
        assert all_structural_discharged(cert)
        record = check_certificate(cert, trials=400, seed=5)
        assert record.status == SAMPLED_ONLY

    def test_determinism(self):
        a = sample_fiber_check(
            lambda x: x, grid_cloud(), F(1, 2), trials=200, seed=9, target_dist=flat_linf
        )
        b = sample_fiber_check(
            lambda x: x, grid_cloud(), F(1, 2), trials=200, seed=9, target_dist=flat_linf
        )
        assert a == b


class TestRecords:
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

    BOOKKEEPING = {"total_dim": "6", "bound": "40/3", "window_length": "32", "m": "3"}
    SCALES = {
        "from_scale": "1/4", "to_scale": "1/2", "block_scale": "1/4", "mesh_scale": "1/8",
        "two_sided_tail": "1/64",
    }
    DISJOINT = {"pairwise_disjoint": "true", "count": "2"}

    @pytest.mark.parametrize("name, data, changes", [
        ("dimension-bookkeeping", BOOKKEEPING, {"total_dim": "-5"}),
        ("dimension-bookkeeping", BOOKKEEPING, {"bound": "80/6"}),
        ("dimension-bookkeeping", BOOKKEEPING, {"window_length": "-1", "m": "-3"}),
        ("dimension-bookkeeping", BOOKKEEPING, {"m": "0"}),
        ("dimension-bookkeeping", BOOKKEEPING, {"window_length": "+32"}),
        ("scale-relaxation", SCALES, {"block_scale": "9", "mesh_scale": "-1",
                                      "two_sided_tail": "5"}),
        ("scale-relaxation", SCALES, {"block_scale": "1/2"}),
        ("scale-relaxation", SCALES, {"mesh_scale": "1/4"}),
        ("scale-relaxation", SCALES, {"mesh_scale": "0"}),
        ("scale-relaxation", SCALES, {"two_sided_tail": "0"}),
        ("scale-relaxation", SCALES, {"mesh_scale": "2/16"}),
        ("windows-pairwise-disjoint", DISJOINT, {"count": "-4"}),
        ("windows-pairwise-disjoint", DISJOINT, {"count": "02"}),
        ("windows-pairwise-disjoint", DISJOINT, {"pairwise_disjoint": "false"}),
        ("product-dims-additive", {"factors": "1;2", "total": "3"},
         {"factors": "-3;2", "total": "-1"}),
        ("product-dims-additive", {"factors": "1;2", "total": "3"}, {"factors": "1;;2"}),
        ("product-dims-additive", {"factors": "0", "total": "0"}, {"factors": ""}),
        ("wedge-dimension-count",
         {"n": "2", "cone_dim": "1", "count_bound": "3", "global_cone_dim": "1", "wedge_dim": "5"},
         {"n": "-1", "wedge_dim": "2"}),
        ("subsampled-visits-bound",
         {"count_bound": "3", "steps": "2", "step_length": "4", "complement_ocap": "1/2",
          "graph_size": "1"},
         {"count_bound": "-1"}),
        ("subsampled-visits-bound",
         {"count_bound": "3", "steps": "2", "step_length": "4", "complement_ocap": "1/2",
          "graph_size": "1"},
         {"steps": "-2", "step_length": "-4"}),
        ("star-mesh-grid-bound", {"grid": "17", "bound": "2/17", "scale": "1/8"}, {"grid": "1_7"}),
        ("bucket-dimension-bound", {"source_dim": "8", "m": "3", "bucket": "1", "dim": "2"},
         {"source_dim": " 8", "m": "+3"}),
        ("chain-itinerary-covers-range", {"lengths": "8;8", "start": "0", "margin": "0", "N": "16"},
         {"start": "-0"}),
        ("scale-relaxation", SCALES, {"from_scale": " 1/4"}),
        ("scale-relaxation", {**SCALES, "to_scale": "1"}, {"to_scale": "1/1"}),
        ("star-mesh-inherited-bound", {"parent_mesh": "1/17", "scale": "1/8"},
         {"parent_mesh": "2/34"}),
        ("window-tail-rule", {"margin": "3", "threshold": "1/4", "two_sided_tail": "1/2"},
         {"threshold": "2/8"}),
    ])
    def test_only_the_written_spelling_rechecks(self, name, data, changes):
        # int() and the old rational parser read each tampered value as one
        # that keeps the record's own inequality; every field is read, so an
        # impossible value in a field the inequality does not use fails too
        assert recheck_structural(structural_record(name, **data))
        assert not recheck_structural(structural_record(name, **{**data, **changes}))

    @pytest.mark.parametrize("name, data", [
        ("dimension-bookkeeping",
         {"total_dim": "9", "bound": "40/3", "window_length": "-1", "m": "-3"}),
        ("dimension-bookkeeping",
         {"total_dim": "20", "bound": "40/3", "window_length": "32", "m": "0"}),
        ("product-dims-additive", {"factors": "-3;5", "total": "2"}),
        ("chain-itinerary-covers-range",
         {"lengths": "0;16", "start": "0", "margin": "0", "N": "16"}),
        ("chain-itinerary-covers-range",
         {"lengths": "8;8", "start": "0", "margin": "-1", "N": "16"}),
        ("bucket-dimension-bound", {"source_dim": "8", "m": "3", "bucket": "1", "dim": "-1"}),
        ("scale-relaxation", {**SCALES, "block_scale": "1/8", "mesh_scale": "1/16"}),
        ("scale-relaxation", {**SCALES, "mesh_scale": "-1/8"}),
        ("scale-relaxation", {**SCALES, "to_scale": "1/8", "two_sided_tail": "0"}),
        ("window-tail-rule", {"margin": "3", "threshold": "1/4", "two_sided_tail": "1/3"}),
        ("window-tail-rule", {"margin": "-1", "threshold": "1/4", "two_sided_tail": "8"}),
        ("window-tail-rule", {"margin": "3", "threshold": "-1/4", "two_sided_tail": "1/2"}),
        ("wedge-dimension-count",
         {"n": "-1", "cone_dim": "-2", "count_bound": "0", "global_cone_dim": "1",
          "wedge_dim": "2"}),
        ("windows-pairwise-disjoint", {"pairwise_disjoint": "false", "count": "-4"}),
        ("windows-pairwise-disjoint", {"pairwise_disjoint": "maybe", "count": "2"}),
        ("subsampled-visits-bound",
         {"count_bound": "3", "steps": "-2", "step_length": "4", "complement_ocap": "1/2",
          "graph_size": "1"}),
        ("subsampled-visits-bound",
         {"count_bound": "3", "steps": "2", "step_length": "4", "complement_ocap": "-1/2",
          "graph_size": "9"}),
        ("star-mesh-inherited-bound", {"parent_mesh": "-1", "scale": "1/8"}),
        ("star-mesh-grid-bound", {"grid": "0", "bound": "1", "scale": "1/8"}),
        ("star-mesh-grid-bound", {"grid": "17", "bound": "1/17", "scale": "1/8"}),
        # totals are at least 0, scales and bounds above 0, and N at least 1
        ("product-dims-additive", {"factors": "1;2", "total": "-1"}),
        ("wedge-dimension-count",
         {"n": "2", "cone_dim": "1", "count_bound": "3", "global_cone_dim": "1",
          "wedge_dim": "-1"}),
        ("scale-relaxation", {**SCALES, "to_scale": "-1"}),
        ("dimension-bookkeeping", {**BOOKKEEPING, "bound": "-1"}),
        ("star-mesh-grid-bound", {"grid": "17", "bound": "2/17", "scale": "-1"}),
        ("star-mesh-inherited-bound", {"parent_mesh": "1/17", "scale": "-1"}),
        ("chain-itinerary-covers-range",
         {"lengths": "8;8", "start": "0", "margin": "0", "N": "-40"}),
        # a field outside the record's row: a citation carries no data
        ("coordinate-projection", {"margin": "3"}),
        ("empty-fiber", {"dim": "0"}),
        ("dimension-bookkeeping", {**BOOKKEEPING, "note": "1"}),
        ("product-dims-additive", {"factors": "1;2", "total": "3", "margin": "0"}),
        # a field of the row left out
        ("dimension-bookkeeping", {k: v for k, v in BOOKKEEPING.items() if k != "m"}),
        ("windows-pairwise-disjoint", {"pairwise_disjoint": "true"}),
    ])
    def test_impossible_field_fails_recheck_whatever_the_status(self, name, data):
        # each record has a field or a value no record of its kind ever
        # holds, or lacks a field each one holds, so it rechecks false both
        # as discharged and as failed, whether or not its premise holds on
        # the other fields
        assert not recheck_structural(structural_record(name, **data))
        assert not recheck_structural(structural_record(name, FAILED, ("tampered",), **data))

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
