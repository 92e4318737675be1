"""Shared fixtures for wedge-cone embedding tests: a golden-mean base crossed
with a rational grid cloud, with window-snap embeddings at a common scale."""

from fractions import Fraction

from meandim.certificates import (
    EpsEmbeddingCertificate,
    MetricSpaceHandle,
    structural_record,
)
from meandim.counterexample import build_sbp_instance
from meandim.symbolic import SYMBOL_METRIC, CylinderSet, WindowSeq, d_N
from oracles import golden_mean

F = Fraction


def cube_cloud_points(side=4):
    return [(F(i, side), F(j, side)) for i in range(side + 1) for j in range(side + 1)]


def make_x_domain(base, span, eps, N):
    pts = cube_cloud_points()

    def sample(rng):
        lo, hi = span
        symbols = []
        prev = None
        order = sorted(base.alphabet)
        for _ in range(hi - lo):
            choices = (
                order
                if prev is None
                else [b for b in order if (prev, b) in base.transitions]
            )
            prev = choices[rng.randrange(len(choices))]
            symbols.append(prev)
        payload = pts[rng.randrange(len(pts))]
        return (WindowSeq(lo, tuple(symbols)), payload)

    def dist(a, b):
        base_part = d_N(SYMBOL_METRIC, N, a[0], b[0])
        payload_part = max(abs(p - q) for p, q in zip(a[1], b[1]))
        return max(base_part, payload_part)

    return MetricSpaceHandle("product", "base x cube cloud", dist, sample)


def snap_embedding_cert(domain, eps, snap_lo, snap_hi):
    """Window snap on the base times identity on the payload: fibers fix the
    payload and the base word on [snap_lo, snap_hi)."""

    def evaluator(point):
        window, payload = point
        return (window.restrict(snap_lo, snap_hi), payload)

    def target_dist(a, b, cap):
        word_part = F(0) if a[0] == b[0] else F(1)
        payload_part = max(abs(p - q) for p, q in zip(a[1], b[1]))
        return max(word_part, payload_part)

    return EpsEmbeddingCertificate(
        domain=domain,
        target_dim=2,
        epsilon=eps,
        evaluator=evaluator,
        obligations=(structural_record("identity-embedding-fibers-are-points"),),
        target_dist=target_dist,
    )


def golden_instance(eps=F(1, 2), N=4, n=4, pieces=None):
    base = golden_mean()
    span = (-6, n * N + 8)
    domain = make_x_domain(base, span, eps, N)
    cover = [
        CylinderSet.from_constraints(base, [(0, ("0",))]),
        CylinderSet.from_constraints(base, [(0, ("1",))]),
    ]
    snap_lo, snap_hi = -4, N + 4
    certs = [snap_embedding_cert(domain, eps, snap_lo, snap_hi) for _ in cover]
    global_cert = snap_embedding_cert(domain, eps, snap_lo, snap_hi)
    return build_sbp_instance(
        base, cover, F(1, 2), certs, global_cert, span, pieces=pieces
    )
