"""Acceptance suite: one test per criterion, each timed against its budget
and printing a PASS line with the elapsed time."""

import json
import random
import time
from fractions import Fraction

import acceptance_report

from meandim.certificates import check_certificate, chain_fiber_certificate
from meandim.cli import main
from meandim.complexes import (
    SimplicialComplex,
    barycentric_subdivide,
    dimension_buckets,
    full_subcomplex,
)
from meandim.counterexample import (
    CounterexampleParams,
    FactorMapInstance,
    fiber_dimension_certificate,
    mdim_report,
    nonzero_count_check,
    wedge_cone_embedding,
)
from meandim.symbolic import (
    CylinderSet,
    max_subsampled_visits,
    ocap_finite_N,
    ocap_limit,
)
from meandim.widthmaps import cube_width_map
from oracles import (
    all_structural_discharged,
    finite_cloud_handle,
    full_shift,
    golden_mean,
    identity_certificate,
    pullback_certificate,
)

F = Fraction


class Stopwatch:
    def __init__(self, budget_seconds):
        self.budget = budget_seconds
        self.start = time.monotonic()

    def check(self, number, description):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.budget, (
            f"criterion {number} exceeded its {self.budget}s budget: {elapsed:.1f}s"
        )
        acceptance_report.record(number, self.budget, elapsed, description)


def test_criterion_1_bucket_dimensions():
    watch = Stopwatch(1)
    K = SimplicialComplex.from_maximal(["a", "b", "c"], [["a", "b", "c"]])
    Kp = barycentric_subdivide(K)
    P = dimension_buckets(Kp, 2)
    assert full_subcomplex(Kp, P.blocks[0]).dim == 1
    assert full_subcomplex(Kp, P.blocks[1]).dim == 0
    watch.check(1, "dimension buckets of the 2-simplex at m=2 are 1 and 0")


def test_criterion_2_cube_width_map():
    watch = Stopwatch(60)
    wm = cube_width_map(2, 2, F(1, 2))
    assert wm.fiber_bound == F(2, 2) == 1
    rng = random.Random(2024)
    for i in range(50):
        p = (F(rng.randint(0, 840), 840),)
        cert = wm.fiber_certificate(p)
        assert cert.target_dim <= 1
        assert all_structural_discharged(cert)
        mesh_records = [r for r in cert.obligations if r.name == "star-mesh-inherited-bound"]
        assert mesh_records, "missing mesh obligation"
        mesh_value = F(*map(int, mesh_records[0].data_dict["parent_mesh"].split("/")))
        assert mesh_value < F(1, 2) / 4
        record = check_certificate(cert, trials=1000, seed=i)
        assert record.status == "sampled-only"
        assert record.data_dict["violations"] == "0"
    watch.check(2, "50 cube width-map fibers certify dim <= 1 with mesh < eps/4")


def test_criterion_3_counterexample_count_bound():
    watch = Stopwatch(30)
    params = CounterexampleParams(F(1, 2), F(1, 2), 80)
    assert params.level == 3 and params.period == 8 and params.m == 3
    inst = FactorMapInstance(params)
    report = nonzero_count_check(inst, samples=200)
    assert not report.violations
    assert report.bound == 26
    assert report.max_count < 26
    assert report.block_bound == (80 // 8 + 1) * (3 - 1) == 22
    assert report.max_count <= 22
    watch.check(3, "200 samples: nonzero counts < 26 and within the block form 22")


def test_criterion_4_counterexample_fiber_bound():
    watch = Stopwatch(120)
    params = CounterexampleParams(F(1, 2), F(1, 2), 80)
    assert params.margin == 3
    inst = FactorMapInstance(params)
    bound = F(80 + 2 * 3 + 2 * 9, 3)
    rng = random.Random(4)
    for _ in range(20):
        state = inst.sample_state(rng)
        cert = fiber_dimension_certificate(inst, state)
        assert F(cert.target_dim) < bound
        assert all_structural_discharged(cert)
    watch.check(4, "20 fiber certificates stay strictly below (N+2M+2L')/m = 104/3")


def test_criterion_5_ratio_table():
    watch = Stopwatch(120)
    rows = mdim_report(F(1, 2), [8, 16, 32, 64], [F(1, 2)])
    params = CounterexampleParams(F(1, 2), F(1, 2), 8)
    for row in rows:
        identity_bound = F(1, params.m) + F(
            2 * params.margin + 2 * params.L_prime, params.m * row.N
        )
        assert row.fiber_dim_over_N <= identity_bound
        if row.N >= 32:
            assert row.fiber_dim_over_N < F(1, 2)
    watch.check(5, "ratio table bounded by 1/m + (2M+2L')/(mN), below delta from N=32")


def test_criterion_6_orbit_capacity():
    watch = Stopwatch(10)
    full = full_shift("01")
    assert ocap_limit(full, CylinderSet.from_constraints(full, [(0, "1")])).value == 1
    gm = golden_mean()
    one = CylinderSet.from_constraints(gm, [(0, "1")])
    assert ocap_limit(gm, one).value == F(1, 2)
    rng = random.Random(6)
    for _ in range(100):
        wa = rng.choice(gm.words(rng.randint(1, 3)))
        wb = rng.choice(gm.words(rng.randint(1, 3)))
        A = CylinderSet.from_constraints(gm, [(rng.randint(-2, 2), wa)])
        B = CylinderSet.from_constraints(gm, [(rng.randint(-2, 2), wb)])
        assert (
            ocap_limit(gm, A.union(B)).value
            <= ocap_limit(gm, A).value + ocap_limit(gm, B).value
        )
    limit = ocap_limit(gm, one)
    for N in range(1, 65):
        finite = ocap_finite_N(gm, one, N)
        assert finite >= limit.value
        assert finite - limit.value <= F(limit.graph_size, N)
    watch.check(6, "orbit capacity exact values, subadditivity, convergence gap")


def test_criterion_7_certificate_algebra():
    watch = Stopwatch(10)
    rng = random.Random(7)

    def cloud():
        pts = [(F(i, 4), F(j, 4)) for i in range(5) for j in range(5)]
        return finite_cloud_handle(pts)

    def line():
        return finite_cloud_handle([(F(i, 4),) for i in range(5)])

    for _ in range(100):
        eps = F(1, rng.randint(2, 8))
        d1, d2 = rng.randint(0, 4), rng.randint(0, 4)
        c1 = identity_certificate(line(), d1, eps)
        c2 = identity_certificate(line(), d2, eps)
        # two blocks of length 1, each reading one coordinate of the cloud
        prod = chain_fiber_certificate(cloud(), lambda x, t: x[t], [(c1, 1), (c2, 1)], 2, 0, 0)
        assert prod.target_dim == d1 + d2
        pulled = pullback_certificate(
            prod, cloud(), lambda x: x, witness="isometric-inclusion"
        )
        assert pulled.target_dim == prod.target_dim
        assert pulled.epsilon == prod.epsilon
        k = rng.randint(1, 5)
        blocks = [
            (identity_certificate(cloud(), rng.randint(0, 3), eps), rng.randint(1, 6))
            for _ in range(k)
        ]
        total = sum(length for _, length in blocks)
        N = rng.randint(max(1, total - blocks[-1][1] + 1), total)
        chain = chain_fiber_certificate(cloud(), lambda x, t: x, blocks, N, 0, 0)
        assert chain.target_dim == sum(cert.target_dim for cert, _ in blocks)
        a = max(F(cert.target_dim + 1, length) for cert, length in blocks)
        longest = max(length for _, length in blocks)
        assert chain.target_dim < a * (N + longest)
    watch.check(7, "100 randomized product/pullback/chain certificates")


def test_criterion_8_wedge_cone():
    watch = Stopwatch(60)
    from wedge_fixtures import golden_instance  # local helper module

    inst = golden_instance()
    n, N = 4, 4
    cert = wedge_cone_embedding(inst, N=N, n=n)
    wedge_dim = max(c.target_dim + 1 for c in inst.fiber_certs)
    assert cert.target_dim == n * wedge_dim
    assert all_structural_discharged(cert)

    base = golden_mean()
    pieces = [
        CylinderSet.from_constraints(base, [(0, ("0", "0"))]),
        CylinderSet.from_constraints(base, [(0, ("1",))]),
    ]
    punctured = golden_instance(pieces=pieces)
    cert2 = wedge_cone_embedding(punctured, N=N, n=n)
    complement = punctured.complement
    assert not complement.is_empty
    c = ocap_limit(base, complement)
    assert c.value > 0
    count = max_subsampled_visits(base, complement, n, N)
    assert count > 0
    assert F(count) <= n * N * ocap_finite_N(base, complement, n * N)
    assert F(count) <= c.value * n * N + c.graph_size
    assert cert2.target_dim == n * wedge_dim + count * (
        punctured.global_cert.target_dim + 1
    )
    watch.check(8, "wedge-cone dims: exact for full cover, ocap-bounded when punctured")


def test_criterion_9_determinism_and_verification(tmp_path, monkeypatch, capsys):
    watch = Stopwatch(10)
    monkeypatch.chdir(tmp_path)
    sft_path = tmp_path / "golden.json"
    sft_path.write_text(json.dumps(golden_mean().to_json_dict()))
    one_path = tmp_path / "one.json"
    one_path.write_text(json.dumps([[0, "1"]]))
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps([[0, "0"]]))
    v2 = tmp_path / "v2.json"
    v2.write_text(json.dumps([[0, "1"]]))

    artifacts = []

    map_path = tmp_path / "map.json"
    assert main(["gromov", "build", "--cube", "1", "--m", "2", "--eps", "1/2",
                 "--out", str(map_path)]) == 0
    artifacts.append(map_path)
    fibers_path = tmp_path / "map-fibers.json"
    assert main(["gromov", "fiber-check", str(map_path), "--samples", "3",
                 "--seed", "9", "--trials", "100", "--out", str(fibers_path)]) == 0
    artifacts.append(fibers_path)

    ocap_path = tmp_path / "ocap.json"
    assert main(["ocap", "--sft", str(sft_path), "--set", str(one_path), "--limit",
                 "--out", str(ocap_path)]) == 0
    artifacts.append(ocap_path)

    sbp_path = tmp_path / "sbp.json"
    assert main(["sbp", "refine", "--sft", str(sft_path), "--cover", str(v1), str(v2),
                 "--delta", "1/2", "--out", str(sbp_path)]) == 0
    artifacts.append(sbp_path)

    counts_path = tmp_path / "counts.json"
    assert main(["counterexample", "check-counts", "--delta", "1/2", "--eps", "1/2",
                 "--N", "16", "--samples", "5", "--seed", "9",
                 "--out", str(counts_path)]) == 0
    artifacts.append(counts_path)

    cert_path = tmp_path / "fiber-cert.json"
    assert main(["counterexample", "fiber-cert", "--delta", "1/2", "--eps", "1/2",
                 "--N", "8", "--samples", "1", "--seed", "9", "--trials", "50",
                 "--out", str(cert_path)]) == 0
    artifacts.append(cert_path)

    for path in artifacts:
        assert main(["verify", str(path)]) == 0, f"verify failed for {path.name}"

    twin = tmp_path / "counts-twin.json"
    assert main(["counterexample", "check-counts", "--delta", "1/2", "--eps", "1/2",
                 "--N", "16", "--samples", "5", "--seed", "9",
                 "--out", str(twin)]) == 0
    assert twin.read_bytes() == counts_path.read_bytes()

    artifact = json.loads(cert_path.read_text())
    for entry in artifact["payload"]["certificates"][0]["obligations"]:
        if entry["name"] == "star-mesh-grid-bound":
            entry["data"]["bound"] = "1/3"
    cert_path.write_text(json.dumps(artifact))
    assert main(["verify", str(cert_path)]) == 3
    watch.check(9, "artifacts re-verify; same seed is byte-identical; tampering exits 3")
