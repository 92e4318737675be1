"""The benchmark's workloads: the commands of one pass, the input files they
read, and checks of their outputs that do not call the package under test.

A pass runs each workload's artifact-producing commands, then `verify` on
every artifact it wrote. Commands and paths are relative to a work directory
that the runner makes the current directory.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

DELTA_EPS = ("--delta", "1/2", "--eps", "1/2")

# Sizes per pass, chosen so that one pass takes a few seconds on 2 CPUs.
# Sampled certificates are split over several commands (each with its own
# seed) so that no timed command runs much longer than half a second.
FIBER_COMMANDS, FIBER_SAMPLES, FIBER_TRIALS = 4, 2, 30  # factor-fiber, N = 16
COUNT_SAMPLES = 200  # factor-fiber check-counts
NEAR_COMMANDS, NEAR_SAMPLES, NEAR_TRIALS = 4, 1, 10  # factor-near, N = 32
CUBE_SAMPLES, CUBE_TRIALS = 4, 250  # gromov-cube
ORBIT_INSTANCES = 2  # orbit-capacity: SFT, set and cover triples per pass
ORBIT_ALPHABET = 4
ORBIT_WORDS = (225, 235)  # recoded word graph: band of its node count
ORBIT_EDGES = (500, 530)  # and of its edge count
ORBIT_HORIZON = 512  # ocap --N


@dataclass(frozen=True)
class Command:
    """One CLI invocation. A produce command writes `artifact` and its output
    is checked by `check(stdout, artifact_json)`, which returns a list of
    problems; a verify command passes when it exits 0."""

    phase: str  # "produce" or "verify"
    argv: tuple
    artifact: str | None = None
    check: Callable | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable  # (seed, workdir) -> list of Commands; writes input files


def with_verify(produce) -> list:
    return list(produce) + [
        Command("verify", ("verify", c.artifact)) for c in produce
    ]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def sampled_fiber_records(artifact: dict):
    """Every SAMPLED fiber-sample-check record in the artifact's payload."""
    for cert in artifact["payload"].get("certificates", ()):
        for record in cert["obligations"]:
            if record["kind"] == "SAMPLED" and record["name"] == "fiber-sample-check":
                yield record


def check_fiber_batch(artifact: dict, bound_key: str, strict: bool, samples: int, trials: int):
    """Each certificate's target_dim is below the artifact's bound (at most
    the bound when `strict` is false), every STRUCTURAL record is
    discharged, and every sampled check ran all its trials without a
    violation."""
    problems = []
    payload = artifact["payload"]
    bound = Fraction(payload[bound_key])
    certs = payload["certificates"]
    if len(certs) != samples:
        problems.append(f"{len(certs)} certificates, expected {samples}")
    for i, cert in enumerate(certs):
        dim = cert["target_dim"]
        if not (dim < bound if strict else dim <= bound):
            problems.append(f"certificate {i}: target_dim {dim} not below {bound}")
        for record in cert["obligations"]:
            if record["kind"] == "STRUCTURAL" and record["status"] != "discharged":
                problems.append(f"certificate {i}: {record['name']} is {record['status']}")
    records = list(sampled_fiber_records(artifact))
    if len(records) != len(certs):
        problems.append(f"{len(records)} sampled checks for {len(certs)} certificates")
    for record in records:
        if record["status"] != "sampled-only":
            problems.append(f"sampled check {record['status']}")
        elif int(record["data"]["trials"]) != trials:
            problems.append(f"sampled check ran {record['data']['trials']} of {trials} trials")
    return problems


def check_all_near(artifact: dict):
    """With eta = 1 every pair is near: retracted points lie in the unit
    cube, so no two are farther apart than 1 in the max metric."""
    return [
        f"near pairs {r['data']['near_pairs']} of {r['data']['trials']} trials"
        for r in sampled_fiber_records(artifact)
        if r["data"]["near_pairs"] != r["data"]["trials"]
    ]


def check_instance(stdout: str, artifact: dict):
    return [
        f"required inequality {name}: {value}"
        for name, value, kind in artifact["payload"]["checks"]
        if kind == "required" and value != "holds"
    ]


def check_counts(stdout: str, artifact: dict):
    p = artifact["payload"]
    problems = []
    if p["violations"] != 0 or "violations: 0" not in stdout:
        problems.append(f"check-counts reports {p['violations']} violations")
    if not (p["max_count"] < Fraction(p["bound"]) and p["max_count"] <= p["block_bound"]):
        problems.append(f"max count {p['max_count']} over bound {p['bound']}")
    return problems


def witness_mean(sft: dict, constraints: list, witness: list):
    """Visit mean of the periodic point that repeats `witness`, counted
    directly from the SFT's transitions and the set's constraints; None when
    the witness is not a cycle of the SFT."""
    transitions = {tuple(t) for t in sft["transitions"]}
    period = len(witness)
    if not period or any(
        (witness[i], witness[(i + 1) % period]) not in transitions for i in range(period)
    ):
        return None
    hits = sum(
        all(
            witness[(t + offset + j) % period] == symbol
            for offset, word in constraints
            for j, symbol in enumerate(word)
        )
        for t in range(period)
    )
    return Fraction(hits, period)


def check_ocap_limit(stdout: str, artifact: dict):
    recipe, payload = artifact["recipe"], artifact["payload"]
    printed = stdout.strip()
    mean = witness_mean(recipe["sft"], recipe["set"], payload["witness"])
    if mean is None:
        return [f"witness {payload['witness']} is not a cycle of the SFT"]
    if Fraction(printed) != mean or payload["value"] != printed:
        return [f"printed ocap {printed}, witness cycle mean {mean}"]
    return []


def check_ocap_finite(limit_path: str, horizon: int):
    """The finite-horizon capacity is a multiple of 1/N, at most 1 and at
    least the limit, which is the infimum of the finite values."""

    def check(stdout: str, artifact: dict):
        value = Fraction(stdout.strip())
        limit = Fraction(json.loads(Path(limit_path).read_text())["payload"]["value"])
        if artifact["payload"]["value"] != stdout.strip():
            return [f"printed {stdout.strip()}, artifact {artifact['payload']['value']}"]
        if not (limit <= value <= 1 and (value * horizon).denominator == 1):
            return [f"ocap at N={horizon} is {value}, limit {limit}"]
        return []

    return check


def check_sbp(pieces: int):
    """The input is a cover, so its peeled complement is empty and has
    capacity exactly 0."""

    def check(stdout: str, artifact: dict):
        payload = artifact["payload"]
        problems = []
        if payload["complement_ocap"] != "0" or "complement ocap: 0" not in stdout:
            problems.append(f"complement ocap {payload['complement_ocap']}")
        if len(payload["pieces"]) != pieces:
            problems.append(f"{len(payload['pieces'])} pieces for a {pieces}-set cover")
        return problems

    return check


def check_width_map(stdout: str, artifact: dict):
    p = artifact["payload"]
    problems = []
    if p["fiber_bound"] != "1":
        problems.append(f"fiber bound {p['fiber_bound']} for a 2-cube with m = 2")
    if not Fraction(2, p["grid"]) < Fraction(1, 8):
        problems.append(f"grid {p['grid']} leaves the mesh 2/g at or above eps/4")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def prepare_factor_fiber(seed: int, workdir: Path) -> list:
    common = DELTA_EPS + ("--N", "16", "--seed", str(seed))
    produce = [
        Command(
            "produce",
            ("counterexample", "build") + common + ("--out", "instance.json"),
            "instance.json",
            check_instance,
        ),
        Command(
            "produce",
            ("counterexample", "check-counts") + common
            + ("--samples", str(COUNT_SAMPLES), "--out", "counts.json"),
            "counts.json",
            check_counts,
        ),
    ]
    for i in range(FIBER_COMMANDS):
        produce.append(
            Command(
                "produce",
                ("counterexample", "fiber-cert") + DELTA_EPS
                + ("--N", "16", "--seed", str(seed * FIBER_COMMANDS + i),
                   "--samples", str(FIBER_SAMPLES), "--trials", str(FIBER_TRIALS),
                   "--out", f"fibers{i}.json"),
                f"fibers{i}.json",
                lambda out, a: check_fiber_batch(a, "bound", True, FIBER_SAMPLES, FIBER_TRIALS),
            )
        )
    return with_verify(produce)


def prepare_factor_near(seed: int, workdir: Path) -> list:
    return with_verify(
        [
            Command(
                "produce",
                ("counterexample", "fiber-cert") + DELTA_EPS
                + ("--N", "32", "--eta", "1", "--seed", str(seed * NEAR_COMMANDS + i),
                   "--samples", str(NEAR_SAMPLES), "--trials", str(NEAR_TRIALS),
                   "--out", f"near{i}.json"),
                f"near{i}.json",
                lambda out, a: check_fiber_batch(a, "bound", True, NEAR_SAMPLES, NEAR_TRIALS)
                + check_all_near(a),
            )
            for i in range(NEAR_COMMANDS)
        ]
    )


def prepare_gromov_cube(seed: int, workdir: Path) -> list:
    return with_verify(
        [
            Command(
                "produce",
                ("gromov", "build", "--cube", "2", "--m", "2", "--eps", "1/2",
                 "--out", "map.json"),
                "map.json",
                check_width_map,
            ),
            Command(
                "produce",
                ("gromov", "fiber-check", "map.json", "--seed", str(seed),
                 "--samples", str(CUBE_SAMPLES), "--trials", str(CUBE_TRIALS),
                 "--out", "cube-fibers.json"),
                "cube-fibers.json",
                # the cube width map certifies fibers at dimension at most n/m
                lambda out, a: check_fiber_batch(
                    a, "fiber_bound", False, CUBE_SAMPLES, CUBE_TRIALS
                ),
            ),
        ]
    )


def _word_count(alphabet: int, transitions: set, length: int) -> int:
    paths = [1] * alphabet
    for _ in range(length - 1):
        paths = [
            sum(paths[b] for b in range(alphabet) if (a, b) in transitions)
            for a in range(alphabet)
        ]
    return sum(paths)


def _irreducible(alphabet: int, transitions: set) -> bool:
    for edges in (transitions, {(b, a) for a, b in transitions}):
        seen, stack = {0}, [0]
        while stack:
            a = stack.pop()
            for x, b in edges:
                if x == a and b not in seen:
                    seen.add(b)
                    stack.append(b)
        if len(seen) != alphabet:
            return False
    return True


def _window_length(alphabet: int, transitions: set):
    """The window length whose word graph has its node and edge counts in
    the bands, or None. Both counts grow with the length."""
    for length in range(2, 24):
        nodes = _word_count(alphabet, transitions, length)
        if nodes > ORBIT_WORDS[1]:
            return None
        if nodes >= ORBIT_WORDS[0]:
            edges = _word_count(alphabet, transitions, length + 1)
            return length if ORBIT_EDGES[0] <= edges <= ORBIT_EDGES[1] else None
    return None


def random_orbit_instance(rng: random.Random):
    """An irreducible SFT on ORBIT_ALPHABET symbols, a window length whose
    word graph has node and edge counts in ORBIT_WORDS and ORBIT_EDGES, a
    cylinder set spanning that window, and a clopen cover whose last set
    spans it too.

    Irreducible SFTs give one strongly connected word graph, so the cycle
    search always runs on the whole graph. Its cost grows with nodes times
    edges, and the narrow bands keep that close across seeds.
    """
    k = ORBIT_ALPHABET
    pairs = [(a, b) for a in range(k) for b in range(k)]
    while True:
        transitions = set(rng.sample(pairs, rng.randint(6, 10)))
        length = _irreducible(k, transitions) and _window_length(k, transitions)
        if length:
            break
    word = [rng.randrange(k)]
    while len(word) < length:
        word.append(rng.choice([b for a, b in sorted(transitions) if a == word[-1]]))
    word = [str(s) for s in word]
    sft = {
        "alphabet": [str(a) for a in range(k)],
        "transitions": sorted([str(a), str(b)] for a, b in transitions),
    }
    cylinder = [[0, word[0]], [length - 1, word[-1]]]
    cover = [[[0, str(a)]] for a in range(k)] + [[[0, "".join(word[:2])], [length - 1, word[-1]]]]
    return sft, cylinder, cover


def prepare_orbit_capacity(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    produce = []
    for i in range(ORBIT_INSTANCES):
        sft, cylinder, cover = random_orbit_instance(rng)
        (workdir / f"sft{i}.json").write_text(json.dumps(sft))
        (workdir / f"set{i}.json").write_text(json.dumps(cylinder))
        cover_files = []
        for j, piece in enumerate(cover):
            (workdir / f"cover{i}-{j}.json").write_text(json.dumps(piece))
            cover_files.append(f"cover{i}-{j}.json")
        base = ("ocap", "--sft", f"sft{i}.json", "--set", f"set{i}.json")
        produce += [
            Command(
                "produce", base + ("--limit", "--out", f"limit{i}.json"),
                f"limit{i}.json", check_ocap_limit,
            ),
            Command(
                "produce", base + ("--N", str(ORBIT_HORIZON), "--out", f"finite{i}.json"),
                f"finite{i}.json", check_ocap_finite(f"limit{i}.json", ORBIT_HORIZON),
            ),
            Command(
                "produce",
                ("sbp", "refine", "--sft", f"sft{i}.json", "--cover", *cover_files,
                 "--delta", "1/2", "--out", f"sbp{i}.json"),
                f"sbp{i}.json", check_sbp(len(cover)),
            ),
        ]
    return with_verify(produce)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "factor-fiber",
            "Closed-form Kuhn pipeline does almost all the work and d_N almost never "
            "runs: the bypass case for a d_N change and the main case for integer "
            "flag arithmetic.",
            prepare_factor_fiber,
        ),
        Workload(
            "factor-near",
            "With eta = 1 every sampled pair is near, so every trial pays a domain d_N "
            "at horizon 32; fiber points stay well inside eps, so nothing is violated.",
            prepare_factor_near,
        ),
        Workload(
            "gromov-cube",
            "The only workload that materializes complexes (Kuhn triangulation, "
            "subdivision, star meshes, partition fibers); it bypasses the Kuhn "
            "pipeline and d_N.",
            prepare_gromov_cube,
        ),
        Workload(
            "orbit-capacity",
            "Seeded SFTs, cylinder sets and covers with word graphs of a few hundred "
            "nodes: the only workload that reaches the visit-count DP and the Karp "
            "cycle search.",
            prepare_orbit_capacity,
        ),
    )
}
