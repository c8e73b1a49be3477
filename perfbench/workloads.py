"""The three benchmark workloads: inputs, set-up, one op, and the output checks.

Every workload is a closed loop with one caller.  Op i runs input i mod
INPUTS_PER_SEED, so a run repeats each input several times; the inputs and
shot seeds are drawn from the workload seed with the benchmark's own
SplitMix64 hash, never from the library's RNG.

An op's output is reduced to a small *record*.  Records are compared with the
pinned goldens when the seed is pinned (goldens.json), else with the first
record of the same input in the run, and every record must also pass checks
that hold for any seed (the statistics of the shot-based outputs, the oracle
values).
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

INPUTS_PER_SEED = 16

# The acceptance fixture gate (tests/conftest.py FIXTURE_R), copied as data.
FIXTURE_R = (
    (0.5265, 0.1508, 0.0963, 0.0305),
    (0.1941, 0.1467, 0.0410, 0.0370),
    (0.3334, 0.2018, 0.1079, 0.0126),
    (0.1588, 0.0160, 0.0546, 0.0302),
)
FIXTURE_BETA = 2.0

ESTIMATE_N, ESTIMATE_SHOTS, ESTIMATE_PSI0_STEPS = 4, 100_000, 6
DEEP_N, DEEP_M, DEEP_SHOTS = 6, 2, 40_000
ORACLE_N = 9

# Seed-independent checks.  The estimator scatters below lambda_1 (520 random
# inputs: deviations from -0.064 to +0.025, mean -0.021, sd 0.017), so the
# window is wide enough never to fail a correct run and narrow enough to catch
# a wrong one.
ESTIMATE_WINDOW = (-0.2, 0.08)
# Hellinger-type distance of the deep output from the exact T^2 e0: about
# 0.12 +- 0.01 at ~2500 meaningful shots.
DEEP_MAX_DISTANCE = 0.25
# Meaningful-shot count against the exact keep probability, binomial z-score.
DEEP_MAX_Z = 6.0
# Power-method values may move by more than the solver's own tol (1e-10) in a
# correct rewrite: power and dense already differ by ~1e-11.
ORACLE_RTOL = 1e-8

_MASK = (1 << 64) - 1


def _mix64(x: int) -> int:
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def draw(*words: int) -> int:
    """64-bit hash of a tuple of integers (chained SplitMix64)."""
    x = 0
    for w in words:
        x = _mix64((x + (w & _MASK) + 0x9E3779B97F4A7C15) & _MASK)
    return x


def shot_seed(seed: int, j: int) -> int:
    return draw(seed, j, 1) >> 32


def positive_input(seed: int, j: int, dim: int) -> np.ndarray:
    """Seeded random entrywise-positive unit vector."""
    u = np.array([(draw(seed, j, 2, k) >> 11) * 2.0 ** -53 for k in range(dim)]) + 1e-12
    return u / np.linalg.norm(u)


def fixture_model(vs):
    """Vertex model whose Boltzmann gate is FIXTURE_R."""
    eps = -np.log(np.array(FIXTURE_R)) / FIXTURE_BETA
    flat = [eps[2 * l + d, 2 * r + u]
            for l in range(2) for d in range(2) for r in range(2) for u in range(2)]
    return vs.VertexModel(energies=tuple(flat), beta=FIXTURE_BETA)


def counts_digest(counts: dict[str, int]) -> str:
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()


class Workload:
    """One workload bound to the imported package and a seed.

    `setup` builds what the ops need, `op(j)` runs input j, `record` reduces
    an output to what the goldens pin, `same` compares two records, and
    `problems` lists the checks that fail for any seed.
    """

    calibration = "python"  # the calibrate.py kernel whose drift the op follows

    def __init__(self, vs, seed: int, reference: dict):
        self.vs = vs
        self.seed = seed
        self.reference = reference

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, j: int):
        raise NotImplementedError

    def record(self, out) -> dict:
        raise NotImplementedError

    def same(self, got: dict, want: dict) -> bool:
        return got == want

    def problems(self, out) -> list[str]:
        raise NotImplementedError


def _fixture_plan(workload: Workload, n: int, m: int) -> None:
    """Model, gate, factors and plan of the fixture gate.

    The ops build their own plan inside the library; this one is built so
    that set-up time covers plan building, as a user of the API pays it.
    """
    vs = workload.vs
    workload.model = fixture_model(vs)
    workload.factors = vs.svd_scaled(vs.r_matrix(workload.model))
    workload.plan = vs.build_t_plan(workload.factors, n, m)


class Estimate(Workload):
    shots_per_op = ESTIMATE_SHOTS * (ESTIMATE_PSI0_STEPS + 1)

    def setup(self) -> None:
        _fixture_plan(self, ESTIMATE_N, 1)
        dim = 2 ** (ESTIMATE_N + 1)
        self.inputs = [positive_input(self.seed, j, dim) for j in range(INPUTS_PER_SEED)]

    def op(self, j: int):
        return self.vs.estimate_lambda1(
            self.model, ESTIMATE_N, self.inputs[j], shots=ESTIMATE_SHOTS,
            seed=shot_seed(self.seed, j), backend="shot", psi0_iterations=ESTIMATE_PSI0_STEPS,
        )

    def record(self, out) -> dict:
        return {"f0": out.f0, "f1": out.f1, "estimate": out.estimate}

    def problems(self, out) -> list[str]:
        bad = []
        lam1 = self.reference["oracle_lambda1"]
        if out.shots_used != self.shots_per_op or out.psi0_iterations != ESTIMATE_PSI0_STEPS:
            bad.append(f"used {out.shots_used} shots in {out.psi0_iterations} steps")
        if out.degenerate or not (0.0 < out.f0 <= 1.0 + 1e-12 and 0.0 < out.f1 <= 1.0 + 1e-12):
            bad.append(f"bad overlaps f0={out.f0!r} f1={out.f1!r}")
        lo, hi = ESTIMATE_WINDOW
        if not lam1 + lo <= out.estimate <= lam1 + hi:
            bad.append(f"estimate {out.estimate!r} outside lambda_1 {lam1} + {ESTIMATE_WINDOW}")
        if out.oracle_lambda1 is None or not math.isclose(
                out.oracle_lambda1, lam1, rel_tol=ORACLE_RTOL, abs_tol=0.0):
            bad.append(f"oracle lambda_1 {out.oracle_lambda1!r} != {lam1!r}")
        return bad


class Deep(Workload):
    def setup(self) -> None:
        _fixture_plan(self, DEEP_N, DEEP_M)
        self.e0 = np.zeros(2 ** (DEEP_N + 1))
        self.e0[0] = 1.0

    def op(self, j: int):
        return self.vs.simulated_t_action(
            self.model, DEEP_N, DEEP_M, self.e0, shots=DEEP_SHOTS,
            seed=shot_seed(self.seed, j), mode="deep",
        )

    def record(self, out) -> dict:
        hist = out[1].final_histogram
        return {"meaningful_shots": hist.meaningful_shots,
                "counts_sha256": counts_digest(hist.counts)}

    def problems(self, out) -> list[str]:
        vec, diag = out
        hist = diag.final_histogram
        bad = []
        width = DEEP_N * DEEP_M + DEEP_N + 1
        if sum(hist.counts.values()) != hist.meaningful_shots:
            bad.append("histogram counts do not sum to meaningful_shots")
        if any(len(k) != width or int(k, 2) >= 2 ** (DEEP_N + 1) for k in hist.counts):
            bad.append("histogram holds a record that is not meaningful")
        if hist.total_shots != DEEP_SHOTS:
            bad.append(f"histogram has {hist.total_shots} shots")
        p = self.reference["keep_probability"]
        z = (hist.meaningful_shots - DEEP_SHOTS * p) / math.sqrt(DEEP_SHOTS * p * (1 - p))
        if abs(z) > DEEP_MAX_Z:
            bad.append(f"meaningful shots {hist.meaningful_shots} off the keep probability (z={z:.1f})")
        dist = float(np.linalg.norm(vec - np.array(self.reference["output"])))
        if not dist <= DEEP_MAX_DISTANCE:
            bad.append(f"output is {dist:.3f} from the exact T^2 e0")
        return bad


class Oracle(Workload):
    """The input is the README model; nothing in it depends on the seed."""

    calibration = "dense"

    def setup(self) -> None:
        self.model = self.vs.generate_model(c=0.4, beta=2.0, seed=7)

    def op(self, j: int):
        vs = self.vs
        return vs.spectral_summary(vs.assemble_transfer(vs.r_matrix(self.model), ORACLE_N),
                                   method="power")

    def record(self, out) -> dict:
        return {"lambda0": out.lambda0, "ratio": out.ratio}

    def same(self, got: dict, want: dict) -> bool:
        return all(math.isclose(got[k], want[k], rel_tol=ORACLE_RTOL, abs_tol=0.0)
                   for k in ("lambda0", "ratio"))

    def problems(self, out) -> list[str]:
        if not self.same(self.record(out), self.reference):
            return [f"lambda0={out.lambda0!r} ratio={out.ratio!r}, want {self.reference}"]
        if out.iterations <= 0:
            return [f"spectral summary reports {out.iterations} iterations"]
        return []


WORKLOADS = {"estimate": Estimate, "deep": Deep, "oracle": Oracle}
