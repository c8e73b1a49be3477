"""Transfer-matrix circuits and the measurements built on top of them.

Circuit layout (matching the row-product order): column k of the lattice
lives on wire k-1, the shared lateral bond on wire n, the ancilla on wire
n+1.  One transfer block applies, for k = n down to 1, the factor sequence
V -> dilation -> post-select -> U on wires (k-1, n[, ancilla]); the rightmost
gate of the operator product acts first.  The dense-analysis basis instead
keeps the lateral bond at qubit 0 and column k at qubit k, so circuit and
oracle vectors differ by the index rotation implemented in
`wire_to_dense_map`.  All public functions in this module speak the dense
basis and translate internally.

Classical register of a block plan: width n*m + n + 1, the m*n post-selection
outcomes fill the high bits in program order, the final data measurement the
low n+1 bits; a record is meaningful iff its value is below 2^(n+1).

The experiment functions re-derive R on every call; `svd_scaled` factorizes
each distinct R once, and each transfer plan is built once per distinct
(factors, n, m_power), so repeated calls on one model reuse the factors and
the validated plan.  `build_t_plan` itself always returns a fresh plan, and
refuses more than MAX_POST_SELECTIONS post-selections.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .dilation import SVDFactors, X_GATE, controlled_reflection, dilate, svd_scaled, terashima_decomposition
from .errors import (ConvergenceError, DimensionError, InsufficientStatisticsError, ValidationError,
                     require_positive_int)
from .model import VertexModel, r_matrix
from .rng import substream_seed
from .simulator import (
    MAX_STATE_AMPLITUDES,
    ApplyUnitary,
    CircuitPlan,
    MeasureAll,
    ShotHistogram,
    run_exact,
    run_shots,
)
from .transfer import assemble_transfer, spectral_summary

DEFAULT_MEANINGFUL_FLOOR = 1000

# Most post-selections, n * m_power, that one transfer circuit may hold.  A
# plan keeps four instructions per post-selection, 0.7-0.9 KB in all, so the
# budget bounds a plan near 60 MB before any of it is built; criterion 9's
# plans (n <= 50, one block) stay far inside it.
MAX_POST_SELECTIONS = 1 << 16

MODES = ("deep", "refeed", "exact")


def wire_to_dense_map(n: int) -> np.ndarray:
    """dense_index[wire_index]: rotate the lateral bond from wire n to qubit 0."""
    w = np.arange(2 ** (n + 1))
    return ((w & (2 ** n - 1)) << 1) | (w >> n)


def dense_from_wire(wire_vec: np.ndarray, n: int) -> np.ndarray:
    out = np.empty_like(wire_vec)
    out[wire_to_dense_map(n)] = wire_vec
    return out


def wire_from_dense(dense_vec: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(dense_vec)[wire_to_dense_map(n)]


def check_plan_size(n: int, m_power: int) -> None:
    """Reject n * m_power post-selections over MAX_POST_SELECTIONS.

    Runs before a plan or a refeed loop is built, so a huge n or m_power is a
    ValidationError before the first of its 4 * n * m_power instructions.
    """
    require_positive_int("n", n)
    require_positive_int("m_power", m_power)
    if n * m_power > MAX_POST_SELECTIONS:
        raise ValidationError(
            f"n={n} with m_power={m_power} needs {n * m_power} post-selections, "
            f"over the budget of {MAX_POST_SELECTIONS}"
        )


def build_t_plan(factors: SVDFactors, n: int, m_power: int = 1) -> CircuitPlan:
    """Post-selected circuit applying m_power transfer blocks to n+1 data qubits."""
    check_plan_size(n, m_power)
    ancilla = n + 1
    width = n * m_power + n + 1
    dil = dilate(factors.d)
    ins: list = []
    for block in range(m_power):
        for j in range(n):
            k = n - j  # rightmost factor first
            ins.append(ApplyUnitary(matrix=factors.v, targets=(k - 1, n)))
            ins.append(ApplyUnitary(matrix=dil, targets=(k - 1, n, ancilla)))
            ins.append(MeasureAll(qubits=(ancilla,), cbits=(width - 1 - j - block * n,)))
            ins.append(ApplyUnitary(matrix=factors.u, targets=(k - 1, n)))
    ins.append(MeasureAll(qubits=tuple(range(n + 1)), cbits=tuple(range(n + 1))))
    return CircuitPlan(
        n_qubits=n + 2,
        n_classical_bits=width,
        instructions=ins,
        n_data_bits=n + 1,
    )


@functools.lru_cache(maxsize=8)
def _t_plan(factors: SVDFactors, n: int, m_power: int) -> CircuitPlan:
    """`build_t_plan(factors, n, m_power)`, memoized on the factors object, which
    `svd_scaled` shares per distinct R.  The plan is shared by later calls;
    it is frozen and its gate arrays are read-only, so none can change it."""
    return build_t_plan(factors, n, m_power)


def build_d_test_plan(d: np.ndarray) -> CircuitPlan:
    """Single dilation gate on a 2-qubit state, all three qubits measured.

    The ancilla outcome lands in the high classical bit, a select bit, so
    the final measurement is also the post-selection: meaningful records
    are those with value < 4, and `run_exact` keeps the ancilla-0 branch.
    """
    return CircuitPlan(
        n_qubits=3,
        n_classical_bits=3,
        instructions=[
            ApplyUnitary(matrix=dilate(d), targets=(0, 1, 2)),
            MeasureAll(qubits=(0, 1, 2), cbits=(0, 1, 2)),
        ],
        n_data_bits=2,
    )


def build_terashima_plan(d: np.ndarray) -> CircuitPlan:
    """Three-measurement diagonal construction: one reflection per singular value."""
    steps = terashima_decomposition(d)
    width = 2 + len(steps)
    ins: list = []
    for idx, step in enumerate(steps):
        for t in step.x_targets:
            ins.append(ApplyUnitary(matrix=X_GATE, targets=(t,)))
        ins.append(ApplyUnitary(matrix=controlled_reflection(step.a), targets=(0, 1, 2)))
        ins.append(MeasureAll(qubits=(2,), cbits=(width - 1 - idx,)))
        for t in step.x_targets:
            ins.append(ApplyUnitary(matrix=X_GATE, targets=(t,)))
    ins.append(MeasureAll(qubits=(0, 1), cbits=(0, 1)))
    return CircuitPlan(n_qubits=3, n_classical_bits=width, instructions=ins, n_data_bits=2)


@dataclass
class ActionDiagnostics:
    mode: str
    m_power: int
    shots_used: int
    meaningful_fractions: list[float]
    keep_probability: float | None = None
    final_histogram: ShotHistogram | None = None


def check_circuit_width(n: int) -> None:
    """Reject a width whose circuit state, 2^(n+2) amplitudes, exceeds MAX_STATE_AMPLITUDES.

    Runs before any 2^(n+1) vector is built, so a huge n is a ValidationError
    instead of a failed allocation.
    """
    require_positive_int("n", n)
    if n + 2 > math.log2(MAX_STATE_AMPLITUDES):
        raise ValidationError(
            f"n={n} needs 2^{n + 2} circuit amplitudes, over the cap of {MAX_STATE_AMPLITUDES}"
        )


def normalize_positive_input(input_amplitudes: np.ndarray, n: int) -> np.ndarray:
    """The one rule for a positive input over n+1 data qubits, from the library
    or the CLI: 2^(n+1) real entries, finite, nonnegative and not all zero.
    Returns the input divided by its norm, a float64 unit vector.

    A norm below 2^-500, whose squares may have lost bits to underflow, or an
    infinite one, whose squares overflowed, is redone on the vector divided by
    its largest entry, so the result does not depend on the input's scale; any
    other norm is used as computed, so an input in range keeps its bits.
    """
    check_circuit_width(n)
    if np.iscomplexobj(input_amplitudes):
        raise ValidationError(
            "input amplitudes must be real; split a complex vector into positive pieces"
        )
    v = np.asarray(input_amplitudes, dtype=np.float64).ravel()
    if v.shape != (2 ** (n + 1),):
        raise ValidationError(
            f"input must have 2^{n + 1} amplitudes for n={n}, got shape {v.shape}"
        )
    if np.any(v < 0) or np.any(~np.isfinite(v)):
        raise ValidationError("input amplitudes must be finite and nonnegative")
    if not np.any(v):
        raise ValidationError("input amplitudes must not all vanish")
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(v)
    if not 2.0 ** -500 <= nrm < math.inf:
        v = v / v.max()
        nrm = np.linalg.norm(v)
    return v / nrm


def _backend_shots(backend: str, shots: int) -> int | None:
    """Shots per block run: None for the exact backend, a positive count for "shot"."""
    if backend == "exact":
        return None
    if backend != "shot":
        raise ValidationError(f"backend must be 'shot' or 'exact', got {backend!r}")
    require_positive_int("shots", shots)
    return shots


def _embed_input(dense_vec: np.ndarray, n: int) -> np.ndarray:
    """Dense-basis data vector -> wire-basis unit amplitudes with ancilla |0>."""
    full = np.zeros(2 ** (n + 2), dtype=np.complex128)
    full[: 2 ** (n + 1)] = wire_from_dense(dense_vec, n)
    return full / np.linalg.norm(full)


def _block_action(plan: CircuitPlan, vec: np.ndarray, n: int, shots: int | None, seed: int,
                  meaningful_floor: int) -> tuple[np.ndarray, float | ShotHistogram]:
    """Run a transfer-block plan on a dense-basis input and read the kept data back.

    shots None runs the exact projection (`run_exact`) and returns the
    output with the product of the keep probabilities.  Otherwise `shots`
    shots are sampled with `seed` and the output is sqrt(count/meaningful)
    per data record, returned with the histogram; fewer meaningful shots
    than `meaningful_floor` raise InsufficientStatisticsError.  The output
    is a dense-basis, entrywise nonnegative unit vector.
    """
    require_positive_int("meaningful_floor", meaningful_floor)
    state = _embed_input(vec, n)
    if shots is None:
        out, keep = run_exact(plan, state)
        data = np.clip(np.real(out[: 2 ** (n + 1)]), 0.0, None)
        data /= np.linalg.norm(data)
        return dense_from_wire(data, n), keep
    hist = run_shots(plan, state, shots, seed)
    if hist.meaningful_shots < meaningful_floor:
        raise InsufficientStatisticsError(
            f"only {hist.meaningful_shots} of {hist.total_shots} shots survived "
            f"post-selection (floor {meaningful_floor})",
            hist.meaningful_fraction,
        )
    probs = np.zeros(2 ** (n + 1))
    probs[[int(key, 2) for key in hist.counts]] = list(hist.counts.values())
    probs /= hist.meaningful_shots
    return dense_from_wire(np.sqrt(probs), n), hist


def _step_seed(seed: int, step: int) -> int:
    return int(substream_seed(seed, step))


def simulated_t_action(model: VertexModel, n: int, m_power: int, input_amplitudes: np.ndarray,
                       shots: int = 40_000, seed: int = 0, mode: str = "deep",
                       meaningful_floor: int = DEFAULT_MEANINGFUL_FLOOR,
                       ) -> tuple[np.ndarray, ActionDiagnostics]:
    """Simulate m_power transfer blocks acting on a positive input vector.

    mode "deep" runs one circuit with all blocks and converts the final
    histogram to amplitudes; "refeed" runs one block at a time, feeding
    sqrt(count/meaningful) back in as the next input (larger meaningful
    fraction per run, extra sampling noise per step); "exact" is the
    infinite-shot projection reference.  Input and output are dense-basis,
    entrywise nonnegative unit vectors.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    check_plan_size(n, m_power)
    vec = normalize_positive_input(input_amplitudes, n)
    if mode != "exact":
        require_positive_int("shots", shots)
    factors = svd_scaled(r_matrix(model))
    if mode == "refeed":
        plan = _t_plan(factors, n, 1)
        fractions = []
        for step in range(m_power):
            vec, hist = _block_action(plan, vec, n, shots, _step_seed(seed, step), meaningful_floor)
            fractions.append(hist.meaningful_fraction)
        return vec, ActionDiagnostics(mode=mode, m_power=m_power, shots_used=shots * m_power,
                                      meaningful_fractions=fractions, final_histogram=hist)
    plan = _t_plan(factors, n, m_power)
    if mode == "exact":
        out, keep = _block_action(plan, vec, n, None, seed, meaningful_floor)
        return out, ActionDiagnostics(mode=mode, m_power=m_power, shots_used=0,
                                      meaningful_fractions=[], keep_probability=keep)
    out, hist = _block_action(plan, vec, n, shots, seed, meaningful_floor)
    return out, ActionDiagnostics(mode=mode, m_power=m_power, shots_used=shots,
                                  meaningful_fractions=[hist.meaningful_fraction],
                                  final_histogram=hist)


@dataclass
class PowerIterationResult:
    vector: np.ndarray
    steps: int
    converged: bool
    last_delta: float
    shots_used: int


def _iterate_psi0(plan: CircuitPlan, vec: np.ndarray, n: int, shots: int | None, seed: int,
                  max_steps: int, tol: float, meaningful_floor: int) -> PowerIterationResult:
    """Refeed `vec` through the one-block `plan`; step k samples with _step_seed(seed, k)."""
    shots_used = 0
    delta = math.inf
    for step in range(max_steps):
        new, _ = _block_action(plan, vec, n, shots, _step_seed(seed, step), meaningful_floor)
        shots_used += shots or 0
        delta = float(np.linalg.norm(new - vec))
        vec = new
        if tol > 0 and delta < tol:
            return PowerIterationResult(vec, step + 1, True, delta, shots_used)
    if tol > 0:
        raise ConvergenceError(
            f"power iteration did not reach tol {tol} in {max_steps} steps", delta
        )
    return PowerIterationResult(vec, max_steps, False, delta, shots_used)


def power_iterate_psi0(model: VertexModel, n: int, shots_per_step: int = 40_000,
                       seed: int = 0, max_steps: int = 20, tol: float = 1e-3,
                       backend: str = "shot", start: np.ndarray | None = None,
                       meaningful_floor: int = DEFAULT_MEANINGFUL_FLOOR,
                       ) -> PowerIterationResult:
    """Iterate single transfer blocks until the vector stops moving.

    Returns the estimate of the dominant right eigenvector (dense basis,
    positive, unit norm).  tol must be a finite real number; tol <= 0
    disables the convergence test and runs exactly max_steps refeed steps.
    backend "exact" replaces histograms by exact projection.
    """
    check_circuit_width(n)
    shots = _backend_shots(backend, shots_per_step)
    require_positive_int("max_steps", max_steps)
    if isinstance(tol, bool) or not isinstance(tol, Real) or not math.isfinite(tol):
        raise ValidationError(f"tol must be a finite real number, got {tol!r}")
    plan = _t_plan(svd_scaled(r_matrix(model)), n, 1)
    if start is None:
        vec = np.zeros(2 ** (n + 1))
        vec[0] = 1.0
    else:
        vec = normalize_positive_input(start, n)
    return _iterate_psi0(plan, vec, n, shots, seed, max_steps, tol, meaningful_floor)


@dataclass
class EstimatorReport:
    f0: float
    f1: float
    estimate: float
    oracle_lambda1: float | None
    shots_used: int
    psi0_iterations: int
    degenerate: bool = False


def estimate_lambda1(model: VertexModel, n: int, input_amplitudes: np.ndarray,
                     shots: int = 100_000, seed: int = 0, backend: str = "shot",
                     psi0_iterations: int = 6,
                     meaningful_floor: int = DEFAULT_MEANINGFUL_FLOOR) -> EstimatorReport:
    """Lower-bound style estimator of |Lambda_1| / Lambda_0 from overlaps.

    Resolves the dominant eigenvector by refeed iteration, then forms
    f0 = <psi0|psi> and f1 = <psi0|C_T psi> and returns
    sqrt((f1^-2 - 1) / (f0^-2 - 1)).  Inputs parallel to psi0 make the
    denominator vanish, and a zero overlap (a few shots can miss psi0's
    support) leaves the formula undefined; such runs are flagged degenerate
    with a NaN estimate.  The shot backend follows the published protocol
    (fixed iteration count, step k seeded by substream k of `seed`, the
    action run by substream 2^20); the exact backend iterates psi0 to
    numerical convergence instead.  R is computed once per call; its
    factors and their one-block plan are computed once and reused by later
    calls on an equal gate.  The iteration and the action run that plan,
    and the oracle uses the same R.

    What the exact backend promises: the estimate equals
    tan(theta(T psi, psi0)) / tan(theta(psi, psi0)).  It is <= lambda_1
    when T is normal.  For any T it is <= ||(I-P) T (I-P)||_2 <psi0,psi> /
    <psi0,T psi> with P = psi0 psi0^T, which is lambda_1 for normal T; on
    non-normal T the estimate can exceed lambda_1.  `oracle_lambda1` is the
    ratio of `spectral_summary` (the default Arnoldi method) for n <= 18,
    None where the operator's sweep cap rejects n (the circuits run to 22).
    """
    vec = normalize_positive_input(input_amplitudes, n)
    require_positive_int("psi0_iterations", psi0_iterations)
    shots = _backend_shots(backend, shots)
    r = r_matrix(model)
    plan = _t_plan(svd_scaled(r), n, 1)
    # The circuits start from the unit input normalized once more, which can
    # move its last bits; the pinned exact-backend numbers depend on that.
    start = normalize_positive_input(vec, n)
    steps, tol = (400, 1e-13) if shots is None else (psi0_iterations, 0.0)
    psi0 = _iterate_psi0(plan, start, n, shots, seed, steps, tol, meaningful_floor)
    action, _ = _block_action(plan, start, n, shots, _step_seed(seed, 1 << 20), meaningful_floor)
    f0 = float(psi0.vector @ vec)
    f1 = float(psi0.vector @ action)
    shots_used = psi0.shots_used + (shots or 0)

    try:
        oracle = spectral_summary(assemble_transfer(r, n)).ratio
    except DimensionError:  # wider than the matrix-free oracle's cap
        oracle = None

    degenerate = 0.0 in (f0, f1) or f0 ** -2 - 1.0 <= 1e-12 or f1 ** -2 - 1.0 < 0.0
    return EstimatorReport(
        f0=f0, f1=f1,
        estimate=math.nan if degenerate else math.sqrt((f1 ** -2 - 1.0) / (f0 ** -2 - 1.0)),
        oracle_lambda1=oracle, shots_used=shots_used, psi0_iterations=psi0.steps,
        degenerate=degenerate,
    )

