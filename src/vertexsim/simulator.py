"""State-vector circuit engine with mid-circuit post-selection and shot sampling.

Conventions
-----------
* Basis index = sum_k bit_k * 2^k, qubit 0 least significant.  When an
  ancilla is present it is the highest-index qubit.
* Classical register strings print classical bit width-1 first (leftmost),
  so a register value v renders as format(v, "0{width}b").  The n_data_bits
  LOW bits hold data; every bit above is a select bit, and a measurement
  into one is a post-selection (outcome 0 kept), so "meaningful" records
  are exactly those with value < 2^n_data_bits.  `run_shots` and
  `run_exact`, its infinite-shot limit, both read this one rule.
* Shot k draws its randomness from the counter-based substream (seed, k):
  one value per measurement instruction, in program order.  Results are
  therefore independent of chunking or execution order.
* A measurement picks outcome searchsorted(cum, u, side="right") for the
  uniform u = to_unit(x) and the cumulative Born weights cum (last entry
  pinned to 1).  The engine makes the same choice in integers: u >= c
  exactly when the 53-bit key x >> 11 is >= ceil(c * 2^53) (see rng), so
  it compares keys against the thresholds ceil(cum * 2^53).

Shot execution shares work across shots: between measurements all shots see
the same deterministic evolution, so the engine tracks one state per distinct
measurement record (branch).  A shot is dropped at its first failed
post-selection (the first measurement that sets a select bit), so only live
shots draw, and branches split only where live shots disagree on a data bit.
Post-selected circuits therefore run on one branch, and there a
post-selection costs one draw, one comparison and one compaction per live
shot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    ImpossiblePostselectionError,
    ValidationError,
    require_positive_int,
)
from .gates import apply_matrix, check_targets
from .rng import substream_seed, substream_value

UNITARITY_TOL = 1e-10


@dataclass
class QuantumState:
    """Unit-norm complex amplitudes over n qubits: the input of `run_exact` and
    `run_shots`, and the kept state `run_exact` returns.  Build one with
    `init_state`; a circuit acts on it only through a `CircuitPlan`.
    """

    n_qubits: int
    amplitudes: np.ndarray


def init_state(n: int, amplitudes: np.ndarray) -> QuantumState:
    """Validate and normalize an amplitude vector into a QuantumState."""
    if n < 1:
        raise ValidationError(f"need at least one qubit, got {n}")
    amps = np.asarray(amplitudes, dtype=np.complex128).ravel()
    if amps.shape != (2 ** n,):
        raise DimensionError(f"state over {n} qubits needs 2^{n} amplitudes, got {amps.shape}")
    nrm = float(np.linalg.norm(amps))
    if nrm == 0.0:
        raise ValidationError("cannot initialize from the zero vector")
    if abs(nrm - 1.0) > 1e-9:
        raise ValidationError(f"input amplitudes must be normalized to 1e-9, got norm {nrm!r}")
    return QuantumState(n, amps / nrm)


def _check_unitary(matrix: np.ndarray, k: int) -> None:
    if k < 1:
        raise ValidationError("unitary needs at least one target qubit")
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (2 ** k, 2 ** k):
        raise DimensionError(f"matrix on {k} qubits must be {2 ** k}x{2 ** k}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    defect = np.max(np.abs(m.conj().T @ m - np.eye(2 ** k)))
    if defect > UNITARITY_TOL:
        raise ValidationError(f"matrix is not unitary (defect {defect:.3e})")


def _marginal_probs(amps: np.ndarray, qubits: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Outcome weights over `qubits` (qubits[0] = LSB of the outcome index).

    `amps` is one state or a stack of states along its leading axes.  Not
    renormalized: on a unit state they sum to 1 up to rounding.
    """
    m = len(qubits)
    lead = amps.shape[:-1]
    dens = np.abs(amps.reshape(lead + (2,) * n_qubits)) ** 2
    axes = [len(lead) + n_qubits - 1 - q for q in reversed(qubits)]
    dens = np.moveaxis(dens, axes, range(len(lead), len(lead) + m))
    return dens.reshape(lead + (2 ** m, -1)).sum(axis=-1)


def _collapse_outcome(amps: np.ndarray, qubits: tuple[int, ...], outcome: int,
                      n_qubits: int) -> np.ndarray:
    """Project `qubits` onto an outcome and renormalize (weight must be > 0)."""
    view = amps.reshape([2] * n_qubits)
    keep = [slice(None)] * n_qubits
    for j, q in enumerate(qubits):
        keep[n_qubits - 1 - q] = (outcome >> j) & 1
    kept = np.zeros_like(view)
    kept[tuple(keep)] = view[tuple(keep)]
    flat = kept.reshape(-1)
    p = float(np.linalg.norm(flat))
    if p == 0.0:
        raise ImpossiblePostselectionError("measurement collapsed onto a zero-weight outcome")
    return flat / p


# --------------------------------------------------------------------------
# circuit plans


@dataclass(frozen=True)
class ApplyUnitary:
    matrix: np.ndarray
    targets: tuple[int, ...]

    def __eq__(self, other):
        return (
            isinstance(other, ApplyUnitary)
            and self.targets == other.targets
            and self.matrix.shape == other.matrix.shape
            and np.array_equal(self.matrix, other.matrix)
        )


@dataclass(frozen=True, eq=True)
class MeasureAll:
    qubits: tuple[int, ...]
    cbits: tuple[int, ...]


@dataclass
class CircuitPlan:
    """Straight-line program over n_qubits with a classical register.

    n_data_bits marks how many LOW classical bits hold data measurements;
    everything above them is a select bit, which must read 0 for a record
    to count as meaningful.  None (the default) makes every bit data.
    """

    n_qubits: int
    n_classical_bits: int
    instructions: list[ApplyUnitary | MeasureAll] = field(default_factory=list)
    n_data_bits: int | None = None

    def __post_init__(self):
        if self.n_data_bits is None:
            self.n_data_bits = self.n_classical_bits
        self.validate()

    def validate(self) -> None:
        if self.n_qubits < 1:
            raise ValidationError("plan needs at least one qubit")
        if not 0 <= self.n_data_bits <= self.n_classical_bits:
            raise ValidationError(
                f"bad register layout: {self.n_data_bits} data bits in "
                f"{self.n_classical_bits} classical bits"
            )
        for ins in self.instructions:
            if isinstance(ins, ApplyUnitary):
                check_targets(ins.targets, self.n_qubits)
                _check_unitary(ins.matrix, len(ins.targets))
            elif isinstance(ins, MeasureAll):
                if not ins.qubits:
                    raise ValidationError("measure needs at least one qubit")
                check_targets(ins.qubits, self.n_qubits)
                if len(ins.cbits) != len(ins.qubits):
                    raise ValidationError("measure needs one classical bit per qubit")
                for cb in ins.cbits:
                    if not 0 <= cb < self.n_classical_bits:
                        raise ValidationError(f"classical bit {cb} out of range")
            else:
                raise ValidationError(f"unknown instruction {ins!r}")

    def count_unitaries(self) -> int:
        return sum(isinstance(i, ApplyUnitary) for i in self.instructions)

    def count_postselects(self) -> int:
        """Number of measurements that write a select bit."""
        return sum(isinstance(i, MeasureAll) and max(i.cbits) >= self.n_data_bits
                   for i in self.instructions)

    def __eq__(self, other):
        return (
            isinstance(other, CircuitPlan)
            and self.n_qubits == other.n_qubits
            and self.n_classical_bits == other.n_classical_bits
            and self.n_data_bits == other.n_data_bits
            and self.instructions == other.instructions
        )


@dataclass(frozen=True)
class ShotHistogram:
    """Meaningful-record histogram: keys are full-width register strings
    whose post-selection bits are all 0; sum(counts) == meaningful_shots.

    survivors[i] counts the shots still live after the plan's i-th
    measurement, so it never increases and ends at meaningful_shots.
    """

    counts: dict[str, int]
    total_shots: int
    meaningful_shots: int
    seed: int
    width: int
    survivors: tuple[int, ...] = ()

    @property
    def meaningful_fraction(self) -> float:
        return self.meaningful_shots / self.total_shots if self.total_shots else 0.0


def run_exact(plan: CircuitPlan, input_state: QuantumState) -> tuple[QuantumState, float]:
    """Infinite-shot reference: force every post-selection to 0.

    At each measurement the qubits written into select bits are projected
    onto 0, and the keep probability is multiplied by their weight there,
    the fraction of shots `run_shots` keeps.  Measurements into data bits
    are skipped (exact while no unitary follows one on its qubit).  Returns
    the kept state and the product of the keep probabilities.
    """
    if input_state.n_qubits != plan.n_qubits:
        raise DimensionError(
            f"input has {input_state.n_qubits} qubits, plan needs {plan.n_qubits}"
        )
    amps = input_state.amplitudes.copy()
    keep = 1.0
    for ins in plan.instructions:
        if isinstance(ins, ApplyUnitary):
            amps = apply_matrix(amps, ins.matrix, ins.targets, plan.n_qubits)
        elif qubits := tuple(q for q, c in zip(ins.qubits, ins.cbits) if c >= plan.n_data_bits):
            p0 = float(_marginal_probs(amps, qubits, plan.n_qubits)[0])
            if p0 <= 0.0:
                raise ImpossiblePostselectionError(
                    f"post-selection on qubits {qubits} has probability zero"
                )
            amps = _collapse_outcome(amps, qubits, 0, plan.n_qubits)
            keep *= p0
    return QuantumState(plan.n_qubits, amps), keep


def _simulate_chunk(plan: CircuitPlan, amps0: np.ndarray, seed: int, start: int,
                    stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Data words of the meaningful shots among shots [start, stop), and the
    number of live shots after each measurement.

    Classical bits below n_data_bits land in the data word at their own
    position; every bit above is a select bit, and a shot is dropped at the
    first measurement that sets one.

    Each branch's thresholds ceil(cum * 2^53) are searched with the shot's
    53-bit key, which gives searchsorted's outcome exactly (module notes).
    cum is non-decreasing except its pinned last entry, and no key reaches
    that entry's threshold 2^53, so `threshold <= key` holds on a prefix of
    each row: all a binary search needs.  The search runs over every live
    shot at once, one comparison per measured qubit, so a post-selection on
    one branch is the single test key >= threshold.  (One searchsorted over
    all branches would need (branch, key) as a single sort key: 53 bits plus
    log2 of the branch count, more than 64 past 2048 branches.)

    Besides its substream seed, a shot carries `branch` (which state it sits
    on) only once a data bit has split the live shots over several states,
    and `data_word` only once a data bit has been written.  A measurement
    that writes only select bits leaves every live shot on outcome 0, so it
    collapses each live branch onto outcome 0 and splits none.
    """
    nq = plan.n_qubits
    nd = plan.n_data_bits
    n_measures = sum(not isinstance(ins, ApplyUnitary) for ins in plan.instructions)
    survivors = np.zeros(n_measures, dtype=np.int64)
    subs = substream_seed(seed, np.arange(start, stop, dtype=np.uint64))
    states = [amps0]
    branch = None
    data_word = None
    event = 0
    for ins in plan.instructions:
        if isinstance(ins, ApplyUnitary):
            states = [apply_matrix(s, ins.matrix, ins.targets, nq) for s in states]
            continue
        qubits, cbits = ins.qubits, ins.cbits
        m = 1 << len(qubits)
        cum = np.cumsum(_marginal_probs(np.stack(states), qubits, nq), axis=1)
        cum[:, -1] = 1.0
        thresholds = np.ceil(cum * 2.0 ** 53).astype(np.uint64).ravel()
        key = substream_value(subs, event) >> np.uint64(11)
        written, select = np.zeros(m, dtype=np.uint64), 0
        for j, cb in enumerate(cbits):
            if cb < nd:
                written |= ((np.arange(m) >> j) & 1).astype(np.uint64) << np.uint64(cb)
            else:
                select |= 1 << j
        splits = bool(written.any())
        # flat index into thresholds: branch * m + outcome
        idx = 0 if branch is None else branch * m
        for j in reversed(range(len(qubits))):
            idx = idx + (key >= thresholds[(1 << j) - 1:][idx]) * (1 << j)
        if select:
            keep = np.flatnonzero((idx & select) == 0)
            subs = subs[keep]
            if splits:
                idx = idx[keep]
            if branch is not None:
                branch = branch[keep]
            if data_word is not None:
                data_word = data_word[keep]
        survivors[event] = len(subs)
        event += 1
        if splits:
            bits = written[idx & (m - 1)]
            data_word = bits if data_word is None else data_word | bits
        if event == n_measures or not len(subs):
            break
        if splits:
            realized, inverse = np.unique(idx, return_inverse=True)
            states = [_collapse_outcome(states[k // m], qubits, k % m, nq)
                      for k in realized.tolist()]
            branch = inverse if len(realized) > 1 else None
            continue
        if branch is not None:
            held = np.bincount(branch, minlength=len(states)) > 0
            if not held.all():
                states = [s for s, h in zip(states, held) if h]
                branch = (np.cumsum(held) - 1)[branch]
        states = [_collapse_outcome(s, qubits, 0, nq) for s in states]
    if data_word is None:
        data_word = np.zeros(len(subs), dtype=np.uint64)
    return data_word, survivors


def run_shots(plan: CircuitPlan, input_state: QuantumState, shots: int, seed: int,
              chunk_size: int = 1 << 16) -> ShotHistogram:
    """Sample the plan shot by shot and histogram the meaningful records.

    Every measurement samples via the Born rule (mid-circuit outcomes are
    recorded, never forced).  A shot is dropped at its first failed
    post-selection, that is, the first measurement that sets a select bit;
    the shots that survive every measurement are the meaningful ones.
    """
    require_positive_int("shots", shots)
    require_positive_int("chunk_size", chunk_size)
    if input_state.n_qubits != plan.n_qubits:
        raise DimensionError(
            f"input has {input_state.n_qubits} qubits, plan needs {plan.n_qubits}"
        )
    if plan.n_data_bits > 64:
        raise ValidationError(
            "classical register too wide to sample: the data section is limited to 64 bits"
        )
    amps0 = input_state.amplitudes.astype(np.complex128)
    counts: dict[int, int] = {}
    meaningful = 0
    survivors = 0
    for begin in range(0, shots, chunk_size):
        data_word, live = _simulate_chunk(plan, amps0, seed, begin, min(begin + chunk_size, shots))
        meaningful += len(data_word)
        survivors = survivors + live
        vals, cnts = np.unique(data_word, return_counts=True)
        for v, cn in zip(vals.tolist(), cnts.tolist()):
            counts[v] = counts.get(v, 0) + cn
    width = plan.n_classical_bits
    keyed = {format(v, f"0{width}b"): c for v, c in sorted(counts.items())}
    return ShotHistogram(
        counts=keyed,
        total_shots=shots,
        meaningful_shots=meaningful,
        seed=seed,
        width=width,
        survivors=tuple(survivors.tolist()),
    )


def histogram_to_csv(h: ShotHistogram) -> str:
    lines = ["bitstring,count"]
    lines += [f"{k},{v}" for k, v in h.counts.items()]
    return "\n".join(lines) + "\n"


def histogram_meta_json(h: ShotHistogram) -> str:
    return json.dumps(
        {"total_shots": h.total_shots, "meaningful_shots": h.meaningful_shots, "seed": h.seed,
         "survivors": list(h.survivors)},
        indent=2,
    )
