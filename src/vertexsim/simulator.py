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

Both runners walk a worklist of branches, each one state shared by a group
of shots: between measurements every shot sees the same evolution, so a
branch is evolved once for all of them.  A shot is dropped at its first
failed post-selection (the first measurement that sets a select bit), so
only live shots draw, and a measurement that writes data bits splits a
branch by the outcomes its live shots realize.  Post-selected circuits thus
run on one branch, where a post-selection costs one draw, one comparison and
one compaction per live shot: a measurement that writes no data bit keeps
the shots whose key is below the first threshold (outcome 0), with no
outcome search.  `run_exact` walks the same branches with a weight in place
of shots.  Gates and marginals move the state's axes with the transposes
that `gates.target_axes` caches per (targets, n).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    ImpossiblePostselectionError,
    ValidationError,
    require_positive_int,
)
from .gates import apply_matrix, check_targets, target_axes
from .rng import substream_seed, substream_value

UNITARITY_TOL = 1e-10

# The largest state vector the package allocates: 2^24 complex128 amplitudes
# x 16 bytes = 256 MiB.  It also caps the amplitudes summed over every branch
# `run_exact` expands.
MAX_STATE_AMPLITUDES = 1 << 24

# Shots sampled per pass of `_simulate_chunk`; results do not depend on it.
CHUNK_SHOTS = 1 << 16


@dataclass
class QuantumState:
    """Unit-norm complex amplitudes over n qubits: the input of `run_exact` and
    `run_shots`, and the kept state of `run_exact` (None when several branches
    survive).  Build one with `init_state`; only a `CircuitPlan` acts on it.
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

    Not renormalized: on a unit state they sum to 1 up to rounding.
    """
    front = target_axes(tuple(qubits), n_qubits)[0]
    dens = np.abs(amps.reshape((2,) * n_qubits)) ** 2
    return dens.transpose(front).reshape(1 << len(qubits), -1).sum(axis=-1)


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
        checked = set()  # (id, width) of the matrices checked in this call
        for ins in self.instructions:
            if isinstance(ins, ApplyUnitary):
                check_targets(ins.targets, self.n_qubits)
                key = (id(ins.matrix), len(ins.targets))
                if key not in checked:
                    _check_unitary(ins.matrix, len(ins.targets))
                    checked.add(key)
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
    survivors: tuple[int, ...] = ()

    @property
    def meaningful_fraction(self) -> float:
        return self.meaningful_shots / self.total_shots if self.total_shots else 0.0


def _check_input(plan: CircuitPlan, input_state: QuantumState) -> None:
    if input_state.n_qubits != plan.n_qubits:
        raise DimensionError(f"input has {input_state.n_qubits} qubits, plan needs {plan.n_qubits}")


def run_exact(plan: CircuitPlan, input_state: QuantumState) -> tuple[QuantumState | None, float]:
    """Infinite-shot limit of `run_shots`: the kept state and keep probability.

    Walks the branches of `run_shots` with a weight in place of shots.  The
    qubits a measurement writes into select bits are projected onto 0 and
    the weight multiplied by p0, their weight there (a branch with p0 = 0
    dies).  A measurement into data bits splits the branch on every outcome
    of nonzero weight, except the readout, the plan's last instruction,
    whose data qubits stay coherent.  The keep probability is the summed
    weight of the surviving branches; the kept state is None when more than
    one survives, since it is then a mixture.  Raises
    ImpossiblePostselectionError when every branch dies, and ValidationError
    when the branches expanded would exceed MAX_STATE_AMPLITUDES amplitudes.
    """
    _check_input(plan, input_state)
    nq, nd, ins = plan.n_qubits, plan.n_data_bits, plan.instructions
    tasks = [(input_state.amplitudes.copy(), 1.0, 0)]
    expanded, kept, keep = 1, [], 0.0
    while tasks:
        amps, weight, pc = tasks.pop()
        for pc in range(pc, len(ins)):
            op = ins[pc]
            if isinstance(op, ApplyUnitary):
                amps = apply_matrix(amps, op.matrix, op.targets, nq)
                continue
            if select := tuple(q for q, c in zip(op.qubits, op.cbits) if c >= nd):
                p0 = float(_marginal_probs(amps, select, nq)[0])
                if p0 <= 0.0:
                    break
                amps = _collapse_outcome(amps, select, 0, nq)
                weight *= p0
            data = tuple(q for q, c in zip(op.qubits, op.cbits) if c < nd)
            if data and pc < len(ins) - 1:
                probs = _marginal_probs(amps, data, nq)
                outcomes = np.flatnonzero(probs > 0.0).tolist()
                expanded += len(outcomes)
                if expanded << nq > MAX_STATE_AMPLITUDES:
                    raise ValidationError(f"run_exact would expand {expanded} branches of "
                                          f"{nq} qubits, over {MAX_STATE_AMPLITUDES} amplitudes")
                tasks += [(_collapse_outcome(amps, data, o, nq), weight * float(probs[o]), pc + 1)
                          for o in outcomes]
                break
        else:
            kept.append(amps)
            keep += weight
    if not kept:
        raise ImpossiblePostselectionError("every branch failed a post-selection of weight zero")
    return (QuantumState(nq, kept[0]) if len(kept) == 1 else None), keep


def _simulate_chunk(plan: CircuitPlan, amps0: np.ndarray, seed: int, start: int,
                    stop: int) -> tuple[Counter, np.ndarray]:
    """Meaningful shots among shots [start, stop) counted by data word, and
    the number of live shots after each measurement.

    A task is one branch: (state, live shots' substream seeds, data bits so
    far, next instruction, next measurement).  A shot's outcome is the
    binary search of its 53-bit key over the branch's thresholds
    ceil(cum * 2^53), which gives searchsorted's outcome exactly (module
    notes): cum is non-decreasing except its pinned last entry, whose
    threshold 2^53 no key reaches, so `threshold <= key` holds on a prefix.
    Outcome 0 is therefore `key < thresholds[0]`, the one comparison a
    measurement that writes no data bit makes: it keeps those shots, all on
    outcome 0.  A measurement that writes data bits searches every outcome
    and pushes one task per outcome its live shots realize, and the plan's
    last measurement counts each outcome's shots.
    """
    nq, nd, ins = plan.n_qubits, plan.n_data_bits, plan.instructions
    measures = [i for i, op in enumerate(ins) if isinstance(op, MeasureAll)]
    survivors = np.zeros(len(measures), dtype=np.int64)
    subs = substream_seed(seed, np.arange(start, stop, dtype=np.uint64))
    if not measures:
        return Counter({0: len(subs)}), survivors
    counts = Counter()
    tasks = [(amps0, subs, 0, 0, 0)]
    while tasks:
        amps, subs, word, pc, event = tasks.pop()
        for pc in range(pc, measures[-1] + 1):
            op = ins[pc]
            if isinstance(op, ApplyUnitary):
                amps = apply_matrix(amps, op.matrix, op.targets, nq)
                continue
            m = 1 << len(op.qubits)
            cum = np.cumsum(_marginal_probs(amps, op.qubits, nq))
            cum[-1] = 1.0
            thresholds = np.ceil(cum * 2.0 ** 53).astype(np.uint64)
            key = substream_value(subs, event) >> np.uint64(11)
            written, select = np.zeros(m, dtype=np.uint64), 0
            for j, cb in enumerate(op.cbits):
                if cb < nd:
                    written |= ((np.arange(m) >> j) & 1).astype(np.uint64) << np.uint64(cb)
                else:
                    select |= 1 << j
            splits = bool(written.any())
            if splits:
                idx = 0
                for j in reversed(range(len(op.qubits))):
                    idx = idx + (key >= thresholds[(1 << j) - 1:][idx]) * (1 << j)
                if select:
                    live = np.flatnonzero((idx & select) == 0)
                    subs, idx = subs[live], idx[live]
            else:
                # every bit is a select bit: a shot lives exactly on outcome 0
                subs = subs[np.flatnonzero(key < thresholds[0])]
            survivors[event] += len(subs)
            event += 1
            if not len(subs):
                break
            if pc == measures[-1]:
                tally = np.bincount(idx, minlength=m).tolist() if splits else [len(subs)]
                for bits, c in zip(written.tolist(), tally):
                    if c:
                        counts[word | bits] += c
                break
            if splits:
                tasks += [(_collapse_outcome(amps, op.qubits, o, nq), subs[np.flatnonzero(idx == o)],
                           word | int(written[o]), pc + 1, event) for o in np.unique(idx).tolist()]
                break
            amps = _collapse_outcome(amps, op.qubits, 0, nq)
    return counts, survivors


def run_shots(plan: CircuitPlan, input_state: QuantumState, shots: int, seed: int) -> ShotHistogram:
    """Sample the plan shot by shot and histogram the meaningful records.

    Every measurement samples via the Born rule (mid-circuit outcomes are
    recorded, never forced).  A shot is dropped at its first failed
    post-selection, that is, the first measurement that sets a select bit;
    the shots that survive every measurement are the meaningful ones.
    """
    require_positive_int("shots", shots)
    _check_input(plan, input_state)
    if plan.n_data_bits > 64:
        raise ValidationError(
            "classical register too wide to sample: the data section is limited to 64 bits"
        )
    amps0 = input_state.amplitudes.astype(np.complex128)
    counts = Counter()
    survivors = 0
    for begin in range(0, shots, CHUNK_SHOTS):
        tally, live = _simulate_chunk(plan, amps0, seed, begin, min(begin + CHUNK_SHOTS, shots))
        counts.update(tally)
        survivors = survivors + live
    width = plan.n_classical_bits
    keyed = {format(v, f"0{width}b"): c for v, c in sorted(counts.items())}
    return ShotHistogram(
        counts=keyed,
        total_shots=shots,
        meaningful_shots=sum(counts.values()),
        seed=seed,
        survivors=tuple(survivors.tolist()),
    )
