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
* A data bit written by several measurements holds the OR of their
  outcomes: X, measure q0 into c0, X, measure q0 into c0 again reads "1".
  OpenQASM and Qiskit overwrite the bit instead, so an exported circuit that
  writes a data bit twice may run differently in those tools.
* Shot k draws its randomness from the counter-based substream (seed, k):
  one value per measurement instruction, in program order.  Results are
  therefore independent of chunking or execution order.
* A measurement picks outcome searchsorted(cum, u, side="right") for the
  uniform u = to_unit(x) and the cumulative Born weights cum (last entry
  pinned to 1).  The engine makes the same choice in integers: u >= c
  exactly when the 53-bit key x >> 11 is >= ceil(c * 2^53) (see rng), so
  it compares keys against the thresholds ceil(cum * 2^53).

Both runners walk the same branches, each one state shared by a group of
shots: between measurements every shot sees the same evolution, so a branch
is evolved once for all of them.  A `_Measurement` node is one step of a
branch: it applies the gates up to the next measurement (or the plan's end),
splits that measurement's classical bits into data and select bits, and
holds its outcome weights, `probs`.  A shot is dropped at its first failed
post-selection (the first measurement that sets a select bit), so only live
shots draw, and a measurement that writes data bits splits a branch by the
outcomes its live shots realize.  `run_exact` walks the same nodes with a
weight in place of shots and never builds their sampling tables.  Gates and
marginals move the state's axes with the transposes that `gates.target_axes`
caches per (targets, n).

`run_shots` samples CHUNK_SHOTS shots at a time, but every chunk starts on
the same branch, the trunk: the measurements up to and including the first
that writes a data bit, which on a transfer plan is the whole plan.  The
first chunk to reach a trunk measurement builds its node, and later chunks
of the same call reuse it, so the trunk is evolved once per call; branches
after the first data split are evolved per chunk.  The draws stay per shot:
a measurement that writes no data bit compares each live shot's raw value
with one limit, and one that writes data bits reads each outcome from a
bucket table over the key's top bits (see `_Measurement`).

Every chunk of a call samples in one workspace, three uint64 rows of
min(shots, CHUNK_SHOTS): two take turns holding the live shots' seeds and the
values drawn from them, the third is the mix's shift buffer and, viewed as
bool, the survival mask.  A chunk's only fresh shot-sized arrays are its shot
counters, the survivors' indices, the readout's outcomes and the seeds of
branches pushed after a data split.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DimensionError, ImpossiblePostselectionError, ValidationError,
                     require_each, require_int, require_positive_int)
from .gates import apply_matrix, check_targets, target_axes
from .rng import substream_seed, substream_value

UNITARITY_TOL = 1e-10

# The largest state vector the package allocates: 2^24 complex128 amplitudes
# x 16 bytes = 256 MiB, and either runner holds about 5 at its peak.  It also
# caps the amplitudes summed over every branch `run_exact` expands.
MAX_STATE_AMPLITUDES = 1 << 24

# Shots sampled per pass of `_simulate_chunk`; results do not depend on it.
CHUNK_SHOTS = 1 << 16


def _unit_amplitudes(n: int, amplitudes: np.ndarray) -> tuple[np.ndarray, float]:
    """The input rule of `init_state` and both runners: 2^n entries, all finite,
    norm within 1e-9 of 1.  Returns the flat complex128 amplitudes, never
    rescaled, and their norm."""
    amps = np.asarray(amplitudes, dtype=np.complex128).ravel()
    if amps.shape != (2 ** n,):
        raise DimensionError(f"state over {n} qubits needs 2^{n} amplitudes, got {amps.shape}")
    if not np.all(np.isfinite(amps)):
        raise ValidationError("input amplitudes must be finite")
    nrm = float(np.linalg.norm(amps))
    if abs(nrm - 1.0) > 1e-9:
        raise ValidationError(f"input amplitudes must be normalized to 1e-9, got norm {nrm!r}")
    return amps, nrm


def init_state(n: int, amplitudes: np.ndarray) -> np.ndarray:
    """Check an amplitude vector over n qubits by the runners' input rule and
    return it normalized: flat complex128, the input divided by its norm."""
    amps, nrm = _unit_amplitudes(require_positive_int("n", n), amplitudes)
    return amps / nrm


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
    view = amps.reshape((2,) * n_qubits)
    keep = [slice(None)] * n_qubits
    for j, q in enumerate(qubits):
        keep[n_qubits - 1 - q] = (outcome >> j) & 1
    kept = np.zeros(view.shape, dtype=view.dtype)
    kept[tuple(keep)] = view[tuple(keep)]
    flat = kept.reshape(-1)
    # np.linalg.norm(flat), without its argument handling
    p = math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))
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
            and np.array_equal(self.matrix, other.matrix)
        )


@dataclass(frozen=True, eq=True)
class MeasureAll:
    qubits: tuple[int, ...]
    cbits: tuple[int, ...]


@dataclass(frozen=True)
class CircuitPlan:
    """Straight-line program over n_qubits with a classical register.

    n_data_bits marks how many LOW classical bits hold data measurements;
    everything above them is a select bit, which must read 0 for a record
    to count as meaningful.  None (the default) makes every bit data.  A data
    bit written by several measurements holds the OR of their outcomes.  A
    plan is validated when built and frozen after, `instructions` as a tuple.
    Its counts, targets, qubits and classical bits follow `errors.require_int`
    and are held as Python ints, so every plan reads back equal from
    `parse_circuit_text(export_circuit_text(plan))`.  It holds one read-only
    copy of each distinct gate array it was given, shared by every
    instruction that shares the array, and each measurement's qubits and
    cbits as tuples, so a caller that writes into its own array or list
    later cannot change a validated plan.
    """

    n_qubits: int
    n_classical_bits: int
    instructions: tuple[ApplyUnitary | MeasureAll, ...] = ()
    n_data_bits: int | None = None

    def __post_init__(self):
        nq = require_positive_int("n_qubits", self.n_qubits)
        width = require_int("n_classical_bits", self.n_classical_bits)
        data = width if self.n_data_bits is None else require_int("n_data_bits", self.n_data_bits)
        if not 0 <= data <= width:
            raise ValidationError(f"bad register layout: {data} data bits in {width} classical bits")
        # checked here: each given instruction once, each (matrix id, targets) once,
        # a matrix once per (id, width); one read-only copy per id, one instruction
        # per (id, targets) sharing it, and each measurement on its checked tuples
        given = tuple(self.instructions)  # holds every object, so no id is reused as a key
        done, checked, copies, gates = {}, set(), {}, {}
        for ins in given:
            key = id(ins)
            if key in done:
                continue
            if isinstance(ins, ApplyUnitary):
                mid, targets = id(ins.matrix), check_targets(ins.targets, nq)
                if (mid, targets) not in gates:
                    if (mid, len(targets)) not in checked:
                        _check_unitary(ins.matrix, len(targets))
                        checked.add((mid, len(targets)))
                    if mid not in copies:
                        copies[mid] = np.array(ins.matrix)
                        copies[mid].flags.writeable = False
                    gates[mid, targets] = ApplyUnitary(copies[mid], targets)
                ins = gates[mid, targets]
            elif isinstance(ins, MeasureAll):
                ins = MeasureAll(check_targets(ins.qubits, nq),
                                 require_each(require_int, "classical bit", ins.cbits))
                if not ins.qubits or len(ins.cbits) != len(ins.qubits):
                    raise ValidationError("measure needs one classical bit per qubit, at least one")
                if not all(0 <= cb < width for cb in ins.cbits):
                    raise ValidationError(f"classical bits {ins.cbits} out of range")
            else:
                raise ValidationError(f"unknown instruction {ins!r}")
            done[key] = ins
        for name, value in (("n_qubits", nq), ("n_classical_bits", width), ("n_data_bits", data),
                            ("instructions", tuple(done[id(ins)] for ins in given))):
            object.__setattr__(self, name, value)

    def count_unitaries(self) -> int:
        return sum(isinstance(i, ApplyUnitary) for i in self.instructions)

    def count_postselects(self) -> int:
        """Number of measurements that write a select bit."""
        return sum(isinstance(i, MeasureAll) and max(i.cbits) >= self.n_data_bits
                   for i in self.instructions)


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


def run_exact(plan: CircuitPlan, amplitudes: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Infinite-shot limit of `run_shots`: the kept amplitudes and keep probability.

    `amplitudes` must meet `init_state`'s rule; they are read as given, never
    rescaled.  Walks the `_Measurement` nodes of `run_shots` with a weight in
    place of shots: every outcome of nonzero weight that sets no select bit
    becomes a branch, its weight multiplied by the outcome's.  The readout,
    the plan's last instruction, keeps its data qubits coherent
    (`_Measurement.readout`).  The keep probability is the summed weight of
    the surviving branches; the kept amplitudes are None when more than one
    survives, since the kept state is then a mixture.  Raises
    ImpossiblePostselectionError when every branch dies, and ValidationError
    when data splits expand over MAX_STATE_AMPLITUDES.
    """
    amps0, _ = _unit_amplitudes(plan.n_qubits, amplitudes)
    nq, last = plan.n_qubits, len(plan.instructions) - 1
    tasks = [(amps0.copy(), 0, 1.0)]
    expanded, kept, keep = 1, [], 0.0
    while tasks:
        amps, pc, weight = tasks.pop()
        node = _Measurement(plan, amps, pc)
        if node.pc >= last:
            amps, p0 = node.readout()
            if p0 > 0.0:
                kept.append(amps)
                keep += weight * p0
            continue
        probs = node.probs.tolist()
        outcomes = [o for o, p in enumerate(probs) if p > 0.0 and not o & node.select]
        if node.written is not None:
            expanded += len(outcomes)
            if expanded << nq > MAX_STATE_AMPLITUDES:
                raise ValidationError(f"run_exact would expand {expanded} branches of "
                                      f"{nq} qubits, over {MAX_STATE_AMPLITUDES} amplitudes")
        tasks += [(*node.collapsed(o), weight * probs[o]) for o in outcomes]
    if not kept:
        raise ImpossiblePostselectionError("every branch failed a post-selection of weight zero")
    return (kept[0] if len(kept) == 1 else None), keep


class _Measurement:
    """One step of a branch: the gates up to a measurement, and the measurement.

    Built from the state entering instruction `pc`, it applies the gates up
    to the next measurement and keeps its index `pc` (the plan's length when
    none is left) and the state before it, `amps` (None once `run_shots` has
    built the successor of a trunk node that writes no data bit).  `select`
    masks the outcome bits read into select bits and `probs` holds the
    outcome weights.  For sampling, `written[o]` is outcome o's data word
    (None: no data bit); a shot lives when its raw value x < `limit` (None:
    always), or `outcomes` reads x through `table`.  All but `select` and
    `shift` are computed on first use, so `run_exact` never builds a table
    or a readout's weights.
    """

    def __init__(self, plan: CircuitPlan, amps: np.ndarray, pc: int):
        nq, ins = plan.n_qubits, plan.instructions
        while pc < len(ins) and isinstance(ins[pc], ApplyUnitary):
            amps = apply_matrix(amps, ins[pc].matrix, ins[pc].targets, nq)
            pc += 1
        op = ins[pc] if pc < len(ins) else MeasureAll((), ())
        self.pc, self.amps, self.qubits, self.cbits, self.n_qubits, self._probs = (
            pc, amps, op.qubits, op.cbits, nq, None)
        self.select = 0
        for j, cb in enumerate(op.cbits):
            if cb >= plan.n_data_bits:
                self.select |= 1 << j
        if self.select == (1 << len(op.qubits)) - 1:
            self.written = None  # else the cached property below
        # about 128 buckets per outcome, at most 2^16, of 2^(shift - 11) keys each
        self.shift = 64 - min(len(op.qubits) + 7, 16)

    @property
    def probs(self) -> np.ndarray:
        # run_exact reads it at every node: cached_property's lock costs more
        if self._probs is None:
            self._probs = _marginal_probs(self.amps, self.qubits, self.n_qubits)
        return self._probs

    @cached_property
    def written(self) -> list[int]:
        # by doubling: once bit j is in, words[o + 2^j] = words[o] | bit j's word bit
        words = [0]
        for j, cb in enumerate(self.cbits):
            bit = 0 if self.select >> j & 1 else 1 << cb
            words += [w | bit for w in words]
        return words

    @cached_property
    def limit(self) -> np.uint64 | None:
        # key < t0 exactly when x < t0 << 11, for t0 < 2^53; above, every shot lives
        t0 = math.ceil(self.probs[0] * 2.0 ** 53)
        return np.uint64(t0 << 11) if t0 < 1 << 53 else None

    @cached_property
    def thresholds(self) -> np.ndarray:
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        # clipped at 2^53, which no key reaches: sorted, with searchsorted's outcomes
        return np.ceil(np.minimum(cum, 1.0) * 2.0 ** 53).astype(np.uint64)

    @cached_property
    def table(self) -> np.ndarray:
        # bucket j holds the keys [j << s, (j + 1) << s).  Its entry counts the
        # thresholds in buckets 0..j, the outcome of every key in it unless a
        # threshold falls inside it, past its first key: then the entry is -1
        s = self.shift - 11
        bucket = (self.thresholds >> np.uint64(s)).astype(np.intp)
        table = np.cumsum(np.bincount(bucket, minlength=(1 << 53 - s) + 1)[:1 << 53 - s])
        table[bucket[self.thresholds & np.uint64((1 << s) - 1) != 0]] = -1
        return table

    def outcomes(self, x: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
        """The outcome of each raw value, searchsorted(thresholds, x >> 11, side="right");
        `buf`, a uint64 array shaped like x (fresh when None), takes the keys' buckets."""
        idx = self.table[np.right_shift(x, self.shift, out=buf).view(np.int64)]
        miss = (idx < 0).nonzero()[0]
        idx[miss] = np.searchsorted(self.thresholds, x[miss] >> np.uint64(11), side="right")
        return idx

    def collapsed(self, outcome: int) -> tuple[np.ndarray, int]:
        """The state after `outcome` and the next instruction: a branch's entry."""
        return _collapse_outcome(self.amps, self.qubits, outcome, self.n_qubits), self.pc + 1

    def readout(self) -> tuple[np.ndarray | None, float]:
        """The state `run_exact` keeps at the plan's end and its weight p0: select
        qubits projected onto 0 (None when p0 = 0), data qubits left coherent."""
        if not self.select:
            return self.amps, 1.0
        sel = tuple(q for j, q in enumerate(self.qubits) if self.select >> j & 1)
        p0 = float(_marginal_probs(self.amps, sel, self.n_qubits)[0])
        return (_collapse_outcome(self.amps, sel, 0, self.n_qubits) if p0 > 0.0 else None), p0


def _simulate_chunk(plan: CircuitPlan, trunk: list[_Measurement], seed: int, start: int,
                    stop: int, work: np.ndarray) -> tuple[Counter, np.ndarray]:
    """Meaningful shots among shots [start, stop) counted by data word, and
    the number of live shots after each measurement.

    A task is one branch: (live shots' substream seeds, data bits so far,
    next measurement, entry), where the entry is the branch's state and next
    instruction.  The root task has no entry: it walks `trunk`, the nodes
    this call has built (at least the first), and builds the next one when
    it gets past the last.  A node that writes no data bit keeps the shots
    below its limit; one that writes data bits reads each live shot's
    outcome and pushes one task per outcome realized, except at the plan's
    last measurement, which counts each outcome's shots.

    `work` is the call's workspace (see the module docstring), with rows of
    at least stop - start entries.  The root's seeds start in row 0; each
    draw writes into row `spare`, the one of rows 0 and 1 that does not hold
    the running task's seeds, and a compaction moves the seeds there.  A
    pushed task gets fresh seed arrays, so only the running task's seeds
    live in `work`.
    """
    measures = [i for i, op in enumerate(plan.instructions) if isinstance(op, MeasureAll)]
    survivors = np.zeros(len(measures), dtype=np.int64)
    if not measures:
        return Counter({0: stop - start}), survivors
    counts = Counter()
    n = stop - start
    buf, mask = work[2], work[2].view(np.bool_)
    root = substream_seed(seed, np.arange(start, stop, dtype=np.uint64), out=work[0, :n],
                          buf=buf[:n])
    spare = 1  # the row of work[0], work[1] that does not hold the seeds
    tasks = [(root, 0, 0, None)]
    while tasks:
        subs, word, event, entry = tasks.pop()
        while True:
            if entry is not None:
                node = _Measurement(plan, *entry)
            else:
                if event == len(trunk):
                    trunk.append(_Measurement(plan, *trunk[-1].collapsed(0)))
                    trunk[-2].amps = None  # writes no data bit: later chunks read only its limit
                node = trunk[event]
            n, keep = len(subs), None
            if node.written is None:
                if node.limit is not None:
                    x = substream_value(subs, event, out=work[spare, :n], buf=buf[:n])
                    keep = np.less(x, node.limit, out=mask[:n])
            else:
                x = substream_value(subs, event, out=work[spare, :n], buf=buf[:n])
                idx = node.outcomes(x, buf[:n])
                if node.select:
                    # the values are spent: their row takes idx & select
                    sel = np.bitwise_and(idx, node.select, out=work[spare, :n].view(np.intp))
                    keep = np.equal(sel, 0, out=mask[:n])
            if keep is not None:
                live = keep.nonzero()[0]
                # mode="clip" writes straight into the row; the default
                # "raise" would stage the result in a fresh array first
                subs = subs.take(live, out=work[spare, :len(live)], mode="clip")
                spare ^= 1
                if node.written is not None:
                    idx = idx[live]
            survivors[event] += len(subs)
            event += 1
            if not len(subs):
                break
            if node.pc == measures[-1]:
                if node.written is None:
                    counts[word] += len(subs)
                else:
                    tally = np.bincount(idx, minlength=len(node.written)).tolist()
                    for bits, c in zip(node.written, tally):
                        if c:
                            counts[word | bits] += c
                break
            if node.written is not None:
                tasks += [(subs[(idx == o).nonzero()[0]], word | node.written[o], event,
                           node.collapsed(o)) for o in np.unique(idx).tolist()]
                break
            if entry is not None:
                entry = node.collapsed(0)
    return counts, survivors


def run_shots(plan: CircuitPlan, amplitudes: np.ndarray, shots: int, seed: int) -> ShotHistogram:
    """Sample the plan shot by shot and histogram the meaningful records.

    `amplitudes` must meet `init_state`'s rule; they are read as given, never
    rescaled.  Every measurement samples via the Born rule (mid-circuit
    outcomes are recorded, never forced).  A shot is dropped at its first
    failed post-selection, that is, the first measurement that sets a select
    bit; the shots that survive every measurement are the meaningful ones.
    """
    require_positive_int("shots", shots)
    amps0, _ = _unit_amplitudes(plan.n_qubits, amplitudes)
    # the trunk lives for this call: every chunk reads the measurements it holds
    trunk = [_Measurement(plan, amps0, 0)] if any(
        isinstance(op, MeasureAll) for op in plan.instructions) else []
    # so does the workspace every chunk samples in (see _simulate_chunk)
    work = np.empty((3, min(shots, CHUNK_SHOTS)), dtype=np.uint64)
    counts = Counter()
    survivors = 0
    for begin in range(0, shots, CHUNK_SHOTS):
        tally, live = _simulate_chunk(plan, trunk, seed, begin, min(begin + CHUNK_SHOTS, shots),
                                      work)
        counts.update(tally)
        survivors = survivors + live
    # a 0-bit register's only key is "", where format(0, "00b") gives "0"
    spec = f"0{plan.n_classical_bits}b"
    keyed = {format(v, spec) if plan.n_classical_bits else "": c
             for v, c in sorted(counts.items())}
    return ShotHistogram(
        counts=keyed,
        total_shots=shots,
        meaningful_shots=sum(counts.values()),
        seed=seed,
        survivors=tuple(survivors.tolist()),
    )
