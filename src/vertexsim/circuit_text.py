"""Portable line-oriented circuit description, round-trippable by `parse_circuit_text`.

Layout: one header line, one line per instruction in program order, then the
matrix table.  Matrices are deduplicated and referenced by id; entries use
repr() so floats survive the round trip bit-exactly.  A one-qubit measurement
into a select bit (cX with X >= databits) is spelled `measure_postselect0`.

    circuit qubits=6 cbits=9 databits=5
    unitary m0 3 4
    unitary m1 3 4 5
    measure_postselect0 5 -> c8
    measure 0 1 2 3 4 -> c0 c1 c2 c3 c4
    matrix m0 4
    0.5265 0.1508 ...
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .simulator import ApplyUnitary, CircuitPlan, MeasureAll


def export_circuit_text(plan: CircuitPlan) -> str:
    lines = [
        f"circuit qubits={plan.n_qubits} cbits={plan.n_classical_bits} "
        f"databits={plan.n_data_bits}"
    ]
    matrices: list[np.ndarray] = []
    ids: dict[bytes, int] = {}
    for ins in plan.instructions:
        if isinstance(ins, ApplyUnitary):
            key = ins.matrix.tobytes() + str(ins.matrix.shape).encode()
            if key not in ids:
                ids[key] = len(matrices)
                matrices.append(ins.matrix)
            tgt = " ".join(str(q) for q in ins.targets)
            lines.append(f"unitary m{ids[key]} {tgt}")
        elif len(ins.qubits) == 1 and ins.cbits[0] >= plan.n_data_bits:
            lines.append(f"measure_postselect0 {ins.qubits[0]} -> c{ins.cbits[0]}")
        else:
            qs = " ".join(str(q) for q in ins.qubits)
            cs = " ".join(f"c{c}" for c in ins.cbits)
            lines.append(f"measure {qs} -> {cs}")
    for mid, m in enumerate(matrices):
        lines.append(f"matrix m{mid} {m.shape[0]}")
        for row in m:
            lines.append(" ".join(_entry_repr(x) for x in row))
    return "\n".join(lines) + "\n"


def _entry_repr(x) -> str:
    z = complex(x)
    if z.imag == 0.0:
        return repr(z.real)
    return repr(z).strip("()")


def parse_circuit_text(text: str) -> CircuitPlan:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("circuit "):
        raise ValidationError("circuit text must start with a 'circuit' header line")
    try:
        header = dict(part.split("=") for part in lines[0].split()[1:])
        n_qubits = int(header["qubits"])
        n_cbits = int(header["cbits"])
        n_data = int(header["databits"])
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad circuit header {lines[0]!r}") from exc

    # first pass: pull out the matrix table
    matrices: dict[str, np.ndarray] = {}
    body: list[str] = []
    i = 1
    while i < len(lines):
        ln = lines[i]
        if ln.startswith("matrix "):
            parts = ln.split()
            if len(parts) != 3 or not parts[2].isdecimal() or int(parts[2]) < 1:
                raise ValidationError(f"bad matrix header {ln!r}")
            mid, dim = parts[1], int(parts[2])
            rows = []
            for j in range(dim):
                if i + 1 + j >= len(lines):
                    raise ValidationError(f"matrix {mid} is truncated")
                try:
                    rows.append([complex(tok) for tok in lines[i + 1 + j].split()])
                except ValueError as exc:
                    raise ValidationError(f"matrix {mid} row {j} has a bad entry") from exc
                if len(rows[-1]) != dim:
                    raise ValidationError(f"matrix {mid} row {j} has wrong width")
            m = np.array(rows)
            if np.all(m.imag == 0.0):
                m = m.real
            matrices[mid] = m
            i += 1 + dim
        else:
            body.append(ln)
            i += 1

    instructions = []
    for ln in body:
        parts = ln.split()
        if parts[0] == "unitary":
            if len(parts) < 2 or parts[1] not in matrices:
                raise ValidationError(f"instruction references an unknown matrix: {ln!r}")
            targets = tuple(_qubit(p) for p in parts[2:])
            instructions.append(ApplyUnitary(matrix=matrices[parts[1]], targets=targets))
        elif parts[0] == "measure_postselect0":
            if len(parts) != 4 or parts[2] != "->":
                raise ValidationError(f"bad post-selection line {ln!r}")
            qubit, cbit = _qubit(parts[1]), _cbit(parts[3])
            if cbit < n_data:
                raise ValidationError(f"post-selection into data bit c{cbit}: {ln!r}")
            instructions.append(MeasureAll(qubits=(qubit,), cbits=(cbit,)))
        elif parts[0] == "measure":
            if "->" not in parts:
                raise ValidationError(f"bad measure line {ln!r}")
            arrow = parts.index("->")
            qubits = tuple(_qubit(p) for p in parts[1:arrow])
            cbits = tuple(_cbit(p) for p in parts[arrow + 1:])
            instructions.append(MeasureAll(qubits=qubits, cbits=cbits))
        else:
            raise ValidationError(f"unknown instruction {ln!r}")
    return CircuitPlan(
        n_qubits=n_qubits,
        n_classical_bits=n_cbits,
        instructions=instructions,
        n_data_bits=n_data,
    )


def _qubit(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:
        raise ValidationError(f"qubit index must be an integer, got {tok!r}") from exc


def _cbit(tok: str) -> int:
    try:
        if tok.startswith("c"):
            return int(tok[1:])
    except ValueError:
        pass
    raise ValidationError(f"classical bit reference must look like c3, got {tok!r}")
