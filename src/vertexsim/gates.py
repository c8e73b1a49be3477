"""Dense k-qubit operator application on 2^n amplitude vectors.

Qubit 0 is the least significant bit of the basis index.  A gate matrix on
targets (t0, t1, ...) is indexed in the same convention: t0 is the least
significant bit of the gate's own basis.  The kernel does not require the
matrix to be unitary; unitarity checks belong to the caller.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def apply_matrix(amps: np.ndarray, matrix: np.ndarray, targets: list[int] | tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Return matrix applied to `amps` on the given target qubits.

    Stride-2^k reshape/moveaxis contraction; cost O(2^n * 2^k).
    """
    m = len(targets)
    tensor = amps.reshape([2] * n_qubits)
    # axis of qubit q in the C-order reshape is n-1-q; gate MSB target first
    axes = [n_qubits - 1 - q for q in reversed(targets)]
    tensor = np.moveaxis(tensor, axes, range(n_qubits - m, n_qubits))
    shape = tensor.shape
    tensor = tensor.reshape(-1, 2 ** m) @ matrix.T
    tensor = np.moveaxis(tensor.reshape(shape), range(n_qubits - m, n_qubits), axes)
    return np.ascontiguousarray(tensor).reshape(-1)


def check_targets(targets, n_qubits: int) -> None:
    if len(set(targets)) != len(targets):
        raise ValidationError(f"target qubits must be distinct, got {tuple(targets)}")
    for q in targets:
        if not 0 <= q < n_qubits:
            raise ValidationError(f"target qubit {q} out of range for {n_qubits} qubits")
