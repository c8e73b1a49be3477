"""Dense k-qubit operator application on 2^n amplitude vectors.

Qubit 0 is the least significant bit of the basis index.  A gate matrix on
targets (t0, t1, ...) is indexed in the same convention: t0 is the least
significant bit of the gate's own basis.  The kernel does not require the
matrix to be unitary; unitarity checks belong to the caller.

A state is viewed as the C-order tensor of shape (2,) * n, where qubit q is
axis n-1-q.  `target_axes` gives, once per (targets, n), the transposes that
gather the target axes (MSB target first) at the front or the back, and
the kernels reuse them on every call.  The cache holds only these axis
orders, so what a kernel keeps between calls does not grow with 2^n.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ValidationError


@functools.lru_cache(maxsize=1024)
def target_axes(targets: tuple[int, ...], n_qubits: int) -> tuple[tuple[int, ...], ...]:
    """(front, back, undo_back): axis orders of the (2,) * n state tensor that
    move the target axes, MSB target first, to the front or to the back, the
    other axes keeping their order, and the inverse of `back`."""
    axes = tuple(n_qubits - 1 - q for q in reversed(targets))
    rest = tuple(a for a in range(n_qubits) if a not in axes)
    back = rest + axes
    return axes + rest, back, tuple(np.argsort(back).tolist())


def apply_matrix(amps: np.ndarray, matrix: np.ndarray, targets: list[int] | tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Return matrix applied to `amps` on the given target qubits.

    One cached transpose makes the contiguous (2^(n-k), 2^k) block whose
    rows are the target amplitudes, `@ matrix.T` acts on it, and the inverse
    transpose restores the qubit order; cost O(2^n * 2^k).
    """
    _, back, undo_back = target_axes(tuple(targets), n_qubits)
    cube = (2,) * n_qubits
    tensor = amps.reshape(cube).transpose(back).reshape(-1, 1 << len(targets)) @ matrix.T
    return np.ascontiguousarray(tensor.reshape(cube).transpose(undo_back)).reshape(-1)


def check_targets(targets, n_qubits: int) -> None:
    if len(set(targets)) != len(targets):
        raise ValidationError(f"target qubits must be distinct, got {tuple(targets)}")
    for q in targets:
        if not 0 <= q < n_qubits:
            raise ValidationError(f"target qubit {q} out of range for {n_qubits} qubits")
