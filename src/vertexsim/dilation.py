"""Singular value decomposition of the Boltzmann gate and its unitary lift.

The gate factorizes as R = U * diag(s) * V with U, V orthogonal: numpy's
LAPACK SVD under a fixed sign gauge, checked against R.  Scaling by the top
singular value s0 leaves a diagonal d with d[0] = 1 >= d[1] >= ... >= d[3] >=
0, which lifts to the orthogonal 8x8 block matrix

    [[ D,            sqrt(I - D^2) ],
     [ sqrt(I - D^2),          -D ]]

acting on two data qubits plus one ancilla (ancilla = most significant bit).
Post-selecting the ancilla on 0 realizes D on the kept branch with acceptance
probability sum_i (d_i alpha_i)^2.  The alternative three-measurement
construction (one controlled reflection per sub-unit singular value,
sandwiched between X layers) is provided for cross-checking; both yield
identical kept states and acceptance probabilities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model import RMatrix

SVD_TOL = 1e-12


@dataclass(frozen=True, eq=False)  # by identity: `svd_scaled` shares one per distinct gate
class SVDFactors:
    """Scaled SVD of a Boltzmann gate: source = u @ diag(d0_raw * d) @ v."""

    u: np.ndarray
    v: np.ndarray
    d: np.ndarray
    d0_raw: float

    def reconstruct(self) -> np.ndarray:
        return self.u @ np.diag(self.d0_raw * self.d) @ self.v


def svd_scaled(r: RMatrix) -> SVDFactors:
    """Factorize a Boltzmann gate and rescale by its top singular value.

    numpy's SVD fixes each singular vector pair only up to a common sign; the
    gauge here makes the first entry above 1e-14 of each column of u positive
    and flips the matching row of v, so the factors are deterministic.  Both
    self-checks, reconstruction and orthogonality, must hold to SVD_TOL, or
    NumericalError is raised.

    Results are memoized on the bytes of R (the last few distinct gates), so
    an equal gate returns the same factors object, whose arrays are
    read-only.  A factorization that fails its checks is not memoized.
    """
    return _factorize(r.entries.tobytes())


@functools.lru_cache(maxsize=8)
def _factorize(entries: bytes) -> SVDFactors:
    r = np.frombuffer(entries).reshape(4, 4)
    u, s, v = np.linalg.svd(r)
    flip = np.sign(u[np.argmax(np.abs(u) > 1e-14, axis=0), np.arange(4)])
    u, v = u * flip, v * flip[:, None]
    if s[0] <= 0:
        raise NumericalError("Boltzmann gate has zero top singular value")
    d = s / s[0]
    for a in (u, v, d):  # every caller of an equal gate shares these arrays
        a.flags.writeable = False
    factors = SVDFactors(u=u, v=v, d=d, d0_raw=float(s[0]))
    scale = np.linalg.norm(r)
    resid = np.linalg.norm(factors.reconstruct() - r) / scale
    ortho = max(
        np.max(np.abs(u.T @ u - np.eye(4))),
        np.max(np.abs(v @ v.T - np.eye(4))),
    )
    if resid > SVD_TOL or ortho > SVD_TOL:
        raise NumericalError(
            f"SVD failed its own checks: reconstruction {resid:.3e}, orthogonality {ortho:.3e}"
        )
    return factors


def dilate(d: np.ndarray) -> np.ndarray:
    """Lift diag(d) with d_i in [0, 1] to the orthogonal 8x8 gate."""
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (4,):
        raise ValidationError(f"need 4 scaled singular values, got shape {d.shape}")
    if np.any(d < 0) or np.any(d > 1):
        raise ValidationError(f"scaled singular values must lie in [0, 1], got {d}")
    comp = np.sqrt(1.0 - d * d)
    m = np.zeros((8, 8))
    m[:4, :4] = np.diag(d)
    m[:4, 4:] = np.diag(comp)
    m[4:, :4] = np.diag(comp)
    m[4:, 4:] = -np.diag(d)
    return m


def acceptance_probability(d: np.ndarray, alpha: np.ndarray) -> float:
    """Probability that post-selection keeps the branch: ||diag(d) alpha||^2."""
    d = np.asarray(d, dtype=np.float64)
    alpha = np.asarray(alpha)
    return float(np.sum(np.abs(d * alpha) ** 2))


@dataclass(frozen=True)
class TerashimaStep:
    """One controlled-reflection stage: X on `x_targets`, reflect with `a`, undo the X."""

    x_targets: tuple[int, ...]
    a: float


def terashima_decomposition(d: np.ndarray) -> list[TerashimaStep]:
    """Split diag(1, d1, d2, d3) into three single-value stages.

    Stage k realizes Diag(1,..,d_k,..,1) on the kept branch: the X layer moves
    the targeted amplitude onto |11>, a doubly-controlled reflection S(d_k)
    couples it to the ancilla, the ancilla is measured (keep 0) and the X
    layer is undone.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (4,):
        raise ValidationError(f"need 4 scaled singular values, got shape {d.shape}")
    if d[0] != 1.0:
        raise ValidationError(f"leading singular value must be scaled to 1, got {d[0]}")
    if np.any(d < 0) or np.any(d > 1):
        raise ValidationError(f"scaled singular values must lie in [0, 1], got {d}")
    return [
        TerashimaStep(x_targets=(1,), a=float(d[1])),
        TerashimaStep(x_targets=(0,), a=float(d[2])),
        TerashimaStep(x_targets=(), a=float(d[3])),
    ]


def controlled_reflection(a: float) -> np.ndarray:
    """8x8 unitary: on the |11> data subspace, rotate the ancilla by S(a).

    S(a) = [[a, sqrt(1-a^2)], [sqrt(1-a^2), -a]]; identity elsewhere.
    Ancilla is the most significant of the three qubits.
    """
    if not -1.0 <= a <= 1.0:
        raise ValidationError(f"reflection parameter must lie in [-1, 1], got {a}")
    comp = math.sqrt(max(0.0, 1.0 - a * a))
    m = np.eye(8)
    m[3, 3] = a
    m[3, 7] = comp
    m[7, 3] = comp
    m[7, 7] = -a
    return m


X_GATE = np.array([[0.0, 1.0], [1.0, 0.0]])
X_GATE.flags.writeable = False  # shared by every plan that flips a qubit
