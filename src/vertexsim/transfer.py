"""Row transfer operator of a vertex model and its classical analysis.

Basis convention (used everywhere in this package): the operator acts on
N + 1 qubits, basis index = sum_k bit_k * 2^k.  Qubit 0 carries the lateral
(horizontal) boundary bond; qubit k >= 1 carries the vertical bond of column
k.  A matrix element

    <row| T |col>,   row = l1 + sum_k d_k 2^k,   col = rN + sum_k u_k 2^k,

equals the sum over internal horizontal bonds b of the chain

    R(d1,u1 | l1,b1) R(d2,u2 | b1,b2) ... R(dN,uN | b_{N-1},rN),

so row bitstrings read (MSB first) "d_N ... d_1 d_0" with the corner bond
d_0 = l1 last, and likewise for columns with u_0 = rN.  Powers of T give
boundary-constrained partition functions: the lattice closes laterally with
the helical identification l1^{m+1} = rN^m between consecutive rows, and the
brute-force enumerator below implements exactly that constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    EnumerationBudgetError,
    NumericalError,
    ValidationError,
    require_positive_int,
    require_positive_real,
)
# unused here since the row product stopped calling it; perfbench's tracer
# wraps this binding and its tests expect it to exist
from .gates import apply_matrix  # noqa: F401
from .model import RMatrix, VertexModel
from .rng import uniforms

DENSE_CAP_QUBITS = 13  # N + 1 <= 13: dense storage grows as 4^(N+1)
ENUMERATION_BUDGET = 1 << 26
_ASSEMBLY_BLOCK = 256  # identity columns per sweep in `entries`; bounds the temporaries
KRYLOV_DIM = 30  # Arnoldi basis vectors per restart cycle, capped at dim


@dataclass(frozen=True)
class LatticeShape:
    """N columns x M rows of vertices."""

    n_cols: int
    n_rows: int

    def __post_init__(self):
        require_positive_int("n_cols", self.n_cols)
        require_positive_int("n_rows", self.n_rows)

    @property
    def n_free_bonds(self) -> int:
        """Bonds summed over once boundaries and corners are pinned."""
        return 2 * self.n_cols * self.n_rows - self.n_cols - 1


@dataclass(frozen=True)
class TransferOperator:
    """Row-transfer operator of one lattice row of N vertices, held as its gate R.

    The constructor rejects n unless it is a positive integer with
    n + 1 <= DENSE_CAP_QUBITS.  Products with T and T^T are row sweeps of
    `source` (`_row_sweep`); `apply_transfer` is the public T product.
    `entries`, the dense matrix, is swept from the identity on first read and
    cached read-only for `method="dense"` and the CLI's dense listing.
    """

    n: int
    source: RMatrix

    def __post_init__(self):
        require_positive_int("n (columns)", self.n)
        if self.n + 1 > DENSE_CAP_QUBITS:
            raise DimensionError(
                f"dense assembly capped at n+1 <= {DENSE_CAP_QUBITS} qubits "
                f"(dim {2 ** DENSE_CAP_QUBITS}); got n={self.n}"
            )

    @property
    def dim(self) -> int:
        return 2 ** (self.n + 1)

    @cached_property
    def entries(self) -> np.ndarray:
        g = _gate(self.source)
        out = np.empty((self.dim, self.dim))
        for s in range(0, self.dim, _ASSEMBLY_BLOCK):
            b = min(_ASSEMBLY_BLOCK, self.dim - s)
            out[:, s:s + b] = _row_sweep(g, self.n, np.eye(self.dim, b, -s), reverse=False)
        out.setflags(write=False)
        return out


@dataclass(frozen=True)
class SpectralSummary:
    """Lambda_0, |Lambda_1|, their ratio and Psi_0^R, as `spectral_summary` finds them.

    `residual` and `residual_lambda1` are the Ritz residuals, relative to
    Lambda_0, of (Lambda_0, Psi_0^R) and of the pair behind |Lambda_1|;
    the dense method reports the former's true residual and 0.0 for the
    latter.  `iterations` counts the matvecs with T (0 for the dense method).
    """

    lambda0: float
    lambda1_abs: float
    ratio: float
    psi0_right: np.ndarray
    residual: float
    residual_lambda1: float = 0.0
    iterations: int = 0
    method: str = "power"


def assemble_transfer(r: RMatrix, n: int) -> TransferOperator:
    """Transfer operator of n gates R in a row; `entries` is built only when read."""
    return TransferOperator(n=n, source=r)


def apply_transfer(t: TransferOperator, x: np.ndarray) -> np.ndarray:
    """T @ x by one row sweep, O(N 2^N) per column, without reading `t.entries`.

    x is a real vector (dim,) or a block of columns (dim, b); any other shape
    raises DimensionError, a complex x ValidationError.  The rightmost gate
    k = n acts first.
    """
    if np.iscomplexobj(x):
        raise ValidationError("T acts on real arrays; apply it to the real and imaginary parts")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != t.dim or x.size == 0:
        raise DimensionError(
            f"array has shape {x.shape}, operator needs ({t.dim},) or ({t.dim}, b)"
        )
    return _row_sweep(_gate(t.source), t.n, x, reverse=False)


def _gate(r: RMatrix) -> np.ndarray:
    """R with rows reordered from (l, d) to (d, l), as `_row_sweep` applies it.

    The lateral bond then leaves each gate as the minor bit, next to the
    vertical bit the following gate consumes.  T^T applies the transpose.
    """
    return r.entries[[0, 2, 1, 3]]


def _row_sweep(g: np.ndarray, n: int, x: np.ndarray, reverse: bool) -> np.ndarray:
    """T @ x (g = _gate(R), reverse=False) or T^T @ x (g.T, reverse=True).

    x is (dim,) or (dim, b).  Forward, the lateral bond r is first moved in
    front of the vertical bits, (r, u_N, ..., u_1); after the j finished d
    bits the bond and the next vertical bit u_k (k = N - j) then sit side by
    side, so gate k is one batched 4x4 matmul over the contiguous view
    (2^j, 4, rest) that writes (d_k, bond) in their place.  After gate 1 the
    axes read (d_N, ..., d_1, l), the natural order.  Reverse runs the
    transposed steps back to front (gate 1 first) and moves the bond from
    the front to the back at the end.  Either way one copy moves the bond.
    """
    if reverse:
        y = x
        for j in range(n - 1, -1, -1):
            y = g @ y.reshape(2 ** j, 4, -1)
        return y.reshape(2, 2 ** n, -1).transpose(1, 0, 2).reshape(x.shape)
    y = x.reshape(2 ** n, 2, -1).transpose(1, 0, 2)
    for j in range(n):
        y = g @ y.reshape(2 ** j, 4, -1)
    return y.reshape(x.shape)


def _arnoldi_top(matvec, dim: int, tol: float, max_iterations: int):
    """The two leading Ritz pairs of T by explicitly restarted Arnoldi.

    Each cycle grows an orthonormal Krylov basis Q of up to KRYLOV_DIM
    vectors, Gram-Schmidt run twice per step, and the Hessenberg matrix
    H = Q^T T Q.  A Ritz pair (theta, Q y) of H has the residual
    |H[m, m-1] y[m-1]|.  When the second Gram-Schmidt pass removes more
    than half of the new vector, what is left is rounding inside span(Q)
    (Kahan's twice-is-enough test): the basis is invariant under T, its
    Ritz values are exact and the iteration ends.  That happens at step dim
    when dim <= KRYLOV_DIM.  Otherwise the next cycle starts from the real
    span of the two leading Ritz vectors.  The start vector is
    pseudo-random, not flat: a flat start lies in the spin-flip-even sector
    of a spin-flip-symmetric model and sees a flip-odd Lambda_1 only through
    rounding.  Returns the two leading Ritz values, the real Ritz vector of
    the first, both residuals relative to |theta_0| and the matvec count.
    """
    k = min(KRYLOV_DIM, dim)
    q = np.empty((k + 1, dim))
    v = uniforms(29, dim) + 0.5
    used = 0
    best = math.inf
    while used < max_iterations:
        m = min(k, max_iterations - used)
        h = np.zeros((m + 1, m))
        q[0] = v / np.linalg.norm(v)
        for j in range(m):
            w = matvec(q[j])
            norms = []
            for _ in range(2):
                c = q[:j + 1] @ w
                w -= c @ q[:j + 1]
                h[:j + 1, j] += c
                norms.append(np.linalg.norm(w))
            if norms[1] <= 0.5 * norms[0]:  # breakdown: span(Q) is invariant
                m = j + 1
                break
            h[j + 1, j] = norms[1]
            q[j + 1] = w / norms[1]
        used += m
        theta, y = np.linalg.eig(h[:m, :m])
        top = np.argsort(-np.abs(theta))[:2]
        theta, y = theta[top], y[:, top]
        resid = np.abs(h[m, m - 1] * y[m - 1]) / abs(theta[0])
        worst = float(resid.max()) if m > 1 else math.inf
        if worst < tol:
            return theta, y[:, 0].real @ q[:m], resid, used
        best = min(best, worst)
        v = (y[:, 0].real + y[:, -1].real + y[:, -1].imag) @ q[:m]
    raise ConvergenceError(f"Arnoldi did not converge in {max_iterations} matvecs", best)


def spectral_summary(t: TransferOperator, tol: float = 1e-10, max_iterations: int = 100_000,
                     method: str = "power") -> SpectralSummary:
    """Top of the spectrum: Lambda_0, |Lambda_1|, their ratio and Psi_0^R.

    method="power" (default) is restarted Arnoldi on matvecs alone: it
    applies T as row products of `t.source` and never reads `t.entries`.
    Lambda_0, Psi_0^R and |Lambda_1| are the two leading Ritz pairs of one
    Krylov space, and `max_iterations` bounds the number of matvecs.
    method="dense" is the LAPACK cross-check backend.  Residuals are Ritz
    residuals relative to Lambda_0: `residual` is that of (Lambda_0,
    Psi_0^R), `residual_lambda1` that of the pair behind |Lambda_1| (0.0
    for the dense method).  Both are below `tol` on return; otherwise
    ConvergenceError carries the best value reached.
    """
    require_positive_real("tol", tol)
    require_positive_int("max_iterations", max_iterations)
    if method == "dense":
        return _dense_summary(t, tol)
    if method != "power":
        raise ValidationError(f"unknown spectral method {method!r}")

    g = _gate(t.source)
    theta, psi0, resid, used = _arnoldi_top(
        lambda x: _row_sweep(g, t.n, x, reverse=False), t.dim, tol, max_iterations
    )
    lam0 = float(theta[0].real)
    if theta[0].imag != 0 or lam0 <= 0:
        raise NumericalError(f"dominant eigenvalue must be real and positive, got {theta[0]}")
    psi0 /= np.linalg.norm(psi0)
    if psi0.sum() < 0:
        psi0 = -psi0
    lam1_abs = min(float(abs(theta[1])), lam0)  # guard fp overshoot; Perron gives strict inequality
    return SpectralSummary(
        lambda0=lam0,
        lambda1_abs=lam1_abs,
        ratio=lam1_abs / lam0,
        psi0_right=psi0,
        residual=float(resid[0]),
        residual_lambda1=float(resid[1]),
        iterations=used,
        method="power",
    )


def _dense_summary(t: TransferOperator, tol: float) -> SpectralSummary:
    ev, vec = np.linalg.eig(t.entries)
    order = np.argsort(-np.abs(ev))
    ev, vec = ev[order], vec[:, order]
    lam0 = float(np.real(ev[0]))
    psi0 = np.real(vec[:, 0])
    psi0 /= np.linalg.norm(psi0)
    if psi0.sum() < 0:
        psi0 = -psi0
    resid = float(np.linalg.norm(t.entries @ psi0 - lam0 * psi0)) / abs(lam0)
    if resid > max(tol, 1e-9):
        raise ConvergenceError("dense eigensolver residual above tolerance", resid)
    lam1_abs = float(np.abs(ev[1]))
    return SpectralSummary(
        lambda0=lam0,
        lambda1_abs=lam1_abs,
        ratio=lam1_abs / lam0,
        psi0_right=psi0,
        residual=resid,
        method="dense",
    )


def _parse_boundary(bits: str, n: int, what: str) -> int:
    if not isinstance(bits, str) or len(bits) != n + 1 or any(ch not in "01" for ch in bits):
        raise ValidationError(
            f"{what} boundary must be a bitstring of length {n + 1} (MSB first, "
            f"corner bond last), got {bits!r}"
        )
    return int(bits, 2)


def partition_element(t: TransferOperator, m: int, bottom: str, top: str) -> float:
    """<bottom| T^m |top>: the partition function with pinned boundaries.

    `bottom` reads "d_N ... d_1 d_0" with d_0 the bottom-left corner bond,
    `top` reads "u_N ... u_1 u_0" with u_0 the top-right corner bond; both
    are plain binary renderings of the basis index.  Computed as m row
    sweeps of the basis vector |top>, O(m N 2^N); `t.entries` is not built.
    """
    require_positive_int("m (rows)", m)
    row = _parse_boundary(bottom, t.n, "bottom")
    col = _parse_boundary(top, t.n, "top")
    g = _gate(t.source)
    v = np.zeros(t.dim)
    v[col] = 1.0
    for _ in range(m):
        v = _row_sweep(g, t.n, v, reverse=False)
    return float(v[row])


def brute_force_partition(model: VertexModel, shape: LatticeShape, bottom: str, top: str,
                          corners: tuple[int, int]) -> float:
    """Direct configuration sum with pinned boundaries, the dense oracle's oracle.

    `bottom` and `top` are the vertical boundary bonds in column order
    "b_1 b_2 ... b_N" (bottom edge of row 1, top edge of row M).  `corners`
    pins (l1 of row 1, rN of row M).  Lateral closure is helical: the right
    bond of row m is identified with the left bond of row m+1 and summed.
    Free bonds are enumerated in chunks; the guard rejects jobs beyond
    2^26 configurations.
    """
    n, m = shape.n_cols, shape.n_rows
    for bits in (bottom, top):
        if not isinstance(bits, str) or len(bits) != n or any(c not in "01" for c in bits):
            raise ValidationError(f"boundary bonds must be a length-{n} bitstring, got {bits!r}")
    if not isinstance(corners, tuple) or corners not in ((0, 0), (0, 1), (1, 0), (1, 1)):
        raise ValidationError(f"corner bonds must be a pair of 0/1 values, got {corners!r}")
    n_free = shape.n_free_bonds
    if 2 ** n_free > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{2 ** n_free} configurations exceed the enumeration budget {ENUMERATION_BUDGET}"
        )

    # Bond tables map to ('const', value) or ('bit', position in the free word).
    vert: dict[tuple[int, int], tuple[str, int]] = {}
    horiz: dict[tuple[int, int], tuple[str, int]] = {}
    for k in range(1, n + 1):
        vert[(0, k)] = ("const", int(bottom[k - 1]))
        vert[(m, k)] = ("const", int(top[k - 1]))
    horiz[(1, 0)] = ("const", int(corners[0]))
    horiz[(m, n)] = ("const", int(corners[1]))
    bit = 0
    for j in range(1, m):
        for k in range(1, n + 1):
            vert[(j, k)] = ("bit", bit)
            bit += 1
    for row in range(1, m + 1):
        for i in range(1, n):
            horiz[(row, i)] = ("bit", bit)
            bit += 1
    for seam in range(1, m):
        horiz[(seam, n)] = ("bit", bit)
        horiz[(seam + 1, 0)] = ("bit", bit)
        bit += 1
    assert bit == n_free

    eps = model.energy_array()
    chunk = 1 << 20
    totals: list[float] = []
    for start in range(0, 2 ** n_free, chunk):
        stop = min(start + chunk, 2 ** n_free)
        cfg = np.arange(start, stop, dtype=np.int64)

        def bond(spec):
            kind, val = spec
            if kind == "const":
                return val  # broadcasts
            return (cfg >> val) & 1

        energy = np.zeros(stop - start)
        for row in range(1, m + 1):
            for k in range(1, n + 1):
                d = bond(vert[(row - 1, k)])
                u = bond(vert[(row, k)])
                le = bond(horiz[(row, k - 1)])
                ri = bond(horiz[(row, k)])
                energy += eps[8 * le + 4 * d + 2 * ri + u]
        totals.append(float(np.sum(np.exp(-model.beta * energy))))
    return math.fsum(totals)


def boundary_strings(bottom_cols: str, top_cols: str, corners: tuple[int, int]) -> tuple[str, str]:
    """Convert enumerator-style boundaries to partition_element bitstrings."""
    return bottom_cols[::-1] + str(corners[0]), top_cols[::-1] + str(corners[1])


def free_energy_density(z: float, shape: LatticeShape, beta: float) -> float:
    """Free energy per vertex, -ln(z) / (beta * N * M)."""
    if not 0 < z < math.inf:
        raise ValidationError(f"partition function must be positive and finite, got {z}")
    if not 0 < beta < math.inf:
        raise ValidationError(f"beta must be positive and finite, got {beta}")
    return -math.log(z) / (beta * shape.n_cols * shape.n_rows)
