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
import sys
from dataclasses import dataclass
from functools import cached_property, partial

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
from .simulator import MAX_STATE_AMPLITUDES

DENSE_CAP_QUBITS = 13  # N + 1 <= 13 for `entries`: dense storage grows as 4^(N+1)
ENUMERATION_BUDGET = 1 << 26
_ASSEMBLY_BLOCK = 256  # identity columns per sweep in `entries`; bounds the temporaries
FUSED_GATES = 3  # gates per block of the row sweep: 16 x 16 blocks
KRYLOV_DIM = 20  # Arnoldi basis vectors per restart cycle, capped at dim
# N + 1 <= 19 for every operator.  The Arnoldi peak, the basis (KRYLOV_DIM + 1), the restart's
# product (KRYLOV_DIM // 2) and 3 more, 34 vectors of 2^(N+1) doubles, must fit the 256 MiB
# of MAX_STATE_AMPLITUDES complex amplitudes, two doubles each.
SWEEP_CAP_QUBITS = (2 * MAX_STATE_AMPLITUDES // (KRYLOV_DIM + KRYLOV_DIM // 2 + 4)).bit_length() - 1


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

    n is a positive integer with n + 1 <= SWEEP_CAP_QUBITS.  Products with T
    and T^T are row sweeps (`_row_sweep`) of `_blocks`, the gates of `source`
    fused FUSED_GATES at a time, built on first use and cached;
    `apply_transfer` is the public T product.  `entries`, the dense matrix
    that only `spectral_summary(method="dense")` reads, is swept from the
    identity on first read and cached read-only, for n + 1 <= DENSE_CAP_QUBITS.
    """

    n: int
    source: RMatrix

    def __post_init__(self):
        require_positive_int("n (columns)", self.n)
        _check_cap(self.n, SWEEP_CAP_QUBITS, "matrix-free sweeps")

    @property
    def dim(self) -> int:
        return 2 ** (self.n + 1)

    @cached_property
    def entries(self) -> np.ndarray:
        _check_cap(self.n, DENSE_CAP_QUBITS, "dense assembly")
        out = np.empty((self.dim, self.dim))
        for s in range(0, self.dim, _ASSEMBLY_BLOCK):
            b = min(_ASSEMBLY_BLOCK, self.dim - s)
            out[:, s:s + b] = _row_sweep(self._blocks, np.eye(self.dim, b, -s), reverse=False)
        out.setflags(write=False)
        return out

    @cached_property
    def _blocks(self) -> tuple[np.ndarray, ...]:
        return _fused_blocks(self.source, self.n)


def _check_cap(n: int, qubits: int, what: str) -> None:
    if n + 1 > qubits:
        raise DimensionError(f"{what} capped at n+1 <= {qubits} qubits; got n={n}")


@dataclass(frozen=True)
class SpectralSummary:
    """Lambda_0, |Lambda_1|, their ratio and Psi_0^R, as `spectral_summary` finds them.

    `magnitudes` lists the |eigenvalues| found, largest first (dense: all
    dim, power: the two leading), from (lambda0, lambda1_abs) bit for bit.
    `residual` is the true residual ||T Psi_0^R - Lambda_0 Psi_0^R|| /
    Lambda_0 for both methods.  `residual_lambda1` is the Ritz residual,
    relative to Lambda_0, of the pair behind |Lambda_1| (0.0 for the dense
    method).  Since |Lambda_1| is accepted at a Ritz residual below
    `tol * Lambda_0`, a small ratio is known to an absolute, not a relative,
    error: on 1200 random c = 2 models (beta 0.5 to 4, N <= 8), whose ratios
    fall to 1e-10, the default tol gave the dense method's ratio to 1.2e-12.
    `iterations` counts the Arnoldi matvecs with T (0 for dense).
    """

    lambda0: float
    lambda1_abs: float
    ratio: float
    psi0_right: np.ndarray
    magnitudes: np.ndarray
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
    return _row_sweep(t._blocks, x, reverse=False)


def _fused_blocks(r: RMatrix, n: int) -> tuple[np.ndarray, ...]:
    """The n gates of a row product fused FUSED_GATES at a time, gate n first.

    Each gate is g, R with rows reordered from (l, d) to (d, l), so that the
    lateral bond leaves it as the minor bit, next to the vertical bit the
    following gate consumes.  A block of p gates k, k-1, ..., k-p+1 is one
    2^(p+1) x 2^(p+1) matrix from (bond, u_k, ..., u_{k-p+1}) to
    (d_k, ..., d_{k-p+1}, bond).  Adding a gate sums over the bond between:

        B_{q+1}[(x, d, c), (i, u)] = sum_b B_q[(x, b), i] g[(d, c), (b, u)].

    Full blocks are all the same matrix; the last block takes the remaining
    n mod FUSED_GATES gates.
    """
    g = r.entries[[0, 2, 1, 3]]
    chain = [g]
    g4 = g.reshape(2, 2, 2, 2)
    while len(chain) < min(FUSED_GATES, n):
        s = len(chain[-1]) // 2
        b = np.einsum("xbi,dcbu->xdciu", chain[-1].reshape(s, 2, 2 * s), g4)
        chain.append(b.reshape(4 * s, 4 * s))
    full, rest = divmod(n, FUSED_GATES)
    return (chain[-1],) * full + (chain[rest - 1],) * (rest > 0)


def _row_sweep(blocks: tuple[np.ndarray, ...], x: np.ndarray, reverse: bool) -> np.ndarray:
    """T @ x (reverse=False) or T^T @ x (reverse=True), blocks = `_fused_blocks`.

    x is (dim,) or (dim, b).  Forward, the lateral bond r is first moved in
    front of the vertical bits, (r, u_N, ..., u_1); once the first `done`
    d bits are written, the bond and the next vertical bits sit side by
    side, so a block of p gates is one batched matmul over the contiguous
    view (done, 2^(p+1), rest) that writes (d_k, ..., d_{k-p+1}, bond) in
    their place.  After the last block the axes read (d_N, ..., d_1, l), the
    natural order.  Reverse applies the block transposes back to front and
    moves the bond from the front to the back at the end.  Either way one
    copy moves the bond.  On a vector, the last block forward and the first
    reverse have rest = 1, so they run as one (done, 2^(p+1)) gemm instead
    of a batch of gemvs.
    """
    if reverse:
        b, *rest = blocks[::-1]
        done = len(x) // len(b)
        y = x.reshape(done, len(b)) @ b if x.ndim == 1 else b.T @ x.reshape(done, len(b), -1)
        for a in rest:
            done //= len(a) // 2
            y = a.T @ y.reshape(done, len(a), -1)
        return y.reshape(2, len(x) // 2, -1).transpose(1, 0, 2).reshape(x.shape)
    *rest, b = blocks
    y = x.reshape(len(x) // 2, 2, -1).transpose(1, 0, 2)
    done = 1
    for a in rest:
        y = a @ y.reshape(done, len(a), -1)
        done *= len(a) // 2
    y = y.reshape(done, len(b)) @ b.T if x.ndim == 1 else b @ y.reshape(done, len(b), -1)
    return y.reshape(x.shape)


def _arnoldi_top(matvec, dim: int, tol: float, max_iterations: int):
    """The two leading Ritz pairs of T by thick-restarted (Krylov-Schur) Arnoldi.

    Each cycle grows an orthonormal Krylov basis Q of up to KRYLOV_DIM
    vectors, Gram-Schmidt run twice per step, and the projected matrix
    H = Q^T T Q with T Q = Q H + h[m, m-1] q_m e_m^T.  A Ritz pair
    (theta, Q y) of H has the residual |h[m, m-1] y[m-1]|.  When the second
    Gram-Schmidt pass removes more than half of the new vector, what is left
    is rounding inside span(Q) (Kahan's twice-is-enough test): the basis is
    invariant under T, its Ritz values are exact and the iteration ends.
    That happens at step dim when dim <= KRYLOV_DIM.  Otherwise the cycle
    restarts thick: the real and imaginary parts of the KRYLOV_DIM // 2
    leading Ritz vectors, a complex pair kept whole, are orthonormalized
    to W, and Q <- W^T Q, H <- W^T H W with the coupling row
    h[m, m-1] W[m-1] keep the relation above on the s kept vectors; q_m
    becomes q_s and Arnoldi goes on from step s (Stewart, SIAM J. Matrix
    Anal. Appl. 23, 2001).  An invariant space too small to hold two pairs
    ends the iteration unconverged.  The start vector is pseudo-random, not
    flat: a flat start lies in the spin-flip-even sector of a
    spin-flip-symmetric model and sees a flip-odd Lambda_1 only through
    rounding.  Returns the two leading Ritz values, the real Ritz vector of
    the first, both residuals relative to |theta_0| and the matvec count.
    """
    k = min(KRYLOV_DIM, dim)
    q = np.empty((k + 1, dim))
    h = np.zeros((k + 1, k))
    v = uniforms(29, dim) + 0.5
    q[0] = v / np.linalg.norm(v)
    s = used = 0
    best = math.inf
    while used < max_iterations:
        m = min(k, s + max_iterations - used)
        for j in range(s, m):
            w = matvec(q[j])
            c = q[:j + 1] @ w
            w -= c @ q[:j + 1]
            # np.linalg.norm(w), without its argument handling
            norm0 = math.sqrt(w.dot(w))
            c2 = q[:j + 1] @ w
            w -= c2 @ q[:j + 1]
            norm1 = math.sqrt(w.dot(w))
            h[:j + 1, j] = c + c2  # the column starts at zero: the sum of adding each
            if norm1 <= 0.5 * norm0:  # breakdown: span(Q) is invariant
                m = j + 1
                break
            h[j + 1, j] = norm1
            np.divide(w, norm1, out=q[j + 1])
        used += m - s
        theta, y = np.linalg.eig(h[:m, :m])
        order = np.argsort(-np.abs(theta))
        theta, y = theta[order], y[:, order]
        resid = np.abs(h[m, m - 1] * y[m - 1, :2]) / abs(theta[0])
        worst = float(resid.max()) if m > 1 else math.inf
        if worst < tol:
            return theta[:2], y[:, 0].real @ q[:m], resid, used
        best = min(best, worst)
        if m < k:  # invariant, or out of matvecs
            break
        s = k // 2 + int(np.count_nonzero(theta[:k // 2].imag)) % 2  # int: the count goes to JSON
        keep, _ = np.linalg.qr(np.where(theta[:s].imag < 0, y[:, :s].imag, y[:, :s].real))
        q[:s] = keep.T @ q[:m]
        q[s] = q[m]
        h, g = np.zeros_like(h), h
        h[:s, :s] = keep.T @ g[:m, :m] @ keep
        h[s, :s] = g[m, m - 1] * keep[m - 1]
    raise ConvergenceError(f"Arnoldi did not converge in {used} matvecs", best)


def spectral_summary(t: TransferOperator, tol: float = 1e-10, max_iterations: int = 100_000,
                     method: str = "power") -> SpectralSummary:
    """Top of the spectrum: Lambda_0, |Lambda_1|, their ratio and Psi_0^R.

    method="power" (default) is restarted Arnoldi on matvecs alone: it
    applies T, scaled by a power of two, as row products of `t.source` and
    never reads `t.entries`, so it runs at every width the operator accepts.
    Lambda_0, Psi_0^R and |Lambda_1| are the two leading Ritz pairs of one
    Krylov space, and `max_iterations` bounds the number of matvecs.
    method="dense" is the LAPACK cross-check backend: one `eig` of `t.entries`
    gives every eigenvalue.  The power method accepts both Ritz pairs at
    residuals below `tol * Lambda_0`; then `_summary` runs the same checks
    for both methods, the true residual of (Lambda_0, Psi_0^R), one more
    product with T, against max(tol, 1e-9) among them.  ConvergenceError
    carries the best residual reached.
    """
    require_positive_real("tol", tol)
    require_positive_int("max_iterations", max_iterations)
    if method == "dense":
        with np.errstate(over="ignore"):  # an overflow fails the check below
            if not np.isfinite(t.entries).all():
                raise NumericalError("T has entries outside the double range")
        ev, vec = np.linalg.eig(t.entries)
        order = np.argsort(-np.abs(ev))
        return _summary(lambda x: t.entries @ x, ev[order], np.real(vec[:, order[0]]), tol,
                        method="dense")
    if method != "power":
        raise ValidationError(f"unknown spectral method {method!r}")

    # Arnoldi runs on T / 2^(e n), each gate divided by 2^e, e even, so that its
    # largest entry lies in [1/4, 1): at beta 300 T's entries are near 1e-296
    # and a Krylov vector's squared norm underflows.  A block of p gates,
    # 2^(p+1) square, is divided by 2^(e p).  A power of two scales every
    # product exactly; an even one also keeps LAPACK's eig, which takes square
    # roots, exact (an odd one moved the last bits of about half of random
    # 6x6 matrices).  A gate whose largest entry is in [1/4, 1) runs unscaled.
    e = 2 * ((math.frexp(float(t.source.entries.max()))[1] + 1) // 2)
    blocks = t._blocks if e == 0 else tuple(
        np.ldexp(b, -e * (len(b).bit_length() - 2)) for b in t._blocks)
    matvec = partial(_row_sweep, blocks, reverse=False)
    theta, psi0, resid, used = _arnoldi_top(matvec, t.dim, tol, max_iterations)
    return _summary(matvec, theta, psi0, tol, exponent=e * t.n,
                    residual_lambda1=float(resid[1]), iterations=used, method="power")


def _summary(matvec, theta: np.ndarray, psi0: np.ndarray, tol: float, exponent: int = 0,
             **fields) -> SpectralSummary:
    """T's summary from `theta`, both methods' eigenvalues of T / 2^exponent (which
    `matvec` applies) by decreasing magnitude, and psi0, the real eigenvector of
    theta[0], scaled here to unit norm and a positive sum.  NumericalError if
    theta[0] is complex or negative, or Lambda_0 = theta[0] * 2^exponent is not
    a normal double; `_true_residual` checks (Lambda_0, psi0)."""
    lam0 = float(theta[0].real)
    if theta[0].imag != 0 or lam0 < 0:  # 0 fails the range check below
        raise NumericalError(f"dominant eigenvalue must be real and positive, got {theta[0]}")
    if not (lam0 > 0 and sys.float_info.min_exp <= math.frexp(lam0)[1] + exponent
            <= sys.float_info.max_exp):
        raise NumericalError(f"Lambda_0 = {lam0!r} * 2^{exponent} lies outside the double range; "
                             "the ratio and psi0 do not depend on this scale")
    lam1_abs = min(float(abs(theta[1])), lam0)  # guard fp overshoot; Perron gives strict inequality
    magnitudes = np.ldexp(np.abs(theta), exponent)
    # scalar abs() and the array's np.abs may differ in the last bit: list the summary's own
    magnitudes[:2] = math.ldexp(lam0, exponent), math.ldexp(lam1_abs, exponent)
    psi0 /= np.linalg.norm(psi0)
    if psi0.sum() < 0:
        psi0 = -psi0
    return SpectralSummary(lambda0=magnitudes[0].item(), lambda1_abs=magnitudes[1].item(),
                           ratio=lam1_abs / lam0, psi0_right=psi0, magnitudes=magnitudes,
                           residual=_true_residual(matvec, lam0, psi0, tol), **fields)


def _true_residual(matvec, lam0: float, psi0: np.ndarray, tol: float) -> float:
    """||T psi0 - Lambda_0 psi0|| / Lambda_0; ConvergenceError above max(tol, 1e-9)."""
    resid = float(np.linalg.norm(matvec(psi0) - lam0 * psi0)) / abs(lam0)
    if resid > max(tol, 1e-9):
        raise ConvergenceError("eigenpair residual above tolerance", resid)
    return resid


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
    v = np.zeros(t.dim)
    v[col] = 1.0
    for _ in range(m):
        v = _row_sweep(t._blocks, v, reverse=False)
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
    z = require_positive_real("partition function", z)
    return -math.log(z) / (require_positive_real("beta", beta) * shape.n_cols * shape.n_rows)
