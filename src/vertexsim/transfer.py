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

import io
import json
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
)
# unused here since the row product stopped calling it; perfbench's tracer test
# still expects this binding (see ROADMAP item 2)
from .gates import apply_matrix  # noqa: F401
from .model import RMatrix, VertexModel
from .rng import uniforms

DENSE_CAP_QUBITS = 13  # N + 1 <= 13: dense storage grows as 4^(N+1)
ENUMERATION_BUDGET = 1 << 26
_ASSEMBLY_BLOCK = 256  # identity columns per sweep in `entries`; bounds the temporaries


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
    lambda0: float
    lambda1_abs: float
    ratio: float
    psi0_right: np.ndarray
    residual: float
    residual_deflation: float = 0.0
    iterations_right: int = 0
    iterations_left: int = 0
    iterations_deflation: int = 0
    widenings: int = 0
    method: str = "power"

    @property
    def iterations(self) -> int:
        """Matvec iterations over all three power-method phases."""
        return self.iterations_right + self.iterations_left + self.iterations_deflation


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


def _power_dominant(matvec, dim: int, tol: float, max_iterations: int):
    """Power iteration for the dominant (Perron) eigenpair of a positive map."""
    v = np.full(dim, dim ** -0.5)
    best = math.inf
    for it in range(1, max_iterations + 1):
        w = matvec(v)
        lam = float(v @ w)
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            raise ConvergenceError("operator annihilated the iterate", best)
        resid = float(np.linalg.norm(w - lam * v)) / abs(lam)
        best = min(best, resid)
        if resid < tol:
            return lam, v, resid, it
        v = w / nrm
    raise ConvergenceError(f"power iteration did not converge in {max_iterations} steps", best)


def _deflated_second(matvec, dim: int, lam0: float, psi_r: np.ndarray, psi_l: np.ndarray,
                     tol: float, max_iterations: int):
    """|Lambda_1| by block subspace iteration on T with (lam0, psi_r, psi_l) deflated.

    The deflation is the rank-one update T - lam0 psi_r psi_l^T / (psi_l . psi_r),
    applied to a real dim x block array.  Each iteration costs one block
    matvec: its product is both the Rayleigh block of this iteration and the
    iterate of the next, and the Ritz residual follows from it by linearity.
    Widening the block costs one extra block matvec.

    Convergence is judged on the dominant Ritz pair alone (its residual and
    the drift of its magnitude), so clustered or complex second eigenvalues
    inside the block do not stall the test; if the residual stagnates the
    block is widened to swallow the cluster.  Returns the magnitude, its
    residual, the iteration count and the number of widenings.
    """
    scale = lam0 / (psi_l @ psi_r)

    def defl(x):
        return matvec(x) - np.outer(psi_r, scale * (psi_l @ x))

    block = min(4, dim - 1)
    z = defl(np.linalg.qr(uniforms(29, dim * block).reshape(dim, block) - 0.5)[0])
    best = math.inf
    lam1 = math.inf
    last_resid = math.inf
    stall = 0
    widenings = 0
    for it in range(1, max_iterations + 1):
        if float(np.linalg.norm(z)) <= tol * abs(lam0):
            # deflated operator numerically vanishes on the block: rank-one regime
            return float(np.linalg.norm(z)) / math.sqrt(block), 0.0, it, widenings
        q, _ = np.linalg.qr(z)
        z = defl(q)
        w, vecs = np.linalg.eig(q.T @ z)
        j = int(np.argmax(np.abs(w)))
        mu, x = w[j], vecs[:, j]
        resid = float(np.linalg.norm(z @ x - mu * (q @ x))) / abs(lam0)
        best = min(best, resid)
        new = float(abs(mu))
        drift = abs(new - lam1) / abs(lam0) if math.isfinite(lam1) else math.inf
        lam1 = new
        if resid < tol and drift < tol:
            return lam1, resid, it, widenings
        stall = stall + 1 if resid > 0.5 * last_resid else 0
        last_resid = resid
        if stall >= 40 and block < min(16, dim - 1):
            block = min(2 * block, 16, dim - 1)
            fresh = uniforms(31 + block, dim * block).reshape(dim, block) - 0.5
            z = defl(np.linalg.qr(np.hstack([q, fresh]))[0][:, :block])
            widenings += 1
            stall = 0
            last_resid = math.inf
    raise ConvergenceError(
        f"deflated subspace iteration did not converge in {max_iterations} steps", best
    )


def spectral_summary(t: TransferOperator, tol: float = 1e-10, max_iterations: int = 100_000,
                     method: str = "power") -> SpectralSummary:
    """Top of the spectrum: Lambda_0, |Lambda_1|, their ratio and Psi_0^R.

    method="power" (default) runs power iteration plus one deflation and
    needs nothing beyond matvecs: it applies T and T^T as row products of
    `t.source` and never reads `t.entries`.  method="dense" is the LAPACK
    cross-check backend.  Residuals are relative to Lambda_0: `residual` is
    that of (Lambda_0, Psi_0^R), `residual_deflation` that of the dominant
    Ritz pair behind |Lambda_1| (0.0 for the dense method).
    """
    if not 0 < tol < math.inf:
        raise ValidationError(f"tol must be positive and finite, got {tol!r}")
    require_positive_int("max_iterations", max_iterations)
    if method == "dense":
        return _dense_summary(t, tol)
    if method != "power":
        raise ValidationError(f"unknown spectral method {method!r}")

    g = _gate(t.source)

    def matvec(x):
        return _row_sweep(g, t.n, x, reverse=False)

    def rmatvec(x):
        return _row_sweep(g.T, t.n, x, reverse=True)

    lam0, psi0, resid, it_r = _power_dominant(matvec, t.dim, tol, max_iterations)
    if lam0 <= 0:
        raise NumericalError(f"dominant eigenvalue must be positive, got {lam0}")
    if psi0.sum() < 0:
        psi0 = -psi0
    _, psi0_l, _, it_l = _power_dominant(rmatvec, t.dim, tol, max_iterations)
    if psi0_l.sum() < 0:
        psi0_l = -psi0_l
    lam1_abs, resid_d, it_d, widenings = _deflated_second(matvec, t.dim, lam0, psi0, psi0_l,
                                                          tol, max_iterations)
    lam1_abs = min(lam1_abs, lam0)  # guard fp overshoot; Perron gives strict inequality
    return SpectralSummary(
        lambda0=lam0,
        lambda1_abs=lam1_abs,
        ratio=lam1_abs / lam0,
        psi0_right=psi0,
        residual=resid,
        residual_deflation=resid_d,
        iterations_right=it_r,
        iterations_left=it_l,
        iterations_deflation=it_d,
        widenings=widenings,
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
    if len(bottom) != n or len(top) != n or any(c not in "01" for c in bottom + top):
        raise ValidationError(f"boundary bitstrings must have length {n}")
    if corners[0] not in (0, 1) or corners[1] not in (0, 1):
        raise ValidationError("corner bonds must be 0 or 1")
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
    horiz[(1, 0)] = ("const", corners[0])
    horiz[(m, n)] = ("const", corners[1])
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


def summary_to_json(s: SpectralSummary) -> str:
    return json.dumps(
        {
            "lambda0": s.lambda0,
            "lambda1_abs": s.lambda1_abs,
            "ratio": s.ratio,
            "residual": s.residual,
            "residual_deflation": s.residual_deflation,
            "iterations": s.iterations,
            "iterations_right": s.iterations_right,
            "iterations_left": s.iterations_left,
            "iterations_deflation": s.iterations_deflation,
            "widenings": s.widenings,
            "method": s.method,
            "psi0_right": s.psi0_right.tolist(),
        },
        indent=2,
    )


def vector_to_csv(v: np.ndarray) -> str:
    out = io.StringIO()
    out.write("index,value\n")
    for i, x in enumerate(v):
        out.write(f"{i},{float(x)!r}\n")
    return out.getvalue()
