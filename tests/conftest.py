import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as hs

from vertexsim import (
    ApplyUnitary,
    CircuitPlan,
    MeasureAll,
    RMatrix,
    VertexModel,
    dilate,
    init_state,
)
from vertexsim.rng import stream_u64, to_unit

# every property runs the same examples on every run and has no time limit;
# a test's own @settings sets only max_examples
settings.register_profile("vertexsim", derandomize=True, deadline=None)
settings.load_profile("vertexsim")

# 4x4 Boltzmann gate used as the reference fixture throughout the suite
# (printed to four decimals; its generating seed is unknown, so it can only
# be consumed, never regenerated).
FIXTURE_R = np.array([
    [0.5265, 0.1508, 0.0963, 0.0305],
    [0.1941, 0.1467, 0.0410, 0.0370],
    [0.3334, 0.2018, 0.1079, 0.0126],
    [0.1588, 0.0160, 0.0546, 0.0302],
])

FIXTURE_BETA = 2.0

# normalized singular values printed alongside the fixture
FIXTURE_SINGULAR = (1.0, 0.1553, 0.0511, 0.0437)


@pytest.fixture(scope="session")
def fixture_r() -> RMatrix:
    return RMatrix(entries=FIXTURE_R.copy())


@pytest.fixture(scope="session")
def fixture_model() -> VertexModel:
    """Vertex model whose Boltzmann gate reproduces FIXTURE_R exactly."""
    eps = -np.log(FIXTURE_R) / FIXTURE_BETA
    flat = np.empty(16)
    for l in range(2):
        for d in range(2):
            for r in range(2):
                for u in range(2):
                    flat[8 * l + 4 * d + 2 * r + u] = eps[2 * l + d, 2 * r + u]
    return VertexModel(energies=tuple(flat), beta=FIXTURE_BETA)


def dense_transfer_reference(r: RMatrix, n: int) -> np.ndarray:
    """T contracted gate by gate with tensordot, independent of the row sweep.

    Axes of R reshaped to (l, d, r, u); the chain keeps (l, d1, u1, ..., b_k)
    and the final transpose orders rows "d_N ... d_1 l" and columns
    "u_N ... u_1 r_N", the package's basis convention.
    """
    r4 = r.entries.reshape(2, 2, 2, 2)
    chain = np.transpose(r4, (0, 1, 3, 2))  # axes (l, d1, u1, b1)
    for _ in range(n - 1):
        chain = np.tensordot(chain, r4, axes=([-1], [0]))
        chain = np.moveaxis(chain, -2, -1)  # -> (..., d_k, u_k, b_k)
    row_axes = [2 * k - 1 for k in range(n, 0, -1)] + [0]
    col_axes = [2 * k for k in range(n, 0, -1)] + [2 * n + 1]
    dim = 2 ** (n + 1)
    return np.ascontiguousarray(np.transpose(chain, row_axes + col_axes).reshape(dim, dim))


def reference_apply_matrix(amps, matrix, targets, n_qubits):
    """The gate kernel as first written, with two np.moveaxis calls.

    The library's `apply_matrix` must equal it bit for bit: it hands the same
    contiguous (2^(n-k), 2^k) block to the same `@ matrix.T`.
    """
    m = len(targets)
    tensor = amps.reshape([2] * n_qubits)
    axes = [n_qubits - 1 - q for q in reversed(targets)]
    tensor = np.moveaxis(tensor, axes, range(n_qubits - m, n_qubits))
    shape = tensor.shape
    tensor = tensor.reshape(-1, 2 ** m) @ matrix.T
    tensor = np.moveaxis(tensor.reshape(shape), range(n_qubits - m, n_qubits), axes)
    return np.ascontiguousarray(tensor).reshape(-1)


def reference_marginal_probs(amps, qubits, n_qubits):
    """Outcome weights over `qubits` as first written, with np.moveaxis.

    The library's `_marginal_probs` must equal it bit for bit: the same copy
    and the same row sums, so the measurement thresholds do not move.
    """
    dens = np.abs(amps.reshape((2,) * n_qubits)) ** 2
    axes = [n_qubits - 1 - q for q in reversed(qubits)]
    dens = np.moveaxis(dens, axes, range(len(qubits)))
    return dens.reshape(2 ** len(qubits), -1).sum(axis=-1)


def positive_state(dim: int, seed: int) -> np.ndarray:
    """Seeded random entrywise-positive unit vector."""
    v = to_unit(stream_u64(seed, dim)) + 1e-12
    return v / np.linalg.norm(v)


def mid_circuit_plan() -> CircuitPlan:
    """State preparation + dilation, then one measure per qubit: the classic
    two-unitary, three-measurement protocol.  The data qubits are measured
    mid-circuit and the ancilla lands in select bit 2."""
    d = np.array([1.0, 0.5, 0.3, 0.1])
    prep = np.linalg.qr(np.random.default_rng(1).normal(size=(4, 4)))[0]
    return CircuitPlan(
        n_qubits=3,
        n_classical_bits=3,
        instructions=[
            ApplyUnitary(matrix=prep, targets=(0, 1)),
            ApplyUnitary(matrix=dilate(d), targets=(0, 1, 2)),
            MeasureAll(qubits=(0,), cbits=(0,)),
            MeasureAll(qubits=(1,), cbits=(1,)),
            MeasureAll(qubits=(2,), cbits=(2,)),
        ],
        n_data_bits=2,
    )


def haar_unitary(rng, k):
    z = rng.normal(size=(2 ** k, 2 ** k)) + 1j * rng.normal(size=(2 ** k, 2 ** k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@hs.composite
def mixed_plans(draw):
    """Random unitaries between measurements that mix data and select bits.

    The top qubit starts in |0> and the first measurement includes it, so
    that measurement has outcomes of probability exactly zero; a qubit
    measured twice with no unitary in between has them too.
    """
    nq = draw(hs.integers(2, 4))
    nd = draw(hs.integers(1, 3))
    width = nd + draw(hs.integers(1, 3))
    rng = np.random.default_rng(draw(hs.integers(0, 2 ** 32 - 1)))
    qubit = hs.integers(0, nq - 1)
    cbit = hs.integers(0, width - 1)

    def measure(first):
        qubits = draw(hs.lists(qubit, min_size=1, max_size=nq, unique=True))
        if first and nq - 1 not in qubits:
            qubits.append(nq - 1)
        return MeasureAll(qubits=tuple(qubits),
                          cbits=tuple(draw(cbit) for _ in qubits))

    ins = [measure(first=True)]
    for _ in range(draw(hs.integers(1, 3))):
        for _ in range(draw(hs.integers(0, 2))):
            targets = tuple(draw(hs.lists(qubit, min_size=1, max_size=2, unique=True)))
            ins.append(ApplyUnitary(matrix=haar_unitary(rng, len(targets)), targets=targets))
        if draw(hs.booleans()):
            ins.append(measure(first=False))
        else:
            ins.append(MeasureAll(qubits=(draw(qubit),),
                                  cbits=(draw(hs.integers(nd, width - 1)),)))
    plan = CircuitPlan(n_qubits=nq, n_classical_bits=width, instructions=ins, n_data_bits=nd)
    low = rng.normal(size=2 ** (nq - 1)) + 1j * rng.normal(size=2 ** (nq - 1))
    amps = np.concatenate([low, np.zeros_like(low)])
    return plan, init_state(nq, amps / np.linalg.norm(amps))


def estimator_bound(t: np.ndarray, psi0: np.ndarray, psi: np.ndarray) -> float:
    """Upper bound on the exact lambda_1 estimate for input psi, valid for any T.

    With P = psi0 psi0^T (psi0 the unit dominant right eigenvector) the
    estimate equals ||(I-P) T (I-P) phi|| <psi0,psi> / (||phi|| <psi0,T psi>)
    with phi = (I-P) psi, so it is at most
    ||(I-P) T (I-P)||_2 <psi0,psi> / <psi0,T psi>.  For normal T this is
    exactly |Lambda_1| / Lambda_0.
    """
    q = np.eye(len(psi0)) - np.outer(psi0, psi0)
    deflated_norm = float(np.linalg.norm(q @ t @ q, 2))
    return deflated_norm * float(psi0 @ psi) / float(psi0 @ (t @ psi))
