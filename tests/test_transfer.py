import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexsim import (
    ConvergenceError,
    DimensionError,
    EnumerationBudgetError,
    LatticeShape,
    NumericalError,
    RMatrix,
    TransferOperator,
    ValidationError,
    VertexModel,
    apply_transfer,
    assemble_transfer,
    boundary_strings,
    brute_force_partition,
    free_energy_density,
    generate_model,
    partition_element,
    r_matrix,
    spectral_summary,
)
from vertexsim import transfer
from vertexsim.simulator import MAX_STATE_AMPLITUDES
from vertexsim.transfer import (
    DENSE_CAP_QUBITS,
    SWEEP_CAP_QUBITS,
    _row_sweep,
    _true_residual,
)

from conftest import dense_transfer_reference, positive_state
from test_model import ramp_model


def ones_r() -> RMatrix:
    return RMatrix(entries=np.ones((4, 4)))


def test_n1_transfer_is_permuted_r():
    m = generate_model(0.7, 2.0, 2)
    R = r_matrix(m)
    t = assemble_transfer(R, 1)
    # row l + 2d, column r + 2u picks up R[2l+d, 2r+u]
    for l in range(2):
        for d in range(2):
            for r in range(2):
                for u in range(2):
                    assert t.entries[l + 2 * d, r + 2 * u] == R.entries[2 * l + d, 2 * r + u]


def test_n2_all_ones_gives_constant_two():
    t = assemble_transfer(ones_r(), 2)
    assert t.dim == 8
    assert np.all(t.entries == 2.0)  # one summed internal bond, two values


def test_matrix_elements_match_direct_chain():
    m = generate_model(0.3, 1.5, 6)
    R = r_matrix(m)
    n = 3
    t = assemble_transfer(R, n)
    rng = np.random.default_rng(0)
    for _ in range(40):
        dbits = rng.integers(0, 2, n)
        ubits = rng.integers(0, 2, n)
        l1, rn = rng.integers(0, 2), rng.integers(0, 2)
        # direct product of 2x2 chain matrices
        chain = np.eye(2)
        for k in range(n):
            block = np.array(
                [[R.entries[2 * a + dbits[k], 2 * b + ubits[k]] for b in range(2)]
                 for a in range(2)]
            )
            chain = chain @ block
        row = l1 + sum(int(dbits[k]) << (k + 1) for k in range(n))
        col = rn + sum(int(ubits[k]) << (k + 1) for k in range(n))
        assert abs(t.entries[row, col] - chain[l1, rn]) < 1e-14


def test_dense_cap_error_names_cap():
    # the cap guards the dense matrix alone: at n + 1 = 14 qubits the operator
    # exists and its matrix-free spectrum runs
    t = assemble_transfer(r_matrix(generate_model(0.4, 2.0, 1)), DENSE_CAP_QUBITS)
    for read in (lambda: t.entries, lambda: spectral_summary(t, method="dense")):
        with pytest.raises(DimensionError, match=str(DENSE_CAP_QUBITS)):
            read()
    s = spectral_summary(t)
    assert 0 < s.ratio < 1 and s.residual < 1e-10


def test_sweep_cap_bounds_the_oracle_memory():
    # one summary's tracemalloc peak per basis index, scaled to the widest
    # accepted row, fits the 256 MiB budget, and one qubit more would not
    t = assemble_transfer(r_matrix(generate_model(0.4, 2.0, 7)), 14)
    tracemalloc.start()
    try:
        iterations = spectral_summary(t).iterations
        per_index = tracemalloc.get_traced_memory()[1] / t.dim
    finally:
        tracemalloc.stop()
    # a thick restart ran, and its count stays a plain int for the CLI's JSON
    assert type(iterations) is int and iterations > transfer.KRYLOV_DIM
    budget = MAX_STATE_AMPLITUDES * np.dtype(np.complex128).itemsize
    assert per_index * 2 ** SWEEP_CAP_QUBITS <= budget < per_index * 2 ** (SWEEP_CAP_QUBITS + 1)


def test_assemble_transfer_rejects_non_integer_width():
    for n in (0, -1, 2.5, 2.0, True, "3", None):
        with pytest.raises(ValidationError):
            assemble_transfer(ones_r(), n)


@pytest.mark.parametrize("c", [0.0, 0.4, 2.0])
def test_entries_match_tensordot_reference_cached_and_read_only(c):
    for n in range(1, 10):
        r = r_matrix(generate_model(c, 2.0, n))
        t = assemble_transfer(r, n)
        assert "entries" not in vars(t)  # nothing is built until read
        ref = dense_transfer_reference(r, n)
        assert np.all(np.abs(t.entries - ref) <= 1e-14 * ref)
        assert t.entries is t.entries
        assert not t.entries.flags.writeable
        with pytest.raises(ValueError):
            t.entries[0, 0] = 1.0


def test_apply_transfer_columns_and_eigvec():
    m = generate_model(0.4, 2.0, 12)
    for n in range(1, 8):
        # the identity block is the sweep that builds `entries` (one block up to dim 256)
        t = assemble_transfer(r_matrix(m), n)
        np.testing.assert_array_equal(apply_transfer(t, np.eye(t.dim)), t.entries)
    t = assemble_transfer(r_matrix(m), 3)
    ref = dense_transfer_reference(t.source, 3)
    for k in (0, 5, 15):
        e = np.zeros(t.dim)
        e[k] = 1.0
        # a single-vector sweep may round differently in the last bit
        assert np.all(np.abs(apply_transfer(t, e) - ref[:, k]) <= 1e-14 * ref[:, k])
    s = spectral_summary(t)
    resid = np.linalg.norm(apply_transfer(t, s.psi0_right) - s.lambda0 * s.psi0_right)
    assert resid / s.lambda0 < 1e-9


def test_apply_transfer_uniform_on_all_ones():
    t = assemble_transfer(ones_r(), 2)
    v = np.full(t.dim, t.dim ** -0.5)
    out = apply_transfer(t, v)
    assert np.allclose(out, out[0])


def test_apply_transfer_dimension_error():
    t = assemble_transfer(ones_r(), 2)
    with pytest.raises(DimensionError):
        apply_transfer(t, np.ones(7))


def test_matrix_free_apply_matches_dense():
    for seed, n in [(1, 1), (2, 2), (3, 4), (4, 5)]:
        m = generate_model(0.2, 2.0, seed)
        R = r_matrix(m)
        v = positive_state(2 ** (n + 1), 100 + seed)
        np.testing.assert_allclose(
            apply_transfer(assemble_transfer(R, n), v), dense_transfer_reference(R, n) @ v,
            rtol=1e-13, atol=1e-15,
        )


@settings(max_examples=40)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2 ** 16),
    c=st.sampled_from([0.0, 0.4, 2.0]),
    b=st.integers(1, 5),
)
def test_row_product_and_transpose_match_dense(n, seed, c, b):
    R = r_matrix(generate_model(c, 2.0, seed))
    T = dense_transfer_reference(R, n)
    rng = np.random.default_rng(seed)
    for x in (rng.uniform(-1, 1, T.shape[0]), rng.uniform(-1, 1, (T.shape[0], b))):
        for dense, got in (
            (T, apply_transfer(assemble_transfer(R, n), x)),
            (T.T, _row_sweep(assemble_transfer(R, n)._blocks, x, reverse=True)),
        ):
            assert got.shape == x.shape
            # componentwise: rounding scales with |T| |x|, not with |T x|
            assert np.all(np.abs(got - dense @ x) <= 1e-13 * (np.abs(dense) @ np.abs(x)))


@pytest.mark.parametrize("n, c", [(7, 0.0), (8, 0.4), (9, 2.0), (10, 0.4)])
def test_row_product_and_transpose_match_dense_over_several_blocks(n, c):
    # n mod FUSED_GATES = 1, 2, 0, 1: each remainder block after two or three full ones
    R = r_matrix(generate_model(c, 2.0, n))
    T = dense_transfer_reference(R, n)
    t = assemble_transfer(R, n)
    assert len(t._blocks) == -(-n // transfer.FUSED_GATES)
    rng = np.random.default_rng(n)
    for x in (rng.uniform(-1, 1, t.dim), rng.uniform(-1, 1, (t.dim, 3))):
        for dense, got in ((T, apply_transfer(t, x)),
                           (T.T, _row_sweep(t._blocks, x, reverse=True))):
            assert got.shape == x.shape
            assert np.all(np.abs(got - dense @ x) <= 1e-13 * (np.abs(dense) @ np.abs(x)))


def test_blocks_are_built_once_per_operator():
    t = assemble_transfer(r_matrix(generate_model(0.4, 2.0, 7)), 5)
    with mock.patch.object(transfer, "_fused_blocks", wraps=transfer._fused_blocks) as build:
        spectral_summary(t)
        spectral_summary(t, method="dense")
        apply_transfer(t, np.ones(t.dim))
        partition_element(t, 2, "0" * 6, "1" * 6)
    build.assert_called_once()


def test_power_oracle_never_reads_dense_entries():
    t = assemble_transfer(r_matrix(generate_model(0.4, 2.0, 7)), 4)
    spectral_summary(t)
    assert "entries" not in vars(t)


def test_row_product_rejects_bad_shapes():
    t = assemble_transfer(ones_r(), 4)
    for shape in ((7,), (16, 2), (32, 2, 1), (32, 0), ()):
        with pytest.raises(DimensionError):
            apply_transfer(t, np.ones(shape))
    for x in ((1 + 1j) * np.ones(32), np.ones((32, 2), dtype=complex)):
        with pytest.raises(ValidationError):
            apply_transfer(t, x)
    # the operator checks its own width, however it is built
    for n in (0, True, 1.0, 2.5, SWEEP_CAP_QUBITS):
        for build in (lambda n: TransferOperator(n=n, source=ones_r()),
                      lambda n: assemble_transfer(ones_r(), n)):
            with pytest.raises(ValidationError):
                build(n)


def test_spectral_rank_one_regime():
    # pure ramp: exactly one nonzero eigenvalue, dominant vector near |0...0>
    t = assemble_transfer(r_matrix(ramp_model()), 4)
    s = spectral_summary(t)
    assert s.ratio < 1e-10
    m10 = generate_model(10.0, 2.0, 3)
    t10 = assemble_transfer(r_matrix(m10), 4)
    s10 = spectral_summary(t10)
    assert s10.ratio < 1e-6
    assert s10.psi0_right[0] > 1.0 - 1e-6


def test_spectral_fixture_ratio(fixture_r):
    t = assemble_transfer(fixture_r, 4)
    s = spectral_summary(t)
    assert abs(s.ratio - 0.11) < 0.005


def test_power_and_dense_backends_agree():
    for seed in range(8):
        for c in (0.0, 0.4, 2.0):
            t = assemble_transfer(r_matrix(generate_model(c, 2.0, seed)), 3)
            a = spectral_summary(t)
            b = spectral_summary(t, method="dense")
            assert abs(a.lambda0 - b.lambda0) / b.lambda0 < 1e-10
            assert abs(a.ratio - b.ratio) < 1e-8
            assert np.linalg.norm(a.psi0_right - b.psi0_right) < 1e-7


SPECTRAL_GOLDENS = [
    # (c, seed, n, lambda0, ratio), pinned from the dense backend
    pytest.param(0.4, 7, 9, 0.037704954810838305, 0.056036632741361975, id="c0.4-seed7-n9"),
    pytest.param(0.0, 0, 5, 11.26029364223763, 0.11720441047149353, id="c0-seed0-n5"),
    pytest.param(0.4, 2, 6, 0.015313578823075564, 0.07067964960952265, id="c0.4-seed2-n6"),
]


@pytest.mark.parametrize("c, seed, n, lambda0, ratio", SPECTRAL_GOLDENS)
def test_spectral_goldens(c, seed, n, lambda0, ratio):
    t = assemble_transfer(r_matrix(generate_model(c, 2.0, seed)), n)
    for method in ("power", "dense"):
        s = spectral_summary(t, method=method)
        assert abs(s.lambda0 - lambda0) <= 1e-12 * lambda0, method
        assert abs(s.ratio - ratio) <= 1e-12 * ratio, method


def test_spectral_matvec_counts():
    # one Krylov space of 30 vectors resolves the goldens, |Lambda_1| pairs included
    for c, seed, n, *_ in (p.values for p in SPECTRAL_GOLDENS):
        s = spectral_summary(assemble_transfer(r_matrix(generate_model(c, 2.0, seed)), n))
        assert 0 < s.iterations <= 30
        assert max(s.residual, s.residual_lambda1) < 1e-10
    # a basis that spans R^dim is invariant: exact Ritz values after dim matvecs,
    # and psi0's true residual is rounding
    for n in (1, 2, 3):
        t = assemble_transfer(r_matrix(generate_model(0.4, 2.0, 7)), n)
        s = spectral_summary(t)
        assert (s.iterations, s.residual_lambda1) == (t.dim, 0.0)
        assert s.residual < 1e-14
    dense = spectral_summary(t, method="dense")
    assert (dense.iterations, dense.residual_lambda1) == (0, 0.0)


@settings(max_examples=60, derandomize=True)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2 ** 16),
    c=st.sampled_from([0.0, 0.4, 2.0]),
)
def test_arnoldi_matches_dense(n, seed, c):
    t = assemble_transfer(r_matrix(generate_model(c, 2.0, seed)), n)
    a = spectral_summary(t)
    b = spectral_summary(t, method="dense")
    assert abs(a.lambda0 - b.lambda0) <= 1e-12 * b.lambda0
    # a matvec rounds at about eps * Lambda_0 whatever the vector, so at c = 2,
    # where |Lambda_1| / Lambda_0 falls to 1e-7, the ratio is known to 1e-13
    # absolute at best (2.5e-14 is the worst seen over 2500 random draws)
    assert abs(a.ratio - b.ratio) <= 1e-10 * b.ratio + 1e-13
    assert np.linalg.norm(a.psi0_right - b.psi0_right) <= 1e-10


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    n=st.integers(4, 7),
    seed=st.integers(0, 2 ** 16),
    beta=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
)
def test_small_ratio_is_known_to_1e_12_absolute(n, seed, beta):
    # the SpectralSummary docstring's figure: at c = 2 the ratio falls to 1e-10,
    # and the default tol bounds its error in units of Lambda_0, not of itself
    t = assemble_transfer(r_matrix(generate_model(2.0, beta, seed)), n)
    a = spectral_summary(t)
    b = spectral_summary(t, method="dense")
    assert abs(a.ratio - b.ratio) <= 2e-12


def test_spectral_spin_flip_symmetric_models():
    # eps(d,u,l,r) = eps(1-d,1-u,1-l,1-r): T commutes with flipping every bit,
    # and on these models |Lambda_1| belongs to a flip-odd eigenvector.  A flat
    # start vector is flip-even; at n = 1 its Krylov space never leaves the
    # even sector, and above that only rounding carries it out.
    for seed in range(10):
        e = generate_model(0.4, 2.0, seed).energies
        model = VertexModel(energies=tuple(e[min(i, 15 - i)] for i in range(16)), beta=2.0)
        for n in (1, 2, 3):
            t = assemble_transfer(r_matrix(model), n)
            a = spectral_summary(t)
            b = spectral_summary(t, method="dense")
            assert abs(a.ratio - b.ratio) <= 1e-10 * b.ratio, (seed, n)


def test_perron_frobenius_properties():
    t = assemble_transfer(r_matrix(generate_model(0.0, 2.0, 21)), 3)
    s = spectral_summary(t)
    assert s.lambda0 > 0
    assert s.lambda1_abs < s.lambda0
    assert np.all(s.psi0_right > 0)
    assert abs(np.linalg.norm(s.psi0_right) - 1) < 1e-12


def test_ratio_is_scale_free():
    # kappa * R gives kappa^n * T; both methods must see the same ratio
    r = r_matrix(generate_model(0.4, 2.0, 31))
    for method in ("power", "dense"):
        base = spectral_summary(assemble_transfer(r, 3), method=method).ratio
        for kappa in (1e-3, 7.0, 1e4):
            scaled = assemble_transfer(RMatrix(entries=kappa * r.entries), 3)
            assert abs(spectral_summary(scaled, method=method).ratio - base) < 1e-12


def test_spectral_summary_rejects_bad_tolerance():
    t = assemble_transfer(ones_r(), 2)
    for method in ("power", "dense"):
        for tol in (0.0, -1e-10, math.nan, math.inf, True, "a", None):
            with pytest.raises(ValidationError):
                spectral_summary(t, tol=tol, method=method)
        for max_iterations in (0, -3, 2.5, True):
            with pytest.raises(ValidationError):
                spectral_summary(t, max_iterations=max_iterations, method=method)


def test_spectral_nonconvergence_reports_residual():
    t = assemble_transfer(r_matrix(generate_model(0.0, 2.0, 2)), 2)
    with pytest.raises(ConvergenceError) as err:
        spectral_summary(t, tol=1e-10, max_iterations=2)
    assert err.value.residual > 0


def test_one_dimensional_invariant_space_stops_at_once():
    # T q_0 lies in span(q_0): no second Ritz pair can follow, so the budget
    # is not spent on restarts
    with pytest.raises(ConvergenceError, match="in 1 matvecs"):
        transfer._arnoldi_top(lambda x: 3.0 * x, 32, 1e-10, 100_000)


@pytest.mark.parametrize("lead", [lambda z: z + 1e-3j, lambda z: -z], ids=["complex", "negative"])
def test_dense_method_checks_the_dominant_eigenvalue(monkeypatch, lead):
    # both methods hand their eigenvalues to one check: a complex or negative
    # Lambda_0 from LAPACK is an error, not a real part reported as Lambda_0
    t = assemble_transfer(r_matrix(generate_model(0.4, 2.0, 7)), 3)
    solve = np.linalg.eig

    def eig(a):
        ev, vec = solve(a)
        top = np.argmax(np.abs(ev))
        ev = ev.astype(complex)
        ev[top] = lead(ev[top])
        return ev, vec

    monkeypatch.setattr(np.linalg, "eig", eig)
    with pytest.raises(NumericalError, match="real and positive"):
        spectral_summary(t, method="dense")


@pytest.mark.parametrize("method", ["power", "dense"])
@pytest.mark.parametrize("seed, beta", [(7, 2.0), (3, 0.5), (1, 300.0)])
def test_magnitudes_start_with_the_summary(method, seed, beta):
    # bit for bit: at seed 7 scalar abs() and np.abs give |Lambda_1| apart in
    # the last bit, and at beta 300 the power method scales T by 2^-e n
    t = assemble_transfer(r_matrix(generate_model(0.4, beta, seed)), 4)
    s = spectral_summary(t, method=method)
    assert s.magnitudes[:2].tolist() == [s.lambda0, s.lambda1_abs]
    assert len(s.magnitudes) == (t.dim if method == "dense" else 2)


def test_dense_magnitudes_list_every_eigenvalue():
    t = assemble_transfer(r_matrix(generate_model(0.4, 2.0, 7)), 6)
    want = np.sort(np.abs(np.linalg.eigvals(t.entries)))[::-1]
    np.testing.assert_allclose(spectral_summary(t, method="dense").magnitudes, want,
                               rtol=1e-13, atol=0)


def test_power_summary_survives_entries_near_underflow():
    # at beta 300 T's entries are near 1e-296; unscaled, a Krylov vector's
    # squared norm underflowed and the summary stopped after 1 matvec
    t = assemble_transfer(r_matrix(generate_model(0.4, 300.0, 1)), 4)
    power, dense = spectral_summary(t), spectral_summary(t, method="dense")
    assert abs(power.lambda0 - dense.lambda0) <= 1e-12 * dense.lambda0


@pytest.mark.parametrize("seed", [2, 9, 10])
def test_arnoldi_restart_matches_one_cycle(monkeypatch, seed):
    # these N=12 models take a second cycle at KRYLOV_DIM = 30; one cycle of 80 agrees
    t = assemble_transfer(r_matrix(generate_model(0.0, 2.0, seed)), 12)
    restarted = spectral_summary(t)
    assert restarted.iterations > transfer.KRYLOV_DIM
    monkeypatch.setattr(transfer, "KRYLOV_DIM", 80)
    one = spectral_summary(t)
    assert one.iterations <= 80
    assert abs(restarted.lambda0 - one.lambda0) <= 1e-14 * one.lambda0
    assert abs(restarted.ratio - one.ratio) <= 1e-14
    assert np.linalg.norm(restarted.psi0_right - one.psi0_right) <= 1e-14


@pytest.mark.parametrize("krylov_dim", [12, 16, 20])
@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_restart_keeps_the_lambda1_direction(monkeypatch, krylov_dim, beta):
    # a restart that keeps too little of the space loses |Lambda_1| on this model
    # and converges to a smaller pair: 0.046578 for the true 0.046635 at beta 1, k = 12
    t = assemble_transfer(r_matrix(generate_model(0.0, beta, 6)), 7)
    want = spectral_summary(t, method="dense").ratio
    monkeypatch.setattr(transfer, "KRYLOV_DIM", krylov_dim)
    assert abs(spectral_summary(t).ratio - want) <= 1e-10 * want


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    n=st.sampled_from([5, 7]),
    seed=st.integers(0, 2 ** 16),
    c=st.sampled_from([0.0, 0.4]),
    beta=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
)
def test_small_krylov_space_finds_lambda1(n, seed, c, beta):
    # at k = 12 these models restart, and |Lambda_1| must survive each restart
    t = assemble_transfer(r_matrix(generate_model(c, beta, seed)), n)
    want = spectral_summary(t, method="dense").ratio
    with mock.patch.object(transfer, "KRYLOV_DIM", 12):
        got = spectral_summary(t).ratio
    assert abs(got - want) <= 1e-6 * want + 1e-8


def test_power_residual_is_the_true_residual():
    # the Ritz estimate reads 0.0 on this model; the true residual is rounding
    t = assemble_transfer(r_matrix(generate_model(0.4, 2.0, 7)), 9)
    s = spectral_summary(t)
    psi0 = s.psi0_right
    want = float(np.linalg.norm(apply_transfer(t, psi0) - s.lambda0 * psi0)) / s.lambda0
    assert s.residual == want
    assert 0 < s.residual < 1e-14
    # both methods reject a pair whose true residual is above max(tol, 1e-9)
    with pytest.raises(ConvergenceError) as err:
        _true_residual(lambda x: 2.0 * x + 1e-6, 2.0, psi0, 1e-10)
    assert err.value.residual > 1e-9


def test_partition_element_n1_m1_single_entry():
    m = generate_model(0.6, 2.0, 8)
    R = r_matrix(m)
    t = assemble_transfer(R, 1)
    for d in range(2):
        for u in range(2):
            for l in range(2):
                for r in range(2):
                    got = partition_element(t, 1, f"{d}{l}", f"{u}{r}")
                    assert got == R.entries[2 * l + d, 2 * r + u]


def test_partition_element_validates():
    t = assemble_transfer(ones_r(), 2)
    with pytest.raises(ValidationError):
        partition_element(t, 0, "000", "000")
    with pytest.raises(ValidationError):
        partition_element(t, 1, "00", "000")
    with pytest.raises(ValidationError):
        partition_element(t, 1, "0a0", "000")
    for m in (2.0, True, -1, "2"):
        with pytest.raises(ValidationError):
            partition_element(t, m, "000", "000")


@settings(max_examples=60)
@given(
    n=st.integers(1, 7),
    m=st.integers(1, 4),
    seed=st.integers(0, 2 ** 16),
    c=st.sampled_from([0.0, 0.4, 2.0]),
    data=st.data(),
)
def test_partition_element_matches_matrix_power(n, m, seed, c, data):
    r = r_matrix(generate_model(c, 2.0, seed))
    t = assemble_transfer(r, n)
    row = data.draw(st.integers(0, t.dim - 1))
    col = data.draw(st.integers(0, t.dim - 1))
    bottom, top = format(row, f"0{n + 1}b"), format(col, f"0{n + 1}b")
    want = np.linalg.matrix_power(dense_transfer_reference(r, n), m)[row, col]
    assert abs(partition_element(t, m, bottom, top) - want) <= 1e-12 * want
    assert "entries" not in vars(t)


def test_partition_all_ones_counts_configurations():
    # with unit Boltzmann weights the boundary partition function counts the
    # summed bonds: N=2, M=2 leaves 5 free bonds, 32 configurations
    m = VertexModel(energies=(0.0,) * 16, beta=2.0)
    t = assemble_transfer(r_matrix(m), 2)
    shape = LatticeShape(2, 2)
    assert shape.n_free_bonds == 5
    val = partition_element(t, 2, "000", "000")
    assert val == 32.0
    brute = brute_force_partition(m, shape, "00", "00", (0, 0))
    assert brute == 32.0


def test_1x1_single_boltzmann_factor():
    m = generate_model(0.9, 2.0, 14)
    z = brute_force_partition(m, LatticeShape(1, 1), "1", "0", (1, 0))
    # bottom d=1, top u=0, left corner l=1, right corner r=0
    assert abs(z - math.exp(-m.beta * m.energy(1, 0, 1, 0))) < 1e-15


def test_oracle_equivalence_sampled():
    rng = np.random.default_rng(5)
    for seed in range(3):
        m = generate_model(rng.choice([0.0, 0.4, 1.0]), 2.0, 50 + seed)
        t_cache = {}
        for n in (1, 2, 3):
            for rows in (1, 2, 3):
                if n not in t_cache:
                    t_cache[n] = assemble_transfer(r_matrix(m), n)
                bottom = "".join(str(b) for b in rng.integers(0, 2, n))
                top = "".join(str(b) for b in rng.integers(0, 2, n))
                corners = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                z = brute_force_partition(m, LatticeShape(n, rows), bottom, top, corners)
                pe_bot, pe_top = boundary_strings(bottom, top, corners)
                z2 = partition_element(t_cache[n], rows, pe_bot, pe_top)
                assert abs(z - z2) / z < 1e-10


def test_power_consistency_is_associative():
    m = generate_model(0.4, 2.0, 33)
    t = assemble_transfer(r_matrix(m), 2)
    bot, top = "101", "010"
    direct = partition_element(t, 5, bot, top)
    t2 = np.linalg.matrix_power(t.entries, 2)
    t3 = np.linalg.matrix_power(t.entries, 3)
    composed = (t2 @ t3)[int(bot, 2), int(top, 2)]
    assert abs(direct - composed) / composed < 1e-12


def test_enumeration_budget_guard():
    m = generate_model(0.4, 2.0, 1)
    with pytest.raises(EnumerationBudgetError):
        brute_force_partition(m, LatticeShape(5, 4), "0" * 5, "0" * 5, (0, 0))


def test_brute_force_rejects_malformed_boundaries():
    m = generate_model(0.4, 2.0, 1)
    shape = LatticeShape(2, 1)
    for bottom, top, corners in [
        ("00", "00", (0,)), ("00", "00", (0, 0, 0)), ("00", "00", [0, 1]), ("00", "00", (0, 2)),
        ("00", "00", 0), ([0, 1], "00", (0, 0)), ("00", [0, 1], (0, 0)), ("0", "00", (0, 0)),
        ("00", "0a", (0, 0)), (None, "00", (0, 0)),
    ]:
        with pytest.raises(ValidationError):
            brute_force_partition(m, shape, bottom, top, corners)


def test_free_energy_density_values():
    assert free_energy_density(1.0, LatticeShape(3, 3), 2.0) == 0.0
    assert abs(free_energy_density(math.exp(-2.0), LatticeShape(1, 1), 2.0) - 1.0) < 1e-15
    for z in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            free_energy_density(z, LatticeShape(1, 1), 2.0)
    for beta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            free_energy_density(2.0, LatticeShape(1, 1), beta)


def test_lattice_shape_rejects_non_integer_sizes():
    for cols, rows in ((0, 1), (1, 0), (1.5, 2), (2, 2.0), (True, 2), (2, "3")):
        with pytest.raises(ValidationError):
            LatticeShape(cols, rows)
    assert LatticeShape(np.int64(2), 3).n_free_bonds == 9


def test_free_energy_scaling_roughly_matches_lambda0():
    # small-lattice check only: the 2x2 boundary-pinned density should sit in
    # the same ballpark as the asymptotic per-row estimate -ln(lambda0)/(beta*N)
    m = generate_model(0.4, 2.0, 44)
    n = 2
    z = brute_force_partition(m, LatticeShape(n, 2), "00", "00", (0, 0))
    f = free_energy_density(z, LatticeShape(n, 2), m.beta)
    t = assemble_transfer(r_matrix(m), n)
    lam0 = spectral_summary(t).lambda0
    f_asym = -math.log(lam0) / (m.beta * n)
    assert abs(f - f_asym) < 0.5 * abs(f_asym)
