import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from vertexsim import (
    NumericalError,
    RMatrix,
    ValidationError,
    acceptance_probability,
    dilate,
    generate_model,
    r_matrix,
    svd_scaled,
    terashima_decomposition,
)
from vertexsim.dilation import X_GATE, controlled_reflection

from conftest import FIXTURE_SINGULAR, positive_state
from test_model import ramp_model


def test_fixture_singular_values(fixture_r):
    f = svd_scaled(fixture_r)
    for got, want in zip(f.d, FIXTURE_SINGULAR):
        assert abs(got - want) < 5e-4  # reference prints four decimals


def test_kronecker_gate_svd_is_analytic():
    # kron([[2,1],[1,2]], [[3,1],[1,3]]) is symmetric positive definite with
    # eigenvalues 12, 6, 4, 2 on the Hadamard basis, so u = v.T = H/2
    f = svd_scaled(RMatrix(entries=np.kron([[2.0, 1.0], [1.0, 2.0]], [[3.0, 1.0], [1.0, 3.0]])))
    np.testing.assert_allclose(f.d, [1.0, 1 / 2, 1 / 3, 1 / 6], rtol=1e-14)
    assert abs(f.d0_raw - 12.0) < 1e-13
    h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]).T / 2
    np.testing.assert_allclose(f.u, h, atol=1e-14)
    np.testing.assert_allclose(f.v, h.T, atol=1e-14)


def test_rank_one_analytic_case():
    f = svd_scaled(r_matrix(ramp_model(beta=2.0)))
    assert f.d[0] == 1.0
    assert np.all(f.d[1:] < 1e-14)


def test_factors_reconstruct_and_are_orthogonal():
    for seed in range(10):
        R = r_matrix(generate_model(0.4 * (seed % 3), 2.0, seed))
        f = svd_scaled(R)
        scale = np.linalg.norm(R.entries)
        assert np.linalg.norm(f.reconstruct() - R.entries) / scale < 1e-12
        assert np.max(np.abs(f.u.T @ f.u - np.eye(4))) < 1e-12
        assert np.max(np.abs(f.v @ f.v.T - np.eye(4))) < 1e-12
        assert f.d[0] == 1.0
        assert np.all(np.diff(f.d) <= 1e-15)  # descending


def leads_are_positive(u: np.ndarray) -> bool:
    """The sign gauge: the first entry above 1e-14 of every column is positive."""
    return all(col[np.abs(col) > 1e-14][0] > 0 for col in u.T)


def test_svd_sign_gauge_is_deterministic():
    for seed in range(10):
        R = r_matrix(generate_model(0.4, 2.0, seed))
        f = svd_scaled(R)
        assert leads_are_positive(f.u)
        # the gauge only flips pairs: each rank-one term of LAPACK's SVD is kept
        u, _, v = np.linalg.svd(R.entries)
        for k in range(4):
            np.testing.assert_allclose(np.outer(f.u[:, k], f.v[k]), np.outer(u[:, k], v[k]),
                                       atol=1e-14)
        g = svd_scaled(R)
        assert np.array_equal(f.u, g.u) and np.array_equal(f.v, g.v)


@settings(max_examples=200)
@given(c=hs.sampled_from([0.0, 0.4, 1.0, 2.0]), beta=hs.sampled_from([0.5, 2.0, 4.0, 8.0]),
       seed=hs.integers(0, 2 ** 64 - 1))
@example(c=1.0, beta=8.0, seed=22)  # failed the 1e-12 reconstruction check before LAPACK
def test_svd_scaled_factorizes_every_generated_gate(c, beta, seed):
    R = r_matrix(generate_model(c, beta, seed))
    f = svd_scaled(R)
    assert np.linalg.norm(f.reconstruct() - R.entries) / np.linalg.norm(R.entries) <= 1e-12
    assert np.max(np.abs(f.u.T @ f.u - np.eye(4))) <= 1e-12
    assert np.max(np.abs(f.v @ f.v.T - np.eye(4))) <= 1e-12
    assert f.d[0] == 1.0
    assert np.all(np.diff(f.d) <= 0) and f.d[-1] >= 0
    assert leads_are_positive(f.u)


def test_dilate_identity_and_projector_limits():
    g = dilate(np.array([1.0, 1.0, 1.0, 1.0]))
    expected = np.zeros((8, 8))
    expected[:4, :4] = np.eye(4)
    expected[4:, 4:] = -np.eye(4)
    np.testing.assert_array_equal(g, expected)

    g0 = dilate(np.array([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(g0[:4, :4], np.diag([1.0, 0, 0, 0]), atol=0)
    np.testing.assert_allclose(g0[4:, :4], np.diag([0.0, 1, 1, 1]), atol=0)


def test_dilate_is_orthogonal_with_diagonal_block():
    for seed in range(6):
        d = np.sort(np.random.default_rng(seed).random(4))[::-1]
        d[0] = 1.0
        g = dilate(d)
        assert np.max(np.abs(g.T @ g - np.eye(8))) < 1e-12
        np.testing.assert_array_equal(np.diag(g[:4, :4]), d)


def test_dilate_rejects_out_of_range():
    with pytest.raises(ValidationError):
        dilate(np.array([1.0, 1.2, 0.1, 0.0]))
    with pytest.raises(ValidationError):
        dilate(np.array([1.0, -0.1, 0.1, 0.0]))


def test_fixture_acceptance_probability_on_uniform_input(fixture_r):
    # uniform 2-qubit input: acceptance = sum d_i^2 / 4 from the printed values
    d = np.array(FIXTURE_SINGULAR)
    alpha = np.full(4, 0.5)
    expected = sum(x * x for x in FIXTURE_SINGULAR) / 4.0
    assert abs(acceptance_probability(d, alpha) - expected) < 1e-15
    f = svd_scaled(fixture_r)
    assert abs(acceptance_probability(f.d, alpha) - expected) < 1e-4


def kept_branch_of(matrix: np.ndarray, state4: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply an 8x8 gate to |0>_a (x) state and project the ancilla on 0."""
    full = np.zeros(8)
    full[:4] = state4
    out = matrix @ full
    kept = out[:4]
    p = float(kept @ kept)
    return kept / np.sqrt(p), p


def test_terashima_single_value_step():
    # d = (1, a, 1, 1): only the first stage acts, kept map is Diag(1,a,1,1)
    a = 0.6
    steps = terashima_decomposition(np.array([1.0, a, 1.0, 1.0]))
    assert [s.a for s in steps] == [a, 1.0, 1.0]
    assert steps[0].x_targets == (1,)
    state = positive_state(4, 7)
    vec, p = _run_terashima_steps(steps, state)
    want = np.diag([1.0, a, 1.0, 1.0]) @ state
    np.testing.assert_allclose(vec, want / np.linalg.norm(want), atol=1e-12)
    assert abs(p - np.linalg.norm(want) ** 2) < 1e-12


def test_terashima_all_ones_is_identity():
    steps = terashima_decomposition(np.array([1.0, 1.0, 1.0, 1.0]))
    state = positive_state(4, 9)
    vec, p = _run_terashima_steps(steps, state)
    np.testing.assert_allclose(vec, state, atol=1e-12)
    assert abs(p - 1.0) < 1e-12


def _run_terashima_steps(steps, state4):
    """Direct linear-algebra composition of the three kept-branch maps."""
    vec = state4.astype(float)
    keep_total = 1.0
    x0 = np.kron(np.eye(2), np.kron(np.eye(2), X_GATE))  # X on qubit 0
    x1 = np.kron(np.eye(2), np.kron(X_GATE, np.eye(2)))  # X on qubit 1
    xg = {0: x0, 1: x1}
    for step in steps:
        full = np.zeros(8)
        full[:4] = vec
        for t in step.x_targets:
            full = xg[t] @ full
        full = controlled_reflection(step.a) @ full
        kept = full.copy()
        kept[4:] = 0.0
        p = float(kept @ kept)
        keep_total *= p
        kept /= np.sqrt(p)
        for t in step.x_targets:
            kept = xg[t] @ kept
        vec = kept[:4]
    return vec, keep_total


def test_constructions_agree_on_random_inputs():
    # single-measurement dilation vs the three-measurement chain: identical
    # kept states and identical total acceptance probability
    rng = np.random.default_rng(11)
    for trial in range(100):
        d = np.sort(rng.random(4))[::-1]
        d[0] = 1.0
        alpha = rng.random(4) + 1e-3
        alpha /= np.linalg.norm(alpha)
        kept_single, p_single = kept_branch_of(dilate(d), alpha)
        kept_chain, p_chain = _run_terashima_steps(terashima_decomposition(d), alpha)
        np.testing.assert_allclose(kept_single, kept_chain, atol=1e-10)
        assert abs(p_single - p_chain) < 1e-10
        assert abs(p_single - acceptance_probability(d, alpha)) < 1e-12


def test_terashima_requires_scaled_input():
    with pytest.raises(ValidationError):
        terashima_decomposition(np.array([0.9, 0.5, 0.2, 0.1]))


def test_svd_scaled_raises_on_malformed_gate():
    with pytest.raises(ValidationError):
        RMatrix(entries=np.full((4, 4), np.nan))
    # a tolerance below any rounding error makes the self-checks fire
    with pytest.raises(NumericalError):
        svd_scaled(RMatrix(entries=np.ones((4, 4))), tol=1e-300)


@pytest.mark.parametrize("tol", [math.nan, True, "a", None, 0.0, -1e-12, math.inf])
def test_svd_scaled_rejects_bad_tolerance(tol):
    # nan would switch both self-checks off; True would run as 1.0
    with pytest.raises(ValidationError):
        svd_scaled(r_matrix(generate_model(0.4, 2.0, 7)), tol=tol)
