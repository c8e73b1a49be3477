import hashlib
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vertexsim import (
    ConvergenceError,
    InsufficientStatisticsError,
    LatticeShape,
    MeasureAll,
    ValidationError,
    apply_transfer,
    assemble_transfer,
    build_t_plan,
    dense_from_wire,
    dilate,
    estimate_lambda1,
    free_energy_density,
    generate_model,
    init_state,
    partition_element,
    power_iterate_psi0,
    r_matrix,
    run_exact,
    run_shots,
    simulated_t_action,
    spectral_summary,
    svd_scaled,
    wire_from_dense,
    wire_to_dense_map,
)
from vertexsim import experiments, transfer
from vertexsim.dilation import controlled_reflection
from vertexsim.experiments import MODES, _embed_input, normalize_positive_input
from vertexsim.model import VertexModel, energy_index
from vertexsim.rng import uniforms

from conftest import estimator_bound, positive_state


def oracle_power(model, n, m):
    t = assemble_transfer(r_matrix(model), n)
    return np.linalg.matrix_power(t.entries, m)


def test_wire_map_is_a_bit_rotation():
    m = wire_to_dense_map(2)
    # wire bits (q0=col1, q1=col2, q2=lateral) -> dense bits (lateral, col1, col2)
    assert m.tolist() == [0, 2, 4, 6, 1, 3, 5, 7]
    v = np.arange(8.0)
    np.testing.assert_array_equal(wire_from_dense(dense_from_wire(v, 2), 2), v)


def test_plan_shape_n1():
    factors = svd_scaled(r_matrix(generate_model(0.4, 2.0, 2)))
    plan = build_t_plan(factors, 1, 1)
    assert plan.count_unitaries() == 3
    assert plan.count_postselects() == 1
    final = plan.instructions[-1]
    assert isinstance(final, MeasureAll) and len(final.qubits) == 2


def test_plan_matches_published_five_qubit_layout():
    factors = svd_scaled(r_matrix(generate_model(0.4, 2.0, 2)))
    plan = build_t_plan(factors, 4, 1)
    assert plan.n_qubits == 6
    assert plan.n_classical_bits == 9
    assert plan.n_data_bits == 5
    post = [i for i in plan.instructions if isinstance(i, MeasureAll)][:-1]
    assert [p.cbits for p in post] == [(8,), (7,), (6,), (5,)]
    assert all(p.qubits == (5,) for p in post)
    v, dil, post0, u = plan.instructions[:4]
    assert np.array_equal(v.matrix, factors.v) and np.array_equal(u.matrix, factors.u)
    assert post0 is post[0]
    np.testing.assert_array_equal(dil.matrix, dilate(factors.d))
    first_targets = plan.instructions[0].targets
    assert first_targets == (3, 4)  # rightmost column gate first
    final = plan.instructions[-1]
    assert final.qubits == (0, 1, 2, 3, 4)
    assert final.cbits == (0, 1, 2, 3, 4)


def test_depth_is_linear_per_block():
    factors = svd_scaled(r_matrix(generate_model(0.4, 2.0, 2)))
    for n in (1, 7, 23):
        for m in (1, 2):
            plan = build_t_plan(factors, n, m)
            assert plan.count_unitaries() == 3 * n * m
            assert plan.count_postselects() == n * m


def test_exact_block_reproduces_transfer_action():
    model = generate_model(0.0, 2.0, 9)
    n = 3
    psi = positive_state(2 ** (n + 1), 31)
    for m in (1, 2, 3):
        got, diag = simulated_t_action(model, n, m, psi, mode="exact")
        want = oracle_power(model, n, m) @ psi
        want /= np.linalg.norm(want)
        np.testing.assert_allclose(got, want, atol=1e-12)
        d0 = svd_scaled(r_matrix(model)).d0_raw
        keep = np.linalg.norm(oracle_power(model, n, m) @ psi / d0 ** (n * m)) ** 2
        assert abs(diag.keep_probability - keep) < 1e-12


@settings(max_examples=12)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 3),
    seed=st.integers(0, 2 ** 16),
    c=st.sampled_from([0.0, 0.4, 2.0]),
)
def test_exact_keep_probability_is_transfer_norm(n, m, seed, c):
    # post-selection keeps ||T^m psi||^2 / d0_raw^(2Nm): each block is T / d0_raw^N
    model = generate_model(c, 2.0, seed)
    psi = positive_state(2 ** (n + 1), seed)
    _, diag = simulated_t_action(model, n, m, psi, mode="exact")
    t = assemble_transfer(r_matrix(model), n)
    v = psi
    for _ in range(m):
        v = apply_transfer(t, v)
    want = float(v @ v) / svd_scaled(r_matrix(model)).d0_raw ** (2 * n * m)
    assert abs(diag.keep_probability - want) <= 1e-12 * want
    assert "entries" not in vars(t)


def test_run_exact_on_raw_plan_keeps_ancilla_zero():
    model = generate_model(0.4, 2.0, 5)
    factors = svd_scaled(r_matrix(model))
    n = 2
    plan = build_t_plan(factors, n, 1)
    psi = positive_state(2 ** (n + 1), 17)
    out, keep = run_exact(plan, _embed_input(psi, n))
    assert np.all(np.abs(out[2 ** (n + 1):]) == 0.0)
    assert 0 < keep <= 1


def test_deep_and_refeed_agree_with_oracle_at_modest_shots():
    model = generate_model(0.4, 2.0, 8)
    n = 3
    psi = positive_state(2 ** (n + 1), 23)
    want = oracle_power(model, n, 2) @ psi
    want /= np.linalg.norm(want)
    deep, _ = simulated_t_action(model, n, 2, psi, shots=60_000, seed=2, mode="deep")
    refeed, _ = simulated_t_action(model, n, 2, psi, shots=60_000, seed=2, mode="refeed",
                                   meaningful_floor=100)
    assert np.max(np.abs(deep - want)) < 0.03
    assert np.max(np.abs(refeed - want)) < 0.03


def test_action_validates_input():
    model = generate_model(0.4, 2.0, 8)
    with pytest.raises(ValidationError):
        simulated_t_action(model, 2, 1, np.ones(5), mode="exact")
    with pytest.raises(ValidationError):
        simulated_t_action(model, 2, 1, -np.ones(8), mode="exact")
    with pytest.raises(ValidationError):
        simulated_t_action(model, 2, 1, np.ones(8), mode="sideways")
    for mode in MODES:
        with pytest.raises(ValidationError):
            simulated_t_action(model, 2, 1, (1 + 5j) * np.ones(8), mode=mode)
    for backend in ("shot", "exact"):
        with pytest.raises(ValidationError):
            estimate_lambda1(model, 2, (1 + 0j) * np.ones(8), backend=backend)


_MODEL = generate_model(0.4, 2.0, 8)
_FACTORS = svd_scaled(r_matrix(_MODEL))
_PSI = positive_state(8, 1)


@settings(max_examples=40)
@given(n=st.integers(1, 2), k=st.integers(-1000, 1000),
       ints=st.lists(st.integers(0, 2 ** 20), min_size=8, max_size=8).filter(lambda v: any(v[:4])))
@example(n=1, k=-540, ints=[1000003, 999983, 77777, 5] * 2)  # squares sum to a subnormal
@example(n=1, k=600, ints=[1000003, 999983, 77777, 5] * 2)  # squares overflow
def test_positive_input_is_scale_free(n, k, ints):
    # 2^k scales every entry exactly, so the input's norm may under- or overflow
    # but the rule returns the same unit vector, and every output follows
    v = np.array(ints[: 2 ** (n + 1)], dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outputs = [(normalize_positive_input(x, n),
                    simulated_t_action(_MODEL, n, 1, x, mode="exact")[0],
                    power_iterate_psi0(_MODEL, n, backend="exact", start=x, max_steps=2,
                                       tol=0.0).vector) for x in (v, v * 2.0 ** k)]
    for want, got in zip(*outputs):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: build_t_plan(_FACTORS, 2, 2.5), id="plan-m2.5"),
    pytest.param(lambda: build_t_plan(_FACTORS, True), id="plan-nTrue"),
    pytest.param(lambda: build_t_plan(_FACTORS, 2, 0), id="plan-m0"),
    pytest.param(lambda: simulated_t_action(_MODEL, 2, 1.5, _PSI, mode="exact"), id="action-m1.5"),
    pytest.param(lambda: simulated_t_action(_MODEL, 2.0, 1, _PSI, mode="exact"), id="action-n2.0"),
    pytest.param(lambda: simulated_t_action(_MODEL, 2, 0, _PSI, mode="refeed"), id="refeed-m0"),
    pytest.param(lambda: power_iterate_psi0(_MODEL, 2, max_steps=2.5, backend="exact"),
                 id="psi0-steps2.5"),
    pytest.param(lambda: power_iterate_psi0(_MODEL, 2, max_steps=0, backend="exact"),
                 id="psi0-steps0"),
    pytest.param(lambda: power_iterate_psi0(_MODEL, 2.5, backend="exact"), id="psi0-n2.5"),
    pytest.param(lambda: power_iterate_psi0(_MODEL, 2, tol=math.nan, backend="exact"),
                 id="psi0-tolnan"),
    pytest.param(lambda: power_iterate_psi0(_MODEL, 2, tol=math.inf, backend="exact"),
                 id="psi0-tolinf"),
    pytest.param(lambda: power_iterate_psi0(_MODEL, 2, tol=True, backend="exact"),
                 id="psi0-tolTrue"),
    pytest.param(lambda: power_iterate_psi0(_MODEL, 2, tol="a", backend="exact"),
                 id="psi0-tola"),
    pytest.param(lambda: power_iterate_psi0(_MODEL, 2, tol=None, backend="exact"),
                 id="psi0-tolNone"),
    pytest.param(lambda: estimate_lambda1(_MODEL, 2, _PSI, psi0_iterations=0), id="estimate-it0"),
    pytest.param(lambda: simulated_t_action(_MODEL, 2, 1, _PSI, shots=10, meaningful_floor=-5),
                 id="deep-floor-5"),
    pytest.param(lambda: simulated_t_action(_MODEL, 2, 1, _PSI, shots=10, meaningful_floor=2.5),
                 id="deep-floor2.5"),
    pytest.param(lambda: simulated_t_action(_MODEL, 2, 1, _PSI, shots=10, mode="refeed",
                                            meaningful_floor=True), id="refeed-floorTrue"),
    pytest.param(lambda: estimate_lambda1(_MODEL, 2, _PSI, shots=10, meaningful_floor=0),
                 id="estimate-floor0"),
    pytest.param(lambda: power_iterate_psi0(_MODEL, 2, shots_per_step=10, meaningful_floor=0),
                 id="psi0-floor0"),
])
def test_experiment_counts_must_be_positive_integers(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: init_state(True, np.ones(2) / math.sqrt(2)), id="init_state-nTrue"),
    pytest.param(lambda: init_state(2.0, np.full(4, 0.5)), id="init_state-n2.0"),
    pytest.param(lambda: init_state("2", np.full(4, 0.5)), id="init_state-n'2'"),
    pytest.param(lambda: controlled_reflection("0.5"), id="reflection-a'0.5'"),
    pytest.param(lambda: controlled_reflection(True), id="reflection-aTrue"),
    pytest.param(lambda: free_energy_density("1", LatticeShape(1, 1), 2.0), id="free-z'1'"),
    pytest.param(lambda: free_energy_density(1.0, LatticeShape(1, 1), "2"), id="free-beta'2'"),
    pytest.param(lambda: free_energy_density(10 ** 400, LatticeShape(1, 1), 2.0), id="free-z10^400"),
    pytest.param(lambda: wire_to_dense_map("2"), id="wire-n'2'"),
    pytest.param(lambda: wire_to_dense_map(2.0), id="wire-n2.0"),
    pytest.param(lambda: wire_to_dense_map(-1), id="wire-n-1"),
])
def test_public_scalars_follow_the_number_rules(call):
    # bools, integral floats and strings end in ValidationError, never a raw TypeError
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: simulated_t_action(_MODEL, 60, 1, np.ones(4), mode="exact"), id="action"),
    pytest.param(lambda: power_iterate_psi0(_MODEL, 60, backend="exact"), id="psi0"),
    pytest.param(lambda: estimate_lambda1(_MODEL, 60, np.ones(4), backend="exact"), id="estimate"),
])
def test_circuit_width_is_capped_before_allocation(call):
    # a 62-qubit state would need 2^62 amplitudes; the cap fires first
    with pytest.raises(ValidationError, match="over the cap"):
        call()


@pytest.mark.parametrize("seed", [1.5, "3", np.float64(2.0), True, None])
@pytest.mark.parametrize("call", [
    pytest.param(lambda s: run_shots(build_t_plan(_FACTORS, 2), _embed_input(_PSI, 2), 10, s),
                 id="run_shots"),
    pytest.param(lambda s: simulated_t_action(_MODEL, 2, 1, _PSI, shots=10, seed=s), id="deep"),
    pytest.param(lambda s: simulated_t_action(_MODEL, 2, 1, _PSI, shots=10, seed=s,
                                              mode="refeed"), id="refeed"),
    pytest.param(lambda s: estimate_lambda1(_MODEL, 2, _PSI, shots=10, seed=s), id="estimate-shot"),
    pytest.param(lambda s: estimate_lambda1(_MODEL, 2, _PSI, seed=s, backend="exact"),
                 id="estimate-exact"),
    pytest.param(lambda s: generate_model(0.4, 2.0, s), id="generate_model"),
])
def test_seeds_must_be_integers(call, seed):
    with pytest.raises(ValidationError, match="seed"):
        call(seed)


_BAD_WIDTHS = (st.integers(-3, 0) | st.floats() | st.text(max_size=3) | st.none() | st.booleans()
               | st.just(np.float64(2.0)))
_BAD_SEEDS = st.floats() | st.text(max_size=3) | st.none() | st.booleans() | st.just(np.float64(2.0))


@st.composite
def _bad_vectors(draw):
    """Length-4 inputs (n=1) with a NaN, infinite or negative entry, all zero, or of
    another length."""
    kind = draw(st.sampled_from(["entry", "zero", "length"]))
    if kind == "length":
        return np.full(draw(st.integers(0, 9).filter(lambda k: k != 4)), 0.5)
    if kind == "zero":
        return np.zeros(4)
    v = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    v[draw(st.integers(0, 3))] = draw(st.sampled_from([np.nan, np.inf])
                                      | st.floats(max_value=0.0, exclude_max=True))
    return v


_BAD_BITS = (st.text("01a ", max_size=5).filter(lambda b: len(b) != 3 or set(b) - set("01"))
             | st.none() | st.integers() | st.just(b"000") | st.just(["0", "0", "0"]))

_T2 = assemble_transfer(r_matrix(_MODEL), 2)


@settings(max_examples=120)
@given(data=st.data())
def test_bad_inputs_raise_validation_error(data):
    # every bad width, seed, input vector or boundary bitstring ends in ValidationError
    kind = data.draw(st.sampled_from(["n", "seed", "vector", "bits"]))
    if kind == "n":
        n = data.draw(_BAD_WIDTHS)
        calls = [lambda: simulated_t_action(_MODEL, n, 1, np.ones(8), mode="exact"),
                 lambda: estimate_lambda1(_MODEL, n, np.ones(8), backend="exact"),
                 lambda: power_iterate_psi0(_MODEL, n, backend="exact")]
    elif kind == "seed":
        s = data.draw(_BAD_SEEDS)
        calls = [lambda: simulated_t_action(_MODEL, 1, 1, np.ones(4), shots=10, seed=s),
                 lambda: estimate_lambda1(_MODEL, 1, np.ones(4), seed=s, backend="exact"),
                 lambda: generate_model(0.4, 2.0, s)]
    elif kind == "vector":
        v = data.draw(_bad_vectors())
        calls = [lambda: simulated_t_action(_MODEL, 1, 1, v, mode="exact"),
                 lambda: estimate_lambda1(_MODEL, 1, v, backend="exact"),
                 lambda: power_iterate_psi0(_MODEL, 1, backend="exact", start=v)]
    else:
        b = data.draw(_BAD_BITS)
        calls = [lambda: partition_element(_T2, 1, b, "000"),
                 lambda: partition_element(_T2, 1, "000", b)]
    with pytest.raises(ValidationError):
        data.draw(st.sampled_from(calls))()


@settings(max_examples=25)
@given(n=st.integers(1, 3), m=st.integers(1, 2), model_seed=st.integers(0, 2 ** 16),
       psi=st.lists(st.floats(0.01, 1.0), min_size=16, max_size=16), seed=st.integers(0, 2 ** 32))
def test_deep_matches_exact_on_the_kept_state(n, m, model_seed, psi, seed):
    # sqrt(count/meaningful) per entry has variance about 1/(4 * meaningful),
    # so the distance over at most 16 entries sits near 2/sqrt(meaningful)
    model = generate_model(0.4, 2.0, model_seed)
    vec = np.array(psi[: 2 ** (n + 1)])
    exact, _ = simulated_t_action(model, n, m, vec, mode="exact")
    deep, diag = simulated_t_action(model, n, m, vec, shots=20_000, seed=seed, mode="deep",
                                    meaningful_floor=1)
    meaningful = diag.final_histogram.meaningful_shots
    assert np.linalg.norm(deep - exact) <= 5 / math.sqrt(meaningful)


def test_insufficient_statistics_raises_with_fraction():
    model = generate_model(0.4, 2.0, 8)
    psi = positive_state(8, 1)
    with pytest.raises(InsufficientStatisticsError) as err:
        simulated_t_action(model, 2, 1, psi, shots=50, seed=1, mode="deep",
                           meaningful_floor=10_000)
    assert 0 <= err.value.fraction <= 1


def test_positivity_of_shot_vectors():
    model = generate_model(0.0, 2.0, 4)
    psi = positive_state(8, 2)
    vec, _ = simulated_t_action(model, 2, 1, psi, shots=5_000, seed=3, mode="deep",
                                meaningful_floor=100)
    assert np.all(vec >= 0)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_power_iteration_near_rank_one_converges_in_one_step():
    model = generate_model(10.0, 2.0, 5)
    res = power_iterate_psi0(model, 3, backend="exact", tol=1e-6, max_steps=5,
                             start=positive_state(16, 41))
    assert res.steps <= 2
    assert res.vector[0] > 1 - 1e-6  # dominant vector is essentially |0...0>


def test_power_iteration_exact_matches_oracle():
    model = generate_model(0.4, 2.0, 13)
    n = 3
    res = power_iterate_psi0(model, n, backend="exact", tol=1e-12, max_steps=300)
    oracle = spectral_summary(assemble_transfer(r_matrix(model), n)).psi0_right
    assert np.max(np.abs(res.vector - oracle)) < 1e-10
    assert res.converged


def test_power_iteration_nonconvergence_raises():
    model = generate_model(0.0, 2.0, 6)
    with pytest.raises(ConvergenceError):
        power_iterate_psi0(model, 2, backend="exact", tol=1e-14, max_steps=1)


def test_power_iteration_fixed_step_mode():
    model = generate_model(0.0, 2.0, 6)
    res = power_iterate_psi0(model, 2, backend="exact", tol=0.0, max_steps=4)
    assert res.steps == 4 and not res.converged


@settings(max_examples=15)
@given(n=st.integers(1, 3), m=st.integers(1, 3), model_seed=st.integers(0, 2 ** 16),
       c=st.sampled_from([0.0, 0.4, 2.0]), seed=st.integers(0, 2 ** 32),
       psi=st.lists(st.floats(0.01, 1.0), min_size=16, max_size=16))
def test_refeed_runs_the_power_iteration_loop(n, m, model_seed, c, seed, psi):
    # a refeed through m blocks and m fixed power-iteration steps are one loop
    model = generate_model(c, 2.0, model_seed)
    vec = np.array(psi[: 2 ** (n + 1)])
    out, diag = simulated_t_action(model, n, m, vec, shots=2_000, seed=seed, mode="refeed",
                                   meaningful_floor=1)
    res = power_iterate_psi0(model, n, shots_per_step=2_000, seed=seed, max_steps=m, tol=0.0,
                             start=vec, meaningful_floor=1)
    assert out.tobytes() == res.vector.tobytes()
    assert diag.shots_used == res.shots_used == 2_000 * m
    assert diag.meaningful_fractions == res.meaningful_fractions
    assert len(res.meaningful_fractions) == m
    assert all(0.0 <= f <= 1.0 for f in res.meaningful_fractions)
    assert res.final_histogram is not None and diag.final_histogram == res.final_histogram
    # on the exact backend step k records the keep probability of one block on
    # step k-1's output; the action renormalizes that input, so allow for rounding
    exact = power_iterate_psi0(model, n, backend="exact", max_steps=m, tol=0.0, start=vec)
    assert exact.final_histogram is None and exact.shots_used == 0
    for k, fraction in enumerate(exact.meaningful_fractions):
        previous = vec if k == 0 else power_iterate_psi0(model, n, backend="exact", max_steps=k,
                                                         tol=0.0, start=vec).vector
        _, one = simulated_t_action(model, n, 1, previous, mode="exact")
        assert abs(fraction - one.keep_probability) <= 1e-12 * one.keep_probability
        assert 0.0 < fraction <= 1.0


def symmetric_model(beta=2.0, seed=0):
    """Energy table with eps(d,u,l,r) = eps(u,d,r,l), so the n=1 transfer
    matrix is symmetric and the estimator bound is provable."""
    rng = np.random.default_rng(seed)
    energies = [0.0] * 16
    for d in range(2):
        for u in range(2):
            for l in range(2):
                for r in range(2):
                    if energies[energy_index(u, d, r, l)] == 0.0:
                        e = float(rng.random())
                        energies[energy_index(d, u, l, r)] = e
                        energies[energy_index(u, d, r, l)] = e
    return VertexModel(energies=tuple(energies), beta=beta)


def test_estimator_exact_on_symmetric_transfer():
    model = symmetric_model(seed=3)
    n = 1
    t = assemble_transfer(r_matrix(model), n)
    assert np.max(np.abs(t.entries - t.entries.T)) < 1e-15
    s = spectral_summary(t, method="dense")
    rng = np.random.default_rng(0)
    for _ in range(25):
        psi = rng.random(4) + 1e-3
        psi /= np.linalg.norm(psi)
        rep = estimate_lambda1(model, n, psi, backend="exact")
        assert rep.estimate <= s.ratio + 1e-9
        # for normal T the general bound of criterion 8a reduces to lambda_1
        assert abs(estimator_bound(t.entries, s.psi0_right, psi) - s.ratio) < 1e-12

    # equality when the orthogonal component is itself an eigenvector
    w, vec = np.linalg.eigh(t.entries)
    order = np.argsort(-np.abs(w))
    psi0 = vec[:, order[0]] * np.sign(vec[:, order[0]].sum())
    v1 = vec[:, order[1]]
    psi = psi0 + 0.08 * v1
    psi /= np.linalg.norm(psi)
    assert np.all(psi > 0)
    rep = estimate_lambda1(model, n, psi, backend="exact")
    assert abs(rep.estimate - s.ratio) < 1e-9


def test_estimator_degenerate_input_flagged():
    model = generate_model(0.4, 2.0, 19)
    n = 2
    psi0 = spectral_summary(assemble_transfer(r_matrix(model), n)).psi0_right
    rep = estimate_lambda1(model, n, psi0, backend="exact")
    assert rep.degenerate
    assert math.isnan(rep.estimate)
    assert rep.f0 > 1 - 1e-9


def test_estimator_zero_overlap_flagged():
    # 30 shots of the action at n=6 all land outside psi0's support
    psi = uniforms(6, 128)
    rep = estimate_lambda1(generate_model(0.4, 2.0, 5), 6, psi / np.linalg.norm(psi), shots=30,
                           seed=5 + 7919, meaningful_floor=1)
    assert rep.f1 == 0.0 and rep.f0 > 0
    assert rep.degenerate
    assert math.isnan(rep.estimate)


def test_estimator_shot_backend_reports():
    model = generate_model(0.4, 2.0, 19)
    rep = estimate_lambda1(model, 2, positive_state(8, 77), shots=20_000, seed=5,
                           backend="shot", meaningful_floor=200)
    assert rep.shots_used == 20_000 * 7  # six refeed steps plus the action run
    assert rep.psi0_iterations == 6
    assert 0 <= rep.estimate < 1
    assert rep.oracle_lambda1 is not None
    assert not rep.degenerate


def test_estimator_has_an_oracle_above_the_dense_cap():
    # n + 1 = 14 qubits is past the dense matrix's cap; the matrix-free oracle runs
    model = generate_model(0.4, 2.0, 23)
    rep = estimate_lambda1(model, 13, np.ones(2 ** 14), shots=20_000, seed=1,
                           psi0_iterations=1, meaningful_floor=10)
    assert rep.oracle_lambda1 == spectral_summary(assemble_transfer(r_matrix(model), 13)).ratio
    assert not rep.degenerate


def test_estimator_has_no_oracle_above_the_sweep_cap(monkeypatch):
    # the circuits run wider than the oracle's memory cap (n = 19 to 22); a
    # lowered cap stands in for those widths
    monkeypatch.setattr(transfer, "SWEEP_CAP_QUBITS", 3)
    rep = estimate_lambda1(generate_model(0.4, 2.0, 23), 3, np.ones(16), shots=20_000, seed=1,
                           psi0_iterations=1, meaningful_floor=10)
    assert rep.oracle_lambda1 is None
    assert not rep.degenerate


@pytest.mark.parametrize("backend", ["shot", "exact"])
def test_estimator_factorizes_and_builds_once(monkeypatch, backend):
    calls = {}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] = calls.get(fn.__name__, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("r_matrix", "svd_scaled", "build_t_plan"):
        monkeypatch.setattr(experiments, name, counted(getattr(experiments, name)))
    experiments._t_plan.cache_clear()  # else an earlier test's plan is reused
    estimate_lambda1(generate_model(0.4, 2.0, 19), 2, positive_state(8, 77), shots=2_000,
                     backend=backend, meaningful_floor=10)
    assert calls == {"r_matrix": 1, "svd_scaled": 1, "build_t_plan": 1}


def _counted(monkeypatch, *names):
    """Wrap experiments' bindings of `names` so that each counts its calls."""
    for name in names:
        monkeypatch.setattr(experiments, name, mock.Mock(wraps=getattr(experiments, name)))
    return lambda: {name: getattr(experiments, name).call_count for name in names}


@pytest.mark.parametrize("run", [
    lambda model: simulated_t_action(model, 2, 2, positive_state(8, 5), shots=2_000, seed=3,
                                     meaningful_floor=10)[0],
    lambda model: estimate_lambda1(model, 2, positive_state(8, 77), shots=2_000, seed=3,
                                   meaningful_floor=10).estimate,
], ids=["action", "estimate"])
def test_repeat_calls_reuse_the_plan(monkeypatch, run):
    experiments._t_plan.cache_clear()
    first = run(generate_model(0.4, 2.0, 19))
    counts = _counted(monkeypatch, "r_matrix", "svd_scaled", "build_t_plan")
    # an equal model, not the same object: svd_scaled returns the same factors
    # object for an equal gate, and the plan memo keys on that object
    again = run(generate_model(0.4, 2.0, 19))
    assert counts() == {"r_matrix": 1, "svd_scaled": 1, "build_t_plan": 0}
    assert np.array_equal(first, again, equal_nan=True)


def test_each_plan_key_gets_its_own_plan():
    experiments._t_plan.cache_clear()
    base, other = (svd_scaled(r_matrix(generate_model(0.4, 2.0, s))) for s in (5, 6))
    keys = [(base, 2, 1), (other, 2, 1), (base, 3, 1), (base, 2, 2)]
    plans = [experiments._t_plan(*key) for key in keys]
    for plan, key in zip(plans, keys):
        assert plan == build_t_plan(*key)
    assert all(a != b for i, a in enumerate(plans) for b in plans[i + 1:])
    assert experiments._t_plan(*keys[0]) is plans[0]


def test_plan_memo_stays_bounded():
    experiments._t_plan.cache_clear()
    factors = svd_scaled(r_matrix(generate_model(0.4, 2.0, 5)))
    for m in range(1, 20):
        experiments._t_plan(factors, 1, m)
    assert experiments._t_plan.cache_info().currsize == 8


def test_public_plan_builder_returns_a_fresh_plan():
    factors = svd_scaled(r_matrix(generate_model(0.4, 2.0, 5)))
    simulated_t_action(generate_model(0.4, 2.0, 5), 2, 1, positive_state(8, 5), mode="exact")
    a, b = build_t_plan(factors, 2, 1), build_t_plan(factors, 2, 1)
    assert a is not b and a == b
    assert a is not experiments._t_plan(factors, 2, 1)


def test_mode_equivalence_exact_paths():
    # one deep exact run equals m stacked single blocks exactly
    model = generate_model(0.0, 2.0, 14)
    n, m = 2, 3
    psi = positive_state(8, 3)
    deep, _ = simulated_t_action(model, n, m, psi, mode="exact")
    vec = psi
    for _ in range(m):
        vec, _ = simulated_t_action(model, n, 1, vec, mode="exact")
    np.testing.assert_allclose(deep, vec, atol=1e-10)


def test_psi0_chain_distances():
    model = generate_model(0.4, 2.0, 23)
    s = spectral_summary(assemble_transfer(r_matrix(model), 2))
    dists = [np.linalg.norm(power_iterate_psi0(model, 2, backend="exact", tol=0.0,
                                               max_steps=m).vector - s.psi0_right)
             for m in (1, 2, 3)]
    assert dists[2] < dists[0]
    # per-step contraction tracks the eigenvalue ratio within a loose band
    assert dists[2] / dists[1] < 3 * s.ratio + 0.05


def test_convergence_rates_comparable_across_widths():
    # one c=0 model, widths 5..7: the per-step contraction of the distance to
    # the dominant eigenvector stays close to the eigenvalue ratio and barely
    # moves with the lattice width
    model = generate_model(0.0, 2.0, 2)
    slopes = []
    for n in (5, 6, 7):
        s = spectral_summary(assemble_transfer(r_matrix(model), n))
        d = [np.linalg.norm(power_iterate_psi0(model, n, backend="exact", tol=0.0,
                                               max_steps=m).vector - s.psi0_right)
             for m in (1, 2, 3)]
        slope = d[2] / d[1]
        assert 0.5 * s.ratio < slope < 1.5 * s.ratio
        slopes.append(slope)
    assert max(slopes) / min(slopes) < 1.3


def test_terashima_plan_equals_single_dilation_plan():
    # the three-measurement plan and the one-measurement dilation plan leave
    # identical kept states with identical total acceptance probability
    from vertexsim import (
        ApplyUnitary,
        CircuitPlan,
        build_terashima_plan,
        init_state,
        run_shots,
    )
    from vertexsim.experiments import build_d_test_plan

    rng = np.random.default_rng(8)
    for _ in range(10):
        d = np.sort(rng.random(4))[::-1]
        d[0] = 1.0
        alpha = rng.random(4) + 1e-3
        alpha /= np.linalg.norm(alpha)
        full = np.zeros(8)
        full[:4] = alpha
        state = init_state(3, full)
        single = CircuitPlan(
            n_qubits=3,
            n_classical_bits=1,
            instructions=[
                ApplyUnitary(matrix=dilate(d), targets=(0, 1, 2)),
                MeasureAll(qubits=(2,), cbits=(0,)),
            ],
            n_data_bits=0,
        )
        out_a, p_a = run_exact(single, state)
        out_b, p_b = run_exact(build_terashima_plan(d), state)
        np.testing.assert_allclose(
            out_a[:4].real, out_b[:4].real, atol=1e-10
        )
        assert abs(p_a - p_b) < 1e-10

    # the sampled histograms of both constructions agree statistically
    d = np.array([1.0, 0.8, 0.5, 0.3])
    alpha = positive_state(4, 55)
    full = np.zeros(8)
    full[:4] = alpha
    state = init_state(3, full)
    h_chain = run_shots(build_terashima_plan(d), state, 40_000, seed=9)
    h_single = run_shots(build_d_test_plan(d), state, 40_000, seed=10)
    pa = {k[-2:]: v / h_chain.meaningful_shots for k, v in h_chain.counts.items()}
    pb = {k[-2:]: v / h_single.meaningful_shots for k, v in h_single.counts.items()}
    for key in sorted(set(pa) | set(pb)):
        assert abs(pa.get(key, 0.0) - pb.get(key, 0.0)) < 0.02


def test_monotone_sequence_bound_on_symmetric_transfer():
    # for a symmetric transfer matrix the deflated operator is a contraction
    # at rate lambda_1, so every [(F_m^-2 - 1)/(F_0^-2 - 1)]^(1/2m) sits at or
    # below lambda_1 (the general non-normal case violates this; see the
    # README section "Estimator bound for non-normal transfer matrices")
    model = symmetric_model(seed=5)
    t = assemble_transfer(r_matrix(model), 1)
    s = spectral_summary(t, method="dense")
    psi0 = s.psi0_right
    rng = np.random.default_rng(2)
    for _ in range(10):
        psi = rng.random(4) + 1e-3
        psi /= np.linalg.norm(psi)
        f0 = float(psi0 @ psi)
        for m in (1, 2, 3, 4):
            v = np.linalg.matrix_power(t.entries, m) @ psi
            fm = float(psi0 @ (v / np.linalg.norm(v)))
            seq = ((fm ** -2 - 1) / (f0 ** -2 - 1)) ** (1.0 / (2 * m))
            assert seq <= s.ratio + 1e-9


# ---------------------------------------------------------------- golden experiment outputs

# Pinned from the experiments layer before its block step was shared.  Shot
# paths are pinned exactly: sha256 of the histogram counts and of float.hex of
# every float they produce.  Exact paths are pinned to 1e-12 relative.
_GOLDEN_MODEL = generate_model(0.4, 2.0, 7)
_GOLDEN_SHOTS, _GOLDEN_SEED, _GOLDEN_FLOOR = 4000, 3, 100
_GOLDEN_SHOT_DIGESTS = {
    ("deep", 2, 2): "b51cf0c0e9439d00760bc2f20080c10effa0e9ef46f3ab47bf63e48e4080add0",
    ("refeed", 2, 2): "39130fb4f0c9c39d82304e5a70bc9ca87140c98cfd71f5cc4efbc1ad6c0ee049",
    ("deep", 3, 1): "b4f3d50abc8c75589d3f8bec5bd486a9cb038a231a3311f206ca7bfb379b15a3",
    ("refeed", 3, 1): "64598efc5faecaaf781cbd450f4edba937f94ea99e3e53a60884f849d8ec7a4d",
    ("psi0", 2): "b02f80e74210f91ab31d6b72a021d4b0a85f00114a342d7c570b91b6705ff8fc",
    ("estimate", 2): "1d6ac3129ee2653dcab44abcb93bcfc9eae888d6d13a357486a4d8688061647d",
    ("estimate", 3): "fe58e1fa77d07fda0a92b148e16a33e0c1dfb1914c9cd218a5a3c38b8e1422c5",
}
_GOLDEN_EXACT_ACTION = {
    (2, 2): ([0.7187617391594847, 0.5188847140636541, 0.30774888154167995, 0.055089942946686406,
              0.271879332645101, 0.17647855568729934, 0.10491990455445781, 0.018019473320588203],
             0.4290061183362303),
    (3, 1): ([0.7116692735280312, 0.41140283703487596, 0.2801336773230422, 0.04850341887831108,
              0.26748361896158224, 0.14136975613795288, 0.0965461304428255, 0.015901045957014665,
              0.29409025880912093, 0.16757459063944197, 0.11441790682895003,
              0.019689257201727123, 0.10056208022731615, 0.05318992570650165,
              0.03623982820005897, 0.005960345802084121],
             0.42793960807265463),
}
# n: (f0, f1, estimate, oracle_lambda1, psi0_iterations) of the exact backend;
# oracle_lambda1 is the dense backend's ratio
_GOLDEN_EXACT_ESTIMATE = {
    2: (0.7499036362723556, 0.9948991570047843, 0.11493362183281178, 0.07555893258129114, 13),
    3: (0.7005613567700761, 0.9953480249761711, 0.09502746796520024, 0.06936964955145553, 13),
}


def _hex(values) -> list[str]:
    return [float(x).hex() for x in np.ravel(values)]


def _golden_digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def _golden_psi(n):
    return positive_state(2 ** (n + 1), 44)


@pytest.mark.parametrize("n, m", [(2, 2), (3, 1)])
def test_golden_experiment_actions(n, m):
    for mode in ("deep", "refeed"):
        vec, diag = simulated_t_action(
            _GOLDEN_MODEL, n, m, _golden_psi(n), shots=_GOLDEN_SHOTS, seed=_GOLDEN_SEED,
            mode=mode, meaningful_floor=_GOLDEN_FLOOR,
        )
        hist = diag.final_histogram
        got = _golden_digest(_hex(vec), hist.counts, hist.meaningful_shots, diag.shots_used,
                             _hex(diag.meaningful_fractions))
        assert got == _GOLDEN_SHOT_DIGESTS[mode, n, m], mode
    vec, diag = simulated_t_action(_GOLDEN_MODEL, n, m, _golden_psi(n), mode="exact")
    want_vec, want_keep = _GOLDEN_EXACT_ACTION[n, m]
    np.testing.assert_allclose(vec, want_vec, rtol=1e-12, atol=0)
    assert abs(diag.keep_probability - want_keep) <= 1e-12 * want_keep


def test_golden_power_iteration():
    res = power_iterate_psi0(
        _GOLDEN_MODEL, 2, shots_per_step=_GOLDEN_SHOTS, seed=_GOLDEN_SEED, max_steps=3, tol=0.0,
        backend="shot", start=_golden_psi(2), meaningful_floor=_GOLDEN_FLOOR,
    )
    got = _golden_digest(_hex(res.vector), _hex([res.last_delta]), res.steps, res.converged,
                         res.shots_used)
    assert got == _GOLDEN_SHOT_DIGESTS["psi0", 2]
    res = power_iterate_psi0(_GOLDEN_MODEL, 2, max_steps=3, tol=0.0, backend="exact",
                             start=_golden_psi(2))
    np.testing.assert_allclose(res.vector, [
        0.7181005126205741, 0.5155212947627731, 0.3076621050396409, 0.055077270774702786,
        0.2775087944824679, 0.17916642208923256, 0.10691949025864253, 0.01834275252606135,
    ], rtol=1e-12, atol=0)
    assert abs(res.last_delta - 0.007401068806640745) <= 1e-12 * 0.007401068806640745
    assert (res.steps, res.converged, res.shots_used) == (3, False, 0)


@pytest.mark.parametrize("n", [2, 3])
def test_golden_estimates(n):
    f0, f1, estimate, oracle, iterations = _GOLDEN_EXACT_ESTIMATE[n]
    rep = estimate_lambda1(_GOLDEN_MODEL, n, _golden_psi(n), shots=_GOLDEN_SHOTS,
                           seed=_GOLDEN_SEED, backend="shot", meaningful_floor=_GOLDEN_FLOOR)
    got = _golden_digest(_hex([rep.f0, rep.f1, rep.estimate]), rep.shots_used,
                         rep.psi0_iterations, rep.degenerate)
    assert got == _GOLDEN_SHOT_DIGESTS["estimate", n]
    assert abs(rep.oracle_lambda1 - oracle) <= 1e-12 * oracle
    dense = spectral_summary(assemble_transfer(r_matrix(_GOLDEN_MODEL), n), method="dense")
    assert abs(dense.ratio - oracle) <= 1e-12 * oracle
    rep = estimate_lambda1(_GOLDEN_MODEL, n, _golden_psi(n), backend="exact")
    np.testing.assert_allclose([rep.f0, rep.f1, rep.estimate, rep.oracle_lambda1],
                               [f0, f1, estimate, oracle], rtol=1e-12, atol=0)
    assert (rep.psi0_iterations, rep.shots_used, rep.degenerate) == (iterations, 0, False)


def test_golden_refeed_chain():
    # step m of the refeed chain is the m-th iterate of power_iterate_psi0, bit for bit
    e0 = np.zeros(8)
    e0[0] = 1.0
    dense = spectral_summary(assemble_transfer(r_matrix(_GOLDEN_MODEL), 2), method="dense")
    for m, distance, shots_used in ((1, 0.10211157461932484, 4000),
                                    (2, 0.037672423800009056, 8000)):
        vec, diag = simulated_t_action(_GOLDEN_MODEL, 2, m, e0, shots=_GOLDEN_SHOTS,
                                       seed=_GOLDEN_SEED, mode="refeed",
                                       meaningful_floor=_GOLDEN_FLOOR)
        # distance to the dense backend's psi0
        got = float(np.linalg.norm(vec - dense.psi0_right))
        assert abs(got - distance) <= 1e-12 * distance
        assert diag.shots_used == shots_used
        assert diag.meaningful_fractions[0] == 0.37925
        res = power_iterate_psi0(_GOLDEN_MODEL, 2, shots_per_step=_GOLDEN_SHOTS,
                                 seed=_GOLDEN_SEED, max_steps=m, tol=0.0,
                                 meaningful_floor=_GOLDEN_FLOOR)
        np.testing.assert_array_equal(res.vector, vec)
        assert res.shots_used == shots_used
