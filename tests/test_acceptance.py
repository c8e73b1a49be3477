"""Acceptance gate: one test per release criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Criterion 8a (the exact-backend estimator bound) asserts
estimate <= ||(I-P) T (I-P)||_2 <psi0,psi> / <psi0,T psi> with P = psi0 psi0^T,
which holds for every transfer matrix; for normal T it is exactly lambda_1.
These transfer matrices are non-normal, so the estimate can and does exceed
lambda_1 itself; 8a reports how often (see the README section "Estimator
bound for non-normal transfer matrices").
"""

import math
import time

import numpy as np
import pytest

from vertexsim import (
    LatticeShape,
    assemble_transfer,
    boundary_strings,
    brute_force_partition,
    build_d_test_plan,
    build_t_plan,
    estimate_lambda1,
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
)
from vertexsim.experiments import _embed_input
from vertexsim.rng import stream_u64, to_unit, uniforms

from conftest import FIXTURE_SINGULAR, estimator_bound, positive_state


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    checks = 0
    for k in range(20):
        c = float(2.0 * uniforms(900 + k, 1)[0])
        model = generate_model(c, 2.0, 1000 + k)
        for n in (1, 2, 3):
            t = assemble_transfer(r_matrix(model), n)
            for m in (1, 2, 3):
                bits = to_unit(stream_u64(7000 + 100 * k + 10 * n + m, 10 * (2 * n + 2)))
                bits = (bits < 0.5).astype(int).reshape(10, 2 * n + 2)
                for row in bits:
                    bottom = "".join(map(str, row[:n]))
                    top = "".join(map(str, row[n:2 * n]))
                    corners = (int(row[2 * n]), int(row[2 * n + 1]))
                    z = brute_force_partition(model, LatticeShape(n, m), bottom, top, corners)
                    pb, pt = boundary_strings(bottom, top, corners)
                    z2 = partition_element(t, m, pb, pt)
                    worst = max(worst, abs(z - z2) / z)
                    checks += 1
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 60
    report("1 oracle equivalence", ok,
           f"{checks} checks, worst relative deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 60


def test_criterion_2_svd_fixture(fixture_r):
    t0 = time.time()
    f = svd_scaled(fixture_r)
    errs = [abs(got - want) for got, want in zip(f.d, FIXTURE_SINGULAR)]
    elapsed = time.time() - t0
    ok = max(errs) < 5e-4 and elapsed < 1
    report("2 SVD fixture", ok, f"singular values {np.round(f.d, 5)}, "
           f"max deviation {max(errs):.1e}, {elapsed:.2f}s")
    assert max(errs) < 5e-4
    assert elapsed < 1


def test_criterion_3_spectral_fixture(fixture_r):
    t0 = time.time()
    s = spectral_summary(assemble_transfer(fixture_r, 4))
    elapsed = time.time() - t0
    ok = abs(s.ratio - 0.11) < 0.005 and elapsed < 1
    report("3 spectral fixture", ok, f"ratio {s.ratio:.4f} vs 0.11 +- 0.005, {elapsed:.2f}s")
    assert abs(s.ratio - 0.11) < 0.005
    assert elapsed < 1


def test_criterion_4_exact_circuit_equivalence():
    t0 = time.time()
    worst_state = 0.0
    worst_keep = 0.0
    inputs = 0
    seed = 0
    while inputs < 50:
        for n in range(1, 7):
            for m in range(1, 4):
                if inputs >= 50:
                    break
                model = generate_model(0.8 * ((seed % 3) + 0.1), 2.0, 2000 + seed)
                factors = svd_scaled(r_matrix(model))
                t = assemble_transfer(r_matrix(model), n)
                psi = positive_state(2 ** (n + 1), 3000 + seed)
                plan = build_t_plan(factors, n, m)
                out, keep = run_exact(plan, _embed_input(psi, n))
                got, diag = simulated_t_action(model, n, m, psi, mode="exact")
                oracle = np.linalg.matrix_power(t.entries, m) @ psi
                keep_oracle = float(
                    np.linalg.norm(oracle / factors.d0_raw ** (n * m)) ** 2
                )
                oracle /= np.linalg.norm(oracle)
                worst_state = max(worst_state, float(np.max(np.abs(got - oracle))))
                worst_keep = max(worst_keep, abs(diag.keep_probability - keep_oracle))
                worst_keep = max(worst_keep, abs(keep - keep_oracle))
                inputs += 1
                seed += 1
    elapsed = time.time() - t0
    ok = worst_state < 1e-10 and worst_keep < 1e-10 and elapsed < 60
    report("4 exact circuit equivalence", ok,
           f"{inputs} inputs, worst state dev {worst_state:.2e}, "
           f"worst keep dev {worst_keep:.2e}, {elapsed:.1f}s")
    assert worst_state < 1e-10
    assert worst_keep < 1e-10
    assert elapsed < 60


def _shot_amplitude_check(fixture_model, m, shots, seed):
    n = 4
    psi = np.zeros(2 ** (n + 1))
    psi[0] = 1.0
    got, diag = simulated_t_action(fixture_model, n, m, psi, shots=shots, seed=seed,
                                   mode="deep")
    t = assemble_transfer(r_matrix(fixture_model), n)
    oracle = np.linalg.matrix_power(t.entries, m) @ psi
    oracle /= np.linalg.norm(oracle)
    meaningful = diag.meaningful_fractions[0] * shots
    worst_margin = -math.inf
    for i in range(len(oracle)):
        sigma = math.sqrt(max(1.0 - oracle[i] ** 2, 0.0) / (4.0 * meaningful))
        tol = max(0.005, 3.0 * sigma)
        worst_margin = max(worst_margin, abs(got[i] - oracle[i]) - tol)
    return worst_margin, diag


def test_criterion_5_shot_convergence(fixture_model):
    t0 = time.time()
    margin1, d1 = _shot_amplitude_check(fixture_model, 1, 40_000, seed=105)
    margin3, d3 = _shot_amplitude_check(fixture_model, 3, 800_000, seed=103)
    elapsed = time.time() - t0
    ok = margin1 < 0 and margin3 < 0 and elapsed < 600
    report("5 shot convergence", ok,
           f"M=1@4e4 worst margin {margin1:.2e} (meaningful {d1.meaningful_fractions[0]:.2f}), "
           f"M=3@8e5 worst margin {margin3:.2e} (meaningful {d3.meaningful_fractions[0]:.2f}), "
           f"{elapsed:.0f}s")
    assert margin1 < 0
    assert margin3 < 0
    assert elapsed < 600


def test_criterion_6_d_test_dilution():
    t0 = time.time()
    shots = 10_000
    worst_frac_sigmas = 0.0
    worst_bin_sigmas = 0.0
    for k in range(20):
        vals = to_unit(stream_u64(400 + k, 8))
        d = np.sort(vals[:4])[::-1]
        d[0] = 1.0
        alpha = vals[4:] + 1e-3
        alpha /= np.linalg.norm(alpha)
        p_keep = float(np.sum((d * alpha) ** 2))
        plan = build_d_test_plan(d)
        full = np.zeros(8)
        full[:4] = alpha
        hist = run_shots(plan, init_state(3, full), shots, seed=500 + k)
        sigma_f = math.sqrt(p_keep * (1.0 - p_keep) / shots)
        worst_frac_sigmas = max(
            worst_frac_sigmas, abs(hist.meaningful_fraction - p_keep) / sigma_f
        )
        kept_probs = (d * alpha) ** 2 / p_keep
        for i in range(4):
            count = hist.counts.get(format(i, "03b"), 0)
            p_hat = count / hist.meaningful_shots
            sigma_b = math.sqrt(kept_probs[i] * (1 - kept_probs[i]) / hist.meaningful_shots)
            if sigma_b > 0:
                worst_bin_sigmas = max(worst_bin_sigmas, abs(p_hat - kept_probs[i]) / sigma_b)
    elapsed = time.time() - t0
    ok = worst_frac_sigmas < 5 and worst_bin_sigmas < 3 and elapsed < 60
    report("6 D-test dilution", ok,
           f"20 pairs at 1e4 shots: worst fraction deviation {worst_frac_sigmas:.2f} sigma "
           f"(limit 5), worst bin deviation {worst_bin_sigmas:.2f} sigma (limit 3), "
           f"{elapsed:.1f}s")
    assert worst_frac_sigmas < 5
    assert worst_bin_sigmas < 3
    assert elapsed < 60


def _find_c0_model(lo=0.15, hi=0.25):
    for seed in range(200):
        model = generate_model(0.0, 2.0, seed)
        ratio = spectral_summary(assemble_transfer(r_matrix(model), 4)).ratio
        if lo <= ratio <= hi:
            return model, ratio
    raise AssertionError("no c=0 model with the requested ratio found")


def test_criterion_7_power_iteration_convergence(fixture_model):
    n = 4

    oracle_fix = spectral_summary(assemble_transfer(r_matrix(fixture_model), n)).psi0_right
    res = power_iterate_psi0(fixture_model, n, backend="exact", tol=0.0, max_steps=3)
    err_fix = float(np.max(np.abs(res.vector - oracle_fix)))

    model_c0, ratio = _find_c0_model()
    oracle_c0 = spectral_summary(assemble_transfer(r_matrix(model_c0), n)).psi0_right
    res_c0 = power_iterate_psi0(model_c0, n, backend="exact", tol=0.0, max_steps=4)
    err_c0 = float(np.max(np.abs(res_c0.vector - oracle_c0)))

    res_shot = power_iterate_psi0(fixture_model, n, shots_per_step=40_000, seed=71,
                                  backend="shot", tol=0.0, max_steps=3)
    err_shot = float(np.max(np.abs(res_shot.vector - oracle_fix)))

    ok = err_fix < 0.005 and err_c0 < 0.005 and err_shot < 0.02
    report("7 power-iteration convergence", ok,
           f"fixture M=3 exact err {err_fix:.4f} (<0.005), "
           f"c=0 (ratio {ratio:.3f}) M=4 exact err {err_c0:.4f} (<0.005), "
           f"fixture M=3 shot err {err_shot:.4f} (<0.02)")
    assert err_fix < 0.005
    assert err_c0 < 0.005
    assert err_shot < 0.02


def test_criterion_8a_estimator_bound_exact():
    """Exact-backend bound on the lambda_1 estimator, valid for any T.

    Let psi0 be the unit dominant right eigenvector, P = psi0 psi0^T and
    phi = (I-P) psi.  Since T psi0 = Lambda_0 psi0, (I-P) T psi =
    (I-P) T (I-P) phi, so
        f0^-2 - 1 = ||phi||^2 / f0^2,
        f1^-2 - 1 = ||(I-P) T (I-P) phi||^2 / <psi0,T psi>^2,
    and the estimate is at most ||(I-P) T (I-P)||_2 <psi0,psi> / <psi0,T psi>.
    For normal T this bound equals lambda_1; these transfer matrices are
    non-normal, so the estimate may exceed lambda_1, and the number of pairs
    that do is reported alongside.
    """
    t0 = time.time()
    violations = 0
    above_lambda1 = 0
    worst_lambda1 = 0.0
    worst_ratio = 0.0
    pairs = 0
    seed = 0
    while pairs < 200:
        n = 2 + (seed % 3)
        c = float(2.0 * uniforms(8100 + seed, 1)[0])
        model = generate_model(c, 2.0, 8200 + seed)
        t = assemble_transfer(r_matrix(model), n)
        s = spectral_summary(t, method="dense")
        psi = positive_state(2 ** (n + 1), 8300 + seed)
        rep = estimate_lambda1(model, n, psi, backend="exact")
        if not rep.degenerate:
            bound = estimator_bound(t.entries, s.psi0_right, psi)
            if rep.estimate > bound + 1e-9:
                violations += 1
            worst_ratio = max(worst_ratio, rep.estimate / bound)
            if rep.estimate > s.ratio + 1e-9:
                above_lambda1 += 1
                worst_lambda1 = max(worst_lambda1, rep.estimate - s.ratio)
            pairs += 1
        seed += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 1800
    report("8a estimator bound (exact)", ok,
           f"{violations}/200 pairs exceed the deflated-norm bound + 1e-9, "
           f"largest estimate/bound {worst_ratio:.3f}; "
           f"{above_lambda1}/200 exceed lambda_1 + 1e-9 (non-normal T), "
           f"worst excess {worst_lambda1:.4f}, {elapsed:.0f}s")
    assert violations == 0, (
        f"{violations}/200 exact-backend estimates exceed "
        f"||(I-P)T(I-P)||_2 <psi0,psi>/<psi0,T psi> + 1e-9"
    )
    assert elapsed < 1800


def test_criterion_8b_estimator_shots(fixture_model):
    t0 = time.time()
    oracle = spectral_summary(assemble_transfer(r_matrix(fixture_model), 4)).ratio
    within = 0
    degenerate = 0
    for k in range(100):
        psi = positive_state(32, 8500 + k)
        rep = estimate_lambda1(fixture_model, 4, psi, shots=100_000, seed=8600 + k,
                               backend="shot")
        if rep.degenerate:
            degenerate += 1
        elif rep.estimate <= oracle + 0.02:
            within += 1
    elapsed = time.time() - t0
    ok = within >= 95 and elapsed < 1800
    report("8b estimator scatter (shots)", ok,
           f"{within}/100 estimates within lambda_1 + 0.02 "
           f"({degenerate} degenerate), {elapsed:.0f}s")
    assert within >= 95
    assert elapsed < 1800


def test_criterion_9_depth_linearity():
    t0 = time.time()
    factors = svd_scaled(r_matrix(generate_model(0.4, 2.0, 4)))
    for n in range(1, 51):
        plan = build_t_plan(factors, n, 1)
        assert plan.count_unitaries() == 3 * n
        assert plan.count_postselects() == n
        final = plan.instructions[-1]
        assert len(final.qubits) == n + 1
    elapsed = time.time() - t0
    ok = elapsed < 1
    report("9 depth linearity", ok, f"3N unitaries + N postselects verified for N<=50, "
           f"{elapsed:.2f}s")
    assert elapsed < 1
