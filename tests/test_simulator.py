import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from vertexsim import (
    ApplyUnitary,
    CircuitPlan,
    DimensionError,
    ImpossiblePostselectionError,
    MeasureAll,
    ValidationError,
    acceptance_probability,
    build_d_test_plan,
    build_t_plan,
    build_terashima_plan,
    dilate,
    generate_model,
    init_state,
    r_matrix,
    run_exact,
    run_shots,
    svd_scaled,
)
from vertexsim import simulator
from vertexsim.dilation import X_GATE
from vertexsim.gates import apply_matrix
from vertexsim.rng import stream_u64, substream_seed, substream_value, to_unit
from vertexsim.simulator import _collapse_outcome, _marginal_probs

from conftest import (
    haar_unitary,
    mid_circuit_plan,
    mixed_plans,
    positive_state,
    reference_apply_matrix,
    reference_marginal_probs,
)

# chi-square 0.999 quantile for 7 degrees of freedom (8-bin histogram)
CHI2_999_DF7 = 24.3219


def basis_state(n, k):
    v = np.zeros(2 ** n)
    v[k] = 1.0
    return init_state(n, v)


def dilation_state(d, alpha):
    """|0>_a (x) alpha as a 3-qubit state."""
    full = np.zeros(8)
    full[:4] = alpha
    return init_state(3, full)


# ---------------------------------------------------------------- states


def test_init_state_examples():
    e0 = basis_state(3, 0)
    assert e0.amplitudes[0] == 1.0
    uni = init_state(2, np.full(4, 0.5))
    np.testing.assert_allclose(np.abs(uni.amplitudes), 0.5)


def test_init_state_pins_seeded_cli_vector():
    # the CLI's seeded positive input state, frozen at first generation
    v = to_unit(stream_u64(99, 8))
    v = v / np.linalg.norm(v)
    state = init_state(3, v)  # renormalization may shift the last bit
    np.testing.assert_allclose(
        state.amplitudes.real[:4],
        [0.19280158714857806, 0.023338261680790895, 0.6153890933404162, 0.0754303767300095],
        rtol=1e-15,
    )


def test_init_state_errors():
    with pytest.raises(DimensionError):
        init_state(2, np.ones(3))
    with pytest.raises(ValidationError):
        init_state(2, np.zeros(4))
    with pytest.raises(ValidationError):
        init_state(2, np.full(4, 0.7))  # norm 1.4, far outside tolerance


def circuit(nq, *instructions):
    """Plan over nq qubits; a post-selection writes classical bit 0, a select bit."""
    n_post = sum(isinstance(i, MeasureAll) for i in instructions)
    return CircuitPlan(n_qubits=nq, n_classical_bits=n_post, instructions=list(instructions),
                       n_data_bits=0)


def postselect(qubit):
    return MeasureAll(qubits=(qubit,), cbits=(0,))


def test_run_exact_x_gate():
    st = basis_state(1, 0)
    out, p = run_exact(circuit(1, ApplyUnitary(matrix=X_GATE, targets=(0,))), st)
    assert out.amplitudes[1] == 1.0 and p == 1.0
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
    assert st.amplitudes[0] == 1.0  # the input state is left as it was


def test_trivial_dilation_flips_ancilla_sector_sign():
    g = dilate(np.array([1.0, 1.0, 1.0, 1.0]))
    amps = np.array([0.5, 0.5, 0.0, 0.0, 0.5, 0.0, 0.5, 0.0])
    out, _ = run_exact(circuit(3, ApplyUnitary(matrix=g, targets=(0, 1, 2))), init_state(3, amps))
    np.testing.assert_allclose(out.amplitudes[:4].real, [0.5, 0.5, 0, 0], atol=1e-15)
    np.testing.assert_allclose(out.amplitudes[4:].real, [-0.5, 0, -0.5, 0], atol=1e-15)


def test_svd_sandwich_reproduces_scaled_gate():
    # V then dilation then U on the kept branch acts as R / d0
    R = r_matrix(generate_model(0.4, 2.0, 6))
    f = svd_scaled(R)
    alpha = positive_state(4, 3)
    plan = circuit(
        3,
        ApplyUnitary(matrix=f.v, targets=(0, 1)),
        ApplyUnitary(matrix=dilate(f.d), targets=(0, 1, 2)),
        postselect(2),
        ApplyUnitary(matrix=f.u, targets=(0, 1)),
    )
    out, p = run_exact(plan, dilation_state(f.d, alpha))
    want = R.entries @ alpha / f.d0_raw
    assert abs(p - want @ want) < 1e-12
    np.testing.assert_allclose(out.amplitudes[:4].real, want / np.linalg.norm(want), atol=1e-12)


def test_postselect_examples(fixture_r):
    _, p = run_exact(circuit(3, postselect(2)), dilation_state(None, positive_state(4, 5)))
    assert p == 1.0  # ancilla already |0>

    plus = init_state(3, np.array([0.5, 0.5, 0, 0, 0.5, 0.5, 0, 0]))
    _, p = run_exact(circuit(3, postselect(2)), plus)
    assert abs(p - 0.5) < 1e-12

    f = svd_scaled(fixture_r)
    uniform = np.full(4, 0.5)
    plan = circuit(3, ApplyUnitary(matrix=dilate(f.d), targets=(0, 1, 2)), postselect(2))
    out, p = run_exact(plan, dilation_state(f.d, uniform))
    assert abs(p - float(np.sum(f.d ** 2)) / 4.0) < 1e-12
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_postselect_impossible():
    st = basis_state(2, 2)  # qubit 1 (= ancilla) is |1>
    with pytest.raises(ImpossiblePostselectionError):
        run_exact(circuit(2, postselect(1)), st)


# ---------------------------------------------------------------- plans


def test_plan_validation():
    with pytest.raises(ValidationError):
        CircuitPlan(n_qubits=2, n_classical_bits=1,
                    instructions=[MeasureAll(qubits=(0, 1), cbits=(0, 1))])
    with pytest.raises(ValidationError):
        CircuitPlan(n_qubits=2, n_classical_bits=2,
                    instructions=[ApplyUnitary(matrix=np.eye(4) * 2.0, targets=(0, 1))])
    with pytest.raises(ValidationError):
        CircuitPlan(n_qubits=1, n_classical_bits=2,
                    instructions=[MeasureAll(qubits=(3,), cbits=(0,))])


def test_apply_unitary_validates():
    with pytest.raises(ValidationError):
        circuit(2, ApplyUnitary(matrix=np.array([[1.0, 1.0], [0.0, 1.0]]), targets=(0,)))
    with pytest.raises(ValidationError):
        circuit(2, ApplyUnitary(matrix=X_GATE, targets=(2,)))  # target out of range
    with pytest.raises(ValidationError):
        circuit(2, ApplyUnitary(matrix=np.eye(4), targets=(0, 0)))  # repeated target


def test_validate_checks_each_distinct_matrix_once():
    plan = build_t_plan(svd_scaled(r_matrix(generate_model(0.4, 2.0, 7))), 6, 2)
    gates = [ins for ins in plan.instructions if isinstance(ins, ApplyUnitary)]
    distinct = {(id(g.matrix), len(g.targets)) for g in gates}
    assert len(gates) == 36 and len(distinct) == 3
    with mock.patch.object(simulator, "_check_unitary", wraps=simulator._check_unitary) as check:
        plan.validate()
    assert check.call_count == 3
    # an object is checked again at each new width, and every other object once
    bad = np.diag([1.0, 1.0, 1.0, 1.5])
    for matrix, targets in ((X_GATE, (0, 1)), (bad, (0, 1))):
        with pytest.raises(ValidationError):
            circuit(2, ApplyUnitary(matrix=np.eye(4), targets=(0, 1)),
                    ApplyUnitary(matrix=X_GATE, targets=(0,)),
                    ApplyUnitary(matrix=matrix, targets=targets))


def test_run_shots_trivial_plan_single_bin():
    plan = CircuitPlan(
        n_qubits=3,
        n_classical_bits=3,
        instructions=[MeasureAll(qubits=(0, 1, 2), cbits=(0, 1, 2))],
    )
    hist = run_shots(plan, basis_state(3, 0), 500, seed=1)
    assert hist.counts == {"000": 500}
    assert hist.meaningful_shots == hist.total_shots == 500


def test_run_shots_deterministic_across_chunking():
    d = np.array([1.0, 0.8, 0.5, 0.2])
    plan = build_d_test_plan(d)
    st = dilation_state(d, positive_state(4, 8))
    a = run_shots(plan, st, 4321, seed=99)
    with mock.patch.object(simulator, "CHUNK_SHOTS", 17):
        b = run_shots(plan, st, 4321, seed=99)
    with mock.patch.object(simulator, "CHUNK_SHOTS", 4321):
        c = run_shots(plan, st, 4321, seed=99)
    assert a.counts == b.counts == c.counts
    assert a.meaningful_shots == b.meaningful_shots == c.meaningful_shots
    assert run_shots(plan, st, 4321, seed=100).counts != a.counts


def test_run_shots_matches_exact_distribution_chi_square():
    # 1e5 shots against the exact Born distribution, 0.001 significance
    vals = to_unit(stream_u64(12, 8))
    d = np.sort(vals[:4])[::-1]
    d[0] = 1.0
    alpha = vals[4:] + 1e-3
    alpha /= np.linalg.norm(alpha)
    plan = build_d_test_plan(d)
    st = dilation_state(d, alpha)
    shots = 100_000
    hist = run_shots(plan, st, shots, seed=7)

    out = dilate(d) @ st.amplitudes
    probs = np.abs(out) ** 2
    counts = np.zeros(8)
    for key, cnt in hist.counts.items():
        counts[int(key, 2)] = cnt
    counts[4:] = 0.0
    # reconstruct the discarded ancilla-1 bins from the totals
    discarded = hist.total_shots - hist.meaningful_shots
    # chi-square over the meaningful bins plus one pooled discard bin
    expected = np.append(probs[:4] * shots, probs[4:].sum() * shots)
    observed = np.append(counts[:4], discarded)
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert stat < CHI2_999_DF7


def test_meaningful_fraction_tracks_acceptance_probability():
    vals = to_unit(stream_u64(16, 8))
    d = np.sort(vals[:4])[::-1]
    d[0] = 1.0
    alpha = vals[4:] + 1e-3
    alpha /= np.linalg.norm(alpha)
    p_keep = acceptance_probability(d, alpha)
    assert p_keep > 0.5  # chosen instance sits in the economical regime
    plan = build_d_test_plan(d)
    st = dilation_state(d, alpha)
    shots = 10_000
    hist = run_shots(plan, st, shots, seed=3)
    sigma = math.sqrt(p_keep * (1 - p_keep) / shots)
    assert abs(hist.meaningful_fraction - p_keep) < 5 * sigma

    # sqrt(count/meaningful) reproduces d_i alpha_i (normalized) within
    # max(0.005, 3 sigma) per amplitude
    want = d * alpha
    want = want / np.linalg.norm(want)
    got = np.zeros(4)
    for key, cnt in hist.counts.items():
        got[int(key, 2)] = math.sqrt(cnt / hist.meaningful_shots)
    for i in range(4):
        sig = math.sqrt(max(1.0 - want[i] ** 2, 0.0) / (4 * hist.meaningful_shots))
        assert abs(got[i] - want[i]) < max(0.005, 3 * sig)


def test_run_exact_empty_plan():
    plan = CircuitPlan(n_qubits=2, n_classical_bits=0, instructions=[])
    st = init_state(2, positive_state(4, 2))
    out, p = run_exact(plan, st)
    assert p == 1.0
    np.testing.assert_array_equal(out.amplitudes, st.amplitudes)


def test_run_exact_keep_probability_equals_norm():
    d = np.array([1.0, 0.6, 0.3, 0.1])
    alpha = positive_state(4, 4)
    plan = CircuitPlan(
        n_qubits=3,
        n_classical_bits=1,
        instructions=[
            ApplyUnitary(matrix=dilate(d), targets=(0, 1, 2)),
            MeasureAll(qubits=(2,), cbits=(0,)),
        ],
        n_data_bits=0,
    )
    out, p = run_exact(plan, dilation_state(d, alpha))
    assert abs(p - acceptance_probability(d, alpha)) < 1e-12
    want = d * alpha
    want /= np.linalg.norm(want)
    np.testing.assert_allclose(out.amplitudes[:4].real, want, atol=1e-12)


def test_run_exact_impossible_postselection():
    plan = CircuitPlan(
        n_qubits=2,
        n_classical_bits=1,
        instructions=[
            ApplyUnitary(matrix=X_GATE, targets=(1,)),
            MeasureAll(qubits=(1,), cbits=(0,)),
        ],
        n_data_bits=0,
    )
    with pytest.raises(ImpossiblePostselectionError):
        run_exact(plan, basis_state(2, 0))


def test_histogram_invariants():
    d = np.array([1.0, 0.7, 0.4, 0.2])
    plan = build_d_test_plan(d)
    st = dilation_state(d, positive_state(4, 6))
    hist = run_shots(plan, st, 2000, seed=11)
    assert sum(hist.counts.values()) == hist.meaningful_shots <= hist.total_shots
    for key in hist.counts:
        assert len(key) == plan.n_classical_bits
        assert int(key, 2) < 2 ** plan.n_data_bits


def test_meaningful_fraction_tracks_exact_keep_probability_mid_circuit():
    # on a transfer plan the meaningful fraction estimates the product of the
    # mid-circuit keep probabilities returned by the exact reference
    from vertexsim import build_t_plan, generate_model, r_matrix, svd_scaled
    from vertexsim.experiments import _embed_input

    model = generate_model(0.4, 2.0, 7)
    factors = svd_scaled(r_matrix(model))
    n = 3
    plan = build_t_plan(factors, n, 2)
    state = _embed_input(positive_state(2 ** (n + 1), 44), n)
    _, keep = run_exact(plan, state)
    shots = 20_000
    hist = run_shots(plan, state, shots, seed=13)
    sigma = math.sqrt(keep * (1 - keep) / shots)
    assert abs(hist.meaningful_fraction - keep) < 5 * sigma


def test_register_width_guard():
    plan = CircuitPlan(
        n_qubits=2,
        n_classical_bits=70,
        instructions=[],
        n_data_bits=70,
    )
    with pytest.raises(ValidationError, match="64"):
        run_shots(plan, basis_state(2, 0), 10, seed=0)


@pytest.mark.parametrize("kwargs", [
    {"shots": True},
    {"shots": 2.5},
    {"shots": 0},
    {"shots": -3},
    {"shots": "10"},
])
def test_run_shots_rejects_bad_counts(kwargs):
    plan = CircuitPlan(n_qubits=1, n_classical_bits=1,
                       instructions=[MeasureAll(qubits=(0,), cbits=(0,))])
    args = {"shots": 10, "seed": 0, **kwargs}
    with pytest.raises(ValidationError):
        run_shots(plan, basis_state(1, 0), **args)


def test_run_shots_accepts_numpy_integer_counts():
    plan = CircuitPlan(n_qubits=1, n_classical_bits=1,
                       instructions=[MeasureAll(qubits=(0,), cbits=(0,))])
    with mock.patch.object(simulator, "CHUNK_SHOTS", 3):
        hist = run_shots(plan, basis_state(1, 1), np.int64(10), seed=0)
    assert hist.counts == {"1": 10}
    assert hist.survivors == (10,)


def test_survivors_follow_the_first_postselection():
    plan, state = _golden_case("t_4_3")
    shots = 20_000
    hist = run_shots(plan, state, shots, seed=5)
    s = hist.survivors
    assert len(s) == plan.count_postselects() + 1
    assert all(a >= b for a, b in zip(s, s[1:]))
    assert s[-1] == hist.meaningful_shots
    # summed over chunks, the counts do not depend on the chunking
    with mock.patch.object(simulator, "CHUNK_SHOTS", 6999):
        assert run_shots(plan, state, shots, seed=5).survivors == s

    first = next(i for i, ins in enumerate(plan.instructions) if isinstance(ins, MeasureAll))
    cut = CircuitPlan(plan.n_qubits, plan.n_classical_bits, plan.instructions[:first + 1],
                      plan.n_data_bits)
    _, keep = run_exact(cut, state)
    sigma = math.sqrt(keep * (1 - keep) / shots)
    assert abs(s[0] / shots - keep) < 5 * sigma


def test_run_exact_d_test_keeps_the_select_bit_zero():
    # the final measurement writes the ancilla into select bit 2, so it is
    # also the post-selection, and run_exact keeps the ancilla-0 branch
    d = np.array([1.0, 0.8, 0.5, 0.2])
    alpha = positive_state(4, 8)
    plan = build_d_test_plan(d)
    assert plan.count_postselects() == 1
    out, keep = run_exact(plan, dilation_state(d, alpha))
    assert abs(keep - acceptance_probability(d, alpha)) < 1e-12
    want = d * alpha / np.linalg.norm(d * alpha)
    np.testing.assert_allclose(out.amplitudes[:4].real, want, atol=1e-12)
    assert not np.any(out.amplitudes[4:])


@pytest.mark.parametrize("name", ["d_test", "terashima", "mid_circuit", "t_3_2"])
def test_exact_keep_probability_is_the_shot_limit(name):
    # both runners read post-selection off the register layout, so the exact
    # keep probability is the limit of the meaningful fraction
    plan, state = _golden_case(name)
    _, keep = run_exact(plan, state)
    shots = 40_000
    hist = run_shots(plan, state, shots, seed=17)
    sigma = math.sqrt(keep * (1 - keep) / shots)
    assert abs(hist.meaningful_fraction - keep) < 5 * sigma


def test_run_exact_branches_on_a_data_measurement():
    # H, measure q0 into data bit c0, H, measure q0 into select bit c1: each
    # data outcome leaves q0 in |+> or |->, so half the shots are kept
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    plan = CircuitPlan(n_qubits=1, n_classical_bits=2, n_data_bits=1, instructions=[
        ApplyUnitary(matrix=h, targets=(0,)),
        MeasureAll(qubits=(0,), cbits=(0,)),
        ApplyUnitary(matrix=h, targets=(0,)),
        MeasureAll(qubits=(0,), cbits=(1,)),
    ])
    kept, keep = run_exact(plan, basis_state(1, 0))
    assert abs(keep - 0.5) < 1e-12
    assert kept is None  # two branches survive: the kept state is a mixture
    hist = run_shots(plan, basis_state(1, 0), 40_000, seed=17)
    assert abs(hist.meaningful_fraction - keep) < 5 * math.sqrt(keep * (1 - keep) / 40_000)


def test_run_exact_caps_the_branches_it_expands():
    # a mid-circuit measurement of all 12 qubits of a uniform state would
    # expand 4096 branches of 4096 amplitudes, over MAX_STATE_AMPLITUDES
    nq = 12
    assert (1 << (2 * nq)) >= simulator.MAX_STATE_AMPLITUDES
    plan = CircuitPlan(n_qubits=nq, n_classical_bits=nq, instructions=[
        MeasureAll(qubits=tuple(range(nq)), cbits=tuple(range(nq))),
        MeasureAll(qubits=(0,), cbits=(0,)),
    ])
    with pytest.raises(ValidationError, match="branches"):
        run_exact(plan, init_state(nq, np.full(2 ** nq, 2.0 ** (-nq / 2))))


@settings(max_examples=30)
@given(case=mixed_plans(), seed=hs.integers(0, 2 ** 32 - 1))
def test_exact_keep_is_the_shot_limit_on_mixed_plans(case, seed):
    plan, state = case
    try:
        _, keep = run_exact(plan, state)
    except ImpossiblePostselectionError:
        keep = 0.0
    shots = 40_000
    hist = run_shots(plan, state, shots, seed)
    # a summed keep can exceed 1 by a few ulps
    p = min(keep, 1.0)
    sigma = math.sqrt(p * (1 - p) / shots)
    assert abs(hist.meaningful_fraction - keep) <= 5 * sigma + 1e-12


# ---------------------------------------------------------------- kernels


def kron_operator(matrix, targets, n):
    """The dense 2^n operator of `matrix` on `targets`: kron(I, matrix) in the
    basis whose low bits are the targets (target j at bit j), conjugated back
    to the qubit order by a basis permutation."""
    order = list(targets) + [q for q in range(n) if q not in targets]
    idx = np.arange(2 ** n)
    perm = sum(((idx >> q) & 1) << j for j, q in enumerate(order))
    return np.kron(np.eye(2 ** (n - len(targets))), matrix)[np.ix_(perm, perm)]


@settings(max_examples=80)
@given(n=hs.integers(1, 7), data=hs.data(), complex_gate=hs.booleans(),
       seed=hs.integers(0, 2 ** 32 - 1))
def test_kernels_match_reference_kernels(n, data, complex_gate, seed):
    targets = tuple(data.draw(hs.lists(hs.integers(0, n - 1), min_size=1,
                                       max_size=min(n, 3), unique=True)))
    rng = np.random.default_rng(seed)
    dim = 2 ** len(targets)
    gate = rng.normal(size=(dim, dim))
    if complex_gate:
        gate = gate + 1j * rng.normal(size=(dim, dim))
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    out = apply_matrix(amps, gate, targets, n)
    assert np.array_equal(out, reference_apply_matrix(amps, gate, targets, n))
    assert np.allclose(out, kron_operator(gate, targets, n) @ amps, rtol=0, atol=1e-12)
    assert np.array_equal(_marginal_probs(amps, targets, n),
                          reference_marginal_probs(amps, targets, n))


# ---------------------------------------------------------------- golden histograms

# sha256 of json.dumps([counts, meaningful_shots], sort_keys=True) for
# GOLDEN_SHOTS and 2 * GOLDEN_SHOTS shots, pinned from the engine that split
# a branch for every realized outcome, dead ones included.  Any change to
# the sampler must reproduce them bit for bit.
GOLDEN_SHOTS = 300
GOLDEN_DIGESTS = {
    ("t_2_1", 3): (
        "f60733548e91acb66a15737ddf2efd4374e4e5fecc9563c97104dbf4db3d234b",
        "7f3fd5a3894754e1d0f8bb45bb366e083bf59d2b38ccc1cd8a0077e34d2467e1",
    ),
    ("t_2_1", 11): (
        "b2a0a31b024851d44914b3d09c563caf8f1b0ab212e25b61953a3d196455fe34",
        "e452984a4c6ea7be0e2e4cb13c0a6aafc6ac6849c8cc2e2afc819080a2d3023c",
    ),
    ("t_4_3", 3): (
        "cc14d0015c98931defc220b24724ae7112a7fb088090d6a6abfef580dbd5172d",
        "aea93ae454651a4a02aa8e8ed8d083ea300e43ead60de0954bcd6ec14ea7b0dc",
    ),
    ("t_4_3", 11): (
        "3994a5d1fae9efc0ed7c29ed30c46d56c15c20574d51b615d162cb5758386e46",
        "d4075a3db7a85cc5aec58155a2ffc2d937ec18c752da2797a8f3daa16cec3ed0",
    ),
    ("t_6_2", 3): (
        "4d222b3fd7f8809a9fc3084db266d2f25826ec4e0674499ab9555d127a839bae",
        "f7221900e47ab6394e221f7e85f0745b739b104d1d65c982572f15980d0df9b9",
    ),
    ("t_6_2", 11): (
        "15cfc8fec90731a413e9673bc8a7b9eb440d89ca41cd908dd05f7b0abd49fee1",
        "70b125d74df7af36208c34822e0dc7ec529f58f4fdbffce566a852721d790476",
    ),
    ("d_test", 3): (
        "67a689d55e48142100374fb9e26b7f1df308cded36320b477bb334783a139cfb",
        "c80a9986dd8722d69724a639f9542a866f98dea6d9f54d820485c6829a04f08f",
    ),
    ("d_test", 11): (
        "730f3c2703f34568cc9b3560668913be6836a4080af766300fad6847f3757ae0",
        "42c1bd911c7644b86e592b0a1be03ad6947ba8cb72715c670a4283cd3e3e9e11",
    ),
    ("terashima", 3): (
        "aceba6193d6f4649a4f71367bfdb90f556a85c590a1a535cb6035d7f6329e502",
        "6f3ab9c0993dea39500b03b40310ba37d996f62b50de3354ebfdd8285bc803a8",
    ),
    ("terashima", 11): (
        "331ea1380b05c220ec5036f2344fbe1db82caee0b787470afcd3a56ebe96aed9",
        "2fb8e492612717c0fb360d99630fe20690c7cb8000fe33caf4ff9057933fdda6",
    ),
    ("mid_circuit", 3): (
        "fdc74cde9718ea269246fbc212406e0b21226143095e7c0f5b6ee70b904bff82",
        "8366d5c4b5ca900dd5df82ba3b72d4c4183e9ac3fc25683872b006c90a1eb7ce",
    ),
    ("mid_circuit", 11): (
        "ebebd354f05446b9a5cd23bbd694c056805b962129500f8bf6c64438f9600308",
        "de0903e53df1a4b4afe0b9e28e975f8e68e484bdd01b6248e6a947453c37d4b8",
    ),
}


def _golden_case(name: str):
    from vertexsim.experiments import _embed_input

    d = np.array([1.0, 0.8, 0.5, 0.2])
    if name.startswith("t_"):
        n, m = (int(x) for x in name.split("_")[1:])
        factors = svd_scaled(r_matrix(generate_model(0.4, 2.0, 7)))
        return build_t_plan(factors, n, m), _embed_input(positive_state(2 ** (n + 1), 44), n)
    plan = {
        "d_test": build_d_test_plan,
        "terashima": build_terashima_plan,
        "mid_circuit": lambda _: mid_circuit_plan(),
    }[name](d)
    return plan, dilation_state(d, positive_state(4, 8))


def _digest(hist) -> str:
    blob = json.dumps([hist.counts, hist.meaningful_shots], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("name", ["t_2_1", "t_4_3", "t_6_2", "d_test", "terashima", "mid_circuit"])
def test_golden_histograms(name, seed):
    plan, state = _golden_case(name)
    want_s, want_2s = GOLDEN_DIGESTS[name, seed]
    small = run_shots(plan, state, GOLDEN_SHOTS, seed)
    with mock.patch.object(simulator, "CHUNK_SHOTS", 17):
        chunked = run_shots(plan, state, GOLDEN_SHOTS, seed)
    large = run_shots(plan, state, 2 * GOLDEN_SHOTS, seed)
    assert _digest(small) == _digest(chunked) == want_s
    assert _digest(large) == want_2s
    # shot k draws from substream (seed, k) alone, so s shots are a prefix of 2s
    assert small.meaningful_shots <= large.meaningful_shots
    for key, count in small.counts.items():
        assert count <= large.counts.get(key, 0)


# ---------------------------------------------------------------- reference sampler


def reference_shots(plan, state, shots, seed):
    """Shot-by-shot sampler in plain Python, the definition run_shots must meet.

    Each measurement draws the float u = to_unit(value e of substream (seed, k))
    and picks searchsorted(cumsum of the Born weights, last pinned to 1.0, u,
    side="right"); a shot is dropped at its first select bit.  Returns the
    histogram, the meaningful count and the live count after each measurement.
    """
    nq, nd = plan.n_qubits, plan.n_data_bits
    n_measures = sum(not isinstance(i, ApplyUnitary) for i in plan.instructions)
    survivors = [0] * n_measures
    counts: dict[str, int] = {}
    for k in range(shots):
        sub = substream_seed(seed, np.array([k], dtype=np.uint64))
        amps = state.amplitudes.astype(np.complex128)
        word, event, alive = 0, 0, True
        for ins in plan.instructions:
            if isinstance(ins, ApplyUnitary):
                amps = reference_apply_matrix(amps, ins.matrix, ins.targets, nq)
                continue
            qubits, cbits = ins.qubits, ins.cbits
            cum = np.cumsum(reference_marginal_probs(amps, qubits, nq))
            cum[-1] = 1.0
            out = int(np.searchsorted(cum, to_unit(substream_value(sub, event))[0], side="right"))
            for j, cb in enumerate(cbits):
                bit = (out >> j) & 1
                if cb < nd:
                    word |= bit << cb
                elif bit:
                    alive = False
            if not alive:
                break
            survivors[event] += 1
            event += 1
            amps = _collapse_outcome(amps, qubits, out, nq)
        if alive:
            key = format(word, f"0{plan.n_classical_bits}b")
            counts[key] = counts.get(key, 0) + 1
    return counts, sum(counts.values()), tuple(survivors)


@settings(max_examples=30)
@given(case=mixed_plans(), seed=hs.integers(0, 2 ** 32 - 1), small_chunk=hs.integers(1, 7),
       fewer=hs.integers(1, 119))
def test_run_shots_matches_reference_sampler(case, seed, small_chunk, fewer):
    plan, state = case
    shots = 120
    counts, meaningful, survivors = reference_shots(plan, state, shots, seed)
    for chunk_shots in (simulator.CHUNK_SHOTS, small_chunk):
        with mock.patch.object(simulator, "CHUNK_SHOTS", chunk_shots):
            hist = run_shots(plan, state, shots, seed)
        assert hist.counts == counts
        assert hist.meaningful_shots == meaningful
        assert hist.survivors == survivors
    # the first `fewer` shots are a prefix of the full run: nothing can grow
    head = run_shots(plan, state, fewer, seed)
    assert all(count <= counts.get(key, 0) for key, count in head.counts.items())
    assert all(a <= b for a, b in zip(head.survivors, survivors, strict=True))


def test_pure_postselection_keeps_exactly_outcome_zero():
    shots = 5000
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)

    def postselect_then_read(gate):
        return CircuitPlan(2, 2, [ApplyUnitary(gate, (1,)), MeasureAll((1,), (1,)),
                                  ApplyUnitary(hadamard, (0,)), MeasureAll((0,), (0,))],
                           n_data_bits=1)

    # p0 = 1: the key is always below the first threshold, 2^53
    hist = run_shots(postselect_then_read(np.eye(2)), basis_state(2, 0), shots, seed=4)
    assert hist.survivors == (shots, shots)
    assert hist.meaningful_shots == shots
    # p0 = 0: the first threshold is 0, so no shot lives
    hist = run_shots(postselect_then_read(X_GATE), basis_state(2, 0), shots, seed=4)
    assert hist.meaningful_shots == 0
    assert hist.counts == {}
    assert hist.survivors == (0, 0)
    # one measurement writes a data bit (q0 -> c0) and a select bit (q2 -> c2)
    rng = np.random.default_rng(9)
    plan = CircuitPlan(3, 3, [ApplyUnitary(haar_unitary(rng, 3), (0, 1, 2)),
                              MeasureAll((2, 0), (2, 0)),
                              ApplyUnitary(haar_unitary(rng, 2), (1, 0)),
                              MeasureAll((1,), (1,))], n_data_bits=2)
    state = basis_state(3, 0)
    counts, meaningful, survivors = reference_shots(plan, state, 3000, 8)
    for chunk_shots in (simulator.CHUNK_SHOTS, 7):
        with mock.patch.object(simulator, "CHUNK_SHOTS", chunk_shots):
            hist = run_shots(plan, state, 3000, 8)
        assert (hist.counts, hist.meaningful_shots, hist.survivors) == (counts, meaningful, survivors)
