import json
import math

import numpy as np
import pytest

from vertexsim import (
    RMatrix,
    ValidationError,
    VertexModel,
    energy_index,
    generate_model,
    model_from_json,
    model_to_json,
    r_matrix,
)


def ramp_model(beta=2.0, scale=1.0):
    """The analytic pure-ramp table eps = scale * (d+u+l+r), no noise."""
    energies = [0.0] * 16
    for d in range(2):
        for u in range(2):
            for l in range(2):
                for r in range(2):
                    energies[energy_index(d, u, l, r)] = scale * (d + u + l + r)
    return VertexModel(energies=tuple(energies), beta=beta)


def test_generator_ramp_plus_unit_noise():
    m = generate_model(c=10.0, beta=2.0, seed=4)
    for d in range(2):
        for u in range(2):
            for l in range(2):
                for r in range(2):
                    e = m.energy(d, u, l, r)
                    base = 10.0 * (d + u + l + r)
                    assert base <= e < base + 1.0


def test_generator_c_zero_is_pure_noise():
    m = generate_model(c=0.0, beta=2.0, seed=123)
    e = np.array(m.energies)
    assert np.all((0.0 <= e) & (e < 1.0))
    assert len(set(m.energies)) == 16


def test_generator_bit_identical_rerun():
    a = generate_model(0.4, 2.0, 7)
    b = generate_model(0.4, 2.0, 7)
    assert a.energies == b.energies
    assert generate_model(0.4, 2.0, 8).energies != a.energies


def test_generator_golden_pin():
    # frozen from the first run of the seeded generator; guards the RNG
    # mapping and the (l,d,r,u) flat order against silent change
    m = generate_model(0.4, 2.0, 11)
    assert m.energies[:4] == (
        0.3162443929209082,
        0.6623651517737182,
        1.0380423420183487,
        1.3046140312107868,
    )
    R = r_matrix(m)
    np.testing.assert_allclose(
        R.entries[0],
        [0.5312679421570026, 0.2658746548716883, 0.12542031227493822, 0.07359132975550114],
        rtol=0, atol=0,
    )


def test_generator_rejects_bad_beta():
    with pytest.raises(ValidationError):
        generate_model(0.4, 0.0, 1)
    with pytest.raises(ValidationError):
        generate_model(0.4, -2.0, 1)


def test_r_matrix_layout_and_positivity():
    m = generate_model(1.0, 2.0, 5)
    R = r_matrix(m)
    assert np.all(R.entries > 0)
    for d in range(2):
        for u in range(2):
            for l in range(2):
                for r in range(2):
                    expected = math.exp(-m.beta * m.energy(d, u, l, r))
                    assert R.entries[2 * l + d, 2 * r + u] == expected


def test_r_matrix_all_zero_energies_gives_ones():
    m = VertexModel(energies=(0.0,) * 16, beta=2.0)
    assert np.array_equal(r_matrix(m).entries, np.ones((4, 4)))


def test_ramp_model_is_rank_one():
    # eps = d+u+l+r at beta=2 factorizes, so exactly one singular value
    # survives; checked against LAPACK as the independent oracle
    R = r_matrix(ramp_model(beta=2.0))
    expected = np.empty((4, 4))
    for l in range(2):
        for d in range(2):
            for r in range(2):
                for u in range(2):
                    expected[2 * l + d, 2 * r + u] = math.exp(-2.0 * (d + u + l + r))
    np.testing.assert_allclose(R.entries, expected, rtol=1e-15)
    s = np.linalg.svd(R.entries, compute_uv=False)
    assert s[1] / s[0] < 1e-15


def test_monotonicity_single_energy_moves_single_entry():
    base = generate_model(0.5, 2.0, 9)
    R0 = r_matrix(base).entries
    for idx in range(16):
        energies = list(base.energies)
        energies[idx] += 0.25
        R1 = r_matrix(VertexModel(energies=tuple(energies), beta=base.beta)).entries
        diff = R1 - R0
        changed = np.argwhere(diff != 0)
        assert len(changed) == 1
        i, j = changed[0]
        assert diff[i, j] < 0  # raising an energy lowers its Boltzmann factor
        assert idx == 8 * (i // 2) + 4 * (i % 2) + 2 * (j // 2) + (j % 2)


def test_rmatrix_rejects_nonpositive():
    bad = np.ones((4, 4))
    bad[1, 2] = 0.0
    with pytest.raises(ValidationError):
        RMatrix(entries=bad)


def test_rmatrix_rejects_complex():
    with pytest.raises(ValidationError):
        RMatrix(entries=np.ones((4, 4), dtype=complex))


def test_json_round_trip_and_precedence():
    m = generate_model(0.4, 2.0, 17)
    again = model_from_json(model_to_json(m))
    assert again.energies == m.energies
    assert again.beta == m.beta

    # explicit energies win over (c, seed)
    payload = json.loads(model_to_json(m))
    payload["energies"] = [0.0] * 16
    forced = model_from_json(json.dumps(payload))
    assert forced.energies == (0.0,) * 16

    # without energies, (c, seed) regenerate the same model
    del payload["energies"]
    regen = model_from_json(json.dumps(payload))
    assert regen.energies == m.energies


# model files whose fields do not convert: a malformed beta, energy or seed
BAD_MODEL_FIELDS = [
    {"beta": "abc", "c": 0.4, "seed": 1},
    {"beta": None, "c": 0.4, "seed": 1},
    {"beta": 2.0, "energies": ["x"] + [1.0] * 15},
    {"beta": 2.0, "energies": 5},
    {"beta": 2.0, "c": 0.4, "seed": "abc"},
]


def test_json_validation_errors():
    with pytest.raises(ValidationError):
        model_from_json("not json")
    with pytest.raises(ValidationError):
        model_from_json(json.dumps({"c": 0.4, "seed": 1}))  # no beta
    with pytest.raises(ValidationError):
        model_from_json(json.dumps({"beta": 2.0, "c": 0.4}))  # no seed/energies
    with pytest.raises(ValidationError):
        model_from_json(json.dumps({"beta": 2.0, "energies": [1.0] * 7}))
    for payload in BAD_MODEL_FIELDS:
        with pytest.raises(ValidationError):
            model_from_json(json.dumps(payload))
