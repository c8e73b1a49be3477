import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    {"beta": 2.0, "c": 0.4, "seed": 1.5},
    {"beta": 2.0, "c": 0.4, "seed": 1.9},
    {"beta": 2.0, "c": 0.4, "seed": True},
    {"beta": True, "c": 0.4, "seed": 3},
    {"beta": 2.0, "c": True, "seed": 3},
    {"beta": 2.0, "energies": [True] + [1.0] * 15},
    {"beta": 2.0, "energies": [1.0] * 15 + [False]},
    {"beta": "2", "c": 0.4, "seed": 3},
    {"beta": 2.0, "energies": "0123456789012345"},
    {"beta": 10 ** 400, "c": 0.4, "seed": 3},  # a JSON integer beyond the double range
    {"beta": 2.0, "energies": [1.0] * 15 + [-10 ** 400]},
    {"beta": 2.0, "c": "0.4", "seed": 3},
    {"beta": 2.0, "energies": [1.0] * 16, "c": None},
    {"beta": 2.0, "energies": [1.0] * 16, "seed": 2.0},
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


def _build(payload):
    """The model a payload describes, built without a file."""
    if "energies" in payload:
        return VertexModel(energies=payload["energies"], beta=payload["beta"],
                           c=payload.get("c", 0.0), seed=payload.get("seed"))
    return generate_model(payload.get("c", 0.0), payload["beta"], payload.get("seed"))


@pytest.mark.parametrize("payload", BAD_MODEL_FIELDS)
def test_bad_model_fields_fail_without_a_file(payload):
    # the file and the constructors share one rule, so neither accepts more
    with pytest.raises(ValidationError):
        _build(payload)


_REAL = (st.floats(allow_nan=False, allow_infinity=False, width=64)
         | st.integers(-10 ** 6, 10 ** 6)
         | st.floats(-1e6, 1e6).map(np.float64) | st.floats(-1e6, 1e6, width=32).map(np.float32)
         | st.integers(-10 ** 6, 10 ** 6).map(np.int64))
_SEED = st.none() | st.integers(-2 ** 70, 2 ** 70) | st.integers(0, 2 ** 62).map(np.int64)


@settings(max_examples=60)
@given(energies=st.lists(_REAL, min_size=16, max_size=16), as_array=st.booleans(),
       beta=_REAL.filter(lambda b: b > 0), c=_REAL, seed=_SEED)
def test_every_accepted_model_reads_back_equal(energies, as_array, beta, c, seed):
    table = np.array(energies, dtype=np.float64) if as_array else energies
    model = VertexModel(energies=table, beta=beta, c=c, seed=seed)
    assert model_from_json(model_to_json(model)) == model
    assert all(type(e) is float for e in model.energies)
    assert type(model.beta) is float and type(model.c) is float
    assert seed is None and model.seed is None or type(model.seed) is int


_NOT_NUMBER = st.booleans() | st.text(max_size=3) | st.none() | st.just([1.0])
_NOT_REAL = _NOT_NUMBER | st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400])


@settings(max_examples=80)
@given(data=st.data(), field=st.sampled_from(["beta", "c", "seed", "energy"]),
       with_energies=st.booleans())
def test_a_bad_model_number_fails_directly_and_through_the_file(data, field, with_energies):
    payload = {"beta": 2.0, "c": 0.4, "seed": 3}
    if with_energies or field == "energy":
        payload["energies"] = [0.5] * 16
    if field == "energy":
        payload["energies"][data.draw(st.integers(0, 15))] = data.draw(_NOT_REAL)
    elif field == "seed":  # None is no bad seed: beside energies it is allowed
        payload["seed"] = data.draw(_NOT_NUMBER.filter(lambda v: v is not None)
                                    | st.floats() | st.just(np.float64(3.0)))
    elif field == "c":
        payload["c"] = data.draw(_NOT_REAL | st.just(np.float64(math.nan)))
    else:
        payload["beta"] = data.draw(_NOT_REAL | st.floats(max_value=0.0))
    with pytest.raises(ValidationError):
        _build(payload)
    if not any(isinstance(v, np.generic) for v in payload.values()):
        with pytest.raises(ValidationError):
            model_from_json(json.dumps(payload))
