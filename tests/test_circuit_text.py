import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexsim import (
    ApplyUnitary,
    CircuitPlan,
    MeasureAll,
    ValidationError,
    build_d_test_plan,
    build_t_plan,
    export_circuit_text,
    generate_model,
    init_state,
    parse_circuit_text,
    r_matrix,
    run_shots,
    svd_scaled,
)

from conftest import mid_circuit_plan, mixed_plans, positive_state


def test_empty_plan_exports_header_only():
    plan = CircuitPlan(n_qubits=2, n_classical_bits=0, instructions=[])
    text = export_circuit_text(plan)
    assert text == "circuit qubits=2 cbits=0 databits=0\n"
    assert parse_circuit_text(text) == plan


def test_d_test_plan_line_shape():
    # two unitaries, one measure line per qubit; the ancilla's line, a
    # measurement into a select bit, is spelled measure_postselect0
    plan = mid_circuit_plan()
    lines = export_circuit_text(plan).splitlines()
    assert sum(ln.startswith("unitary") for ln in lines) == 2
    assert sum(ln.startswith("measure") for ln in lines) == 3
    assert "measure_postselect0 2 -> c2" in lines
    assert parse_circuit_text(export_circuit_text(plan)) == plan


def test_transfer_plan_round_trip_is_exact():
    factors = svd_scaled(r_matrix(generate_model(0.4, 2.0, 3)))
    plan = build_t_plan(factors, 3, 2)
    text = export_circuit_text(plan)
    again = parse_circuit_text(text)
    assert again == plan
    # double round trip is a fixed point
    assert export_circuit_text(again) == text


@settings(max_examples=40)
@given(case=mixed_plans())
def test_generated_plan_round_trip_is_exact(case):
    # complex Haar unitaries, mid-circuit measurements mixing data and select
    # bits, and post-selections all survive export and parse bit for bit
    plan, _ = case
    text = export_circuit_text(plan)
    assert parse_circuit_text(text) == plan
    assert export_circuit_text(parse_circuit_text(text)) == text


def test_round_trip_preserves_shot_streams():
    d = np.array([1.0, 0.8, 0.4, 0.3])
    plan = build_d_test_plan(d)
    full = np.zeros(8)
    full[:4] = positive_state(4, 13)
    st = init_state(3, full)
    h1 = run_shots(plan, st, 3000, seed=21)
    h2 = run_shots(parse_circuit_text(export_circuit_text(plan)), st, 3000, seed=21)
    assert h1.counts == h2.counts


def test_matrices_are_deduplicated():
    factors = svd_scaled(r_matrix(generate_model(0.4, 2.0, 3)))
    text = export_circuit_text(build_t_plan(factors, 4, 3))
    # 36 unitary instructions, but only V, D, U matrix blocks
    headers = [ln for ln in text.splitlines() if ln.startswith("matrix ")]
    assert len(headers) == 3


def test_parser_rejects_malformed_input():
    with pytest.raises(ValidationError):
        parse_circuit_text("")
    with pytest.raises(ValidationError):
        parse_circuit_text("nonsense first line\n")
    with pytest.raises(ValidationError):
        parse_circuit_text("circuit qubits=2 cbits=1 databits=1\nunitary m9 0 1\n")
    with pytest.raises(ValidationError):
        parse_circuit_text(
            "circuit qubits=2 cbits=1 databits=1\nmatrix m0 4\n1 0 0 0\n"
        )
    with pytest.raises(ValidationError):
        parse_circuit_text("circuit qubits=2 cbits=1 databits=1\nmeasure 0 -> q3\n")
    with pytest.raises(ValidationError):
        parse_circuit_text("circuit qubits=2 cbits=2 databits=2\nmeasure 0 0 -> c0 c1\n")
    with pytest.raises(ValidationError):
        parse_circuit_text("circuit qubits=2 cbits=1 databits=1\nmeasure 5 -> c0\n")
    header = "circuit qubits=2 cbits=1 databits=1\n"
    for text in (
        "circuit qubits=2 cbits=1 databits=1 junk\n",
        header + "measure_postselect0 a -> c0\n",
        header + "unitary m0 x\nmatrix m0 2\n1 0\n0 1\n",
        header + "measure a -> c0\n",
        header + "measure 0 -> cx\n",
        header + "matrix m0 2\n1 zz\n0 1\n",
        header + "unitary\n",
        header + "unitary m0 0\nmatrix m0 2\nnan 0\n0 1\n",
        header + "unitary m0 0\nmatrix m0 2\ninf 0\n0 1\n",
        header + "unitary m0 0\nmatrix m0 2\n1 0\n0 -inf\n",
        header + "unitary m0\nmatrix m0 1\n1\n",
        header + "measure -> \n",
        # a post-selection must write a select bit, and c0 is a data bit
        header + "measure_postselect0 0 -> c0\n",
        # a matrix dimension below 1 used to stall the matrix-table scan
        header + "matrix m0 -1\n1 0\n0 1\n",
        header + "matrix m0 -3\n",
        header + "matrix m0 0\n",
    ):
        with pytest.raises(ValidationError):
            parse_circuit_text(text)


def test_plan_rejects_non_finite_matrix_and_empty_targets():
    for ins in (
        ApplyUnitary(matrix=np.array([[np.nan, 0.0], [0.0, 1.0]]), targets=(0,)),
        ApplyUnitary(matrix=np.eye(1), targets=()),
        MeasureAll(qubits=(), cbits=()),
    ):
        with pytest.raises(ValidationError):
            CircuitPlan(n_qubits=2, n_classical_bits=1, instructions=[ins])


FUZZ_TEXT = export_circuit_text(build_t_plan(svd_scaled(r_matrix(generate_model(0.4, 2.0, 3))), 2))
FUZZ_TOKENS = ["nan", "-1", "0", "99", "2.5", "1e999", "c", "c-1", "->", "=", "matrix", "unitary", ""]


@settings(max_examples=200)
@given(data=st.data())
def test_parser_token_edits_parse_or_raise_validation_error(data):
    lines = [ln.split(" ") for ln in FUZZ_TEXT.splitlines()]
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.integers(0, len(lines) - 1))
        j = data.draw(st.integers(0, len(lines[i])))
        op = data.draw(st.sampled_from(["delete", "insert", "replace"]))
        tok = data.draw(st.sampled_from(FUZZ_TOKENS))
        if op == "insert" or j == len(lines[i]):
            lines[i].insert(j, tok)
        elif op == "delete":
            del lines[i][j]
        else:
            lines[i][j] = tok
    try:
        parse_circuit_text("\n".join(" ".join(ln) for ln in lines) + "\n")
    except ValidationError:
        pass
