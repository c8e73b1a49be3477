import json

import numpy as np

from vertexsim import NumericalError, parse_circuit_text
from vertexsim.cli import main

from test_model import BAD_MODEL_FIELDS


def run_cli(*args) -> int:
    return main(list(args))


def test_gen_model_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen-model", "--c", "0.4", "--beta", "2", "--seed", "7", "--out", str(a)) == 0
    assert run_cli("gen-model", "--c", "0.4", "--beta", "2", "--seed", "7", "--out", str(b)) == 0
    ja = json.loads((a / "model.json").read_text())
    jb = json.loads((b / "model.json").read_text())
    assert ja == jb
    assert len(ja["energies"]) == 16
    assert ja["beta"] == 2.0


def test_gen_model_passthrough(tmp_path):
    first = tmp_path / "first"
    run_cli("gen-model", "--c", "0.4", "--beta", "2", "--seed", "9", "--out", str(first))
    second = tmp_path / "second"
    assert run_cli(
        "gen-model", "--energies-file", str(first / "model.json"), "--out", str(second)
    ) == 0
    assert json.loads((second / "model.json").read_text())["energies"] == \
        json.loads((first / "model.json").read_text())["energies"]


def test_gen_model_pure_random(tmp_path):
    run_cli("gen-model", "--c", "0", "--beta", "2", "--seed", "3", "--out", str(tmp_path))
    e = json.loads((tmp_path / "model.json").read_text())["energies"]
    assert all(0 <= x < 1 for x in e)


def test_spectrum_outputs_and_entropy_seed_recorded(tmp_path):
    assert run_cli("spectrum", "--c", "0.4", "--beta", "2", "--n", "3",
                   "--out", str(tmp_path)) == 0
    meta = json.loads((tmp_path / "spectrum.json").read_text())
    assert isinstance(meta["seed"], int)  # drawn from entropy, recorded
    assert 0 < meta["ratio"] < 1
    assert meta["iterations"] == (meta["iterations_right"] + meta["iterations_left"]
                                  + meta["iterations_deflation"])
    assert meta["widenings"] >= 0
    assert 0 <= meta["residual_deflation"] < 1e-10  # the default --tol
    assert (tmp_path / "spectrum.csv").exists()
    assert (tmp_path / "psi0.csv").exists()


def test_spectrum_dense_method(tmp_path):
    assert run_cli("spectrum", "--c", "0.4", "--beta", "2", "--seed", "4", "--n", "2",
                   "--method", "dense", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 8  # header plus every eigenvalue magnitude
    assert json.loads((tmp_path / "spectrum.json").read_text())["residual_deflation"] == 0.0


def test_spectrum_cap_is_a_validation_error(tmp_path):
    assert run_cli("spectrum", "--c", "0.4", "--beta", "2", "--seed", "4", "--n", "40",
                   "--out", str(tmp_path)) == 2


def test_spectrum_bad_tolerance_is_a_validation_error(tmp_path):
    for tol in ("0", "-1e-10", "nan", "inf"):
        assert run_cli("spectrum", "--c", "0.4", "--beta", "2", "--seed", "4", "--n", "3",
                       f"--tol={tol}", "--out", str(tmp_path)) == 2
    assert not (tmp_path / "spectrum.json").exists()


def test_simulate_writes_everything(tmp_path):
    rc = run_cli("simulate", "--c", "0.4", "--beta", "2", "--seed", "6", "--n", "2",
                 "--m", "1", "--shots", "4000", "--meaningful-floor", "100",
                 "--out", str(tmp_path))
    assert rc == 0
    assert (tmp_path / "action.csv").exists()
    assert (tmp_path / "histogram.csv").exists()
    svg = (tmp_path / "simulate.svg").read_text()
    assert svg.startswith("<svg") and "</svg>" in svg
    meta = json.loads((tmp_path / "simulate.json").read_text())
    assert meta["seed"] == 6
    assert meta["shots_used"] == 4000
    survivors = meta["histogram"]["survivors"]
    assert len(survivors) == 3  # two post-selections, then the data measurement
    assert survivors == sorted(survivors, reverse=True)
    assert survivors[-1] == meta["histogram"]["meaningful_shots"]
    # simulated column tracks the expected column loosely at 4k shots
    rows = (tmp_path / "action.csv").read_text().strip().splitlines()[1:]
    sim, exp = zip(*[(float(r.split(",")[1]), float(r.split(",")[2])) for r in rows])
    assert max(abs(s - e) for s, e in zip(sim, exp)) < 0.1


def test_simulate_exact_mode_has_no_histogram(tmp_path):
    rc = run_cli("simulate", "--c", "0.4", "--beta", "2", "--seed", "6", "--n", "2",
                 "--mode", "exact", "--out", str(tmp_path))
    assert rc == 0
    assert not (tmp_path / "histogram.csv").exists()
    meta = json.loads((tmp_path / "simulate.json").read_text())
    assert meta["keep_probability"] > 0


def test_simulate_insufficient_statistics_exit_code(tmp_path):
    rc = run_cli("simulate", "--c", "0.4", "--beta", "2", "--seed", "6", "--n", "3",
                 "--shots", "40", "--meaningful-floor", "100000", "--out", str(tmp_path))
    assert rc == 3


def test_estimate_json_and_svg(tmp_path):
    rc = run_cli("estimate", "--c", "0.4", "--beta", "2", "--seed", "11", "--n", "2",
                 "--shots", "8000", "--inputs", "2", "--meaningful-floor", "100",
                 "--out", str(tmp_path))
    assert rc == 0
    payload = json.loads((tmp_path / "estimate.json").read_text())
    assert payload["n"] == 2
    assert len(payload["estimates"]) == 2
    assert payload["oracle_lambda1"] is not None
    assert (tmp_path / "estimate.svg").exists()


def test_estimate_exact_backend(tmp_path):
    rc = run_cli("estimate", "--c", "0.4", "--beta", "2", "--seed", "11", "--n", "2",
                 "--mode", "exact", "--out", str(tmp_path))
    assert rc == 0
    payload = json.loads((tmp_path / "estimate.json").read_text())
    assert payload["backend"] == "exact"


def test_estimate_input_validation(tmp_path):
    rc = run_cli("estimate", "--c", "0.4", "--beta", "2", "--seed", "11", "--n", "2",
                 "--inputs", "0", "--out", str(tmp_path))
    assert rc == 2

    def estimate(body):
        path = tmp_path / "input.csv"
        path.write_text("index,value\n" + body)
        return run_cli("estimate", "--c", "0.4", "--beta", "2", "--seed", "11", "--n", "2",
                       "--mode", "exact", "--input-file", str(path), "--out", str(tmp_path))

    assert estimate("0,0.5\n3,0.5\n7,0.7\n") == 0
    assert estimate("0 0.5\n") == 2  # no comma
    assert estimate("99,0.5\n") == 2  # past the 8 amplitudes at n=2
    assert estimate("-1,0.5\n") == 2  # would wrap to the last amplitude


def test_export_circuit_round_trips(tmp_path):
    rc = run_cli("export-circuit", "--c", "0.4", "--beta", "2", "--seed", "2", "--n", "3",
                 "--m", "2", "--out", str(tmp_path))
    assert rc == 0
    plan = parse_circuit_text((tmp_path / "circuit.txt").read_text())
    assert plan.count_unitaries() == 18
    assert plan.count_postselects() == 6


def test_model_file_flows_through_commands(tmp_path):
    run_cli("gen-model", "--c", "0.4", "--beta", "2", "--seed", "5", "--out", str(tmp_path))
    model_file = tmp_path / "model.json"
    rc = run_cli("spectrum", "--model", str(model_file), "--n", "2", "--seed", "5",
                 "--out", str(tmp_path / "spec"))
    assert rc == 0


def test_numerical_failures_map_to_exit_4(monkeypatch, tmp_path):
    import vertexsim.cli as cli_mod

    def boom(*args, **kwargs):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli_mod, "spectral_summary", boom)
    rc = run_cli("spectrum", "--c", "0.4", "--beta", "2", "--seed", "4", "--n", "2",
                 "--out", str(tmp_path))
    assert rc == 4


def test_bad_model_file_is_validation_error(tmp_path):
    bad = tmp_path / "model.json"
    for text in ["{}"] + [json.dumps(payload) for payload in BAD_MODEL_FIELDS]:
        bad.write_text(text)
        rc = run_cli("spectrum", "--model", str(bad), "--n", "2", "--seed", "1",
                     "--out", str(tmp_path))
        assert rc == 2, text
