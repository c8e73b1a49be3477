import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

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
    run_cli("gen-model", "--c", "0.4", "--beta", "2", "--seed", "5", "--out", str(first))
    second = tmp_path / "second"
    # --model wins over --seed: the file passes through byte for byte
    assert run_cli(
        "gen-model", "--model", str(first / "model.json"), "--seed", "9", "--out", str(second)
    ) == 0
    assert (second / "model.json").read_bytes() == (first / "model.json").read_bytes()


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
    assert meta["iterations"] == 16  # dim 16 <= 30: the Krylov space is all of R^16
    assert 0 <= meta["residual_lambda1"] < 1e-10  # the default --tol
    assert (tmp_path / "spectrum.csv").exists()
    assert (tmp_path / "psi0.csv").exists()


def test_spectrum_dense_method(tmp_path):
    assert run_cli("spectrum", "--c", "0.4", "--beta", "2", "--seed", "4", "--n", "2",
                   "--method", "dense", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 8  # header plus every eigenvalue magnitude
    assert json.loads((tmp_path / "spectrum.json").read_text())["residual_lambda1"] == 0.0


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


def test_oversized_width_and_bad_floor_exit_2(tmp_path, capsys):
    for args in (["simulate", "--n", "60"], ["estimate", "--n", "60"],
                 ["simulate", "--n", "2", "--meaningful-floor", "-5"]):
        assert run_cli(*args, "--seed", "1", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error:")
    assert not any(tmp_path.iterdir())


def test_repeated_input_index_exits_2(tmp_path, capsys):
    path = tmp_path / "input.csv"
    path.write_text("index,value\n0,0.5\n0,3\n")
    assert run_cli("simulate", "--seed", "1", "--n", "2", "--mode", "exact",
                   "--input-file", str(path), "--out", str(tmp_path)) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "index 0 appears twice" in line
    assert sorted(tmp_path.iterdir()) == [path]


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
    path = tmp_path / "input.csv"

    def estimate(body, *extra):
        path.write_text("index,value\n" + body)
        return run_cli("estimate", "--c", "0.4", "--beta", "2", "--seed", "11", "--n", "2",
                       "--mode", "exact", "--input-file", str(path), *extra,
                       "--out", str(tmp_path))

    with pytest.raises(SystemExit) as exc:  # --inputs and --input-file exclude each other
        estimate("0,0.5\n", "--inputs", "5")
    assert exc.value.code == 2
    assert sorted(tmp_path.iterdir()) == [path]
    assert estimate("0,0.5\n3,0.5\n7,0.7\n") == 0
    assert estimate("0 0.5\n") == 2  # no comma
    assert estimate("99,0.5\n") == 2  # past the 8 amplitudes at n=2
    assert estimate("-1,0.5\n") == 2  # would wrap to the last amplitude


def test_degenerate_estimate_is_written_as_null(tmp_path):
    # psi0 fed back as the input makes f0 = 1, so the estimate is NaN
    assert run_cli("spectrum", "--c", "0.4", "--beta", "2", "--seed", "7", "--n", "2",
                   "--out", str(tmp_path)) == 0
    rc = run_cli("estimate", "--c", "0.4", "--beta", "2", "--seed", "7", "--n", "2",
                 "--mode", "exact", "--input-file", str(tmp_path / "psi0.csv"),
                 "--out", str(tmp_path))
    assert rc == 0
    text = (tmp_path / "estimate.json").read_text()
    assert '"estimate": null' in text and '"degenerate": true' in text
    (entry,) = json.loads(text)["estimates"]
    assert list(entry) == ["f0", "f1", "estimate", "oracle_lambda1", "shots_used",
                           "psi0_iterations", "degenerate"]


# small seeded runs of every command; each run passes --format once
_FORMAT_RUNS = {
    "gen-model": (),
    "spectrum": ("--n", "2"),
    "simulate": ("--n", "2", "--shots", "8000", "--meaningful-floor", "100"),
    "estimate": ("--n", "2", "--shots", "8000", "--meaningful-floor", "100"),
    "export-circuit": ("--n", "2"),
}
_FORMATS_WRITTEN = {"spectrum": ("csv", "json"), "simulate": ("csv", "json", "svg"),
                    "estimate": ("json", "svg")}


@pytest.mark.parametrize("command, fmt", [
    *((command, fmt) for command, fmts in _FORMATS_WRITTEN.items() for fmt in fmts),
    ("spectrum", "svg"), ("estimate", "csv"), ("gen-model", "json"), ("export-circuit", "csv"),
])
def test_format_selects_the_files_written(tmp_path, command, fmt):
    args = (command, *_FORMAT_RUNS[command], "--seed", "11", "--format", fmt,
            "--out", str(tmp_path / "out"))
    if fmt in _FORMATS_WRITTEN.get(command, ()):
        assert run_cli(*args) == 0
        assert {p.suffix for p in (tmp_path / "out").iterdir()} == {"." + fmt}
    else:
        with pytest.raises(SystemExit) as exc:
            run_cli(*args)
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())


def test_export_circuit_round_trips(tmp_path):
    rc = run_cli("export-circuit", "--c", "0.4", "--beta", "2", "--seed", "2", "--n", "3",
                 "--m", "2", "--out", str(tmp_path))
    assert rc == 0
    plan = parse_circuit_text((tmp_path / "circuit.txt").read_text())
    assert plan.count_unitaries() == 18
    assert plan.count_postselects() == 6


def test_export_circuit_factorizes_a_steep_gate(tmp_path):
    # a cold, strongly ramped gate whose factors once missed the 1e-12
    # reconstruction check (exit 4)
    assert run_cli("export-circuit", "--c", "1", "--beta", "8", "--seed", "22", "--n", "2",
                   "--out", str(tmp_path)) == 0


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


# sha256 of every file each command writes, pinned with explicit seeds so a
# change to how the outputs are laid out shows as a changed digest.
PINNED_OUTPUTS = {
    ("gen-model", "--seed", "7"): {
        "model.json": "25f01b990c50a75915d5ae973ff920800566fe0b2178fbc56f556c4baedc04a7",
    },
    ("spectrum", "--seed", "7", "--n", "4"): {
        "psi0.csv": "6f15c6e0a39f98f682b9b84b9978ab6f6b17867c54ea27a06d8e7d92fc7421a0",
        "spectrum.csv": "b3a074bdb4709324a593ce9d42824ae0fa4527fc61347a549b8d9d048f46e557",
        "spectrum.json": "85f4ab6d4ecc435f36f13421cefec644c1c6784aa3f88e86c201cba762c1dd05",
    },
    ("spectrum", "--seed", "4", "--n", "3", "--method", "dense"): {
        "psi0.csv": "5856394eea85fbef52de871d798f7438b55c55b3477629854a52494d1c4f35b6",
        "spectrum.csv": "ca5ce411c6efdd13f22fcbab5eb1335bc14763fae43ae81374eb0112fa4789ed",
        "spectrum.json": "d97fef4188530798d9adf32da12e6dd554358c994a8e7d528c9f906b7c3f7dbe",
    },
    ("simulate", "--seed", "6", "--n", "2", "--m", "2", "--shots", "4000",
     "--meaningful-floor", "100"): {
        "action.csv": "40019b4849534512dc8ade1420162afd60b503d3bfad20c63f108dfbc7219d5e",
        "histogram.csv": "110f20ca7f58b5c58cc378108897b91cc9d77b084af1629addb2e037ab14c29e",
        "simulate.json": "b3e8b656381222f26c15f5f00c4dff23bc35d82e23cece2aca5c83049ae46f0c",
        "simulate.svg": "d79c31ecd2a8c76cfbdf114e9b01a9f7b97dbc13afd0a7647fc7b0eddf8da227",
    },
    ("simulate", "--seed", "6", "--n", "2", "--m", "2", "--mode", "refeed", "--shots", "4000",
     "--meaningful-floor", "100"): {
        "action.csv": "8fcedc51ece60d666fd9a7bf1f07790a81a285f018571b6b47c10436dc7fbcf7",
        "histogram.csv": "1fe57293999ab17c6b2f8b92e6b8d39ecd956de24fb2d8046814b945d2d84857",
        "simulate.json": "e205d02b12c1f4d2f70a66e3055afc68ef988cff0c1aa6443540708c68184e86",
        "simulate.svg": "4ce7f0860b5215402ce4de1c5cf960589a80743cea5a6ac84b7c2cf57deec70d",
    },
    ("simulate", "--seed", "6", "--n", "3", "--mode", "exact"): {
        "action.csv": "debee95e440dd92809ea14544cdae35b28102b1373b835e6f9a0622480c746f7",
        "simulate.json": "1d8e4cb10bbdef6b54e8071c59d8364aa5be5cc898165d7e65de1e291e420539",
        "simulate.svg": "b91a45db96bf873ecc8345e18faf16ea98c9600b0c620ef2a584f888f6226505",
    },
    ("estimate", "--seed", "11", "--n", "2", "--shots", "8000", "--inputs", "2",
     "--meaningful-floor", "100"): {
        "estimate.json": "d2e9362e989ea163b60ae6d4aa6714ecf71f3b46eff745a5b56541406455e908",
        "estimate.svg": "49515898dd2a92d7a012bc407a08686cc194dc6d2d0a819d77bc6ca181cdbd96",
    },
    ("estimate", "--seed", "11", "--n", "3", "--mode", "exact"): {
        "estimate.json": "8ed4cb6543202e3b5c24c9f84cf3e2aa898d568702044c0cbdfeaceba6411de2",
        "estimate.svg": "dab374c73ce3322507e39f5c05898e58ba7b29d769c3b54b0306731e6e536f1b",
    },
    ("export-circuit", "--seed", "2", "--n", "3", "--m", "2"): {
        "circuit.txt": "bc9216371d4c4d01ee704390cabaa302436f3069589807dac3b3c5ee47827aa7",
    },
}


def test_cli_outputs_are_pinned(tmp_path):
    for k, (args, digests) in enumerate(PINNED_OUTPUTS.items()):
        out = tmp_path / str(k)
        assert run_cli(*args, "--c", "0.4", "--beta", "2", "--out", str(out)) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
        assert written == digests, args


# Every number in the files whose bytes follow the last bits of the gate's
# factorization or of the eigensolver, pinned to 1e-12 relative: a change of
# SVD routine or eigensolver may move the digests above, not these.  The
# spectra and the estimators' oracle numbers are the dense backend's.
PINNED_VALUES = json.loads((Path(__file__).parent / "cli_values.json").read_text())


def file_numbers(path: Path) -> list[float]:
    """The numbers of a written file, in file order (JSON: the fields that vary)."""
    text = path.read_text()
    if path.suffix == ".csv":
        return [float(x) for line in text.splitlines()[1:] for x in line.split(",")]
    if path.suffix == ".txt":  # circuit text: the rows under each `matrix` header
        return [float(x) for line in text.splitlines() if not line[0].isalpha()
                for x in line.split()]
    meta = json.loads(text)
    if "psi0_right" in meta:
        return [meta["lambda0"], meta["lambda1_abs"], meta["ratio"], *meta["psi0_right"]]
    if "estimates" in meta:
        return [e[key] for e in meta["estimates"] for key in ("f0", "f1", "estimate")] + [
            meta["oracle_lambda1"]]
    return [meta["keep_probability"]]


def test_cli_output_values_are_pinned(tmp_path):
    for k, entry in enumerate(PINNED_VALUES):
        out = tmp_path / str(k)
        assert run_cli(*entry["args"], "--c", "0.4", "--beta", "2", "--out", str(out)) == 0
        for name, want in entry["files"].items():
            np.testing.assert_allclose(file_numbers(out / name), want, rtol=1e-12, atol=0,
                                       err_msg=f"{entry['args']} {name}")
