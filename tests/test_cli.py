import hashlib
import io
import json
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("option, value, code", [("--c", "-1e-3", 0), ("--c", "-2E+1", 0),
                                                 ("--beta", "-1e-3", 2), ("--c", "-inf", 2)])
def test_negative_exponent_values_read_the_same_in_both_spellings(tmp_path, capsys, option,
                                                                  value, code):
    # argparse's own negative-number pattern has no exponent and no infinity:
    # "--c -1e-3" and "--c -inf" used to exit 2 with "expected one argument".
    # A value the command rejects must meet the same check in both spellings,
    # so the error lines match.
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    ends = []
    for argv, out in (([option, value], spaced), ([f"{option}={value}"], joined)):
        rc = run_cli("gen-model", *argv, "--seed", "1", "--out", str(out))
        ends.append((rc, [line for line in capsys.readouterr().err.splitlines() if "error:" in line]))
    assert ends[0] == ends[1] == (code, ends[1][1])
    assert (ends[1][1] == []) == (code == 0)
    assert sorted(p.name for p in spaced.glob("*")) == sorted(p.name for p in joined.glob("*"))
    for path in joined.glob("*"):
        assert (spaced / path.name).read_bytes() == path.read_bytes()


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
    assert meta["iterations"] == 16  # dim 16 <= KRYLOV_DIM: the Krylov space is all of R^16
    assert 0 <= meta["residual_lambda1"] < 1e-10  # the default --tol
    assert (tmp_path / "spectrum.csv").exists()
    assert (tmp_path / "psi0.csv").exists()


def test_spectrum_dense_method(tmp_path):
    assert run_cli("spectrum", "--c", "0.4", "--beta", "2", "--seed", "4", "--n", "2",
                   "--method", "dense", "--out", str(tmp_path)) == 0
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 8  # header plus every eigenvalue magnitude
    assert json.loads((tmp_path / "spectrum.json").read_text())["residual_lambda1"] == 0.0


def test_dense_spectrum_runs_one_eigensolver(tmp_path):
    # spectrum.csv lists the summary's magnitudes: LAPACK solves T once, not
    # once for the summary and again for the listing
    with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig, \
            mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as eigvals:
        assert run_cli("spectrum", "--c", "0.4", "--beta", "2", "--seed", "4", "--n", "5",
                       "--method", "dense", "--out", str(tmp_path)) == 0
    assert (eig.call_count, eigvals.call_count) == (1, 0)
    meta = json.loads((tmp_path / "spectrum.json").read_text())
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 ** 6
    assert rows[1:3] == [f"0,{meta['lambda0']!r}", f"1,{meta['lambda1_abs']!r}"]


def test_spectrum_cap_is_a_validation_error(tmp_path, capsys):
    # the matrix-free oracle stops at n = 18, the dense matrix at n = 12
    for args, cap in ((("--n", "40"), "19"), (("--n", "19"), "19"),
                      (("--n", "13", "--method", "dense"), "13")):
        assert run_cli("spectrum", "--c", "0.4", "--beta", "2", "--seed", "4", *args,
                       "--out", str(tmp_path / "out")) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and f"<= {cap} qubits" in line
    assert not (tmp_path / "out").exists()


def test_spectrum_runs_above_the_dense_cap(tmp_path):
    assert run_cli("spectrum", "--c", "0.4", "--beta", "2", "--seed", "7", "--n", "13",
                   "--out", str(tmp_path)) == 0
    meta = json.loads((tmp_path / "spectrum.json").read_text())
    assert len(meta["psi0_right"]) == 2 ** 14 and 0.05 < meta["ratio"] < 0.06


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


@pytest.mark.parametrize("args", [("export-circuit", "--n=100000000"),
                                  ("simulate", "--n=2", "--m=100000000"),
                                  ("simulate", "--n=2", "--m=100000000", "--mode=refeed"),
                                  ("simulate", "--n=2", "--m=100000000", "--mode=exact")])
def test_plan_over_the_post_selection_budget_exits_2_at_once(tmp_path, capsys, args):
    # without the budget these build about 4*n*m instructions (tens of GB)
    # before any error, and simulate's refeed loop runs first
    start = time.perf_counter()
    assert run_cli(*args, "--seed", "1", "--out", str(tmp_path / "out")) == 2
    assert time.perf_counter() - start < 1.0
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "post-selections" in line
    assert not (tmp_path / "out").exists()


def test_repeated_input_index_exits_2(tmp_path, capsys):
    path = tmp_path / "input.csv"
    path.write_text("index,value\n0,0.5\n0,3\n")
    assert run_cli("simulate", "--seed", "1", "--n", "2", "--mode", "exact",
                   "--input-file", str(path), "--out", str(tmp_path)) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "index 0 appears twice" in line
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("args, option", [
    (("spectrum", "--n", "4"), "--model"),
    (("simulate", "--n", "1"), "--input-file"),
])
def test_non_utf8_file_exits_2(tmp_path, capsys, args, option):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xff\xfe{\x80\x81}")
    out = tmp_path / "out"
    assert run_cli(*args, "--seed", "1", option, str(path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error:") and str(path) in line
    assert not out.exists()


def test_non_finite_input_amplitude_exits_2_without_warning(tmp_path, capsys):
    path = tmp_path / "input.csv"
    out = tmp_path / "out"
    for text in ("0,1e400\n", "0,1\n1,-inf\n", "1,nan\n"):
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("simulate", "--seed", "1", "--n", "1", "--mode", "exact",
                           "--input-file", str(path), "--out", str(out)) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and "not finite" in line
    assert not out.exists()


@pytest.mark.parametrize("body", ["0,1e200\n1,1e200\n", "0,1e-300\n1,1e-300\n"])
def test_input_file_normalizes_at_both_extremes_without_warning(tmp_path, body):
    # the plain norm overflows to inf or underflows to 0; both inputs are (1, 1)
    path = tmp_path / "input.csv"
    path.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("simulate", "--seed", "1", "--n", "1", "--mode", "exact",
                       "--input-file", str(path), "--out", str(tmp_path / "a")) == 0
    path.write_text("0,1\n1,1\n")
    assert run_cli("simulate", "--seed", "1", "--n", "1", "--mode", "exact",
                   "--input-file", str(path), "--out", str(tmp_path / "b")) == 0
    assert (tmp_path / "a" / "action.csv").read_text() == (tmp_path / "b" / "action.csv").read_text()


@pytest.mark.parametrize("args", [("gen-model", "--c=1e308"), ("gen-model", "--c=-1e308"),
                                  ("spectrum", "--n=2", "--beta=1e308"),
                                  ("export-circuit", "--n=2", "--beta=1e308")])
def test_huge_model_parameters_exit_2_without_warning(tmp_path, capsys, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*args, "--seed", "1", "--out", str(tmp_path / "out")) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:")
    assert not (tmp_path / "out").exists()


# at beta 300 Lambda_0 lies below the double range from N = 12 on (N = 9 for
# the dense method, whose T underflows); at c = -57.5 the gate's entries are
# near 1e100, and Lambda_0 lies above it at N = 4
@pytest.mark.parametrize("args", [("--n=12", "--beta=300"), ("--n=9", "--beta=300", "--method=dense"),
                                  ("--n=4", "--c=-57.5", "--beta=1"),
                                  ("--n=4", "--c=-57.5", "--beta=1", "--method=dense")])
def test_lambda0_outside_the_double_range_exits_4(tmp_path, capsys, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("spectrum", *args, "--seed", "1", "--out", str(tmp_path / "out")) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "double range" in line
    assert not (tmp_path / "out").exists()


# every option at boundary values (zero, negative, huge, tiny, not-a-number,
# non-numbers) or at values it accepts; n and shots stay small so a run is quick,
# except for an n and an m far over every cap, which must be refused at once
_EDGES = ["0", "-1", "1e308", "-1e308", "1e-300", "-1e-3", "-2E+1", "nan", "inf", "-inf", "x",
          ""]
_FUZZ_OPTIONS = {
    "--c": ["0.4", "2"],
    "--beta": ["2", "0.5"],
    "--seed": ["1", "18446744073709551617"],
    "--n": ["1", "2", "3", "100000000"],
    "--m": ["1", "2", "100000000"],
    "--shots": ["1", "2000"],
    "--meaningful-floor": ["1", "2000"],
    "--inputs": ["1", "2"],
    "--tol": ["1e-10", "0.5"],
    "--method": ["power", "dense"],
    "--mode": ["deep", "refeed", "exact"],
    "--format": ["csv", "json", "svg"],
}
_FUZZ_COMMANDS = {
    "gen-model": ["--c", "--beta", "--seed", "--model"],
    "spectrum": ["--c", "--beta", "--seed", "--model", "--format", "--n", "--method", "--tol"],
    "simulate": ["--c", "--beta", "--seed", "--model", "--format", "--n", "--m", "--shots",
                 "--mode", "--input-file", "--meaningful-floor"],
    "estimate": ["--c", "--beta", "--seed", "--model", "--format", "--n", "--shots", "--mode",
                 "--inputs", "--input-file", "--meaningful-floor"],
    "export-circuit": ["--c", "--beta", "--seed", "--model", "--n", "--m"],
}
# file bodies; None makes the path a directory
_FUZZ_FILES = {
    "--model": ['{"beta": 2, "c": 0.4, "seed": 1}', '{"beta": 1e308, "c": 0.4, "seed": 1}',
                '{"beta": 2, "energies": [-1e308, 1e308, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}',
                '{"beta": 2, "c": 1e308, "seed": 1}', '{"beta": 2', "[]", "", b"\xff\xfe", None],
    "--input-file": ["0,1\n", "0,1e200\n3,-1e308\n", "0,1e-300\n1,5e-324\n", "1,nan\n",
                     "0,0\n", "99,1\n", "0;1\n", "", b"\xff\xfe", None],
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_option_values_end_in_a_documented_exit(data):
    command = data.draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for option in data.draw(st.lists(st.sampled_from(_FUZZ_COMMANDS[command]), unique=True)):
            if option in _FUZZ_FILES:
                body = data.draw(st.sampled_from(_FUZZ_FILES[option]))
                path = Path(tmp) / option.strip("-")
                if body is None:
                    path.mkdir()
                else:
                    path.write_bytes(body if isinstance(body, bytes) else body.encode())
                argv.append(f"{option}={path}")
            else:
                value = data.draw(st.sampled_from(_EDGES) | st.sampled_from(_FUZZ_OPTIONS[option]))
                # "--c -1e-3" must read as "--c=-1e-3"
                argv += [option, value] if data.draw(st.booleans()) else [f"{option}={value}"]
        for option, small in (("--seed", "1"), ("--n", "2"), ("--shots", "2000")):
            if option in _FUZZ_COMMANDS[command] and not any(
                    a == option or a.startswith(option + "=") for a in argv):
                argv.append(f"{option}={small}")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
                redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            try:
                code = main(argv + [f"--out={out}"])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        assert code in (0, 2, 3, 4), argv
        # every drawn option carries a value, so argparse must never miss one
        assert "expected one argument" not in err.getvalue(), argv
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "Traceback" not in err.getvalue()
        assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1
        if code != 0:
            assert not out.exists() or not any(out.iterdir()), argv


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
    # 30 shots at n=6: the action's support misses psi0's, so f1 = 0
    assert run_cli("estimate", "--n", "6", "--shots", "30", "--meaningful-floor", "1",
                   "--seed", "5", "--out", str(tmp_path)) == 0
    (entry,) = json.loads((tmp_path / "estimate.json").read_text())["estimates"]
    assert (entry["f1"], entry["estimate"], entry["degenerate"]) == (0.0, None, True)


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
        "psi0.csv": "49c72dc5eeb4917c9d3e6bbe74f1dffcd2ba80802dd81d4d80fd5e362cfc36fc",
        "spectrum.csv": "5c3ac240d1e5764a26b191904c45d4507776a238a62d234b7f2a1f93283162ad",
        "spectrum.json": "d1f31cfd6d2637cc61c1195b54438dd07a5cecf2ac049b8efdb3d6ee9720c3d2",
    },
    ("spectrum", "--seed", "4", "--n", "3", "--method", "dense"): {
        "psi0.csv": "cdcd4571d587779deea5e195967b87577e628dd03d093de88b2e2d9bd05f87c3",
        "spectrum.csv": "b37c3465aad817ebc80406b25017c1999e843808f8efbd3c821fd56974c29a54",
        "spectrum.json": "29d3bafd8acf56933d40ba841e6bea1acd447df51e496f3b25e41154c61f325e",
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
        "estimate.json": "8e7b1501a034e2a3c3a36398b21d7144d51d19b0b6be1ba75b186107ccb580df",
        "estimate.svg": "49515898dd2a92d7a012bc407a08686cc194dc6d2d0a819d77bc6ca181cdbd96",
    },
    ("estimate", "--seed", "11", "--n", "3", "--mode", "exact"): {
        "estimate.json": "1ca0a1ed979896a57d0957b7ea842567c8691ea565988f1aa647d7b90fb05333",
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
