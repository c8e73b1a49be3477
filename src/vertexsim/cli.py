"""Command-line front end, and the one place that lays out output files.

Subcommands: gen-model, spectrum, simulate, estimate, export-circuit.
The library returns records; this module turns them into JSON, CSV and SVG.
Every command reads its model from --model or generates one from --c, --beta
and --seed; gen-model writes that model as canonical JSON.  --format exists
only where a command writes more than one format: spectrum (csv, json),
simulate (csv, json, svg) and estimate (json, svg).  Every command is
deterministic given an explicit --seed; without one a seed is drawn from OS
entropy once and recorded in the output metadata.  Exit codes: 0 success,
2 validation error, 3 insufficient statistics, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import secrets
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .circuit_text import export_circuit_text
from .dilation import svd_scaled
from .errors import (
    ConvergenceError,
    InsufficientStatisticsError,
    NumericalError,
    ValidationError,
)
from .experiments import (
    DEFAULT_MEANINGFUL_FLOOR,
    build_t_plan,
    check_circuit_width,
    estimate_lambda1,
    simulated_t_action,
)
from .model import VertexModel, generate_model, model_from_json, model_to_json, r_matrix
from .rng import uniforms
from .svgplot import Chart, render
from .transfer import assemble_transfer, spectral_summary

# spectrum.json keys in the order written
_SPECTRUM_KEYS = (
    "lambda0", "lambda1_abs", "ratio", "residual", "residual_lambda1", "iterations", "method",
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InsufficientStatisticsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vertexsim", description=__doc__)
    p.add_argument("--version", action="version", version=f"vertexsim {__version__}")
    sub = p.add_subparsers(required=True)

    def add_model_source(sp, formats=()):
        sp.add_argument("--model", type=Path, help="model JSON file")
        sp.add_argument("--c", type=float, default=0.4, help="deterministic ramp strength")
        sp.add_argument("--beta", type=float, default=2.0, help="inverse temperature")
        sp.add_argument("--seed", type=int, help="RNG seed (drawn from entropy if omitted)")
        sp.add_argument("--out", type=Path, default=Path("."), help="output directory")
        if formats:
            sp.add_argument("--format", choices=formats, action="append",
                            help="restrict outputs to these formats (repeatable)")

    g = sub.add_parser("gen-model", help="write the model (generated, or --model) as JSON")
    add_model_source(g)
    g.set_defaults(func=cmd_gen_model)

    s = sub.add_parser("spectrum", help="spectral summary of the transfer operator")
    add_model_source(s, ("csv", "json"))
    s.add_argument("--n", type=int, required=True, help="number of lattice columns")
    s.add_argument("--method", choices=["power", "dense"], default="power")
    s.add_argument("--tol", type=float, default=1e-10)
    s.set_defaults(func=cmd_spectrum)

    m = sub.add_parser("simulate", help="simulate transfer blocks acting on a state")
    add_model_source(m, ("csv", "json", "svg"))
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--m", type=int, default=1, help="number of transfer blocks")
    m.add_argument("--shots", type=int, default=40_000)
    m.add_argument("--mode", choices=["deep", "refeed", "exact"], default="deep")
    m.add_argument("--input-file", type=Path, help="CSV of input amplitudes (index,value)")
    m.add_argument("--meaningful-floor", type=int, default=DEFAULT_MEANINGFUL_FLOOR)
    m.set_defaults(func=cmd_simulate)

    e = sub.add_parser("estimate", help="estimate the eigenvalue ratio lambda_1")
    add_model_source(e, ("json", "svg"))
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--shots", type=int, default=100_000)
    e.add_argument("--mode", choices=["deep", "exact"], default="deep",
                   help="'deep' uses the shot backend, 'exact' the projection backend")
    source = e.add_mutually_exclusive_group()
    source.add_argument("--inputs", type=int, default=1, help="number of random input states")
    source.add_argument("--input-file", type=Path, help="CSV of one input state (index,value)")
    e.add_argument("--meaningful-floor", type=int, default=DEFAULT_MEANINGFUL_FLOOR)
    e.set_defaults(func=cmd_estimate)

    x = sub.add_parser("export-circuit", help="write the circuit in text form")
    add_model_source(x)
    x.add_argument("--n", type=int, required=True)
    x.add_argument("--m", type=int, default=1)
    x.set_defaults(func=cmd_export_circuit)
    return p


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    return secrets.randbits(62)


def _load_model(args, seed: int) -> VertexModel:
    if args.model is not None:
        return model_from_json(args.model.read_text())
    return generate_model(args.c, args.beta, seed)


def _wants(args, fmt: str) -> bool:
    return args.format is None or fmt in args.format


def _outdir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def _write(path: Path, text: str) -> None:
    path.write_text(text)
    print(path)


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of ints, strings or floats."""
    return "\n".join([header] + [",".join(map(str, row)) for row in rows]) + "\n"


def _random_positive_state(dim: int, seed: int) -> np.ndarray:
    v = uniforms(seed, dim)
    return v / np.linalg.norm(v)


def _load_input_vector(path: Path, dim: int) -> np.ndarray:
    v = np.zeros(dim)
    seen = set()
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("index"):
            continue
        try:
            idx_s, val_s = line.split(",")
            idx, val = int(idx_s), float(val_s)
        except ValueError as exc:
            raise ValidationError(f"input file {path}: want 'index,value', got {line!r}") from exc
        if not 0 <= idx < dim:
            raise ValidationError(f"input file {path}: index {idx} out of range for {dim} amplitudes")
        if idx in seen:
            raise ValidationError(f"input file {path}: index {idx} appears twice")
        seen.add(idx)
        v[idx] = val
    if not np.any(v):
        raise ValidationError(f"input file {path} holds no amplitudes")
    return v / np.linalg.norm(v)


def cmd_gen_model(args) -> int:
    model = _load_model(args, _resolve_seed(args))
    _write(_outdir(args) / "model.json", model_to_json(model))
    return 0


def cmd_spectrum(args) -> int:
    seed = _resolve_seed(args)
    model = _load_model(args, seed)
    t = assemble_transfer(r_matrix(model), args.n)
    summary = spectral_summary(t, tol=args.tol, method=args.method)
    out = _outdir(args)
    if _wants(args, "json"):
        meta = {key: getattr(summary, key) for key in _SPECTRUM_KEYS}
        meta.update(psi0_right=summary.psi0_right.tolist(), seed=seed, n=args.n)
        _write(out / "spectrum.json", json.dumps(meta, indent=2))
    if _wants(args, "csv"):
        if args.method == "dense":
            mags = np.sort(np.abs(np.linalg.eigvals(t.entries)))[::-1]
        else:
            mags = np.array([summary.lambda0, summary.lambda1_abs])
        _write(out / "spectrum.csv", _csv("index,value", enumerate(mags.tolist())))
        _write(out / "psi0.csv", _csv("index,value", enumerate(summary.psi0_right.tolist())))
    return 0


def cmd_simulate(args) -> int:
    check_circuit_width(args.n)
    seed = _resolve_seed(args)
    model = _load_model(args, seed)
    dim = 2 ** (args.n + 1)
    if args.input_file is not None:
        vec = _load_input_vector(args.input_file, dim)
    else:
        vec = np.zeros(dim)
        vec[0] = 1.0
    result, diag = simulated_t_action(
        model, args.n, args.m, vec, shots=args.shots, seed=seed,
        mode=args.mode, meaningful_floor=args.meaningful_floor,
    )
    expected = None
    if args.mode != "exact":
        expected, _ = simulated_t_action(model, args.n, args.m, vec, mode="exact")
    out = _outdir(args)
    if _wants(args, "csv"):
        columns = [result] if expected is None else [result, expected]
        header = "index,simulated" + (",expected" if expected is not None else "")
        rows = zip(range(len(result)), *(c.tolist() for c in columns))
        _write(out / "action.csv", _csv(header, rows))
        if diag.final_histogram is not None:
            _write(out / "histogram.csv",
                   _csv("bitstring,count", diag.final_histogram.counts.items()))
    if _wants(args, "json"):
        meta = {
            "seed": seed,
            "n": args.n,
            "m": args.m,
            "mode": diag.mode,
            "shots_used": diag.shots_used,
            "meaningful_fractions": diag.meaningful_fractions,
            "keep_probability": diag.keep_probability,
        }
        h = diag.final_histogram
        if h is not None:
            meta["histogram"] = {
                "total_shots": h.total_shots,
                "meaningful_shots": h.meaningful_shots,
                "seed": h.seed,
                "survivors": list(h.survivors),
            }
        _write(out / "simulate.json", json.dumps(meta, indent=2))
    if _wants(args, "svg"):
        chart = Chart(
            title=f"Transfer action, n={args.n}, m={args.m}, mode={diag.mode}",
            xlabel="basis index",
            ylabel="amplitude",
        )
        xs = list(range(len(result)))
        chart.add(xs, result.tolist(), label="simulated")
        if expected is not None:
            chart.add(xs, expected.tolist(), label="expected")
        _write(out / "simulate.svg", render(chart))
    return 0


def cmd_estimate(args) -> int:
    if args.inputs < 1:
        raise ValidationError(f"--inputs must be at least 1, got {args.inputs}")
    check_circuit_width(args.n)
    seed = _resolve_seed(args)
    model = _load_model(args, seed)
    dim = 2 ** (args.n + 1)
    backend = "exact" if args.mode == "exact" else "shot"
    if args.input_file is not None:
        inputs = [_load_input_vector(args.input_file, dim)]
    else:  # drawn as each estimate runs, so the K inputs are never all in memory
        inputs = (_random_positive_state(dim, seed + 1 + k) for k in range(args.inputs))
    reports = [
        estimate_lambda1(model, args.n, vec, shots=args.shots, seed=seed + 7919 * (k + 1),
                         backend=backend, meaningful_floor=args.meaningful_floor)
        for k, vec in enumerate(inputs)
    ]
    out = _outdir(args)
    oracle = reports[0].oracle_lambda1
    if _wants(args, "json"):
        payload = {
            "seed": seed,
            "n": args.n,
            "backend": backend,
            "oracle_lambda1": oracle,
            # a degenerate report's NaN estimate is written as null
            "estimates": [{**dataclasses.asdict(r),
                           "estimate": None if math.isnan(r.estimate) else r.estimate}
                          for r in reports],
        }
        _write(out / "estimate.json", json.dumps(payload, indent=2))
    if _wants(args, "svg"):
        chart = Chart(
            title=f"lambda_1 estimator, n={args.n}",
            xlabel="trial",
            ylabel="estimate",
        )
        xs = [i for i, r in enumerate(reports) if not math.isnan(r.estimate)]
        ys = [r.estimate for r in reports if not math.isnan(r.estimate)]
        chart.add(xs, ys, label="estimates")
        if oracle is not None and xs:
            chart.add([min(xs), max(xs)], [oracle, oracle], label="oracle", kind="line")
        _write(out / "estimate.svg", render(chart))
    return 0


def cmd_export_circuit(args) -> int:
    seed = _resolve_seed(args)
    model = _load_model(args, seed)
    factors = svd_scaled(r_matrix(model))
    plan = build_t_plan(factors, args.n, args.m)
    out = _outdir(args)
    _write(out / "circuit.txt", export_circuit_text(plan))
    return 0


if __name__ == "__main__":
    sys.exit(main())
