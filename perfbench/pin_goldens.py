"""Write perfbench/goldens.json from the current library.

    python3 perfbench/pin_goldens.py

Pins, for each seed in PINNED_SEEDS, the record of every input of the
`estimate` and `deep` workloads, plus the seed-independent references: the
exact lambda_1 at N=4, the exact kept state and keep probability of the deep
circuit, and the oracle's lambda0 and ratio (power method, cross-checked
against LAPACK).  Goldens exist to catch a change in outputs, so re-pin only
on a commit whose outputs are known to be right, never to make a failing
check pass.
"""

from __future__ import annotations

import json
import math

import numpy as np

from run import GOLDENS, import_package
from workloads import (
    DEEP_M,
    DEEP_N,
    ESTIMATE_N,
    INPUTS_PER_SEED,
    ORACLE_N,
    ORACLE_RTOL,
    WORKLOADS,
    fixture_model,
)

DEFAULT_SEED = 0
HELD_OUT_SEED = 101
PINNED_SEEDS = list(range(10)) + [HELD_OUT_SEED]


def _dense_ratio(t: np.ndarray) -> tuple[float, float]:
    ev = np.linalg.eigvals(t)
    ev = ev[np.argsort(-np.abs(ev))]
    return float(ev[0].real), float(abs(ev[1]) / ev[0].real)


def references(vs) -> dict:
    model = fixture_model(vs)
    r = vs.r_matrix(model)
    _, lam1 = _dense_ratio(vs.assemble_transfer(r, ESTIMATE_N).entries)

    # One block applies T / d0_raw^N on the kept branch, starting from e0.
    scaled = vs.assemble_transfer(r, DEEP_N).entries / vs.svd_scaled(r).d0_raw ** DEEP_N
    kept = np.zeros(2 ** (DEEP_N + 1))
    kept[0] = 1.0
    for _ in range(DEEP_M):
        kept = scaled @ kept
    keep = float(kept @ kept)
    _, diag = vs.simulated_t_action(model, DEEP_N, DEEP_M, np.eye(2 ** (DEEP_N + 1))[0], mode="exact")
    if not math.isclose(keep, diag.keep_probability, rel_tol=1e-12):
        raise SystemExit(f"dense keep probability {keep} != circuit {diag.keep_probability}")

    oracle_model = vs.generate_model(c=0.4, beta=2.0, seed=7)
    t = vs.assemble_transfer(vs.r_matrix(oracle_model), ORACLE_N)
    power = vs.spectral_summary(t, method="power")
    lam0_dense, ratio_dense = _dense_ratio(t.entries)
    if not (math.isclose(power.lambda0, lam0_dense, rel_tol=ORACLE_RTOL)
            and math.isclose(power.ratio, ratio_dense, rel_tol=ORACLE_RTOL)):
        raise SystemExit(f"power ({power.lambda0}, {power.ratio}) disagrees with "
                         f"LAPACK ({lam0_dense}, {ratio_dense})")
    return {
        "estimate": {"oracle_lambda1": lam1},
        "deep": {"keep_probability": keep, "output": (kept / math.sqrt(keep)).tolist()},
        "oracle": {"lambda0": power.lambda0, "ratio": power.ratio},
    }


def main() -> None:
    vs = import_package()
    refs = references(vs)
    goldens = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
               "oracle": {"reference": refs["oracle"]}}
    for name in ("estimate", "deep"):
        ops = {}
        for seed in PINNED_SEEDS:
            wl = WORKLOADS[name](vs, seed, refs[name])
            wl.setup()
            records = []
            for j in range(INPUTS_PER_SEED):
                out = wl.op(j)
                bad = wl.problems(out)
                if bad:
                    raise SystemExit(f"{name} seed {seed} input {j} fails its checks: {bad}")
                records.append(wl.record(out))
            ops[str(seed)] = records
            print(f"pinned {name} seed {seed}")
        goldens[name] = {"reference": refs[name], "ops": ops}
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")


if __name__ == "__main__":
    main()
