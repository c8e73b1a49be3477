"""Spans around the library's public functions, recorded from outside the library.

vertexsim modules import each other's functions by name (`from .gates import
apply_matrix`), so replacing the attribute on the defining module alone would
miss every caller.  `Tracer.installed` therefore scans every loaded vertexsim
module for each bound copy of a traced function and replaces that binding; the
span records which module the call went through (its *site*).

Spans are kept in memory as plain lists and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (defining module, function) -> span name.  The span name is
# "<module>.<function>" with the package prefix dropped.
TRACED = (
    ("vertexsim.experiments", "estimate_lambda1"),
    ("vertexsim.experiments", "power_iterate_psi0"),
    ("vertexsim.experiments", "simulated_t_action"),
    ("vertexsim.simulator", "run_shots"),
    ("vertexsim.gates", "apply_matrix"),
    ("vertexsim.rng", "substream_value"),
    ("vertexsim.rng", "substream_seed"),
    ("vertexsim.transfer", "spectral_summary"),
    ("vertexsim.transfer", "assemble_transfer"),
    ("vertexsim.dilation", "svd_scaled"),
    ("vertexsim.model", "r_matrix"),
)

# span record layout
OP, PARENT, NAME, SITE, START, END = range(6)


def _apply_matrix_bytes(args, kwargs, out):
    """Computed bytes moved: the state read, the state written, the gate read."""
    amps = args[0] if args else kwargs["amps"]
    matrix = args[1] if len(args) > 1 else kwargs["matrix"]
    return {"bytes_computed": amps.nbytes + out.nbytes + matrix.nbytes}


def _run_shots_counts(args, kwargs, out):
    return {"shots": out.total_shots, "meaningful_shots": out.meaningful_shots}


def _spectral_counts(args, kwargs, out):
    return {"iterations": out.iterations}


COUNTERS = {
    "gates.apply_matrix": _apply_matrix_bytes,
    "simulator.run_shots": _run_shots_counts,
    "transfer.spectral_summary": _spectral_counts,
}


class Tracer:
    """Collects spans for the ops of one run.

    A span is [op id, parent span index, name, site, start, end]; the op
    itself is the root span `bench.op`, so every span of an op shares its id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = [-1]
        self._op = -1

    def _wrap(self, fn, name: str, site: str):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = [self._op, stack[-1], name, site, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, out).items():
                    counters[name][key] += value
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of every traced function; restore them on exit."""
        saved = []
        try:
            for module_name, func_name in TRACED:
                original = getattr(sys.modules[module_name], func_name)
                name = f"{module_name.rsplit('.', 1)[-1]}.{func_name}"
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != "vertexsim" and not mod_name.startswith("vertexsim."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            site = mod_name.rsplit(".", 1)[-1]
                            saved.append((module, attr, value))
                            setattr(module, attr, self._wrap(value, name, site))
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def op(self, op_id: int, fn, *args, **kwargs):
        """Run one op as the root span `bench.op`; returns (result, seconds)."""
        self._op = op_id
        rec = [op_id, -1, "bench.op", "bench", 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
        return out, rec[END] - rec[START]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, calls per site."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(int))
        for i, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            s = stats[rec[NAME]]
            s["calls"] += 1
            s["s"] += dur
            s["self_s"] += dur - child[i]
            s[f"calls_in_{rec[SITE]}"] += 1
        for name, extra in self.counters.items():
            stats[name].update(extra)
        return {name: dict(s) for name, s in stats.items()}

    def write(self, path: Path) -> None:
        """Write the spans as columns (names and sites interned) to a JSON file."""
        names = sorted({rec[NAME] for rec in self.spans} | {rec[SITE] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = {
            "strings": names,
            "op": [rec[OP] for rec in self.spans],
            "parent": [rec[PARENT] for rec in self.spans],
            "name": [index[rec[NAME]] for rec in self.spans],
            "site": [index[rec[SITE]] for rec in self.spans],
            "start": [rec[START] for rec in self.spans],
            "end": [rec[END] for rec in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cols))
