"""Vertex models on the square lattice and their Boltzmann gate.

A model assigns an energy eps(d, u, l, r) to each of the 16 ways a vertex can
bond to its four neighbours (d = down, u = up, l = left, r = right, each 0 or
1).  Energies are stored flat in the order

    index i = 8*l + 4*d + 2*r + u,

i.e. the 4-bit string (l, d, r, u) read as an integer, so that the Boltzmann
matrix below is filled row-major by i.  The randomized generator draws

    eps = c * (d + u + l + r) * delta + Uniform[0,1) * delta,

with delta fixed to 1: a deterministic ramp of strength c plus a seeded
perturbation.

The 4x4 Boltzmann gate R holds exp(-beta * eps) at row 2*l + d, column
2*r + u.  Its entries are strictly positive for any finite energy table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rng import _u64, stream_u64, to_unit

DELTA = 1.0  # unit of energy; not a tunable


def energy_index(d: int, u: int, l: int, r: int) -> int:
    """Flat position of eps(d, u, l, r) in the 16-entry table."""
    return 8 * l + 4 * d + 2 * r + u


@dataclass(frozen=True)
class VertexModel:
    """A 16-entry bond-energy table plus inverse temperature.

    `energies` is indexed by `energy_index`; `c` and `seed` record how the
    table was generated (informational once `energies` is fixed).
    """

    energies: tuple[float, ...]
    beta: float
    c: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if len(self.energies) != 16:
            raise ValidationError(f"energy table must have 16 entries, got {len(self.energies)}")
        if not all(math.isfinite(e) for e in self.energies):
            raise ValidationError("all bond energies must be finite")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValidationError(f"beta must be positive and finite, got {self.beta}")

    def energy(self, d: int, u: int, l: int, r: int) -> float:
        return self.energies[energy_index(d, u, l, r)]

    def energy_array(self) -> np.ndarray:
        return np.asarray(self.energies, dtype=np.float64)


@dataclass(frozen=True)
class RMatrix:
    """Strictly positive 4x4 matrix of Boltzmann factors.

    Layout: entries[2*l + d, 2*r + u] = exp(-beta * eps(d, u, l, r)).
    """

    entries: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.entries)
        if np.iscomplexobj(raw):
            raise ValidationError("R matrix must be real valued")
        m = raw.astype(np.float64)
        if m.shape != (4, 4):
            raise ValidationError(f"R matrix must be 4x4, got shape {m.shape}")
        if not np.all(np.isfinite(m)) or np.any(m <= 0):
            raise ValidationError("R matrix entries must be finite and strictly positive")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


def generate_model(c: float, beta: float, seed: int) -> VertexModel:
    """Seeded random model: eps_i = c * popcount(i) + Uniform[0,1).

    The perturbation is drawn from the package's counter-based stream, so the
    table is bit-identical across platforms for a fixed seed.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValidationError(f"beta must be positive and finite, got {beta}")
    if not math.isfinite(c):
        raise ValidationError(f"c must be finite, got {c}")
    noise = to_unit(stream_u64(seed, 16))
    ramp = np.array([bin(i).count("1") for i in range(16)], dtype=np.float64)
    with np.errstate(over="ignore"):  # an infinite energy fails VertexModel's check
        energies = (c * ramp * DELTA + noise * DELTA).tolist()
    return VertexModel(energies=tuple(energies), beta=float(beta), c=float(c), seed=int(seed))


def r_matrix(model: VertexModel) -> RMatrix:
    """Boltzmann gate of a model: exp(-beta * eps) in the (2l+d, 2r+u) layout."""
    with np.errstate(over="ignore"):  # an entry of 0 or inf fails RMatrix's check
        flat = np.exp(-model.beta * model.energy_array())
    return RMatrix(entries=flat.reshape(4, 4))


def model_to_json(model: VertexModel) -> str:
    payload = {
        "beta": model.beta,
        "c": model.c,
        "seed": model.seed,
        "energies": list(model.energies),
    }
    return json.dumps(payload, indent=2)


def _json_number(value) -> float:
    """A model-file number as a float; JSON strings, true and false are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def model_from_json(text: str) -> VertexModel:
    """Parse the model file format.

    An explicit "energies" list takes precedence over (c, seed); when it is
    absent the model is regenerated from (c, seed).
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "beta" not in payload:
        raise ValidationError("model file must be a JSON object that supplies 'beta'")
    try:
        beta = _json_number(payload["beta"])
        c = _json_number(payload.get("c", 0.0))
        seed = payload.get("seed")
        if seed is not None:
            _u64(seed)  # the package's seed rule: integers only, bools rejected
        energies = (tuple(_json_number(e) for e in payload["energies"])
                    if "energies" in payload else None)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"model file has a malformed field: {exc}") from exc
    if energies is not None:
        return VertexModel(energies=energies, beta=beta, c=c, seed=seed)
    if seed is None:
        raise ValidationError("model file needs either 'energies' or both 'c' and 'seed'")
    return generate_model(c, beta, seed)
