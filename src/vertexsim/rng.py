"""Counter-based random numbers built on the SplitMix64 finalizer.

Every random draw in this package is a pure function of (seed, stream, index),
so results are bit-identical across platforms, execution order and worker
counts.  The construction:

    value(seed, i)            = mix64(seed + (i + 1) * GOLDEN)
    substream_seed(seed, k)   = mix64(seed + (k + 1) * LEAP)
    value(seed, k, i)         = mix64(substream_seed(seed, k) + (i + 1) * GOLDEN)

where mix64 is the SplitMix64 output permutation (Steele, Lea & Flood 2014)
and GOLDEN = 2^64 / phi.  Uniform[0,1) doubles take the top 53 bits:
u = (x >> 11) * 2^-53.  So u is the 53-bit integer key k = x >> 11 scaled
exactly, and for any double c, u >= c holds exactly when k >= ceil(c * 2^53)
(c * 2^53 is exact, and k is an integer).  The shot engine compares such
integer keys against integer thresholds instead of forming u.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
LEAP = np.uint64(0xD1B54A32D192ED03)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1


def mix64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """SplitMix64 finalizer on uint64 scalars or arrays (wraps mod 2^64)."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x ^ (x >> np.uint64(30))  # a new array: the steps below work in place
        x *= _M1
        x ^= x >> np.uint64(27)
        x *= _M2
        x ^= x >> np.uint64(31)
        return x


def _u64(seed: int) -> np.uint64:
    """A seed as uint64 (mod 2^64): any Python or numpy integer, bools excluded."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    return np.uint64(int(seed) & _MASK)


def stream_u64(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Raw 64-bit values `start..start+count-1` of the top-level stream."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(_u64(seed) + idx * GOLDEN)


def uniforms(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Uniform[0,1) doubles from the top-level stream."""
    return to_unit(stream_u64(seed, count, start))


def substream_seed(seed: int, k: int | np.ndarray) -> np.ndarray | np.uint64:
    """Seed of independent substream k (e.g. one stream per shot)."""
    k = np.asarray(k, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(_u64(seed) + (k + np.uint64(1)) * LEAP)


def substream_value(sub_seeds: np.ndarray, index: int) -> np.ndarray:
    """Value `index` of each substream, vectorized over substream seeds."""
    with np.errstate(over="ignore"):
        return mix64(sub_seeds + np.uint64(index + 1) * GOLDEN)


def to_unit(x: np.ndarray) -> np.ndarray:
    """Map uint64 to Uniform[0,1) using the top 53 bits: (x >> 11) * 2^-53."""
    return (x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
