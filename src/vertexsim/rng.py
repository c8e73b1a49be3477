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

`substream_seed` and `substream_value` take numpy's `out=` and a scratch
`buf=` for the mix's shifts, both uint64 arrays shaped like the result (`out`
may be the input itself).  With them a caller that draws many times, like the
shot engine's per-call workspace, allocates nothing per draw.

The draws wrap mod 2^64 without an `np.errstate` block: numpy warns about
integer overflow only in arithmetic on numpy scalars, never in a ufunc over
an array (a 0-d array included), and every uint64 step here runs on arrays.
The one scalar product, (i + 1) * GOLDEN, is taken in Python integers.  An
`errstate` block costs as much as several ufunc calls on the shot engine's
short rows, so the draws do without one.
"""

from __future__ import annotations

import numpy as np

from .errors import require_int

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
LEAP = np.uint64(0xD1B54A32D192ED03)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S1, _S2, _S3 = np.uint64(30), np.uint64(27), np.uint64(31)
_MASK = (1 << 64) - 1


def _mix_in_place(x: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer on a uint64 array, in place; `buf`, shaped like x
    (fresh when None), holds the shifts."""
    if buf is None:
        buf = np.empty_like(x)
    x ^= np.right_shift(x, _S1, out=buf)
    x *= _M1
    x ^= np.right_shift(x, _S2, out=buf)
    x *= _M2
    x ^= np.right_shift(x, _S3, out=buf)
    return x


def mix64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """SplitMix64 finalizer on uint64 scalars or arrays (wraps mod 2^64)."""
    return _mix_in_place(np.array(x, dtype=np.uint64))[()]


def _u64(seed: int) -> np.uint64:
    """A seed as uint64 (mod 2^64), by the package's integer rule."""
    return np.uint64(require_int("seed", seed) & _MASK)


def stream_u64(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Raw 64-bit values `start..start+count-1` of the top-level stream."""
    x = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    x *= GOLDEN
    x += _u64(seed)
    return _mix_in_place(x)


def uniforms(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Uniform[0,1) doubles from the top-level stream."""
    return to_unit(stream_u64(seed, count, start))


def substream_seed(seed: int, k: int | np.ndarray, *, out: np.ndarray | None = None,
                   buf: np.ndarray | None = None) -> np.ndarray | np.uint64:
    """Seed of independent substream k (e.g. one stream per shot).

    Given `out`, the seeds of the uint64 counters k are written there and
    `out` is returned; `buf` is the mix's shift buffer.
    """
    if out is None:
        x = np.array(k, dtype=np.uint64)  # a copy: the steps below work in place
        x += np.uint64(1)
    else:
        x = np.add(k, np.uint64(1), out=out)
    x *= LEAP
    x += _u64(seed)
    _mix_in_place(x, buf)
    return x[()] if out is None else out


def substream_value(sub_seeds: np.ndarray, index: int, *, out: np.ndarray | None = None,
                    buf: np.ndarray | None = None) -> np.ndarray:
    """Value `index` of each substream, vectorized over substream seeds.

    Given `out`, the values are written there and `out` is returned; `buf`
    is the mix's shift buffer.
    """
    step = np.uint64((int(index) + 1) * int(GOLDEN) & _MASK)
    x = np.add(sub_seeds, step,
               out=np.empty(np.shape(sub_seeds), dtype=np.uint64) if out is None else out)
    _mix_in_place(x, buf)
    return x[()] if out is None else out


def to_unit(x: np.ndarray) -> np.ndarray:
    """Map uint64 to Uniform[0,1) using the top 53 bits: (x >> 11) * 2^-53."""
    return (x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
