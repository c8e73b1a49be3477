import warnings

import numpy as np

from vertexsim.rng import (
    GOLDEN, LEAP, mix64, stream_u64, substream_seed, substream_value, to_unit, uniforms,
)


def test_matches_published_splitmix64_vectors():
    # first three outputs of SplitMix64 seeded with 0, from the reference
    # implementation's known-answer stream
    assert stream_u64(0, 3).tolist() == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_stream_is_a_pure_counter_function():
    whole = stream_u64(12345, 10)
    tail = stream_u64(12345, 4, start=6)
    assert whole[6:].tolist() == tail.tolist()
    again = stream_u64(12345, 10)
    assert whole.tolist() == again.tolist()


def test_uniforms_in_unit_interval():
    u = uniforms(7, 10_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_substreams_vectorize_and_differ():
    seeds = substream_seed(7, np.arange(4, dtype=np.uint64))
    assert len(set(seeds.tolist())) == 4
    one = substream_value(seeds, 3)
    scalar = substream_value(substream_seed(7, 2).reshape(1), 3)
    assert one[2] == scalar[0]


def test_mix64_scalar_matches_array():
    xs = np.array([1, 2, 2**63], dtype=np.uint64)
    assert mix64(xs)[1] == mix64(np.uint64(2))


def test_to_unit_uses_top_53_bits():
    assert to_unit(np.array([0], dtype=np.uint64))[0] == 0.0
    assert to_unit(np.array([(1 << 64) - 1], dtype=np.uint64))[0] == 1.0 - 2.0 ** -53


def test_integer_key_decides_threshold_comparisons_exactly():
    # to_unit(x) = k * 2^-53 with the integer key k = x >> 11, so for any
    # double c: to_unit(x) >= c  iff  k >= ceil(c * 2^53)
    xs = np.concatenate([
        stream_u64(21, 300),
        np.array([0, 1 << 11, (1 << 11) - 1, (1 << 63) + 12345, (1 << 64) - 1], dtype=np.uint64),
    ])
    u = to_unit(xs)
    keys = xs >> np.uint64(11)
    near = [u]
    for direction in (2.0, -1.0):
        c = u
        for _ in range(3):
            c = np.nextafter(c, direction)
            near.append(c)
    cs = np.concatenate(near + [np.array([
        0.0, 5e-324, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0,
        np.nextafter(1.0, 2.0), 1.0 + 2.0 ** -40,
    ])])
    thresholds = np.ceil(cs * 2.0 ** 53).astype(np.uint64)
    assert np.array_equal(u[None, :] >= cs[:, None], keys[None, :] >= thresholds[:, None])
    # the edges: every key meets c = 0, none meets c = 1 or anything above it
    assert thresholds[-8] == 0 and thresholds[-3] == 1 << 53
    assert np.all(keys < 1 << 53)


def test_seeds_accept_numpy_integers():
    # a numpy integer seed names the same stream as the Python int
    for seed in (np.int64(-5), np.uint64(2 ** 63 + 1), np.int32(7)):
        np.testing.assert_array_equal(stream_u64(seed, 4), stream_u64(int(seed), 4))
        assert substream_seed(seed, 3) == substream_seed(int(seed), 3)


_MASK = (1 << 64) - 1


def _mix64_int(x: int) -> int:
    """SplitMix64 finalizer on Python integers: the scalar path."""
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def test_substreams_work_on_copies_and_match_the_scalar_path():
    # the mix runs in place on a fresh array: the argument must not change,
    # and wrapping mod 2^64 must stay silent (warnings are errors here)
    ks = np.array([0, 1, 7, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
    kept = ks.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seeds = substream_seed(2**64 - 3, ks)
        values = substream_value(seeds, 2**40)
        scalar_seed = substream_seed(np.int64(-3), np.uint64(2**64 - 1))
        scalar_value = substream_value(np.uint64(2**64 - 1), np.int64(5))
    assert np.array_equal(ks, kept)
    sub = [_mix64_int((2**64 - 3 + (k + 1) * int(LEAP)) & _MASK) for k in ks.tolist()]
    assert seeds.tolist() == sub
    assert values.tolist() == [_mix64_int((s + (2**40 + 1) * int(GOLDEN)) & _MASK) for s in sub]
    kept_seeds = seeds.copy()
    substream_value(seeds, 3)
    assert np.array_equal(seeds, kept_seeds)
    assert isinstance(scalar_seed, np.uint64) and isinstance(scalar_value, np.uint64)
    assert scalar_seed == sub[-1]
    assert scalar_value == _mix64_int((2**64 - 1 + 6 * int(GOLDEN)) & _MASK)
    # out= and buf= write the allocating calls' bits into the caller's arrays:
    # into views shorter than the rows behind them, and onto the input itself
    n = len(ks)
    rows = np.full((3, n + 5), 12345, dtype=np.uint64)
    seeds_out, values_out, buf = rows[0, :n], rows[1, :n], rows[2, :n]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert substream_seed(2**64 - 3, ks, out=seeds_out, buf=buf) is seeds_out
        assert substream_value(seeds_out, 2**40, out=values_out, buf=buf) is values_out
        assert seeds_out.tolist() == sub
        assert values_out.tolist() == values.tolist()
        in_place = ks.copy()
        assert substream_seed(2**64 - 3, in_place, out=in_place) is in_place
        assert in_place.tolist() == sub
        assert substream_value(in_place, 2**40, out=in_place) is in_place
        assert in_place.tolist() == values.tolist()
        # a 0-d input still gives a scalar; with a 0-d out, that array
        zero_d = np.array(2**64 - 1, dtype=np.uint64)
        assert isinstance(substream_seed(np.int64(-3), zero_d), np.uint64)
        assert isinstance(substream_value(zero_d, np.int64(5)), np.uint64)
        box = np.empty((), dtype=np.uint64)
        assert substream_seed(np.int64(-3), zero_d, out=box) is box and box == sub[-1]
        assert substream_value(zero_d, np.int64(5), out=box) is box and box == scalar_value
    # past the views, the rows are untouched, and so is a separate input
    assert (rows[:, n:] == 12345).all()
    assert np.array_equal(ks, kept)
