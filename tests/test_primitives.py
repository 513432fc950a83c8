"""Unit tests for the deterministic PRNG, the oracles' union-find, and image numerics."""
import numpy as np
import pytest

from svstream.imageops import (bilinear_resize, bilinear_sample, gaussian_blur,
                               luma_f64, luma_u8, relabel_first_occurrence,
                               round_half_up)
from svstream.rng import MASK64, SplitMix64, derive_seed, mix64

from oracles import Forest


# reference splitmix64, written out step by step, independent of svstream.rng
def _ref_stream(seed, n):
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = (z ^ (z >> 31)) & mask
        out.append(z)
    return out


def test_splitmix64_matches_reference():
    for seed in (0, 1, 42, 0xDEADBEEF, MASK64):
        r = SplitMix64(seed)
        assert [r.next_u64() for _ in range(8)] == _ref_stream(seed, 8)


def test_splitmix64_bounds_and_determinism():
    r1 = SplitMix64(7)
    r2 = SplitMix64(7)
    for _ in range(500):
        a = r1.next_below(13)
        assert 0 <= a < 13
        assert a == r2.next_below(13)
    with pytest.raises(ValueError):
        SplitMix64(0).next_below(0)


def test_next_float_range():
    r = SplitMix64(3)
    xs = [r.next_float() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert len(set(xs)) > 990


def test_derive_seed_salt_sensitivity():
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
    assert derive_seed(5, 1) != derive_seed(6, 1)
    assert 0 <= derive_seed(9, 9, 9) <= MASK64


def test_mix64_is_a_bijection_sample():
    seen = {mix64(i) for i in range(4096)}
    assert len(seen) == 4096


def test_forest_against_label_propagation():
    # random unions compared with a naive oracle over the same edge list
    r = SplitMix64(11)
    n = 60
    f = Forest(n)
    naive = list(range(n))

    def naive_root(i):
        while naive[i] != i:
            i = naive[i]
        return i

    for _ in range(120):
        a, b = r.next_below(n), r.next_below(n)
        ra, rb = f.find(a), f.find(b)
        if ra != rb:
            f.union(ra, rb)
        na, nb = naive_root(a), naive_root(b)
        if na != nb:
            naive[na] = nb
    groups_f = {}
    groups_n = {}
    for i in range(n):
        groups_f.setdefault(f.find(i), set()).add(i)
        groups_n.setdefault(naive_root(i), set()).add(i)
    assert sorted(map(frozenset, groups_f.values())) == \
        sorted(map(frozenset, groups_n.values()))


def test_forest_size_accounting():
    f = Forest(5)
    r = f.union(f.find(0), f.find(1))
    r = f.union(r, f.find(2))
    assert f.size[f.find(0)] == 3
    assert f.size[f.find(3)] == 1


def test_forest_union_keeps_component_bookkeeping():
    # a small marked component joins a larger unmarked one: whichever root
    # survives, the component keeps the mark, the summed size and the larger
    # internal difference
    f = Forest(4, sizes=[2, 5, 1, 1])
    f.mark[0] = 7
    f.internal[0] = 0.4
    f.internal[1] = 0.1
    r = f.union(f.find(0), f.find(1))
    assert r == f.find(0) == f.find(1)
    assert (f.mark[r], f.size[r], f.internal[r]) == (7, 7, 0.4)


def test_round_half_up_ties():
    vals = np.array([-1.5, -0.5, 0.0, 0.49999, 0.5, 1.5, 2.5])
    # ties go toward +inf, unlike numpy's bankers rounding
    assert round_half_up(vals).tolist() == [-1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0]


def test_relabel_first_occurrence():
    vol = np.array([[[9, 4], [9, 7]]])
    out = relabel_first_occurrence(vol)
    assert out.tolist() == [[[0, 1], [0, 2]]]
    assert out.dtype == np.int64


def test_luma_bt601():
    frame = np.zeros((1, 3, 3), dtype=np.uint8)
    frame = np.array([[[255, 0, 0], [0, 255, 0], [0, 0, 255]]], dtype=np.uint8)
    lum = luma_f64(frame)
    assert np.allclose(lum[0], [0.299 * 255, 0.587 * 255, 0.114 * 255])
    assert luma_u8(frame)[0].tolist() == [76, 150, 29]


def test_bilinear_sample_exact_and_midpoint():
    img = np.array([[0.0, 10.0], [20.0, 30.0]])
    assert bilinear_sample(img, 0, 0) == 0.0
    assert bilinear_sample(img, 1, 1) == 30.0
    assert bilinear_sample(img, 0.5, 0.0) == 5.0
    assert bilinear_sample(img, 0.0, 0.5) == 10.0
    assert bilinear_sample(img, 0.5, 0.5) == 15.0
    # beyond the border clamps
    assert bilinear_sample(img, -3.0, 0.0) == 0.0
    assert bilinear_sample(img, 5.0, 5.0) == 30.0


def test_bilinear_resize_identity_and_constant():
    img = np.arange(12, dtype=np.float64).reshape(3, 4)
    assert np.array_equal(bilinear_resize(img, 3, 4), img)
    const = np.full((5, 5), 3.25)
    assert np.allclose(bilinear_resize(const, 9, 7), 3.25)


def test_gaussian_blur_against_direct_convolution():
    r = SplitMix64(19)
    img = np.array([[r.next_float() for _ in range(7)] for _ in range(6)])
    sigma = 1.3
    rad = max(1, int(np.ceil(3.0 * sigma)))
    t = np.arange(-rad, rad + 1, dtype=np.float64)
    k = np.exp(-(t * t) / (2.0 * sigma * sigma))
    k /= k.sum()
    # scipy's "reflect" repeats the edge sample, i.e. numpy's "symmetric"
    pad = np.pad(img, rad, mode="symmetric")
    ref = np.zeros_like(img)
    for y in range(img.shape[0]):
        for x in range(img.shape[1]):
            win = pad[y:y + 2 * rad + 1, x:x + 2 * rad + 1]
            ref[y, x] = float(k @ win @ k)
    assert np.allclose(gaussian_blur(img, sigma), ref, atol=1e-12)


def test_gaussian_blur_zero_sigma_is_copy():
    img = np.ones((4, 4))
    out = gaussian_blur(img, 0.0)
    assert np.array_equal(out, img)
    assert out is not img
