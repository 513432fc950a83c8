"""Potts alpha-expansion tests: exactness on small instances, monotone energy,
and the same labels as the forward-flow reference in tests/oracles.py."""

import itertools

import numpy as np
import pytest

from oracles import oracle_alpha_expansion, oracle_expand
from svstream import graphcut
from svstream.graphcut import _CAP_MAX, _SCALE, _expand, alpha_expansion, labeling_energy


def _brute_force_min(data_costs: np.ndarray, lam: float) -> float:
    num_labels, h, w = data_costs.shape
    best = np.inf
    for assign in itertools.product(range(num_labels), repeat=h * w):
        labels = np.array(assign, dtype=np.int64).reshape(h, w)
        best = min(best, labeling_energy(labels, data_costs, lam))
    return best


def test_energy_hand_computed():
    costs = np.zeros((2, 2, 2))
    costs[0] = [[1.0, 2.0], [3.0, 4.0]]
    costs[1] = [[5.0, 6.0], [7.0, 8.0]]
    labels = np.array([[0, 1], [1, 1]])
    # data: 1 + 6 + 7 + 8 = 22; cuts: (0,0)-(0,1) and (0,0)-(1,0) -> 2
    assert labeling_energy(labels, costs, 2.0) == 22.0 + 4.0


def test_lambda_zero_is_per_pixel_argmin():
    rng = np.random.default_rng(0)
    costs = rng.integers(0, 50, size=(4, 6, 7)).astype(np.float64)
    init = rng.integers(0, 4, size=(6, 7)).astype(np.int64)
    labels = alpha_expansion(costs, 0.0, init)
    assert np.array_equal(labels, np.argmin(costs, axis=0))


def test_lambda_zero_ties_take_lowest_label():
    costs = np.ones((3, 2, 2))
    labels = alpha_expansion(costs, 0.0, np.full((2, 2), 2, dtype=np.int64))
    assert np.array_equal(labels, np.zeros((2, 2), dtype=np.int64))


@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")],
                         ids=["negative", "nan", "inf"])
def test_negative_lambda_rejected(lam):
    with pytest.raises(ValueError):
        alpha_expansion(np.zeros((2, 2, 2)), lam, np.zeros((2, 2), dtype=np.int64))


def _refused_inputs():
    """(data costs, init labels) that alpha_expansion must refuse: a
    non-finite cost, an init label outside [0, L), and costs whose shape does
    not fit the init."""
    costs = np.arange(2 * 3 * 4, dtype=np.float64).reshape(2, 3, 4)
    init = np.zeros((3, 4), dtype=np.int64)
    for bad in (np.nan, np.inf, -np.inf):
        c = costs.copy()
        c[1, 2, 3] = bad
        yield c, init
    for bad in (-1, 2):
        i = init.copy()
        i[0, 1] = bad
        yield costs, i
    yield costs, np.full((3, 4), -1, dtype=np.int64)
    yield costs[:, :2], init
    yield costs[0], init
    yield costs.reshape(2, 4, 3), init


@pytest.mark.parametrize("lam", [0.0, 1.5])
@pytest.mark.parametrize("costs, init", list(_refused_inputs()),
                         ids=["nan", "inf", "-inf", "init-negative", "init-L", "init-all-negative",
                              "rows-short", "costs-2d", "costs-transposed"])
def test_bad_costs_or_init_rejected_before_any_cut(monkeypatch, costs, init, lam):
    def no_cut(*args):
        raise AssertionError("cut attempted")
    monkeypatch.setattr(graphcut, "_expand", no_cut)
    with pytest.raises(ValueError):
        alpha_expansion(costs, lam, init)


def test_binary_matches_brute_force():
    # integer costs and lambda survive the 256x capacity scaling exactly, and
    # a binary Potts instance is solved to the global optimum
    for seed in range(10):
        rng = np.random.default_rng(seed)
        costs = rng.integers(0, 11, size=(2, 2, 3)).astype(np.float64)
        init = np.ones((2, 3), dtype=np.int64)
        labels = alpha_expansion(costs, 3.0, init)
        got = labeling_energy(labels, costs, 3.0)
        want = _brute_force_min(costs, 3.0)
        assert abs(got - want) < 1e-9, f"seed {seed}: {got} vs optimum {want}"


def test_multilabel_close_to_brute_force():
    # alpha-expansion guarantees energy within 2x of the Potts optimum
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        costs = rng.integers(0, 11, size=(3, 2, 3)).astype(np.float64)
        init = rng.integers(0, 3, size=(2, 3)).astype(np.int64)
        labels = alpha_expansion(costs, 2.0, init)
        got = labeling_energy(labels, costs, 2.0)
        want = _brute_force_min(costs, 2.0)
        assert want - 1e-9 <= got <= 2.0 * want + 1e-9


def test_energy_never_increases():
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        lam = float(rng.choice([1.0, 3.0, 8.0]))
        costs = rng.integers(0, 21, size=(3, 6, 6)).astype(np.float64)
        init = rng.integers(0, 3, size=(6, 6)).astype(np.int64)
        labels = alpha_expansion(costs, lam, init)
        assert labeling_energy(labels, costs, lam) <= labeling_energy(init, costs, lam) + 1e-12
        assert labels.min() >= 0 and labels.max() < 3


def test_result_is_a_fixed_point():
    rng = np.random.default_rng(7)
    costs = rng.integers(0, 21, size=(3, 5, 5)).astype(np.float64)
    init = rng.integers(0, 3, size=(5, 5)).astype(np.int64)
    first = alpha_expansion(costs, 4.0, init)
    second = alpha_expansion(costs, 4.0, first)
    assert labeling_energy(second, costs, 4.0) == labeling_energy(first, costs, 4.0)


def test_smoothing_repairs_flipped_pixels():
    image = np.zeros((8, 8))
    image[:, 4:] = 255.0
    rng = np.random.default_rng(3)
    noisy = image.copy()
    for _ in range(3):
        y, x = rng.integers(0, 8, size=2)
        noisy[y, x] = 255.0 - noisy[y, x]
    costs = np.stack([np.abs(noisy) / 255.0, np.abs(noisy - 255.0) / 255.0])
    labels = alpha_expansion(costs, 0.5, np.zeros((8, 8), dtype=np.int64))
    want = np.zeros((8, 8), dtype=np.int64)
    want[:, 4:] = 1
    assert np.array_equal(labels, want)


def _oracle_instances():
    """Seeded (costs, lam, init, alpha) draws: integer costs and lambda, whose
    cuts often tie, strips one pixel wide, a single label, pixels that all
    carry alpha already, costs beyond the capacity clip and lambda = 0.1."""
    big = 2 * _CAP_MAX / _SCALE
    for seed in range(320):
        rng = np.random.default_rng(9000 + seed)
        kind = seed % 8
        h, w = (int(x) for x in rng.integers(1, 8, size=2))
        if kind == 1:
            h = 1
        elif kind == 2:
            w = 1
        num_labels = 1 if kind == 3 else int(rng.integers(2, 5))
        costs = rng.integers(0, 11, size=(num_labels, h, w)).astype(np.float64)
        lam = float(rng.integers(1, 6))
        if kind == 5:
            costs[rng.random(costs.shape) < 0.3] = big
            lam = float(rng.choice([3.0, big]))
        elif kind == 6:
            costs = np.round(rng.random((num_labels, h, w)), 1)
            lam = 0.1
        init = rng.integers(0, num_labels, size=(h, w)).astype(np.int64)
        alpha = int(rng.integers(0, num_labels))
        if kind == 4:
            init[:] = alpha
        yield costs, lam, init, alpha


def test_expand_matches_forward_flow_oracle():
    count = 0
    for costs, lam, init, alpha in _oracle_instances():
        got = _expand(init, alpha, costs, lam)
        want = oracle_expand(init, alpha, costs, lam)
        assert got.dtype == want.dtype and np.array_equal(got, want), (costs, lam, init, alpha)
        count += 1
    assert count >= 300


def test_alpha_expansion_matches_oracle():
    for costs, lam, init, _ in _oracle_instances():
        got = alpha_expansion(costs, lam, init)
        want = oracle_alpha_expansion(costs, lam, init)
        assert np.array_equal(got, want), (costs, lam, init)


@pytest.mark.parametrize("start, best, calls", [(1, 0, 4), (0, 1, 5)])
def test_sweep_stops_once_every_label_is_rejected_in_a_row(monkeypatch, start, best, calls):
    # one accepted move relabels every pixel; the labels it leaves are then
    # rejected once each, which ends the loop in the middle of a sweep
    tried = []

    def counted(labels, alpha, data_costs, lam):
        tried.append(alpha)
        return _expand(labels, alpha, data_costs, lam)

    monkeypatch.setattr(graphcut, "_expand", counted)
    costs = np.full((3, 4, 5), 10.0)
    costs[best] = 0.0
    init = np.full((4, 5), start, dtype=np.int64)
    labels = alpha_expansion(costs, 1.0, init)
    assert np.array_equal(labels, np.full((4, 5), best))
    assert np.array_equal(labels, oracle_alpha_expansion(costs, 1.0, init))
    assert tried == [a % 3 for a in range(calls)]
