"""Affine flow model tests: algebra, fitting, and point-map inversion."""

import numpy as np
import pytest

from svstream.affine import AffineModel, apply_point_matrix, invert_point_map


def test_uv_matches_definition():
    m = AffineModel(a1=0.5, a2=0.1, a3=-0.2, a4=-1.0, a5=0.03, a6=0.07)
    xs = np.array([0.0, 3.0, -2.5])
    ys = np.array([1.0, -4.0, 0.5])
    u, v = m.uv(xs, ys)
    # direct evaluation of u = a1 + a2*x + a3*y, v = a4 + a5*x + a6*y
    assert np.allclose(u, 0.5 + 0.1 * xs - 0.2 * ys, atol=0.0)
    assert np.allclose(v, -1.0 + 0.03 * xs + 0.07 * ys, atol=0.0)


def test_warp_is_identity_plus_displacement():
    m = AffineModel(a1=2.0, a4=-3.0)
    x, y = m.warp(5.0, 7.0)
    assert x == 7.0 and y == 4.0


def test_identity_model_is_fixed_point():
    m = AffineModel()
    xs = np.arange(10.0)
    wx, wy = m.warp(xs, xs[::-1])
    assert np.array_equal(wx, xs)
    assert np.array_equal(wy, xs[::-1])


def test_nonfinite_parameters_rejected():
    with pytest.raises(ValueError):
        AffineModel(a1=float("nan"))
    with pytest.raises(ValueError):
        AffineModel(a6=float("inf"))


def test_point_matrix_agrees_with_warp():
    m = AffineModel(a1=0.7, a2=0.02, a3=-0.01, a4=-0.4, a5=0.015, a6=0.03)
    xs = np.linspace(-3.0, 9.0, 13)
    ys = np.linspace(4.0, -6.0, 13)
    wx, wy = m.warp(xs, ys)
    mx, my = apply_point_matrix(m.point_matrix(), xs, ys)
    assert np.allclose(wx, mx, atol=1e-12)
    assert np.allclose(wy, my, atol=1e-12)


def test_lstsq_recovers_exact_model():
    true = AffineModel(a1=0.8, a2=-0.05, a3=0.11, a4=-0.6, a5=0.02, a6=0.09)
    gy, gx = np.mgrid[0:6, 0:7]
    xs = gx.ravel().astype(np.float64)
    ys = gy.ravel().astype(np.float64)
    u, v = true.uv(xs, ys)
    fit = AffineModel.fit_lstsq(xs, ys, u, v)
    assert np.allclose(fit.params, true.params, atol=1e-12)


def test_lstsq_with_gaussian_noise_is_close():
    rng = np.random.default_rng(4)
    true = AffineModel(a1=1.0, a2=0.1, a4=-0.5, a6=-0.02)
    gy, gx = np.mgrid[0:20, 0:20]
    xs = gx.ravel().astype(np.float64)
    ys = gy.ravel().astype(np.float64)
    u, v = true.uv(xs, ys)
    fit = AffineModel.fit_lstsq(xs, ys,
                                u + rng.normal(0.0, 0.01, u.shape),
                                v + rng.normal(0.0, 0.01, v.shape))
    # 400 samples at sigma 0.01: parameter error well under 0.01
    assert np.allclose(fit.params, true.params, atol=0.01)


def test_invert_point_map_round_trip():
    m = AffineModel(a1=2.0, a2=0.1, a3=-0.05, a4=-1.0, a5=0.02, a6=0.15)
    inv = invert_point_map(m)
    xs = np.array([0.0, 4.0, -7.0, 13.5])
    ys = np.array([5.0, -2.0, 8.0, 0.25])
    wx, wy = m.warp(xs, ys)
    bx, by = apply_point_matrix(inv, wx, wy)
    assert np.allclose(bx, xs, atol=1e-10)
    assert np.allclose(by, ys, atol=1e-10)


def test_invert_point_map_singular_raises():
    # a2 = -1 collapses the x axis: point map sends every x to a3*y + a1
    with pytest.raises(ValueError):
        invert_point_map(AffineModel(a2=-1.0))


def test_model_is_hashable_and_frozen():
    m = AffineModel(a1=1.0)
    assert AffineModel(a1=1.0) in {m}
    with pytest.raises(Exception):
        m.a1 = 2.0
