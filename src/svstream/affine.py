"""Six-parameter 2D affine flow models.

A model describes a per-pixel displacement field

    u(x, y) = a1 + a2*x + a3*y
    v(x, y) = a4 + a5*x + a6*y

in pixel coordinates relative to the frame origin.  The induced point map
x -> x + (u, v) is itself affine; point_matrix gives it in homogeneous form.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AffineModel:
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    a4: float = 0.0
    a5: float = 0.0
    a6: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite(p) for p in self.params):
            raise ValueError("affine parameters must be finite")

    @property
    def params(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a5, self.a6)

    def uv(self, xs, ys):
        """Displacement (u, v) at the given coordinates (arrays or scalars)."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        return self.a1 + self.a2 * xs + self.a3 * ys, self.a4 + self.a5 * xs + self.a6 * ys

    def warp(self, xs, ys):
        """Point map x -> x + (u, v)."""
        u, v = self.uv(xs, ys)
        return np.asarray(xs, dtype=np.float64) + u, np.asarray(ys, dtype=np.float64) + v

    def point_matrix(self) -> np.ndarray:
        """3x3 homogeneous matrix of the point map x -> x + (u, v)."""
        return np.array([
            [1.0 + self.a2, self.a3, self.a1],
            [self.a5, 1.0 + self.a6, self.a4],
            [0.0, 0.0, 1.0],
        ])

    @staticmethod
    def fit_lstsq(xs, ys, us, vs) -> "AffineModel":
        """Least-squares fit to sampled displacements (min-norm on degenerate input)."""
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        design = np.column_stack([np.ones_like(xs), xs, ys])
        coef_u, *_ = np.linalg.lstsq(design, np.asarray(us, dtype=np.float64), rcond=None)
        coef_v, *_ = np.linalg.lstsq(design, np.asarray(vs, dtype=np.float64), rcond=None)
        return AffineModel(a1=float(coef_u[0]), a2=float(coef_u[1]), a3=float(coef_u[2]),
                           a4=float(coef_v[0]), a5=float(coef_v[1]), a6=float(coef_v[2]))


def invert_point_map(model: AffineModel) -> np.ndarray:
    """3x3 homogeneous inverse of x -> x + (u, v); raises on a singular map."""
    m = model.point_matrix()
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) < 1e-12:
        raise ValueError("affine point map is singular")
    return np.linalg.inv(m)


def apply_point_matrix(m: np.ndarray, xs, ys):
    """Apply a 3x3 homogeneous affine matrix to coordinate arrays."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    return (m[0, 0] * xs + m[0, 1] * ys + m[0, 2],
            m[1, 0] * xs + m[1, 1] * ys + m[1, 2])
