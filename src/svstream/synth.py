"""Synthetic video scenes with exact ground-truth labels and flow.

A scene is a textured background plus a list of textured objects (rectangles
or ellipses), each carrying a six-parameter affine motion model.  Motion
parameters give the *backward* displacement field between consecutive frames
(current pixel -> where it was in the previous frame), the same convention the
rest of the pipeline uses for flow.  An object with motion (a1, a4) = (2, 0)
therefore appears 2 px further left in each successive frame, and every voxel
it owns carries ground-truth flow u = 2.

Ground truth is analytic: labels come from exact shape membership under the
accumulated pose, and flow at a voxel is its owner's model evaluated at the
voxel's coordinates.  Pixel noise, when requested, is added after labels and
flows are fixed, so it never perturbs the ground truth.

Textures are seeded value noise around a base color; flat fills would make
flow estimation and model comparison degenerate.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .affine import AffineModel, apply_point_matrix, invert_point_map
from .errors import DataError
from .imageops import pixel_grid, round_half_up
from .rng import MASK64, derive_seed, mix64_array

_LAT_X = 0x9E3779B97F4A7C15
_LAT_Y = 0xC2B2AE3D27D4EB4F
_LAT_S = 0xD6E8FEB86659FD93


@dataclass(frozen=True)
class ObjectSpec:
    shape: str                       # "rect" or "ellipse"
    geometry: tuple                  # rect: (x, y, w, h); ellipse: (cx, cy, rx, ry)
    color: tuple = (128, 128, 128)   # base RGB
    motion: AffineModel = field(default_factory=AffineModel)
    texture_seed: int | None = None  # derived from the scene seed when None


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    num_frames: int
    background_color: tuple = (96, 96, 96)
    background_motion: AffineModel = field(default_factory=AffineModel)
    objects: tuple = ()
    noise_sigma: float = 0.0
    texture_amplitude: float = 40.0
    seed: int = 0


def _hash_unit(base: int, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Hash integer lattice coordinates to floats in [0, 1)."""
    ux = ix.astype(np.int64).astype(np.uint64)
    uy = iy.astype(np.int64).astype(np.uint64)
    with np.errstate(over="ignore"):        # the 2**64 wrap is intended
        h = ux * np.uint64(_LAT_X) + uy * np.uint64(_LAT_Y) + np.uint64(base & MASK64)
        h = mix64_array(h) >> np.uint64(11)
    return h.astype(np.float64) * (1.0 / (1 << 53))


def value_noise(seed: int, salt: int, xs: np.ndarray, ys: np.ndarray, step: float) -> np.ndarray:
    """Smooth seeded noise in [0, 1) over continuous coordinates."""
    base = (seed * _LAT_S + salt * _LAT_X) & MASK64
    gx = np.asarray(xs, dtype=np.float64) / step
    gy = np.asarray(ys, dtype=np.float64) / step
    x0 = np.floor(gx)
    y0 = np.floor(gy)
    fx = gx - x0
    fy = gy - y0
    n00 = _hash_unit(base, x0, y0)
    n10 = _hash_unit(base, x0 + 1, y0)
    n01 = _hash_unit(base, x0, y0 + 1)
    n11 = _hash_unit(base, x0 + 1, y0 + 1)
    sx = fx * fx * (3.0 - 2.0 * fx)
    sy = fy * fy * (3.0 - 2.0 * fy)
    top = n00 + (n10 - n00) * sx
    bot = n01 + (n11 - n01) * sx
    return top + (bot - top) * sy


def _texture(seed: int, color, amplitude: float, lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
    """Base color modulated by two octaves of value noise, shape (..., 3) float."""
    n = 0.7 * value_noise(seed, 1, lx, ly, 4.0) + 0.3 * value_noise(seed, 2, lx, ly, 2.0)
    delta = amplitude * (2.0 * n - 1.0)
    out = np.empty(lx.shape + (3,), dtype=np.float64)
    for c in range(3):
        out[..., c] = float(color[c]) + delta
    return out


def _gauss_field(seed: int, shape) -> np.ndarray:
    """Deterministic standard-normal field via Box-Muller over hashed indices."""
    n = int(np.prod(shape))
    idx = np.arange(n, dtype=np.uint64)
    u1 = _hash_unit(seed & MASK64, idx, np.zeros_like(idx))
    u2 = _hash_unit(seed & MASK64, idx, np.ones_like(idx))
    u1 = np.maximum(u1, 2.0 ** -53)
    g = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return g.reshape(shape)


def _translate(tx: float, ty: float) -> np.ndarray:
    m = np.eye(3)
    m[0, 2] = tx
    m[1, 2] = ty
    return m


def _check_static(spec: SceneSpec) -> None:
    if spec.width < 4 or spec.height < 4:
        raise DataError("scene must be at least 4x4 pixels")
    if spec.num_frames < 1:
        raise DataError("scene needs at least one frame")
    # NaN fails every comparison, so each bound is stated as what must hold
    if not 0 <= spec.noise_sigma < np.inf:
        raise DataError("noise_sigma must be finite and >= 0")
    if not np.isfinite(spec.texture_amplitude):
        raise DataError("texture_amplitude must be finite")
    for i, obj in enumerate(spec.objects, start=1):
        if obj.shape not in ("rect", "ellipse"):
            raise DataError(f"object {i}: unknown shape {obj.shape!r}")
        if len(obj.geometry) != 4:
            raise DataError(f"object {i}: geometry needs 4 numbers")
        if not (np.all(np.isfinite(obj.geometry)) and min(obj.geometry[2:]) > 0):
            raise DataError(f"object {i}: geometry must be finite with a positive size")
    named = [(f"object {i}", obj.color) for i, obj in enumerate(spec.objects, start=1)]
    for name, color in [("background", spec.background_color)] + named:
        if len(color) != 3 or not all(0 <= c <= 255 for c in color):
            raise DataError(f"{name}: a color needs 3 components in 0..255")


def _check_extent(spec: SceneSpec, index: int, obj: ObjectSpec, pose: np.ndarray, t: int) -> None:
    """Objects must keep >= 1 px of margin to every frame border."""
    if obj.shape == "rect":
        w, h = obj.geometry[2], obj.geometry[3]
        cx = np.array([0.0, w, 0.0, w])
        cy = np.array([0.0, 0.0, h, h])
        xs, ys = apply_point_matrix(pose, cx, cy)
        lo_x, hi_x, lo_y, hi_y = xs.min(), xs.max(), ys.min(), ys.max()
    else:
        rx, ry = obj.geometry[2], obj.geometry[3]
        ex = np.hypot(pose[0, 0] * rx, pose[0, 1] * ry)
        ey = np.hypot(pose[1, 0] * rx, pose[1, 1] * ry)
        lo_x, hi_x = pose[0, 2] - ex, pose[0, 2] + ex
        lo_y, hi_y = pose[1, 2] - ey, pose[1, 2] + ey
    if lo_x < 1.0 or hi_x > spec.width - 2.0 or lo_y < 1.0 or hi_y > spec.height - 2.0:
        raise DataError(f"object {index} leaves the frame at t={t}")


def _membership(obj: ObjectSpec, lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
    if obj.shape == "rect":
        w, h = obj.geometry[2], obj.geometry[3]
        return (lx >= 0.0) & (lx < w) & (ly >= 0.0) & (ly < h)
    rx, ry = obj.geometry[2], obj.geometry[3]
    return (lx / rx) ** 2 + (ly / ry) ** 2 <= 1.0


def generate(spec: SceneSpec):
    """Render a scene.

    Returns (frames, gt_labels, gt_flows): frames is (T, H, W, 3) uint8,
    gt_labels is (T, H, W) int32 with 0 for background and i for object i
    (later objects occlude earlier ones), gt_flows is a list of T-1 backward
    flow fields of shape (H, W, 2) float32 for the pairs (t-1, t).
    """
    _check_static(spec)
    T, H, W = spec.num_frames, spec.height, spec.width
    px, py = pixel_grid(H, W)

    # initial poses (local -> frame) and per-pair forward point maps
    bg_pose = np.eye(3)
    bg_fwd = invert_point_map(spec.background_motion)
    poses, fwds, seeds = [], [], []
    for i, obj in enumerate(spec.objects, start=1):
        # rects anchor at their top-left corner, ellipses at their center
        poses.append(_translate(obj.geometry[0], obj.geometry[1]))
        fwds.append(invert_point_map(obj.motion))
        seeds.append(obj.texture_seed if obj.texture_seed is not None
                     else derive_seed(spec.seed, 1, i))
    bg_seed = derive_seed(spec.seed, 1, 0)

    models = [spec.background_motion] + [o.motion for o in spec.objects]
    frames = np.empty((T, H, W, 3), dtype=np.uint8)
    labels = np.empty((T, H, W), dtype=np.int32)
    flows = []

    for t in range(T):
        if t > 0:
            bg_pose = bg_fwd @ bg_pose
            poses = [fwd @ p for fwd, p in zip(fwds, poses)]
        for i, obj in enumerate(spec.objects, start=1):
            _check_extent(spec, i, obj, poses[i - 1], t)

        lx, ly = apply_point_matrix(np.linalg.inv(bg_pose), px, py)
        img = _texture(bg_seed, spec.background_color, spec.texture_amplitude, lx, ly)
        lab = np.zeros((H, W), dtype=np.int32)
        for i, obj in enumerate(spec.objects, start=1):
            lx, ly = apply_point_matrix(np.linalg.inv(poses[i - 1]), px, py)
            mask = _membership(obj, lx, ly)
            tex = _texture(seeds[i - 1], obj.color, spec.texture_amplitude, lx, ly)
            img[mask] = tex[mask]
            lab[mask] = i

        if spec.noise_sigma > 0:
            img = img + spec.noise_sigma * _gauss_field(derive_seed(spec.seed, 2, t), img.shape)
        frames[t] = np.clip(round_half_up(img), 0, 255).astype(np.uint8)
        labels[t] = lab

        if t > 0:
            uv = np.zeros((H, W, 2), dtype=np.float64)
            for idx, at in ndimage.value_indices(lab).items():
                uv[at] = np.stack(models[idx].uv(px[at], py[at]), axis=-1)
            flows.append(uv.astype(np.float32))

    return frames, labels, flows


def parse_scene_spec(text: str) -> SceneSpec:
    """Parse the flat scene description format.

    One `key = value` per line, `#` starts a comment.  Keys: width, height,
    frames, seed, noise_sigma, texture_amplitude, background_color (r g b),
    background_motion (a1..a6), and one `object = ...` line per object:

        object = rect X Y W H color R G B motion A1 A2 A3 A4 A5 A6 seed N

    with `color`, `motion`, `seed` optional (motion defaults to zero).  For
    ellipses the four geometry numbers are center x, center y, radius x,
    radius y.  Motion parameters are the backward per-pair displacement model.
    """
    fields = {"width": None, "height": None, "frames": None}
    opts = {"seed": 0, "noise_sigma": 0.0, "texture_amplitude": 40.0}
    bg_color = (96, 96, 96)
    bg_motion = AffineModel()
    objects = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"scene spec line {ln}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        try:
            if key in fields:
                fields[key] = int(val)
            elif key == "seed":
                opts["seed"] = int(val)
            elif key in ("noise_sigma", "texture_amplitude"):
                opts[key] = float(val)
            elif key == "background_color":
                bg_color = tuple(int(tok) for tok in val.split())
                if len(bg_color) != 3:
                    raise ValueError("need 3 numbers")
            elif key == "background_motion":
                params = [float(tok) for tok in val.split()]
                if len(params) != 6:
                    raise ValueError("need 6 numbers")
                bg_motion = AffineModel(*params)
            elif key == "object":
                objects.append(_parse_object(val))
            else:
                raise DataError(f"scene spec line {ln}: unknown key {key!r}")
        except (ValueError, IndexError) as exc:
            raise DataError(f"scene spec line {ln}: {exc}") from exc
    missing = [k for k, v in fields.items() if v is None]
    if missing:
        raise DataError(f"scene spec is missing: {', '.join(missing)}")
    return SceneSpec(width=fields["width"], height=fields["height"],
                     num_frames=fields["frames"], background_color=bg_color,
                     background_motion=bg_motion, objects=tuple(objects),
                     noise_sigma=opts["noise_sigma"],
                     texture_amplitude=opts["texture_amplitude"], seed=opts["seed"])


def _parse_object(val: str) -> ObjectSpec:
    toks = val.split()
    if len(toks) < 5:
        raise ValueError("object needs a shape and 4 geometry numbers")
    shape = toks[0]
    geometry = tuple(float(tok) for tok in toks[1:5])
    color = (128, 128, 128)
    motion = AffineModel()
    texture_seed = None
    pos = 5
    while pos < len(toks):
        word = toks[pos]
        if word == "color":
            color = tuple(int(tok) for tok in toks[pos + 1:pos + 4])
            if len(color) != 3:
                raise ValueError("color needs 3 numbers")
            pos += 4
        elif word == "motion":
            params = [float(tok) for tok in toks[pos + 1:pos + 7]]
            if len(params) != 6:
                raise ValueError("motion needs 6 numbers")
            motion = AffineModel(*params)
            pos += 7
        elif word == "seed":
            texture_seed = int(toks[pos + 1])
            pos += 2
        else:
            raise ValueError(f"unknown object keyword {word!r}")
    return ObjectSpec(shape=shape, geometry=geometry, color=color,
                      motion=motion, texture_seed=texture_seed)
