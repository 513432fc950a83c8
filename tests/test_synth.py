"""Synthetic scene generator: geometry, labels, exact flows, parsing."""
import warnings

import numpy as np
import pytest

from svstream.affine import AffineModel
from svstream.errors import DataError
from svstream.synth import (ObjectSpec, SceneSpec, generate, parse_scene_spec,
                            value_noise)


def _basic_spec(**kw):
    args = dict(width=32, height=24, num_frames=4,
                background_color=(80, 90, 100),
                background_motion=AffineModel(a1=0.5, a4=-0.25),
                objects=[ObjectSpec("rect", (4.0, 4.0, 8.0, 6.0), (200, 60, 40),
                                    AffineModel(a1=0.25, a4=0.5))],
                noise_sigma=0.0, texture_amplitude=30, seed=9)
    args.update(kw)
    return SceneSpec(**args)


def test_generate_shapes_and_dtypes():
    frames, labels, flows = generate(_basic_spec())
    assert frames.shape == (4, 24, 32, 3) and frames.dtype == np.uint8
    assert labels.shape == (4, 24, 32) and labels.dtype == np.int32
    assert len(flows) == 3
    assert flows[0].shape == (24, 32, 2) and flows[0].dtype == np.float32


def test_generate_deterministic():
    a = generate(_basic_spec())
    b = generate(_basic_spec())
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert all(np.array_equal(x, y) for x, y in zip(a[2], b[2]))


def test_labels_follow_the_object():
    # motion parameters are the backward displacement (current -> previous),
    # so a1=1, a4=-1 moves the object -1 px/frame in x and +1 px/frame in y
    spec = _basic_spec(objects=[ObjectSpec("rect", (8.0, 8.0, 8.0, 6.0),
                                           (200, 60, 40),
                                           AffineModel(a1=1.0, a4=-1.0))])
    _, labels, _ = generate(spec)
    assert labels[0, 9, 9] == 1
    assert labels[0, 7, 8] == 0
    c0 = np.argwhere(labels[0] == 1).mean(axis=0)
    c3 = np.argwhere(labels[3] == 1).mean(axis=0)
    assert c3[1] - c0[1] == pytest.approx(-3.0)
    assert c3[0] - c0[0] == pytest.approx(3.0)


def test_flows_equal_owner_model_exactly():
    spec = _basic_spec()
    _, labels, flows = generate(spec)
    h, w = spec.height, spec.width
    gx, gy = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    for t in range(1, spec.num_frames):
        flow = flows[t - 1].astype(np.float64)
        for idx, model in ((0, spec.background_motion), (1, spec.objects[0].motion)):
            m = labels[t] == idx
            u, v = model.uv(gx[m], gy[m])
            # float32 storage is the only loss
            assert np.array_equal(flow[m][:, 0], u.astype(np.float32).astype(np.float64))
            assert np.array_equal(flow[m][:, 1], v.astype(np.float32).astype(np.float64))


def test_later_objects_occlude_earlier():
    spec = _basic_spec(objects=[
        ObjectSpec("rect", (4.0, 4.0, 10.0, 10.0), (200, 60, 40), AffineModel()),
        ObjectSpec("rect", (6.0, 6.0, 4.0, 4.0), (20, 200, 40), AffineModel()),
    ])
    _, labels, _ = generate(spec)
    assert labels[0, 7, 7] == 2
    assert labels[0, 5, 5] == 1


def test_object_leaving_frame_rejected():
    # backward a1=-1.5 drives the rect 1.5 px/frame toward the right border
    spec = _basic_spec(objects=[ObjectSpec("rect", (24.0, 4.0, 6.0, 6.0),
                                           (200, 60, 40), AffineModel(a1=-1.5))])
    with pytest.raises(DataError, match="leaves the frame"):
        generate(spec)


def test_static_validation():
    with pytest.raises(DataError):
        generate(_basic_spec(width=2))
    with pytest.raises(DataError):
        generate(_basic_spec(noise_sigma=-1.0))
    with pytest.raises(DataError):
        generate(_basic_spec(objects=[ObjectSpec("blob", (1, 1, 2, 2),
                                                 (0, 0, 0), AffineModel())]))


def test_noise_changes_frames_only():
    clean = generate(_basic_spec(noise_sigma=0.0))
    noisy = generate(_basic_spec(noise_sigma=4.0))
    assert not np.array_equal(clean[0], noisy[0])
    assert np.array_equal(clean[1], noisy[1])
    assert all(np.array_equal(x, y) for x, y in zip(clean[2], noisy[2]))


def test_value_noise_scalar_equals_array_element():
    # the lattice hash wraps modulo 2**64; numpy scalars warn on that wrap
    # unless it is declared intended
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = value_noise(1, 2, 3.5, 4.5, 2.0)
        array = value_noise(1, 2, np.array([0.25, 3.5]), np.array([9.0, 4.5]), 2.0)
    assert scalar == array[1]


def test_parse_scene_spec_round_trip():
    text = """
    # a small scene
    width = 32
    height = 24
    frames = 4
    seed = 9
    noise_sigma = 0
    texture_amplitude = 30
    background_color = 80 90 100
    background_motion = 0.5 0 0 -0.25 0 0
    object = rect 4 4 8 6 color 200 60 40 motion 0.25 0 0 0.5 0 0
    """
    spec = parse_scene_spec(text)
    assert spec.width == 32 and spec.height == 24 and spec.num_frames == 4
    assert spec.background_motion.a1 == 0.5
    assert len(spec.objects) == 1
    obj = spec.objects[0]
    assert obj.shape == "rect" and obj.motion.a4 == 0.5
    frames, labels, flows = generate(spec)
    ref = generate(_basic_spec())
    assert np.array_equal(frames, ref[0])
    assert np.array_equal(labels, ref[1])


def test_parse_scene_spec_rejects_unknown_key():
    with pytest.raises(DataError, match="unknown key"):
        parse_scene_spec("width = 8\nheight = 8\nframes = 1\nbogus = 3\n")


def test_parse_scene_spec_rejects_bad_object():
    with pytest.raises(DataError):
        parse_scene_spec("width = 8\nheight = 8\nframes = 1\n"
                         "object = rect 1 2 3\n")
