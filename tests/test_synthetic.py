import numpy as np
import pytest

from virso_kit.errors import InvalidParameterError
from virso_kit.graphs import estimate_density
from virso_kit.synthetic import (
    SynthSpec,
    generate_dataset,
    generate_points,
    input_vector,
    manufactured_fields,
    wall_distance,
)


def test_points_deterministic_and_exact_count():
    spec = SynthSpec(n_target=400, sample_count=5, seed=3)
    p1 = generate_points(spec)
    p2 = generate_points(spec)
    assert p1.n == 400
    assert np.array_equal(p1.coords, p2.coords)


def test_points_avoid_hole():
    spec = SynthSpec(n_target=300, seed=1)
    pts = generate_points(spec)
    assert np.all(wall_distance(pts.coords, spec) > 0)
    assert pts.coords.min() >= 0 and pts.coords.max() <= 1


def test_densification_creates_density_gradient():
    spec = SynthSpec(n_target=500, densify_factor=4.0, seed=2)
    pts = generate_points(spec)
    dens = estimate_density(pts, 0.05)
    dist = wall_distance(pts.coords, spec)
    near = dens[dist <= spec.band_width]
    interior = dens[dist > 2 * spec.band_width]
    assert np.mean(near) >= 2.0 * np.median(interior)


def test_densification_one_is_near_uniform():
    spec = SynthSpec(n_target=500, densify_factor=1.0, seed=2)
    pts = generate_points(spec)
    dens = estimate_density(pts, 0.07)
    dist = wall_distance(pts.coords, spec)
    near = dens[dist <= spec.band_width]
    interior = dens[dist > 2 * spec.band_width]
    assert np.mean(near) < 1.5 * np.median(interior)


def test_fields_match_direct_formula():
    spec = SynthSpec(n_target=200, seed=4)
    pts = generate_points(spec)
    rng = np.random.default_rng(0)
    a, t_in, v_in = rng.uniform(540, 660), rng.uniform(540, 650), rng.uniform(4.1, 4.9)
    got = manufactured_fields(pts.coords, a, t_in, v_in, spec)
    x, y = pts.coords[:, 0], pts.coords[:, 1]
    d = np.sqrt((x - 0.5) ** 2 + (y - 0.5) ** 2) - 0.25
    g = 1 - np.exp(-d / 0.1)
    assert np.max(np.abs(got[:, 0] - (t_in + a * g * np.sin(np.pi * x) * np.sin(np.pi * y) * 1e-3))) < 1e-12
    assert np.max(np.abs(got[:, 1] - v_in * g)) < 1e-12
    assert np.max(np.abs(got[:, 2] - 0.01 * v_in**2 * g * (1 - g))) < 1e-12


def test_zero_amplitude_flattens_temperature_and_profile():
    spec = SynthSpec(n_target=120, seed=5)
    pts = generate_points(spec)
    fields = manufactured_fields(pts.coords, 0.0, 600.0, 4.5, spec)
    assert np.all(fields[:, 0] == 600.0)
    u = input_vector(0.0, 600.0, 4.5, spec.profile_len)
    assert np.all(u[2:] == 0.0)
    assert u[0] == 600.0 and u[1] == 4.5


def test_k_channel_peaks_near_wall():
    spec = SynthSpec(n_target=400, seed=6)
    pts = generate_points(spec)
    fields = manufactured_fields(pts.coords, 600.0, 600.0, 4.5, spec)
    dist = wall_distance(pts.coords, spec)
    k = fields[:, 2]
    near = k[(dist > 0.02) & (dist < 0.12)]
    far = k[dist > 0.4]
    assert near.mean() > 2 * far.mean()


def test_dataset_generation_and_ratio():
    spec = SynthSpec(n_target=400, sample_count=12, seed=7)
    ds, pts = generate_dataset(spec)
    assert ds.count == 12
    assert ds.q == 22
    assert ds.targets.shape == (12, 400, 3)
    ratio = ds.meta["reconstruction_ratio"]
    assert abs(ratio - 400 * 3 / 22) < 1e-12
    assert ratio >= 40
    # stored targets reproduce the closed form exactly
    u0 = ds.inputs[0]
    t_in, v_in = u0[0], u0[1]
    a = u0[2] / np.sin(np.pi * 1 / (spec.profile_len + 1))
    ref = manufactured_fields(pts.coords, a, t_in, v_in, spec)
    assert np.max(np.abs(ds.targets[0] - ref)) < 1e-9
    # inputs carry no coordinates: width is profile + 2 scalars only
    assert ds.inputs.shape[1] == spec.profile_len + 2


def test_dataset_deterministic_per_seed():
    spec = SynthSpec(n_target=200, sample_count=6, seed=9)
    d1, _ = generate_dataset(spec)
    d2, _ = generate_dataset(spec)
    assert np.array_equal(d1.inputs, d2.inputs)
    assert np.array_equal(d1.targets, d2.targets)


def test_parameter_draws_within_ranges():
    spec = SynthSpec(n_target=100, sample_count=40, seed=10)
    ds, _ = generate_dataset(spec)
    t_in, v_in = ds.inputs[:, 0], ds.inputs[:, 1]
    assert t_in.min() >= spec.t_in_range[0] and t_in.max() <= spec.t_in_range[1]
    assert v_in.min() >= spec.v_in_range[0] and v_in.max() <= spec.v_in_range[1]


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        SynthSpec(n_target=10)
    with pytest.raises(InvalidParameterError):
        SynthSpec(densify_factor=0.5)
    with pytest.raises(InvalidParameterError):
        SynthSpec(a_range=(700.0, 600.0))
