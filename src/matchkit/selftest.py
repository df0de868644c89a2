"""Built-in oracle suite for the `selftest` subcommand.

A fast, deterministic subset of the package's verification checks: each entry
recomputes an expected value through an independent route (closed form, brute
force, or construction) and compares. Runs in a few seconds with no test
framework required.
"""

from __future__ import annotations

import math

import numpy as np

from . import (
    AnchorProbs,
    CorrespondenceSet,
    GridSpec,
    KernelSpec,
    SupportSet,
    WarpField,
    auc,
    bilinear_sample,
    build_anchor_grid,
    charbonnier_grad,
    charbonnier_nll,
    closest_anchor,
    diffuse,
    exp_cos_kernel,
    fit_steering_lsq,
    gp_posterior_mean,
    kde_density,
    maa,
    normalize_joint,
    rasterize_scene,
    synth_equivariant,
    to_warp,
    two_translation_scene,
)
from .grids import containing_cells
from .steering import random_c4_steering


def _check(cond: bool, detail: str) -> None:
    if not cond:
        raise AssertionError(detail)


def _pixel_round_trip() -> None:
    for h, w in ((1, 1), (3, 5), (16, 16), (32, 9)):
        g = GridSpec(h, w)
        rows, cols = containing_cells(g.cell_centers(), g)
        _check(
            np.array_equal(rows * w + cols, np.arange(g.n_cells)),
            f"cell centers do not map back to their cells on {h}x{w}",
        )


def _bilinear_midpoint() -> None:
    g = GridSpec(4, 4)
    rng = np.random.default_rng(0)
    field = WarpField(g, rng.uniform(-1, 1, (4, 4, 2)), rng.uniform(0, 1, (4, 4)))
    a, b = g.cell_centers().reshape(4, 4, 2)[1, 1:3]  # centers of cells (1, 1) and (1, 2)
    got, _ = bilinear_sample(field, (a + b) / 2)
    want = (field.target_coords[1, 1] + field.target_coords[1, 2]) / 2
    _check(np.allclose(got, want, atol=1e-12), "bilinear midpoint mismatch")


def _to_warp_two_anchor_midpoint() -> None:
    grid = build_anchor_grid(1, 4)
    pi = np.zeros((1, 4))
    pi[0, 1] = pi[0, 2] = 0.5
    w = to_warp(AnchorProbs(GridSpec(1, 1), pi, np.array([1.0])), grid)
    want = (grid.anchors[1] + grid.anchors[2]) / 2
    _check(np.allclose(w.target_coords[0, 0], want, atol=1e-12), "to_warp midpoint mismatch")


def _closest_anchor_brute() -> None:
    grid = build_anchor_grid(8, 8)
    rng = np.random.default_rng(1)
    anchors = grid.anchors
    for _ in range(100):
        x = rng.uniform(-1, 1, 2)
        dists = np.linalg.norm(anchors - x, axis=1)
        best = int(np.flatnonzero(dists == dists.min())[0])
        _check(int(closest_anchor(grid, x)) == best, f"closest anchor mismatch at {x}")


def _charbonnier_values() -> None:
    z = np.zeros(2)
    _check(
        abs(charbonnier_nll(z, z, 0.03) - 0.03**0.25) < 1e-15, "charbonnier floor mismatch"
    )
    mag = np.linalg.norm(charbonnier_grad(np.array([100.0, 0.0]), z, 0.03))
    _check(abs(mag - 0.05) / 0.05 < 0.01, "charbonnier tail asymptote mismatch")


def _charbonnier_fd() -> None:
    rng = np.random.default_rng(2)
    for _ in range(20):
        mu = rng.uniform(-2, 2, 2)
        x = rng.uniform(-2, 2, 2)
        s = rng.uniform(0.01, 0.5)
        got = charbonnier_grad(mu, x, s)
        for i in range(2):
            hi, lo = mu.copy(), mu.copy()
            hi[i] += 1e-5
            lo[i] -= 1e-5
            fd = (charbonnier_nll(hi, x, s) - charbonnier_nll(lo, x, s)) / 2e-5
            _check(abs(got[i] - fd) < 1e-4 * max(abs(fd), 1e-3), "charbonnier FD mismatch")


def _gp_checks() -> None:
    f = np.array([0.5, -1.0, 2.0])
    _check(
        abs(exp_cos_kernel(f, f, 10.0) - math.exp(10.0)) < 1e-8, "kernel diagonal mismatch"
    )
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(6, 4))
    emb = rng.normal(size=(6, 2))
    out = gp_posterior_mean(feats, SupportSet(feats, emb), KernelSpec(10.0, 1e-10))
    _check(np.max(np.abs(out - emb)) < 1e-6, "gp interpolation mismatch")


def _diffusion_mass() -> None:
    src = GridSpec(12, 12)
    base = rasterize_scene(two_translation_scene(), src, src)
    for s in (0.05, 0.2):
        q = diffuse(base, s)
        _check(abs(q.joint.probs.sum() - 1.0) < 1e-9, "diffusion mass leak")


def _joint_normalization() -> None:
    rng = np.random.default_rng(4)
    g = GridSpec(4, 4)
    raw = rng.uniform(0, 1, (16, 16))
    j = normalize_joint(raw, g, g)
    _check(abs(j.probs.sum() - 1.0) < 1e-12, "joint normalization mismatch")


def _steering_recovery() -> None:
    w_true = random_c4_steering(16, seed=5)
    sets = synth_equivariant(96, 16, w_true=w_true, noise_sigma=0.0, seed=6)
    w, _ = fit_steering_lsq(sets[0], sets[1])
    _check(np.linalg.norm(w.w - w_true.w) < 1e-6, "steering lsq recovery failed")
    _check(np.linalg.norm(w.power(4) - np.eye(16)) < 1e-4, "fitted W^4 deviates from I")


def _kde_brute() -> None:
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, (40, 4))
    h = 0.3
    got = kde_density(pts, h)
    want = np.array(
        [sum(math.exp(-0.5 * float(((p - q) ** 2).sum()) / (h * h)) for q in pts) for p in pts]
    ) / (2 * math.pi * h * h) ** 2
    _check(np.max(np.abs(got - want)) < 1e-10, "kde brute-force mismatch")


def _metric_oracles() -> None:
    _check(abs(auc(np.array([1.0]), 5.0) - 0.8) < 1e-12, "auc hand case mismatch")
    rot = np.array([0.5, 3.0, 20.0])
    trans = np.array([0.1, 5.0, 0.3])
    got = maa(rot, trans, np.array([1.0, 4.0]), np.array([1.0, 4.0]))
    _check(abs(got - 0.5 * (1 / 3 + 1 / 3)) < 1e-12, "maa hand count mismatch")


def _correspondence_csv_round_trip() -> None:
    import tempfile
    from pathlib import Path

    from .fileio import read_correspondences_csv, write_correspondences_csv

    cs = CorrespondenceSet(
        np.array([[0.125, -0.5], [0.25, 0.75]]),
        np.array([[-0.375, 0.0], [0.5, -0.125]]),
        np.array([1.0, 0.25]),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.csv"
        write_correspondences_csv(path, cs)
        back = read_correspondences_csv(path)
        _check(np.array_equal(back.xa, cs.xa), "csv round trip xa mismatch")
        _check(np.array_equal(back.weights, cs.weights), "csv round trip weights mismatch")


CHECKS = (
    ("pixel round trip", _pixel_round_trip),
    ("bilinear midpoint identity", _bilinear_midpoint),
    ("warp decode midpoint", _to_warp_two_anchor_midpoint),
    ("closest anchor vs brute force", _closest_anchor_brute),
    ("charbonnier closed forms", _charbonnier_values),
    ("charbonnier finite differences", _charbonnier_fd),
    ("gp kernel and interpolation", _gp_checks),
    ("diffusion mass conservation", _diffusion_mass),
    ("joint normalization", _joint_normalization),
    ("steering lsq recovery", _steering_recovery),
    ("kde vs brute force", _kde_brute),
    ("metric hand cases", _metric_oracles),
    ("correspondence csv round trip", _correspondence_csv_round_trip),
)


def run_selftest() -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in CHECKS:
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # report, never abort the suite
            results.append((name, False, str(exc)))
    return results
