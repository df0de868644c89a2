import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchkit import (
    AnchorProbs,
    CoarseLossConfig,
    CorrespondenceSet,
    FineLossConfig,
    GridSpec,
    WarpField,
    build_anchor_grid,
    charbonnier_grad,
    charbonnier_nll,
    coarse_loss,
    fine_loss,
    gradient_sweep,
)
from matchkit import kernel_matrix, synth_equivariant
from matchkit import closest_anchor
from matchkit.grids import bilinear, bilinear_taps, containing_cells
from matchkit.losses import LOG_EPS, MAX_SWEEP_STEPS, coarse_loss_raw


def test_charbonnier_closed_forms():
    x = np.zeros(2)
    assert np.isclose(charbonnier_nll(x, x, 0.03), 0.03**0.25)
    assert np.isclose(charbonnier_nll(x, x, 0.03), 0.416179, atol=1e-6)
    assert np.isclose(charbonnier_nll(x, x, 1.0), 1.0)


def test_charbonnier_large_residual_high_precision():
    from decimal import Decimal, getcontext

    getcontext().prec = 60
    mu = np.array([3.0, 0.0])
    x = np.zeros(2)
    want = float(Decimal("9.03") ** (Decimal(1) / Decimal(4)))
    assert np.isclose(charbonnier_nll(mu, x, 0.03), want, rtol=1e-14)


def test_charbonnier_grad_zero_at_minimum():
    x = np.array([0.4, -0.2])
    assert np.allclose(charbonnier_grad(x, x, 0.03), 0.0)


def test_charbonnier_grad_asymptote_at_large_r():
    mu = np.array([100.0, 0.0])
    x = np.zeros(2)
    mag = np.linalg.norm(charbonnier_grad(mu, x, 0.03))
    assert abs(mag - 0.5 * 100.0**-0.5) / (0.5 * 100.0**-0.5) < 0.01


def central_difference(f, x, step=1e-5):
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi.flat[i] += step
        lo.flat[i] -= step
        g.flat[i] = (f(hi) - f(lo)) / (2 * step)
    return g


def test_charbonnier_grad_matches_finite_differences():
    rng = np.random.default_rng(30)
    for _ in range(100):
        mu = rng.uniform(-2, 2, 2)
        x = rng.uniform(-2, 2, 2)
        s = rng.uniform(0.01, 0.5)
        got = charbonnier_grad(mu, x, s)
        want = central_difference(lambda m: float(charbonnier_nll(m, x, s)), mu)
        assert np.allclose(got, want, rtol=1e-5, atol=1e-9)


def test_charbonnier_rejects_nonpositive_scale():
    with pytest.raises(ValueError):
        charbonnier_nll(np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        charbonnier_grad(np.zeros(2), np.zeros(2), -1.0)


def test_gradient_magnitude_single_maximum():
    r = np.geomspace(1e-4, 1e3, 4000)
    mag = 0.5 * r * (r**2 + 0.03) ** -0.75
    rising = np.flatnonzero(np.diff(mag) > 0)
    falling = np.flatnonzero(np.diff(mag) < 0)
    assert rising.size and falling.size
    assert rising.max() < falling.min()  # increases, peaks once, then decays


def make_coarse_setup(rng, source=None, grid=None):
    source = source or GridSpec(2, 3)
    grid = grid or build_anchor_grid(3, 3)
    pi = rng.uniform(0.05, 1.0, (source.n_cells, grid.count))
    pi /= pi.sum(axis=1, keepdims=True)
    match = rng.uniform(0.05, 0.95, source.n_cells)
    mask = rng.uniform(0, 1, source.n_cells) > 0.5
    n = 5
    corr = CorrespondenceSet(
        rng.uniform(-0.9, 0.9, (n, 2)), rng.uniform(-0.9, 0.9, (n, 2)), rng.uniform(0.2, 2.0, n)
    )
    cfg = CoarseLossConfig(marginal_weight=rng.uniform(0.1, 2.0), anchor_grid=grid)
    return source, pi, match, mask, corr, cfg


def test_coarse_loss_zero_at_perfect_prediction():
    source = GridSpec(1, 1)
    grid = build_anchor_grid(2, 2)
    corr = CorrespondenceSet(np.array([[0.0, 0.0]]), np.array([[0.5, 0.5]]), np.array([1.0]))
    pi = np.zeros((1, 4))
    pi[0, 3] = 1.0  # anchor containing (0.5, 0.5)
    probs = AnchorProbs(source, pi, np.array([1.0 - 1e-12]))
    res = coarse_loss(probs, np.array([True]), corr, CoarseLossConfig(1.0, grid))
    assert abs(res.value) < 1e-9


def test_coarse_loss_uniform_pi_gives_log_k():
    source = GridSpec(2, 2)
    grid = build_anchor_grid(4, 4)
    rng = np.random.default_rng(31)
    pi = np.full((4, 16), 1 / 16)
    probs = AnchorProbs(source, pi, np.full(4, 0.5))
    corr = CorrespondenceSet(
        rng.uniform(-0.9, 0.9, (6, 2)), rng.uniform(-0.9, 0.9, (6, 2)), np.ones(6)
    )
    res = coarse_loss(probs, np.ones(4, bool), corr, CoarseLossConfig(1.0, grid))
    assert np.isclose(res.conditional_term, math.log(16))
    assert np.isclose(res.conditional_term, 2.7726, atol=1e-4)


def test_coarse_loss_refuses_a_marginal_weight_that_overflows():
    source = GridSpec(2, 2)
    grid = build_anchor_grid(4, 4)
    probs = AnchorProbs(source, np.full((4, 16), 1 / 16), np.full(4, 0.001))
    corr = CorrespondenceSet(np.zeros((1, 2)), np.zeros((1, 2)), np.ones(1))
    mask = np.ones(4, bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning on the way
        res = coarse_loss(probs, mask, corr, CoarseLossConfig(1e300, grid))
        assert np.isfinite(res.value) and np.all(np.isfinite(res.d_matchability))
        with pytest.raises(ValueError, match=r"^marginal weight 1e\+308 is too large: the coarse loss overflows$"):
            coarse_loss(probs, mask, corr, CoarseLossConfig(1e308, grid))


@pytest.mark.parametrize(
    "anchors, rows, n_match, message",
    [
        # Unrefused, 64-anchor probs scored on 16 anchors read columns 0-15 as the anchors.
        ((4, 4), 16, 16, "pi shape (16, 64) and matchability shape (16,) must be (16, 16) and (16,)"),
        ((16, 16), 16, 16, "pi shape (16, 64) and matchability shape (16,) must be (16, 256) and (16,)"),
        ((8, 8), 8, 16, "pi shape (8, 64) and matchability shape (16,) must be (16, 64) and (16,)"),
        # Unrefused, one matchability value is broadcast to every cell.
        ((8, 8), 16, 1, "pi shape (16, 64) and matchability shape (1,) must be (16, 64) and (16,)"),
    ],
    ids=["fewer anchors", "more anchors", "fewer rows", "one matchability"],
)
def test_coarse_loss_refuses_pi_or_matchability_that_misfit_the_grids(anchors, rows, n_match, message):
    source = GridSpec(4, 4)
    corr = CorrespondenceSet(np.full((1, 2), 0.9), np.full((1, 2), 0.9), np.ones(1))
    cfg = CoarseLossConfig(1.0, build_anchor_grid(*anchors))
    pi, match = np.full((rows, 64), 1 / 64), np.full(n_match, 0.5)
    with pytest.raises(ValueError) as exc:
        if rows == n_match == source.n_cells:  # AnchorProbs itself refuses the other two
            coarse_loss(AnchorProbs(source, pi, match), np.ones(16, bool), corr, cfg)
        else:
            coarse_loss_raw(pi, match, source, np.ones(16, bool), corr, cfg)
    assert str(exc.value) == message


EMPTY_CORR = CorrespondenceSet(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))


def test_coarse_loss_rejects_empty_corr():
    rng = np.random.default_rng(32)
    source, pi, match, mask, corr, cfg = make_coarse_setup(rng)
    with pytest.raises(ValueError, match="correspondence set is empty"):
        coarse_loss_raw(pi, match, source, mask, EMPTY_CORR, cfg)


def test_coarse_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(33)
    for _ in range(100):
        source, pi, match, mask, corr, cfg = make_coarse_setup(rng)
        res = coarse_loss_raw(pi, match, source, mask, corr, cfg)

        def f_pi(p):
            return coarse_loss_raw(p.reshape(pi.shape), match, source, mask, corr, cfg).value

        def f_match(m):
            return coarse_loss_raw(pi, m, source, mask, corr, cfg).value

        fd_pi = central_difference(f_pi, pi.ravel().copy()).reshape(pi.shape)
        fd_match = central_difference(f_match, match.copy())
        scale = np.maximum(np.abs(fd_pi), 1e-6)
        assert np.all(np.abs(res.d_pi - fd_pi) / scale < 1e-4)
        scale_m = np.maximum(np.abs(fd_match), 1e-6)
        assert np.all(np.abs(res.d_matchability - fd_match) / scale_m < 1e-4)


def eager_d_pi(pi, source, corr, cfg):
    """The coarse gradient as it was built on every call: a dense zero array plus the live terms."""
    rows, cols = containing_cells(corr.xa, source)
    cells = rows * source.width + cols
    kdag = closest_anchor(cfg.anchor_grid, corr.xb)
    w = corr.weights
    picked = pi[cells, kdag]
    live = picked > LOG_EPS
    d_pi = np.zeros(pi.shape)
    np.add.at(d_pi, (cells[live], kdag[live]), -(w[live] / float(w.sum())) / np.maximum(picked, LOG_EPS)[live])
    return d_pi


def test_value_only_coarse_loss_allocates_no_dense_gradient():
    grid = build_anchor_grid(64, 64)
    source = GridSpec(16, 16)
    probs = AnchorProbs(source, np.full((source.n_cells, grid.count), 1 / grid.count), np.full(source.n_cells, 0.5))
    centers = source.cell_centers()
    corr = CorrespondenceSet(centers, np.clip(centers * 0.9 + 0.05, -1, 1), np.ones(len(centers)))
    mask = np.ones(source.n_cells, bool)
    cfg = CoarseLossConfig(1.0, grid)
    coarse_loss(probs, mask, corr, cfg)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        res = coarse_loss(probs, mask, corr, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak  # a dense d_pi alone is 8.4 MB
    assert res.d_pi is res.d_pi
    assert np.array_equal(res.d_pi, eager_d_pi(probs.pi, source, corr, cfg))


def test_deferred_gradients_do_not_read_caller_arrays():
    rng = np.random.default_rng(39)
    source, pi, match, mask, corr, cfg = make_coarse_setup(rng, GridSpec(3, 4), build_anchor_grid(4, 4))
    rows, cols = containing_cells(corr.xa, source)
    pi[rows[0] * source.width + cols[0], closest_anchor(cfg.anchor_grid, corr.xb[:1])[0]] = 0.0  # a dead term
    fmask = mask.astype(float)
    want = eager_d_pi(pi, source, corr, cfg)
    res = coarse_loss_raw(pi, match, source, fmask, corr, cfg)
    pi[...] = rng.uniform(0.0, 1.0, pi.shape)
    fmask[...] = 1.0 - fmask
    assert np.array_equal(res.d_pi, want)

    warps, corr, masks, fcfg = make_fine_setup(rng, scales=(0, 2))
    masks = {i: m.astype(float) for i, m in masks.items()}
    want = {}
    for i, fld in warps.items():
        taps = bilinear_taps(fld.certainty.shape, corr.xa[:, 0], corr.xa[:, 1])
        g_mu = charbonnier_grad(bilinear(fld.target_coords, taps), corr.xb, fcfg.scale_value(i))
        g_mu = g_mu * (corr.weights / corr.weights.sum())[:, None]
        cells, bw = (np.stack(part, axis=-1) for part in zip(*taps))
        d_coords = np.zeros_like(fld.target_coords)
        np.add.at(d_coords.reshape(-1, 2), cells.ravel(), (bw[..., None] * g_mu[:, None, :]).reshape(-1, 2))
        p, y = fld.certainty, masks[i].copy()
        pc = np.clip(p, LOG_EPS, 1.0 - LOG_EPS)
        interior = (p > LOG_EPS) & (p < 1.0 - LOG_EPS)
        want[i] = d_coords, np.where(interior, (-y / pc + (1.0 - y) / (1.0 - pc)) / p.size, 0.0)
    res = fine_loss(warps, corr, masks, fcfg)
    for m in masks.values():
        m[...] = 1.0 - m
    for i, (d_coords, d_cert) in want.items():
        assert np.array_equal(res.scales[i].d_coords, d_coords)
        assert np.array_equal(res.scales[i].d_certainty, d_cert)
        assert res.scales[i].d_certainty is res.scales[i].d_certainty


def test_coarse_loss_invariant_to_non_closest_redistribution():
    # Holding pi at the chosen anchors fixed, shuffling the remaining mass
    # around cannot change the conditional term.
    rng = np.random.default_rng(34)
    source, pi, match, mask, corr, cfg = make_coarse_setup(rng)
    base = coarse_loss_raw(pi, match, source, mask, corr, cfg)
    from matchkit import closest_anchor
    from matchkit.grids import containing_cells

    kdag = closest_anchor(cfg.anchor_grid, corr.xb)
    rows, cols = containing_cells(corr.xa, source)
    protected = set(zip((rows * source.width + cols).tolist(), kdag.tolist()))
    pi2 = pi.copy()
    for cell in range(pi.shape[0]):
        free = [k for k in range(pi.shape[1]) if (cell, k) not in protected]
        vals = pi2[cell, free]
        pi2[cell, free] = rng.permutation(vals)
    shuffled = coarse_loss_raw(pi2, match, source, mask, corr, cfg)
    assert np.isclose(base.conditional_term, shuffled.conditional_term, atol=1e-12)


def make_fine_setup(rng, scales=(0, 1, 2, 3), h=4, w=4, n=6):
    cfg = FineLossConfig(c=0.03, scales=tuple(scales))
    corr = CorrespondenceSet(
        rng.uniform(-0.9, 0.9, (n, 2)), rng.uniform(-0.9, 0.9, (n, 2)), rng.uniform(0.2, 2.0, n)
    )
    warps = {}
    masks = {}
    for i in scales:
        grid = GridSpec(h, w)
        warps[i] = WarpField(
            grid, rng.uniform(-1, 1, (h, w, 2)), rng.uniform(0.05, 0.95, (h, w))
        )
        masks[i] = rng.uniform(0, 1, (h, w)) > 0.4
    return warps, corr, masks, cfg


def test_fine_loss_perfect_warp_closed_form():
    # Identity scene: warp equals ground truth everywhere, certainty matches
    # the mask exactly, so only the Charbonnier floor remains.
    grid = GridSpec(4, 4)
    centers = grid.cell_centers()
    corr = CorrespondenceSet(centers, centers, np.ones(len(centers)))
    warp = WarpField(grid, centers.reshape(4, 4, 2), np.ones((4, 4)))
    cfg = FineLossConfig(c=0.03, scales=(0, 1, 2, 3))
    warps = {i: warp for i in cfg.scales}
    masks = {i: np.ones((4, 4), bool) for i in cfg.scales}
    res = fine_loss(warps, corr, masks, cfg)
    want = sum((2.0**i * 0.03) ** 0.25 for i in range(4))
    assert np.isclose(want, 2.1997, atol=2e-4)
    assert np.isclose(res.value, want, atol=1e-6)


def test_fine_loss_single_scale_reduces_to_parts():
    rng = np.random.default_rng(35)
    warps, corr, masks, _ = make_fine_setup(rng, scales=(0,), n=1)
    cfg = FineLossConfig(c=0.03, scales=(0,))
    res = fine_loss(warps, corr, masks, cfg)
    from matchkit import bilinear_sample

    mu, _ = bilinear_sample(warps[0], corr.xa[0])
    want_charb = float(charbonnier_nll(mu, corr.xb[0], 0.03))
    assert np.isclose(res.scales[0].charbonnier_term, want_charb, atol=1e-12)
    assert np.isclose(res.value, want_charb + res.scales[0].bce_term, atol=1e-12)


def test_fine_loss_rejects_empty_corr():
    warps, corr, masks, cfg = make_fine_setup(np.random.default_rng(38))
    with pytest.raises(ValueError, match="correspondence set is empty"):
        fine_loss(warps, EMPTY_CORR, masks, cfg)


def test_fine_loss_missing_scale_raises():
    rng = np.random.default_rng(36)
    warps, corr, masks, cfg = make_fine_setup(rng)
    del warps[2]
    with pytest.raises(ValueError, match="missing warp"):
        fine_loss(warps, corr, masks, cfg)


def test_fine_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(37)
    for _ in range(60):
        warps, corr, masks, cfg = make_fine_setup(rng, scales=(0, 2), h=3, w=3, n=4)
        res = fine_loss(warps, corr, masks, cfg)
        for i in cfg.scales:
            fld = warps[i]

            def f_coords(flat):
                w2 = WarpField(fld.grid, flat.reshape(fld.target_coords.shape), fld.certainty)
                return fine_loss({**warps, i: w2}, corr, masks, cfg).value

            def f_cert(flat):
                w2 = WarpField(fld.grid, fld.target_coords, flat.reshape(fld.certainty.shape))
                return fine_loss({**warps, i: w2}, corr, masks, cfg).value

            fd_c = central_difference(f_coords, fld.target_coords.ravel().copy())
            fd_p = central_difference(f_cert, fld.certainty.ravel().copy())
            sc = np.maximum(np.abs(fd_c), 1e-6)
            assert np.all(np.abs(res.scales[i].d_coords.ravel() - fd_c) / sc < 1e-4)
            sp = np.maximum(np.abs(fd_p), 1e-6)
            assert np.all(np.abs(res.scales[i].d_certainty.ravel() - fd_p) / sp < 1e-4)


def test_fine_loss_gradients_are_per_scale_isolated():
    rng = np.random.default_rng(38)
    warps, corr, masks, cfg = make_fine_setup(rng)
    res = fine_loss(warps, corr, masks, cfg)
    # Perturbing scale 3's warp leaves every other scale's result untouched.
    warps2 = dict(warps)
    warps2[3] = WarpField(
        warps[3].grid, warps[3].target_coords * 0.5, warps[3].certainty
    )
    res2 = fine_loss(warps2, corr, masks, cfg)
    for i in (0, 1, 2):
        assert res.scales[i].value == res2.scales[i].value
        assert np.array_equal(res.scales[i].d_coords, res2.scales[i].d_coords)


def test_gradient_sweep_row_zero():
    rows = gradient_sweep(c=0.03, rmax=100.0)
    assert rows[0, 0] == 0.0
    assert np.isclose(rows[0, 1], 0.03**0.25)
    assert rows[0, 2] == 0.0


def inline_gradient_sweep(c, rmin, rmax, steps):
    """The formula gradient_sweep wrote out inline before it called the penalty."""
    r = np.concatenate([[0.0], np.geomspace(rmin, rmax, steps)])
    loss = (r**2 + c) ** 0.25
    grad = 0.5 * r * (r**2 + c) ** -0.75
    return np.stack([r, loss, grad], axis=1)


@pytest.mark.parametrize("c", [0.03, 0.5, 1.7])
@pytest.mark.parametrize(
    "rmin, rmax, steps",
    [(1e-4, 100.0, 200), (1e-6, 1e4, 5000), (100.0, 1000.0, 200), (0.03**0.5 / 1e4, 0.03**0.5 / 100, 200)],
)
def test_gradient_sweep_matches_inline_oracle(c, rmin, rmax, steps):
    got = gradient_sweep(c=c, rmin=rmin, rmax=rmax, steps=steps)
    assert np.array_equal(got, inline_gradient_sweep(c, rmin, rmax, steps))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    c=st.floats(1e-4, 100.0),
    rmin=st.floats(1e-6, 10.0),
    span=st.floats(1.01, 1e6),
    steps=st.integers(2, 400),
)
def test_gradient_sweep_matches_inline_oracle_property(c, rmin, span, steps):
    got = gradient_sweep(c=c, rmin=rmin, rmax=rmin * span, steps=steps)
    assert np.array_equal(got, inline_gradient_sweep(c, rmin, rmin * span, steps))


def test_gradient_sweep_bounds_rmax_and_steps():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The largest rmax whose square is finite still sweeps without overflow.
        rmax = math.sqrt(np.finfo(float).max)
        while not math.isfinite(rmax * rmax + 0.03):
            rmax = math.nextafter(rmax, 0.0)
        rows = gradient_sweep(c=0.03, rmax=rmax, steps=3)
        assert np.all(np.isfinite(rows))
        with pytest.raises(ValueError, match=r"rmax\*\*2 \+ c must be finite"):
            gradient_sweep(c=0.03, rmax=1e155)
        with pytest.raises(ValueError, match=r"rmax\*\*2 \+ c must be finite"):
            gradient_sweep(c=1e308, rmax=1e154)
    assert gradient_sweep(steps=MAX_SWEEP_STEPS).shape == (MAX_SWEEP_STEPS + 1, 3)
    with pytest.raises(ValueError, match="steps"):
        gradient_sweep(steps=MAX_SWEEP_STEPS + 1)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_charbonnier_rejects_nonfinite_and_nonpositive_scale(s):
    for fn in (charbonnier_nll, charbonnier_grad):
        with pytest.raises(ValueError, match="positive and finite"):
            fn(np.zeros(2), np.ones(2), s)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"c": -1.0},
        {"c": math.nan},
        {"rmin": 0.0},
        {"rmin": math.nan},
        {"rmax": math.inf},
        {"rmax": math.nan},
        {"rmin": 10.0, "rmax": 1.0},
        {"steps": 1},
    ],
)
def test_gradient_sweep_rejects_bad_scale_and_range(kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            gradient_sweep(**kwargs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "make, message",
    [
        (lambda x: CoarseLossConfig(x, build_anchor_grid(4, 4)), "marginal weight must be positive and finite"),
        (lambda x: FineLossConfig(c=x), "base scale c must be positive and finite"),
        (lambda x: synth_equivariant(8, 4, noise_sigma=x), "noise sigma must be nonnegative and finite"),
        (lambda x: kernel_matrix(np.eye(2), np.eye(2), beta=x), "beta must be positive and finite"),
    ],
)
def test_parameters_refuse_nan_and_inf(make, message, bad):
    # Unrefused, NaN passed each `x <= 0` guard: a NaN or infinite loss,
    # noise-free descriptor sets, an all-NaN kernel.
    with pytest.raises(ValueError, match=f"^{message}, got {bad}$"):
        make(bad)
