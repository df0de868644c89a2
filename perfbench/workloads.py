"""The benchmark workloads: inputs from a seed, one op, its checks.

``dense`` is one workload; ``sparse-boundary`` runs a ``Sparse`` part and a
``Boundary`` part in each op. A workload is built once per process (input
generation is part of set-up). ``op(i, tracer)`` runs op number ``i`` on pool
input ``i % pool`` and returns its outputs; ``check`` turns those outputs into
failure messages; ``stats`` gives the per-op numbers the traced run reports.
Every call an op makes into matchkit goes through ``tracer.call`` under the
name ``<module>.<function>``.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path

import numpy as np

import matchkit as mk
from matchkit import fileio
from matchkit.cascade import matchable_mask, stage_epes
from matchkit.scalespace import AffineRegion, SceneSpec, boundary_distances, find_modes

REF_PX = 448.0  # reference resolution of every pixel-unit number
FEATURE_DIM = 32  # synth_pyramid's default descriptor width
TEMPERATURE = 0.05  # run_cascade's default softargmax temperature


def gather_bytes(stages, feature_dim: int) -> int:
    """Computed bytes a cascade's correlation gathers read: cells x window^2 x D x 8."""
    return sum(
        warp.grid.n_cells * mk.CORR_WINDOWS[stride] ** 2 * feature_dim * 8
        for stride, warp in stages
    )


def _affine_scene(linear: np.ndarray, offset: np.ndarray) -> SceneSpec:
    return SceneSpec((AffineRegion(lambda p: np.ones(len(p), bool), linear, offset),))


def _similarity(rng: np.random.Generator, max_angle: float, scale_lo: float, scale_hi: float):
    ang = rng.uniform(-max_angle, max_angle)
    c, s = math.cos(ang), math.sin(ang)
    return rng.uniform(scale_lo, scale_hi) * np.array([[c, -s], [s, c]])


def _true_correspondences(scene: SceneSpec, points: np.ndarray) -> mk.CorrespondenceSet:
    mapped = scene.map_points(points)
    keep = mk.in_extent(mapped)
    return mk.CorrespondenceSet(points[keep], mapped[keep], np.ones(int(keep.sum())))


def refiner_oracle(pyr_a, pyr_b, state: mk.WarpField, stride: int, cell: int):
    """Loop oracle for one refiner cell: softargmax over a local correlation window.

    Mirrors ``local_correlation`` (cosine similarity per window cell, -1 for
    cells outside the extent) followed by the softargmax over the window's
    lattice coordinates and the certainty-logit update, one cell at a time.
    """
    window = mk.CORR_WINDOWS[stride]
    tgt = pyr_b.grid(stride)
    f_a = pyr_a.features(stride).reshape(-1, pyr_a.features(stride).shape[-1])[cell]
    flat_b = pyr_b.features(stride).reshape(-1, f_a.shape[0])
    x, y = state.target_coords.reshape(-1, 2)[cell]
    c0 = min(max(math.floor((x + 1.0) / tgt.cell_width), 0), tgt.width - 1)
    r0 = min(max(math.floor((y + 1.0) / tgt.cell_height), 0), tgt.height - 1)
    half = window // 2
    sims, xs, ys = [], [], []
    for i in range(window):
        for j in range(window):
            rr, cc = r0 - half + i, c0 - half + j
            if 0 <= rr < tgt.height and 0 <= cc < tgt.width:
                f_b = flat_b[rr * tgt.width + cc]
                sims.append(float(f_a @ f_b) / (np.linalg.norm(f_a) * np.linalg.norm(f_b)))
            else:
                sims.append(-1.0)
            xs.append(-1.0 + (cc + 0.5) * tgt.cell_width)
            ys.append(-1.0 + (rr + 0.5) * tgt.cell_height)
    peak = max(sims)
    weights = [math.exp((s - peak) / TEMPERATURE) for s in sims]
    total = sum(weights)
    new_x = sum(w * v for w, v in zip(weights, xs)) / total
    new_y = sum(w * v for w, v in zip(weights, ys)) / total
    p = min(max(float(state.certainty.reshape(-1)[cell]), 1e-7), 1.0 - 1e-7)
    cert = 1.0 / (1.0 + math.exp(-(math.log(p) - math.log1p(-p) + peak)))
    return new_x, new_y, cert


class Dense:
    """One synthetic affine pair at base 224 through the whole coarse-to-fine path."""

    name = "dense"
    pool = 48
    base = mk.GridSpec(224, 224)
    anchor_grid = mk.build_anchor_grid(64, 64)
    anchor_sigma = 2.0 / 64
    pck_px = (1.0, 3.0, 5.0)
    oracle_cells = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.path = workdir / "dense_warp.rmgrid"
        self.coarse_cfg = mk.CoarseLossConfig(1.0, self.anchor_grid)
        self.fine_cfg = mk.FineLossConfig()
        g14 = mk.GridSpec(self.base.height // 14, self.base.width // 14)
        # Fine-loss scale exponent i scores the stride-2^i stage.
        fine_grids = {
            i: mk.GridSpec(self.base.height >> i, self.base.width >> i)
            for i in self.fine_cfg.scales
        }
        centers = self.base.cell_centers()
        self.inputs = []
        for _ in range(self.pool):
            scene = _affine_scene(_similarity(rng, 0.05, 0.96, 1.04), rng.uniform(-0.14, 0.14, 2))
            mapped = scene.map_points(centers)
            matchable = mk.in_extent(mapped)
            self.inputs.append(
                {
                    "scene": scene,
                    "feature_seed": int(rng.integers(2**31)),
                    "oracle_cells": rng.choice(g14.n_cells, self.oracle_cells, replace=False),
                    "corr14": _true_correspondences(scene, g14.cell_centers()),
                    "mask14": matchable_mask(scene, g14),
                    "corr_fine": _true_correspondences(scene, rng.uniform(-1, 1, (1024, 2))),
                    "masks_fine": {i: matchable_mask(scene, g) for i, g in fine_grids.items()},
                    "matchable": matchable,
                    "gt": mk.CorrespondenceSet(
                        centers[matchable], mapped[matchable], np.ones(int(matchable.sum()))
                    ),
                }
            )

    def op(self, i: int, t) -> dict:
        inp = self.inputs[i % self.pool]
        scene = inp["scene"]
        pyr_a, pyr_b = t.call(
            "cascade.synth_pyramid",
            mk.synth_pyramid,
            scene,
            self.base,
            feature_dim=FEATURE_DIM,
            seed=inp["feature_seed"],
        )
        g14 = pyr_a.grid(14)
        # GP coarse encoder: the support is the stride-14 target cells.
        support = t.call(
            "gp.SupportSet",
            mk.SupportSet,
            pyr_b.features(14).reshape(-1, FEATURE_DIM),
            g14.cell_centers(),
        )
        means = t.call(
            "gp.gp_posterior_mean",
            mk.gp_posterior_mean,
            pyr_a.features(14).reshape(-1, FEATURE_DIM),
            support,
        )
        pi = t.call(
            "anchors.gaussian_anchor_probs",
            mk.gaussian_anchor_probs,
            self.anchor_grid,
            np.clip(means, -1.0, 1.0),
            self.anchor_sigma,
        )
        probs = t.call("anchors.AnchorProbs", mk.AnchorProbs, g14, pi, np.full(g14.n_cells, 0.5))
        coarse = t.call("anchors.to_warp", mk.to_warp, probs, self.anchor_grid)
        coarse_value = t.call(
            "losses.coarse_loss",
            mk.coarse_loss,
            probs,
            inp["mask14"],
            inp["corr14"],
            self.coarse_cfg,
        ).value
        final, stages = t.call("cascade.run_cascade", mk.run_cascade, pyr_a, pyr_b, coarse)
        epes = t.call("cascade.stage_epes", stage_epes, stages, scene)
        by_stride = dict(stages)
        fine_value = t.call(
            "losses.fine_loss",
            mk.fine_loss,
            {i: by_stride[1 << i] for i in self.fine_cfg.scales},
            inp["corr_fine"],
            inp["masks_fine"],
            self.fine_cfg,
        ).value
        pred_xy = final.target_coords.reshape(-1, 2)[inp["matchable"]]
        pred = mk.CorrespondenceSet(inp["gt"].xa, pred_xy, np.ones(len(pred_xy)))
        epe_px = t.call("metrics.epe", mk.epe, pred, inp["gt"], REF_PX)
        pcks = [t.call("metrics.pck", mk.pck, pred, inp["gt"], tau, REF_PX) for tau in self.pck_px]
        grid_out = np.concatenate([final.target_coords, final.certainty[..., None]], axis=-1)
        t.call("fileio.write", fileio.write_grid, self.path, grid_out)
        grid_back = t.call("fileio.read", fileio.read_grid, self.path)
        return {
            "pool": i % self.pool,
            "pyr": (pyr_a, pyr_b),
            "coarse": coarse,
            "final": final,
            "stages": stages,
            "epes": epes,
            "losses": (coarse_value, fine_value),
            "epe_px": epe_px,
            "pck": pcks,
            "grid_out": grid_out,
            "grid_back": grid_back,
        }

    def check(self, i: int, out: dict) -> list[str]:
        bad = []
        final = out["final"]
        if not np.all(np.isfinite(final.target_coords)):
            bad.append("final warp is not finite")
        if not (np.all(final.certainty >= 0) and np.all(final.certainty <= 1)):
            bad.append("final certainty outside [0, 1]")
        stride, stage14 = out["stages"][0]
        pyr_a, pyr_b = out["pyr"]
        worst = 0.0
        for cell in self.inputs[i % self.pool]["oracle_cells"]:
            want = refiner_oracle(pyr_a, pyr_b, out["coarse"], stride, int(cell))
            got = (*stage14.target_coords.reshape(-1, 2)[cell], stage14.certainty.reshape(-1)[cell])
            worst = max(worst, max(abs(a - b) for a, b in zip(got, want)))
        if not worst <= 1e-9:
            bad.append(f"stride-14 refiner differs from the loop oracle by {worst:.3g}")
        written = out["grid_out"].astype(np.float32).astype(float)
        if out["grid_back"].shape != written.shape or not np.array_equal(out["grid_back"], written):
            bad.append("RMGRID1 round trip is not exact")
        if not all(np.isfinite(v) for v in out["losses"]) or not np.isfinite(out["epe_px"]):
            bad.append("loss or EPE is not finite")
        return bad

    def epe_px(self, out: dict) -> float:
        return out["epe_px"]

    def summary_epe(self, epe_by_input: dict[int, float]) -> float:
        """The run's ``epe_px``: mean over the pool inputs the run covered."""
        return statistics.fmean(epe_by_input.values())

    def stats(self, out: dict) -> dict:
        stats = {f"cascade.stage_epe_px.{s}": e * REF_PX for s, e in out["epes"]}
        stats.update(
            {
                "cascade.gather_bytes": gather_bytes(out["stages"], FEATURE_DIM),
                "cascade.certainty_mean": float(out["final"].certainty.mean()),
                "anchors.prob_entries": out["coarse"].grid.n_cells * self.anchor_grid.count,
                "gp.support_n": out["coarse"].grid.n_cells,
                "metrics.errors": len(self.inputs[out["pool"]]["gt"]) * (1 + len(self.pck_px)),
                "fileio.bytes": self.path.stat().st_size,
            }
        )
        return stats


class Boundary:
    """Scale-space analysis of a two-translation motion boundary at grid 16."""

    pool = 8
    grid = mk.GridSpec(16, 16)
    scales = (0.0, 0.05, 0.1, 0.2)
    s_fit = 0.2
    rel_threshold = 0.1
    anchor_grid = mk.build_anchor_grid(16, 16)
    n_fits = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        # Each offset component sits at a sub-cell phase; the pool takes the
        # phases (j + u) / pool in a different order per component, with u
        # drawn from the seed, so every run covers the phases evenly.
        u = np.random.default_rng(seed).uniform(size=4)
        cell = self.grid.cell_width
        self.inputs = []
        for j in range(self.pool):
            phase = [((j * m + u[k]) / self.pool) % 1.0 for k, m in enumerate((1, 3, 5, 7))]
            left = (-(0.25 + cell * phase[0]), cell * (phase[2] - 0.5))
            right = (0.25 + cell * phase[1], cell * (phase[3] - 0.5))
            self.inputs.append({"scene": mk.two_translation_scene(left, right)})
        # Split at x = 0 for every scene, so the distances are shared.
        self.dists = boundary_distances(self.inputs[0]["scene"], self.grid).ravel()
        self.band = np.flatnonzero(self.dists <= self.grid.cell_width)

    def op(self, i: int, t) -> dict:
        scene = self.inputs[i % self.pool]["scene"]
        g = self.grid
        sweep = t.call(
            "scalespace.multimodality_sweep",
            mk.multimodality_sweep,
            scene,
            g,
            g,
            self.scales,
            rel_threshold=self.rel_threshold,
        )
        cell = g.cell_width

        def frac(s, **band):
            return t.call("scalespace.fraction_multimodal", sweep.fraction_multimodal, s, **band)

        # Criterion 4's facts: the band near the boundary and the far band.
        facts = {
            "near0": frac(0.0, dist_hi=cell),
            "near2": frac(self.s_fit, dist_hi=cell),
            "far": [frac(s, dist_lo=4 * s + 1e-12) for s in self.scales],
        }
        base = t.call("scalespace.rasterize_scene", mk.rasterize_scene, scene, g, g)
        q = t.call("scalespace.diffuse", mk.diffuse, base, self.s_fit)
        modes, fits = {}, []
        for c in self.band:
            row = q.joint.probs[c]
            if row.sum() <= 0:
                continue
            cond = (row / row.sum()).reshape(g.height, g.width)
            modes[int(c)] = t.call("scalespace.find_modes", find_modes, cond, self.rel_threshold)
            if len(fits) < self.n_fits and len(modes[int(c)]) >= 2:
                fits.append(
                    t.call("scalespace.fit_comparison", mk.fit_comparison, cond, self.anchor_grid)
                )
        return {"facts": facts, "modes": modes, "fits": fits}

    def check(self, i: int, out: dict) -> list[str]:
        bad = []
        facts = out["facts"]
        frac0, n0 = facts["near0"]
        if n0 == 0 or frac0 != 0.0:
            bad.append(f"boundary band is not unimodal at s=0 ({frac0} of {n0})")
        frac2, n2 = facts["near2"]
        if n2 != 2 * self.grid.height or frac2 < 0.8:
            bad.append(f"boundary band is {frac2:.2f} bimodal at s={self.s_fit} over {n2} cells")
        for s, (frac, n) in zip(self.scales, facts["far"]):
            if n == 0 or frac != 0.0:
                bad.append(f"far band is not unimodal at s={s} ({frac} of {n})")
        if len(out["fits"]) != self.n_fits:
            bad.append(f"only {len(out['fits'])} bimodal conditionals to fit")
        for kl_mix, kl_uni in out["fits"]:
            if not kl_mix < kl_uni:
                bad.append(f"mixture KL {kl_mix:.4g} is not below unimodal KL {kl_uni:.4g}")
        return bad

    def stats(self, out: dict) -> dict:
        return {
            "scalespace.conditionals": self.grid.n_cells * len(self.scales)
            + len(out["modes"])
            + len(out["fits"]),
            "scalespace.multimodal_fraction": out["facts"]["near2"][0],
        }


def auc_oracle(errors: np.ndarray, tau: float) -> float:
    """Recall integrated per error: each error e < tau adds (tau - e) / tau / n."""
    return float(np.mean(np.maximum(tau - errors, 0.0)) / tau)


def maa_oracle(rot: np.ndarray, trans: np.ndarray) -> float:
    """Criterion 10's brute-force count over the ten default threshold pairs."""
    rot_th, trans_th = np.linspace(1, 10, 10), np.linspace(0.2, 2.0, 10)
    n = len(rot)
    return float(
        np.mean(
            [
                sum(1 for r, t in zip(rot.tolist(), trans.tolist()) if r < rt and t < tt) / n
                for rt, tt in zip(rot_th.tolist(), trans_th.tolist())
            ]
        )
    )


class Sparse:
    """A small pair refined and sampled, descriptor steering, and pose metrics."""

    pool = 16
    base = mk.GridSpec(56, 56)
    n_picks = 1000
    bandwidth = 0.15
    n_desc = 1024
    desc_noise = 0.05
    l1_iters = 300
    # fit_steering_l1 sums its loss over rows, so the stable step shrinks as
    # n grows: 1e-3 converges at n=1024 and can diverge at n=2048.
    l1_step = 1e-3
    n_poses = 1500  # the MegaDepth-1500 pair count
    auc_taus = (5.0, 10.0, 20.0)
    # The final EPE varies about 50% from pair to pair (it is set by the
    # stride-4 stage and the random feature field), so epe_px also refines
    # further pairs, untimed, after the loop: 256 pairs in all.
    accuracy_pairs = 256

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.path = workdir / "sparse_matches.csv"
        self.inputs = []
        for _ in range(self.pool):
            pyr, coarse, true = self._pair(rng)
            rot = rng.gamma(2.0, 2.5, self.n_poses)
            trans = rng.gamma(2.0, 0.5, self.n_poses)
            self.inputs.append(
                {
                    "pyr": pyr,
                    "coarse": coarse,
                    "sample_seed": int(rng.integers(2**31)),
                    "desc_seed": int(rng.integers(2**31)),
                    "fit_seed": int(rng.integers(2**31)),
                    "rot": rot,
                    "trans": trans,
                    "pose_err": np.maximum(rot, trans),
                    "true": true,
                }
            )

    def _pair(self, rng: np.random.Generator):
        """Pyramids, a stride-14 coarse warp off by up to 0.5 per coordinate, true targets."""
        # Contracting similarity, so every target stays inside the extent.
        scene = _affine_scene(_similarity(rng, 0.05, 0.88, 0.94), rng.uniform(-0.05, 0.05, 2))
        feature_seed = int(rng.integers(2**31))
        pyr = mk.synth_pyramid(scene, self.base, feature_dim=FEATURE_DIM, seed=feature_seed)
        g14 = pyr[0].grid(14)
        true14 = mk.scene_true_warp(scene, g14)
        pert = rng.uniform(-0.5, 0.5, true14.target_coords.shape)
        coarse = mk.WarpField(
            g14, np.clip(true14.target_coords + pert, -1, 1), np.full((g14.height, g14.width), 0.5)
        )
        return pyr, coarse, scene.map_points(self.base.cell_centers())

    def op(self, i: int, t) -> dict:
        inp = self.inputs[i % self.pool]
        final, stages = t.call("cascade.run_cascade", mk.run_cascade, *inp["pyr"], inp["coarse"])
        picks = t.call(
            "sampling.balanced_sample",
            mk.balanced_sample,
            final,
            self.n_picks,
            h=self.bandwidth,
            seed=inp["sample_seed"],
        )
        t.call("fileio.write", fileio.write_correspondences_csv, self.path, picks)
        picks_back = t.call("fileio.read", fileio.read_correspondences_csv, self.path)
        sets = t.call(
            "steering.synth_equivariant",
            mk.synth_equivariant,
            self.n_desc,
            FEATURE_DIM,
            noise_sigma=self.desc_noise,
            seed=inp["desc_seed"],
        )
        pairs = {k: (sets[0], sets[k]) for k in (1, 2, 3)}
        fit = t.call(
            "steering.fit_steering_l1",
            mk.fit_steering_l1,
            pairs,
            iters=self.l1_iters,
            step=self.l1_step,
            seed=inp["fit_seed"],
        )
        accs = [
            t.call(
                "steering.rotation_matching_eval",
                mk.rotation_matching_eval,
                sets[0],
                sets[k],
                fit.w,
                k,
            )
            for k in (1, 2, 3)
        ]
        aucs = [t.call("metrics.auc", mk.auc, inp["pose_err"], tau) for tau in self.auc_taus]
        maa = t.call("metrics.maa", mk.maa, inp["rot"], inp["trans"])
        return {
            "pool": i % self.pool,
            "final": final,
            "stages": stages,
            "picks": picks,
            "picks_back": picks_back,
            "fit": fit,
            "accs": accs,
            "aucs": aucs,
            "maa": maa,
        }

    def check(self, i: int, out: dict) -> list[str]:
        bad = []
        inp = self.inputs[i % self.pool]
        final, picks = out["final"], out["picks"]
        g = self.base
        cols = np.clip(np.floor((picks.xa[:, 0] + 1.0) / g.cell_width), 0, g.width - 1)
        rows = np.clip(np.floor((picks.xa[:, 1] + 1.0) / g.cell_height), 0, g.height - 1)
        flat = (rows * g.width + cols).astype(int)
        centers = self.base.cell_centers()
        if len(picks) != self.n_picks or len(np.unique(flat)) != self.n_picks:
            bad.append(f"{len(np.unique(flat))} distinct picks, wanted {self.n_picks}")
        targets = final.target_coords.reshape(-1, 2)
        candidates = (final.certainty.reshape(-1) > 0) & mk.in_extent(targets)
        if not (
            np.array_equal(picks.xa, centers[flat])
            and np.array_equal(picks.xb, targets[flat])
            and np.all(candidates[flat])
        ):
            bad.append("a pick is not a candidate of the warp")
        back = out["picks_back"]
        fields = ("xa", "xb", "weights")
        same = [np.array_equal(getattr(picks, f), getattr(back, f)) for f in fields]
        if not all(same):
            bad.append("correspondence CSV round trip is not exact")
        for k, acc in zip((1, 2, 3), out["accs"]):
            if acc.with_steering < 0.95:
                bad.append(f"steered accuracy {acc.with_steering:.3f} < 0.95 at k={k}")
        for tau, got in zip(self.auc_taus, out["aucs"]):
            want = auc_oracle(inp["pose_err"], tau)
            if not abs(got - want) <= 1e-9:
                bad.append(f"AUC@{tau:g} {got!r} differs from the oracle {want!r}")
        want = maa_oracle(inp["rot"], inp["trans"])
        if not abs(out["maa"] - want) <= 1e-12:
            bad.append(f"mAA {out['maa']!r} differs from the oracle {want!r}")
        return bad

    @staticmethod
    def _epe(final: mk.WarpField, true: np.ndarray) -> float:
        """Final warp EPE at ref 448 over the cells whose true target is in view."""
        keep = mk.in_extent(true)
        err = np.linalg.norm(final.target_coords.reshape(-1, 2)[keep] - true[keep], axis=1)
        return float(err.mean()) * REF_PX

    def epe_px(self, out: dict) -> float:
        return self._epe(out["final"], self.inputs[out["pool"]]["true"])

    def summary_epe(self, epe_by_input: dict[int, float]) -> float:
        errs = list(epe_by_input.values())
        rng = np.random.default_rng([self.seed, 1])
        for _ in range(self.accuracy_pairs - len(errs)):
            pyr, coarse, true = self._pair(rng)
            errs.append(self._epe(mk.run_cascade(*pyr, coarse)[0], true))
        return statistics.fmean(errs)

    def stats(self, out: dict) -> dict:
        final, fit = out["final"], out["fit"]
        n_candidates = int(
            np.sum((final.certainty > 0) & mk.in_extent(final.target_coords))
        )
        return {
            "cascade.gather_bytes": gather_bytes(out["stages"], FEATURE_DIM),
            "cascade.certainty_mean": float(final.certainty.mean()),
            "sampling.candidates": n_candidates,
            "sampling.picks": len(out["picks"]),
            "sampling.kde_pairs": n_candidates**2,
            "sampling.spatial_entropy": mk.spatial_entropy(out["picks"]),
            "steering.l1_iterations": fit.iterations,
            "steering.l1_loss_ratio": fit.final_loss / fit.initial_loss,
            "steering.accuracy_min": min(a.with_steering for a in out["accs"]),
            # Two n x n similarity matrices per rotation_matching_eval call.
            "steering.sim_entries": 2 * len(out["accs"]) * self.n_desc**2,
            "metrics.errors": self.n_poses * (len(self.auc_taus) + 1),
            "fileio.bytes": self.path.stat().st_size,
        }


class SparseBoundary:
    """Each op runs the ``Sparse`` op on input ``i % 16`` and the ``Boundary`` op on ``i % 8``.

    The two run together so that the benchmark has two workloads, each long
    enough to steady its timings within the run budget. ``epe_px`` is the
    sparse pair's; the boundary part adds its checks and counts.
    """

    name = "sparse-boundary"
    pool = Sparse.pool  # a multiple of Boundary.pool, so the pool covers both

    def __init__(self, seed: int, workdir: Path) -> None:
        self.sparse = Sparse(seed, workdir)
        self.boundary = Boundary(seed, workdir)

    def op(self, i: int, t) -> dict:
        return {
            "sparse": self.sparse.op(i, t),
            "boundary": self.boundary.op(i, t),
        }

    def check(self, i: int, out: dict) -> list[str]:
        return self.sparse.check(i, out["sparse"]) + self.boundary.check(i, out["boundary"])

    def epe_px(self, out: dict) -> float:
        return self.sparse.epe_px(out["sparse"])

    def summary_epe(self, epe_by_input: dict[int, float]) -> float:
        return self.sparse.summary_epe(epe_by_input)

    def stats(self, out: dict) -> dict:
        return {**self.sparse.stats(out["sparse"]), **self.boundary.stats(out["boundary"])}


WORKLOADS = {w.name: w for w in (Dense, SparseBoundary)}
