"""Command-line front end for reproducible desk-scale experiments.

Subcommands:
  synth       generate synthetic scenes, feature pyramids, or descriptor sets
  decode      decode anchor probabilities into a warp (RMGRID1 + PPM)
  loss-sweep  robust-loss value/gradient curve as CSV
  diffuse     motion-boundary multimodality sweep as CSV
  cascade     coarse-to-fine refinement with per-stage EPE CSV
  steer       fit / apply / eval descriptor steering
  sample      balanced match sampling to a correspondence CSV
  eval        metrics report (JSON) from error or correspondence CSVs
  selftest    run the built-in oracle suite

Every subcommand accepts --seed, --out and --config. The config file is JSON
with one object per subcommand; command-line flags override config values.
Exit codes: 0 success, 1 usage error, 2 data error. Seeded subcommands are
deterministic: identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import (
    AnchorProbs,
    GridSpec,
    WarpField,
    balanced_sample,
    build_anchor_grid,
    gaussian_anchor_probs,
    gradient_sweep,
    maa,
    pck,
    robustness,
    run_cascade,
    scene_true_warp,
    spatial_entropy,
    synth_equivariant,
    synth_pyramid,
    to_warp,
    translation_scene,
    two_translation_scene,
)
from . import auc as auc_metric
from . import epe as epe_metric
from .cascade import stage_epes
from .fileio import (
    read_correspondences_csv,
    read_descriptors,
    read_grid,
    read_steering,
    warp_to_rgb,
    write_correspondences_csv,
    write_descriptors,
    write_grid,
    write_pgm,
    write_ppm,
    write_steering,
)
from .sampling import _candidates
from .scalespace import SceneSpec, _sweep, affine_scene, identity_scene
from .selftest import run_selftest
from .steering import (
    DescriptorSet,
    SteeringMatrix,
    fit_steering_l1,
    fit_steering_lsq,
    random_c4_steering,
    rotation_matching_eval,
)

USAGE_EXIT = 1
DATA_EXIT = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _out_dir(a) -> Path:
    out = Path(a.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_grid_size(text: str) -> tuple[int, int]:
    try:
        rows, cols = (int(p) for p in text.lower().split("x"))
    except ValueError:  # not two parts, or a part that is not an integer
        raise UsageError(f"expected ROWSxCOLS, got {text!r}") from None
    return rows, cols


def _scene_from_kind(kind: str, seed: int, offset=None) -> SceneSpec:
    rng = np.random.default_rng(seed)
    if kind == "identity":
        return identity_scene()
    if kind == "translation":
        off = offset if offset is not None else rng.uniform(-0.2, 0.2, 2)
        return translation_scene(off)
    if kind == "affine":
        off = offset if offset is not None else rng.uniform(-0.14, 0.14, 2)
        ang = rng.uniform(-0.05, 0.05)
        scale = 1.0 + rng.uniform(-0.04, 0.04)
        c, s = np.cos(ang), np.sin(ang)
        return affine_scene(scale * np.array([[c, -s], [s, c]]), off)
    if kind == "two-translation":
        mag = 0.3 if offset is None else float(np.linalg.norm(offset))
        return two_translation_scene((-mag, 0.0), (mag, 0.0))
    raise UsageError(f"unknown scene kind {kind!r}")


def _save_warp(out: Path, stem: str, warp: WarpField) -> None:
    payload = np.concatenate([warp.target_coords, warp.certainty[..., None]], axis=-1)
    write_grid(out / f"{stem}.rmgrid", payload)
    write_ppm(out / f"{stem}.ppm", warp_to_rgb(warp.target_coords, warp.certainty))


def _load_warp(path) -> WarpField:
    data = read_grid(path)
    if data.ndim != 3 or data.shape[2] != 3:
        raise ValueError(f"{path}: warp tensor must have shape (H, W, 3)")
    grid = GridSpec(data.shape[0], data.shape[1])
    return WarpField(grid, data[..., :2], np.clip(data[..., 2], 0.0, 1.0))


def _synth_descriptors(a, out: Path) -> list[DescriptorSet]:
    """Write rot0..rot3.rmdesc and w_true.rmsteer for a random C4 steering."""
    w_true = random_c4_steering(a.dim, seed=a.seed)
    sets = synth_equivariant(a.n, a.dim, w_true=w_true, noise_sigma=a.noise, seed=a.seed)
    for k, ds in enumerate(sets):
        write_descriptors(out / f"rot{k}.rmdesc", ds.coords, ds.descs)
    write_steering(out / "w_true.rmsteer", w_true.w)
    return sets


def _cmd_synth(a) -> int:
    out = _out_dir(a)
    if a.kind == "descriptors":
        _synth_descriptors(a, out)
        print(f"wrote rot0..rot3.rmdesc and w_true.rmsteer to {out}")
        return 0
    if a.kind in ("identity", "translation", "affine", "two-translation"):
        scene = _scene_from_kind(a.kind, a.seed, a.offset)
        base = GridSpec(a.base, a.base)
        _save_warp(out, "truth", scene_true_warp(scene, base))
        pyr_a, pyr_b = synth_pyramid(scene, base, seed=a.seed)
        for stride in sorted(pyr_a.levels):
            write_grid(out / f"source_stride{stride}.rmgrid", pyr_a.features(stride))
            write_grid(out / f"target_stride{stride}.rmgrid", pyr_b.features(stride))
        print(f"wrote truth warp and pyramid levels to {out}")
        return 0
    if a.kind == "probs":
        rows, cols = _parse_grid_size(a.anchors)
        gh, gw = _parse_grid_size(a.grid)
        grid = build_anchor_grid(rows, cols)
        source = GridSpec(gh, gw)
        rng = np.random.default_rng(a.seed)
        scene = _scene_from_kind("affine", a.seed)
        true_targets = np.clip(scene.map_points(source.cell_centers()), -0.999, 0.999)
        if a.via_gp:
            # Regress target coordinates from descriptors with the GP encoder,
            # then discretize the predicted coordinates over the anchors.
            from .cascade import FeatureField
            from .fileio import write_support_set
            from .gp import KernelSpec, SupportSet, gp_posterior_mean

            field = FeatureField(32, a.seed)
            tgt_grid = grid.as_grid_spec()
            support = SupportSet(field(tgt_grid.cell_centers()), tgt_grid.cell_centers())
            queries = field(true_targets)
            targets = gp_posterior_mean(queries, support, KernelSpec(a.beta, 1e-4))
            targets = np.clip(targets, -0.999, 0.999)
            write_support_set(out / "support", support.features, support.embeddings)
        else:
            targets = true_targets
        pi = gaussian_anchor_probs(grid, targets, sigma=a.sigma)
        match = rng.uniform(0.5, 1.0, source.n_cells)
        write_grid(out / "probs.rmgrid", np.concatenate([pi, match[:, None]], axis=1))
        _write_json(
            out / "probs.json",
            {"anchors": {"rows": rows, "cols": cols}, "grid": {"height": gh, "width": gw}},
        )
        print(f"wrote probs.rmgrid ({source.n_cells} x {grid.count}+1) to {out}")
        return 0
    raise UsageError(f"unknown synth kind {a.kind!r}")


def _cmd_decode(a) -> int:
    out = _out_dir(a)
    rows, cols = _parse_grid_size(a.anchors)
    gh, gw = _parse_grid_size(a.grid)
    data = read_grid(a.probs)
    grid = build_anchor_grid(rows, cols)
    source = GridSpec(gh, gw)
    if data.shape != (source.n_cells, grid.count + 1):
        raise ValueError(
            f"probs tensor shape {data.shape} does not match grid {gh}x{gw} "
            f"with {grid.count} anchors (+1 matchability column)"
        )
    pi = data[:, :-1]
    pi = pi / pi.sum(axis=1, keepdims=True)
    probs = AnchorProbs(source, pi, np.clip(data[:, -1], 0.0, 1.0))
    warp = to_warp(probs, grid)
    _save_warp(out, "warp", warp)
    if a.corr:
        from .losses import CoarseLossConfig, coarse_loss

        corr = read_correspondences_csv(a.corr)
        cfg = CoarseLossConfig(a.marginal_weight, grid)
        res = coarse_loss(probs, np.ones(source.n_cells, bool), corr, cfg)
        _write_json(
            out / "coarse_loss.json",
            {
                "marginal_weight": a.marginal_weight,
                "total": res.value,
                "conditional_term": res.conditional_term,
                "marginal_term": res.marginal_term,
            },
        )
    print(f"decoded warp written to {out}")
    return 0


def _cmd_loss_sweep(a) -> int:
    out = _out_dir(a)
    rows = gradient_sweep(c=a.c, rmin=a.rmin, rmax=a.rmax, steps=a.steps)
    _write_csv(out / "loss_sweep.csv", "r,loss,grad_magnitude", rows.tolist())
    print(f"wrote {out / 'loss_sweep.csv'} ({rows.shape[0]} rows)")
    return 0


def _cmd_diffuse(a) -> int:
    out = _out_dir(a)
    scene = two_translation_scene((-a.offset, 0.0), (a.offset, 0.0))
    grid = GridSpec(a.grid, a.grid)
    scales = [float(s) for s in a.scales.split(",")]
    mid = (grid.height // 2) * grid.width + grid.width // 2 - 1  # boundary-adjacent cell
    sweep, rows = _sweep(scene, grid, grid, scales, a.threshold, row=mid)
    _write_csv(
        out / "multimodality.csv",
        "s,boundary_dist_bin,fraction_multimodal,n_cells",
        [(s, b, frac, n) for s, b, frac, n in sweep.table()],
    )
    for s, row in zip(scales, rows):
        if row.sum() > 0:
            write_grid(
                out / f"conditional_s{_fmt(s)}.rmgrid",
                (row / row.sum()).reshape(grid.height, grid.width),
            )
    print(f"wrote {out / 'multimodality.csv'} and conditional snapshots")
    return 0


def _cmd_cascade(a) -> int:
    out = _out_dir(a)
    scene = _scene_from_kind(a.kind, a.seed, a.offset)
    base = GridSpec(a.base, a.base)
    pyr_a, pyr_b = synth_pyramid(scene, base, seed=a.seed)
    g14 = GridSpec(a.base // 14, a.base // 14)
    true14 = scene_true_warp(scene, g14)
    rng = np.random.default_rng(a.seed)
    cell14 = 2.0 / g14.width
    pert = rng.uniform(-a.perturb * cell14, a.perturb * cell14, (g14.height, g14.width, 2))
    coarse = WarpField(
        g14, np.clip(true14.target_coords + pert, -1.0, 1.0), np.full((g14.height, g14.width), 0.5)
    )
    final, stages = run_cascade(pyr_a, pyr_b, coarse, temperature=a.temperature)
    fine_cell = 2.0 / a.base
    rows = [
        (stride, e, e / fine_cell) for stride, e in stage_epes(stages, scene)
    ]
    _write_csv(out / "stage_epe.csv", "stride,epe_extent,epe_fine_cells", rows)
    _save_warp(out, "final", final)
    write_pgm(out / "certainty.pgm", final.certainty)
    print(f"wrote per-stage EPE and final warp to {out}")
    return 0


def _cmd_steer_fit(a) -> int:
    out = _out_dir(a)
    if a.synthetic:
        sets = _synth_descriptors(a, out)
    else:
        sets = []
        for k in range(4):
            coords, descs = read_descriptors(Path(a.dir) / f"rot{k}.rmdesc")
            sets.append(DescriptorSet(coords, descs))
    report: dict = {"method": a.method}
    if a.method == "lsq":
        w, resid = fit_steering_lsq(sets[0], sets[1])
        report["rms_residual"] = resid
    else:
        pairs = {k: (sets[0], sets[k]) for k in (1, 2, 3)}
        res = fit_steering_l1(pairs, iters=a.iters, step=a.step, seed=a.seed)
        w = res.w
        report["initial_loss"] = res.initial_loss
        report["final_loss"] = res.final_loss
        report["iterations"] = res.iterations
    write_steering(out / "w_fit.rmsteer", w.w)
    _write_json(out / "fit_report.json", report)
    print(f"wrote w_fit.rmsteer and fit_report.json to {out}")
    return 0


def _cmd_steer_apply(a) -> int:
    out = _out_dir(a)
    coords, descs = read_descriptors(a.desc)
    w = SteeringMatrix(read_steering(a.w))
    from .steering import apply_steering

    steered = apply_steering(w, a.k, descs)
    write_descriptors(out / "steered.rmdesc", coords, steered)
    print(f"wrote steered descriptors to {out / 'steered.rmdesc'}")
    return 0


def _cmd_steer_eval(a) -> int:
    out = _out_dir(a)
    ca, da = read_descriptors(a.base)
    cb, db = read_descriptors(a.rotated)
    w = SteeringMatrix(read_steering(a.w))
    acc = rotation_matching_eval(DescriptorSet(ca, da), DescriptorSet(cb, db), w, a.k)
    payload = {
        "k": a.k,
        "n_keypoints": acc.n_keypoints,
        "accuracy_without": acc.without_steering,
        "accuracy_with": acc.with_steering,
    }
    _write_json(out / "steer_eval.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_sample(a) -> int:
    out = _out_dir(a)
    if a.warp:
        warp = _load_warp(a.warp)
    else:
        scene = _scene_from_kind("affine", a.seed)
        grid = GridSpec(a.grid, a.grid)
        warp = scene_true_warp(scene, grid)
    if a.n_matches < 1:
        raise ValueError(f"--n-matches must be at least 1, got {a.n_matches}")
    n = min(a.n_matches, len(_candidates(warp)[2]))
    what = "cells with positive certainty and an in-extent target"
    if n == 0:
        raise ValueError(f"the warp has no candidates ({what})")
    if n < a.n_matches:
        note = f"note: --n-matches {a.n_matches} capped to the {n} candidates ({what})"
        print(note, file=sys.stderr)
    cs = balanced_sample(warp, n, h=a.bandwidth, seed=a.seed)
    write_correspondences_csv(out / "matches.csv", cs)
    if a.sensitivity:
        rows = []
        for h in (float(x) for x in a.sensitivity.split(",")):
            cs_h = balanced_sample(warp, n, h=h, seed=a.seed)
            rows.append((h, spatial_entropy(cs_h)))
        _write_csv(out / "bandwidth_sensitivity.csv", "bandwidth,spatial_entropy", rows)
    print(f"wrote {n} matches to {out / 'matches.csv'}")
    return 0


def _cmd_eval(a) -> int:
    out = _out_dir(a)
    report: dict = {}
    if a.pose_errors:
        rows = [
            [float(v) for v in line.split(",")]
            for line in Path(a.pose_errors).read_text().strip().splitlines()[1:]
            if line.strip()
        ]
        if not rows:
            raise ValueError(f"{a.pose_errors}: no error rows")
        arr = np.array(rows)
        if arr.shape[1] != 2:
            raise ValueError("pose error CSV needs columns rot_deg,trans_deg")
        rot, trans = arr[:, 0], arr[:, 1]
        combined = np.maximum(rot, trans)
        report["auc"] = {
            str(int(t)): auc_metric(combined, float(t)) for t in (5.0, 10.0, 20.0)
        }
        report["maa"] = maa(rot, trans)
    if a.pred and a.gt:
        pred = read_correspondences_csv(a.pred)
        gt = read_correspondences_csv(a.gt)
        report["epe_px"] = epe_metric(pred, gt, a.ref_res)
        report["pck"] = {str(t): pck(pred, gt, t, a.ref_res) for t in (1.0, 3.0, 5.0)}
        report["robustness_32px"] = robustness(pred, gt, a.ref_res)
    if not report:
        raise UsageError("eval needs --pose-errors and/or --pred with --gt")
    _write_json(out / "metrics.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_selftest(_a) -> int:
    results = run_selftest()
    failed = 0
    for name, ok, detail in results:
        if ok:
            print(f"ok   {name}")
        else:
            failed += 1
            print(f"FAIL {name}: {detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else DATA_EXIT


def build_parser() -> _Parser:
    p = _Parser(prog="matchkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--config", default=None)

    sp = sub.add_parser("synth", help="generate synthetic data")
    sp.add_argument("kind", choices=["descriptors", "identity", "translation", "affine", "two-translation", "probs"])
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--noise", type=float, default=None)
    sp.add_argument("--base", type=int, default=None)
    sp.add_argument("--offset", type=_parse_offset, default=None)
    sp.add_argument("--anchors", default=None)
    sp.add_argument("--grid", default=None)
    sp.add_argument("--sigma", type=float, default=None)
    sp.add_argument("--via-gp", action="store_true", help="regress targets with the GP encoder")
    sp.add_argument("--beta", type=float, default=None)
    common(sp)

    sp = sub.add_parser("decode", help="anchor probabilities -> warp")
    sp.add_argument("--probs", required=True)
    sp.add_argument("--anchors", default=None)
    sp.add_argument("--grid", default=None)
    sp.add_argument("--corr", default=None, help="correspondence CSV for a coarse-loss report")
    sp.add_argument("--lambda", dest="marginal_weight", type=float, default=None)
    common(sp)

    sp = sub.add_parser("loss-sweep", help="robust loss curve CSV")
    sp.add_argument("--c", type=float, default=None)
    sp.add_argument("--rmin", type=float, default=None)
    sp.add_argument("--rmax", type=float, default=None)
    sp.add_argument("--steps", type=int, default=None)
    common(sp)

    sp = sub.add_parser("diffuse", help="multimodality sweep CSV")
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--scales", default=None)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--offset", type=float, default=None)
    common(sp)

    sp = sub.add_parser("cascade", help="run coarse-to-fine refinement")
    sp.add_argument("--base", type=int, default=None)
    sp.add_argument("--kind", default=None, choices=[None, "identity", "translation", "affine"])
    sp.add_argument("--perturb", type=float, default=None, help="coarse perturbation in stride-14 cells")
    sp.add_argument("--temperature", type=float, default=None)
    sp.add_argument("--offset", type=_parse_offset, default=None)
    common(sp)

    steer = sub.add_parser("steer", help="descriptor steering")
    steer_sub = steer.add_subparsers(dest="steer_command", required=True)

    sp = steer_sub.add_parser("fit")
    sp.add_argument("--synthetic", action="store_true")
    sp.add_argument("--dir", default=None, help="directory with rot0..rot3.rmdesc")
    sp.add_argument("--method", choices=["l1", "lsq"], default=None)
    sp.add_argument("--iters", type=int, default=None)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--dim", type=int, default=None)
    sp.add_argument("--noise", type=float, default=None)
    common(sp)

    sp = steer_sub.add_parser("apply")
    sp.add_argument("--desc", required=True)
    sp.add_argument("--w", required=True)
    sp.add_argument("--k", type=int, default=None)
    common(sp)

    sp = steer_sub.add_parser("eval")
    sp.add_argument("--base", required=True)
    sp.add_argument("--rotated", required=True)
    sp.add_argument("--w", required=True)
    sp.add_argument("--k", type=int, default=None)
    common(sp)

    sp = sub.add_parser("sample", help="balanced match sampling")
    sp.add_argument("--warp", default=None, help="RMGRID1 (H, W, 3) warp file")
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--n-matches", type=int, default=None)
    sp.add_argument("--bandwidth", type=float, default=None)
    sp.add_argument("--sensitivity", default=None, help="comma-separated bandwidths")
    common(sp)

    sp = sub.add_parser("eval", help="metrics report")
    sp.add_argument("--pose-errors", default=None, help="CSV with header rot_deg,trans_deg")
    sp.add_argument("--pred", default=None)
    sp.add_argument("--gt", default=None)
    sp.add_argument("--ref-res", type=float, default=None)
    common(sp)

    sp = sub.add_parser("selftest", help="run the oracle suite")
    common(sp)

    return p


def _parse_offset(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("offset must be 'x,y'")
    return np.array([float(parts[0]), float(parts[1])])


DEFAULTS = {
    "synth": {"n": 256, "dim": 32, "noise": 0.0, "base": 56, "anchors": "8x8", "grid": "6x6", "sigma": 0.08, "beta": 10.0, "seed": 0, "out": "out"},
    "decode": {"anchors": "8x8", "grid": "6x6", "marginal_weight": 1.0, "seed": 0, "out": "out"},
    "loss-sweep": {"c": 0.03, "rmin": 1e-4, "rmax": 100.0, "steps": 200, "seed": 0, "out": "out"},
    "diffuse": {"grid": 16, "scales": "0,0.05,0.1,0.2", "threshold": 0.1, "offset": 0.3, "seed": 0, "out": "out"},
    "cascade": {"base": 56, "kind": "translation", "perturb": 1.0, "temperature": 0.05, "seed": 0, "out": "out"},
    "steer fit": {"method": "l1", "iters": 2000, "step": 1e-3, "n": 256, "dim": 32, "noise": 0.0, "seed": 0, "out": "out"},
    "steer apply": {"k": 1, "seed": 0, "out": "out"},
    "steer eval": {"k": 1, "seed": 0, "out": "out"},
    "sample": {"grid": 16, "n_matches": 10000, "bandwidth": 0.15, "seed": 0, "out": "out"},
    "eval": {"ref_res": 448.0, "seed": 0, "out": "out"},
    "selftest": {"seed": 0, "out": "out"},
}

HANDLERS = {
    "synth": _cmd_synth,
    "decode": _cmd_decode,
    "loss-sweep": _cmd_loss_sweep,
    "diffuse": _cmd_diffuse,
    "cascade": _cmd_cascade,
    "steer fit": _cmd_steer_fit,
    "steer apply": _cmd_steer_apply,
    "steer eval": _cmd_steer_eval,
    "sample": _cmd_sample,
    "eval": _cmd_eval,
    "selftest": _cmd_selftest,
}


def _apply_defaults(args: argparse.Namespace, key: str) -> None:
    config = {}
    if getattr(args, "config", None):
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        config = loaded.get(key, {})
        if not isinstance(config, dict):
            raise ValueError(f"config section {key!r} must be an object")
    merged = dict(DEFAULTS.get(key, {}))
    merged.update(config)
    for name, value in merged.items():
        attr = name.replace("-", "_")
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    key = args.command if args.command != "steer" else f"steer {args.steer_command}"
    try:
        _apply_defaults(args, key)
        return HANDLERS[key](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
