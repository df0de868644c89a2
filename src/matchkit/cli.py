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
with one object of option values per subcommand ("steer fit" and so on), read
as the flags it stands for, placed before the command line's own flags.
Exit codes: 0 success, 1 usage error, 2 data error. A run that exits non-zero
writes nothing: --out is made only when the run succeeds. Seeded subcommands
are deterministic: identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import (
    CORR_WINDOWS,
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
    synth_levels,
    synth_pyramid,
    to_warp,
    translation_scene,
    two_translation_scene,
)
from . import auc as auc_metric
from . import epe as epe_metric
from .cascade import _TEMPERATURE, FeatureField, stage_epes
from .fileio import (
    read_correspondences_csv,
    read_csv,
    read_descriptors,
    read_grid,
    read_steering,
    warp_to_rgb,
    write_correspondences_csv,
    write_csv,
    write_descriptors,
    write_grid,
    write_pgm,
    write_ppm,
    write_steering,
    write_support_set,
)
from .gp import KernelSpec, SupportSet, gp_posterior_mean
from .losses import CoarseLossConfig, coarse_loss
from .sampling import _candidates
from .scalespace import SceneSpec, _sweep, affine_scene, identity_scene
from .selftest import run_selftest
from .steering import (
    DescriptorSet,
    SteeringMatrix,
    apply_steering,
    fit_steering_l1,
    fit_steering_lsq,
    random_c4_steering,
    rotation_matching_eval,
)

USAGE_EXIT = 1
DATA_EXIT = 2


class UsageError(Exception):
    pass


class _ArgumentError(UsageError):
    """A usage error found by argparse; reported with the usage line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _ArgumentError(message)


def _floats(count: int | None, what: str, finite: bool = True):
    """An argparse ``type``: ``count`` comma-separated floats (any number if
    None), finite unless told otherwise; one comes back as a float, several as a list."""

    def parse(text: str):
        try:
            values = [float(part) for part in text.split(",")]
            if count not in (None, len(values)) or (finite and not all(map(math.isfinite, values))):
                raise ValueError
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
        return values[0] if count == 1 else values

    return parse


FLOAT = _floats(1, "a finite number")
FLOATS = _floats(None, "finite numbers a,b,...")


def _seed(text: str) -> int:
    """The argparse ``type`` of --seed: numpy takes nonnegative integer seeds."""
    if not text.isdecimal():  # digits only, so no sign
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _grid_size(text: str) -> tuple[int, int]:
    """The argparse ``type`` of ROWSxCOLS options. It raises UsageError, which
    argparse passes on without adding its usage line."""
    try:
        rows, cols = (int(p) for p in text.lower().split("x"))
    except ValueError:  # not two parts, or a part that is not an integer
        raise UsageError(f"expected ROWSxCOLS, got {text!r}") from None
    return rows, cols


def _scene_from_kind(kind: str, rng: np.random.Generator, offset=None) -> SceneSpec:
    """The ``kind`` scene. What ``offset`` leaves open is drawn from ``rng``, which the caller draws on from."""
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
    with np.errstate(over="ignore"):  # two-translation; an overflowing norm is refused below
        mag = 0.3 if offset is None else float(np.linalg.norm(offset))
    if not math.isfinite(mag):
        raise ValueError(f"--offset {offset[0]!r},{offset[1]!r} is too large: its norm overflows")
    return two_translation_scene((-mag, 0.0), (mag, 0.0))


def _save_warp(stage: Path, stem: str, warp: WarpField) -> None:
    payload = np.concatenate([warp.target_coords, warp.certainty[..., None]], axis=-1)
    write_grid(stage / f"{stem}.rmgrid", payload)
    write_ppm(stage / f"{stem}.ppm", warp_to_rgb(warp.target_coords, warp.certainty))


def _load_warp(path) -> WarpField:
    data = read_grid(path)
    if data.ndim != 3 or data.shape[2] != 3:
        raise ValueError(f"{path}: warp tensor must have shape (H, W, 3)")
    grid = GridSpec(data.shape[0], data.shape[1])
    return WarpField(grid, data[..., :2], np.clip(data[..., 2], 0.0, 1.0))


def _synth_descriptors(a) -> tuple[SteeringMatrix, list[DescriptorSet]]:
    """A random C4 steering and the descriptor sets it makes equivariant."""
    w_true = random_c4_steering(a.dim, seed=a.seed)
    return w_true, synth_equivariant(a.n, a.dim, w_true=w_true, noise_sigma=a.noise, seed=a.seed)


def _write_descriptor_sets(stage: Path, w_true: SteeringMatrix, sets: list[DescriptorSet]) -> None:
    """Write rot0..rot3.rmdesc and w_true.rmsteer to ``stage``."""
    for k, ds in enumerate(sets):
        write_descriptors(stage / f"rot{k}.rmdesc", ds.coords, ds.descs)
    write_steering(stage / "w_true.rmsteer", w_true.w)


def _cmd_synth(a, stage: Path) -> int:
    if a.kind == "descriptors":
        _write_descriptor_sets(stage, *_synth_descriptors(a))
        print(f"wrote rot0..rot3.rmdesc and w_true.rmsteer to {a.out}")
        return 0
    rng = np.random.default_rng(a.seed)
    if a.kind != "probs":
        scene = _scene_from_kind(a.kind, rng, a.offset)
        base = GridSpec(a.base, a.base)
        truth = scene_true_warp(scene, base)
        _save_warp(stage, "truth", truth)
        levels_a, levels_b = synth_levels(scene, base, sorted(CORR_WINDOWS), seed=a.seed)
        for stride in levels_a:
            write_grid(stage / f"source_stride{stride}.rmgrid", levels_a[stride])
            write_grid(stage / f"target_stride{stride}.rmgrid", levels_b[stride])
        print(f"wrote truth warp and pyramid levels to {a.out}")
        return 0
    grid = build_anchor_grid(*a.anchors)
    source = GridSpec(*a.grid)
    scene = _scene_from_kind("affine", rng)
    targets = np.clip(scene.map_points(source.cell_centers()), -0.999, 0.999)
    if a.via_gp:
        # Regress target coordinates from descriptors with the GP encoder,
        # then discretize the predicted coordinates over the anchors.
        field = FeatureField(32, a.seed)
        tgt_grid = grid.as_grid_spec()
        support = SupportSet(field(tgt_grid.cell_centers()), tgt_grid.cell_centers())
        targets = gp_posterior_mean(field(targets), support, KernelSpec(a.beta, 1e-4))
        targets = np.clip(targets, -0.999, 0.999)
    pi = gaussian_anchor_probs(grid, targets, sigma=a.sigma)
    if a.via_gp:
        write_support_set(stage / "support", support.features, support.embeddings)
    match = rng.uniform(0.5, 1.0, source.n_cells)
    write_grid(stage / "probs.rmgrid", np.concatenate([pi, match[:, None]], axis=1))
    _write_json(
        stage / "probs.json",
        {"anchors": {"rows": grid.rows, "cols": grid.cols}, "grid": {"height": source.height, "width": source.width}},
    )
    print(f"wrote probs.rmgrid ({source.n_cells} x {grid.count}+1) to {a.out}")
    return 0


def _cmd_decode(a, stage: Path) -> int:
    data = read_grid(a.probs)
    grid = build_anchor_grid(*a.anchors)
    source = GridSpec(*a.grid)
    if data.shape != (source.n_cells, grid.count + 1):
        raise ValueError(
            f"probs tensor shape {data.shape} does not match grid {source.height}x{source.width} "
            f"with {grid.count} anchors (+1 matchability column)"
        )
    sums = data[:, :-1].sum(axis=1)
    bad = np.flatnonzero(~((sums > 0) & (sums < np.inf)))
    if bad.size:
        raise ValueError(f"{a.probs}: anchor probability row {bad[0]} sums to {sums[bad[0]]}")
    pi = data[:, :-1] / sums[:, None]
    probs = AnchorProbs(source, pi, np.clip(data[:, -1], 0.0, 1.0))
    _save_warp(stage, "warp", to_warp(probs, grid))
    if a.corr:
        corr = read_correspondences_csv(a.corr)
        res = coarse_loss(probs, np.ones(source.n_cells, bool), corr, CoarseLossConfig(a.marginal_weight, grid))
        _write_json(
            stage / "coarse_loss.json",
            {
                "marginal_weight": a.marginal_weight,
                "total": res.value,
                "conditional_term": res.conditional_term,
                "marginal_term": res.marginal_term,
            },
        )
    print(f"decoded warp written to {a.out}")
    return 0


def _cmd_loss_sweep(a, stage: Path) -> int:
    rows = gradient_sweep(c=a.c, rmin=a.rmin, rmax=a.rmax, steps=a.steps)
    write_csv(stage / "loss_sweep.csv", "r,loss,grad_magnitude", rows.tolist())
    print(f"wrote {a.out / 'loss_sweep.csv'} ({rows.shape[0]} rows)")
    return 0


def _cmd_diffuse(a, stage: Path) -> int:
    scene = two_translation_scene((-a.offset, 0.0), (a.offset, 0.0))
    grid = GridSpec(a.grid, a.grid)
    mid = (grid.height // 2) * grid.width + grid.width // 2 - 1  # boundary-adjacent cell
    sweep, rows = _sweep(scene, grid, grid, a.scales, a.threshold, row=mid)
    write_csv(
        stage / "multimodality.csv",
        "s,boundary_dist_bin,fraction_multimodal,n_cells",
        [(s, b, frac, n) for s, b, frac, n in sweep.table()],
    )
    for s, row in zip(a.scales, rows):
        if row.sum() > 0:
            write_grid(
                stage / f"conditional_s{s!r}.rmgrid",
                (row / row.sum()).reshape(grid.height, grid.width),
            )
    print(f"wrote {a.out / 'multimodality.csv'} and conditional snapshots")
    return 0


def _cmd_cascade(a, stage: Path) -> int:
    if a.perturb < 0:
        raise ValueError(f"--perturb must be nonnegative, got {a.perturb}")
    rng = np.random.default_rng(a.seed)
    scene = _scene_from_kind(a.kind, rng, a.offset)
    base = GridSpec(a.base, a.base)
    pyr_a, pyr_b = synth_pyramid(scene, base, seed=a.seed)
    g14 = GridSpec(a.base // 14, a.base // 14)
    true14 = scene_true_warp(scene, g14)
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
    write_csv(stage / "stage_epe.csv", "stride,epe_extent,epe_fine_cells", rows)
    _save_warp(stage, "final", final)
    write_pgm(stage / "certainty.pgm", final.certainty)
    print(f"wrote per-stage EPE and final warp to {a.out}")
    return 0


def _cmd_steer_fit(a, stage: Path) -> int:
    if not (a.synthetic or a.dir):
        raise UsageError("steer fit needs --synthetic or --dir")
    if a.method == "l1" and a.step <= 0:
        raise ValueError(f"--step must be positive, got {a.step}")
    if a.method == "l1" and a.iters < 0:
        raise ValueError(f"--iters must be nonnegative, got {a.iters}")
    if a.synthetic:
        w_true, sets = _synth_descriptors(a)
    else:
        sets = [DescriptorSet(*read_descriptors(Path(a.dir) / f"rot{k}.rmdesc")) for k in range(4)]
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
    if a.synthetic:
        _write_descriptor_sets(stage, w_true, sets)
    write_steering(stage / "w_fit.rmsteer", w.w)
    _write_json(stage / "fit_report.json", report)
    print(f"wrote w_fit.rmsteer and fit_report.json to {a.out}")
    return 0


def _cmd_steer_apply(a, stage: Path) -> int:
    coords, descs = read_descriptors(a.desc)
    w = SteeringMatrix(read_steering(a.w))
    write_descriptors(stage / "steered.rmdesc", coords, apply_steering(w, a.k, descs))
    print(f"wrote steered descriptors to {a.out / 'steered.rmdesc'}")
    return 0


def _cmd_steer_eval(a, stage: Path) -> int:
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
    _write_json(stage / "steer_eval.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_sample(a, stage: Path) -> int:
    if a.warp:
        warp = _load_warp(a.warp)
    else:
        scene = _scene_from_kind("affine", np.random.default_rng(a.seed))
        grid = GridSpec(a.grid, a.grid)
        warp = scene_true_warp(scene, grid)
    if a.n_matches < 1:
        raise ValueError(f"--n-matches must be at least 1, got {a.n_matches}")
    n = min(a.n_matches, len(_candidates(warp)[2]))
    what = "cells with positive certainty and an in-extent target"
    if n == 0:
        raise ValueError(f"the warp has no candidates ({what})")
    cs = balanced_sample(warp, n, h=a.bandwidth, seed=a.seed)
    rows = [(h, spatial_entropy(balanced_sample(warp, n, h=h, seed=a.seed))) for h in a.sensitivity or ()]
    # After every draw, so that a refused bandwidth prints one error line.
    if n < a.n_matches:
        print(f"note: --n-matches {a.n_matches} capped to the {n} candidates ({what})", file=sys.stderr)
    write_correspondences_csv(stage / "matches.csv", cs)
    if a.sensitivity:
        write_csv(stage / "bandwidth_sensitivity.csv", "bandwidth,spatial_entropy", rows)
    print(f"wrote {n} matches to {a.out / 'matches.csv'}")
    return 0


def _cmd_eval(a, stage: Path) -> int:
    report: dict = {}
    if a.pose_errors:
        rot, trans = read_csv(a.pose_errors, "rot_deg,trans_deg").T
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
    _write_json(stage / "metrics.json", report)
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_selftest(_a, _stage: Path) -> int:
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
    p.sections = {}  # config section name -> its subcommand's parser
    sub = p.add_subparsers(dest="command", required=True)

    # Options that several subcommands share, each declared once in a parent parser.
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=_seed, default=0)
    common.add_argument("--out", type=Path, default="out")
    common.add_argument("--config", help="JSON file with option values per subcommand")
    descriptors = _Parser(add_help=False)
    descriptors.add_argument("--n", type=int, default=256)
    descriptors.add_argument("--dim", type=int, default=32)
    descriptors.add_argument("--noise", type=FLOAT, default=0.0)
    scene = _Parser(add_help=False)
    scene.add_argument("--base", type=int, default=56)
    scene.add_argument("--offset", type=_floats(2, "two finite numbers x,y"), help="default: drawn from the seed")
    anchors = _Parser(add_help=False)
    anchors.add_argument("--anchors", type=_grid_size, default="8x8")
    anchors.add_argument("--grid", type=_grid_size, default="6x6")
    steering = _Parser(add_help=False)
    steering.add_argument("--w", required=True)
    steering.add_argument("--k", type=int, default=1)

    def command(parent, name, handler, shared=(), section=None, **kw) -> _Parser:
        sp = parent.add_parser(name, parents=[*shared, common], **kw)
        p.sections[section or name] = sp
        sp.set_defaults(handler=handler)
        return sp

    sp = command(sub, "synth", _cmd_synth, [descriptors, scene, anchors], help="generate synthetic data")
    sp.add_argument("kind", choices=["descriptors", "identity", "translation", "affine", "two-translation", "probs"])
    sp.add_argument("--sigma", type=FLOAT, default=0.08)
    sp.add_argument("--via-gp", action="store_true", help="regress targets with the GP encoder")
    sp.add_argument("--beta", type=FLOAT, default=10.0)

    sp = command(sub, "decode", _cmd_decode, [anchors], help="anchor probabilities -> warp")
    sp.add_argument("--probs", required=True)
    sp.add_argument("--corr", help="correspondence CSV for a coarse-loss report")
    sp.add_argument("--lambda", dest="marginal_weight", type=FLOAT, default=1.0)

    sp = command(sub, "loss-sweep", _cmd_loss_sweep, help="robust loss curve CSV")
    sp.add_argument("--c", type=FLOAT, default=0.03)
    sp.add_argument("--rmin", type=FLOAT, default=1e-4)
    sp.add_argument("--rmax", type=FLOAT, default=100.0)
    sp.add_argument("--steps", type=int, default=200)

    sp = command(sub, "diffuse", _cmd_diffuse, help="multimodality sweep CSV")
    sp.add_argument("--grid", type=int, default=16)
    # diffuse itself refuses a non-finite scale, as a data error (exit 2).
    sp.add_argument("--scales", type=_floats(None, "numbers a,b,...", finite=False), default=[0.0, 0.05, 0.1, 0.2])
    sp.add_argument("--threshold", type=FLOAT, default=0.1)
    sp.add_argument("--offset", type=FLOAT, default=0.3)

    sp = command(sub, "cascade", _cmd_cascade, [scene], help="run coarse-to-fine refinement")
    sp.add_argument("--kind", choices=["identity", "translation", "affine"], default="translation")
    sp.add_argument("--perturb", type=FLOAT, default=1.0, help="coarse perturbation in stride-14 cells")
    sp.add_argument("--temperature", type=FLOAT, default=_TEMPERATURE)

    steer = sub.add_parser("steer", help="descriptor steering")
    steer_sub = steer.add_subparsers(dest="steer_command", required=True)

    sp = command(steer_sub, "fit", _cmd_steer_fit, [descriptors], section="steer fit")
    sp.add_argument("--synthetic", action="store_true")
    sp.add_argument("--dir", help="directory with rot0..rot3.rmdesc")
    sp.add_argument("--method", choices=["l1", "lsq"], default="l1")
    sp.add_argument("--iters", type=int, default=2000)
    sp.add_argument("--step", type=FLOAT, default=1e-3)

    sp = command(steer_sub, "apply", _cmd_steer_apply, [steering], section="steer apply")
    sp.add_argument("--desc", required=True)

    sp = command(steer_sub, "eval", _cmd_steer_eval, [steering], section="steer eval")
    sp.add_argument("--base", required=True)
    sp.add_argument("--rotated", required=True)

    sp = command(sub, "sample", _cmd_sample, help="balanced match sampling")
    sp.add_argument("--warp", help="RMGRID1 (H, W, 3) warp file")
    sp.add_argument("--grid", type=int, default=16)
    sp.add_argument("--n-matches", type=int, default=10000)
    sp.add_argument("--bandwidth", type=FLOAT, default=0.15)
    sp.add_argument("--sensitivity", type=FLOATS, help="comma-separated bandwidths")

    sp = command(sub, "eval", _cmd_eval, help="metrics report")
    sp.add_argument("--pose-errors", help="CSV with header rot_deg,trans_deg")
    sp.add_argument("--pred")
    sp.add_argument("--gt")
    sp.add_argument("--ref-res", type=FLOAT, default=448.0)

    command(sub, "selftest", _cmd_selftest, help="run the oracle suite")
    return p


def _config_flags(sp: _Parser, path: str, section: str) -> list[str]:
    """The ``--flag=value`` words that section ``section`` of config file ``path`` stands for.

    Keys are option dests, written with ``-`` or ``_``. JSON ``true`` sets a
    switch and ``false`` leaves it off; an array is joined with commas.
    """
    try:
        config = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    values = config.get(section, {}) if isinstance(config, dict) else None
    if not isinstance(values, dict):
        raise ValueError(f"{path}: config section {section!r} must be a JSON object")
    options = {a.dest: a for a in sp._actions if a.option_strings and a.dest != argparse.SUPPRESS}
    flags = []
    for key, value in values.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"{path}: unknown key {key!r} in config section {section!r}")
        flag = action.option_strings[0]
        if isinstance(value, bool) and action.nargs == 0:  # a switch
            flags += [flag] if value else []
        else:
            items = value if isinstance(value, list) else [value]
            flags.append(flag + "=" + ",".join(v if isinstance(v, str) else json.dumps(v) for v in items))
    return flags


def _run(a) -> int:
    """Run ``a``'s handler on an empty staging directory, then copy what it wrote to --out.

    Handlers write only to the stage, and their stdout is held back with it, so
    a run refused at any point prints one error line and writes nothing:
    --out is made, with parents, only after the handler has returned 0.
    """
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as held:
        stage = Path(tmp)
        code = a.handler(a, stage)
        staged = sorted(stage.iterdir())
        if code == 0 and staged:
            a.out.mkdir(parents=True, exist_ok=True)
            for path in staged:
                shutil.copyfile(path, a.out / path.name)
    sys.stdout.write(held.getvalue())
    return code


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Config flags go between the subcommand words and the user's own
            # flags; argparse keeps the last value it sees, so flags override.
            section = args.command if args.command != "steer" else f"steer {args.steer_command}"
            words = len(section.split())
            flags = _config_flags(parser.sections[section], args.config, section)
            args = parser.parse_args([*argv[:words], *flags, *argv[words:]])
        return _run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _ArgumentError):
            parser.print_usage(sys.stderr)
        return USAGE_EXIT
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: an allocation sized by a flag
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return DATA_EXIT
