import json
import os
import subprocess
import sys
import re
from pathlib import Path

import numpy as np
import pytest

from matchkit import GridSpec, cli, run_cascade, scene_true_warp, selftest, translation_scene
from matchkit.cli import main
from matchkit.fileio import (
    read_correspondences_csv,
    read_descriptors,
    read_grid,
    read_steering,
    write_descriptors,
    write_grid,
    write_steering,
)


def run(*argv):
    return main(list(argv))


def read_bytes_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_loss_sweep_r0_row(tmp_path):
    assert run("loss-sweep", "--c", "0.03", "--rmax", "100", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "loss_sweep.csv").read_text().splitlines()
    assert lines[0] == "r,loss,grad_magnitude"
    r, loss, grad = (float(v) for v in lines[1].split(","))
    assert r == 0.0
    assert np.isclose(loss, 0.03**0.25)
    assert grad == 0.0


def test_synth_descriptors_and_steer_pipeline(tmp_path, capsys):
    fit_dir = tmp_path / "fit"
    assert run("steer", "fit", "--synthetic", "--iters", "50", "--out", str(fit_dir)) == 0
    report = json.loads((fit_dir / "fit_report.json").read_text())
    assert report["final_loss"] <= report["initial_loss"]

    ev_dir = tmp_path / "eval"
    assert (
        run(
            "steer", "eval",
            "--base", str(fit_dir / "rot0.rmdesc"),
            "--rotated", str(fit_dir / "rot1.rmdesc"),
            "--w", str(fit_dir / "w_fit.rmsteer"),
            "--k", "1",
            "--out", str(ev_dir),
        )
        == 0
    )
    payload = json.loads((ev_dir / "steer_eval.json").read_text())
    assert payload["accuracy_with"] >= 0.99
    assert payload["accuracy_without"] < 0.5


def test_steer_apply_matches_library(tmp_path):
    fit_dir = tmp_path / "fit"
    run("steer", "fit", "--synthetic", "--method", "lsq", "--out", str(fit_dir))
    out_dir = tmp_path / "applied"
    assert (
        run(
            "steer", "apply",
            "--desc", str(fit_dir / "rot0.rmdesc"),
            "--w", str(fit_dir / "w_fit.rmsteer"),
            "--k", "2",
            "--out", str(out_dir),
        )
        == 0
    )
    coords, descs = read_descriptors(fit_dir / "rot0.rmdesc")
    w = read_steering(fit_dir / "w_fit.rmsteer")
    _, steered = read_descriptors(out_dir / "steered.rmdesc")
    want = descs @ (w @ w).T
    assert np.allclose(steered, want, atol=1e-4)


def test_decode_round_trip(tmp_path):
    pr = tmp_path / "probs"
    assert run("synth", "probs", "--anchors", "8x8", "--grid", "6x6", "--out", str(pr)) == 0
    dec = tmp_path / "decoded"
    assert (
        run(
            "decode", "--probs", str(pr / "probs.rmgrid"),
            "--anchors", "8x8", "--grid", "6x6", "--out", str(dec),
        )
        == 0
    )
    warp = read_grid(dec / "warp.rmgrid")
    assert warp.shape == (6, 6, 3)
    assert (dec / "warp.ppm").exists()


def test_synth_probs_via_gp_and_loss_report(tmp_path):
    pr = tmp_path / "probs"
    assert run("synth", "probs", "--via-gp", "--beta", "10", "--out", str(pr)) == 0
    assert (pr / "support.features.rmgrid").exists()
    sm = tmp_path / "matches"
    dec0 = tmp_path / "dec0"
    assert run("decode", "--probs", str(pr / "probs.rmgrid"), "--out", str(dec0)) == 0
    assert run("sample", "--warp", str(dec0 / "warp.rmgrid"), "--n-matches", "10", "--out", str(sm)) == 0
    dec = tmp_path / "dec"
    assert (
        run(
            "decode", "--probs", str(pr / "probs.rmgrid"),
            "--corr", str(sm / "matches.csv"), "--lambda", "0.5", "--out", str(dec),
        )
        == 0
    )
    report = json.loads((dec / "coarse_loss.json").read_text())
    assert report["marginal_weight"] == 0.5
    assert report["total"] >= 0


def test_cascade_reports_monotone_epe(tmp_path):
    out = tmp_path / "casc"
    assert run("cascade", "--kind", "translation", "--seed", "3", "--out", str(out)) == 0
    lines = (out / "stage_epe.csv").read_text().splitlines()
    assert lines[0] == "stride,epe_extent,epe_fine_cells"
    epes = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(epes) == 5
    assert all(b <= a + 1e-9 for a, b in zip(epes[:-1], epes[1:]))
    assert (out / "final.ppm").exists() and (out / "certainty.pgm").exists()


def test_diffuse_outputs_expected_fractions(tmp_path):
    out = tmp_path / "diff"
    assert run("diffuse", "--scales", "0,0.2", "--out", str(out)) == 0
    rows = [line.split(",") for line in (out / "multimodality.csv").read_text().splitlines()[1:]]
    near_zero = [r for r in rows if float(r[0]) == 0.0 and int(r[1]) == 1]
    near_point2 = [r for r in rows if float(r[0]) == 0.2 and int(r[1]) == 1]
    assert float(near_zero[0][2]) == 0.0
    assert float(near_point2[0][2]) >= 0.8


def test_diffuse_scale_past_every_axis_runs(tmp_path, capsys):
    # 4s / side overflows to inf: the kernel keeps only the taps that reach the grid.
    assert run("diffuse", "--scales", "1e308", "--out", str(tmp_path / "out")) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["cascade", "--temperature", "1e-320", "--base", "56"],  # softargmax weights overflow to 0
        ["synth", "probs", "--sigma", "1e-320"],  # erf arguments overflow to +-inf
    ],
)
def test_tiny_widths_run_without_overflow_warnings(tmp_path, capsys, argv):
    assert run(*argv, "--out", str(tmp_path / "out")) == 0
    assert capsys.readouterr().err == ""


def test_sample_cap_counts_candidates_and_says_so(tmp_path, capsys):
    # The default 16x16 affine scene maps 2 of its 256 cells out of view.
    assert run("sample", "--out", str(tmp_path)) == 0
    captured = capsys.readouterr()
    assert "capped to the 254 candidates" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert len(read_correspondences_csv(tmp_path / "matches.csv")) == 254
    assert run("sample", "--n-matches", "254", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().err == ""


def test_eval_pose_errors_report(tmp_path):
    csv = tmp_path / "errs.csv"
    csv.write_text("rot_deg,trans_deg\n1.0,0.5\n12.0,0.1\n")
    out = tmp_path / "rep"
    assert run("eval", "--pose-errors", str(csv), "--out", str(out)) == 0
    report = json.loads((out / "metrics.json").read_text())
    # max(rot, trans) = [1, 12]; AUC@5 integrates recall 0.5 on [1, 5].
    assert np.isclose(report["auc"]["5"], 0.4)
    assert 0 < report["maa"] < 1


def test_eval_correspondence_report(tmp_path):
    xa = "0.0,0.0"
    gt = tmp_path / "gt.csv"
    gt.write_text(f"xa,ya,xb,yb,weight\n{xa},0.1,0.1,1.0\n")
    pred = tmp_path / "pred.csv"
    pred.write_text(f"xa,ya,xb,yb,weight\n{xa},{0.1 + 2/448},0.1,1.0\n")
    out = tmp_path / "rep"
    assert run("eval", "--pred", str(pred), "--gt", str(gt), "--out", str(out)) == 0
    report = json.loads((out / "metrics.json").read_text())
    assert np.isclose(report["epe_px"], 2.0)
    assert report["pck"]["3.0"] == 100.0
    assert report["pck"]["1.0"] == 0.0


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loss-sweep": {"c": 0.5, "out": str(tmp_path / "sweep")}}))
    assert run("loss-sweep", "--config", str(cfg)) == 0
    lines = (tmp_path / "sweep" / "loss_sweep.csv").read_text().splitlines()
    assert np.isclose(float(lines[1].split(",")[1]), 0.5**0.25)


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"loss-sweep": {"c": 0.5}}))
    out = tmp_path / "sweep"
    assert run("loss-sweep", "--config", str(cfg), "--c", "0.03", "--out", str(out)) == 0
    lines = (out / "loss_sweep.csv").read_text().splitlines()
    assert np.isclose(float(lines[1].split(",")[1]), 0.03**0.25)


def test_malformed_grid_sizes_are_usage_errors(tmp_path, capsys):
    for flag in ("--anchors", "--grid"):
        for bad in ("8xq", "8", "8x8x8", "x"):
            argv = ["synth", "probs", flag, bad, "--out", str(tmp_path)]
            assert run(*argv) == 1, argv
            err = capsys.readouterr().err
            assert f"expected ROWSxCOLS, got {bad!r}" in err
            assert len(err.strip().splitlines()) == 1
    probs = tmp_path / "probs.rmgrid"
    assert run("synth", "probs", "--out", str(tmp_path)) == 0
    assert run("decode", "--probs", str(probs), "--anchors", "8xq", "--out", str(tmp_path)) == 1
    assert run("decode", "--probs", str(probs), "--grid", "6xq", "--out", str(tmp_path)) == 1


def _u32(*values):
    return b"".join(v.to_bytes(4, "little") for v in values)


def test_hostile_binary_headers_are_one_line_data_errors(tmp_path, capsys):
    from matchkit.fileio import DESC_MAGIC, GRID_MAGIC, MAX_GRID_RANK, STEER_MAGIC

    assert run("synth", "descriptors", "--n", "8", "--dim", "4", "--out", str(tmp_path)) == 0
    desc, w = str(tmp_path / "rot0.rmdesc"), str(tmp_path / "w_true.rmsteer")
    capsys.readouterr()
    cases = [
        ("grid", GRID_MAGIC),
        ("grid", GRID_MAGIC + _u32(MAX_GRID_RANK + 1)),
        ("grid", GRID_MAGIC + _u32(3, 2**31, 2**31, 2**31)),
        ("grid", GRID_MAGIC + _u32(3, 2, 2, 3) + b"\x00" * 47),
        ("grid", GRID_MAGIC + _u32(3, 2, 2, 3) + b"\x00" * 49),
        ("desc", DESC_MAGIC + _u32(5)),
        ("desc", DESC_MAGIC + _u32(2**32 - 1, 2**32 - 1)),
        ("desc", DESC_MAGIC + _u32(1, 4) + b"\x00" * 23),
        ("desc", DESC_MAGIC + _u32(1, 4) + b"\x00" * 25),
        ("steer", STEER_MAGIC + b"\x04"),
        ("steer", STEER_MAGIC + _u32(2**32 - 1)),
        ("steer", STEER_MAGIC + _u32(4) + b"\x00" * 63),
        ("steer", STEER_MAGIC + _u32(4) + b"\x00" * 65),
    ]
    for i, (kind, raw) in enumerate(cases):
        bad = tmp_path / f"bad{i}.bin"
        bad.write_bytes(raw)
        if kind == "grid":
            argv = ["sample", "--warp", str(bad)]
        elif kind == "desc":
            argv = ["steer", "apply", "--desc", str(bad), "--w", w]
        else:
            argv = ["steer", "apply", "--desc", desc, "--w", str(bad)]
        assert run(*argv, "--out", str(tmp_path / "o")) == 2, raw
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and len(err.strip().splitlines()) == 1, err


def error_lines(err):
    return [line for line in err.splitlines() if "error:" in line]


def assert_one_error(err, argparse_error=False):
    """One ``error:`` line; argparse errors add the usage line after it."""
    assert err.startswith("error: ") and len(error_lines(err)) == 1, err
    if argparse_error:
        assert "usage: matchkit" in err, err
    else:
        assert len(err.strip().splitlines()) == 1, err


def run_with_config(tmp_path, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    return run(*argv, "--config", str(cfg))


@pytest.mark.parametrize(
    "command, section, values, message",
    [
        (["cascade"], "cascade", {"base": "x"}, "argument --base: invalid int value: 'x'"),
        (["loss-sweep"], "loss-sweep", {"steps": 2.5}, "argument --steps: invalid int value: '2.5'"),
        (["diffuse"], "diffuse", {"grid": None}, "argument --grid: invalid int value: 'null'"),
        (["cascade"], "cascade", {"kind": "two-translation"}, "argument --kind: invalid choice"),
        (["cascade"], "cascade", {"offset": [0.1, 0.2, 0.3]}, "argument --offset: expected two"),
        (["loss-sweep"], "loss-sweep", {"c": float("nan")}, "argument --c: expected a finite number"),
        (["steer", "fit"], "steer fit", {"synthetic": "yes"}, "argument --synthetic: ignored explicit"),
    ],
)
def test_config_values_are_checked_like_flags(tmp_path, capsys, command, section, values, message):
    out = tmp_path / "out"
    assert run_with_config(tmp_path, command, {section: {**values, "out": str(out)}}) == 1
    err = capsys.readouterr().err
    assert_one_error(err, argparse_error=True)
    assert err.startswith(f"error: {message}"), err
    assert not out.exists()


def test_config_unknown_key_names_key_and_section(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_with_config(tmp_path, ["cascade"], {"cascade": {"bse": 112, "out": str(out)}}) == 1
    err = capsys.readouterr().err
    assert_one_error(err)
    assert "unknown key 'bse' in config section 'cascade'" in err
    assert not out.exists()
    # Positional words and other sections' options are not keys either.
    assert run_with_config(tmp_path, ["synth", "identity"], {"synth": {"kind": "affine"}}) == 1
    assert "unknown key 'kind' in config section 'synth'" in capsys.readouterr().err
    assert run_with_config(tmp_path, ["steer", "fit", "--synthetic"], {"steer fit": {"k": 2}}) == 1
    assert "unknown key 'k' in config section 'steer fit'" in capsys.readouterr().err


def test_config_grid_size_is_checked_like_the_flag(tmp_path, capsys):
    assert run_with_config(tmp_path, ["synth", "probs"], {"synth": {"anchors": "8xq"}}) == 1
    err = capsys.readouterr().err
    assert_one_error(err)
    assert "expected ROWSxCOLS, got '8xq'" in err


def test_config_switches_follow_json_booleans(tmp_path, capsys):
    flags = ["--iters", "20", "--n", "32", "--dim", "8"]
    assert run("steer", "fit", "--synthetic", *flags, "--out", str(tmp_path / "flag")) == 0
    config = {"steer fit": {"synthetic": True, "out": str(tmp_path / "cfg")}}
    assert run_with_config(tmp_path, ["steer", "fit", *flags], config) == 0
    assert read_bytes_tree(tmp_path / "flag") == read_bytes_tree(tmp_path / "cfg")
    capsys.readouterr()
    config = {"steer fit": {"synthetic": False, "out": str(tmp_path / "off")}}
    assert run_with_config(tmp_path, ["steer", "fit", *flags], config) == 1
    err = capsys.readouterr().err
    assert_one_error(err)
    assert "steer fit needs --synthetic or --dir" in err


def test_config_arrays_are_joined_with_commas(tmp_path):
    assert run("diffuse", "--grid", "8", "--scales", "0,0.1", "--out", str(tmp_path / "f")) == 0
    config = {"diffuse": {"grid": 8, "scales": [0, 0.1], "out": str(tmp_path / "c")}}
    assert run_with_config(tmp_path, ["diffuse"], config) == 0
    assert read_bytes_tree(tmp_path / "f") == read_bytes_tree(tmp_path / "c")
    # A value may start with "-": each config flag is passed as --name=value.
    assert run("synth", "translation", "--offset=-0.1,0.05", "--out", str(tmp_path / "g")) == 0
    config = {"synth": {"offset": [-0.1, 0.05], "out": str(tmp_path / "d")}}
    assert run_with_config(tmp_path, ["synth", "translation"], config) == 0
    assert read_bytes_tree(tmp_path / "g") == read_bytes_tree(tmp_path / "d")


def test_config_keys_are_dests_written_with_dash_or_underscore(tmp_path):
    pr, dec, sm = tmp_path / "probs", tmp_path / "dec", tmp_path / "matches"
    assert run("synth", "probs", "--out", str(pr)) == 0
    assert run("decode", "--probs", str(pr / "probs.rmgrid"), "--out", str(dec)) == 0
    config = {"sample": {"n-matches": 10, "warp": str(dec / "warp.rmgrid"), "out": str(sm)}}
    assert run_with_config(tmp_path, ["sample"], config) == 0
    assert len(read_correspondences_csv(sm / "matches.csv")) == 10
    for key in ("marginal_weight", "marginal-weight"):
        rep = tmp_path / key
        config = {"decode": {key: 0.5, "corr": str(sm / "matches.csv"), "out": str(rep)}}
        assert run_with_config(tmp_path, ["decode", "--probs", str(pr / "probs.rmgrid")], config) == 0
        assert json.loads((rep / "coarse_loss.json").read_text())["marginal_weight"] == 0.5


def flags_to_config(argv):
    """Split ``argv`` into its subcommand words and a config section of its flags."""
    words = []
    while argv and not argv[0].startswith("--"):
        words.append(argv.pop(0))
    section = {}
    while argv:
        key = argv.pop(0)[2:]
        if argv and not argv[0].startswith("--"):
            value = argv.pop(0)
            try:
                section[key] = json.loads(value)
            except json.JSONDecodeError:
                section[key] = value
        else:
            section[key] = True
    return words, section


CRITERION_11 = (
    ["synth", "descriptors", "--n", "64", "--dim", "16", "--seed", "3"],
    ["synth", "probs", "--seed", "4"],
    ["cascade", "--kind", "affine", "--seed", "5"],
    ["diffuse", "--scales", "0,0.1", "--seed", "6"],
    ["loss-sweep", "--seed", "7"],
    ["steer", "fit", "--synthetic", "--iters", "40", "--n", "64", "--dim", "8", "--seed", "8"],
    ["sample", "--n-matches", "30", "--seed", "9"],
)


@pytest.mark.parametrize("argv", CRITERION_11, ids=lambda argv: " ".join(argv[:2]))
def test_config_file_gives_the_same_outputs_as_flags(tmp_path, argv):
    words, values = flags_to_config(list(argv))
    section = " ".join(words[:2]) if words[0] == "steer" else words[0]
    assert run(*argv, "--out", str(tmp_path / "flags")) == 0
    config = {section: {**values, "out": str(tmp_path / "config")}}
    assert run_with_config(tmp_path, words, config) == 0
    assert read_bytes_tree(tmp_path / "flags") == read_bytes_tree(tmp_path / "config")


def test_negative_seed_in_a_config_file_is_a_usage_error_naming_the_flag(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_with_config(tmp_path, ["cascade"], {"cascade": {"seed": -1, "out": str(out)}}) == 1
    err = capsys.readouterr().err
    assert_one_error(err, argparse_error=True)
    assert err.startswith("error: argument --seed: expected a nonnegative integer, got '-1'"), err
    assert not out.exists()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "argv",
    [
        ["cascade", "--base", "224", "--seed", "4"],
        ["cascade", "--base", "224", "--kind", "affine", "--offset", "0.1,-0.05"],
        ["synth", "affine", "--base", "224", "--seed", "5"],
    ],
)
def test_base_224_outputs_are_the_same_with_and_without_threads(tmp_path, argv):
    # Once pinned to one CPU with one BLAS thread, once with every CPU and BLAS's own thread count.
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    one_cpu = min(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None

    def pin():
        if one_cpu is not None:
            os.sched_setaffinity(0, {one_cpu})

    trees = []
    for name, extra, preexec in [("one", dict.fromkeys(BLAS_THREAD_VARS, "1"), pin), ("all", {}, None)]:
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "matchkit", *argv, "--out", str(out)],
            env={**env, **extra},
            preexec_fn=preexec,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        trees.append(read_bytes_tree(out))
    assert trees[0] == trees[1] and len(trees[0]) > 1


def test_allocation_failure_is_a_one_line_data_error(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 EiB for an array")

    monkeypatch.setattr(cli, "_sweep", no_memory)
    assert run("diffuse", "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert err.strip() == "error: Unable to allocate 72.8 EiB for an array"
    assert not (tmp_path / "out").exists()


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    def broken():
        raise AssertionError("expected 1, got 2")

    monkeypatch.setattr(selftest, "CHECKS", (("fine", lambda: None), ("broken", broken)))
    assert run("selftest") == 2
    out = capsys.readouterr().out.splitlines()
    assert out == ["ok   fine", "FAIL broken: expected 1, got 2", "1/2 checks passed"]


def test_python_dash_m_runs_the_cli_from_a_source_tree():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "matchkit", "selftest"], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{len(selftest.CHECKS)}/{len(selftest.CHECKS)} checks passed"


# Every refused run: its argv ({name}: a file of write_refused_run_inputs), its exit code, whether
# argparse's usage line follows the error, and the error line, in which "..." stands for any text.
REFUSALS = [
    ("no-such-command", 1, True, "error: argument command: invalid choice: 'no-such-command' ..."),
    ("loss-sweep --c nan", 1, True, "error: argument --c: expected ..."),
    ("loss-sweep --rmax nan", 1, True, "error: argument --rmax: expected ..."),
    ("loss-sweep --rmin inf", 1, True, "error: argument --rmin: expected ..."),
    ("synth probs --sigma nan", 1, True, "error: argument --sigma: expected ..."),
    ("synth probs --via-gp --beta nan", 1, True, "error: argument --beta: expected ..."),
    ("synth descriptors --noise nan", 1, True, "error: argument --noise: expected ..."),
    ("synth affine --offset 0.1,inf", 1, True, "error: argument --offset: expected ..."),
    ("cascade --perturb nan", 1, True, "error: argument --perturb: expected ..."),
    ("cascade --temperature -inf", 1, True, "error: argument --temperature: expected ..."),
    ("cascade --offset 0.1", 1, True, "error: argument --offset: expected ..."),
    ("cascade --offset 0.1,0.2,0.3", 1, True, "error: argument --offset: expected ..."),
    ("diffuse --scales 0,abc", 1, True, "error: argument --scales: expected ..."),
    ("diffuse --threshold nan", 1, True, "error: argument --threshold: expected ..."),
    ("sample --sensitivity 0.1,abc", 1, True, "error: argument --sensitivity: expected ..."),
    ("sample --sensitivity 0.1,nan", 1, True, "error: argument --sensitivity: expected ..."),
    ("sample --bandwidth nan", 1, True, "error: argument --bandwidth: expected ..."),
    ("steer fit --synthetic --step nan", 1, True, "error: argument --step: expected ..."),
    ("eval --pose-errors x.csv --ref-res inf", 1, True, "error: argument --ref-res: expected ..."),
    ("decode --probs x.rmgrid --lambda nan", 1, True, "error: argument --lambda: expected ..."),
    ("cascade --seed -1", 1, True, "error: argument --seed: expected ..."),
    ("synth probs --seed 1.5", 1, True, "error: argument --seed: expected ..."),
    ("sample --seed abc", 1, True, "error: argument --seed: expected ..."),
    ("eval", 1, False, "error: eval needs --pose-errors and/or --pred with --gt"),
    ("steer fit", 1, False, "...steer fit needs --synthetic or --dir..."),
    # loss-sweep
    (
        "loss-sweep --steps 1",
        2, False, "error: need 0 < rmin < rmax < inf and 2 <= steps <= 100000; got 0.0001, 100.0, 1",
    ),
    ("loss-sweep --c -1", 2, False, "error: scale s must be positive and finite, got -1.0"),
    ("loss-sweep --c 0", 2, False, "error: scale s must be positive and finite, got 0.0"),
    (
        "loss-sweep --rmin 0",
        2, False, "error: need 0 < rmin < rmax < inf and 2 <= steps <= 100000; got 0.0, 100.0, 200",
    ),
    (
        "loss-sweep --rmin -1",
        2, False, "error: need 0 < rmin < rmax < inf and 2 <= steps <= 100000; got -1.0, 100.0, 200",
    ),
    (
        "loss-sweep --rmin 10 --rmax 1",
        2, False, "error: need 0 < rmin < rmax < inf and 2 <= steps <= 100000; got 10.0, 1.0, 200",
    ),
    ("loss-sweep --rmax 1e300", 2, False, "...rmax**2 + c must be finite; got rmax=1e+300, c=0.03..."),
    ("loss-sweep --rmax 1.4e154", 2, False, "...rmax**2 + c must be finite..."),
    ("loss-sweep --steps 100001", 2, False, "...2 <= steps <= 100000..."),
    ("loss-sweep --steps 1000000000000", 2, False, "...2 <= steps <= 100000..."),
    # diffuse
    ("diffuse --grid 8 --scales 0.1,0.1", 2, False, "...scales must be distinct..."),
    ("diffuse --grid 8 --scales nan", 2, False, "...finite..."),
    ("diffuse --grid 8 --threshold 2", 2, False, "...rel_threshold must lie in (0, 1)..."),
    # cascade and synth scenes
    ("cascade --perturb -1", 2, False, "...--perturb must be nonnegative, got -1.0..."),
    ("cascade --offset 1e200,0 --base 56", 2, False, "error: no matchable cells to evaluate..."),
    ("cascade --offset 1e308,0 --base 56", 2, False, "...feature field phases are not finite..."),
    ("cascade --offset 1e308,0 --base 224", 2, False, "...feature field phases are not finite..."),
    ("synth translation --offset 1e200,0", 2, False, "...truth.rmgrid: values must be finite and fit in float32..."),
    (
        "synth translation --offset 1e300,0 --base 56",
        2, False, "error: truth.rmgrid: ...values must be finite and fit in float32...",
    ),
    ("synth two-translation --offset 1e300,0", 2, False, "error: --offset ...norm overflows..."),
    ("synth two-translation --offset 1e308,1e308", 2, False, "error: --offset ...norm overflows..."),
    # synth probs and decode
    ("synth probs --sigma 1e20", 2, False, "error: sigma 1e+20 leaves no mass inside the extent for the mean (..."),
    (
        "synth probs --via-gp --sigma 1e20",
        2, False, "error: sigma 1e+20 leaves no mass inside the extent for the mean (...",
    ),
    ("synth probs --via-gp --beta 1000", 2, False, "error: kernel exp(beta * cos) overflows at beta=1000: ..."),
    ("decode --probs {missing}", 2, False, "error: [Errno 2] No such file or directory: '{missing}'"),
    (
        "decode --probs {probs} --anchors 4x4 --grid 6x6",
        2, False, "error: probs tensor shape (36, 65) does not match grid 6x6 with 16 anchors (+1 matchability column)",
    ),
    ("decode --probs {zero_rows}", 2, False, "error: {zero_rows}: anchor probability row 4 sums to 0.0"),
    (
        "decode --probs {probs} --corr {gt} --lambda 0",
        2, False, "error: marginal weight must be positive and finite, got 0.0",
    ),
    (
        "decode --probs {probs} --corr {corr_four_columns}",
        2, False, "error: {corr_four_columns}: expected header 'xa,ya,xb,yb,weight'",
    ),
    (
        "decode --probs {probs} --corr {gt} --lambda 1e308",
        2, False, "error: marginal weight 1e+308 is too large: the coarse loss overflows...",
    ),
    # sample
    ("sample --n-matches -3", 2, False, "...--n-matches must be at least 1..."),
    ("sample --n-matches 0", 2, False, "...--n-matches must be at least 1..."),
    ("sample --warp {dead_warp}", 2, False, "...no candidates..."),
    ("sample --n-matches 30 --sensitivity 0.1,0", 2, False, "error: bandwidth must be positive and finite, got 0.0"),
    ("sample --bandwidth 1e-200", 2, False, "error: bandwidth 1e-200 is out of range..."),
    # h^2 or (2 pi h^2)^2 under- or overflows; unrefused, these warn, then find no candidates or every density 0.
    (
        "sample --n-matches 30 --bandwidth 1e-200",
        2, False, "error: bandwidth 1e-200 is out of range for these 4-D points: ...",
    ),
    (
        "sample --n-matches 30 --sensitivity 1e-170,0.1",
        2, False, "error: bandwidth 1e-170 is out of range for these 4-D points: ...",
    ),
    (
        "sample --n-matches 30 --bandwidth 1e-100",
        2, False, "error: bandwidth 1e-100 is out of range for these 4-D points: ...",
    ),
    (
        "sample --n-matches 30 --bandwidth 1e160",
        2, False, "error: bandwidth 1e+160 is out of range for these 4-D points: ...",
    ),
    (
        "sample --n-matches 30 --bandwidth 1e80",
        2, False, "error: bandwidth 1e+80 is out of range for these 4-D points: ...",
    ),
    # eval
    ("eval --pose-errors {missing}", 2, False, "error: [Errno 2] No such file..."),
    ("eval --pose-errors {negative_pose}", 2, False, "error: rot_errors must be finite and nonnegative..."),
    ("eval --pose-errors {pose_headerless}", 2, False, "error: {pose_headerless}: expected header 'rot_deg,trans_deg'"),
    ("eval --pose-errors {pose_renamed}", 2, False, "error: {pose_renamed}: expected header 'rot_deg,trans_deg'"),
    ("eval --pose-errors {pose_short_row}", 2, False, "error: {pose_short_row}: every row must hold 2 finite numbers"),
    ("eval --pose-errors {pose_nan}", 2, False, "error: {pose_nan}: every row must hold 2 finite numbers"),
    ("eval --pose-errors {pose_no_rows}", 2, False, "error: {pose_no_rows}: no rows after the header"),
    ("eval --pred {corr_headerless} --gt {gt}", 2, False, "error: {corr_headerless}: ..."),
    ("eval --pred {corr_four_columns} --gt {gt}", 2, False, "error: {corr_four_columns}: ..."),
    ("eval --pred {corr_short_row} --gt {gt}", 2, False, "error: {corr_short_row}: ..."),
    ("eval --pred {corr_inf} --gt {gt}", 2, False, "error: {corr_inf}: ..."),
    (
        "eval --pred {pred} --gt {gt} --ref-res 1e308",
        2, False, "error: ref_resolution=1e+308 is too large: the pixel errors overflow...",
    ),
    # synth descriptors and steer
    ("synth descriptors --dim 3", 2, False, "error: descriptor dimension must be even..."),
    ("synth descriptors --dim 0", 2, False, "...even and at least 2, got 0..."),
    ("synth descriptors --n -1", 2, False, "...at least one keypoint, got n=-1..."),
    ("synth descriptors --noise 1e300", 2, False, "...rot0.rmdesc: values must be finite and fit in float32..."),
    ("steer fit --dir {missing}", 2, False, "error: [Errno 2] No such file or directory..."),
    ("steer fit --dir {zero_width_dir} --method lsq", 2, False, "...descriptors must have at least one dimension..."),
    (
        "steer fit --dir {steer_dir} --method lsq",
        2, False, "...w_fit.rmsteer: values must be finite and fit in float32...",
    ),
    ("steer fit --synthetic --dim 3", 2, False, "error: descriptor dimension must be even..."),
    ("steer fit --synthetic --dim 0 --method lsq", 2, False, "...even and at least 2, got 0..."),
    ("steer fit --synthetic --noise 1e300", 2, False, "error: descriptors too large for a least-squares fit..."),
    ("steer fit --synthetic --n 16 --dim 4 --iters 5 --step 0", 2, False, "...--step must be positive, got 0.0..."),
    ("steer fit --synthetic --n 16 --dim 4 --iters 5 --step -1", 2, False, "...--step must be positive, got -1.0..."),
    ("steer fit --synthetic --n 16 --dim 4 --iters -1", 2, False, "...--iters must be nonnegative, got -1..."),
    ("steer apply --desc {missing} --w {missing}", 2, False, "error: [Errno 2] No such file..."),
    (
        "steer apply --k 2 --desc {desc} --w {huge_w}",
        2, False, "...steered.rmdesc: values must be finite and fit in float32...",
    ),
    ("steer eval --base {missing} --rotated {missing} --w {missing}", 2, False, "error: [Errno 2] No such file..."),
    (
        "steer eval --base {base32} --rotated {rot16} --w {huge_w}",
        2, False, "error: descriptor widths differ: 32 and 16",
    ),
    # config
    ("cascade --config {bad_json}", 2, False, "error: {bad_json}: not valid JSON: Expecting property name..."),
]


@pytest.mark.parametrize("argv, code, usage, message", REFUSALS, ids=[row[0] for row in REFUSALS])
def test_refused_runs_print_one_error_and_write_nothing(tmp_path, capsys, argv, code, usage, message):
    inputs = write_refused_run_inputs(tmp_path)
    out = tmp_path / "out"
    assert run(*[word.format(**inputs) for word in argv.split()], "--out", str(out)) == code
    captured = capsys.readouterr()
    assert_one_error(captured.err, argparse_error=usage)
    pattern = ".*".join(re.escape(part) for part in message.format(**inputs).split("..."))
    assert re.fullmatch(pattern, captured.err.splitlines()[0]), captured.err
    assert captured.out == ""
    assert not out.exists()


CSV_INPUTS = {
    "pose_headerless": "1.0,0.5\n12.0,0.1\n",
    "pose_renamed": "rot,trans\n1.0,0.5\n",
    "pose_short_row": "rot_deg,trans_deg\n1.0,0.5\n2.0\n",
    "pose_nan": "rot_deg,trans_deg\n1.0,nan\n",
    "pose_no_rows": "rot_deg,trans_deg\n",
    "negative_pose": "rot_deg,trans_deg\n-5,1\n",
    "corr_headerless": "0.0,0.0,0.1,0.1,1.0\n",
    "corr_four_columns": "xa,ya,xb,yb\n0.0,0.0,0.1,0.1\n",
    "corr_short_row": "xa,ya,xb,yb,weight\n0.0,0.0,0.1,0.1\n",
    "corr_inf": "xa,ya,xb,yb,weight\n0.0,0.0,0.1,inf,1.0\n",
    # pred is gt shifted by 0.5 in x: at --ref-res 1e308 the four errors sum past the float range.
    "gt": "xa,ya,xb,yb,weight\n" + "0.0,0.0,0.0,0.1,1.0\n" * 4,
    "pred": "xa,ya,xb,yb,weight\n" + "0.0,0.0,0.5,0.1,1.0\n" * 4,
    "bad_json": "{bad json",
}


def write_refused_run_inputs(tmp_path):
    """The input files of the refused runs, by the name their argv uses; "missing" is never written."""
    names = "missing desc huge_w steer_dir zero_width_dir probs zero_rows dead_warp base32 rot16".split()
    inputs = {name: tmp_path / name for name in (*names, *CSV_INPUTS)}
    for name, text in CSV_INPUTS.items():
        inputs[name].write_text(text)
    write_descriptors(inputs["desc"], np.zeros((4, 2)), np.eye(4))
    write_steering(inputs["huge_w"], 3e38 * np.eye(4))  # steering unit descriptors by W^2 leaves float32 range
    # Tiny base descriptors and huge rotated ones: the least-squares W is finite, but not in float32.
    rng = np.random.default_rng(0)
    coords = rng.uniform(-1, 1, (64, 2))
    inputs["steer_dir"].mkdir()
    inputs["zero_width_dir"].mkdir()
    for k in range(4):
        scale = 1e-4 if k == 0 else 3e37
        write_descriptors(inputs["steer_dir"] / f"rot{k}.rmdesc", coords, scale * rng.normal(size=(64, 8)))
        write_descriptors(inputs["zero_width_dir"] / f"rot{k}.rmdesc", coords[:5], np.zeros((5, 0)))
    write_descriptors(inputs["base32"], coords[:8], rng.normal(size=(8, 32)))
    write_descriptors(inputs["rot16"], coords[:8], rng.normal(size=(8, 16)))
    # Uniform anchor rows, matchability 0.001: at --lambda 1e308 the weighted cross-entropy overflows.
    probs = np.concatenate([np.full((36, 64), 1 / 64), np.full((36, 1), 0.001)], axis=1)
    write_grid(inputs["probs"], probs)
    probs[[4, 9], :-1] = 0.0
    write_grid(inputs["zero_rows"], probs)
    write_grid(inputs["dead_warp"], np.zeros((4, 4, 3)))  # certainty 0 everywhere
    return inputs


@pytest.mark.parametrize(
    "argv",
    [
        "steer fit --dir {steer_dir} --method lsq",
        "decode --probs {probs} --corr {gt} --lambda 1e308",  # refused after warp.rmgrid
    ],
)
def test_refused_runs_leave_an_existing_out_unchanged(tmp_path, capsys, argv):
    inputs = write_refused_run_inputs(tmp_path)
    argv = [word.format(**inputs) for word in argv.split()]
    out = tmp_path / "out"
    out.mkdir()
    (out / "sentinel.txt").write_bytes(b"kept\n")
    (out / "w_fit.rmsteer").write_bytes(b"an earlier fit")  # a file the refused run would have written
    before = read_bytes_tree(out)
    assert run(*argv, "--out", str(out)) == 2
    assert_one_error(capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == sorted(before)
    assert read_bytes_tree(out) == before
    # An --out that is a file is refused when the run would make it, and keeps its bytes.
    assert run("loss-sweep", "--steps", "5", "--out", str(out / "sentinel.txt")) == 2
    captured = capsys.readouterr()
    assert_one_error(captured.err)
    assert captured.out == ""  # no "wrote" line for a directory that was never made
    assert (out / "sentinel.txt").read_bytes() == b"kept\n"
    assert read_bytes_tree(out) == before




def test_steer_fit_lsq_ignores_the_l1_step_and_iters(tmp_path):
    # The least-squares fit takes no step and no iterations, so the l1 fit's refusals do not apply.
    flags = ["--synthetic", "--n", "16", "--dim", "4", "--method", "lsq"]
    for bad in (["--iters", "5", "--step", "0"], ["--iters", "5", "--step", "-1"], ["--iters", "-1"]):
        assert run("steer", "fit", *flags, *bad, "--out", str(tmp_path / "out")) == 0


def test_sample_sensitivity_sweep_writes_the_matches_and_a_table(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("sample", "--n-matches", "30", "--sensitivity", "0.1,0.2", "--out", str(out)) == 0
    assert capsys.readouterr().out == f"wrote 30 matches to {out / 'matches.csv'}\n"
    rows = (out / "bandwidth_sensitivity.csv").read_text().splitlines()
    assert rows[0] == "bandwidth,spatial_entropy" and len(rows) == 3
    assert read_correspondences_csv(out / "matches.csv").xa.shape == (30, 2)


def test_cascade_and_synth_probs_draw_on_from_the_scene_generator(tmp_path, monkeypatch):
    # The scene draws first, and the run's own draws continue its generator. A second default_rng(seed)
    # would repeat the scene's draws: cascade would move cell (0, 0) by 2.5x the scene's offset.
    rng = np.random.default_rng(3)
    scene = translation_scene(rng.uniform(-0.2, 0.2, 2))
    pert = rng.uniform(-0.5, 0.5, (4, 4, 2))  # one stride-14 cell per axis at base 56
    coarse = []

    def spy(pyr_a, pyr_b, warp, **kw):
        coarse.append(warp)
        return run_cascade(pyr_a, pyr_b, warp, **kw)

    monkeypatch.setattr(cli, "run_cascade", spy)
    assert run("cascade", "--kind", "translation", "--seed", "3", "--out", str(tmp_path / "cascade")) == 0
    truth = scene_true_warp(scene, GridSpec(4, 4)).target_coords
    assert np.array_equal(coarse[0].target_coords, np.clip(truth + pert, -1.0, 1.0))
    rng = np.random.default_rng(4)
    rng.uniform(-0.14, 0.14, 2), rng.uniform(-0.05, 0.05), rng.uniform(-0.04, 0.04)  # the affine scene
    assert run("synth", "probs", "--seed", "4", "--out", str(tmp_path / "probs")) == 0
    matchability = read_grid(tmp_path / "probs" / "probs.rmgrid")[:, -1]
    assert np.array_equal(matchability, rng.uniform(0.5, 1.0, 36).astype(np.float32))


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch):
    # The code block under "## CLI": continuation lines joined, comments and [optional] parts dropped.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```")[1]
    monkeypatch.chdir(tmp_path)
    Path("errors.csv").write_text("rot_deg,trans_deg\n3.0,1.5\n12.0,4.0\n")  # for `eval --pose-errors errors.csv`
    ran = 0
    for line in block.replace("\\\n", " ").splitlines():
        words = re.sub(r"\[[^]]*\]", "", line.split("#")[0]).split()
        if words[:1] == ["matchkit"]:
            assert run(*words[1:]) == 0, line
            ran += 1
    assert ran, "no matchkit commands in the README's CLI section"
