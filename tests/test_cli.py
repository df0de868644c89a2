import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from matchkit import cascade, cli, selftest
from matchkit.cli import main
from matchkit.fileio import (
    read_correspondences_csv,
    read_descriptors,
    read_grid,
    read_steering,
    write_descriptors,
    write_grid,
)


def run(*argv):
    return main(list(argv))


def read_bytes_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_unknown_subcommand_usage_error(capsys):
    assert run("no-such-command") == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_selftest_clean_build(capsys):
    assert run("selftest") == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "FAIL" not in out


def test_selftest_deterministic_output(capsys):
    run("selftest")
    first = capsys.readouterr().out
    run("selftest")
    second = capsys.readouterr().out
    assert first == second


def test_loss_sweep_r0_row(tmp_path):
    assert run("loss-sweep", "--c", "0.03", "--rmax", "100", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "loss_sweep.csv").read_text().splitlines()
    assert lines[0] == "r,loss,grad_magnitude"
    r, loss, grad = (float(v) for v in lines[1].split(","))
    assert r == 0.0
    assert np.isclose(loss, 0.03**0.25)
    assert grad == 0.0


def test_loss_sweep_bad_steps_is_data_error(tmp_path):
    assert run("loss-sweep", "--steps", "1", "--out", str(tmp_path / "out")) == 2
    assert not (tmp_path / "out").exists()


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


def test_decode_shape_mismatch_is_data_error(tmp_path):
    pr = tmp_path / "probs"
    run("synth", "probs", "--anchors", "8x8", "--grid", "6x6", "--out", str(pr))
    assert (
        run(
            "decode", "--probs", str(pr / "probs.rmgrid"),
            "--anchors", "4x4", "--grid", "6x6", "--out", str(tmp_path / "x"),
        )
        == 2
    )


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


def test_diffuse_rejects_duplicate_and_nonfinite_scales(tmp_path, capsys):
    out = tmp_path / "out"
    for flags, message in (
        (["--scales", "0.1,0.1"], "scales must be distinct"),
        (["--scales", "nan"], "finite"),
        (["--threshold", "2"], "rel_threshold must lie in (0, 1)"),
    ):
        assert run("diffuse", "--grid", "8", *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1
        assert not out.exists()


def test_sample_deterministic_and_readable(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("sample", "--n-matches", "40", "--seed", "5", "--out", str(out1)) == 0
    assert run("sample", "--n-matches", "40", "--seed", "5", "--out", str(out2)) == 0
    assert read_bytes_tree(out1) == read_bytes_tree(out2)
    cs = read_correspondences_csv(out1 / "matches.csv")
    assert len(cs) == 40


def test_sample_rejects_nonpositive_match_counts(tmp_path, capsys):
    for count in ("-3", "0"):
        assert run("sample", "--n-matches", count, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "--n-matches must be at least 1" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "matches.csv").exists()


def test_sample_cap_counts_candidates_and_says_so(tmp_path, capsys):
    # The default 16x16 affine scene maps 2 of its 256 cells out of view.
    assert run("sample", "--out", str(tmp_path)) == 0
    captured = capsys.readouterr()
    assert "capped to the 254 candidates" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert len(read_correspondences_csv(tmp_path / "matches.csv")) == 254
    assert run("sample", "--n-matches", "254", "--out", str(tmp_path)) == 0
    assert capsys.readouterr().err == ""
    dead = tmp_path / "dead.rmgrid"
    write_grid(dead, np.zeros((4, 4, 3)))  # certainty 0 everywhere
    assert run("sample", "--warp", str(dead), "--out", str(tmp_path / "d")) == 2
    err = capsys.readouterr().err
    assert "no candidates" in err and len(err.strip().splitlines()) == 1


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


def test_eval_without_inputs_is_usage_error(tmp_path):
    assert run("eval", "--out", str(tmp_path)) == 1


def test_missing_file_is_data_error(tmp_path):
    assert run("decode", "--probs", str(tmp_path / "nope.rmgrid"), "--out", str(tmp_path)) == 2


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


def test_seeded_subcommands_byte_identical(tmp_path):
    for args in (
        ("synth", "descriptors", "--n", "32", "--dim", "8"),
        ("cascade", "--kind", "affine", "--seed", "7"),
        ("diffuse", "--scales", "0,0.1"),
        ("steer", "fit", "--synthetic", "--iters", "30", "--n", "64", "--dim", "8"),
    ):
        a, b = tmp_path / ("a" + args[0] + args[1]), tmp_path / ("b" + args[0] + args[1])
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert read_bytes_tree(a) == read_bytes_tree(b)


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


@pytest.mark.parametrize(
    "argv",
    [
        ["loss-sweep", "--c", "nan"],
        ["loss-sweep", "--rmax", "nan"],
        ["loss-sweep", "--rmin", "inf"],
        ["synth", "probs", "--sigma", "nan"],
        ["synth", "probs", "--via-gp", "--beta", "nan"],
        ["synth", "descriptors", "--noise", "nan"],
        ["synth", "affine", "--offset", "0.1,inf"],
        ["cascade", "--perturb", "nan"],
        ["cascade", "--temperature", "-inf"],
        ["cascade", "--offset", "0.1"],
        ["cascade", "--offset", "0.1,0.2,0.3"],
        ["diffuse", "--scales", "0,abc"],
        ["diffuse", "--threshold", "nan"],
        ["sample", "--sensitivity", "0.1,abc"],
        ["sample", "--sensitivity", "0.1,nan"],
        ["sample", "--bandwidth", "nan"],
        ["steer", "fit", "--synthetic", "--step", "nan"],
        ["eval", "--pose-errors", "x.csv", "--ref-res", "inf"],
        ["decode", "--probs", "x.rmgrid", "--lambda", "nan"],
        ["cascade", "--seed", "-1"],
        ["synth", "probs", "--seed", "1.5"],
        ["sample", "--seed", "abc"],
    ],
)
def test_nonfinite_and_malformed_numbers_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert_one_error(err, argparse_error=True)
    assert err.startswith(f"error: argument {argv[-2]}: expected "), err
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--via-gp"]])
def test_synth_probs_without_in_extent_mass_fails_before_writing(tmp_path, capsys, extra):
    # A sigma so wide that every anchor cell's mass rounds to 0 once left a NaN row.
    out = tmp_path / "out"
    assert run("synth", "probs", *extra, "--sigma", "1e20", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert err.startswith("error: sigma 1e+20 leaves no mass inside the extent for the mean ("), err
    assert not out.exists()


def test_synth_probs_via_gp_with_an_overflowing_beta_is_a_one_line_data_error(tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("synth", "probs", "--via-gp", "--beta", "1000", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert err.startswith("error: kernel exp(beta * cos) overflows at beta=1000: "), err
    assert not out.exists()


def test_negative_seed_in_a_config_file_is_a_usage_error_naming_the_flag(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_with_config(tmp_path, ["cascade"], {"cascade": {"seed": -1, "out": str(out)}}) == 1
    err = capsys.readouterr().err
    assert_one_error(err, argparse_error=True)
    assert err.startswith("error: argument --seed: expected a nonnegative integer, got '-1'"), err
    assert not out.exists()


def test_negative_perturb_is_a_data_error_naming_the_flag(tmp_path, capsys):
    assert run("cascade", "--perturb", "-1", "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert "--perturb must be nonnegative, got -1.0" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags",
    [["--c", "-1"], ["--c", "0"], ["--rmin", "0"], ["--rmin", "-1"], ["--rmin", "10", "--rmax", "1"]],
)
def test_loss_sweep_bad_scale_or_range_is_a_data_error(tmp_path, capsys, flags):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would escape as an exception
        assert run("loss-sweep", *flags, "--out", str(tmp_path / "out")) == 2
    assert_one_error(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("1.0,0.5\n12.0,0.1\n", "expected header 'rot_deg,trans_deg'"),
        ("rot,trans\n1.0,0.5\n", "expected header 'rot_deg,trans_deg'"),
        ("rot_deg,trans_deg\n1.0,0.5\n2.0\n", "every row must hold 2 finite numbers"),
        ("rot_deg,trans_deg\n1.0,nan\n", "every row must hold 2 finite numbers"),
        ("rot_deg,trans_deg\n", "no rows after the header"),
    ],
)
def test_eval_pose_error_csv_is_checked(tmp_path, capsys, text, message):
    csv = tmp_path / "errs.csv"
    csv.write_text(text)
    assert run("eval", "--pose-errors", str(csv), "--out", str(tmp_path / "rep")) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert err.strip() == f"error: {csv}: {message}"
    assert not (tmp_path / "rep" / "metrics.json").exists()


def test_eval_correspondence_csvs_are_checked(tmp_path, capsys):
    gt = tmp_path / "gt.csv"
    gt.write_text("xa,ya,xb,yb,weight\n0.0,0.0,0.1,0.1,1.0\n")
    for text in (
        "0.0,0.0,0.1,0.1,1.0\n",
        "xa,ya,xb,yb\n0.0,0.0,0.1,0.1\n",
        "xa,ya,xb,yb,weight\n0.0,0.0,0.1,0.1\n",
        "xa,ya,xb,yb,weight\n0.0,0.0,0.1,inf,1.0\n",
    ):
        pred = tmp_path / "pred.csv"
        pred.write_text(text)
        assert run("eval", "--pred", str(pred), "--gt", str(gt), "--out", str(tmp_path / "rep")) == 2
        err = capsys.readouterr().err
        assert_one_error(err)
        assert err.startswith(f"error: {pred}: ")


def test_decode_zero_row_is_a_data_error_naming_the_row(tmp_path, capsys):
    assert run("synth", "probs", "--out", str(tmp_path)) == 0
    data = read_grid(tmp_path / "probs.rmgrid")
    data[4, :-1] = 0.0
    data[9, :-1] = 0.0
    bad = tmp_path / "zero.rmgrid"
    write_grid(bad, data)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from dividing by zero
        assert run("decode", "--probs", str(bad), "--out", str(tmp_path / "dec")) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert err.strip() == f"error: {bad}: anchor probability row 4 sums to 0.0"
    assert not (tmp_path / "dec" / "warp.rmgrid").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--rmax", "1e300"], "rmax**2 + c must be finite; got rmax=1e+300, c=0.03"),
        (["--rmax", "1.4e154"], "rmax**2 + c must be finite"),
        (["--steps", "100001"], "2 <= steps <= 100000"),
        (["--steps", "1000000000000"], "2 <= steps <= 100000"),
    ],
)
def test_loss_sweep_overflowing_rmax_or_huge_steps_is_a_data_error(tmp_path, capsys, flags, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning either
        assert run("loss-sweep", *flags, "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message, missing",
    [
        (["cascade", "--offset", "1e308,0", "--base", "56"], "feature field phases are not finite", "stage_epe.csv"),
        (
            ["synth", "translation", "--offset", "1e300,0", "--base", "56"],
            "values must be finite and fit in float32",
            "truth.rmgrid",
        ),
        # At base 224 the source pyramid is built on a pool thread, which raises.
        (["cascade", "--offset", "1e308,0", "--base", "224"], "feature field phases are not finite", "stage_epe.csv"),
    ],
)
def test_offset_beyond_float_range_is_a_data_error(tmp_path, capsys, argv, message, missing):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning on the way
        assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert message in err, err
    if argv[0] == "synth":
        assert err.startswith(f"error: {out / missing}: "), err
    assert not (out / missing).exists()


@pytest.mark.parametrize("step", ["0", "-1"])
def test_steer_fit_non_positive_step_is_a_data_error_naming_the_flag(tmp_path, capsys, step):
    out = tmp_path / "out"
    flags = ["--synthetic", "--n", "16", "--dim", "4", "--iters", "5", "--step", step]
    assert run("steer", "fit", *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert f"--step must be positive, got {float(step)}" in err
    assert not out.exists()
    # The least-squares fit takes no step, so the flag does not matter there.
    assert run("steer", "fit", *flags, "--method", "lsq", "--out", str(out)) == 0


def test_steer_fit_negative_iters_is_refused_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    flags = ["--synthetic", "--n", "16", "--dim", "4", "--iters", "-1"]
    assert run("steer", "fit", *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert "--iters must be nonnegative, got -1" in err
    for name in ["rot0.rmdesc", "rot1.rmdesc", "rot2.rmdesc", "rot3.rmdesc", "w_true.rmsteer"]:
        assert not (out / name).exists()
    # The least-squares fit takes no iterations, so the flag does not matter there.
    assert run("steer", "fit", *flags, "--method", "lsq", "--out", str(out)) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["cascade", "--base", "224", "--seed", "4"],
        ["cascade", "--base", "224", "--kind", "affine", "--offset", "0.1,-0.05"],
        ["synth", "affine", "--base", "224", "--seed", "5"],
    ],
)
def test_base_224_outputs_are_the_same_with_and_without_threads(tmp_path, monkeypatch, capsys, argv):
    trees = []
    for cpus in (1, 2):
        monkeypatch.setattr(cascade, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert run(*argv, "--out", str(out)) == 0
        trees.append(read_bytes_tree(out))
    assert trees[0] == trees[1] and len(trees[0]) > 1


def test_config_that_is_not_json_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{bad json")
    out = tmp_path / "out"
    assert run("cascade", "--config", str(cfg), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert err.startswith(f"error: {cfg}: not valid JSON: Expecting property name"), err
    assert not out.exists()


def test_steer_fit_needs_a_source(tmp_path, capsys):
    assert run("steer", "fit", "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert_one_error(err)
    assert "steer fit needs --synthetic or --dir" in err


@pytest.mark.parametrize("offset", ["1e300,0", "1e308,1e308"])
def test_two_translation_offset_whose_norm_overflows_is_a_data_error(tmp_path, capsys, offset):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow RuntimeWarning from the norm
        assert run("synth", "two-translation", "--offset", offset, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert err.startswith("error: --offset ") and "norm overflows" in err, err
    assert not (out / "truth.rmgrid").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["steer", "fit", "--synthetic", "--dim", "0", "--method", "lsq"], "even and at least 2, got 0"),
        (["synth", "descriptors", "--dim", "0"], "even and at least 2, got 0"),
        (["steer", "fit", "--synthetic", "--n", "16", "--dim", "4", "--iters", "-1"], "iters must be nonnegative"),
        (["synth", "descriptors", "--n", "-1"], "at least one keypoint, got n=-1"),
    ],
)
def test_degenerate_steering_inputs_are_data_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert message in err, err
    assert not (out / "fit_report.json").exists()


def test_steer_fit_refuses_zero_width_descriptor_files(tmp_path, capsys):
    for k in range(4):
        write_descriptors(tmp_path / f"rot{k}.rmdesc", np.zeros((5, 2)), np.zeros((5, 0)))
    out = tmp_path / "out"
    assert run("steer", "fit", "--dir", str(tmp_path), "--method", "lsq", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert "descriptors must have at least one dimension" in err, err
    assert not (out / "fit_report.json").exists()


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


def test_decode_refuses_a_bad_corr_or_lambda_before_writing(tmp_path, capsys):
    pr, sm = tmp_path / "probs", tmp_path / "matches"
    assert run("synth", "probs", "--out", str(pr)) == 0
    assert run("sample", "--n-matches", "10", "--out", str(sm)) == 0
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("xa,ya,xb,yb\n0,0,0,0\n")
    probs = ["decode", "--probs", str(pr / "probs.rmgrid")]
    cases = [
        (["--corr", str(sm / "matches.csv"), "--lambda", "0"], "error: marginal weight must be positive"),
        (["--corr", str(bad_header)], f"error: {bad_header}: expected header 'xa,ya,xb,yb,weight'"),
    ]
    for i, (flags, message) in enumerate(cases):
        out = tmp_path / f"dec{i}"
        capsys.readouterr()
        assert run(*probs, *flags, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert_one_error(err)
        assert err.strip() == message
        assert not out.exists()  # --out is made only once every input is checked


def test_sample_refuses_a_bad_sensitivity_bandwidth_before_writing(tmp_path, capsys):
    out = tmp_path / "bad"
    assert run("sample", "--n-matches", "30", "--sensitivity", "0.1,0", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert err.strip() == "error: bandwidth must be positive and finite, got 0.0"
    assert not out.exists()
    # A valid sweep still writes the matches and the sensitivity table.
    good = tmp_path / "good"
    assert run("sample", "--n-matches", "30", "--sensitivity", "0.1,0.2", "--out", str(good)) == 0
    assert capsys.readouterr().out == f"wrote 30 matches to {good / 'matches.csv'}\n"
    rows = (good / "bandwidth_sensitivity.csv").read_text().splitlines()
    assert rows[0] == "bandwidth,spatial_entropy" and len(rows) == 3
    assert read_correspondences_csv(good / "matches.csv").xa.shape == (30, 2)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["steer", "fit", "--dir", "{missing}"], "error: [Errno 2] No such file or directory"),
        (["steer", "fit", "--synthetic", "--dim", "3"], "error: descriptor dimension must be even"),
        (["steer", "apply", "--desc", "{missing}", "--w", "{missing}"], "error: [Errno 2] No such file"),
        (
            ["steer", "eval", "--base", "{missing}", "--rotated", "{missing}", "--w", "{missing}"],
            "error: [Errno 2] No such file",
        ),
        (["eval", "--pose-errors", "{missing}"], "error: [Errno 2] No such file"),
        (["cascade", "--offset", "1e200,0", "--base", "56"], "error: no matchable cells to evaluate"),
        (["synth", "translation", "--offset", "1e200,0"], "truth.rmgrid: values must be finite and fit in float32"),
        (["synth", "descriptors", "--dim", "3"], "error: descriptor dimension must be even"),
    ],
)
def test_refused_runs_leave_no_out_directory(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    argv = [word.format(missing=tmp_path / "missing") for word in argv]
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert message in err, err
    assert not out.exists()


def test_steer_eval_refuses_descriptor_sets_of_different_widths(tmp_path, capsys):
    rng = np.random.default_rng(0)
    coords = rng.uniform(-1, 1, (8, 2))
    write_descriptors(tmp_path / "base.rmdesc", coords, rng.normal(size=(8, 32)))
    write_descriptors(tmp_path / "rot.rmdesc", coords, rng.normal(size=(8, 16)))
    assert run("steer", "fit", "--synthetic", "--method", "lsq", "--out", str(tmp_path / "fit")) == 0
    out = tmp_path / "out"
    argv = ["steer", "eval", "--base", str(tmp_path / "base.rmdesc"), "--rotated", str(tmp_path / "rot.rmdesc")]
    assert run(*argv, "--w", str(tmp_path / "fit" / "w_fit.rmsteer"), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert_one_error(err)
    assert err.strip() == "error: descriptor widths differ: 32 and 16"
    assert not out.exists()
