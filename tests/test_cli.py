"""CLI: config parsing, validation, artifacts, exit codes, determinism."""
import ast
import contextlib
import csv
import dataclasses
import inspect
import io
import json
import re
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsoliton import cli, diagnostics, dynamics, modulation
from epsoliton import profile as profile_mod
from epsoliton.grid import Grid


# ------------------------------------------------------------------- config

def test_load_config_empty_gives_defaults(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("# nothing but a comment\n\n")
    v = cli.load_config(f, "stability")
    assert v == cli._defaults("stability")
    assert set(v) == set(cli._SETTINGS) - {"segment"}


def test_load_config_parses_types_and_comments(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("eps = 0.1   # sweep point\nN=256\nshape=odd\n")
    v = cli.load_config(f, "stability")
    assert v["eps"] == 0.1 and isinstance(v["eps"], float)
    assert v["N"] == 256 and isinstance(v["N"], int)
    assert v["shape"] == "odd"
    assert v["K"] == cli._SETTINGS["K"][1]


# seed, workers, lam and A1 are not keys: no subcommand draws random numbers,
# runs workers or reads a spectral parameter or a Sigma_2 cutoff from the config
@pytest.mark.parametrize("line", ["epsilon=0.1", "seed=1", "workers=2",
                                  "lam=0.3+0.2j", "A1=3"],
                         ids=["epsilon", "seed", "workers", "lam", "A1"])
def test_load_config_rejects_unknown_key(tmp_path, line):
    f = tmp_path / "cfg.txt"
    f.write_text(line + "\n")
    with pytest.raises(cli.ValidationError, match="unknown key"):
        cli.load_config(f, "stability")


def test_load_config_rejects_bad_syntax_and_value(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("eps 0.1\n")
    with pytest.raises(cli.ValidationError):
        cli.load_config(f, "profile")
    f.write_text("eps=banana\n")
    with pytest.raises(cli.ValidationError):
        cli.load_config(f, "profile")



@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
def test_unreadable_config_exits_1(tmp_path, capsys, kind):
    cfg = tmp_path / "cfg.txt"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not_utf8":
        cfg.write_bytes(b"eps = 0.1  # \xff\xfe\n")
    out = tmp_path / "run"
    assert cli.run(["profile", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read --config")
    assert not out.exists()

def test_validate_weight_scale_ordering():
    v = cli._defaults("stability")
    v["A"], v["B"] = 50.0, 10.0        # A < B^2
    with pytest.raises(cli.ValidationError):
        cli.validate(v)


def test_validate_shape():
    v = cli._defaults("evolve")
    v["shape"] = "banana"
    with pytest.raises(cli.ValidationError):
        cli.validate(v)


# --------------------------------------------------------------- exit codes

def test_evolve_rejects_negative_eps(tmp_path, capsys):
    rc = cli.run(["evolve", "--out", str(tmp_path / "r"), "--eps", "-0.1"])
    assert rc == 1
    assert "eps must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["evolve", "--T", "-1"], "T"), (["evolve", "--T", "0"], "T"),
    (["linear", "--rho", "0"], "rho"), (["profile", "--L", "-5"], "L")],
    ids=["evolve-T-negative", "evolve-T-zero", "linear-rho-zero", "profile-L-negative"])
def test_nonpositive_T_L_rho_exit_1(tmp_path, capsys, argv, key):
    out = tmp_path / "r"
    rc = cli.run(argv + ["--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {key} must be positive\n"
    assert not out.exists()


# a flag value that does not parse, or is not finite, is a validation error,
# not a traceback; NaN would fail none of validate's range comparisons
@pytest.mark.parametrize("argv, message", [
    (["profile", "--N", "abc"], "bad value for --N: 'abc'"),
    (["profile", "--eps", "abc"], "bad value for --eps: 'abc'"),
    (["evolve", "--n_saves", "2.5"], "bad value for --n_saves: '2.5'"),
    (["stability", "--B", "nan"], "B must be finite"),
    (["profile", "--K", "nan"], "K must be finite"),
    (["profile", "--eps", "nan"], "eps must be finite"),
    (["stability", "--A", "nan"], "A must be finite"),
    (["linear", "--kappa", "nan"], "kappa must be finite"),
    (["evolve", "--delta", "nan", "--eps", "0.1", "--T", "1"], "delta must be finite"),
    (["evolve", "--T", "inf"], "T must be finite"),
    (["stability", "--B", "1"], "B must exceed 1"),
    (["evolve", "--delta=-1e-3"], "delta must be nonnegative"),
    (["evolve", "--n_saves", "1"], "n_saves must be at least 2")],
    ids=["N-abc", "eps-abc", "n_saves-2.5", "B-nan", "K-nan", "eps-nan", "A-nan",
         "kappa-nan", "delta-nan", "T-inf", "B-1", "delta-negative", "n_saves-1"])
def test_malformed_or_nan_flag_exit_1(tmp_path, capsys, argv, message):
    out = tmp_path / "r"
    rc = cli.run(argv + ["--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# a valid value of each setting, so that only its being unread can fail
_SAMPLE = {"K": "1", "eps": "0.1", "L": "60", "N": "256", "A": "100", "B": "10",
           "kappa": "0.1", "rho": "0.3", "delta": "1e-3", "shape": "odd",
           "T": "2", "n_saves": "3", "segment": "0.1:0.3:3"}
_UNREAD = [(sub, key) for sub, reads in cli._READS.items()
           for key in cli._SETTINGS if key not in reads]


@pytest.mark.parametrize("sub, key", _UNREAD, ids=[f"{s}-{k}" for s, k in _UNREAD])
def test_unread_setting_exits_1(tmp_path, capsys, sub, key):
    out = tmp_path / "r"
    assert cli.run([sub, f"--{key}", _SAMPLE[key], "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {sub} does not read --{key} (")
    f = tmp_path / "cfg.txt"
    f.write_text(f"{key}={_SAMPLE[key]}\n")
    assert cli.run([sub, "--config", str(f), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    if cli._READS[sub]:
        assert err.startswith(f"error: {f}:1: {sub} does not read {key} (")
    else:  # report reads no settings and takes no --config
        assert err == f"error: unrecognized arguments: --config {f}\n"
    assert not out.exists()


def _cfg_reads(fn):
    """The settings `fn` reads as cfg.<key>."""
    return {node.attr for node in ast.walk(ast.parse(inspect.getsource(fn)))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg"} & set(cli._SETTINGS)


def _prepare_reads(sub):
    """The settings cli._prepare reads from a `sub` run's cfg, which holds
    exactly the subcommand's row (reading any other setting raises), on a
    small grid; linear's weight scales come from the defaults, not cfg."""
    seen = set()

    class Recording(SimpleNamespace):
        def __getattribute__(self, name):
            value = super().__getattribute__(name)
            seen.add(name)
            return value

    cli._prepare(Recording(subcommand=sub, **dict(cli._defaults(sub), eps=0.1, L=40.0,
                                                  N=256)))
    return seen & set(cli._SETTINGS)


@pytest.mark.parametrize("sub", list(cli._READS))
def test_reads_table_matches_commands(sub):
    # the command and, for a run that builds inputs, _prepare before it;
    # report builds none
    reads = _cfg_reads(cli._COMMANDS[sub])
    if cli._READS[sub]:
        reads |= _prepare_reads(sub)
    assert reads == set(cli._READS[sub])


def test_flag_overrides_config_file(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("eps=0.2\nN=128\nL=40\n")
    out = tmp_path / "run"
    rc = cli.run(["profile", "--out", str(out), "--config", str(f),
                  "--eps", "0.1"])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["inputs"]["eps"] == 0.1       # flag wins
    assert man["inputs"]["N"] == 128         # file survives


def test_profile_happy_path_manifest(tmp_path):
    out = tmp_path / "run"
    rc = cli.run(["profile", "--out", str(out), "--eps", "0.1",
                  "--L", "60", "--N", "256"])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["subcommand"] == "profile"
    assert man["inputs"] == {"K": 1.0, "eps": 0.1, "L": 60.0, "N": 256}
    # the manifest is the run's one record: the table and the manifest
    # beside it, no second copy of the scalars
    assert man["outputs"] == [str(out / "profile.csv")] and man["error"] is None
    assert sorted(f.name for f in out.iterdir()) == ["manifest.json", "profile.csv"]
    assert set(man["scalars"]) == {"c", "eps", "L", "N", "mu4_at_zero",
                                   "fitted_tail_rate", "poisson_residual"}
    assert abs(man["scalars"]["c"] - (2.0 ** 0.5 + 0.1)) < 1e-12
    # every cell of the CSV parses as a plain number
    with open(out / "profile.csv", newline="") as f:
        header, *rows = list(csv.reader(f))
    assert header == ["x", "n", "u", "phi", "psi", "dn", "du"]
    assert len(rows) == 256
    values = [[float(v) for v in row] for row in rows]
    assert all(len(row) == 7 for row in values)
    assert values[128][0] == 0.0 and values[128][1] > 0.0   # x = 0, the peak


def test_default_grid_is_recorded(tmp_path):
    # with --L and --N unset the inputs hold null; the scalars hold the grid
    # default_grid chose
    out = tmp_path / "run"
    assert cli.run(["profile", "--out", str(out), "--eps", "0.1"]) == 0
    man = _strict_json(out / "manifest.json")
    assert man["inputs"]["L"] is None and man["inputs"]["N"] is None
    assert man["scalars"]["N"] == 1024 and man["scalars"]["L"] == 40.0 / np.sqrt(0.1)


def test_profile_short_box_writes_null_tail_rate(tmp_path):
    # on [-10, 10) the eps = 0.1 profile stays above n*/100, so the tail fit
    # has no window (np.polyfit raised a TypeError on the empty selection);
    # the grid is explicit, so its residual (1.6e-2) is recorded, not refused
    out = tmp_path / "run"
    assert cli.run(["profile", "--out", str(out), "--eps", "0.1",
                    "--L", "10", "--N", "64"]) == 0
    scalars = _strict_json(out / "manifest.json")["scalars"]
    assert scalars["fitted_tail_rate"] is None
    assert scalars["poisson_residual"] > cli._RESIDUAL_MAX


def test_unresolved_profile_on_the_default_grid_exits_2(tmp_path, capsys):
    # at eps = 0.15 the default grid (N = 8192) leaves a nodal Poisson
    # residual of 7.3e-6, above the bound
    out = tmp_path / "run"
    assert cli.run(["profile", "--out", str(out), "--eps", "0.15"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err
    assert "eps = 0.15" in err and "Poisson residual" in err
    assert not (out / "manifest.json").exists()


def _no_flow(*args, **kwargs):
    raise AssertionError("the nonlinear flow started")


def test_unresolved_profile_stops_stability_before_the_flow(tmp_path, capsys,
                                                            monkeypatch):
    # stability's default grid (L_FACTOR 80) at eps = 0.15 has N = 16384 and
    # a nodal Poisson residual of 7.3e-6, above the bound
    monkeypatch.setattr(dynamics, "evolve", _no_flow)
    out = tmp_path / "run"
    assert cli.run(["stability", "--out", str(out), "--eps", "0.15"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err
    assert "eps = 0.15" in err and "N = 16384" in err and "Poisson residual" in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("sub", ["profile", "evans", "evolve", "linear", "stability"])
def test_default_grid_residual_bound_covers_each_profile_subcommand(
        tmp_path, capsys, monkeypatch, sub):
    # the eps = 0.1 profile's residual (4.7e-10) set against a bound below
    # it; the failure comes before any nonlinear flow
    monkeypatch.setattr(cli, "_RESIDUAL_MAX", 1e-12)
    monkeypatch.setattr(dynamics, "evolve", _no_flow)
    assert cli.run([sub, "--out", str(tmp_path / "run"), "--eps", "0.1"]) == 2
    assert "Poisson residual" in capsys.readouterr().err


def test_out_dir_collision_without_force(tmp_path, capsys):
    out = tmp_path / "run"
    args = ["profile", "--out", str(out), "--eps", "0.1", "--L", "60",
            "--N", "256"]
    assert cli.run(args) == 0
    assert cli.run(args) == 1
    assert "not empty" in capsys.readouterr().err
    assert cli.run(args + ["--force"]) == 0


def test_force_removes_the_previous_runs_artifacts(tmp_path, capsys):
    # a forced rerun that fails left the first run's manifest (its delta,
    # its verdicts, which report would roll up) and its series beside its
    # own record; files the manifest does not list stay
    out = tmp_path / "run"
    args = ["stability", "--out", str(out), "--eps", "0.1", "--L", "60",
            "--N", "512", "--T", "2", "--n_saves", "5"]
    assert cli.run(args) == 0
    (out / "notes.txt").write_text("keep\n")
    assert cli.run(args + ["--force", "--delta", "4e-3"]) == 2
    assert sorted(f.name for f in out.iterdir()) == ["manifest.json", "notes.txt"]
    man = _strict_json(out / "manifest.json")
    assert man["inputs"]["delta"] == 4e-3 and man["outputs"] == []


def test_force_from_another_working_directory(tmp_path, monkeypatch):
    # the manifest lists its outputs relative to the directory the first run
    # started in; a forced rerun started elsewhere still removes them, and
    # touches no file of the same path below its own directory
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    (b / "runs" / "x").mkdir(parents=True)
    (b / "runs" / "x" / "profile.csv").write_text("keep\n")
    monkeypatch.chdir(a)
    assert cli.run(["profile", "--eps", "0.1", "--L", "40", "--N", "128",
                    "--out", "runs/x"]) == 0
    monkeypatch.chdir(b)
    assert cli.run(["evans", "--eps", "0.1", "--L", "40", "--N", "128",
                    "--segment", "0.02:1:3", "--out", "../a/runs/x", "--force"]) == 0
    assert sorted(f.name for f in (a / "runs" / "x").iterdir()) == ["evans.csv",
                                                                  "manifest.json"]
    assert (b / "runs" / "x" / "profile.csv").read_text() == "keep\n"


@pytest.mark.parametrize("content", [b"{bad", b"[1, 2]", b'{"outputs": 3}'],
                         ids=["not_json", "not_an_object", "outputs_not_a_list"])
def test_force_over_unreadable_manifest_exits_1(tmp_path, capsys, content):
    out = tmp_path / "run"
    out.mkdir()
    (out / "manifest.json").write_bytes(content)
    assert cli.run(["profile", "--out", str(out), "--eps", "0.1", "--L", "60",
                    "--N", "256", "--force"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {out / 'manifest.json'}: ")
    assert [f.name for f in out.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
def test_out_naming_a_file_exits_1(tmp_path, capsys, force):
    out = tmp_path / "taken"
    out.write_text("keep\n")
    assert cli.run(["profile", "--out", str(out), "--eps", "0.1", "--L", "60",
                    "--N", "256"] + force) == 1
    assert capsys.readouterr().err.startswith("error: cannot create output directory")
    assert out.read_text() == "keep\n"

def test_profile_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli.run(["profile", "--out", str(out), "--eps", "0.1",
                      "--L", "60", "--N", "256"])
        assert rc == 0
        outs.append((out / "profile.csv").read_bytes())
    assert outs[0] == outs[1]


def test_report_aggregates(tmp_path, capsys):
    # a run that failed is rolled up too, with the error its manifest names
    runs = tmp_path / "runs"
    assert cli.run(["profile", "--out", str(runs / "p"), "--eps", "0.1",
                    "--L", "60", "--N", "256"]) == 0
    assert cli.run(["evolve", "--out", str(runs / "kick"), "--eps", "0.1", "--L", "40",
                    "--N", "256", "--T", "2", "--delta", "2000", "--shape", "kick"]) == 2
    rc = cli.run(["report", "--out", str(runs)])
    assert rc == 0
    summary = {Path(r["path"]).name: r
               for r in json.loads((runs / "report.json").read_text())}
    assert set(summary) == {"p", "kick"}
    assert summary["p"]["subcommand"] == "profile" and summary["p"]["error"] is None
    assert summary["kick"]["error"].startswith("blow-up at t = ")


def test_report_empty_tree_fails(tmp_path, capsys):
    (tmp_path / "runs").mkdir()
    rc = cli.run(["report", "--out", str(tmp_path / "runs")])
    assert rc == 1



@pytest.mark.parametrize("content", [b"{bad", b"\xff\xfe", b"[1, 2]"],
                         ids=["not_json", "not_utf8", "not_an_object"])
def test_report_unreadable_manifest_exits_1(tmp_path, capsys, content):
    bad = tmp_path / "runs" / "a" / "manifest.json"
    bad.parent.mkdir(parents=True)
    bad.write_bytes(content)
    assert cli.run(["report", "--out", str(tmp_path / "runs")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "Traceback" not in err
    assert not (tmp_path / "runs" / "report.json").exists()


def test_report_refuses_a_run_directory(tmp_path, capsys):
    # a run directory holds one run's record: a roll-up of it would add
    # nothing, and its report.json would sit among the run's files, where
    # no manifest names it and a --force rerun would not clear it
    run = tmp_path / "run"
    assert cli.run(["stability", "--out", str(run), "--eps", "0.1", "--L", "60",
                    "--N", "512", "--T", "2", "--n_saves", "3"]) == 0
    before = {f.name: f.read_bytes() for f in run.iterdir()}
    assert cli.run(["report", "--out", str(run)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert {f.name: f.read_bytes() for f in run.iterdir()} == before

@pytest.mark.parametrize("segment", ["nonsense", "0.1:0.3:0", "0.1:inf:3",
                                     "nan:1:3", "0.1:0.3:2.5", "0.1:0.3"])
def test_evans_bad_segment(tmp_path, capsys, segment):
    # the segment is checked with the other settings, before the output
    # directory is made; an empty scan used to end in an IndexError
    rc = cli.run(["evans", "--out", str(tmp_path / "r"), "--eps", "0.1",
                  "--segment", segment])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad --segment") and "Traceback" not in err
    assert not (tmp_path / "r").exists()


def _rows(path):
    """Header and rows of a CSV file."""
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f))
    return header, rows


def test_evans_happy_path(tmp_path):
    out = tmp_path / "run"
    rc = cli.run(["evans", "--out", str(out), "--eps", "0.1",
                  "--segment", "0.1:0.3:3"])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["verdicts"] == {"min_abs_D_positive": True,
                               "double_zero_at_origin": True}
    header, rows = _rows(out / "evans.csv")
    assert header == ["re_lambda", "im_lambda", "re_D", "im_D", "abs_D"]
    values = [[float(v) for v in row] for row in rows]
    assert len(values) >= 3 and all(len(row) == 5 for row in values)
    assert values[0][1] == 0.1 and values[-1][1] == 0.3
    assert min(row[4] for row in values) == pytest.approx(man["scalars"]["min_abs_D"])
    assert man["scalars"]["min_abs_D"] > 0
    assert set(man["scalars"]) == {"min_abs_D", "abs_D0", "abs_D1_at0", "D2_at0_real",
                                   "evans_evaluations", "jost_steps", "L", "N"}
    # the lambda values marched: every row of evans.csv, and the origin
    # stencil's four (0, d/2, d, 2d); the scan's mesh at eps = 0.1
    assert man["scalars"]["evans_evaluations"] == len(values) + 4
    assert man["scalars"]["jost_steps"] == 382


def test_evans_segment_through_the_double_zero_is_not_positive(tmp_path):
    # lambda = 0 is D's double zero: there |D| is roundoff (2.5e-10), far below
    # the scan's accuracy rtol * max |D|, and the verdict reads false
    out = tmp_path / "run"
    assert cli.run(["evans", "--out", str(out), "--eps", "0.1",
                    "--segment", "0:1:26"]) == 0
    man = _strict_json(out / "manifest.json")
    assert man["verdicts"] == {"min_abs_D_positive": False,
                               "double_zero_at_origin": True}
    assert 0 < man["scalars"]["min_abs_D"] < 1e-8


def test_double_zero_verdict_negative_control(p10):
    # a profile whose potential row is scaled by 1.01 off the travelling-
    # wave equation: lambda = 0 is no longer a double zero of D, and both
    # arms of the verdict fail (measured |D(0)| = 3.7e-4, |D'(0)| = 1.3e-2
    # against 1e-6 |D''(0)| = 1.8e-4; 3.2e-10 and 6.4e-9 on the wave itself)
    cfg = SimpleNamespace(segment="0.1:0.3:3")
    assert cli.cmd_evans(cfg, SimpleNamespace(p=p10)).verdicts["double_zero_at_origin"]
    fine = p10.fine.copy()
    fine[2] *= 1.01
    rec = cli.cmd_evans(cfg, SimpleNamespace(p=dataclasses.replace(p10, fine=fine)))
    s = rec.scalars
    assert s["abs_D0"] > 1e-6 * abs(s["D2_at0_real"]) and s["abs_D1_at0"] > 1e-6 * abs(
        s["D2_at0_real"])
    assert rec.verdicts["double_zero_at_origin"] is False


def _strict_json(path):
    """Parse as JSON proper: NaN and Infinity are not JSON."""
    def reject(token):
        raise ValueError(f"{token} in {path}")
    return json.loads(path.read_text(), parse_constant=reject)


def test_linear_happy_path(tmp_path):
    out = tmp_path / "run"
    rc = cli.run(["linear", "--out", str(out), "--eps", "0.05", "--T", "5"])
    assert rc == 0
    man = _strict_json(out / "manifest.json")
    assert set(man["scalars"]) == {"decay_rate", "kato_excess", "propagator_rho",
                                   "L_applications", "xi2_iterations", "xi2_residual",
                                   "L", "N", "T"}
    assert man["scalars"]["T"] == 5.0
    # what the linearized flow did: its expansion radius and its cost
    assert man["scalars"]["propagator_rho"] > 0
    assert isinstance(man["scalars"]["L_applications"], int)
    assert man["scalars"]["L_applications"] > 0
    # and what the one solve for xi2 = d/dc (n_c, u_c) took
    assert isinstance(man["scalars"]["xi2_iterations"], int)
    assert 0 < man["scalars"]["xi2_iterations"] <= 20
    assert 0.0 <= man["scalars"]["xi2_residual"] < 1e-11
    assert set(man["verdicts"]) == {"decay_positive", "kato_plateau"}
    for name, series in (("linear.csv", "weighted_norm"),
                         ("kato.csv", "running_integral")):
        header, rows = _rows(out / name)
        assert header == ["t", "name", "value"] and len(rows) > 2
        assert {row[1] for row in rows} == {series}
        assert np.isfinite(np.array([[row[0], row[2]] for row in rows], dtype=float)).all()


def test_linear_defaults_decay_verdict(tmp_path):
    # the dispersive-decay verdict at the CLI defaults (eps = 0.05, up to the
    # wrap time); kato_plateau is not asserted: on the periodic box the
    # smoothing weight is wider than the half-box and the integral cannot
    # saturate before the wrap time
    out = tmp_path / "run"
    assert cli.run(["linear", "--out", str(out)]) == 0
    man = _strict_json(out / "manifest.json")
    rate = man["scalars"]["decay_rate"]
    assert man["verdicts"]["decay_positive"] is True
    assert isinstance(rate, float) and np.isfinite(rate) and rate > 0


def test_linear_without_decaying_segment_writes_null_rate(tmp_path, monkeypatch):
    # a weighted norm that grows to the last save has no decay to fit
    from epsoliton import linearized
    monkeypatch.setattr(linearized, "l2a", lambda V, a, g: np.arange(1.0, len(V) + 1))
    out = tmp_path / "run"
    assert cli.run(["linear", "--out", str(out), "--T", "2"]) == 0
    man = _strict_json(out / "manifest.json")
    assert man["scalars"]["decay_rate"] is None
    assert man["verdicts"]["decay_positive"] is False


def test_linear_spurious_growth_exits_2(tmp_path, capsys, monkeypatch):
    # rho below ||L||_2 breaks the propagator's premise: the run stops at the
    # first save past e^10 ||V0|| and names its t and rho, writing no series
    from epsoliton import linearized
    rho = linearized.LinearContext.rho
    monkeypatch.setattr(linearized.LinearContext, "rho",
                        property(lambda ctx: 0.5 * rho.func(ctx)))
    out = tmp_path / "run"
    assert cli.run(["linear", "--out", str(out), "--eps", "0.1", "--L", "40",
                    "--N", "256", "--T", "5"]) == 2
    err = capsys.readouterr().err
    m = re.match(r"numerical failure: evolve_linear: spurious growth at t = (\S+): "
                 r".* rho = (\S+) is below", err)
    assert m and 0.0 < float(m[1]) <= 5.0 and float(m[2]) > 0.0
    _check_failure_record(out, err, [])


def test_csv_numbers_read_back_as_the_floats_they_came_from(tmp_path):
    # write_csv is where a number becomes text: each float cell, Python or
    # NumPy, reads back as the float it came from, sign of zero included (a
    # %g format would not), and an int or a string passes through unchanged
    t = [0.1 + 0.2, np.float64(5e-324), np.float32(-0.0), 7]
    series = {"x": [1e308, np.float32(0.1), np.float64(-0.0), "n/a"]}
    header, rows = cli.long_table(t, series)
    cli.write_csv(tmp_path / "t.csv", header, rows)
    with open(tmp_path / "t.csv", newline="") as f:
        back = list(csv.reader(f))
    assert back[0] == ["t", "name", "value"] and len(back) == len(rows) + 1 == 5
    for row, cells in zip(rows, back[1:]):
        for v, cell in zip(row, cells):
            if isinstance(v, (float, np.floating)):
                assert float(cell) == float(v)
                assert np.signbit(float(cell)) == np.signbit(v)
            else:
                assert cell == str(v)


def test_evolve_writes_invariants(tmp_path):
    out = tmp_path / "run"
    rc = cli.run(["evolve", "--out", str(out), "--eps", "0.1", "--T", "2",
                  "--n_saves", "3", "--delta", "0"])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    sc = man["scalars"]
    assert man["verdicts"]["conserved"] is True, \
        f"rel_dE = {sc['rel_dE']:.3g} (bound 1e-6), rel_dM = {sc['rel_dM']:.3g} (bound 1e-8)"
    assert set(sc) == {"rel_dE", "rel_dM", "L", "N", "T"} | FLOW_SCALARS
    _check_flow_telemetry(sc)
    text = (out / "invariants.csv").read_text()
    assert text.splitlines()[0] == "t,name,value"
    assert {row[1] for row in _rows(out / "invariants.csv")[1]} == {"E", "M"}


def test_evolve_conserves_the_perturbed_wave(tmp_path):
    # the README's evolve command up to T = 10: in the lab frame rel_dM was
    # 2.4e-8 there (4.3e-7 at the default T = 158), over the bound 1e-8; in
    # the wave's frame both drifts are about 3e-12
    out = tmp_path / "run"
    assert cli.run(["evolve", "--out", str(out), "--eps", "0.1", "--delta", "1e-3",
                    "--shape", "even", "--T", "10"]) == 0
    man = _strict_json(out / "manifest.json")
    sc = man["scalars"]
    assert man["verdicts"]["conserved"] is True, \
        f"rel_dE = {sc['rel_dE']:.3g} (bound 1e-6), rel_dM = {sc['rel_dM']:.3g} (bound 1e-8)"
    assert sc["rel_dM"] < 1e-10 and sc["rel_dE"] < 1e-10


def test_evolve_unresolved_wave_is_not_conserved(tmp_path):
    # the negative control of `conserved`: at h = 2.5 the wave is unresolved,
    # and its invariants drift well past both bounds; the run itself succeeds
    out = tmp_path / "run"
    assert cli.run(["evolve", "--out", str(out), "--eps", "0.1", "--L", "40",
                    "--N", "32", "--T", "5"]) == 0
    man = _strict_json(out / "manifest.json")
    assert man["verdicts"]["conserved"] is False
    assert man["scalars"]["rel_dE"] > 1e-3 and man["scalars"]["rel_dM"] > 1e-4


def test_evolve_blow_up_exits_2(tmp_path, capsys):
    # a velocity kick of amplitude 2000 empties the density within the first
    # step: evolve's check after the step stops the flow, and the run exits 2
    out = tmp_path / "run"
    rc = cli.run(["evolve", "--out", str(out), "--eps", "0.1", "--L", "40",
                  "--N", "256", "--T", "2", "--delta", "2000", "--shape", "kick"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: blow-up at t = 0.000187")
    assert "Traceback" not in err
    # the run is recorded with the failure it stopped on and the flow's
    # telemetry up to it, with no table and no verdict
    man = _check_failure_record(out, err, [])
    sc = man["scalars"]
    assert set(sc) == {"L", "N", "T", "blowup_time"} | FLOW_SCALARS and man["verdicts"] == {}
    assert sc["rk4_steps"] >= 1
    assert man["error"] == f"blow-up at t = {sc['blowup_time']}"


def test_evolve_solver_failure_exits_2(tmp_path, fail_poisson_at, capsys):
    fail_poisson_at(6)
    out = tmp_path / "run"
    rc = cli.run(["evolve", "--out", str(out), "--eps", "0.1",
                  "--L", "60", "--N", "512", "--T", "2", "--n_saves", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: time stepping failed at RK4 stage 2")
    assert "blow-up" not in err
    _check_failure_record(out, err, [])


def test_evolve_overflowing_cold_start_exits_2(tmp_path, capsys):
    # the first Poisson solve has a root (max phi about 6.9), but its cold
    # start reaches max phi = 952, where e^phi overflows: a limit of the
    # fixed point, not bad input, so the run exits 2, and stderr holds the
    # failure line alone, with no NumPy warning before it
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.run(["evolve", "--out", str(out), "--eps", "0.1", "--L", "40",
                      "--N", "64", "--T", "1", "--delta", "1000"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("numerical failure: time stepping failed at RK4 stage 1 of the step "
                   "from t = 0: solve_poisson: the cold start reaches max phi = 952, "
                   "past 709.8, where e^phi overflows\n")
    man = _check_failure_record(out, err, [])
    assert man["scalars"]["poisson_solves"] == man["scalars"]["rk4_steps"] == 0


def _check_failure_record(out, err, outputs):
    """The manifest of a run that exited 2: it names the failure stderr
    printed and lists exactly the files `outputs` (names in out)."""
    man = _strict_json(out / "manifest.json")
    assert err == f"numerical failure: {man['error']}\n"
    assert man["outputs"] == [str(out / name) for name in outputs]
    assert sorted(f.name for f in out.iterdir()) == sorted(outputs + ["manifest.json"])
    return man


FLOW_SCALARS = {"poisson_solves", "poisson_iterations", "poisson_fallbacks",
                "poisson_residual_max", "poisson_jacobian_nodes", "poisson_refreezes",
                "rk4_steps", "frame_speed"}


def _check_flow_telemetry(scalars):
    # what the nonlinear flow's Poisson solves cost, four per RK4 step, and
    # the frame it ran in: the wave's, c = sqrt(1 + K) + eps
    assert isinstance(scalars["rk4_steps"], int) and scalars["rk4_steps"] > 0
    assert scalars["poisson_solves"] == 4 * scalars["rk4_steps"]
    assert isinstance(scalars["poisson_iterations"], int)
    assert scalars["poisson_iterations"] > 0
    assert isinstance(scalars["poisson_fallbacks"], int)
    assert scalars["poisson_fallbacks"] == 0
    assert 0.0 < scalars["poisson_residual_max"] <= 1e-11
    # the wave's frame freezes the Poisson Jacobian on the nodes where
    # e^phi - 1 is not negligible, unless they pass N/4 (0: the scalar
    # iteration ran), and a healthy run never freezes it again
    assert isinstance(scalars["poisson_jacobian_nodes"], int)
    assert 0 <= scalars["poisson_jacobian_nodes"] <= scalars["N"] // 4
    assert scalars["poisson_refreezes"] == 0
    assert scalars["frame_speed"] == pytest.approx(np.sqrt(2.0) + 0.1, rel=1e-15)


def test_stability_happy_path_manifest(tmp_path):
    # the manifest holds every fact the run's report.json held, each equal to
    # the experiment's own on the same inputs: the config (the inputs and
    # the horizon), the verdicts, the blow-up time (blown_up is whether it
    # is null), c's tail spread, the error and the virial constants
    out = tmp_path / "run"
    assert cli.run(["stability", "--out", str(out), "--eps", "0.1", "--L", "60",
                    "--N", "512", "--T", "2", "--n_saves", "3"]) == 0
    man = _strict_json(out / "manifest.json")
    assert set(man["scalars"]) == {"c_tail_spread", "blowup_time", "virial_constants",
                                   "L", "N", "T"} | FLOW_SCALARS
    assert (man["scalars"]["L"], man["scalars"]["N"], man["scalars"]["T"]) == (60.0, 512, 2.0)
    _check_flow_telemetry(man["scalars"])
    assert set(man["verdicts"]) == {"decompose_ok", "local_decay",
                                    "running_integral_saturates", "c_converges",
                                    "virial_constants_ok"}
    assert sorted(f.name for f in out.iterdir()) == ["manifest.json", "stability_series.csv"]
    sc = diagnostics.StabilityConfig(grid=Grid(60.0, 512), K=1.0, eps=0.1, delta=1e-3,
                                     shape="even", T=2.0, n_saves=3)
    rep = diagnostics.stability_experiment(sc)
    config = {k: v for k, v in vars(sc).items() if k != "grid"}
    assert {**man["inputs"], "T": man["scalars"]["T"]} == {**config, "L": 60.0, "N": 512}
    assert man["verdicts"] == rep.verdicts and man["error"] == rep.error is None
    assert man["scalars"]["blowup_time"] == rep.blowup_time is None and not rep.blown_up
    assert man["scalars"]["c_tail_spread"] == rep.c_tail_spread
    assert man["scalars"]["virial_constants"] == {
        m.name: {"C": m.C, "stable": m.stable, "inconclusive": m.inconclusive,
                 "fits": m.fits, "reason": m.reason}
        for m in rep.monitors}
    assert all(v["reason"] == "fewer than five snapshots: one window"
               for v in man["scalars"]["virial_constants"].values())


def test_stability_series_csv_holds_each_series_once_per_snapshot(tmp_path):
    # one sample a snapshot of each series; weighted_local is not repeated as local_decay
    out = tmp_path / "run"
    assert cli.run(["stability", "--out", str(out), "--eps", "0.1", "--L", "60",
                    "--N", "512", "--T", "2", "--n_saves", "3"]) == 0
    with open(out / "stability_series.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    names = [r["name"] for r in rows]
    assert set(names) == {"c", "D", "I1", "I2", "J", "local_running", "Sigma1", "Sigma2",
                          "Sigma_tilde", "L2a", "weighted_local"}
    assert all(names.count(name) == 3 for name in set(names))
    assert all(np.isfinite(float(r["value"])) for r in rows)


def test_stability_solver_failure_exits_2(tmp_path, fail_poisson_at, capsys):
    fail_poisson_at(6)
    rc = cli.run(["stability", "--out", str(tmp_path / "run"), "--eps", "0.1",
                  "--L", "60", "--N", "512", "--T", "2", "--n_saves", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "RK4 stage 2" in err and "blow-up" not in err


def test_stability_blow_up_is_named_before_the_tracking_stop(tmp_path, capsys):
    # the kick that blows evolve up in its first step: the flow's stop comes
    # first, then the tracking stop (at t = 0, where the kicked state already
    # lies outside the modulation window)
    out = tmp_path / "run"
    rc = cli.run(["stability", "--out", str(out), "--eps", "0.1", "--L", "40",
                  "--N", "256", "--T", "2", "--n_saves", "3", "--delta", "2000",
                  "--shape", "kick"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: blow-up at t = 0.000187")
    assert "; modulation tracking failed at t = 0: " in err and "Traceback" not in err
    man = _check_failure_record(out, err, [])
    assert err.startswith(f"numerical failure: blow-up at t = {man['scalars']['blowup_time']};")
    assert man["verdicts"] == {"decompose_ok": False}


def test_stability_tracking_failure_at_first_snapshot_exits_2(tmp_path, capsys):
    # decompose fails at t = 0 for this bump, so no series exists; the run
    # used to end in a TypeError (exit 1) writing stability_series.csv
    out = tmp_path / "run"
    rc = cli.run(["stability", "--out", str(out), "--eps", "0.1", "--delta", "4e-3",
                  "--T", "5", "--n_saves", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    # D10: the stop names its t, the speed decompose reached and the window
    # it left
    assert err.startswith("numerical failure: modulation tracking failed at t = 0: ")
    assert "c = 1.51591" in err and "outside the interpolation window [1.51271" in err
    man = _check_failure_record(out, err, [])
    assert man["verdicts"] == {"decompose_ok": False}
    assert man["scalars"]["c_tail_spread"] is None and man["scalars"]["virial_constants"] is None


def test_stability_tracking_stop_midway_keeps_the_series(tmp_path, capsys, monkeypatch):
    # a stop after the first snapshot exits 2 with the record of what was
    # tracked: the series up to the last snapshot, the verdicts and scalars
    decompose, seen = modulation.decompose, []

    def failing_third(state, *args, **kwargs):
        seen.append(state.t)
        if len(seen) == 3:
            raise RuntimeError("decompose: Newton stagnated")
        return decompose(state, *args, **kwargs)

    monkeypatch.setattr(modulation, "decompose", failing_third)
    out = tmp_path / "run"
    assert cli.run(["stability", "--out", str(out), "--eps", "0.1", "--L", "60",
                    "--N", "512", "--T", "2", "--n_saves", "5"]) == 2
    err = capsys.readouterr().err
    assert err == (f"numerical failure: modulation tracking failed at t = {seen[2]:g}: "
                   "decompose: Newton stagnated\n")
    man = _check_failure_record(out, err, ["stability_series.csv"])
    assert man["verdicts"]["decompose_ok"] is False and len(man["verdicts"]) == 5
    assert len(man["scalars"]["virial_constants"]) == 3
    with open(out / "stability_series.csv", newline="") as fh:
        t = {float(r["t"]) for r in csv.DictReader(fh)}
    assert t == {0.0, seen[1]}


def test_stability_builds_one_base_profile(tmp_path, monkeypatch):
    # the profile the CLI checks is the experiment's base wave: three builds,
    # with the modulation context's two at c0 -+ DC
    builds = []
    build = profile_mod.build_profile

    def counted(c, *args):
        builds.append(c)
        return build(c, *args)

    monkeypatch.setattr(profile_mod, "build_profile", counted)
    monkeypatch.setattr(modulation, "build_profile", counted)
    assert cli.run(["stability", "--out", str(tmp_path / "run"), "--eps", "0.1",
                    "--L", "60", "--N", "512", "--T", "2", "--n_saves", "3"]) == 0
    c0 = np.sqrt(2.0) + 0.1
    assert sorted(builds) == [c0 - modulation.DC, c0, c0 + modulation.DC]


# ------------------------------------------------------------------- grids

def _grid(**overrides):
    """The grid cli._prepare builds a profile run's inputs on."""
    cfg = SimpleNamespace(subcommand="profile",
                          **dict(cli._defaults("profile"), eps=0.1, **overrides))
    return cli._prepare(cfg).p.grid


def test_partial_grid_override_follows_default_rule():
    full = profile_mod.default_grid(0.1)
    only_L = _grid(L=full.L)
    assert (only_L.L, only_L.N) == (full.L, full.N)
    only_N = _grid(N=256)
    assert (only_N.L, only_N.N) == (full.L, 256)
    both = _grid(L=60.0, N=256)
    assert (both.L, both.N) == (60.0, 256)


def test_unresolvable_eps_exits_1(tmp_path, capsys):
    # the sonic branch point is ~0.01 from the real axis: the rule needs 2^17 points
    rc = cli.run(["profile", "--out", str(tmp_path / "r"), "--eps", "0.15525"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "eps=0.15525" in err and "N=131072" in err


def test_no_peak_with_explicit_grid_exits_1(tmp_path, capsys):
    # explicit --L/--N skip default_grid; the missing peak is still a
    # validation error, not a traceback
    rc = cli.run(["profile", "--out", str(tmp_path / "r"), "--eps", "0.172",
                  "--L", "60", "--N", "256"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no root of the peak equation" in err


def test_past_existence_edge_with_explicit_grid_exits_1(tmp_path, capsys):
    # peak_state used to return the trivial root there and the CLI wrote a
    # flat profile with exit 0
    rc = cli.run(["profile", "--out", str(tmp_path / "r"), "--eps", "50",
                  "--L", "60", "--N", "256"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "existence edge" in err
    assert not (tmp_path / "r" / "profile.csv").exists()


def test_bad_grid_size_exits_1(tmp_path, capsys):
    rc = cli.run(["profile", "--out", str(tmp_path / "r"), "--eps", "0.1",
                  "--N", "17"])
    assert rc == 1
    assert "N must be" in capsys.readouterr().err


# ------------------------------------------------- settings-table contract

@pytest.mark.parametrize("argv", [["--eps", "0.05", "--L", "358", "--N", "16"],
                                  ["--eps", "0.1", "--L", "253", "--N", "18"]],
                         ids=["eps0.05-N16", "eps0.1-N18"])
def test_profile_turning_march_past_every_node(tmp_path, capsys, argv):
    # the turning-point march hits its event before the first node it
    # samples, and SciPy leaves sol.y an empty list: a TypeError before
    rc = cli.run(["profile", "--out", str(tmp_path / "r")] + argv)
    assert rc in (0, 2) and "Traceback" not in capsys.readouterr().err


def test_evans_pseudopotential_roundoff_exits_2(tmp_path, capsys):
    # a wave exists at K = 3, eps = 1e-4, but G(phi) loses its sign to
    # roundoff: a numerical failure, not a ValueError traceback
    rc = cli.run(["evans", "--out", str(tmp_path / "r"), "--K", "3", "--eps", "1e-4",
                  "--L", "20", "--N", "64"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("numerical failure: pseudopotential")


@pytest.mark.parametrize("eps", ["5e-4", "1e-3"])
def test_stability_eps_floor_exits_1(tmp_path, capsys, eps):
    # the modulation context builds the wave at c - 1e-3, below the sonic
    # speed for eps <= 1e-3
    out = tmp_path / "r"
    rc = cli.run(["stability", "--out", str(out), "--eps", eps, "--L", "300",
                  "--N", "256", "--T", "0.5", "--n_saves", "2"])
    assert rc == 1
    assert capsys.readouterr().err == "error: stability needs eps > 0.001\n"
    assert not out.exists()


def test_stability_without_a_wave_at_eps_plus_dc_exits_1(tmp_path, capsys):
    # the modulation context builds the wave at c + 1e-3 too; at K = 1 the
    # existence edge is eps = 0.15527, so eps = 0.155 has a wave and
    # eps + 1e-3 none
    out = tmp_path / "r"
    rc = cli.run(["stability", "--out", str(out), "--eps", "0.155", "--L", "40",
                  "--N", "64", "--T", "0.5", "--n_saves", "3"])
    assert rc == 1
    assert capsys.readouterr().err == ("error: stability needs a wave at eps + 0.001: "
                                       "no solitary wave at this (c, K): no root of "
                                       "the peak equation\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, delta, min_density", [
    (["evolve", "--eps", "0.1", "--T", "2"], "1.1", "-0.0563"),
    (["stability", "--eps", "0.1", "--L", "40", "--N", "256", "--T", "2",
      "--n_saves", "3"], "3", "-1.96")], ids=["evolve", "stability"])
def test_perturbation_emptying_the_density_exits_1(tmp_path, capsys, argv, delta,
                                                  min_density):
    # the odd bump reaches -delta: past delta = 1.04 the initial density is
    # not positive, which the flow cannot start from
    out = tmp_path / "r"
    rc = cli.run(argv + ["--delta", delta, "--shape", "odd", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (f"error: --delta {delta} with --shape odd empties the density: "
                   f"min(1 + n) = {min_density}\n")
    assert not (out / "manifest.json").exists()


def _no_profile(*args, **kwargs):
    raise AssertionError("a profile was built")


# runs refused before --out is made: seven validation errors and the
# default grid's residual gate; "built" is whether the refusal needs the
# profile
_REFUSED = {
    "profile-no-wave": (["profile", "--eps", "0.172", "--L", "60", "--N", "256"], 1,
                        "error: no solitary wave at this (c, K): no root", False),
    "evolve-empty-density": (["evolve", "--eps", "0.1", "--delta", "1.1", "--shape", "odd",
                              "--T", "2"], 1,
                             "error: --delta 1.1 with --shape odd empties the density", True),
    "stability-empty-density": (["stability", "--eps", "0.1", "--delta", "3", "--shape", "odd",
                                 "--L", "40", "--N", "256", "--T", "2", "--n_saves", "3"], 1,
                                "error: --delta 3 with --shape odd empties the density", True),
    "profile-unresolved": (["profile", "--eps", "0.153"], 2,
                           "numerical failure: profile at eps = 0.153 unresolved", True),
    "linear-rho": (["linear", "--rho", "12"], 1,
                   "error: --rho 12 must be below 11.09 on this box", False),
    "stability-rho": (["stability", "--eps", "0.1", "--rho", "6", "--T", "1",
                       "--n_saves", "3"], 1,
                      "error: --rho 6 must be below 5.545 on this box", False),
    # an amplitude whose squared norm overflowed where the run formed it
    # (ValueError: non-finite input to integrate)
    "linear-delta": (["linear", "--delta", "1e160", "--L", "40", "--N", "64", "--T", "1"], 1,
                     "error: --delta 1e+160 must be below 4.493e+148 on this box", False),
    "stability-delta": (["stability", "--eps", "0.1", "--delta", "1e160", "--L", "40",
                         "--N", "64", "--T", "1", "--n_saves", "3"], 1,
                        "error: --delta 1e+160 must be below 1.066e+148 on this box", False),
}


@pytest.mark.parametrize("argv, rc, message, built", _REFUSED.values(), ids=list(_REFUSED))
def test_refused_run_makes_no_out(tmp_path, capsys, monkeypatch, argv, rc, message, built):
    # every input check runs before --out is made, and the cheap ones before
    # the profile is built; none of these runs reaches the flow
    monkeypatch.setattr(dynamics, "evolve", _no_flow)
    if not built:
        monkeypatch.setattr(profile_mod, "build_profile", _no_profile)
    out = tmp_path / "r"
    assert cli.run(argv + ["--out", str(out)]) == rc
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert not out.exists()


def test_refused_forced_rerun_keeps_the_previous_run(tmp_path, capsys):
    # the inputs are checked before --force deletes the old run's files
    out = tmp_path / "run"
    assert cli.run(["profile", "--eps", "0.1", "--L", "40", "--N", "256",
                    "--out", str(out)]) == 0
    first = {f.name: f.read_bytes() for f in out.iterdir()}
    assert cli.run(["profile", "--eps", "0.172", "--L", "60", "--N", "256",
                    "--out", str(out), "--force"]) == 1
    assert "no root of the peak equation" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == first


# one strategy per setting (a setting without one fails the draw); L, N and
# T are always given, and small, so that an example costs well under a
# second (default grids near eps = 1e-4 take minutes), and evans scans at
# most three points
_PROBE = {
    "K": st.floats(0.1, 4.0), "eps": st.floats(1e-4, 0.3),
    "L": st.floats(5.0, 400.0), "N": st.sampled_from([16, 18, 32, 64, 128]),
    "A": st.floats(10.0, 1000.0), "B": st.floats(1.1, 30.0),
    "kappa": st.floats(0.01, 1.0), "rho": st.floats(0.01, 30.0),
    # small amplitudes, and 1e130-1e300 drawn evenly in the exponent, across
    # the squared norm's overflow bound (4.5e148 at L = 40, N = 64; lower on
    # long boxes and near rho's bound)
    "delta": st.one_of(st.floats(0.0, 1e-2), st.floats(130.0, 300.0).map(lambda e: 10.0 ** e)),
    "shape": st.sampled_from(["even", "odd", "shift", "kick"]),
    "T": st.floats(0.1, 2.0), "n_saves": st.integers(2, 6),
    "segment": st.builds("{}:{}:{}".format, st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                         st.integers(1, 3)),
}
_PINNED = ("L", "N", "T", "segment")


@st.composite
def _runs(draw):
    sub = draw(st.sampled_from([s for s, reads in cli._READS.items() if reads]))
    argv = [sub]
    for key in cli._READS[sub]:
        if key in _PINNED or draw(st.booleans()):
            argv += [f"--{key}", str(draw(_PROBE[key]))]
    return argv


def test_evolve_on_the_smallest_grid(tmp_path):
    # the smallest grid, whose dealiased band holds six rfft modes, through
    # every stage of the warm-started flow
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.run(["evolve", "--L", "5", "--N", "16", "--T", "1",
                      "--out", str(tmp_path / "run")])
    assert rc == 0 and "Traceback" not in err.getvalue()
    assert _strict_json(tmp_path / "run" / "manifest.json")["scalars"]["N"] == 16


# 25 examples take about 10 s; the budget is 15 s
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_runs())
def test_settings_table_contract(argv):
    # any point of the settings table ends in exit 0, 1 or 2, never in an
    # uncaught exception.  A run that succeeds writes a parsable manifest
    # with a null error; one that fails numerically leaves no --out (its
    # inputs failed in _prepare) or a manifest whose error is the message
    # on stderr; one refused with exit 1 leaves no --out.  rho's range
    # crosses the weight's overflow bound (11.09 on a default grid, lower on
    # long boxes), and delta's the squared norm's
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        out = Path(tmp) / "run"
        rc = cli.run(argv + ["--out", str(out)])
        assert rc in (0, 1, 2) and "Traceback" not in err.getvalue()
        if rc == 1:
            assert not out.exists()
        elif rc == 0 or out.exists():  # an exit 2 in _prepare makes no --out
            man = _strict_json(out / "manifest.json")
            assert man["subcommand"] == argv[0]
            if rc == 0:
                assert man["error"] is None
            else:  # warnings may precede the message
                assert err.getvalue().endswith(f"numerical failure: {man['error']}\n")
