"""CLI: config parsing, validation, artifacts, exit codes, determinism."""
import csv
import json
from pathlib import Path

import pytest

from epsoliton import cli


# ------------------------------------------------------------------- config

def test_load_config_empty_gives_defaults(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("# nothing but a comment\n\n")
    assert cli.load_config(f) == cli._DEFAULTS


def test_load_config_parses_types_and_comments(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("eps = 0.1   # sweep point\nN=256\nshape=odd\n")
    v = cli.load_config(f)
    assert v["eps"] == 0.1 and isinstance(v["eps"], float)
    assert v["N"] == 256 and isinstance(v["N"], int)
    assert v["shape"] == "odd"
    assert v["K"] == cli._DEFAULTS["K"]


def test_load_config_rejects_unknown_key(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("epsilon=0.1\n")
    with pytest.raises(cli.ValidationError):
        cli.load_config(f)


def test_load_config_rejects_bad_syntax_and_value(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("eps 0.1\n")
    with pytest.raises(cli.ValidationError):
        cli.load_config(f)
    f.write_text("eps=banana\n")
    with pytest.raises(cli.ValidationError):
        cli.load_config(f)


def test_validate_weight_scale_ordering():
    v = dict(cli._DEFAULTS)
    v["A"], v["B"] = 50.0, 10.0        # A < B^2
    with pytest.raises(cli.ValidationError):
        cli.validate(v)


def test_validate_shape():
    v = dict(cli._DEFAULTS)
    v["shape"] = "banana"
    with pytest.raises(cli.ValidationError):
        cli.validate(v)


# --------------------------------------------------------------- exit codes

def test_evolve_rejects_negative_eps(tmp_path, capsys):
    rc = cli.run(["evolve", "--out", str(tmp_path / "r"), "--eps", "-0.1"])
    assert rc == 1
    assert "eps must be positive" in capsys.readouterr().err


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
    for f in man["outputs"]:
        assert Path(f).exists()
    assert man["scalars"]["c"] > 1.0
    prof = json.loads((out / "profile.json").read_text())
    assert abs(prof["c"] - (2.0 ** 0.5 + 0.1)) < 1e-12
    # every cell of the CSV parses as a plain number
    with open(out / "profile.csv", newline="") as f:
        header, *rows = list(csv.reader(f))
    assert header == ["x", "n", "u", "phi", "psi", "dn", "du"]
    assert len(rows) == 256
    values = [[float(v) for v in row] for row in rows]
    assert all(len(row) == 7 for row in values)
    assert values[128][0] == 0.0 and values[128][1] > 0.0   # x = 0, the peak


def test_out_dir_collision_without_force(tmp_path, capsys):
    out = tmp_path / "run"
    args = ["profile", "--out", str(out), "--eps", "0.1", "--L", "60",
            "--N", "256"]
    assert cli.run(args) == 0
    assert cli.run(args) == 1
    assert "not empty" in capsys.readouterr().err
    assert cli.run(args + ["--force"]) == 0


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
    out = tmp_path / "runs" / "p"
    assert cli.run(["profile", "--out", str(out), "--eps", "0.1",
                    "--L", "60", "--N", "256"]) == 0
    rc = cli.run(["report", "--out", str(tmp_path / "runs")])
    assert rc == 0
    summary = json.loads((tmp_path / "runs" / "report.json").read_text())
    assert len(summary) == 1
    assert summary[0]["subcommand"] == "profile"


def test_report_empty_tree_fails(tmp_path, capsys):
    (tmp_path / "runs").mkdir()
    rc = cli.run(["report", "--out", str(tmp_path / "runs")])
    assert rc == 1


def test_evans_bad_segment(tmp_path, capsys):
    rc = cli.run(["evans", "--out", str(tmp_path / "r"), "--eps", "0.1",
                  "--segment", "nonsense"])
    assert rc == 1
    assert "segment" in capsys.readouterr().err


def test_evolve_writes_invariants(tmp_path):
    out = tmp_path / "run"
    rc = cli.run(["evolve", "--out", str(out), "--eps", "0.1", "--T", "2",
                  "--n_saves", "3", "--delta", "0"])
    assert rc == 0
    man = json.loads((out / "manifest.json").read_text())
    sc = man["scalars"]
    assert man["verdicts"]["conserved"] is True, \
        f"rel_dE = {sc['rel_dE']:.3g} (bound 1e-6), rel_dM = {sc['rel_dM']:.3g} (bound 1e-8)"
    text = (out / "invariants.csv").read_text()
    assert text.splitlines()[0] == "t,name,value"
    assert ",E," in text and ",M," in text


# ------------------------------------------------------------------- grids

def _cfg(**overrides):
    values = dict(cli._DEFAULTS, eps=0.1)
    values.update(overrides)
    return cli.RunConfig(subcommand="profile", out="unused", values=values)


def test_partial_grid_override_follows_default_rule():
    from epsoliton.grid import default_grid
    full = default_grid(0.1)
    only_L = cli._grid_of(_cfg(L=full.L))
    assert (only_L.L, only_L.N) == (full.L, full.N)
    only_N = cli._grid_of(_cfg(N=256))
    assert (only_N.L, only_N.N) == (full.L, 256)
    both = cli._grid_of(_cfg(L=60.0, N=256))
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
