"""CLI subcommands end to end through main()."""

import json

import numpy as np
import pytest

from surfdg.cli import main
from surfdg.harness import read_vtk_counts


def write_config(tmp_path, **overrides):
    cfg = {"surface": "sphere", "refinements": 1}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_run_writes_csv_and_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    csv = tmp_path / "out.csv"
    assert main(["run", "--config", cfg, "--output-csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "surface=sphere choice=2" in out
    assert "l2_error" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "elements,h,l2_error,l2_eoc,dg_error,dg_eoc"
    assert len(lines) == 3


def test_compare_prints_ratio_table(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["compare", "--config", cfg, "--choices", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "error ratios against Choice 2" in out
    assert "l2(3)/l2(2)" in out


def test_compare_serves_nonsymmetric_choice(tmp_path, capsys):
    # Choice 1 needs BiCGSTAB internally even though the config does not
    # name a solver; the command must not crash
    cfg = write_config(tmp_path)
    assert main(["compare", "--config", cfg, "--choices", "1", "3"]) == 0
    assert "l2(1)/l2(2)" in capsys.readouterr().out


def test_compare_refuses_a_repeated_choice(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["compare", "--config", cfg, "--choices", "1", "1"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: choice 1 is given more than once")


def test_project_reports_point(capsys):
    rc = main(["project", "--surface", "sphere", "--point", "2", "0", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "point      [1.0, 0.0, 0.0]" in out
    assert "iterations 6" in out


def test_project_newton_method(capsys):
    rc = main(["project", "--surface", "dziuk", "--point", "1.1", "0", "0",
               "--method", "newton"])
    assert rc == 0
    assert "method newton" in capsys.readouterr().out


@pytest.mark.parametrize("surface, point, message", [
    ("sphere", ("0", "0", "0"), "critical point of phi"),
    ("dziuk", ("nan", "0", "0"), "phi returned a non-finite value"),
    ("dziuk", ("1e200", "0", "0"), "phi returned a non-finite value")])
def test_project_refuses_a_bad_seed(capsys, surface, point, message):
    """A seed at a critical point or where phi is not finite gives the
    error line and exit code 1, not a traceback."""
    with np.errstate(over="ignore"):
        rc = main(["project", "--surface", surface, "--point", *point])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


def test_project_refuses_a_nan_tol(capsys):
    """A NaN tol used to run every iteration and print "|phi| certified"."""
    rc = main(["project", "--surface", "dziuk", "--point", "1.1", "0", "0",
               "--tol", "nan"])
    assert rc == 1
    out = capsys.readouterr()
    assert out.err == "error: tol must be a positive finite number, got nan\n"
    assert "certified" not in out.out


def test_export_writes_vtk(tmp_path, capsys):
    """``run --output-vtk`` is the one VTK export."""
    cfg = write_config(tmp_path)
    vtk = tmp_path / "solution.vtk"
    assert main(["run", "--config", cfg, "--output-vtk", str(vtk)]) == 0
    assert "l2_error" in capsys.readouterr().out
    # final mesh of a 1-refinement sphere ladder
    assert read_vtk_counts(vtk) == (42, 80)


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, refinments=2)
    assert main(["run", "--config", cfg]) == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("refinements", "1"), ("degree", True), ("sigma", "2.0"),
    ("seed_scale", None), ("tol", True), ("nonconforming", "false"),
    ("surface", 5), ("seed", 3), ("output_csv", 97), ("output_vtk", 2)])
def test_mistyped_config_value_fails(tmp_path, capsys, key, value):
    """A config value of the wrong type gives the error line naming its
    key and exit code 1, not a traceback from inside the ladder."""
    cfg = write_config(tmp_path, **{key: value})
    assert main(["run", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be")


def test_missing_config_file_fails(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_json_fails(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_surface_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, surface="torus")
    assert main(["run", "--config", cfg]) == 1
    assert "unknown" in capsys.readouterr().err


def test_unknown_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2
