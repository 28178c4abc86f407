"""CLI behaviour: commands, formats, exit codes, determinism, report shape."""

import json

import numpy as np
import pytest

from finslerlab import cli, harness

BROKEN_MODEL = """
name = broken
dim = 2
F = y1^2 + y2^2 + 1
phi1 = 0
phi2 = 0
"""


def run(argv):
    return cli.main(argv)


def test_inspect_example_p0(capsys, tmp_path):
    code = run(["inspect", "--model", "matsumoto_example",
                "--x", "1,0,1", "--y", "1,1,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "7." in out and "matsumoto_example" in out
    # change scalars at the printed orientation
    assert "6.4868" in out.replace("'", "")

    out_json = tmp_path / "p0.json"
    code = run(["inspect", "--model", "matsumoto_example", "--x", "1,0,1",
                "--y", "1,1,1", "--format", "json", "--out", str(out_json)])
    assert code == 0
    dump = json.loads(out_json.read_text())
    assert dump["g"][0][0] == pytest.approx(7.0)
    assert dump["spray"][1] == pytest.approx(1.0)
    assert dump["cartan_hcoeffs"][0][0][2] == pytest.approx(1.0)
    assert dump["change"]["margin"] == pytest.approx(6.486832980505138)


def test_inspect_euclid_flat(capsys):
    code = run(["inspect", "--model", "euclid_concurrent", "--x", "0,0",
                "--y", "1,0", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert np.allclose(out["g"], np.eye(2))
    assert np.allclose(out["nonlinear_connection"], 0.0)
    assert out["change"]["Fhat"] == pytest.approx(1.0)


@pytest.mark.parametrize("x, y, named", [
    pytest.param("1,0,1", "0,0,0", "", id="zero-direction"),
    pytest.param("nan,0,1", "1,1,1", "x1", id="nan-x"),
    pytest.param("1,0,1", "1,inf,1", "y2", id="inf-y"),
])
def test_inspect_zero_direction_exits_2(x, y, named, capsys):
    code = run(["inspect", "--model", "matsumoto_example", f"--x={x}", f"--y={y}"])
    assert code == 2
    assert named in capsys.readouterr().err


def test_parse_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.fmod"
    bad.write_text("name = bad\ndim = 2\nF = sqrt(\nphi1 = 0\nphi2 = 0\n")
    assert run(["verify", "--model", str(bad)]) == 3
    missing = tmp_path / "missing.fmod"
    assert run(["verify", "--model", str(missing)]) == 3


def test_verify_broken_model_exits_1(tmp_path, capsys):
    p = tmp_path / "broken.fmod"
    p.write_text(BROKEN_MODEL)
    code = run(["verify", "--model", str(p), "--samples", "8", "--seed", "1",
                "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = [r["name"] for r in out["identities"] if r["passed"] is False]
    assert "metric-homogeneity" in failed


def test_verify_good_model_small_run(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", "euclid_concurrent", "--samples", "16",
                "--seed", "3", "--format", "json", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["ok"] is True
    assert rep["orientation"] == "+1"
    names = [r["name"] for r in rep["identities"]]
    assert len(names) == len(set(names))


def test_verify_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = run(["verify", "--model", "euclid_concurrent", "--samples", "12",
                    "--seed", "42", "--format", "json", "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_csv_format(tmp_path):
    out = tmp_path / "rep.csv"
    code = run(["verify", "--model", "euclid_concurrent", "--samples", "10",
                "--seed", "3", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "identity,kind,residual,tolerance,status"
    assert any(line.startswith("metric-change,") for line in lines)


def test_verify_orientation_flag_and_tolerance_override(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", "matsumoto_example", "--samples", "8",
                "--seed", "5", "--orientation", "+1", "--format", "json",
                "--out", str(out)])
    rep = json.loads(out.read_text())
    assert code == 1  # printed sign fails the horizontal laws
    assert rep["orientation"] == "+1"
    failed = {r["name"] for r in rep["identities"] if r["passed"] is False}
    assert "spray-change" in failed and "metric-change" not in failed


def test_verify_tolerance_override_can_force_failure(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", "euclid_concurrent", "--samples", "8",
                "--seed", "3", "--format", "json", "--out", str(out),
                "--tolerance", "metric-change=1e-300"])
    rep = json.loads(out.read_text())
    assert code == 1
    bad = [r for r in rep["identities"] if r["name"] == "metric-change"][0]
    assert bad["passed"] is False and bad["tolerance"] == 1e-300


@pytest.mark.parametrize("count", ["0", "-3", "many"])
def test_verify_rejects_sample_counts_below_one(count, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--model", "euclid_concurrent", f"--samples={count}"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_verify_unknown_tolerance_name_exits_2(tmp_path, capsys):
    code = run(["verify", "--model", "euclid_concurrent", "--samples", "8",
                "--seed", "3", "--format", "json", "--out", str(tmp_path / "rep.json"),
                "--tolerance", "no-such-identity=1", "--tolerance", "metric-change=1",
                "--tolerance", "also-missing=2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no-such-identity" in err and "also-missing" in err
    assert "metric-change" not in err


def test_report_covers_every_identity_exactly_once(tmp_path):
    out = tmp_path / "rep.json"
    run(["verify", "--model", "matsumoto_example", "--samples", "8",
         "--seed", "2", "--format", "json", "--out", str(out)])
    rep = json.loads(out.read_text())
    names = [r["name"] for r in rep["identities"]]
    assert len(names) == len(set(names))
    expected = set(harness.CORE_TOLERANCES) | set(
        __import__("finslerlab.matsumoto", fromlist=["x"]).CHANGE_TOLERANCES) | set(
        __import__("finslerlab.matsumoto", fromlist=["x"]).LEMMA_TOLERANCES) | {
        "vertical-berwald-invariance", "nondegeneracy-margin-scan",
        "nondegeneracy-ray-profile", "projective-impossibility",
        "concurrency-obstruction", "rational-decomposition-base",
        "rational-decomposition-hat",
    }
    assert set(names) == expected


def test_geodesic_cli_straight_line(capsys):
    code = run(["geodesic", "--model", "euclid_concurrent", "--x", "0,0",
                "--y", "1,0", "--t-end", "0.5", "--step", "0.1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "t,x1,x2,y1,y2,F"
    last = [float(v) for v in out[-1].split(",")]
    assert last[0] == pytest.approx(0.5) and last[1] == pytest.approx(0.5)
    assert last[-1] == pytest.approx(1.0)


def test_geodesic_cli_hat_route(tmp_path):
    out = tmp_path / "traj.csv"
    code = run(["geodesic", "--model", "euclid_concurrent", "--x", "0.2,0.1",
                "--y", "1,0.3", "--t-end", "0.5", "--step", "0.01",
                "--which", "hat", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    F = [float(r.split(",")[-1]) for r in rows[1:]]
    assert max(abs(v - F[0]) for v in F) / F[0] <= 1e-6


@pytest.mark.parametrize("flags, named", [
    pytest.param(["--step", "0"], "step", id="zero-step"),
    pytest.param(["--step", "inf"], "step", id="inf-step"),
    pytest.param(["--t-end", "nan"], "t_end", id="nan-t-end"),
    pytest.param(["--t-end", "1e12", "--step", "1"], "t_end/step", id="too-many-steps"),
])
def test_geodesic_bad_step_exits_2(flags, named, capsys):
    assert run(["geodesic", "--model", "euclid_concurrent", "--x", "0,0",
                "--y", "1,0", *flags]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("box", ["1:2:3", "2:1", "0:inf", "a:1", "0:1,0:1"])
def test_verify_bad_box_exits_2(box, capsys):
    assert run(["verify", "--model", "euclid_concurrent", "--samples", "1",
                f"--box={box}"]) == 2
    assert "--box" in capsys.readouterr().err


LOG_DOMAIN_MODEL = """
name = log_domain
dim = 2
F = sqrt(y1^2 + y2^2)
phi1 = -x1
phi2 = -x2
domain = y1^2 + y2^2
domain = log(x1)
"""


@pytest.mark.parametrize("box", [
    pytest.param([], id="default-box"),
    pytest.param(["--box=-2:3,-1:1,0.5:2,0.5:2"], id="custom-box"),
])
def test_verify_model_with_unevaluable_domain_runs(box, tmp_path):
    """A constraint that raises (log of x1 <= 0) rejects the point, and ray-scan
    base points outside the domain are skipped instead of ending the run."""
    model = tmp_path / "log_domain.fmod"
    model.write_text(LOG_DOMAIN_MODEL)
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", str(model), "--samples", "8", *box,
                "--format", "json", "--out", str(out)])
    assert code in (0, 1)
    ray = {r["name"]: r for r in json.loads(out.read_text())["identities"]}[
        "nondegeneracy-ray-profile"]
    assert ray["kind"] == "skipped" and "outside the model domain" in ray["note"]
