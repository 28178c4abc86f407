"""CLI behaviour: commands, formats, exit codes, determinism, report shape."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finslerlab import cli, connections, harness, models

BROKEN_MODEL = """
name = broken
dim = 2
F = y1^2 + y2^2 + 1
phi1 = 0
phi2 = 0
"""


DATA = Path(__file__).parent / "data"


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
    bad.write_text("name = bad\ndim = 2\nF = sqrt(y1^2 + y2^2)\nphi1 = 0\nphi2 = 0\n"
                   "box = 1:0\n")
    capsys.readouterr()
    assert run(["verify", "--model", str(bad)]) == 3
    assert "line 6, col 7: box entry '1:0'" in capsys.readouterr().err


EUCLID_LINES = "name = deep\ndim = 2\nF = {F}\nphi1 = -x1\nphi2 = -x2\ndomain = y1^2 + y2^2\n"
F_EUCLID = "sqrt(y1^2 + y2^2)"


@pytest.mark.parametrize("text, named", [
    pytest.param(EUCLID_LINES.format(F="(" * 250 + F_EUCLID + ")" * 250).encode(),
                 "line 3, col 205: expression nested deeper than 200 levels",
                 id="250-parentheses"),
    pytest.param((EUCLID_LINES.format(F=F_EUCLID) + "F = y1\n").encode(),
                 "line 7, col 1: duplicate F", id="second-F"),
    pytest.param(EUCLID_LINES.format(F=F_EUCLID).encode() + b"# caf\xe9\n",
                 "deep.fmod is not UTF-8 text", id="not-utf8"),
    pytest.param(EUCLID_LINES.format(F=F_EUCLID).replace("dim = 2", "dim = 9").encode(),
                 "line 2, col 7: dim must be between 2 and 8, got 9", id="dim-9"),
    pytest.param(EUCLID_LINES.format(F=F_EUCLID).replace(
                     "dim = 2", "dim = 1000000000000").encode(),
                 "line 2, col 7: dim must be between 2 and 8", id="dim-1e12"),
    pytest.param((EUCLID_LINES.format(F=F_EUCLID) + "param s = nan\n").encode(),
                 "line 7, col 11: parameter 's' needs a finite", id="param-nan"),
    pytest.param((EUCLID_LINES.format(F=F_EUCLID) + "param s = 1e309\n").encode(),
                 "line 7, col 11: parameter 's' needs a finite", id="param-1e309"),
])
@pytest.mark.parametrize("command", [
    ["verify", "--samples", "8"], ["inspect", "--x=0.3,-0.2", "--y=1.1,0.7"]])
def test_bad_model_file_is_a_model_error_naming_its_line(text, named, command,
                                                         tmp_path, capsys):
    p = tmp_path / "deep.fmod"
    p.write_bytes(text)
    assert run([command[0], "--model", str(p), *command[1:]]) == 3
    err = capsys.readouterr().err
    assert err.startswith("model error: line ") and named in err


@pytest.mark.parametrize("F", [
    pytest.param("(" * 190 + F_EUCLID + ")" * 190, id="190-parentheses"),
    pytest.param(F_EUCLID + " + 0" * 900, id="900-terms"),
    pytest.param(F_EUCLID + " + 0" * 5000, id="5000-terms"),
])
def test_nested_model_within_the_limits_inspects(F, tmp_path):
    p = tmp_path / "deep.fmod"
    p.write_text(EUCLID_LINES.format(F=F))
    out = tmp_path / "dump.json"
    assert run(["inspect", "--model", str(p), "--x=0.3,-0.2", "--y=1.1,0.7",
                "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["spray"] == [0.0, 0.0]


def test_renamed_shipped_model_reports_as_the_builtin(tmp_path):
    """Nothing but the model file's content picks the sampling box and the
    closed forms: a renamed copy of a shipped file reports as it does, apart
    from the name."""
    for name in ("euclid_concurrent", "matsumoto_example"):
        copy = tmp_path / "copy.fmod"
        text = (models._data_dir() / "models" / f"{name}.fmod").read_text()
        copy.write_text(text.replace(f"name = {name}", "name = renamed_copy"))
        reports = []
        for ref in (name, str(copy)):
            out = tmp_path / "rep.json"
            run(["verify", "--model", ref, "--samples", "8", "--seed", "4",
                 "--format", "json", "--out", str(out)])
            reports.append(out.read_text())
        assert f'"model": "{name}"' in reports[0]
        assert reports[0].replace(name, "renamed_copy") == reports[1]


def test_verify_broken_model_exits_1(tmp_path, capsys):
    p = tmp_path / "broken.fmod"
    p.write_text(BROKEN_MODEL)
    code = run(["verify", "--model", str(p), "--samples", "8", "--seed", "1",
                "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = [r["name"] for r in out["identities"] if r["passed"] is False]
    assert "metric-homogeneity" in failed


def test_verify_auto_orientation_of_a_zero_field_does_not_depend_on_the_seed(tmp_path,
                                                                            capsys):
    p = tmp_path / "broken.fmod"
    p.write_text(BROKEN_MODEL)
    orientations = set()
    for seed in ("1", "42"):
        run(["verify", "--model", str(p), "--samples", "8", "--seed", seed,
             "--format", "json"])
        orientations.add(json.loads(capsys.readouterr().out)["orientation"])
    assert orientations == {"-1"}


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


@pytest.mark.parametrize("model", ["euclid_concurrent", "matsumoto_example"])
def test_verify_determinism_byte_identical(model, tmp_path):
    """Two runs in one process write the same bytes: no state carried between
    runs changes a report."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = run(["verify", "--model", model, "--samples", "12",
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


def test_verify_rejects_negative_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--model", "euclid_concurrent", "--samples", "1", "--seed=-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "=1"])
def test_verify_rejects_non_finite_or_negative_tolerance(value, capsys):
    """A bad V, or (given as "=V") an empty NAME, fails at parse time."""
    item = value if value.startswith("=") else f"metric-change={value}"
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--model", "euclid_concurrent", "--samples", "1",
             "--tolerance", item])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--tolerance" in err and item in err


OUT_ARGV = {
    "inspect": ["inspect", "--model", "euclid_concurrent", "--x", "0.2,0.1", "--y", "1,0.3"],
    "verify": ["verify", "--model", "euclid_concurrent", "--samples", "3"],
    "geodesic": ["geodesic", "--model", "euclid_concurrent", "--x", "0.2,0.1",
                 "--y", "1,0.3", "--t-end", "0.1", "--step", "0.01"],
}
# the call each command makes before it writes its output
OUT_STAGE = {"inspect": (cli.harness, "inspect_point"),
             "verify": (cli.harness, "run_verification"),
             "geodesic": (cli.connections, "integrate_geodesic")}


@pytest.mark.parametrize("command", sorted(OUT_ARGV))
def test_unwritable_out_exits_2_before_the_run(command, tmp_path, capsys, monkeypatch):
    """An --out in a missing directory, or naming a directory, is rejected at
    parse time, before any model is loaded."""
    monkeypatch.setattr(cli.models, "load_model", None)  # the run must not start
    for out in (tmp_path / "missing" / "x.out", tmp_path):
        with pytest.raises(SystemExit) as exc:
            run([*OUT_ARGV[command], "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--out" in err and str(out) in err


@pytest.mark.parametrize("command", sorted(OUT_ARGV))
def test_out_write_failure_exits_2_naming_out(command, tmp_path, capsys, monkeypatch):
    """A write that fails after the run (here the directory goes away while
    the command runs) exits 2 with a message naming --out, not a model error."""
    folder = tmp_path / "gone"
    folder.mkdir()
    owner, name = OUT_STAGE[command]
    inner = getattr(owner, name)

    def remove_folder_then(*args):
        folder.rmdir()
        return inner(*args)

    monkeypatch.setattr(owner, name, remove_folder_then)
    assert run([*OUT_ARGV[command], "--out", str(folder / "x.out")]) == 2
    assert capsys.readouterr().err.startswith("output error: cannot write --out")


@pytest.mark.parametrize("argv", [
    pytest.param(["inspect", "--x", "0,0", "--y", "1,0", "--format", "csv"],
                 id="inspect-csv"),
    pytest.param(["geodesic", "--x", "0,0", "--y", "1,0", "--format", "json"],
                 id="geodesic-format"),
])
def test_format_only_where_it_applies(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run([argv[0], "--model", "euclid_concurrent", *argv[1:]])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_verify_unknown_tolerance_name_exits_2(tmp_path, capsys):
    code = run(["verify", "--model", "euclid_concurrent", "--samples", "8",
                "--seed", "3", "--format", "json", "--out", str(tmp_path / "rep.json"),
                "--tolerance", "no-such-identity=1", "--tolerance", "metric-change=1",
                "--tolerance", "also-missing=2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no-such-identity" in err and "also-missing" in err
    assert "metric-change" not in err


@pytest.mark.parametrize("model,entry,kind", [
    ("randers_not_concurrent", "almost-rationality", "skipped"),
])
def test_verify_tolerance_override_of_an_entry_without_one_exits_2(
        model, entry, kind, tmp_path, capsys):
    """An entry that carries no tolerance refuses an override, naming the
    entry and its kind, and no report is written.  At this seed the Randers
    control's default box puts no sample inside both hat domains, so its
    almost-rationality entry is skipped."""
    path = str(DATA / f"{model}.fmod")
    rep = harness.run_verification(models.load_model(path),
                                   harness.RunConfig(samples=8, seed=3))
    assert rep.find(entry).kind == kind
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", path, "--samples", "8", "--seed", "3",
                "--format", "json", "--out", str(out), "--tolerance", f"{entry}=1",
                "--tolerance", "metric-change=1"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{entry} ({kind})" in err and "metric-change" not in err
    assert not out.exists()


def test_report_bytes_do_not_depend_on_the_locale(tmp_path):
    """Under the C locale with UTF-8 mode off, stdout is ASCII.  --out still
    writes a non-ASCII model name as UTF-8, and the same report on stdout is
    an output error, not a domain error."""
    model = tmp_path / "cafe.fmod"
    model.write_text("name = café\ndim = 2\nF = sqrt(y1^2 + y2^2)\nphi1 = -x1\n"
                     "phi2 = -x2\ndomain = y1^2 + y2^2\n"
                     "box = -0.75:0.75,-0.75:0.75,0.5:2,0.5:2\n", encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "finslerlab.cli", "verify", "--model", str(model),
            "--samples", "4", "--seed", "1"]
    out = tmp_path / "r.txt"
    done = subprocess.run([*argv, "--out", str(out)], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    assert out.read_bytes().startswith("model: café ".encode("utf-8"))
    done = subprocess.run(argv, env=env, capture_output=True)
    assert done.returncode == 2
    assert done.stderr.startswith(b"output error: cannot write the report to stdout")


def test_verify_obstruction_gates_under_a_zero_tolerance(tmp_path):
    """concurrency-obstruction carries a tolerance like every other entry: at
    0 its roundoff-level residual fails the run."""
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", "euclid_concurrent", "--samples", "8", "--seed", "3",
                "--format", "json", "--out", str(out),
                "--tolerance", "concurrency-obstruction=0"])
    entry = next(r for r in json.loads(out.read_text())["identities"]
                 if r["name"] == "concurrency-obstruction")
    assert code == 1
    assert entry["tolerance"] == 0.0 and entry["residual"] > 0.0 and entry["passed"] is False


def test_report_covers_every_identity_exactly_once(tmp_path):
    out = tmp_path / "rep.json"
    run(["verify", "--model", "matsumoto_example", "--samples", "8",
         "--seed", "2", "--format", "json", "--out", str(out)])
    rep = json.loads(out.read_text())
    names = [r["name"] for r in rep["identities"]]
    assert len(names) == len(set(names))
    expected = set(harness.CORE_TOLERANCES) | set(connections.PROBE_TOLERANCES) | set(
        __import__("finslerlab.matsumoto", fromlist=["x"]).CHANGE_TOLERANCES) | set(
        __import__("finslerlab.matsumoto", fromlist=["x"]).LEMMA_TOLERANCES) | {
        "nondegeneracy-margin-scan", "nondegeneracy-signature", "projective-impossibility",
        "concurrency-obstruction", "almost-rationality",
    }
    assert set(names) == expected
    assert {r["kind"] for r in rep["identities"]} <= {"identity", "skipped"}


@pytest.mark.parametrize("model", ["euclid_concurrent", "matsumoto_example"])
def test_report_bodies_hold_no_numpy_reprs(model):
    """Notes and extras print plain floats: a numpy scalar's repr differs
    between numpy versions and would leak into the byte-pinned report."""
    rep = harness.run_verification(models.builtin_model(model),
                                   harness.RunConfig(samples=8, seed=42))
    assert "np." not in rep.to_json() + rep.to_table()


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


def test_geodesic_cli_names_the_stop_reason(capsys):
    """The seed-7 changed-metric start stops on the first-integral guard, not
    at the domain; stderr says so."""
    code = run(["geodesic", "--model", "matsumoto_example",
                "--x=0.5548324327150851,0.9373017478152068,0.8533551219719229",
                "--y=1.7746496409649863,1.1982643214792568,0.923060004053722",
                "--t-end", "0.4", "--which", "hat"])
    assert code == 0
    assert "stopped (first-integral jump) at t = 0.385" in capsys.readouterr().err


def test_geodesic_rejects_orientation_for_base_flow(capsys):
    """The base flow does not read phi, so a sign for it is refused, not ignored."""
    with pytest.raises(SystemExit) as exc:
        run(["geodesic", "--model", "euclid_concurrent", "--x=0.3,-0.2", "--y=1.1,0.7",
             "--which", "base", "--orientation=-1"])
    assert exc.value.code == 2
    assert "--orientation" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    pytest.param(["--step", "0"], "step", id="zero-step"),
    pytest.param(["--step", "inf"], "step", id="inf-step"),
    pytest.param(["--t-end", "nan"], "t_end", id="nan-t-end"),
    pytest.param(["--t-end", "1e12", "--step", "1"], "t_end/step", id="too-many-steps"),
    pytest.param(["--t-end", "1", "--step", "0.4"], "t_end/step", id="fractional-steps"),
    pytest.param(["--t-end", "0.0004", "--step", "0.001"], "t_end/step", id="under-one-step"),
])
def test_geodesic_bad_step_exits_2(flags, named, capsys):
    assert run(["geodesic", "--model", "euclid_concurrent", "--x", "0,0",
                "--y", "1,0", *flags]) == 2
    assert named in capsys.readouterr().err


OVERFLOW_MODEL = EUCLID_LINES.format(F="sqrt(y1^2 + y2^2)*exp(1000*x1)")


@pytest.mark.parametrize("argv, named", [
    pytest.param(["inspect", "--x=1,0", "--y=1,1"], "overflow at value 1000.0", id="inspect"),
    pytest.param(["geodesic", "--x=1,0", "--y=1,1"], "exp(1000.0) overflows", id="geodesic"),
    pytest.param(["geodesic", "--x=0.7,0", "--y=1,1"], "outside the domain of the metric",
                 id="geodesic-infinite-F"),
    pytest.param(["verify", "--samples", "8"], "the F^2 jet at x=", id="verify"),
])
def test_overflowing_model_is_a_domain_error(argv, named, tmp_path, capsys):
    """exp(1000) overflows a float, and at x1 = 0.7 F^2 overflows to inf:
    each command exits 2 with a one-line domain error and writes no dump."""
    p = tmp_path / "overflow.fmod"
    p.write_text(OVERFLOW_MODEL)
    assert run([argv[0], "--model", str(p), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("domain error: ") and err.count("\n") == 1
    assert named in err


def test_hat_geodesic_started_past_the_fence_exits_2(capsys):
    """At x=(2,0), y=(-1,0) the euclid change has F - Phi = -1: the start is
    outside the changed metric's domain, and the message names it."""
    assert run(["geodesic", "--model", "euclid_concurrent", "--which", "hat",
                "--x=2,0", "--y=-1,0"]) == 2
    assert "x=[2.0, 0.0]" in capsys.readouterr().err


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
    """A constraint that raises (log of x1 <= 0) rejects the point instead of
    ending the run."""
    model = tmp_path / "log_domain.fmod"
    model.write_text(LOG_DOMAIN_MODEL)
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", str(model), "--samples", "8", *box,
                "--format", "json", "--out", str(out)])
    assert code in (0, 1)


def test_verify_with_a_margin_zero_on_the_hat_boundary_reports_the_failing_probe(tmp_path):
    """With phi constant on a flat metric the margin is 3 (F - Phi), so its
    zero lies where ghat is undefined: no census sample is predicted
    indefinite, and the run reports the failing probe instead of ending with
    exit 2."""
    model = tmp_path / "shifted.fmod"
    model.write_text("name = shifted\ndim = 2\nF = sqrt(y1^2 + y2^2)\n"
                     "phi1 = 1\nphi2 = 0\ndomain = y1^2 + y2^2\n")
    out = tmp_path / "rep.json"
    code = run(["verify", "--model", str(model), "--samples", "8",
                "--format", "json", "--out", str(out)])
    assert code == 1
    res = {r["name"]: r for r in json.loads(out.read_text())["identities"]}
    signature = res["nondegeneracy-signature"]
    assert signature["passed"] and signature["n_samples"] > 0
    assert signature["note"].startswith("samples predicted indefinite: 0 with margin <= 0")
    assert res["concurrency-probe"]["passed"] is False


GOLDEN = DATA


@pytest.mark.parametrize("argv, golden", [
    pytest.param(["inspect", "--model", "matsumoto_example", "--x=1,0,1", "--y=1,1,1",
                  "--orientation=-1", "--format", "json"],
                 "inspect_matsumoto_example_P0_orient-1.json", id="inspect"),
    pytest.param(["geodesic", "--model", "matsumoto_example", "--which", "hat",
                  "--x=1,0,1", "--y=1,1,1", "--orientation=-1", "--t-end", "0.05",
                  "--step", "1e-3"],
                 "geodesic_hat_matsumoto_example_P0_orient-1.csv", id="geodesic-hat"),
    pytest.param(["geodesic", "--model", "matsumoto_example", "--which", "base",
                  "--x=1,0,1", "--y=1,1,1", "--t-end", "0.05", "--step", "1e-3"],
                 "geodesic_base_matsumoto_example_P0.csv", id="geodesic-base"),
    # flat model: its 42 exact zeros (C = 0, N = 0, ...) print a slipped sign as -0.0
    pytest.param(["inspect", "--model", "euclid_concurrent", "--x=0.3,-0.2",
                  "--y=1.1,0.7", "--orientation=-1", "--format", "json"],
                 "inspect_euclid_concurrent_orient-1.json", id="inspect-flat"),
])
def test_hat_side_output_matches_golden(argv, golden, tmp_path):
    """The changed-metric dumps and trajectories are pinned byte for byte."""
    out = tmp_path / golden
    assert run([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# SHA-256 of the full changed-metric geodesic from the criterion-9 start
# (1,000 RK4 steps, 138,977 bytes of CSV), the benchmark's geodesic-hat run
GEODESIC_HAT_SHA256 = "1f11cc4f6c56fe114b7d3dbde222c611cad02baa3fbb2871b78c45829e714b92"


def test_full_hat_geodesic_output_is_pinned(capsys):
    """Every bit of the 1,001-row trajectory is pinned, the last rows too."""
    assert run(["geodesic", "--model", "matsumoto_example", "--which", "hat",
                "--orientation=-1", "--x=1.0,0.0,1.0", "--y=1.0,1.0,1.0",
                "--t-end", "1.0", "--step", "0.001"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 138977
    assert hashlib.sha256(out).hexdigest() == GEODESIC_HAT_SHA256
