"""The benchmark's workloads: the command each operation runs, and the checks
on its output.

Every operation goes through `finslerlab.cli.main`, the function the
`finslerlab` console script calls, with standard output captured in memory.
The checks compare against values computed apart from the jet engine (closed
forms, plain float arithmetic done here) or against properties the method must
have; none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re

import numpy as np

FLAT = "euclid_concurrent"
CONIC = "matsumoto_example"
SAMPLES = 100

# criterion-9 start of the changed-metric geodesic on the example model
GEO_X = (1.0, 0.0, 1.0)
GEO_Y = (1.0, 1.0, 1.0)
GEO_ORIENTATION = -1.0
GEO_T_END = 1.0
GEO_STEP = 1e-3
GEO_ROWS = 1001
DRIFT_PER_UNIT_TIME = 1e-6   # the verify gate for geodesic first integrals

FLAT_POINTS = 3              # seeded inspection points on the flat model
FLAT_TOL = 1e-12             # the fixture tolerance of the flat model


def call(main, argv):
    """Run the CLI in-process; returns (exit code or exception name, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # noqa: BLE001 - recorded as a failed operation
            code = type(e).__name__
    return code, out.getvalue(), err.getvalue()


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


class Workload:
    """One workload: its model, the argv of one operation, and its checks."""

    def __init__(self, name, model):
        self.name = name
        self.model = model

    def argv(self, seed: int) -> list:
        raise NotImplementedError

    def check_output(self, out: str, err: str) -> list:
        """Problems with one operation's output (empty when it is correct)."""
        raise NotImplementedError

    def check_extra(self, main, models, seed: int, out: str) -> list:
        """Checks that need further CLI calls; run once, outside the timing."""
        return []


class Verify(Workload):
    def argv(self, seed):
        return ["verify", "--model", self.model, "--samples", str(SAMPLES),
                "--seed", str(seed), "--orientation", "auto", "--format", "json"]

    def check_output(self, out, err):
        try:
            rep = json.loads(out)
        except ValueError as e:
            return [f"report is not JSON: {e}"]
        names = [r["name"] for r in rep["identities"]]
        problems = [f"identity listed {names.count(n)} times: {n}"
                    for n in sorted(set(names)) if names.count(n) > 1]
        problems += [f"identity {r['name']} did not pass (residual {r['residual']!r})"
                     for r in rep["identities"]
                     if r["kind"] == "identity" and r["passed"] is not True]
        if not rep.get("ok"):
            problems.append("report says ok = false")
        return problems

    def check_extra(self, main, models, seed, out):
        orientation = json.loads(out)["orientation"]
        if self.model == FLAT:
            return _check_flat(main, models, seed, orientation)
        return _check_conic_p0(main, models)


class GeodesicHat(Workload):
    def argv(self, seed):
        # the start is the fixed criterion-9 point; the seed does not enter
        return ["geodesic", "--model", self.model, "--which", "hat",
                f"--orientation={GEO_ORIENTATION:+.0f}", f"--x={_csv(GEO_X)}",
                f"--y={_csv(GEO_Y)}", "--t-end", repr(GEO_T_END),
                "--step", repr(GEO_STEP)]

    def check_output(self, out, err):
        lines = out.splitlines()
        if err.strip():
            return [f"stderr not empty: {err.strip()[:200]}"]
        head = lines[0].split(",") if lines else []
        if head != ["t", "x1", "x2", "x3", "y1", "y2", "y3", "F"]:
            return [f"unexpected CSV header {head}"]
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        problems = []
        if rows.shape[0] != GEO_ROWS:
            problems.append(f"{rows.shape[0]} rows, expected {GEO_ROWS}")
        if not np.all(np.isfinite(rows)):
            problems.append("non-finite value in the trajectory")
            return problems
        if abs(rows[-1, 0] - GEO_T_END) > 1e-12:
            problems.append(f"trajectory stops at t = {rows[-1, 0]!r}")
        if list(rows[0, :7]) != [0.0, *GEO_X, *GEO_Y]:
            problems.append(f"first row {rows[0, :7].tolist()} is not the input")
        F = rows[:, 7]
        drift = float(np.max(np.abs(F - F[0])) / abs(F[0])) / max(rows[-1, 0], 1e-300)
        if not drift <= DRIFT_PER_UNIT_TIME:
            problems.append(f"F drifts by {drift!r} per unit time")
        return problems

    def check_extra(self, main, models, seed, out):
        # Fhat(0) = F^2/(F - Phi) from the closed-form g and Phi at P0
        ref = fixture_values(models, CONIC, "P0")
        if tuple(ref["x"]) != GEO_X or tuple(ref["y"]) != GEO_Y:
            return ["fixture point P0 is not the geodesic start"]
        v = ref["values"]
        g = np.array([[v["g11"], v["g12"], v["g13"]],
                      [v["g12"], v["g22"], v["g23"]],
                      [v["g13"], v["g23"], v["g33"]]])
        y = np.array(GEO_Y)
        F = math.sqrt(float(y @ g @ y))
        Phi = GEO_ORIENTATION * v["Phi"]   # fixture Phi is for orientation +1
        want = F * F / (F - Phi)
        got = float(out.splitlines()[1].split(",")[-1])
        if abs(got - want) > 1e-12 * abs(want):
            return [f"F(0) = {got!r}, closed form gives {want!r}"]
        return []


def fixture_values(models, model, label):
    """One point of the fixture table, regenerated from the closed forms."""
    vals, x, y = {}, None, None
    for line in models.fixture_table().splitlines():
        parts = line.split()
        if line.startswith("#") or parts[:2] != [model, label]:
            continue
        x = [float(t) for t in parts[2].split(",")]
        y = [float(t) for t in parts[3].split(",")]
        vals[parts[4]] = float(parts[5])
        tol = float(parts[6])
    if not vals:
        raise LookupError(f"no fixture rows for {model} {label}")
    return {"x": x, "y": y, "values": vals, "tolerance": tol}


_COMPONENT = re.compile(r"^(ginv|g|C|Gamma|G)([1-9]+)$")
_DUMP_KEY = {"g": "g", "ginv": "ginv", "C": "cartan_torsion",
             "Gamma": "cartan_hcoeffs", "G": "spray"}


def _inspect(main, model, x, y, orientation):
    code, out, err = call(main, ["inspect", "--model", model, f"--x={_csv(x)}",
                                 f"--y={_csv(y)}", f"--orientation={orientation}",
                                 "--format", "json"])
    if code != 0:
        raise RuntimeError(f"inspect exited {code}: {err.strip()[:200]}")
    return json.loads(out)


def _check_conic_p0(main, models):
    ref = fixture_values(models, CONIC, "P0")
    dump = _inspect(main, CONIC, ref["x"], ref["y"], "+1")
    tol = ref["tolerance"]
    problems, compared = [], set()
    for name, want in sorted(ref["values"].items()):
        m = _COMPONENT.match(name)
        if m:
            got = dump[_DUMP_KEY[m.group(1)]]
            for i in m.group(2):
                got = got[int(i) - 1]
        elif name in ("Phi", "p2"):
            got = dump["change"][name]
        else:
            continue  # theta, a_ij: the factored form, which inspect does not print
        compared.add(m.group(1) if m else name)
        if abs(got - want) > tol * max(1.0, abs(want)):
            problems.append(f"inspect P0 {name} = {got!r}, closed form {want!r}")
    if compared != {"g", "ginv", "C", "Gamma", "G", "Phi", "p2"}:
        problems.append(f"P0 comparison covered only {sorted(compared)}")
    return problems


def _check_flat(main, models, seed, orientation):
    """At seeded points: g = I, G = N = R = 0, and Fhat = |y|^2/(|y| - Phi)
    with Phi = -o (x . y) computed here."""
    o = float(orientation)
    model = models.load_model(FLAT)
    box = models.default_box(model)
    rng = np.random.default_rng([seed, 1])
    problems, found = [], 0
    while found < FLAT_POINTS:
        p = box[:, 0] + rng.random(box.shape[0]) * (box[:, 1] - box[:, 0])
        x, y = p[:2], p[2:]
        F = float(np.hypot(*y))
        Phi = -o * float(x @ y)
        margin = F * (1 + 2 * float(x @ x)) - 3 * Phi
        if F - Phi < 0.25 * F or abs(margin) < 0.1 * F:
            continue   # keep clear of the hat-domain boundary and degeneracy
        found += 1
        dump = _inspect(main, FLAT, x, y, orientation)
        checks = {
            "g - I": np.array(dump["g"]) - np.eye(2),
            "spray": dump["spray"],
            "nonlinear_connection": dump["nonlinear_connection"],
            "curvature": dump["curvature"],
        }
        for name, arr in checks.items():
            worst = float(np.max(np.abs(arr)))
            if not worst <= FLAT_TOL:
                problems.append(f"flat {name} = {worst!r} at x={x.tolist()}, y={y.tolist()}")
        want = F * F / (F - Phi)
        got = dump["change"].get("Fhat")
        if got is None or abs(got - want) > FLAT_TOL * want:
            problems.append(f"flat Fhat = {got!r}, expected {want!r} "
                            f"at x={x.tolist()}, y={y.tolist()}")
    return problems


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w for w in (
        Verify("verify-flat", FLAT),
        Verify("verify-conic", CONIC),
        GeodesicHat("geodesic-hat", CONIC),
    )
}
