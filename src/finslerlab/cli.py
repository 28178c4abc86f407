"""Command-line front end.

    finslerlab inspect  --model <path|name> --x 1,0,1 --y 1,1,1 [--orientation +1]
    finslerlab verify   --model <path|name> [--seed N] [--samples N]
                        [--orientation auto|+1|-1] [--format json|csv|table]
                        [--box lo:hi,...] [--out PATH]
    finslerlab geodesic --model <path|name> --x ... --y ... [--t-end T] [--step H]
                        [--which base|hat] [--orientation +1] [--out PATH]

Exit codes: 0 pass, 1 identity failure, 2 domain error, 3 parse/model error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import connections, harness, matsumoto, models
from .core import make_sample
from .errors import (DegenerateMargin, DomainEscape, EvalError,
                     ModelSyntaxError, ModelValidationError, OutsideHatDomain,
                     SingularMetric)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_DOMAIN = 2
EXIT_PARSE = 3


def _reals(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}")


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_box(text: str, dim2: int) -> np.ndarray:
    parts = text.split(",")
    if len(parts) == 1:
        parts = parts * dim2
    if len(parts) != dim2:
        raise ValueError(f"--box needs 1 or {dim2} lo:hi entries, got {len(parts)}")
    rows = []
    for p in parts:
        try:
            lo, hi = (float(v) for v in p.split(":"))
        except ValueError:
            lo = hi = np.nan
        if not -np.inf < lo < hi < np.inf:
            raise ValueError(f"--box entry {p!r} is not lo:hi with finite lo < hi")
        rows.append([lo, hi])
    return np.array(rows)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finslerlab",
        description="Numerical Finsler geometry and metric-change verification")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True,
                        help="model file path or builtin name")
    common.add_argument("--out", default=None, help="write the report here")
    common.add_argument("--format", default="table",
                        choices=("json", "csv", "table"))

    coord_help = "comma-separated reals; use --x=-1,0,... when a value is negative"
    p_inspect = sub.add_parser("inspect", parents=[common],
                               help="dump every object at one tangent point")
    p_inspect.add_argument("--x", required=True, type=_reals, help=coord_help)
    p_inspect.add_argument("--y", required=True, type=_reals, help=coord_help)
    p_inspect.add_argument("--orientation", default="+1", choices=("+1", "-1"))

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the full identity-verification suite")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--samples", type=_count, default=100)
    p_verify.add_argument("--orientation", default="auto",
                          choices=("auto", "+1", "-1"))
    p_verify.add_argument("--box", default=None,
                          help="sampling box, lo:hi per coordinate (comma-separated); "
                               "use --box=-1:1,... when a bound is negative")
    p_verify.add_argument("--tolerance", action="append", default=[],
                          metavar="NAME=VALUE", help="override one identity tolerance")

    p_geo = sub.add_parser("geodesic", parents=[common],
                           help="integrate a geodesic and emit the trajectory CSV")
    p_geo.add_argument("--x", required=True, type=_reals)
    p_geo.add_argument("--y", required=True, type=_reals)
    p_geo.add_argument("--t-end", type=float, default=1.0, dest="t_end")
    p_geo.add_argument("--step", type=float, default=1e-3)
    p_geo.add_argument("--which", default="base", choices=("base", "hat"))
    p_geo.add_argument("--orientation", default="+1", choices=("+1", "-1"))

    return ap


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _inspect_table(dump: dict) -> str:
    buf = io.StringIO()
    buf.write(f"model: {dump['model']}  x={dump['x']}  y={dump['y']}\n")
    for key in ("F", "E", "det_g", "cond_g"):
        buf.write(f"{key:>18}: {dump[key]!r}\n")
    for key in ("g", "ginv", "ell", "hbar", "spray", "nonlinear_connection",
                "cartan_hcoeffs", "cartan_torsion", "berwald", "curvature"):
        buf.write(f"{key}:\n")
        arr = np.array(dump[key])
        buf.write(np.array2string(arr, precision=12, suppress_small=False) + "\n")
    ch = dump.get("change", {})
    buf.write("change:\n")
    for k in sorted(ch):
        buf.write(f"{k:>18}: {ch[k]!r}\n")
    return buf.getvalue()


def cmd_inspect(ns) -> int:
    model = models.load_model(ns.model)
    orientation = 1.0 if ns.orientation == "+1" else -1.0
    dump = harness.inspect_point(model, ns.x, ns.y, orientation)
    if ns.format == "json":
        _emit(json.dumps(dump, sort_keys=True, indent=2) + "\n", ns.out)
    else:
        _emit(_inspect_table(dump), ns.out)
    return EXIT_PASS


def _verify_csv(rep) -> str:
    lines = ["identity,kind,residual,tolerance,status"]
    for r in rep.identities:
        status = {True: "PASS", False: "FAIL", None: r.kind.upper()}[r.passed]
        lines.append(f"{r.name},{r.kind},"
                     f"{'' if r.residual is None else repr(r.residual)},"
                     f"{'' if r.tolerance is None else repr(r.tolerance)},{status}")
    return "\n".join(lines) + "\n"


def cmd_verify(ns) -> int:
    model = models.load_model(ns.model)
    overrides = {}
    for item in ns.tolerance:
        name, _, value = item.partition("=")
        if not value:
            raise ValueError(f"--tolerance needs NAME=VALUE, got {item!r}")
        overrides[name] = float(value)
    cfg = harness.RunConfig(
        samples=ns.samples,
        seed=ns.seed,
        box=None if ns.box is None else _parse_box(ns.box, 2 * model.dim),
        orientation=ns.orientation,
        tolerance_overrides=overrides,
    )
    rep = harness.run_verification(model, cfg)
    if ns.format == "json":
        _emit(rep.to_json(), ns.out)
    elif ns.format == "csv":
        _emit(_verify_csv(rep), ns.out)
    else:
        _emit(rep.to_table(), ns.out)
    return EXIT_PASS if rep.ok else EXIT_FAIL


def cmd_geodesic(ns) -> int:
    model = models.load_model(ns.model)
    s0 = make_sample(model, ns.x, ns.y)
    if ns.which == "hat":
        orientation = 1.0 if ns.orientation == "+1" else -1.0
        energy = matsumoto.HatEnergy(model, orientation)
    else:
        energy = model
    traj = connections.integrate_geodesic(energy, s0, ns.t_end, ns.step)
    buf = io.StringIO()
    traj.write_csv(buf)
    _emit(buf.getvalue(), ns.out)
    if traj.escaped:
        sys.stderr.write(f"trajectory left the domain at t = {traj.exit_time!r}\n")
    return EXIT_PASS


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        if ns.command == "inspect":
            return cmd_inspect(ns)
        if ns.command == "verify":
            return cmd_verify(ns)
        if ns.command == "geodesic":
            return cmd_geodesic(ns)
        raise AssertionError(f"unhandled command {ns.command!r}")
    except (ModelSyntaxError, ModelValidationError, FileNotFoundError) as e:
        sys.stderr.write(f"model error: {e}\n")
        return EXIT_PARSE
    except (DomainEscape, OutsideHatDomain, DegenerateMargin, SingularMetric,
            EvalError, ValueError) as e:
        sys.stderr.write(f"domain error: {e}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
