"""Command-line front end.

    finslerlab inspect  --model <path|name> --x 1,0,1 --y 1,1,1 [--orientation +1]
                        [--format json|table] [--out PATH]
    finslerlab verify   --model <path|name> [--seed N] [--samples N]
                        [--orientation auto|+1|-1] [--format json|csv|table]
                        [--box lo:hi,...] [--tolerance NAME=V] [--out PATH]
    finslerlab geodesic --model <path|name> --x ... --y ... [--t-end T] [--step H]
                        [--which base | --which hat [--orientation +1|-1]]
                        [--out PATH]

Exit codes: 0 pass, 1 identity failure, 2 domain or usage error (a bad flag
value, an --out that cannot be written), 3 parse/model error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

import numpy as np

from . import connections, expr, harness, matsumoto, models
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


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value
    return parse


def _tolerance(text: str) -> tuple:
    """NAME=V with a non-empty NAME and V a finite real >= 0."""
    name, _, value = text.partition("=")
    try:
        tol = float(value)
    except ValueError:
        tol = np.nan
    if not name or not 0.0 <= tol < np.inf:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not NAME=V with a non-empty NAME and a finite V >= 0")
    return name, tol


def _out_path(text: str) -> str:
    """A file path in an existing, writable directory, checked before the run."""
    folder = os.path.dirname(text) or "."
    if os.path.isdir(text):
        problem = "it is a directory"
    elif not os.path.isdir(folder):
        problem = f"no directory {folder!r}"
    elif not os.access(folder, os.W_OK):
        problem = f"directory {folder!r} is not writable"
    else:
        return text
    raise argparse.ArgumentTypeError(f"cannot write {text!r}: {problem}")


class OutputError(Exception):
    """The report could not be written to --out."""


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finslerlab",
        description="Numerical Finsler geometry and metric-change verification")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True,
                        help="model file path or builtin name")
    common.add_argument("--out", default=None, type=_out_path,
                        help="write the report here")

    coord_help = "comma-separated reals; use --x=-1,0,... when a value is negative"
    p_inspect = sub.add_parser("inspect", parents=[common],
                               help="dump every object at one tangent point")
    p_inspect.add_argument("--x", required=True, type=_reals, help=coord_help)
    p_inspect.add_argument("--y", required=True, type=_reals, help=coord_help)
    p_inspect.add_argument("--orientation", default="+1", choices=("+1", "-1"))
    p_inspect.add_argument("--format", default="table", choices=("json", "table"))

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the full identity-verification suite")
    p_verify.add_argument("--seed", type=_int_at_least(0), default=42)
    p_verify.add_argument("--samples", type=_int_at_least(1), default=100)
    p_verify.add_argument("--orientation", default="auto",
                          choices=("auto", "+1", "-1"),
                          help="sign applied to phi; auto takes the one under which "
                               "the concurrency probe measures nabla phi = -identity")
    p_verify.add_argument("--format", default="table", choices=("json", "csv", "table"))
    p_verify.add_argument("--box", default=None,
                          help="sampling box, lo:hi per coordinate (comma-separated); "
                               "use --box=-1:1,... when a bound is negative")
    p_verify.add_argument("--tolerance", action="append", default=[], type=_tolerance,
                          metavar="NAME=V", help="override one identity tolerance")

    p_geo = sub.add_parser("geodesic", parents=[common],
                           help="integrate a geodesic and emit the trajectory CSV")
    p_geo.add_argument("--x", required=True, type=_reals)
    p_geo.add_argument("--y", required=True, type=_reals)
    p_geo.add_argument("--t-end", type=float, default=1.0, dest="t_end")
    p_geo.add_argument("--step", type=float, default=1e-3)
    p_geo.add_argument("--which", default="base", choices=("base", "hat"))
    p_geo.add_argument("--orientation", choices=("+1", "-1"),
                       help="sign of phi for --which hat (default +1)")

    return ap


def _emit(text: str, out_path):
    """Write `text` to --out as UTF-8, whatever the locale, or to stdout."""
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise OutputError(f"cannot write --out {out_path!r}: {e}") from e
    else:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as e:
            raise OutputError(f"cannot write the report to stdout ({e}); "
                              f"--out writes UTF-8") from e


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
        lines.append(f"{r.name},{r.kind},"
                     f"{'' if r.residual is None else repr(r.residual)},"
                     f"{'' if r.tolerance is None else repr(r.tolerance)},{r.status}")
    return "\n".join(lines) + "\n"


def cmd_verify(ns) -> int:
    model = models.load_model(ns.model)
    cfg = harness.RunConfig(
        samples=ns.samples,
        seed=ns.seed,
        box=None if ns.box is None else np.array(expr.parse_box(ns.box, 2 * model.dim, "--box")),
        orientation=ns.orientation,
        tolerance_overrides=dict(ns.tolerance),
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
        orientation = -1.0 if ns.orientation == "-1" else 1.0
        energy = matsumoto.HatEnergy(model.oriented(orientation))
    else:
        energy = model
    traj = connections.integrate_geodesic(energy, s0, ns.t_end, ns.step)
    buf = io.StringIO()
    traj.write_csv(buf)
    _emit(buf.getvalue(), ns.out)
    if traj.escaped:
        sys.stderr.write(f"trajectory stopped ({traj.escape_reason}) at t = {traj.exit_time!r}\n")
    return EXIT_PASS


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    if ns.command == "geodesic" and ns.which == "base" and ns.orientation is not None:
        ap.error("--orientation applies only to --which hat")
    try:
        if ns.command == "inspect":
            return cmd_inspect(ns)
        if ns.command == "verify":
            return cmd_verify(ns)
        if ns.command == "geodesic":
            return cmd_geodesic(ns)
        raise AssertionError(f"unhandled command {ns.command!r}")
    except OutputError as e:
        sys.stderr.write(f"output error: {e}\n")
        return EXIT_DOMAIN
    except (ModelSyntaxError, ModelValidationError, FileNotFoundError) as e:
        sys.stderr.write(f"model error: {e}\n")
        return EXIT_PARSE
    except (DomainEscape, OutsideHatDomain, DegenerateMargin, SingularMetric,
            EvalError, ValueError) as e:
        sys.stderr.write(f"domain error: {e}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
