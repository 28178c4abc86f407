"""In-memory span tracer that wraps finslerlab's public functions from outside.

Nothing in the program is edited: `Tracer.install()` replaces each traced
function or method with a timing wrapper wherever the package binds it (a
function imported by name into another module, or a method aliased inside its
class such as `Jet.__rmul__ = __mul__`, is one object under several names, and
every binding is replaced), and `Tracer.uninstall()` puts the originals back.

Each call opens a frame on a stack.  When it returns, its duration is added to
the parent frame's child time, and its self time (duration minus the time its
children cover) is added to its layer name.  Self times of all layers plus the
root frame's own remainder (`trace.untraced_s`) add up to the traced wall
time; `check_additivity` verifies that.

Spans (name, start, end, parent, self time) are kept in memory for every call
except the three hot leaf layers (`numkit.jet_mul`, `expr.evaluate_float`,
`expr.evaluate_jet`), which run hundreds of thousands of times per operation
and are kept as counts and totals only.  `to_json` returns all of it; the
run writes it out when the traced operation has ended.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

PACKAGE = "finslerlab"

# layer name -> the (module, attribute) or (module, class, attribute) bindings
# it covers; GeometryJets' lazy jet fields are cached properties.
TARGETS = {
    "models.load_model": [("models", "load_model")],
    "expr.evaluate": [("expr", "evaluate")],
    "numkit.jet_space": [("numkit", "JetSpace", "__init__")],
    "numkit.jet_mul": [("numkit", "Jet", "__mul__")],
    "numkit.compose": [("numkit", "Jet", "_compose")],
    "numkit.fd_derivative": [("numkit", "fd_derivative")],
    "core.energy_jet": [("core", "ModelEnergy", "energy_jet")],
    "core.metric_data": [("core", "metric_data")],
    "core.sample_batch": [("core", "sample_batch")],
    "connections.geometry_jets": [("connections", "GeometryJets", "__init__")],
    "connections.geometry_objects": [
        ("connections", "GeometryJets", a) for a in (
            "metric", "metric_inverse", "cartan_torsion", "spray", "nonlinear",
            "berwald", "curvature", "cartan", "g_jets", "ginv_jets",
            "spray_jets", "nonlinear_jets")],
    "connections.concurrency_probe": [("connections", "concurrency_probe")],
    "connections.rk4": [("connections", "integrate_geodesic")],
    "connections.spray_rhs": [("connections", "_spray_rhs")],
    "connections.write_csv": [("connections", "Trajectory", "write_csv")],
    "matsumoto.hat_energy_jet": [("matsumoto", "HatEnergy", "energy_jet")],
    "matsumoto.hat_value": [("matsumoto", "HatEnergy", "f_value"),
                            ("matsumoto", "HatEnergy", "in_domain")],
    "matsumoto.select_orientation": [("matsumoto", "select_orientation")],
    "matsumoto.change_suite": [("matsumoto", "change_identity_suite")],
    "matsumoto.lemma_suite": [("matsumoto", "lemma_identity_suite")],
    "matsumoto.theorem_checks": [
        ("matsumoto", a) for a in (
            "nondegeneracy_scan", "margin_ray_scan", "projective_check",
            "concurrency_obstruction", "rational_decomposition_check")],
    "harness.core_suite": [("harness", "run_core_suite")],
    "harness.fd_suite": [("harness", "run_fd_suite")],
    "harness.geodesic_suite": [("harness", "run_geodesic_suite")],
    "harness.verify": [("harness", "run_verification")],
    "report.render": [("report", "SuiteReport", "to_json")],
}

class Tracer:
    """Wraps the TARGETS of the imported finslerlab and records calls."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []
        self.self_s = collections.defaultdict(float)
        self.incl_s = collections.defaultdict(float)
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self.spans = []            # (id, name, start, end, parent id, self s)
        self.missing = []          # bindings absent from this version
        self._depth = collections.Counter()
        self._restore = []
        self._useful = {}          # (space, y_valid, x_valid) -> constants
        self._mul_totals = [0.0, 0, 0, 0, 0]   # s, calls, pairs, useful, bytes
        self._points = set()
        self._next_id = 1

    # -- installation -----------------------------------------------------

    @staticmethod
    def _modules():
        return [m for k, m in list(sys.modules.items())
                if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]

    def install(self):
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        jet_cls = getattr(mods.get("numkit"), "Jet", None)
        for layer, bindings in TARGETS.items():
            for b in bindings:
                mod = mods.get(b[0])
                owner = mod if len(b) == 2 else getattr(mod, b[1], None)
                attr = b[-1]
                raw = None if owner is None else vars(owner).get(attr)
                if raw is None:
                    self.missing.append(".".join(b))
                    continue
                if isinstance(raw, functools.cached_property):
                    wrapped = functools.cached_property(
                        self._wrapper(layer, raw.func, jet_cls))
                    wrapped.__set_name__(owner, attr)
                    self._replace(owner, attr, raw, wrapped, everywhere=False)
                    continue
                self._replace(owner, attr, raw, self._wrapper(layer, raw, jet_cls),
                              everywhere=len(b) == 2)

    def _replace(self, owner, attr, raw, wrapped, everywhere):
        # every name the same object is bound to: `from .core import
        # metric_data` in other modules, `__rmul__ = __mul__` in a class
        owners = self._modules() if everywhere else [owner]
        for o in owners:
            for k, v in list(vars(o).items()):
                if v is raw:
                    setattr(o, k, wrapped)
                    self._restore.append((o, k, raw))

    def uninstall(self):
        for o, k, raw in reversed(self._restore):
            setattr(o, k, raw)
        self._restore.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrapper(self, layer, fn, jet_cls):
        if layer == "numkit.jet_mul":
            return self._jet_mul_wrapper(fn, jet_cls)
        if layer == "expr.evaluate":
            return self._evaluate_wrapper(fn, jet_cls)
        stack, clock, self_s, calls = self.stack, self.clock, self.self_s, self.calls
        spans, incl_s, depth = self.spans, self.incl_s, self._depth
        after = {
            "core.energy_jet": self._after_energy_jet,
            "core.metric_data": self._after_metric_data,
            "core.sample_batch": self._after_sample_batch,
            "connections.rk4": self._after_rk4,
            "report.render": self._after_render,
        }.get(layer)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = self._next_id
            self._next_id += 1
            depth[layer] += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                own = d - frame[0]
                self_s[layer] += own
                calls[layer] += 1
                depth[layer] -= 1
                if not depth[layer]:   # inclusive time of the outermost call
                    incl_s[layer] += d
                spans.append((sid, layer, t0, t1, parent[1], own))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _evaluate_wrapper(self, fn, jet_cls):
        # hot: counted and timed, but kept as totals rather than spans
        stack, clock, self_s, calls = self.stack, self.clock, self.self_s, self.calls

        def wrapper(ast, xs, *rest, **kwargs):
            name = ("expr.evaluate_jet" if len(xs) and isinstance(xs[0], jet_cls)
                    else "expr.evaluate_float")
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(ast, xs, *rest, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                parent[0] += d
                self_s[name] += d - frame[0]
                calls[name] += 1

        return wrapper

    def _jet_mul_wrapper(self, fn, jet_cls):
        # A product calls nothing traced, so it needs no frame of its own: its
        # time goes straight to the caller's child time.  Per-space constants
        # are looked up once per (space, y_valid, x_valid).
        stack, clock, table = self.stack, self.clock, self._useful
        tot = self._mul_totals

        def wrapper(a, b):
            t0 = clock()
            try:
                result = fn(a, b)
            finally:
                d = clock() - t0
                stack[-1][0] += d
                tot[0] += d
                tot[1] += 1
            if isinstance(b, jet_cls):
                key = (a.space, result.y_valid, result.x_valid)
                per = table.get(key)
                if per is None:
                    per = table[key] = _product_constants(*key)
                tot[2] += per[0]
                tot[3] += per[1]
                tot[4] += per[2]
            return result

        return wrapper

    # -- counters read off arguments and results ----------------------------

    def _after_energy_jet(self, args, result):
        s = args[1]
        self._points.add((s.x.tobytes(), s.y.tobytes()))

    def _after_metric_data(self, args, result):
        if self._depth["connections.rk4"]:
            self.counts["core.metric_data.in_rk4"] += 1

    def _after_sample_batch(self, args, result):
        samples, rejected = result
        self.counts["core.sample_batch.accepted"] += len(samples)
        self.counts["core.sample_batch.draws"] += len(samples) + rejected

    def _after_rk4(self, args, result):
        # one RK4 step per recorded row after the first, plus the step that
        # was attempted and rejected when the trajectory escaped
        self.counts["connections.rk4.steps"] += (
            result.t.shape[0] - 1 + (1 if result.escaped else 0))

    def _after_render(self, args, result):
        self.counts["report.bytes"] += len(result.encode())

    # -- one traced operation ---------------------------------------------

    def run(self, fn, *args, **kwargs):
        """Call fn under the root frame; returns its result."""
        root = [0.0, 0]
        self.stack.append(root)
        self.install()
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self.uninstall()
            self.stack.pop()
            self.wall_s = t1 - t0
            secs, calls, pairs, useful, nbytes = self._mul_totals
            self.self_s["numkit.jet_mul"] += secs
            self.calls["numkit.jet_mul"] += calls
            self.counts["numkit.jet_mul.pairs"] += pairs
            self.counts["numkit.jet_mul.useful_pairs"] += useful
            self.counts["numkit.jet_mul.bytes_computed"] += nbytes
            self.self_s["trace.untraced"] += self.wall_s - root[0]
            self.spans.append((0, "op", t0, t1, None, self.wall_s - root[0]))

    def check_additivity(self) -> float:
        """|sum of self times - traced wall time| / wall time."""
        return abs(sum(self.self_s.values()) - self.wall_s) / self.wall_s

    def metrics(self) -> dict:
        """Per-layer metric values of the traced operation (see README).

        Stage layers (suites, sampling, the concurrency probe, the theorem
        checks) report inclusive time, read from `incl_s`; every other layer
        reports self time, read from `self_s`."""
        c, n, s, i = self.counts, self.calls, self.self_s, self.incl_s
        steps = c["connections.rk4.steps"]
        out = {
            "models.load_model_s": s["models.load_model"],
            "expr.evaluate_float.calls": n["expr.evaluate_float"],
            "expr.evaluate_float_s": s["expr.evaluate_float"],
            "expr.evaluate_jet.calls": n["expr.evaluate_jet"],
            "expr.evaluate_jet_s": s["expr.evaluate_jet"],
            "numkit.jet_space.builds": n["numkit.jet_space"],
            "numkit.jet_space_s": s["numkit.jet_space"],
            "numkit.jet_mul.calls": n["numkit.jet_mul"],
            "numkit.jet_mul_s": s["numkit.jet_mul"],
            "numkit.jet_mul.pairs": c["numkit.jet_mul.pairs"],
            "numkit.jet_mul.bytes_computed": c["numkit.jet_mul.bytes_computed"],
            "numkit.jet_mul.useful_pair_ratio": _ratio(
                c["numkit.jet_mul.useful_pairs"], c["numkit.jet_mul.pairs"]),
            "numkit.compose.calls": n["numkit.compose"],
            "numkit.compose_s": s["numkit.compose"],
            "numkit.fd_derivative.calls": n["numkit.fd_derivative"],
            "numkit.fd_derivative_s": s["numkit.fd_derivative"],
            "core.energy_jet.calls": n["core.energy_jet"],
            "core.energy_jet_s": s["core.energy_jet"],
            "core.energy_jet.points": len(self._points),
            "core.energy_jets_per_point": _ratio(n["core.energy_jet"], len(self._points)),
            "core.metric_data.calls": n["core.metric_data"],
            "core.metric_data_s": s["core.metric_data"],
            "core.sample_batch_s": i["core.sample_batch"],
            "core.sample_batch.draws": c["core.sample_batch.draws"],
            "core.sample_batch.accept_ratio": _ratio(
                c["core.sample_batch.accepted"], c["core.sample_batch.draws"]),
            "connections.geometry_jets.builds": n["connections.geometry_jets"],
            "connections.geometry_objects_s": (s["connections.geometry_jets"]
                                               + s["connections.geometry_objects"]),
            "connections.concurrency_probe_s": i["connections.concurrency_probe"],
            "connections.rk4.steps": steps,
            "connections.rk4_s": s["connections.rk4"],
            "connections.spray_rhs.calls": n["connections.spray_rhs"],
            "connections.spray_rhs_s": s["connections.spray_rhs"],
            "connections.write_csv_s": s["connections.write_csv"],
            "matsumoto.hat_energy_jet.calls": n["matsumoto.hat_energy_jet"],
            "matsumoto.hat_energy_jet_s": s["matsumoto.hat_energy_jet"],
            "matsumoto.hat_value.calls": n["matsumoto.hat_value"],
            "matsumoto.hat_value_s": s["matsumoto.hat_value"],
            "matsumoto.metric_data_per_rk4_step": _ratio(
                c["core.metric_data.in_rk4"], steps),
            "matsumoto.select_orientation_s": i["matsumoto.select_orientation"],
            "matsumoto.change_suite_s": i["matsumoto.change_suite"],
            "matsumoto.lemma_suite_s": i["matsumoto.lemma_suite"],
            "matsumoto.theorem_checks_s": i["matsumoto.theorem_checks"],
            "harness.core_suite_s": i["harness.core_suite"],
            "harness.fd_suite_s": i["harness.fd_suite"],
            "harness.geodesic_suite_s": i["harness.geodesic_suite"],
            "harness.verify_self_s": s["harness.verify"],
            "report.render_s": s["report.render"],
            "report.bytes": c["report.bytes"],
            "trace.untraced_s": s["trace.untraced"],
            "trace.wall_s": self.wall_s,
        }
        return out

    def to_json(self) -> dict:
        names = sorted(set(self.calls) | set(self.self_s))
        return {
            "wall_s": self.wall_s,
            "additivity_error": self.check_additivity(),
            "missing_bindings": self.missing,
            "layers": {k: {"calls": self.calls[k], "self_s": self.self_s[k],
                           "inclusive_s": self.incl_s.get(k)} for k in names},
            "counters": dict(self.counts),
            "span_fields": ["id", "name", "start_s", "end_s", "parent", "self_s"],
            "spans": sorted(self.spans),
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _product_constants(space, y_valid, x_valid):
    """(pairs issued, useful pairs, bytes computed) of one product in `space`
    whose result is valid to (y_valid, x_valid).

    Pairs issued are the entries of the space's product table.  A pair is
    useful when its output multi-index lies within the result's valid orders;
    the rest compute truncation junk.  Bytes are computed from array sizes,
    not measured: per pair, one entry of each of the three index tables, the
    two operand coefficients read, and the two gathered copies and their
    product written and read back once each (8-byte floats); per product, the
    output written.  Cache effects are not counted.
    """
    n = space.n
    idx = space._index_arr
    k = space._mul_k
    ok = (idx[k, n:].sum(axis=1) <= y_valid) & (idx[k, :n].sum(axis=1) <= x_valid)
    index = space._mul_i.itemsize + space._mul_j.itemsize + k.itemsize
    return k.size, int(ok.sum()), k.size * (index + 8 * 8) + space.size * 8
