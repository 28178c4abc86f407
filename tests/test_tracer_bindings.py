"""The benchmark tracer binds program names; each one must still exist, and
the arguments and results its counters read must keep their shapes."""

import functools
import importlib.util
from pathlib import Path

from finslerlab import cli  # imports every module the tracer binds

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_binding_resolves():
    """Looks each TARGETS entry up the way `Tracer.install` does, without
    wrapping it: a renamed or deleted traced name fails here rather than only
    in a traced benchmark run."""
    tracer = _load_tracer()
    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in tracer.Tracer._modules()}
    missing = []
    for layer, bindings in tracer.TARGETS.items():
        for b in bindings:
            mod = mods.get(b[0])
            owner = mod if len(b) == 2 else getattr(mod, b[1], None)
            raw = None if owner is None else vars(owner).get(b[-1])
            if raw is None or not (callable(raw)
                                   or isinstance(raw, functools.cached_property)):
                missing.append((layer, ".".join(b)))
    assert missing == []


def _traced(argv):
    tracer = _load_tracer().Tracer()
    code = tracer.run(cli.main, argv)
    assert tracer.missing == []
    assert tracer.check_additivity() <= 1e-6
    return code, tracer.metrics()


def test_traced_runs_read_their_counters():
    """A traced `verify` and a traced 10-step hat geodesic: the counters read
    off `energy_jet`'s sample, `sample_batch`'s (samples, rejected) result,
    each `Trajectory` and the rendered report are all non-zero."""
    code, m = _traced(["verify", "--model", "euclid_concurrent", "--samples", "2",
                       "--format", "json"])
    assert code == 0
    for name in ("core.energy_jet.points", "core.sample_batch.draws",
                 "connections.rk4.steps", "report.bytes"):
        assert m[name] > 0, name
    code, m = _traced(["geodesic", "--model", "matsumoto_example", "--which", "hat",
                       "--orientation=-1", "--x=1,0,1", "--y=1,1,1",
                       "--t-end", "0.01", "--step", "0.001"])
    assert code == 0
    assert m["connections.rk4.steps"] == 10
    assert m["core.energy_jet.points"] > 0
