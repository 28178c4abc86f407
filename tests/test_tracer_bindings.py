"""The benchmark tracer binds program names; each one must still exist."""

import functools
import importlib.util
from pathlib import Path

import finslerlab.cli  # noqa: F401 - imports every module the tracer binds

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
