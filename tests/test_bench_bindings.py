"""perfbench's span tracer can wrap every library name it binds, and restores them all."""

import importlib
import importlib.util
from pathlib import Path

import skillpack.packs as packs

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_names(tracer):
    """(owner, attribute) for every binding the tracer swaps."""
    names = [(importlib.import_module(path), attr) for path, attr, _ in tracer.BINDINGS]
    return names + [(getattr(packs, cls), "reconstruct") for cls in tracer.RECONSTRUCT_CLASSES]


def test_tracer_bindings_resolve_and_are_restored():
    tracer_module = load_tracer()
    names = bound_names(tracer_module)
    originals = [getattr(owner, attr) for owner, attr in names]
    tracer = tracer_module.Tracer("t")
    tracer.install()
    try:
        for (owner, attr), original in zip(names, originals):
            wrapped = getattr(owner, attr)
            assert wrapped is not original and wrapped.__wrapped__ is original, (owner, attr)
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in names] == originals


def test_tracer_wraps_reconstruct_of_every_entry_kind():
    """A new entry kind cannot slip out of the packs.reconstruct span."""
    assert set(load_tracer().RECONSTRUCT_CLASSES) == {cls.__name__ for cls in packs._KINDS.values()}
