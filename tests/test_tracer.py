"""The benchmark's tracer (``perfbench/tracer.py``) binds engine names by
attribute: every name it wraps must resolve, so that deleting a name only
the tracer reads fails here and not only in a traced benchmark run."""
import importlib.util
import pathlib

from elliptica import linalg

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    """The tracer module, loaded from its file with no entry in
    ``sys.modules``."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves_and_is_put_back(monkeypatch):
    tracer = load_tracer()
    targets = [(owner, attr) for owner, attr, _, _ in tracer._TARGETS]
    assert len(targets) == 25
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not hasattr(owner, attr)]
    assert not missing
    originals = [getattr(owner, attr) for owner, attr in targets]
    # uninstall sets an inherited method on the subclass itself; monkeypatch
    # removes it again afterwards, so no later test reads a stale binding
    for (owner, attr), original in zip(targets, originals):
        monkeypatch.setattr(owner, attr, original)
    tr = tracer.Tracer()
    tr.install()
    try:
        assert all(getattr(owner, attr).__wrapped__ is original
                   for (owner, attr), original in zip(targets, originals))
        assert linalg.rank(linalg.QMatrix(1, 2, {(0, 1): 3})) == 1
        assert tr.counts["linalg.rank.calls"] == 1
        assert tr.counts["linalg.rank.cells"] == 2
    finally:
        tr.uninstall()
    assert [getattr(owner, attr) for owner, attr in targets] == originals
