"""The tracer wraps every binding, counts module entries, and restores.

Run with ``python -m pytest perfbench``.
"""

import sys
import types

import pytest

import tracing

MOD = "fbsec.perfbench_tracing_test"


@pytest.fixture
def fake_module():
    mod = types.ModuleType(MOD)

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2   # looked up at call time, like fbsec's own calls

    def refuses(x):
        raise ValueError("refused")

    mod.inner, mod.outer, mod.refuses = inner, outer, refuses
    sys.modules[MOD] = mod
    yield mod
    del sys.modules[MOD]


def test_spans_entries_and_restore(fake_module):
    targets = [tracing.Target("fake", MOD, "outer"), tracing.Target("fake", MOD, "inner"),
               tracing.Target("fake", MOD, "refuses"), tracing.Target("fake", MOD, "renamed")]
    tr = tracing.Tracer(targets)
    originals = (fake_module.outer, fake_module.inner)
    tr.install()
    try:
        assert tr.root(fake_module.outer, 1) == 4
        assert tr.root(fake_module.inner, 1) == 2
        with pytest.raises(ValueError):
            tr.root(fake_module.refuses, 1)
    finally:
        tr.uninstall()
    assert (fake_module.outer, fake_module.inner) == originals
    assert tr.absent == ["fake.renamed"]
    outer, inner, refuses, _ = tr.totals
    assert (outer.calls, outer.entry_calls) == (1, 1)
    # the nested call from outer is not an entry; the direct one is
    assert (inner.calls, inner.entry_calls) == (2, 1)
    assert (refuses.entry_calls, refuses.entry_errors) == (1, 1)
    rows = tr.span_rows()
    names = [r[1] for r in rows]
    assert names.count("cli.main") == 3 and names.count("fake.inner") == 2
    by_id = {r[0]: r for r in rows}
    nested = [r for r in rows if r[1] == "fake.inner" and by_id[r[2]][1] == "fake.outer"]
    assert len(nested) == 1
    assert all(r[3] <= r[4] for r in rows)
