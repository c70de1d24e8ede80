import types

import numpy as np
import pytest

from tracing import Patch, ReturnTimer, SpanArrays, Tracer


class FakeClock:
    """Advances by one unit per reading unless told otherwise."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    spans = SpanArrays(["outer", "a", "b", "c"],
                       name_id=np.array([0, 1, 2, 3]),
                       start=np.array([0.0, 1.0, 5.0, 6.0]),
                       end=np.array([10.0, 4.0, 9.0, 8.0]),
                       parent=np.array([-1, 0, 0, 2]))
    np.testing.assert_allclose(spans.self_time(), [3.0, 3.0, 2.0, 2.0])
    assert spans.self_time().sum() == pytest.approx(spans.root_time())
    only_a = spans.mask("a")
    np.testing.assert_allclose(spans.self_time(only_a), [7.0, 3.0, 4.0, 2.0])
    assert spans.total("a", "b") == pytest.approx(7.0)
    assert spans.count("c") == 1
    assert spans.count("missing") == 0
    assert list(spans.under("b")) == [False, False, True, True]


def test_tracer_records_nesting_and_errors():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer(x):
        return traced_leaf(x) + traced_leaf(x)

    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer(2) == 4
    with pytest.raises(ValueError):
        traced_outer(-1)
    spans = tracer.arrays()
    assert len(spans) == 5  # outer, leaf, leaf, outer, leaf (raised)
    assert list(spans.parent) == [-1, 0, 0, -1, 3]
    assert tracer.errors == {"leaf": 1, "outer": 1}
    # each span opens and closes on its own clock reading
    assert (spans.end > spans.start).all()
    own = spans.self_time()
    assert own.sum() == pytest.approx(spans.root_time())


def test_patch_wraps_aliases_and_restores(monkeypatch):
    import sys

    def original():
        return "original"

    home = types.ModuleType("molcalib._bench_home")
    user = types.ModuleType("molcalib._bench_user")
    home.fn = original
    user.fn_alias = original  # as after "from home import fn as fn_alias"
    monkeypatch.setitem(sys.modules, home.__name__, home)
    monkeypatch.setitem(sys.modules, user.__name__, user)

    tracer = Tracer()
    with Patch() as patch:
        assert patch.function(home, "fn", lambda f: tracer.wrap("x.fn", f))
        assert not patch.function(home, "absent", lambda f: f)
        assert home.fn() == "original" and user.fn_alias() == "original"
        assert home.fn is not original and user.fn_alias is home.fn
    assert home.fn is original and user.fn_alias is original
    assert tracer.arrays().count("x.fn") == 2


def test_patch_method_and_return_timer():
    class Thing:
        def step(self):
            return 1

    clock = FakeClock()
    timer = ReturnTimer(clock=clock)
    with Patch() as patch:
        assert patch.method(Thing, "step", timer.wrap)
        assert not patch.method(None, "step", timer.wrap)
        thing = Thing()
        thing.step()          # starts a series
        thing.step()          # one interval
        timer.new_series()
        thing.step()          # starts a new series: no interval
        thing.step()
    assert timer.intervals == [1.0, 1.0]
    assert "step" in vars(Thing) and Thing.step.__name__ == "step"
    assert not hasattr(Thing.step, "__wrapped__")
