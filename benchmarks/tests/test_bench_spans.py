import threading
import types

import pytest

import spans
from spans import Span, Target, Tracer, installed, self_times, summarize


def test_wrapper_returns_the_wrapped_value():
    tracer = Tracer()
    traced = tracer.wrap("m.add", lambda a, b: a + b)
    assert traced(2, b=3) == 5
    assert [s.name for s in tracer.spans] == ["m.add"]


def test_wrapper_reraises_and_still_records_the_span():
    tracer = Tracer()

    def boom():
        raise KeyError("inner")

    with pytest.raises(KeyError, match="inner"):
        tracer.wrap("m.boom", boom)()
    assert len(tracer.spans) == 1
    assert tracer.spans[0].amount == 0.0


def test_amount_is_recorded_for_successful_calls():
    tracer = Tracer()
    tracer.wrap("m.f", lambda n: n * 2, amount=lambda args, result: result)(4)
    assert tracer.spans[0].amount == 8


def _fake_module(monkeypatch, **attrs):
    module = types.ModuleType("fake_target_module")
    for name, value in attrs.items():
        setattr(module, name, value)
    monkeypatch.setitem(__import__("sys").modules, "fake_target_module", module)
    return module


def test_originals_are_restored_after_the_run_even_on_error(monkeypatch):
    def original():
        return "original"

    module = _fake_module(monkeypatch, f=original)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with installed(tracer, [Target("fake.f", "fake_target_module", "f")]) as found:
            assert len(found) == 1
            assert module.f is not original
            assert module.f() == "original"
            raise RuntimeError("stop")
    assert module.f is original
    assert len(tracer.spans) == 1


def test_class_attribute_is_wrapped_and_restored(monkeypatch):
    class Vector:
        def __post_init__(self):
            self.built = True

    original = Vector.__dict__["__post_init__"]
    _fake_module(monkeypatch, Vector=Vector)
    tracer = Tracer()
    with installed(tracer, [Target("v.build", "fake_target_module:Vector", "__post_init__")]):
        v = Vector()
        v.__post_init__()
        assert v.built
    assert Vector.__dict__["__post_init__"] is original
    assert [s.name for s in tracer.spans] == ["v.build"]


def test_missing_targets_are_skipped_and_report_zero_calls(monkeypatch):
    _fake_module(monkeypatch, present=lambda: 1)
    tracer = Tracer()
    targets = [
        Target("fake.gone", "fake_target_module", "sgd_step"),
        Target("fake.nomodule", "no_such_module_anywhere", "f"),
        Target("fake.noclass", "fake_target_module:Nope", "f"),
    ]
    with installed(tracer, targets) as found:
        assert found == []
    totals = summarize(tracer.spans)
    assert totals.get("fake.gone_calls", 0) == 0


def test_pool_thread_spans_are_parented_to_the_waiting_call():
    tracer = Tracer()

    def work():
        return threading.get_ident()

    traced_work = tracer.wrap("client.local_train", work)

    def round_():
        threads = [threading.Thread(target=traced_work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()

    tracer.wrap(spans.ROUND, round_)()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (round_span,) = by_name[spans.ROUND]
    assert [s.parent for s in by_name["client.local_train"]] == [round_span.id] * 2


def _span(i, parent, name, start, end):
    return Span(i, parent, name, start, end, 0.0)


def test_self_time_subtracts_covered_interval_once():
    tree = [
        _span(0, None, spans.ROUND, 0.0, 10.0),
        # two pool children overlapping in [2, 4]
        _span(1, 0, spans.TRAIN, 1.0, 4.0),
        _span(2, 0, spans.TRAIN, 2.0, 6.0),
        _span(3, 1, "nn.backward", 1.5, 2.5),
        _span(4, 0, "aggregate.nwda", 7.0, 8.0),
    ]
    own = self_times(tree)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(4.0)

    totals = summarize(tree)
    assert totals["orchestrator.train_phase_s"] == pytest.approx(5.0)
    assert totals["orchestrator.round_other_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert totals["trace.parallel_s"] == pytest.approx(2.0)
    assert totals["client.local_train_self_s"] == pytest.approx(6.0)
    modules = sum(v for k, v in totals.items() if k.startswith("self."))
    assert modules - totals["trace.parallel_s"] == pytest.approx(totals["trace.rounds_s"])
