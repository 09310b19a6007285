"""The whole-document calls pause the cyclic garbage collector, and may.

``parse_landscape``, ``parse_evidence``, the two serializers, ``evaluate``
and the three renderers run with ``gc`` disabled and leave its state as
they found it; they build no reference cycles, so a collection inside
them would free nothing."""

from __future__ import annotations

import gc
from datetime import datetime, timezone

import pytest

from helpers import generated_pair
from laisc import codec, evaluation, fixtures, io, report
from laisc.errors import InputSyntaxError
from laisc.evaluation import EvaluationReport, Filter, evaluate
from laisc.io import parse_evidence, parse_landscape, serialize_evidence, serialize_landscape
from laisc.report import render_argument_tree, render_json, render_table

NOW = datetime(2026, 2, 1, 12, 0, tzinfo=timezone.utc)

LANDSCAPE_BYTES = fixtures.fixture_path().read_bytes()
EVIDENCE_BYTES = fixtures.fixture_path(fixtures.EVIDENCE_FILENAME).read_bytes()


@pytest.fixture()
def collector():
    """Restore the collector's state, whatever a test leaves it in."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _calls():
    """Each wrapped entry point, called on the fixture: its name, a function
    of no arguments, and where it calls into code that a spy can stand in
    for (module or class, attribute)."""
    land, bundle = parse_landscape(LANDSCAPE_BYTES), parse_evidence(EVIDENCE_BYTES)
    full = evaluate(land, bundle, now=NOW)
    return [
        ("parse_landscape", lambda: parse_landscape(LANDSCAPE_BYTES), (io, "load_json")),
        ("parse_evidence", lambda: parse_evidence(EVIDENCE_BYTES), (io, "load_json")),
        ("serialize_landscape", lambda: serialize_landscape(land), (io, "dump_canonical")),
        ("serialize_evidence", lambda: serialize_evidence(bundle), (io, "dump_canonical")),
        ("evaluate", lambda: evaluate(land, bundle, now=NOW), (evaluation, "_judge_bundle")),
        ("render_table", lambda: render_table(full), (EvaluationReport, "status_counts")),
        ("render_json", lambda: render_json(full), (report, "dump_canonical")),
        ("render_argument_tree", lambda: render_argument_tree(full), (report, "_dot_escape")),
    ]


CALLS = _calls()
IDS = [name for name, _, _ in CALLS]


@pytest.mark.parametrize("call", [call for _, call, _ in CALLS], ids=IDS)
def test_an_enabled_collector_is_enabled_after_the_call(collector, call):
    gc.enable()
    call()
    assert gc.isenabled()


@pytest.mark.parametrize("call", [call for _, call, _ in CALLS], ids=IDS)
def test_a_disabled_collector_stays_disabled(collector, call):
    gc.disable()
    call()
    assert not gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_a_refused_document_leaves_the_collector_as_it_was(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(InputSyntaxError):
        parse_landscape(b"{")
    assert gc.isenabled() is enabled


@pytest.mark.parametrize(("call", "target"), [(call, target) for _, call, target in CALLS], ids=IDS)
def test_the_collector_is_off_inside_each_call(collector, monkeypatch, call, target):
    owner, name = target
    inner, seen = getattr(owner, name), []

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    gc.enable()
    call()
    assert seen and not any(seen)
    assert gc.isenabled()


def test_a_nested_call_does_not_switch_the_collector_on_early(collector, monkeypatch):
    """``serialize_landscape`` inside ``parse_evidence``, which is inside
    an outer pause: only the outermost exit switches the collector on."""
    land, inner, seen = parse_landscape(LANDSCAPE_BYTES), io.load_json, []

    def spy(data):
        serialize_landscape(land)
        seen.append(gc.isenabled())
        return inner(data)

    gc.enable()
    with codec.gc_paused():
        monkeypatch.setattr(io, "load_json", spy)
        parse_evidence(EVIDENCE_BYTES)
        monkeypatch.undo()
        seen.append(gc.isenabled())
    assert seen == [False, False]
    assert gc.isenabled()


@pytest.fixture(scope="module")
def generated():
    return generated_pair(1, 200)


@pytest.mark.parametrize("pair", ["fixture", "generated"])
def test_the_paused_calls_build_no_reference_cycles(collector, request, pair):
    """With the collector off, nothing these calls leave behind is found by
    a collection: neither after each call nor once every result is dropped.
    The inputs are read before the window, as the helper's module load
    and ``importlib.resources`` leave cyclic garbage of their own."""
    land_bytes, bundle_bytes = (
        (LANDSCAPE_BYTES, EVIDENCE_BYTES) if pair == "fixture" else request.getfixturevalue("generated")
    )
    gc.disable()
    gc.collect()
    found = {}
    land = parse_landscape(land_bytes)
    found["parse_landscape"] = gc.collect()
    bundle = parse_evidence(bundle_bytes)
    found["parse_evidence"] = gc.collect()
    full = evaluate(land, bundle, now=NOW)
    found["evaluate"] = gc.collect()
    part = evaluate(land, bundle, flt=Filter(concern=land.concerns[0].id), now=NOW)
    found["evaluate filtered"] = gc.collect()
    outputs = []
    for name, write, value in [
        ("render_table", render_table, full),
        ("render_json", render_json, full),
        ("render_argument_tree", render_argument_tree, full),
        ("render_table filtered", render_table, part),
        ("serialize_landscape", serialize_landscape, land),
        ("serialize_evidence", serialize_evidence, bundle),
    ]:
        outputs.append(write(value))
        found[name] = gc.collect()
    del land, bundle, full, part, outputs
    found["dropped"] = gc.collect()
    assert found == dict.fromkeys(found, 0)
