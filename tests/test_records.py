"""The contract every record class keeps: the frozen dataclasses of
``laisc.model``, ``io``, ``evaluation`` and ``metrics``.

Equality, hashing, ``repr``, immutability, ``dataclasses.replace``,
copying, pickling, the constructor's arguments, ``fields()`` and the
signature are pinned here for all of them, whatever builds their methods.
"""

from __future__ import annotations

import ast
import copy
import inspect
import pickle
import sys
from dataclasses import MISSING, FrozenInstanceError, fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import pytest

from laisc import codec, evaluation, io, metrics, model
from laisc.evaluation import CoverageGap, Filter, GapKind, Rollup, Status, Verdict
from laisc.io import (
    ActivationTable,
    ApprovalVerdict,
    EvidenceRecord,
    LabeledGrid,
    MetricResult,
    ProbabilityTable,
)
from laisc.metrics import GaussianNoise, HorizontalFlip, MaskDilate, MaskErode
from laisc.model import (
    Comparator,
    Condition,
    DatasetDescriptor,
    FlagResolution,
    Goal,
    Landscape,
    LifecycleStage,
    MetricThreshold,
    MitigationMeasure,
    Resolution,
    ReviewFraction,
    SafetyConcern,
    SystemComponent,
    VerifiableRequirement,
    rows,
)

MODULES = (model, io, evaluation, metrics)

#: Every record class, by name.
RECORDS = {
    name: value
    for module in MODULES
    for name, value in vars(module).items()
    if isinstance(value, type) and is_dataclass(value) and value.__module__ == module.__name__
}

_STAGE = LifecycleStage("s1", "Data", 0)
_THRESHOLD = MetricThreshold("miou", "d1", Comparator.GE, 0.75)
_CONDITION = Condition("night", "d1", 0.5)
_RESULT = MetricResult("miou", ("d1",), 0.8, "")
_WHEN = datetime(2026, 1, 2, 3, 4, 5, tzinfo=timezone.utc)
_RECORD = EvidenceRecord("e1", "VR1", "sha256:00", _WHEN, _RESULT)
_LANDSCAPE_ARGS = (
    "tiny",
    "1",
    (_STAGE,),
    (SystemComponent("c1", "Camera"),),
    (SafetyConcern("sc1", "Labels", component_ids=("c1",), goal_ids=("G1",)),),
    (Goal("G1", "sc1", "Labels are right", ("VR1",)),),
    (VerifiableRequirement("VR1", "G1", _THRESHOLD, "s1", ("MM1",)),),
    (MitigationMeasure("MM1", "Review", stage_id="s1"),),
    (("d1", DatasetDescriptor("data/d1", "grid-dir")),),
)
_LANDSCAPE = Landscape(*_LANDSCAPE_ARGS)
_VERDICT = Verdict(Status.SATISFIED, "ok", ("e1",), (("value", 0.8),))
_ROLLUP = Rollup(Status.SATISFIED, "1 satisfied")

#: Constructor arguments, positional, of one valid object of each class.
SAMPLES = {
    "LifecycleStage": ("s1", "Data", 0),
    "SystemComponent": ("c1", "Camera", "front camera"),
    "SafetyConcern": ("sc1", "Labels", "wrong labels", True, "", ("c1",), ("G2", "G1")),
    "Goal": ("G1", "sc1", "Labels are right", ("VR2", "VR1")),
    "MetricThreshold": ("miou", "d1", Comparator.GE, 0.75),
    "MetricGap": ("miou", "d1", "d2", 0.05),
    "Condition": ("night", "d1", 0.5),
    "PerCondition": ("miou", (Condition("rain", "d2", 0.4), _CONDITION)),
    "ReviewFraction": ("d1", 0.1),
    "FlagResolution": ("clm_flags", "d1", 0.5),
    "QualitativeApproval": (2, ("safety-case", "guidelines")),
    "VerifiableRequirement": ("VR1", "G1", _THRESHOLD, "s1", ("MM2", "MM1")),
    "MitigationMeasure": ("MM1", "Review", "a second look", "s1"),
    "DatasetDescriptor": ("data/d1", "grid-dir", "train"),
    "Landscape": _LANDSCAPE_ARGS,
    "LandscapeRow": ("sc1", "Labels", "s1", "Data", "G1", "Labels are right (G1)", "VR1", "MM1", "Review"),
    "MetricResult": ("miou", ["d1"], 0.8, "run 3"),
    "ApprovalRecord": ("alice", "safety", ApprovalVerdict.APPROVED, "doc-1"),
    "ReviewLog": ("d1", 10, 5),
    "FlagEntry": ("x1", Resolution.EXCLUDED),
    "FlagResolutionLog": ("d1", ["x1"], [("x1", Resolution.EXCLUDED)]),
    "DocumentRecord": ("guidelines", "doc-2"),
    "EvidenceRecord": ("e1", "VR1", "sha256:00", _WHEN, _RESULT),
    "EvidenceBundle": ([_RECORD], "demo"),
    "LabeledGrid": (2, 2, ((0, 1), (1, 0))),
    "ProbabilityTable": (2, (("x1", 0, (0.875, 0.125)), ("x2", 1, (0.25, 0.75)))),
    "ActivationTable": (2, (("s1", (0.5, -1.0)), ("s2", (2.0, 0.0)))),
    "Verdict": (Status.SATISFIED, "ok", ["e1"], [("value", 0.8)]),
    "Rollup": (Status.SATISFIED, "1 satisfied"),
    "CoverageGap": (GapKind.VR_WITHOUT_MM, "VR1"),
    "Filter": ("sc1", None, None, "Satisfied"),
    "EvaluationReport": (
        _LANDSCAPE,
        _WHEN,
        Filter(),
        tuple(rows(_LANDSCAPE)),
        {"VR1": _VERDICT},
        {"VR1": Status.SATISFIED},
        {"G1": _ROLLUP},
        {"sc1": _ROLLUP},
        (CoverageGap(GapKind.VR_WITHOUT_MM, "VR1"),),
        ("e9",),
    ),
    "ClmFlagResult": (("x1",), ((1, 0), (0, 1)), (0.875, 0.75), ()),
    "BrightnessShift": (10,),
    "ContrastScale": (1.5,),
    "GaussianNoise": (2.0, 7),
    "OcclusionPatch": (0, 1, 2, 3),
    "HorizontalFlip": (),
    "Rotate90": (1,),
    "RandomPixelFlip": (0.1, 3),
    "MaskDilate": (1,),
    "MaskErode": (2,),
    "MaskTranslate": (1, -1),
}

#: Each class's ``fields()``: name, annotation and metadata, with the
#: default where there is one.
FIELDS = {
    "LifecycleStage": "id: str; name: str; order: int",
    "SystemComponent": "id: str; name: str; description: str = ''",
    "SafetyConcern": (
        "id: str; name: str; description: str = ''; relevant: bool = True; relevance_rationale: str = ''; "
        "component_ids: tuple[str, ...] = (); goal_ids: tuple[str, ...] = ()"
    ),
    "Goal": "id: str; concern_id: str; statement: str; vr_ids: tuple[str, ...] = ()",
    "MetricThreshold": "metric_id: str; dataset_id: str; comparator: Comparator; threshold: float",
    "MetricGap": "metric_id: str; dataset_id_a: str; dataset_id_b: str; epsilon: float {'min': 0}",
    "Condition": "condition_id: str; dataset_id: str; threshold: float",
    "PerCondition": "metric_id: str; conditions: tuple[Condition, ...]",
    "ReviewFraction": "dataset_id: str; min_fraction: float {'min': 0, 'max': 1}",
    "FlagResolution": "metric_id: str; dataset_id: str; flag_threshold: float {'min': 0, 'max': 1}",
    "QualitativeApproval": "required_approvals: int {'min': 1}; required_documents: tuple[str, ...] = ()",
    "VerifiableRequirement": "id: str; goal_id: str; payload: VrPayload; stage_id: str; mm_ids: tuple[str, ...] = ()",
    "MitigationMeasure": "id: str; name: str; description: str = ''; stage_id: str | None = None",
    "DatasetDescriptor": "path: str; format: str; role: str = ''",
    "Landscape": (
        "name: str; version: str = '1'; stages: tuple[LifecycleStage, ...] = (); "
        "components: tuple[SystemComponent, ...] = (); concerns: tuple[SafetyConcern, ...] = (); "
        "goals: tuple[Goal, ...] = (); vrs: tuple[VerifiableRequirement, ...] = (); "
        "mitigation_measures: tuple[MitigationMeasure, ...] = (); "
        "datasets: tuple[tuple[str, DatasetDescriptor], ...] = ()"
    ),
    "LandscapeRow": (
        "concern_id: str; concern_name: str; stage_id: str; stage_name: str; goal_id: str; "
        "decomposition: str; vr_id: str; mm_id: str; mm_name: str"
    ),
    "MetricResult": "metric_id: str; dataset_ids: tuple[str, ...]; value: float; config_note: str = ''",
    "ApprovalRecord": "approver_id: str; approver_role: str; verdict: ApprovalVerdict; document_ref: str = ''",
    "ReviewLog": "dataset_id: str; total_items: int; reviewed_items: int",
    "FlagEntry": "instance_id: str; resolution: Resolution",
    "FlagResolutionLog": "dataset_id: str; flagged_ids: tuple[str, ...]; entries: tuple[FlagEntry, ...]",
    "DocumentRecord": "document_kind: str; document_ref: str = ''",
    "EvidenceRecord": (
        "id: str; vr_id: str; landscape_fingerprint: str; timestamp: datetime; payload: EvidencePayload"
    ),
    "EvidenceBundle": "records: tuple[EvidenceRecord, ...]; source: str = ''",
    "LabeledGrid": "height: int; width: int; cells: bytes",
    "ProbabilityTable": (
        "num_classes: int; ids: tuple[str, ...]; labels: tuple[int, ...]; numbers: bytes | tuple[float, ...]"
    ),
    "ActivationTable": "num_neurons: int; ids: tuple[str, ...]; numbers: bytes | tuple[float, ...]",
    "Verdict": (
        "status: Status; explanation: str; evidence_ids: tuple[str, ...] = (); "
        "measured: tuple[tuple[str, float], ...] = ()"
    ),
    "Rollup": "status: Status; note: str",
    "CoverageGap": "kind: GapKind; subject_id: str",
    "Filter": "concern: str | None = None; stage: str | None = None; component: str | None = None; "
    "status: str | None = None",
    "EvaluationReport": (
        "landscape: Landscape; generated_at: datetime; filter: Filter; rows: tuple[LandscapeRow, ...]; "
        "vr_verdicts: dict[str, Verdict]; effective_statuses: dict[str, Status]; "
        "goal_rollups: dict[str, Rollup]; concern_rollups: dict[str, Rollup]; "
        "coverage_gaps: tuple[CoverageGap, ...]; orphaned_evidence_ids: tuple[str, ...]"
    ),
    "ClmFlagResult": (
        "flagged_ids: tuple[str, ...]; confident_joint: tuple[tuple[int, ...], ...]; "
        "class_thresholds: tuple[float, ...]; off_diagonal_ids: tuple[str, ...]"
    ),
    "BrightnessShift": "delta: int",
    "ContrastScale": "factor: float {'above': 0}",
    "GaussianNoise": "sigma: float {'min': 0}; seed: int",
    "OcclusionPatch": "x: int; y: int; w: int {'min': 1}; h: int {'min': 1}",
    "HorizontalFlip": "",
    "Rotate90": "k: int {'min': 1, 'max': 3}",
    "RandomPixelFlip": "rate: float {'min': 0, 'max': 1}; seed: int",
    "MaskDilate": "radius: int {'min': 0}",
    "MaskErode": "radius: int {'min': 0}",
    "MaskTranslate": "dx: int; dy: int",
}

#: The constructor's parameters, with their defaults.
SIGNATURES = {
    "LabeledGrid": "(height, width, values)",
    "ProbabilityTable": "(num_classes, rows)",
    "ActivationTable": "(num_neurons, rows)",
}


def _describe(f) -> str:
    text = f"{f.name}: {f.type}"
    if f.metadata:
        text += f" {dict(f.metadata)}"
    return text if f.default is MISSING else f"{text} = {f.default!r}"


def _signature(cls: type) -> str:
    """The parameters of ``cls``'s constructor and their defaults, without annotations."""
    params = inspect.signature(cls).parameters.values()
    return "(" + ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params) + ")"


def _expected_signature(name: str) -> str:
    """A record's ``__init__`` takes its fields, in order, with their defaults."""
    if name in SIGNATURES:
        return SIGNATURES[name]
    params = (f.name if f.default is MISSING else f"{f.name}={f.default!r}" for f in fields(RECORDS[name]))
    return "(" + ", ".join(params) + ")"


def sample(name: str):
    return RECORDS[name](*SAMPLES[name])


def test_every_record_class_has_a_sample():
    assert len(RECORDS) == 43
    assert sorted(SAMPLES) == sorted(RECORDS) == sorted(FIELDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_values_give_equal_objects_and_hashes(name):
    a, b = sample(name), sample(name)
    assert a is not b
    assert a == b and not a != b
    if name == "EvaluationReport":  # it holds dicts
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_equals_no_object_of_another_class(name):
    obj = sample(name)
    for other in RECORDS:
        if other != name:
            assert obj != sample(other)
    assert obj != tuple(getattr(obj, f.name) for f in fields(obj))


def test_two_payload_kinds_with_the_same_field_values_are_unequal():
    assert [f.name for f in fields(MaskDilate)] == [f.name for f in fields(MaskErode)]
    assert MaskDilate(2) != MaskErode(2)
    assert not MaskDilate(2) == MaskErode(2)
    assert ReviewFraction("d1", 0.5) != FlagResolution("clm_flags", "d1", 0.5)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_every_field(name):
    obj = sample(name)
    values = ", ".join(f"{f.name}={getattr(obj, f.name)!r}" for f in fields(obj))
    assert repr(obj) == f"{name}({values})"


def test_repr_pins():
    assert repr(HorizontalFlip()) == "HorizontalFlip()"
    assert repr(MaskDilate(2)) == "MaskDilate(radius=2)"
    assert repr(sample("MetricThreshold")) == (
        "MetricThreshold(metric_id='miou', dataset_id='d1', comparator=<Comparator.GE: 'GE'>, threshold=0.75)"
    )
    assert repr(sample("ActivationTable")) == (
        "ActivationTable(num_neurons=2, ids=('s1', 's2'), "
        "numbers=b'\\x00\\x00\\x00\\x00\\x00\\x00\\xe0?\\x00\\x00\\x00\\x00\\x00\\x00\\xf0\\xbf"
        "\\x00\\x00\\x00\\x00\\x00\\x00\\x00@\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00')"
    )


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assigning_or_deleting_a_field_is_refused(name):
    obj = sample(name)
    for f in fields(obj):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{f.name}'"):
            setattr(obj, f.name, getattr(obj, f.name))
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{f.name}'"):
            delattr(obj, f.name)
    assert obj == sample(name)


@pytest.mark.parametrize("name", sorted(n for n in RECORDS if hasattr(RECORDS[n], "__post_init__")))
def test_replace_reruns_post_init(name, monkeypatch):
    cls = RECORDS[name]
    calls = []
    original = cls.__post_init__

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    obj = sample(name)
    assert len(calls) == 1
    copied = replace(obj)
    assert len(calls) == 2 and calls[-1] is copied
    assert copied == obj


def test_replace_sorts_and_checks_again():
    concern = replace(sample("SafetyConcern"), goal_ids=("G9", "G3"))
    assert concern.goal_ids == ("G3", "G9")
    with pytest.raises(Exception, match="missing UTC offset"):
        replace(_RECORD, timestamp=datetime(2026, 1, 1))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_copy_deepcopy_and_pickle_round_trip(name):
    obj = sample(name)
    copies = [copy.copy(obj), copy.deepcopy(obj)]
    copies += [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(obj)
        assert other == obj
        assert repr(other) == repr(obj)
        if name != "EvaluationReport":
            assert hash(other) == hash(obj)
        for f in fields(other):
            with pytest.raises(FrozenInstanceError):
                setattr(other, f.name, None)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_construction_by_position_and_by_keyword(name):
    cls, args = RECORDS[name], SAMPLES[name]
    params = list(inspect.signature(cls).parameters)
    assert len(params) >= len(args)
    keywords = dict(zip(params, args))
    assert cls(**keywords) == cls(*args)
    if args:
        head = len(args) // 2
        assert cls(*args[:head], **dict(list(keywords.items())[head:])) == cls(*args)
    with pytest.raises(TypeError):
        cls(*args, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*args, *[None] * (len(params) - len(args) + 1))
    if args:
        with pytest.raises(TypeError):
            cls(*args, **{params[0]: args[0]})
    required = [p.name for p in inspect.signature(cls).parameters.values() if p.default is p.empty]
    for missing in required:
        with pytest.raises(TypeError):
            cls(**{key: value for key, value in keywords.items() if key != missing})


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_unchanged(name):
    assert "; ".join(map(_describe, fields(RECORDS[name]))) == FIELDS[name]
    assert all(f.init and f.repr and f.compare and f.hash is None and not f.kw_only for f in fields(RECORDS[name]))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_signature_is_unchanged(name):
    assert _signature(RECORDS[name]) == _expected_signature(name)


def test_signature_pins():
    assert _signature(GaussianNoise) == "(sigma, seed)"
    assert _signature(MitigationMeasure) == "(id, name, description='', stage_id=None)"
    assert _signature(HorizontalFlip) == "()"


def _class_nodes():
    for module in MODULES:
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name in RECORDS:
                yield node


def test_every_record_class_has_its_own_docstring():
    nodes = list(_class_nodes())
    assert sorted(node.name for node in nodes) == sorted(RECORDS)
    assert [node.name for node in nodes if not ast.get_docstring(node)] == []
    for name, cls in RECORDS.items():
        assert cls.__doc__ and not cls.__doc__.startswith(f"{name}("), name


_SHARED = {
    "__eq__": codec._record_eq,
    "__hash__": codec._record_hash,
    "__repr__": codec._record_repr,
    "__setattr__": codec._frozen_setattr,
    "__delattr__": codec._frozen_delattr,
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_methods_are_the_shared_ones_or_the_class_own(name):
    """No record carries a generated ``==``, ``hash``, ``repr`` or frozen
    ``__setattr__``: each is ``codec``'s, or written in the class's (or a
    base's) own source, as ``_Table``'s ``==`` and ``hash`` are."""
    cls = RECORDS[name]
    source = Path(sys.modules[cls.__module__].__file__).resolve()
    for method, shared in _SHARED.items():
        found = getattr(cls, method)
        assert found is shared or Path(found.__code__.co_filename).resolve() == source, (name, method)
    if hasattr(cls, "__slots__"):
        assert cls.__getstate__ is codec._record_getstate and cls.__setstate__ is codec._record_setstate
    assert cls.__init__.__code__.co_filename in ("<string>", str(source)), name


def test_tables_keep_their_own_eq_hash_and_init():
    assert ProbabilityTable.__eq__ is io._Table.__eq__ and ActivationTable.__hash__ is io._Table.__hash__
    assert ProbabilityTable.__repr__ is codec._record_repr
    for cls in (LabeledGrid, ProbabilityTable, ActivationTable):
        assert cls.__init__.__code__.co_filename == io.__file__


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assigning_an_attribute_that_is_no_field_is_refused(name):
    obj = sample(name)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'not_a_field'"):
        obj.not_a_field = 1
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'not_a_field'"):
        del obj.not_a_field
