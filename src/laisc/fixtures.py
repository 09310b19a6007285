"""Shipped example landscape: a camera-based train track detector.

The landscape instantiates three concerns for a binary-segmentation track
detector -- inaccurate data labels, problems with synthetic data, and lack
of robustness -- decomposed into eight goals and ten verifiable
requirements, one mitigation measure each.  The evidence bundle beside it
satisfies every requirement, handy for trying the CLI and for golden tests.

The two JSON files under ``fixtures/`` are the single source of the case
study; the loaders below only parse them.
"""

from __future__ import annotations

from importlib import resources

from laisc.io import EvidenceBundle, parse_evidence, parse_landscape
from laisc.model import Landscape

LANDSCAPE_FILENAME = "train_track_detector.laisc.json"
EVIDENCE_FILENAME = "train_track_detector.evidence.json"


def fixture_path(name: str = LANDSCAPE_FILENAME):
    """Filesystem path of a shipped fixture file."""
    return resources.files("laisc").joinpath("fixtures", name)


def track_detector_landscape() -> Landscape:
    """The shipped landscape."""
    return parse_landscape(fixture_path().read_bytes())


def demo_evidence() -> EvidenceBundle:
    """The shipped evidence bundle; it satisfies every VR of the shipped landscape."""
    return parse_evidence(fixture_path(EVIDENCE_FILENAME).read_bytes())
