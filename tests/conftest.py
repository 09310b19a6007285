from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from laisc import fixtures
from laisc.model import Landscape


@pytest.fixture(scope="session")
def fixture_landscape() -> Landscape:
    return fixtures.track_detector_landscape()


@pytest.fixture(scope="session")
def demo_bundle():
    return fixtures.demo_evidence()


@pytest.fixture()
def fixture_paths(tmp_path):
    """Copies of the shipped fixture files in a writable directory."""
    landscape_path = tmp_path / "landscape.laisc.json"
    evidence_path = tmp_path / "demo.evidence.json"
    landscape_path.write_bytes(fixtures.fixture_path().read_bytes())
    evidence_path.write_bytes(fixtures.fixture_path(fixtures.EVIDENCE_FILENAME).read_bytes())
    return landscape_path, evidence_path
