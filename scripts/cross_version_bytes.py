"""Check that every given Python writes the same report and document bytes.

    python3 scripts/cross_version_bytes.py python3.10 python3.11 python3.12 python3.13

Each interpreter runs this script, one after another, with
``PYTHONPATH=src`` and without writing bytecode.  A run prints the sha256
of each of these, as JSON:

* the ``table``, ``json`` and ``dot`` reports, at the pinned ``NOW``, of
  the shipped fixture and of the pairs ``bench/audit_gen.py`` generates
  for seeds 1-3 (1000 VRs, as in the ``audit-large`` workload);
* ``serialize(parse(.))`` of each of those landscapes and bundles.

The script then prints the digests of the first interpreter and, for each
other one, whether it wrote the same.  It exits 1 if any two interpreters
differ or one of them fails to run.  Standard library only; nothing under
``bench/`` is written.  With no arguments it checks the running Python.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NOW = "2026-02-01T12:00:00Z"
SEEDS = (1, 2, 3)
N_VRS = 1000
FORMATS = ("table", "json", "dot")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests() -> dict[str, str]:
    """The sha256 of every report and round-tripped document, by name."""
    sys.path.insert(0, str(ROOT / "bench"))
    import audit_gen

    import laisc
    from laisc import fixtures

    pairs = {
        "fixture": (
            fixtures.fixture_path().read_bytes(),
            fixtures.fixture_path(fixtures.EVIDENCE_FILENAME).read_bytes(),
        )
    }
    for seed in SEEDS:
        land, facts = audit_gen.landscape(seed, N_VRS)
        bundle, _ = audit_gen.evidence(seed, facts, laisc.fingerprint(laisc.parse_landscape(land)))
        pairs[f"audit_gen-{seed}"] = (land, bundle)
    now = laisc.io.parse_timestamp(NOW)
    out = {}
    for name, (land, bundle) in pairs.items():
        landscape, evidence = laisc.parse_landscape(land), laisc.parse_evidence(bundle)
        report = laisc.evaluate(landscape, evidence, now=now)
        for fmt in FORMATS:
            out[f"{name} report.{fmt}"] = _sha256(laisc.serialize_report(report, fmt))
        out[f"{name} landscape"] = _sha256(laisc.serialize_landscape(landscape))
        out[f"{name} evidence"] = _sha256(laisc.serialize_evidence(evidence))
    return out


def _run(python: str) -> tuple[str, dict[str, str]] | str:
    """``(version, digests)`` from ``python``, or why it failed."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(
            [python, str(Path(__file__).resolve()), "--digests"], env=env, capture_output=True, text=True, timeout=600
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return str(exc)
    if run.returncode:
        return (run.stderr.strip().splitlines() or [f"exit {run.returncode}"])[-1]
    result = json.loads(run.stdout)
    return result["version"], result["digests"]


def main(interpreters: list[str]) -> int:
    results, failed = [], False
    for python in interpreters or [sys.executable]:
        result = _run(python)
        if isinstance(result, str):
            print(f"{python}: could not run: {result}")
            failed = True
        else:
            results.append((python, *result))
    if not results:
        return 1
    first, version, expected = results[0]
    print(f"{first} (Python {version}):")
    for name, digest in expected.items():
        print(f"  {digest}  {name}")
    for python, version, found in results[1:]:
        differ = sorted(name for name in expected.keys() | found.keys() if expected.get(name) != found.get(name))
        print(f"{python} (Python {version}): " + (f"DIFFERS in {', '.join(differ)}" if differ else "same bytes"))
        failed = failed or bool(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        print(json.dumps({"version": sys.version.split()[0], "digests": digests()}))
    else:
        sys.exit(main(sys.argv[1:]))
