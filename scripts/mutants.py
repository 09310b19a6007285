"""Run tier-1 against mutants of the source: a standing mutation net.

Each mutant is one exact-fragment replacement in one file of the
checkout.  The runner first checks that every fragment occurs exactly
once (a fragment that occurs no time or more than once is a hard error,
so the list cannot go stale unnoticed), then runs tier-1 on an unmutated
copy, which must pass, and on a sentinel mutant, which must be killed.
It then runs each mutant, one after another, and prints ``killed`` or
``survived`` and its name.

Every run gets a fresh temporary copy of ``src``, ``tests``, ``bench``
and ``pyproject.toml``, so ``pythonpath = ["src"]`` imports the mutated
code, and runs ``python -m pytest -q -x`` there with ``PYTHONPATH=src``;
the checkout itself is never written.  A run that fails, errors or takes
longer than ``_TIMEOUT_S`` kills its mutant.

Run from anywhere: ``python3 scripts/mutants.py``.  Stdlib only (pytest
and hypothesis for the runs).  It exits 0 when every mutant is killed,
1 when one survived and 2 when the check or the baseline fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: What a run copies of the checkout.
_COPIED = ("src", "tests", "bench", "pyproject.toml")

_TIER_1 = (sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")

#: The longest a run may take before its mutant counts as killed: a hang.
_TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str
    fragment: str
    replacement: str


#: A mutant that any working suite kills: every single-digit grid reads reversed.
SENTINEL = Mutant(
    "sentinel: digit grids read reversed",
    "src/laisc/io.py",
    "_DIGIT_VALUE = bytes.maketrans(_DIGITS, _DIGIT_CELLS)",
    "_DIGIT_VALUE = bytes.maketrans(_DIGITS, _DIGIT_CELLS[::-1])",
)

_EVALUATION, _MODEL, _CODEC = "src/laisc/evaluation.py", "src/laisc/model.py", "src/laisc/codec.py"
_IO, _CLI, _METRICS = "src/laisc/io.py", "src/laisc/cli.py", "src/laisc/metrics.py"

MUTANTS = (
    # verdicts
    Mutant(
        "evaluation._recency breaks no timestamp tie",
        _EVALUATION,
        '_recency = attrgetter("timestamp", "id")',
        '_recency = attrgetter("timestamp")',
    ),
    Mutant(
        "evaluation._fill keeps the stale records of a filled slot",
        _EVALUATION,
        "open_keys = {key for label, key in keys.items() if label not in matched}",
        "open_keys = set(keys.values())",
    ),
    Mutant(
        "MetricThreshold's comparator reversed",
        _EVALUATION,
        'ok = value >= p.threshold if p.comparator.value == "GE" else value <= p.threshold',
        'ok = value <= p.threshold if p.comparator.value == "GE" else value >= p.threshold',
    ),
    Mutant(
        "model.slot_key finds the gap token anywhere in the note",
        _MODEL,
        'if evidence.config_note.partition(";")[0] == _GAP_NOTE:',
        "if _GAP_NOTE in evidence.config_note:",
    ),
    Mutant(
        "MetricGap's two sides outrank a precomputed gap",
        _EVALUATION,
        '    if "gap" in matched:\n',
        '    if "gap" in matched and not ("a" in matched and "b" in matched):\n',
    ),
    Mutant(
        "PerCondition: missing outranks violated",
        _EVALUATION,
        "    if failing:\n        # A measured failure",
        "    if failing and not missing:\n        # A measured failure",
    ),
    Mutant(
        "PerCondition ignores stale records",
        _EVALUATION,
        "    if missing:\n        if stale_matching:\n            return _stale(stale_matching)\n",
        "    if missing:\n",
    ),
    Mutant(
        "roll-up precedence: Error before Violated",
        _EVALUATION,
        "_PRECEDENCE = (Status.VIOLATED, Status.ERROR, Status.PENDING, Status.SATISFIED)",
        "_PRECEDENCE = (Status.ERROR, Status.VIOLATED, Status.PENDING, Status.SATISFIED)",
    ),
    Mutant(
        "the verdict memo ignores the fingerprint",
        _EVALUATION,
        "if memo is not None and memo[0] == current:",
        "if memo is not None:",
    ),
    # self-checks
    Mutant(
        "model._once_rows checks nothing",
        _MODEL,
        '    return rule_rows(list(map(attrgetter(name), owners)), ((_distinct, f"{kind} {{}} {name}"),), fault)',
        "    return []",
    ),
    Mutant(
        "EvidenceBundle.__post_init__ skips _check_records",
        _IO,
        "        _check_records(self)\n",
        "",
    ),
    Mutant(
        "_eval_metric_gap shows a non-finite gap",
        _EVALUATION,
        'shown_gap = (("gap", gap),) if is_number(gap) else ()',
        'shown_gap = (("gap", gap),)',
    ),
    Mutant(
        "codec._above takes its bound",
        _CODEC,
        "return min(values, default=math.inf) > bound",
        "return min(values, default=math.inf) >= bound",
    ),
    Mutant(
        "io._COUNT_RULES has no upper bound",
        _IO,
        "lambda logs: all(map(le, map(_REVIEWED, logs), map(_TOTAL, logs))),",
        "lambda logs: True,",
    ),
    Mutant(
        "codec._record_eq has no class test",
        _CODEC,
        "    if other.__class__ is self.__class__:\n",
        '    if hasattr(other, "_record_values"):\n',
    ),
    # CLI and input
    Mutant(
        "cli._append asks no evaluation.reads",
        _CLI,
        "if not any(evaluation.reads(vr.payload, payload) for payload in payloads):",
        "if not payloads:",
    ),
    Mutant(
        "metric clm flags at 0.5, not at the VR's flag_threshold",
        _CLI,
        "metrics.clm_flags(table, threshold)",
        "metrics.clm_flags(table, 0.5)",
    ),
    Mutant(
        "clm_flags takes an empty table",
        _METRICS,
        '    if not table.ids:\n        raise EmptyTable("the probability table needs at least one row")\n',
        "",
    ),
    Mutant(
        "metric miou pairs no grids by name",
        _CLI,
        "if Path(args.pred).is_dir() and Path(args.truth).is_dir():",
        "if False:",
    ),
    Mutant(
        "parse_timestamp has no profile",
        _CODEC,
        '    if not _RFC3339.fullmatch(value):\n        raise InvalidTimestamp(value, f"not {_GRAMMAR}")\n',
        "",
    ),
    Mutant(
        "load_json keeps the last of a repeated key",
        _CODEC,
        "object_pairs_hook=_unique_keys)",
        "object_pairs_hook=dict)",
    ),
    Mutant(
        "is_number takes a subclass",
        _CODEC,
        "return type(value) in NUMBER_TYPES and abs(value) <= float_info.max",
        "return isinstance(value, (int, float)) and abs(value) <= float_info.max",
    ),
    Mutant(
        "the column pass reads objects of another key set",
        _CODEC,
        "if set(map(type, nodes)) <= _DICT and all(map(eq, map(dict.keys, nodes), repeat(keys))):",
        "if set(map(type, nodes)) <= _DICT:",
    ),
    Mutant(
        "io._digit_grid splits its header loosely",
        _IO,
        'header = data[: max(end, 0)].split(b" ")',
        "header = data[: max(end, 0)].split()",
    ),
    Mutant(
        "grid sizes need not be exact ints",
        _IO,
        "values = tuple(tuple(row) for row in values)\n"
        "        if type(height) is not int or type(width) is not int or height < 1 or width < 1:",
        "values = tuple(tuple(row) for row in values)\n        if height < 1 or width < 1:",
    ),
    # kernels
    Mutant(
        "metrics._to_byte rounds a half down",
        _METRICS,
        "return whole + (clamped - whole >= 0.5)",
        "return whole + (clamped - whole > 0.5)",
    ),
    Mutant(
        "_ACTIVATION_RULES has no exactness row",
        _IO,
        '    ("numbers", _exact, ValueOutOfRange, "activation {0!r} has no exact double"),\n',
        "",
    ),
    Mutant(
        "morphology reaches one cell short of its radius",
        _METRICS,
        "for d in range(1, min(radius, side) + 1):",
        "for d in range(1, min(radius, side)):",
    ),
    Mutant(
        "a splitmix64 constant off by one",
        _METRICS,
        "* 0xBF58476D1CE4E5B9) & mask",
        "* 0xBF58476D1CE4E5B8) & mask",
    ),
)


def _mutated(mutant: Mutant, text: str) -> str:
    """``text`` with the one occurrence of the mutant's fragment replaced."""
    found = text.count(mutant.fragment)
    if found != 1:
        raise SystemExit(f"mutant {mutant.name!r}: its fragment occurs {found} times in {mutant.path}, not once")
    return text.replace(mutant.fragment, mutant.replacement)


def _passes(mutant: Mutant | None) -> bool:
    """Whether tier-1 passes on a fresh copy of the checkout with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="laisc-mutant-") as work:
        for name in _COPIED:
            source, target = ROOT / name, Path(work, name)
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, target)
        if mutant:
            path = Path(work, mutant.path)
            path.write_text(_mutated(mutant, path.read_text(encoding="utf-8")), encoding="utf-8")
        paths = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": f"src:{paths}" if paths else "src", "PYTHONDONTWRITEBYTECODE": "1"}
        quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
        try:
            run = subprocess.run(_TIER_1, cwd=work, env=env, timeout=_TIMEOUT_S, **quiet)
        except subprocess.TimeoutExpired:
            return False
        return run.returncode == 0


def main() -> int:
    for mutant in (SENTINEL, *MUTANTS):
        _mutated(mutant, (ROOT / mutant.path).read_text(encoding="utf-8"))
    if not _passes(None):
        print("error: tier-1 fails on the unmutated checkout", file=sys.stderr)
        return 2
    if _passes(SENTINEL):
        print("error: tier-1 passes with the sentinel mutant, so it runs no mutated code", file=sys.stderr)
        return 2
    survived = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        killed = not _passes(mutant)
        survived += not killed
        seconds = time.perf_counter() - start
        print(f"{'killed' if killed else 'survived':<8}  {seconds:4.0f} s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
