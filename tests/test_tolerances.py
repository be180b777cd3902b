"""Every decision threshold is a named constant in avd/tolerances.py."""

import re
import tokenize
from pathlib import Path

import avd

#: tolerances.py defines the thresholds; verify.py holds the pass bounds and
#: sampling ranges of its scenarios, which judge results rather than decide them.
EXEMPT = {"tolerances.py", "verify.py"}

SCIENTIFIC = re.compile(r"[0-9_.]+[eE][-+]?[0-9_]+j?")


def scientific_literals(path: Path):
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NUMBER and SCIENTIFIC.fullmatch(tok.string):
                yield tok.start[0], tok.string


def test_no_bare_thresholds_outside_tolerances():
    src = Path(avd.__file__).parent
    found = [
        f"{path.name}:{line}: {text}"
        for path in sorted(src.glob("*.py"))
        if path.name not in EXEMPT
        for line, text in scientific_literals(path)
    ]
    assert found == []
