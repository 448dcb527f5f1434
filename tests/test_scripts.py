"""The classification sweep script, loaded from its file."""

import importlib.util
import re
from pathlib import Path

import pytest

from spheretile.cli import report_json
from spheretile.combinatorics import classify

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "classify_all.py"


def _classify_all():
    spec = importlib.util.spec_from_file_location("classify_all", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# One column per outcome: families (with variant counts and one-parameter
# marks), exact proofs, sampled records, and subsumed seeds.
SUMMARY = {
    5: "m= 5  families: snub-fusion[alpha.beta^2] x3, prism[alpha.beta.gamma] (1-param), "
    "football[beta^3], earth-map[beta^2.gamma] (1-param)"
    "  | proved: alpha^3, alpha^2.beta  | sampled: alpha^2.gamma",
    6: "m= 6  families: prism[alpha.beta.gamma] (1-param)  | proved: beta^2.gamma"
    "  | sampled: -  | subsumed: alpha^2.gamma",
}


@pytest.mark.parametrize("m", sorted(SUMMARY))
def test_summarize_gives_the_summary_line_and_the_report_text(m):
    line, text = _classify_all().summarize(m)
    assert re.fullmatch(r".*  \(\d+\.\d\d s\)", line)
    assert re.sub(r"  \(\d+\.\d\d s\)$", "", line) == SUMMARY[m]
    assert text == report_json(classify(m))
