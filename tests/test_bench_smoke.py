"""The CI smoke check of benchmark output flags doctored result lines."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / ".github" / "bench_smoke.py"
_SPEC = importlib.util.spec_from_file_location("bench_smoke", _PATH)
smoke = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(smoke)


def _line(**fields) -> str:
    result = {
        "correct": True,
        "attempted": 170,
        "failed": 0,
        "metrics": {"ops_per_s": {"value": 12.5, "unit": "1/s"}},
    }
    result.update(fields)
    return "progress line\n" + json.dumps(result) + "\n"


@pytest.mark.parametrize("workload", smoke.WORKLOADS)
def test_a_clean_result_passes(workload):
    assert smoke.problems_of(_line(), workload) == []


def test_classify_may_fail_one_operation_in_seventeen():
    assert smoke.problems_of(_line(failed=10), "classify") == []
    assert smoke.problems_of(_line(failed=11), "classify") != []


@pytest.mark.parametrize(
    "fields, workload",
    [
        ({"failed": 1}, "quad"),
        ({"failed": 1}, "sample"),
        ({"attempted": 0}, "quad"),
        ({"attempted": 0, "failed": 0}, "classify"),
        ({"attempted": None}, "sample"),
        ({"failed": True}, "quad"),
        ({"correct": False}, "sample"),
        ({"metrics": {"ops_per_s": {"value": None}}}, "quad"),
    ],
)
def test_doctored_result_lines_are_flagged(fields, workload):
    assert smoke.problems_of(_line(**fields), workload) != []
