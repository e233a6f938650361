"""Emission of rows and reports.  ``parse_rows`` reads emitted csv and
json back: parsing an emitted report and re-emitting it reproduces the
same bytes (values round-trip at emission precision)."""

import csv
import io
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from intcomplexity.reporting import Report, emit_report, emit_rows, fmt_real


def parse_rows(text: str, fmt: str) -> tuple[list[str], list[list]]:
    """Inverse of emit_rows up to cell typing (int/float/bool inferred)."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise ValueError("empty csv report")
        return rows[0], [[_infer(c) for c in row] for row in rows[1:]]
    if fmt == "json":
        payload = json.loads(text)
        if not payload:
            return [], []
        headers = sorted(payload[0].keys())
        return headers, [[rec[h] for h in headers] for rec in payload]
    raise ValueError(f"cannot parse format {fmt!r}")


def _infer(cell: str):
    if cell == "":
        return None
    if cell == "true":
        return True
    if cell == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


HEADERS = ["n", "value", "flag", "note"]
ROWS = [
    [2, 3.16993, True, "least"],
    [1439, 3.92809, False, None],
    [23, 3.854, True, "chain"],
]


def test_fmt_real_six_significant_digits():
    assert fmt_real(3.1415926535) == "3.14159"
    assert fmt_real(0.000123456789) == "0.000123457"
    assert fmt_real(2.0) == "2"


def test_deterministic_emission():
    for fmt in ("csv", "json", "text"):
        assert emit_rows(HEADERS, ROWS, fmt) == emit_rows(HEADERS, ROWS, fmt)
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        emit_rows(HEADERS, ROWS, "xml")


def test_csv_roundtrip_idempotent():
    out = emit_rows(HEADERS, ROWS, "csv")
    headers, rows = parse_rows(out, "csv")
    assert headers == HEADERS
    assert emit_rows(headers, rows, "csv") == out


def test_json_roundtrip_idempotent():
    out = emit_rows(HEADERS, ROWS, "json")
    headers, rows = parse_rows(out, "json")
    assert emit_rows(headers, rows, "json") == out


@given(
    st.lists(
        st.tuples(
            st.integers(-10**9, 10**9),
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            st.booleans(),
        ),
        min_size=1,
        max_size=20,
    )
)
@example([(0, -0.0, False)])
def test_roundtrip_property(rows):
    rows = [list(r) for r in rows]
    out = emit_rows(["a", "b", "c"], rows, "csv")
    headers, parsed = parse_rows(out, "csv")
    assert emit_rows(headers, parsed, "csv") == out


def test_text_alignment():
    out = emit_rows(HEADERS, ROWS, "text")
    lines = out.splitlines()
    assert lines[0].startswith("n")
    assert len(lines) == len(ROWS) + 1


def test_reports_are_read_only():
    rep = Report("a", True, 0, [], {"limit": 1})
    with pytest.raises(AttributeError):
        rep.passed = False
    with pytest.raises(AttributeError):
        rep.extra = 1


def test_report_emission():
    rep = Report(
        name="demo",
        passed=False,
        checked=5,
        counterexamples=[{"n": 8, "expected": 6, "actual": 7}],
        details={"limit": 100},
    )
    text = emit_report(rep, "text")
    assert "FAIL" in text and "n=8" in text
    js = emit_report(rep, "json")
    assert '"passed": false' in js
