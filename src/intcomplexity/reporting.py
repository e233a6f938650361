"""Report records and deterministic text/csv/json emission.

Reals are formatted at 6 significant digits in every format, and rows
are emitted in the order given, so identical inputs produce identical
bytes.  Parsing an emitted report and re-emitting it reproduces the
same bytes (values round-trip at emission precision).  The sign of zero
is not kept: -0.0 is emitted as ``0`` in text and csv and as ``0.0`` in
json, because ``-0`` would parse back as the int 0.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

# csv and json are imported where a format needs them: ``build`` loads this
# module through ``cli`` but writes no report

FORMATS = ("text", "csv", "json")


def fmt_real(x: float) -> str:
    # Adding 0.0 turns -0.0 into 0.0 and leaves every other value alone.
    return format(float(x) + 0.0, ".6g")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_real(v)
    return "" if v is None else str(v)


def _json_value(v):
    if isinstance(v, float):
        return float(fmt_real(v))
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _json_value(x) for k, x in v.items()}
    return v


@dataclass
class Report:
    """Outcome of one verification: verdict, counterexamples, statistics."""

    name: str
    passed: bool
    checked: int
    counterexamples: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def emit_rows(headers: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(headers)
        for row in rows:
            w.writerow([_cell(v) for v in row])
        return buf.getvalue()
    if fmt == "json":
        import json

        payload = [dict(zip(headers, (_json_value(v) for v in row))) for row in rows]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "text":
        cells = [[_cell(v) for v in row] for row in rows]
        widths = [len(h) for h in headers]
        for row in cells:
            for i, c in enumerate(row):
                widths[i] = max(widths[i], len(c))
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def parse_rows(text: str, fmt: str) -> tuple[list[str], list[list]]:
    """Inverse of emit_rows up to cell typing (int/float/bool inferred)."""
    if fmt == "csv":
        import csv

        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise ValueError("empty csv report")
        return rows[0], [[_infer(c) for c in row] for row in rows[1:]]
    if fmt == "json":
        import json

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


def emit_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        import json

        payload = {
            "name": report.name,
            "passed": report.passed,
            "checked": report.checked,
            "counterexamples": _json_value(report.counterexamples),
            "details": _json_value(report.details),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [
        f"check {report.name}: {'PASS' if report.passed else 'FAIL'} "
        f"({report.checked} cases checked)"
    ]
    for key in sorted(report.details):
        lines.append(f"  {key}: {_cell(report.details[key])}")
    for ce in report.counterexamples:
        body = ", ".join(f"{k}={_cell(v)}" for k, v in ce.items())
        lines.append(f"  counterexample: {body}")
    return "\n".join(lines) + "\n"
