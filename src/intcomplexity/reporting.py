"""Report records and deterministic text/csv/json emission.

Reals are formatted at 6 significant digits in every format, and rows
are emitted in the order given, so identical inputs produce identical
bytes.  The sign of zero is not kept: -0.0 is emitted as ``0`` in text
and csv and as ``0.0`` in json, because ``-0`` would parse back as the
int 0.
"""

from __future__ import annotations

import io
from collections import namedtuple

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


def _json(payload) -> str:
    """The one json writer: reals at 6 significant digits, keys sorted."""
    import json

    return json.dumps(_json_value(payload), indent=2, sort_keys=True) + "\n"


class Report(namedtuple("Report", "name passed checked counterexamples details")):
    """Outcome of one verification: verdict, counterexamples, statistics."""

    __slots__ = ()


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
        return _json([dict(zip(headers, row)) for row in rows])
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


def emit_report(report: Report, fmt: str) -> str:
    if fmt == "json":
        return _json(report._asdict())
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
