"""CSV readers and writers for every file the pipeline exchanges.

Floats are written with repr (shortest round-trip form), which keeps
output byte-deterministic for identical inputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .detector import DetectionReport, EventInterval, FrameScore, ReportRow
from .errors import InvalidValue, holds_foreign_number_text
from .tracker import TrackResult


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_lines(path: str | Path, header: str, lines) -> None:
    """Write the header, then each of the lines, as UTF-8 with a "\n"
    after each; lines may be a generator, so no whole file is built."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# matrices ("rows,cols" header, then one CSV line per matrix row)
# ---------------------------------------------------------------------------

def write_matrix_csv(path: str | Path, mat: np.ndarray) -> None:
    mat = np.asarray(mat, dtype=np.float64)
    rows, cols = mat.shape
    _write_lines(path, f"rows,cols\n{rows},{cols}", (",".join(map(repr, row)) for row in mat.tolist()))


def _csv_int(field: str) -> int:
    """int(field), with ValueError also for text that int reads but no
    CSV this module writes holds."""
    if holds_foreign_number_text(field):
        raise ValueError(f"{field!r} is not a CSV integer")
    return int(field)


def read_matrix_csv(path: str | Path) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or lines[0].strip() != "rows,cols":
        raise InvalidValue(f"{path}: expected 'rows,cols' header")
    try:
        rows, cols = (_csv_int(v) for v in lines[1].split(","))
    except ValueError as exc:
        raise InvalidValue(f"{path}: bad dimension line {lines[1]!r}") from exc
    if rows < 1 or cols < 1:
        raise InvalidValue(f"{path}: matrix must be at least 1x1, got {rows}x{cols}")
    if len(lines) < 2 + rows:
        raise InvalidValue(f"{path}: expected {rows} data rows")
    body = lines[2 : 2 + rows]
    for i, line in enumerate(lines[2 + rows :], 3 + rows):
        if line.strip():
            raise InvalidValue(f"{path}: line {i}: data after the {rows} declared rows")
    # every row's length is checked before the matrix is allocated, so a
    # dimension line cannot ask for more memory than the file has values
    for r, line in enumerate(body):
        if holds_foreign_number_text(line):
            raise InvalidValue(f"{path}: row {r} holds '_' or non-ASCII text")
        if line.count(",") + 1 != cols:
            raise InvalidValue(f"{path}: row {r} has {line.count(',') + 1} values, expected {cols}")
    data = np.empty((rows, cols))
    for r, line in enumerate(body):
        try:
            data[r] = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise InvalidValue(f"{path}: row {r}: {exc}") from exc
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise InvalidValue(f"{path}: row {int(np.argmin(finite))} holds a non-finite value")
    return data


def write_trace_csv(path: str | Path, trace: list[float]) -> None:
    _write_lines(path, "iteration,objective", (f"{i},{_fmt(v)}" for i, v in enumerate(trace)))


# ---------------------------------------------------------------------------
# frame scores and event intervals
# ---------------------------------------------------------------------------

def write_scores_csv(path: str | Path, scores: list[FrameScore]) -> None:
    # perfbench's detect-clips check pins this four-column header, so
    # tracker_conf stays 0.0 and combined repeats the energy
    _write_lines(
        path,
        "frame,lsmd_energy,tracker_conf,combined",
        (f"{sc.frame},{energy},0.0,{energy}" for sc in scores for energy in [_fmt(sc.lsmd_energy)]),
    )


def write_events_csv(path: str | Path, events: list[EventInterval]) -> None:
    _write_lines(path, "start,end,peak", (f"{ev.start},{ev.end},{_fmt(ev.peak)}" for ev in events))


def read_events_csv(path: str | Path) -> list[EventInterval]:
    """Reads detection events ('start,end,peak') or ground truth
    ('start,end,kind'); only the interval is kept."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise InvalidValue(f"{path}: empty events file")
    header = [h.strip() for h in lines[0].split(",")]
    if header[:2] != ["start", "end"]:
        raise InvalidValue(f"{path}: expected 'start,end,...' header, got {lines[0]!r}")
    events = []
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            start, end = _csv_int(parts[0]), _csv_int(parts[1])
        except (ValueError, IndexError) as exc:
            raise InvalidValue(f"{path}: bad event line {line!r}") from exc
        if start < 0:
            raise InvalidValue(f"{path}: event {start},{end} starts before frame 0")
        if start > end:
            raise InvalidValue(f"{path}: event {start},{end} ends before it starts")
        events.append(EventInterval(start=start, end=end))
    return events


def write_truth_csv(path: str | Path, events: list[tuple[int, int, str]]) -> None:
    _write_lines(path, "start,end,kind", (f"{start},{end},{kind}" for start, end, kind in events))


# ---------------------------------------------------------------------------
# track results
# ---------------------------------------------------------------------------

def write_track_csv(path: str | Path, results: list[TrackResult]) -> None:
    _write_lines(
        path,
        "frame,l_x,l_y,theta,s,alpha,phi,confidence,occlusion_fraction",
        (
            ",".join([str(r.frame_index), *map(_fmt, (*r.state.as_array(), r.confidence, r.occlusion_fraction))])
            for r in results
        ),
    )


# ---------------------------------------------------------------------------
# detection reports
# ---------------------------------------------------------------------------

REPORT_HEADER = "name,total_frames,num_events,correct_detections"


def write_report_csv(path: str | Path, report: DetectionReport) -> None:
    """Write the rows, the TOTAL row and the accuracy footer. A row name
    that ``read_report_rows`` would not read back is refused before the
    file is opened."""
    for row in report.rows:
        name = row.name
        if name == "TOTAL" or name.startswith("accuracy=") or "".join(name.splitlines()) != name:
            raise InvalidValue(f"report row name {name!r} is reserved or holds a line break")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise InvalidValue(f"report row name {name!r} is not valid text") from exc
    acc = "n/a" if report.accuracy is None else f"{report.accuracy:.4f}"
    rows = (f"{r.name},{r.total_frames},{r.num_events},{r.correct_detections}" for r in [*report.rows, report.totals])
    _write_lines(path, REPORT_HEADER, [*rows, f"accuracy={acc}"])


def read_report_rows(path: str | Path) -> list[ReportRow]:
    """Read the per-video rows back (TOTAL row and footer are derived)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != REPORT_HEADER:
        raise InvalidValue(f"{path}: expected report header {REPORT_HEADER!r}")
    rows = []
    for line in lines[1:]:
        if not line.strip() or line.startswith("accuracy="):
            continue
        parts = line.rsplit(",", 3)
        if len(parts) != 4:
            raise InvalidValue(f"{path}: malformed report row {line!r}")
        name, frames, events, correct = parts
        if name == "TOTAL":
            continue
        try:
            counts = [_csv_int(frames), _csv_int(events), _csv_int(correct)]
        except ValueError as exc:
            raise InvalidValue(f"{path}: malformed report row {line!r}") from exc
        rows.append(ReportRow(name, *counts))
    return rows
