"""CSV readers and writers for every file the pipeline exchanges.

Floats are written with repr (shortest round-trip form), which keeps
output byte-deterministic for identical inputs.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .detector import DetectionReport, EventInterval, FrameScore, ReportRow
from .errors import InvalidValue
from .tracker import TrackResult


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# matrices ("rows,cols" header, then one CSV line per matrix row)
# ---------------------------------------------------------------------------

def write_matrix_csv(path: str | Path, mat: np.ndarray) -> None:
    mat = np.asarray(mat, dtype=np.float64)
    rows, cols = mat.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("rows,cols\n")
        fh.write(f"{rows},{cols}\n")
        for row in mat.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def _holds_non_csv_text(line: str) -> bool:
    """True for a line with a digit-group underscore ("1_0", which int and
    float read as 10) or non-ASCII text (float reads non-ASCII digits and
    spaces): no matrix CSV holds either."""
    return "_" in line or not line.isascii()


def read_matrix_csv(path: str | Path) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or lines[0].strip() != "rows,cols":
        raise InvalidValue(f"{path}: expected 'rows,cols' header")
    if _holds_non_csv_text(lines[1]):
        raise InvalidValue(f"{path}: bad dimension line {lines[1]!r}")
    try:
        rows, cols = (int(v) for v in lines[1].split(","))
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
        if _holds_non_csv_text(line):
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,objective\n")
        for i, v in enumerate(trace):
            fh.write(f"{i},{_fmt(v)}\n")


# ---------------------------------------------------------------------------
# frame scores and event intervals
# ---------------------------------------------------------------------------

def write_scores_csv(path: str | Path, scores: list[FrameScore]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # perfbench's detect-clips check pins this four-column header, so
        # tracker_conf stays 0.0 and combined repeats the energy
        fh.write("frame,lsmd_energy,tracker_conf,combined\n")
        for sc in scores:
            energy = _fmt(sc.lsmd_energy)
            fh.write(f"{sc.frame},{energy},0.0,{energy}\n")


def write_events_csv(path: str | Path, events: list[EventInterval]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("start,end,peak\n")
        for ev in events:
            fh.write(f"{ev.start},{ev.end},{_fmt(ev.peak)}\n")


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
            start, end = int(parts[0]), int(parts[1])
        except (ValueError, IndexError) as exc:
            raise InvalidValue(f"{path}: bad event line {line!r}") from exc
        if start > end:
            raise InvalidValue(f"{path}: event {start},{end} ends before it starts")
        events.append(EventInterval(start=start, end=end))
    return events


def write_truth_csv(path: str | Path, events: list[tuple[int, int, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("start,end,kind\n")
        for start, end, kind in events:
            fh.write(f"{start},{end},{kind}\n")


# ---------------------------------------------------------------------------
# track results
# ---------------------------------------------------------------------------

def write_track_csv(path: str | Path, results: list[TrackResult]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("frame,l_x,l_y,theta,s,alpha,phi,confidence,occlusion_fraction\n")
        for r in results:
            st = r.state
            cells = [
                str(r.frame_index),
                _fmt(st.l_x),
                _fmt(st.l_y),
                _fmt(st.theta),
                _fmt(st.s),
                _fmt(st.alpha),
                _fmt(st.phi),
                _fmt(r.confidence),
                _fmt(r.occlusion_fraction),
            ]
            fh.write(",".join(cells) + "\n")


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(REPORT_HEADER + "\n")
        for row in report.rows:
            fh.write(
                f"{row.name},{row.total_frames},{row.num_events},{row.correct_detections}\n"
            )
        t = report.totals
        fh.write(f"{t.name},{t.total_frames},{t.num_events},{t.correct_detections}\n")
        acc = "n/a" if report.accuracy is None else f"{report.accuracy:.4f}"
        fh.write(f"accuracy={acc}\n")


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
            counts = [int(frames), int(events), int(correct)]
        except ValueError as exc:
            raise InvalidValue(f"{path}: malformed report row {line!r}") from exc
        rows.append(ReportRow(name, *counts))
    return rows
