"""Command-line front end: detect, track, decompose, synth, eval.

The parser is the one description of the command line: each subcommand
names its ``_cmd_*`` function, and a usage error ends with the usage of
the (sub)command that failed.

Exit codes: 0 success, 1 input/usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .config import iter_kv_lines, parse_config
from .detector import ReportRow, SynthSpec, aggregate_report, match_events, run_detection, synth_sequence
from .errors import InputError, holds_foreign_number_text
from .ingest import load_frame_sequence, write_pgm
from .lsmd import build_index_tree, decompose
from .tracker import AffineState, track_sequence


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(f"{message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="motion-lsmd", add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", default=None, help="config file of 'key = value' lines")
    configured.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                            help="set one config key; repeats, and wins over the config file")
    configured.add_argument("--verbose", action="store_true", help="echo the effective config to stderr")

    p = sub.add_parser("detect", parents=[configured], help="score a sequence and emit events")
    p.add_argument("frames", help="frame directory or manifest file")
    p.add_argument("--out", required=True, help="per-frame scores CSV")
    p.add_argument("--events", required=True, help="detected events CSV")
    p.set_defaults(run=_cmd_detect)

    p = sub.add_parser("track", parents=[configured], help="track a target through a sequence")
    p.add_argument("frames", help="frame directory or manifest file")
    p.add_argument("--init", required=True, help='"lx,ly,theta,s,alpha,phi"')
    p.add_argument("--out", required=True, help="per-frame track CSV")
    p.set_defaults(run=_cmd_track)

    p = sub.add_parser("decompose", parents=[configured], help="low-rank/sparse split of a feature matrix")
    p.add_argument("features", help="matrix CSV ('rows,cols' header)")
    p.add_argument("--out-prefix", required=True, help="stem of the _L.csv, _S.csv and _obj.csv outputs")
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("synth", help="generate a synthetic PGM sequence")
    p.add_argument("--spec", required=True, help="synth spec file")
    p.add_argument("--seed", type=int, default=0, help="seed of the noise and the blob starts, >= 0 (default 0)")
    p.add_argument("--out-dir", required=True, help="directory for the PGM frames and truth.csv")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("eval", help="match events to truth and extend a report")
    p.add_argument("--events", required=True, help="detected events CSV")
    p.add_argument("--truth", required=True, help="truth events CSV")
    p.add_argument("--name", required=True, help="the row's name in the report")
    p.add_argument("--frames", type=int, default=0, help="total frame count for the row (0: derive)")
    p.add_argument("--append", required=True, help="report CSV to create or extend")
    p.set_defaults(run=_cmd_eval)

    return parser


def _parse_init(text: str) -> AffineState:
    parts = text.split(",")
    if len(parts) != 6:
        raise InputError(f'--init needs 6 comma-separated values, got {text!r}')
    if holds_foreign_number_text(text):
        raise InputError(f"--init {text!r} holds '_' or non-ASCII text")
    try:
        return AffineState(*[float(v) for v in parts])
    except ValueError as exc:  # unparseable, non-finite or s, alpha <= 0
        raise InputError(f"--init: {exc}") from exc


def _cmd_detect(args) -> int:
    cfg = parse_config(args.config, args.overrides, verbose=args.verbose)
    frames = load_frame_sequence(args.frames)
    scores, events = run_detection(frames, cfg.detector)
    fileio.write_scores_csv(args.out, scores)
    fileio.write_events_csv(args.events, events)
    return 0


def _cmd_track(args) -> int:
    cfg = parse_config(args.config, args.overrides, verbose=args.verbose)
    frames = load_frame_sequence(args.frames)
    results = track_sequence(frames, _parse_init(args.init), cfg.tracker)
    fileio.write_track_csv(args.out, results)
    return 0


def _cmd_decompose(args) -> int:
    cfg = parse_config(args.config, args.overrides, verbose=args.verbose)
    data = fileio.read_matrix_csv(args.features)
    n = data.shape[1]
    # bare matrices carry no pixel coordinates: cluster on the normalized
    # column position plus the feature vector
    pos = (np.arange(n, dtype=np.float64) / max(n - 1, 1))[:, None]
    points = np.hstack([pos, data.T])
    tree = build_index_tree(points, k=cfg.detector.tree_k, seed=cfg.detector.seed)
    dec = decompose(data, tree, cfg.detector.lsmd)
    prefix = args.out_prefix
    fileio.write_matrix_csv(f"{prefix}_L.csv", dec.L)
    fileio.write_matrix_csv(f"{prefix}_S.csv", dec.S)
    fileio.write_trace_csv(f"{prefix}_obj.csv", dec.objective_trace)
    return 0


def _parse_synth_spec(path: str | Path) -> SynthSpec:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    spec = SynthSpec(events=[])
    seen: dict[str, str] = {}
    for lineno, key, raw in iter_kv_lines(lines, source=str(path)):
        if key not in ("event", "h", "w", "n_frames"):
            raise InputError(f"{path}:{lineno}: unknown synth key {key!r}")
        if holds_foreign_number_text(raw):
            raise InputError(f"{path}:{lineno}: {key} = {raw!r} holds '_' or non-ASCII text")
        if key == "event":
            parts = [p.strip() for p in raw.split(",")]
            if len(parts) != 3:
                raise InputError(f"{path}:{lineno}: event needs start,end,kind")
            try:
                spec.events.append((int(parts[0]), int(parts[1]), parts[2]))
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
        else:
            seen[key] = raw
    try:
        spec.h = int(seen.get("h", spec.h))
        spec.w = int(seen.get("w", spec.w))
        spec.n_frames = int(seen.get("n_frames", spec.n_frames))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return spec


def _cmd_synth(args) -> int:
    spec = _parse_synth_spec(args.spec)
    frames, _truth = synth_sequence(spec, seed=args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for t, pixels in enumerate(frames):
        write_pgm(out / f"{t:04d}.pgm", pixels)
    fileio.write_truth_csv(out / "truth.csv", sorted(spec.events))
    return 0


def _cmd_eval(args) -> int:
    if args.frames < 0:
        raise InputError(f"--frames must be >= 0 (0 derives it), got {args.frames}")
    detected = fileio.read_events_csv(args.events)
    truth = fileio.read_events_csv(args.truth)
    correct = match_events(detected, truth)
    report_path = Path(args.append)
    rows = fileio.read_report_rows(report_path) if report_path.exists() else []
    total_frames = args.frames
    if total_frames == 0:
        spans = [ev.end for ev in truth + detected]
        total_frames = (max(spans) + 1) if spans else 0
    rows.append(
        ReportRow(
            name=args.name,
            total_frames=total_frames,
            num_events=len(truth),
            correct_detections=correct,
        )
    )
    fileio.write_report_csv(report_path, aggregate_report(rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:  # only input files are decoded
        print(f"error: input file is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal error
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
