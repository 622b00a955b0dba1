"""Outside-in tracing of the program's layers.

The tracer replaces public functions at the module globals the program
looks them up through at call time (`cli.run_detection`,
`detector.build_index_tree`, `lsmd.kmeans`, ...), so nothing in the
package changes. Each call becomes one span kept in memory: id, parent,
op id, label, thread, start and end. Each thread keeps its own parent
stack; a span opened on a worker thread with an empty stack takes the
op thread's innermost open span as its parent, so the detector's
thread-pool work nests under `run_detection`. Facts read from return
values (iterations, tree sizes, sweeps, ...) are recorded at the same
boundaries.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from motion_lsmd import _kernels, cli, detector, fileio, lsmd, tracker

# (owner module, attribute, fact read from (args, result) or None)
WRAPPED = [
    (cli, "main", None),
    (cli, "parse_config", None),
    (cli, "load_frame_sequence", None),
    (cli, "run_detection", None),
    (cli, "track_sequence", None),
    (cli, "build_index_tree", lambda a, r: len(r.nodes)),
    (cli, "decompose", lambda a, r: (r.iterations, r.converged)),
    (detector, "frame_difference", None),
    (detector, "extract_proposals", None),
    (detector, "feature_matrix", None),
    (detector, "clustering_points", None),
    (detector, "build_index_tree", lambda a, r: len(r.nodes)),
    (detector, "decompose", lambda a, r: (r.iterations, r.converged)),
    (detector, "motion_prior", None),
    (detector, "activity_scores", None),
    (detector, "frame_activity_energy", None),
    (detector, "detect_events", None),
    (lsmd, "kmeans", lambda a, r: r is not None),
    (lsmd, "prox_nuclear", lambda a, r: a[0].shape),
    (lsmd, "nuclear_norm", lambda a, r: a[0].shape),
    (lsmd, "prox_tree_norm", None),
    (lsmd, "tree_norm", None),
    (tracker, "make_template_set", None),
    (tracker, "propose_particles", None),
    (tracker, "warp_patch", None),
    (tracker, "discriminative_confidence", None),
    (tracker, "generative_confidence", None),
    (tracker, "map_estimate", lambda a, r: (r.degenerate, r.occlusion_fraction)),
    (tracker, "update_templates", lambda a, r: r is not a[0]),
    # the block solves inside block_residuals call a closure-bound solver,
    # so cd_nn_lasso_gram spans are the holistic (positive/negative) codes only
    (_kernels, "block_residuals", None),
    (_kernels, "cd_nn_lasso_gram", lambda a, r: (r[2], r[2] >= a[5])),
    (_kernels, "bilinear_sample", None),
    (fileio, "read_matrix_csv", None),
    (fileio, "write_matrix_csv", None),
    (fileio, "write_trace_csv", None),
    (fileio, "write_scores_csv", None),
    (fileio, "write_events_csv", None),
    (fileio, "write_track_csv", None),
]

ROOT_LABEL = "cli.main"


def _label(fn, attr: str) -> str:
    # the defining module and the public name (_kernels binds a backend's
    # private function to each public name)
    module = fn.__module__.rsplit(".", 1)[-1].lstrip("_")
    return f"{module}.{attr}"


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, label, thread, t0, t1)
        self.facts: dict[str, list] = defaultdict(list)
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_stack: list[int] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self) -> None:
        """Mark the calling thread as the op thread of a new op."""
        self.op_id += 1
        self._op_stack = self._stack()

    def _wrap(self, owner, attr, fact) -> None:
        original = getattr(owner, attr)
        label = _label(original, attr)
        facts = self.facts[label]
        spans = self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._op_stack[-1] if self._op_stack else 0)
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, self.op_id, label, threading.get_ident(), t0, t1))
            if fact is not None:
                facts.append(fact(args, result))
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def __enter__(self) -> "Tracer":
        for owner, attr, fact in WRAPPED:
            self._wrap(owner, attr, fact)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, label, thread, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "label": label,
                                     "thread": thread, "t0": t0, "t1": t1}) + "\n")


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children
    cover (children on any thread, overlaps counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _op, _label, _thread, t0, t1 in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _op, _label, _thread, t0, t1 in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tr: Tracer, names: list[str]) -> tuple[dict[str, float], dict]:
    """The per-layer metrics `names` (BENCHMARK.json's per_layer list)
    from the spans and facts of a traced run, plus details too wide for a
    metric (SVD shapes). `<label>.s`, `.self_s` and `.calls` are totals
    over the traced ops and 0 for a label the workload never calls;
    `share.<layer>.self_ratio` is that layer's share of all self time."""
    selfs = self_times(tr.spans)
    s = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for sid, _parent, _op, label, _thread, t0, t1 in tr.spans:
        s[label] += t1 - t0
        self_s[label] += selfs[sid]
        calls[label] += 1
    facts = tr.facts
    wall = s[ROOT_LABEL]

    by_kind = {"s": s, "self_s": self_s, "calls": calls}
    m = {}
    for name in names:
        label, _, kind = name.rpartition(".")
        if kind in by_kind:
            m[name] = by_kind[kind].get(label, 0)

    kmeans = facts["lsmd.kmeans"]
    m["lsmd.kmeans.useful_ratio"] = _ratio(sum(kmeans), len(kmeans))
    m["lsmd.tree.nodes_mean"] = _mean(facts["lsmd.build_index_tree"])
    dec = facts["lsmd.decompose"]
    m["lsmd.decompose.iters_mean"] = _mean(it for it, _ in dec)
    m["lsmd.decompose.converged_ratio"] = _ratio(sum(conv for _, conv in dec), len(dec))
    svd = facts["lsmd.prox_nuclear"] + facts["lsmd.nuclear_norm"]
    m["lsmd.svd.calls"] = len(svd)
    m["lsmd.svd.cells_mean"] = _mean(r * c for r, c in svd)

    # per run_detection call: per-frame stage time summed over the threads
    # that ran its stages / (those threads x wall); the mean over calls
    stages = defaultdict(list)
    for sp in tr.spans:
        if sp[3] != "detector.detect_events":
            stages[sp[1]].append(sp)
    busy = []
    for sid, _parent, _op, label, _thread, t0, t1 in tr.spans:
        if label == "detector.run_detection" and stages.get(sid):
            workers = len({sp[4] for sp in stages[sid]})
            busy.append(sum(sp[6] - sp[5] for sp in stages[sid]) / (workers * (t1 - t0)))
    m["detector.run_detection.busy_ratio"] = _mean(busy)

    updates = facts["tracker.update_templates"]
    m["tracker.update_taken_ratio"] = _ratio(sum(updates), len(updates))
    maps = facts["tracker.map_estimate"]
    m["tracker.degenerate_ratio"] = _ratio(sum(deg for deg, _ in maps), len(maps))
    m["tracker.occlusion_mean"] = _mean(occ for _, occ in maps)
    cd = facts["kernels.cd_nn_lasso_gram"]
    m["kernels.cd_nn_lasso_gram.sweeps_mean"] = _mean(sw for sw, _ in cd)
    m["kernels.cd_nn_lasso_gram.max_iter_hits"] = sum(hit for _, hit in cd)

    # self time by layer as a share of all self time; the root span's own
    # time (argument parsing, glue code) is the remainder, so the shares
    # and the remainder sum to 1. All self time is the traced op wall time
    # times (1 + parallel_ratio): worker threads overlap in detect.
    total_self = sum(selfs.values())
    by_layer = defaultdict(float)
    for label, value in self_s.items():
        if label != ROOT_LABEL:
            by_layer[label.split(".", 1)[0]] += value
    for name in names:
        if name.startswith("share.") and name.endswith(".self_ratio"):
            m[name] = _ratio(by_layer[name.split(".")[1]], total_self)
    m["trace.remainder_ratio"] = _ratio(self_s[ROOT_LABEL], total_self)
    m["trace.parallel_ratio"] = _ratio(total_self - wall, wall)
    m["trace.wall_s"] = wall

    shapes = defaultdict(int)
    for shape in svd:
        shapes[f"{shape[0]}x{shape[1]}"] += 1
    return m, {"svd_shapes": dict(shapes)}
