"""Benchmark of motion-lsmd through its public CLI entry, `motion_lsmd.cli.main`.

Run from the repository root:

    python3 perfbench/run.py                 # every workload, each in a fresh process
    python3 perfbench/run.py --workload detect-clips --seed 0 --seconds 30 --trace 0

One closed-loop client: each op is one in-process `cli.main` call, run
back to back, with the program's default config and environment
(`MOTION_LSMD_*` variables are removed). Inputs are written at set-up,
from the workload seed, by the program's own writers.

`--trace 0` reports the end-to-end metrics with tracing off, over whole
passes through the input pool for about `--seconds` seconds. `--trace 1`
reports the per-layer metrics over a fixed amount of work, whatever the
speed of the host: one pass through the pool, each op run untraced and
then under the outside-in tracer (perfbench/tracer.py), and for
detect-clips one more pass with `MOTION_LSMD_THREADS=1`. Every op's
outputs are checked; a traced op's output hashes must equal its
untraced twin's. Metric names and units come from BENCHMARK.json.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Details (environment, per-op times,
checks and output hashes, spans) are written to perfbench/out/.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("detect-clips", "decompose-planted", "track-square")
SETUP_REPEATS = 5


@dataclass
class OpRecord:
    input: int
    seconds: float
    items: int
    ok: bool
    reason: str = ""
    quality: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)


def _clean_environment() -> list[str]:
    removed = sorted(k for k in os.environ if k.startswith("MOTION_LSMD_"))
    for key in removed:
        del os.environ[key]
    return removed


def _git_state() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args) -> str:
        res = subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        return res.stdout.strip()

    try:
        return {"sha": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def _environment(removed: list[str]) -> dict:
    import numpy as np
    from motion_lsmd import _kernels

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernels_backend": _kernels.backend_name(),
        "removed_env": removed,
        "git": _git_state(),
    }


def _run_op(wl, inp, index: int, out: Path) -> OpRecord:
    from motion_lsmd import cli
    from workloads import Check, sha256_files

    out.mkdir()
    argv = wl.argv(inp, out)
    t0 = time.perf_counter()
    rc = cli.main(argv)  # looked up at call time, so a traced run sees the wrapper
    seconds = time.perf_counter() - t0
    hashes = {}
    if rc != 0:
        check = Check(False, f"exit code {rc}")
    else:
        try:
            check = wl.check(inp, out)
            hashes = sha256_files(wl.outputs(out))
        except (OSError, ValueError, IndexError, KeyError) as exc:
            check = Check(False, repr(exc))
    shutil.rmtree(out)
    return OpRecord(index, seconds, inp.items, check.ok, check.reason, check.quality, hashes)


def _run_loop(wl, inputs, work: Path, budget: float) -> list[OpRecord]:
    """Whole passes over the input pool, back to back, while the next pass,
    at the median pass time so far, would end less than half a pass past
    `budget` seconds (at least one pass), so runs last `budget` seconds on
    average. Whole passes give every run the same mix of inputs, whatever
    the number of passes."""
    records = []
    pass_times = []
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start + 0.5 * statistics.median(pass_times) <= budget:
        t0 = time.perf_counter()
        for k, inp in enumerate(inputs):
            records.append(_run_op(wl, inp, k, work / f"op{len(records)}"))
        pass_times.append(time.perf_counter() - t0)
    return records


def _tail(times: list[float]) -> tuple[float, float] | None:
    """Highest of p99.9/p99/p90 with at least ten ops beyond it."""
    for p, n in ((99.9, 1000), (99.0, 100), (90.0, 10)):
        if len(times) * (1 - p / 100) >= 10:
            return p, statistics.quantiles(times, n=n, method="inclusive")[n - 2]
    return None


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    removed = _clean_environment()
    if not (SRC / "motion_lsmd" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import motion_lsmd

    if Path(motion_lsmd.__file__).resolve().parent != SRC / "motion_lsmd":
        print(f"error: imported motion_lsmd from {motion_lsmd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}
    import_s = time.perf_counter() - START
    wl = WORKLOADS[name]
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = []
        for r in range(SETUP_REPEATS):
            root = work / f"inputs{r}"
            root.mkdir()
            t0 = time.perf_counter()
            inputs = wl.make_inputs(root, seed)
            setup_times.append(time.perf_counter() - t0)
            if r + 1 < SETUP_REPEATS:
                shutil.rmtree(root)
        probe = wl.make_probe(root)
        if trace:
            result, details = _traced(wl, inputs, probe, work, seed, units)
        else:
            result, details = _untraced(wl, inputs, probe, work, seconds, import_s, setup_times, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details.update(workload=name, seed=seed, seconds=seconds, trace=int(trace), import_s=import_s,
                   setup_times_s=setup_times, environment=_environment(removed))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(details, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def _quality(wl, records: list[OpRecord]) -> tuple[bool, dict]:
    passed = [r.quality for r in records if r.ok]
    return wl.run_quality(passed) if passed else (False, {})


def _show(wl, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{wl.name:18s} {name:28s} {value:12.6g} {unit:6s} {note}".rstrip())


def _run_probe(wl, probe, work: Path) -> tuple[list[OpRecord], dict]:
    """The workload's probe op, if it has one: run once, untraced, outside
    the timed ops. Its outputs are checked like any op's, but its quality
    figures are reported, not held to the workload's bar."""
    if probe is None:
        return [], {}
    rec = _run_op(wl, probe, -1, work / "probe")
    return [rec], wl.probe_quality(rec.quality) if rec.ok else {}


def _untraced(wl, inputs, probe, work: Path, seconds: int, import_s: float, setup_times: list[float],
              units: dict):
    records = _run_loop(wl, inputs, work, seconds)
    times = [r.seconds for r in records]
    probed, probe_quality = _run_probe(wl, probe, work)
    run_ok, quality = _quality(wl, records)
    metrics = {
        # process start (imports) plus the median time to write the inputs
        "setup_s": import_s + statistics.median(setup_times),
        "op_s_p50": statistics.median(times),
        "items_per_s": sum(r.items for r in records) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    records += probed
    failed = sum(not r.ok for r in records)
    _show(wl, "setup_s", metrics["setup_s"], units["setup_s"],
          f"imports {import_s:.3f} s + median of {len(setup_times)} set-ups")
    _show(wl, wl.rate, metrics["items_per_s"], units["items_per_s"], "(items_per_s)")
    _show(wl, "op_s_p50", metrics["op_s_p50"], units["op_s_p50"], f"n={len(times)} ops")
    tail = _tail(times)
    if tail:
        _show(wl, f"op_s_p{tail[0]:g}", tail[1], "s", f"n={len(times)} ops")
    _show(wl, "peak_rss_mb", metrics["peak_rss_mb"], units["peak_rss_mb"])
    _show(wl, "failed_ratio", failed / len(records), "ratio", f"{failed}/{len(records)} ops")
    for key, (value, unit) in {**quality, **probe_quality}.items():
        _show(wl, key, value, unit)
    for r in records:
        if not r.ok:
            print(f"{wl.name}: op on input {r.input} failed: {r.reason}", file=sys.stderr)
    result = {
        "correct": failed == 0 and run_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    details = {"result": result, "quality": quality, "probe_quality": probe_quality,
               "ops": [asdict(r) for r in records]}
    return result, details


def _traced(wl, inputs, probe, work: Path, seed: int, units: dict):
    """One pass through the input pool: each op untraced, then traced.
    The per-layer totals are over that fixed set of ops."""
    from tracer import Tracer, layer_metrics

    tr = Tracer()
    plain, traced = [], []
    for k, inp in enumerate(inputs):
        plain.append(_run_op(wl, inp, k, work / f"plain{k}"))
        with tr:
            tr.begin_op()
            traced.append(_run_op(wl, inp, k, work / f"traced{k}"))
    records = plain + traced
    mismatched = [k for k, (a, b) in enumerate(zip(plain, traced)) if a.hashes != b.hashes]

    metrics, extra = layer_metrics(tr, list(units))
    metrics["trace.overhead_ratio"] = (sum(r.seconds for r in traced) / sum(r.seconds for r in plain)) - 1.0
    metrics["detector.serial_frames_per_s"] = 0.0
    if wl.threaded:
        # the single-threaded reference: the program reads this per call
        os.environ["MOTION_LSMD_THREADS"] = "1"
        try:
            serial = [_run_op(wl, inp, k, work / f"serial{k}") for k, inp in enumerate(inputs)]
        finally:
            del os.environ["MOTION_LSMD_THREADS"]
        records += serial
        metrics["detector.serial_frames_per_s"] = sum(r.items for r in serial) / sum(r.seconds for r in serial)
        mismatched += [f"serial{k}" for k, (a, b) in enumerate(zip(plain, serial)) if a.hashes != b.hashes]
    run_ok, quality = _quality(wl, records)
    probed, probe_quality = _run_probe(wl, probe, work)
    records += probed
    metrics["lsmd.decompose.probe_l_rel_err"] = probe_quality.get("probe_l_rel_err", (0.0,))[0]

    failed = sum(not r.ok for r in records)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"per_layer metrics with no derivation: {missing}")
    for key, unit in units.items():
        _show(wl, key, metrics[key], unit)
    if mismatched:
        print(f"{wl.name}: traced outputs differ from untraced ones for ops {mismatched}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tr.write_spans(OUT / f"{wl.name}-seed{seed}-spans.jsonl")
    result = {
        "correct": failed == 0 and run_ok and not mismatched,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    details = {"result": result, "quality": quality, "probe_quality": probe_quality,
               "hash_mismatches": mismatched, **extra, "ops": [asdict(r) for r in records]}
    return result, details


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if res.returncode != 0 or not lines:
            print(f"error: {name} exited {res.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{wl}/{k}": v for wl, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload in this process (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30, help="measured time per run (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
