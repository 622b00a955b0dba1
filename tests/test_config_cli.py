import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from motion_lsmd import cli, errors, fileio, tracker
from motion_lsmd.config import SCHEMA, Config, parse_config
from motion_lsmd.detector import DetectorConfig, run_detection
from motion_lsmd.ingest import load_frame_sequence
from motion_lsmd.lsmd import LsmdParams
from motion_lsmd.tracker import TrackerConfig

from report_fixture import ROWS


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "motion_lsmd", *[a if isinstance(a, bytes) else str(a) for a in args]],
        capture_output=True,
        text=True,
    )


def leaves(obj, prefix=""):
    """{dotted path: value} of every field under a dataclass, nested ones
    included; an array's entries are fields "name.0", "name.1", ..."""
    out = {}
    for f in dataclasses.fields(obj):
        value, path = getattr(obj, f.name), prefix + f.name
        if dataclasses.is_dataclass(value):
            out.update(leaves(value, path + "."))
        elif isinstance(value, np.ndarray):
            out.update({f"{path}.{i}": v for i, v in enumerate(value)})
        else:
            out[path] = value
    return out


# (key, text) of each line of the --verbose echo of the defaults, in its
# sorted order; it pins every default value and how it prints
DEFAULT_ECHO = [
    ("detector.min_len", "5"), ("detector.tau_off", "0.35"), ("detector.tau_on", "0.5"),
    ("ingest.patch_size", "16"), ("ingest.stride", "8"), ("lsmd.k", "4"), ("lsmd.lambda_l1", "0.05"),
    ("lsmd.max_iter", "200"), ("lsmd.mu_L", "1.0"), ("lsmd.mu_S", "0.3"), ("lsmd.rel_tol", "1e-06"),
    ("pipeline.seed", "0"), ("sparse.lambda1", "0.01"), ("sparse.tol", "1e-08"), ("tracker.eps_occ", "0.15"),
    ("tracker.n_particles", "600"), ("tracker.n_templates", "10"), ("tracker.occ_gate", "0.3"),
    ("tracker.ring_scale", "1.5"), ("tracker.sigma_alpha", "0.002"), ("tracker.sigma_c", "0.1"),
    ("tracker.sigma_lx", "4.0"), ("tracker.sigma_ly", "4.0"), ("tracker.sigma_phi", "0.001"),
    ("tracker.sigma_s", "0.01"), ("tracker.sigma_theta", "0.02"), ("tracker.tau_update", "0.3"),
]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# nothing here\n", encoding="utf-8")
        cfg = parse_config(path)
        assert cfg["tracker.n_particles"] == 600
        assert cfg["lsmd.mu_L"] == 1.0
        assert cfg["detector.tau_on"] == 0.5

    def test_file_override(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("tracker.n_particles = 300\n", encoding="utf-8")
        assert parse_config(path)["tracker.n_particles"] == 300

    def test_set_overrides_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("tracker.n_particles = 300\n", encoding="utf-8")
        cfg = parse_config(path, overrides=["tracker.n_particles=150"])
        assert cfg["tracker.n_particles"] == 150

    def test_range_error(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("lsmd.mu_L = -1\n", encoding="utf-8")
        with pytest.raises(errors.InputError, match="outside legal range"):
            parse_config(path)

    def test_unknown_key(self):
        with pytest.raises(errors.InputError, match="unknown config key"):
            parse_config(None, overrides=["lsmd.unknown=3"])

    def test_unparseable_value(self):
        with pytest.raises(errors.InputError, match="cannot parse"):
            parse_config(None, overrides=["tracker.n_particles=many"])

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
    def test_non_finite_float_rejected(self, raw):
        with pytest.raises(errors.InputError, match="is not a finite number"):
            parse_config(None, overrides=[f"lsmd.lambda_l1={raw}"])

    def test_threshold_cross_check(self):
        with pytest.raises(errors.InputError, match="tau_off must not exceed"):
            parse_config(None, overrides=["detector.tau_off=0.9"])

    @pytest.mark.parametrize(
        "override",
        [
            "tracker.observe=raw",
            "detector.lsmd_input=difference",
            "detector.use_tracker=true",
            "lsmd.group_weight=1.0",
            "detector.kappa=0.2",
            "detector.stride=2",
            "sparse.max_iter=10",
            "ingest.template_size=16",
            "detector.normalize=off",
        ],
    )
    def test_removed_keys_are_unknown(self, override):
        with pytest.raises(errors.InputError, match="unknown config key"):
            parse_config(None, overrides=[override])

    def test_every_key_sets_exactly_its_fields(self):
        default = leaves(Config())
        set_by: dict[str, list[str]] = {path: [] for path in default}
        for key, (paths, _check, _legal) in SCHEMA.items():
            value = Config()[key]
            # a legal value other than the default; tau_on is raised, since
            # below tau_off it is refused
            new = value + 1 if type(value) is int else value * (2.0 if key == "detector.tau_on" else 0.5)
            cfg = parse_config(None, overrides=[f"{key}={new!r}"])
            moved = sorted(path for path, v in leaves(cfg).items() if v != default[path])
            assert moved == sorted(paths.split()), key
            assert cfg[key] == new and type(cfg[key]) is type(value), key
            for path in moved:
                set_by[path].append(key)
        # so each field has one key: pipeline.seed reaches both seeds
        assert {path: keys for path, keys in set_by.items() if len(keys) != 1} == {}

    def test_unknown_key_lookup(self):
        with pytest.raises(KeyError, match="nope.nope"):
            Config()["nope.nope"]

    def test_verbose_echo(self, capsys):
        for changed in [{}, {"pipeline.seed": "3", "tracker.sigma_lx": "1.5", "lsmd.k": "3"}]:
            parse_config(None, overrides=[f"{key}={value}" for key, value in changed.items()], verbose=True)
            want = "".join(f"{key} = {changed.get(key, value)}\n" for key, value in DEFAULT_ECHO)
            assert capsys.readouterr().err == want

    def test_override_leaves_the_defaults_alone(self):
        # the sigma entry is written in place, so a default array shared
        # between instances would carry it into the next run
        assert parse_config(None, ["tracker.sigma_lx=1.5"])["tracker.sigma_lx"] == 1.5
        assert TrackerConfig().motion.sigma[0] == 4.0
        assert Config()["tracker.sigma_lx"] == 4.0

    def test_views_reflect_overrides(self):
        cfg = parse_config(None, overrides=["lsmd.mu_S=0.2", "tracker.sigma_lx=1.5", "ingest.stride=4"])
        assert cfg.detector.lsmd.mu_S == 0.2
        assert cfg.tracker.motion.sigma[0] == 1.5
        assert cfg.detector.stride == 4


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------

SPEC_TEXT = """\
h = 64
w = 64
n_frames = 50
event = 18,32,burst
"""


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("clip")
    spec = root / "spec.cfg"
    spec.write_text(SPEC_TEXT, encoding="utf-8")
    out = root / "frames"
    res = run_cli(["synth", "--spec", spec, "--seed", "4", "--out-dir", out])
    assert res.returncode == 0, res.stderr
    return out


class TestCliSynth:
    def test_outputs_frames_and_truth(self, synth_dir):
        pgms = sorted(synth_dir.glob("*.pgm"))
        assert len(pgms) == 50
        truth = (synth_dir / "truth.csv").read_text(encoding="utf-8")
        assert truth.splitlines()[0] == "start,end,kind"
        assert "18,32,burst" in truth

    def test_deterministic_bytes(self, synth_dir, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC_TEXT, encoding="utf-8")
        again = tmp_path / "frames2"
        res = run_cli(["synth", "--spec", spec, "--seed", "4", "--out-dir", again])
        assert res.returncode == 0
        for name in ("0000.pgm", "0031.pgm", "truth.csv"):
            assert (again / name).read_bytes() == (synth_dir / name).read_bytes()

    def test_peak_memory_does_not_grow_with_clip_length(self, tmp_path):
        # 900 more frames of 120x160 are 138 MB of float64 to a run that
        # holds the whole clip; each run is a child process, so its
        # ru_maxrss is its own peak
        code = ("import resource, sys; from motion_lsmd import cli; rc = cli.main(sys.argv[1:]); "
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(rc)")

        def peak(n_frames):
            spec = tmp_path / f"spec{n_frames}.cfg"
            spec.write_text(f"h = 120\nw = 160\nn_frames = {n_frames}\nevent = 40,70,burst\nevent = 200,260,swap\n",
                            encoding="utf-8")
            out = tmp_path / f"frames{n_frames}"
            res = subprocess.run([sys.executable, "-c", code, "synth", "--spec", str(spec), "--out-dir", str(out)],
                                 capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            assert len(list(out.glob("*.pgm"))) == n_frames
            return int(res.stdout.split()[-1])

        short, long = peak(300), peak(1200)
        assert long <= 1.1 * short, (short, long)


class TestCliDetectEval:
    def test_detect_then_eval(self, synth_dir, tmp_path):
        scores = tmp_path / "scores.csv"
        events = tmp_path / "events.csv"
        res = run_cli(["detect", synth_dir, "--out", scores, "--events", events])
        assert res.returncode == 0, res.stderr
        header, *rows = scores.read_text(encoding="utf-8").splitlines()
        assert header == "frame,lsmd_energy,tracker_conf,combined"
        assert len(rows) == 49
        for row in rows:
            _frame, energy, tracker_conf, combined = row.split(",")
            assert tracker_conf == "0.0" and combined == energy, row
        lines = events.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "start,end,peak"
        assert len(lines) == 2  # exactly one event

        report = tmp_path / "report.csv"
        res = run_cli(
            ["eval", "--events", events, "--truth", synth_dir / "truth.csv",
             "--name", "clip", "--frames", "50", "--append", report]
        )
        assert res.returncode == 0, res.stderr
        text = report.read_text(encoding="utf-8")
        assert "clip,50,1,1" in text
        assert text.strip().endswith("accuracy=1.0000")

    def test_matches_library_bytes(self, synth_dir, tmp_path):
        cli_scores = tmp_path / "cli_scores.csv"
        cli_events = tmp_path / "cli_events.csv"
        res = run_cli(["detect", synth_dir, "--out", cli_scores, "--events", cli_events])
        assert res.returncode == 0, res.stderr

        scores, events = run_detection(load_frame_sequence(synth_dir), DetectorConfig())
        lib_scores = tmp_path / "lib_scores.csv"
        lib_events = tmp_path / "lib_events.csv"
        fileio.write_scores_csv(lib_scores, scores)
        fileio.write_events_csv(lib_events, events)
        assert cli_scores.read_bytes() == lib_scores.read_bytes()
        assert cli_events.read_bytes() == lib_events.read_bytes()

    def test_eval_accumulates_full_table(self, tmp_path):
        report = tmp_path / "report.csv"
        for name, frames, n_events, n_correct in ROWS:
            truth = [(20 * i, 20 * i + 9, "burst") for i in range(n_events)]
            detected = [(s, e) for s, e, _k in truth[:n_correct]]
            tpath = tmp_path / "truth.csv"
            epath = tmp_path / "events.csv"
            fileio.write_truth_csv(tpath, truth)
            with open(epath, "w", encoding="utf-8") as fh:
                fh.write("start,end,peak\n")
                for s, e in detected:
                    fh.write(f"{s},{e},1.0\n")
            res = run_cli(
                ["eval", "--events", epath, "--truth", tpath,
                 "--name", name, "--frames", frames, "--append", report]
            )
            assert res.returncode == 0, res.stderr
        text = report.read_text(encoding="utf-8")
        assert "TOTAL,4921,47,32" in text
        assert text.strip().endswith("accuracy=0.6809")
        golden = Path(__file__).parent / "data" / "report_golden.csv"
        assert report.read_bytes() == golden.read_bytes()


    def test_detect_bytes_equal_golden(self, tmp_path):
        # a 60-frame clip with a burst and a swap, half its frame pairs
        # without motion; a drift of one bit in any frame's energy, or a
        # -0.0 for a frame without motion, changes these bytes
        spec = tmp_path / "spec.cfg"
        spec.write_text("h = 64\nw = 64\nn_frames = 60\nevent = 10,22,burst\nevent = 34,46,swap\n",
                        encoding="utf-8")
        frames_dir = tmp_path / "frames"
        assert cli.main(["synth", "--spec", str(spec), "--seed", "9", "--out-dir", str(frames_dir)]) == 0
        scores = tmp_path / "scores.csv"
        events = tmp_path / "events.csv"
        assert cli.main(["detect", str(frames_dir), "--out", str(scores), "--events", str(events)]) == 0
        data = Path(__file__).parent / "data"
        assert scores.read_bytes() == (data / "detect_golden_scores.csv").read_bytes()
        assert events.read_bytes() == (data / "detect_golden_events.csv").read_bytes()


class TestCliTrack:
    def test_track_writes_csv(self, tmp_path):
        from motion_lsmd.ingest import write_pgm

        rng = np.random.default_rng(0)
        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        base = rng.random((48, 48)) * 0.2
        for i in range(3):
            img = base.copy()
            img[10 + i : 30 + i, 10:30] = 0.9
            write_pgm(frames_dir / f"{i:02d}.pgm", img)
        out = tmp_path / "track.csv"
        res = run_cli(
            ["track", frames_dir, "--init", "20,20,0,0.6,1,0", "--out", out,
             "--set", "tracker.n_particles=30"]
        )
        assert res.returncode == 0, res.stderr
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "frame,l_x,l_y,theta,s,alpha,phi,confidence,occlusion_fraction"
        assert len(lines) == 3  # frames 1 and 2

    @staticmethod
    def square_frames(tmp_path, n_frames):
        """A 24-px square moving 2 px per frame from (20, 32) on 64x160
        frames, written to tmp_path / "frames"."""
        from motion_lsmd.ingest import write_pgm

        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        cy, cx0 = 32, 20
        for t in range(n_frames):
            img = np.zeros((64, 160))
            cx = cx0 + 2 * t
            img[cy - 12 : cy + 12, cx - 12 : cx + 12] = 0.9
            write_pgm(frames_dir / f"{t:04d}.pgm", img)
        return frames_dir

    @classmethod
    def track_square(cls, tmp_path, n_frames, *overrides):
        """``track`` of ``square_frames``, 300 particles, seed 7; returns
        the CSV bytes."""
        frames_dir = cls.square_frames(tmp_path, n_frames)
        out = tmp_path / "track.csv"
        rc = cli.main(["track", str(frames_dir), "--init", "20,32,0,1,1,0", "--out", str(out),
                       "--set", "tracker.n_particles=300", "--set", "pipeline.seed=7",
                       *[arg for kv in overrides for arg in ("--set", kv)]])
        assert rc == 0
        return out.read_bytes()

    @classmethod
    def run_square(cls, tmp_path, *overrides):
        """``track`` of an 8-frame ``square_frames`` with 50 particles, in
        a subprocess so that numpy's warnings reach its stderr."""
        return run_cli(["track", cls.square_frames(tmp_path, 8), "--init", "20,32,0,1,1,0",
                        "--out", tmp_path / "track.csv", "--set", "tracker.n_particles=50",
                        *[arg for kv in overrides for arg in ("--set", kv)]])

    @pytest.mark.parametrize(
        "overrides",
        [
            ["tracker.sigma_phi=1e-310"],
            ["tracker.sigma_lx=1e-170", "tracker.sigma_ly=1e-170"],
            ["tracker.sigma_lx=1e-150", "tracker.sigma_ly=1e-150"],
        ],
        ids=["skew-prior", "translation-prior", "posterior-total"],
    )
    def test_motion_prior_that_overflows(self, tmp_path, overrides):
        # each std-dev is >= 0, but the Gaussian normalisers 1/(sigma
        # sqrt(2 pi)) multiply past the float range: in the prior itself,
        # or in the posterior weights likelihood x prior
        res = self.run_square(tmp_path, *overrides)
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: ") and "overflow" in res.stderr, res.stderr
        assert "Warning" not in res.stderr, res.stderr
        assert not (tmp_path / "track.csv").exists()

    @pytest.mark.parametrize("override", ["tracker.sigma_c=1e-320", "tracker.eps_occ=1e-320"])
    def test_tiny_score_scale_prints_no_warning(self, tmp_path, override):
        # the clamp of the discriminative score and the occlusion mask of
        # the generative one define these scores; the overflow on the way
        # is not worth a warning
        res = self.run_square(tmp_path, override)
        assert res.returncode == 0, res.stderr
        assert "Warning" not in res.stderr, res.stderr
        header, *rows = (tmp_path / "track.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 7
        assert all(np.isfinite([float(v) for v in row.split(",")]).all() for row in rows)

    def test_track_bytes_equal_golden(self, tmp_path):
        # the track-square benchmark setting at a fixed start; a drift of
        # one bit in the warp or the scorer changes these bytes
        golden = Path(__file__).parent / "data" / "track_golden.csv"
        assert self.track_square(tmp_path, 4) == golden.read_bytes()

    def test_track_with_template_updates_bytes_equal_golden(self, tmp_path, monkeypatch):
        # every frame's MAP passes both update gates, so each scored frame
        # has one more distinct template than the one before it; no code
        # stops at its step cap
        counts, cap_hits = [], []
        score = tracker.score_particles

        def counting(frame, states, templates, cfg):
            counts.append(len(templates.distinct))
            scores = score(frame, states, templates, cfg)
            cap_hits.append(int((scores.holistic_steps >= tracker._HOLISTIC_MAX_ITER).sum()
                                + (scores.block_steps >= tracker._LOCAL_MAX_ITER).sum()))
            return scores

        monkeypatch.setattr(tracker, "score_particles", counting)
        got = self.track_square(tmp_path, 8, "tracker.tau_update=0", "tracker.occ_gate=1")
        assert counts == [1, 2, 3, 4, 5, 6, 7]
        assert cap_hits == [0] * 7
        golden = Path(__file__).parent / "data" / "track_updates_golden.csv"
        assert got == golden.read_bytes()


class TestCliDecompose:
    def test_decompose_outputs(self, tmp_path):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((6, 12))
        features = tmp_path / "features.csv"
        fileio.write_matrix_csv(features, mat)
        res = run_cli(["decompose", features, "--out-prefix", tmp_path / "dec"])
        assert res.returncode == 0, res.stderr
        L = fileio.read_matrix_csv(tmp_path / "dec_L.csv")
        S = fileio.read_matrix_csv(tmp_path / "dec_S.csv")
        assert L.shape == S.shape == (6, 12)
        obj_lines = (tmp_path / "dec_obj.csv").read_text(encoding="utf-8").splitlines()
        assert obj_lines[0] == "iteration,objective"
        vals = [float(line.split(",")[1]) for line in obj_lines[1:]]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_reads_the_tree_and_solver_keys(self, tmp_path, monkeypatch):
        # decompose builds its tree and solver from the detector's config
        seen = {}
        build, solve = cli.build_index_tree, cli.decompose

        def recording_build(points, k, seed):
            seen.update(k=k, seed=seed)
            return build(points, k=k, seed=seed)

        def recording_solve(data, tree, params):
            seen.update(params=params)
            return solve(data, tree, params)

        monkeypatch.setattr(cli, "build_index_tree", recording_build)
        monkeypatch.setattr(cli, "decompose", recording_solve)
        features = tmp_path / "features.csv"
        fileio.write_matrix_csv(features, np.random.default_rng(1).standard_normal((6, 12)))
        overrides = ["lsmd.k=3", "pipeline.seed=5", "lsmd.mu_L=2", "lsmd.mu_S=0.2", "lsmd.lambda_l1=0.1",
                     "lsmd.max_iter=7", "lsmd.rel_tol=1e-5"]
        rc = cli.main(["decompose", str(features), "--out-prefix", str(tmp_path / "dec"),
                       *[arg for kv in overrides for arg in ("--set", kv)]])
        assert rc == 0
        assert seen == {"k": 3, "seed": 5,
                        "params": LsmdParams(mu_L=2.0, mu_S=0.2, lambda_l1=0.1, max_iter=7, rel_tol=1e-5)}

    def test_huge_sparse_weights_keep_the_trace_finite(self, tmp_path):
        # mu_S * lambda_l1 overflows to inf, and S stays 0: its l1 term is
        # 0, not inf * 0 = nan, so the stop rule can fire
        features = tmp_path / "features.csv"
        fileio.write_matrix_csv(features, np.random.default_rng(0).standard_normal((20, 30)))
        res = run_cli(["decompose", features, "--out-prefix", tmp_path / "dec",
                       "--set", "lsmd.mu_S=1e308", "--set", "lsmd.lambda_l1=1e308"])
        assert res.returncode == 0, res.stderr
        obj_lines = (tmp_path / "dec_obj.csv").read_text(encoding="utf-8").splitlines()
        vals = [float(line.split(",")[1]) for line in obj_lines[1:]]
        assert np.all(np.isfinite(vals)), vals
        assert all(a >= b for a, b in zip(vals, vals[1:])), vals
        assert len(vals) - 1 < LsmdParams().max_iter
        assert np.all(fileio.read_matrix_csv(tmp_path / "dec_S.csv") == 0.0)


class TestCliErrors:
    def test_unknown_subcommand(self):
        res = run_cli(["frobnicate"])
        assert res.returncode == 1
        assert "usage:" in res.stderr
        assert "{detect,track,decompose,synth,eval}" in res.stderr

    def test_missing_subcommand(self):
        res = run_cli([])
        assert res.returncode == 1
        assert "usage:" in res.stderr
        assert "{detect,track,decompose,synth,eval}" in res.stderr

    def test_subcommand_usage_names_its_options(self, tmp_path):
        # argparse wraps its usage to COLUMNS, so only substrings are pinned
        res = run_cli(["detect", tmp_path, "--out", tmp_path / "s.csv"])
        assert res.returncode == 1
        assert res.stderr.startswith("error: the following arguments are required: --events"), res.stderr
        assert "usage: motion-lsmd detect" in res.stderr and "--events EVENTS" in res.stderr, res.stderr
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("argv, text", [(["--help"], "detect"), (["detect", "--help"], "--set KEY=VALUE")],
                             ids=["top", "detect"])
    def test_help_exits_0_with_usage(self, argv, text):
        res = run_cli(argv)
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("usage: motion-lsmd") and text in res.stdout, res.stdout

    def test_missing_frames_dir(self, tmp_path):
        res = run_cli(["detect", tmp_path / "gone", "--out", tmp_path / "s.csv",
                       "--events", tmp_path / "e.csv"])
        assert res.returncode == 1

    def test_bad_config_value(self, synth_dir, tmp_path):
        res = run_cli(["detect", synth_dir, "--out", tmp_path / "s.csv",
                       "--events", tmp_path / "e.csv", "--set", "lsmd.mu_L=-2"])
        assert res.returncode == 1

    def test_bad_init_string(self, synth_dir, tmp_path):
        res = run_cli(["track", synth_dir, "--init", "1,2,3", "--out", tmp_path / "t.csv"])
        assert res.returncode == 1

    @pytest.mark.parametrize(
        "init", ["32,32,0,0,1,0", "32,32,0,1,-1,0", "32,nan,0,1,1,0", "32,32,inf,1,1,0", "32,32,0,1e200,1e200,0"],
        ids=["zero-scale", "negative-alpha", "nan", "inf", "overflowing-warp"],
    )
    def test_init_outside_the_state_domain(self, synth_dir, tmp_path, init):
        res = run_cli(["track", synth_dir, "--init", init, "--out", tmp_path / "t.csv"])
        assert res.returncode == 1, res.stderr
        assert res.stderr.splitlines()[-1].startswith("error: "), res.stderr  # after any overflow warnings
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "line",
        ["h = 6_4", "w = \u0666\u0664", "n_frames = 3_0", "event = 1_0,1_2,burst"],
        ids=["underscore-h", "non-ascii-digits-w", "underscore-n-frames", "underscore-event"],
    )
    def test_synth_number_that_int_reads_but_a_spec_never_holds(self, tmp_path, capsys, line):
        # int reads "6_4" as 64 and the Arabic-Indic digits as 64
        spec = tmp_path / "spec.txt"
        spec.write_text(f"h = 64\nw = 64\nn_frames = 30\n{line}\n", encoding="utf-8")
        out = tmp_path / "frames"
        rc = cli.main(["synth", "--spec", str(spec), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith(f"error: {spec}:4: ") and "'_' or non-ASCII" in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, kv",
        [("--set", "pipeline.seed=1_0"), ("--set", "detector.tau_on=\u0660.5"), ("--config", "lsmd.k = 1_0")],
        ids=["underscore", "non-ascii-digit", "config-file"],
    )
    def test_config_number_that_int_or_float_reads_but_a_config_never_holds(self, synth_dir, tmp_path, capsys,
                                                                            where, kv):
        if where == "--config":
            (tmp_path / "c.txt").write_text(kv + "\n", encoding="utf-8")
            kv = str(tmp_path / "c.txt")
        rc = cli.main(["detect", str(synth_dir), "--out", str(tmp_path / "s.csv"),
                       "--events", str(tmp_path / "e.csv"), where, kv])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: ") and "'_' or non-ASCII" in err, err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "command, kv, where",
        [
            ("detect", "detector.stride=2", "--set"),
            ("track", "sparse.max_iter=10", "--set"),
            ("track", "ingest.template_size=16", "--set"),
            ("detect", "detector.normalize=false", "--set"),
            ("detect", "detector.normalize = true", "--config"),
        ],
        ids=["detector-stride", "sparse-max-iter", "ingest-template-size", "detector-normalize",
             "detector-normalize-in-config-file"],
    )
    def test_removed_key_exits_1_as_unknown(self, synth_dir, tmp_path, capsys, command, kv, where):
        out = tmp_path / "out.csv"
        if command == "detect":
            argv = ["detect", str(synth_dir), "--out", str(out), "--events", str(tmp_path / "e.csv")]
        else:
            argv = ["track", str(synth_dir), "--init", "32,32,0,1,1,0", "--out", str(out),
                    "--set", "tracker.n_particles=20"]
        key = kv.split("=")[0].strip()
        if where == "--config":
            (tmp_path / "c.cfg").write_text(kv + "\n", encoding="utf-8")
            kv = str(tmp_path / "c.cfg")
        rc = cli.main([*argv, where, kv])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith(f"error: unknown config key {key!r}"), err
        assert not out.exists()

    def test_init_number_that_float_reads_but_an_init_never_holds(self, synth_dir, tmp_path, capsys):
        rc = cli.main(["track", str(synth_dir), "--init", "3_2,32,0,1,1,0", "--out", str(tmp_path / "t.csv")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: --init") and "'_' or non-ASCII" in err, err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [["--init", "30,30,0,1e307,1,0"], ["--init", "30,30,0,1,1,0", "--set", "tracker.ring_scale=1e308"]],
        ids=["scale", "ring-scale"],
    )
    def test_ring_negatives_that_overflow(self, synth_dir, tmp_path, args):
        # the first template warps, but the ring radius 1.5 * 32 * s does not fit a float
        res = run_cli(["track", synth_dir, *args, "--out", tmp_path / "t.csv", "--set", "tracker.n_particles=4"])
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: ring negative centre overflows"), res.stderr
        assert not (tmp_path / "t.csv").exists()

    def test_warp_overflow_prints_no_warning(self, synth_dir, tmp_path):
        res = run_cli(["track", synth_dir, "--init", "30,30,0,1,1,0", "--out", tmp_path / "t.csv",
                       "--set", "tracker.sigma_s=1e307", "--set", "tracker.n_particles=4"])
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: affine warp overflows") and "Warning" not in res.stderr, res.stderr
        assert not (tmp_path / "t.csv").exists()

    def test_huge_motion_sigma_prints_no_warning(self, synth_dir, tmp_path):
        res = run_cli(["track", synth_dir, "--init", "30,32,0,1,1,0", "--out", tmp_path / "t.csv",
                       "--set", "tracker.sigma_theta=1e308", "--set", "tracker.n_particles=4"])
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: affine warp overflows") and "Warning" not in res.stderr, res.stderr
        assert not (tmp_path / "t.csv").exists()

    def test_huge_mu_l_prints_no_warning(self, synth_dir, tmp_path):
        # max|F| < 0.5 scales the threshold up past the float range; an
        # infinite threshold zeroes every singular value, the right result
        features = tmp_path / "features.csv"
        fileio.write_matrix_csv(features, 0.1 * np.random.default_rng(0).standard_normal((6, 12)))
        for args in (["detect", synth_dir, "--out", tmp_path / "s.csv", "--events", tmp_path / "e.csv"],
                     ["decompose", features, "--out-prefix", tmp_path / "dec"]):
            res = run_cli([*args, "--set", "lsmd.mu_L=1e308"])
            assert res.returncode == 0, res.stderr
            assert res.stderr == "", res.stderr
        assert np.all(fileio.read_matrix_csv(tmp_path / "dec_L.csv") == 0.0)

    def test_negative_synth_seed(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("n_frames = 4\n", encoding="utf-8")
        res = run_cli(["synth", "--spec", spec, "--seed", "-1", "--out-dir", tmp_path / "frames"])
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: "), res.stderr

    @pytest.mark.parametrize("second", ["15,25,swap", "20,25,swap"], ids=["overlap", "shared-frame"])
    def test_synth_events_sharing_a_frame(self, tmp_path, second):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"n_frames = 30\nevent = 10,20,burst\nevent = {second}\n", encoding="utf-8")
        out = tmp_path / "frames"
        res = run_cli(["synth", "--spec", spec, "--out-dir", out])
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: ") and "share frame" in res.stderr, res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "track"])
    def test_malformed_last_frame_writes_no_output(self, tmp_path, command):
        # frames are read as they are scored, and outputs are written only
        # after the run: a truncated last file exits 1 naming it, and no
        # output file is begun
        frames = TestCliTrack.square_frames(tmp_path, 30)
        last = frames / "0029.pgm"
        last.write_bytes(last.read_bytes()[:-1])
        outputs = {
            "detect": ["--out", tmp_path / "s.csv", "--events", tmp_path / "e.csv"],
            "track": ["--init", "20,32,0,1,1,0", "--set", "tracker.n_particles=20", "--out", tmp_path / "t.csv"],
        }
        res = run_cli([command, frames, *outputs[command]])
        assert res.returncode == 1, res.stderr
        assert res.stderr.strip() == f"error: {last}: truncated payload", res.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["frames"]

    def test_patch_too_large_on_frames_without_motion(self, tmp_path):
        from motion_lsmd.ingest import write_pgm

        frames_dir = tmp_path / "frames"
        frames_dir.mkdir()
        still = np.random.default_rng(3).random((64, 64))
        for t in range(3):
            write_pgm(frames_dir / f"{t:04d}.pgm", still)
        res = run_cli(["detect", frames_dir, "--set", "ingest.patch_size=100",
                       "--out", tmp_path / "s.csv", "--events", tmp_path / "e.csv"])
        assert res.returncode == 1, res.stderr
        assert res.stderr.strip() == "error: patch 100 exceeds frame 64x64", res.stderr
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "name", ["TOTAL", "accuracy=1.0", "two\nlines", "cr\rreturn", "sep\u2028line", b"bad\xff"],
        ids=["total", "accuracy", "newline", "carriage-return", "line-separator", "not-utf8"],
    )
    def test_eval_name_that_would_corrupt_the_report(self, tmp_path, name):
        events = tmp_path / "e.csv"
        events.write_text("start,end,kind\n2,8,burst\n", encoding="utf-8")
        report = tmp_path / "report.csv"
        args = ["eval", "--events", events, "--truth", events, "--append", report]
        assert run_cli([*args, "--name", "clip"]).returncode == 0
        before = report.read_bytes()
        res = run_cli([*args, "--name", name])
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: report row name"), res.stderr
        assert report.read_bytes() == before

    @pytest.mark.parametrize(
        "command, text",
        [
            ("eval", "start,end,peak\n3,x,0.5\n"),  # non-integer field
            ("eval", "start,end,kind\n9,3,burst\n"),  # reversed interval
            ("synth", "event = 2,x,burst\n"),  # non-integer synth event
            ("synth", "h = 4\n"),  # too small for the blob margin
        ],
        ids=["non-integer-event", "reversed-interval", "non-integer-synth-event", "tiny-synth-frame"],
    )
    def test_malformed_input_is_an_input_error(self, tmp_path, command, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        if command == "eval":
            good = tmp_path / "good.csv"
            good.write_text("start,end,kind\n2,8,burst\n", encoding="utf-8")
            args = ["eval", "--events", good, "--truth", bad, "--name", "clip",
                    "--append", tmp_path / "report.csv"]
        else:
            args = ["synth", "--spec", bad, "--out-dir", tmp_path / "frames"]
        res = run_cli(args)
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: "), res.stderr

    def test_matrix_whose_sum_of_squares_overflows(self, tmp_path):
        # finite entries, but 0.5 ||F||_F^2 (the objective at L = S = 0) is
        # inf: decompose refuses it with exit 1, no warning and no output
        # file (the tree is built first; k-means divides the points by a
        # power of two, so it never draws from NaN)
        features = tmp_path / "features.csv"
        fileio.write_matrix_csv(features, np.random.default_rng(2).standard_normal((6, 5)) * 1e200)
        res = run_cli(["decompose", features, "--out-prefix", tmp_path / "dec"])
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: ") and "Warning" not in res.stderr, res.stderr
        assert not list(tmp_path.glob("dec_*"))

    def test_matrix_whose_kmeans_distances_overflow(self, tmp_path):
        # ||F||_F^2 is finite, but k-means++'s summed squared distances
        # between clustering points are not unless k-means rescales them
        features = tmp_path / "features.csv"
        fileio.write_matrix_csv(features, np.random.default_rng(2).standard_normal((6, 5)) * 2.3e153)
        res = run_cli(["decompose", features, "--out-prefix", tmp_path / "dec"])
        assert res.returncode == 0, res.stderr
        assert "Warning" not in res.stderr, res.stderr
        for part in ("L", "S"):
            assert np.isfinite(fileio.read_matrix_csv(tmp_path / f"dec_{part}.csv")).all()
        header, *rows = (tmp_path / "dec_obj.csv").read_text(encoding="utf-8").splitlines()
        assert header == "iteration,objective" and rows
        assert all(np.isfinite(float(row.split(",")[1])) for row in rows)

    @pytest.mark.parametrize("field", ["abc", "nan", "inf", "-inf"])
    def test_bad_matrix_field_is_an_input_error(self, tmp_path, capsys, field):
        # 6x12 is wide enough to split, so a non-finite value would reach k-means
        lines = ["rows,cols", "6,12"] + [",".join(["0.5"] * 12)] * 6
        lines[5] = ",".join(["0.5"] * 11 + [field])
        features = tmp_path / "features.csv"
        features.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = cli.main(["decompose", str(features), "--out-prefix", str(tmp_path / "dec")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith("error: ") and str(features) in err and "row 3" in err, err

    def test_matrix_with_lines_past_the_declared_rows(self, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text(
            "rows,cols\n2,3\n1,2,3\n4,5,6\n7,8,9\nnot,a,row,at,all\n", encoding="utf-8"
        )
        res = run_cli(["decompose", features, "--out-prefix", tmp_path / "dec"])
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: ") and "line 5" in res.stderr, res.stderr
        assert not list(tmp_path.glob("dec_*"))

    @pytest.mark.parametrize(
        "text",
        ["rows,cols\n2,2\n1_0,2\n3,4\n", "rows,cols\n2,2\n1,2\n3,\u0664\n", "rows,cols\n0_2,2\n1,2\n3,4\n"],
        ids=["underscore", "non-ascii-digit", "underscore-in-dimensions"],
    )
    def test_matrix_field_that_float_reads_but_csv_never_holds(self, tmp_path, text):
        features = tmp_path / "features.csv"
        features.write_text(text, encoding="utf-8")
        res = run_cli(["decompose", features, "--out-prefix", tmp_path / "dec"])
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: "), res.stderr
        assert not list(tmp_path.glob("dec_*"))

    @pytest.mark.parametrize(
        "header", [b"P5 6_4 6_4 25_5\n", b"P5 64 64 2_55\n"], ids=["underscore-size", "underscore-maxval"]
    )
    def test_pgm_header_number_that_int_reads_but_a_pgm_never_holds(self, tmp_path, header):
        frames = tmp_path / "frames"
        frames.mkdir()
        for t in range(3):
            (frames / f"{t:04d}.pgm").write_bytes(header + bytes([16 * t]) * (64 * 64))
        scores = tmp_path / "s.csv"
        res = run_cli(["detect", frames, "--out", scores, "--events", tmp_path / "e.csv"])
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: ") and "0000.pgm" in res.stderr, res.stderr
        assert not scores.exists()

    @pytest.mark.parametrize(
        "events",
        ["start,end,peak\n1_0,12,0.5\n", "start,end,peak\n\u0661\u0660,12,0.5\n", "start,end,kind\n-5,12,burst\n"],
        ids=["underscore", "non-ascii-digit", "negative-start"],
    )
    def test_event_field_that_int_reads_but_csv_never_holds(self, tmp_path, events):
        bad = tmp_path / "events.csv"
        bad.write_text(events, encoding="utf-8")
        good = tmp_path / "truth.csv"
        good.write_text("start,end,kind\n2,8,burst\n", encoding="utf-8")
        report = tmp_path / "report.csv"
        for detected, truth in ((bad, good), (good, bad)):
            res = run_cli(["eval", "--events", detected, "--truth", truth, "--name", "clip", "--append", report])
            assert res.returncode == 1, res.stderr
            assert res.stderr.startswith("error: ") and str(bad) in res.stderr, res.stderr
            assert not report.exists()

    @pytest.mark.parametrize(
        "row", ["clip,1_00,1,1", "clip,\u0661\u0660\u0660,1,1", "clip,100,1_0,1"],
        ids=["underscore", "non-ascii-digit", "underscore-in-events"],
    )
    def test_report_count_that_int_reads_but_csv_never_holds(self, tmp_path, row):
        events = tmp_path / "e.csv"
        events.write_text("start,end,kind\n2,8,burst\n", encoding="utf-8")
        report = tmp_path / "report.csv"
        report.write_text(f"{fileio.REPORT_HEADER}\n{row}\n", encoding="utf-8")
        before = report.read_bytes()
        res = run_cli(["eval", "--events", events, "--truth", events, "--name", "next", "--append", report])
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: ") and "malformed report row" in res.stderr, res.stderr
        assert report.read_bytes() == before

    def test_matrix_with_blank_lines_past_the_declared_rows(self, tmp_path):
        features = tmp_path / "features.csv"
        features.write_text("rows,cols\n2,3\n1,2,3\n4,5,6\n\n  \n", encoding="utf-8")
        assert np.array_equal(fileio.read_matrix_csv(features), [[1, 2, 3], [4, 5, 6]])

    def test_eval_negative_frames(self, tmp_path):
        events = tmp_path / "e.csv"
        events.write_text("start,end,kind\n2,8,burst\n", encoding="utf-8")
        report = tmp_path / "report.csv"
        args = ["eval", "--events", events, "--truth", events, "--name", "clip", "--append", report]
        assert run_cli([*args, "--frames", "0"]).returncode == 0
        before = report.read_bytes()
        assert b"clip,9,1,1" in before  # 0 derives the count from the last event end
        res = run_cli([*args, "--frames", "-5"])
        assert res.returncode == 1, res.stderr
        assert res.stderr.startswith("error: --frames"), res.stderr
        assert report.read_bytes() == before
