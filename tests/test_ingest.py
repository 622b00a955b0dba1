import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from motion_lsmd import _kernels, cli, detector, errors, ingest
from motion_lsmd.detector import SynthSpec, run_detection, synth_sequence
from motion_lsmd.ingest import (
    check_clip,
    extract_proposals,
    feature_matrix,
    frame_difference,
    load_frame_sequence,
    read_pgm,
    warp_patch,
    warp_patches,
    warp_sample_grids,
    write_pgm,
)
from motion_lsmd.lsmd import motion_prior
from motion_lsmd.tracker import AffineState, TrackerConfig, track_sequence

from oracles import (
    previous_bilinear_sample,
    previous_warp_sample_grids,
    reference_extract_proposals,
    reference_feature_matrix,
    reference_motion_prior,
    reference_warp_sample_grids,
    warp_reference,
)
from test_kernels import BILINEAR_SHAPES, bilinear_spans


# ---------------------------------------------------------------------------
# PGM loading
# ---------------------------------------------------------------------------

class TestLoadFrameSequence:
    def _write_seq(self, tmp_path, n=2, shape=(64, 64)):
        rng = np.random.default_rng(0)
        for i in range(n):
            write_pgm(tmp_path / f"{chr(ord('a') + i)}.pgm", rng.random(shape))

    def test_directory_of_two_frames(self, tmp_path):
        self._write_seq(tmp_path)
        frames = load_frame_sequence(tmp_path)
        assert [f.shape for f in frames] == [(64, 64), (64, 64)]

    def test_lexicographic_order(self, tmp_path):
        second = np.full((8, 8), 200 / 255.0)
        first = np.full((8, 8), 50 / 255.0)
        write_pgm(tmp_path / "b.pgm", second)
        write_pgm(tmp_path / "a.pgm", first)
        frames = list(load_frame_sequence(tmp_path))
        assert np.allclose(frames[0], first)
        assert np.allclose(frames[1], second)

    def test_pixel_scaling(self, tmp_path):
        img = np.zeros((8, 8))
        img[0, 0] = 1.0  # byte 255
        write_pgm(tmp_path / "a.pgm", img)
        pixels = read_pgm(tmp_path / "a.pgm")
        assert pixels[0, 0] == 1.0
        assert pixels[1, 1] == 0.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(48))
        with pytest.raises(errors.InputError, match="bad magic"):
            read_pgm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n8 8\n255\n" + bytes(10))
        with pytest.raises(errors.InputError, match="truncated payload"):
            read_pgm(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(errors.InputError, match="only 255 supported"):
            read_pgm(path)

    def test_comment_after_magic(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment line\n8 8\n255\n" + bytes(64))
        assert read_pgm(path).shape == (8, 8)

    def test_missing_source(self, tmp_path):
        with pytest.raises(errors.InputError, match="no such source"):
            load_frame_sequence(tmp_path / "nope")

    def test_too_few_frames(self, tmp_path):
        write_pgm(tmp_path / "only.pgm", np.zeros((8, 8)))
        with pytest.raises(errors.InputError, match="frames, need >= 2"):
            load_frame_sequence(tmp_path)

    def test_inconsistent_dimensions(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", np.zeros((8, 8)))
        write_pgm(tmp_path / "b.pgm", np.zeros((8, 10)))
        with pytest.raises(errors.InputError, match="differs from first frame"):
            list(load_frame_sequence(tmp_path))

    def test_manifest(self, tmp_path):
        self._write_seq(tmp_path, n=3)
        manifest = tmp_path / "clip.txt"
        manifest.write_text("# frames\nc.pgm\na.pgm\n\nb.pgm\n", encoding="utf-8")
        frames = list(load_frame_sequence(manifest))
        assert len(frames) == 3
        for frame, name in zip(frames, "cab"):
            assert np.array_equal(frame, read_pgm(tmp_path / f"{name}.pgm"))

    def test_manifest_missing_entry(self, tmp_path):
        manifest = tmp_path / "clip.txt"
        manifest.write_text("gone.pgm\nalso_gone.pgm\n", encoding="utf-8")
        with pytest.raises(errors.InputError, match="manifest entry missing"):
            load_frame_sequence(manifest)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = np.rint(rng.random((16, 12)) * 255) / 255.0
        write_pgm(tmp_path / "r.pgm", img)
        assert np.array_equal(read_pgm(tmp_path / "r.pgm"), img)


# ---------------------------------------------------------------------------
# frame differencing
# ---------------------------------------------------------------------------

class TestFrameDifference:
    def test_identical_frames_zero(self):
        f = np.random.default_rng(0).random((8, 8))
        diff = frame_difference(f, f.copy())
        assert diff.shape == (8, 8) and np.all(diff == 0.0)

    def test_elementwise_values(self):
        # the 2x2 reference values embedded in the top-left of an 8x8 frame
        prev = np.zeros((8, 8))
        cur = np.zeros((8, 8))
        prev[:2, :2] = [[0.0, 0.5], [1.0, 0.0]]
        cur[:2, :2] = [[0.25, 0.5], [0.0, 1.0]]
        diff = frame_difference(prev, cur)
        assert np.allclose(diff[:2, :2], [[0.25, 0.0], [1.0, 1.0]])
        assert np.all(diff[2:, :] == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(errors.InputError, match=r"\(8, 8\) vs \(8, 10\)"):
            frame_difference(np.zeros((8, 8)), np.zeros((8, 10)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixels_rejected(self, bad):
        # check_clip refuses a malformed frame as it arrives, and a clip
        # that ends before its second frame when it ends
        good = np.zeros((8, 8))
        poisoned = good.copy()
        poisoned[3, 4] = bad
        for clip, message in (
            ([good], "need at least two frames"),
            ([np.zeros((7, 8))] * 2, "at least 8x8"),
            ([good, np.zeros((8, 10))], r"frame 1 is \(8, 10\), expected \(8, 8\)"),
            ([good, poisoned], "frame 1 pixels must be finite"),
        ):
            for run in (lambda c: list(check_clip(c)), run_detection,
                        lambda c: track_sequence(c, AffineState(l_x=4.0, l_y=4.0))):
                with pytest.raises(errors.InputError, match=message):
                    run(clip)

    @settings(deadline=None, max_examples=30)
    @given(
        a=arrays(np.float64, (8, 8), elements=st.floats(0, 1)),
        b=arrays(np.float64, (8, 8), elements=st.floats(0, 1)),
    )
    def test_symmetric_and_bounded(self, a, b):
        d1 = frame_difference(a, b)
        d2 = frame_difference(b, a)
        assert np.array_equal(d1, d2)
        assert d1.min() >= 0.0 and d1.max() <= 1.0


# ---------------------------------------------------------------------------
# affine warps
# ---------------------------------------------------------------------------

def enumeration_states():
    """(frame (48, 56), 100 AffineStates): random warps, many of them
    partly or wholly outside the frame."""
    rng = np.random.default_rng(7)
    frame = rng.random((48, 56))
    states = [
        AffineState(
            l_x=float(rng.uniform(-10, 66)),
            l_y=float(rng.uniform(-10, 58)),
            theta=float(rng.uniform(-np.pi, np.pi)),
            s=float(rng.uniform(0.3, 2.0)),
            alpha=float(rng.uniform(0.5, 2.0)),
            phi=float(rng.uniform(-0.5, 0.5)),
        )
        for _ in range(100)
    ]
    return frame, states


class TestWarpPatch:
    def test_identity_state_reads_region(self):
        rng = np.random.default_rng(1)
        frame = rng.random((64, 64))
        state = AffineState(l_x=30.0, l_y=26.0)  # region rows 10..41, cols 14..45
        patch = warp_patch(frame, state)
        assert np.allclose(patch, frame[10:42, 14:46], atol=1e-12)

    def test_fully_outside_is_zero(self):
        frame = np.ones((32, 32))
        state = AffineState(l_x=500.0, l_y=500.0)
        assert np.all(warp_patch(frame, state) == 0.0)

    def test_quarter_turn_on_symmetric_pattern(self):
        # pattern value depends only on max(|dr|, |dc|) from the center, so
        # it is invariant under quarter turns
        size = 64
        center = 32
        yy, xx = np.mgrid[0:size, 0:size]
        rings = np.maximum(np.abs(yy - center), np.abs(xx - center)) % 5 / 5.0
        frame = rings
        base = AffineState(l_x=float(center), l_y=float(center))
        rot = AffineState(l_x=float(center), l_y=float(center), theta=np.pi / 2)
        assert np.allclose(
            warp_patch(frame, base), warp_patch(frame, rot), atol=1e-9
        )

    def test_matches_enumeration_oracle(self):
        frame, states = enumeration_states()
        for state in states:
            got = warp_patch(frame, state)
            want = warp_reference(frame, state, 32, 32)
            assert np.allclose(got, want, atol=1e-9)

    def test_batch_equals_single_warps(self):
        rng = np.random.default_rng(9)
        frame = rng.random((48, 56))
        states = [AffineState(l_x=float(x), l_y=float(y), theta=float(t), s=float(s))
                  for x, y, t, s in zip(rng.uniform(0, 56, 5), rng.uniform(0, 48, 5),
                                        rng.uniform(-1, 1, 5), rng.uniform(0.5, 1.5, 5))]
        batch = warp_patches(frame, np.stack([state.as_array() for state in states]))
        assert batch.shape == (5, 32, 32)
        for got, state in zip(batch, states):
            assert got.tobytes() == warp_patch(frame, state).tobytes()

    @pytest.mark.parametrize("n", [1, 37])
    def test_sample_grids_bit_equal_to_meshgrid_reference(self, n):
        rng = np.random.default_rng(1000 * n + 352)
        states = np.column_stack([
            rng.uniform(-50.0, 200.0, n),  # l_x
            rng.uniform(-50.0, 100.0, n),  # l_y
            rng.uniform(-np.pi, np.pi, n),  # theta
            rng.uniform(0.2, 3.0, n),  # s
            rng.uniform(0.3, 3.0, n),  # alpha
            rng.uniform(-1.0, 1.0, n),  # phi
        ])
        got = warp_sample_grids(states)
        want = reference_warp_sample_grids(states, 32, 32)
        for g, r in zip(got, want):
            assert g.shape == r.shape == (n, 32, 32)
            assert g.tobytes() == r.tobytes()

    def test_within_1e13_of_the_previous_arithmetic(self):
        # the separable grid and the lerp regroup the warp's arithmetic,
        # so the patches move in the last bits only
        frame, states = enumeration_states()
        states = np.stack([state.as_array() for state in states])
        got = warp_patches(frame, states)
        want = previous_bilinear_sample(frame, *previous_warp_sample_grids(states, 32, 32))
        assert np.abs(got - want).max() <= 1e-13
        for h, w in BILINEAR_SHAPES:
            pixels, spans = bilinear_spans(h, w)
            for r, c in spans:
                got = _kernels.bilinear_sample(pixels, r, c)
                assert np.abs(got - previous_bilinear_sample(pixels, r, c)).max() <= 1e-13

    def test_non_positive_scale(self):
        frame = np.zeros((16, 16))
        state = AffineState(l_x=8, l_y=8)
        state.s = 0.0  # bypass constructor validation to hit the op check
        with pytest.raises(errors.InputError, match="s=0.0, alpha="):
            warp_patch(frame, state)

    def test_overflowing_warp_rejected(self):
        # s * alpha overflows to inf, and inf * 0 on the grid's centre row is nan
        state = AffineState(l_x=8, l_y=8, s=1e200, alpha=1e200)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(errors.InputError, match="affine warp overflows"):
            warp_patch(np.zeros((16, 16)), state)


# ---------------------------------------------------------------------------
# proposals and features
# ---------------------------------------------------------------------------

class TestExtractProposals:
    def test_four_proposals_on_64(self):
        _patches, centres = extract_proposals(np.zeros((64, 64)), 32, 32)
        assert centres.tolist() == [[16, 16], [16, 48], [48, 16], [48, 48]]

    def test_single_placement(self):
        patches, centres = extract_proposals(np.zeros((32, 32)), 32, 8)
        assert len(patches) == len(centres) == 1

    def test_grid_arithmetic(self):
        patches, centres = extract_proposals(np.zeros((64, 48)), 16, 16)
        assert patches.shape == (12, 16, 16)
        assert centres.shape == (12, 2)

    def test_patch_too_large(self):
        with pytest.raises(errors.InputError, match="exceeds frame"):
            extract_proposals(np.zeros((16, 16)), 17, 1)

    def test_footprints_inside_frame_and_cover_grid(self):
        rng = np.random.default_rng(3)
        pixels = rng.random((40, 56))
        patches, centres = extract_proposals(pixels, 8, 4)
        covered = np.zeros(pixels.shape, dtype=bool)
        for (r, c), patch in zip(centres, patches):
            assert patch.shape == (8, 8)
            top, left = r - 4, c - 4
            assert 0 <= top and top + 8 <= 40 and 0 <= left and left + 8 <= 56
            assert np.array_equal(patch, pixels[top : top + 8, left : left + 8])
            covered[top : top + 8, left : left + 8] = True
        # every pixel reachable by the stride grid is covered
        assert covered[: 40 - (40 - 8) % 4, : 56 - (56 - 8) % 4].all()


class TestFeatureMatrix:
    def test_zero_patch_stays_zero(self):
        fm = feature_matrix(np.zeros((1, 4, 4)))
        assert np.all(fm == 0.0)

    def test_constant_patch_normalization(self):
        fm = feature_matrix(np.full((1, 2, 2), 0.7))
        assert np.allclose(fm[:, 0], 0.5)

    def test_unit_norms_random(self):
        rng = np.random.default_rng(11)
        patches, _centres = extract_proposals(rng.random((32, 32)), 8, 8)
        fm = feature_matrix(patches)
        assert np.allclose(np.linalg.norm(fm, axis=0), 1.0, atol=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        patches = rng.random((6, 4, 4))
        fm = feature_matrix(patches)
        perm = rng.permutation(6)
        assert np.allclose(feature_matrix(patches[perm]), fm[:, perm])

    def test_empty_proposals(self):
        with pytest.raises(errors.InputError, match="no proposals to featurize"):
            feature_matrix(np.zeros((0, 4, 4)))


class TestListReference:
    """The stacked proposals, feature matrix and motion prior against the
    one-patch-at-a-time code, compared byte for byte."""

    def assert_same(self, pixels, patch_size, stride):
        patches, centres = extract_proposals(pixels, patch_size, stride)
        ref_patches, ref_centres = reference_extract_proposals(pixels, patch_size, stride)
        for got, want in (
            (patches, np.stack(ref_patches)),
            (centres, np.array(ref_centres, dtype=np.int64)),
            (feature_matrix(patches), reference_feature_matrix(ref_patches)),
            (motion_prior(patches), reference_motion_prior(ref_patches)),
        ):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_synth_clip(self):
        frames = list(synth_sequence(
            SynthSpec(64, 64, 100, [(10, 25, "burst"), (55, 70, "swap")]), seed=7
        )[0])
        self.assert_same(frames[0], 16, 8)
        for prev, cur in zip(frames, frames[1:]):
            self.assert_same(cur, 16, 8)
            self.assert_same(frame_difference(prev, cur), 16, 8)

    def test_small_patches_uneven_grid(self):
        rng = np.random.default_rng(3)
        self.assert_same(rng.random((40, 56)), 8, 4)


# ---------------------------------------------------------------------------
# streaming: a clip is read one frame at a time
# ---------------------------------------------------------------------------

class TestStreaming:
    @staticmethod
    def write_clip(directory, n_frames):
        """A 64x64 synth clip with one burst over frames 3..10, as PGMs."""
        frames, _truth = synth_sequence(SynthSpec(n_frames=n_frames, events=[(3, 10, "burst")]), seed=0)
        directory.mkdir()
        for t, pixels in enumerate(frames):
            write_pgm(directory / f"{t:04d}.pgm", pixels)
        return directory

    @pytest.mark.parametrize("command", ["detect", "track"])
    def test_peak_memory_does_not_grow_with_clip_length(self, tmp_path, command):
        # the two clips differ only by 60 still frames at the end, which a
        # run that holds the whole clip keeps as 2.0 MB of float64; what
        # does grow is the list of per-frame results, about 1.3 kB a frame
        def run(frames, out):
            extra = {
                "detect": ["--out", f"{out}_s.csv", "--events", f"{out}_e.csv"],
                "track": ["--init", "32,32,0,1,1,0", "--set", "tracker.n_particles=20", "--out", f"{out}.csv"],
            }[command]
            assert cli.main([command, str(frames), *extra]) == 0

        clips = [self.write_clip(tmp_path / f"clip{n}", n) for n in (20, 80)]
        run(clips[0], tmp_path / "warm")  # first-call set-up is not part of either peak
        peaks = []
        for frames in clips:
            tracemalloc.start()
            try:
                run(frames, tmp_path / frames.name)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        short, long = peaks
        assert abs(long - short) <= 0.1 * short, peaks

    def test_a_malformed_frame_fails_after_the_frames_before_it_are_scored(self, tmp_path, monkeypatch):
        frames = self.write_clip(tmp_path / "clip", 30)
        bad = 12
        path = frames / f"{bad:04d}.pgm"
        path.write_bytes(path.read_bytes()[:-1])
        calls = []

        def counting(name, stage):
            def counted(*args):
                calls.append(name)
                return stage(*args)

            return counted

        monkeypatch.setattr(ingest, "read_pgm", counting("read", read_pgm))
        monkeypatch.setattr(detector, "frame_difference", counting("diff", frame_difference))
        clip = load_frame_sequence(frames)
        assert calls == []  # the paths are listed, no frame is read yet
        with pytest.raises(errors.InputError, match="truncated payload"):
            run_detection(clip)
        # frame t is read before pair (t-1, t) is scored, and nothing after the bad frame
        assert calls == ["read"] + ["read", "diff"] * (bad - 1) + ["read"]

    def test_a_one_shot_iterator_scores_as_the_list(self):
        frames = list(synth_sequence(SynthSpec(n_frames=30, events=[(3, 10, "burst")]), seed=0)[0])
        assert run_detection(f for f in frames) == run_detection(frames)
        init, cfg = AffineState(l_x=32.0, l_y=32.0), TrackerConfig(n_particles=20)
        assert track_sequence((f for f in frames), init, cfg) == track_sequence(frames, init, cfg)
