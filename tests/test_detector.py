import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motion_lsmd import errors
from motion_lsmd.detector import (
    DetectorConfig,
    EventInterval,
    FrameScore,
    ReportRow,
    SynthSpec,
    aggregate_report,
    detect_events,
    frame_activity_energy,
    match_events,
    run_detection,
    synth_sequence,
)

from oracles import reference_frame_energy
from report_fixture import ACCURACY, ROWS, TOTAL_CORRECT, TOTAL_EVENTS, TOTAL_FRAMES


def scores_from(values, start=0):
    return [FrameScore(frame=start + i, lsmd_energy=v) for i, v in enumerate(values)]


# ---------------------------------------------------------------------------
# frame energy
# ---------------------------------------------------------------------------

class TestFrameActivityEnergy:
    def test_all_zero(self):
        assert frame_activity_energy(np.zeros(10)) == 0.0

    def test_top_ten_percent_single(self):
        scores = np.zeros(10)
        scores[3] = 1.0
        assert frame_activity_energy(scores) == 1.0

    def test_homogeneous(self):
        rng = np.random.default_rng(0)
        scores = rng.random(37)
        assert frame_activity_energy(3.5 * scores) == pytest.approx(
            3.5 * frame_activity_energy(scores)
        )

    def test_empty(self):
        with pytest.raises(errors.InputError, match="no proposal scores"):
            frame_activity_energy(np.array([]))


# ---------------------------------------------------------------------------
# hysteresis
# ---------------------------------------------------------------------------

class TestDetectEvents:
    def test_all_zero(self):
        assert detect_events(scores_from([0.0] * 7), 0.5, 0.5, 2) == []

    def test_walkthrough(self):
        events = detect_events(scores_from([0, 0, 1, 1, 1, 0, 0]), 0.5, 0.5, 2)
        assert [(e.start, e.end) for e in events] == [(2, 4)]
        assert events[0].peak == 1.0

    def test_constant_above_threshold(self):
        events = detect_events(scores_from([0.9] * 6), 0.5, 0.35, 2)
        assert [(e.start, e.end) for e in events] == [(0, 5)]

    def test_hysteresis_keeps_event_open(self):
        # dips to 0.4 stay open with tau_off=0.35 but close with 0.5
        vals = [0, 0.9, 0.4, 0.9, 0]
        both = detect_events(scores_from(vals), 0.5, 0.35, 1)
        assert [(e.start, e.end) for e in both] == [(1, 3)]
        split = detect_events(scores_from(vals), 0.5, 0.5, 1)
        assert [(e.start, e.end) for e in split] == [(1, 1), (3, 3)]

    def test_min_len_filters(self):
        events = detect_events(scores_from([0, 1, 0, 1, 1, 1, 0]), 0.5, 0.5, 3)
        assert [(e.start, e.end) for e in events] == [(3, 5)]

    def test_bad_thresholds(self):
        with pytest.raises(errors.InputError, match="tau_off 0.5 > tau_on 0.3"):
            detect_events(scores_from([0.0]), 0.3, 0.5, 1)

    @settings(deadline=None, max_examples=40)
    @given(vals=st.lists(st.floats(0, 1), min_size=1, max_size=60))
    def test_output_disjoint_sorted_long_enough(self, vals):
        events = detect_events(scores_from(vals), 0.6, 0.3, 3)
        for ev in events:
            assert ev.length() >= 3
        for a, b in zip(events, events[1:]):
            assert a.end < b.start


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

class TestMatchEvents:
    def test_identical_lists(self):
        truth = [EventInterval(0, 5), EventInterval(10, 20)]
        assert match_events(list(truth), truth) == 2

    def test_empty_detected(self):
        assert match_events([], [EventInterval(0, 5)]) == 0

    def test_overlap_rule_arithmetic(self):
        # intersection 3 < 50% of the shorter (11 frames)
        assert match_events([EventInterval(18, 40)], [EventInterval(10, 20)]) == 0

    def test_half_overlap_passes(self):
        # intersection 6 >= 0.5 * 11
        assert match_events([EventInterval(15, 40)], [EventInterval(10, 20)]) == 1

    def test_one_to_one(self):
        # a detection matches at most one truth event, however long it is:
        # the half-of-the-shorter rule lets one whole-clip detection count
        # as correct, and a change to that must be deliberate
        for detected, truth in (
            ([EventInterval(0, 10)], [EventInterval(0, 5), EventInterval(6, 10)]),
            ([EventInterval(1, 99)], [EventInterval(10, 22)]),
            ([EventInterval(1, 99)], [EventInterval(10, 22), EventInterval(40, 52)]),
        ):
            assert match_events(detected, truth) == 1, truth

    def test_unsorted_raises(self):
        with pytest.raises(errors.InputError, match="must be sorted and disjoint"):
            match_events([EventInterval(5, 10), EventInterval(0, 4)], [])

    def test_adding_detection_never_decreases(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            def random_intervals(n):
                out, cursor = [], 0
                for _ in range(n):
                    cursor += int(rng.integers(1, 6))
                    length = int(rng.integers(1, 8))
                    out.append(EventInterval(cursor, cursor + length))
                    cursor += length + 1
                return out

            truth = random_intervals(int(rng.integers(1, 5)))
            detected = random_intervals(int(rng.integers(1, 5)))
            base = match_events(detected, truth)
            # drop one detection: the count must not increase
            for i in range(len(detected)):
                fewer = detected[:i] + detected[i + 1 :]
                assert match_events(fewer, truth) <= base


# ---------------------------------------------------------------------------
# report aggregation
# ---------------------------------------------------------------------------

class TestAggregateReport:
    def test_known_row_echoed(self):
        report = aggregate_report([ReportRow("Omar Yun1", 510, 6, 4)])
        assert report.rows[0] == ReportRow("Omar Yun1", 510, 6, 4)
        assert report.totals.num_events == 6

    def test_full_table_totals(self):
        report = aggregate_report([ReportRow(*r) for r in ROWS])
        assert report.totals.total_frames == TOTAL_FRAMES
        assert report.totals.num_events == TOTAL_EVENTS
        assert report.totals.correct_detections == TOTAL_CORRECT
        assert report.accuracy == pytest.approx(ACCURACY, abs=1e-12)

    def test_empty_input(self):
        report = aggregate_report([])
        assert report.totals == ReportRow("TOTAL", 0, 0, 0)
        assert report.accuracy is None

    def test_negative_counts(self):
        with pytest.raises(errors.InputError, match="negative count in row"):
            aggregate_report([ReportRow("x", 10, -1, 0)])

    def test_correct_exceeding_events(self):
        with pytest.raises(errors.InputError, match="exceeds events"):
            aggregate_report([ReportRow("x", 10, 1, 2)])


# ---------------------------------------------------------------------------
# synthetic sequences
# ---------------------------------------------------------------------------

def diff_energies(frames):
    return np.array([np.abs(cur - prev).mean() for prev, cur in zip(frames, frames[1:])])


class TestSynthSequence:
    def test_deterministic(self):
        spec = SynthSpec(64, 64, 30, [(10, 20, "burst")])
        a, _ = synth_sequence(spec, seed=5)
        b, _ = synth_sequence(spec, seed=5)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    def test_no_events_noise_floor(self):
        frames, truth = synth_sequence(SynthSpec(64, 64, 40, []), seed=2)
        frames = list(frames)
        assert truth == []
        energies = diff_energies(frames)
        floor = energies.mean()
        assert energies.max() <= 3.0 * floor + 1e-12

    def test_burst_energy_dominates(self):
        frames = list(synth_sequence(SynthSpec(64, 64, 60, [(20, 40, "burst")]), seed=3)[0])
        energies = diff_energies(frames)
        inside = energies[20:40].mean()
        outside = np.concatenate([energies[:19], energies[41:]]).mean()
        assert inside >= 5.0 * max(outside, 1e-12)

    def test_swap_moves_both_blobs(self):
        frames = list(synth_sequence(SynthSpec(64, 64, 40, [(10, 25, "swap")]), seed=4)[0])
        energies = diff_energies(frames)
        assert energies[10:25].min() > 0.0

    def test_event_out_of_range(self):
        with pytest.raises(errors.InputError, match=r"outside \[0, 30\)"):
            synth_sequence(SynthSpec(64, 64, 30, [(10, 30, "burst")]), seed=0)

    def test_unknown_kind(self):
        with pytest.raises(errors.InputError, match="unknown event kind"):
            synth_sequence(SynthSpec(64, 64, 30, [(1, 5, "melt")]), seed=0)

    def test_truth_sorted(self):
        _, truth = synth_sequence(
            SynthSpec(64, 64, 60, [(30, 40, "swap"), (5, 15, "burst")]), seed=6
        )
        assert [(t.start, t.end) for t in truth] == [(5, 15), (30, 40)]

    @pytest.mark.parametrize(
        "events",
        [
            [(10, 20, "burst"), (15, 25, "swap")],
            [(10, 20, "burst"), (20, 25, "swap")],
            [(20, 25, "swap"), (10, 20, "burst")],
            [(10, 20, "burst"), (10, 12, "swap")],
        ],
        ids=["overlap", "shared-end-frame", "unsorted-shared-frame", "shared-start"],
    )
    def test_events_sharing_a_frame_rejected(self, events):
        with pytest.raises(errors.InputError, match="share frame"):
            synth_sequence(SynthSpec(64, 64, 30, events), seed=0)

    def test_frames_outside_events_repeat_their_predecessor(self):
        events = [(10, 22, "burst"), (34, 46, "swap")]
        frames = list(synth_sequence(SynthSpec(64, 64, 60, events), seed=9)[0])
        inside = {t for s, e, _k in events for t in range(s, e + 1)}
        for t in range(1, len(frames)):
            same = frames[t].tobytes() == frames[t - 1].tobytes()
            assert same == (t not in inside), t


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

class TestRunDetection:
    def test_static_sequence_no_events(self):
        pixels = np.random.default_rng(1).random((64, 64))
        frames = [pixels.copy() for _ in range(10)]
        scores, events = run_detection(frames, DetectorConfig())
        assert all(s.lsmd_energy == 0.0 for s in scores)
        assert events == []

    def test_single_burst_detected(self):
        frames, truth = synth_sequence(SynthSpec(64, 64, 100, [(40, 60, "burst")]), seed=3)
        scores, events = run_detection(frames, DetectorConfig())
        assert len(events) == 1
        assert match_events(events, truth) == 1

    def test_contrast_invariance(self):
        frames = list(synth_sequence(SynthSpec(64, 64, 60, [(20, 40, "burst")]), seed=7)[0])
        halved = [f * 0.5 for f in frames]
        cfg = DetectorConfig()
        _s1, ev1 = run_detection(frames, cfg)
        _s2, ev2 = run_detection(halved, cfg)
        assert [(e.start, e.end) for e in ev1] == [(e.start, e.end) for e in ev2]

    @pytest.mark.parametrize("case", ["burst-swap", "noisy"])
    def test_energies_equal_full_path_reference(self, case):
        # frames without motion skip the tree and LSMD; every energy must
        # still carry the bits (sign of zero included) of the full path
        frames = list(synth_sequence(SynthSpec(64, 64, 100, [(20, 35, "burst"), (60, 80, "swap")]), seed=5)[0])
        cfg = DetectorConfig()
        if case == "noisy":
            rng = np.random.default_rng(5005)
            frames = [np.clip(f + rng.normal(0.0, 0.03, f.shape), 0.0, 1.0) for f in frames]
            assert all(not np.array_equal(a, b) for a, b in zip(frames, frames[1:]))
        else:
            assert any(np.array_equal(a, b) for a, b in zip(frames, frames[1:]))
        scores, _ = run_detection(frames, cfg)
        want = [reference_frame_energy(frames, t, cfg).hex() for t in range(1, len(frames))]
        assert [sc.lsmd_energy.hex() for sc in scores] == want
