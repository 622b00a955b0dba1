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
from motion_lsmd.ingest import Frame, FrameSequence

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
        with pytest.raises(errors.EmptyScores):
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
        with pytest.raises(errors.BadThresholds):
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
        detected = [EventInterval(0, 10)]
        truth = [EventInterval(0, 5), EventInterval(6, 10)]
        assert match_events(detected, truth) == 1

    def test_unsorted_raises(self):
        with pytest.raises(errors.UnsortedInput):
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
        with pytest.raises(errors.NegativeCounts):
            aggregate_report([ReportRow("x", 10, -1, 0)])

    def test_correct_exceeding_events(self):
        with pytest.raises(errors.NegativeCounts):
            aggregate_report([ReportRow("x", 10, 1, 2)])


# ---------------------------------------------------------------------------
# synthetic sequences
# ---------------------------------------------------------------------------

def diff_energies(seq):
    return np.array(
        [np.abs(seq.frames[t].pixels - seq.frames[t - 1].pixels).mean() for t in range(1, len(seq))]
    )


class TestSynthSequence:
    def test_deterministic(self):
        spec = SynthSpec(64, 64, 30, [(10, 20, "burst")])
        a, _ = synth_sequence(spec, seed=5)
        b, _ = synth_sequence(spec, seed=5)
        for fa, fb in zip(a.frames, b.frames):
            assert np.array_equal(fa.pixels, fb.pixels)

    def test_no_events_noise_floor(self):
        seq, truth = synth_sequence(SynthSpec(64, 64, 40, []), seed=2)
        assert truth == []
        energies = diff_energies(seq)
        floor = energies.mean()
        assert energies.max() <= 3.0 * floor + 1e-12

    def test_burst_energy_dominates(self):
        seq, _ = synth_sequence(SynthSpec(64, 64, 60, [(20, 40, "burst")]), seed=3)
        energies = diff_energies(seq)
        inside = energies[20:40].mean()
        outside = np.concatenate([energies[:19], energies[41:]]).mean()
        assert inside >= 5.0 * max(outside, 1e-12)

    def test_swap_moves_both_blobs(self):
        seq, _ = synth_sequence(SynthSpec(64, 64, 40, [(10, 25, "swap")]), seed=4)
        energies = diff_energies(seq)
        assert energies[10:25].min() > 0.0

    def test_event_out_of_range(self):
        with pytest.raises(errors.EventOutOfRange):
            synth_sequence(SynthSpec(64, 64, 30, [(10, 30, "burst")]), seed=0)

    def test_unknown_kind(self):
        with pytest.raises(errors.EventOutOfRange):
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
        with pytest.raises(errors.EventOutOfRange, match="share frame"):
            synth_sequence(SynthSpec(64, 64, 30, events), seed=0)

    def test_frames_outside_events_repeat_their_predecessor(self):
        events = [(10, 22, "burst"), (34, 46, "swap")]
        seq, _ = synth_sequence(SynthSpec(64, 64, 60, events), seed=9)
        inside = {t for s, e, _k in events for t in range(s, e + 1)}
        for t in range(1, len(seq)):
            same = seq.frames[t].pixels.tobytes() == seq.frames[t - 1].pixels.tobytes()
            assert same == (t not in inside), t


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

class TestRunDetection:
    def test_static_sequence_no_events(self):
        pixels = np.random.default_rng(1).random((64, 64))
        seq = FrameSequence([Frame(pixels.copy(), i) for i in range(10)], "static")
        scores, events = run_detection(seq, DetectorConfig())
        assert all(s.lsmd_energy == 0.0 for s in scores)
        assert events == []

    def test_single_burst_detected(self):
        seq, truth = synth_sequence(SynthSpec(64, 64, 100, [(40, 60, "burst")]), seed=3)
        scores, events = run_detection(seq, DetectorConfig())
        assert len(events) == 1
        assert match_events(events, truth) == 1

    def test_contrast_invariance(self):
        seq, _ = synth_sequence(SynthSpec(64, 64, 60, [(20, 40, "burst")]), seed=7)
        halved = FrameSequence(
            [Frame(f.pixels * 0.5, f.index) for f in seq.frames], "halved"
        )
        cfg = DetectorConfig()
        _s1, ev1 = run_detection(seq, cfg)
        _s2, ev2 = run_detection(halved, cfg)
        assert [(e.start, e.end) for e in ev1] == [(e.start, e.end) for e in ev2]

    @pytest.mark.parametrize("case", ["burst-swap", "noisy"])
    def test_energies_equal_full_path_reference(self, case):
        # frames without motion skip the tree and LSMD; every energy must
        # still carry the bits (sign of zero included) of the full path
        seq, _ = synth_sequence(SynthSpec(64, 64, 100, [(20, 35, "burst"), (60, 80, "swap")]), seed=5)
        cfg = DetectorConfig()
        if case == "noisy":
            rng = np.random.default_rng(5005)
            seq = FrameSequence(
                [Frame(np.clip(f.pixels + rng.normal(0.0, 0.03, f.pixels.shape), 0.0, 1.0), f.index)
                 for f in seq.frames],
                "noisy",
            )
            assert all(not np.array_equal(a.pixels, b.pixels) for a, b in zip(seq.frames, seq.frames[1:]))
        else:
            assert any(np.array_equal(a.pixels, b.pixels) for a, b in zip(seq.frames, seq.frames[1:]))
        scores, _ = run_detection(seq, cfg)
        want = [reference_frame_energy(seq, t, cfg).hex() for t in range(1, len(seq))]
        assert [sc.lsmd_energy.hex() for sc in scores] == want
