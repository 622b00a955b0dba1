"""Two small cells of the detection quality table (detection_quality.py),
pinned event by event: a change to detection shows here first."""

from detection_quality import Cell, clean, noise, run_cell


def spans(result):
    return {seed: [(ev.start, ev.end) for ev in events] for seed, events in result.events.items()}


def test_clean_clips_0_to_3():
    result = run_cell(Cell("clean, seeds 0-3", clean, range(0, 4)))
    assert spans(result) == {0: [(15, 28)], 1: [(21, 34), (46, 56)], 2: [(18, 30), (42, 54), (67, 81)],
                             3: [(16, 27)]}
    assert (result.correct, result.truth, result.detected) == (7, 7, 7)


def test_noisy_clips_0_and_1():
    # sigma = 0.03: noise in every frame pair keeps the quiet frames above
    # tau_off of the clip's peak, so each clip reads as one event
    result = run_cell(Cell("sigma = 0.03, seeds 0-1", noise(0.03), range(0, 2)))
    assert spans(result) == {0: [(1, 99)], 1: [(1, 99)]}
    assert (result.correct, result.truth, result.detected) == (2, 3, 2)
