import numpy as np
import pytest

from motion_lsmd import _kernels, errors
from motion_lsmd.ingest import unit_columns, warp_patch, warp_sample_grids
from motion_lsmd.tracker import (
    _LOCAL_LAMBDA,
    _MAX_ITER,
    _TOL,
    _WARP_CHUNK,
    _block_coefficients,
    _holistic_coefficients,
    BLOCK,
    AffineState,
    MotionModelParams,
    ObservationScores,
    TemplateSet,
    TrackerConfig,
    TrackResult,
    build_local_dict,
    discriminative_confidence,
    discriminative_score,
    generative_confidence,
    make_template_set,
    map_estimate,
    propose_particles,
    score_particles,
    track_sequence,
    update_templates,
)

from oracles import (
    nn_lasso,
    reference_block_coefficients,
    reference_block_score,
    reference_local_dict,
    reference_particle_scores,
    residual_norm,
)


def square_sequence(n_frames, h=64, w=160, size=24, speed=2.0, start=(32.0, 20.0)):
    frames, centers = [], []
    cy, cx = start
    for t in range(n_frames):
        img = np.zeros((h, w))
        r0, c0 = int(round(cy - size / 2)), int(round(cx - size / 2))
        img[max(r0, 0) : r0 + size, max(c0, 0) : c0 + size] = 0.9
        frames.append(img)
        centers.append((cy, cx))
        cx += speed
    return frames, centers


def textured_templates(seed=0, size=16, m=4, q=3):
    rng = np.random.default_rng(seed)
    holistic = [rng.random((size, size)) for _ in range(m)]
    negatives = [rng.random((size, size)) for _ in range(q)]
    return TemplateSet(holistic=holistic, negatives=negatives, ages=np.zeros(m))


def holistic_scores(cands, templates, cfg=None):
    """``discriminative_confidence`` of a batch of candidates (n, h, w):
    (H_d (n,), residuals (n, 2), steps (n, 2))."""
    c_pos, c_neg, tt = _holistic_coefficients(np.asarray(cands, dtype=np.float64), templates)
    return discriminative_confidence(c_pos, c_neg, tt, templates, cfg or TrackerConfig())


def local_scores(cands, templates, cfg=None):
    """``generative_confidence`` of a batch of candidates (n, h, w):
    (H_g (n,), occlusion masks (n, h/BLOCK, w/BLOCK))."""
    cands = np.asarray(cands, dtype=np.float64)
    n, h, w = cands.shape
    c_blk, solve = _block_coefficients(cands, templates)
    h_g, occluded, _residuals, _steps = generative_confidence(c_blk, solve, templates, cfg or TrackerConfig())
    return h_g, occluded.reshape(n, h // BLOCK, w // BLOCK)


def likelihoods(cands, templates, cfg=None):
    """H_d * H_g of a batch of candidates, from the two stages."""
    return holistic_scores(cands, templates, cfg)[0] * local_scores(cands, templates, cfg)[0]


# ---------------------------------------------------------------------------
# particle proposal
# ---------------------------------------------------------------------------

class TestProposeParticles:
    def test_zero_sigma_degenerate(self):
        prev = AffineState(l_x=10.0, l_y=20.0, theta=0.1, s=1.2, alpha=0.9, phi=0.01)
        states, priors = propose_particles(prev, MotionModelParams(np.zeros(6)), 7, rng_seed=3)
        assert np.allclose(states, prev.as_array())
        assert np.all(priors == 1.0)  # sigma=0 factors contribute 1

    def test_same_seed_identical(self):
        prev = AffineState(l_x=5.0, l_y=5.0)
        a_states, a_priors = propose_particles(prev, MotionModelParams(), 50, rng_seed=11)
        b_states, b_priors = propose_particles(prev, MotionModelParams(), 50, rng_seed=11)
        assert np.array_equal(a_states, b_states)
        assert np.array_equal(a_priors, b_priors)

    def test_sample_mean_within_three_sigma(self):
        n = 100_000
        prev = AffineState(l_x=100.0, l_y=50.0)
        states, _priors = propose_particles(prev, MotionModelParams(), n, rng_seed=123)
        bound = 3.0 * 4.0 / np.sqrt(n)
        assert abs(states[:, 0].mean() - 100.0) <= bound

    def test_scale_clamped_positive(self):
        prev = AffineState(l_x=0.0, l_y=0.0, s=0.001, alpha=0.001)
        states, _priors = propose_particles(prev, MotionModelParams(np.array([0, 0, 0, 5.0, 5.0, 0])), 200, 5)
        assert np.all(states[:, 3] >= 1e-3)
        assert np.all(states[:, 4] >= 1e-3)

    def test_priors_are_density_products(self):
        prev = AffineState(l_x=3.0, l_y=-1.0, theta=0.2, s=1.1, alpha=0.8, phi=0.05)
        motion = MotionModelParams()
        states, priors = propose_particles(prev, motion, 25, rng_seed=8)
        mean = prev.as_array()
        for i in range(25):
            want = 1.0
            for j in range(6):
                sig = motion.sigma[j]
                z = (states[i, j] - mean[j]) / sig
                want *= np.exp(-0.5 * z * z) / (sig * np.sqrt(2 * np.pi))
            assert priors[i] == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# collaborative observation model
# ---------------------------------------------------------------------------

class TestDiscriminative:
    def test_template_scores_above_noise(self):
        templates = textured_templates(seed=1)
        rng = np.random.default_rng(2)
        (on_target, off_target), _eps, _steps = holistic_scores(
            [templates.holistic[0], rng.random((16, 16))], templates
        )
        assert on_target > off_target

    def test_equal_residuals_give_one(self):
        assert discriminative_score(0.4, 0.4, 0.1) == 1.0

    def test_clamped_to_upper_bound(self):
        assert discriminative_score(0.0, 10.0, 0.1) == 1e6

    def test_matches_recomputation_oracle(self):
        # recompute both residuals through the one-instance wrapper, which
        # forms X'X and X't itself instead of reading the cached Grams
        templates = textured_templates(seed=3)
        rng = np.random.default_rng(4)
        cands = rng.random((20, 16, 16))
        h_d, _eps, _steps = holistic_scores(cands, templates, TrackerConfig(lambda1=0.01))
        for cand, got in zip(cands, h_d):
            y = cand.reshape(-1) / np.linalg.norm(cand)
            eps = []
            for dictionary in (templates.holistic_dict, templates.negative_dict):
                code = nn_lasso(dictionary, y, lambda1=0.01, tol=1e-12, max_iter=3000)
                eps.append(residual_norm(dictionary, y, code.gamma))
            want = discriminative_score(eps[0], eps[1], 0.1)
            assert abs(got - want) <= 1e-8 * max(1.0, want)

    def test_empty_dictionary(self):
        templates = textured_templates(seed=5)
        templates.negatives = []
        with pytest.raises(errors.InputError, match="non-empty positive and negative dictionaries"):
            holistic_scores(np.ones((1, 16, 16)), templates)


class TestLocalDict:
    @pytest.mark.parametrize("size", [8, 16, 32, 48])
    def test_bytes_equal_block_by_block_reference(self, size):
        rng = np.random.default_rng(size)
        for m in (1, 3, 10):
            holistic = []
            for _ in range(m):
                patch = rng.standard_normal((size, size)) * 10.0 ** rng.uniform(-3, 3, (size, size))
                patch[rng.random((size, size)) < 0.2] = 0.0
                r, c = rng.integers(0, size // 8, 2)
                patch[8 * r : 8 * r + 8, 8 * c : 8 * c + 8] = 0.0  # one zero block
                holistic.append(patch)
            got = build_local_dict(holistic)
            want = reference_local_dict(holistic)
            assert got.flags.c_contiguous
            assert got.shape == want.shape == ((size // 8) ** 2, 64, m)
            assert got.tobytes() == want.tobytes()

    def test_bad_blocking(self):
        with pytest.raises(errors.InputError, match="not divisible into"):
            build_local_dict([np.ones((16, 12))])


class TestBlockCoefficients:
    """``_block_coefficients`` codes each distinct template once; its bytes
    must equal the all-slots reference's on those templates, and the
    codes on the distinct templates must give the all-slots residuals."""

    # 32x32 textures, each with one zero block; C is zero at the top left
    A, B, C, *NEGATIVES = np.random.default_rng(31).random((5, 32, 32))
    A[8:16, 16:24] = 0.0
    B[:8, 8:16] = 0.0
    C[:8, :8] = 0.0

    def by_hand(self, slots):
        return TemplateSet(holistic=[p.copy() for p in slots], negatives=self.NEGATIVES, ages=np.zeros(len(slots)))

    def by_updates(self, n_updates):
        """A first-frame set of 10 copies, then ``n_updates`` accepted
        updates with distinct patches."""
        rng = np.random.default_rng(32)
        pixels = rng.random((96, 96))
        pixels[32:48, 32:40] = 0.0  # zero blocks in every template
        templates = make_template_set(pixels, AffineState(l_x=48.0, l_y=48.0), TrackerConfig())
        for k in range(n_updates):
            patch = rng.random((32, 32))
            patch[8:16, 8:16] = 0.0
            templates = update_templates(templates, tracked(0.9, 0.0, k + 1), patch, pixels)
        return templates

    def candidates(self, n):
        rng = np.random.default_rng(33 + n)
        patches = rng.random((n, 32, 32))
        patches[0, 8:16, :8] = 0.0  # zero blocks in the candidates
        if n > 1:
            patches[1] = self.A  # exactly a template
            patches[-1] = 0.0  # no block to solve
        return patches

    def assert_matches_reference(self, templates, distinct, copy_of):
        # copy_of[s] is slot s's position in distinct: each slot holds the
        # bytes of the distinct template it is a copy of
        assert templates.distinct.tolist() == distinct
        for slot, pos in enumerate(copy_of):
            assert templates.holistic[slot].tobytes() == templates.holistic[distinct[pos]].tobytes()
        assert templates.local_dict.tobytes() == reference_local_dict(templates.holistic)[..., distinct].tobytes()
        for n in (1, 8):
            patches = self.candidates(n)
            got_c, got_solve = _block_coefficients(patches, templates)
            want_c, want_solve = reference_block_coefficients(patches, templates)
            assert got_solve.tobytes() == want_solve.tobytes()
            assert not got_solve.all()
            assert got_c.shape == (got_solve.sum(), len(distinct))
            assert want_c.shape == (got_solve.sum(), len(templates.holistic))
            assert got_c.tobytes() == want_c[:, distinct].tobytes()

    @pytest.mark.parametrize(
        "slots, distinct, copy_of",
        [
            ("AAAAAAAAAA", [0], [0] * 10),
            ("ABAAAAAAAB", [0, 1], [0, 1, 0, 0, 0, 0, 0, 0, 0, 1]),
            ("ACBCAB", [0, 1, 2], [0, 1, 2, 1, 0, 2]),
            ("A", [0], [0]),
        ],
        ids=["1-of-10", "2-of-10", "3-of-6", "1-of-1"],
    )
    def test_by_hand_bytes_equal_reference(self, slots, distinct, copy_of):
        textures = {"A": self.A, "B": self.B, "C": self.C}
        self.assert_matches_reference(self.by_hand([textures[k] for k in slots]), distinct, copy_of)

    def test_ten_distinct_by_hand(self):
        rng = np.random.default_rng(34)
        slots = [self.A, self.B, self.C] + [rng.random((32, 32)) for _ in range(7)]
        self.assert_matches_reference(self.by_hand(slots), list(range(10)), list(range(10)))

    @pytest.mark.parametrize("n_updates", [0, 1, 2, 9])
    def test_by_updates_bytes_equal_reference(self, n_updates):
        templates = self.by_updates(n_updates)
        k = n_updates + 1
        self.assert_matches_reference(templates, list(range(k)), list(range(k)) + [0] * (10 - k))

    def test_update_with_a_copy_of_the_anchor(self):
        templates = self.by_updates(1)
        again = update_templates(templates, tracked(0.9, 0.0, 7), templates.holistic[0], np.zeros((96, 96)))
        self.assert_matches_reference(again, [0, 1], [0, 1, 0, 0, 0, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("n_updates", [0, 2, 5])
    def test_distinct_solve_equals_all_slots_solve(self, n_updates):
        # a copy of a template column changes no exact code: coding the
        # distinct templates gives the residuals of coding all 10 slots
        templates = self.by_updates(n_updates)
        assert len(templates.distinct) == n_updates + 1
        patches = self.candidates(8)
        cfg = TrackerConfig()
        c_blk, solve = _block_coefficients(patches, templates)
        _h_g, _occ, got, _steps = generative_confidence(c_blk, solve, templates, cfg)
        all_c, _solve = reference_block_coefficients(patches, templates)
        all_dict = reference_local_dict(templates.holistic)
        all_grams = np.einsum("pij,pik->pjk", all_dict, all_dict)
        want, _steps = _kernels.block_residuals(
            all_grams, all_c, solve, templates.local_has_content, _LOCAL_LAMBDA, _TOL, _MAX_ITER
        )
        assert np.abs(got**2 - want**2).max() <= 1e-12

        _h_d, got, _steps = holistic_scores(patches, templates, cfg)
        v = patches.reshape(8, -1)
        nrm = np.linalg.norm(v, axis=1, keepdims=True)
        y = v / np.where(nrm > 0, nrm, 1.0)  # the last candidate is all zero
        all_dict = unit_columns(np.stack([h.reshape(-1) for h in templates.holistic], axis=1))
        _g, want_sq, _steps = _kernels.nn_lasso_gram_batch(
            (all_dict.T @ all_dict)[None], np.zeros(8, dtype=np.intp), y @ all_dict, np.vecdot(y, y),
            cfg.lambda1, _TOL, _MAX_ITER,
        )
        assert np.abs(got[:, 0] ** 2 - want_sq).max() <= 1e-12

    def test_signed_zero_counts_as_distinct(self):
        signed = self.C.copy()
        signed[0, 0] = -0.0  # C is +0.0 there
        assert np.array_equal(signed, self.C) and signed.tobytes() != self.C.tobytes()
        self.assert_matches_reference(self.by_hand([self.C, signed, self.C]), [0, 1], [0, 1, 0])


class TestGenerative:
    def test_exact_reconstruction(self):
        templates = textured_templates(seed=6, m=5)
        # assemble the candidate from per-position blocks of different templates
        cand = np.zeros((16, 16))
        picks = [0, 2, 4, 1]
        for p, (br, bc) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            src = templates.holistic[picks[p]]
            cand[br * 8 : br * 8 + 8, bc * 8 : bc * 8 + 8] = src[
                br * 8 : br * 8 + 8, bc * 8 : bc * 8 + 8
            ]
        (score,), (mask,) = local_scores([cand], templates)
        assert score == pytest.approx(1.0, abs=1e-6)
        assert not mask.any()

    def test_all_blocks_occluded(self):
        # black candidate against templates with content everywhere
        templates = textured_templates(seed=7)
        (score,), (mask,) = local_scores(np.zeros((1, 16, 16)), templates)
        assert score == 0.0
        assert mask.all()

    def test_half_zeroed_blocks(self):
        templates = textured_templates(seed=8)
        cand = templates.holistic[0].copy()
        cand[:, 8:] = 0.0  # zero out the right half: 2 of 4 blocks
        _score, (mask,) = local_scores([cand], templates)
        assert mask.mean() == pytest.approx(0.5, abs=0.25)  # one block granularity

    def test_empty_against_empty_is_fine(self):
        # both template and candidate black in a region: agreement, not occlusion
        holistic = [np.zeros((16, 16)) for _ in range(3)]
        for h in holistic:
            h[:8, :8] = 0.5
        templates = TemplateSet(holistic=holistic, negatives=[np.ones((16, 16))], ages=np.zeros(3))
        (score,), (mask,) = local_scores([holistic[0]], templates)
        assert not mask.any()
        assert score == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("eps_occ", [0.15, 1e-320])
    def test_block_score_matches_per_candidate_sums(self, monkeypatch, eps_occ):
        # one masked row sum per candidate against a sum over each
        # candidate's unoccluded blocks alone, with the block residuals
        # set: a candidate with every block occluded, one with none (zero
        # and subnormal residuals) and mixed ones; at eps_occ = 1e-320 the
        # occluded blocks' terms are -inf
        rng = np.random.default_rng(11)
        P = 16
        mixed = rng.uniform(0.0, 0.3, (6, P))
        mixed[mixed < 0.05] = 0.0
        residuals = np.vstack([rng.uniform(0.2, 1.0, P), np.tile([0.0, 5e-321], P // 2), mixed])
        monkeypatch.setattr(_kernels, "block_residuals",
                            lambda *_args: (residuals.copy(), np.ones(residuals.shape, dtype=np.int64)))
        cfg = TrackerConfig(eps_occ=eps_occ)
        h_g, occluded, _residuals, _steps = generative_confidence(None, None, textured_templates(), cfg)
        assert occluded[0].all() and not occluded[1].any() and occluded[2:].any(axis=1).all()
        with np.errstate(over="ignore"):
            assert np.isneginf(1.0 - residuals / eps_occ).any() == (eps_occ < 1e-300)
        assert np.isfinite(h_g).all()
        assert h_g[0] == 0.0
        want = reference_block_score(residuals, eps_occ)
        assert np.abs(h_g - want).max() <= P * np.finfo(np.float64).eps

    def test_bad_blocking(self):
        templates = textured_templates(seed=9)
        with pytest.raises(errors.InputError, match="not divisible into"):
            local_scores(np.ones((1, 12, 12)), templates)


class TestObservationLikelihood:
    def test_zero_generative_zeroes_product(self):
        templates = textured_templates(seed=10)
        (like,) = likelihoods(np.zeros((1, 16, 16)), templates)
        assert like == 0.0

    def test_non_negative(self):
        templates = textured_templates(seed=11)
        rng = np.random.default_rng(12)
        assert np.all(likelihoods(rng.random((10, 16, 16)), templates) >= 0.0)

    def test_monotone_in_positive_residual(self):
        grid = np.linspace(0.0, 2.0, 41)
        scores = [discriminative_score(e, 0.5, 0.1) for e in grid]
        assert all(a >= b for a, b in zip(scores, scores[1:]))


class TestBatchedScoring:
    # The square sits in the top-left corner and the templates are cut
    # off-centre, so particles reach past the frame edge (zero blocks
    # against template content) and the templates hold empty blocks
    # (empty-vs-empty); every accepted MAP updates the templates. sigma_c
    # and eps_occ are off their defaults, so the reference shows whether
    # score_particles reads them from cfg.
    cfg = TrackerConfig(
        n_particles=16, seed=5, tau_update=0.0, occ_gate=1.0, sigma_c=0.2, eps_occ=0.3,
        motion=MotionModelParams(np.array([6.0, 6.0, 0.05, 0.02, 0.01, 0.005])),
    )

    def case(self):
        frames, centers = square_sequence(4, start=(14.0, 14.0))
        init = AffineState(l_x=centers[0][1] + 10.0, l_y=centers[0][0])
        return frames, init, make_template_set(frames[0], init, self.cfg)

    def test_matches_scalar_reference(self):
        cfg = self.cfg
        frames, prev, templates = self.case()
        h, w = frames[0].shape
        seen = dict.fromkeys(("outside", "blacked_out", "empty_vs_empty", "iterated", "updated"), 0)
        for t in range(1, len(frames)):
            obs = frames[t]
            states, priors = propose_particles(prev, cfg.motion, cfg.n_particles, 100 + t)
            got = score_particles(obs, states, templates, cfg)
            want = reference_particle_scores(obs, states, templates, cfg)
            # near-zero block residuals are the square root of rounding noise
            assert np.allclose(got.holistic_residuals, want["holistic_residuals"], rtol=0.0, atol=1e-7)
            assert np.allclose(got.block_residuals, want["block_residuals"], rtol=0.0, atol=1e-7)
            assert np.allclose(got.likelihood, want["likelihood"], rtol=1e-6, atol=0.0)
            assert np.array_equal(got.occluded, want["occluded"])
            assert (got.holistic_steps >= 1).all() and (got.holistic_steps < _MAX_ITER).all()
            assert (got.block_steps < _MAX_ITER).all()
            assert np.argmax(got.likelihood * priors) == np.argmax(want["likelihood"] * priors)

            rows, cols = warp_sample_grids(states)
            seen["outside"] += int(((rows < 0) | (cols < 0) | (rows > h - 1) | (cols > w - 1)).any(axis=(1, 2)).sum())
            empty = got.block_steps == 0
            seen["blacked_out"] += int((empty & templates.local_has_content).sum())
            seen["empty_vs_empty"] += int((empty & ~templates.local_has_content).sum())
            seen["iterated"] += int((got.block_steps > 2).sum())

            result = map_estimate(states, priors, got, prev, t)
            patch = warp_patch(obs, result.state)
            updated = update_templates(templates, result, patch, obs, cfg)
            seen["updated"] += updated is not templates
            templates, prev = updated, result.state
        assert all(seen.values()), seen

    def test_score_independent_of_batch_position(self):
        frames, prev, templates = self.case()
        obs = frames[1]
        # several warp chunks, the last one of a single particle
        states, _priors = propose_particles(prev, self.cfg.motion, 3 * _WARP_CHUNK + 1, 7)
        assert len(states) % _WARP_CHUNK == 1
        got = score_particles(obs, states, templates, self.cfg)
        perm = np.random.default_rng(3).permutation(len(states))
        again = score_particles(obs, states[perm], templates, self.cfg)
        for field in ("likelihood", "occluded", "holistic_residuals", "block_residuals",
                      "holistic_steps", "block_steps"):
            assert np.array_equal(getattr(again, field), getattr(got, field)[perm]), field


# ---------------------------------------------------------------------------
# MAP estimate
# ---------------------------------------------------------------------------

PREV = AffineState(l_x=1.0, l_y=2.0)


def map_of(weights, priors=None, occluded=None, frame_index=3):
    """map_estimate over len(weights) distinct states whose scores have
    the given likelihoods and (n, 16) occlusion masks (none occluded by
    default), after PREV."""
    n = len(weights)
    states = np.tile(PREV.as_array(), (n, 1))
    states[:, 0] += np.arange(n)  # distinct states
    scores = ObservationScores(
        likelihood=np.asarray(weights, dtype=np.float64),
        occluded=np.zeros((n, 16), dtype=bool) if occluded is None else occluded,
        holistic_residuals=np.zeros((n, 2)),
        block_residuals=np.zeros((n, 16)),
        holistic_steps=np.zeros((n, 2), dtype=np.int64),
        block_steps=np.zeros((n, 16), dtype=np.int64),
    )
    priors = np.ones(n) if priors is None else np.asarray(priors, float)
    return map_estimate(states, priors, scores, PREV, frame_index)


class TestMapEstimate:
    def test_single_particle(self):
        res = map_of([0.7])
        assert res.confidence == 1.0
        assert res.state.l_x == 1.0

    def test_tie_breaks_to_lowest_index(self):
        res = map_of([0.1, 0.9, 0.9])
        assert res.state.l_x == 2.0  # particle index 1

    def test_rescaling_invariance(self):
        base = map_of([0.2, 0.5, 0.3])
        scaled = map_of([2.0, 5.0, 3.0])
        assert scaled.state == base.state
        assert scaled.confidence == pytest.approx(base.confidence)

    def test_motion_prior_weighting(self):
        res = map_of([0.5, 0.5], priors=[0.1, 0.9])
        assert res.state.l_x == 2.0

    def test_occlusion_is_the_winners_share_of_occluded_blocks(self):
        occluded = np.zeros((3, 16), dtype=bool)
        occluded[0, :12] = True
        occluded[1, [0, 3, 7, 8, 15]] = True
        occluded[2] = True
        res = map_of([0.1, 0.8, 0.1], occluded=occluded, frame_index=6)
        assert res.state.l_x == 2.0  # particle 2 of 3
        assert res.occlusion_fraction == 5 / 16
        assert res.frame_index == 6
        assert not res.degenerate

    def test_all_zero_weights_degenerate(self):
        res = map_of([0.0, 0.0], frame_index=7)
        assert res.degenerate
        assert res.confidence == 0.0
        assert res.occlusion_fraction == 0.0
        assert res.state == PREV
        assert res.frame_index == 7


# ---------------------------------------------------------------------------
# template update
# ---------------------------------------------------------------------------

def tracked(conf, occ, frame_index=5):
    return TrackResult(
        state=AffineState(l_x=20.0, l_y=20.0),
        confidence=conf,
        occlusion_fraction=occ,
        frame_index=frame_index,
    )


class TestUpdateTemplates:
    def setup_method(self):
        rng = np.random.default_rng(20)
        self.frame = rng.random((64, 64))
        self.cfg = TrackerConfig(n_templates=4)
        self.templates = make_template_set(self.frame, AffineState(l_x=32.0, l_y=32.0), self.cfg)
        self.patch = rng.random((32, 32))

    def test_occlusion_gate_blocks_update(self):
        out = update_templates(self.templates, tracked(0.9, 0.9), self.patch, self.frame, self.cfg)
        assert out is self.templates

    def test_low_confidence_blocks_update(self):
        out = update_templates(self.templates, tracked(0.1, 0.0), self.patch, self.frame, self.cfg)
        assert out is self.templates

    def test_accepted_update_replaces_one_slot(self):
        out = update_templates(self.templates, tracked(0.9, 0.0), self.patch, self.frame, self.cfg)
        assert out is not self.templates
        changed = [
            i
            for i in range(4)
            if not np.array_equal(out.holistic[i], self.templates.holistic[i])
        ]
        assert changed == [1]  # oldest replaceable slot, ties to lowest
        assert np.array_equal(out.holistic[0], self.templates.holistic[0])

    def test_consecutive_updates_hit_different_slots(self):
        first = update_templates(self.templates, tracked(0.9, 0.0, 5), self.patch, self.frame, self.cfg)
        second_patch = self.patch * 0.5
        second = update_templates(first, tracked(0.9, 0.0, 6), second_patch, self.frame, self.cfg)
        assert np.array_equal(second.holistic[1], self.patch)
        assert np.array_equal(second.holistic[2], second_patch)
        assert np.array_equal(second.holistic[0], self.templates.holistic[0])

    def test_ring_negative_overflow_is_an_input_error(self):
        # the ring radius 1.5 * 32 * s overflows; the tracked state itself is finite
        result = TrackResult(
            state=AffineState(l_x=20.0, l_y=20.0, s=1e307), confidence=0.9, occlusion_fraction=0.0, frame_index=5
        )
        with pytest.raises(errors.InputError, match="ring negative centre overflows"):
            update_templates(self.templates, result, self.patch, self.frame, self.cfg)

    def test_negatives_refreshed_deterministically(self):
        a = update_templates(self.templates, tracked(0.9, 0.0), self.patch, self.frame, self.cfg)
        b = update_templates(self.templates, tracked(0.9, 0.0), self.patch, self.frame, self.cfg)
        assert len(a.negatives) == 4
        for na, nb in zip(a.negatives, b.negatives):
            assert np.array_equal(na, nb)


# ---------------------------------------------------------------------------
# sequence tracking
# ---------------------------------------------------------------------------

class TestTrackSequence:
    def test_static_target_zero_sigma_constant(self):
        frames, centers = square_sequence(5, speed=0.0)
        init = AffineState(l_x=centers[0][1], l_y=centers[0][0])
        cfg = TrackerConfig(n_particles=4, motion=MotionModelParams(np.zeros(6)), seed=1)
        results = track_sequence(frames, init, cfg)
        assert all(r.state == init for r in results)

    def test_translating_square_small(self):
        frames, centers = square_sequence(20)
        init = AffineState(l_x=centers[0][1], l_y=centers[0][0])
        cfg = TrackerConfig(n_particles=80, seed=3)
        results = track_sequence(frames, init, cfg)
        errs = [
            np.hypot(r.state.l_x - centers[r.frame_index][1], r.state.l_y - centers[r.frame_index][0])
            for r in results
        ]
        assert np.mean(errs) <= 3.0

    @pytest.mark.parametrize("cell, mean_err, max_err", [("bar", 0.5842, 1.6277), ("texture", 0.5661, 1.2910)])
    def test_tracker_quality_cell(self, cell, mean_err, max_err):
        # criterion 6's scene and seed with a 0.3 bar drawn over the square,
        # or on a texture under it; only the centre error is pinned, since
        # the texture reads 0.688 occluded with no occluder at all
        frames, centers = square_sequence(50)
        if cell == "bar":
            for img in frames:
                img[:, 70:80] = 0.3
        else:
            texture = np.random.default_rng(107).random((64, 160)) * 0.4
            frames = [np.where(img > 0, img, texture) for img in frames]
        init = AffineState(l_x=centers[0][1], l_y=centers[0][0])
        results = track_sequence(frames, init, TrackerConfig(n_particles=300, seed=7))
        errs = [
            np.hypot(r.state.l_x - centers[r.frame_index][1], r.state.l_y - centers[r.frame_index][0])
            for r in results
        ]
        assert abs(np.mean(errs) - mean_err) <= 0.01
        assert abs(np.max(errs) - max_err) <= 0.01

    def test_deterministic_given_seed(self):
        frames, centers = square_sequence(6)
        init = AffineState(l_x=centers[0][1], l_y=centers[0][0])
        cfg = TrackerConfig(n_particles=40, seed=9)
        a = track_sequence(frames, init, cfg)
        b = track_sequence(frames, init, cfg)
        for ra, rb in zip(a, b):
            assert ra.state == rb.state
            assert ra.confidence == rb.confidence
            assert ra.occlusion_fraction == rb.occlusion_fraction

    def test_init_out_of_bounds(self):
        frames, _ = square_sequence(3)
        with pytest.raises(errors.InputError, match="init center"):
            track_sequence(frames, AffineState(l_x=1000.0, l_y=5.0), TrackerConfig(n_particles=2))

    def test_too_few_frames(self):
        frames, _ = square_sequence(3)
        with pytest.raises(errors.InputError, match="need at least two frames"):
            track_sequence(frames[:1], AffineState(l_x=20.0, l_y=32.0), TrackerConfig(n_particles=2))

    def test_weighting_order_independent(self):
        # likelihoods are pure per-particle functions: scoring the particles
        # one at a time, forward or reversed, stores the arrays that scoring
        # them as one batch gives
        frames, centers = square_sequence(3)
        obs = frames[1]
        cfg = TrackerConfig(n_particles=16, seed=4)
        templates = make_template_set(frames[0], AffineState(l_x=centers[0][1], l_y=centers[0][0]), cfg)
        states, _priors = propose_particles(AffineState(l_x=centers[0][1], l_y=centers[0][0]), cfg.motion, 16, 77)

        def weigh(order):
            likes = np.empty(16)
            for i in order:
                likes[i] = score_particles(obs, states[i : i + 1], templates, cfg).likelihood[0]
            return likes

        forward = weigh(range(16))
        backward = weigh(reversed(range(16)))
        assert np.array_equal(forward, backward)
        assert np.array_equal(forward, score_particles(obs, states, templates, cfg).likelihood)
