"""Particle-filter tracking with a collaborative sparse appearance model.

The appearance model scores raw frames: the templates are cut from
frame 0, and frame t is observed as it is. Per frame, over arrays:
propose particle states and their prior densities from a six-parameter
Gaussian motion model, weight each candidate patch by the product of a
discriminative score (holistic templates vs background) and a
generative score (local 8x8 blocks with occlusion masking), take the
MAP particle, and update the template set when gates allow.

A frame's particles are scored as one batch (``score_particles``), the
tracker's one scorer: batched warps, then two stages that code every
particle at once with the package's one non-negative lasso solver, the
active-set kernel ``_kernels.nn_lasso_gram_batch``, which solves each
code exactly. ``discriminative_confidence`` runs it once per holistic
dictionary over all particles, and ``generative_confidence`` once over
the blocks of the whole frame, through ``_kernels.block_residuals``.
Since the codes are exact, a copy of a template column changes no
residual, so both stages code the distinct templates only
(``TemplateSet.distinct``). Each problem is solved in its own arithmetic
order, so a particle's scores do not depend on the batch it falls in.
Every stage is called through this module's globals, so a wrapper set
there (perfbench's tracer, a test's call counter) sees every call.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .errors import InputError
from .ingest import (
    CANONICAL_SIZE,
    Patch,
    check_clip,
    unit_columns,
    warp_patch,
    warp_patches,
)


@dataclass
class AffineState:
    """Six-parameter target state: translation, rotation, scale, aspect, skew."""

    l_x: float
    l_y: float
    theta: float = 0.0
    s: float = 1.0
    alpha: float = 1.0
    phi: float = 0.0

    def __post_init__(self):
        vals = self.as_array()
        if not np.all(np.isfinite(vals)):
            raise ValueError("affine state must be finite")
        if self.s <= 0 or self.alpha <= 0:
            raise ValueError("scale and aspect ratio must be > 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.l_x, self.l_y, self.theta, self.s, self.alpha, self.phi])

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "AffineState":
        return cls(*(float(v) for v in arr))


@dataclass
class MotionModelParams:
    """Per-parameter Gaussian std-devs, ordered like AffineState's fields."""

    sigma: np.ndarray = field(
        default_factory=lambda: np.array([4.0, 4.0, 0.02, 0.01, 0.002, 0.001])
    )

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.sigma.shape != (6,) or np.any(self.sigma < 0):
            raise ValueError("sigma must be 6 non-negative reals")


@dataclass
class TemplateSet:
    """Holistic template dictionary plus per-position local block dictionary.

    Slot 0 holds the first-frame template and is never replaced. The
    fields after ``ages`` are derived caches, built by ``__post_init__``;
    the negative ones stay None when there are no negatives. ``distinct``
    holds the slot of the first copy of each distinct template (equal
    float64 bytes), in slot order. A new set holds m copies of one patch,
    and each update replaces one slot; a copy adds a column that changes
    no exact code's residual, so the holistic and local dictionaries and
    their Grams hold the distinct templates only, in that order. The local
    dictionary is organized per block position: shape (P, BLOCK*BLOCK,
    len(distinct)).
    """

    holistic: list[Patch]
    negatives: list[Patch]
    ages: np.ndarray
    local_dict: np.ndarray = field(init=False, default=None, repr=False)
    local_grams: np.ndarray = field(init=False, default=None, repr=False)
    local_has_content: np.ndarray = field(init=False, default=None, repr=False)
    distinct: np.ndarray = field(init=False, default=None, repr=False)
    holistic_dict: np.ndarray = field(init=False, default=None, repr=False)
    holistic_gram: np.ndarray = field(init=False, default=None, repr=False)
    negative_dict: np.ndarray = field(init=False, default=None, repr=False)
    negative_gram: np.ndarray = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.ages = np.asarray(self.ages, dtype=np.int64)
        seen: set[bytes] = set()
        distinct = []
        for slot, h in enumerate(self.holistic):
            key = np.asarray(h, dtype=np.float64).tobytes()
            if key not in seen:
                seen.add(key)
                distinct.append(slot)
        self.distinct = np.array(distinct, dtype=np.intp)
        templates = [self.holistic[slot] for slot in distinct]
        self.local_dict = build_local_dict(templates)
        self.local_grams = np.einsum("pij,pik->pjk", self.local_dict, self.local_dict)
        self.local_has_content = np.any(self.local_dict != 0.0, axis=(1, 2))
        self.holistic_dict = unit_columns(np.stack([h.reshape(-1) for h in templates], axis=1))
        self.holistic_gram = self.holistic_dict.T @ self.holistic_dict
        if self.negatives:
            self.negative_dict = unit_columns(
                np.stack([g.reshape(-1) for g in self.negatives], axis=1)
            )
            self.negative_gram = self.negative_dict.T @ self.negative_dict


@dataclass
class TrackResult:
    state: AffineState
    confidence: float
    occlusion_fraction: float
    frame_index: int
    degenerate: bool = False


@dataclass
class TrackerConfig:
    """Knobs of the tracking loop, whose defaults are the config's: each
    ``tracker.*`` key, ``sparse.lambda1`` and ``pipeline.seed`` sets one
    field, or one entry of ``motion.sigma`` for a ``tracker.sigma_*``.
    The codes stop by ``_TOL`` and ``_MAX_ITER``, which solve them exactly."""

    n_particles: int = 600
    motion: MotionModelParams = field(default_factory=MotionModelParams)
    n_templates: int = 10
    sigma_c: float = 0.1
    eps_occ: float = 0.15
    tau_update: float = 0.3
    occ_gate: float = 0.3
    ring_scale: float = 1.5
    seed: int = 0
    lambda1: float = 0.01  # the holistic codes' l1 penalty


# SCM's local appearance model codes BLOCK x BLOCK pixel blocks
BLOCK = 8

# the one stop rule of the holistic and the block codes: the active-set
# solver adds a coordinate while its KKT violation exceeds _TOL, for at
# most _MAX_ITER steps. Both stages code over the same distinct
# templates, and criterion 6's codes take at most 7 (holistic) and 12
# (block) steps
_TOL = 1e-10
_MAX_ITER = 200

# local block coding runs unregularized so an exactly representable block
# reports zero residual
_LOCAL_LAMBDA = 0.0

# score_particles warps _WARP_CHUNK particles at a time: the warp holds
# about 64 kB of temporaries per 32x32 particle (tracemalloc), so a chunk
# of 8 stays near 0.5 MB, and the chunk size changes no score. Timed on
# the criterion-6 sequence, chunks of 8, 16 and 64 were within noise of
# one another and 300 was the slowest (2 vCPUs, numpy 2.4)
_WARP_CHUNK = 8


def _block_grid(patches: np.ndarray) -> np.ndarray:
    """(n, h/BLOCK, BLOCK, w/BLOCK, BLOCK) view of (n, h, w) patches."""
    n, h, w = patches.shape
    b = BLOCK
    if h % b or w % b:
        raise InputError(f"patch {h}x{w} not divisible into {b}x{b} blocks")
    return patches.reshape(n, h // b, b, w // b, b)


def build_local_dict(holistic: list[Patch]) -> np.ndarray:
    """(P, BLOCK*BLOCK, m) dictionary: position p holds the normalized
    p-th block of every holistic template, positions in raster order."""
    grid = _block_grid(np.asarray(holistic, dtype=np.float64))
    m, gh, b, gw, _ = grid.shape
    # one contiguous row per block, so each norm is the dot product
    # np.linalg.norm takes of that block alone
    blocks = grid.transpose(1, 3, 0, 2, 4).reshape(gh * gw, m, b * b)
    nrm = np.sqrt(np.vecdot(blocks, blocks))
    unit = blocks / np.where(nrm > 0, nrm, 1.0)[..., None]
    return np.ascontiguousarray(unit.transpose(0, 2, 1))


def make_template_set(
    frame: np.ndarray, state: AffineState, config: TrackerConfig | None = None
) -> TemplateSet:
    """Initial template set: m copies of the first-frame patch plus ring
    negatives around the initial state."""
    cfg = config or TrackerConfig()
    first = warp_patch(frame, state)
    holistic = [first.copy() for _ in range(cfg.n_templates)]
    negatives = _ring_negatives(frame, state, cfg)
    return TemplateSet(holistic=holistic, negatives=negatives, ages=np.zeros(cfg.n_templates, dtype=np.int64))


def _ring_negatives(frame: np.ndarray, state: AffineState, cfg: TrackerConfig) -> list[Patch]:
    """Patches at four centres ring_scale * 32 * s away from the state's."""
    radius = cfg.ring_scale * CANONICAL_SIZE * state.s
    negs = []
    for angle in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
        l_x = state.l_x + radius * math.cos(angle)
        l_y = state.l_y + radius * math.sin(angle)
        if not (math.isfinite(l_x) and math.isfinite(l_y)):
            raise InputError(f"ring negative centre overflows: radius {radius} at scale s={state.s}")
        negs.append(warp_patch(frame, replace(state, l_x=l_x, l_y=l_y)))
    return negs


# ---------------------------------------------------------------------------
# proposal
# ---------------------------------------------------------------------------

def propose_particles(
    prev: AffineState, motion: MotionModelParams, n: int, rng_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(states (N, 6), priors (N,)): Gaussian perturbations of prev and
    their densities; draws are consumed particle-major, parameter-minor,
    so the set is seed-reproducible.

    A std-dev near the float limit makes states overflow to inf; the warp
    rejects those. One so small that the normalisers 1/(sigma sqrt(2 pi))
    take the product of the densities past the float range is rejected
    here."""
    if n < 1:
        raise ValueError("need at least one particle")
    rng = np.random.default_rng(rng_seed)
    draws = rng.standard_normal((n, 6))
    mean = prev.as_array()
    sigma = motion.sigma
    with np.errstate(over="ignore"):
        states = mean + draws * sigma
    states[:, 3:5] = np.maximum(states[:, 3:5], 1e-3)  # s and alpha

    # product of the six densities; sigma=0 components contribute factor 1
    priors = np.ones(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(6):
            if sigma[j] > 0:
                z = (states[:, j] - mean[j]) / sigma[j]
                priors *= np.exp(-0.5 * z * z) / (sigma[j] * math.sqrt(2.0 * math.pi))
    if not np.isfinite(priors).all():
        raise InputError(
            f"motion prior overflows: the product of the densities for sigma {sigma.tolist()} is not finite"
        )
    return states, priors


# ---------------------------------------------------------------------------
# collaborative observation model
# ---------------------------------------------------------------------------

def discriminative_score(eps_pos, eps_neg, sigma_c: float):
    """exp(-(eps_pos - eps_neg)/sigma_c), clamped to [0, 1e6]; elementwise
    on arrays."""
    # a tiny sigma_c overflows the exponent to +-inf, which the clamp maps
    # to 1e6 or 0
    with np.errstate(over="ignore"):
        return np.clip(np.exp(-(eps_pos - eps_neg) / sigma_c), 0.0, 1e6)


@dataclass
class ObservationScores:
    """The collaborative model's outputs for N candidates with P blocks."""

    likelihood: np.ndarray  # (N,) H_d * H_g
    occluded: np.ndarray  # (N, P) bool, blocks in raster order
    holistic_residuals: np.ndarray  # (N, 2) target and background coding residuals
    block_residuals: np.ndarray  # (N, P)
    holistic_steps: np.ndarray  # (N, 2) active-set steps
    block_steps: np.ndarray  # (N, P); 0 for an empty block, which is not solved


def _holistic_coefficients(patches: np.ndarray, templates: TemplateSet):
    """D'y for the target dictionary (the distinct templates) and the
    background dictionary, and y'y, where y is each patch scaled to unit
    norm. The products are taken row by row, so a candidate's
    coefficients do not depend on the batch it is in."""
    if not templates.holistic or not templates.negatives:
        raise InputError("need non-empty positive and negative dictionaries")
    v = patches.reshape(len(patches), -1)
    nrm = np.sqrt(np.vecdot(v, v))
    y = v / np.where(nrm > 0, nrm, 1.0)[:, None]
    return np.vecmat(y, templates.holistic_dict), np.vecmat(y, templates.negative_dict), np.vecdot(y, y)


def _block_coefficients(patches: np.ndarray, templates: TemplateSet):
    """(c (A, len(templates.distinct)), solve (N, P)): D_p'y / ||y|| for
    each of the A non-empty blocks, in raster order, on the distinct
    templates, and which blocks those are. The sums run pixel by pixel,
    and each coefficient is its own sum, so a template's column has the
    same bits as in a product over every slot."""
    grid = _block_grid(patches)
    n, gh, b, gw, _ = grid.shape
    P = gh * gw
    if P != templates.local_dict.shape[0]:
        raise InputError(
            f"candidate has {P} blocks, local dictionary expects {templates.local_dict.shape[0]}"
        )
    # pixel-major (b*b, n, P): a sum over axis 0 adds one pixel after another
    y = grid.transpose(2, 4, 0, 1, 3).reshape(b * b, n, P)
    acc = (templates.local_dict.transpose(1, 0, 2)[:, None] * y[..., None]).sum(axis=0)
    nrm = np.sqrt((y * y).sum(axis=0))
    solve = nrm > 0.0
    return acc[solve] / nrm[solve][:, None], solve


def discriminative_confidence(c_pos, c_neg, tt, templates: TemplateSet, cfg: TrackerConfig):
    """(H_d (N,), residuals (N, 2), steps (N, 2)): the holistic codes of
    N candidates from their ``_holistic_coefficients``, one batch per
    dictionary, and the contrast of their coding residuals on the target
    and background dictionaries."""
    which = np.zeros(len(tt), dtype=np.intp)
    solves = [
        _kernels.nn_lasso_gram_batch(
            gram[None], which, c, tt,
            float(cfg.lambda1), _TOL, _MAX_ITER,
        )
        for gram, c in ((templates.holistic_gram, c_pos), (templates.negative_gram, c_neg))
    ]
    eps = np.sqrt(np.stack([resid_sq for _g, resid_sq, _s in solves], axis=1))
    steps = np.stack([st for _g, _r, st in solves], axis=1)
    return discriminative_score(eps[:, 0], eps[:, 1], cfg.sigma_c), eps, steps


def generative_confidence(c_blk, solve, templates: TemplateSet, cfg: TrackerConfig):
    """(H_g (N,), occluded (N, P), residuals (N, P), steps (N, P)): the
    local block codes of N candidates from their ``_block_coefficients``,
    in one batch (``_kernels.block_residuals``).

    A block is occluded when its coding residual exceeds eps_occ; the
    score averages (1 - residual/eps_occ) over unoccluded blocks, divided
    by the total block count.
    """
    residuals, steps = _kernels.block_residuals(
        templates.local_grams, c_blk, solve, templates.local_has_content,
        _LOCAL_LAMBDA, _TOL, _MAX_ITER,
    )
    occluded = residuals > cfg.eps_occ
    # a tiny eps_occ overflows the terms of occluded blocks only, which
    # the mask replaces by 0; each row sums one candidate's blocks alone
    with np.errstate(over="ignore"):
        terms = 1.0 - residuals / cfg.eps_occ
    h_g = np.where(occluded, 0.0, terms).sum(axis=1) / residuals.shape[1]
    return h_g, occluded, residuals, steps


def score_particles(
    frame: np.ndarray, states: np.ndarray, templates: TemplateSet, cfg: TrackerConfig
) -> ObservationScores:
    """Warp and score every particle state (N, 6) of a frame in batches.

    The candidates are CANONICAL_SIZE square; the holistic codes use
    cfg.lambda1, both stages stop by _TOL and _MAX_ITER, and cfg.sigma_c
    and cfg.eps_occ set the discriminative and generative scores. The
    particles are warped _WARP_CHUNK at a time; then
    ``discriminative_confidence`` codes their holistic
    coefficients by one batch per dictionary, and
    ``generative_confidence`` the blocks of all N particles by one batch.
    """
    parts = []
    for lo in range(0, len(states), _WARP_CHUNK):
        patches = warp_patches(frame, states[lo : lo + _WARP_CHUNK])
        parts.append(_holistic_coefficients(patches, templates) + _block_coefficients(patches, templates))
    *holistic, c_blk, solve = [np.concatenate(part) for part in zip(*parts)]
    del parts  # the per-chunk copies are not needed during the solves
    h_d, eps, hol_steps = discriminative_confidence(*holistic, templates, cfg)
    h_g, occluded, residuals, blk_steps = generative_confidence(c_blk, solve, templates, cfg)
    return ObservationScores(
        likelihood=h_d * h_g,
        occluded=occluded,
        holistic_residuals=eps,
        block_residuals=residuals,
        holistic_steps=hol_steps,
        block_steps=blk_steps,
    )


# ---------------------------------------------------------------------------
# MAP selection and template update
# ---------------------------------------------------------------------------

def map_estimate(
    states: np.ndarray, priors: np.ndarray, scores: ObservationScores, prev: AffineState, frame_index: int
) -> TrackResult:
    """The state maximizing scores.likelihood * priors, ties to the lowest
    index; its occlusion is its share of occluded blocks. Confidence is
    its share of total weight, so a total that overflows is rejected; a
    total of 0 is degenerate and keeps prev."""
    with np.errstate(over="ignore", invalid="ignore"):
        posterior = scores.likelihood * priors
        total = float(posterior.sum())
    if not math.isfinite(total):
        raise InputError("posterior weights overflow: likelihood x motion prior has no finite sum")
    if total <= 0.0:
        return TrackResult(state=replace(prev), confidence=0.0, occlusion_fraction=0.0,
                           frame_index=frame_index, degenerate=True)
    winner = int(np.argmax(posterior))
    return TrackResult(
        state=AffineState.from_array(states[winner]),
        confidence=float(posterior[winner] / total),
        occlusion_fraction=float(scores.occluded[winner].mean()),
        frame_index=frame_index,
    )


def _gates_open(result: TrackResult, cfg: TrackerConfig) -> bool:
    """The template update gates: confidence at least tau_update and
    occlusion at most occ_gate."""
    return not (result.confidence < cfg.tau_update or result.occlusion_fraction > cfg.occ_gate)


def update_templates(
    templates: TemplateSet,
    result: TrackResult,
    result_patch: Patch | None,
    frame: np.ndarray,
    config: TrackerConfig | None = None,
) -> TemplateSet:
    """Occlusion-gated replacement of the oldest non-anchor slot, with a
    refresh of the ring negatives; slot 0 is never touched. The patch is
    read only when the gates are open, so ``track_sequence`` passes None
    while they are shut and warps no patch for it."""
    cfg = config or TrackerConfig()
    if not _gates_open(result, cfg):
        return templates
    ages = templates.ages.copy()
    slot = 1 + int(np.argmin(ages[1:]))  # oldest replaceable, ties -> lowest
    holistic = [h.copy() for h in templates.holistic]
    holistic[slot] = np.asarray(result_patch, dtype=np.float64).copy()
    ages[slot] = result.frame_index
    negatives = _ring_negatives(frame, result.state, cfg)
    return TemplateSet(holistic=holistic, negatives=negatives, ages=ages)


# ---------------------------------------------------------------------------
# sequence loop
# ---------------------------------------------------------------------------

def track_sequence(
    frames: Iterable[np.ndarray], init: AffineState, config: TrackerConfig | None = None
) -> list[TrackResult]:
    """Track a clip (see ``check_clip``) from frame 1 onward; fully
    deterministic given config.seed; only frames 0 and t are held."""
    clip = check_clip(frames)
    cfg = config or TrackerConfig()
    first = next(clip)
    h, w = first.shape
    if not (0 <= init.l_x < w and 0 <= init.l_y < h):
        raise InputError(f"init center ({init.l_x}, {init.l_y}) outside {h}x{w}")

    templates = make_template_set(first, init, cfg)

    prev = init
    results: list[TrackResult] = []
    for t, frame in enumerate(clip, start=1):
        states, priors = propose_particles(prev, cfg.motion, cfg.n_particles, cfg.seed * 1_000_003 + t)
        scores = score_particles(frame, states, templates, cfg)
        result = map_estimate(states, priors, scores, prev, t)
        patch = warp_patch(frame, result.state) if _gates_open(result, cfg) else None
        templates = update_templates(templates, result, patch, frame, cfg)
        prev = result.state
        results.append(result)
    return results
