"""Frame loading, differencing, affine patch warps, proposal grids and
feature-matrix assembly.

All functions are pure; nothing here keeps mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from . import _kernels
from .errors import (
    DimensionMismatch,
    EmptyProposals,
    FrameTooSmall,
    InconsistentDimensions,
    MalformedPgm,
    MissingSource,
    NonFiniteInput,
    NonPositiveScale,
    PatchTooLarge,
    TooFewFrames,
    holds_foreign_number_text,
)

if TYPE_CHECKING:
    from .tracker import AffineState

# A patch is a plain 2-D float array with values in [0, 1]; consumers
# validate the size they need (template ops require the canonical size).
Patch = np.ndarray

CANONICAL_SIZE = 32
CANONICAL_HALF = CANONICAL_SIZE // 2


@dataclass
class Frame:
    """One grayscale raster with intensities in [0, 1]."""

    pixels: np.ndarray
    index: int = 0

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 2:
            raise ValueError("frame pixels must be a 2-D array")
        h, w = self.pixels.shape
        if h < 8 or w < 8:
            raise FrameTooSmall(f"frame must be at least 8x8, got {h}x{w}")
        if self.index < 0:
            raise ValueError("frame index must be non-negative")
        if not np.all(np.isfinite(self.pixels)):
            raise NonFiniteInput("frame pixels must be finite")
        lo, hi = float(self.pixels.min()), float(self.pixels.max())
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"pixel values outside [0,1]: min={lo}, max={hi}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.pixels.shape


@dataclass
class FrameSequence:
    """Ordered frames with consecutive indices starting at 0."""

    frames: list[Frame]
    name: str = ""

    def __post_init__(self):
        if not self.frames:
            raise ValueError("empty frame sequence")
        shape = self.frames[0].shape
        for i, f in enumerate(self.frames):
            if f.index != i:
                raise ValueError(f"frame {i} has index {f.index}")
            if f.shape != shape:
                raise InconsistentDimensions(
                    f"frame {i} is {f.shape}, expected {shape}"
                )

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def shape(self) -> tuple[int, int]:
        return self.frames[0].shape


@dataclass
class ProposalSet:
    """Axis-aligned grid patches cut from one frame: ``patches`` (n, p, p)
    and their centres (row, col) as ``coords`` (n, 2)."""

    patches: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        self.patches = np.asarray(self.patches, dtype=np.float64)
        self.coords = np.asarray(self.coords, dtype=np.int64)
        if len(self.patches) != len(self.coords):
            raise ValueError("patches and coords length mismatch")

    def __len__(self) -> int:
        return len(self.patches)


# ---------------------------------------------------------------------------
# PGM I/O and manifests
# ---------------------------------------------------------------------------

def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary (P5, maxval 255) PGM into a float array in [0, 1]."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise MissingSource(f"cannot read {path}: {exc}") from exc

    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(raw):
            ch = raw[pos : pos + 1]
            if ch == b"#":  # comment runs to end of line
                while pos < len(raw) and raw[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MalformedPgm(f"{path}: truncated header")
        return raw[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise MalformedPgm(f"{path}: bad magic {magic!r}, expected P5")
    # latin-1 keeps one character per byte, so non-ASCII bytes reach the check
    fields = [next_token().decode("latin-1") for _ in range(3)]
    if any(holds_foreign_number_text(field) for field in fields):
        raise MalformedPgm(f"{path}: header field holds '_' or non-ASCII text")
    try:
        width, height, maxval = (int(field) for field in fields)
    except ValueError as exc:
        raise MalformedPgm(f"{path}: non-numeric header field") from exc
    if width <= 0 or height <= 0:
        raise MalformedPgm(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise MalformedPgm(f"{path}: maxval {maxval}, only 255 supported")
    pos += 1  # single whitespace byte after maxval
    payload = raw[pos : pos + width * height]
    if len(payload) < width * height:
        raise MalformedPgm(f"{path}: truncated payload")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return pixels.astype(np.float64) / 255.0


def write_pgm(path: str | Path, pixels: np.ndarray) -> None:
    """Write a [0, 1] float array as a binary P5 PGM."""
    arr = np.asarray(pixels, dtype=np.float64)
    data = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def _frame_paths(source: Path) -> list[Path]:
    if source.is_dir():
        paths = sorted(p for p in source.iterdir() if p.suffix.lower() == ".pgm")
        return paths
    # manifest: one relative path per line, '#' comments ignored
    lines = source.read_text(encoding="utf-8").splitlines()
    paths = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        paths.append((source.parent / line).resolve())
    return paths


def load_frame_sequence(source: str | Path) -> FrameSequence:
    """Load a sequence from a directory of PGM files or a manifest file."""
    source = Path(source)
    if not source.exists():
        raise MissingSource(f"no such source: {source}")
    paths = _frame_paths(source)
    if len(paths) < 2:
        raise TooFewFrames(f"{source}: found {len(paths)} frames, need >= 2")
    frames = []
    shape = None
    for i, p in enumerate(paths):
        if not p.exists():
            raise MissingSource(f"manifest entry missing: {p}")
        pixels = read_pgm(p)
        if shape is None:
            shape = pixels.shape
        elif pixels.shape != shape:
            raise InconsistentDimensions(
                f"{p}: {pixels.shape} differs from first frame {shape}"
            )
        frames.append(Frame(pixels=pixels, index=i))
    return FrameSequence(frames=frames, name=source.stem)


# ---------------------------------------------------------------------------
# frame differencing
# ---------------------------------------------------------------------------

def frame_difference(prev: Frame, cur: Frame) -> Frame:
    """Elementwise absolute difference |cur - prev|, indexed like cur."""
    if prev.shape != cur.shape:
        raise DimensionMismatch(f"{prev.shape} vs {cur.shape}")
    return Frame(pixels=np.abs(cur.pixels - prev.pixels), index=cur.index)


# ---------------------------------------------------------------------------
# affine patch warping
# ---------------------------------------------------------------------------

def warp_sample_grids(
    states: np.ndarray, out_h: int, out_w: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample coordinates (rows, cols), each (n, out_h, out_w), of the warp
    of every row of ``states`` (n, 6), columns ordered like an AffineState.

    The canonical patch grid spans [-16, 16)^2; it is scaled by (s, s*alpha),
    sheared by phi, rotated by theta and translated to (l_x, l_y).
    A factor that depends on one grid axis is kept at that axis's shape,
    ``sx`` (n, 1, out_w) and ``sy`` (n, out_h, 1), and broadcast where the
    axes meet: each element still sees the operations of a full meshgrid
    in the same order, so the coordinates are the same bits. A state
    whose warp overflows yields non-finite coordinates without a numpy
    warning; the caller rejects them.
    """
    l_x, l_y, theta, s, alpha, phi = np.asarray(states, dtype=np.float64).T[:, :, None, None]
    gy = (-CANONICAL_HALF + np.arange(out_h) * (CANONICAL_SIZE / out_h))[:, None]
    gx = -CANONICAL_HALF + np.arange(out_w) * (CANONICAL_SIZE / out_w)
    with np.errstate(over="ignore", invalid="ignore"):
        sx = s * gx
        sy = s * alpha * gy
        x1 = sx + phi * sy
        ct, st = np.cos(theta), np.sin(theta)
        cols = l_x + ct * x1 - st * sy
        rows = l_y + st * x1 + ct * sy
    return rows, cols


def warp_patch(frame: Frame, state: "AffineState", out_h: int, out_w: int) -> Patch:
    """Bilinear sample of the affine-warped patch; outside reads as 0."""
    return warp_patches(frame, state.as_array()[None], out_h, out_w)[0]


def warp_patches(frame: Frame, states: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """``warp_patch`` of every row of ``states`` (n, 6), stacked to
    (n, out_h, out_w)."""
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be >= 1")
    bad = ~((states[:, 3] > 0) & (states[:, 4] > 0))
    if bad.any():
        s, alpha = states[np.argmax(bad), 3:5]
        raise NonPositiveScale(f"s={s}, alpha={alpha}")
    rows, cols = warp_sample_grids(states, out_h, out_w)
    if not (np.isfinite(rows).all() and np.isfinite(cols).all()):
        raise NonFiniteInput("affine warp overflows: sample coordinates are not finite")
    return _kernels.bilinear_sample(frame.pixels, rows, cols)


# ---------------------------------------------------------------------------
# proposal grids and feature matrices
# ---------------------------------------------------------------------------

def extract_proposals(frame: Frame, patch_size: int, stride: int) -> ProposalSet:
    """Regular grid of axis-aligned patches fully inside the frame, in
    raster order."""
    h, w = frame.shape
    if patch_size > min(h, w):
        raise PatchTooLarge(f"patch {patch_size} exceeds frame {h}x{w}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rows = (h - patch_size) // stride + 1
    cols = (w - patch_size) // stride + 1
    pixels = frame.pixels
    sr, sc = pixels.strides
    grid = np.lib.stride_tricks.as_strided(
        pixels,
        shape=(rows, cols, patch_size, patch_size),
        strides=(sr * stride, sc * stride, sr, sc),
        writeable=False,
    )
    patches = np.ascontiguousarray(grid.reshape(rows * cols, patch_size, patch_size))
    coords = np.indices((rows, cols)).reshape(2, -1).T * stride + patch_size // 2
    return ProposalSet(patches=patches, coords=coords)


def unit_columns(mat: np.ndarray) -> np.ndarray:
    """Scale each column to unit l2 norm; zero columns stay zero."""
    norms = np.linalg.norm(mat, axis=0)
    safe = np.where(norms > 0.0, norms, 1.0)
    return mat / safe


def feature_matrix(proposals: ProposalSet) -> np.ndarray:
    """d x n matrix; column j is the unit-normalized row-major
    vectorization of patch j."""
    n = len(proposals)
    if n == 0:
        raise EmptyProposals("no proposals to featurize")
    # in C order unit_columns' norms sum each column row after row; the
    # last bits of every detection output depend on that order
    return unit_columns(np.ascontiguousarray(proposals.patches.reshape(n, -1).T))
