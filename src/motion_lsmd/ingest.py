"""Clip loading and checks, differencing, affine patch warps, proposal
grids and feature-matrix assembly.

A clip is an iterable of 2-D float64 arrays with values in [0, 1], one
per frame, read once in order and checked by ``check_clip`` frame by
frame. All functions are pure; nothing here keeps mutable state.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import _kernels
from .errors import InputError, holds_foreign_number_text

if TYPE_CHECKING:
    from .tracker import AffineState

# A patch is a plain 2-D float array with values in [0, 1]; consumers
# validate the size they need (template ops require the canonical size).
Patch = np.ndarray

CANONICAL_SIZE = 32
CANONICAL_HALF = CANONICAL_SIZE // 2


def check_clip(frames: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Yield the frames of a clip as 2-D float64 arrays, each checked as it
    arrives: all of one shape of at least 8x8, with finite pixels, or an
    InputError. Pixels outside [0, 1] raise ValueError. A clip that ends
    before its second frame raises InputError there."""
    i = -1
    for i, pixels in enumerate(frames):
        pixels = np.asarray(pixels, dtype=np.float64)
        if i == 0:
            shape = pixels.shape
            if len(shape) != 2 or min(shape) < 8:
                raise InputError(f"frames must be 2-D and at least 8x8, got shape {shape}")
        elif pixels.shape != shape:
            raise InputError(f"frame {i} is {pixels.shape}, expected {shape}")
        if not np.isfinite(pixels).all():
            raise InputError(f"frame {i} pixels must be finite")
        lo, hi = float(pixels.min()), float(pixels.max())
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"frame {i} pixel values outside [0,1]: min={lo}, max={hi}")
        yield pixels
    if i < 1:
        raise InputError(f"need at least two frames, got {i + 1}")


# ---------------------------------------------------------------------------
# PGM I/O and manifests
# ---------------------------------------------------------------------------

def read_pgm(path: str | Path) -> np.ndarray:
    """Read a binary (P5, maxval 255) PGM into a float array in [0, 1]."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc

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
            raise InputError(f"{path}: truncated header")
        return raw[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise InputError(f"{path}: bad magic {magic!r}, expected P5")
    # latin-1 keeps one character per byte, so non-ASCII bytes reach the check
    fields = [next_token().decode("latin-1") for _ in range(3)]
    if any(holds_foreign_number_text(field) for field in fields):
        raise InputError(f"{path}: header field holds '_' or non-ASCII text")
    try:
        width, height, maxval = (int(field) for field in fields)
    except ValueError as exc:
        raise InputError(f"{path}: non-numeric header field") from exc
    if width <= 0 or height <= 0:
        raise InputError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise InputError(f"{path}: maxval {maxval}, only 255 supported")
    pos += 1  # single whitespace byte after maxval
    payload = raw[pos : pos + width * height]
    if len(payload) < width * height:
        raise InputError(f"{path}: truncated payload")
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
        return sorted(p for p in source.iterdir() if p.suffix.lower() == ".pgm")
    # manifest: one relative path per line, '#' comments ignored
    lines = (line.strip() for line in source.read_text(encoding="utf-8").splitlines())
    return [(source.parent / line).resolve() for line in lines if line and not line.startswith("#")]


def load_frame_sequence(source: str | Path) -> Iterator[np.ndarray]:
    """The frames of a clip, from a directory of PGM files or a manifest
    file. The paths are listed and checked now; each frame is read and
    decoded only when the iterator reaches it."""
    source = Path(source)
    if not source.exists():
        raise InputError(f"no such source: {source}")
    paths = _frame_paths(source)
    if len(paths) < 2:
        raise InputError(f"{source}: found {len(paths)} frames, need >= 2")
    for p in paths:
        if not p.exists():
            raise InputError(f"manifest entry missing: {p}")
    return _read_frames(paths)


def _read_frames(paths: list[Path]) -> Iterator[np.ndarray]:
    for i, p in enumerate(paths):
        pixels = read_pgm(p)
        if i == 0:
            shape = pixels.shape
        elif pixels.shape != shape:
            raise InputError(f"{p}: {pixels.shape} differs from first frame {shape}")
        yield pixels


# ---------------------------------------------------------------------------
# frame differencing
# ---------------------------------------------------------------------------

def frame_difference(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """The difference image |cur - prev|, elementwise."""
    if prev.shape != cur.shape:
        raise InputError(f"{prev.shape} vs {cur.shape}")
    return np.abs(cur - prev)


# ---------------------------------------------------------------------------
# affine patch warping
# ---------------------------------------------------------------------------

def warp_sample_grids(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample coordinates (rows, cols), each (n, 32, 32), of the warp of
    every row of ``states`` (n, 6), columns ordered like an AffineState.

    The canonical patch grid, the integers g of [-16, 16) on each axis,
    is scaled by (s, s*alpha), sheared by phi, rotated by theta and
    translated to (l_x, l_y). That map is affine in the row index i and
    the column index j, so each grid is the sum of a row term (n, 32, 1)
    and a column term (n, 1, 32), with one full-size add:
        rows = l_y + (sin*phi + cos)*s*alpha*g_i + sin*s*g_j
        cols = l_x + (cos*phi - sin)*s*alpha*g_i + cos*s*g_j
    A state whose warp overflows yields non-finite coordinates without a
    numpy warning; the caller rejects them.
    """
    l_x, l_y, theta, s, alpha, phi = np.asarray(states, dtype=np.float64).T[:, :, None]
    g = np.arange(-CANONICAL_HALF, CANONICAL_HALF, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        ct, st = np.cos(theta), np.sin(theta)
        rows = (l_y + (st * phi + ct) * s * alpha * g)[:, :, None] + (st * s * g)[:, None, :]
        cols = (l_x + (ct * phi - st) * s * alpha * g)[:, :, None] + (ct * s * g)[:, None, :]
    return rows, cols


def warp_patch(frame: np.ndarray, state: "AffineState") -> Patch:
    """Bilinear sample of the affine-warped canonical patch; outside reads
    as 0."""
    return warp_patches(frame, state.as_array()[None])[0]


def warp_patches(frame: np.ndarray, states: np.ndarray) -> np.ndarray:
    """``warp_patch`` of every row of ``states`` (n, 6), stacked to
    (n, 32, 32)."""
    bad = ~((states[:, 3] > 0) & (states[:, 4] > 0))
    if bad.any():
        s, alpha = states[np.argmax(bad), 3:5]
        raise InputError(f"s={s}, alpha={alpha}")
    rows, cols = warp_sample_grids(states)
    if not (np.isfinite(rows).all() and np.isfinite(cols).all()):
        raise InputError("affine warp overflows: sample coordinates are not finite")
    return _kernels.bilinear_sample(frame, rows, cols)


# ---------------------------------------------------------------------------
# proposal grids and feature matrices
# ---------------------------------------------------------------------------

def extract_proposals(
    pixels: np.ndarray, patch_size: int, stride: int
) -> tuple[np.ndarray, np.ndarray]:
    """Regular grid of axis-aligned patches fully inside the image, in
    raster order: the patches (n, patch_size, patch_size) and their
    centres (row, col) as an (n, 2) int array."""
    h, w = pixels.shape
    if patch_size > min(h, w):
        raise InputError(f"patch {patch_size} exceeds frame {h}x{w}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rows = (h - patch_size) // stride + 1
    cols = (w - patch_size) // stride + 1
    sr, sc = pixels.strides
    grid = np.lib.stride_tricks.as_strided(
        pixels,
        shape=(rows, cols, patch_size, patch_size),
        strides=(sr * stride, sc * stride, sr, sc),
        writeable=False,
    )
    patches = np.ascontiguousarray(grid.reshape(rows * cols, patch_size, patch_size))
    centres = np.indices((rows, cols)).reshape(2, -1).T * stride + patch_size // 2
    return patches, centres


def unit_columns(mat: np.ndarray) -> np.ndarray:
    """Scale each column to unit l2 norm; zero columns stay zero."""
    norms = np.linalg.norm(mat, axis=0)
    safe = np.where(norms > 0.0, norms, 1.0)
    return mat / safe


def feature_matrix(patches: np.ndarray) -> np.ndarray:
    """d x n matrix; column j is the unit-normalized row-major
    vectorization of patch j of ``patches`` (n, p, p)."""
    n = len(patches)
    if n == 0:
        raise InputError("no proposals to featurize")
    # in C order unit_columns' norms sum each column row after row; the
    # last bits of every detection output depend on that order
    return unit_columns(np.ascontiguousarray(patches.reshape(n, -1).T))
