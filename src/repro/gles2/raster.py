"""Triangle rasterisation with perspective-correct interpolation.

Implements the fixed-function middle of the pipeline in Figure 1 of
the paper: primitive assembly (triangles only — limitation 2: ES 2
offers no quads, so the paper's technique renders a fullscreen quad as
two triangles) and rasterisation at pixel centers with a top-left fill
rule, so the two triangles of a quad cover every pixel exactly once —
crucial for GPGPU, where double-shading a pixel means computing (and
paying for) a kernel invocation twice.

Coordinates follow the GL convention: window origin at the bottom
left, pixel centers at half-integer coordinates.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import enums
from .errors import SimulatorLimitation
from .limits import VIDEOCORE_IV_LIMITS


def assemble_triangles(mode: int, indices: np.ndarray) -> np.ndarray:
    """Group a vertex index stream into (T, 3) triangles.

    ``indices`` is the element stream (for glDrawArrays it is simply
    arange(count)).
    """
    count = indices.shape[0]
    if mode == enums.GL_TRIANGLES:
        t = count // 3
        return indices[: t * 3].reshape(t, 3)
    if mode == enums.GL_TRIANGLE_STRIP:
        if count < 3:
            return np.zeros((0, 3), dtype=indices.dtype)
        i = np.arange(count - 2)
        even = (i % 2) == 0
        # Odd triangles swap their first two vertices to preserve
        # winding.
        first = np.where(even, indices[i], indices[i + 1])
        second = np.where(even, indices[i + 1], indices[i])
        return np.stack([first, second, indices[i + 2]], axis=1)
    if mode == enums.GL_TRIANGLE_FAN:
        if count < 3:
            return np.zeros((0, 3), dtype=indices.dtype)
        return np.stack(
            [
                np.broadcast_to(indices[0], (count - 2,)),
                indices[1:-1],
                indices[2:],
            ],
            axis=1,
        )
    raise SimulatorLimitation(
        f"primitive mode {hex(mode)} is not rasterised by this simulator "
        "(use GL_TRIANGLES / GL_TRIANGLE_STRIP / GL_TRIANGLE_FAN / GL_POINTS)"
    )


@dataclass
class FragmentBatch:
    """All fragments produced by one draw call.

    ``vertex_ids[f]`` are the three vertex indices of the fragment's
    triangle, ``bary[f]`` the window-space barycentric weights, and
    ``persp[f]`` the perspective-corrected weights (equal to ``bary``
    when all w == 1, the GPGPU case).

    A batch also carries its *fragment plan*: the per-fragment inputs
    every draw of this batch needs besides shading — ``gl_FragCoord``
    and ``gl_PointCoord`` per float dtype, the flat framebuffer index,
    and (in :func:`interpolate_varying`) the interpolated varyings.
    Each is built on first use and kept read-only, so a draw that gets
    a memoised batch from :func:`rasterize_triangles` replays them.
    """

    px: np.ndarray  # (F,) int64 pixel x
    py: np.ndarray  # (F,) int64 pixel y
    vertex_ids: np.ndarray  # (F, 3)
    bary: np.ndarray  # (F, 3) float64
    persp: np.ndarray  # (F, 3) float64, sums to 1
    frag_z: np.ndarray  # (F,) window-space depth in [0, 1]
    frag_w: np.ndarray  # (F,) 1 / w_clip interpolated
    #: (F,) bool — gl_FrontFacing per fragment.  Triangles derive it
    #: from the sign of the window-space area (GL_CCW front faces);
    #: points and lines are always front-facing (GL ES 2 §3.5.1).
    front: np.ndarray = None
    #: The fragment plan: ``(kind, parameter)`` -> read-only array.
    plan: dict = field(default_factory=dict, repr=False, compare=False)
    #: Interpolated varyings by per-vertex content and dtype (LRU);
    #: None on a batch the raster memo does not keep, which no later
    #: draw can reuse.
    varyings: "Optional[OrderedDict[tuple, np.ndarray]]" = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if self.front is None:
            self.front = np.ones(self.px.shape[0], dtype=bool)

    @property
    def count(self) -> int:
        return self.px.shape[0]

    def select(self, indices: np.ndarray) -> "FragmentBatch":
        """A sub-batch holding the fragments at ``indices`` (fancy
        indexing, so the sub-batch owns fresh arrays)."""
        return FragmentBatch(
            px=self.px[indices],
            py=self.py[indices],
            vertex_ids=self.vertex_ids[indices],
            bary=self.bary[indices],
            persp=self.persp[indices],
            frag_z=self.frag_z[indices],
            frag_w=self.frag_w[indices],
            front=self.front[indices],
        )

    def planned(self, key: tuple, build) -> np.ndarray:
        """The plan entry ``key``, built by ``build()`` on first use
        and frozen read-only, so an executor that writes into a preset
        in place raises instead of corrupting later draws."""
        array = self.plan.get(key)
        if array is None:
            array = freeze(build())
            self.plan[key] = array
        return array

    def frag_coord(self, dtype) -> np.ndarray:
        """``gl_FragCoord`` per fragment: pixel centre, depth, 1/w."""
        def build():
            coord = np.empty((self.count, 4), dtype=dtype)
            coord[:, 0] = self.px + 0.5
            coord[:, 1] = self.py + 0.5
            coord[:, 2] = self.frag_z
            coord[:, 3] = self.frag_w
            return coord

        return self.planned(("frag_coord", np.dtype(dtype).str), build)

    def point_coord(self, dtype) -> np.ndarray:
        """``gl_PointCoord`` per fragment (always zero: size-1 points)."""
        return self.planned(
            ("point_coord", np.dtype(dtype).str),
            lambda: np.zeros((self.count, 2), dtype=dtype),
        )

    def flat_index(self, fb_width: int) -> np.ndarray:
        """Each fragment's row in an (H * W, 4) view of a C-contiguous
        (H, W, 4) framebuffer of width ``fb_width``."""
        return self.planned(
            ("flat", fb_width), lambda: self.py * fb_width + self.px
        )


def freeze(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only and return it."""
    array.flags.writeable = False
    return array


def partition_tiles(batch: FragmentBatch, tile_size: int) -> List[np.ndarray]:
    """Split a fragment batch into framebuffer-aligned square tiles.

    Returns one int64 index array per non-empty ``tile_size`` ×
    ``tile_size`` pixel tile, in row-major tile order.  Each index
    array selects that tile's fragments *in their original batch
    order*, so per-tile processing followed by a scatter through the
    returned indices reassembles every per-fragment quantity — and,
    because tiles partition by pixel position, all fragments competing
    for one pixel stay in the same tile with their relative order
    intact (last-writer-wins framebuffer semantics are preserved).
    """
    if tile_size <= 0 or batch.count == 0:
        return [np.arange(batch.count, dtype=np.int64)]
    tx = batch.px // tile_size
    ty = batch.py // tile_size
    width_tiles = int(tx.max()) + 1 if tx.size else 1
    tile_id = ty * width_tiles + tx
    order = np.argsort(tile_id, kind="stable")
    sorted_ids = tile_id[order]
    boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
    return [
        chunk.astype(np.int64, copy=False)
        for chunk in np.split(order, boundaries)
    ]


def apply_scissor(
    batch: FragmentBatch, scissor: Tuple[int, int, int, int]
) -> FragmentBatch:
    """Discard fragments outside the scissor rectangle (used for the
    point/line paths; the triangle rasteriser clips its bounding boxes
    against the scissor directly)."""
    sx, sy, sw, sh = scissor
    keep = (
        (batch.px >= sx) & (batch.px < sx + sw)
        & (batch.py >= sy) & (batch.py < sy + sh)
    )
    if keep.all():
        return batch
    return batch.select(np.flatnonzero(keep))


def viewport_transform(
    positions_clip: np.ndarray, viewport: Tuple[int, int, int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Clip space -> window space.

    Returns (window (N,3): x, y, z) and the clip-space w (N,).
    No frustum clipping is performed: the GPGPU geometry is a quad at
    exactly the NDC boundary, which needs none.
    """
    vx, vy, vw, vh = viewport
    w_clip = positions_clip[:, 3]
    safe_w = np.where(w_clip == 0.0, 1.0, w_clip)
    ndc = positions_clip[:, :3] / safe_w[:, None]
    window = np.empty_like(ndc)
    window[:, 0] = (ndc[:, 0] * 0.5 + 0.5) * vw + vx
    window[:, 1] = (ndc[:, 1] * 0.5 + 0.5) * vh + vy
    window[:, 2] = ndc[:, 2] * 0.5 + 0.5
    return window, w_clip


# Fragment-batch memo for the GPGPU steady state: kernel relaunches
# redraw a byte-identical quad into the same framebuffer, so the
# fixed-function rasterisation work repeats verbatim every launch.
# The key is the exact byte content of every input, which makes a hit
# bit-identical by construction.  A memoised batch is shared between
# draws, so its arrays (and its fragment plan) are frozen read-only.
# Oversized batches are not memoised to bound memory: at most 16
# batches of at most 65536 fragments each.  With its plan a batch
# holds under 0.5 KB per fragment (about 105 B of its own, then
# gl_FragCoord and gl_PointCoord per float dtype, one flat index, and
# at most eight interpolated float64 vec4 varyings).
_RASTER_MEMO: "OrderedDict[tuple, FragmentBatch]" = OrderedDict()
_RASTER_MEMO_CAPACITY = 16
_RASTER_MEMO_MAX_FRAGMENTS = 1 << 16
#: Interpolated-varying entries one batch keeps (LRU): every varying
#: of a program within GL_MAX_VARYING_VECTORS, so a relaunch of such a
#: program never evicts its own entries.
_VARYING_MEMO_CAPACITY = VIDEOCORE_IV_LIMITS.max_varying_vectors


def raster_memo_clear() -> None:
    """Drop all memoised fragment batches (test isolation hook)."""
    _RASTER_MEMO.clear()


def rasterize_triangles(
    window: np.ndarray,
    w_clip: np.ndarray,
    triangles: np.ndarray,
    fb_width: int,
    fb_height: int,
    scissor: Optional[Tuple[int, int, int, int]] = None,
) -> FragmentBatch:
    """Rasterise triangles given window-space vertices.

    Applies the top-left fill rule so shared edges shade exactly once.
    Results are memoised on the full input content (see
    ``_RASTER_MEMO``): relaunching the same GPGPU quad skips the
    per-triangle scan entirely.
    """
    key = (
        np.ascontiguousarray(window).tobytes(),
        np.ascontiguousarray(w_clip).tobytes(),
        np.ascontiguousarray(triangles).tobytes(),
        triangles.shape[0],
        str(triangles.dtype),
        fb_width,
        fb_height,
        scissor,
    )
    hit = _RASTER_MEMO.get(key)
    if hit is not None:
        _RASTER_MEMO.move_to_end(key)
        return hit
    batch = _rasterize_triangles(
        window, w_clip, triangles, fb_width, fb_height, scissor
    )
    if batch.count <= _RASTER_MEMO_MAX_FRAGMENTS:
        for array in (batch.px, batch.py, batch.vertex_ids, batch.bary,
                      batch.persp, batch.frag_z, batch.frag_w,
                      batch.front):
            freeze(array)
        batch.varyings = OrderedDict()
        _RASTER_MEMO[key] = batch
        while len(_RASTER_MEMO) > _RASTER_MEMO_CAPACITY:
            _RASTER_MEMO.popitem(last=False)
    return batch


def _rasterize_triangles(
    window: np.ndarray,
    w_clip: np.ndarray,
    triangles: np.ndarray,
    fb_width: int,
    fb_height: int,
    scissor: Optional[Tuple[int, int, int, int]] = None,
) -> FragmentBatch:
    all_px: List[np.ndarray] = []
    all_py: List[np.ndarray] = []
    all_ids: List[np.ndarray] = []
    all_bary: List[np.ndarray] = []
    all_persp: List[np.ndarray] = []
    all_z: List[np.ndarray] = []
    all_w: List[np.ndarray] = []
    all_front: List[np.ndarray] = []

    min_x, min_y = 0, 0
    max_x, max_y = fb_width, fb_height
    if scissor is not None:
        sx, sy, sw, sh = scissor
        min_x, min_y = max(min_x, sx), max(min_y, sy)
        max_x, max_y = min(max_x, sx + sw), min(max_y, sy + sh)

    for tri in triangles:
        # Scalar edge setup in native floats (IEEE double, identical
        # arithmetic to the former numpy-scalar version, far cheaper
        # per triangle).
        v0x, v0y = float(window[tri[0], 0]), float(window[tri[0], 1])
        v1x, v1y = float(window[tri[1], 0]), float(window[tri[1], 1])
        v2x, v2y = float(window[tri[2], 0]), float(window[tri[2], 1])
        area = (v1x - v0x) * (v2y - v0y) - (v1y - v0y) * (v2x - v0x)
        if area == 0.0:
            continue
        orient = 1.0 if area > 0 else -1.0

        x_lo = max(int(np.floor(min(v0x, v1x, v2x))), min_x)
        x_hi = min(int(np.ceil(max(v0x, v1x, v2x))), max_x)
        y_lo = max(int(np.floor(min(v0y, v1y, v2y))), min_y)
        y_hi = min(int(np.ceil(max(v0y, v1y, v2y))), max_y)
        if x_lo >= x_hi or y_lo >= y_hi:
            continue

        # Row/column vectors broadcast to the (H, W) bbox lazily —
        # same elementwise values as an explicit meshgrid without
        # materialising the coordinate planes.
        xs = np.arange(x_lo, x_hi, dtype=np.float64)[None, :] + 0.5
        ys = np.arange(y_lo, y_hi, dtype=np.float64)[:, None] + 0.5

        inside = None
        edge_values = []
        for ax, ay, bx, by in (
            (v1x, v1y, v2x, v2y),
            (v2x, v2y, v0x, v0y),
            (v0x, v0y, v1x, v1y),
        ):
            dx = (bx - ax) * orient
            dy = (by - ay) * orient
            e = dx * (ys - ay) - dy * (xs - ax)
            top_left = dy > 0.0 or (dy == 0.0 and dx < 0.0)
            hit = e >= 0.0 if top_left else e > 0.0
            inside = hit if inside is None else (inside & hit)
            edge_values.append(e)
        if not inside.any():
            continue
        iy, ix = np.nonzero(inside)

        e0, e1, e2 = (e[iy, ix] for e in edge_values)
        total = e0 + e1 + e2
        bary = np.stack([e0, e1, e2], axis=1) / total[:, None]

        ws = w_clip[tri]
        if ws[0] == 1.0 and ws[1] == 1.0 and ws[2] == 1.0:
            # GPGPU quad fast path: with every clip w == 1 the
            # perspective weights equal the window-space barycentrics
            # exactly (the reciprocal/normalise round trip divides
            # each weight by their sum twice — pure overhead and a
            # rounding detour on every kernel launch).
            persp = bary
            frag_inv_w = np.ones(bary.shape[0], dtype=np.float64)
        else:
            inv_w = np.where(ws == 0.0, 1.0, 1.0 / ws)
            persp_num = bary * inv_w[None, :]
            frag_inv_w = persp_num.sum(axis=1)
            persp = persp_num / frag_inv_w[:, None]

        zs = window[tri, 2]
        frag_z = bary @ zs

        all_px.append(x_lo + ix)
        all_py.append(y_lo + iy)
        all_ids.append(np.broadcast_to(tri, (ix.shape[0], 3)).copy())
        all_bary.append(bary)
        all_persp.append(persp)
        all_z.append(frag_z)
        all_w.append(frag_inv_w)
        # Positive signed area means the projected winding is CCW —
        # the default front face (glFrontFace(GL_CCW)).
        all_front.append(np.full(ix.shape[0], area > 0.0, dtype=bool))

    if not all_px:
        empty_f = np.zeros((0,), dtype=np.float64)
        return FragmentBatch(
            px=np.zeros((0,), dtype=np.int64),
            py=np.zeros((0,), dtype=np.int64),
            vertex_ids=np.zeros((0, 3), dtype=np.int64),
            bary=np.zeros((0, 3)),
            persp=np.zeros((0, 3)),
            frag_z=empty_f,
            frag_w=empty_f,
        )
    return FragmentBatch(
        px=np.concatenate(all_px),
        py=np.concatenate(all_py),
        vertex_ids=np.concatenate(all_ids).astype(np.int64),
        bary=np.concatenate(all_bary),
        persp=np.concatenate(all_persp),
        frag_z=np.concatenate(all_z),
        frag_w=np.concatenate(all_w),
        front=np.concatenate(all_front),
    )


def assemble_lines(mode: int, indices: np.ndarray) -> np.ndarray:
    """Group a vertex index stream into (L, 2) line segments."""
    count = indices.shape[0]
    if mode == enums.GL_LINES:
        pairs = count // 2
        return indices[: pairs * 2].reshape(pairs, 2)
    if mode == enums.GL_LINE_STRIP:
        if count < 2:
            return np.zeros((0, 2), dtype=indices.dtype)
        return np.stack([indices[:-1], indices[1:]], axis=1)
    if mode == enums.GL_LINE_LOOP:
        if count < 2:
            return np.zeros((0, 2), dtype=indices.dtype)
        nxt = np.concatenate([indices[1:], indices[:1]])
        return np.stack([indices, nxt], axis=1)
    raise SimulatorLimitation(f"mode {hex(mode)} is not a line mode")


def rasterize_lines(
    window: np.ndarray,
    w_clip: np.ndarray,
    segments: np.ndarray,
    fb_width: int,
    fb_height: int,
) -> FragmentBatch:
    """Width-1 line rasterisation (DDA along the major axis, the GL
    diamond-exit rule approximated by sampling one fragment per major
    step)."""
    all_px, all_py, all_ids, all_t = [], [], [], []
    for seg in segments:
        a, b = window[seg[0]], window[seg[1]]
        dx, dy = b[0] - a[0], b[1] - a[1]
        steps = int(np.ceil(max(abs(dx), abs(dy))))
        if steps == 0:
            ts = np.array([0.0])
        else:
            ts = (np.arange(steps) + 0.5) / steps
        xs = a[0] + dx * ts
        ys = a[1] + dy * ts
        px = np.floor(xs).astype(np.int64)
        py = np.floor(ys).astype(np.int64)
        keep = (px >= 0) & (px < fb_width) & (py >= 0) & (py < fb_height)
        if not keep.any():
            continue
        all_px.append(px[keep])
        all_py.append(py[keep])
        all_t.append(ts[keep])
        all_ids.append(
            np.broadcast_to(
                np.array([seg[0], seg[1], seg[1]]), (int(keep.sum()), 3)
            ).copy()
        )
    if not all_px:
        empty_f = np.zeros((0,), dtype=np.float64)
        return FragmentBatch(
            px=np.zeros((0,), dtype=np.int64),
            py=np.zeros((0,), dtype=np.int64),
            vertex_ids=np.zeros((0, 3), dtype=np.int64),
            bary=np.zeros((0, 3)),
            persp=np.zeros((0, 3)),
            frag_z=empty_f,
            frag_w=empty_f,
        )
    px = np.concatenate(all_px)
    py = np.concatenate(all_py)
    ids = np.concatenate(all_ids).astype(np.int64)
    ts = np.concatenate(all_t)
    bary = np.zeros((px.shape[0], 3))
    bary[:, 0] = 1.0 - ts
    bary[:, 1] = ts
    w_a = w_clip[ids[:, 0]]
    w_b = w_clip[ids[:, 1]]
    inv_a = np.where(w_a == 0.0, 1.0, 1.0 / w_a)
    inv_b = np.where(w_b == 0.0, 1.0, 1.0 / w_b)
    persp_num = np.zeros_like(bary)
    persp_num[:, 0] = bary[:, 0] * inv_a
    persp_num[:, 1] = bary[:, 1] * inv_b
    frag_inv_w = persp_num[:, 0] + persp_num[:, 1]
    persp = persp_num / frag_inv_w[:, None]
    za = window[ids[:, 0], 2]
    zb = window[ids[:, 1], 2]
    frag_z = bary[:, 0] * za + bary[:, 1] * zb
    return FragmentBatch(
        px=px, py=py, vertex_ids=ids, bary=bary, persp=persp,
        frag_z=frag_z, frag_w=frag_inv_w,
    )


def rasterize_points(
    window: np.ndarray,
    w_clip: np.ndarray,
    indices: np.ndarray,
    fb_width: int,
    fb_height: int,
) -> FragmentBatch:
    """GL_POINTS with point size 1: one fragment per on-screen vertex."""
    px = np.floor(window[indices, 0]).astype(np.int64)
    py = np.floor(window[indices, 1]).astype(np.int64)
    keep = (px >= 0) & (px < fb_width) & (py >= 0) & (py < fb_height)
    idx = indices[keep]
    count = idx.shape[0]
    bary = np.zeros((count, 3))
    bary[:, 0] = 1.0
    ws = w_clip[idx]
    inv_w = np.where(ws == 0.0, 1.0, 1.0 / ws)
    return FragmentBatch(
        px=px[keep],
        py=py[keep],
        vertex_ids=np.stack([idx, idx, idx], axis=1).astype(np.int64),
        bary=bary,
        persp=bary.copy(),
        frag_z=window[idx, 2],
        frag_w=inv_w,
    )


def interpolate_varying(batch: FragmentBatch, per_vertex: np.ndarray,
                        dtype=None) -> np.ndarray:
    """Perspective-correct interpolation of per-vertex data.

    ``per_vertex`` has shape (num_vertices, ...); the result has shape
    (F, ...), cast to ``dtype`` when given.  On a batch from the raster
    memo the result is memoised, keyed by the per-vertex bytes and the
    target dtype, and returned read-only: a relaunch that hands the
    batch the same vertex outputs gets the same array back.
    """
    memo = batch.varyings
    if memo is not None:
        key = (per_vertex.tobytes(), per_vertex.shape, per_vertex.dtype.str,
               None if dtype is None else np.dtype(dtype).str)
        hit = memo.get(key)
        if hit is not None:
            memo.move_to_end(key)
            return hit
    v = per_vertex[batch.vertex_ids]  # (F, 3, ...)
    weights = batch.persp
    weights = weights.reshape(weights.shape + (1,) * (v.ndim - 2))
    result = (v * weights).sum(axis=1)
    if dtype is not None:
        result = result.astype(dtype, copy=False)
    if memo is None:
        return result
    memo[key] = freeze(result)
    while len(memo) > _VARYING_MEMO_CAPACITY:
        memo.popitem(last=False)
    return result
