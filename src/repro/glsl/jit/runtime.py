"""Runtime support of generated JIT functions.

What a draw needs to run a generated function, whether it was just
generated (:mod:`.codegen`) or loaded from the artifact store: the
helper namespace every generated function executes in
(:func:`make_helpers`, ``_fetch`` included), the per-draw state of
fused reads (:func:`begin_draw`, :data:`site_outcomes`) and their
counting (:func:`count_sites`).  A warm process runs its kernels from
this module alone and never imports the generator.
"""

from __future__ import annotations

import functools
from typing import Dict

import numpy as np

from ...perf import counters
from ...testing import faults
from ..builtins import _mod
from ..errors import GlslLimitError
from ..values import INT_DTYPE, masked_blend


#: Storages with more texels than this never take a fused read: the
#: flat-index proof enumerates every index.
FLAT_INDEX_LIMIT = 1 << 24


@functools.lru_cache(maxsize=None)
def flat_index_exact(dtype: str, width: float, height: float) -> bool:
    """True when, in float ``dtype``, the kernel's address chain maps
    every flat index ``i < W*H`` of a ``width`` x ``height`` storage to
    its own texel: ``mod(i, W) == i % W`` and ``floor(i / W) == i // W``,
    evaluated with the generated code's own numpy ops (``_mod``, the
    divide, ``np.floor``, each cast to ``dtype``).  A fused read takes
    texel ``i`` of the flat storage only when this holds; the check runs
    once per (dtype, W, H), in chunks of whole rows."""
    count = int(width * height)
    if count > FLAT_INDEX_LIMIT:
        return False
    dt = np.dtype(dtype)
    size = np.asarray([width], dt)
    step = max(1, (1 << 16) // int(width)) * int(width)
    for start in range(0, count, step):
        ints = np.arange(start, min(start + step, count))
        index = ints.astype(dt)
        x = np.asarray(_mod(index, size), dt)
        y = np.asarray(np.floor(np.asarray(index / size, dt)), dt)
        if not (np.array_equal(x, ints % int(width))
                and np.array_equal(y, ints // int(width))):
            return False
    return True


#: The outcome of every fused-read site in the generated function that
#: is running now: site number -> True while each of its executions hit,
#: False once one missed.  A run starts with it cleared
#: (``JitExecutor.execute``, a pool worker's chunk); ``count_sites``
#: then counts each site once for the draw.
site_outcomes: Dict[int, bool] = {}

#: Per-draw decode state of the running generated function, cleared
#: with ``site_outcomes`` (:func:`begin_draw`): a site's decoder output
#: over a whole texel storage, keyed on (decoder, id(storage)), and the
#: lanes the draw has read so far under each key.  Nothing survives a
#: draw: kernels rewrite texel storage in place between draws.
storage_memo: Dict[tuple, tuple] = {}
storage_reads: Dict[tuple, int] = {}


def begin_draw() -> None:
    """Clear the per-draw state of fused reads before a run."""
    site_outcomes.clear()
    storage_memo.clear()
    storage_reads.clear()


def count_sites(outcomes: Dict[int, bool]) -> None:
    """Count each fused-read site of one draw once: a texture gather
    if all its executions hit, otherwise a gather fallback."""
    hits = sum(outcomes.values())
    counters.values["draw.texture_gathers"] += hits
    counters.values["draw.gather_fallbacks"] += len(outcomes) - hits


# ======================================================================
# Runtime helpers (closed over the float model)
# ======================================================================
def make_helpers(fmodel) -> Dict[str, object]:
    """Small runtime support functions shared by all generated code for
    one float model.  Each replicates the data-level semantics of the
    matching interpreter path exactly (see interp.py)."""
    DT = fmodel.dtype
    quantize = fmodel.quantize

    def _index(data, idx):
        # Interpreter._index_value, non-struct path.
        n = max(data.shape[0], idx.shape[0])
        if data.shape[0] != n:
            data = np.broadcast_to(data, (n,) + data.shape[1:])
        if idx.shape[0] != n:
            idx = np.broadcast_to(idx, (n,))
        idx = np.minimum(np.maximum(idx, 0), data.shape[1] - 1)
        if np.all(idx == idx.flat[0]):
            return data[:, int(idx.flat[0])].copy()
        expand = idx.reshape((n,) + (1,) * (data.ndim - 1))
        expand = np.broadcast_to(expand, (n, 1) + data.shape[2:])
        return np.take_along_axis(data, expand, axis=1)[:, 0]

    def _st(old, new, mask):
        # values.assign_masked, data level.
        out = masked_blend(old, new, mask)
        if out.dtype != old.dtype:
            out = out.astype(old.dtype)
        return out

    def _swz_store(base, indices, value, mask):
        # _SwizzleRef.write: widen, copy, per-component where.
        n = max(base.shape[0], value.shape[0],
                1 if mask is None else mask.shape[0])
        if base.shape[0] != n:
            base = np.broadcast_to(base, (n,) + base.shape[1:])
        data = base.copy()
        inc = value
        if inc.shape[0] != n:
            inc = np.broadcast_to(inc, (n,) + inc.shape[1:])
        if mask is None:
            # Full-mask store: straight column assignment, no blend.
            if len(indices) == 1:
                data[:, indices[0]] = inc
            else:
                for slot, component in enumerate(indices):
                    data[:, component] = inc[:, slot]
            return data
        if len(indices) == 1:
            col = data[:, indices[0]]
            data[:, indices[0]] = np.where(mask, inc, col)
        else:
            for slot, component in enumerate(indices):
                col = data[:, component]
                data[:, component] = np.where(mask, inc[:, slot], col)
        return data

    def _swz_put(base, indices, value):
        # In-place variant of the full-mask _swz_store for arrays the
        # generated code exclusively owns (fresh unaliased copies).
        if value.shape[0] > base.shape[0]:
            return _swz_store(base, indices, value, None)
        if len(indices) == 1:
            base[:, indices[0]] = value
        else:
            for slot, component in enumerate(indices):
                base[:, component] = value[:, slot]
        return base

    def _idx_store(base, idx, value, mask):
        # _IndexRef.write, non-struct path.
        if mask is None:
            mask = np.ones(1, dtype=bool)
        n = max(base.shape[0], value.shape[0], mask.shape[0], idx.shape[0])
        if base.shape[0] != n:
            base = np.broadcast_to(base, (n,) + base.shape[1:])
        data = base.copy()
        if idx.shape[0] != n:
            idx = np.broadcast_to(idx, (n,))
        idx = np.minimum(np.maximum(idx, 0), data.shape[1] - 1)
        inc = value
        if inc.shape[0] != n:
            inc = np.broadcast_to(inc, (n,) + inc.shape[1:])
        if np.all(idx == idx.flat[0]):
            slot = int(idx.flat[0])
            data[:, slot] = masked_blend(data[:, slot], inc, mask)
        else:
            expand = idx.reshape((n, 1) + (1,) * (data.ndim - 2))
            expand = np.broadcast_to(expand, (n, 1) + data.shape[2:])
            current = np.take_along_axis(data, expand, axis=1)[:, 0]
            blended = masked_blend(current, inc, mask)
            np.put_along_axis(data, expand, blended[:, None], axis=1)
        return data

    def _flat(parts):
        # values.flatten_components, data level.
        n = 1
        for p in parts:
            if p.shape[0] != 1:
                n = p.shape[0]
        cols = []
        for p in parts:
            if p.shape[0] != n:
                p = np.broadcast_to(p, (n,) + p.shape[1:])
            cols.append(p.reshape(n, -1))
        return np.concatenate(cols, axis=1)

    def _mdiag(diag, k):
        # matN(scalar): zeros with the converted scalar on the diagonal.
        data = np.zeros((diag.shape[0], k, k), dtype=DT)
        for i in range(k):
            data[:, i, i] = diag
        return data

    # When the model's "tex" quantize is a pure cast, asarray(.., DT)
    # reproduces quantize(astype(DT)) bit-for-bit with one conversion.
    tex_cast_only = fmodel.quantize_is_cast("tex")

    def _tex(sampler, coords, kind):
        # Interpreter._eval_texture, data level.
        if coords.dtype != np.float64:
            coords = coords.astype(np.float64)
        if sampler is None:
            texels = np.zeros((coords.shape[0], 4), dtype=DT)
            texels[:, 3] = 1.0
            return texels
        if kind == 1:
            coords = coords[:, :2] / coords[:, 2:3]
        elif kind == 2:
            coords = coords[:, :2] / coords[:, 3:4]
        elif kind == 3:
            texels = sampler.sample_cube(coords)
        else:
            texels = sampler.sample(coords[:, 0], coords[:, 1])
        if tex_cast_only:
            return np.asarray(texels, DT)
        return quantize(texels.astype(DT), "tex")

    fire = faults.fire
    values = counters.values
    dtype = np.dtype(DT).str

    def _fetch(site, sampler, idx, size, rgba, dec=None, mask=None):
        # One fused kernel-input read (see glsl.ir.gather): the stored
        # bytes of texel `idx` of the flat storage, in the model dtype
        # - what the decode floor(texture2D(..) * 255.0 + 0.5) returns,
        # by the identity decode_exact proved for this dtype.  The
        # static half of the proof (the coordinate is
        # (vec2(mod(idx, W), floor(idx / W)) + 0.5) / size) comes from
        # the annotation; everything checked here is the runtime half:
        # the sampler qualifies (complete, NEAREST, CLAMP_TO_EDGE,
        # storage matching `size`), the model's mod and floor address
        # texel idx of this storage (flat_index_exact), and idx is
        # integral and in range.  Under a mask the inactive lanes read
        # texel 0: a masked read's result is only ever stored under
        # that mask.  A miss returns None and the caller runs the
        # original coordinates, sample and decode.  Either way the
        # outcome lands in site_outcomes under the site's number.
        #
        # With a decoder (the site's decode tail) the read returns
        # dec(bytes) instead: taken from dec(all storage rows), run at
        # most once per draw per (decoder, storage), once the draw's
        # reads under that key cover more lanes than the storage has
        # texels; else decoded lane by lane.
        gi = getattr(sampler, "gather_info", None)
        if gi is not None and size.shape[0] == 1:
            width, height = float(size[0, 0]), float(size[0, 1])
            data = gi(width, height)
            if mask is not None:
                idx = np.where(mask, idx, 0)
            # In range (a NaN minimum compares False), then integral;
            # only then is the intp cast exact.
            if (data is not None and idx.size > 0
                    and idx.min() >= 0 and idx.max() < width * height
                    and (np.floor(idx) == idx).all()
                    and flat_index_exact(dtype, width, height)
                    and not fire("gather_miss")):
                site_outcomes.setdefault(site, True)
                texel = idx.astype(np.intp)
                rows = data.reshape(-1, 4)
                if dec is not None:
                    key = (dec, id(data))
                    outs = storage_memo.get(key)
                    if outs is None:
                        reads = storage_reads.get(key, 0) + texel.size
                        storage_reads[key] = reads
                        if reads > rows.shape[0]:
                            outs = storage_memo[key] = dec(
                                (rows if rgba else rows[:, 0]).astype(DT))
                            values["jit.storage_decodes"] += 1
                    if outs is not None:
                        return tuple(out.take(texel, axis=0)
                                     for out in outs)
                rows = rows.take(texel, axis=0)
                fetched = (rows if rgba else rows[:, 0]).astype(DT)
                return fetched if dec is None else dec(fetched)
        site_outcomes[site] = False
        return None

    return {
        "np": np,
        "DT": DT,
        "I32": INT_DTYPE,
        "Q": quantize,
        "GlslLimitError": GlslLimitError,
        "_index": _index,
        "_st": _st,
        "_swz_store": _swz_store,
        "_swz_put": _swz_put,
        "_idx_store": _idx_store,
        "_flat": _flat,
        "_mdiag": _mdiag,
        "_tex": _tex,
        "_fetch": _fetch,
    }
