"""Deterministic (batch-invariant) linear algebra primitives.

The batched engine (``repro.engine``) promises *bit-for-bit* parity with the
single-head :class:`~repro.core.pipeline.SofaAttention`: stacking eight heads
into one call must produce exactly the float64 bit patterns the eight
individual calls produce.  BLAS-backed ``@`` breaks that promise - gemm/gemv
pick different blocking (and therefore different summation orders) depending
on the operand shapes, so a row's result can change when unrelated rows are
appended.

Two families of primitives restore the invariance:

* the on-demand K/V projection (:func:`det_gathered_project`, with
  :func:`det_matmul` as its one-matrix case) is a *sequential
  accumulate* over the contraction axis.  Each step is one elementwise
  multiply into a preallocated buffer and one in-place add, so every
  output element is ``((0.0 + x0*w0) + x1*w1) + ...`` in ``K`` order - a
  pure function of that row's data.  That is exactly the order in which
  NumPy reduces a non-innermost axis, starting from the additive
  identity.  So the result has the same bits as summing the
  broadcast-multiply ``(rows, K, N)`` product with ``sum(axis=1)``,
  without ever building that product; ``tests/test_numerics_linalg.py``
  keeps that formulation as its differential oracle.  :func:`det_rowdot` reduces over the innermost
  axis, where NumPy's pairwise tree depends only on the axis length;
* the SU-FA hot-path primitives (``det_stack_scores``, ``det_pv_contract``,
  ``det_tile_mass``) are *stacked fixed-shape* contractions: each row is its
  own ``(kk, D) @ (D, 1)``-style BLAS call whose operand shapes - and hence
  whose internal reduction order - do not depend on the stack size, so rows
  stay batch-invariant at full BLAS speed.  What IS forbidden remains one
  fused gemm over the whole stack, whose blocking would couple rows.

Either way, every row's output is independent of how many other rows share
the call and of any chunking used to bound memory.
"""

from __future__ import annotations

import numpy as np

#: Rows processed per chunk: bounds the (chunk, N) accumulate buffers.
_DEFAULT_CHUNK_ROWS = 256


def _accumulate(x: np.ndarray, w: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """``out[...] = x @ w`` summed sequentially over ``K`` from ``+0.0``.

    ``x`` is ``(c, K)``, ``w`` is ``(K, N)``; ``out`` and ``tmp`` are
    ``(c, N)`` buffers.  Element ``(i, j)`` is ``((0.0 + x[i,0] w[0,j]) +
    x[i,1] w[1,j]) + ...``: the order in which ``sum(axis=1)`` of the
    C-contiguous ``(c, K, N)`` product reduces, since that axis is not the
    innermost one and NumPy's reduce starts from the additive identity.
    The exception is ``N == 1``: the length-1 axis vanishes, ``K`` becomes
    the innermost axis and NumPy sums it with its pairwise tree, so that
    case sums the ``(c, K)`` product over its last axis - the same tree,
    and a product no larger than ``x``.
    """
    if w.shape[1] == 1:
        out[:, 0] = (x * w[:, 0]).sum(axis=1)
        return
    out.fill(0.0)
    for k in range(x.shape[1]):
        np.multiply(x[:, k, None], w[k], out=tmp)
        out += tmp


def det_matmul(
    a: np.ndarray, b: np.ndarray, chunk_rows: int = _DEFAULT_CHUNK_ROWS
) -> np.ndarray:
    """Deterministic ``(M, K) @ (K, N)`` float64 matmul.

    The one-matrix case of :func:`det_gathered_project` (same accumulate
    routine, same bits): row ``i`` of the result is bit-identical for any
    ``M`` and any chunking, which is what lets the sequential pipeline and
    the batched engine share exact outputs.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {b.shape}")
    return det_gathered_project(
        a, b[None], np.zeros(a.shape[0], dtype=np.int64), chunk_rows
    )


def det_gathered_project(
    x: np.ndarray,
    w: np.ndarray,
    row_matrix: np.ndarray,
    chunk_rows: int = _DEFAULT_CHUNK_ROWS,
) -> np.ndarray:
    """Per-row projection ``out[i] = x[i] @ w[row_matrix[i]]``.

    ``x`` is ``(R, K)``, ``w`` is a stack ``(N_mats, K, N)`` and
    ``row_matrix`` maps each row to its matrix (the engine maps selected
    tokens back to their head's projection weights).  Each output element
    is the sequential ``K``-order sum described in :func:`_accumulate`.
    It is bit-identical to the broadcast product
    ``x[i:i+1, :, None] * w[row_matrix[i]]`` summed over ``axis=1``, and
    to ``det_matmul(x[i:i+1], w[row_matrix[i]])``, however the rows are
    chunked, ordered or grouped.  ``K == 0`` gives zeros, as the sum over
    an empty axis does.  Working memory is two ``(chunk_rows, N)``
    buffers.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    row_matrix = np.asarray(row_matrix, dtype=np.int64)
    if x.ndim != 2 or w.ndim != 3 or x.shape[1] != w.shape[1]:
        raise ValueError(f"incompatible shapes {x.shape} x {w.shape}")
    if row_matrix.shape != (x.shape[0],):
        raise ValueError("row_matrix must map every row of x to a matrix")
    r, n = x.shape[0], w.shape[2]
    out = np.empty((r, n), dtype=np.float64)
    if r == 0:
        return out
    step = max(chunk_rows, 1)
    tmp = np.empty((min(step, r), n), dtype=np.float64)
    # Runs of a constant matrix index (the engine's rows arrive head-sorted)
    # share one weight matrix; the accumulate is elementwise, so neither the
    # runs nor the row chunks inside them change any row's bits.
    boundaries = np.flatnonzero(np.diff(row_matrix)) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [r]))
    for start, stop in zip(starts, stops):
        mat = w[int(row_matrix[start])]
        for lo in range(int(start), int(stop), step):
            hi = min(lo + step, int(stop))
            _accumulate(x[lo:hi], mat, out[lo:hi], tmp[: hi - lo])
    return out


def det_rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic dot product over the last axis with broadcasting.

    The product is materialized C-contiguously and reduced over the final
    axis, so each entry depends only on its own ``D`` elements regardless of
    what else shares the call.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    prod = np.ascontiguousarray(a * b)
    return prod.sum(axis=-1)


def det_stack_scores(k_sel: np.ndarray, q_rows: np.ndarray) -> np.ndarray:
    """Batch-invariant score gather ``scores[r, j] = k_sel[r, j] . q_rows[r]``.

    ``k_sel`` is ``(R, kk, D)``, ``q_rows`` is ``(R, D)``; returns ``(R,
    kk)``.  Implemented as a stacked matrix-vector product: every row ``r``
    is its own ``(kk, D) @ (D,)`` BLAS call whose operand shapes - and
    therefore whose reduction order - do not depend on how many rows share
    the stack, so row results are bit-identical whether one row or ten
    thousand are gathered together (the same guarantee the materialized
    :func:`det_rowdot` gives, an order of magnitude faster on the SU-FA
    hot path; ``tests/test_engine_batched.py``'s parity sweep and the
    kernel differential suite enforce the invariance on real payloads).
    """
    k_sel = np.asarray(k_sel, dtype=np.float64)
    q_rows = np.asarray(q_rows, dtype=np.float64)
    if k_sel.ndim != 3 or q_rows.ndim != 2 or k_sel.shape[0::2] != q_rows.shape:
        raise ValueError(f"incompatible shapes {k_sel.shape} x {q_rows.shape}")
    return np.matmul(k_sel, q_rows[:, :, None])[:, :, 0]


def det_pv_contract(p_tile: np.ndarray, v_tile: np.ndarray) -> np.ndarray:
    """Batch-invariant tile contraction ``out[r] = sum_j p_tile[r, j] * v_tile[r, j]``.

    ``p_tile`` is ``(R, B)`` softmax weights of one SU-FA tile, ``v_tile``
    is ``(R, B, Dv)``; returns the ``(R, Dv)`` tile partial the streaming
    core merges into its carried output at the tile boundary.  Like
    :func:`det_stack_scores`, each row is its own fixed-shape
    ``(1, B) @ (B, Dv)`` BLAS contraction, so a row's partial is
    bit-identical whether one row or the whole engine stack shares the
    call - and because **every** SU-FA kernel funnels its tile merges
    through this one primitive, the blocked/reference bit-parity contract
    holds no matter how the BLAS orders the ``B`` products internally.

    Callers must pass the streaming stack with each row's ``(B, Dv)``
    value slice laid out contiguously (true for every tile slice of a
    freshly gathered ``(R, kk, Dv)`` stack, whether it holds every row or
    one row chunk of the engine's stack); tiny-shape matmuls take
    layout-dependent internal paths, so the kernel layer keeps every call
    site on this one canonical layout rather than contracting strided
    row subsets.
    """
    p_tile = np.asarray(p_tile, dtype=np.float64)
    v_tile = np.asarray(v_tile, dtype=np.float64)
    if (
        p_tile.ndim != 2
        or v_tile.ndim != 3
        or v_tile.shape[:2] != p_tile.shape
    ):
        raise ValueError(f"incompatible shapes {p_tile.shape} x {v_tile.shape}")
    return np.matmul(p_tile[:, None, :], v_tile)[:, 0, :]


def det_tile_mass(p_tile: np.ndarray) -> np.ndarray:
    """Batch-invariant normalizer mass ``out[r] = sum_j p_tile[r, j]``.

    The ``(R,)`` tile partial the streaming core adds to its carried
    softmax normalizer at the tile boundary.  ``np.sum`` over the
    contiguous last axis reduces each row's ``B`` weights with a pairwise
    tree that depends only on ``B``, so - as with :func:`det_pv_contract`
    - a row's mass is independent of its batch-mates, and all kernels
    sharing this primitive stay bit-identical.
    """
    p_tile = np.ascontiguousarray(p_tile, dtype=np.float64)
    if p_tile.ndim != 2:
        raise ValueError(f"p_tile must be (R, B), got {p_tile.shape}")
    return p_tile.sum(axis=1)
