"""Batch-invariance tests for the deterministic linalg primitives.

Every primitive in ``repro.numerics.linalg`` promises that a row's result
is a pure function of that row's data - independent of how many other rows
share the call and of internal chunking.  The engine's bit-parity
contract (per-head == batched == cluster) and the SU-FA kernel layer's
differential contract both stand on these invariances, so they get their
own direct tests.
"""

import numpy as np
import pytest

from repro.numerics.linalg import (
    _DEFAULT_CHUNK_ROWS,
    det_gathered_project,
    det_matmul,
    det_pv_contract,
    det_rowdot,
    det_stack_scores,
    det_tile_mass,
)
from repro.utils.rng import make_rng


def test_det_matmul_rows_independent_of_batch_and_chunking():
    rng = make_rng(1)
    a = rng.normal(size=(37, 16))
    b = rng.normal(size=(16, 9))
    full = det_matmul(a, b)
    assert det_matmul(a, b, chunk_rows=3).tobytes() == full.tobytes()
    for sl in (slice(0, 1), slice(5, 20), slice(36, 37)):
        assert det_matmul(a[sl], b).tobytes() == full[sl].tobytes()


def _broadcast_sum_project(x, w, row_matrix, chunk_rows=256):
    """The oracle: the original formulation - per run of a constant matrix
    index, a fresh C-contiguous ``(c, K, N)`` broadcast product per row
    chunk, reduced with ``sum(axis=1)``."""
    r, n = x.shape[0], w.shape[2]
    out = np.empty((r, n))
    if r == 0:
        return out
    boundaries = np.flatnonzero(np.diff(row_matrix)) + 1
    for start, stop in zip(np.r_[0, boundaries], np.r_[boundaries, r]):
        mat = w[int(row_matrix[start])]
        for lo in range(int(start), int(stop), chunk_rows):
            hi = min(lo + chunk_rows, int(stop))
            out[lo:hi] = (x[lo:hi, :, None] * mat[None, :, :]).sum(axis=1)
    return out


def _projection_operands(rng, kind, r, k, n, n_mats):
    if kind == "normal":
        x, w = rng.normal(size=(r, k)), rng.normal(size=(n_mats, k, n))
    elif kind == "integer":  # the engine's token activations
        x = rng.integers(-100, 100, size=(r, k)).astype(np.float64)
        w = rng.normal(size=(n_mats, k, n))
    elif kind == "wide":  # finite magnitudes spanning 1e-300..1e300
        x = rng.normal(size=(r, k)) * 10.0 ** rng.uniform(-150, 150, size=(r, k))
        w = rng.normal(size=(n_mats, k, n)) * 10.0 ** rng.uniform(
            -150, 150, size=(n_mats, k, n)
        )
    else:  # signed zeros and subnormals mixed into normal values
        specials = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -1.0])
        x = rng.choice(specials, size=(r, k)) * rng.choice([1.0, 0.5], size=(r, k))
        w = rng.choice(specials, size=(n_mats, k, n))
    return x, w


#: Row counts straddling the projection's row-chunk boundaries.
_R_STRADDLE = (0, 1, 3, _DEFAULT_CHUNK_ROWS - 1, _DEFAULT_CHUNK_ROWS + 1,
               2 * _DEFAULT_CHUNK_ROWS + 5)


def _row_matrix(rng, layout, r, n_mats):
    if layout == "sorted":  # head runs, as the engine emits them
        return np.sort(rng.integers(0, n_mats, size=r))
    if layout == "single_rows":  # every row its own run
        return np.arange(r) % n_mats
    return rng.integers(0, n_mats, size=r)  # interleaved, unsorted runs


@pytest.mark.parametrize("kind", ["normal", "integer", "wide", "zeros_subnormals"])
@pytest.mark.parametrize("k", [0, 1, 2, 64])
def test_projection_matches_broadcast_sum_oracle_bit_for_bit(kind, k):
    """Differential sweep: the sequential accumulate vs the broadcast-sum
    oracle over value classes, contraction lengths, row counts straddling
    chunk boundaries, output widths (``N == 1`` reduces innermost), head
    runs (single-row and interleaved) and non-contiguous ``x``."""
    rng = make_rng(100 + k)
    n_mats = 3
    cases = [(r, "sorted") for r in _R_STRADDLE] + [
        (r, layout) for r in (1, 2, 41) for layout in ("single_rows", "interleaved")
    ]
    for r, layout in cases:
        for n in (1, 2, 9):
            ctx = (kind, k, r, n, layout)
            x, w = _projection_operands(rng, kind, r, k, n, n_mats)
            row_matrix = _row_matrix(rng, layout, r, n_mats)
            expect = _broadcast_sum_project(x, w, row_matrix)
            got = det_gathered_project(x, w, row_matrix)
            assert got.tobytes() == expect.tobytes(), ctx
            # non-contiguous x (every other row of a wider array), odd chunks
            wide = np.zeros((2 * r, k + 3))
            wide[::2, 1 : k + 1] = x
            got = det_gathered_project(wide[::2, 1 : k + 1], w, row_matrix, chunk_rows=7)
            assert got.tobytes() == expect.tobytes(), ctx
            only = row_matrix == 0
            assert det_matmul(x[only], w[0]).tobytes() == expect[only].tobytes(), ctx


def test_projection_over_empty_contraction_is_zeros():
    """``K == 0``: the sum over an empty axis - positive zeros."""
    x = np.empty((5, 0))
    out = det_gathered_project(x, np.empty((2, 0, 4)), np.array([0, 0, 1, 1, 0]))
    assert out.tobytes() == np.zeros((5, 4)).tobytes()
    assert det_matmul(x, np.empty((0, 3))).tobytes() == np.zeros((5, 3)).tobytes()
    assert det_matmul(np.empty((0, 4)), np.ones((4, 3))).shape == (0, 3)


def test_projection_sum_is_sequential_not_pairwise():
    """The oracle is discriminating: on these operands a pairwise (or
    any reordered) sum gives different bits than the sequential order."""
    rng = make_rng(7)
    x, w = rng.normal(size=(64, 64)), rng.normal(size=(64, 5))
    seq = det_matmul(x, w)
    pairwise = (x[:, :, None] * w[None]).transpose(0, 2, 1).copy().sum(axis=2)
    assert seq.tobytes() != pairwise.tobytes()
    np.testing.assert_allclose(seq, x @ w, rtol=1e-12, atol=1e-12)


def test_det_stack_scores_matches_rowdot_values_and_is_batch_invariant():
    rng = make_rng(2)
    k_sel = rng.normal(size=(23, 70, 12))
    q = rng.normal(size=(23, 12))
    scores = det_stack_scores(k_sel, q)
    np.testing.assert_allclose(
        scores, det_rowdot(k_sel, q[:, None, :]), rtol=0, atol=1e-12
    )
    for rows in (slice(0, 1), slice(7, 19), np.array([0, 4, 22, 9])):
        sub = det_stack_scores(
            np.ascontiguousarray(k_sel[rows]), np.ascontiguousarray(q[rows])
        )
        assert sub.tobytes() == np.ascontiguousarray(scores[rows]).tobytes()
    with pytest.raises(ValueError):
        det_stack_scores(k_sel, q[:, :5])


def test_det_pv_contract_batch_invariant_on_tile_slices():
    """The SU-FA tile merge: slab slices of a gathered stack, any row set."""
    rng = make_rng(3)
    r, kk, dv = 19, 96, 7
    p = np.exp(rng.normal(size=(r, 32)))
    values = rng.normal(size=(r, kk, dv))
    tile = values[:, 40:72, :]  # strided tile view, per-row slab contiguous
    full = det_pv_contract(p, tile)
    np.testing.assert_allclose(
        full, (p[:, :, None] * tile).sum(axis=1), rtol=0, atol=1e-12
    )
    for rows in (slice(0, 1), slice(3, 11)):
        # row subsets keep the canonical slab layout (see the docstring's
        # layout note): a view-preserving slice, not a re-packed copy
        sub = det_pv_contract(p[rows], tile[rows])
        assert sub.tobytes() == np.ascontiguousarray(full[rows]).tobytes()
    with pytest.raises(ValueError):
        det_pv_contract(p, values)  # tile width mismatch


def test_det_tile_mass_batch_invariant():
    rng = make_rng(4)
    p = np.exp(rng.normal(size=(31, 48)))
    full = det_tile_mass(p)
    for rows in (slice(0, 1), slice(10, 25), np.array([2, 30, 7])):
        assert det_tile_mass(p[rows]).tobytes() == np.ascontiguousarray(
            full[rows]
        ).tobytes()
    with pytest.raises(ValueError):
        det_tile_mass(p[:, :, None])
