"""Parity tests: the batched engine must equal the per-head pipeline exactly.

The contract of ``repro.engine`` is bit-for-bit equivalence: for any stack of
heads, :class:`BatchedSofaAttention` returns exactly the outputs, selected
indices, op counts, memory traces and assurance triggers that a Python loop
of per-head :class:`SofaAttention` calls produces.  These tests sweep
randomized shapes/configs (including tie-heavy integer-valued scores, where
sorting tie-breaks are most fragile) and compare everything exactly.
"""

import tracemalloc

import numpy as np
import pytest

import repro.engine.batched as batched_mod
import repro.obs as obs
from repro.core.config import SadsConfig, SofaConfig, SufaConfig
from repro.core.pipeline import SofaAttention
from repro.core.sads import SadsSorter
from repro.engine import AttentionRequest, BatchedSofaAttention, SofaEngine
from repro.numerics.complexity import OpCounter
from repro.utils.rng import make_rng


def _random_config(rng, s):
    tile = int(rng.choice([8, 16, 24, 32, 64]))
    k = int(rng.integers(1, s + 1))
    return SofaConfig(
        tile_cols=tile,
        top_k=k,
        sads=SadsConfig(
            n_segments=int(rng.integers(1, 9)),
            radius=float(rng.uniform(1.0, 6.0)),
            adjust_rounds=int(rng.integers(0, 4)),
        ),
    )


def _assert_head_equal(seq, bat, context=""):
    np.testing.assert_array_equal(seq.selected, bat.selected, err_msg=context)
    assert seq.output.tobytes() == bat.output.tobytes(), f"output bits differ {context}"
    assert seq.assurance_triggers == bat.assurance_triggers, context
    assert len(seq.stages) == len(bat.stages)
    for st_s, st_b in zip(seq.stages, bat.stages):
        assert st_s.name == st_b.name
        assert st_s.dram_bytes == st_b.dram_bytes, f"{st_s.name} dram {context}"
        assert st_s.sram_peak_bytes == st_b.sram_peak_bytes, f"{st_s.name} sram {context}"
        for op in set(st_s.ops.counts) | set(st_b.ops.counts):
            assert st_s.ops[op] == st_b.ops[op], f"{st_s.name}.{op} {context}"


@pytest.mark.parametrize("seed", range(24))
def test_batched_matches_per_head_loop_exactly(seed):
    """>= 20 randomized configurations, everything compared exactly."""
    rng = make_rng(1000 + seed)
    n = int(rng.integers(1, 7))
    s = int(rng.integers(16, 220))
    h = int(rng.integers(8, 40))
    d = int(rng.integers(8, 33))
    t = int(rng.integers(1, 17))
    cfg = _random_config(rng, s)
    wk = rng.normal(size=(n, h, d))
    wv = rng.normal(size=(n, h, d))
    tokens = rng.integers(-100, 100, size=(n, s, h)).astype(np.float64)
    q = rng.normal(size=(n, t, d)) * rng.uniform(0.5, 4.0)
    k_scales = rng.uniform(0.5, 2.0, size=n)
    v_scales = rng.uniform(0.5, 2.0, size=n)

    batched = BatchedSofaAttention(wk, wv, cfg)(
        tokens, q, k_scale=k_scales, v_scale=v_scales
    )
    for i in range(n):
        seq = SofaAttention(wk[i], wv[i], cfg)(
            tokens[i], q[i], k_scale=float(k_scales[i]), v_scale=float(v_scales[i])
        )
        _assert_head_equal(seq, batched.per_head[i], f"(seed={seed}, head={i})")


def test_batched_value_cache_matches_per_head():
    """The serving value-cache override preserves exact parity too."""
    rng = make_rng(77)
    n, s, h, t, dv = 4, 90, 20, 5, 12
    wk = rng.normal(size=(n, h, h))
    wv = rng.normal(size=(n, h, h))
    tokens = rng.normal(size=(n, s, h)) * 3
    q = rng.normal(size=(n, t, h))
    v = rng.normal(size=(n, s, dv))
    cfg = SofaConfig(tile_cols=32, top_k=0.25)
    batched = BatchedSofaAttention(wk, wv, cfg)(tokens, q, v=v)
    for i in range(n):
        seq = SofaAttention(wk[i], wv[i], cfg)(tokens[i], q[i], v=v[i])
        _assert_head_equal(seq, batched.per_head[i], f"(head={i})")


def test_batched_totals_aggregate_heads():
    rng = make_rng(78)
    n, s, h, d, t = 3, 64, 16, 16, 4
    wk = rng.normal(size=(n, h, d))
    wv = rng.normal(size=(n, h, d))
    tokens = rng.integers(-50, 50, size=(n, s, h)).astype(np.float64)
    q = rng.normal(size=(n, t, d))
    res = BatchedSofaAttention(wk, wv, SofaConfig(tile_cols=16, top_k=8))(tokens, q)
    assert res.n_heads == n
    assert res.outputs.shape == (n, t, d)
    assert res.selected.shape == (n, t, 8)
    total = sum(head.total_ops.normalized() for head in res.per_head)
    assert res.total_ops.normalized() == pytest.approx(total)
    assert res.total_dram_bytes == pytest.approx(
        sum(head.total_dram_bytes for head in res.per_head)
    )


def test_batched_shape_validation():
    rng = make_rng(79)
    wk = rng.normal(size=(2, 8, 8))
    wv = rng.normal(size=(2, 8, 8))
    op = BatchedSofaAttention(wk, wv, SofaConfig(tile_cols=8, top_k=4))
    with pytest.raises(ValueError):
        op(rng.normal(size=(3, 32, 8)), rng.normal(size=(2, 4, 8)))  # wrong N
    with pytest.raises(ValueError):
        op(rng.normal(size=(2, 32, 8)), rng.normal(size=(2, 4, 6)))  # wrong D
    with pytest.raises(ValueError):
        op(
            rng.normal(size=(2, 32, 8)),
            rng.normal(size=(2, 4, 8)),
            k_scale=np.ones(3),  # wrong per-head scale length
        )


def _chunk_rows(monkeypatch, rows, kk, dk, dv):
    """Shrink the gather budget to ``rows`` query rows per stream chunk and
    record the row count of every stream call."""
    monkeypatch.setattr(batched_mod, "_GATHER_CHUNK_BYTES", rows * kk * (dk + dv) * 8)
    calls: list[int] = []
    stream = batched_mod.stream_selected

    def counting(q_rows, *args, **kwargs):
        calls.append(q_rows.shape[0])
        return stream(q_rows, *args, **kwargs)

    monkeypatch.setattr(batched_mod, "stream_selected", counting)
    return calls


@pytest.mark.parametrize("descending", [True, False])
@pytest.mark.parametrize("value_cache", [False, True])
def test_chunked_gather_stream_matches_per_head(monkeypatch, descending, value_cache):
    """Gather + stream in row chunks (tail chunk included) is bit-identical
    to per-head SofaAttention: outputs, selections, stage op tallies and
    assurance triggers, in both update orders."""
    rng = make_rng(81)
    n, s, h, d, t, kk = 3, 96, 16, 12, 7, 24  # N*T = 21 rows -> 5 x 4 + 1
    cfg = SofaConfig(tile_cols=16, top_k=kk, sufa=SufaConfig(descending=descending))
    wk = rng.normal(size=(n, h, d))
    wv = rng.normal(size=(n, h, d))
    tokens = rng.integers(-100, 100, size=(n, s, h)).astype(np.float64)
    q = rng.normal(size=(n, t, d)) * 3.0
    v = rng.normal(size=(n, s, d)) if value_cache else None
    calls = _chunk_rows(monkeypatch, 4, kk, d, d)
    batched = BatchedSofaAttention(wk, wv, cfg)(tokens, q, v=v)
    assert calls == [4, 4, 4, 4, 4, 1]
    if not descending:  # the Max-Ensuring rescale path ran in chunks too
        assert batched.assurance_triggers > 0
    for i in range(n):
        seq = SofaAttention(wk[i], wv[i], cfg)(
            tokens[i], q[i], v=None if v is None else v[i]
        )
        _assert_head_equal(seq, batched.per_head[i], f"(head={i})")


def test_chunked_stream_still_raises_on_misprediction(monkeypatch):
    """max_assurance=False: a mispredicted ordering in a later chunk still
    aborts the call with the RuntimeError the whole-stack stream raised."""
    rng = make_rng(10)  # only row 8 of the 12-row stack mispredicts
    n, s, h, d, t, kk = 3, 64, 16, 16, 4, 12
    cfg = SofaConfig(tile_cols=16, top_k=kk, sufa=SufaConfig(max_assurance=False))
    wk = rng.normal(size=(n, h, d))
    wv = rng.normal(size=(n, h, d))
    tokens = rng.integers(-80, 80, size=(n, s, h)).astype(np.float64)
    q = rng.normal(size=(n, t, d))
    with pytest.raises(RuntimeError) as per_head:
        SofaAttention(wk[2], wv[2], cfg)(tokens[2], q[2])
    calls = _chunk_rows(monkeypatch, 3, kk, d, d)
    with pytest.raises(RuntimeError) as chunked:
        BatchedSofaAttention(wk, wv, cfg)(tokens, q)
    assert str(chunked.value) == str(per_head.value)
    assert calls == [3, 3, 3]  # the first two chunks streamed cleanly


def test_chunked_stream_working_set_below_one_whole_stack(monkeypatch):
    """The gathered (N*T, kk, D) K and V stacks are never allocated: the
    traced peak of a whole call stays below the size of one K stack."""
    rng = make_rng(83)
    n, s, h, d, t, kk = 2, 512, 16, 64, 32, 256
    op = BatchedSofaAttention(
        rng.normal(size=(n, h, d)), rng.normal(size=(n, h, d)),
        SofaConfig(tile_cols=64, top_k=kk),
    )
    tokens = rng.integers(-100, 100, size=(n, s, h)).astype(np.float64)
    q = rng.normal(size=(n, t, d))
    calls = _chunk_rows(monkeypatch, 4, kk, d, d)
    k_stack_bytes = n * t * kk * d * 8
    tracemalloc.start()
    try:
        op(tokens, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == n * t // 4
    assert peak < k_stack_bytes, (peak, k_stack_bytes)


def test_stage_split_covers_gather_and_stream_once_per_call():
    """kv_gather (projection + chunk gathers) and stream (stream calls
    only) are each observed once per batch, and fit inside execute."""
    rng = make_rng(84)
    requests = [
        AttentionRequest(
            tokens=rng.integers(-100, 100, size=(64, 8)).astype(np.float64),
            q=rng.normal(size=(4, 8)),
            wk=rng.normal(size=(8, 8)),
            wv=rng.normal(size=(8, 8)),
        )
        for _ in range(4)
    ]
    telemetry = obs.reset_telemetry(enabled=True)
    try:
        with SofaEngine(SofaConfig(tile_cols=16, top_k=0.25)) as engine:
            engine.run(requests)
        hists = telemetry.registry.snapshot()["histograms"]
    finally:
        obs.reset_telemetry()
    gather = hists["sofa_stage_kv_gather_seconds"]
    stream = hists["sofa_stage_stream_seconds"]
    execute = hists["sofa_engine_execute_seconds"]
    assert gather["count"] == stream["count"] == execute["count"] >= 1
    assert gather["sum"] > 0 and stream["sum"] > 0
    assert gather["sum"] + stream["sum"] <= execute["sum"]


@pytest.mark.parametrize("seed", range(12))
def test_sads_select_stack_matches_select_row(seed):
    """The vectorized selection core vs the sequential golden reference.

    Scores are rounded to integers so ties are everywhere - any divergence in
    stable-sort or exchange tie-breaking fails loudly.
    """
    rng = make_rng(2000 + seed)
    rows = int(rng.integers(1, 10))
    s = int(rng.integers(12, 260))
    k = int(rng.integers(1, s + 1))
    sorter = SadsSorter(
        SadsConfig(
            n_segments=int(rng.integers(1, 10)),
            radius=float(rng.uniform(0.5, 5.0)),
            adjust_rounds=int(rng.integers(0, 5)),
        )
    )
    scores = np.round(rng.normal(size=(rows, s)) * 3)
    batch = sorter.select(scores, k)
    loop_ops = OpCounter()
    loop_rows = []
    clipped = 0
    for row in scores:
        res = sorter.select_row(row, k)
        loop_rows.append(res.indices)
        loop_ops = loop_ops + res.ops
        clipped += res.clipped
    np.testing.assert_array_equal(batch.indices, np.stack(loop_rows))
    for op in set(batch.ops.counts) | set(loop_ops.counts):
        assert batch.ops[op] == loop_ops[op], op
    assert batch.clipped_fraction == pytest.approx(clipped / scores.size)
