import numpy as np
import pytest

from hedgeval import bench
from hedgeval.mask import decode
from hedgeval.oracles import semantic_nms_bruteforce, semantic_sort_bruteforce


def test_each_sample_repeats_its_method_for_min_sample_seconds(monkeypatch):
    clock = [0.0]
    calls = []

    def method(*scene):  # 8 ms on a fake clock
        calls.append(len(scene))
        clock[0] += 0.008

    monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(bench, "BENCH_METHODS", {"fake": method})
    rows = bench.run_bench(sizes=(8,), repeats=3)
    assert rows == [{"n": 8, "method": "fake", "seconds": pytest.approx(0.008)}]
    # three calls reach MIN_SAMPLE_S (20 ms) in each of the three samples
    assert calls == [5] * 9


def test_each_repeat_samples_every_size_in_turn(monkeypatch):
    clock = [0.0]
    sampled = []

    def method(masks, *rest):  # 30 ms on a fake clock: one call per sample
        sampled.append(len(masks))
        clock[0] += 0.03

    monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(bench, "BENCH_METHODS", {"fake": method})
    rows = bench.run_bench(sizes=(4, 8), dup_factor=4, repeats=3)
    assert [r["n"] for r in rows] == [4, 8]
    assert sampled == [4, 8] * 3


@pytest.mark.parametrize("dup_factor", [0, -1])
def test_scene_rejects_a_dup_factor_below_one(dup_factor):
    with pytest.raises(ValueError, match="dup_factor must be at least 1"):
        bench.build_hedged_scene(8, dup_factor)


def test_scene_runs_encode_its_masks():
    masks, rles, *_ = bench.build_hedged_scene(40, 4, seed=3)
    assert len(rles) == len(masks) == 40
    assert all(np.array_equal(decode(r), m) for r, m in zip(rles, masks))


def test_semantic_method_keeps_what_the_dense_spec_keeps():
    masks, _, scores, categories, semantic = scene = bench.build_hedged_scene(40, 4, seed=3)
    order, _ = semantic_sort_bruteforce(masks, scores, categories, semantic)
    want = semantic_nms_bruteforce([masks[i] for i in order], [int(categories[i]) for i in order],
                                   {c: m.copy() for c, m in semantic.items()}, 0.5)
    assert bench._run_semantic(*scene) == want
    assert sum(want) == 10  # one per base square
