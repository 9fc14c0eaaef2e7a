import pytest

from hedgeval import bench


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
    assert calls == [4] * 9


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
