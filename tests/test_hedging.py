import numpy as np
import pytest
from conftest import random_mask
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgeval.hedging import (
    DEFAULT_DC_CONF_THRS,
    DcConfig,
    DetectionGraph,
    bottleneck_connectivity,
    dc_single,
    duplicate_confusion,
    naming_error,
)
from hedgeval.mask import iou_matrix
from hedgeval.oracles import (
    bottleneck_bruteforce,
    bottleneck_closure,
    dc_bruteforce,
    induced_subgraph,
    naming_error_bruteforce,
)


def graph(taus, edges):
    taus = np.asarray(taus, dtype=np.float64)
    m = len(taus)
    adj = np.zeros((m, m), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return DetectionGraph(taus, adj)


def random_graph(rng, max_m=8):
    m = int(rng.integers(0, max_m + 1))
    taus = rng.uniform(0.05, 1.0, size=m)
    adj = rng.random((m, m)) < rng.uniform(0.1, 0.9)
    adj = np.triu(adj, k=1)
    return DetectionGraph(taus, adj | adj.T)


class TestDetectionGraph:
    def test_rejects_self_edges(self):
        adj = np.eye(2, dtype=bool)
        with pytest.raises(ValueError):
            DetectionGraph([0.5, 0.5], adj)

    def test_rejects_asymmetry(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError):
            DetectionGraph([0.5, 0.5], adj)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            DetectionGraph([0.5], np.zeros((2, 2), dtype=bool))

    def test_from_ious_thresholds_and_clears_diagonal(self):
        ious = np.array([[1.0, 0.6, 0.2], [0.6, 1.0, 0.5], [0.2, 0.5, 1.0]])
        g = DetectionGraph.from_ious([0.9, 0.8, 0.7], ious, 0.5)
        assert not g.adjacency.diagonal().any()
        assert g.adjacency[0, 1] and g.adjacency[1, 2]
        assert not g.adjacency[0, 2]


class TestBottleneckConnectivity:
    def test_isolated_vertices(self):
        g = graph([0.9, 0.4], [])
        assert bottleneck_connectivity(g).sum() == 0.0

    def test_complete_three(self):
        g = graph([0.9, 0.6, 0.3], [(0, 1), (0, 2), (1, 2)])
        c = bottleneck_connectivity(g)
        assert c[0, 1] == pytest.approx(0.6)
        assert c[0, 2] == pytest.approx(0.3)
        assert c[1, 2] == pytest.approx(0.3)

    def test_chain_forced_through_weak_middle(self):
        g = graph([0.9, 0.2, 0.8], [(0, 1), (1, 2)])
        c = bottleneck_connectivity(g)
        assert c[0, 2] == pytest.approx(0.2)

    def test_detour_beats_direct_weak_link(self):
        # 0-1 direct through nothing, but 0-3-1 avoids no one; instead:
        # path 0-2-1 with a strong middle beats the weak direct edge? The
        # direct edge bottleneck is min(t0, t1) which no detour can exceed,
        # so equality is the interesting case here.
        g = graph([0.9, 0.8, 0.95], [(0, 1), (0, 2), (2, 1)])
        c = bottleneck_connectivity(g)
        assert c[0, 1] == pytest.approx(0.8)

    def test_symmetry_and_cap(self, rng):
        for _ in range(100):
            g = random_graph(rng)
            c = bottleneck_connectivity(g)
            assert np.array_equal(c, c.T)
            taus = g.confidences
            if len(g) >= 2:
                cap = np.minimum(taus[:, None], taus[None, :])
                assert (c <= cap + 1e-12).all()
                ii, jj = np.nonzero(g.adjacency)
                assert c[ii, jj] == pytest.approx(cap[ii, jj])

    def test_matches_path_enumeration(self, rng):
        for trial in range(400):
            g = random_graph(rng)
            assert np.array_equal(bottleneck_connectivity(g), bottleneck_bruteforce(g))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda m: st.tuples(
        st.lists(st.sampled_from((0.2, 0.5, 0.9)), min_size=m, max_size=m),
        st.lists(st.booleans(), min_size=m * m, max_size=m * m))))
    def test_tied_confidences_match_path_enumeration(self, drawn):
        # ties give equal edge strengths, so the merge order among them is
        # decided by the stable sort alone
        taus, edges = drawn
        m = len(taus)
        adj = np.triu(np.array(edges, dtype=bool).reshape(m, m), k=1)
        g = DetectionGraph(taus, adj | adj.T)
        assert np.array_equal(bottleneck_connectivity(g), bottleneck_bruteforce(g))


class TestBottleneckClosure:
    """``oracles.bottleneck_closure`` is ``eval --verify``'s connectivity at
    any graph size, so it is held to path enumeration where that is
    feasible."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda m: st.tuples(
        st.lists(st.sampled_from((0.2, 0.5, 0.9)) | st.floats(0.05, 1.0), min_size=m, max_size=m),
        st.lists(st.booleans(), min_size=m * m, max_size=m * m))))
    def test_matches_path_enumeration(self, drawn):
        taus, edges = drawn
        m = len(taus)
        adj = np.triu(np.array(edges, dtype=bool).reshape(m, m), k=1)
        g = DetectionGraph(taus, adj | adj.T)
        assert np.array_equal(bottleneck_closure(g), bottleneck_bruteforce(g))

    def test_matches_the_spanning_forest_beyond_enumeration(self, rng):
        for _ in range(50):
            g = random_graph(rng, max_m=40)
            assert np.array_equal(bottleneck_closure(g), bottleneck_connectivity(g))


class TestDcSingle:
    def test_single_vertex(self):
        assert dc_single(graph([0.7], [])) == 0.0

    def test_empty_graph(self):
        assert dc_single(graph([], [])) == 0.0

    def test_no_edges(self):
        assert dc_single(graph([0.9, 0.5, 0.2], [])) == 0.0

    def test_complete_three_hand_expansion(self):
        g = graph([0.9, 0.6, 0.3], [(0, 1), (0, 2), (1, 2)])
        expected = (0.5 + 1.05 + 1.5) / 3
        assert dc_single(g) == pytest.approx(expected, abs=1e-12)
        assert dc_bruteforce(g) == pytest.approx(expected, abs=1e-12)

    def test_single_edge_closed_form(self, rng):
        for _ in range(20):
            a, b = rng.uniform(0.05, 1.0, size=2)
            g = graph([a, b], [(0, 1)])
            lo = min(a, b)
            expected = (b * lo / a + a * lo / b) / 2
            assert dc_single(g) == pytest.approx(expected, abs=1e-12)

    def test_matches_bruteforce_on_random_graphs(self, rng):
        for _ in range(400):
            g = random_graph(rng)
            assert dc_single(g) == pytest.approx(dc_bruteforce(g), abs=1e-9)

    def test_in_place_duplication_strictly_increases(self, rng):
        # spatial hedging: one extra copy of every mask at confidence tau-eps
        for _ in range(50):
            m = int(rng.integers(1, 5))
            taus = rng.uniform(0.2, 1.0, size=m)
            ious = rng.uniform(0.0, 1.0, size=(m, m))
            ious = np.maximum(np.triu(ious, 1), np.triu(ious, 1).T)
            np.fill_diagonal(ious, 1.0)
            g = DetectionGraph.from_ious(taus, ious, 0.5)
            hedged_ious = np.block([[ious, ious], [ious, ious]])
            hedged = DetectionGraph.from_ious(
                np.concatenate([taus, taus - 0.05]), hedged_ious, 0.5
            )
            assert dc_single(hedged) > dc_single(g)


class TestDcFloor:
    """``dc_single(g, v)`` slices the whole graph's connectivity; it must
    equal, bit for bit, the score of the induced subgraph built afresh."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 24).flatmap(lambda m: st.tuples(
        st.lists(st.sampled_from(DEFAULT_DC_CONF_THRS) | st.floats(0.05, 1.0),
                 min_size=m, max_size=m),
        st.lists(st.booleans(), min_size=m * m, max_size=m * m))))
    def test_floor_equals_fresh_induced_subgraph(self, drawn):
        taus, edges = drawn
        m = len(taus)
        adj = np.triu(np.array(edges, dtype=bool).reshape(m, m), k=1)
        g = DetectionGraph(taus, adj | adj.T)
        for v in DEFAULT_DC_CONF_THRS:
            assert dc_single(g, v) == dc_single(induced_subgraph(g, v))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(DEFAULT_DC_CONF_THRS) | st.floats(0.05, 1.0),
                             min_size=1, max_size=16), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1))
    def test_grid_cells_are_means_of_fresh_cells(self, confidences, seed):
        rng = np.random.default_rng(seed)
        groups = []
        for taus in confidences:
            m = len(taus)
            ious = rng.uniform(0.0, 1.0, size=(m, m))
            ious = np.maximum(np.triu(ious, 1), np.triu(ious, 1).T)
            np.fill_diagonal(ious, 1.0)
            groups.append((np.array(taus), ious))
        cfg = DcConfig()
        res = duplicate_confusion(groups, cfg)
        for ti, t in enumerate(cfg.iou_thrs):
            for vi, v in enumerate(cfg.conf_thrs):
                vals = [dc_single(induced_subgraph(DetectionGraph.from_ious(taus, ious, t), v))
                        for taus, ious in groups if (taus >= v).any()]
                assert res.cells[ti][vi] == len(vals)
                assert res.grid[ti][vi] == (float(np.mean(vals)) if vals else 0.0)


class TestDcConfig:
    def test_defaults_mirror_map_grid(self):
        cfg = DcConfig()
        assert cfg.iou_thrs == pytest.approx(tuple(np.arange(0.5, 1.0, 0.05)))
        assert cfg.conf_thrs == pytest.approx(tuple(np.arange(0.1, 1.0, 0.1)))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            DcConfig(iou_thrs=(bad,))
        with pytest.raises(ValueError):
            DcConfig(conf_thrs=(bad,))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            DcConfig(iou_thrs=())

    @pytest.mark.parametrize("field", ["iou_thrs", "conf_thrs"])
    def test_rejects_repeated_values(self, field):
        with pytest.raises(ValueError, match=f"^{field} lists 0.6 more than once"):
            DcConfig(**{field: (0.6, 0.6)})


class TestDuplicateConfusion:
    def test_no_groups_is_zero(self):
        res = duplicate_confusion([])
        assert res.dc == 0.0
        assert all(n == 0 for row in res.cells for n in row)

    def test_distinct_masks_score_zero(self):
        # non-overlapping detections never form edges at any threshold
        ious = np.eye(3)
        res = duplicate_confusion([(np.array([0.95, 0.9, 0.85]), ious)])
        assert res.dc == 0.0

    def test_confidence_filter_empties_cells(self):
        ious = np.array([[1.0, 0.9], [0.9, 1.0]])
        cfg = DcConfig(iou_thrs=(0.5,), conf_thrs=(0.2, 0.6))
        res = duplicate_confusion([(np.array([0.35, 0.3]), ious)], cfg)
        assert res.cells[0][0] == 1 and res.cells[0][1] == 0
        assert res.grid[0][1] == 0.0
        assert res.grid[0][0] > 0.0
        assert res.dc == pytest.approx(res.grid[0][0] / 2)

    def test_grid_means_against_bruteforce(self, rng):
        groups = []
        for _ in range(4):
            m = int(rng.integers(1, 5))
            taus = rng.uniform(0.05, 1.0, size=m)
            ious = rng.uniform(0.0, 1.0, size=(m, m))
            ious = np.maximum(np.triu(ious, 1), np.triu(ious, 1).T)
            np.fill_diagonal(ious, 1.0)
            groups.append((taus, ious))
        cfg = DcConfig(iou_thrs=(0.5, 0.75), conf_thrs=(0.1, 0.5, 0.8))
        res = duplicate_confusion(groups, cfg)
        expected_grid = []
        for t in cfg.iou_thrs:
            row = []
            for v in cfg.conf_thrs:
                vals = []
                for taus, ious in groups:
                    keep = taus >= v
                    if not keep.any():
                        continue
                    sub = ious[np.ix_(keep, keep)]
                    vals.append(dc_bruteforce(DetectionGraph.from_ious(taus[keep], sub, t)))
                row.append(float(np.mean(vals)) if vals else 0.0)
            expected_grid.append(row)
        for got_row, exp_row in zip(res.grid, expected_grid):
            assert got_row == pytest.approx(exp_row, abs=1e-9)
        assert res.dc == pytest.approx(np.mean(expected_grid), abs=1e-9)

    def test_aggregate_increases_under_duplication(self):
        ious = np.eye(2)
        taus = np.array([0.9, 0.8])
        base = duplicate_confusion([(taus, ious)])
        hedged_ious = np.block([[ious, ious], [ious, ious]])
        hedged_taus = np.concatenate([taus, taus - 0.05])
        hedged = duplicate_confusion([(hedged_taus, hedged_ious)])
        assert base.dc == 0.0
        assert hedged.dc > 0.0


class TestNamingError:
    def test_one_mismatch_over_two_gts(self):
        ious = np.array([[0.9, 0.0], [0.8, 0.0], [0.2, 0.3]])
        res = naming_error([(ious, [1, 2, 7], [1, 2])])
        assert res.ne == pytest.approx(0.5)
        assert res.mismatches == 1
        assert res.n_gt == 2

    def test_label_hedging_grows_linearly(self):
        # k wrong-label copies of the first gt's mask over n gts
        n, k = 5, 3
        ious = np.zeros((k, n))
        ious[:, 0] = 1.0
        res = naming_error([(ious, [9] * k, list(range(n)))])
        assert res.ne == pytest.approx(k / n)
        assert res.mismatches == k

    def test_sums_across_images(self):
        one = (np.array([[1.0]]), [2], [1])
        two = (np.array([[1.0, 0.0]]), [5], [5, 6])
        res = naming_error([one, two])
        assert res.mismatches == 1
        assert res.n_gt == 3
        assert res.ne == pytest.approx(1 / 3)

    def test_no_ground_truth_is_undefined(self):
        res = naming_error([(np.zeros((2, 0)), [1, 2], [])])
        assert res.ne is None
        assert res.n_gt == 0

    def test_unmatched_detections_ignored(self):
        ious = np.array([[0.49], [0.3]])
        res = naming_error([(ious, [9, 9], [1])])
        assert res.mismatches == 0
        assert res.ne == 0.0

    def test_correct_duplicates_do_not_count(self):
        # spatial hedging with the right label leaves ne untouched
        base = naming_error([(np.array([[1.0]]), [1], [1])])
        dup = naming_error([(np.array([[1.0], [0.97], [0.95]]), [1, 1, 1], [1])])
        assert base.ne == dup.ne == 0.0

    def test_perfect_predictions_score_zero(self):
        ious = np.eye(4)
        labels = [1, 2, 3, 4]
        res = naming_error([(ious, labels, labels)])
        assert res.ne == 0.0
        assert res.n_gt == 4

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_det=st.integers(0, 6), n_gt=st.integers(0, 5))
    def test_matches_dense_bruteforce(self, seed, n_det, n_gt):
        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(1, 8, size=2))
        gts = [random_mask(rng, h, w, rng.choice([0.0, 0.2, 0.5, 0.9])) for _ in range(n_gt)]
        dets = [random_mask(rng, h, w, rng.choice([0.0, 0.2, 0.5, 0.9])) for _ in range(n_det)]
        if gts and n_det > 1 and h * w > 1:  # IoU exactly 0.5 against the first ground truth
            gts[0] = np.zeros((h, w), dtype=bool)
            gts[0].flat[:2] = True
            dets[-1] = np.zeros((h, w), dtype=bool)
            dets[-1].flat[:1] = True
        if n_gt > 1:
            gts[-1] = gts[0]  # tied IoUs: the first ground truth wins
        if gts and dets:
            dets[0] = gts[-1]  # IoU 1
        det_labels = rng.integers(1, 3, size=n_det).tolist()
        gt_labels = rng.integers(1, 3, size=n_gt).tolist()
        res = naming_error([(iou_matrix(dets, gts), det_labels, gt_labels)])
        assert res.mismatches == naming_error_bruteforce(dets, det_labels, gts, gt_labels)
        assert res.n_gt == n_gt
