"""Per-benchmark unit tests: input generators, references, schedules,
and the port-specific stories that Figure 1 rests on."""

import numpy as np
import pytest

from repro.benchmarks.data import (CsrMatrix, Graph, make_blosum,
                                   make_clusters, make_csr, make_graph,
                                   make_grid, make_sequences,
                                   make_spd_dense)
from repro.benchmarks.registry import get_benchmark


class TestGenerators:
    def test_csr_structure(self):
        m = make_csr(200, avg_nnz_per_row=8, seed=1)
        assert m.rowstr.shape == (201,)
        assert m.rowstr[0] == 0 and m.rowstr[-1] == m.nnz
        assert np.all(np.diff(m.rowstr) >= 1)
        assert m.colidx.min() >= 0 and m.colidx.max() < 200
        # per-row columns sorted
        for i in range(0, 200, 37):
            lo, hi = m.rowstr[i], m.rowstr[i + 1]
            assert np.all(np.diff(m.colidx[lo:hi]) >= 0)

    def test_csr_determinism(self):
        a = make_csr(100, seed=5)
        b = make_csr(100, seed=5)
        np.testing.assert_array_equal(a.colidx, b.colidx)
        np.testing.assert_allclose(a.values, b.values)

    def test_csr_diagonal_dominance(self):
        m = make_csr(80, avg_nnz_per_row=6, seed=2)
        dense = m.to_dense()
        diag = np.abs(np.diag(dense))
        off = np.abs(dense).sum(axis=1) - diag
        assert np.all(diag > off)

    def test_matvec_matches_dense(self):
        m = make_csr(64, avg_nnz_per_row=5, seed=7)
        x = np.random.default_rng(0).random(64)
        np.testing.assert_allclose(m.matvec(x), m.to_dense() @ x)

    def test_graph_structure(self):
        g = make_graph(300, avg_degree=4, seed=3)
        assert g.node_start.shape == (301,)
        assert g.n_edges == g.node_start[-1]
        assert g.edges.min() >= 0 and g.edges.max() < 300

    def test_grid_and_misc(self):
        grid = make_grid(32, seed=1)
        assert grid.shape == (32, 32)
        pts = make_clusters(50, 4, 3, seed=1)
        assert pts.shape == (50, 4)
        s1, s2 = make_sequences(40, seed=1)
        assert s1.shape == (40,) and s2.max() < 4
        blo = make_blosum(seed=1)
        np.testing.assert_allclose(blo, blo.T)
        a = make_spd_dense(24, seed=1)
        # LU-factorizable without pivoting: leading minors nonzero
        for k in range(1, 5):
            assert abs(np.linalg.det(a[:k, :k])) > 1e-9


class TestJacobi:
    def test_schedule_alternates(self):
        wl = get_benchmark("JACOBI").workload("test")
        names = [s.region for s in wl.schedule]
        assert names[:4] == ["stencil", "copyback", "stencil", "copyback"]

    def test_reference_converges_smoothly(self):
        b = get_benchmark("JACOBI")
        wl = b.workload("test")
        ref = b.reference(wl)
        # stencil smoothing keeps values within the input hull
        assert ref["a"].max() <= wl.arrays["a"].max() + 1e-12


class TestEP:
    def test_tallies_are_counts(self):
        b = get_benchmark("EP")
        wl = b.workload("test")
        ref = b.reference(wl)
        assert ref["q"].sum() > 0
        assert np.all(ref["q"] >= 0)
        # accepted pairs land in low annuli overwhelmingly
        assert ref["q"][0] + ref["q"][1] > 0.9 * ref["q"].sum()


class TestSpmulCg:
    def test_spmul_norm_is_one(self):
        b = get_benchmark("SPMUL")
        wl = b.workload("test")
        ref = b.reference(wl)
        assert np.linalg.norm(ref["x"]) == pytest.approx(1.0)

    def test_cg_reduces_residual(self):
        b = get_benchmark("CG")
        wl = b.workload("test")
        ref = b.reference(wl)
        # CG on an SPD system converges; the scaled solution is unit norm
        assert np.linalg.norm(ref["x"]) == pytest.approx(1.0, rel=1e-6)


class TestBfs:
    def test_levels_match_networkx(self):
        nx = pytest.importorskip("networkx")
        from repro.benchmarks.bfs import _bfs_levels

        g = make_graph(120, avg_degree=4, seed=9)
        levels = _bfs_levels(g, 0)
        G = nx.DiGraph()
        G.add_nodes_from(range(g.n_nodes))
        for i in range(g.n_nodes):
            for k in range(g.node_start[i], g.node_start[i + 1]):
                G.add_edge(i, int(g.edges[k]))
        lengths = nx.single_source_shortest_path_length(G, 0)
        for node in range(g.n_nodes):
            expected = lengths.get(node, -1)
            assert levels[node] == expected

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_levels_match_a_queue_bfs(self, seed):
        from collections import deque

        from repro.benchmarks.bfs import _bfs_levels

        g = make_graph(3000, avg_degree=3, seed=seed)
        want = [-1] * g.n_nodes
        want[0] = 0
        queue = deque([0])
        while queue:
            node = queue.popleft()
            for k in range(g.node_start[node], g.node_start[node + 1]):
                nbr = int(g.edges[k])
                if want[nbr] < 0:
                    want[nbr] = want[node] + 1
                    queue.append(nbr)
        assert _bfs_levels(g, 0).tolist() == want

    def test_schedule_covers_all_levels(self):
        b = get_benchmark("BFS")
        wl = b.workload("test")
        names = [s.region for s in wl.schedule]
        assert names[-1] == "level_histogram"
        assert names.count("bfs_expand") == wl.sizes["n_levels"]


class TestHotspotSrad:
    def test_hotspot_reference_is_bounded(self):
        b = get_benchmark("HOTSPOT")
        wl = b.workload("test")
        ref = b.reference(wl)
        assert np.isfinite(ref["temp"]).all()

    def test_srad_reduces_variance(self):
        b = get_benchmark("SRAD")
        wl = b.workload("test")
        ref = b.reference(wl)
        before = np.exp(wl.arrays["img"] / 255.0)
        assert ref["J"].var() < before.var()


class TestNwLud:
    def test_nw_first_row_is_gap_penalty(self):
        b = get_benchmark("NW")
        wl = b.workload("test")
        ref = b.reference(wl)
        n = wl.sizes["n"]
        np.testing.assert_allclose(ref["items"][0],
                                   -wl.scalars["penalty"] * np.arange(n + 1))

    def test_lud_reconstructs_input(self):
        b = get_benchmark("LUD")
        wl = b.workload("test")
        ref = b.reference(wl)
        n = wl.sizes["n"]
        lu = ref["a"].reshape(n, n)
        lower = np.tril(lu, -1) + np.eye(n)
        upper = np.triu(lu)
        np.testing.assert_allclose(lower @ upper,
                                   wl.arrays["a0"].reshape(n, n),
                                   rtol=1e-8, atol=1e-10)

    def test_nw_manual_schedule_is_blocked(self):
        b = get_benchmark("NW")
        wl = b.workload("test")
        manual = b.schedule_for("Hand-Written CUDA", "best", wl)
        default = b.schedule_for("OpenMPC", "best", wl)
        assert len(manual) < len(default) / 4


class TestKmeansBackprop:
    def test_kmeans_reference_clusters(self):
        b = get_benchmark("KMEANS")
        wl = b.workload("test")
        ref = b.reference(wl)
        assert set(np.unique(ref["membership"])) <= set(
            range(wl.sizes["k"]))
        # later iterations churn less than the first
        assert ref["delta"][0] >= ref["delta"][-1]

    def test_backprop_transposed_arrays(self):
        b = get_benchmark("BACKPROP")
        wl = b.workload("test")
        base = b.arrays_for("OpenMPC", "naive", wl)
        trans = b.arrays_for("OpenMPC", "best", wl)
        np.testing.assert_allclose(base["w1"], trans["w1"].T)


class TestCfd:
    def test_canonical_output_undoes_soa(self):
        b = get_benchmark("CFD")
        wl = b.workload("test")
        nelr = wl.sizes["nelr"]
        soa = np.arange(nelr * 5, dtype=float).reshape(5, nelr).reshape(-1)
        aos = b.canonical_output("variables", soa, "OpenMPC", "best", wl)
        assert aos[0] == soa[0]
        assert aos[1] == soa[nelr]
