import hashlib
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from webnav import graph as graph_module
from webnav import (ModelParams, WebGraph, fit_power_law, generate_scale_free,
                    load_edge_list, make_agent, pagerank_step, write_edge_list)
from webnav.errors import ConfigurationError, DataError, ParseError
from webnav.graph import _BLOCK, _csr_from_edges


def _reference_csr(n, src, dst):
    """CSR build by a (src, dst) lexsort, as int32; _csr_from_edges must match it."""
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, dst.astype(np.int32)


def _reference_scale_free(n, m, gamma, seed):
    """Scalar growth loop, one rng.random() and one searchsorted per draw.

    generate_scale_free evaluates arrivals in blocks and must give the same
    offsets and neighbors as this loop, value for value.
    """
    a = 1.0 / (gamma - 1.0)
    prefix = np.cumsum(np.arange(1, n, dtype=np.float64) ** (-a))
    rng = np.random.default_rng(seed)
    src = np.empty(2 * sum(min(m, i) for i in range(1, n)), dtype=np.int64)
    dst = np.empty_like(src)
    pos = 0
    for i in range(1, n):
        k = min(m, i)
        total = prefix[i - 1]
        chosen = set()
        while len(chosen) < k:
            r = int(np.searchsorted(prefix[:i], rng.random() * total, side="right"))
            chosen.add(min(r, i - 1))  # clamp the u == total rounding corner
        for t in sorted(chosen):
            src[pos], dst[pos] = i, t
            src[pos + 1], dst[pos + 1] = t, i
            pos += 2
    return _reference_csr(n, src[:pos], dst[:pos])


@pytest.fixture(scope="module")
def small_graph():
    return generate_scale_free(3000, 3, 2.1, seed=42)


class TestGenerate:
    def test_tree_growth_edge_count(self):
        # m=1 growth is a tree: n-1 undirected edges, 2(n-1) entries
        g = generate_scale_free(4, 1, gamma=2.5, seed=0)
        assert g.n == 4
        assert g.n_edges == 6

    def test_attachment_exponent_relation(self):
        # gamma = 1 + 1/a  =>  a = 1/(gamma-1); check via the degree tail of
        # a moderate instance (the full-scale check lives in acceptance)
        g = generate_scale_free(30_000, 3, 2.1, seed=5)
        fit = fit_power_law(g.degrees().tolist(), xmin=20)
        assert fit.alpha == pytest.approx(2.206, abs=1e-2)
        assert abs(fit.alpha - 2.1) < 0.25

    def test_symmetry_exhaustive(self, small_graph):
        assert small_graph.is_symmetric()

    def test_in_degree_equals_out_degree(self, small_graph):
        assert np.array_equal(small_graph.in_degrees(), small_graph.degrees())

    def test_no_dangling_nodes(self, small_graph):
        assert small_graph.degrees().min() >= 1

    def test_no_self_loops_or_duplicates(self, small_graph):
        for u in range(small_graph.n):
            nbrs = small_graph.out_neighbors(u)
            assert u not in nbrs
            assert len(set(nbrs.tolist())) == len(nbrs)

    def test_connected(self, small_graph):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components
        n = small_graph.n
        src = np.repeat(np.arange(n), small_graph.degrees())
        adj = csr_matrix((np.ones(src.size), (src, small_graph.neighbors)),
                         shape=(n, n))
        n_comp, _ = connected_components(adj, directed=False)
        assert n_comp == 1

    def test_deterministic_for_seed(self):
        a = generate_scale_free(500, 2, 2.1, seed=9)
        b = generate_scale_free(500, 2, 2.1, seed=9)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.neighbors, b.neighbors)
        c = generate_scale_free(500, 2, 2.1, seed=10)
        assert not np.array_equal(a.neighbors, c.neighbors)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            generate_scale_free(3, 3, 2.1, seed=1)
        with pytest.raises(ConfigurationError):
            generate_scale_free(100, 3, 2.0, seed=1)
        with pytest.raises(ConfigurationError):
            generate_scale_free(100, 0, 2.1, seed=1)
        # nan passes "gamma <= 2" and then no arrival finds distinct targets
        for gamma in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                generate_scale_free(100, 3, gamma, seed=1)
        with pytest.raises(ConfigurationError, match="seed must be >= 0, got -1"):
            generate_scale_free(100, 3, 2.1, seed=-1)

    @pytest.mark.parametrize("n, m, gamma, seed", [
        (4, 1, 2.5, 0),
        (20, 19, 2.1, 2),             # m >= i for most arrivals
        (300, 10, 2.05, 3),           # many re-draws
        (1000, 25, 2.01, 4),
        (5000, 3, 3.5, 31),
        (7 * _BLOCK + 13, 2, 2.1, 6),  # n not a multiple of the block size
    ])
    def test_matches_scalar_reference(self, n, m, gamma, seed):
        g = generate_scale_free(n, m, gamma, seed)
        offsets, neighbors = _reference_scale_free(n, m, gamma, seed)
        assert g.offsets.dtype == offsets.dtype == np.int32
        assert g.neighbors.dtype == neighbors.dtype == np.int32
        assert np.array_equal(g.offsets, offsets)
        assert np.array_equal(g.neighbors, neighbors)

    def test_desk_graph_digest(self):
        # pinned from the scalar loop, before graph growth was vectorized,
        # when the arrays were int64: hashing them cast back keeps the pin
        g = generate_scale_free(100_000, 3, 2.1, seed=1)
        digest = hashlib.sha256(g.offsets.astype(np.int64).tobytes()
                                + g.neighbors.astype(np.int64).tobytes())
        assert digest.hexdigest() == (
            "2625b96a2dae39229b1aebc924de344e6c5cb478273d4cce183eaac5759d790d")

    def test_csr_matches_lexsort(self):
        rng = np.random.default_rng(0)
        n = 40
        src = rng.integers(0, n, 3000)  # 3000 draws of 1600 pairs repeat some
        dst = rng.integers(0, n, 3000)
        src_before, dst_before = src.copy(), dst.copy()
        offsets, neighbors = _csr_from_edges(n, src, dst)
        # the build sorts its own key array in place, never its input
        assert np.array_equal(src, src_before)
        assert np.array_equal(dst, dst_before)
        ref_offsets, ref_neighbors = _reference_csr(n, src, dst)
        assert offsets.dtype == ref_offsets.dtype == np.int32
        assert np.array_equal(offsets, ref_offsets)
        assert neighbors.dtype == ref_neighbors.dtype == np.int32
        assert np.array_equal(neighbors, ref_neighbors)

    def test_build_peak_memory(self):
        # the edge keys are sorted and reduced to neighbors in place, so
        # the build never holds more than a few edge arrays at once
        tracemalloc.start()
        try:
            g = generate_scale_free(10**5, 3, 2.1, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * (g.offsets.nbytes + g.neighbors.nbytes)

    def test_pickle_round_trip(self, small_graph):
        g = small_graph
        copy = pickle.loads(pickle.dumps(g, protocol=pickle.HIGHEST_PROTOCOL))
        assert copy.n == g.n
        assert copy.offsets.dtype == g.offsets.dtype
        assert copy.neighbors.dtype == g.neighbors.dtype
        assert np.array_equal(copy.offsets, g.offsets)
        assert np.array_equal(copy.neighbors, g.neighbors)
        assert copy.neighbors_view.tolist() == g.neighbors.tolist()
        params = ModelParams()
        walkers = []
        for graph in (g, copy):
            state = make_agent(0, 5, params)
            for _ in range(10_000):
                pagerank_step(state, graph, params)
            walkers.append(state)
        assert walkers[0].current == walkers[1].current
        assert walkers[0].rng.getstate() == walkers[1].rng.getstate()

    def test_out_neighbors_bounds(self, small_graph):
        with pytest.raises(IndexError):
            small_graph.out_neighbors(small_graph.n)
        with pytest.raises(IndexError):
            small_graph.out_degree(-1)


class TestEdgeListIO:
    def test_cycle_is_one_scc(self, tmp_path):
        path = tmp_path / "cycle.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        g = load_edge_list(path)
        assert g.n == 3
        assert g.out_neighbors(0).tolist() == [1]

    def test_cycle_symmetrized(self, tmp_path):
        path = tmp_path / "cycle.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        g = load_edge_list(path, symmetrize=True)
        assert g.out_neighbors(0).tolist() == [1, 2]
        assert g.is_symmetric()

    def test_single_edge_has_no_scc(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0 1\n")
        with pytest.raises(DataError):
            load_edge_list(path, symmetrize=False)

    def test_single_edge_symmetrized_ok(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0 1\n")
        g = load_edge_list(path, symmetrize=True)
        assert g.n == 2

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# a comment\n\n0 1\n1 0\n")
        assert load_edge_list(path).n == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 0\nnot an edge\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:3: ")):
            load_edge_list(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 x\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:1: ")):
            load_edge_list(path)

    def test_scc_extraction_drops_appendage(self, tmp_path):
        # 0<->1<->2 strongly connected; 3 only reachable, not returning
        path = tmp_path / "scc.txt"
        path.write_text("0 1\n1 0\n1 2\n2 1\n2 3\n")
        g = load_edge_list(path)
        assert g.n == 3
        assert g.degrees().min() >= 1

    def test_ids_densified_in_order(self, tmp_path):
        path = tmp_path / "sparse.txt"
        path.write_text("10 20\n20 10\n20 30\n30 20\n")
        g = load_edge_list(path)
        assert g.n == 3
        # 10 -> 0, 20 -> 1, 30 -> 2
        assert g.out_neighbors(1).tolist() == [0, 2]

    def test_roundtrip_byte_identical(self, tmp_path):
        g = generate_scale_free(1000, 3, 2.1, seed=17)
        first = tmp_path / "first.txt"
        second = tmp_path / "second.txt"
        write_edge_list(g, first)
        reloaded = load_edge_list(first)
        write_edge_list(reloaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_duplicates_and_self_loops_dropped(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("0 1\n0 1\n1 0\n1 1\n")
        g = load_edge_list(path)
        assert g.n == 2
        assert g.out_neighbors(0).tolist() == [1]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(DataError):
            load_edge_list(path)


def _csr_keys(graph):
    """src * n + dst of every adjacency entry, in CSR order."""
    src = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees())
    return src * graph.n + graph.neighbors


class TestEdgeKeys:
    """CSR rows are sorted by (src, dst) without duplicates, for generated
    and loaded graphs alike."""

    @pytest.mark.parametrize("n, m, gamma, seed", [
        (2, 1, 2.5, 0), (50, 2, 2.1, 1), (3000, 3, 2.1, 42),
        (5000, 7, 3.0, 9), (20_000, 3, 2.05, 5)])
    def test_generated_keys_strictly_increase(self, n, m, gamma, seed):
        g = generate_scale_free(n, m, gamma, seed)
        assert np.all(np.diff(_csr_keys(g)) > 0)

    @pytest.mark.parametrize("symmetrize", [False, True])
    @pytest.mark.parametrize("text", [
        "0 1\n1 2\n2 0\n0 1\n2 0\n1 2\n",           # duplicate edges
        "3 2\n2 1\n1 0\n0 3\n3 1\n0 2\n",           # reversed line order
        "5 5\n5 7\n7 5\n7 7\n9 5\n5 9\n9 9\n",      # self-loops, sparse ids
    ], ids=["duplicates", "reversed", "self_loops"])
    def test_loaded_keys_strictly_increase(self, tmp_path, text, symmetrize):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        g = load_edge_list(path, symmetrize=symmetrize)
        assert np.all(np.diff(_csr_keys(g)) > 0)


class TestInt32:
    """Every graph holds int32 arrays, whatever made it: node and edge
    counts below 2**31 are the contract."""

    @staticmethod
    def assert_int32(g):
        assert g.offsets.dtype == g.neighbors.dtype == np.int32
        assert g.offsets_view.format == g.neighbors_view.format == "i"
        assert g.offsets_view.tolist() == g.offsets.tolist()
        assert g.neighbors_view.tolist() == g.neighbors.tolist()

    def test_every_graph_is_int32(self, tmp_path, small_graph):
        path = tmp_path / "edges.txt"
        write_edge_list(small_graph, path)
        wide = WebGraph(small_graph.n, small_graph.offsets.astype(np.int64),
                        small_graph.neighbors.astype(np.int64))
        copy = pickle.loads(pickle.dumps(small_graph, protocol=pickle.HIGHEST_PROTOCOL))
        for g in (small_graph, load_edge_list(path), wide, copy):
            self.assert_int32(g)
            assert np.array_equal(g.offsets, small_graph.offsets)
            assert np.array_equal(g.neighbors, small_graph.neighbors)

    def test_pickle_holds_four_bytes_per_entry(self, small_graph):
        g = small_graph
        blob = pickle.dumps(g, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) <= 4 * (g.n + 1 + g.n_edges) + 1024

    @pytest.mark.parametrize("offsets, neighbors", [
        ([0, 1, 2], [1, 2**31]),
        ([0, 1, 2**31], [1, 0]),
        ([0, 1, 2], [1, -1]),
        ([0.0, 1.0, 2.0], [1, 0]),
    ], ids=["neighbor_2**31", "offset_2**31", "negative", "float"])
    def test_constructor_rejects_what_int32_cannot_hold(self, offsets, neighbors):
        with pytest.raises(DataError, match="graph (offsets|neighbors) must"):
            WebGraph(2, np.array(offsets), np.array(neighbors, dtype=np.int64))

    def test_constructor_rejects_2_to_the_31_nodes(self):
        with pytest.raises(DataError, match="below 2\\*\\*31"):
            WebGraph(2**31, np.array([0, 1, 2]), np.array([1, 0]))

    # m = 1 gives 2(n - 1) directed edges: exactly 2**31 at n = 2**30 + 1
    @pytest.mark.parametrize("n, m", [(2**31, 1), (2**30 + 1, 1)],
                             ids=["nodes", "edges"])
    def test_generate_rejects_counts_past_int32(self, n, m):
        # checked before any array is allocated
        with pytest.raises(ConfigurationError, match="below 2\\*\\*31"):
            generate_scale_free(n, m, 2.1, seed=1)

    def test_load_rejects_counts_past_the_limit(self, tmp_path, monkeypatch):
        path = tmp_path / "cycle.txt"
        path.write_text("0 1\n1 2\n2 3\n3 0\n")
        assert load_edge_list(path).n == 4
        monkeypatch.setattr(graph_module, "_INT32_LIMIT", 4)
        with pytest.raises(DataError, match="4 nodes and 4 edges"):
            load_edge_list(path)
