import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from webnav import (ModelParams, SimConfig, abc_step, bookrank_step,
                    generate_scale_free, ks_statistic, make_agent,
                    pagerank_step, simulate)
from webnav.agents import (BACK, FORWARD, TELEPORT, BookmarkList,
                           ZipfRankTable, agent_rng, bookmark_sample)
from webnav.errors import ConfigurationError


@pytest.fixture(scope="module")
def graph():
    return generate_scale_free(1000, 3, 2.1, seed=3)


def build_list(pages):
    bl = BookmarkList()
    for p in pages:
        bl.touch(p)
    return bl


class _ReferenceBookmarks:
    """Two parallel lists sorted by (-count, first visit): pop and insert.

    BookmarkList keeps one list of packed int keys and must rank every
    page as this does.
    """

    def __init__(self):
        self._pages = []
        self._keys = []
        self._count = {}
        self._first = {}
        self._next_seq = 0

    def __len__(self):
        return len(self._pages)

    def page_at_rank(self, rank):
        return self._pages[rank - 1]

    def entries(self):
        return [(p, self._count[p]) for p in self._pages]

    def touch(self, page):
        c = self._count.get(page)
        if c is None:
            self._count[page] = 1
            self._first[page] = self._next_seq
            self._keys.append((-1, self._next_seq))
            self._pages.append(page)
            self._next_seq += 1
            return
        f = self._first[page]
        i = bisect_left(self._keys, (-c, f))
        self._pages.pop(i)
        self._keys.pop(i)
        key = (-(c + 1), f)
        j = bisect_right(self._keys, key, 0, i)
        self._pages.insert(j, page)
        self._keys.insert(j, key)
        self._count[page] = c + 1


class TestBookmarkList:
    def test_touch_new_page(self):
        bl = build_list(["A"])
        assert bl.entries() == [("A", 1)]

    def test_touch_overtakes_equal_count(self):
        bl = build_list(["A", "A", "B", "B"])
        bl.touch("B")
        assert bl.entries() == [("B", 3), ("A", 2)]

    def test_tie_keeps_first_visit_order(self):
        bl = build_list(["A", "A", "B"])
        bl.touch("B")
        assert bl.entries() == [("A", 2), ("B", 2)]

    @given(st.lists(st.integers(min_value=0, max_value=8), max_size=60))
    @settings(max_examples=300)
    def test_counts_non_increasing_and_consistent(self, touches):
        bl = build_list(touches)
        entries = bl.entries()
        counts = [c for _, c in entries]
        assert counts == sorted(counts, reverse=True)
        assert Counter(dict(entries)) == Counter(touches)
        firsts = {p: i for i, p in enumerate(dict.fromkeys(touches))}
        for (p1, c1), (p2, c2) in zip(entries, entries[1:]):
            if c1 == c2:
                assert firsts[p1] < firsts[p2]

    @pytest.mark.parametrize("pages,touches,seed", [
        (5, 20_000, 0),        # heavy ties, counts in the thousands
        (40, 40_000, 1),
        (2_000, 30_000, 2),    # a long tail of count-1 and count-2 pages
    ])
    @pytest.mark.parametrize("as_str", [False, True], ids=["int", "str"])
    def test_matches_reference(self, pages, touches, seed, as_str):
        rng = random.Random(seed)
        names = [f"p{i}" for i in range(pages)] if as_str else list(range(pages))
        bl, ref = BookmarkList(), _ReferenceBookmarks()
        for step in range(touches):
            # skewed draws keep a few pages far ahead and many tied behind
            page = names[min(int(rng.paretovariate(0.8)) - 1, pages - 1)
                         if step % 2 else rng.randrange(pages)]
            bl.touch(page)
            ref.touch(page)
            if step % 997 == 0:
                assert bl.entries() == ref.entries()
        assert len(bl) == len(ref)
        assert bl.entries() == ref.entries()
        assert [bl.page_at_rank(r) for r in range(1, len(bl) + 1)] == \
            [ref.page_at_rank(r) for r in range(1, len(ref) + 1)]
        assert max(c for _, c in bl.entries()) >= 1000
        assert all(bl.visits(p) == c for p, c in ref.entries())
        assert bl.visits("absent") == 0 and "absent" not in bl


class TestZipfSampling:
    def test_single_entry_always_rank_one(self):
        bl = build_list(["A"])
        rng = random.Random(1)
        table = ZipfRankTable(1.33)
        assert all(bookmark_sample(bl, table, rng) == "A" for _ in range(20))

    def test_rank_probabilities_two_entries(self):
        # direct normalization: P(rank 1) = 1 / (1 + 2^-1.33)
        table = ZipfRankTable(1.33)
        p1, p2 = table.rank_probabilities(2)
        expect1 = 1.0 / (1.0 + 2 ** -1.33)
        assert p1 == pytest.approx(expect1, abs=1e-12)
        assert p1 == pytest.approx(0.7155, abs=5e-4)
        assert p2 == pytest.approx(1 - expect1, abs=1e-12)

    def test_rank_probabilities_three_entries(self):
        table = ZipfRankTable(1.33)
        probs = table.rank_probabilities(3)
        weights = [1.0, 2 ** -1.33, 3 ** -1.33]
        total = sum(weights)
        for got, w in zip(probs, weights):
            assert got == pytest.approx(w / total, abs=1e-12)

    def test_empirical_frequencies_within_3_sigma(self):
        bl = build_list(["A", "A", "A", "B", "B", "C"])
        table = ZipfRankTable(1.33)
        rng = random.Random(99)
        n = 1_000_000
        counts = Counter(bookmark_sample(bl, table, rng) for _ in range(n))
        for page, p in zip("ABC", table.rank_probabilities(3)):
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[page] - n * p) < 3 * sigma

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            bookmark_sample(BookmarkList(), ZipfRankTable(1.33), random.Random(0))


class TestPageRankStep:
    def test_first_step_is_teleport(self, graph):
        state = make_agent(0, 1, ModelParams())
        kind, to = pagerank_step(state, graph, ModelParams())
        assert kind == TELEPORT
        assert 0 <= to < graph.n

    def test_pt_one_always_teleports(self, graph):
        params = ModelParams(p_t=1.0)
        state = make_agent(0, 1, params)
        kinds = {pagerank_step(state, graph, params)[0] for _ in range(200)}
        assert kinds == {TELEPORT}

    def test_pt_zero_never_teleports_after_start(self, graph):
        params = ModelParams(p_t=0.0)
        state = make_agent(0, 1, params)
        assert pagerank_step(state, graph, params)[0] == TELEPORT
        kinds = {pagerank_step(state, graph, params)[0] for _ in range(200)}
        assert kinds == {FORWARD}

    def test_forward_goes_to_neighbor(self, graph):
        params = ModelParams(p_t=0.0)
        state = make_agent(0, 1, params)
        pagerank_step(state, graph, params)
        here = state.current
        _, to = pagerank_step(state, graph, params)
        assert to in graph.out_neighbors(here).tolist()

    def test_teleport_targets_uniform_chi_square(self, graph):
        # chi-square of 10^6 teleport targets over 10^3 nodes should sit
        # within 3 sigma of its df mean (multinomial oracle)
        params = ModelParams(p_t=1.0)
        state = make_agent(5, 11, params)
        counts = Counter(pagerank_step(state, graph, params)[1]
                         for _ in range(1_000_000))
        expected = 1_000_000 / graph.n
        chi2 = sum((counts.get(v, 0) - expected) ** 2 / expected
                   for v in range(graph.n))
        df = graph.n - 1
        assert abs(chi2 - df) < 3 * math.sqrt(2 * df)

    def test_click_lengths_geometric(self, graph):
        result = simulate(SimConfig(model="pagerank", n_agents=300, sessions=60,
                                    seed=2, workers=1), graph=graph)
        from webnav.metrics import fit_geometric_ratio
        ratio = fit_geometric_ratio(result.click_lengths)
        assert abs(ratio - 0.85) < 0.02


class TestBookRankStep:
    def test_first_step_bookmarks_start(self, graph):
        params = ModelParams()
        state = make_agent(0, 1, params)
        kind, to = bookrank_step(state, graph, params)
        assert kind == TELEPORT
        assert state.bookmarks.entries() == [(to, 1)]

    def test_single_bookmark_teleport_returns_it(self, graph):
        params = ModelParams(p_t=1.0)
        state = make_agent(0, 1, params)
        _, first = bookrank_step(state, graph, params)
        for _ in range(50):
            assert bookrank_step(state, graph, params)[1] == first

    def test_every_arrival_touches_bookmarks(self, graph):
        params = ModelParams()
        state = make_agent(3, 7, params)
        for _ in range(300):
            bookrank_step(state, graph, params)
        # every step, teleport or forward, records exactly one visit
        assert sum(c for _, c in state.bookmarks.entries()) == 300

    def test_cadence_matches_pagerank(self, graph):
        # uniform-teleport BookRank IS the PageRank walker; identical
        # geometric cadence shows up as indistinguishable click lengths
        pr = simulate(SimConfig(model="pagerank", n_agents=400, sessions=60,
                                seed=21, workers=1), graph=graph)
        br = simulate(SimConfig(model="bookrank", n_agents=400, sessions=60,
                                seed=21, workers=1), graph=graph)
        ks_clicks = ks_statistic([d.clicks for d in pr.descriptors],
                                 [d.clicks for d in br.descriptors])
        ks_sizes = ks_statistic([d.size for d in pr.descriptors],
                                [d.size for d in br.descriptors])
        assert ks_clicks < 0.01
        assert ks_sizes < 0.02


class TestAbcStep:
    def test_neutral_forward_keeps_energy(self, graph):
        # eta=0 and delta0=1: forward to an unseen page is energy-neutral
        params = ModelParams(p_b=0.0, eta=0.0)
        state = make_agent(0, 1, params)
        abc_step(state, graph, params)
        assert state.energy == pytest.approx(0.5)
        abc_step(state, graph, params)
        assert state.energy == pytest.approx(0.5)  # 0.5 - 1 + 1

    def test_back_step_drains_and_session_ends(self, graph):
        params = ModelParams(p_b=1.0 - 1e-12, eta=0.0)
        state = make_agent(0, 2, params)
        abc_step(state, graph, params)             # teleport, E = 0.5
        root = state.current
        state.rng = random.Random(1)               # forward branch needs p < p_b
        # force one forward first: with p_b ~ 1 every draw is a back, so
        # emulate the forward by directly calling with p_b = 0
        fwd_params = ModelParams(p_b=0.0, eta=0.0)
        abc_step(state, graph, fwd_params)
        assert state.energy == pytest.approx(0.5)
        step = abc_step(state, graph, params)      # back to root, E -= 0.5
        assert step == (BACK, root)
        assert state.energy == pytest.approx(0.0)
        assert abc_step(state, graph, params)[0] == TELEPORT

    def test_back_at_root_is_costly_no_move(self, graph):
        params = ModelParams(p_b=1.0 - 1e-12, eta=0.0)
        state = make_agent(4, 3, params)
        abc_step(state, graph, params)             # teleport, E = 0.5
        root = state.current
        step = abc_step(state, graph, params)      # back with empty history
        assert step == (BACK, root)
        assert state.current == root
        assert state.energy == pytest.approx(0.0)
        assert abc_step(state, graph, params)[0] == TELEPORT

    def test_revisit_costs_without_gain(self, graph):
        params = ModelParams(p_b=0.0, eta=0.0, e0=10.0)
        state = make_agent(1, 5, params)
        abc_step(state, graph, params)
        seen_energy = {state.energy}
        for _ in range(200):
            before = state.energy
            kind, to = abc_step(state, graph, params)
            if kind == FORWARD and to in state.history:
                pass  # history holds sources, not the novelty signal
            seen_energy.add(state.energy)
            if kind == FORWARD and state.energy == pytest.approx(before - 1.0):
                return  # saw a revisit: cost c_f, no delta gain
        pytest.skip("no revisit in 200 steps")

    def test_exact_click_budget_when_delta_zero(self, graph):
        # p_b=0, delta0=0, e0/c_f = 4: every session has exactly 4 clicks
        params = ModelParams(p_b=0.0, eta=0.0, delta0=0.0, c_f=0.25,
                             c_b=0.25, e0=1.0)
        result = simulate(SimConfig(model="abc", n_agents=50, sessions=30,
                                    seed=5, workers=1, params=params), graph=graph)
        assert {d.clicks for d in result.descriptors} == {4}

    def test_dies_at_first_revisit_when_neutral(self, graph):
        # delta0 = c_f and eta = 0: novel forwards are free, the first
        # within-session revisit is fatal, so size == clicks exactly
        params = ModelParams(p_b=0.0, eta=0.0, delta0=1.0, c_f=1.0,
                             c_b=1.0, e0=0.5)
        result = simulate(SimConfig(model="abc", n_agents=100, sessions=40,
                                    seed=5, workers=1, params=params), graph=graph)
        assert all(d.size == d.clicks for d in result.descriptors)

    def test_lethal_back_reduces_to_geometric_cadence(self, graph):
        # free forwards plus a back that always kills make the click count
        # 1 + geometric(p_b): BookRank's cadence shifted by one
        params = ModelParams(p_b=0.15, c_b=0.5, e0=0.5, c_f=0.0,
                             eta=0.0, delta0=0.0)
        abc = simulate(SimConfig(model="abc", n_agents=400, sessions=60,
                                 seed=21, workers=1, params=params), graph=graph)
        br = simulate(SimConfig(model="bookrank", n_agents=400, sessions=60,
                                seed=21, workers=1), graph=graph)
        ks = ks_statistic([d.clicks - 1 for d in abc.descriptors],
                          [d.clicks for d in br.descriptors])
        assert ks < 0.02

    def test_energy_trace_invariants(self, graph):
        # strict decrease on backs and seen-forwards; teleport exactly when
        # energy has been exhausted, never earlier
        params = ModelParams()
        state = make_agent(9, 13, params)
        prev_energy = None
        for _ in range(3000):
            before = state.energy if state.current is not None else None
            seen_before = set(state.session_delta)
            kind, to = abc_step(state, graph, params)
            if before is None:
                continue
            if kind == TELEPORT:
                assert before <= 0.0
                assert state.energy == params.e0
                assert state.history == []
            else:
                assert before > 0.0
                if kind == BACK:
                    assert state.energy == pytest.approx(before - params.c_b)
                elif to in seen_before:
                    assert state.energy == pytest.approx(before - params.c_f)

    def test_delta_stays_positive(self, graph):
        params = ModelParams()
        state = make_agent(2, 17, params)
        for _ in range(3000):
            abc_step(state, graph, params)
            assert all(d > 0 for d in state.session_delta.values())

    def test_back_history_scoped_to_session(self, graph):
        params = ModelParams()
        state = make_agent(6, 19, params)
        for _ in range(2000):
            kind, _ = abc_step(state, graph, params)
            if kind == TELEPORT:
                assert state.history == []
            assert all(p in state.session_delta for p in state.history)


@pytest.fixture(scope="module")
def large_graph():
    return generate_scale_free(20_000, 3, 2.1, seed=11)


class TestAbcOracles:
    """Exact laws of the abc model, not statistical ones."""

    @pytest.mark.parametrize("changes", [
        {"p_b": 0.3}, {"p_b": 0.5}, {"p_b": 0.7}, {"beta": 0.5}],
        ids=["p_b=0.3", "p_b=0.5", "p_b=0.7", "beta=0.5"])
    def test_chain_law(self, large_graph, changes):
        # eta = 0 and delta0 = c_f make a first visit free; e0 = c_b makes
        # the first back (E = 0) or revisit (E < 0) end the session, so
        # every session is a chain of first visits plus that one click
        base = ModelParams()
        params = ModelParams(eta=0.0, delta0=base.c_f, e0=base.c_b, **changes)
        result = simulate(SimConfig(model="abc", n_agents=20, sessions=300,
                                    seed=8, workers=1, params=params),
                          graph=large_graph)
        table = result.descriptors
        assert (table.depth == table.size - 1).all()
        assert (table.clicks == table.size).all()
        assert table.size.max() > 2  # the law holds beyond trivial chains

    def test_entropy_ceiling(self, large_graph):
        # teleports go only to bookmarks, pages already visited, so a user
        # visits at most 1 + sum(size - 1) pages: S <= log2 of that
        result = simulate(SimConfig(model="abc", n_agents=30, sessions=300,
                                    seed=9, workers=1), graph=large_graph)
        new_pages = Counter()
        for d in result.descriptors:
            new_pages[d.user] += d.size - 1
        for user, bits, _ in result.entropies:
            assert bits <= math.log2(1 + new_pages[user]) + 1e-9, user


def pagerank_matrix(graph) -> sp.csr_matrix:
    """The walk's link matrix: row u is uniform over u's out-links."""
    degree = np.diff(graph.offsets)
    rows = np.repeat(np.arange(graph.n), degree)
    return sp.csr_matrix((1.0 / degree[rows], (rows, graph.neighbors)),
                         shape=(graph.n, graph.n))


def pagerank_vector(links: sp.csr_matrix, damping: float) -> np.ndarray:
    """The PageRank vector of links by power iteration (Brin & Page 1998)."""
    n = links.shape[0]
    back = links.T.tocsr()
    pi = np.full(n, 1.0 / n)
    while True:
        new = (1.0 - damping) / n + damping * (back @ pi)
        if np.abs(new - pi).sum() < 1e-13:
            return new
        pi = new


class TestPageRankOracle:
    """The pagerank walker against the Google matrix at damping 1 - p_t."""

    @pytest.fixture(scope="class")
    def walk(self):
        # one walker, 300k steps on a 500-node graph: about 60k sessions
        graph = generate_scale_free(500, 2, 2.1, seed=4)
        params = ModelParams()
        state = make_agent(0, 1, params)
        steps = 300_000
        kinds, targets, sources = (np.empty(steps, np.int64) for _ in range(3))
        for i in range(steps):
            sources[i] = -1 if state.current is None else state.current
            kinds[i], targets[i] = pagerank_step(state, graph, params)
        return graph, params, kinds, targets, sources

    def test_step_targets_follow_the_pagerank_vector(self, walk):
        # Steps are correlated, so a chi-square over steps fails on correct
        # code. The sessions between uniform teleports are i.i.d., so each
        # page's share of steps is a ratio estimator over sessions: page v
        # has z = (C_v - pi_v N) / sqrt(sum_s (c_sv - pi_v L_s)^2), where
        # session s holds L_s steps, c_sv of them on v.
        graph, params, kinds, targets, _ = walk
        n = graph.n
        pi = pagerank_vector(pagerank_matrix(graph), 1.0 - params.p_t)
        end = np.flatnonzero(kinds == TELEPORT)[-1]  # complete sessions only
        session = np.cumsum(kinds[:end] == TELEPORT) - 1
        lengths = np.bincount(session).astype(float)
        keys, c = np.unique(session * n + targets[:end], return_counts=True)
        s, v = np.divmod(keys, n)
        visits = np.bincount(v, weights=c, minlength=n)
        squares = (np.bincount(v, weights=c * c, minlength=n)
                   - 2 * pi * np.bincount(v, weights=c * lengths[s], minlength=n)
                   + pi * pi * (lengths * lengths).sum())
        z = (visits - pi * lengths.sum()) / np.sqrt(squares)
        # about chi-square on n degrees of freedom: 5 SD above its mean
        assert (z * z).sum() < n + 5 * math.sqrt(2 * n)

    def test_steps_stay_put_as_the_google_matrix_says(self, walk):
        # A step stays on its page with chance sum_u pi_u G_uu, which is
        # p_t / n on a graph without self-links: a teleport may land on the
        # page it leaves. Each step after the first stays with that chance
        # whatever came before, so the count is binomial.
        graph, params, _, targets, sources = walk
        links = pagerank_matrix(graph)
        pi = pagerank_vector(links, 1.0 - params.p_t)
        stay = (params.p_t / graph.n
                + (1.0 - params.p_t) * (pi * links.diagonal()).sum())
        trials = targets.size - 1
        stays = int((targets[1:] == sources[1:]).sum())
        sd = math.sqrt(trials * stay * (1.0 - stay))
        assert abs(stays - trials * stay) < 5 * sd


class TestDeterminism:
    def test_same_seed_same_stream(self, graph):
        params = ModelParams()
        a = make_agent(3, 1234, params)
        b = make_agent(3, 1234, params)
        for _ in range(500):
            assert abc_step(a, graph, params) == abc_step(b, graph, params)

    def test_agents_get_distinct_streams(self):
        assert agent_rng(1, 0).random() != agent_rng(1, 1).random()
        assert agent_rng(1, 0).random() != agent_rng(2, 0).random()


class TestModelParams:
    def test_defaults_match_reference_settings(self):
        p = ModelParams()
        assert (p.p_t, p.beta, p.p_b) == (0.15, 1.33, 0.5)
        assert (p.e0, p.c_f, p.c_b, p.eta, p.delta0) == (0.5, 1.0, 0.5, 0.15, 1.0)

    @pytest.mark.parametrize("bad", [
        {"p_t": -0.1}, {"p_t": 1.5}, {"p_b": 1.0}, {"beta": 0.0},
        {"c_f": -1.0}, {"eta": 1.0}, {"delta0": -0.5},
        # non-finite values slip past range checks and never end a session
        {"beta": float("nan")}, {"beta": float("inf")},
        {"e0": float("nan")}, {"e0": float("inf")}, {"e0": float("-inf")},
        {"c_f": float("nan")}, {"c_f": float("inf")},
        {"c_b": float("nan")}, {"c_b": float("inf")},
        {"delta0": float("nan")}, {"delta0": float("inf")},
    ])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ConfigurationError):
            ModelParams(**bad).validate()
