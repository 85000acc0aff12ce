import math
import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import webnav.session
from tallies import id_key, tally_counts, tally_of
from webnav import (BACK, FORWARD, TELEPORT, ModelParams, TrafficTally,
                    entropy_bits, generate_scale_free, make_agent, pagerank_step)
from webnav.errors import DataError, ProtocolError, UnboundedSessionError
from webnav.session import (ArrayTally, SessionRecorder, entropy_row, follow,
                            id_order, open_session)


def record_all(outcomes, user="u"):
    tally = TrafficTally()
    rec = SessionRecorder(user, tally)
    descs = []
    for outcome in outcomes:
        closed = rec.record(outcome)
        if closed is not None:
            descs.append(closed)
    descs.append(rec.close())
    return descs, tally


class TestSessionTree:
    def test_chain(self):
        descs, tally = record_all([(TELEPORT, "A"), (FORWARD, "B"), (FORWARD, "C")])
        (d,) = descs
        assert (d.size, d.depth) == (3, 2)
        assert tally_counts(tally)[1] == {("A", "B"): 1, ("B", "C"): 1}

    def test_branch_after_back(self):
        descs, tally = record_all(
            [(TELEPORT, "A"), (FORWARD, "B"), (BACK, "A"), (FORWARD, "C")])
        (d,) = descs
        assert (d.size, d.depth) == (3, 1)
        assert tally_counts(tally)[1] == {("A", "B"): 1, ("A", "C"): 1}

    def test_revisit_is_cache_hit(self):
        descs, tally = record_all(
            [(TELEPORT, "A"), (FORWARD, "B"), (BACK, "A"), (FORWARD, "B")])
        (d,) = descs
        assert (d.size, d.depth) == (2, 1)
        assert tally.page_visits["B"] == 1
        assert tally_counts(tally)[1] == {("A", "B"): 1}

    def test_singleton_session(self):
        descs, _ = record_all([(TELEPORT, "A")])
        assert (descs[0].size, descs[0].depth) == (1, 0)

    def test_chain_of_k_forwards(self):
        k = 7
        outcomes = [(TELEPORT, 0)] + [(FORWARD, i + 1) for i in range(k)]
        descs, _ = record_all(outcomes)
        assert (descs[0].size, descs[0].depth) == (k + 1, k)

    def test_star_with_backs(self):
        k = 5
        outcomes = [(TELEPORT, 0)]
        for i in range(k):
            outcomes += [(FORWARD, i + 1), (BACK, 0)]
        descs, _ = record_all(outcomes)
        assert (descs[0].size, descs[0].depth) == (k + 1, 1)

    def test_teleport_closes_and_reopens(self):
        descs, tally = record_all(
            [(TELEPORT, "A"), (FORWARD, "B"), (TELEPORT, "C"), (FORWARD, "D")])
        assert [d.index for d in descs] == [0, 1]
        assert [d.root for d in descs] == ["A", "C"]
        assert tally_counts(tally)[2] == {"A": 1, "C": 1}

    def test_clicks_counted_per_session(self):
        descs, _ = record_all(
            [(TELEPORT, "A"), (FORWARD, "B"), (BACK, "A"), (FORWARD, "B"),
             (TELEPORT, "C")])
        assert [d.clicks for d in descs] == [3, 0]

    def test_forward_before_teleport_rejected(self):
        tally = TrafficTally()
        rec = SessionRecorder("u", tally)
        with pytest.raises(ProtocolError, match="^forward step before any session start"):
            rec.record((FORWARD, "B"))
        with pytest.raises(ProtocolError, match="^back step before any session start"):
            rec.record((BACK, "B"))

    def test_back_to_unvisited_rejected(self):
        tally = TrafficTally()
        rec = SessionRecorder("u", tally)
        rec.record((TELEPORT, "A"))
        with pytest.raises(ProtocolError, match="back to 'Z', never visited"):
            rec.record((BACK, "Z"))


class TestCacheKernel:
    def test_follow_tallies_first_visit_only(self):
        tally = TrafficTally()
        tree = open_session(tally, "A")
        follow(tally, tree, "A", "B")
        assert len(tally.ref) == len(tally.dst) == 2
        follow(tally, tree, "A", "B")  # cache hit
        follow(tally, tree, "B", "A")  # the root is cached too
        assert (tally.ref, tally.dst) == ([None, "A"], ["A", "B"])
        assert (tree.size, tree.max_depth) == (2, 1)
        assert tally_counts(tally) == ({"A": 1, "B": 1}, {("A", "B"): 1}, {"A": 1})

    def test_recorder_counts_into_its_users_vector(self):
        mine, theirs = TrafficTally(), TrafficTally()
        a, b = SessionRecorder("a", mine), SessionRecorder("b", theirs)
        for outcome in [(TELEPORT, "A"), (FORWARD, "B"), (TELEPORT, "A")]:
            a.record(outcome)
        b.record((TELEPORT, "B"))
        assert (mine.page_visits, theirs.page_visits) == (
            Counter({"A": 2, "B": 1}), Counter({"B": 1}))
        assert entropy_row("b", theirs) == ("b", 0.0, 1)
        assert tally_counts(mine, theirs)[0] == {"A": 2, "B": 2}
        assert not hasattr(a, "visits")

    def test_unknown_kind_rejected(self):
        rec = SessionRecorder("u", TrafficTally())
        with pytest.raises(ProtocolError, match="unknown outcome kind 'forward'"):
            rec.record(("forward", "A"))

    def test_recorder_requests_first_visits_only(self):
        _, tally = record_all([(TELEPORT, "A"), (FORWARD, "B"), (BACK, "A"),
                               (FORWARD, "B"), (FORWARD, "C"), (TELEPORT, "A")])
        assert list(zip(tally.ref, tally.dst)) == [
            (None, "A"), ("A", "B"), ("B", "C"), (None, "A")]


class TestEntropy:
    def test_single_page_zero(self):
        tally = TrafficTally()
        for _ in range(5):
            open_session(tally, "A")
        assert entropy_bits(tally.page_visits.values()) == 0.0

    def test_four_equal_pages_two_bits(self):
        tally = TrafficTally()
        tree = open_session(tally, "A")
        for page in "BCD":
            follow(tally, tree, "A", page)
        assert entropy_bits(tally.page_visits.values()) == pytest.approx(2.0)

    def test_three_one_split(self):
        # -0.75 log2 0.75 - 0.25 log2 0.25, evaluated directly
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert entropy_bits([3, 1]) == pytest.approx(expected)
        assert entropy_bits([3, 1]) == pytest.approx(0.8113, abs=1e-4)

    def test_unknown_user_rejected(self):
        # a user who never visited a page has no entropy
        ghost = SessionRecorder("ghost", TrafficTally())
        with pytest.raises(ValueError, match="at least one visit"):
            entropy_row("ghost", ghost.tally)

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=30))
    @settings(max_examples=300)
    def test_bounds(self, counts):
        s = entropy_bits(counts)
        assert -1e-12 <= s <= math.log2(len(counts)) + 1e-12


session_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("t"), st.integers(0, 20)),
        st.tuples(st.just("f"), st.integers(0, 20)),
    ),
    min_size=1, max_size=80,
).map(lambda ops: [("t", ops[0][1])] + ops[1:])


def replay(ops):
    """Interpret (kind, node) ops as a walk, inventing legal back targets."""
    tally = TrafficTally()
    rec = SessionRecorder("u", tally)
    descs = []
    visited = []
    for kind, node in ops:
        if kind == "t":
            closed = rec.record((TELEPORT, node))
            visited = [node]
            if closed:
                descs.append(closed)
        else:
            if node == rec.position and len(visited) > 1:
                node = (node + 1) % 21  # avoid degenerate self-forward
            rec.record((FORWARD, node))
            if node not in visited:
                visited.append(node)
    descs.append(rec.close())
    return descs, tally


class TestConservation:
    @given(session_strategy)
    @settings(max_examples=400, deadline=None)
    def test_page_and_link_totals_match_sizes(self, ops):
        descs, tally = replay(ops)
        pages, links, starts = tally_counts(tally)
        assert sum(pages.values()) == sum(d.size for d in descs)
        assert sum(links.values()) == sum(d.size - 1 for d in descs)
        assert sum(starts.values()) == len(descs)

    @given(session_strategy)
    @settings(max_examples=400, deadline=None)
    def test_tree_shape_relations(self, ops):
        descs, _ = replay(ops)
        for d in descs:
            assert d.depth <= d.size - 1
            assert d.size >= 1


def browse(recorder, steps, page_id):
    """Feed steps to recorder: (the requests a browser issues, descriptors).

    A step is (kind, n): TELEPORT and FORWARD go to page_id(n), and BACK
    to the session's visited page number n modulo how many it visited.
    The requests are built click by click, apart from the tally, as a
    browser issues them: (None, root) on each teleport, (position, page)
    on each first visit in a session.
    """
    requests, descs, visited = [], [], []
    for kind, n in steps:
        page = visited[n % len(visited)] if kind == BACK else page_id(n)
        if kind == TELEPORT:
            requests.append((None, page))
            visited = [page]
        elif page not in visited:
            requests.append((recorder.position, page))
            visited.append(page)
        closed = recorder.record((kind, page))
        if closed is not None:
            descs.append(closed)
    descs.append(recorder.close())
    return requests, descs


# one user's steps over six pages: a teleport first, then any mix
step_streams = st.tuples(
    st.integers(0, 5),
    st.lists(st.tuples(st.sampled_from((TELEPORT, FORWARD, BACK)),
                       st.integers(0, 5)), max_size=40),
).map(lambda first_rest: [(TELEPORT, first_rest[0]), *first_rest[1]])


class TestTalliedRequests:
    @given(st.lists(step_streams, min_size=1, max_size=4), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equal_the_requests_each_user_issued(self, streams, strings):
        # users feed one tally one after another: each appends its own
        # requests, in click order, after the last user's
        tally = TrafficTally()
        for user, steps in enumerate(streams):
            first = len(tally.dst)
            expected, _ = browse(SessionRecorder(user, tally), steps,
                                 str if strings else int)
            assert list(zip(tally.ref[first:], tally.dst[first:])) == expected


@pytest.fixture(scope="module")
def graph():
    return generate_scale_free(400, 2, 2.1, seed=3)


def walked_tally(graph, seed=1, steps=3000):
    """A TrafficTally of three pagerank walkers on graph."""
    tally = TrafficTally()
    params = ModelParams()
    for aid in range(3):
        state = make_agent(aid, seed, params)
        record = SessionRecorder(aid, tally).record
        for _ in range(steps):
            record(pagerank_step(state, graph, params))
    return tally


def views(tally: TrafficTally) -> tuple:
    """(pages, links, starts) Counters of a TrafficTally, counted without numpy."""
    requests = list(zip(tally.ref, tally.dst))
    return (Counter(tally.dst),
            Counter(request for request in requests if request[0] is not None),
            Counter(dst for ref, dst in requests if ref is None))


def sorted_columns(counts: tuple) -> tuple:
    """(pages, links, starts) of three count mappings from sorted(counts.items()).

    The reference ArrayTally.of is checked against, built without numpy.
    """
    out = []
    for mapping, width in zip(counts, (1, 2, 1)):
        rows = sorted(mapping.items())
        keys = [key for key, _ in rows]
        columns = (tuple(zip(*keys)) or ((), ())) if width == 2 else (keys,)
        out.append((columns, [n for _, n in rows]))
    return tuple(out)


def assert_same_columns(got, expected):
    """Two columns() results hold the same keys and counts, in one order."""
    assert len(got) == len(expected) == 3
    for (columns, counts), (want_columns, want_counts) in zip(got, expected):
        assert [list(c) for c in columns] == [list(c) for c in want_columns]
        assert counts.dtype == np.int64
        assert counts.tolist() == list(want_counts)


class TestArrayTally:
    def test_columns_equal_the_counters_columns(self, graph):
        tally = walked_tally(graph)
        assert_same_columns(ArrayTally.of(tally).columns(),
                            sorted_columns(views(tally)))

    def test_constructor_takes_the_columns(self, graph):
        arrays = ArrayTally.of(walked_tally(graph))
        again = ArrayTally(*arrays.columns())
        assert_same_columns(again.columns(), arrays.columns())
        assert again.page_visits is arrays.page_visits

    def test_empty_tally_has_empty_columns(self):
        tally = ArrayTally.of(TrafficTally())
        for (columns, counts), width in zip(tally.columns(), (1, 2, 1)):
            assert len(columns) == width
            assert all(len(c) == 0 for c in columns) and counts.size == 0

    def test_merge_adds_after_pickling(self, graph):
        a, b = walked_tally(graph, seed=1), walked_tally(graph, seed=2)
        arrays = ArrayTally.of(a)
        copy = pickle.loads(pickle.dumps(ArrayTally.of(b)))
        assert arrays.merge(copy) is arrays
        assert_same_columns(arrays.columns(),
                            sorted_columns(added(views(a), views(b))))

    def test_tallies_of_different_graphs_merge_by_key(self):
        one, two = (generate_scale_free(300, 2, 2.1, seed=s) for s in (1, 2))
        a, b = walked_tally(one), walked_tally(two)
        merged = ArrayTally.of(a).merge(ArrayTally.of(b))
        assert_same_columns(merged.columns(),
                            sorted_columns(added(views(a), views(b))))

    def test_links_sharing_a_flat_key_stay_apart(self):
        # src * (max dst + 1) + dst, with each tally's own max dst, would key
        # both 1 -> 0 and 0 -> 1 as 1; src << 31 | dst keys them 2**31 and 1
        a, b = tally_of(links=[(1, 0)]), tally_of(links=[(0, 1)] * 2)
        (src, dst), counts = ArrayTally.of(a).merge(ArrayTally.of(b)).columns()[1]
        assert (src.tolist(), dst.tolist(), counts.tolist()) == (
            [0, 1], [1, 0], [2, 1])

    @pytest.mark.parametrize("starts, link", [
        ([-1], (0, 1)), ([0], (0, -1)), ([0], (-1, 0))],
        ids=["start", "link_dst", "link_src"])
    def test_negative_key_raises(self, starts, link):
        # a negative id in any column raises, whichever count reads it first
        tally = tally_of([0, 1] + starts, [(0, 1), link])
        with pytest.raises(DataError, match="tally key -1 is negative"):
            ArrayTally.of(tally)

    def test_merge_of_a_negative_key_raises(self):
        good = tally_of([0], [(0, 1)])
        bad = ArrayTally.of(good)
        bad.link_keys = (np.array([0]), np.array([-1]))
        with pytest.raises(DataError, match="tally key -1 is negative"):
            ArrayTally.of(good).merge(bad)

    def test_link_keys_too_large_for_one_key_raise(self):
        # src << 31 | dst is one int64 key while both ids are below 2**31
        for link in ((2**62, 2**40), (2**31, 0), (0, 2**31)):
            with pytest.raises(DataError, match=r"tally key \d+ is not below 2\*\*31"):
                ArrayTally.of(tally_of(links=[link]))

    def test_page_id_of_2_to_the_31_raises(self):
        with pytest.raises(DataError, match=r"tally key 2147483648 is not below 2\*\*31"):
            ArrayTally.of(tally_of([0, 2**31]))
        with pytest.raises(DataError, match=r"must lie in \[0, 2\*\*31\)"):
            ArrayTally.of(tally_of([2**64]))  # past int64

    def test_largest_ids_keep_their_order(self):
        top = 2**31 - 1
        links = [(top, top), (top, 0), (0, top), (top, top)]
        (src, dst), counts = ArrayTally.of(tally_of(links=links)).columns()[1]
        assert (src.tolist(), dst.tolist(), counts.tolist()) == (
            [0, top, top], [top, 0, top], [1, 1, 2])
        merged = ArrayTally.of(tally_of(links=links[:2])).merge(
            ArrayTally.of(tally_of(links=links[2:])))
        (src, dst), counts = merged.columns()[1]
        assert (src.tolist(), dst.tolist(), counts.tolist()) == (
            [0, top, top], [top, 0, top], [1, 1, 2])

    @pytest.mark.parametrize("pair, keys", [
        (0, (np.array([2**31]),)), (1, (np.array([2**31]), np.array([0]))),
        (1, (np.array([0]), np.array([2**31]))), (2, (np.array([2**31]),))],
        ids=["page", "src", "dst", "start"])
    @pytest.mark.parametrize("bad_side", ["self", "other"])
    def test_merge_of_a_key_of_2_to_the_31_raises(self, pair, keys, bad_side):
        tallies = [ArrayTally.of(tally_of([0, 1], [(0, 1)])) for _ in range(2)]
        bad = tallies[bad_side == "other"]
        columns = list(bad.columns())
        columns[pair] = (keys, np.ones(1, np.int64))
        bad.__init__(*columns)
        before = pickle.loads(pickle.dumps(tallies))
        with pytest.raises(DataError, match=r"tally key 2147483648 is not below 2\*\*31"):
            tallies[0].merge(tallies[1])
        assert tallies == before

    @pytest.mark.parametrize("starts, links", [
        ((1,), (("a", "b"),)), (("a",), ((1, 2),)),
        ((), ((0, 1), ("a", "b"))), ((), (("a", 1),)),
        (("10", 9), ()), ((1.5,), ()), (("9", "10"), (("9", "10"),))],
        ids=["page_int_first", "page_str_first", "links", "one_link",
             "decimal_start", "float", "strings"])
    def test_ids_not_all_integers_or_all_strings_raise(self, starts, links):
        # any id that is not an integer raises, a log's all-string ids too:
        # Sessionizer.run codes those before it counts them
        tally = tally_of(starts, links)
        with pytest.raises(DataError, match="tally ids must be integers"):
            ArrayTally.of(tally)

    def test_equal_counts_compare_equal(self, graph):
        tally = walked_tally(graph)
        a, b = ArrayTally.of(tally), ArrayTally.of(tally)
        assert a == b and a is not b
        b.link_visits[-1] += 1
        assert a != b


class TestIdOrder:
    def test_decimal_ids_by_value_then_the_rest_in_string_order(self):
        ids = {"b", "10", "9", "a", "007", "7", "", "10a", "\u0663"}
        assert id_order(ids) == ["7", "9", "10", "007", "", "10a", "a", "b", "\u0663"]

    def test_integer_ids_in_integer_order(self):
        assert id_order([10, 9, 100, 0]) == [0, 9, 10, 100]

    @given(st.lists(st.integers(0, 10**12)))
    @settings(max_examples=200)
    def test_decimal_strings_of_integers_keep_their_order(self, ids):
        # a re-ingested export's ids come back in the simulation's order
        assert id_order(map(str, ids)) == [str(i) for i in sorted(ids)]

    @given(st.lists(st.one_of(st.text(max_size=4),
                              st.text("0123456789", min_size=1, max_size=4))))
    @settings(max_examples=200)
    def test_equals_the_spelled_out_key(self, ids):
        assert id_order(ids) == sorted(ids, key=id_key)


class TestSessionCap:
    @pytest.mark.parametrize("last", [(FORWARD, 5), (BACK, 2)],
                             ids=["forward", "back"])
    def test_click_past_the_cap_raises(self, monkeypatch, last):
        monkeypatch.setattr(webnav.session, "MAX_SESSION_CLICKS", 3)
        rec = SessionRecorder(7, TrafficTally())
        for step in ((TELEPORT, 0), (FORWARD, 1), (TELEPORT, 2), (FORWARD, 3),
                     (BACK, 2), (FORWARD, 4)):
            rec.record(step)
        assert rec.tree.clicks == 3
        with pytest.raises(UnboundedSessionError,
                           match="agent 7 session 1 passed 3 clicks"):
            rec.record(last)


def added(*tallies) -> tuple:
    """(pages, links, starts) Counters holding the sum of tallies' counts."""
    total = (Counter(), Counter(), Counter())
    for tally in tallies:
        for mine, theirs in zip(total, tally):
            mine.update(theirs)
    return total


page_id = st.integers(0, 60)
count = st.integers(1, 10**6)
# (pages, links, starts) count dicts; small ids make keys overlap often
tally_dicts = st.tuples(
    st.dictionaries(page_id, count, max_size=30),
    st.dictionaries(st.tuples(page_id, page_id), count, max_size=30),
    st.dictionaries(page_id, count, max_size=30))


def arrays(dicts) -> ArrayTally:
    """An ArrayTally of (pages, links, starts) count dicts, rows in key order."""
    return ArrayTally(*(
        (tuple(np.array(c, np.int64) for c in columns), np.array(counts, np.int64))
        for columns, counts in sorted_columns(dicts)))


class TestMergeProperty:
    @given(tally_dicts, tally_dicts, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_merge_equals_counter_addition(self, a, b, share):
        if share:  # the same keys on both sides, other counts
            b = tuple({k: v + 1 for k, v in mine.items()} for mine in a)
        expected = sorted_columns(added(a, b))
        assert_same_columns(arrays(a).merge(arrays(b)).columns(), expected)
        assert_same_columns(arrays(b).merge(arrays(a)).columns(), expected)

    @given(tally_dicts, tally_dicts, tally_dicts)
    @settings(max_examples=200, deadline=None)
    def test_fold_of_three_equals_counter_addition(self, a, b, c):
        folded = arrays(a).merge(arrays(b)).merge(arrays(c))
        assert_same_columns(folded.columns(), sorted_columns(added(a, b, c)))

    @given(tally_dicts)
    @settings(max_examples=100, deadline=None)
    def test_merge_with_an_empty_side(self, a):
        empty = ({}, {}, {})
        for merged in (arrays(a).merge(arrays(empty)),
                       arrays(empty).merge(arrays(a)),
                       arrays(a).merge(ArrayTally.of(TrafficTally()))):
            assert_same_columns(merged.columns(), sorted_columns(a))


class TestMergeMoves:
    def test_other_is_left_empty(self, graph):
        a = ArrayTally.of(walked_tally(graph, seed=1))
        b = ArrayTally.of(walked_tally(graph, seed=2))
        a.merge(b)
        assert b == ArrayTally.of(TrafficTally())
        for (columns, counts), width in zip(b.columns(), (1, 2, 1)):
            assert len(columns) == width
            assert all(c.dtype == np.int64 for c in (*columns, counts))
        assert b.merge(ArrayTally.of(TrafficTally())) == ArrayTally.of(TrafficTally())

    def test_arrays_read_are_not_written(self, graph):
        # a tally rebuilt from another's columns shares its arrays
        a = ArrayTally.of(walked_tally(graph, seed=1))
        b = ArrayTally.of(walked_tally(graph, seed=2))
        before = pickle.loads(pickle.dumps((a, b)))
        ArrayTally(*a.columns()).merge(ArrayTally(*b.columns()))
        assert (a, b) == before

    @pytest.mark.parametrize("pair, keys", [
        (0, (np.array([2, 1]),)), (0, (np.array([1, 1]),)),
        (1, (np.array([1, 0]), np.array([0, 1]))),
        (1, (np.array([0, 0]), np.array([1, 1]))),
        (2, (np.array([3, 2]),))],
        ids=["pages_unsorted", "pages_repeated", "links_unsorted",
             "links_repeated", "starts_unsorted"])
    @pytest.mark.parametrize("bad_side", ["self", "other"])
    def test_rows_out_of_order_or_repeated_raise(self, pair, keys, bad_side):
        good = {0: 1, 1: 1, 2: 1, 3: 1}
        links = {(0, 1): 1, (1, 0): 1}
        tallies = [arrays((good, links, good)) for _ in range(2)]
        bad = tallies[bad_side == "other"]
        columns = list(bad.columns())
        columns[pair] = (keys, np.ones(2, np.int64))
        bad.__init__(*columns)
        before = pickle.loads(pickle.dumps(tallies))
        with pytest.raises(DataError, match="out of key order or repeat a key"):
            tallies[0].merge(tallies[1])
        assert tallies == before  # every pair is checked before any moves

    def test_peak_memory_of_a_queue_sized_merge(self):
        # the size of two 16-agent desk queues' tallies: about 50k page,
        # 80k link and 15k start rows each, many keys on both sides
        rng = np.random.default_rng(20)

        def queue_tally():
            pages, links, starts = (
                np.unique(rng.integers(0, high, draws)) for high, draws in
                ((10**5, 70_000), (2 * 10**5, 100_000), (10**5, 16_000)))
            return ArrayTally(((pages,), rng.integers(1, 50, pages.size)),
                              (np.divmod(links, 1000), rng.integers(1, 5, links.size)),
                              ((starts,), rng.integers(1, 5, starts.size)))

        tracemalloc.start()
        try:
            a, b = queue_tally(), queue_tally()
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            a.merge(b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        merged = sum(c.nbytes for keys, counts in a.columns() for c in (*keys, counts))
        # each old pair is freed as its merged pair replaces it (0.98x
        # here); concatenating and argsorting every pair took 2.41x
        assert peak - held <= 1.5 * merged


# small ids repeat often; large ones reach past any small-int cache
tally_id = st.one_of(st.integers(0, 20), st.integers(0, 10**5))


class TestCountingProperty:
    @given(st.lists(tally_id, max_size=40),
           st.lists(st.tuples(tally_id, tally_id), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_sorted_counter_rows(self, starts, links):
        expected = sorted_columns((Counter(starts + [dst for _, dst in links]),
                                   Counter(links), Counter(starts)))
        got = ArrayTally.of(tally_of(starts, links)).columns()
        assert_same_columns(got, expected)
        for columns, _ in got:
            for column in columns:
                assert column.dtype == np.int64
