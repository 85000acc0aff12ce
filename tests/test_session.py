import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from webnav import BACK, FORWARD, TELEPORT, TrafficTally, entropy_bits
from webnav.errors import ProtocolError
from webnav.session import SessionRecorder, follow, open_session


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
        assert tally.link_visits == {("A", "B"): 1, ("B", "C"): 1}

    def test_branch_after_back(self):
        descs, tally = record_all(
            [(TELEPORT, "A"), (FORWARD, "B"), (BACK, "A"), (FORWARD, "C")])
        (d,) = descs
        assert (d.size, d.depth) == (3, 1)
        assert tally.link_visits == {("A", "B"): 1, ("A", "C"): 1}

    def test_revisit_is_cache_hit(self):
        descs, tally = record_all(
            [(TELEPORT, "A"), (FORWARD, "B"), (BACK, "A"), (FORWARD, "B")])
        (d,) = descs
        assert (d.size, d.depth) == (2, 1)
        assert tally.page_visits["B"] == 1
        assert tally.link_visits == {("A", "B"): 1}

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
        assert tally.session_starts == {"A": 1, "C": 1}

    def test_clicks_counted_per_session(self):
        descs, _ = record_all(
            [(TELEPORT, "A"), (FORWARD, "B"), (BACK, "A"), (FORWARD, "B"),
             (TELEPORT, "C")])
        assert [d.clicks for d in descs] == [3, 0]

    def test_forward_before_teleport_rejected(self):
        tally = TrafficTally()
        rec = SessionRecorder("u", tally)
        with pytest.raises(ProtocolError):
            rec.record((FORWARD, "B"))

    def test_back_to_unvisited_rejected(self):
        tally = TrafficTally()
        rec = SessionRecorder("u", tally)
        rec.record((TELEPORT, "A"))
        with pytest.raises(ProtocolError):
            rec.record((BACK, "Z"))


class TestCacheKernel:
    def test_follow_tallies_first_visit_only(self):
        tally = TrafficTally()
        tree = open_session(tally, "u", "A")
        assert follow(tally, "u", tree, "A", "B") is True
        assert follow(tally, "u", tree, "A", "B") is False  # cache hit
        assert follow(tally, "u", tree, "B", "A") is False  # the root is cached too
        assert (tree.size, tree.max_depth) == (2, 1)
        assert tally.page_visits == {"A": 1, "B": 1}
        assert tally.link_visits == {("A", "B"): 1}
        assert tally.session_starts == {"A": 1}
        assert tally.per_user_visits == {"u": Counter({"A": 1, "B": 1})}

    def test_recorder_requests_first_visits_only(self):
        requests = []
        rec = SessionRecorder("u", TrafficTally(), requests)
        for outcome in [(TELEPORT, "A"), (FORWARD, "B"), (BACK, "A"),
                        (FORWARD, "B"), (FORWARD, "C"), (TELEPORT, "A")]:
            rec.record(outcome)
        assert requests == [(None, "A"), ("A", "B"), ("B", "C"), (None, "A")]


class TestEntropy:
    def test_single_page_zero(self):
        tally = TrafficTally()
        for _ in range(5):
            tally.touch_user("u", "A")
        assert entropy_bits(tally.per_user_visits["u"].values()) == 0.0

    def test_four_equal_pages_two_bits(self):
        tally = TrafficTally()
        for page in "ABCD":
            tally.touch_user("u", page)
        assert entropy_bits(tally.per_user_visits["u"].values()) == pytest.approx(2.0)

    def test_three_one_split(self):
        # -0.75 log2 0.75 - 0.25 log2 0.25, evaluated directly
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert entropy_bits([3, 1]) == pytest.approx(expected)
        assert entropy_bits([3, 1]) == pytest.approx(0.8113, abs=1e-4)

    def test_unknown_user_rejected(self):
        with pytest.raises(KeyError):
            entropy_bits(TrafficTally().per_user_visits["ghost"].values())

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


def replay(ops, user="u", tally=None):
    """Interpret (kind, node) ops as a walk, inventing legal back targets."""
    tally = tally if tally is not None else TrafficTally()
    rec = SessionRecorder(user, tally)
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
        assert sum(tally.page_visits.values()) == sum(d.size for d in descs)
        assert sum(tally.link_visits.values()) == sum(d.size - 1 for d in descs)
        assert tally.total_sessions() == len(descs)

    @given(session_strategy)
    @settings(max_examples=400, deadline=None)
    def test_tree_shape_relations(self, ops):
        descs, _ = replay(ops)
        for d in descs:
            assert d.depth <= d.size - 1
            assert d.size >= 1


class TestTallyMerge:
    @staticmethod
    def random_tally(rng_ops):
        tally = TrafficTally()
        replay(rng_ops, tally=tally)
        return tally

    def as_tuple(self, tally):
        return (dict(tally.page_visits), dict(tally.link_visits),
                dict(tally.session_starts),
                {u: dict(c) for u, c in tally.per_user_visits.items()})

    @given(session_strategy, session_strategy)
    @settings(max_examples=200, deadline=None)
    def test_commutative(self, ops_a, ops_b):
        _, a1 = replay(ops_a, user="a")
        _, b1 = replay(ops_b, user="b")
        _, a2 = replay(ops_a, user="a")
        _, b2 = replay(ops_b, user="b")
        assert self.as_tuple(a1.merge(b1)) == self.as_tuple(b2.merge(a2))

    @given(session_strategy, session_strategy, session_strategy)
    @settings(max_examples=150, deadline=None)
    def test_associative(self, ops_a, ops_b, ops_c):
        def fresh():
            _, a = replay(ops_a, user="a")
            _, b = replay(ops_b, user="b")
            _, c = replay(ops_c, user="c")
            return a, b, c

        a, b, c = fresh()
        left = a.merge(b).merge(c)
        a2, b2, c2 = fresh()
        right = a2.merge(b2.merge(c2))
        assert self.as_tuple(left) == self.as_tuple(right)

    def test_merge_sums_shared_users(self):
        a, b = TrafficTally(), TrafficTally()
        a.touch_user("u", "X")
        b.touch_user("u", "X")
        b.touch_user("u", "Y")
        a.merge(b)
        assert a.per_user_visits["u"] == Counter({"X": 2, "Y": 1})
