from collections import Counter

import pytest

from webnav import (ModelParams, SimConfig, TrafficTally, descriptors_from_logs,
                    entropy_bits, generate_scale_free, parse_log, run_ingest,
                    sessionize, simulate)
from webnav.ingest import LogRecord, ParseStats, Sessionizer


def records(*rows):
    return [LogRecord(float(t), u, r, x) for t, u, r, x in rows]


def run_sessionize(recs, timeout=1800):
    tally = TrafficTally()
    descs = list(sessionize(recs, timeout, tally))
    return descs, tally


class TestParseLog:
    def test_basic_line(self):
        lines = ["1204700000\tu1\t-\thttp://a.example/x\n"]
        (rec,) = parse_log(lines)
        assert rec == LogRecord(1204700000.0, "u1", None, "http://a.example/x")

    def test_strip_query(self):
        lines = ["5\tu\thttp://a/ref?k=2\thttp://a.example/x?sid=9\n"]
        (rec,) = parse_log(lines, strip_query=True)
        assert rec.target == "http://a.example/x"
        assert rec.referrer == "http://a/ref"

    def test_wrong_field_count_dropped_and_counted(self):
        stats = ParseStats()
        out = list(parse_log(["1\tu\tx\n", "2\tu\t-\ty\n"], stats=stats))
        assert len(out) == 1
        assert stats.skipped == 1
        assert stats.parsed == 1

    def test_bad_timestamp_dropped(self):
        stats = ParseStats()
        # non-finite times would make a session that never expires
        stamps = ["soon", "nan", "NaN", "inf", "-inf", "1e400", "-1"]
        lines = [f"{ts}\tu\t-\tx\n" for ts in stamps]
        assert list(parse_log(lines, stats=stats)) == []
        assert stats.skipped == len(stamps)
        assert stats.parsed == 0

    def test_extension_allowlist(self):
        stats = ParseStats()
        lines = [
            "1\tu\t-\thttp://a/page.html\n",
            "2\tu\t-\thttp://a/style.css\n",
            "3\tu\t-\thttp://a/plain\n",
        ]
        out = list(parse_log(lines, page_extensions={"html", "htm"}, stats=stats))
        assert [r.target for r in out] == ["http://a/page.html", "http://a/plain"]
        assert stats.filtered == 1

    def test_empty_referrer_markers(self):
        lines = ["1\tu\t-\tx\n", "2\tu\t\ty\n"]
        out = list(parse_log(lines))
        assert [r.referrer for r in out] == [None, None]


class TestSessionize:
    def test_branch_at_root(self):
        descs, _ = run_sessionize(records(
            (0, "u", None, "A"), (1, "u", "A", "B"), (2, "u", "A", "C")))
        (d,) = descs
        assert (d.size, d.depth) == (3, 1)

    def test_timeout_splits_sessions(self):
        descs, _ = run_sessionize(records(
            (0, "u", None, "A"), (1900, "u", "A", "B")))
        assert sorted((d.size, d.depth) for d in descs) == [(1, 0), (1, 0)]
        assert {d.root for d in descs} == {"A", "B"}

    def test_exactly_at_timeout_still_attaches(self):
        descs, _ = run_sessionize(records(
            (0, "u", None, "A"), (1800, "u", "A", "B")))
        (d,) = descs
        assert (d.size, d.depth) == (2, 1)

    def test_interleaved_sessions_one_user(self):
        descs, _ = run_sessionize(records(
            (0, "u", None, "A"), (1, "u", None, "X"),
            (2, "u", "A", "B"), (3, "u", "X", "Y")))
        assert sorted((d.root, d.size, d.depth) for d in descs) == [
            ("A", 2, 1), ("X", 2, 1)]

    def test_unknown_referrer_roots_at_target(self):
        descs, tally = run_sessionize(records((0, "u", "never-seen", "B")))
        (d,) = descs
        assert (d.root, d.size) == ("B", 1)
        assert tally.session_starts == {"B": 1}

    def test_most_recent_request_wins_across_sessions(self):
        descs, _ = run_sessionize(records(
            (0, "u", None, "A"), (10, "u", None, "B"),
            (20, "u", "B", "X"),   # X requested in session B
            (30, "u", "A", "X"),   # X requested again, now in session A
            (40, "u", "X", "Y")))  # attaches where X was most recent: A
        assert sorted((d.root, d.size) for d in descs) == [("A", 3), ("B", 2)]

    def test_tie_breaks_to_most_recent_session(self):
        descs, _ = run_sessionize(records(
            (0, "u", None, "A"), (1, "u", None, "B"),
            (2, "u", "A", "X"), (2, "u", "B", "X"),  # X at t=2 in both
            (3, "u", "X", "Y")))
        assert sorted((d.root, d.size) for d in descs) == [("A", 2), ("B", 3)]

    def test_rerequest_updates_recency_without_new_node(self):
        descs, tally = run_sessionize(records(
            (0, "u", None, "A"), (1, "u", "A", "B"),
            (1600, "u", "A", "B"),    # cache-consistent re-request
            (3200, "u", "B", "C")))   # only alive because of the re-request
        (d,) = descs
        assert (d.size, d.depth) == (3, 2)
        assert tally.page_visits["B"] == 1

    def test_expired_session_cannot_take_clicks(self):
        descs, _ = run_sessionize(records(
            (0, "u", None, "A"),
            (100, "u", None, "B"),
            (2500, "u", "B", "C"),    # B's session idle 2400s: expired
            (2501, "u", "C", "D")))
        assert sorted((d.root, d.size) for d in descs) == [
            ("A", 1), ("B", 1), ("C", 2)]

    def test_users_are_independent(self):
        base = records(
            (0, "u1", None, "A"), (1, "u1", "A", "B"),
            (0, "u2", None, "A"), (1, "u2", "A", "C"))
        shuffled = [base[2], base[0], base[3], base[1]]
        a = sorted((d.user, d.root, d.size, d.depth)
                   for d in run_sessionize(base)[0])
        b = sorted((d.user, d.root, d.size, d.depth)
                   for d in run_sessionize(shuffled)[0])
        assert a == b

    def test_non_monotone_timestamps_accepted(self):
        # interleaved collection can deliver a user's requests out of order
        recs = records(
            (100, "u", None, "A"), (50, "u", "A", "B"), (120, "u", "B", "C"))
        descs, _ = run_sessionize(recs)
        (d,) = descs
        assert d.size == 3
        worker = Sessionizer()
        for rec in recs:
            list(worker.feed(rec))
        assert worker.out_of_order == 1

    def test_out_of_order_is_per_user(self):
        worker = Sessionizer()
        for rec in records((100, "u", None, "A"), (50, "v", None, "A"),
                           (100, "u", "A", "B"), (60, "v", "A", "B"),
                           (40, "v", "B", "C"), (45, "v", "C", "D")):
            list(worker.feed(rec))
        # u's repeated 100 is no regression; v's 40 after 60 is, 45 after 40 not
        assert worker.out_of_order == 1

    def test_ingest_manifest_counts_out_of_order(self, tmp_path):
        log = tmp_path / "requests.log"
        log.write_text("100\tu\t-\tA\n50\tu\tA\tB\n120\tu\tB\tC\n")
        manifest = run_ingest(log, tmp_path / "out")
        assert manifest["records_out_of_order"] == "1"
        assert manifest["records_skipped"] == "0"

    def test_every_record_lands_in_exactly_one_session(self):
        recs = records(
            (0, "u", None, "A"), (1, "u", "A", "B"), (2, "u", "Q", "C"),
            (3, "u", "C", "D"), (4, "u", None, "E"))
        descs, _ = run_sessionize(recs)
        # every record is either a session root or a click in one session
        assert sum(d.clicks for d in descs) + len(descs) == len(recs)


class TestDescriptorsFromLogs:
    def test_single_record(self):
        descs, tally = descriptors_from_logs(records((0, "u", None, "A")))
        assert [(d.size, d.depth) for d in descs] == [(1, 0)]
        assert entropy_bits(tally.per_user_visits["u"].values()) == 0.0

    def test_mean_sessions_per_user(self):
        recs = records(*[(i, f"u{i % 3}", None, f"p{i}") for i in range(12)])
        descs, _ = descriptors_from_logs(recs)
        per_user = Counter(d.user for d in descs)
        assert sum(per_user.values()) / len(per_user) == 4.0


class TestRoundTrip:
    @pytest.mark.parametrize("model", ["pagerank", "bookrank", "abc"])
    def test_export_reingests_identically(self, model):
        graph = generate_scale_free(2000, 3, 2.1, seed=11)
        config = SimConfig(model=model, n_agents=50, sessions=50, seed=77,
                           workers=1, export_log=True, params=ModelParams())
        sim = simulate(config, graph=graph)
        recs = list(parse_log(iter(sim.log_lines)))
        descs, tally = descriptors_from_logs(recs)

        assert Counter(d.size for d in descs) == Counter(d.size for d in sim.descriptors)
        assert Counter(d.depth for d in descs) == Counter(d.depth for d in sim.descriptors)
        assert tally.page_visits == Counter(
            {str(k): v for k, v in sim.tally.page_visits.items()})
        assert tally.link_visits == Counter(
            {(str(a), str(b)): v for (a, b), v in sim.tally.link_visits.items()})
        assert tally.session_starts == Counter(
            {str(k): v for k, v in sim.tally.session_starts.items()})
