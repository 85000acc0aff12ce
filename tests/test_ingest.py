import csv
import heapq
import math
import random
import re
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from tallies import str_columns, tally_counts
from webnav import (ModelParams, SimConfig, TrafficTally, generate_scale_free,
                    parse_log, run_ingest, sessionize, simulate)
from webnav.errors import ConfigurationError, EmptyDataError, ProtocolError
from webnav.ingest import SKIP_REASONS, LogRecord, ParseStats, Sessionizer, _LiveSession
from webnav.session import ArrayTally, SessionDescriptor, follow, id_order, open_session


def records(*rows):
    return [LogRecord(float(t), u, r, x) for t, u, r, x in rows]


def run_sessionize(recs, timeout=1800):
    worker = Sessionizer(timeout)
    descs = [d for rec in recs for d in worker.feed(rec)]
    return descs + worker.finish(), tally_counts(*worker.tallies.values())


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

    def test_target_that_strips_to_nothing_is_skipped(self):
        stats = ParseStats()
        assert list(parse_log(["0\tu\t-\t?page=1\n"], strip_query=True,
                              stats=stats)) == []
        assert stats.skipped_by_reason == {
            r: int(r == "empty_user_or_target") for r in SKIP_REASONS}

    def test_referrer_that_strips_to_nothing_is_missing(self):
        (rec,) = parse_log(["0\tu\t?x\tA\n"], strip_query=True)
        assert rec == LogRecord(0.0, "u", None, "A")

    def test_wrong_field_count_dropped_and_counted(self):
        stats = ParseStats()
        out = list(parse_log(["1\tu\tx\n", "2\tu\t-\ty\n"], stats=stats))
        assert len(out) == 1
        assert stats.skipped == 1
        assert stats.skipped_by_reason["field_count"] == 1
        assert stats.parsed == 1

    def test_bad_timestamp_dropped(self):
        stats = ParseStats()
        # non-finite times would make a session that never expires
        stamps = ["soon", "nan", "NaN", "inf", "-inf", "1e400", "-1"]
        lines = [f"{ts}\tu\t-\tx\n" for ts in stamps]
        assert list(parse_log(lines, stats=stats)) == []
        assert stats.skipped == len(stamps)
        assert stats.parsed == 0

    @pytest.mark.parametrize("line, reason", [
        ("1\tu\tx\n", "field_count"),
        ("1\tu\t-\tx\textra\n", "field_count"),
        ("soon\tu\t-\tx\n", "timestamp_not_number"),
        ("\tu\t-\tx\n", "timestamp_not_number"),
        ("nan\tu\t-\tx\n", "timestamp_non_finite"),
        ("-inf\tu\t-\tx\n", "timestamp_non_finite"),
        ("1e400\tu\t-\tx\n", "timestamp_non_finite"),
        ("-1\tu\t-\tx\n", "timestamp_negative"),
        ("1\t\t-\tx\n", "empty_user_or_target"),
        ("1\tu\t-\t\n", "empty_user_or_target"),
        ("1\tu\tx\t-\n", "empty_user_or_target"),
        ("4\tu\t-\t \n", "empty_user_or_target"),
        ("4\t \t-\tx\n", "empty_user_or_target"),
        ("4\t\x0b\x1c\t-\tx\n", "empty_user_or_target"),
        # how a file opened with errors="surrogateescape" reads byte 0xe9
        ("2\tu\t/a\t/b\udce9\n", "not_utf8"),
        ("\udcff\tu\n", "not_utf8"),
    ])
    def test_skip_counted_by_reason(self, line, reason):
        stats = ParseStats()
        assert list(parse_log(["0\tu\t-\tok\n", line], stats=stats)) == [
            LogRecord(0.0, "u", None, "ok")]
        assert stats.skipped_by_reason == {r: int(r == reason) for r in SKIP_REASONS}
        assert stats.skipped == 1

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

    def test_extension_read_from_the_path_before_the_query(self):
        stats = ParseStats()
        lines = [
            "1\tu\t-\t/a/page.html?id=3\n",
            "2\tu\t-\t/search/?q=a.b\n",
            "3\tu\t-\t/img/logo.png?v=2\n",
        ]
        out = list(parse_log(lines, page_extensions={"html"}, stats=stats))
        # the query is kept: only the filter reads the path alone
        assert [r.target for r in out] == ["/a/page.html?id=3", "/search/?q=a.b"]
        assert stats.filtered == 1

    def test_extension_read_from_the_path_before_the_fragment(self):
        stats = ParseStats()
        lines = [
            "1\tu\t-\t/a/page.html#top\n",
            "2\tu\t-\t/a/page#sec.png\n",
            "3\tu\t-\t/a/page.html#x?y.png\n",
            "4\tu\t-\t/img/logo.png#x\n",
        ]
        out = list(parse_log(lines, page_extensions={"html"}, stats=stats))
        assert [r.target for r in out] == [
            "/a/page.html#top", "/a/page#sec.png", "/a/page.html#x?y.png"]
        assert stats.filtered == 1

    def test_non_blank_fields_are_kept_as_written(self):
        lines = ["1\tu\t-\t/a\n", "2\t u\t-\t /a\n", "3\tu \t /a\t/b\n",
                 "4\tu\t-\t/caf\u00e9\n"]
        out = list(parse_log(lines))
        assert [(r.user, r.referrer, r.target) for r in out] == [
            ("u", None, "/a"), (" u", None, " /a"), ("u ", " /a", "/b"),
            ("u", None, "/caf\u00e9")]

    def test_equal_ids_share_one_str(self):
        # ids longer than one character: CPython caches one-character strs
        lines = ["1\tuser\t-\t/a\n", "2\tuser\t/a\t/b\n", "3\tuser\t/b\t/a\n"]
        out = list(parse_log(lines))
        assert [r.target for r in out] == ["/a", "/b", "/a"]
        assert out[1].referrer is out[0].target
        assert out[2].user is out[0].user
        assert out[2].target is out[0].target

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
        descs, (_, _, starts) = run_sessionize(records((0, "u", "never-seen", "B")))
        (d,) = descs
        assert (d.root, d.size) == ("B", 1)
        assert starts == {"B": 1}

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
        descs, (pages, _, _) = run_sessionize(records(
            (0, "u", None, "A"), (1, "u", "A", "B"),
            (1600, "u", "A", "B"),    # cache-consistent re-request
            (3200, "u", "B", "C")))   # only alive because of the re-request
        (d,) = descs
        assert (d.size, d.depth) == (3, 2)
        assert pages["B"] == 1

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

    def test_ingest_manifest_counts_skips_by_reason(self, tmp_path):
        log = tmp_path / "requests.log"
        log.write_text("1\tu\t-\tA\n2\tu\tA\n-3\tu\tA\tB\nnan\tu\tA\tB\n"
                       "4\tu\tA\t-\n5\t\tA\tB\n")
        manifest = run_ingest(log, tmp_path / "out")
        keys = list(manifest.values)
        at = keys.index("records_skipped")
        reason_keys = [f"records_skipped.{r}" for r in SKIP_REASONS]
        assert keys[at + 1:at + 1 + len(SKIP_REASONS)] == reason_keys
        counts = [int(manifest[k]) for k in reason_keys]
        assert counts == [0, 1, 0, 1, 1, 2]
        assert sum(counts) == int(manifest["records_skipped"]) == 5

    def test_string_keys_are_csv_quoted(self, tmp_path):
        log = tmp_path / "requests.log"
        log.write_text('0\tu\t-\t/a,b\n1\tu\t/a,b\t/say "hi"\n'
                       '2\tu\t/say "hi"\t/c\n')
        run_ingest(log, tmp_path / "out")
        out = tmp_path / "out"
        assert (out / "page_traffic.csv").read_bytes() == (
            b'page,count\n"/a,b",1\n/c,1\n"/say ""hi""",1\n')
        assert (out / "link_traffic.csv").read_bytes() == (
            b'src,dst,count\n"/a,b","/say ""hi""",1\n"/say ""hi""",/c,1\n')
        assert (out / "empty_referrer_traffic.csv").read_bytes() == (
            b'page,count\n"/a,b",1\n')

    def test_string_ids_in_sessions_csv_are_quoted(self, tmp_path):
        log = tmp_path / "requests.log"
        log.write_text('0\tu,1\t-\t/a,b\n1\tu,1\t/a,b\t/c\n'
                       '2\tv\t-\t/say "hi"\n')
        run_ingest(log, tmp_path / "out")
        assert (tmp_path / "out" / "sessions.csv").read_bytes() == (
            b'user_id,session_index,root,size,depth\n'
            b'"u,1",0,"/a,b",2,1\nv,0,"/say ""hi""",1,0\n')

    def test_one_vocabulary_writes_the_logs_exact_ids_in_id_order(self, tmp_path):
        # user 5 requests page 5, one url holds a comma and a quote, and the
        # decimal ids 9 < 10 < 007 come before a: each file must hold the
        # log's exact strings, rows in id_order, whatever column shares a
        # code with which
        log = tmp_path / "requests.log"
        log.write_text('0\t5\t-\t5\n1\t5\t5\t/x,"y"\n2\t9\t-\t10\n'
                       '3\t9\t10\t007\n4\t10\t-\ta\n5\ta\t-\t9\n6\t007\t-\t007\n')
        run_ingest(log, tmp_path / "out")

        def rows(name):
            with open(tmp_path / "out" / name, newline="", encoding="utf-8") as fh:
                return list(csv.reader(fh))[1:]

        assert rows("sessions.csv") == [
            ["5", "0", "5", "2", "1"], ["9", "0", "10", "2", "1"],
            ["10", "0", "a", "1", "0"], ["007", "0", "007", "1", "0"],
            ["a", "0", "9", "1", "0"]]
        assert rows("page_traffic.csv") == [
            ["5", "1"], ["9", "1"], ["10", "1"], ["007", "2"], ['/x,"y"', "1"],
            ["a", "1"]]
        assert rows("link_traffic.csv") == [["5", '/x,"y"', "1"], ["10", "007", "1"]]
        assert rows("empty_referrer_traffic.csv") == [
            ["5", "1"], ["9", "1"], ["10", "1"], ["007", "1"], ["a", "1"]]

    def test_regressed_record_does_not_age_its_session(self):
        # the regressed C must not pull the session's last activity below
        # 1000, or D (1400 s after it) would find the session expired
        recs = records((0, "u", None, "A"), (1000, "u", "A", "B"),
                       (500, "u", "A", "C"), (2400, "u", "B", "D"))
        descs, _ = run_sessionize(recs)
        assert [(d.root, d.size, d.depth) for d in descs] == [("A", 4, 2)]

    def test_bare_feed_assigns_and_returns_expired(self):
        worker = Sessionizer(timeout=100)
        assert worker.feed(LogRecord(0.0, "u", None, "A")) == []
        worker.feed(LogRecord(1.0, "u", "A", "B"))
        assert tally_counts(*worker.tallies.values())[1] == {("A", "B"): 1}
        expired = worker.feed(LogRecord(500.0, "u", None, "C"))
        assert [(d.root, d.size) for d in expired] == [("A", 2)]
        assert tally_counts(*worker.tallies.values())[2] == {"A": 1, "C": 1}

    def test_every_record_lands_in_exactly_one_session(self):
        recs = records(
            (0, "u", None, "A"), (1, "u", "A", "B"), (2, "u", "Q", "C"),
            (3, "u", "C", "D"), (4, "u", None, "E"))
        descs, _ = run_sessionize(recs)
        # every record is either a session root or a click in one session
        assert sum(d.clicks for d in descs) + len(descs) == len(recs)

    def test_sessionize_streams_the_sessionizers_descriptors(self):
        recs = records((0, "u", None, "A"), (1, "v", None, "A"),
                       (2, "u", "A", "B"), (3000, "u", "B", "C"),
                       (3001, "v", "A", "D"))
        assert list(sessionize(recs)) == run_sessionize(recs)[0]
        assert list(sessionize(recs, 5000)) == run_sessionize(recs, 5000)[0]

    @pytest.mark.parametrize("timeout", [math.nan, -5, -math.inf, "nan"])
    def test_rejects_nan_or_negative_timeout(self, timeout):
        with pytest.raises(ConfigurationError, match="timeout must be"):
            Sessionizer(timeout)
        with pytest.raises(ConfigurationError, match="timeout must be"):
            next(sessionize(records((0, "u", None, "A")), timeout))

    def test_zero_and_infinite_timeouts_are_kept(self):
        gap = records((0, "u", None, "A"), (5000, "u", "A", "B"))
        assert [d.size for d in run_sessionize(gap, 0)[0]] == [1, 1]
        assert [d.size for d in run_sessionize(gap, math.inf)[0]] == [2]


# log lines as bytes: four fields, each a value that passes or fails one
# check (blanks, NUL, bytes that are not UTF-8), or any fields of any bytes
log_line = st.one_of(
    st.tuples(st.sampled_from([b"0", b"17", b"2.5", b"-1", b"nan", b"1e400", b"x", b""]),
              st.sampled_from([b"u", b"v", b" u", b" ", b"", b"\x00", b"caf\xc3\xa9",
                               b"\xe9"]),
              st.sampled_from([b"-", b"", b" ", b"/a", b"/b", b"?q"]),
              st.sampled_from([b"/a", b"/b", b"/a.html", b"/b.png?x", b"?q", b"-", b" ",
                               b"\x00", b"\xe9", b"\xed\xa0\x80"])),
    st.lists(st.binary(max_size=8), max_size=6)).map(b"\t".join)
line_end = st.sampled_from([b"\n", b"\r\n", b"\r", b""])


class TestIngestOfAnyBytes:
    @given(st.lists(st.tuples(log_line, line_end), max_size=25), st.booleans(),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_every_line_is_counted_once(self, rows, strip_query, pages_only):
        data = b"".join(line + end for line, end in rows)
        # the text reader's universal newlines end a line at a lone \r too
        lines = sum(1 for piece in re.split(rb"\r\n|\r|\n", data) if piece)
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "requests.log"
            log.write_bytes(data)
            try:
                manifest = run_ingest(log, Path(tmp) / "out", strip_query=strip_query,
                                      page_extensions={"html"} if pages_only else None)
            except EmptyDataError as exc:  # nothing parsed
                skipped, filtered = map(int, re.search(
                    r"\((\d+) skipped, (\d+) filtered\)", str(exc)).groups())
                assert skipped + filtered == lines
                return
        counts = [int(manifest[key]) for key in (
            "records_parsed", "records_skipped", "records_filtered")]
        assert sum(counts) == lines
        assert int(manifest["records_skipped"]) == sum(
            int(manifest[f"records_skipped.{reason}"]) for reason in SKIP_REASONS)


class TestSessionizerRun:
    def test_empty_run_summary(self):
        summary = Sessionizer().run([]).summary()
        assert summary["total_sessions"] == summary["total_clicks"] == 0
        assert summary["total_page_visits"] == summary["total_link_visits"] == 0
        for key in ("mean_session_size", "mean_session_depth",
                    "mean_user_entropy"):
            assert math.isnan(summary[key]), key

    def test_single_record(self):
        result = Sessionizer().run(records((0, "u", None, "A")))
        assert [(d.size, d.depth) for d in result.descriptors] == [(1, 0)]
        assert result.entropies == [("u", 0.0, 1)]
        assert result.names == ["A", "u"]
        assert (result.tally.page_keys[0].tolist(), result.tally.page_visits.tolist()) == (
            [0], [1])

    def test_rerun_of_one_log_gives_an_equal_result(self):
        log = records((0, "u", None, "A"), (1, "u", "A", "B"), (2, "v", None, "A"))
        first, again = Sessionizer().run(log), Sessionizer().run(log)
        assert isinstance(first.tally, ArrayTally)
        assert first == again
        again.tally.link_visits[0] += 1
        assert first != again

    def test_second_run_raises(self):
        worker = Sessionizer()
        worker.run(records((0, "u", None, "A"), (1, "u", "A", "B")))
        with pytest.raises(ProtocolError, match="already fed"):
            worker.run(records((2, "v", None, "C")))

    def test_run_after_feed_raises(self):
        worker = Sessionizer()
        worker.feed(records((0, "u", None, "A"))[0])
        with pytest.raises(ProtocolError, match="already fed"):
            worker.run(records((1, "u", "A", "B")))

    @pytest.mark.parametrize("spent", [lambda worker: worker.run([]),
                                       lambda worker: worker.finish()],
                             ids=["after_empty_run", "after_bare_finish"])
    def test_run_on_a_finished_instance_raises(self, spent):
        # neither leaves a tally behind; the second run must still refuse
        worker = Sessionizer()
        spent(worker)
        with pytest.raises(ProtocolError, match="Sessionizer.run needs a fresh instance"):
            worker.run(records((0, "u", None, "A")))

    def test_re_requests_are_clicks(self):
        # a real log's re-requests of pages in the tree count as clicks,
        # so size s need not mean s - 1 clicks
        result = Sessionizer().run(records(
            (0, "u", None, "A"), (1, "u", "A", "B"), (2, "u", "A", "B"),
            (3, "u", "B", "A")))
        assert [(d.size, d.clicks) for d in result.descriptors] == [(2, 3)]
        assert result.summary()["total_link_visits"] == 1

    def test_mean_sessions_per_user(self):
        recs = records(*[(i, f"u{i % 3}", None, f"p{i}") for i in range(12)])
        result = Sessionizer().run(recs)
        per_user = Counter(d.user for d in result.descriptors)
        assert sum(per_user.values()) / len(per_user) == 4.0

    def test_bare_finish_closes_every_session(self):
        worker = Sessionizer()
        worker.feed(LogRecord(0.0, "u", None, "A"))
        worker.feed(LogRecord(1.0, "v", None, "B"))
        worker.finish()
        assert worker._users == {}
        assert worker.finish() == []

    def test_feed_after_finish_raises(self):
        # a second log's sessions of u would number from 0 again, beside
        # the first log's in tallies["u"]
        worker = Sessionizer()
        worker.feed(LogRecord(0.0, "u", None, "/a"))
        worker.finish()
        for user in ("u", "v"):
            with pytest.raises(ProtocolError, match="after finish"):
                worker.feed(LogRecord(10.0, user, None, "/b"))
        assert worker.finish() == []

    def test_ingest_files_independent_of_interleaving(self, tmp_path):
        # u's and v's first sessions expire mid-stream, in the order their
        # users' next records arrive; the files must not show that order
        head = "0\tu\t-\tA\n0\tv\t-\tA\n"
        tails = ["3000\tu\t-\tB\n3000\tv\t-\tB\n",
                 "3000\tv\t-\tB\n3000\tu\t-\tB\n"]
        outs = []
        for i, tail in enumerate(tails):
            log = tmp_path / f"requests{i}.log"
            log.write_text(head + tail)
            outs.append(tmp_path / f"out{i}")
            run_ingest(log, outs[-1])
        names = sorted(p.name for p in outs[0].iterdir()
                       if p.name != "run_manifest.txt")
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        rows = (outs[0] / "sessions.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:3] for r in rows] == [
            ["u", "0", "A"], ["u", "1", "B"], ["v", "0", "A"], ["v", "1", "B"]]


def session_rows(result) -> list:
    """(user, index, root, size, depth) of each session, in order, ids as strs.

    An ingested result's ids are read through its names. clicks is left
    out: the simulation also counts back clicks and cache hits, which the
    log does not hold.
    """
    def name(i):
        return str(i if result.names is None else result.names[i])

    return [(name(d.user), d.index, name(d.root), d.size, d.depth)
            for d in result.descriptors]


class TestRoundTrip:
    @pytest.mark.parametrize("model", ["pagerank", "bookrank", "abc"])
    def test_export_reingests_identically(self, model):
        graph = generate_scale_free(2000, 3, 2.1, seed=11)
        config = SimConfig(model=model, n_agents=50, sessions=50, seed=77,
                           workers=1, export_log=True, params=ModelParams())
        sim = simulate(config, graph=graph)
        recs = list(parse_log(iter(sim.log_lines)))
        ingested = Sessionizer().run(recs)

        # in order: both pipelines write ids in one order
        assert session_rows(ingested) == session_rows(sim)
        assert str_columns(ingested.tally, ingested.names) == str_columns(sim.tally)

    def test_every_column_is_int64(self):
        graph = generate_scale_free(2000, 3, 2.1, seed=11)
        sim = simulate(SimConfig(model="bookrank", n_agents=5, sessions=30, seed=3,
                                 export_log=True), graph=graph)
        ingested = Sessionizer().run(parse_log(sim.log_lines))
        for result in (sim, ingested):
            columns = [*result.descriptors.columns,
                       *(c for keys, counts in result.tally.columns()
                         for c in (*keys, counts))]
            assert len(columns) == 6 + 7
            for column in columns:
                assert isinstance(column, np.ndarray) and column.dtype == np.int64
        assert sim.names is None
        # the codes index the vocabulary, which is in id_order
        assert ingested.names == id_order(ingested.names)
        assert int(ingested.descriptors.user.max()) < len(ingested.names)

    def test_mean_user_entropy_same_as_simulated(self):
        # the README example: the rows come in the simulation's user order
        # (a plain sum in string order of users gave 7.830937896917095
        # here, against ...094 in integer order; the mean is an fsum)
        graph = generate_scale_free(5_000, m=3, gamma=2.1, seed=1)
        sim = simulate(SimConfig(model="bookrank", n_agents=20, sessions=100,
                                 seed=7, export_log=True), graph=graph)
        ingested = Sessionizer().run(parse_log(sim.log_lines))
        assert ingested.entropies == [(str(u), s, n) for u, s, n in sim.entropies]
        assert (ingested.summary()["mean_user_entropy"]
                == sim.summary()["mean_user_entropy"])


@pytest.fixture(scope="module")
def roundtrip_graph():
    return generate_scale_free(3000, 3, 2.1, seed=11)


class TestRoundTripProperty:
    # 13 users: "10" sorts before "2" as a string, so a string order of
    # users would not be the simulation's. Export stamps each user's requests 1 s apart, so
    # a 60 s timeout expires most sessions mid-stream, for every model.
    @pytest.mark.parametrize("model", ["pagerank", "bookrank", "abc"])
    # each example simulates 13 x 400 sessions: report a failing seed as
    # found, without minutes of shrinking
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=5, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_interleaved_export_reingests_exactly(self, roundtrip_graph, model, seed):
        config = SimConfig(model=model, n_agents=13, sessions=400, seed=seed,
                           workers=1, export_log=True)
        sim = simulate(config, graph=roundtrip_graph)
        # users interleave as in a server log; the sort is stable per user
        lines = sorted(sim.log_lines, key=lambda line: float(line.split("\t", 1)[0]))
        ing = Sessionizer(timeout=60).run(parse_log(lines))

        # in order: both pipelines write ids in one order
        assert session_rows(ing) == session_rows(sim)
        assert ing.entropies == [(str(u), s, n) for u, s, n in sim.entropies]
        assert str_columns(ing.tally, ing.names) == str_columns(sim.tally)


@dataclass
class _ReferenceUserState:
    """The reference's per-user state: live sessions found through their sids."""

    tally: TrafficTally
    last_time: float = -math.inf
    next_sid: int = 0
    sessions: dict = field(default_factory=dict)    # sid -> _LiveSession
    url_index: dict = field(default_factory=dict)   # url -> {sid: time}
    expiry_heap: list = field(default_factory=list)  # (time, sid)
    closed: int = 0


class _ReferenceSessionizer:
    """The Sessionizer before url_index kept (time, sid) order: every
    lookup scans all sessions that requested the referrer for the largest
    (request time, sid) and prunes dead entries on the way.

    keeps_newest_activity = False restores the rule that let a regressed
    record move its session's last activity backwards.
    """

    keeps_newest_activity = True

    def __init__(self, timeout):
        self.timeout = float(timeout)
        self.tallies = {}
        self.out_of_order = 0
        self._users = {}

    def feed(self, record):
        state = self._users.get(record.user)
        if state is None:
            state = self._users[record.user] = _ReferenceUserState(
                self.tallies.setdefault(record.user, TrafficTally()))
        if record.timestamp < state.last_time:
            self.out_of_order += 1
        state.last_time = record.timestamp
        yield from self._expire(record.user, state, record.timestamp)
        self._assign(state, record)

    def finish(self):
        for user in sorted(self._users):
            state = self._users[user]
            for sid in sorted(state.sessions):
                yield self._close(user, state, state.sessions[sid])
            state.sessions.clear()
            state.url_index.clear()
        self._users.clear()

    def _expire(self, user, state, now):
        deadline = now - self.timeout
        heap = state.expiry_heap
        while heap and heap[0][0] < deadline:
            t, sid = heapq.heappop(heap)
            sess = state.sessions.get(sid)
            if sess is None:
                continue
            if sess.last_activity < deadline:
                yield self._close(user, state, sess)
                del state.sessions[sid]
            else:
                heapq.heappush(heap, (sess.last_activity, sid))

    def _close(self, user, state, sess):
        index = state.url_index
        for url in sess.tree.depth:
            per_url = index.get(url)
            if per_url is not None:
                per_url.pop(sess.sid, None)
                if not per_url:
                    del index[url]
        desc = SessionDescriptor(user, state.closed, sess.tree.root,
                                 sess.tree.size, sess.tree.max_depth, sess.tree.clicks)
        state.closed += 1
        return desc

    def _assign(self, state, record):
        t = record.timestamp
        target = record.target
        sess = None
        if record.referrer is not None:
            sess = self._find_by_referrer(state, record.referrer, t)
        if sess is None:
            sid = state.next_sid
            state.next_sid += 1
            sess = _LiveSession(sid, open_session(state.tally, target), t)
            state.sessions[sid] = sess
            heapq.heappush(state.expiry_heap, (t, sid))
        else:
            sess.tree.clicks += 1
            follow(state.tally, sess.tree, record.referrer, target)
            if t > sess.last_activity or not self.keeps_newest_activity:
                sess.last_activity = t
        state.url_index.setdefault(target, {})[sess.sid] = t

    def _find_by_referrer(self, state, referrer, now):
        per_url = state.url_index.get(referrer)
        if not per_url:
            return None
        deadline = now - self.timeout
        best = None
        best_key = None
        dead = []
        for sid, t in per_url.items():
            sess = state.sessions.get(sid)
            if sess is None or sess.last_activity < deadline:
                dead.append(sid)
                continue
            key = (t, sid)
            if best_key is None or key > best_key:
                best, best_key = sess, key
        for sid in dead:
            del per_url[sid]
        if not per_url:
            del state.url_index[referrer]
        return best


class _UnfixedReferenceSessionizer(_ReferenceSessionizer):
    keeps_newest_activity = False


TIMEOUT = 100.0
# time steps between one user's records: ties (0), gaps that land exactly
# on the expiry boundary (100) or just past it (101), and regressions
FORWARD_STEPS = [0, 0, 0, 1, 50, 99, 100, 101, 250]
REGRESSED_STEPS = [-1, -60, -150]
PAGES = "ABC"
# few pages, mostly known referrers: sessions often share a url, which is
# what the tie order and the expiry of stale entries decide
REFERRERS = [None, *PAGES, *PAGES, "unseen"]


@st.composite
def request_logs(draw, regressions=True):
    """A log of two users over three pages; times advance per user."""
    steps = FORWARD_STEPS + (REGRESSED_STEPS if regressions else [])
    rows = draw(st.lists(st.tuples(
        st.sampled_from("uv"), st.sampled_from(steps),
        st.sampled_from(REFERRERS), st.sampled_from(PAGES)), max_size=60))
    clock = {}
    log = []
    for user, step, referrer, target in rows:
        clock[user] = clock.get(user, 1000.0) + step
        log.append(LogRecord(clock[user], user, referrer, target))
    return log


def mix_users(log, rng):
    """log with its users' records shuffled together; each user's keep their order."""
    order = [rec.user for rec in log]
    rng.shuffle(order)
    queues = {}
    for rec in log:
        queues.setdefault(rec.user, []).append(rec)
    for queue in queues.values():
        queue.reverse()
    return [queues[user].pop() for user in order]


def outputs(worker_type, log):
    worker = worker_type(TIMEOUT)
    descs = []
    for rec in log:
        descs.extend(worker.feed(rec))
    descs.extend(worker.finish())
    # each user's requests in request order: what traffic and entropy count
    requests = {user: (tally.ref, tally.dst) for user, tally in worker.tallies.items()}
    return descs, requests, worker.out_of_order


class TestSessionizerMatchesReference:
    @given(request_logs())
    @settings(max_examples=600, deadline=None)
    def test_same_outputs(self, log):
        assert outputs(Sessionizer, log) == outputs(_ReferenceSessionizer, log)

    @given(request_logs(regressions=False))
    @settings(max_examples=300, deadline=None)
    def test_same_outputs_as_unfixed_reference_without_regressions(self, log):
        assert outputs(Sessionizer, log) == outputs(_UnfixedReferenceSessionizer, log)

    def test_tie_won_by_older_session(self):
        # X is requested at t=2 in session 1, then at t=2 in session 0: the
        # later write must not outrank session 1 on the tie
        log = records((0, "u", None, "A"), (1, "u", None, "B"),
                      (2, "u", "B", "X"), (2, "u", "A", "X"), (3, "u", "X", "Y"))
        got = outputs(Sessionizer, log)
        assert got == outputs(_ReferenceSessionizer, log)
        assert sorted((d.root, d.size) for d in got[0]) == [("A", 2), ("B", 3)]

    @given(request_logs(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_user_interleaving_changes_no_output(self, log, rng):
        mixed = mix_users(log, rng)
        a, b = outputs(Sessionizer, log), outputs(Sessionizer, mixed)
        # expiry can interleave users' descriptors differently; each
        # (user, index) descriptor itself is the same
        assert sorted(a[0]) == sorted(b[0])
        assert a[1:] == b[1:]

    @given(request_logs(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_user_interleaving_changes_no_run_result(self, log, rng):
        mixed = mix_users(log, rng)
        a, b = Sessionizer(TIMEOUT), Sessionizer(TIMEOUT)
        ra, rb = a.run(log), b.run(mixed)
        assert ra.descriptors == rb.descriptors  # list order included
        assert ra.entropies == rb.entropies
        assert ra.tally == rb.tally
        assert a.out_of_order == b.out_of_order


class TestLiveSessionInvariants:
    # _finish closes what the heaps hold, so each live session must have
    # exactly one heap entry, and the url index may name no other session
    @given(request_logs())
    @settings(max_examples=300, deadline=None)
    def test_heaps_hold_each_live_session_once(self, log):
        worker = Sessionizer(TIMEOUT)
        for rec in log:
            worker.feed(rec)
            heaps = 0
            for state in worker._users.values():
                held = [sess for _, _, sess in state.expiry_heap]
                assert len(set(held)) == len(held)
                heaps += len(held)
                assert {sess for entries in state.url_index.values()
                        for sess in entries[1::2]} <= set(held)
            assert heaps == worker._live
        worker.finish()
        assert worker._live == 0


def picks(worker_type, log, timeout):
    """The sid each record's referrer lookup found (None: no live session had it)."""
    picked = []

    class Recording(worker_type):
        def _find_by_referrer(self, *args):
            sess = super()._find_by_referrer(*args)
            picked.append(None if sess is None else sess.sid)
            return sess

    worker = Recording(timeout)
    for rec in log:
        list(worker.feed(rec))
    list(worker.finish())
    return picked


def random_log(seed, n=500):
    """Three users over five pages: many live sessions share a url, and
    one user's times tie, gap past the timeout and regress."""
    rng = random.Random(seed)
    pages = "ABCDE"
    clock = {}
    log = []
    for _ in range(n):
        user = rng.choice("uvw")
        clock[user] = clock.get(user, 1000.0) + rng.choice(FORWARD_STEPS + REGRESSED_STEPS)
        referrer = rng.choice([None, None, *pages, *pages, *pages, "unseen"])
        log.append(LogRecord(clock[user], user, referrer, rng.choice(pages)))
    return log


class TestUrlIndexPicks:
    # the url index must find, for every referrer, the session the scan
    # of the reference finds; with no timeout, no session expires, so the
    # unfixed reference's rule for regressed records cannot matter
    @pytest.mark.parametrize("reference, timeout", [
        (_ReferenceSessionizer, TIMEOUT), (_UnfixedReferenceSessionizer, math.inf)],
        ids=["reference", "unfixed_reference"])
    @pytest.mark.parametrize("seed", range(12))
    def test_same_session_picked(self, reference, timeout, seed):
        log = random_log(seed)
        got = picks(Sessionizer, log, timeout)
        assert got == picks(reference, log, timeout)
        assert sum(sid is not None for sid in got) > len(log) // 4

    def test_time_equal_to_a_sid_is_not_taken_for_it(self):
        # session 3's pair for X holds time 5.0, and 5.0 == 5: session 5's
        # write finds no pair of its own there, and drops nothing
        log = records(*[(0, "u", None, f"R{i}") for i in range(6)],
                      (4, "u", "R1", "X"), (5, "u", "R3", "X"), (6, "u", "R5", "X"),
                      (7, "u", "X", "Y"))
        worker = Sessionizer(TIMEOUT)
        for rec in log:
            worker.feed(rec)
        entries = worker._users["u"].url_index["X"]
        assert [(t, sess.sid) for t, sess in zip(entries[::2], entries[1::2])] == [
            (4.0, 1), (5.0, 3), (6.0, 5)]
        assert outputs(Sessionizer, log) == outputs(_ReferenceSessionizer, log)


class TestLiveSessionsPeak:
    def test_two_overlapping_sessions(self):
        worker = Sessionizer()
        worker.run(records((0, "u", None, "A"), (10, "u", None, "B"),
                           (20, "u", "A", "C"), (5000, "u", None, "D")))
        assert worker.live_sessions_peak == 2

    def test_sessions_one_after_another(self):
        worker = Sessionizer()
        worker.run(records((0, "u", None, "A"), (5000, "u", None, "B"),
                           (10000, "u", "B", "C")))
        assert worker.live_sessions_peak == 1

    def test_counted_over_all_users(self):
        worker = Sessionizer()
        for rec in records((0, "u", None, "A"), (1, "v", None, "A"),
                           (5000, "u", None, "B")):
            worker.feed(rec)
        # v's session is open until a record of v or finish() closes it
        assert worker.live_sessions_peak == 2
        worker.finish()
        assert worker.live_sessions_peak == 2

    def test_in_the_ingest_manifest(self, tmp_path):
        log = tmp_path / "requests.log"
        log.write_text("0\tu\t-\tA\n10\tu\t-\tB\n20\tu\tA\tC\n5000\tu\t-\tD\n")
        manifest = run_ingest(log, tmp_path / "out")
        assert manifest["live_sessions_peak"] == "2"


class TestSessionizerMemory:
    # traced bytes of Sessionizer.run per line of a user-interleaved
    # bookrank export (13,645 lines): 255 B with a {sid: time} dict per
    # indexed url, a descriptor tuple per closed session and a float per
    # line; 166 B with flat pairs, session columns and shared timestamps
    BYTES_PER_LINE = 220

    def test_run_peak_per_line(self):
        graph = generate_scale_free(2000, 3, 2.1, seed=1)
        sim = simulate(SimConfig(model="bookrank", n_agents=8, sessions=300, seed=7,
                                 workers=1, export_log=True), graph=graph)
        lines = sorted(sim.log_lines, key=lambda line: float(line.split("\t", 1)[0]))
        tracemalloc.start()
        try:
            result = Sessionizer().run(parse_log(lines))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.descriptors) == 8 * 300
        assert peak / len(lines) < self.BYTES_PER_LINE, (peak, len(lines))
