"""Logical session reconstruction from HTTP request logs.

Requests with an empty referrer open a new session tree; every other
request is attached to the live session in which its referrer URL was most
recently requested, falling back to a new tree when no live session knows
the referrer. A session expires once it has gone longer than the timeout
without receiving a request. Processing is per-user independent, so the
result does not depend on how users' records interleave in the input.

Which requests reach the tallies is decided by the browser-cache rule in
session.py (open_session and follow), the same calls the simulator's
recorder makes, so an exported run re-ingests to identical tallies.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError, ProtocolError, not_utf8
from .session import (ArrayTally, RunResult, SessionDescriptor, SessionTable,
                      SessionTree, TrafficTally, entropy_row, follow, id_order,
                      open_session)

DEFAULT_TIMEOUT = 1800.0  # seconds of inactivity that end a session
EMPTY_REFERRER = "-"
LOG_FIELD_COUNT = 4  # timestamp, user, referrer, target


class LogRecord(NamedTuple):
    timestamp: float
    user: str
    referrer: str | None
    target: str


# Why parse_log skipped a line, in the order its checks run.
SKIP_REASONS = ("not_utf8", "field_count", "timestamp_not_number",
                "timestamp_non_finite", "timestamp_negative",
                "empty_user_or_target")


@dataclass
class ParseStats:
    parsed: int = 0
    filtered: int = 0   # dropped by the extension allowlist
    skipped_by_reason: dict = field(
        default_factory=lambda: dict.fromkeys(SKIP_REASONS, 0))

    @property
    def skipped(self) -> int:
        """Malformed lines: the sum over SKIP_REASONS."""
        return sum(self.skipped_by_reason.values())


def _strip_query(url: str) -> str:
    cut = url.find("?")
    return url if cut < 0 else url[:cut]


def _page_like(url: str, extensions: frozenset) -> bool:
    # the extension is the leaf's of the path, the part before the first '?'
    # or '#': a query or a fragment may hold dots and slashes
    path = url.split("?", 1)[0].split("#", 1)[0]
    leaf = path.rsplit("/", 1)[-1]
    dot = leaf.rfind(".")
    if dot <= 0:
        return True  # extensionless paths count as pages
    return leaf[dot + 1:].lower() in extensions


def parse_log(lines: Iterable[str], *, strip_query: bool = False,
              page_extensions=None, stats: ParseStats | None = None) -> Iterator[LogRecord]:
    """Parse TSV request-log lines into LogRecords, in input order.

    Each line holds timestamp, user id, referrer, target separated by
    tabs; '-' (or an empty field) marks a missing referrer. Malformed
    lines, including non-finite or negative timestamps and a user or
    target that is blank (whitespace only), are skipped and counted in
    stats, by reason (SKIP_REASONS); so is a line holding bytes that are
    not UTF-8, which a file opened with errors="surrogateescape" passes
    on as lone surrogates. Every other field is kept exactly as written,
    so " u" is not the user "u". With strip_query,
    everything from '?' on is removed from both URLs before they are
    checked: a target that strips to nothing is skipped, and a referrer
    that strips to nothing is missing. With page_extensions, records
    whose target path (before any '?' or '#') ends in a file extension
    outside the set are dropped. The records share one str object per
    distinct user or URL, and consecutive records whose timestamp fields
    are equal share one float.
    """
    if stats is None:
        stats = ParseStats()
    ids = {}  # each distinct user or URL once, shared by every record naming it
    exts = frozenset(e.lower().lstrip(".") for e in page_extensions) if page_extensions else None
    skipped = stats.skipped_by_reason
    last_raw = None
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        if not line.isascii() and not_utf8(line):  # no call for plain lines
            skipped["not_utf8"] += 1
            continue
        parts = line.split("\t")
        if len(parts) != LOG_FIELD_COUNT:
            skipped["field_count"] += 1
            continue
        ts_raw, user, referrer, target = parts
        if ts_raw != last_raw:  # a run of equal stamps shares one float
            try:
                ts = float(ts_raw)
            except ValueError:
                skipped["timestamp_not_number"] += 1
                continue
            last_raw = ts_raw
        if strip_query:
            referrer = _strip_query(referrer)
            target = _strip_query(target)
        if (not math.isfinite(ts) or ts < 0 or not user or user.isspace()
                or not target or target.isspace() or target == EMPTY_REFERRER):
            skipped[_invalid_field(ts)] += 1
            continue
        ref = None if referrer in ("", EMPTY_REFERRER) else referrer
        if exts is not None and not _page_like(target, exts):
            stats.filtered += 1
            continue
        stats.parsed += 1
        if ref is not None:
            ref = ids.setdefault(ref, ref)
        yield LogRecord(ts, ids.setdefault(user, user), ref,
                        ids.setdefault(target, target))


def _invalid_field(ts: float) -> str:
    """Skip reason of a line whose fields split and whose timestamp parsed."""
    if not math.isfinite(ts):
        return "timestamp_non_finite"
    return "timestamp_negative" if ts < 0 else "empty_user_or_target"


class _LiveSession:
    """A session tree under construction plus its recency bookkeeping."""

    __slots__ = ("sid", "tree", "last_activity")

    def __init__(self, sid: int, tree: SessionTree, t: float):
        self.sid = sid
        self.tree = tree
        self.last_activity = t


@dataclass
class _UserState:
    tally: TrafficTally                             # the user's tallied requests
    last_time: float = -math.inf                    # previous record's timestamp
    next_sid: int = 0
    # url -> [t0, session0, t1, session1, ...]: each live session that
    # requested the url, with its last request time, as flat pairs in
    # (time, sid) order
    url_index: dict = field(default_factory=dict)
    # (time, sid, session), one entry per live session, keyed at or below
    # its last activity: _finish closes the sessions it holds
    expiry_heap: list = field(default_factory=list)
    closed: int = 0


class Sessionizer:
    """Streaming session reconstruction.

    Each user's live sessions are held by reference, in two places: an
    expiry heap of (time, sid, session), one entry per live session, and
    a url index from each url to the live sessions that requested it.
    tallies maps each user to a TrafficTally of the requests that count
    toward traffic and entropy; it outlives finish(), and after run() its
    columns hold codes into the result's names. So memory grows with
    the log, not only with live sessions: tallies keeps every tallied
    request until the instance is dropped (about 17 B per line of an
    exported log, whose ids parse_log shares), besides about 1 KB per live
    session with its tree, heap entry and url index entries (72 B for a
    url only it requested), and run() keeps each closed session as one
    row of columns (about 50 B). out_of_order counts
    records whose timestamp is below that of their user's previous
    record. Such records are still assigned as usual, but never move
    their session's last activity backwards. live_sessions_peak is the
    most sessions held open at once, over all users: a session stays
    open until a record of its user, or finish(), finds it expired. One
    instance sessionizes one log: feed() after finish() raises
    ProtocolError, and so does run() on an instance already fed or
    finished.

    Raises:
        ConfigurationError: a timeout that is nan or negative.
    """

    def __init__(self, timeout: float = DEFAULT_TIMEOUT):
        self.timeout = float(timeout)
        if not self.timeout >= 0:  # nan fails every comparison
            raise ConfigurationError(
                f"timeout must be a non-negative number of seconds, got {timeout!r}")
        self.tallies: dict = {}  # user -> TrafficTally
        self.out_of_order = 0
        self.live_sessions_peak = 0
        self._live = 0
        self._users: dict = {}
        self._finished = False

    def feed(self, record: LogRecord) -> list[SessionDescriptor]:
        """Assign one record; returns descriptors of the sessions it expired."""
        return [tree.descriptor(record.user, index) for index, tree in self._feed(record)]

    def finish(self) -> list[SessionDescriptor]:
        """Close every remaining session, users in id_order, each by age."""
        return [tree.descriptor(user, index) for user, index, tree in self._finish()]

    def run(self, records: Iterable[LogRecord]) -> RunResult:
        """Sessionize a whole record stream: feed every record, then finish.

        Then the log's ids are coded: the result's names are its users
        and tallied URLs in id_order, and each id's rank there is its code,
        which the tallies and the session table hold from then on. The
        table comes sorted by (user, index), users in id_order, whatever
        the interleaving of users' records; as in simulate, each user's
        tally becomes an entropy row, in the same user order, and the
        tallies one ArrayTally.

        Raises:
            ProtocolError: the instance was already fed or finished, by
                feed(), finish() or an earlier run(); its tallies would hold
                that log's requests too.
        """
        if self._finished or self.tallies:
            raise ProtocolError("Sessionizer.run needs a fresh instance: "
                                "this one was already fed or finished")
        closed = _ClosedSessions()
        add = closed.add
        feed = self._feed
        for record in records:
            expired = feed(record)
            if expired:
                for index, tree in expired:
                    add(record.user, index, tree)
        for user, index, tree in self._finish():
            add(user, index, tree)
        tallies = self.tallies
        # every ref is a page its session already tallied, so the users and
        # the dst columns name every id; a dict holds them in less than a set
        names = id_order(dict.fromkeys(chain(tallies, chain.from_iterable(
            tally.dst for tally in tallies.values()))))
        code = dict(zip(names, range(len(names))))
        code[None] = None  # a session root's referrer
        for tally in tallies.values():
            tally.ref[:] = map(code.__getitem__, tally.ref)
            tally.dst[:] = map(code.__getitem__, tally.dst)
        closed.user, closed.root = (array("q", map(code.__getitem__, ids))
                                    for ids in (closed.user, closed.root))
        del code
        # counted before the table and the entropy rows are built: the
        # roundtrip benchmark's peak RSS reads lower so (BENCH_29.json)
        tally = ArrayTally.of(*tallies.values())
        sessions = closed.table()
        del closed
        entropies = [entropy_row(user, tallies[user]) for user in id_order(tallies)]
        return RunResult(sessions, tally, entropies, names=names)

    def _feed(self, record: LogRecord) -> list:
        """Assign one record; returns (index, tree) of the sessions it expired."""
        state = self._users.get(record.user)
        if state is None:
            if self._finished:  # finish() emptied _users: every user is new
                raise ProtocolError("Sessionizer.feed after finish: "
                                    "one instance sessionizes one log")
            state = self._users[record.user] = _UserState(
                self.tallies.setdefault(record.user, TrafficTally()))
        t = record.timestamp
        if t < state.last_time:
            self.out_of_order += 1
        state.last_time = t
        heap = state.expiry_heap
        deadline = t - self.timeout
        expired = (self._expire(state, deadline)
                   if heap and heap[0][0] < deadline else [])
        self._assign(state, record)
        return expired

    def _finish(self) -> Iterator[tuple]:
        """(user, index, tree) of every remaining session, users in id_order."""
        for user in id_order(self._users):
            state = self._users[user]
            for _, _, sess in sorted(state.expiry_heap, key=itemgetter(1)):
                yield user, self._close(state, sess), sess.tree
        self._users.clear()
        self._finished = True

    def _expire(self, state: _UserState, deadline: float) -> list:
        """Close the sessions last active before deadline: their (index, tree).

        Each live session has one heap entry, keyed at or below its last
        activity, so afterwards no session idle past deadline is left.
        """
        closed = []
        heap = state.expiry_heap
        while heap and heap[0][0] < deadline:
            t, sid, sess = heapq.heappop(heap)
            if sess.last_activity < deadline:
                closed.append((self._close(state, sess), sess.tree))
            else:
                # got activity since the entry was queued; fire later
                heapq.heappush(heap, (sess.last_activity, sid, sess))
        return closed

    def _close(self, state: _UserState, sess: _LiveSession) -> int:
        """De-index a session; returns its index among its user's sessions."""
        index = state.url_index
        for url in sess.tree.depth:  # every url of the tree holds a pair of sess
            entries = index[url]
            if len(entries) == 2:  # that pair alone
                del index[url]
            else:
                at = entries.index(sess)
                del entries[at - 1:at + 1]
        self._live -= 1
        state.closed += 1
        return state.closed - 1

    def _assign(self, state: _UserState, record: LogRecord) -> None:
        t = record.timestamp
        target = record.target
        sess = None
        if record.referrer is not None:
            sess = self._find_by_referrer(state, record.referrer)
        if sess is None:
            # empty referrer, or one no live session requested: new root
            sid = state.next_sid
            state.next_sid += 1
            sess = _LiveSession(sid, open_session(state.tally, target), t)
            heapq.heappush(state.expiry_heap, (t, sid, sess))
            self._live += 1
            if self._live > self.live_sessions_peak:
                self.live_sessions_peak = self._live
        else:
            sess.tree.clicks += 1
            follow(state.tally, sess.tree, record.referrer, target)
            if t > sess.last_activity:
                sess.last_activity = t
        # re-requests still refresh recency for future attachments
        index = state.url_index
        entries = index.get(target)
        if entries is None:
            index[target] = [t, sess]
            return
        if entries[-1] is sess:  # its own pair is the last: update it in place
            entries[-2] = t
        else:
            if sess in entries:  # a time never equals a session: only its own pair matches
                at = entries.index(sess)
                del entries[at - 1:at + 1]
            entries += (t, sess)
        # appending kept (time, sid) order unless this write landed below
        # the last pair: a same-time tie won by an older session, or a
        # regressed timestamp
        if len(entries) > 2 and (t < entries[-4]
                                 or (t == entries[-4] and sess.sid < entries[-3].sid)):
            pairs = sorted(zip(entries[::2], entries[1::2]),
                           key=lambda pair: (pair[0], pair[1].sid))
            entries[:] = chain.from_iterable(pairs)

    @staticmethod
    def _find_by_referrer(state: _UserState, referrer: str):
        """Live session in which the referrer was most recently requested.

        url_index keeps each url's pairs in (request time, sid) order, so
        the last pair wins, and ties on request time go to the most
        recently created session. Every indexed session is live: _expire
        has just closed and de-indexed those idle past the deadline.
        """
        entries = state.url_index.get(referrer)
        return None if entries is None else entries[-1]


class _ClosedSessions:
    """Closed sessions' descriptor fields as columns, in closing order.

    user and root hold the log's ids until run() swaps in their codes.
    """

    __slots__ = SessionDescriptor._fields

    def __init__(self):
        self.user, self.root = [], []
        self.index, self.size, self.depth, self.clicks = (array("q") for _ in range(4))

    def add(self, user, index: int, tree: SessionTree) -> None:
        self.user.append(user)
        self.index.append(index)
        self.root.append(tree.root)
        self.size.append(tree.size)
        self.depth.append(tree.max_depth)
        self.clicks.append(tree.clicks)

    def table(self) -> SessionTable:
        """The coded sessions as a table in user code order.

        The sort is stable, and each user's sessions close in index
        order, so the rows come sorted by (user, index).
        """
        order = np.argsort(np.frombuffer(self.user, np.int64), kind="stable")
        return SessionTable(*(np.frombuffer(getattr(self, name), np.int64)[order]
                              for name in self.__slots__))


def sessionize(records: Iterable[LogRecord],
               timeout: float = DEFAULT_TIMEOUT) -> Iterator[SessionDescriptor]:
    """Stream descriptors of reconstructed sessions."""
    worker = Sessionizer(timeout)
    for record in records:
        yield from worker.feed(record)
    yield from worker.finish()

