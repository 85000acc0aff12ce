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
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .session import (SessionDescriptor, SessionTree, TrafficTally, follow,
                      open_session)

DEFAULT_TIMEOUT = 1800.0  # seconds of inactivity that end a session
EMPTY_REFERRER = "-"
LOG_FIELD_COUNT = 4  # timestamp, user, referrer, target


class LogRecord(NamedTuple):
    timestamp: float
    user: str
    referrer: str | None
    target: str


@dataclass
class ParseStats:
    parsed: int = 0
    skipped: int = 0    # malformed lines, non-finite or negative timestamps
    filtered: int = 0   # dropped by the extension allowlist


def _strip_query(url: str) -> str:
    cut = url.find("?")
    return url if cut < 0 else url[:cut]


def _page_like(url: str, extensions: frozenset) -> bool:
    leaf = url.rsplit("/", 1)[-1]
    dot = leaf.rfind(".")
    if dot <= 0:
        return True  # extensionless paths count as pages
    return leaf[dot + 1:].lower() in extensions


def parse_log(lines: Iterable[str], *, strip_query: bool = False,
              page_extensions=None, stats: ParseStats | None = None) -> Iterator[LogRecord]:
    """Parse TSV request-log lines into LogRecords, in input order.

    Each line holds timestamp, user id, referrer, target separated by
    tabs; '-' (or an empty field) marks a missing referrer. Malformed
    lines, including non-finite or negative timestamps, are skipped and
    counted in stats. With strip_query, everything from '?' on is removed
    from both URLs; with page_extensions, records whose target carries a
    file extension outside the set are dropped.
    """
    if stats is None:
        stats = ParseStats()
    exts = frozenset(e.lower().lstrip(".") for e in page_extensions) if page_extensions else None
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != LOG_FIELD_COUNT:
            stats.skipped += 1
            continue
        ts_raw, user, referrer, target = parts
        try:
            ts = float(ts_raw)
        except ValueError:
            stats.skipped += 1
            continue
        if (not math.isfinite(ts) or ts < 0 or not user or not target
                or target == EMPTY_REFERRER):
            stats.skipped += 1
            continue
        if referrer in ("", EMPTY_REFERRER):
            ref = None
        else:
            ref = _strip_query(referrer) if strip_query else referrer
        if strip_query:
            target = _strip_query(target)
        if exts is not None and not _page_like(target, exts):
            stats.filtered += 1
            continue
        stats.parsed += 1
        yield LogRecord(ts, user, ref, target)


class _LiveSession:
    """A session tree under construction plus its recency bookkeeping."""

    __slots__ = ("sid", "tree", "last_activity", "requests")

    def __init__(self, sid: int, tree: SessionTree, t: float):
        self.sid = sid
        self.tree = tree
        self.last_activity = t
        self.requests = 0


@dataclass
class _UserState:
    visits: Counter                                 # the user's tally vector
    last_time: float = -math.inf                    # previous record's timestamp
    next_sid: int = 0
    sessions: dict = field(default_factory=dict)    # sid -> _LiveSession
    url_index: dict = field(default_factory=dict)   # url -> {sid: last request time}
    expiry_heap: list = field(default_factory=list)
    closed: int = 0


class Sessionizer:
    """Streaming session reconstruction; memory scales with live sessions.

    out_of_order counts records whose timestamp is below that of their
    user's previous record. Such records are still assigned as usual.
    """

    def __init__(self, timeout: float = DEFAULT_TIMEOUT,
                 tally: TrafficTally | None = None):
        self.timeout = float(timeout)
        self.tally = tally if tally is not None else TrafficTally()
        self.out_of_order = 0
        self._users: dict = {}

    def feed(self, record: LogRecord) -> Iterator[SessionDescriptor]:
        """Assign one record; yields descriptors of sessions it expired."""
        state = self._users.get(record.user)
        if state is None:
            visits = self.tally.per_user_visits.setdefault(record.user, Counter())
            state = self._users[record.user] = _UserState(visits)
        if record.timestamp < state.last_time:
            self.out_of_order += 1
        state.last_time = record.timestamp
        yield from self._expire(record.user, state, record.timestamp)
        self._assign(state, record)

    def finish(self) -> Iterator[SessionDescriptor]:
        """Close every remaining session, ordered by user id then age."""
        for user in sorted(self._users):
            state = self._users[user]
            for sid in sorted(state.sessions):
                yield self._close(user, state, state.sessions[sid])
            state.sessions.clear()
            state.url_index.clear()
        self._users.clear()

    def _expire(self, user, state: _UserState, now: float) -> Iterator[SessionDescriptor]:
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
                # got activity since the entry was queued; fire later
                heapq.heappush(heap, (sess.last_activity, sid))

    def _close(self, user, state: _UserState, sess: _LiveSession) -> SessionDescriptor:
        index = state.url_index
        for url in sess.tree.depth:
            per_url = index.get(url)
            if per_url is not None:
                per_url.pop(sess.sid, None)
                if not per_url:
                    del index[url]
        desc = SessionDescriptor(user, state.closed, sess.tree.root,
                                 sess.tree.size, sess.tree.max_depth, sess.requests)
        state.closed += 1
        return desc

    def _assign(self, state: _UserState, record: LogRecord) -> None:
        t = record.timestamp
        target = record.target
        sess = None
        if record.referrer is not None:
            sess = self._find_by_referrer(state, record.referrer, t)
        if sess is None:
            # empty referrer, unknown referrer, or expired session: new root
            sid = state.next_sid
            state.next_sid += 1
            sess = _LiveSession(sid, open_session(self.tally, state.visits, target), t)
            state.sessions[sid] = sess
            heapq.heappush(state.expiry_heap, (t, sid))
        else:
            sess.requests += 1
            follow(self.tally, state.visits, sess.tree, record.referrer, target)
            sess.last_activity = t
        # re-requests still refresh recency for future attachments
        state.url_index.setdefault(target, {})[sess.sid] = t

    def _find_by_referrer(self, state: _UserState, referrer: str, now: float):
        """Live session in which the referrer was most recently requested.

        Ties on request time break toward the most recently created
        session (larger sid). Dead entries found on the way are pruned.
        """
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


def sessionize(records: Iterable[LogRecord], timeout: float = DEFAULT_TIMEOUT,
               tally: TrafficTally | None = None) -> Iterator[SessionDescriptor]:
    """Stream descriptors of reconstructed sessions; tally fills as a side effect."""
    worker = Sessionizer(timeout, tally)
    for record in records:
        yield from worker.feed(record)
    yield from worker.finish()


def descriptors_from_logs(records: Iterable[LogRecord],
                          timeout: float = DEFAULT_TIMEOUT):
    """Materialize (descriptors, tally) from a record stream.

    Produces the same descriptor and tally structures as the simulator,
    so the downstream metric pipeline is shared verbatim.
    """
    tally = TrafficTally()
    descriptors = list(sessionize(records, timeout, tally))
    return descriptors, tally
