"""Session trees, traffic tallies, and the per-user click recorder.

open_session and follow are the single home of the browser-cache rule:
within one session, a page or link contributes to the tallies only on its
first visit; repeats and back clicks are cache hits. Cache state is
discarded between sessions. The simulator's SessionRecorder and the log
Sessionizer (ingest.py) both apply the rule through these two calls.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .agents import BACK, FORWARD, KIND_NAMES, TELEPORT
from .errors import DataError, ProtocolError, UnboundedSessionError

# The most clicks one session may hold. A session that reaches it cannot
# be meant to end (the largest desk session has 199 pages), so
# SessionRecorder.record raises UnboundedSessionError instead of running
# on. Read when a recorder is made without a cap, and once per run by
# simulate, which hands it to every worker, so a test may lower it.
MAX_SESSION_CLICKS = 10**7


class SessionTree:
    """Rooted tree of first-visit clicks within one session.

    depth maps each page in the tree to its depth; follow grows it.
    clicks counts the session's clicks after its root, bumped by its
    owner: every forward or back step of a SessionRecorder, every request
    the Sessionizer attaches.
    """

    __slots__ = ("root", "depth", "max_depth", "clicks")

    def __init__(self, root):
        self.root = root
        self.depth = {root: 0}
        self.max_depth = 0
        self.clicks = 0

    @property
    def size(self) -> int:
        """Unique pages in the session."""
        return len(self.depth)

    def __contains__(self, page) -> bool:
        return page in self.depth

    def descriptor(self, user, index: int) -> "SessionDescriptor":
        """The closed session's row: session number index of user."""
        return SessionDescriptor(user, index, self.root, self.size,
                                 self.max_depth, self.clicks)


class SessionDescriptor(NamedTuple):
    """One row of the session descriptor stream (plus the click count)."""

    user: object
    index: int
    root: object
    size: int
    depth: int
    clicks: int


def id_order(ids) -> list:
    """The ids in the one order of output rows: integer order for simulated ids.

    A log's string ids come ASCII-decimal first, by value: by length, then
    string order, so "9" < "10" and "007" stays apart from "7". Every other
    id follows in string order. So a re-ingested export lists its ids as
    the simulation does.
    """
    ordered = sorted(ids)
    if ordered and isinstance(ordered[0], str):
        ordered.sort(key=_decimal_length)  # stable: ties keep string order
    return ordered


def _decimal_length(name: str) -> float:
    """An ASCII-decimal id's length; inf puts every other id after those."""
    return len(name) if name.isascii() and name.isdecimal() else math.inf


class TrafficTally:
    """One user's tallied requests in request order, as two append-only columns.

    ref holds each request's referrer, None for a session root, and dst
    its target: the session roots and first-visit clicks a browser
    issues, since back clicks and revisits come from cache. Lists, so
    any hashable pages count, with no graph behind them: a log's strs
    until Sessionizer.run codes them. Each user gets their own tally, fed
    by open_session and follow; ArrayTally.of counts a run's tallies of
    integer ids once, entropy_row reads a user's, and an exporting
    simulation writes its log lines from the columns.
    """

    __slots__ = ("ref", "dst")

    def __init__(self):
        self.ref = []
        self.dst = []

    @property
    def page_visits(self) -> Counter:
        """Requests per page, counted from dst on each read, in first-request order."""
        return Counter(self.dst)


class ArrayTally:
    """Page, link and session-start counts as int64 key columns and counts.

    The tally of every RunResult: simulate's workers and the Sessionizer
    record each user into a TrafficTally and hand on ArrayTally.of(*them).
    The three pairs are columns() as stored: pages and starts keyed by one
    column of page ids, links by two (src, dst), rows in key order with
    unique keys, and page_visits, link_visits and session_starts their
    counts. Every column is an int64 array, ids in [0, 2**31) with no
    graph behind them, so any two tallies merge: a simulation's ids are
    its pages, an ingested log's are codes into RunResult.names.
    """

    __slots__ = ("page_keys", "page_visits", "link_keys", "link_visits",
                 "start_keys", "session_starts")

    def __init__(self, pages: tuple, links: tuple, starts: tuple):
        self.page_keys, self.page_visits = pages
        self.link_keys, self.link_visits = links
        self.start_keys, self.session_starts = starts

    @classmethod
    def of(cls, *tallies: TrafficTally) -> "ArrayTally":
        """The counts of TrafficTallies whose pages are integer ids.

        Pages are counted from dst, starts from the dst of requests whose
        ref is None, and links from the other (ref, dst) pairs. The ids
        are read from the tallies' columns straight into one int64 array;
        operator.index refuses a str, so no decimal string id reads as a
        number. Each row is counted by one int64 key of fixed width: a
        page or start its id, a link src << 31 | dst.

        Raises:
            DataError: an id that is not an integer, or one outside
                [0, 2**31).
        """
        size = sum(len(tally.dst) for tally in tallies)
        linked = np.fromiter(map(operator.is_not,
                                 chain.from_iterable(tally.ref for tally in tallies),
                                 repeat(None)), bool, size)
        count = size + int(np.count_nonzero(linked))
        try:
            ids = np.fromiter(map(operator.index, _ids(tallies)), np.int64, count)
        except OverflowError:
            raise DataError("tally ids must lie in [0, 2**31)") from None
        except TypeError:
            raise DataError("tally ids must be integers") from None
        _check_ids(ids)
        dst, src = ids[:size], ids[size:]
        links = _counted_rows((src, dst[linked]))
        starts = _counted_rows((dst[~linked],))
        pages = _counted_rows((dst,))  # last: sorts dst in place
        return cls(pages, links, starts)

    def columns(self) -> tuple:
        """(pages, links, starts), each (key columns, counts), rows in key order."""
        return ((self.page_keys, self.page_visits),
                (self.link_keys, self.link_visits),
                (self.start_keys, self.session_starts))

    def __eq__(self, other):
        if not isinstance(other, ArrayTally):
            return NotImplemented
        # key columns, then counts, of pages, links and starts in turn
        return all(np.array_equal(a, b)
                   for (keys, counts), (other_keys, other_counts)
                   in zip(self.columns(), other.columns())
                   for a, b in zip((*keys, counts), (*other_keys, other_counts)))

    def merge(self, other: "ArrayTally") -> "ArrayTally":
        """Move another tally's counts into this one: equal keys sum their counts.

        Both tallies' rows are sorted runs of unique keys, so each of
        other's rows is placed among this tally's rows by binary search on
        its one int64 key, as of counts them (a link src << 31 | dst), with
        no concatenation or sort. Pages, links and starts are replaced in
        turn, and each old pair is released before the next pair is built.
        other is left an empty tally.

        Raises:
            DataError: a key outside [0, 2**31), or rows out of key order or
                repeating a key. Every pair is checked before any moves, so
                neither tally changes then.
        """
        for keys, _ in chain(self.columns(), other.columns()):
            _check_ids(*keys)
            key = _flat_key(keys)
            if not (key[1:] > key[:-1]).all():
                raise DataError("tally rows are out of key order or repeat a key")
        for key_attr, count_attr in _PAIRS:
            mine = getattr(self, key_attr), getattr(self, count_attr)
            theirs = getattr(other, key_attr), getattr(other, count_attr)
            setattr(other, key_attr, (_EMPTY,) * len(theirs[0]))
            setattr(other, count_attr, _EMPTY)
            merged_keys, merged_counts = _merged_rows(mine, theirs)
            del mine, theirs
            setattr(self, key_attr, merged_keys)
            setattr(self, count_attr, merged_counts)
        return self


# the (key columns, counts) attribute pairs of an ArrayTally, in columns() order
_PAIRS = (("page_keys", "page_visits"), ("link_keys", "link_visits"),
          ("start_keys", "session_starts"))
_EMPTY = np.zeros(0, np.int64)  # no element to write, so tallies may share it


def _ids(tallies: tuple) -> Iterator:
    """Every dst of the tallies, then every ref that is not None."""
    return chain(chain.from_iterable(tally.dst for tally in tallies),
                 filter(partial(operator.is_not, None),
                        chain.from_iterable(tally.ref for tally in tallies)))


# a link's key is src << _SHIFT | dst, so every id lies below _ID_BOUND
_SHIFT = 31
_ID_BOUND = 1 << _SHIFT


def _check_ids(*columns: np.ndarray) -> None:
    """Raise DataError unless every id of the int64 columns lies in [0, 2**31)."""
    for column in filter(len, columns):
        if column.min() < 0:
            raise DataError(f"tally key {int(column.min())} is negative")
        if column.max() >= _ID_BOUND:
            raise DataError(f"tally key {int(column.max())} is not below 2**31")


def _flat_key(columns: tuple) -> np.ndarray:
    """One int64 key per row: the one column itself, or src << 31 | dst."""
    if len(columns) == 1:
        return columns[0]
    src, dst = columns
    key = src << _SHIFT
    key |= dst
    return key


def _counted_rows(columns: tuple) -> tuple:
    """Rows of one or two int64 key columns in key order, each row counted once.

    The columns are spent: the first is turned into the rows' flat keys
    and sorted in place. Their ids lie in [0, 2**31).
    """
    key = columns[0]
    if len(columns) == 2:
        key <<= _SHIFT
        key |= columns[1]
    if not key.size:
        return columns, _EMPTY
    key.sort()
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    counts = np.diff(first, append=key.size)
    key = key[first]
    if len(columns) == 1:
        return (key,), counts
    dst = key & (_ID_BOUND - 1)
    key >>= _SHIFT
    return (key, dst), counts


def _merged_rows(mine: tuple, theirs: tuple) -> tuple:
    """(key columns, counts) of two pairs of sorted unique rows, equal keys summed.

    Each of theirs' rows lands at its searchsorted place among mine's
    rows, moved on by the new rows of theirs before it; a row whose key
    mine holds shares that row's slot and adds its count. Mine's rows
    fill the slots left. Neither pair's arrays are written.
    """
    (keys, counts), (other_keys, other_counts) = mine, theirs
    if not other_counts.size:
        return mine
    if not counts.size:
        return theirs
    key = _flat_key(keys)
    other_key = _flat_key(other_keys)
    at = np.searchsorted(key, other_key)
    new = key.take(at, mode="clip") != other_key
    del key, other_key
    slot = np.cumsum(new)
    slot -= new
    slot += at
    del at
    size = counts.size + int(np.count_nonzero(new))
    kept = np.ones(size, bool)
    kept[slot] = ~new
    kept = np.flatnonzero(kept)  # the slots of mine's rows
    merged = []
    for column, other_column in zip(keys, other_keys):
        rows = np.empty(size, np.int64)
        rows[kept] = column
        rows[slot] = other_column
        merged.append(rows)
    summed = np.zeros(size, np.int64)
    summed[kept] = counts
    summed[slot] += other_counts
    return tuple(merged), summed


def open_session(tally: TrafficTally, root) -> SessionTree:
    """Start a session tree at root and tally its empty-referrer request."""
    tally.ref.append(None)
    tally.dst.append(root)
    return SessionTree(root)


def follow(tally: TrafficTally, tree: SessionTree, src, dst) -> None:
    """Apply the click src -> dst to tree.

    A first visit grows the tree and tallies the request (src, dst); a
    page already in the tree is a cache hit and changes nothing.
    """
    depth = tree.depth
    if dst not in depth:
        d = depth[src] + 1
        depth[dst] = d
        if d > tree.max_depth:
            tree.max_depth = d
        tally.ref.append(src)
        tally.dst.append(dst)


def entropy_bits(counts) -> float:
    """Entropy of a count vector: -sum(rho * log2(rho))."""
    counts = list(counts)
    total = float(sum(counts))
    if total <= 0:
        raise ValueError("entropy needs at least one visit")
    s = 0.0
    for c in counts:
        if c:
            p = c / total
            s -= p * math.log2(p)
    return s


def entropy_row(user, tally: TrafficTally) -> tuple:
    """(user, entropy bits, tallied visits) of one user's tally."""
    counts = tally.page_visits.values()
    return user, entropy_bits(counts), sum(counts)


class SessionTable:
    """The sessions of a run, one row per session, as columns.

    Columns are the SessionDescriptor fields, each an int64 array: user
    and root are a simulation's ids, or codes into RunResult.names for an
    ingested log. The table iterates as SessionDescriptor rows and
    pickles as its columns.
    """

    __slots__ = SessionDescriptor._fields

    def __init__(self, user, index, root, size, depth, clicks):
        self.user = user
        self.index = index
        self.root = root
        self.size = size
        self.depth = depth
        self.clicks = clicks

    @classmethod
    def from_rows(cls, rows: list) -> "SessionTable":
        """A table of descriptor rows of integer fields.

        Raises:
            TypeError: a field that is not an integer, such as a str id.
        """
        columns = zip(*rows) if rows else ((),) * len(SessionDescriptor._fields)
        return cls(*(np.fromiter(map(operator.index, column), np.int64, len(column))
                     for column in columns))

    @property
    def columns(self) -> tuple:
        return (self.user, self.index, self.root, self.size, self.depth,
                self.clicks)

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self) -> Iterator[SessionDescriptor]:
        return map(SessionDescriptor._make,
                   zip(*(column.tolist() for column in self.columns)))

    def __eq__(self, other):
        if not isinstance(other, SessionTable):
            return NotImplemented
        return all(map(np.array_equal, self.columns, other.columns))

    def __reduce__(self):
        return SessionTable, self.columns


@dataclass
class RunResult:
    """In-memory outcome of a run, simulated or ingested from a log.

    Every id in descriptors and tally is an int64. An ingested log's is a
    code i into names, its users and tallied URLs in id_order, and
    names[i] is the id as the log spells it; names is None for a
    simulation. The entropy rows hold each user's own id.
    """

    descriptors: SessionTable       # sorted by (user, session index), id_order
    tally: ArrayTally
    entropies: list         # entropy_row per user, users in id_order
    log_lines: list | None = None   # the exported request log, if any
    names: list | None = None       # an ingested log's ids, by code
    # manifest-only timings of producing the result: time.<stage>_s -> s
    times: dict = field(default_factory=dict, compare=False)

    @property
    def total_sessions(self) -> int:
        return len(self.descriptors)

    @property
    def total_clicks(self) -> int:
        return int(self.descriptors.clicks.sum())

    @cached_property
    def click_lengths(self) -> dict:
        """Clicks per session -> sessions, in clicks order."""
        return count_clicks(self.descriptors.clicks)

    def summary(self) -> dict:
        """Totals and means of the run, as its manifest records them."""
        table = self.descriptors
        n = len(table)
        entropies = self.entropies
        return {
            "total_sessions": n,
            "total_clicks": self.total_clicks,
            "total_page_visits": int(self.tally.page_visits.sum()),
            "total_link_visits": int(self.tally.link_visits.sum()),
            # integer sums, divided once: the same floats as the row sums
            "mean_session_size": int(table.size.sum()) / n if n else math.nan,
            "mean_session_depth": int(table.depth.sum()) / n if n else math.nan,
            # fsum rounds once, so the row order cannot move the last bit
            "mean_user_entropy": (math.fsum(s for _, s, _ in entropies)
                                  / len(entropies) if entropies else math.nan),
        }


def count_clicks(clicks: np.ndarray) -> dict:
    """Clicks per session -> sessions, in clicks order, of a clicks column."""
    values, sessions = np.unique(clicks, return_counts=True)
    return dict(zip(values.tolist(), sessions.tolist()))


class SessionRecorder:
    """Builds session trees from (kind, page) steps and feeds a TrafficTally.

    One recorder per user. record() takes a step as the step functions
    return it, kind one of TELEPORT, FORWARD or BACK, and returns the
    descriptor of the session a teleport just closed (None otherwise), or
    raises UnboundedSessionError on a session's click past max_clicks
    (MAX_SESSION_CLICKS as it reads at construction when None); close()
    finishes the last session. The requests a browser would issue are
    appended to the tally's (ref, dst) columns, in click order: given the
    user's own tally, they are the user's requests, which entropy_row and
    the export read.
    """

    __slots__ = ("user", "tally", "max_clicks", "tree", "position", "sessions_closed")

    def __init__(self, user, tally: TrafficTally, max_clicks: int | None = None):
        self.user = user
        self.tally = tally
        self.max_clicks = MAX_SESSION_CLICKS if max_clicks is None else max_clicks
        self.tree = None
        self.position = None
        self.sessions_closed = 0

    def record(self, step: tuple) -> SessionDescriptor | None:
        kind, to = step
        tree = self.tree
        if kind == TELEPORT:
            closed = self._close_current() if tree is not None else None
            self.tree = open_session(self.tally, to)
            self.position = to
            return closed
        if kind != FORWARD and kind != BACK:
            raise ProtocolError(f"unknown outcome kind {kind!r}")
        if tree is None:
            raise ProtocolError(f"{KIND_NAMES[kind]} step before any session start")
        clicks = tree.clicks + 1
        if clicks > self.max_clicks:
            raise self._unbounded()
        tree.clicks = clicks
        if kind == FORWARD:
            follow(self.tally, tree, self.position, to)
        # back targets were visited this session; cache serves them
        elif to not in tree:
            raise ProtocolError(f"back to {to!r}, never visited this session")
        self.position = to
        return None

    def close(self) -> SessionDescriptor:
        """Close the in-flight session at end of run."""
        if self.tree is None:
            raise ProtocolError("no session to close")
        desc = self._close_current()
        self.tree = None
        self.position = None
        return desc

    def _unbounded(self) -> UnboundedSessionError:
        return UnboundedSessionError(
            f"agent {self.user!r} session {self.sessions_closed} passed "
            f"{self.max_clicks} clicks")

    def _close_current(self) -> SessionDescriptor:
        desc = self.tree.descriptor(self.user, self.sessions_closed)
        self.sessions_closed += 1
        return desc
