"""Session trees, traffic tallies, and the per-user click recorder.

open_session and follow are the single home of the browser-cache rule:
within one session, a page or link contributes to the tallies only on its
first visit; repeats and back clicks are cache hits. Cache state is
discarded between sessions. The simulator's SessionRecorder and the log
Sessionizer (ingest.py) both apply the rule through these two calls.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .agents import BACK, FORWARD, KIND_NAMES, TELEPORT
from .errors import DataError, ProtocolError
from .graph import WebGraph


class SessionTree:
    """Rooted tree of first-visit clicks within one session."""

    __slots__ = ("root", "parent", "depth", "max_depth")

    def __init__(self, root):
        self.root = root
        self.parent = {}
        self.depth = {root: 0}
        self.max_depth = 0

    @property
    def size(self) -> int:
        """Unique pages in the session."""
        return len(self.parent) + 1

    def __contains__(self, page) -> bool:
        return page in self.depth

    def add_edge(self, parent, child) -> None:
        """Attach a first-visit click parent -> child."""
        d = self.depth[parent] + 1
        self.parent[child] = parent
        self.depth[child] = d
        if d > self.max_depth:
            self.max_depth = d


class SessionDescriptor(NamedTuple):
    """One row of the session descriptor stream (plus the click count)."""

    user: object
    index: int
    root: object
    size: int
    depth: int
    clicks: int


class TrafficTally:
    """Accumulator of page, link, and session-start counts.

    Counters, so any hashable pages count, with no graph behind them: the
    simulator's workers and the log Sessionizer count into one click by
    click. Each user's visit Counter belongs to whoever feeds the tally.
    """

    __slots__ = ("page_visits", "link_visits", "session_starts")

    def __init__(self):
        self.page_visits = Counter()
        self.link_visits = Counter()
        self.session_starts = Counter()

    def columns(self) -> tuple:
        """(pages, links, starts), each (key columns, counts), rows in key order."""
        return (_counter_columns(self.page_visits, 1),
                _counter_columns(self.link_visits, 2),
                _counter_columns(self.session_starts, 1))

    def total_sessions(self) -> int:
        return sum(self.session_starts.values())


def _counter_columns(counts: Counter, width: int) -> tuple:
    """(key columns, int64 counts) of a Counter whose keys are width wide."""
    keys = sorted(counts)
    values = np.fromiter(map(counts.__getitem__, keys), np.int64, len(keys))
    if width == 1:
        return (keys,), values
    return tuple(zip(*keys)) or ((),) * width, values


def count_arrays(tally: TrafficTally, graph: WebGraph) -> tuple:
    """A tally of graph pages as (pages, links, starts) int64 arrays.

    pages and starts are indexed by page id, links by CSR position.

    Raises:
        DataError: a page outside the graph, or a link it does not hold.
    """
    links = tally.link_visits
    ends = np.fromiter(chain.from_iterable(links), np.int64, 2 * len(links))
    link_counts = np.zeros(graph.n_edges, dtype=np.int64)
    link_counts[graph.edge_positions(ends[0::2], ends[1::2])] = np.fromiter(
        links.values(), np.int64, len(links))
    return (_page_array(tally.page_visits, graph.n), link_counts,
            _page_array(tally.session_starts, graph.n))


def _page_array(counts: Counter, n: int) -> np.ndarray:
    pages = np.fromiter(counts, np.int64, len(counts))
    if pages.size and not (0 <= pages.min() and pages.max() < n):
        bad = pages[(pages < 0) | (pages >= n)][0]
        raise DataError(f"page {bad} is not in the graph [0, {n})")
    out = np.zeros(n, dtype=np.int64)
    out[pages] = np.fromiter(counts.values(), np.int64, len(counts))
    return out


class ArrayTally:
    """Page, link and session-start counts over one graph, as int64 arrays.

    What simulate returns: each worker counts into a TrafficTally, ships
    its count_arrays, and the parent adds them. page_visits and
    session_starts are indexed by page id, link_visits by CSR position.
    """

    __slots__ = ("graph", "page_visits", "link_visits", "session_starts")

    def __init__(self, graph: WebGraph, page_visits: np.ndarray,
                 link_visits: np.ndarray, session_starts: np.ndarray):
        self.graph = graph
        self.page_visits = page_visits
        self.link_visits = link_visits
        self.session_starts = session_starts

    def columns(self) -> tuple:
        """(pages, links, starts), each (key columns, counts), rows in key order.

        Only nonzero counts appear, as in a TrafficTally's Counters.
        """
        pages = np.flatnonzero(self.page_visits)
        at = np.flatnonzero(self.link_visits)
        src, dst = np.divmod(self.graph.edge_keys()[at], self.graph.n)
        starts = np.flatnonzero(self.session_starts)
        return (((pages,), self.page_visits[pages]),
                ((src, dst), self.link_visits[at]),
                ((starts,), self.session_starts[starts]))

    def merge(self, other: "ArrayTally") -> "ArrayTally":
        """Add another tally of the same graph into this one."""
        mine, theirs = self.graph, other.graph
        if theirs is not mine and not (
                np.array_equal(theirs.offsets, mine.offsets)
                and np.array_equal(theirs.neighbors, mine.neighbors)):
            raise DataError("cannot merge tallies of different graphs")
        self.page_visits += other.page_visits
        self.link_visits += other.link_visits
        self.session_starts += other.session_starts
        return self


def open_session(tally: TrafficTally, visits: Counter, root) -> SessionTree:
    """Start a session tree at root and tally its empty-referrer request.

    visits is the user's visit Counter.
    """
    # d[k] = d.get(k, 0) + 1 counts without Counter.__missing__ on new keys
    starts = tally.session_starts
    starts[root] = starts.get(root, 0) + 1
    pages = tally.page_visits
    pages[root] = pages.get(root, 0) + 1
    visits[root] = visits.get(root, 0) + 1
    return SessionTree(root)


def follow(tally: TrafficTally, visits: Counter, tree: SessionTree, src, dst) -> bool:
    """Apply the click src -> dst to tree; True only on dst's first visit.

    A first visit grows the tree and tallies the page and the link; a
    page already in the tree is a cache hit and changes nothing. visits
    is the user's visit Counter.
    """
    if dst in tree.depth:
        return False
    tree.add_edge(src, dst)
    pages = tally.page_visits
    pages[dst] = pages.get(dst, 0) + 1
    links = tally.link_visits
    link = (src, dst)
    links[link] = links.get(link, 0) + 1
    visits[dst] = visits.get(dst, 0) + 1
    return True


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


def entropy_row(user, visits: Counter) -> tuple:
    """(user, entropy bits, tallied visits) of one user's visit Counter."""
    counts = visits.values()
    return user, entropy_bits(counts), sum(counts)


class SessionTable:
    """The sessions of a run, one row per session, as columns.

    Columns are the SessionDescriptor fields. index, size, depth and
    clicks are int64 arrays; user and root are int64 arrays for a
    simulated run and lists for an ingested one, whose ids are strings.
    The table iterates as SessionDescriptor rows and pickles as its
    columns.
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
    def from_block(cls, block: np.ndarray) -> "SessionTable":
        """A table of a (sessions, 6) int64 block, rows as session_block gives."""
        return cls(*np.ascontiguousarray(block.T))

    @classmethod
    def from_rows(cls, rows: list) -> "SessionTable":
        """A table of descriptor rows; user and root stay lists."""
        user, index, root, size, depth, clicks = (
            zip(*rows) if rows else ((),) * len(SessionDescriptor._fields))
        return cls(list(user), _int64(index), list(root), _int64(size),
                   _int64(depth), _int64(clicks))

    @property
    def columns(self) -> tuple:
        return (self.user, self.index, self.root, self.size, self.depth,
                self.clicks)

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self) -> Iterator[SessionDescriptor]:
        return map(SessionDescriptor._make, zip(*map(column_list, self.columns)))

    def __eq__(self, other):
        if not isinstance(other, SessionTable):
            return NotImplemented
        return all(column_list(a) == column_list(b)
                   for a, b in zip(self.columns, other.columns))

    def __reduce__(self):
        return SessionTable, self.columns


def session_block(rows: list) -> np.ndarray:
    """Descriptor rows with integer ids as one (sessions, 6) int64 block."""
    width = len(SessionDescriptor._fields)
    flat = np.fromiter(chain.from_iterable(rows), np.int64, width * len(rows))
    return flat.reshape(-1, width)


def _int64(values) -> np.ndarray:
    return np.fromiter(values, np.int64, len(values))


def column_list(column) -> list:
    """A table column as a list: arrays convert, lists pass through."""
    return column.tolist() if isinstance(column, np.ndarray) else column


@dataclass
class RunResult:
    """In-memory outcome of a run, simulated or ingested from a log."""

    descriptors: SessionTable       # sorted by (user, session index)
    tally: TrafficTally | ArrayTally   # aggregate counts (ArrayTally: simulate)
    entropies: list         # entropy_row per user, sorted by user
    log_lines: list | None = None   # the exported request log, if any
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
        clicks, sessions = np.unique(self.descriptors.clicks, return_counts=True)
        return dict(zip(clicks.tolist(), sessions.tolist()))

    def summary(self) -> dict:
        """Totals and means of the run, as its manifest records them."""
        table = self.descriptors
        n = len(table)
        entropies = self.entropies
        return {
            "total_sessions": n,
            "total_clicks": self.total_clicks,
            "total_page_visits": _total(self.tally.page_visits),
            "total_link_visits": _total(self.tally.link_visits),
            # integer sums, divided once: the same floats as the row sums
            "mean_session_size": int(table.size.sum()) / n if n else math.nan,
            "mean_session_depth": int(table.depth.sum()) / n if n else math.nan,
            # fsum rounds once, so the row order cannot move the last bit
            "mean_user_entropy": (math.fsum(s for _, s, _ in entropies)
                                  / len(entropies) if entropies else math.nan),
        }


def _total(counts) -> int:
    """The sum of a tally's Counter or count array, as it is stored."""
    if isinstance(counts, np.ndarray):
        return int(counts.sum())
    return sum(counts.values())


class SessionRecorder:
    """Builds session trees from (kind, page) steps and feeds a TrafficTally.

    One recorder per user; visits is its user's visit Counter, which
    entropy_row reads. record() takes a step as the step functions
    return it, kind one of TELEPORT, FORWARD or BACK, and returns the
    descriptor of the session a teleport just closed (None otherwise);
    close() finishes the last session. requests, when given, is a list
    that gets one (referrer, target) pair appended for every click a
    browser would actually issue: session roots (referrer None) and first
    visits (referrer = the click's source page).
    """

    __slots__ = ("user", "tally", "visits", "tree", "position", "clicks",
                 "sessions_closed", "requests")

    def __init__(self, user, tally: TrafficTally, requests: list | None = None):
        self.user = user
        self.tally = tally
        self.visits = Counter()
        self.tree = None
        self.position = None
        self.clicks = 0
        self.sessions_closed = 0
        self.requests = requests

    def record(self, step: tuple) -> SessionDescriptor | None:
        kind, to = step
        tree = self.tree
        if kind == FORWARD and tree is not None:  # the most common step first
            self.clicks += 1
            src = self.position
            if (follow(self.tally, self.visits, tree, src, to)
                    and self.requests is not None):
                self.requests.append((src, to))
            self.position = to
            return None
        if kind == TELEPORT:
            closed = self._close_current() if tree is not None else None
            self.tree = open_session(self.tally, self.visits, to)
            self.position = to
            self.clicks = 0
            if self.requests is not None:
                self.requests.append((None, to))
            return closed
        if kind != FORWARD and kind != BACK:
            raise ProtocolError(f"unknown outcome kind {kind!r}")
        if tree is None:
            raise ProtocolError(f"{KIND_NAMES[kind]} step before any session start")
        self.clicks += 1
        # back targets were visited this session; cache serves them
        if to not in tree:
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

    def _close_current(self) -> SessionDescriptor:
        tree = self.tree
        desc = SessionDescriptor(self.user, self.sessions_closed, tree.root,
                                 tree.size, tree.max_depth, self.clicks)
        self.sessions_closed += 1
        return desc
