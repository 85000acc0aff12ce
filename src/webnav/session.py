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
from dataclasses import dataclass
from typing import NamedTuple

from .agents import BACK, FORWARD, KIND_NAMES, TELEPORT
from .errors import ProtocolError


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
    """Mergeable accumulator of page, link, and session-start counts.

    per_user_visits maps user -> Counter(page -> tallied visits) and backs
    the entropy descriptor.
    """

    __slots__ = ("page_visits", "link_visits", "session_starts", "per_user_visits")

    def __init__(self):
        self.page_visits = Counter()
        self.link_visits = Counter()
        self.session_starts = Counter()
        self.per_user_visits = {}

    def merge(self, other: "TrafficTally") -> "TrafficTally":
        """Key-wise addition of another tally into this one."""
        self.page_visits.update(other.page_visits)
        self.link_visits.update(other.link_visits)
        self.session_starts.update(other.session_starts)
        for user, visits in other.per_user_visits.items():
            if user in self.per_user_visits:
                self.per_user_visits[user].update(visits)
            else:
                self.per_user_visits[user] = Counter(visits)
        return self

    def total_sessions(self) -> int:
        return sum(self.session_starts.values())


def open_session(tally: TrafficTally, visits: Counter, root) -> SessionTree:
    """Start a session tree at root and tally its empty-referrer request.

    visits is the user's Counter in tally.per_user_visits.
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
    is the user's Counter in tally.per_user_visits.
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


@dataclass
class RunResult:
    """In-memory outcome of a run, simulated or ingested from a log."""

    descriptors: list       # sorted by (user, session index)
    tally: TrafficTally     # aggregate counts; per-user vectors dropped
    entropies: list         # entropy_row per user, sorted by user
    log_lines: list | None = None   # the exported request log, if any

    @property
    def total_sessions(self) -> int:
        return len(self.descriptors)

    @property
    def total_clicks(self) -> int:
        return sum(d.clicks for d in self.descriptors)

    @property
    def click_lengths(self) -> Counter:
        """Clicks per session -> sessions."""
        return Counter(d.clicks for d in self.descriptors)

    def summary(self) -> dict:
        """Totals and means of the run, as its manifest records them."""
        n = len(self.descriptors)
        entropies = self.entropies
        return {
            "total_sessions": n,
            "total_clicks": self.total_clicks,
            "total_page_visits": sum(self.tally.page_visits.values()),
            "total_link_visits": sum(self.tally.link_visits.values()),
            "mean_session_size": sum(d.size for d in self.descriptors) / n,
            "mean_session_depth": sum(d.depth for d in self.descriptors) / n,
            "mean_user_entropy": (sum(s for _, s, _ in entropies) / len(entropies)
                                  if entropies else math.nan),
        }


class SessionRecorder:
    """Builds session trees from (kind, page) steps and feeds a TrafficTally.

    One recorder per user; it counts into the user's visit Counter in
    tally.per_user_visits, made at construction when the tally has none.
    record() takes a step as the step functions
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
        self.visits = tally.per_user_visits.setdefault(user, Counter())
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
