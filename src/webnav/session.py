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
from typing import NamedTuple

from .agents import BACK, FORWARD, TELEPORT, StepOutcome
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
    the entropy descriptor; large runs may skip it (see merge).
    """

    __slots__ = ("page_visits", "link_visits", "session_starts", "per_user_visits")

    def __init__(self):
        self.page_visits = Counter()
        self.link_visits = Counter()
        self.session_starts = Counter()
        self.per_user_visits = {}

    def touch_user(self, user, page) -> None:
        try:
            self.per_user_visits[user][page] += 1
        except KeyError:
            self.per_user_visits[user] = Counter({page: 1})

    def merge(self, other: "TrafficTally", include_users: bool = True) -> "TrafficTally":
        """Key-wise addition of another tally into this one."""
        self.page_visits.update(other.page_visits)
        self.link_visits.update(other.link_visits)
        self.session_starts.update(other.session_starts)
        if include_users:
            for user, visits in other.per_user_visits.items():
                if user in self.per_user_visits:
                    self.per_user_visits[user].update(visits)
                else:
                    self.per_user_visits[user] = Counter(visits)
        return self

    def total_sessions(self) -> int:
        return sum(self.session_starts.values())


def open_session(tally: TrafficTally, user, root) -> SessionTree:
    """Start a session tree at root and tally its empty-referrer request."""
    tally.session_starts[root] += 1
    tally.page_visits[root] += 1
    tally.touch_user(user, root)
    return SessionTree(root)


def follow(tally: TrafficTally, user, tree: SessionTree, src, dst) -> bool:
    """Apply the click src -> dst to tree; True only on dst's first visit.

    A first visit grows the tree and tallies the page and the link; a
    page already in the tree is a cache hit and changes nothing.
    """
    if dst in tree:
        return False
    tree.add_edge(src, dst)
    tally.page_visits[dst] += 1
    tally.link_visits[(src, dst)] += 1
    tally.touch_user(user, dst)
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


class SessionRecorder:
    """Builds session trees from step outcomes and feeds a TrafficTally.

    One recorder per user. record() returns the descriptor of the session
    a Teleport just closed (None otherwise); close() finishes the last
    session. on_request, when given, is called as on_request(referrer,
    target) for every click a browser would actually issue: session roots
    (referrer None) and first visits (referrer = the click's source page).
    """

    __slots__ = ("user", "tally", "tree", "position", "clicks",
                 "sessions_closed", "on_request")

    def __init__(self, user, tally: TrafficTally, on_request=None):
        self.user = user
        self.tally = tally
        self.tree = None
        self.position = None
        self.clicks = 0
        self.sessions_closed = 0
        self.on_request = on_request

    def record(self, outcome: StepOutcome) -> SessionDescriptor | None:
        kind, to = outcome
        if kind == TELEPORT:
            closed = self._close_current() if self.tree is not None else None
            self.tree = open_session(self.tally, self.user, to)
            self.position = to
            self.clicks = 0
            if self.on_request is not None:
                self.on_request(None, to)
            return closed
        if self.tree is None:
            raise ProtocolError(f"{kind} step before any session start")
        self.clicks += 1
        if kind == FORWARD:
            src = self.position
            if (follow(self.tally, self.user, self.tree, src, to)
                    and self.on_request is not None):
                self.on_request(src, to)
            self.position = to
            return None
        if kind == BACK:
            # back targets were visited this session; cache serves them
            if to not in self.tree:
                raise ProtocolError(f"back to {to!r}, never visited this session")
            self.position = to
            return None
        raise ProtocolError(f"unknown outcome kind {kind!r}")

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
