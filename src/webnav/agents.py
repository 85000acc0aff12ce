"""The three navigation models as per-step state machines.

Each step function takes (state, graph, params), mutates the agent state,
and returns the move as a plain (kind, page) tuple, kind one of TELEPORT,
FORWARD or BACK. Agent states are confined to one worker each; the graph
and params are shared read-only.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import ConfigurationError

TELEPORT = "teleport"
FORWARD = "forward"
BACK = "back"


@dataclass(frozen=True)
class ModelParams:
    """Model parameters; defaults follow the reference settings.

    p_t: teleport probability per click (PageRank, BookRank).
    beta: bookmark rank-selection exponent, P(R) ~ R^-beta.
    p_b: back-button probability (ABC).
    e0: energy granted at each session start (ABC).
    c_f / c_b: forward / back click energy costs (ABC).
    eta: topical-locality half-width; relevance multiplies by 1 + U[-eta, eta].
    delta0: relevance assigned to each session's starting page.
    """

    p_t: float = 0.15
    beta: float = 1.33
    p_b: float = 0.5
    e0: float = 0.5
    c_f: float = 1.0
    c_b: float = 0.5
    eta: float = 0.15
    delta0: float = 1.0

    def validate(self) -> "ModelParams":
        if not 0.0 <= self.p_t <= 1.0:
            raise ConfigurationError(f"p_t must be in [0, 1], got {self.p_t}")
        if not 0.0 <= self.p_b < 1.0:
            raise ConfigurationError(f"p_b must be in [0, 1), got {self.p_b}")
        if self.beta <= 0.0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        if self.c_f < 0.0 or self.c_b < 0.0:
            raise ConfigurationError("click costs must be non-negative")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigurationError(f"eta must be in [0, 1), got {self.eta}")
        # delta0 == 0 is allowed: it is the degenerate fixed-click-budget mode.
        if self.delta0 < 0.0:
            raise ConfigurationError(f"delta0 must be >= 0, got {self.delta0}")
        return self


class ZipfRankTable:
    """Lazily extended cumulative weights for rank selection P(R) ~ R^-beta.

    One table serves any number of agents in the same worker; it only
    grows, and sampling is exact for every list length L.
    """

    def __init__(self, beta: float):
        self.beta = beta
        self._cum = [0.0]  # _cum[r] = sum of k^-beta for k = 1..r

    def _extend(self, length: int) -> None:
        cum = self._cum
        while len(cum) <= length:
            r = len(cum)
            cum.append(cum[-1] + r ** (-self.beta))

    def sample_rank(self, length: int, rng: random.Random) -> int:
        if length < 1:
            raise ValueError("cannot sample a rank from an empty list")
        self._extend(length)
        u = rng.random() * self._cum[length]
        return bisect_right(self._cum, u, 1, length)

    def rank_probabilities(self, length: int):
        """Exact selection probabilities for ranks 1..length."""
        self._extend(length)
        total = self._cum[length]
        return [(self._cum[r] - self._cum[r - 1]) / total for r in range(1, length + 1)]


class BookmarkList:
    """Pages ranked by visit count, descending; ties keep first-visit order.

    Stored as parallel lists sorted ascending by the key (-count, first
    visit sequence), so both lookup and re-ranking after an increment are
    binary searches plus one list move.
    """

    __slots__ = ("_pages", "_keys", "_count", "_first", "_next_seq")

    def __init__(self):
        self._pages = []
        self._keys = []
        self._count = {}
        self._first = {}
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page) -> bool:
        return page in self._count

    def page_at_rank(self, rank: int):
        """Page holding 1-based rank."""
        return self._pages[rank - 1]

    def visits(self, page) -> int:
        return self._count.get(page, 0)

    def entries(self):
        """(page, visits) pairs in rank order."""
        return [(p, self._count[p]) for p in self._pages]

    def touch(self, page) -> None:
        """Record one visit: insert with count 1 or bump and re-rank."""
        c = self._count.get(page)
        if c is None:
            # count 1 and the newest first-visit stamp sort last
            self._count[page] = 1
            self._first[page] = self._next_seq
            self._keys.append((-1, self._next_seq))
            self._pages.append(page)
            self._next_seq += 1
            return
        f = self._first[page]
        i = bisect_left(self._keys, (-c, f))
        self._pages.pop(i)
        self._keys.pop(i)
        key = (-(c + 1), f)
        j = bisect_right(self._keys, key, 0, i)
        self._pages.insert(j, page)
        self._keys.insert(j, key)
        self._count[page] = c + 1


def bookmark_sample(bookmarks: BookmarkList, beta: float, rng: random.Random,
                    table: ZipfRankTable | None = None):
    """Draw a page from the list with rank probability R^-beta / Z_L."""
    if len(bookmarks) == 0:
        raise ValueError("cannot sample from an empty bookmark list")
    if table is None or table.beta != beta:
        table = ZipfRankTable(beta)
    return bookmarks.page_at_rank(table.sample_rank(len(bookmarks), rng))


class AgentState:
    """Mutable per-agent walker state; confined to a single worker."""

    __slots__ = ("agent_id", "rng", "current", "bookmarks", "zipf",
                 "energy", "history", "session_delta", "session_seen")

    def __init__(self, agent_id: int, rng: random.Random,
                 zipf: ZipfRankTable | None = None):
        self.agent_id = agent_id
        self.rng = rng
        self.current = None          # None until the first teleport
        self.bookmarks = BookmarkList()
        self.zipf = zipf
        self.energy = 0.0
        self.history = []            # current-session back stack
        self.session_delta = {}      # page -> relevance, this session only
        self.session_seen = set()


def agent_rng(master_seed: int, agent_id: int) -> random.Random:
    """Deterministic per-agent stream derived from (master seed, agent id)."""
    digest = hashlib.sha256(f"webnav:{master_seed}:{agent_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def make_agent(agent_id: int, master_seed: int, params: ModelParams,
               zipf: ZipfRankTable | None = None) -> AgentState:
    if zipf is None:
        zipf = ZipfRankTable(params.beta)
    return AgentState(agent_id, agent_rng(master_seed, agent_id), zipf)


def _uniform_neighbor(state: AgentState, graph) -> int:
    off, nbr = graph.py_adjacency()
    u = state.current
    lo = off[u]
    return nbr[lo + state.rng.randrange(off[u + 1] - lo)]


def pagerank_step(state: AgentState, graph, params: ModelParams) -> tuple[str, int]:
    """Memoryless walker: teleport uniformly with p_t, else follow a random link.

    A teleport ends the current session. The first step of a fresh agent is
    always a uniform teleport (the initial page pick).
    """
    rng = state.rng
    if state.current is None or rng.random() < params.p_t:
        v = rng.randrange(graph.n)
        state.current = v
        return TELEPORT, v
    v = _uniform_neighbor(state, graph)
    state.current = v
    return FORWARD, v


def bookrank_step(state: AgentState, graph, params: ModelParams) -> tuple[str, int]:
    """Bookmark walker: teleports go to a rank-selected bookmark.

    Every arrival (forward or teleport) increments the target's bookmark
    visit count. A fresh agent teleports to a uniformly random page, which
    becomes its first bookmark.
    """
    rng = state.rng
    if state.current is None:
        v = rng.randrange(graph.n)
        state.bookmarks.touch(v)
        state.current = v
        return TELEPORT, v
    if rng.random() < params.p_t:
        v = bookmark_sample(state.bookmarks, params.beta, rng, state.zipf)
        state.bookmarks.touch(v)
        state.current = v
        return TELEPORT, v
    v = _uniform_neighbor(state, graph)
    state.bookmarks.touch(v)
    state.current = v
    return FORWARD, v


def abc_step(state: AgentState, graph, params: ModelParams) -> tuple[str, int]:
    """Energy-driven walker with bookmarks, back button, and topical locality.

    Teleports happen only when energy is exhausted (E <= 0); they reset the
    energy to e0 and clear all per-session state. Otherwise the agent backs
    up with probability p_b (paying c_b; at the session root the press is a
    costly no-move), or follows a random link paying c_f. First visits in a
    session draw relevance from the referrer's, delta_to = delta_from *
    (1 + eps) with eps uniform in [-eta, eta], and add it to the energy;
    revisits within the session yield nothing.
    """
    rng = state.rng
    if state.current is None or state.energy <= 0.0:
        if state.current is None:
            v = rng.randrange(graph.n)
        else:
            v = bookmark_sample(state.bookmarks, params.beta, rng, state.zipf)
        state.bookmarks.touch(v)
        state.current = v
        state.energy = params.e0
        state.history.clear()
        state.session_seen = {v}
        state.session_delta = {v: params.delta0}
        return TELEPORT, v
    if rng.random() < params.p_b:
        state.energy -= params.c_b
        if state.history:
            v = state.history.pop()
            state.current = v
            return BACK, v
        return BACK, state.current  # back at the root: cost paid, no move
    v = _uniform_neighbor(state, graph)
    state.history.append(state.current)
    if v not in state.session_seen:
        eps = rng.uniform(-params.eta, params.eta)
        dv = state.session_delta[state.current] * (1.0 + eps)
        state.session_delta[v] = dv
        state.session_seen.add(v)
        state.energy += dv - params.c_f
    else:
        state.energy -= params.c_f
    state.bookmarks.touch(v)
    state.current = v
    return FORWARD, v


STEP_FUNCTIONS = {
    "pagerank": pagerank_step,
    "bookrank": bookrank_step,
    "abc": abc_step,
}
