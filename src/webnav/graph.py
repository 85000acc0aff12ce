"""Browsing substrate: scale-free graph generation and edge-list I/O.

Graphs are stored as a compact immutable index (offset array + neighbor
array, both int32). Construction is single-threaded; the finished
structure is read-only and safe to share across any number of concurrent
walkers.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .errors import ConfigurationError, DataError, ParseError, input_lines, is_decimal


# Node ids and CSR offsets are int32, which also bounds every id by the
# tallies' 31-bit keys: a graph has fewer than 2**31 nodes and edges.
_INT32_LIMIT = 1 << 31


def _check_fits_int32(n: int, edges: int, error) -> None:
    if n >= _INT32_LIMIT or edges >= _INT32_LIMIT:
        raise error(f"a graph of {n} nodes and {edges} edges does not fit int32 "
                    f"arrays: both counts must be below 2**31")


def _as_int32(values, name: str) -> np.ndarray:
    """values as an int32 array, or DataError if one lies outside [0, 2**31)."""
    values = np.asarray(values)
    if values.dtype == np.int32:
        return values
    if not np.issubdtype(values.dtype, np.integer):
        raise DataError(f"graph {name} must be integers, got dtype {values.dtype}")
    if values.size and not (values.min() >= 0 and values.max() < _INT32_LIMIT):
        raise DataError(f"graph {name} must lie in [0, 2**31), got "
                        f"[{int(values.min())}, {int(values.max())}]")
    return values.astype(np.int32)


class WebGraph:
    """Directed graph over dense node ids [0, n) with no dangling nodes.

    Generated graphs carry symmetric links (in-degree == out-degree per
    node); graphs loaded from an edge list without symmetrization are only
    guaranteed strongly connected. offsets and neighbors are held as
    int32, whatever integer arrays are passed in.

    Raises:
        DataError: n or the edge count is not below 2**31, or an offset
            or neighbor is not an integer in [0, 2**31).
    """

    __slots__ = ("n", "offsets", "neighbors", "offsets_view", "neighbors_view")

    def __init__(self, n: int, offsets: np.ndarray, neighbors: np.ndarray):
        self.n = int(n)
        _check_fits_int32(self.n, np.size(neighbors), DataError)
        self.offsets = _as_int32(offsets, "offsets")
        self.neighbors = _as_int32(neighbors, "neighbors")
        # zero-copy views for scalar loops: indexing one yields a Python int
        # without numpy's per-item boxing, and forked workers share the pages
        self.offsets_view = memoryview(self.offsets)
        self.neighbors_view = memoryview(self.neighbors)

    def __reduce__(self):
        # memoryviews cannot be pickled; the constructor rebuilds them
        return (WebGraph, (self.n, self.offsets, self.neighbors))

    @property
    def n_edges(self) -> int:
        """Number of directed adjacency entries."""
        return int(self.neighbors.size)

    def out_neighbors(self, u: int) -> np.ndarray:
        """Adjacency list of u, ascending, stable for the graph's lifetime."""
        if not 0 <= u < self.n:
            raise IndexError(f"node {u} out of range [0, {self.n})")
        return self.neighbors[self.offsets[u]:self.offsets[u + 1]]

    def out_degree(self, u: int) -> int:
        if not 0 <= u < self.n:
            raise IndexError(f"node {u} out of range [0, {self.n})")
        return int(self.offsets[u + 1] - self.offsets[u])

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.neighbors, minlength=self.n)

    def is_symmetric(self) -> bool:
        """Exhaustive check that v in adj(u) iff u in adj(v)."""
        src = np.repeat(np.arange(self.n, dtype=self.neighbors.dtype), self.degrees())
        fwd = {(int(a), int(b)) for a, b in zip(src, self.neighbors)}
        return all((b, a) in fwd for a, b in fwd)


def _csr_from_keys(n: int, key: np.ndarray, degrees: np.ndarray):
    """Offsets and neighbors of the directed edges key = src * n + dst.

    degrees[u] counts the edges leaving u. key (int64) is sorted in place
    and its remainders are written straight into the int32 neighbor array.
    """
    key.sort()
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(degrees, out=offsets[1:])
    return offsets, np.remainder(key, n, out=np.empty(key.size, dtype=np.int32))


def _csr_from_edges(n: int, src: np.ndarray, dst: np.ndarray):
    """Sort directed edges by (src, dst) and build the offset index."""
    key = src.astype(np.int64)  # the one copy; src and dst stay as given
    key *= n
    key += dst
    return _csr_from_keys(n, key, np.bincount(src, minlength=n))


# Arrivals evaluated together before the duplicate check, and uniforms drawn
# from the generator at a time. Neither changes the graph a seed produces.
_BLOCK = 64
_CHUNK = 1 << 16


class _Uniforms:
    """The stream of rng.random() doubles, drawn _CHUNK at a time.

    Generator.random(k) yields the same doubles as k scalar random() calls,
    so chunking leaves the stream unchanged.
    """

    __slots__ = ("_rng", "_buf", "_at")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = np.empty(0)
        self._at = 0

    def peek(self, k: int) -> np.ndarray:
        """The next k uniforms, without consuming them."""
        if self._at + k > self._buf.size:
            fresh = self._rng.random(max(_CHUNK, k))
            self._buf = np.concatenate((self._buf[self._at:], fresh))
            self._at = 0
        return self._buf[self._at:self._at + k]

    def skip(self, k: int) -> None:
        self._at += k

    def next(self) -> float:
        u = self.peek(1)[0]
        self._at += 1
        return u


def generate_scale_free(n: int, m: int, gamma: float, seed: int) -> WebGraph:
    """Grow a symmetric scale-free graph by rank-based attachment.

    Nodes arrive one at a time; node i attaches min(m, i) undirected links
    to existing nodes, choosing the node of age rank R (oldest = rank 1)
    with probability proportional to R^-a where a = 1/(gamma - 1). The
    degree distribution tail then follows P(k) ~ k^-gamma. Duplicate
    targets within one arrival are re-drawn, so adjacency lists carry no
    duplicates and no self-loops, and every node has out-degree >= 1.

    Arrival i draws uniforms u from one rng.random() stream and takes the
    rank searchsorted(prefix, u * total_i, "right"), re-drawing until it
    holds min(m, i) distinct targets. Arrivals are evaluated in vectorized
    blocks over that same stream: a block assumes no re-draw, and the first
    arrival that needs one runs alone before the next block starts. Every
    arrival consumes the same uniforms as a one-at-a-time loop would, so
    the same (n, m, gamma, seed) rebuilds the graph bit-identically.

    Args:
        n: number of nodes, >= m + 1.
        m: undirected links added per arriving node, >= 1. n and the
            m(m+1) + 2m(n-1-m) directed edges must be below 2**31.
        gamma: target degree exponent, finite and > 2.
        seed: RNG seed, >= 0; the same (n, m, gamma, seed) rebuilds the
            graph bit-identically.
    """
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    if n <= m:
        raise ConfigurationError(f"need n >= m + 1, got n={n}, m={m}")
    if not 2 < gamma < math.inf:
        raise ConfigurationError(f"gamma must be finite and exceed 2, got {gamma}")
    if seed < 0:
        raise ConfigurationError(f"seed must be >= 0, got {seed}")
    # arrival i links to min(m, i) nodes; each link is two directed edges
    _check_fits_int32(n, m * (m + 1) + 2 * (n - 1 - m) * m, ConfigurationError)
    a = 1.0 / (gamma - 1.0)
    # prefix[j] = sum of R^-a for ranks R = 1..j+1; when i nodes exist the
    # total attachment weight is prefix[i-1], and rank R maps to node R-1.
    # Searching the whole prefix finds the same rank as prefix[:i], since
    # u * prefix[i-1] <= prefix[i-1]; the clamp to i-1 catches equality.
    prefix = np.cumsum(np.arange(1, n, dtype=np.float64) ** (-a))
    uniforms = _Uniforms(np.random.default_rng(seed))
    arrivals = np.arange(1, n, dtype=np.int32)
    links = np.minimum(arrivals, m)
    dst = np.empty(int(links.sum()), dtype=np.int32)
    pos = 0
    i = 1
    while i < n:
        if i > m:
            rows = min(_BLOCK, n - i)
            top = np.arange(i - 1, i - 1 + rows)[:, None]  # highest id per row
            ranks = np.searchsorted(prefix, uniforms.peek(rows * m).reshape(rows, m)
                                    * prefix[top], side="right")
            np.minimum(ranks, top, out=ranks)
            ranks.sort(axis=1)
            dup = (ranks[:, 1:] == ranks[:, :-1]).any(axis=1)
            ok = int(dup.argmax()) if dup.any() else rows
            dst[pos:pos + ok * m] = ranks[:ok].ravel()
            uniforms.skip(ok * m)
            pos += ok * m
            i += ok
            if ok == rows:
                continue
        # arrivals i <= m, and the first arrival of a block that re-draws
        k = min(m, i)
        total = prefix[i - 1]
        chosen = set()
        while len(chosen) < k:
            r = int(np.searchsorted(prefix, uniforms.next() * total, side="right"))
            chosen.add(min(r, i - 1))  # clamp the u * total == total corner
        dst[pos:pos + k] = sorted(chosen)
        pos += k
        i += 1
    del prefix, uniforms
    # each undirected link (i, t) is the directed edges i -> t and t -> i;
    # node i is the source of its own links and of every link that names it
    degrees = np.bincount(dst, minlength=n)
    degrees[1:] += links
    src = np.repeat(arrivals, links)
    del arrivals, links
    key = np.concatenate((src, dst), dtype=np.int64)  # the one int64 edge array
    key *= n
    key[:src.size] += dst
    key[src.size:] += src
    del src, dst
    offsets, neighbors = _csr_from_keys(n, key, degrees)
    return WebGraph(n, offsets, neighbors)


def load_edge_list(path, symmetrize: bool = False) -> WebGraph:
    """Load a directed edge list and keep its largest strongly connected component.

    The file holds one edge per line as two base-10 unsigned integers in
    ASCII digits, below 2**63, separated by a single space; '#'-prefixed
    lines are comments. With symmetrize set, the reverse of every edge is
    inserted before the SCC extraction. Surviving node ids are
    re-densified to [0, N) preserving their original order, which makes
    write_edge_list(load_edge_list(p)) a byte-identical round trip for
    files that are already one dense SCC in canonical order.

    Raises:
        ParseError: malformed line, an id that is not ASCII digits or not
            below 2**63, or a line holding bytes that are not UTF-8,
            comments too ("{path}:{line}: ...").
        DataError: no edges, the largest SCC has fewer than 2 nodes
            (a single node cannot satisfy the no-dangling invariant), or
            it has 2**31 or more nodes or edges (the arrays are int32).
    """
    # scipy is imported here, its one use: import webnav stays numpy-only
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    src, dst = array("q"), array("q")  # 8 B an id, not a Python int each
    for n, line in input_lines(path, ParseError):
        if line.startswith("#"):
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise ParseError(f"{path}:{n}: expected 'src dst', got {line!r}")
        if not all(map(is_decimal, parts)):
            raise ParseError(f"{path}:{n}: node id not a base-10 unsigned integer "
                             f"in {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if max(u, v) >= 1 << 63:  # ids go into int64 arrays
            raise ParseError(f"{path}:{n}: node id not below 2**63 in {line!r}")
        src.append(u)
        dst.append(v)
    if not src:
        raise DataError(f"no edges in {path}")
    src = np.frombuffer(src, dtype=np.int64)
    dst = np.frombuffer(dst, dtype=np.int64)
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    keep = src != dst  # self-loops violate the graph invariants
    src, dst = src[keep], dst[keep]
    if src.size == 0:
        raise DataError(f"no usable edges in {path} after dropping self-loops")

    # each column here is 8 B an edge: deduplicate each side before the
    # union, and drop every column once it is used
    ids = np.union1d(np.unique(src), np.unique(dst))
    u = np.searchsorted(ids, src)
    v = np.searchsorted(ids, dst)
    del src, dst
    pair = u * ids.size
    pair += v
    del u, v
    u, v = np.divmod(np.unique(pair), ids.size)  # each directed pair once
    del pair

    adj = csr_matrix((np.ones(u.size, dtype=np.int8), (u, v)),
                     shape=(ids.size, ids.size))
    n_comp, labels = connected_components(adj, directed=True, connection="strong")
    del adj
    biggest = int(np.bincount(labels).argmax())
    members = np.flatnonzero(labels == biggest)
    if members.size < 2:
        raise DataError(
            f"largest strongly connected component of {path} has "
            f"{members.size} node(s); need >= 2 for a dangling-free graph")

    remap = np.full(ids.size, -1, dtype=np.int64)
    remap[members] = np.arange(members.size)
    u = remap[u]  # -1 outside the component
    v = remap[v]
    inside = (u >= 0) & (v >= 0)
    u, v = u[inside], v[inside]
    del inside
    offsets, neighbors = _csr_from_edges(members.size, u, v)
    return WebGraph(members.size, offsets, neighbors)


def write_edge_list(graph: WebGraph, path) -> None:
    """Write directed edges sorted by (source, target), one per line, LF."""
    with open(path, "wt", encoding="utf-8", newline="\n") as fh:
        offsets, neighbors = graph.offsets, graph.neighbors
        for u in range(graph.n):
            for v in neighbors[offsets[u]:offsets[u + 1]]:
                fh.write(f"{u} {v}\n")
