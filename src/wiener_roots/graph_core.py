"""Graphs as bitset adjacency rows: parsing, distances, exhaustive enumeration.

Distance distributions are `WienerPolynomial` values: d[k-1] unordered
pairs at distance k, and the degree is the diameter.

Vertices are integers 0..n-1 and each adjacency row is a Python int whose
bit u says whether {u, v} is an edge.  The distances of one graph come from
one multi-source traversal: every vertex's ball, a bit row, grows by one
radius per step.  graph6_distributions grows the balls of many graph6
records of order 2..62 together in numpy, one uint64 word per ball, and is
the only caller of that kernel (_grow_pieces, _ball_growth).  The
exhaustive sweeps, over all labeled graphs up to order 8 and all free trees
up to order 18, compute theirs in numpy batches too.

Free trees are composed, not filtered: a single-centroid tree is its
centroid plus a non-increasing list of rooted blocks, the canonical rooted
trees of at most (n-1)//2 vertices, and a bicentroid tree is a pair of
canonical rooted trees of order n/2.  Each comes out as a preorder parent row.
enumerate_trees runs Graph's checks on the adjacency words of _TREE_CHUNK
trees at once in numpy, so its Graphs skip the per-object check loop.

The labeled sweep gets its distances by vertex augmentation, a million edge
masks at a time.  The top C(n,2) - C(n-1,2) bits of a mask join the last
vertex w to a set s of the others, and the rest is a graph H of order n-1.
One Floyd-Warshall pivot on w gives the distances of H + w from those of H:
d(u, w) = D(u) = 1 + min over a in s of d_H(u, a), and d(u, v) is the smaller
of d_H(u, v) and D(u) + D(v).  The distances of H come, pair-major in
contiguous uint8 rows, from the same step one order down.  A chunk is
counted one tile of at most 2^15 masks at a time: each tile's pairs fill one
(C(n,2), tile) uint8 table, small enough to stay in cache, and one compare
plus one column sum over the whole table counts each distance.  Each chunk's
distance vectors are packed into int64 keys, the connected masks' keys are
deduplicated by an in-place sort, and only the distinct keys are decoded and
checked.  A sweep with jobs > 1 and more than one chunk of masks splits them
over a process pool, and only such a sweep imports ProcessPoolExecutor, so
no other command loads multiprocessing.

Free trees get their distances in batches instead of one traversal each.  A
tree numbered in preorder, as enumerate_trees numbers it, is its parent row:
every vertex v >= 1 has exactly one lower-numbered neighbour, which
tree_parent_array reads off a chunk of adjacency words at once.  For a chunk
of such rows, step v fills row and column v of an (n, n, trees) uint8
distance array by dist(v, u) = dist(parent(v), u) + 1 for every u < v, and
one compare and sum per distance gives each tree's pair counts.

Graphs must be connected for the distance distribution to exist; single-graph
operations raise DisconnectedGraphError, while the exhaustive sweeps count
and skip disconnected instances.
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Iterator, Sequence

import numpy as np

from .polynomial import WienerPolynomial


class DisconnectedGraphError(ValueError):
    """The operation needs a connected graph and the input is not."""


class Graph6Error(ValueError):
    """Malformed graph6 record."""


GRAPH6_MAX_ORDER = 62  # single-byte length form only
_GRAPH6_HEADER = ">>graph6<<"
_OUTSIDE_GRAPH6 = re.compile("[^?-~]")
GRAPH_MAX_ORDER = 1 << 14  # largest graph built from edges: bit rows of 32 MB at most
ENUMERATION_MAX_ORDER = 8
TREE_MAX_ORDER = 18


def _iter_bits(x: int) -> Iterator[int]:
    """Yield the set bit positions of x in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on n labeled vertices, adjacency as bit rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph order must be >= 1, got {self.n}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency must have one row per vertex")
        adj = self.adj
        mask = (1 << self.n) - 1
        for v, row in enumerate(adj):
            if row & ~mask:
                raise ValueError(f"row {v} has bits beyond vertex range")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            while row:  # every neighbour u, lowest first, as _iter_bits gives them
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at {{{u},{v}}}")
                row ^= low

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for v in range(self.n) for u in _iter_bits(self.adj[v]) if u < v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[v] >> u & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def is_connected(self) -> bool:
        return _breadth_first(self, 0)[1] == (1 << self.n) - 1

    def is_tree(self) -> bool:
        return self.edge_count == self.n - 1 and self.is_connected()


def _prechecked_graph(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph whose rows have passed Graph's checks already, made without
    running them again (enumerate_trees, after _check_tree_words)."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


@dataclass(frozen=True)
class EnumerationStats:
    """Bookkeeping for one exhaustive labeled-graph sweep."""

    order: int
    instances_examined: int
    distinct_distributions: int

    def __post_init__(self) -> None:
        if self.distinct_distributions > self.instances_examined:
            raise ValueError("cannot have more distributions than instances")


# ---------------------------------------------------------------------------
# Construction and parsing
# ---------------------------------------------------------------------------


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on n vertices from 0-indexed edge pairs (duplicates collapse),
    read in one pass."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex pair ({u},{v}) out of range for order {n}")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def parse_graph6(text: str) -> Graph:
    """Decode a one-line graph6 record (orders 1..62, optional standard header):
    `_graph6_payload` and `_graph6_words` on this one record."""
    n, payload = _graph6_payload(text)
    words, padded = _graph6_words(n, [payload])
    if padded[0]:
        raise Graph6Error(_GRAPH6_PADDING)
    return Graph(n, tuple(words[0].tolist()))


_GRAPH6_PADDING = "nonzero padding bits in final character"


def _graph6_payload(text: str) -> tuple[int, str]:
    """(order, payload characters) of a graph6 record, or Graph6Error for
    the first check it fails: empty, a character outside 63..126, the
    multi-byte order form, order 0, the payload length.  `_graph6_words`
    checks the padding bits."""
    line = text.strip()
    if line.startswith(_GRAPH6_HEADER):
        line = line[len(_GRAPH6_HEADER):]
    if not line:
        raise Graph6Error("empty graph6 record")
    bad = _OUTSIDE_GRAPH6.search(line)
    if bad:
        raise Graph6Error(f"character code {ord(bad.group())} outside graph6 range 63..126")
    n = ord(line[0]) - 63
    if n > GRAPH6_MAX_ORDER:
        raise Graph6Error("multi-byte order encodings (order > 62) are not supported")
    if n == 0:
        raise Graph6Error("order-0 graph6 records are not supported")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(line) - 1 != need:
        raise Graph6Error(f"order {n} needs {need} payload characters, got {len(line) - 1}")
    return n, line[1:]


def _graph6_words(n: int, payloads: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency words of the order-n graphs with these graph6 payloads,
    one numpy pass for all: a (records, n) uint64 array whose word v has bit
    u set for each edge {u, v}, and whether each record sets a padding bit.

    Each character carries six bits, high bit first, and the pairs
    (0,v), ..., (v-1,v) of column v are the v bits from v(v-1)/2 on.
    """
    six = np.frombuffer("".join(payloads).encode("ascii"), dtype=np.uint8) - 63
    bits = np.unpackbits(six.reshape(len(payloads), len(payloads[0]), 1), axis=2)[:, :, 2:]
    bits = bits.reshape(len(payloads), -1)
    pairs = n * (n - 1) // 2
    v = np.repeat(np.arange(n), np.arange(n))
    u = np.arange(pairs) - v * (v - 1) // 2
    matrix = np.zeros((len(payloads), n, _WORD_ORDER), dtype=np.uint8)
    matrix[:, v, u] = matrix[:, u, v] = bits[:, :pairs]
    words = np.packbits(matrix, axis=2, bitorder="little").view("<u8")[:, :, 0]
    return words.astype(np.uint64), bits[:, pairs:].any(axis=1)


def load_edge_list(lines: Sequence[str], name: str = "<edge list>") -> Graph:
    """Parse the plain fixture format: first line n, then one 'u v' pair per line."""
    rows = [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise ValueError(f"{name}: empty edge-list input")
    n = int(rows[0])
    if n > GRAPH_MAX_ORDER:
        raise ValueError(f"{name}: order {n} is above the supported {GRAPH_MAX_ORDER}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{name}: bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return from_edge_list(n, edges)


_FIXTURES = (
    "min_imaginary_graph",
    "min_tree_root_i",
    "extremal_real_tree_16",
    "extremal_real_tree_17",
)


def fixture_names() -> tuple[str, ...]:
    return _FIXTURES


def load_fixture(name: str) -> Graph:
    """Load one of the shipped edge-list fixtures by name."""
    if name not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; have {_FIXTURES}")
    text = resources.files("wiener_roots.data").joinpath(f"{name}.edges").read_text()
    return load_edge_list(text.splitlines(), name=name)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


_ORDER_ONE = "distance distribution needs order >= 2"
_DISCONNECTED = "distance distribution undefined for disconnected graphs"


def distance_distribution(g: Graph) -> WienerPolynomial:
    """Wiener polynomial: unordered pairs by distance, all balls grown at once.

    balls[u] is the set of vertices within distance k of u, as a bit row.  One
    step takes every ball from radius k to k+1 together: the new ball of u is
    the union of the old balls of u and of its neighbours.  The rise of the
    total popcount in that step counts the ordered pairs at distance k+1.  A
    ball that does not grow is its whole component and is not grown again;
    the steps end when no ball grows, and the graph is disconnected exactly
    when the balls then hold fewer than n^2 bits in all.
    """
    n = g.n
    if n < 2:
        raise ValueError(_ORDER_ONE)
    nbrs = [tuple(_iter_bits(row)) for row in g.adj]
    balls = [1 << u for u in range(n)]
    growing = range(n)
    counts = []  # ordered pairs at distance 1, 2, ...
    total = n
    while True:
        grown = []
        for u in growing:
            ball = balls[u]
            for v in nbrs[u]:
                ball |= balls[v]
            if ball != balls[u]:
                grown.append((u, ball))
        if not grown:
            break
        rise = 0
        for u, ball in grown:
            rise += ball.bit_count() - balls[u].bit_count()
            balls[u] = ball
        counts.append(rise)
        total += rise
        growing = [u for u, _ in grown]
    if total != n * n:
        raise DisconnectedGraphError(_DISCONNECTED)
    w = WienerPolynomial(tuple(x // 2 for x in counts))
    if sum(w.d) != n * (n - 1) // 2:
        raise RuntimeError(f"pair counts sum to {sum(w.d)}, expected C({n},2)")
    return w


_WORD_ORDER = 64  # one ball per uint64 word
# Words per _ball_growth batch: its index arrays and gathered balls stay
# near 100 KB however many graphs there are.
_BALL_CHUNK = 1 << 12
_M1, _M2, _M4 = (np.uint64(m) for m in (0x5555555555555555, 0x3333333333333333,
                                         0x0F0F0F0F0F0F0F0F))
_BYTES_ONE = np.uint64(0x0101010101010101)


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each uint64, by the SWAR sums of Hacker's Delight, section 5-1."""
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return (x * _BYTES_ONE) >> np.uint64(56)


def graph6_distributions(records: Sequence[str]) -> list[WienerPolynomial | ValueError]:
    """For each graph6 record, the distance_distribution of its graph, the
    ValueError that raises, or the Graph6Error of a malformed record: each
    as parse_graph6 and then distance_distribution give it, in order.

    `_graph6_payload` checks each record.  The payloads of one order are
    decoded by `_graph6_words` in chunks of at most _BALL_CHUNK vertices,
    straight into the words `_ball_growth` reads, with no Graph made.
    """
    out: list = [None] * len(records)
    by_order: dict[int, list[tuple[int, str]]] = {}
    for i, record in enumerate(records):
        try:
            n, payload = _graph6_payload(record)
        except Graph6Error as exc:
            out[i] = exc
            continue
        by_order.setdefault(n, []).append((i, payload))

    def pieces() -> Iterator[tuple[list[int], int, np.ndarray]]:
        for n, found in by_order.items():
            step = _BALL_CHUNK // n
            for chunk in (found[lo:lo + step] for lo in range(0, len(found), step)):
                words, padded = _graph6_words(n, [payload for _, payload in chunk])
                for (i, _), bad in zip(chunk, padded.tolist()):
                    if bad:
                        out[i] = Graph6Error(_GRAPH6_PADDING)
                    elif n == 1:
                        out[i] = ValueError(_ORDER_ONE)
                good = ~padded
                if n > 1 and good.any():
                    yield ([i for (i, _), ok in zip(chunk, good) if ok], n,
                           words[good].ravel())

    _grow_pieces(pieces(), out)
    return out


def _grow_pieces(pieces: Iterable[tuple[list[int], int, np.ndarray]], out: list) -> None:
    """`_ball_growth` into out for each piece of graph6_distributions, its
    only feeder: (positions in out, the graphs' common order 2..62, their
    adjacency words end to end, at most _BALL_CHUNK of them), over batches
    of at most _BALL_CHUNK words.  The pieces are read as the batches fill."""
    batch: list[tuple[list[int], int, np.ndarray]] = []
    size = 0
    for piece in itertools.chain(pieces, [None]):
        if batch and (piece is None or size + piece[2].size > _BALL_CHUNK):
            orders = np.repeat([n for _, n, _ in batch], [len(at) for at, _, _ in batch])
            grown = _ball_growth(orders, np.concatenate([adj for _, _, adj in batch]))
            for i, result in zip((i for at, _, _ in batch for i in at), grown):
                out[i] = result
            batch, size = [], 0
        if piece is not None:
            batch.append(piece)
            size += piece[2].size


def _ball_growth(orders: np.ndarray, adj: np.ndarray) -> list[WienerPolynomial | ValueError]:
    """distance_distribution of each graph, or its ValueError, for graphs of
    order 2..62 grown all at once: graph j has order orders[j], and adj
    holds the adjacency words of all the graphs, end to end.  Its graphs
    come from graph6_distributions, through _grow_pieces.

    Every ball is one uint64 word, and the words of all the graphs are laid
    end to end.  Each vertex's closed neighbourhood is one segment of an
    index array, itself first, so one np.bitwise_or.reduceat over the
    gathered balls grows every ball by one radius, and np.add.reduceat over
    the popcounts of the new bits gives each graph's ordered pairs at the
    next distance.  A graph none of whose balls grows stays as it is, so
    its segments leave the index array in that step, the steps end when no
    ball of any graph grows, and each graph's counts are its nonzero ones.
    The neighbour indices are peeled off the adjacency words lowest bit
    first, one pass per neighbour rank.
    """
    first = np.cumsum(orders) - orders  # each graph's first vertex
    base = np.repeat(first, orders)     # and each vertex's
    vertex = np.arange(len(adj))
    balls = np.left_shift(np.uint64(1), (vertex - base).astype(np.uint64))
    degree = _popcount(adj).astype(np.intp)
    segment = np.cumsum(degree + 1) - (degree + 1)
    closed = np.empty(len(adj) + int(degree.sum()), dtype=np.intp)
    closed[segment] = vertex
    slot, rest = segment + 1, adj.copy()
    peel = np.flatnonzero(rest)
    while peel.size:
        word = rest[peel]
        low = word & (~word + np.uint64(1))
        # low is a power of two, so its float conversion and exponent are exact
        closed[slot[peel]] = base[peel] + np.frexp(low.astype(float))[1] - 1
        slot[peel] += 1
        rest[peel] = word ^ low
        peel = peel[rest[peel] != 0]
    table = np.zeros((_WORD_ORDER, len(orders)), dtype=np.int64)  # ordered pairs
    live, members, sizes = np.arange(len(orders)), vertex, orders  # at distance 1, 2, ...
    for step in range(_WORD_ORDER):  # diameters are at most 63
        grown = np.bitwise_or.reduceat(balls[closed], segment)
        rise = np.add.reduceat(_popcount(grown ^ balls[members]), first)
        table[step, live] = rise
        balls[members] = grown
        done = rise == 0
        if done.all():
            break
        if done.any():  # those graphs stop growing for good: drop their segments
            keep = np.repeat(~done, sizes)
            closed = closed[np.repeat(keep, degree[members] + 1)]
            live, members, sizes = live[~done], members[keep], sizes[~done]
            segment = np.cumsum(degree[members] + 1) - (degree[members] + 1)
            first = np.cumsum(sizes) - sizes
    else:
        raise RuntimeError(f"balls still grow after {_WORD_ORDER} steps")
    outcomes: list = []
    steps = np.count_nonzero(table, axis=0).tolist()
    for n, column, k in zip(orders.tolist(), table.T.tolist(), steps):
        counts = column[:k]
        if n + sum(counts) != n * n:
            outcomes.append(DisconnectedGraphError(_DISCONNECTED))
            continue
        w = WienerPolynomial(tuple(x // 2 for x in counts))
        if sum(w.d) != n * (n - 1) // 2:
            raise RuntimeError(f"pair counts sum to {sum(w.d)}, expected C({n},2)")
        outcomes.append(w)
    return outcomes


def _breadth_first(g: Graph, v: int) -> tuple[int, int]:
    """(greatest distance from v, bit row of v's component), by one BFS over
    the bit rows."""
    seen = frontier = 1 << v
    levels = 0
    while True:
        nxt = 0
        for u in _iter_bits(frontier):
            nxt |= g.adj[u]
        frontier = nxt & ~seen
        if not frontier:
            return levels, seen
        seen |= frontier
        levels += 1


def eccentricity(g: Graph, v: int) -> int:
    """Greatest distance from v to a vertex, by one BFS: at most the diameter
    and at least half of it, without the distance distribution's work.
    DisconnectedGraphError when some vertex is out of reach."""
    e, seen = _breadth_first(g, v)
    if seen != (1 << g.n) - 1:
        raise DisconnectedGraphError(_DISCONNECTED)
    return e


def diameter(g: Graph) -> int:
    """Length of the longest shortest path (0 for the one-vertex graph)."""
    if g.n == 1:
        return 0
    return distance_distribution(g).degree


_NOT_PREORDER = "vertex {} does not have exactly one lower-numbered neighbour"


_TREE_CHUNK = 512


def tree_parent_array(trees: Iterable[Graph]) -> np.ndarray:
    """parent[v] for v = 1..n-1 of every tree, as one (trees, n-1) intp array.

    Each tree must be numbered in preorder, as enumerate_trees numbers it:
    every vertex v >= 1 has exactly one lower-numbered neighbour, its parent.
    There must be at least one tree, and all share one order n <= 64.
    Their adjacency rows are stacked _TREE_CHUNK trees at a time into one
    (trees, n) uint64 array, and each vertex v >= 1 is read off it in numpy:
    word v masked to the bits below v must be a single bit, whose position
    is the parent.  Any other numbering raises RuntimeError, also under
    python -O.
    """
    trees = iter(trees)
    parts = []
    while chunk := list(itertools.islice(trees, _TREE_CHUNK)):
        words = np.array([g.adj for g in chunk], dtype=np.uint64)
        bit = np.left_shift(np.uint64(1), np.arange(1, words.shape[1], dtype=np.uint64))
        lower = words[:, 1:] & (bit - np.uint64(1))  # word v's bits below v
        stray = (lower == 0) | (lower & (lower - np.uint64(1)) != 0)
        if stray.any():
            _, v = np.argwhere(stray)[0].tolist()
            raise RuntimeError(_NOT_PREORDER.format(v + 1))
        parts.append(_popcount(lower - np.uint64(1)).astype(np.intp))
    return np.concatenate(parts)


def _tree_chunk_distributions(parents: np.ndarray) -> list[tuple[int, ...]]:
    """Distance vectors of a chunk of trees given as an (m, n-1) parent array.

    dist[a, b, t] is the distance of a and b in tree t, trees innermost, so
    each step reads and writes runs of m bytes.  It starts as 0xFF off the
    diagonal, and step v fills row and column v of every tree at once by
    dist(v, u) = dist(parent(v), u) + 1 for u < v.  A parent that does not
    precede its child reads an unfilled entry, which wraps to distance 0 and
    fails the pair-count check.
    """
    m, n = parents.shape[0], parents.shape[1] + 1
    dist = np.full((n, n, m), 0xFF, dtype=np.uint8)
    diag = np.arange(n)
    dist[diag, diag] = 0
    flat = dist.reshape(-1)
    start = parents.T * (n * m) + np.arange(m)  # where dist[parent(v), 0, t] sits
    for v in range(1, n):
        row = flat.take(start[v - 1] + (np.arange(v) * m)[:, None])
        row += 1
        dist[v, :v] = row
        dist[:v, v] = row
    below = dist[np.tril_indices(n, -1)]  # (pairs, trees)
    # one compare and count per distance, in the least unsigned type that
    # holds C(n,2); past order 256 the counts stop at distance 255, and a pair
    # at distance 256 wraps to 0 and fails the check
    pairs = n * (n - 1) // 2
    acc = np.min_scalar_type(pairs)
    counts = np.stack([(below == k).sum(axis=0, dtype=acc)
                       for k in range(1, min(n, 256))], axis=1)
    if not np.all(counts.sum(axis=1) == pairs):
        raise RuntimeError(f"tree pair counts do not sum to C({n},2)")
    diameters = counts.shape[1] - np.argmax(counts[:, ::-1] > 0, axis=1)
    return [tuple(d[:k]) for d, k in zip(counts.tolist(), diameters.tolist())]


def tree_distributions(parents: np.ndarray) -> Iterator[tuple[int, ...]]:
    """Distance vector of each tree, in order, from a (trees, n-1) parent
    array such as tree_parent_array's.

    The kernel takes _TREE_CHUNK rows of it at a time, so its memory stays
    flat however many trees there are.  Same vectors as
    distance_distribution(g).d, without a traversal per tree.
    """
    if parents.shape[1] == 0:
        raise ValueError(_ORDER_ONE)
    for lo in range(0, len(parents), _TREE_CHUNK):
        yield from _tree_chunk_distributions(parents[lo:lo + _TREE_CHUNK])


# ---------------------------------------------------------------------------
# Exhaustive labeled-graph enumeration (vectorized over edge masks)
# ---------------------------------------------------------------------------

_CHUNK = 1 << 20
# Masks per pair table: at orders 7-8 such a table is 0.7-0.9 MB, so it and
# its compare buffer can stay in a core's L2 cache while they are counted.
_TILE = 1 << 15
# Distance of an unreachable pair: above every distance at order <= 8, and
# the sum of two of them still fits in a uint8.
_INF = 0x7F


def _edge_bit_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for v in range(1, n) for u in range(v)]


def _pair_row(u: int, v: int) -> int:
    """Row of the pair {u, v}, u != v, in _edge_bit_pairs order (its edge bit)."""
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def _reach(h: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """Distances to a new vertex w joined to the vertex set s of each graph H.

    h holds the pair distances of labeled graphs H on vertices 0..w-1, one
    row per pair in _edge_bit_pairs order and one column per graph.  Row u
    of out gets d(u, w) = 1 + min over a in s of d_H(u, a), which is _INF
    when no vertex of s is reachable from u.
    """
    nbrs = list(_iter_bits(s))
    for u, row in enumerate(out):
        if s >> u & 1:
            row.fill(1)
        elif not nbrs:
            row.fill(_INF)
        else:
            np.copyto(row, h[_pair_row(u, nbrs[0])])
            for a in nbrs[1:]:
                np.minimum(row, h[_pair_row(u, a)], out=row)
            row += 1
            np.minimum(row, _INF, out=row)  # clamp: an unreachable u stays _INF
    return out


def _pair_rows(h: np.ndarray, reach: np.ndarray, rows: Iterable[np.ndarray]
               ) -> Iterator[np.ndarray]:
    """Distances of the pairs of H in H + w, written into rows and yielded one by one.

    A shortest path passes w at most once, and its two parts avoid w, so
    d(u, v) = min(d_H(u, v), d(u, w) + d(v, w)) with reach[u] = d(u, w).
    """
    for (u, v), h_row, row in zip(_edge_bit_pairs(len(reach)), h, rows):
        np.add(reach[u], reach[v], out=row)
        np.minimum(h_row, row, out=row)
        yield row


def _augmented_blocks(n: int, start: int, stop: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """(column, s, h) for each tile of masks in [start, stop) with one neighbour set.

    Mask bits above C(n-1,2) are the edges of w = n-1, so the run with
    neighbour set s covers masks (s << C(n-1,2)) | h over a range of order
    n-1 masks h.  A window that covers every order n-1 mask takes their
    distances from one full table; a shorter one spans at most two runs and
    builds each run's range on its own.  Each run's table is then cut at the
    multiples of _TILE within the run, so a tile has at most _TILE columns
    and h is a slice of the run's table.
    """
    inner = (n - 1) * (n - 2) // 2
    size = 1 << inner
    table = _pair_distances(n - 1, 0, size) if stop - start >= size else None
    pos = start
    while pos < stop:
        s, lo = divmod(pos, size)
        hi = min(stop - (s << inner), size)
        run = table[:, lo:hi] if table is not None else _pair_distances(n - 1, lo, hi)
        cuts = [lo, *range(lo - lo % _TILE + _TILE, hi, _TILE), hi]
        for a, b in itertools.pairwise(cuts):
            yield pos - start + a - lo, s, run[:, a - lo:b - lo]
        pos += hi - lo


def _augment(h: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """Fill out, (C(w+1,2), width), with the pair distances of each H + w.

    The pairs of H take the first rows and the pairs of w the last w, in
    _edge_bit_pairs order; returns those last rows, d(u, w) for u < w.
    """
    reach = _reach(h, s, out[h.shape[0]:])
    for _ in _pair_rows(h, reach, out):  # each row lands in out
        pass
    return reach


def _pair_distances(n: int, start: int, stop: int) -> np.ndarray:
    """(C(n,2), stop - start) uint8 pair distances of masks [start, stop) at order n.

    Built by augmenting from order 1, one vertex at a time; an unreachable
    pair holds _INF.  The pairs of vertex n-1 are the last n-1 rows.
    """
    out = np.empty((n * (n - 1) // 2, stop - start), dtype=np.uint8)
    if n > 1:
        for col, s, h in _augmented_blocks(n, start, stop):
            _augment(h, s, out[:, col:col + h.shape[1]])
    return out


def _chunk_distance_counts(n: int, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair counts by distance for every mask in [start, stop), and connectivity.

    Each tile of at most _TILE masks sharing the neighbour set s of the last
    vertex w = n-1 takes the order-(n-1) distances of its range, adds w by
    one Floyd-Warshall pivot (_augment) into a (C(n,2), tile) pair table,
    and counts each distance k over the whole table with one compare and one
    column sum.  Row k of the returned (n-1, m) uint8 array counts the
    unordered pairs at distance k+1, and a mask is connected iff w reaches
    every other vertex.
    """
    target = n * (n - 1) // 2
    m = stop - start
    counts = np.empty((n - 1, m), dtype=np.uint8)
    connected = np.empty(m, dtype=bool)
    # flat, so that the table of a tile shorter than _TILE is contiguous too
    table = np.empty(target * min(m, _TILE), dtype=np.uint8)
    hit = np.empty(table.size, dtype=bool)
    for col, s, h in _augmented_blocks(n, start, stop):
        width = h.shape[1]
        pairs = table[:target * width].reshape(target, width)
        same = hit[:target * width].reshape(target, width)
        reach = _augment(h, s, pairs)
        for k in range(1, n):
            np.equal(pairs, k, out=same)
            # a column has at most C(n,2) <= 28 hits, so uint8 sums are exact
            same.view(np.uint8).sum(axis=0, dtype=np.uint8,
                                    out=counts[k - 1, col:col + width])
        np.less(reach.max(axis=0), _INF, out=connected[col:col + width])
    # a connected mask has every pair at a finite distance, a disconnected one
    # not; each pair has one distance, so a uint8 column sum is at most C(n,2)
    if not np.array_equal(counts.sum(axis=0, dtype=np.uint8) == target, connected):
        raise RuntimeError("labeled sweep: a distance table disagrees with connectivity")
    return counts, connected


def _sweep_mask_range(n: int, lo: int, hi: int) -> tuple[set[tuple[int, ...]], int]:
    """Distinct distance distributions and connected count over masks [lo, hi).

    Every column of a chunk is packed into one int64 key, width bits per
    entry, before the connected ones are selected; an in-place sort and a
    neighbour comparison deduplicate those, and only the distinct keys are
    decoded and checked.  No count exceeds C(n,2) < 2^width, so packing is a
    bijection and a check on the distinct vectors is a check on every column.
    """
    target = n * (n - 1) // 2
    width = target.bit_length()
    field = (1 << width) - 1
    distinct: set[tuple[int, ...]] = set()
    connected_total = 0
    for start in range(lo, hi, _CHUNK):
        counts, connected = _chunk_distance_counts(n, start, min(start + _CHUNK, hi))
        connected_total += int(np.count_nonzero(connected))
        if counts.max() > target:  # would carry into the next field
            raise RuntimeError("labeled sweep: pair counts do not sum to C(n,2)")
        keys = counts[n - 2].astype(np.int64)
        for k in range(n - 3, -1, -1):
            keys <<= width
            keys |= counts[k]
        del counts  # each step frees its input so the chunk peak stays flat
        keys = keys[connected]
        keys.sort()
        first = np.empty(keys.size, dtype=bool)  # first of its run of equal keys
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        for key in keys[first].tolist():
            vec = tuple(key >> (width * k) & field for k in range(n - 1))
            # invariants: pair counts sum to C(n,2) and zeros appear only as a suffix
            if sum(vec) != target:
                raise RuntimeError("labeled sweep: pair counts do not sum to C(n,2)")
            while vec and vec[-1] == 0:
                vec = vec[:-1]
            if 0 in vec:
                raise RuntimeError("labeled sweep: a zero pair count precedes a nonzero one")
            distinct.add(vec)
    return distinct, connected_total


def enumerate_connected_distributions(
    n: int, *, jobs: int = 1, long_running: bool = False
) -> tuple[list[WienerPolynomial], EnumerationStats]:
    """All distinct distance distributions over labeled connected graphs of order n.

    Iterates every one of the 2^C(n,2) labeled graphs, skips disconnected
    instances (counting the connected ones), and deduplicates by distance
    vector: root sets depend only on the distribution, so nothing is lost.
    Masks are swept in chunks of 2^20 whose distances come by augmenting the
    order n-1 distance table with the last vertex, and each chunk's connected
    distance vectors are deduplicated as packed int64 keys by an in-place
    sort, so only the distinct ones are decoded and checked.
    Order 8 means a 2^28 sweep and must be requested with long_running=True.
    jobs > 1 splits the masks over worker processes, at most one per usable
    core; the result does not depend on jobs.
    """
    if not 2 <= n <= ENUMERATION_MAX_ORDER:
        raise ValueError(f"supported orders are 2..{ENUMERATION_MAX_ORDER}, got {n}")
    if n == ENUMERATION_MAX_ORDER and not long_running:
        raise ValueError(
            "order 8 sweeps 2^28 graphs; pass long_running=True to opt in"
        )
    total = 1 << (n * (n - 1) // 2)
    workers = min(jobs, _usable_cores())
    if workers > 1 and total > _CHUNK:
        slices = workers * 4
        step = -(-total // slices)
        ranges = [(n, k * step, min((k + 1) * step, total)) for k in range(slices)]
        ranges = [r for r in ranges if r[1] < r[2]]
        distinct: set[tuple[int, ...]] = set()
        connected = 0
        # only a forking sweep loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part, count in pool.map(_sweep_mask_range_star, ranges):
                distinct |= part
                connected += count
    else:
        distinct, connected = _sweep_mask_range(n, 0, total)
    dists = [WienerPolynomial(vec) for vec in sorted(distinct)]
    stats = EnumerationStats(n, connected, len(dists))
    return dists, stats


def _sweep_mask_range_star(args: tuple[int, int, int]):
    return _sweep_mask_range(*args)


def _usable_cores() -> int:
    """Cores this process may run on; more sweep workers than that only contend."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Free-tree enumeration by composing rooted blocks
# ---------------------------------------------------------------------------


def _rooted_level_sequences(n: int) -> Iterator[list[int]]:
    """All canonical rooted-tree level sequences of order n, root at level 1.

    Successor rule (decreasing lexicographic order, constant amortized time):
    find the last entry above 2, lower it by one, and repeat the block ending
    at its new parent.  Starts at the path and ends at the star.
    """
    levels = list(range(1, n + 1))
    while True:
        yield levels
        p = n - 1
        while p >= 0 and levels[p] <= 2:
            p -= 1
        if p < 0:
            return
        q = p - 1
        while levels[q] != levels[p] - 1:
            q -= 1
        period = p - q
        for i in range(p, n):
            levels[i] = levels[i - period]


def _level_parent_row(levels: Sequence[int]) -> tuple[int, ...]:
    """Preorder parent row of a level sequence: vertex i is position i, and its
    parent is the last earlier vertex one level up."""
    last_at_level = {levels[0]: 0}
    row = []
    for v in range(1, len(levels)):
        row.append(last_at_level[levels[v] - 1])
        last_at_level[levels[v]] = v
    return tuple(row)


def _rooted_blocks(limit: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(levels, parent row) of every canonical rooted tree of orders 1..limit,
    its level sequence shifted one level down (root at level 2), in
    descending order of the shifted sequences."""
    return sorted(((tuple(lv + 1 for lv in seq), _level_parent_row(seq))
                   for size in range(1, limit + 1)
                   for seq in _rooted_level_sequences(size)), reverse=True)


def _free_tree_parent_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Preorder parent row of every free tree of order n, in enumerate_trees order.

    A tree with a single centroid is that centroid plus a forest of canonical
    rooted blocks of at most (n-1)//2 vertices each, listed in non-increasing
    order.  Every block starts at level 2, so the descending order of the
    trees' level sequences is the descending order of their block lists, and
    walking those lists visits the centroid-rooted trees in the order of the
    rooted-sequence walk, without the trees that walk would drop.  A tree
    with two adjacent centroids is an unordered pair of canonical rooted
    trees of order n/2 whose roots 0 and n/2 are joined.
    """
    blocks = _rooted_blocks((n - 1) // 2)
    sizes = [len(levels) for levels, _ in blocks]
    # shifted[b][off]: block b with its root at vertex off, whose parent is 0
    shifted = [[(0,) + tuple(off + p for p in rel) for off in range(n)]
               for _, rel in blocks]

    def forests(first: int, offset: int) -> Iterator[tuple[int, ...]]:
        # rows of the forests on vertices offset..n-1 that use blocks first..
        remaining = n - offset
        for b in range(first, len(sizes)):
            size = sizes[b]
            if size == remaining:
                yield shifted[b][offset]
            elif size < remaining:
                head = shifted[b][offset]
                for tail in forests(b, offset + size):
                    yield head + tail

    if n == 1:
        yield ()
    else:
        yield from forests(0, 1)
    if n % 2 == 0:
        half = n // 2
        halves = [_level_parent_row(seq) for seq in _rooted_level_sequences(half)]
        lifted = [(0,) + tuple(half + p for p in b) for b in halves]
        for i, a in enumerate(halves):
            for b in itertools.islice(lifted, i, None):
                yield a + b


def _tree_words(n: int, rows: list[tuple[int, ...]]) -> np.ndarray:
    """(trees, n) uint64 adjacency words of a chunk of parent rows: bit p of
    word v and bit v of word p for every child v and its parent p."""
    m = len(rows)
    parents = np.array(rows, dtype=np.intp).reshape(m, n - 1)
    bit = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    words = np.zeros((m, n), dtype=np.uint64)
    words[:, 1:] = bit[parents]
    # word p's children bits, summed by one weighted bincount: they are
    # distinct powers of two below 2^n <= 2^TREE_MAX_ORDER, so the float64 sum
    # is exact (under 2^53) and equals their OR
    cells = (parents + (np.arange(m) * n)[:, None]).ravel()
    weights = np.broadcast_to(bit[1:].astype(np.float64), (m, n - 1)).ravel()
    words |= np.bincount(cells, weights, m * n).astype(np.uint64).reshape(m, n)
    return words


def _check_tree_words(words: np.ndarray) -> None:
    """Graph's three checks on every row of a (trees, n) uint64 word array at
    once: no bit at or past n, no loop, symmetric.  A failure raises
    RuntimeError, a check that also runs under python -O."""
    m, n = words.shape
    bits = np.unpackbits(words.astype("<u8").view(np.uint8).reshape(m, n, 8),
                         axis=2, bitorder="little")  # bits[t, v, u]: bit u of word v
    square = bits[:, :, :n]
    diag = np.arange(n)
    for failed, what in ((bits[:, :, n:], "row {1} has bits beyond vertex range"),
                         (square[:, diag, diag], "loop at vertex {1}"),
                         (square != square.transpose(0, 2, 1),
                          "adjacency not symmetric at {{{1},{2}}}")):
        if failed.any():
            where = np.argwhere(failed)[0].tolist()
            raise RuntimeError(("tree {0} of the chunk: " + what).format(*where))


def enumerate_trees(n: int) -> Iterator[Graph]:
    """Every free (unlabeled) tree of order n exactly once, numbered in preorder.

    Single-centroid trees come first, composed from rooted blocks in
    descending order of their level sequences rooted at the centroid, then
    the bicentroid pairs (_free_tree_parent_rows); none is generated and then
    discarded.  Each Graph is built from its parent row, which
    tree_parent_array reads back.  The rows are taken a chunk of _TREE_CHUNK
    at a time: the chunk's adjacency words are built in numpy and pass
    Graph's checks together (_check_tree_words), so no Graph runs its own.
    """
    if not 1 <= n <= TREE_MAX_ORDER:
        raise ValueError(f"supported orders are 1..{TREE_MAX_ORDER}, got {n}")
    rows = _free_tree_parent_rows(n)
    while chunk := list(itertools.islice(rows, _TREE_CHUNK)):
        words = _tree_words(n, chunk)
        _check_tree_words(words)
        for adj in words.tolist():
            yield _prechecked_graph(n, tuple(adj))
