"""Graph representation, parsing, distances, and enumeration.

Oracles used here are independent of the implementation under test: a local
graph6 encoder, Floyd-Warshall distances, the inclusion-exclusion recurrence
for labeled connected graph counts, the rooted-tree/free-tree counting
recurrences, and a Pruefer-sequence sweep deduplicated by canonical codes.
"""

import concurrent.futures
import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import numpy as np
import pytest

from conftest import GRAPH6_MALFORMED
from wiener_roots import graph_core
from wiener_roots.graph_core import (
    DisconnectedGraphError,
    EnumerationStats,
    Graph,
    Graph6Error,
    diameter,
    distance_distribution,
    enumerate_connected_distributions,
    enumerate_trees,
    fixture_names,
    from_edge_list,
    graph6_distributions,
    load_edge_list,
    load_fixture,
    parse_graph6,
    tree_distributions,
    tree_parent_array,
)
from wiener_roots.families import family_graph, family_polynomial, parse_family_spec
from wiener_roots.polynomial import WienerPolynomial


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def floyd_warshall_distribution(g: Graph):
    inf = float("inf")
    dist = [[0 if i == j else (1 if g.has_edge(i, j) else inf)
             for j in range(g.n)] for i in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    counts = Counter(dist[i][j] for i in range(g.n) for j in range(i + 1, g.n))
    if inf in counts:
        return None
    top = max(counts)
    return tuple(counts.get(d, 0) for d in range(1, top + 1))


def labeled_connected_count(n: int) -> int:
    total = lambda k: 1 << comb(k, 2)
    c = [0] * (n + 1)
    c[1] = 1
    for m in range(2, n + 1):
        c[m] = total(m) - sum(comb(m - 1, k - 1) * c[k] * total(m - k)
                              for k in range(1, m))
    return c[n]


def rooted_tree_counts(limit: int) -> list[int]:
    r = [0, 1]
    for n in range(1, limit):
        total = 0
        for k in range(1, n + 1):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += s * r[n - k + 1]
        r.append(total // n)
    return r


def free_tree_count(n: int) -> int:
    r = rooted_tree_counts(n)
    pairs = sum(r[i] * r[n - i] for i in range(1, n))
    if n % 2 == 0:
        pairs -= r[n // 2]
    t = r[n] - pairs // 2
    if n % 2 == 0:
        t += 0  # the bicentroid correction is inside the pair sum
    return t


def ahu_code(g: Graph) -> str:
    """Canonical free-tree code: rooted codes at the centroid(s)."""
    adj = [[u for u in range(g.n) if g.has_edge(u, v)] for v in range(g.n)]

    # component sizes of g - v, the slow obvious way
    def component_sizes(v):
        sizes = []
        for u in adj[v]:
            stack, seen = [u], {v, u}
            count = 1
            while stack:
                w = stack.pop()
                for x in adj[w]:
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
                        count += 1
            sizes.append(count)
        return sizes

    best = min(max(component_sizes(v), default=0) for v in range(g.n))
    centroids = [v for v in range(g.n)
                 if max(component_sizes(v), default=0) == best]

    def rooted(v, parent):
        children = sorted(rooted(u, v) for u in adj[v] if u != parent)
        return "(" + "".join(children) + ")"

    if len(centroids) == 1:
        return rooted(centroids[0], -1)
    c1, c2 = centroids
    return "|".join(sorted((rooted(c1, c2), rooted(c2, c1))))


def pruefer_tree(code: tuple[int, ...], n: int) -> Graph:
    degree = [1] * n
    for v in code:
        degree[v] += 1
    edges = []
    import heapq
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in code:
        u = heapq.heappop(leaves)
        edges.append((u, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return from_edge_list(n, edges)


def random_connected_graph(n: int, rng: random.Random) -> Graph:
    while True:
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.4]
        g = from_edge_list(n, edges)
        if g.is_connected():
            return g


# ---------------------------------------------------------------------------
# Graph type and construction
# ---------------------------------------------------------------------------


def test_graph_invariants_enforced():
    with pytest.raises(ValueError, match="loop at vertex 0"):
        Graph(2, (1, 0))  # row 0 has its own bit
    with pytest.raises(ValueError, match="loop at vertex 0"):
        Graph(2, (1, 2))  # row 0 is checked before row 1
    with pytest.raises(ValueError, match=r"^graph order must be >= 1, got 0$"):
        Graph(0, ())
    with pytest.raises(ValueError, match=r"^loop at vertex 1$"):
        Graph(2, (2, 3))
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at \{1,0\}$"):
        Graph(2, (2, 0))
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at \{0,1\}$"):
        Graph(3, (0, 1, 0))
    # the first neighbour of row 0 is fine, the second is not
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at \{2,0\}$"):
        Graph(3, (0b110, 0b001, 0b000))
    with pytest.raises(ValueError, match=r"^row 1 has bits beyond vertex range$"):
        Graph(2, (2, 5))
    with pytest.raises(ValueError, match=r"^adjacency must have one row per vertex$"):
        Graph(2, (0,))


def test_from_edge_list_basics():
    g = from_edge_list(2, [(0, 1)])
    assert g.edge_count == 1 and g.has_edge(0, 1)
    g = from_edge_list(3, [(0, 1), (0, 1), (1, 0)])  # duplicates collapse
    assert g.edge_count == 1
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edge_list(3, [(1, 1)])


def test_from_edge_list_fixture_graphs():
    fig5 = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (0, 5), (0, 4), (4, 5)])
    assert distance_distribution(fig5).d == (6, 4, 3, 2)
    assert load_fixture("min_imaginary_graph") == fig5
    fig6 = load_fixture("min_tree_root_i")
    assert fig6.n == 12 and fig6.is_tree()
    for name in fixture_names():
        g = load_fixture(name)
        assert g.is_connected()


def test_load_edge_list_rejects_garbage():
    with pytest.raises(ValueError):
        load_edge_list(["3", "0 1 2"])
    with pytest.raises(ValueError):
        load_edge_list([])


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def test_parse_graph6_hand_decoded_examples():
    k4 = parse_graph6("C~")
    assert k4.n == 4 and k4.edge_count == 6
    k2 = parse_graph6("A_")
    assert k2.n == 2 and k2.edge_count == 1
    empty2 = parse_graph6("A?")
    assert empty2.n == 2 and empty2.edge_count == 0
    assert parse_graph6(">>graph6<<A_") == k2


def test_parse_graph6_error_cases():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6("~~~")  # long-form order
    with pytest.raises(Graph6Error):
        parse_graph6("B")  # missing payload
    with pytest.raises(Graph6Error):
        parse_graph6("A__")  # extra payload
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(40))  # character below 63
    with pytest.raises(Graph6Error):
        parse_graph6("A@")  # nonzero padding: order 2 uses only the top bit
    with pytest.raises(Graph6Error, match="order-0 graph6 records are not supported"):
        parse_graph6("?")


def test_parse_graph6_roundtrip_random(encode_graph6):
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 13)
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5]
        g = from_edge_list(n, edges)
        assert parse_graph6(encode_graph6(g)) == g
    # every order of the single-byte form, empty to complete
    for n in range(1, graph_core.GRAPH6_MAX_ORDER + 1):
        for density in (0.0, 0.1, 0.5, 1.0):
            edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < density]
            g = from_edge_list(n, edges)
            assert parse_graph6(encode_graph6(g)) == g


def test_parse_graph6_messages_name_the_first_failed_check():
    for record, message in GRAPH6_MALFORMED.items():
        with pytest.raises(Graph6Error) as raised:
            parse_graph6(record)
        assert str(raised.value) == message


def test_graph6_decoded_together_is_each_record_decoded_alone(encode_graph6):
    rng = random.Random(25)
    graphs = [from_edge_list(n, [(u, v) for v in range(n) for u in range(v)
                                 if rng.random() < density])
              for n in range(1, graph_core.GRAPH6_MAX_ORDER + 1)
              for density in (0.0, 0.05, 0.3, 1.0)]
    # order 40 in more than one chunk of _BALL_CHUNK vertices
    graphs += [from_edge_list(40, [(rng.randrange(v), v) for v in range(1, 40)])
               for _ in range(2 * graph_core._BALL_CHUNK // 40)]
    rng.shuffle(graphs)
    records = [rng.choice(("", ">>graph6<<")) + encode_graph6(g) for g in graphs]
    for record, g in zip(records, graphs):
        parsed = parse_graph6(record)
        assert (parsed.n, parsed.adj) == (g.n, g.adj)
    for n in range(1, graph_core.GRAPH6_MAX_ORDER + 1):
        alike = [(g, record) for g, record in zip(graphs, records) if g.n == n]
        words, padded = graph_core._graph6_words(
            n, [graph_core._graph6_payload(record)[1] for _, record in alike])
        assert not padded.any()
        assert [tuple(row) for row in words.tolist()] == [g.adj for g, _ in alike]
    # malformed records among them, each where it was
    for record in GRAPH6_MALFORMED:
        at = rng.randrange(len(records) + 1)
        records.insert(at, record)
        graphs.insert(at, None)
    want = [(Graph6Error, GRAPH6_MALFORMED[record]) if g is None else _one_at_a_time(g)
            for g, record in zip(graphs, records)]
    found = graph6_distributions(records)
    assert [w if isinstance(w, WienerPolynomial) else (type(w), str(w)) for w in found] == want
    assert graph6_distributions([]) == []


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def test_distance_distribution_examples():
    k3 = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert distance_distribution(k3).d == (3,)
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert distance_distribution(p4).d == (3, 2, 1)


def test_distance_distribution_paths_staircase():
    for n in range(3, 51):
        g = from_edge_list(n, [(v, v + 1) for v in range(n - 1)])
        assert distance_distribution(g).d == tuple(range(n - 1, 0, -1))


def test_distance_distribution_rejects_disconnected_and_small():
    with pytest.raises(DisconnectedGraphError):
        distance_distribution(from_edge_list(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        distance_distribution(from_edge_list(1, []))


def test_distance_distribution_vs_floyd_warshall():
    rng = random.Random(11)
    for _ in range(120):
        g = random_connected_graph(rng.randrange(2, 9), rng)
        assert distance_distribution(g).d == floyd_warshall_distribution(g)


def _bfs_distribution(g: Graph) -> tuple[int, ...] | None:
    """Pairs by distance from the plain-BFS oracle; None when disconnected."""
    pairs = _bfs_pair_distances(g)
    if None in pairs:
        return None
    counts = Counter(pairs)
    return tuple(counts[k] for k in range(1, max(counts) + 1))


def test_distance_distribution_matches_bfs_on_every_labeled_graph_through_order_5():
    for n in range(2, 6):
        for mask in range(1 << comb(n, 2)):
            g = _mask_graph(n, mask)
            want = _bfs_distribution(g)
            if want is None:
                with pytest.raises(DisconnectedGraphError):
                    distance_distribution(g)
            else:
                assert distance_distribution(g).d == want, (n, mask)


def test_distance_distribution_matches_bfs_on_random_graphs_of_orders_30_to_62():
    rng = random.Random(62)
    for _ in range(50):
        n = rng.randrange(30, 63)
        # a random tree of random reach, so connected, plus up to n chords
        reach = rng.choice((1, 2, 4, n))
        edges = [(rng.randrange(max(0, v - reach), v), v) for v in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(n + 1))]
        g = from_edge_list(n, edges)
        assert distance_distribution(g).d == _bfs_distribution(g)


def _one_at_a_time(g: Graph):
    """distance_distribution(g), or the type and message of its ValueError."""
    try:
        return distance_distribution(g)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("spec", ["broom:4,4000", "broom:5,4000", "star:4000",
                                  "double_star:3,4000"])
def test_distance_distribution_matches_closed_forms_at_order_4000(spec):
    spec = parse_family_spec(spec)  # each of these has a closed form
    assert distance_distribution(family_graph(spec)) == family_polynomial(spec)


def test_distance_distribution_of_a_broom_without_closed_form_matches_the_tree_kernel():
    g = family_graph(parse_family_spec("broom:3,4000"))
    # past the 64-bit words of tree_parent_array: each parent is the highest
    # bit of row v below v, read as a Python int
    parents = np.array([[(g.adj[v] & ((1 << v) - 1)).bit_length() - 1
                         for v in range(1, g.n)]])
    (want,) = tree_distributions(parents)
    assert distance_distribution(g).d == want == (3999, comb(3998, 2) + 1, 3997)


def test_distribution_invariants_validated():
    with pytest.raises(ValueError):
        WienerPolynomial((5, 0, 1))  # interior zero
    dd = WienerPolynomial((3, 2, 1))
    assert dd.degree == 3


def test_diameter():
    k5 = from_edge_list(5, [(u, v) for v in range(5) for u in range(v)])
    assert diameter(k5) == 1
    p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert diameter(p4) == 3
    d23 = from_edge_list(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    assert diameter(d23) == 3
    assert diameter(from_edge_list(1, [])) == 0


# ---------------------------------------------------------------------------
# Labeled-graph enumeration
# ---------------------------------------------------------------------------


def test_enumeration_connected_counts_match_recurrence():
    for n in range(2, 7):
        dists, stats = enumerate_connected_distributions(n)
        assert stats.instances_examined == labeled_connected_count(n)
        assert stats.order == n
        assert stats.distinct_distributions == len(dists)


def test_enumeration_order2():
    dists, stats = enumerate_connected_distributions(2)
    assert stats.instances_examined == 1
    assert [dd.d for dd in dists] == [(1,)]


def _mask_graph(n: int, mask: int) -> Graph:
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return from_edge_list(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


@functools.cache
def _window_by_bfs(n: int, lo: int, hi: int):
    # independent route: every connected labeled graph's BFS distribution
    distinct, connected = set(), 0
    for mask in range(lo, hi):
        g = _mask_graph(n, mask)
        if g.is_connected():
            connected += 1
            distinct.add(distance_distribution(g).d)
    return distinct, connected


def test_enumeration_distributions_seen_by_direct_bfs():
    for n in range(2, 6):
        expected, _ = _window_by_bfs(n, 0, 1 << comb(n, 2))
        dists, _ = enumerate_connected_distributions(n)
        assert {dd.d for dd in dists} == expected


def test_enumeration_no_duplicates_and_invariants():
    dists, _ = enumerate_connected_distributions(6)
    seen = [dd.d for dd in dists]
    assert len(seen) == len(set(seen))
    for dd in dists:
        assert sum(dd.d) == comb(6, 2)
        assert all(x >= 1 for x in dd.d)


def test_enumeration_gates_and_ranges():
    with pytest.raises(ValueError):
        enumerate_connected_distributions(1)
    with pytest.raises(ValueError):
        enumerate_connected_distributions(9)
    with pytest.raises(ValueError):
        enumerate_connected_distributions(8)  # needs long_running=True


def test_enumeration_jobs_agree(monkeypatch):
    # order 7 has 2^21 masks, more than one chunk, so jobs=2 takes the pool
    # path; two workers even where fewer cores are usable
    monkeypatch.setattr(graph_core, "_usable_cores", lambda: 2)
    seq, seq_stats = enumerate_connected_distributions(7)
    par, par_stats = enumerate_connected_distributions(7, jobs=2)
    assert [d.d for d in seq] == [d.d for d in par]
    assert seq_stats == par_stats
    assert (seq_stats.instances_examined, seq_stats.distinct_distributions) == (
        labeled_connected_count(7), 98)


@pytest.mark.parametrize("jobs, cores, workers", [(64, 3, 3), (2, 3, 2)])
def test_enumeration_workers_clamped_to_usable_cores(monkeypatch, jobs, cores, workers):
    pools = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.tasks = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            self.tasks = len(items)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(graph_core, "_usable_cores", lambda: cores)
    dists, stats = enumerate_connected_distributions(7, jobs=jobs)
    [pool] = pools
    assert pool.max_workers == workers
    assert pool.tasks == 4 * workers
    assert stats == EnumerationStats(7, labeled_connected_count(7), 98)
    assert len(dists) == 98


_SWEEP_WINDOWS = [
    (7, (1 << 20) - 2048, (1 << 20) + 2048),  # straddles the 2^20 mask boundary
    (7, 12345, 16441),  # unaligned; vertex 6 is isolated in every mask
    (7, 1234567, 1234567 + 4096),  # unaligned, mostly connected
    (8, (1 << 21) + (1 << 20) + 12345, (1 << 21) + (1 << 20) + 12345 + 4096),
    *((n, 0, 1 << comb(n, 2)) for n in range(2, 7)),  # every mask of the order
]


@pytest.mark.parametrize("n, lo, hi", _SWEEP_WINDOWS)
@pytest.mark.parametrize("chunk", [None, 1000, 7])
def test_sweep_windows_match_bfs(monkeypatch, n, lo, hi, chunk):
    # chunk=1000 splits the window into several chunks, the last one partial;
    # chunk=7 gives chunks with no connected mask and with exactly one, the
    # edge cases of the sort-and-compare deduplication
    if chunk is not None:
        monkeypatch.setattr(graph_core, "_CHUNK", chunk)
    assert graph_core._sweep_mask_range(n, lo, hi) == _window_by_bfs(n, lo, hi)


@pytest.mark.parametrize("n, lo, hi", _SWEEP_WINDOWS)
@pytest.mark.parametrize("tile", [7, 1000])
def test_sweep_windows_match_bfs_with_small_tiles(monkeypatch, n, lo, hi, tile):
    # small tiles cut the window's runs, and the lower orders' tables it is
    # augmented from, into several tiles each, the last one partial
    monkeypatch.setattr(graph_core, "_TILE", tile)
    assert graph_core._sweep_mask_range(n, lo, hi) == _window_by_bfs(n, lo, hi)


@pytest.mark.parametrize("bad_column, message", [
    ([10, 4, 0, 1, 0], "precedes"),  # sums to C(6,2) but has an interior zero
    ([3, 2, 1, 0, 0], "sum"),
    # 26 > C(6,2) carries out of its 4-bit field: the key decodes to (4, 10, 1),
    # which sums to 15 with no interior zero, so only the overflow guard sees it
    ([4, 26, 0, 0, 0], "sum"),
])
def test_sweep_invariant_violations_raise(monkeypatch, bad_column, message):
    def corrupted(n, start, stop):
        counts = np.zeros((n - 1, stop - start), dtype=np.uint8)
        counts[:, 0] = bad_column
        counts[0, 1:] = 15  # complete graphs
        return counts, np.ones(stop - start, dtype=bool)

    monkeypatch.setattr(graph_core, "_chunk_distance_counts", corrupted)
    with pytest.raises(RuntimeError, match=message):
        graph_core._sweep_mask_range(6, 0, 8)


def _bfs_pair_distances(g: Graph) -> list[int]:
    # one plain BFS per vertex; pairs in edge-bit order, None when unreachable
    rows = []
    for src in range(g.n):
        dist, frontier, k = {src: 0}, [src], 0
        while frontier:
            k += 1
            frontier = [v for v in range(g.n) if v not in dist
                        and any(g.has_edge(u, v) for u in frontier)]
            dist.update(dict.fromkeys(frontier, k))
        rows.append(dist)
    return [rows[u].get(v) for v in range(g.n) for u in range(v)]


@pytest.mark.parametrize("n, lo, hi", [
    (7, (1 << 15) - 300, (1 << 15) + 300),  # S = 0 (vertex 6 isolated) into S = 1
    (7, (37 << 15) - 250, (37 << 15) + 250),
    (7, (1 << 21) - 400, 1 << 21),  # the last block, S = all of 0..5
    (6, (5 << 10) + 100, (6 << 10) + 700),  # longer than a block: one full table
    (8, (3 << 21) - 256, (3 << 21) + 256),
    # straddle tile boundaries inside the order-8 run S = {0, 1}: at 2^15,
    # where vertex 6 is isolated in every mask, and at 63 * 2^15, where
    # every mask is connected
    (8, (3 << 21) + (1 << 15) - 256, (3 << 21) + (1 << 15) + 256),
    (8, (3 << 21) + (63 << 15) - 256, (3 << 21) + (63 << 15) + 256),
    (8, 0, 300),
    (3, 0, 8),
    (2, 0, 2),
])
def test_chunk_kernel_matches_per_mask_bfs(n, lo, hi):
    counts, connected = graph_core._chunk_distance_counts(n, lo, hi)
    assert counts.shape == (n - 1, hi - lo) and connected.shape == (hi - lo,)
    for col, mask in enumerate(range(lo, hi)):
        g = _mask_graph(n, mask)
        assert bool(connected[col]) == g.is_connected(), mask
        if g.is_connected():
            d = distance_distribution(g).d
            assert tuple(counts[:, col]) == d + (0,) * (n - 1 - len(d)), mask


@functools.cache
def _bfs_pair_table(n: int) -> np.ndarray:
    # (C(n,2), 2^C(n,2)) pair distances of every mask, _INF when unreachable
    return np.array([[graph_core._INF if d is None else d
                      for d in _bfs_pair_distances(_mask_graph(n, mask))]
                     for mask in range(1 << comb(n, 2))],
                    dtype=np.uint8).reshape(1 << comb(n, 2), comb(n, 2)).T


def _check_pair_distance_tables_through_order_6():
    for n in range(1, 7):
        total = 1 << comb(n, 2)
        table = graph_core._pair_distances(n, 0, total)
        assert table.shape == (comb(n, 2), total) and table.dtype == np.uint8
        wrong = np.flatnonzero((table != _bfs_pair_table(n)).any(axis=0))
        assert wrong.size == 0, (n, wrong[:8].tolist())


def test_pair_distance_table_matches_bfs_through_order_6():
    _check_pair_distance_tables_through_order_6()


@pytest.mark.parametrize("tile", [7, 1000])
def test_pair_distance_table_matches_bfs_with_small_tiles(monkeypatch, tile):
    monkeypatch.setattr(graph_core, "_TILE", tile)
    _check_pair_distance_tables_through_order_6()


_SWEEP_INVARIANTS = """
import pytest
from wiener_roots import graph_core

pair_rows = graph_core._pair_rows

def corrupted(h, reach, rows):
    for i, row in enumerate(pair_rows(h, reach, rows)):
        if len(reach) == 3 and i == 0 and reach[:, -1].tolist() == [1, 1, 1]:
            row[-1] = FILL  # pair {0, 1} of the complete graph K4, mask 63
        yield row

graph_core._pair_rows = corrupted
for FILL in (graph_core._INF, 0):
    with pytest.raises(RuntimeError, match="disagrees with connectivity"):
        graph_core._chunk_distance_counts(4, 0, 64)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_chunk_kernel_table_inconsistency_raises(flags):
    src = Path(graph_core.__file__).resolve().parent.parent
    subprocess.run([sys.executable, *flags, "-c", _SWEEP_INVARIANTS], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_enumeration_stats_invariant():
    with pytest.raises(ValueError):
        EnumerationStats(4, 3, 5)


# ---------------------------------------------------------------------------
# Free-tree enumeration
# ---------------------------------------------------------------------------


def test_tree_counts_against_counting_recurrence():
    for n in range(1, 15):
        assert sum(1 for _ in enumerate_trees(n)) == free_tree_count(n)


def test_tree_count_spec_points():
    assert sum(1 for _ in enumerate_trees(4)) == 2
    assert sum(1 for _ in enumerate_trees(10)) == 106
    assert sum(1 for _ in enumerate_trees(16)) == 19320


def test_tree_count_oeis_a000055_orders_17_and_18():
    # OEIS A000055; counted on the parent rows that enumerate_trees builds on
    assert sum(1 for _ in graph_core._free_tree_parent_rows(17)) == 48629
    assert sum(1 for _ in graph_core._free_tree_parent_rows(18)) == 123867


def test_rooted_block_table():
    blocks = graph_core._rooted_blocks(9)
    # OEIS A000081: rooted trees with 1..9 vertices
    assert Counter(len(levels) for levels, _ in blocks) == \
        dict(enumerate([1, 1, 2, 4, 9, 20, 48, 115, 286], 1))
    keys = [levels for levels, _ in blocks]
    assert keys == sorted(set(keys), reverse=True)
    for levels, row in blocks:
        assert levels[0] == 2 and all(lv > 2 for lv in levels[1:])
        assert len(row) == len(levels) - 1
        assert all(p < v for v, p in enumerate(row, 1))
        assert all(levels[v] == levels[p] + 1 for v, p in enumerate(row, 1))
    assert len(graph_core._rooted_blocks((15 - 1) // 2)) == 85


# sha256 of the repr of the list of parent rows, tuples of ints, of
# enumerate_trees(n), recorded with the rooted-sequence walk that kept the
# centroid-rooted sequences: the same trees, in the same order, with the same
# vertex numbering.
TREE_ROW_DIGESTS = {
    1: "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
    2: "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42",
    3: "2e671ae9b7fca357b34a051eb7716cbf08cdc9e1ee9dbf0f7fecd06ad15e35da",
    4: "9bbdc0ea4fe4c828399734e790b006f06f38a139051b09a87ff70b1a23d8b20a",
    5: "83544d9bf307729632694375fe81449d966fcc4874242825ad8ab2db5176377f",
    6: "e0cd49405f2872cc18fce42c4b9ac71df29c9be4ab254cbda039ad4b4b46cfba",
    7: "56e525cb35ce4510be48086bbf2e51290a04d91dc178799974e63ccfe22411f3",
    8: "e4dbef0fff70e31226086a653c7a73cdb3080cc3d813885b695d7b7a1d986c7f",
    9: "6fd24fd28c3263d001672f93aaf1caf826bc907fbd38ff18846d6befe61e476c",
    10: "1930002062eadb7b0b6c90cd9ba4a3a311256c7f157e44c81095cbde97c4c5cf",
    11: "7e52cec4165d7267e6fd3a409cb9c55234c825f1afb54ffae8f6dad38659a75c",
    12: "b3c3120575acb2b84b3147d43b8b87f8608b82f20957280a0c6bfcec9a15f68e",
    13: "46d7906025cca3753a02b1e4d786f7287e802813222de4dc6761d36e5a35ced9",
    14: "39e8aa6dd08fce53248b8bc7408e5a94133a492b23dfa4bbfd19737b87de4aa9",
    15: "c79788adc9fca548e5fa7e7cb5f09e475ca385bae57ce5462a8913a980e27711",
    16: "f2a8f11f1a38fe66224138e7997d5299e797f3d56a75ee3fbf1901262469c679",
    17: "7c27d595e6dccd025438bc9745c79c2f1bb87c509a71ee9d148d1fccd14e3d99",
}


def test_tree_order_and_numbering_pinned():
    rows = {n: list(map(tuple, tree_parent_array(enumerate_trees(n)).tolist()))
            for n in TREE_ROW_DIGESTS}
    got = {n: hashlib.sha256(repr(rows[n]).encode()).hexdigest() for n in rows}
    assert got == TREE_ROW_DIGESTS


def test_trees_are_trees_and_pairwise_nonisomorphic():
    for n in range(1, 11):
        codes = set()
        for g in enumerate_trees(n):
            assert g.n == n and g.edge_count == n - 1 and g.is_connected()
            code = ahu_code(g)
            assert code not in codes
            codes.add(code)


def test_trees_match_pruefer_enumeration():
    # full Pruefer sweep, canonicalized: exact same set of isomorphism classes
    for n in range(3, 8):
        expected = {ahu_code(pruefer_tree(code, n))
                    for code in itertools.product(range(n), repeat=n - 2)}
        got = {ahu_code(g) for g in enumerate_trees(n)}
        assert got == expected


def test_tree_order_range():
    with pytest.raises(ValueError):
        list(enumerate_trees(0))
    with pytest.raises(ValueError):
        list(enumerate_trees(19))


def _trees_one_at_a_time(n):
    # each Graph built, and checked by Graph(n, adj), on its own from its parent row
    return [from_edge_list(n, enumerate(row, 1))
            for row in graph_core._free_tree_parent_rows(n)]


def test_chunked_trees_are_the_graphs_built_one_at_a_time(monkeypatch):
    for n in range(1, 15):
        trees = list(enumerate_trees(n))
        assert trees == _trees_one_at_a_time(n)
        assert all(type(row) is int for g in trees for row in g.adj)
    monkeypatch.setattr(graph_core, "_TREE_CHUNK", 7)  # 106 trees: 15 chunks of 7 and one
    assert list(enumerate_trees(10)) == _trees_one_at_a_time(10)


def test_enumerate_trees_checks_every_chunk(monkeypatch):
    words_of = graph_core._tree_words

    def with_a_loop(n, rows):
        words = words_of(n, rows)
        if len(rows) < graph_core._TREE_CHUNK:  # the last chunk only
            words[-1, 1] |= np.uint64(1 << 1)
        return words

    monkeypatch.setattr(graph_core, "_tree_words", with_a_loop)
    trees = enumerate_trees(12)  # 551 trees: a full chunk, then 39
    assert sum(1 for _ in itertools.islice(trees, 512)) == 512
    with pytest.raises(RuntimeError, match="tree 38 of the chunk: loop at vertex 1"):
        next(trees)


_TREE_WORD_CHECKS = """
import numpy as np
import pytest
from wiener_roots.graph_core import _check_tree_words, _tree_words
words = _tree_words(4, [(0, 1, 2), (0, 0, 0)])  # the path and the star
assert words.tolist() == [[2, 5, 10, 4], [14, 1, 1, 1]]
_check_tree_words(words)
for t, v, bit, message in ((1, 2, 2, "loop at vertex 2"),
                           (0, 3, 0, "adjacency not symmetric at {0,3}"),
                           (1, 0, 4, "row 0 has bits beyond vertex range"),
                           (0, 1, 63, "row 1 has bits beyond vertex range")):
    bad = words.copy()
    bad[t, v] |= np.uint64(1 << bit)
    with pytest.raises(RuntimeError) as raised:
        _check_tree_words(bad)
    assert str(raised.value) == f"tree {t} of the chunk: {message}"
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_tree_word_checks_raise(flags):
    src = Path(graph_core.__file__).resolve().parent.parent
    subprocess.run([sys.executable, *flags, "-c", _TREE_WORD_CHECKS], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_order4_trees_are_path_and_star():
    codes = {ahu_code(g) for g in enumerate_trees(4)}
    path = ahu_code(from_edge_list(4, [(0, 1), (1, 2), (2, 3)]))
    star = ahu_code(from_edge_list(4, [(0, 1), (0, 2), (0, 3)]))
    assert codes == {path, star}


# ---------------------------------------------------------------------------
# Batched tree distances
# ---------------------------------------------------------------------------


def _lower_neighbours(g):
    """Every lower-numbered neighbour of each vertex v >= 1, edge by edge."""
    return [[u for u in range(v) if g.has_edge(u, v)] for v in range(1, g.n)]


def test_tree_kernel_matches_bfs_on_every_free_tree():
    for n in range(2, 15):
        trees = list(enumerate_trees(n))
        parents = tree_parent_array(trees)
        assert parents.dtype == np.intp and parents.shape == (len(trees), n - 1)
        assert [[[p] for p in row] for row in parents.tolist()] == \
            [_lower_neighbours(g) for g in trees]
        assert all(tree_parent_array([g])[0].tolist() == row
                   for g, row in zip(trees, parents.tolist()))
        assert list(tree_distributions(parents)) == \
            [distance_distribution(g).d for g in trees]


def test_tree_parent_array_reads_order_64_and_refuses_order_65():
    # both trees set bit 63: the path in word 62, the broom in word 2
    for spec in ("path:64", "broom:3,64"):
        g = family_graph(parse_family_spec(spec))
        assert [[p] for p in tree_parent_array([g])[0].tolist()] == _lower_neighbours(g)
    with pytest.raises(ValueError, match="^tree order 65 is past the bound 64$"):
        tree_parent_array([family_graph(parse_family_spec("broom:3,65"))])


def test_tree_kernel_crosses_chunk_boundaries(monkeypatch):
    trees = list(enumerate_trees(10))  # 106 trees: 15 chunks of 7 and one of 1
    monkeypatch.setattr(graph_core, "_TREE_CHUNK", 7)
    parents = tree_parent_array(trees)
    assert list(tree_distributions(parents)) == [distance_distribution(g).d for g in trees]


def test_tree_kernel_order_one_and_empty_input():
    assert list(tree_distributions(np.empty((0, 4), dtype=np.intp))) == []
    parents = tree_parent_array(enumerate_trees(1))
    assert parents.shape == (1, 0)
    with pytest.raises(ValueError, match="needs order >= 2"):
        list(tree_distributions(parents))


def test_tree_kernel_past_order_256_counts_to_distance_255_and_raises_beyond():
    # uint8 distances: the path of order 256 has diameter 255, the next does not fit
    path = np.arange(255)[None, :]
    assert next(tree_distributions(path)) == tuple(range(255, 0, -1))
    with pytest.raises(RuntimeError, match="do not sum to C"):
        list(tree_distributions(np.arange(256)[None, :]))


_TREE_INVARIANTS = """
import numpy as np
import pytest
from wiener_roots.graph_core import from_edge_list, tree_distributions, tree_parent_array
# vertex 2 has two lower-numbered neighbours in the triangle, none in 0-1 + 2
for edges in ([(0, 1), (0, 2), (1, 2)], [(0, 1)]):
    with pytest.raises(RuntimeError) as raised:
        tree_parent_array([from_edge_list(3, edges)])
    assert str(raised.value) == \
        "vertex 2 does not have exactly one lower-numbered neighbour"
# the parent of vertex 2 is vertex 3, which does not precede it
with pytest.raises(RuntimeError, match="do not sum to C"):
    list(tree_distributions(np.array([[0, 3, 1]])))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_tree_kernel_invariants_raise(flags):
    src = Path(graph_core.__file__).resolve().parent.parent
    subprocess.run([sys.executable, *flags, "-c", _TREE_INVARIANTS], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})
