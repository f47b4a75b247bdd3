"""Seeded input graphs for the large-degree workload, and an oracle for `compute`.

Every graph is a random tree plus a few chords, so it is connected by
construction.  The tree hangs each vertex off one of the `reach` vertices
before it: a small reach gives long paths (high-degree Wiener polynomials),
a large reach gives bushy trees.  The mix of (order, reach, chords) cells is
the same for every seed, so seeds differ in the random draws only and the
amount of work barely moves between them.

The oracle recomputes what `compute` prints from the generator's own edge
list, without the program: distance counts by BFS, the Wiener index, the
extreme-ratio annulus, and a residual and conjugate-pairing test for roots.
"""

from __future__ import annotations

import random
from fractions import Fraction

ORDERS = range(30, 63)
REACHES = (3, 4, 6, 10)
CHORDS = range(4)
ROOT_RESIDUAL = 1e-9  # relative to sum |c_k| |z|^k, evaluated by plain Horner


def random_graph(rng: random.Random, n: int, reach: int,
                 chords: int) -> tuple[int, list[tuple[int, int]]]:
    """A randomly relabeled tree on n vertices with `chords` extra edges."""
    edges = {(rng.randrange(max(0, v - reach), v), v) for v in range(1, n)}
    target = len(edges) + chords
    while len(edges) < target:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    label = list(range(n))
    rng.shuffle(label)
    return n, sorted(tuple(sorted((label[u], label[v]))) for u, v in edges)


def graphs(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """The workload's graphs for one seed: one per cell, in shuffled order."""
    rng = random.Random(seed)
    cells = [(n, reach, chords) for n in ORDERS for reach in REACHES
             for chords in CHORDS]
    rng.shuffle(cells)
    return [random_graph(rng, *cell) for cell in cells]


def graph6(n: int, edges: list[tuple[int, int]]) -> str:
    """graph6 record of a graph of order 1..62: upper triangle, column by column."""
    if not 1 <= n <= 62:
        raise ValueError(f"order {n} needs the multi-byte graph6 header")
    have = set(edges)
    bits = [(u, v) in have for v in range(1, n) for u in range(v)]
    bits += [False] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        value = 0
        for bit in bits[i:i + 6]:
            value = 2 * value + bit
        chars.append(chr(63 + value))
    return "".join(chars)


def adjacency_rows(n: int, edges: list[tuple[int, int]]) -> tuple[int, ...]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def distance_counts(n: int, edges: list[tuple[int, int]]) -> tuple[int, ...]:
    """d_1..d_D: unordered pairs at each distance, by BFS from every vertex."""
    neighbours = [[] for _ in range(n)]
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    counts: dict[int, int] = {}
    for src in range(n):
        dist = {src: 0}
        queue = [src]
        for u in queue:
            for w in neighbours[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) != n:
            raise ValueError("graph is disconnected")
        for v, k in dist.items():
            if v > src:
                counts[k] = counts.get(k, 0) + 1
    return tuple(counts[k] for k in range(1, max(counts) + 1))


def _relative_residual(c: tuple[int, ...], z: complex) -> float:
    value, scale = 0j, 0.0
    for coeff in reversed(c):
        value = value * z + coeff
        scale = scale * abs(z) + abs(coeff)
    return abs(value) / scale


def record_problem(record: dict, token: str, d: tuple[int, ...]) -> str | None:
    """Why one `compute` JSON record disagrees with the oracle, or None."""
    if record.get("graph") != token:
        return f"record for {record.get('graph')!r}, expected {token!r}"
    if tuple(record["coefficients"]) != d:
        return f"{token}: coefficients {record['coefficients']} != BFS {list(d)}"
    if record["wiener_index"] != sum(k * dk for k, dk in enumerate(d, start=1)):
        return f"{token}: wiener index {record['wiener_index']}"
    if len(d) > 1:
        ratios = [Fraction(d[i], d[i + 1]) for i in range(len(d) - 1)]
        annulus = {"r": str(min(ratios)), "R": str(max(ratios))}
    else:
        annulus = None
    if record["annulus"] != annulus:
        return f"{token}: annulus {record['annulus']} != {annulus}"
    zs = [complex(r["re"], r["im"]) for r in record["roots"]]
    if len(zs) != len(d) - 1:
        return f"{token}: {len(zs)} roots for degree {len(d) - 1}"
    if sum(z.imag > 0 for z in zs) != sum(z.imag < 0 for z in zs):
        return f"{token}: nonreal roots are not paired with conjugates"
    worst = max((_relative_residual(d, z) for z in zs), default=0.0)
    if worst > ROOT_RESIDUAL:
        return f"{token}: root residual {worst:.3e} above {ROOT_RESIDUAL}"
    return None
