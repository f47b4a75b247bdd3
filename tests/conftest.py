"""Shared test helpers."""

from typing import NamedTuple

import pytest

from wiener_roots import polynomial
from wiener_roots.claims import distinct_distributions
from wiener_roots.families import FamilySpec, family_polynomial
from wiener_roots.graph_core import Graph
from wiener_roots.polynomial import WienerPolynomial, roots_batch


def graph6_encode(g: Graph) -> str:
    """Independent graph6 encoder following the published format definition."""
    bits = [1 if g.has_edge(u, v) else 0 for v in range(1, g.n) for u in range(v)]
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(63 + g.n)]
    for i in range(0, len(bits), 6):
        value = 0
        for b in bits[i:i + 6]:
            value = value * 2 + b
        chars.append(chr(63 + value))
    return "".join(chars)


# Each malformed kind of graph6 record, with its message.
GRAPH6_MALFORMED = {
    ">>graph6<<": "empty graph6 record",
    "A" + chr(40): "character code 40 outside graph6 range 63..126",
    "C\u2603~": "character code 9731 outside graph6 range 63..126",
    "C ~": "character code 32 outside graph6 range 63..126",
    "~~~": "multi-byte order encodings (order > 62) are not supported",
    "?": "order-0 graph6 records are not supported",
    "B": "order 3 needs 1 payload characters, got 0",
    ">>graph6<<A__": "order 2 needs 1 payload characters, got 2",
    "A@": "nonzero padding bits in final character",
    "D?@": "nonzero padding bits in final character",
    # the first check a record fails decides its message
    "~(": "character code 40 outside graph6 range 63..126",
    "B@@": "order 3 needs 1 payload characters, got 2",
}


@pytest.fixture
def encode_graph6():
    return graph6_encode


class SolvedPool(NamedTuple):
    """One pool of distributions solved by one `roots_batch` call."""

    dvecs: list          # the pool's distributions of length >= 2, in order
    root_sets: list      # their root sets, the root_set roots bit for bit
    disc_counts: list    # every (coefficient row, count) `_disc_real_counts` gave


@pytest.fixture(scope="session")
def solved_pool():
    """solved_pool(kind, *orders), solved once per test session.

    kind "trees" or "graphs" with one order n is the distinct distributions
    of order n; a family name with orders lo, hi is that family at the
    orders lo..hi.
    """
    solved = {}

    def solve(kind, *orders):
        if (kind, orders) not in solved:
            if kind in ("trees", "graphs"):
                pool = distinct_distributions(kind, *orders)
            else:
                lo, hi = orders
                pool = [family_polynomial(FamilySpec(kind, (n,))).d
                        for n in range(lo, hi + 1)]
            dvecs = [dvec for dvec in pool if len(dvec) > 1]
            seen = []
            counts = polynomial._disc_real_counts

            def recording(c, z):
                found = counts(c, z)
                seen.extend(zip(c.tolist(), found.tolist()))
                return found

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(polynomial, "_disc_real_counts", recording)
                root_sets = roots_batch([WienerPolynomial(dvec) for dvec in dvecs])
            solved[kind, orders] = SolvedPool(dvecs, root_sets, seen)
        return solved[kind, orders]

    return solve
