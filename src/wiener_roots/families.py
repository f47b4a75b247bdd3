"""Named graph families: closed-form Wiener polynomials and constructors.

Each family is one entry of the table `_FAMILIES`, keyed by its name: its
arity, the predicate its parameters must meet, its order, its labeled
edges and, where a closed form exists, its exact pair counts.  The edges of
the dense families are generated one at a time, so a graph never holds its
edge list: the bit rows of K_n take n^2/8 bytes, a list of its edge tuples
about 40 n^2.  The graph's distance_distribution is the cross-check, and
the two routes must agree; the test suite asserts it across the full
parameter grids.  A graph is built only up to GRAPH_MAX_ORDER vertices,
checked from the declared order before any edge exists.  Closed forms have
no such bound, except the path's: it lists one count per distance, so it is
refused past GRAPH_MAX_ORDER too.  A family without a closed form gets its
counts from the graph, in time that grows with the diameter times the edge
count: broom:3,16384 takes well under a second.

Family names and parameters:
  complete:n             all pairs adjacent
  complete_minus_edge:n  one edge removed
  star:n                 one center, n-1 leaves
  path:n                 n vertices in a line
  double_star:k,n        adjacent centers with k-1 and n-k-1 leaves
  broom:k,n              path of k vertices, n-k leaves on one end; closed
                         forms for handles k = 4 and 5 only
  t_n:n                  the tree T_n: path of five, n-5 extra leaves on the
                         middle vertex
  g_n:n                  the graph G_n: complete graph of order n-1 minus an
                         edge, plus a pendant vertex on an endpoint of the
                         missing edge
  diameter2:n,m          star plus the first m-n+1 non-adjacent leaf pairs
  path_with_pendants:p,a,l   path of p vertices, l leaves at position a
  leaf_augmented:m,k     path of m vertices, then k rounds of attaching one
                         new leaf to every vertex
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .graph_core import GRAPH_MAX_ORDER, Graph, distance_distribution, from_edge_list
from .polynomial import WienerPolynomial

Edges = Iterable[tuple[int, int]]


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its integer parameters."""

    name: str
    params: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.name}:{','.join(str(p) for p in self.params)}"


class _Family(NamedTuple):
    """One family; every function takes the family's parameters in order."""

    arity: int
    valid: Callable[..., bool]  # the parameter domain
    order: Callable[..., int]  # exact, or past GRAPH_MAX_ORDER whenever the order is
    edges: Callable[..., Edges]  # of the labeled graph on 0..order-1, read once
    # the closed-form pair counts d_1..d_D; None, or None for some parameters,
    # where there is none
    counts: Optional[Callable[..., Optional[tuple[int, ...]]]] = None


def _clique(n: int) -> Iterator[tuple[int, int]]:
    """The pairs of K_n by larger end, so (0, 1) comes first, one at a time."""
    return ((u, v) for v in range(n) for u in range(v))


def _path(length: int, attach: int = 1, leaves: int = 0) -> list[tuple[int, int]]:
    """The path 0, ..., length-1, plus the leaves length, length+1, ... on
    vertex attach-1."""
    return ([(v, v + 1) for v in range(length - 1)]
            + [(attach - 1, length + j) for j in range(leaves)])


def _leaf_pairs(n: int, count: int) -> Iterator[tuple[int, int]]:
    """The first `count` pairs of the leaves 1..n-1 of a star, by larger end,
    one at a time."""
    return islice(((u, v) for v in range(2, n) for u in range(1, v)), count)


def _path_counts(n: int) -> tuple[int, ...]:
    """(n-1, ..., 1), one count per distance; ValueError past GRAPH_MAX_ORDER."""
    if n > GRAPH_MAX_ORDER:
        raise ValueError(f"path:{n} has more than {GRAPH_MAX_ORDER} vertices; its "
                         "closed form lists one count per distance")
    return tuple(range(n - 1, 0, -1))


_FAMILIES: dict[str, _Family] = {
    "complete": _Family(
        1, lambda n: n >= 2, lambda n: n, _clique,
        lambda n: (comb(n, 2),)),
    "complete_minus_edge": _Family(
        1, lambda n: n >= 3, lambda n: n, lambda n: islice(_clique(n), 1, None),
        lambda n: (comb(n, 2) - 1, 1)),
    "star": _Family(
        1, lambda n: n >= 2, lambda n: n, lambda n: _path(1, 1, n - 1),
        lambda n: (1,) if n == 2 else (n - 1, comb(n - 1, 2))),
    "path": _Family(
        1, lambda n: n >= 2, lambda n: n, _path,
        _path_counts),
    "double_star": _Family(
        2, lambda k, n: n >= 4 and 2 <= k <= n - 2, lambda k, n: n,
        lambda k, n: _path(2, 1, k - 1) + [(1, v) for v in range(k + 1, n)],
        lambda k, n: (n - 1, comb(k, 2) + comb(n - k, 2), (k - 1) * (n - k - 1))),
    "broom": _Family(
        2, lambda k, n: k >= 3 and n > k, lambda k, n: n,
        lambda k, n: _path(k, k, n - k),
        lambda k, n: {4: (n - 1, comb(n - 3, 2) + 2, n - 3, n - 4),
                      5: (n - 1, comb(n - 4, 2) + 3, n - 3, n - 4, n - 5)}.get(k)),
    "t_n": _Family(
        1, lambda n: n >= 5, lambda n: n, lambda n: _path(5, 3, n - 5),
        lambda n: (n - 1, comb(n - 3, 2) + 2, 2 * (n - 4), 1)),
    "g_n": _Family(
        1, lambda n: n >= 4, lambda n: n,
        lambda n: chain(islice(_clique(n - 1), 1, None), [(0, n - 1)]),
        lambda n: (comb(n - 1, 2), n - 2, 1)),
    "diameter2": _Family(
        2, lambda n, m: n >= 3 and n - 1 <= m < comb(n, 2), lambda n, m: n,
        lambda n, m: chain(_path(1, 1, n - 1), _leaf_pairs(n, m - (n - 1))),
        lambda n, m: (m, comb(n, 2) - m)),
    "path_with_pendants": _Family(
        3, lambda p, a, leaves: p >= 2 and 1 <= a <= p and leaves >= 0,
        lambda p, a, leaves: p + leaves, _path),
    "leaf_augmented": _Family(
        2, lambda m, k: m >= 2 and k >= 0,
        # k saturates at 64: any larger order is past the bound anyway
        lambda m, k: m << min(k, 64),
        lambda m, k: chain(_path(m), ((v, (m << r) + v) for r in range(k)
                                      for v in range(m << r)))),
}


def parse_family_spec(text: str) -> FamilySpec:
    """Parse CLI strings such as 'double_star:2,5' or 'broom:4,12'."""
    name, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"family spec {text!r} must look like 'name:p1,p2'")
    try:
        params = tuple(int(p) for p in rest.split(","))
    except ValueError:
        raise ValueError(f"family spec {text!r} has non-integer parameters") from None
    spec = FamilySpec(name, params)
    validate_spec(spec)
    return spec


def _family(spec: FamilySpec) -> _Family:
    """The table entry of the spec's family, once its parameters are checked."""
    family = _FAMILIES.get(spec.name)
    if family is None:
        raise ValueError(f"unknown family {spec.name!r}")
    if len(spec.params) != family.arity:
        raise ValueError(
            f"{spec.name} takes {family.arity} parameters, got {len(spec.params)}")
    if not family.valid(*spec.params):
        raise ValueError(f"parameters {spec.params} out of range for {spec.name}")
    return family


def validate_spec(spec: FamilySpec) -> None:
    """Check the family name and its parameter ranges."""
    _family(spec)


def family_closed_form(spec: FamilySpec) -> WienerPolynomial | None:
    """The closed-form Wiener polynomial, or None where the family has none."""
    family = _family(spec)
    counts = family.counts and family.counts(*spec.params)
    return WienerPolynomial(counts) if counts else None


def family_polynomial(spec: FamilySpec) -> WienerPolynomial:
    """Exact Wiener polynomial: the closed form where one exists, else the graph's."""
    w = family_closed_form(spec)
    return w if w is not None else distance_distribution(family_graph(spec))


def family_graph(spec: FamilySpec) -> Graph:
    """A labeled representative whose distance distribution matches the family."""
    return _graph(spec, _family(spec))


def _graph(spec: FamilySpec, family: _Family) -> Graph:
    """The family's labeled graph, refused past GRAPH_MAX_ORDER before any edge exists."""
    order = family.order(*spec.params)
    if order > GRAPH_MAX_ORDER:
        raise ValueError(f"{spec} has more than {GRAPH_MAX_ORDER} vertices; "
                         "only closed forms go past that order")
    return from_edge_list(order, family.edges(*spec.params))


def dense_construct(a: int, b: int) -> tuple[FamilySpec, Fraction]:
    """A diameter-2 family member whose single nonzero root is exactly -a/b.

    Takes order 2(a+b) and size a(2(a+b)-1); the size bounds n-1 <= m < C(n,2)
    hold for every pair of positive integers, which is what makes the rational
    roots of this family dense in the nonpositive reals.
    """
    if a < 1 or b < 1:
        raise ValueError("both parameters must be positive")
    n = 2 * (a + b)
    m = a * (2 * (a + b) - 1)
    return FamilySpec("diameter2", (n, m)), Fraction(-a, b)


def tree_dense_construct(a: int, b: int, ell: int) -> FamilySpec:
    """The double star whose leftmost root tends to -r - 1/(4r) for r = a/b.

    Order (2a+b)*ell with side k = ell*b; ell >= 5 keeps the order at 15 or
    more, where double-star roots are guaranteed real.
    """
    if a < 1 or b < 1:
        raise ValueError("both ratio parameters must be positive")
    if ell < 5:
        raise ValueError("need ell >= 5 so the roots are guaranteed real")
    n = (2 * a + b) * ell
    k = ell * b
    return FamilySpec("double_star", (k, n))


def leaf_augment(t: Graph) -> Graph:
    """Attach one new leaf to every vertex of a tree; the order doubles.

    Vertex v of the input gets the new leaf n + v.  The diameter grows by
    exactly two.  The claims suite checks the squared-binomial coefficient
    identity for the result rather than assuming it.
    """
    if t.n < 2:
        raise ValueError("leaf augmentation needs a tree of order >= 2")
    if not t.is_tree():
        raise ValueError("leaf augmentation is defined for trees only")
    n = t.n
    edges = t.edges()
    edges += [(v, n + v) for v in range(n)]
    return from_edge_list(2 * n, edges)
