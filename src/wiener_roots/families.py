"""Named graph families: closed-form Wiener polynomials and constructors.

Each family is available both as an explicit graph (for the BFS cross-check)
and, where a closed form exists, as exact coefficients.  The two routes must
agree; the test suite asserts it across the full parameter grids.

Family names and parameters:
  complete:n             all pairs adjacent
  complete_minus_edge:n  one edge removed
  star:n                 one center, n-1 leaves
  path:n                 n vertices in a line
  double_star:k,n        adjacent centers with k-1 and n-k-1 leaves
  broom:k,n              path of k vertices, n-k leaves on one end
  t_n:n                  path of five, n-5 extra leaves on the middle vertex
  g_n:n                  complete graph of order n-1 minus an edge, plus a
                         pendant vertex on an endpoint of the missing edge
  diameter2:n,m          star plus the first m-n+1 non-adjacent leaf pairs
  path_with_pendants:p,a,l   path of p vertices, l leaves at position a
  leaf_augmented:m,k     path of m vertices, then k rounds of attaching one
                         new leaf to every vertex
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .graph_core import Graph, distance_distribution, from_edge_list
from .polynomial import WienerPolynomial


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its integer parameters."""

    name: str
    params: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.name}:{','.join(str(p) for p in self.params)}"


_PARAM_COUNTS = {
    "complete": 1,
    "complete_minus_edge": 1,
    "star": 1,
    "path": 1,
    "double_star": 2,
    "broom": 2,
    "t_n": 1,
    "g_n": 1,
    "diameter2": 2,
    "path_with_pendants": 3,
    "leaf_augmented": 2,
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


def validate_spec(spec: FamilySpec) -> None:
    """Check the family name and its parameter ranges."""
    if spec.name not in _PARAM_COUNTS:
        raise ValueError(f"unknown family {spec.name!r}")
    if len(spec.params) != _PARAM_COUNTS[spec.name]:
        raise ValueError(
            f"{spec.name} takes {_PARAM_COUNTS[spec.name]} parameters, "
            f"got {len(spec.params)}")
    p = spec.params
    ok = True
    if spec.name in ("complete", "star", "path"):
        ok = p[0] >= 2
    elif spec.name == "complete_minus_edge":
        ok = p[0] >= 3
    elif spec.name == "double_star":
        k, n = p
        ok = n >= 4 and 2 <= k <= n - 2
    elif spec.name == "broom":
        k, n = p
        ok = k >= 3 and n > k
    elif spec.name == "t_n":
        ok = p[0] >= 5
    elif spec.name == "g_n":
        ok = p[0] >= 4
    elif spec.name == "diameter2":
        n, m = p
        ok = n >= 3 and n - 1 <= m < comb(n, 2)
    elif spec.name == "path_with_pendants":
        path, attach, leaves = p
        ok = path >= 2 and 1 <= attach <= path and leaves >= 0
    elif spec.name == "leaf_augmented":
        base, k = p
        ok = base >= 2 and k >= 0
    if not ok:
        raise ValueError(f"parameters {spec.params} out of range for {spec.name}")


def family_polynomial(spec: FamilySpec) -> WienerPolynomial:
    """Exact Wiener polynomial; closed form where one exists, BFS otherwise."""
    validate_spec(spec)
    p = spec.params
    if spec.name == "complete":
        return WienerPolynomial((comb(p[0], 2),))
    if spec.name == "complete_minus_edge":
        return WienerPolynomial((comb(p[0], 2) - 1, 1))
    if spec.name == "star":
        n = p[0]
        if n == 2:
            return WienerPolynomial((1,))
        return WienerPolynomial((n - 1, comb(n - 1, 2)))
    if spec.name == "path":
        n = p[0]
        return WienerPolynomial(tuple(range(n - 1, 0, -1)))
    if spec.name == "double_star":
        k, n = p
        return WienerPolynomial(
            (n - 1, comb(k, 2) + comb(n - k, 2), (k - 1) * (n - k - 1)))
    if spec.name == "t_n":
        n = p[0]
        return WienerPolynomial((n - 1, comb(n - 3, 2) + 2, 2 * (n - 4), 1))
    if spec.name == "g_n":
        n = p[0]
        return WienerPolynomial((comb(n - 1, 2), n - 2, 1))
    if spec.name == "diameter2":
        n, m = p
        return WienerPolynomial((m, comb(n, 2) - m))
    if spec.name == "broom":
        k, n = p
        if k == 4:
            return WienerPolynomial((n - 1, comb(n - 3, 2) + 2, n - 3, n - 4))
        if k == 5:
            return WienerPolynomial(
                (n - 1, comb(n - 4, 2) + 3, n - 3, n - 4, n - 5))
    # no closed form: brooms with other handles, pendant paths, augmentations
    return distance_distribution(family_graph(spec))


def family_graph(spec: FamilySpec) -> Graph:
    """A labeled representative whose distance distribution matches the family."""
    validate_spec(spec)
    p = spec.params
    if spec.name == "complete":
        n = p[0]
        return from_edge_list(n, [(u, v) for v in range(n) for u in range(v)])
    if spec.name == "complete_minus_edge":
        n = p[0]
        return from_edge_list(
            n, [(u, v) for v in range(n) for u in range(v) if (u, v) != (0, 1)])
    if spec.name == "star":
        n = p[0]
        return from_edge_list(n, [(0, v) for v in range(1, n)])
    if spec.name == "path":
        n = p[0]
        return from_edge_list(n, [(v, v + 1) for v in range(n - 1)])
    if spec.name == "double_star":
        k, n = p
        edges = [(0, 1)]
        edges += [(0, v) for v in range(2, k + 1)]
        edges += [(1, v) for v in range(k + 1, n)]
        return from_edge_list(n, edges)
    if spec.name == "broom":
        k, n = p
        edges = [(v, v + 1) for v in range(k - 1)]
        edges += [(k - 1, v) for v in range(k, n)]
        return from_edge_list(n, edges)
    if spec.name == "t_n":
        return family_graph(FamilySpec("path_with_pendants", (5, 3, p[0] - 5)))
    if spec.name == "g_n":
        n = p[0]
        edges = [(u, v) for v in range(n - 1) for u in range(v) if (u, v) != (0, 1)]
        edges.append((0, n - 1))
        return from_edge_list(n, edges)
    if spec.name == "diameter2":
        n, m = p
        edges = [(0, v) for v in range(1, n)]
        extra = m - (n - 1)
        for v in range(1, n):
            for u in range(1, v):
                if extra == 0:
                    break
                edges.append((u, v))
                extra -= 1
        return from_edge_list(n, edges)
    if spec.name == "path_with_pendants":
        path, attach, leaves = p
        edges = [(v, v + 1) for v in range(path - 1)]
        edges += [(attach - 1, path + j) for j in range(leaves)]
        return from_edge_list(path + leaves, edges)
    if spec.name == "leaf_augmented":
        base, k = p
        g = family_graph(FamilySpec("path", (base,)))
        for _ in range(k):
            g = leaf_augment(g)
        return g
    raise AssertionError(f"unhandled family {spec.name}")


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
