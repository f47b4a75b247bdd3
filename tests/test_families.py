"""Family constructors: closed forms against the BFS ground truth."""

import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from wiener_roots.graph_core import GRAPH_MAX_ORDER, distance_distribution, load_fixture
from wiener_roots.families import (
    _FAMILIES,
    FamilySpec,
    dense_construct,
    family_graph,
    family_polynomial,
    leaf_augment,
    parse_family_spec,
    tree_dense_construct,
    validate_spec,
)
from wiener_roots.polynomial import roots


def bfs_poly(spec):
    return distance_distribution(family_graph(spec)).d


# ---------------------------------------------------------------------------
# Closed-form values
# ---------------------------------------------------------------------------


def test_known_coefficient_values():
    assert family_polynomial(FamilySpec("complete_minus_edge", (4,))).d == (5, 1)
    assert family_polynomial(FamilySpec("star", (5,))).d == (4, 6)
    assert family_polynomial(FamilySpec("double_star", (2, 5))).d == (4, 4, 2)
    assert family_polynomial(FamilySpec("t_n", (6,))).d == (5, 5, 4, 1)
    assert family_polynomial(FamilySpec("t_n", (9,))).d == (8, 17, 10, 1)
    assert family_polynomial(FamilySpec("g_n", (6,))).d == (10, 4, 1)
    assert family_polynomial(FamilySpec("diameter2", (4, 3))).d == (3, 3)
    assert family_polynomial(FamilySpec("path", (5,))).d == (4, 3, 2, 1)
    assert family_polynomial(FamilySpec("broom", (4, 9))).d == (8, comb(6, 2) + 2, 6, 5)
    assert family_polynomial(FamilySpec("broom", (5, 9))).d == (8, comb(5, 2) + 3, 6, 5, 4)


def test_degenerate_family_members_collapse_to_paths():
    # a broom with one leaf and the pendant-path family with no leaves are paths
    assert family_polynomial(FamilySpec("broom", (4, 5))).d == (4, 3, 2, 1)
    assert family_polynomial(FamilySpec("t_n", (5,))).d == (4, 3, 2, 1)
    assert family_polynomial(FamilySpec("g_n", (4,))).d == (3, 2, 1)


def test_closed_form_agrees_with_bfs_up_to_order_60():
    specs = []
    specs += [FamilySpec("complete", (n,)) for n in range(2, 61)]
    specs += [FamilySpec("complete_minus_edge", (n,)) for n in range(3, 61)]
    specs += [FamilySpec("star", (n,)) for n in range(2, 61)]
    specs += [FamilySpec("path", (n,)) for n in range(2, 61)]
    specs += [FamilySpec("double_star", (k, n))
              for n in range(4, 61, 3) for k in range(2, n - 1)]
    specs += [FamilySpec("broom", (k, n))
              for k in (3, 4, 5, 8) for n in range(k + 1, 61, 5)]
    specs += [FamilySpec("t_n", (n,)) for n in range(5, 61)]
    specs += [FamilySpec("g_n", (n,)) for n in range(4, 61, 3)]
    specs += [FamilySpec("diameter2", (n, m))
              for n in (5, 9, 14) for m in range(n - 1, comb(n, 2))]
    assert {spec.name for spec in specs} == \
        {name for name, family in _FAMILIES.items() if family.counts}
    for spec in specs:
        assert family_polynomial(spec).d == bfs_poly(spec), str(spec)
        assert _FAMILIES[spec.name].order(*spec.params) == family_graph(spec).n, str(spec)


def _traced_peak(fn):
    """fn() and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_families_stream_their_edges():
    # a list of the 523,776 edges of K_1024 takes tens of MB; streamed, the
    # edges take no memory of their own
    for spec in (FamilySpec("complete", (1024,)), FamilySpec("complete_minus_edge", (1024,)),
                 FamilySpec("g_n", (1024,)), FamilySpec("diameter2", (1024, 400000))):
        count, peak = _traced_peak(
            lambda: sum(1 for _ in _FAMILIES[spec.name].edges(*spec.params)))
        assert count == _FAMILIES[spec.name].counts(*spec.params)[0], str(spec)
        assert peak < 1_000_000, (str(spec), peak)
    # the whole build: the bit rows of K_256 take about 20 KB, its edge list
    # 2 MB (tracemalloc traces every bigint of the rows, so K_1024 takes 16 s)
    graph, peak = _traced_peak(lambda: family_graph(FamilySpec("complete", (256,))))
    assert graph.edge_count == 256 * 255 // 2 and peak < 1_000_000, peak


def test_pendant_path_fixtures():
    fig7 = family_graph(FamilySpec("path_with_pendants", (15, 8, 1)))
    assert distance_distribution(fig7).d == \
        distance_distribution(load_fixture("extremal_real_tree_16")).d
    fig8 = family_graph(FamilySpec("path_with_pendants", (13, 7, 4)))
    assert distance_distribution(fig8).d == \
        distance_distribution(load_fixture("extremal_real_tree_17")).d
    tn = family_graph(FamilySpec("path_with_pendants", (5, 3, 4)))
    assert distance_distribution(tn).d == family_polynomial(FamilySpec("t_n", (9,))).d


def test_validation_rejects_bad_parameters():
    for bad in [
        FamilySpec("complete", (1,)),
        FamilySpec("complete_minus_edge", (2,)),
        FamilySpec("double_star", (1, 5)),
        FamilySpec("double_star", (4, 5)),
        FamilySpec("broom", (2, 5)),
        FamilySpec("broom", (5, 5)),
        FamilySpec("t_n", (4,)),
        FamilySpec("diameter2", (4, 2)),
        FamilySpec("diameter2", (4, 6)),
        FamilySpec("path_with_pendants", (4, 5, 1)),
        FamilySpec("nonsense", (1,)),
        FamilySpec("path", (3, 3)),
    ]:
        with pytest.raises(ValueError):
            validate_spec(bad)


def test_path_closed_form_stops_at_the_graph_order_bound():
    # one count per distance, so a path is listed only as far as a graph is built
    assert family_polynomial(FamilySpec("path", (GRAPH_MAX_ORDER,))).d == \
        tuple(range(GRAPH_MAX_ORDER - 1, 0, -1))
    for n in (GRAPH_MAX_ORDER + 1, 10 ** 200):
        with pytest.raises(ValueError, match=f"more than {GRAPH_MAX_ORDER} vertices"):
            family_polynomial(FamilySpec("path", (n,)))


def test_parse_family_spec():
    assert parse_family_spec("double_star:2,5") == FamilySpec("double_star", (2, 5))
    assert parse_family_spec("broom:4,12") == FamilySpec("broom", (4, 12))
    assert parse_family_spec("diameter2:6,10") == FamilySpec("diameter2", (6, 10))
    for bad in ("star", "star:", "star:x", "star:2,3"):
        with pytest.raises(ValueError):
            parse_family_spec(bad)


# ---------------------------------------------------------------------------
# Density constructions
# ---------------------------------------------------------------------------


def test_dense_construct_examples():
    spec, root = dense_construct(1, 1)
    assert spec == FamilySpec("diameter2", (4, 3)) and root == -1
    spec, root = dense_construct(2, 1)
    assert spec == FamilySpec("diameter2", (6, 10)) and root == -2
    spec, root = dense_construct(1, 2)
    assert spec == FamilySpec("diameter2", (6, 5)) and root == Fraction(-1, 2)
    with pytest.raises(ValueError):
        dense_construct(0, 1)


def test_dense_construct_roots_exact_on_a_grid():
    for a in range(1, 21):
        for b in range(1, 21):
            spec, root = dense_construct(a, b)
            n, m = spec.params
            assert n - 1 <= m < comb(n, 2)
            (solved,) = roots(family_polynomial(spec))
            assert solved.exact_form == str(Fraction(-a, b))
            assert Fraction(-m, comb(n, 2) - m) == Fraction(-a, b)


def test_tree_dense_construct():
    assert tree_dense_construct(1, 2, 5) == FamilySpec("double_star", (10, 20))
    assert tree_dense_construct(1, 1, 5) == FamilySpec("double_star", (5, 15))
    assert tree_dense_construct(2, 1, 5) == FamilySpec("double_star", (5, 25))
    with pytest.raises(ValueError):
        tree_dense_construct(1, 1, 4)
    # orders 15 and up are guaranteed all-real (the discriminant is positive)
    for (a, b, ell) in [(1, 2, 5), (1, 1, 7), (3, 2, 6), (5, 1, 5)]:
        spec = tree_dense_construct(a, b, ell)
        rts = roots(family_polynomial(spec))
        assert all(r.im == 0 for r in rts)


# ---------------------------------------------------------------------------
# Leaf augmentation
# ---------------------------------------------------------------------------


def test_leaf_augment_construction():
    p3 = family_graph(FamilySpec("path", (3,)))
    t1 = leaf_augment(p3)
    assert t1.n == 6 and t1.is_tree()
    assert distance_distribution(t1).degree == distance_distribution(p3).degree + 2
    # every original vertex gained exactly one leaf
    assert all(t1.degree(3 + v) == 1 for v in range(3))
    assert distance_distribution(t1).d == (5, 5, 4, 1)


def test_leaf_augment_of_single_edge_gives_path_of_four():
    k2 = family_graph(FamilySpec("path", (2,)))
    assert distance_distribution(leaf_augment(k2)).d == (3, 2, 1)


def test_leaf_augment_rejects_non_trees_and_tiny_input():
    triangle = family_graph(FamilySpec("complete", (3,)))
    with pytest.raises(ValueError):
        leaf_augment(triangle)
    from wiener_roots.graph_core import from_edge_list
    with pytest.raises(ValueError):
        leaf_augment(from_edge_list(1, []))


def test_leaf_augmented_family_counts_pairs_correctly():
    # BFS truth: W(augmented) = (x+1)^2 W(base) + n x, for the base order n
    for base in range(2, 10):
        spec = FamilySpec("leaf_augmented", (base, 1))
        got = family_polynomial(spec).d
        w0 = family_polynomial(FamilySpec("path", (base,))).d
        expect = [0] * (len(w0) + 2)
        for i, di in enumerate(w0):
            expect[i] += di
            expect[i + 1] += 2 * di
            expect[i + 2] += di
        expect[0] += base
        assert got == tuple(expect)
