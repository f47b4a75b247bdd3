"""Claim verifiers: verdicts, witnesses, determinism, and report plumbing."""

import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wiener_roots import claims
from wiener_roots.claims import (
    ClaimReport,
    ExtremalReport,
    find_purely_imaginary,
    run_claim,
    search_extremal,
    verify_broom_asymptotics,
    verify_density,
    verify_double_star_discriminant,
    verify_extremal_real_part,
    verify_half_plane,
    verify_leaf_augment_identity,
    verify_max_modulus,
    verify_min_modulus,
    verify_path_annulus,
    verify_ratio_lower,
    verify_tn_extremal,
    verify_tn_interval,
    verify_tree_density_limit,
    verify_tree_ratio_bounds,
    verify_tree_root_bound,
)
from wiener_roots.families import FamilySpec, family_polynomial
from wiener_roots.graph_core import (
    distance_distribution,
    enumerate_connected_distributions,
    enumerate_trees,
    tree_parent_array,
)
from wiener_roots.polynomial import (
    Annulus,
    ComplexRoot,
    enestrom_kakeya,
    length_groups,
    root_discs,
)


def test_report_invariants():
    with pytest.raises(ValueError):
        ClaimReport("x", {}, "fail", [], [])  # fail needs counterexamples
    with pytest.raises(ValueError):
        ClaimReport("x", {}, "pass", [], [("d", "bad")])
    with pytest.raises(ValueError):
        ClaimReport("x", {}, "maybe", [], [])
    with pytest.raises(ValueError):
        ExtremalReport(5, "max_real", "trees", 0.0, [])


def test_max_modulus_witnesses():
    r = verify_max_modulus(4)
    assert r.verdict == "pass"
    assert any("(5, 1)" in desc for desc, _ in r.witnesses)
    r = verify_max_modulus(3)
    assert r.verdict == "pass" and any("root -2" in str(v) for _, v in r.witnesses)


def test_min_modulus_witnesses():
    r = verify_min_modulus(5)
    assert r.verdict == "pass"
    assert any("-2/3" in str(v) for _, v in r.witnesses)
    r = verify_min_modulus(6)
    assert any("-1/2" in str(v) for _, v in r.witnesses)
    r = verify_min_modulus(3)
    assert r.verdict == "pass"


def test_ratio_bounds_pass():
    assert verify_tree_ratio_bounds(3, 9).verdict == "pass"
    assert verify_ratio_lower(3, 6).verdict == "pass"
    assert verify_tree_root_bound(5, 9).verdict == "pass"


def test_tn_interval_cases():
    assert verify_tn_interval(6, 50).verdict == "pass"
    assert verify_tn_interval(5).verdict == "inconclusive-budget"
    with pytest.raises(ValueError):
        verify_tn_interval(4)


def test_tn_extremal_small():
    r = verify_tn_extremal(5, 9)
    assert r.verdict == "pass"


def test_path_annulus():
    r = verify_path_annulus(3, 40)
    assert r.verdict == "pass"


def test_density_and_tree_density():
    assert verify_density(12, 12).verdict == "pass"
    r = verify_tree_density_limit(1, 2, 400)
    assert r.verdict == "pass"
    r = verify_tree_density_limit(2, 1, 400)
    assert r.verdict == "pass"


def test_broom_asymptotics():
    assert verify_broom_asymptotics("imag", 10 ** 5).verdict == "pass"
    assert verify_broom_asymptotics("real", 10 ** 5).verdict == "pass"
    with pytest.raises(ValueError):
        verify_broom_asymptotics("sideways")


def test_half_plane_certificates():
    r = verify_half_plane()
    assert r.verdict == "pass" and len(r.witnesses) == 3


def test_double_star_discriminant():
    r = verify_double_star_discriminant(4, 60)
    assert r.verdict == "pass"
    # orders 4..14 each produce a nonreal witness
    nonreal = [w for w in r.witnesses if "nonreal" in w[0] or "nonreal" in str(w[1])]
    assert len(nonreal) == 11


def test_find_purely_imaginary():
    r = find_purely_imaginary("graphs", 5)
    assert r.verdict == "pass"
    assert r.witnesses == [("graphs order 5", "no purely imaginary roots")]
    r = find_purely_imaginary("graphs", 6)
    assert any("(6, 4, 3, 2)" in desc for desc, _ in r.witnesses)
    with pytest.raises(ValueError):
        find_purely_imaginary("digraphs", 5)


def test_search_extremal_objectives():
    r = search_extremal(10, "max_real", "trees")
    assert len(r.argmax) == 1 and r.argmax[0]["d"] == list(range(9, 0, -1))
    r = search_extremal(5, "max_real", "graphs")
    assert r.best_value < 0
    r = search_extremal(9, "max_modulus", "trees")
    assert r.best_value <= 2 * (9 - 4)
    with pytest.raises(ValueError):
        search_extremal(8, "max_real", "graphs")  # gated
    with pytest.raises(ValueError, match="unknown objective"):
        search_extremal(5, "max_everything", "graphs")


@pytest.mark.parametrize("tol", [float("nan"), -1.0])
def test_search_extremal_rejects_a_bad_tol(tol, monkeypatch):
    def no_scan(*args):
        raise AssertionError("search_extremal scanned before checking tol")

    monkeypatch.setattr(claims, "tree_instances", no_scan)
    monkeypatch.setattr(claims, "distinct_distributions", no_scan)
    with pytest.raises(ValueError, match="need a finite tol >= 0"):
        search_extremal(7, "max_modulus", "trees", tol=tol)
    with pytest.raises(ValueError, match="need a finite tol >= 0"):
        search_extremal(5, "max_real", "graphs", tol=tol)


def test_extremal_report_value_is_attained():
    r = search_extremal(7, "max_modulus", "trees")
    hit = tuple(r.argmax[0]["d"])
    attained = max(x.modulus for x in claims.root_set(hit))
    assert r.best_value == pytest.approx(attained)


_STATISTICS = {
    "max_modulus": lambda rs: max(r.modulus for r in rs),
    "max_real": lambda rs: max(r.re for r in rs),
}


def _exhaustive_search(n, objective, kind, tol):
    """search_extremal's best value and argmax by the per-instance scan: every
    tree (its vector by BFS, its edges from the Graph) or every distinct graph
    distribution, scored from its own root set, nothing pruned."""
    if kind == "trees":
        instances = [(distance_distribution(g).d,
                      {"edges": [list(e) for e in g.edges()]})
                     for g in enumerate_trees(n)]
    else:
        dists, _ = enumerate_connected_distributions(n)
        instances = [(dd.d, {}) for dd in dists]
    scored = [(_STATISTICS[objective](claims.root_set(dvec)), {"d": list(dvec), **extra})
              for dvec, extra in instances if len(dvec) > 1]
    best = max(value for value, _ in scored)
    argmax = [desc for value, desc in scored if abs(value - best) <= tol * (1 + abs(best))]
    return best, argmax


@pytest.mark.parametrize("tol", [claims.DEFAULT_TOLERANCE, 1e6])
def test_pruned_modulus_scans_match_the_exhaustive_scan(tol):
    # at tol=1e6 the search's floor is negative, so it prunes nothing
    for n in range(5, 14):
        best, best_d = 0.0, None
        for dvec in claims.distinct_distributions("trees", n):
            for r in claims.root_set(dvec):
                if r.modulus > best:
                    best, best_d = r.modulus, dvec
        witness = (f"n={n}", f"max modulus {best:.6f} of bound {2 * (n - 4)} at d={best_d}")
        r = verify_tree_root_bound(n, tol=tol)
        assert r.verdict == "pass" and r.witnesses == [witness]
        e = search_extremal(n, "max_modulus", "trees", tol=tol)
        assert (e.best_value, e.argmax) == _exhaustive_search(n, "max_modulus", "trees", tol)


@pytest.mark.parametrize("tol", [claims.DEFAULT_TOLERANCE, 1e6])
@pytest.mark.parametrize("objective", sorted(_STATISTICS))
def test_search_extremal_matches_the_per_instance_scan(objective, tol):
    # at tol=1e6 every instance is in the argmax, so the instance order and
    # the ties across distinct distributions are pinned too
    for kind, orders in (("trees", range(5, 14)), ("graphs", range(3, 8))):
        for n in orders:
            e = search_extremal(n, objective, kind, tol=tol)
            assert (e.best_value, e.argmax) == _exhaustive_search(n, objective, kind, tol)


def test_pruned_modulus_scans_solve_few_root_sets():
    claims.root_set.cache_clear()
    assert verify_tree_root_bound(15).verdict == "pass"
    assert verify_tn_extremal(15).verdict == "pass"
    # an exhaustive scan solves all 6,832 distinct order-15 distributions
    assert claims.root_set.cache_info().misses <= 10


def _modulus_scan(dvecs, floor):
    return claims._pruned_maxima(dvecs, "max_modulus", floor)


def test_max_moduli_solves_what_can_reach_the_floor():
    # radii 2/3, none, 2 and 2; largest moduli 2/3, sqrt(2) and 1.6506
    dvecs = [(4, 6), (10,), (4, 4, 2), (4, 6), (4, 3, 2, 1)]
    moduli = _modulus_scan(dvecs, lambda top: 0.6)
    assert list(moduli) == [(4, 6), (4, 4, 2), (4, 3, 2, 1)]
    assert moduli[(4, 6)] == pytest.approx(2 / 3)
    assert moduli[(4, 4, 2)] == pytest.approx(2 ** 0.5)
    assert list(_modulus_scan(dvecs, lambda top: top)) == \
        [(4, 4, 2), (4, 3, 2, 1)]
    # the first distribution by radius, ties in first-occurrence order, is
    # always solved
    assert list(_modulus_scan(dvecs, lambda top: 3.0)) == [(4, 4, 2)]
    # the largest real parts -2/3, -1 and -0.1747 are bounded by their root
    # discs to within 2^-20, and walked from -0.1747 down
    parts = claims._pruned_maxima(dvecs, "max_real", lambda top: -2.0)
    assert list(parts) == [(4, 6), (4, 4, 2), (4, 3, 2, 1)]
    assert parts[(4, 6)] == pytest.approx(-2 / 3)
    assert parts[(4, 4, 2)] == pytest.approx(-1)
    assert parts[(4, 3, 2, 1)] == pytest.approx(-0.17468540428)
    assert list(claims._pruned_maxima(dvecs, "max_real", lambda top: -0.7)) == \
        [(4, 6), (4, 3, 2, 1)]
    for floor in (lambda top: top, lambda top: 0.6):
        assert list(claims._pruned_maxima(dvecs, "max_real", floor)) == [(4, 3, 2, 1)]


def test_max_moduli_rejects_a_root_beyond_its_radius(monkeypatch):
    # every root of 3 + 2x + x^2 lies within max(3/2, 2/1) = 2, and its real
    # parts are -1
    monkeypatch.setattr(claims, "root_set",
                        lambda dvec: (ComplexRoot(3.0, 0.0, 0.0),))
    for objective, bound_name in (("max_modulus", "Eneström–Kakeya radius"),
                                  ("max_real", "disc bound")):
        with pytest.raises(RuntimeError, match=bound_name):
            claims._pruned_maxima([(3, 2, 1)], objective, lambda top: top)


def test_objective_values_lie_within_their_radii():
    for kind, orders in (("trees", range(2, 14)), ("graphs", range(3, 8))):
        for n in orders:
            unique = [dvec for dvec in claims.distinct_distributions(kind, n) if len(dvec) > 1]
            for dvec, radius in zip(unique, claims._ratio_radii(unique).tolist()):
                for objective, stat in _STATISTICS.items():
                    assert stat(claims.root_set(dvec)) <= radius, (dvec, objective)


@pytest.mark.parametrize("objective", sorted(_STATISTICS))
def test_shrunken_radii_make_the_scan_raise(objective, monkeypatch):
    # a bound 10^3 times too tight must be caught, not silently prune; the
    # largest bounds at tree order 10 are positive for both objectives
    name = {"max_modulus": "_ratio_radii", "max_real": "_real_part_bounds"}[objective]
    bounds = getattr(claims, name)
    monkeypatch.setattr(claims, name, lambda dvecs: bounds(dvecs) / 1e3)
    with pytest.raises(RuntimeError, match="exceeds its"):
        search_extremal(10, objective, "trees")


def _disc_pools():
    """Every distinct distribution at tree orders <= 15 and graph orders
    <= 7, and the paths of orders 3..100, as `solved_pool` keys."""
    return ([("trees", n) for n in range(3, 16)] + [("graphs", n) for n in range(3, 8)]
            + [("path", 3, 100)])


def _roots_outside_their_discs(unique, root_sets, discs):
    """The (d, root) pairs whose root lies in none of the discs that
    discs(matrix) gives for d."""
    missed = []
    for positions, m in length_groups(unique):
        centres, radii = discs(m)
        for i, row_centres, row_radii in zip(positions.tolist(), centres, radii):
            missed += [(unique[i], r.z) for r in root_sets[i]
                       if not (np.abs(r.z - row_centres) <= row_radii).any()]
    return missed


def test_root_discs_hold_every_root_and_bound_the_real_parts(solved_pool):
    for pool in _disc_pools():
        unique, root_sets, _ = solved_pool(*pool)
        assert _roots_outside_their_discs(unique, root_sets, root_discs) == []
        bounds = claims._real_part_bounds(unique)
        assert np.isfinite(bounds).all()  # no distribution here falls back
        for dvec, rs, bound in zip(unique, root_sets, bounds.tolist()):
            assert max(r.re for r in rs) <= bound, dvec


def test_shrunken_root_discs_lose_a_root(solved_pool):
    # radii 10^3 times too small must leave some root_set root outside
    def shrunken(m):
        centres, radii = root_discs(m)
        return centres, radii / 1e3

    assert any(_roots_outside_their_discs(*solved_pool(*pool)[:2], shrunken)
               for pool in _disc_pools())


def _path_annulus_root_by_root(n_lo, n_hi, tol):
    """verify_path_annulus's verdict, witnesses and counterexamples from
    every root of every order, with no discs."""
    witnesses, bad = [], []
    for n in range(n_lo, n_hi + 1):
        rs = claims.root_set(family_polynomial(FamilySpec("path", (n,))).d)
        lo = (n - 1) / (n - 2)
        bad += [(f"path order {n}", r.to_json_dict()) for r in rs
                if not lo - tol <= r.modulus <= 2 + tol]
        if n in (n_lo, n_hi):
            mods = sorted(r.modulus for r in rs)
            witnesses.append((f"path order {n}",
                              f"moduli in [{mods[0]:.9f}, {mods[-1]:.9f}]"))
    return ("pass" if not bad else "fail"), witnesses, bad


def _outcome(report):
    return report.verdict, report.witnesses, report.counterexamples


def test_path_annulus_falls_back_to_root_sets(monkeypatch):
    certified = verify_path_annulus(3, 40)
    assert _outcome(certified) == _path_annulus_root_by_root(3, 40, claims.DEFAULT_TOLERANCE)
    solved = []
    root_set = claims.root_set
    monkeypatch.setattr(claims, "root_set", lambda dvec: solved.append(dvec) or root_set(dvec))
    verify_path_annulus(3, 40)
    assert set(solved) == {(2, 1), tuple(range(39, 0, -1))}
    # with an annulus wider than the claim's, no order is certified, and
    # each one is checked root by root
    monkeypatch.setattr(claims, "enestrom_kakeya",
                        lambda p: Annulus(Fraction(1, 2), Fraction(3)))
    solved.clear()
    fallback = verify_path_annulus(3, 40)
    assert _outcome(fallback) == _outcome(certified)
    assert set(solved) == {family_polynomial(FamilySpec("path", (n,))).d
                           for n in range(3, 41)}


def test_path_annulus_certificate_is_the_claimed_annulus():
    for n in range(3, 1001):
        ann = enestrom_kakeya(family_polynomial(FamilySpec("path", (n,))))
        assert (ann.r, ann.R) == (Fraction(n - 1, n - 2), 2), n


def _scalar_radius(dvec):
    """The Eneström–Kakeya radius as the scan computed it one vector at a time."""
    return claims._RADIUS_MARGIN * max(dvec[k] / dvec[k + 1] for k in range(len(dvec) - 1))


def _radius_pools():
    for n in range(2, 18):
        yield claims.distinct_distributions("trees", n)
    for n in range(3, 8):
        yield claims.distinct_distributions("graphs", n)


def test_batched_radii_equal_the_scalar_expression():
    for pool in _radius_pools():
        unique = [dvec for dvec in pool if len(dvec) > 1]
        assert claims._ratio_radii(unique).tolist() == \
            [_scalar_radius(dvec) for dvec in unique]


def test_max_moduli_walks_in_the_scalar_sort_order(monkeypatch):
    walked = []

    def record(dvec):
        walked.append(dvec)
        return (ComplexRoot(0.0, 0.0, 0.0),)

    monkeypatch.setattr(claims, "root_set", record)
    for pool in _radius_pools():
        walked.clear()
        _modulus_scan(pool, lambda top: float("-inf"))
        unique = [dvec for dvec in dict.fromkeys(pool) if len(dvec) > 1]
        assert walked == sorted(unique, key=_scalar_radius, reverse=True)
    # ties keep their first-occurrence order
    walked.clear()
    _modulus_scan([(1, 2, 1), (4, 2), (2, 1), (6, 3, 3)], lambda top: float("-inf"))
    assert walked == [(1, 2, 1), (4, 2), (2, 1), (6, 3, 3)]


def test_radii_reject_pair_counts_past_exact_floats(monkeypatch):
    monkeypatch.setattr(claims, "root_set", lambda dvec: (ComplexRoot(0.0, 0.0, 0.0),))
    assert list(_modulus_scan([(2 ** 53 - 1, 1)], lambda top: top)) == \
        [(2 ** 53 - 1, 1)]
    for dvec in ((2 ** 53, 1), (1, 2 ** 53), (3, 2, 2 ** 53 + 1), (2 ** 64, 1)):
        with pytest.raises(ValueError):
            _modulus_scan([(3, 2, 1), dvec], lambda top: top)


def test_purely_imaginary_screen_keeps_the_exact_test_for_few(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p.d)
        return exact(p)

    exact = claims.purely_imaginary_roots
    monkeypatch.setattr(claims, "purely_imaginary_roots", counted)
    report = find_purely_imaginary("trees", 15)
    assert len(claims.distinct_distributions("trees", 15)) == 6832
    assert len(calls) <= 0.05 * 6832
    # the 17 order-15 distributions whose even and odd parts share t + 2
    assert [descs for _, descs in report.witnesses] == [["±sqrt(2)i"]] * 17


def _fraction_sqrt2_eval(coeffs, a, b):
    """The former exact Horner evaluation at a + b*sqrt(2), in Fractions."""
    va, vb = Fraction(0), Fraction(0)
    for k in range(len(coeffs) - 1, -1, -1):
        va, vb = va * a + 2 * vb * b + coeffs[k], va * b + vb * a
    return va, vb


def test_integer_sqrt2_evaluation_matches_the_fraction_oracle():
    for n in range(6, 1001):
        dvec = family_polynomial(FamilySpec("t_n", (n,))).d
        scale = 2 ** (len(dvec) - 1)
        for a in (7 - n, 8 - n):
            va, vb = _fraction_sqrt2_eval(dvec, Fraction(a), Fraction(-n, 2))
            assert claims._half_sqrt2_eval(dvec, 2 * a, -n) == (va * scale, vb * scale)
            assert claims._sqrt2_sign(*claims._half_sqrt2_eval(dvec, 2 * a, -n)) == \
                claims._sqrt2_sign(va, vb)
    # both signs and exact zeros: x^2 - 2 and x^2 - 2x - 1 = (x - 1)^2 - 2
    for coeffs in ((-2, 0, 1), (-1, -2, 1), (5, -3, 0, 2), (7,)):
        scale = 2 ** (len(coeffs) - 1)
        for a in range(-6, 7):
            for b in range(-4, 5):
                va, vb = _fraction_sqrt2_eval(coeffs, Fraction(a, 2), Fraction(b, 2))
                assert claims._half_sqrt2_eval(coeffs, a, b) == (va * scale, vb * scale)
    assert claims._sqrt2_sign(*claims._half_sqrt2_eval((-2, 0, 1), 0, 2)) == 0
    assert claims._sqrt2_sign(*claims._half_sqrt2_eval((-1, -2, 1), 2, 2)) == 0


def test_extremal_real_part_small():
    r = verify_extremal_real_part(6, 10, 5)
    assert r.verdict == "pass"


def test_leaf_augment_identity_reports_failure_with_counterexamples():
    # the squared-binomial product undercounts the n new distance-1 pairs,
    # so an honest verifier must fail and say where
    r = verify_leaf_augment_identity(samples=20)
    assert r.verdict == "fail"
    assert len(r.counterexamples) >= 20
    assert any("claimed" in str(v) for _, v in r.counterexamples)
    assert any("nonreal" in str(v) for _, v in r.counterexamples)


def test_reports_deterministic():
    a = verify_max_modulus(3, 5)
    b = verify_max_modulus(3, 5)
    assert (a.claim_id, a.params, a.verdict, a.witnesses, a.counterexamples) == \
           (b.claim_id, b.params, b.verdict, b.witnesses, b.counterexamples)
    a = verify_leaf_augment_identity(samples=10)
    b = verify_leaf_augment_identity(samples=10)
    assert a.counterexamples == b.counterexamples


def test_registry_and_json():
    assert set(claims.claim_ids()) == set(claims.CLAIMS)
    with pytest.raises(KeyError):
        run_claim("no_such_claim")
    r = run_claim("max_modulus", n_lo=4)
    payload = json.loads(json.dumps(r.to_json_dict()))
    assert payload["claim_id"] == "max_modulus"
    assert payload["verdict"] == "pass"
    assert payload["runtime_seconds"] >= 0


def test_run_all_quick_profile():
    reports = claims.run_all("quick")
    by_verdict = {}
    for r in reports:
        by_verdict.setdefault(r.verdict, []).append(r.claim_id)
    # the augmentation identity is the one knowingly false claim in the suite
    assert by_verdict.get("fail") == ["leaf_augment_identity"]
    assert "inconclusive-budget" not in by_verdict
    assert len(by_verdict["pass"]) == len(reports) - 1
    with pytest.raises(ValueError):
        claims.run_all("exhaustive")


@pytest.mark.parametrize("claim_id", claims.claim_ids())
def test_profile_parameter_sets_meet_declarations(claim_id):
    # the validation every verifier call runs, without running the verifier
    spec = claims.CLAIMS[claim_id].spec
    assert set(spec.profiles) == {"quick", "full"}
    for param_sets in spec.profiles.values():
        assert param_sets
        for params in param_sets:
            spec.bind(**params)


def test_declared_validation_rejects_bad_parameter_sets():
    spec = claims.CLAIMS["tree_root_bound"].spec
    assert spec.bind(5) == {"n_lo": 5, "n_hi": 5, "tol": claims.DEFAULT_TOLERANCE}
    with pytest.raises(ValueError, match="5..17"):
        spec.bind(n_lo=5, n_hi=18)
    with pytest.raises(TypeError):
        spec.bind(n_lo=5, n_hj=17)  # misspelt parameter
    with pytest.raises(TypeError):
        spec.bind(n_lo=5.0)
    broom = claims.CLAIMS["broom_asymptotics"].spec
    with pytest.raises(TypeError):
        broom.bind(which="imag", n_max=1e6)
    assert broom.bind(which="real", rel_tol=1)["rel_tol"] == 1  # an int is a float
    for params in (dict(a=0, b=1), dict(a=1, b=0), dict(a=1, b=2, ell_max=39)):
        with pytest.raises(ValueError):
            claims.CLAIMS["tree_density_limit"].spec.bind(**params)
    for params in (dict(order_lo=1, order_hi=2), dict(order_lo=4, order_hi=3),
                   dict(samples=-1), dict(depth=-1), dict(depth=13),
                   dict(order_lo=300000, order_hi=300000, samples=1)):
        with pytest.raises(ValueError):
            claims.CLAIMS["leaf_augment_identity"].spec.bind(**params)
    assert claims.CLAIMS["leaf_augment_identity"].spec.bind(depth=12)["depth"] == 12


def test_registered_verifiers_keep_their_signatures():
    assert list(inspect.signature(claims.CLAIMS["max_modulus"]).parameters) == \
        ["n_lo", "n_hi", "tol"]
    assert claims.CLAIMS["purely_imaginary"] is find_purely_imaginary
    r = verify_tree_density_limit(1, 2, 400, rel_tol=0.05)
    assert r.params == {"a": 1, "b": 2, "ell_max": 400}


def test_tree_instances_match_per_tree_bfs():
    for n in range(2, 15):
        trees = list(enumerate_trees(n))
        expected = tuple((distance_distribution(g).d, tuple(tree_parent_array([g])[0].tolist()))
                         for g in trees)
        assert claims.tree_instances(n) == expected
        assert [claims._edges(row) for _, row in expected] == \
            [tuple(g.edges()) for g in trees]
    with pytest.raises(ValueError, match="distance distribution needs order >= 2"):
        claims.tree_instances(1)


_NOT_PREORDER = """
import pytest
from wiener_roots import claims
from wiener_roots.graph_core import enumerate_trees, from_edge_list
trees = list(enumerate_trees(12))  # 551 trees: a full chunk, then 39
# in the star centred at vertex 11, vertex 1 has no lower-numbered neighbour;
# in the path 0..10 with vertex 11 joined to 0 and 1 (not a tree), 11 has two
for edges, v in (([(u, 11) for u in range(11)], 1),
                 ([(u, u + 1) for u in range(10)] + [(0, 11), (1, 11)], 11)):
    claims.enumerate_trees = lambda n: iter(trees + [from_edge_list(12, edges)])
    claims.tree_instances.cache_clear()
    with pytest.raises(RuntimeError) as raised:
        claims.tree_instances(12)
    assert str(raised.value) == \
        f"vertex {v} does not have exactly one lower-numbered neighbour"
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_tree_instances_refuse_a_tree_not_in_preorder(flags):
    src = Path(claims.__file__).resolve().parent.parent
    subprocess.run([sys.executable, *flags, "-c", _NOT_PREORDER], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


@pytest.fixture
def broken_order5_path(monkeypatch):
    """The order-5 path's vector (4, 3, 2, 1) replaced by (40, 3, 2, 1), whose
    first ratio breaks both ratio bounds and whose roots break |z| <= 2."""
    kernel = claims.tree_distributions

    def patched(rows):
        for dvec in kernel(rows):
            yield (40, 3, 2, 1) if dvec == (4, 3, 2, 1) else dvec

    monkeypatch.setattr(claims, "tree_distributions", patched)
    claims.tree_instances.cache_clear()
    yield
    claims.tree_instances.cache_clear()


def test_tree_counterexamples_name_the_tree_by_its_edges(broken_order5_path):
    label = "n=5 edges=((0, 1), (1, 2), (0, 3), (3, 4))"
    r = verify_tree_ratio_bounds(5)
    assert r.verdict == "fail"
    assert r.counterexamples == [(label, "d_1/d_2 = 40/3 > 2(n-D)"),
                                 (label, "d_1/d_2 = 40/3 > 2(n-4)")]
    r = verify_tree_root_bound(5)
    assert r.verdict == "fail"
    assert [where for where, _ in r.counterexamples] == [label] * 3


def test_distinct_distributions_orders_and_counts():
    claims.connected_distributions.cache_clear()
    graphs = claims.distinct_distributions("graphs", 6)
    assert len(graphs) == 34 and list(graphs) == sorted(graphs)
    # the order-8 opt-in flag does not key a second sweep at any other order
    assert claims.distinct_distributions("graphs", 6, True) == graphs
    assert claims.connected_distributions(6)[1].distinct_distributions == 34
    assert claims.connected_distributions.cache_info().misses == 1
    trees = claims.distinct_distributions("trees", 12)
    first_seen = []
    for dvec, _ in claims.tree_instances(12):
        if dvec not in first_seen:
            first_seen.append(dvec)
    assert list(trees) == first_seen
    assert len(claims.distinct_distributions("trees", 8)) == 23
    with pytest.raises(ValueError):
        claims.distinct_distributions("digraphs", 5)
