"""Polynomial arithmetic, root finding, and the exact imaginary-axis test.

Independent oracles: exact Fraction/Gaussian evaluation for the compensated
Horner scheme, numpy's companion-matrix eigenvalue roots for Aberth-Ehrlich,
and hand-expanded factorizations for the closed forms.  The integer
remainder sequences, the integer Sturm bisection and `evaluate` at rationals
are compared with Fraction-arithmetic references of their own, and
the inlined compensated Horner with one built from explicit TwoSum and
TwoProduct calls, bit for bit.  The batched modular screen is checked
against the exact integer gcd of the even and odd parts.  The batched root
discs are checked on their fallbacks here, and against root_set in the
claims tests.  The batched steps of roots_batch are checked against
exact or scalar oracles: the square-free screen against Yun's
decomposition, the disc counts against Sturm chains, the elementwise
compensated Horner and the Newton polish bit for bit against loops in
Python floats; and every root bit is pinned by a digest.
"""

import hashlib
import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wiener_roots.claims import distinct_distributions
from wiener_roots.families import FamilySpec, family_polynomial
from wiener_roots.graph_core import from_edge_list, load_fixture, distance_distribution
from wiener_roots.polynomial import (
    Annulus,
    ROOTS_MAX_DEGREE,
    RootFindingError,
    WienerPolynomial,
    SCREEN_PRIME,
    _aberth_ehrlich,
    _int_poly_gcd,
    all_roots_rational,
    all_roots_real,
    enestrom_kakeya,
    evaluate,
    evaluate_gaussian,
    imaginary_axis_candidates,
    length_groups,
    purely_imaginary_roots,
    root_discs,
    roots,
    roots_batch,
    wiener_index,
)

FIG5 = WienerPolynomial((6, 4, 3, 2))


# ---------------------------------------------------------------------------
# Types and basic operations
# ---------------------------------------------------------------------------


def test_type_invariants():
    with pytest.raises(ValueError):
        WienerPolynomial(())
    with pytest.raises(ValueError):
        WienerPolynomial((3, 0, 1))
    with pytest.raises(ValueError):
        WienerPolynomial((0, 1))
    with pytest.raises(ValueError):
        Annulus(Fraction(2), Fraction(1))


def test_wiener_polynomial_and_reduce():
    k3 = distance_distribution(from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))
    assert k3 == WienerPolynomial((3,)) and k3.degree == 1
    assert WienerPolynomial((3, 2, 1)).degree == 3  # path of four: the diameter
    assert WienerPolynomial((4, 6)).d == (4, 6)  # star of order 5


def test_evaluate_examples():
    p3 = WienerPolynomial((2, 1))
    assert evaluate(p3, 1) == 3
    assert evaluate(p3, 0.5) == pytest.approx(1.25)  # resilience at one half
    assert evaluate(p3, Fraction(1, 2)) == Fraction(5, 4)
    z = complex(0, math.sqrt(2))
    assert abs(evaluate(FIG5, z)) < 1e-12


def test_evaluate_compensated_matches_exact():
    rng = random.Random(3)
    for _ in range(200):
        deg = rng.randrange(1, 15)
        coeffs = tuple(rng.randrange(1, 10 ** 6) for _ in range(deg + 1))
        p = WienerPolynomial(coeffs)
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        got = evaluate(p, z)
        exact = evaluate_gaussian(p, Fraction(z.real), Fraction(z.imag))
        err = abs(got - complex(float(exact.re), float(exact.im)))
        majorant = sum(abs(c) * abs(z) ** i for i, c in enumerate(coeffs, start=1))
        assert err <= 1e-13 * max(1.0, majorant)


def test_evaluate_dispatches_on_the_numbers_tower():
    p = WienerPolynomial((3, 2, 1))  # W = 3x + 2x^2 + x^3
    exact = [(True, Fraction(6)), (2, Fraction(22)), (Fraction(1, 2), Fraction(17, 8)),
             (np.int64(2), Fraction(22)), (np.uint8(3), Fraction(54)),
             (np.bool_(True), Fraction(6)), (np.bool_(False), Fraction(0))]
    for z, value in exact:
        got = evaluate(p, z)
        assert type(got) is Fraction and got == value
    for z in (0.5, np.float64(0.5), np.float32(0.5)):
        got = evaluate(p, z)
        assert type(got) is float and got == 2.125
    for z in (1j, np.complex64(1j)):
        got = evaluate(p, z)
        assert type(got) is complex and got == complex(-2, 2)
    with pytest.raises(TypeError, match="cannot evaluate at <class 'str'>"):
        evaluate(p, "2")


def test_evaluate_at_fractions_matches_the_fraction_horner():
    rng = random.Random(29)
    points = [Fraction(0), Fraction(-1), Fraction(-3, 7), Fraction(5, 2**64 + 1),
              Fraction(-(2**70 + 1), 2**65 + 3)]
    points += [Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 2**rng.randrange(1, 80)))
               for _ in range(200)]
    for z in points:
        deg = rng.randrange(1, 15)
        d = tuple(rng.randrange(1, 10 ** rng.randrange(1, 30)) for _ in range(deg))
        assert evaluate(WienerPolynomial(d), z) == _ref_eval_frac((0,) + d, z)


def test_evaluate_gaussian_examples():
    fig6 = distance_distribution(load_fixture("min_tree_root_i"))
    assert evaluate_gaussian(fig6, 0, 1) == (0, 0)
    assert evaluate_gaussian(WienerPolynomial((5, 1)), 0, 1) == (-1, 5)
    assert evaluate_gaussian(FIG5, 0, 2) == (16, -12)
    # W(i/3) = (i/3)(a + bi) with a + bi = (W/x)(i/3)
    v = evaluate_gaussian(FIG5, 0, Fraction(1, 3))
    a, b = Fraction(6) - Fraction(3, 9), Fraction(4, 3) - Fraction(2, 27)
    assert v.re == -b / 3 and v.im == a / 3


def test_wiener_index():
    assert wiener_index(WienerPolynomial((3,))) == 3  # triangle
    assert wiener_index(WienerPolynomial((2, 1))) == 4
    assert wiener_index(WienerPolynomial((3, 2, 1))) == 10
    # derivative at one agrees
    w = WienerPolynomial((6, 4, 3, 2))
    assert wiener_index(w) == 6 + 8 + 9 + 8


def test_enestrom_kakeya():
    ann = enestrom_kakeya(WienerPolynomial((4, 3, 2, 1)))
    assert (ann.r, ann.R) == (Fraction(4, 3), Fraction(2))
    ann = enestrom_kakeya(WienerPolynomial((5, 1)))
    assert (ann.r, ann.R) == (Fraction(5), Fraction(5))
    ann = enestrom_kakeya(WienerPolynomial((4, 4, 2)))
    assert (ann.r, ann.R) == (Fraction(1), Fraction(2))
    with pytest.raises(ValueError):
        enestrom_kakeya(WienerPolynomial((3,)))


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


def test_roots_degree_zero_and_one():
    assert roots(WienerPolynomial((7,))) == ()
    (r,) = roots(WienerPolynomial((5, 1)))
    assert (r.re, r.im, r.exact_form) == (-5.0, 0.0, "-5")
    (r,) = roots(WienerPolynomial((4, 6)))
    assert r.exact_form == "-2/3" and r.re == pytest.approx(-2 / 3)
    assert r.exact


def test_roots_quadratic_surds_and_complex():
    rs = roots(WienerPolynomial((3, 2, 1)))  # path of four
    assert len(rs) == 2
    assert {round(r.im, 10) for r in rs} == {round(math.sqrt(2), 10),
                                             -round(math.sqrt(2), 10)}
    assert all(r.re == -1.0 and r.exact for r in rs)
    assert any("sqrt(2)" in r.exact_form for r in rs)
    rs = roots(WienerPolynomial((10, 4, 1)))  # order-6 pendant clique family
    assert {(round(r.re, 9), round(r.im, 9)) for r in rs} == {
        (-2.0, round(math.sqrt(6), 9)), (-2.0, -round(math.sqrt(6), 9))}


def test_roots_reject_pair_counts_too_large_for_floats():
    # each float stage in turn: a linear and a quadratic closed form, the
    # Aberth coefficients, and an iterate that overflows to nan (the broom
    # closed form at 10^150, coefficients up to 5e299)
    broom = family_polynomial(FamilySpec("broom", (5, 10 ** 150)))
    for p in (WienerPolynomial((10 ** 400, 1)), WienerPolynomial((10 ** 400, 1, 1)),
              WienerPolynomial((1, 10 ** 400, 1, 1)), broom):
        with pytest.raises(ValueError, match="too large for floating-point"):
            roots(p)
    (r,) = roots(WienerPolynomial((10 ** 300, 1)))  # still a float
    assert r.re == -1e300


def test_roots_cubic_with_known_factorization():
    rs = roots(FIG5)  # (2x + 3)(x^2 + 2)
    values = sorted((round(r.re, 9), round(r.im, 9)) for r in rs)
    s2 = round(math.sqrt(2), 9)
    assert values == [(-1.5, 0.0), (0.0, -s2), (0.0, s2)]


def test_roots_multiple_root_handled_exactly():
    # (x+1)^4 (x+2): the square-free split must keep full accuracy
    p = WienerPolynomial((2, 9, 16, 14, 6, 1))
    rs = roots(p)
    assert len(rs) == 5
    assert sorted(r.re for r in rs) == [-2.0, -1.0, -1.0, -1.0, -1.0]
    assert all(r.im == 0.0 and r.exact for r in rs)


def test_roots_count_conjugacy_residuals():
    rng = random.Random(5)
    for _ in range(60):
        deg = rng.randrange(3, 12)
        p = WienerPolynomial(tuple(rng.randrange(1, 60) for _ in range(deg + 1)))
        rs = roots(p)
        assert len(rs) == deg
        multiset = sorted((r.re, r.im) for r in rs)
        conjugated = sorted((r.re, -r.im) for r in rs)
        assert multiset == conjugated  # exact closure under conjugation
        assert all(r.residual <= 1e-9 for r in rs)
        ann = enestrom_kakeya(p)
        assert all(ann.contains(r.z) for r in rs)


def test_roots_match_companion_eigenvalues():
    rng = random.Random(9)
    for _ in range(40):
        deg = rng.randrange(3, 13)
        coeffs = tuple(rng.randrange(1, 40) for _ in range(deg + 1))
        ours = sorted(roots(WienerPolynomial(coeffs)),
                      key=lambda r: (r.re, r.im))
        numpy_roots = sorted(np.roots(list(reversed(coeffs))),
                             key=lambda z: (z.real, z.imag))
        for mine, ref in zip(ours, numpy_roots):
            assert abs(mine.z - ref) < 1e-6 * (1 + abs(ref))


def test_aberth_residuals_past_the_float_range_fail_to_converge():
    # abs(p) would raise OverflowError on a finite p past the float range,
    # which the callers would report as pair counts too large
    with pytest.raises(RootFindingError, match="within 50 sweeps") as raised:
        _aberth_ehrlich([3.0, 1.0, 2.0, 1e261, 2.0, 2.0], sweeps=50)
    assert math.inf in raised.value.residuals


def test_aberth_budget_exhaustion_signals():
    with pytest.raises(RootFindingError) as info:
        _aberth_ehrlich([9.0, 7.0, 5.0, 3.0, 1.0], sweeps=1)
    err = info.value
    assert len(err.partial_roots) == 4 and len(err.residuals) == 4


def test_real_roots_are_nonpositive_on_positive_coefficients():
    rng = random.Random(13)
    for _ in range(40):
        deg = rng.randrange(1, 10)
        p = WienerPolynomial(tuple(rng.randrange(1, 30) for _ in range(deg + 1)))
        for r in roots(p):
            if r.im == 0.0:
                assert r.re <= 1e-9


# ---------------------------------------------------------------------------
# Exact real/rational root classification
# ---------------------------------------------------------------------------


def test_all_roots_real_and_rational():
    assert all_roots_real(WienerPolynomial((1, 2, 1)))
    assert all_roots_rational(WienerPolynomial((1, 2, 1)))
    assert all_roots_rational(WienerPolynomial((8, 17, 10, 1)))  # (x+1)^2 (x+8)
    assert not all_roots_real(WienerPolynomial((3, 2, 1)))
    assert all_roots_real(WienerPolynomial((2, 3, 1)))  # (x+1)(x+2)
    assert not all_roots_rational(WienerPolynomial((1, 3, 1)))  # irrational pair
    assert all_roots_real(WienerPolynomial((1, 3, 1)))


# ---------------------------------------------------------------------------
# Purely imaginary roots
# ---------------------------------------------------------------------------


def test_purely_imaginary_examples():
    hits = purely_imaginary_roots(FIG5)
    assert len(hits) == 1 and hits[0].radicand == 2
    assert hits[0].b == pytest.approx(math.sqrt(2))
    assert hits[0].exact and hits[0].b_rational is None

    fig6 = distance_distribution(load_fixture("min_tree_root_i"))
    hits = purely_imaginary_roots(fig6)
    assert any(h.b_rational == 1 for h in hits)

    assert purely_imaginary_roots(WienerPolynomial((5, 1))) == ()


def test_purely_imaginary_two_rational_radicands():
    # (x + 1)(x^2 + 2)(x^2 + 3) has pairs at sqrt(2) and sqrt(3)
    p = WienerPolynomial((6, 6, 5, 5, 1, 1))
    hits = purely_imaginary_roots(p)
    assert [h.radicand for h in hits] == [2, 3]


def test_purely_imaginary_irrational_certified_intervals():
    # (x + 1)(x^4 + 4x^2 + 2): common part t^2 + 4t + 2, roots -2 +- sqrt(2)
    p = WienerPolynomial((2, 2, 4, 4, 1, 1))
    hits = purely_imaginary_roots(p)
    assert len(hits) == 2
    for h, expect in zip(hits, (2 - math.sqrt(2), 2 + math.sqrt(2))):
        assert not h.exact and h.t_interval is not None
        lo, hi = h.t_interval
        assert hi - lo <= Fraction(1, 1 << 40)
        assert float(lo) <= -expect <= float(hi)
        assert h.b == pytest.approx(math.sqrt(expect), abs=1e-9)


def test_purely_imaginary_roots_next_to_zero():
    # (1 + x)(1 + 2^64 x^2): t = -2^-64 lies inside the last 2^-40 bracket
    # at 0, so refinement goes on until the bracket leaves 0
    [hit] = purely_imaginary_roots(WienerPolynomial((1, 1, 2**64, 2**64)))
    assert hit.radicand == Fraction(1, 2**64) and hit.b == 2.0**-32
    [hit] = purely_imaginary_roots(WienerPolynomial((1, 1, 3 * 2**50, 3 * 2**50)))
    lo, hi = hit.t_interval
    assert lo < Fraction(-1, 3 * 2**50) < hi < 0
    assert hi - lo <= Fraction(1, 1 << 40)
    # the bracket is also narrow relative to t, so b is close to 1/sqrt(3 * 2^50)
    assert hi - lo <= -hi / 2**20
    assert hit.b == pytest.approx(1 / math.sqrt(3 * 2**50), rel=2.0**-20)


def test_purely_imaginary_roots_beside_a_divided_out_rational():
    # E = O = (t + 1)(K(t + 1)^2 - 1): isolation hits t = -1 at a midpoint and
    # divides it out, and the roots -1 +- 1/sqrt(K) are refined on the quotient,
    # so a bracket that still holds -1 must not come back as -1
    K = 3 * 2**100
    hits = purely_imaginary_roots(WienerPolynomial(
        (K - 1, K - 1, 3 * K - 1, 3 * K - 1, 3 * K, 3 * K, K, K)))
    below, exact, above = hits
    assert exact.radicand == 1

    def f(t):
        return K * (t + 1) ** 2 - 1

    for h in (below, above):
        lo, hi = h.t_interval
        assert f(lo) * f(hi) < 0
    assert below.t_interval[1] > -1 > above.t_interval[1]


def _constant_gcd(dvec) -> bool:
    """The exact test's first step: gcd of the even and odd parts is constant."""
    return len(dvec) > 1 and len(_int_poly_gcd(dvec[0::2], dvec[1::2])) <= 1


def test_screen_clears_only_vectors_with_a_constant_gcd():
    for kind, orders in (("trees", range(2, 17)), ("graphs", range(2, 8))):
        for n in orders:
            pool = distinct_distributions(kind, n)
            kept = imaginary_axis_candidates(pool)
            kept_set = set(kept)
            assert kept == [dvec for dvec in pool if dvec in kept_set]  # pool order
            cleared = set(pool) - kept_set
            assert all(_constant_gcd(dvec) for dvec in cleared), (kind, n)
            if kind == "trees" and n >= 13:  # the screen does its job
                assert len(kept) <= 0.05 * len(pool)


def test_screen_edge_vectors():
    q = SCREEN_PRIME
    fig6 = distance_distribution(load_fixture("min_tree_root_i")).d
    # 2^64 + 2^64 x + x^2 + x^3 = (1 + x)(2^64 + x^2): roots +-2^32 i
    big_hit = (2 ** 64, 2 ** 64, 1, 1)
    kept = [
        (5,),                     # length 1: no odd part to screen
        (1, q),                   # leading (odd) coefficient divisible by q
        (q, 1),                   # the even constant divisible by q
        (1, 1, q),                # leading even coefficient divisible by q
        (1, 1, 1, q),             # leading odd coefficient divisible by q
        (1, 1, 1, q, 1),          # lc(O) divisible by q below an even lead
        (1, 1, q * 2 ** 40),      # beyond int64 and divisible by q
        big_hit,
        FIG5.d,                   # (6, 4, 3, 2): roots +-sqrt(2)i
        fig6,                     # the order-12 tree with roots +-i
    ]
    cleared = [
        (5, 1),                   # two nonzero constants
        (1, 2), (q + 1, 1),
        (2 ** 64 + 1, 3, 1),      # beyond int64: reduced exactly, not wrapped
        (2 ** 63, 1, 2 ** 70 + 5, 1),
        (4, 3, 2, 1),             # the order-5 path
        (1, 1, q + 1),
    ]
    assert imaginary_axis_candidates(kept + cleared) == kept
    assert all(not _constant_gcd(d) for d in (big_hit, FIG5.d, fig6))
    assert all(_constant_gcd(d) for d in cleared)
    assert [h.radicand for h in purely_imaginary_roots(WienerPolynomial(big_hit))] \
        == [2 ** 64]
    for dvec in kept + cleared:  # one vector at a time, in groups of one
        assert imaginary_axis_candidates([dvec]) == ([dvec] if dvec in kept else [])
    assert imaginary_axis_candidates([]) == []


def test_root_discs_fall_back_where_they_cannot_certify(monkeypatch):
    m = np.array([[3, 2, 1],              # roots -1 +- sqrt(2) i
                  [2 ** 53 - 1, 2, 1],    # the largest coefficient exact in binary64
                  [1, 2, 1],              # (1 + x)^2: coinciding centres
                  [2 ** 53, 2, 1],        # a coefficient not exact in binary64
                  [3, 0, 1]], dtype=np.int64)  # a coefficient below 1
    centres, radii = root_discs(m)
    assert np.isfinite(radii[:2]).all() and np.isinf(radii[2:]).all()
    exact = np.array([-1 - 2 ** 0.5 * 1j, -1 + 2 ** 0.5 * 1j])
    assert (np.abs(np.sort_complex(centres[:1]) - exact) <= radii[0]).all()
    assert radii[0].max() < 1e-14
    # a degree-1 vector: one disc around -d_1/d_2
    centres, radii = root_discs(np.array([[4, 6]], dtype=np.int64))
    assert abs(centres[0, 0] + 2 / 3) <= radii[0, 0] < 1e-15
    with pytest.raises(ValueError):
        root_discs(np.array([[5]], dtype=np.int64))

    def no_eigenvalues(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigenvalues)
    assert np.isinf(root_discs(m[:2])[1]).all()


def test_root_discs_are_the_same_in_chunks_and_one_row_at_a_time():
    # the order-16 tree distributions of length 15 fill several chunks
    _, m = next((positions, m) for positions, m in
                length_groups(distinct_distributions("trees", 16)) if m.shape[1] == 15)
    m = m[:2500]
    centres, radii = root_discs(m)
    for i in range(len(m)):
        one_c, one_r = root_discs(m[i:i + 1])
        assert np.isfinite(one_r).all() and np.isfinite(radii[i]).all()
        assert np.allclose(np.sort_complex(one_c), np.sort_complex(centres[i:i + 1]),
                           rtol=0, atol=1e-9)


def test_purely_imaginary_agrees_with_numeric_roots():
    rng = random.Random(21)
    for _ in range(80):
        deg = rng.randrange(2, 9)
        p = WienerPolynomial(tuple(rng.randrange(1, 25) for _ in range(deg + 1)))
        exact_bs = sorted(h.b for h in purely_imaginary_roots(p))
        numeric_bs = sorted(r.im for r in roots(p)
                            if r.im > 0 and abs(r.re) <= 1e-10)
        assert len(exact_bs) == len(numeric_bs)
        for a, b in zip(exact_bs, numeric_bs):
            assert abs(a - b) <= 1e-8


def test_complex_root_json_shape():
    (r,) = roots(WienerPolynomial((4, 6)))
    d = r.to_json_dict()
    assert set(d) == {"re", "im", "residual", "exact"}
    assert d["exact"] == "-2/3"
    nonexact = [x for x in roots(WienerPolynomial((9, 7, 5, 3, 1)))
                if not x.exact]
    assert nonexact and nonexact[0].to_json_dict()["exact"] is None


# ---------------------------------------------------------------------------
# Stress tests for the exact machinery (planted roots, known factorizations)
# ---------------------------------------------------------------------------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_sturm_isolation_finds_planted_rational_roots():
    from wiener_roots.polynomial import _isolate_real_roots

    rng = random.Random(17)
    for _ in range(60):
        # distinct rational roots p/q with small q, one irrational pair
        roots_planted = set()
        while len(roots_planted) < rng.randrange(1, 4):
            roots_planted.add(Fraction(rng.randrange(-30, 31),
                                       rng.randrange(1, 7)))
        poly = [1]
        for r in roots_planted:
            poly = _poly_mul(poly, [-r.numerator, r.denominator])
        c = rng.randrange(2, 20)
        if rng.random() < 0.5:
            poly = _poly_mul(poly, [c, 0, 1])  # x^2 + c: no real roots
        found = _isolate_real_roots(poly)
        assert found == sorted(roots_planted)


def test_sturm_isolation_brackets_irrational_roots():
    from wiener_roots.polynomial import _isolate_real_roots

    rng = random.Random(23)
    for _ in range(40):
        # (x^2 - d) with d positive non-square: roots +-sqrt(d)
        d = rng.randrange(2, 80)
        s = math.isqrt(d)
        if s * s == d:
            continue
        found = _isolate_real_roots([-d, 0, 1])
        assert len(found) == 2
        for entry, expect in zip(found, (-math.sqrt(d), math.sqrt(d))):
            assert not isinstance(entry, Fraction)
            lo, hi = entry
            assert float(lo) < expect < float(hi)
            assert hi - lo <= Fraction(1, 1 << 40)


def test_yun_decomposition_recovers_planted_multiplicities():
    from wiener_roots.polynomial import _square_free_decomposition

    rng = random.Random(29)
    for _ in range(40):
        base = sorted(rng.sample(range(1, 12), rng.randrange(1, 4)))
        mults = [rng.randrange(1, 4) for _ in base]
        poly = [1]
        for root, m in zip(base, mults):
            for _ in range(m):
                poly = _poly_mul(poly, [root, 1])  # plant root at -root
        got = _square_free_decomposition(poly)
        expanded = {}
        for factor, mult in got:
            deg = len(factor) - 1
            expanded[mult] = expanded.get(mult, 0) + deg
        expect = {}
        for m in mults:
            expect[m] = expect.get(m, 0) + 1
        assert expanded == expect


def test_simplest_rational_is_minimal_denominator():
    from wiener_roots.polynomial import _simplest_in

    rng = random.Random(31)
    for _ in range(200):
        den = rng.randrange(1, 50)
        num = rng.randrange(-200, 200)
        target = Fraction(num, den)
        eps = Fraction(1, rng.randrange(10 ** 4, 10 ** 7))
        got = _simplest_in(target - eps, target + eps)
        assert target - eps <= got <= target + eps
        # brute force: no rational with a smaller denominator fits
        for q in range(1, got.denominator):
            lo = math.ceil((target - eps) * q)
            assert Fraction(lo, q) > target + eps or lo > (target + eps) * q


def test_count_real_roots_matches_numpy():
    from wiener_roots.polynomial import _count_real_roots, _square_free_decomposition

    rng = random.Random(37)
    checked = 0
    for _ in range(80):
        deg = rng.randrange(1, 9)
        coeffs = [rng.randrange(-20, 21) for _ in range(deg)] + [rng.randrange(1, 21)]
        if [m for _, m in _square_free_decomposition(coeffs)] != [1]:
            continue
        ours = _count_real_roots(coeffs)
        numeric = np.roots(list(reversed(coeffs)))
        theirs = sum(1 for z in numeric if abs(z.imag) < 1e-7)
        assert ours == theirs
        checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# Integer remainder sequences against a Fraction reference
# ---------------------------------------------------------------------------


def _ref_divmod(a, b):
    r = [Fraction(x) for x in a]
    db, lead = len(b) - 1, Fraction(b[-1])
    quot = [Fraction(0)] * max(len(r) - db, 0)
    while r and len(r) - 1 >= db:
        q = r[-1] / lead
        shift = len(r) - 1 - db
        quot[shift] = q
        for i in range(db):
            r[shift + i] -= q * b[i]
        r.pop()
        while r and not r[-1]:
            r.pop()
    return quot, r


def _ref_div_exact(a, b):
    quot, rem = _ref_divmod(a, b)
    assert not rem
    return quot


def _ref_gcd(a, b):
    """Monic gcd over the rationals by the Euclidean algorithm."""
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [Fraction(x) / a[-1] for x in a] if a else []


def _ref_int(c):
    """Scale a rational list by a positive factor to primitive integers."""
    den = math.lcm(*(Fraction(x).denominator for x in c)) if c else 1
    ints = [int(x * den) for x in c]
    g = math.gcd(*ints) or 1
    return [x // g for x in ints]


def _ref_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    while out and not out[-1]:
        out.pop()
    return out


def _ref_deriv(c):
    return [k * c[k] for k in range(1, len(c))]


def _ref_sturm_chain(c):
    chain = [_ref_int(c)]
    dc = _ref_deriv(chain[0])
    if not any(dc):
        return chain
    chain.append(_ref_int(dc))
    while len(chain[-1]) > 1:
        rem = _ref_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(_ref_int([-x for x in rem]))
    return chain


def _ref_int_gcd(a, b):
    return _ref_int(_ref_gcd(a, b))


def _ref_square_free(c):
    if len(c) <= 1:
        return []
    fp = _ref_deriv(c)
    a = _ref_gcd(c, fp)
    if len(a) <= 1:
        return [(_ref_int(c), 1)]
    b = _ref_div_exact(c, a)
    d = _ref_sub(_ref_div_exact(fp, a), _ref_deriv(b))
    out, i = [], 1
    while len(b) > 1:
        g = _ref_gcd(b, d) if d else [x / b[-1] for x in b]
        if len(g) > 1:
            out.append((_ref_int(g), i))
        b = _ref_div_exact(b, g)
        d = _ref_sub(_ref_div_exact(d, g) if d else [], _ref_deriv(b))
        i += 1
    return out


def _ref_eval_frac(c, x):
    """c(x) by Horner in Fractions."""
    acc = Fraction(0)
    for k in range(len(c) - 1, -1, -1):
        acc = acc * x + c[k]
    return acc


def _ref_sign(x):
    return (x > 0) - (x < 0)


def _ref_variations_at(chain, x):
    signs = [s for s in (_ref_sign(_ref_eval_frac(p, x)) for p in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_cauchy_bound(c):
    return 1 + Fraction(max(abs(x) for x in c[:-1]), abs(c[-1]))


def _ref_refine_bracket(c, a, b):
    """_refine_bracket as it bisected in Fractions, the reference for the
    integer bisection."""
    from wiener_roots.polynomial import (STURM_REFINE_WIDTH, STURM_RELATIVE_WIDTH,
                                         _simplest_in)

    sa = _ref_sign(_ref_eval_frac(c, a))
    while (b - a > STURM_REFINE_WIDTH or a <= 0 <= b
           or b - a > STURM_RELATIVE_WIDTH * min(abs(a), abs(b))):
        mid = (a + b) / 2
        sm = _ref_sign(_ref_eval_frac(c, mid))
        if sm == 0:
            return mid
        if sm == sa:
            a = mid
        else:
            b = mid
    candidate = _simplest_in(a, b)
    if _ref_eval_frac(c, candidate) == 0:
        return candidate
    return (a, b)


def _ref_isolate(c):
    """_isolate_real_roots as it bisected in Fractions."""
    from wiener_roots.polynomial import _isolated_value

    rationals, work = [], _ref_int(c)
    if len(work) > 1 and work[0] == 0:
        rationals.append(Fraction(0))
        work = work[1:]
    while len(work) > 1:
        chain = _ref_sturm_chain(work)
        bound = _ref_cauchy_bound(work)
        stack, brackets, restart = [(-bound, bound)], [], False
        while stack:
            a, b = stack.pop()
            k = _ref_variations_at(chain, a) - _ref_variations_at(chain, b)
            if k == 1:
                brackets.append((a, b))
            elif k > 1:
                mid = (a + b) / 2
                if _ref_eval_frac(work, mid) == 0:
                    rationals.append(mid)
                    work = _ref_int(_ref_div_exact(work, [-mid, Fraction(1)]))
                    restart = True
                    break
                stack += [(a, mid), (mid, b)]
        if not restart:
            found = rationals + [_ref_refine_bracket(work, a, b)
                                 for a, b in brackets]
            return sorted(found, key=_isolated_value)
    return sorted(rationals, key=_isolated_value)


def _random_integer_poly(rng):
    """Random integer polynomial, often with planted repeated/rational factors."""
    c = [rng.randrange(-40, 41) for _ in range(rng.randrange(0, 7))]
    c.append(rng.choice((-1, 1)) * rng.randrange(1, 25))
    for _ in range(rng.randrange(0, 3)):
        lin = [rng.randrange(-9, 10), rng.choice((-3, -2, -1, 1, 2, 3))]
        for _ in range(rng.randrange(1, 4)):
            c = _poly_mul(c, lin)
    if rng.random() < 0.3:
        c = _poly_mul(c, [rng.randrange(1, 6), 0, rng.choice((-2, 1, 3))])
    return c


PLANTED = (
    [8, 17, 10, 1],                                  # (x+1)^2 (x+8)
    _poly_mul([27, 54, 36, 8], [2, 0, 1]),           # (2x+3)^3 (x^2+2)
    [2, 3, 3, 3, 1],                                 # (x+1)(x+2)(x^2+1): a midpoint hits a root
    [30, -11, 31, -11, 1],                           # (x-5)(x-6)(x^2+1)
    _poly_mul([-3, 0, -2], [1, -4, 4]),              # negative leading coefficients
    [0, 0, 3, -1],                                   # x^2 (3 - x)
)


def test_integer_remainder_routines_match_fraction_reference():
    from wiener_roots.polynomial import (_int_poly_gcd, _isolate_real_roots,
                                         _square_free_decomposition, _sturm_chain)

    rng = random.Random(41)
    cases = list(PLANTED) + [_random_integer_poly(rng) for _ in range(240)]
    for c in cases:
        assert _sturm_chain(c) == _ref_sturm_chain(c)
        sfd = _square_free_decomposition(c)
        assert sfd == _ref_square_free(c)
        for factor, _ in sfd:
            assert _isolate_real_roots(factor) == _ref_isolate(factor)
            assert _sturm_chain(factor) == _ref_sturm_chain(factor)
        other = _random_integer_poly(rng)
        common = [rng.randrange(-6, 7), rng.choice((-4, -1, 2, 5))]
        assert _int_poly_gcd(c, other) == _ref_int_gcd(c, other)
        a, b = _poly_mul(c, common), _poly_mul(other, common)
        assert _int_poly_gcd(a, b) == _ref_int_gcd(a, b)
        assert len(_int_poly_gcd(a, b)) >= len(common)
    assert _square_free_decomposition(PLANTED[0]) == [([8, 1], 1), ([1, 1], 2)]
    assert _square_free_decomposition(PLANTED[1]) == [([2, 0, 1], 1), ([3, 2], 3)]
    assert _isolate_real_roots(PLANTED[2]) == [-2, -1]
    assert _isolate_real_roots(PLANTED[3]) == [5, 6]


def test_integer_bisection_matches_fraction_bisection(monkeypatch):
    from wiener_roots import polynomial
    from wiener_roots.polynomial import _square_free_decomposition

    isolate, refine = polynomial._isolate_real_roots, polynomial._refine_bracket
    factors = {}  # factor -> what the integer isolation gave
    brackets = set()  # (factor, lo/den, hi/den) of every bracket it refined
    running = []  # the factors whose isolation is under way

    def isolating(c):
        running.append(c)
        found = factors[tuple(c)] = isolate(c)
        running.pop()
        return found

    def refining(c, lo, hi, den):
        # a bracket is compared through the result of the isolation it is in
        assert running, "a bracket refined outside a recorded isolation"
        brackets.add((tuple(c), Fraction(lo, den), Fraction(hi, den)))
        return refine(c, lo, hi, den)

    monkeypatch.setattr(polynomial, "_isolate_real_roots", isolating)
    monkeypatch.setattr(polynomial, "_refine_bracket", refining)
    # every factor the exact tests isolate at tree orders <= 14, graph orders <= 7
    for kind, orders in (("trees", range(2, 15)), ("graphs", range(2, 8))):
        for n in orders:
            for dvec in distinct_distributions(kind, n):
                purely_imaginary_roots(WienerPolynomial(dvec))
                all_roots_rational(WienerPolynomial(dvec))
    pools = len(brackets)
    # seeded random integer polynomials, split into square-free factors
    rng = random.Random(43)
    for _ in range(300):
        for factor, _ in _square_free_decomposition(_random_integer_poly(rng)):
            polynomial._isolate_real_roots(factor)
    randoms = len(brackets) - pools
    # the pinned cases: t = -2^-64, t = -1/(3 * 2^50), and -1 +- 1/sqrt(3 * 2^100)
    K = 3 * 2**100
    for dvec in ((1, 1, 2**64, 2**64), (1, 1, 3 * 2**50, 3 * 2**50),
                 (K - 1, K - 1, 3 * K - 1, 3 * K - 1, 3 * K, 3 * K, K, K)):
        purely_imaginary_roots(WienerPolynomial(dvec))
    monkeypatch.undo()
    assert pools > 4000 and randoms > 100 and len(brackets) >= pools + randoms + 4
    # each bracket is refined again inside the reference's isolation
    for c, found in factors.items():
        assert found == _ref_isolate(list(c))


# ---------------------------------------------------------------------------
# The inlined compensated Horner against explicit error-free transforms
# ---------------------------------------------------------------------------


def _ref_two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _ref_two_prod(a, b):
    split = 134217729.0
    p = a * b
    c = split * a
    ah = c - (c - a)
    al = a - ah
    c = split * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _ref_comp_horner(coeffs, z):
    x, y = z.real, z.imag
    sr, si = float(coeffs[-1]), 0.0
    er, ei = 0.0, 0.0
    for k in range(len(coeffs) - 2, -1, -1):
        p1, d1 = _ref_two_prod(sr, x)
        p2, d2 = _ref_two_prod(si, y)
        p3, d3 = _ref_two_prod(sr, y)
        p4, d4 = _ref_two_prod(si, x)
        tr, f1 = _ref_two_sum(p1, -p2)
        ti, f2 = _ref_two_sum(p3, p4)
        nr, g1 = _ref_two_sum(tr, float(coeffs[k]))
        er, ei = (er * x - ei * y + (d1 - d2 + f1 + g1),
                  er * y + ei * x + (d3 + d4 + f2))
        sr, si = nr, ti
    return complex(sr + er, si + ei)


def _comp_horner_each(rows, points):
    """`_comp_horner_batch` of each integer row at its point, as Python
    complex numbers; the rows of one length go through one call."""
    from wiener_roots.polynomial import _comp_horner_batch, _length_classes

    out = [None] * len(rows)
    for members in _length_classes(rows):
        values = _comp_horner_batch(
            np.array([[float(x) for x in rows[i]] for i in members]),
            np.array([points[i] for i in members], dtype=complex))
        for i, value in zip(members, values.tolist()):
            out[i] = value
    return out


def test_comp_horner_bit_identical_to_error_free_transforms():
    rng = random.Random(43)
    cases = []
    for _ in range(2000):
        coeffs = [rng.randrange(1, 10 ** rng.randrange(1, 12))
                  for _ in range(rng.randrange(1, 40))]
        modulus, angle = 10 ** rng.uniform(-3, 3), rng.uniform(0, 2 * math.pi)
        z = modulus * complex(math.cos(angle), math.sin(angle))
        if rng.random() < 0.1:
            z = complex(z.real, 0.0)
        cases.append((coeffs, z))
    values = _comp_horner_each([c for c, _ in cases], [z for _, z in cases])
    for (coeffs, z), value in zip(cases, values):
        assert repr(value) == repr(_ref_comp_horner(coeffs, z))


def test_comp_horner_at_the_conjugate_is_the_conjugate_bit_for_bit():
    rng = random.Random(47)
    cases = []
    for _ in range(1500):
        coeffs = [rng.randrange(-10 ** rng.randrange(1, 15), 10 ** rng.randrange(1, 15))
                  for _ in range(rng.randrange(1, 40))]
        if rng.random() < 0.2:
            coeffs = [0] * rng.randrange(1, 3) + coeffs
        modulus, angle = 10 ** rng.uniform(-3, 3), rng.uniform(0, 2 * math.pi)
        z = modulus * complex(math.cos(angle), math.sin(angle))
        for point in (z, complex(z.real, 0.0), complex(z.real, -0.0), complex(0.0, z.imag),
                      complex(-0.0, z.imag), 0j, complex(-0.0, -0.0)):
            cases.append((coeffs, point))
    # each case at the conjugate of its point, then at the point
    values = _comp_horner_each([c for c, _ in cases for _ in range(2)],
                               [w for _, point in cases for w in (point.conjugate(), point)])
    for k, (coeffs, point) in enumerate(cases):
        a, b = values[2 * k], values[2 * k + 1].conjugate()
        assert repr(a.real) == repr(b.real) and repr(abs(a)) == repr(abs(b))
        if a.imag or b.imag:
            assert repr(a) == repr(b), (coeffs, point)
        # a zero imaginary part may keep its sign: 0.0 + 0.0 is +0.0 both ways
        assert a.imag == b.imag


def _residual_alone(d, z):
    """The residual of a root evaluated alone: |W/x(z)| by the compensated
    Horner scheme on one row, relative to max(d) * max(1, |z|)^deg."""
    (value,) = _comp_horner_each([d], [z])
    return abs(value) / (max(d) * max(1.0, abs(z)) ** (len(d) - 1))


def test_conjugate_pairs_from_roots_share_one_residual():
    rng = random.Random(53)
    polys = [WienerPolynomial(tuple(rng.randrange(1, 60)
                                    for _ in range(rng.randrange(2, 16))))
             for _ in range(60)]
    polys += [WienerPolynomial(tuple(range(n - 1, 0, -1))) for n in (5, 12, 30)]  # paths
    polys += [FIG5, WienerPolynomial((1, 2, 3, 2, 1)),  # (x^2 + x + 1)^2 after x
              WienerPolynomial((6, 4, 3, 2)), WienerPolynomial((2, 1, 2, 1))]
    pairs = 0
    # one at a time, and in one batch
    assert roots_batch(polys) == [roots(p) for p in polys]
    for p in polys:
        rs = roots(p)
        for r in rs:
            assert repr(r.residual) == repr(_residual_alone(p.d, r.z))
        for r in (r for r in rs if r.im > 0):
            (partner,) = {s for s in rs if (s.re, s.im) == (r.re, -r.im)}
            assert repr(partner.residual) == repr(r.residual)
            pairs += 1
    assert pairs > 200


# ---------------------------------------------------------------------------
# The root output, pinned
# ---------------------------------------------------------------------------


def _root_pin_inputs():
    """Every distinct distribution at tree orders <= 13 and graph orders <= 7,
    the paths of orders 3..100 and T_n for n = 6..1000."""
    dvecs = []
    for n in range(2, 14):
        dvecs += distinct_distributions("trees", n)
    for n in range(2, 8):
        dvecs += distinct_distributions("graphs", n)
    dvecs += [family_polynomial(FamilySpec("path", (n,))).d for n in range(3, 101)]
    dvecs += [family_polynomial(FamilySpec("t_n", (n,))).d for n in range(6, 1001)]
    return dvecs


# sha256 over (d, [(re, im, residual, exact form) of each root]) of every
# _root_pin_inputs distribution, recorded at 8fe517e, before the root
# pipeline was batched: every bit of every root and residual is pinned.
ROOT_DIGEST = "689a20612f7af82201886476a63eadfb5e54eb5c3fa2908c901239dcd9b96c97"


def _root_digest(dvecs, root_sets) -> str:
    h = hashlib.sha256()
    for d, rs in zip(dvecs, root_sets):
        h.update(repr((d, [(r.re, r.im, r.residual, r.exact_form) for r in rs])).encode())
    return h.hexdigest()


def _benchmark_compute_distributions(seed: int) -> list[tuple[int, ...]]:
    """Distance vectors of the seeded `compute` inputs of the benchmark's
    large-degree workload (perfbench/graphgen.py)."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "graphgen.py"
    spec = importlib.util.spec_from_file_location("graphgen", path)
    graphgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(graphgen)
    return [distance_distribution(from_edge_list(n, edges)).d
            for n, edges in graphgen.graphs(seed)]


@pytest.fixture(scope="module")
def pinned_batch():
    """One `roots_batch` call over `_root_pin_inputs()` followed by the
    distributions of `_benchmark_compute_distributions(0)`: (the vectors,
    their root sets, the (float factor, Aberth roots) pair of every factor
    the call polishes, whether batched Aberth or the scalar loop solved it,
    without the zeros that pad it to its degree band)."""
    from wiener_roots import polynomial

    found = []
    polish = polynomial._newton_polish_rows

    def recording(c, z):
        for coeffs, zs in zip(c.tolist(), z.tolist()):
            while coeffs[-1] == 0:  # a factor's leading coefficient is nonzero
                coeffs.pop()
            found.append((coeffs, zs[:len(coeffs) - 1]))
        return polish(c, z)

    dvecs = _root_pin_inputs() + _benchmark_compute_distributions(0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomial, "_newton_polish_rows", recording)
        root_sets = roots_batch([WienerPolynomial(d) for d in dvecs])
    return dvecs, root_sets, found


def test_root_output_is_pinned(pinned_batch):
    dvecs = _root_pin_inputs()
    assert len(dvecs) == 3362
    assert _root_digest(dvecs, [roots(WienerPolynomial(d)) for d in dvecs]) \
        == ROOT_DIGEST  # one at a time
    batched, root_sets, _ = pinned_batch
    assert batched[:len(dvecs)] == dvecs
    assert _root_digest(dvecs, root_sets[:len(dvecs)]) == ROOT_DIGEST  # in one batch


def _hex_parts(zs) -> list[tuple[str, str]]:
    return [(z.real.hex(), z.imag.hex()) for z in zs]


def _ref_newton_polish(coeffs, zs, steps=3):
    """Newton steps on each of zs, with Horner loops as in `_aberth_ehrlich`."""
    dcoeffs = [k * coeffs[k] for k in range(1, len(coeffs))]
    lead, rest = coeffs[-1], coeffs[-2::-1]
    dlead, drest = dcoeffs[-1], dcoeffs[-2::-1]
    out = []
    for z in zs:
        for _ in range(steps):
            dp = dlead
            for a in drest:
                dp = dp * z + a
            if dp == 0:
                break
            p = lead
            for a in rest:
                p = p * z + a
            z = z - p / dp
        out.append(z)
    return out


def test_batched_newton_polish_is_the_scalar_one_bit_for_bit(pinned_batch):
    from wiener_roots.polynomial import _length_classes, _newton_polish_rows

    found = list(pinned_batch[2])  # every factor that roots_batch polishes
    assert sum(len(zs) for _, zs in found) > 20000
    # z^3 - 3z + 7: one step takes 2 to 1 exactly, where the derivative is 0,
    # so that point stops after one step, and the point 1 before any
    stalled = ([7.0, -3.0, 0.0, 1.0], [2 + 0j, 1 + 0j, 0.5 + 0.5j])
    assert _ref_newton_polish(*stalled)[:2] == [1 + 0j, 1 + 0j]
    found.append(stalled)
    # points on the real axis, where CPython's sums turn products of -0.0
    # into 0.0 and the signs of the zeros reach the result
    axis = [complex(-1.5, -0.0), complex(0.5, -0.0), complex(-0.25, 0.0)]
    found += [([1.0, 1.0, 1.0, 1.0], axis), ([2.0, -5.0, 0.5, 3.0], axis)]
    for members in _length_classes([coeffs for coeffs, _ in found]):
        group = [found[i] for i in members]
        rows = _newton_polish_rows(np.array([c for c, _ in group]),
                                   np.array([zs for _, zs in group], dtype=complex))
        assert [_hex_parts(zs) for zs in rows.tolist()] == \
            [_hex_parts(_ref_newton_polish(c, zs)) for c, zs in group]
    # zeros padding the rows to the widest of them leave every bit as it is
    width = max(len(c) for c, _ in found)
    rows = _newton_polish_rows(
        np.array([c + [0.0] * (width - len(c)) for c, _ in found]),
        np.array([zs + [0j] * (width - len(c)) for c, zs in found], dtype=complex))
    assert [_hex_parts(zs[:len(c) - 1]) for zs, (c, _) in zip(rows.tolist(), found)] == \
        [_hex_parts(_ref_newton_polish(c, zs)) for c, zs in found]


def _resumed(rows, found) -> list:
    """The roots of each of rows from what `_aberth_rows` gave for it: its
    roots, or the scalar loop run from its resume point."""
    return [zs if isinstance(zs, list) else _aberth_ehrlich(c, *zs)
            for c, zs in zip(rows, found)]


def test_batched_aberth_is_the_scalar_loop_bit_for_bit(pinned_batch, monkeypatch):
    from wiener_roots import polynomial
    from wiener_roots.polynomial import ABERTH_BLOCK_ROWS, _aberth_rows

    rows = [c for c, _ in pinned_batch[2]]  # T_n to 1000 and paths to 100 among them
    assert len(rows) > ABERTH_BLOCK_ROWS
    # p = 0 at every guess, the radius being 0: no root moves, and the
    # signed zeros of the guesses are the roots
    rows.append([0.0, 1.0, 2.0, 1.0])
    want = [_hex_parts(_aberth_ehrlich(c)) for c in rows]
    found = _aberth_rows(rows)
    assert [_hex_parts(zs) for zs in _resumed(rows, found)] == want
    handed_back = [zs[1] for zs in found if isinstance(zs, tuple) and zs]
    assert handed_back and min(handed_back) > 0  # stragglers, mid-way
    # blocks that never hand back: every row is solved in its block
    monkeypatch.setattr(polynomial, "ABERTH_BLOCK_MIN_ROOTS", 1)
    found = _aberth_rows(rows)
    assert all(isinstance(zs, list) for zs in found)
    assert [_hex_parts(zs) for zs in found] == want


def test_batched_aberth_hands_the_rows_it_cannot_follow_to_the_scalar_loop(monkeypatch):
    from wiener_roots import polynomial
    from wiener_roots.polynomial import ABERTH_BLOCK_MIN_ROOTS, _aberth_rows

    crafted = [
        # radius 0: p' = 0 at every guess, and the nudge moves them all to
        # 1e-12, where the scalar loop separates them by 1e-300
        [5e-324, 0.0, 0.0, 1e300],
        [1.0, 1e300, 1.0, 1.0],       # p overflows
        [1.5e308, 1.0],               # abs(step) raises OverflowError
        [1e308, 0.0, 0.0, 1e-300],    # the radius overflows
        [1.0, 0.0, 0.0, 0.0],         # the radius divides by zero
    ]
    fig5 = list(map(float, FIG5.d))
    with pytest.MonkeyPatch.context() as patch:  # blocks of any size, to the last sweep
        patch.setattr(polynomial, "ABERTH_BLOCK_MIN_ROOTS", 1)
        assert _aberth_rows(crafted + [fig5]) == [()] * 5 + [_aberth_ehrlich(fig5)]
        assert _aberth_rows(crafted[-1:]) == [()]  # a band with no start at all
        # still moving after the last sweep: resumed, the scalar loop raises
        # as it does alone
        (resume,) = _aberth_rows([fig5], sweeps=1)
    assert resume[1] == 1
    with pytest.raises(RootFindingError) as alone:
        _aberth_ehrlich(fig5, sweeps=1)
    with pytest.raises(RootFindingError) as resumed:
        _aberth_ehrlich(fig5, *resume, sweeps=1)
    assert (resumed.value.args, _hex_parts(resumed.value.partial_roots),
            resumed.value.residuals) == \
        (alone.value.args, _hex_parts(alone.value.partial_roots), alone.value.residuals)

    # in a call that runs the kernel, the scalar loop decides those rows
    aberth, aberth_rows = polynomial._aberth_ehrlich, polynomial._aberth_rows
    calls = {"_aberth_ehrlich": 0, "_aberth_block": 0}
    for name in calls:
        monkeypatch.setattr(polynomial, name, _counting(calls, name, getattr(polynomial, name)))
    overflowing = WienerPolynomial((1, 10 ** 300, 1, 1))
    enough = -(-ABERTH_BLOCK_MIN_ROOTS // 3)  # copies of FIG5's cubic W/x for a block
    outcomes = roots_batch([FIG5] * enough + [overflowing], return_exceptions=True)
    assert calls == {"_aberth_ehrlich": 1, "_aberth_block": 1}
    assert outcomes[:-1] == [roots(FIG5)] * enough
    with pytest.raises(ValueError, match="too large for floating-point") as alone:
        roots(overflowing)
    assert type(outcomes[-1]) is ValueError and outcomes[-1].args == alone.value.args

    # a sweep budget too small for any row: each fails as it fails alone
    monkeypatch.setattr(polynomial, "_aberth_ehrlich", _counting(
        calls, "_aberth_ehrlich",
        lambda coeffs, *resume: aberth(coeffs, *resume, sweeps=2)))
    monkeypatch.setattr(polynomial, "_aberth_rows", lambda rows: aberth_rows(rows, sweeps=2))
    ps = [WienerPolynomial(d) for d in distinct_distributions("trees", 11) if len(d) > 3]
    calls.update(dict.fromkeys(calls, 0))
    together = roots_batch(ps, return_exceptions=True)
    assert calls["_aberth_block"] >= 1 and calls["_aberth_ehrlich"] >= len(ps)
    alone = [roots_batch([p], return_exceptions=True)[0] for p in ps]
    assert all(isinstance(o, RootFindingError) for o in together)
    assert [(o.args, _hex_parts(o.partial_roots), [r.hex() for r in o.residuals])
            for o in together] == \
        [(o.args, _hex_parts(o.partial_roots), [r.hex() for r in o.residuals]) for o in alone]


def _bits(root_set) -> str:
    return repr([(r.re, r.im, r.residual, r.exact_form) for r in root_set])


def test_roots_batch_of_a_shuffled_mixed_list_is_roots_of_each():
    rng = random.Random(59)
    pool = [d for n in range(2, 12) for d in distinct_distributions("trees", n)]
    pool += [d for n in range(2, 7) for d in distinct_distributions("graphs", n)]
    pool += [family_polynomial(FamilySpec("path", (n,))).d for n in range(3, 40)]
    pool += [FIG5.d, (2, 9, 16, 14, 6, 1), (1, 2, 3, 2, 1), (7,), (5, 1)] * 3
    rng.shuffle(pool)
    ps = [WienerPolynomial(d) for d in pool]
    assert [_bits(rs) for rs in roots_batch(ps)] == [_bits(roots(p)) for p in ps]
    assert roots_batch([]) == []


def test_roots_refuse_a_degree_past_the_bound_before_iterating(monkeypatch):
    from wiener_roots import polynomial

    def no_iteration(*args, **kwargs):
        raise AssertionError("Aberth ran")

    monkeypatch.setattr(polynomial, "_aberth_ehrlich", no_iteration)
    too_long = WienerPolynomial(tuple(range(ROOTS_MAX_DEGREE + 2, 0, -1)))
    message = f"degree at most {ROOTS_MAX_DEGREE}, not {ROOTS_MAX_DEGREE + 1}"
    with pytest.raises(ValueError, match=message):
        roots(too_long)
    quadratic = WienerPolynomial((3, 2, 1))
    with pytest.raises(ValueError, match=message):
        roots_batch([quadratic, too_long, quadratic])
    first, error, last = roots_batch([quadratic, too_long, quadratic],
                                     return_exceptions=True)
    assert first == last == roots(quadratic) and isinstance(error, ValueError)


def test_roots_batch_raises_the_first_failure_in_input_order(monkeypatch):
    from wiener_roots import polynomial

    aberth = polynomial._aberth_ehrlich
    monkeypatch.setattr(polynomial, "_aberth_ehrlich",
                        lambda coeffs: aberth(coeffs, sweeps=1))
    cubic = WienerPolynomial((9, 7, 5, 3, 1))
    too_long = WienerPolynomial(tuple(range(ROOTS_MAX_DEGREE + 2, 0, -1)))
    too_large = WienerPolynomial((1, 10 ** 400, 1, 1))
    quadratic = WienerPolynomial((3, 2, 1))
    with pytest.raises(RootFindingError):
        roots_batch([quadratic, cubic, too_long, too_large])
    with pytest.raises(ValueError, match="degree at most"):
        roots_batch([quadratic, too_long, cubic, too_large])
    with pytest.raises(ValueError, match="too large for floating-point"):
        roots_batch([too_large, cubic, too_long])
    outcomes = roots_batch([cubic, quadratic, too_large], return_exceptions=True)
    assert [type(o) for o in outcomes] == [RootFindingError, tuple, ValueError]


def test_the_first_failing_factor_decides_the_failure(monkeypatch):
    from wiener_roots import polynomial
    from wiener_roots.polynomial import _square_free_decomposition

    # Yun gives FIG5's W/x (multiplicity 1) before 1 + 2x + 3x^2 + 4x^3 (multiplicity 2)
    first, second = [6, 4, 3, 2], [1, 2, 3, 4]
    tangled = WienerPolynomial(tuple(_poly_mul(first, _poly_mul(second, second))))
    assert _square_free_decomposition(tangled.d) == [(first, 1), (second, 2)]
    aberth, polish = polynomial._aberth_ehrlich, polynomial._newton_polish_rows
    quadratic = WienerPolynomial((3, 2, 1))

    def stalled(coeffs):
        if coeffs == [float(x) for x in stuck]:
            raise RootFindingError("stalled on purpose", [], [])
        return aberth(coeffs)

    def blown_up(c, z):
        out = polish(c, z)
        out[(c == [float(x) for x in overflowing]).all(axis=1)] = complex(math.inf, 0.0)
        return out

    monkeypatch.setattr(polynomial, "_aberth_ehrlich", stalled)
    monkeypatch.setattr(polynomial, "_newton_polish_rows", blown_up)
    for stuck, overflowing, expected in ((first, second, RootFindingError),
                                         (second, first, ValueError)):
        with pytest.raises(expected) as raised:
            roots(tangled)
        assert type(raised.value) is expected
        outcomes = roots_batch([quadratic, tangled, quadratic], return_exceptions=True)
        assert type(outcomes[1]) is expected
        assert outcomes[0] == outcomes[2] == roots(quadratic)


# ---------------------------------------------------------------------------
# The batched certificates: square-free screen and real-root counts by discs
# ---------------------------------------------------------------------------


def test_screen_never_certifies_a_polynomial_with_a_square():
    from wiener_roots.polynomial import _square_free_decomposition, _square_free_screen

    rng = random.Random(41)
    cases = list(PLANTED) + [_random_integer_poly(rng) for _ in range(240)]
    squares = [c for c in cases if any(m > 1 for _, m in _square_free_decomposition(c))]
    assert len(squares) > 100
    assert all(_square_free_decomposition(c) != [(c, 1)] for c in PLANTED[:2])
    # each alone, and each twice, in groups of one and of two rows
    assert not any(_square_free_screen([c]).any() for c in squares)
    assert not _square_free_screen([c for c in squares for _ in range(2)]).any()
    assert not _square_free_screen([(1, 2, 1), (1, 2, 1)]).any()  # (1 + x)^2
    assert not _square_free_screen([(1, 2, 1)]).any()


def test_screen_certifies_only_square_free_polynomials():
    from wiener_roots.polynomial import (_primitive, _square_free_decomposition,
                                         _square_free_screen)

    pool = [d for n in range(2, 15) for d in distinct_distributions("trees", n)]
    pool += [d for n in range(2, 8) for d in distinct_distributions("graphs", n)]
    pool += [family_polynomial(FamilySpec("path", (n,))).d for n in range(3, 101)]
    pool += [(1, 1, SCREEN_PRIME), (1, 2, 3, SCREEN_PRIME), (2 ** 64 + 1, 3, 1)]
    certified = _square_free_screen(pool).tolist()
    for dvec, sure in zip(pool, certified):
        if sure:
            assert _square_free_decomposition(dvec) == [(_primitive(dvec), 1)], dvec
    assert certified[-3:] == [False, False, True]  # leading coefficients divisible by q
    assert sum(certified) >= 0.95 * len(pool)
    assert _square_free_screen([FIG5.d]).all()  # a group of one is screened too


def _counting(calls, name, fn):
    """fn, adding one to calls[name] at each call."""
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def test_a_lone_roots_call_runs_each_batched_step_once(monkeypatch):
    from wiener_roots import polynomial

    steps = ("_square_free_screen", "_aberth_rows", "_aberth_ehrlich",
             "_newton_polish_rows", "_disc_real_counts", "_comp_horner_batch")
    calls = dict.fromkeys(steps + ("_aberth_block",), 0)
    for name in calls:
        monkeypatch.setattr(polynomial, name, _counting(calls, name, getattr(polynomial, name)))
    assert len(roots(FIG5)) == 3  # W/x = 6 + 4x + 3x^2 + 2x^3, solved by Aberth
    assert calls == {**dict.fromkeys(steps, 1), "_aberth_block": 0}


def test_batched_aberth_runs_from_its_threshold_on(monkeypatch):
    from wiener_roots import polynomial
    from wiener_roots.polynomial import ABERTH_BLOCK_MIN_ROOTS

    calls = {"_aberth_ehrlich": 0, "_aberth_block": 0}
    resumes = []
    for name in calls:
        monkeypatch.setattr(polynomial, name, _counting(calls, name, getattr(polynomial, name)))
    aberth = polynomial._aberth_ehrlich
    monkeypatch.setattr(polynomial, "_aberth_ehrlich",
                        lambda coeffs, *resume: resumes.append(resume) or aberth(coeffs, *resume))
    enough = -(-ABERTH_BLOCK_MIN_ROOTS // 3)  # rows of degree 3 for one block
    few = roots_batch([FIG5] * (enough - 1))
    assert calls == {"_aberth_ehrlich": enough - 1, "_aberth_block": 0}
    batched = roots_batch([FIG5] * enough)
    assert calls == {"_aberth_ehrlich": enough - 1, "_aberth_block": 1}
    assert [_bits(rs) for rs in batched] == [_bits(few[0])] * enough
    # Aberth takes 7 sweeps on this W/x and 5 on FIG5's: after the fifth the
    # block has one live row, and the scalar loop goes on from there
    straggler = WienerPolynomial((9, 23, 12, 1))
    resumes.clear()
    *_, last = roots_batch([FIG5] * enough + [straggler])
    assert calls == {"_aberth_ehrlich": enough, "_aberth_block": 2}
    assert [done for _, done in resumes] == [5]
    assert _bits(last) == _bits(roots(straggler))


def test_disc_counts_agree_with_sturm_chains(solved_pool):
    from wiener_roots.polynomial import _count_real_roots

    pools = [("trees", n) for n in range(4, 16)] + [("graphs", n) for n in range(4, 8)]
    pools += [("path", 3, 100), ("t_n", 6, 1000)]
    seen = [pair for pool in pools for pair in solved_pool(*pool).disc_counts]
    decided = [(row, n) for row, n in seen if n >= 0]
    assert len(seen) > 10000 and len(decided) >= 0.99 * len(seen)
    for row, n in decided:
        assert n == _count_real_roots([int(x) for x in row]), row


def test_disc_counts_need_disjoint_discs_clear_of_mirror_images():
    from wiener_roots.polynomial import _disc_real_counts

    c = np.array([[-10.0, 1.0, -10.0, 1.0]])  # (x - 10)(x^2 + 1)
    # at the roots, and with the real root's centre just off the axis: its
    # disc, of radius about 3e-6, must still reach the axis
    for centres in ([10, 1j, -1j], [10 + 1e-6j, 1j, -1j], [10 - 1e-6j, 1j, -1j]):
        assert _disc_real_counts(c, np.array([centres])).tolist() == [1]
    # the disc around 0.6i has radius about 1.2: it touches the axis and
    # misses the disc around -i, but its root is i, inside the mirror image
    # of that disc, so the discs do not decide the count
    assert _disc_real_counts(c, np.array([[10, 0.6j, -1j]])).tolist() == [-1]
    # overlapping discs never decide
    assert _disc_real_counts(c, np.array([[10, 0.5j, 0.4j]])).tolist() == [-1]


def test_forced_fallbacks_give_the_same_roots(monkeypatch):
    from wiener_roots import polynomial

    pool = [d for n in range(9, 13) for d in distinct_distributions("trees", n)]
    pool += [d for n in range(5, 8) for d in distinct_distributions("graphs", n)]
    pool += [family_polynomial(FamilySpec("path", (n,))).d for n in range(3, 60)]
    ps = [WienerPolynomial(d) for d in pool]
    expected = [_bits(rs) for rs in roots_batch(ps)]
    calls = {"aberth": 0, "sturm": 0, "yun": 0}
    for name, attr in (("aberth", "_aberth_ehrlich"), ("sturm", "_count_real_roots"),
                       ("yun", "_square_free_decomposition")):
        monkeypatch.setattr(polynomial, attr, _counting(calls, name, getattr(polynomial, attr)))
    aberth_rows = polynomial._aberth_rows

    def batched(rows):  # a factor solved in a block counts as one Aberth call;
        found = aberth_rows(rows)  # the others take one call to the scalar loop
        calls["aberth"] += sum(isinstance(zs, list) for zs in found)
        return found

    monkeypatch.setattr(polynomial, "_aberth_rows", batched)
    # infinite radii: every factor solved by Aberth is counted by a Sturm chain
    monkeypatch.setattr(polynomial, "_weierstrass_radii",
                        lambda c, z: np.full(z.shape, np.inf))
    assert [_bits(rs) for rs in roots_batch(ps)] == expected
    assert calls["sturm"] == calls["aberth"] > 900
    # no row certified by the screen: every W/x through Yun's decomposition
    monkeypatch.setattr(polynomial, "_square_free_screen",
                        lambda dvecs: np.zeros(len(dvecs), dtype=bool))
    calls["yun"] = 0
    assert [_bits(rs) for rs in roots_batch(ps)] == expected
    assert calls["yun"] == sum(len(d) > 1 for d in pool)


def test_batched_compensated_horner_is_the_scalar_one_bit_for_bit():
    from wiener_roots.polynomial import _comp_horner_batch

    rng = random.Random(61)
    for length in (1, 2, 5, 17, 40):
        rows, points = [], []
        for _ in range(200):
            rows.append([float(rng.randrange(-10 ** rng.randrange(1, 15),
                                             10 ** rng.randrange(1, 15)))
                         for _ in range(length)])
            modulus, angle = 10 ** rng.uniform(-3, 3), rng.uniform(0, 2 * math.pi)
            z = modulus * complex(math.cos(angle), math.sin(angle))
            points.append(rng.choice((z, z.conjugate(), complex(z.real, 0.0),
                                      complex(0.0, z.imag), 0j)))
        batch = _comp_horner_batch(np.array(rows), np.array(points)).tolist()
        assert [repr(v) for v in batch] == \
            [repr(_ref_comp_horner(row, z)) for row, z in zip(rows, points)]
