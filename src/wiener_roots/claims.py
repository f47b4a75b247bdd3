"""One verifier per claim: exhaustive desk-scale checks with witness reports.

Every verifier returns a ClaimReport whose verdict is decided by exact
arithmetic wherever the claim is about equality or uniqueness (extreme-ratio
attainment, rational root values, discriminant signs) and by floating-point
comparison with an explicit tolerance where the claim is an inequality on
numeric roots.  Verifiers are deterministic: identical parameters give
identical reports apart from the runtime field.

A claim is declared once, at its verifier: the `claim` decorator names its
id, bounds and quick/full parameter sets, and the verifier's annotations give
its parameter types.  `run_all` runs the claims in declaration order.

Enumeration results and root sets are cached per process, so a suite run
pays for the order-7 labeled sweep and the order-17 tree sweep only once.
`distinct_distributions` is derived from those caches on each call, and every
scan reads it, as does the CLI's scatter.  A tree instance keeps its
distance vector and its parent row; edges are spelled out (`_edges`) only
where a report names a tree.

The extremal scans (`tree_root_bound`, and `search_extremal` for
`tn_extremal` and `extremal_real_part`) are one pruned scan, `_pruned_maxima`:
it finds roots only for the distributions whose certified upper bound on the
objective reaches the value that decides the report.  The largest modulus is
bounded by the Eneström–Kakeya radius max d_k/d_{k+1}, the largest real part
by the root discs of `polynomial.root_discs` (eigenvalue centres with
certified Weierstrass radii).  The skipped root sets can neither break a
bound nor attain or tie a maximum, so the reports are those of an exhaustive
scan.  At tree orders 5..17, one or a few root sets per order are found for
each objective instead of all of them.

`path_annulus` is decided in exact arithmetic: the Eneström–Kakeya annulus
of a path's W/x is the claimed annulus itself, so an order passes without
root finding, and root_set runs only for the witness orders and for any
order that certificate does not cover.
"""

from __future__ import annotations

import heapq
import inspect
import math
import operator
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps
from math import comb
from typing import Callable, Iterable, Sequence, get_args, get_type_hints

import numpy as np

from .graph_core import (
    ENUMERATION_MAX_ORDER,
    GRAPH_MAX_ORDER,
    EnumerationStats,
    Graph,
    distance_distribution,
    enumerate_connected_distributions,
    enumerate_trees,
    from_edge_list,
    load_fixture,
    tree_distributions,
    tree_parent_row,
)
from .polynomial import (
    ComplexRoot,
    WienerPolynomial,
    all_roots_rational,
    all_roots_real,
    enestrom_kakeya,
    imaginary_axis_candidates,
    length_groups,
    purely_imaginary_roots,
    root_discs,
    roots,
    roots_batch,
)
from .families import (
    FamilySpec,
    dense_construct,
    family_polynomial,
    leaf_augment,
    tree_dense_construct,
)

DEFAULT_TOLERANCE = 1e-8

Verdict = tuple[str, list, list]  # a verifier body's verdict, witnesses, counterexamples
Bound = tuple[Callable[..., bool], str]  # a predicate over named parameters, its message


@dataclass
class ClaimReport:
    """Verdict record for one verified claim."""

    claim_id: str
    params: dict
    verdict: str
    witnesses: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    runtime: float = 0.0

    def __post_init__(self) -> None:
        if self.verdict not in ("pass", "fail", "inconclusive-budget"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict == "fail" and not self.counterexamples:
            raise ValueError("fail verdicts need at least one counterexample")
        if self.verdict == "pass" and self.counterexamples:
            raise ValueError("pass verdicts cannot carry counterexamples")

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "params": self.params,
            "verdict": self.verdict,
            "witnesses": self.witnesses,
            "counterexamples": self.counterexamples,
            "runtime_seconds": self.runtime,
        }


@dataclass
class ExtremalReport:
    """Outcome of an exhaustive search for an extremal root statistic."""

    order: int
    objective: str
    kind: str
    best_value: float
    argmax: list

    def __post_init__(self) -> None:
        if not self.argmax:
            raise ValueError("extremal searches must return their argmax")


# ---------------------------------------------------------------------------
# Claim registry: declarations and the suite runner
# ---------------------------------------------------------------------------

# Claim id -> verifier, in declaration order; filled by the `claim` decorator.
CLAIMS: dict[str, Callable[..., ClaimReport]] = {}

# The bounds of the tolerance parameters, which every claim taking one gets.
_TOLERANCE_BOUNDS: dict[str, Bound] = {
    "tol": (lambda tol: math.isfinite(tol) and tol >= 0, "need a finite tol >= 0"),
    "rel_tol": (lambda rel_tol: math.isfinite(rel_tol) and rel_tol > 0,
                "need a finite rel_tol > 0"),
}


class ClaimSpec:
    """What a claim declares besides its id: parameter types (the verifier's
    annotations, an optional int counting as int), bounds (predicates over
    the parameters they name, each with the message raised when it fails;
    tol and rel_tol get theirs from _TOLERANCE_BOUNDS) and the quick/full
    parameter sets."""

    def __init__(self, body: Callable[..., Verdict], bounds: Sequence[Bound],
                 quick: Sequence[dict], full: Sequence[dict]) -> None:
        self.signature = inspect.signature(body)
        hints = get_type_hints(body)
        self.types: dict[str, type] = {}
        for name in self.signature.parameters:
            # n_hi is annotated `int | None`; bind reads None as n_lo before checking
            options = get_args(hints[name]) or (hints[name],)
            self.types[name] = next(t for t in options if t is not type(None))
        bounds = [*bounds, *(_TOLERANCE_BOUNDS[name] for name in self.signature.parameters
                             if name in _TOLERANCE_BOUNDS)]
        self.bounds = [(check, inspect.signature(check).parameters, message)
                       for check, message in bounds]
        self.profiles = {"quick": tuple(quick), "full": tuple(full)}

    def bind(self, *args, **kwargs) -> dict:
        """The arguments by name in signature order, defaults applied and an n_hi
        of None read as n_lo.  TypeError for a missing, unknown or mistyped
        argument (a float parameter takes an int too), ValueError for a bound."""
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        values = dict(bound.arguments)
        if "n_hi" in values and values["n_hi"] is None:
            values["n_hi"] = values["n_lo"]
        for name, value in values.items():
            kind = self.types[name]
            if not isinstance(value, (int, float) if kind is float else kind):
                raise TypeError(f"parameter {name!r} takes {kind.__name__} values, "
                                f"not {value!r}")
        for check, names, message in self.bounds:
            if not check(*(values[name] for name in names)):
                raise ValueError(message)
        return values


def claim(claim_id: str, *bounds: Bound, quick: Sequence[dict], full: Sequence[dict]):
    """Register the decorated body, which returns a Verdict, as claim `claim_id`.

    The verifier keeps the body's signature, validates its arguments with
    `ClaimSpec.bind`, times the body, and reports as params every argument
    except tol, rel_tol and long_running, in signature order."""
    def register(body: Callable[..., Verdict]) -> Callable[..., ClaimReport]:
        spec = ClaimSpec(body, bounds, quick, full)

        @wraps(body)
        def verifier(*args, **kwargs) -> ClaimReport:
            values = spec.bind(*args, **kwargs)
            params = {name: value for name, value in values.items()
                      if name not in ("tol", "rel_tol", "long_running")}
            start = time.perf_counter()
            verdict, witnesses, counterexamples = body(**values)
            return ClaimReport(claim_id, params, verdict, witnesses, counterexamples,
                               runtime=time.perf_counter() - start)

        verifier.spec = spec  # functools.wraps copies it onto wrappers of the verifier
        CLAIMS[claim_id] = verifier
        return verifier

    return register


def _orders(lo: int, hi: int) -> Bound:
    """The bound lo <= n_lo <= n_hi <= hi on a verifier's order range."""
    return (lambda n_lo, n_hi: lo <= n_lo <= n_hi <= hi,
            f"supported order range is {lo}..{hi}")


def claim_ids() -> tuple[str, ...]:
    return tuple(CLAIMS)


def run_claim(claim_id: str, **params) -> ClaimReport:
    if claim_id not in CLAIMS:
        raise KeyError(f"unknown claim {claim_id!r}; have {sorted(CLAIMS)}")
    return CLAIMS[claim_id](**params)


def run_all(profile: str = "quick") -> list[ClaimReport]:
    """Run every registered claim, in declaration order, at each parameter
    set the profile declares for it, and return all reports."""
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {profile!r}; have ['full', 'quick']")
    return [run_claim(claim_id, **params) for claim_id in CLAIMS
            for params in CLAIMS[claim_id].spec.profiles[profile]]


# ---------------------------------------------------------------------------
# Cached enumeration and root solving
# ---------------------------------------------------------------------------


_ENUMERATION_JOBS = 1


def set_jobs(jobs: int) -> None:
    """Worker count for the labeled-graph sweeps; results are identical either way."""
    global _ENUMERATION_JOBS
    _ENUMERATION_JOBS = max(1, jobs)


@lru_cache(maxsize=None)
def connected_distributions(
    n: int, long_running: bool = False
) -> tuple[tuple[WienerPolynomial, ...], EnumerationStats]:
    dists, stats = enumerate_connected_distributions(
        n, jobs=_ENUMERATION_JOBS, long_running=long_running)
    return tuple(dists), stats


@lru_cache(maxsize=None)
def tree_instances(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(distance vector, parent row) for every free tree of order n, in the
    order of enumerate_trees; the vectors come from the batched tree kernel.
    A report that names a tree spells its edges out with _edges."""
    parents = [tree_parent_row(g) for g in enumerate_trees(n)]
    return tuple(zip(tree_distributions(parents), parents))


def _edges(row: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The edges (parent, child) of the tree with this parent row, by child."""
    return tuple((p, v) for v, p in enumerate(row, 1))


def distinct_distributions(kind: str, n: int,
                           long_running: bool = False) -> tuple[tuple[int, ...], ...]:
    """The distinct distance vectors of all connected graphs or all free trees
    of order n: sorted for graphs, in first-occurrence order for trees.

    Derived on each call from the cached enumerations, so the sweep caches
    stay the only ones to clear.
    """
    if kind == "graphs":
        # the flag matters only as the order-8 opt-in; passed nowhere else, it
        # keys one sweep per order, shared with plain connected_distributions(n)
        opt_in = (True,) if long_running and n == ENUMERATION_MAX_ORDER else ()
        dists, _ = connected_distributions(n, *opt_in)
        return tuple(dd.d for dd in dists)
    if kind == "trees":
        return tuple(dict.fromkeys(dvec for dvec, _ in tree_instances(n)))
    raise ValueError("kind must be 'graphs' or 'trees'")


@lru_cache(maxsize=None)
def root_set(dvec: tuple[int, ...]) -> tuple[ComplexRoot, ...]:
    """Nonzero Wiener roots of the distribution, the roots of W/x."""
    return roots(WienerPolynomial(dvec))


# A computed root may lie past its Eneström–Kakeya radius by rounding only;
# this relative margin is far wider than that.
_RADIUS_MARGIN = 1 + 2.0 ** -20


def _ratio_radii(dvecs: Sequence[tuple[int, ...]]) -> np.ndarray:
    """R(1+2^-20), R = max d_k/d_{k+1}, of each distribution, all of length >= 2.

    One numpy expression per length group.  Coefficients below 2^53 convert
    to float exactly and float division is correctly rounded, so each radius
    is the scalar expression's bit for bit; a coefficient of 2^53 or more
    raises ValueError instead of being rounded.
    """
    radii = np.empty(len(dvecs))
    for positions, m in length_groups(dvecs):
        if m.max() >= 2 ** 53:
            raise ValueError("pair counts of 2^53 or more have no exact float ratio")
        radii[positions] = (m[:, :-1] / m[:, 1:]).max(axis=1) * _RADIUS_MARGIN
    return radii


def _real_part_bounds(dvecs: Sequence[tuple[int, ...]]) -> np.ndarray:
    """max_i(Re z_i + r_i) over each distribution's root discs (`root_discs`),
    all of length >= 2: at least its largest real part, and inf where the
    discs fall back.

    Each radius is padded by 2^-20 times |z_i| + r_i, far more than the
    error of a computed root, so the bound holds for the root_set roots
    inside the discs too.
    """
    bounds = np.empty(len(dvecs))
    for positions, m in length_groups(dvecs):
        centres, radii = root_discs(m)
        radii = radii + (np.abs(centres) + radii) * (_RADIUS_MARGIN - 1)
        bounds[positions] = (centres.real + radii).max(axis=1)
    return bounds


# The objectives of the pruned scan: each one's value on a root set, its
# upper bounds for a list of distributions of length >= 2, and their name.
# The bound functions are looked up when called, so they can be replaced.
_OBJECTIVES = {
    "max_modulus": (lambda rs: max(r.modulus for r in rs),
                    lambda dvecs: _ratio_radii(dvecs), "Eneström–Kakeya radius"),
    "max_real": (lambda rs: max(r.re for r in rs),
                 lambda dvecs: _real_part_bounds(dvecs), "disc bound"),
}


def _pruned_maxima(dvecs: Iterable[tuple[int, ...]], objective: str,
                   floor: Callable[[float], float]) -> dict[tuple[int, ...], float]:
    """The objective's value on each distribution in dvecs that can reach
    floor(top), top being the largest value found so far; keyed in
    first-occurrence order.

    Each objective has its own certified upper bound, computed for all the
    distinct distributions at once, one numpy pass per length:
    - max_modulus: the Eneström–Kakeya radius R(1+2^-20) of `_ratio_radii`,
      since every root of d_1 + d_2 x + ... + d_D x^(D-1) with all d_k > 0
      has |z| <= R = max d_k/d_{k+1};
    - max_real: `_real_part_bounds`, the largest Re z_i + r_i over the root
      discs of `root_discs`, padded by 2^-20 times |z_i| + r_i; a
      distribution whose discs fall back gets inf and is always solved.
    The distributions are walked in descending bound (a stable argsort, so
    ties stay in first-occurrence order), and root_set is called only while
    the bound is >= floor(top); the walk stops at the first below it,
    because no distribution left can reach the floor.  The first
    distribution is always solved, so the floor never sees an unset top.
    Distributions of length 1 have no roots and are skipped.  A value past
    its bound raises RuntimeError.
    """
    value_of, bounds_of, bound_name = _OBJECTIVES[objective]
    unique = [dvec for dvec in dict.fromkeys(dvecs) if len(dvec) > 1]
    bounds = bounds_of(unique)
    bound = bounds.tolist()
    found: dict[tuple[int, ...], float] = {}
    top = -math.inf
    for i in np.argsort(-bounds, kind="stable").tolist():
        dvec = unique[i]
        if found and bound[i] < floor(top):
            break
        value = value_of(root_set(dvec))
        if not value <= bound[i]:
            raise RuntimeError(f"{objective} {value!r} of d={dvec} exceeds its "
                               f"{bound_name} {bound[i]!r}")
        found[dvec] = value
        top = max(top, value)
    return {dvec: found[dvec] for dvec in unique if dvec in found}


# ---------------------------------------------------------------------------
# Modulus bounds over all connected graphs
# ---------------------------------------------------------------------------


def _extreme_modulus(largest: bool, n_lo: int, n_hi: int, tol: float) -> Verdict:
    """Shared body of max_modulus (largest) and min_modulus (not largest).

    The bound is checked numerically on every root of every enumerated
    distribution; attainment is decided exactly: only a W/x of degree 1,
    with its rational root -d_1/d_2, can attain the bound, and
    every higher-degree distribution must keep its exact extreme-ratio bound
    strictly inside it.  `beyond(a, b)` says a lies strictly past b in the
    claim's direction.  The roots of each order come from one roots_batch
    call.
    """
    beyond = operator.gt if largest else operator.lt
    sign, verb = (">", "reaches") if largest else ("<", "not above")
    witnesses, bad = [], []
    for n in range(n_lo, n_hi + 1):
        if largest:
            bound = comb(n, 2) - 1
            attainer = (bound, 1)
            limit = bound + tol
        else:
            bound = Fraction(2, n - 2)
            attainer = (n - 1, comb(n - 1, 2))
            limit = float(bound) - tol
        attainers = []
        dvecs = [dvec for dvec in distinct_distributions("graphs", n) if len(dvec) > 1]
        root_sets = roots_batch([WienerPolynomial(dvec) for dvec in dvecs])
        for dvec, rs in zip(dvecs, root_sets):
            if len(dvec) == 2:
                value = Fraction(dvec[0], dvec[1])
                if value == bound:
                    attainers.append(dvec)
                elif beyond(value, bound):
                    bad.append((f"n={n} d={dvec}",
                                f"exact modulus {value} {sign} {bound}"))
            else:
                ann = enestrom_kakeya(WienerPolynomial(dvec))
                ratio = ann.R if largest else ann.r
                if not beyond(bound, ratio):
                    bad.append((f"n={n} d={dvec}", f"ratio bound {ratio} {verb} {bound}"))
            for r in rs:
                if beyond(r.modulus, limit):
                    bad.append((f"n={n} d={dvec}", r.to_json_dict()))
        if attainers != [attainer]:
            bad.append((f"n={n}", f"attainers {attainers}, expected {[attainer]}"))
        else:
            witnesses.append((f"n={n} d={attainer}", f"root {-bound}"))
    return ("pass" if not bad else "fail"), witnesses, bad


@claim("max_modulus", _orders(3, 7),
       quick=[dict(n_lo=3, n_hi=6)], full=[dict(n_lo=3, n_hi=7)])
def verify_max_modulus(n_lo: int, n_hi: int | None = None,
                       tol: float = DEFAULT_TOLERANCE) -> Verdict:
    """Largest root modulus at order n is C(n,2)-1, attained only by d = (C(n,2)-1, 1);
    any higher-degree distribution has an exact ratio bound of at most C(n,2)-2."""
    return _extreme_modulus(True, n_lo, n_hi, tol)


@claim("min_modulus", _orders(3, 7),
       quick=[dict(n_lo=3, n_hi=6)], full=[dict(n_lo=3, n_hi=7)])
def verify_min_modulus(n_lo: int, n_hi: int | None = None,
                       tol: float = DEFAULT_TOLERANCE) -> Verdict:
    """Smallest nonzero root modulus at order n is 2/(n-2), attained only by the star;
    for every higher-degree distribution the exact lower ratio bound exceeds it."""
    return _extreme_modulus(False, n_lo, n_hi, tol)


# ---------------------------------------------------------------------------
# Coefficient-ratio bounds
# ---------------------------------------------------------------------------


@claim("tree_ratio_bounds", _orders(3, 14),
       quick=[dict(n_lo=3, n_hi=10)], full=[dict(n_lo=3, n_hi=14)])
def verify_tree_ratio_bounds(n_lo: int, n_hi: int | None = None) -> Verdict:
    """Exact rational check of d_k/d_{k+1} <= 2(n-D) over all free trees,
    with the order-only bound 2(n-4) for n >= 5."""
    witnesses, bad = [], []
    for n in range(n_lo, n_hi + 1):
        ties = []
        for dvec, row in tree_instances(n):
            diam = len(dvec)
            for k in range(diam - 1):
                if dvec[k] > 2 * (n - diam) * dvec[k + 1]:
                    bad.append((f"n={n} edges={_edges(row)}",
                                f"d_{k+1}/d_{k+2} = {dvec[k]}/{dvec[k+1]} > 2(n-D)"))
                if n >= 5 and dvec[k] > 2 * (n - 4) * dvec[k + 1]:
                    bad.append((f"n={n} edges={_edges(row)}",
                                f"d_{k+1}/d_{k+2} = {dvec[k]}/{dvec[k+1]} > 2(n-4)"))
                if dvec[k] == 2 * (n - diam) * dvec[k + 1]:
                    ties.append((dvec, k + 1))
        witnesses.append((f"n={n}", f"{len(tree_instances(n))} trees checked, "
                          f"{len(ties)} diameter-bound equalities"))
    return ("pass" if not bad else "fail"), witnesses, bad


@claim("ratio_lower", _orders(3, 7),
       quick=[dict(n_lo=3, n_hi=6)], full=[dict(n_lo=3, n_hi=7)])
def verify_ratio_lower(n_lo: int, n_hi: int | None = None) -> Verdict:
    """Exact check of d_k/d_{k+1} >= 2/(n-k-1) over all connected distributions."""
    witnesses, bad = [], []
    for n in range(n_lo, n_hi + 1):
        ties = 0
        dvecs = distinct_distributions("graphs", n)
        for dvec in dvecs:
            for k in range(len(dvec) - 1):
                lhs = dvec[k] * (n - (k + 1) - 1)
                rhs = 2 * dvec[k + 1]
                if lhs < rhs:
                    bad.append((f"n={n} d={dvec}",
                                f"d_{k+1}*{n-k-2} = {lhs} < 2*d_{k+2} = {rhs}"))
                elif lhs == rhs:
                    ties += 1
        witnesses.append((f"n={n}", f"{len(dvecs)} distributions, {ties} equalities"))
    return ("pass" if not bad else "fail"), witnesses, bad


@claim("tree_root_bound", _orders(5, 17),
       quick=[dict(n_lo=5, n_hi=12)], full=[dict(n_lo=5, n_hi=17)])
def verify_tree_root_bound(n_lo: int, n_hi: int | None = None,
                           tol: float = DEFAULT_TOLERANCE) -> Verdict:
    """All roots of all free trees of order n satisfy |z| <= 2(n-4).

    Only the distributions whose Eneström–Kakeya radius reaches the smaller
    of the largest modulus found and bound + tol are solved (`_pruned_maxima`):
    the roots of every other one can neither break the bound nor attain the
    maximum, so the report is the one an exhaustive scan gives.
    """
    witnesses, bad = [], []
    for n in range(n_lo, n_hi + 1):
        bound = 2 * (n - 4)
        solved = _pruned_maxima(distinct_distributions("trees", n), "max_modulus",
                                lambda top: min(top, bound + tol))
        best_d = max(solved, key=solved.get)
        for dvec, modulus in solved.items():
            if modulus > bound + tol:
                row = next(row for d, row in tree_instances(n) if d == dvec)
                bad.extend((f"n={n} edges={_edges(row)}", r.to_json_dict())
                           for r in root_set(dvec) if r.modulus > bound + tol)
        witnesses.append((f"n={n}", f"max modulus {solved[best_d]:.6f} "
                          f"of bound {bound} at d={best_d}"))
    return ("pass" if not bad else "fail"), witnesses, bad


# ---------------------------------------------------------------------------
# The pendant-star path family: interval root and extremality
# ---------------------------------------------------------------------------


def _half_sqrt2_eval(coeffs: Sequence[int], a: int, b: int) -> tuple[int, int]:
    """2^D p((a + b*sqrt(2))/2) for p of degree D, as its (integer, sqrt2) parts.

    Homogeneous Horner: sum c_k (a + b*sqrt(2))^k 2^(D-k) stays integral, and
    the positive scale 2^D keeps the sign of p at the point.
    """
    va, vb, scale = coeffs[-1], 0, 1
    for k in range(len(coeffs) - 2, -1, -1):
        scale *= 2
        va, vb = va * a + 2 * vb * b + coeffs[k] * scale, va * b + vb * a
    return va, vb


def _sqrt2_sign(a: int, b: int) -> int:
    """Exact sign of a + b*sqrt(2)."""
    if a == 0 and b == 0:
        return 0
    if a >= 0 and b >= 0:
        return 1
    if a <= 0 and b <= 0:
        return -1
    big = a * a > 2 * b * b
    if a > 0:
        return 1 if big else -1
    return -1 if big else 1


@claim("tn_interval", _orders(5, 1000),
       quick=[dict(n_lo=6, n_hi=100)], full=[dict(n_lo=6, n_hi=1000)])
def verify_tn_interval(n_lo: int, n_hi: int | None = None) -> Verdict:
    """The middle-leaf path family has a real root in an explicit unit interval.

    For order n >= 6, W/x is negative at -(1+1/sqrt(2))n+7
    and positive at -(1+1/sqrt(2))n+8; both endpoints are (A - n*sqrt(2))/2
    with A = 2(7-n) or 2(8-n), their signs are evaluated exactly in the
    field extension by sqrt(2), in integers, and a numeric root is then
    located inside the interval; the roots of every order come from one
    roots_batch call.  Orders below 6 are out of the claim's range and
    report inconclusive-budget.
    """
    witnesses, bad = [], []
    if n_lo < 6:
        return "inconclusive-budget", [
            (f"n={n_lo}", "claim applies to orders 6 and up")], []
    orders = range(n_lo, n_hi + 1)
    dvecs = [family_polynomial(FamilySpec("t_n", (n,))).d for n in orders]
    root_sets = roots_batch([WienerPolynomial(dvec) for dvec in dvecs])
    for n, dvec, rts in zip(orders, dvecs, root_sets):
        left_sign = _sqrt2_sign(*_half_sqrt2_eval(dvec, 2 * (7 - n), -n))
        right_sign = _sqrt2_sign(*_half_sqrt2_eval(dvec, 2 * (8 - n), -n))
        if left_sign >= 0:
            bad.append((f"n={n}", "left endpoint value is not negative"))
        if right_sign <= 0:
            bad.append((f"n={n}", "right endpoint value is not positive"))
        lo = -(1 + 1 / math.sqrt(2)) * n + 7
        hi = lo + 1
        inside = [r for r in rts if r.im == 0 and lo < r.re < hi]
        if not inside:
            bad.append((f"n={n}", f"no numeric real root in ({lo:.6f}, {hi:.6f})"))
        elif n in (n_lo, n_hi):
            witnesses.append((f"n={n}", f"real root {inside[0].re:.9f} in "
                              f"({lo:.6f}, {hi:.6f})"))
    return ("pass" if not bad else "fail"), witnesses, bad


@claim("tn_extremal", _orders(5, 17),
       quick=[dict(n_lo=5, n_hi=12)], full=[dict(n_lo=5, n_hi=17)])
def verify_tn_extremal(n_lo: int, n_hi: int | None = None,
                       tol: float = DEFAULT_TOLERANCE) -> Verdict:
    """The middle-leaf path family is the unique max-modulus tree at each order."""
    witnesses, bad = [], []
    for n in range(n_lo, n_hi + 1):
        target = family_polynomial(FamilySpec("t_n", (n,))).d
        report = search_extremal(n, "max_modulus", "trees", tol=tol)
        hits = report.argmax
        if len(hits) != 1 or tuple(hits[0]["d"]) != target:
            bad.append((f"n={n}", f"argmax {hits} does not single out d={target}"))
        else:
            witnesses.append((f"n={n} d={target}",
                              f"max modulus {report.best_value:.9f}"))
    return ("pass" if not bad else "fail"), witnesses, bad


@claim("path_annulus", _orders(3, 100),
       quick=[dict(n_lo=3, n_hi=30)], full=[dict(n_lo=3, n_hi=100)])
def verify_path_annulus(n_lo: int, n_hi: int | None = None,
                        tol: float = DEFAULT_TOLERANCE) -> Verdict:
    """Nonzero path roots lie in the exact annulus (n-1)/(n-2) <= |z| <= 2.

    W/x of the path P_n has the pair counts n-1, n-2, ..., 1, so its
    Eneström–Kakeya annulus (`enestrom_kakeya`) is exactly that one
    (Anderson, Saff & Varga, Linear Algebra Appl. 28, 1979).  An order is
    certified when the annulus lies in [(n-1)/(n-2), 2], compared in exact
    Fractions.  root_set runs only for the witness orders n_lo and n_hi
    and for any order the certificate does not cover, which are checked
    root by root.
    """
    witnesses, bad = [], []
    for n in range(n_lo, n_hi + 1):
        dvec = family_polynomial(FamilySpec("path", (n,))).d
        lo = (n - 1) / (n - 2)
        if n not in (n_lo, n_hi):
            ann = enestrom_kakeya(WienerPolynomial(dvec))
            if Fraction(n - 1, n - 2) <= ann.r and ann.R <= 2:
                continue
        for r in root_set(dvec):
            if not (lo - tol <= r.modulus <= 2 + tol):
                bad.append((f"path order {n}", r.to_json_dict()))
        if n in (n_lo, n_hi):
            mods = sorted(r.modulus for r in root_set(dvec))
            witnesses.append((f"path order {n}",
                              f"moduli in [{mods[0]:.9f}, {mods[-1]:.9f}]"))
    return ("pass" if not bad else "fail"), witnesses, bad


# ---------------------------------------------------------------------------
# Density of real roots
# ---------------------------------------------------------------------------


@claim("density",
       (lambda a_hi, b_hi: 1 <= a_hi <= 50 and 1 <= b_hi <= 50,
        "supported parameter bound is 1..50"),
       quick=[dict(a_hi=10, b_hi=10)], full=[dict(a_hi=50, b_hi=50)])
def verify_density(a_hi: int = 50, b_hi: int = 50) -> Verdict:
    """The diameter-2 construction hits every negative rational -a/b exactly."""
    witnesses, bad = [], []
    for a in range(1, a_hi + 1):
        for b in range(1, b_hi + 1):
            spec, target = dense_construct(a, b)
            n, m = spec.params
            if not (n - 1 <= m < comb(n, 2)):
                bad.append((str(spec), "size constraint violated"))
                continue
            root = Fraction(-m, comb(n, 2) - m)
            if root != target or target != Fraction(-a, b):
                bad.append((str(spec), f"root {root} != -{a}/{b}"))
    witnesses.append((f"grid 1..{a_hi} x 1..{b_hi}",
                      "every rational -a/b realized exactly"))
    return ("pass" if not bad else "fail"), witnesses, bad


@claim("tree_density_limit",
       (lambda a, b: a >= 1 and b >= 1, "need a >= 1 and b >= 1"),
       (lambda ell_max: ell_max >= 40, "need ell_max >= 40 for the ladder"),
       quick=[dict(a=1, b=2, ell_max=240)],
       full=[dict(a=1, b=2), dict(a=1, b=1), dict(a=2, b=1), dict(a=5, b=1)])
def verify_tree_density_limit(a: int, b: int, ell_max: int = 1000,
                              rel_tol: float = 0.01) -> Verdict:
    """Double-star leftmost roots approach -r - 1/(4r) for r = a/b.

    Checks proximity at ell_max and that the deviation decreases along the
    geometric ladder ell_max/8, ell_max/4, ell_max/2, ell_max.
    """
    r = Fraction(a, b)
    limit = float(-r - 1 / (4 * r))
    ladder = [ell_max // 8, ell_max // 4, ell_max // 2, ell_max]
    devs = []
    witnesses, bad = [], []
    for ell in ladder:
        spec = tree_dense_construct(a, b, ell)
        rts = root_set(family_polynomial(spec).d)
        real = [t.re for t in rts if t.im == 0]
        if not real:
            bad.append((str(spec), "no real roots found"))
            return "fail", witnesses, bad
        leftmost = min(real)
        devs.append(abs(leftmost - limit))
        witnesses.append((str(spec), f"leftmost root {leftmost:.9f}"))
    witnesses.append((f"r={a}/{b}", f"limit {limit:.9f}, deviations {devs}"))
    if devs[-1] > rel_tol * abs(limit):
        bad.append((f"r={a}/{b}", f"final deviation {devs[-1]:.3e} above "
                    f"{rel_tol:.0%} of |{limit:.6f}|"))
    if any(devs[i + 1] >= devs[i] for i in range(len(devs) - 1)):
        bad.append((f"r={a}/{b}", f"deviations not decreasing: {devs}"))
    return ("pass" if not bad else "fail"), witnesses, bad


# ---------------------------------------------------------------------------
# Asymptotics of imaginary and real parts
# ---------------------------------------------------------------------------


@claim("broom_asymptotics",
       (lambda which: which in ("imag", "real"), "which must be 'imag' or 'real'"),
       (lambda n_max: n_max >= 800, "need n_max >= 800 for the ladder"),
       quick=[dict(which="imag", n_max=10 ** 4), dict(which="real", n_max=10 ** 4)],
       full=[dict(which="imag", n_max=10 ** 6), dict(which="real", n_max=10 ** 6)])
def verify_broom_asymptotics(which: str, n_max: int = 10 ** 6,
                             rel_tol: float = 0.05) -> Verdict:
    """Growth of the nonreal-root pair of the two closed-form broom families.

    which='imag': the handle-4 broom pair has imaginary part b_n with
    b_n/sqrt(n) -> 2^(-1/2); the pendant-clique family reaches imaginary
    parts within 1% of n/2 already at n = 10^4.
    which='real': the handle-5 broom pair has real part a_n with
    a_n/n^(1/3) -> 2^(-4/3).
    Both use a geometric ladder up to n_max: within rel_tol at the top, and
    deviation decreasing along the ladder.
    """
    witnesses, bad = [], []
    ladder = [n_max // 8, n_max // 4, n_max // 2, n_max]
    if which == "imag":
        spec_of = lambda n: FamilySpec("broom", (4, n))
        limit = 2 ** -0.5
        stat = lambda z, n: z.imag / math.sqrt(n)
        label = "im/sqrt(n)"
    else:
        spec_of = lambda n: FamilySpec("broom", (5, n))
        limit = 2 ** (-4 / 3)
        stat = lambda z, n: z.real / n ** (1 / 3)
        label = "re/n^(1/3)"
    devs = []
    for n in ladder:
        # the root with positive imaginary part of the unique nonreal pair
        nonreal = [r.z for r in root_set(family_polynomial(spec_of(n)).d) if r.im > 0]
        if len(nonreal) != 1:
            bad.append((str(spec_of(n)), "no single nonreal pair found"))
            return "fail", witnesses, bad
        value = stat(nonreal[0], n)
        devs.append(abs(value - limit))
        witnesses.append((str(spec_of(n)), f"{label} = {value:.9f}"))
    witnesses.append((f"limit {limit:.9f}", f"deviations {devs}"))
    if devs[-1] > rel_tol * limit:
        bad.append((f"n={n_max}", f"deviation {devs[-1]:.3e} above "
                    f"{rel_tol:.0%} of the limit"))
    if any(devs[i + 1] >= devs[i] for i in range(len(devs) - 1)):
        bad.append(("ladder", f"deviations not decreasing: {devs}"))
    if which == "imag":
        n = 10 ** 4
        rts = root_set(family_polynomial(FamilySpec("g_n", (n,))).d)
        top = max(r.im for r in rts)
        witnesses.append((f"g_n:{n}", f"imaginary part {top:.3f} vs n/2 = {n/2}"))
        if abs(top - n / 2) > 0.01 * (n / 2):
            bad.append((f"g_n:{n}", f"imaginary part {top:.3f} not within 1% of n/2"))
    return ("pass" if not bad else "fail"), witnesses, bad


@claim("half_plane", quick=[dict()], full=[dict()])
def verify_half_plane(tol: float = DEFAULT_TOLERANCE) -> Verdict:
    """No half-plane contains all Wiener roots: three concrete certificates.

    A real root below -10^3 (complete graph minus an edge at order 46), a
    root with imaginary part above 10^2 (handle-4 broom), and a root with
    real part above 10 (handle-5 broom).
    """
    witnesses, bad = [], []
    spec = FamilySpec("complete_minus_edge", (46,))
    low = min(r.re for r in root_set(family_polynomial(spec).d))
    (witnesses if low < -1000 else bad).append(
        (str(spec), f"real root {low:.1f} < -1000" if low < -1000
         else f"real root {low:.1f} not below -1000"))
    spec = FamilySpec("broom", (4, 40000))
    top = max(r.im for r in root_set(family_polynomial(spec).d))
    (witnesses if top > 100 else bad).append(
        (str(spec), f"imaginary part {top:.2f} > 100" if top > 100
         else f"imaginary part {top:.2f} not above 100"))
    spec = FamilySpec("broom", (5, 10 ** 6))
    right = max(r.re for r in root_set(family_polynomial(spec).d))
    (witnesses if right > 10 else bad).append(
        (str(spec), f"real part {right:.2f} > 10" if right > 10
         else f"real part {right:.2f} not above 10"))
    return ("pass" if not bad else "fail"), witnesses, bad


# ---------------------------------------------------------------------------
# Double stars: discriminant signs
# ---------------------------------------------------------------------------


def _double_star_discriminant(k: int, n: int) -> int:
    return (comb(k, 2) + comb(n - k, 2)) ** 2 - 4 * (n - 1) * (k - 1) * (n - k - 1)


@claim("double_star_discriminant",
       (lambda n_lo, n_hi: 4 <= n_lo <= n_hi, "need 4 <= n_lo <= n_hi"),
       quick=[dict(n_lo=4, n_hi=50)], full=[dict(n_lo=4, n_hi=200)])
def verify_double_star_discriminant(n_lo: int = 4, n_hi: int = 200) -> Verdict:
    """Double-star roots are real from order 15 on, and only from order 15 on.

    Exact integer discriminants: nonnegative for every side split at orders
    15..n_hi, while each order 4..14 admits a split with negative discriminant.
    """
    witnesses, bad = [], []
    for n in range(max(n_lo, 15), n_hi + 1):
        for k in range(2, n // 2 + 1):
            disc = _double_star_discriminant(k, n)
            if disc < 0:
                bad.append((f"double_star:{k},{n}", f"discriminant {disc} < 0"))
    if max(n_lo, 15) <= n_hi:
        witnesses.append((f"orders {max(n_lo, 15)}..{n_hi}",
                          "all discriminants nonnegative"))
    for n in range(n_lo, min(n_hi, 14) + 1):
        neg = [k for k in range(2, n // 2 + 1) if _double_star_discriminant(k, n) < 0]
        if not neg:
            bad.append((f"order {n}", "no split with nonreal roots"))
        else:
            witnesses.append((f"order {n}", f"nonreal splits at k in {neg}"))
    return ("pass" if not bad else "fail"), witnesses, bad


# ---------------------------------------------------------------------------
# Purely imaginary roots
# ---------------------------------------------------------------------------


def _imaginary_desc(hit) -> str:
    if hit.b_rational is not None:
        return f"±{hit.b_rational}i"
    if hit.radicand is not None:
        return f"±sqrt({hit.radicand})i"
    lo, hi = hit.t_interval
    return f"±bi with b^2 in ({float(-hi):.12f}, {float(-lo):.12f})"


@claim("purely_imaginary",
       (lambda kind: kind in ("graphs", "trees"), "kind must be 'graphs' or 'trees'"),
       quick=[dict(kind="graphs", order=6)],
       full=[dict(kind="graphs", order=5), dict(kind="graphs", order=6),
             dict(kind="trees", order=12)])
def find_purely_imaginary(kind: str, order: int, long_running: bool = False) -> Verdict:
    """Scan one order of a class with the exact imaginary-axis root test.

    `imaginary_axis_candidates` first clears, in one batched pass, every
    distribution whose even and odd parts have a certified constant gcd; the
    exact `purely_imaginary_roots` runs only on the rest, in pool order, so
    the report is the one an exact test of every distribution gives.
    """
    witnesses = []
    pool = distinct_distributions(kind, order, long_running)
    for dvec in imaginary_axis_candidates(pool):
        hits = purely_imaginary_roots(WienerPolynomial(dvec))
        if hits:
            witnesses.append((f"d={dvec}", [_imaginary_desc(h) for h in hits]))
    if not witnesses:
        witnesses.append((f"{kind} order {order}", "no purely imaginary roots"))
    return "pass", witnesses, []


# ---------------------------------------------------------------------------
# Extremal searches
# ---------------------------------------------------------------------------

def search_extremal(order: int, objective: str, kind: str,
                    tol: float = DEFAULT_TOLERANCE) -> ExtremalReport:
    """Exhaustive scan for the instance(s) attaining the largest root modulus
    or real part (an `_OBJECTIVES` key).

    The argmax holds every instance whose distribution is within
    tol(1 + |best|) of the best value: each such tree of tree_instances with
    its edges, in enumeration order, or each such graph distribution, in
    sorted order; complete graphs have no nonzero roots and are skipped.
    Only the distributions whose bound on the objective reaches that floor
    are solved (`_pruned_maxima`), so the report is the one an exhaustive
    scan gives.  A tol outside its declared bound raises ValueError.
    """
    tol_ok, tol_message = _TOLERANCE_BOUNDS["tol"]
    if not tol_ok(tol):
        raise ValueError(tol_message)
    if objective not in _OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    # distinct_distributions rejects other classes, the sweep an ungated order 8
    scores = _pruned_maxima(distinct_distributions(kind, order), objective,
                            lambda top: top - tol * (1 + abs(top)))
    if not scores:
        raise ValueError(f"no instances with nonzero roots at order {order}")
    best = max(scores.values())
    slack = tol * (1 + abs(best))
    top = {dvec for dvec, value in scores.items() if abs(value - best) <= slack}
    if kind == "trees":
        argmax = [{"d": list(dvec), "edges": [list(e) for e in _edges(row)]}
                  for dvec, row in tree_instances(order) if dvec in top]
    else:
        argmax = [{"d": list(dvec)} for dvec in scores if dvec in top]
    return ExtremalReport(order, objective, kind, best, argmax)


@claim("extremal_real_part",
       (lambda tree_lo, tree_hi: 6 <= tree_lo <= tree_hi <= 17,
        "supported tree order range is 6..17"),
       (lambda graph_hi: 3 <= graph_hi <= 7,
        "supported graph order bound is 3..7; orders above 7 are gated"),
       quick=[dict(tree_lo=6, tree_hi=12, graph_hi=5)],
       full=[dict(tree_lo=6, tree_hi=17, graph_hi=5)])
def verify_extremal_real_part(tree_lo: int = 6, tree_hi: int = 17, graph_hi: int = 5,
                              tol: float = DEFAULT_TOLERANCE) -> Verdict:
    """Trees with the largest positive real part: paths up to order 15, the
    shipped pendant-path fixtures at orders 16 and 17; no graph of order up
    to graph_hi has any root with positive real part."""
    witnesses, bad = [], []
    for n in range(3, graph_hi + 1):
        report = search_extremal(n, "max_real", "graphs", tol=tol)
        if report.best_value > tol:
            bad.append((f"graphs order {n}",
                        f"positive real part {report.best_value:.3e}"))
        else:
            witnesses.append((f"graphs order {n}",
                              f"max real part {report.best_value:.6f} <= 0"))
    for n in range(tree_lo, tree_hi + 1):
        if n <= 15:
            expected = tuple(range(n - 1, 0, -1))
            label = f"path:{n}"
        else:
            g = load_fixture(f"extremal_real_tree_{n}")
            expected = distance_distribution(g).d
            label = f"extremal_real_tree_{n}"
        report = search_extremal(n, "max_real", "trees", tol=tol)
        hits = report.argmax
        if len(hits) != 1 or tuple(hits[0]["d"]) != expected:
            bad.append((f"trees order {n}",
                        f"argmax {hits} does not single out {label}"))
        else:
            witnesses.append((f"trees order {n}",
                              f"{label} attains {report.best_value:.9f}"))
    return ("pass" if not bad else "fail"), witnesses, bad


# ---------------------------------------------------------------------------
# Leaf augmentation
# ---------------------------------------------------------------------------


def _random_tree(order: int, rng: random.Random) -> Graph:
    """Uniform labeled tree of the given order from a random parent code."""
    if order == 2:
        return from_edge_list(2, [(0, 1)])
    code = [rng.randrange(order) for _ in range(order - 2)]
    degree = [1] * order
    for v in code:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(order) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w))
    return from_edge_list(order, edges)


def _squared_binomial_times(w: WienerPolynomial) -> tuple[int, ...]:
    """Coefficients of (x+1)^2 * W, aligned to start at the x^1 term."""
    out = [0] * (len(w.d) + 2)
    for i, di in enumerate(w.d):
        out[i] += di
        out[i + 1] += 2 * di
        out[i + 2] += di
    return tuple(out)


@claim("leaf_augment_identity",
       (lambda order_lo, order_hi: 2 <= order_lo <= order_hi,
        "need 2 <= order_lo <= order_hi"),
       # the augmented trees have twice the order, at most GRAPH_MAX_ORDER
       (lambda order_hi: order_hi <= GRAPH_MAX_ORDER // 2,
        f"need order_hi <= {GRAPH_MAX_ORDER // 2}"),
       (lambda samples, depth: samples >= 0 and depth >= 0,
        "need samples >= 0 and depth >= 0"),
       # augmenting the three-vertex path depth times gives order 3 * 2^depth
       (lambda depth: 3 << depth <= GRAPH_MAX_ORDER,
        f"need 3 << depth <= {GRAPH_MAX_ORDER}, so depth <= "
        f"{(GRAPH_MAX_ORDER // 3).bit_length() - 1}"),
       quick=[dict(samples=50)], full=[dict(samples=200)])
def verify_leaf_augment_identity(samples: int = 200, order_lo: int = 3,
                                 order_hi: int = 15, depth: int = 3) -> Verdict:
    """Check W(augmented tree) = (x+1)^2 W(tree) coefficient-exactly, plus
    preservation of all-real (and all-rational) root sets through repeated
    augmentation of the three-vertex path.

    The verifier compares the claimed product against distance_distribution on
    a fixed-seed sample of random trees and reports every mismatch; it does
    not assume the identity.

    The statement is false: the n pairs {v, v'} of a vertex and its new leaf
    are missing from the product, and the true relation is
    W(T1) = (x+1)^2 W(T0) + n·x.  One augmentation of the three-vertex path
    already has a nonreal root pair.  The claim is kept as the suite's
    negative control, so its verdict is "fail".  Acceptance criterion 12
    parses the counterexamples: labels "order N edges=((u, v), ...)" and
    values "claimed (...) vs BFS (...)" for the identity, and
    "nonreal roots appear: d=(...)" for each augmentation depth.
    """
    witnesses, bad = [], []
    rng = random.Random(0)
    for _ in range(samples):
        order = rng.randrange(order_lo, order_hi + 1)
        t = _random_tree(order, rng)
        w0 = distance_distribution(t)
        big = leaf_augment(t)
        w1 = distance_distribution(big)
        claimed = _squared_binomial_times(w0)
        actual = w1.d + (0,) * (len(claimed) - len(w1.d))
        if claimed != actual:
            bad.append((f"order {order} edges={tuple(t.edges())}",
                        f"claimed {claimed} vs BFS {actual}"))
        d0, d1 = w0.degree, w1.degree
        if d1 != d0 + 2:
            bad.append((f"order {order} edges={tuple(t.edges())}",
                        f"diameter went {d0} -> {d1}, expected +2"))
    base = from_edge_list(3, [(0, 1), (1, 2)])
    if not all_roots_rational(distance_distribution(base)):
        bad.append(("three-vertex path", "base roots not rational"))
    t = base
    for k in range(1, depth + 1):
        t = leaf_augment(t)
        wk = distance_distribution(t)
        if not all_roots_real(wk):
            bad.append((f"augmentation depth {k} (order {t.n})",
                        f"nonreal roots appear: d={wk.d}"))
        elif not all_roots_rational(wk):
            bad.append((f"augmentation depth {k} (order {t.n})",
                        f"irrational roots appear: d={wk.d}"))
        else:
            witnesses.append((f"depth {k}", "roots still rational"))
    return ("pass" if not bad else "fail"), witnesses, bad
