"""The Wiener polynomial, exact arithmetic on it, and root localization.

`WienerPolynomial(d)` is the one value type: d[k-1] counts the vertex pairs
at distance k, so W = sum d_k x^k has degree len(d), the diameter.
`evaluate` and `evaluate_gaussian` evaluate W; every other function works on
W/x, whose coefficients are d and whose roots are the nonzero Wiener roots.

Coefficients are arbitrary-precision integers throughout (pair counts reach
C(n,2) scale, and the asymptotic sweeps push n to 10^6).  Evaluation converts
to floating point only through a compensated Horner scheme; rational and
Gaussian-rational evaluation stays exact.

Root finding is tiered.  Degrees one and two are solved in closed form over
the rationals / quadratic surds, because the uniqueness claims downstream
need "modulus equals bound" decided exactly.  Higher degrees go through a
square-free decomposition (exact integer gcds) followed by Aberth-Ehrlich
simultaneous iteration with a Newton polish, so multiple roots never degrade
into clusters.  Purely imaginary roots are detected exactly: split the
polynomial into even and odd parts, take the integer gcd, and isolate its
negative real roots with Sturm sequences.

Work over many distributions runs in batches.  `length_groups` stacks the
vectors of one length into an int64 matrix.  `imaginary_axis_candidates`
runs a pseudo-remainder sequence of the even and odd parts modulo 2^31 - 1
on each matrix at once: a vector it clears has a certificate that the
integer gcd is constant, and only the rest need the exact test.
`root_discs` encloses the roots of every row of a matrix at once:
eigenvalues of the stacked companion matrices as centres, and Weierstrass
inclusion radii bounded from above with every rounding error counted.  The
claims bound the largest real part of each distribution by its discs; a
row the discs cannot certify gets infinite radii and goes to `roots`.

`roots_batch` is the one root pipeline, and `roots` is `roots_batch` of one
polynomial.  Aberth is the Gauss-Seidel iteration of `_aberth_ehrlich` in
CPython's complex arithmetic.  `_aberth_rows` sorts the factors of degree 3
and up into degree bands, whose largest degree is at most twice their
smallest, and sweeps a band at once in numpy, with the same bits, while its
live rows times their largest degree are at least ABERTH_BLOCK_MIN_ROOTS.
The scalar loop solves the bands below that from the start, goes on from
where a block stopped for its last few rows, and decides every row the
block cannot follow exactly.  Each step around Aberth has one implementation,
which runs once per band or length group however small.
The same modular sequence, on W/x and its derivative, certifies most
polynomials square-free.  Then comes `_factor_roots`: the Newton polish of
the Aberth roots, one pass per degree band, in CPython's complex arithmetic
written out in float64; and, one pass per factor length, the real-root
count from the same Weierstrass radii around the polished roots, wherever
the discs are disjoint and clear of each other's mirror images, and the
conjugate symmetrization.  Last comes one pass per degree band of W/x: the
residuals are the compensated Horner scheme evaluated elementwise over all
the roots.  A band pads each row with zero coefficients above its degree;
at a finite point the zeros leave the values as they are, up to the sign
of a zero, so the polish keeps its bits and the residuals their moduli.
Rows that no certificate covers take the exact steps: Yun's decomposition
and a Sturm chain.

Every remainder sequence (Sturm chains, gcds, Yun's loop) runs on integer
coefficient lists: fraction-free pseudo-remainders reduced to their
primitive part, and exact divisions by primitive divisors.  No polynomial
is ever divided, or evaluated at a rational num/den, in Fractions: one integer
Horner, den^deg c(num/den), serves `evaluate`, the Sturm variations and the
bisection.  Rationals remain only as values (roots, closed forms, annulus).
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

import numpy as np

RESIDUAL_THRESHOLD = 1e-9
# Aberth costs O(k^2) per sweep in Python, and the path roots took 1.2 s at
# degree 400 and about 5.7 s at degree 800 on one core of a 2-vCPU Xeon, so
# roots_batch refuses a W/x of higher degree than this.
ROOTS_MAX_DEGREE = 1024
ABERTH_SWEEP_BUDGET = 500
ABERTH_STEP_TOLERANCE = 1e-13
# `_aberth_rows` sweeps a band of factors of degree 3 and up at once, in
# blocks of at most ABERTH_BLOCK_ROWS rows, while its live rows times their
# largest degree k come to at least ABERTH_BLOCK_MIN_ROOTS: a sweep costs the
# block about k numpy steps and the scalar loop about rows * k^2 Python
# operations, so one product decides both whether a band starts in a block
# and when a block hands its last rows to the scalar loop.  Block CPU time
# over scalar CPU time for one band swept to the end, without a hand-off, on
# one core of a shared 2-vCPU Xeon:
#
#   rows x k     ~200  ~400  ~800  ~1600  ~3200
#   compute      4.30  2.34  1.28   0.78   0.58   (degrees 15-29)
#   trees        3.23  1.82  1.08   0.68   0.49   (tree order 17, degrees 8-15)
#   T_n cubics   1.39  0.81  0.54   0.44   0.32
#
# CPU ms for all of a factor set, both rules at the constant (min of 4-9):
#
#   constant           200   400   600   800  1000  1200  1600  (parent)
#   compute, seed 1    120   119   119   119   119   122   121    176
#   T_n cubics        12.7  12.6  12.6  12.5  12.5  13.8  13.9   13.0
#   paths 3..100       441   421   420   420   422   432   448   1221
#   4,000 tree-17      159   154   158   158   159   159   159
ABERTH_BLOCK_MIN_ROOTS = 800
ABERTH_BLOCK_ROWS = 2048
STURM_REFINE_WIDTH = Fraction(1, 1 << 40)
STURM_RELATIVE_WIDTH = Fraction(1, 1 << 20)


class RootFindingError(RuntimeError):
    """Iteration budget exhausted; carries the partial roots and residuals."""

    def __init__(self, message: str, partial_roots: Sequence[complex],
                 residuals: Sequence[float]):
        super().__init__(message)
        self.partial_roots = tuple(partial_roots)
        self.residuals = tuple(residuals)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WienerPolynomial:
    """Pair counts d_1..d_D by distance: W = sum d_k x^k, and W/x has coefficients d."""

    d: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.d or any(x < 1 for x in self.d):
            raise ValueError("all pair counts must be positive integers")

    @property
    def degree(self) -> int:
        """Degree of W, which is the diameter; W/x has degree one less."""
        return len(self.d)


@dataclass(frozen=True)
class Annulus:
    """Exact-rational annulus r <= |z| <= R containing all roots."""

    r: Fraction
    R: Fraction

    def __post_init__(self) -> None:
        if not 0 < self.r <= self.R:
            raise ValueError("need 0 < r <= R")

    def contains(self, z: complex, tol: float = 1e-8) -> bool:
        return float(self.r) - tol <= abs(z) <= float(self.R) + tol


@dataclass(frozen=True)
class ComplexRoot:
    """One root: float approximation, relative residual, optional exact form."""

    re: float
    im: float
    residual: float
    exact_form: str | None = None

    @property
    def exact(self) -> bool:
        return self.exact_form is not None

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)

    @property
    def modulus(self) -> float:
        return abs(self.z)

    def to_json_dict(self) -> dict:
        return {
            "re": self.re,
            "im": self.im,
            "residual": self.residual,
            "exact": self.exact_form,
        }


@dataclass(frozen=True)
class PurelyImaginaryRoot:
    """A conjugate pair +-bi on the imaginary axis, b > 0.

    When the squared value is rational, `radicand` holds b^2 exactly (so the
    root is the radical sqrt(radicand)); otherwise `t_interval` certifies the
    negative real number t = -b^2 to width 2^-40 and to a relative 2^-20.
    """

    b: float
    radicand: Fraction | None = None
    t_interval: tuple[Fraction, Fraction] | None = None

    @property
    def exact(self) -> bool:
        return self.radicand is not None

    @property
    def b_rational(self) -> Fraction | None:
        """b as an exact rational when the radicand is a perfect square."""
        if self.radicand is None:
            return None
        num, den = self.radicand.numerator, self.radicand.denominator
        sn, sd = math.isqrt(num), math.isqrt(den)
        if sn * sn == num and sd * sd == den:
            return Fraction(sn, sd)
        return None


class GaussianValue(NamedTuple):
    """Exact value a + bi with rational parts."""

    re: Fraction
    im: Fraction

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _horner_at(c: Sequence[int], num: int, den: int) -> int:
    """den^deg c(num/den) for the integer polynomial c and den > 0: homogeneous
    Horner in integers, so its sign is the sign of c at num/den."""
    acc, scale = c[-1], 1
    for k in range(len(c) - 2, -1, -1):
        scale *= den
        acc = acc * num + c[k] * scale
    return acc


def evaluate(p: WienerPolynomial, z: numbers.Complex):
    """W(z): the exact Fraction by _horner_at at any numbers.Rational (numpy
    integers and bools too); compensated Horner at other complex z, a float if
    z is real."""
    if isinstance(z, np.bool_):  # registered with none of the numbers ABCs
        z = bool(z)
    coeffs = (0,) + p.d
    if isinstance(z, numbers.Rational):
        num, den = int(z.numerator), int(z.denominator)
        return Fraction(_horner_at(coeffs, num, den), den ** p.degree)
    if isinstance(z, numbers.Complex):
        with np.errstate(all="ignore"):
            value = complex(_comp_horner_batch(np.array([[float(x) for x in coeffs]]),
                                               np.array([z], dtype=complex))[0])
        return value.real if isinstance(z, numbers.Real) else value
    raise TypeError(f"cannot evaluate at {type(z)!r}")


def evaluate_gaussian(p: WienerPolynomial,
                      re: int | Fraction, im: int | Fraction) -> GaussianValue:
    """Exact W(re + im*i) at a Gaussian rational; no rounding anywhere."""
    coeffs = (0,) + p.d
    a, b = Fraction(re), Fraction(im)
    vr, vi = Fraction(0), Fraction(0)
    for k in range(len(coeffs) - 1, -1, -1):
        vr, vi = vr * a - vi * b + coeffs[k], vr * b + vi * a
    return GaussianValue(vr, vi)


def wiener_index(w: WienerPolynomial) -> int:
    """Sum of all pairwise distances: the derivative at one."""
    return sum(i * di for i, di in enumerate(w.d, start=1))


def enestrom_kakeya(p: WienerPolynomial) -> Annulus:
    """Exact annulus of the nonzero roots: extreme ratios d_k/d_{k+1}.

    Pair counts are positive, so a/b < e/f exactly when a*f < e*b: the
    extreme ratios are found by integer cross-multiplication, and only
    those two become Fractions.
    """
    c = p.d
    if len(c) < 2:
        raise ValueError("a W/x of degree 0 (complete graphs) has no annulus")
    pairs = zip(c, c[1:])
    lo = hi = next(pairs)
    for a, b in pairs:
        if a * lo[1] < lo[0] * b:
            lo = (a, b)
        elif a * hi[1] > hi[0] * b:
            hi = (a, b)
    return Annulus(Fraction(*lo), Fraction(*hi))


# ---------------------------------------------------------------------------
# Integer polynomial utilities (dense, low degree first)
# ---------------------------------------------------------------------------


def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _deriv(c: Sequence) -> list:
    return [k * c[k] for k in range(1, len(c))]


def _poly_sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    n = max(len(a), len(b))
    out = list(a) + [0] * (n - len(a))
    for i, x in enumerate(b):
        out[i] -= x
    return _trim(out)


def _content(c: Sequence[int]) -> int:
    return math.gcd(*c) or 1


def _primitive(c: Sequence[int]) -> list[int]:
    """Divide by the (positive) content; signs are preserved."""
    g = _content(c)
    return [x // g for x in c] if g != 1 else list(c)


def _int_rem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive part of a positive multiple of the remainder of a by b.

    Fraction-free pseudo-division: before each elimination step the partial
    remainder is scaled by |lc(b)| / gcd(lc(r), lc(b)) > 0, so the result has
    the sign pattern of the true rational remainder (which Sturm chains need)
    while every coefficient stays an integer.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    alb = abs(lb)
    while len(r) > db:
        lr = r.pop()
        g = math.gcd(lr, alb)
        scale, q = alb // g, lr // g
        if lb < 0:
            q = -q
        shift = len(r) - db
        if scale != 1:
            r = [scale * x for x in r]
        for i in range(db):
            r[shift + i] -= q * b[i]
        _trim(r)
    return _primitive(r)


def _int_div_exact(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Exact quotient a / b of integer polynomials.

    When b is primitive and divides a over the rationals, Gauss's lemma makes
    the quotient integral; anything else raises ArithmeticError.
    """
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    quot = [0] * max(len(r) - db, 0)
    while len(r) > db:
        q, m = divmod(r.pop(), lb)
        if m:
            raise ArithmeticError("polynomial division was expected to be exact")
        shift = len(r) - db
        quot[shift] = q
        for i in range(db):
            r[shift + i] -= q * b[i]
        _trim(r)
    if r:
        raise ArithmeticError("polynomial division was expected to be exact")
    return _trim(quot)


def _int_poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive integer gcd with positive leading coefficient."""
    fa, fb = _primitive(_trim(list(a))), _primitive(_trim(list(b)))
    while fb:
        fa, fb = fb, _int_rem(fa, fb)
    return [-x for x in fa] if fa and fa[-1] < 0 else fa


def _square_free_decomposition(c: Sequence[int]) -> list[tuple[list[int], int]]:
    """Yun decomposition into primitive square-free factors with multiplicities.

    Runs on integers: every gcd is primitive, so by Gauss's lemma each exact
    division stays integral, and b and d keep a common scale throughout.
    """
    work = _trim(list(c))
    if len(work) <= 1:
        return []
    fp = _deriv(work)
    a = _int_poly_gcd(work, fp)
    if len(a) <= 1:
        return [(_primitive(work), 1)]
    b = _int_div_exact(work, a)
    d = _poly_sub(_int_div_exact(fp, a), _deriv(b))
    out: list[tuple[list[int], int]] = []
    i = 1
    while len(b) > 1:
        g = _int_poly_gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b = _int_div_exact(b, g)
        d = _poly_sub(_int_div_exact(d, g), _deriv(b))
        i += 1
    return out


# ---------------------------------------------------------------------------
# Sturm sequences: exact real-root counting and isolation
# ---------------------------------------------------------------------------


def _sturm_chain(c: Sequence[int]) -> list[list[int]]:
    """Sturm chain of a square-free integer polynomial (primitive, sign-safe)."""
    chain = [_primitive(_trim(list(c)))]
    dc = _trim(_deriv(chain[0]))
    if not dc:
        return chain
    chain.append(_primitive(dc))
    while len(chain[-1]) > 1:
        rem = _int_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-x for x in rem])
    return chain


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: Iterable[int]) -> int:
    seq = [s for s in signs if s]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _variations_at(chain: Sequence[Sequence[int]], num: int, den: int) -> int:
    return _variations(_sign(_horner_at(p, num, den)) for p in chain)


def _variations_at_inf(chain: Sequence[Sequence[int]], positive: bool) -> int:
    signs = []
    for p in chain:
        s = _sign(p[-1])
        if not positive and (len(p) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def _count_real_roots(c: Sequence[int]) -> int:
    """Number of distinct real roots of a square-free integer polynomial."""
    c = _trim(list(c))
    if len(c) <= 1:
        return 0
    chain = _sturm_chain(c)
    return _variations_at_inf(chain, False) - _variations_at_inf(chain, True)


def _simplest_in(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in [lo, hi] (Stern-Brocot walk)."""
    if lo == hi:
        return lo
    n = math.ceil(lo)
    if n <= hi:
        return Fraction(n)
    a = math.floor(lo)
    return a + 1 / _simplest_in(1 / (hi - a), 1 / (lo - a))


IsolatedRoot = Union[Fraction, tuple[Fraction, Fraction]]


def _isolate_real_roots(c: Sequence[int]) -> list[IsolatedRoot]:
    """All real roots of a square-free integer polynomial.

    Rational roots come back exactly (as Fractions); irrational roots come
    back as certified open intervals of width at most 2^-40, and at most 2^-20
    times the modulus of the endpoint nearer 0, with non-root endpoints.

    Brackets (lo/den, hi/den) are bisected in integers as in _refine_bracket,
    from the Cauchy bound ±(|lead| + max|c_k|)/|lead|, with Sturm variations
    by _horner_at.  A midpoint that is a root is divided out, and the
    isolation starts again on the quotient.
    """
    rationals: list[Fraction] = []
    work = _primitive(_trim(list(c)))
    if len(work) > 1 and work[0] == 0:
        rationals.append(Fraction(0))
        work = work[1:]
    while len(work) > 1:
        chain = _sturm_chain(work)
        lead = abs(work[-1])
        bound = lead + max(abs(x) for x in work[:-1])
        stack = [(-bound, bound, lead)]
        brackets: list[tuple[int, int, int]] = []
        while stack:
            lo, hi, den = stack.pop()
            k = _variations_at(chain, lo, den) - _variations_at(chain, hi, den)
            if k == 1:
                brackets.append((lo, hi, den))
            elif k > 1:
                mid, den = lo + hi, 2 * den
                if _horner_at(work, mid, den) == 0:
                    root = Fraction(mid, den)  # reduced, so the divisor is primitive
                    rationals.append(root)
                    work = _primitive(_int_div_exact(work, [-root.numerator, root.denominator]))
                    break
                stack += [(2 * lo, mid, den), (mid, 2 * hi, den)]
        else:
            found = rationals + [_refine_bracket(work, *b) for b in brackets]
            return sorted(found, key=_isolated_value)
    return sorted(rationals, key=_isolated_value)


def _refine_bracket(c: Sequence[int], lo: int, hi: int, den: int) -> IsolatedRoot:
    """Shrink the one-root bracket (lo/den, hi/den), den > 0, to width 2^-40
    or an exact rational hit.

    The bracket also shrinks until 0 is not in its closure: 0 is never a
    root here, so every kept bracket has the sign of its root.  Next to 0 it
    shrinks on until its width is at most 2^-20 times the modulus of its
    endpoint nearer 0, so the bracket's midpoint is close to the root in
    relative terms too.

    Each step doubles den and takes lo + hi as the midpoint, with no gcd,
    and each sign comes from _horner_at.  Fractions are made only for what
    is returned: a midpoint hit, the _simplest_in candidate, or the bracket.
    """
    width, relative = STURM_REFINE_WIDTH, STURM_RELATIVE_WIDTH
    sa = _sign(_horner_at(c, lo, den))
    while ((hi - lo) * width.denominator > width.numerator * den or lo <= 0 <= hi
           or (hi - lo) * relative.denominator
           > relative.numerator * min(abs(lo), abs(hi))):
        mid, den = lo + hi, 2 * den
        sm = _sign(_horner_at(c, mid, den))
        if sm == 0:
            return Fraction(mid, den)
        if sm == sa:
            lo, hi = mid, 2 * hi
        else:
            lo, hi = 2 * lo, mid
    a, b = Fraction(lo, den), Fraction(hi, den)
    candidate = _simplest_in(a, b)
    if _horner_at(c, candidate.numerator, candidate.denominator) == 0:
        return candidate
    return (a, b)


def _isolated_value(r: IsolatedRoot) -> Fraction:
    return r if isinstance(r, Fraction) else (r[0] + r[1]) / 2


def all_roots_real(p: WienerPolynomial) -> bool:
    """Exact test: every root lies on the real line."""
    total = 0
    for factor, mult in _square_free_decomposition(p.d):
        total += mult * _count_real_roots(factor)
    return total == p.degree - 1


def all_roots_rational(p: WienerPolynomial) -> bool:
    """Exact test: every root is rational (hence real)."""
    for factor, _ in _square_free_decomposition(p.d):
        deg = len(factor) - 1
        found = _isolate_real_roots(factor)
        if len(found) != deg or any(not isinstance(r, Fraction) for r in found):
            return False
    return True


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


def _aberth_ehrlich(coeffs: Sequence[float], z: list[complex] | None = None,
                    done: int = 0, *, sweeps: int = ABERTH_SWEEP_BUDGET,
                    tol: float = ABERTH_STEP_TOLERANCE) -> list[complex]:
    """Simultaneous iteration for all roots of a float-coefficient polynomial,
    one root at a time in CPython's complex arithmetic (Gauss-Seidel Aberth).

    The guesses start from `_aberth_start`, or from the iterates z that
    `_aberth_rows` hands back after `done` of the sweeps.  Raises
    RootFindingError, naming the whole budget, when some update still moves
    after the last sweep.  The Horner loops run over the coefficients
    reversed once, up front.  `_aberth_rows` runs the same sweeps over many
    polynomials at once.
    """
    deg = len(coeffs) - 1
    dcoeffs = [k * coeffs[k] for k in range(1, deg + 1)]
    lead, rest = coeffs[-1], coeffs[-2::-1]
    dlead, drest = dcoeffs[-1], dcoeffs[-2::-1]
    if z is None:
        z = _aberth_start(coeffs)
    for _ in range(done, sweeps):
        converged = True
        for i in range(deg):
            zi = z[i]
            p = lead
            for a in rest:
                p = p * zi + a
            if p == 0:
                continue
            dp = dlead
            for a in drest:
                dp = dp * zi + a
            if dp == 0:
                z[i] = zi * 1.0000001 + 1e-12
                converged = False
                continue
            w = p / dp
            s = 0j
            for zj in z[:i] + z[i + 1:]:
                diff = zi - zj
                if diff == 0:
                    diff = 1e-300
                s += 1 / diff
            denom = 1 - w * s
            step = w if denom == 0 else w / denom
            z[i] = zi - step
            if abs(step) > tol * (1 + abs(z[i])):
                converged = False
        if converged:
            return z
    residuals = []
    for zi in z:
        p = lead
        for a in rest:
            p = p * zi + a
        residuals.append(math.hypot(p.real, p.imag))  # inf where abs(p) would raise
    raise RootFindingError(
        f"Aberth-Ehrlich did not converge within {sweeps} sweeps", z, residuals)


def _aberth_start(coeffs: Sequence[float]) -> list[complex]:
    """Aberth's initial guesses: a circle of radius (|c_0|/|c_deg|)^(1/deg),
    turned so that no guess starts on the real axis."""
    deg = len(coeffs) - 1
    radius = (abs(coeffs[0]) / abs(coeffs[deg])) ** (1.0 / deg)
    offset = math.pi / (2 * deg)
    return [radius * cmath.exp(1j * (2 * math.pi * k / deg + offset))
            for k in range(deg)]


def _aberth_rows(rows: Sequence[Sequence[float]], *, sweeps: int = ABERTH_SWEEP_BUDGET,
                 tol: float = ABERTH_STEP_TOLERANCE) -> list:
    """For each of rows, the roots `_aberth_ehrlich` finds, bit for bit: as a
    list, or as a resume point, the tuple of further arguments with which
    `_aberth_ehrlich(row, *resume)` finds them.

    The rows are cut into `_degree_bands`.  A band sweeps at once in
    `_aberth_block` while its live rows times their largest degree come to
    at least ABERTH_BLOCK_MIN_ROOTS; below that the scalar loop is faster.
    So a band too small from the start gets () for each row, the scalar
    loop from the start, and a block that shrinks below it hands each live
    row back as (its iterates, the sweeps done).  A row gets () too when
    its start is not finite or cannot be computed, or when a step meets
    what the scalar loop does not compute in float arithmetic: coincident
    iterates, which it separates by 1e-300, or a value that is not finite
    or whose modulus overflows.  A row still moving after the last sweep
    comes back as (its iterates, sweeps), and `_aberth_ehrlich` raises.
    """
    out: list = [()] * len(rows)
    for band in _degree_bands([len(row) for row in rows]):
        if len(band) * (len(rows[band[-1]]) - 1) < ABERTH_BLOCK_MIN_ROOTS:
            continue
        block, starts = [], []
        for i in band:
            try:
                starts.append(_aberth_start(rows[i]))
            except ArithmeticError:
                continue
            block.append(i)
        if block:
            for i, zs in zip(block, _aberth_block([rows[i] for i in block], starts,
                                                  sweeps, tol)):
                out[i] = zs
    return out


def _degree_bands(lengths: Sequence[int | None]) -> list[list[int]]:
    """The positions of the lengths, None aside, sorted by length and cut into
    bands of at most ABERTH_BLOCK_ROWS whose largest degree (length - 1) is
    at most twice their smallest.

    A row padded to its band's largest degree at most doubles its width: in
    one block, the 94 paths of orders 7..100 among 1,700 lower-degree
    factors made batched Aberth slower than the scalar loop.
    """
    bands: list[list[int]] = []
    for i in sorted((i for i, n in enumerate(lengths) if n is not None),
                    key=lengths.__getitem__):
        if (not bands or len(bands[-1]) == ABERTH_BLOCK_ROWS
                or lengths[i] - 1 > 2 * (lengths[bands[-1][0]] - 1)):
            bands.append([])
        bands[-1].append(i)
    return bands


def _aberth_block(rows: Sequence[Sequence[float]], starts: Sequence[list[complex]],
                  sweeps: int, tol: float) -> list:
    """The sweeps of `_aberth_ehrlich` on rows sorted by degree, all at once,
    with results as `_aberth_rows` gives them.

    Row j holds its coefficients padded with zeros to the block's largest
    degree k, and column j of zr + zi i its roots padded with +inf.  At the
    start of a sweep, the Horner loop of `_horner_parts` gives p, p' and
    w = p / p' at every root: root i does not move before its own step, and
    the zeros take each row to its own leading coefficient with the value
    unchanged.  Step i runs on the rows of degree above i, a suffix of the
    block.  Each term 1/(z_i - z_j) is `_Py_c_quot` of 1 by the difference,
    written out for a numerator of 1, and the terms are summed left to right.
    Root i's own column and the pads are +inf, so they add zeros, and a zero
    term leaves a sum unchanged, whatever its sign.  A row stops after the
    sweep in which every step stayed within tol.  The rest sweep on while
    their number times their largest degree k, which the arrays shrink to,
    is at least ABERTH_BLOCK_MIN_ROOTS.
    """
    degs = np.array([len(row) - 1 for row in rows])
    k = int(degs[-1])
    c = np.array([list(row) + [0.0] * (k + 1 - len(row)) for row in rows])
    dc = c[:, 1:] * np.arange(1, k + 1)
    z = np.array([zs + [complex(np.inf, 0.0)] * (k - len(zs)) for zs in starts]).T
    zr, zi = z.real.copy(), z.imag.copy()
    ids = np.arange(len(rows))  # the block row of each live column
    bad = ~(np.isfinite(z) | (np.arange(k)[:, None] >= degs)).all(axis=0)
    out: list = [()] * len(rows)
    done = 0
    with np.errstate(all="ignore"):
        while done < sweeps and len(ids) * k >= ABERTH_BLOCK_MIN_ROOTS:
            pr, pi = _horner_parts(c, zr.T, zi.T)
            dr, di = _horner_parts(dc, zr.T, zi.T)
            skip = ((pr == 0) & (pi == 0)).T
            nudge = ~skip & ((dr == 0) & (di == 0)).T
            wr, wi = (part.T for part in _smith_quotient(pr, pi, dr, di))
            moved = np.zeros(len(ids), dtype=bool)
            firsts = np.searchsorted(degs, np.arange(k), side="right").tolist()
            for i, s in enumerate(firsts):
                x, y = zr[i, s:], zi[i, s:]
                ur, ui = x - zr[:, s:], y - zi[:, s:]
                ur[i] = np.inf
                wide = np.abs(ur) >= np.abs(ui)
                a, b = np.where(wide, ur, ui), np.where(wide, ui, ur)
                ratio = b / a
                denom = a + b * ratio
                tr = np.where(wide, 1.0, ratio) / denom
                ti = np.where(wide, ratio, 1.0) / denom  # minus the imaginary part
                sr, si = tr[0] + 0.0, 0.0 - ti[0]
                for j in range(1, len(tr)):
                    sr += tr[j]
                    si -= ti[j]
                w_r, w_i = wr[i, s:], wi[i, s:]
                er, ei = 1.0 - (w_r * sr - w_i * si), 0.0 - (w_r * si + w_i * sr)
                flat = (er == 0) & (ei == 0)
                qr, qi = _smith_quotient(w_r, w_i, er, ei)
                stepr, stepi = np.where(flat, w_r, qr), np.where(flat, w_i, qi)
                nx, ny = x - stepr, y - stepi
                size, scale = np.hypot(stepr, stepi), np.hypot(nx, ny)
                moving = size > tol * (1.0 + scale)
                broken = ~(np.isfinite(size) & np.isfinite(scale))
                odd = skip[i, s:] | nudge[i, s:]
                if odd.any():  # the scalar loop's p == 0 skip and p' == 0 nudge
                    nu = nudge[i, s:]
                    nx = np.where(nu, (x * 1.0000001 - y * 0.0) + 1e-12, np.where(odd, x, nx))
                    ny = np.where(nu, (x * 0.0 + y * 1.0000001) + 0.0, np.where(odd, y, ny))
                    moving = nu | (~odd & moving)
                    broken = np.where(odd, ~(np.isfinite(nx) & np.isfinite(ny)), broken)
                zr[i, s:], zi[i, s:] = nx, ny
                moved[s:] |= moving
                bad[s:] |= broken
            done += 1
            for j in np.flatnonzero(~moved & ~bad).tolist():
                out[ids[j]] = _column(zr, zi, j, degs[j])
            live = moved & ~bad
            ids, degs = ids[live], degs[live]
            k = int(degs[-1]) if len(degs) else 0
            c, dc, zr, zi = c[live, :k + 1], dc[live, :k], zr[:k, live], zi[:k, live]
            bad = bad[live]
    for j, row in enumerate(ids.tolist()):
        out[row] = (_column(zr, zi, j, degs[j]), done)
    return out


def _column(zr: np.ndarray, zi: np.ndarray, j: int, deg: int) -> list[complex]:
    """The first deg roots of column j of zr + zi i, as Python complexes."""
    return [complex(re, im) for re, im in zip(zr[:deg, j].tolist(), zi[:deg, j].tolist())]


def _newton_polish_rows(c: np.ndarray, z: np.ndarray, steps: int = 3) -> np.ndarray:
    """Newton steps on every point of row i of z, for the polynomial whose
    float coefficients, low degree first, are row i of c.

    Each step computes the values as CPython's complex arithmetic computes
    `p = lead; p = p * z + a` over the coefficients, highest first, for p
    and its derivative, and then z - p / p'.  numpy's complex multiply and
    divide round differently from CPython's, so the complex arithmetic is
    written out in binary64 as CPython 3.11 does it (`_Py_c_prod`,
    `_Py_c_sum`, `_Py_c_quot`): `_horner_parts` for the values,
    `_smith_quotient` for the step.  A point stops for good at the first
    step where its derivative value is 0.  A row may be padded with zero
    coefficients above its degree: at a finite point each zero leaves
    p = +0 + 0i until the row's leading coefficient, which makes p the lead
    + 0i that the unpadded loop starts from, so the bits are the same.
    """
    dc = c[:, 1:] * np.arange(1, c.shape[1])
    x, y = z.real.copy(), z.imag.copy()
    live = np.ones(z.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(steps):
            dr, di = _horner_parts(dc, x, y)
            live &= (dr != 0) | (di != 0)
            pr, pi = _horner_parts(c, x, y)
            qr, qi = _smith_quotient(pr, pi, dr, di)
            x = np.where(live, x - qr, x)
            y = np.where(live, y - qi, y)
    out = np.empty(z.shape, dtype=complex)
    out.real, out.imag = x, y
    return out


def _horner_parts(c: np.ndarray, x: np.ndarray, y: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of `p = lead; p = p * z + a` over the
    coefficients of row i of c, highest first, at every point x + yi of row i.

    The float lead enters the first product as lead + 0i, a product is
    (pr x - pi y) + (pr y + pi x)i, and adding a float coefficient adds 0.0
    to the imaginary part, as CPython's complex arithmetic does.
    """
    pr = np.broadcast_to(c[:, -1:], x.shape)
    pi = np.zeros(x.shape)
    for j in range(c.shape[1] - 2, -1, -1):
        pr, pi = (pr * x - pi * y) + c[:, j:j + 1], (pr * y + pi * x) + 0.0
    return pr, pi


def _smith_quotient(ar: np.ndarray, ai: np.ndarray, br: np.ndarray, bi: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(ar + ai i) / (br + bi i) by Smith's algorithm, as CPython's `_Py_c_quot`
    computes it: divided through by the larger part of the divisor, and NaN
    where neither part is the larger (a NaN part).  Where the divisor is 0
    the parts are NaN or inf, and the callers discard them: the scalar loops
    they follow never divide by 0."""
    by_real = np.abs(br) >= np.abs(bi)
    by_imag = np.abs(bi) >= np.abs(br)
    ratio = bi / br
    denom = br + bi * ratio
    real_r, real_i = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
    ratio = br / bi
    denom = br * ratio + bi
    imag_r, imag_i = (ar * ratio + ai) / denom, (ai * ratio - ar) / denom
    return (np.where(by_real, real_r, np.where(by_imag, imag_r, np.nan)),
            np.where(by_real, real_i, np.where(by_imag, imag_i, np.nan)))


def _factor_square(n: int) -> tuple[int, int]:
    """Write |n| = s^2 * r with r square-free over small primes; returns (s, r)."""
    n = abs(n)
    s = math.isqrt(n)
    if s * s == n:
        return s, 1
    s, r = 1, n
    p = 2
    while p * p <= r and p < 1000:
        while r % (p * p) == 0:
            r //= p * p
            s *= p
        p += 1 if p == 2 else 2
    return s, r


def _surd_form(num: int, sq: int, rad: int, den: int, plus: bool, imag: bool) -> str:
    """Readable exact form (num +- sq*sqrt(rad)[*i]) / den, gcd-reduced."""
    g = math.gcd(math.gcd(abs(num), abs(sq)), abs(den))
    num, sq, den = num // g, sq // g, den // g
    if den < 0:
        num, sq, den = -num, -sq, -den
    root = f"sqrt({rad})" + ("*i" if imag else "")
    root = root if sq == 1 else f"{sq}*{root}"
    sign = "+" if plus else "-"
    body = f"{num} {sign} {root}" if num else (root if plus else f"-{root}")
    return body if den == 1 else f"({body})/{den}"


def _closed_form_roots(fac: Sequence[int]) -> list[tuple[complex, str]]:
    """Exact roots of a degree-1 or degree-2 integer polynomial."""
    deg = len(fac) - 1
    if deg == 1:
        r = Fraction(-fac[0], fac[1])
        return [(complex(float(r), 0.0), str(r))]
    c0, c1, c2 = fac
    disc = c1 * c1 - 4 * c0 * c2
    if disc >= 0:
        s = math.isqrt(disc)
        if s * s == disc:
            r1 = Fraction(-c1 + s, 2 * c2)
            r2 = Fraction(-c1 - s, 2 * c2)
            return [(complex(float(r1), 0.0), str(r1)),
                    (complex(float(r2), 0.0), str(r2))]
        sq, rad = _factor_square(disc)
        root = math.sqrt(disc)
        return [
            (complex((-c1 + root) / (2 * c2), 0.0),
             _surd_form(-c1, sq, rad, 2 * c2, True, False)),
            (complex((-c1 - root) / (2 * c2), 0.0),
             _surd_form(-c1, sq, rad, 2 * c2, False, False)),
        ]
    sq, rad = _factor_square(-disc)
    re = -c1 / (2 * c2)
    im = math.sqrt(-disc) / (2 * c2)
    return [
        (complex(re, im), _surd_form(-c1, sq, rad, 2 * c2, True, True)),
        (complex(re, -im), _surd_form(-c1, sq, rad, 2 * c2, False, True)),
    ]


def _symmetrize(zs: list[complex], n_real: int) -> list[complex]:
    """Force exact conjugate closure given the exact count of real roots."""
    order = sorted(range(len(zs)), key=lambda i: abs(zs[i].imag))
    out: list[complex] = [complex(zs[i].real, 0.0) for i in order[:n_real]]
    rest = [zs[i] for i in order[n_real:]]
    upper = sorted((z for z in rest if z.imag > 0), key=lambda z: (z.real, z.imag))
    lower = sorted((z for z in rest if z.imag <= 0), key=lambda z: (z.real, -z.imag))
    used = [False] * len(lower)
    for z in upper:
        best, bestdist = None, None
        for j, w in enumerate(lower):
            if used[j]:
                continue
            dist = abs(w.conjugate() - z)
            if bestdist is None or dist < bestdist:
                best, bestdist = j, dist
        if best is not None and bestdist <= 1e-9 * (1 + abs(z)):
            used[best] = True
            avg = (z + lower[best].conjugate()) / 2
            out.extend([avg, avg.conjugate()])
        else:
            out.append(z)
    out.extend(w for j, w in enumerate(lower) if not used[j])
    return out


_FLOAT_RANGE = "pair counts too large for floating-point root finding"


def _factor_roots(factors: Sequence[Sequence[int]]) -> list:
    """For each square-free integer factor, its roots as (z, exact form or
    None) pairs, or the exception that stopped it.

    Degrees 1 and 2 are solved in closed form.  The factors of degree 3 or
    more go through Aberth-Ehrlich: `_aberth_rows` solves the bands it can
    sweep at once, and `_aberth_ehrlich` each factor it hands back, from the
    start or from its resume point.  Then the factors of one degree band
    (`_degree_bands`), padded with zeros to its largest degree, are
    polished together (`_newton_polish_rows`), and the factors of one length
    in the band go through each later step together, however few they are:
    the finiteness check; the real-root count by Weierstrass discs around
    the polished roots (`_disc_real_counts`, in chunks, on the finite rows
    whose coefficients are all below 2^53), and by a Sturm chain wherever
    the discs do not decide; and the conjugate symmetrization.  A factor
    whose float conversion overflows, or whose polished roots leave the
    float range, fails with ValueError; one whose Aberth does not converge,
    with its RootFindingError.
    """
    out: list = [None] * len(factors)
    floats: list = [None] * len(factors)  # the factors of degree 3 and up, as floats
    for i, fac in enumerate(factors):
        try:
            if len(fac) <= 3:  # degree 1 or 2
                out[i] = _closed_form_roots(fac)
            else:
                floats[i] = [float(x) for x in fac]
        except OverflowError:
            out[i] = ValueError(_FLOAT_RANGE)
    aberth = [i for i, fc in enumerate(floats) if fc is not None]
    found: list = [None] * len(factors)  # their Aberth roots
    for i, zs in zip(aberth, _aberth_rows([floats[i] for i in aberth])):
        try:
            found[i] = zs if isinstance(zs, list) else _aberth_ehrlich(floats[i], *zs)
        except OverflowError:
            out[i], floats[i] = ValueError(_FLOAT_RANGE), None
        except RootFindingError as exc:
            out[i], floats[i] = exc, None
    for band in _degree_bands([None if fc is None else len(fc) for fc in floats]):
        width = len(floats[band[-1]])
        padded = np.array([floats[i] + [0.0] * (width - len(floats[i])) for i in band])
        polished = _newton_polish_rows(padded, np.array(
            [found[i] + [0j] * (width - 1 - len(found[i])) for i in band], dtype=complex))
        at = 0
        for length, same in itertools.groupby(len(floats[i]) for i in band):
            run = slice(at, at + len(list(same)))
            at = run.stop
            members, c, z = band[run], padded[run, :length], polished[run, :length - 1]
            finite = np.isfinite(z).all(axis=1)
            counted = np.flatnonzero(finite & (np.abs(c) < 2.0 ** 53).all(axis=1))
            n_real = np.full(len(members), -1)
            with np.errstate(all="ignore"):
                for chunk in _chunks(len(counted), length - 1):
                    rows = counted[chunk]
                    n_real[rows] = _disc_real_counts(c[rows], z[rows])
            for i, zs, ok, n in zip(members, z.tolist(), finite.tolist(), n_real.tolist()):
                if not ok:
                    out[i] = ValueError(_FLOAT_RANGE)
                else:
                    n = n if n >= 0 else _count_real_roots(factors[i])
                    out[i] = [(w, None) for w in _symmetrize(zs, n)]
    return out


def roots(p: WienerPolynomial) -> tuple[ComplexRoot, ...]:
    """The nonzero Wiener roots (the roots of W/x): `roots_batch` of p alone."""
    return roots_batch([p])[0]


def roots_batch(ps: Sequence[WienerPolynomial], *,
                return_exceptions: bool = False) -> list:
    """The nonzero Wiener roots of each polynomial, exact where the degree permits.

    W/x of degree 0 has no roots, and one of degree above ROOTS_MAX_DEGREE
    raises ValueError before any iteration.  Every other W/x is split into
    square-free factors, so multiple roots are solved at their exact
    multiplicity: `_square_free_screen` certifies most rows square-free
    modulo SCREEN_PRIME, in one pass per length, and then the one factor is
    the primitive part of W/x, as the exact `_square_free_decomposition`
    finds; the other rows take that path.

    Two passes follow, each over groups however small.  The first:
    `_factor_roots` solves all the factors of all the polynomials together.
    A polynomial takes the failure of its first failing factor, in factor
    order.  The second runs over degree bands of W/x: `_residuals`
    evaluates each W/x at its roots by `_comp_horner_batch`.  A
    polynomial's roots do not depend on the others in its batch.

    Every root carries its residual on W/x: |W/x(z)| relative to
    max(d) * max(1, |z|)^deg.  Both the closed forms and the symmetrization
    emit a conjugate pair as z followed by exactly conj(z), and that pair is
    evaluated once.  For real coefficients, compensated Horner at conj(z) is
    the conjugate of compensated Horner at z, operation by operation and up
    to the sign of a zero: negating y negates its Veltkamp split, so every
    product and TwoSum term keeps or flips its sign exactly.  The modulus,
    and so the residual, is the same bit for bit.

    Pair counts too large for the float stage raise ValueError, and roots
    that do not converge or fail the residual threshold RootFindingError.
    When several polynomials fail, the first failing one in input order
    raises its exception; with return_exceptions, each failing polynomial
    gets its exception in its place in the list instead.
    """
    outcomes: list = [None] * len(ps)
    todo: list[int] = []
    for i, p in enumerate(ps):
        deg = len(p.d) - 1
        if deg == 0:
            outcomes[i] = ()
        elif deg > ROOTS_MAX_DEGREE:
            outcomes[i] = ValueError(f"roots are found for W/x of degree at most "
                                     f"{ROOTS_MAX_DEGREE}, not {deg}")
        else:
            todo.append(i)
    screened = _square_free_screen([ps[i].d for i in todo]).tolist()
    factors_of = [[(_primitive(ps[i].d), 1)] if square_free
                  else _square_free_decomposition(ps[i].d)
                  for i, square_free in zip(todo, screened)]
    found = iter(_factor_roots([fac for factors in factors_of for fac, _ in factors]))
    solved: list[tuple[int, list[tuple[complex, str | None, int]]]] = []
    for i, factors in zip(todo, factors_of):
        parts = [(next(found), mult) for _, mult in factors]
        failure = next((part for part, _ in parts if isinstance(part, Exception)), None)
        if failure is not None:
            outcomes[i] = failure
        else:
            solved.append((i, [(z, form, mult) for part, mult in parts for z, form in part]))
    residuals_of = _residuals([ps[i].d for i, _ in solved],
                              [[z for z, _, _ in entries] for _, entries in solved])
    for (i, entries), residuals in zip(solved, residuals_of):
        if residuals is None:
            outcomes[i] = ValueError(_FLOAT_RANGE)
            continue
        out: list[ComplexRoot] = []
        for (z, form, mult), residual in zip(entries, residuals):
            out.extend([ComplexRoot(z.real, z.imag, residual, form)] * mult)
        out.sort(key=lambda r: (r.re, r.im))
        worst = max(r.residual for r in out)
        if len(out) != len(ps[i].d) - 1:
            outcomes[i] = RootFindingError(
                "root count does not match the degree",
                [r.z for r in out], [r.residual for r in out])
        elif worst > RESIDUAL_THRESHOLD:
            outcomes[i] = RootFindingError(
                f"residual {worst:.3e} exceeds the acceptance threshold",
                [r.z for r in out], [r.residual for r in out])
        else:
            outcomes[i] = tuple(out)
    if not return_exceptions:
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
    return outcomes


def _residuals(dvecs: Sequence[Sequence[int]], zs_of: Sequence[Sequence[complex]]
               ) -> list[list[float] | None]:
    """For each W/x with pair counts dvecs[j], its residual at each of zs_of[j]:
    |W/x(z)| / (max(d) * max(1, |z|)^deg), or None where a float overflows.

    A z right after exactly conj of the z before it is the second of a
    conjugate pair and takes the residual of the first, unevaluated.  The
    scale is computed in Python floats.  |W/x(z)| comes from one
    `_comp_horner_batch` call over all the points of one degree band
    (`_degree_bands`), however few, and np.hypot, the libm hypot that
    abs(complex) calls; a value with finite parts and an infinite modulus,
    where abs(complex) would raise OverflowError, counts as an overflow.
    The band pads each W/x with zero coefficients above its degree.  At a
    finite point, every product of a zero is a zero and adding a zero to a
    nonzero value is exact, so each value is the unpadded one or, where
    that is a zero, a zero of either sign: hypot gives the same modulus.
    """
    points_of, shared_of, scales_of = [], [], []
    floats: list[list[float] | None] = []  # None where d leaves the float range
    for d, zs in zip(dvecs, zs_of):
        points: list[complex] = []  # the zs evaluated, in order
        shared: list[int] = []      # the point whose residual each z takes
        last = None
        for z in zs:
            if last is not None and z == last.conjugate():
                last = None
            else:
                points.append(z)
                last = z
            shared.append(len(points) - 1)
        points_of.append(points)
        shared_of.append(shared)
        try:
            cmax = max(d)  # pair counts are positive: the largest |coefficient|
            scales_of.append([cmax * max(1.0, abs(z)) ** (len(d) - 1) for z in points])
            floats.append([float(x) for x in d])
        except OverflowError:
            scales_of.append(None)
            floats.append(None)
    out: list = [None] * len(dvecs)
    for members in _degree_bands([None if f is None else len(f) for f in floats]):
        width = len(floats[members[-1]])
        rows = np.repeat([floats[j] + [0.0] * (width - len(floats[j])) for j in members],
                         [len(points_of[j]) for j in members], axis=0)
        zs = np.array([z for j in members for z in points_of[j]], dtype=complex)
        with np.errstate(all="ignore"):
            v = _comp_horner_batch(rows, zs)
            moduli = np.hypot(v.real, v.imag)
        overflow = (np.isinf(moduli) & np.isfinite(v.real) & np.isfinite(v.imag)).tolist()
        moduli = moduli.tolist()
        at = 0
        for j in members:
            end = at + len(points_of[j])
            if not any(overflow[at:end]):
                values = [m / scale for m, scale in zip(moduli[at:end], scales_of[j])]
                out[j] = [values[k] for k in shared_of[j]]
            at = end
    return out


def purely_imaginary_roots(p: WienerPolynomial) -> tuple[PurelyImaginaryRoot, ...]:
    """Exact detection of nonzero roots on the imaginary axis.

    Writing W/x = E(x^2) + x*O(x^2), a nonzero root ib requires t = -b^2 to
    be a common real root of E and O, hence a negative real root of the
    integer gcd of the two parts.  Those are isolated exactly with Sturm
    sequences; rational t values give exact radicals, the rest give
    certified intervals.
    """
    c = p.d
    even = list(c[0::2])
    odd = list(c[1::2])
    g = _int_poly_gcd(even, odd) if odd else _primitive(_trim(even))
    if len(g) <= 1:
        return ()
    hits: list[PurelyImaginaryRoot] = []
    for factor, _ in _square_free_decomposition(g):
        for found in _isolate_real_roots(factor):
            if isinstance(found, Fraction):
                if found < 0:
                    rad = -found
                    hits.append(PurelyImaginaryRoot(
                        math.sqrt(rad.numerator / rad.denominator), radicand=rad))
            else:
                lo, hi = found
                if hi < 0:
                    mid = -(lo + hi) / 2
                    hits.append(PurelyImaginaryRoot(
                        math.sqrt(mid.numerator / mid.denominator),
                        t_interval=(lo, hi)))
    hits.sort(key=lambda h: h.b)
    return tuple(hits)


# ---------------------------------------------------------------------------
# Batched screens over many distributions
# ---------------------------------------------------------------------------

# 2^31 - 1: residues stay below 2^31, so every product of two fits in int64.
SCREEN_PRIME = 2147483647


def _length_classes(seqs: Sequence[Sequence | None]) -> list[list[int]]:
    """The positions of the sequences of each length, in order, the lengths
    in order of first occurrence; a None entry is in no class."""
    classes: dict[int, list[int]] = {}
    for i, seq in enumerate(seqs):
        if seq is not None:
            classes.setdefault(len(seq), []).append(i)
    return list(classes.values())


def length_groups(dvecs: Sequence[Sequence[int]], modulus: int | None = None
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(positions in dvecs, int64 matrix of those vectors) for each vector length.

    With a modulus the matrices hold the coefficients reduced modulo it; a
    coefficient outside int64 is reduced in Python first, so none wraps.
    Without one, such a coefficient raises ValueError.
    """
    groups = []
    for positions in _length_classes(dvecs):
        rows = [dvecs[i] for i in positions]
        try:
            m = np.array(rows, dtype=np.int64)
        except OverflowError:
            if modulus is None:
                raise ValueError("a coefficient does not fit in int64") from None
            m = np.array([[x % modulus for x in row] for row in rows], dtype=np.int64)
        if modulus is not None:
            m %= modulus
        groups.append((np.array(positions), m))
    return groups


def _cancel_lead(f: np.ndarray, g: np.ndarray, q: int) -> np.ndarray:
    """lc(g)*f - lc(f)*x^s*g mod q, row by row, without its vanished leading
    column; rows hold coefficients leading first, and f is no shorter than g."""
    r = g[:, :1] * f[:, 1:]
    r[:, :g.shape[1] - 1] -= f[:, :1] * g[:, 1:]
    return r % q


def imaginary_axis_candidates(dvecs: Sequence[Sequence[int]]) -> list:
    """The vectors of dvecs that may have a nonzero purely imaginary root, in order.

    With W/x = E(x^2) + x*O(x^2), a root ib != 0 makes -b^2 a common root of
    E and O.  For each vector length, the pseudo-remainder sequence of E and
    O (Collins, J. ACM 14, 1967) runs modulo q = 2^31 - 1 on all the rows at
    once, in lockstep: each step cancels a leading column, as if every
    remainder lost exactly one degree.  Every row it forms is
    lc(g)*f - lc(f)*x^s*g for two earlier ones, so it lies in the ideal of E
    and O over GF(q), also where a remainder lost more.  A row is cleared
    only when lc(E) and lc(O) are nonzero mod q and the sequence ends in a
    nonzero constant: then gcd(E, O) = 1 mod q.  The integer gcd G divides
    E, so q does not divide lc(G) either, and G mod q has the degree of G and
    divides 1: G is constant, and the vector has no such root (Brown's
    modular gcd, J. ACM 18, 1971, used only as a certificate).  Every other
    vector is returned for the exact `purely_imaginary_roots`: length 1, a
    leading coefficient divisible by q, a sequence ending in zero, and so
    every vector whose parts do share a factor.
    """
    q = SCREEN_PRIME
    keep = np.ones(len(dvecs), dtype=bool)
    for positions, m in length_groups(dvecs, q):
        if m.shape[1] < 2:
            continue
        leading_first = m[:, ::-1]
        cleared = _coprime_mod(leading_first[:, 0::2], leading_first[:, 1::2], q)
        keep[positions[cleared]] = False
    return [dvec for dvec, kept in zip(dvecs, keep) if kept]


def _square_free_screen(dvecs: Sequence[Sequence[int]]) -> np.ndarray:
    """True for each vector d whose W/x is certified square-free modulo q.

    The lockstep sequence of `_coprime_mod` runs on W/x and its derivative
    modulo q = 2^31 - 1, on every length group, however small.  A row
    passes only when lc(W/x) and lc of the derivative are nonzero mod q and
    the sequence ends in a nonzero constant: then the integer gcd G of W/x
    and its derivative divides W/x, so q does not divide lc(G), and G mod q
    keeps the degree of G and divides 1.  G is constant and W/x is
    square-free.

    The rows it rejects are length-1 vectors, a leading coefficient that q
    divides, every W/x with a repeated factor, and square-free rows whose
    remainder sequence loses more than one degree in some step, as the
    paths (n - 1, ..., 1) with n >= 7 do: the lockstep cancels one column
    a step, so it meets a zero leading coefficient and ends in zero.  Such
    a drop is a property of the remainder sequence over the rationals, not
    of q: 2^31 - 1, 10^9 + 7 and 2^31 - 19 each reject the same 94 of the
    98 paths of orders 3..100, so more primes would certify none of these
    rows.  `roots_batch` sends the rejected rows to the exact
    `_square_free_decomposition`, Yun's loop on integer gcds, which decides
    each of them.
    """
    q = SCREEN_PRIME
    certified = np.zeros(len(dvecs), dtype=bool)
    for positions, m in length_groups(dvecs, q):
        length = m.shape[1]
        if length < 2:
            continue
        leading_first = m[:, ::-1]
        derivative = leading_first[:, :-1] * np.arange(length - 1, 0, -1) % q
        certified[positions[_coprime_mod(leading_first, derivative, q)]] = True
    return certified


def _coprime_mod(f: np.ndarray, g: np.ndarray, q: int) -> np.ndarray:
    """Rows where f and g have nonzero leading coefficients mod q and their
    lockstep pseudo-remainder sequence ends in a nonzero constant, which
    certifies gcd(f, g) = 1 over GF(q).

    Rows hold coefficients mod q, leading first, and f is no shorter than g.
    Each step cancels a leading column with `_cancel_lead`, as if every
    remainder lost exactly one degree; every row formed lies in the ideal of
    f and g over GF(q), also where a remainder lost more, so a nonzero
    constant at the end is a unit of that ideal.
    """
    ok = (f[:, 0] != 0) & (g[:, 0] != 0)
    while g.shape[1] > 1:
        r = f
        while r.shape[1] >= g.shape[1]:
            r = _cancel_lead(r, g, q)
        f, g = g, r
    return ok & (g[:, 0] != 0)


_UNIT_ROUNDOFF = 2.0 ** -53


def _gamma(k: int) -> float:
    """Higham's gamma_k = k*u / (1 - k*u), u the unit roundoff of binary64."""
    return k * _UNIT_ROUNDOFF / (1 - k * _UNIT_ROUNDOFF)


def root_discs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified inclusion discs for the roots of every row of one length group.

    Each row of the int64 matrix m (from `length_groups`) holds the pair
    counts d_1..d_D of p = d_1 + d_2 x + ... + d_D x^k, k = D - 1 >= 1.
    Returns (centres, radii), both rows x k: every root of a row's p lies in
    the union of the discs |z - z_i| <= r_i.

    The centres z_i are `numpy.linalg.eigvals` of the stacked companion
    matrices, which is backward stable (Edelman & Murakami, Math. Comp. 64,
    1995), and the radii are `_weierstrass_radii`.  A row whose discs cannot
    be certified gets inf for every radius: a coefficient below 1 or of 2^53
    or more (the float conversion would not be exact), a row the radii
    reject, or eigvals failing on its chunk.  The rows are solved in chunks,
    so the rows x k x k difference array stays near 2^18 entries.
    """
    rows, k = m.shape[0], m.shape[1] - 1
    if k < 1:
        raise ValueError("root discs need vectors of length 2 or more")
    centres = np.empty((rows, k), dtype=complex)
    radii = np.empty((rows, k))
    with np.errstate(all="ignore"):
        for chunk in _chunks(rows, k):
            centres[chunk], radii[chunk] = _chunk_discs(m[chunk])
    return centres, radii


def _chunks(rows: int, k: int) -> list[slice]:
    """Slices of rows whose rows x k x k arrays stay near 2^18 entries."""
    step = max(1, (1 << 18) // (k * k))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _chunk_discs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`root_discs` on one chunk of rows."""
    rows, k = m.shape[0], m.shape[1] - 1
    exact = ((m >= 1) & (m < 2 ** 53)).all(axis=1)
    c = np.where(exact[:, None], m, 1).astype(float)
    companion = np.zeros((rows, k, k))
    companion[:, 0, :] = -c[:, k - 1::-1] / c[:, k:]
    companion[:, np.arange(1, k), np.arange(k - 1)] = 1.0
    try:
        z = np.linalg.eigvals(companion).astype(complex)
    except np.linalg.LinAlgError:
        return np.zeros((rows, k), dtype=complex), np.full((rows, k), np.inf)
    radii = _weierstrass_radii(c, z)
    ok = exact & np.isfinite(radii).all(axis=1)
    return np.where(ok[:, None], z, 0), np.where(ok[:, None], radii, np.inf)


def _weierstrass_radii(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Upper bounds on the Weierstrass inclusion radii around the centres z.

    Row i of c holds the coefficients of p = c_0 + c_1 x + ... + c_k x^k,
    low degree first, as floats equal to the integers they stand for, with
    c_0 != 0; row i of z holds k centres.  With the Weierstrass corrections
    w_i = p(z_i) / (c_k prod_{j != i} (z_i - z_j)), the roots of p are the
    eigenvalues of diag(z) - w 1^T, so by Gershgorin they lie in the union of
    the discs |z - z_i| <= k|w_i|, and a union of m of these discs that
    meets no other disc holds exactly m roots (Braess & Hadeler, Numer.
    Math. 21, 1973; Neumaier, J. Comput. Appl. Math. 156, 2003).

    The radii bound k|w_i| from above in floating point: |p(z_i)| is the
    complex Horner value plus the a-priori bound gamma_4k sum |c_j| |z_i|^j
    on its error (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sections 3.6 and 5.1: each step is one complex product, within
    sqrt(2) gamma_2, and one sum), and a final factor 1 + gamma_(8k+16)
    covers every other rounding: |z_i|, the sum bound, the differences and
    their product, the quotient.  The sum bound is at least |c_0| >= 1, so
    underflow in the evaluation stays far below it; the product of the
    differences is used only when the smallest difference to the power
    k - 1 is above 2^-1000, so it never underflows.  A row with coinciding
    centres, a non-finite product or a NaN gets inf for every radius.
    """
    k = z.shape[1]
    az = np.abs(z)
    value = np.broadcast_to(c[:, k:], z.shape).astype(complex)
    bound = np.abs(np.broadcast_to(c[:, k:], z.shape))
    for j in range(k - 1, -1, -1):
        value = value * z + c[:, j:j + 1]
        bound = bound * az + np.abs(c[:, j:j + 1])
    gaps = np.abs(z[:, :, None] - z[:, None, :])
    gaps[:, np.arange(k), np.arange(k)] = 1.0
    smallest = gaps.min(axis=(1, 2)) ** (k - 1)
    product = np.abs(c[:, k:]) * gaps.prod(axis=2)
    radii = (k * (np.abs(value) + _gamma(4 * k) * bound) / product
             * (1 + _gamma(8 * k + 16)))
    ok = ((smallest > 2.0 ** -1000) & np.isfinite(product).all(axis=1)
          & np.isfinite(z).all(axis=1) & np.isfinite(radii).all(axis=1))
    return np.where(ok[:, None], radii, np.inf)


# A disc test compares distances computed in floating point with sums of
# radii; this relative margin, and the absolute one for underflow, are far
# wider than the rounding of either side.
_DISC_MARGIN = 1 + 2.0 ** -40
_DISC_FLOOR = 2.0 ** -1000


def _disc_real_counts(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The number of real roots of each row's polynomial, decided by the
    Weierstrass discs around z (`_weierstrass_radii`), or -1 where they do
    not decide it.

    When the discs are pairwise disjoint, each holds exactly one root.  A
    disc that misses the real axis then holds a nonreal root.  For a disc
    that touches it, the conjugate of its root is also a root, inside the
    mirror image of the disc; when that mirror image meets no other disc,
    the conjugate lies in the disc itself, so it is the same root, and real.
    A row whose discs all pass these tests has exactly as many real roots as
    discs that touch the axis.  The radii and the touching test are widened
    by _DISC_MARGIN and _DISC_FLOOR, so every float comparison errs toward
    -1, or toward checking one more mirror image.
    """
    reach = _weierstrass_radii(c, z) * _DISC_MARGIN + _DISC_FLOOR
    k = z.shape[1]
    pair = reach[:, :, None] + reach[:, None, :]
    pair[:, np.arange(k), np.arange(k)] = -np.inf  # a disc never fails against itself
    apart = (np.abs(z[:, :, None] - z[:, None, :]) > pair).all(axis=(1, 2))
    clear_of_mirrors = (np.abs(z[:, :, None] - z[:, None, :].conj()) > pair).all(axis=2)
    touching = np.abs(z.imag) <= reach
    decided = apart & (clear_of_mirrors | ~touching).all(axis=1)
    return np.where(decided, touching.sum(axis=1), -1)


def _comp_horner_batch(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Compensated Horner evaluation of every row i of the float matrix c,
    the coefficients low degree first, at the point z[i].

    Error-free transforms (Knuth's TwoSum, Dekker's TwoProduct with
    Veltkamp splitting) capture the rounding error of every multiply and
    add; the error polynomial is accumulated to first order alongside the
    main recurrence, giving results accurate as if computed in doubled
    precision.  The transforms are written out inline, and the splits of
    z.real and z.imag are taken once, outside the loop.  numpy rounds each
    elementwise add, subtract and multiply to nearest as Python floats do,
    and never fuses a multiply with an add, so each row gets the bits of
    the same recurrence in Python floats, however many rows there are.
    """
    x, y = z.real.copy(), z.imag.copy()
    t = _SPLITTER * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLITTER * y
    yh = t - (t - y)
    yl = y - yh
    sr, si = c[:, -1].copy(), np.zeros(len(z))
    er, ei = np.zeros(len(z)), np.zeros(len(z))
    for k in range(c.shape[1] - 2, -1, -1):
        t = _SPLITTER * sr
        rh = t - (t - sr)
        rl = sr - rh
        t = _SPLITTER * si
        ih = t - (t - si)
        il = si - ih
        p1 = sr * x
        d1 = ((rh * xh - p1) + rh * xl + rl * xh) + rl * xl
        p2 = si * y
        d2 = ((ih * yh - p2) + ih * yl + il * yh) + il * yl
        p3 = sr * y
        d3 = ((rh * yh - p3) + rh * yl + rl * yh) + rl * yl
        p4 = si * x
        d4 = ((ih * xh - p4) + ih * xl + il * xh) + il * xl
        m = -p2
        tr = p1 + m
        t = tr - p1
        f1 = (p1 - (tr - t)) + (m - t)
        ti = p3 + p4
        t = ti - p3
        f2 = (p3 - (ti - t)) + (p4 - t)
        a = c[:, k]
        nr = tr + a
        t = nr - tr
        g1 = (tr - (nr - t)) + (a - t)
        er, ei = (er * x - ei * y + (d1 - d2 + f1 + g1),
                  er * y + ei * x + (d3 + d4 + f2))
        sr, si = nr, ti
    out = np.empty(len(z), dtype=complex)
    out.real = sr + er
    out.imag = si + ei
    return out
