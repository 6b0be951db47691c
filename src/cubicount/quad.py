"""Quadratic orders O_D for every discriminant D = 0, 1 mod 4 and their
ideal theory, in exact integer arithmetic.

One uniform generator handles all cases (maximal, non-maximal, real,
imaginary, and split orders inside Z x Z): O_D = Z[xi] with

    xi^2 = r*xi - (r^2 - D)/4,   r = D mod 2,

so an element x + y*xi has norm x^2 + r*x*y + ((r^2 - D)/4) y^2 and
conjugate (x + r*y) - y*xi.  Ideals are stored in the triangular normal
form <g*a, g*(b + xi)> with 0 <= b < a and a | N(b + xi), read off the
integer Hermite normal form `hnf2` of any generating set (the bridge
lattices in Q(sqrt D) share that kernel).

An invertible ideal <a, b + xi> has the primitive binary quadratic form
(a, 2b + r, N(b + xi)/a) of discriminant D, and its Picard class is read
from the reduction theory of that form as an exact class key: the reduced
form for D < 0, the least form on the rho-cycle of reduced forms (over both
orientations, as Pic is the wide class group) for D > 0 not a square, and
(0, m, +-c mod m) for D = m^2.  The Picard group is computed by keying the
primitive invertible ideals up to a norm bound that reaches every class;
the first ideal of each key is the class representative.  The exact
principality search `is_principal` (elements of a given norm, normalized by
the fundamental unit in the real case) is not used to separate classes; it
stays as the independent oracle the class keys are tested against.
Characters with values in Z/3, their conductors, and the extension maps
between orders of the same fundamental discriminant are built on top of the
group table.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt
from types import MappingProxyType
from typing import NamedTuple

from .forms import BudgetExceeded, InvariantError


def in_discs(n: int) -> bool:
    """Membership in (4Z \\ 0) + (1 + 4Z), the possible nonzero discriminants."""
    return n != 0 and n % 4 in (0, 1)


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def factorize(n: int):
    n = abs(n)
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int):
    """The positive divisors of n >= 1, in increasing order."""
    small, large = [], []
    k = 1
    while k * k < n:
        if n % k == 0:
            small.append(k)
            large.append(n // k)
        k += 1
    if k * k == n:
        small.append(k)
    return small + large[::-1]


def xgcd(a: int, b: int):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def hnf2(vecs):
    """Hermite normal form (a, b, c) of the full-rank lattice in Z^2
    spanned by the integer pairs vecs: the rows (a, 0) and (b, c) with
    a, c > 0 and 0 <= b < a (Cohen, GTM 138, §2.4), so equal lattices give
    equal triples.  Raises ValueError if the rank is below 2."""
    a = b = c = 0
    for x, y in vecs:
        if c and y % c == 0:
            # (x, y) - (y/c)(b, c) lies on the first axis
            a = gcd(a, x - (y // c) * b)
        elif y:
            # unimodular change of the rows (b, c), (x, y) into a new pivot
            # row (s b + t x, g) and a vector on the first axis
            g, s, t = xgcd(c, y)
            a = gcd(a, (c * x - y * b) // g)
            b, c = s * b + t * x, g
        else:
            a = gcd(a, x)
        if a:
            b %= a
    if not (a and c):
        raise ValueError("rank-deficient lattice")
    return a, b, c


def fundamental_part(D: int):
    """D = D0 * f^2 with D0 a fundamental discriminant; returns (D0, f)."""
    if not in_discs(D):
        raise ValueError("%d is not a discriminant" % D)
    fmax = 1
    for p, e in factorize(D).items():
        fmax *= p ** (e // 2)
    for f in reversed(divisors(fmax)):
        if is_fundamental(D // (f * f)):
            return D // (f * f), f
    raise AssertionError("no fundamental decomposition for %d" % D)


def is_fundamental(D: int) -> bool:
    if not in_discs(D):
        return False
    if D % 4 == 1:
        return all(e == 1 for e in factorize(D).values())
    q = D // 4
    if q % 4 == 1:
        return False
    return all(e == 1 for p, e in factorize(q).items() if p != 2) and q % 4 in (2, 3)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


class QuadOrder(NamedTuple):
    D: int

    @property
    def r(self) -> int:
        return self.D % 2

    @property
    def xi_norm(self) -> int:
        return (self.r * self.r - self.D) // 4

    @property
    def fundamental_discriminant(self) -> int:
        return fundamental_part(self.D)[0]

    @property
    def conductor(self) -> int:
        return fundamental_part(self.D)[1]

    # elements are pairs (x, y) meaning x + y*xi
    def norm(self, el) -> int:
        x, y = el
        return x * x + self.r * x * y + self.xi_norm * y * y

    def trace(self, el) -> int:
        x, y = el
        return 2 * x + self.r * y

    def conj(self, el):
        x, y = el
        return (x + self.r * y, -y)

    def mul(self, u, v):
        x1, y1 = u
        x2, y2 = v
        # xi^2 = r xi - n
        return (
            x1 * x2 - self.xi_norm * y1 * y2,
            x1 * y2 + x2 * y1 + self.r * y1 * y2,
        )


def order(D: int) -> QuadOrder:
    if not in_discs(D):
        raise ValueError("%d not congruent to 0 or 1 mod 4 (or zero)" % D)
    return QuadOrder(D)


class QuadIdeal(NamedTuple):
    """Full lattice <g*a, g*(b + xi)> inside O_D, 0 <= b < a."""

    D: int
    g: int
    a: int
    b: int

    @property
    def norm(self) -> int:
        return self.g * self.g * self.a

    @property
    def order(self) -> QuadOrder:
        return QuadOrder(self.D)

    def __str__(self):
        return "%d,%d,%d@%d" % (self.g, self.a, self.b, self.D)

    @classmethod
    def parse(cls, text: str) -> "QuadIdeal":
        left, D = text.split("@")
        g, a, b = (int(t) for t in left.split(","))
        return make_ideal(int(D), g, a, b)

    def generators(self):
        return [(self.g * self.a, 0), (self.g * self.b, self.g)]

    def contains(self, el) -> bool:
        x, y = el
        if y % self.g:
            return False
        k = y // self.g
        rem = x - k * self.g * self.b
        return rem % (self.g * self.a) == 0

    def conj(self) -> "QuadIdeal":
        o = self.order
        gens = [o.conj(v) for v in self.generators()]
        return ideal_from_generators(self.D, gens)

    def mul(self, other: "QuadIdeal") -> "QuadIdeal":
        if self.D != other.D:
            raise ValueError("ideals of different orders")
        o = self.order
        gens = [
            o.mul(u, v) for u in self.generators() for v in other.generators()
        ]
        return ideal_from_generators(self.D, gens)

    def scale(self, k: int) -> "QuadIdeal":
        return QuadIdeal(self.D, self.g * k, self.a, self.b)

    def primitive_part(self) -> "QuadIdeal":
        return QuadIdeal(self.D, 1, self.a, self.b)


def make_ideal(D: int, g: int, a: int, b: int) -> QuadIdeal:
    o = order(D)
    if g < 1 or a < 1 or not 0 <= b < a:
        raise ValueError("bad normal form")
    if o.norm((b, 1)) % a:
        raise ValueError("lattice not an ideal: a must divide N(b + xi)")
    return QuadIdeal(D, g, a, b)


def ideal_from_generators(D: int, gens) -> QuadIdeal:
    """Hermite-reduce a generating set (pairs (x, y)) of a full-rank
    xi-stable lattice into the normal form."""
    o = order(D)
    # close under multiplication by xi so arbitrary generating sets work
    ax, bx, g = hnf2(list(gens) + [o.mul((0, 1), v) for v in gens])
    if ax % g:
        raise InvariantError("lattice is not an O-ideal (g does not divide a)")
    a = ax // g
    return make_ideal(D, g, a, (bx // g) % a)


def unit_ideal(D: int) -> QuadIdeal:
    return make_ideal(D, 1, 1, 0)


def is_invertible(I: QuadIdeal) -> bool:
    """I * conj(I) = N(I) * O_D, checked on normal forms."""
    prod = I.mul(I.conj())
    n = I.norm
    return prod == QuadIdeal(I.D, n, 1, 0)


def ideal_form_coefficients(I: QuadIdeal):
    """The (t, s, r) coefficient triple of the primitive part: (a, 2b + r,
    N(b + xi)/a); the ideal is invertible iff gcd = 1."""
    o = I.order
    t = I.a
    s = 2 * I.b + o.r
    r = o.norm((I.b, 1)) // I.a
    return t, s, r


def ideals_of_norm(D: int, n: int, invertible_only: bool = False, max_norm: int = 10 ** 7):
    """All index-n sublattices of O_D stable under multiplication by xi."""
    if n < 1:
        raise ValueError("norm must be positive")
    if n > max_norm:
        raise BudgetExceeded("ideal norm %d over budget" % n)
    o = order(D)
    r, nu = o.r, o.xi_norm
    out = []
    g = 1
    while g * g <= n:
        if n % (g * g) == 0:
            a = n // (g * g)
            for b in range(a):
                c, rem = divmod(b * (b + r) + nu, a)  # N(b + xi) / a
                # invertible iff the form (a, 2b + r, c) is primitive
                if rem or (invertible_only and gcd(gcd(a, 2 * b + r), c) != 1):
                    continue
                out.append(QuadIdeal(D, g, a, b))
        g += 1
    return out


# ---------------------------------------------------------------------------
# Units

def _pell_min_unit(N: int):
    """Least (x, y), x, y > 0, with x^2 - N y^2 = +-1, by the continued
    fraction of sqrt(N); N positive nonsquare."""
    a0 = isqrt(N)
    m, d, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    for _ in range(10 ** 7):
        if p * p - N * q * q in (1, -1):
            return p, q
        m = d * a - m
        d = (N - m * m) // d
        a = (a0 + m) // d
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    raise RuntimeError("Pell expansion did not close for N=%d" % N)


def fundamental_unit(D: int):
    """Generator of the infinite part of O_D^x as an element (x, y) in the
    (1, xi) basis, minimal > 1 in the real embedding; D positive nonsquare."""
    if D <= 0 or is_square(D) or not in_discs(D):
        raise ValueError("need a positive non-square discriminant")
    if D % 4 == 0:
        # xi = sqrt(D)/2, so the +-1 Pell solution for D/4 is the unit
        return _pell_min_unit(D // 4)
    # odd D: minimal (t, u) with t^2 - D u^2 = +-4; either twice a +-1
    # solution or an odd solution whose cube is the +-1 solution
    x1, y1 = _pell_min_unit(D)
    u = 1
    while u * (D * u * u - 3) <= 2 * y1:
        for sgn in (4, -4):
            tt = D * u * u + sgn
            if tt > 0 and is_square(tt):
                t = isqrt(tt)
                if t % 2 == 1 and u % 2 == 1:
                    # ((t + u sqrt D)/2)^3 must equal x1 + y1 sqrt D
                    if (
                        u * (3 * t * t + u * u * D) == 8 * y1
                        and t * (t * t + 3 * u * u * D) == 8 * x1
                    ):
                        return ((t - u) // 2, u)
        u += 2
    return _embed_even(D, x1, y1)


def _embed_even(D, x1, y1):
    # x1 + y1*sqrt(D) as (x, y) in basis (1, xi), xi = (1 + sqrt(D))/2
    assert D % 2 == 1
    return (x1 - y1, 2 * y1)


@lru_cache(maxsize=None)
def _unit_upper_bound(D: int):
    """Integer upper bound for the real embedding of the fundamental unit."""
    x, y = fundamental_unit(D)
    r = D % 2
    # value = x + y*(r + sqrt(D))/2 <= x + y*(r + isqrt(D) + 1)/2
    return x + (y * (r + isqrt(D) + 1) + 1) // 2 + 1


@lru_cache(maxsize=100000)
def elements_of_norm(D: int, n: int):
    """All (x, y) in O_D with |N| = n, modulo units: complete set such that
    every solution is a unit times a listed one.  n >= 1.  Cached: the
    class-group construction asks for the same (D, n) many times."""
    o = order(D)
    out = []
    if D < 0:
        ybound = isqrt(4 * n // (-D)) + 1
        for y in range(-ybound, ybound + 1):
            out += _solve_x(o, y, n)
    elif is_square(D):
        m = isqrt(D)
        r = D % 2
        for k in divisors(n):
            for l1, l2 in ((k, n // k), (k, -(n // k)), (-k, n // k), (-k, -(n // k))):
                # lambda has split-algebra coordinates (l1, l2), |l1*l2| = n
                num = l1 - l2
                if num % m:
                    continue
                y = num // m
                x2 = l1 + l2 - y * r
                if x2 % 2:
                    continue
                out.append((x2 // 2, y))
    else:
        eps = _unit_upper_bound(D)
        # window: |lambda| <= sqrt(n * eps); y = (l - lbar)/sqrt(D)
        ybound = isqrt(4 * n * eps // D) + 2
        for y in range(-ybound, ybound + 1):
            out += _solve_x(o, y, n)
    return tuple(sorted(set(out)))


def _solve_x(o, y, n):
    """x with x^2 + r x y + nu y^2 = +-n."""
    out = []
    r, nu = o.r, o.xi_norm
    for target in (n, -n):
        # x^2 + (r y) x + (nu y^2 - target) = 0
        dd = r * r * y * y - 4 * (nu * y * y - target)
        if dd < 0 or not is_square(dd):
            continue
        sq = isqrt(dd)
        for sgn in (sq, -sq):
            num = -r * y + sgn
            if num % 2 == 0:
                out.append((num // 2, y))
    return out


def is_principal(I: QuadIdeal):
    """(flag, witness): witness lambda = (x, y) with I = lambda * O_D.
    Requires I invertible.  An exhaustive element search, independent of
    the class keys; tests use it as the reference for them."""
    if not is_invertible(I):
        raise ValueError("principality test wants an invertible ideal")
    o = I.order
    n = I.norm
    for el in elements_of_norm(I.D, n):
        if I.contains(el):
            # (el) has index |N(el)| = n = N(I), and (el) subset I, so equal
            return True, el
    return False, None


def unit_cube_classes(D: int) -> int:
    """|O_D^x / (O_D^x)^3|: 3 when D = -3 or D is a positive non-square,
    else 1."""
    if not in_discs(D):
        raise ValueError("not a discriminant")
    if D == -3 or (D > 0 and not is_square(D)):
        return 3
    return 1


# ---------------------------------------------------------------------------
# Class keys from reduced binary quadratic forms

def class_key(I: QuadIdeal):
    """Exact invariant of the Picard class of an invertible ideal: two
    invertible ideals of O_D have the same key iff their quotient is
    principal.  Read from the form (t, s, r) of the primitive part:

    D < 0: the reduced form (Gauss);
    D > 0 not a square: the least reduced form on the rho-cycle of (t, s, r)
      or of (-t, s, -r), whichever is smaller -- a generator of negative
      norm reverses the orientation, so the wide class is the union of the
      two proper classes;
    D = m^2: (0, m, c) with 0 <= c < m the least of the two residues +-c
      of the forms (0, m, c) properly equivalent to (t, s, r).

    ValueError if I is not invertible, i.e. (t, s, r) is not primitive."""
    t, s, r = ideal_form_coefficients(I)
    if gcd(gcd(t, s), r) != 1:
        raise ValueError("non-invertible ideal has no Picard class")
    D = I.D
    if D < 0:
        return _reduce_definite(t, s, r)
    m = isqrt(D)
    if m * m == D:
        c = _split_residue(m, t, s, r)
        return 0, m, min(c, -c % m)
    return min(_least_on_cycle(D, m, t, s, r), _least_on_cycle(D, m, -t, s, -r))


def _reduce_definite(a, b, c):
    """The reduced form properly equivalent to the positive definite form
    (a, b, c): |b| <= a <= c, and b >= 0 if |b| = a or a = c."""
    while True:
        if not -a < b <= a:
            k = (a - b) // (2 * a)  # x -> x + k y puts b into (-a, a]
            b, c = b + 2 * a * k, a * k * k + b * k + c
        if a > c:
            a, b, c = c, -b, a  # (x, y) -> (-y, x)
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


def _rho(D, sq, a, b, c):
    """The reduction operator on indefinite forms of non-square
    discriminant D (Cohen, GTM 138, Def. 5.6.4), sq = isqrt(D): the image of
    (a, b, c) under (x, y) -> (-y, x + k y) whose middle coefficient
    r = -b mod 2|c| lies in (-|c|, |c|] if c^2 > D, else in
    (sqrt D - 2|c|, sqrt D)."""
    w = 2 * abs(c)
    top = abs(c) if c * c > D else sq
    r = top - (top + b) % w
    return c, r, (r * r - D) // (4 * c)


def _is_reduced_indefinite(D, sq, a, b):
    """|sqrt D - 2|a|| < b < sqrt D, in integers (sqrt D is irrational)."""
    a2 = 2 * abs(a)
    return 0 < b <= sq and (a2 + b) ** 2 > D and (a2 <= b or (a2 - b) ** 2 < D)


def _least_on_cycle(D, sq, a, b, c):
    """The least reduced form properly equivalent to (a, b, c): rho carries
    every form to a reduced one, and the reduced forms of one proper class
    are exactly one rho-cycle (Buchmann & Vollmer, Binary Quadratic Forms,
    ch. 6)."""
    f = (a, b, c)
    while not _is_reduced_indefinite(D, sq, f[0], f[1]):
        f = _rho(D, sq, *f)
    least = start = f
    f = _rho(D, sq, *f)
    while f != start:
        least = min(least, f)
        f = _rho(D, sq, *f)
    return least


def _split_residue(m, a, b, c):
    """The c0, 0 <= c0 < m, with (0, m, c0) properly equivalent to the
    primitive form (a, b, c) of discriminant m^2.  No two of these forms
    are equivalent: a transformation between them fixes the zero (1, 0)."""
    if a:
        # move the primitive zero (p, q) of the form to (1, 0) by the
        # matrix (p u; q v) of determinant 1
        p, q = m - b, 2 * a
        g = gcd(p, q)
        p, q = p // g, q // g
        v = pow(p, -1, abs(q)) if abs(q) > 1 else 0
        u = (p * v - 1) // q
        a, b, c = 0, 2 * a * p * u + b * (p * v + q * u) + 2 * c * q * v, a * u * u + b * u * v + c * v * v
    if b == m:
        return c % m
    # (0, -m, c) goes to (0, m, v) under (c u; m v), c v - u m = 1
    return pow(c, -1, m)


# ---------------------------------------------------------------------------
# Picard groups

class PicGroup:
    """Finite abelian group of invertible ideal classes of O_D.

    reps: canonical primitive invertible ideals, identity first.
    table[i][j]: index of the product class.
    coprime_reps: per class, a representative of norm coprime to the
    conductor (needed for extension maps between orders).
    index: class key -> class index.

    Groups are cached and shared by every caller, so all four are stored
    read-only: tuples, a tuple of tuples and a mapping proxy."""

    def __init__(self, D, reps, table, coprime_reps, index):
        self.D = D
        self.reps = tuple(reps)
        self.table = tuple(tuple(row) for row in table)
        self.coprime_reps = tuple(coprime_reps)
        self.index = MappingProxyType(index)

    def __len__(self):
        return len(self.reps)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def power(self, i: int, n: int) -> int:
        out = 0
        for _ in range(n):
            out = self.mul(out, i)
        return out

    def inverse(self, i: int) -> int:
        row = self.table[i]
        return row.index(0)

    def class_of(self, I: QuadIdeal) -> int:
        if I.D != self.D:
            raise ValueError("ideal of a different order")
        return _classify(self.index, I)

    def cube_classes(self):
        return sorted({self.power(i, 3) for i in range(len(self))})

    def three_torsion(self) -> int:
        return sum(1 for i in range(len(self)) if self.power(i, 3) == 0)

    def element_order(self, i: int) -> int:
        n, j = 1, i
        while j != 0:
            j = self.mul(j, i)
            n += 1
        return n

    def is_cube(self, i: int) -> bool:
        return i in self.cube_classes()


def _pic_bound(D: int) -> int:
    return max(6, 2 * (isqrt(abs(D)) + 1))


def picard_group(D: int, bound: int | None = None) -> PicGroup:
    """Pic(O_D) from the primitive invertible ideals of norm <= bound
    (default _pic_bound(D)), one representative per class key: the first
    ideal of the key in order of norm, then b.  The budget is checked on
    every call, also when the group is cached."""
    from .counting import disc_budget

    if abs(D) > disc_budget():
        raise BudgetExceeded("|D| = %d over budget" % abs(D))
    return _picard_group(D, _pic_bound(D) if bound is None else bound)


@lru_cache(maxsize=None)
def _picard_group(D: int, bound: int) -> PicGroup:
    # every class holds a primitive ideal of norm <= sqrt(|D|/3) (D < 0),
    # < sqrt(D) (D > 0 not a square) or < m (D = m^2): the first
    # coefficient of a reduced form, or c in (c, -m, 0) ~ (0, m, c)
    if bound < isqrt(abs(D)):
        raise ValueError("norm bound %d does not reach every class of D=%d" % (bound, D))
    reps = [unit_ideal(D)]
    index = {class_key(reps[0]): 0}
    for n in range(1, bound + 1):
        for I in ideals_of_norm(D, n, invertible_only=True):
            if I.g == 1:
                key = class_key(I)
                if key not in index:
                    index[key] = len(reps)
                    reps.append(I)
    n = len(reps)
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            table[i][j] = table[j][i] = _classify(index, reps[i].mul(reps[j]))
    coprime = _coprime_reps(D, reps, index, order(D).conductor)
    return PicGroup(D, reps, table, coprime, index)


def _classify(index, I):
    try:
        return index[class_key(I)]
    except KeyError:
        raise InvariantError("class list incomplete for D=%d" % I.D) from None


def _coprime_reps(D, reps, index, f):
    """Per class, the first primitive invertible ideal of norm coprime to
    the conductor f (norm, then b): the rep itself when its norm is."""
    out = [R if gcd(R.norm, f) == 1 else None for R in reps]
    missing = out.count(None)
    for n in range(1, 20 * _pic_bound(D)):
        if not missing:
            return out
        if gcd(n, f) != 1:
            continue
        for I in ideals_of_norm(D, n, invertible_only=True):
            if I.g > 1:
                continue
            i = _classify(index, I)
            if out[i] is None:
                out[i] = I
                missing -= 1
    if missing:
        raise InvariantError("no conductor-coprime representative found")
    return out


def pic_3_torsion(D: int) -> int:
    t = picard_group(D).three_torsion()
    if t not in (1, 3, 9, 27, 81):
        raise InvariantError("|Pic(O_%d)[3]| = %d is not a small power of 3" % (D, t))
    return t


def is_cube_class(I: QuadIdeal) -> bool:
    G = picard_group(I.D)
    return G.is_cube(G.class_of(I))


class Mu3Char(NamedTuple):
    """Homomorphism Pic(O_D) -> Z/3, stored as the value on every class."""

    D: int
    values: tuple

    def __call__(self, arg) -> int:
        if isinstance(arg, QuadIdeal):
            return self.values[picard_group(self.D).class_of(arg)]
        return self.values[arg]

    @property
    def is_trivial(self) -> bool:
        return not any(self.values)


def mu3_characters(D: int):
    """All homomorphisms Pic(O_D) -> Z/3; their number is |Pic[3]|."""
    G = picard_group(D)
    n = len(G)
    chars = [{0: 0}]
    for i in range(n):
        new_chars = []
        for ch in chars:
            if i in ch:
                new_chars.append(ch)
                continue
            ordi = G.element_order(i)
            allowed = (0, 1, 2) if ordi % 3 == 0 else (0,)
            for v in allowed:
                ext = _extend_char(G, ch, i, v)
                if ext is not None:
                    new_chars.append(ext)
        chars = new_chars
    out = []
    seen = set()
    for ch in chars:
        vals = tuple(ch[i] for i in range(n))
        if vals not in seen:
            seen.add(vals)
            out.append(Mu3Char(D, vals))
    out.sort(key=lambda c: c.values)
    if len(out) != G.three_torsion():
        raise InvariantError("%d cubic characters but |Pic(O_%d)[3]| = %d" % (len(out), D, G.three_torsion()))
    return out


def _extend_char(G, ch, i, v):
    """Extend a partial character by chi(i) = v; close under the group law;
    None on contradiction."""
    ext = dict(ch)
    ext[i] = v
    changed = True
    while changed:
        changed = False
        items = list(ext.items())
        for (x, vx) in items:
            for (y, vy) in items:
                z = G.mul(x, y)
                vz = (vx + vy) % 3
                if z in ext:
                    if ext[z] != vz:
                        return None
                else:
                    ext[z] = vz
                    changed = True
    return ext


def order_change_map(D0: int, from_f: int, to_f: int):
    """Class map Pic(O_{D0 from_f^2}) -> Pic(O_{D0 to_f^2}) induced by
    extending ideals, as a list over class indices; requires to_f | from_f."""
    if from_f % to_f:
        raise ValueError("target conductor must divide the source conductor")
    Dfrom = D0 * from_f * from_f
    Dto = D0 * to_f * to_f
    Gf = picard_group(Dfrom)
    Gt = picard_group(Dto)
    out = []
    for i in range(len(Gf)):
        I = Gf.coprime_reps[i]
        J = extend_ideal(I, Dto)
        out.append(Gt.class_of(J))
    # homomorphism check on the full table
    for i in range(len(Gf)):
        for j in range(len(Gf)):
            if out[Gf.mul(i, j)] != Gt.mul(out[i], out[j]):
                raise InvariantError("order change map %d -> %d is not a homomorphism" % (Dfrom, Dto))
    return out


def extend_ideal(I: QuadIdeal, Dto: int) -> QuadIdeal:
    """I * O_{Dto} for an overorder (conductor of Dto divides that of I.D)."""
    D0f, ff = fundamental_part(I.D)
    D0t, ft = fundamental_part(Dto)
    if D0f != D0t or ff % ft:
        raise ValueError("not an overorder")
    k = ff // ft
    rf = I.D % 2
    rt = Dto % 2
    assert (rf - rt * k) % 2 == 0
    shift = (rf - rt * k) // 2

    def convert(v):
        x, y = v
        return (x + y * shift, y * k)

    gens = [convert(v) for v in I.generators()]
    ot = order(Dto)
    gens = gens + [ot.mul((0, 1), v) for v in gens]
    return ideal_from_generators(Dto, gens)


def conductor_of_char(chi: Mu3Char) -> int:
    """Smallest c | f such that chi factors through Pic(O_{D0 c^2})."""
    D0, f = fundamental_part(chi.D)
    for c in divisors(f):
        pi = order_change_map(D0, f, c)
        # chi factors iff it kills the kernel of pi
        kernel = [i for i, im in enumerate(pi) if im == 0]
        if all(chi.values[i] == 0 for i in kernel):
            # well-defined by surjectivity; verify constancy on fibers
            fiber_val = {}
            ok = True
            for i, im in enumerate(pi):
                if im in fiber_val and fiber_val[im] != chi.values[i]:
                    ok = False
                    break
                fiber_val[im] = chi.values[i]
            if ok:
                return c
    raise AssertionError("character does not factor through its own order")


def factored_char(chi: Mu3Char, c: int) -> Mu3Char:
    """The character on Pic(O_{D0 c^2}) through which chi factors."""
    D0, f = fundamental_part(chi.D)
    pi = order_change_map(D0, f, c)
    Dt = D0 * c * c
    Gt = picard_group(Dt)
    vals = [None] * len(Gt)
    for i, im in enumerate(pi):
        if vals[im] is None:
            vals[im] = chi.values[i]
        elif vals[im] != chi.values[i]:
            raise InvariantError("character is not constant on the fibres of the extension map")
    if None in vals:
        raise InvariantError("extension map not surjective")
    return Mu3Char(Dt, tuple(vals))


def picard_dump(D: int) -> dict:
    """JSON-ready description of Pic(O_D)."""
    G = picard_group(D)
    return {
        "delta": D,
        "order": len(G),
        "reps": [str(R) for R in G.reps],
        "table": G.table,
        "three_torsion": G.three_torsion(),
    }
