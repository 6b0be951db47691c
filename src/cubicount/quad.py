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
from the reduction theory of that form (Cohen, GTM 138, §5.4 and §5.6):

  D < 0: the classes are the primitive reduced forms |b| <= a <= c;
  D > 0 not a square: the classes are the rho-cycles of primitive reduced
    indefinite forms, the two orientations of one wide class merged, and
    every form on them is a key of its class, so an ideal is classified by
    applying rho until its form is reduced and one dict lookup;
  D = m^2: the classes are the forms (0, m, c) with c up to sign mod m.

Pic(O_D) is built from those keys with no ideal pool and no product
table.  Its class count is the number of classes above; the
representative of a class is its first primitive invertible ideal in
order of norm, then b, read off its keys of least |t| (walked up to norm
m/2 for D = m^2).  The group law is Dirichlet composition of the forms of
the representatives (Alg. 5.4.7), keyed like an ideal, no ideal product.
Generators come from closing cyclic subgroups one class at a time, with
one composition per class, and a Smith normal form of their relations
gives the invariant factors and an exponent vector for every class
(§2.4).  Products, 3-torsion, cubes, the characters with
values in Z/3 and the extension maps between orders of the same
fundamental discriminant are read off those vectors; an extension map
extends the representative of each generator, as extending any
invertible ideal induces Pic(O_f) -> Pic(O_t).  A character is
primitive on the least order over whose extension map it factors, and
that order gives its conductor.  The exact principality search
`is_principal` (elements of a given norm, normalized by the fundamental
unit in the real case) is not used to separate classes; it stays as the
independent oracle the class keys are tested against.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, isqrt
from types import MappingProxyType
from typing import NamedTuple

from .forms import BudgetExceeded, InvariantError, check_budget, disc_budget


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


def require_prime(p: int) -> None:
    """ValueError unless p is a prime."""
    q = 2
    while q * q <= p and p % q:
        q += 1
    if p < 2 or q * q <= p:
        raise ValueError("p = %d is not a prime" % p)


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


@lru_cache(maxsize=100000)
def fundamental_part(D: int):
    """D = D0 * f^2 with D0 a fundamental discriminant; returns (D0, f).
    Cached: the checks and the extension maps ask for it at every delta."""
    if not in_discs(D):
        raise ValueError("%d is not a discriminant" % D)
    f = 1
    for p, e in factorize(D).items():
        f *= p ** (e // 2)
    # D / f^2 is squarefree; it is D0 unless it is 2 or 3 mod 4, and then
    # f is even and D0 = 4 D / f^2
    if (D // (f * f)) % 4 in (2, 3):
        f //= 2
    return D // (f * f), f


def is_fundamental(D: int) -> bool:
    return in_discs(D) and fundamental_part(D)[1] == 1


class QuadOrder(NamedTuple):
    D: int

    @property
    def r(self) -> int:
        return self.D % 2

    @property
    def xi_norm(self) -> int:
        return (self.r * self.r - self.D) // 4

    # elements are pairs (x, y) meaning x + y*xi
    def norm(self, el) -> int:
        x, y = el
        return x * x + self.r * x * y + self.xi_norm * y * y

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

    def __str__(self):
        return "%d,%d,%d@%d" % (self.g, self.a, self.b, self.D)

    def generators(self):
        return [(self.g * self.a, 0), (self.g * self.b, self.g)]

    def contains(self, el) -> bool:
        x, y = el
        if y % self.g:
            return False
        k = y // self.g
        rem = x - k * self.g * self.b
        return rem % (self.g * self.a) == 0

    def scale(self, k: int) -> "QuadIdeal":
        return QuadIdeal(self.D, self.g * k, self.a, self.b)


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


def is_invertible(I: QuadIdeal) -> bool:
    """I * conj(I) = N(I) * O_D, read off the form of the primitive part:
    I is invertible iff (t, s, r) = `ideal_form_coefficients(I)` is
    primitive (Cox, Primes of the Form x^2 + ny^2, §7).  The scale g does
    not matter, as g*O_D is invertible."""
    t, s, r = ideal_form_coefficients(I)
    return gcd(gcd(t, s), r) == 1


def ideal_form_coefficients(I: QuadIdeal):
    """The (t, s, r) coefficient triple of the primitive part: (a, 2b + r,
    N(b + xi)/a); the ideal is invertible iff gcd = 1."""
    r = I.D % 2
    return I.a, 2 * I.b + r, (I.b * (I.b + r) + (r - I.D) // 4) // I.a


def ideals_of_norm(D: int, n: int, invertible_only: bool = False):
    """All index-n sublattices of O_D stable under multiplication by xi.
    BudgetExceeded when n is over disc_budget()."""
    if n < 1:
        raise ValueError("norm must be positive")
    cap = disc_budget()
    if n > cap:
        raise BudgetExceeded("ideal norm %d over budget %d" % (n, cap))
    order(D)
    out = []
    g = 1
    while g * g <= n:
        if n % (g * g) == 0:
            out += (I.scale(g) for I in _primitive_ideals(D, n // (g * g), invertible_only))
        g += 1
    return out


def _primitive_ideals(D: int, a: int, invertible_only: bool = True):
    """The ideals <a, b + xi> of O_D (only the invertible ones if asked),
    in order of b."""
    r, nu = D % 2, (D % 2 - D) // 4
    for b in range(a):
        c, rem = divmod(b * (b + r) + nu, a)  # N(b + xi) / a
        # invertible iff the form (a, 2b + r, c) is primitive
        if not rem and not (invertible_only and gcd(gcd(a, 2 * b + r), c) != 1):
            yield QuadIdeal(D, 1, a, b)


# ---------------------------------------------------------------------------
# Units

def fundamental_unit(D: int):
    """Generator of the infinite part of O_D^x as an element (x, y) in the
    (1, xi) basis, minimal > 1 in the real embedding; D positive nonsquare.

    One continued fraction serves every D, that of theta = (sqrt(D) - r)/2
    = -xi'.  A unit eps = x + y xi > 1 has conjugate x - y theta = +-1/eps
    and eps + 1/eps >= y sqrt(D), so eps > 2y once D >= 8 and |x/y -
    theta| = 1/(y eps) < 1/(2 y^2): x/y is a convergent of theta
    (Legendre).  For D = 5 the unit xi is the convergent 0/1.  Units > 1
    grow in y, so the first convergent of norm +-1 is the fundamental
    unit.  theta = (P + sqrt D)/Q starts at P = -r, Q = 2, where Q | D -
    P^2 as D = r mod 4; every later complete quotient is reduced, so Q
    stays positive and k = (P + isqrt(D)) // Q is its integer part."""
    if D <= 0 or is_square(D) or not in_discs(D):
        raise ValueError("need a positive non-square discriminant")
    r, nu = D % 2, (D % 2 - D) // 4
    s = isqrt(D)
    P, Q = -r, 2
    x_prev, x, y_prev, y = 0, 1, 1, 0  # the convergents -2 and -1
    for _ in range(10 ** 7):
        k = (P + s) // Q
        x, x_prev = k * x + x_prev, x
        y, y_prev = k * y + y_prev, y
        if x * x + r * x * y + nu * y * y in (1, -1):
            return x, y
        P = k * Q - P
        Q = (D - P * P) // Q
    raise InvariantError("unit expansion did not close for D=%d" % D)


@lru_cache(maxsize=100000)
def _unit_upper_bound(D: int):
    """Integer upper bound for the real embedding of the fundamental unit."""
    x, y = fundamental_unit(D)
    r = D % 2
    # value = x + y*(r + sqrt(D))/2 <= x + y*(r + isqrt(D) + 1)/2
    return x + (y * (r + isqrt(D) + 1) + 1) // 2 + 1


def elements_of_norm(D: int, n: int):
    """All (x, y) in O_D with |N| = n, modulo units: complete set such that
    every solution is a unit times a listed one.  n >= 1.
    BudgetExceeded when the scan over y would pass disc_budget() values,
    checked on every call; only the scan is cached."""
    if D < 0:
        ybound = isqrt(4 * n // (-D)) + 1
    elif is_square(D):
        ybound = None
    else:
        # window: |lambda| <= sqrt(n * eps); y = (l - lbar)/sqrt(D).  It
        # grows like the square root of the unit, past 10^10 values at
        # D = 1201, so the budget caps it
        ybound = isqrt(4 * n * _unit_upper_bound(D) // D) + 2
        size, cap = 2 * ybound + 1, disc_budget()
        if size > cap:
            raise BudgetExceeded("element scan of norm %d in O_%d: %d values of y over budget %d"
                                 % (n, D, size, cap))
    return _element_scan(D, n, ybound)


@lru_cache(maxsize=100000)
def _element_scan(D: int, n: int, ybound):
    """The scan of `elements_of_norm` over |y| <= ybound, or over the
    divisors of n for D a square (ybound None).  Cached: `is_principal`
    asks for the same (D, n) for every ideal of norm n."""
    o = order(D)
    out = []
    if ybound is None:
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
    """A reduced form in the Picard class of an invertible ideal, read from
    the form (t, s, r) of its primitive part:

    D < 0: the reduced form (Gauss), the one key of its class;
    D > 0 not a square: the first reduced form that rho reaches from
      (t, s, r).  Every reduced form on the rho-cycles of a class is a key
      of it -- the cycles of both orientations, as a generator of negative
      norm reverses the orientation and Pic is the wide class group -- so
      `PicGroup.index` maps them all to the class;
    D = m^2: (0, m, c) with 0 <= c < m the least of the two residues +-c
      of the forms (0, m, c) properly equivalent to (t, s, r), the one key
      of its class.

    ValueError if I is not invertible, i.e. (t, s, r) is not primitive."""
    t, s, r = ideal_form_coefficients(I)
    if gcd(gcd(t, s), r) != 1:
        raise ValueError("non-invertible ideal has no Picard class")
    return _key(I.D, t, s, r)


def _key(D, t, s, r):
    """The class key of the primitive form (t, s, r) of discriminant D (see
    class_key)."""
    if D < 0:
        return _reduce_definite(t, s, r)
    m = isqrt(D)
    if m * m == D:
        c = _split_residue(m, t, s, r)
        return 0, m, min(c, -c % m)
    while not _is_reduced_indefinite(D, m, t, s):
        t, s, r = _rho(D, m, t, s, r)
    return t, s, r


def _compose(D, f1, f2):
    """A form in the product class of the primitive forms f1 and f2 of
    discriminant D with positive first coefficients, not reduced: Dirichlet
    composition (Cohen, GTM 138, Alg. 5.4.7), whose first coefficient is
    a1 a2 / d1^2 for d1 = gcd(a1, a2, (b1 + b2)/2)."""
    (a1, b1, _), (a2, b2, c2) = f1, f2
    s = (b1 + b2) // 2
    d, y1, _ = xgcd(a2, a1)
    d1, x2, v = xgcd(s, d)  # Cohen's y2 is -v
    v1, v2 = a1 // d1, a2 // d1
    r = (-y1 * v * (b2 - s) - x2 * c2) % v1
    b3 = b2 + 2 * v2 * r
    a3 = v1 * v2
    return a3, b3, (b3 * b3 - D) // (4 * a3)


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


def _class_labels(D: int):
    """Every value class_key takes on O_D, mapped to a label 0, 1, ... of
    its Picard class: the primitive reduced forms (D < 0), the primitive
    reduced forms with the two orientations of one wide class sharing a
    label (D > 0 not a square), or the keys (0, m, c) with gcd(c, m) = 1
    (D = m^2)."""
    labels = {}
    if D < 0:
        a = 1
        while 3 * a * a <= -D:
            for b in range(-a + 1 + (a + 1 + D) % 2, a + 1, 2):  # b = D mod 2
                c, rem = divmod(b * b - D, 4 * a)
                if not rem and c >= a and not (a == c and b < 0) and gcd(gcd(a, b), c) == 1:
                    labels[a, b, c] = len(labels)
            a += 1
        return labels
    m = isqrt(D)
    if m * m == D:
        for c in range(m):
            if gcd(c, m) == 1:
                labels.setdefault((0, m, min(c, m - c)), len(labels))
        return labels
    h = 0
    for b in range(m - (m - D) % 2, 0, -2):  # b = D mod 2, 0 < b < sqrt D
        n = (D - b * b) // 4  # = -ac
        for a in range(max(1, (m - b) // 2), (m + b) // 2 + 1):
            if n % a or not _is_reduced_indefinite(D, m, a, b) or gcd(gcd(a, b), n // a) != 1:
                continue
            for f in ((a, b, -n // a), (-a, b, n // a)):
                if f in labels:
                    continue
                # the rho-cycle of f, then that of the opposite orientation
                for e in (f, (-f[0], f[1], -f[2])):
                    while e not in labels:
                        labels[e] = h
                        e = _rho(D, m, *e)
                h += 1
    return labels


# ---------------------------------------------------------------------------
# Picard groups

class PicGroup:
    """Pic(O_D) as a finite abelian group Z/d_1 x ... x Z/d_k,
    d_1 | d_2 | ... | d_k, d_1 > 1 (Smith normal form).

    reps: per class, the first primitive invertible ideal in order of norm,
    then b; the identity is class 0.
    index: every class key (see class_key) -> class index.
    invariants: the invariant factors (d_1, ..., d_k).
    vectors: per class, its exponent vector over the invariant factors.
    generators: per invariant factor, the class of its unit vector.
    table[i][j]: index of the product class; built on first use, for
    `picard_dump` and the tests.

    Groups are cached and shared by every caller, so all of these are
    stored read-only: tuples and a mapping proxy."""

    def __init__(self, D, reps, index, invariants, vectors):
        self.D = D
        self.reps = tuple(reps)
        self.index = MappingProxyType(index)
        self.invariants = tuple(invariants)
        self.vectors = tuple(vectors)
        self._by_vector = {v: i for i, v in enumerate(self.vectors)}
        self.generators = tuple(
            self._by_vector[tuple(int(k == l) for l in range(len(invariants)))]
            for k in range(len(invariants))
        )

    def __len__(self):
        return len(self.reps)

    def _class_at(self, v) -> int:
        return self._by_vector[tuple(x % d for x, d in zip(v, self.invariants))]

    def mul(self, i: int, j: int) -> int:
        return self._class_at([x + y for x, y in zip(self.vectors[i], self.vectors[j])])

    def class_of(self, I: QuadIdeal) -> int:
        if I.D != self.D:
            raise ValueError("ideal of a different order")
        return _classify(self.index, I.D, class_key(I))

    def three_torsion(self) -> int:
        return 3 ** sum(1 for d in self.invariants if d % 3 == 0)

    def is_cube(self, i: int) -> bool:
        return all(x % 3 == 0 for x, d in zip(self.vectors[i], self.invariants) if d % 3 == 0)

    @cached_property
    def table(self):
        n = len(self)
        return tuple(tuple(self.mul(i, j) for j in range(n)) for i in range(n))


def picard_group(D: int) -> PicGroup:
    """Pic(O_D), the representative of each class its first primitive
    invertible ideal in order of norm, then b (see _first_ideals).  The
    budget is checked on every call, also when the group is cached.
    ValueError unless D is a discriminant."""
    if not in_discs(D):
        raise ValueError("%d not congruent to 0 or 1 mod 4 (or zero)" % D)
    check_budget(abs(D))
    return _picard_group(D)


@lru_cache(maxsize=None)
def _picard_group(D: int) -> PicGroup:
    labels = _class_labels(D)
    first = _first_ideals(D, labels)
    order_of = {lab: i for i, lab in enumerate(first)}
    index = {key: order_of[lab] for key, lab in labels.items()}
    reps = list(first.values())
    invariants, vectors = _structure(D, [ideal_form_coefficients(R) for R in reps], index)
    return PicGroup(D, reps, index, invariants, vectors)


def _first_ideals(D, labels):
    """The first primitive invertible ideal <a, b + xi> of each class, in
    order of norm, then b: a dict from each class label to its ideal.
    D not a square: a key (t, s, r) is the form of the ideal <|t|, (s - D
    mod 2)/2 mod |t|> of its class, and the first ideals are those of the
    keys of least |t|.  A reduced definite form's a is its class minimum
    (of (a, +-b, a) the key's b >= 0 gives the lesser ideal).  A reduced
    indefinite form has |ac| < D/4, so each class has a key with |t| <
    sqrt(D)/2, and a form with |a| < sqrt(D)/2 is reduced after some b ->
    b + 2ak (Buchmann and Vollmer, Binary Quadratic Forms, 2007).
    D = m^2: the one key (0, m, c) of a class carries no norm, so ideals
    are walked in order until every class is met.  The class holds the
    forms (c, -m, 0), (m - c, -m, 0): norms <= max(1, m // 2) suffice."""
    if not is_square(D):
        r, least = D % 2, {}
        for (t, s, _), lab in labels.items():
            ab = abs(t), (s - r) // 2 % abs(t)
            least[lab] = min(least.get(lab, ab), ab)
        return {lab: QuadIdeal(D, 1, *least[lab]) for lab in sorted(least, key=least.get)}
    top = max(1, isqrt(D) // 2)
    first = {}
    for n in range(1, top + 1):
        for I in _primitive_ideals(D, n):
            first.setdefault(_classify(labels, D, class_key(I)), I)
            if len(first) == len(labels):
                return first
    raise InvariantError("%d of %d classes of D=%d met up to norm %d" % (len(first), len(labels), D, top))


def _structure(D, forms, index):
    """(invariant factors, exponent vectors) of the group of the classes of
    the primitive forms of discriminant D, under composition.  Cyclic
    subgroups are closed one class at a time: a class x outside the
    subgroup H found so far has a least e > 1 with x^e in H, and the cosets
    H x^j, 0 < j < e, are new, one composition per class.  That gives each
    class exponents over the generators found, and the relations
    x^e = (element of H) give the invariant factors through a Smith normal
    form.  Each generator composed with its opposite form must be
    principal."""
    def product(f, g):
        return _classify(index, D, _key(D, *_compose(D, f, g)))

    h = len(forms)
    coords = [None] * h  # exponents over the generators so far
    coords[0] = ()
    members = [0]
    relations = []
    for x in range(1, h):
        if coords[x] is not None:
            continue
        powers = [0]
        p = x
        while coords[p] is None:
            powers.append(p)
            if len(powers) > h:
                raise InvariantError("class %d of D=%d has no finite order" % (x, D))
            p = product(forms[p], forms[x])
        relations.append([-c for c in coords[p]] + [len(powers)])
        for i in members:
            coords[i] += (0,)
        new = []
        for j, pj in enumerate(powers[1:], 1):
            coords[pj] = (0,) * (len(coords[0]) - 1) + (j,)
            new.append(pj)
            for i in members[1:]:
                k = product(forms[i], forms[pj])
                if coords[k] is not None:
                    raise InvariantError("class products of D=%d are not a group law" % D)
                coords[k] = tuple(a + b for a, b in zip(coords[i], coords[pj]))
                new.append(k)
        members += new
        t, s, r = forms[x]
        if product(forms[x], (t, -s, r)) != 0:
            raise InvariantError("(%d, %d, %d) times its opposite is not principal for D=%d" % (t, s, r, D))
    rank = len(coords[0])
    d, V = _smith([row + [0] * (rank - len(row)) for row in relations])
    keep = [k for k in range(rank) if d[k] > 1]
    vectors = [
        tuple(sum(c * V[l][k] for l, c in enumerate(v)) % d[k] for k in keep) for v in coords
    ]
    if len(set(vectors)) != h:
        raise InvariantError("exponent vectors of D=%d do not separate the classes" % D)
    return [d[k] for k in keep], vectors


def _smith(rows):
    """(d, V) for the nonsingular square integer matrix A with the given
    rows: its invariant factors d_1 | d_2 | ... and a unimodular V with
    U A V = diag(d) for some unimodular U (Cohen, GTM 138, §2.4.4).  A
    vector of exponents x over the generators of Z^n / (rows of A) has the
    coordinates x V mod d over the invariant factors."""
    A = [list(r) for r in rows]
    n = len(A)
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(n):
        while True:
            # pivot: an entry of least nonzero absolute value
            _, i, j = min((abs(A[i][j]), i, j) for i in range(t, n) for j in range(t, n) if A[i][j])
            A[t], A[i] = A[i], A[t]
            for M in (A, V):
                for row in M:
                    row[t], row[j] = row[j], row[t]
            p = A[t][t]
            done = True
            for i in range(t + 1, n):
                q = A[i][t] // p
                if q:
                    A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                done = done and not A[i][t]
            for j in range(t + 1, n):
                q = A[t][j] // p
                if q:
                    for M in (A, V):
                        for row in M:
                            row[j] -= q * row[t]
                done = done and not A[t][j]
            if not done:
                continue
            # p must divide the rest, else fold a row with a remainder in
            bad = next((i for i in range(t + 1, n) if any(A[i][j] % p for j in range(t + 1, n))), None)
            if bad is None:
                break
            A[t] = [x + y for x, y in zip(A[t], A[bad])]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
    return [A[t][t] for t in range(n)], V


def _classify(index, D, key):
    try:
        return index[key]
    except KeyError:
        raise InvariantError("class list incomplete for D=%d" % D) from None


def pic_3_torsion(D: int) -> int:
    t = picard_group(D).three_torsion()
    if t not in (1, 3, 9, 27, 81):
        raise InvariantError("|Pic(O_%d)[3]| = %d is not a small power of 3" % (D, t))
    return t


class Mu3Char(NamedTuple):
    """Homomorphism Pic(O_D) -> Z/3, stored as the value on every class;
    chi(I) is its value on the class of the ideal I."""

    D: int
    values: tuple

    def __call__(self, ideal) -> int:
        return self.values[picard_group(self.D).class_of(ideal)]


def mu3_characters(D: int):
    """All homomorphisms Pic(O_D) -> Z/3, sorted by their values; their
    number is |Pic[3]|.  Each is a Z/3-combination of the coordinates of
    the exponent vectors at the invariant factors divisible by 3."""
    G = picard_group(D)
    values = [(0,) * len(G)]
    for k, d in enumerate(G.invariants):
        if d % 3 == 0:
            values = [
                tuple((x + t * v[k]) % 3 for x, v in zip(vals, G.vectors))
                for vals in values
                for t in range(3)
            ]
    return sorted(Mu3Char(D, vals) for vals in values)


@lru_cache(maxsize=16)
def _extension_map(Gf: PicGroup, Gt: PicGroup):
    """The extension map Gf -> Gt from the images of the generators of Gf
    (their representatives, extended), each checked to satisfy its
    relation d * image = 0 in Gt; every other class maps through its
    exponent vector."""
    images = []
    for gen, d in zip(Gf.generators, Gf.invariants):
        img = Gt.vectors[Gt.class_of(extend_ideal(Gf.reps[gen], Gt.D))]
        if any(d * y % e for y, e in zip(img, Gt.invariants)):
            raise InvariantError("order change map %d -> %d is not a homomorphism" % (Gf.D, Gt.D))
        images.append(img)
    zero = (0,) * len(Gt.invariants)
    out = []
    for v in Gf.vectors:
        w = zero
        for x, img in zip(v, images):
            w = [a + x * b for a, b in zip(w, img)]
        out.append(Gt._class_at(w))
    return tuple(out)


def extend_ideal(I: QuadIdeal, Dto: int) -> QuadIdeal:
    """I * O_{Dto} for an overorder (conductor of Dto divides that of I.D)."""
    D0f, ff = fundamental_part(I.D)
    D0t, ft = fundamental_part(Dto)
    if D0f != D0t or ff % ft:
        raise ValueError("not an overorder")
    k = ff // ft
    rf = I.D % 2
    rt = Dto % 2
    if (rf - rt * k) % 2:
        raise InvariantError("xi of O_%d does not lie in O_%d" % (I.D, Dto))
    shift = (rf - rt * k) // 2

    def convert(v):
        x, y = v
        return (x + y * shift, y * k)

    return ideal_from_generators(Dto, [convert(v) for v in I.generators()])


def primitive_char(chi: Mu3Char) -> Mu3Char:
    """The character on Pic(O_{D0 c^2}) through which chi factors, for the
    least c | f: over each c in increasing order, the first c on whose
    fibres of the extension map chi is constant."""
    D0, f = fundamental_part(chi.D)
    G = picard_group(chi.D)
    for c in divisors(f):
        Gc = picard_group(D0 * c * c)
        vals = [None] * len(Gc)
        for x, im in zip(chi.values, _extension_map(G, Gc)):
            if vals[im] is None:
                vals[im] = x
            elif vals[im] != x:
                break
        else:
            if None in vals:
                raise InvariantError("extension map %d -> %d is not surjective" % (chi.D, Gc.D))
            return Mu3Char(Gc.D, tuple(vals))
    raise InvariantError("character does not factor through its own order")


def conductor_of_char(chi: Mu3Char) -> int:
    """Smallest c | f such that chi factors through Pic(O_{D0 c^2})."""
    return fundamental_part(primitive_char(chi).D)[1]


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
