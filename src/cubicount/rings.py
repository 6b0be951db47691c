"""Cubic rings as explicit multiplication tables over Z.

A form (a, b, c, d) determines the ring with basis [1, alpha, beta] and

    alpha^2     = -a*c - b*alpha + a*beta
    alpha*beta  = -a*d
    beta^2      = -b*d - d*alpha + c*beta,

the unique choice making the table associative.  Elements are integer
coordinate triples (x0, x1, x2).  The orientation sign fixes a generator
of the top exterior power (basis wedge times the sign).

Also here: the maximal subring with all traces divisible by 3, the first
trace-divisible one among the ring, its subrings of index 3 and Z + 3C,
each with its form F(e x, f x + g y)/(e g) read off its triangular basis
1, e*alpha + f*beta, g*beta (no multiplication table is built); local
maximality of a form at a prime p and its splitting type there, both in
closed form (when p does not divide the discriminant the roots mod p are
simple and their number gives the type; otherwise the one multiple root,
where both partial derivatives vanish mod p, decides maximality, and is
all the "fields" counts table of `counting` asks of a form); and the
enumeration of finite-index subrings (which backs the counting
recursions `counting.s_sequence`, and so reads no splitting type).  The
enumeration covers every triangular sublattice basis Z*1 + Z*(e*alpha +
f*beta) + Z*(g*beta) with e*g = n and 0 <= f < g, but tries only the f
that are roots of F(e, x) mod g, as closure forces n | F(e, f), found by
lifting the roots one prime of g at a time.  Every closure condition is
a congruence modulo a divisor of n, so the index-n subrings depend only
on the form mod n: they are computed once per residue (a, b, c, d) mod
n, in a bounded memo, and the divisors of n with their lifting steps
once per n.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .forms import BinaryCubicForm, BudgetExceeded, InvariantError, disc, evaluate, is_zmat
from .quad import divisors, factorize, require_prime

class CubicRing:
    """Multiplication table attached to a binary cubic form."""

    def __init__(self, form, orientation: int = 1):
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self.form = BinaryCubicForm(*form)
        self.orientation = orientation
        a, b, c, d = self.form
        # products of basis vectors, coordinates in [1, alpha, beta]
        self._aa = (-a * c, -b, a)
        self._ab = (-a * d, 0, 0)
        self._bb = (-b * d, -d, c)

    def __repr__(self):
        return "CubicRing(%s, orientation=%+d)" % (self.form, self.orientation)

    def __eq__(self, other):
        return (
            isinstance(other, CubicRing)
            and self.form == other.form
            and self.orientation == other.orientation
        )

    def __hash__(self):
        return hash((self.form, self.orientation))

    @cached_property
    def discriminant(self) -> int:
        return disc(self.form)

    def mul(self, x, y):
        x0, x1, x2 = x
        y0, y1, y2 = y
        p0, p1, p2 = self._aa
        q0 = self._ab[0]
        r0, r1, r2 = self._bb
        s11 = x1 * y1
        s12 = x1 * y2 + x2 * y1
        s22 = x2 * y2
        return (
            x0 * y0 + s11 * p0 + s12 * q0 + s22 * r0,
            x0 * y1 + x1 * y0 + s11 * p1 + s22 * r1,
            x0 * y2 + x2 * y0 + s11 * p2 + s22 * r2,
        )

    def trace(self, x) -> int:
        a, b, c, d = self.form
        return 3 * x[0] - b * x[1] + c * x[2]


def ring_from_form(form, orientation: int = 1) -> CubicRing:
    return CubicRing(form, orientation)


# ---------------------------------------------------------------------------
# Subrings

# the largest index subrings_of_index enumerates; the root lifting tries
# far fewer, but sigma(n) lattices at worst
MAX_SUBRING_INDEX = 1000


def subrings_of_index(ring: CubicRing, n: int):
    """All index-n sublattices of the ring containing 1 and closed under
    multiplication.  Each is returned as a triple of coordinate rows
    (a triangular basis starting with 1), in order of e, then f.

    Every such lattice has one basis Z*1 + Z*u + Z*v with u = e*alpha +
    f*beta, v = g*beta, e*g = n and 0 <= f < g.  Reading the alpha and
    beta parts of u*u, u*v and v*v off the form F = (a, b, c, d), it is a
    ring iff e | d f^2, e | d f g, e | d g^2 and n | F(e, f).  So f is a
    root of F(e, x) mod g.  For q | g and a prime p with q p | g, the
    roots mod q p are the lifts r + t q (0 <= t < p) of the roots r mod q
    that qualify, so lifting one prime of g at a time from q = 1 reaches
    the roots mod g, and only those are tried.

    Each of these conditions is a congruence modulo a divisor of n (e, n,
    or a divisor q p of g), with integer polynomials in a, b, c, d on
    both sides.  So the list is a function of (a mod n, b mod n, c mod n,
    d mod n, n), and it is computed once per such residue; the checks on
    the ring and on n come first, on every call."""
    if ring.discriminant == 0:
        raise ValueError("degenerate ring")
    if n > MAX_SUBRING_INDEX:
        raise BudgetExceeded("subring index %d over budget %d" % (n, MAX_SUBRING_INDEX))
    if n < 1:
        raise ValueError("index must be positive")
    a, b, c, d = ring.form
    return list(_subrings_mod(a % n, b % n, c % n, d % n, n))


@lru_cache(maxsize=4096)
def _subrings_mod(a: int, b: int, c: int, d: int, n: int):
    """The bases of subrings_of_index for the form (a, b, c, d) taken mod
    n, as a tuple."""
    out = []
    for e, g, steps in _index_steps(n):
        if d * g * g % e:
            continue
        # F(e, x) = d x^3 + k2 x^2 + k1 x + k0
        k2, k1, k0 = c * e, b * e * e, a * e ** 3
        roots = [0]  # the roots mod 1, then mod each lift
        for q, lift in steps:
            roots = [x for r in roots for x in range(r, lift, q) if (((d * x + k2) * x + k1) * x + k0) % lift == 0]
        roots.sort()
        for f in roots:
            if d * f * f % e or d * f * g % e or (((d * f + k2) * f + k1) * f + k0) % n:
                continue
            out.append(_basis(e, f, g))
    return tuple(out)


@lru_cache(maxsize=MAX_SUBRING_INDEX)
def _index_steps(n: int):
    """(e, g, steps) for each divisor e of n in increasing order, g = n/e,
    where steps are the (q, q p) that lift roots mod q = 1 to roots mod g,
    one prime p of g at a time."""
    primes = factorize(n)
    out = []
    for e in divisors(n):
        g = n // e
        steps, q = [], 1
        for p in primes:
            while g % (q * p) == 0:
                steps.append((q, q * p))
                q *= p
        out.append((e, g, tuple(steps)))
    return tuple(out)


@lru_cache(maxsize=1 << 14)
def _basis(e: int, f: int, g: int):
    """The basis rows 1, e*alpha + f*beta, g*beta, one tuple shared by
    every residue whose subrings include it."""
    return (1, 0, 0), (0, e, f), (0, 0, g)


# ---------------------------------------------------------------------------
# The maximal subring with all traces divisible by 3

def max_zmat_subring(ring: CubicRing):
    """The unique largest subring whose elements all have trace in 3Z.  It
    holds Z + 3C and every trace-divisible subring, so it is the first
    trace-divisible one of: the ring itself, its subrings of index 3 in the
    order `subrings_of_index` lists them, and Z + 3C.  The subring with
    basis 1, e*alpha + f*beta, g*beta has the form F(e x, f x + g y)/(e g),
    so Z + 3C has the form 3F.  Returns (subring, index, basis_rows)."""
    if ring.discriminant == 0:
        raise ValueError("degenerate ring")
    whole = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    z_plus_3c = ((1, 0, 0), (0, 3, 0), (0, 0, 3))
    for basis in [whole] + subrings_of_index(ring, 3) + [z_plus_3c]:
        (_, e, f), (_, _, g) = basis[1:]
        sub = CubicRing(_sub_form(ring.form, e, f, g), ring.orientation)
        if not is_zmat(sub.form):
            continue
        if sub.discriminant != (e * g) ** 2 * ring.discriminant:
            raise InvariantError("index-%d subring %r of %r has the wrong disc" % (e * g, tuple(sub.form), tuple(ring.form)))
        return sub, e * g, list(basis)
    raise InvariantError("Z + 3C of %r is not trace-divisible" % (tuple(ring.form),))


def _sub_form(form, e: int, f: int, g: int) -> BinaryCubicForm:
    """F(e x, f x + g y)/(e g), the form of the subring with basis 1,
    e*alpha + f*beta, g*beta (exact whenever that lattice is a ring)."""
    _, b, c, d = form
    return BinaryCubicForm(
        evaluate(form, e, f) // (e * g),
        b * e + 2 * c * f + 3 * d * f * f // e,
        c * g + 3 * d * f * g // e,
        d * g * g // e,
    )


# ---------------------------------------------------------------------------
# Local maximality and splitting types

def is_maximal_at_p(form, p: int) -> bool:
    """No overring of p-power index exists: fails iff p divides the whole
    form or a multiple root v mod p has p^2 | f(v).  ValueError unless p
    is a prime."""
    require_prime(p)
    return _local_type(form, p) is not None


# number of projective roots mod p -> splitting type, for p not dividing
# the discriminant (three simple roots, one, or none) and for p dividing
# it (a double and a simple root, or one triple root)
_TYPE_OF_ROOTS = {3: "111", 1: "12", 0: "3"}
_RAMIFIED_TYPE_OF_ROOTS = {2: "1^2 1", 1: "1^3"}


def _local_type(form, p: int):
    """The splitting type of the form at the prime p, or None when it is
    not maximal at p.  Not maximal iff p divides the form, or a multiple
    root v mod p has p^2 | f(v) (Bhargava, Shankar and Tsimerman, Invent.
    Math. 193, 2013).  When p does not divide disc(f) the form is maximal
    at p, its roots mod p are simple, and their number gives the type.
    Otherwise f mod p is a nonzero cubic with a repeated linear factor:
    its one multiple root is the root where both partial derivatives
    vanish mod p, so f(v) mod p^2 is the same for every lift of v."""
    D = disc(form)
    if D == 0:
        raise ValueError("degenerate form")
    a, b, c, d = form
    if a % p == 0 and b % p == 0 and c % p == 0 and d % p == 0:
        return None
    roots = roots_in_p1(form, p)
    if D % p:
        sigma = _TYPE_OF_ROOTS.get(len(roots))
        if sigma is None:
            raise InvariantError("%d simple roots of %r mod %d" % (len(roots), tuple(form), p))
        return sigma
    multiple = [
        (x, y) for x, y in roots
        if (3 * a * x * x + 2 * b * x * y + c * y * y) % p == 0
        and (b * x * x + 2 * c * x * y + 3 * d * y * y) % p == 0
    ]
    sigma = _RAMIFIED_TYPE_OF_ROOTS.get(len(roots))
    if sigma is None or len(multiple) != 1:
        raise InvariantError(
            "%d roots, %d of them multiple, of %r mod %d dividing its disc" % (len(roots), len(multiple), tuple(form), p)
        )
    if evaluate(form, *multiple[0]) % (p * p) == 0:
        return None
    return sigma


def is_maximal(form) -> bool:
    """Maximal at every prime (only p with p^2 | disc can fail)."""
    D = disc(form)
    if D == 0:
        raise ValueError("degenerate form")
    return all(_local_type(form, p) is not None for p, e in factorize(D).items() if e > 1)


def splitting_type(form, p: int) -> str:
    """Degree/multiplicity pattern of the form mod p; only meaningful (and
    only allowed) for forms maximal at p.  ValueError unless p is a
    prime."""
    require_prime(p)
    sigma = _local_type(form, p)
    if sigma is None:
        raise ValueError("splitting type is defined for forms maximal at %d" % p)
    return sigma


def roots_in_p1(form, p: int):
    """Projective roots of the form mod p (no maximality requirement): the
    (t, 1) with 0 <= t < p, then (1, 0)."""
    a, b, c, d = form
    out = [(t, 1) for t in range(p) if (((a * t + b) * t + c) * t + d) % p == 0]
    if a % p == 0:
        out.append((1, 0))
    return out
