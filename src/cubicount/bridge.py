"""Bridges between cubic rings and quadratic ideal theory.

An oriented ring with all traces in 3Z has a form f = (a, 3B, 3C, d)
of discriminant -27*D, and Bhargava's bijection (Higher composition
laws I, Ann. of Math. 159 (2004), section 3) reads its triple (O_D, I,
gamma) off the covariants of f: the reduced Hessian Q = (B^2 - aC, BC -
ad, C^2 - Bd) of discriminant D, the cubic covariant G and f itself,
evaluated at the first point where Q and f are nonzero (`extract_triple`).
With t, u, e the values of Q, G, f there, gamma = (-u + e sqrt D)/2 has
N(gamma) = t^3, I = [1, (s + sqrt D)/2|t|] for s read off the polar form
of Q, and the triple satisfies gamma I^3 contained in O_D and |N(gamma)|
N(I)^3 = 1.  No ring arithmetic enters.  Scaling I by g = gcd of its form
coefficients yields an invertible ideal J = gamma I^3 / g of norm g in
the order of discriminant D/g^2 whose class is a cube.

Every lattice in Q(sqrt D) is a `RatLattice`, an integer Hermite normal
form over one denominator reduced by the same kernel `quad.hnf2` as
quadratic ideals.  The extracted I has the basis [1, tau], so gamma I^3
is one Hermite form of gamma, gamma tau, gamma tau^2 and gamma tau^3
(`gamma_cube`), built once per triple and stored on it for the
containment check and `triple_to_J`; J's generators are read straight off
its two rows, and J is invertible iff its quadratic form is primitive
(`quad.is_invertible`).  The checks on a triple (N(gamma) = t^3, the
balance conditions, the integrality and invertibility of J) raise
`forms.InvariantError`, so they hold under `python -O` too.

On top of the triple extraction sit the two global counts: the ideal-side
count (invertible cube-class ideals weighted by 3-torsion) equals
2 w eta hhat, and the character-side count (subring counts with splitting
types read off ideal characters) equals 2 w h.  The remaining checks --
the 3-torsion reflection between discriminants D and -3D, the restricted
ideal count for 3 not dividing D, and the field count against
(|Pic[3]|-1)/2 -- are small corollaries verified directly.  Each count
is read by `counting.h_value(D, kind)`, the fields' by weight (no orbit).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .forms import BinaryCubicForm, InvariantError, disc, evaluate, is_zmat
from .counting import h_value, report, s_sequence
from .quad import (
    Mu3Char,
    divisors,
    factorize,
    fundamental_part,
    hnf2,
    ideal_from_generators,
    ideals_of_norm,
    in_discs,
    is_fundamental,
    is_invertible,
    is_square,
    mu3_characters,
    pic_3_torsion,
    picard_group,
    primitive_char,
    xgcd,
)


def weight_w(D: int) -> int:
    """3 when D is a perfect square, else 1."""
    return 3 if is_square(D) else 1


def weight_eta(D: int) -> Fraction:
    """1/3 for positive D, 1 for negative."""
    return Fraction(1, 3) if D > 0 else Fraction(1)


# ---------------------------------------------------------------------------
# Lattices in Q(sqrt(D)), coordinates (x, y) meaning x + y sqrt(D)

def k2_mul(D, u, v):
    return (u[0] * v[0] + u[1] * v[1] * D, u[0] * v[1] + u[1] * v[0])


class RatLattice(NamedTuple):
    """Rank-2 lattice in Q(sqrt(D)) with the rows (a, 0)/den and
    (b, c)/den: an integer Hermite normal form over one denominator,
    normalized to a, c, den > 0, 0 <= b < a and gcd(den, a, b, c) = 1, so
    that equal lattices are equal tuples."""

    D: int
    den: int
    a: int
    b: int
    c: int

    def rows(self):
        """The integer numerators of the two rows."""
        return ((self.a, 0), (self.b, self.c))


def int_lattice(D, den, vecs) -> RatLattice:
    """The lattice spanned by the integer pairs vecs, divided by den > 0."""
    a, b, c = hnf2(vecs)
    k = gcd(gcd(den, a), gcd(b, c))
    return RatLattice(D, den // k, a // k, b // k, c // k)


def lat_subset_order(L: RatLattice) -> bool:
    """L contained in O_D: each row (x, y) needs 2y integral and
    x - (D mod 2) y integral."""
    r = L.D % 2
    return L.a % L.den == 0 and 2 * L.c % L.den == 0 and (L.b - r * L.c) % L.den == 0


# ---------------------------------------------------------------------------
# Triple extraction

def gamma_cube(I: RatLattice, u: int, e: int) -> RatLattice:
    """gamma I^3 for gamma = (-u + e sqrt D)/2.  I has the basis [1, tau],
    so I^3 is spanned by 1, tau, tau^2 and tau^3: one Hermite form of four
    vectors over the denominator 2 den^3."""
    if I.a != I.den:
        raise InvariantError("1 is not a primitive vector of %r" % (I,))
    D, n = I.D, I.den
    tau = (I.b, I.c)
    tau2 = k2_mul(D, tau, tau)
    powers = ((n ** 3, 0), (n * n * I.b, n * n * I.c), (n * tau2[0], n * tau2[1]), k2_mul(D, tau2, tau))
    return int_lattice(D, 2 * n ** 3, [k2_mul(D, (-u, e), v) for v in powers])


class SelfBalancedTriple(NamedTuple):
    D: int                    # quadratic discriminant (ring disc is -27 D)
    I: RatLattice             # lattice with basis [1, tau]
    t: int
    s: int
    r: int
    u: int
    e: int                    # f(x, y) times the orientation
    alpha: tuple              # ring coordinates of the chosen alpha
    gamma_I3: RatLattice      # gamma I^3, built once by `gamma_cube`

    @property
    def gamma(self) -> tuple:
        """gamma = (-u + e sqrt D)/2 as Fractions in (1, sqrt D) coords."""
        return Fraction(-self.u, 2), Fraction(self.e, 2)

    @property
    def content(self) -> int:
        return gcd(gcd(abs(self.t), abs(self.s)), abs(self.r))

    def norm_condition(self) -> bool:
        """|N(gamma)| N(I)^3 = 1, cleared of denominators: N(gamma) =
        (u^2 - e^2 D)/4 and N(I) = 2ac/den^2."""
        I = self.I
        return abs(self.u ** 2 - self.e ** 2 * self.D) * (2 * I.a * I.c) ** 3 == 4 * I.den ** 6

    def containment_condition(self) -> bool:
        return lat_subset_order(self.gamma_I3)


# the primitive (x, y) with max(|x|, |y|) = 1 or 2, by shell, then x, then y
_POINTS = tuple(
    (x, y) for m in (1, 2) for x in range(-m, m + 1) for y in range(-m, m + 1)
    if max(abs(x), abs(y)) == m and gcd(x, y) == 1
)


def cubic_covariant(form) -> BinaryCubicForm:
    """The cubic covariant G of f = (a, 3B, 3C, d), scaled so that
    G^2 - f^2 D = 4 Q^3 for the reduced Hessian Q and D = -disc(f)/27."""
    a, b, c, d = form
    B, C = b // 3, c // 3
    return BinaryCubicForm(
        2 * B ** 3 - 3 * a * B * C + a * a * d,
        3 * B * B * C + 3 * a * B * d - 6 * a * C * C,
        6 * B * B * d - 3 * B * C * C - 3 * a * C * d,
        3 * B * C * d - 2 * C ** 3 - a * d * d,
    )


def extract_triple(form, orientation: int = 1) -> SelfBalancedTriple:
    """The triple (O_D, I, gamma) of the oriented ring of f = (a, 3B, 3C, d),
    read off the covariants of f (Bhargava, Higher composition laws I,
    Ann. of Math. 159 (2004), section 3).

    In the ring basis [1, omega, theta], alpha = (xB - yC) + x omega + y
    theta is the trace-zero element at a point p = (x, y), and for Q =
    (B^2 - aC, BC - ad, C^2 - Bd), the reduced Hessian of disc D =
    -disc(f)/27, tr(alpha^2) = 6 Q(x, y) and
    det[1, alpha, alpha^2] = f(x, y) hold identically.  So alpha is
    generic when Q(x, y) and f(x, y) are nonzero, and the first primitive
    p in shells max(|x|, |y|) = 1, 2, ... that is generic is taken.  f Q
    is a nonzero binary quintic with at most 5 projective zeros, and the
    shells 1 and 2 hold 8 projective points, so `_POINTS` always has one.

    At p: t = Q(x, y), e = o f(x, y), u = G(x, y) for the cubic
    covariant G, so N(gamma) = (u^2 - e^2 D)/4 = t^3 for gamma = (-u +
    e sqrt D)/2.  I = [1, (s + sqrt D)/2|t|] with s = -o B_Q(p, p') mod
    2|t|, where p' completes p to a basis, x y' - y x' = 1, and B_Q(p,
    p') = 2P x x' + S(x y' + y x') + 2R y y' is the polar form of Q = (P,
    S, R).  Another p' is p' + k p, which adds 2k Q(p) = 2kt to B_Q, so s
    does not depend on it.  B_Q(p, p')^2 - 4 Q(p) Q(p') = D makes r = (s^2
    - D)/4t an integer.  ValueError for a form not trace-divisible, a
    degenerate one, or an orientation o outside {1, -1}."""
    f = BinaryCubicForm(*form)
    if not is_zmat(f):
        raise ValueError("ring does not have all traces divisible by 3")
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    Dring = disc(f)
    if Dring == 0:
        raise ValueError("degenerate ring")
    if Dring % 27:
        raise InvariantError("trace-divisible %r has disc %d not divisible by 27" % (tuple(f), Dring))
    D = -(Dring // 27)
    a, b, c, d = f
    B, C = b // 3, c // 3
    P, S, R = B * B - a * C, B * C - a * d, C * C - B * d
    for x, y in _POINTS:
        t, e = P * x * x + S * x * y + R * y * y, orientation * evaluate(f, x, y)
        if t and e:
            break
    else:
        raise InvariantError("no generic element among the shell points of %r" % (tuple(f),))
    u = evaluate(cubic_covariant(f), x, y)
    if u * u - e * e * D != 4 * t ** 3:
        raise InvariantError("N(gamma) != t^3 for the attached triple")
    _, yp, xp = xgcd(x, -y)  # x yp - y xp = 1
    s = -orientation * (2 * P * x * xp + S * (x * yp + y * xp) + 2 * R * y * yp) % (2 * abs(t))
    r = (s * s - D) // (4 * t)
    I = RatLattice(D, 2 * abs(t), 2 * abs(t), s, 1)
    trip = SelfBalancedTriple(D, I, t, s, r, u, e, (x * B - y * C, x, y), gamma_cube(I, u, e))
    if not trip.norm_condition():
        raise InvariantError("balance norm condition failed")
    if not trip.containment_condition():
        raise InvariantError("gamma I^3 not inside the order")
    return trip


# ---------------------------------------------------------------------------
# J = gamma I^3 / g

def triple_to_J(trip: SelfBalancedTriple):
    """(D', g, J): J = gamma I^3 / g is an invertible integral ideal of
    norm g in the order of discriminant D' = D / g^2, of cube class."""
    g = trip.content
    D = trip.D
    if D % (g * g):
        raise InvariantError("content %d: g^2 does not divide D = %d" % (g, D))
    Dp = D // (g * g)
    if not in_discs(Dp):
        raise InvariantError("D / g^2 = %d is not a discriminant" % Dp)
    # a row (x, y)/den of gamma I^3, divided by g, is x/(g den) + (y/den)
    # sqrt(D') with sqrt(D') = 2 xi' - r': (x - g r' y)/(g den) + (2y/den) xi'
    L, rp = trip.gamma_I3, Dp % 2
    gens = []
    for x, y in L.rows():
        xn, yn = x - g * rp * y, 2 * y
        if xn % (g * L.den) or yn % L.den:
            raise InvariantError("J must be integral over the multiplier order")
        gens.append((xn // (g * L.den), yn // L.den))
    J = ideal_from_generators(Dp, gens)
    if J.norm != g:
        raise InvariantError("N(J) = %d differs from g = %d" % (J.norm, g))
    if not is_invertible(J):
        raise InvariantError("J = %s is not invertible" % (J,))
    return Dp, g, J


# ---------------------------------------------------------------------------
# The two global counts

def rhs_count(D: int) -> int:
    """Number of invertible cube-class ideals J of norm g in orders O_{D'}
    over all factorizations D' g^2 = D, weighted by |Pic(O_{D'})[3]|."""
    if not in_discs(D):
        raise ValueError("not a discriminant")
    return _cube_ideal_sum(D)


def _cube_ideal_sum(D: int, prime_to_3: bool = False) -> int:
    """The ideal side shared by `rhs_count` and `check_prop_3notdiv`: over
    all factorizations D' g^2 = D (only g prime to 3 if prime_to_3), the
    number of invertible ideals of norm g of O_{D'} in cube classes, times
    |Pic(O_{D'})[3]|."""
    total = 0
    # D / g^2 is a discriminant exactly when g divides the conductor
    for g in divisors(fundamental_part(D)[1]):
        if g % 3 or not prime_to_3:
            Dp = D // (g * g)
            G = picard_group(Dp)
            cubes = sum(1 for J in ideals_of_norm(Dp, g, invertible_only=True) if G.is_cube(G.class_of(J)))
            total += cubes * G.three_torsion()
    return total


def rhs_identity_check(D: int) -> dict:
    lhs = Fraction(rhs_count(D))
    rhs = 2 * weight_w(D) * weight_eta(D) * h_value(D, "zmat")
    return report("rhs", D, lhs, rhs)


def splitting_type_from_char(chi: Mu3Char, p: int) -> str:
    """Splitting type at p of the cubic algebra attached to a primitive
    character of conductor d on Pic(O_{D0 d^2}); ValueError unless chi is
    primitive on its own order."""
    if primitive_char(chi).D != chi.D:
        raise ValueError("character must be primitive on its own order")
    return _splitting_type(chi, p)


def _splitting_type(chi: Mu3Char, p: int) -> str:
    """splitting_type_from_char for a chi known to be primitive."""
    D0, d = fundamental_part(chi.D)
    if d % p == 0:
        return "1^3"
    if D0 % p == 0:
        return "1^2 1"
    # Euler's criterion: p is inert when D0 is not a square mod p; for p = 2,
    # D0 = 1 mod 4 and 2 is inert when D0 = 5 mod 8
    inert = D0 % 8 == 5 if p == 2 else pow(D0, (p - 1) // 2, p) != 1
    if inert:
        return "12"
    primes = [I for I in ideals_of_norm(chi.D, p, invertible_only=True)]
    if len(primes) != 2:
        raise InvariantError("split prime %d has %d ideals above it in O_%d" % (p, len(primes), chi.D))
    return "111" if chi(primes[0]) == 0 else "3"


def has_cubefree_conductor(D: int) -> bool:
    """D is a discriminant and the conductor of O_D is cubefree."""
    return in_discs(D) and all(e < 3 for e in factorize(fundamental_part(D)[1]).values())


def lhs_count(D: int) -> int:
    """Character-side count: over all chi on Pic(O_D), the number of index
    m/cond(chi) subrings of the attached cubic ring, from local splitting
    types; m is the conductor of O_D.  The identity is proved for cubefree
    m, so other conductors are rejected; `_character_sum` evaluates the sum
    at any D (it has matched 2 w h on every case tried)."""
    if not in_discs(D):
        raise ValueError("not a discriminant")
    if not has_cubefree_conductor(D):
        raise ValueError("conductor must be cubefree")
    return _character_sum(D)


def _character_sum(D: int) -> int:
    """The sum of lhs_count at a discriminant D, whatever its conductor."""
    m = fundamental_part(D)[1]
    total = 0
    for chi in mu3_characters(D):
        chi_prim = primitive_char(chi)
        m1 = m // fundamental_part(chi_prim.D)[1]
        term = 1
        for p, v in factorize(m1).items():
            term *= s_sequence(_splitting_type(chi_prim, p), p, v)
        total += term
    return total


def lhs_identity_check(D: int) -> dict:
    lhs = Fraction(lhs_count(D))
    rhs = 2 * weight_w(D) * h_value(D)
    return report("lhs", D, lhs, rhs)


def check_fields_pic(D: int) -> dict:
    """Count cubic fields whose discriminant squarely divides D against
    (|Pic(O_D)[3]| - 1)/2.  A field's orbit has the stabilizer Aut of its
    ring, of order w(D') at its disc D' (3 for a cyclic field, whose disc
    is a square), so the fields at D' are w(D') times their part of h(D')."""
    if not in_discs(D):
        raise ValueError("not a discriminant")
    fields = 0
    for k in divisors(fundamental_part(D)[1]):
        Dk = D // (k * k)
        n = weight_w(Dk) * h_value(Dk, "fields")
        if n.denominator != 1:
            raise InvariantError("fields at disc %d weigh %d/6" % (Dk, 6 * n))
        fields += n.numerator
    t3 = pic_3_torsion(D)
    if t3 % 2 == 0:
        raise InvariantError("|Pic(O_%d)[3]| = %d is even" % (D, t3))
    expected = (t3 - 1) // 2
    return report("fields-pic", D, Fraction(fields), Fraction(expected))


def check_prop_3notdiv(D: int) -> dict:
    """For 3 not dividing D: 6 w_{-3D} eta_{-3D} h(D) equals the ideal-side
    sum for discriminant -27 D restricted to factorizations with 3 ∤ g."""
    if D % 3 == 0:
        raise ValueError("requires 3 coprime to the discriminant")
    if not in_discs(D):
        raise ValueError("not a discriminant")
    total = _cube_ideal_sum(-27 * D, prime_to_3=True)
    lhs = 6 * weight_w(-3 * D) * weight_eta(-3 * D) * h_value(D)
    return report("prop6", D, lhs, Fraction(total))


def check_scholz(D0: int) -> dict:
    """3-torsion ratio between the class groups of discriminant -3*D0 and
    D0 lies in {3, 1} for D0 > 1 and {1, 1/3} for D0 < 0."""
    if not is_fundamental(D0) or D0 == 1:
        raise ValueError("need a fundamental discriminant different from 1")
    refl, _ = fundamental_part(-3 * D0)
    ratio = Fraction(pic_3_torsion(refl), pic_3_torsion(D0))
    allowed = (Fraction(3), Fraction(1)) if D0 > 1 else (Fraction(1), Fraction(1, 3))
    return report("scholz", D0, ratio, allowed, ratio in allowed)
