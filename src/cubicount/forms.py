"""Integral binary cubic forms and the twisted GL2(Z) action.

A form (a, b, c, d) stands for a*x^3 + b*x^2*y + c*x*y^2 + d*y^3.  The
group element g = [[p, q], [r, s]] with det g = ps - qr = +-1 acts by

    (g . f)(x, y) = f(p*x + r*y, q*x + s*y) / det g,

which preserves the discriminant and makes f and -f equivalent.  Orbits
of nondegenerate forms correspond to isomorphism classes of cubic rings;
the ring structure itself lives in `rings`.

Reduction theory: every orbit meets a finite, explicitly testable set of
"reduced" forms.  For disc > 0 the Hessian is positive definite and we use
its Gauss-reduced domain |Q| <= P <= R.  For disc < 0 the form has one real
root and a conjugate pair w, wbar; we call the form reduced when w lies in
the classical fundamental domain |Re w| <= 1/2, |w| >= 1.  Both conditions
are decided in exact integer arithmetic (the position of the real root
against a rational is the sign of a single form evaluation).  One loop,
`reduce_form`, reduces both signs: `_step` names its next move, a
translation into the strip, the swap off the unit circle or, for disc < 0,
the negation to a > 0, until the form is reduced.

The matrices carrying a reduced form to the reduced forms of its orbit
depend only on its boundary signature: which of the edges Re = -1/2,
Re = +1/2 and the arc |z| = 1 its point (the Hessian root for disc > 0,
w for disc < 0) lies on, each read off one integer equality.  The constant
table BOUNDARY_MATRICES lists them per signature, built from block heads:
each head h gives the block of four mat_mul(s, h) over the sign matrices s,
so the images of a block are the sign variants f, -f, (-a, b, -c, d),
(a, -b, c, -d) of one image and one `act` per block finds them.  The
largest is the canonical representative, and as the matrices split into
one coset of the stabilizer per reduced form, the table size over their
number is the stabilizer order.  `orbit_closure`, a breadth-first closure
under the matrices with entries in {-1, 0, 1}, finds the same matrices
independently and is kept as the oracle for that table.  No floating
point enters anywhere.
"""

from __future__ import annotations

import itertools
import os
from math import gcd
from typing import NamedTuple


class BinaryCubicForm(NamedTuple):
    a: int
    b: int
    c: int
    d: int

    def __str__(self) -> str:
        return "%d,%d,%d,%d" % self


class UnimodularMatrix(NamedTuple):
    p: int
    q: int
    r: int
    s: int

    @property
    def det(self) -> int:
        return self.p * self.s - self.q * self.r


class Hessian(NamedTuple):
    t: int
    s: int
    r: int
    content: int


MAT_ID = UnimodularMatrix(1, 0, 0, 1)
MAT_NEG = UnimodularMatrix(-1, 0, 0, -1)
MAT_SWAP = UnimodularMatrix(0, 1, 1, 0)

# All unimodular matrices with entries in {-1, 0, 1}.  They include every
# boundary identification of the fundamental domain, so the reduced forms
# of one orbit are connected under these moves.
SMALL_MATRICES = tuple(
    UnimodularMatrix(*m)
    for m in itertools.product((-1, 0, 1), repeat=4)
    if abs(m[0] * m[3] - m[1] * m[2]) == 1
)


def evaluate(form, x: int, y: int) -> int:
    a, b, c, d = form
    return a * x ** 3 + b * x * x * y + c * x * y * y + d * y ** 3


def disc(form) -> int:
    """b^2 c^2 - 4 a c^3 - 4 b^3 d - 27 a^2 d^2 + 18 a b c d."""
    a, b, c, d = form
    return (
        b * b * c * c
        - 4 * a * c ** 3
        - 4 * b ** 3 * d
        - 27 * a * a * d * d
        + 18 * a * b * c * d
    )


def mat_mul(g2, g1) -> UnimodularMatrix:
    p2, q2, r2, s2 = g2
    p1, q1, r1, s1 = g1
    return UnimodularMatrix(
        p2 * p1 + q2 * r1, p2 * q1 + q2 * s1, r2 * p1 + s2 * r1, r2 * q1 + s2 * s1
    )


def act(g, form) -> BinaryCubicForm:
    """Apply the twisted action; rejects non-unimodular matrices."""
    p, q, r, s = g
    det = p * s - q * r
    if det not in (1, -1):
        raise ValueError("matrix %r is not unimodular" % (tuple(g),))
    a, b, c, d = form
    a2 = evaluate(form, p, q)
    b2 = 3 * a * p * p * r + b * (p * p * s + 2 * p * q * r) + c * (2 * p * q * s + q * q * r) + 3 * d * q * q * s
    c2 = 3 * a * p * r * r + b * (2 * p * r * s + q * r * r) + c * (p * s * s + 2 * q * r * s) + 3 * d * q * s * s
    d2 = evaluate(form, r, s)
    return BinaryCubicForm(a2 // det, b2 // det, c2 // det, d2 // det)


def neg(form) -> BinaryCubicForm:
    a, b, c, d = form
    return BinaryCubicForm(-a, -b, -c, -d)


def is_zmat(form) -> bool:
    """True iff 3 | b and 3 | c (the triply symmetric cube has integer entries)."""
    return form[1] % 3 == 0 and form[2] % 3 == 0


def hessian(form) -> Hessian:
    """Quadratic covariant (b^2-3ac, bc-9ad, c^2-3bd) with its content."""
    a, b, c, d = form
    t = b * b - 3 * a * c
    s = b * c - 9 * a * d
    r = c * c - 3 * b * d
    return Hessian(t, s, r, gcd(gcd(t, s), r))


# ---------------------------------------------------------------------------
# Reduction

def _norm_sign(form):
    """Replace f by -f so that a > 0, or a = 0 and b > 0 (same orbit)."""
    a, b, c, d = form
    if a < 0 or (a == 0 and b < 0):
        return -a, -b, -c, -d
    return a, b, c, d


def is_reduced_pos(form) -> bool:
    a, b, c, d = form
    t = b * b - 3 * a * c
    if t < 1:
        return False
    s = b * c - 9 * a * d
    r = c * c - 3 * b * d
    return abs(s) <= t <= r


def is_reduced_neg(form) -> bool:
    a, b, c, d = _norm_sign(form)
    f = (a, b, c, d)
    if a == 0:
        if b == 0:
            return False
        return abs(c) <= b and d >= b
    # |Re w| <= 1/2: the real root lies in [-1 - b/a, 1 - b/a]
    if evaluate(f, a - b, a) < 0:
        return False
    if evaluate(f, -a - b, a) > 0:
        return False
    return _v_at_least_one(f)


class InvariantError(RuntimeError):
    """A mathematical invariant of the enumeration failed; raised
    explicitly so the check survives `python -O`."""


class BudgetExceeded(Exception):
    """A requested size is over the enumeration budget."""


DEFAULT_MAX_DISC = 1_000_000
BUDGET_ENV = "CUBICOUNT_BUDGET"


def disc_budget() -> int:
    """The cap on every enumerated |disc|: CUBICOUNT_BUDGET when set (the
    CLI sets it from --budget for one run), else DEFAULT_MAX_DISC.
    ValueError when the variable is set to anything but an integer >= 0."""
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return DEFAULT_MAX_DISC
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError("%s must be an integer >= 0, got %r" % (BUDGET_ENV, raw))
    return cap


def check_budget(x: int) -> None:
    """BudgetExceeded when x is over disc_budget()."""
    cap = disc_budget()
    if x > cap:
        raise BudgetExceeded("requested |disc| <= %d over budget %d" % (x, cap))


# The block heads of BOUNDARY_MATRICES.  _SIGNS are the four sign variants
# +-1, +-diag(1, -1); diag(1, -1) is the reflection z -> -conj z, which
# fixes the line Re = 0 pointwise, and the identity heads their block.
# _ARC adds z -> -1/z; _LEFT and _RIGHT add z -> z + 1 and z -> z - 1,
# which carry the edge Re = -1/2 or +1/2 onto its mirror edge.
# _LEFT_CORNER and _RIGHT_CORNER complete the 24 matrices at the corner on
# that edge: its stabilizer, of order 12, times its two reduced points.
_SIGNS = ((1, 0, 0, 1), (-1, 0, 0, -1), (1, 0, 0, -1), (-1, 0, 0, 1))
_ARC = ((0, 1, -1, 0),)
_LEFT = ((1, 0, -1, 1),)
_RIGHT = ((1, 0, -1, -1),)
_LEFT_CORNER = ((1, -1, -1, 0), (1, -1, 0, -1), (0, 1, -1, 1))
_RIGHT_CORNER = ((1, 1, -1, 0), (1, 1, 0, -1), (0, 1, -1, -1))

# Boundary signature (half, unit) of a reduced form -> every matrix g with
# act(g, f) reduced.  half: -1 or +1 on the edge Re = -1/2 or Re = +1/2,
# else 0; unit: on the arc |z| = 1.  The point is the Hessian root for
# disc > 0 and w for disc < 0, and one table serves both signs.  Each entry
# is a run of blocks of four, one per head h: mat_mul(s, h) for s in
# _SIGNS, which reduced_orbit relies on.
BOUNDARY_MATRICES = {
    key: tuple(mat_mul(s, h) for h in (MAT_ID,) + heads for s in _SIGNS)
    for key, heads in {
        (0, False): (),
        (-1, False): _LEFT,
        (1, False): _RIGHT,
        (0, True): _ARC,
        (-1, True): _ARC + _LEFT + _LEFT_CORNER,
        (1, True): _ARC + _RIGHT + _RIGHT_CORNER,
    }.items()
}


def boundary_signature(form, D=None) -> tuple:
    """(half, unit) of a reduced form, the key of BOUNDARY_MATRICES; D is
    disc(form), computed here unless the caller has it."""
    if D is None:
        D = disc(form)
    if D > 0:  # the Hessian (t, s, r)
        a, b, c, d = form
        t = b * b - 3 * a * c
        s = b * c - 9 * a * d
        return (s == -t) - (s == t), t == c * c - 3 * b * d
    a, b, c, d = _norm_sign(form)
    if a == 0:  # w = (-c +- sqrt(c^2 - 4bd)) / 2b
        return (c == -b) - (c == b), d == b
    # the roots sum to -b/a, so Re w = -k/2 exactly when f(k a - b, a) = 0,
    # and f(k a - b, a) = a^2 (k u^2 + c u + a d) with u = k a - b; |w| = 1
    # exactly when f(-d, a) = a d (a^2 - a c + b d - d^2) = 0 (c = a if d = 0)
    ad = a * d
    u, v = a + b, a - b
    half = (ad == u * (u + c)) - (ad == -v * (v + c))
    unit = c == a if d == 0 else a * (a - c) + b * d == d * d
    return half, unit


def _step(f, D):
    """The next move of the reduction of f, of disc D: a translation into
    the strip |Re| <= 1/2, the swap off the unit circle, MAT_NEG to a > 0
    (or a = 0 < b) when D < 0, or None once f is reduced.  The point is the
    Hessian root for D > 0 and w for D < 0, as in boundary_signature."""
    a, b, c, d = f
    if D > 0:  # the Hessian (t, s, r)
        t = b * b - 3 * a * c
        s = b * c - 9 * a * d
        if abs(s) > t:
            k = (t - s) // (2 * t)  # the nearest integer to -s/(2t)
        elif c * c - 3 * b * d < t:
            return MAT_SWAP
        else:
            return None
    elif a < 0 or (a == 0 and b < 0):
        return MAT_NEG
    elif a == 0:
        if abs(c) > b:
            k = (b - c) // (2 * b)  # the nearest integer to -c/(2b) = Re w
        elif d < b:
            return MAT_SWAP
        else:
            return None
    elif evaluate(f, -a - b, a) > 0 or evaluate(f, a - b, a) < 0:
        k = _round_re_w(f)
    elif not _v_at_least_one(f):
        return MAT_SWAP
    else:
        return None
    if k == 0:
        raise InvariantError("translation of %r by 0" % (tuple(f),))
    return UnimodularMatrix(1, 0, k, 1)


def _v_at_least_one(f) -> bool:
    """|w| >= 1 (a > 0), via the sign of a t^2 + b t + c - a at the real
    root."""
    a, b, c, d = f
    if d == 0:
        return c >= a
    val = evaluate(f, -d, a)
    return (val >= 0) if d < 0 else (val <= 0)


def _round_re_w(f) -> int:
    """An integer j with Re w in [j - 1/2, j + 1/2], where 2 Re w equals
    -(theta + b/a) and theta is the unique real root (a > 0).  Decided by
    exact sign tests of f at rationals, then the shift w -> w - j lands in
    the strip |Re| <= 1/2."""
    a, b = f[0], f[1]

    def lt(j):  # Re w < j + 1/2  <=>  theta > (-b - (2j+1) a)/a
        return evaluate(f, -b - (2 * j + 1) * a, a) < 0

    if lt(0):
        lo, hi, step = -1, 0, 1
        while lt(lo):
            hi = lo
            lo -= step
            step *= 2
    else:
        lo, hi, step = 0, 1, 1
        while not lt(hi):
            lo = hi
            hi += step
            step *= 2
    # smallest hi with (Re w < hi + 1/2); then Re w >= hi - 1/2 as well
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if lt(mid):
            hi = mid
        else:
            lo = mid
    return hi


def reduce_form(form):
    """Return (reduced_form, g) with act(g, form) == reduced_form: the
    moves of _step until it finds f reduced, which is_reduced_pos or
    is_reduced_neg then confirms."""
    D = disc(form)
    if D == 0:
        raise ValueError("degenerate form")
    f, g = BinaryCubicForm(*form), MAT_ID
    for _ in range(100000):
        step = _step(f, D)
        if step is None:
            if not (is_reduced_pos(f) if D > 0 else is_reduced_neg(f)):
                raise InvariantError("reduction of %r stopped at unreduced %r" % (tuple(form), tuple(f)))
            return f, g
        f = act(step, f)
        g = mat_mul(step, g)
    raise InvariantError("reduction did not terminate for %r" % (tuple(form),))


class OrbitClosure(NamedTuple):
    forms: frozenset
    matrices: dict  # UnimodularMatrix -> image form
    stabilizer_order: int
    proper_stabilizer_order: int


def orbit_closure(form) -> OrbitClosure:
    """All reduced forms in the orbit of a reduced form, found by closing
    under unimodular matrices with entries in {-1, 0, 1}, together with
    every matrix carrying the input to a reduced form."""
    f0 = tuple(form)
    pred = is_reduced_pos if disc(f0) > 0 else is_reduced_neg
    if not pred(f0):
        raise ValueError("orbit_closure wants a reduced form")
    seen = {MAT_ID: f0}
    queue = [(MAT_ID, f0)]
    while queue:
        g0, ff = queue.pop()
        for s in SMALL_MATRICES:
            g1 = mat_mul(s, g0)
            if g1 in seen:
                continue
            f1 = tuple(act(s, ff))
            if pred(f1):
                seen[g1] = f1
                queue.append((g1, f1))
                if len(seen) > 5000:
                    raise InvariantError("orbit closure blow-up at %r" % (form,))
    stab = sum(1 for ff in seen.values() if ff == f0)
    proper = sum(1 for g, ff in seen.items() if ff == f0 and g.det == 1)
    return OrbitClosure(frozenset(seen.values()), seen, stab, proper)


def reduced_orbit(form) -> frozenset:
    """The reduced forms of the orbit of the reduced form `form`, read from
    BOUNDARY_MATRICES: one `act` per block of four; the other images of
    the block are the sign variants of that one, which are reduced exactly
    when it is.  Raises InvariantError if an image is not reduced."""
    f0 = tuple(form)
    D = disc(f0)
    pred = is_reduced_pos if D > 0 else is_reduced_neg
    if not pred(f0):
        raise ValueError("reduced_orbit wants a reduced form")
    out = set()
    for g in BOUNDARY_MATRICES[boundary_signature(f0, D)][::4]:
        image = act(g, f0)
        if not pred(image):
            raise InvariantError(
                "%r maps reduced %r to unreduced %r" % (tuple(g), f0, tuple(image))
            )
        a, b, c, d = image
        flip = BinaryCubicForm(-a, b, -c, d)
        out.update((image, neg(image), flip, neg(flip)))
    return frozenset(out)


def reduced_stabilizer_order(form, orbit) -> int:
    """|Stab| of the reduced form `form` from the N reduced forms `orbit` of
    its orbit: its BOUNDARY_MATRICES entry M holds one stabilizer coset per
    form, so |Stab| = |M| / N, an InvariantError unless in {1, 2, 3, 6}."""
    size = len(BOUNDARY_MATRICES[boundary_signature(form)])
    n, r = divmod(size, len(orbit))
    if r or n not in (1, 2, 3, 6):
        raise InvariantError("stabilizer of %r has order %d/%d" % (tuple(form), size, len(orbit)))
    return n


def canonicalize(form) -> BinaryCubicForm:
    """Deterministic orbit representative: the lexicographically largest
    reduced form in the orbit.  Two forms are GL2(Z)-equivalent iff their
    canonical representatives coincide."""
    f, _ = reduce_form(form)
    return max(reduced_orbit(f))


def stabilizer_order(form) -> int:
    """|Aut C| of the associated cubic ring; always in {1, 2, 3, 6}."""
    f, _ = reduce_form(form)
    return reduced_stabilizer_order(f, reduced_orbit(f))
