"""Orbit enumeration by bounded discriminant and the weighted class numbers.

h(D) counts GL2(Z)-orbits of integral binary cubic forms of discriminant D,
each weighted by 1/|stabilizer|; hhat(D) does the same over forms with
3 | b, 3 | c at discriminant -27 D.  Everything is exact: enumeration is
integer-only, and the weights are added as integer sixths (every
stabilizer order divides 6) and turned into fractions.Fraction at the end.

The primary enumeration scans the reduced domains of `forms`, (a, b, c)
within proven bounds, and yields the d-intervals (a, b, c, lo, hi) that
hold each sign class once: of the four sign variants f, -f,
(-a, b, -c, d), (a, -b, c, -d) of a reduced form only the
lexicographically largest.  `_scanned` is the one loop over d, and its
per-form step (the disc, its range check, the boundary signature, the
number k of sign variants) feeds two tables:

  sixths_table  disc -> the integer sum of 6/|stabilizer|, one cached
                table per kind: "plain" 6 h(disc), "zmat" (3 | b, c)
                6 hhat(-disc/27), "fields" over the field forms, which are
                the scanned forms with a != 0, |disc| > 4 and
                `rings.is_maximal` (proof at _A0_EDGE), so no
                irreducibility test runs.  The counts path keeps no form
                and acts on none: by orbit-stabilizer a scanned form weighs
                6k/|M| for its k sign variants and its matrices M in
                `forms.BOUNDARY_MATRICES`.  Every count is read by h_value(D,
                kind), and class_numbers reads two whole tables: no command
                builds an Orbit, and no other module knows the sixths.
  orbit_table   disc -> tuple of Orbit (canonical form, stabilizer
                order: |M|/k when the orbit is f's sign class, else from
                reduced_orbit), built on every call; it serves only
                enumerate_orbits and the ring-side code.

A secondary coefficient-box method (`box_orbits`: reduce everything in a
box, close each form's orbit by breadth-first search, keep each orbit's
largest form and the closure's stabilizer count) exists purely as a
correctness oracle: verify oracle checks sixths_table against it.
Also here: the local subring-count sequence s_n with its seed table, closed
form and three-term recursion, the induced subring counter for maximal
forms, the discriminant recursions relating h(p^6 D) to h(p^4 D), h(D),
h(D/p^2), and Dirichlet coefficient tables for the four associated series.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import isqrt
from types import MappingProxyType
from typing import NamedTuple

from .forms import (
    BOUNDARY_MATRICES,
    BinaryCubicForm,
    InvariantError,
    boundary_signature,
    check_budget,
    disc,
    is_reduced_neg,
    is_reduced_pos,
    orbit_closure,
    reduced_orbit,
    reduced_stabilizer_order,
)
from .quad import factorize, in_discs, require_prime
from .rings import _local_type, is_maximal

def _i4root(n):
    return isqrt(isqrt(n)) if n > 0 else 0


def _icbrt(n):
    """Largest r with r**3 <= n (0 for n <= 0), by integer Newton steps
    from 2**ceil(bits/3), which is above the root."""
    if n <= 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _ceil_div(a, b):
    return -((-a) // b)


# ---------------------------------------------------------------------------
# Reduced-domain scans.  Each yields d-intervals (a, b, c, lo, hi), possibly
# empty, whose forms (a, b, c, d), lo <= d <= hi, are every reduced form
# with the requested discriminant sign and 0 < |disc| <= X that is the
# largest of its four sign variants: b >= 0, and d >= 0 when b = 0, for
# a >= 1; b > 0 and c >= 0 for a = 0.  (Negation, and the reflection
# diag(1, -1), map reduced forms to reduced forms.)  Each condition on d is
# an interval, or an open band that `_cut` takes out.  For a >= 1,
# D(d) = -27 a^2 d^2 + bq d + gq is the disc: 108 a^2 D(d) =
# e - (54 a^2 d - bq)^2 with e = bq^2 + 108 a^2 gq.

def _cut(spans, m, k, r):
    """The inclusive d-intervals of spans, in order, without the open band
    (m d - k)^2 < r (m >= 1): the d with |m d - k| <= isqrt(r - 1)."""
    if r <= 0:
        return spans
    s = isqrt(r - 1)
    lo, hi = _ceil_div(k - s, m), (k + s) // m
    out = []
    for dl, dh in spans:
        if dl < lo:
            out.append((dl, min(dh, lo - 1)))
        if dh > hi:
            out.append((max(dl, hi + 1), dh))
    return out


def _scan_pos(X, zmat):
    step = 3 if zmat else 1
    Pmax = isqrt(X)
    # a = 0: P = b^2, Q = bc, R = c^2 - 3bd.  0 <= c <= b gives |Q| <= P,
    # and d in [dl, dh] is P <= R <= Rhi, so 3X >= 4PR - Q^2 >= 3P^2 >= 3
    for b in range(step, isqrt(Pmax) + 1, step):
        P = b * b
        for c in range(0, b + 1, step):
            Rhi = (3 * X + P * c * c) // (4 * P)
            dl = _ceil_div(c * c - Rhi, 3 * b)
            dh = (c * c - P) // (3 * b)
            yield 0, b, c, dl, dh
    amax = isqrt((4 * isqrt(X)) // 27) + 2
    for a in range(1, amax + 1):
        a2 = a * a
        a9 = 9 * a
        a54 = 54 * a2
        bmax = isqrt(Pmax) + (3 * a) // 2 + 2
        for b in range(0, bmax + 1, step):
            # 1 <= P = b^2 - 3ac <= Pmax
            cl = _ceil_div(b * b - Pmax, 3 * a)
            ch = (b * b - 1) // (3 * a)
            if zmat:
                cl += (-cl) % 3
            for c in range(cl, ch + 1, step):
                P = b * b - 3 * a * c
                bc = b * c
                # |Q| <= P and R >= P, with Q = bc - 9ad and R = c^2 - 3bd
                dl = _ceil_div(bc - P, a9)
                dh = (bc + P) // a9
                if b:
                    dh = min(dh, (c * c - P) // (3 * b))
                elif c * c < P:
                    continue
                else:
                    dl = max(dl, 0)
                # minus the band D(d) > X; R >= P >= |Q| then gives
                # 4PR - Q^2 = 3 D(d) >= 3P^2 >= 3
                bq = 18 * a * bc - 4 * b ** 3
                e = bq * bq + 108 * a2 * (bc * bc - 4 * a * c ** 3)
                for lo, hi in _cut([(dl, dh)], a54, bq, e - 108 * a2 * X):
                    yield a, b, c, lo, hi


def _scan_neg(X, zmat):
    step = 3 if zmat else 1
    # a = 0 family: (0, b, c, d), b >= 1, 0 <= c <= b, d >= b, so
    # disc = b^2 (c^2 - 4bd) <= -3b^4, and d <= dhi is disc >= -X
    bmax = _i4root(X // 3) + 2
    for b in range(step, bmax + 1, step):
        bb = b * b
        for c in range(0, b + 1, step):
            dhi = (X // bb + c * c) // (4 * b)
            yield 0, b, c, b, dhi
    # a >= 1.  Write f(x, 1) = a (x - theta)(x - w)(x - conj w) with
    # u = Re w, v = Im w > 0.  Then b/a = -theta - 2u,
    # c/a = -2u b/a - 3u^2 + v^2 and |disc| = 4 a^4 v^2 |theta - w|^4.
    # Reduced means |u| <= 1/2 and |w| >= 1, so v^2 >= 3/4 and
    # |theta - u| <= |theta - w| <= (X / (3 a^4))^(1/4) <= T, which gives
    # 0 <= b <= a T + 3a/2.  As |2u| <= 1 and -3u^2 + v^2 = |w|^2 - 4u^2
    # lies in [0, v^2], c/a lies in [-b/a, b/a + v^2]; and
    # |disc| >= 4 a^4 v^6 gives v^2 <= M2.  So -b <= c <= b + a M2.
    amax = _i4root((16 * X) // 27) + 1
    for a in range(1, amax + 1):
        a2 = a * a
        a3 = a2 * a
        a4 = a2 * a2
        a54 = 54 * a2
        T = _i4root(X // (3 * a4)) + 1
        M2 = _icbrt(X // (4 * a4)) + 1
        for b in range(0, a * T + (3 * a) // 2 + 1, step):
            amb = a - b
            apb = a + b
            K1base = a * amb ** 3 + a * b * amb * amb
            K2base = -a * apb ** 3 + a * b * apb * apb
            for c in range(-b, b + a * M2 + 1, step):
                # d window from the strip condition |Re w| <= 1/2
                K1 = K1base + a2 * c * amb
                K2 = K2base - a2 * c * apb
                dl = -(K1 // a3)
                dh = (-K2) // a3
                if b == 0 and dl < 0:
                    dl = 0
                # and from D(d) >= -X: |54 a^2 d - bq| <= isqrt(dq)
                bq = 18 * a * b * c - 4 * b ** 3
                e = bq * bq + 108 * a2 * (b * b * c * c - 4 * a * c ** 3)
                dq = e + 108 * a2 * X
                if dq < 0:
                    continue
                rt = isqrt(dq)
                dl = max(dl, _ceil_div(bq - rt, a54))
                dh = min(dh, (bq + rt) // a54)
                # minus the band D(d) >= 0, and minus the band |w| < 1: as
                # d^2 - b d + a c - a^2 = a^2 (|w|^2 - 1) |theta w - 1|^2,
                # |w| >= 1 is (2d - b)^2 >= b^2 - 4a (c - a)
                spans = _cut([(dl, dh)], a54, bq, e + 1)
                for lo, hi in _cut(spans, 2, b, b * b - 4 * a * (c - a)):
                    yield a, b, c, lo, hi


class Orbit(NamedTuple):
    """One GL2(Z)-orbit: canonical form, stabilizer order."""

    form: BinaryCubicForm
    stabilizer_order: int

    def __repr__(self):
        return "Orbit(%s, stab=%d)" % (self.form, self.stabilizer_order)


# the kinds of counts table, and kind -> (X, read-only sixths table to X);
# a call with a smaller X gets the cached table
_KINDS = ("plain", "zmat", "fields")
_SIXTHS_CACHE = {}

# The boundary signature of a scanned a = 0 form with c = b (the edge
# Re = -1/2), off the arc.  The reflection in that edge, (1, 0, 1, -1),
# fixes f, so every image under the signature's matrices is a sign variant
# of f: f is its orbit's largest reduced form, with stabilizer order 2.
#
# So a scanned form f = (a, b, c, d) of disc D is a field form (its ring
# is the maximal order of a cubic field) exactly when a != 0, |D| > 4 and
# f is maximal.  A field form is irreducible, so a != 0, and no cubic
# field has |disc| < 23.  Conversely a reducible maximal ring of disc D
# is Z x O_D (D fundamental) or Z^3 (D = 1), and its orbit holds the
# reduced form g = (0, 1, r, (r - D)/4), r = D mod 2: y times the
# principal quadratic form of disc D.  Unless D is 1, -3 or -4, g's
# boundary signature is (0, False) or _A0_EDGE, so every reduced form of
# that orbit is a sign variant of g and has a = 0: a maximal f with
# a != 0 and |D| > 4 is irreducible.
_A0_EDGE = (-1, False)


def _scanned(X, zmat_only):
    """(disc, form, boundary signature, k) of every form of the scanned
    d-intervals, in scan order, checking 0 < |disc| <= X: the one d loop,
    and the per-form step of both tables.  k is the number of distinct
    sign variants of the form: 2 when it equals (-a, b, -c, d) (a = c = 0)
    or (a, -b, c, -d) (b = d = 0), else 4."""
    for a, b, c, lo, hi in chain(_scan_pos(X, zmat_only), _scan_neg(X, zmat_only)):
        for d in range(lo, hi + 1):
            f = a, b, c, d
            D = disc(f)
            if not 0 < abs(D) <= X:
                raise InvariantError("scanned %r has disc %d outside 0 < |disc| <= %d" % (f, D, X))
            k = 2 if a == c == 0 or b == d == 0 else 4
            yield D, f, boundary_signature(f, D), k


def _check_bound(X):
    """ValueError when X < 0, BudgetExceeded when X is over the budget."""
    if X < 0:
        raise ValueError("X must be >= 0, got %d" % X)
    check_budget(X)


def orbit_table(X: int, zmat_only: bool = False):
    """Mapping disc -> tuple of Orbit sorted by form, for all
    0 < |disc| <= X, built afresh on every call."""
    _check_bound(X)
    table = {}
    for D, f, sig, k in _scanned(X, zmat_only):
        size = len(BOUNDARY_MATRICES[sig])
        # the orbit is f's sign class when only the four sign matrices keep
        # f reduced, or on the a = 0 edge, and the scan yields its largest
        if size == 4 or f[0] == 0 and sig == _A0_EDGE:
            stab = size // k
        else:
            orbit = reduced_orbit(f)
            if max(orbit) != f:
                continue
            stab = reduced_stabilizer_order(f, orbit)
        table.setdefault(D, []).append(Orbit(BinaryCubicForm(*f), stab))
    return {D: tuple(sorted(orbs)) for D, orbs in table.items()}


def _build_sixths_table(X, kind):
    # in 24ths a scanned form adds 24 k/|M| for its k sign variants, and an
    # orbit 24/|stabilizer|: four times its sixths
    table = {}
    for D, f, sig, k in _scanned(X, kind == "zmat"):
        if kind != "fields" or f[0] and abs(D) > 4 and is_maximal(f):
            table[D] = table.get(D, 0) + 24 * k // len(BOUNDARY_MATRICES[sig])
    for D, n in table.items():
        if n % 4:
            raise InvariantError("weights at disc %d sum to %d/24" % (D, n))
        table[D] = n // 4
    return table


def _check_kind(kind):
    if kind not in _KINDS:
        raise ValueError("unknown counts table kind %r" % (kind,))


def sixths_table(X: int, kind: str = "plain"):
    """Read-only mapping disc -> the integer sum of 6/|stabilizer| over the
    orbits of that disc in the table of kind ("plain", "zmat" or "fields";
    else ValueError), for every disc with 0 < |disc| <= X that has one.  No
    Orbit is built and no form kept.  Cached, and returned for any X up to
    its bound, so it may hold discs beyond X; a larger X rebuilds it to X."""
    _check_kind(kind)
    _check_bound(X)
    cached = _SIXTHS_CACHE.get(kind)
    if cached is None or cached[0] < X:
        cached = _SIXTHS_CACHE[kind] = X, MappingProxyType(_build_sixths_table(X, kind))
    return cached[1]


def enumerate_orbits(X: int, zmat_only: bool = False):
    """Canonical representatives of all orbits with 0 < |disc| <= X,
    sorted by (disc, form); exactly one per orbit."""
    table = orbit_table(X, zmat_only)
    out = []
    for D in sorted(table):
        for orb in table[D]:
            out.append(orb.form)
    return out


def h_value(D: int, kind: str = "plain") -> Fraction:
    """The count of kind at D, 0 off Discs: h(D) ("plain"), hhat(D) ("zmat",
    read at disc -27 D) or the field orbits' part of h(D) ("fields")."""
    _check_kind(kind)
    if not in_discs(D):
        return Fraction(0)
    if kind == "zmat":
        D *= -27
    return Fraction(sixths_table(abs(D), kind).get(D, 0), 6)


def class_numbers(X: int):
    """dict D -> (h(D), hhat(D)) for every discriminant 0 < |D| <= X, D
    ascending, exact rationals.  No other D has an orbit: a cubic form's
    disc is 0 or 1 mod 4, and -27 D = D mod 4."""
    check_budget(27 * X)
    h6 = sixths_table(X)
    hh6 = sixths_table(27 * X, "zmat")
    # one Fraction per distinct count, shared (a Fraction is immutable)
    frac = {n: Fraction(n, 6) for n in {0, *h6.values(), *hh6.values()}}
    return {
        D: (frac[h6.get(D, 0)], frac[hh6.get(-27 * D, 0)])
        for D in range(-X, X + 1)
        if in_discs(D)
    }


# ---------------------------------------------------------------------------
# Secondary enumeration oracle: coefficient box + orbit-closure dedup

def box_orbits(X: int):
    """Independent re-enumeration for cross-checking: close the orbit of
    each reduced form of `box_reduced_forms` by breadth-first search (not
    the boundary-matrix table the primary scan uses) and keep its largest
    form with the closure's own stabilizer count.  Returns dict disc ->
    {canonical form: stabilizer order}.  The budget is checked by
    `box_reduced_forms`, before the first form."""
    reps = {}
    for D, f in box_reduced_forms(X):
        closure = orbit_closure(f)
        reps.setdefault(D, {})[max(closure.forms)] = closure.stabilizer_order
    return reps


def box_reduced_forms(X: int, zmat_only: bool = False):
    """Yield (disc, form) for every reduced form with 0 < |disc| <= X, a >= 0
    and b > 0 when a = 0 (3 | b, c when zmat_only), by testing each form of
    a coefficient box guaranteed to contain them all.  ValueError when
    X < 0; the budget is checked before the first form."""
    _check_bound(X)
    step = 3 if zmat_only else 1
    amax = max(_i4root((16 * X) // 27) + 1, isqrt((4 * isqrt(X)) // 27) + 2)
    T = _i4root(X // 3) + 1
    M2 = _icbrt(X // 4) + 1
    tmax = T + isqrt(M2) + 2
    vmax = M2 + 1
    bmax = max(amax * (tmax + 1) + 1, isqrt(isqrt(X)) + (3 * amax) // 2 + 2)
    cmax = max(amax * (vmax + tmax) + 1, bmax)
    # the a = 0 families have d up to about X/4 (worst case b = 1)
    dmax = max(amax * tmax * vmax + 1, (X + 1) // 4 + 2, cmax)
    for a in range(0, amax + 1):
        for b in range(-(bmax // step) * step, bmax + 1, step):
            if a == 0 and b <= 0:
                continue
            for c in range(-(cmax // step) * step, cmax + 1, step):
                for d in range(-dmax, dmax + 1):
                    f = (a, b, c, d)
                    D = disc(f)
                    if D == 0 or abs(D) > X:
                        continue
                    if is_reduced_pos(f) if D > 0 else is_reduced_neg(f):
                        yield D, f


# ---------------------------------------------------------------------------
# Local subring counts

_S1 = {"111": 3, "12": 1, "3": 0, "1^2 1": 2, "1^3": 1}
_S2 = {"111": 4, "12": 2, "3": 1, "1^2 1": 2, "1^3": 1}


@lru_cache(maxsize=1024)
def s_sequence(sigma: str, p: int, n: int) -> int:
    """Number of index-p^n subrings of a maximal ring with splitting type
    sigma at p, by the three-term recursion seeded from the table.
    ValueError unless p is a prime.  Memoized on (sigma, p, n): the
    recursion and its check against the closed form run once per distinct
    argument, and a bad argument raises on every call (a raised error is
    not cached)."""
    if sigma not in _S1:
        raise ValueError("unknown splitting type %r" % (sigma,))
    require_prime(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    seq = [0, 0, 1, _S1[sigma], _S2[sigma]]  # s_{-2} s_{-1} s_0 s_1 s_2
    while len(seq) < n + 3:
        m = len(seq)
        # s_{k+3} = s_{k+2} + p (s_k - s_{k-1}) with k = m - 5
        seq.append(seq[m - 1] + p * (seq[m - 3] - seq[m - 4]))
    val = seq[n + 2]
    if val != s_closed_form(sigma, p, n):
        raise InvariantError("s_%d(%s, p=%d) = %d disagrees with the closed form" % (n, sigma, p, val))
    return val


def s_closed_form(sigma: str, p: int, n: int) -> int:
    """Explicit solution of the recursion with floor-of-thirds exponents."""
    s1, s2 = _S1[sigma], _S2[sigma]
    num = (
        p ** ((n + 3) // 3) - 1
        + (s1 - 1) * (p ** ((n + 2) // 3) - 1)
        + (s2 - s1) * (p ** ((n + 1) // 3) - 1)
    )
    if num % (p - 1):
        raise InvariantError("closed form for s_%d(%s, p=%d) is not an integer" % (n, sigma, p))
    return num // (p - 1)


def subring_count(form, m: int) -> int:
    """Number of index-m subrings of the maximal ring of `form`, multiplied
    out prime by prime; requires maximality at every prime dividing m."""
    if m < 1:
        raise ValueError("index must be positive")
    total = 1
    for p, v in factorize(m).items():
        sigma = _local_type(form, p)
        if sigma is None:
            raise ValueError("form not maximal at %d" % p)
        total *= s_sequence(sigma, p, v)
    return total


# ---------------------------------------------------------------------------
# Identity reports and the discriminant recursions

def report(check: str, delta: int, lhs, rhs, passed=None, **extra) -> dict:
    """One identity check at one delta, the row every check returns:
    passed defaults to lhs == rhs; extra keys go after delta."""
    return {"check": check, "delta": delta, **extra, "lhs": lhs, "rhs": rhs,
            "pass": lhs == rhs if passed is None else passed}


def check_on(D: int) -> dict:
    """The pairing identity at D: hhat(D) against 3 h(D) for D > 0, h(D)
    for D < 0.  ValueError unless D is a discriminant."""
    if not in_discs(D):
        raise ValueError("D must lie in Discs")
    hh, h = h_value(D, "zmat"), h_value(D)  # hhat first: its 27 |D| budget check precedes any build
    return report("on", D, hh, 3 * h if D > 0 else h)


def check_recursion(D: int, p: int, include_hhat: bool = True):
    """Evaluate h(p^6 D) = h(p^4 D) + p (h(D) - h(D/p^2)) and, optionally,
    the same identity for hhat, each term read by h_value (0 off Discs),
    h(p^6 D) first so that one table per variant serves them all.  Returns
    report dicts; ValueError unless D is in Discs and p is a prime."""
    if not in_discs(D):
        raise ValueError("D must lie in Discs")
    require_prime(p)
    reports = []
    for name, kind in [("h", "plain")] + ([("hhat", "zmat")] if include_hhat else []):
        lhs = h_value(D * p ** 6, kind)
        small = h_value(D // (p * p), kind) if D % (p * p) == 0 else 0
        rhs = h_value(D * p ** 4, kind) + p * (h_value(D, kind) - small)
        reports.append(report("recursion-%s" % name, D, lhs, rhs, p=p))
    return reports


# ---------------------------------------------------------------------------
# Dirichlet coefficient tables

def zeta_coefficients(X: int):
    """First X coefficients of the four series, exact rationals, 1-indexed.

    zeta_plus[n]  = h(n),   zeta_minus[n] = h(-n);
    zhat_plus[n]  = hhat(-n)  (forms of positive discriminant 27 n),
    zhat_minus[n] = hhat(n)   (forms of discriminant -27 n),
    i.e. the 3^{3s} rescaling reindexes the hat series by n = |disc|/27.
    The pairwise identities are then zhat_plus == zeta_minus and
    zhat_minus == 3 * zeta_plus, entry by entry."""
    names = ("zeta_plus", "zeta_minus", "zhat_plus", "zhat_minus")
    z = {name: [Fraction(0)] * (X + 1) for name in names}
    for D, (h, hh) in class_numbers(X).items():
        z["zeta_plus" if D > 0 else "zeta_minus"][abs(D)] = h
        z["zhat_minus" if D > 0 else "zhat_plus"][abs(D)] = hh
    return z


# ---------------------------------------------------------------------------
# Serialization

def frac_str(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator)
