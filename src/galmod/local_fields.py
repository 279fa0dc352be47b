"""Concrete p-adic instances: cyclic towers over Q_p and their class data.

A tower kind is one function in KINDS.  kind(p, n) returns (deg, e,
xi_in_F, data) at once, or refuses (p, n); data() returns integer
polynomials in the generator x: the defining polynomial, r (the residue
field is F_p[x]/(r), of degree f = deg/e), pi (x, for an Eisenstein
defining polynomial, or p), sigma(x) (None for the Hensel-lifted
Frobenius root), each level's (pi_i, e(K_i/Q_p)), (zeta, its order) or
None, and the top Kummer generator a_(n-1) or None.  The constructor
calls data() after its size and precision bounds, and runs the same steps
and checks on every kind.  Unramified towers (p odd, no p-th root of
unity in the base) have e = 1, pi = p, sigma the Frobenius and no zeta;
cyclotomic towers adjoin p-power roots of unity (for p = 2 the base is
Q_2(i) and sigma is zeta -> zeta^5) in the basis x = zeta - 1: f = 1,
r = x, pi = x.  The residue field of K_i is the subspace of F_p[x]/(r)
fixed by Frobenius^(f_i), f_i its residue degree.

An element is a value (val, unit, aprec) in the top field K: the
floating form pi^val * unit, the unit being a polynomial in x with
coefficients modulo p^cp, and an absolute precision bound aprec (in
pi-digits, inf when exact): the represented value is guaranteed modulo
pi^aprec.  cp = ceil(precision/e) + floor(p/(p-1)) p-adic digits: the
asked pi-digits, and the floor(jstar/e) digits that the critical level
jstar = pe/(p-1) spans past them.  A class walk reads u - 1 from its
coefficients, with no product, and raises PrecisionError when u - 1
reads zero to fewer pi-digits than jstar needs.  The tower does all
arithmetic on elements, and nothing it keeps refers back to it.
Addition that cancels past the bound collapses to an exact
zero-at-precision, which is what equality tests consume.  The generator
x is pi or a unit, so valuations read off coefficients exactly.  A unit
is an array of the tower's ring (below), and elements compare by
``eq``, not by ==.

Unit arithmetic is polynomial multiplication in a ring (Z/m)[x]/(f) of
degree d.  ``_poly_mulmod`` convolves the residues, reduces mod m, and
folds the high half back with one product by the table of x^k mod f; no
value then exceeds d(m-1)^2.  A ``_Ring`` checks the bound
d(m-1)^2 < 2^63 once and holds the table in int64 under it and in Python
ints (dtype object) past it.  A polynomial of the ring is an array of d
residues in that dtype, and every step runs on it: the integer
polynomials of a kind enter the tower's ring in ``_reduce``, and a
polynomial moves to another ring only through ``_Ring.cast``.  Whoever
multiplies modulo (f, m) builds the ring once and keeps it.  A tower
keeps two rings: its own, mod p^cp, and F_p[x]/(r) for residues.
Division by pi^t (``_strip``) and multiplication by pi^delta (``_shift``)
run in the tower's ring.  When pi = p, ``_strip`` divides by p^t
directly and ``_shift`` multiplies by the integer p^delta mod p^cp.  When
pi = x, pi^e = p*u for the unit u = -(a_0 + ... + a_(d-1) x^(d-1))/p of
the Eisenstein polynomial, and for t = e*v + k both are shifts of the
coefficients by k, a division or product by p^v, and at most two
products by powers u^j, which the tower keeps by j, of both signs.
``inv`` runs Newton's iteration v -> v(2 - uv) and stops once uv = 1,
where further rounds leave v unchanged.  ``powi`` and ``_poly_powmod``
square and multiply by ``fl.power``, with no product by one and no
square after the top bit.  All of this is exact: results are
the same residues the schoolbook product gives.  The residue field
F_q = F_p[x]/(r) has one method beside its ring, the matrix of
Frobenius c -> c^p: an inverse is the product of the conjugates divided
by the norm, which lies in F_p, a p-th root is Frobenius^(f-1), and
Berlekamp's rank criterion on the same matrix decides irreducibility.
Newton's iteration finds the Hensel-lifted Frobenius root.  A Teichmuller
lift is one closed formula, omega(r) = phi^(-k)(w^(p^k)) for any lift w
of r and k = cp - 1: one power and one sigma^(-k), as sigma is the
Frobenius phi when f > 1, which the constructor checks on sigma(x) mod p.
A residue in F_p lifts as the integer r^(p^k) mod p^cp.

sigma is fixed by g = sigma(x), the cyclotomic power (1 + x)^u - 1 or
the Hensel-lifted Frobenius root.  sigma is stored as the d x d matrix,
in the ring's dtype, whose column j is g^j, and sigma^k = sigma sigma^(k-1)
mod m; each is applied to a unit as one matrix-vector product mod m.
The order p^n of sigma is checked on g_k - x alone, g_k = sigma^k(x)
being column 1 of sigma^k, at its tracked precision in pi-digits.

Class computation per level walks the unit filtration 1 + pi_i^j: free
cancellation through p-th powers below the critical level j = pe/(p-1),
an additive Artin-Schreier step c -> c^p + eta*c at the critical level,
and a new basis class at each remaining slot.  Each step reads the level
and leading residue of u - 1 from the coefficients of w = unit - 1, with
no product: w has valuation t = e*v + k, and its lead is (w / p^v)[:f]
mod p when pi = p, or (w_k / p^v) u^-v mod p when pi = x, for the unit
u of pi^e = p*u.  Each step solves the system of its level s (the leads
of the basis records at s beside the free map at s) by one matrix-vector
product: the level factors that system once per (s, number of records at
s).  Each level also keeps the factors its walk cancels with, built on
first use: the pair (base, base^-p) of a free cancellation by (level s,
solved coordinates mod p), and the power c of the inverse of unit basis
record idx by (idx, c).
The class basis is built from pi_i^j as a running product, with each
residue basis vector lifted once.  Membership in the p-th
powers is decided by the same walk at the top level (pth_root): x is a
p-th power iff the walk leaves no class coordinate and no uncancelled
level, and the root is assembled from the Teichmuller root of the
leading residue, the bases of the p-th powers the walk divided out, and
the p-th root of the deep remainder (``_deep_root``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate, product, repeat

import numpy as np

from . import fp_linalg as fl
from . import gmod
from .datum import GaloisDatum, LevelData
from .fp_linalg import Array

# the largest accepted precision, as a multiple of the default 4e + 24
PRECISION_FACTOR = 8


class PrecisionError(ArithmeticError):
    """A read or exact division fell outside the precision window."""


class NotPthPower(ValueError):
    """pth_root was given an element that is not a p-th power."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (arrays of d residues modulo m)


class _Ring:
    """(Z/m)[x]/(f) for monic f of degree d, laid out for _poly_mulmod.

    table is the (d-1) x d matrix whose row k is x^(d+k) mod f.  Its
    dtype is int64 while d(m-1)^2 < 2^63, and object (Python ints) past
    that bound; a polynomial of the ring is an array of its d residues
    in that dtype.  Whoever multiplies modulo (f, m) builds the ring once
    and keeps it.
    """

    def __init__(self, f: list[int], m: int):
        self.f, self.m, self.d = [c % m for c in f], m, len(f) - 1
        d, f = self.d, self.f
        reductions = []
        row = [(-c) % m for c in f[:d]]  # x^d
        for _ in range(d - 1):
            reductions.append(row)
            top = row[-1]
            row = [(-top * f[0]) % m] + [(row[j - 1] - top * f[j]) % m for j in range(1, d)]
        dtype = np.int64 if d * (m - 1) ** 2 < fl._INT64_EXACT else object
        self.table = np.array(reductions, dtype=dtype).reshape(d - 1, d)
        self.one = self.cast(np.ones(1, dtype=np.int64))
        self.one.flags.writeable = False  # shared: no product writes to an operand

    def cast(self, a: Array) -> Array:
        """An integer array of at most d entries, such as another ring's
        residues, as residues of this ring in its dtype, padded with zeros
        to length d: the one place a polynomial moves between rings."""
        out = np.zeros(self.d, dtype=self.table.dtype)
        out[: len(a)] = (a.astype(object) if out.dtype == object else a) % self.m
        return out


def _poly_mulmod(a: Array, b: Array, ring: _Ring) -> Array:
    """a*b in the ring, for a and b polynomials of it.

    The residues are convolved, reduced mod m, and the coefficients of
    degree >= d are folded back by one product with the table of x^k
    mod f.  No value exceeds d(m-1)^2, so under the ring's bound every
    step is exact in int64; past it the same steps run on Python integers.
    """
    d, m = ring.d, ring.m
    if len(a) != d or len(b) != d:
        raise ValueError("operand length is not deg f")
    prod = np.convolve(a, b)
    prod %= m
    low = prod[:d]
    if d > 1:
        low += prod[d:] @ ring.table
        low %= m
    return low


def _poly_powmod(a: Array, e: int, ring: _Ring) -> Array:
    """a^e in the ring, e >= 0, by fl.power."""
    if e == 0:
        return ring.one
    return fl.power(a, e, lambda x, y: _poly_mulmod(x, y, ring))


def _poly_invmod(a: Array, v: Array, ring: _Ring, digits: int) -> Array:
    """a^-1 in the ring by Newton's iteration v -> v(2 - av), from v a
    lift of the inverse of a's residue.  Each round doubles the pi-adic
    valuation of 1 - av, so ceil(log2(digits)) + 2 rounds reach the
    modulus, which holds that many pi-digits; it stops once av = 1,
    where further rounds leave v unchanged."""
    m = ring.m
    for _ in range(max(3, math.ceil(math.log2(digits)) + 2)):
        av = _poly_mulmod(a, v, ring)
        if np.array_equal(av, ring.one):
            break
        two_minus = -av % m
        two_minus[0] = (two_minus[0] + 2) % m
        v = _poly_mulmod(v, two_minus, ring)
    return v


def _cyclotomic_shifted(p: int, power: int) -> list[int]:
    """Coefficients of Phi_{p^power}(x + 1), Eisenstein with constant p."""
    step = p ** (power - 1)
    phi = {0: 1, step: 1} if p == 2 else {t * step: 1 for t in range(p)}
    out = [0] * (max(phi) + 1)
    for k, coef in phi.items():
        for j in range(k + 1):
            out[j] += coef * math.comb(k, j)
    return out


def _frobenius_matrix(ring: _Ring) -> Array:
    """The matrix of c -> c^p on F_p[x]/(f), for ring = _Ring(f, p):
    column j is x^(jp); [[1]] when d = 1."""
    cols = [ring.one]
    if ring.d > 1:
        xp = _poly_powmod(ring.cast(np.array([0, 1])), ring.m, ring)
        while len(cols) < ring.d:
            cols.append(_poly_mulmod(cols[-1], xp, ring))
    return np.stack(cols, axis=1)


def _gf_irreducible(f: list[int], p: int) -> bool:
    """Berlekamp's criterion for monic f of degree d over F_p, on the
    Frobenius matrix Q: x^(p^d) = x mod f, which makes f squarefree, and
    rank(Q - 1) = d - 1, as Q fixes one copy of F_p per irreducible
    factor of a squarefree f."""
    d = len(f) - 1
    if d == 1:
        return True
    q = _frobenius_matrix(_Ring(f, p))
    x = y = fl.identity(d)[1]
    for _ in range(d):
        y = q @ y % p
    return np.array_equal(y, x) and fl.rank((q - fl.identity(d)) % p, p) == d - 1


def _find_unramified_poly(p: int, d: int) -> list[int]:
    """Deterministic monic irreducible of degree d over F_p, lifted to Z."""
    if d == 1:
        return [1, 1]
    for terms in range(2, d + 1):
        for tail in product(range(p), repeat=terms):
            if tail[0] == 0:
                continue
            f = [0] * d + [1]
            for idx, c in enumerate(tail):
                f[idx] = c
            if _gf_irreducible(f, p):
                return f
    raise AssertionError("no irreducible polynomial found")


# ---------------------------------------------------------------------------
# tower kinds (see the module docstring for what a kind returns)


def _unramified(p: int, n: int):
    """Degree p^n over F = Q_p, no p-th root of unity: pi = p at every
    level, x lifts a generator of the residue field, sigma is Frobenius."""
    if p == 2:
        raise ValueError("unramified towers need p odd (xi_2 = -1 lies in every 2-adic field)")

    def data():
        minpoly = _find_unramified_poly(p, p**n)
        return minpoly, [c % p for c in minpoly], [p], None, [([p], 1)] * (n + 1), None, None

    return p**n, 1, False, data


def _cyclotomic(p: int, n: int):
    """K = Q_p(zeta), zeta of order p^(n+1), over F = Q_p(zeta_p), or of
    order 2^(n+2) over F = Q_2(i), in the Eisenstein basis x = zeta - 1:
    sigma(zeta) = zeta^u for u = 1 + p (5 when p = 2), K_i has the
    uniformizer zeta^(p^(n-i)) - 1, and a_(n-1) = zeta^p."""
    power = n + 2 if p == 2 else n + 1
    deg = 2 ** (n + 1) if p == 2 else p**n * (p - 1)

    def data():
        def zeta_minus_one(k):  # (1 + x)^k - 1
            return [0] + [math.comb(k, j) for j in range(1, k + 1)]

        sigma_x = zeta_minus_one(5 if p == 2 else 1 + p)
        levels = [(zeta_minus_one(p ** (n - i)), deg // p ** (n - i)) for i in range(n + 1)]
        return (_cyclotomic_shifted(p, power), [0, 1], [0, 1], sigma_x, levels,
                ([1, 1], p**power), [math.comb(p, j) for j in range(p + 1)])

    return deg, deg, True, data


KINDS = {"unramified": _unramified, "cyclotomic": _cyclotomic}


# ---------------------------------------------------------------------------
# elements


@dataclass(eq=False)
class LFElement:
    """pi^val * unit; unit None encodes zero (to precision aprec).

    unit is a polynomial of the tower's ring, an array; arrays do not
    compare with ==, so values compare by LocalTower.eq.  aprec is an
    absolute precision bound in pi-digits of the top field: the
    represented value is correct modulo pi^aprec.  inf means exact.
    """

    val: int
    unit: Array | None
    aprec: int | float = math.inf

    @property
    def is_zero(self) -> bool:
        return self.unit is None

    def __repr__(self):
        if self.is_zero:
            return f"LFElement(0, aprec={self.aprec})"
        return f"LFElement(val={self.val}, unit~{self.unit[:3].tolist()}..., aprec={self.aprec})"


class LocalTower:
    """A cyclic tower of p-adic fields with truncated exact arithmetic."""

    def __init__(self, p: int, kind: str, n: int, precision: int | None = None):
        """The tower of the given kind; precision None means 4e + 24
        pi-digits, and at most PRECISION_FACTOR times that is accepted.
        The kind is looked up in KINDS, and every kind runs the same
        steps and checks (see the module docstring)."""
        fl.check_prime(p)
        kind = kind.lower()
        if kind not in KINDS:
            raise ValueError(f"unknown tower kind {kind!r}")
        if n < 1:
            raise ValueError("tower height must be >= 1")
        # dim J = [K:Q_p] + 1 + [xi_p in K] and [K:Q_p] >= p^n >= 2^n: a
        # height past log2 DIM_MAX is refused before p^n is formed
        if n >= fl.DIM_MAX.bit_length():
            raise ValueError(
                f"dim J > 2^{n} exceeds the supported bound DIM_MAX = {fl.DIM_MAX}"
            )
        self.p = p
        self.kind = kind
        self.n = n
        self.deg, self.e, self.xi_in_F, data = KINDS[kind](p, n)
        self.f = self.deg // self.e
        dim = self.deg + 1 + self.xi_in_F
        if dim > fl.DIM_MAX:
            raise ValueError(f"dim J = {dim} exceeds the supported bound DIM_MAX = {fl.DIM_MAX}")

        # a conservative default well above the threshold m_min; the work
        # grows with the modulus p^cp, cp ~ precision/e, so a precision
        # above the bound is refused before any polynomial is sought
        default = self.e * 3 + self.e + 24
        precision = default if precision is None else precision
        m_min, bound = self.e * math.ceil(p / (p - 1)) + self.e + 8, PRECISION_FACTOR * default
        if precision < m_min:
            raise PrecisionError(f"precision {precision} pi-digits below the threshold {m_min}")
        if precision > bound:
            raise PrecisionError(f"precision {precision} pi-digits above the bound {bound}")
        # the asked digits, and the floor(jstar/e) = floor(p/(p-1)) p-adic
        # digits that the critical level jstar = pe/(p-1) spans past them
        self.cp = math.ceil(precision / self.e) + p // (p - 1)
        self.modulus = p**self.cp
        self.rel_cap = self.e * self.cp  # representable relative precision

        self.minpoly, self.r, self._pi_poly, gen_poly, levels, zeta, kummer_top = data()
        self._x_val = int(self._pi_poly == [0, 1])
        if self._x_val and (any(c % p for c in self.minpoly[:-1]) or self.minpoly[0] % p**2 == 0):
            raise ValueError("pi = x needs an Eisenstein defining polynomial")
        # the tower's two rings: its own, mod p^cp, and F_p[x]/(r) for residues
        self.ring = _Ring(self.minpoly, self.modulus)
        self.fpoly = self.ring.f
        self._res_ring = _Ring(self.r, p)
        # read by the first inv, which from_poly below may take
        self._res_frobenius = _frobenius_matrix(self._res_ring)
        # pi = p, x a unit; or pi = x in an Eisenstein power basis, where
        # pi^e = x^d = -(a_0 + ... + a_{d-1} x^(d-1)) = p*u, u a unit, and
        # the powers u^j of both signs are kept by j, built on first use
        self._unit_powers: dict[int, Array] = {}
        if self._x_val:
            self._unit_powers[1] = self._reduce([(-c) // p for c in self.minpoly[:-1]])

        self._unit_one = self.ring.one
        self.one = LFElement(0, self._unit_one)
        self.zero = LFElement(0, None)
        self.pi = LFElement(1, self._unit_one)

        self._zeta = None if zeta is None else (self.from_poly(zeta[0]), zeta[1])
        self._kummer_top = None if kummer_top is None else self.from_poly(kummer_top)
        self._galois_setup(self._frobenius_root() if gen_poly is None else self._reduce(gen_poly))
        self._level_setup([self.from_poly(pi_i) for pi_i, _ in levels], [e_i for _, e_i in levels])
        self._residue_fields: dict[int, fl.Subspace] = {}
        self._classes: dict[int, _LevelClasses] = {}

    # -- element construction ------------------------------------------------

    def from_poly(self, coeffs) -> LFElement:
        """The element of an integer polynomial in x, known to pi^rel_cap:
        its coefficients are reduced mod p^cp = pi^rel_cap."""
        return self._from_array(self._reduce(coeffs))

    def _from_array(self, c: Array) -> LFElement:
        """The element of a polynomial of the tower's ring, known to
        pi^rel_cap."""
        if not c.any():
            return self.zero
        t = self._poly_val(c)
        return LFElement(t, self._strip(c, t), self.rel_cap)

    def from_int(self, c: int) -> LFElement:
        return self.from_poly([c])

    def _reduce(self, coeffs) -> Array:
        """An integer polynomial in x modulo the defining polynomial over Z
        (it is monic), then modulo p^cp, as a polynomial of the tower's
        ring: the one place Python integers enter it."""
        c, f, d = [int(x) for x in coeffs], self.minpoly, self.deg
        for k in range(len(c) - 1, d - 1, -1):
            for j in range(d):
                c[k - d + j] -= c[k] * f[j]
        out = np.zeros(d, dtype=self.ring.table.dtype)
        out[: len(c)] = [x % self.modulus for x in c[:d]]
        return out

    def zeta(self, k: int = 1) -> LFElement:
        """zeta^k for the tower's distinguished root of unity zeta."""
        if self._zeta is None:
            raise ValueError("no distinguished root of unity in this tower")
        return self.powi(self._zeta[0], k)

    def zeta_p(self) -> LFElement:
        """A primitive p-th root of unity, a power of zeta."""
        if self._zeta is None:
            raise ValueError("no distinguished root of unity in this tower")
        return self.zeta(self._zeta[1] // self.p)

    # -- valuation machinery ---------------------------------------------------

    def _poly_val(self, c: Array) -> int:
        """Valuation in pi-digits of a nonzero polynomial in the generator,
        which is pi (valuation 1) or a unit (0): e*v + k, for v the least
        p-adic valuation of a coefficient and, when the generator is pi
        (then e = deg > k), k the first index where it is reached."""
        v, low = 0, c % self.p
        while not low.any():
            c = c // self.p
            v, low = v + 1, c % self.p
        return self.e * v + self._x_val * int(np.flatnonzero(low)[0])

    def _lead(self, c: Array) -> tuple[int, Array]:
        """(t, residue of c / pi^t in F_p[x]/(r)) for a nonzero polynomial
        c of valuation t = e*v + k, read from its coefficients with no
        product.  When pi = p (e = 1, k = 0) the residue is
        (c / p^v)[:f] mod p.  When pi = x (f = 1), pi^e = p*u, so
        c / pi^t = (c_k / p^v) u^-v mod pi, and u reduces to -a_0/p."""
        t = self._poly_val(c)
        v, k = divmod(t, self.e)
        lead = c[k : k + self.f] // self.p**v
        if self._x_val:
            lead = lead * pow(int(self._unit_powers[1][0]), -v, self.p)
        return t, self._res_ring.cast(lead)

    def _strip(self, c: Array, t: int) -> Array:
        """Exactly divide the polynomial by pi^t (valuation must allow it).

        When pi = p, c is divided by p^t directly.  When pi = x, t = e*v + k
        and pi^e = p*u, so for c' = c / p^v, c / pi^t = u^-v T + u^-(v+1) H:
        T is c' from index k on, moved down by k, and H holds c'_j / p at
        x^(e-k+j) for j < k.  Every division is exact, so the result is
        c / pi^t in the ring of integers, reduced mod p^cp.
        """
        if t == 0:
            return c
        p, e = self.p, self.e
        v, k = divmod(t, e)
        # a nonzero polynomial mod p^cp has valuation below e*cp
        if v >= self.cp or (c % p**v).any() or (c[:k] % p ** (v + 1)).any():
            raise PrecisionError("strip below the honest valuation")
        c = c // p**v
        if not self._x_val:
            return c
        low, high = np.zeros_like(c), np.zeros_like(c)
        low[: e - k] = c[k:]
        high[e - k :] = c[:k] // p
        if v:
            low = _poly_mulmod(low, self._unit_power(-v), self.ring)
        if k:
            low += _poly_mulmod(high, self._unit_power(-v - 1), self.ring)
            low %= self.modulus
        return low

    def _shift(self, c: Array, delta: int) -> Array:
        """Multiply a polynomial by pi^delta (delta >= 0).

        When pi = p, pi^delta is the integer p^delta mod p^cp.  When pi = x,
        delta = e*v + k and pi^e = p*u, so c pi^delta = p^v (u^v L +
        p u^(v+1) H): L is c moved up by k, and H its k top coefficients
        wrapped to the bottom.  Each scalar product is of residues below
        p^cp, so below (m-1)^2: exact in int64 under the ring's bound.
        """
        if delta == 0:
            return c
        p, e, m = self.p, self.e, self.modulus
        if not self._x_val:
            return c * pow(p, delta, m) % m
        v, k = divmod(delta, e)
        low, high = np.zeros_like(c), np.zeros_like(c)
        low[k:] = c[: e - k]
        high[:k] = c[e - k :]
        if v:
            low = _poly_mulmod(low, self._unit_power(v), self.ring)
        if k:
            low += _poly_mulmod(high, self._unit_power(v + 1), self.ring) * p % m
            low %= m
        return low * pow(p, v, m) % m

    def _unit_power(self, j: int) -> Array:
        """u^j for the unit u of pi^e = p*u and an integer j != 0, kept by
        j: u^-1 by Newton's iteration, and every other power one product
        by u or u^-1 from the power next to it toward 0."""
        power = self._unit_powers.get(j)
        if power is None:
            if j == -1:
                u = self._unit_powers[1]
                v = self.ring.cast(self._residue_inverse(u))
                power = _poly_invmod(u, v, self.ring, self.rel_cap)
            else:
                step = 1 if j > 0 else -1
                power = _poly_mulmod(self._unit_power(j - step), self._unit_power(step), self.ring)
            self._unit_powers[j] = power
        return power

    # -- arithmetic --------------------------------------------------------------

    def add(self, x: LFElement, y: LFElement) -> LFElement:
        if x.is_zero and y.is_zero:
            return LFElement(0, None, min(x.aprec, y.aprec))
        if x.is_zero:
            return self._clip(y, x.aprec)
        if y.is_zero:
            return self._clip(x, y.aprec)
        if x.val > y.val:
            x, y = y, x
        a = min(x.aprec, y.aprec, x.val + self.rel_cap)
        delta = y.val - x.val
        if delta >= a - x.val:
            return LFElement(x.val, x.unit, a)
        w = (x.unit + self._shift(y.unit, delta)) % self.modulus
        if not w.any():
            return LFElement(0, None, a)
        t = self._poly_val(w)
        if x.val + t >= a:
            return LFElement(0, None, a)
        return LFElement(x.val + t, self._strip(w, t), a)

    def _clip(self, x: LFElement, aprec) -> LFElement:
        a = min(x.aprec, aprec)
        if x.is_zero or x.val >= a:
            return LFElement(0, None, a)
        return LFElement(x.val, x.unit, a)

    def neg(self, x: LFElement) -> LFElement:
        if x.is_zero:
            return x
        return LFElement(x.val, -x.unit % self.modulus, x.aprec)

    def mul(self, x: LFElement, y: LFElement) -> LFElement:
        if x.is_zero or y.is_zero:
            # a zero (val 0) known mod pi^a, times pi^v, is known mod pi^(a+v)
            a = min(z.aprec + o.val for z, o in ((x, y), (y, x)) if z.is_zero)
            return LFElement(0, None, a)
        u = _poly_mulmod(x.unit, y.unit, self.ring)
        val = x.val + y.val
        return LFElement(val, u, min(x.aprec + y.val, y.aprec + x.val, val + self.rel_cap))

    def inv(self, x: LFElement) -> LFElement:
        if x.is_zero:
            raise ZeroDivisionError("division by zero")
        v = self.ring.cast(self._residue_inverse(x.unit))
        v = _poly_invmod(x.unit, v, self.ring, self.rel_cap)
        return LFElement(-x.val, v, min(x.aprec - 2 * x.val, self.rel_cap - x.val))

    def _residue_inverse(self, u: Array) -> Array:
        """The inverse in F_p[x]/(r) of u's residue a, the cast of u[:f]:
        the product of the conjugates a^(p^k), 0 < k < f, each one product
        by the Frobenius matrix, divided by the norm a^(1 + p + ... +
        p^(f-1)) in F_p; ZeroDivisionError when the norm is 0."""
        p, f, ring = self.p, self.f, self._res_ring
        a = ring.cast(u[:f])
        # no product by one: none for the first conjugate, none when f = 1
        inv, conj = ring.one, a
        for k in range(1, f):
            conj = self._res_frobenius @ conj % p
            inv = _poly_mulmod(inv, conj, ring) if k > 1 else conj
        norm = int(_poly_mulmod(inv, a, ring)[0] if f > 1 else a[0])
        if norm == 0:
            raise ZeroDivisionError("not a unit")
        return inv * pow(norm, p - 2, p) % p

    def powi(self, x: LFElement, e: int) -> LFElement:
        """x^e by fl.power: popcount(e) + bitlength(e) - 2 products for
        e >= 1, and x itself for e = 1."""
        if e < 0:
            return self.powi(self.inv(x), -e)
        if e == 0:
            return self.one
        return fl.power(x, e, self.mul)

    def eq(self, x: LFElement, y: LFElement) -> bool:
        """Equality of values to the available precision."""
        return self.add(x, self.neg(y)).is_zero

    def residue(self, x: LFElement) -> Array:
        """Residue of a valuation-zero unit in F_p[x]/(r), the cast of its
        first f coefficients (when f < deg, r = x, so x^k reduces to 0
        for k >= f)."""
        if x.is_zero or x.val != 0:
            raise ValueError("residue requires a valuation-zero unit")
        if x.aprec < self.e:
            raise PrecisionError("no full residue digit left")
        return self._res_ring.cast(x.unit[: self.f])

    # -- Galois action --------------------------------------------------------

    def _galois_setup(self, gen_image: Array):
        """Store sigma^k, k < p^n, for sigma(x) = gen_image; check its order.

        sigma^k = sigma sigma^(k-1) mod m in the ring's dtype: each entry
        sums d products of residues, as in galois."""
        p, d, ring = self.p, self.deg, self.ring
        order = p**self.n
        powers = [ring.one, gen_image]
        while len(powers) < d:
            powers.append(_poly_mulmod(powers[-1], gen_image, ring))
        sigma = np.stack(powers, axis=1)
        self._sigma = [None, sigma]  # sigma^0 is never applied
        while len(self._sigma) < order:
            self._sigma.append(sigma @ self._sigma[-1] % ring.m)
        # images[k] = g_k = sigma^k(x), column 1 of sigma^k
        images = [self._reduce([0, 1])] + [s[:, 1] for s in self._sigma[1:]]
        images.append(sigma @ images[-1] % ring.m)

        # the units sigma^k(pi)/pi: when pi = x they are g_k/x, known to
        # as many digits as g_k; pi = p is fixed by sigma, and galois then
        # has nothing to multiply by
        self._sigma_pi_units = None
        if self._x_val:
            units = [self._from_array(g) for g in images[:order]]
            if any(u.val != 1 for u in units):
                raise ValueError("generator image is not a uniformizer")
            self._sigma_pi_units = [LFElement(0, u.unit, u.aprec - u.val) for u in units]
        # exact order: sigma^(p^n) = 1 and sigma^(p^(n-1)) != 1, read on x
        # as sigma^k(x^j) = g_k^j; g_k - x is compared at its tracked
        # precision in pi-digits
        x = self._from_array(images[0])
        if not self.eq(self._from_array(images[order]), x):
            raise ValueError("generator does not have order p^n")
        if self.eq(self._from_array(images[order // p]), x):
            raise ValueError("non-cyclic configuration: generator order too small")
        # teichmuller reads sigma as the Frobenius when f > 1: g = x^p mod p
        if self.f > 1 and not np.array_equal(
            self._res_ring.cast(gen_image[: self.f]), self._res_frobenius[:, 1]
        ):
            raise ValueError("generator does not reduce to the Frobenius x -> x^p")

    def _frobenius_root(self) -> Array:
        """Hensel-lifted Frobenius image of the unramified generator: the
        root of the defining polynomial g that reduces to x^p, by Newton's
        iteration x -> x - g(x)/g'(x) from x^p; it stops once g(x) reads
        zero, or after ceil(log2(rel_cap)) + 3 rounds."""
        deriv = [(k * c) % self.modulus for k, c in enumerate(self.minpoly)][1:]
        x = self._from_array(_poly_powmod(self._reduce([0, 1]), self.p, self.ring))
        for _ in range(math.ceil(math.log2(self.rel_cap)) + 3):
            gx = self._eval_intpoly(self.minpoly, x)
            if gx.is_zero:
                break
            x = self.add(x, self.neg(self.mul(gx, self.inv(self._eval_intpoly(deriv, x)))))
        return self._as_poly(x)

    def _eval_intpoly(self, coeffs: list[int], x: LFElement) -> LFElement:
        acc = self.zero
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), self.from_int(c))
        return acc

    def _as_poly(self, x: LFElement) -> Array:
        if x.is_zero:
            return np.zeros(self.deg, dtype=self.ring.table.dtype)
        if x.val < 0:
            raise ValueError("element is not integral")
        return self._shift(x.unit, x.val)

    def galois(self, x: LFElement, k: int = 1) -> LFElement:
        """sigma^k applied to an element."""
        k %= self.p**self.n
        if k == 0 or x.is_zero:
            return x
        # each entry sums d products of residues, at most d(m-1)^2: exact
        # in int64 under the ring's bound, and in Python ints past it
        img = LFElement(x.val, self._sigma[k] @ x.unit % self.modulus, x.aprec)
        if self._sigma_pi_units is None or x.val == 0:
            return img
        return self.mul(img, self.powi(self._sigma_pi_units[k], x.val))

    def norm(self, x: LFElement, i: int, j: int) -> LFElement:
        """Norm from level i down to level j <= i (conjugates under
        sigma^(p^j) running over Gal(K_i/K_j))."""
        if not 0 <= j <= i <= self.n:
            raise ValueError("bad norm levels")
        if x.is_zero:
            return self.zero
        out = x
        for k in range(1, self.p ** (i - j)):
            out = self.mul(out, self.galois(x, k * self.p**j))
        return out

    # -- tower levels -------------------------------------------------------------

    def _level_setup(self, uniformizers: list[LFElement], level_e: list[int]):
        """Check and keep the uniformizer of each level K_i, whose absolute
        ramification index is level_e[i]."""
        p = self.p
        self.level_e = level_e  # absolute ramification of K_i
        self.level_rel_e = [self.e // e_i for e_i in level_e]  # e(K / K_i)
        for i, pi_i in enumerate(uniformizers):
            if pi_i.val != self.level_rel_e[i]:
                raise ValueError("level uniformizer has unexpected valuation")
            if not self.eq(self.galois(pi_i, p**i), pi_i):
                raise ValueError(f"sigma^(p^{i}) does not fix level {i}")
            # a ramified step K_i/K_(i-1) moves its uniformizer
            if i and level_e[i] > level_e[i - 1] and self.eq(self.galois(pi_i, p ** (i - 1)), pi_i):
                raise ValueError(f"level {i} fixed too early: non-cyclic tower")
        self.level_uniformizer = uniformizers

    # -- residue machinery -----------------------------------------------------------

    def _residue_field(self, i: int) -> fl.Subspace:
        """The residue field of K_i inside F_p[x]/(r): the subspace fixed
        by Frobenius^(f_i), f_i = [K_i:Q_p]/e_i its residue degree; levels
        of one residue degree share it."""
        p = self.p
        f_i = self.deg // p ** (self.n - i) // self.level_e[i]
        sub = self._residue_fields.get(f_i)
        if sub is None:
            frob_fi = fl.mat_pow(self._res_frobenius, f_i, p)
            sub = self._residue_fields[f_i] = fl.kernel((frob_fi - fl.identity(self.f)) % p, p)
            if sub.dim != f_i:
                raise AssertionError("residue subfield has wrong dimension")
        return sub

    def teichmuller(self, residue: Array) -> LFElement:
        """The Teichmuller lift omega of a residue r in F_p[x]/(r), the root
        of X^q = X reducing to it (q = p^f); it lies in K_i when r is a
        residue of K_i.  sigma is the Frobenius phi, so for any lift w of r,
        w^(p^k) = phi^k(omega) mod p^(k+1), and k = cp - 1 gives omega =
        phi^(-k)(w^(p^k)); an r in F_p is fixed by phi and lifts as the
        integer r^(p^k) mod p^cp."""
        p, k = self.p, self.cp - 1
        if not (residue % p).any():
            return self.zero
        if not residue[1:].any():
            r = int(residue[0]) % p
            return self.one if r == 1 else self.from_int(pow(r, p**k, self.modulus))
        w = self.powi(self._from_array(self.ring.cast(residue)), p**k)
        return self.galois(w, -k)

    def _residue_frob_inverse(self, residue: Array) -> Array:
        """delta with delta^p = residue in F_p[x]/(r): Frobenius^(f-1) of
        the residue, f - 1 products by the Frobenius matrix."""
        for _ in range(self.f - 1):
            residue = self._res_frobenius @ residue % self.p
        return residue

    # -- p-th roots ----------------------------------------------------------------

    def pth_root(self, x: LFElement) -> LFElement:
        """A y with y^p = x; raises NotPthPower unless x is a p-th power.

        The 1-unit part of x goes through the level-n class reduction,
        which divides out p-th powers base^p level by level; x is a p-th
        power iff no class coordinate and no uncancelled level remain.
        """
        p = self.p
        if x.is_zero:
            return self.zero
        if x.val % p:
            raise NotPthPower("valuation is not divisible by p")
        unit = LFElement(0, x.unit, x.aprec - x.val)
        root = self.teichmuller(self._residue_frob_inverse(self.residue(unit)))
        bases: list[LFElement] = []
        coords, rest, lead = self.classes(self.n)._reduce(
            self, self.mul(unit, self.inv(self.powi(root, p))), bases
        )
        if lead is not None:
            raise NotPthPower(f"level {lead[0]} is not cancelled by a p-th power")
        if np.any(coords):
            raise NotPthPower("the class in K^x/(K^x)^p is nonzero")
        for base in bases:
            root = self.mul(root, base)
        root = self.mul(root, self._deep_root(rest))
        return self.mul(root, self.powi(self.pi, x.val // p))

    def _deep_root(self, r: LFElement) -> LFElement:
        """p-th root of a unit deep in the filtration by w *= 1 + err/p."""
        w = self.one
        p_inv = self.inv(self.from_int(self.p))
        for _ in range(4 * self.cp + 8):
            err = self.add(self.mul(r, self.inv(self.powi(w, self.p))), self.neg(self.one))
            if err.is_zero:
                return w
            w = self.mul(w, self.add(self.one, self.mul(err, p_inv)))
        return w

    def is_pth_power(self, x: LFElement) -> bool:
        try:
            y = self.pth_root(x)
        except NotPthPower:
            return False
        return self.eq(self.powi(y, self.p), x)

    # -- class spaces ------------------------------------------------------------------

    def level_val(self, i: int, x: LFElement) -> int:
        rel = self.level_rel_e[i]
        if x.val % rel:
            raise ValueError(
                f"element not at level {i}: valuation {x.val} not divisible by {rel}"
            )
        return x.val // rel

    def classes(self, i: int) -> "_LevelClasses":
        if i not in self._classes:
            self._classes[i] = _LevelClasses(self, i)
        return self._classes[i]

    def class_basis(self, i: int) -> list[LFElement]:
        """Basis of J(K_i) = K_i^x/(K_i^x)^p, uniformizer class first."""
        return list(self.classes(i).basis_elements)

    def class_of(self, i: int, x: LFElement) -> Array:
        """Coordinates of the class of x in the level-i basis."""
        return self.classes(i).class_of(self, x)

    def dim_class_space(self, i: int) -> int:
        return self.classes(i).dim


class _LevelClasses:
    """Echelonized basis of K_i^x/(K_i^x)^p, with coordinates.

    It keeps no tower, so the tower that keeps it is in no reference
    cycle: the methods that do arithmetic take the tower first.  Besides
    unit_basis, it keeps what its walk (``_reduce``) reads at each level:
    - by level s, the indices of the unit basis records at s, in order;
    - by (s, number of records at s), the system of level s factored
      once (``fl.Factored``), or None when level s has neither a record
      nor a free map;
    - by (s, solved coordinates mod p), the pair (base, base^-p) of the
      p-th power that cancels level s;
    - by (idx, c), the power c of the inverse of unit basis record idx.
    All but the first are built on first use.  unit_basis only grows, so
    a key stays valid while _build appends records."""

    def __init__(self, tower: LocalTower, i: int):
        self.p = p = tower.p
        self.f = tower.f
        self.i = i
        self.e_i = tower.level_e[i]
        self.pi_i = tower.level_uniformizer[i]
        self.pi_i_inv = tower.inv(self.pi_i)
        self.crit = p * self.e_i // (p - 1) if (p * self.e_i) % (p - 1) == 0 else None
        self.jstar = (p * self.e_i) // (p - 1)
        # the residue field of K_i: a residue in it has its coordinates on
        # the RREF basis at the basis's pivot columns
        self.res_field = tower._residue_field(i)
        self.res_basis = self.res_field.basis
        frob = fl.matmul(tower._res_frobenius, self.res_field.basis.T, p)
        self._frob_sub = frob[self.res_field.pivots]
        self._crit_map = self._artin_schreier_map(tower)
        # records: (reduced element, its inverse, filtration level, leading coords)
        self.unit_basis: list[tuple[LFElement, LFElement, int, Array]] = []
        # what _reduce reads at each level (see the class docstring)
        self._records_at: dict[int, list[int]] = {}
        self._systems: dict[tuple[int, int], fl.Factored | None] = {}
        self._free_factors: dict[tuple, tuple[LFElement, LFElement]] = {}
        self._basis_factors: dict[tuple[int, int], LFElement] = {}
        self._build(tower)
        self.basis_elements = [self.pi_i] + [b for b, _, _, _ in self.unit_basis]
        self.dim = len(self.basis_elements)
        # dim_{F_p} K_i^x/K_i^xp = [K_i:Q_p] + 1 + [xi_p in K_i]
        expected = tower.deg // p ** (tower.n - i) + 1 + tower.xi_in_F
        if self.dim != expected:
            raise AssertionError(
                f"level {i}: computed {self.dim} classes, classical count is {expected}"
            )

    def _res_coords(self, gamma: Array) -> Array:
        if self.res_field.dim == self.f:
            return gamma  # all of F_p[x]/(r), whose RREF basis is the identity
        if not self.res_field.contains(gamma):
            raise AssertionError("leading coefficient escaped the residue subfield")
        return gamma[self.res_field.pivots]

    def _res_from_coords(self, t: LocalTower, coords: Array) -> LFElement:
        return t.teichmuller(coords % self.p @ self.res_basis % self.p)

    def _artin_schreier_map(self, t: LocalTower) -> Array | None:
        """c -> c^p + eta*c on subfield coordinates, eta the residue of
        p/pi_i^e_i; None without a critical level."""
        if self.crit is None:
            return None
        p = self.p
        unit = t.mul(t.from_int(p), t.powi(self.pi_i_inv, self.e_i))
        if unit.val != 0:
            raise AssertionError("p/pi_i^e_i is not a unit")
        eta = t.residue(unit)
        eta_b = np.stack([_poly_mulmod(eta, b, t._res_ring) for b in self.res_basis])
        return (self._frob_sub + eta_b.T[self.res_field.pivots]) % p

    def _free_map(self, j: int) -> Array | None:
        """F_p-matrix whose image is cancellable at level j by p-th powers."""
        if self.crit is not None and j == self.crit:
            return self._crit_map
        if j % self.p == 0 and (self.crit is None or j < self.crit):
            return self._frob_sub
        return None

    def _system(self, s: int, idxs: list[int]) -> fl.Factored | None:
        """The matrix [leads of the records idxs at level s | free map at
        s], factored once per (s, len(idxs)); None when both are empty."""
        key = (s, len(idxs))
        if key not in self._systems:
            cols = [self.unit_basis[idx][3][:, None] for idx in idxs]
            free = self._free_map(s)
            if free is not None:
                cols.append(free)
            self._systems[key] = fl.Factored(np.hstack(cols), self.p) if cols else None
        return self._systems[key]

    def _free_factor(
        self, t: LocalTower, j: int, delta_coords: Array
    ) -> tuple[LFElement, LFElement]:
        """(base, base^-p) for the element base whose p-th power cancels
        level j with the solved coordinates delta_coords; built once per
        (j, coordinates mod p)."""
        key = (j, tuple(int(c) % self.p for c in delta_coords))
        pair = self._free_factors.get(key)
        if pair is None:
            # base = 1 + lift*pi_i^(j // p); at the critical level
            # j = p*e_i/(p-1) this exponent is e_i/(p-1)
            lift = self._res_from_coords(t, delta_coords)
            base = t.add(t.one, t.mul(lift, t.powi(self.pi_i, j // self.p)))
            pair = self._free_factors[key] = base, t.inv(t.powi(base, self.p))
        return pair

    def _leading(self, t: LocalTower, u: LFElement):
        """(filtration level, leading coords) of a 1-unit u, read from the
        coefficients of w = u - 1 by ``LocalTower._lead`` with no product,
        or (None, None) when w is zero to a = min(u.aprec, rel_cap)
        pi-digits, so past jstar; a zero known to fewer pi-digits cannot
        tell and raises PrecisionError."""
        w = u.unit.copy()
        w[0] = (w[0] - 1) % t.modulus
        a, rel = min(u.aprec, t.rel_cap), t.level_rel_e[self.i]
        val, gamma = t._lead(w) if w.any() else (a, None)
        if val >= a:  # w reads zero to a pi-digits
            if a < (self.jstar + 1) * rel:
                raise PrecisionError(f"u - 1 is zero only to {a} pi-digits, short of jstar")
            return None, None
        if val % rel:
            raise ValueError(f"u - 1 not at level {self.i}: valuation {val} not divisible by {rel}")
        return val // rel, self._res_coords(gamma)

    def _reduce(self, t: LocalTower, u: LFElement, bases: list | None = None):
        """Cancel the leading terms of the 1-unit u level by level.

        Returns (coords over the unit basis, what is left of u, its lead).
        The lead is None when u reduced past jstar, where every 1-unit is
        a p-th power; else it is (level, leading coords) of the first
        level that neither the unit basis nor a p-th power cancels.  Each
        p-th power divided out is base^p, and base is appended to bases.
        Each step solves the system of its level, [leads of the records
        at s | free map at s] x = lead of u, by one matrix-vector product
        through the level's factored form (``_system``): the same x that
        ``fl.solve`` picks, with no elimination.
        """
        p = self.p
        coords = np.zeros(len(self.unit_basis), dtype=np.int64)
        prev = -1
        for _ in range(4 * (self.jstar + t.cp) + 16):
            s, gamma = self._leading(t, u)
            if s is None or s > self.jstar:
                return coords, u, None
            if s <= prev:
                raise AssertionError("reduction failed to advance the filtration")
            prev = s
            idxs = self._records_at.get(s, [])
            system = self._system(s, idxs)
            sol = None if system is None else system.solve(gamma)
            if sol is None:
                return coords, u, (s, gamma)
            k = len(idxs)
            for idx, c in zip(idxs, sol[:k]):
                c = int(c)
                if c:
                    coords[idx] = (coords[idx] + c) % p
                    factor = self._basis_factors.get((idx, c))
                    if factor is None:
                        factor = self._basis_factors[idx, c] = t.powi(self.unit_basis[idx][1], c)
                    u = t.mul(u, factor)
            if sol[k:].any():
                base, factor = self._free_factor(t, s, sol[k:])
                if bases is not None:
                    bases.append(base)
                u = t.mul(u, factor)
        raise AssertionError("reduction loop failed to converge")

    def _build(self, t: LocalTower):
        # each residue basis vector is lifted once, and pi_i^j, j = 1, ...,
        # jstar, is a running product
        lifts = [t.teichmuller(res) for res in self.res_basis]
        for pi_j in accumulate(repeat(self.pi_i, self.jstar), t.mul):
            for lift in lifts:
                cand = t.add(t.one, t.mul(lift, pi_j))
                _, red, lead = self._reduce(t, cand)
                if lead is not None:
                    lv, coords = lead
                    self._records_at.setdefault(lv, []).append(len(self.unit_basis))
                    self.unit_basis.append((red, t.inv(red), lv, coords))

    def class_of(self, t: LocalTower, x: LFElement) -> Array:
        p = self.p
        if x.is_zero:
            raise ValueError("zero has no class")
        v = t.level_val(self.i, x)
        unit = t.mul(x, t.powi(self.pi_i_inv, v)) if v else x
        res = t.residue(unit)
        if not np.array_equal(res, t._res_ring.one):
            unit = t.mul(unit, t.inv(t.teichmuller(res)))
        coords, _, lead = self._reduce(t, unit)
        if lead is not None:
            raise AssertionError("element escaped the computed class basis")
        out = np.zeros(self.dim, dtype=np.int64)
        out[0] = v % p
        out[1:] = coords % p
        return out


# ---------------------------------------------------------------------------
# public constructors and datum extraction


def make_tower(p: int, kind: str, n: int, precision: int | None = None) -> LocalTower:
    """Build and validate a tower; rejects non-cyclic configurations.
    precision None means the tower's default, 4e + 24 pi-digits."""
    return LocalTower(p, kind, n, precision)


def kummer_generators(tower: LocalTower) -> list[LFElement]:
    """The norm-coherent chain (a_{n-1}, ..., a_0); towers with xi_p in F only.

    a_{n-1} is the Kummer generator of the top step, which the tower's
    kind supplies (zeta^p for the cyclotomic towers): its p-th root
    generates K over K_{n-1}.  The rest are successive norms down the
    tower.  Each step is checked at the class level: a_i is not a
    p-th power in its own field, and it becomes one a level up.
    """
    return [a for a, _ in _kummer_chain(tower)]


def _kummer_chain(tower: LocalTower) -> list[tuple[LFElement, Array]]:
    """(a_i, its level-i class) for i = n-1, ..., 0, each step checked."""
    if tower._kummer_top is None:
        raise ValueError("Kummer generators require xi_p in the base")
    n = tower.n
    chain = [tower._kummer_top]
    for i in range(n - 1, 0, -1):
        chain.append(tower.norm(chain[-1], i, i - 1))
    out = []
    for k, a in enumerate(chain):
        i = n - 1 - k
        cls = tower.class_of(i, a)
        if not np.any(cls):
            raise AssertionError(f"a_{i} is a p-th power in its own field")
        if np.any(tower.class_of(i + 1, a)):
            raise AssertionError(f"a_{i} does not become a p-th power at level {i + 1}")
        out.append((a, cls))
    return out


def build_datum(tower: LocalTower) -> GaloisDatum:
    """Extract the full class-level datum from a tower."""
    p, n, xi = tower.p, tower.n, tower.xi_in_F
    bases = [tower.class_basis(i) for i in range(n + 1)]
    a_cls = {n - 1 - k: cls for k, (_, cls) in enumerate(_kummer_chain(tower))} if xi else {}
    norms = [
        _class_matrix(tower, i, [tower.norm(b, n, i) for b in bases[n]]) for i in range(n + 1)
    ]

    levels = []
    for i in range(n + 1):
        sigma_i = _class_matrix(tower, i, [tower.galois(b, 1) for b in bases[i]])
        if i == n:
            # N_(K/K) = 1: eps at the top is its norm, and its inter-norm
            # to level j is the level-j norm
            eps, inter = norms[n], dict(enumerate(norms[:n]))
        else:
            eps = _class_matrix(tower, n, bases[i])
            inter = {
                j: _class_matrix(tower, j, [tower.norm(b, i, j) for b in bases[i]])
                for j in range(i)
            }
        levels.append(
            LevelData(
                space=gmod.make_module(p, i, sigma_i),
                eps=eps,
                norm=norms[i],
                inter_norm=inter,
                a_class=a_cls.get(i),
            )
        )

    minus_one = None
    if p == 2 and n == 1:
        minus_one = _minus_one_is_norm(tower, levels[0])
    return GaloisDatum(
        p=p, n=n, J=levels[n].space, levels=levels, xi_in_F=xi, minus_one_is_norm=minus_one
    )


def _class_matrix(tower: LocalTower, level: int, elements: list[LFElement]) -> Array:
    """The matrix whose columns are the level-`level` classes of elements."""
    out = np.zeros((tower.dim_class_space(level), len(elements)), dtype=np.int64)
    for t, x in enumerate(elements):
        out[:, t] = tower.class_of(level, x)
    return out


def _minus_one_is_norm(tower: LocalTower, level0: LevelData) -> bool:
    """Decide -1 in N(K^x) at the class level (norm groups of local fields
    contain the p-th powers, so the class image decides membership)."""
    target = tower.class_of(0, tower.from_int(-1))
    if not np.any(target):
        return True
    return fl.image(level0.norm, tower.p).contains(target)


def root_norm_crosscheck(
    tower: LocalTower, alpha: LFElement, gamma: LFElement, k: LFElement, i: int
) -> bool:
    """Check the norm-compatibility identity for a root of N(alpha).

    Requires alpha^(sigma-1) = gamma * k^p with gamma at level i < n (and
    n > 1 when p = 2).  Chooses the p-th root of N_{K/F}(alpha) through
    the S-operator expression and compares

        (N_{K/F}(alpha)^(1/p))^(sigma-1)  vs
        N_{K/F}(k) * N_{K_i/F}(gamma)^(p^(n-i-1)).
    """
    p, n = tower.p, tower.n
    if p == 2 and n == 1:
        raise ValueError("the identity requires n > 1 when p = 2")
    if not 0 <= i < n:
        raise ValueError("gamma must sit at a proper level")
    sig_alpha = tower.mul(tower.galois(alpha, 1), tower.inv(alpha))
    if not tower.eq(sig_alpha, tower.mul(gamma, tower.powi(k, p))):
        raise ValueError("precondition alpha^(sigma-1) = gamma * k^p fails")

    def s_operator(x: LFElement) -> LFElement:
        # x^S with S = sum_j (p^n - 1 - j) sigma^j, j = 0..p^n-2
        out = tower.one
        for j in range(p**n - 1):
            out = tower.mul(out, tower.powi(tower.galois(x, j), p**n - 1 - j))
        return out

    gamma_s = s_operator(gamma)
    try:
        root_gamma_s = tower.pth_root(gamma_s)
    except NotPthPower as exc:
        raise ValueError(f"gamma^S is not a p-th power: {exc}") from exc
    root = tower.mul(
        tower.mul(s_operator(k), tower.powi(alpha, p ** (n - 1))), root_gamma_s
    )
    lhs = tower.mul(tower.galois(root, 1), tower.inv(root))
    rhs = tower.mul(
        tower.norm(k, n, 0), tower.powi(tower.norm(gamma, i, 0), p ** (n - i - 1))
    )
    return tower.eq(lhs, rhs)


def sample_norm_identity_cases(
    tower: LocalTower, i: int, count: int, seed: int = 0
) -> list[tuple[LFElement, LFElement, LFElement]]:
    """Seeded (alpha, gamma, k) triples with alpha^(sigma-1) = gamma * k^p.

    Works at the class level: picks a target class in the intersection of
    the level-i image with the image of sigma - 1, solves the class-level
    twist equation for alpha's class, lifts both to field elements through
    the basis representatives, and extracts k with pth_root.
    """
    rng = random.Random(seed)
    p, n = tower.p, tower.n
    basis_i = tower.class_basis(i)
    basis_n = tower.class_basis(n)

    # sigma and eps at the class level
    dim = tower.dim_class_space(n)
    eps = _class_matrix(tower, n, basis_i)
    sigma_cls = _class_matrix(tower, n, [tower.galois(b, 1) for b in basis_n])
    shift = (sigma_cls - fl.identity(dim)) % p
    target_space = fl.sub_intersect(fl.image(eps, p), fl.image(shift, p))
    if target_space.dim == 0:
        raise RuntimeError(f"no norm-identity classes exist at level {i}")

    def lift(coords, basis):
        out_el = tower.one
        for c, b in zip(coords, basis):
            if int(c) % p:
                out_el = tower.mul(out_el, tower.powi(b, int(c)))
        return out_el

    out = []
    attempts = 0
    while len(out) < count and attempts < 100 * count:
        attempts += 1
        weights = [rng.randrange(p) for _ in range(target_space.dim)]
        c_beta = np.zeros(dim, dtype=np.int64)
        for wgt, row in zip(weights, target_space.basis):
            c_beta = (c_beta + wgt * row) % p
        if not np.any(c_beta):
            continue
        x = fl.solve(shift, c_beta, p)
        g = fl.solve(eps, c_beta, p)
        if x is None or g is None:
            continue
        # a random p-th power diversifies alpha without moving the classes
        u = tower.from_poly([rng.randrange(p**2) for _ in range(tower.deg)])
        if u.is_zero or u.val != 0:
            u = tower.one
        alpha = tower.mul(lift(x, basis_n), tower.powi(u, p))
        gamma = lift(g, basis_i)
        beta = tower.mul(tower.galois(alpha, 1), tower.inv(alpha))
        try:
            k = tower.pth_root(tower.mul(beta, tower.inv(gamma)))
        except NotPthPower:
            continue
        out.append((alpha, gamma, k))
    if len(out) < count:
        raise RuntimeError(f"sampled only {len(out)} of {count} cases")
    return out
