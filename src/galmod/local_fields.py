"""Concrete p-adic instances: cyclic towers over Q_p and their class data.

Two families are supported.  UNRAMIFIED towers (p odd) realize the case
with no p-th root of unity in the base; CYCLOTOMIC towers adjoin p-power
roots of unity (for p = 2 the base is Q_2(i) and the generator acts by
zeta -> zeta^5, the cyclic part of the 2-cyclotomic Galois group).

Only the constructor reads the kind.  A kind supplies four things: the
data (e, f, r, pi) -- the ramification index e, the residue degree
f = [K:Q_p]/e, the residue polynomial r over F_p with residue field
F_p[x]/(r), and the uniformizer pi as a polynomial in the generator x;
sigma(x); the uniformizer and ramification index of each level K_i; and
the distinguished root of unity zeta, or none.  Unramified towers have
e = 1, r the defining polynomial mod p, pi = p, sigma the Frobenius and
no zeta; cyclotomic towers use the Eisenstein power basis: f = 1, r = x,
pi = x = zeta - 1.  Everything else reads only this data.  The residue
field of K_i is the subspace of F_p[x]/(r) fixed by Frobenius^(f_i),
f_i its residue degree.

An element is a value (val, unit, aprec) in the top field K: the
floating form pi^val * unit, the unit being a polynomial in x with
coefficients modulo p^cp, and an absolute precision bound aprec (in
pi-digits): the represented value is guaranteed modulo pi^aprec.  The
tower does all arithmetic on elements, and nothing it keeps refers back
to it.  Addition that cancels past the bound collapses to an exact
zero-at-precision, which is what equality tests consume.  The generator
x is pi or a unit, so valuations read off coefficients exactly.

Unit arithmetic is polynomial multiplication modulo (f, p^cp).
``_poly_mulmod`` packs each operand into one integer with byte-aligned
coefficient slots wide enough that no slot overflows (Kronecker
substitution), does one big-integer multiply, and folds the high half
back with packed rows of x^k mod f, cached per (f, modulus) for the
few most recently used moduli.  Each tower caches the uniformizer
powers its valuation machinery reuses: the multiplier p^k / pi^t,
k = ceil(t/e), that ``_strip`` divides by pi^t with, and pi^delta for
``_shift``.  The multiplier is 1 when pi = p; when pi = x, pi^e = p*u
for the unit u = -(a_0 + ... + a_(d-1) x^(d-1))/p of the Eisenstein
polynomial, and it is x^s * u^-k, s = ke - t, from powers of u^-1 kept
per tower.  ``inv`` runs Newton's iteration v -> v(2 - uv) and stops
once uv = 1, where further rounds leave v unchanged.  ``powi`` squares
and multiplies as ``_poly_powmod`` does, with no product by one and no
square after the top bit.  All of this is exact: results are the same
residues the schoolbook product gives.

sigma is fixed by g = sigma(x), the cyclotomic power (1 + x)^u - 1 or
the Hensel-lifted Frobenius root.  Each sigma^k is stored as the packed
columns g_k^j, j < d, where g_k = sigma^k(x) = sigma(g_(k-1)); it is
applied to a unit by the fold of ``_poly_mulmod``, and the order p^n of
sigma is checked on g_k alone.

Class computation per level walks the unit filtration 1 + pi_i^j: free
cancellation through p-th powers below the critical level j = pe/(p-1),
an additive Artin-Schreier step c -> c^p + eta*c at the critical level,
and a new basis class at each remaining slot.  Membership in the p-th
powers is decided by the same walk at the top level (pth_root): x is a
p-th power iff the walk leaves no class coordinate and no uncancelled
level, and the root is assembled from the Teichmuller root of the
leading residue, the bases of the p-th powers the walk divided out, and
the p-th root of the deep remainder (``_deep_root``).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from itertools import product, repeat

import numpy as np

from . import fp_linalg as fl
from . import gmod
from .datum import GaloisDatum, LevelData
from .fp_linalg import Array

UNRAMIFIED = "unramified"
CYCLOTOMIC = "cyclotomic"
# the largest accepted precision, as a multiple of the default 4e + 24
PRECISION_FACTOR = 8


class PrecisionError(ArithmeticError):
    """A read or exact division fell outside the precision window."""


class NotPthPower(ValueError):
    """pth_root was given an element that is not a p-th power."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense coefficient lists modulo m)


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


# Reduction tables of _poly_mulmod, keyed by (tuple(f), m).  Each entry
# is (slot bytes, packed rows of x^k mod (f, m) for d <= k <= 2d-2, byte
# slices of the slots).  Least recently used first out: a tower's own
# modulus is used throughout, the widened ones of _strip a few at a time.
_REDUCTION_TABLES: dict[tuple, tuple] = {}
_REDUCTION_TABLES_MAX = 8


def _pack(c, m: int, width: int) -> int:
    """Kronecker packing: c_k mod m into byte slot k of one integer."""
    return int.from_bytes(
        b"".join(map(int.to_bytes, map(m.__rmod__, c), repeat(width), repeat("little"))),
        "little",
    )


def _unpack(packed: int, m: int, width: int, slots: list[slice]) -> list[int]:
    """The coefficients mod m held in the given byte slots of packed."""
    raw = packed.to_bytes(width * len(slots), "little")
    return list(map(m.__rmod__, map(int.from_bytes, map(raw.__getitem__, slots), repeat("little"))))


def _reduction_table(f: list[int], m: int) -> tuple:
    key = (tuple(f), m)
    table = _REDUCTION_TABLES.pop(key, None)
    if table is None:
        d = len(f) - 1
        # a slot ends below 2d(m-1)^2 + m: at most d products of residues,
        # plus d-1 reduction terms of a residue times a row entry
        width = (2 * d * (m - 1) ** 2 + m).bit_length() // 8 + 1
        rows = []
        row = [(-c) % m for c in f[:d]]  # x^d
        for _ in range(d - 1):
            rows.append(_pack(row, m, width))
            top = row[-1]
            row = [(-top * f[0]) % m] + [(row[j - 1] - top * f[j]) % m for j in range(1, d)]
        slots = [slice(k * width, (k + 1) * width) for k in range(2 * d - 1)]
        if len(_REDUCTION_TABLES) >= _REDUCTION_TABLES_MAX:
            del _REDUCTION_TABLES[next(iter(_REDUCTION_TABLES))]
        table = (width, rows, slots)
    _REDUCTION_TABLES[key] = table
    return table


def _poly_mulmod(a: list[int], b: list[int], f: list[int], m: int) -> list[int]:
    """a*b mod (f, m) for monic f; inputs of length at most deg f.

    Both operands are packed into one integer each (Kronecker
    substitution), multiplied once, and the product's coefficients of
    degree >= deg f are folded back with the packed rows of x^k mod f.
    """
    d = len(f) - 1
    if not a or not b:
        return [0] * d
    if len(a) > d or len(b) > d:
        raise ValueError("operand longer than deg f")
    width, rows, slots = _reduction_table(f, m)
    pa = _pack(a, m, width)
    prod = pa * (pa if b is a else _pack(b, m, width))
    high = len(a) + len(b) - 1 - d
    if high > 0:
        low_bits = 8 * width * d
        coeffs = _unpack(prod >> low_bits, m, width, slots[:high])
        prod = sum(map(operator.mul, coeffs, rows), prod & ((1 << low_bits) - 1))
    return _unpack(prod, m, width, slots[:d])


def _poly_powmod(a: list[int], e: int, f: list[int], m: int) -> list[int]:
    """a^e mod (f, m), e >= 0, as fl.mat_pow: the result starts at the
    lowest set bit's power, and the top bit's power is not squared."""
    d = len(f) - 1
    if e == 0:
        return [1] + [0] * (d - 1)
    base = [c % m for c in a] + [0] * (d - len(a))
    result = None
    while True:
        if e & 1:
            result = base if result is None else _poly_mulmod(result, base, f, m)
        e >>= 1
        if not e:
            return result
        base = _poly_mulmod(base, base, f, m)


def _poly_invmod(a: list[int], v: list[int], f: list[int], m: int, digits: int) -> list[int]:
    """a^-1 mod (f, m) by Newton's iteration v -> v(2 - av), from v a lift
    of the inverse of a's residue.  Each round doubles the pi-adic
    valuation of 1 - av, so ceil(log2(digits)) + 2 rounds reach m, which
    holds that many pi-digits; it stops once av = 1, where further
    rounds leave v unchanged."""
    one = [1] + [0] * (len(f) - 2)
    for _ in range(max(3, math.ceil(math.log2(digits)) + 2)):
        av = _poly_mulmod(a, v, f, m)
        if av == one:
            break
        two_minus = [(-c) % m for c in av]
        two_minus[0] = (two_minus[0] + 2) % m
        v = _poly_mulmod(v, two_minus, f, m)
    return v


def _poly_add(a: list[int], b: list[int], m: int) -> list[int]:
    n = max(len(a), len(b))
    return [
        ((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m
        for i in range(n)
    ]


def _cyclotomic_shifted(p: int, power: int) -> list[int]:
    """Coefficients of Phi_{p^power}(x + 1), Eisenstein with constant p."""
    step = p ** (power - 1)
    phi = {0: 1, step: 1} if p == 2 else {t * step: 1 for t in range(p)}
    out = [0] * (max(phi) + 1)
    for k, coef in phi.items():
        for j in range(k + 1):
            out[j] += coef * math.comb(k, j)
    return out


def _gf_poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q b + r and deg r < deg b over F_p; b is trimmed
    and nonzero, a reduced mod p."""
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    r = _poly_trim(list(a))
    while len(r) >= len(b):
        c = r[-1] * inv % p
        off = len(r) - len(b)
        q[off] = c
        for j in range(len(b)):
            r[off + j] = (r[off + j] - c * b[j]) % p
        _poly_trim(r)
    return q, r


def _gf_poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of a and b over F_p (its degree is what callers read)."""
    a = _poly_trim([x % p for x in a])
    b = _poly_trim([x % p for x in b])
    while b:
        a, b = b, _gf_poly_divmod(a, b, p)[1]
    return a


def _gf_poly_inverse(a: list[int], f: list[int], p: int) -> list[int]:
    """a^-1 mod (f, p) as deg f coefficients, by the extended Euclidean
    algorithm; ZeroDivisionError unless a is prime to f mod p."""
    d = len(f) - 1
    r1 = _poly_trim([c % p for c in a])
    if len(r1) == 1:  # a nonzero constant, the whole residue when deg f = 1
        return [pow(r1[0], p - 2, p)] + [0] * (d - 1)
    # invariant: s_k * a = r_k mod f, starting from (0, f) and (1, a)
    r0 = _poly_trim([c % p for c in f])
    s0, s1 = [], [1]
    while r1:
        q, r = _gf_poly_divmod(r0, r1, p)
        qs1 = [0] * (len(q) + len(s1) - 1)
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                qs1[i + j] += qi * sj
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim(_poly_add(s0, [-c for c in qs1], p))
    if len(r0) != 1:
        raise ZeroDivisionError("not a unit")
    c = pow(r0[0], p - 2, p)
    return [x * c % p for x in s0] + [0] * (d - len(s0))


def _gf_irreducible(f: list[int], p: int) -> bool:
    d = len(f) - 1
    x = [0, 1]
    minus_x = [0, p - 1]
    xq = _poly_powmod(x, p**d, f, p)
    if _poly_trim(_poly_add(xq, minus_x, p)) != []:
        return False
    for ell in [q for q in range(2, d + 1) if d % q == 0 and fl.is_prime(q)]:
        xe = _poly_powmod(x, p ** (d // ell), f, p)
        if len(_gf_poly_gcd(_poly_add(xe, minus_x, p), f, p)) - 1 != 0:
            return False
    return True


def _find_unramified_poly(p: int, d: int) -> list[int]:
    """Deterministic monic irreducible of degree d over F_p, lifted to Z."""
    if d == 1:
        return [1, 1]
    for width in range(2, d + 1):
        for tail in product(range(p), repeat=width):
            if tail[0] == 0:
                continue
            f = [0] * d + [1]
            for idx, c in enumerate(tail):
                f[idx] = c
            if _gf_irreducible(f, p):
                return f
    raise AssertionError("no irreducible polynomial found")


# ---------------------------------------------------------------------------
# elements


@dataclass
class LFElement:
    """pi^val * unit; unit None encodes zero (to precision aprec).

    aprec is an absolute precision bound in pi-digits of the top field:
    the represented value is correct modulo pi^aprec.  None means exact.
    """

    val: int
    unit: tuple[int, ...] | None
    aprec: int | None = None

    @property
    def is_zero(self) -> bool:
        return self.unit is None

    def __repr__(self):
        if self.is_zero:
            return f"LFElement(0, aprec={self.aprec})"
        return f"LFElement(val={self.val}, unit~{list(self.unit[:3])}..., aprec={self.aprec})"


def _amin(*vals):
    finite = [v for v in vals if v is not None]
    return min(finite) if finite else None


class LocalTower:
    """A cyclic tower of p-adic fields with truncated exact arithmetic."""

    def __init__(self, p: int, kind: str, n: int, precision: int | None = None):
        """The tower of the given kind; precision None means 4e + 24
        pi-digits, and at most PRECISION_FACTOR times that is accepted.
        This is the only code that reads the kind (see the module
        docstring for what each kind supplies)."""
        fl.check_prime(p)
        kind = kind.lower()
        if kind not in (UNRAMIFIED, CYCLOTOMIC):
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

        if kind == UNRAMIFIED:
            self.deg, self.e, self.xi_in_F = p**n, 1, False
        else:
            # K = Q_2(zeta_{2^(n+2)}) over F = Q_2(i), else Q_p(zeta_{p^(n+1)})
            # over F = Q_p(zeta_p)
            zeta_power = n + 2 if p == 2 else n + 1
            self.deg = self.e = 2 ** (n + 1) if p == 2 else p**n * (p - 1)
            self.xi_in_F = True
        if p == 2 and not self.xi_in_F:
            raise ValueError("unramified towers need p odd (xi_2 = -1 lies in every 2-adic field)")
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
        self.pi_prec = precision
        self.cp = math.ceil(precision / self.e) + (p * self.e) // (p - 1) // self.e + 10
        self.modulus = p**self.cp
        self.rel_cap = self.e * self.cp  # representable relative precision

        if kind == UNRAMIFIED:
            # pi = p, and x is a unit whose residue generates F_p[x]/(f mod p)
            self.minpoly = _find_unramified_poly(p, self.deg)
            self.r = [c % p for c in self.minpoly]
            self._pi_poly, self._x_val, self._pi_unit = [p], 0, None
        else:
            # Eisenstein power basis: pi = x reduces to 0, residue field F_p;
            # pi^e = x^d = -(a_0 + ... + a_{d-1} x^(d-1)) = p*u, u a unit
            self.minpoly = _cyclotomic_shifted(p, zeta_power)
            assert all(c % p == 0 for c in self.minpoly[:-1]) and self.minpoly[0] % p**2
            self.r = [0, 1]
            self._pi_poly, self._x_val = [0, 1], 1
            self._pi_unit = [(-c) // p for c in self.minpoly[:-1]]

        self.fpoly = [c % self.modulus for c in self.minpoly]
        # per-tower powers of the uniformizer: t -> (modulus * p^k, f mod
        # that, p^k / pi^t mod both, p^k) for _strip, built from u^-k mod
        # p^(2cp) (index k); delta -> pi^delta for _shift
        self._strip_tables: dict[int, tuple] = {}
        self._unit_inv_powers: list[list[int] | None] = []
        self._shift_powers: dict[int, list[int]] = {}

        self._unit_one = (1,) + (0,) * (self.deg - 1)
        self.one = LFElement(0, self._unit_one)
        self.zero = LFElement(0, None)
        self.pi = LFElement(1, self._unit_one)

        if kind == UNRAMIFIED:
            # sigma is the Frobenius, and p is the uniformizer of every level
            gen_image, self._zeta = self._frobenius_root(), None
            uniformizers, level_e = [self.from_int(p)] * (n + 1), [1] * (n + 1)
        else:
            # zeta = 1 + pi, of order p^zeta_power, goes to zeta^u, so pi goes
            # to zeta^u - 1; K_i has the uniformizer zeta^(p^(n-i)) - 1
            gen_image = _poly_powmod([1, 1], 5 if p == 2 else 1 + p, self.fpoly, self.modulus)
            gen_image[0] = (gen_image[0] - 1) % self.modulus
            zeta = self.add(self.one, self.pi)
            self._zeta = (zeta, p**zeta_power)
            rels = [p ** (n - i) for i in range(n + 1)]
            uniformizers = [self.add(self.powi(zeta, rel), self.neg(self.one)) for rel in rels]
            level_e = [self.e // rel for rel in rels]

        self._galois_setup(gen_image)
        self._level_setup(uniformizers, level_e)
        # the matrix of c -> c^p on F_p[x]/(r), column j the image of x^j
        frob_cols = [_poly_powmod([0] * j + [1], p, self.r, p) for j in range(self.f)]
        self._res_frobenius = np.array(frob_cols, dtype=np.int64).T
        self._residue_fields: dict[int, fl.Subspace] = {}
        self._classes: dict[int, _LevelClasses] = {}

    # -- element construction ------------------------------------------------

    def from_poly(self, coeffs) -> LFElement:
        d = self.deg
        c = [int(x) % self.modulus for x in coeffs][:d]
        c += [0] * (d - len(c))
        if all(x == 0 for x in c):
            return self.zero
        t = self._poly_val(c)
        return LFElement(t, tuple(self._strip(c, t)), t + self.rel_cap)

    def from_int(self, c: int) -> LFElement:
        c = int(c) % self.modulus
        if c == 0:
            return self.zero
        return self.from_poly([c])

    def zeta(self, k: int = 1) -> LFElement:
        """zeta^k for the tower's distinguished root of unity zeta."""
        if self._zeta is None:
            raise ValueError("no distinguished root of unity in this tower")
        return self.powi(self._zeta[0], k)

    def zeta_p(self) -> LFElement:
        """A primitive p-th root of unity, a power of zeta."""
        if self._zeta is None:
            raise ValueError("xi_p is not in an unramified tower (p odd)")
        return self.zeta(self._zeta[1] // self.p)

    # -- valuation machinery ---------------------------------------------------

    def _poly_val(self, c: list[int]) -> int:
        """Valuation in pi-digits of a polynomial in the generator, 0 if
        it is zero; the generator is pi (valuation 1) or a unit (0)."""
        p, step = self.p, self._x_val
        best = None
        for k, x in enumerate(c):
            if x:
                v = 0
                while x % p == 0:
                    x //= p
                    v += 1
                vv = self.e * v + step * k
                best = vv if best is None else min(best, vv)
        return 0 if best is None else best

    def _strip(self, c: list[int], t: int) -> list[int]:
        """Exactly divide the polynomial by pi^t (valuation must allow it).

        Multiplies by q = p^k / pi^t, integral for k = ceil(t/e), modulo
        the enlarged modulus p^(cp+k), so the quotient c*q / p^k keeps cp
        digits.  When pi = p, q = 1.
        """
        if t == 0:
            return list(c)
        table = self._strip_tables.get(t)
        if table is None:
            table = self._strip_tables[t] = self._strip_table(t)
        mod_k, fk, q, pk = table
        acc = _poly_mulmod(c, q, fk, mod_k)
        if any(x % pk for x in acc):
            raise PrecisionError("strip below the honest valuation")
        return [(x // pk) % self.modulus for x in acc]

    def _strip_table(self, t: int) -> tuple:
        """(p^(cp+k), f mod that, q = p^k / pi^t mod both, p^k), k = ceil(t/e).

        When pi = x, pi^e = p*u, so q = x^s * u^-k for s = ke - t: one
        product, and one more for each new power u^-k, taken from u^-1
        modulo p^(2cp).  That covers every k <= cp, and a nonzero
        polynomial mod p^cp has valuation below e*cp, so a larger k is
        refused."""
        p, e = self.p, self.e
        k = -(-t // e)
        if k > self.cp:
            raise PrecisionError("strip below the honest valuation")
        pk = p**k
        mod_k = self.modulus * pk
        fk = [x % mod_k for x in self.minpoly]
        if self._pi_unit is None:
            return mod_k, fk, [1], pk
        wide = self.modulus**2
        fw = [x % wide for x in self.minpoly]
        powers = self._unit_inv_powers
        if not powers:
            u = [x % wide for x in self._pi_unit]
            powers += [None, _poly_invmod(u, self._residue_inverse(u), fw, wide, 2 * self.rel_cap)]
        while len(powers) <= k:
            powers.append(_poly_mulmod(powers[-1], powers[1], fw, wide))
        q = [x % mod_k for x in powers[k]]
        s = k * e - t
        if s:
            q = _poly_mulmod([0] * s + [1], q, fk, mod_k)
        return mod_k, fk, _poly_trim(q), pk

    def _shift(self, c: list[int], delta: int) -> list[int]:
        """Multiply a polynomial by pi^delta (delta >= 0)."""
        if delta == 0:
            return list(c)
        pd = self._shift_powers.get(delta)
        if pd is None:
            pd = self._shift_powers[delta] = _poly_trim(
                _poly_powmod(self._pi_poly, delta, self.fpoly, self.modulus)
            )
        return _poly_mulmod(c, pd, self.fpoly, self.modulus)

    # -- arithmetic --------------------------------------------------------------

    def add(self, x: LFElement, y: LFElement) -> LFElement:
        if x.is_zero and y.is_zero:
            return LFElement(0, None, _amin(x.aprec, y.aprec))
        if x.is_zero:
            return self._clip(y, x.aprec)
        if y.is_zero:
            return self._clip(x, y.aprec)
        if x.val > y.val:
            x, y = y, x
        a = _amin(x.aprec, y.aprec, x.val + self.rel_cap)
        delta = y.val - x.val
        if delta >= a - x.val:
            return LFElement(x.val, x.unit, a)
        w = _poly_add(x.unit, self._shift(y.unit, delta), self.modulus)
        if all(v == 0 for v in w):
            return LFElement(0, None, a)
        t = self._poly_val(w)
        if x.val + t >= a:
            return LFElement(0, None, a)
        return LFElement(x.val + t, tuple(self._strip(w, t)), a)

    def _clip(self, x: LFElement, aprec) -> LFElement:
        if aprec is None:
            return x
        if x.is_zero:
            return LFElement(0, None, _amin(x.aprec, aprec))
        a = _amin(x.aprec, aprec)
        if x.val >= a:
            return LFElement(0, None, a)
        return LFElement(x.val, x.unit, a)

    def neg(self, x: LFElement) -> LFElement:
        if x.is_zero:
            return x
        return LFElement(x.val, tuple((-v) % self.modulus for v in x.unit), x.aprec)

    def mul(self, x: LFElement, y: LFElement) -> LFElement:
        if x.is_zero or y.is_zero:
            a = None
            if x.is_zero and x.aprec is not None:
                a = x.aprec + (y.val if not y.is_zero else 0)
            if y.is_zero and y.aprec is not None:
                ay = y.aprec + (x.val if not x.is_zero else 0)
                a = _amin(a, ay)
            return LFElement(0, None, a)
        u = _poly_mulmod(x.unit, y.unit, self.fpoly, self.modulus)
        val = x.val + y.val
        a = _amin(
            None if x.aprec is None else x.aprec + y.val,
            None if y.aprec is None else y.aprec + x.val,
            val + self.rel_cap,
        )
        return LFElement(val, tuple(u), a)

    def inv(self, x: LFElement) -> LFElement:
        if x.is_zero:
            raise ZeroDivisionError("division by zero")
        u = list(x.unit)
        v = _poly_invmod(u, self._residue_inverse(u), self.fpoly, self.modulus, self.rel_cap)
        rel = None if x.aprec is None else x.aprec - x.val
        a = None if rel is None else -x.val + rel
        a = _amin(a, -x.val + self.rel_cap)
        return LFElement(-x.val, tuple(v), a)

    def _residue_inverse(self, u: list[int]) -> list[int]:
        """A lift of the inverse of u's residue u[:f] in F_p[x]/(r)."""
        return _gf_poly_inverse(u[: self.f], self.r, self.p) + [0] * (self.deg - self.f)

    def powi(self, x: LFElement, e: int) -> LFElement:
        """x^e, as _poly_powmod: popcount(e) + bitlength(e) - 2 products
        for e >= 1, and x itself for e = 1."""
        if e < 0:
            return self.powi(self.inv(x), -e)
        if e == 0:
            return self.one
        result = None
        while True:
            if e & 1:
                result = x if result is None else self.mul(result, x)
            e >>= 1
            if not e:
                return result
            x = self.mul(x, x)

    def eq(self, x: LFElement, y: LFElement) -> bool:
        """Equality of values to the available precision."""
        return self.add(x, self.neg(y)).is_zero

    def residue(self, x: LFElement):
        """Residue of a valuation-zero unit in F_p[x]/(r), as the tuple of
        its first f coefficients mod p (when f < deg, r = x, so x^k
        reduces to 0 for k >= f)."""
        if x.is_zero or x.val != 0:
            raise ValueError("residue requires a valuation-zero unit")
        if x.aprec is not None and x.aprec < self.e:
            raise PrecisionError("no full residue digit left")
        return tuple(map(self.p.__rmod__, x.unit[: self.f]))

    # -- Galois action --------------------------------------------------------

    def _galois_setup(self, gen_image: list[int]):
        """Store sigma^k, k < p^n, for sigma(x) = gen_image; check its order."""
        p, d, mod = self.p, self.deg, self.modulus
        width, _, slots = _reduction_table(self.fpoly, mod)
        self._col_layout = (width, slots[:d])

        order = p**self.n
        images = [[0, 1] + [0] * (d - 2), gen_image]  # images[k] = g_k = sigma^k(x)
        self._sigma_cols = [None]  # sigma^0 is never applied
        for k in range(1, order):
            powers = [[1], images[k]]
            while len(powers) < d:
                powers.append(_poly_mulmod(powers[-1], images[k], self.fpoly, mod))
            self._sigma_cols.append([_pack(c, mod, width) for c in powers])
            images.append(self._compose(images[k], self._sigma_cols[1]))

        # the units sigma^k(pi)/pi: when pi = x they are g_k/x; pi = p is
        # fixed by sigma, and galois then has nothing to multiply by
        self._sigma_pi_units = None
        if self._x_val:
            units = [self.from_poly(g) for g in images[:order]]
            if any(u.val != 1 for u in units):
                raise ValueError("generator image is not a uniformizer")
            self._sigma_pi_units = [LFElement(0, u.unit) for u in units]
        # exact order: sigma^(p^n) = 1 and sigma^(p^(n-1)) != 1, read on x
        # as sigma^k(x^j) = g_k^j.  Hensel-lifted coefficients are exact
        # only to about cp digits, so compare a few digits below the cap.
        slack = p ** max(1, self.cp - 4)

        def moves_x(g):
            return any((a - b) % mod % slack for a, b in zip(g, images[0]))

        if moves_x(images[order]):
            raise ValueError("generator does not have order p^n")
        if not moves_x(images[order // p]):
            raise ValueError("non-cyclic configuration: generator order too small")

    def _compose(self, u, cols: list[int]) -> list[int]:
        """u(g) mod (f, p^cp), for the packed columns cols of g's powers.

        The fold of _poly_mulmod: each slot of the sum collects at most d
        products of residues, below d(m-1)^2 < 2d(m-1)^2 + m, so no slot
        overflows into the next."""
        width, slots = self._col_layout
        return _unpack(sum(map(operator.mul, u, cols)), self.modulus, width, slots)

    def _frobenius_root(self) -> list[int]:
        """Hensel-lifted Frobenius image of the unramified generator."""
        d, mod = self.deg, self.modulus
        w = [0, 1] + [0] * (d - 2)
        r = self.from_poly(_poly_powmod(w, self.p, self.fpoly, mod))
        deriv = [(k * c) % mod for k, c in enumerate(self.minpoly)][1:]
        for _ in range(max(3, math.ceil(math.log2(self.cp)) + 2)):
            fr = self._eval_intpoly(self.minpoly, r)
            if fr.is_zero:
                break
            fpr = self._eval_intpoly(deriv, r)
            r = self.add(r, self.neg(self.mul(fr, self.inv(fpr))))
        return self._as_poly(r)

    def _eval_intpoly(self, coeffs: list[int], x: LFElement) -> LFElement:
        acc = self.zero
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), self.from_int(c))
        return acc

    def _as_poly(self, x: LFElement) -> list[int]:
        if x.is_zero:
            return [0] * self.deg
        if x.val < 0:
            raise ValueError("element is not integral")
        return self._shift(list(x.unit), x.val)

    def galois(self, x: LFElement, k: int = 1) -> LFElement:
        """sigma^k applied to an element."""
        k %= self.p**self.n
        if k == 0 or x.is_zero:
            return x
        img = LFElement(x.val, tuple(self._compose(x.unit, self._sigma_cols[k])), x.aprec)
        if self._sigma_pi_units is None:
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

    def teichmuller(self, residue) -> LFElement:
        """The Teichmuller lift of a residue, the root of X^q = X reducing to
        it (q = p^f); it lies in K_i when the residue is one of K_i."""
        p = self.p
        if all(v % p == 0 for v in residue):
            return self.zero
        if self.f == 1:
            # Newton's iteration on the integer lift: cheaper than the
            # tower's own for a residue in F_p
            r = residue[0] % p
            if p == 2 or r == 1:
                return self.one
            mod = self.modulus
            x = r
            for _ in range(max(3, math.ceil(math.log2(self.cp)) + 2)):
                num = (pow(x, p - 1, mod) - 1) % mod
                den = (p - 1) * pow(x, p - 2, mod) % mod
                x = (x - num * pow(den, -1, mod)) % mod
            return self.from_int(x)
        x = self.from_poly(list(residue))
        q = p**self.f
        for _ in range(max(3, math.ceil(math.log2(self.cp * self.e)) + 3)):
            xq1 = self.powi(x, q - 1)
            num = self.add(self.mul(x, xq1), self.neg(x))
            if num.is_zero:
                break
            den = self.add(self.mul(self.from_int(q), xq1), self.neg(self.one))
            x = self.add(x, self.neg(self.mul(num, self.inv(den))))
        return x

    def _residue_frob_inverse(self, residue):
        """delta with delta^p = residue in F_p[x]/(r): residue^(p^(f-1))."""
        p, f = self.p, self.f
        out = _poly_powmod(list(residue), p ** (f - 1), self.r, p)
        return tuple(out + [0] * (f - len(out)))

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
        unit = LFElement(0, x.unit, None if x.aprec is None else x.aprec - x.val)
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
    cycle: the methods that do arithmetic take the tower first."""

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
        self.res_basis = self.res_field.basis.tolist()
        frob = fl.matmul(tower._res_frobenius, self.res_field.basis.T, p)
        self._frob_sub = frob[self.res_field.pivots]
        self._crit_map = self._artin_schreier_map(tower)
        # records: (reduced element, its inverse, filtration level, leading coords)
        self.unit_basis: list[tuple[LFElement, LFElement, int, Array]] = []
        self._build(tower)
        self.basis_elements = [self.pi_i] + [b for b, _, _, _ in self.unit_basis]
        self.dim = len(self.basis_elements)
        # dim_{F_p} K_i^x/K_i^xp = [K_i:Q_p] + 1 + [xi_p in K_i]
        expected = tower.deg // p ** (tower.n - i) + 1 + tower.xi_in_F
        if self.dim != expected:
            raise AssertionError(
                f"level {i}: computed {self.dim} classes, classical count is {expected}"
            )

    def _res_coords(self, residue) -> Array:
        gamma = np.array(residue, dtype=np.int64)
        if self.res_field.dim == self.f:
            return gamma  # all of F_p[x]/(r), whose RREF basis is the identity
        if not self.res_field.contains(gamma):
            raise AssertionError("leading coefficient escaped the residue subfield")
        return gamma[self.res_field.pivots]

    def _res_from_coords(self, t: LocalTower, coords) -> LFElement:
        p = self.p
        acc = [0] * self.f
        for c, b in zip(coords, self.res_basis):
            if int(c) % p:
                for k, bv in enumerate(b):
                    acc[k] = (acc[k] + int(c) * bv) % p
        return t.teichmuller(acc)

    def _artin_schreier_map(self, t: LocalTower) -> Array | None:
        """c -> c^p + eta*c on subfield coordinates, eta the residue of
        p/pi_i^e_i; None without a critical level."""
        if self.crit is None:
            return None
        p = self.p
        unit = t.mul(t.from_int(p), t.powi(self.pi_i_inv, self.e_i))
        if unit.val != 0:
            raise AssertionError("p/pi_i^e_i is not a unit")
        eta = list(t.residue(unit))
        eta_b = np.array([_poly_mulmod(eta, b, t.r, p) for b in self.res_basis], dtype=np.int64)
        return (self._frob_sub + eta_b.T[self.res_field.pivots]) % p

    def _free_map(self, j: int) -> Array | None:
        """F_p-matrix whose image is cancellable at level j by p-th powers."""
        if self.crit is not None and j == self.crit:
            return self._crit_map
        if j % self.p == 0 and (self.crit is None or j < self.crit):
            return self._frob_sub
        return None

    def _free_base(self, t: LocalTower, j: int, delta_coords) -> LFElement:
        """The element whose p-th power cancels level j."""
        if self.crit is not None and j == self.crit:
            texp = self.e_i // (self.p - 1)
        else:
            texp = j // self.p
        lift = self._res_from_coords(t, delta_coords)
        return t.add(t.one, t.mul(lift, t.powi(self.pi_i, texp)))

    def _leading(self, t: LocalTower, u: LFElement):
        """(filtration level, leading coords) of a 1-unit, or (None, None)."""
        diff = t.add(u, t.neg(t.one))
        if diff.is_zero:
            return None, None
        s = t.level_val(self.i, diff)
        gamma = t.residue(LFElement(0, diff.unit, None))
        return s, self._res_coords(gamma)

    def _reduce(self, t: LocalTower, u: LFElement, bases: list | None = None):
        """Cancel the leading terms of the 1-unit u level by level.

        Returns (coords over the unit basis, what is left of u, its lead).
        The lead is None when u reduced past jstar, where every 1-unit is
        a p-th power; else it is (level, leading coords) of the first
        level that neither the unit basis nor a p-th power cancels.  Each
        p-th power divided out is base^p, and base is appended to bases.
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
            same = [
                (idx, rec[3]) for idx, rec in enumerate(self.unit_basis) if rec[2] == s
            ]
            free = self._free_map(s)
            blocks = []
            if same:
                blocks.append(np.stack([lead for _, lead in same], axis=1))
            if free is not None:
                blocks.append(free)
            sol = None
            if blocks:
                amat = np.concatenate(blocks, axis=1) % p
                sol = fl.solve(amat, gamma, p)
            if sol is None:
                return coords, u, (s, gamma)
            k = len(same)
            for (idx, _), c in zip(same, sol[:k]):
                c = int(c) % p
                if c:
                    coords[idx] = (coords[idx] + c) % p
                    u = t.mul(u, t.powi(self.unit_basis[idx][1], c))
            if free is not None and np.any(sol[k:] % p):
                base = self._free_base(t, s, sol[k:])
                if bases is not None:
                    bases.append(base)
                u = t.mul(u, t.inv(t.powi(base, p)))
        raise AssertionError("reduction loop failed to converge")

    def _build(self, t: LocalTower):
        for j in range(1, self.jstar + 1):
            for res in self.res_basis:
                lift = t.teichmuller(res)
                cand = t.add(t.one, t.mul(lift, t.powi(self.pi_i, j)))
                _, red, lead = self._reduce(t, cand)
                if lead is not None:
                    lv, coords = lead
                    self.unit_basis.append((red, t.inv(red), lv, coords))

    def class_of(self, t: LocalTower, x: LFElement) -> Array:
        p = self.p
        if x.is_zero:
            raise ValueError("zero has no class")
        v = t.level_val(self.i, x)
        unit = t.mul(x, t.powi(self.pi_i_inv, v)) if v else x
        res = t.residue(unit)
        if res != t._unit_one[: self.f]:
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

    a_{n-1} is the Kummer generator of the top step (zeta^p, whose p-th
    root generates K over K_{n-1}); the rest are successive norms down
    the tower.  Each step is checked at the class level: a_i is not a
    p-th power in its own field, and it becomes one a level up.
    """
    return [a for a, _ in _kummer_chain(tower)]


def _kummer_chain(tower: LocalTower) -> list[tuple[LFElement, Array]]:
    """(a_i, its level-i class) for i = n-1, ..., 0, each step checked."""
    if not tower.xi_in_F:
        raise ValueError("Kummer generators require xi_p in the base")
    n = tower.n
    chain = [tower.zeta(tower.p)]
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
