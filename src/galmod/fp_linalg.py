"""Dense exact linear algebra over prime fields F_p.

Matrices are numpy int64 arrays with entries reduced mod p, acting on
column vectors (1-D arrays).  A ``Subspace`` of F_p^n stores a canonical
reduced-row-echelon basis, so two equal subspaces have byte-identical
bases and compare with ``==``, together with the basis's pivot columns,
so membership is one matrix product.

Each subspace operation is one elimination.  ``kernel_matrix`` returns
the canonical RREF basis of a kernel from one ``rref`` of the matrix
with its columns reversed, so ``kernel``, ``sub_intersect`` and
``preimage`` build their subspaces from its rows without a second
``rref`` (an echelon form and its rank profile come out of a single
elimination: Dumas, Pernet & Sultan, ISSAC 2013).

All operations are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# The largest supported p.  Two exactness bounds rest on it, and both
# are checked where they apply:
# - matmul multiplies in float64, which holds every integer below
#   2^53, so a product of reduced operands is exact while
#   inner * (p-1)^2 < 2^53: for every inner dim below 2^21 under P_MAX.
#   Past that bound matmul multiplies in int64 (exact below 2^63).
# - rref reduces a row only when it becomes the pivot row, so an entry
#   stays below p + rows * (p-1)^2 in magnitude; rows below 2^31 keep
#   that under 2^63, and past the bound rref reduces after every pivot.
# The table of inverses_mod holds at most P_MAX entries (512 KiB).
P_MAX = 1 << 16
# The largest dim J that synth builds.  A dense dim x dim int64 matrix
# takes 8 MB at this bound, and a datum and its decomposition keep a few
# dozen of them (level maps, cached powers of sigma - 1); the selftest
# sweep at any --dim-cap stays at or below 313.
DIM_MAX = 1 << 10


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int) -> int:
    """p as an int; ValueError if it is not a prime at most P_MAX (the
    bound is checked first, so a huge p costs no trial division)."""
    p = int(p)
    if p > P_MAX:
        raise ValueError(f"p = {p} exceeds the supported bound P_MAX = {P_MAX}")
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


def _inverse_table(p: int) -> Array:
    # inv[0] unused; p <= P_MAX, so the table stays small
    inv = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        inv[a] = pow(a, p - 2, p)
    return inv


_INV_CACHE: dict[int, Array] = {}


def inverses_mod(p: int) -> Array:
    tab = _INV_CACHE.get(p)
    if tab is None:
        tab = _inverse_table(check_prime(p))
        _INV_CACHE[p] = tab
    return tab


def asmod(a, p: int) -> Array:
    return np.asarray(a, dtype=np.int64) % p


def identity(n: int) -> Array:
    return np.eye(n, dtype=np.int64)


def zeros(rows: int, cols: int) -> Array:
    return np.zeros((rows, cols), dtype=np.int64)


# float64 holds every integer below 2^53 exactly (FFLAS-FFPACK: Dumas,
# Giorgi & Pernet, ACM TOMS 2008)
_FLOAT64_EXACT = 1 << 53
_INT64_EXACT = 1 << 63
# Products of fewer multiply-adds than this stay in int64.  The float
# path pays about 3 us for its conversions and reduction whatever the
# size, and its first product makes OpenBLAS's kernel code and packing
# buffers resident, about 0.7 MB of peak RSS in a process whose products
# are all small.  Measured at p=3 on a 2-core x86-64 host with OpenBLAS,
# a square product costs 10.5 us (int64) vs 11.9 us (float64) at dim 16,
# 19 vs 13 us at dim 22, 48 vs 17 us at dim 32 and 19 vs 1.3 ms at dim
# 243: below dim 32 a product saves at most about 30 us.  A
# matrix-vector product is no faster in floats at any size: reading the
# matrix dominates, and the float path reads it twice.
_BLAS_MIN_MACS = 32**3


def matmul(a: Array, b: Array, p: int) -> Array:
    """a @ b mod p, as int64, for int64 operands with entries in [0, p).

    1-D operands are vectors, as for numpy's ``@``.  Large enough products
    of matrices are computed by BLAS in float64 while that is exact, i.e.
    while inner * (p-1)^2 < 2^53; the rest in int64.
    """
    inner = a.shape[-1]
    rows = a.shape[0] if a.ndim == 2 else 1
    cols = b.shape[-1] if b.ndim == 2 else 1
    if (min(rows, cols) == 1 or rows * inner * cols < _BLAS_MIN_MACS
            or inner * (p - 1) ** 2 >= _FLOAT64_EXACT):
        return (a @ b) % p
    # each float temporary is dropped once used: one at dim 243 is 0.5 MB
    af = a.astype(np.float64)
    c = af @ (af if b is a else b.astype(np.float64))
    del af
    # 0 <= c < 2^53: the correctly rounded c/p never reaches the next
    # integer above its floor (that would take a rounding error of 1/p,
    # and the spacing of floats near c/p is below 2/p), nor drops below
    # the floor, which is itself a float; so the remainder is exact.
    q = c / p
    np.floor(q, out=q)
    q *= p
    c -= q
    del q
    return c.astype(np.int64)


def mat_pow(a: Array, k: int, p: int) -> Array:
    """a^k mod p by repeated squaring; k >= 0.

    For k >= 1 it takes popcount(k) + bitlength(k) - 2 products: the
    result starts at the lowest set bit's power, and the top bit's power
    is not squared again.
    """
    if k < 0:
        raise ValueError("negative matrix power")
    if k == 0:
        return identity(a.shape[0])
    base = a % p
    result = None
    while True:
        if k & 1:
            result = base if result is None else matmul(result, base, p)
        k >>= 1
        if not k:
            return result
        base = matmul(base, base, p)


def rref(a: Array, p: int) -> tuple[Array, list[int]]:
    """Reduced row echelon form over F_p.

    Returns (R, pivot_cols).  R has the same shape as the input with zero
    rows pushed to the bottom; entries above and below pivots are cleared
    and pivots are 1.
    """
    r = asmod(a, p)  # a new array
    m, n = r.shape
    inv = inverses_mod(p)
    # Delayed reduction: per pivot only the pivot column and the pivot
    # row are reduced, and the whole matrix once at the end.  Each pivot
    # subtracts at most (p-1)^2 from an entry, and a row is reduced when
    # it becomes the pivot row, so entries stay below p + m*(p-1)^2.
    # Where that could pass 2^63, the updated rows are reduced per pivot.
    eager = m * (p - 1) ** 2 + p >= _INT64_EXACT
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        column = r[:, col]
        column %= p
        nz = column[row:].nonzero()[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            r[[row, i]] = r[[i, row]]
        # columns left of col are already zero in the pivot row and in
        # every row it clears
        pivot_row = r[row, col:]
        pivot_row %= p
        pivot_row *= inv[column[row]]
        pivot_row %= p
        factors = column.copy()
        factors[row] = 0
        hit = factors.nonzero()[0]
        if hit.size:
            r[hit, col:] -= np.outer(factors[hit], pivot_row)
            if eager:
                r[hit, col:] %= p
        pivots.append(col)
        row += 1
    r %= p
    return r, pivots


def rank(a: Array, p: int) -> int:
    if a.size == 0:
        return 0
    return len(rref(a, p)[1])


def solve(a: Array, b: Array, p: int):
    """One solution x of A x = b over F_p, or None if inconsistent.

    Deterministic: free variables are set to zero, which is the
    lexicographically least assignment.
    """
    a = asmod(a, p)
    b = asmod(b, p)
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError(f"dimension mismatch: A is {m}x{n}, b has length {b.shape}")
    aug = np.concatenate([a, b.reshape(m, 1)], axis=1)
    r, pivots = rref(aug, p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for row, col in enumerate(pivots):
        x[col] = r[row, n]
    return x


def _uniform_draws(p: int, count: int, rng: random.Random) -> Array:
    """count values drawn as ``rng.randrange(p)`` would draw them one by
    one, leaving rng in the same state.

    For p < 2^32 each randrange attempt takes one 32-bit word of the
    generator and keeps its top p.bit_length() bits, retrying when that
    is p or more; getrandbits(32*k) returns the next k words, the first
    one lowest.  So draw exactly as many words as values are still
    missing, and repeat until none is.
    """
    shift = 32 - p.bit_length()
    out = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        k = count - done
        words = np.frombuffer(rng.getrandbits(32 * k).to_bytes(4 * k, "little"), dtype="<u4")
        vals = words >> shift
        vals = vals[vals < p]
        out[done : done + vals.size] = vals
        done += vals.size
    return out


def random_invertible(p: int, dim: int, rng: random.Random) -> Array:
    """A random invertible dim x dim matrix: uniform draws from rng, the
    same as ``rng.randrange(p)`` entry by entry, repeated until one has
    full rank."""
    while True:
        mat = _uniform_draws(p, dim * dim, rng).reshape(dim, dim)
        if rank(mat, p) == dim:
            return mat


def inverse(a: Array, p: int) -> Array:
    """The inverse of a square matrix over F_p; ValueError if singular."""
    n = a.shape[0]
    aug = np.concatenate([a % p, identity(n)], axis=1)
    r, pivots = rref(aug, p)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return r[:, n:]


class Echelon:
    """Incrementally grown row-echelon basis, for rank and membership tests.

    Rows are kept echelonized (not fully reduced); ``add`` returns True when
    the vector enlarged the span.
    """

    def __init__(self, p: int, ambient: int):
        self.p = p
        self.ambient = ambient
        self.rows: list[Array] = []
        self.pivots: list[int] = []

    def _reduce(self, v: Array) -> Array:
        p = self.p
        inv = inverses_mod(p)
        v = v % p
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if c:
                v = (v - c * inv[row[piv]] % p * row) % p
        return v

    def add(self, v: Array) -> bool:
        v = self._reduce(np.asarray(v, dtype=np.int64))
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < piv:
            idx += 1
        self.rows.insert(idx, v)
        self.pivots.insert(idx, piv)
        return True

    def contains(self, v: Array) -> bool:
        return not np.any(self._reduce(np.asarray(v, dtype=np.int64)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def matrix(self) -> Array:
        if not self.rows:
            return zeros(0, self.ambient)
        return np.stack(self.rows)


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of F_p^ambient with canonical RREF basis rows.

    It keeps the basis's pivot columns.  Row k of the basis has a 1 in
    column pivots[k] and every other row a 0 there, so a vector v lies in
    the space iff v = v[pivots] @ basis (mod p).
    """

    p: int
    ambient: int
    basis: Array  # shape (dim, ambient), canonical RREF, pivot-sorted
    pivots: Array  # shape (dim,), the pivot column of each basis row

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.p == other.p
            and self.ambient == other.ambient
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, ambient={self.ambient}, dim={self.dim})"

    def contains(self, v: Array) -> bool:
        """True iff the vector v lies in the space; for a 2-D v, iff every
        row of v does."""
        v = asmod(v, self.p)
        return bool(np.array_equal(v, matmul(v[..., self.pivots], self.basis, self.p)))

    def contains_space(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient or other.p != self.p:
            raise ValueError("ambient or modulus mismatch")
        return self.contains(other.basis)


def span(p: int, ambient: int, rows) -> Subspace:
    """Canonical subspace spanned by the given row vectors."""
    check_prime(p)
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return zero_space(p, ambient)
    r, pivots = rref(rows.reshape(-1, ambient), p)
    return _from_rref(p, ambient, r[: len(pivots)].copy(), pivots)


def _from_rref(p: int, ambient: int, basis: Array, pivots) -> Subspace:
    """The subspace whose canonical RREF basis and pivot columns are
    given; takes ownership of basis and makes it read-only."""
    check_prime(p)
    pivots = np.array(pivots, dtype=np.intp)
    basis.setflags(write=False)
    pivots.setflags(write=False)
    return Subspace(p, ambient, basis, pivots)


def _leads(rref_rows: Array) -> Array:
    """The leading column of each row of a matrix without zero rows."""
    # nonzero lists the entries row by row, so a row's first is its lead
    # (an argmax along the rows does the same but makes numpy code that
    # nothing else here uses resident: about 0.1 MB of peak RSS)
    rows, cols = rref_rows.nonzero()
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    return cols[first]


def zero_space(p: int, ambient: int) -> Subspace:
    return _from_rref(p, ambient, zeros(0, ambient), [])


def full_space(p: int, ambient: int) -> Subspace:
    return span(p, ambient, identity(ambient))


def _check_compatible(u: Subspace, v: Subspace):
    if u.p != v.p:
        raise ValueError("modulus mismatch")
    if u.ambient != v.ambient:
        raise ValueError("ambient dimension mismatch")


def sub_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_compatible(u, v)
    return span(u.p, u.ambient, np.concatenate([u.basis, v.basis], axis=0))


def sub_intersect(u: Subspace, v: Subspace) -> Subspace:
    """U n V via the kernel of the stacked coefficient system."""
    _check_compatible(u, v)
    ku, kv = u.dim, v.dim
    if ku == 0 or kv == 0:
        return zero_space(u.p, u.ambient)
    # x = Bu^T a = Bv^T b  <=>  [Bu^T | -Bv^T] (a; b) = 0.  b -> Bv^T b is
    # injective, so no kernel row leads in its b part and the a parts
    # are in RREF; a . Bu then leads at u's pivot where a leads, and is 0
    # at the pivots where a is, so the product is in RREF too.
    m = np.concatenate([u.basis.T, (-v.basis.T) % u.p], axis=1)
    coeffs = kernel_matrix(m, u.p)[:, :ku]
    vecs = matmul(coeffs, u.basis, u.p)
    return _from_rref(u.p, u.ambient, vecs, u.pivots[_leads(coeffs)])


def sub_complement(u: Subspace, v: Subspace) -> Subspace:
    """Deterministic W with U = V (+) W, for V a subspace of U.

    Greedy pivot completion: walk U's canonical basis and keep the rows
    that grow the span of V.
    """
    _check_compatible(u, v)
    if not u.contains_space(v):
        raise ValueError("complement requested but V is not contained in U")
    ech = Echelon(u.p, u.ambient)
    for row in v.basis:
        ech.add(row)
    picked = [row for row in u.basis if ech.add(row)]
    return span(u.p, u.ambient, np.array(picked).reshape(-1, u.ambient))


def kernel_matrix(a: Array, p: int) -> Array:
    """The canonical RREF basis of {x : A x = 0}; shape (nullity, cols).

    One ``rref`` of A with its columns reversed.  There, the kernel row
    of a free column f is 1 at f, 0 at the other free columns, and
    nonzero elsewhere only at pivots left of f.  Back in the original
    column order that row leads with 1 at n-1-f, right of which lie all
    its other nonzero entries, and every other row is 0 at n-1-f: the
    rows, taken in reverse order, are already the RREF.
    """
    a = asmod(a, p)
    m, n = a.shape
    if n == 0:
        return zeros(0, 0)
    r, pivots = rref(a[:, ::-1], p)
    if len(pivots) == n:
        return zeros(0, n)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    # the free columns of the reversed matrix, right to left; row k is 1
    # at n-1-free[k] and minus column free[k] of R at the mapped pivots
    free = is_free.nonzero()[0][::-1]
    ker = zeros(free.size, n)
    ker[np.arange(free.size), n - 1 - free] = 1
    ker[:, n - 1 - np.array(pivots, dtype=np.intp)] = (-r[: len(pivots), free].T) % p
    return ker


def kernel(a: Array, p: int) -> Subspace:
    ker = kernel_matrix(a, p)
    return _from_rref(p, a.shape[1], ker, _leads(ker))


def image(a: Array, p: int) -> Subspace:
    """Column space of A, as a subspace of the codomain F_p^rows."""
    return span(p, a.shape[0], asmod(a, p).T)


def apply_to_space(a: Array, s: Subspace) -> Subspace:
    """Image A(S) of a subspace under the matrix A."""
    if a.shape[1] != s.ambient:
        raise ValueError("dimension mismatch")
    if s.dim == 0:
        return zero_space(s.p, a.shape[0])
    return span(s.p, a.shape[0], matmul(s.basis, asmod(a, s.p).T, s.p))


def preimage(a: Array, w: Subspace) -> Subspace:
    """{x : A x in W} as a subspace of the domain."""
    m, n = a.shape
    if m != w.ambient:
        raise ValueError(f"codomain mismatch: A has {m} rows, W lives in dim {w.ambient}")
    k = w.dim
    if k == 0:
        return kernel(a, w.p)
    # A x = Bw^T c  <=>  [A | -Bw^T] (x; c) = 0, keep the x part.
    # c -> Bw^T c is injective, so no kernel row leads in its c part and
    # the x parts are in RREF.
    mtx = np.concatenate([asmod(a, w.p), (-w.basis.T) % w.p], axis=1)
    xs = kernel_matrix(mtx, w.p)[:, :n].copy()
    return _from_rref(w.p, n, xs, _leads(xs))


def solve_in_space(a: Array, s: Subspace, b: Array):
    """Some x in S with A x = b, or None.  Deterministic like solve()."""
    if a.shape[1] != s.ambient:
        raise ValueError("dimension mismatch")
    if s.dim == 0:
        return None if np.any(asmod(b, s.p)) else np.zeros(s.ambient, dtype=np.int64)
    restricted = matmul(asmod(a, s.p), s.basis.T, s.p)
    c = solve(restricted, b, s.p)
    if c is None:
        return None
    return matmul(s.basis.T, c, s.p)
