"""Modules over F_p[G] for G cyclic of order p^n.

A GModule is an F_p-space together with the matrix of a chosen generator
sigma of G.  Module elements are plain coordinate vectors (1-D numpy
arrays); all submodules are sigma-invariant subspaces of the one ambient
space.  Levels i = 0..n index the subgroups H_i = <sigma^(p^i)>, so
H_0 = G and H_n is trivial.

sigma is read-only, so each module computes what depends on it alone
(fixed spaces, powers of sigma - 1, the Jordan type) once, and keeps it
in its own cache for as long as the module lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fp_linalg as fl
from .fp_linalg import Array, Subspace


@dataclass(frozen=True, eq=False)
class GModule:
    p: int
    n: int
    dim: int
    sigma: Array  # dim x dim, sigma^(p^n) = identity; read-only
    _cache: dict = field(default_factory=dict, repr=False, compare=False)


def memo(cache: dict, key, compute):
    """cache[key], computed by compute() on first use."""
    try:
        return cache[key]
    except KeyError:
        value = cache[key] = compute()
        return value


def make_module(p: int, n: int, sigma) -> GModule:
    """Validated GModule; rejects dim > fl.DIM_MAX and an order not dividing p^n."""
    fl.check_prime(p)
    if n < 0:
        raise ValueError("tower height must be >= 0")
    sigma = fl.asmod(sigma, p)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("sigma must be square")
    if sigma.shape[0] > fl.DIM_MAX:
        raise ValueError(
            f"dim {sigma.shape[0]} exceeds the supported bound DIM_MAX = {fl.DIM_MAX}"
        )
    sigma.setflags(write=False)
    m = GModule(p, n, sigma.shape[0], sigma)
    # sigma^(p^n) - 1 = (sigma - 1)^(p^n) in characteristic p; the power
    # stays cached for fixed_points(m, n).  A nilpotent operator vanishes
    # at every power >= dim, and p^t >= 2^t >= dim, so for n > t the power
    # p^t decides the same question without building a huge p^n.
    t = max(m.dim - 1, 0).bit_length()
    if np.any(op_pow(m, p ** min(n, t))):
        raise ValueError(f"not an order-p^n action: sigma^({p}^{n}) != identity")
    return m


def jordan_sigma(p: int, sizes: list[int]) -> Array:
    """Unipotent sigma with one Jordan block per size: (sigma-1) b_j = b_{j+1}."""
    dim = sum(sizes)
    s = fl.identity(dim)
    pos = 0
    for size in sizes:
        for j in range(size - 1):
            s[pos + j + 1, pos + j] = 1
        pos += size
    return s % p


def op(m: GModule) -> Array:
    """The nilpotent operator sigma - 1 (read-only)."""
    return op_pow(m, 1)


def op_pow(m: GModule, k: int) -> Array:
    """(sigma - 1)^k, read-only; computed once per module and k."""

    def compute():
        if k == 1:
            power = (m.sigma - fl.identity(m.dim)) % m.p
        else:
            power = fl.mat_pow(op(m), k, m.p)
        power.setflags(write=False)
        return power

    return memo(m._cache, ("op_pow", k), compute)


def length(m: GModule, u) -> int:
    """Least k >= 0 with (sigma-1)^k u = 0; the Jordan height of u."""
    v = fl.asmod(u, m.p)
    if v.shape != (m.dim,):
        raise ValueError("element has wrong length")
    nilp = op(m)
    k = 0
    while np.any(v):
        v = fl.matmul(nilp, v, m.p)
        k += 1
        if k > m.dim:
            raise AssertionError("operator is not nilpotent")
    return k


def cyclic_submodule(m: GModule, u) -> Subspace:
    """Span of u, (sigma-1)u, ...; its dimension equals length(u)."""
    v = fl.asmod(u, m.p)
    nilp = op(m)
    rows = []
    while np.any(v):
        rows.append(v)
        v = fl.matmul(nilp, v, m.p)
    return fl.span(m.p, m.dim, np.array(rows).reshape(-1, m.dim))


def socle_series(m: GModule) -> list[Subspace]:
    """T_1 < T_2 < ... with T_k = ker (sigma-1)^k, ending at the full space."""
    series = []
    nilp = op(m)
    power = fl.identity(m.dim)
    prev_dim = -1
    while True:
        power = fl.matmul(power, nilp, m.p)
        t = fl.kernel(power, m.p)
        if t.dim == prev_dim:
            raise AssertionError("socle series stalled below the full space")
        series.append(t)
        prev_dim = t.dim
        if t.dim == m.dim:
            return series


def fixed_points(m: GModule, i: int) -> Subspace:
    """M^{H_i} = ker(sigma^(p^i) - 1); i = 0 gives M^G, i = n the full space."""
    if not 0 <= i <= m.n:
        raise ValueError(f"level {i} out of range 0..{m.n}")
    # sigma^(p^i) - 1 = (sigma - 1)^(p^i) in characteristic p
    return memo(m._cache, ("fixed", i), lambda: fl.kernel(op_pow(m, m.p**i), m.p))


def subgroup_module(m: GModule, j: int) -> GModule:
    """M as a module over H_j, with generator sigma^(p^j) and height n - j.

    An order-p^n action raised to p^j has order dividing p^(n-j), so
    make_module's checks are not repeated.  The H_i-fixed part for
    sigma^(p^j) is M's H_(i+j)-fixed part, so M's cached fixed spaces
    carry over.
    """
    if not 0 <= j <= m.n:
        raise ValueError(f"level {j} out of range 0..{m.n}")
    sigma = (fl.identity(m.dim) + op_pow(m, m.p**j)) % m.p
    sigma.setflags(write=False)
    sub = GModule(m.p, m.n - j, m.dim, sigma)
    for i in range(sub.n + 1):
        key = ("fixed", i + j)
        if key in m._cache:
            sub._cache[("fixed", i)] = m._cache[key]
    return sub


def jordan_type(m: GModule) -> list[int]:
    """Multiset of Jordan block sizes of sigma, largest first.

    Computed from the kernel-dimension sequence of powers of sigma - 1
    (rank sequence of the shrinking image chain); no basis change.
    Computed once per module; each call returns a fresh list.
    """
    return list(memo(m._cache, "jordan_type", lambda: tuple(_jordan_type(m))))


def _jordan_type(m: GModule) -> list[int]:
    if m.dim == 0:
        return []
    dims = [0]
    nilp = op(m)
    # image-chain ranks: row space of B_k = rref((sigma-1)^k) shrinks fast
    image_rows = fl.identity(m.dim)
    while dims[-1] < m.dim:
        mapped = fl.matmul(image_rows, nilp.T, m.p)
        r, pivots = fl.rref(mapped, m.p)
        image_rows = r[: len(pivots)]
        dims.append(m.dim - len(pivots))
        if len(dims) > m.dim + 1:
            raise AssertionError("kernel sequence failed to reach full dimension")
    blocks: list[int] = []
    # number of blocks of size >= k is dims[k] - dims[k-1]
    for k in range(1, len(dims)):
        at_least_k = dims[k] - dims[k - 1]
        at_least_k1 = dims[k + 1] - dims[k] if k + 1 < len(dims) else 0
        blocks.extend([k] * (at_least_k - at_least_k1))
    blocks.sort(reverse=True)
    return blocks


def is_invariant(m: GModule, s: Subspace) -> bool:
    return s.contains(fl.matmul(s.basis, m.sigma.T, m.p))


def independent_sum_check(m: GModule, parts: list[Subspace]) -> bool:
    """True iff the parts' G-fixed subspaces are in direct sum.

    By the exclusion principle for F_p[G]-modules this certifies that the
    sigma-invariant parts themselves are in direct sum; the certificate is
    cross-checked against total dimensions and a failure of the implication
    is reported as an internal error.
    """
    fixed = fixed_points(m, 0)
    total_fixed = 0
    ech_fixed = fl.Echelon(m.p, m.dim)
    for part in parts:
        if not is_invariant(m, part):
            raise ValueError("part is not sigma-invariant")
        part_fixed = fl.sub_intersect(part, fixed)
        total_fixed += part_fixed.dim
        for row in part_fixed.basis:
            ech_fixed.add(row)
    if ech_fixed.dim != total_fixed:
        return False
    # fixed parts independent: the lemma says the parts are independent too
    ech = fl.Echelon(m.p, m.dim)
    total = 0
    for part in parts:
        total += part.dim
        for row in part.basis:
            ech.add(row)
    if ech.dim != total:
        raise AssertionError(
            "independent fixed parts but dependent modules: exclusion principle violated"
        )
    return True


def restricted_matrix(m: GModule, u: Subspace) -> Array:
    """Matrix of sigma on U in U's canonical basis; U must be invariant."""
    if u.dim == 0:
        return fl.zeros(0, 0)
    images = fl.matmul(u.basis, m.sigma.T, m.p)
    if not u.contains(images):
        raise ValueError("subspace is not sigma-invariant")
    # coordinates in the RREF basis are the entries at its pivots
    return images[:, u.pivots].T


def _free_block_size(m: GModule, u: Subspace, name: str) -> int:
    """Common Jordan block size of sigma restricted to U; 0 for U = 0."""
    if u.dim == 0:
        return 0
    sub_sigma = restricted_matrix(m, u)
    sub = make_module(m.p, m.n, sub_sigma)
    blocks = jordan_type(sub)
    sizes = set(blocks)
    if len(sizes) != 1:
        raise ValueError(f"{name} is not free of a single block size: {blocks}")
    return blocks[0]


def free_complement(m: GModule, u: Subspace, v: Subspace) -> Subspace:
    """A submodule W with U = V (+) W, W free of the same block size as V.

    Both U and V must be invariant and free (all Jordan blocks of the
    restricted action of one common size s).  Construction: complement Z
    of the fixed part of V inside the fixed part of U, then lift each
    basis vector z of Z through (sigma-1)^(s-1) inside U; the lifts
    generate W.
    """
    if not u.contains_space(v):
        raise ValueError("V is not contained in U")
    if not is_invariant(m, u) or not is_invariant(m, v):
        raise ValueError("inputs must be sigma-invariant")
    size_u = _free_block_size(m, u, "U")
    if v.dim:
        size_v = _free_block_size(m, v, "V")
        if size_u != size_v:
            raise ValueError(f"block sizes differ: U has {size_u}, V has {size_v}")
    if u.dim == v.dim:
        return fl.zero_space(m.p, m.dim)
    s = size_u
    z = fl.sub_complement(fl.sub_intersect(u, fixed_points(m, 0)), v)
    lift_op = op_pow(m, s - 1)
    rows = []
    for zrow in z.basis:
        w = fl.solve_in_space(lift_op, u, zrow)
        if w is None:
            raise AssertionError("free module without a norm preimage of a fixed vector")
        rows.append(cyclic_submodule(m, w).basis)
    if not rows:
        return fl.zero_space(m.p, m.dim)
    comp = fl.span(m.p, m.dim, np.concatenate(rows, axis=0))
    if comp.dim + v.dim != u.dim or fl.sub_intersect(comp, v).dim != 0:
        raise AssertionError("free complement construction failed to split U")
    return comp
