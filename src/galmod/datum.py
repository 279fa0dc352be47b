"""The Galois datum: everything the decomposition theorems consume.

A GaloisDatum packages the top module J with, for every level i of the
tower, the class space of the intermediate field, the map induced by
inclusion (eps), the maps induced by norms, and the Kummer class chain
a_i when the base contains a primitive p-th root of unity.

The level invariant m lives in {-inf, 0, 1, ..., n-1}; the sentinel
NEG_INF orders below every integer and m (+) 1 is 0 at the sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fp_linalg as fl
from . import gmod
from .fp_linalg import Array, Subspace
from .gmod import GModule

NEG_INF = float("-inf")


class HypothesisError(ValueError):
    """A theorem's hypothesis is not met (or not known) for this datum."""


class InconsistencyError(RuntimeError):
    """Axiom-valid data violated a theorem: the datum cannot come from a field."""


def dotplus1(m) -> int:
    """m (+) 1 with the convention (-inf) (+) 1 = 0."""
    if m == NEG_INF:
        return 0
    return int(m) + 1


# ---------------------------------------------------------------------------
# the shape the structure theorems give J = X + Y_0 + ... + Y_n; m is None
# when there is no X summand


def x_summand_exists(p: int, n: int, xi_in_F: bool, minus_one_is_norm) -> bool:
    """Whether J has the exceptional summand X: exactly when xi_p is in F,
    and for p = 2, n = 1 only if -1 is also a norm."""
    if not xi_in_F:
        return False
    if p == 2 and n == 1:
        if minus_one_is_norm is None:
            raise HypothesisError(
                "p=2, n=1: minus_one_is_norm is unknown; refusing to guess"
            )
        return minus_one_is_norm
    return True


def x_dim(p: int, m) -> int:
    """dim X = p^m + 1 with p^(-inf) = 0; 0 when there is no X (m None)."""
    if m is None:
        return 0
    return 1 if m == NEG_INF else p ** int(m) + 1


def x_exponent(p: int, m, i: int) -> int:
    """The k with (sigma-1)^k X the X part of [K_i^x], 0 <= i < n: below
    m it is (sigma-1)(sigma^(p^i)-1)^(p^(m-i)-1), so k = 1 + p^m - p^i;
    from m on (and for m = -inf) k = 1."""
    if m == NEG_INF or int(m) <= i:
        return 1
    return x_dim(p, m) - p**i


def rank_shift(m, i: int) -> int:
    """[i = m]: the rank of Y_i is e_i minus this (0 for m None or -inf)."""
    return int(m == i)


def y_ranks(e, m) -> list[int]:
    """The ranks y_i = e_i - [i = m] of the free summands Y_i."""
    return [e_i - rank_shift(m, i) for i, e_i in enumerate(e)]


def block_multiset(p: int, m, ranks) -> list[int]:
    """The Jordan block sizes of J, largest first: p^i once per rank of
    Y_i, and dim X when there is an X."""
    blocks = [p**i for i, r in enumerate(ranks) for _ in range(r)]
    if m is not None:
        blocks.append(x_dim(p, m))
    return sorted(blocks, reverse=True)


def level_str(m) -> str:
    if m is None:
        return "n/a"
    if m == NEG_INF:
        return "-inf"
    return str(int(m))


def level_from_str(s):
    if s in (None, "n/a"):
        return None
    if s == "-inf":
        return NEG_INF
    return int(s)


@dataclass(frozen=True, eq=False)
class LevelData:
    space: GModule            # J(K_i) with its induced generator action
    eps: Array                # J(K_i) -> J, induced by inclusion
    norm: Array               # J -> J(K_i), induced by the norm from K
    inter_norm: dict          # {j: matrix J(K_i) -> J(K_j)} for j < i
    a_class: Array | None     # class of a_i in J(K_i); present iff xi_in_F, absent at level n


@dataclass(eq=False)
class GaloisDatum:
    p: int
    n: int
    J: GModule
    levels: list[LevelData]
    xi_in_F: bool
    minus_one_is_norm: bool | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- cached helpers -------------------------------------------------
    # What depends on J alone is cached on J; _cache holds what reads the
    # level maps, which are plain arrays: clear it after changing one.

    def op_pow(self, k: int) -> Array:
        return gmod.op_pow(self.J, k)

    def fixed(self, i: int) -> Subspace:
        return gmod.fixed_points(self.J, i)

    def eps_image(self, i: int) -> Subspace:
        return gmod.memo(
            self._cache, ("eps_image", i), lambda: fl.image(self.levels[i].eps, self.p)
        )

    def norm_kernel(self, i: int) -> Subspace:
        return gmod.memo(
            self._cache, ("norm_kernel", i), lambda: fl.kernel(self.levels[i].norm, self.p)
        )

    def a_line(self, i: int) -> Subspace:
        """<a_i> in J(K_i), for a level that carries an a-class."""
        lv = self.levels[i]
        return gmod.memo(
            self._cache,
            ("a_line", i),
            lambda: fl.span(self.p, lv.space.dim, lv.a_class.reshape(1, -1)),
        )


@dataclass(frozen=True, eq=False)
class ExceptionalReport:
    m: int | float                 # level or NEG_INF
    delta: Array | None            # length-minimized exceptional class in J
    norm_class: Array | None       # its image in J(F)


# ---------------------------------------------------------------------------
# validation


def validate(d: GaloisDatum) -> list[str]:
    """Check the datum axioms; returns a list of violations (empty = valid)."""
    v: list[str] = []
    p, n, dim = d.p, d.n, d.J.dim
    if len(d.levels) != n + 1:
        return [f"expected {n + 1} levels, found {len(d.levels)}"]

    top = d.levels[n]
    if top.space.dim != dim or not np.array_equal(top.space.sigma, d.J.sigma):
        v.append("levels[n].space is not J")
    if not np.array_equal(top.eps, fl.identity(dim)):
        v.append("levels[n].eps is not the identity")
    if not np.array_equal(top.norm, fl.identity(dim)):
        v.append("levels[n].norm is not the identity")
    if top.a_class is not None:
        v.append("levels[n] carries an a-class")

    for i, lv in enumerate(d.levels):
        di = lv.space.dim
        if lv.eps.shape != (dim, di):
            v.append(f"level {i}: eps shape {lv.eps.shape} != ({dim},{di})")
            continue
        if lv.norm.shape != (di, dim):
            v.append(f"level {i}: norm shape {lv.norm.shape} != ({di},{dim})")
            continue
        if lv.space.n != i:
            v.append(f"level {i}: space height {lv.space.n} != {i}")
            continue
        if lv.a_class is not None and lv.a_class.shape != (di,):
            v.append(f"level {i}: a_class shape {lv.a_class.shape} != ({di},)")
            continue

        # equivariance
        if not np.array_equal(
            fl.matmul(lv.eps, lv.space.sigma, p), fl.matmul(d.J.sigma, lv.eps, p)
        ):
            v.append(f"level {i}: eps is not equivariant")
        if not np.array_equal(
            fl.matmul(lv.norm, d.J.sigma, p), fl.matmul(lv.space.sigma, lv.norm, p)
        ):
            v.append(f"level {i}: norm is not equivariant")

        # image of eps lands in the H_i-fixed part
        if not d.fixed(i).contains_space(d.eps_image(i)):
            v.append(f"level {i}: image(eps) not inside the H_{i}-fixed subspace")

        # eps o norm = (sigma-1)^(p^n - p^i) on J
        if not np.array_equal(fl.matmul(lv.eps, lv.norm, p), d.op_pow(p**n - p**i)):
            v.append(f"level {i}: eps o norm != (sigma-1)^(p^{n}-p^{i})")

        # inter-norm coherence: norm_j = inter_norm[i->j] o norm_i
        inter = {}
        for j, mtx in lv.inter_norm.items():
            if not 0 <= j < i:
                v.append(f"level {i}: inter_norm target {j} is not below {i}")
            elif mtx.shape != (d.levels[j].space.dim, di):
                v.append(f"level {i}: inter_norm to {j} has shape {mtx.shape}")
            else:
                inter[j] = mtx
                if not np.array_equal(fl.matmul(mtx, lv.norm, p), d.levels[j].norm % p):
                    v.append(f"level {i}: inter_norm to {j} breaks norm coherence")

        # kernel of eps
        ker = fl.kernel(lv.eps, p)
        a_line = d.a_line(i) if lv.a_class is not None and i < n else None
        if d.xi_in_F and i < n:
            if a_line is None:
                v.append(f"level {i}: xi in F but a-class missing")
            elif a_line.dim != 1:
                v.append(f"level {i}: a-class is zero")
            elif ker != a_line:
                v.append(f"level {i}: kernel(eps) != <a_class>")
        else:
            if lv.a_class is not None and (not d.xi_in_F):
                v.append(f"level {i}: a-class present without xi in F")
            if ker.dim != 0:
                v.append(f"level {i}: eps has nontrivial kernel without an a-class")

        # a-chain under inter-norms
        if lv.a_class is not None:
            for j, mtx in inter.items():
                aj = d.levels[j].a_class
                if aj is None:
                    continue
                if not np.array_equal(fl.matmul(mtx, lv.a_class, p), aj % p):
                    v.append(f"level {i}: inter_norm does not send a_{i} to a_{j}")

        if i < n:
            v.extend(exactness_violations(d, i))

    v.extend(fixed_submodule_violations(d))
    return v


def exactness_violations(d: GaloisDatum, i: int) -> list[str]:
    """The exact sequence at J^{H_i} for a level i < n: norms of fixed
    classes land in <a_i> (in 0 without an a-class), and the kernel of
    the norm on the fixed part is exactly image(eps_i)."""
    lv = d.levels[i]
    v: list[str] = []
    fixed_i = d.fixed(i)
    norm_of_fixed = fl.apply_to_space(lv.norm, fixed_i)
    if lv.a_class is not None:
        if not d.a_line(i).contains_space(norm_of_fixed):
            v.append(f"level {i}: norms of fixed classes leave <a_{i}>")
    elif norm_of_fixed.dim != 0:
        v.append(f"level {i}: norms of fixed classes are nonzero without xi")
    if fl.sub_intersect(fixed_i, d.norm_kernel(i)) != d.eps_image(i):
        v.append(f"level {i}: exactness fails at the H_{i}-fixed subspace")
    return v


def fixed_submodule_violations(d: GaloisDatum) -> list[str]:
    """The fixed submodule shape: dim(J^G / im eps_0) <= 1, with gap 1
    exactly when a fixed class has a nontrivial norm."""
    fixed0 = d.fixed(0)
    im0 = d.eps_image(0)
    if im0.dim > fixed0.dim or not fixed0.contains_space(im0):
        return ["image(eps_0) not inside J^G"]
    gap = fixed0.dim - im0.dim
    if gap > 1:
        return [f"dim(J^G / im eps_0) = {gap} > 1"]
    has_norm = fixed_class_has_norm(d, 0)
    if gap == 1 and not has_norm:
        return ["J^G exceeds im eps_0 but no fixed class has a nontrivial norm"]
    if gap == 0 and has_norm:
        return ["fixed class with nontrivial norm despite J^G = im eps_0"]
    return []


# ---------------------------------------------------------------------------
# norm-rank vector


def e_ranks(d: GaloisDatum) -> list[int]:
    """The vector (e_0, ..., e_n) of norm-group quotient dimensions.

    V_i is the image of (sigma-1)^(p^i - 1) on im(eps_i), realizing the
    classes of the norms from K_i; e_i = dim(V_i / V_{i+1}) and
    e_n = dim V_n.  The filtration must be nested.
    """
    n = d.n
    spaces = norm_filtration(d)
    for i in range(n):
        if not spaces[i].contains_space(spaces[i + 1]):
            raise InconsistencyError(f"filtration not nested at level {i}")
    e = [spaces[i].dim - spaces[i + 1].dim for i in range(n)]
    e.append(spaces[n].dim)
    return e


def norm_filtration(d: GaloisDatum) -> list[Subspace]:
    """The nested subspaces V_0 >= V_1 >= ... >= V_n used by e_ranks."""
    p, n = d.p, d.n
    spaces = gmod.memo(
        d._cache,
        "norm_filtration",
        lambda: tuple(
            fl.apply_to_space(d.op_pow(p**i - 1), d.eps_image(i)) for i in range(n + 1)
        ),
    )
    return list(spaces)


# ---------------------------------------------------------------------------
# the invariant m and exceptional classes


def check_definition_hypotheses(d: GaloisDatum):
    """The hypotheses under which the exceptional level is defined."""
    if not d.xi_in_F:
        raise HypothesisError("xi_p not in F: no exceptional elements are defined")
    if not x_summand_exists(d.p, d.n, d.xi_in_F, d.minus_one_is_norm):
        raise HypothesisError(
            "p=2, n=1 and -1 is not a norm: the theorem-2 hypothesis fails"
        )


def candidate_space(d: GaloisDatum, i) -> Subspace:
    """S_i = {x : (sigma-1) x in im eps_i}; S_{-inf} = ker(sigma-1)."""
    if i == NEG_INF:
        return d.fixed(0)
    return gmod.memo(
        d._cache,
        ("candidate_space", int(i)),
        lambda: fl.preimage(d.op_pow(1), d.eps_image(int(i))),
    )


def is_exceptional(d: GaloisDatum, m, w: Array) -> bool:
    """Whether w is exceptional at level m: its norm class in J(F) is
    nonzero and w lies in S_m, i.e. (sigma-1) w lies in im eps_m (is 0
    at m = -inf)."""
    if not np.any(fl.matmul(d.levels[0].norm, w, d.p)):
        return False
    return candidate_space(d, m).contains(w)


def fixed_class_has_norm(d: GaloisDatum, j: int) -> bool:
    """Whether some H_j-fixed class of J has a nonzero norm class at level j."""
    fixed = d.fixed(j)
    return fixed.dim > 0 and bool(
        np.any(fl.matmul(d.levels[j].norm, fixed.basis.T, d.p))
    )


def _norm0_nonvanishing(d: GaloisDatum, s: Subspace) -> Array | None:
    """First canonical basis vector of s with nonzero norm class, if any."""
    norm0 = d.levels[0].norm
    for row in s.basis:
        if np.any(fl.matmul(norm0, row, d.p)):
            return row.copy()
    return None


def exceptional_search(d: GaloisDatum) -> ExceptionalReport:
    """Find m = i(K/F) and a length-minimized exceptional class delta.

    delta satisfies norm_0(delta) != 0 and (sigma-1) delta in im(eps_m);
    after reduction modulo S_m n ker(norm_0) its length is p^m + 1
    (with p^(-inf) = 0), and any other outcome on validated data is
    reported as an inconsistency.  The report is computed once per datum.
    """
    check_definition_hypotheses(d)
    return gmod.memo(d._cache, "exceptional_search", lambda: _exceptional_search(d))


def _exceptional_search(d: GaloisDatum) -> ExceptionalReport:
    m = None
    delta = None
    for i in [NEG_INF, *range(d.n)]:
        delta = _norm0_nonvanishing(d, candidate_space(d, i))
        if delta is not None:
            m = i
            break
    if m is None:
        raise InconsistencyError(
            "no exceptional class found although the hypotheses guarantee one"
        )
    delta = _minimize_length(d, m, delta)
    expected = x_dim(d.p, m)
    got = gmod.length(d.J, delta)
    if got != expected:
        raise InconsistencyError(
            f"exceptional class has length {got}, expected p^m+1 = {expected}"
        )
    norm_class = fl.matmul(d.levels[0].norm, delta, d.p)
    delta.setflags(write=False)
    norm_class.setflags(write=False)
    return ExceptionalReport(m=m, delta=delta, norm_class=norm_class)


def _minimize_length(d: GaloisDatum, m, delta: Array) -> Array:
    """Shorten delta by elements of S_m n ker(norm_0); deterministic.

    delta - w lies in ker(sigma-1)^k iff (sigma-1)^k delta lies in the
    image (sigma-1)^k W, so the minimal length is found by walking the
    operator images instead of repeatedly solving for kernels.
    """
    w_space = fl.sub_intersect(candidate_space(d, m), d.norm_kernel(0))
    if w_space.dim == 0:
        return delta
    nilp = d.op_pow(1)
    delta_k = delta % d.p
    w_rows = w_space.basis
    k = 0
    while True:
        ech = fl.Echelon(d.p, d.J.dim)
        for row in w_rows:
            ech.add(row)
        if ech.contains(delta_k):
            break
        delta_k = fl.matmul(nilp, delta_k, d.p)
        w_rows = fl.matmul(w_rows, nilp.T, d.p)
        k += 1
        if k > d.J.dim:
            raise AssertionError("length minimization failed to terminate")
    # witness: solve (sigma-1)^k (delta - w) = 0 with w in W
    op_k = d.op_pow(k)
    t_k = fl.kernel(op_k, d.p)
    stacked = np.concatenate([t_k.basis, w_space.basis], axis=0)
    coeffs = fl.solve(stacked.T, delta, d.p)
    if coeffs is None:
        raise AssertionError("length minimization witness solve failed")
    w_part = fl.matmul(w_space.basis.T, coeffs[t_k.dim :], d.p)
    return (delta - w_part) % d.p


def i_via_theorem3(d: GaloisDatum):
    """m computed from the third equivalent condition of the level theorem:
    the least s such that the norm to level s (+) 1 has a nonzero value on
    some H_{s (+) 1}-fixed class.  Always equals exceptional_search(d).m on
    data coming from a genuine extension."""
    check_definition_hypotheses(d)
    return theorem3_level_raw(d)


def theorem3_level_raw(d: GaloisDatum):
    """The minimum of i_via_theorem3 gated only on xi_p, the form the
    restriction corollary needs for quadratic sub-extensions at p = 2."""
    if not d.xi_in_F:
        raise HypothesisError("xi_p not in F")
    for s in [NEG_INF, *range(d.n)]:
        if fixed_class_has_norm(d, dotplus1(s)):
            return s
    raise InconsistencyError("no level qualifies; J must be zero")


# ---------------------------------------------------------------------------
# restriction to a sub-extension K/K_j


def restrict(d: GaloisDatum, j: int) -> GaloisDatum:
    """The datum for K/K_j: same ambient J, generator sigma^(p^j), levels
    j..n relabeled 0..n-j.

    For p = 2 with n-j = 1 the -1-is-a-norm flag of the quadratic
    sub-extension is recomputed from the fixed-submodule criterion: it
    holds exactly when some sigma^(p^j)-fixed class has a nonzero norm
    class at level j.
    """
    if not 0 <= j < d.n:
        raise ValueError(f"restriction level {j} out of range 0..{d.n - 1}")
    if j == 0:
        return d
    p, n = d.p, d.n
    n2 = n - j
    for i in range(j, n + 1):
        d.fixed(i)  # computed once on J, then shared with the restriction
    j2 = gmod.subgroup_module(d.J, j)
    new_levels = []
    for i2 in range(n2 + 1):
        old = d.levels[j + i2]
        space2 = gmod.subgroup_module(old.space, j)
        inter2 = {
            t - j: old.inter_norm[t] for t in old.inter_norm if t >= j
        }
        new_levels.append(
            LevelData(
                space=space2,
                eps=old.eps,
                norm=old.norm,
                inter_norm=inter2,
                a_class=old.a_class,
            )
        )
    minus_one = fixed_class_has_norm(d, j) if p == 2 and n2 == 1 else None
    return GaloisDatum(
        p=p,
        n=n2,
        J=j2,
        levels=new_levels,
        xi_in_F=d.xi_in_F,
        minus_one_is_norm=minus_one,
    )


# ---------------------------------------------------------------------------
# norm-equation solving for cyclic submodules


def solve_norm_equation(d: GaloisDatum, gamma) -> Array | None:
    """An alpha whose full norm operator image spans the fixed line of the
    cyclic module of gamma, when the linear system admits one.

    Solves (sigma-1)^(p^n - 1) alpha = (sigma-1)^(l(gamma)-1) gamma.
    Returns None for gamma = 0 (degenerate fixed line) or when the system
    is inconsistent.
    """
    gamma = fl.asmod(gamma, d.p)
    ell = gmod.length(d.J, gamma)
    if ell == 0:
        return None
    target = fl.matmul(d.op_pow(ell - 1), gamma, d.p)
    return fl.solve(d.op_pow(d.p**d.n - 1), target, d.p)


# ---------------------------------------------------------------------------
# JSON interchange


def json_int(x, what: str) -> int:
    """x when JSON gave an integer; a float (1.0 too) or a bool is refused."""
    if type(x) is not int:  # bool is a subclass of int
        raise TypeError(f"{what} is not an integer: {x!r}")
    return x


def json_bool(x, what: str) -> bool:
    """x when JSON gave true or false; 0, 1 and the string "false" are
    refused."""
    if type(x) is not bool:
        raise TypeError(f"{what} is not true or false: {x!r}")
    return x


def json_int_array(a, what: str) -> Array:
    """A nested list of JSON integers as an int64 array.  Every element's
    type is checked, as np.asarray reads 1.5 as 1 and [1, True] as int64."""
    stack = [a]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            stack.extend(v)
        elif type(v) is not int:
            raise TypeError(f"{what} has an entry that is not an integer: {v!r}")
    return np.asarray(a, dtype=np.int64)


def _mat_list(a: Array) -> list:
    return [[int(x) for x in row] for row in a]


def datum_to_json(d: GaloisDatum) -> dict:
    levels = []
    for lv in d.levels:
        levels.append(
            {
                "dim": lv.space.dim,
                "sigma_i": _mat_list(lv.space.sigma),
                "eps": _mat_list(lv.eps),
                "norm": _mat_list(lv.norm),
                "inter_norm": {
                    str(j): _mat_list(m) for j, m in sorted(lv.inter_norm.items())
                },
                "a_class": None
                if lv.a_class is None
                else [int(x) for x in lv.a_class],
            }
        )
    return {
        "p": d.p,
        "n": d.n,
        "xi_in_F": d.xi_in_F,
        "minus_one_is_norm": d.minus_one_is_norm,
        "sigma": _mat_list(d.J.sigma),
        "levels": levels,
    }


def datum_from_json(obj: dict) -> GaloisDatum:
    try:
        p = json_int(obj["p"], "p")
        n = json_int(obj["n"], "n")
        xi = json_bool(obj["xi_in_F"], "xi_in_F")
        minus_one = obj.get("minus_one_is_norm")
        if minus_one is not None:
            minus_one = json_bool(minus_one, "minus_one_is_norm")
        sigma = json_int_array(obj["sigma"], "sigma")
        levels_json = obj["levels"]
        # checked before any module is built: p^n is computed for J
        if len(levels_json) != n + 1:
            raise ValueError(f"expected {n + 1} levels, found {len(levels_json)}")
        jmod = gmod.make_module(p, n, sigma)
        levels = []
        for i, lv in enumerate(levels_json):
            at = f"levels[{i}]."
            space = gmod.make_module(p, i, json_int_array(lv["sigma_i"], at + "sigma_i"))
            if space.dim != json_int(lv["dim"], at + "dim"):
                raise ValueError(f"levels[{i}].dim disagrees with sigma_i")
            eps = fl.asmod(json_int_array(lv["eps"], at + "eps").reshape(jmod.dim, space.dim), p)
            norm = fl.asmod(json_int_array(lv["norm"], at + "norm").reshape(space.dim, jmod.dim), p)
            inter_json = lv.get("inter_norm", {})
            if not isinstance(inter_json, dict):
                raise TypeError(f"levels[{i}].inter_norm is not an object")
            inter = {}
            for k, m in inter_json.items():
                # "00" or " 0" would replace the matrix under "0" unseen
                if k != str(int(k)):
                    raise ValueError(f"{at}inter_norm key {k!r} is not a decimal integer")
                inter[int(k)] = fl.asmod(json_int_array(m, at + "inter_norm"), p)
            a_cls = lv.get("a_class")
            a_arr = None if a_cls is None else fl.asmod(json_int_array(a_cls, at + "a_class"), p)
            levels.append(
                LevelData(space=space, eps=eps, norm=norm, inter_norm=inter, a_class=a_arr)
            )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed datum JSON: {exc}") from exc
    return GaloisDatum(
        p=p, n=n, J=jmod, levels=levels, xi_in_F=xi, minus_one_is_norm=minus_one
    )
