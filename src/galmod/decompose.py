"""Constructive decomposition of J and verification of every clause.

decompose() builds the direct-sum decomposition the structure theorems
promise: free summands Y_i of cyclic modules of dimension p^i at every
level, plus the exceptional summand X of dimension p^m + 1 when a
primitive p-th root of unity sits in the base.  verify() re-checks each
theorem clause independently and corollary3_check() exercises the
restriction table for the invariant m.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fp_linalg as fl
from . import gmod
from .datum import (
    NEG_INF,
    GaloisDatum,
    InconsistencyError,
    block_multiset,
    e_ranks,
    exceptional_search,
    json_int,
    json_int_array,
    level_from_str,
    level_str,
    norm_filtration,
    rank_shift,
    restrict,
    theorem3_level_raw,
    validate,
    x_dim,
    x_exponent,
    x_summand_exists,
)
from .fp_linalg import Array, Subspace


@dataclass(eq=False)
class Decomposition:
    """The computed answer: m, the X generator, and the Y generators.

    m is None in the theorem-1 case (no X summand), NEG_INF or a level
    otherwise.  y_generators holds (level, coords) pairs; the generator at
    level i spans a cyclic module of dimension p^i.
    """

    p: int
    n: int
    m: int | float | None
    x_generator: Array | None
    y_generators: list[tuple[int, Array]]

    def y_ranks(self) -> list[int]:
        ranks = [0] * (self.n + 1)
        for lvl, _ in self.y_generators:
            ranks[lvl] += 1
        return ranks

    def block_multiset(self) -> list[int]:
        m = None if self.x_generator is None else self.m
        return block_multiset(self.p, m, self.y_ranks())


def decompose(d: GaloisDatum) -> Decomposition:
    """Build the decomposition following the constructive proofs.

    Raises InconsistencyError when the certification fails, which on
    validated input means the datum does not come from a genuine field
    extension ("non-realizable datum").
    """
    violations = validate(d)
    if violations:
        raise ValueError("invalid datum: " + "; ".join(violations))
    p, n = d.p, d.n

    m = None
    x_gen = None
    x_space = None
    x_fixed_line = None
    if x_summand_exists(p, n, d.xi_in_F, d.minus_one_is_norm):
        report = exceptional_search(d)
        m = report.m
        x_gen = report.delta
        x_space = gmod.cyclic_submodule(d.J, x_gen)
        x_fixed = fl.sub_intersect(x_space, d.fixed(0))
        if x_fixed.dim != 1:
            raise InconsistencyError("X has a fixed part of dimension != 1")
        x_fixed_line = x_fixed

    filtration = norm_filtration(d)

    covered: list[Array] = []
    if x_fixed_line is not None and m != NEG_INF:
        covered.extend(x_fixed_line.basis)

    y_generators: list[tuple[int, Array]] = []
    for i in range(n, -1, -1):
        v_i = filtration[i]
        covered_in_v = fl.sub_intersect(v_i, fl.span(p, d.J.dim, covered))
        fresh = fl.sub_complement(v_i, covered_in_v)
        lift_op = d.op_pow(p**i - 1)
        source = d.eps_image(i)
        for z in fresh.basis:
            w = fl.solve_in_space(lift_op, source, z)
            if w is None:
                raise InconsistencyError(
                    f"norm class at level {i} has no preimage inside im(eps_{i})"
                )
            if gmod.length(d.J, w) != p**i:
                raise InconsistencyError(
                    f"level-{i} generator has length {gmod.length(d.J, w)} != p^{i}"
                )
            y_generators.append((i, w))
            covered.append(z)

    dec = Decomposition(p=p, n=n, m=m, x_generator=x_gen, y_generators=y_generators)

    # final certification: direct sum and span
    parts = [gmod.cyclic_submodule(d.J, w) for _, w in y_generators]
    if x_space is not None:
        parts.append(x_space)
    if not gmod.independent_sum_check(d.J, parts):
        raise InconsistencyError("non-realizable datum: summands are not independent")
    total = sum(part.dim for part in parts)
    if total != d.J.dim:
        raise InconsistencyError(
            f"non-realizable datum: summands span {total} of {d.J.dim} dimensions"
        )
    return dec


def _summands(d: GaloisDatum, dec: Decomposition):
    """(the cyclic submodules of the Y generators, their span, the cyclic
    submodule of the X generator or None without one)."""
    y_parts = [gmod.cyclic_submodule(d.J, w) for _, w in dec.y_generators]
    y_span = fl.span(d.p, d.J.dim, [row for part in y_parts for row in part.basis])
    if dec.x_generator is None:
        return y_parts, y_span, None
    return y_parts, y_span, gmod.cyclic_submodule(d.J, dec.x_generator)


def _check_level(dec: Decomposition, d: GaloisDatum, i: int):
    if not 0 <= i < d.n:
        raise ValueError(f"level {i} out of range 0..{d.n - 1}")
    if dec.p != d.p or dec.n != d.n:
        raise ValueError("decomposition does not match the datum")


def _subfield_image(
    d: GaloisDatum, m, y_span: Subspace, x_space: Subspace | None, i: int
) -> Subspace:
    """The right-hand side for [K_i^x] from the span of the Y summands and
    the X summand; m is the decomposition's invariant."""
    y_fixed = fl.sub_intersect(y_span, d.fixed(i))
    if m is None:
        return y_fixed
    k = x_exponent(d.p, m, i)
    return fl.sub_sum(fl.apply_to_space(d.op_pow(k), x_space), y_fixed)


def predicted_subfield_image(dec: Decomposition, d: GaloisDatum, i: int) -> Subspace:
    """The theorem's right-hand side for [K_i^x], assembled from the
    computed summands; 0 <= i < n."""
    _check_level(dec, d, i)
    _, y_span, x_space = _summands(d, dec)
    return _subfield_image(d, dec.m, y_span, x_space, i)


def check_shape(dec: Decomposition, d: GaloisDatum):
    """Raise ValueError unless dec has the shape of a decomposition of d."""
    if (dec.p, dec.n) != (d.p, d.n):
        raise ValueError(
            f"decomposition has p={dec.p}, n={dec.n} but the datum has p={d.p}, n={d.n}"
        )
    if dec.m not in (None, NEG_INF) and not 0 <= dec.m < d.n:
        raise ValueError(f"m = {dec.m} is not -inf or a level in 0..{d.n - 1}")
    if (dec.m is None) != (dec.x_generator is None):
        raise ValueError("x_generator must be given exactly when m is set")
    vectors = [] if dec.x_generator is None else [("x_generator", dec.x_generator)]
    for k, (lvl, w) in enumerate(dec.y_generators):
        if not 0 <= lvl <= d.n:
            raise ValueError(f"y_generators[{k}] has level {lvl} outside 0..{d.n}")
        vectors.append((f"y_generators[{k}].coords", w))
    for name, w in vectors:
        if w.shape != (d.J.dim,):
            raise ValueError(f"{name} has shape {w.shape}, expected ({d.J.dim},)")


def verify(dec: Decomposition, d: GaloisDatum) -> dict:
    """Re-check every theorem clause; returns {clause id: bool} plus notes.

    Clause ids are stable: T.direct-sum, T.span, T2.dimX, T.K{i} for the
    subfield images, C.rank.{i} and C2.rank-shift for the rank identities,
    C.normimage.{i} for the norm subspace clauses, KS.blocks for the
    block-multiset cross-check.  The summand spaces are built once and
    shared by all clauses.
    """
    p, n = d.p, d.n
    report: dict[str, bool] = {}
    notes: list[str] = []

    y_parts, y_span, x_space = _summands(d, dec)
    parts = y_parts if x_space is None else [*y_parts, x_space]
    try:
        indep = gmod.independent_sum_check(d.J, parts)
    except (ValueError, AssertionError) as exc:
        indep = False
        notes.append(f"independence check failed: {exc}")
    report["T.direct-sum"] = bool(indep)
    total = sum(part.dim for part in parts)
    report["T.span"] = total == d.J.dim

    if dec.m is not None:
        report["T2.dimX"] = x_space is not None and x_space.dim == x_dim(p, dec.m)
    # a cyclic submodule's dimension is the length of its generator
    for (lvl, _), part in zip(dec.y_generators, y_parts):
        if part.dim != p**lvl:
            notes.append(f"generator at level {lvl} has wrong length")
            report["T.span"] = False

    for i in range(n):
        try:
            _check_level(dec, d, i)
            predicted = _subfield_image(d, dec.m, y_span, x_space, i)
            report[f"T.K{i}"] = predicted == d.eps_image(i)
        except ValueError as exc:
            report[f"T.K{i}"] = False
            notes.append(f"level {i}: {exc}")

    try:
        e = e_ranks(d)
    except InconsistencyError as exc:
        notes.append(str(exc))
        e = None
    ranks = dec.y_ranks()
    if e is None:
        report["C.ranks"] = False
    else:
        for i in range(n + 1):
            shift = rank_shift(dec.m, i)
            report["C2.rank-shift" if shift else f"C.rank.{i}"] = shift + ranks[i] == e[i]

    # norm-image clauses: V_i = (Y_i + ... + Y_n)^G, plus X^G when i <= m
    filtration = norm_filtration(d)
    x_top = None
    if x_space is not None and dec.m is not None and dec.m != NEG_INF:
        x_top = fl.sub_intersect(x_space, d.fixed(0))
    for i in range(n + 1):
        rows = [
            fl.matmul(d.op_pow(p**lvl - 1), w, p) for lvl, w in dec.y_generators if lvl >= i
        ]
        if x_top is not None and i <= int(dec.m):
            rows.extend(x_top.basis)
        lhs = fl.span(p, d.J.dim, rows)
        report[f"C.normimage.{i}"] = lhs == filtration[i]

    jt = gmod.jordan_type(d.J)
    report["KS.blocks"] = dec.block_multiset() == jt

    report["_notes"] = notes  # type: ignore[assignment]
    return report


def all_clauses_pass(report: dict) -> bool:
    return all(bool(v) for k, v in report.items() if not k.startswith("_"))


def corollary3_check(d: GaloisDatum, subtowers: dict[int, GaloisDatum] | None = None) -> dict:
    """Check the restriction table for the invariant.

    Part (1): for every 0 <= j < n the invariant of K/K_j (computed on
    restrict(d, j) through the hypothesis-free characterization) must be
    m - j for j <= m and -inf beyond, and identically -inf when
    m = -inf.  Part (2) runs only when companion data for the sub-towers
    K_j/F is supplied and asserts their invariant is -inf.
    """
    report: dict = {}
    m = theorem3_level_raw(d)
    for j in range(d.n):
        sub = restrict(d, j)
        got = theorem3_level_raw(sub)
        if m == NEG_INF:
            expected = NEG_INF
        elif j <= int(m):
            expected = int(m) - j
        else:
            expected = NEG_INF
        report[f"C3.1.j{j}"] = got == expected
    if subtowers:
        for j, sub_d in sorted(subtowers.items()):
            got = theorem3_level_raw(sub_d)
            report[f"C3.2.j{j}"] = got == NEG_INF
    else:
        report["_notes"] = ["part (2) skipped: no sub-tower data supplied"]
    return report


# ---------------------------------------------------------------------------
# JSON interchange


def decomposition_to_json(dec: Decomposition) -> dict:
    return {
        "p": dec.p,
        "n": dec.n,
        "m": level_str(dec.m),
        "x_generator": None
        if dec.x_generator is None
        else [int(x) for x in dec.x_generator],
        "y_generators": [
            {"level": int(lvl), "coords": [int(x) for x in w]}
            for lvl, w in dec.y_generators
        ],
    }


def decomposition_from_json(obj: dict) -> Decomposition:
    try:
        p = fl.check_prime(json_int(obj["p"], "p"))  # before any reduction mod p
        n = json_int(obj["n"], "n")
        m = obj["m"]
        m = level_from_str(m if m is None or isinstance(m, str) else json_int(m, "m"))
        xg = obj.get("x_generator")
        x_arr = None if xg is None else json_int_array(xg, "x_generator") % p
        ys = [
            (json_int(item["level"], "level"), json_int_array(item["coords"], "coords") % p)
            for item in obj["y_generators"]
        ]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed decomposition JSON: {exc}") from exc
    return Decomposition(p=p, n=n, m=m, x_generator=x_arr, y_generators=ys)
