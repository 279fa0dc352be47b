"""The lemma property suite: the module-theoretic contracts as checks.

Each check is phrased at the level of subspaces or sampled elements of a
validated datum, so a failure names the structural fact that broke.  The
free-module identity check is datum-independent and exposed separately
for bulk runs over random conjugated free modules.
"""

from __future__ import annotations

import random

import numpy as np

from . import fp_linalg as fl
from . import gmod
from .datum import (
    NEG_INF,
    GaloisDatum,
    HypothesisError,
    InconsistencyError,
    exactness_violations,
    exceptional_search,
    fixed_submodule_violations,
    i_via_theorem3,
    is_exceptional,
    solve_norm_equation,
    validate,
)


def exact_sequence_checks(d: GaloisDatum, report: dict):
    """Exactness at each H_i-fixed subspace, with the a_i-span condition."""
    for i in range(d.n):
        report[f"exact-sequence.L{i}"] = not exactness_violations(d, i)


def fixed_submodule_check(d: GaloisDatum, report: dict):
    """dim(J^G / im eps_0) <= 1, with the gap exactly when a fixed class
    has a nontrivial norm."""
    report["fixed-submodule"] = not fixed_submodule_violations(d)


def proper_subfield_checks(d: GaloisDatum, report: dict):
    """For i < n: a fixed class lies in the subfield image iff its norm
    class over the base vanishes (checked as one subspace equality)."""
    for i in range(d.n):
        lhs = fl.sub_intersect(d.fixed(i), d.norm_kernel(0))
        report[f"proper-subfield.L{i}"] = bool(lhs == d.eps_image(i))


def norm_lemma_check(d: GaloisDatum, report: dict):
    """Norm classes of short elements stay inside the a-line: the base
    norm map kills ker(sigma-1)^(p^n - 1) up to <a_0>."""
    p, n = d.p, d.n
    t_short = fl.kernel(d.op_pow(p**n - 1), p)
    image = fl.apply_to_space(d.levels[0].norm, t_short)
    if d.levels[0].a_class is not None:
        report["norm-lemma"] = bool(d.a_line(0).contains_space(image))
    else:
        report["norm-lemma"] = bool(image.dim == 0)


def exceptional_checks(d: GaloisDatum, report: dict, seed: int = 0):
    """Minimal-length and generator-independence facts about delta."""
    try:
        rep = exceptional_search(d)
    except HypothesisError:
        return
    except InconsistencyError as exc:
        report["exceptional-search"] = False
        report.setdefault("_notes", []).append(str(exc))
        return
    report["theorem3-agreement"] = bool(rep.m == i_via_theorem3(d))
    p = d.p
    if rep.m != NEG_INF:
        m = int(rep.m)
        socle_layer = fl.kernel(d.op_pow(p**m), p)
        killed = fl.apply_to_space(d.levels[0].norm, socle_layer)
        report["minimal-length"] = bool(killed.dim == 0)
    # any other generator of M_delta is exceptional too
    rng = random.Random(seed)
    ok = True
    ell = gmod.length(d.J, rep.delta)
    for _ in range(5):
        c0 = rng.randrange(1, p)
        omega = (c0 * rep.delta) % p
        acc = rep.delta
        for k in range(1, ell):
            acc = fl.matmul(d.op_pow(1), acc, p)
            omega = (omega + rng.randrange(p) * acc) % p
        if not is_exceptional(d, rep.m, omega):
            ok = False
    report["exceptional-generator-independence"] = bool(ok)


def _l_h(d: GaloisDatum, v, level: int) -> int:
    """Length of the cyclic module of v under the subgroup H_level: its
    generator minus 1 is (sigma - 1)^(p^level) in characteristic p."""
    return -(-gmod.length(d.J, v) // d.p**level)


def _sample_elements(d: GaloisDatum, count: int, seed: int):
    rng = random.Random(seed)
    dim = d.J.dim
    for row in fl.identity(dim)[: min(dim, 24)]:
        yield row
    for _ in range(count):
        yield np.array([rng.randrange(d.p) for _ in range(dim)], dtype=np.int64)


def solve_norm_equation_checks(d: GaloisDatum, report: dict, seed: int = 0):
    """Existence of the norm preimage exactly under the hypotheses of the
    fixed-elements-are-norms lemmas, sampled over module elements."""
    p, n = d.p, d.n
    norm0 = d.levels[0].norm
    checked = 0
    ok = True

    def norm_class_zero(v) -> bool:
        return not np.any(fl.matmul(norm0, v, p))

    m_val = None
    if d.xi_in_F:
        try:
            m_val = exceptional_search(d).m
        except (HypothesisError, InconsistencyError):
            m_val = None

    def unexceptional(v) -> bool:
        return m_val is None or not is_exceptional(d, m_val, v)

    for v in _sample_elements(d, 12, seed):
        ell = gmod.length(d.J, v)
        if ell == 0:
            continue
        hypothesis = False
        if p > 2 and n == 1 and 2 <= ell < p:
            if not d.xi_in_F:
                hypothesis = True
            elif ell >= 3:
                hypothesis = True
            elif ell == 2 and unexceptional(v):
                hypothesis = True
        if p == 2 and n == 2 and ell == 3 and norm_class_zero(v):
            hypothesis = True
        if p > 2 and n >= 1 and not d.eps_image(n - 1).contains(v):
            lh = _l_h(d, v, n - 1)
            if (not d.xi_in_F) or lh >= 3 or (lh == 2 and norm_class_zero(v)):
                hypothesis = True
        if p == 2 and n >= 2:
            lh = _l_h(d, v, n - 2)
            if lh == 4 or (lh == 3 and norm_class_zero(v)):
                hypothesis = True
        if not hypothesis:
            continue
        checked += 1
        if solve_norm_equation(d, v) is None:
            ok = False
    if checked:
        report["solve-norm-equation"] = bool(ok)
        report.setdefault("_notes", []).append(
            f"solve-norm-equation: {checked} hypothesis-satisfying samples"
        )


def submodule_subfield_identity(p: int, n: int, blocks: int, seed: int) -> bool:
    """The free-module identity on a random conjugated free module:
    fixed points of H_i equal the image of (sigma-1)^(p^n - p^i)."""
    rng = random.Random((p, n, blocks, seed).__repr__())
    sigma = gmod.jordan_sigma(p, [p**n] * blocks)
    pmat = fl.random_invertible(p, sigma.shape[0], rng)
    m = gmod.make_module(p, n, fl.matmul(fl.matmul(pmat, sigma, p), fl.inverse(pmat, p), p))
    for i in range(n + 1):
        lhs = gmod.fixed_points(m, i)
        rhs = fl.image(gmod.op_pow(m, p**n - p**i), p)
        if lhs != rhs:
            return False
    return True


def lemma_property_suite(d: GaloisDatum, seed: int = 0, free_module_runs: int = 20) -> dict:
    """Run every lemma-level check on one datum; returns {check: bool}."""
    report: dict = {}
    report["axioms"] = not validate(d)
    exact_sequence_checks(d, report)
    fixed_submodule_check(d, report)
    proper_subfield_checks(d, report)
    norm_lemma_check(d, report)
    exceptional_checks(d, report, seed=seed)
    solve_norm_equation_checks(d, report, seed=seed)
    ok_free = all(
        submodule_subfield_identity(d.p, d.n, 1 + (s % 2), s)
        for s in range(free_module_runs)
    )
    report["submodule-subfield"] = ok_free
    return report
