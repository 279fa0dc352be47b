"""p-adic towers: arithmetic, Galois action, class spaces, datum extraction."""

import functools
import gc
import hashlib
import itertools
import json
import math
import random
import sys
import weakref

import numpy as np
import pytest

from galmod import local_fields as lf
from galmod.cli import main
from galmod.datum import (
    NEG_INF, datum_to_json, e_ranks, exceptional_search, i_via_theorem3, validate,
)
from galmod.decompose import all_clauses_pass, decompose, verify
from galmod.local_fields import (
    NotPthPower,
    PrecisionError,
    build_datum,
    kummer_generators,
    make_tower,
    root_norm_crosscheck,
    sample_norm_identity_cases,
)

def fields(x):
    """(val, unit, aprec) of an element, the unit as a tuple of Python ints
    (None for zero): units are arrays, which do not compare with ==."""
    return x.val, None if x.unit is None else tuple(int(c) for c in x.unit), x.aprec


def as_ring(ring, a):
    """An integer list, of any size and sign, as a polynomial of the ring."""
    return ring.cast(np.array(a, dtype=object))


@pytest.fixture(scope="module")
def unram3():
    return make_tower(3, "unramified", 1, 40)


@pytest.fixture(scope="module")
def cyclo3_1():
    return make_tower(3, "cyclotomic", 1, 60)


def test_make_tower_rejects_bad_input():
    with pytest.raises(ValueError):
        make_tower(3, "eisenstein", 1, 60)
    with pytest.raises(ValueError):
        make_tower(2, "unramified", 1, 40)
    with pytest.raises(PrecisionError):
        make_tower(3, "cyclotomic", 1, 5)
    with pytest.raises(ValueError):
        make_tower(4, "unramified", 1, 40)


def test_unramified_frobenius_order(unram3):
    tw = unram3
    x = tw.from_poly([1, 1, 0])
    assert tw.eq(tw.galois(x, 3), x)
    assert not tw.eq(tw.galois(x, 1), x)


def test_mul_inverse(unram3):
    tw = unram3
    x = tw.from_poly([2, 1, 1])
    assert tw.eq(tw.mul(x, tw.inv(x)), tw.one)


@pytest.mark.parametrize(
    "spec", [(3, "unramified", 1, 40), (3, "unramified", 2, 28), (5, "unramified", 1, 28)],
    ids=lambda s: f"{s[1]}{s[0]}n{s[2]}",
)
def test_frobenius_on_teichmuller(spec, monkeypatch):
    # the lift omega of every level's residue basis vector r: sigma, the
    # Frobenius, sends omega to omega^p, omega^q = omega for q = p^f,
    # omega reduces to r, and sigma^(p^i) fixes it on level i
    tw = make_tower(*spec)
    p, q = tw.p, tw.p**tw.f
    for i in range(tw.n + 1):
        for r in tw._residue_field(i).basis:
            omega = tw.teichmuller(r)
            assert tw.eq(tw.galois(omega, 1), tw.powi(omega, p))
            assert tw.eq(tw.powi(omega, q), omega)
            assert np.array_equal(tw.residue(omega), r)
            assert tw.eq(tw.galois(omega, p**i), omega)
    # a residue in F_p lifts by an integer power, with no product
    products = []
    mulmod = lf._poly_mulmod
    monkeypatch.setattr(lf, "_poly_mulmod", lambda *args: products.append(1) or mulmod(*args))
    for c in range(1, p):
        omega = tw.teichmuller(np.array([c] + [0] * (tw.f - 1)))
        assert omega.val == 0 and tw.residue(omega)[0] == c
    assert not products


def test_norms_are_fixed(unram3):
    tw = unram3
    x = tw.from_poly([1, 2, 0])
    nx = tw.norm(x, 1, 0)
    assert tw.eq(tw.galois(nx, 1), nx)


def test_unramified_class_dims(unram3):
    assert [unram3.dim_class_space(i) for i in range(2)] == [2, 4]


def test_class_of_pth_powers_is_zero(unram3):
    tw = unram3
    for coeffs in ([1, 1, 0], [2, 0, 1], [1, 2, 2]):
        v = tw.from_poly(coeffs)
        assert not np.any(tw.class_of(1, tw.powi(v, 3)))
    # and the class map is additive on products
    a = tw.from_poly([1, 1, 0])
    b = tw.from_poly([2, 1, 1])
    lhs = tw.class_of(1, tw.mul(a, b))
    rhs = (tw.class_of(1, a) + tw.class_of(1, b)) % 3
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize(
    "spec", [(3, "unramified", 1, 40), (3, "cyclotomic", 2, 100)],
    ids=lambda s: f"{s[1]}{s[0]}n{s[2]}",
)
def test_class_of_shifts_and_lifts_the_residue(spec):
    # elements off the valuation-0, residue-1 path: class_of shifts by
    # pi_i^-v and divides by the Teichmuller lift of the residue
    tw = tower_datum(spec)[0]
    p = tw.p
    for i, pi_i in enumerate(tw.level_uniformizer):
        x = tw.mul(tw.from_int(2), tw.powi(pi_i, 2))
        y = tw.neg(tw.inv(pi_i))
        elements = [x, y]
        if i == tw.n and tw.f > 1:
            elements.append(tw.mul(tw.from_poly([1, 1]), pi_i))  # residue outside F_p
        for a in elements:
            v = tw.level_val(i, a)
            residue = tw.residue(tw.mul(a, tw.powi(pi_i, -v)))
            assert v and not np.array_equal(residue, [1] + [0] * (tw.f - 1))
            assert not np.any(tw.class_of(i, tw.powi(a, p)))
            for b in elements:
                lhs = tw.class_of(i, tw.mul(a, b))
                rhs = (tw.class_of(i, a) + tw.class_of(i, b)) % p
                assert np.array_equal(lhs, rhs)
        assert tw.class_of(i, x)[0] == 2 and tw.class_of(i, y)[0] == p - 1


def powi_by_the_old_loop(tw, x, e):
    """x^e by the loop with the idle first product and last squaring."""
    if e < 0:
        return powi_by_the_old_loop(tw, tw.inv(x), -e)
    result, base = tw.one, x
    while e:
        if e & 1:
            result = tw.mul(result, base)
        base = tw.mul(base, base)
        e >>= 1
    return result


@pytest.mark.parametrize(
    "spec", [(3, "cyclotomic", 2, 100), (5, "unramified", 1, 28)],
    ids=lambda s: f"{s[1]}{s[0]}n{s[2]}",
)
def test_powi_matches_the_square_and_multiply_loop(spec, monkeypatch):
    tw = make_tower(*spec)
    rng = random.Random(repr(spec))
    elements = [tw.mul(_seeded_unit(tw, rng), tw.powi(tw.pi, s)) for s in (0, 1, -2)]
    products = []
    mulmod = lf._poly_mulmod
    monkeypatch.setattr(lf, "_poly_mulmod", lambda *args: products.append(1) or mulmod(*args))
    for x in elements:
        for e in range(-2, 41):
            want = powi_by_the_old_loop(tw, x, e)
            products.clear()
            got = tw.powi(x, e)
            assert fields(got)[:2] == fields(want)[:2]
            if e >= 0:
                assert len(products) == max(0, e.bit_length() + bin(e).count("1") - 2)


def test_is_pth_power_crosschecks_class(unram3):
    tw = unram3
    v = tw.from_poly([1, 1, 2])
    cube = tw.powi(v, 3)
    assert tw.is_pth_power(cube)
    assert not tw.is_pth_power(tw.mul(cube, tw.pi))
    root = tw.pth_root(cube)
    assert tw.eq(tw.powi(root, 3), cube)


def _seeded_unit(tw, rng):
    while True:
        y = tw.from_poly([rng.randrange(tw.p**3) for _ in range(tw.deg)])
        if not y.is_zero and y.val == 0:
            return y


@pytest.mark.parametrize(
    "spec",
    [(2, "cyclotomic", 2, 56), (3, "cyclotomic", 1, 60), (3, "unramified", 1, 40),
     (5, "unramified", 1, 28), (3, "unramified", 2, 28)],
    ids=lambda s: f"{s[1]}{s[0]}n{s[2]}",
)
def test_pth_root_agrees_with_class_of(spec):
    tw = make_tower(*spec)
    p, n = tw.p, tw.n
    rng = random.Random(repr(spec))
    basis = tw.class_basis(n)
    for shift in range(4):
        y = tw.mul(_seeded_unit(tw, rng), tw.powi(tw.pi, shift))
        x = tw.powi(y, p)
        root = tw.pth_root(x)
        assert tw.eq(tw.powi(root, p), x)
        assert tw.is_pth_power(x)
        # a nonzero class on the unit part of the basis, then on pi alone
        coords = [0] + [rng.randrange(p) for _ in basis[1:]]
        coords[rng.randrange(1, len(basis))] = 1
        for cls in (coords, [1] + [0] * (len(basis) - 1)):
            z = x
            for c, b in zip(cls, basis):
                z = tw.mul(z, tw.powi(b, c))
            assert np.array_equal(tw.class_of(n, z), np.array(cls) % p)
            with pytest.raises(NotPthPower):
                tw.pth_root(z)
            assert not tw.is_pth_power(z)


def test_class_of_builds_each_cancelling_factor_once(monkeypatch):
    """The products of class_of on a pinned tower: a walk takes the
    factors the level keeps, so a repeated walk builds none of them, and
    it reads each lead with no product."""
    tw = make_tower(3, "cyclotomic", 2, 100)
    n = tw.n
    x = tw.from_poly(list(range(1, tw.deg + 1)))
    y = tw.galois(tw.class_basis(n)[3], 1)
    products = []
    mulmod = lf._poly_mulmod
    monkeypatch.setattr(lf, "_poly_mulmod", lambda *args: products.append(1) or mulmod(*args))
    counts = []
    for z in (x, x, y, y):
        products.clear()
        tw.class_of(n, z)
        counts.append(len(products))
    assert counts == [41, 8, 5, 4]


def test_pth_root_reuses_the_free_factors_of_its_level(monkeypatch):
    tw = make_tower(3, "cyclotomic", 2, 100)
    p, top = tw.p, tw.classes(tw.n)
    built = set(top._free_factors)  # those the class basis walks made
    x1 = tw.powi(_seeded_unit(tw, random.Random(3)), p)
    # z - 1 lies past jstar/p, so z^p - 1 lies past jstar: the walk of x2
    # meets the leading terms of the walk of x1
    z = tw.add(tw.one, tw.powi(tw.pi, top.jstar // p + 1))
    x2 = tw.mul(x1, tw.powi(z, p))
    assert not tw.eq(x1, x2)
    root = tw.pth_root(x1)
    assert tw.eq(tw.powi(root, p), x1)
    after_first = set(top._free_factors)
    assert after_first > built
    levels = []
    free_factor = top._free_factor
    monkeypatch.setattr(top, "_free_factor", lambda t, j, c: levels.append(j) or free_factor(t, j, c))
    root = tw.pth_root(x2)
    assert tw.eq(tw.powi(root, p), x2)
    assert levels and set(top._free_factors) == after_first
    # a fresh tower of the same spec owns its own factors
    fresh = make_tower(3, "cyclotomic", 2, 100)
    assert fresh._classes == {}
    assert set(fresh.classes(fresh.n)._free_factors) == built


@pytest.mark.parametrize("kind", ["cyclotomic", "unramified"])
def test_class_walk_factors_each_system_once(monkeypatch, kind):
    # cyclotomic: f = 1, one-row systems; unramified: f > 1, wider ones
    fl = lf.fl
    real_rref, real_solve = fl.rref, fl.solve
    rrefs, walk_solves = [], []

    def solve(a, b, p):
        if sys._getframe(1).f_code.co_name == "_reduce":
            walk_solves.append(a.shape)
        return real_solve(a, b, p)

    monkeypatch.setattr(fl, "rref", lambda a, p: rrefs.append(a.shape) or real_rref(a, p))
    monkeypatch.setattr(fl, "solve", solve)
    tw = make_tower(3, kind, 2)
    levels = [tw.classes(i) for i in range(tw.n + 1)]
    rows = {system.shape[0] for lc in levels for system in lc._systems.values() if system}
    assert (rows == {1}) == (kind == "cyclotomic")
    rounds = []
    for _ in range(2):
        rrefs.clear()
        rounds.append([tw.class_of(lc.i, b).tolist() for lc in levels for b in lc.basis_elements])
        assert walk_solves == []
    assert rrefs == [] and rounds[0] == rounds[1]


def test_no_root_of_unity_in_an_unramified_tower(unram3):
    for call in (unram3.zeta, unram3.zeta_p, lambda: kummer_generators(unram3)):
        with pytest.raises(ValueError):
            call()


def test_unramified_datum(unram3):
    d = build_datum(unram3)
    assert validate(d) == []
    assert d.xi_in_F is False
    assert e_ranks(d) == [1, 1]
    dec = decompose(d)
    assert dec.m is None
    assert dec.block_multiset() == [3, 1]
    assert all_clauses_pass(verify(dec, d))


def test_cyclotomic_generator_action(cyclo3_1):
    tw = cyclo3_1
    z = tw.zeta()
    assert tw.eq(tw.galois(z, 1), tw.powi(z, 4))
    assert tw.eq(tw.galois(z, 3), z)
    # zeta_3 = zeta_9^3 is fixed by sigma
    z3 = tw.zeta_p()
    assert tw.eq(tw.galois(z3, 1), z3)


def test_binomial_valuation_pattern(cyclo3_1):
    tw = cyclo3_1
    # (1 + pi)^3 - 1 = 3 pi + 3 pi^2 + pi^3: the pi^3 term leads (e = 6)
    z = tw.zeta()
    diff = tw.add(tw.powi(z, 3), tw.neg(tw.one))
    assert diff.val == 3
    tail = tw.add(diff, tw.neg(tw.powi(tw.pi, 3)))
    assert tail.val == 7  # the 3*pi term at valuation e + 1


def test_cyclotomic_class_dims(cyclo3_1):
    assert [cyclo3_1.dim_class_space(i) for i in range(2)] == [4, 8]


def test_zeta9_is_not_a_cube(cyclo3_1):
    tw = cyclo3_1
    assert not tw.is_pth_power(tw.zeta())
    assert np.any(tw.class_of(1, tw.zeta()))


def test_kummer_chain_single_step(cyclo3_1):
    chain = kummer_generators(cyclo3_1)
    assert len(chain) == 1
    # the Kummer generator becomes a p-th power one level up (eps kills it)
    assert not np.any(cyclo3_1.class_of(1, chain[0]))


def test_cyclotomic_datum(cyclo3_1):
    d = build_datum(cyclo3_1)
    assert validate(d) == []
    assert d.xi_in_F is True
    rep = exceptional_search(d)
    assert rep.m == i_via_theorem3(d)
    dec = decompose(d)
    expected_x = 1 if dec.m == float("-inf") else 3 ** int(dec.m) + 1
    assert expected_x in dec.block_multiset()
    assert all_clauses_pass(verify(dec, d))


def test_precision_stability(cyclo3_1):
    base = json.dumps(datum_to_json(build_datum(cyclo3_1)))
    higher = json.dumps(datum_to_json(build_datum(make_tower(3, "cyclotomic", 1, 65))))
    assert base == higher


def test_class_of_refuses_a_one_unit_known_short_of_jstar(cyclo3_1):
    # 1 known to e + 1 pi-digits: u - 1 reads zero, but jstar = 9 at level
    # 1 needs 10 digits to tell a class from the p-th powers
    tw = cyclo3_1
    x = lf.LFElement(0, tw._unit_one, tw.e + 1)
    with pytest.raises(PrecisionError):
        tw.class_of(1, x)
    assert not np.any(tw.class_of(1, lf.LFElement(0, tw._unit_one, 10)))


def test_class_of_refuses_a_one_unit_known_short_of_jstar_at_level_0():
    # at level 0 of cyclotomic p=3 n=2, jstar = 3 and e(K/K_0) = 9: u - 1
    # must read zero to 36 pi-digits, whether it is 0 or pi_0^4
    tw = make_tower(3, "cyclotomic", 2, 100)
    low = tw.classes(0)
    need = (low.jstar + 1) * tw.level_rel_e[0]
    assert need == 36
    deep = tw.add(tw.one, tw.powi(tw.level_uniformizer[0], low.jstar + 1))
    for u in (tw.one, deep):
        x = lf.LFElement(0, u.unit, need)
        assert low._leading(tw, x) == (None, None)
        assert not np.any(tw.class_of(0, x))
        short = lf.LFElement(0, u.unit, need - 1)
        with pytest.raises(PrecisionError):
            low._leading(tw, short)
        with pytest.raises(PrecisionError):
            tw.class_of(0, short)


def leading_by_add(lc, tw, u):
    """The lead of the 1-unit u read through the element u - 1 =
    add(u, neg(one)), its level_val and its residue, with the p-adic
    digit v of its valuation t = e*v + k."""
    diff = tw.add(u, tw.neg(tw.one))
    if diff.is_zero:
        if diff.aprec < (lc.jstar + 1) * tw.level_rel_e[lc.i]:
            raise PrecisionError("u - 1 is zero short of jstar")
        return None, None, None
    gamma = tw.residue(lf.LFElement(0, diff.unit))
    return tw.level_val(lc.i, diff), lc._res_coords(gamma), diff.val // tw.e


@pytest.mark.parametrize(
    "spec",
    [(2, "cyclotomic", 2, 56), (3, "cyclotomic", 2, 100), (5, "cyclotomic", 1, 104),
     (3, "unramified", 1, 40), (5, "unramified", 1, 28)],
    ids=lambda s: f"{s[1]}{s[0]}n{s[2]}",
)
def test_leading_reads_the_lead_of_u_minus_one_with_no_product(spec, monkeypatch):
    # every step of every level's class-basis walk: the lead read from the
    # coefficients of u - 1 is the lead of the element add(u, neg(one))
    products = []
    mulmod = lf._poly_mulmod
    monkeypatch.setattr(lf, "_poly_mulmod", lambda *args: products.append(1) or mulmod(*args))
    leading = lf._LevelClasses._leading
    digits = []

    def checked(lc, tw, u):
        before = len(products)
        s, coords = leading(lc, tw, u)
        assert len(products) == before
        s_add, coords_add, v = leading_by_add(lc, tw, u)
        assert s == s_add
        if s is None:
            assert coords is None
        else:
            assert np.array_equal(coords, coords_add)
            digits.append(v)
        return s, coords

    monkeypatch.setattr(lf._LevelClasses, "_leading", checked)
    tw = make_tower(*spec)
    for i in range(tw.n + 1):
        tw.class_basis(i)
    assert max(digits) >= 1
    if tw.e > 1 and tw.p > 2:
        # a_0 = p for Phi_(p^k)(x + 1), so u = -1 mod pi in pi^e = p*u, and
        # a lead that dropped the factor u^-v would differ at an odd v
        assert tw.minpoly[0] == tw.p
        assert any(v % 2 for v in digits)


def test_root_norm_identity_fixed_alpha(cyclo3_1):
    tw = cyclo3_1
    ok = root_norm_crosscheck(tw, tw.from_int(7), tw.one, tw.one, 0)
    assert ok


def test_root_norm_identity_kummer_root(cyclo3_1):
    tw = cyclo3_1
    z = tw.zeta()
    # zeta^(sigma-1) = zeta^3 in K_0 (a unit of the base): gamma = zeta^3, k = 1
    assert root_norm_crosscheck(tw, z, tw.powi(z, 3), tw.one, 0)


def test_root_norm_identity_precondition_checked(cyclo3_1):
    tw = cyclo3_1
    with pytest.raises(ValueError, match="precondition"):
        root_norm_crosscheck(tw, tw.zeta(), tw.one, tw.one, 0)


def test_root_norm_identity_sampled(cyclo3_1):
    for alpha, gamma, k in sample_norm_identity_cases(cyclo3_1, 0, 4, seed=5):
        assert root_norm_crosscheck(cyclo3_1, alpha, gamma, k, 0)


def test_p2_cyclotomic_tower():
    tw = make_tower(2, "cyclotomic", 1, 40)
    assert [tw.dim_class_space(i) for i in range(2)] == [4, 6]
    d = build_datum(tw)
    assert validate(d) == []
    assert d.minus_one_is_norm is not None
    dec = decompose(d)
    assert all_clauses_pass(verify(dec, d))


# dim_{F_p} K^x/K^xp = [K:Q_p] + 1 + [zeta_p in K] (Neukirch, Algebraic
# Number Theory, II.5), with the values worked out by hand
CLOSED_FORM_DIMS = {
    (3, "unramified", 1, 40): 4,
    (5, "unramified", 1, 28): 6,
    (3, "cyclotomic", 1, 60): 8,
    (2, "cyclotomic", 2, 56): 10,
    (5, "cyclotomic", 1, 104): 22,
    (3, "unramified", 2, 28): 10,
    (5, "unramified", 2, 28): 26,
    (7, "cyclotomic", 1, 192): 44,
    (3, "cyclotomic", 3, 240): 56,
    (5, "cyclotomic", 2, 424): 102,
}


@functools.cache
def tower_datum(spec):
    """(tower, datum) of a spec, built once: the closed-form and pinned
    tests share them (the unramified p = 5, n = 2 datum takes seconds)."""
    tw = make_tower(*spec)
    return tw, build_datum(tw)


@pytest.mark.parametrize("spec", list(CLOSED_FORM_DIMS), ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_class_space_dimension_matches_the_closed_form(spec):
    p, kind, n = spec[:3]
    tw, d = tower_datum(spec)
    # cyclotomic towers contain zeta_p; unramified ones only for p = 2,
    # where zeta_2 = -1
    zeta_p_in_k = kind == "cyclotomic" or p == 2
    dim = d.J.dim
    assert dim == tw.deg + 1 + zeta_p_in_k == CLOSED_FORM_DIMS[spec]
    # over a local base J = F_p[G]^N + R, N = [F:Q_p] (Borevic and
    # Faddeev), with R = X + Y_0 (blocks [1, 1], m = -inf) when xi_p lies
    # in F, else Y_0; and by local reciprocity m is -inf or 0, by both routes
    dec = decompose(d)
    assert dec.block_multiset() == [p**n] * (tw.deg // p**n) + [1] * (1 + d.xi_in_F)
    if dec.m is not None:
        assert exceptional_search(d).m == i_via_theorem3(d) == dec.m
        assert dec.m in (NEG_INF, 0)


# -- exactness of the ring arithmetic -----------------------------------------

# The towers of the benchmark's padic_towers set, with the CLI default
# precision written out where it has one.
BENCH_TOWERS = (
    (3, "cyclotomic", 1, 60),
    (3, "cyclotomic", 2, 100),
    (5, "cyclotomic", 1, 104),
    (2, "cyclotomic", 2, 56),
    (2, "cyclotomic", 3, 88),
    (3, "unramified", 1, 40),
    (5, "unramified", 1, 28),
)


# a tower on each side of the int64 bound of its ring
REPRESENTATION_TOWERS = {(3, "cyclotomic", 2, 100): np.int64, (5, "unramified", 1, 28): object}


@pytest.mark.parametrize(
    "spec", list(REPRESENTATION_TOWERS), ids=lambda s: f"{s[1]}{s[0]}n{s[2]}"
)
def test_every_unit_is_an_array_of_the_ring(spec):
    # a polynomial has one form: deg residues in the ring's dtype, whichever
    # operation returned it
    tw, dtype = tower_datum(spec)[0], REPRESENTATION_TOWERS[spec]
    assert tw.ring.table.dtype == dtype
    rng = random.Random(repr(spec))
    x, y = (tw.mul(_seeded_unit(tw, rng), tw.powi(tw.pi, s)) for s in (0, 2))
    cancelled = tw.add(y, tw.neg(tw.add(y, tw.powi(tw.pi, 5))))  # -pi^5, stripped
    assert cancelled.val == 5
    returned = [
        tw.from_poly([rng.randrange(tw.modulus) for _ in range(tw.deg)]), tw.from_poly([tw.p]),
        tw.add(x, y), cancelled, tw.neg(x), tw.mul(x, y), tw.inv(x), tw.inv(y),
        *(tw.galois(z, k) for z in (x, y) for k in range(1, tw.p**tw.n)),
        *(tw.norm(x, tw.n, j) for j in range(tw.n)),
        *(b for i in range(tw.n + 1) for b in tw.class_basis(i)),
    ]
    for z in returned:
        assert isinstance(z.unit, np.ndarray)
        assert z.unit.shape == (tw.deg,) and z.unit.dtype == dtype
    assert lf._poly_mulmod(x.unit, y.unit, tw.ring).dtype == dtype


def schoolbook_mulmod(a, b, f, m):
    """The reference product: schoolbook, then long division by monic f."""
    d = len(f) - 1
    if not a or not b:
        return [0] * d
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % m
    for k in range(len(prod) - 1, d - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(d):
                prod[k - d + j] = (prod[k - d + j] - c * f[j]) % m
    prod = prod[:d] + [0] * max(0, d - len(prod))
    return [x % m for x in prod]


def _operands(rng, d, m):
    """Full, short, zero, negative and edge operands of length <= d."""
    yield [rng.randrange(m) for _ in range(d)]
    yield [rng.randrange(m) for _ in range(rng.randint(1, d))]
    yield [rng.randrange(-3 * m, 3 * m) for _ in range(d)]
    yield [m - 1] * d
    yield [0] * d
    yield [-1]
    yield []


@pytest.mark.parametrize("spec", BENCH_TOWERS, ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_poly_mulmod_matches_schoolbook(spec):
    tw = make_tower(*spec)
    rng = random.Random(repr(spec))
    d = tw.deg
    moduli = [(tw.fpoly, tw.modulus)]
    # wider moduli p^(cp+k) than the tower's own, some past the int64 bound
    for widen in (1, 2, tw.e, 3 * tw.e + 1):
        mod_hi = tw.modulus * tw.p**widen
        moduli.append(([c % mod_hi for c in tw.minpoly], mod_hi))
    for f, m in moduli:
        ring = lf._Ring(f, m)
        ops = [op for _ in range(3) for op in _operands(rng, d, m)]
        for a in ops:
            for b in rng.sample(ops, 6) + [a]:
                got = lf._poly_mulmod(as_ring(ring, a), as_ring(ring, b), ring)
                assert got.tolist() == schoolbook_mulmod(a, b, f, m)


@pytest.mark.parametrize("d", [1, 2, 5, 17])
def test_poly_mulmod_int64_and_object_dtypes_at_the_bound(d):
    # m - 1 = isqrt((2^63 - 1) // d) is the largest m with d(m-1)^2 < 2^63:
    # its ring multiplies in int64, the ring of m + 1 in Python ints
    rng = random.Random(d)
    below = math.isqrt((2**63 - 1) // d) + 1
    for m, int64 in ((below - 1, True), (below, True), (below + 1, False), (below + 2, False)):
        assert (d * (m - 1) ** 2 < 2**63) == int64
        f = [rng.randrange(m) for _ in range(d)] + [1]
        ring = lf._Ring(f, m)
        assert ring.table.dtype == (np.int64 if int64 else object)
        ops = [op for _ in range(2) for op in _operands(rng, d, m)]
        ops.append([rng.randrange(-(2**70), 2**70) for _ in range(d)])  # past int64
        for a in ops:
            for b in rng.sample(ops, 5) + [a]:
                got = lf._poly_mulmod(as_ring(ring, a), as_ring(ring, b), ring)
                assert got.dtype == ring.table.dtype
                assert got.tolist() == schoolbook_mulmod(a, b, f, m)


def test_poly_mulmod_small_moduli():
    rng = random.Random(3)
    for p, d in ((2, 1), (3, 2), (5, 5), (7, 9)):
        for _ in range(20):
            f = [rng.randrange(p) for _ in range(d)] + [1]
            a = [rng.randrange(-p, 2 * p) for _ in range(rng.randint(0, d))]
            b = [rng.randrange(p) for _ in range(rng.randint(0, d))]
            ring = lf._Ring(f, p)
            got = lf._poly_mulmod(as_ring(ring, a), as_ring(ring, b), ring)
            assert got.tolist() == schoolbook_mulmod(a, b, f, p)


def test_poly_mulmod_refuses_long_operands():
    with pytest.raises(ValueError):
        lf._poly_mulmod([1, 2, 3, 4], [1], lf._Ring([1, 0, 1], 7))


def schoolbook_powmod(a, e, f, m):
    d = len(f) - 1
    result, base = [1] + [0] * (d - 1), list(a) + [0] * (d - len(a))
    while e:
        if e & 1:
            result = schoolbook_mulmod(result, base, f, m)
        base = schoolbook_mulmod(base, base, f, m)
        e >>= 1
    return result


@pytest.mark.parametrize(
    "spec", [(3, "cyclotomic", 2, 100), (5, "unramified", 1, 28)],
    ids=lambda s: f"{s[1]}{s[0]}n{s[2]}",
)
def test_poly_powmod_matches_the_square_and_multiply_loop(spec, monkeypatch):
    # the loop with its idle first product and last squaring, as the
    # reference; bitlength(e) + popcount(e) - 2 products are enough
    tw = make_tower(*spec)
    rng = random.Random(repr(spec))
    wide = tw.modulus * tw.p ** (2 * tw.e + 3)  # past the int64 bound
    moduli = [(tw.fpoly, tw.modulus), (tw.r, tw.p), ([x % wide for x in tw.minpoly], wide)]
    products = []
    mulmod = lf._poly_mulmod
    monkeypatch.setattr(lf, "_poly_mulmod", lambda *args: products.append(1) or mulmod(*args))
    for f, m in moduli:
        d, ring = len(f) - 1, lf._Ring(f, m)
        for a in ([rng.randrange(m) for _ in range(d)],
                  [rng.randrange(-3 * m, 3 * m) for _ in range(rng.randint(1, d))]):
            for e in range(41):
                products.clear()
                got = lf._poly_powmod(as_ring(ring, a), e, ring)
                assert got.tolist() == schoolbook_powmod(a, e, f, m)
                assert len(products) == max(0, e.bit_length() + bin(e).count("1") - 2)


def p_over_pi(tw):
    """p/pi in the power basis: 1 when pi = p; when pi = x, the Eisenstein
    polynomial with a_0 = p gives p = -x(a_1 + a_2 x + ... + x^(d-1))."""
    return [1] if tw.kind == "unramified" else [-c for c in tw.minpoly[1:]]


def strip_by_p_over_pi(tw, c, t):
    """c / pi^t as c * (p/pi)^t / p^t modulo p^(cp+t), or None when
    pi^t does not divide c."""
    p, wide = tw.p, tw.modulus * tw.p**t
    f = [x % wide for x in tw.minpoly]
    q = schoolbook_powmod([x % wide for x in p_over_pi(tw)], t, f, wide)
    acc = schoolbook_mulmod([int(x) for x in c], q, f, wide)
    if any(x % p**t for x in acc):
        return None
    return [(x // p**t) % tw.modulus for x in acc]


@pytest.mark.parametrize(
    "spec", BENCH_TOWERS,
    ids=lambda s: f"{'' if s[1] == 'cyclotomic' else s[1]}p{s[0]}n{s[2]}",
)
def test_strip_matches_p_over_pi_formula(spec):
    tw = make_tower(*spec)
    rng = random.Random(repr(spec))
    for t in [t for t in (1, 2, tw.e - 1, tw.e, tw.e + 1, 2 * tw.e + 3, 5 * tw.e) if t > 0]:
        for _ in range(4):
            y = [rng.randrange(tw.modulus) for _ in range(tw.deg)]
            y[0] = y[0] * tw.p + 1  # a unit, so c has valuation exactly t
            c = tw._shift(tw._reduce(y), t)
            assert tw._strip(c, t).tolist() == strip_by_p_over_pi(tw, c, t)
            # one digit short of pi^t: both refuse
            c = tw._shift(tw._reduce(y), t - 1)
            assert strip_by_p_over_pi(tw, c, t) is None
            with pytest.raises(PrecisionError):
                tw._strip(c, t)


@pytest.mark.parametrize("spec", BENCH_TOWERS, ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_strip_refuses_a_valuation_past_the_modulus(spec):
    # a nonzero polynomial mod p^cp has valuation below e*cp; p^(cp+40)
    # is past int64, where the ring's residues cannot be divided by it
    tw = make_tower(*spec)
    c = tw._reduce([tw.p ** (tw.cp - 1)])
    tw._strip(c, tw._poly_val(c))
    for t in (tw.e * tw.cp, tw.e * tw.cp + 1, tw.e * (tw.cp + 40)):
        with pytest.raises(PrecisionError):
            tw._strip(c, t)


@pytest.mark.parametrize("spec", BENCH_TOWERS, ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_shift_matches_the_schoolbook_product(spec):
    # c * pi^delta against the schoolbook product by pi^delta mod f: x^delta
    # when pi = x, through pi^e = p*u, and the integer p^delta when pi = p
    tw = make_tower(*spec)
    rng = random.Random(repr(spec))
    for delta in (1, 2, tw.e - 1, tw.e, tw.e + 1, 2 * tw.e + 3, 5 * tw.e):
        pi_delta = schoolbook_powmod(tw._pi_poly, delta, tw.fpoly, tw.modulus)
        for c in _operands(rng, tw.deg, tw.modulus):
            got = tw._shift(tw._reduce(c), delta)
            assert got.dtype == tw.ring.table.dtype
            assert got.tolist() == schoolbook_mulmod(c, pi_delta, tw.fpoly, tw.modulus)


@pytest.mark.parametrize("spec", [s for s in BENCH_TOWERS if s[1] == "cyclotomic"],
                         ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_unit_powers_are_inverse(spec):
    # u of pi^e = p*u: the table's u^j and u^-j multiply to one
    tw = make_tower(*spec)
    u = [-c // tw.p for c in tw.minpoly[:-1]]
    for j in (1, 2, 3, tw.cp):
        assert tw._unit_power(j).tolist() == schoolbook_powmod(u, j, tw.fpoly, tw.modulus)
        uu = lf._poly_mulmod(tw._unit_power(j), tw._unit_power(-j), tw.ring)
        assert uu.tolist() == tw.ring.one.tolist()


def count_rings(monkeypatch):
    """The moduli of the _Ring objects built from here on, in a list."""
    moduli = []
    init = lf._Ring.__init__
    monkeypatch.setattr(
        lf._Ring, "__init__", lambda ring, f, m: moduli.append(m) or init(ring, f, m)
    )
    return moduli


@pytest.mark.parametrize(
    "spec", [(3, "cyclotomic", 2, 100), (2, "cyclotomic", 3, None), (7, "cyclotomic", 1, None)],
    ids=lambda s: f"{s[1]}{s[0]}n{s[2]}",
)
def test_a_cyclotomic_tower_builds_two_rings(spec, monkeypatch):
    # the tower's own ring mod p^cp and F_p[x]/(r), and no other: _strip
    # and _shift divide and multiply by pi^t in the tower's ring
    moduli = count_rings(monkeypatch)
    tw = make_tower(*spec)
    build_datum(tw)
    assert moduli == [tw.modulus, tw.p]


@pytest.mark.parametrize("spec", [s for s in BENCH_TOWERS if s[1] == "unramified"],
                         ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_unramified_strip_divides_without_a_product(spec, monkeypatch):
    # pi = p: c / p^t is read off c directly, with no product and no ring
    # built, and c * p^t is one scalar product
    tw = make_tower(*spec)
    rng = random.Random(repr(spec))
    products = []
    mulmod = lf._poly_mulmod
    monkeypatch.setattr(lf, "_poly_mulmod", lambda *args: products.append(1) or mulmod(*args))
    moduli = count_rings(monkeypatch)
    for t in (1, 2, 5, tw.cp):
        y = [rng.randrange(tw.modulus) for _ in range(tw.deg)]
        y[0] = y[0] * tw.p + 1
        c = tw._shift(tw._reduce(y), t)
        want = schoolbook_mulmod(tw._reduce(y).tolist(), [tw.p**t], tw.fpoly, tw.modulus)
        assert c.dtype == tw.ring.table.dtype and c.tolist() == want
        if t < tw.cp:
            assert tw._strip(c, t).tolist() == strip_by_p_over_pi(tw, c, t)
    assert not products and not moduli


def newton_inverse_full_rounds(tw, unit):
    """inv's Newton iteration with every one of its rounds and the
    schoolbook product: the value the early exit must reproduce."""
    u = unit.tolist()
    v = tw._residue_inverse(unit).tolist() + [0] * (tw.deg - tw.f)
    for _ in range(max(3, math.ceil(math.log2(tw.cp * tw.e)) + 2)):
        uv = schoolbook_mulmod(u, v, tw.fpoly, tw.modulus)
        two_minus = [(-c) % tw.modulus for c in uv]
        two_minus[0] = (two_minus[0] + 2) % tw.modulus
        v = schoolbook_mulmod(v, two_minus, tw.fpoly, tw.modulus)
    return tuple(v)


@pytest.mark.parametrize("spec", [(3, "cyclotomic", 2, 100), (5, "unramified", 1, 28)])
def test_inv_matches_full_round_newton(spec):
    tw = make_tower(*spec)
    rng = random.Random(11)
    units = [tw.one, tw.zeta() if tw.kind == "cyclotomic" else tw.from_int(2)]
    while len(units) < 8:
        x = tw.from_poly([rng.randrange(tw.modulus) for _ in range(tw.deg)])
        if not x.is_zero and x.val == 0:
            units.append(x)
    for x in units:
        assert fields(tw.inv(x))[1] == newton_inverse_full_rounds(tw, x.unit)


def test_dropped_tower_is_freed_without_gc():
    # elements are plain values: they keep no tower alive, and the tower
    # is in no reference cycle, so it goes as soon as its caller drops it
    tw = make_tower(3, "cyclotomic", 1, 60)
    build_datum(tw)
    basis = tw.class_basis(1)
    product = tw.mul(basis[1], basis[2])
    expected = [fields(x) for x in basis + [product]]
    ref = weakref.ref(tw)
    gc.disable()
    try:
        del tw
        assert ref() is None
        assert [fields(x) for x in basis + [product]] == expected
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "spec", [(3, "cyclotomic", 2, 100), (3, "unramified", 2, 28)], ids=lambda s: f"{s[1]}{s[0]}n{s[2]}"
)
def test_build_datum_takes_each_top_norm_once(spec, monkeypatch):
    # N_(K/K) = 1, so the top level's eps and inter-norms reuse the
    # level norms: one norm from level n to each j < n per basis element
    calls, classes = [], []
    norm, class_of = lf.LocalTower.norm, lf.LocalTower.class_of

    def counted(self, x, i, j):
        calls.append((i, j))
        return norm(self, x, i, j)

    def counted_class(self, i, x):
        classes.append(i)
        return class_of(self, i, x)

    monkeypatch.setattr(lf.LocalTower, "norm", counted)
    monkeypatch.setattr(lf.LocalTower, "class_of", counted_class)
    tw = make_tower(*spec)
    d = build_datum(tw)
    n = tw.n
    assert sum(i == n and j < n for i, j in calls) == n * d.J.dim
    # one class per column of sigma_i, eps, the norms and the inter-norms,
    # and two per Kummer generator a_i (no p-th power in K_i, one in
    # K_(i+1)); the first of the two is the datum's a_class
    dims = [tw.dim_class_space(i) for i in range(n + 1)]
    columns = sum(dims) + sum(dims[:n]) + (n + 1) * dims[n] + sum(i * dims[i] for i in range(n))
    assert len(classes) == columns + 2 * n * tw.xi_in_F


def monic_polys(p, d):
    return [list(tail) + [1] for tail in itertools.product(range(p), repeat=d)]


def reducible_by_product_search(p, d):
    """Every product g*h over F_p of monic g of degree k, 0 < k <= d/2, and
    monic h of degree d - k: the reducible monic polynomials of degree d."""
    return {
        tuple(int(c) % p for c in np.convolve(g, h))
        for k in range(1, d // 2 + 1)
        for g in monic_polys(p, k)
        for h in monic_polys(p, d - k)
    }


@pytest.mark.parametrize(
    "p, d", [(p, d) for p, top in ((2, 6), (3, 4), (5, 3)) for d in range(1, top + 1)],
    ids=lambda v: str(v),
)
def test_gf_irreducible_matches_trial_division(p, d):
    reducible = reducible_by_product_search(p, d)
    found = 0
    for f in monic_polys(p, d):
        irreducible = lf._gf_irreducible(f, p)
        assert irreducible == (tuple(f) not in reducible), f
        found += irreducible
    # Gauss: sum over k | d of mu(k) p^(d/k), over d, monic irreducibles
    mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1}
    assert found == sum(mu * p ** (d // k) for k, mu in mobius.items() if d % k == 0) // d


@pytest.mark.parametrize(
    "spec", [(3, "cyclotomic", 2, 100), (5, "unramified", 1, 28)],
    ids=lambda s: f"{s[1]}{s[0]}n{s[2]}",
)
def test_precision_bookkeeping(spec):
    tw = make_tower(*spec)
    cap = tw.rel_cap
    rng = random.Random(repr(spec))
    sample = [tw.one, tw.pi]
    sample += [tw.mul(_seeded_unit(tw, rng), tw.powi(tw.pi, v)) for v in (0, 1, -2, 5)]
    # an add that cancels k pi-digits is known to the operands' bound
    for x in sample[2:]:
        v = x.val
        assert x.aprec == v + cap
        assert fields(tw.add(x, tw.neg(x))) == (0, None, v + cap)
        for k in (1, 2, tw.e, tw.e + 1, 3 * tw.e + 2):
            tail = tw.mul(_seeded_unit(tw, rng), tw.powi(tw.pi, v + k))
            y = tw.add(tw.neg(x), tail)
            assert (y.val, y.aprec) == (v, v + cap)
            s = tw.add(x, y)
            assert (s.val, s.aprec) == (v + k, v + cap)
            assert tw.eq(s, tail)
    # zero is neutral for add, and a product with zero is an exact zero
    zero = fields(tw.zero)
    for x in sample:
        assert fields(tw.add(x, tw.zero)) == fields(tw.add(tw.zero, x)) == fields(x)
        assert fields(tw.mul(x, tw.zero)) == fields(tw.mul(tw.zero, x)) == zero
    assert fields(tw.add(tw.zero, tw.zero)) == fields(tw.mul(tw.zero, tw.zero)) == zero
    # one and pi act as the same values known to val + rel_cap
    for a in (tw.one, tw.pi):
        capped = lf.LFElement(a.val, a.unit, a.val + cap)
        assert fields(tw.inv(a)) == fields(tw.inv(capped))
        for b in sample:
            assert fields(tw.add(a, b)) == fields(tw.add(capped, b))
            assert fields(tw.add(b, a)) == fields(tw.add(b, capped))
            assert fields(tw.mul(a, b)) == fields(tw.mul(capped, b))
            assert fields(tw.mul(b, a)) == fields(tw.mul(b, capped))


@pytest.mark.parametrize(
    "spec",
    [(3, "unramified", 1, 40), (5, "unramified", 1, 28), (5, "cyclotomic", 1, 104),
     (3, "unramified", 2, 28)],
)
def test_residue_inverse_matches_power_form(spec):
    # the inverse in F_p[x]/(r) of the residue u[:f] is u^(p^f - 2)
    tw = make_tower(*spec)
    p, d = tw.p, tw.deg
    res_ring = lf._Ring(tw.r, p)
    rng = random.Random(d)
    for _ in range(200):
        u = [rng.randrange(p) for _ in range(d)]
        if not any(u[: tw.f]):
            continue
        power = lf._poly_powmod(as_ring(res_ring, u[: tw.f]), p**tw.f - 2, res_ring)
        inverse = tw._residue_inverse(tw._reduce(u)).tolist()
        assert inverse == power.tolist()
        # lifted coefficients reduce to the same residue
        lifted = tw._reduce([c + p * rng.randrange(5) for c in u])
        assert tw._residue_inverse(lifted).tolist() == inverse
    with pytest.raises(ZeroDivisionError):
        tw._residue_inverse(tw._reduce([0] * d))
    with pytest.raises(ZeroDivisionError):
        tw._residue_inverse(tw._reduce([p] * d))


@pytest.mark.parametrize(
    "spec", [(3, "unramified", 1, 40), (5, "unramified", 1, 28), (3, "unramified", 2, 28)],
    ids=lambda s: f"{s[1]}{s[0]}n{s[2]}",
)
def test_residue_frobenius_inverse_matches_the_power_form(spec):
    # the p-th root in F_q, q = p^f, is Frobenius^(f-1): f - 1 products by
    # the Frobenius matrix give residue^(p^(f-1))
    tw = make_tower(*spec)
    p, f = tw.p, tw.f
    res_ring = lf._Ring(tw.r, p)
    rng = random.Random(repr(spec))
    residues = list(np.eye(f, dtype=np.int64))
    residues += [np.array([rng.randrange(p) for _ in range(f)]) for _ in range(20)]
    for residue in residues:
        delta = tw._residue_frob_inverse(residue)
        power = lf._poly_powmod(res_ring.cast(residue), p ** (f - 1), res_ring)
        assert delta.tolist() == power.tolist()
        assert lf._poly_powmod(delta, p, res_ring).tolist() == residue.tolist()


# -- the Galois action ---------------------------------------------------------


def sigma_matrix_powers(tw):
    """The reference action: the d x d matrix of sigma on the power basis
    (column j is g^j for the generator image g) and its powers by
    schoolbook matrix products mod p^cp; index 0 is unused."""
    d, mod = tw.deg, tw.modulus
    if tw.kind == "cyclotomic":
        g = schoolbook_powmod([1, 1], 5 if tw.p == 2 else 1 + tw.p, tw.fpoly, mod)
        g[0] = (g[0] - 1) % mod
    else:
        g = tw._frobenius_root().tolist()
    cols, col = [], [1] + [0] * (d - 1)
    for _ in range(d):
        cols.append(col)
        col = schoolbook_mulmod(col, g, tw.fpoly, mod)
    first = [[cols[j][i] for j in range(d)] for i in range(d)]
    mats = [None, first]
    for _ in range(2, tw.p**tw.n):
        prev = mats[-1]
        mats.append([
            [sum(first[i][t] * prev[t][j] for t in range(d)) % mod for j in range(d)]
            for i in range(d)
        ])
    return mats


def matrix_galois(tw, mats, x, k):
    """sigma^k(x) through the matrix of sigma^k: the unit's coordinates
    times the matrix, and for cyclotomic towers the unit of sigma^k(pi)/pi
    raised to the valuation; that unit is known to one pi-digit fewer
    than sigma^k(pi)."""
    d, mod = tw.deg, tw.modulus
    m, unit = mats[k], x.unit.tolist()
    img = [sum(m[i][j] * unit[j] for j in range(d)) % mod for i in range(d)]
    out = lf.LFElement(x.val, np.array(img, dtype=tw.ring.table.dtype), x.aprec)
    if tw.kind == "unramified":
        return out
    sigma_pi = tw.from_poly([m[i][1] for i in range(d)])
    assert sigma_pi.val == 1
    return tw.mul(out, tw.powi(lf.LFElement(0, sigma_pi.unit, sigma_pi.aprec - 1), x.val))


# the towers with the dtype of their ring: sigma^k is checked on both
# sides of the int64 bound
GALOIS_TOWERS = {
    (3, "cyclotomic", 2, 100): np.int64,
    (2, "cyclotomic", 3, 88): np.int64,
    (5, "unramified", 1, 28): object,
}


@pytest.mark.parametrize("spec", list(GALOIS_TOWERS), ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_galois_matches_matrix_oracle(spec):
    assert set(GALOIS_TOWERS.values()) == {np.int64, object}
    tw = make_tower(*spec)
    dtype = GALOIS_TOWERS[spec]
    assert tw.ring.table.dtype == dtype
    assert all(sigma.dtype == dtype for sigma in tw._sigma[1:])
    mats = sigma_matrix_powers(tw)
    rng = random.Random(repr(spec))
    elements = [tw.mul(_seeded_unit(tw, rng), tw.powi(tw.pi, s)) for s in (-1, 1, 2, 5)]
    for k in range(1, tw.p**tw.n):
        for x in elements:
            got, want = tw.galois(x, k), matrix_galois(tw, mats, x, k)
            assert fields(got) == fields(want)
    # sigma^0 and sigma^(p^n) are the identity
    for x in elements:
        assert tw.galois(x, 0) is x and tw.galois(x, tw.p**tw.n) is x


def test_galois_of_a_unit_makes_no_product(monkeypatch):
    # sigma^k(pi)/pi to the power 0 is one: a unit's image is the matrix
    # product alone, and an exact unit stays exact
    tw = make_tower(3, "cyclotomic", 2, 100)
    mats = sigma_matrix_powers(tw)
    units = [_seeded_unit(tw, random.Random(7)), tw.from_poly([1, 2, 0, 1])]
    units.append(lf.LFElement(0, units[1].unit))
    order = tw.p**tw.n
    wants = [[matrix_galois(tw, mats, u, k) for k in range(1, order)] for u in units]
    products = []
    mulmod = lf._poly_mulmod
    monkeypatch.setattr(lf, "_poly_mulmod", lambda *args: products.append(1) or mulmod(*args))
    for u, want in zip(units, wants):
        for k, w in zip(range(1, order), want):
            got = tw.galois(u, k)
            assert fields(got)[:2] == fields(w)[:2] and got.aprec == u.aprec
    assert not products


@pytest.mark.parametrize("spec", list(GALOIS_TOWERS)[::2], ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_galois_powers_compose(spec):
    tw = make_tower(*spec)
    order = tw.p**tw.n
    rng = random.Random(repr(spec))
    elements = [tw.mul(_seeded_unit(tw, rng), tw.powi(tw.pi, s)) for s in (0, 3)]
    for x in elements:
        for a in range(order):
            for b in range(order):
                assert tw.eq(tw.galois(tw.galois(x, b), a), tw.galois(x, a + b))


def digits_known(lo, hi, x, y):
    """The pi-digits to which x, computed in the tower lo, agrees with y,
    the same value computed in hi, the same tower at a higher precision."""
    diff = hi.add(y, hi.neg(lf.LFElement(x.val, hi.ring.cast(x.unit))))
    return diff.aprec if diff.is_zero else diff.val


@pytest.mark.parametrize(
    "spec", [(3, "cyclotomic", 1, 60), (2, "cyclotomic", 1, 40), (2, "cyclotomic", 3, 88),
             (5, "unramified", 1, 28)],
    ids=lambda s: f"{s[1]}{s[0]}n{s[2]}",
)
def test_from_poly_and_galois_claim_only_known_digits(spec):
    # every digit an element claims agrees with the tower at twice the
    # precision
    p, kind, n, precision = spec
    lo, hi = make_tower(*spec), make_tower(p, kind, n, 2 * precision)
    d, rng = lo.deg, random.Random(repr(spec))
    for t in (1, 2, 5):
        # pi^t times a unit, plus p^cp times a unit, past the degree: the
        # second term is below the digits lo keeps
        unit = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d + 2)]
        lead = [0] * t + unit if lo._x_val else [p**t * c for c in unit]
        tail = [lo.modulus * c for c in unit]
        c = [a + b for a, b in itertools.zip_longest(lead, tail, fillvalue=0)]
        x, y = lo.from_poly(c), hi.from_poly(c)
        assert x.val == y.val == t
        assert digits_known(lo, hi, x, y) >= x.aprec
    for s in (1, 2, 5):
        # an exact value in both towers, sent through every sigma^k
        unit = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d - 1)]
        x, y = (tw.mul(tw.from_poly(unit), tw.powi(tw.pi, s)) for tw in (lo, hi))
        for k in range(1, p**n):
            gx, gy = lo.galois(x, k), hi.galois(y, k)
            assert gy.aprec >= gx.aprec and digits_known(lo, hi, gx, gy) >= gx.aprec


def test_order_check_refuses_the_identity(monkeypatch):
    monkeypatch.setattr(lf.LocalTower, "_frobenius_root", lambda self: self._reduce([0, 1]))
    with pytest.raises(ValueError, match="order"):
        make_tower(3, "unramified", 1, 40)


def test_frobenius_check_refuses_another_generator(monkeypatch):
    # phi^2 generates Gal(K/Q_p) as well, and passes the order check, but
    # the Teichmuller lift needs sigma = phi, x -> x^p mod p
    ref = make_tower(3, "unramified", 1, 40)
    phi2 = ref._sigma[2][:, 1].copy()
    monkeypatch.setattr(lf.LocalTower, "_frobenius_root", lambda self: phi2)
    with pytest.raises(ValueError, match="Frobenius"):
        make_tower(3, "unramified", 1, 40)


# sha256 of the datum JSON `galmod local` writes for these towers
# (datum_to_json, indent 1, one trailing newline)
LOCAL_DIGESTS = {
    (3, "cyclotomic", 1, 60): "b4ad99f21d277b7b9bd71e3d31ad65a8ae21511ccb40f1d6a96eea034e4c632e",
    (2, "cyclotomic", 2, 56): "b347b423824a931ffa686cca26d92c07d22be9555de885a3fe9cfba6671d8b4b",
    (3, "unramified", 1, 40): "66cf04bbc031ecf85269e331d9498f41c0d05bfb3853fbe0c20c11cff4af096d",
    (5, "unramified", 1, 28): "abf41393c8b6f2de58d2adc098b7e6f72281ddcce0df3e8dab64fd099238ee6e",
    (3, "cyclotomic", 2, 100): "5b0b4ce25f4fea7a71d883600026aa8d16ac98ee9d1895af73fc8e33f2b25a04",
    (5, "cyclotomic", 1, 104): "d5e36239c977cc4f45fc34da6c60b2f75d4debb31f0f5579898aef1f33d48b1a",
    (2, "cyclotomic", 3, 88): "7752895f207a06bfe1d6c62f01a5c34d7beef1ba23abeff3e49c10c462c4bbd7",
    (3, "unramified", 2, 28): "36ed02d411fc2bac23c6d8afe98042b0621b8bfd97e81d07c6f75a10702c009b",
    (5, "unramified", 2, 28): "298d33d86a8d5ee575fea7aa3a852cb2ed1c1eb1161d3a2f5d60e1b8acfd91f1",
    (7, "cyclotomic", 1, 192): "4b6b2f00e424b08038d0df673fdbc752bc28b4ce654ab240b7e0f7162b211cc3",
    (3, "cyclotomic", 3, 240): "6385c3a483fbed8d84aa0e87e895abe6112c2fbe7b26f44115dec893e46e9475",
    (5, "cyclotomic", 2, 424): "a87311065e222421f5b336412247c918b056d20e8948b94d90657df8c80ec543",
    (3, "unramified", 3, 28): "68f33d59fc79935427a9844843f9180941674cf70cbdcf4020113cde8c0aab7a",
}


@pytest.mark.parametrize("spec", list(LOCAL_DIGESTS), ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_local_datum_json_is_pinned(spec):
    text = json.dumps(datum_to_json(tower_datum(spec)[1]), indent=1) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == LOCAL_DIGESTS[spec]


def ramification_index(p, kind, n):
    if kind == "unramified":
        return 1
    return 2 ** (n + 1) if p == 2 else p**n * (p - 1)


@pytest.mark.parametrize("spec", list(LOCAL_DIGESTS), ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_local_datum_at_the_threshold_precision_is_pinned(spec):
    # the lowest precision a tower accepts, m_min = e*ceil(p/(p-1)) + e + 8,
    # passes every check the constructor makes and gives the same datum
    p, kind, n = spec[:3]
    e = ramification_index(p, kind, n)
    m_min = e * math.ceil(p / (p - 1)) + e + 8
    with pytest.raises(PrecisionError):
        make_tower(p, kind, n, m_min - 1)
    d = build_datum(make_tower(p, kind, n, m_min))
    text = json.dumps(datum_to_json(d), indent=1) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == LOCAL_DIGESTS[spec]


def test_a_kind_is_one_function_in_the_table(tmp_path, monkeypatch):
    # a kind registered in KINDS is a --kind choice, and builds through
    # the constructor's one path: a copy of the cyclotomic kind gives its pin
    monkeypatch.setitem(lf.KINDS, "twin", lambda p, n: lf._cyclotomic(p, n))
    out = tmp_path / "d.json"
    assert main(["local", "--p", "2", "--kind", "twin", "--n", "2", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == LOCAL_DIGESTS[(2, "cyclotomic", 2, 56)]


def test_cli_default_precision_matches_the_pin(tmp_path):
    # no --precision: the tower's own default, 4e + 24 = 56 for e = 8
    out = tmp_path / "d.json"
    assert main(["local", "--p", "2", "--kind", "cyclotomic", "--n", "2", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == LOCAL_DIGESTS[(2, "cyclotomic", 2, 56)]
