"""p-adic towers: arithmetic, Galois action, class spaces, datum extraction."""

import functools
import gc
import hashlib
import json
import math
import random
import weakref

import numpy as np
import pytest

from galmod import local_fields as lf
from galmod.cli import main
from galmod.datum import datum_to_json, e_ranks, exceptional_search, i_via_theorem3, validate
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


def test_frobenius_on_teichmuller(unram3):
    tw = unram3
    # sigma fixes Teichmuller representatives up to the p-th power map
    omega = tw.teichmuller((0, 1, 0))
    assert tw.eq(tw.galois(omega, 1), tw.powi(omega, 3))


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
            assert v and tw.residue(tw.mul(a, tw.powi(pi_i, -v))) != (1,) + (0,) * (tw.f - 1)
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
            assert (got.val, got.unit) == (want.val, want.unit)
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
}


@functools.cache
def tower_datum(spec):
    """(tower, datum) of a spec, built once: the closed-form and pinned
    tests share them (the unramified p = 5, n = 2 datum takes seconds)."""
    tw = make_tower(*spec)
    return tw, build_datum(tw)


@pytest.mark.parametrize("spec", list(CLOSED_FORM_DIMS), ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_class_space_dimension_matches_the_closed_form(spec):
    p, kind = spec[:2]
    tw, d = tower_datum(spec)
    # cyclotomic towers contain zeta_p; unramified ones only for p = 2,
    # where zeta_2 = -1
    zeta_p_in_k = kind == "cyclotomic" or p == 2
    dim = d.J.dim
    assert dim == tw.deg + 1 + zeta_p_in_k == CLOSED_FORM_DIMS[spec]


# -- exactness of the packed arithmetic ---------------------------------------

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
    # the widened moduli of _strip: p^(cp+k) for its products, and
    # p^(cp+t) for the multiplier's powers
    for widen in (1, 2, tw.e, 3 * tw.e + 1):
        mod_hi = tw.modulus * tw.p**widen
        moduli.append(([c % mod_hi for c in tw.minpoly], mod_hi))
    for f, m in moduli:
        ops = [op for _ in range(3) for op in _operands(rng, d, m)]
        for a in ops:
            for b in rng.sample(ops, 6) + [a]:
                assert lf._poly_mulmod(a, b, f, m) == schoolbook_mulmod(a, b, f, m)


def test_poly_mulmod_small_moduli():
    rng = random.Random(3)
    for p, d in ((2, 1), (3, 2), (5, 5), (7, 9)):
        for _ in range(20):
            f = [rng.randrange(p) for _ in range(d)] + [1]
            a = [rng.randrange(-p, 2 * p) for _ in range(rng.randint(0, d))]
            b = [rng.randrange(p) for _ in range(rng.randint(0, d))]
            assert lf._poly_mulmod(a, b, f, p) == schoolbook_mulmod(a, b, f, p)


def test_poly_mulmod_refuses_long_operands():
    with pytest.raises(ValueError):
        lf._poly_mulmod([1, 2, 3, 4], [1], [1, 0, 1], 7)


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
    wide = tw.modulus * tw.p ** (2 * tw.e + 3)  # a widened modulus of _strip
    moduli = [(tw.fpoly, tw.modulus), (tw.r, tw.p), ([x % wide for x in tw.minpoly], wide)]
    products = []
    mulmod = lf._poly_mulmod
    monkeypatch.setattr(lf, "_poly_mulmod", lambda *args: products.append(1) or mulmod(*args))
    for f, m in moduli:
        d = len(f) - 1
        for a in ([rng.randrange(m) for _ in range(d)],
                  [rng.randrange(-3 * m, 3 * m) for _ in range(rng.randint(1, d))]):
            for e in range(41):
                products.clear()
                assert lf._poly_powmod(a, e, f, m) == schoolbook_powmod(a, e, f, m)
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
    acc = schoolbook_mulmod(list(c), q, f, wide)
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
            c = tw._shift(y, t)
            assert tw._strip(c, t) == strip_by_p_over_pi(tw, c, t)
            # one digit short of pi^t: both refuse
            c = tw._shift(y, t - 1)
            assert strip_by_p_over_pi(tw, c, t) is None
            with pytest.raises(PrecisionError):
                tw._strip(c, t)


@pytest.mark.parametrize("spec", BENCH_TOWERS, ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_strip_tables_match_the_p_over_pi_power(spec):
    # the multiplier p^k / pi^t mod p^(cp+k), k = ceil(t/e), as it was
    # built before: (p/pi)^t mod p^(cp+t), divided by p^(t-k)
    tw = make_tower(*spec)
    p = tw.p
    for t in [*range(1, 3 * tw.e + 3), tw.e * tw.cp]:  # k runs up to cp
        k = -(-t // tw.e)
        wide = tw.modulus * p**t
        f = [x % wide for x in tw.minpoly]
        q_wide = lf._poly_powmod([x % wide for x in p_over_pi(tw)], t, f, wide)
        q = lf._poly_trim([x // p ** (t - k) for x in q_wide])
        mod_k = tw.modulus * p**k
        assert tw._strip_table(t) == (mod_k, [x % mod_k for x in tw.minpoly], q, p**k)
    # past k = cp no nonzero polynomial mod p^cp is divisible by pi^t
    with pytest.raises(PrecisionError):
        tw._strip_table(tw.e * tw.cp + 1)


def newton_inverse_full_rounds(tw, unit):
    """inv's Newton iteration with every one of its rounds and the
    schoolbook product: the value the early exit must reproduce."""
    u = list(unit)
    v = tw._residue_inverse(u)
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
        assert tw.inv(x).unit == newton_inverse_full_rounds(tw, x.unit)


def test_dropped_tower_is_freed_without_gc():
    # elements are plain values: they keep no tower alive, and the tower
    # is in no reference cycle, so it goes as soon as its caller drops it
    tw = make_tower(3, "cyclotomic", 1, 60)
    build_datum(tw)
    basis = tw.class_basis(1)
    product = tw.mul(basis[1], basis[2])
    expected = [(x.val, x.unit) for x in basis + [product]]
    ref = weakref.ref(tw)
    gc.disable()
    try:
        del tw
        assert ref() is None
        assert [(x.val, x.unit) for x in basis + [product]] == expected
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


@pytest.mark.parametrize(
    "spec", [(3, "unramified", 1, 40), (5, "unramified", 1, 28), (5, "cyclotomic", 1, 104)]
)
def test_residue_inverse_matches_power_form(spec):
    # the inverse in F_p[x]/(r) is u^(p^f - 2), lifted to a deg-long unit
    tw = make_tower(*spec)
    p, d = tw.p, tw.deg
    rng = random.Random(d)
    for _ in range(200):
        u = [rng.randrange(p) for _ in range(d)]
        if not any(u[: tw.f]):
            continue
        power = lf._poly_powmod(u[: tw.f], p**tw.f - 2, tw.r, p)
        assert tw._residue_inverse(u) == power + [0] * (d - len(power))
        # lifted coefficients reduce to the same residue
        assert tw._residue_inverse([c + p * rng.randrange(5) for c in u]) == tw._residue_inverse(u)
    with pytest.raises(ZeroDivisionError):
        tw._residue_inverse([0] * d)
    with pytest.raises(ZeroDivisionError):
        tw._residue_inverse([p] * d)


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
        g = tw._frobenius_root()
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
    raised to the valuation."""
    d, mod = tw.deg, tw.modulus
    m = mats[k]
    img = tuple(sum(m[i][j] * x.unit[j] for j in range(d)) % mod for i in range(d))
    out = lf.LFElement(x.val, img, x.aprec)
    if tw.kind == "unramified":
        return out
    sigma_pi = tw.from_poly([m[i][1] for i in range(d)])
    assert sigma_pi.val == 1
    return tw.mul(out, tw.powi(lf.LFElement(0, sigma_pi.unit), x.val))


GALOIS_TOWERS = ((3, "cyclotomic", 2, 100), (2, "cyclotomic", 3, 88), (5, "unramified", 1, 28))


@pytest.mark.parametrize("spec", GALOIS_TOWERS, ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_galois_matches_matrix_oracle(spec):
    tw = make_tower(*spec)
    mats = sigma_matrix_powers(tw)
    rng = random.Random(repr(spec))
    elements = [tw.mul(_seeded_unit(tw, rng), tw.powi(tw.pi, s)) for s in (-1, 1, 2, 5)]
    for k in range(1, tw.p**tw.n):
        for x in elements:
            got, want = tw.galois(x, k), matrix_galois(tw, mats, x, k)
            assert (got.val, got.unit, got.aprec) == (want.val, want.unit, want.aprec)
    # sigma^0 and sigma^(p^n) are the identity
    for x in elements:
        assert tw.galois(x, 0) is x and tw.galois(x, tw.p**tw.n) is x


@pytest.mark.parametrize("spec", GALOIS_TOWERS[::2], ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_galois_powers_compose(spec):
    tw = make_tower(*spec)
    order = tw.p**tw.n
    rng = random.Random(repr(spec))
    elements = [tw.mul(_seeded_unit(tw, rng), tw.powi(tw.pi, s)) for s in (0, 3)]
    for x in elements:
        for a in range(order):
            for b in range(order):
                assert tw.eq(tw.galois(tw.galois(x, b), a), tw.galois(x, a + b))


def test_order_check_refuses_the_identity(monkeypatch):
    monkeypatch.setattr(lf.LocalTower, "_frobenius_root", lambda self: [0, 1] + [0] * (self.deg - 2))
    with pytest.raises(ValueError, match="order"):
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
}


@pytest.mark.parametrize("spec", list(LOCAL_DIGESTS), ids=lambda s: f"{s[1]}{s[0]}n{s[2]}")
def test_local_datum_json_is_pinned(spec):
    text = json.dumps(datum_to_json(tower_datum(spec)[1]), indent=1) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == LOCAL_DIGESTS[spec]


def test_cli_default_precision_matches_the_pin(tmp_path):
    # no --precision: the tower's own default, 4e + 24 = 56 for e = 8
    out = tmp_path / "d.json"
    assert main(["local", "--p", "2", "--kind", "cyclotomic", "--n", "2", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == LOCAL_DIGESTS[(2, "cyclotomic", 2, 56)]
