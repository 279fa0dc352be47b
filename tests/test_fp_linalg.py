"""Exact linear algebra over F_p: solves, subspace calculus, determinism."""

import random
from itertools import product

import numpy as np
import pytest

import galmod.fp_linalg as fl


def brute_span(p, ambient, rows):
    """Oracle: the set of all linear combinations, enumerated."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, ambient)
    vecs = set()
    for coeffs in product(range(p), repeat=rows.shape[0]):
        v = np.zeros(ambient, dtype=np.int64)
        for c, row in zip(coeffs, rows):
            v = (v + c * row) % p
        vecs.add(tuple(int(x) for x in v))
    return vecs


def space_as_set(s):
    return brute_span(s.p, s.ambient, s.basis)


def test_check_prime():
    fl.check_prime(2)
    fl.check_prime(13)
    with pytest.raises(ValueError):
        fl.check_prime(6)
    with pytest.raises(ValueError):
        fl.check_prime(1)


def test_solve_identity_case():
    a = fl.identity(2)
    x = fl.solve(a, np.array([2, 1]), 3)
    assert list(x) == [2, 1]


def test_solve_upper_triangular():
    a = np.array([[1, 1], [0, 1]])
    b = np.array([2, 1])
    x = fl.solve(a, b, 3)
    assert np.array_equal((a @ x) % 3, b)
    assert list(x) == [1, 1]


def test_solve_zero_map_inconsistent():
    a = fl.zeros(2, 2)
    assert fl.solve(a, np.array([1, 0]), 2) is None


def test_solve_roundtrip_random():
    # substitute back over 1000 random instances per (p, size <= 12)
    for p in (2, 3, 5):
        rng = random.Random(f"solve-{p}")
        for _ in range(1000):
            m = rng.randrange(1, 13)
            n = rng.randrange(1, 13)
            a = np.array(
                [[rng.randrange(p) for _ in range(n)] for _ in range(m)],
                dtype=np.int64,
            )
            x_true = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
            b = (a @ x_true) % p
            x = fl.solve(a, b, p)
            assert x is not None
            assert np.array_equal((a @ x) % p, b)


def test_intersect_transverse_lines():
    u = fl.span(2, 2, [[1, 0]])
    v = fl.span(2, 2, [[0, 1]])
    assert fl.sub_intersect(u, v).dim == 0


def test_complement_coordinate():
    u = fl.full_space(3, 2)
    v = fl.span(3, 2, [[1, 0]])
    w = fl.sub_complement(u, v)
    assert space_as_set(w) == brute_span(3, 2, [[0, 1]])


def test_sum_reaches_full_space():
    # derived by enumeration: span{(1,1)} + span{(1,2)} covers all of F_3^2
    u = fl.span(3, 2, [[1, 1]])
    v = fl.span(3, 2, [[1, 2]])
    s = fl.sub_sum(u, v)
    combined = brute_span(3, 2, [[1, 1], [1, 2]])
    assert len(combined) == 9
    assert s == fl.full_space(3, 2)


def test_complement_of_the_intersection_brute_force():
    # W complements U n V in U for any V, and is the complement of U n V
    # itself (the intersect-first form)
    rng = random.Random("comp-any-v")
    seen = set()
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        amb = rng.randrange(1, 5)
        u = fl.span(p, amb, [[rng.randrange(p) for _ in range(amb)] for _ in range(3)])
        v_rows = [[rng.randrange(p) for _ in range(amb)] for _ in range(rng.randrange(3))]
        if rng.randrange(2):
            v_rows.extend(u.basis[: rng.randrange(u.dim + 1)])
        v = fl.span(p, amb, v_rows)
        w = fl.sub_complement(u, v)
        u_set, w_set = space_as_set(u), space_as_set(w)
        inter = u_set & space_as_set(v)
        assert w_set <= u_set
        sums = {tuple((np.add(a, b) % p).tolist()) for a in inter for b in w_set}
        assert sums == u_set and len(inter) * len(w_set) == len(u_set)
        assert w == fl.sub_complement(u, fl.sub_intersect(u, v))
        seen.add(u.contains_space(v))
    assert seen == {False, True}


def test_preimage_identity_and_zero():
    w = fl.span(2, 2, [[1, 0]])
    assert fl.preimage(fl.identity(2), w) == w
    assert fl.preimage(fl.zeros(2, 2), w) == fl.full_space(2, 2)


def test_preimage_enumerated():
    # A = [[1,1],[0,0]] over F_2, W = span{(1,0)}: every x maps into W
    a = np.array([[1, 1], [0, 0]])
    w = fl.span(2, 2, [[1, 0]])
    pre = fl.preimage(a, w)
    expected = {
        tuple(x)
        for x in product(range(2), repeat=2)
        if tuple((a @ np.array(x)) % 2) in {(0, 0), (1, 0)}
    }
    assert len(expected) == 4
    assert space_as_set(pre) == expected


def test_dimension_formula_random():
    for p in (2, 3, 5):
        rng = random.Random(f"dim-{p}")
        for _ in range(200):
            amb = rng.randrange(1, 9)
            u = fl.span(
                p, amb, [[rng.randrange(p) for _ in range(amb)] for _ in range(3)]
            )
            v = fl.span(
                p, amb, [[rng.randrange(p) for _ in range(amb)] for _ in range(3)]
            )
            s = fl.sub_sum(u, v)
            i = fl.sub_intersect(u, v)
            assert s.dim + i.dim == u.dim + v.dim


def test_complement_reconstructs():
    rng = random.Random("comp")
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        amb = rng.randrange(1, 9)
        u = fl.span(
            p, amb, [[rng.randrange(p) for _ in range(amb)] for _ in range(4)]
        )
        if u.dim == 0:
            continue
        keep = rng.randrange(u.dim + 1)
        v = fl.span(p, amb, u.basis[:keep])
        w = fl.sub_complement(u, v)
        assert fl.sub_sum(v, w) == u
        assert fl.sub_intersect(v, w).dim == 0


def test_canonical_basis_determinism():
    rng = random.Random("canon")
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        amb = rng.randrange(1, 8)
        rows = [[rng.randrange(p) for _ in range(amb)] for _ in range(5)]
        s1 = fl.span(p, amb, rows)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        # also mix in random combinations of the generators
        extra = [
            [(2 * a + b) % p for a, b in zip(rows[0], rows[-1])],
        ]
        s2 = fl.span(p, amb, shuffled + extra if s1.contains(np.array(extra[0])) else shuffled)
        assert s1 == s2
        assert np.array_equal(s1.basis, s2.basis)


def test_kernel_image():
    a = np.array([[1, 1, 0], [0, 0, 1]])
    k = fl.kernel(a, 2)
    assert k.dim == 1
    assert k.contains(np.array([1, 1, 0]))
    im = fl.image(a, 2)
    assert im == fl.full_space(2, 2)


def test_solve_in_space():
    a = np.array([[0, 1], [0, 0]])  # nilpotent shift
    s = fl.span(2, 2, [[0, 1]])
    x = fl.solve_in_space(a, s, np.array([1, 0]))
    assert x is not None
    assert np.array_equal((a @ x) % 2, np.array([1, 0]))
    assert s.contains(x)
    assert fl.solve_in_space(a, fl.zero_space(2, 2), np.array([1, 0])) is None


def test_check_prime_refuses_p_above_bound(monkeypatch):
    # the bound is checked before any trial division
    monkeypatch.setattr(fl, "is_prime", lambda p: pytest.fail("trial division ran"))
    for p in (fl.P_MAX + 1, 1000000000000000003):
        with pytest.raises(ValueError, match="P_MAX"):
            fl.check_prime(p)


def _random_subspace(rng, p, ambient):
    """A random subspace, sometimes the zero space or the full space."""
    kind = rng.randrange(4)
    if kind == 0:
        return fl.zero_space(p, ambient)
    if kind == 1:
        return fl.full_space(p, ambient)
    rows = [[rng.randrange(p) for _ in range(ambient)] for _ in range(rng.randrange(1, ambient + 2))]
    return fl.span(p, ambient, rows)


def test_pivot_membership_agrees_with_echelon_oracle():
    rng = random.Random(4)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        ambient = rng.randrange(1, 7)
        s = _random_subspace(rng, p, ambient)
        oracle = fl.Echelon(p, ambient)
        for row in s.basis:
            oracle.add(row)
        assert list(s.pivots) == [int(np.nonzero(row)[0][0]) for row in s.basis]
        inside = np.array([rng.randrange(p) for _ in range(s.dim)], dtype=np.int64) @ s.basis
        for v in (inside, np.array([rng.randrange(-p, 2 * p) for _ in range(ambient)])):
            assert s.contains(v) == oracle.contains(v % p)
        assert s.contains(inside)
        t = _random_subspace(rng, p, ambient)
        assert s.contains_space(t) == all(oracle.contains(row) for row in t.basis)
        assert s.contains(t.basis) == s.contains_space(t)
        assert s.contains_space(fl.zero_space(p, ambient))
        assert s.contains_space(fl.full_space(p, ambient)) == (s.dim == ambient)


def test_span_basis_and_pivots_are_read_only():
    s = fl.span(3, 3, [[1, 2, 0], [0, 1, 1]])
    for array in (s.basis, s.pivots):
        with pytest.raises(ValueError):
            array[0] = 0


def kernel_rows_loop(a, p):
    """Reference: one kernel row per free column, written entry by entry."""
    r, pivots = fl.rref(a, p)
    n = a.shape[1]
    rows = []
    for f in (c for c in range(n) if c not in pivots):
        x = np.zeros(n, dtype=np.int64)
        x[f] = 1
        for row, col in enumerate(pivots):
            x[col] = (-r[row, f]) % p
        rows.append(x)
    return np.stack(rows) if rows else np.zeros((0, n), dtype=np.int64)


def test_kernel_matrix_matches_loop_reference():
    rng = random.Random(8)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        m, n, k = rng.randrange(0, 7), rng.randrange(1, 8), rng.randrange(0, 5)
        a = (np.array([[rng.randrange(p) for _ in range(k)] for _ in range(m)], dtype=np.int64)
             .reshape(m, k) @ np.array([[rng.randrange(p) for _ in range(n)] for _ in range(k)],
                                       dtype=np.int64).reshape(k, n)) % p
        got = fl.kernel_matrix(a, p)
        # the canonical RREF of the reference's rows
        want = fl.span(p, n, kernel_rows_loop(a, p)).basis
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert not np.any((a @ got.T) % p)


# -- the product helper, the delayed-reduction rref and the batched draws

PRIMES = (2, 3, 5, 7, 65521)


def test_matmul_matches_int64_oracle_on_both_sides_of_the_cutoff():
    # n^3 multiply-adds: 16^3 is below the float64 cutoff, 32^3 above it
    assert 16**3 < fl._BLAS_MIN_MACS <= 32**3
    shapes = [
        ((3, 3), (3, 3)), ((16, 16), (16, 16)), ((32, 32), (32, 32)),
        ((8, 94), (94, 94)), ((125, 125), (125, 7)), ((40, 243), (243, 243)),
        ((94,), (94, 94)), ((125, 125), (125,)), ((0, 64), (64, 64)), ((64, 0), (0, 64)),
    ]
    rng = np.random.default_rng(3)
    for p in PRIMES:
        for sa, sb in shapes:
            a, b = rng.integers(0, p, sa), rng.integers(0, p, sb)
            got = fl.matmul(a, b, p)
            assert got.dtype == np.int64 and np.array_equal(got, (a @ b) % p), (p, sa, sb)


# A prime whose products reach the float64 bound at inner dimension 3
# (every prime under P_MAX reaches it only past inner dimension 2^21):
# 2 * (p-1)^2 < 2^53 <= 3 * (p-1)^2.  Its rounded 1/p is below 1/p, so
# c * (1/p) falls short of the integer quotient of many multiples c of
# p near the bound.
EDGE_PRIME = 67108313


class AstypeSpy(np.ndarray):
    """An int64 array that records the dtypes it is converted to."""

    seen: list = []

    def astype(self, dtype, *args, **kwargs):
        AstypeSpy.seen.append(np.dtype(dtype))
        return super().astype(dtype, *args, **kwargs)


def takes_float_path(a, b, p) -> bool:
    AstypeSpy.seen = []
    got = fl.matmul(a.view(AstypeSpy), b, p)
    assert np.array_equal(got, (a @ b) % p), (p, a.shape, b.shape)
    return np.dtype(np.float64) in AstypeSpy.seen


def test_matmul_remainder_exact_at_multiples_of_p_near_the_float_bound():
    # 128 x 2 times 2 x 128 is past the size cutoff and takes the float path
    p = EDGE_PRIME
    assert fl.is_prime(p) and 2 * (p - 1) ** 2 < fl._FLOAT64_EXACT
    assert 128 * 2 * 128 >= fl._BLAS_MIN_MACS
    rng = np.random.default_rng(5)
    a = rng.integers(p - p // 8, p, (128, 2))
    b = rng.integers(p - p // 8, p, (2, 128))
    # entry (j, j) is a multiple of p or one below one
    for j in range(128):
        b[1, j] = (-(j % 2) - int(a[j, 0]) * int(b[0, j])) * pow(int(a[j, 1]), -1, p) % p
    c = a @ b
    assert all(c[j, j] % p == (0, p - 1)[j % 2] for j in range(128))
    assert takes_float_path(a, b, p)


def test_matmul_all_max_entries():
    p = 65521
    a = np.full((243, 243), p - 1, dtype=np.int64)
    assert takes_float_path(a, a, p)


def test_matmul_takes_int64_past_the_float64_bound(monkeypatch):
    # float64 while inner * (p-1)^2 < 2^53: under P_MAX, for every inner
    # dim below 2^21
    assert fl._FLOAT64_EXACT == 2**53
    assert (2**21 - 1) * (65521 - 1) ** 2 < 2**53
    p = EDGE_PRIME
    rng = np.random.default_rng(11)
    for inner, in_float in ((2, True), (3, False), (64, False)):
        # odd products near p^2: a float sum past the bound drops low bits
        a = p - 2 * rng.integers(1, p // 8, (128, inner))
        b = p - 2 * rng.integers(1, p // 8, (inner, 128))
        assert takes_float_path(a, b, p) is in_float, inner
    # at the bound itself the product is in int64
    a, b = rng.integers(0, 3, (64, 64)), rng.integers(0, 3, (64, 64))
    monkeypatch.setattr(fl, "_FLOAT64_EXACT", 64 * 2**2 + 1)
    assert takes_float_path(a, b, 3)
    monkeypatch.setattr(fl, "_FLOAT64_EXACT", 64 * 2**2)
    assert not takes_float_path(a, b, 3)


def rref_per_pivot(a, p):
    """Reference: rref that reduces the whole matrix after every pivot."""
    r = np.asarray(a, dtype=np.int64) % p
    m, n = r.shape
    inv = fl.inverses_mod(p)
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = r[row:, col].nonzero()[0]
        if nz.size == 0:
            continue
        i = row + int(nz[0])
        if i != row:
            r[[row, i]] = r[[i, row]]
        r[row] = (r[row] * inv[r[row, col]]) % p
        factors = r[:, col].copy()
        factors[row] = 0
        if factors.any():
            r[:, col:] -= np.outer(factors, r[row, col:])
            r[:, col:] %= p
        pivots.append(col)
        row += 1
    return r, pivots


def _rref_cases(p, rng):
    """Matrices 1-486 wide: dense, sparse, rank-deficient, zero columns."""
    for rows, cols in ((1, 3), (5, 9), (20, 33), (40, 65), (81, 81), (60, 130), (125, 250),
                       (243, 243), (100, 486)):
        yield rng.integers(0, p, (rows, cols))
        sparse = rng.integers(0, p, (rows, cols)) * (rng.random((rows, cols)) < 0.05)
        yield sparse
        rank = max(1, min(rows, cols) // 3)
        low = (rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols))) % p
        low[:, rng.random(cols) < 0.3] = 0
        yield low
    yield np.zeros((70, 90), dtype=np.int64)
    yield rng.integers(-5 * p, 5 * p, (30, 70))


def test_rref_matches_per_pivot_reference():
    rng = np.random.default_rng(7)
    for p in PRIMES:
        for a in _rref_cases(p, rng):
            r, pivots = fl.rref(a, p)
            r0, pivots0 = rref_per_pivot(a, p)
            assert pivots == pivots0 and np.array_equal(r, r0), (p, a.shape)


def test_rref_reduces_every_pivot_past_the_int64_bound(monkeypatch):
    # past the bound entries may not grow between pivots; with the bound
    # set to 0 every matrix is past it
    monkeypatch.setattr(fl, "_INT64_EXACT", 0)
    rng = np.random.default_rng(9)
    for p in (3, 65521):
        for a in _rref_cases(p, rng):
            r, pivots = fl.rref(a, p)
            r0, pivots0 = rref_per_pivot(a, p)
            assert pivots == pivots0 and np.array_equal(r, r0), (p, a.shape)


def random_invertible_loop(p, dim, rng):
    """Reference: one randrange per entry."""
    while True:
        mat = np.array(
            [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)], dtype=np.int64
        ).reshape(dim, dim)
        if fl.rank(mat, p) == dim:
            return mat


def test_random_invertible_draws_the_randrange_stream():
    for p in PRIMES:
        for dim in (1, 2, 7, 243):
            fast, slow = random.Random(f"inv-{p}-{dim}"), random.Random(f"inv-{p}-{dim}")
            got = fl.random_invertible(p, dim, fast)
            assert np.array_equal(got, random_invertible_loop(p, dim, slow)), (p, dim)
            assert fast.getstate() == slow.getstate(), (p, dim)


def test_mat_pow_matches_repeated_products_in_fewer_matmuls(monkeypatch):
    # popcount(k) - 1 multiplies and bitlength(k) - 1 squarings for k >= 1
    real = fl.matmul
    calls = []

    def counting(a, b, p):
        calls.append(a.shape)
        return real(a, b, p)

    monkeypatch.setattr(fl, "matmul", counting)
    rng = np.random.default_rng(11)
    for p in (2, 3, 65521):
        a = rng.integers(-2 * p, 2 * p, (6, 6))
        want = fl.identity(6)
        for k in range(41):
            calls.clear()
            got = fl.mat_pow(a, k, p)
            assert got.dtype == np.int64 and np.array_equal(got, want), (p, k)
            assert len(calls) == (bin(k).count("1") + k.bit_length() - 2 if k else 0), (p, k)
            want = real(want, a % p, p)


# -- one elimination per kernel, intersection and preimage

def _kernel_matrix_two_pass(a, p):
    """The former kernel rows: one per free column of rref(A), in the
    order of the free columns, not reduced against each other."""
    a = fl.asmod(a, p)
    n = a.shape[1]
    r, pivots = fl.rref(a, p)
    if len(pivots) == n:
        return fl.zeros(0, n)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    ker = fl.zeros(free.size, n)
    ker[np.arange(free.size), free] = 1
    ker[:, pivots] = (-r[: len(pivots), free].T) % p
    return ker


def _span_two_pass(p, ambient, rows):
    """The former span: a second rref of the given rows."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, ambient)
    if rows.shape[0] == 0:
        basis, pivots = fl.zeros(0, ambient), []
    else:
        r, pivots = fl.rref(rows, p)
        basis = r[: len(pivots)].copy()
    pivots = np.array(pivots, dtype=np.intp)
    basis.setflags(write=False)
    pivots.setflags(write=False)
    return fl.Subspace(p, ambient, basis, pivots)


def kernel_two_pass(a, p):
    return _span_two_pass(p, a.shape[1], _kernel_matrix_two_pass(a, p))


def sub_intersect_two_pass(u, v):
    if u.dim == 0 or v.dim == 0:
        return _span_two_pass(u.p, u.ambient, fl.zeros(0, u.ambient))
    m = np.concatenate([u.basis.T, (-v.basis.T) % u.p], axis=1)
    ker = _kernel_matrix_two_pass(m, u.p)
    return _span_two_pass(u.p, u.ambient, fl.matmul(ker[:, : u.dim], u.basis, u.p))


def preimage_two_pass(a, w):
    n = a.shape[1]
    if w.dim == 0:
        return kernel_two_pass(a, w.p)
    mtx = np.concatenate([fl.asmod(a, w.p), (-w.basis.T) % w.p], axis=1)
    return _span_two_pass(w.p, n, _kernel_matrix_two_pass(mtx, w.p)[:, :n])


def assert_same_subspace(got, want):
    assert (got.p, got.ambient) == (want.p, want.ambient)
    for g, w in ((got.basis, want.basis), (got.pivots, want.pivots)):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)
        assert not g.flags.writeable


def _matrices(p, rng):
    """Zero, full-rank and rank-deficient matrices, square, tall and wide."""
    for rows, cols in ((1, 1), (1, 4), (4, 1), (3, 3), (5, 8), (8, 5), (12, 12), (20, 40),
                       (40, 20)):
        yield fl.zeros(rows, cols)
        yield fl.random_invertible(p, cols, random.Random(f"{p}-{rows}-{cols}"))[:rows]
        yield rng.integers(0, p, (rows, cols))
        for rank in {1, max(1, min(rows, cols) // 2)}:
            yield (rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols))) % p


def _subspaces(p, ambient, rng):
    """Empty, full and random subspaces of F_p^ambient."""
    yield fl.zero_space(p, ambient)
    yield fl.full_space(p, ambient)
    for dim in {1, ambient // 2, ambient - 1}:
        yield fl.span(p, ambient, rng.integers(0, p, (dim, ambient)))
        low = (rng.integers(0, p, (dim + 1, 1)) @ rng.integers(0, p, (1, ambient))) % p
        yield fl.span(p, ambient, low)


def test_kernel_matches_two_eliminations():
    rng = np.random.default_rng(21)
    for p in PRIMES:
        for a in _matrices(p, rng):
            assert_same_subspace(fl.kernel(a, p), kernel_two_pass(a, p))


def test_sub_intersect_matches_two_eliminations():
    rng = np.random.default_rng(22)
    for p in PRIMES:
        for ambient in (1, 2, 5, 9, 24):
            spaces = list(_subspaces(p, ambient, rng))
            for u in spaces:
                for v in spaces:
                    assert_same_subspace(fl.sub_intersect(u, v), sub_intersect_two_pass(u, v))


def test_preimage_matches_two_eliminations():
    rng = np.random.default_rng(23)
    for p in PRIMES:
        for a in _matrices(p, rng):
            for w in _subspaces(p, a.shape[0], rng):
                assert_same_subspace(fl.preimage(a, w), preimage_two_pass(a, w))


def test_kernel_of_a_matrix_without_columns_is_the_zero_space_of_f_p_0():
    for p in PRIMES:
        for rows in (0, 3):
            a = fl.zeros(rows, 0)
            assert fl.kernel_matrix(a, p).shape == (0, 0)
            k = fl.kernel(a, p)
            assert (k.p, k.ambient, k.dim, k.pivots.shape) == (p, 0, 0, (0,))
            assert k == fl.zero_space(p, 0)
            w = fl.full_space(p, rows) if rows else fl.zero_space(p, 0)
            assert fl.preimage(a, w) == k
            assert fl.span(p, 0, a) == k
        assert fl.full_space(p, 0) == fl.zero_space(p, 0)


def test_inverse_table_is_not_built_for_a_refused_modulus():
    with pytest.raises(ValueError, match="P_MAX"):
        fl.kernel(fl.zeros(2, 2), 65537)
    assert 65537 not in fl._INV_CACHE


def test_kernel_intersect_and_preimage_eliminate_once(monkeypatch):
    real = fl.rref
    calls = []

    def counting(a, p):
        calls.append(a.shape)
        return real(a, p)

    monkeypatch.setattr(fl, "rref", counting)
    rng = np.random.default_rng(24)
    p = 3
    a = (rng.integers(0, p, (6, 2)) @ rng.integers(0, p, (2, 9))) % p
    u = fl.span(p, 9, rng.integers(0, p, (5, 9)))
    v = fl.span(p, 9, rng.integers(0, p, (6, 9)))
    w = fl.span(p, 6, rng.integers(0, p, (2, 6)))
    for op in (lambda: fl.kernel(a, p), lambda: fl.sub_intersect(u, v),
               lambda: fl.preimage(a, w), lambda: fl.preimage(a, fl.zero_space(p, 6))):
        calls.clear()
        result = op()
        assert result.dim > 0 and len(calls) == 1


def _one_row_systems(p, rng):
    """The systems of a class walk at f = 1: one row, the leads of a
    level's records and its free map side by side."""
    for cols in range(1, 7):
        yield fl.zeros(1, cols)
        yield rng.integers(0, p, (1, cols))
        yield np.eye(1, cols, cols - 1, dtype=np.int64) * rng.integers(1, p)


def test_factored_solve_returns_what_solve_returns():
    for p in (2, 3, 5, 7):
        rng = np.random.default_rng(p)
        outcomes = set()
        for a in (*_one_row_systems(p, rng), *_matrices(p, rng)):
            factored = fl.Factored(a, p)
            rows, cols = a.shape
            consistent = [(a @ rng.integers(0, p, cols)) % p for _ in range(3)]
            arbitrary = [rng.integers(0, p, rows) for _ in range(3)]
            for b in (*consistent, *arbitrary, np.zeros(rows, dtype=np.int64)):
                got, want = factored.solve(b), fl.solve(a, b, p)
                outcomes.add(want is None)
                if want is None:
                    assert got is None
                else:
                    assert got.dtype == want.dtype and np.array_equal(got, want)
        assert outcomes == {True, False}


def test_factored_eliminates_once_and_checks_the_length_of_b(monkeypatch):
    real = fl.rref
    calls = []
    monkeypatch.setattr(fl, "rref", lambda a, p: calls.append(a.shape) or real(a, p))
    p = 5
    a = np.random.default_rng(7).integers(0, p, (4, 6))
    factored = fl.Factored(a, p)
    for b in np.random.default_rng(8).integers(0, p, (10, 4)):
        factored.solve(b)
    assert calls == [(4, 10)]
    with pytest.raises(ValueError):
        factored.solve(np.zeros(5, dtype=np.int64))
