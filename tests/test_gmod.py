"""Module structure over F_p[G]: lengths, socles, Jordan types, lemmas."""

import random

import numpy as np
import pytest

import galmod.fp_linalg as fl
import galmod.gmod as gm


def block_sigma(p, sizes):
    dim = sum(sizes)
    s = fl.identity(dim)
    pos = 0
    for size in sizes:
        for j in range(size - 1):
            s[pos + j + 1, pos + j] = 1
        pos += size
    return s % p


def conjugated(p, n, sizes, seed):
    rng = random.Random(seed)
    sigma = block_sigma(p, sizes)
    dim = sigma.shape[0]
    while True:
        pmat = np.array(
            [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)],
            dtype=np.int64,
        )
        if fl.rank(pmat, p) == dim:
            break
    aug = np.concatenate([pmat, fl.identity(dim)], axis=1)
    r, _ = fl.rref(aug, p)
    pinv = r[:, dim:]
    return gm.make_module(p, n, (pmat @ sigma @ pinv) % p)


def test_make_module_trivial():
    m = gm.make_module(2, 1, fl.identity(3))
    assert m.dim == 3


def test_make_module_involution():
    # one Jordan block of size 2 over F_2 squares to the identity
    m = gm.make_module(2, 1, block_sigma(2, [2]))
    assert m.dim == 2


def test_make_module_rejects_wrong_order():
    # J_3(1) over F_2: sigma^2 = I + N^2 != I
    with pytest.raises(ValueError, match="order"):
        gm.make_module(2, 1, block_sigma(2, [3]))


def test_length_examples():
    m = gm.make_module(2, 2, block_sigma(2, [4]))
    assert gm.length(m, np.zeros(4, dtype=np.int64)) == 0
    gen = np.array([1, 0, 0, 0])
    assert gm.length(m, gen) == 4
    # regular representation of Z/4 over F_2, element (0,0,1,0)
    assert gm.length(m, np.array([0, 0, 1, 0])) == 2


def test_socle_series_trivial_action():
    m = gm.make_module(3, 1, fl.identity(4))
    series = gm.socle_series(m)
    assert len(series) == 1 and series[0].dim == 4


def test_socle_series_single_block():
    m = gm.make_module(2, 2, block_sigma(2, [4]))
    series = gm.socle_series(m)
    assert [s.dim for s in series] == [1, 2, 3, 4]


def test_socle_series_mixed_blocks():
    # blocks {2,1} over F_3: kernel dims are 2 then 3
    m = gm.make_module(3, 1, block_sigma(3, [2, 1]))
    series = gm.socle_series(m)
    assert [s.dim for s in series] == [2, 3]
    # agreement with fixed-point computation level by level
    nilp = gm.op(m)
    for k, t in enumerate(series, start=1):
        assert t == fl.kernel(fl.mat_pow(nilp, k, 3), 3)


def test_fixed_points_levels():
    m = gm.make_module(3, 2, block_sigma(3, [9]))
    for i in range(3):
        assert gm.fixed_points(m, i).dim == 3**i
    assert gm.fixed_points(m, 2) == fl.full_space(3, 9)
    with pytest.raises(ValueError):
        gm.fixed_points(m, 3)


def test_fixed_points_equals_op_kernel():
    rng = random.Random("fp")
    for _ in range(40):
        p = rng.choice([2, 3])
        n = rng.choice([1, 2])
        sizes = [rng.randrange(1, p**n + 1) for _ in range(rng.randrange(1, 4))]
        m = conjugated(p, n, sizes, rng.random())
        for i in range(n + 1):
            assert gm.fixed_points(m, i) == fl.kernel(gm.op_pow(m, p**i), p)


def test_jordan_type_basics():
    m = gm.make_module(5, 1, fl.identity(4))
    assert gm.jordan_type(m) == [1, 1, 1, 1]
    m = gm.make_module(3, 2, block_sigma(3, [9]))
    assert gm.jordan_type(m) == [9]


def test_jordan_type_from_rank_sequence():
    # rank sequence (4,2,1,0) on dim 7 pins blocks {4,2,1}; p=2, n=2
    m = gm.make_module(2, 2, block_sigma(2, [4, 2, 1]))
    nilp = gm.op(m)
    seq = [fl.rank(fl.mat_pow(nilp, k, 2), 2) for k in range(1, 5)]
    assert seq == [4, 2, 1, 0]
    assert gm.jordan_type(m) == [4, 2, 1]
    # and the {3,2,1,1} shape corresponds to rank sequence (3,1,0,0)
    m2 = gm.make_module(2, 2, block_sigma(2, [3, 2, 1, 1]))
    nilp2 = gm.op(m2)
    assert [fl.rank(fl.mat_pow(nilp2, k, 2), 2) for k in range(1, 4)] == [3, 1, 0]
    assert gm.jordan_type(m2) == [3, 2, 1, 1]


def test_jordan_type_conjugation_invariant():
    rng = random.Random("jt")
    for _ in range(30):
        p = rng.choice([2, 3, 5])
        n = rng.choice([1, 2])
        sizes = sorted(
            (rng.randrange(1, p**n + 1) for _ in range(rng.randrange(1, 4))),
            reverse=True,
        )
        m = conjugated(p, n, sizes, rng.random())
        assert gm.jordan_type(m) == sizes
        assert sum(gm.jordan_type(m)) == m.dim
        assert len(gm.jordan_type(m)) == gm.fixed_points(m, 0).dim


def test_cyclic_submodule():
    m = gm.make_module(2, 1, block_sigma(2, [2, 2]))
    assert gm.cyclic_submodule(m, np.zeros(4, dtype=np.int64)).dim == 0
    fixed_vec = np.array([0, 1, 0, 0])
    assert gm.cyclic_submodule(m, fixed_vec).dim == 1
    # sum of the two block generators spans a 2-dimensional cyclic module
    u = np.array([1, 0, 1, 0])
    sub = gm.cyclic_submodule(m, u)
    assert sub.dim == 2 == gm.length(m, u)


def test_length_equals_cyclic_dim_random():
    rng = random.Random("len")
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        n = rng.choice([1, 2])
        sizes = [rng.randrange(1, p**n + 1) for _ in range(rng.randrange(1, 4))]
        m = conjugated(p, n, sizes, rng.random())
        v = np.array([rng.randrange(p) for _ in range(m.dim)], dtype=np.int64)
        assert gm.length(m, v) == gm.cyclic_submodule(m, v).dim


def test_independent_sum_check():
    m = gm.make_module(2, 1, fl.identity(2))
    l1 = fl.span(2, 2, [[1, 0]])
    l2 = fl.span(2, 2, [[0, 1]])
    assert gm.independent_sum_check(m, [l1, l2])
    assert not gm.independent_sum_check(m, [l1, l1])

    m2 = gm.make_module(2, 1, block_sigma(2, [2, 2]))
    b1 = fl.span(2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    b2 = fl.span(2, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert gm.independent_sum_check(m2, [b1, b2])
    not_invariant = fl.span(2, 4, [[1, 0, 0, 0]])
    with pytest.raises(ValueError):
        gm.independent_sum_check(m2, [not_invariant])


def test_make_module_refuses_dim_above_bound():
    # n = 0 keeps the order check to sigma - 1 itself
    assert gm.make_module(3, 0, fl.identity(fl.DIM_MAX)).dim == fl.DIM_MAX
    with pytest.raises(ValueError, match="dim 1025 exceeds the supported bound DIM_MAX"):
        gm.make_module(3, 0, fl.identity(fl.DIM_MAX + 1))


def test_free_complement_equal_inputs():
    m = gm.make_module(2, 1, block_sigma(2, [2, 2]))
    u = fl.span(2, 4, fl.identity(4))
    assert gm.free_complement(m, u, u).dim == 0


def test_free_complement_block_split():
    m = gm.make_module(2, 1, block_sigma(2, [2, 2]))
    u = fl.full_space(2, 4)
    v = fl.span(2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    w = gm.free_complement(m, u, v)
    assert w.dim == 2
    assert fl.sub_sum(v, w) == u
    assert fl.sub_intersect(v, w).dim == 0


def test_free_complement_diagonal():
    # V = diagonal free rank-1 inside two size-2 blocks over F_2
    m = gm.make_module(2, 1, block_sigma(2, [2, 2]))
    u = fl.full_space(2, 4)
    diag = np.array([1, 0, 1, 0])
    v = gm.cyclic_submodule(m, diag)
    w = gm.free_complement(m, u, v)
    assert gm.independent_sum_check(m, [v, w])
    assert v.dim + w.dim == u.dim
    sub_sigma = gm.restricted_matrix(m, w)
    assert gm.jordan_type(gm.make_module(2, 1, sub_sigma)) == [2]


def test_free_complement_rejects_non_free():
    m = gm.make_module(2, 1, block_sigma(2, [2, 1]))
    u = fl.full_space(2, 3)
    v = fl.span(2, 3, [[0, 0, 1]])
    with pytest.raises(ValueError):
        gm.free_complement(m, u, v)


def test_free_module_norm_identity_quick():
    # fixed points of H_i equal the image of (sigma-1)^(p^n - p^i) on
    # modules with all blocks of size p^n (small seeded sample; the
    # acceptance suite runs the full 200-per-cell version)
    from galmod.invariants import submodule_subfield_identity

    for p, n in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        for seed in range(8):
            assert submodule_subfield_identity(p, n, 1 + seed % 2, seed)


def test_jordan_type_is_a_fresh_list_each_call():
    m = conjugated(3, 2, [9, 3, 3, 1], seed=2)
    blocks = gm.jordan_type(m)
    assert blocks == [9, 3, 3, 1]
    blocks.append(99)
    blocks[0] = 0
    assert gm.jordan_type(m) == [9, 3, 3, 1]


def test_cached_powers_and_fixed_points_are_read_only():
    m = conjugated(2, 2, [4, 2, 1], seed=3)
    power = gm.op_pow(m, 2)
    assert gm.op_pow(m, 2) is power
    assert np.array_equal(power, fl.mat_pow((m.sigma - fl.identity(m.dim)) % 2, 2, 2))
    fixed = gm.fixed_points(m, 1)
    assert gm.fixed_points(m, 1) is fixed
    for array in (power, gm.op(m), fixed.basis, fixed.pivots, m.sigma):
        with pytest.raises(ValueError):
            array[0] = 1


def test_subgroup_module_matches_a_fresh_module():
    m = conjugated(3, 2, [9, 3, 2, 1], seed=5)
    gm.fixed_points(m, 2)  # one fixed space cached beforehand, the others not
    sub = gm.subgroup_module(m, 1)
    fresh = gm.make_module(3, 1, fl.mat_pow(m.sigma, 3, 3))
    assert np.array_equal(sub.sigma, fresh.sigma) and sub.n == 1
    for i in range(2):
        assert gm.fixed_points(sub, i) == gm.fixed_points(fresh, i) == gm.fixed_points(m, i + 1)
    assert gm.jordan_type(sub) == gm.jordan_type(fresh)
