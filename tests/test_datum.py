"""Datum axioms, the invariant m, restriction, and norm-equation solving."""

import dataclasses
import json

import numpy as np
import pytest

import galmod.fp_linalg as fl
from galmod.datum import (
    NEG_INF,
    HypothesisError,
    datum_from_json,
    datum_to_json,
    dotplus1,
    e_ranks,
    exceptional_search,
    i_via_theorem3,
    norm_filtration,
    restrict,
    solve_norm_equation,
    theorem3_level_raw,
    validate,
)
from galmod.gmod import cyclic_submodule, fixed_points, length, make_module
from galmod.sweep import enumerate_sweep
from galmod.synth import SynthParams, random_params, synthesize


def test_dotplus():
    assert dotplus1(NEG_INF) == 0
    assert dotplus1(0) == 1
    assert dotplus1(3) == 4


def test_synthesized_data_validate_clean():
    cases = [
        SynthParams(p=2, n=1, m=None, e=(1, 1), xi_in_F=False),
        SynthParams(p=3, n=1, m=0, e=(1, 1)),
        SynthParams(p=3, n=2, m=1, e=(1, 2, 1)),
        SynthParams(p=2, n=3, m=2, e=(0, 1, 1, 1)),
        SynthParams(p=5, n=1, m=NEG_INF, e=(2, 0)),
        SynthParams(p=3, n=2, m=1, e=(1, 1, 1), shuffle_seed=99),
    ]
    for params in cases:
        assert validate(synthesize(params)) == []


def test_validate_flags_mutations():
    d = synthesize(SynthParams(p=3, n=1, m=0, e=(1, 1)))
    d.levels[0].eps[:, :] = 0
    d._cache.clear()
    assert validate(d) != []


def test_validate_flags_broken_equivariance():
    d = synthesize(SynthParams(p=3, n=2, m=None, e=(1, 0, 1), xi_in_F=False))
    d.levels[1].norm[:, :] = (d.levels[1].norm + 1) % 3
    d._cache.clear()
    assert any("level 1" in v for v in validate(d))


def test_exceptional_minus_inf_has_length_one():
    # with the convention p^(-inf) = 0, the X summand is a line
    d = synthesize(SynthParams(p=3, n=1, m=NEG_INF, e=(1, 1)))
    rep = exceptional_search(d)
    assert rep.m == NEG_INF
    assert length(d.J, rep.delta) == 1
    assert np.any(rep.norm_class)


def test_exceptional_length_is_p_power_plus_one():
    d = synthesize(SynthParams(p=3, n=2, m=1, e=(1, 1, 1)))
    rep = exceptional_search(d)
    assert rep.m == 1
    assert length(d.J, rep.delta) == 3**1 + 1
    assert cyclic_submodule(d.J, rep.delta).dim == 4


def test_exceptional_requires_xi():
    d = synthesize(SynthParams(p=3, n=1, m=None, e=(1, 1), xi_in_F=False))
    with pytest.raises(HypothesisError):
        exceptional_search(d)


def test_exceptional_p2n1_gate():
    d = synthesize(
        SynthParams(p=2, n=1, m=None, e=(1, 1), xi_in_F=True, minus_one_is_norm=False)
    )
    with pytest.raises(HypothesisError):
        exceptional_search(d)
    d.minus_one_is_norm = None
    with pytest.raises(HypothesisError):
        exceptional_search(d)


def test_theorem3_agreement_on_sweep():
    for seed in range(40):
        params = random_params(3, 2, seed)
        if params.m is None:
            continue
        d = synthesize(params)
        assert exceptional_search(d).m == i_via_theorem3(d) == params.m
        assert theorem3_level_raw(d) == params.m


def test_e_ranks_roundtrip():
    d = synthesize(SynthParams(p=3, n=1, m=NEG_INF, e=(1, 1)))
    assert e_ranks(d) == [1, 1]
    d = synthesize(SynthParams(p=3, n=2, m=0, e=(2, 1, 1)))
    assert e_ranks(d) == [2, 1, 1]


def test_e_ranks_trivial_extension_model():
    # n=1, sigma trivial, everything fixed and nothing a norm: e = (d, 0)
    d = synthesize(SynthParams(p=3, n=1, m=None, e=(4, 0), xi_in_F=False))
    assert e_ranks(d) == [4, 0]


def test_restrict_level_zero_is_identity():
    d = synthesize(SynthParams(p=3, n=2, m=1, e=(1, 1, 1)))
    assert restrict(d, 0) is d


def test_restrict_shifts_the_invariant():
    d = synthesize(SynthParams(p=3, n=2, m=1, e=(1, 1, 1)))
    sub = restrict(d, 1)
    assert validate(sub) == []
    assert exceptional_search(sub).m == 0
    d = synthesize(SynthParams(p=3, n=2, m=NEG_INF, e=(1, 1, 1)))
    assert theorem3_level_raw(restrict(d, 1)) == NEG_INF


def test_restrict_p2_quadratic_flag():
    d = synthesize(SynthParams(p=2, n=2, m=0, e=(1, 1, 1)))
    sub = restrict(d, 1)
    assert sub.minus_one_is_norm is True
    assert exceptional_search(sub).m == NEG_INF
    d = synthesize(SynthParams(p=2, n=2, m=1, e=(1, 1, 1)))
    sub = restrict(d, 1)
    assert sub.minus_one_is_norm is False
    assert theorem3_level_raw(sub) == 0


def test_restrict_rejects_bad_level():
    d = synthesize(SynthParams(p=3, n=2, m=1, e=(1, 1, 1)))
    with pytest.raises(ValueError):
        restrict(d, 2)


def test_solve_norm_equation_degenerate_and_free():
    d = synthesize(SynthParams(p=3, n=1, m=None, e=(1, 1), xi_in_F=False))
    assert solve_norm_equation(d, np.zeros(d.J.dim, dtype=np.int64)) is None
    # a generator of a full block is its own norm witness
    gen = None
    for row in fl.identity(d.J.dim):
        if length(d.J, row) == 3:
            gen = row
            break
    alpha = solve_norm_equation(d, gen)
    assert alpha is not None
    target = (d.op_pow(3 - 1) @ gen) % 3
    assert np.array_equal((d.op_pow(3 - 1) @ alpha) % 3, target)


def test_solve_norm_equation_unexceptional_length_two():
    # p=3, n=1: an unexceptional class of length 2 admits a norm witness
    d = synthesize(SynthParams(p=3, n=1, m=0, e=(1, 1)))
    rep = exceptional_search(d)
    norm0 = d.levels[0].norm
    found = False
    for row in fl.identity(d.J.dim):
        if length(d.J, row) != 2:
            continue
        if np.any((norm0 @ row) % 3):
            continue  # skip exceptional-type elements
        found = True
        assert solve_norm_equation(d, row) is not None
    assert found


def test_json_roundtrip():
    params = SynthParams(p=3, n=2, m=1, e=(1, 1, 1), shuffle_seed=5)
    d = synthesize(params)
    blob = json.dumps(datum_to_json(d))
    d2 = datum_from_json(json.loads(blob))
    assert validate(d2) == []
    assert np.array_equal(d2.J.sigma, d.J.sigma)
    assert d2.xi_in_F == d.xi_in_F
    for a, b in zip(d.levels, d2.levels):
        assert np.array_equal(a.eps, b.eps)
        assert np.array_equal(a.norm, b.norm)
        for j in a.inter_norm:
            assert np.array_equal(a.inter_norm[j], b.inter_norm[j])
    assert exceptional_search(d2).m == 1


def test_json_schema_field_order():
    d = synthesize(SynthParams(p=2, n=1, m=None, e=(1, 0), xi_in_F=False))
    obj = datum_to_json(d)
    assert list(obj) == ["p", "n", "xi_in_F", "minus_one_is_norm", "sigma", "levels"]
    assert list(obj["levels"][0]) == [
        "dim", "sigma_i", "eps", "norm", "inter_norm", "a_class",
    ]


def test_json_malformed():
    with pytest.raises(ValueError, match="malformed"):
        datum_from_json({"p": 3})


def test_restricted_fixed_spaces_match_fresh_modules_over_sweep_data():
    for idx, params in enumerate(enumerate_sweep(per_cell=1)):
        p, n = params.p, params.n
        if n < 2:
            continue
        d = synthesize(dataclasses.replace(params, shuffle_seed=idx))
        if idx % 2:
            validate(d)  # J's fixed spaces cached before restricting
        for j in range(1, n):
            sub = restrict(d, j)
            fresh = make_module(p, n - j, fl.mat_pow(d.J.sigma, p**j, p))
            assert np.array_equal(sub.J.sigma, fresh.sigma)
            for i in range(n - j + 1):
                assert sub.fixed(i) == fixed_points(fresh, i), (params, j, i)


def test_datum_caches_recompute_after_clear():
    d = synthesize(SynthParams(p=3, n=2, m=1, e=(1, 1, 1), shuffle_seed=3))
    report = exceptional_search(d)
    assert exceptional_search(d) is report
    with pytest.raises(ValueError):
        report.delta[0] = 1
    d._cache.clear()
    again = exceptional_search(d)
    assert again is not report
    assert again.m == report.m and np.array_equal(again.delta, report.delta)
    spaces = norm_filtration(d)
    spaces.pop()
    assert len(norm_filtration(d)) == d.n + 1
    # the hypotheses are checked on every call, not cached with the report
    d.xi_in_F = False
    with pytest.raises(HypothesisError):
        exceptional_search(d)
