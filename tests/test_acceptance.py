"""Acceptance suite: every criterion at its stated tolerance (exact).

Each test prints one pass line; run with `pytest -s tests/test_acceptance.py`
(or `galmod selftest` for the sweep portion) to see them.
"""

import json
import time

import pytest

from galmod.datum import (
    NEG_INF,
    datum_to_json,
    e_ranks,
    exceptional_search,
    i_via_theorem3,
    theorem3_level_raw,
    validate,
)
from galmod.decompose import all_clauses_pass, corollary3_check, decompose, verify
from galmod.invariants import lemma_property_suite, submodule_subfield_identity
from galmod.local_fields import (
    build_datum,
    make_tower,
    root_norm_crosscheck,
    sample_norm_identity_cases,
)
from galmod.sweep import enumerate_sweep, run_sweep
from galmod.synth import synthesize


@pytest.fixture(scope="module")
def sweep_result():
    return run_sweep()


@pytest.fixture(scope="module")
def unram_datum():
    return build_datum(make_tower(3, "unramified", 1, 40))


@pytest.fixture(scope="module")
def cyclo1_tower():
    return make_tower(3, "cyclotomic", 1, 60)


@pytest.fixture(scope="module")
def cyclo1_datum(cyclo1_tower):
    return build_datum(cyclo1_tower)


@pytest.fixture(scope="module")
def cyclo2_tower():
    return make_tower(3, "cyclotomic", 2, 100)


@pytest.fixture(scope="module")
def cyclo2_datum(cyclo2_tower):
    return build_datum(cyclo2_tower)


def test_criterion_1_roundtrip_sweep(sweep_result):
    res = sweep_result
    assert res.instances >= 500, f"only {res.instances} instances"
    bad = res.criterion_failures.get("roundtrip", []) + res.criterion_failures.get(
        "verify", []
    )
    assert not bad, bad[:5]
    assert res.seconds < 60, f"sweep took {res.seconds:.1f} s"
    print(
        f"PASS criterion 1: round-trip sweep, {res.instances} instances, "
        f"0 failures, {res.seconds:.1f} s"
    )


def test_criterion_2_krull_schmidt(sweep_result):
    bad = sweep_result.criterion_failures.get("krull-schmidt", [])
    assert not bad, bad[:5]
    print(
        f"PASS criterion 2: block multisets equal Jordan types on "
        f"{sweep_result.instances} instances"
    )


def test_criterion_3_theorem3_agreement(sweep_result, unram_datum, cyclo1_datum, cyclo2_datum):
    bad = sweep_result.criterion_failures.get("theorem3", [])
    assert not bad, bad[:5]
    count = 0
    for d in (cyclo1_datum, cyclo2_datum):
        assert exceptional_search(d).m == i_via_theorem3(d)
        count += 1
    print(
        f"PASS criterion 3: invariant agreement on the sweep and {count} local data"
    )


def test_criterion_4_rank_and_norm_image_identities(sweep_result):
    # the sweep's verify bucket carries the C.rank / C2.rank-shift /
    # C.normimage clauses for every instance
    bad = sweep_result.criterion_failures.get("verify", [])
    assert not bad, bad[:5]
    # spot confirmation that those clauses are present and checked
    from galmod.synth import SynthParams

    d = synthesize(SynthParams(p=3, n=2, m=0, e=(2, 1, 1)))
    report = verify(decompose(d), d)
    assert "C2.rank-shift" in report and report["C2.rank-shift"]
    assert all(report[f"C.normimage.{i}"] for i in range(3))
    print("PASS criterion 4: rank identities and norm-image clauses exact")


def test_criterion_5_corollary3(sweep_result, cyclo2_tower, cyclo2_datum, cyclo1_datum):
    t0 = time.time()
    bad = sweep_result.criterion_failures.get("corollary3", [])
    assert not bad, bad[:5]
    # the n = 2 tower datum is axiom-clean and its Kummer chain is
    # norm-coherent down the levels
    assert validate(cyclo2_datum) == []
    from galmod.local_fields import kummer_generators

    a1, a0 = kummer_generators(cyclo2_tower)
    lhs = cyclo2_tower.class_of(0, cyclo2_tower.norm(a1, 1, 0))
    rhs = cyclo2_tower.class_of(0, a0)
    assert list(lhs) == list(rhs)
    # part (2) on the 3-adic cyclotomic tower with n = 2: the sub-tower
    # K_1/F is the zeta_9-over-zeta_3 extension and its invariant is -inf
    report = corollary3_check(cyclo2_datum, subtowers={1: cyclo1_datum})
    assert all(v for k, v in report.items() if not k.startswith("_"))
    assert theorem3_level_raw(cyclo1_datum) == NEG_INF
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"PASS criterion 5: restriction table + i(K_1/F) = -inf ({elapsed:.1f} s)")


def test_criterion_6a_unramified_instance(unram_datum):
    cases = [
        (unram_datum, [1, 1], [3, 1]),
        (build_datum(make_tower(3, "unramified", 2, 28)), [1, 0, 1], [9, 1]),
    ]
    for d, ranks, blocks in cases:
        assert validate(d) == []
        # classical dimension formula: [K:Q_p] + 1 + (zeta_p present)
        assert d.J.dim == 3**d.n + 1 + 0
        assert d.J.dim == d.levels[d.n].space.dim
        assert e_ranks(d) == ranks
        dec = decompose(d)
        assert dec.m is None
        assert dec.block_multiset() == blocks
        assert all_clauses_pass(verify(dec, d))
    print("PASS criterion 6a: unramified towers of degree 3 and 9, dim J = 4 and 10, "
          "blocks {3,1} and {9,1}")


def test_criterion_6b_cyclotomic_instance(cyclo1_datum):
    d = cyclo1_datum
    assert validate(d) == []
    assert d.J.dim == 8 == 6 + 1 + 1
    rep = exceptional_search(d)
    assert rep.m == i_via_theorem3(d)
    dec = decompose(d)
    x_dim = 1 if dec.m == NEG_INF else 3 ** int(dec.m) + 1
    assert x_dim in dec.block_multiset()
    assert all_clauses_pass(verify(dec, d))
    print(
        f"PASS criterion 6b: zeta_9 tower, dim J = 8, m = {dec.m}, "
        f"dim X = {x_dim}"
    )


def test_criterion_6c_precision_stability(cyclo1_datum):
    pairs = [
        (("unramified", 1, 40), ("unramified", 1, 45)),
        (("unramified", 2, 28), ("unramified", 2, 33)),
        (("cyclotomic", 1, 60), ("cyclotomic", 1, 65)),
    ]
    for base_spec, high_spec in pairs:
        a = build_datum(make_tower(3, *base_spec))
        b = build_datum(make_tower(3, *high_spec))
        assert json.dumps(datum_to_json(a)) == json.dumps(datum_to_json(b))
    print("PASS criterion 6c: datum matrices stable under precision +5")


def test_criterion_7_lemma_property_suite(sweep_result):
    t0 = time.time()
    failures = []
    checked = 0
    for params in enumerate_sweep(per_cell=3):
        d = synthesize(params)
        report = lemma_property_suite(d, free_module_runs=0)
        checked += 1
        for key, ok in report.items():
            if key.startswith("_") or ok:
                continue
            failures.append(f"{params}: {key}")
    assert not failures, failures[:5]
    print(
        f"PASS criterion 7 (datum checks): lemma suite clean on {checked} "
        f"instances ({time.time() - t0:.1f} s)"
    )


def test_criterion_7_free_module_identity():
    t0 = time.time()
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            blocks_cap = 2 if p**n <= 27 else 1
            for seed in range(200):
                blocks = 1 + seed % blocks_cap
                assert submodule_subfield_identity(p, n, blocks, seed), (p, n, seed)
    print(
        f"PASS criterion 7 (free modules): 200 random free modules per (p, n) "
        f"({time.time() - t0:.1f} s)"
    )


def test_criterion_8_norm_identity_crosscheck(cyclo1_tower, cyclo2_tower):
    t0 = time.time()
    total = 0
    for tower in (cyclo1_tower, cyclo2_tower):
        per_level = 20 // tower.n + (20 % tower.n > 0)
        count = 0
        for i in range(tower.n):
            cases = sample_norm_identity_cases(tower, i, per_level, seed=31 + i)
            for alpha, gamma, k in cases:
                assert root_norm_crosscheck(tower, alpha, gamma, k, i)
                count += 1
        assert count >= 20
        total += count
    print(
        f"PASS criterion 8: norm identity on {total} sampled cases "
        f"({time.time() - t0:.1f} s)"
    )
