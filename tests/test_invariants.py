"""The lemma property suite, including its mutation sensitivity."""

from galmod.datum import NEG_INF, exactness_violations, fixed_submodule_violations
from galmod.invariants import lemma_property_suite, submodule_subfield_identity
from galmod.synth import SynthParams, synthesize


def failing(report):
    return [k for k, v in report.items() if not k.startswith("_") and not v]


def test_suite_clean_on_theorem1_datum():
    d = synthesize(SynthParams(p=3, n=2, m=None, e=(1, 1, 1), xi_in_F=False))
    assert failing(lemma_property_suite(d, free_module_runs=5)) == []


def test_suite_clean_on_theorem2_datum():
    d = synthesize(SynthParams(p=3, n=2, m=1, e=(1, 1, 1), shuffle_seed=2))
    report = lemma_property_suite(d, free_module_runs=5)
    assert failing(report) == []
    assert report["theorem3-agreement"]
    assert report["minimal-length"]
    assert report["exceptional-generator-independence"]


def test_suite_clean_on_minus_inf_datum():
    d = synthesize(SynthParams(p=2, n=2, m=NEG_INF, e=(1, 1, 1)))
    report = lemma_property_suite(d, free_module_runs=5)
    assert failing(report) == []


def test_suite_detects_broken_norm():
    d = synthesize(SynthParams(p=3, n=1, m=0, e=(1, 1)))
    # erase the a-line functional: the norms stop being coherent
    d.levels[0].norm[-1, :] = 0
    d._cache.clear()
    report = lemma_property_suite(d, free_module_runs=0)
    assert failing(report) != []
    # erase the whole base norm of an m = -inf datum: the fixed class
    # outside im eps_0 loses its nontrivial norm, so exactness at J^G and
    # the fixed-submodule shape both fail
    d = synthesize(SynthParams(p=3, n=1, m=NEG_INF, e=(1, 1)))
    d.levels[0].norm[:] = 0
    d._cache.clear()
    assert exactness_violations(d, 0) != []
    assert fixed_submodule_violations(d) != []
    failed = failing(lemma_property_suite(d, free_module_runs=0))
    assert "exact-sequence.L0" in failed and "fixed-submodule" in failed


def test_free_module_identity_small():
    assert submodule_subfield_identity(2, 2, 2, 0)
    assert submodule_subfield_identity(3, 1, 1, 1)
    assert submodule_subfield_identity(5, 1, 2, 2)


def test_pth_power_class_basis_surface():
    from galmod.local_fields import make_tower

    tower = make_tower(3, "unramified", 1, 40)
    assert len(tower.class_basis(0)) == 2
    coords = tower.class_of(0, tower.from_int(3 * 4))
    assert coords[0] == 1  # the uniformizer slot picks up the valuation


def test_lemma_checks_and_validate_read_the_same_helpers():
    from galmod.datum import validate

    clean = synthesize(SynthParams(p=3, n=2, m=1, e=(1, 1, 1), shuffle_seed=2))
    # with the base norm erased, the fixed exceptional class lies in its
    # kernel but not in the subfield image
    broken = synthesize(SynthParams(p=3, n=2, m=NEG_INF, e=(1, 1, 1)))
    broken.levels[0].norm[:] = 0
    for d in (clean, broken):
        d._cache.clear()
        report = lemma_property_suite(d, free_module_runs=0)
        found = [exactness_violations(d, i) for i in range(d.n)]
        found.append(fixed_submodule_violations(d))
        for i in range(d.n):
            assert report[f"exact-sequence.L{i}"] == (not found[i])
        assert report["fixed-submodule"] == (not found[-1])
        # validate reports the same messages, in the same order
        messages = [msg for part in found for msg in part]
        violations = validate(d)
        assert [msg for msg in violations if msg in messages] == messages
    assert found == [
        ["level 0: exactness fails at the H_0-fixed subspace"],
        [],
        ["J^G exceeds im eps_0 but no fixed class has a nontrivial norm"],
    ]
