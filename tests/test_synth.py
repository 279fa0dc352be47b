"""Parameter legality, generator determinism, sidecar bookkeeping."""

import hashlib
import json

import pytest

from galmod.datum import NEG_INF, datum_to_json, validate
from galmod.decompose import decompose, decomposition_to_json
from galmod.synth import (
    SynthParams,
    params_from_json,
    params_to_json,
    random_params,
    sidecar,
    synthesize,
)


def test_params_require_rank_at_m():
    with pytest.raises(ValueError, match="e_1"):
        SynthParams(p=3, n=2, m=1, e=(1, 0, 1)).check()


def test_params_m_range():
    with pytest.raises(ValueError, match="out of range"):
        SynthParams(p=3, n=2, m=2, e=(1, 1, 1)).check()


def test_params_no_x_needs_theorem1_flags():
    with pytest.raises(ValueError):
        SynthParams(p=3, n=1, m=None, e=(1, 1), xi_in_F=True).check()
    # p=2, n=1 with -1 not a norm is the legitimate second route
    SynthParams(
        p=2, n=1, m=None, e=(1, 1), xi_in_F=True, minus_one_is_norm=False
    ).check()


def test_params_x_needs_xi():
    with pytest.raises(ValueError, match="xi_in_F"):
        SynthParams(p=3, n=1, m=0, e=(1, 1), xi_in_F=False).check()


def test_params_p2n1_forces_minus_inf():
    with pytest.raises(ValueError, match="-inf"):
        SynthParams(p=2, n=1, m=0, e=(1, 1), minus_one_is_norm=True).check()
    SynthParams(p=2, n=1, m=NEG_INF, e=(1, 1), minus_one_is_norm=True).check()


def test_params_empty_module_rejected():
    with pytest.raises(ValueError, match="empty"):
        SynthParams(p=3, n=1, m=None, e=(0, 0), xi_in_F=False).check()


def test_dim_accounting():
    params = SynthParams(p=3, n=1, m=0, e=(1, 1))
    # X has dimension p^m + 1 = 2; the rank shift leaves no Y_0 blocks
    assert params.y_ranks() == [0, 1]
    assert params.dim_j() == 2 + 3
    params = SynthParams(p=3, n=2, m=NEG_INF, e=(1, 1, 1))
    assert params.dim_j() == 1 + 1 + 3 + 9


def test_single_free_block_datum():
    d = synthesize(SynthParams(p=2, n=1, m=None, e=(0, 1), xi_in_F=False))
    assert d.J.dim == 2
    assert validate(d) == []


def test_determinism_same_bytes():
    params = SynthParams(p=3, n=2, m=0, e=(1, 1, 1), shuffle_seed=42)
    a = json.dumps(datum_to_json(synthesize(params)), sort_keys=False)
    b = json.dumps(datum_to_json(synthesize(params)), sort_keys=False)
    assert a == b


def test_shuffle_changes_coordinates_not_answer():
    base = SynthParams(p=3, n=2, m=0, e=(1, 1, 1))
    shuffled = SynthParams(p=3, n=2, m=0, e=(1, 1, 1), shuffle_seed=4)
    da, db = synthesize(base), synthesize(shuffled)
    assert json.dumps(datum_to_json(da)) != json.dumps(datum_to_json(db))
    assert validate(db) == []


def test_random_params_deterministic_and_legal():
    p1 = random_params(2, 3, 17)
    p2 = random_params(2, 3, 17)
    assert p1 == p2
    seen_m = set()
    for seed in range(300):
        params = random_params(2, 3, seed)
        params.check()
        assert 1 <= params.dim_j() <= 120
        if params.m is not None and params.m != NEG_INF:
            assert params.e[int(params.m)] >= 1
        seen_m.add(str(params.m))
    assert len(seen_m) >= 4  # hits -inf, n/a and several finite levels


def test_random_params_validate_clean_bulk():
    # every sampled parameter set yields an axiom-clean datum
    for seed in range(1000):
        params = random_params(2, 3, seed)
        assert validate(synthesize(params)) == [], params


def test_sidecar_contents():
    params = SynthParams(p=3, n=1, m=0, e=(1, 1), shuffle_seed=7)
    side = sidecar(params)
    assert side["expected"]["m"] == "0"
    assert side["expected"]["y_ranks"] == [0, 1]
    assert side["expected"]["dim_J"] == 5
    assert side["expected"]["block_multiset"] == [3, 2]
    back = params_from_json(side["params"])
    assert back == params


def test_params_json_roundtrip_minus_inf():
    params = SynthParams(p=2, n=2, m=NEG_INF, e=(1, 0, 1))
    back = params_from_json(params_to_json(params))
    assert back.m == NEG_INF and back == params


@pytest.mark.parametrize("key, value", [("xi_in_F", "false"), ("p", 3.7)])
def test_params_json_refuses_wrong_types(key, value):
    obj = params_to_json(SynthParams(p=3, n=1, m=0, e=(1, 1)))
    obj[key] = value
    with pytest.raises(ValueError, match=key):
        params_from_json(obj)


# sha256 of the datum, decomposition and sidecar JSON as the CLI writes them
SYNTH_DIGESTS = {
    SynthParams(p=3, n=2, m=None, e=(1, 0, 1), xi_in_F=False): (
        "caeb92acd3b8343aa96f99907a17b05aabf1afd41b111e2b8bc2a9630b23eba9",
        "73d6db70bc0ad3f551fa78b0efefd09072fe684ac9cfacdba72afabcf485396c",
        "c2b94ced8301ef4c52cb8b2fb5875dd7d514f4b738f307879621fb13dfe342ed",
    ),
    SynthParams(p=2, n=1, m=None, e=(1, 1), minus_one_is_norm=False): (
        "d3aaf8380c6d3c025c091db58b91c3463f7e6e5b82ca62447415611b3b261db7",
        "8d405235808bb36e060e6f6f5240a4213d72b744b1dc615117289c496bdcb743",
        "d0279a4f3b9f2eb495aca38a275a4c7e564c443001ab730bfbdac209a679bbd9",
    ),
    SynthParams(p=3, n=2, m=NEG_INF, e=(1, 1, 0)): (
        "3e90d837ff38dc4a1689c9917ca3f55c24e329801a4192c350dfda8ad6ef64c2",
        "b0e26701353c32b9a68a0a43b21aac7907f8045bc171944a86e09cd34c79af3a",
        "0ae6b8ce8fa3e74faecb0430ced02898f37643c8e527804daa8f207f89e8fdc1",
    ),
    SynthParams(p=3, n=2, m=1, e=(1, 1, 1)): (
        "9448e89328606f64d828785fbd165f0fdd316474af27a7f655b1d7f66c593560",
        "209f93a12e422af85f302eac383fd1f174c2ffb7368322b953379cb4cb9c170e",
        "de54e8e199e6e1cfb64b8ec2f7159a9b9fe024c22bafcfb24a59267860755ce9",
    ),
    SynthParams(p=2, n=2, m=0, e=(1, 1, 1), shuffle_seed=5): (
        "121d024f66a5f38ba9dc080bbc95363a09a13e67e348418b0313e2534871db1e",
        "a71dd11f3e3ff9df45ad6759b7fc26798f867b4e7ef50b5fc4bd15efeaa83e61",
        "95ca3c1e87a35c8ce7fa177eb45344c3560091dbbdbb400a940d512a21aaa263",
    ),
}


@pytest.mark.parametrize(
    "params", list(SYNTH_DIGESTS), ids=["no-xi", "p2n1-no-norm", "m-inf", "m1", "shuffled"]
)
def test_synth_json_is_pinned(params):
    d = synthesize(params)
    docs = (datum_to_json(d), decomposition_to_json(decompose(d)), sidecar(params))
    got = tuple(
        hashlib.sha256((json.dumps(doc, indent=1) + "\n").encode()).hexdigest() for doc in docs
    )
    assert got == SYNTH_DIGESTS[params]
