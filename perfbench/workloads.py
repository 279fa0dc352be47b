"""The three benchmark workloads: their inputs, and the check on each item.

An item is one unit of user-visible work.  ``make_items`` builds a
workload's item list from the seed alone; ``run_item`` runs one item
through galmod and returns True only when every output check passes.
galmod must be importable when this module is imported (``run.py`` puts
the checkout's ``src`` first on ``sys.path``).

Why each workload:

- ``sweep``: the round trips of ``galmod selftest --quick``.  Tens of
  thousands of eliminations at most 32 wide, so numpy per-call overhead,
  the subspace engine, the doubled ``validate`` and decompose/verify
  dominate.
- ``wide_modules``: the free-module identity and shuffled round trips at
  dim J from 94 to 243.  Wide ``rref`` and ``mat_pow`` dominate: the
  opposite side of any kernel chosen by matrix size.
- ``padic_towers``: genuine p-adic data from ``make_tower`` and
  ``build_datum``.  ``local_fields`` arithmetic does nearly all the work
  and ``fp_linalg`` almost none.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys

from galmod.datum import datum_to_json, exceptional_search, i_via_theorem3, validate
from galmod.decompose import all_clauses_pass, decompose, decomposition_to_json, verify
from galmod.gmod import jordan_type
from galmod.invariants import submodule_subfield_identity
from galmod.local_fields import make_tower, build_datum
from galmod.sweep import SweepResult, enumerate_sweep, run_instance
from galmod.synth import SynthParams, synthesize

DEFAULT_SEED = 20240801

# (p, n, blocks): free modules of dimension blocks * p^n.
FREE_MODULES = ((5, 3, 1), (2, 7, 1), (3, 4, 2), (3, 5, 1))
# Shuffled round trips: dim J = 94, 121 and 94.
WIDE_ROUNDTRIPS = (
    SynthParams(p=2, n=4, m=2, e=(3, 3, 3, 3, 3), shuffle_seed=1),
    SynthParams(p=3, n=3, m=1, e=(3, 3, 3, 3), shuffle_seed=1),
    SynthParams(p=5, n=2, m=1, e=(3, 3, 3), shuffle_seed=1),
)
# (p, kind, n, precision); precision None means the CLI default.
TOWERS = (
    (3, "cyclotomic", 1, 60),
    (3, "cyclotomic", 2, 100),
    (5, "cyclotomic", 1, None),
    (2, "cyclotomic", 2, None),
    (2, "cyclotomic", 3, None),
    (3, "unramified", 1, 40),
    (5, "unramified", 1, None),
)
# Towers that crash today (unramified, n >= 2).  They are run once per
# traced run and counted in local_fields.build_datum.errors, never timed.
CHECKED_ONLY_TOWERS = ((3, "unramified", 2, None), (5, "unramified", 2, None))

# Spans each item must record in the traced run (found by tracing every
# item alone).  A traced function with no calls where one is expected
# means a binding site was missed, or the code path changed.
_EVERY_ITEM = (
    "fp_linalg.rref", "fp_linalg.mat_pow", "fp_linalg.span", "fp_linalg.kernel_matrix",
    "gmod.make_module", "gmod.fixed_points",
)
_EVERY_DATUM = (
    "fp_linalg.Echelon.add", "fp_linalg.Subspace.contains_space", "fp_linalg.sub_intersect",
    "gmod.is_invariant", "gmod.jordan_type", "datum.validate", "decompose.decompose",
    "decompose.verify",
)
_M_TWO_WAYS = ("datum.exceptional_search", "datum.i_via_theorem3")
_LOCAL = (
    "local_fields.make_tower", "local_fields.build_datum", "local_fields._poly_mulmod",
    "local_fields.LocalTower.mul", "local_fields.LocalTower.inv",
    "local_fields.LocalTower.galois", "local_fields.LocalTower.norm",
    "local_fields.LocalTower.class_of",
)


def expected_calls(item) -> tuple:
    kind, spec = item
    if kind == "free":
        return (*_EVERY_ITEM, "invariants.submodule_subfield_identity")
    names = (*_EVERY_ITEM, *_EVERY_DATUM)
    if kind == "tower":
        return (*names, *_LOCAL, *(_M_TWO_WAYS if spec[1] == "cyclotomic" else ()))
    names += ("synth.synthesize",)
    if kind == "roundtrip":
        return (*names, "datum.exceptional_search")
    names += ("sweep.run_instance",)
    return names if spec.m is None else (*names, *_M_TWO_WAYS, "decompose.corollary3_check")


def cli_precision(p: int, kind: str, n: int) -> int:
    """The precision ``galmod local`` uses when none is given."""
    if kind == "cyclotomic":
        e = 2 ** (n + 1) if p == 2 else p**n * (p - 1)
    else:
        e = 1
    return e * 3 + e + 24


def tower_key(p: int, kind: str, n: int) -> str:
    return f"{kind[:3]}{p}n{n}"


def item_key(item) -> str:
    kind, spec = item
    if kind == "free":
        p, n, blocks, seed = spec
        return f"free-p{p}n{n}x{blocks}-s{seed}"
    if kind == "tower":
        return tower_key(*spec[:3])
    q = spec
    return f"rt-p{q.p}n{q.n}-e{''.join(map(str, q.e))}-s{q.shuffle_seed}"


def make_items(workload: str, seed: int) -> list:
    """The item list of one pass, as (kind, spec) pairs, from the seed alone.

    ``sweep`` keeps the rank vectors of ``selftest --quick`` and draws the
    basis shuffles from the seed; at the default seed the list equals the
    one ``run_sweep(quick=True)`` builds.  The other workloads run a fixed
    set of items in an order drawn from the seed.  Either way every seed
    gives the same amount of work, so runs on different seeds compare.
    """
    if workload == "sweep":
        items = []
        for idx, q in enumerate(enumerate_sweep(per_cell=3)):
            shuffled = SynthParams(
                p=q.p, n=q.n, m=q.m, e=q.e, xi_in_F=q.xi_in_F,
                minus_one_is_norm=q.minus_one_is_norm,
                shuffle_seed=7919 * (idx + 1) + seed - DEFAULT_SEED,
            )
            items += [("sweep", q), ("sweep", shuffled)]
        return items
    if workload == "wide_modules":
        items = [("free", (p, n, b, 0)) for p, n, b in FREE_MODULES]
        items += [("roundtrip", q) for q in WIDE_ROUNDTRIPS]
    elif workload == "padic_towers":
        items = [("tower", t) for t in TOWERS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(items)
    return items


def cli_json(obj) -> str:
    """A JSON document exactly as the galmod CLI writes it to a file."""
    return json.dumps(obj, indent=1, sort_keys=False) + "\n"


def output_digest(d, dec) -> str:
    text = cli_json(datum_to_json(d)) + cli_json(decomposition_to_json(dec))
    return hashlib.sha256(text.encode()).hexdigest()


def _fail(item, why: str) -> bool:
    print(f"FAIL {item_key(item)}: {why}", file=sys.stderr)
    return False


def run_item(item, digests: dict | None) -> bool:
    """Run one item and check its outputs.

    With ``digests`` None the output digest is not compared (the
    checked-only towers have none).  Raising counts as a failed item.
    """
    kind, spec = item
    try:
        if kind == "sweep":
            result = SweepResult()
            run_instance(spec, result)
            if result.failures:
                return _fail(item, str(result.criterion_failures))
            return True
        if kind == "free":
            return submodule_subfield_identity(*spec) or _fail(item, "identity is False")
        return _check_datum(item, digests)
    except Exception as exc:  # noqa: BLE001 - a raising item is a failed item
        return _fail(item, f"{type(exc).__name__}: {exc}")


def datum_outputs(item):
    """The datum and decomposition of a round-trip or tower item."""
    kind, spec = item
    if kind == "roundtrip":
        d = synthesize(spec)
    else:
        p, tower_kind, n, precision = spec
        tower = make_tower(p, tower_kind, n, precision or cli_precision(p, tower_kind, n))
        d = build_datum(tower)
    return d, decompose(d)


def _check_datum(item, digests: dict | None) -> bool:
    d, dec = datum_outputs(item)
    spec = item[1]
    if item[0] == "roundtrip":
        if dec.m != spec.m or dec.y_ranks() != spec.y_ranks():
            return _fail(item, f"got m={dec.m} ranks={dec.y_ranks()}")
        if dec.block_multiset() != jordan_type(d.J):
            return _fail(item, "block multiset != jordan type")
    else:
        violations = validate(d)
        if violations:
            return _fail(item, f"validate: {violations}")
        if d.xi_in_F and exceptional_search(d).m != i_via_theorem3(d):
            return _fail(item, "exceptional_search and i_via_theorem3 disagree")
    report = verify(dec, d)
    if not all_clauses_pass(report):
        bad = [k for k, v in report.items() if not k.startswith("_") and not v]
        return _fail(item, f"clauses failed: {bad}")
    if digests is not None:
        got = output_digest(d, dec)
        if got != digests.get(item_key(item)):
            return _fail(item, f"output digest {got} differs from the stored one")
    return True


def checked_only_errors() -> int:
    """Run the towers that are checked but never timed; count those that fail."""
    return sum(not run_item(("tower", t), None) for t in CHECKED_ONLY_TOWERS)
