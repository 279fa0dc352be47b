"""The acceptance sweep: round-trip every theorem cell, verify every clause.

Enumerates all (p, n, m) cells for p in {2,3,5}, n in {1,2,3}, every legal
m including -inf and the no-X case, with rank vectors sampled from the
box e_i <= 2 under a dimension cap, each instance run unshuffled and
with a seeded basis shuffle.  Per instance: the decomposition must
reproduce the generator's parameters exactly, every verification clause
must pass, the block multiset must equal the independently computed
Jordan type, the two computations of the invariant must agree, and the
restriction table must match.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from itertools import product

from .datum import (
    NEG_INF,
    exceptional_search,
    i_via_theorem3,
    level_str,
)
from .decompose import all_clauses_pass, corollary3_check, decompose, verify
from .gmod import jordan_type
from .synth import SynthParams, synthesize

PRIMES = (2, 3, 5)
HEIGHTS = (1, 2, 3)


@dataclass
class SweepResult:
    instances: int = 0
    failures: int = 0
    seconds: float = 0.0
    lines: list = field(default_factory=list)
    criterion_failures: dict = field(default_factory=dict)

    def fail(self, criterion: str, message: str):
        self.failures += 1
        self.criterion_failures.setdefault(criterion, []).append(message)


def _m_cells(p: int, n: int):
    """All legal (m, xi_in_F, minus_one_is_norm) triples for the cell."""
    cells = []
    if p == 2 and n == 1:
        cells.append((None, False, None))      # no-X case, abstract xi not in F
        cells.append((None, True, False))      # no-X case via -1 not a norm
        cells.append((NEG_INF, True, True))    # X case forces m = -inf
        return cells
    cells.append((None, False, None))
    cells.append((NEG_INF, True, None))
    for m in range(n):
        cells.append((m, True, None))
    return cells


def enumerate_sweep(dim_cap: int = 120, per_cell: int = 9, seed: int = 20240801):
    """Deterministic list of SynthParams covering every (p, n, m) cell."""
    rng = random.Random(seed)
    out: list[SynthParams] = []
    for p in PRIMES:
        for n in HEIGHTS:
            for m, xi, m1 in _m_cells(p, n):
                legal = []
                for e in product(range(3), repeat=n + 1):
                    params = SynthParams(
                        p=p, n=n, m=m, e=e, xi_in_F=xi, minus_one_is_norm=m1
                    )
                    try:
                        params.check()
                    except ValueError:
                        continue
                    if not 1 <= params.dim_j() <= dim_cap:
                        continue
                    legal.append(params)
                if len(legal) > per_cell:
                    legal = rng.sample(legal, per_cell)
                    legal.sort(key=lambda q: q.e)
                out.extend(legal)
    return out


def run_instance(params: SynthParams, result: SweepResult):
    key = (
        f"p={params.p} n={params.n} m={level_str(params.m)} e={list(params.e)}"
        f" shuffle={params.shuffle_seed}"
    )
    d = synthesize(params)
    try:
        dec = decompose(d)
    except Exception as exc:  # noqa: BLE001 - sweeps report, never crash
        result.fail("roundtrip", f"{key}: decompose raised {exc}")
        return
    if dec.m != params.m or dec.y_ranks() != params.y_ranks():
        result.fail(
            "roundtrip",
            f"{key}: got (m={level_str(dec.m)}, ranks={dec.y_ranks()})",
        )
    report = verify(dec, d)
    if not all_clauses_pass(report):
        bad = [k for k, v in report.items() if not k.startswith("_") and not v]
        result.fail("verify", f"{key}: clauses failed: {bad}")
    if dec.block_multiset() != jordan_type(d.J):
        result.fail("krull-schmidt", f"{key}: block multiset != jordan type")
    if params.m is not None:
        m1 = exceptional_search(d).m
        m2 = i_via_theorem3(d)
        if m1 != m2 or m1 != params.m:
            result.fail("theorem3", f"{key}: search={m1} th3={m2}")
        c3 = corollary3_check(d)
        bad = [k for k, v in c3.items() if not k.startswith("_") and not v]
        if bad:
            result.fail("corollary3", f"{key}: {bad}")


def run_sweep(dim_cap: int = 120, quick: bool = False) -> SweepResult:
    base = enumerate_sweep(dim_cap=dim_cap, per_cell=3 if quick else 9)
    instances: list[SynthParams] = []
    for idx, params in enumerate(base):
        instances.append(params)
        instances.append(replace(params, shuffle_seed=7919 * (idx + 1)))
    result = SweepResult()
    result.instances = len(instances)
    t0 = time.time()
    for params in instances:
        run_instance(params, result)
    result.seconds = time.time() - t0

    by_cell: dict[tuple, int] = {}
    for params in instances:
        cell = (params.p, params.n, level_str(params.m))
        by_cell[cell] = by_cell.get(cell, 0) + 1
    for (p, n, m), count in sorted(by_cell.items(), key=str):
        result.lines.append(f"cell p={p} n={n} m={m}: {count} instances")
    for crit, msgs in sorted(result.criterion_failures.items()):
        for msg in msgs[:10]:
            result.lines.append(f"FAIL [{crit}] {msg}")
        if len(msgs) > 10:
            result.lines.append(f"... and {len(msgs) - 10} more [{crit}] failures")
    return result
