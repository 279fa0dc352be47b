"""Inverse-direction generator: a datum with a known decomposition.

synthesize() reads the theorem statements backwards.  J is assembled
block-diagonally (one Jordan block per cyclic summand), the subfield
images are the theorem's clause-(3) subspaces, the norm maps are lifts
of (sigma-1)^(p^n - p^i) through eps extended into the a_i line by the
dual coordinate of the X generator, and an optional seeded basis change
hides the canonical coordinates.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from . import fp_linalg as fl
from . import gmod
from .datum import NEG_INF, GaloisDatum, LevelData, level_from_str, level_str
from .fp_linalg import Array, Subspace


@dataclass(frozen=True)
class SynthParams:
    p: int
    n: int
    m: int | float | None          # level, NEG_INF, or None for the no-X case
    e: tuple[int, ...]             # (e_0, ..., e_n)
    xi_in_F: bool = True
    minus_one_is_norm: bool | None = None
    shuffle_seed: int | None = None

    def check(self):
        fl.check_prime(self.p)
        if self.n < 1:
            raise ValueError("tower height must be >= 1")
        if len(self.e) != self.n + 1:
            raise ValueError(f"rank vector must have {self.n + 1} entries")
        if any(x < 0 for x in self.e):
            raise ValueError("ranks must be nonnegative")
        theorem1 = self.m is None
        if theorem1:
            if self.xi_in_F and not (self.p == 2 and self.n == 1 and self.minus_one_is_norm is False):
                raise ValueError(
                    "no-X case needs xi_in_F false, or p=2, n=1 with -1 not a norm"
                )
            if sum(self.e) == 0:
                raise ValueError("empty module: all ranks zero and no X block")
        else:
            if not self.xi_in_F:
                raise ValueError("an X summand requires xi_in_F")
            if self.m != NEG_INF:
                mm = int(self.m)
                if not 0 <= mm < self.n:
                    raise ValueError(f"m = {mm} out of range")
                if self.e[mm] < 1:
                    raise ValueError(f"e_{mm} must be >= 1 (rank shift at level m)")
            if self.p == 2 and self.n == 1:
                if self.minus_one_is_norm is not True:
                    raise ValueError("p=2, n=1 with X requires minus_one_is_norm")
                if self.m != NEG_INF:
                    raise ValueError("p=2, n=1 forces m = -inf")

    def y_ranks(self) -> list[int]:
        ranks = list(self.e)
        if self.m is not None and self.m != NEG_INF:
            ranks[int(self.m)] -= 1
        return ranks

    def dim_j(self) -> int:
        d = sum(r * self.p**i for i, r in enumerate(self.y_ranks()))
        if self.m is not None:
            d += 1 if self.m == NEG_INF else self.p ** int(self.m) + 1
        return d


def synthesize(params: SynthParams) -> GaloisDatum:
    """A canonical datum whose decomposition is known by construction."""
    params.check()
    p, n = params.p, params.n
    ranks = params.y_ranks()

    # block layout: X first (when present), then levels n down to 0
    sizes: list[int] = []
    if params.m is not None:
        x_dim = 1 if params.m == NEG_INF else p ** int(params.m) + 1
        sizes.append(x_dim)
    level_of_block: list[int | None] = [None] * len(sizes)
    for i in range(n, -1, -1):
        for _ in range(ranks[i]):
            sizes.append(p**i)
            level_of_block.append(i)
    dim = sum(sizes)
    if dim == 0:
        raise ValueError("empty module")
    sigma = gmod.jordan_sigma(p, sizes)
    jmod = gmod.make_module(p, n, sigma)

    offsets = np.cumsum([0, *sizes[:-1]])
    has_x = params.m is not None
    x_off = 0 if has_x else None
    x_dim = sizes[0] if has_x else 0

    def block_fixed_rows(i: int) -> list[Array]:
        """Basis rows of Y^{H_i}: the last min(p^i, size) coordinates of
        each Y block."""
        rows = []
        for b, size in enumerate(sizes):
            if level_of_block[b] is None:
                continue
            keep = min(p**i, size)
            for k in range(size - keep, size):
                row = np.zeros(dim, dtype=np.int64)
                row[offsets[b] + k] = 1
                rows.append(row)
        return rows

    def x_rows(from_idx: int) -> list[Array]:
        rows = []
        for k in range(from_idx, x_dim):
            row = np.zeros(dim, dtype=np.int64)
            row[x_off + k] = 1
            rows.append(row)
        return rows

    def eps_image_rows(i: int) -> list[Array]:
        if i == n:
            return [row for row in fl.identity(dim)]
        rows = block_fixed_rows(i)
        if has_x:
            if params.m == NEG_INF:
                pass  # X^(sigma-1) = 0
            elif int(params.m) <= i:
                rows.extend(x_rows(1))
            else:
                rows.extend(x_rows(p ** int(params.m) + 1 - p**i))
        return rows

    # the X-generator dual coordinate drives every norm's a_i component
    phi = np.zeros(dim, dtype=np.int64)
    if has_x:
        phi[x_off] = 1

    sigma_big = sigma

    def coords(im_eps: Subspace, w: Array) -> Array:
        """Coordinates of each row of w in the canonical RREF basis of
        im_eps: the entries at its pivots."""
        if not im_eps.contains(w):
            raise AssertionError("vector outside the eps image")
        return w[:, im_eps.pivots]

    levels = []
    for i in range(n + 1):
        rows = eps_image_rows(i)
        im_eps = fl.span(p, dim, np.array(rows).reshape(-1, dim))
        basis = im_eps.basis  # canonical RREF rows u_1..u_d
        d_im = im_eps.dim
        with_a = params.xi_in_F and i < n
        di = d_im + (1 if with_a else 0)

        eps = fl.zeros(dim, di)
        if d_im:
            eps[:, :d_im] = basis.T

        sigma_i = fl.zeros(di, di)
        sigma_i[:d_im, :d_im] = coords(im_eps, fl.matmul(basis, sigma_big.T, p)).T
        if with_a:
            sigma_i[d_im, d_im] = 1  # a_i is a fixed class
        space = gmod.make_module(p, i, sigma_i)

        drop = gmod.op_pow(jmod, p**n - p**i)
        norm = fl.zeros(di, dim)
        norm[:d_im, :] = coords(im_eps, drop.T).T
        if with_a:
            norm[d_im, :] = phi

        a_class = None
        if with_a:
            a_class = np.zeros(di, dtype=np.int64)
            a_class[d_im] = 1

        levels.append(
            {
                "space": space,
                "eps": eps,
                "norm": norm,
                "basis": basis,
                "d_im": d_im,
                "with_a": with_a,
                "a_class": a_class,
                "im_eps": im_eps,
            }
        )

    # inter-norms: on the eps part, coordinates of (sigma-1)^(p^i - p^j)
    # applied to the level-i basis; the a_i line maps to a_j
    level_data = []
    for i in range(n + 1):
        li = levels[i]
        inter = {}
        for j in range(i):
            lj = levels[j]
            if i == n:
                # norm at level n is the identity, so coherence forces the
                # inter-norm to agree with the level-j norm outright
                inter[j] = lj["norm"].copy()
                continue
            drop = gmod.op_pow(jmod, p**i - p**j)
            di = li["space"].dim
            dj = lj["space"].dim
            mtx = fl.zeros(dj, di)
            images = fl.matmul(li["basis"], drop.T, p)
            mtx[: lj["d_im"], : li["d_im"]] = coords(lj["im_eps"], images).T
            if li["with_a"] and lj["with_a"]:
                mtx[lj["d_im"], li["d_im"]] = 1
            inter[j] = mtx
        level_data.append(
            LevelData(
                space=li["space"],
                eps=li["eps"],
                norm=li["norm"],
                inter_norm=inter,
                a_class=li["a_class"],
            )
        )

    d = GaloisDatum(
        p=p,
        n=n,
        J=jmod,
        levels=level_data,
        xi_in_F=params.xi_in_F,
        minus_one_is_norm=params.minus_one_is_norm,
    )
    if params.shuffle_seed is not None:
        d = _shuffle(d, params.shuffle_seed)
    return d


def _shuffle(d: GaloisDatum, seed: int) -> GaloisDatum:
    """Conjugate the ambient J by a seeded invertible basis change."""
    rng = random.Random(seed)
    p, dim = d.p, d.J.dim
    pmat = fl.random_invertible(p, dim, rng)
    pinv = fl.inverse(pmat, p)
    sigma2 = fl.matmul(fl.matmul(pmat, d.J.sigma, p), pinv, p)
    jmod = gmod.make_module(p, d.n, sigma2)
    new_levels = []
    for i, lv in enumerate(d.levels):
        if i == d.n:
            # level n IS J: its own coordinates change along with J's
            inter = {j: fl.matmul(mtx, pinv, p) for j, mtx in lv.inter_norm.items()}
            new_levels.append(
                LevelData(
                    space=jmod,
                    eps=fl.identity(dim),
                    norm=fl.identity(dim),
                    inter_norm=inter,
                    a_class=None,
                )
            )
        else:
            new_levels.append(
                LevelData(
                    space=lv.space,
                    eps=fl.matmul(pmat, lv.eps, p),
                    norm=fl.matmul(lv.norm, pinv, p),
                    inter_norm=lv.inter_norm,
                    a_class=lv.a_class,
                )
            )
    return GaloisDatum(
        p=p,
        n=d.n,
        J=jmod,
        levels=new_levels,
        xi_in_F=d.xi_in_F,
        minus_one_is_norm=d.minus_one_is_norm,
    )


def random_params(p: int, n: int, seed: int, rank_cap: int = 3, dim_cap: int = 120) -> SynthParams:
    """Uniform-ish legal parameters, deterministic in the seed."""
    fl.check_prime(p)
    if n < 1:
        raise ValueError("tower height must be >= 1")
    rng = random.Random((p, n, seed).__repr__())
    for _ in range(10_000):
        if p == 2 and n == 1:
            kind = rng.choice(["t1-xi", "t1-norm", "t2"])
            if kind == "t1-xi":
                m, xi, m1 = None, False, None
            elif kind == "t1-norm":
                m, xi, m1 = None, True, False
            else:
                m, xi, m1 = NEG_INF, True, True
        else:
            if rng.random() < 0.5:
                m, xi, m1 = None, False, None
            else:
                xi = True
                m = rng.choice([NEG_INF, *range(n)])
                m1 = True if (p == 2 and n == 1) else None
        e = [rng.randrange(rank_cap + 1) for _ in range(n + 1)]
        if m is not None and m != NEG_INF and e[int(m)] == 0:
            e[int(m)] = 1
        params = SynthParams(
            p=p, n=n, m=m, e=tuple(e), xi_in_F=xi, minus_one_is_norm=m1
        )
        try:
            params.check()
        except ValueError:
            continue
        if 1 <= params.dim_j() <= dim_cap:
            return params
    raise RuntimeError("could not sample legal parameters")


# ---------------------------------------------------------------------------
# sidecar


def params_to_json(params: SynthParams) -> dict:
    return {
        "p": params.p,
        "n": params.n,
        "m": level_str(params.m),
        "e": list(params.e),
        "xi_in_F": params.xi_in_F,
        "minus_one_is_norm": params.minus_one_is_norm,
        "shuffle_seed": params.shuffle_seed,
    }


def params_from_json(obj: dict) -> SynthParams:
    return SynthParams(
        p=int(obj["p"]),
        n=int(obj["n"]),
        m=level_from_str(obj["m"]),
        e=tuple(int(x) for x in obj["e"]),
        xi_in_F=bool(obj["xi_in_F"]),
        minus_one_is_norm=obj.get("minus_one_is_norm"),
        shuffle_seed=obj.get("shuffle_seed"),
    )


def sidecar(params: SynthParams) -> dict:
    """The expected answer recorded next to a synthesized datum."""
    blocks = sorted(
        (p_i for i, r in enumerate(params.y_ranks()) for p_i in [params.p**i] * r),
        reverse=True,
    )
    if params.m is not None:
        blocks.append(1 if params.m == NEG_INF else params.p ** int(params.m) + 1)
        blocks.sort(reverse=True)
    return {
        "params": params_to_json(params),
        "expected": {
            "m": level_str(params.m),
            "y_ranks": params.y_ranks(),
            "e": list(params.e),
            "dim_J": params.dim_j(),
            "block_multiset": blocks,
        },
    }


def save_sidecar(params: SynthParams, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sidecar(params), fh, indent=1, sort_keys=False)
        fh.write("\n")
