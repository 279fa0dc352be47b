"""Inverse-direction generator: a datum with a known decomposition.

synthesize() reads the theorem statements backwards.  J is assembled
block-diagonally (one Jordan block per cyclic summand), the subfield
images are the theorem's clause-(3) subspaces, the norm maps are lifts
of (sigma-1)^(p^n - p^i) through eps extended into the a_i line by the
dual coordinate of the X generator, and level n is J itself.  An
optional seeded basis change hides the canonical coordinates; it is
drawn before any level is built, so each level is built once, directly
in the coordinates the datum returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import fp_linalg as fl
from . import gmod
from .datum import (
    NEG_INF,
    GaloisDatum,
    LevelData,
    block_multiset,
    json_bool,
    json_int,
    level_from_str,
    level_str,
    rank_shift,
    x_dim,
    x_exponent,
    x_summand_exists,
    y_ranks,
)
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
        has_x = x_summand_exists(self.p, self.n, self.xi_in_F, self.minus_one_is_norm)
        if self.m is None and has_x:
            raise ValueError("no-X case needs xi_in_F false, or p=2, n=1 with -1 not a norm")
        if self.m is not None and not has_x:
            raise ValueError("an X summand requires xi_in_F, and for p=2, n=1 that -1 is a norm")
        if self.m not in (None, NEG_INF):
            mm = int(self.m)
            if not 0 <= mm < self.n:
                raise ValueError(f"m = {mm} out of range")
            if self.y_ranks()[mm] < 0:
                raise ValueError(f"e_{mm} must be >= 1 (rank shift at level m)")
            if self.p == 2 and self.n == 1:
                raise ValueError("p=2, n=1 forces m = -inf")
        dim = self.dim_j()
        if dim == 0:
            raise ValueError("empty module: all ranks zero and no X block")
        if dim > fl.DIM_MAX:
            raise ValueError(f"dim J = {dim} exceeds the supported bound DIM_MAX = {fl.DIM_MAX}")

    def y_ranks(self) -> list[int]:
        return y_ranks(self.e, self.m)

    def dim_j(self) -> int:
        return sum(r * self.p**i for i, r in enumerate(self.y_ranks())) + x_dim(self.p, self.m)


def _coords(im_eps: Subspace, w: Array) -> Array:
    """Coordinates of each row of w in the canonical RREF basis of im_eps:
    the entries at its pivots."""
    if not im_eps.contains(w):
        raise AssertionError("vector outside the eps image")
    return w[:, im_eps.pivots]


def synthesize(params: SynthParams) -> GaloisDatum:
    """A datum whose decomposition is known by construction."""
    params.check()
    p, n, m = params.p, params.n, params.m
    ranks = params.y_ranks()

    # block layout: X first (size 0 when absent), then levels n down to 0
    x_size = x_dim(p, m)
    y_sizes = [p**i for i in range(n, -1, -1) for _ in range(ranks[i])]
    sigma = gmod.jordan_sigma(p, [x_size, *y_sizes])
    dim = sigma.shape[0]
    canon = gmod.make_module(p, n, sigma)
    y_ends = x_size + np.cumsum(y_sizes, dtype=int)

    # a seeded basis change P hides the canonical coordinates: J's
    # generator is P sigma P^-1, and each level's eps and norm are taken
    # through P as they are built
    if params.shuffle_seed is None:
        pmat = pinv = None
        jmod = canon
    else:
        pmat = fl.random_invertible(p, dim, random.Random(params.shuffle_seed))
        pinv = fl.inverse(pmat, p)
        jmod = gmod.make_module(p, n, fl.matmul(fl.matmul(pmat, sigma, p), pinv, p))

    # the X-generator dual coordinate drives every norm's a_i component
    phi = np.zeros(dim, dtype=np.int64)
    if m is not None:
        phi[0] = 1

    with_a = params.xi_in_F  # every level below n carries an a-class
    levels: list[LevelData] = []
    images: list[Subspace] = []
    for i in range(n):
        # im eps_i is spanned by coordinates: Y^{H_i} (the last
        # min(p^i, size) of each Y block) and the X part (sigma-1)^k X
        # (the X coordinates from k on)
        cols = [
            c
            for end, size in zip(y_ends, y_sizes)
            for c in range(end - min(p**i, size), end)
        ]
        if m is not None:
            cols.extend(range(x_exponent(p, m, i), x_size))
        im_eps = fl.span(p, dim, fl.identity(dim)[cols])
        basis, d_im = im_eps.basis, im_eps.dim
        di = d_im + with_a

        eps = fl.zeros(dim, di)
        eps[:, :d_im] = basis.T
        sigma_i = fl.zeros(di, di)
        sigma_i[:d_im, :d_im] = _coords(im_eps, fl.matmul(basis, sigma.T, p)).T
        # the norm is a lift of (sigma-1)^(p^n - p^i) through eps
        norm = fl.zeros(di, dim)
        norm[:d_im, :] = _coords(im_eps, gmod.op_pow(canon, p**n - p**i).T).T
        a_class = None
        if with_a:
            sigma_i[d_im, d_im] = 1  # a_i is a fixed class
            norm[d_im, :] = phi
            a_class = np.zeros(di, dtype=np.int64)
            a_class[d_im] = 1
        if pmat is not None:
            eps, norm = fl.matmul(pmat, eps, p), fl.matmul(norm, pinv, p)

        # inter-norms: on the eps part, coordinates of (sigma-1)^(p^i - p^j)
        # applied to the level-i basis; the a_i line maps to a_j
        inter = {}
        for j, (lj, im_j) in enumerate(zip(levels, images)):
            mtx = fl.zeros(lj.space.dim, di)
            drop = gmod.op_pow(canon, p**i - p**j)
            mtx[: im_j.dim, :d_im] = _coords(im_j, fl.matmul(basis, drop.T, p)).T
            if with_a:
                mtx[im_j.dim, d_im] = 1
            inter[j] = mtx

        levels.append(
            LevelData(
                space=gmod.make_module(p, i, sigma_i),
                eps=eps,
                norm=norm,
                inter_norm=inter,
                a_class=a_class,
            )
        )
        images.append(im_eps)

    # level n is J: eps and norm are the identity, so coherence forces each
    # inter-norm to agree with the level-j norm outright
    levels.append(
        LevelData(
            space=jmod,
            eps=fl.identity(dim),
            norm=fl.identity(dim),
            inter_norm={j: lj.norm.copy() for j, lj in enumerate(levels)},
            a_class=None,
        )
    )
    return GaloisDatum(
        p=p,
        n=n,
        J=jmod,
        levels=levels,
        xi_in_F=params.xi_in_F,
        minus_one_is_norm=params.minus_one_is_norm,
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
                m1 = None
        e = [max(rng.randrange(rank_cap + 1), rank_shift(m, i)) for i in range(n + 1)]
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
    try:
        m = obj["m"]
        minus_one = obj.get("minus_one_is_norm")
        seed = obj.get("shuffle_seed")
        return SynthParams(
            p=json_int(obj["p"], "p"),
            n=json_int(obj["n"], "n"),
            m=level_from_str(m if m is None or isinstance(m, str) else json_int(m, "m")),
            e=tuple(json_int(x, "e") for x in obj["e"]),
            xi_in_F=json_bool(obj["xi_in_F"], "xi_in_F"),
            minus_one_is_norm=None if minus_one is None else json_bool(minus_one, "minus_one_is_norm"),
            shuffle_seed=None if seed is None else json_int(seed, "shuffle_seed"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed synth parameters JSON: {exc}") from exc


def sidecar(params: SynthParams) -> dict:
    """The expected answer recorded next to a synthesized datum."""
    return {
        "params": params_to_json(params),
        "expected": {
            "m": level_str(params.m),
            "y_ranks": params.y_ranks(),
            "e": list(params.e),
            "dim_J": params.dim_j(),
            "block_multiset": block_multiset(params.p, params.m, params.y_ranks()),
        },
    }
