"""Seeded trial suites that machine-check the library's structural claims.

Each suite draws reproducible random instances (projections, tuples, maps)
from a small exact entry pool, evaluates one identity or equivalence per
trial, and collects violations instead of aborting, so a failing run still
reports every counterexample.  Reports render deterministically: the same
suite, config, and seed always produce byte-identical text and JSON.

The witness search is the one suite whose interesting outcome is a failure:
it hunts for a projection tuple whose joint spectrum a given map does not
preserve, trying a fixed list of structured candidates before any random
draws so that known phenomena are found without luck.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
from fractions import Fraction
from typing import Optional, Sequence

from jspec.exactla import Matrix, automorphism_entrywise, matrix_to_json, vdot
from jspec.lattice import (
    Projection,
    identity_projection,
    projection_to_json,
    rank_one,
    zero_projection,
)
from jspec.maps import (
    OrthogonalityError,
    ProjectionMap,
    apply_map,
    extend_join,
    extend_sum,
    gram_is_scalar,
    map_to_json,
    make_induced,
    make_unitary_conj,
    preserves_orthogonality,
    rank_one_image,
)
from jspec.polyalg import format_poly
from jspec.scalar import (
    ALL_AUTOMORPHISMS,
    FieldContext,
    FieldElem,
    format_scalar,
)
from jspec.spectrum import (
    JointSpectrum,
    RankOneClass,
    classify_rank_one_tuple,
    pair_facts,
    pencil_poly,
    tuple_to_json,
    zero_set_equal,
    zero_set_subset,
)


def default_entry_pool(ctx: FieldContext) -> tuple[FieldElem, ...]:
    """Small exact pool mixing rational, imaginary, and surd directions."""
    one, i, r = ctx.one, ctx.i, ctx.sqrt_d
    two = ctx.elem(2)
    return (ctx.zero, one, -one, two, -two, i, -i, r, -r,
            one + i, one - i, one + r, one - r)


# Largest dimension n and tuple length k a suite run accepts.  The pencil's
# subset DP has up to 2^n states, and each state packs its polynomial
# into ints of w * prod(r_l + 1) bits (slot width w, and the box of the
# ranks r_l but the largest, `spectrum._radices`): on a 2-core x86 VM
# with Python 3.11 one pairs trial takes about 1.4 s at n = 12 and did not
# finish within 60 s at n = 16.  One pencil of three rank-9 members of
# K^12 takes about 3.1 s (`BENCH_21.json`).  The box grows with k and the
# ranks, and w with the entries' bits, so these caps do not bound the DP;
# `spectrum.MAX_DP_BITS` does, and refuses larger tuples.  A tuple
# whose ranks add up to at most n + 1 (n or n + 1 rank-one lines) skips
# the DP for a closed form: a few thousandths of a second for 10 lines on
# K^10 or on K^9 (`BENCH_20.json`).
# Trials and witness budgets cost linear time and stay unbounded, and so
# does a squarefree part that the certificate cannot settle: the first
# structured candidate of `witness --kind flip-triple` at n = 12, k = 10
# runs the multivariate GCDs on a 10-variable pencil past 90 s.
MAX_N = 12
MAX_K = 10


@dataclasses.dataclass(frozen=True)
class TrialConfig:
    """Shared knobs for one suite run; immutable so reports can embed it.

    Every suite draws its entries from `default_entry_pool` over Q(i, sqrt d),
    which reports print as the pool.
    """

    n: int
    k: int = 2
    trials: int = 100
    seed: int = 1
    d: int = 2
    entry_pool: tuple[FieldElem, ...] = \
        dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension n must be at least 2")
        if self.n > MAX_N:
            raise ValueError(
                f"dimension n must be at most {MAX_N}, got {self.n}")
        if self.k < 1:
            raise ValueError("tuple length k must be positive")
        if self.k > MAX_K:
            raise ValueError(
                f"tuple length k must be at most {MAX_K}, got {self.k}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        ctx = FieldContext(self.d)
        object.__setattr__(self, "entry_pool", default_entry_pool(ctx))
        object.__setattr__(self, "_ctx", ctx)

    @property
    def ctx(self) -> FieldContext:
        return self._ctx

    def describe(self) -> str:
        return (f"n={self.n} k={self.k} trials={self.trials} "
                f"seed={self.seed} d={self.d}")

    def pool_text(self) -> str:
        return ", ".join(format_scalar(x) for x in self.entry_pool)

    def as_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "trials": self.trials,
                "seed": self.seed, "d": self.d,
                "pool": [format_scalar(x) for x in self.entry_pool]}


def trial_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def trial_rng(seed: int, index: int) -> random.Random:
    """Independent generator for one trial; reconstructible from the report."""
    return random.Random(trial_seed(seed, index))


# -- random instances ---------------------------------------------------------------


def random_vector(cfg: TrialConfig, rng: random.Random) -> list[FieldElem]:
    while True:
        v = [rng.choice(cfg.entry_pool) for _ in range(cfg.n)]
        if any(v):
            return v


def random_projection(cfg: TrialConfig, rank: int,
                      rng: random.Random) -> Projection:
    """Projection of exactly the requested rank, spanned by pool vectors."""
    n = cfg.n
    if rank < 0 or rank > n:
        raise ValueError(f"rank {rank} impossible in dimension {n}")
    if rank == 0:
        return zero_projection(n, cfg.ctx)
    if rank == n:
        return identity_projection(n, cfg.ctx)
    while True:
        cols = [random_vector(cfg, rng) for _ in range(rank)]
        a = Matrix.from_columns(cols, cfg.ctx, nrows=n)
        if a.rank() == rank:
            return Projection(a)


def _unit_block(ctx: FieldContext, n: int, i0: int, j0: int,
                complex_phase: bool) -> Matrix:
    rows = [[ctx.one if i == j else ctx.zero for j in range(n)]
            for i in range(n)]
    if complex_phase:
        half = Fraction(1, 2)
        p, q = ctx.elem(half) + ctx.i * half, ctx.elem(half) - ctx.i * half
        rows[i0][i0], rows[i0][j0] = p, q
        rows[j0][i0], rows[j0][j0] = q, p
    else:
        f35, f45 = ctx.elem(Fraction(3, 5)), ctx.elem(Fraction(4, 5))
        rows[i0][i0], rows[i0][j0] = f35, f45
        rows[j0][i0], rows[j0][j0] = -f45, f35
    return Matrix(rows, ctx)


def random_unitary(cfg: TrialConfig, rng: random.Random) -> Matrix:
    """Exact unitary: permutation times unit phases times plane blocks."""
    n, ctx = cfg.n, cfg.ctx
    perm = list(range(n))
    rng.shuffle(perm)
    u = Matrix([[ctx.one if perm[i] == j else ctx.zero for j in range(n)]
                for i in range(n)], ctx)
    units = [rng.choice((ctx.one, -ctx.one, ctx.i, -ctx.i)) for _ in range(n)]
    u = u * Matrix.diag(units, ctx)
    for _ in range(rng.randint(0, 2)):
        i0, j0 = sorted(rng.sample(range(n), 2))
        u = u * _unit_block(ctx, n, i0, j0, rng.random() < 0.5)
    return u


def _random_square(cfg: TrialConfig, size: int,
                   rng: random.Random) -> Matrix:
    return Matrix([[rng.choice(cfg.entry_pool) for _ in range(size)]
                   for _ in range(size)], cfg.ctx)


def random_invertible(cfg: TrialConfig, rng: random.Random,
                      size: Optional[int] = None) -> Matrix:
    size = cfg.n if size is None else size
    while True:
        m = _random_square(cfg, size, rng)
        if m.det():
            return m


def random_non_unitary_invertible(cfg: TrialConfig,
                                  rng: random.Random) -> Matrix:
    """Invertible B whose gram B*B is not scalar.

    Rejecting scalar grams (not just gram != identity) keeps out matrices
    that act on ranges exactly like scaled unitaries.  Over the entry pool
    a scalar gram is rare: for n = 2..6, d in {2, 3, 5, 7, 999999937} and
    seeds 0..199 no call needed more than two draws.
    """
    while True:
        m = random_invertible(cfg, rng)
        if not gram_is_scalar(m):
            return m


def _random_tuple(cfg: TrialConfig, rng: random.Random,
                  rank_one_only: bool) -> list[Projection]:
    """k rank-one projections, or k projections of ranks drawn in 1..n-1."""
    if rank_one_only:
        return [rank_one(random_vector(cfg, rng), cfg.ctx)
                for _ in range(cfg.k)]
    return [random_projection(cfg, rng.randint(1, cfg.n - 1), rng)
            for _ in range(cfg.k)]


def _collinear(cfg: TrialConfig, rng: random.Random, base: list[FieldElem],
               count: int) -> list[list[FieldElem]]:
    """count nonzero pool multiples of base."""
    vectors = []
    while len(vectors) < count:
        s = rng.choice(cfg.entry_pool)
        if s:
            vectors.append([s * x for x in base])
    return vectors


def random_map(cfg: TrialConfig, rng: random.Random) -> ProjectionMap:
    kind = rng.randrange(3)
    if kind == 0:
        return make_unitary_conj(random_unitary(cfg, rng))
    if kind == 1:
        return make_unitary_conj(random_unitary(cfg, rng), anti=True)
    return make_induced(rng.choice(ALL_AUTOMORPHISMS),
                        random_invertible(cfg, rng))


# -- reports --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Violation:
    index: int
    seed: int
    message: str
    data: dict

    def as_dict(self) -> dict:
        return {"index": self.index, "seed": self.seed,
                "message": self.message, "data": self.data}

    def render(self) -> str:
        return (f"violation: trial {self.index} seed {self.seed}\n"
                f"  message: {self.message}\n"
                f"  data: {json.dumps(self.data, sort_keys=True)}")


class VerificationReport:
    """Outcome of one suite run; renders deterministically."""

    __slots__ = ("suite", "config", "trials", "violations", "counters",
                 "map_json", "map_label")

    def __init__(self, suite: str, config: TrialConfig, trials: int,
                 violations: Sequence[Violation],
                 counters: Optional[dict] = None,
                 m: Optional[ProjectionMap] = None):
        self.suite = suite
        self.config = config
        self.trials = trials
        self.violations = tuple(violations)
        self.counters = dict(counters or {})
        self.map_json = None if m is None else map_to_json(m)
        self.map_label = None if m is None else m.describe()

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        ok = self.trials - len(self.violations)
        word = "passed" if self.passed else "failed"
        return f"{word} {ok}/{self.trials}"

    def render(self) -> str:
        lines = [f"suite: {self.suite}",
                 f"config: {self.config.describe()}",
                 f"pool: {self.config.pool_text()}"]
        if self.map_label is not None:
            lines.append(f"map: {self.map_label}")
        if self.counters:
            body = " ".join(f"{k}={self.counters[k]}"
                            for k in sorted(self.counters))
            lines.append(f"counters: {body}")
        for v in self.violations:
            lines.append(v.render())
        lines.append(self.summary())
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"suite": self.suite,
                "config": self.config.as_dict(),
                "map": self.map_json,
                "counters": self.counters,
                "trials": self.trials,
                "passed": self.passed,
                "violations": [v.as_dict() for v in self.violations]}


class Witness:
    """A projection tuple whose zero set a map fails to preserve."""

    __slots__ = ("projs", "m", "original", "image")

    def __init__(self, projs: Sequence[Projection], m: ProjectionMap,
                 original: JointSpectrum, image: JointSpectrum):
        if zero_set_equal(original, image):
            raise ValueError("not a witness: the zero sets agree")
        self.projs = tuple(projs)
        self.m = m
        self.original = original
        self.image = image

    @staticmethod
    def _poly_texts(s: JointSpectrum) -> tuple[str, Optional[str]]:
        sf = s.sf()
        return format_poly(s.pencil), None if sf is None else format_poly(sf)

    def to_json(self) -> dict:
        pencil, sf = self._poly_texts(self.original)
        pencil_img, sf_img = self._poly_texts(self.image)
        return {"tuple": tuple_to_json(self.projs),
                "map": map_to_json(self.m),
                "n": self.original.n,
                "k": self.original.k,
                "d": self.original.ctx.d,
                "pencil": pencil,
                "squarefree": sf,
                "pencil-image": pencil_img,
                "squarefree-image": sf_img}

    def render(self) -> str:
        pencil, sf = self._poly_texts(self.original)
        pencil_img, sf_img = self._poly_texts(self.image)
        return "\n".join([
            f"witness: map {self.m.describe()} on a "
            f"{self.original.k}-tuple in dimension {self.original.n}",
            f"  pencil:           {pencil}",
            f"  squarefree:       {sf if sf is not None else '(full)'}",
            f"  image pencil:     {pencil_img}",
            f"  image squarefree: "
            f"{sf_img if sf_img is not None else '(full)'}",
            f"  tuple: {json.dumps(tuple_to_json(self.projs), sort_keys=True)}",
        ])


def _try_witness(m: ProjectionMap,
                 projs: Sequence[Projection]) -> Optional[Witness]:
    images = [apply_map(m, p) for p in projs]
    original = pencil_poly(projs)
    image = pencil_poly(images)
    if zero_set_equal(original, image):
        return None
    return Witness(projs, m, original, image)


# -- suites ---------------------------------------------------------------------------


def _run_trials(suite: str, cfg: TrialConfig, trial,
                counters: Optional[dict] = None,
                m: Optional[ProjectionMap] = None) -> VerificationReport:
    """Run cfg.trials seeded trials and collect their violations.

    trial(index, rng) yields one (message, data) pair per violation it
    finds, or returns None for a degenerate draw, which is not a trial; it
    may update counters, which the report embeds afterwards.
    """
    violations = []
    index = completed = 0
    while completed < cfg.trials:
        if index >= cfg.trials * 50 + 100:
            raise RuntimeError("too many degenerate draws; widen the pool")
        found = trial(index, trial_rng(cfg.seed, index))
        if found is not None:
            completed += 1
            violations += [Violation(index, trial_seed(cfg.seed, index),
                                     message, data) for message, data in found]
        index += 1
    return VerificationReport(suite, cfg, cfg.trials, violations, counters,
                              m=m)


def check_pair_equivalences(cfg: TrialConfig) -> VerificationReport:
    """Pair facts: join full iff (1,1) outside, plus meet-zero iff (1,-1) out.

    Every tenth trial uses the degenerate pair P = Q.
    """
    def trial(index, rng):
        p = random_projection(cfg, rng.randint(1, cfg.n - 1), rng)
        if index % 10 == 9:
            q = p
        else:
            q = random_projection(cfg, rng.randint(1, cfg.n - 1), rng)
        facts = pair_facts(p, q)
        if (facts.join_full != facts.point11_out or
                (facts.join_full and facts.meet_zero) != facts.point1m1_out):
            yield ("pair lattice facts disagree with spectrum membership",
                   {"p": projection_to_json(p), "q": projection_to_json(q),
                    "facts": facts.as_dict()})

    return _run_trials("pairs", cfg, trial)


def check_rank_one_classification(cfg: TrialConfig) -> VerificationReport:
    """Rank-one n-tuples classify consistently; counts both classes.

    Every tenth trial forces a non-spanning tuple (collinear when n = 2,
    confined to a coordinate plane otherwise), which must classify as full.
    """
    if cfg.k != cfg.n:
        raise ValueError("rank-one classification needs k = n")
    counters = {"full": 0, "coordinate-hyperplanes": 0}

    def trial(index, rng):
        forced = index % 10 == 9
        if forced and cfg.n == 2:
            base = random_vector(cfg, rng)
            vectors = [base] + _collinear(cfg, rng, base, 1)
        elif forced:
            vectors = []
            while len(vectors) < cfg.n:
                v = [rng.choice(cfg.entry_pool) if t < 2 else cfg.ctx.zero
                     for t in range(cfg.n)]
                if any(v):
                    vectors.append(v)
        else:
            vectors = [random_vector(cfg, rng) for _ in range(cfg.n)]
        projs = [rank_one(v, cfg.ctx) for v in vectors]
        try:
            cls = classify_rank_one_tuple(projs)
        except RuntimeError as err:
            yield str(err), {"tuple": tuple_to_json(projs)}
            return
        counters[cls.value] += 1
        if forced and cls is not RankOneClass.FULL:
            yield ("non-spanning tuple did not classify as full",
                   {"tuple": tuple_to_json(projs)})

    return _run_trials("rank-one-classification", cfg, trial, counters)


def check_det_automorphism(cfg: TrialConfig) -> VerificationReport:
    """Entrywise field automorphisms commute with det and preserve rank."""
    def trial(index, rng):
        mat = _random_square(cfg, rng.randint(1, cfg.n), rng)
        det = mat.det()
        rk = mat.rank()
        for f in ALL_AUTOMORPHISMS:
            fm = automorphism_entrywise(f, mat)
            if fm.det() != f(det) or fm.rank() != rk:
                yield (f"automorphism {f.value} broke det or rank",
                       {"matrix": matrix_to_json(mat),
                        "automorphism": f.value})

    return _run_trials("det-automorphism", cfg, trial)


def check_map_morphism(cfg: TrialConfig,
                       m: Optional[ProjectionMap] = None) -> VerificationReport:
    """Maps act as rank-preserving lattice isomorphisms.

    Per trial: rank equality, join and meet images, order both ways, and the
    fixed points I and 0.  Draws a fresh random map per trial unless one is
    supplied; ranks run over the full 0..n so the extremes are exercised.
    """
    identity = identity_projection(cfg.n, cfg.ctx)
    zero = zero_projection(cfg.n, cfg.ctx)

    def trial(index, rng):
        mm = m if m is not None else random_map(cfg, rng)
        p = random_projection(cfg, rng.randint(0, cfg.n), rng)
        q = random_projection(cfg, rng.randint(0, cfg.n), rng)
        fp, fq = apply_map(mm, p), apply_map(mm, q)
        problems = []
        if fp.rank != p.rank:
            problems.append("rank changed")
        if apply_map(mm, p.join(q)) != fp.join(fq):
            problems.append("join not preserved")
        if apply_map(mm, p.meet(q)) != fp.meet(fq):
            problems.append("meet not preserved")
        if p.leq(q) != fp.leq(fq):
            problems.append("order not preserved")
        if apply_map(mm, identity) != identity:
            problems.append("identity moved")
        if apply_map(mm, zero) != zero:
            problems.append("zero moved")
        if problems:
            yield ("; ".join(problems),
                   {"map": map_to_json(mm), "p": projection_to_json(p),
                    "q": projection_to_json(q)})

    return _run_trials("map-morphism", cfg, trial, m=m)


def check_map_preservation(m: ProjectionMap,
                           cfg: TrialConfig) -> VerificationReport:
    """Zero-set comparison of random k-tuples against their images.

    Buckets each trial as preserved, shrunk-strictly (image zero set a
    proper subset), or incomparable; only all-preserved passes.
    """
    if cfg.k < 2:
        raise ValueError("needs tuples of length at least 2")
    counters = {"preserved": 0, "shrunk-strictly": 0, "incomparable": 0}

    def trial(index, rng):
        witness = _try_witness(m, _random_tuple(cfg, rng, rank_one_only=False))
        if witness is None:
            counters["preserved"] += 1
            return
        if zero_set_subset(witness.image, witness.original):
            bucket = "shrunk-strictly"
        else:
            bucket = "incomparable"
        counters[bucket] += 1
        yield (f"zero set not preserved ({bucket})",
               {"witness": witness.to_json()})

    return _run_trials("map-preservation", cfg, trial, counters, m)


def check_two_projection_sum_identity(cfg: TrialConfig) -> VerificationReport:
    """Exact identity tying E, F, and the line through xi + F(xi).

    Draws E, F and xi in Range(E) with F(xi) != 0, sets
    c2 = <Fxi,Fxi>/<xi,xi> and t = (1+3c2)/(1+c2), and checks that
    (E + F - tR)xi = 0 for R the projection onto xi + Fxi, that
    <xi+Fxi, xi+Fxi> = (1+3c2)<xi,xi>, and that t > 1.  The same relation
    is re-checked with E replaced by the line through xi.  Every tenth
    instance is pinned to F = E and xi in Range(F), forcing c2 = 1 and
    t = 2 exactly.  Draws where F kills every candidate xi are skipped and
    counted, never silently dropped.
    """
    counters = {"pinned": 0, "skipped": 0}

    def trial(index, rng):
        pinned = (index - counters["skipped"]) % 10 == 9
        e = random_projection(cfg, rng.randint(1, cfg.n - 1), rng)
        f = e if pinned else random_projection(
            cfg, rng.randint(1, cfg.n - 1), rng)
        xi = None
        for _ in range(8):
            cand = e.matrix.matvec(random_vector(cfg, rng))
            if any(cand) and any(f.matrix.matvec(cand)):
                xi = cand
                break
        if xi is None:
            counters["skipped"] += 1
            return None
        fxi = f.matrix.matvec(xi)
        norm_xi = vdot(xi, xi, cfg.ctx)
        c2 = vdot(fxi, fxi, cfg.ctx) / norm_xi
        t = (1 + c2 * 3) / (1 + c2)
        zeta = [a + b for a, b in zip(xi, fxi)]
        r = rank_one(zeta, cfg.ctx)
        problems = []
        if vdot(zeta, zeta, cfg.ctx) != (1 + c2 * 3) * norm_xi:
            problems.append("norm identity failed")
        for label, base in (("E", e), ("line through xi", rank_one(xi))):
            lhs = base.matrix + f.matrix - r.matrix * t
            if any(lhs.matvec(xi)):
                problems.append(f"(E + F - tR)xi != 0 with E = {label}")
        if (t - 1).real_sign() <= 0:
            problems.append("t is not above 1")
        if pinned:
            counters["pinned"] += 1
            if c2 != 1 or t != 2:
                problems.append("pinned instance missed c2 = 1, t = 2")
        return [("; ".join(problems),
                 {"E": projection_to_json(e), "F": projection_to_json(f),
                  "xi": [format_scalar(x) for x in xi]})] if problems else []

    return _run_trials("two-projection-sum-identity", cfg, trial, counters)


def check_rank_join_preservation(m: ProjectionMap,
                                 cfg: TrialConfig) -> VerificationReport:
    """Joins of rank-one tuples keep their rank under the map.

    Every tenth trial draws a collinear tuple, pinning the rank to one.
    """
    def trial(index, rng):
        if index % 10 == 9:
            vectors = _collinear(cfg, rng, random_vector(cfg, rng), cfg.k)
        else:
            vectors = [random_vector(cfg, rng) for _ in range(cfg.k)]
        projs = [rank_one(v, cfg.ctx) for v in vectors]
        join = functools.reduce(Projection.join, projs)
        image_join = functools.reduce(
            Projection.join, [rank_one_image(m, v) for v in vectors])
        if image_join.rank != join.rank:
            yield (f"join rank changed from {join.rank} to {image_join.rank}",
                   {"tuple": tuple_to_json(projs), "map": map_to_json(m)})

    return _run_trials("rank-join-preservation", cfg, trial, m=m)


def check_extension_consistency(m: ProjectionMap,
                                cfg: TrialConfig) -> VerificationReport:
    """Rank-one extensions do not depend on the decomposition.

    extend_join must agree with the ambient map and with itself across a
    second, randomly remixed decomposition; extend_sum, whenever its
    orthogonality requirement is met, must agree with extend_join, and must
    always be defined for orthogonality-preserving maps.  Every tenth trial
    uses P = I.
    """
    counters = {"sum-agreed": 0, "sum-undefined": 0}

    def trial(index, rng):
        rank = cfg.n if index % 10 == 9 else rng.randint(1, cfg.n - 1)
        p = random_projection(cfg, rank, rng)
        expected = apply_map(m, p)
        problems = []
        joined = extend_join(m, p)
        remixed = extend_join(m, p, mixer=random_invertible(cfg, rng,
                                                            size=p.rank))
        if joined != expected:
            problems.append("join extension disagrees with the map")
        if remixed != joined:
            problems.append("extension depends on the rank-one decomposition")
        try:
            summed = extend_sum(m, p)
            counters["sum-agreed"] += 1
            if summed != joined:
                problems.append("sum extension disagrees with join")
        except OrthogonalityError:
            counters["sum-undefined"] += 1
            if preserves_orthogonality(m):
                problems.append(
                    "sum undefined for an orthogonality-preserving map")
        if problems:
            yield ("; ".join(problems),
                   {"p": projection_to_json(p), "map": map_to_json(m)})

    return _run_trials("extension-consistency", cfg, trial, counters, m)


def check_rank_one_map_k_preservation(m: ProjectionMap,
                                      cfg: TrialConfig) -> VerificationReport:
    """Zero-set comparison for k >= n tuples of rank-one projections."""
    if cfg.k < cfg.n:
        raise ValueError("needs k >= n; shorter rank-one tuples are "
                         "always full")
    counters = {"preserved": 0}

    def trial(index, rng):
        witness = _try_witness(m, _random_tuple(cfg, rng, rank_one_only=True))
        if witness is None:
            counters["preserved"] += 1
        else:
            yield ("rank-one tuple zero set not preserved",
                   {"witness": witness.to_json()})

    return _run_trials("rank-one-k-preservation", cfg, trial, counters, m)


def check_small_rank_one_fullness(cfg: TrialConfig) -> VerificationReport:
    """Fewer than n rank-one projections always have full spectrum."""
    if cfg.k >= cfg.n:
        raise ValueError("needs k < n")

    def trial(index, rng):
        projs = _random_tuple(cfg, rng, rank_one_only=True)
        spectrum = pencil_poly(projs)
        if not spectrum.is_full():
            yield ("short rank-one tuple with nonvanishing pencil",
                   {"tuple": tuple_to_json(projs),
                    "pencil": format_poly(spectrum.pencil)})

    return _run_trials("small-rank-one-fullness", cfg, trial)


# -- witness search ----------------------------------------------------------------


def _unit_vec(ctx: FieldContext, n: int, at: int) -> list[FieldElem]:
    return [ctx.one if t == at else ctx.zero for t in range(n)]


def _pad(ctx: FieldContext, n: int, entries: Sequence[FieldElem]
         ) -> list[FieldElem]:
    v = list(entries) + [ctx.zero] * (n - len(entries))
    return v[:n]


# Signs (surd, line) of the structured candidates: each holds the vector
# (1, surd*sqrt(d), 0, ...) and the line through (1, line, 0, ...).
_STRUCTURED_SIGNS = ((1, 1), (-1, 1), (1, -1))


def _structured_mixed_tuples(cfg: TrialConfig) -> list[list[Projection]]:
    """Fixed mixed-rank candidate triples built from {0, 1, -1, r} entries."""
    ctx, n = cfg.ctx, cfg.n
    one, r = ctx.one, ctx.sqrt_d
    out = []
    for surd, line in _STRUCTURED_SIGNS:
        cols = [_pad(ctx, n, (one, surd * r))] + \
            [_unit_vec(ctx, n, t) for t in range(2, n)]
        big = Projection(Matrix.from_columns(cols, ctx, nrows=n))
        triple = [big,
                  rank_one(_unit_vec(ctx, n, 0)),
                  rank_one(_pad(ctx, n, (one, ctx.elem(line))))]
        out.append(_pad_tuple(cfg, triple))
    return out


def _structured_rank_one_tuples(cfg: TrialConfig) -> list[list[Projection]]:
    """Fixed rank-one candidate tuples; first entries carry the surd."""
    ctx, n = cfg.ctx, cfg.n
    one, r = ctx.one, ctx.sqrt_d
    out = []
    for surd, line in _STRUCTURED_SIGNS:
        base = [rank_one(_pad(ctx, n, (one, surd * r))),
                rank_one(_unit_vec(ctx, n, 0)),
                rank_one(_pad(ctx, n, (one, ctx.elem(line))))] + \
            [rank_one(_unit_vec(ctx, n, t)) for t in range(2, n)]
        if len(base) <= cfg.k:
            out.append(_pad_tuple(cfg, base))
    return out


def _pad_tuple(cfg: TrialConfig,
               projs: list[Projection]) -> list[Projection]:
    ctx, n = cfg.ctx, cfg.n
    one = ctx.one
    extras = [_unit_vec(ctx, n, 2 % n), _pad(ctx, n, (ctx.zero, one, one)),
              _unit_vec(ctx, n, 1), _pad(ctx, n, (one, ctx.zero, one))]
    t = 0
    while len(projs) < cfg.k:
        projs.append(rank_one(extras[t % len(extras)], ctx))
        t += 1
    return projs


def find_spectrum_witness(m: ProjectionMap, cfg: TrialConfig, budget: int,
                          rank_one_only: bool = False) -> Optional[Witness]:
    """Search for a k-tuple whose zero set the map fails to preserve.

    Tries a fixed list of structured candidates first, then up to budget
    seeded random tuples (mixed ranks, or rank-one only), so a map family
    with a known failure is exposed deterministically.  Returns None when
    the budget is exhausted: absence of a witness is a result, not an error.
    Pairs are out of scope, so k >= 3 and n >= 3 are required.
    """
    if cfg.k < 3 or cfg.n < 3:
        raise ValueError("witness search needs k >= 3 and n >= 3")
    if rank_one_only:
        candidates = _structured_rank_one_tuples(cfg)
    else:
        candidates = _structured_mixed_tuples(cfg)
    for projs in candidates:
        witness = _try_witness(m, projs)
        if witness is not None:
            return witness
    for index in range(budget):
        projs = _random_tuple(cfg, trial_rng(cfg.seed, index), rank_one_only)
        witness = _try_witness(m, projs)
        if witness is not None:
            return witness
    return None
