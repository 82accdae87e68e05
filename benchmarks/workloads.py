"""The benchmark's three workloads: their input pools, set-up and items.

Every workload draws its items from a fixed pool whose outputs were recorded
in golden.json, so each item can be checked byte for byte.  The run seed only
chooses which pool members a run uses (all of them, for pencil) and in what
order; the same seed always gives the same items.  Each workload cycles
through a fixed sequence of "slots" (a size, or a size plus rank pattern),
so every run has the same mix of item costs and a run-to-run difference
reflects the program, not the draw.

Items reach jspec only through its public entry points: in-process
``jspec.cli.main`` for suites and searches, and the library API for pencils.
Callables are looked up on the module objects at call time, so a traced run
sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from types import SimpleNamespace

D = 2  # the field parameter every workload uses (the CLI default)


def direct(fn, *args):
    """Call fn; the default `step` of set-up, which a timing harness replaces."""
    return fn(*args)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_cli(mods: SimpleNamespace, argv: list[str]) -> str:
    """One in-process CLI call; returns exit code, stdout and stderr as text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = mods.cli.main(argv)
    return f"exit {rc}\nstdout:\n{out.getvalue()}stderr:\n{err.getvalue()}"


def round_robin(slots, pool, seed: int) -> list[str]:
    """Keys "slot:member" visiting every slot in turn.

    Each slot draws all pool members once, in an order chosen by the seed.
    """
    rng = random.Random(seed)
    orders = [rng.sample(pool, len(pool)) for _ in slots]
    return [f"{slot}:{order[j]}" for j in range(len(pool))
            for slot, order in zip(slots, orders)]


class Workload:
    """Default: every item is checked against its own golden digest."""

    def golden_key(self, key: str) -> str:
        return key


class Pairs(Workload):
    """`jspec verify --suite pairs`, cycling n = 3, 4, 5.

    Ten trials is the smallest block that contains the P = Q trial (every
    tenth trial).  This is acceptance criterion 1 in small pieces: its time
    is RREF/inverse and join/meet/validation with k = 2 pencils and no GCD,
    so it is the control workload for pencil and GCD changes.
    """

    name = "pairs"
    sizes = (3, 4, 5)
    trials = 10
    pool = tuple(range(1, 41))  # suite seeds whose reports are recorded
    round_len = 3
    uses = ("scalar.mul", "scalar.add", "scalar.inv", "exactla.rref",
            "exactla.matmul", "exactla.projection_onto", "lattice.validate",
            "lattice.join", "lattice.meet", "spectrum.pencil", "polyalg.mul",
            "verify.gen", "verify.suite", "cli.main")

    def pool_keys(self) -> list[str]:
        return [f"{n}:{s}" for n in self.sizes for s in self.pool]

    def sequence(self, seed: int) -> list[str]:
        return round_robin(self.sizes, self.pool, seed)

    def setup(self, mods: SimpleNamespace, keys: set[str], outdir: str,
              step=direct):
        return step(self._argvs, keys)

    def _argvs(self, keys: set[str]) -> dict:
        argvs = {}
        for key in keys:
            n, s = key.split(":")
            argvs[key] = ["verify", "--suite", "pairs", "--n", n, "--k", "2",
                          "--trials", str(self.trials), "--seed", s,
                          "--d", str(D)]
        return argvs

    def run(self, mods: SimpleNamespace, state, key: str) -> str:
        return run_cli(mods, state[key])

    def verdict_ok(self, output: str) -> bool:
        return output.startswith("exit 0\n") and \
            f"passed {self.trials}/{self.trials}\n" in output


class Pencil(Workload):
    """`pencil_poly(triple)`, then `.sf()` and `format_poly`, at n = 6 and 7.

    Mixed-rank triples in the shape of acceptance criterion 10, built in
    set-up, so the timed region is the subset DP and polynomial
    multiplication (plus one squarefree part).  Each rank pattern is one
    slot; the cycle visits the n = 6 slot twice per n = 7 slot, so the
    median falls inside the n = 6 cluster and the tail inside the n = 7
    cluster, and neither statistic straddles the gap between the sizes.

    Every run builds the whole pool, 16 n = 6 and 8 n = 7 triples, and the
    seed only orders them.  The cost of building a triple varies with the
    triple, so a seed-chosen subset made set-up time vary with the seed.
    """

    name = "pencil"
    slots = {"6:2-3-4": (6, (2, 3, 4)), "7:2-4-6": (7, (2, 4, 6))}
    cycle = ("6:2-3-4", "6:2-3-4", "7:2-4-6")
    per_run = 8  # passes through the cycle in one sequence
    round_len = 3
    uses = ("scalar.mul", "scalar.add", "scalar.inv", "spectrum.pencil",
            "polyalg.mul", "polyalg.gcd", "polyalg.divide",
            "polyalg.squarefree")

    def pool(self, slot: str) -> range:
        """Triple indices of a slot: one per visit in a sequence."""
        return range(self.per_run * self.cycle.count(slot))

    def pool_keys(self) -> list[str]:
        return [f"{slot}:{j}" for slot in self.slots for j in self.pool(slot)]

    def sequence(self, seed: int) -> list[str]:
        rng = random.Random(seed)
        picks = {slot: iter(rng.sample(self.pool(slot), len(self.pool(slot))))
                 for slot in self.slots}
        return [f"{slot}:{next(picks[slot])}" for _ in range(self.per_run)
                for slot in self.cycle]

    def setup(self, mods: SimpleNamespace, keys: set[str], outdir: str,
              step=direct):
        triples = {}
        for number, (slot, (n, ranks)) in enumerate(self.slots.items()):
            for index in self.pool(slot):
                key = f"{slot}:{index}"
                if key in keys:
                    triples[key] = step(self._triple, mods, n, ranks,
                                        1000 * (number + 1) + index)
        return triples

    @staticmethod
    def _triple(mods: SimpleNamespace, n: int, ranks, seed: int) -> list:
        cfg = mods.verify.TrialConfig(n=n, k=3, d=D)
        rng = random.Random(seed)
        return [mods.verify.random_projection(cfg, r, rng) for r in ranks]

    def run(self, mods: SimpleNamespace, state, key: str) -> str:
        spectrum = mods.spectrum.pencil_poly(state[key])
        sf = spectrum.sf()
        fmt = mods.polyalg.format_poly
        pencil = spectrum.pencil
        shape_ok = pencil.is_zero() or (
            pencil.is_homogeneous() and pencil.total_degree() == spectrum.n)
        return (f"shape {'ok' if shape_ok else 'bad'}\n{fmt(pencil)}\n"
                f"{'full' if sf is None else fmt(sf)}\n")

    def verdict_ok(self, output: str) -> bool:
        return output.startswith("shape ok\n")


class Witness(Workload):
    """`jspec witness --kind flip-triple --map <unitary> --expect absent`.

    n = 3, k = 3, the clean half of acceptance criterion 5.  A unitary map
    preserves every spectrum, so every candidate runs to the end: map apply,
    two pencils and a squarefree/divisibility zero-set test.  It is the only
    workload where maps and polynomial GCD/division carry weight.  The cycle
    visits the eight maps in turn, since their items differ in cost.

    The output ("no witness within budget 5", exit 0) does not depend on the
    map or the search seed, so all items share one golden digest and the
    golden check is no stronger than the verdict check.
    """

    name = "witness"
    maps = tuple(range(8))  # unitary map indices
    pool = tuple(range(1, 65))  # search seeds per map
    budget = 5  # random candidates after the 3 structured ones
    round_len = 8
    uses = ("scalar.mul", "scalar.add", "scalar.inv", "exactla.rref",
            "exactla.matmul", "exactla.projection_onto", "lattice.validate",
            "maps.apply", "spectrum.pencil", "spectrum.zero_set",
            "polyalg.mul", "polyalg.gcd", "polyalg.divide",
            "polyalg.squarefree", "verify.gen", "verify.suite", "cli.main")

    def pool_keys(self) -> list[str]:
        return [f"{m}:{s}" for m in self.maps for s in self.pool]

    def sequence(self, seed: int) -> list[str]:
        return round_robin(self.maps, self.pool, seed)

    def golden_key(self, key: str) -> str:
        return "any"

    def setup(self, mods: SimpleNamespace, keys: set[str], outdir: str,
              step=direct):
        os.makedirs(outdir, exist_ok=True)
        paths = {m: step(self._write_map, mods, m, outdir)
                 for m in sorted({key.split(":")[0] for key in keys})}
        return step(self._argvs, keys, paths)

    @staticmethod
    def _write_map(mods: SimpleNamespace, m: str, outdir: str) -> str:
        cfg = mods.verify.TrialConfig(n=3, k=3, d=D)
        u = mods.verify.random_unitary(cfg, random.Random(500 + int(m)))
        path = os.path.join(outdir, f"unitary-{m}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(mods.maps.map_to_json(mods.maps.make_unitary_conj(u)),
                      handle)
        return path

    def _argvs(self, keys: set[str], paths: dict) -> dict:
        argvs = {}
        for key in keys:
            m, s = key.split(":")
            argvs[key] = ["witness", "--kind", "flip-triple", "--map",
                          paths[m], "--expect", "absent", "--n", "3",
                          "--k", "3", "--budget", str(self.budget),
                          "--seed", s, "--d", str(D)]
        return argvs

    def run(self, mods: SimpleNamespace, state, key: str) -> str:
        return run_cli(mods, state[key])

    def verdict_ok(self, output: str) -> bool:
        return output.startswith("exit 0\n") and \
            f"no witness within budget {self.budget}\n" in output


WORKLOADS = {w.name: w for w in (Pairs(), Pencil(), Witness())}
