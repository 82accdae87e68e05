"""Acceptance gate: ten end-to-end criteria at full trial counts.

Each test prints one pass/fail line with its runtime against the budget it
must meet; assertions enforce both the zero-violation requirement and the
budget.  Run with -v (or -s for the timing lines) to see one line per
criterion.
"""

import json
import random
import time

from reference_linalg import det_leibniz
from reference_pencil import pencil_poly_leibniz
from jspec.exactla import Matrix
from jspec.lattice import rank_one
from jspec.maps import make_induced, make_unitary_conj
from jspec.scalar import Automorphism, FieldContext
from jspec.spectrum import pencil_poly
from jspec.verify import (
    TrialConfig,
    check_extension_consistency,
    check_det_automorphism,
    check_map_preservation,
    check_pair_equivalences,
    check_rank_one_classification,
    check_rank_one_map_k_preservation,
    check_two_projection_sum_identity,
    find_spectrum_witness,
    random_non_unitary_invertible,
    random_projection,
    random_unitary,
    trial_rng,
)

K = FieldContext(2)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, ok=True):
        elapsed = time.perf_counter() - self.start
        word = "PASS" if ok else "FAIL"
        print(f"{self.name}: {word} in {elapsed:.1f}s "
              f"(budget {self.seconds}s)")
        assert ok
        assert elapsed < self.seconds, \
            f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"


def flip_map(n):
    return make_induced(Automorphism.FLIP, Matrix.identity(n, K))


def test_acceptance_1_pair_equivalences():
    budget = Budget("criterion 1, pair equivalences", 60)
    ok = True
    for n in (3, 4, 5):
        report = check_pair_equivalences(
            TrialConfig(n=n, k=2, trials=200, seed=101))
        ok = ok and report.passed and report.trials == 200
    budget.done(ok)


def test_acceptance_2_rank_one_dichotomy():
    budget = Budget("criterion 2, rank-one dichotomy", 60)
    ok = True
    for n in (3, 4):
        report = check_rank_one_classification(
            TrialConfig(n=n, k=n, trials=100, seed=102))
        ok = ok and report.passed
        ok = ok and report.counters["full"] + \
            report.counters["coordinate-hyperplanes"] == 100
    budget.done(ok)


def test_acceptance_3_det_automorphism():
    budget = Budget("criterion 3, det/rank under automorphisms", 30)
    report = check_det_automorphism(TrialConfig(n=5, trials=200, seed=103))
    budget.done(report.passed)


def _four_map_families(n, seed):
    cfg = TrialConfig(n=n, seed=seed)
    rng = random.Random(seed)
    return (
        make_unitary_conj(random_unitary(cfg, rng)),
        make_unitary_conj(random_unitary(cfg, rng), anti=True),
        make_induced(Automorphism.ID, random_non_unitary_invertible(cfg, rng)),
        flip_map(n),
    )


def test_acceptance_4_pair_preservation_by_all_families():
    budget = Budget("criterion 4, pair spectra preserved by all families",
                    120)
    ok = True
    for m in _four_map_families(3, 104):
        report = check_map_preservation(
            m, TrialConfig(n=3, k=2, trials=100, seed=104))
        ok = ok and report.passed and report.counters["preserved"] == 100
    budget.done(ok)


def test_acceptance_5_rigidity_witness():
    budget = Budget("criterion 5, flip witness found / unitary clean", 120)
    cfg = TrialConfig(n=3, k=3, seed=105)
    structured_only = find_spectrum_witness(flip_map(3), cfg, budget=0)
    witness = find_spectrum_witness(flip_map(3), cfg, budget=1000)
    unitary = make_unitary_conj(
        random_unitary(cfg, random.Random(105)))
    clean = find_spectrum_witness(unitary, cfg, budget=100)
    budget.done(structured_only is not None and witness is not None
                and clean is None)


def test_acceptance_6_rank_one_tuples():
    budget = Budget("criterion 6, rank-one tuple preservation and witness",
                    180)
    cfg_n = TrialConfig(n=3, k=3, trials=100, seed=106)
    rng = random.Random(106)
    wild = make_induced(Automorphism.ID,
                        random_non_unitary_invertible(cfg_n, rng))
    ok = check_rank_one_map_k_preservation(wild, cfg_n).passed
    witness = find_spectrum_witness(
        flip_map(3), TrialConfig(n=3, k=4, seed=106), budget=2000,
        rank_one_only=True)
    ok = ok and witness is not None
    ok = ok and all(p.rank == 1 for p in witness.projs)
    unitary = make_unitary_conj(random_unitary(cfg_n, rng))
    cfg_up = TrialConfig(n=3, k=4, trials=100, seed=106)
    ok = ok and check_rank_one_map_k_preservation(unitary, cfg_up).passed
    budget.done(ok)


def test_acceptance_7_sum_identity():
    budget = Budget("criterion 7, two-projection sum identity", 30)
    report = check_two_projection_sum_identity(
        TrialConfig(n=3, trials=100, seed=107))
    budget.done(report.passed and report.counters["pinned"] == 10)


def test_acceptance_8_extension_consistency():
    budget = Budget("criterion 8, extension consistency", 60)
    ok = True
    for m in _four_map_families(3, 108):
        report = check_extension_consistency(
            m, TrialConfig(n=3, trials=50, seed=108))
        ok = ok and report.passed
        if m.describe() != "induced(id)":
            ok = ok and report.counters["sum-undefined"] == 0
    budget.done(ok)


def test_acceptance_9_oracle_equivalence():
    budget = Budget("criterion 9, DP vs Leibniz oracles", 60)
    ok = True
    rng = random.Random(109)
    for _ in range(50):
        n = rng.randint(2, 4)
        k = rng.randint(1, 3)
        cfg = TrialConfig(n=n, k=k, seed=109)
        projs = [random_projection(cfg, rng.randint(0, n), rng)
                 for _ in range(k)]
        ok = ok and pencil_poly(projs).pencil == pencil_poly_leibniz(projs)
    pool = TrialConfig(n=2, seed=109).entry_pool
    for _ in range(200):
        n = rng.randint(1, 5)
        mat = Matrix([[rng.choice(pool) for _ in range(n)]
                      for _ in range(n)], K)
        ok = ok and mat.det() == det_leibniz(mat)
    budget.done(ok)


def test_acceptance_10_performance_and_determinism():
    budget = Budget("criterion 10, n=6 pencil speed and determinism", 30)
    cfg = TrialConfig(n=6, k=3, seed=110)
    rng = trial_rng(110, 0)
    projs = [random_projection(cfg, rng.randint(1, 5), rng)
             for _ in range(3)]
    start = time.perf_counter()
    spectrum = pencil_poly(projs)
    elapsed = time.perf_counter() - start
    ok = elapsed < 10
    ok = ok and (spectrum.is_full() or
                 spectrum.pencil.total_degree() == 6)
    fast = TrialConfig(n=3, k=2, trials=40, seed=110)
    first = check_pair_equivalences(fast)
    second = check_pair_equivalences(fast)
    ok = ok and first.render() == second.render()
    ok = ok and json.dumps(first.to_json(), sort_keys=True) == \
        json.dumps(second.to_json(), sort_keys=True)
    rerun = pencil_poly(projs)
    ok = ok and rerun.pencil == spectrum.pencil
    budget.done(ok)
