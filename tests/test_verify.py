"""Trial suites: determinism, pass/fail behavior, witness search."""

import json
import random

import pytest

from jspec.exactla import Matrix
from jspec.maps import make_induced, make_unitary_conj, map_from_json
from jspec.scalar import Automorphism, FieldContext
from jspec.spectrum import pencil_poly, tuple_from_json, zero_set_equal
from jspec.verify import (
    MAX_K,
    MAX_N,
    TrialConfig,
    Violation,
    Witness,
    check_det_automorphism,
    check_extension_consistency,
    check_map_morphism,
    check_map_preservation,
    check_pair_equivalences,
    check_rank_join_preservation,
    check_rank_one_classification,
    check_rank_one_map_k_preservation,
    check_small_rank_one_fullness,
    check_two_projection_sum_identity,
    default_entry_pool,
    find_spectrum_witness,
    random_invertible,
    random_non_unitary_invertible,
    random_projection,
    random_unitary,
    trial_rng,
)

K = FieldContext(2)


def flip_map(n):
    return make_induced(Automorphism.FLIP, Matrix.identity(n, K))


# -- config and generators --------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(n=1)
    with pytest.raises(ValueError):
        TrialConfig(n=3, trials=0)
    with pytest.raises(ValueError):
        TrialConfig(n=3, k=0)
    with pytest.raises(ValueError, match="at most"):
        TrialConfig(n=MAX_N + 1)
    with pytest.raises(ValueError, match="at most"):
        TrialConfig(n=3, k=MAX_K + 1)
    assert TrialConfig(n=MAX_N, k=MAX_K).n == MAX_N
    assert len(default_entry_pool(K)) == 13
    with pytest.raises(TypeError):
        TrialConfig(n=3, entry_pool=(1, -1))


def test_random_projection_rank_and_determinism():
    cfg = TrialConfig(n=4, seed=7)
    for rank in range(5):
        p = random_projection(cfg, rank, trial_rng(cfg.seed, 3))
        q = random_projection(cfg, rank, trial_rng(cfg.seed, 3))
        assert p.rank == rank
        assert p == q
    with pytest.raises(ValueError):
        random_projection(cfg, 5, trial_rng(cfg.seed, 0))


def test_random_matrix_generators():
    for n in range(2, 7):
        for d in (2, 3, 5, 999999937):
            cfg = TrialConfig(n=n, seed=11, d=d)
            rng = trial_rng(cfg.seed, 0)
            for _ in range(20):
                u = random_unitary(cfg, rng)
                assert u.conj_transpose() * u == Matrix.identity(n, cfg.ctx)
                assert random_invertible(cfg, rng).det()
                b = random_non_unitary_invertible(cfg, rng)
                gram = b.conj_transpose() * b
                assert gram != Matrix.diag([gram[0, 0]] * n, cfg.ctx)


# -- report plumbing ---------------------------------------------------------------


def test_reports_are_deterministic():
    cfg = TrialConfig(n=3, trials=25, seed=5)
    for suite in (check_pair_equivalences, check_det_automorphism,
                  check_two_projection_sum_identity, check_map_morphism):
        a, b = suite(cfg), suite(cfg)
        assert a.render() == b.render()
        assert json.dumps(a.to_json(), sort_keys=True) == \
            json.dumps(b.to_json(), sort_keys=True)


def test_report_render_shape():
    cfg = TrialConfig(n=3, trials=10, seed=5)
    report = check_pair_equivalences(cfg)
    text = report.render()
    assert text.splitlines()[0] == "suite: pairs"
    assert "config: n=3 k=2 trials=10 seed=5 d=2" in text
    assert text.splitlines()[-1] == "passed 10/10"
    assert report.passed
    form = report.to_json()
    assert form["passed"] is True and form["violations"] == []


def test_violation_fields_render():
    v = Violation(3, 5000015, "boom", {"x": 1})
    assert "trial 3 seed 5000015" in v.render()
    assert v.as_dict()["message"] == "boom"


# -- positive suites ---------------------------------------------------------------


def test_pair_equivalences_pass():
    for n in (2, 3, 4):
        assert check_pair_equivalences(
            TrialConfig(n=n, trials=40, seed=2)).passed


def test_rank_one_classification_passes_and_sees_both_classes():
    cfg = TrialConfig(n=3, k=3, trials=40, seed=3)
    report = check_rank_one_classification(cfg)
    assert report.passed
    assert report.counters["full"] >= 4
    assert report.counters["coordinate-hyperplanes"] > 0
    with pytest.raises(ValueError):
        check_rank_one_classification(TrialConfig(n=3, k=2))


def test_det_automorphism_passes():
    assert check_det_automorphism(TrialConfig(n=5, trials=40, seed=4)).passed


def test_map_morphism_passes():
    assert check_map_morphism(TrialConfig(n=3, trials=30, seed=6)).passed
    pinned = check_map_morphism(TrialConfig(n=3, trials=10, seed=6),
                                m=flip_map(3))
    assert pinned.passed
    assert pinned.map_label == "induced(flip)"


def test_sum_identity_passes_with_pinned_instances():
    report = check_two_projection_sum_identity(
        TrialConfig(n=3, trials=30, seed=8))
    assert report.passed
    assert report.counters["pinned"] == 3


def test_rank_join_preservation_passes():
    cfg = TrialConfig(n=3, k=4, trials=30, seed=9)
    rng = random.Random(99)
    for m in (make_unitary_conj(random_unitary(cfg, rng)),
              flip_map(3),
              make_induced(Automorphism.ID,
                           random_non_unitary_invertible(cfg, rng))):
        assert check_rank_join_preservation(m, cfg).passed


def test_extension_consistency():
    cfg = TrialConfig(n=3, trials=30, seed=10)
    rng = random.Random(100)
    unitary = make_unitary_conj(random_unitary(cfg, rng))
    report = check_extension_consistency(unitary, cfg)
    assert report.passed
    assert report.counters["sum-undefined"] == 0
    wild = make_induced(Automorphism.ID,
                        Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]], K))
    report = check_extension_consistency(wild, cfg)
    assert report.passed
    assert report.counters["sum-undefined"] > 0


def test_small_rank_one_fullness():
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 2)):
        cfg = TrialConfig(n=n, k=k, trials=20, seed=11)
        assert check_small_rank_one_fullness(cfg).passed
    with pytest.raises(ValueError):
        check_small_rank_one_fullness(TrialConfig(n=3, k=3))


# -- preservation and its failure --------------------------------------------------


def test_pairs_preserved_by_every_map_kind():
    cfg = TrialConfig(n=3, k=2, trials=25, seed=12)
    rng = random.Random(200)
    for m in (make_unitary_conj(random_unitary(cfg, rng)),
              make_unitary_conj(random_unitary(cfg, rng), anti=True),
              flip_map(3),
              make_induced(Automorphism.ID,
                           random_non_unitary_invertible(cfg, rng))):
        report = check_map_preservation(m, cfg)
        assert report.passed
        assert report.counters["preserved"] == cfg.trials


def test_triples_break_for_wild_map():
    cfg = TrialConfig(n=3, k=3, trials=25, seed=13)
    report = check_map_preservation(flip_map(3), cfg)
    assert not report.passed
    buckets = report.counters
    assert buckets["shrunk-strictly"] + buckets["incomparable"] == \
        len(report.violations)


def test_violation_payload_reproduces():
    cfg = TrialConfig(n=3, k=3, trials=25, seed=13)
    report = check_map_preservation(flip_map(3), cfg)
    payload = report.violations[0].data["witness"]
    projs = tuple_from_json(payload["tuple"])
    m = map_from_json(payload["map"])
    images = [m.apply(p) for p in projs]
    assert not zero_set_equal(pencil_poly(projs), pencil_poly(images))


def test_rank_one_k_preservation_splits_by_map_form():
    base = dict(trials=20, seed=14)
    cfg_eq = TrialConfig(n=3, k=3, **base)
    rng = random.Random(300)
    wild = make_induced(Automorphism.ID,
                        random_non_unitary_invertible(cfg_eq, rng))
    assert check_rank_one_map_k_preservation(wild, cfg_eq).passed
    cfg_up = TrialConfig(n=3, k=4, **base)
    unitary = make_unitary_conj(random_unitary(cfg_up, rng))
    assert check_rank_one_map_k_preservation(unitary, cfg_up).passed
    flip_report = check_rank_one_map_k_preservation(flip_map(3), cfg_up)
    assert not flip_report.passed
    with pytest.raises(ValueError):
        check_rank_one_map_k_preservation(flip_map(3), TrialConfig(n=4, k=3))


# -- witness search ----------------------------------------------------------------


def test_flip_witness_found_structurally():
    cfg = TrialConfig(n=3, k=3, seed=15)
    witness = find_spectrum_witness(flip_map(3), cfg, budget=0)
    assert witness is not None
    assert witness.original.sf() != witness.image.sf()
    text = witness.render()
    assert "induced(flip)" in text and "squarefree" in text


def test_flip_rank_one_witness_found_structurally():
    cfg = TrialConfig(n=3, k=4, seed=16)
    witness = find_spectrum_witness(flip_map(3), cfg, budget=0,
                                    rank_one_only=True)
    assert witness is not None
    assert all(p.rank == 1 for p in witness.projs)


def test_unitary_map_yields_no_witness():
    cfg = TrialConfig(n=3, k=3, seed=17)
    rng = random.Random(400)
    m = make_unitary_conj(random_unitary(cfg, rng))
    assert find_spectrum_witness(m, cfg, budget=30) is None
    assert find_spectrum_witness(m, TrialConfig(n=3, k=4, seed=17),
                                 budget=20, rank_one_only=True) is None


def test_witness_search_rejects_pairs():
    with pytest.raises(ValueError):
        find_spectrum_witness(flip_map(3), TrialConfig(n=3, k=2), budget=5)


def test_witness_requires_disagreement():
    cfg = TrialConfig(n=3, k=3, seed=18)
    rng = trial_rng(cfg.seed, 0)
    projs = [random_projection(cfg, 1, rng) for _ in range(3)]
    spectrum = pencil_poly(projs)
    with pytest.raises(ValueError):
        Witness(projs, flip_map(3), spectrum, spectrum)


def test_witness_json_embeds_reconstructible_parts():
    cfg = TrialConfig(n=3, k=3, seed=19)
    witness = find_spectrum_witness(flip_map(3), cfg, budget=0)
    form = witness.to_json()
    projs = tuple_from_json(form["tuple"])
    assert [p.rank for p in projs] == [p.rank for p in witness.projs]
    assert form["d"] == 2 and form["k"] == 3 and form["n"] == 3
    assert form["squarefree"] != form["squarefree-image"]


def test_witness_json_round_trip_rebuilds_the_verdict():
    # the flip witness of acceptance criterion 5
    cfg = TrialConfig(n=3, k=3, seed=105)
    witness = find_spectrum_witness(flip_map(3), cfg, budget=1000)
    form = json.loads(json.dumps(witness.to_json()))
    projs = tuple(tuple_from_json(form["tuple"]))
    m = map_from_json(form["map"])
    assert projs == witness.projs
    assert type(m) is type(witness.m)
    assert m.f is witness.m.f and m.b == witness.m.b
    original = pencil_poly(projs)
    image = pencil_poly([m.apply(p) for p in projs])
    assert original.pencil == witness.original.pencil
    assert image.pencil == witness.image.pencil
    assert not zero_set_equal(original, image)
    assert Witness(projs, m, original, image).to_json() == form
