"""Release gate: one test per top-level acceptance criterion.

Each test prints a single PASS/FAIL line with the measured quantity so a
plain `pytest -s tests/test_acceptance.py` doubles as a scorecard.
"""

import time

import numpy as np
import pytest
from conftest import central_diff_grads, worst_relative_gap

from a2cf.config import RunConfig, TrainConfig
from a2cf.data import (Corpus, build_triplets, filter_corpus, load_lexicon,
                       load_reviews, load_substitutes, split_triplets)
from a2cf.evaluation import atc, evaluate_protocol, map_attributes, ndcg_at_k
from a2cf.interpret import attribute_advantage
from a2cf.matrices import build_matrices, item_attr_value, user_attr_value
from a2cf.network import (init_params, phase1_forward_backward,
                          predict_item_attr_batch, predict_user_attr_batch,
                          tanh_rescaled)
from a2cf.ranking import (EstimatedMatrices, attention,
                          bpr_s_forward_backward, estimate_matrices,
                          recommend_top_k, score_candidates)
from a2cf.synthetic import SyntheticSpec, generate_synthetic
from a2cf.training import load_checkpoint, save_checkpoint, train_pipeline
from a2cf.evaluation import write_metrics_report


def report(criterion: int, ok: bool, detail: str) -> str:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


# ------------------------------------------------- 1. gradient correctness

def test_criterion_1_gradients_match_finite_differences():
    started = time.perf_counter()
    cfg = TrainConfig(embed_dim=4, tower_depth=2, dropout=0.0,
                      subst_weight=0.6, subst_temp=2.0, pers_temp=3.0)
    # init seed chosen so every tower pre-activation sits far from the relu
    # kink relative to the finite-difference step, keeping the oracle valid
    params = init_params(5, 6, 6, cfg, 91)
    user_cells = (np.array([0, 2, 4]), np.array([1, 3, 5]),
                  np.array([2.5, 4.0, 1.5]))
    item_cells = (np.array([1, 3]), np.array([0, 2]), np.array([3.5, 2.0]))

    def regression_loss():
        return phase1_forward_backward(params, user_cells, item_cells,
                                       dropout=0.0, rng=None)[0]

    _, analytic = phase1_forward_backward(params, user_cells, item_cells,
                                          dropout=0.0, rng=None)
    gap_p1 = worst_relative_gap(analytic,
                                central_diff_grads(params, regression_loss))

    rng = np.random.default_rng(17)
    est = EstimatedMatrices(user_attr=rng.uniform(1, 5, (5, 6)),
                            item_attr=rng.uniform(1, 5, (6, 6)))
    users = np.array([0, 2])
    queries = np.array([1, 4])
    positives = np.array([2, 0])
    negatives = np.array([3, 5])

    def ranking_loss():
        return bpr_s_forward_backward(params, est, cfg, users, queries,
                                      positives, negatives)[0]

    _, analytic2 = bpr_s_forward_backward(params, est, cfg, users, queries,
                                          positives, negatives)
    gap_p2 = worst_relative_gap(analytic2,
                                central_diff_grads(params, ranking_loss))
    elapsed = time.perf_counter() - started
    ok = gap_p1 < 1e-4 and gap_p2 < 1e-4 and elapsed < 10.0
    detail = (f"regression gap {gap_p1:.2e}, ranking gap {gap_p2:.2e}, "
              f"{elapsed:.1f}s")
    report(1, ok, detail)
    assert ok, detail


# ---------------------------------------------------- 2. closed-form oracles

USER_VALUE_CASES = [
    (1, 5, 2.8484686290400390),
    (2, 5, 4.0463766238230596),
    (3, 5, 4.6205930145794658),
    (4, 5, 4.8561103203032675),
    (5, 5, 4.9464571926057212),
    (7, 5, 4.9927115904447948),
    (2, 10, 7.8543474036018840),
    (3, 10, 9.1463342828037979),
    (1, 3, 1.9242343145200195),
    (6, 8, 7.9653832758071132),
    (9, 5, 4.9990128433921101),
]

ITEM_VALUE_CASES = [
    (1, 1.0, 5, 3.9242343145200195),
    (1, -1.0, 5, 2.0757656854799805),
    (2, 1.0, 5, 4.5231883119115298),
    (2, -0.5, 5, 2.0757656854799805),
    (3, 0.25, 5, 3.7167147967015719),
    (4, -0.25, 5, 2.0757656854799805),
    (5, 1.0, 5, 4.9732285963028606),
    (2, 1.0, 10, 8.9271737018009420),
    (3, -1.0, 10, 1.4268328585981010),
    (1, 0.5, 3, 2.2449186624037091),
    (6, 0.75, 8, 7.9230914015858477),
]

TANH_RESCALED_CASES = [
    (0.0, 5, 3.0000000000000000),
    (0.2, 5, 3.3947506404498080),
    (-0.2, 5, 2.6052493595501920),
    (1.0, 5, 4.5231883119115298),
    (-1.0, 5, 1.4768116880884702),
    (2.0, 5, 4.9280551601516338),
    (-3.0, 5, 1.0098904926265391),
    (0.5, 10, 7.5795272076700439),
    (-0.75, 10, 2.6418297142572071),
    (1.5, 3, 2.9051482536448664),
    (4.0, 5, 4.9986585994781341),
]

ATTENTION_CASES = [
    ((1, 2, 3), 1.0,
     (0.090030573170380458, 0.24472847105479765, 0.66524095577482189)),
    ((1, 2, 3), 2.0,
     (0.18632372322584758, 0.30719588571849840, 0.50648039105565403)),
    ((0, 0, 0, 0), 1.0, (0.25, 0.25, 0.25, 0.25)),
    ((1, 2, 3, 4), 1.0,
     (0.032058603280084988, 0.087144318742032567, 0.23688281808991013,
      0.64391425988797231)),
    ((-1, 0, 1), 0.5,
     (0.015876239976466766, 0.11731042782619836, 0.86681333219733487)),
    ((2.5, 0.5), 1.0, (0.88079707797788244, 0.11920292202211756)),
    ((10, 9.5, 9.0), 0.25,
     (0.86681333219733487, 0.11731042782619836, 0.015876239976466766)),
    ((0.1, 0.2, 0.3, 0.4), 0.1,
     (0.032058603280084991, 0.087144318742032573, 0.23688281808991008,
      0.64391425988797235)),
    ((5, 5, 5), 3.0,
     (0.33333333333333333, 0.33333333333333333, 0.33333333333333333)),
    ((-2, -4, -6, -8), 2.0,
     (0.64391425988797231, 0.23688281808991013, 0.087144318742032567,
      0.032058603280084988)),
]

DELTA_CASES = [
    ((0.5, 2.0, 1.25), (1.5, 3.0, 2.25), (2.25, 1.0, 4.5),
     (0.375, -4.0, 2.8125)),
    ((1.0, 1.0, 1.0), (2.0, 2.0, 2.0), (3.0, 1.0, 2.0), (1.0, -1.0, 0.0)),
    ((0.25, 0.5, 4.0), (1.0, 1.0, 1.0), (1.5, 0.5, 1.25),
     (0.125, -0.25, 1.0)),
    ((2.0, 0.125), (4.5, 3.0), (1.5, 3.5), (-6.0, 0.0625)),
    ((1.75, 2.5, 0.5, 3.0), (2.0, 2.0, 2.0, 2.0), (2.5, 1.5, 3.75, 2.0),
     (0.875, -1.25, 0.875, 0.0)),
    ((3.0,), (4.75,), (1.25,), (-10.5,)),
    ((0.5, 0.5), (4.0, 1.0), (1.0, 4.0), (-1.5, 1.5)),
    ((1.5, 2.25, 3.125), (2.5, 2.5, 2.5), (2.5, 3.0, 1.0),
     (0.0, 1.125, -4.6875)),
    ((4.0, 0.0625), (1.0, 2.0), (3.5, 3.0), (10.0, 0.0625)),
    ((2.0, 2.0, 2.0), (1.25, 4.75, 3.5), (4.0, 0.25, 3.5),
     (5.5, -9.0, 0.0)),
]

MAP_CASES = [
    ((1,), 1.0),
    ((2,), 0.5),
    ((1, 3), 0.8333333333333334),
    ((2, 3, 5), 0.5888888888888889),
    ((1, 2, 3), 1.0),
    ((4,), 0.25),
    ((1, 10), 0.6),
    ((3, 4), 0.4166666666666667),
    ((5, 6, 7), 0.32063492063492066),
    ((2, 8), 0.375),
    ((1, 2, 9, 10), 0.6833333333333333),
]

NDCG_CASES = [
    (1, 1.0), (2, 0.63092975357145744), (3, 0.5), (4, 0.43067655807339305),
    (5, 0.38685280723454159), (6, 0.35620718710802218),
    (7, 0.33333333333333333), (8, 0.31546487678572872),
    (9, 0.3010299956639812), (10, 0.28906482631788786),
    (11, 0.27894294565112984), (12, 0.27023815442731974),
]

ATC_CASES = [
    (0.5, 0.5, 0.5),
    (1.0, 0.5, 0.66666666666666667),
    (0.0, 0.3, 0.0),
    (0.25, 0.75, 0.375),
    (1.0, 1.0, 1.0),
    (0.0, 0.0, 0.0),
    (0.1, 0.9, 0.18000000000000001),
    (0.6, 0.4, 0.48000000000000001),
    (0.33, 0.66, 0.44000000000000002),
    (0.05, 0.95, 0.095000000000000005),
    (0.8, 0.2, 0.32000000000000002),
]


def test_criterion_2_closed_form_oracles():
    worst = 0.0
    cases = 0

    def check(err):
        nonlocal worst, cases
        worst = max(worst, float(err))
        cases += 1

    for t, n, expected in USER_VALUE_CASES:
        check(abs(user_attr_value(t, n) - expected))
    for t, s, n, expected in ITEM_VALUE_CASES:
        check(abs(item_attr_value(t, s, n) - expected))
    for r, n, expected in TANH_RESCALED_CASES:
        check(abs(tanh_rescaled(r, n) - expected))
    ones = {k: np.ones(k) for k in (1, 2, 3, 4)}
    for logits, temp, expected in ATTENTION_CASES:
        row = np.array(logits, dtype=np.float64)
        for got in (attention(row, ones[len(row)], temp),
                    attention(ones[len(row)], row, temp)):
            check(np.abs(got - np.array(expected)).max())
    for x, yq, yj, expected in DELTA_CASES:
        adv = attribute_advantage(np.array(x), np.array(yq), np.array(yj))
        check(np.abs(adv.deltas - np.array(expected)).max())
    ranking = list(range(12))
    for relevant_ranks, expected in MAP_CASES:
        got = map_attributes(ranking, {r - 1 for r in relevant_ranks})
        check(abs(got - expected))
    for rank, expected in NDCG_CASES:
        check(abs(ndcg_at_k(ranking, rank - 1, 12) - expected))
    for m, n, expected in ATC_CASES:
        check(abs(atc([m], [n]) - expected))

    ok = worst < 1e-9 and cases >= 70
    detail = f"{cases} oracle cases, max abs err {worst:.2e}"
    report(2, ok, detail)
    assert ok, detail


# ------------------------------------------- 3. ranking oracle equivalence

def test_criterion_3_top_k_equals_exhaustive_sort():
    cfg = TrainConfig(embed_dim=8, tower_depth=1, dropout=0.0)
    params = init_params(50, 250, 12, cfg, 23)
    flat = init_params(50, 250, 12, cfg, 23)
    flat.subst_proj[:] = 0.0
    flat.pers_proj[:] = 0.0          # constant scores force pure tie-breaks
    rng17 = np.random.default_rng(17)
    est = EstimatedMatrices(user_attr=rng17.uniform(1, 5, (50, 12)),
                            item_attr=rng17.uniform(1, 5, (250, 12)))
    mismatches = 0
    for i in range(100):
        rng = np.random.default_rng(4000 + i)
        user = int(rng.integers(50))
        query = int(rng.integers(250))
        cands = rng.choice(250, size=200, replace=False).astype(np.int64)
        k = int(rng.integers(1, 201))
        p = flat if i % 10 == 0 else params
        scores = score_candidates(p, est, cfg, user, query, cands)
        order = sorted(range(len(cands)),
                       key=lambda j: (-scores[j], cands[j]))
        expected_items = [int(cands[j]) for j in order[:k]]
        expected_scores = [scores[j] for j in order[:k]]
        got = recommend_top_k(p, est, cfg, user, query, cands, k)
        if (list(got.items) != expected_items
                or not np.array_equal(np.asarray(got.scores),
                                      np.asarray(expected_scores))):
            mismatches += 1
    ok = mismatches == 0
    detail = f"{mismatches} mismatches over 100 contexts of 200 candidates"
    report(3, ok, detail)
    assert ok, detail


# --------------------------------------- 4/5. planted-structure experiments

BASE_HYPERS = dict(embed_dim=8, subst_weight=0.8, subst_temp=8.0,
                   pers_temp=4.0, learning_rate=1e-3, dropout=0.4)

VARIANTS = {
    "full": {},
    "personalization_only": {"subst_weight": 0.0},
    "substitution_only": {"subst_weight": 1.0},
    "no_substitution_attrs": {"subst_use_attrs": False},
    "no_personalization_attrs": {"pers_use_attrs": False},
}


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    out = tmp_path_factory.mktemp("planted")
    spec = SyntheticSpec(interactions_per_user=22, home_clusters=5)
    paths = generate_synthetic(spec, 55, str(out))
    corpus = filter_corpus(load_reviews(paths["reviews"]),
                           load_lexicon(paths["lexicon"]),
                           load_substitutes(paths["substitutes"]))
    triplets = build_triplets(corpus, np.random.default_rng(56))
    splits = split_triplets(triplets, 57, ratios=(0.65, 0.1, 0.25))
    return corpus, splits, {}


def trained_hr(planted, variant: str, seed: int) -> float:
    corpus, splits, cache = planted
    key = (variant, seed)
    if key not in cache:
        hypers = dict(BASE_HYPERS)
        hypers.update(VARIANTS[variant])
        cfg = TrainConfig(**hypers)
        run = RunConfig(train=cfg, seed=seed, rounds_max=2,
                        phase1_steps=600, phase2_steps=400,
                        convergence_tol=0.0)
        result = train_pipeline(corpus, splits, run)
        rep = evaluate_protocol(result.params, result.est, cfg, corpus,
                                splits.test, seed=seed + 9000,
                                negatives=1000)
        cache[key] = rep.metrics["HR@10"]
    return cache[key]


def test_criterion_4_planted_structure_recovery(planted):
    corpus, _, _ = planted
    assert (corpus.n_users, corpus.n_items, corpus.n_attrs) == (200, 300, 30)
    started = time.perf_counter()
    hr = trained_hr(planted, "full", 101)
    elapsed = time.perf_counter() - started
    ok = hr >= 0.05 and elapsed < 600.0
    detail = f"HR@10 {hr:.4f} (threshold 0.05), {elapsed:.0f}s"
    report(4, ok, detail)
    assert ok, detail


def test_criterion_5_every_ablation_strictly_lower(planted):
    seeds = (101, 202, 303)
    means = {variant: float(np.mean([trained_hr(planted, variant, s)
                                     for s in seeds]))
             for variant in VARIANTS}
    full = means.pop("full")
    ok = all(mean < full for mean in means.values())
    gaps = ", ".join(f"{name} -{full - mean:.4f}"
                     for name, mean in means.items())
    detail = f"full {full:.4f} vs {gaps} (3-seed means)"
    report(5, ok, detail)
    assert ok, detail


# ----------------------------------------------------- 6. invariant suite

def test_criterion_6_invariant_suite(small_trained, synth_corpus,
                                     synth_splits, tmp_path):
    corpus, splits, run, result = small_trained
    params, est = result.params, result.est
    cfg = run.train
    failures = []

    def check(name, ok):
        if not ok:
            failures.append(name)

    users, attrs = np.meshgrid(np.arange(corpus.n_users),
                               np.arange(corpus.n_attrs), indexing="ij")
    uv = predict_user_attr_batch(params, users.ravel(), attrs.ravel())
    items, iattrs = np.meshgrid(np.arange(corpus.n_items),
                                np.arange(corpus.n_attrs), indexing="ij")
    iv = predict_item_attr_batch(params, items.ravel(), iattrs.ravel())
    check("prediction_range",
          uv.min() > 1.0 and uv.max() < 5.0
          and iv.min() > 1.0 and iv.max() < 5.0)

    rng = np.random.default_rng(12)
    worst_norm = 0.0
    for _ in range(50):
        q, j = rng.integers(corpus.n_items, size=2)
        u = int(rng.integers(corpus.n_users))
        phi = attention(est.item_attr[q], est.item_attr[j], cfg.subst_temp)
        lam = attention(est.user_attr[u], est.item_attr[j], cfg.pers_temp)
        worst_norm = max(worst_norm, abs(phi.sum() - 1.0),
                         abs(lam.sum() - 1.0))
    check("attention_normalization", worst_norm < 1e-9)

    user_mat, item_mat = build_matrices(corpus)
    observed_ok = all(
        np.array_equal(full[mat != 0.0], mat[mat != 0.0])
        for full, mat in ((est.user_attr, user_mat),
                          (est.item_attr, item_mat)))
    check("observed_cells_kept_verbatim", observed_ok)

    anti_ok = True
    scale_ok = True
    for _ in range(20):
        u = int(rng.integers(corpus.n_users))
        q, j = (int(x) for x in rng.integers(corpus.n_items, size=2))
        fwd = attribute_advantage(est.user_attr[u], est.item_attr[q],
                                  est.item_attr[j])
        rev = attribute_advantage(est.user_attr[u], est.item_attr[j],
                                  est.item_attr[q])
        anti_ok = anti_ok and np.array_equal(fwd.deltas, -rev.deltas)
        scaled = attribute_advantage(3.7 * est.user_attr[u],
                                     est.item_attr[q], est.item_attr[j])
        scale_ok = scale_ok and np.array_equal(fwd.ranking, scaled.ranking)
    check("advantage_antisymmetry", anti_ok)
    check("advantage_scale_invariant_ranking", scale_ok)

    again = estimate_matrices(user_mat, item_mat, params)
    check("estimation_deterministic",
          np.array_equal(est.user_attr, again.user_attr)
          and np.array_equal(est.item_attr, again.item_attr))

    save_checkpoint(str(tmp_path / "model.ckpt"), params, cfg)
    loaded, _, _ = load_checkpoint(str(tmp_path / "model.ckpt"))
    check("checkpoint_roundtrip", all(
        t.shape == getattr(loaded, name).shape and np.array_equal(
            t.view(np.uint64), getattr(loaded, name).view(np.uint64))
        for name, t in params.tensors().items()))

    paths = []
    for rerun in ("a", "b"):
        rr = RunConfig(train=TrainConfig(embed_dim=8, dropout=0.2),
                       seed=77, rounds_max=1, phase1_steps=25,
                       phase2_steps=15, convergence_tol=0.0)
        res = train_pipeline(synth_corpus, synth_splits, rr)
        rep = evaluate_protocol(res.params, res.est, rr.train, synth_corpus,
                                synth_splits.test, seed=5, negatives=100)
        path = tmp_path / f"metrics_{rerun}.txt"
        write_metrics_report(str(path), rep)
        paths.append(path)
    check("end_to_end_seed_determinism",
          paths[0].read_bytes() == paths[1].read_bytes())

    ok = not failures
    detail = "8 invariants hold" if ok else f"failed: {', '.join(failures)}"
    report(6, ok, detail)
    assert ok, detail


# ----------------------------------------------------- 7. protocol sanity

def test_criterion_7_protocol_calibration():
    n_items = 1010
    corpus = Corpus(user_tokens=["u0"],
                    item_tokens=[f"i{k:04d}" for k in range(n_items)],
                    attr_tokens=["a0", "a1"],
                    interactions=np.array([[0, 0]], dtype=np.int64),
                    lexicon=np.array([[0, 0, 0, 1]], dtype=np.int64),
                    substitute_pairs=np.empty((0, 2), dtype=np.int64))
    est = EstimatedMatrices(user_attr=np.ones((1, 2)),
                            item_attr=np.ones((n_items, 2)))
    rng = np.random.default_rng(88)
    cases = 5000
    test = np.stack([np.zeros(cases, dtype=np.int64),
                     rng.integers(n_items, size=cases),
                     rng.integers(n_items, size=cases)], axis=1)

    def random_scorer(u, q, cands, case_rng):
        return case_rng.random(len(cands))

    def oracle_scorer(u, q, cands, case_rng):
        scores = np.zeros(len(cands))
        scores[0] = 1.0              # the protocol puts the positive first
        return scores

    noisy = evaluate_protocol(None, est, None, corpus, test, seed=13,
                              negatives=1000, scorer=random_scorer)
    hr = noisy.metrics["HR@10"]
    p0 = 10.0 / 1001.0
    band = 3.0 * np.sqrt(p0 * (1.0 - p0) / cases)
    random_ok = abs(hr - p0) <= band

    perfect = evaluate_protocol(None, est, None, corpus, test, seed=13,
                                negatives=1000, scorer=oracle_scorer)
    oracle_ok = all(perfect.metrics[f"{name}@{k}"] == 1.0
                    for name in ("HR", "NDCG") for k in (5, 10, 20, 50))
    ok = random_ok and oracle_ok
    detail = (f"random HR@10 {hr:.5f} in {p0:.5f}±{band:.5f}; "
              f"oracle metrics all 1.0: {oracle_ok}")
    report(7, ok, detail)
    assert ok, detail
