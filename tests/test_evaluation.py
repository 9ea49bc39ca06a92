"""Ranking metrics and the sampled-negative evaluation protocol."""

import numpy as np
import pytest

from a2cf import evaluation
from a2cf.data import Corpus
from a2cf.evaluation import (ProtocolReport, atc, evaluate_protocol,
                             hr_at_k, map_attributes,
                             ndcg_at_k, relevant_attributes,
                             sample_negative_pool, write_metrics_report)
from a2cf.interpret import attribute_advantage
from a2cf.ranking import EstimatedMatrices, rank_order

# 1/log2(rank+1) at ranks 1..12, high-precision reference
NDCG_BY_RANK = (1.0, 0.63092975357145744, 0.5, 0.43067655807339305,
                0.38685280723454159, 0.35620718710802218,
                0.33333333333333333, 0.31546487678572872,
                0.3010299956639812, 0.28906482631788786,
                0.27894294565112984, 0.27023815442731974)


def ranking_with_truth_at(rank, length=12):
    """Candidate list 0..length-1; ground truth sits at position `rank`."""
    return list(range(length)), rank - 1


# ---------------------------------------------------------------- hit ratio

def test_hr_basic_and_boundary():
    ranked, truth = ranking_with_truth_at(1)
    assert hr_at_k(ranked, truth, 5) == 1.0
    ranked, truth = ranking_with_truth_at(6)
    assert hr_at_k(ranked, truth, 5) == 0.0
    ranked, truth = ranking_with_truth_at(5)
    assert hr_at_k(ranked, truth, 5) == 1.0


def test_hr_missing_truth_error():
    with pytest.raises(ValueError, match="absent"):
        hr_at_k([3, 4, 5], 99, 5)


# --------------------------------------------------------------------- ndcg

def test_ndcg_reference_values():
    for rank, expected in enumerate(NDCG_BY_RANK, start=1):
        ranked, truth = ranking_with_truth_at(rank)
        assert ndcg_at_k(ranked, truth, 12) == pytest.approx(expected,
                                                             abs=1e-12)


def test_ndcg_rank_three_is_half():
    ranked, truth = ranking_with_truth_at(3)
    assert ndcg_at_k(ranked, truth, 10) == pytest.approx(0.5, abs=1e-12)


def test_ndcg_zero_past_cutoff():
    ranked, truth = ranking_with_truth_at(7)
    assert ndcg_at_k(ranked, truth, 5) == 0.0


def test_ndcg_monotone_in_rank_and_cutoff():
    vals = [ndcg_at_k(*ranking_with_truth_at(r), 12) for r in range(1, 13)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    ranked, truth = ranking_with_truth_at(4)
    by_k = [ndcg_at_k(ranked, truth, k) for k in (1, 2, 3, 4, 5, 12)]
    assert all(b >= a for a, b in zip(by_k, by_k[1:]))


# ---------------------------------------------------------------------- map

@pytest.mark.parametrize("relevant_ranks,expected", [
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
])
def test_map_reference_values(relevant_ranks, expected):
    ranking = list(range(12))
    relevant = {r - 1 for r in relevant_ranks}
    assert map_attributes(ranking, relevant) == pytest.approx(expected,
                                                              abs=1e-12)


def test_map_empty_relevant_set_is_zero():
    assert map_attributes(list(range(5)), set()) == 0.0


def test_map_truncation_drops_deep_hits_but_keeps_denominator(monkeypatch):
    ranking = list(range(600))
    monkeypatch.setattr(evaluation, "MAP_TRUNCATION", 500)
    assert map_attributes(ranking, {500}) == 0.0
    # one hit at rank 1, one past the truncation: AP = (1/1) / 2
    assert map_attributes(ranking, {0, 550}) == pytest.approx(0.5)
    monkeypatch.setattr(evaluation, "MAP_TRUNCATION", 600)
    assert map_attributes(ranking, {0, 550}) == pytest.approx(
        (1.0 + 2.0 / 551.0) / 2.0)


# ---------------------------------------------------------------------- atc

@pytest.mark.parametrize("map_score,ndcg_score,expected", [
    (0.5, 0.5, 0.5),
    (1.0, 0.5, 0.6666666666666666),
    (0.0, 0.3, 0.0),
    (0.25, 0.75, 0.375),
    (1.0, 1.0, 1.0),
    (0.0, 0.0, 0.0),
    (0.1, 0.9, 0.18),
    (0.6, 0.4, 0.48),
    (0.33, 0.66, 0.44),
    (0.05, 0.95, 0.095),
    (0.8, 0.2, 0.32),
])
def test_atc_single_case_table(map_score, ndcg_score, expected):
    assert atc([map_score], [ndcg_score]) == pytest.approx(expected, abs=1e-12)


def test_atc_two_case_mean():
    assert atc([1.0, 0.0], [0.5, 0.3]) == pytest.approx(
        0.3333333333333333, abs=1e-12)


def test_atc_per_case_bounds():
    rng = np.random.default_rng(2)
    maps = rng.uniform(0, 1, size=50)
    ndcgs = rng.uniform(0, 1, size=50)
    for m, n in zip(maps, ndcgs):
        h = atc([m], [n])
        assert min(m, n) - 1e-12 <= h <= max(m, n) + 1e-12
        assert h <= 2.0 * min(m, n) + 1e-12


def test_atc_validates_inputs():
    with pytest.raises(ValueError, match="1-D and aligned"):
        atc([0.5, 0.5], [0.5])
    with pytest.raises(ValueError, match="no cases"):
        atc([], [])


# -------------------------------------------------------------------- pools

def test_negative_pool_excludes_positive_without_replacement():
    rng = np.random.default_rng(3)
    for exclude in (0, 7, 19):
        pool = sample_negative_pool(rng, 20, exclude, 19)
        assert len(pool) == 19
        assert len(set(int(x) for x in pool)) == 19
        assert exclude not in pool
        assert set(int(x) for x in pool) == set(range(20)) - {exclude}


def test_negative_pool_partial_draw_stays_in_range():
    rng = np.random.default_rng(4)
    for _ in range(50):
        pool = sample_negative_pool(rng, 30, 11, 10)
        assert 11 not in pool
        assert pool.min() >= 0 and pool.max() < 30
        assert len(set(int(x) for x in pool)) == 10


def test_negative_pool_too_large_request_error():
    with pytest.raises(ValueError, match="cannot draw"):
        sample_negative_pool(np.random.default_rng(5), 10, 3, 10)


def test_relevant_attributes_from_lexicon(grid_corpus):
    rel = relevant_attributes(grid_corpus, np.array([0, 0, 3, 5]),
                              np.array([0, 1, 3, 0]))
    assert set(rel[0]) == {0, 1}        # uA on p0: battery, price
    assert set(rel[1]) == {0}           # uA on p1: battery
    assert set(rel[2]) == {2}           # uD on p3: screen
    assert len(rel[3]) == 0             # no lexicon row for (5, 0)


def dict_of_sets_relevant(corpus):
    """Reference: (user, item) -> set of attribute ids, one lexicon row at
    a time."""
    rel: dict = {}
    for u, v, a, _ in corpus.lexicon:
        rel.setdefault((int(u), int(v)), set()).add(int(a))
    return rel


@pytest.mark.parametrize("seed", range(8))
def test_relevant_attributes_equal_dict_of_sets_walk(seed):
    rng = np.random.default_rng(seed)
    n_users, n_items, n_attrs = (int(rng.integers(1, 6)),
                                 int(rng.integers(1, 9)),
                                 int(rng.integers(1, 5)))
    rows = int(rng.integers(0, 40))     # unsorted, with repeated rows
    lexicon = np.column_stack([rng.integers(n_users, size=rows),
                               rng.integers(n_items, size=rows),
                               rng.integers(n_attrs, size=rows),
                               rng.choice([-1, 1], size=rows)])
    corpus = Corpus(user_tokens=[f"u{u}" for u in range(n_users)],
                    item_tokens=[f"i{v}" for v in range(n_items)],
                    attr_tokens=[f"a{a}" for a in range(n_attrs)],
                    interactions=np.empty((0, 2), dtype=np.int64),
                    lexicon=lexicon.astype(np.int64),
                    substitute_pairs=np.empty((0, 2), dtype=np.int64))
    users = rng.integers(n_users, size=30)
    items = rng.integers(n_items, size=30)
    got = relevant_attributes(corpus, users, items)
    want = dict_of_sets_relevant(corpus)
    assert len(got) == 30
    for attrs, u, v in zip(got, users, items):
        assert set(attrs.tolist()) == want.get((int(u), int(v)), set())


# ----------------------------------------------------------------- protocol

def oracle_scorer(u, q, candidates, rng):
    # the protocol always places the positive at index 0
    scores = np.zeros(len(candidates))
    scores[0] = 1.0
    return scores


def test_protocol_oracle_scorer_is_perfect(grid_corpus):
    est = EstimatedMatrices(user_attr=np.ones((6, 3)),
                            item_attr=np.ones((6, 3)))
    test = np.array([(0, 1, 0), (2, 0, 2), (4, 3, 4)], dtype=np.int64)
    report = evaluate_protocol(None, est, None, grid_corpus, test, seed=5,
                               negatives=5, scorer=oracle_scorer)
    for k in (5, 10, 20, 50):
        assert report.metrics[f"HR@{k}"] == 1.0
        assert report.metrics[f"NDCG@{k}"] == 1.0
    assert report.cases == 3


def test_protocol_atc_hand_case(grid_corpus):
    est = EstimatedMatrices(user_attr=np.ones((6, 3)),
                            item_attr=np.ones((6, 3)))
    est.item_attr[0] = [1.0, 1.0, 3.0]   # positive p0 vs query p1 all-ones
    # deltas (0, 0, 2) rank attrs as (2, 0, 1); relevant for (uA, p0) is {0, 1}
    # so AP = (1/2 + 2/3) / 2; the oracle scorer pins ranking NDCG at 1
    test = np.array([(0, 1, 0)], dtype=np.int64)
    report = evaluate_protocol(None, est, None, grid_corpus, test, seed=6,
                               negatives=5, scorer=oracle_scorer)
    ap = (1.0 / 2.0 + 2.0 / 3.0) / 2.0
    expected = 2.0 * ap * 1.0 / (ap + 1.0)
    assert report.metrics["ATC"] == pytest.approx(expected, abs=1e-12)
    assert report.metrics["ATC"] == pytest.approx(14.0 / 19.0, abs=1e-12)


@pytest.mark.parametrize("value", [0.0, np.nan])
def test_protocol_positive_ties_break_toward_smaller_id(grid_corpus, value,
                                                        monkeypatch):
    """Every candidate scores `value`, so the positive p ranks behind the
    p smaller ids of the full pool: ranks 1, 3 and 5. NaN scores tie with
    each other the same way."""
    est = EstimatedMatrices(user_attr=np.ones((6, 3)),
                            item_attr=np.ones((6, 3)))
    test = np.array([(0, 1, 0), (2, 0, 2), (4, 3, 4)], dtype=np.int64)
    monkeypatch.setattr(evaluation, "CUTOFFS", (1, 3, 5))
    report = evaluate_protocol(None, est, None, grid_corpus, test, seed=5,
                               negatives=5,
                               scorer=lambda u, q, c, rng: np.full(len(c),
                                                                   value))
    assert [report.metrics[f"HR@{k}"] for k in (1, 3, 5)] == [
        1.0 / 3.0, 2.0 / 3.0, 1.0]
    assert report.metrics["NDCG@5"] == pytest.approx(
        (NDCG_BY_RANK[0] + NDCG_BY_RANK[2] + NDCG_BY_RANK[4]) / 3.0)


def test_protocol_nan_scores_rank_last(grid_corpus, monkeypatch):
    """A NaN positive ranks behind every scored negative, and a NaN
    negative never beats a scored positive."""
    est = EstimatedMatrices(user_attr=np.ones((6, 3)),
                            item_attr=np.ones((6, 3)))
    test = np.array([(0, 1, 0), (0, 1, 5)], dtype=np.int64)

    def scorer(u, q, cands, rng):
        return np.where(cands % 2 == 0, np.nan, -1.0)

    monkeypatch.setattr(evaluation, "CUTOFFS", (1, 3, 4))
    report = evaluate_protocol(None, est, None, grid_corpus, test, seed=5,
                               negatives=5, scorer=scorer)
    # p0 is NaN behind the scored 1, 3, 5 and no smaller NaN id: rank 4;
    # p5 scores -1 and ties with 1 and 3 only: rank 3
    assert [report.metrics[f"HR@{k}"] for k in (1, 3, 4)] == [0.0, 0.5, 1.0]


def test_protocol_pool_fallback_is_silent(grid_corpus, capsys, caplog):
    # the short pool shows in the report, not on stderr or in a log record
    est = EstimatedMatrices(user_attr=np.ones((6, 3)),
                            item_attr=np.ones((6, 3)))
    test = np.array([(0, 1, 0), (1, 2, 1)], dtype=np.int64)
    report = evaluate_protocol(None, est, None, grid_corpus, test, seed=7,
                               negatives=1000, scorer=oracle_scorer)
    assert (report.negatives, report.requested) == (5, 1000)
    assert capsys.readouterr().err == ""
    assert caplog.records == []


@pytest.mark.parametrize("requested,effective", [(3, 3), (5, 5), (1000, 5)])
def test_protocol_reports_effective_negatives(grid_corpus, requested,
                                              effective):
    est = EstimatedMatrices(user_attr=np.ones((6, 3)),
                            item_attr=np.ones((6, 3)))
    test = np.array([(0, 1, 0)], dtype=np.int64)
    report = evaluate_protocol(None, est, None, grid_corpus, test, seed=7,
                               negatives=requested, scorer=oracle_scorer)
    assert (report.negatives, report.requested) == (effective, requested)


def test_protocol_determinism_and_report_format(tmp_path, grid_corpus):
    est = EstimatedMatrices(user_attr=np.ones((6, 3)),
                            item_attr=np.ones((6, 3)))
    test = np.array([(0, 1, 0), (2, 0, 2)], dtype=np.int64)

    def noisy_scorer(u, q, cands, rng):
        return rng.random(len(cands))

    a = evaluate_protocol(None, est, None, grid_corpus, test, seed=8,
                          negatives=5, scorer=noisy_scorer)
    b = evaluate_protocol(None, est, None, grid_corpus, test, seed=8,
                          negatives=5, scorer=noisy_scorer)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_metrics_report(str(pa), a)
    write_metrics_report(str(pb), b)
    assert pa.read_bytes() == pb.read_bytes()
    lines = pa.read_text().splitlines()
    assert [ln.split("=")[0] for ln in lines] == [
        "HR@5", "HR@10", "HR@20", "HR@50",
        "NDCG@5", "NDCG@10", "NDCG@20", "NDCG@50", "ATC"]
    for ln in lines:
        float(ln.split("=")[1])     # 4-decimal numeric payload


def test_protocol_validates_inputs(grid_corpus):
    est = EstimatedMatrices(user_attr=np.ones((6, 3)),
                            item_attr=np.ones((6, 3)))
    empty = np.empty((0, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="no test triplets"):
        evaluate_protocol(None, est, None, grid_corpus, empty, seed=1,
                          scorer=oracle_scorer)
    test = np.array([(0, 1, 0)], dtype=np.int64)
    with pytest.raises(ValueError, match="params and cfg"):
        evaluate_protocol(None, est, None, grid_corpus, test, seed=1)


def test_protocol_random_scorer_rough_calibration(synth_corpus, synth_splits):
    est = EstimatedMatrices(
        user_attr=np.ones((synth_corpus.n_users, synth_corpus.n_attrs)),
        item_attr=np.ones((synth_corpus.n_items, synth_corpus.n_attrs)))

    def random_scorer(u, q, cands, rng):
        return rng.random(len(cands))

    report = evaluate_protocol(None, est, None, synth_corpus,
                               synth_splits.test, seed=9, negatives=1000,
                               scorer=random_scorer)
    # pool falls back to n_items - 1 negatives; a uniform scorer should land
    # near K / pool size, far from the oracle's 1.0
    expected = 10.0 / synth_corpus.n_items
    assert abs(report.metrics["HR@10"] - expected) < 0.2
    assert report.metrics["NDCG@10"] <= report.metrics["HR@10"]


def test_protocol_trained_model_end_to_end(small_trained):
    corpus, splits, run, result = small_trained
    report = evaluate_protocol(result.params, result.est, run.train, corpus,
                               splits.test, seed=10, negatives=1000)
    hrs = [report.metrics[f"HR@{k}"] for k in (5, 10, 20, 50)]
    ndcgs = [report.metrics[f"NDCG@{k}"] for k in (5, 10, 20, 50)]
    assert all(0.0 <= v <= 1.0 for v in hrs + ndcgs)
    assert all(b >= a for a, b in zip(hrs, hrs[1:]))
    assert all(b >= a for a, b in zip(ndcgs, ndcgs[1:]))
    assert 0.0 <= report.metrics["ATC"] <= 1.0
    assert report.cases == len(splits.test)


def per_case_protocol(est, corpus, test, seed, pool_size, scorer,
                      cutoffs=(5, 10, 20, 50)):
    """Reference: the protocol one case at a time, each positive ranked by
    a full `rank_order` sort of its candidates, each attribute ranking from
    a 1-D `attribute_advantage` call, and metric sums accumulated case by
    case."""
    rel = relevant_attributes(corpus, test[:, 0], test[:, 2])
    hr = dict.fromkeys(cutoffs, 0.0)
    ndcg = dict.fromkeys(cutoffs, 0.0)
    maps, full = [], []
    for idx, (u, q, p) in enumerate(test):
        rng = np.random.default_rng([seed, idx])
        cands = np.concatenate(([p], sample_negative_pool(
            rng, corpus.n_items, int(p), pool_size)))
        scores = np.asarray(scorer(int(u), int(q), cands, rng), dtype=np.float64)
        ranked = cands[rank_order(scores, cands)]
        for k in cutoffs:
            hr[k] += hr_at_k(ranked, p, k)
            ndcg[k] += ndcg_at_k(ranked, p, k)
        adv = attribute_advantage(est.user_attr[u], est.item_attr[q],
                                  est.item_attr[p])
        maps.append(map_attributes(adv.ranking, rel[idx]))
        full.append(ndcg_at_k(ranked, p, len(cands)))
    return ({f"HR@{k}": hr[k] / len(test) for k in cutoffs},
            {f"NDCG@{k}": ndcg[k] / len(test) for k in cutoffs},
            atc(maps, full))


def test_protocol_equals_per_case_reference(small_trained):
    """Scores rounded to one decimal tie often, and one candidate in seven
    scores NaN. HR and ATC sum exact or identical terms; NDCG sums its
    nonnegative terms in another order, which moves the sum by at most
    (cases - 1) ulps of its magnitude."""
    corpus, splits, _, result = small_trained

    def tied_scorer(u, q, cands, rng):
        scores = np.round(rng.standard_normal(len(cands)), 1)
        return np.where(cands % 7 == 3, np.nan, scores)

    report = evaluate_protocol(None, result.est, None, corpus, splits.test,
                               seed=12, negatives=40, scorer=tied_scorer)
    hr, ndcg, want_atc = per_case_protocol(result.est, corpus, splits.test,
                                           12, 40, tied_scorer)
    assert {k: report.metrics[k] for k in hr} == hr
    for key, value in ndcg.items():
        assert report.metrics[key] == pytest.approx(
            value, rel=len(splits.test) * np.finfo(np.float64).eps)
    assert report.metrics["ATC"] == want_atc
