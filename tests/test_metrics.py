import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsetrails.metrics import (accuracy, disagreement_breakdown, ece, nll,
                                  perplexity, prediction_disagreement)
from sparsetrails.rng import Stream


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(np.array([1, 0, 2]), np.array([1, 0, 2])) == 1.0

    def test_none_correct(self):
        assert accuracy(np.array([1, 1]), np.array([0, 0])) == 0.0

    def test_three_of_four(self):
        assert accuracy(np.array([0, 1, 2, 3]), np.array([0, 1, 2, 0])) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))


class TestNll:
    def test_certain_and_correct_is_zero(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert nll(probs, np.array([0, 0])) == pytest.approx(0.0, abs=1e-9)

    def test_e_inverse_gives_one(self):
        p = math.exp(-1.0)
        probs = np.array([[p, 1.0 - p]])
        assert nll(probs, np.array([0])) == pytest.approx(1.0, abs=1e-12)

    def test_two_sample_hand_value(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        expected = (math.log(2.0) + math.log(4.0)) / 2.0
        assert nll(probs, np.array([0, 0])) == pytest.approx(expected, abs=1e-12)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            nll(np.array([[0.5, 0.5]]), np.array([2]))

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            nll(np.array([[0.6, 0.6]]), np.array([0]))


class TestEce:
    def test_single_confident_correct_sample(self):
        assert ece(np.array([[1.0, 0.0]]), np.array([0])) == pytest.approx(0.0)

    def test_two_sample_hand_value(self):
        # conf 0.9 correct and conf 0.6 incorrect land in different bins:
        # 0.5*|1 - 0.9| + 0.5*|0 - 0.6| = 0.35
        probs = np.array([[0.9, 0.1], [0.4, 0.6]])
        labels = np.array([0, 0])
        assert ece(probs, labels, bins=15) == pytest.approx(0.35, abs=1e-9)

    def test_perfectly_calibrated_bins_give_zero(self):
        # four samples at confidence 0.75, three of four correct
        probs = np.array([[0.75, 0.25]] * 4)
        labels = np.array([0, 0, 0, 1])
        assert ece(probs, labels, bins=4) == pytest.approx(0.0, abs=1e-12)

    def test_bins_must_be_positive(self):
        with pytest.raises(ValueError):
            ece(np.array([[1.0, 0.0]]), np.array([0]), bins=0)


class TestPerplexity:
    def test_uniform_over_v_classes(self):
        v = 7
        assert perplexity(math.log(v)) == pytest.approx(v)

    def test_zero_nll(self):
        assert perplexity(0.0) == 1.0

    def test_unit_nll(self):
        assert perplexity(1.0) == pytest.approx(math.e)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            perplexity(-0.1)


class TestPredictionDisagreement:
    def test_identical_heads_zero(self):
        preds = np.array([[1, 2, 3], [1, 2, 3], [1, 2, 3]])
        assert prediction_disagreement(preds) == 0.0

    def test_two_heads_half(self):
        preds = np.array([[0, 0, 1, 1], [0, 1, 1, 0]])
        assert prediction_disagreement(preds) == 0.5

    def test_three_heads_one_sample(self):
        preds = np.array([[1], [1], [2]])
        assert prediction_disagreement(preds) == pytest.approx(2.0 / 3.0)

    def test_single_head_rejected(self):
        with pytest.raises(ValueError, match="2 heads"):
            prediction_disagreement(np.array([[1, 2]]))

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_under_head_permutation(self, seed):
        stream = Stream(seed)
        m, n = 2 + stream.randbelow(4), 1 + stream.randbelow(50)
        preds = np.array([[stream.randbelow(4) for _ in range(n)] for _ in range(m)])
        perm = stream.permutation(m)
        assert prediction_disagreement(preds) == pytest.approx(
            prediction_disagreement(preds[perm]))


class TestDisagreementBreakdown:
    def test_all_agree_gives_empty_list(self):
        preds = np.array([[1, 2], [1, 2]])
        assert disagreement_breakdown(preds, np.array([1, 2]), np.array([1, 2])) == []

    def test_single_conflicted_sample(self):
        preds = np.array([[1, 2], [1, 3]])
        records = disagreement_breakdown(preds, np.array([1, 2]), np.array([1, 2]))
        assert len(records) == 1
        assert records[0].sample == 1
        assert records[0].head_classes == [2, 3]
        assert records[0].ensemble_class == 2
        assert records[0].label == 2


class TestBruteForceRecomputation:
    """Every metric re-derived with plain loops on random inputs."""

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_metrics_match_loop_recomputation(self, seed):
        stream = Stream(seed)
        n = 2 + stream.randbelow(200)
        classes = 2 + stream.randbelow(8)
        m = 2 + stream.randbelow(4)
        raw = np.array([[stream.open_unit() for _ in range(classes)] for _ in range(n)])
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = np.array([stream.randbelow(classes) for _ in range(n)])
        preds = probs.argmax(axis=1)
        head_preds = np.array([[stream.randbelow(classes) for _ in range(n)]
                               for _ in range(m)])

        acc_loop = sum(int(p == l) for p, l in zip(preds, labels)) / n
        assert accuracy(preds, labels) == pytest.approx(acc_loop, abs=1e-12)

        nll_loop = sum(-math.log(max(probs[i, labels[i]], 1e-12)) for i in range(n)) / n
        assert nll(probs, labels) == pytest.approx(nll_loop, rel=1e-12)

        assert perplexity(nll(probs, labels)) == pytest.approx(math.exp(nll_loop),
                                                               rel=1e-12)

        bins = 15
        tallies = {}
        for i in range(n):
            c = probs[i].max()
            b = min(bins, max(1, math.ceil(c * bins)))
            cnt, conf_sum, acc_sum = tallies.get(b, (0, 0.0, 0.0))
            tallies[b] = (cnt + 1, conf_sum + c, acc_sum + (preds[i] == labels[i]))
        ece_loop = sum((cnt / n) * abs(acc_sum / cnt - conf_sum / cnt)
                       for cnt, conf_sum, acc_sum in tallies.values())
        assert ece(probs, labels, bins=bins) == pytest.approx(ece_loop, abs=1e-12)

        pairs = list(combinations(range(m), 2))
        pd_loop = sum(sum(int(head_preds[i, s] != head_preds[j, s]) for s in range(n)) / n
                      for i, j in pairs) / len(pairs)
        assert prediction_disagreement(head_preds) == pytest.approx(pd_loop, abs=1e-12)

        records = disagreement_breakdown(head_preds, preds, labels)
        conflicted = [s for s in range(n) if len(set(head_preds[:, s])) > 1]
        assert [r.sample for r in records] == conflicted
        # conflicted fraction dominates pairwise PD
        assert len(records) / n >= prediction_disagreement(head_preds) - 1e-12
