"""Top-k retrieval metrics, R-squared, ROC AUC, and their oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cmpr
from cmpr import metrics
from cmpr.errors import (
    ContractError,
    DegenerateLabelError,
    DegenerateTargetError,
    DimensionError,
    NonFiniteError,
)

from oracles import auc_pairwise, r_squared_two_pass, top_k_full_sort


def top_k(sim, k):
    return metrics.topk_report(sim, (k,)).top_k[k]


def mult_top_k(sim, k):
    return metrics.topk_report(sim, (k,)).mult_top_k[k]


def random_unit(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# top-k accuracy
# ---------------------------------------------------------------------------


def test_top1_on_diagonal_dominant():
    rng = np.random.default_rng(0)
    sim = rng.uniform(-0.5, 0.5, size=(6, 6))
    np.fill_diagonal(sim, 2.0)
    assert top_k(sim, 1) == 1.0


def test_diagonal_smallest_excluded_from_top_n_minus_1():
    rng = np.random.default_rng(1)
    sim = rng.uniform(0.5, 1.0, size=(5, 5))
    np.fill_diagonal(sim, -1.0)
    assert top_k(sim, 4) == 0.0


def test_top_n_is_always_one():
    for seed in range(10):
        sim = np.random.default_rng(seed).standard_normal((7, 7))
        assert top_k(sim, 7) == 1.0


def test_top_k_monotone_in_k():
    for seed in range(10):
        sim = np.random.default_rng(seed).standard_normal((10, 10))
        report = metrics.topk_report(sim, range(1, 11))
        vals = [report.top_k[k] for k in range(1, 11)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_top_k_matches_full_sort_oracle_200_matrices():
    for seed in range(200):
        sim = np.random.default_rng(seed).standard_normal((10, 10))
        for k in (1, 3, 5):
            assert top_k(sim, k) == top_k_full_sort(sim, k)


def test_top_k_tie_breaking_prefers_lower_column():
    # row 0: tie between column 0 (diagonal) and column 2
    sim = np.array([[0.9, 0.1, 0.9], [0.0, 0.5, 0.1], [0.0, 0.1, 0.5]])
    assert top_k(sim, 1) == 1.0
    # move the tie to a column before the diagonal: row 1 diagonal loses it
    sim2 = np.array([[0.9, 0.0, 0.0], [0.5, 0.5, 0.1], [0.0, 0.1, 0.5]])
    assert top_k(sim2, 1) == pytest.approx(2.0 / 3.0)
    assert top_k(sim2, 1) == top_k_full_sort(sim2, 1)


def test_top_k_out_of_range_rejected():
    sim = np.eye(4)
    with pytest.raises(ContractError):
        top_k(sim, 0)
    with pytest.raises(ContractError):
        top_k(sim, 5)
    with pytest.raises(DimensionError):
        top_k(np.ones((3, 4)), 1)


# ---------------------------------------------------------------------------
# multiplicative top-k
# ---------------------------------------------------------------------------


def test_mult_top_k_perfect_matcher():
    sim = np.eye(100) * 2.0 - 1.0
    assert mult_top_k(sim, 1) == 100.0


def test_mult_top_k_identity_with_top_k():
    for seed in range(20):
        sim = np.random.default_rng(seed).standard_normal((12, 12))
        for k in (1, 3, 5, 12):
            want = top_k(sim, k) * 12 / k
            assert abs(mult_top_k(sim, k) - want) < 1e-12


def test_mult_top_k_random_embeddings_near_one():
    # independent random unit embeddings: chance-level matching is 1.0
    means = {k: [] for k in (5, 25, 100)}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        sim = random_unit(rng, 1000, 32) @ random_unit(rng, 1000, 32).T
        report = metrics.topk_report(sim, means)
        for k in means:
            means[k].append(report.mult_top_k[k])
    for k, vals in means.items():
        assert 0.8 <= np.mean(vals) <= 1.25, (k, np.mean(vals))


def test_chance_calibration_expected_top_k():
    # E[top_k] = k/N for independent embeddings, within 25% relative
    n = 400
    for k in (4, 20, 80):
        vals = []
        for seed in range(12):
            rng = np.random.default_rng(1000 + seed)
            sim = random_unit(rng, n, 16) @ random_unit(rng, n, 16).T
            vals.append(top_k(sim, k))
        assert abs(np.mean(vals) - k / n) <= 0.25 * k / n


def test_topk_report_structure():
    sim = np.random.default_rng(3).standard_normal((30, 30))
    report = metrics.topk_report(sim, k_values=(1, 5, 25))
    assert report.k_values == [1, 5, 25]
    assert set(report.top_k) == {1, 5, 25}
    rows = report.csv_rows(step=10)
    assert len(rows) == 6
    assert rows[0][:3] == (10, "top_k", 1)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_topk_report_matches_full_sort_oracle_with_ties(n):
    for seed in range(5):
        # three distinct values: most rows tie their diagonal with others
        sim = np.random.default_rng(seed).integers(0, 3, size=(n, n)).astype(float)
        report = metrics.topk_report(sim, k_values=range(1, n + 1))
        for k in range(1, n + 1):
            want = top_k_full_sort(sim, k)
            assert report.top_k[k] == want
            assert report.mult_top_k[k] == want * n / k


# ---------------------------------------------------------------------------
# r_squared
# ---------------------------------------------------------------------------


def test_r2_perfect_prediction():
    y = np.array([1.0, 2.0, 5.0, -3.0])
    assert metrics.r_squared(y, y) == 1.0


def test_r2_mean_prediction_is_zero():
    y = np.array([1.0, 2.0, 3.0, 10.0])
    y_hat = np.full(4, y.mean())
    assert metrics.r_squared(y, y_hat) == 0.0


def test_r2_worked_example():
    # frozen from the two-pass scalar oracle: ss_res = 0.1, ss_tot = 5.0
    y = np.array([1.0, 2.0, 3.0, 4.0])
    y_hat = np.array([1.1, 1.9, 3.2, 3.8])
    assert abs(metrics.r_squared(y, y_hat) - 0.98) < 1e-12
    assert abs(r_squared_two_pass(y, y_hat) - 0.98) < 1e-12


def test_r2_seeded_against_two_pass_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(20)
        y_hat = y + rng.standard_normal(20) * 0.3
        assert abs(metrics.r_squared(y, y_hat) - r_squared_two_pass(y, y_hat)) < 1e-12


def test_r2_constant_target_rejected():
    with pytest.raises(DegenerateTargetError):
        metrics.r_squared(np.ones(5), np.arange(5.0))


def test_r2_affine_invariance():
    rng = np.random.default_rng(77)
    y = rng.standard_normal(30)
    y_hat = y + 0.2 * rng.standard_normal(30)
    base = metrics.r_squared(y, y_hat)
    for a, b in [(2.0, 1.0), (0.5, -3.0), (10.0, 100.0)]:
        assert abs(metrics.r_squared(a * y + b, a * y_hat + b) - base) < 1e-10


def test_r2_can_be_negative():
    y = np.array([1.0, 2.0, 3.0])
    y_hat = np.array([10.0, -10.0, 10.0])
    assert metrics.r_squared(y, y_hat) < 0.0


# ---------------------------------------------------------------------------
# roc_auc
# ---------------------------------------------------------------------------


def test_auc_perfect_separation():
    labels = np.array([0, 0, 1, 1])
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    assert metrics.roc_auc(labels, scores) == 1.0


def test_auc_all_ties_is_half():
    labels = np.array([0, 1, 0, 1])
    scores = np.full(4, 0.5)
    assert metrics.roc_auc(labels, scores) == 0.5


def test_auc_worked_example():
    # 3 of 4 pairs concordant: (0.9,0.8), (0.9,0.1), (0.7,0.1); (0.7,0.8) not
    labels = np.array([1, 0, 1, 0])
    scores = np.array([0.9, 0.8, 0.7, 0.1])
    assert metrics.roc_auc(labels, scores) == 0.75
    assert auc_pairwise(labels, scores) == 0.75


def test_auc_matches_pairwise_oracle_100_sets():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 25))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force ties
        scores = np.round(rng.uniform(0, 1, size=n), 1)
        got = metrics.roc_auc(labels, scores)
        want = auc_pairwise(labels, scores)
        assert abs(got - want) < 1e-12


def _auc_sweep_scores(kind, rng, n):
    if kind == "round0":
        return np.round(rng.uniform(0, 3, size=n), 0)
    if kind == "round1":
        return np.round(rng.uniform(0, 1, size=n), 1)
    if kind == "all_equal":
        return np.full(n, 0.25)
    # signed zeros, which tie each other, among a few other values
    return rng.choice([-0.0, 0.0, 0.0, -1.0, 2.0], size=n)


@pytest.mark.parametrize("kind", ["round0", "round1", "all_equal", "signed_zero"])
def test_auc_matches_pairwise_oracle_sweep(kind):
    rng = np.random.default_rng(0)
    for n in (2, 3, 5, 17, 64, 150, 300):
        for _ in range(3):
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[-1] = 0, 1
            scores = _auc_sweep_scores(kind, rng, n)
            got = metrics.roc_auc(labels, scores)
            assert abs(got - auc_pairwise(labels, scores)) < 1e-12, (n, kind)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: metrics.roc_auc([0, 1, 2, 1], [0.1, 0.2, 0.3, 0.4]), ContractError),
        (lambda: metrics.roc_auc([0, 1, -1, 1], [0.1, 0.2, 0.3, 0.4]), ContractError),
        (lambda: metrics.roc_auc([0, 1, 0.5, 1], [0.1, 0.2, 0.3, 0.4]), ContractError),
        (lambda: metrics.roc_auc([0, 1, 0, 1], [0.1, np.nan, 0.3, 0.4]), NonFiniteError),
        (lambda: metrics.roc_auc([0, 1, 0, 1], [0.1, np.inf, 0.3, 0.4]), NonFiniteError),
        (lambda: metrics.roc_auc([0, 1, 0, 1], [0.1, 0.2, -np.inf, 0.4]), NonFiniteError),
        (lambda: metrics.r_squared([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]), NonFiniteError),
        (lambda: metrics.r_squared([1.0, 2.0, 3.0], [1.0, np.inf, 3.0]), NonFiniteError),
        (lambda: metrics.r_squared([1.0, -np.inf, 3.0], [1.0, 2.0, 3.0]), NonFiniteError),
        (lambda: metrics.similarity_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]), np.eye(2)),
         NonFiniteError),
        (lambda: metrics.similarity_matrix(np.eye(2), np.array([[1.0, 0.0], [np.inf, 1.0]])),
         NonFiniteError),
        # an all-NaN matrix would rank every diagonal first: top-1 = 1.0
        (lambda: metrics.topk_report(np.full((3, 3), np.nan), (1,)), NonFiniteError),
        (lambda: metrics.topk_report(np.diag([1.0, -np.inf, 1.0]), (1,)), NonFiniteError),
        # k = 1.7 would be ranked as k = 1
        (lambda: metrics.topk_report(np.eye(3), (1.7,)), ContractError),
        (lambda: metrics.topk_report(np.eye(3), (True,)), ContractError),
        (lambda: metrics.topk_report(np.eye(3), ("a",)), ContractError),
    ],
    ids=[
        "auc_label_2", "auc_label_minus_1", "auc_label_half",
        "auc_score_nan", "auc_score_inf", "auc_score_minus_inf",
        "r2_y_nan", "r2_y_hat_inf", "r2_y_minus_inf",
        "similarity_nan", "similarity_inf",
        "topk_nan", "topk_minus_inf", "topk_k_float", "topk_k_bool", "topk_k_str",
    ],
)
def test_metric_bad_input_raises_typed_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: metrics.similarity_matrix(
            np.array([[1e200, 1e200], [1.0, 2.0]]),
            np.array([[1.0, 1.0], [1.0, 2.0]])), "similarity_matrix"),
        (lambda: metrics.r_squared([1e200, -1e200, 3.0], [1.0, 2.0, 3.0]),
         "r_squared"),
    ],
    ids=["similarity_matrix", "r_squared"],
)
def test_overflow_on_finite_input_raises_nonfinite(call, name):
    # finite inputs whose row norm or sum of squares overflows: a wrong
    # cosine and a nan R-squared are what not raising returns
    with pytest.raises(NonFiniteError, match=name):
        call()


def test_importing_cmpr_leaves_scipy_unloaded():
    # a fresh interpreter, because this one may have imported scipy already
    code = (
        "import importlib, pkgutil, sys, cmpr\n"
        "for m in pkgutil.iter_modules(cmpr.__path__):\n"
        "    importlib.import_module('cmpr.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(cmpr.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_auc_single_class_rejected():
    with pytest.raises(DegenerateLabelError):
        metrics.roc_auc(np.ones(4), np.arange(4.0))
    with pytest.raises(DegenerateLabelError):
        metrics.roc_auc(np.zeros(4), np.arange(4.0))


def test_auc_invariant_under_increasing_transforms():
    rng = np.random.default_rng(88)
    labels = rng.integers(0, 2, size=40)
    labels[0], labels[1] = 0, 1
    scores = np.round(rng.standard_normal(40), 1)
    base = metrics.roc_auc(labels, scores)
    assert metrics.roc_auc(labels, np.exp(scores)) == base
    assert metrics.roc_auc(labels, 3.5 * scores + 11.0) == base


def test_auc_score_negation_complement():
    rng = np.random.default_rng(89)
    labels = rng.integers(0, 2, size=30)
    labels[0], labels[1] = 0, 1
    scores = rng.standard_normal(30)  # continuous, no ties
    a = metrics.roc_auc(labels, scores)
    b = metrics.roc_auc(labels, -scores)
    assert abs(a + b - 1.0) < 1e-12
