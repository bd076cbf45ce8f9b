"""Embedding-space evaluation metrics.

Top-k retrieval accuracy over a cosine-similarity matrix (row i queries
the columns; the diagonal is the true partner), its chance-adjusted
multiplicative variant, the coefficient of determination, and ROC AUC in
the Mann-Whitney pairwise-concordance form, with the average ranks it
needs computed in numpy.  Every input must be finite: a NaN or Inf, or a
row norm or sum of squares that overflows, raises ``NonFiniteError``
rather than ranking or averaging silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractError,
    DegenerateInputError,
    DegenerateLabelError,
    DegenerateTargetError,
    DimensionError,
    NonFiniteError,
    is_int,
)

DEFAULT_K_VALUES = (5, 25, 100)


@dataclass
class MetricReport:
    """Evaluation results keyed the way the CSV export expects."""

    k_values: list[int] = field(default_factory=list)
    top_k: dict[int, float] = field(default_factory=dict)
    mult_top_k: dict[int, float] = field(default_factory=dict)
    r2_per_measure: dict[str, float] = field(default_factory=dict)
    auc_per_label: dict[str, float] = field(default_factory=dict)

    def csv_rows(self, step: int) -> list[tuple]:
        """One row per (step, metric, k or name, value)."""
        rows: list[tuple] = []
        for k in self.k_values:
            rows.append((step, "top_k", k, self.top_k[k]))
        for k in self.k_values:
            rows.append((step, "mult_top_k", k, self.mult_top_k[k]))
        for name, value in self.r2_per_measure.items():
            rows.append((step, "r2", name, value))
        for name, value in self.auc_per_label.items():
            rows.append((step, "auc", name, value))
        return rows


def _check_finite(caller: str, *arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise NonFiniteError(f"{caller}: input holds NaN or Inf")


def similarity_matrix(emb_i: np.ndarray, emb_j: np.ndarray) -> np.ndarray:
    """Cosine similarities of two paired embedding sets (numpy, no tape)."""
    if emb_i.shape != emb_j.shape or emb_i.ndim != 2:
        raise DimensionError(
            f"paired embeddings must share N x D, got {emb_i.shape} vs {emb_j.shape}"
        )
    _check_finite("similarity_matrix", emb_i, emb_j)
    with np.errstate(over="ignore"):  # an overflowing norm raises below
        ni = np.linalg.norm(emb_i, axis=1, keepdims=True)
        nj = np.linalg.norm(emb_j, axis=1, keepdims=True)
    if not (np.isfinite(ni).all() and np.isfinite(nj).all()):
        raise NonFiniteError("similarity_matrix: a row norm overflows")
    if np.any(ni == 0.0) or np.any(nj == 0.0):
        raise DegenerateInputError("zero-norm embedding row")
    return (emb_i / ni) @ (emb_j / nj).T


def _diagonal_ranks(sim: np.ndarray) -> np.ndarray:
    """Each row's 0-based rank of its diagonal entry among the row's
    values, descending; ties break toward the lower column index."""
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise DimensionError(f"similarity matrix must be square, got {sim.shape}")
    n = sim.shape[0]
    diag = np.diagonal(sim)[:, None]
    cols = np.arange(n)[None, :]
    rows = np.arange(n)[:, None]
    return (sim > diag).sum(axis=1) + ((sim == diag) & (cols < rows)).sum(axis=1)


def topk_report(sim: np.ndarray, k_values=DEFAULT_K_VALUES) -> MetricReport:
    """Top-k and multiplicative top-k at each k, ranking ``sim`` once.

    Top-k is the fraction of rows whose diagonal entry ranks in the row's
    top k, by descending value; ties break toward the lower column index,
    so results are deterministic.  Multiplicative top-k divides it by the
    chance rate k/N, so 1.0 is random.  Each k must be an integer in
    [1, N]; a bool is not one.
    """
    _check_finite("topk_report", sim)
    ranks = _diagonal_ranks(sim)
    n = ranks.size
    report = MetricReport()
    for k in k_values:
        if not (is_int(k) and 1 <= k <= n):
            raise ContractError(f"k must be an integer in [1, {n}], got {k!r}")
        k = int(k)
        report.k_values.append(k)
        report.top_k[k] = float(np.mean(ranks < k))
        report.mult_top_k[k] = report.top_k[k] * n / k
    return report


def r_squared(y: np.ndarray, y_hat: np.ndarray) -> float:
    """1 - SS_res/SS_tot about the mean of y; negative when worse than mean."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    y_hat = np.asarray(y_hat, dtype=np.float64).reshape(-1)
    if y.shape != y_hat.shape:
        raise DimensionError(f"lengths differ: {y.shape} vs {y_hat.shape}")
    _check_finite("r_squared", y, y_hat)
    if y.size < 2:
        raise ContractError("r_squared needs at least two observations")
    with np.errstate(over="ignore"):  # an overflowing sum raises below
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        ss_res = float(np.sum((y - y_hat) ** 2))
    if not (math.isfinite(ss_tot) and math.isfinite(ss_res)):
        raise NonFiniteError("r_squared: a sum of squares overflows")
    if ss_tot == 0.0:
        raise DegenerateTargetError("target is constant")
    return 1.0 - ss_res / ss_tot


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, each run of tied values given the mean of
    the ranks it spans (``-0.0`` ties ``0.0``)."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]  # one past each run's last position
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """(concordant + 0.5 * tied) / (n_pos * n_neg) via average ranks.

    Labels must be 0 or 1 and scores finite.
    """
    labels = np.asarray(labels).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if labels.shape != scores.shape:
        raise DimensionError(f"lengths differ: {labels.shape} vs {scores.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise ContractError("roc_auc: labels must be 0 or 1")
    _check_finite("roc_auc", scores)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelError("need at least one positive and one negative")
    ranks = _average_ranks(scores)
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))
