"""The multi-objective loss stack.

Four symmetric contrastive terms over pairs of (N, D) embedding Tensors,
their cosine similarities scaled by the inverse temperature 1/tau that
``Temperature`` resolves, two measure-prediction MSE terms, two
reconstruction MSE terms, and their weighted aggregation into a per-step
report.  All functions here are pure and operate on tape tensors so
gradients flow through every term.

The loss math takes plain Tensors.  The modality and view tags of
``EmbeddingBatch`` exist only for ``instantiate_contrastive``, which checks
that two tagged batches form the pairing it is asked for before passing
their values on.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError, DomainError, PairingError, is_real


class Modality(str, enum.Enum):
    FUNDUS = "fundus"
    CAROTID = "carotid"


class View(str, enum.Enum):
    VISIT_T = "visit_t"
    VISIT_T_PRIME = "visit_t_prime"
    EYE_RIGHT = "eye_right"
    EYE_LEFT = "eye_left"
    PLAIN = "plain"


# canonical order of loss terms; aggregation and reports follow it
TERM_ORDER = (
    "contr_fc",
    "contr_fv",
    "contr_cv",
    "contr_eye",
    "pred_r",
    "pred_c",
    "rec_f",
    "rec_c",
)


@dataclass
class EmbeddingBatch:
    """Projected embeddings tagged with their modality and view.  Only
    ``instantiate_contrastive`` reads the tags, to check a pairing; row i
    of a paired batch refers to the same participant as row i of its
    partner."""

    values: Tensor
    modality_tag: Modality
    view_tag: View = View.PLAIN


def _checked_tau(value: float, what: str) -> float:
    if not is_real(value):
        raise ContractError(f"{what} must be a real number, got {value!r}")
    # a positive real can round to a float of 0, or to one whose 1/tau
    # overflows (any tau below about 5.6e-309)
    tau = float(value) if 0.0 < value <= sys.float_info.max else 0.0
    if not (tau > 0.0 and 1.0 / tau < math.inf):
        raise DomainError(
            f"{what} must be positive and finite, with a finite inverse, got {value}"
        )
    return value


@dataclass
class Temperature:
    """Softmax temperature tau, positive and finite with a finite 1/tau; a
    learnable one is stored as its log.  ``resolve`` hands the losses 1/tau."""

    tau: float = 0.07
    learnable: bool = False

    def __post_init__(self):
        _checked_tau(self.tau, "temperature")

    def initial_param(self) -> np.ndarray:
        return np.asarray(math.log(self.tau), dtype=np.float64)

    def resolve(self, log_tau: Tensor | None = None) -> float | Tensor:
        """1/tau for the losses: ``1.0 / tau`` when fixed, ``exp(-log_tau)``
        of the live log-tau leaf when learnable."""
        if not self.learnable:
            return 1.0 / self.tau
        if log_tau is None:
            raise ContractError("learnable temperature needs its log-tau tensor")
        return ad.exp(ad.mul(log_tau, -1.0))


@dataclass
class LossWeights:
    """Weight per term, keyed by ``TERM_ORDER`` name; a term left out weighs
    1, so ``LossWeights()`` is all ones.  Each weight is finite and >= 0."""

    weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, value in self.weights.items():
            if name not in TERM_ORDER:
                raise ContractError(f"unknown loss term {name!r}")
            if not (is_real(value) and 0.0 <= value < math.inf):
                raise ContractError(f"loss weight {name} must be a finite real "
                                    f"number >= 0, got {value!r}")

    def of(self, term: str) -> float:
        if term not in TERM_ORDER:
            raise ContractError(f"unknown loss term {term!r}")
        return self.weights.get(term, 1.0)


@dataclass
class LossReport:
    """Per-term scalar losses plus the weighted total for one step."""

    step: int
    terms: dict[str, float] = field(default_factory=dict)
    total: float = 0.0

    def to_json_line(self) -> str:
        record = {"step": self.step}
        record.update({k: self.terms[k] for k in TERM_ORDER if k in self.terms})
        record["total"] = self.total
        return json.dumps(record)

    @classmethod
    def from_json_line(cls, line: str) -> "LossReport":
        record = json.loads(line)
        step = record.pop("step")
        total = record.pop("total")
        return cls(step=step, terms=record, total=total)


def cosine_similarity_matrix(u: Tensor, v: Tensor) -> Tensor:
    """Entry (i, j) is the cosine similarity of u_i and v_j, for two
    (N, D) batches with N >= 1 and D >= 2."""
    if u.shape != v.shape or len(u.shape) != 2:
        raise DimensionError(f"paired batches must share N x D, got {u.shape} "
                             f"vs {v.shape}")
    n, d = u.shape
    if n < 1 or d < 2:
        raise ContractError(f"embedding batches need N >= 1, D >= 2, got {n}x{d}")
    un = ad.row_l2_normalize(u)
    vn = ad.row_l2_normalize(v)
    return ad.matmul(un, ad.transpose(vn, (1, 0)))


def _rows_against_diagonal(logits: Tensor) -> Tensor:
    """Mean over rows of -log softmax(row) at the diagonal.

    Computed as logsumexp(row) - diagonal, with max subtraction inside the
    logsumexp, so it is exact for N = 1 and stable for small tau.
    """
    lse = ad.row_logsumexp(logits)
    diag = ad.take_diagonal(logits)
    return ad.mean_all(ad.sub(lse, diag))


def clip_loss(u: Tensor, v: Tensor, inv_tau: float | Tensor) -> Tensor:
    """Symmetric contrastive loss: mean of the two row-wise directions.

    The logits are the cosine similarities times ``inv_tau`` = 1/tau, a
    positive finite float or 0-d Tensor.

    One similarity matrix serves both: the reverse direction reads the
    rows of the transposed logits.  ``row_logsumexp`` reduces a transposed
    view as it reduces a contiguous copy, so swapping the operands returns
    bitwise the same value wherever the BLAS gemm gives u_i . v_j the bits
    of v_j . u_i.  The OpenBLAS 0.3.31 that numpy 2.4 bundles does, on one
    thread or two, for every N up to 128 at the default D = 32, but not
    at every larger N.
    """
    # a 0-d Tensor's [()] is a numpy float; any other shape is no number
    _checked_tau(inv_tau.value[()] if isinstance(inv_tau, Tensor) else inv_tau,
                 "inverse temperature")
    logits = ad.mul(cosine_similarity_matrix(u, v), inv_tau)
    forward = _rows_against_diagonal(logits)
    reverse = _rows_against_diagonal(ad.transpose(logits, (1, 0)))
    return ad.mul(ad.add(forward, reverse), 0.5)


# pairing -> (term name, (modality, view) for each slot)
_PAIRINGS: dict[str, tuple[str, tuple[Modality, View], tuple[Modality, View]]] = {
    "fc": ("contr_fc", (Modality.FUNDUS, View.PLAIN), (Modality.CAROTID, View.PLAIN)),
    "fv": (
        "contr_fv",
        (Modality.FUNDUS, View.VISIT_T),
        (Modality.FUNDUS, View.VISIT_T_PRIME),
    ),
    "cv": (
        "contr_cv",
        (Modality.CAROTID, View.VISIT_T),
        (Modality.CAROTID, View.VISIT_T_PRIME),
    ),
    "eye": (
        "contr_eye",
        (Modality.FUNDUS, View.EYE_RIGHT),
        (Modality.FUNDUS, View.EYE_LEFT),
    ),
}


def instantiate_contrastive(
    pairing: str,
    batches: tuple[EmbeddingBatch, EmbeddingBatch],
    inv_tau: float | Tensor,
) -> tuple[str, Tensor]:
    """Validate tags for one of the four pairings and return the named term."""
    if pairing not in _PAIRINGS:
        raise ContractError(f"unknown pairing {pairing!r}")
    name, want_u, want_v = _PAIRINGS[pairing]
    u, v = batches
    for slot, (batch, want) in enumerate(((u, want_u), (v, want_v))):
        if (batch.modality_tag, batch.view_tag) != want:
            raise PairingError(
                f"pairing {pairing!r} slot {slot} expects {want[0].value}/"
                f"{want[1].value}, got {batch.modality_tag.value}/"
                f"{batch.view_tag.value}"
            )
    return name, clip_loss(u.values, v.values, inv_tau)


def prediction_mse(m: Tensor, m_hat: Tensor) -> Tensor:
    """Mean squared error over all N*P measure entries."""
    if m.shape != m_hat.shape:
        raise DimensionError(f"measure shapes differ: {m.shape} vs {m_hat.shape}")
    diff = ad.sub(m_hat, m)
    return ad.mean_all(ad.mul(diff, diff))


def reconstruction_mse(image: Tensor, decoded: Tensor) -> Tensor:
    """Mean squared error over all pixels and channels."""
    if image.shape != decoded.shape:
        raise DimensionError(
            f"image shapes differ: {image.shape} vs {decoded.shape}"
        )
    diff = ad.sub(decoded, image)
    return ad.mean_all(ad.mul(diff, diff))


def total_loss(
    report_terms: dict[str, Tensor], weights: LossWeights, step: int = 0
) -> tuple[LossReport, Tensor]:
    """Weighted sum over the terms that are present.

    Absent streams contribute no term at all; an empty term set is a
    contract violation.  Terms are summed in canonical order so the total
    is reproducible bit for bit.
    """
    if not report_terms:
        raise ContractError("total_loss needs at least one term")
    unknown = set(report_terms) - set(TERM_ORDER)
    if unknown:
        raise ContractError(f"unknown loss terms: {sorted(unknown)}")
    total: Tensor | None = None
    values: dict[str, float] = {}
    for name in TERM_ORDER:
        if name not in report_terms:
            continue
        term = report_terms[name]
        values[name] = term.item()
        weighted = ad.mul(term, weights.of(name))
        total = weighted if total is None else ad.add(total, weighted)
    report = LossReport(step=step, terms=values, total=total.item())
    return report, total
