"""Loss stack: contrastive terms, MSE terms, aggregation."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from cmpr import autodiff as ad
from cmpr import losses
from cmpr.errors import ContractError, DimensionError, DomainError, PairingError
from cmpr.losses import (
    EmbeddingBatch,
    LossReport,
    LossWeights,
    Modality,
    Temperature,
    View,
)

from oracles import assert_grads_close

INV_TAU = 1.0 / 0.07  # the inverse temperature at tau = 0.07, bitwise


def mkbatch(tape, values, modality=Modality.FUNDUS, view=View.PLAIN):
    """A tagged batch, for the pairing checks of ``instantiate_contrastive``."""
    return EmbeddingBatch(tape.leaf(values), modality, view)


def contrastive_direct(u, v, tau):
    """Direct formula without the log-sum-exp trick; small scale only."""
    un = u / np.linalg.norm(u, axis=1, keepdims=True)
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    sim = un @ vn.T
    n = sim.shape[0]
    total = 0.0
    for i in range(n):
        num = np.exp(sim[i, i] / tau)
        den = np.sum(np.exp(sim[i] / tau))
        total += -np.log(num / den)
    return total / n


# ---------------------------------------------------------------------------
# cosine similarity matrix
# ---------------------------------------------------------------------------


def test_cosine_self_similarity_diagonal():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 6))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    tape = ad.Tape()
    sim = losses.cosine_similarity_matrix(tape.leaf(x), tape.leaf(x))
    np.testing.assert_allclose(np.diagonal(sim.value), 1.0, rtol=0, atol=1e-12)


def test_cosine_orthogonal_rows():
    u = np.eye(3, 6)
    v = np.roll(np.eye(3, 6), 3, axis=1)
    tape = ad.Tape()
    sim = losses.cosine_similarity_matrix(tape.leaf(u), tape.leaf(v))
    np.testing.assert_array_equal(sim.value, np.zeros((3, 3)))


def test_cosine_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((4, 6)) * 2.0
    v = rng.standard_normal((4, 6)) * 0.5
    tape = ad.Tape()
    sim = losses.cosine_similarity_matrix(tape.leaf(u), tape.leaf(v)).value
    for i in range(4):
        for j in range(4):
            want = float(
                np.dot(u[i], v[j]) / (np.linalg.norm(u[i]) * np.linalg.norm(v[j]))
            )
            assert abs(sim[i, j] - want) < 1e-12
    assert np.all(np.abs(sim) <= 1.0 + 1e-12)


@pytest.mark.parametrize("fn", [
    losses.cosine_similarity_matrix,
    functools.partial(losses.clip_loss, inv_tau=INV_TAU),
], ids=["cosine", "clip"])
@pytest.mark.parametrize("u_shape, v_shape, error", [
    ((0, 4), (0, 4), ContractError),
    ((3, 1), (3, 1), ContractError),
    ((4,), (4,), DimensionError),
    ((2, 3, 4), (2, 3, 4), DimensionError),
    ((3, 4), (2, 4), DimensionError),
    ((3, 4), (3, 5), DimensionError),
], ids=["no_rows", "one_column", "1d", "3d", "rows_differ", "columns_differ"])
def test_contrastive_shape_contract(fn, u_shape, v_shape, error):
    # N >= 1 and D >= 2 on paired N x D batches; with no rows, numpy's
    # max-reduction in row_logsumexp would fail first, with a ValueError
    tape = ad.Tape()
    with pytest.raises(error):
        fn(tape.leaf(np.ones(u_shape)), tape.leaf(np.ones(v_shape)))


def test_cosine_zero_row_rejected():
    tape = ad.Tape()
    from cmpr.errors import DegenerateInputError

    with pytest.raises(DegenerateInputError):
        losses.cosine_similarity_matrix(
            tape.leaf([[0.0, 0.0], [1.0, 1.0]]),
            tape.leaf([[1.0, 0.0], [0.0, 1.0]]),
        )


# ---------------------------------------------------------------------------
# contrastive / clip losses
# ---------------------------------------------------------------------------


def test_contrastive_single_pair_is_exactly_zero():
    tape = ad.Tape()
    u = tape.leaf([[1.0, 2.0, 3.0]])
    v = tape.leaf([[0.5, -1.0, 2.0]])
    assert losses.clip_loss(u, v, INV_TAU).item() == 0.0


@pytest.mark.parametrize("n", [2, 4, 8])
def test_contrastive_equal_similarities_is_log_n(n):
    # identical rows make every pairwise similarity 1, so softmax is
    # uniform in both directions
    row = np.array([0.3, -1.2, 0.8, 2.0])
    u = np.tile(row, (n, 1))
    tape = ad.Tape()
    loss = losses.clip_loss(tape.leaf(u), tape.leaf(u), INV_TAU)
    assert abs(loss.item() - math.log(n)) < 1e-12


def test_contrastive_seeded_matches_extended_precision_oracle():
    # frozen from a 50-digit mpmath evaluation of the direct formula: the
    # u -> v direction, and the mean of both directions
    expected_forward, expected = 6.147644063890427, 6.295203646692596
    rng = np.random.default_rng(7)
    u = rng.standard_normal((5, 8))
    v = rng.standard_normal((5, 8))
    tape = ad.Tape()
    got = losses.clip_loss(tape.leaf(u), tape.leaf(v), INV_TAU).item()
    assert abs(got - expected) < 1e-10
    assert abs(contrastive_direct(u, v, 0.07) - expected_forward) < 1e-10


def test_contrastive_nonpositive_tau_rejected():
    tape = ad.Tape()
    u = tape.leaf(np.eye(2))
    v = tape.leaf(np.eye(2))
    # each is as bad an inverse temperature as a temperature
    for value in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            losses.clip_loss(u, v, value)
        with pytest.raises(DomainError):
            Temperature(tau=value)
    # a live inverse temperature is checked too; a leaf cannot be NaN or inf
    for value in (0.0, -1.0):
        with pytest.raises(DomainError):
            losses.clip_loss(u, v, u.tape.leaf(value))
    with pytest.raises(ContractError, match="inverse temperature must be a real"):
        losses.clip_loss(u, v, u.tape.leaf(np.full((2, 2), 14.0)))


def test_temperature_with_an_infinite_inverse_rejected():
    # 1e-320 is positive and finite, but 1 / 1e-320 overflows, so it is
    # rejected at construction, not by the first loss that reads 1/tau;
    # so are an int beyond the largest float and a fraction that rounds to 0
    for learnable in (False, True):
        with pytest.raises(DomainError, match="temperature .* got 1e-320"):
            Temperature(1e-320, learnable=learnable)
    for value in (10**400, Fraction(1, 10**400)):
        with pytest.raises(DomainError, match="temperature"):
            Temperature(value)
    u = ad.Tape().leaf(np.eye(2))
    with pytest.raises(DomainError, match="inverse temperature .* got 1e-320"):
        losses.clip_loss(u, u, 1e-320)


@pytest.mark.parametrize("value", ["0.07", None, True], ids=["str", "none", "bool"])
def test_non_number_tau_and_weight_rejected(value):
    u = ad.Tape().leaf(np.eye(2))
    with pytest.raises(ContractError, match="temperature must be a real number"):
        losses.clip_loss(u, u, value)
    with pytest.raises(ContractError, match="temperature must be a real number"):
        Temperature(value)
    with pytest.raises(ContractError, match="loss weight contr_fc"):
        LossWeights({"contr_fc": value})


def test_contrastive_scale_invariance():
    rng = np.random.default_rng(12)
    u = rng.standard_normal((6, 5))
    v = rng.standard_normal((6, 5))
    tape = ad.Tape()
    base = losses.clip_loss(tape.leaf(u), tape.leaf(v), INV_TAU).item()
    for alpha, beta in [(2.0, 3.0), (0.01, 7.0), (123.0, 0.4)]:
        scaled = losses.clip_loss(
            tape.leaf(alpha * u), tape.leaf(beta * v), INV_TAU).item()
        assert abs(scaled - base) < 1e-10


def test_contrastive_nonnegative_and_near_zero_at_small_tau():
    rng = np.random.default_rng(13)
    for seed in range(5):
        r = np.random.default_rng(seed)
        u = r.standard_normal((5, 7))
        v = r.standard_normal((5, 7))
        tape = ad.Tape()
        val = losses.clip_loss(tape.leaf(u), tape.leaf(v), INV_TAU).item()
        assert val >= 0.0
    # near-one-hot: orthonormal rows, diagonal similarity 1, off-diagonal 0
    eye = np.eye(4, 8)
    tape = ad.Tape()
    tiny = losses.clip_loss(tape.leaf(eye), tape.leaf(eye), 1.0 / 0.01).item()
    assert 0.0 <= tiny < 1e-3
    del rng


def test_contrastive_permutation_equivariance():
    rng = np.random.default_rng(21)
    u = rng.standard_normal((6, 5))
    v = rng.standard_normal((6, 5))
    perm = rng.permutation(6)
    tape = ad.Tape()
    base = losses.clip_loss(tape.leaf(u), tape.leaf(v), INV_TAU).item()
    permuted = losses.clip_loss(tape.leaf(u[perm]), tape.leaf(v[perm]), INV_TAU)
    assert abs(base - permuted.item()) < 1e-12


def test_clip_loss_swap_is_bitwise_equal():
    rng = np.random.default_rng(31)
    u = rng.standard_normal((5, 6))
    v = rng.standard_normal((5, 6))
    tape = ad.Tape()
    ub, vb = tape.leaf(u), tape.leaf(v)
    swapped = losses.clip_loss(vb, ub, INV_TAU).item()
    assert losses.clip_loss(ub, vb, INV_TAU).item() == swapped


def test_clip_loss_self_pair_equals_directional():
    rng = np.random.default_rng(32)
    u = rng.standard_normal((4, 5))
    tape = ad.Tape()
    ub, ub2 = tape.leaf(u), tape.leaf(u)
    clip = losses.clip_loss(ub, ub2, 1.0).item()
    single = contrastive_direct(u, u, 1.0)
    assert abs(clip - single) < 1e-15


def test_clip_loss_is_mean_of_directions():
    rng = np.random.default_rng(33)
    u = rng.standard_normal((5, 6))
    v = rng.standard_normal((5, 6))
    want = 0.5 * (contrastive_direct(u, v, 0.07) + contrastive_direct(v, u, 0.07))
    tape = ad.Tape()
    got = losses.clip_loss(tape.leaf(u), tape.leaf(v), INV_TAU).item()
    assert abs(got - want) < 1e-9


def test_learnable_temperature_path():
    temp = Temperature(tau=0.07, learnable=True)
    tape = ad.Tape()
    log_tau = tape.leaf(temp.initial_param(), name="log_tau")
    rng = np.random.default_rng(40)
    u = rng.standard_normal((4, 5))
    v = rng.standard_normal((4, 5))
    ub, vb = tape.leaf(u), tape.leaf(v)
    live = losses.clip_loss(ub, vb, temp.resolve(log_tau))
    fixed = losses.clip_loss(ub, vb, INV_TAU)
    assert abs(live.item() - fixed.item()) < 1e-12
    grads = ad.backward(tape, live)
    g = grads.of(log_tau)
    assert g.shape == () and g != 0.0


def test_temperature_enters_the_tape_once():
    # one exp node turns the log-tau leaf into 1/tau for every pairing;
    # no op takes the log back
    temp = Temperature(tau=0.07, learnable=True)
    tape = ad.Tape()
    inv_tau = temp.resolve(tape.leaf(temp.initial_param(), name="log_tau"))
    assert abs(inv_tau.item() - INV_TAU) <= 2 * math.ulp(INV_TAU)
    rng = np.random.default_rng(41)
    for _ in range(2):
        u, v = (tape.leaf(rng.standard_normal((4, 5))) for _ in range(2))
        losses.clip_loss(u, v, inv_tau)
    ops = [node.op for node in tape.nodes]
    assert ops.count("exp") == 1
    assert "log" not in ops and "neg" not in ops
    for tau in (0.07, 0.3, 1.0, 2.5):
        assert Temperature(tau).resolve() == 1.0 / tau


# ---------------------------------------------------------------------------
# pairing instantiation
# ---------------------------------------------------------------------------


def test_pairing_contract_rejects_wrong_modality():
    tape = ad.Tape()
    carotid = mkbatch(tape, np.eye(3), Modality.CAROTID)
    fundus = mkbatch(tape, np.eye(3), Modality.FUNDUS)
    with pytest.raises(PairingError):
        losses.instantiate_contrastive("fc", (carotid, fundus), INV_TAU)


def test_pairing_eye_identical_batches():
    rng = np.random.default_rng(50)
    f = rng.standard_normal((4, 6))
    tape = ad.Tape()
    right = mkbatch(tape, f, Modality.FUNDUS, View.EYE_RIGHT)
    left = mkbatch(tape, f, Modality.FUNDUS, View.EYE_LEFT)
    name, term = losses.instantiate_contrastive("eye", (right, left), INV_TAU)
    assert name == "contr_eye"
    plain = losses.clip_loss(tape.leaf(f), tape.leaf(f), INV_TAU)
    assert abs(term.item() - plain.item()) < 1e-15


def test_all_four_pairings_yield_named_terms():
    rng = np.random.default_rng(51)
    tape = ad.Tape()

    def emb(modality, view):
        return mkbatch(tape, rng.standard_normal((5, 6)), modality, view)

    terms = {}
    for pairing, (m_u, v_u, m_v, v_v) in {
        "fc": (Modality.FUNDUS, View.PLAIN, Modality.CAROTID, View.PLAIN),
        "fv": (Modality.FUNDUS, View.VISIT_T, Modality.FUNDUS, View.VISIT_T_PRIME),
        "cv": (Modality.CAROTID, View.VISIT_T, Modality.CAROTID, View.VISIT_T_PRIME),
        "eye": (Modality.FUNDUS, View.EYE_RIGHT, Modality.FUNDUS, View.EYE_LEFT),
    }.items():
        name, term = losses.instantiate_contrastive(
            pairing, (emb(m_u, v_u), emb(m_v, v_v)), INV_TAU
        )
        terms[name] = term
    assert sorted(terms) == ["contr_cv", "contr_eye", "contr_fc", "contr_fv"]
    report, _ = losses.total_loss(terms, LossWeights())
    assert len(report.terms) == 4


def test_unknown_pairing_rejected():
    tape = ad.Tape()
    b = mkbatch(tape, np.eye(2))
    with pytest.raises(ContractError):
        losses.instantiate_contrastive("xy", (b, b), INV_TAU)


# ---------------------------------------------------------------------------
# MSE terms
# ---------------------------------------------------------------------------


def test_prediction_mse_zero_when_equal():
    tape = ad.Tape()
    m = tape.leaf(np.random.default_rng(0).standard_normal((3, 4)))
    assert losses.prediction_mse(m, m).item() == 0.0


def test_prediction_mse_single_entry():
    tape = ad.Tape()
    got = losses.prediction_mse(tape.leaf([[0.0]]), tape.leaf([[2.0]])).item()
    assert got == 4.0


def test_prediction_mse_seeded_two_pass_oracle():
    rng = np.random.default_rng(60)
    m = rng.standard_normal((6, 4))
    mh = rng.standard_normal((6, 4))
    want = 0.0
    for i in range(6):
        for j in range(4):
            want += (m[i, j] - mh[i, j]) ** 2
    want /= 24.0
    tape = ad.Tape()
    got = losses.prediction_mse(tape.leaf(m), tape.leaf(mh)).item()
    assert abs(got - want) < 1e-12


def test_prediction_mse_shape_mismatch():
    tape = ad.Tape()
    with pytest.raises(DimensionError):
        losses.prediction_mse(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((3, 2))))


def test_reconstruction_mse_perfect_and_offset():
    tape = ad.Tape()
    img = tape.leaf(np.random.default_rng(1).uniform(size=(2, 3, 4, 4)))
    assert losses.reconstruction_mse(img, img).item() == 0.0
    shifted = tape.leaf(img.value + 1.0)
    assert abs(losses.reconstruction_mse(img, shifted).item() - 1.0) < 1e-12


def test_reconstruction_mse_seeded_oracle():
    rng = np.random.default_rng(61)
    a = rng.uniform(size=(3, 5, 5))
    b = rng.uniform(size=(3, 5, 5))
    want = float(np.mean((a - b) ** 2))
    tape = ad.Tape()
    got = losses.reconstruction_mse(tape.leaf(a), tape.leaf(b)).item()
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _const_terms(tape, values: dict[str, float]):
    return {k: tape.leaf(np.float64(v)) for k, v in values.items()}


def test_total_single_term():
    tape = ad.Tape()
    report, total = losses.total_loss(_const_terms(tape, {"contr_fc": 2.0}),
                                      LossWeights())
    assert report.total == 2.0
    assert total.item() == 2.0


def test_total_six_terms_paper_shape():
    tape = ad.Tape()
    six = {k: 1.0 for k in losses.TERM_ORDER[:6]}
    # the printed six-term total: reconstruction weighs nothing
    paper = LossWeights({"rec_f": 0.0, "rec_c": 0.0})
    report, _ = losses.total_loss(_const_terms(tape, six), paper)
    assert report.total == 6.0
    assert len(report.terms) == 6


def test_total_weighted_sum_oracle():
    rng = np.random.default_rng(70)
    values = {k: float(rng.uniform(0.1, 3.0)) for k in losses.TERM_ORDER}
    # contr_cv left out, so it weighs 1
    weights = LossWeights({"contr_fc": 0.5, "contr_fv": 2.0, "contr_eye": 0.0,
                           "pred_r": 3.0, "pred_c": 1.5, "rec_f": 0.25, "rec_c": 1.0})
    want = sum(weights.of(k) * values[k] for k in losses.TERM_ORDER)
    tape = ad.Tape()
    report, total = losses.total_loss(_const_terms(tape, values), weights)
    assert abs(report.total - want) < 1e-12
    assert abs(total.item() - want) < 1e-12


def test_total_report_reconstruction_invariant():
    rng = np.random.default_rng(71)
    values = {k: float(rng.uniform(0.1, 3.0)) for k in losses.TERM_ORDER}
    weights = LossWeights()
    tape = ad.Tape()
    report, _ = losses.total_loss(_const_terms(tape, values), weights)
    recomputed = sum(weights.of(k) * v for k, v in report.terms.items())
    assert abs(recomputed - report.total) < 1e-12


def test_total_empty_terms_rejected():
    with pytest.raises(ContractError):
        losses.total_loss({}, LossWeights())


def test_negative_weight_rejected():
    for weights, match in [
        ({"contr_fc": -0.5}, "contr_fc"),
        ({"pred_r": math.nan}, "pred_r"),
        ({"rec_f": math.inf}, "rec_f"),
        ({"rec_c": -math.inf}, "rec_c"),
        ({"contr_eyes": 1.0}, "unknown loss term 'contr_eyes'"),
    ]:
        with pytest.raises(ContractError, match=match):
            LossWeights(weights)


def test_loss_report_json_round_trip():
    report = LossReport(step=7, terms={"contr_fc": 1.5, "pred_r": 0.25}, total=1.75)
    line = report.to_json_line()
    back = LossReport.from_json_line(line)
    assert back == report
    assert line.startswith('{"step": 7')


# ---------------------------------------------------------------------------
# gradients through the loss stack
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_contrastive_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    params = {
        "u": rng.standard_normal((4, 5)),
        "v": rng.standard_normal((4, 5)),
    }

    def run(p):
        tape = ad.Tape()
        u = tape.leaf(p["u"], name="u")
        v = tape.leaf(p["v"], name="v")
        loss = losses.clip_loss(u, v, INV_TAU)
        return tape, u, v, loss

    tape, u, v, loss = run(params)
    grads = ad.backward(tape, loss)
    analytic = {"u": grads.of(u), "v": grads.of(v)}
    numeric = ad.finite_difference_gradient(
        lambda p: run(p)[3].item(), params, h=1e-5, adaptive=True
    )
    assert_grads_close(analytic, numeric)
