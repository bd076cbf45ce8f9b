"""Twin-encoder model: shapes, determinism, init, gradients, checkpoints."""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cmpr import autodiff as ad
from cmpr import losses, model
from cmpr.errors import (
    ConfigError,
    ContractError,
    DimensionError,
    DomainError,
    FormatError,
)
from cmpr.model import EncoderConfig, ParamView

from oracles import (
    assert_grads_close,
    backward_serial,
    encode_loops,
    expected_param_count,
    gelu_tanh_elementwise,
    held_arrays,
    sum_all,
    transposed_conv2d_direct,
)


TINY = EncoderConfig(
    image_size=8,
    patch_size=4,
    embed_dim=8,
    depth=1,
    proj_dim=4,
    pred_hidden=4,
    n_measures=2,
    decoder_channels=[4],
)


def make_view(params):
    return ParamView(ad.Tape(), params)


def rand_images(rng, n, size):
    return rng.uniform(0.0, 1.0, size=(n, 3, size, size))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_patch_divisibility():
    with pytest.raises(ConfigError):
        EncoderConfig(image_size=16, patch_size=5)


def test_config_rejects_unreachable_decoder_target():
    with pytest.raises(ConfigError):
        EncoderConfig(image_size=16, decoder_channels=[8, 8, 8, 8, 8])


def test_config_rejects_non_positive_decoder_channels():
    for channels in ([], [-1, 16], [32, 0]):
        with pytest.raises(ConfigError, match="decoder_channels"):
            EncoderConfig(decoder_channels=channels)


def test_config_round_trip():
    cfg = EncoderConfig()
    assert EncoderConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_names_unknown_key():
    d = {**EncoderConfig().to_dict(), "embed_dimm": 64}
    with pytest.raises(ConfigError, match="embed_dimm"):
        EncoderConfig.from_dict(d)


def test_config_from_dict_names_missing_key():
    d = EncoderConfig().to_dict()
    del d["depth"]
    with pytest.raises(ConfigError, match="depth"):
        EncoderConfig.from_dict(d)


@pytest.mark.parametrize(
    "key, value",
    [("embed_dim", "x"), ("decoder_channels", 5), ("depth", 1.5)],
    ids=["embed_dim_str", "decoder_channels_int", "depth_float"],
)
def test_config_wrong_field_type_raises_config_error(tmp_path, key, value):
    from collections import OrderedDict

    from cmpr import arrayio

    d = {**EncoderConfig().to_dict(), key: value}
    with pytest.raises(ConfigError, match=f"EncoderConfig.{key}"):
        EncoderConfig.from_dict(d)
    # and through a checkpoint's manifest
    path = tmp_path / "bad.cmpr"
    manifest = {"kind": "checkpoint", "step": 0, "encoder_config": d}
    arrayio.write_bundle(path, manifest, OrderedDict([("param/x", np.ones(2))]))
    with pytest.raises(ConfigError, match=f"EncoderConfig.{key}"):
        model.load_checkpoint(path)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_same_seed_bitwise_identical():
    a = model.init_params(TINY, seed=5)
    b = model.init_params(TINY, seed=5)
    assert list(a.arrays) == list(b.arrays)
    for k in a.arrays:
        np.testing.assert_array_equal(a.arrays[k], b.arrays[k])


def test_init_different_seeds_differ():
    a = model.init_params(TINY, seed=5)
    b = model.init_params(TINY, seed=6)
    assert any(
        not np.array_equal(a.arrays[k], b.arrays[k])
        for k in a.arrays
        if a.arrays[k].std() > 0
    )


def n_params(params):
    return sum(v.size for v in params.arrays.values())


def test_init_param_count_matches_closed_form():
    for cfg in (TINY, EncoderConfig()):
        params = model.init_params(cfg, seed=0)
        assert n_params(params) == expected_param_count(cfg)
        assert "log_tau" not in params.arrays
    with_tau = model.init_params(TINY, seed=0, learnable_tau_init=0.07)
    assert n_params(with_tau) == expected_param_count(TINY, learnable_tau=True)
    assert with_tau.arrays["log_tau"] == math.log(0.07)


@pytest.mark.parametrize("tau, error", [
    (0.0, DomainError),
    (-1.0, DomainError),
    (math.nan, DomainError),
    (math.inf, DomainError),
    (1e-320, DomainError),
    ("0.07", ContractError),
    (True, ContractError),
], ids=["zero", "negative", "nan", "inf", "inverse_inf", "str", "bool"])
def test_init_rejects_bad_learnable_tau(tau, error):
    with pytest.raises(error, match="temperature"):
        model.init_params(TINY, seed=0, learnable_tau_init=tau)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1"],
                         ids=["negative", "float", "bool", "str"])
def test_init_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # numpy's default_rng raises ValueError or TypeError for these
    with pytest.raises(ContractError, match="seed must be an integer >= 0"):
        model.init_params(TINY, seed=seed)


def _four_stream_step(seed):
    """One step of every objective on ``TINY``: (params, view, loss).

    The four contrastive pairings (fundus vs carotid, two fundus visits,
    two carotid visits, right vs left eye) share a learnable temperature,
    and both modalities' prediction and reconstruction heads read their
    embeddings."""
    rng = np.random.default_rng(seed)
    params = model.init_params(TINY, seed=seed, learnable_tau_init=0.07)
    view = make_view(params)
    inv_tau = losses.Temperature(0.07, learnable=True).resolve(view["log_tau"])
    images, emb, proj = {}, {}, {}
    for side, modality in (("fundus", "fundus"), ("fundus_later", "fundus"),
                           ("fundus_left", "fundus"), ("carotid", "carotid"),
                           ("carotid_later", "carotid")):
        images[side] = rand_images(rng, 4, TINY.image_size)
        emb[side] = model.encode(view, TINY, images[side], modality)
        proj[side] = model.project(view, TINY, emb[side], modality)
    terms = [
        losses.clip_loss(proj[a], proj[b], inv_tau)
        for a, b in (("fundus", "carotid"), ("fundus", "fundus_later"),
                     ("carotid", "carotid_later"), ("fundus", "fundus_left"))
    ]
    measures = view.tape.leaf(rng.standard_normal((4, TINY.n_measures)))
    for modality in model.MODALITIES:
        terms.append(losses.prediction_mse(
            measures, model.predict_measures(view, TINY, emb[modality], modality)))
        terms.append(losses.reconstruction_mse(
            view.tape.leaf(images[modality]),
            model.decode(view, TINY, emb[modality], modality)))
    loss = terms[0]
    for term in terms[1:]:
        loss = ad.add(loss, term)
    return params, view, loss


def test_every_parameter_gets_a_gradient_from_a_four_stream_step():
    # every parameter must be read, and must learn: a key bias, which
    # shifts a softmax row evenly, would get a gradient of rounding noise
    # (about 1e-20)
    params, view, loss = _four_stream_step(21)
    grads = ad.backward(view.tape, loss)
    used = view.used()
    assert sorted(used) == sorted(params.arrays)
    max_grad = {name: np.abs(grads.of(leaf)).max() for name, leaf in used.items()}
    assert {name: g for name, g in max_grad.items() if not g > 1e-12} == {}


def test_two_worker_backward_is_bitwise_the_serial_one(two_workers):
    # a short switch interval interleaves the two workers' bytecode often,
    # so an update lost between them would show as a changed bit
    _, view, loss = _four_stream_step(21)
    leaves = [i for i, node in enumerate(view.tape.nodes) if node.backward_fn is None]
    want = backward_serial(view.tape, loss)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = ad.backward(view.tape, loss)._by_node
            for i in leaves:
                assert (got[i] is None) == (want[i] is None), view.tape.nodes[i].op
                if got[i] is not None:
                    assert got[i].tobytes() == want[i].tobytes(), view.tape.nodes[i].op
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("blas_threads", ["1", None], ids=["one_blas_thread", "unpinned"])
def test_two_worker_backward_is_bitwise_at_either_blas_thread_count(blas_threads):
    # the benchmark pins OpenBLAS to one thread and the tests leave it
    # unpinned; the count is read when numpy loads, hence a new process
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    test = f"{Path(__file__).name}::test_two_worker_backward_is_bitwise_the_serial_one"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=Path(__file__).parent, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "1 passed" in out.stdout


def test_init_truncation_and_zero_biases():
    params = model.init_params(EncoderConfig(), seed=1)
    assert np.abs(params.arrays["fundus.patch.w"]).max() <= 2 * model.INIT_STD
    np.testing.assert_array_equal(params.arrays["fundus.patch.b"], 0.0)
    np.testing.assert_array_equal(params.arrays["fundus.block0.ln1.g"], 1.0)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------


def test_encode_output_shape():
    params = model.init_params(TINY, seed=3)
    rng = np.random.default_rng(0)
    view = make_view(params)
    emb = model.encode(view, TINY, rand_images(rng, 5, 8), "fundus")
    assert emb.shape == (5, TINY.embed_dim)


def test_encode_deterministic_for_identical_images():
    params = model.init_params(TINY, seed=3)
    rng = np.random.default_rng(1)
    img = rand_images(rng, 1, 8)
    batch = np.concatenate([img, img], axis=0)
    emb = model.encode(make_view(params), TINY, batch, "carotid").value
    np.testing.assert_array_equal(emb[0], emb[1])


def test_encode_permutation_equivariance():
    params = model.init_params(TINY, seed=4)
    rng = np.random.default_rng(2)
    images = rand_images(rng, 6, 8)
    perm = rng.permutation(6)
    base = model.encode(make_view(params), TINY, images, "fundus").value
    permuted = model.encode(make_view(params), TINY, images[perm], "fundus").value
    np.testing.assert_array_equal(base[perm], permuted)


def test_encode_rejects_wrong_spatial_size():
    params = model.init_params(TINY, seed=3)
    with pytest.raises(DimensionError):
        model.encode(
            make_view(params), TINY, np.zeros((2, 3, 16, 16)), "fundus"
        )


def test_encode_rejects_out_of_range_pixels():
    params = model.init_params(TINY, seed=3)
    with pytest.raises(ContractError):
        model.encode(
            make_view(params), TINY, np.full((1, 3, 8, 8), 1.5), "fundus"
        )


def test_encode_rejects_empty_batch():
    # the tile loop would otherwise meet no tile at all
    params = model.init_params(TINY, seed=3)
    with pytest.raises(DimensionError, match=r"\(0, 3, 8, 8\)"):
        model.encode(make_view(params), TINY, np.zeros((0, 3, 8, 8)), "fundus")


def small_tiles(monkeypatch, cfg, images_per_tile):
    """Make ``encode`` tile every ``images_per_tile`` images of ``cfg``."""
    monkeypatch.setattr(model, "_TILE_ROWS", images_per_tile * cfg.n_tokens)


def random_params(cfg, rng):
    # every parameter random, so biases, layer-norm affines and positions
    # all reach the output
    params = model.init_params(cfg, seed=14)
    for name, arr in params.arrays.items():
        params.arrays[name] = rng.normal(0.0, 0.5, size=arr.shape)
    return params


@pytest.mark.parametrize(
    "cfg",
    [TINY, dataclasses.replace(TINY, patch_size=2, embed_dim=6, depth=2)],
    ids=["tiny", "depth2"],
)
def test_encode_matches_loop_oracle(cfg):
    rng = np.random.default_rng(14)
    params = random_params(cfg, rng)
    images = rand_images(rng, 3, cfg.image_size)
    for modality in model.MODALITIES:
        got = model.encode(make_view(params), cfg, images, modality).value
        want = encode_loops(params.arrays, modality, images, cfg.patch_size,
                            cfg.depth)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize(
    "cfg",
    [TINY, dataclasses.replace(TINY, patch_size=2, embed_dim=6, depth=2)],
    ids=["tiny", "depth2"],
)
def test_tiled_encode_matches_loop_oracle_and_one_tile(cfg, monkeypatch):
    # 7 images in tiles of 2: three full tiles and a remainder of one
    rng = np.random.default_rng(15)
    params = random_params(cfg, rng)
    images = rand_images(rng, 7, cfg.image_size)
    for modality in model.MODALITIES:
        small_tiles(monkeypatch, cfg, 2)
        view = make_view(params)
        got = model.encode(view, cfg, images, modality)
        assert [node.op for node in view.tape.nodes].count("mean_axis") == 4
        assert view.tape.nodes[got.index].op == "concat_rows"
        want = encode_loops(params.arrays, modality, images, cfg.patch_size,
                            cfg.depth)
        np.testing.assert_allclose(got.value, want, rtol=1e-10, atol=0)
        small_tiles(monkeypatch, cfg, 10**6)
        one_tile = model.encode(make_view(params), cfg, images, modality).value
        np.testing.assert_allclose(got.value, one_tile, rtol=1e-13, atol=0)


class _ValueTape(ad.Tape):
    """A tape that also keeps each node's forward value, in node order."""

    __slots__ = ("values",)

    def __init__(self):
        super().__init__()
        self.values = []

    def append(self, op, value, parents, backward_fn):
        self.values.append(value)
        return super().append(op, value, parents, backward_fn)


@pytest.mark.parametrize(
    "cfg, n_images, counts",
    [
        (TINY, 2,
         {"leaf": 21, "linear": 2, "reshape": 3, "add_bias": 1,
          "attention": 1, "mlp": 1, "mean_axis": 1}),
        (dataclasses.replace(TINY, patch_size=2, embed_dim=6, depth=2), 2,
         {"leaf": 36, "linear": 2, "reshape": 3, "add_bias": 1,
          "attention": 2, "mlp": 2, "mean_axis": 1}),
        # tiles of 2 images: 2 + 2 + 1
        (TINY, 5,
         {"leaf": 23, "linear": 4, "reshape": 9, "add_bias": 3,
          "attention": 3, "mlp": 3, "mean_axis": 3, "concat_rows": 1}),
    ],
    ids=["tiny", "depth2", "tiny_3tiles"],
)
def test_encode_project_tape(cfg, n_images, counts, monkeypatch):
    # per block: 15 parameter leaves; the attention sublayer, its layer
    # norm and residual add included, is one attention node, and the MLP
    # sublayer one mlp node.
    # Around the blocks: the pixel, patch and position leaves, the patch
    # linear, the position add_bias, three reshapes, the pool, and the
    # projection's two leaves and linear.  Each further tile repeats all
    # but the parameter leaves, and one concat_rows joins the pools.
    small_tiles(monkeypatch, cfg, 2)
    view = ParamView(_ValueTape(), model.init_params(cfg, seed=3))
    images = rand_images(np.random.default_rng(3), n_images, cfg.image_size)
    model.project(view, cfg, model.encode(view, cfg, images, "fundus"), "fundus")
    tape = view.tape
    kinds = [
        "leaf" if node.backward_fn is None else node.op for node in tape.nodes
    ]
    assert Counter(kinds) == counts
    for node, value in zip(tape.nodes, tape.values):
        if node.op == "add_bias":
            assert all(tape.nodes[p].op != "matmul" for p in node.parents)
        if node.op in ("reshape", "transpose"):
            # these two are recorded unchecked, which is sound for views only
            assert np.shares_memory(value, tape.values[node.parents[0]])


def test_patchify_layout():
    images = np.arange(2 * 3 * 4 * 4, dtype=np.float64).reshape(2, 3, 4, 4)
    patches = model.patchify(images, 2)
    assert patches.shape == (2, 4, 12)
    # first patch of first image: channel-major 2x2 blocks from the corner
    want = np.concatenate(
        [images[0, c, :2, :2].reshape(-1) for c in range(3)]
    )
    np.testing.assert_array_equal(patches[0, 0], want)


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------


def test_project_zero_params_gives_zeros():
    params = model.init_params(TINY, seed=5)
    params.arrays["fundus.proj.w"][:] = 0.0
    params.arrays["fundus.proj.b"][:] = 0.0
    view = make_view(params)
    emb = view.tape.leaf(np.random.default_rng(0).standard_normal((4, 8)))
    out = model.project(view, TINY, emb, "fundus")
    np.testing.assert_array_equal(out.value, 0.0)


def test_project_identity_when_square():
    cfg = EncoderConfig(
        image_size=8, patch_size=4, embed_dim=8, depth=1, proj_dim=8,
        pred_hidden=4, n_measures=2, decoder_channels=[4],
    )
    params = model.init_params(cfg, seed=6)
    params.arrays["fundus.proj.w"] = np.eye(8)
    params.arrays["fundus.proj.b"][:] = 0.0
    view = make_view(params)
    x = np.random.default_rng(1).standard_normal((3, 8))
    out = model.project(view, cfg, view.tape.leaf(x), "fundus")
    np.testing.assert_array_equal(out.value, x)


def test_predict_measures_shape_and_zero_params():
    params = model.init_params(TINY, seed=7)
    view = make_view(params)
    emb = view.tape.leaf(np.random.default_rng(2).standard_normal((6, 8)))
    out = model.predict_measures(view, TINY, emb, "carotid")
    assert out.shape == (6, TINY.n_measures)
    for k in ("carotid.pred.w1", "carotid.pred.b1", "carotid.pred.w2",
              "carotid.pred.b2"):
        params.arrays[k][:] = 0.0
    view0 = make_view(params)
    out0 = model.predict_measures(
        view0, TINY, view0.tape.leaf(emb.value), "carotid"
    )
    np.testing.assert_array_equal(out0.value, 0.0)


@pytest.mark.parametrize("head", [model.project, model.predict_measures, model.decode],
                         ids=["project", "predict_measures", "decode"])
@pytest.mark.parametrize("shape", [(3, TINY.embed_dim - 1), (3, TINY.embed_dim + 1),
                                   (TINY.embed_dim,)], ids=["narrow", "wide", "1d"])
def test_heads_reject_wrong_embedding_width(head, shape):
    # each head's first op is a linear layer, which checks the width
    view = make_view(model.init_params(TINY, seed=7))
    with pytest.raises(DimensionError):
        head(view, TINY, view.tape.leaf(np.ones(shape)), "fundus")


def test_decode_output_shape_matches_input_images():
    for cfg in (TINY, EncoderConfig()):
        params = model.init_params(cfg, seed=8)
        view = make_view(params)
        emb = view.tape.leaf(
            np.random.default_rng(3).standard_normal((2, cfg.embed_dim))
        )
        out = model.decode(view, cfg, emb, "fundus")
        assert out.shape == (2, 3, cfg.image_size, cfg.image_size)


def test_decode_zero_embedding_zero_params_gives_zero_image():
    params = model.init_params(TINY, seed=9)
    for k in list(params.arrays):
        if ".dec." in k:
            params.arrays[k][:] = 0.0
    view = make_view(params)
    emb = view.tape.leaf(np.zeros((2, 8)))
    out = model.decode(view, TINY, emb, "fundus")
    np.testing.assert_array_equal(out.value, 0.0)


def _random_decoder(cfg, seed):
    """Parameters with every decoder weight and bias random, so the seed
    bias and every kernel tap reach the output."""
    rng = np.random.default_rng(seed)
    params = model.init_params(cfg, seed=seed)
    for name, arr in params.arrays.items():
        if ".dec." in name:
            params.arrays[name] = rng.normal(0.0, 0.5, size=arr.shape)
    return params, rng.standard_normal((2, cfg.embed_dim))


TWO_LAYER = dataclasses.replace(TINY, decoder_channels=[4, 2])


@pytest.mark.parametrize("cfg", [TINY, EncoderConfig()], ids=["tiny", "default"])
def test_decode_matches_direct_transposed_convolution(cfg):
    params, emb = _random_decoder(cfg, seed=16)
    view = make_view(params)
    got = model.decode(view, cfg, view.tape.leaf(emb), "carotid").value
    p = {k[len("carotid.dec."):]: v for k, v in params.arrays.items()
         if k.startswith("carotid.dec.")}
    hw, chain = cfg.decoder_seed_hw, cfg.decoder_chain
    want = []
    for e in emb:
        x = (e @ p["seed.w"] + p["seed.b"]).reshape(chain[0], hw, hw)
        for i in range(len(chain) - 1):
            x = transposed_conv2d_direct(x, p[f"conv{i}.k"], stride=2)
            if i < len(chain) - 2:
                x, _ = gelu_tanh_elementwise(x)
        want.append(x)
    np.testing.assert_allclose(got, np.array(want), rtol=0, atol=1e-13)


@pytest.mark.parametrize("cfg", [TINY, TWO_LAYER], ids=["tiny", "two_layer"])
def test_decode_gradients_match_fd(cfg):
    params, emb = _random_decoder(cfg, seed=17)
    r = np.random.default_rng(18).standard_normal(
        (2, 3, cfg.image_size, cfg.image_size)
    )
    # the embedding rides along as one more named leaf of the view
    probed = {k: v for k, v in params.arrays.items() if k.startswith("fundus.dec.")}
    probed["emb"] = emb

    def run(p):
        view = make_view(model.ModelParams({**params.arrays, **p}))
        out = model.decode(view, cfg, view["emb"], "fundus")
        return view, sum_all(ad.mul(out, view.tape.leaf(r)))

    view, loss = run(probed)
    grads = ad.backward(view.tape, loss)
    analytic = {k: grads.of(view[k]) for k in probed}
    numeric = ad.finite_difference_gradient(
        lambda p: run(p)[1].item(), probed, h=1e-5, adaptive=True
    )
    assert_grads_close(analytic, numeric)


def test_decode_overfit_smoke_reduces_mse():
    # 200 plain gradient-descent steps on 8 fixed images must reduce the
    # reconstruction error of the decoder stack
    rng = np.random.default_rng(10)
    params = model.init_params(TINY, seed=11)
    images = rand_images(rng, 8, 8)
    emb_np = rng.standard_normal((8, 8))
    dec_keys = [k for k in params.arrays if k.startswith("fundus.dec")]

    def step(update):
        view = make_view(params)
        emb = view.tape.leaf(emb_np)
        out = model.decode(view, TINY, emb, "fundus")
        target = view.tape.leaf(images)
        mse = losses.reconstruction_mse(target, out)
        if update:
            grads = ad.backward(view.tape, mse)
            for k in dec_keys:
                params.arrays[k] -= 0.5 * grads.of(view[k])
        return mse.item()

    start = step(update=False)
    for _ in range(200):
        step(update=True)
    end = step(update=False)
    assert end < start


# ---------------------------------------------------------------------------
# gradients through the full forward
# ---------------------------------------------------------------------------


def encoder_projection_fd(seed, n_images):
    """Gradients of mean(proj**2) through encode and project against FD."""
    rng = np.random.default_rng(seed)
    images = rand_images(rng, n_images, 8)
    base = model.init_params(TINY, seed=seed)
    names = [
        "fundus.patch.w", "fundus.pos",
        *(f"fundus.block0.attn.{p}" for p in "wq wk wv wo bq bv bo".split()),
        "fundus.block0.ln1.g", "fundus.block0.mlp.w1", "fundus.proj.w",
    ]
    subset = {k: base.arrays[k].copy() for k in names}

    def run(p):
        trial = model.ModelParams(base.arrays.copy())
        for k, v in p.items():
            trial.arrays[k] = v
        view = make_view(trial)
        emb = model.encode(view, TINY, images, "fundus")
        proj = model.project(view, TINY, emb, "fundus")
        return view, proj

    view, proj = run(subset)
    loss = ad.mean_all(ad.mul(proj, proj))
    grads = ad.backward(view.tape, loss)
    analytic = {k: grads.of(view[k]) for k in names}

    def f(p):
        v2, proj2 = run(p)
        return ad.mean_all(ad.mul(proj2, proj2)).item()

    numeric = ad.finite_difference_gradient(f, subset, h=1e-5, adaptive=True)
    assert_grads_close(analytic, numeric)
    return view


@pytest.mark.parametrize("seed", [0, 1])
def test_encoder_projection_gradients_match_fd(seed):
    encoder_projection_fd(seed, 2)


def test_tiled_encoder_projection_gradients_match_fd(monkeypatch):
    # 5 images in tiles of 2: the parameter gradients add up over 3 tiles
    small_tiles(monkeypatch, TINY, 2)
    view = encoder_projection_fd(2, 5)
    assert "concat_rows" in {node.op for node in view.tape.nodes}


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_forward_bitwise(tmp_path):
    params = model.init_params(TINY, seed=12)
    rng = np.random.default_rng(5)
    images = rand_images(rng, 3, 8)
    before = model.encode(make_view(params), TINY, images, "fundus").value

    path = tmp_path / "ckpt.cmpr"
    model.save_checkpoint(
        path, params, TINY, step=42,
        manifest_extra={"note": "x"},
        aux_arrays={"optim.m/fundus.patch.w": np.zeros((48, 8))},
    )
    loaded, cfg, step, extra, aux = model.load_checkpoint(path)
    assert step == 42
    assert cfg == TINY
    assert extra == {"note": "x"}
    assert "optim.m/fundus.patch.w" in aux
    assert list(loaded.arrays) == list(params.arrays)
    after = model.encode(make_view(loaded), TINY, images, "fundus").value
    np.testing.assert_array_equal(before, after)


def test_checkpoint_round_trip_learnable_tau(tmp_path):
    params = model.init_params(TINY, seed=13, learnable_tau_init=0.07)
    path = tmp_path / "ckpt.cmpr"
    model.save_checkpoint(path, params, TINY, step=1)
    loaded, _, _, _, _ = model.load_checkpoint(path)
    assert list(loaded.arrays) == list(params.arrays)
    for name, arr in params.arrays.items():
        assert loaded.arrays[name].shape == arr.shape
        assert loaded.arrays[name].tobytes() == arr.tobytes()
    # the reloaded 0-d log_tau still scales a similarity matrix
    view = make_view(loaded)
    inv_tau = losses.Temperature(0.07, learnable=True).resolve(view["log_tau"])
    rng = np.random.default_rng(6)
    u = view.tape.leaf(rng.standard_normal((3, 4)))
    v = view.tape.leaf(rng.standard_normal((3, 4)))
    assert np.isfinite(losses.clip_loss(u, v, inv_tau).item())


def test_checkpoint_rejects_non_checkpoint_bundle(tmp_path):
    from collections import OrderedDict

    from cmpr import arrayio

    path = tmp_path / "other.cmpr"
    arrayio.write_bundle(path, {"kind": "cohort"}, OrderedDict([("x", np.ones(2))]))
    with pytest.raises(ContractError):
        model.load_checkpoint(path)


@pytest.mark.parametrize(
    "change, key",
    [
        ({"encoder_config": None}, "encoder_config"),
        ({"step": None}, "step"),
        ({"step": "x"}, "step"),
        ({"encoder_config": 5}, "encoder_config"),
    ],
    ids=["no_encoder_config", "no_step", "step_not_int", "encoder_config_not_object"],
)
def test_checkpoint_malformed_manifest_raises_format_error(tmp_path, change, key):
    from collections import OrderedDict

    from cmpr import arrayio

    manifest = {"kind": "checkpoint", "step": 3, "encoder_config": TINY.to_dict()}
    manifest.update(change)
    manifest = {k: v for k, v in manifest.items() if v is not None}
    path = tmp_path / "bad.cmpr"
    arrayio.write_bundle(path, manifest, OrderedDict([("param/x", np.ones(2))]))
    with pytest.raises(FormatError, match=f"bad.cmpr.*'{key}'"):
        model.load_checkpoint(path)


def _add_key_bias(manifest, arrays):
    arrays["param/fundus.block0.attn.bk"] = np.zeros(TINY.embed_dim)


def _drop_param(manifest, arrays):
    del arrays["param/carotid.pred.b2"]


def _reshape_param(manifest, arrays):
    arrays["param/fundus.pos"] = arrays["param/fundus.pos"].reshape(-1, 2)


@pytest.mark.parametrize(
    "edit, message",
    [
        # a checkpoint written before the key bias was removed
        (_add_key_bias, "'fundus.block0.attn.bk' is not a parameter"),
        (_drop_param, "'carotid.pred.b2' is missing"),
        (_reshape_param, r"'fundus.pos' has the wrong shape \(16, 2\)"),
        (lambda manifest, arrays: arrays.update({"param/log_tau": np.zeros(2)}),
         r"'log_tau' has the wrong shape \(2,\)"),
        (lambda manifest, arrays: manifest.update(extra=5), "'extra' must be of type dict"),
        (lambda manifest, arrays: arrays.update(junk=np.ones(2)),
         "array 'junk' is neither a parameter nor aux state"),
    ],
    ids=["extra", "missing", "wrong_shape", "log_tau_two_values", "extra_not_object",
         "stray_array"],
)
def test_checkpoint_parameters_must_match_the_config(tmp_path, edit, message):
    from cmpr import arrayio

    path = tmp_path / "ckpt.cmpr"
    model.save_checkpoint(path, model.init_params(TINY, seed=16), TINY, step=1)
    manifest, arrays = arrayio.read_bundle(path)
    edit(manifest, arrays)
    arrayio.write_bundle(path, manifest, arrays)
    with pytest.raises(FormatError, match=f"ckpt.cmpr: .*{message}"):
        model.load_checkpoint(path)


@pytest.mark.parametrize("shape", [(), (1,)], ids=["0d", "one_element"])
def test_checkpoint_log_tau_holds_one_value(tmp_path, shape):
    # the benchmark stores log_tau with shape (1,)
    params = model.init_params(TINY, seed=16, learnable_tau_init=0.07)
    params.arrays["log_tau"] = params.arrays["log_tau"].reshape(shape)
    path = tmp_path / "ckpt.cmpr"
    model.save_checkpoint(path, params, TINY, step=1)
    loaded = model.load_checkpoint(path)[0]
    assert loaded.arrays["log_tau"].shape == shape
    assert list(loaded.arrays) == list(params.arrays)


def test_checkpoint_with_heads_key_raises_config_error(tmp_path):
    # the encoder is single-head; a config that still names heads is not one
    # this code can run
    from cmpr import arrayio

    path = tmp_path / "ckpt.cmpr"
    model.save_checkpoint(path, model.init_params(TINY, seed=15), TINY, step=2)
    manifest, arrays = arrayio.read_bundle(path)
    manifest["encoder_config"]["heads"] = 1
    arrayio.write_bundle(path, manifest, arrays)
    with pytest.raises(ConfigError, match="heads"):
        model.load_checkpoint(path)


# ---------------------------------------------------------------------------
# what a recorded tape keeps alive
# ---------------------------------------------------------------------------


def test_no_backward_rule_captures_a_tensor(monkeypatch):
    # a captured Tensor pins its forward value for the tape's whole life
    # even when the rule never reads it.  Tiles of 2 images make each
    # 3-image encode two tiles, so concat_rows is recorded too, and a
    # two-layer decoder records the gelu between its layers.
    cfg = dataclasses.replace(TINY, decoder_channels=[4, 4])
    small_tiles(monkeypatch, cfg, 2)
    rng = np.random.default_rng(8)
    params = model.init_params(cfg, seed=8, learnable_tau_init=0.07)
    view = make_view(params)
    inv_tau = losses.Temperature(0.07, learnable=True).resolve(view["log_tau"])
    batches, heads = [], []
    for modality in ("fundus", "carotid"):
        images = rand_images(rng, 3, 8)
        emb = model.encode(view, cfg, images, modality)
        proj = model.project(view, cfg, emb, modality)
        batches.append(proj)
        measures = view.tape.leaf(rng.standard_normal((3, cfg.n_measures)))
        heads.append(losses.prediction_mse(
            measures, model.predict_measures(view, cfg, emb, modality)
        ))
        heads.append(losses.reconstruction_mse(
            view.tape.leaf(images), model.decode(view, cfg, emb, modality)
        ))
    loss = losses.clip_loss(*batches, inv_tau)
    for term in heads:
        loss = ad.add(loss, term)
    ops = set()
    for node in view.tape.nodes:
        if node.backward_fn is None:
            continue
        ops.add(node.op)
        # and none of the functions a rule keeps, such as a sublayer's
        # helper that computes its weight gradients
        cells = list(node.backward_fn.__closure__ or ())
        while cells:
            held = cells.pop().cell_contents
            assert not isinstance(held, ad.Tensor), node.op
            cells.extend(getattr(held, "__closure__", None) or ())
    # every public op is recorded here, so every rule is checked above, and
    # an op that no model or loss path calls shows up as missing
    public_ops = {
        name for name, fn in inspect.getmembers(ad, inspect.isfunction)
        if fn.__module__ == ad.__name__ and not name.startswith("_")
    }
    assert public_ops - {"backward", "finite_difference_gradient"} <= ops
    assert np.isfinite(loss.item())


def test_encode_tape_holds_the_closed_form_activation_budget():
    # a default-config batch of 64 images is one tile of 1,024 token rows.
    # Besides the parameters, its rules hold each sublayer's layer-norm
    # rows (1,024 x 64) and inverse deviations (1,024 x 1), each attention's
    # (64, 16, 16) softmax weights and the patch linear's (1,024 x 48)
    # pixel rows: 2,720 KiB, and no other mlp or attention activation
    cfg = EncoderConfig()
    n = 64
    view = make_view(model.init_params(cfg, seed=4))
    model.encode(view, cfg, rand_images(np.random.default_rng(4), n, cfg.image_size),
                 "fundus")
    params = [leaf.value for leaf in view.used().values()]
    held = {}
    for node in view.tape.nodes:
        if node.backward_fn is not None:
            held.update((id(a), a) for a in held_arrays(node.backward_fn, params))
    rows, t = n * cfg.n_tokens, cfg.n_tokens
    layer_norms = 2 * cfg.depth * (rows * cfg.embed_dim + rows)
    softmax = cfg.depth * n * t * t
    pixels = rows * cfg.patch_dim
    want = 8 * (layer_norms + softmax + pixels)
    assert want == 2720 * 1024
    assert sum(a.nbytes for a in held.values()) == want
