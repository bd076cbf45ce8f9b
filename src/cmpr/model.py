"""Toy-scale twin-encoder architecture.

Per modality: a small pre-norm vision transformer (patch embedding +
learned positions, single-head self-attention blocks on the flat (N*T, D)
token matrix, mean-pooled tokens), a linear projection head for the
contrastive space, a 2-layer GELU MLP for measure prediction, and a
decoder for reconstruction: a linear seed feature map, then transposed
convolutions with kernel 2 and stride 2, each built as a matmul and a
pixel shuffle, with GELU between them.  Each block is two sublayers
``x + f(layer_norm(x))``, and each sublayer is one tape node: the
attention sublayer one ``attention`` node, the MLP sublayer one ``mlp``
node, each with its layer norm and residual add inside.

The prediction and decoding heads read the pre-projection encoder
embedding, which preserves more information than the projection.

``encode`` runs the transformer on tiles of consecutive images, at most
``_TILE_ROWS`` token rows each (64 images at the default config), and
joins the pooled tiles with ``concat_rows``.  A tile's widest activation
is then 1,024 x 128 float64 (1 MiB), so it stays in a 2 MiB L2 cache from
one op to the next; a 256-image batch's 4 MiB arrays stream from L3 on
every sublayer.  The split changes no forward value (a row of a gemm does
not depend on how many rows the gemm has).  All tiles share the
ParamView's parameter leaves, so parameter gradients add up across tiles.
A batch of one tile records exactly the untiled tape.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import arrayio
from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    FormatError,
    check_config_keys,
    check_field_types,
    check_seed,
    manifest_field,
)
from .losses import Temperature

MODALITIES = ("fundus", "carotid")
_TILE_ROWS = 1024  # token rows per encoder tile; see the module docstring
MLP_RATIO = 2  # encoder MLP hidden width as a multiple of embed_dim
INIT_STD = 0.02


@dataclass
class EncoderConfig:
    image_size: int = 16
    patch_size: int = 4
    embed_dim: int = 64
    depth: int = 2
    proj_dim: int = 32
    pred_hidden: int = 32
    n_measures: int = 4
    decoder_channels: list[int] = field(default_factory=lambda: [32, 16])

    def __post_init__(self):
        check_field_types(self)
        for name in ("image_size", "patch_size", "embed_dim", "proj_dim",
                     "pred_hidden"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be >= 2")
        if self.depth < 1 or self.n_measures < 1:
            raise ConfigError("depth and n_measures must be >= 1")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size "
                f"{self.patch_size}"
            )
        if not self.decoder_channels or min(self.decoder_channels) < 1:
            raise ConfigError("decoder_channels must be a non-empty list of counts >= 1")
        # each deconv layer (kernel 2, stride 2) exactly doubles spatial size
        factor = 2 ** len(self.decoder_channels)
        if self.image_size % factor != 0 or self.image_size // factor < 1:
            raise ConfigError(
                f"decoder with {len(self.decoder_channels)} stride-2 layers "
                f"cannot reach {self.image_size}x{self.image_size}"
            )

    @property
    def n_tokens(self) -> int:
        return (self.image_size // self.patch_size) ** 2

    @property
    def patch_dim(self) -> int:
        return 3 * self.patch_size**2

    @property
    def decoder_seed_hw(self) -> int:
        return self.image_size // 2 ** len(self.decoder_channels)

    @property
    def decoder_chain(self) -> list[int]:
        return [*self.decoder_channels, 3]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EncoderConfig":
        check_config_keys(cls, d)
        return cls(**d)


@dataclass
class ModelParams:
    """Flat named parameter store; groups are addressed by dotted prefix."""

    arrays: "OrderedDict[str, np.ndarray]"


class ParamView:
    """Wraps parameter arrays as tape leaves on first use.

    Tracks which parameters the forward pass touched, so the optimizer can
    update exactly those.
    """

    def __init__(self, tape: Tape, params: ModelParams):
        self.tape = tape
        self._params = params
        self._leaves: dict[str, Tensor] = {}

    def __getitem__(self, name: str) -> Tensor:
        if name not in self._leaves:
            if name not in self._params.arrays:
                raise ContractError(f"unknown parameter {name!r}")
            self._leaves[name] = self.tape.leaf(self._params.arrays[name], name=name)
        return self._leaves[name]

    def used(self) -> dict[str, Tensor]:
        return dict(self._leaves)


def truncated_normal(rng: np.random.Generator, shape, std: float = INIT_STD):
    """Normal(0, std) with resampling of draws beyond two sigma."""
    out = rng.standard_normal(size=shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(size=int(bad.sum()))
        bad = np.abs(out) > 2.0
    return out * std


def init_params(
    config: EncoderConfig, seed: int, learnable_tau_init: float | None = None
) -> ModelParams:
    """Deterministic parameter initialization.

    Weights are truncated-normal (std 0.02), biases and layer-norm shifts
    zero, layer-norm scales one.  ``learnable_tau_init`` adds a ``log_tau``
    scalar initialized to log of the given temperature, which must be
    positive and finite, with a finite inverse (else ``DomainError``).
    ``seed`` must be an integer >= 0 (else ``ContractError``).
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    arrays: OrderedDict[str, np.ndarray] = OrderedDict()

    def w(name, shape):
        arrays[name] = truncated_normal(rng, shape)

    def zeros(name, shape):
        arrays[name] = np.zeros(shape, dtype=np.float64)

    def ones(name, shape):
        arrays[name] = np.ones(shape, dtype=np.float64)

    d = config.embed_dim
    for m in MODALITIES:
        w(f"{m}.patch.w", (config.patch_dim, d))
        zeros(f"{m}.patch.b", (d,))
        w(f"{m}.pos", (config.n_tokens, d))
        for i in range(config.depth):
            p = f"{m}.block{i}"
            ones(f"{p}.ln1.g", (d,))
            zeros(f"{p}.ln1.b", (d,))
            for proj in "qkvo":
                w(f"{p}.attn.w{proj}", (d, d))
                if proj != "k":  # no key bias; see autodiff.attention
                    zeros(f"{p}.attn.b{proj}", (d,))
            ones(f"{p}.ln2.g", (d,))
            zeros(f"{p}.ln2.b", (d,))
            w(f"{p}.mlp.w1", (d, MLP_RATIO * d))
            zeros(f"{p}.mlp.b1", (MLP_RATIO * d,))
            w(f"{p}.mlp.w2", (MLP_RATIO * d, d))
            zeros(f"{p}.mlp.b2", (d,))
        w(f"{m}.proj.w", (d, config.proj_dim))
        zeros(f"{m}.proj.b", (config.proj_dim,))
        w(f"{m}.pred.w1", (d, config.pred_hidden))
        zeros(f"{m}.pred.b1", (config.pred_hidden,))
        w(f"{m}.pred.w2", (config.pred_hidden, config.n_measures))
        zeros(f"{m}.pred.b2", (config.n_measures,))
        c0 = config.decoder_channels[0]
        hw = config.decoder_seed_hw
        w(f"{m}.dec.seed.w", (d, c0 * hw * hw))
        zeros(f"{m}.dec.seed.b", (c0 * hw * hw,))
        chain = config.decoder_chain
        for i in range(len(chain) - 1):
            w(f"{m}.dec.conv{i}.k", (chain[i], chain[i + 1], 2, 2))
    if learnable_tau_init is not None:
        arrays["log_tau"] = Temperature(learnable_tau_init).initial_param()
    return ModelParams(arrays)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------


def patchify(images: np.ndarray, patch: int) -> np.ndarray:
    """(N, 3, H, W) -> (N, T, 3*patch*patch), raster order, channel-major."""
    n, c, h, w = images.shape
    gh, gw = h // patch, w // patch
    x = images.reshape(n, c, gh, patch, gw, patch)
    x = x.transpose(0, 2, 4, 1, 3, 5)
    return np.ascontiguousarray(x).reshape(n, gh * gw, c * patch * patch)


def _validate_images(images: np.ndarray, config: EncoderConfig) -> None:
    if images.ndim != 4 or images.shape[0] == 0 or images.shape[1] != 3 or (
        images.shape[2] != config.image_size or images.shape[3] != config.image_size
    ):
        raise DimensionError(
            f"expected (N, 3, {config.image_size}, {config.image_size}) images "
            f"with N >= 1, got {images.shape}"
        )
    if images.min() < 0.0 or images.max() > 1.0:
        raise ContractError("image values must lie in [0, 1]")


def _linear(view: ParamView, x: Tensor, prefix: str) -> Tensor:
    """The layer with weight ``{prefix}.w`` and bias ``{prefix}.b``."""
    return ad.linear(x, view[f"{prefix}.w"], view[f"{prefix}.b"])


def encode(
    view: ParamView, config: EncoderConfig, images: np.ndarray, modality: str
) -> Tensor:
    """Images -> mean-pooled transformer embedding (N, embed_dim).

    Runs the encoder on consecutive tiles of at most ``_TILE_ROWS`` token
    rows, so each tile's activations stay in L2 between ops, and joins the
    pooled tiles by ``concat_rows``.  A batch that fits one tile returns
    that tile's Tensor, so it records exactly the untiled tape.
    """
    if modality not in MODALITIES:
        raise ContractError(f"unknown modality {modality!r}")
    _validate_images(images, config)
    tile = max(1, _TILE_ROWS // config.n_tokens)
    pooled = [
        _encode_tile(view, config, images[lo:lo + tile], modality)
        for lo in range(0, len(images), tile)
    ]
    return pooled[0] if len(pooled) == 1 else ad.concat_rows(pooled)


def _encode_tile(
    view: ParamView, config: EncoderConfig, images: np.ndarray, modality: str
) -> Tensor:
    pa = patchify(images, config.patch_size)
    n, t, pd = pa.shape
    x = view.tape.leaf(pa.reshape(n * t, pd), name=f"{modality}.pixels")
    d = config.embed_dim
    tok = _linear(view, x, f"{modality}.patch")
    tok = ad.add_bias(ad.reshape(tok, (n, t, d)), view[f"{modality}.pos"])
    x = ad.reshape(tok, (n * t, d))
    for i in range(config.depth):
        p = f"{modality}.block{i}"
        x = ad.attention(
            x, view[f"{p}.ln1.g"], view[f"{p}.ln1.b"],
            [view[f"{p}.attn.w{c}"] for c in "qkvo"],
            [view[f"{p}.attn.b{c}"] for c in "qvo"], n,
        )
        x = ad.mlp(x, *(view[f"{p}.{q}"] for q in (
            "ln2.g", "ln2.b", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")))
    return ad.mean_axis(ad.reshape(x, (n, t, d)), 1)


def project(view: ParamView, config: EncoderConfig, emb: Tensor, modality: str):
    """Affine map into the contrastive space; not normalized here."""
    return _linear(view, emb, f"{modality}.proj")


def predict_measures(
    view: ParamView, config: EncoderConfig, emb: Tensor, modality: str
) -> Tensor:
    """linear -> GELU -> linear measure predictions, (N, n_measures)."""
    p = f"{modality}.pred"
    hidden = ad.gelu(ad.linear(emb, view[f"{p}.w1"], view[f"{p}.b1"]))
    return ad.linear(hidden, view[f"{p}.w2"], view[f"{p}.b2"])


def _upsample2x(x: Tensor, kernel: Tensor) -> Tensor:
    """Transposed convolution with kernel 2 and stride 2.

    Its taps do not overlap, so the layer maps each input pixel's C channels
    to a 2x2 block of C' channels: one matmul over the pixel rows, then a
    depth-to-space shuffle, (N, C, H, W) -> (N, C', 2H, 2W).
    """
    n, c, h, w = x.shape
    co = kernel.shape[1]
    rows = ad.reshape(ad.transpose(x, (0, 2, 3, 1)), (n * h * w, c))
    blocks = ad.matmul(rows, ad.reshape(kernel, (c, co * 4)))
    blocks = ad.transpose(ad.reshape(blocks, (n, h, w, co, 2, 2)), (0, 3, 1, 4, 2, 5))
    return ad.reshape(blocks, (n, co, 2 * h, 2 * w))


def decode(
    view: ParamView, config: EncoderConfig, emb: Tensor, modality: str
) -> Tensor:
    """Embedding -> seed feature map -> stride-2 upsampling stack -> image."""
    n = emb.shape[0]
    hw = config.decoder_seed_hw
    c0 = config.decoder_channels[0]
    seed = _linear(view, emb, f"{modality}.dec.seed")
    x = ad.reshape(seed, (n, c0, hw, hw))
    chain = config.decoder_chain
    for i in range(len(chain) - 1):
        x = _upsample2x(x, view[f"{modality}.dec.conv{i}.k"])
        if i < len(chain) - 2:
            x = ad.gelu(x)
    return x


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_PARAM_PREFIX = "param/"
_AUX_PREFIX = "aux/"


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    config: EncoderConfig,
    step: int,
    manifest_extra: dict | None = None,
    aux_arrays: dict[str, np.ndarray] | None = None,
) -> None:
    """Write the shared CMPR bundle: manifest + named parameter arrays.

    ``aux_arrays`` carries optimizer moments and similar sidecar state.
    Everything is stored float64 so resumed runs are bitwise identical.
    """
    manifest = {
        "kind": "checkpoint",
        "step": int(step),
        "encoder_config": config.to_dict(),
        "extra": manifest_extra or {},
    }
    arrays: OrderedDict[str, np.ndarray] = OrderedDict()
    for name, arr in params.arrays.items():
        arrays[_PARAM_PREFIX + name] = arr
    for name, arr in (aux_arrays or {}).items():
        arrays[_AUX_PREFIX + name] = arr
    arrayio.write_bundle(path, manifest, arrays)


def load_checkpoint(path: str | Path):
    """Read back (params, config, step, manifest_extra, aux_arrays).

    Every array must be a ``param/`` or ``aux/`` one, the manifest's
    ``extra`` an object, the parameters the names and shapes
    ``init_params`` makes for the stored config, and ``log_tau``, if
    present, one value of shape () or (1,); else ``FormatError`` names the
    file and the first bad key.
    """
    manifest, arrays = arrayio.read_bundle(path)
    if manifest.get("kind") != "checkpoint":
        raise ContractError(f"{path} is not a checkpoint bundle")
    params: OrderedDict[str, np.ndarray] = OrderedDict()
    aux: dict[str, np.ndarray] = {}
    for name, arr in arrays.items():
        if name.startswith(_PARAM_PREFIX):
            params[name[len(_PARAM_PREFIX):]] = arr
        elif name.startswith(_AUX_PREFIX):
            aux[name[len(_AUX_PREFIX):]] = arr
        else:
            raise FormatError(f"{path}: array {name!r} is neither a parameter nor aux state")
    config = EncoderConfig.from_dict(manifest_field(path, manifest, "encoder_config", dict))
    step = manifest_field(path, manifest, "step", int)
    extra = manifest_field(path, manifest, "extra", dict)
    want = {name: a.shape for name, a in init_params(config, seed=0).arrays.items()}
    for name, arr in params.items():
        if name == "log_tau":
            ok = arr.shape in ((), (1,))
        elif name in want:
            ok = arr.shape == want.pop(name)
        else:
            raise FormatError(f"{path}: {name!r} is not a parameter of this encoder")
        if not ok:
            raise FormatError(f"{path}: parameter {name!r} has the wrong shape {arr.shape}")
    if want:
        raise FormatError(f"{path}: parameter {next(iter(want))!r} is missing")
    return ModelParams(params), config, step, extra, aux
