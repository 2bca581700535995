"""All learnable state: embedding tables, denoiser MLP, null token, fixed
sinusoidal step embeddings, encoder weights, and checkpoint save/load.

Checkpoint layout: a directory holding `manifest.tsv` and `params.bin`.
The manifest is `# key = value` lines only: the three data sizes, the
normalized text of the run config that trained the arrays, less its input
paths, and the sha256 of those lines followed by `params.bin`. That config
and those sizes fix every array's name and shape (`_array_specs`);
`params.bin` is the arrays in that order, little-endian, in the model
dtype. Both files are replaced atomically, the blob first.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .autodiff import Tensor
from .config import RunConfig, normalized_text, parse_config_text
from .data import read_input, write_atomic
from .errors import CheckpointError, ConfigurationError
from .rng import make_rng
from .schedule import build_schedule
from .variants import SELECTORS, Pipeline

MANIFEST_NAME = "manifest.tsv"
BLOB_NAME = "params.bin"
SIZE_KEYS = ("n_users", "n_items_src", "n_items_tgt")
# left out of the manifest, so a checkpoint's bytes do not name its inputs
PATH_KEYS = ("source_path", "target_path")
CONFIG_KEYS = tuple(f.name for f in fields(RunConfig) if f.name not in PATH_KEYS)
DIGEST_KEY = "sha256"
# the weights of one encoder layer, by name suffix, in blob and node order
ENCODER_LAYER_WEIGHTS = ("wq", "wk", "wv", "wo", "ln1_g", "ln1_b", "ln2_g", "ln2_b",
                         "ff_w1", "ff_b1", "ff_w2", "ff_b2")


@dataclass(frozen=True)
class ModelMeta:
    """The run config the arrays were trained under (input paths cleared)
    and the data sizes that fix the table shapes."""
    cfg: RunConfig
    n_users: int
    n_items_src: int
    n_items_tgt: int

    @property
    def pipeline(self) -> Pipeline:
        return SELECTORS[self.cfg.variant, self.cfg.ablation]

    @property
    def state_dim(self) -> int:
        return len(self.pipeline.state) * self.cfg.d1

    @property
    def denoiser_in(self) -> int:
        # [state || condition || step embedding]
        return self.state_dim + 2 * self.cfg.d1


class ModelParams:
    """Named parameter arrays plus metadata, and the noise schedule and step
    embeddings that the metadata's config fixes. Arrays are autodiff leaves.

    `step_table` row t-1 is the fixed sinusoidal embedding of step t, in the
    model dtype. `denoiser_weights` holds the denoiser's `(w, b)` Tensors,
    layer by layer, and `encoder_weights` each encoder layer's Tensors by
    ENCODER_LAYER_WEIGHTS suffix, in that order. They are looked up once;
    their `.data` is read at every call, because the Adam update rebinds it.
    """

    def __init__(self, arrays: dict[str, Tensor], meta: ModelMeta):
        self.arrays = arrays
        self.meta = meta
        cfg = meta.cfg
        self.schedule = build_schedule(cfg.T, cfg.eta, cfg.alpha_min, cfg.alpha_max)
        self.step_table = step_embedding_table(cfg.T, cfg.d1).astype(cfg.dtype)
        self.denoiser_weights = [(arrays[f"den_w{layer}"], arrays[f"den_b{layer}"])
                                 for layer in range(cfg.mlp_layers)]
        self.encoder_weights = [{s: arrays[f"enc{layer}_{s}"] for s in ENCODER_LAYER_WEIGHTS}
                                for layer in range(cfg.enc_layers)]

    def __getitem__(self, name: str) -> Tensor:
        return self.arrays[name]

    def zero_grads(self) -> None:
        for t in self.arrays.values():
            t.grad = None


def step_embedding_table(T: int, d1: int) -> np.ndarray:
    """Sinusoidal table over t=1..T: even dims sine, odd dims cosine, with
    geometric frequency span 1..1e4. Deterministic and unit-bounded."""
    t = np.arange(1, T + 1, dtype=np.float64)[:, None]
    i = np.arange(d1)
    denom = np.power(10000.0, (2 * (i // 2)) / d1)
    angles = t / denom
    return np.where(i % 2 == 0, np.sin(angles), np.cos(angles))


def _array_specs(meta: ModelMeta) -> dict[str, tuple[int, ...]]:
    cfg = meta.cfg
    d1, h = cfg.d1, cfg.hidden
    specs: dict[str, tuple[int, ...]] = {
        "user_emb": (meta.n_users, d1),
        "item_emb_src": (meta.n_items_src, d1),
        "item_emb_tgt": (meta.n_items_tgt, d1),
        "null_token": (d1,),
        "pos_emb": (cfg.max_history_len, d1),
    }
    widths = [meta.denoiser_in] + [h] * (cfg.mlp_layers - 1) + [meta.state_dim]
    for layer in range(cfg.mlp_layers):
        specs[f"den_w{layer}"] = (widths[layer], widths[layer + 1])
        specs[f"den_b{layer}"] = (widths[layer + 1],)
    d_ff = 2 * d1
    shapes = [(d1, d1)] * 4 + [(d1,)] * 4 + [(d1, d_ff), (d_ff,), (d_ff, d1), (d1,)]
    for layer in range(cfg.enc_layers):
        specs.update({f"enc{layer}_{suffix}": shape
                      for suffix, shape in zip(ENCODER_LAYER_WEIGHTS, shapes)})
    if meta.pipeline.projection is not None:
        specs["proj_w"] = (2 * d1, d1)
        specs["proj_b"] = (d1,)
    return specs


def init_params(cfg: RunConfig, n_users: int, n_items_src: int,
                n_items_tgt: int) -> ModelParams:
    """Uniform(-cfg.init_scale, cfg.init_scale) init of every table for
    cfg's architecture and wiring, deterministic per cfg.seed. Null token
    starts at zero; layer-norm gains at one."""
    sizes = dict(zip(SIZE_KEYS, (n_users, n_items_src, n_items_tgt)))
    meta = ModelMeta(replace(cfg, **dict.fromkeys(PATH_KEYS, "")), **sizes)
    rng = make_rng(cfg.seed, 0xA11)
    np_dtype = np.dtype(cfg.dtype)
    arrays: dict[str, Tensor] = {}
    for name, shape in _array_specs(meta).items():
        suffix = name.rsplit("_", 1)[-1]
        if name == "null_token" or suffix.startswith("b"):
            values = np.zeros(shape)
        elif suffix == "g":
            values = np.ones(shape)
        else:
            values = rng.uniform(-cfg.init_scale, cfg.init_scale, size=shape)
        arrays[name] = Tensor(values.astype(np_dtype))
    return ModelParams(arrays, meta)


def _metadata_text(meta: ModelMeta) -> str:
    sizes = [f"{key} = {getattr(meta, key)}" for key in SIZE_KEYS]
    config = [line for line in normalized_text(meta.cfg).splitlines()
              if line.partition(" = ")[0] in CONFIG_KEYS]
    return "".join(f"# {line}\n" for line in sizes + config)


def _digest(meta: ModelMeta, blob: bytes) -> str:
    """The sha256 of the metadata lines, as `_metadata_text` writes them,
    followed by the blob: a metadata value changed to one that still
    parses is refused like a changed blob."""
    digest = hashlib.sha256(_metadata_text(meta).encode("utf-8"))
    digest.update(blob)
    return digest.hexdigest()


def _parse_manifest(text: str) -> tuple[ModelMeta, str]:
    """ModelMeta and the checkpoint's sha256 from the manifest's
    `# key = value` lines; a manifest with any other line or a missing key
    raises CheckpointError."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    stray = [line for line in lines if not line.startswith("#")]
    if stray:
        raise CheckpointError(f"manifest line {stray[0]!r} is not `# key = value` metadata")
    values = {key.strip(): value.strip()
              for key, _, value in (line[1:].partition("=") for line in lines)}
    missing = [key for key in SIZE_KEYS + CONFIG_KEYS + (DIGEST_KEY,) if key not in values]
    if missing:
        raise CheckpointError(f"manifest missing metadata fields {missing}")
    digest = values.pop(DIGEST_KEY)
    try:
        sizes = {key: int(values.pop(key)) for key in SIZE_KEYS}
        cfg = parse_config_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    except (ValueError, ConfigurationError) as exc:
        raise CheckpointError(f"bad manifest metadata: {exc}") from None
    return ModelMeta(cfg, **sizes), digest


def save_checkpoint(params: ModelParams, path) -> None:
    """Write `params` under the directory `path`: `params.bin`, then the
    manifest, whose sha256 covers its metadata and the blob, so that a
    process killed between the two leaves an old manifest that refuses the
    new blob."""
    os.makedirs(path, exist_ok=True)
    dtype = np.dtype(params.meta.cfg.dtype).newbyteorder("<")
    blob = b"".join(np.ascontiguousarray(params.arrays[name].data, dtype).tobytes()
                    for name in _array_specs(params.meta))
    write_atomic(os.path.join(path, BLOB_NAME), blob)
    write_atomic(os.path.join(path, MANIFEST_NAME), _metadata_text(params.meta)
                 + f"# {DIGEST_KEY} = {_digest(params.meta, blob)}\n")


def load_checkpoint(path) -> ModelParams:
    meta, digest = _parse_manifest(
        read_input(os.path.join(path, MANIFEST_NAME), CheckpointError))
    blob = read_input(os.path.join(path, BLOB_NAME), CheckpointError, binary=True)
    specs = _array_specs(meta)
    dtype = np.dtype(meta.cfg.dtype).newbyteorder("<")
    counts = [math.prod(shape) for shape in specs.values()]
    expected = sum(counts) * dtype.itemsize
    if len(blob) != expected:
        raise CheckpointError(
            f"{BLOB_NAME} is {'truncated' if len(blob) < expected else 'too long'}: "
            f"{len(blob)} bytes, the manifest's arrays take {expected}")
    if _digest(meta, blob) != digest:
        raise CheckpointError(
            f"the manifest's metadata and {BLOB_NAME} do not match the sha256 in the manifest")
    arrays: dict[str, Tensor] = {}
    offset = 0
    for (name, shape), count in zip(specs.items(), counts):
        values = np.frombuffer(blob, dtype, count, offset).reshape(shape)
        arrays[name] = Tensor(values.astype(meta.cfg.dtype))
        offset += count * dtype.itemsize
    return ModelParams(arrays, meta)
