"""All learnable state: embedding tables, denoiser MLP, null token, fixed
sinusoidal step embeddings, encoder weights, and checkpoint save/load.

Checkpoint layout: a directory holding `manifest.tsv` (array name, shape,
dtype, byte offset, plus `# key=value` metadata lines) and `params.bin`, one
little-endian binary blob in manifest order.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import Tensor
from .errors import CheckpointError, ConfigurationError
from .rng import make_rng

MANIFEST_NAME = "manifest.tsv"
BLOB_NAME = "params.bin"


@dataclass
class ModelMeta:
    """Architecture hyper-parameters needed to interpret the arrays, then
    the schedule and wiring the arrays were trained under."""
    d1: int
    n_users: int
    n_items_src: int
    n_items_tgt: int
    hidden: int
    mlp_layers: int
    enc_layers: int
    n_heads: int
    max_len: int
    T: int
    state_mult: int = 1      # 1 for the main model, 2 for concatenated-state variants
    with_projection: bool = False
    encoder_layer_norm: bool = True
    dtype: str = "float32"
    # None until `trainer.train` binds them to its config; `eval` refuses a
    # checkpoint whose values differ from its own config, None included
    eta: float | None = None
    alpha_min: float | None = None
    alpha_max: float | None = None
    variant: int | None = None
    ablation: str | None = None

    @property
    def state_dim(self) -> int:
        return self.state_mult * self.d1

    @property
    def denoiser_in(self) -> int:
        # [state || condition || step embedding]
        return self.state_dim + 2 * self.d1


class ModelParams:
    """Named parameter arrays plus metadata. Arrays are autodiff leaves."""

    def __init__(self, arrays: dict[str, Tensor], meta: ModelMeta):
        self.arrays = arrays
        self.meta = meta
        self.step_table = step_embedding_table(meta.T, meta.d1).astype(meta.dtype)

    def __getitem__(self, name: str) -> Tensor:
        return self.arrays[name]

    def zero_grads(self) -> None:
        for t in self.arrays.values():
            t.zero_grad()

    def step_embedding(self, t) -> np.ndarray:
        """Fixed sinusoidal embedding for step t (int or int array, 1-based),
        in the model dtype."""
        return self.step_table[np.asarray(t) - 1]


def step_embedding_table(T: int, d1: int) -> np.ndarray:
    """Sinusoidal table over t=1..T: even dims sine, odd dims cosine, with
    geometric frequency span 1..1e4. Deterministic and unit-bounded."""
    t = np.arange(1, T + 1, dtype=np.float64)[:, None]
    i = np.arange(d1)
    denom = np.power(10000.0, (2 * (i // 2)) / d1)
    angles = t / denom
    return np.where(i % 2 == 0, np.sin(angles), np.cos(angles))


def _array_specs(meta: ModelMeta) -> dict[str, tuple[int, ...]]:
    d1, h = meta.d1, meta.hidden
    specs: dict[str, tuple[int, ...]] = {
        "user_emb": (meta.n_users, d1),
        "item_emb_src": (meta.n_items_src, d1),
        "item_emb_tgt": (meta.n_items_tgt, d1),
        "null_token": (d1,),
        "pos_emb": (meta.max_len, d1),
    }
    widths = [meta.denoiser_in] + [h] * (meta.mlp_layers - 1) + [meta.state_dim]
    for layer in range(meta.mlp_layers):
        specs[f"den_w{layer}"] = (widths[layer], widths[layer + 1])
        specs[f"den_b{layer}"] = (widths[layer + 1],)
    d_ff = 2 * d1
    for layer in range(meta.enc_layers):
        p = f"enc{layer}_"
        specs[p + "wq"] = (d1, d1)
        specs[p + "wk"] = (d1, d1)
        specs[p + "wv"] = (d1, d1)
        specs[p + "wo"] = (d1, d1)
        specs[p + "ln1_g"] = (d1,)
        specs[p + "ln1_b"] = (d1,)
        specs[p + "ln2_g"] = (d1,)
        specs[p + "ln2_b"] = (d1,)
        specs[p + "ff_w1"] = (d1, d_ff)
        specs[p + "ff_b1"] = (d_ff,)
        specs[p + "ff_w2"] = (d_ff, d1)
        specs[p + "ff_b2"] = (d1,)
    if meta.with_projection:
        specs["proj_w"] = (2 * d1, d1)
        specs["proj_b"] = (d1,)
    return specs


def init_params(n_users: int, n_items_src: int, n_items_tgt: int, d1: int,
                seed: int, init_scale: float = 0.1, *,
                hidden: int = 64, mlp_layers: int = 3, enc_layers: int = 2,
                n_heads: int = 1, max_len: int = 50, T: int = 200,
                state_mult: int = 1, with_projection: bool = False,
                encoder_layer_norm: bool = True,
                dtype: str = "float32") -> ModelParams:
    """Uniform(-init_scale, init_scale) init of every table, deterministic per
    seed. Null token starts at zero; layer-norm gains at one."""
    for name, v in [("n_users", n_users), ("n_items_src", n_items_src),
                    ("n_items_tgt", n_items_tgt), ("d1", d1),
                    ("hidden", hidden), ("mlp_layers", mlp_layers)]:
        if v < 1:
            raise ConfigurationError(f"{name} must be positive, got {v}")
    if d1 % n_heads != 0:
        raise ConfigurationError(f"d1={d1} not divisible by n_heads={n_heads}")
    meta = ModelMeta(d1=d1, n_users=n_users, n_items_src=n_items_src,
                     n_items_tgt=n_items_tgt, hidden=hidden,
                     mlp_layers=mlp_layers, enc_layers=enc_layers,
                     n_heads=n_heads, max_len=max_len, T=T,
                     state_mult=state_mult, with_projection=with_projection,
                     encoder_layer_norm=encoder_layer_norm, dtype=dtype)
    rng = make_rng(seed, 0xA11)
    np_dtype = np.dtype(dtype)
    arrays: dict[str, Tensor] = {}
    for name, shape in _array_specs(meta).items():
        suffix = name.rsplit("_", 1)[-1]
        if name == "null_token" or suffix.startswith("b"):
            values = np.zeros(shape)
        elif suffix == "g":
            values = np.ones(shape)
        else:
            values = rng.uniform(-init_scale, init_scale, size=shape)
        arrays[name] = Tensor(values.astype(np_dtype), requires_grad=True)
    return ModelParams(arrays, meta)


# the run settings a checkpoint is bound to besides T and the state layout
RUN_FIELDS = ("eta", "alpha_min", "alpha_max", "variant", "ablation")
_PARSE = {"int": int, "float": float, "str": str, "bool": lambda s: s == "True"}


def _parse(kind: str, text: str):
    """A manifest value back as the type `kind` of its ModelMeta field."""
    if kind.endswith(" | None") and text == "None":
        return None
    return _PARSE[kind.removesuffix(" | None")](text)


def save_checkpoint(params: ModelParams, path) -> None:
    os.makedirs(path, exist_ok=True)
    lines = [f"# {f.name}={getattr(params.meta, f.name)}" for f in fields(ModelMeta)]
    offset = 0
    blobs = []
    for name, tensor in params.arrays.items():
        arr = np.ascontiguousarray(tensor.data)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        shape = ",".join(str(s) for s in arr.shape)
        lines.append(f"{name}\t{shape}\t{arr.dtype.name}\t{offset}")
        blobs.append(raw)
        offset += len(raw)
    with open(os.path.join(path, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(path, BLOB_NAME), "wb") as fh:
        for raw in blobs:
            fh.write(raw)


def load_checkpoint(path) -> ModelParams:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    blob_path = os.path.join(path, BLOB_NAME)
    if not os.path.exists(manifest_path) or not os.path.exists(blob_path):
        raise CheckpointError(f"missing checkpoint files under {path}")
    meta_kv: dict[str, str] = {}
    entries: list[tuple[str, tuple[int, ...], str, int]] = []
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta_kv[key] = value
                continue
            name, shape_s, dtype_s, offset_s = line.split("\t")
            shape = tuple(int(x) for x in shape_s.split(",")) if shape_s else ()
            entries.append((name, shape, dtype_s, int(offset_s)))
    try:
        meta = ModelMeta(**{f.name: _parse(f.type, meta_kv[f.name]) for f in fields(ModelMeta)})
    except KeyError as exc:
        raise CheckpointError(f"manifest missing metadata field {exc}") from None

    expected = _array_specs(meta)
    names_seen = [e[0] for e in entries]
    for name, shape, _, _ in entries:
        if name not in expected:
            raise CheckpointError(
                f"unknown array {name!r} in manifest; expected one of {sorted(expected)}")
        if shape != expected[name]:
            raise CheckpointError(
                f"array {name!r} has shape {shape}, expected {expected[name]}")
    missing = set(expected) - set(names_seen)
    if missing:
        raise CheckpointError(f"manifest missing arrays: {sorted(missing)}")

    with open(blob_path, "rb") as fh:
        blob = fh.read()
    arrays: dict[str, Tensor] = {}
    for name, shape, dtype_s, offset in entries:
        dt = np.dtype(dtype_s).newbyteorder("<")
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize if shape else dt.itemsize
        chunk = blob[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"blob truncated while reading array {name!r}")
        values = np.frombuffer(chunk, dtype=dt).reshape(shape).astype(np.dtype(dtype_s))
        arrays[name] = Tensor(values, requires_grad=True)
    return ModelParams(arrays, meta)
