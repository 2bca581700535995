"""Model pipelines: the preference-guided model, its ablations, and the six
comparison wirings that differ in where the guidance signal enters.

A pipeline fixes (a) the clean state the diffusion runs on, (b) which
coordinates get noised, (c) whether the denoiser is conditioned on the
guidance signal (with classifier-free masking) or always on the null token,
and (d) how the final state is turned into a scoring embedding. Each wiring
is one row of `WIRINGS`; the methods of `Pipeline` only read the row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError


@dataclass(frozen=True)
class Wiring:
    """Where the guidance signal enters. Parts are named "u" (the user
    embedding), "h" (the guidance signal) and, in `projection` only, "x"
    (the predicted clean state)."""
    state: tuple[str, ...]                   # parts of the diffused state, in order
    noise_first_only: bool = False           # forward noise reaches only state[0]
    projection: tuple[str, ...] | None = None   # projected to the score; None scores x
    guided: bool = False                     # per-step guidance with condition masking
    diffusion: bool = True

    @property
    def noises_signal(self) -> bool:
        """The forward process runs on the guidance signal itself."""
        noised = self.state[:1] if self.noise_first_only else self.state
        return "h" in noised


WIRINGS = {
    "main": Wiring(("u",), guided=True),
    "v1": Wiring(("u",)),
    "v2": Wiring(("u", "h"), projection=("x",)),
    "v3": Wiring(("u", "h"), noise_first_only=True, projection=("x",)),
    "v4": Wiring(("u",), projection=("x", "h")),
    "v5": Wiring(("h", "u"), noise_first_only=True, projection=("x",)),
    "v6": Wiring(("h",), projection=("x", "u")),
    "no_dm": Wiring(("u",), projection=("u", "h"), diffusion=False),
}

# ablation -> (wiring, bypass the Transformer encoder)
ABLATIONS = {"none": ("main", False), "no_tf": ("main", True),
             "no_gs": ("v1", False), "no_dm": ("no_dm", False)}


class Pipeline:
    """One model wiring. `kind` is "main", "v1".."v6", or "no_dm"."""

    def __init__(self, kind: str, *, bypass_transformer: bool = False):
        self.kind = kind
        self.wiring = w = WIRINGS[kind]
        self.bypass_transformer = bypass_transformer
        self.state_mult = len(w.state)
        self.with_projection = w.projection is not None
        self.uses_history = w.guided or "h" in w.state + (w.projection or ())
        self.guided = self.uses_masking = w.guided
        self.uses_diffusion = w.diffusion

    def clean_state(self, u0: Tensor, h: Tensor | None) -> Tensor:
        return _join([{"u": u0, "h": h}[p] for p in self.wiring.state])

    def noise_mask(self, d1: int) -> np.ndarray | None:
        """Boolean mask over state coordinates that receive forward noise;
        None noises everything."""
        if not self.wiring.noise_first_only:
            return None
        mask = np.zeros(self.state_mult * d1, dtype=bool)
        mask[:d1] = True
        return mask

    def score_embedding(self, x0_hat, h, u0, params) -> Tensor | np.ndarray:
        """Map the (predicted) clean state to the d1 embedding dotted with
        the target-item embedding; `params` is the model's ModelParams.
        The inputs may be arrays or graph Tensors; with no Tensor among
        them the projection runs on the parameter arrays and returns an
        array, without a graph."""
        if not self.with_projection:
            return x0_hat
        parts = [{"x": x0_hat, "u": u0, "h": h}[p] for p in self.wiring.projection]
        if any(isinstance(part, Tensor) for part in parts):
            return _join(parts) @ params["proj_w"] + params["proj_b"]
        return np.concatenate(parts, axis=-1) @ params["proj_w"].data + params["proj_b"].data

    def inference_init(self, u_init: np.ndarray, h: np.ndarray | None) -> np.ndarray:
        """Initial reverse-process state for a cold-start user, built from
        the user's `user_emb` row (and h, by the wiring), never fresh noise;
        always a copy. A cold-start user's row is never gathered in
        training, so Adam leaves it bitwise at its initialization draw."""
        parts = [{"u": u_init, "h": h}[p] for p in self.wiring.state]
        return np.array(parts[0], copy=True) if len(parts) == 1 else np.concatenate(parts)


def _join(parts: list[Tensor]) -> Tensor:
    """One part as itself, several concatenated on the last axis."""
    return parts[0] if len(parts) == 1 else ad.concat(parts, axis=-1)


def build_pipeline(variant: int = 0, ablation: str = "none") -> Pipeline:
    """CLI-facing selector: variant 0 is the full model, 1..6 the comparison
    wirings; ablations are 'no_tf' (encoder bypass), 'no_gs' (condition
    always null), 'no_dm'."""
    if ablation not in ABLATIONS:
        raise ConfigurationError(f"ablation must be one of {'|'.join(ABLATIONS)}")
    if variant == 0:
        kind, bypass = ABLATIONS[ablation]
        return Pipeline(kind, bypass_transformer=bypass)
    if ablation != "none":
        raise ConfigurationError("variant and ablation are mutually exclusive")
    if f"v{variant}" not in WIRINGS:
        raise ConfigurationError(f"variant must be 0..6, got {variant}")
    return Pipeline(f"v{variant}")


def lint_pipeline(pipeline: Pipeline, eta: float) -> list[str]:
    """Config warnings; noising the guidance signal with a large noise scale
    destroys the personalized information it carries."""
    warnings = []
    if pipeline.wiring.noises_signal and eta > 0.5:
        warnings.append(
            f"eta={eta} > 0.5 while the forward process noises the guidance "
            "signal; personalized information may be damaged")
    return warnings
