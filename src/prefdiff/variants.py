"""Model pipelines: the preference-guided model, its ablations, and the six
comparison wirings that differ in where the guidance signal enters.

A pipeline fixes (a) the clean state the diffusion runs on, (b) which
coordinates get noised, (c) whether the denoiser is conditioned on the
guidance signal (with classifier-free masking) or always on the null token,
and (d) how the final state is turned into a scoring embedding. Each wiring
is one `Pipeline` row of `SELECTORS`, keyed by the config's
`(variant, ablation)`; the methods of `Pipeline` only read the row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class Pipeline:
    """One model wiring: where the guidance signal enters. Parts are named
    "u" (the user embedding), "h" (the guidance signal) and, in `projection`
    only, "x" (the predicted clean state)."""
    state: tuple[str, ...]                   # parts of the diffused state, in order
    noise_first_only: bool = False           # forward noise reaches only state[0]
    projection: tuple[str, ...] | None = None   # projected to the score; None scores x
    guided: bool = False                     # per-step guidance with condition masking
    diffusion: bool = True
    bypass_transformer: bool = False         # the guidance signal pools raw item vectors

    @property
    def uses_history(self) -> bool:
        """The model encodes the source history into the guidance signal."""
        return self.guided or "h" in self.state + (self.projection or ())

    @property
    def noises_signal(self) -> bool:
        """The forward process runs on the guidance signal itself."""
        noised = self.state[:1] if self.noise_first_only else self.state
        return "h" in noised

    def clean_state(self, u0: Tensor, h: Tensor | None) -> Tensor:
        return _join([{"u": u0, "h": h}[p] for p in self.state])

    def noise_mask(self, d1: int) -> np.ndarray | None:
        """Boolean mask over state coordinates that receive forward noise;
        None noises everything."""
        if not self.noise_first_only:
            return None
        mask = np.zeros(len(self.state) * d1, dtype=bool)
        mask[:d1] = True
        return mask

    def score_embedding(self, x0_hat, h, u0, params) -> Tensor | np.ndarray:
        """Map the (predicted) clean state to the d1 embedding dotted with
        the target-item embedding; `params` is the model's ModelParams.
        The inputs are all graph Tensors (training) or all arrays
        (evaluation); on arrays the projection runs on the parameter arrays
        and returns an array, without a graph."""
        if self.projection is None:
            return x0_hat
        parts = [{"x": x0_hat, "u": u0, "h": h}[p] for p in self.projection]
        if isinstance(parts[0], Tensor):
            return _join(parts) @ params["proj_w"] + params["proj_b"]
        return np.concatenate(parts, axis=-1) @ params["proj_w"].data + params["proj_b"].data

    def inference_init(self, u_init: np.ndarray, h: np.ndarray | None) -> np.ndarray:
        """Initial reverse-process state for a cold-start user, built from
        the user's `user_emb` row (and h, by the wiring), never fresh noise;
        always a copy. A cold-start user's row is never gathered in
        training, so Adam leaves it bitwise at its initialization draw."""
        return np.concatenate([{"u": u_init, "h": h}[p] for p in self.state])


def _join(parts: list[Tensor]) -> Tensor:
    """One part as itself, several concatenated on the last axis."""
    return parts[0] if len(parts) == 1 else ad.concat(parts, axis=-1)


_V1 = Pipeline(("u",))

# (variant, ablation) -> wiring: variant 0 is the full model, 1..6 the
# comparison wirings; the ablations bypass the Transformer encoder (no_tf),
# keep the condition always null (no_gs, which is v1) or drop the diffusion
SELECTORS: dict[tuple[int, str], Pipeline] = {
    (0, "none"): Pipeline(("u",), guided=True),
    (1, "none"): _V1,
    (2, "none"): Pipeline(("u", "h"), projection=("x",)),
    (3, "none"): Pipeline(("u", "h"), noise_first_only=True, projection=("x",)),
    (4, "none"): Pipeline(("u",), projection=("x", "h")),
    (5, "none"): Pipeline(("h", "u"), noise_first_only=True, projection=("x",)),
    (6, "none"): Pipeline(("h",), projection=("x", "u")),
    (0, "no_tf"): Pipeline(("u",), guided=True, bypass_transformer=True),
    (0, "no_gs"): _V1,
    (0, "no_dm"): Pipeline(("u",), projection=("u", "h"), diffusion=False),
}


def lint_pipeline(pipeline: Pipeline, eta: float) -> list[str]:
    """Config warnings; noising the guidance signal with a large noise scale
    destroys the personalized information it carries."""
    warnings = []
    if pipeline.noises_signal and eta > 0.5:
        warnings.append(
            f"eta={eta} > 0.5 while the forward process noises the guidance "
            "signal; personalized information may be damaged")
    return warnings
