"""Synthetic two-domain benchmark: users share a latent preference vector
across domains, so a source history is genuinely informative about target
ratings. Used by the desk-scale end-to-end checks and the CLI demo."""
from __future__ import annotations

import numpy as np

from .data import RATING_RANGE, DomainData, make_domain, write_atomic
from .rng import make_rng


def generate_pair(n_users: int = 2000, n_items: int = 300, latent_dim: int = 8,
                  ratings_per_user: int = 10, noise_std: float = 0.1,
                  seed: int = 0) -> tuple[DomainData, DomainData]:
    """Two domains over the same user population.

    Rating of (user, item) is a scaled latent dot product plus Gaussian
    noise, clipped into `RATING_RANGE`.
    """
    rng = make_rng(seed, 0x5E17)
    z_users = rng.standard_normal((n_users, latent_dim))
    domains = []
    user_ids = [f"u{i}" for i in range(n_users) for _ in range(ratings_per_user)]
    timestamps = np.tile(np.arange(ratings_per_user), n_users)
    for d in range(2):
        z_items = rng.standard_normal((n_items, latent_dim))
        items = np.empty((n_users, ratings_per_user), dtype=np.int64)
        ratings = np.empty((n_users, ratings_per_user))
        for i in range(n_users):
            items[i] = rng.choice(n_items, size=ratings_per_user, replace=False)
            scores = z_users[i] @ z_items[items[i]].T / np.sqrt(latent_dim)
            noise = rng.standard_normal(ratings_per_user) * noise_std
            ratings[i] = np.clip(2.5 + 1.0 * scores + noise, *RATING_RANGE)
        item_ids = [f"d{d}_i{j}" for j in items.ravel().tolist()]
        domains.append(make_domain(user_ids, item_ids, ratings.ravel(), timestamps))
    return domains[0], domains[1]


def write_tsv(domain: DomainData, path) -> None:
    users, items = domain.users, domain.items
    write_atomic(path, "".join(f"{users[u]}\t{items[i]}\t{r:.6f}\t{t}\n" for u, i, r, t in zip(
        domain.user.tolist(), domain.item.tolist(), domain.rating.tolist(),
        domain.timestamp.tolist())))
