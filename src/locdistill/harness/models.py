"""Tiny linear localizer standing in for a detection head.

The model is a composition of linear maps: a feature projection producing
the hidden representation, then separate class and per-edge heads. All
gradients chain analytically (loss gradient times feature outer product),
so no autodiff is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..losses import SceneOutputs

__all__ = ["LinearLocalizer", "init_localizer"]


@dataclass
class LinearLocalizer:
    """Linear feature projection plus class and edge-distribution heads."""

    feature_weights: np.ndarray  # (hidden, input_dim)
    cls_weights: np.ndarray      # (classes, hidden)
    edge_weights: np.ndarray     # (edges, bins, hidden)

    @property
    def hidden_dim(self) -> int:
        return self.feature_weights.shape[0]

    def features(self, x: np.ndarray) -> np.ndarray:
        return x @ self.feature_weights.T

    def forward(self, x: np.ndarray) -> tuple[SceneOutputs, np.ndarray]:
        """Head outputs and the hidden features for a batch of inputs."""
        h = self.features(x)
        cls_logits = h @ self.cls_weights.T
        n_edges, n_bins, hidden = self.edge_weights.shape
        edge_logits = (h @ self.edge_weights.reshape(-1, hidden).T).reshape(-1, n_edges, n_bins)
        return SceneOutputs(cls_logits=cls_logits, edge_logits=edge_logits), h


def init_localizer(
    input_dim: int,
    hidden_dim: int,
    n_classes: int,
    n_edges: int,
    n_bins: int,
    rng: np.random.Generator,
) -> LinearLocalizer:
    """Random initialization scaled so hidden units and logits are O(1)."""
    return LinearLocalizer(
        feature_weights=rng.normal(0.0, 1.0 / np.sqrt(input_dim), (hidden_dim, input_dim)),
        cls_weights=rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), (n_classes, hidden_dim)),
        edge_weights=rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), (n_edges, n_bins, hidden_dim)),
    )
