"""Tiny linear localizer standing in for a detection head.

The model is a composition of linear maps: a feature projection ``Wf``
producing the hidden representation ``h = x·Wfᵀ``, then class and per-edge
heads, stacked here as the ``(O, H)`` head matrix ``Wh`` of the class rows
followed by the edge rows (``O = C + E·m``). All gradients chain
analytically, so no autodiff is involved anywhere.

Training works through the product of the two layers, as in the
deep-linear setting (Saxe et al., arXiv:1312.6120): the logits are the
bins-first block ``(Wh·Wf)·xᵀ`` and both weight gradients come from the
one ``(O, D)`` product ``P = Gᵀ·x`` of the logit gradients ``G`` and the
inputs: ``dWh = P·Wfᵀ`` and ``dWf = Whᵀ·P``. By associativity these are
the gradients of the factored chain rule (``g_h = G·Wh``,
``dWh = Gᵀ·h``, ``dWf = g_hᵀ·x``), up to rounding.

Cost model, in multiply-adds at A anchors, D inputs and H hidden units:
the product form costs ``2·D·O`` per anchor against ``2·D·H + 3·H·O`` for
the factored form, and adds ``3·D·H·O`` per step whatever the anchor count.
At the default dimensions (D = 64, H = 48, O = 38), which every config,
test and benchmark workload uses, it is the cheaper form from A ≈ 52
anchors up (1.28 M against 2.23 M at A = 192). It is the dearer form at
any anchor count when ``hidden_dim`` is far below O: below
``2·D·O / (2·D + 3·O)``, about 20 at D = 64 and O = 38.
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

    def _head_weights(self) -> np.ndarray:
        """``Wh``, ``(C + E·m, hidden)``: the class rows, then the edge rows."""
        return np.concatenate([self.cls_weights,
                               self.edge_weights.reshape(-1, self.hidden_dim)])

    def features(self, x: np.ndarray) -> np.ndarray:
        return x @ self.feature_weights.T

    def logits(self, x: np.ndarray) -> SceneOutputs:
        """Head outputs for a batch of inputs: ``(A, C)`` and ``(A, E, m)``
        views of one bins-first ``(C + E·m, A)`` block ``(Wh·Wf)·xᵀ``."""
        z = (self._head_weights() @ self.feature_weights) @ x.T
        n_classes = self.cls_weights.shape[0]
        return SceneOutputs(cls_logits=z[:n_classes].T,
                            edge_logits=z[n_classes:].T.reshape(-1, *self.edge_weights.shape[:2]))

    def forward(self, x: np.ndarray) -> tuple[SceneOutputs, np.ndarray]:
        """Head outputs and the hidden features for a batch of inputs."""
        return self.logits(x), self.features(x)

    def gradients(self, x: np.ndarray, grad_cls: np.ndarray, grad_edges: np.ndarray,
                  grad_hidden: np.ndarray | None = None, train_features: bool = True
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Weight gradients ``(d_cls, d_edges, d_features)``, shaped like the
        weights, of a loss whose gradients at :meth:`logits` are ``grad_cls``
        ``(A, C)`` and ``grad_edges`` ``(A, E, m)``; ``grad_hidden``
        ``(A, hidden)`` adds a loss on the hidden features. ``d_features``
        is None unless ``train_features``."""
        g = np.concatenate([grad_cls, grad_edges.reshape(len(grad_edges), -1)], axis=1)
        p = g.T @ x
        d_heads = p @ self.feature_weights.T
        n_classes = self.cls_weights.shape[0]
        d_cls, d_edges = d_heads[:n_classes], d_heads[n_classes:].reshape(self.edge_weights.shape)
        if not train_features:
            return d_cls, d_edges, None
        d_features = self._head_weights().T @ p
        if grad_hidden is not None:
            d_features += grad_hidden.T @ x
        return d_cls, d_edges, d_features


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
