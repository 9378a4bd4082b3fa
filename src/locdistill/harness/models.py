"""Tiny linear localizer standing in for a detection head.

The model is a composition of linear maps: a feature projection ``Wf``
producing the hidden representation ``h = x·Wfᵀ``, then class and per-edge
heads, stacked here as the ``(O, H)`` head matrix ``Wh`` of the class rows
followed by the edge rows, bins-major (``O = C + m·E``). All gradients
chain analytically, so no autodiff is involved anywhere.

Training works through the product of the two layers, as in the
deep-linear setting (Saxe et al., arXiv:1312.6120), on bins-first blocks
and on the rows its objective reads: the class logits of all A anchors,
``(Wc·Wf)·xᵀ``, and the edge logits of K′ of them, ``(We·Wf)·x_edgeᵀ``,
which reshape to ``(m, E, K′)`` as a view. Both weight gradients come from
the one ``(O, D)`` product ``P = [G_cls·x ; G_edge·x_edge]`` of the logit
gradients and the inputs: ``dWh = P·Wfᵀ`` and ``dWf = Whᵀ·P``. By
associativity these are the gradients of the factored chain rule
(``g_h = G·Wh``, ``dWh = Gᵀ·h``, ``dWf = g_hᵀ·x``), up to rounding.

Cost model, in multiply-adds per step at D inputs and H hidden units, with
``R = C·A + m·E·K′`` logits computed: the product form costs
``2·D·R + 3·D·H·O`` against ``2·D·H·A + 3·H·R`` for the factored form. At
the default dimensions (D = 64, H = 48, C = 2, m·E = 36), which every
config, test and benchmark workload uses, and a training split of A = 192
anchors with K′ = 94 main rows read (seed 2; 78–107 over seeds 0–5), that
is 0.83 M against 1.72 M (1.28 M against 2.23 M with every row computed).
With every row read the product form is the dearer one only when
``hidden_dim`` is below ``2·D·O / (2·D + 3·O)``, about 20 at D = 64 and
O = 38.
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
        """``Wh``, ``(C + m·E, hidden)``: the class rows, then the edge rows
        bins-major."""
        return np.concatenate([self.cls_weights, self.edge_weights.transpose(1, 0, 2)
                               .reshape(-1, self.hidden_dim)])

    def features(self, x: np.ndarray) -> np.ndarray:
        return x @ self.feature_weights.T

    def block_logits(self, xt: np.ndarray, xt_edge: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Bins-first logits: the ``(C, A)`` class block at the inputs
        ``xt`` ``(D, A)`` and the ``(m, E, K)`` edge block at ``xt_edge``
        ``(D, K)``, the transposed inputs of the rows whose edges are read."""
        w = self._head_weights() @ self.feature_weights
        n_classes = self.cls_weights.shape[0]
        n_edges, n_bins, _ = self.edge_weights.shape
        return (w[:n_classes] @ xt,
                (w[n_classes:] @ xt_edge).reshape(n_bins, n_edges, xt_edge.shape[1]))

    def block_gradients(self, x: np.ndarray, x_edge: np.ndarray, grad_cls: np.ndarray,
                        grad_edges: np.ndarray, grad_hidden: np.ndarray | None = None,
                        train_features: bool = True
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Weight gradients ``(d_cls, d_edges, d_features)``, shaped like the
        weights, of a loss whose gradients at :meth:`block_logits` are
        ``grad_cls`` ``(C, A)`` and ``grad_edges`` ``(m, E, K)``, at the
        inputs ``x`` ``(A, D)`` and ``x_edge`` ``(K, D)``; ``grad_hidden``
        ``(A, hidden)`` adds a loss on the hidden features of ``x``.
        ``d_features`` is None unless ``train_features``."""
        n_classes = self.cls_weights.shape[0]
        n_edges, n_bins, hidden = self.edge_weights.shape
        p = np.empty((n_classes + n_bins * n_edges, x.shape[1]))
        np.matmul(grad_cls, x, out=p[:n_classes])
        np.matmul(grad_edges.reshape(n_bins * n_edges, len(x_edge)), x_edge, out=p[n_classes:])
        d_heads = p @ self.feature_weights.T
        d_cls = d_heads[:n_classes]
        d_edges = d_heads[n_classes:].reshape(n_bins, n_edges, hidden).transpose(1, 0, 2)
        if not train_features:
            return d_cls, d_edges, None
        d_features = self._head_weights().T @ p
        if grad_hidden is not None:
            d_features += grad_hidden.T @ x
        return d_cls, d_edges, d_features

    def logits(self, x: np.ndarray) -> SceneOutputs:
        """Head outputs for a batch of inputs: ``(A, C)`` and ``(A, E, m)``
        views of :meth:`block_logits` over every row."""
        # A contiguous xᵀ, as the descent loop passes: the gemm's bits
        # depend on its operands' layout.
        xt = np.ascontiguousarray(x.T)
        z_cls, z_edges = self.block_logits(xt, xt)
        return SceneOutputs(cls_logits=z_cls.T, edge_logits=z_edges.transpose(2, 1, 0))

    def forward(self, x: np.ndarray) -> tuple[SceneOutputs, np.ndarray]:
        """Head outputs and the hidden features for a batch of inputs."""
        return self.logits(x), self.features(x)

    def gradients(self, x: np.ndarray, grad_cls: np.ndarray, grad_edges: np.ndarray,
                  grad_hidden: np.ndarray | None = None, train_features: bool = True
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """:meth:`block_gradients` over every row, at the gradients
        ``grad_cls`` ``(A, C)`` and ``grad_edges`` ``(A, E, m)`` of
        :meth:`logits`."""
        return self.block_gradients(x, x, grad_cls.T, grad_edges.transpose(2, 1, 0),
                                    grad_hidden, train_features)


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
