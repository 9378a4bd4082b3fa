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

The heads are held as that one ``(O, H)`` array and updated with one
subtraction per step. Cost model, in multiply-adds per step at D inputs and
H hidden units, with ``R = C·A + m·E·K′`` logits computed and the update's
``H·(O + D)`` left out: the product form costs ``2·D·R + 3·D·H·O`` against
``2·D·H·A + 3·H·R`` for the factored form. At the default dimensions
(D = 64, H = 48, C = 2, m·E = 36), which every config, test and benchmark
workload uses, and a training split of A = 192 anchors with K′ = 94 main
rows read (seed 2; 78–107 over seeds 0–5), that is 0.83 M against 1.72 M
(1.28 M against 2.23 M with every row computed). With every row read the
product form is the dearer one only when ``hidden_dim`` is below
``2·D·O / (2·D + 3·O)``, about 20 at D = 64 and O = 38.
"""

from __future__ import annotations

import numpy as np

from ..losses import SceneOutputs

__all__ = ["LinearLocalizer", "init_localizer"]


class LinearLocalizer:
    """Linear feature projection plus class and edge-distribution heads, held
    as one bins-major ``(C + m·E, hidden)`` array ``head_weights``, of which
    ``cls_weights`` and ``edge_weights`` ``(E, m, hidden)`` are views."""

    def __init__(self, feature_weights: np.ndarray, cls_weights: np.ndarray,
                 edge_weights: np.ndarray) -> None:
        self.feature_weights = feature_weights  # (hidden, input_dim)
        self.n_classes = cls_weights.shape[0]
        n_edges, n_bins, hidden = edge_weights.shape
        self._bins_major = (n_bins, n_edges, hidden)
        self.head_weights = np.concatenate(
            [cls_weights, edge_weights.transpose(1, 0, 2).reshape(-1, hidden)])

    @property
    def hidden_dim(self) -> int:
        return self.feature_weights.shape[0]

    def _heads(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Views of a bins-major ``(C + m·E, hidden)`` array as its
        ``(C, hidden)`` class rows and ``(E, m, hidden)`` edge rows."""
        c = self.n_classes
        return rows[:c], rows[c:].reshape(self._bins_major).transpose(1, 0, 2)

    @property
    def cls_weights(self) -> np.ndarray:
        return self._heads(self.head_weights)[0]

    @property
    def edge_weights(self) -> np.ndarray:
        return self._heads(self.head_weights)[1]

    def features(self, x: np.ndarray) -> np.ndarray:
        return x @ self.feature_weights.T

    def block_logits(self, xt: np.ndarray, xt_edge: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Bins-first logits: the ``(C, A)`` class block at the inputs
        ``xt`` ``(D, A)`` and the ``(m, E, K)`` edge block at ``xt_edge``
        ``(D, K)``, the transposed inputs of the rows whose edges are read."""
        w = self.head_weights @ self.feature_weights
        c = self.n_classes
        return w[:c] @ xt, (w[c:] @ xt_edge).reshape(*self._bins_major[:2], xt_edge.shape[1])

    def block_gradients(self, x: np.ndarray, x_edge: np.ndarray, grad_cls: np.ndarray,
                        grad_edges: np.ndarray, grad_hidden: np.ndarray | None = None,
                        train_features: bool = True
                        ) -> tuple[np.ndarray, np.ndarray | None]:
        """Weight gradients ``(d_head, d_features)``, shaped like
        ``head_weights`` and ``feature_weights``, of a loss whose gradients
        at :meth:`block_logits` are ``grad_cls`` ``(C, A)`` and
        ``grad_edges`` ``(m, E, K)``, at the inputs ``x`` ``(A, D)`` and
        ``x_edge`` ``(K, D)``; ``grad_hidden`` ``(A, hidden)`` adds a loss on
        the hidden features of ``x``. ``d_features`` is None unless
        ``train_features``."""
        c = self.n_classes
        p = np.empty((len(self.head_weights), x.shape[1]))
        np.matmul(grad_cls, x, out=p[:c])
        np.matmul(grad_edges.reshape(len(p) - c, len(x_edge)), x_edge, out=p[c:])
        d_head = p @ self.feature_weights.T
        if not train_features:
            return d_head, None
        d_features = self.head_weights.T @ p
        if grad_hidden is not None:
            d_features += grad_hidden.T @ x
        return d_head, d_features

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
        """Weight gradients ``(d_cls, d_edges, d_features)``, shaped like the
        weights: :meth:`block_gradients` over every row, at the gradients
        ``grad_cls`` ``(A, C)`` and ``grad_edges`` ``(A, E, m)`` of
        :meth:`logits`."""
        d_head, d_features = self.block_gradients(
            x, x, grad_cls.T, grad_edges.transpose(2, 1, 0), grad_hidden, train_features)
        return (*self._heads(d_head), d_features)


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
