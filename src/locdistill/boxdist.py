"""Discretized probability-distribution representation of box edges.

A continuous regression range ``[e_min, e_max]`` is quantized into ``n``
uniform sub-intervals; an edge is predicted as ``n + 1`` logits over the
interval endpoints and softened with a temperature softmax. Continuous
targets are encoded as two-hot weights on the bracketing endpoints and
distributions are decoded back to values by expectation.

Logits themselves stay plain arrays: one edge is an ``(m,)`` vector, one box
an ``(E, m)`` array and a scene an ``(A, E, m)`` array, all on the single
:class:`BinGrid` that the distillation config carries.

The private kernels (softmax, decode, entropy, two-hot, edges to boxes) work
bins first: the short axis (bins, classes, edges or corners) leads and the
anchor axis comes last, the reverse (``.T``) of the public layout. Each numpy
call then runs over contiguous rows of anchors rather than over many rows of
a few bins. The public functions and layouts above are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._checks import check_count, check_finite, check_positive, check_unit_interval

__all__ = [
    "BinGrid",
    "TwoHotTarget",
    "generalized_softmax",
    "encode_target",
    "encode_targets",
    "decode_expectation",
    "flatness",
]

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class BinGrid:
    """Uniform discretization of ``[e_min, e_max]`` into ``n`` sub-intervals."""

    e_min: float
    e_max: float
    n: int

    def __post_init__(self) -> None:
        for name in ("e_min", "e_max"):
            object.__setattr__(self, name, float(check_finite(name, getattr(self, name))))
        object.__setattr__(self, "n", check_count("n", self.n))
        if self.e_min >= self.e_max:
            raise ValueError(
                f"BinGrid requires e_min < e_max, got [{self.e_min}, {self.e_max}]"
            )

    @cached_property
    def endpoints(self) -> np.ndarray:
        """The ``n + 1`` endpoints ``e_0 .. e_n``, uniformly spaced."""
        pts = np.linspace(self.e_min, self.e_max, self.n + 1)
        pts.flags.writeable = False
        return pts

    @property
    def delta(self) -> float:
        return (self.e_max - self.e_min) / self.n

    @property
    def size(self) -> int:
        """Number of endpoints (= logit vector length)."""
        return self.n + 1


def _as_vector(z, *, name: str = "logits") -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError(f"{name} must be finite")
    return z


def generalized_softmax(z, tau: float) -> np.ndarray:
    """Temperature softmax ``p_i = exp(z_i / tau) / sum_j exp(z_j / tau)``.

    Stabilized by max-shift. ``tau = 1`` is the plain softmax; large ``tau``
    flattens toward uniform, small ``tau`` sharpens toward the argmax.
    """
    check_positive("temperature", tau)
    return _softmax(_as_vector(z), tau)


def _log_softmax_pair(z: np.ndarray, tau, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Tempered log-softmax over ``axis`` of ``z`` (the bins; axis 0 unless
    a stack of independent problems leads) and the probabilities ``e /
    sum(e)`` from the same exponentials, where ``exp`` of the
    log-probabilities would take a second pass. ``tau`` is a scalar or
    broadcasts against one bin's slice (one per column). Both results are
    C-contiguous whatever the layout of ``z``, so a transposed view is read
    once and every reduction runs over whole rows."""
    zt = np.true_divide(np.asarray(z, dtype=np.float64), tau, order="C")
    zt -= np.maximum.reduce(zt, axis=axis, keepdims=True)
    e = np.exp(zt)
    # numpy adds the rows of a leading axis in order, but sums a lone column
    # pairwise; its running sum keeps the row order, so a one-column call is
    # bit for bit the same column of a stacked call.
    if e.size > math.prod(e.shape[:axis + 1]):
        total = np.add.reduce(e, axis=axis, keepdims=True)
    else:
        total = np.add.accumulate(e, axis=axis)[(slice(None),) * axis + (slice(-1, None),)]
    zt -= np.log(total)
    e /= total
    return zt, e


def _softmax(z: np.ndarray, tau) -> np.ndarray:
    """The body of :func:`generalized_softmax`: the exponential of the
    log-probabilities of :func:`_log_softmax_pair`."""
    return np.exp(_log_softmax_pair(z, tau)[0])


@dataclass(frozen=True)
class TwoHotTarget:
    """A continuous target expressed as weights on its two bracketing endpoints.

    The encoded value is ``u1 * e_i + u2 * e_{i+1}`` with ``u1 + u2 = 1``.
    """

    i: int
    u1: float
    u2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "i", check_count("i", self.i, 0))
        for name in ("u1", "u2"):
            object.__setattr__(self, name, check_unit_interval(name, float(getattr(self, name))))
        if abs(self.u1 + self.u2 - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"TwoHotTarget weights must sum to 1, got {self.u1 + self.u2}")


def _two_hot(idx, u1, u2, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense two-hot weights of targets ``(idx, u1, u2)``, each of one shape
    ``S``, bins first: the ``(length,) + S`` weights, ``u1`` at ``idx`` and
    ``u2`` at ``idx + 1``, and the ``(2,) + S`` flat C-order indices of
    those two entries."""
    idx = np.asarray(idx)
    if idx.size and idx.max() + 1 >= length:
        raise ValueError(f"two-hot index {idx.max()} out of range for vector of length {length}")
    picks = idx * idx.size + np.arange(idx.size).reshape(idx.shape)
    picks = np.stack([picks, picks + idx.size])
    weights = np.zeros((length,) + idx.shape)
    np.put(weights, picks, np.stack([u1, u2]))
    return weights, picks


def encode_targets(y, grid: BinGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode an array of targets as two-hot weights on their bracketing
    grid endpoints: returns the left indices and the weights ``u1``, ``u2``,
    each shaped like ``y``.

    Out-of-range targets raise (no clamping; silently clamping would mask
    generator bugs upstream).
    """
    y = np.asarray(y, dtype=np.float64)
    if not np.isfinite(y).all():
        raise ValueError("targets must be finite")
    if ((y < grid.e_min) | (y > grid.e_max)).any():
        raise ValueError(
            f"target outside regression range [{grid.e_min}, {grid.e_max}]"
        )
    idx = np.minimum(np.floor((y - grid.e_min) / grid.delta).astype(np.int64), grid.n - 1)
    u2 = np.minimum(np.maximum((y - grid.endpoints[idx]) / grid.delta, 0.0), 1.0)
    return idx, 1.0 - u2, u2


def encode_target(y: float, grid: BinGrid) -> TwoHotTarget:
    """Encode one target ``y``: the one-element case of :func:`encode_targets`."""
    idx, u1, u2 = encode_targets([y], grid)
    return TwoHotTarget(i=idx[0], u1=u1[0], u2=u2[0])


def _as_probabilities(p, size: int | None = None,
                      name: str = "probability vector") -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {p.shape}")
    if size is not None and p.shape[0] != size:
        raise ValueError(f"{name} has length {p.shape[0]}, expected {size}")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise ValueError(f"{name} must be finite and nonnegative")
    if abs(p.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{name} must sum to 1, got {p.sum()!r}")
    return p


def decode_expectation(p, grid: BinGrid) -> float:
    """Decode a distribution to a value as the expectation over endpoints."""
    p = _as_probabilities(p, size=grid.size)
    return float(np.dot(p, grid.endpoints))


def _expectation(p: np.ndarray, grid: BinGrid, axis: int = 0) -> np.ndarray:
    """Expectations over the grid's endpoints of probabilities ``p`` with
    the bins on ``axis``: one vector-matrix product over every column of
    each leading (stack) entry."""
    lead = p.shape[:axis]
    return (grid.endpoints @ p.reshape(*lead, p.shape[axis], -1)).reshape(
        *lead, *p.shape[axis + 1:])


def _decode(z: np.ndarray, grid: BinGrid) -> tuple[np.ndarray, np.ndarray]:
    """Edge logits ``z`` (bins on axis 0) decoded at unit temperature: the
    probabilities and their expectations over the grid's endpoints."""
    p = _softmax(z, 1.0)
    return p, _expectation(p, grid)


# Edges are ordered (t, b, l, r): distances from a sample point to the top,
# bottom, left and right sides. Corner k of a box is
# point[_CORNER_AXIS[k]] + _CORNER_SIGN[k] * edge[_CORNER_EDGE[k]]:
# (x1, y1, x2, y2) = (px - l, py - t, px + r, py + b). The signs are columns,
# for (corners, K) arrays.
_CORNER_AXIS = np.array([0, 1, 0, 1])
_CORNER_EDGE = np.array([2, 0, 3, 1])
_CORNER_SIGN = np.array([[-1.0], [-1.0], [1.0], [1.0]])


def _boxes_from_edges(points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(4, K) corner boxes from (2, K) sample points and (4, K) (t, b, l, r)
    distances."""
    return points[_CORNER_AXIS] + edges[_CORNER_EDGE] * _CORNER_SIGN


def _entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats over axis 0 (the bins), with ``0 ln 0 = 0``."""
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=0)


def flatness(p) -> float:
    """Shannon entropy in nats; a flatter (more ambiguous) edge scores higher."""
    return float(_entropy(_as_probabilities(p)))
