"""Discretized probability-distribution representation of box edges.

A continuous regression range ``[e_min, e_max]`` is quantized into ``n``
uniform sub-intervals; an edge is predicted as ``n + 1`` logits over the
interval endpoints and softened with a temperature softmax. Continuous
targets are encoded as two-hot weights on the bracketing endpoints and
distributions are decoded back to values by expectation.

Logits themselves stay plain arrays: one edge is an ``(m,)`` vector, one box
an ``(E, m)`` array and a scene an ``(A, E, m)`` array, all on the single
:class:`BinGrid` that the distillation config carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BinGrid",
    "TwoHotTarget",
    "make_grid",
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
        object.__setattr__(self, "e_min", float(self.e_min))
        object.__setattr__(self, "e_max", float(self.e_max))
        object.__setattr__(self, "n", int(self.n))
        if not (math.isfinite(self.e_min) and math.isfinite(self.e_max)):
            raise ValueError("BinGrid bounds must be finite")
        if self.e_min >= self.e_max:
            raise ValueError(
                f"BinGrid requires e_min < e_max, got [{self.e_min}, {self.e_max}]"
            )
        if self.n < 1:
            raise ValueError(f"BinGrid requires n >= 1 sub-intervals, got {self.n}")

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


def make_grid(e_min: float, e_max: float, n: int) -> BinGrid:
    """Build a uniform :class:`BinGrid`; errors on inverted range or n < 1."""
    return BinGrid(e_min, e_max, n)


def _as_vector(z, *, name: str = "logits") -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError(f"{name} must be finite")
    return z


def _check_temperature(tau: float) -> None:
    if not (0.0 < tau < math.inf):
        raise ValueError(f"temperature must be positive and finite, got {tau}")


def generalized_softmax(z, tau: float) -> np.ndarray:
    """Temperature softmax ``p_i = exp(z_i / tau) / sum_j exp(z_j / tau)``.

    Stabilized by max-shift. ``tau = 1`` is the plain softmax; large ``tau``
    flattens toward uniform, small ``tau`` sharpens toward the argmax.
    """
    _check_temperature(tau)
    return _softmax(_as_vector(z), tau)


def _log_softmax(z: np.ndarray, tau) -> np.ndarray:
    """Tempered log-softmax over the last axis of ``z``; ``tau`` is a scalar
    or broadcasts against ``z`` (one per row)."""
    # In place on the fresh quotient, with the ufunc reductions called
    # directly: this runs tens of thousands of times per training run.
    zt = np.asarray(z, dtype=np.float64) / tau
    zt -= np.maximum.reduce(zt, axis=-1, keepdims=True)
    zt -= np.log(np.add.reduce(np.exp(zt), axis=-1, keepdims=True))
    return zt


def _softmax(z: np.ndarray, tau) -> np.ndarray:
    """The body of :func:`generalized_softmax`: the exponential of
    :func:`_log_softmax`."""
    return np.exp(_log_softmax(z, tau))


@dataclass(frozen=True)
class TwoHotTarget:
    """A continuous target expressed as weights on its two bracketing endpoints.

    The encoded value is ``u1 * e_i + u2 * e_{i+1}`` with ``u1 + u2 = 1``.
    """

    i: int
    u1: float
    u2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "i", int(self.i))
        object.__setattr__(self, "u1", float(self.u1))
        object.__setattr__(self, "u2", float(self.u2))
        if self.i < 0:
            raise ValueError(f"TwoHotTarget index must be nonnegative, got {self.i}")
        if not (0.0 <= self.u1 <= 1.0 and 0.0 <= self.u2 <= 1.0):
            raise ValueError(f"TwoHotTarget weights must lie in [0, 1], got {self.u1}, {self.u2}")
        if abs(self.u1 + self.u2 - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"TwoHotTarget weights must sum to 1, got {self.u1 + self.u2}")

    def as_weights(self, length: int) -> np.ndarray:
        """Dense weight vector: ``u1`` at ``i``, ``u2`` at ``i + 1``."""
        if self.i + 1 >= length:
            raise ValueError(
                f"two-hot index {self.i} out of range for vector of length {length}"
            )
        g = np.zeros(length, dtype=np.float64)
        g[self.i] = self.u1
        g[self.i + 1] = self.u2
        return g


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


def _entropy(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats over the last axis, with ``0 ln 0 = 0``."""
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1)


def flatness(p) -> float:
    """Shannon entropy in nats; a flatter (more ambiguous) edge scores higher."""
    return float(_entropy(_as_probabilities(p)))
