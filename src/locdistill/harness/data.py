"""Synthetic anchor-level dataset with controllable edge ambiguity.

Each sample is one anchor looking at one object. The object's four edge
distances are drawn per sample; ambiguous edges carry a two-component
mixture of plausible positions and the observed training target is a draw
from that mixture, so the Bayes-optimal edge distribution is genuinely
non-degenerate. Region membership (main positive / VLR / neither) comes
from the real assignment code on the sample's anchor and ground-truth
boxes. Features are a fixed random linear encoding of the latent geometry
plus isotropic noise, which keeps every head learnable by a linear model.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from ..boxdist import BinGrid, encode_targets
from ..geometry import BoundingBox
from ..losses import DistillConfig, SceneTruth
from ..regions import RegionMasks, compute_region_masks

__all__ = [
    "EdgeAmbiguity",
    "SceneStack",
    "Dataset",
    "HarnessConfig",
    "gen_dataset",
    "sample_edge_value",
    "binned_mixture",
    "save_dataset",
    "load_dataset",
]

N_EDGES = 4
N_CLASSES = 2
N_COMPONENTS = 2  # mixture components per edge; single-component edges are padded

# Object geometry relative to its own reference point, in scene units.
_OBJECT_EDGE_LO = 1.7
_OBJECT_EDGE_HI = 2.7
_VLR_SHIFT = (1.8, 3.5)
_BACKGROUND_SHIFT = (5.0, 7.0)
_N_LATENT = 11  # 4 edges + 4 ambiguity spreads + dx + dy + squared offset

_SEED_TAG_DATA = 0xD47A


@dataclass(frozen=True)
class EdgeAmbiguity:
    """Mixture of plausible positions for one edge (centers + weights)."""

    centers: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        centers = tuple(float(c) for c in self.centers)
        weights = tuple(float(w) for w in self.weights)
        if len(centers) != len(weights) or not centers:
            raise ValueError("mixture needs matching, non-empty centers and weights")
        if any(w < 0.0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "weights", weights)

    @property
    def mean(self) -> float:
        return float(sum(c * w for c, w in zip(self.centers, self.weights)))


def binned_mixture(centers, weights, grid: BinGrid) -> np.ndarray:
    """Project edge mixtures onto the grid: weighted sums of two-hot encodings.

    ``centers`` and ``weights`` are ``(..., k)``, one mixture per leading
    index, and the result is ``(..., grid.size)``; a single
    :class:`EdgeAmbiguity` is the call on its own centers and weights.
    Zero-weight padding components add nothing.
    """
    centers = np.asarray(centers, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if centers.shape != weights.shape or centers.ndim == 0 or centers.shape[-1] == 0:
        raise ValueError("mixture needs matching, non-empty centers and weights")
    k = centers.shape[-1]
    idx, u1, u2 = encode_targets(centers.ravel(), grid)
    w = weights.ravel()
    out = np.zeros((w.size // k, grid.size))
    rows = np.repeat(np.arange(out.shape[0]), k)
    # Every left-endpoint weight before any right-endpoint weight: each row
    # then sums in the same order, and to the same bits, as its own call.
    np.add.at(out, (rows, idx), w * u1)
    np.add.at(out, (rows, idx + 1), w * u2)
    return out.reshape(centers.shape[:-1] + (grid.size,))


@dataclass(frozen=True)
class SceneStack:
    """One split of a dataset as read-only arrays, one row per anchor.

    Each anchor looks at one object. Mixtures are padded to
    ``N_COMPONENTS`` components (the first center repeated at zero weight).
    """

    features: np.ndarray        # (A, input_dim)
    true_edges: np.ndarray      # (A, 4) mixture means, order (t, b, l, r)
    observed_edges: np.ndarray  # (A, 4) mixture draws used as training targets
    centers: np.ndarray         # (A, 4, 2) mixture centers
    weights: np.ndarray         # (A, 4, 2) mixture weights
    n_components: np.ndarray    # (A, 4) components of each edge's mixture
    anchor_boxes: np.ndarray    # (A, 4) corner form (x1, y1, x2, y2)
    gt_boxes: np.ndarray        # (A, 4)
    main: np.ndarray            # (A,) main-positive flags
    vlr: np.ndarray             # (A,) VLR flags

    def __post_init__(self) -> None:
        lengths = {len(getattr(self, f.name)) for f in fields(self)}
        if len(lengths) != 1:
            raise ValueError(f"split columns must share one length, got {sorted(lengths)}")
        # Splits are shared by every fit and evaluation of a seed.
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.features)

    @cached_property
    def truth(self) -> SceneTruth:
        """Class labels (main positives are class 1) and observed targets."""
        labels = self.main.astype(np.int64)
        labels.flags.writeable = False
        return SceneTruth(labels=labels, edge_targets=self.observed_edges)

    @cached_property
    def masks(self) -> RegionMasks:
        return RegionMasks(main=self.main, vlr=self.vlr)


@dataclass(frozen=True)
class Dataset:
    train: SceneStack
    heldout: SceneStack
    grid: BinGrid


@dataclass(frozen=True)
class HarnessConfig:
    """Hyperparameters of the synthetic teacher-student experiments."""

    input_dim: int = 64
    hidden_dim: int = 48
    teacher_hidden_dim: int | None = None  # defaults to hidden_dim
    n_train: int = 192
    n_heldout: int = 128
    ambiguity: float = 0.8
    max_offset: float = 1.5
    ambiguous_edge_prob: float = 0.7
    feature_noise: float = 0.05
    frac_vlr: float = 0.25
    frac_background: float = 0.25
    epochs: int = 600
    teacher_epochs: int = 900
    lr: float = 0.1
    train_features: bool = True
    tbr_weight: float = 1.0
    fi_weight: float = 1.0
    # Scale on the two-hot supervised weight inside LD schemes: the
    # distilled distributions carry the edge supervision, so the sampled
    # targets run at reduced weight rather than fighting the teacher.
    ld_dfl_scale: float = 0.25
    # Smoothing of the teacher's distribution targets. Without it a
    # zero-ambiguity mixture is an exact two-hot, the teacher's logits grow
    # without bound, and the distilling student has no finite equilibrium
    # to converge to.
    label_smoothing: float = 0.01
    anchor_half: float = 2.0

    def __post_init__(self) -> None:
        if self.teacher_hidden_dim is None:
            object.__setattr__(self, "teacher_hidden_dim", self.hidden_dim)
        for name in ("input_dim", "hidden_dim", "teacher_hidden_dim", "n_train",
                     "n_heldout", "epochs", "teacher_epochs"):
            v = int(getattr(self, name))
            if v <= 0:
                raise ValueError(f"{name} must be positive, got {v}")
            object.__setattr__(self, name, v)
        if not (0.0 <= self.ambiguity <= 1.0):
            raise ValueError(f"ambiguity level must lie in [0, 1], got {self.ambiguity}")
        if not (0.0 <= self.ambiguous_edge_prob <= 1.0):
            raise ValueError("ambiguous_edge_prob must lie in [0, 1]")
        if not (self.frac_vlr >= 0 and self.frac_background >= 0
                and self.frac_vlr + self.frac_background < 1.0):
            raise ValueError("stratum fractions must be nonnegative and leave room for positives")
        if not (0.0 <= self.label_smoothing < 1.0):
            raise ValueError("label_smoothing must lie in [0, 1)")
        for name in ("max_offset", "feature_noise", "lr", "tbr_weight", "fi_weight",
                     "ld_dfl_scale", "anchor_half"):
            if not (0 <= getattr(self, name) < np.inf):
                raise ValueError(f"{name} must be nonnegative and finite")


def _cdf(weights) -> list[float]:
    """The cumulative distribution ``Generator.choice(p=weights)`` draws
    against, computed as it computes it."""
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf.tolist()


def _draw(cdf: list[float], rng: np.random.Generator) -> int:
    """One categorical draw against a :func:`_cdf`: the index
    ``rng.choice(len(cdf), p=weights)`` picks, from the same single
    ``rng.random()``, so the generator's stream is unchanged."""
    return bisect.bisect_right(cdf, rng.random())


def sample_edge_value(amb: EdgeAmbiguity, rng: np.random.Generator) -> float:
    """Draw one observed edge position from the mixture."""
    return amb.centers[_draw(_cdf(amb.weights), rng)]


def gen_dataset(cfg: HarnessConfig, dcfg: DistillConfig, seed: int) -> Dataset:
    """Deterministically generate train and held-out splits for one seed.

    Each sample draws, in order: its stratum, four object edges, which
    edges are ambiguous, the anchor's offset from the object (VLR and
    background strata), one observation per edge mixture, and its feature
    noise. Everything else is computed from those draws for all samples at
    once.
    """
    grid = dcfg.grid
    mid = 0.5 * (_OBJECT_EDGE_LO + _OBJECT_EDGE_HI)
    if mid - cfg.max_offset < grid.e_min or mid + cfg.max_offset > grid.e_max:
        raise ValueError(
            "max_offset pushes mixture centers outside the regression range"
        )
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _SEED_TAG_DATA)))
    encoder = rng.normal(0.0, 1.0 / np.sqrt(_N_LATENT), size=(cfg.input_dim, _N_LATENT))
    n = cfg.n_train + cfg.n_heldout
    offset = cfg.ambiguity * cfg.max_offset
    stratum_cdf = _cdf([1.0 - cfg.frac_vlr - cfg.frac_background,
                        cfg.frac_vlr, cfg.frac_background])
    edge_cdfs = (_cdf((1.0,)), _cdf((0.5, 0.5)))  # by ambiguity of the edge

    edges = np.empty((n, N_EDGES))
    ambiguous = np.zeros((n, N_EDGES), dtype=bool)
    shifts = np.zeros((n, 2))  # anchor point (dx, dy) relative to the object
    picks = np.empty((n, N_EDGES), dtype=np.int64)
    noise = np.empty((n, cfg.input_dim))
    for i in range(n):
        stratum = _draw(stratum_cdf, rng)
        edges[i] = rng.uniform(_OBJECT_EDGE_LO, _OBJECT_EDGE_HI, size=N_EDGES)
        flags = [offset > 0.0 and rng.random() < cfg.ambiguous_edge_prob
                 for _ in range(N_EDGES)]
        if stratum:
            lo, hi = _VLR_SHIFT if stratum == 1 else _BACKGROUND_SHIFT
            angle = rng.uniform(0.0, 2.0 * np.pi)
            radius = rng.uniform(lo, hi)
            shifts[i] = radius * np.cos(angle), radius * np.sin(angle)
        ambiguous[i] = flags
        picks[i] = [_draw(edge_cdfs[flag], rng) for flag in flags]
        noise[i] = rng.standard_normal(cfg.input_dim)

    # Ambiguous edges mix two centers at +-offset with equal weight; the
    # others are one center, padded by repeating it at zero weight.
    spreads = np.where(ambiguous, offset, 0.0)
    centers = np.stack([edges - spreads, edges + spreads], axis=-1)
    out_of_range = ambiguous & ((centers[..., 0] < grid.e_min) | (centers[..., 1] > grid.e_max))
    if out_of_range.any():
        raise ValueError(
            f"ambiguity mixture center outside regression range "
            f"[{grid.e_min}, {grid.e_max}]: {tuple(centers[out_of_range][0].tolist())}"
        )
    weights = np.where(ambiguous[..., None], 0.5, np.array([1.0, 0.0]))
    observed = np.take_along_axis(centers, picks[..., None], axis=-1)[..., 0]

    dx, dy = shifts.T
    t, b, l, r = edges.T
    gt_boxes = np.stack([dx - l, dy - t, dx + r, dy + b], axis=1)
    half = cfg.anchor_half
    anchor = BoundingBox(-half, -half, half, half)
    # One shared anchor, so the samples' gt boxes are assigned in one call
    # with the roles swapped: iou and diou are symmetric bit for bit.
    masks = compute_region_masks([BoundingBox(*box) for box in gt_boxes.tolist()], [anchor],
                                 dcfg.alpha_pos, dcfg.gamma_vlr)

    # Point-to-side distances seen from the anchor point at the origin;
    # rows of non-positive anchors are unsupervised placeholders, clipped
    # into the regression range.
    shift = np.stack([-dy, dy, -dx, dx], axis=1)
    latent = np.concatenate([
        (edges - mid) / (0.5 * (_OBJECT_EDGE_HI - _OBJECT_EDGE_LO)),
        spreads - 0.5,
        np.stack([dx / 3.0, dy / 3.0, (dx * dx + dy * dy - 10.0) / 15.0], axis=1),
    ], axis=1)
    columns = dict(
        features=np.array([encoder @ row for row in latent]) + cfg.feature_noise * noise,
        true_edges=np.clip(edges + shift, grid.e_min, grid.e_max),
        observed_edges=np.clip(observed + shift, grid.e_min, grid.e_max),
        centers=centers,
        weights=weights,
        n_components=np.where(ambiguous, 2, 1),
        anchor_boxes=np.tile(anchor.to_list(), (n, 1)),
        gt_boxes=gt_boxes,
        main=masks.main,
        vlr=masks.vlr,
    )
    return Dataset(
        train=SceneStack(**{k: v[:cfg.n_train] for k, v in columns.items()}),
        heldout=SceneStack(**{k: v[cfg.n_train:] for k, v in columns.items()}),
        grid=grid,
    )


def _row_json(split: SceneStack, i: int) -> dict:
    mixtures = zip(split.centers[i], split.weights[i], split.n_components[i])
    return {
        "features": split.features[i].tolist(),
        "true_edges": split.true_edges[i].tolist(),
        "observed_edges": split.observed_edges[i].tolist(),
        "ambiguity": [{"centers": c[:n].tolist(), "weights": w[:n].tolist()}
                      for c, w, n in mixtures],
        "class_label": int(split.main[i]),
        "anchor_box": split.anchor_boxes[i].tolist(),
        "gt_box": split.gt_boxes[i].tolist(),
        "main": int(split.main[i]),
        "vlr": int(split.vlr[i]),
    }


def _row_from_json(d: dict) -> tuple:
    if int(d["class_label"]) != int(d["main"]):
        raise ValueError("class_label must equal the main flag")
    return (
        d["features"],
        d["true_edges"],
        d["observed_edges"],
        tuple(EdgeAmbiguity(tuple(a["centers"]), tuple(a["weights"]))
              for a in d["ambiguity"]),
        BoundingBox.from_list(d["anchor_box"]).to_list(),
        BoundingBox.from_list(d["gt_box"]).to_list(),
        bool(d["main"]),
        bool(d["vlr"]),
    )


def _split(rows) -> SceneStack:
    """Stack per-anchor rows (see :func:`_row_from_json`) into a split."""
    if not rows:
        raise ValueError("a split needs at least one sample")
    features, true_edges, observed, mixtures, anchors, gts, main, vlr = zip(*rows)
    flat = [amb for mix in mixtures for amb in mix]
    n_comp = [len(amb.centers) for amb in flat]
    if any(len(mix) != N_EDGES for mix in mixtures) or max(n_comp) > N_COMPONENTS:
        raise ValueError(f"each sample needs {N_EDGES} edge mixtures of at most "
                         f"{N_COMPONENTS} components")
    shape = (len(rows), N_EDGES, N_COMPONENTS)
    # Single-component mixtures repeat their center at zero weight.
    centers = [amb.centers + amb.centers[:1] * (N_COMPONENTS - n) for amb, n in zip(flat, n_comp)]
    weights = [amb.weights + (0.0,) * (N_COMPONENTS - n) for amb, n in zip(flat, n_comp)]
    return SceneStack(
        features=np.array(features, dtype=np.float64),
        true_edges=np.array(true_edges, dtype=np.float64),
        observed_edges=np.array(observed, dtype=np.float64),
        centers=np.array(centers).reshape(shape),
        weights=np.array(weights).reshape(shape),
        n_components=np.array(n_comp).reshape(shape[:2]),
        anchor_boxes=np.array(anchors, dtype=np.float64),
        gt_boxes=np.array(gts, dtype=np.float64),
        main=np.array(main, dtype=bool),
        vlr=np.array(vlr, dtype=bool),
    )


def save_dataset(dataset: Dataset, train_path, heldout_path) -> None:
    """Write the two splits as JSONL, one sample per line."""
    for path, split in ((train_path, dataset.train), (heldout_path, dataset.heldout)):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(split)):
                fh.write(json.dumps(_row_json(split, i)) + "\n")


def load_dataset(train_path, heldout_path, grid: BinGrid) -> Dataset:
    def read(path):
        with open(path, "r", encoding="utf-8") as fh:
            return _split([_row_from_json(json.loads(line)) for line in fh if line.strip()])
    return Dataset(train=read(train_path), heldout=read(heldout_path), grid=grid)
