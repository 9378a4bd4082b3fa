"""Desk-scale synthetic teacher-student distillation experiments."""

from .data import (
    Dataset,
    EdgeAmbiguity,
    HarnessConfig,
    SyntheticSample,
    binned_mixture,
    gen_dataset,
    load_dataset,
    sample_edge_value,
    save_dataset,
    stack_scene,
)
from .experiments import (
    SCHEMES,
    ExperimentReport,
    evaluate,
    run_cell,
    run_seed,
    train,
    train_teacher,
)
from .models import LinearLocalizer, init_localizer

__all__ = [
    "Dataset",
    "EdgeAmbiguity",
    "HarnessConfig",
    "SyntheticSample",
    "binned_mixture",
    "gen_dataset",
    "load_dataset",
    "sample_edge_value",
    "save_dataset",
    "stack_scene",
    "SCHEMES",
    "ExperimentReport",
    "evaluate",
    "run_cell",
    "run_seed",
    "train",
    "train_teacher",
    "LinearLocalizer",
    "init_localizer",
]
