"""Bimodal alignment between histology tile features and gene expression,
with expression prediction, patient-grouped cross-validation, and reporting.
"""

from . import autodiff, data_io, evaluation, grouping, losses, model, render, trainer
from .autodiff import DiffTensor, Tape
from .data_io import SpotBatch, SynthSpec, load_study, preprocess_expression, synth_generate
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    NumericError,
    ShapeError,
    SpotAlignError,
)
from .evaluation import FoldReport, aggregate, mae_metric, mse_metric, pcc, select_hpg
from .grouping import GroupState, assign_cross, kmeans
from .losses import LossBreakdown
from .model import ModelConfig, ScaleEmbeddings, init_params
from .trainer import FoldPlan, TrainConfig, lr_schedule, make_folds, train_fold

__version__ = "0.1.0"

__all__ = [
    "autodiff",
    "data_io",
    "evaluation",
    "grouping",
    "losses",
    "model",
    "render",
    "trainer",
    "DiffTensor",
    "Tape",
    "SpotBatch",
    "SynthSpec",
    "load_study",
    "preprocess_expression",
    "synth_generate",
    "ConfigError",
    "ContractError",
    "DataError",
    "NumericError",
    "ShapeError",
    "SpotAlignError",
    "FoldReport",
    "aggregate",
    "mae_metric",
    "mse_metric",
    "pcc",
    "select_hpg",
    "GroupState",
    "assign_cross",
    "kmeans",
    "LossBreakdown",
    "ModelConfig",
    "ScaleEmbeddings",
    "init_params",
    "FoldPlan",
    "TrainConfig",
    "lr_schedule",
    "make_folds",
    "train_fold",
]
