"""Bimodal alignment between histology tile features and gene expression,
with expression prediction, patient-grouped cross-validation, and reporting.

Library code imports the modules (``from spotalign import data_io, trainer``);
the package root holds only them and ``__version__``.
"""

from . import autodiff, data_io, evaluation, grouping, losses, model, render, trainer

__version__ = "0.1.0"
