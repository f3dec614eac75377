"""Self-supervised pretraining of per-element embeddings from crystal graphs.

The library covers the full pipeline: structure ingestion (CIF / JSON lines),
periodic multigraph construction, masking/edge-drop augmentations, a gated
message-passing encoder with denoising and contrastive objectives, per-element
embedding extraction, and a downstream regression harness with a
label-fraction sweep. The `crystalembed` console script wires it together.
"""

from .augmentation import AugmentedView, augment, two_views
from .downstream import (DownstreamConfig, EvalReport, improvement_pct,
                         label_fraction_sweep, render_sweep_table,
                         train_supervised, validate_report)
from .embeddings import (ElementEmbeddingTable, load_table, project_2d,
                         save_table_csv, save_table_json, table_from_sums)
from .errors import (CrystalEmbedError, FeaturizationError, NumericsError,
                     ParseError, ShapeError, ValidationError)
from .model import ModelParams, init_model_params
from .periodic_graph import (NUM_MULTIPLICITY_CLASSES, PeriodicGraph,
                             build_periodic_graph, multiplicity_targets)
from .structures import (CrystalStructure, lattice_from_cell, load_jsonl,
                         parse_cif, parse_jsonl, save_jsonl, serialize_jsonl)
from .synthetic import make_labeled_structures, make_pretraining_structures
from .training import (PretrainConfig, PretrainResult, extract_embeddings,
                       load_state, pretrain, pretrain_losses, pretrain_step,
                       save_state)

__version__ = "0.1.0"

__all__ = [
    "AugmentedView", "augment", "two_views",
    "DownstreamConfig", "EvalReport", "improvement_pct",
    "label_fraction_sweep", "render_sweep_table", "train_supervised",
    "validate_report",
    "ElementEmbeddingTable", "load_table", "project_2d", "save_table_csv",
    "save_table_json", "table_from_sums",
    "CrystalEmbedError", "FeaturizationError", "NumericsError", "ParseError",
    "ShapeError", "ValidationError",
    "ModelParams", "init_model_params",
    "NUM_MULTIPLICITY_CLASSES", "PeriodicGraph", "build_periodic_graph",
    "multiplicity_targets",
    "CrystalStructure", "lattice_from_cell", "load_jsonl", "parse_cif",
    "parse_jsonl", "save_jsonl", "serialize_jsonl",
    "make_labeled_structures", "make_pretraining_structures",
    "PretrainConfig", "PretrainResult", "extract_embeddings", "load_state",
    "pretrain", "pretrain_losses", "pretrain_step", "save_state",
    "__version__",
]
