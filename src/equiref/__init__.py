"""E(3)-equivariant refinement and quality assessment of protein complexes."""

from .featurize import ComplexGraph, build_knn_graph, corrupt_coordinates
from .metrics import (
    QualityReport,
    Reference,
    dockq,
    lddt_ca,
    quality_class,
    score_pair,
)
from .model import (
    ModelConfig,
    RefinementResult,
    forward,
    init_params,
    load_weights,
    save_weights,
)
from .structio import (
    AtomIndex,
    ComplexStructure,
    kabsch_superpose,
    match_atoms,
    parse_pdb,
    parse_pdb_file,
    write_pdb,
)
from .train import TrainingExample, make_training_example, train_loop

__version__ = "0.1.0"

__all__ = [
    "AtomIndex",
    "ComplexGraph",
    "ComplexStructure",
    "ModelConfig",
    "QualityReport",
    "Reference",
    "RefinementResult",
    "TrainingExample",
    "build_knn_graph",
    "corrupt_coordinates",
    "dockq",
    "forward",
    "init_params",
    "kabsch_superpose",
    "lddt_ca",
    "load_weights",
    "make_training_example",
    "match_atoms",
    "parse_pdb",
    "parse_pdb_file",
    "quality_class",
    "save_weights",
    "score_pair",
    "train_loop",
    "write_pdb",
]
