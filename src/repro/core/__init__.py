"""PARIS core: the probabilistic alignment model and its fixpoint driver.

Public entry points:

* :class:`ParisAligner` / :func:`align` — run a full alignment,
* :class:`ParisConfig` — the (nearly parameter-free) settings,
* :class:`AlignmentResult` — instances, relations, classes and
  per-iteration snapshots,
* :class:`FunctionalityOracle` and the Eq. 1–2 functionality functions,
* the individual passes (:func:`instance_equivalence_pass`,
  :func:`subrelation_pass`, :func:`subclass_pass`) for ablations and
  step-by-step inspection,
* the incremental machinery behind the alignment service
  (:class:`IncrementalRelationPass` and
  :meth:`ParisAligner.warm_align` — delta-driven warm-start fixpoints
  over a previous run's state; the service layer lives in
  :mod:`repro.service`).
"""

from .aligner import ParisAligner, align
from .config import ParisConfig
from .equivalence import instance_equivalence_pass, negative_evidence_factor, score_instance
from .incremental import IncrementalRelationPass, RowChange
from .functionality import (
    FunctionalityDefinition,
    FunctionalityOracle,
    global_functionality,
    global_inverse_functionality,
    local_functionality,
    local_inverse_functionality,
)
from .literal_index import LiteralIndex
from .matrix import SubsumptionMatrix
from .multi import EntityCluster, MultiAligner, MultiAlignmentResult, align_many
from .priors import name_prior_matrix, name_similarity, name_tokens
from .result import AlignmentResult, Assignment, IterationSnapshot
from .store import EquivalenceStore
from .subclasses import closed_classes_of, score_class, subclass_pass
from .subrelations import score_relation, subrelation_pass
from .view import EquivalenceView

__all__ = [
    "ParisAligner",
    "align",
    "ParisConfig",
    "AlignmentResult",
    "Assignment",
    "IterationSnapshot",
    "EquivalenceStore",
    "EquivalenceView",
    "SubsumptionMatrix",
    "LiteralIndex",
    "FunctionalityDefinition",
    "FunctionalityOracle",
    "local_functionality",
    "local_inverse_functionality",
    "global_functionality",
    "global_inverse_functionality",
    "score_instance",
    "negative_evidence_factor",
    "instance_equivalence_pass",
    "IncrementalRelationPass",
    "RowChange",
    "score_relation",
    "subrelation_pass",
    "score_class",
    "closed_classes_of",
    "subclass_pass",
    "MultiAligner",
    "MultiAlignmentResult",
    "EntityCluster",
    "align_many",
    "name_tokens",
    "name_similarity",
    "name_prior_matrix",
]
