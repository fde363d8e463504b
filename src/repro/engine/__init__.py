"""The annotation-generic execution engine.

Queries are compiled from the RA AST into a logical plan
(:mod:`repro.engine.logical`), optimized (:mod:`repro.engine.optimizer` —
selection pushdown via :mod:`repro.ra.rewrite`, then a cost-based pipeline
over instance statistics (:mod:`repro.engine.stats`): join reordering,
semijoin reduction of foreign-key joins, and the hash-join build-side
choice), and executed by physical operators (:mod:`repro.engine.physical`)
that are generic over an annotation domain (:mod:`repro.engine.domains`):
:class:`SetDomain` yields plain set-semantics results,
:class:`ProvenanceDomain` yields Boolean how-provenance.  Under the Set
domain the hot operators additionally lower to columnar batches
(:mod:`repro.engine.columnar`).  The ``evaluate()`` and ``annotate()``
facades in :mod:`repro.ra.evaluator` and :mod:`repro.provenance.annotate`
are thin wrappers over this package.

:class:`EngineSession` (:mod:`repro.engine.session`) adds structural plan and
result caching across repeated evaluations — the unit of reuse for a grading
session that checks many submissions against one instance.

:mod:`repro.engine.backends` holds the SQLite differential oracle; it is not
imported here, so grading never loads it.
"""

from repro.engine.columnar import ColumnBatch, as_mapping
from repro.engine.domains import (
    PROVENANCE_DOMAIN,
    SET_DOMAIN,
    AnnotationDomain,
    ProvenanceDomain,
    SetDomain,
)
from repro.engine.logical import (
    AggregateOp,
    CrossOp,
    DifferenceOp,
    FilterOp,
    IntersectOp,
    JoinOp,
    PlanNode,
    ProjectOp,
    ScanOp,
    SemiJoinOp,
    UnionOp,
    compile_plan,
    plan_operators,
    split_equijoin_conjuncts,
)
from repro.engine.optimizer import (
    DEFAULT_OPTIMIZER_CONFIG,
    LEGACY_OPTIMIZER_CONFIG,
    CardinalityEstimator,
    OptimizerConfig,
    apply_semijoin_reduction,
    choose_build_sides,
    estimate_rows,
    optimize_expression,
    reorder_joins,
)
from repro.engine.physical import PlanExecutor, apply_aggregate, compile_predicate
from repro.engine.session import EngineSession, evaluate_with_engine, rows_with_engine
from repro.engine.stats import PlanStats, StatsCatalog
from repro.engine.structural import KeyCache, StructuralKey, structural_hash

__all__ = [
    "AggregateOp",
    "AnnotationDomain",
    "CardinalityEstimator",
    "ColumnBatch",
    "CrossOp",
    "DEFAULT_OPTIMIZER_CONFIG",
    "DifferenceOp",
    "EngineSession",
    "FilterOp",
    "IntersectOp",
    "JoinOp",
    "KeyCache",
    "LEGACY_OPTIMIZER_CONFIG",
    "OptimizerConfig",
    "PROVENANCE_DOMAIN",
    "PlanExecutor",
    "PlanNode",
    "PlanStats",
    "ProjectOp",
    "ProvenanceDomain",
    "SET_DOMAIN",
    "ScanOp",
    "SemiJoinOp",
    "SetDomain",
    "StatsCatalog",
    "StructuralKey",
    "UnionOp",
    "apply_aggregate",
    "apply_semijoin_reduction",
    "as_mapping",
    "choose_build_sides",
    "compile_plan",
    "compile_predicate",
    "estimate_rows",
    "evaluate_with_engine",
    "optimize_expression",
    "plan_operators",
    "reorder_joins",
    "rows_with_engine",
    "split_equijoin_conjuncts",
    "structural_hash",
]
