"""Static analysis over mini-ISA programs (design in docs/static-analysis.md).

The framework has four layers, each usable on its own:

* :mod:`repro.analysis.cfg`       — basic blocks, dominators, natural loops;
* :mod:`repro.analysis.dataflow`  — worklist engine + reaching definitions,
  liveness and definite assignment;
* :mod:`repro.analysis.induction` — induction variables and static stride
  classification of every load (striding / indirect / invariant);
* :mod:`repro.analysis.taint`     — static SVR taint chains seeded at
  striding loads: the dependent instructions a perfect SVR unit would
  vectorize, with expected chain length and SRF pressure;
* :mod:`repro.analysis.memdep`    — loop-level memory dependences over the
  invariant/affine/load-dependent address lattice;
* :mod:`repro.analysis.vectorplan` — per-loop lane-batching legality
  verdicts (``BATCHABLE`` / ``BATCHABLE_WITH_GUARD`` / ``SCALAR_ONLY``);
* :mod:`repro.analysis.oracle`    — dynamic cross-validation of every
  static plan claim against recorded execution traces.

:func:`repro.analysis.lint.lint_program` drives the static checks and
returns a :class:`~repro.analysis.lint.LintReport`; ``python -m repro
lint`` and ``python -m repro analyze`` are the CLI entry points.
"""

from repro.analysis.cfg import CFG, BasicBlock, Loop, build_cfg
from repro.analysis.dataflow import (
    DataflowProblem,
    DefiniteAssignment,
    LiveRegisters,
    ReachingDefinitions,
    dead_definitions,
    dead_stores,
    solve,
    unassigned_reads,
)
from repro.analysis.induction import (
    InductionVariable,
    LoadInfo,
    StrideAnalysis,
)
from repro.analysis.lint import (
    DIAGNOSTIC_CATALOG,
    LINT_SCHEMA,
    Diagnostic,
    LintReport,
    Severity,
    lint_program,
)
from repro.analysis.memdep import (
    AddrExpr,
    DepEdge,
    LoopDependences,
    MemAccess,
    MemDepAnalysis,
)
from repro.analysis.oracle import (
    OracleRecorder,
    OracleReport,
    Violation,
    collect_trace,
    oracle_check,
    validate_plan,
)
from repro.analysis.render import (
    format_chain_table,
    format_diagnostics,
    format_load_table,
    format_oracle_report,
    format_plan,
    format_plan_table,
    format_report,
)
from repro.analysis.taint import StaticChain, chains_for_program, taint_chain
from repro.analysis.vectorplan import (
    BATCHABLE,
    BATCHABLE_WITH_GUARD,
    SCALAR_ONLY,
    GuardSpec,
    LoopPlan,
    PlanReason,
    VectorizationPlan,
    build_plan,
)
from repro.svr.chain import LoadClass

__all__ = [
    "AddrExpr",
    "BATCHABLE",
    "BATCHABLE_WITH_GUARD",
    "BasicBlock",
    "CFG",
    "DIAGNOSTIC_CATALOG",
    "DataflowProblem",
    "DefiniteAssignment",
    "DepEdge",
    "Diagnostic",
    "GuardSpec",
    "InductionVariable",
    "LINT_SCHEMA",
    "LintReport",
    "LiveRegisters",
    "LoadClass",
    "LoadInfo",
    "Loop",
    "LoopDependences",
    "LoopPlan",
    "MemAccess",
    "MemDepAnalysis",
    "OracleRecorder",
    "OracleReport",
    "PlanReason",
    "ReachingDefinitions",
    "SCALAR_ONLY",
    "Severity",
    "StaticChain",
    "StrideAnalysis",
    "VectorizationPlan",
    "Violation",
    "build_cfg",
    "build_plan",
    "chains_for_program",
    "collect_trace",
    "dead_definitions",
    "dead_stores",
    "format_chain_table",
    "format_diagnostics",
    "format_load_table",
    "format_oracle_report",
    "format_plan",
    "format_plan_table",
    "format_report",
    "lint_program",
    "oracle_check",
    "solve",
    "taint_chain",
    "unassigned_reads",
    "validate_plan",
]
