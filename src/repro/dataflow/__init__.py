"""The MPI-aware data-flow analysis framework (§3–§4)."""

from .bitset import BitsetAdapter, BitsetFacts, FactUniverse
from .framework import DataFlowProblem, DataflowResult, Direction, SolverStats
from .interproc import InterprocMaps, ParamBinding, SiteInfo
from .lattice import (
    BOTTOM,
    EMPTY,
    TOP,
    ConstEnv,
    ConstValue,
    SetFact,
    bool_or_meet,
    const,
    const_leq,
    const_meet,
    env_get,
    env_meet,
    env_set,
    set_meet,
)
from .solver import MAX_PASSES, STRATEGIES, SolverError, solve

# The kernel imports lazily from repro.analyses.mpi_model, so it must
# come after the core modules above are fully initialized.
from .kernel import (
    AnalysisSpec,
    CommRule,
    EnvInterprocFacts,
    InterprocRule,
    KernelProblem,
    MpiRule,
    dispatch_mpi_model,
    qualify_seeds,
)

__all__ = [
    "Direction",
    "DataFlowProblem",
    "DataflowResult",
    "SolverStats",
    "solve",
    "SolverError",
    "MAX_PASSES",
    "STRATEGIES",
    "BitsetFacts",
    "BitsetAdapter",
    "FactUniverse",
    "InterprocMaps",
    "SiteInfo",
    "ParamBinding",
    "ConstValue",
    "TOP",
    "BOTTOM",
    "const",
    "const_meet",
    "const_leq",
    "ConstEnv",
    "env_get",
    "env_set",
    "env_meet",
    "SetFact",
    "EMPTY",
    "set_meet",
    "bool_or_meet",
    "AnalysisSpec",
    "InterprocRule",
    "MpiRule",
    "CommRule",
    "KernelProblem",
    "EnvInterprocFacts",
    "qualify_seeds",
    "dispatch_mpi_model",
]
