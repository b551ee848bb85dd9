"""Frozen pre-kernel problem implementations (equivalence baselines).

These modules are verbatim copies of the hand-written
:class:`~repro.dataflow.framework.DataFlowProblem` subclasses as they
existed before the analyses were ported onto the declarative
:mod:`repro.dataflow.kernel` — each with its own ``edge_fact``
interprocedural renaming and inline MPI-model dispatch.  They are the
reference implementations for ``tests/test_kernel_equivalence.py``:
the kernel-hosted ports must produce byte-identical facts and matching
solver work counts against these, so do NOT update them when the live
analyses change — that would defeat the comparison.

Only the import statements were rewritten (relative → absolute); the
class bodies are untouched.  The modules' convenience ``*_analysis``
wrappers, which nothing called, were dropped together with the
solver's ``backend`` parameter they forwarded.  The same frozen-baseline pattern is used
by ``benchmarks/seed_solver.py`` for solver performance.
"""

from .bitwidth import BitwidthProblem as LegacyBitwidthProblem
from .liveness import LivenessProblem as LegacyLivenessProblem
from .need import legacy_need_problem
from .reaching_constants import (
    ReachingConstantsProblem as LegacyReachingConstantsProblem,
)
from .reaching_defs import ReachingDefsProblem as LegacyReachingDefsProblem
from .taint import TaintProblem as LegacyTaintProblem
from .useful import UsefulProblem as LegacyUsefulProblem
from .vary import VaryProblem as LegacyVaryProblem

__all__ = [
    "LegacyBitwidthProblem",
    "LegacyLivenessProblem",
    "LegacyReachingConstantsProblem",
    "LegacyReachingDefsProblem",
    "LegacyTaintProblem",
    "LegacyUsefulProblem",
    "LegacyVaryProblem",
    "legacy_need_problem",
]
