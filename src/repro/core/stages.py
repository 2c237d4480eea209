"""Staged compile pipelines: the named sub-steps of ``compile()``.

Every bundled backend splits its compile into an explicit pipeline —
**graph build → partition/mapping → placement/allocation → report** —
so each step can be timed and profiled on its own. A stage is a name
and a compute function taking the previous stage's artifact (``None``
for the first stage) and returning its own.

:func:`run_stages` folds a pipeline into its final artifact. A
backend's ``compile()`` is exactly ``run_stages(compile_pipeline(...))``,
so the staged and monolithic results cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "STAGE_GRAPH",
    "STAGE_PARTITION",
    "STAGE_PLACEMENT",
    "STAGE_REPORT",
    "CompileStage",
    "run_stages",
]

#: Canonical stage names, in pipeline order. Platforms whose compile
#: has no distinct placement step (or no model-only graph build) simply
#: omit that stage — the names are shared vocabulary for timing and
#: profiling, not a rigid contract.
STAGE_GRAPH = "graph"
STAGE_PARTITION = "partition"
STAGE_PLACEMENT = "placement"
STAGE_REPORT = "report"


@dataclass(frozen=True)
class CompileStage:
    """One step of a backend's compile pipeline.

    Attributes:
        name: stage label (usually one of the canonical names above).
        compute: produces the stage artifact from the previous stage's
            (``None`` for the first stage); must not mutate its input.
    """

    name: str
    compute: Callable[[Any], Any] = field(compare=False)


def run_stages(stages: Iterable[CompileStage]) -> Any:
    """Fold a compile pipeline; returns the final stage's artifact."""
    pipeline = list(stages)
    if not pipeline:
        raise ValueError("a compile pipeline needs at least one stage")
    artifact: Any = None
    for stage in pipeline:
        artifact = stage.compute(artifact)
    return artifact
