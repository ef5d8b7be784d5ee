"""ECU descriptors for system models.

An :class:`EcuSpec` captures what the deployment needs to know about one
electronic control unit: a name, the scheduling policy its OS runs, and
per-task overrides.  The actual kernel is created at build time by the RTE
generator, so one system model can be rebuilt against several scheduling
policies — exactly the comparison experiments E1/E2 perform.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.osek.scheduler import FixedPriorityScheduler, Scheduler


class EcuSpec:
    """Deployment-time description of one ECU.

    ``scheduler_factory`` returns a fresh :class:`Scheduler` per build
    (schedulers are stateful).  Defaults to preemptive fixed priority.
    """

    def __init__(self, name: str,
                 scheduler_factory: Optional[Callable[[], Scheduler]] = None,
                 domain: str = "default"):
        if not name:
            raise ConfigurationError("ECU needs a non-empty name")
        self.name = name
        self.scheduler_factory = (scheduler_factory if scheduler_factory
                                  is not None else FixedPriorityScheduler)
        #: bus domain this ECU hangs on; cross-domain traffic is routed
        #: through an auto-generated central gateway.
        self.domain = domain
        #: task-name -> priority overrides (task names are
        #: "<instance>.<runnable>"); tasks without an override get a
        #: rate-monotonic priority at build time.
        self.priorities: dict[str, int] = {}
        #: task-name -> partition (for TDMA / server schedulers).
        self.partitions: dict[str, str] = {}
        #: task-name -> enforced execution budget (timing protection).
        self.budgets: dict[str, int] = {}

    def set_priority(self, task_name: str, priority: int) -> None:
        """Override the deployed priority of a task (instance.runnable)."""
        self.priorities[task_name] = priority

    def set_partition(self, task_name: str, partition: str) -> None:
        """Assign a task to a TDMA/server partition."""
        self.partitions[task_name] = partition

    def set_budget(self, task_name: str, budget: int) -> None:
        """Set a task's enforced execution budget (timing protection)."""
        if budget <= 0:
            raise ConfigurationError(
                f"ECU {self.name}: budget for {task_name} must be > 0")
        self.budgets[task_name] = budget

    def __repr__(self) -> str:
        return f"<EcuSpec {self.name}>"
