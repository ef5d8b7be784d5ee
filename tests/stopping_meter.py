"""A progress meter that stops a plan execution the way a kill does.

Every runner takes ``progress=``; :class:`StoppingMeter` raises
:class:`Stopped` from ``item_done`` once ``after`` items have completed
in this run.  By then those items are journaled, while the ones still
in flight are not — what killing the process leaves for ``resume``.
"""

from repro.exec import ProgressMeter


class Stopped(Exception):
    """Raised by :class:`StoppingMeter` in place of a kill."""


class StoppingMeter(ProgressMeter):

    def __init__(self, after: int, total_items: int = 0):
        super().__init__(total_items)
        self.after = after

    def item_done(self, elapsed: float, worker: int) -> None:
        super().item_done(elapsed, worker)
        if self.items_done >= self.after:
            raise Stopped(f"stopped after {self.items_done} item(s)")
