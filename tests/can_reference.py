"""Reference CAN arbitration for parity checks.

:class:`ReferenceCanBus` picks the arbitration winner the plainest way:
if the bus is idle (the ``idle`` property), it lists a
``(can_id, seq, controller)`` contender for every controller with a
queued frame and takes the ``min``.  It overrides only ``_arbitrate``,
so queueing, transmission, error recovery and delivery are the bus's
own.  The property test in ``test_network_can.py`` drives the same
traffic through both.
"""

import heapq

from repro import obs
from repro.network.can import CanBus


class ReferenceCanBus(CanBus):
    """Arbitrates by taking the minimum over every contender."""

    def _arbitrate(self):
        self._start_pending = False
        if not self.idle:
            return
        contenders = [(c._queue[0][0], c._queue[0][1], c)
                      for c in self.controllers.values() if c._queue]
        if not contenders:
            return
        __, __, winner = min(contenders)
        __, __, spec, msg = heapq.heappop(winner._queue)
        obs.count("can.arbitrations")
        self._transmit(winner, spec, msg)
