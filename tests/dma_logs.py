"""A ``DmaEngine`` that logs every burst it issues and completes.

The engine keeps no per-burst history of its own; the tests that check
issue and completion order (the frontier oracle, the dependency and
credit-loop tests) read it off this subclass instead.
"""

from repro.workloads.dma import DmaEngine


class RecordingDmaEngine(DmaEngine):
    """``issue_log`` holds ``(descriptor, burst, cycle)`` per issued
    burst, ``complete_log`` the same per completed burst or compute (a
    compute is burst 0, stamped with its due cycle), and ``completions``
    ``(txn_id, cycle, status)`` per completion callback — each in the
    order the engine acted."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.issue_log = []
        self.complete_log = []
        self.completions = []

    def poll(self, cycle):
        txn = super().poll(cycle)
        if txn is not None:
            i = self._txn_desc[txn.txn_id]
            self.issue_log.append((i, self._issued[i] - 1, cycle))
        return txn

    def notify_complete(self, txn_id, cycle, status):
        # Logged before the engine acts: the completion it counts comes
        # before any compute it releases.
        self.completions.append((txn_id, cycle, status))
        i = self._txn_desc.get(txn_id)
        if i is not None and not status.is_error:
            self.complete_log.append((i, self._done_bursts[i], cycle))
        super().notify_complete(txn_id, cycle, status)

    def _finish(self, i, cycle):
        super()._finish(i, cycle)
        if self._compute_done[i] is not None:  # only a compute has a due cycle
            self.complete_log.append((i, 0, cycle))
