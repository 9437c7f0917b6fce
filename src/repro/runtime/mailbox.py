"""Bounded blocking mailboxes with BAS semantics (Akka ``BoundedMailbox``).

The paper configures Akka actors with the ``BoundedMailbox`` which,
"besides having a fixed capacity, blocks the sending actor if the
destination mailbox is currently full", with a timeout after which the
item is discarded (Section 5.1).  This module reproduces exactly those
semantics: :meth:`BoundedMailbox.put` blocks the caller while the
mailbox is full (Blocking After Service) and returns ``False`` —
dropping the item — only when the configured timeout elapses.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Optional, Sequence, Tuple


class MailboxClosed(RuntimeError):
    """Raised when interacting with a closed mailbox."""


class Batch:
    """An envelope carrying several tuples in one mailbox message.

    Batching senders (see :class:`repro.runtime.actors.BatchingTarget`)
    pack up to ``BatchConfig.size`` tuples into one ``Batch`` so the
    per-message mailbox hop (lock, condition wakeup, queue operation) is
    paid once per batch instead of once per tuple.  Receivers unpack the
    envelope and handle every tuple individually, so operator semantics
    are unchanged — the differential test layer gates bit-equality
    between batched and unbatched executions.
    """

    __slots__ = ("items",)

    def __init__(self, items: Tuple[Any, ...]) -> None:
        self.items = items

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return f"Batch({len(self.items)} items)"


class BoundedMailbox:
    """A fixed-capacity FIFO mailbox with blocking senders.

    Parameters
    ----------
    capacity:
        Maximum number of queued messages.
    put_timeout:
        Default seconds a sender blocks on a full mailbox before the
        message is dropped; ``None`` blocks indefinitely.  The paper
        sets this "significantly higher than the maximum operators'
        service time" to avoid drops.
    """

    def __init__(self, capacity: int, put_timeout: Optional[float] = 5.0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.put_timeout = put_timeout
        self._queue: Deque[Any] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        #: Messages dropped because a sender's put timed out (BAS drop).
        self.dropped = 0
        #: Messages shed by an injected mailbox drop window (faults).
        self.shed = 0
        self.enqueued = 0
        #: Put attempts, accepted or not — the arrival index the fault
        #: drop windows are expressed in.
        self.offered = 0
        self.high_watermark = 0
        #: Injected lossy windows: offered-index ranges that are shed.
        self.drop_windows: Tuple[Tuple[int, int], ...] = ()
        #: When set, every put is handed to this callback instead of
        #: being enqueued (a stopped actor's dead-letter diversion).
        self._divert: Optional[Callable[[Any], None]] = None

    def set_drop_windows(self,
                         windows: Sequence[Tuple[int, int]]) -> None:
        """Install injected lossy windows over the offered-index axis."""
        self.drop_windows = tuple(windows)

    def divert(self, callback: Callable[[Any], None]) -> None:
        """Divert this mailbox: drain the queue and reroute every put.

        Used when the owning actor is stopped by its supervisor:
        subsequent messages go to the dead-letter callback instead of
        accumulating (which would block the senders forever), and any
        blocked senders are released immediately.
        """
        with self._lock:
            drained = list(self._queue)
            self._queue.clear()
            self._divert = callback
            self._not_full.notify_all()
            self._not_empty.notify_all()
        for message in drained:
            callback(message)

    @property
    def diverted(self) -> bool:
        return self._divert is not None

    def put(self, message: Any, timeout: Optional[float] = -1.0,
            weight: int = 1, control: bool = False) -> bool:
        """Enqueue ``message``; blocks while full (BAS).

        Returns ``True`` on success and ``False`` when the timeout
        elapsed and the message was dropped.  ``timeout=-1`` uses the
        mailbox default; ``None`` waits forever.  ``weight`` is the
        number of tuples the message carries (> 1 for a :class:`Batch`):
        the ``dropped``/``shed``/``offered`` counters advance by it, so
        a timed-out batch of *k* tuples is accounted as *k* lost tuples
        rather than one lost message.

        ``control`` marks a control envelope (a checkpoint barrier): it
        neither advances the offered-tuple index nor can be shed by an
        injected drop window, so control flow stays invisible to the
        fault plans expressed over data-arrival indices.
        """
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        if timeout is not None and timeout < 0.0:
            timeout = self.put_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_full:
            if not control:
                index = self.offered
                self.offered += weight
                if self.drop_windows and any(
                        start <= index < end
                        for start, end in self.drop_windows):
                    self.shed += weight
                    return True
            while (len(self._queue) >= self.capacity
                   and self._divert is None):
                if self._closed:
                    raise MailboxClosed("mailbox closed while sender blocked")
                if deadline is None:
                    self._not_full.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        self.dropped += weight
                        return False
                    self._not_full.wait(remaining)
            if self._divert is not None:
                # The dead-letter callback only appends to a sink with
                # its own private lock, so invoking it under this lock
                # cannot deadlock.
                self._divert(message)
                return True
            if self._closed:
                raise MailboxClosed("cannot put into a closed mailbox")
            self._queue.append(message)
            self.enqueued += 1
            if len(self._queue) > self.high_watermark:
                self.high_watermark = len(self._queue)
            self._not_empty.notify()
            return True

    def get(self, timeout: Optional[float] = None) -> Any:
        """Dequeue one message, blocking up to ``timeout`` seconds.

        Raises :class:`TimeoutError` when the timeout elapses with the
        mailbox still empty, and :class:`MailboxClosed` when the mailbox
        was closed and fully drained.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            while not self._queue:
                if self._closed:
                    raise MailboxClosed("mailbox closed and drained")
                if deadline is None:
                    self._not_empty.wait()
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0.0:
                        raise TimeoutError("mailbox get timed out")
                    self._not_empty.wait(remaining)
            message = self._queue.popleft()
            self._not_full.notify()
            return message

    def close(self) -> None:
        """Close the mailbox, waking all blocked senders and receivers."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def empty(self) -> bool:
        """Lock-free idleness probe (a deque's truth is atomic under the GIL)."""
        return not self._queue

    @property
    def closed(self) -> bool:
        return self._closed
