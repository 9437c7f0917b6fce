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
from collections import deque
from typing import Any, Callable, Deque, Optional, Sequence, Tuple


class MailboxClosed(RuntimeError):
    """Raised when interacting with a closed mailbox."""


class Batch:
    """An envelope carrying several tuples in one mailbox message.

    Batching senders (see :class:`repro.runtime.actors.BatchingTarget`)
    pack up to ``BatchConfig.size`` tuples into one ``Batch`` so the
    per-message mailbox hop (lock, condition wakeup, queue operation) is
    paid once per batch instead of once per tuple.  Emitters and
    collectors move a batch as a unit — one loop, counters and timing
    per batch — so it crosses a replicated vertex whole; operator actors
    unpack it and handle every tuple individually, so operator semantics
    are unchanged — the differential test layer gates bit-equality
    between batched and unbatched executions.  A lone tuple travels
    without the envelope.
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
        # Unsignalled sleepers on each condition, changed under the lock
        # (see ``_room``): nobody signals a condition no thread sleeps on.
        self._receivers_waiting = 0
        self._senders_waiting = 0
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
            # Cleared in place: get_all's consumer may hold the deque.
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
        with self._lock:
            if not control:
                index = self.offered
                self.offered += weight
                if self.drop_windows and any(
                        start <= index < end
                        for start, end in self.drop_windows):
                    self.shed += weight
                    return True
            if len(self._queue) >= self.capacity and self._divert is None:
                ready = self._not_full.wait_for(self._room, timeout)
                self._senders_waiting -= 1  # the last look did not sleep
                if not ready:
                    self.dropped += weight
                    return False
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
            if self._receivers_waiting:
                # Wake all and forget what timed-out waits left counted.
                self._receivers_waiting = 0
                self._not_empty.notify_all()
            return True

    def _room(self) -> bool:
        """A sender's wait predicate.  It counts the sender asleep
        *before* it looks, so a consumer that pops and then reads the
        count without the lock (:meth:`release`) cannot miss it; a
        waker uncounts the one sender it signals."""
        self._senders_waiting += 1
        return (len(self._queue) < self.capacity
                or self._divert is not None or self._closed)

    def _mail(self) -> bool:
        """A receiver's wait predicate, counting as :meth:`_room` does."""
        self._receivers_waiting += 1
        return bool(self._queue) or self._closed

    def _wake_sender(self) -> None:
        if self._senders_waiting:  # lock held
            self._senders_waiting -= 1
            self._not_full.notify()

    def _await_message(self, timeout: Optional[float]) -> None:
        """Block (lock held) until a message is queued; raises as
        :meth:`get` documents."""
        self._not_empty.wait_for(self._mail, timeout)
        self._receivers_waiting -= 1  # the last look did not sleep
        if not self._queue:
            if self._closed:
                raise MailboxClosed("mailbox closed and drained")
            raise TimeoutError("mailbox get timed out")

    def get(self, timeout: Optional[float] = None) -> Any:
        """Dequeue one message, blocking up to ``timeout`` seconds.

        Raises :class:`TimeoutError` when the timeout elapses with the
        mailbox still empty, and :class:`MailboxClosed` when the mailbox
        was closed and fully drained.
        """
        with self._lock:
            if not self._queue:
                self._await_message(timeout)
            message = self._queue.popleft()
            self._wake_sender()
            return message

    def get_all(self, timeout: Optional[float] = None) -> Deque[Any]:
        """Block until a message is queued; return the queue itself.

        Its single consumer pops from the head without the lock and calls
        :meth:`release` after each pop; a message frees its slot only when
        popped, so BAS, ``len`` and ``empty`` read as with :meth:`get`.
        """
        if not self._queue:
            with self._lock:
                if not self._queue:
                    self._await_message(timeout)
        return self._queue

    def release(self) -> None:
        """Wake a blocked sender after a pop from :meth:`get_all`'s deque;
        lock-free unless one sleeps (the pop precedes this read, and
        :meth:`_room` counts a sender before it looks)."""
        if self._senders_waiting:
            with self._lock:
                self._wake_sender()

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
