"""Unit tests for the bounded BAS mailbox."""

import sys
import threading
import time

import pytest

from repro.runtime.mailbox import BoundedMailbox, MailboxClosed


class TestBasics:
    def test_fifo_order(self):
        mailbox = BoundedMailbox(4)
        for i in range(3):
            assert mailbox.put(i, timeout=0.1)
        assert [mailbox.get() for _ in range(3)] == [0, 1, 2]

    def test_len_tracks_queue(self):
        mailbox = BoundedMailbox(4)
        mailbox.put("a", timeout=0.1)
        assert len(mailbox) == 1
        mailbox.get()
        assert len(mailbox) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            BoundedMailbox(0)

    def test_counters(self):
        mailbox = BoundedMailbox(2, put_timeout=0.01)
        mailbox.put("a"), mailbox.put("b")
        assert not mailbox.put("c")  # dropped after timeout
        assert mailbox.enqueued == 2
        assert mailbox.dropped == 1
        assert mailbox.high_watermark == 2


class TestBlocking:
    def test_put_timeout_drops(self):
        mailbox = BoundedMailbox(1, put_timeout=0.05)
        assert mailbox.put("a")
        started = time.monotonic()
        assert not mailbox.put("b")
        assert time.monotonic() - started >= 0.04

    def test_put_unblocks_when_slot_frees(self):
        mailbox = BoundedMailbox(1)
        mailbox.put("a", timeout=0.1)
        results = []

        def sender():
            results.append(mailbox.put("b", timeout=2.0))

        thread = threading.Thread(target=sender)
        thread.start()
        time.sleep(0.05)
        assert mailbox.get() == "a"
        thread.join(timeout=1.0)
        assert results == [True]
        assert mailbox.get() == "b"

    def test_get_timeout_raises(self):
        mailbox = BoundedMailbox(1)
        with pytest.raises(TimeoutError):
            mailbox.get(timeout=0.05)

    def test_get_unblocks_on_put(self):
        mailbox = BoundedMailbox(1)
        results = []

        def receiver():
            results.append(mailbox.get(timeout=2.0))

        thread = threading.Thread(target=receiver)
        thread.start()
        time.sleep(0.05)
        mailbox.put("x", timeout=0.5)
        thread.join(timeout=1.0)
        assert results == ["x"]

    def test_explicit_timeout_overrides_default(self):
        mailbox = BoundedMailbox(1, put_timeout=10.0)
        mailbox.put("a")
        started = time.monotonic()
        assert not mailbox.put("b", timeout=0.05)
        assert time.monotonic() - started < 1.0


class TestClose:
    def test_get_after_close_and_drain_raises(self):
        mailbox = BoundedMailbox(2)
        mailbox.put("a", timeout=0.1)
        mailbox.close()
        assert mailbox.get() == "a"  # drain allowed
        with pytest.raises(MailboxClosed):
            mailbox.get()

    def test_put_into_closed_raises(self):
        mailbox = BoundedMailbox(2)
        mailbox.close()
        with pytest.raises(MailboxClosed):
            mailbox.put("a", timeout=0.1)

    def test_close_wakes_blocked_sender(self):
        mailbox = BoundedMailbox(1)
        mailbox.put("a", timeout=0.1)
        errors = []

        def sender():
            try:
                mailbox.put("b", timeout=5.0)
            except MailboxClosed as exc:
                errors.append(exc)

        thread = threading.Thread(target=sender)
        thread.start()
        time.sleep(0.05)
        mailbox.close()
        thread.join(timeout=1.0)
        assert len(errors) == 1

    def test_close_wakes_blocked_receiver(self):
        mailbox = BoundedMailbox(1)
        errors = []

        def receiver():
            try:
                mailbox.get(timeout=5.0)
            except MailboxClosed as exc:
                errors.append(exc)

        thread = threading.Thread(target=receiver)
        thread.start()
        time.sleep(0.05)
        mailbox.close()
        thread.join(timeout=1.0)
        assert len(errors) == 1

    def test_closed_property(self):
        mailbox = BoundedMailbox(1)
        assert not mailbox.closed
        mailbox.close()
        assert mailbox.closed


class TestDrain:
    """``get_all`` hands its consumer the queue itself: a message leaves
    the mailbox, and frees its slot, only when the consumer pops it."""

    def test_get_all_returns_fifo_order(self):
        mailbox = BoundedMailbox(8)
        for i in range(5):
            mailbox.put(i, timeout=0.1)
        queue = mailbox.get_all()
        assert list(queue) == [0, 1, 2, 3, 4]
        assert queue.popleft() == 0
        mailbox.release()
        assert len(mailbox) == 4

    def test_unhandled_messages_hold_their_slots(self):
        mailbox = BoundedMailbox(2)
        mailbox.put("a", timeout=0.1)
        mailbox.put("b", timeout=0.1)
        queue = mailbox.get_all()
        assert not mailbox.empty and len(mailbox) == 2
        assert mailbox.put("c", timeout=0.05) is False  # BAS: still full
        assert mailbox.dropped == 1
        assert queue.popleft() == "a"
        mailbox.release()
        assert mailbox.put("c", timeout=0.05) is True
        assert list(queue) == ["b", "c"]

    def test_each_pop_wakes_a_blocked_sender(self):
        mailbox = BoundedMailbox(2)
        mailbox.put("a", timeout=0.1)
        mailbox.put("b", timeout=0.1)
        results = []
        senders = [threading.Thread(
            target=lambda i=i: results.append(mailbox.put(i, timeout=None)),
            daemon=True) for i in range(2)]
        for sender in senders:
            sender.start()
        deadline = time.monotonic() + 5.0
        while mailbox._senders_waiting < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        queue = mailbox.get_all()
        try:
            for expected in (1, 2):
                queue.popleft()
                mailbox.release()
                deadline = time.monotonic() + 2.0
                while len(results) < expected and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert results == [True] * expected
                assert len(mailbox) == 2  # the freed slot, and only it, refilled
        finally:
            mailbox.close()  # releases a sender nobody woke
        assert sorted(queue) == [0, 1]

    def test_get_all_timeout_raises(self):
        with pytest.raises(TimeoutError):
            BoundedMailbox(1).get_all(timeout=0.05)

    def test_get_all_after_close_and_drain_raises(self):
        mailbox = BoundedMailbox(2)
        mailbox.put("a", timeout=0.1)
        mailbox.close()
        assert mailbox.get_all().popleft() == "a"  # drain allowed
        with pytest.raises(MailboxClosed):
            mailbox.get_all()

    def test_what_the_consumer_leaves_stays_at_the_head(self):
        mailbox = BoundedMailbox(8)
        for i in range(4):
            mailbox.put(i, timeout=0.1)
        queue = mailbox.get_all()
        assert queue.popleft() == 0
        mailbox.put(4, timeout=0.1)  # arrives while 1..3 are left
        assert [mailbox.get(timeout=0.1) for _ in range(4)] == [1, 2, 3, 4]

    def test_divert_mid_drain_keeps_arrival_order(self):
        mailbox = BoundedMailbox(8)
        for i in range(4):
            mailbox.put(i, timeout=0.1)
        queue = mailbox.get_all()
        assert queue.popleft() == 0
        letters = []
        mailbox.divert(letters.append)
        assert not queue  # the consumer's deque is emptied in place
        mailbox.put(4, timeout=0.1)
        assert letters == [1, 2, 3, 4]
        assert len(mailbox) == 0


class TestNoLostWakeup:
    """Signals go only to waiting threads: a missed one would strand a
    sender or a receiver, and the deadline below would expire."""

    def test_timed_out_waits_leave_no_signal_owed(self):
        # An idle actor's polls time out every few ms; what they leave
        # counted must not turn later puts into signals to nobody.
        mailbox = BoundedMailbox(1)
        for _ in range(3):
            with pytest.raises(TimeoutError):
                mailbox.get(timeout=0.01)
        mailbox.put("a")
        assert mailbox._receivers_waiting == 0
        assert mailbox.put("b", timeout=0.01) is False
        assert mailbox.get() == "a"
        assert mailbox._senders_waiting == 0

    @pytest.mark.parametrize("drain", ["get", "get_all"])
    @pytest.mark.parametrize("capacity", [1, 4])
    def test_every_item_arrives(self, capacity, drain):
        producers, per_producer = 4, 5000
        mailbox = BoundedMailbox(capacity, put_timeout=None)
        received = []

        def produce(base):
            for i in range(per_producer):
                mailbox.put(base + i)

        def consume():
            while len(received) < producers * per_producer:
                try:
                    if drain == "get":
                        received.append(mailbox.get(timeout=0.5))
                    else:
                        queue = mailbox.get_all(timeout=0.5)
                        while queue:
                            received.append(queue.popleft())
                            mailbox.release()
                except TimeoutError:
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=produce,
                                        args=(p * per_producer,), daemon=True)
                       for p in range(producers)]
            threads.append(threading.Thread(target=consume))
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10.0
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        mailbox.close()  # release any sender a lost wake-up stranded
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(received) == list(range(producers * per_producer))
        assert mailbox.dropped == 0
        for p in range(producers):  # per-producer FIFO
            mine = [i for i in received
                    if p * per_producer <= i < (p + 1) * per_producer]
            assert mine == sorted(mine)
