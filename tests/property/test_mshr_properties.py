"""Property tests (hypothesis) for the outstanding-miss queue.

:class:`~repro.memory.mshr.OutstandingMissQueue` skips its expire scan
while its ``next_ready`` bound says nothing can have arrived.  Driven
by random insert / merge / overflow / expire / lookup sequences, it
must stay equal to a plain dict model that rescans on every expire, and
the bound must never exceed the earliest pending arrival.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.mshr import OutstandingMissQueue

#: Few lines and a small queue, so merges and overflow pops are common.
LINES = range(6)
lines = st.sampled_from(LINES)
cycles = st.integers(min_value=0, max_value=40)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), lines, cycles),
        st.tuples(st.just("expire"), cycles),
        st.tuples(st.just("pending_until"), lines, cycles),
        st.tuples(st.just("clear")),
    ),
    min_size=1, max_size=60)


class DictModel:
    """The queue's semantics with no bound: every expire rescans."""

    def __init__(self, n_entries: int) -> None:
        self.n_entries = n_entries
        self.pending = {}  # insertion-ordered: first key is the oldest

    def insert(self, line, ready):
        if line in self.pending:
            self.pending[line] = min(self.pending[line], ready)
            return
        while len(self.pending) >= self.n_entries:
            del self.pending[next(iter(self.pending))]
        self.pending[line] = ready

    def expire(self, now):
        self.pending = {line: ready for line, ready in self.pending.items()
                        if ready > now}

    def pending_until(self, line, now):
        ready = self.pending.get(line)
        return None if ready is None or ready <= now else ready


@given(st.integers(min_value=1, max_value=4), ops)
@settings(max_examples=200, deadline=None)
def test_queue_matches_rescanning_model(n_entries, sequence):
    queue = OutstandingMissQueue(n_entries)
    model = DictModel(n_entries)
    for op in sequence:
        name = op[0]
        if name == "insert":
            queue.insert(op[1], op[2])
            model.insert(op[1], op[2])
        elif name == "expire":
            queue.expire(op[1])
            model.expire(op[1])
        elif name == "pending_until":
            assert queue.pending_until(op[1], op[2]) \
                == model.pending_until(op[1], op[2])
        else:
            queue.clear()
            model.pending.clear()
        # Same population (cycles are >= 0, so now=-1 reads every
        # pending arrival) and a bound that never overshoots.
        assert len(queue) == len(model.pending)
        for line in LINES:
            assert (line in queue) == (line in model.pending)
            assert queue.pending_until(line, -1) \
                == model.pending_until(line, -1)
        assert queue.next_ready <= min(model.pending.values(),
                                       default=float("inf"))
