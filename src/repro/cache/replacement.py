"""Pluggable block-replacement policies (the cache-policy zoo).

The paper simulates LRU only; ROADMAP item 3 grows the simulator into a
policy-pluggable zoo so replacement strategies can be ranked across the
three machines and the strace workloads ("Table VI revisited").  This
module is the plugin API: a :class:`ReplacementPolicy` owns *ordering*
only — which resident block dies next — while the simulator core keeps
the paper's write-policy/invalidation/read-elision semantics and every
metrics counter.

The contract is deliberately tiny and call-sequence-driven so the full
simulator (:class:`~repro.cache.simulator.BlockCacheSimulator`, tuple
keys) and the packed replayer
(:func:`~repro.parallel.packed.simulate_packed`, int keys) drive the
*same* policy classes through the *same* operation sequence and
therefore make bit-identical victim choices (fuzz pillar 6 checks this
continuously):

* ``touch(key)`` — *key* was referenced while resident (a hit);
* ``insert(key)`` — *key* became resident (a miss was filled);
* ``victim()`` — choose (do not remove) the next block to evict;
* ``remove(key, evicted)`` — *key* left the cache; ``evicted=True``
  only for capacity evictions, so ghost-keeping policies (2Q, ARC) can
  remember ejected keys while invalidated blocks vanish outright.

Everything here is deterministic: a policy's choices are a pure
function of its operation sequence (the ensemble carries its own
counter-based LCG), which is what lets the differential suite demand
exact :class:`~repro.cache.metrics.CacheMetrics` equality.

Which policies admit one-pass Mattson curves is a property of the
priority function: LRU's priority (recency) is independent of cache
contents, so one stack pass yields the whole miss-ratio curve
(:mod:`repro.parallel.veccache`).  LFU-with-aging is also a stack
algorithm (its priority — decayed frequency, then recency — is a pure
function of the reference string; the inclusion property tests assert
the consequence), but the curve machinery is LRU-shaped, so every
non-LRU policy is evaluated by replay, one capacity at a time.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from heapq import heappop, heappush

__all__ = [
    "ReplacementPolicy",
    "LruPolicy",
    "FifoPolicy",
    "ClockPolicy",
    "LfuPolicy",
    "TwoQPolicy",
    "ArcPolicy",
    "EnsemblePolicy",
    "REPLACEMENT_POLICIES",
    "REPLACEMENT_NAMES",
    "make_replacement",
    "validate_replacement",
    "current_replacement",
    "replacement_context",
]


class ReplacementPolicy:
    """Victim-selection strategy for one fixed-capacity block cache."""

    __slots__ = ()

    name = "abstract"

    def touch(self, key) -> None:
        """*key* was referenced while resident."""
        raise NotImplementedError

    def insert(self, key) -> None:
        """*key* became resident (after a miss)."""
        raise NotImplementedError

    def victim(self):
        """The resident key to evict next (chosen, not yet removed)."""
        raise NotImplementedError

    def remove(self, key, evicted: bool = False) -> None:
        """*key* left the cache (capacity eviction iff *evicted*)."""
        raise NotImplementedError


class LruPolicy(ReplacementPolicy):
    """Least-recently-used — the paper's policy, and the zoo's oracle."""

    __slots__ = ("_order",)

    name = "lru"

    def __init__(self, capacity: int):
        self._order: OrderedDict = OrderedDict()

    def touch(self, key) -> None:
        self._order.move_to_end(key)

    def insert(self, key) -> None:
        self._order[key] = True

    def victim(self):
        return next(iter(self._order))

    def remove(self, key, evicted: bool = False) -> None:
        del self._order[key]


class FifoPolicy(ReplacementPolicy):
    """First-in-first-out: insertion order, references never reorder."""

    __slots__ = ("_order",)

    name = "fifo"

    def __init__(self, capacity: int):
        self._order: OrderedDict = OrderedDict()

    def touch(self, key) -> None:
        pass

    def insert(self, key) -> None:
        self._order[key] = True

    def victim(self):
        return next(iter(self._order))

    def remove(self, key, evicted: bool = False) -> None:
        del self._order[key]


class ClockPolicy(ReplacementPolicy):
    """Second-chance FIFO: a reference bit spares a block one rotation.

    The ring is an :class:`OrderedDict` whose head is the clock hand;
    :meth:`victim` rotates referenced blocks to the tail (clearing their
    bit) until an unreferenced head appears.  New and referenced blocks
    carry a set bit, so a full rotation degrades to FIFO exactly when
    every block was touched since the hand last passed.
    """

    __slots__ = ("_ring",)

    name = "clock"

    def __init__(self, capacity: int):
        self._ring: OrderedDict = OrderedDict()

    def touch(self, key) -> None:
        self._ring[key] = True

    def insert(self, key) -> None:
        self._ring[key] = True

    def victim(self):
        ring = self._ring
        while True:
            key = next(iter(ring))
            if ring[key]:
                ring[key] = False
                ring.move_to_end(key)
            else:
                return key

    def remove(self, key, evicted: bool = False) -> None:
        del self._ring[key]


#: LFU decay cadence, in accesses: every period halves a block's count
#: (applied lazily at its next reference), so bursts from last week
#: cannot pin a block forever.
LFU_AGING_PERIOD = 4096


class LfuPolicy(ReplacementPolicy):
    """Least-frequently-used with periodic aging and persistent counts.

    Frequency survives eviction (the "perfect LFU" variant): a block's
    priority — its decayed reference count, recency as the tie-break —
    is a pure function of the reference string, never of cache
    contents.  That makes LFU a priority-list stack algorithm, so the
    inclusion property (miss ratio non-increasing in cache size) holds;
    the property suite asserts it.  Aging halves a count once per
    :data:`LFU_AGING_PERIOD` accesses, applied lazily when the block is
    next referenced.

    Victim selection is a lazy heap: every reference pushes the block's
    fresh ``(count, last_access, key)`` entry; :meth:`victim` pops until
    an entry matches the block's current state and the block is
    resident.
    """

    __slots__ = ("_tick", "_count", "_last", "_period", "_resident", "_heap")

    name = "lfu"

    def __init__(self, capacity: int):
        self._tick = 0
        self._count: dict = {}
        self._last: dict = {}
        self._period: dict = {}
        self._resident: dict = {}
        self._heap: list = []

    def _bump(self, key) -> None:
        self._tick += 1
        tick = self._tick
        period = tick // LFU_AGING_PERIOD
        old_period = self._period.get(key, period)
        count = (self._count.get(key, 0) >> (period - old_period)) + 1
        self._count[key] = count
        self._period[key] = period
        self._last[key] = tick
        if key in self._resident:
            heappush(self._heap, (count, tick, key))

    def touch(self, key) -> None:
        self._bump(key)

    def insert(self, key) -> None:
        self._resident[key] = True
        self._bump(key)

    def victim(self):
        heap = self._heap
        while True:
            count, tick, key = heap[0]
            if (
                key in self._resident
                and self._count.get(key) == count
                and self._last.get(key) == tick
            ):
                return key
            heappop(heap)

    def remove(self, key, evicted: bool = False) -> None:
        # Counts persist on purpose (see the class docstring); only
        # residency ends.
        del self._resident[key]


class TwoQPolicy(ReplacementPolicy):
    """2Q (Johnson & Shasha, VLDB '94), the full two-queue version.

    First-time blocks enter the probationary FIFO ``A1in``; blocks
    evicted from it leave a ghost entry in the bounded FIFO ``A1out``;
    a reference that hits a ghost proves reuse and admits the block to
    the LRU main queue ``Am``.  One-shot scans therefore wash through
    ``A1in`` without ever displacing the hot set.  ``Kin``/``Kout`` use
    the paper's tuning (25% / 50% of capacity).
    """

    __slots__ = ("_kin", "_kout", "_a1in", "_a1out", "_am")

    name = "2q"

    def __init__(self, capacity: int):
        self._kin = max(1, capacity // 4)
        self._kout = max(1, capacity // 2)
        self._a1in: OrderedDict = OrderedDict()
        self._a1out: OrderedDict = OrderedDict()
        self._am: OrderedDict = OrderedDict()

    def touch(self, key) -> None:
        if key in self._am:
            self._am.move_to_end(key)
        # A1in hits deliberately do not reorder (the 2Q paper's rule:
        # correlated references within the probation window are noise).

    def insert(self, key) -> None:
        if key in self._a1out:
            del self._a1out[key]
            self._am[key] = True
        else:
            self._a1in[key] = True

    def victim(self):
        if self._a1in and (len(self._a1in) > self._kin or not self._am):
            return next(iter(self._a1in))
        return next(iter(self._am))

    def remove(self, key, evicted: bool = False) -> None:
        if key in self._a1in:
            del self._a1in[key]
            if evicted:
                self._a1out[key] = True
                while len(self._a1out) > self._kout:
                    self._a1out.popitem(last=False)
        else:
            del self._am[key]


class ArcPolicy(ReplacementPolicy):
    """ARC (Megiddo & Modha, FAST '03): adaptive recency/frequency split.

    Resident blocks live in ``T1`` (seen once) or ``T2`` (seen again);
    ghosts of recent evictions live in ``B1``/``B2``.  A ghost hit in
    ``B1`` means the recency half is too small and grows the target
    ``p``; a ``B2`` ghost hit shrinks it.  :meth:`victim` is the
    paper's REPLACE: evict from ``T1`` while it exceeds ``p``, else
    from ``T2``; the evictee's ghost goes to the matching B-list.

    The simulator core inserts first and evicts after (capacity is
    checked post-insert), so :meth:`insert` stashes what REPLACE needs
    — the pre-insert ``|T1|``, whether the access hit ``B2``, and
    whether the directory bound forces a ghost-free T1 ejection — and
    :meth:`victim`/:meth:`remove` consume it.
    """

    __slots__ = (
        "capacity",
        "_p",
        "_t1",
        "_t2",
        "_b1",
        "_b2",
        "_was_b2",
        "_new_in_t1",
        "_direct",
        "_victim_key",
        "_ghost_dest",
    )

    name = "arc"

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._p = 0
        self._t1: OrderedDict = OrderedDict()
        self._t2: OrderedDict = OrderedDict()
        self._b1: OrderedDict = OrderedDict()
        self._b2: OrderedDict = OrderedDict()
        self._was_b2 = False
        self._new_in_t1 = False
        self._direct = False
        self._victim_key = None
        self._ghost_dest = None

    def touch(self, key) -> None:
        if key in self._t1:
            del self._t1[key]
            self._t2[key] = True
        else:
            self._t2.move_to_end(key)

    def insert(self, key) -> None:
        c = self.capacity
        self._was_b2 = False
        self._direct = False
        if key in self._b1:
            self._p = min(
                c, self._p + max(1, len(self._b2) // max(1, len(self._b1)))
            )
            del self._b1[key]
            self._t2[key] = True
            self._new_in_t1 = False
        elif key in self._b2:
            self._was_b2 = True
            self._p = max(
                0, self._p - max(1, len(self._b1) // max(1, len(self._b2)))
            )
            del self._b2[key]
            self._t2[key] = True
            self._new_in_t1 = False
        else:
            l1 = len(self._t1) + len(self._b1)
            if l1 >= c:
                if self._b1:
                    self._b1.popitem(last=False)
                else:
                    # |T1| = c with no B1 ghosts: the paper ejects the
                    # T1 LRU outright, without ghosting it.
                    self._direct = True
            elif (
                l1 + len(self._t2) + len(self._b2) >= 2 * c and self._b2
            ):
                self._b2.popitem(last=False)
            self._t1[key] = True
            self._new_in_t1 = True

    def victim(self):
        t1 = self._t1
        t1_len = len(t1) - (1 if self._new_in_t1 else 0)
        if self._direct and t1:
            key = next(iter(t1))
            self._ghost_dest = None
        elif t1_len >= 1 and (
            t1_len > self._p or (self._was_b2 and t1_len == self._p)
        ):
            key = next(iter(t1))
            self._ghost_dest = "b1"
        elif self._t2:
            key = next(iter(self._t2))
            self._ghost_dest = "b2"
        else:
            key = next(iter(t1))
            self._ghost_dest = "b1"
        self._victim_key = key
        return key

    def remove(self, key, evicted: bool = False) -> None:
        if key in self._t1:
            del self._t1[key]
            src = "b1"
        else:
            del self._t2[key]
            src = "b2"
        if not evicted:
            return
        # The stashed REPLACE decision applies to the victim it chose;
        # an ensemble may evict some other resident key, which ghosts
        # by membership instead.
        dest = self._ghost_dest if key == self._victim_key else src
        if dest == "b1":
            self._b1[key] = True
        elif dest == "b2":
            self._b2[key] = True


#: Accesses per ensemble decision epoch, and the exploration rate
#: (epsilon = 1 / ENSEMBLE_EXPLORE_ONE_IN).
ENSEMBLE_WINDOW = 512
ENSEMBLE_EXPLORE_ONE_IN = 10

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class EnsemblePolicy(ReplacementPolicy):
    """Epsilon-greedy online selection over the base zoo.

    Every base policy tracks the full reference stream in parallel
    (identical membership, their own ordering state); victim choices
    delegate to the currently *active* arm.  Each
    :data:`ENSEMBLE_WINDOW` accesses, the controller credits the
    window's miss rate to the active arm and switches: usually to the
    arm with the best observed rate, with one-in-
    :data:`ENSEMBLE_EXPLORE_ONE_IN` epochs exploring a pseudo-random
    arm.  The explorer is a fixed-seed 64-bit LCG — no ``random``
    module, so replays are bit-for-bit reproducible (the determinism
    lints hold this package to that).
    """

    __slots__ = (
        "_arms",
        "_active",
        "_accesses",
        "_window_miss",
        "_arm_acc",
        "_arm_miss",
        "_rng_state",
    )

    name = "ensemble"

    def __init__(self, capacity: int):
        self._arms = (
            LruPolicy(capacity),
            FifoPolicy(capacity),
            ClockPolicy(capacity),
            LfuPolicy(capacity),
            TwoQPolicy(capacity),
            ArcPolicy(capacity),
        )
        self._active = 0
        self._accesses = 0
        self._window_miss = 0
        self._arm_acc = [0] * len(self._arms)
        self._arm_miss = [0] * len(self._arms)
        self._rng_state = 0x9E3779B97F4A7C15

    def _next_rand(self, bound: int) -> int:
        self._rng_state = (
            self._rng_state * _LCG_MULT + _LCG_INC
        ) & _LCG_MASK
        return (self._rng_state >> 33) % bound

    def _account(self, miss: bool) -> None:
        self._accesses += 1
        if miss:
            self._window_miss += 1
        if self._accesses % ENSEMBLE_WINDOW:
            return
        active = self._active
        self._arm_acc[active] += ENSEMBLE_WINDOW
        self._arm_miss[active] += self._window_miss
        self._window_miss = 0
        if self._next_rand(ENSEMBLE_EXPLORE_ONE_IN) == 0:
            self._active = self._next_rand(len(self._arms))
            return
        best = 0
        best_rate = None
        for i in range(len(self._arms)):
            acc = self._arm_acc[i]
            # Unused arms explore first (rate -1 beats any real rate).
            rate = self._arm_miss[i] / acc if acc else -1.0
            if best_rate is None or rate < best_rate:
                best, best_rate = i, rate
        self._active = best

    def touch(self, key) -> None:
        for arm in self._arms:
            arm.touch(key)
        self._account(miss=False)

    def insert(self, key) -> None:
        for arm in self._arms:
            arm.insert(key)
        self._account(miss=True)

    def victim(self):
        return self._arms[self._active].victim()

    def remove(self, key, evicted: bool = False) -> None:
        for arm in self._arms:
            arm.remove(key, evicted)


#: The zoo, by CLI/sweep name.
REPLACEMENT_POLICIES: dict[str, type] = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "clock": ClockPolicy,
    "lfu": LfuPolicy,
    "2q": TwoQPolicy,
    "arc": ArcPolicy,
    "ensemble": EnsemblePolicy,
}

REPLACEMENT_NAMES: tuple[str, ...] = tuple(REPLACEMENT_POLICIES)


def validate_replacement(name: str) -> str:
    """*name* if it is a known policy, else a ``ValueError`` naming all."""
    if name not in REPLACEMENT_POLICIES:
        known = ", ".join(REPLACEMENT_NAMES)
        raise ValueError(
            f"unknown replacement policy {name!r}; known: {known}"
        )
    return name


def make_replacement(name: str, capacity: int) -> ReplacementPolicy:
    """Construct the policy *name* for a *capacity*-block cache."""
    return REPLACEMENT_POLICIES[validate_replacement(name)](capacity)


#: Ambient replacement-policy default, mirroring the engine context
#: (:func:`~repro.trace.npview.engine_context`): the experiment entry
#: points take only a trace, so ``repro-fs experiment --policy`` travels
#: to the sweeps beneath them through this context.
_AMBIENT: ContextVar[str] = ContextVar("repro-replacement", default="lru")


def current_replacement() -> str:
    """The ambient replacement policy (``"lru"`` unless overridden)."""
    return _AMBIENT.get()


@contextmanager
def replacement_context(name: str):
    """Run a block with *name* as the ambient replacement policy."""
    token = _AMBIENT.set(validate_replacement(name))
    try:
        yield
    finally:
        _AMBIENT.reset(token)
