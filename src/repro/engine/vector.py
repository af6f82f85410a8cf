"""Event-driven array kernel for :class:`repro.engine.Machine`.

The scalar reference machine (:mod:`repro.engine.machine`) re-scans the
whole scheduling window every cycle and walks Python object graphs for
every source/MOB query.  This kernel replays the *same* machine over the
struct-of-arrays uop model of :mod:`repro.fastpath.uoparrays`: all
per-uop state lives in flat integer lanes, the scheduler is driven by
bucketed wake hints instead of a per-cycle window scan, squash and
replay are flag flips plus a re-hint, and idle stretches (mispredict
stalls, memory waits) are skipped in one jump instead of being ticked
through cycle by cycle.

Bit-identity with the reference backend is the contract (docs/engine.md
derives why the event order reproduces the scalar scan order exactly);
``tests/engine/test_vector.py`` pins it over the scheme × profile
matrix and :func:`checked_vectorized_run` enforces it at runtime
(:func:`repro.api.policy.shadow_check`) whenever the run's
:class:`~repro.api.ExecutionPolicy` arms the invariant oracle.

The kernel deliberately supports exactly the surface the figure
harnesses and the serve tier exercise — the six section-3.1 ordering
schemes, any hit/miss predictor, any branch predictor, forwarding,
``max_cycles`` truncation, and the aggregate observations
(``collect_occupancy`` and ``collect_stall_breakdown``, accumulated from
the kernel's own state).  Everything else (the event bus, timeline
recording, bank policies, prefetchers, saboteur MOBs/machines, the
alternative prior-art schemes) reports an :func:`unsupported_reason`
and the caller falls back to the scalar path.

Scheduling structures (why no global event heap): future wake hints
live in ``buckets`` (cycle → list of uop indices) with a small heap of
bucket cycles, so the common hint is a list append instead of a tuple
heap operation; the current cycle's candidates are a heap of bare
indices, popped smallest-first — index order is seq order, exactly the
reference window scan order.  A load refused by the ordering scheme is
re-hinted at the *exact* cycle its predicate flips
(:meth:`ArrayMOB.unblock_at`) when every store timing it depends on is
already known (store completion times are write-once, so the hint can
never be invalidated); otherwise it parks in ``blocked`` and every
STA/STD execution re-hints the set.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.engine.inflight import UNKNOWN, classify_collision
from repro.engine.mob import MemoryOrderBuffer
from repro.engine.ordering import VECTOR_SCHEME_TYPES
from repro.engine.results import SimResult
from repro.fastpath import HAS_NUMPY
from repro.trace.trace import Trace

_INF = float("inf")

#: UopClass values (kept as plain ints for the hot loop).
_LOAD, _STA, _STD, _BRANCH = 3, 4, 5, 6

#: The memory pool's index in ``caps`` (:data:`uoparrays.POOL_NAMES`).
_MEM = 1

#: Front-end stall causes, in the reference loop's precedence order.
_FRONTEND = ("frontend-branch", "frontend-trap", "frontend-window",
             "frontend-rob")


class VectorUnsupported(RuntimeError):
    """The vectorized kernel cannot express this run; callers fall back
    to the scalar reference path."""


class ArrayMOB:
    """The Memory Order Buffer over index lanes.

    Mirrors :class:`repro.engine.mob.MemoryOrderBuffer` exactly, but a
    "store record" is just the STA's index into the shared lanes (with
    an optional attached STD index); address/size/timing are read from
    the lanes, so queries are integer compares with no object traffic.

    ``seq``/``addr``/``size`` are the immutable trace lanes; ``dr`` is
    the kernel's live data-ready lane (``UNKNOWN`` until a uop
    executes), aliased so MOB queries always see current timing.
    Indices ascend with ``seq`` (``trace_arrays`` rejects
    non-increasing seqs), so "older than the load" is an index compare.
    """

    __slots__ = ("seq", "addr", "size", "dr", "stores", "std_of",
                 "_min_std_seq")

    def __init__(self, seq: List[int], addr: List[int], size: List[int],
                 dr: List[int]) -> None:
        self.seq = seq
        self.addr = addr
        self.size = size
        self.dr = dr
        #: STA indices, ascending (stores are inserted in rename order).
        self.stores: List[int] = []
        #: STA index -> attached STD index, in attach order.  STDs attach
        #: at rename, so the values ascend and the first is the oldest.
        self.std_of: Dict[int, int] = {}
        #: Smallest attached-STD seq (the only thing the prune keep-rule
        #: compares against), so :meth:`remove_retired` is O(1) until a
        #: store actually becomes prunable.
        self._min_std_seq: Optional[int] = None

    # -- lifecycle ------------------------------------------------------

    def insert_sta(self, sta: int) -> None:
        self.stores.append(sta)

    def attach_std(self, std: int, target_seq: int) -> None:
        for s in reversed(self.stores):
            if self.seq[s] == target_seq:
                # Re-inserted, so a re-attached STA keeps attach order.
                self.std_of.pop(s, None)
                self.std_of[s] = std
                if self._min_std_seq is None:
                    self._min_std_seq = self.seq[std]
                return
        raise KeyError(f"no STA with seq {target_seq} in the MOB")

    def remove_retired(self, seq_floor: int) -> None:
        """Drop stores whose STD retired before the oldest in-flight
        uop (identical keep-rule to the reference MOB)."""
        ms = self._min_std_seq
        if ms is None or ms >= seq_floor:
            return  # nothing prunable — the overwhelmingly common case
        stores, std_of, seq = self.stores, self.std_of, self.seq
        k = 0
        for s in stores:  # the prunable prefix: the usual case
            std = std_of.get(s)
            if std is None or seq[std] >= seq_floor:
                break
            del std_of[s]
            k += 1
        del stores[:k]
        ms = seq[next(iter(std_of.values()))] if std_of else None
        if ms is not None and ms < seq_floor:
            # A prunable store sits behind a kept one (an older store's
            # STD is still in flight): filter the rest.
            keep = []
            for s in stores:
                std = std_of.get(s)
                if std is not None and seq[std] < seq_floor:
                    del std_of[s]
                else:
                    keep.append(s)
            self.stores = keep
            ms = seq[next(iter(std_of.values()))] if std_of else None
        self._min_std_seq = ms

    def __len__(self) -> int:
        return len(self.stores)

    # -- timing predicates ---------------------------------------------

    def _address_known(self, s: int, now: int) -> bool:
        t = self.dr[s]
        return t != UNKNOWN and t <= now

    def _data_done(self, s: int, now: int) -> bool:
        std = self.std_of.get(s)
        if std is None:
            return False
        t = self.dr[std]
        return t != UNKNOWN and t <= now

    def _complete(self, s: int, now: int) -> bool:
        return self._address_known(s, now) and self._data_done(s, now)

    # -- scheme queries -------------------------------------------------

    def has_unknown_sta(self, load: int, now: int) -> bool:
        dr = self.dr
        for s in self.stores:
            if s > load:
                break
            t = dr[s]
            if t == UNKNOWN or t > now:
                return True
        return False

    def all_older_complete(self, load: int, now: int) -> bool:
        for s in self.stores:
            if s > load:
                break
            if not self._complete(s, now):
                return False
        return True

    def all_older_stds_done(self, load: int, now: int) -> bool:
        for s in self.stores:
            if s > load:
                break
            if not self._data_done(s, now):
                return False
        return True

    def complete_beyond_distance(self, load: int, now: int,
                                 distance: int) -> bool:
        d = 0
        for s in reversed(self.stores):
            if s > load:
                continue
            d += 1
            if d >= distance and not self._complete(s, now):
                return False
        return True

    def colliding_store(self, load: int,
                        now: int) -> Tuple[int, Optional[int]]:
        """Nearest older overlapping not-complete store.

        Returns ``(sta_index, distance)`` or ``(-1, None)`` — the index
        form of the reference MOB's oracle query.
        """
        addr, size, dr, std_of = self.addr, self.size, self.dr, self.std_of
        la = addr[load]
        le = la + size[load]
        d = 0
        for s in reversed(self.stores):
            if s > load:
                continue
            d += 1
            a = addr[s]
            if a < le and la < a + size[s]:
                # Incomplete: address or data not yet there.
                t = dr[s]
                if t == UNKNOWN or t > now:
                    return s, d
                std = std_of.get(s)
                if std is None:
                    return s, d
                t = dr[std]
                if t == UNKNOWN or t > now:
                    return s, d
        return -1, None

    def forwarding_store(self, load: int, now: int) -> int:
        """Nearest older overlapping *completed* store, or ``-1``."""
        addr, size, dr, std_of = self.addr, self.size, self.dr, self.std_of
        la = addr[load]
        le = la + size[load]
        for s in reversed(self.stores):
            if s > load:
                continue
            a = addr[s]
            if a < le and la < a + size[s]:
                t = dr[s]
                if t == UNKNOWN or t > now:
                    continue
                std = std_of.get(s)
                if std is None:
                    continue
                t = dr[std]
                if t != UNKNOWN and t <= now:
                    return s
        return -1

    # -- event support --------------------------------------------------

    def unblock_at(self, load: int, now: int, kind: int,
                   predicted_colliding: bool,
                   predicted_distance: Optional[int]) -> Optional[int]:
        """The exact future cycle scheme ``kind``'s predicate flips
        true for a blocked load — or ``None`` when it depends on a
        store event that has not executed yet (every STA/STD execution
        re-hints such loads).

        Each predicate is a conjunction of "store timing ≤ now"
        conditions over a fixed set of older stores, so it flips
        exactly at the *max* of the required completion times.  Store
        completion times are write-once (stores never replay), and
        pruning only ever removes fully-complete stores, so a hint
        computed from all-known timings can never be invalidated.
        """
        dr = self.dr
        std_of = self.std_of
        best = now
        if kind == 0 or kind == 2:
            # All older STA addresses known ...
            for s in self.stores:
                if s > load:
                    break
                t = dr[s]
                if t == UNKNOWN:
                    return None
                if t > best:
                    best = t
            # ... and, for a predicted-colliding postponing load, all
            # older STDs delivered.
            if kind == 2 and predicted_colliding:
                for s in self.stores:
                    if s > load:
                        break
                    std = std_of.get(s)
                    if std is None:
                        return None
                    t = dr[std]
                    if t == UNKNOWN:
                        return None
                    if t > best:
                        best = t
        elif kind == 3 or kind == 4:
            if kind == 4 and predicted_distance is not None:
                # Exclusive with a learned distance: only stores at
                # distance >= d (nearest-first) must be complete.
                d = 0
                for s in reversed(self.stores):
                    if s > load:
                        continue
                    d += 1
                    if d < predicted_distance:
                        continue
                    t = dr[s]
                    if t == UNKNOWN:
                        return None
                    if t > best:
                        best = t
                    std = std_of.get(s)
                    if std is None:
                        return None
                    t = dr[std]
                    if t == UNKNOWN:
                        return None
                    if t > best:
                        best = t
            else:
                # Inclusive (or distance-less exclusive): every older
                # store fully complete.
                for s in self.stores:
                    if s > load:
                        break
                    t = dr[s]
                    if t == UNKNOWN:
                        return None
                    if t > best:
                        best = t
                    std = std_of.get(s)
                    if std is None:
                        return None
                    t = dr[std]
                    if t == UNKNOWN:
                        return None
                    if t > best:
                        best = t
        else:
            # Perfect: every *overlapping* older store complete.
            addr, size = self.addr, self.size
            la, lsz = addr[load], size[load]
            for s in self.stores:
                if s > load:
                    break
                if not (addr[s] < la + lsz and la < addr[s] + size[s]):
                    continue
                t = dr[s]
                if t == UNKNOWN:
                    return None
                if t > best:
                    best = t
                std = std_of.get(s)
                if std is None:
                    return None
                t = dr[std]
                if t == UNKNOWN:
                    return None
                if t > best:
                    best = t
        return best if best > now else now + 1

    def tracked(self) -> List[Tuple[int, Optional[int]]]:
        """``[(sta_seq, std_seq|None), ...]`` oldest-first — the
        balance view the property tests compare against the reference
        MOB's :meth:`~repro.engine.mob.MemoryOrderBuffer.tracked`."""
        seq = self.seq
        return [(seq[s],
                 seq[self.std_of[s]] if s in self.std_of else None)
                for s in self.stores]


def unsupported_reason(machine) -> Optional[str]:
    """Why this machine cannot use the vectorized kernel (or ``None``).

    The gates are deliberately exact-type checks: fault-injection
    subclasses (saboteur machines, sabotaged MOBs, lying schemes) must
    keep their scalar behaviour so the invariant oracle can catch them.
    """
    from repro.engine.machine import Machine

    if not HAS_NUMPY:
        return "numpy unavailable"
    if type(machine) is not Machine:
        return f"machine subclass {type(machine).__name__}"
    if machine.obs is not None:
        return "event bus attached"
    if machine.record_timeline:
        return "timeline recording enabled"
    if machine.bank_policy is not None:
        return f"bank policy {machine.bank_policy!r}"
    if machine.prefetcher is not None:
        return "prefetcher attached"
    if machine.mob_factory is not MemoryOrderBuffer:
        return f"custom MOB {machine.mob_factory!r}"
    if type(machine.scheme) not in VECTOR_SCHEME_TYPES:
        return f"unsupported scheme {type(machine.scheme).__name__}"
    return None


def run_vectorized(machine, trace: Trace,
                   max_cycles: Optional[int] = None) -> SimResult:
    """Replay ``trace`` on ``machine`` through the array kernel.

    Produces a :class:`SimResult` bit-identical to
    ``machine.run(..., policy=ExecutionPolicy(backend="reference"))`` —
    including truncation behaviour: the same ``RuntimeError`` (message
    and all) is raised when the simulation exceeds ``max_cycles``, and
    an empty trace finishes at cycle 0 without raising even for
    negative ceilings.

    Raises :class:`VectorUnsupported` (before touching any machine
    state) when the trace cannot be expressed in the array model.
    """
    from repro.fastpath.uoparrays import UnsupportedTrace, trace_arrays

    try:
        arrays = trace_arrays(trace)
    except UnsupportedTrace as exc:
        raise VectorUnsupported(str(exc)) from exc

    cfg = machine.config
    lat = cfg.latency
    scheme = machine.scheme
    kind = VECTOR_SCHEME_TYPES.index(type(scheme))
    cht = scheme.cht if kind in (2, 3, 4) else None
    hmp = machine.hmp
    hierarchy = machine.hierarchy
    bp = machine.branch_predictor
    result = SimResult(trace_name=trace.name, scheme=scheme.name)

    n = arrays.n
    if n == 0:
        # Identical to the reference loop never being entered.
        result.cycles = 0
        result.l1_miss_rate = hierarchy.l1_miss_rate
        return result

    ceiling = (max_cycles if max_cycles is not None
               else 60 * len(trace) + 100_000)
    if ceiling < 0:
        # The reference loop raises at its very first top-of-cycle
        # check, before any uop is renamed.
        raise RuntimeError(
            f"simulation exceeded {ceiling} cycles on "
            f"{trace.name!r} (0 uops stuck in flight)")

    # -- immutable lanes (plain Python ints for the hot loop) ----------
    seq = arrays.seq_l
    pc = arrays.pc_l
    uclass = arrays.uclass_l
    addr = arrays.addr_l
    sta_seq = arrays.sta_seq_l
    taken = arrays.taken_l
    misp_lane = arrays.mispredicted_l
    pool = arrays.pool_l
    prods = arrays.prods
    consumers = arrays.consumers
    line_of = (arrays.addr // cfg.memory.l1d.line_bytes).tolist()
    lat_table = (lat.int_latency, lat.fp_latency, lat.complex_latency,
                 -1, lat.agu_latency, lat.agu_latency,
                 lat.branch_latency, 0)
    fixed = [lat_table[u] for u in uclass]

    # -- latencies / widths --------------------------------------------
    agu = lat.agu_latency
    resched = lat.reschedule_delay
    bmp = lat.branch_mispredict_penalty
    coll_pen = lat.collision_penalty
    hid = lat.hit_indication_delay
    fwd_lat = lat.forward_latency
    l1_lat = cfg.memory.l1_latency
    fetch_w = cfg.fetch_width
    retire_w = cfg.retire_width
    rpool = cfg.register_pool
    wsize = cfg.window_size
    units = cfg.units
    caps_template = (units.n_int, units.n_mem, units.n_fp,
                     units.n_complex)
    capsum = sum(caps_template)

    # -- observation (occupancy / stall breakdown) ---------------------
    # One local flag guards every bookkeeping site, so an unobserved
    # run pays a boolean test and nothing else.  docs/engine.md
    # ("Observed runs on the kernel") derives why these totals equal
    # the reference loop's per-cycle samples.
    observe = machine.collect_occupancy or machine.collect_stall_breakdown
    occ_n = [0] * (rpool + 1) if observe else None  # by window count
    iw_n = [0] * (capsum + 1) if observe else None  # by issue slots used
    wl = ([], [], [], [])  # in-window indices per pool, ascending
    ords: Dict[int, int] = {}  # ordering-stalled load -> stall start
    fe = [0, 0, 0, 0]      # front-end stall cycles, _FRONTEND order
    n_stalled = 0          # window uop-cycles not issued (all causes)
    port_n = 0
    ord_n = 0

    # -- mutable per-uop state lanes -----------------------------------
    U = UNKNOWN
    dr = [U] * n           # cycle the value actually exists
    ann = [U] * n          # cycle dependents are told to wake
    floor_ = [0] * n       # earliest re-issue after a squash
    issued = bytearray(n)
    in_window = bytearray(n)
    pending = bytearray(n)    # load waiting on a hidden violation
    collided = bytearray(n)
    conflicting = [-1] * n    # -1 unset / 0 / 1 (Figure 1 ground truth)
    would_collide = [-1] * n
    coll_dist: List[Optional[int]] = [None] * n
    pred_coll = bytearray(n)  # CHT lookup at rename
    pred_dist: List[Optional[int]] = [None] * n
    predicted_hit = [-1] * n  # -1 unset / 0 / 1 (HMP at first access)

    rob = deque()
    window_count = 0
    violations: List[Tuple[int, int]] = []  # (load idx, colliding STA idx)
    blocked = set()  # scheme-refused loads awaiting a store *execution*
    buckets: Dict[int, List[int]] = {}  # future cycle -> woken indices
    btimes: List[int] = []   # heap of bucket cycles (pushed once each)
    cyc: List[int] = []      # this cycle's candidates (a heap of indices)
    amob = ArrayMOB(seq, addr, arrays.size_l, dr)
    unblock_at = amob.unblock_at
    has_unknown_sta = amob.has_unknown_sta
    colliding_store = amob.colliding_store
    hload = hierarchy.load
    predict_hit = hmp.predict_hit
    hmp_update = hmp.observed_update
    bget = buckets.get

    fetch_pos = 0
    now = 0
    mob_floor = None
    trap_stall_until = 0
    stall_branch = -1

    # Class tallies, folded into the result once at the end: hit-miss
    # by (actual hit, predicted hit), Figure 1 by (conflicting, would
    # collide, predicted colliding), each flag one bit of the index.
    hm_n = [0] * 4
    lc_n = [0] * 8

    while True:
        # Wake hints due this cycle become issue candidates; candidates
        # are processed smallest-index-first, which is seq order — the
        # exact order the reference scan visits the window.
        while btimes and btimes[0] <= now:
            lst = buckets.pop(heappop(btimes))
            if cyc:
                for i in lst:
                    heappush(cyc, i)
            else:
                heapify(lst)
                cyc = lst

        # -- phase 0: resolve memory-order violations ------------------
        if violations:
            still = []
            for li, si in violations:
                sc = dr[si]
                if sc == U or sc > now:
                    still.append((li, si))
                    continue
                pending[li] = 0
                issued[li] = 0
                dr[li] = U
                ann[li] = U
                fl = now + resched
                floor_[li] = fl
                in_window[li] = 1
                window_count += 1
                if observe:
                    n_stalled += 1
                    insort(wl[_MEM], li)
                    if ords:
                        # The retracted announcement reopens the load's
                        # consumers' operand wait.
                        ord_n += _reopen(ords, consumers[li], now)
                if fl <= now:
                    heappush(cyc, li)
                else:
                    b = bget(fl)
                    if b is None:
                        buckets[fl] = [li]
                        heappush(btimes, fl)
                    else:
                        b.append(li)
                t = now + bmp
                if t > trap_stall_until:
                    trap_stall_until = t
            violations = still

        # -- phase 1: retire -------------------------------------------
        retired = 0
        while rob and retired < retire_w:
            h = rob[0]
            t = dr[h]
            if pending[h] or t == U or t > now:
                break
            rob.popleft()
            retired += 1
            result.retired_uops += 1
            uc = uclass[h]
            if uc == _LOAD:
                result.retired_loads += 1
                ci = conflicting[h]
                if ci != -1:
                    wc = would_collide[h]
                    lc_n[ci << 2 | wc << 1 | pred_coll[h]] += 1
                    if cht is not None:
                        cht.observed_train(pc[h], wc == 1, coll_dist[h])
        if rob:
            fl_seq = seq[rob[0]]
        elif fetch_pos >= n:
            break  # everything retired and the trace is exhausted
        else:
            fl_seq = seq[fetch_pos]
        if fl_seq != mob_floor:
            # Stores only become prunable when the retirement floor
            # moves (a freshly attached STD is always younger than the
            # floor), so unchanged-floor cycles skip the MOB sweep.
            mob_floor = fl_seq
            amob.remove_retired(fl_seq)

        # -- phase 2: issue --------------------------------------------
        caps = list(caps_template)
        while cyc:
            i = heappop(cyc)
            if issued[i] or not in_window[i]:
                continue  # stale hint (already issued / not renamed)
            p = pool[i]
            if p < 0:  # NOP: complete instantly, no unit, no checks
                dr[i] = ann[i] = now
                issued[i] = 1
                in_window[i] = 0
                window_count -= 1
                for c in consumers[i]:
                    if not issued[c] and in_window[c]:
                        heappush(cyc, c)
                continue
            if caps[p] <= 0:
                t = now + 1  # pool full: retry next cycle
                b = bget(t)
                if b is None:
                    buckets[t] = [i]
                    heappush(btimes, t)
                else:
                    b.append(i)
                continue
            fl = floor_[i]
            if now < fl:
                b = bget(fl)
                if b is None:
                    buckets[fl] = [i]
                    heappush(btimes, fl)
                else:
                    b.append(i)
                continue
            wake_at = now
            park = False
            ps = prods[i]
            if ps:
                for pr in ps:
                    a = ann[pr]
                    if a == U:
                        park = True  # producer re-wakes us at execute
                        break
                    if a > wake_at:
                        wake_at = a
            if park:
                continue
            if wake_at > now:
                b = bget(wake_at)
                if b is None:
                    buckets[wake_at] = [i]
                    heappush(btimes, wake_at)
                else:
                    b.append(i)
                continue

            uc = uclass[i]
            if uc == _LOAD:
                # The MOB's answers for this attempt, each asked at most
                # once: nothing between here and execute moves a store's
                # timing (-2 = not asked yet).
                unknown = coll = -2
                if conflicting[i] == -1:
                    # First dispatch opportunity: record the Figure 1
                    # ground truth (identical timing to the scalar
                    # _classify_load call site).
                    unknown = conflicting[i] = (
                        1 if has_unknown_sta(i, now) else 0)
                    coll, coll_dist[i] = colliding_store(i, now)
                    would_collide[i] = 1 if coll >= 0 else 0
                if kind == 1:          # opportunistic
                    ok = True
                elif kind == 0:        # traditional
                    if unknown == -2:
                        unknown = has_unknown_sta(i, now)
                    ok = not unknown
                elif kind == 2:        # postponing
                    if unknown == -2:
                        unknown = has_unknown_sta(i, now)
                    if unknown:
                        ok = False
                    elif pred_coll[i]:
                        ok = amob.all_older_stds_done(i, now)
                    else:
                        ok = True
                elif kind == 3:        # inclusive
                    ok = (not pred_coll[i]
                          or amob.all_older_complete(i, now))
                elif kind == 4:        # exclusive
                    if not pred_coll[i]:
                        ok = True
                    elif pred_dist[i] is None:
                        ok = amob.all_older_complete(i, now)
                    else:
                        ok = amob.complete_beyond_distance(
                            i, now, pred_dist[i])
                else:                  # perfect (oracle)
                    if coll == -2:
                        coll = colliding_store(i, now)[0]
                    ok = coll < 0
                if not ok:
                    if observe:
                        ords.setdefault(i, now)
                    w = unblock_at(i, now, kind, pred_coll[i] == 1,
                                   pred_dist[i])
                    if w is None:
                        # Depends on a store that has not executed:
                        # park; every STA/STD execution re-hints us.
                        blocked.add(i)
                    else:
                        # All required store timings are known, so the
                        # predicate flips exactly at w — one final hint.
                        blocked.discard(i)
                        b = bget(w)
                        if b is None:
                            buckets[w] = [i]
                            heappush(btimes, w)
                        else:
                            b.append(i)
                    continue
                blocked.discard(i)
                if ords and i in ords:
                    ord_n += now - ords.pop(i)

            # Verify the producers' data actually exists (speculative
            # wakeup may have been optimistic).
            actual = 0
            if ps:
                for pr in ps:
                    t = dr[pr]
                    if t == U:
                        actual = U
                        break
                    if t > actual:
                        actual = t
            caps[p] -= 1
            if observe and not caps[p]:
                # Pool p filled at scan index i: the reference counts
                # every younger window uop of the pool as a port stall
                # this cycle, candidate or not.
                # Ordering-stalled loads among them hand this cycle
                # back from their open ordering stretch.
                w = wl[p]
                port_n += len(w) - bisect_right(w, i)
                if ords and p == _MEM:
                    ord_n -= sum(1 for j in ords if j > i)
            if actual == U or actual > now:
                result.squashed_issues += 1
                fl = (actual if actual != U else now + 1) + resched
                floor_[i] = fl
                b = bget(fl)
                if b is None:
                    buckets[fl] = [i]
                    heappush(btimes, fl)
                else:
                    b.append(i)
                continue

            # -- execute ------------------------------------------------
            issued[i] = 1
            in_window[i] = 0
            window_count -= 1
            if observe:
                wl[p].remove(i)

            if uc == _LOAD:
                t_addr = now + agu
                s = coll if coll != -2 else colliding_store(i, now)[0]
                if s >= 0:
                    t = dr[s]
                    if t != U and t <= now:
                        # Visible conflict: stay in the window and
                        # re-dispatch until the store's data exists.
                        if not collided[i]:
                            collided[i] = 1
                            result.collision_penalties += 1
                            v = t_addr + l1_lat
                            ann[i] = v
                            for c in consumers[i]:
                                if not issued[c] and in_window[c]:
                                    if v <= now:
                                        heappush(cyc, c)
                                    else:
                                        b = bget(v)
                                        if b is None:
                                            buckets[v] = [c]
                                            heappush(btimes, v)
                                        else:
                                            b.append(c)
                        issued[i] = 0
                        in_window[i] = 1
                        window_count += 1
                        if observe:
                            insort(wl[p], i)
                        result.squashed_issues += 1
                        fl = now + agu + resched
                        if fl <= now:
                            # Zero AGU+resched: the reference scan has
                            # passed this load, so its next visit is
                            # next cycle — the floor must say so too, or
                            # a second hint already queued for this
                            # cycle would re-dispatch it now.
                            fl = now + 1
                        floor_[i] = fl
                        b = bget(fl)
                        if b is None:
                            buckets[fl] = [i]
                            heappush(btimes, fl)
                        else:
                            b.append(i)
                        continue
                    # Hidden violation: the match is invisible (the
                    # STA's address is unknown); execute with stale
                    # data and replay when the STA resolves.
                    if not collided[i]:
                        collided[i] = 1
                        result.collision_penalties += 1
                    outcome = hload(addr[i], t_addr)
                    base = t_addr + outcome.latency
                    if predicted_hit[i] == -1:
                        ph = 1 if predict_hit(pc[i], line_of[i], now) else 0
                        predicted_hit[i] = ph
                        hm_n[outcome.l1_hit << 1 | ph] += 1
                        hmp_update(pc[i], outcome.l1_hit, line_of[i], now)
                    pending[i] = 1
                    dr[i] = U
                    ann[i] = base  # dependents wake, then squash
                    if ords and base > now:
                        ord_n += _reopen(ords, consumers[i],
                                         now + 1 if caps[p] <= 0 else now)
                    violations.append((i, s))
                    for c in consumers[i]:
                        if not issued[c] and in_window[c]:
                            if base <= now:
                                heappush(cyc, c)
                            else:
                                b = bget(base)
                                if b is None:
                                    buckets[base] = [c]
                                    heappush(btimes, base)
                                else:
                                    b.append(c)
                    continue

                fwd = (amob.forwarding_store(i, now)
                       if fwd_lat is not None else -1)
                if fwd >= 0:
                    result.forwarded_loads += 1
                    done = now + fwd_lat
                    if collided[i]:
                        done += coll_pen
                    if predicted_hit[i] == -1:
                        ph = 1 if predict_hit(pc[i], line_of[i], now) else 0
                        predicted_hit[i] = ph
                        hm_n[2 | ph] += 1
                        hmp_update(pc[i], True, line_of[i], now)
                    dr[i] = ann[i] = done
                    if ords and done > now:
                        ord_n += _reopen(ords, consumers[i],
                                         now + 1 if caps[p] <= 0 else now)
                    for c in consumers[i]:
                        if not issued[c] and in_window[c]:
                            if done <= now:
                                heappush(cyc, c)
                            else:
                                b = bget(done)
                                if b is None:
                                    buckets[done] = [c]
                                    heappush(btimes, done)
                                else:
                                    b.append(c)
                    continue

                outcome = hload(addr[i], t_addr)
                l1_hit = outcome.l1_hit
                base = t_addr + outcome.latency
                if collided[i]:
                    base += coll_pen
                ph = predicted_hit[i]
                if ph == -1:
                    ph = 1 if predict_hit(pc[i], line_of[i], now) else 0
                    predicted_hit[i] = ph
                    hm_n[l1_hit << 1 | ph] += 1
                    hmp_update(pc[i], l1_hit, line_of[i], now)
                dr[i] = base
                if ph == 1 and not l1_hit:
                    v = t_addr + l1_lat      # AM-PH: optimistic wakeup
                elif ph == 0 and l1_hit:
                    v = base + hid           # AH-PM: wait for indication
                else:
                    v = base
                ann[i] = v
                if ords and v > now:
                    ord_n += _reopen(ords, consumers[i],
                                     now + 1 if caps[p] <= 0 else now)
                for c in consumers[i]:
                    if not issued[c] and in_window[c]:
                        if v <= now:
                            heappush(cyc, c)
                        else:
                            b = bget(v)
                            if b is None:
                                buckets[v] = [c]
                                heappush(btimes, v)
                            else:
                                b.append(c)
                continue

            if uc == _STA:
                done = now + agu
                dr[i] = ann[i] = done
                hierarchy.store(addr[i], done)
            else:
                done = now + fixed[i]
                dr[i] = ann[i] = done
            if (uc == _STA or uc == _STD) and blocked:
                # A store timing threshold will be crossed at `done`:
                # every parked scheme-blocked load re-checks then.
                # (For a zero-latency store, only loads *younger in
                # the scan than this store* may dispatch this cycle.)
                if done > now:
                    b = bget(done)
                    if b is None:
                        buckets[done] = list(blocked)
                        heappush(btimes, done)
                    else:
                        b.extend(blocked)
                else:
                    t = now + 1
                    for bl in blocked:
                        if bl > i:
                            heappush(cyc, bl)
                        else:
                            b = bget(t)
                            if b is None:
                                buckets[t] = [bl]
                                heappush(btimes, t)
                            else:
                                b.append(bl)
            for c in consumers[i]:
                if not issued[c] and in_window[c]:
                    if done <= now:
                        heappush(cyc, c)
                    else:
                        b = bget(done)
                        if b is None:
                            buckets[done] = [c]
                            heappush(btimes, done)
                        else:
                            b.append(c)

        # -- phase 3: rename -------------------------------------------
        if stall_branch >= 0:
            t = dr[stall_branch]
            if (t != U and not pending[stall_branch]
                    and now >= t + bmp):
                stall_branch = -1
        if observe:
            # This cycle's samples: window and slots after issue, and
            # the front-end cause the reference records before rename.
            used = capsum - caps[0] - caps[1] - caps[2] - caps[3]
            n_stalled -= used
            occ_n[window_count] += 1
            iw_n[used] += 1
            if fetch_pos < n:
                if stall_branch >= 0:
                    fe[0] += 1
                elif now < trap_stall_until:
                    fe[1] += 1
                elif window_count >= wsize:
                    fe[2] += 1
                elif len(rob) >= rpool:
                    fe[3] += 1
        if stall_branch < 0 and now >= trap_stall_until:
            renamed = 0
            while (renamed < fetch_w and fetch_pos < n
                   and len(rob) < rpool and window_count < wsize):
                i = fetch_pos
                fetch_pos += 1
                renamed += 1
                rob.append(i)
                in_window[i] = 1
                window_count += 1
                if observe and pool[i] >= 0:
                    wl[pool[i]].append(i)
                uc = uclass[i]
                mispredicted = False
                if uc == _STA:
                    amob.insert_sta(i)
                elif uc == _STD:
                    amob.attach_std(i, sta_seq[i])
                elif uc == _LOAD:
                    if cht is not None:
                        prediction = cht.lookup(pc[i])
                        pred_coll[i] = 1 if prediction.colliding else 0
                        pred_dist[i] = prediction.distance
                elif uc == _BRANCH:
                    result.branches += 1
                    mispredicted = bool(misp_lane[i])
                    if bp is not None:
                        prediction = bp.predict(pc[i])
                        tk = bool(taken[i])
                        bp.observed_update(pc[i], tk, now=now)
                        mispredicted = bool(prediction.outcome) != tk
                # Issue hint: the uop is first visible to the issue
                # scan next cycle; NOPs need no operands, everything
                # else waits for its producers' announcements (parked
                # uops are re-woken when the producer executes).
                wake_at = now + 1
                park = False
                ps = prods[i]
                if ps and pool[i] >= 0:
                    for pr in ps:
                        a = ann[pr]
                        if a == U:
                            park = True
                            break
                        if a > wake_at:
                            wake_at = a
                if not park:
                    b = bget(wake_at)
                    if b is None:
                        buckets[wake_at] = [i]
                        heappush(btimes, wake_at)
                    else:
                        b.append(i)
                if mispredicted:
                    result.branch_mispredicts += 1
                    stall_branch = i
                    break

        # -- advance: jump to the next cycle anything can happen -------
        # Every state change is driven by one of: the ROB head becoming
        # retirable, a wake hint, a violation resolving, a mispredicted
        # branch releasing the front end, or rename being possible.  No
        # candidate below `ceiling` reproduces the reference machine's
        # idle spin into its top-of-loop RuntimeError.
        nxt = _INF
        if rob:
            h = rob[0]
            if not pending[h] and dr[h] != U:
                t = dr[h]
                nxt = t if t > now else now + 1
        if btimes:
            t = btimes[0]
            if t <= now:
                t = now + 1
            if t < nxt:
                nxt = t
        if violations:
            for li, si in violations:
                t = dr[si]
                if t != U:
                    if t <= now:
                        t = now + 1
                    if t < nxt:
                        nxt = t
        if stall_branch >= 0:
            t = dr[stall_branch]
            if t != U and not pending[stall_branch]:
                t += bmp
                if t <= now:
                    t = now + 1
                if t < nxt:
                    nxt = t
        elif (fetch_pos < n and len(rob) < rpool
                and window_count < wsize):
            t = trap_stall_until if trap_stall_until > now else now + 1
            if t < nxt:
                nxt = t
        if nxt > ceiling:
            raise RuntimeError(
                f"simulation exceeded {ceiling} cycles on "
                f"{trace.name!r} ({len(rob)} uops stuck in flight)")
        if observe:
            # This window is also the next visited cycle's window at
            # issue start (replays reinserted there add to it).  The
            # skipped cycles each repeat this post-rename state with
            # nothing issued: the same window, no slots used, every
            # window uop stalled on its standing cause, and the same
            # front-end cause — except that a trap stall may expire
            # inside the stretch.
            n_stalled += window_count * (nxt - now)
            skip = nxt - now - 1
            occ_n[window_count] += skip
            iw_n[0] += skip
            if skip and fetch_pos < n:
                if stall_branch >= 0:
                    fe[0] += skip
                else:
                    t = trap_stall_until - now - 1
                    if t > 0:
                        t = min(t, skip)
                        fe[1] += t
                        skip -= t
                    if window_count >= wsize:
                        fe[2] += skip
                    elif len(rob) >= rpool:
                        fe[3] += skip
        now = nxt

    result.cycles = now
    result.l1_miss_rate = hierarchy.l1_miss_rate
    for key, count in enumerate(hm_n):
        if count:
            result.hitmiss.record(key >> 1 == 1, key & 1 == 1, count)
    for key, count in enumerate(lc_n):
        if count:
            result.load_classes[classify_collision(
                key >> 2 == 1, key >> 1 & 1 == 1, key & 1 == 1)] += count
    if machine.collect_occupancy:
        for key, count in enumerate(occ_n):
            if count:
                result.window_occupancy.add(key, count)
        for key, count in enumerate(iw_n):
            if count:
                result.issue_width_used.add(key, count)
    if machine.collect_stall_breakdown:
        # Every NOP is a window uop for exactly one scan and never
        # stalls; whatever is neither port nor ordering is operands.
        n_stalled -= pool.count(-1)
        operands = n_stalled - port_n - ord_n
        counts = (("port", port_n), ("operands", operands),
                  ("ordering", ord_n)) + tuple(zip(_FRONTEND, fe))
        result.stall_breakdown.update(
            (name, count) for name, count in counts if count)
    return result


def _reopen(ords: Dict[int, int], consumers, end: int) -> int:
    """A producer's announcement just moved past the current cycle:
    its ordering-stalled consumers wait on operands from ``end`` on.
    Returns the ordering cycles their closed stretches accrued."""
    charged = 0
    for c in consumers:
        since = ords.pop(c, None)
        if since is not None:
            charged += end - since
    return charged


def checked_vectorized_run(machine, trace: Trace,
                           max_cycles: Optional[int] = None) -> SimResult:
    """:func:`run_vectorized` under the shadow oracle.

    The kernel emits no events, so :func:`repro.api.policy.shadow_check`
    replays the trace on a deep copy of the machine through the scalar
    path under the full invariant oracle instead; the kernel's
    ``SimResult.to_dict()`` and post-run machine state must equal the
    reference's, or :class:`repro.api.policy.ShadowMismatch` is raised.
    """
    from repro.api.policy import shadow_check
    from repro.fastpath.uoparrays import UnsupportedTrace, trace_arrays
    from repro.robust.invariants import checked_run

    try:
        trace_arrays(trace)  # gate before the shadow runs
    except UnsupportedTrace as exc:
        raise VectorUnsupported(str(exc)) from exc
    return shadow_check(
        machine, lambda m: run_vectorized(m, trace, max_cycles=max_cycles),
        lambda m: checked_run(m, trace, max_cycles=max_cycles)[0],
        f"vectorized engine on {trace.name!r} ({machine.scheme.name})",
        observe=SimResult.to_dict)
