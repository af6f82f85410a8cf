"""Synthetic event grids for predictor replay.

Seeded (pc, outcome) / (pc, address) workload-grid synthesis used by
the differential-equivalence harness and the predictor-only sweeps in
``benchmarks/bench_throughput.py``.  The grids are deliberately cheap,
deterministic, and adversarial (aliasing PCs, bursty outcomes) — they
exist to exercise predictor state machines, not to model a program.
"""

from __future__ import annotations

import random
from typing import List, Tuple


def synthesize_outcome_grid(seed: int, n_events: int, n_pcs: int = 97,
                            flip: float = 0.35) -> Tuple[List[int], List[bool]]:
    """A seeded (pc, outcome) stream for predictor replay.

    PCs cycle with jumps so table indices alias; outcomes are a
    per-PC persistent bit with seeded flips, which gives every counter
    both reinforcement runs and direction changes.
    """
    rng = random.Random(seed)
    pcs: List[int] = []
    outcomes: List[bool] = []
    state = [rng.random() < 0.5 for _ in range(n_pcs)]
    site = 0
    for _ in range(n_events):
        if rng.random() < 0.15:
            site = rng.randrange(n_pcs)
        else:
            site = (site + 1) % n_pcs
        if rng.random() < flip:
            state[site] = not state[site]
        pcs.append(0x4000 + site * 4 + (site % 7) * 0x1000)
        outcomes.append(state[site])
    return pcs, outcomes


def synthesize_collision_grid(seed: int, n_events: int, n_pcs: int = 61,
                              ) -> Tuple[List[int], List[bool], List[bool], List[int]]:
    """A seeded (pc, conflicting, collided, distance) ground-truth grid
    shaped like the Figure 9 recorder's output."""
    rng = random.Random(seed)
    pcs: List[int] = []
    conflicting: List[bool] = []
    collided: List[bool] = []
    distances: List[int] = []
    collide_rate = [rng.random() * 0.6 for _ in range(n_pcs)]
    for _ in range(n_events):
        site = rng.randrange(n_pcs)
        pcs.append(0x8000 + site * 4 + (site % 5) * 0x2000)
        conflict = rng.random() < 0.7
        collide = conflict and rng.random() < collide_rate[site]
        conflicting.append(conflict)
        collided.append(collide)
        distances.append(rng.randrange(1, 33) if collide else 0)
    return pcs, conflicting, collided, distances


def synthesize_bank_grid(seed: int, n_events: int, n_pcs: int = 53,
                         line_bytes: int = 64,
                         ) -> List[Tuple[int, int]]:
    """A seeded (pc, address) load stream with per-PC bank habits."""
    rng = random.Random(seed)
    stream: List[Tuple[int, int]] = []
    bias = [rng.random() for _ in range(n_pcs)]
    for _ in range(n_events):
        site = rng.randrange(n_pcs)
        bank = 1 if rng.random() < bias[site] else 0
        line = rng.randrange(1 << 12)
        address = (line * 2 + bank) * line_bytes + rng.randrange(line_bytes)
        stream.append((0xC000 + site * 4 + (site % 3) * 0x4000, address))
    return stream
