"""Consistent-hash ring: stable session → worker placement.

The fleet router (:mod:`repro.serve.fleet`) places sessions on worker
processes with a classic consistent-hash ring rather than the
single-process service's ``hash % n`` rule, because the fleet resizes:
``hash % n`` remaps almost every session when ``n`` changes, while a
ring with virtual nodes moves only the ``1/n`` of keys adjacent to the
added (or removed) node's points — the *minimal movement* property the
rebalance protocol and its property tests rely on.

Every hash is the SHA-256-derived :func:`~repro.serve.service.
stable_shard_hash` (never the salted builtin ``hash``), so the mapping
is identical across processes and across restarts — a snapshot taken
by one router instance restores under another with the same node set
and every session lands back on its home worker.

The ring is a plain sorted list of ``(point, node)`` pairs; lookups
are one :func:`bisect.bisect_right`.  Mutation (`add_node` /
`remove_node`) rebuilds the sorted list — node churn is rare and
O(nodes × replicas · log) is nothing next to the process spawn it
accompanies.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.serve.service import stable_shard_hash

#: Virtual points per node.  256 keeps the max/mean key-load ratio of a
#: uniform keyset under ~1.35 for small fleets (the bound the property
#: tests assert) at a memory cost of one (int, str) pair per point:
#: over every 3,000-key keyset those tests can draw (2–8 nodes, 1,001
#: seeds) the worst ratio is 1.28, where 128 points reached 1.40.
DEFAULT_REPLICAS = 256


class HashRing:
    """A consistent-hash ring over named nodes (module docstring)."""

    def __init__(self, nodes: Iterable[str] = (),
                 replicas: int = DEFAULT_REPLICAS) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._nodes: List[str] = []
        self._points: List[Tuple[int, str]] = []
        for node in nodes:
            self.add_node(node)

    # -- membership ---------------------------------------------------------

    @property
    def nodes(self) -> Tuple[str, ...]:
        """Current members, sorted (stable for iteration/tests)."""
        return tuple(sorted(self._nodes))

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add_node(self, node: str) -> None:
        if not node:
            raise ValueError("node name must be non-empty")
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.append(node)
        self._points.extend(
            (stable_shard_hash(f"{node}#{replica}"), node)
            for replica in range(self.replicas))
        self._points.sort()

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node!r} not on the ring")
        self._nodes.remove(node)
        self._points = [(point, owner) for point, owner in self._points
                        if owner != node]

    # -- lookup -------------------------------------------------------------

    def node_for(self, key: str) -> str:
        """The owning node of ``key`` — first ring point clockwise of
        the key's hash (wrapping past the top)."""
        if not self._points:
            raise ValueError("ring has no nodes")
        index = bisect_right(self._points,
                             (stable_shard_hash(key), "￿"))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def distribution(self, keys: Sequence[str]) -> Dict[str, int]:
        """Key count per node — the balance diagnostic the property
        tests (and ``fleet.stats``) use."""
        counts: Dict[str, int] = {node: 0 for node in self._nodes}
        for key in keys:
            counts[self.node_for(key)] += 1
        return counts
