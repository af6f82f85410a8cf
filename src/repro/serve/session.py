"""Per-session predictor state.

A session is one isolated predictor instance plus its bookkeeping; it
lives entirely inside one shard (single writer), so nothing here is
locked.  Sessions are what snapshot/restore moves around.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.api import PredictorSpec, SERVABLE_FAMILIES, build_predictor


class Session:
    """One client's predictor, built from its spec."""

    __slots__ = ("session_id", "spec", "family", "predictor", "served",
                 "hottrace")

    def __init__(self, session_id: str, spec: PredictorSpec,
                 predictor: Optional[object] = None,
                 served: int = 0) -> None:
        if spec.family not in SERVABLE_FAMILIES:
            raise ValueError(
                f"family {spec.family!r} ({spec.kind}) has no serving "
                f"adapter; servable families: {SERVABLE_FAMILIES}")
        self.session_id = session_id
        self.spec = spec
        self.family = spec.family
        self.predictor = (predictor if predictor is not None
                          else build_predictor(spec))
        self.served = served
        #: Hot-trace recording state (:class:`repro.fastpath.hottrace.
        #: SessionTraceState`), lazily attached by the shard's engine.
        #: Deliberately *not* part of ``state_dict``: captures are
        #: process-local speculation state, re-learned after restore or
        #: migration rather than trusted across a move.
        self.hottrace = None

    def state_dict(self) -> Dict[str, object]:
        """What this session's snapshot blob holds: the owning shard
        pickles it at its snapshot barrier (:mod:`repro.serve.snapshot`)."""
        return {"spec": self.spec.to_json_dict(),
                "predictor": self.predictor,
                "served": self.served}

    @classmethod
    def from_state_dict(cls, session_id: str,
                        state: Dict[str, object]) -> "Session":
        spec = PredictorSpec.from_json_dict(state["spec"])
        return cls(session_id, spec, predictor=state["predictor"],
                   served=int(state["served"]))

    def __repr__(self) -> str:
        return (f"Session({self.session_id!r}, {self.spec.kind}, "
                f"served={self.served})")
