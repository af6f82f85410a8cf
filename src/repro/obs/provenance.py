"""Run provenance: who/where/what produced a benchmark number.

A throughput figure is only comparable to another one when both carry
enough context to know they ran on the same code and class of machine.
:func:`collect_provenance` gathers that context once per run — git
revision, hostname, platform, interpreter and numpy versions, CPU
count — and the bench report (``BENCH_throughput.json``) and every
``BENCH_history.jsonl`` row embed it verbatim, so the
``python -m repro.obs gate`` comparisons can refuse or annotate
cross-machine deltas instead of silently mixing them.
"""

from __future__ import annotations

import os
import platform
import socket
import sys
from typing import Dict, Optional

from repro.obs.sinks import git_revision


def numpy_version() -> Optional[str]:
    """The installed numpy version, or ``None`` without numpy."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy-free installs
        return None
    return str(numpy.__version__)


def collect_provenance(cwd: Optional[str] = None) -> Dict[str, object]:
    """A JSON-safe dict identifying this run's code and machine."""
    return {
        "git_rev": git_revision(cwd),
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy_version(),
        "cpu_count": os.cpu_count(),
    }


def same_machine(a: Dict[str, object], b: Dict[str, object]) -> bool:
    """Whether two provenance dicts describe a comparable machine."""
    keys = ("hostname", "machine", "cpu_count")
    return all(a.get(k) == b.get(k) for k in keys)
