"""What the golden fixtures contain and how they are rendered.

One place defines the fixture manifest so the regression test
(``test_golden.py``) and the regeneration script (``regen.py``) can
never disagree about settings, rendering, or coverage.

The budget is deliberately tiny — fixtures must stay cheap to recompute
on every test run and small enough to review in a diff — but every
figure family is represented: machine-driven (fig5, fig7), CHT replay
(fig9), HMP replay (fig10), and bank prediction (fig12), plus one raw
seeded trace so drift in the generator itself is caught before it
cascades into the figures.

Figures run under the default policy, which takes the kernels: the
committed bytes were produced by the scalar reference, so every run
is an end-to-end equivalence check against the same fixtures, and
re-running the suite with ``REPRO_BACKEND=reference`` checks the
scalar path.
"""

import json
import os

from repro.experiments.bank_metric import run_fig12
from repro.experiments.cht_accuracy import run_fig9
from repro.experiments.classification import run_fig5
from repro.experiments.harness import ExperimentSettings, get_trace
from repro.experiments.hitmiss_stats import run_fig10
from repro.experiments.ordering_speedup import run_fig7

#: Small on purpose; never change without regenerating every fixture.
GOLDEN_SETTINGS = ExperimentSettings(n_uops=1200, traces_per_group=1)

GOLDEN_TRACE = ("cd", 300)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def trace_record() -> dict:
    """A small seeded trace, fully serialized (every uop field)."""
    trace = get_trace(*GOLDEN_TRACE)
    return {
        "name": trace.name,
        "group": trace.group,
        "seed": trace.seed,
        "uops": [
            {
                "seq": uop.seq,
                "pc": uop.pc,
                "uclass": uop.uclass.name,
                "srcs": list(uop.srcs),
                "dst": uop.dst,
                "mem": (None if uop.mem is None
                        else {"address": uop.mem.address,
                              "size": uop.mem.size}),
                "sta_seq": uop.sta_seq,
                "taken": uop.taken,
                "mispredicted": uop.mispredicted,
            }
            for uop in trace.uops
        ],
    }


FIXTURES = {
    "trace_cd_300": trace_record,
    "fig5": lambda: run_fig5(GOLDEN_SETTINGS),
    "fig7": lambda: run_fig7(GOLDEN_SETTINGS),
    "fig9": lambda: run_fig9(GOLDEN_SETTINGS),
    "fig10": lambda: run_fig10(GOLDEN_SETTINGS),
    "fig12": lambda: run_fig12(GOLDEN_SETTINGS),
}


def render(payload) -> str:
    """The canonical byte-for-byte fixture rendering."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name + ".json")
