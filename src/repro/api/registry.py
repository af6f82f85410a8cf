"""The predictor-kind catalogue behind :func:`repro.api.build_predictor`.

One :func:`~repro.api.spec.register` call per organisation, grouped by
family.  The canonical parameter vocabulary is deliberately small:

``size``
    Number of table entries (``bank_entries`` for gskew's banks,
    because that is the quantity the paper sweeps).
``bits``
    Saturating-counter width.
``history``
    History length in bits/loads.
``ways`` / ``tag_bits`` / ``track_distance`` / ``mode``
    Tagged-table geometry and CHT options.
``abstain``
    Bank-predictor confidence threshold below which the predictor
    abstains (load duplicated to both pipes).

Builders receive ``params``, the fully normalised parameter dict.
"""

from __future__ import annotations

from repro.api.spec import register
from repro.bank.address_based import AddressBankPredictor
from repro.bank.history import (
    make_predictor_a,
    make_predictor_b,
    make_predictor_c,
)
from repro.cht.base import AlwaysCollides, NeverCollides
from repro.cht.combined import CombinedCHT
from repro.cht.full import FullCHT
from repro.cht.storesets import StoreSetPredictor
from repro.cht.tagged import TaggedOnlyCHT
from repro.cht.tagless import TaglessCHT
from repro.hitmiss.binary import BinaryHMP
from repro.hitmiss.hybrid import HybridHMP
from repro.hitmiss.local import LocalHMP
from repro.hitmiss.oracle import AlwaysHitHMP, AlwaysMissHMP
from repro.predictors.base import AlwaysPredictor
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.gskew import GSkewPredictor
from repro.predictors.local import LocalPredictor

# --------------------------------------------------------------------------
# Binary predictor substrate
# --------------------------------------------------------------------------


@register("binary.always", "binary", outcome=False)
def _build_binary_always(params):
    return AlwaysPredictor(outcome=bool(params["outcome"]))


@register("binary.bimodal", "binary", size=2048, bits=2)
def _build_binary_bimodal(params):
    return BimodalPredictor(n_entries=params["size"],
                            counter_bits=params["bits"])


@register("binary.local", "binary", size=2048, history=8, bits=2)
def _build_binary_local(params):
    return LocalPredictor(n_entries=params["size"],
                          history_bits=params["history"],
                          counter_bits=params["bits"])


@register("binary.gshare", "binary", history=11, bits=2)
def _build_binary_gshare(params):
    return GSharePredictor(history_bits=params["history"],
                           counter_bits=params["bits"])


@register("binary.gskew", "binary", history=20, size=1024, bits=2)
def _build_binary_gskew(params):
    return GSkewPredictor(history_bits=params["history"],
                          bank_entries=params["size"],
                          counter_bits=params["bits"])


# --------------------------------------------------------------------------
# Collision history tables (memory-dependence prediction)
# --------------------------------------------------------------------------


@register("cht.never", "cht")
def _build_cht_never(params):
    return NeverCollides()


@register("cht.always", "cht")
def _build_cht_always(params):
    return AlwaysCollides()


@register("cht.tagless", "cht", size=4096, bits=1, track_distance=False)
def _build_cht_tagless(params):
    return TaglessCHT(n_entries=params["size"], counter_bits=params["bits"],
                      track_distance=params["track_distance"])


@register("cht.tagged", "cht", size=2048, ways=4, track_distance=False,
          tag_bits=16)
def _build_cht_tagged(params):
    return TaggedOnlyCHT(n_entries=params["size"], ways=params["ways"],
                         track_distance=params["track_distance"],
                         tag_bits=params["tag_bits"])


@register("cht.full", "cht", size=2048, ways=4, bits=2,
          track_distance=False)
def _build_cht_full(params):
    return FullCHT(n_entries=params["size"], ways=params["ways"],
                   counter_bits=params["bits"],
                   track_distance=params["track_distance"])


@register("cht.combined", "cht", tagged_size=2048, ways=4,
          tagless_size=4096, mode="safe", track_distance=False)
def _build_cht_combined(params):
    return CombinedCHT(tagged_entries=params["tagged_size"],
                       ways=params["ways"],
                       tagless_entries=params["tagless_size"],
                       mode=params["mode"],
                       track_distance=params["track_distance"])


@register("cht.storesets", "storesets", ssit_size=4096, lfst_size=1024)
def _build_cht_storesets(params):
    return StoreSetPredictor(ssit_entries=params["ssit_size"],
                             lfst_entries=params["lfst_size"])


# --------------------------------------------------------------------------
# Hit-miss predictors
# --------------------------------------------------------------------------


@register("hmp.always-hit", "hitmiss")
def _build_hmp_always_hit(params):
    return AlwaysHitHMP()


@register("hmp.always-miss", "hitmiss")
def _build_hmp_always_miss(params):
    return AlwaysMissHMP()


@register("hmp.local", "hitmiss", size=2048, history=8, bits=2)
def _build_hmp_local(params):
    return LocalHMP(n_entries=params["size"], history_bits=params["history"],
                    counter_bits=params["bits"])


@register("hmp.gshare", "hitmiss", history=11, bits=2)
def _build_hmp_gshare(params):
    return BinaryHMP(GSharePredictor(history_bits=params["history"],
                                     counter_bits=params["bits"]))


@register("hmp.gskew", "hitmiss", history=20, size=1024, bits=2)
def _build_hmp_gskew(params):
    return BinaryHMP(GSkewPredictor(history_bits=params["history"],
                                    bank_entries=params["size"],
                                    counter_bits=params["bits"]))


@register("hmp.hybrid", "hitmiss", local_size=512, local_history=8,
          gshare_history=5, gskew_history=8, gskew_size=1024)
def _build_hmp_hybrid(params):
    return HybridHMP(local_entries=params["local_size"],
                     local_history=params["local_history"],
                     gshare_history=params["gshare_history"],
                     gskew_history=params["gskew_history"],
                     gskew_entries=params["gskew_size"])


# --------------------------------------------------------------------------
# Bank predictors
# --------------------------------------------------------------------------


@register("bank.a", "bank", abstain=0.9)
def _build_bank_a(params):
    return make_predictor_a(abstain_threshold=params["abstain"])


@register("bank.b", "bank", abstain=0.6)
def _build_bank_b(params):
    return make_predictor_b(abstain_threshold=params["abstain"])


@register("bank.c", "bank", abstain=0.65)
def _build_bank_c(params):
    return make_predictor_c(abstain_threshold=params["abstain"])


@register("bank.address", "bank", banks=2, line_bytes=64)
def _build_bank_address(params):
    return AddressBankPredictor(n_banks=params["banks"],
                                line_bytes=params["line_bytes"])
