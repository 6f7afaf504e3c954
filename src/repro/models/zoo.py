"""The eight-model suite, addressable by name.

The keys and their figure order are
:data:`~repro.models.names.MODEL_ORDER`.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.models.base import RecommendationModel
from repro.models.dien import DIEN
from repro.models.din import DIN
from repro.models.dlrm import make_rm1, make_rm2, make_rm3
from repro.models.names import MODEL_ORDER
from repro.models.ncf import NCF
from repro.models.wnd import MultiTaskWideAndDeep, WideAndDeep

__all__ = ["MODEL_ORDER", "MODEL_FACTORIES", "build_model", "build_all_models"]

MODEL_FACTORIES: Dict[str, Callable[[], RecommendationModel]] = {
    "ncf": NCF,
    "rm1": make_rm1,
    "rm2": make_rm2,
    "rm3": make_rm3,
    "wnd": WideAndDeep,
    "mtwnd": MultiTaskWideAndDeep,
    "din": DIN,
    "dien": DIEN,
}

#: Long-form spellings accepted alongside the short keys.
_MODEL_ALIASES: Dict[str, str] = {
    "dlrmrm1": "rm1",
    "dlrmrm2": "rm2",
    "dlrmrm3": "rm3",
    "widedeep": "wnd",
    "wideanddeep": "wnd",
    "mtwideanddeep": "mtwnd",
}


def build_model(name: str) -> RecommendationModel:
    """Instantiate one model by its short name (case-insensitive)."""
    key = name.lower().replace("-", "").replace("_", "")
    key = _MODEL_ALIASES.get(key, key)
    if key not in MODEL_FACTORIES:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_FACTORIES)}"
        )
    return MODEL_FACTORIES[key]()


def build_all_models() -> Dict[str, RecommendationModel]:
    """All eight models in paper order."""
    return {name: build_model(name) for name in MODEL_ORDER}
