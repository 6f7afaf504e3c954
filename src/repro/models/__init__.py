"""The eight industry-representative recommendation models (Table I)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.models.base": ("InputDescription", "RecommendationModel"),
    "repro.models.config": ("EmbeddingGroupConfig", "MlpConfig", "ModelInfo"),
    "repro.models.dien": ("DIEN",),
    "repro.models.din": ("DIN",),
    "repro.models.dlrm": (
        "DLRM", "DLRMConfig", "make_rm1", "make_rm2", "make_rm3",
    ),
    "repro.models.mf": ("MatrixFactorization",),
    "repro.models.names": ("MODEL_ORDER",),
    "repro.models.ncf": ("NCF",),
    "repro.models.variants": (
        "dlrm_variant", "embedding_dim_sweep", "fc_width_sweep",
        "lookup_sweep", "table_count_sweep",
    ),
    "repro.models.wnd": ("MultiTaskWideAndDeep", "WideAndDeep"),
    "repro.models.zoo": (
        "MODEL_FACTORIES", "build_all_models", "build_model",
    ),
})

__all__ = [
    "RecommendationModel",
    "InputDescription",
    "EmbeddingGroupConfig",
    "MlpConfig",
    "ModelInfo",
    "NCF",
    "MatrixFactorization",
    "DLRM",
    "DLRMConfig",
    "make_rm1",
    "make_rm2",
    "make_rm3",
    "WideAndDeep",
    "MultiTaskWideAndDeep",
    "DIN",
    "DIEN",
    "MODEL_ORDER",
    "MODEL_FACTORIES",
    "build_model",
    "build_all_models",
    "dlrm_variant",
    "lookup_sweep",
    "table_count_sweep",
    "fc_width_sweep",
    "embedding_dim_sweep",
]
