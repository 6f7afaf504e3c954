"""Framework operator vocabularies (Caffe2 vs TensorFlow, Figs 6-7)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.frameworks.caffe2": ("CAFFE2",),
    "repro.frameworks.lowering": ("FrameworkLowering", "lower_time_by_kind"),
    "repro.frameworks.tensorflow_like": (
        "CAFFE2_TO_TF_EQUIVALENTS", "TENSORFLOW",
    ),
})

__all__ = [
    "FrameworkLowering",
    "lower_time_by_kind",
    "CAFFE2",
    "TENSORFLOW",
    "CAFFE2_TO_TF_EQUIVALENTS",
]
