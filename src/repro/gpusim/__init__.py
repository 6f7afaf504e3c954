"""GPU performance model (roofline kernels + PCIe transfers)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.gpusim.device": ("GpuGraphProfile", "GpuModel", "GpuOpProfile"),
    "repro.gpusim.kernels": (
        "COMPUTE_EFFICIENCY", "KernelCostModel", "OpDeviceProfile",
    ),
    "repro.gpusim.pcie": ("PcieModel", "TransferProfile"),
})

__all__ = [
    "GpuModel",
    "GpuGraphProfile",
    "GpuOpProfile",
    "KernelCostModel",
    "OpDeviceProfile",
    "COMPUTE_EFFICIENCY",
    "PcieModel",
    "TransferProfile",
]
