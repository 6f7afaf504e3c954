"""Systems-platform evaluation (paper Section IV, Figs 3-5).

Sweeps (model x batch size x platform), computes speedups over the
Broadwell baseline, the optimal-platform grid, and the GPU
data-communication overhead decomposition.

The sweep is the hot path of the whole reproduction (every figure
starts from it), so :meth:`SpeedupStudy.run` evaluates it as one
stacked grid per platform by default. Profiles are pure deterministic
computation, so the grid and the cell-by-cell reference produce
identical results in the same canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.hw import PLATFORM_ORDER
from repro.models import RecommendationModel, build_all_models
from repro.runtime import InferenceProfile, InferenceSession
from repro.workloads import paper_batch_sizes

__all__ = ["SweepResult", "SpeedupStudy", "OptimalCell"]

BASELINE_PLATFORM = "broadwell"


@dataclass
class SweepResult:
    """All profiles for one sweep, indexed by (model, platform, batch)."""

    profiles: Dict[Tuple[str, str, int], InferenceProfile]
    model_names: List[str]
    platform_names: List[str]
    batch_sizes: List[int]

    def profile(self, model: str, platform: str, batch: int) -> InferenceProfile:
        return self.profiles[(model, platform, batch)]

    def total_seconds(self, model: str, platform: str, batch: int) -> float:
        return self.profile(model, platform, batch).total_seconds

    def speedup(self, model: str, platform: str, batch: int) -> float:
        """End-to-end speedup over the Broadwell baseline (Fig 3)."""
        base = self.total_seconds(model, BASELINE_PLATFORM, batch)
        return base / self.total_seconds(model, platform, batch)

    def speedup_series(self, model: str, platform: str) -> List[Tuple[int, float]]:
        return [(b, self.speedup(model, platform, b)) for b in self.batch_sizes]

    def data_comm_fraction(self, model: str, platform: str, batch: int) -> float:
        """Share of end-to-end time in data communication (Fig 4)."""
        return self.profile(model, platform, batch).data_comm_fraction


@dataclass(frozen=True)
class OptimalCell:
    """One cell of the Fig 5 optimal-platform grid."""

    model: str
    batch_size: int
    platform: str
    speedup: float


class SpeedupStudy:
    """Runs and caches the full heterogeneous-platform sweep."""

    def __init__(
        self,
        models: Optional[Mapping[str, RecommendationModel]] = None,
        platform_names: Optional[Sequence[str]] = None,
        batch_sizes: Optional[Sequence[int]] = None,
    ) -> None:
        self.models = dict(models) if models is not None else build_all_models()
        self.platform_names = (
            list(platform_names) if platform_names is not None else list(PLATFORM_ORDER)
        )
        self.batch_sizes = (
            list(batch_sizes) if batch_sizes is not None else paper_batch_sizes()
        )
        # The grid is validated here, once: an empty axis has nothing to
        # stack, and a repeated batch size would repeat rows of it.
        if not self.models:
            raise ValueError("sweep needs at least one model")
        if BASELINE_PLATFORM not in self.platform_names:
            raise ValueError(f"sweep must include the {BASELINE_PLATFORM} baseline")
        if not self.batch_sizes:
            raise ValueError("sweep needs at least one batch size")
        if len(set(self.batch_sizes)) != len(self.batch_sizes):
            raise ValueError(f"duplicate batch sizes in {self.batch_sizes}")

    def run(self, workers: int = 1, profile_mode: str = "spec") -> SweepResult:
        """Profile every (model, platform, batch) cell.

        Both profile modes run the one cost evaluator
        (:mod:`repro.runtime.specmode`) and return identical profiles;
        they differ in how the grid is cut:

        * ``profile_mode="spec"`` (the default) stacks every (model,
          batch) table and evaluates each platform once over the whole
          grid; repeated identical sweeps come from a memo;
        * ``profile_mode="numeric"`` profiles cell by cell — one
          :meth:`InferenceSession.profile` call per cell — and is the
          reference the grid is checked against.

        Sweeps run in one process, so ``workers`` accepts only ``1``.
        """
        # ``workers`` survives only for callers that still pass
        # ``workers=1``; it goes when the benchmark next changes.
        if workers != 1:
            raise ValueError(
                f"sweeps run in one process; workers must be 1, got {workers!r}"
            )
        if profile_mode == "spec":
            from repro.runtime import specmode

            profiles = specmode.profile_spec_sweep(
                self.models, self.platform_names, self.batch_sizes
            )
        elif profile_mode == "numeric":
            profiles = {}
            for model_name, model in self.models.items():
                for platform in self.platform_names:
                    session = InferenceSession(model, platform)
                    for batch in self.batch_sizes:
                        profiles[(model_name, platform, batch)] = session.profile(
                            batch
                        )
        else:
            raise ValueError(f"unknown profile mode {profile_mode!r}")
        return SweepResult(
            profiles=profiles,
            model_names=list(self.models),
            platform_names=list(self.platform_names),
            batch_sizes=list(self.batch_sizes),
        )

    @staticmethod
    def optimal_platform_grid(sweep: SweepResult) -> List[OptimalCell]:
        """Fig 5: best platform (and its speedup) per (model, batch)."""
        cells = []
        for model in sweep.model_names:
            for batch in sweep.batch_sizes:
                best = max(
                    sweep.platform_names,
                    key=lambda p: sweep.speedup(model, p, batch),
                )
                cells.append(
                    OptimalCell(
                        model=model,
                        batch_size=batch,
                        platform=best,
                        speedup=sweep.speedup(model, best, batch),
                    )
                )
        return cells

