"""Fault-aware distributed embedding gathers.

One batched gather fans out to every shard the layout routes lookups
to; the gather completes when the *slowest* required shard response is
in. Shards are first-class fault domains: each shard name is a target
in a standard :class:`~repro.resilience.faults.FaultPlan`, so
slowdown windows model a degraded shard server, crash windows model a
dead one, and network-degradation windows
(:class:`~repro.resilience.faults.NetworkDegradationWindow`) scale the
RPC bandwidth term — all seeded and deterministic, reusing the exact
injector machinery the replica level uses.

Three gather-side robustness policies:

* :class:`ReplicatedReadPolicy` — the hot (replicated) fraction of a
  shard's lookups is read from all R holders concurrently; the gather
  takes the ``quorum``-th fastest response (quorum 1 = fastest-of-R).
* :class:`GatherHedgePolicy` — any single-holder RPC still outstanding
  after ``delay_s`` is reissued (fresh straggler draw, fresh drop
  roll); the faster of the two wins.
* :class:`PartialGatherPolicy` — when a piece is lost (shard crashed
  mid-RPC or the response dropped) the client waits at most
  ``wait_budget_s`` then serves the query *without* those rows:
  ``impute_mean`` substitutes the table's mean embedding,
  ``cached`` serves stale cached rows for the replicated hot set and
  imputes the rest. Lost-quality lookups are tracked as counters —
  graceful degradation is observable, never silent. With no partial
  policy the gather *blocks*: it retries against the shard until it
  recovers, which is exactly the fan-out tail blow-up the scenario
  reproduces.

Determinism: every stochastic decision is keyed by
``(seed, shard, gather index, attempt)`` through the same splitmix64
hash as replica faults, so toggling any gather policy never reshuffles
which RPCs are unlucky.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.distserve.placement import GatherPart, ShardLayout
from repro.distserve.topology import NetworkModel
from repro.resilience.faults import FaultInjector, FaultPlan

__all__ = [
    "ReplicatedReadPolicy",
    "GatherHedgePolicy",
    "PartialGatherPolicy",
    "GatherPolicy",
    "GatherOutcome",
    "ShardGatherModel",
]

#: Client-side retry timeout for blocked (no-partial-policy) gathers.
_BLOCKED_RETRY_S = 2e-3
#: Retry attempts before a blocked gather gives up waiting for quality
#: and serves anyway (bounds simulation time; counted as imputed).
_BLOCKED_MAX_ATTEMPTS = 4


@dataclass(frozen=True)
class ReplicatedReadPolicy:
    """Read the replicated hot set from ``replicas`` holders at once.

    ``quorum = 1`` is fastest-of-R (latency shield); a larger quorum
    models consistency-constrained reads that must hear from several
    holders and therefore give up part of the latency win.
    """

    replicas: int = 2
    quorum: int = 1

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not (1 <= self.quorum <= self.replicas):
            raise ValueError("quorum must be in [1, replicas]")


@dataclass(frozen=True)
class GatherHedgePolicy:
    """Reissue a straggling shard RPC after ``delay_s``."""

    delay_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.delay_s < 0.0:
            raise ValueError("hedge delay must be >= 0")


@dataclass(frozen=True)
class PartialGatherPolicy:
    """Serve queries without lost shards instead of blocking on them."""

    mode: str = "impute_mean"
    wait_budget_s: float = 5e-3

    def __post_init__(self) -> None:
        if self.mode not in ("impute_mean", "cached"):
            raise ValueError(
                f"mode must be 'impute_mean' or 'cached', got {self.mode!r}"
            )
        if self.wait_budget_s <= 0.0:
            raise ValueError("wait_budget_s must be positive")


@dataclass(frozen=True)
class GatherPolicy:
    """Bundle of gather-side policies; all ``None`` = plain fan-out."""

    replicate: Optional[ReplicatedReadPolicy] = None
    hedge: Optional[GatherHedgePolicy] = None
    partial: Optional[PartialGatherPolicy] = None

    @classmethod
    def none(cls) -> "GatherPolicy":
        return cls()

    @classmethod
    def full(cls) -> "GatherPolicy":
        """Every shield on, at defaults."""
        return cls(
            replicate=ReplicatedReadPolicy(),
            hedge=GatherHedgePolicy(),
            partial=PartialGatherPolicy(),
        )

    @property
    def empty(self) -> bool:
        return (
            self.replicate is None
            and self.hedge is None
            and self.partial is None
        )


@dataclass(frozen=True)
class GatherOutcome:
    """One batched gather's contribution to batch service time."""

    #: Total distribution overhead added to the batch (exactly 0.0 for
    #: a colocated single-shard layout — the bit-identical contract).
    seconds: float
    #: Remote shards touched by this gather.
    fanout: int = 0
    #: Hedged RPCs issued during this gather.
    hedged: int = 0
    #: Lookups served as mean-imputed embeddings (quality loss).
    imputed: int = 0
    #: Lookups served from the stale hot-row cache.
    cached: int = 0
    #: At least one piece of this gather was lost and degraded.
    partial: bool = False
    #: The gather blocked waiting for a crashed shard to recover.
    blocked: bool = False
    #: Optional per-piece detail ``(shard, seconds, lost)`` populated
    #: only when the caller asked for it (query-trace capture). The
    #: seconds are copies of the same per-piece costs that entered the
    #: critical-path ``max`` above — recording them never changes
    #: :attr:`seconds`.
    pieces: Tuple[Tuple[str, float, bool], ...] = ()


class ShardGatherModel:
    """Deterministic cost oracle for sharded gathers under faults.

    Construct once per scenario; call :meth:`start_run` per simulation
    run — each :class:`GatherRun` carries its own gather index and
    counters, so repeated runs of the same scheduler are identical.
    """

    def __init__(
        self,
        layout: ShardLayout,
        network: Optional[NetworkModel] = None,
        policy: Optional[GatherPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        seed: int = 2020,
    ) -> None:
        self.layout = layout
        if network is None:
            network = (
                NetworkModel.local()
                if all(s.local for s in layout.shards)
                else NetworkModel()
            )
        self.network = network
        self.policy = policy or GatherPolicy.none()
        self.fault_plan = fault_plan or FaultPlan.none()
        self.seed = int(seed)
        self.injectors: Dict[str, FaultInjector] = {
            name: FaultInjector(
                self.fault_plan.for_server(name), self.fault_plan.seed, name
            )
            for name in layout.names
        }
        self._parts_cache: Dict[int, Tuple[GatherPart, ...]] = {}

    def partition(self, batch_size: int) -> Tuple[GatherPart, ...]:
        parts = self._parts_cache.get(batch_size)
        if parts is None:
            parts = self.layout.partition(batch_size)
            self._parts_cache[batch_size] = parts
        return parts

    def start_run(self) -> "GatherRun":
        return GatherRun(self)


class GatherRun:
    """Per-simulation-run gather state: index stream + counters."""

    _COUNTER_KEYS = (
        "gathers", "fanout_rpcs", "remote_lookups", "hedged_rpcs",
        "hedge_wins", "replicated_reads", "quorum_failures",
        "partial_gathers", "imputed_lookups", "cached_lookups",
        "dropped_rpcs", "crashed_rpcs", "straggler_rpcs",
        "net_degraded_rpcs", "blocked_gathers",
    )

    def __init__(self, model: ShardGatherModel) -> None:
        self.model = model
        self.index = 0
        self.counts: Dict[str, float] = {k: 0 for k in self._COUNTER_KEYS}
        self.counts["blocked_wait_s"] = 0.0

    # -- one RPC attempt ------------------------------------------------------

    def _rpc(
        self,
        holder: str,
        req_bytes: float,
        resp_bytes: float,
        work: float,
        t: float,
        gidx: int,
        attempt: int,
    ) -> Optional[float]:
        """Latency of one shard RPC issued at ``t``; None if lost."""
        model = self.model
        inj = model.injectors[holder]
        if inj.crashed_at(t) is not None:
            self.counts["crashed_rpcs"] += 1
            return None
        scale = inj.pcie_scale(t)
        if scale < 1.0:
            self.counts["net_degraded_rpcs"] += 1
        seconds = model.network.rpc_seconds(
            req_bytes, resp_bytes, bandwidth_scale=scale
        )
        seconds += (
            model.layout.hardware.lookup_seconds(work)
            * inj.slowdown_multiplier(t)
        )
        mult = inj.straggler_multiplier(gidx, attempt)
        if mult > 1.0:
            self.counts["straggler_rpcs"] += 1
            seconds *= mult
        if inj.crash_during(t, t + seconds) is not None:
            self.counts["crashed_rpcs"] += 1
            return None
        if inj.should_drop(gidx, attempt):
            self.counts["dropped_rpcs"] += 1
            return None
        return seconds

    def _single_holder(
        self,
        holder: str,
        req_bytes: float,
        resp_bytes: float,
        work: float,
        t: float,
        gidx: int,
        attempt_base: int,
    ) -> Optional[float]:
        """One holder, with hedging: reissue after the hedge delay."""
        hedge = self.model.policy.hedge
        r = self._rpc(holder, req_bytes, resp_bytes, work, t, gidx,
                      attempt_base)
        if hedge is None:
            return r
        if r is not None and r <= hedge.delay_s:
            return r
        self.counts["hedged_rpcs"] += 1
        r2 = self._rpc(
            holder, req_bytes, resp_bytes, work, t + hedge.delay_s, gidx,
            attempt_base + 1,
        )
        candidates = []
        if r is not None:
            candidates.append(r)
        if r2 is not None:
            candidates.append(hedge.delay_s + r2)
        if not candidates:
            return None
        best = min(candidates)
        if r is None or best < r:
            self.counts["hedge_wins"] += 1
        return best

    def _replicated(
        self,
        shard,
        req_bytes: float,
        resp_bytes: float,
        work: float,
        t: float,
        gidx: int,
    ) -> Optional[float]:
        """Quorum/fastest-of-R read of a shard's replicated hot set."""
        policy = self.model.policy.replicate
        holders = (shard.name,) + shard.replica_names[
            : max(0, policy.replicas - 1)
        ]
        responses = []
        for hi, holder in enumerate(holders):
            # Distinct attempt stream per holder so draws are
            # independent; hedging does not stack on replicated reads
            # (R-way redundancy already shields stragglers).
            r = self._rpc(holder, req_bytes, resp_bytes, work, t, gidx,
                          10 + hi)
            if r is not None:
                responses.append(r)
        self.counts["replicated_reads"] += 1
        quorum = min(policy.quorum, len(holders))
        if len(responses) < quorum:
            self.counts["quorum_failures"] += 1
            return None
        responses.sort()
        return responses[quorum - 1]

    # -- one batched gather ---------------------------------------------------

    def gather(
        self, batch_size: int, start: float, detail: bool = False
    ) -> GatherOutcome:
        """Distribution overhead of one batched gather issued at ``start``.

        ``detail=True`` additionally returns the per-piece
        ``(shard, seconds, lost)`` breakdown on the outcome; it records
        copies of values this method computes either way, so the
        returned ``seconds`` is bit-identical with the flag on or off.
        """
        model = self.model
        parts = model.partition(batch_size)
        remote = [p for p in parts if not p.shard.local]
        if not remote:
            # Colocated layout: exactly zero overhead (the shard compute
            # already lives inside the replica's service-time model).
            return GatherOutcome(seconds=0.0)
        gidx = self.index
        self.index += 1
        policy = model.policy
        partial = policy.partial
        layout = model.layout
        req_bpl = layout.request_bytes_per_lookup
        resp_bpl = layout.response_bytes_per_lookup
        hedged_before = self.counts["hedged_rpcs"]
        worst = 0.0
        imputed = 0
        cached = 0
        lost_any = False
        blocked = False
        piece_detail: List[Tuple[str, float, bool]] = []
        for part in remote:
            shard = part.shard
            ws = shard.work_scale
            # Hot/cold split is a *layout* property: hot rows are cached
            # on their holders whether or not replicated reads are on.
            n_hot = (
                int(round(part.lookups * shard.replicated_mass))
                if shard.replicated_mass > 0.0 else 0
            )
            n_cold = part.lookups - n_hot
            hot_work = n_hot * ws * shard.hot_work_scale
            cold_work = n_cold * ws
            # pieces: (hot lookups, cold lookups, req, resp, work, rtt)
            pieces: List[Tuple[int, int, float, float, float,
                               Optional[float]]] = []
            if (
                policy.replicate is not None
                and shard.replica_names
                and n_hot > 0
            ):
                # Race the replicated hot set across holders; the cold
                # remainder only lives here, so it goes out alone.
                req = n_hot * req_bpl
                resp = n_hot * resp_bpl * ws
                r = self._replicated(shard, req, resp, hot_work, start, gidx)
                pieces.append((n_hot, 0, req, resp, hot_work, r))
                if n_cold > 0:
                    req = n_cold * req_bpl
                    resp = n_cold * resp_bpl * ws
                    r = self._single_holder(
                        shard.name, req, resp, cold_work, start, gidx, 0
                    )
                    pieces.append((0, n_cold, req, resp, cold_work, r))
            else:
                req = part.lookups * req_bpl
                resp = part.lookups * resp_bpl * ws
                work = hot_work + cold_work
                r = self._single_holder(
                    shard.name, req, resp, work, start, gidx, 0
                )
                pieces.append((n_hot, n_cold, req, resp, work, r))
            for p_hot, p_cold, req, resp, work, r in pieces:
                if r is not None:
                    worst = max(worst, r)
                    if detail:
                        piece_detail.append((shard.name, r, False))
                    continue
                lost_any = True
                if partial is None:
                    # Block: retry against the shard until it recovers.
                    blocked = True
                    wait, r_rec = self._blocked_recover(
                        shard.name, req, resp, work, start, gidx
                    )
                    self.counts["blocked_wait_s"] += wait
                    if r_rec is None:
                        imputed += p_hot + p_cold
                        worst = max(worst, wait)
                        if detail:
                            piece_detail.append((shard.name, wait, True))
                    else:
                        recovered = wait + r_rec
                        worst = max(worst, recovered)
                        if detail:
                            piece_detail.append((shard.name, recovered, True))
                else:
                    if partial.mode == "cached":
                        # Stale cache exists only for the hot set.
                        cached += p_hot
                        imputed += p_cold
                    else:
                        imputed += p_hot + p_cold
                    worst = max(worst, partial.wait_budget_s)
                    if detail:
                        piece_detail.append(
                            (shard.name, partial.wait_budget_s, True)
                        )
        fanout = len(remote)
        net = model.network
        total = (
            fanout * net.client_issue_s
            + worst
            + fanout * net.merge_s_per_shard
        )
        counts = self.counts
        counts["gathers"] += 1
        counts["fanout_rpcs"] += fanout
        counts["remote_lookups"] += sum(p.lookups for p in remote)
        if imputed:
            counts["imputed_lookups"] += imputed
        if cached:
            counts["cached_lookups"] += cached
        if lost_any:
            counts["partial_gathers"] += 1
        if blocked:
            counts["blocked_gathers"] += 1
        return GatherOutcome(
            seconds=total,
            fanout=fanout,
            hedged=int(counts["hedged_rpcs"] - hedged_before),
            imputed=imputed,
            cached=cached,
            partial=lost_any,
            blocked=blocked,
            pieces=tuple(piece_detail),
        )

    def _blocked_recover(
        self,
        holder: str,
        req_bytes: float,
        resp_bytes: float,
        work: float,
        t: float,
        gidx: int,
    ) -> Tuple[float, Optional[float]]:
        """No partial policy: wait out the crash, then retry.

        Returns (wait before the successful/last retry, its latency or
        None). Retries are paced by the client RTO and the shard's
        recovery time — this is the blocking path whose tail cost the
        partial policy exists to avoid.
        """
        inj = self.model.injectors[holder]
        at = t
        for attempt in range(1, _BLOCKED_MAX_ATTEMPTS + 1):
            at = max(at + _BLOCKED_RETRY_S, inj.next_available(at))
            r = self._rpc(holder, req_bytes, resp_bytes, work, at, gidx,
                          100 + attempt)
            if r is not None:
                return at - t, r
        return at - t, None
