"""The CPU cost model: workload tables -> cycles + PMU events.

:func:`profile_cells_cpu` runs the whole analytical stack for any
number of stacked graphs ("cells") on one CPU, on ``(cells, nodes)``
float64 arrays; profiling one graph is the one-cell case
(:class:`~repro.uarch.pipeline.CpuModel`). Per node it

1. lowers the hardware-neutral workload onto this CPU's ISA: how many
   packed-SIMD instructions the flops become at this vector width, how
   many loads/stores the memory streams become, plus scalar and branch
   bookkeeping (Figs 9, 11);
2. charges mispredicts as ``entropy * (1 - predictor_quality)`` per
   branch, each wasting part of the flush penalty (Figs 8, 15);
3. bins micro-ops onto the FMA / ALU / load / store ports — the busiest
   class sets the execution-limited cycles (Fig 10);
4. classifies every memory stream over the cache levels
   (:class:`~repro.uarch.caches.AnalyticalHierarchy`) and turns the hits
   into visible stall cycles, DRAM bytes, and a Little's-law occupancy
   of the offcore queue whose "> 70 %" rule flags congestion (Fig 14);
5. models the shared frontend (L1i + DSB/MITE) across all nodes
   (:meth:`~repro.uarch.frontend.FrontendModel.analyze`), and
6. assembles ``cycles = execution + memory-stall + frontend-stall +
   bad-spec`` — exactly the decomposition TopDown accounting inverts —
   with wall-clock seconds (cycles / frequency + dispatch overheads).

Two pieces run per cell or per node in Python because their arithmetic
is not expressible with vectorized primitives: the frontend's sorted
greedy capacity budget (one call per cell on
:class:`~repro.uarch.frontend.CodeRegion` objects), and the port
histogram's binomial ``p**k`` (CPython's float pow).

Per-node accumulations (stream loops, event totals) use masked adds of
exact ``0.0`` in visit order, so one cell's results do not depend on
what else is stacked with it. Padding lanes may hold inf/nan
(``np.errstate`` suppressed); they are excluded by the validity mask at
every accumulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro import telemetry
from repro.hw.platform import CpuSpec
from repro.ops.tables import StackedTables
from repro.uarch.caches import AnalyticalHierarchy
from repro.uarch.constants import DEFAULT_CONSTANTS, UarchConstants
from repro.uarch.events import PmuEvents
from repro.uarch.frontend import CodeRegion, FrontendModel

if TYPE_CHECKING:
    from repro.uarch.nmp import NmpConfig

__all__ = ["CpuOpProfile", "CpuGraphProfile", "profile_cells_cpu"]


@dataclass
class CpuOpProfile:
    """Cycle/event accounting for one graph node on one CPU."""

    node_name: str
    op_kind: str
    cycles: float
    execution_cycles: float
    memory_stall_cycles: float
    frontend_stall_cycles: float
    bad_speculation_cycles: float
    core_bound_cycles: float
    events: PmuEvents
    #: Wall-clock seconds: cycles / frequency plus per-op dispatch.
    seconds: float


#: Every PmuEvents counter is one evaluation array of the same name.
_EVENT_FIELDS = tuple(f.name for f in fields(PmuEvents))

#: FrontendProfile attribute behind each frontend evaluation array.
_FRONTEND_FIELDS = (
    ("fe_dispatch", "dispatch_instructions"),
    ("frontend_stall_cycles", "total_cycles"),
    ("frontend_latency_cycles", "latency_cycles"),
    ("frontend_bandwidth_cycles", "bandwidth_cycles"),
    ("icache_misses", "icache_misses"),
    ("dsb_uops", "dsb_uops"),
    ("mite_uops", "mite_uops"),
    ("dsb_limited_cycles", "dsb_limited_cycles"),
    ("mite_limited_cycles", "mite_limited_cycles"),
)


class CpuGraphProfile:
    """Whole-graph profile: per-op breakdown plus aggregate events.

    Aggregates (events, compute/data-load seconds, per-kind times) are
    eager; the per-op :class:`CpuOpProfile` list is materialized lazily
    from the evaluation arrays, since only span/trace consumers need it.
    """

    def __init__(
        self,
        platform: str,
        graph_name: str,
        events: PmuEvents,
        compute_seconds: float,
        data_load_seconds: float,
        time_by_kind: Dict[str, float],
        arrays: Dict[str, np.ndarray],
        cell_index: int,
        names: List[str],
        kinds: List[str],
    ) -> None:
        self.platform = platform
        self.graph_name = graph_name
        self.events = events
        #: Model-computation time (cycles/frequency + per-op dispatch).
        self.compute_seconds = compute_seconds
        #: Host-side input staging ("data loading"; included in the
        #: paper's end-to-end CPU numbers).
        self.data_load_seconds = data_load_seconds
        self._time_by_kind = time_by_kind
        self._arrays = arrays
        self._cell = cell_index
        self._names = names
        self._kinds = kinds
        self._op_profiles: Optional[List[CpuOpProfile]] = None

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.data_load_seconds

    def time_by_kind(self) -> Dict[str, float]:
        """Seconds per operator kind (the Fig 6 breakdown)."""
        return dict(self._time_by_kind)

    @property
    def op_profiles(self) -> List[CpuOpProfile]:
        if self._op_profiles is None:
            self._op_profiles = self._materialize()
        return self._op_profiles

    def _materialize(self) -> List[CpuOpProfile]:
        i, n = self._cell, len(self._names)
        rows = {name: arr[i, :n].tolist() for name, arr in self._arrays.items()}
        return [
            CpuOpProfile(
                node_name=name,
                op_kind=kind,
                cycles=rows["cycles"][j],
                execution_cycles=rows["execution_cycles"][j],
                memory_stall_cycles=rows["memory_bound_cycles"][j],
                frontend_stall_cycles=rows["frontend_stall_cycles"][j],
                bad_speculation_cycles=rows["bad_speculation_cycles"][j],
                core_bound_cycles=rows["core_bound_cycles"][j],
                events=PmuEvents(**{f: rows[f][j] for f in _EVENT_FIELDS}),
                seconds=rows["seconds"][j],
            )
            for j, (name, kind) in enumerate(zip(self._names, self._kinds))
        ]


def _masked_totals(valid: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Left-to-right per-cell sums over the nodes, in node order."""
    return np.where(valid, arr, 0.0).cumsum(axis=1)[:, -1]


def profile_cells_cpu(
    stacked: StackedTables,
    spec: CpuSpec,
    constants: Optional[UarchConstants] = None,
    nmp: Optional["NmpConfig"] = None,
) -> List[CpuGraphProfile]:
    """Profile every stacked cell on one CPU spec.

    ``nmp`` executes gather-and-pool near memory
    (:class:`~repro.uarch.nmp.NmpSystem`); it changes the memory stage
    only.
    """
    c = constants if constants is not None else DEFAULT_CONSTANTS
    st = stacked
    valid = st.valid

    with np.errstate(all="ignore"):
        # ---- instruction synthesis ----------------------------------------
        # AVX-512's masked operations let hand-tuned GEMM-class kernels
        # (the FMA-shaped workloads) vectorize residue that the 256-bit
        # ISA leaves scalar; the long tail of non-GEMM operators is not
        # rewritten per ISA. VNNI's fused forms shave further
        # instructions off FC-class kernels (Fig 11).
        lanes = spec.simd_fp32_lanes
        flops_per_vector_inst = np.where(st.uses_fma, lanes * 2, lanes)
        scalar_fraction = 1.0 - st.vector_fraction
        fma_scale = 256.0 / spec.simd_width_bits
        scalar_fraction = np.where(
            st.uses_fma, scalar_fraction * fma_scale, scalar_fraction
        )
        vector_flops = st.flops * (1.0 - scalar_fraction)
        scalar_flop_inst = st.flops * scalar_fraction
        vector_flop_inst = vector_flops / np.maximum(flops_per_vector_inst, 1)
        if spec.has_vnni:
            vector_flop_inst = np.where(
                st.uses_fma,
                vector_flop_inst * c.vnni_instruction_factor,
                vector_flop_inst,
            )
        # Stream terms iterate the slots in order (shared,
        # platform-independent masks precomputed once on the stack).
        # Writes become stores; each gathered (random) granule needs its
        # own vector loads; sequential reads stream at the load width.
        # r/q are mutually exclusive so their two adds fold into one
        # nested selection. Slots with no valid lane contribute exactly
        # +0.0 everywhere and are skipped.
        simd_bytes = spec.simd_width_bits // 8
        streams = st.streams()
        stores = np.zeros(valid.shape, dtype=np.float64)
        vector_mem = np.zeros(valid.shape, dtype=np.float64)
        for s, any_valid in enumerate(streams.any_valid):
            if not any_valid:
                continue
            total = streams.total[s]
            stores = stores + np.where(
                streams.w[s], np.ceil(total / simd_bytes), 0.0
            )
            per_access = np.maximum(
                1.0, np.ceil(streams.granule[s] / simd_bytes)
            )
            vector_mem = vector_mem + np.where(
                streams.r[s],
                streams.accesses[s] * per_access,
                np.where(streams.q[s], total / simd_bytes, 0.0),
            )
        branch_inst = st.branches.astype(np.float64)
        bookkeeping = st.scalar_ops.astype(np.float64)
        load_inst = vector_mem
        avx = vector_flop_inst + vector_mem
        mix_total = (
            (((vector_flop_inst + scalar_flop_inst) + vector_mem) + stores)
            + branch_inst
        ) + bookkeeping
        mix_uops = mix_total * c.uops_per_instruction

        # ---- branches -----------------------------------------------------
        mrate = st.branch_entropy * (1.0 - spec.predictor_quality)
        mispredicts = branch_inst * mrate
        bad_spec = (mispredicts * spec.branch_penalty) * c.badspec_slot_fraction

        # ---- backend ports ------------------------------------------------
        # Scalar ALU work could also use the FMA-capable ports, but vector
        # work monopolizes them in hot loops: the scalar stream gets the
        # ALU ports plus leftover FMA-port slack.
        fma_uops = vector_flop_inst * c.uops_per_instruction
        scalar_alu_uops = (
            (scalar_flop_inst + bookkeeping) + branch_inst
        ) * c.uops_per_instruction
        load_uops = load_inst * c.uops_per_instruction
        store_uops = stores * c.uops_per_instruction
        total_uops = ((fma_uops + scalar_alu_uops) + load_uops) + store_uops
        fma_cycles = fma_uops / (spec.fma_ports * c.fma_port_efficiency)
        alu_cycles = scalar_alu_uops / (spec.alu_ports * c.alu_port_efficiency)
        load_cycles = load_uops / spec.load_ports
        store_cycles = store_uops / spec.store_ports
        be_exec = np.maximum(
            np.maximum(
                np.maximum(fma_cycles + alu_cycles * 0.5, alu_cycles), load_cycles
            ),
            store_cycles,
        )
        issue_cycles = total_uops / spec.issue_width
        be_exec = np.maximum(be_exec, issue_cycles)
        be_core_bound = np.maximum(0.0, be_exec - issue_cycles)
        port_uops = total_uops

        # ---- data memory --------------------------------------------------
        hier = AnalyticalHierarchy(spec)
        l1b, l2b, l3b = hier.l1_bytes, hier.l2_bytes, hier.l3_bytes
        dram_latency_cycles = spec.dram_latency_ns * spec.frequency_ghz
        bytes_per_cycle = spec.dram_bandwidth_gbps / spec.frequency_ghz
        uncovered = 1.0 - c.prefetch_coverage
        max_offcore = float(spec.max_offcore_requests)
        zeros = np.zeros(valid.shape, dtype=np.float64)
        l1a, l2a, l3a = zeros.copy(), zeros.copy(), zeros.copy()
        drama, dramb = zeros.copy(), zeros.copy()
        latency, occ_weight = zeros.copy(), zeros.copy()
        nmp_cycles = zeros.copy()
        pooled_op = np.zeros(valid.shape, dtype=bool)
        for s, any_live in enumerate(streams.any_live):
            acc, sqrt_par = streams.accesses[s], streams.sqrt_par[s]
            live = streams.live_acc[s]
            rmask, smask = streams.rmask[s], streams.smask[s]
            if nmp is not None and streams.r[s].any():
                # Near-memory gather-and-pool: the gathers run rank-locally
                # (time accumulated in stream order); the host sees one
                # pooled row per pooled group, as a parallelism-1 stream.
                gather = streams.r[s] & (streams.parallelism[s] > 1)
                pooled = np.maximum(1, acc // streams.parallelism[s])
                mlp = np.minimum(
                    np.maximum(c.gather_mlp_base * sqrt_par, 1.0), max_offcore
                )
                near = (
                    ((acc / nmp.rank_parallelism) * dram_latency_cycles) / mlp
                ) / nmp.internal_bandwidth_factor
                command = (pooled * nmp.command_latency_ns) * spec.frequency_ghz
                nmp_cycles = nmp_cycles + np.where(gather, near + command, 0.0)
                pooled_op |= gather
                acc = np.where(gather, pooled, acc)
                sqrt_par = np.where(gather, 1.0, sqrt_par)
                live = streams.valid[s] & (acc > 0)
                rmask = live & streams.r[s]
                smask = live & streams.q[s]
                any_live = bool(live.any())
            if not any_live:
                continue
            fp = streams.footprint[s]
            gran = streams.granule[s]
            loc = streams.locality[s]
            is_rand = streams.is_random[s]
            # Random streams: residence-fraction chain + Zipf hot split.
            # min(remaining, capacity/footprint) handles footprint == 0
            # too: capacity/0 -> inf, so share == remaining.
            share1 = np.minimum(1.0, l1b / fp)
            rem = 1.0 - share1
            rem = np.where(rem <= 0, 0.0, rem)
            share2 = np.minimum(rem, l2b / fp)
            rem = rem - share2
            rem = np.where(rem <= 0, 0.0, rem)
            share3 = np.minimum(rem, l3b / fp)
            hot = loc
            om = 1 - hot
            acc_loc = acc * loc
            acc_om = acc * om
            r_l1 = (acc * share1) * om
            r_l2 = acc * (share2 * om + hot * 0.35)
            r_l3 = acc * (share3 * om + hot * 0.65)
            r_dram = np.maximum(0.0, ((acc - r_l1) - r_l2) - r_l3)
            # Sequential streams: smallest level holding the footprint.
            in_l1 = fp <= l1b
            in_l2 = fp <= l2b
            in_l3 = fp <= l3b
            s_l1 = np.where(in_l1, acc, np.where(in_l2, acc_loc, 0.0))
            s_l2 = np.where(
                in_l1,
                0.0,
                np.where(in_l2, acc_om, np.where(in_l3, acc_loc, 0.0)),
            )
            s_l3 = np.where(in_l2, 0.0, np.where(in_l3, acc_om, acc_loc))
            s_dram = np.where(in_l3, 0.0, acc_om)
            lvl1 = np.where(live, np.where(is_rand, r_l1, s_l1), 0.0)
            lvl2 = np.where(live, np.where(is_rand, r_l2, s_l2), 0.0)
            lvl3 = np.where(live, np.where(is_rand, r_l3, s_l3), 0.0)
            lvld = np.where(live, np.where(is_rand, r_dram, s_dram), 0.0)
            l1a = l1a + lvl1
            l2a = l2a + lvl2
            l3a = l3a + lvl3
            drama = drama + lvld
            dramb = dramb + lvld * gran
            # Stall terms (reads only; writes hide behind store buffers).
            # Independent gathers overlap up to the offcore queue: more
            # lookups per request window expose more memory-level
            # parallelism (RM2's 120 lookups/table vs RM1's 80, Fig 14).
            # Prefetchers cover sequential miss latency; what remains is
            # the cache/DRAM bandwidth of streaming the footprint.
            mlp = c.gather_mlp_base * sqrt_par
            mlp = np.minimum(np.maximum(mlp, 1.0), max_offcore)
            dram_term = (lvld * dram_latency_cycles) * c.dram_visible_fraction
            rand_stall = (
                dram_term / mlp
                + ((lvl3 * spec.l3_latency) * c.l3_hit_visible_fraction)
                / np.minimum(mlp, 4.0)
            ) + (lvl2 * spec.l2_latency) * c.l2_hit_visible_fraction
            occ_term = rand_stall * np.minimum(
                1.0, mlp / spec.max_offcore_requests
            )
            seq_stall = dram_term * uncovered
            seq_stall = (
                seq_stall
                + ((lvl2 * gran) / spec.l2_bandwidth_bpc)
                * c.l2_stream_visible_fraction
            )
            seq_stall = (
                seq_stall
                + ((lvl3 * gran) / spec.l3_bandwidth_bpc)
                * c.l3_stream_visible_fraction
            )
            seq_stall = (
                seq_stall
                + ((lvld * gran) / bytes_per_cycle)
                * c.l3_stream_visible_fraction
            )
            latency = latency + np.where(
                rmask, rand_stall, np.where(smask, seq_stall, 0.0)
            )
            occ_weight = occ_weight + np.where(rmask, occ_term, 0.0)
        # Bandwidth floor: moving the DRAM bytes takes at least this long.
        dram_bw_cycles = dramb / max(bytes_per_cycle, 1e-9)
        mem_stall = np.maximum(latency, dram_bw_cycles)
        occupancy = np.where(
            mem_stall > 0, np.minimum(1.0, occ_weight / mem_stall), 0.0
        )
        if nmp is not None:
            # Host stalls and near-memory execution overlap (the slower
            # wins), and the channel no longer carries row traffic.
            mem_stall = np.where(
                pooled_op, np.maximum(mem_stall, nmp_cycles), mem_stall
            )
            occupancy = np.where(
                pooled_op,
                np.minimum(
                    occupancy, (nmp_cycles / np.maximum(mem_stall, 1e-9)) * 0.5
                ),
                occupancy,
            )

    # ---- frontend: greedy capacity budget across the whole graph ---------
    frontend_model = FrontendModel(spec, c)
    fe = {
        name: np.zeros(valid.shape, dtype=np.float64)
        for name, _ in _FRONTEND_FIELDS
    }
    for i, cell in enumerate(st.cells):
        n = cell.n
        inst_row = mix_total[i, :n].tolist()
        uops_row = mix_uops[i, :n].tolist()
        misp_row = mispredicts[i, :n].tolist()
        code_row = cell.code_bytes.tolist()
        entries_row = cell.entries.tolist()
        branches_row = cell.branches.tolist()
        entropy_row = cell.branch_entropy.tolist()
        regions = [
            CodeRegion(
                name=cell.names[j],
                code_bytes=float(code_row[j]),
                unique_blocks=cell.unique_blocks[j],
                entries=float(entries_row[j]),
                instructions=inst_row[j],
                uops=uops_row[j],
                branches=float(branches_row[j]),
                mispredicts=misp_row[j],
                branch_entropy=entropy_row[j],
            )
            for j in range(n)
        ]
        profiles_by_name = frontend_model.analyze(regions)
        fes = [profiles_by_name[name] for name in cell.names]
        for name, attr in _FRONTEND_FIELDS:
            fe[name][i, :n] = [getattr(f, attr) for f in fes]

    with np.errstate(all="ignore"):
        # ---- assembly -----------------------------------------------------
        # Congestion (Intel's rule): occupancy beyond the threshold charges
        # the op's memory-stall share, scaled by the overshoot.
        fe_dispatch = fe.pop("fe_dispatch")
        instructions = mix_total + fe_dispatch
        uops = mix_uops + fe_dispatch * c.uops_per_instruction
        execution = np.maximum(be_exec, uops / spec.issue_width)
        cycles = ((execution + mem_stall) + fe["frontend_stall_cycles"]) + bad_spec
        thr = c.dram_congestion_threshold
        congested = np.where(
            occupancy <= thr,
            0.0,
            np.minimum(cycles, mem_stall) * ((occupancy - thr) / (1.0 - thr)),
        )
        seconds = cycles / (spec.frequency_ghz * 1e9)
        seconds = seconds + (
            (np.maximum(st.kernel_launches, 1) * c.cpu_dispatch_us) * 1e-6
        ) * 0.1
        seconds = seconds + c.cpu_dispatch_us * 1e-6

    # ---- port histogram (Fig 10) -------------------------------------------
    # Binomial per-cycle occupancy of the execution units, measured over
    # all of the op's cycles: stall cycles leave ports idle.
    num_units = spec.alu_ports + spec.load_ports + spec.store_ports
    nu_f = float(num_units)
    comb1 = math.comb(num_units, 1)
    comb2 = math.comb(num_units, 2)
    e1, e2 = num_units - 1, num_units - 2
    port0 = np.zeros(valid.shape, dtype=np.float64)
    port12 = np.zeros(valid.shape, dtype=np.float64)
    port3 = np.zeros(valid.shape, dtype=np.float64)
    for i, cell in enumerate(st.cells):
        n = cell.n
        cyc_row = cycles[i, :n].tolist()
        pu_row = port_uops[i, :n].tolist()
        p0_row, p12_row, p3_row = [], [], []
        for j in range(n):
            clamped = max(cyc_row[j], 1e-9)
            mean_busy = min(nu_f, pu_row[j] / clamped)
            p = mean_busy / num_units
            # pmf(k) = comb(n, k) * p**k * (1-p)**(n-k); comb(n, 0) and
            # p**0 are exactly 1, so pmf(0) reduces to the last factor.
            q = 1.0 - p
            p0 = q**num_units
            p12 = (comb1 * p**1) * q**e1 + (comb2 * p**2) * q**e2
            p0_row.append(p0)
            p12_row.append(p12)
            p3_row.append(max(0.0, 1.0 - p0 - p12))
        port0[i, :n] = p0_row
        port12[i, :n] = p12_row
        port3[i, :n] = p3_row
    with np.errstate(all="ignore"):
        arrays = dict(
            fe,
            cycles=cycles,
            instructions=instructions,
            uops_retired=uops,
            avx_instructions=avx,
            branch_instructions=branch_inst,
            branch_mispredicts=mispredicts,
            core_bound_cycles=be_core_bound,
            memory_bound_cycles=mem_stall,
            bad_speculation_cycles=bad_spec,
            l1d_accesses=l1a,
            l2_accesses=l2a,
            l3_accesses=l3a,
            dram_accesses=drama,
            dram_bytes=dramb,
            dram_congested_cycles=congested,
            port_cycles_0=port0 * cycles,
            port_cycles_1_2=port12 * cycles,
            port_cycles_3_plus=port3 * cycles,
            execution_cycles=execution,
            seconds=seconds,
        )
    totals = {
        name: _masked_totals(valid, arrays[name]).tolist()
        for name in _EVENT_FIELDS + ("seconds",)
    }

    staging = c.host_staging_gbps * 1e9
    staging_latency = c.host_staging_latency_us * 1e-6
    profiles: List[CpuGraphProfile] = []
    for i, cell in enumerate(st.cells):
        events = PmuEvents(**{f: totals[f][i] for f in _EVENT_FIELDS})
        secs_row = seconds[i, : cell.n].tolist()
        time_by_kind: Dict[str, float] = {}
        for kind, sec in zip(cell.kinds, secs_row):
            time_by_kind[kind] = time_by_kind.get(kind, 0.0) + sec
        data_load = (
            cell.total_input_bytes / staging + staging_latency
        )
        profiles.append(
            CpuGraphProfile(
                platform=spec.microarchitecture,
                graph_name=cell.graph_name,
                events=events,
                compute_seconds=float(totals["seconds"][i]),
                data_load_seconds=data_load,
                time_by_kind=time_by_kind,
                arrays=arrays,
                cell_index=i,
                names=cell.names,
                kinds=cell.kinds,
            )
        )
        if telemetry.enabled():
            registry = telemetry.get_registry()
            labels = dict(platform=spec.microarchitecture, graph=cell.graph_name)
            registry.counter("uarch.graphs_profiled", **labels).inc()
            registry.counter("uarch.ops_profiled", **labels).inc(cell.n)
            registry.counter("uarch.cycles", **labels).inc(events.cycles)
            registry.counter(
                "uarch.instructions", **labels
            ).inc(events.instructions)
    return profiles
