//! Router configuration and the named experiment setups.

use npr_ixp::ChipConfig;

use crate::costs::{PeCosts, SaCosts};
use crate::queues::{InputDiscipline, OutputDiscipline};
use crate::world::RunMode;

/// Template traffic used in ideal-port (FIFO-to-FIFO) experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficTemplate {
    /// Each port's template packet is routed to a distinct output port
    /// (no two packets contend for a queue — Table 1's "no contention").
    UniformSpread,
    /// Every template is routed to the same output queue (Table 1's
    /// "max. contention", row I.3).
    AllToOne,
    /// No templates: real traffic sources drive the ports.
    Sources,
}

/// Full router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Chip timing configuration.
    pub chip: ChipConfig,
    /// Run mode.
    pub mode: RunMode,
    /// Number of input contexts (packed onto MicroEngines 0..).
    pub input_ctxs: usize,
    /// Number of output contexts (packed after the input contexts in
    /// system mode, or onto MicroEngines 0.. when `input_ctxs == 0`).
    pub output_ctxs: usize,
    /// Ports carrying traffic.
    pub ports_in_use: usize,
    /// Input queue-access discipline.
    pub in_discipline: InputDiscipline,
    /// Output servicing discipline.
    pub out_discipline: OutputDiscipline,
    /// Queues per output port (1, or 16 for O.3-style setups).
    pub queues_per_port: usize,
    /// Queue capacity in descriptors.
    pub queue_cap: usize,
    /// Packet-buffer count (8192 on the board; smaller pools make the
    /// lap-lifetime experiments fast).
    pub pool_bufs: usize,
    /// Template traffic shape.
    pub traffic: TrafficTemplate,
    /// Template frame length.
    pub frame_len: usize,
    /// Divert this permille of packets to the Pentium (0 = off).
    pub divert_pe_permille: u32,
    /// Divert this permille of packets to the StrongARM (0 = off).
    pub divert_sa_permille: u32,
    /// Move only head + routing header over PCI (section 3.7's lazy
    /// body retrieval).
    pub lazy_body: bool,
    /// StrongARM cost model.
    pub sa_costs: SaCosts,
    /// Pentium cost model.
    pub pe_costs: PeCosts,
    /// StrongARM synthetic feed for Table 4: `(frame_len, lazy)`.
    pub sa_synth_feed: Option<(usize, bool)>,
    /// StrongARM interrupt mode (vs. polling).
    pub sa_interrupts: bool,
    /// Pentium I2O buffer count.
    pub pe_buffers: usize,
    /// Pentium flow classes.
    pub pe_classes: usize,
    /// Per-packet delay loops (spare-cycle probing).
    pub sa_delay_loop: u64,
    /// Per-packet delay loops on the Pentium.
    pub pe_delay_loop: u64,
    /// Multibit-trie strides for the routing table (must sum to 32).
    /// 16-8-8 is the paper's classic IPv4 layout.
    pub route_strides: Vec<u8>,
    /// How a route update invalidates the fast-path cache. The default
    /// `FullFlush` is the paper's recompute-then-swap discipline — and
    /// the one the pinned golden schedule digest was recorded under;
    /// `Targeted` invalidates only the covered slots so churn storms
    /// keep their hit rate.
    pub route_invalidation: npr_route::Invalidation,
    /// Preload this many synthetic BGP-like prefixes (0 = none) from
    /// `npr_route::gen` before traffic starts.
    pub synthetic_routes: usize,
    /// Seed for the synthetic table generator.
    pub synthetic_route_seed: u64,
    /// Order token rings so consecutive members sit on different
    /// MicroEngines (the paper's section 3.2.2 layout). Disable as an
    /// ablation to see what naive sequential ordering costs.
    pub interleave_rings: bool,
    /// Transmit batch size for the O.1 discipline (descriptors drained
    /// per head-pointer read).
    pub out_batch: usize,
    /// Route-cache slots.
    pub route_cache_slots: usize,
    /// StrongARM retry interval (ps) for escalated packets whose MPs
    /// have not all landed in DRAM yet. Default 6 us — roughly one
    /// 64-byte MP wire time at 100 Mbps, so one retry usually suffices
    /// for a frame whose tail is still arriving.
    pub sa_defer_interval_ps: u64,
    /// Deferral bound before the StrongARM declares a never-assembling
    /// escalated packet dead. Default 64 retries x the 6 us interval
    /// ~ 384 us — far past any legitimate assembly time, so live
    /// packets are never hit.
    pub sa_max_deferrals: u16,
    /// Pentium cycles (733 MHz) to marshal one control operation
    /// (`install`/`remove`/`getdata`/`setdata`) before it crosses the
    /// bus: syscall, descriptor build, doorbell write. ~2.7 us.
    pub ctl_pe_cycles: u64,
    /// StrongARM cycles (200 MHz) to field a control doorbell and
    /// execute the operation at its level. ~7.5 us.
    pub ctl_sa_cycles: u64,
    /// Control-descriptor size on the PCI bus (verb, fid, lengths,
    /// completion address).
    pub ctl_desc_bytes: usize,
    /// PCI retries before an aborted transaction abandons the retry
    /// path and escalates to a locked transaction. Each abandonment
    /// counts once in `Report::pci_retry_exhausted`.
    pub pci_max_retries: u32,
    /// Health-monitor epoch period (ps). The monitor piggybacks on the
    /// event loop — it schedules nothing of its own, so a fault-free
    /// run is bit-identical with the monitor armed. Default 50 us.
    pub health_epoch_ps: u64,
    /// Epochs of queued-work-but-no-progress before a plane is declared
    /// wedged and the StrongARM is soft-reset.
    pub health_wedge_epochs: u32,
    /// A slow-path forwarder whose measured cycles/packet exceed its
    /// declared cost by this factor starts climbing the escalation
    /// ladder (warn -> throttle -> quarantine, one rung per epoch).
    pub health_overrun_factor: f64,
    /// VRP interpreter traps per epoch that put an ME forwarder on the
    /// escalation ladder (traps on a *verified* program mean corrupted
    /// input or a bad install, not load).
    pub health_trap_threshold: u64,
    /// Check the conservation ledger each epoch. Off by default: the
    /// ledger is only meaningful on runs that never call `mark()`.
    pub health_check_conservation: bool,
    /// Worker threads for the conservative parallel delivery engine
    /// (`npr_sim::delivery`). `1` (default) is the lock-step sequential
    /// oracle; `0` means use the host's available parallelism; larger
    /// values pick the `Parallel` strategy directly. The knob only ever
    /// moves host wall-clock: every thread count is bit-identical by
    /// construction and by gate (the parallel differential suites).
    /// One *router* is always stepped by a single thread — its three
    /// planes share one mutable `Bus` per event, so the shard unit is
    /// a whole chassis (fabric member) or a whole scenario (sweeps),
    /// never an individual MicroEngine (DESIGN.md §13).
    pub sim_threads: usize,
    /// Per-flow queue manager (`npr_core::qm`): flow queues per output
    /// port, rounded up to a power of two and clamped by the memory
    /// budget. `0` (the digest-recorded default) disables the manager
    /// entirely — forwarded packets take the legacy `QueuePlane` path and
    /// the golden digest is untouched.
    pub qm_flows_per_port: usize,
    /// Per-flow queue depth cap, in packets.
    pub qm_flow_cap: usize,
    /// Virtual-time width of one wheel slot, in bytes of weight-1 service.
    /// Also the per-revolution burst a backlogged flow can take before the
    /// wheel moves on (DRR-style quantum).
    pub qm_quantum_bytes: u64,
    /// Hard memory budget for the whole qm plane (all ports). The
    /// constructor halves the flow count until the worst case fits
    /// (DESIGN.md §16 has the math).
    pub qm_mem_budget_bytes: usize,
    /// Default AQM discipline for every port's flow plane.
    pub qm_aqm: crate::aqm::AqmKind,
    /// Per-port discipline overrides: `(port, kind)` pairs.
    pub qm_port_aqm: Vec<(usize, crate::aqm::AqmKind)>,
    /// RED thresholds/gain for ports running `AqmKind::Red`.
    pub qm_red: crate::aqm::RedParams,
    /// CoDel target/interval (simulated time) for `AqmKind::Codel` ports.
    pub qm_codel: crate::aqm::CodelParams,
    /// Seed for RED's per-port early-drop coin streams.
    pub qm_seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            chip: ChipConfig::ideal(),
            mode: RunMode::System,
            input_ctxs: 16,
            output_ctxs: 8,
            ports_in_use: 8,
            in_discipline: InputDiscipline::ProtectedShared,
            out_discipline: OutputDiscipline::SingleBatched,
            queues_per_port: 1,
            queue_cap: 256,
            pool_bufs: 8192,
            traffic: TrafficTemplate::UniformSpread,
            frame_len: 60,
            divert_pe_permille: 0,
            divert_sa_permille: 0,
            lazy_body: true,
            sa_costs: SaCosts::default(),
            pe_costs: PeCosts::default(),
            sa_synth_feed: None,
            sa_interrupts: false,
            pe_buffers: 64,
            pe_classes: 1,
            sa_delay_loop: 0,
            pe_delay_loop: 0,
            route_strides: vec![16, 8, 8],
            route_invalidation: npr_route::Invalidation::FullFlush,
            synthetic_routes: 0,
            synthetic_route_seed: 0xB6_9A_11_05,
            interleave_rings: true,
            out_batch: 16,
            route_cache_slots: 4096,
            sa_defer_interval_ps: 6_000_000,
            sa_max_deferrals: 64,
            ctl_pe_cycles: 2_000,
            ctl_sa_cycles: 1_500,
            ctl_desc_bytes: 32,
            pci_max_retries: 4,
            health_epoch_ps: 50_000_000,
            health_wedge_epochs: 4,
            health_overrun_factor: 1.5,
            health_trap_threshold: 8,
            health_check_conservation: false,
            sim_threads: 1,
            qm_flows_per_port: 0,
            qm_flow_cap: 32,
            // ~2 minimum-size packets per slot: coarser quanta let a
            // backlogged flow hold the wheel long enough to push a sparse
            // flow's sojourn past the CoDel target on a 100 Mbps port.
            qm_quantum_bytes: 128,
            qm_mem_budget_bytes: 2 * 1024 * 1024,
            qm_aqm: crate::aqm::AqmKind::DropTail,
            qm_port_aqm: Vec::new(),
            qm_red: crate::aqm::RedParams::default(),
            qm_codel: crate::aqm::CodelParams::default(),
            qm_seed: 0x51_0A7_BA7,
        }
    }
}

impl RouterConfig {
    /// The delivery thread count with `0` resolved to the host's
    /// available parallelism (at least 1).
    pub fn resolved_sim_threads(&self) -> usize {
        if self.sim_threads == 0 {
            npr_sim::auto_threads()
        } else {
            self.sim_threads
        }
    }

    /// Table 1, input rows: 4 MicroEngines (16 contexts) of input
    /// processing only, ideal ports.
    pub fn table1_input(d: InputDiscipline, contended: bool) -> Self {
        Self {
            mode: RunMode::InputOnly,
            input_ctxs: 16,
            output_ctxs: 0,
            in_discipline: d,
            queues_per_port: match d {
                InputDiscipline::PrivatePerCtx => 16,
                InputDiscipline::ProtectedShared => 1,
            },
            traffic: if contended {
                TrafficTemplate::AllToOne
            } else {
                TrafficTemplate::UniformSpread
            },
            ..Self::default()
        }
    }

    /// Table 1, output rows: 2 MicroEngines (8 contexts) of output
    /// processing only.
    pub fn table1_output(d: OutputDiscipline) -> Self {
        Self {
            mode: RunMode::OutputOnly,
            input_ctxs: 0,
            output_ctxs: 8,
            out_discipline: d,
            queues_per_port: if d == OutputDiscipline::MultiIndirect {
                16
            } else {
                1
            },
            ..Self::default()
        }
    }

    /// The headline I.2 + O.1 system: 4 input MEs + 2 output MEs.
    pub fn table1_system() -> Self {
        Self::default()
    }

    /// Figure 7: input-only scaling with `n` contexts on the minimum
    /// number of MicroEngines.
    pub fn fig7_input(n: usize) -> Self {
        Self {
            mode: RunMode::InputOnly,
            input_ctxs: n,
            output_ctxs: 0,
            ..Self::default()
        }
    }

    /// Figure 7: output-only scaling with `n` contexts.
    pub fn fig7_output(n: usize) -> Self {
        Self {
            mode: RunMode::OutputOnly,
            input_ctxs: 0,
            output_ctxs: n,
            ..Self::default()
        }
    }

    /// Section 3.5.1: real 8 x 100 Mbps ports at line rate.
    pub fn line_rate() -> Self {
        Self {
            chip: ChipConfig::default(),
            traffic: TrafficTemplate::Sources,
            ..Self::default()
        }
    }

    /// Line-rate sources with the per-flow queue manager engaged on every
    /// port under discipline `aqm`: 256 flow queues per port, per-flow cap
    /// 32. The QoS/isolation scenario the `qos` experiment and the qm test
    /// suite build on.
    pub fn per_flow_qos(aqm: crate::aqm::AqmKind) -> Self {
        Self {
            qm_flows_per_port: 256,
            qm_aqm: aqm,
            ..Self::line_rate()
        }
    }

    /// Section 3.6: every packet diverted to the StrongARM null
    /// forwarder (path B).
    pub fn strongarm_null() -> Self {
        Self {
            divert_sa_permille: 1000,
            ..Self::default()
        }
    }

    /// Table 4: StrongARM feeds synthetic packets of `frame_len` to the
    /// Pentium as fast as possible; `lazy` selects header-only transfer.
    pub fn pentium_path(frame_len: usize, lazy: bool) -> Self {
        Self {
            mode: RunMode::System,
            input_ctxs: 0,
            output_ctxs: 8,
            sa_synth_feed: Some((frame_len, lazy)),
            lazy_body: lazy,
            frame_len,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_4_2_split() {
        let c = RouterConfig::default();
        assert_eq!(c.input_ctxs, 16);
        assert_eq!(c.output_ctxs, 8);
        assert!(c.chip.ideal_ports);
    }

    #[test]
    fn private_input_gets_per_ctx_queues() {
        let c = RouterConfig::table1_input(InputDiscipline::PrivatePerCtx, false);
        assert_eq!(c.queues_per_port, 16);
        let c = RouterConfig::table1_input(InputDiscipline::ProtectedShared, true);
        assert_eq!(c.traffic, TrafficTemplate::AllToOne);
    }

    #[test]
    fn fig7_uses_requested_contexts() {
        assert_eq!(RouterConfig::fig7_input(12).input_ctxs, 12);
        assert_eq!(RouterConfig::fig7_output(20).output_ctxs, 20);
    }

    #[test]
    fn line_rate_uses_real_ports() {
        let c = RouterConfig::line_rate();
        assert!(!c.chip.ideal_ports);
        assert_eq!(c.traffic, TrafficTemplate::Sources);
    }
}
