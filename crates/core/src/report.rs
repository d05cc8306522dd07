//! Measurement: per-window reports, the packet-conservation ledger,
//! and the quiescence watchdog.

use npr_sim::{cycles_to_ps, Time, PENTIUM_HZ, PS_PER_SEC};

use crate::router::Router;
use crate::world::RunMode;

/// A measurement report over one window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Window length in picoseconds.
    pub window_ps: Time,
    /// Packets completed by the input process, Mpps.
    pub input_mpps: f64,
    /// Packets transmitted (or stage-equivalent), Mpps.
    pub forward_mpps: f64,
    /// MPs through the input process, M/s.
    pub input_mmps: f64,
    /// MPs through the output process, M/s.
    pub output_mmps: f64,
    /// Measured mean register cycles per MP, input loop.
    pub input_reg_per_mp: f64,
    /// Measured mean register cycles per MP, output loop.
    pub output_reg_per_mp: f64,
    /// StrongARM completions, Kpps.
    pub sa_kpps: f64,
    /// Pentium completions, Kpps.
    pub pe_kpps: f64,
    /// Spare StrongARM cycles per StrongARM packet.
    pub sa_spare_cycles: f64,
    /// Spare Pentium cycles per Pentium packet.
    pub pe_spare_cycles: f64,
    /// Output-queue drops in the window.
    pub queue_drops: u64,
    /// StrongARM/Pentium staging-queue drops.
    pub escalation_drops: u64,
    /// Port receive drops (frames).
    pub port_drops: u64,
    /// Buffer-lap losses.
    pub lap_losses: u64,
    /// VRP drops.
    pub vrp_drops: u64,
    /// Mean mutex wait per acquisition, in MicroEngine cycles
    /// (Figure 10's contention overhead).
    pub mutex_wait_cycles: f64,
    /// DRAM utilization.
    pub dram_util: f64,
    /// SRAM utilization.
    pub sram_util: f64,
    /// IX-bus DMA utilization.
    pub dma_util: f64,
    /// PCI utilization.
    pub pci_util: f64,
    /// Mean forwarding latency (arrival to wire), microseconds.
    pub latency_avg_us: f64,
    /// Median forwarding latency, microseconds.
    pub latency_p50_us: f64,
    /// 99th-percentile forwarding latency, microseconds.
    pub latency_p99_us: f64,
    /// Maximum forwarding latency in the window, microseconds.
    pub latency_max_us: f64,
    /// Control operations completed in the window.
    pub ctl_ops: u64,
    /// Pentium cycles spent marshalling control ops in the window.
    pub ctl_pe_cycles: u64,
    /// StrongARM cycles spent executing control ops in the window.
    pub ctl_sa_cycles: u64,
    /// PCI bytes moved by control descriptors in the window.
    pub ctl_pci_bytes: u64,
    /// Mean control-op latency (submit to terminal level), microseconds.
    pub ctl_latency_avg_us: f64,
    /// Health-monitor epochs sampled in the window.
    pub health_epochs: u64,
    /// Health warnings raised in the window.
    pub health_warnings: u64,
    /// Forwarders throttled in the window.
    pub health_throttles: u64,
    /// Forwarders quarantined in the window.
    pub health_quarantines: u64,
    /// StrongARM watchdog soft resets in the window.
    pub sa_resets: u64,
    /// Recovery actions completed in the window.
    pub recoveries: u64,
    /// Mean detection-to-recovery latency, microseconds.
    pub recovery_latency_avg_us: f64,
    /// PCI transactions that exhausted their retry budget in the window.
    pub pci_retry_exhausted: u64,
    /// VRP interpreter traps in the window (counted, never aborting).
    pub vrp_traps: u64,
    /// Per-flow queue manager: RED early drops at enqueue in the window.
    pub qm_early_drops: u64,
    /// Per-flow queue manager: per-flow cap (tail) drops in the window.
    pub qm_cap_drops: u64,
    /// Per-flow queue manager: CoDel sojourn drops at dequeue.
    pub qm_sojourn_drops: u64,
    /// Median queue sojourn through the per-flow plane, microseconds.
    pub qm_sojourn_p50_us: f64,
    /// 99th-percentile queue sojourn, microseconds.
    pub qm_sojourn_p99_us: f64,
    /// Packets served through the per-flow plane in the window.
    pub qm_served: u64,
}

/// Packet-conservation ledger: every packet the input process admitted
/// must be transmitted, claimed by exactly one terminal drop counter,
/// or still visibly in flight. Built by [`Router::conservation`];
/// checked continuously by the fault-injection suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Conservation {
    /// Packets admitted by the input process (`input_pkts`).
    pub admitted: u64,
    /// Packets transmitted (`tx_pkts`).
    pub transmitted: u64,
    /// Output-queue overflow drops.
    pub queue_drops: u64,
    /// StrongARM/Pentium staging-queue overflow drops.
    pub escalation_drops: u64,
    /// No-route drops (trie miss with no exception handler).
    pub no_route_drops: u64,
    /// Post-admission buffer-lap losses.
    pub lap_losses: u64,
    /// StrongARM forwarder rejections.
    pub sa_fwdr_drops: u64,
    /// Pentium forwarder drops.
    pub pe_drops: u64,
    /// Pentium forwarder consumptions.
    pub pe_consumed: u64,
    /// Dead-assembly (truncation) discards.
    pub truncated_drops: u64,
    /// Packets visibly in flight: output queues, staging queues,
    /// Pentium inbound queues, and active StrongARM/Pentium jobs.
    pub in_flight: u64,
    /// Stale buffer reads observed by the pool (one-lap invariant:
    /// every counted lap loss is backed by at least one).
    pub stale_reads: u64,
}

impl Conservation {
    /// Packets that reached a terminal fate.
    pub fn terminal(&self) -> u64 {
        self.transmitted
            + self.queue_drops
            + self.escalation_drops
            + self.no_route_drops
            + self.lap_losses
            + self.sa_fwdr_drops
            + self.pe_drops
            + self.pe_consumed
            + self.truncated_drops
    }

    /// Terminal fates plus visible in-flight packets.
    pub fn accounted(&self) -> u64 {
        self.terminal() + self.in_flight
    }

    /// Admitted minus accounted: positive means packets vanished
    /// without a counter; negative means something double-counted.
    pub fn deficit(&self) -> i64 {
        self.admitted as i64 - self.accounted() as i64
    }

    /// The conservation and one-lap invariants together.
    pub fn holds(&self) -> bool {
        self.deficit() == 0 && self.lap_losses <= self.stale_reads
    }
}

impl Router {
    /// Builds the packet-conservation ledger from lifetime totals.
    ///
    /// Valid only on runs that never call [`Router::mark`] (marking
    /// resets the queue drop statistics the ledger sums) and that do
    /// not use slow-path fragmentation or the synthetic StrongARM feed
    /// (both mint packets that were never admitted by the input
    /// process). Control operations live on their own ledger
    /// ([`Router::ctl_stats`]) and never appear here — a StrongARM or
    /// Pentium server busy with a control op holds no packet.
    pub fn conservation(&self) -> Conservation {
        let c = &self.world.counters;
        let escalation_drops = self.world.sa_local_q.drops()
            + self.world.sa_miss_q.drops()
            + self.world.sa_pe_q.iter().map(|q| q.drops()).sum::<u64>();
        let sa_holds_packet = matches!(
            &self.sa.job,
            Some(j) if !matches!(j, crate::sa::SaJob::Control(_))
        );
        // The per-flow queue manager, when installed, is the output
        // queue: its occupancy is in flight and its discards (early,
        // per-flow cap, sojourn — each counted exactly once) fold into
        // the queue-drop term of the ledger.
        let (qm_drops, qm_queued) = match &self.world.qm {
            Some(qm) => (qm.total_drops(), qm.total_queued()),
            None => (0, 0),
        };
        let in_flight = self.world.queues.total_queued()
            + qm_queued
            + self.world.sa_local_q.len()
            + self.world.sa_miss_q.len()
            + self.world.sa_pe_q.iter().map(|q| q.len()).sum::<usize>()
            + self.pe.inbound.iter().map(|q| q.len()).sum::<usize>()
            + usize::from(sa_holds_packet)
            + usize::from(self.pe.current.is_some());
        Conservation {
            admitted: c.input_pkts.total(),
            transmitted: c.tx_pkts.total(),
            queue_drops: self.world.queues.total_drops() + qm_drops,
            escalation_drops,
            no_route_drops: c.no_route_drops.total(),
            lap_losses: c.lap_losses.total(),
            sa_fwdr_drops: c.sa_fwdr_drops.total(),
            pe_drops: c.pe_drops.total(),
            pe_consumed: c.pe_consumed.total(),
            truncated_drops: c.truncated_drops.total(),
            in_flight: in_flight as u64,
            stale_reads: self.world.pool.stale_reads(),
        }
    }

    /// A 64-bit FNV-1a fingerprint of the router's observable outcome:
    /// clock, full conservation ledger, per-port tx/drop counts,
    /// lifetime control-plane accounting, and lifetime health decisions
    /// (including the quarantine order). Two runs of the same scenario
    /// under different delivery strategies must agree on this exactly —
    /// it is the equality the parallel differential suites assert, one
    /// number per router instead of a field-by-field walk.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        mix(self.now());
        let c = self.conservation();
        for v in [
            c.admitted,
            c.transmitted,
            c.queue_drops,
            c.escalation_drops,
            c.no_route_drops,
            c.lap_losses,
            c.sa_fwdr_drops,
            c.pe_drops,
            c.pe_consumed,
            c.truncated_drops,
            c.in_flight,
            c.stale_reads,
        ] {
            mix(v);
        }
        for p in &self.ixp.hw.ports {
            mix(p.tx_frames);
            mix(p.rx_frames_dropped);
        }
        for v in [
            self.ctl.submitted,
            self.ctl.completed,
            self.ctl.pe_cycles,
            self.ctl.sa_cycles,
            self.ctl.pci_bytes,
            self.ctl.latency_sum_ps,
        ] {
            mix(v);
        }
        let hs = &self.health.stats;
        for v in [
            hs.epochs,
            hs.warnings,
            hs.throttles,
            hs.quarantines,
            hs.sa_resets,
            hs.recoveries,
        ] {
            mix(v);
        }
        for &(wr, id) in &self.health.quarantined {
            mix(wr as u64);
            mix(u64::from(id));
        }
        mix(self.world.counters.vrp_traps.total());
        // Per-flow queue manager outcome, mixed only when the plane is
        // installed so every fingerprint pinned before PR 10 still holds.
        if let Some(qm) = &self.world.qm {
            mix(qm.total_enqueued());
            mix(qm.early_drops());
            mix(qm.cap_drops());
            mix(qm.sojourn_drops());
            mix(qm.total_queued() as u64);
        }
        h
    }

    /// Whether the router has quiesced: every admitted packet has
    /// reached a terminal fate (nothing visibly in flight and the
    /// conservation identity balances) and no received MP still waits
    /// in a port buffer — a frame there is in no ledger term yet, so
    /// the identity balances without it.
    pub fn quiet(&self) -> bool {
        let c = self.conservation();
        c.in_flight == 0 && c.holds() && self.ixp.hw.ports.iter().all(|p| p.rx_buf.is_empty())
    }

    /// Quiescence watchdog: after traffic ends, runs the router in
    /// `slice`-long steps until it is [`quiet`](Self::quiet), giving up
    /// after `max_slices`. Returning `false` is a loud signal of a
    /// silent deadlock or livelock — some packet is stuck and no
    /// counter will ever claim it.
    pub fn drain(&mut self, slice: Time, max_slices: usize) -> bool {
        for _ in 0..max_slices {
            if self.quiet() {
                return true;
            }
            let t = self.now() + slice;
            self.run_until(t);
        }
        self.quiet()
    }

    /// Marks the start of a measurement window.
    pub fn mark(&mut self) {
        let now = self.events.now();
        self.window_start = now;
        self.world.mark_counters(now);
        self.ixp.reset_stats();
        self.pci.reset_stats();
        self.sa_window_done0 = self.sa.done;
        self.pe_window_done0 = self.pe.done;
        self.sa.busy_ps = 0;
        self.pe.busy_ps = 0;
        self.ctl_mark = self.ctl;
        self.health.mark();
    }

    /// Runs `warmup`, marks, runs `window`, and reports.
    pub fn measure(&mut self, warmup: Time, window: Time) -> Report {
        self.run_until(warmup);
        self.mark();
        let t0 = self.events.now().max(warmup);
        self.run_until(t0 + window);
        self.report()
    }

    /// Builds a report over the current window.
    pub fn report(&self) -> Report {
        let now = self.events.now();
        let w = now.saturating_sub(self.window_start).max(1);
        let secs = w as f64 / PS_PER_SEC as f64;
        let c = &self.world.counters;
        let input_pkts = c.input_pkts.since_mark() as f64;
        let tx: u64 = self.ixp.hw.ports.iter().map(|p| p.tx_frames).sum();
        let port_drops: u64 = self.ixp.hw.ports.iter().map(|p| p.rx_frames_dropped).sum();
        let forward = match self.cfg.mode {
            RunMode::InputOnly => input_pkts,
            _ => tx as f64,
        };
        let (mutex_wait, mutex_acq) = self
            .mutex_ids
            .iter()
            .map(|&m| self.ixp.mutex_stats(m))
            .fold((0u64, 0u64), |(a, b), (x, y)| (a + x, b + y));
        let sa_done = (self.sa.done - self.sa_window_done0) as f64;
        let pe_done = (self.pe.done - self.pe_window_done0) as f64;
        let sa_spare = if sa_done > 0.0 {
            (w.saturating_sub(self.sa.busy_ps) as f64 / 1e12) * 200e6 / sa_done
        } else {
            0.0
        };
        let pe_spare = if pe_done > 0.0 {
            (w.saturating_sub(self.pe.busy_ps) as f64 / 1e12) * PENTIUM_HZ as f64 / pe_done
        } else {
            0.0
        };
        let in_mps = c.input_mps.since_mark() as f64;
        let out_mps = c.output_mps.since_mark() as f64;
        let ctl_ops = self.ctl.completed - self.ctl_mark.completed;
        let hs = self.health.since_mark();
        Report {
            window_ps: w,
            input_mpps: input_pkts / secs / 1e6,
            forward_mpps: forward / secs / 1e6,
            input_mmps: in_mps / secs / 1e6,
            output_mmps: out_mps / secs / 1e6,
            input_reg_per_mp: if in_mps > 0.0 {
                c.input_reg_cycles.since_mark() as f64 / in_mps
            } else {
                0.0
            },
            output_reg_per_mp: if out_mps > 0.0 {
                c.output_reg_cycles.since_mark() as f64 / out_mps
            } else {
                0.0
            },
            sa_kpps: sa_done / secs / 1e3,
            pe_kpps: pe_done / secs / 1e3,
            sa_spare_cycles: sa_spare,
            pe_spare_cycles: pe_spare,
            queue_drops: self.world.queues.total_drops(),
            escalation_drops: self.world.sa_local_q.drops()
                + self.world.sa_miss_q.drops()
                + self.world.sa_pe_q.iter().map(|q| q.drops()).sum::<u64>(),
            port_drops,
            lap_losses: c.lap_losses.since_mark(),
            vrp_drops: c.vrp_drops.since_mark(),
            mutex_wait_cycles: if mutex_acq > 0 {
                mutex_wait as f64 / mutex_acq as f64 / cycles_to_ps(1) as f64
            } else {
                0.0
            },
            latency_avg_us: {
                let n = c.latency_samples.since_mark();
                if n == 0 {
                    0.0
                } else {
                    c.latency_sum_ps.since_mark() as f64 / n as f64 / 1e6
                }
            },
            latency_p50_us: c.latency_hist.percentile(50.0) as f64 / 1e6,
            latency_p99_us: c.latency_hist.percentile(99.0) as f64 / 1e6,
            latency_max_us: c.latency_max_ps as f64 / 1e6,
            dram_util: self.ixp.dram.busy_ps() as f64 / w as f64,
            sram_util: self.ixp.sram.busy_ps() as f64 / w as f64,
            dma_util: self.ixp.dma.busy_ps() as f64 / w as f64,
            pci_util: self.pci.utilization(w),
            ctl_ops,
            ctl_pe_cycles: self.ctl.pe_cycles - self.ctl_mark.pe_cycles,
            ctl_sa_cycles: self.ctl.sa_cycles - self.ctl_mark.sa_cycles,
            ctl_pci_bytes: self.ctl.pci_bytes - self.ctl_mark.pci_bytes,
            ctl_latency_avg_us: if ctl_ops > 0 {
                (self.ctl.latency_sum_ps - self.ctl_mark.latency_sum_ps) as f64
                    / ctl_ops as f64
                    / 1e6
            } else {
                0.0
            },
            health_epochs: hs.epochs,
            health_warnings: hs.warnings,
            health_throttles: hs.throttles,
            health_quarantines: hs.quarantines,
            sa_resets: hs.sa_resets,
            recoveries: hs.recoveries,
            recovery_latency_avg_us: hs.recovery_latency_avg_us(),
            pci_retry_exhausted: self.pci.exhausted(),
            vrp_traps: c.vrp_traps.since_mark(),
            qm_early_drops: self.world.qm.as_ref().map_or(0, |q| q.early_drops()),
            qm_cap_drops: self.world.qm.as_ref().map_or(0, |q| q.cap_drops()),
            qm_sojourn_drops: self.world.qm.as_ref().map_or(0, |q| q.sojourn_drops()),
            qm_sojourn_p50_us: self
                .world
                .qm
                .as_ref()
                .map_or(0.0, |q| q.sojourn_hist().percentile(50.0) as f64 / 1e6),
            qm_sojourn_p99_us: self
                .world
                .qm
                .as_ref()
                .map_or(0.0, |q| q.sojourn_hist().percentile(99.0) as f64 / 1e6),
            qm_served: self.world.qm.as_ref().map_or(0, |q| q.sojourn_samples()),
        }
    }
}
