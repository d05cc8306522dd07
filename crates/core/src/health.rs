//! Runtime health monitoring and recovery (paper, section 5).
//!
//! The paper's robustness story is layered: static verification keeps
//! injected ME code inside its budget, admission control bounds the
//! slow paths, and a runtime watchdog catches everything the static
//! story cannot — a wedged StrongARM, a slow-path forwarder whose real
//! cost exceeds what it declared at install time, and interpreter traps
//! from code that reached an ME without verification. This module is
//! that watchdog.
//!
//! The [`HealthMonitor`] piggybacks on the router's event loop: after
//! every dispatched event, [`Router::health_tick`] checks whether one
//! or more `health_epoch_ps`-long epochs elapsed and, if so, samples
//! the planes' progress counters. It schedules **no events of its
//! own**, so a fault-free run is bit-identical with the monitor armed —
//! the golden-digest test pins this.
//!
//! Detectors and their escalation ladders:
//!
//! * **StrongARM wedge** — the SA holds a job but `jobs_finished` has
//!   not moved for `health_wedge_epochs` consecutive epochs (deferral
//!   storms leave `job == None` and never trip this). Recovery is a
//!   [`crate::sa::StrongArm::soft_reset`] — the held packet re-enters
//!   its staging queue, the stale completion is fenced by a generation
//!   bump — followed by a replay of every verified install down the
//!   simulated control path, exactly as the operator's original
//!   `install` traveled.
//! * **Runtime budget overrun** — a StrongARM or Pentium forwarder's
//!   measured per-packet cycle average exceeds its declared cost by
//!   `health_overrun_factor` ([`npr_vrp::runtime_overrun`]). The ladder
//!   escalates one rung per offending epoch: warn, then throttle (the
//!   scheduler preempts at the declared cost), then quarantine — the
//!   forwarder is unbound from the classifier so its flows fall back to
//!   the default IP path, and its in-flight packets are re-aimed at the
//!   null forwarder so they drain cleanly.
//! * **Interpreter traps** — `health_trap_threshold` traps from one ME
//!   forwarder within an epoch: warn, then quarantine (verified code
//!   cannot trap, so a trapping forwarder bypassed verification).
//! * **Conservation breach** (off by default) — the packet-conservation
//!   ledger stops balancing; counted, never "repaired" — a breach is a
//!   simulator bug by definition.

use std::collections::HashMap;

use npr_sim::Time;

use crate::classify::WhereRun;
use crate::config::RouterConfig;
use crate::install::Fid;
use crate::plane::{Bus, ControlVerb};
use crate::router::Router;
use crate::world::Escalation;

/// Attempted-cost accounting for one policed forwarder: what it tried
/// to spend (declared plus overrun, pre-throttle) over how many
/// packets. The overrun detector diffs these across epochs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FwdrStat {
    /// Packets policed.
    pub pkts: u64,
    /// Cycles the forwarder attempted to spend on them.
    pub attempted_cycles: u64,
}

/// Health accounting: totals since construction. `Router::mark`
/// snapshots the struct (it is `Copy`) and the report diffs against
/// the snapshot, like [`crate::plane::CtlStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthStats {
    /// Sampling epochs elapsed.
    pub epochs: u64,
    /// Warning rungs taken (first escalation level).
    pub warnings: u64,
    /// Forwarders throttled to their declared cost.
    pub throttles: u64,
    /// Forwarders quarantined (unbound; flows fall back to default IP).
    pub quarantines: u64,
    /// StrongARM soft resets performed by the watchdog.
    pub sa_resets: u64,
    /// Conservation-ledger breaches observed (detector off by default).
    pub conservation_breaches: u64,
    /// Recovery actions completed (quarantines + resets).
    pub recoveries: u64,
    /// Total detection-to-recovery latency across recoveries.
    pub recovery_latency_sum_ps: u64,
}

impl HealthStats {
    /// Mean detection-to-recovery latency, microseconds.
    pub fn recovery_latency_avg_us(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recovery_latency_sum_ps as f64 / self.recoveries as f64 / 1e6
        }
    }
}

/// One escalation ladder: consecutive offending epochs for one target.
#[derive(Debug, Clone, Copy)]
struct Ladder {
    streak: u32,
    first_at: Time,
}

/// The monitor's state: configuration, epoch cursor, per-detector
/// snapshots, and the escalation ladders.
#[derive(Debug)]
pub struct HealthMonitor {
    epoch_ps: Time,
    wedge_epochs: u32,
    overrun_factor: f64,
    trap_threshold: u64,
    check_conservation: bool,
    next_epoch: Time,
    /// Lifetime totals.
    pub stats: HealthStats,
    mark: HealthStats,
    // Wedge tracking.
    sa_stalled: u32,
    sa_stall_from: Time,
    sa_jobs_snapshot: u64,
    pe_stalled: u32,
    pe_warned: bool,
    pe_jobs_snapshot: u64,
    // Per-flow queue-manager overload tracking (the last rung of the
    // qm degradation ladder: early-drop -> per-flow cap -> warn here).
    qm_cap_snapshot: u64,
    qm_overloaded: u32,
    qm_warned: bool,
    // Overrun / trap tracking.
    ladders: HashMap<(WhereRun, u32), Ladder>,
    sa_stat_snapshot: HashMap<u32, FwdrStat>,
    pe_stat_snapshot: HashMap<u32, FwdrStat>,
    me_trap_snapshot: Vec<u64>,
    /// Targets quarantined so far, in order.
    pub quarantined: Vec<(WhereRun, u32)>,
}

impl HealthMonitor {
    /// Builds a monitor from the router configuration. An
    /// `health_epoch_ps` of 0 disarms it entirely.
    pub fn new(cfg: &RouterConfig) -> Self {
        Self {
            epoch_ps: cfg.health_epoch_ps,
            wedge_epochs: cfg.health_wedge_epochs.max(1),
            overrun_factor: cfg.health_overrun_factor,
            trap_threshold: cfg.health_trap_threshold.max(1),
            check_conservation: cfg.health_check_conservation,
            next_epoch: cfg.health_epoch_ps,
            stats: HealthStats::default(),
            mark: HealthStats::default(),
            sa_stalled: 0,
            sa_stall_from: 0,
            sa_jobs_snapshot: 0,
            pe_stalled: 0,
            pe_warned: false,
            pe_jobs_snapshot: 0,
            qm_cap_snapshot: 0,
            qm_overloaded: 0,
            qm_warned: false,
            ladders: HashMap::new(),
            sa_stat_snapshot: HashMap::new(),
            pe_stat_snapshot: HashMap::new(),
            me_trap_snapshot: Vec::new(),
            quarantined: Vec::new(),
        }
    }

    /// Snapshots the stats at the start of a measurement window.
    pub fn mark(&mut self) {
        self.mark = self.stats;
    }

    /// Stats accumulated since the last mark.
    pub fn since_mark(&self) -> HealthStats {
        HealthStats {
            epochs: self.stats.epochs - self.mark.epochs,
            warnings: self.stats.warnings - self.mark.warnings,
            throttles: self.stats.throttles - self.mark.throttles,
            quarantines: self.stats.quarantines - self.mark.quarantines,
            sa_resets: self.stats.sa_resets - self.mark.sa_resets,
            conservation_breaches: self.stats.conservation_breaches
                - self.mark.conservation_breaches,
            recoveries: self.stats.recoveries - self.mark.recoveries,
            recovery_latency_sum_ps: self.stats.recovery_latency_sum_ps
                - self.mark.recovery_latency_sum_ps,
        }
    }

    /// The watchdog's worst-case detection bound: a wedge is reset no
    /// later than this long after it stops making progress.
    pub fn detection_bound_ps(&self) -> Time {
        self.epoch_ps * Time::from(self.wedge_epochs.max(1))
    }
}

impl Router {
    /// The per-event health hook: samples the planes once per elapsed
    /// epoch. Called by `run_until` after every dispatch; cheap when no
    /// epoch boundary passed, and schedules nothing ever.
    pub(crate) fn health_tick(&mut self, at: Time) {
        if self.health.epoch_ps == 0 || at < self.health.next_epoch {
            return;
        }
        let mut crossed = 0u32;
        while self.health.next_epoch <= at {
            self.health.next_epoch += self.health.epoch_ps;
            self.health.stats.epochs += 1;
            crossed += 1;
        }
        self.check_sa_wedge(at, crossed);
        self.check_pe_stall(crossed);
        self.check_qm_overload(crossed);
        self.check_overruns(at);
        self.check_me_traps(at);
        if self.health.check_conservation && !self.conservation().holds() {
            self.health.stats.conservation_breaches += 1;
        }
    }

    /// Wedge detector: the SA holds a job but finished nothing since
    /// the last epoch. Deferral storms leave `job == None`, so they
    /// never count as stall epochs.
    fn check_sa_wedge(&mut self, at: Time, crossed: u32) {
        let progressed = self.sa.jobs_finished != self.health.sa_jobs_snapshot;
        self.health.sa_jobs_snapshot = self.sa.jobs_finished;
        if progressed || self.sa.job.is_none() {
            self.health.sa_stalled = 0;
            return;
        }
        if self.health.sa_stalled == 0 {
            self.health.sa_stall_from = at;
            self.health.stats.warnings += 1;
            // Arm the watchdog deadline: without this pulse, a stall
            // with a quiet event queue would only be noticed when the
            // wedged job's own (stale) completion finally fires.
            self.events.schedule(
                at + self.health.detection_bound_ps(),
                crate::plane::PlaneEvent::HealthPulse,
            );
        }
        self.health.sa_stalled += crossed;
        if self.health.sa_stalled >= self.health.wedge_epochs {
            self.health.stats.sa_resets += 1;
            self.health.stats.recoveries += 1;
            self.health.stats.recovery_latency_sum_ps +=
                at.saturating_sub(self.health.sa_stall_from);
            self.health.sa_stalled = 0;
            self.sa_soft_reset();
            self.replay_installs();
        }
    }

    /// The Pentium stall detector is symmetric but warn-only: the
    /// simulated Pentium has no reset path (the paper reboots the
    /// StrongARM without disturbing the MicroEngines; the Pentium *is*
    /// the control processor).
    fn check_pe_stall(&mut self, crossed: u32) {
        let progressed = self.pe.jobs_finished != self.health.pe_jobs_snapshot;
        self.health.pe_jobs_snapshot = self.pe.jobs_finished;
        let busy = self.pe.current.is_some() || self.pe.ctl_current.is_some();
        if progressed || !busy {
            self.health.pe_stalled = 0;
            self.health.pe_warned = false;
            return;
        }
        self.health.pe_stalled += crossed;
        if self.health.pe_stalled >= self.health.wedge_epochs && !self.health.pe_warned {
            self.health.pe_warned = true;
            self.health.stats.warnings += 1;
        }
    }

    /// Overload detector for the per-flow queue manager, warn-only like
    /// the Pentium stall check: sustained per-flow *cap* drops mean AQM
    /// early-dropping has been overrun and flows are hitting their hard
    /// bounds — the last rung of the graceful-degradation ladder before
    /// an operator has to act. Inert (and digest-invisible) when the
    /// manager is not installed; schedules nothing ever.
    fn check_qm_overload(&mut self, crossed: u32) {
        let Some(qm) = &self.world.qm else { return };
        let cap = qm.cap_drops();
        // `mark()` resets the plane's counters; a snapshot from before
        // the reset would read as a spurious quiet epoch at worst.
        let quiet = cap <= self.health.qm_cap_snapshot;
        self.health.qm_cap_snapshot = cap;
        if quiet {
            self.health.qm_overloaded = 0;
            self.health.qm_warned = false;
            return;
        }
        self.health.qm_overloaded += crossed;
        if self.health.qm_overloaded >= self.health.wedge_epochs && !self.health.qm_warned {
            self.health.qm_warned = true;
            self.health.stats.warnings += 1;
        }
    }

    /// Rebuilds the inter-plane bus and soft-resets the StrongARM.
    fn sa_soft_reset(&mut self) {
        let Self {
            ixp,
            world,
            sa,
            pci,
            events,
            sa_waker,
            pe_waker,
            ctl,
            cfg,
            ..
        } = self;
        let mut bus = Bus {
            world,
            pci,
            ixp,
            cfg,
            ctl,
            events,
            sa_waker,
            pe_waker,
        };
        sa.soft_reset(&mut bus);
    }

    /// Replays every verified install down the simulated control path
    /// (Pentium marshalling, PCI descriptor, StrongARM execution, and
    /// the ISTORE freeze window for ME code), in fid order — the
    /// post-reset StrongARM relearns exactly what the operator
    /// installed, at full simulated cost.
    fn replay_installs(&mut self) {
        let mut fids: Vec<Fid> = self.installs.keys().copied().collect();
        fids.sort_unstable();
        for fid in fids {
            let rec = &self.installs[&fid];
            let slots = if rec.where_run == WhereRun::Me {
                self.world.me_forwarders[rec.fwdr_index as usize]
                    .prog
                    .istore_slots()
            } else {
                0
            };
            self.submit_ctl(ControlVerb::Install { fid, slots });
        }
    }

    /// Overrun detector: per-epoch attempted-cost averages against the
    /// declared install-time cost, through the shared
    /// [`npr_vrp::runtime_overrun`] predicate.
    fn check_overruns(&mut self, at: Time) {
        let mut verdicts: Vec<(WhereRun, u32, bool)> = Vec::new();
        for (&fwdr, &stat) in &self.sa.fwdr_stats {
            let prev = self
                .health
                .sa_stat_snapshot
                .get(&fwdr)
                .copied()
                .unwrap_or_default();
            let pkts = stat.pkts - prev.pkts;
            let cycles = stat.attempted_cycles - prev.attempted_cycles;
            let declared = self
                .sa
                .forwarders
                .get(fwdr as usize)
                .map(|f| f.cycles)
                .unwrap_or(0);
            let over = pkts > 0
                && npr_vrp::runtime_overrun(
                    declared,
                    cycles as f64 / pkts as f64,
                    self.health.overrun_factor,
                );
            verdicts.push((WhereRun::Sa, fwdr, over));
        }
        self.health.sa_stat_snapshot = self.sa.fwdr_stats.clone();
        for (&fwdr, &stat) in &self.pe.fwdr_stats {
            let prev = self
                .health
                .pe_stat_snapshot
                .get(&fwdr)
                .copied()
                .unwrap_or_default();
            let pkts = stat.pkts - prev.pkts;
            let cycles = stat.attempted_cycles - prev.attempted_cycles;
            let declared = self
                .pe
                .forwarders
                .get(fwdr as usize)
                .map(|f| f.cycles)
                .unwrap_or(0);
            let over = pkts > 0
                && npr_vrp::runtime_overrun(
                    declared,
                    cycles as f64 / pkts as f64,
                    self.health.overrun_factor,
                );
            verdicts.push((WhereRun::Pe, fwdr, over));
        }
        self.health.pe_stat_snapshot = self.pe.fwdr_stats.clone();
        for (wr, fwdr, over) in verdicts {
            self.escalate(wr, fwdr, over, at);
        }
    }

    /// Trap detector: an ME forwarder producing `trap_threshold`+
    /// interpreter traps in one epoch bypassed verification somehow.
    /// Unattributed traps (measurement pads) are counted in
    /// `Counters::vrp_traps` but never escalate.
    fn check_me_traps(&mut self, at: Time) {
        let n = self.world.me_traps.len();
        if self.health.me_trap_snapshot.len() < n {
            self.health.me_trap_snapshot.resize(n, 0);
        }
        let mut verdicts: Vec<(u32, bool)> = Vec::new();
        for i in 0..n {
            let delta = self.world.me_traps[i] - self.health.me_trap_snapshot[i];
            self.health.me_trap_snapshot[i] = self.world.me_traps[i];
            verdicts.push((i as u32, delta >= self.health.trap_threshold));
        }
        for (fwdr, over) in verdicts {
            self.escalate(WhereRun::Me, fwdr, over, at);
        }
    }

    /// Advances (or clears) the escalation ladder for one target.
    /// Slow-path forwarders climb warn -> throttle -> quarantine; ME
    /// forwarders have no throttle rung (the interpreter already bounds
    /// their cycles), so they climb warn -> quarantine.
    fn escalate(&mut self, wr: WhereRun, fwdr: u32, over: bool, at: Time) {
        let key = (wr, fwdr);
        if !over {
            if self.health.ladders.remove(&key).is_some() {
                match wr {
                    WhereRun::Sa => {
                        self.sa.throttled.remove(&fwdr);
                    }
                    WhereRun::Pe => {
                        self.pe.throttled.remove(&fwdr);
                    }
                    WhereRun::Me => {}
                }
            }
            return;
        }
        let ladder = self
            .health
            .ladders
            .entry(key)
            .or_insert(Ladder { streak: 0, first_at: at });
        ladder.streak += 1;
        let (streak, first_at) = (ladder.streak, ladder.first_at);
        let quarantine_rung = if wr == WhereRun::Me { 2 } else { 3 };
        if streak == 1 {
            self.health.stats.warnings += 1;
        } else if streak == 2 && wr != WhereRun::Me {
            self.health.stats.throttles += 1;
            match wr {
                WhereRun::Sa => {
                    self.sa.throttled.insert(fwdr);
                }
                WhereRun::Pe => {
                    self.pe.throttled.insert(fwdr);
                }
                WhereRun::Me => unreachable!(),
            }
        }
        if streak == quarantine_rung {
            self.quarantine(wr, fwdr, at, first_at);
        }
    }

    /// Quarantines a forwarder: unbinds it from the classifier (its
    /// flows fall back to the default IP forwarder) and re-aims its
    /// in-flight packets at the null forwarder so they drain cleanly —
    /// the conservation ledger never sees a quarantine.
    fn quarantine(&mut self, wr: WhereRun, fwdr: u32, at: Time, first_at: Time) {
        if let Some(fid) = self
            .installs
            .iter()
            .find(|(_, r)| r.where_run == wr && r.fwdr_index == fwdr)
            .map(|(&f, _)| f)
        {
            self.world.classifier.unbind(fid);
        }
        match wr {
            WhereRun::Pe => {
                for q in &mut self.pe.inbound {
                    for item in q.iter_mut() {
                        if item.fwdr == fwdr {
                            item.fwdr = u32::MAX;
                        }
                    }
                }
                for e in self.world.escalations.values_mut() {
                    if let Escalation::Pe { fwdr: f, .. } = e {
                        if *f == fwdr {
                            *f = u32::MAX;
                        }
                    }
                }
                self.pe.throttled.remove(&fwdr);
            }
            WhereRun::Sa => {
                for e in self.world.escalations.values_mut() {
                    if let Escalation::SaLocal { fwdr: f } = e {
                        if *f == fwdr {
                            *f = u32::MAX;
                        }
                    }
                }
                self.sa.throttled.remove(&fwdr);
            }
            WhereRun::Me => {}
        }
        self.health.ladders.remove(&(wr, fwdr));
        self.health.stats.quarantines += 1;
        self.health.stats.recoveries += 1;
        self.health.stats.recovery_latency_sum_ps += at.saturating_sub(first_at);
        self.health.quarantined.push((wr, fwdr));
    }
}
