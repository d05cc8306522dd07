//! The StrongARM level (paper, sections 3.6 / 4.1).
//!
//! The StrongARM runs a minimal OS that (1) acts as a bridge forwarding
//! packets to the Pentium, and (2) supports a small collection of local
//! forwarders — including the route-cache miss handler that runs the
//! full prefix match. Pentium-bound packets have priority over local
//! work ("we currently implement a simple priority scheme that gives
//! packets being passed up to the Pentium precedence over packets that
//! are to be processed locally"). Control operations arriving over the
//! bus ([`PlaneEvent::CtlAdmit`]) take precedence over everything: they
//! are rare, and bounding their latency is what makes the operator
//! interface usable.
//!
//! [`StrongArm`] is the plane for this level: it owns the job state and
//! jump table, and reacts to its [`PlaneEvent`]s through the shared
//! [`Bus`].

use std::collections::{HashMap, HashSet, VecDeque};

use npr_packet::BufferHandle;
use npr_sim::{cycles_to_ps, FaultClass, Time};

use crate::costs::SaCosts;
use crate::health::FwdrStat;
use crate::pci::ROUTING_HEADER_BYTES;
use crate::pe::PeItem;
use crate::plane::{Bus, ControlOp, Plane, PlaneEvent, PlaneId};
use crate::router::build_udp_frame;
use crate::world::{Escalation, PktMeta, RouterWorld};

/// Shortest injected wedge hang (`FaultClass::SaWedge`), in
/// picoseconds. Chosen far above any legitimate job (the costliest
/// bridge is ~25 us) and far above the default watchdog detection bound
/// (4 epochs x 50 us = 200 us), so a wedge is always caught mid-hang.
pub const SA_WEDGE_MIN_PS: Time = 500_000_000;

/// Spread of the injected hang above [`SA_WEDGE_MIN_PS`] (uniform).
pub const SA_WEDGE_SPREAD_PS: Time = 500_000_000;

/// Signature of a StrongARM-local packet transformation: owned bytes
/// (resizable) + metadata; `false` drops the packet.
pub type SaPacketFn = Box<dyn FnMut(&mut Vec<u8>, &mut PktMeta) -> bool + Send>;

/// A StrongARM-local forwarder: a jump-table entry. The forwarder owns
/// the packet bytes for the duration of the call and may grow or shrink
/// them (ICMP replies replace the offending packet wholesale).
pub struct SaForwarder {
    /// Name for reports.
    pub name: String,
    /// Cycles at 200 MHz this forwarder costs per packet.
    pub cycles: u64,
    /// The packet transformation. Returns `false` to drop.
    pub f: SaPacketFn,
}

impl std::fmt::Debug for SaForwarder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SaForwarder")
            .field("name", &self.name)
            .field("cycles", &self.cycles)
            .finish()
    }
}

/// The job the StrongARM is currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaJob {
    /// Bridging a packet toward the Pentium.
    Bridge {
        /// Queue descriptor.
        desc: u32,
        /// Pentium flow class.
        flow: u8,
        /// Pentium forwarder index (`u32::MAX` = null).
        fwdr: u32,
    },
    /// Running a local forwarder.
    Local {
        /// Queue descriptor.
        desc: u32,
        /// Local jump-table index (`u32::MAX` = null).
        fwdr: u32,
    },
    /// Resolving a route-cache miss via the trie.
    Miss {
        /// Queue descriptor.
        desc: u32,
    },
    /// Synthetic feed for the Table 4 experiment: the StrongARM
    /// manufactures a packet of the configured size and bridges it.
    SynthBridge,
    /// Executing a control operation that crossed the bus.
    Control(ControlOp),
}

/// StrongARM state.
#[derive(Debug)]
pub struct StrongArm {
    /// Cost model.
    pub costs: SaCosts,
    /// Currently executing job (None = idle).
    pub job: Option<SaJob>,
    /// Extra per-packet delay-loop cycles (spare-cycle probing).
    pub delay_loop_cycles: u64,
    /// Use interrupts instead of polling (slower; section 3.6).
    pub use_interrupts: bool,
    /// Local forwarder jump table.
    pub forwarders: Vec<SaForwarder>,
    /// Synthetic feed: `(frame_len, lazy_body)`; `None` = disabled.
    pub synth_feed: Option<(usize, bool)>,
    /// Busy picoseconds (for spare-cycle accounting).
    pub busy_ps: Time,
    /// Packets completed (any packet job kind; control ops are counted
    /// in [`crate::plane::CtlStats`] instead).
    pub done: u64,
    /// Control operations awaiting execution (served before packets).
    pub ctl_q: VecDeque<ControlOp>,
    /// Jobs finished since construction (packets *and* control ops) —
    /// the health monitor's progress signal: a held `job` with no
    /// `jobs_finished` movement across epochs is a wedge.
    pub jobs_finished: u64,
    /// Reset generation. Bumped by [`StrongArm::soft_reset`] so stale
    /// `SaDone` completions from the pre-reset job are ignored.
    pub gen: u64,
    /// Completion time of the current job (busy-time rollback on reset).
    pub job_done_at: Time,
    /// Injected per-packet overrun cycles per local forwarder (the
    /// fault hook behind the runtime-budget detector).
    pub overruns: HashMap<u32, u64>,
    /// Forwarders throttled by the health monitor: their overrun is no
    /// longer charged (the scheduler preempts at the declared cost).
    pub throttled: HashSet<u32>,
    /// Attempted-cost accounting per local forwarder, fed to the
    /// runtime-overrun detector.
    pub fwdr_stats: HashMap<u32, FwdrStat>,
}

impl StrongArm {
    /// Creates an idle StrongARM.
    pub fn new(costs: SaCosts) -> Self {
        Self {
            costs,
            job: None,
            delay_loop_cycles: 0,
            use_interrupts: false,
            forwarders: Vec::new(),
            synth_feed: None,
            busy_ps: 0,
            done: 0,
            ctl_q: VecDeque::new(),
            jobs_finished: 0,
            gen: 0,
            job_done_at: 0,
            overruns: HashMap::new(),
            throttled: HashSet::new(),
            fwdr_stats: HashMap::new(),
        }
    }

    /// Cycles to bridge a packet of `mps` MPs toward the Pentium.
    pub fn bridge_cycles(&self, mps: u8, lazy: bool) -> u64 {
        let extra = if lazy {
            0
        } else {
            u64::from(mps.saturating_sub(1))
        };
        let base = self.costs.bridge_base + extra * self.costs.bridge_per_extra_mp;
        let intr = if self.use_interrupts {
            self.costs.interrupt_overhead
        } else {
            0
        };
        base + intr + self.delay_loop_cycles
    }

    /// Cycles for a local job running jump-table entry `fwdr`.
    pub fn local_cycles(&self, fwdr: u32) -> u64 {
        let f = self
            .forwarders
            .get(fwdr as usize)
            .map(|f| f.cycles)
            .unwrap_or(0);
        let intr = if self.use_interrupts {
            self.costs.interrupt_overhead
        } else {
            0
        };
        self.costs.local_base + f + intr + self.delay_loop_cycles
    }

    /// Cycles for a route-miss job touching `levels` trie levels.
    pub fn miss_cycles(&self, levels: u32) -> u64 {
        self.costs.local_base + u64::from(levels) * self.costs.lookup_per_level
    }

    /// Clears accounting for a measurement window.
    pub fn reset_stats(&mut self) {
        self.busy_ps = 0;
        self.done = 0;
    }
}

/// True when the packet's MPs are all in DRAM (the StrongARM must not
/// act on a frame whose tail is still arriving on the wire; the paper
/// retrieves bodies lazily for the same reason).
fn assembled(world: &RouterWorld, desc: u32) -> bool {
    let h = BufferHandle::from_descriptor(desc);
    let m = world.meta_of(h);
    m.mps_total != 0 && m.mps_written >= m.mps_total
}

impl StrongArm {
    /// Defers an incomplete packet: re-queues it and schedules a retry
    /// after the configured interval.
    fn defer(
        &mut self,
        bus: &mut Bus<'_>,
        q: fn(&mut RouterWorld) -> &mut crate::queues::PacketQueue,
        desc: u32,
    ) {
        q(bus.world).enqueue(desc);
        bus.wake_sa_in(bus.cfg.sa_defer_interval_ps);
    }

    /// Declares a never-assembling escalated packet dead once its
    /// assembly was aborted (truncated frame) or it has been deferred
    /// past the liveness bound. Returns `true` when the descriptor was
    /// discarded — its terminal drop is counted here, exactly once.
    fn give_up(&mut self, bus: &mut Bus<'_>, desc: u32) -> bool {
        let h = BufferHandle::from_descriptor(desc);
        let meta = bus.world.meta_mut(h);
        meta.deferrals += 1;
        if meta.aborted || meta.deferrals > bus.cfg.sa_max_deferrals {
            bus.world.escalations.remove(&desc);
            bus.world.counters.truncated_drops.inc();
            return true;
        }
        false
    }

    fn poll(&mut self, bus: &mut Bus<'_>) {
        if self.job.is_some() {
            return;
        }
        let now = bus.now();
        // Priority 0: control operations (rare; latency-bounded).
        if let Some(op) = self.ctl_q.pop_front() {
            let cycles = bus.cfg.ctl_sa_cycles;
            bus.ctl.sa_cycles += cycles;
            self.begin_job(bus, SaJob::Control(op), cycles, now);
            return;
        }
        // Priority 1: Pentium-bound staging queues.
        for f in 0..bus.world.sa_pe_q.len() {
            if bus.world.sa_pe_q[f].is_empty() {
                continue;
            }
            if !bus.pci.claim_buffer() {
                break; // No Pentium buffers: try local work instead.
            }
            let desc = bus.world.sa_pe_q[f].dequeue().expect("non-empty");
            if !assembled(bus.world, desc) {
                bus.pci.release_buffer();
                if self.give_up(bus, desc) {
                    continue;
                }
                bus.world.sa_pe_q[f].enqueue(desc);
                bus.wake_sa_in(bus.cfg.sa_defer_interval_ps);
                continue;
            }
            let esc = bus.world.escalations.remove(&desc);
            let fwdr = match esc {
                Some(Escalation::Pe { fwdr, .. }) => fwdr,
                _ => u32::MAX,
            };
            let h = BufferHandle::from_descriptor(desc);
            let mps = bus.world.meta_of(h).mps_total.max(1);
            let cycles = self.bridge_cycles(mps, bus.cfg.lazy_body);
            self.begin_job(
                bus,
                SaJob::Bridge {
                    desc,
                    flow: f as u8,
                    fwdr,
                },
                cycles,
                now,
            );
            return;
        }
        // Priority 2: route-cache misses.
        if let Some(desc) = bus.world.sa_miss_q.dequeue() {
            if !assembled(bus.world, desc) {
                if self.give_up(bus, desc) {
                    bus.wake_sa_in(0);
                    return;
                }
                self.defer(bus, |w| &mut w.sa_miss_q, desc);
                return;
            }
            bus.world.escalations.remove(&desc);
            let h = BufferHandle::from_descriptor(desc);
            let dst = bus
                .world
                .pool
                .read(h)
                .and_then(crate::router::parse_dst)
                .unwrap_or(0);
            let (_, levels) = bus.world.table.lookup_slow(dst);
            let cycles = self.miss_cycles(levels);
            self.begin_job(bus, SaJob::Miss { desc }, cycles, now);
            return;
        }
        // Priority 3: local forwarders.
        if let Some(desc) = bus.world.sa_local_q.dequeue() {
            if !assembled(bus.world, desc) {
                if self.give_up(bus, desc) {
                    bus.wake_sa_in(0);
                    return;
                }
                self.defer(bus, |w| &mut w.sa_local_q, desc);
                return;
            }
            let fwdr = match bus.world.escalations.remove(&desc) {
                Some(Escalation::SaLocal { fwdr }) => fwdr,
                _ => u32::MAX,
            };
            let cycles = self.local_cycles(fwdr) + self.police(fwdr);
            // Local processing touches IXP DRAM (shared with the
            // MicroEngines): charge the controller.
            bus.ixp.dram.access(now, npr_ixp::Rw::Read, 64);
            bus.ixp.dram.access(now, npr_ixp::Rw::Write, 64);
            self.begin_job(bus, SaJob::Local { desc, fwdr }, cycles, now);
            return;
        }
        // Synthetic feed (Table 4).
        if let Some((len, lazy)) = self.synth_feed {
            if bus.pci.claim_buffer() {
                let mps = npr_packet::Mp::count_for_len(len) as u8;
                let cycles = self.bridge_cycles(mps, lazy);
                self.begin_job(bus, SaJob::SynthBridge, cycles, now);
            }
            // Else: a PeWriteback/PeDone will re-poll us.
        }
    }

    fn begin_job(&mut self, bus: &mut Bus<'_>, job: SaJob, cycles: u64, now: Time) {
        self.job = Some(job);
        let mut dur = cycles_to_ps(cycles);
        // Injected wedge: the job hangs far past any legitimate cost.
        // The watchdog must detect and reset before the hang resolves.
        if let Some(f) = bus.ixp.fault_plan_mut() {
            if f.roll(FaultClass::SaWedge) {
                dur += f.draw_window(FaultClass::SaWedge, SA_WEDGE_MIN_PS, SA_WEDGE_SPREAD_PS);
            }
        }
        self.busy_ps += dur;
        self.job_done_at = now + dur;
        bus.send_at(now + dur, PlaneEvent::SaDone { gen: self.gen });
    }

    /// Polices a local forwarder's runtime cost: returns the extra
    /// cycles to charge this packet (0 when well-behaved or throttled)
    /// and records the *attempted* cost for the overrun detector.
    fn police(&mut self, fwdr: u32) -> u64 {
        let extra = self.overruns.get(&fwdr).copied().unwrap_or(0);
        if extra == 0 {
            return 0;
        }
        let declared = self
            .forwarders
            .get(fwdr as usize)
            .map(|f| f.cycles)
            .unwrap_or(0);
        let stat = self.fwdr_stats.entry(fwdr).or_default();
        stat.pkts += 1;
        stat.attempted_cycles += declared + extra;
        if self.throttled.contains(&fwdr) {
            0 // The throttle rung preempts at the declared cost.
        } else {
            extra
        }
    }

    /// Fault hook: makes local forwarder `fwdr` overrun its declared
    /// budget by `extra` cycles per packet (0 restores good behavior).
    pub fn misbehave(&mut self, fwdr: u32, extra: u64) {
        if extra == 0 {
            self.overruns.remove(&fwdr);
        } else {
            self.overruns.insert(fwdr, extra);
        }
    }

    /// Watchdog soft reset (paper, section 5: the StrongARM "can be
    /// rebooted without disturbing the MicroEngines"). Abandons the
    /// wedged job losslessly — the held packet re-enters the staging
    /// queue it came from — rolls back the phantom busy time, and bumps
    /// the generation so the stale completion event is ignored. The
    /// caller (the health monitor) replays verified installs afterward.
    pub fn soft_reset(&mut self, bus: &mut Bus<'_>) {
        let now = bus.now();
        self.gen += 1;
        if self.job_done_at > now {
            self.busy_ps = self.busy_ps.saturating_sub(self.job_done_at - now);
            self.job_done_at = now;
        }
        match self.job.take() {
            Some(SaJob::Bridge { desc, flow, fwdr }) => {
                bus.pci.release_buffer();
                bus.world
                    .escalations
                    .insert(desc, Escalation::Pe { flow, fwdr });
                if !bus.world.sa_pe_q[usize::from(flow)].enqueue(desc) {
                    bus.world.escalations.remove(&desc);
                }
            }
            Some(SaJob::Local { desc, fwdr }) => {
                bus.world
                    .escalations
                    .insert(desc, Escalation::SaLocal { fwdr });
                if !bus.world.sa_local_q.enqueue(desc) {
                    bus.world.escalations.remove(&desc);
                }
            }
            Some(SaJob::Miss { desc }) => {
                bus.world.escalations.insert(desc, Escalation::SaMiss);
                if !bus.world.sa_miss_q.enqueue(desc) {
                    bus.world.escalations.remove(&desc);
                }
            }
            Some(SaJob::SynthBridge) => {
                bus.pci.release_buffer();
            }
            Some(SaJob::Control(op)) => {
                self.ctl_q.push_front(op);
            }
            None => {}
        }
        bus.wake_sa_in(0);
    }

    /// Resolves the route for an escalated packet whose classification
    /// missed the cache (the StrongARM owns the trie). Returns `false`
    /// when the packet has no route and must be dropped.
    fn resolve_route(bus: &mut Bus<'_>, h: BufferHandle) -> bool {
        if !bus.world.meta_of(h).needs_route {
            return true;
        }
        let dst = bus.world.pool.read(h).and_then(crate::router::parse_dst);
        let nh = dst.and_then(|d| bus.world.table.lookup_and_fill(d).0);
        match nh {
            Some(nh) => {
                let qid = bus.world.queues.qid(usize::from(nh.port), 0) as u16;
                let meta = bus.world.meta_mut(h);
                meta.out_port = nh.port;
                meta.qid = qid;
                meta.needs_route = false;
                true
            }
            None => {
                bus.world.counters.no_route_drops.inc();
                false
            }
        }
    }

    /// Runs a local forwarder over the packet and enqueues the result.
    fn finish_local(&mut self, bus: &mut Bus<'_>, desc: u32, fwdr: u32) {
        if bus.world.traced_descs.contains(&desc) {
            let now = bus.now();
            bus.world
                .tracer
                .record(now, crate::trace::TraceStep::StrongArm { kind: "local" });
        }
        let h = BufferHandle::from_descriptor(desc);
        let mut ok = true;
        let mut lapped = false;
        match bus.world.pool.read(h).map(|b| b.to_vec()) {
            Some(mut bytes) => {
                if let Some(f) = self.forwarders.get_mut(fwdr as usize) {
                    let mut meta = *bus.world.meta_of(h);
                    ok = (f.f)(&mut bytes, &mut meta);
                    // The forwarder may have replaced the packet (ICMP
                    // generation): refresh size-derived metadata and
                    // write the bytes back; it may also have re-aimed
                    // the packet (replies go out the ingress port), so
                    // rebind the queue.
                    bytes.truncate(2048);
                    meta.len = bytes.len() as u16;
                    let mps = npr_packet::Mp::count_for_len(bytes.len()) as u8;
                    meta.mps_total = mps;
                    meta.mps_written = mps;
                    meta.qid = bus.world.queues.qid(usize::from(meta.out_port), 0) as u16;
                    *bus.world.meta_mut(h) = meta;
                    bus.world.pool.write(h, &bytes);
                }
            }
            None => {
                bus.world.counters.lap_losses.inc();
                ok = false;
                lapped = true;
            }
        }
        if !ok && !lapped {
            // The forwarder rejected or consumed the packet: this is
            // its one terminal counter (it used to vanish uncounted).
            bus.world.counters.sa_fwdr_drops.inc();
        }
        if ok {
            // Slow-path fragmentation: oversized packets are split per
            // RFC 791 before transmission, each fragment in its own
            // buffer (the DF-bit / unfragmentable case was already
            // answered by the ICMP responder or dropped).
            if let Some(mtu) = bus.world.fragment_mtu {
                let meta = *bus.world.meta_of(h);
                let needs = usize::from(meta.len).saturating_sub(14) > mtu;
                if needs {
                    let frame = bus
                        .world
                        .pool
                        .read(h)
                        .map(|b| b.to_vec())
                        .unwrap_or_default();
                    if let Some(frags) = npr_packet::ipv4::fragment(&frame, mtu) {
                        let now = bus.now();
                        let qid = usize::from(meta.qid);
                        for frag in frags {
                            let fh = bus.world.alloc_packet(frag.len() as u16, meta.in_port, now);
                            bus.world.pool.write(fh, &frag);
                            {
                                let m = bus.world.meta_mut(fh);
                                m.out_port = meta.out_port;
                                m.qid = meta.qid;
                                let mps = npr_packet::Mp::count_for_len(frag.len()) as u8;
                                m.mps_total = mps;
                                m.mps_written = mps;
                            }
                            bus.world.queues.enqueue(qid, fh.to_descriptor());
                        }
                        bus.world.counters.sa_local_done.inc();
                        return;
                    }
                    // DF set or unfragmentable: drop.
                    bus.world.counters.validation_drops.inc();
                    return;
                }
            }
            let qid = usize::from(bus.world.meta_of(h).qid);
            bus.world.queues.enqueue(qid, desc);
            bus.world.counters.sa_local_done.inc();
        }
    }

    /// Completes a control operation at this level: ME code continues
    /// to the fast path as a [`PlaneEvent::CtlApply`]; `getdata`
    /// replies cross the bus back up; everything else terminates here.
    fn finish_control(&mut self, bus: &mut Bus<'_>, op: ControlOp) {
        let now = bus.now();
        if op.istore_slots() > 0 {
            bus.send_at(now, PlaneEvent::CtlApply(Box::new(op)));
            return;
        }
        let up = op.pci_up_bytes(bus.cfg.ctl_desc_bytes);
        if up > 0 {
            let done_t = bus.ctl_pci_transfer(up);
            bus.ctl.complete(&op, done_t);
        } else {
            bus.ctl.complete(&op, now);
        }
    }

    fn finish(&mut self, bus: &mut Bus<'_>) {
        let now = bus.now();
        let Some(job) = self.job.take() else {
            return;
        };
        self.jobs_finished += 1;
        if let SaJob::Control(op) = job {
            self.finish_control(bus, op);
            bus.wake_sa_in(0);
            return;
        }
        self.done += 1;
        match job {
            SaJob::Bridge { desc, flow, fwdr } => {
                if bus.world.traced_descs.contains(&desc) {
                    bus.world
                        .tracer
                        .record(now, crate::trace::TraceStep::StrongArm { kind: "bridge" });
                }
                let h = BufferHandle::from_descriptor(desc);
                if !Self::resolve_route(bus, h) {
                    bus.pci.release_buffer();
                    bus.wake_sa_in(0);
                    return;
                }
                let (head, len, mps) = match bus.world.pool.read(h) {
                    Some(b) => {
                        let mut head = [0u8; 64];
                        let n = b.len().min(64);
                        head[..n].copy_from_slice(&b[..n]);
                        let m = bus.world.meta_of(h);
                        (head, m.len, m.mps_total.max(1))
                    }
                    None => {
                        bus.world.counters.lap_losses.inc();
                        bus.pci.release_buffer();
                        bus.wake_sa_in(0);
                        return;
                    }
                };
                let bytes = if bus.cfg.lazy_body {
                    64 + ROUTING_HEADER_BYTES
                } else {
                    usize::from(len) + ROUTING_HEADER_BYTES
                };
                let lazy = bus.cfg.lazy_body;
                let done_t = bus.pci_transfer(bytes);
                bus.send_at(
                    done_t,
                    PlaneEvent::PeArrive(Box::new(PeItem {
                        desc,
                        flow,
                        fwdr,
                        head,
                        len,
                        mps,
                        lazy,
                    })),
                );
            }
            SaJob::SynthBridge => {
                let (len, lazy) = self.synth_feed.expect("synth feed configured");
                let frame = build_udp_frame(1, 0, len);
                let h = bus.world.alloc_packet(len as u16, 9, now);
                bus.world.pool.write(h, &frame);
                let qid = bus.world.queues.qid(0, 0) as u16;
                {
                    let meta = bus.world.meta_mut(h);
                    meta.mps_written = meta.mps_total;
                    meta.out_port = 0;
                    meta.qid = qid;
                }
                let mut head = [0u8; 64];
                let n = frame.len().min(64);
                head[..n].copy_from_slice(&frame[..n]);
                let bytes = if lazy {
                    64 + ROUTING_HEADER_BYTES
                } else {
                    len + ROUTING_HEADER_BYTES
                };
                let done_t = bus.pci_transfer(bytes);
                bus.send_at(
                    done_t,
                    PlaneEvent::PeArrive(Box::new(PeItem {
                        desc: h.to_descriptor(),
                        flow: 0,
                        fwdr: u32::MAX,
                        head,
                        len: len as u16,
                        mps: npr_packet::Mp::count_for_len(len) as u8,
                        lazy,
                    })),
                );
            }
            SaJob::Local { desc, fwdr } => {
                let h = BufferHandle::from_descriptor(desc);
                if !Self::resolve_route(bus, h) {
                    bus.wake_sa_in(0);
                    return;
                }
                self.finish_local(bus, desc, fwdr);
            }
            SaJob::Miss { desc } => {
                let h = BufferHandle::from_descriptor(desc);
                let dst = bus
                    .world
                    .pool
                    .read(h)
                    .and_then(crate::router::parse_dst)
                    .unwrap_or(0);
                let (nh, _) = bus.world.table.lookup_and_fill(dst);
                match nh {
                    Some(nh) => {
                        let qid = bus.world.queues.qid(usize::from(nh.port), 0);
                        {
                            let meta = bus.world.meta_mut(h);
                            meta.out_port = nh.port;
                            meta.qid = qid as u16;
                        }
                        bus.world.queues.enqueue(qid, desc);
                        bus.world.counters.sa_local_done.inc();
                    }
                    None if bus.world.exception_sa_fwdr != u32::MAX => {
                        // Unroutable packets (including traffic for the
                        // router itself) go to the exception handler —
                        // the ICMP responder answers pings and sources
                        // Destination Unreachable.
                        let fwdr = bus.world.exception_sa_fwdr;
                        self.finish_local(bus, desc, fwdr);
                    }
                    None => {
                        // No route, no handler: drop.
                        bus.world.counters.no_route_drops.inc();
                    }
                }
            }
            SaJob::Control(_) => unreachable!("handled above"),
        }
        bus.wake_sa_in(0);
    }
}

impl Plane for StrongArm {
    fn id(&self) -> PlaneId {
        PlaneId::StrongArm
    }

    fn step(&mut self, _at: Time, ev: PlaneEvent, bus: &mut Bus<'_>) {
        match ev {
            PlaneEvent::SaPoll => self.poll(bus),
            // Completions from a pre-reset generation are stale: the
            // job they would finish was requeued by the soft reset.
            PlaneEvent::SaDone { gen } if gen == self.gen => self.finish(bus),
            PlaneEvent::SaDone { .. } => {}
            // The pulse exists to advance the clock to the watchdog
            // deadline; the monitor itself samples after the dispatch.
            PlaneEvent::HealthPulse => {}
            PlaneEvent::CtlAdmit(op) => {
                self.ctl_q.push_back(*op);
                bus.wake_sa_in(0);
            }
            other => debug_assert!(false, "misrouted event {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bridge_cycles_match_table4_calibration() {
        let sa = StrongArm::new(SaCosts::default());
        assert_eq!(sa.bridge_cycles(1, true), 374);
        // 1500 B = 24 MPs, full copy.
        let c = sa.bridge_cycles(24, false);
        assert!((4100..=4300).contains(&c), "{c}");
        // Lazy body: only the head crosses, cost stays flat.
        assert_eq!(sa.bridge_cycles(24, true), 374);
    }

    #[test]
    fn interrupts_cost_more() {
        let mut sa = StrongArm::new(SaCosts::default());
        let polling = sa.local_cycles(u32::MAX);
        sa.use_interrupts = true;
        assert!(sa.local_cycles(u32::MAX) > polling);
    }

    #[test]
    fn delay_loop_adds_cycles() {
        let mut sa = StrongArm::new(SaCosts::default());
        sa.delay_loop_cycles = 100;
        assert_eq!(sa.local_cycles(u32::MAX), 380 + 100);
        assert_eq!(sa.bridge_cycles(1, true), 374 + 100);
    }

    #[test]
    fn forwarder_cycles_included() {
        let mut sa = StrongArm::new(SaCosts::default());
        sa.forwarders.push(SaForwarder {
            name: "full-ip".into(),
            cycles: 660,
            f: Box::new(|_, _| true),
        });
        assert_eq!(sa.local_cycles(0), 380 + 660);
    }
}
