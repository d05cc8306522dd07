//! The Pentium level: installed control forwarders under proportional
//! share (paper, sections 3.7 / 4.1 / 4.6), plus the origin of the
//! control interface — `install`/`remove`/`getdata`/`setdata` are
//! marshalled here before crossing the bus, sharing the single Pentium
//! server with packet forwarders.

use std::collections::{HashMap, HashSet, VecDeque};

use npr_packet::BufferHandle;
use npr_sim::Time;

use crate::costs::PeCosts;
use crate::health::FwdrStat;
use crate::pci::ROUTING_HEADER_BYTES;
use crate::plane::{Bus, ControlOp, Plane, PlaneEvent, PlaneId};
use crate::sched::Stride;
use crate::world::RouterWorld;

/// Signature of a Pentium forwarder: the lazily-fetched head bytes plus
/// world access (control forwarders update routes / read monitors).
pub type PePacketFn = Box<dyn FnMut(&mut [u8; 64], &mut RouterWorld) -> PeAction + Send>;

/// What a Pentium forwarder did with its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeAction {
    /// Write the (possibly modified) packet back to the IXP for
    /// transmission.
    Forward,
    /// Discard.
    Drop,
    /// Consume (control traffic: routing updates, monitor reports).
    Consume,
}

/// A packet as it exists on the Pentium: the lazily transferred head
/// plus retrieval metadata.
#[derive(Debug, Clone)]
pub struct PeItem {
    /// Queue descriptor on the IXP side.
    pub desc: u32,
    /// Flow class (stride-scheduler input).
    pub flow: u8,
    /// Jump-table index (`u32::MAX` = null forwarder).
    pub fwdr: u32,
    /// First 64 bytes of the packet.
    pub head: [u8; 64],
    /// Full frame length.
    pub len: u16,
    /// MP count (for write-back sizing).
    pub mps: u8,
    /// True when only the head crossed the bus.
    pub lazy: bool,
}

/// An installed Pentium forwarder.
pub struct PeForwarder {
    /// Name for reports.
    pub name: String,
    /// Cycles at 733 MHz per packet.
    pub cycles: u64,
    /// Proportional-share tickets.
    pub tickets: u64,
    /// Admission-control declaration: expected packets per second.
    pub expected_pps: u64,
    /// The transformation (head bytes + world access for control
    /// forwarders that update routes or read monitor state).
    pub f: PePacketFn,
}

impl std::fmt::Debug for PeForwarder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeForwarder")
            .field("name", &self.name)
            .field("cycles", &self.cycles)
            .field("tickets", &self.tickets)
            .finish()
    }
}

/// Pentium state.
#[derive(Debug)]
pub struct Pentium {
    /// Cost model.
    pub costs: PeCosts,
    /// Per-flow-class inbound queues (the I2O full queue, demultiplexed
    /// by classification done on the IXP).
    pub inbound: Vec<std::collections::VecDeque<PeItem>>,
    /// The proportional-share scheduler over flow classes.
    pub stride: Stride,
    /// Installed forwarders.
    pub forwarders: Vec<PeForwarder>,
    /// Busy flag: `Some(item)` while processing.
    pub current: Option<PeItem>,
    /// Pending control operations awaiting marshalling (served before
    /// packets; counted in control accounting, not in `done`).
    pub ctl_q: VecDeque<ControlOp>,
    /// Control op being marshalled (the server is single: never busy
    /// with a packet and a control op at once).
    pub ctl_current: Option<ControlOp>,
    /// Extra delay-loop cycles per packet (spare-cycle probing).
    pub delay_loop_cycles: u64,
    /// Busy picoseconds.
    pub busy_ps: Time,
    /// Packets completed.
    pub done: u64,
    /// Jobs finished since construction (packets *and* control ops) —
    /// the health monitor's progress signal.
    pub jobs_finished: u64,
    /// Injected per-packet overrun cycles per forwarder (fault hook).
    pub overruns: HashMap<u32, u64>,
    /// Forwarders throttled by the health monitor.
    pub throttled: HashSet<u32>,
    /// Attempted-cost accounting per forwarder, fed to the
    /// runtime-overrun detector.
    pub fwdr_stats: HashMap<u32, FwdrStat>,
}

impl Pentium {
    /// Creates a Pentium with `classes` flow classes of equal tickets.
    pub fn new(costs: PeCosts, classes: usize) -> Self {
        let mut stride = Stride::new();
        for _ in 0..classes {
            stride.add_flow(100);
        }
        Self {
            costs,
            inbound: (0..classes).map(|_| Default::default()).collect(),
            stride,
            forwarders: Vec::new(),
            current: None,
            ctl_q: VecDeque::new(),
            ctl_current: None,
            delay_loop_cycles: 0,
            busy_ps: 0,
            done: 0,
            jobs_finished: 0,
            overruns: HashMap::new(),
            throttled: HashSet::new(),
            fwdr_stats: HashMap::new(),
        }
    }

    /// Polices a forwarder's runtime cost: returns the extra cycles to
    /// charge this packet (0 when well-behaved or throttled) and
    /// records the *attempted* cost for the overrun detector.
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

    /// Fault hook: makes forwarder `fwdr` overrun its declared budget
    /// by `extra` cycles per packet (0 restores good behavior).
    pub fn misbehave(&mut self, fwdr: u32, extra: u64) {
        if extra == 0 {
            self.overruns.remove(&fwdr);
        } else {
            self.overruns.insert(fwdr, extra);
        }
    }

    /// True when any inbound queue has work.
    pub fn has_work(&self) -> bool {
        self.inbound.iter().any(|q| !q.is_empty())
    }

    /// Picks the next item per the stride scheduler.
    pub fn pick(&mut self) -> Option<PeItem> {
        let inbound = &self.inbound;
        let flow = self.stride.pick(|i| !inbound[i].is_empty())?;
        self.inbound[flow].pop_front()
    }

    /// Cycles to process `item`.
    pub fn cycles_for(&self, item: &PeItem) -> u64 {
        let f = self
            .forwarders
            .get(item.fwdr as usize)
            .map(|f| f.cycles)
            .unwrap_or(0);
        let body = if item.lazy {
            0
        } else {
            u64::from(item.mps.saturating_sub(1)) * self.costs.per_extra_mp
        };
        self.costs.null_base + f + body + self.delay_loop_cycles
    }

    /// Total inbound occupancy.
    pub fn backlog(&self) -> usize {
        self.inbound.iter().map(|q| q.len()).sum()
    }

    /// Clears accounting.
    pub fn reset_stats(&mut self) {
        self.busy_ps = 0;
        self.done = 0;
    }

    fn wake(&mut self, bus: &mut Bus<'_>) {
        if self.current.is_some() || self.ctl_current.is_some() {
            return;
        }
        // Control operations first: rare, latency-bounded, and they
        // must not starve behind a packet backlog.
        if let Some(op) = self.ctl_q.pop_front() {
            let cycles = bus.cfg.ctl_pe_cycles;
            bus.ctl.pe_cycles += cycles;
            let dur = cycles * npr_sim::PS_PER_PENTIUM_CYCLE;
            self.busy_ps += dur;
            self.ctl_current = Some(op);
            bus.send_in(dur, PlaneEvent::PeDone);
            return;
        }
        let Some(item) = self.pick() else { return };
        let cycles = self.cycles_for(&item) + self.police(item.fwdr);
        let dur = cycles * npr_sim::PS_PER_PENTIUM_CYCLE;
        self.busy_ps += dur;
        self.current = Some(item);
        bus.send_in(dur, PlaneEvent::PeDone);
    }

    fn finish(&mut self, bus: &mut Bus<'_>) {
        let now = bus.now();
        // A marshalled control op heads down the bus to the StrongARM.
        // Control descriptors do not claim I2O packet buffers.
        if let Some(op) = self.ctl_current.take() {
            self.jobs_finished += 1;
            let bytes = op.pci_down_bytes(bus.cfg.ctl_desc_bytes);
            let done_t = bus.ctl_pci_transfer(bytes);
            bus.send_at(done_t, PlaneEvent::CtlAdmit(Box::new(op)));
            bus.wake_pe_in(0);
            return;
        }
        let Some(mut item) = self.current.take() else {
            return;
        };
        self.jobs_finished += 1;
        self.done += 1;
        bus.world.counters.pe_done.inc();
        let action = match self.forwarders.get_mut(item.fwdr as usize) {
            Some(f) => (f.f)(&mut item.head, bus.world),
            None => PeAction::Forward,
        };
        if bus.world.traced_descs.contains(&item.desc) {
            let label = match action {
                PeAction::Forward => "forward",
                PeAction::Drop => "drop",
                PeAction::Consume => "consume",
            };
            bus.world
                .tracer
                .record(now, crate::trace::TraceStep::Pentium { action: label });
            if action != PeAction::Forward {
                bus.world.traced_descs.remove(&item.desc);
            }
        }
        match action {
            PeAction::Forward => {
                let bytes = if item.lazy {
                    64 + ROUTING_HEADER_BYTES
                } else {
                    usize::from(item.len) + ROUTING_HEADER_BYTES
                };
                let done_t = bus.pci_transfer(bytes);
                bus.send_at(
                    done_t,
                    PlaneEvent::PeWriteback {
                        desc: item.desc,
                        head: Box::new(item.head),
                    },
                );
            }
            PeAction::Drop => {
                bus.world.counters.pe_drops.inc();
                bus.pci.release_buffer();
                bus.wake_sa_in(0);
            }
            PeAction::Consume => {
                bus.world.counters.pe_consumed.inc();
                bus.pci.release_buffer();
                bus.wake_sa_in(0);
            }
        }
        bus.wake_pe_in(0);
    }

    fn writeback(&mut self, bus: &mut Bus<'_>, desc: u32, head: &[u8; 64]) {
        bus.pci.release_buffer();
        let h = BufferHandle::from_descriptor(desc);
        if bus.world.pool.read(h).is_some() {
            let meta = *bus.world.meta_of(h);
            let n = usize::from(meta.len).min(64);
            if n > 0 {
                bus.world.pool.write_at(h, 0, &head[..n]);
            }
            bus.world.queues.enqueue(usize::from(meta.qid), desc);
        } else {
            bus.world.counters.lap_losses.inc();
        }
        bus.wake_sa_in(0);
    }
}

impl Plane for Pentium {
    fn id(&self) -> PlaneId {
        PlaneId::Pentium
    }

    fn step(&mut self, _at: Time, ev: PlaneEvent, bus: &mut Bus<'_>) {
        match ev {
            PlaneEvent::PeArrive(item) => {
                let flow = usize::from(item.flow).min(self.inbound.len() - 1);
                self.inbound[flow].push_back(*item);
                bus.wake_pe_in(0);
            }
            PlaneEvent::PeWake => self.wake(bus),
            PlaneEvent::PeDone => self.finish(bus),
            PlaneEvent::PeWriteback { desc, head } => self.writeback(bus, desc, &head),
            PlaneEvent::CtlSubmit(op) => {
                self.ctl_q.push_back(*op);
                bus.wake_pe_in(0);
            }
            other => debug_assert!(false, "misrouted event {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(flow: u8) -> PeItem {
        PeItem {
            desc: 0,
            flow,
            fwdr: u32::MAX,
            head: [0; 64],
            len: 60,
            mps: 1,
            lazy: true,
        }
    }

    #[test]
    fn null_cost_matches_calibration() {
        let pe = Pentium::new(PeCosts::default(), 1);
        assert_eq!(pe.cycles_for(&item(0)), 872);
    }

    #[test]
    fn full_body_costs_more() {
        let pe = Pentium::new(PeCosts::default(), 1);
        let mut it = item(0);
        it.mps = 24;
        it.lazy = false;
        assert!(pe.cycles_for(&it) > 872);
    }

    #[test]
    fn stride_serves_classes_proportionally() {
        let mut pe = Pentium::new(PeCosts::default(), 2);
        pe.stride.set_tickets(0, 300);
        pe.stride.set_tickets(1, 100);
        for _ in 0..400 {
            pe.inbound[0].push_back(item(0));
            pe.inbound[1].push_back(item(1));
        }
        let mut served = [0u32; 2];
        for _ in 0..200 {
            let it = pe.pick().unwrap();
            served[usize::from(it.flow)] += 1;
        }
        assert!(served[0] > served[1] * 2, "{served:?}");
    }

    #[test]
    fn pick_on_empty_returns_none() {
        let mut pe = Pentium::new(PeCosts::default(), 2);
        assert!(pe.pick().is_none());
        assert!(!pe.has_work());
        assert_eq!(pe.backlog(), 0);
    }
}
