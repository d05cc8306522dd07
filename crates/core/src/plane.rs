//! Processor-level planes and the typed inter-plane message fabric.
//!
//! The router is three processors behind one event loop. Each level is
//! a [`Plane`]: the MicroEngines ([`FastPath`]), the StrongARM
//! ([`crate::sa::StrongArm`]), and the Pentium
//! ([`crate::pe::Pentium`]). A plane owns only its level-local state;
//! the hardware every level shares — the packet world, the PCI bus, the
//! IXP machine, the event queue — travels through a [`Bus`] borrowed
//! for the duration of one [`Plane::step`].
//!
//! Inter-plane communication is a [`PlaneEvent`] scheduled on the
//! shared queue; [`PlaneEvent::dest`] names the receiving plane, so the
//! composition root (`Router::dispatch`) is a three-way match with no
//! knowledge of what the messages mean. Context programs running
//! inside the machine model only see the world, so they raise
//! [`PlaneSignal`]s there; the dispatcher drains them into events after
//! every step (this replaces the old `world.sa_signal` bool).
//!
//! # The simulated control path
//!
//! `install / remove / getdata / setdata` used to be out-of-band Rust
//! calls; the paper's operations run *on* the hierarchy (section 4.5)
//! and must contend with data traffic. Admission control and
//! bookkeeping stay synchronous (the operator learns immediately
//! whether the request is admissible), but the operation itself is a
//! [`ControlOp`] that traverses the levels with real costs:
//!
//! 1. [`PlaneEvent::CtlSubmit`] — the op originates at the Pentium,
//!    which marshals it for `ctl_pe_cycles`, sharing the single
//!    Pentium server with packet forwarders.
//! 2. The descriptor (plus ME program words or `setdata` payload)
//!    crosses the PCI bus as an ordinary transaction, contending with
//!    packet DMA.
//! 3. [`PlaneEvent::CtlAdmit`] — the StrongARM fields the doorbell and
//!    executes the op for `ctl_sa_cycles`, ahead of packet work on its
//!    single server.
//! 4. For ME code, [`PlaneEvent::CtlApply`] lands the write in the
//!    instruction store: the mirroring input MicroEngines freeze for
//!    the 80-cycles-per-slot write window (section 4.5's "requires
//!    disabling the parallel processor").
//!
//! `getdata` replies cross the bus a second time, upward. Every stage
//! charges its level's cycle accounting, so control load is visible in
//! the `Report` and in PCI utilization.

use npr_ixp::{IStore, Ixp, IxpEv, Sched};
use npr_sim::{cycles_to_ps, EventQueue, Time, Wakeup};

use crate::config::RouterConfig;
use crate::install::Fid;
use crate::pci::Pci;
use crate::pe::PeItem;
use crate::world::RouterWorld;

/// The three processor levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneId {
    /// MicroEngines: the line-rate fast path.
    Fast,
    /// The StrongARM: bridge, local forwarders, route-miss handler.
    StrongArm,
    /// The Pentium: control forwarders and the operator interface.
    Pentium,
}

/// What a control operation does once it reaches its level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlVerb {
    /// Activate an installed forwarder. `slots > 0` means ME code that
    /// must be written into the instruction store (freezing the input
    /// engines for the write window); `slots == 0` is a StrongARM or
    /// Pentium jump-table registration.
    Install {
        /// The forwarder being activated.
        fid: Fid,
        /// ISTORE slots its code occupies (ME only).
        slots: usize,
    },
    /// Deactivate a forwarder; ME removals rewrite the store under the
    /// same freeze window as installs.
    Remove {
        /// The forwarder being removed.
        fid: Fid,
        /// ISTORE slots being reclaimed (ME only).
        slots: usize,
    },
    /// Read `bytes` of flow state back to the operator.
    GetData {
        /// The forwarder whose state is read.
        fid: Fid,
        /// State bytes crossing the bus upward.
        bytes: usize,
    },
    /// Write `bytes` of flow state.
    SetData {
        /// The forwarder whose state is written.
        fid: Fid,
        /// Payload bytes riding the downward descriptor.
        bytes: usize,
    },
}

/// One in-flight control operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlOp {
    /// Submission order (also the op's identity in traces).
    pub seq: u64,
    /// What to do.
    pub verb: ControlVerb,
    /// Submission time (latency accounting).
    pub issued: Time,
}

impl ControlOp {
    /// Bytes of the Pentium-to-StrongARM descriptor transaction:
    /// descriptor + ME program words (4 B per ISTORE slot) + `setdata`
    /// payload.
    pub fn pci_down_bytes(&self, desc_bytes: usize) -> usize {
        desc_bytes
            + match self.verb {
                ControlVerb::Install { slots, .. } => slots * 4,
                ControlVerb::SetData { bytes, .. } => bytes,
                _ => 0,
            }
    }

    /// Bytes of the upward reply transaction (`getdata` only).
    pub fn pci_up_bytes(&self, desc_bytes: usize) -> usize {
        match self.verb {
            ControlVerb::GetData { bytes, .. } => desc_bytes + bytes,
            _ => 0,
        }
    }

    /// ISTORE slots this op rewrites on the fast path (0 = the op
    /// terminates at the StrongARM).
    pub fn istore_slots(&self) -> usize {
        match self.verb {
            ControlVerb::Install { slots, .. } | ControlVerb::Remove { slots, .. } => slots,
            _ => 0,
        }
    }
}

/// Typed inter-plane messages on the shared event queue.
///
/// Every queue operation moves one of these, and machine events are
/// nearly all of the traffic, so the enum stays at 24 bytes: the rare
/// Pentium and control payloads are boxed rather than widening every
/// variant (`plane_event_stays_small` guards the size).
#[derive(Debug)]
pub enum PlaneEvent {
    /// Fast path: a machine event (context dispatch, DMA completion,
    /// token arrival, ...).
    Machine(IxpEv),
    /// Fast path: an admitted control op lands in the instruction
    /// store (freeze window starts now).
    CtlApply(Box<ControlOp>),
    /// StrongARM: look for work.
    SaPoll,
    /// StrongARM: the current job finished. The generation number guards
    /// against stale completions: a watchdog soft reset bumps the
    /// StrongARM's generation, so a `SaDone` scheduled by the wedged job
    /// is ignored when it finally fires.
    SaDone {
        /// StrongARM generation that scheduled this completion.
        gen: u64,
    },
    /// StrongARM: a control op crossed the bus from the Pentium.
    CtlAdmit(Box<ControlOp>),
    /// Watchdog pulse: scheduled by the health monitor when it first
    /// observes a stall, so detection happens at the configured bound
    /// even if the event queue would otherwise go quiet. A no-op at the
    /// plane (the monitor samples after every dispatched event). Never
    /// scheduled on a healthy run — the fault-free schedule stays
    /// bit-identical.
    HealthPulse,
    /// Pentium: a packet arrived over PCI.
    PeArrive(Box<PeItem>),
    /// Pentium: look for work.
    PeWake,
    /// Pentium: the current job finished.
    PeDone,
    /// Pentium: a write-back crossed the bus (back toward the IXP; the
    /// fast path's output loop picks the queued descriptor up from
    /// SRAM, so the event terminates at the Pentium plane, which owns
    /// the I2O buffer being released).
    PeWriteback {
        /// IXP-side descriptor.
        desc: u32,
        /// Possibly modified head bytes.
        head: Box<[u8; 64]>,
    },
    /// Pentium: the operator submitted a control op.
    CtlSubmit(Box<ControlOp>),
}

impl PlaneEvent {
    /// The plane this event is delivered to.
    pub fn dest(&self) -> PlaneId {
        match self {
            PlaneEvent::Machine(_) | PlaneEvent::CtlApply(_) => PlaneId::Fast,
            PlaneEvent::SaPoll
            | PlaneEvent::SaDone { .. }
            | PlaneEvent::CtlAdmit(_)
            | PlaneEvent::HealthPulse => PlaneId::StrongArm,
            PlaneEvent::PeArrive(_)
            | PlaneEvent::PeWake
            | PlaneEvent::PeDone
            | PlaneEvent::PeWriteback { .. }
            | PlaneEvent::CtlSubmit(_) => PlaneId::Pentium,
        }
    }
}

/// Signals raised by context programs running inside the machine model.
/// Programs only see the world (they cannot schedule events), so they
/// leave a typed note that the dispatcher converts into a [`PlaneEvent`]
/// after the step completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneSignal {
    /// An input context staged an escalated packet for the StrongARM.
    WakeSa,
}

/// Control-plane accounting: totals since construction. `Router::mark`
/// snapshots the whole struct (it is `Copy`), and the report diffs
/// against the snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtlStats {
    /// Operations submitted.
    pub submitted: u64,
    /// Operations that reached their terminal level.
    pub completed: u64,
    /// Pentium cycles spent marshalling.
    pub pe_cycles: u64,
    /// StrongARM cycles spent admitting/executing.
    pub sa_cycles: u64,
    /// PCI bytes moved by control descriptors.
    pub pci_bytes: u64,
    /// Sum of completion latencies (submit to terminal), ps.
    pub latency_sum_ps: u64,
    /// Worst completion latency, ps.
    pub latency_max_ps: u64,
}

impl CtlStats {
    /// Operations submitted but not yet completed.
    pub fn in_flight(&self) -> u64 {
        self.submitted - self.completed
    }

    /// Records `op` reaching its terminal level at `done`.
    pub fn complete(&mut self, op: &ControlOp, done: Time) {
        self.completed += 1;
        let lat = done.saturating_sub(op.issued);
        self.latency_sum_ps += lat;
        self.latency_max_ps = self.latency_max_ps.max(lat);
    }
}

/// Adapts the shared [`EventQueue`] to the machine's [`Sched`] trait.
pub(crate) struct IxpSched<'a>(pub &'a mut EventQueue<PlaneEvent>);

impl Sched for IxpSched<'_> {
    fn now(&self) -> Time {
        self.0.now()
    }
    fn at(&mut self, t: Time, ev: IxpEv) {
        self.0.schedule(t, PlaneEvent::Machine(ev));
    }
}

/// The hardware all planes share, borrowed for one step. Level-local
/// state stays on the plane (`&mut self`); everything cross-cutting —
/// packet world, PCI bus, machine, clock, wakers, control accounting —
/// goes through here.
pub struct Bus<'a> {
    /// Shared data-plane state.
    pub world: &'a mut RouterWorld,
    /// The PCI bus + I2O buffers.
    pub pci: &'a mut Pci,
    /// The IXP machine (memories, ports, freeze control).
    pub ixp: &'a mut Ixp<RouterWorld>,
    /// Router configuration.
    pub cfg: &'a RouterConfig,
    /// Control-plane accounting.
    pub ctl: &'a mut CtlStats,
    pub(crate) events: &'a mut EventQueue<PlaneEvent>,
    pub(crate) sa_waker: &'a mut Wakeup,
    pub(crate) pe_waker: &'a mut Wakeup,
}

impl Bus<'_> {
    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.events.now()
    }

    /// Schedules `ev` at absolute time `t`.
    pub fn send_at(&mut self, t: Time, ev: PlaneEvent) {
        self.events.schedule(t, ev);
    }

    /// Schedules `ev` `delay` after now.
    pub fn send_in(&mut self, delay: Time, ev: PlaneEvent) {
        self.events.schedule_in(delay, ev);
    }

    /// Requests a StrongARM poll at absolute time `t`, coalescing
    /// same-timestamp duplicates.
    pub fn wake_sa_at(&mut self, t: Time) {
        if self.sa_waker.request(t) {
            self.events.schedule(t, PlaneEvent::SaPoll);
        }
    }

    /// Requests a StrongARM poll `delay` after now.
    pub fn wake_sa_in(&mut self, delay: Time) {
        self.wake_sa_at(self.events.now() + delay);
    }

    /// Requests a Pentium wakeup `delay` after now, coalescing
    /// same-timestamp duplicates.
    pub fn wake_pe_in(&mut self, delay: Time) {
        let t = self.events.now() + delay;
        if self.pe_waker.request(t) {
            self.events.schedule(t, PlaneEvent::PeWake);
        }
    }

    /// Feeds a machine event into the IXP model.
    pub fn machine(&mut self, ev: IxpEv) {
        let mut s = IxpSched(&mut *self.events);
        self.ixp.handle(ev, &mut *self.world, &mut s);
    }

    /// Admits a packet DMA of `bytes` on the PCI bus (under the fault
    /// plane); returns its completion time.
    pub fn pci_transfer(&mut self, bytes: usize) -> Time {
        let now = self.events.now();
        self.pci
            .transfer_faulty(now, bytes, self.ixp.fault_plan_mut())
    }

    /// Admits a control-descriptor DMA: same shared bus, but the bytes
    /// are charged to control accounting.
    pub fn ctl_pci_transfer(&mut self, bytes: usize) -> Time {
        self.ctl.pci_bytes += bytes as u64;
        let now = self.events.now();
        self.pci.transfer(now, bytes)
    }

    /// Converts signals left in the world by context programs into
    /// events. Called by the dispatcher after every plane step.
    pub fn drain_signals(&mut self) {
        while let Some(sig) = self.world.signals.pop() {
            match sig {
                PlaneSignal::WakeSa => self.wake_sa_in(0),
            }
        }
    }
}

/// A processor level: reacts to its own [`PlaneEvent`]s, touching
/// shared hardware only through the [`Bus`].
pub trait Plane {
    /// Which level this is.
    fn id(&self) -> PlaneId;
    /// Handles one event addressed to this plane at time `at`.
    fn step(&mut self, at: Time, ev: PlaneEvent, bus: &mut Bus<'_>);
}

/// The MicroEngine level. The actual fast-path work lives in the
/// context programs inside the machine model; this plane routes
/// machine events in and lands admitted control writes in the
/// instruction store.
#[derive(Debug)]
pub struct FastPath {
    /// Input MicroEngines mirroring the instruction store (frozen for
    /// the duration of a store write).
    pub input_mes: usize,
}

impl Plane for FastPath {
    fn id(&self) -> PlaneId {
        PlaneId::Fast
    }

    fn step(&mut self, at: Time, ev: PlaneEvent, bus: &mut Bus<'_>) {
        match ev {
            PlaneEvent::Machine(e) => bus.machine(e),
            PlaneEvent::CtlApply(op) => {
                // Writing the instruction store "requires disabling the
                // parallel processor" (section 4.5): every input engine
                // mirroring the store sits idle for the write window —
                // running contexts finish their current op and stall
                // until the thaw. The op completes when the write does.
                let slots = op.istore_slots();
                let until = at + cycles_to_ps(IStore::install_cycles(slots));
                for me in 0..self.input_mes {
                    bus.ixp.freeze_me(me, until);
                }
                bus.ctl.complete(&op, until);
            }
            other => debug_assert!(false, "misrouted event {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(verb: ControlVerb) -> ControlOp {
        ControlOp {
            seq: 0,
            verb,
            issued: 0,
        }
    }

    #[test]
    fn events_route_to_their_level() {
        assert_eq!(PlaneEvent::SaPoll.dest(), PlaneId::StrongArm);
        assert_eq!(PlaneEvent::PeDone.dest(), PlaneId::Pentium);
        assert_eq!(
            PlaneEvent::CtlSubmit(Box::new(op(ControlVerb::GetData { fid: 1, bytes: 4 }))).dest(),
            PlaneId::Pentium
        );
        assert_eq!(
            PlaneEvent::CtlAdmit(Box::new(op(ControlVerb::SetData { fid: 1, bytes: 4 }))).dest(),
            PlaneId::StrongArm
        );
        assert_eq!(
            PlaneEvent::CtlApply(Box::new(op(ControlVerb::Install { fid: 1, slots: 9 }))).dest(),
            PlaneId::Fast
        );
    }

    #[test]
    fn plane_event_stays_small() {
        // Each schedule and pop moves one event; a large variant would
        // inflate all of them, machine events included.
        let size = core::mem::size_of::<PlaneEvent>();
        assert!(
            size <= 24,
            "PlaneEvent is {size} bytes; box the new payload"
        );
    }

    #[test]
    fn control_op_bus_sizing() {
        let ins = op(ControlVerb::Install { fid: 1, slots: 10 });
        assert_eq!(ins.pci_down_bytes(32), 32 + 40);
        assert_eq!(ins.pci_up_bytes(32), 0);
        assert_eq!(ins.istore_slots(), 10);
        let get = op(ControlVerb::GetData { fid: 1, bytes: 64 });
        assert_eq!(get.pci_down_bytes(32), 32);
        assert_eq!(get.pci_up_bytes(32), 96);
        assert_eq!(get.istore_slots(), 0);
        let set = op(ControlVerb::SetData { fid: 1, bytes: 24 });
        assert_eq!(set.pci_down_bytes(32), 56);
        assert_eq!(set.istore_slots(), 0);
    }

    #[test]
    fn ctl_stats_track_latency_and_in_flight() {
        let mut s = CtlStats {
            submitted: 2,
            ..Default::default()
        };
        assert_eq!(s.in_flight(), 2);
        let o = ControlOp {
            seq: 0,
            verb: ControlVerb::GetData { fid: 1, bytes: 0 },
            issued: 100,
        };
        s.complete(&o, 700);
        assert_eq!(s.in_flight(), 1);
        assert_eq!(s.latency_sum_ps, 600);
        assert_eq!(s.latency_max_ps, 600);
    }
}
