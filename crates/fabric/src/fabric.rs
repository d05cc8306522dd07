//! The fabric proper: N member routers wired by a [`Topology`], with
//! inter-chassis links as modeled servers and one driver.
//!
//! Each member is a full [`Router`] whose gigabit ports `8..8+u` are
//! the internal uplinks, wrapped in a [`MemberShard`] — the unit of
//! parallelism for `npr_sim::delivery`. [`Fabric::run_lockstep`] is
//! the only way to step the fabric: the epoch grid is the link latency
//! (the minimum cross-chassis latency, hence a safe lookahead), members
//! advance concurrently under a chosen thread count, and cross-shard
//! frames are merged deterministically on `(arrival, source,
//! emission)` so every thread count is bit-identical to the
//! single-threaded oracle (DESIGN.md §13). The thread count picks a
//! `Delivery` strategy; the dispatcher is the same for all of them.
//!
//! Frames delivered to a member are tagged with the member's current
//! *generation*; [`Fabric::rejoin_chassis`] bumps it, so anything
//! addressed to a previous incarnation is fenced at the queue (counted,
//! never delivered) — the same generation-fence idiom the StrongARM
//! soft reset uses inside one chassis.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use npr_core::{Router, RouterConfig};
use npr_ixp::TrafficSource;
use npr_packet::{EthernetFrame, Frame, Ipv4Header, MacAddr, Mp};
use npr_route::NextHop;
use npr_sim::{run_threads, EngineStats, Outbox, Shard, Time};

use crate::topology::{FabricConfig, Steer, Topology, Wire, UPLINK_PORT};
use crate::Link;

/// A timestamped, generation-tagged frame queue shared between the
/// fabric and a member port. `Arc<Mutex<..>>` rather than
/// `Rc<RefCell<..>>` so a shard (and the router inside it) is `Send`;
/// the lock is never contended — only the thread currently stepping
/// the owning shard touches it.
type SharedFrameQueue = Arc<Mutex<VecDeque<(Time, u64, Frame)>>>;

/// A pull source backed by a shared queue the fabric pushes into.
/// Frames tagged with a stale generation (their target incarnation was
/// torn down by a chassis re-join) are fenced here: counted, skipped,
/// never delivered to the new incarnation.
struct SharedQueueSource {
    q: SharedFrameQueue,
    generation: Arc<AtomicU64>,
    taken: Arc<AtomicU64>,
    fenced: Arc<AtomicU64>,
}

impl TrafficSource for SharedQueueSource {
    fn next_frame(&mut self) -> Option<(Time, Frame)> {
        let mut q = self.q.lock().expect("uplink queue poisoned");
        let cur = self.generation.load(Ordering::Relaxed);
        while let Some((at, gen, frame)) = q.pop_front() {
            if gen == cur {
                self.taken.fetch_add(1, Ordering::Relaxed);
                return Some((at, frame));
            }
            self.fenced.fetch_add(1, Ordering::Relaxed);
        }
        None
    }
}

/// One member fabric port: the physical port, where its wire leads,
/// the modeled link it transmits onto, and the inbox frames arrive in.
pub(crate) struct FabricPort {
    /// Physical port index (`UPLINK_PORT + fabric-port index`).
    pub(crate) port: usize,
    pub(crate) wire: Wire,
    pub(crate) link: Link,
    /// Frames switched toward this member, pulled by the port source.
    pub(crate) inbox: SharedFrameQueue,
    /// Frames the source actually delivered into the router.
    pub(crate) taken: Arc<AtomicU64>,
}

/// One chassis as a delivery shard: the router, its fabric ports, and
/// the switch-side state that belongs to this member (reassembly of
/// *its* transmitted MPs, its share of the switch counters).
pub struct MemberShard {
    pub(crate) router: Router,
    /// This member's index.
    pub(crate) k: usize,
    /// Total member count (for subnet ownership routing).
    pub(crate) n: usize,
    pub(crate) ports: Vec<FabricPort>,
    /// Current incarnation; bumped by [`Fabric::rejoin_chassis`].
    pub(crate) generation: u64,
    /// Shared with every port source (they read it when fencing).
    pub(crate) gen_cell: Arc<AtomicU64>,
    /// Stale-generation frames fenced at this member's queues.
    pub(crate) fenced: Arc<AtomicU64>,
    /// Partial frames being reassembled from captured uplink MPs,
    /// keyed by (fabric-port index, frame id); the `Time` is the last
    /// MP's completion, for age-out.
    pub(crate) partial: HashMap<(usize, u64), (Time, Vec<Mp>)>,
    /// Age after which an incomplete reassembly is abandoned.
    pub(crate) reassembly_age_ps: Time,
    /// Frames abandoned mid-reassembly (closing MP never arrived —
    /// e.g. a corrupted position tag carried through cut-through).
    pub(crate) assembly_drops: u64,
    /// Frames this member pushed through the fabric.
    pub(crate) switched: u64,
    /// Frames from this member that no one owns.
    pub(crate) switch_drops: u64,
    /// Fabric-port rx/tx totals of previous incarnations (a re-join
    /// rebuilds the router and zeroes its counters; conservation
    /// carries them forward).
    pub(crate) rx_carry: u64,
    pub(crate) tx_carry: u64,
    /// The resident route-updater, installed lazily on first re-steer.
    pub(crate) updater: Option<npr_core::Fid>,
}

impl MemberShard {
    /// Drains this member's captured uplink MPs, reassembles complete
    /// frames, routes them per-wire, and carries them across the link
    /// model: returns `(dest, dest_port_ix, arrival, frame)` for every
    /// switchable frame, counting unroutable ones as switch drops and
    /// down-link ones in the link's own ledger.
    /// `now` drives the reassembly age-out: an entry untouched for
    /// `reassembly_age_ps` is abandoned and counted, so a frame whose
    /// closing MP never arrives (a corrupted position tag carried
    /// through cut-through) can't pin switch state forever.
    fn collect_switched(&mut self, now: Time) -> Vec<(usize, usize, Time, Frame)> {
        let mut out = Vec::new();
        for ix in 0..self.ports.len() {
            let port = self.ports[ix].port;
            let cap = self.router.ixp.hw.ports[port]
                .tx_capture
                .take()
                .unwrap_or_default();
            self.router.ixp.hw.ports[port].tx_capture = Some(Vec::new());
            for (done, mp) in cap {
                let fid = mp.frame_id;
                let ends = mp.tag.ends_packet();
                let entry = self.partial.entry((ix, fid)).or_insert((done, Vec::new()));
                entry.0 = done;
                entry.1.push(mp);
                if !ends {
                    continue;
                }
                let (_, mps) = self.partial.remove(&(ix, fid)).expect("entry just touched");
                let frame = Mp::reassemble(&mps);
                let (dest, dest_port_ix) = match self.ports[ix].wire {
                    Wire::Switch { port_ix } => match owner_of(&frame, self.n) {
                        Some(dest) if dest != self.k => (dest, port_ix),
                        _ => {
                            self.switch_drops += 1;
                            continue;
                        }
                    },
                    Wire::Point { dest, dest_port_ix } => (dest, dest_port_ix),
                };
                if let Some(at) = self.ports[ix].link.transit(done, frame.len()) {
                    out.push((dest, dest_port_ix, at, frame));
                    self.switched += 1;
                }
            }
        }
        let age = self.reassembly_age_ps;
        let before = self.partial.len();
        self.partial.retain(|_, (touched, _)| *touched + age > now);
        self.assembly_drops += (before - self.partial.len()) as u64;
        out
    }

    /// Queues a switched frame for this member's port `ix` source,
    /// tagged with the member's current generation.
    fn enqueue(&self, ix: usize, at: Time, frame: Frame) {
        self.ports[ix]
            .inbox
            .lock()
            .expect("uplink queue poisoned")
            .push_back((at, self.gen_cell.load(Ordering::Relaxed), frame));
    }

    pub(crate) fn queued(&self) -> u64 {
        self.ports
            .iter()
            .map(|p| p.inbox.lock().expect("uplink queue poisoned").len() as u64)
            .sum()
    }

    pub(crate) fn link_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.link.drops).sum()
    }

    pub(crate) fn fabric_rx(&self) -> u64 {
        self.rx_carry
            + self
                .ports
                .iter()
                .map(|p| p.taken.load(Ordering::Relaxed))
                .sum::<u64>()
    }

    pub(crate) fn fabric_tx(&self) -> u64 {
        self.tx_carry
            + self
                .ports
                .iter()
                .map(|p| self.router.ixp.hw.ports[p.port].tx_frames)
                .sum::<u64>()
    }
}

impl Shard for MemberShard {
    type Msg = (usize, Frame);

    fn next_time(&self) -> Option<Time> {
        self.router.next_event_time()
    }

    fn advance(&mut self, horizon: Time, out: &mut Outbox<(usize, Frame)>) {
        self.router.run_until(horizon);
        for (dest, ix, at, frame) in self.collect_switched(horizon) {
            out.send(dest, at, (ix, frame));
        }
    }

    fn deliver(&mut self, at: Time, (ix, frame): (usize, Frame)) {
        self.enqueue(ix, at, frame);
    }

    fn flush(&mut self) {
        for ix in 0..self.ports.len() {
            let nonempty = !self.ports[ix]
                .inbox
                .lock()
                .expect("uplink queue poisoned")
                .is_empty();
            if nonempty {
                self.router.poke_port(self.ports[ix].port);
            }
        }
    }
}

/// Which member of an `n`-member fabric owns a frame's destination
/// subnet. Member `k` owns `10.(k*8 + p).0.0/16` for its eight
/// external ports `p`.
pub fn owner_of(frame: &[u8], n: usize) -> Option<usize> {
    let eth = EthernetFrame::parse(frame).ok()?;
    let ip = Ipv4Header::parse(eth.payload()).ok()?;
    let b = ip.dst.to_be_bytes();
    if b[0] != 10 {
        return None;
    }
    let owner = usize::from(b[1]) / 8;
    (owner < n).then_some(owner)
}

/// A multi-chassis router fabric.
pub struct Fabric {
    pub(crate) topology: Topology,
    pub(crate) cfgs: Vec<RouterConfig>,
    pub(crate) link_latency_ps: Time,
    pub(crate) link_capacity_bps: u64,
    pub(crate) shards: Vec<MemberShard>,
    pub(crate) clock: Time,
    /// The member currently administratively drained, if any.
    pub(crate) drained: Option<usize>,
    /// Shadow of the fabric-programmed routes: `routes[k][net]` is the
    /// port member `k` currently steers `10.net/16` to (`None` =
    /// removed). Re-steering diffs against this so only real changes
    /// ride the control path.
    pub(crate) routes: Vec<Vec<Option<u8>>>,
    /// Replayable per-member provisioning (installs, rules); re-applied
    /// through a fresh incarnation's control path on re-join.
    pub(crate) provision: Vec<Option<Box<dyn Fn(&mut Router) + Send>>>,
    /// Route updates applied via the simulated control path.
    pub(crate) resteer_ops: u64,
    /// Measurement mark (see [`Fabric::mark`]).
    pub(crate) mark_clock: Time,
    pub(crate) mark_external_tx: u64,
}

impl Fabric {
    /// Builds a fabric from config-driven wiring. Member `k` owns the
    /// subnets `10.(k*8 + p).0.0/16` for its eight external ports `p`;
    /// every foreign subnet routes onto the fabric per the topology's
    /// steering.
    pub fn new(cfg: FabricConfig) -> Self {
        let n = cfg.members.len();
        let fports = cfg.topology.fabric_ports(n);
        let mut fabric = Self {
            topology: cfg.topology,
            cfgs: cfg.members,
            link_latency_ps: cfg.link_latency_ps,
            link_capacity_bps: cfg.link_capacity_bps,
            shards: Vec::new(),
            clock: 0,
            drained: None,
            routes: vec![vec![None; n * 8]; n],
            provision: (0..n).map(|_| None).collect(),
            resteer_ops: 0,
            mark_clock: 0,
            mark_external_tx: 0,
        };
        for k in 0..n {
            let channels: Vec<_> = fports
                .iter()
                .map(|_| {
                    (
                        Arc::new(Mutex::new(VecDeque::new())) as SharedFrameQueue,
                        Arc::new(AtomicU64::new(0)),
                    )
                })
                .collect();
            let gen_cell = Arc::new(AtomicU64::new(0));
            let fenced = Arc::new(AtomicU64::new(0));
            let (router, routes) = fabric.boot_member(k, n, &fports, &channels, &gen_cell, &fenced);
            fabric.routes[k] = routes;
            fabric.shards.push(MemberShard {
                router,
                k,
                n,
                ports: fports
                    .iter()
                    .zip(&channels)
                    .map(|(&ix, (q, taken))| FabricPort {
                        port: UPLINK_PORT + ix,
                        wire: fabric.topology.wire(k, ix, n),
                        link: Link::new(fabric.link_latency_ps, fabric.link_capacity_bps),
                        inbox: Arc::clone(q),
                        taken: Arc::clone(taken),
                    })
                    .collect(),
                generation: 0,
                gen_cell,
                fenced,
                partial: HashMap::new(),
                reassembly_age_ps: cfg.reassembly_age_ps,
                switched: 0,
                switch_drops: 0,
                assembly_drops: 0,
                rx_carry: 0,
                tx_carry: 0,
                updater: None,
            });
        }
        fabric
    }

    /// The pre-refactor constructor: `n` members behind one ideal
    /// gigabit switch (bit-identical to the old `npr_core::Fabric`).
    pub fn single_switch(n: usize, base: RouterConfig) -> Self {
        Self::new(FabricConfig::single_switch(n, base))
    }

    /// Boots one member router: RI capacity budgeted for the internal
    /// links, fabric routes programmed per the topology's *current*
    /// steering (all links up at first boot; the live view on
    /// re-join), uplink tx captured, and the shared inbox queues
    /// attached as pull sources. Returns the router and its programmed
    /// route shadow. Used both at construction and by
    /// [`Fabric::rejoin_chassis`] (same boot path, fresh incarnation).
    pub(crate) fn boot_member(
        &self,
        k: usize,
        n: usize,
        fports: &[usize],
        channels: &[(SharedFrameQueue, Arc<AtomicU64>)],
        gen_cell: &Arc<AtomicU64>,
        fenced: &Arc<AtomicU64>,
    ) -> (Router, Vec<Option<u8>>) {
        let mut cfg = self.cfgs[k].clone();
        if !fports.is_empty() {
            // The uplinks are extra serviced ports: they take input
            // capacity from the rotation (the paper's point about
            // budgeting RI capacity for the internal link) and need
            // their own output contexts; one uplink yields the
            // pre-refactor 3-ME/2.25-ME split (12 in, 9 out).
            cfg.ports_in_use = 8 + fports.len();
            cfg.input_ctxs = 12;
            cfg.output_ctxs = 8 + fports.len();
        }
        let mut r = Router::new(cfg);
        // Replace the default routes with fabric-wide ones.
        let mut routes = vec![None; n * 8];
        for net in 0..(n * 8) as u8 {
            let owner = usize::from(net) / 8;
            let port = match self.steer(k, owner) {
                Steer::Local => Some((usize::from(net) % 8) as u8),
                Steer::Port(ix) => Some((UPLINK_PORT + fports[ix]) as u8),
                Steer::Unreachable => None,
            };
            if let Some(port) = port {
                r.world.table.insert(
                    u32::from_be_bytes([10, net, 0, 0]),
                    16,
                    NextHop {
                        port,
                        mac: MacAddr::for_port(port),
                    },
                );
            }
            routes[usize::from(net)] = port;
        }
        // Capture uplink transmissions for the fabric.
        for (&ix, (q, taken)) in fports.iter().zip(channels) {
            r.ixp.hw.ports[UPLINK_PORT + ix].tx_capture = Some(Vec::new());
            r.attach_source(
                UPLINK_PORT + ix,
                Box::new(SharedQueueSource {
                    q: Arc::clone(q),
                    generation: Arc::clone(gen_cell),
                    taken: Arc::clone(taken),
                    fenced: Arc::clone(fenced),
                }),
            );
        }
        (r, routes)
    }

    /// The current steering decision for member `k` toward member `j`,
    /// under live link state and any active drain.
    pub(crate) fn steer(&self, k: usize, j: usize) -> Steer {
        let n = self.cfgs.len();
        let shards = &self.shards;
        let up = move |m: usize, ix: usize| {
            // During construction the shard vector is still growing;
            // unbuilt members have every link up.
            shards.get(m).is_none_or(|s| s.ports[ix].link.up)
        };
        self.topology.steer(k, j, n, &up, self.drained)
    }

    /// Number of member routers.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when the fabric has no members.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The wiring this fabric was built with.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Member router `k`.
    pub fn member(&self, k: usize) -> &Router {
        &self.shards[k].router
    }

    /// Member router `k`, mutably (attach sources, inspect state).
    pub fn member_mut(&mut self, k: usize) -> &mut Router {
        &mut self.shards[k].router
    }

    /// Iterates the member routers.
    pub fn members(&self) -> impl Iterator<Item = &Router> {
        self.shards.iter().map(|s| &s.router)
    }

    /// Frames switched between members.
    pub fn switched(&self) -> u64 {
        self.shards.iter().map(|s| s.switched).sum()
    }

    /// Frames that arrived at the switch with no owning member.
    pub fn switch_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.switch_drops).sum()
    }

    /// Frames dropped on down inter-chassis links.
    pub fn link_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.link_drops()).sum()
    }

    /// Stale-generation frames fenced at re-joined members' queues.
    pub fn fenced_drops(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.fenced.load(Ordering::Relaxed))
            .sum()
    }

    /// Uplink frames abandoned mid-reassembly by the switch-layer
    /// age-out.
    pub fn assembly_drops(&self) -> u64 {
        self.shards.iter().map(|s| s.assembly_drops).sum()
    }

    /// Frames sitting in fabric inboxes, not yet pulled by a member.
    pub fn queued_frames(&self) -> u64 {
        self.shards.iter().map(|s| s.queued()).sum()
    }

    /// Member `k`'s link on fabric port `ix` (stats, up/down state).
    pub fn link(&self, k: usize, ix: usize) -> &Link {
        &self.shards[k].ports[ix].link
    }

    /// Runs the whole fabric until `t` under the conservative parallel
    /// engine: epoch grid = the link latency (the cross-chassis
    /// lookahead; serialization on a finite-capacity link only pushes
    /// arrivals later), `threads` ≤ 1 selects the lock-step sequential
    /// oracle, larger counts the `Parallel` strategy. Bit-identical at
    /// every thread count — gated by the fabric differential suite.
    pub fn run_lockstep(&mut self, t: Time, threads: usize) -> EngineStats {
        for s in &mut self.shards {
            // The engine polls `next_time` before any shard advances;
            // an unstarted router would look idle and end the run.
            s.router.start();
        }
        let stats = run_threads(threads, &mut self.shards, self.link_latency_ps, t);
        self.clock = self.clock.max(t);
        stats
    }

    /// MPs captured from member `k`'s uplinks that still await the rest
    /// of their frame (reassembly state spans epoch boundaries).
    pub fn pending_uplink_mps(&self, k: usize) -> usize {
        self.shards[k].partial.values().map(|(_, v)| v.len()).sum()
    }

    /// Total frames transmitted on external ports across all members.
    pub fn external_tx(&self) -> u64 {
        self.members()
            .map(|r| r.ixp.hw.ports[..8].iter().map(|p| p.tx_frames).sum::<u64>())
            .sum()
    }

    /// Total drops anywhere in the fabric.
    pub fn total_drops(&self) -> u64 {
        self.switch_drops()
            + self.link_drops()
            + self.fenced_drops()
            + self.assembly_drops()
            + self
                .members()
                .map(|r| {
                    r.world.queues.total_drops()
                        + r.ixp
                            .hw
                            .ports
                            .iter()
                            .map(|p| p.rx_frames_dropped)
                            .sum::<u64>()
                })
                .sum::<u64>()
    }

    /// FNV-fold of every member's [`Router::fingerprint`] plus the
    /// fabric-level switch counters — the one-number equality the
    /// parallel differential suite compares across thread counts. The
    /// fold is exactly the pre-refactor one while the new machinery is
    /// idle (no link drops, no fences, first incarnations), so the
    /// single-switch pins survive the refactor; once any of it engages,
    /// its counters join the fold.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for s in &self.shards {
            mix(s.router.fingerprint());
            mix(s.switched);
            mix(s.switch_drops);
            mix(s.partial.values().map(|(_, v)| v.len() as u64).sum());
            let link_drops = s.link_drops();
            let fenced = s.fenced.load(Ordering::Relaxed);
            if link_drops | fenced | s.generation | s.assembly_drops != 0 {
                mix(link_drops);
                mix(fenced);
                mix(s.generation);
                mix(s.assembly_drops);
            }
        }
        h
    }
}
