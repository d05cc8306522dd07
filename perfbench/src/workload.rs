//! The four named workloads: inputs made from the seed, the timed
//! build, the sliced horizon, and the settle and ledger checks that
//! make every run account for every packet it offered.
//!
//! Load is open-loop in simulated time: every source emits on its own
//! schedule whatever the router does, and stops at the end of the
//! horizon so the run can settle. Knobs the ROADMAP plans to retire
//! (`route_invalidation`, `vrp_backend`, the coarse-epoch
//! `Fabric::run_until`) are left at their constructor defaults or not
//! used, so their removal cannot break the benchmark.

use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use npr_core::pe::PeAction;
use npr_core::{ms, us, AqmKind, Fid, FlowKey, InstallRequest, Key, Router, RouterConfig};
use npr_fabric::{Fabric, FabricConfig};
use npr_ixp::port::PortData;
use npr_ixp::TrafficSource;
use npr_route::gen::{neighbors, sample_dsts, synth_table, TableSpec};
use npr_route::{NextHop, Route};
use npr_sim::{Time, XorShift64, PS_PER_SEC};
use npr_traffic::{CbrSource, FrameSpec, MixSource, TcpMixSource, ZipfSource};

use crate::probe::{self, Probes};

/// Per-port rate of the Zipf sources: the paper's 95% tulip source.
const ZIPF_PPS: f64 = 141_000.0;
/// Prefixes in `services_churn`'s synthetic table.
const CHURN_ROUTES: usize = 100_000;
/// Ranked destinations the `services_churn` sources draw from.
const CHURN_DSTS: usize = 8_192;
/// Route updates per simulated second on `services_churn`.
const CHURN_UPDATES_PER_S: u64 = 1_000;
/// Control packets per second for the Pentium controllers.
const CTL_PPS: f64 = 1_000.0;
/// Members of the `fabric8` cluster.
const FABRIC_MEMBERS: usize = 8;
/// Simulated step while a run settles after its horizon.
const SETTLE_STEP: Time = us(20);
/// Settle steps before a run counts as stuck (100 ms simulated).
const SETTLE_STEPS: usize = 5_000;
/// Equal slices a repetition's horizon is timed in.
const SLICES: u64 = 10;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8 ports of 95% 64-byte CBR, nothing installed.
    Flood,
    /// Zipf over a 100k-prefix table, the service suite installed, and
    /// route updates streamed down the control path.
    ServicesChurn,
    /// The per-flow CoDel bufferbloat case.
    QosOverload,
    /// An 8-chassis spine/leaf fabric under Zipf destinations.
    Fabric8,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Flood,
        Workload::ServicesChurn,
        Workload::QosOverload,
        Workload::Fabric8,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flood => "flood",
            Workload::ServicesChurn => "services_churn",
            Workload::QosOverload => "qos_overload",
            Workload::Fabric8 => "fabric8",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured horizon, timed in [`SLICES`] equal slices: about
    /// 1–2 host seconds per repetition on a 2-core host, so a run holds
    /// several repetitions. The crate's own tests run a tenth of it.
    pub fn horizon(self) -> Time {
        let horizon = match self {
            Workload::Fabric8 => ms(10),
            _ => ms(100),
        };
        if cfg!(test) {
            horizon / 10
        } else {
            horizon
        }
    }

    /// Threads the untraced run steps with: only the fabric shards.
    pub fn threads(self) -> usize {
        match self {
            Workload::Fabric8 => npr_sim::auto_threads(),
            _ => 1,
        }
    }
}

/// A workload's inputs, made from the seed before any timing starts.
pub enum Inputs {
    /// Destination net of each port's CBR stream (a derangement).
    Flood { dst_net: [u8; 8] },
    /// Table seed, the table host-side for churn picks, and each
    /// port's Zipf source.
    ServicesChurn {
        route_seed: u64,
        routes: Rc<[Route]>,
        sources: Vec<ZipfInput>,
        churn_seed: u64,
    },
    /// Source address of the victim/elephant mix (it feeds the flow
    /// hash, so it decides which flow queues collide).
    QosOverload { src: u32 },
    /// Each external port's Zipf source over every member subnet.
    Fabric8 { sources: Vec<ZipfInput> },
}

/// One Zipf source: its destination ranking (most popular first) and
/// its draw seed. Every source ranks the same destinations in its own
/// order, so the hot destinations spread over the output ports instead
/// of one seed-chosen port taking the head of every stream; that keeps
/// the work a run does nearly the same from seed to seed.
pub struct ZipfInput {
    ranking: Vec<u32>,
    seed: u64,
}

impl ZipfInput {
    /// The source at the paper's 95% rate, α = 1, unbounded (the feed
    /// cuts it at the horizon).
    fn source(&self, spec: FrameSpec) -> Box<ZipfSource> {
        Box::new(ZipfSource::new(
            spec,
            ZIPF_PPS,
            self.ranking.clone(),
            1.0,
            self.seed,
            u64::MAX,
        ))
    }
}

fn zipf_inputs(dsts: &[u32], n: usize, rng: &mut XorShift64) -> Vec<ZipfInput> {
    (0..n)
        .map(|_| {
            let mut ranking = dsts.to_vec();
            shuffle(&mut ranking, rng);
            ZipfInput {
                ranking,
                seed: rng.next_u64(),
            }
        })
        .collect()
}

impl Inputs {
    /// Makes `w`'s inputs from `seed`.
    pub fn new(w: Workload, seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut seeds = |n: usize| (0..n).map(|_| rng.next_u64()).collect::<Vec<_>>();
        match w {
            Workload::Flood => {
                let s = seeds(1)[0];
                Inputs::Flood {
                    dst_net: derangement(s),
                }
            }
            Workload::ServicesChurn => {
                let s = seeds(3);
                let route_seed = s[0];
                let routes: Rc<[Route]> =
                    synth_table(&TableSpec::internet(CHURN_ROUTES, route_seed)).into();
                let dsts = sample_dsts(&routes, CHURN_DSTS, s[1]);
                Inputs::ServicesChurn {
                    route_seed,
                    routes,
                    sources: zipf_inputs(&dsts, 8, &mut rng),
                    churn_seed: s[2],
                }
            }
            Workload::QosOverload => {
                let b = seeds(1)[0].to_le_bytes();
                Inputs::QosOverload {
                    src: u32::from_be_bytes([10, 0, b[0], b[1].max(1)]),
                }
            }
            Workload::Fabric8 => {
                let dsts: Vec<u32> = (0..FABRIC_MEMBERS * 8)
                    .flat_map(|net| {
                        (1..=16u8).map(move |h| u32::from_be_bytes([10, net as u8, 0, h]))
                    })
                    .collect();
                Inputs::Fabric8 {
                    sources: zipf_inputs(&dsts, FABRIC_MEMBERS * 8, &mut rng),
                }
            }
        }
    }
}

/// A random permutation of the eight port nets with no fixed point, so
/// no port sends to itself and no two ports share an output.
fn derangement(seed: u64) -> [u8; 8] {
    let mut rng = XorShift64::new(seed);
    let mut nets: Vec<u8> = (0..8).collect();
    loop {
        shuffle(&mut nets, &mut rng);
        if nets.iter().enumerate().all(|(p, &n)| usize::from(n) != p) {
            return nets.try_into().expect("eight nets");
        }
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut XorShift64) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Route updates streamed down the control path, as
/// `exp_route::churn_storm` does: a `setdata` descriptor (prefix, plen,
/// port) to a resident Pentium route-updater, then the table write it
/// describes, rebinding one prefix to the next neighbor on its port.
pub struct Churn {
    updater: Fid,
    routes: Rc<[Route]>,
    nbrs: Vec<NextHop>,
    per_port: usize,
    rng: XorShift64,
    next_at: Time,
    interval: Time,
}

impl Churn {
    /// Issues one update; `false` when the router refused it.
    fn update(&mut self, r: &mut Router, probes: Option<&Arc<Probes>>) -> bool {
        self.next_at += self.interval;
        let route = self.routes[self.rng.below(self.routes.len() as u64) as usize];
        let Some(cur) = r.world.table.lookup_slow(route.addr).0 else {
            return false;
        };
        let slot = self.nbrs.iter().position(|n| *n == cur).unwrap_or(0);
        let per = self.per_port;
        let next = self.nbrs[(slot / per) * per + (slot + 1) % per];
        let mut payload = route.addr.to_be_bytes().to_vec();
        payload.extend([route.plen, next.port]);
        let t0 = Instant::now();
        let ok = r.setdata(self.updater, &payload).is_ok();
        r.world.table.insert(route.addr, route.plen, next);
        if let Some(p) = probes {
            p.ctl.add_one(t0.elapsed());
        }
        ok
    }
}

/// What a workload simulates.
pub enum Target {
    /// One router.
    Router(Box<Router>),
    /// A multi-chassis fabric.
    Fabric(Box<Fabric>),
}

/// A built workload, ready to run.
pub struct Sim {
    target: Target,
    offered: Arc<AtomicU64>,
    churn: Option<Churn>,
    ctl_calls: u64,
    ctl_refused: u64,
    epochs: u64,
    msgs: u64,
}

/// Builds `w` from `inputs`: construction, installs, table load and
/// source attach — everything `setup_s` times. With `probes`, the
/// context programs, sources and Pentium closures are timed copies.
pub fn setup(inputs: &Inputs, horizon: Time, probes: Option<&Arc<Probes>>) -> Sim {
    let offered = Arc::new(AtomicU64::new(0));
    let feed = |src: Box<dyn TrafficSource>| -> Box<dyn TrafficSource> {
        probe::Feed::new(src, horizon, &offered, probes)
    };
    let (mut ctl_calls, mut ctl_refused, mut churn) = (0, 0, None);
    let target = match inputs {
        Inputs::Flood { dst_net } => {
            let mut r = new_router(RouterConfig::line_rate(), probes);
            for (p, &net) in dst_net.iter().enumerate() {
                let spec = FrameSpec {
                    src: u32::from_be_bytes([10, p as u8, 0, 2]),
                    dst: u32::from_be_bytes([10, net, 0, 1]),
                    ..FrameSpec::default()
                };
                let rate = r.cfg.chip.port_rates_bps[p];
                r.attach_source(
                    p,
                    feed(Box::new(CbrSource::new(rate, 0.95, spec, u64::MAX))),
                );
            }
            Target::Router(r)
        }
        Inputs::ServicesChurn {
            route_seed,
            routes,
            sources,
            churn_seed,
        } => {
            let mut cfg = RouterConfig::line_rate();
            cfg.synthetic_routes = CHURN_ROUTES;
            cfg.synthetic_route_seed = *route_seed;
            let mut r = new_router(cfg, probes);
            let ctl = FlowKey {
                src: u32::from_be_bytes([10, 0, 0, 9]),
                dst: u32::from_be_bytes([10, 1, 0, 1]),
                sport: 2600,
                dport: 89,
            };
            let mut installs: Vec<(Key, InstallRequest)> =
                npr_forwarders::service_suite(ctl).expect("the suite assembles");
            installs.push((
                Key::Flow(FlowKey {
                    src: 0x0909_0909,
                    dst: 0x0909_0909,
                    sport: 9,
                    dport: 9,
                }),
                InstallRequest::Pe {
                    name: "route-updater".into(),
                    cycles: 1_000,
                    tickets: 100,
                    expected_pps: CHURN_UPDATES_PER_S,
                    f: Box::new(|_, _| PeAction::Consume),
                },
            ));
            let mut updater = None;
            for (key, req) in installs {
                let req = match probes {
                    Some(p) => probe::time_pe(req, p),
                    None => req,
                };
                let t0 = Instant::now();
                updater = r.install(key, req, None).ok();
                if let Some(p) = probes {
                    p.install.add_one(t0.elapsed());
                }
                ctl_calls += 1;
                ctl_refused += u64::from(updater.is_none());
            }
            for (p, input) in sources.iter().enumerate() {
                let zipf = input.source(FrameSpec {
                    src: u32::from_be_bytes([10, p as u8, 0, 2]),
                    ..FrameSpec::default()
                });
                let src: Box<dyn TrafficSource> = if p == 0 {
                    // The controllers' own packets ride port 0 beside
                    // its Zipf stream.
                    let spec = FrameSpec {
                        src: ctl.src,
                        dst: ctl.dst,
                        sport: ctl.sport,
                        dport: ctl.dport,
                        ..FrameSpec::default()
                    };
                    let rate = r.cfg.chip.port_rates_bps[p];
                    let wire_bits = (spec.len + r.cfg.chip.wire_overhead_bytes) * 8;
                    let fraction = CTL_PPS * wire_bits as f64 / rate as f64;
                    let ctl_src = Box::new(CbrSource::new(rate, fraction, spec, u64::MAX));
                    Box::new(MixSource::new(vec![zipf, ctl_src]))
                } else {
                    zipf
                };
                r.attach_source(p, feed(src));
            }
            let spec = TableSpec::internet(CHURN_ROUTES, *route_seed);
            // The updater is the last install; without it there is no
            // churn, and its refusal already counts as a failure.
            churn = updater.map(|updater| Churn {
                updater,
                routes: Rc::clone(routes),
                nbrs: neighbors(&spec),
                per_port: usize::from(spec.neighbors_per_port),
                rng: XorShift64::new(*churn_seed),
                next_at: 0,
                interval: PS_PER_SEC / CHURN_UPDATES_PER_S,
            });
            Target::Router(r)
        }
        Inputs::QosOverload { src } => {
            // The exp_qos bufferbloat router: victims + elephant from
            // port 0 and a 0.3 CBR aggressor from port 1, all into
            // port 2, with the deeper 64-packet per-flow cap.
            let mut cfg = RouterConfig::per_flow_qos(AqmKind::Codel);
            cfg.qm_flow_cap = 64;
            cfg.qm_mem_budget_bytes = 8 << 20;
            let mut r = new_router(cfg, probes);
            let dst = u32::from_be_bytes([10, 2, 0, 1]);
            let mix = FrameSpec {
                src: *src,
                dst,
                ..FrameSpec::default()
            };
            r.attach_source(
                0,
                feed(Box::new(TcpMixSource::new(
                    mix,
                    4,
                    5_000.0,
                    100_000.0,
                    u64::MAX,
                ))),
            );
            let cbr = FrameSpec {
                src: u32::from_be_bytes([10, 1, 0, 2]),
                dst,
                ..FrameSpec::default()
            };
            let rate = r.cfg.chip.port_rates_bps[1];
            r.attach_source(1, feed(Box::new(CbrSource::new(rate, 0.3, cbr, u64::MAX))));
            Target::Router(r)
        }
        Inputs::Fabric8 { sources } => {
            let t0 = Instant::now();
            let mut f = Box::new(Fabric::new(FabricConfig::spine_leaf(
                FABRIC_MEMBERS,
                RouterConfig::line_rate(),
            )));
            if let Some(p) = probes {
                p.new.add_one(t0.elapsed());
                for k in 0..FABRIC_MEMBERS {
                    probe::time_me_programs(f.member_mut(k), p);
                }
            }
            for (i, input) in sources.iter().enumerate() {
                let zipf = input.source(FrameSpec::default());
                f.member_mut(i / 8).attach_source(i % 8, feed(zipf));
            }
            Target::Fabric(f)
        }
    };
    Sim {
        target,
        offered,
        churn,
        ctl_calls,
        ctl_refused,
        epochs: 0,
        msgs: 0,
    }
}

/// `Router::new`, timed when traced, with timed context programs.
fn new_router(cfg: RouterConfig, probes: Option<&Arc<Probes>>) -> Box<Router> {
    let t0 = Instant::now();
    let mut r = Box::new(Router::new(cfg));
    if let Some(p) = probes {
        p.new.add_one(t0.elapsed());
        probe::time_me_programs(&mut r, p);
    }
    r
}

/// One timed slice of the horizon.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Host seconds.
    pub host_s: f64,
    /// Simulated seconds.
    pub sim_s: f64,
    /// Packets delivered to the wire in the slice.
    pub delivered: u64,
}

impl Slice {
    /// Host seconds per simulated second.
    pub fn slowdown(&self) -> f64 {
        probe::ratio(self.host_s, self.sim_s)
    }

    /// Simulated packets delivered per host second, thousands.
    pub fn host_kpps(&self) -> f64 {
        probe::ratio(self.delivered as f64, self.host_s) / 1e3
    }
}

/// Everything one repetition measured.
pub struct Rep {
    /// Host seconds of the timed build.
    pub setup_s: f64,
    /// The horizon's timed slices.
    pub slices: Vec<Slice>,
    /// Offered packets plus control calls.
    pub ops: u64,
    /// Ops the drain and ledgers could not account for (see
    /// [`Sim::finish`]).
    pub failed: u64,
    /// `Router::fingerprint` / `Fabric::fingerprint` after the drain.
    pub fingerprint: u64,
    /// Simulated outcome at the end of the horizon (exact numbers).
    pub model: Vec<(&'static str, &'static str, f64)>,
    /// Lockstep epochs over the horizon (fabric only).
    pub epochs: u64,
    /// Cross-shard messages over the horizon (fabric only).
    pub msgs: u64,
    /// Packets delivered over the whole repetition, drain included.
    pub delivered: u64,
    /// Host seconds of the whole repetition.
    pub wall_s: f64,
}

impl Rep {
    /// Host seconds of the horizon.
    pub fn horizon_host_s(&self) -> f64 {
        self.slices.iter().map(|s| s.host_s).sum()
    }
}

/// Builds and runs one repetition of `w` at `threads`.
pub fn run_rep(w: Workload, inputs: &Inputs, threads: usize, probes: Option<&Arc<Probes>>) -> Rep {
    let horizon = w.horizon();
    let wall = Instant::now();
    let mut sim = setup(inputs, horizon, probes);
    let setup_s = wall.elapsed().as_secs_f64();
    let mut slices = Vec::with_capacity(SLICES as usize);
    for i in 1..=SLICES {
        let end = horizon * i / SLICES;
        let before = sim.delivered();
        let t0 = Instant::now();
        sim.advance(end, threads, probes);
        slices.push(Slice {
            host_s: t0.elapsed().as_secs_f64(),
            sim_s: (horizon / SLICES) as f64 / PS_PER_SEC as f64,
            delivered: sim.delivered() - before,
        });
    }
    let model = sim.model();
    let failed = sim.finish(horizon, threads, probes);
    let rep = Rep {
        setup_s,
        slices,
        ops: sim.offered.load(Ordering::Relaxed) + sim.ctl_calls,
        failed,
        fingerprint: sim.fingerprint(),
        model,
        epochs: sim.epochs,
        msgs: sim.msgs,
        delivered: sim.delivered(),
        wall_s: 0.0,
    };
    // Dropping the simulation flushes the probes' private tallies.
    drop(sim);
    Rep {
        wall_s: wall.elapsed().as_secs_f64(),
        ..rep
    }
}

/// Host seconds to build `w` once, without running it.
pub fn setup_only(w: Workload, inputs: &Inputs) -> f64 {
    let t0 = Instant::now();
    let sim = setup(inputs, w.horizon(), None);
    let s = t0.elapsed().as_secs_f64();
    drop(sim);
    s
}

/// Times one simulation-advancing call into `probes.run`.
fn timed_run<T>(probes: Option<&Arc<Probes>>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    if let Some(p) = probes {
        p.run.add_one(t0.elapsed());
    }
    out
}

impl Sim {
    /// Packets transmitted: every port of the router, or the external
    /// ports of every fabric member.
    fn delivered(&self) -> u64 {
        match &self.target {
            Target::Router(r) => r.ixp.hw.ports.iter().map(|p| p.tx_frames).sum(),
            Target::Fabric(f) => f.external_tx(),
        }
    }

    /// Advances to `end`, issuing any route updates due before it.
    fn advance(&mut self, end: Time, threads: usize, probes: Option<&Arc<Probes>>) {
        match &mut self.target {
            Target::Router(r) => {
                if let Some(c) = &mut self.churn {
                    while c.next_at < end {
                        timed_run(probes, || r.run_until(c.next_at));
                        self.ctl_calls += 1;
                        self.ctl_refused += u64::from(!c.update(r, probes));
                    }
                }
                timed_run(probes, || r.run_until(end));
            }
            Target::Fabric(f) => {
                let st = timed_run(probes, || f.run_lockstep(end, threads));
                self.epochs += st.epochs;
                self.msgs += st.delivered;
            }
        }
    }

    /// The model metrics, read at the end of the horizon. For the
    /// fabric the router-level numbers are member 0's.
    fn model(&self) -> Vec<(&'static str, &'static str, f64)> {
        let (r, external_mpps, link_drops) = match &self.target {
            Target::Router(r) => (&**r, 0.0, 0),
            Target::Fabric(f) => (f.member(0), f.report().external_mpps, f.link_drops()),
        };
        let rep = r.report();
        let (hits, misses) = r.world.table.cache_stats();
        vec![
            ("core.fwd_mpps", "Mpps", rep.forward_mpps),
            ("core.latency_p50_us", "us", rep.latency_p50_us),
            ("core.latency_p99_us", "us", rep.latency_p99_us),
            ("core.sa_kpps", "kpps", rep.sa_kpps),
            ("core.pe_kpps", "kpps", rep.pe_kpps),
            (
                "core.escalation_drops",
                "count",
                rep.escalation_drops as f64,
            ),
            ("core.ctl_latency_us", "us", rep.ctl_latency_avg_us),
            ("ixp.dram_util", "ratio", rep.dram_util),
            ("ixp.sram_util", "ratio", rep.sram_util),
            ("ixp.dma_util", "ratio", rep.dma_util),
            ("ixp.mutex_wait_cycles", "cycles", rep.mutex_wait_cycles),
            (
                "route.cache_hit_rate",
                "ratio",
                probe::ratio(hits as f64, (hits + misses) as f64),
            ),
            ("core.qm_sojourn_p99_us", "us", rep.qm_sojourn_p99_us),
            (
                "core.qm_drops",
                "count",
                (rep.qm_early_drops + rep.qm_cap_drops + rep.qm_sojourn_drops) as f64,
            ),
            ("fabric.external_mpps", "Mpps", external_mpps),
            ("fabric.link_drops", "count", link_drops as f64),
        ]
    }

    /// Runs on in small steps until the run is quiet, then checks the
    /// ledgers. Returns the ops nothing accounts for: offered frames
    /// that never reached a port, what [`unaccounted`] finds in each
    /// router, the fabric's switch-layer deficit, a run that never goes
    /// quiet, and refused control calls. Simulated drops are outcomes,
    /// not failures. Checked only once quiet: mid-run a packet between
    /// dequeue and wire is in no ledger term.
    fn finish(&mut self, horizon: Time, threads: usize, probes: Option<&Arc<Probes>>) -> u64 {
        let offered = self.offered.load(Ordering::Relaxed);
        let mut t = horizon;
        let mut steps = 0;
        while !self.quiet(offered) && steps < SETTLE_STEPS {
            t += SETTLE_STEP;
            match &mut self.target {
                Target::Router(r) => timed_run(probes, || r.run_until(t)),
                Target::Fabric(f) => {
                    timed_run(probes, || f.run_lockstep(t, threads));
                }
            }
            steps += 1;
        }
        let stuck = u64::from(!self.quiet(offered));
        match &self.target {
            Target::Router(r) => {
                offered.abs_diff(landed(&r.ixp.hw.ports))
                    + unaccounted(r)
                    + stuck
                    + self.ctl_refused
            }
            Target::Fabric(f) => {
                let c = f.conservation();
                offered.abs_diff(external(f))
                    + f.members().map(unaccounted).sum::<u64>()
                    + c.deficit().unsigned_abs()
                    + u64::from(!c.holds())
                    + stuck
            }
        }
    }

    /// Every offered frame has landed and every router has settled (see
    /// [`unaccounted`]); for the fabric also no frame queued between
    /// members or awaiting reassembly. Stricter than `Router::drain` /
    /// `Fabric::drain`, which can stop while a received frame is still
    /// between the port buffer and admission (it is in no ledger term
    /// then).
    fn quiet(&self, offered: u64) -> bool {
        let settled = |r: &Router| rx_idle(r) && unaccounted(r) == 0;
        match &self.target {
            Target::Router(r) => landed(&r.ixp.hw.ports) == offered && settled(r),
            Target::Fabric(f) => {
                external(f) == offered
                    && f.members().all(settled)
                    && (0..f.len()).all(|m| f.chassis_quiet(m))
            }
        }
    }

    fn fingerprint(&self) -> u64 {
        match &self.target {
            Target::Router(r) => r.fingerprint(),
            Target::Fabric(f) => f.fingerprint(),
        }
    }
}

/// Frames that reached the fabric's external ports: only the eight
/// external ports of each member carry offered frames; the uplinks
/// carry the fabric's own.
fn external(f: &Fabric) -> u64 {
    f.members().map(|r| landed(&r.ixp.hw.ports[..8])).sum()
}

/// Frames that reached `ports`: received, or dropped at a full buffer.
fn landed(ports: &[PortData]) -> u64 {
    ports
        .iter()
        .map(|p| p.rx_frames + p.rx_frames_dropped)
        .sum()
}

/// True when no received frame waits in a port buffer.
fn rx_idle(r: &Router) -> bool {
    r.ixp.hw.ports.iter().all(|p| p.rx_buf.is_empty())
}

/// What a drained router's ledgers leave unaccounted: received frames
/// the input process neither admitted nor dropped before admission
/// (VRP `Drop`, header validation or TTL expiry, a lapped buffer), the
/// conservation deficit, packets or control ops still in flight, and a
/// broken one-lap invariant.
fn unaccounted(r: &Router) -> u64 {
    let c = r.conservation();
    let n = &r.world.counters;
    let received: u64 = r.ixp.hw.ports.iter().map(|p| p.rx_frames).sum();
    let refused = n.vrp_drops.total() + n.validation_drops.total() + n.input_lap_drops.total();
    received.abs_diff(c.admitted + refused)
        + c.deficit().unsigned_abs()
        + c.in_flight
        + u64::from(c.lap_losses > c.stale_reads)
        + r.ctl_in_flight()
}
