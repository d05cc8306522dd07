//! Conservative parallel delivery for deterministic discrete-event
//! simulation.
//!
//! The engine here parallelizes a simulation that has been partitioned
//! into [`Shard`]s — independently steppable sequential sub-simulations
//! (one chassis of a fabric, one scenario of a sweep) that interact
//! only through timestamped cross-shard messages. Two pieces compose,
//! following the routing/delivery split idiom: the epoch engine
//! ([`run`]) decides *when* each shard may safely advance and *where*
//! each message goes; a swappable [`Delivery`] strategy decides
//! *sequential vs parallel* execution of the independent per-epoch
//! work. [`Sequential`] is the lock-step oracle; [`Parallel`] fans the
//! same work out over `std::thread` workers. Both must produce
//! bit-identical results — the differential suites
//! (`crates/sim/tests/parallel_differential.rs` and
//! `crates/core/tests/parallel_differential.rs`) hold them to it.
//!
//! # Conservative synchronization
//!
//! Simulated time is cut into epochs on a fixed grid of width
//! `lookahead`. The engine's safety argument is the classic
//! conservative (Chandy–Misra style) one, specialized to a barrier
//! design:
//!
//! * Every cross-shard interaction has a minimum modeled latency — for
//!   the router fabric, the inter-chassis switch traversal; for the
//!   chip-level models, the Table 3 memory/PCI costs set the floor (no
//!   event can cross a shard boundary in fewer picoseconds than the
//!   cheapest inter-shard link).
//! * `lookahead` is chosen at or below that minimum. An event executed
//!   in the epoch ending at `horizon` happened at `t > horizon −
//!   lookahead`, so any message it emits arrives at `t + link ≥ t +
//!   lookahead > horizon`: strictly beyond the barrier.
//! * Therefore every shard can execute its epoch *without hearing from
//!   anyone*: all messages that could affect the epoch were delivered
//!   at an earlier barrier. Shards never block on each other and never
//!   roll back — conservative, not optimistic.
//!
//! The engine enforces the invariant at every barrier: a message
//! arriving at or before the horizon it was emitted under is a
//! lookahead violation (a model bug) and panics loudly rather than
//! silently corrupting determinism.
//!
//! # Determinism
//!
//! Thread scheduling must never reach the simulation. Three rules make
//! the parallel run bit-identical to the sequential oracle:
//!
//! 1. Within an epoch shards share nothing; each advances alone.
//! 2. Outboxes are indexed by *source shard*, not by completion order,
//!    so the set of emitted messages is identified the same way no
//!    matter which worker finished first.
//! 3. At the barrier, messages are merged and delivered in
//!    `(arrival, source shard, emission seq)` order — a total order
//!    built entirely from simulation-assigned keys. Two same-timestamp
//!    messages from different shards can therefore never reorder, and
//!    the destination's own `(at, seq)` FIFO numbering (assigned at
//!    delivery) is reproducible.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

use crate::time::Time;

/// An independently steppable sequential sub-simulation.
///
/// A shard owns its own event queue and state; it interacts with other
/// shards only through timestamped messages routed by the epoch engine.
/// `Send` is required so the [`Parallel`] strategy may execute a shard
/// on a worker thread; a shard is only ever touched by one thread at a
/// time.
pub trait Shard: Send {
    /// The cross-shard message type.
    type Msg: Send;

    /// Timestamp of the earliest pending local event, or `None` when
    /// the shard is idle. The engine terminates when every shard is
    /// idle, so pending-but-unscheduled work must be visible here.
    fn next_time(&self) -> Option<Time>;

    /// Executes every local event with timestamp `<= horizon`. Emitted
    /// cross-shard messages go into `out`; each must arrive strictly
    /// after `horizon` (the conservative lookahead contract — the
    /// engine checks and panics on violations).
    fn advance(&mut self, horizon: Time, out: &mut Outbox<Self::Msg>);

    /// Accepts one cross-shard message arriving at `at`. Called only
    /// between epochs, in the deterministic merge order.
    fn deliver(&mut self, at: Time, msg: Self::Msg);

    /// Called once per barrier after the shard received at least one
    /// message — the hook for coalesced post-delivery work (re-arming a
    /// drained port, waking a poller). Default: nothing.
    fn flush(&mut self) {}
}

/// Cross-shard messages emitted by one shard during one epoch, in
/// emission order. The engine allocates one outbox per *source* shard,
/// so the emission sequence that breaks timestamp ties is assigned by
/// the simulation, never by thread completion order.
#[derive(Debug)]
pub struct Outbox<M> {
    msgs: Vec<(usize, Time, M)>,
}

impl<M> Outbox<M> {
    fn new() -> Self {
        Self { msgs: Vec::new() }
    }

    /// Emits `msg` to shard `dest`, arriving at absolute time `at`.
    pub fn send(&mut self, dest: usize, at: Time, msg: M) {
        self.msgs.push((dest, at, msg));
    }

    /// Number of messages emitted so far this epoch.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// True if nothing was emitted this epoch.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// A delivery strategy: how one epoch's worth of independent shard work
/// is executed. Implementations must call `advance(horizon, outbox)`
/// exactly once per shard, pairing shard `i` with `outboxes[i]`; they
/// choose only *where* (which thread) each call runs.
pub trait Delivery {
    /// Executes one epoch: every shard advances to `horizon`.
    fn epoch<S: Shard>(
        &mut self,
        shards: &mut [S],
        horizon: Time,
        outboxes: &mut [Outbox<S::Msg>],
    );

    /// Worker count this strategy uses (1 for the sequential oracle).
    fn threads(&self) -> usize;
}

/// The lock-step sequential oracle: shards advance one at a time in
/// index order on the calling thread. Every parallel run is required
/// to be bit-identical to this strategy (DESIGN.md §13) — the same
/// differential policy as the event queue's `OracleQueue`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sequential;

impl Delivery for Sequential {
    fn epoch<S: Shard>(
        &mut self,
        shards: &mut [S],
        horizon: Time,
        outboxes: &mut [Outbox<S::Msg>],
    ) {
        for (s, out) in shards.iter_mut().zip(outboxes.iter_mut()) {
            s.advance(horizon, out);
        }
    }

    fn threads(&self) -> usize {
        1
    }
}

/// Conservative parallel delivery: shards are split into contiguous
/// chunks, one scoped `std::thread` worker per chunk. Hermetic — no
/// thread pool dependency; workers live for one epoch, which keeps the
/// strategy trivially free of cross-epoch thread state. Chunking is by
/// index, so the shard-to-worker map is deterministic too (it cannot
/// affect results either way, but it keeps wall-clock reproducible).
#[derive(Debug, Clone, Copy)]
pub struct Parallel {
    threads: usize,
}

impl Parallel {
    /// A strategy over `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }
}

impl Delivery for Parallel {
    fn epoch<S: Shard>(
        &mut self,
        shards: &mut [S],
        horizon: Time,
        outboxes: &mut [Outbox<S::Msg>],
    ) {
        let per = shards.len().div_ceil(self.threads).max(1);
        thread::scope(|scope| {
            for (sh, ob) in shards.chunks_mut(per).zip(outboxes.chunks_mut(per)) {
                scope.spawn(move || {
                    for (s, out) in sh.iter_mut().zip(ob.iter_mut()) {
                        s.advance(horizon, out);
                    }
                });
            }
        });
    }

    fn threads(&self) -> usize {
        self.threads
    }
}

/// Counters describing one [`run`] (progress evidence for tests and
/// benches; not part of the simulated state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Epochs executed (barriers crossed).
    pub epochs: u64,
    /// Cross-shard messages delivered.
    pub delivered: u64,
}

/// Runs `shards` under delivery strategy `d` until every event with
/// timestamp `<= until` has executed.
///
/// `lookahead` is the epoch grid width in picoseconds; it must not
/// exceed the minimum cross-shard link latency (see the module docs for
/// the safety argument). Idle spans are skipped: the next epoch starts
/// at the grid slot of the globally earliest pending event, so a
/// sparse simulation does not pay for empty barriers.
///
/// # Panics
///
/// Panics if `lookahead` is zero, or if a shard emits a message that
/// arrives at or before the horizon it was emitted under (a lookahead
/// violation — the model's cross-shard latency floor is wrong).
pub fn run<D: Delivery, S: Shard>(
    d: &mut D,
    shards: &mut [S],
    lookahead: Time,
    until: Time,
) -> EngineStats {
    assert!(lookahead > 0, "lookahead must be positive");
    let mut stats = EngineStats::default();
    loop {
        // Globally earliest pending event; index order makes the min
        // deterministic (ties collapse to the same value anyway).
        let Some(earliest) = shards.iter().filter_map(Shard::next_time).min() else {
            break;
        };
        if earliest > until {
            break;
        }
        // Smallest grid multiple at or after `earliest`, capped at
        // `until` (a short final epoch is always safe — shrinking an
        // epoch only strengthens the lookahead guarantee).
        let horizon = earliest
            .div_ceil(lookahead)
            .saturating_mul(lookahead)
            .min(until);

        let mut outboxes: Vec<Outbox<S::Msg>> = (0..shards.len()).map(|_| Outbox::new()).collect();
        d.epoch(shards, horizon, &mut outboxes);
        stats.epochs += 1;

        // Barrier: merge every outbox into (arrival, src, emission-seq)
        // order — a total order over simulation-assigned keys, so the
        // destination sees the same delivery sequence no matter which
        // worker finished first (the cross-shard tie-break audit lives
        // in the parallel differential suites).
        let mut merged: Vec<(Time, usize, usize, usize, S::Msg)> = Vec::new();
        for (src, out) in outboxes.iter_mut().enumerate() {
            for (emit, (dest, at, msg)) in out.msgs.drain(..).enumerate() {
                assert!(
                    at > horizon,
                    "lookahead violation: shard {src} emitted a message arriving at \
                     {at} ps, at or before the epoch horizon {horizon} ps \
                     (lookahead {lookahead} ps exceeds the real link latency)"
                );
                assert!(
                    dest < shards.len(),
                    "shard {src} addressed nonexistent shard {dest}"
                );
                merged.push((at, src, emit, dest, msg));
            }
        }
        merged.sort_by_key(|&(at, src, emit, _, _)| (at, src, emit));
        let mut touched = vec![false; shards.len()];
        for (at, _, _, dest, msg) in merged {
            shards[dest].deliver(at, msg);
            touched[dest] = true;
            stats.delivered += 1;
        }
        for (i, hit) in touched.into_iter().enumerate() {
            if hit {
                shards[i].flush();
            }
        }
    }
    stats
}

/// Runs `shards` with the strategy a thread-count knob selects: `0` or
/// `1` is the [`Sequential`] oracle, anything larger is [`Parallel`].
/// This is the entry point `RouterConfig::sim_threads` funnels into.
pub fn run_threads<S: Shard>(
    threads: usize,
    shards: &mut [S],
    lookahead: Time,
    until: Time,
) -> EngineStats {
    if threads <= 1 {
        run(&mut Sequential, shards, lookahead, until)
    } else {
        run(&mut Parallel::new(threads), shards, lookahead, until)
    }
}

/// Host parallelism available to delivery strategies (1 when the
/// platform cannot say). The CI gate uses this to decide whether a
/// wall-clock speedup is even physically possible on the host.
pub fn auto_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `n` fully independent jobs — no cross-shard messages, infinite
/// lookahead — across `threads` work-stealing workers, returning
/// results in job-index order.
///
/// This is the degenerate-but-dominant sharding for the fault/chaos
/// sweeps: every scenario is a whole sequential simulation constructed
/// *inside* its worker, so nothing simulation-side ever crosses a
/// thread. Results are reassembled by index, which makes the output a
/// pure function of `f` alone: `scatter(n, 8, f) == scatter(n, 1, f)`
/// for any deterministic `f` (the sweep differential tests pin this).
/// `threads <= 1` short-circuits to a plain sequential loop — the
/// oracle path.
pub fn scatter<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut got = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        got.push((i, f(i)));
                    }
                    got
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("scatter worker panicked"))
            .collect()
    });
    let mut all: Vec<(usize, R)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(all.len(), n);
    all.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::rng::XorShift64;

    /// Minimum cross-shard latency of the test model, and the epoch
    /// grid derived from it (a PCI-descriptor-scale 1 us).
    const LINK_PS: Time = 1_000_000;

    /// Tags a value as a delivered cross-shard token: tokens are
    /// digest-visible but sterile (no successors), so the event
    /// population stays linear instead of a branching process.
    const MSG_BIT: u64 = 1 << 32;

    /// A small queueing node: local service events plus token messages
    /// to a neighbor, always `LINK_PS` or more in the future.
    struct Node {
        id: usize,
        n: usize,
        q: EventQueue<u64>,
        rng: XorShift64,
        digest: u64,
        processed: u64,
    }

    impl Node {
        fn new(id: usize, n: usize, seed: u64) -> Self {
            let mut q = EventQueue::new();
            q.schedule(id as Time * 7, id as u64);
            Self {
                id,
                n,
                q,
                rng: XorShift64::new(seed ^ (id as u64) << 17),
                digest: 0xcbf2_9ce4_8422_2325,
                processed: 0,
            }
        }

        fn mix(&mut self, v: u64) {
            for b in v.to_le_bytes() {
                self.digest ^= u64::from(b);
                self.digest = self.digest.wrapping_mul(0x100_0000_01b3);
            }
        }
    }

    impl Shard for Node {
        type Msg = u64;

        fn next_time(&self) -> Option<Time> {
            self.q.peek_time()
        }

        fn advance(&mut self, horizon: Time, out: &mut Outbox<u64>) {
            while let Some((at, v)) = self.q.pop_if_at_or_before(horizon) {
                self.processed += 1;
                self.mix(at);
                self.mix(v);
                if v & MSG_BIT != 0 {
                    continue; // Tokens are sterile (see MSG_BIT).
                }
                if v % 3 == 0 {
                    let dest = (self.id + 1 + (v as usize % self.n.saturating_sub(1).max(1)))
                        % self.n;
                    out.send(dest, at + LINK_PS + self.rng.below(LINK_PS), v | MSG_BIT);
                }
                if v < 4_000 {
                    self.q.schedule(at + 1 + self.rng.below(30_000), v + self.n as u64);
                }
            }
        }

        fn deliver(&mut self, at: Time, msg: u64) {
            self.mix(at ^ msg);
            self.q.schedule(at, msg);
        }
    }

    fn build(n: usize, seed: u64) -> Vec<Node> {
        (0..n).map(|i| Node::new(i, n, seed)).collect()
    }

    fn fingerprint(nodes: &[Node]) -> Vec<(u64, u64, Time)> {
        nodes
            .iter()
            .map(|s| (s.digest, s.processed, s.q.now()))
            .collect()
    }

    #[test]
    fn parallel_matches_the_sequential_oracle() {
        let until = 50_000_000;
        let mut seq = build(5, 0xA5);
        let s_stats = run(&mut Sequential, &mut seq, LINK_PS, until);
        for threads in [2, 4, 8] {
            let mut par = build(5, 0xA5);
            let p_stats = run(&mut Parallel::new(threads), &mut par, LINK_PS, until);
            assert_eq!(fingerprint(&seq), fingerprint(&par), "threads={threads}");
            assert_eq!(s_stats, p_stats, "threads={threads}");
        }
        assert!(s_stats.delivered > 0, "the model never crossed a shard");
    }

    #[test]
    fn run_threads_selects_oracle_at_one() {
        let mut a = build(3, 9);
        let mut b = build(3, 9);
        run_threads(1, &mut a, LINK_PS, 10_000_000);
        run(&mut Sequential, &mut b, LINK_PS, 10_000_000);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn idle_spans_are_skipped_not_iterated() {
        // Two events a simulated second apart: the epoch count must be
        // ~2, not one million (second / lookahead).
        struct Sparse(EventQueue<()>);
        impl Shard for Sparse {
            type Msg = ();
            fn next_time(&self) -> Option<Time> {
                self.0.peek_time()
            }
            fn advance(&mut self, horizon: Time, _out: &mut Outbox<()>) {
                while self.0.pop_if_at_or_before(horizon).is_some() {}
            }
            fn deliver(&mut self, _at: Time, _msg: ()) {}
        }
        let mut q = EventQueue::new();
        q.schedule(5, ());
        q.schedule(1_000_000_000_000, ());
        let mut shards = [Sparse(q)];
        let stats = run(&mut Sequential, &mut shards, LINK_PS, 2_000_000_000_000);
        assert!(stats.epochs <= 2, "epochs {}", stats.epochs);
        assert!(shards[0].0.is_empty());
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn too_cheap_a_link_is_a_loud_failure() {
        struct Cheater(bool);
        impl Shard for Cheater {
            type Msg = ();
            fn next_time(&self) -> Option<Time> {
                (!self.0).then_some(10)
            }
            fn advance(&mut self, horizon: Time, out: &mut Outbox<()>) {
                self.0 = true;
                // Arrives at the horizon instead of beyond it.
                out.send(0, horizon, ());
            }
            fn deliver(&mut self, _at: Time, _msg: ()) {}
        }
        let mut shards = [Cheater(false)];
        run(&mut Sequential, &mut shards, LINK_PS, 10_000_000);
    }

    #[test]
    fn same_timestamp_cross_shard_messages_never_reorder() {
        // Regression for the (at, seq) tie-break audit: shards 0 and 1
        // both emit to shard 2 at the *same* arrival timestamp; the
        // merge must order them (src 0, src 1) under every strategy, so
        // the destination digests identically. Emission order within a
        // source is preserved too.
        struct Tie {
            id: usize,
            fired: bool,
            got: Vec<(Time, u64)>,
        }
        impl Shard for Tie {
            type Msg = u64;
            fn next_time(&self) -> Option<Time> {
                (!self.fired && self.id < 2).then_some(10)
            }
            fn advance(&mut self, horizon: Time, out: &mut Outbox<u64>) {
                if self.id < 2 && !self.fired && horizon >= 10 {
                    self.fired = true;
                    // Same arrival time from both sources, two
                    // messages each (emission seq must hold as well).
                    out.send(2, 3 * LINK_PS, self.id as u64 * 10);
                    out.send(2, 3 * LINK_PS, self.id as u64 * 10 + 1);
                }
            }
            fn deliver(&mut self, at: Time, msg: u64) {
                self.got.push((at, msg));
            }
        }
        let mk = || {
            vec![
                Tie { id: 0, fired: false, got: vec![] },
                Tie { id: 1, fired: false, got: vec![] },
                Tie { id: 2, fired: false, got: vec![] },
            ]
        };
        let expect = vec![
            (3 * LINK_PS, 0),
            (3 * LINK_PS, 1),
            (3 * LINK_PS, 10),
            (3 * LINK_PS, 11),
        ];
        let mut seq = mk();
        run(&mut Sequential, &mut seq, LINK_PS, 10 * LINK_PS);
        assert_eq!(seq[2].got, expect);
        for threads in [2, 3, 8] {
            let mut par = mk();
            run(&mut Parallel::new(threads), &mut par, LINK_PS, 10 * LINK_PS);
            assert_eq!(par[2].got, expect, "threads={threads}");
        }
    }

    #[test]
    fn scatter_returns_results_in_index_order() {
        for threads in [1, 2, 4, 8] {
            let got = scatter(37, threads, |i| i * i);
            assert_eq!(got, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        assert_eq!(scatter(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn scatter_oversubscription_is_harmless() {
        // More threads than jobs (and than host cores): results are
        // still exactly the sequential ones.
        assert_eq!(scatter(3, 64, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn auto_threads_is_at_least_one() {
        assert!(auto_threads() >= 1);
    }
}
