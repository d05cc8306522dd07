//! Differential oracle suite: the production [`EventQueue`] (a sorted
//! run with a binary-heap spill) must be observationally identical to
//! the reference [`OracleQueue`] (the original binary heap) on any
//! interleaving of operations.
//!
//! Every property drives both queues lock-step through a seed-derived
//! stream of `schedule`/`pop`/`peek` operations and compares every
//! observable: popped `(time, value)` pairs (values are unique, so a
//! seq tie-break divergence cannot hide), `peek_time`, `len`, and the
//! clock. Timestamp regimes are chosen adversarially: clusters of
//! duplicate timestamps, streams on exact multiples of a fixed grid,
//! far-future spikes, and same-timestamp bursts larger than the sorted
//! run, which push entries into the spill heap.

use npr_check::prelude::*;
use npr_sim::{EventQueue, OracleQueue, Time, XorShift64};

/// Timestamp scales the streams aim at: a 4096 ps grid (just under one
/// 5000 ps ME cycle) and a ~2.1 µs horizon. They were the bucket width
/// and wheel span of an earlier calendar-queue implementation and stay
/// as adversarial inputs; correctness never depends on them.
const BUCKET: Time = 4096;
const HORIZON: Time = 512 * BUCKET;

/// Capacity of the queue's sorted run (private in `queue.rs`); the
/// storm property below requires streams that exceed it.
const RUN_CAP: usize = 128;

/// One operation on both queues.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule(Time),
    ScheduleIn(Time),
    Pop,
    Peek,
}

/// A timestamp-delta distribution (relative to the queue clock).
#[derive(Debug, Clone, Copy)]
enum Regime {
    /// Duplicate-heavy cluster: few distinct timestamps, many ties.
    Clustered,
    /// Dense near-future spread across a few grid steps.
    Near,
    /// Exact multiples of the 4096 ps grid.
    Boundary,
    /// Beyond the ~2.1 µs horizon.
    FarFuture,
    /// Everything at once.
    Mixed,
}

fn delta(rng: &mut XorShift64, regime: Regime) -> Time {
    match regime {
        Regime::Clustered => rng.below(4) * 17,
        Regime::Near => rng.below(8 * BUCKET),
        Regime::Boundary => rng.below(16) * BUCKET,
        Regime::FarFuture => HORIZON + rng.below(64) * HORIZON,
        Regime::Mixed => match rng.below(4) {
            0 => delta(rng, Regime::Clustered),
            1 => delta(rng, Regime::Near),
            2 => delta(rng, Regime::Boundary),
            _ => delta(rng, Regime::FarFuture),
        },
    }
}

/// Builds a seed-derived operation stream: schedule-biased so the
/// queues grow, with pops and peeks interleaved throughout.
fn stream(seed: u64, regime: Regime, len: usize) -> Vec<Op> {
    let mut rng = XorShift64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..len)
        .map(|_| match rng.below(8) {
            0..=3 => Op::Schedule(delta(&mut rng, regime)),
            4 => Op::ScheduleIn(delta(&mut rng, regime)),
            5..=6 => Op::Pop,
            _ => Op::Peek,
        })
        .collect()
}

/// Both queues plus the shared value counter. Every mutating call
/// compares every observable afterwards.
#[derive(Default)]
struct LockStep {
    q: EventQueue<u64>,
    ora: OracleQueue<u64>,
    next_val: u64,
    /// Largest pending population seen.
    max_len: usize,
}

impl LockStep {
    /// Schedules the next value at absolute time `at` on both queues.
    fn schedule(&mut self, at: Time) -> Result<(), String> {
        self.q.schedule(at, self.next_val);
        self.ora.schedule(at, self.next_val);
        self.next_val += 1;
        self.check()
    }

    fn schedule_in(&mut self, delay: Time) -> Result<(), String> {
        self.q.schedule_in(delay, self.next_val);
        self.ora.schedule_in(delay, self.next_val);
        self.next_val += 1;
        self.check()
    }

    /// One pop on each queue, bounded by `deadline` when given; returns
    /// the popped event.
    fn pop(&mut self, deadline: Option<Time>) -> Result<Option<(Time, u64)>, String> {
        let (a, b) = match deadline {
            Some(t) => (
                self.q.pop_if_at_or_before(t),
                self.ora.pop_if_at_or_before(t),
            ),
            None => (self.q.pop(), self.ora.pop()),
        };
        if a != b {
            return Err(format!("pop {a:?} != oracle {b:?} (deadline {deadline:?})"));
        }
        self.check()?;
        Ok(a)
    }

    /// Pops both queues dry, returning the number of events popped.
    fn drain(&mut self) -> Result<usize, String> {
        let mut n = 0;
        while self.pop(None)?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    fn check(&mut self) -> Result<(), String> {
        let (q, ora) = (&self.q, &self.ora);
        let got = (q.len(), q.now(), q.peek_time());
        let want = (ora.len(), ora.now(), ora.peek_time());
        if got != want {
            return Err(format!("len/now/peek {got:?} != oracle {want:?}"));
        }
        self.max_len = self.max_len.max(q.len());
        Ok(())
    }
}

/// Runs `ops` against both queues lock-step, comparing every
/// observable, then drains both and compares the full tail. Returns
/// the number of events popped (so callers can assert coverage).
fn run_differential(ops: &[Op]) -> Result<usize, String> {
    let mut s = LockStep::default();
    let mut popped = 0usize;
    for (i, &op) in ops.iter().enumerate() {
        let step = match op {
            // Absolute time from the shared clock: both queues see the
            // identical (at, value) pair.
            Op::Schedule(d) => s.schedule(s.q.now() + d).map(|()| None),
            Op::ScheduleIn(d) => s.schedule_in(d).map(|()| None),
            Op::Pop => s.pop(None),
            Op::Peek => s.check().map(|()| None),
        };
        popped += usize::from(step.map_err(|e| format!("op {i}: {e}"))?.is_some());
    }
    // Drain the tails: the full remaining pop sequences must agree.
    Ok(popped + s.drain().map_err(|e| format!("drain: {e}"))?)
}

fn check_regime(seed: u64, regime: Regime) -> Result<(), String> {
    let ops = stream(seed, regime, 400);
    let popped = run_differential(&ops)?;
    // Schedule-biased streams must actually exercise pops.
    if popped == 0 {
        return Err("stream popped nothing".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clustered_duplicate_timestamps_match_oracle(seed: u64) {
        prop_assert_eq!(check_regime(seed, Regime::Clustered), Ok(()));
    }

    #[test]
    fn near_future_streams_match_oracle(seed: u64) {
        prop_assert_eq!(check_regime(seed, Regime::Near), Ok(()));
    }

    #[test]
    fn bucket_boundary_timestamps_match_oracle(seed: u64) {
        prop_assert_eq!(check_regime(seed, Regime::Boundary), Ok(()));
    }

    #[test]
    fn far_future_spill_matches_oracle(seed: u64) {
        prop_assert_eq!(check_regime(seed, Regime::FarFuture), Ok(()));
    }

    #[test]
    fn mixed_adversarial_streams_match_oracle(seed: u64) {
        prop_assert_eq!(check_regime(seed, Regime::Mixed), Ok(()));
    }

    #[test]
    fn reschedule_from_dispatch_matches_oracle(seed: u64) {
        prop_assert_eq!(reschedule_from_dispatch(seed), Ok(()));
    }

    #[test]
    fn pop_if_at_or_before_matches_oracle(seed: u64) {
        prop_assert_eq!(deadline_bounded_drain(seed), Ok(()));
    }
}

/// The simulator's dominant pattern: every pop schedules new work
/// relative to the popped timestamp (hold model). Ties are forced
/// regularly to stress the FIFO tie-break.
fn reschedule_from_dispatch(seed: u64) -> Result<(), String> {
    let mut rng = XorShift64::new(seed);
    let mut s = LockStep::default();
    for _ in 0..16 {
        s.schedule(rng.below(2 * BUCKET))?;
    }
    for _ in 0..600 {
        let Some((t, _)) = s.pop(None)? else { break };
        let n_children = rng.below(2) + u64::from(s.next_val < 200);
        for _ in 0..n_children {
            let d = match rng.below(5) {
                0 => 0, // Duplicate `at`: same-timestamp tie.
                1..=2 => rng.below(3 * BUCKET),
                3 => rng.below(8) * BUCKET,
                _ => HORIZON + rng.below(4) * HORIZON,
            };
            s.schedule(t + d)?;
        }
    }
    s.drain().map(drop)
}

/// Deadline-bounded draining (the router's run_until pattern).
fn deadline_bounded_drain(seed: u64) -> Result<(), String> {
    let mut rng = XorShift64::new(seed);
    let mut s = LockStep::default();
    for _ in 0..300 {
        s.schedule(delta(&mut rng, Regime::Mixed))?;
    }
    let mut deadline = 0;
    while !s.q.is_empty() || !s.ora.is_empty() {
        deadline += rng.below(2 * HORIZON);
        while s.pop(Some(deadline))?.is_some() {}
    }
    Ok(())
}

/// Far-future tie ordering: events queued well beyond the horizon must
/// still interleave in global `(at, seq)` FIFO order with events
/// scheduled at the same timestamp after the clock has reached it. The
/// parallel delivery engine leans on exactly this — a barrier delivers
/// messages at a future time, then local work schedules at the same
/// time.
#[test]
fn overflow_spill_refill_preserves_global_fifo_order() {
    let mut s = LockStep::default();
    let far = 2 * HORIZON + 5;
    // Values 0 and 1 share a far timestamp (insertion order 0, 1); the
    // near value 2 pops first.
    for at in [far, far, 10] {
        s.schedule(at).unwrap();
    }
    assert_eq!(s.pop(None), Ok(Some((10, 2))));
    // The first far event comes back: the clock jumps to it.
    assert_eq!(s.pop(None), Ok(Some((far, 0))));
    // Now schedule a *new* event (value 3) at the same timestamp: it
    // must lose the tie to the still-queued far event (older seq), in
    // both queues.
    s.schedule(far).unwrap();
    assert_eq!(s.pop(None), Ok(Some((far, 1))), "older seq first");
    assert_eq!(s.pop(None), Ok(Some((far, 3))));
    assert!(s.q.is_empty() && s.ora.is_empty());
}

/// Clock jump across an epoch boundary: a deadline-bounded pop (the
/// delivery engine's per-epoch drain) that ends *before* a far-future
/// event must neither consume it nor advance the clock; the next
/// epoch's drain must jump the clock straight to it.
#[test]
fn dry_wheel_jump_across_an_epoch_boundary() {
    let mut q: EventQueue<u64> = EventQueue::new();
    q.schedule(5, 0);
    assert_eq!(q.pop(), Some((5, 0)));
    let far = 5 + 3 * HORIZON + 123;
    q.schedule(far, 1);
    // Epoch ending just shy of the event: dry drain, clock holds.
    assert_eq!(q.pop_if_at_or_before(far - 1), None);
    assert_eq!(q.now(), 5, "a refused pop must not advance the clock");
    assert_eq!(q.peek_time(), Some(far));
    assert_eq!(q.len(), 1);
    // Next epoch covers it: the clock jumps ahead and delivers.
    assert_eq!(q.pop_if_at_or_before(far + HORIZON), Some((far, 1)));
    assert_eq!(q.now(), far);
    assert!(q.is_empty());
}

/// `pop_if_at_or_before` at the exact lookahead horizon: the deadline
/// is inclusive (mirroring `Router::run_until`), so an event *at* the
/// epoch horizon executes in that epoch — the invariant the delivery
/// engine's conservative proof is phrased against ("arrivals land
/// strictly after the horizon", hence never in the epoch that emitted
/// them).
#[test]
fn pop_if_at_or_before_is_inclusive_at_the_exact_horizon() {
    let horizon = 7 * BUCKET; // An epoch boundary on the test grid.
    let mut s = LockStep::default();
    for at in [horizon - 1, horizon, horizon, horizon + 1] {
        s.schedule(at).unwrap();
    }
    let expected = [(horizon - 1, 0), (horizon, 1), (horizon, 2)];
    for (i, expect) in expected.into_iter().map(Some).chain([None]).enumerate() {
        assert_eq!(s.pop(Some(horizon)), Ok(expect), "pop {i}");
    }
    // The first event of the next epoch is untouched and the clock sits
    // exactly on the horizon (`pop` compared both queues' clocks).
    assert_eq!(s.q.now(), horizon);
    assert_eq!(s.q.peek_time(), Some(horizon + 1));
    assert_eq!(s.pop(Some(horizon + 1)), Ok(Some((horizon + 1, 3))));
}

/// The tie-break contract stated directly (not just "same as oracle"):
/// equal timestamps pop in insertion order.
#[test]
fn duplicate_timestamps_pop_in_insertion_order() {
    let mut rng = XorShift64::new(7);
    let mut q: EventQueue<(Time, u64)> = EventQueue::new();
    let mut by_time: std::collections::BTreeMap<Time, Vec<u64>> = Default::default();
    for v in 0..2_000u64 {
        // Up to 16 distinct timestamps around grid and horizon boundaries,
        // each heavily duplicated; 2,000 pending events also keep the
        // spill heap busy.
        let at = match rng.below(4) {
            0 => rng.below(4) * 13,
            1 => BUCKET - 1 + rng.below(4),
            2 => rng.below(4) * BUCKET,
            _ => HORIZON + rng.below(4) * HORIZON,
        };
        q.schedule(at, (at, v));
        by_time.entry(at).or_default().push(v);
    }
    for (expect_t, expect_vals) in by_time {
        for expect_v in expect_vals {
            let (t, (at, v)) = q.pop().expect("queue holds all scheduled events");
            assert_eq!(t, at);
            assert_eq!((t, v), (expect_t, expect_v));
        }
    }
    assert!(q.is_empty());
}

/// One operator control-op storm: same-timestamp bursts of 200–1,000
/// events, mixed with near- and far-future events, partial pops and
/// deadline-bounded drains, then a full drain. Returns the largest
/// pending population reached.
fn control_op_storm(seed: u64) -> Result<usize, String> {
    let mut rng = XorShift64::new(seed ^ 0x5157_0A11);
    let mut s = LockStep::default();
    for round in 0..16 {
        match if round == 0 { 0 } else { rng.below(4) } {
            0 => {
                let at = s.q.now() + delta(&mut rng, Regime::Mixed);
                for _ in 0..200 + rng.below(801) {
                    s.schedule(at)?;
                }
            }
            1 => {
                for _ in 0..1 + rng.below(64) {
                    let regime = [Regime::Near, Regime::FarFuture][rng.below(2) as usize];
                    s.schedule(s.q.now() + delta(&mut rng, regime))?;
                }
            }
            2 => {
                let deadline = s.q.now() + rng.below(2 * HORIZON);
                while s.pop(Some(deadline))?.is_some() {}
            }
            _ => {
                for _ in 0..rng.below(400) {
                    s.pop(None)?;
                }
            }
        }
    }
    s.drain()?;
    Ok(s.max_len)
}

/// The spill path under load: every storm must match the oracle, and
/// the suite must actually drive the queue past its run capacity (the
/// benchmark workloads never do: their pending population peaks at 37).
#[test]
fn control_op_storms_past_run_capacity_match_oracle() {
    let cases = 64;
    let mut over_cap = 0;
    for seed in 0..cases {
        match control_op_storm(seed) {
            Ok(max_len) => over_cap += usize::from(max_len > RUN_CAP),
            Err(e) => panic!("storm seed {seed}: {e}"),
        }
    }
    assert!(over_cap > 0, "no storm exceeded the {RUN_CAP}-entry run");
    println!("{over_cap}/{cases} storms exceeded the {RUN_CAP}-entry run");
}
