//! `simbench`: the simulator's own performance baseline.
//!
//! Measures the event-scheduler microbenchmark (`EventQueue` vs the
//! `OracleQueue` reference heap, hold model at a measured and at a
//! stress population), per-experiment wall-clock, and the
//! parallel-delivery `threads` axis (fault-sweep wall-clock at 1/2/4/8
//! worker threads), then writes `BENCH_sim.json` — the recorded perf
//! trajectory that later PRs must not regress. Before timing anything
//! it runs lock-step differential checks and refuses to emit numbers
//! from a scheduler — or a parallel sweep — that diverges from its
//! sequential oracle.
//!
//! ```text
//! simbench [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks repetitions and windows for CI; `--out` defaults
//! to stdout-only (pass a path to write the JSON file).

use std::time::Instant;

use npr_bench::BENCH_WINDOW;
use npr_core::us;
use npr_sim::{EventQueue, OracleQueue, Time, XorShift64};

/// Steady-state pending-event population for the hold model. The four
/// perfbench workloads hold 7.5–19 pending events on average and never
/// more than 37, so 32 sits inside the measured range.
const PENDING: usize = 32;

/// Stress population: far past the queue's sorted run, so every
/// operation exercises the spill heap. Recorded, not gated.
const STRESS_PENDING: usize = 8192;

/// A delay distribution shaped like the simulator's: mostly short
/// compute/memory latencies, a tail of frame-interarrival and retry
/// timers.
fn hold_delay(rng: &mut XorShift64) -> Time {
    match rng.below(16) {
        0..=9 => 5_000 + rng.below(495_000), // Compute + memory (5 ns – 0.5 us).
        10..=13 => 500_000 + rng.below(1_500_000), // DMA bursts, long blocks.
        14 => rng.below(5_000),              // Same-cycle wakeups, ties.
        _ => 6_720_000 + rng.below(100) * 1_000_000, // Interarrivals, retries.
    }
}

/// Hold model on a fresh queue: pop one event, schedule its successor,
/// with `pending` events in flight. Returns events completed per
/// wall-clock second.
fn hold<Q: Default>(
    pending: usize,
    ops: u64,
    schedule: impl Fn(&mut Q, Time, u32),
    pop: impl Fn(&mut Q) -> Option<(Time, u32)>,
) -> f64 {
    let mut rng = XorShift64::new(0xBEEF);
    let mut q = Q::default();
    for i in 0..pending {
        schedule(&mut q, rng.below(2_000_000), i as u32);
    }
    let t0 = Instant::now();
    for _ in 0..ops {
        let (t, v) = pop(&mut q).expect("population is conserved");
        schedule(&mut q, t + hold_delay(&mut rng), v);
    }
    let dt = t0.elapsed();
    ops as f64 / dt.as_secs_f64()
}

/// Events/sec for the production queue and the oracle at `pending`,
/// median over `reps` alternating runs (so frequency scaling and cache
/// state stay comparable).
fn hold_pair(pending: usize, reps: usize, ops: u64) -> (f64, f64) {
    let mut q_rates = Vec::with_capacity(reps);
    let mut ora_rates = Vec::with_capacity(reps);
    for _ in 0..reps {
        q_rates.push(hold(pending, ops, EventQueue::schedule, EventQueue::pop));
        ora_rates.push(hold(pending, ops, OracleQueue::schedule, OracleQueue::pop));
    }
    (median(q_rates), median(ora_rates))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Lock-step differential check (the quick in-binary version of
/// `crates/sim/tests/differential.rs`): both queues run the hold model
/// plus interleaved peeks and must agree on every observable. The
/// population starts at `pending` and breathes up to `16 * pending`.
fn differential_check(ops: u64, pending: usize) -> Result<(), String> {
    let mut rng = XorShift64::new(0x0D1F);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut ora: OracleQueue<u64> = OracleQueue::new();
    let mut next = 0u64;
    for _ in 0..pending {
        let at = rng.below(2_000_000);
        q.schedule(at, next);
        ora.schedule(at, next);
        next += 1;
    }
    for i in 0..ops {
        let (a, b) = (q.pop(), ora.pop());
        if a != b {
            return Err(format!("op {i}: queue {a:?} != oracle {b:?}"));
        }
        let Some((t, _)) = a else {
            return Err(format!("op {i}: queues ran dry"));
        };
        // Refill with 1-2 successors so the population breathes; force
        // exact ties regularly to stress the FIFO tie-break.
        for _ in 0..1 + (i % 2) {
            let d = if rng.below(8) == 0 {
                0
            } else {
                hold_delay(&mut rng)
            };
            q.schedule(t + d, next);
            ora.schedule(t + d, next);
            next += 1;
        }
        if q.peek_time() != ora.peek_time() || q.len() != ora.len() {
            return Err(format!("op {i}: peek/len diverged"));
        }
        // Keep the population bounded.
        if q.len() > 16 * pending {
            let (a, b) = (q.pop(), ora.pop());
            if a != b {
                return Err(format!("op {i}: drain pop diverged"));
            }
        }
    }
    Ok(())
}

/// Times one experiment closure, returning wall milliseconds.
fn wall_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    // 1. Refuse to benchmark a scheduler that diverges from the oracle.
    let diff_ops: u64 = if quick { 100_000 } else { 400_000 };
    for pending in [PENDING, STRESS_PENDING] {
        if let Err(e) = differential_check(diff_ops, pending) {
            eprintln!("simbench: DIFFERENTIAL CHECK FAILED at {pending} pending: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "differential check: {diff_ops} lock-step ops OK at {PENDING} and {STRESS_PENDING} pending"
    );

    // 2. Events/sec, median over repetitions, at the measured and at
    //    the stress population.
    let (reps, ops) = if quick { (5, 400_000u64) } else { (9, 2_000_000) };
    let mut rows = Vec::new();
    for pending in [PENDING, STRESS_PENDING] {
        let (q, ora) = hold_pair(pending, reps, ops);
        println!(
            "event queue (hold model, {pending} pending): queue {:.2} Mev/s, \
             oracle {:.2} Mev/s, speedup {:.2}x",
            q / 1e6,
            ora / 1e6,
            q / ora
        );
        rows.push((pending, q, ora));
    }

    // 3. Per-experiment wall-clock over representative experiments.
    let (warmup, window) = if quick {
        (us(200), us(600))
    } else {
        (us(500), BENCH_WINDOW)
    };
    let experiments: Vec<(&str, f64)> = vec![
        (
            "table1_disciplines",
            wall_ms(|| {
                std::hint::black_box(npr_bench::table1(warmup, window));
            }),
        ),
        (
            "table4_pentium_path",
            wall_ms(|| {
                std::hint::black_box(npr_bench::table4(warmup, window));
            }),
        ),
        (
            "linerate_8x100mbps",
            wall_ms(|| {
                std::hint::black_box(npr_bench::linerate(warmup, window));
            }),
        ),
        (
            "baseline_comparison",
            wall_ms(|| {
                std::hint::black_box(npr_bench::baseline(warmup, window));
            }),
        ),
    ];
    for (name, ms) in &experiments {
        println!("experiment {name}: {ms:.1} ms wall");
    }

    // 3b. The parallel-delivery threads axis: the fault sweep (one
    //     fresh fault-injected router per (class, rate) point) fanned
    //     across worker threads via `npr_sim::scatter`. Before any
    //     wall-clock number is published, every thread count's curves
    //     must be bit-identical to the sequential sweep — a diverging
    //     parallel engine gets no benchmark. Speedup is honestly
    //     bounded by the host: `host_cores` is recorded next to the
    //     numbers, and on a 1-core box every count degenerates to the
    //     sequential path.
    let sweep_rates: &[u32] = if quick {
        &[0, 20_000, 80_000]
    } else {
        npr_bench::DEGRADE_RATES
    };
    let thread_counts: [usize; 4] = [1, 2, 4, 8];
    let mut sweep_walls: Vec<f64> = Vec::new();
    let mut sweep_curves = Vec::new();
    for &n in &thread_counts {
        let t0 = Instant::now();
        sweep_curves.push(npr_bench::fault_curves_threaded(
            sweep_rates,
            warmup,
            window,
            n,
        ));
        sweep_walls.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    for (i, curves) in sweep_curves.iter().enumerate().skip(1) {
        if curves != &sweep_curves[0] {
            eprintln!(
                "simbench: PARALLEL SWEEP DIVERGED at {} threads: refusing to emit numbers",
                thread_counts[i]
            );
            std::process::exit(1);
        }
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep_speedup_max = sweep_walls[1..]
        .iter()
        .fold(0.0f64, |m, &w| m.max(sweep_walls[0] / w));
    print!("parallel fault sweep ({host_cores} host cores): wall");
    for (n, w) in thread_counts.iter().zip(&sweep_walls) {
        print!(" {n}t={w:.0}ms");
    }
    println!(", best speedup {sweep_speedup_max:.2}x, bit-identical OK");

    // 4. Emit JSON (hand-formatted: the workspace has no serde, by
    //    policy).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": 1,\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    json.push_str("  \"event_queue_microbench\": {\n");
    json.push_str("    \"model\": \"hold\",\n");
    json.push_str(&format!("    \"ops_per_rep\": {ops},\n"));
    json.push_str(&format!("    \"reps\": {reps},\n"));
    for (i, (pending, q, ora)) in rows.iter().enumerate() {
        let (label, comma) = if i == 0 {
            ("measured", ",")
        } else {
            ("stress", "")
        };
        json.push_str(&format!(
            "    \"{label}\": {{ \"pending_events\": {pending}, \"queue_events_per_sec\": {}, \
             \"oracle_events_per_sec\": {}, \"speedup\": {:.3} }}{comma}\n",
            q.round(),
            ora.round(),
            q / ora
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"differential_check\": {{ \"lock_step_ops\": {diff_ops}, \
         \"pending_events\": [{PENDING}, {STRESS_PENDING}], \"ok\": true }},\n"
    ));
    json.push_str("  \"parallel\": {\n");
    json.push_str(&format!("    \"host_cores\": {host_cores},\n"));
    json.push_str("    \"fault_sweep\": {\n");
    json.push_str(&format!(
        "      \"points\": {},\n",
        sweep_rates.len() * npr_bench::exp_faults::DEGRADE_CLASSES.len()
    ));
    json.push_str("      \"threads\": [");
    for (i, n) in thread_counts.iter().enumerate() {
        let comma = if i + 1 < thread_counts.len() { ", " } else { "" };
        json.push_str(&format!("{n}{comma}"));
    }
    json.push_str("],\n");
    json.push_str("      \"wall_ms\": [");
    for (i, w) in sweep_walls.iter().enumerate() {
        let comma = if i + 1 < sweep_walls.len() { ", " } else { "" };
        json.push_str(&format!("{w:.1}{comma}"));
    }
    json.push_str("],\n");
    json.push_str(&format!(
        "      \"speedup_max\": {sweep_speedup_max:.3},\n"
    ));
    json.push_str("      \"bit_identical\": true\n");
    json.push_str("    }\n");
    json.push_str("  },\n");
    json.push_str("  \"experiments\": [\n");
    for (i, (name, ms)) in experiments.iter().enumerate() {
        let comma = if i + 1 < experiments.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{ \"name\": \"{name}\", \"wall_ms\": {ms:.1} }}{comma}\n"
        ));
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("write BENCH_sim.json");
            println!("wrote {p}");
        }
        None => print!("{json}"),
    }
}
