//! Host-time probes the benchmark installs from outside the program:
//! wrappers around the public seams a workload is built from (context
//! programs, traffic sources, Pentium forwarder closures) plus the
//! calls the benchmark makes itself. Nothing here schedules a
//! simulated event; the traced run proves that by matching the
//! untraced run's fingerprint.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use npr_core::input::InputLoop;
use npr_core::output::OutputLoop;
use npr_core::pe::PeAction;
use npr_core::{InstallRequest, Router, RouterWorld};
use npr_ixp::params::{IN_FIFO_SLOTS, OUT_FIFO_SLOTS};
use npr_ixp::{CtxProgram, Env, Op, TrafficSource};
use npr_packet::Frame;
use npr_sim::Time;

/// Host nanoseconds and call count for one probe point. Atomic so the
/// fabric's worker threads can flush into it; each wrapper accumulates
/// privately and flushes once, on drop, so the hot path stays free of
/// shared writes.
#[derive(Default)]
pub struct Tally {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Tally {
    /// Adds `ns` nanoseconds over `calls` calls.
    pub fn add(&self, ns: u64, calls: u64) {
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(calls, Ordering::Relaxed);
    }

    /// Adds one timed call.
    pub fn add_one(&self, d: Duration) {
        self.add(nanos(d), 1);
    }

    /// Total nanoseconds.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Total calls.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        ratio(self.ns() as f64, self.calls() as f64)
    }
}

/// Every probe point of one traced run.
#[derive(Default)]
pub struct Probes {
    /// `CtxProgram::resume` of the input and output loops.
    pub me: Tally,
    /// `TrafficSource::next_frame` of every external source.
    pub src: Tally,
    /// Pentium forwarder closures the benchmark installs.
    pub pe: Tally,
    /// Route updates: `setdata` plus the table write it describes.
    pub ctl: Tally,
    /// `Router::new` / `Fabric::new`.
    pub new: Tally,
    /// `Router::install` calls.
    pub install: Tally,
    /// `Router::run_until` / `Fabric::run_lockstep` calls.
    pub run: Tally,
}

/// Saturating nanoseconds of a duration.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `num / den`, or 0 when `den` is 0 (a probe that never fired).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Times every `resume` of the wrapped context program.
struct TimedProgram<P> {
    inner: P,
    ns: u64,
    calls: u64,
    probes: Arc<Probes>,
}

impl<P: CtxProgram<RouterWorld>> CtxProgram<RouterWorld> for TimedProgram<P> {
    fn resume(&mut self, env: &mut Env<'_, RouterWorld>) -> Op {
        let t0 = Instant::now();
        let op = self.inner.resume(env);
        self.ns += nanos(t0.elapsed());
        self.calls += 1;
        op
    }
}

impl<P> Drop for TimedProgram<P> {
    fn drop(&mut self) {
        self.probes.me.add(self.ns, self.calls);
    }
}

/// Replaces every input and output context program of an unstarted
/// router with a timed copy, rebuilt from `r.cfg` exactly as
/// `Router::new` builds them: same contexts, rings, ports and FIFO
/// slots. The traced run's fingerprint check is what proves the copy
/// exact.
pub fn time_me_programs(r: &mut Router, probes: &Arc<Probes>) {
    let cfg = r.cfg.clone();
    let order = |base: usize, n: usize| -> Vec<usize> {
        if cfg.interleave_rings {
            interleave(base, n)
        } else {
            (base..base + n).collect()
        }
    };
    let input_ids = order(0, cfg.input_ctxs);
    let out_base = if cfg.input_ctxs > 0 {
        cfg.input_ctxs.div_ceil(4) * 4
    } else {
        0
    };
    let output_ids = order(out_base, cfg.output_ctxs);
    // `Router::new` adds the input ring first, then the output ring.
    let input_ring = 0;
    let output_ring = usize::from(!input_ids.is_empty());
    for (pos, &ctx) in input_ids.iter().enumerate() {
        let prog = InputLoop::new(
            pos % cfg.ports_in_use,
            ctx % IN_FIFO_SLOTS,
            input_ring,
            pos,
            cfg.in_discipline,
            cfg.chip.spinlock_mutexes,
        );
        r.ixp.set_program(ctx, timed(prog, probes));
    }
    for (j, &ctx) in output_ids.iter().enumerate() {
        let prog = OutputLoop::new(
            j % cfg.ports_in_use,
            j % OUT_FIFO_SLOTS,
            output_ring,
            cfg.out_discipline,
            cfg.out_batch,
        );
        r.ixp.set_program(ctx, timed(prog, probes));
    }
}

fn timed<P: CtxProgram<RouterWorld> + 'static>(
    inner: P,
    probes: &Arc<Probes>,
) -> Box<dyn CtxProgram<RouterWorld>> {
    Box::new(TimedProgram {
        inner,
        ns: 0,
        calls: 0,
        probes: Arc::clone(probes),
    })
}

/// The ring order `Router::new` uses: consecutive members on different
/// MicroEngines (paper, section 3.2.2).
fn interleave(base: usize, n: usize) -> Vec<usize> {
    (0..4)
        .flat_map(|lane| (base..base + n).filter(move |id| (id - base) % 4 == lane))
        .collect()
}

/// Wraps a Pentium forwarder's closure so each call is timed; other
/// requests pass through unchanged.
pub fn time_pe(req: InstallRequest, probes: &Arc<Probes>) -> InstallRequest {
    match req {
        InstallRequest::Pe {
            name,
            cycles,
            tickets,
            expected_pps,
            mut f,
        } => {
            let probes = Arc::clone(probes);
            InstallRequest::Pe {
                name,
                cycles,
                tickets,
                expected_pps,
                f: Box::new(
                    move |head: &mut [u8; 64], world: &mut RouterWorld| -> PeAction {
                        let t0 = Instant::now();
                        let action = f(head, world);
                        probes.pe.add_one(t0.elapsed());
                        action
                    },
                ),
            }
        }
        other => other,
    }
}

/// An external traffic feed: a source from `npr-traffic` cut off at the
/// end of the measured horizon (so every run can drain), counting the
/// frames it offers, and timing `next_frame` when traced.
pub struct Feed {
    inner: Box<dyn TrafficSource>,
    end: Time,
    done: bool,
    offered: Arc<AtomicU64>,
    timing: Option<(Arc<Probes>, u64, u64)>,
}

impl Feed {
    /// Feeds `inner`'s frames stamped before `end`; counts them into
    /// `offered`.
    pub fn new(
        inner: Box<dyn TrafficSource>,
        end: Time,
        offered: &Arc<AtomicU64>,
        probes: Option<&Arc<Probes>>,
    ) -> Box<Self> {
        Box::new(Self {
            inner,
            end,
            done: false,
            offered: Arc::clone(offered),
            timing: probes.map(|p| (Arc::clone(p), 0, 0)),
        })
    }
}

impl TrafficSource for Feed {
    fn next_frame(&mut self) -> Option<(Time, Frame)> {
        if self.done {
            return None;
        }
        let next = match &mut self.timing {
            None => self.inner.next_frame(),
            Some((_, ns, calls)) => {
                let t0 = Instant::now();
                let next = self.inner.next_frame();
                *ns += nanos(t0.elapsed());
                *calls += 1;
                next
            }
        };
        match next {
            Some((t, frame)) if t < self.end => {
                self.offered.fetch_add(1, Ordering::Relaxed);
                Some((t, frame))
            }
            _ => {
                self.done = true;
                None
            }
        }
    }
}

impl Drop for Feed {
    fn drop(&mut self) {
        if let Some((probes, ns, calls)) = &self.timing {
            probes.src.add(*ns, *calls);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_matches_the_router_layout() {
        assert_eq!(interleave(0, 8), vec![0, 4, 1, 5, 2, 6, 3, 7]);
        assert_eq!(interleave(16, 3), vec![16, 17, 18]);
    }
}
