//! Health-and-recovery subsystem tests: the runtime-overrun escalation
//! ladder (warn -> throttle -> quarantine), trap-storm quarantine of an
//! unverified ME forwarder, StrongARM wedge reset with install replay
//! down the simulated control path, and the `Report` surfacing of all
//! of it. Companion to the wedge-detection pins in `faults.rs`.

use npr_core::{ms, us, InstallRequest, Key, Router, RouterConfig, WhereRun};
use npr_forwarders::slow::{full_ip_sa, tcp_proxy_pe, FULL_IP_CYCLES};

/// A router whose every packet takes the StrongARM-local slow path.
fn sa_router() -> Router {
    let mut r = Router::new(RouterConfig::line_rate());
    r.install(Key::All, full_ip_sa(), None)
        .expect("SA forwarder admitted");
    r.attach_cbr(0, 0.5, 150, 1);
    r
}

/// Quiesce and require the ledger to balance: recovery actions must
/// never lose or double-count a packet.
fn settle(r: &mut Router) {
    assert!(r.drain(us(100), 600), "router failed to quiesce");
    let c = r.conservation();
    assert!(c.holds(), "deficit={} {c:?}", c.deficit());
}

#[test]
fn sa_overrun_climbs_warn_throttle_quarantine() {
    let mut r = sa_router();
    // The forwarder declared FULL_IP_CYCLES but attempts ~4x that.
    r.sa.misbehave(0, FULL_IP_CYCLES * 3);
    r.run_until(ms(3));
    settle(&mut r);
    let s = r.health.stats;
    assert!(s.warnings >= 1, "no warning rung: {s:?}");
    assert_eq!(s.throttles, 1, "throttle rung taken once: {s:?}");
    assert_eq!(s.quarantines, 1, "quarantine rung taken once: {s:?}");
    assert_eq!(r.health.quarantined, vec![(WhereRun::Sa, 0)]);
    // Quarantine unbound the forwarder: its flows fell back to the
    // default IP path, so packets kept flowing after the recovery.
    let tx: u64 = (0..8).map(|p| r.ixp.hw.ports[p].tx_frames).sum();
    assert!(tx > 0, "no traffic survived the quarantine");
    assert!(
        !r.sa.throttled.contains(&0),
        "quarantine must clear the throttle"
    );
}

#[test]
fn overrun_ladder_unwinds_when_behavior_recovers() {
    let mut r = sa_router();
    r.sa.misbehave(0, FULL_IP_CYCLES * 3);
    // One offending epoch (50us): the warn rung fires. Packets policed
    // before the fault clears may contaminate the *next* epoch's
    // average (at most the throttle rung) — but with good behavior no
    // later epoch can offend, so the quarantine rung is unreachable.
    r.run_until(us(60));
    r.sa.misbehave(0, 0);
    r.run_until(ms(3));
    settle(&mut r);
    let s = r.health.stats;
    assert!(s.warnings >= 1, "{s:?}");
    assert!(s.throttles <= 1, "{s:?}");
    assert_eq!(s.quarantines, 0, "recovered forwarder was quarantined");
    assert!(
        !r.sa.throttled.contains(&0),
        "throttle must lift once the overrun disappears"
    );
    assert!(r.health.quarantined.is_empty());
}

#[test]
fn pe_overrun_is_policed_like_the_strongarm() {
    let mut r = Router::new(RouterConfig::line_rate());
    r.install(Key::All, tcp_proxy_pe(50_000), None)
        .expect("PE forwarder admitted");
    r.attach_cbr(0, 0.5, 150, 1);
    r.pe.misbehave(0, 4_000);
    r.run_until(ms(3));
    settle(&mut r);
    let s = r.health.stats;
    assert_eq!(s.throttles, 1, "{s:?}");
    assert_eq!(s.quarantines, 1, "{s:?}");
    assert_eq!(r.health.quarantined, vec![(WhereRun::Pe, 0)]);
    assert!(!r.pe.throttled.contains(&0));
}

/// An always-trapping program standing in for ISTORE bit-rot: reads
/// state word 92 while only 4 bytes were allocated.
fn rotted() -> npr_vrp::VrpProgram {
    npr_vrp::VrpProgram {
        name: "rotted".into(),
        insns: vec![
            npr_vrp::Insn::SramRd { dst: 0, off: 92 },
            npr_vrp::Insn::Done,
        ],
        state_bytes: 4,
    }
}

#[test]
fn me_trap_storm_quarantines_the_forwarder() {
    let mut cfg = RouterConfig::line_rate();
    cfg.health_trap_threshold = 4;
    let mut r = Router::new(cfg);
    let fid = r
        .install(
            Key::All,
            InstallRequest::Me {
                prog: npr_forwarders::syn_monitor().unwrap(),
            },
            None,
        )
        .unwrap();
    // Simulate post-verification corruption: the installed program rots
    // in the ISTORE into one the verifier would never have admitted.
    // The interpreter's dynamic checks surface the traps.
    assert!(
        npr_vrp::analyze(&rotted()).is_err(),
        "rot must be unverifiable"
    );
    r.world.me_forwarders[0].prog = rotted();
    r.attach_cbr(0, 0.9, 300, 1);
    r.run_until(ms(4));
    settle(&mut r);
    let s = r.health.stats;
    // ME ladder has no throttle rung: warn, then quarantine.
    assert_eq!(s.quarantines, 1, "{s:?}");
    assert_eq!(s.throttles, 0, "{s:?}");
    assert_eq!(r.health.quarantined, vec![(WhereRun::Me, 0)]);
    // The traps were attributed to the rotted forwarder and counted.
    assert!(r.world.me_traps[0] >= 4);
    assert!(r.world.counters.vrp_traps.total() >= r.world.me_traps[0]);
    // Quarantine unbound it: the fid is gone from the classifier and
    // traffic kept moving on the default path afterwards.
    assert!(r.getdata(fid).is_ok(), "install record survives quarantine");
    let tx: u64 = (0..8).map(|p| r.ixp.hw.ports[p].tx_frames).sum();
    assert!(tx > 0);
}

#[test]
fn wedge_reset_replays_installs_down_the_control_path() {
    use npr_sim::{FaultClass, FaultPlan};
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_sa_permille = 333;
    let mut r = Router::new(cfg);
    r.install(
        Key::All,
        InstallRequest::Me {
            prog: npr_forwarders::syn_monitor().unwrap(),
        },
        None,
    )
    .unwrap();
    r.install(Key::All, full_ip_sa(), None).unwrap();
    let submitted_before = r.ctl_stats().submitted;
    r.attach_cbr(0, 0.5, 150, 1);
    r.set_fault_plan(Some(
        FaultPlan::new(9).with_rate(FaultClass::SaWedge, 100_000),
    ));
    r.run_until(ms(3));
    settle(&mut r);
    let s = r.health.stats;
    assert!(s.sa_resets > 0, "the wedge rate never tripped the watchdog");
    // Every reset replays both installs through the simulated control
    // path (Pentium marshalling, PCI descriptor, StrongARM execution).
    let replayed = r.ctl_stats().submitted - submitted_before;
    assert!(
        replayed >= s.sa_resets * 2,
        "{replayed} control ops for {} resets",
        s.sa_resets
    );
    // The reset preserved the installed set — nothing was quarantined.
    assert_eq!(r.installed().len(), 2);
    assert_eq!(s.quarantines, 0);
}

#[test]
fn forwarders_at_declared_cost_are_never_policed() {
    // Overrun policing measures *simulated* attempted cycles, so a
    // verified ME forwarder and an SA forwarder running exactly at its
    // declared cost must climb no rung of the escalation ladder, and
    // the ME program must never trap.
    let mut cfg = RouterConfig::line_rate();
    cfg.divert_sa_permille = 200;
    let mut r = Router::new(cfg);
    r.install(
        Key::All,
        InstallRequest::Me {
            prog: npr_forwarders::syn_monitor().unwrap(),
        },
        None,
    )
    .unwrap();
    r.install(Key::All, full_ip_sa(), None).unwrap();
    r.attach_cbr(0, 0.9, 300, 1);
    r.run_until(ms(3));
    settle(&mut r);
    let s = r.health.stats;
    assert!(s.epochs > 0, "monitor never sampled");
    assert_eq!(s.warnings, 0, "{s:?}");
    assert_eq!(s.throttles, 0, "{s:?}");
    assert_eq!(s.quarantines, 0, "{s:?}");
    assert!(r.health.quarantined.is_empty());
    assert_eq!(
        r.world.counters.vrp_traps.total(),
        0,
        "verified program trapped"
    );
    let tx: u64 = (0..8).map(|p| r.ixp.hw.ports[p].tx_frames).sum();
    assert!(tx > 0, "no traffic moved");
}

#[test]
fn report_surfaces_health_counters() {
    let mut r = sa_router();
    r.sa.misbehave(0, FULL_IP_CYCLES * 3);
    let report = r.measure(us(0), ms(3));
    assert!(report.health_epochs > 0);
    assert!(report.health_warnings >= 1);
    assert_eq!(report.health_throttles, 1);
    assert_eq!(report.health_quarantines, 1);
    assert_eq!(report.recoveries, 1);
    assert!(report.recovery_latency_avg_us > 0.0);
}
