//! Stopwatch benches (in-repo `npr_check::bench` harness): one group
//! per paper table/figure, run on reduced windows so `cargo bench`
//! completes quickly while still exercising every experiment path
//! end-to-end.

use npr_check::bench::Criterion;
use npr_bench::BENCH_WINDOW as W;
use npr_core::{ms, us, InputDiscipline, OutputDiscipline, Router, RouterConfig};
use npr_forwarders::{pad_program, PadKind};

fn warm() -> npr_sim::Time {
    us(300)
}

fn bench_table1(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1");
    g.sample_size(10);
    g.bench_function("i2_protected_input", |b| {
        b.iter(|| {
            let mut r = Router::new(RouterConfig::table1_input(
                InputDiscipline::ProtectedShared,
                false,
            ));
            r.measure(warm(), W).forward_mpps
        })
    });
    g.bench_function("o1_batched_output", |b| {
        b.iter(|| {
            let mut r = Router::new(RouterConfig::table1_output(OutputDiscipline::SingleBatched));
            r.measure(warm(), W).forward_mpps
        })
    });
    g.bench_function("system_i2_o1", |b| {
        b.iter(|| {
            let mut r = Router::new(RouterConfig::table1_system());
            r.measure(warm(), W).forward_mpps
        })
    });
    g.finish();
}

fn bench_fig7(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    for n in [8usize, 24] {
        g.bench_function(format!("input_{n}ctx"), |b| {
            b.iter(|| {
                let mut r = Router::new(RouterConfig::fig7_input(n));
                r.measure(warm(), W).forward_mpps
            })
        });
    }
    g.finish();
}

fn bench_fig9(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9");
    g.sample_size(10);
    for blocks in [0u32, 32] {
        g.bench_function(format!("combo_{blocks}"), |b| {
            b.iter(|| {
                let mut r = Router::new(RouterConfig::table1_system());
                r.set_vrp_pad(pad_program(PadKind::Combo, blocks));
                r.measure(warm(), W).forward_mpps
            })
        });
    }
    g.finish();
}

fn bench_fig10(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    g.bench_function("contended_32_blocks", |b| {
        b.iter(|| {
            let mut r = Router::new(RouterConfig::table1_input(
                InputDiscipline::ProtectedShared,
                true,
            ));
            r.set_vrp_pad(pad_program(PadKind::Combo, 32));
            r.measure(warm(), W).forward_mpps
        })
    });
    g.finish();
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut g = c.benchmark_group("hierarchy");
    g.sample_size(10);
    g.bench_function("table4_pentium_64b", |b| {
        b.iter(|| {
            let mut r = Router::new(RouterConfig::pentium_path(60, false));
            r.measure(warm(), W).pe_kpps
        })
    });
    g.bench_function("strongarm_null", |b| {
        b.iter(|| {
            let mut r = Router::new(RouterConfig::strongarm_null());
            r.measure(warm(), W).sa_kpps
        })
    });
    g.bench_function("linerate_8x100", |b| {
        b.iter(|| {
            let mut r = Router::new(RouterConfig::line_rate());
            for p in 0..8 {
                r.attach_cbr(p, 0.95, u64::MAX, ((p + 1) % 8) as u8);
            }
            r.measure(ms(1), W).forward_mpps
        })
    });
    g.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("primitives");
    // LPM trie lookups.
    let mut table = npr_route::RoutingTable::new(4096);
    for i in 0..1000u32 {
        table.insert(
            i << 12,
            24,
            npr_route::NextHop {
                port: (i % 8) as u8,
                mac: npr_packet::MacAddr::for_port((i % 8) as u8),
            },
        );
    }
    g.bench_function("lpm_lookup", |b| {
        let mut x = 0u32;
        b.iter(|| {
            x = x.wrapping_add(0x9e3779b9);
            table.lookup_slow(x)
        })
    });
    // VRP interpretation of the IP-- forwarder.
    let prog = npr_forwarders::ip_minimal().unwrap();
    g.bench_function("vrp_ip_minimal", |b| {
        let mut mp = [0u8; 64];
        // Valid IP header so the program takes its long path.
        mp[12] = 0x08;
        let ip = npr_packet::Ipv4Header {
            header_len: 20,
            dscp_ecn: 0,
            total_len: 46,
            ident: 1,
            flags_frag: 0x4000,
            ttl: 64,
            proto: npr_packet::Ipv4Proto::Udp,
            checksum: 0,
            src: 1,
            dst: 2,
        };
        ip.write(&mut mp[14..]);
        let mut state = [0u8; 24];
        state[20..24].copy_from_slice(&1500u32.to_be_bytes());
        b.iter(|| {
            let mut m = mp;
            npr_vrp::run(&prog, &mut m, &mut state).unwrap()
        })
    });
    // Incremental checksum.
    g.bench_function("incremental_checksum", |b| {
        b.iter(|| npr_packet::incremental_update16(0x1234, 0x4006, 0x3f06))
    });
    // Event-queue throughput. 1000 pending events is far past the
    // sorted run, so this times the spill heap (burst behaviour); the
    // simulator's own population (under 40) stays in the run.
    g.bench_function("event_queue_push_pop", |b| {
        b.iter(|| {
            let mut q = npr_sim::EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(i.wrapping_mul(7919) % 2_000_000, i);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            n
        })
    });
    g.finish();
}

fn bench_extensions(c: &mut Criterion) {
    let mut g = c.benchmark_group("extensions");
    g.sample_size(10);
    // MPLS label switching at line rate.
    g.bench_function("mpls_lsr", |b| {
        b.iter(|| {
            let mut r = Router::new(RouterConfig::line_rate());
            let fid = r
                .install(
                    npr_core::Key::All,
                    npr_core::InstallRequest::Me {
                        prog: npr_forwarders::mpls_swap(),
                    },
                    None,
                )
                .unwrap();
            let mut st = vec![0u8; 32];
            npr_forwarders::encode_entry(&mut st, 0, 42, 777, 5);
            r.setdata(fid, &st).unwrap();
            let frames: Vec<_> = (0..500u64)
                .map(|i| (i * 7_000_000, npr_traffic::mpls_frame(42, 0, 64, 60)))
                .collect();
            r.attach_source(0, Box::new(npr_traffic::TraceSource::new(frames)));
            r.run_until(ms(5));
            r.ixp.hw.ports[5].tx_frames
        })
    });
    // Two-chassis fabric, lock-step driver on one thread.
    g.bench_function("fabric_2x", |b| {
        b.iter(|| {
            let mut f =
                npr_fabric::Fabric::new(npr_fabric::FabricConfig::single_switch(2, RouterConfig::line_rate()));
            f.member_mut(0).attach_cbr(0, 0.5, 200, 9);
            f.run_lockstep(ms(5), 1);
            f.switched()
        })
    });
    // WFQ mapper hot path.
    g.bench_function("wfq_classify_charge", |b| {
        let mut m = npr_core::WfqMapper::new(8, 2048);
        let f0 = m.add_flow(6);
        let f1 = m.add_flow(2);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let f = if i.is_multiple_of(2) { f0 } else { f1 };
            let lvl = m.level_for(f);
            m.charge(f, 64);
            m.on_service(64);
            lvl
        })
    });
    // Trie churn (the control plane's route-update cost): withdraw and
    // re-announce one /24 against a 500-route table, exercising the
    // targeted span repair and node free lists.
    g.bench_function("trie_churn_500_routes", |b| {
        let mut t = npr_route::PrefixTrie::ipv4_default();
        for i in 0..500u32 {
            t.insert(i << 12, 24, i);
        }
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 500;
            t.remove(i << 12, 24);
            t.insert(i << 12, 24, i)
        })
    });
    g.finish();
}

fn main() {
    let mut c = Criterion::from_args();
    bench_table1(&mut c);
    bench_fig7(&mut c);
    bench_fig9(&mut c);
    bench_fig10(&mut c);
    bench_hierarchy(&mut c);
    bench_primitives(&mut c);
    bench_extensions(&mut c);
}
