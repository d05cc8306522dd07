//! Slow-path forwarders: the pieces the paper says "clearly need to run
//! on the StrongARM or Pentium" (section 4.4), plus the control halves
//! of the Table 5 services.

use npr_core::pe::PeAction;
use npr_core::{FlowKey, InstallRequest, Key};
use npr_packet::{Ipv4Header, MacAddr};
use npr_route::NextHop;
use npr_vrp::AsmError;

/// Cycle cost of full IP (options processing) on the StrongARM/Pentium:
/// "we have measured more complicated forwarders such as TCP proxies
/// and full IP to require at least 800 and 660 cycles per packet".
pub const FULL_IP_CYCLES: u64 = 660;

/// Cycle cost of a TCP proxy per packet.
pub const TCP_PROXY_CYCLES: u64 = 800;

/// Builds the full-IP StrongARM forwarder: handles options-bearing and
/// TTL-expiring packets (the data side of ICMP generation is modeled as
/// a drop plus counter; the ICMP reply itself is control-plane work).
pub fn full_ip_sa() -> InstallRequest {
    InstallRequest::Sa {
        name: "full-ip".into(),
        cycles: FULL_IP_CYCLES,
        f: Box::new(|bytes: &mut Vec<u8>, meta| {
            if bytes.len() < 34 {
                return false;
            }
            let Ok(_) = Ipv4Header::parse(&bytes[14..]) else {
                return false;
            };
            if !Ipv4Header::decrement_ttl(&mut bytes[14..]) {
                // TTL expired: the packet dies here (the ICMP responder
                // handles reply generation when installed).
                return false;
            }
            npr_packet::EthernetFrame::set_dst(bytes, MacAddr::for_port(meta.out_port));
            npr_packet::EthernetFrame::set_src(bytes, MacAddr::for_port(meta.out_port));
            true
        }),
    }
}

/// Builds a TCP-proxy control forwarder for the Pentium: it sees the
/// connection-setup packets of a spliced flow (a handful per
/// connection) while the VRP splicer handles the rest.
pub fn tcp_proxy_pe(expected_pps: u64) -> InstallRequest {
    InstallRequest::Pe {
        name: "tcp-proxy".into(),
        cycles: TCP_PROXY_CYCLES,
        tickets: 100,
        expected_pps,
        f: Box::new(|_head, _world| PeAction::Forward),
    }
}

/// Builds the performance-monitor control forwarder: periodically
/// aggregates the data forwarder's counters (via the shared flow
/// state) — here it simply consumes its reporting packets.
pub fn monitor_control_pe(expected_pps: u64) -> InstallRequest {
    InstallRequest::Pe {
        name: "monitor-control".into(),
        cycles: 1200,
        tickets: 50,
        expected_pps,
        f: Box::new(|_head, _world| PeAction::Consume),
    }
}

/// Builds an OSPF-ish route-update control forwarder: each control
/// packet carries `(prefix, plen, port)` in its UDP payload and is
/// consumed after updating the routing table — the paper's example of
/// control traffic that must stay isolated from data floods.
pub fn route_updater_pe(expected_pps: u64) -> InstallRequest {
    InstallRequest::Pe {
        name: "route-updater".into(),
        cycles: 15_000, // Shortest-path recomputation is expensive.
        tickets: 200,   // "...sufficient cycles to the OSPF control
        // protocol to ensure that it is able to update the routing
        // table at an acceptable rate".
        expected_pps,
        f: Box::new(|head, world| {
            // Payload at offset 42: prefix(4) plen(1) port(1).
            let prefix = u32::from_be_bytes([head[42], head[43], head[44], head[45]]);
            let plen = head[46].min(32);
            let port = head[47];
            world.table.insert(
                prefix,
                plen,
                NextHop {
                    port,
                    mac: MacAddr::for_port(port),
                },
            );
            PeAction::Consume
        }),
    }
}

/// Wavelet rate controller (control half of the dropper): reads the
/// forwarded-packet counter from shared state and recomputes the cutoff
/// layer for the current congestion level. Runs as a Pentium forwarder
/// on the video flow's own control packets.
pub fn wavelet_controller_pe(expected_pps: u64) -> InstallRequest {
    InstallRequest::Pe {
        name: "wavelet-control".into(),
        cycles: 900,
        tickets: 50,
        expected_pps,
        f: Box::new(|_head, _world| PeAction::Consume),
    }
}

/// Builds the section 4.4 service suite as `(key, request)` install
/// pairs: the Table 5 data halves as general MicroEngine forwarders,
/// paired with their Pentium control halves bound to the `ctl` flow.
///
/// Every data packet runs three real VRP programs end to end, so this
/// suite is the forwarder-heavy shape the host-speed benchmark's
/// `services_churn` workload installs.
pub fn service_suite(ctl: FlowKey) -> Result<Vec<(Key, InstallRequest)>, AsmError> {
    Ok(vec![
        (
            Key::All,
            InstallRequest::Me {
                prog: crate::table5::syn_monitor()?,
            },
        ),
        (
            Key::All,
            InstallRequest::Me {
                prog: crate::table5::wavelet_dropper()?,
            },
        ),
        (
            Key::All,
            InstallRequest::Me {
                prog: crate::table5::dscp_tagger()?,
            },
        ),
        (Key::Flow(ctl), monitor_control_pe(1_000)),
        (Key::Flow(ctl), wavelet_controller_pe(1_000)),
    ])
}

/// Builds the ICMP responder: the StrongARM exception handler behind
/// the fast path's TTL/options escalation. TTL-expired packets are
/// answered with Time Exceeded back out their ingress port; echo
/// requests addressed to `router_addr` are answered in place; anything
/// else gets full-IP treatment (decrement and forward).
pub fn icmp_responder_sa(router_addr: u32) -> InstallRequest {
    InstallRequest::Sa {
        name: "icmp-responder".into(),
        cycles: 1900, // Reply construction is heavier than full IP.
        f: Box::new(move |bytes: &mut Vec<u8>, meta| {
            let Ok(ip) = Ipv4Header::parse(&bytes[14..]) else {
                return false;
            };
            // Echo request for the router itself.
            if ip.dst == router_addr && npr_packet::icmp::echo_reply_in_place(bytes).is_ok() {
                meta.out_port = meta.in_port;
                return true;
            }
            if ip.ttl <= 1 {
                match npr_packet::icmp::error_reply(
                    bytes,
                    router_addr,
                    MacAddr::for_port(meta.in_port),
                    npr_packet::icmp::ICMP_TIME_EXCEEDED,
                    0,
                ) {
                    Ok(reply) => {
                        *bytes = reply;
                        meta.out_port = meta.in_port;
                        return true;
                    }
                    Err(_) => return false,
                }
            }
            // Options and other exceptions: full IP semantics.
            if !Ipv4Header::decrement_ttl(&mut bytes[14..]) {
                return false;
            }
            true
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npr_core::world::PktMeta;

    #[test]
    fn full_ip_decrements_ttl() {
        let InstallRequest::Sa { mut f, cycles, .. } = full_ip_sa() else {
            panic!("wrong kind");
        };
        assert_eq!(cycles, FULL_IP_CYCLES);
        let mut frame = npr_core::router::build_udp_frame(0, 1, 60);
        let mut meta = PktMeta::default();
        assert!(f(&mut frame, &mut meta));
        let ip = Ipv4Header::parse(&frame[14..]).unwrap();
        assert_eq!(ip.ttl, 63);
    }

    #[test]
    fn full_ip_kills_expired_ttl() {
        let InstallRequest::Sa { mut f, .. } = full_ip_sa() else {
            panic!("wrong kind");
        };
        let mut frame = npr_core::router::build_udp_frame(0, 1, 60);
        // Rewrite TTL to 1 with a fresh checksum.
        let mut ip = Ipv4Header::parse(&frame[14..]).unwrap();
        ip.ttl = 1;
        ip.write(&mut frame[14..]);
        let mut meta = PktMeta::default();
        assert!(!f(&mut frame, &mut meta));
    }

    #[test]
    fn service_suite_installs_cleanly() {
        let ctl = FlowKey {
            src: 0x0a00_0009,
            dst: 0x0a01_0001,
            sport: 2600,
            dport: 89,
        };
        let mut r = npr_core::Router::new(npr_core::RouterConfig::line_rate());
        for (key, req) in service_suite(ctl).expect("suite assembles") {
            r.install(key, req, None).expect("suite admitted");
        }
        assert_eq!(r.installed().len(), 5);
        // The three ME data halves sit on the MicroEngines; the Pentium
        // control halves do not.
        assert_eq!(r.world.me_forwarders.len(), 3);
    }

    #[test]
    fn route_updater_installs_routes() {
        let InstallRequest::Pe { mut f, .. } = route_updater_pe(100) else {
            panic!("wrong kind");
        };
        let mut world = npr_core::RouterWorld::new(npr_core::RunMode::System, 8, 1, 64, 32);
        let mut head = [0u8; 64];
        head[42..46].copy_from_slice(&0x0b000000u32.to_be_bytes());
        head[46] = 8;
        head[47] = 5;
        assert_eq!(f(&mut head, &mut world), PeAction::Consume);
        let (nh, _) = world.table.lookup_slow(0x0b001234);
        assert_eq!(nh.unwrap().port, 5);
    }
}
