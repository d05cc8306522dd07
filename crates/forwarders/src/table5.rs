//! The six data forwarders of the paper's Table 5, as VRP bytecode.
//!
//! Each program really transforms packet bytes (tests verify the effect
//! against the `npr-packet` reference implementations). The paper's
//! exact microcode is unpublished, so instruction counts differ by a few
//! operations; [`table5`] reports ours beside the paper's.

use npr_vrp::{Asm, AsmError, Cond, Insn, Src, VrpProgram};

use crate::frame::*;

/// One row of the Table 5 report.
pub struct Table5Row {
    /// Forwarder name.
    pub name: &'static str,
    /// Paper's SRAM bytes touched.
    pub paper_sram_bytes: u32,
    /// Paper's register-operation count.
    pub paper_reg_ops: u32,
    /// Our program.
    pub prog: VrpProgram,
    /// Our unique SRAM bytes touched.
    pub sram_bytes: u32,
    /// Our register operations (instructions excluding SRAM accesses).
    pub reg_ops: u32,
}

/// Computes `(unique SRAM bytes, register ops)` the way the paper's
/// table counts them: bytes are distinct 4-byte state words referenced;
/// register operations are all other instructions.
pub fn metrics(prog: &VrpProgram) -> (u32, u32) {
    let mut offs = std::collections::BTreeSet::new();
    let mut sram_ops = 0u32;
    for i in &prog.insns {
        match i {
            Insn::SramRd { off, .. } | Insn::SramWr { off, .. } => {
                offs.insert(*off / 4);
                sram_ops += 1;
            }
            _ => {}
        }
    }
    (offs.len() as u32 * 4, prog.insns.len() as u32 - sram_ops)
}

/// Emits the RFC 1624 incremental checksum update
/// `hc' = ~(~hc + ~old + new)` over 16-bit words already in registers.
/// `mask` must hold `0xffff`. Nine instructions.
fn emit_csum_patch(a: &mut Asm, hc: u8, old: u8, new: u8, tmp: u8, mask: u8) {
    a.xor(hc, hc, Src::Reg(mask)); // ~hc
    a.xor(old, old, Src::Reg(mask)); // ~old (16-bit)
    a.add(hc, hc, Src::Reg(old));
    a.add(hc, hc, Src::Reg(new));
    // Two folds bound any carry from three 16-bit addends.
    a.shr(tmp, hc, Src::Imm(16));
    a.and(hc, hc, Src::Reg(mask));
    a.add(hc, hc, Src::Reg(tmp));
    a.shr(tmp, hc, Src::Imm(16));
    a.and(hc, hc, Src::Reg(mask));
    a.add(hc, hc, Src::Reg(tmp));
    a.xor(hc, hc, Src::Reg(mask));
}

/// SYN Monitor: "counts the rate of SYN packets in an effort to detect
/// a SYN attack". State: one counter word.
///
/// Paper: 4 SRAM bytes, 5 register ops.
pub fn syn_monitor() -> Result<VrpProgram, AsmError> {
    let mut a = Asm::new("syn-monitor");
    let end = a.new_label();
    a.ldb(0, TCP_FLAGS);
    a.and(1, 0, Src::Imm(FLAG_SYN));
    a.br_cond(Cond::Eq, 1, Src::Imm(0), end);
    a.sram_rd(2, 0);
    a.add(2, 2, Src::Imm(1));
    a.sram_wr(0, 2);
    a.bind(end);
    a.done();
    a.finish(4)
}

/// ACK Monitor: "watches a TCP connection for repeat ACKs in an effort
/// to determine the connection's behavior". State: last ACK seen, a
/// duplicate counter, and a total counter (12 bytes).
///
/// Paper: 12 SRAM bytes, 15 register ops.
pub fn ack_monitor() -> Result<VrpProgram, AsmError> {
    let mut a = Asm::new("ack-monitor");
    let end = a.new_label();
    let fresh = a.new_label();
    a.ldb(0, IP_PROTO);
    a.br_cond(Cond::Ne, 0, Src::Imm(PROTO_TCP), end);
    a.ldb(1, TCP_FLAGS);
    a.and(2, 1, Src::Imm(FLAG_ACK));
    a.br_cond(Cond::Eq, 2, Src::Imm(0), end);
    a.ldw(3, TCP_ACK);
    a.sram_rd(4, 0); // Last ACK.
    a.br_cond(Cond::Ne, 3, Src::Reg(4), fresh);
    // Duplicate ACK: count it.
    a.sram_rd(5, 4);
    a.add(5, 5, Src::Imm(1));
    a.sram_wr(4, 5);
    a.br(end);
    a.bind(fresh);
    // New ACK: remember it, bump the total.
    a.sram_wr(0, 3);
    a.sram_rd(6, 8);
    a.add(6, 6, Src::Imm(1));
    a.sram_wr(8, 6);
    a.bind(end);
    a.done();
    a.finish(12)
}

/// Port Filter: "drops packets addressed to a set of up to five port
/// ranges". State: five `(lo << 16) | hi` range words (20 bytes).
///
/// Paper: 20 SRAM bytes, 26 register ops.
pub fn port_filter() -> Result<VrpProgram, AsmError> {
    let mut a = Asm::new("port-filter");
    let end = a.new_label();
    let drop = a.new_label();
    a.ldh(0, L4_DPORT);
    a.imm(1, 0xffff);
    for i in 0..5u8 {
        let next = a.new_label();
        a.sram_rd(2, i * 4);
        a.shr(3, 2, Src::Imm(16)); // lo
        a.and(4, 2, Src::Reg(1)); // hi
        a.br_cond(Cond::Lt, 0, Src::Reg(3), next);
        a.br_cond(Cond::Le, 0, Src::Reg(4), drop);
        a.bind(next);
    }
    a.br(end);
    a.bind(drop);
    a.drop();
    a.bind(end);
    a.done();
    a.finish(20)
}

/// Wavelet Dropper: forwards low-frequency video layers and drops
/// layers above the control-plane-set cutoff under congestion. State:
/// cutoff layer and forwarded-packet counter (8 bytes).
///
/// Paper: 8 SRAM bytes, 28 register ops.
pub fn wavelet_dropper() -> Result<VrpProgram, AsmError> {
    let mut a = Asm::new("wavelet-dropper");
    let end = a.new_label();
    let drop = a.new_label();
    // Only UDP video packets are touched.
    a.ldb(0, IP_PROTO);
    a.br_cond(Cond::Ne, 0, Src::Imm(PROTO_UDP), end);
    // Sanity: the datagram must carry a payload byte.
    a.ldh(1, UDP_LEN);
    a.br_cond(Cond::Le, 1, Src::Imm(8), end);
    // Parse the layer tag: low nibble of the first payload byte; the
    // high nibble is a stream id that must match the configured stream.
    a.ldb(2, UDP_PAYLOAD);
    a.shr(3, 2, Src::Imm(4)); // Stream id.
    a.and(2, 2, Src::Imm(0x0f)); // Layer.
    a.sram_rd(4, 0); // (stream << 16) | cutoff.
    a.shr(5, 4, Src::Imm(16));
    a.br_cond(Cond::Ne, 3, Src::Reg(5), end); // Different stream.
    a.imm(6, 0xffff);
    a.and(4, 4, Src::Reg(6)); // Cutoff layer.
    a.br_cond(Cond::Gt, 2, Src::Reg(4), drop);
    // Forwarded: count for the control loop's rate estimate.
    a.sram_rd(7, 4);
    a.add(7, 7, Src::Imm(1));
    a.sram_wr(4, 7);
    // Tag the DSCP byte with the layer so downstream routers can use a
    // cheaper drop rule.
    a.ldb(5, 15);
    a.and(5, 5, Src::Imm(0x03));
    a.or(5, 5, Src::Reg(2));
    a.stb(15, 5);
    a.br(end);
    a.bind(drop);
    a.drop();
    a.bind(end);
    a.done();
    a.finish(8)
}

/// TCP Splicer: applies the per-flow sequence/acknowledgment deltas and
/// port rewrite of a spliced connection, patching the TCP checksum
/// incrementally. State (24 bytes): seq delta, ack delta, new ports
/// word, precomputed checksum adjustment for the constant rewrites,
/// packet counter, enable flag.
///
/// Paper: 24 SRAM bytes, 45 register ops.
pub fn tcp_splicer() -> Result<VrpProgram, AsmError> {
    let mut a = Asm::new("tcp-splicer");
    let end = a.new_label();
    a.ldb(0, IP_PROTO);
    a.br_cond(Cond::Ne, 0, Src::Imm(PROTO_TCP), end);
    a.sram_rd(1, 20); // Enable flag.
    a.br_cond(Cond::Eq, 1, Src::Imm(0), end);
    a.imm(7, 0xffff);
    // Accumulate the whole checksum patch in the complement domain and
    // fold once at the end: hc' = ~(~hc + sum(~old_i + new_i)).
    a.ldh(4, TCP_CSUM);
    a.xor(4, 4, Src::Reg(7));
    // seq' = seq + delta.
    a.ldw(2, TCP_SEQ);
    a.sram_rd(3, 0);
    a.add(3, 2, Src::Reg(3));
    a.stw(TCP_SEQ, 3);
    emit_word_terms(&mut a);
    // ack' = ack + delta.
    a.ldw(2, TCP_ACK);
    a.sram_rd(3, 4);
    a.add(3, 2, Src::Reg(3));
    a.stw(TCP_ACK, 3);
    emit_word_terms(&mut a);
    // Port rewrite; its constant checksum terms are precomputed by the
    // control forwarder (state word 3).
    a.sram_rd(2, 8); // (sport' << 16) | dport'.
    a.shr(3, 2, Src::Imm(16));
    a.sth(L4_SPORT, 3);
    a.and(3, 2, Src::Reg(7));
    a.sth(L4_DPORT, 3);
    a.sram_rd(5, 12); // Precomputed ~old+new terms for both ports.
    a.add(4, 4, Src::Reg(5));
    // Fold twice (eleven 16-bit addends fit in 20 bits) and complement.
    a.shr(5, 4, Src::Imm(16));
    a.and(4, 4, Src::Reg(7));
    a.add(4, 4, Src::Reg(5));
    a.shr(5, 4, Src::Imm(16));
    a.and(4, 4, Src::Reg(7));
    a.add(4, 4, Src::Reg(5));
    a.xor(4, 4, Src::Reg(7));
    a.sth(TCP_CSUM, 4);
    // Spliced-packet counter for the proxy's control loop.
    a.sram_rd(6, 16);
    a.add(6, 6, Src::Imm(1));
    a.sram_wr(16, 6);
    a.bind(end);
    a.done();
    a.finish(24)
}

/// Adds the `~old + new` checksum terms for the 32-bit word pair in
/// r2 (old) / r3 (new) to the complement-domain accumulator r4
/// (r7 = 0xffff, r5 scratch).
fn emit_word_terms(a: &mut Asm) {
    a.shr(5, 2, Src::Imm(16));
    a.xor(5, 5, Src::Reg(7));
    a.add(4, 4, Src::Reg(5));
    a.and(5, 2, Src::Reg(7));
    a.xor(5, 5, Src::Reg(7));
    a.add(4, 4, Src::Reg(5));
    a.shr(5, 3, Src::Imm(16));
    a.add(4, 4, Src::Reg(5));
    a.and(5, 3, Src::Reg(7));
    a.add(4, 4, Src::Reg(5));
}

/// `IP--`: minimal IP forwarding — TTL decrement, incremental checksum,
/// Ethernet rewrite from the route entry in flow state, MTU check, and
/// a forwarded-packet counter. Packets whose TTL expires escalate to
/// the StrongARM (ICMP Time Exceeded lives there). State (24 bytes):
/// dst MAC (words 0-1 high), src MAC (words 1-2), output queue, MTU.
///
/// Paper: 24 SRAM bytes, 32 register ops.
pub fn ip_minimal() -> Result<VrpProgram, AsmError> {
    let mut a = Asm::new("ip-minimal");
    let tosa = a.new_label();
    a.ldb(0, IP_TTL);
    a.br_cond(Cond::Le, 0, Src::Imm(1), tosa);
    // MTU check: oversized packets need fragmentation -> slow path.
    a.ldh(1, IP_TOTAL_LEN);
    a.sram_rd(2, 20); // MTU.
    a.br_cond(Cond::Gt, 1, Src::Reg(2), tosa);
    // TTL decrement + RFC 1624 checksum patch of the TTL/proto word.
    a.ldh(3, IP_TTL); // Old (ttl << 8) | proto.
    a.sub(0, 0, Src::Imm(1));
    a.stb(IP_TTL, 0);
    a.ldh(4, IP_TTL); // New word.
    a.ldh(5, IP_CSUM);
    a.imm(7, 0xffff);
    emit_csum_patch(&mut a, 5, 3, 4, 6, 7);
    a.sth(IP_CSUM, 5);
    // Ethernet rewrite from the route entry.
    a.sram_rd(0, 0);
    a.stw(ETH_DST, 0);
    a.sram_rd(0, 4);
    a.stw(4, 0);
    a.sram_rd(0, 8);
    a.stw(8, 0);
    // Output queue binding + forwarded counter.
    a.sram_rd(0, 12);
    a.set_queue(Src::Reg(0));
    a.sram_rd(1, 16);
    a.add(1, 1, Src::Imm(1));
    a.sram_wr(16, 1);
    a.done();
    a.bind(tosa);
    a.to_sa();
    a.finish(24)
}

/// Packet tagger ("packet tagging" from the paper's service list,
/// section 4.4): stamps the IP DSCP field with a configured codepoint
/// for flows matched by the classifier, patching the header checksum
/// incrementally. State: one word holding the DSCP (low 6 bits).
pub fn dscp_tagger() -> Result<VrpProgram, AsmError> {
    let mut a = Asm::new("dscp-tagger");
    a.imm(7, 0xffff);
    // Old ToS word (bytes 14-15: version/IHL + DSCP byte).
    a.ldh(3, IP_VIHL);
    a.sram_rd(0, 0); // Configured DSCP.
    a.shl(0, 0, Src::Imm(2)); // Into position (ECN preserved at 0).
    a.stb(15, 0);
    a.ldh(4, IP_VIHL); // New word.
    a.ldh(5, IP_CSUM);
    emit_csum_patch(&mut a, 5, 3, 4, 6, 7);
    a.sth(IP_CSUM, 5);
    a.done();
    a.finish(4)
}

/// All six Table 5 rows with paper-vs-ours metrics. Assembly failures
/// propagate as admission errors rather than aborting the caller.
pub fn table5() -> Result<Vec<Table5Row>, AsmError> {
    let rows: Vec<(&'static str, u32, u32, VrpProgram)> = vec![
        ("TCP Splicer", 24, 45, tcp_splicer()?),
        ("Wavelet Dropper", 8, 28, wavelet_dropper()?),
        ("ACK Monitor", 12, 15, ack_monitor()?),
        ("SYN Monitor", 4, 5, syn_monitor()?),
        ("Port Filter", 20, 26, port_filter()?),
        ("IP--", 24, 32, ip_minimal()?),
    ];
    Ok(rows
        .into_iter()
        .map(|(name, pb, pr, prog)| {
            let (sram_bytes, reg_ops) = metrics(&prog);
            Table5Row {
                name,
                paper_sram_bytes: pb,
                paper_reg_ops: pr,
                prog,
                sram_bytes,
                reg_ops,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use npr_packet::{checksum16, Ipv4Header};
    use npr_vrp::{analyze, run, VrpAction};

    /// Builds a 64-byte first MP: Ethernet + IPv4 + TCP/UDP.
    fn mp(proto: u8, flags: u8, dport: u16, payload0: u8) -> [u8; 64] {
        let mut b = [0u8; 64];
        // Ethernet.
        b[12] = 0x08;
        // IPv4 header.
        let ip = Ipv4Header {
            header_len: 20,
            dscp_ecn: 0,
            total_len: 46,
            ident: 1,
            flags_frag: 0x4000,
            ttl: 64,
            proto: proto.into(),
            checksum: 0,
            src: 0x0a000001,
            dst: 0x0a000002,
        };
        ip.write(&mut b[14..]);
        // L4.
        b[34..36].copy_from_slice(&1234u16.to_be_bytes());
        b[36..38].copy_from_slice(&dport.to_be_bytes());
        if proto == 6 {
            b[38..42].copy_from_slice(&0x1000u32.to_be_bytes());
            b[42..46].copy_from_slice(&0x2000u32.to_be_bytes());
            b[46] = 0x50;
            b[47] = flags;
        } else {
            b[38..40].copy_from_slice(&20u16.to_be_bytes()); // UDP len.
            b[42] = payload0;
        }
        b
    }

    #[test]
    fn syn_monitor_counts_only_syns() {
        let p = syn_monitor().unwrap();
        let mut state = [0u8; 4];
        let mut syn = mp(6, 0x02, 80, 0);
        let mut ack = mp(6, 0x10, 80, 0);
        run(&p, &mut syn, &mut state).unwrap();
        run(&p, &mut ack, &mut state).unwrap();
        run(&p, &mut syn, &mut state).unwrap();
        assert_eq!(u32::from_be_bytes(state), 2);
    }

    #[test]
    fn ack_monitor_distinguishes_dup_acks() {
        let p = ack_monitor().unwrap();
        let mut state = [0u8; 12];
        let mut pkt = mp(6, 0x10, 80, 0);
        run(&p, &mut pkt, &mut state).unwrap(); // New.
        run(&p, &mut pkt, &mut state).unwrap(); // Dup.
        run(&p, &mut pkt, &mut state).unwrap(); // Dup.
        let dup = u32::from_be_bytes(state[4..8].try_into().unwrap());
        let total = u32::from_be_bytes(state[8..12].try_into().unwrap());
        assert_eq!((dup, total), (2, 1));
        // Non-TCP is ignored entirely.
        let mut udp = mp(17, 0, 80, 0);
        run(&p, &mut udp, &mut state).unwrap();
        assert_eq!(u32::from_be_bytes(state[4..8].try_into().unwrap()), 2);
    }

    #[test]
    fn port_filter_drops_configured_ranges() {
        let p = port_filter().unwrap();
        let mut state = [0u8; 20];
        // Range 0: 6000..=6999. Range 1: 80..=80.
        state[0..4].copy_from_slice(&((6000u32 << 16) | 6999).to_be_bytes());
        state[4..8].copy_from_slice(&((80u32 << 16) | 80).to_be_bytes());
        let r = run(&p, &mut mp(6, 0, 6500, 0), &mut state).unwrap();
        assert_eq!(r.action, VrpAction::Drop);
        let r = run(&p, &mut mp(6, 0, 80, 0), &mut state).unwrap();
        assert_eq!(r.action, VrpAction::Drop);
        let r = run(&p, &mut mp(6, 0, 443, 0), &mut state).unwrap();
        assert_eq!(r.action, VrpAction::Forward);
        let r = run(&p, &mut mp(6, 0, 7000, 0), &mut state).unwrap();
        assert_eq!(r.action, VrpAction::Forward);
    }

    #[test]
    fn wavelet_dropper_honors_cutoff() {
        let p = wavelet_dropper().unwrap();
        let mut state = [0u8; 8];
        // Stream 1, cutoff layer 2.
        state[0..4].copy_from_slice(&((1u32 << 16) | 2).to_be_bytes());
        // Layer 1 of stream 1: forwarded (payload byte 0x11).
        let r = run(&p, &mut mp(17, 0, 5004, 0x11), &mut state).unwrap();
        assert_eq!(r.action, VrpAction::Forward);
        // Layer 5 of stream 1: dropped.
        let r = run(&p, &mut mp(17, 0, 5004, 0x15), &mut state).unwrap();
        assert_eq!(r.action, VrpAction::Drop);
        // Layer 5 of stream 2: not ours, forwarded.
        let r = run(&p, &mut mp(17, 0, 5004, 0x25), &mut state).unwrap();
        assert_eq!(r.action, VrpAction::Forward);
        // TCP packet: untouched.
        let r = run(&p, &mut mp(6, 0, 5004, 0x15), &mut state).unwrap();
        assert_eq!(r.action, VrpAction::Forward);
        let fwd = u32::from_be_bytes(state[4..8].try_into().unwrap());
        assert_eq!(fwd, 1);
    }

    #[test]
    fn splicer_patches_seq_ack_ports_and_checksum() {
        let p = tcp_splicer().unwrap();
        let mut state = [0u8; 24];
        let seq_d: u32 = 1000;
        let ack_d: u32 = 0u32.wrapping_sub(500);
        state[0..4].copy_from_slice(&seq_d.to_be_bytes());
        state[4..8].copy_from_slice(&ack_d.to_be_bytes());
        let new_ports: u32 = (4242u32 << 16) | 8080;
        state[8..12].copy_from_slice(&new_ports.to_be_bytes());
        state[20..24].copy_from_slice(&1u32.to_be_bytes());
        let mut pkt = mp(6, 0x10, 80, 0);
        // Give the TCP segment a valid standalone checksum so validity
        // is checkable after splicing (pseudo-header constants cancel in
        // incremental updates).
        let sum = checksum16(&pkt[34..54]);
        pkt[50..52].copy_from_slice(&sum.to_be_bytes());
        // Precompute the port-rewrite adjustment: ~old_sport + new_sport
        // terms for both ports, as the control forwarder would.
        let adj = {
            let mut s: u32 = 0;
            for (old, new) in [(1234u16, 4242u16), (80, 8080)] {
                s += u32::from(!old) + u32::from(new);
            }
            while s >> 16 != 0 {
                s = (s & 0xffff) + (s >> 16);
            }
            s
        };
        state[12..16].copy_from_slice(&adj.to_be_bytes());

        run(&p, &mut pkt, &mut state).unwrap();

        let seq = u32::from_be_bytes(pkt[38..42].try_into().unwrap());
        let ack = u32::from_be_bytes(pkt[42..46].try_into().unwrap());
        assert_eq!(seq, 0x1000 + 1000);
        assert_eq!(ack, 0x2000u32.wrapping_sub(500));
        assert_eq!(u16::from_be_bytes(pkt[34..36].try_into().unwrap()), 4242);
        assert_eq!(u16::from_be_bytes(pkt[36..38].try_into().unwrap()), 8080);
        // The patched checksum still validates.
        assert_eq!(checksum16(&pkt[34..54]), 0);
        // Counter bumped.
        assert_eq!(u32::from_be_bytes(state[16..20].try_into().unwrap()), 1);
    }

    #[test]
    fn splicer_disabled_is_inert() {
        let p = tcp_splicer().unwrap();
        let mut state = [0u8; 24];
        let mut pkt = mp(6, 0x10, 80, 0);
        let before = pkt;
        run(&p, &mut pkt, &mut state).unwrap();
        assert_eq!(pkt, before);
    }

    #[test]
    fn ip_minimal_decrements_ttl_and_rewrites_macs() {
        let p = ip_minimal().unwrap();
        let mut state = [0u8; 24];
        state[0..6].copy_from_slice(&[0xaa; 6]); // dst MAC.
        state[6..12].copy_from_slice(&[0xbb; 6]); // src MAC.
        state[12..16].copy_from_slice(&3u32.to_be_bytes()); // Queue.
        state[16..20].copy_from_slice(&0u32.to_be_bytes());
        state[20..24].copy_from_slice(&1500u32.to_be_bytes()); // MTU.
        let mut pkt = mp(6, 0, 80, 0);
        let r = run(&p, &mut pkt, &mut state).unwrap();
        assert_eq!(r.action, VrpAction::Forward);
        assert_eq!(r.queue_override, Some(3));
        assert_eq!(pkt[22], 63); // TTL decremented.
        assert_eq!(&pkt[0..6], &[0xaa; 6]);
        assert_eq!(&pkt[6..12], &[0xbb; 6]);
        // IP checksum still valid.
        assert_eq!(checksum16(&pkt[14..34]), 0);
        // Counter bumped.
        assert_eq!(u32::from_be_bytes(state[16..20].try_into().unwrap()), 1);
    }

    #[test]
    fn ip_minimal_escalates_expiring_ttl_and_oversize() {
        let p = ip_minimal().unwrap();
        let mut state = [0u8; 24];
        state[20..24].copy_from_slice(&1500u32.to_be_bytes());
        let mut pkt = mp(6, 0, 80, 0);
        pkt[22] = 1; // TTL about to expire.
        let sum = checksum16(&pkt[14..34]);
        let _ = sum;
        let r = run(&p, &mut pkt, &mut state).unwrap();
        assert_eq!(r.action, VrpAction::ToSa);
        // Oversize packet (total_len > MTU).
        state[20..24].copy_from_slice(&40u32.to_be_bytes());
        let mut pkt = mp(6, 0, 80, 0);
        let r = run(&p, &mut pkt, &mut state).unwrap();
        assert_eq!(r.action, VrpAction::ToSa);
    }

    #[test]
    fn dscp_tagger_stamps_and_keeps_checksum_valid() {
        let p = dscp_tagger().unwrap();
        let mut state = [0u8; 4];
        state[3] = 0x2E; // EF.
        let mut pkt = mp(17, 0, 5004, 0);
        run(&p, &mut pkt, &mut state).unwrap();
        assert_eq!(pkt[15] >> 2, 0x2E);
        assert_eq!(checksum16(&pkt[14..34]), 0, "IP checksum still valid");
    }

    #[test]
    fn every_row_runs_within_its_verified_bound() {
        // The Table 5 packet matrix — the same shapes the semantic
        // tests above use — swept through the interpreter. It pins the
        // *meaningful* paths (SYN counting, dup-ACK detection,
        // port-range drops, wavelet cutoffs, splicing, TTL escalation)
        // on real header bytes: none traps, and none costs more than
        // admission charged for it.
        for row in table5().unwrap() {
            let cost = analyze(&row.prog).unwrap();
            for proto in [6u8, 17] {
                for flags in [0x02u8, 0x10, 0x12, 0x00] {
                    for dport in [80u16, 443, 5004, 6500, 8080] {
                        for payload0 in [0x11u8, 0x15, 0x25] {
                            let mut pkt = mp(proto, flags, dport, payload0);
                            // Seed state with a recognizable pattern so
                            // config words (ranges, cutoffs) are nonzero.
                            let mut st: Vec<u8> = (0..row.prog.state_bytes)
                                .map(|k| k.wrapping_mul(0x1D) ^ 0x40)
                                .collect();
                            let r = run(&row.prog, &mut pkt, &mut st)
                                .unwrap_or_else(|e| panic!("{} trapped: {e:?}", row.name));
                            assert!(r.cycles <= cost.worst_cycles, "{}", row.name);
                            assert!(r.sram_reads <= cost.sram_reads, "{}", row.name);
                            assert!(r.sram_writes <= cost.sram_writes, "{}", row.name);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn metrics_are_close_to_table5() {
        for row in table5().unwrap() {
            let cost = analyze(&row.prog).unwrap();
            assert!(
                row.sram_bytes == row.paper_sram_bytes,
                "{}: sram {} vs paper {}",
                row.name,
                row.sram_bytes,
                row.paper_sram_bytes
            );
            let lo = row.paper_reg_ops.saturating_sub(row.paper_reg_ops / 3);
            let hi = row.paper_reg_ops + row.paper_reg_ops / 3 + 4;
            assert!(
                (lo..=hi).contains(&row.reg_ops),
                "{}: {} reg ops vs paper {}",
                row.name,
                row.reg_ops,
                row.paper_reg_ops
            );
            // And every program verifies with room to spare.
            assert!(cost.worst_cycles <= 240, "{}", row.name);
        }
    }
}
