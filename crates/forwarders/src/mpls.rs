//! MPLS label switching as a VRP forwarder.
//!
//! The paper's performance sections note the FIFO-to-FIFO fast path
//! "is what one would expect in the common case for a virtual
//! circuit-based switch, such as one that supports MPLS", and that
//! "the classifier could itself be replaced with one that also
//! understands, say, MPLS labels". This forwarder realizes that: a
//! label-swap table in flow state, TTL handling, and queue selection —
//! all inside the VRP budget.
//!
//! Flow-state layout (`8 * entries` bytes, up to 4 entries = 32 B):
//! word `2i` = incoming label; word `2i + 1` = `(queue << 20) | out
//! label`. Unknown labels escalate to the control plane.

use npr_vrp::{Asm, Cond, Src, VrpProgram};

/// Number of label-table entries the forwarder searches.
pub const MPLS_TABLE_ENTRIES: u8 = 4;

/// Builds the label-swap forwarder.
pub fn mpls_swap() -> VrpProgram {
    let mut a = Asm::new("mpls-swap");
    let end = a.new_label();
    let tosa = a.new_label();
    // Only MPLS frames (EtherType 0x8847).
    a.ldh(0, 12);
    a.br_cond(Cond::Ne, 0, Src::Imm(0x8847), end);
    // Top label stack entry.
    a.ldw(1, 14);
    a.shr(2, 1, Src::Imm(12)); // Incoming label.
    a.and(3, 1, Src::Imm(0xff)); // TTL.
    a.br_cond(Cond::Le, 3, Src::Imm(1), tosa);

    let mut swaps = Vec::new();
    for i in 0..MPLS_TABLE_ENTRIES {
        let hit = a.new_label();
        a.sram_rd(4, i * 8);
        a.br_cond(Cond::Eq, 2, Src::Reg(4), hit);
        swaps.push(hit);
    }
    a.br(tosa);

    for (i, hit) in swaps.into_iter().enumerate() {
        a.bind(hit);
        a.sram_rd(5, i as u8 * 8 + 4); // (queue << 20) | out label.
                                       // New LSE: out label, preserved TC/BoS bits, decremented TTL.
        a.imm(6, 0xfffff);
        a.and(7, 5, Src::Reg(6));
        a.shl(7, 7, Src::Imm(12));
        a.and(0, 1, Src::Imm(0x0f00)); // TC + BoS.
        a.or(7, 7, Src::Reg(0));
        a.sub(3, 3, Src::Imm(1));
        a.or(7, 7, Src::Reg(3));
        a.stw(14, 7);
        a.shr(0, 5, Src::Imm(20));
        a.set_queue(Src::Reg(0));
        a.br(end);
    }

    a.bind(tosa);
    a.to_sa();
    a.bind(end);
    a.done();
    a.finish(usize::from(MPLS_TABLE_ENTRIES) * 8)
        .expect("valid program")
}

/// Encodes one label-table entry into flow-state bytes.
pub fn encode_entry(state: &mut [u8], slot: u8, in_label: u32, out_label: u32, queue: u32) {
    let off = usize::from(slot) * 8;
    state[off..off + 4].copy_from_slice(&in_label.to_be_bytes());
    state[off + 4..off + 8].copy_from_slice(&((queue << 20) | (out_label & 0xfffff)).to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use npr_packet::MplsLabel;
    use npr_vrp::{analyze, run, verify, VrpAction, VrpBudget};

    fn mpls_mp(label: u32, ttl: u8) -> [u8; 64] {
        let mut b = [0u8; 64];
        b[12..14].copy_from_slice(&0x8847u16.to_be_bytes());
        MplsLabel {
            label,
            tc: 3,
            bos: true,
            ttl,
        }
        .write(&mut b[14..]);
        b
    }

    #[test]
    fn fits_the_vrp_budget() {
        let cost = verify(&mpls_swap(), &VrpBudget::default()).unwrap();
        assert!(cost.worst_cycles <= 60, "{}", cost.worst_cycles);
        assert!(cost.sram_reads <= 5);
    }

    #[test]
    fn swaps_label_and_selects_queue() {
        let p = mpls_swap();
        let mut state = [0u8; 32];
        encode_entry(&mut state, 0, 100, 777, 5);
        encode_entry(&mut state, 2, 42, 0xABCDE, 3);
        let mut mp = mpls_mp(42, 64);
        let r = run(&p, &mut mp, &mut state).unwrap();
        assert_eq!(r.action, VrpAction::Forward);
        assert_eq!(r.queue_override, Some(3));
        let l = MplsLabel::parse(&mp[14..]).unwrap();
        assert_eq!(l.label, 0xABCDE);
        assert_eq!(l.ttl, 63);
        assert_eq!(l.tc, 3, "traffic class preserved");
        assert!(l.bos, "bottom-of-stack preserved");
    }

    #[test]
    fn unknown_label_escalates() {
        let p = mpls_swap();
        let mut state = [0u8; 32];
        encode_entry(&mut state, 0, 100, 777, 5);
        let r = run(&p, &mut mpls_mp(9999, 64), &mut state).unwrap();
        assert_eq!(r.action, VrpAction::ToSa);
    }

    #[test]
    fn expiring_ttl_escalates() {
        let p = mpls_swap();
        let mut state = [0u8; 32];
        encode_entry(&mut state, 0, 42, 777, 5);
        let r = run(&p, &mut mpls_mp(42, 1), &mut state).unwrap();
        assert_eq!(r.action, VrpAction::ToSa);
    }

    #[test]
    fn non_mpls_frames_pass_untouched() {
        let p = mpls_swap();
        let mut state = [0u8; 32];
        let mut mp = [0u8; 64];
        mp[12] = 0x08; // IPv4.
        let before = mp;
        let r = run(&p, &mut mp, &mut state).unwrap();
        assert_eq!(r.action, VrpAction::Forward);
        assert_eq!(r.queue_override, None);
        assert_eq!(mp, before);
        // And it costs almost nothing on the IP path.
        assert_eq!(r.cycles, 4);
    }

    #[test]
    fn every_label_path_runs_within_its_verified_bound() {
        // Every semantic path — table hit, miss, expiring TTL, and the
        // non-MPLS early exit — runs without a trap and within the
        // static cost admission charged for the program.
        let cost = analyze(&mpls_swap()).unwrap();
        let mut state = [0u8; 32];
        encode_entry(&mut state, 0, 100, 777, 5);
        encode_entry(&mut state, 2, 42, 0xABCDE, 3);
        let mut ip = [0u8; 64];
        ip[12] = 0x08;
        for mut mp in [
            mpls_mp(42, 64),
            mpls_mp(100, 2),
            mpls_mp(9999, 64),
            mpls_mp(42, 1),
            ip,
        ] {
            let mut st = state;
            let r = run(&mpls_swap(), &mut mp, &mut st).unwrap();
            assert!(r.cycles <= cost.worst_cycles);
            assert!(r.sram_reads <= cost.sram_reads);
            assert_eq!(st, state, "the swap never writes flow state");
        }
    }

    #[test]
    fn worst_case_cost_is_the_miss_path() {
        let c = analyze(&mpls_swap()).unwrap();
        let p = mpls_swap();
        let mut state = [0u8; 32];
        let r = run(&p, &mut mpls_mp(9999, 64), &mut state).unwrap();
        // The miss searches all entries: close to the static bound.
        assert!(
            r.cycles + 16 >= c.worst_cycles,
            "{} vs {}",
            r.cycles,
            c.worst_cycles
        );
    }
}
