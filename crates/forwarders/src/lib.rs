//! `npr-forwarders`: the paper's example router extensions.
//!
//! Section 4.4 / Table 5 of the paper evaluates six data forwarders that
//! run on the MicroEngines inside the VRP budget:
//!
//! | forwarder        | SRAM r/w (bytes) | register ops |
//! |------------------|------------------|--------------|
//! | TCP Splicer      | 24               | 45           |
//! | Wavelet Dropper  | 8                | 28           |
//! | ACK Monitor      | 12               | 15           |
//! | SYN Monitor      | 4                | 5            |
//! | Port Filter      | 20               | 26           |
//! | `IP--`           | 24               | 32           |
//!
//! Each is implemented here as *real* VRP bytecode that transforms real
//! packet bytes (see the unit tests), with static metrics close to the
//! paper's (the exact instruction mix of the original microcode is not
//! published; [`table5()`] reports ours next to the paper's numbers).
//!
//! The crate also provides the control-plane halves that run on the
//! Pentium (section 4.4: monitors aggregate, the wavelet controller
//! adapts the cutoff, the splicer installs per-flow deltas), the
//! StrongARM/Pentium "slow" forwarders (full IP with options at >=660
//! cycles, TCP proxy at >=800), and the synthetic VRP padding blocks
//! used by the Figure 9/10 budget sweeps.

pub mod frame;
pub mod mpls;
pub mod pads;
pub mod slow;
pub mod table5;

pub use mpls::{encode_entry, mpls_swap};
pub use pads::{pad_program, PadKind};
pub use slow::service_suite;
pub use table5::{
    ack_monitor, dscp_tagger, ip_minimal, port_filter, syn_monitor, table5, tcp_splicer,
    wavelet_dropper, Table5Row,
};

/// Every builtin VRP program in the crate: the six Table 5 rows, the
/// DSCP tagger, and the MPLS label switcher.
///
/// The corpus sweep below iterates this list, so a new builtin added
/// here is automatically held to its verified bound. Assembly failures
/// propagate as `Result`s, never panics.
pub fn corpus() -> Result<Vec<npr_vrp::VrpProgram>, npr_vrp::AsmError> {
    let mut out: Vec<npr_vrp::VrpProgram> = table5()?.into_iter().map(|row| row.prog).collect();
    out.push(dscp_tagger()?);
    out.push(mpls_swap());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use npr_vrp::{analyze, run, verify, VrpBudget};

    /// Assembly and verification are both fallible `Result`s now: a
    /// rejected builtin surfaces as a recoverable admission error the
    /// test can assert on, never a `panic!` inside the library.
    #[test]
    fn every_table5_forwarder_fits_the_default_budget() {
        let rows = crate::table5().expect("builtin rows must assemble");
        for row in rows {
            let cost = verify(&row.prog, &VrpBudget::default())
                .map_err(|e| format!("{} rejected: {e}", row.name));
            assert!(cost.is_ok(), "{}", cost.err().unwrap_or_default());
            assert!(cost.expect("checked above").worst_cycles <= 240);
        }
    }

    /// Deterministic pseudo-random fill (xorshift64) for the sweep below.
    fn fill(seed: u64, buf: &mut [u8]) {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for b in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
    }

    /// Admission soundness on the real programs: every builtin, across
    /// random and shaped MPs, runs without a trap and never costs more
    /// than its static worst case.
    #[test]
    fn builtin_corpus_runs_within_its_verified_bounds() {
        for prog in crate::corpus().expect("builtins assemble") {
            let cost = analyze(&prog).expect("builtins verify");
            for seed in 0..64u64 {
                let mut mp = [0u8; 64];
                fill(seed, &mut mp);
                // Steer a share of the sweep down the real parse paths:
                // IPv4/TCP for the Table 5 programs, MPLS for the
                // label switcher.
                match seed % 4 {
                    0 => {
                        mp[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
                        mp[23] = 6;
                    }
                    1 => mp[12..14].copy_from_slice(&0x8847u16.to_be_bytes()),
                    _ => {}
                }
                let mut st = vec![0u8; usize::from(prog.state_bytes)];
                fill(seed ^ 0xC0FF_EE, &mut st);
                let r = run(&prog, &mut mp, &mut st)
                    .unwrap_or_else(|e| panic!("{} seed {seed} trapped: {e:?}", prog.name));
                assert!(r.cycles <= cost.worst_cycles, "{} seed {seed}", prog.name);
                assert!(r.sram_reads <= cost.sram_reads, "{} seed {seed}", prog.name);
                assert!(
                    r.sram_writes <= cost.sram_writes,
                    "{} seed {seed}",
                    prog.name
                );
                assert!(r.hashes <= cost.hashes, "{} seed {seed}", prog.name);
            }
        }
    }
}
