//! The input-loop context program (paper, Figure 5).
//!
//! Each input context owns one input-FIFO slot and services one port,
//! executing, per MP: token-protected port test and DMA load, buffer
//! address calculation, FIFO-to-register copy, `protocol_processing`
//! (classification + installed VRP forwarders), register-to-DRAM copy,
//! and — for packet-starting MPs — the enqueue under the selected
//! queueing discipline. Every register cycle and memory operation
//! follows the [`crate::costs`] model (Table 2).

use npr_ixp::{CtxProgram, Env, MemKind, MutexId, Op, PortId, RingId};
use npr_packet::{BufferHandle, EthernetFrame, Ipv4Header, Ipv4Proto, MacAddr, Mp};
use npr_vrp::VrpAction;

use crate::classify::{FlowKey, WhereRun};
use crate::costs::InputCosts;
use crate::queues::InputDiscipline;
use crate::world::{Escalation, RouterWorld, RunMode};

/// Phases of the input loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AcquireToken,
    CheckPort,
    PortDecide,
    NotReadySpin,
    DmaIssue,
    Dma,
    AfterDma,
    AddrCalc,
    CursorRead,
    CursorWrite,
    FifoToRegs,
    Protocol,
    ClassSram1,
    ClassSram2,
    VrpSram,
    RegsToDram,
    DramWrite1,
    DramWrite2,
    EnqPrep,
    EnqMutex,
    SpinTry,
    SpinCheck,
    SpinBurn,
    EnqCrit,
    EnqHeadRead,
    EnqEntryWrite,
    EnqHeadWrite,
    EnqRelease,
    ReadyBit,
    StatsWrite,
    LoopEnd,
}

/// What the protocol-processing step decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Forward,
    Drop,
    Escalate(Escalation),
}

/// The input-loop program for one context.
pub struct InputLoop {
    port: PortId,
    slot: usize,
    ring: RingId,
    /// Test-and-set spin locks instead of blocking hardware mutexes
    /// (the section 3.4.2 ablation).
    spinlock: bool,
    /// Index of this context among input contexts (private-queue slot).
    input_index: usize,
    discipline: InputDiscipline,
    costs: InputCosts,
    phase: Phase,

    // Per-iteration state.
    mp: Option<Mp>,
    buf: Option<BufferHandle>,
    mp_index: u8,
    starts: bool,
    verdict: Verdict,
    qid: usize,
    wfq_flow: Option<u16>,
    /// Flow key of the start-of-packet MP, stashed for the per-flow
    /// queue manager's hashed enqueue in `do_enqueue`.
    flow_key: Option<FlowKey>,
    mutex: Option<MutexId>,
    vrp_cycles: u32,
    vrp_sram_left: u32,

    // Statistics.
    /// Register cycles issued by this context.
    pub reg_issued: u64,
    /// Register count already published to the world counter.
    reg_published: u64,
    /// MPs completed.
    pub mps_done: u64,
}

impl InputLoop {
    /// Creates the program. `input_index` selects the private queue
    /// priority slot under [`InputDiscipline::PrivatePerCtx`].
    pub fn new(
        port: PortId,
        slot: usize,
        ring: RingId,
        input_index: usize,
        discipline: InputDiscipline,
        spinlock: bool,
    ) -> Self {
        let costs = match discipline {
            InputDiscipline::PrivatePerCtx => InputCosts::PRIVATE,
            InputDiscipline::ProtectedShared => InputCosts::PROTECTED,
        };
        Self {
            port,
            slot,
            ring,
            spinlock,
            input_index,
            discipline,
            costs,
            phase: Phase::AcquireToken,
            mp: None,
            buf: None,
            mp_index: 0,
            starts: false,
            verdict: Verdict::Forward,
            qid: 0,
            wfq_flow: None,
            flow_key: None,
            mutex: None,
            vrp_cycles: 0,
            vrp_sram_left: 0,
            reg_issued: 0,
            reg_published: 0,
            mps_done: 0,
        }
    }

    fn compute(&mut self, n: u32) -> Op {
        self.reg_issued += u64::from(n);
        Op::Compute(n)
    }

    /// `protocol_processing`: classification, forwarder execution, and
    /// all data-plane mutation for this MP. Returns the VRP cycle count
    /// to charge and stores the verdict.
    fn protocol(&mut self, env: &mut Env<'_, RouterWorld>) {
        let mp = self.mp.as_mut().expect("MP present in protocol phase");
        self.starts = mp.tag.starts_packet();
        self.verdict = Verdict::Forward;
        self.vrp_cycles = 0;
        self.vrp_sram_left = 0;
        self.wfq_flow = None;
        self.flow_key = None;

        let w: &mut RouterWorld = env.world;

        if self.starts {
            self.mp_index = 0;
            // A new frame on this port proves any unfinished assembly
            // there is dead — its final MP never arrived (dropped on
            // the wire or mislabeled by a corrupted tag). Abort it so
            // downstream stages discard the packet instead of waiting
            // forever for MPs that will never come.
            if let Some(old) = w.port_assembly[usize::from(mp.port)].take() {
                if old != mp.frame_id {
                    if let Some(a) = w.assembly.remove(&old) {
                        if w.pool.read(a.buf).is_some() {
                            w.meta_mut(a.buf).aborted = true;
                        }
                    }
                }
            }
            // --- Header validation (the classifier's job). ---
            let bytes = &mp.data[..usize::from(mp.len)];
            let Ok(eth) = EthernetFrame::parse(bytes) else {
                self.verdict = Verdict::Drop;
                w.counters.validation_drops.inc();
                return;
            };
            // The infrastructure is protocol-agnostic (section 3): IPv4
            // takes the routed path; MPLS frames are label-switched by
            // an installed forwarder; anything else is invalid.
            let mut mpls_label: Option<u32> = None;
            let ip = match eth.ethertype() {
                npr_packet::EtherType::Ipv4 => match Ipv4Header::parse(eth.payload()) {
                    Ok(ip) => Some(ip),
                    Err(_) => {
                        self.verdict = Verdict::Drop;
                        w.counters.validation_drops.inc();
                        return;
                    }
                },
                npr_packet::EtherType::Mpls => match npr_packet::MplsLabel::parse(eth.payload()) {
                    Ok(l) => {
                        mpls_label = Some(l.label);
                        None
                    }
                    Err(_) => {
                        self.verdict = Verdict::Drop;
                        w.counters.validation_drops.inc();
                        return;
                    }
                },
                _ => {
                    self.verdict = Verdict::Drop;
                    w.counters.validation_drops.inc();
                    return;
                }
            };

            // --- Experiment-controlled diversion (robustness harness):
            // an evenly spaced deterministic stride of the configured
            // permille of packets. ---
            let mut divert: Option<Escalation> = None;
            if w.divert_pe_permille > 0 {
                w.divert_ctr += w.divert_pe_permille;
                if w.divert_ctr >= 1000 {
                    w.divert_ctr -= 1000;
                    divert = Some(Escalation::Pe {
                        flow: 0,
                        fwdr: u32::MAX,
                    });
                }
            }
            if divert.is_none() && w.divert_sa_permille > 0 {
                w.divert_ctr_sa += w.divert_sa_permille;
                if w.divert_ctr_sa >= 1000 {
                    w.divert_ctr_sa -= 1000;
                    divert = Some(Escalation::SaLocal { fwdr: u32::MAX });
                }
            }

            // --- Exceptional packets: options or expiring TTL. ---
            let exceptional = ip
                .map(|ip| ip.has_options() || ip.ttl <= 1)
                .unwrap_or(false);

            // --- Flow classification (dual hash) when extensions exist. ---
            // Both TCP and UDP carry (sport, dport) in their first
            // four bytes. MPLS frames key on the top label.
            let fkey = match (ip, mpls_label) {
                (Some(ip), _) => {
                    let (sport, dport) = match ip.proto {
                        Ipv4Proto::Tcp | Ipv4Proto::Udp => {
                            let off = 14 + usize::from(ip.header_len);
                            if usize::from(mp.len) >= off + 4 {
                                (
                                    u16::from_be_bytes([mp.data[off], mp.data[off + 1]]),
                                    u16::from_be_bytes([mp.data[off + 2], mp.data[off + 3]]),
                                )
                            } else {
                                (0, 0)
                            }
                        }
                        _ => (0, 0),
                    };
                    FlowKey {
                        src: ip.src,
                        dst: ip.dst,
                        sport,
                        dport,
                    }
                }
                (None, label) => FlowKey {
                    src: label.unwrap_or(0),
                    dst: label.unwrap_or(0),
                    sport: 0,
                    dport: 0,
                },
            };
            self.flow_key = Some(fkey);
            let has_extensions = w.classifier.flow_count() + w.classifier.general_count() > 0;
            let class = if has_extensions {
                // 56-instruction extensible classifier, 20 B of SRAM —
                // charged as part of the protocol budget below.
                self.vrp_cycles += 56;
                self.vrp_sram_left += 5;
                w.classifier.classify(&fkey, &mut env.hw.hash)
            } else {
                Default::default()
            };

            // --- Tuple-space 5-tuple rules: probed only when any rule
            // is installed; the worst-case cost (the figure admission
            // verified) is charged like any other fast-path extension.
            let rule_port = if w.classifier.rule_count() > 0 {
                let cost = w.classifier.rule_cost();
                self.vrp_cycles += cost.cycles;
                self.vrp_sram_left += cost.sram;
                let key5 = npr_route::classify::PktKey5 {
                    src: fkey.src,
                    dst: fkey.dst,
                    sport: fkey.sport,
                    dport: fkey.dport,
                    proto: ip.map(|ip| u8::from(ip.proto)).unwrap_or(0),
                };
                w.classifier
                    .match_rule(&key5, &mut env.hw.hash)
                    .map(|r| r.out_port)
            } else {
                None
            };

            // --- Route: per-flow binding, then rule binding, then the
            // route cache (IPv4 only; label-switched frames are routed
            // by their forwarder's queue selection). A cache hit yields
            // the full next hop — port and rewrite MAC — so neighbors
            // sharing a port cannot alias.
            let bound_port = class.per_flow.and_then(|e| e.out_port).or(rule_port);
            let routed = match (bound_port, ip) {
                (Some(p), _) => Some(p),
                (None, Some(ip)) => {
                    let _ = env.hw.hash.hash(u64::from(ip.dst));
                    w.table.lookup_fast(ip.dst).map(|nh| nh.port)
                }
                (None, None) => None,
            };

            // --- Synthetic VRP padding (Figure 9/10 harness). ---
            if let Some((prog, state)) = w.vrp_pad.as_mut() {
                match npr_vrp::run(prog, &mut mp.data, state) {
                    Ok(r) => {
                        self.vrp_cycles += r.cycles;
                        self.vrp_sram_left += r.sram_reads + r.sram_writes;
                    }
                    // Pads bypass the verifier, so they can trap.
                    Err(_) => w.count_vrp_trap(None),
                }
            }

            // --- Run VRP forwarders (per-flow first, then generals). ---
            let mut action = VrpAction::Forward;
            let mut queue_override = None;
            let mut sa_fwdr = u32::MAX;
            let mut pe_fwdr = u32::MAX;
            let mut pe_flow = 0u8;
            let to_run: Vec<_> = class
                .per_flow
                .iter()
                .chain(class.general.iter())
                .copied()
                .collect();
            for e in to_run {
                match e.where_run {
                    WhereRun::Me => {
                        let prog = &w.me_forwarders[e.fwdr_index as usize].prog;
                        let state = &mut w.flow_state[e.state_idx as usize];
                        match npr_vrp::run(prog, &mut mp.data, state) {
                            Ok(r) => {
                                self.vrp_cycles += r.cycles;
                                self.vrp_sram_left += r.sram_reads + r.sram_writes;
                                if let Some(q) = r.queue_override {
                                    queue_override = Some(q);
                                }
                                if r.action != VrpAction::Forward {
                                    action = r.action;
                                    break;
                                }
                            }
                            Err(_) => w.count_vrp_trap(Some(e.fwdr_index)),
                        }
                    }
                    WhereRun::Sa => {
                        action = VrpAction::ToSa;
                        sa_fwdr = e.fwdr_index;
                        break;
                    }
                    WhereRun::Pe => {
                        action = VrpAction::ToPe;
                        pe_fwdr = e.fwdr_index;
                        pe_flow = (e.fid % w.sa_pe_q.len() as u32) as u8;
                        break;
                    }
                }
            }

            // A SetQueue override is a global queue id (it selects the
            // port as well): "the results of packet processing must
            // specify the destination queue of the packet".
            let override_port =
                queue_override.map(|q| (q as usize / w.queues.queues_per_port()) as u8);

            // --- Resolve the verdict. ---
            // Forwarder-directed escalation outranks the experiment's
            // synthetic diversion: classified control traffic must reach
            // its control forwarder even while the divert knob floods
            // the slow path.
            self.verdict = if action == VrpAction::Drop {
                w.counters.vrp_drops.inc();
                Verdict::Drop
            } else if action == VrpAction::ToSa || exceptional {
                let fwdr = if sa_fwdr != u32::MAX {
                    sa_fwdr
                } else {
                    w.exception_sa_fwdr
                };
                Verdict::Escalate(Escalation::SaLocal { fwdr })
            } else if action == VrpAction::ToPe {
                Verdict::Escalate(Escalation::Pe {
                    flow: pe_flow,
                    fwdr: pe_fwdr,
                })
            } else if let Some(d) = divert {
                Verdict::Escalate(d)
            } else {
                match (override_port.or(routed), mpls_label) {
                    (Some(_), _) => Verdict::Forward,
                    // An unknown label is control-plane business.
                    (None, Some(_)) => Verdict::Escalate(Escalation::SaLocal { fwdr: sa_fwdr }),
                    (None, None) => Verdict::Escalate(Escalation::SaMiss),
                }
            };

            // --- Allocate the packet buffer and fill metadata. ---
            let h = w.alloc_packet(0, mp.port, env.now);
            self.buf = Some(h);
            let out_port = override_port.or(routed).unwrap_or(0);
            {
                let meta = w.meta_mut(h);
                meta.out_port = out_port;
                meta.pe_flow = pe_flow;
                meta.needs_route = routed.is_none();
            }
            // MAC rewrite: "setting the destination MAC address to the
            // one found in the routing table, and the source MAC to that
            // of the output port" — the null forwarder does only the
            // destination rewrite (section 3.2).
            if self.verdict == Verdict::Forward {
                EthernetFrame::set_dst(&mut mp.data, MacAddr::for_port(out_port));
                EthernetFrame::set_src(&mut mp.data[..], MacAddr::for_port(out_port));
            }
            // Queue selection.
            let prio = match (self.discipline, queue_override) {
                (InputDiscipline::PrivatePerCtx, _) => {
                    self.input_index % w.queues.queues_per_port()
                }
                (_, Some(q)) => (q as usize) % w.queues.queues_per_port(),
                _ => match &mut w.wfq {
                    // The WFQ approximation: a few register ops of
                    // virtual-clock arithmetic pick the priority level.
                    Some(wfq) => match (wfq.classify)(&fkey) {
                        Some(flow) => {
                            self.vrp_cycles += 12;
                            self.wfq_flow = Some(flow);
                            wfq.mapper.level_for(flow)
                        }
                        None => 0,
                    },
                    None => 0,
                },
            };
            if w.qm.is_some() {
                // Per-flow queue manager: FNV hash plus two bitmap updates
                // of register arithmetic on the enqueue side.
                self.vrp_cycles += 16;
            }
            self.qid = w.queues.qid(usize::from(out_port), prio);
            w.meta_mut(h).qid = self.qid as u16;
            if !mp.tag.ends_packet() {
                // `next_mp: 1` — this starting MP claims slot 0 here.
                w.assembly
                    .insert(mp.frame_id, crate::world::Assembly { buf: h, next_mp: 1 });
                w.port_assembly[usize::from(mp.port)] = Some(mp.frame_id);
            }
        } else {
            // Continuation MP: find the assembly record and claim this
            // MP's buffer slot immediately. The claim must be atomic
            // with the lookup: once a stall (ISTORE install, memory
            // fault) backs MPs up in the rx buffer, sibling contexts
            // drain them back-to-back and the next MP of this frame
            // enters protocol processing before our DRAM write lands —
            // a deferred `next_mp` write-back would hand both MPs the
            // same offset and silently corrupt the reassembled packet.
            let claimed = w.assembly.get_mut(&mp.frame_id).map(|a| {
                let idx = a.next_mp;
                a.next_mp += 1;
                (a.buf, idx)
            });
            match claimed {
                Some((buf, idx)) => {
                    self.buf = Some(buf);
                    self.mp_index = idx;
                    // General ME forwarders also see continuation MPs
                    // (whole-packet transformations).
                    let gen: Vec<_> = w.classifier.general_entries().copied().collect();
                    for e in gen {
                        if e.where_run == WhereRun::Me {
                            let prog = &w.me_forwarders[e.fwdr_index as usize].prog;
                            let state = &mut w.flow_state[e.state_idx as usize];
                            match npr_vrp::run(prog, &mut mp.data, state) {
                                Ok(r) => {
                                    self.vrp_cycles += r.cycles;
                                    self.vrp_sram_left += r.sram_reads + r.sram_writes;
                                }
                                Err(_) => w.count_vrp_trap(Some(e.fwdr_index)),
                            }
                        }
                    }
                }
                None => {
                    // First MP was dropped or lapped. The packet-level
                    // drop was counted where the first MP died; this
                    // ledger makes the MP's own destruction visible.
                    w.counters.orphan_mp_drops.inc();
                    self.verdict = Verdict::Drop;
                    self.buf = None;
                }
            }
        }
    }

    /// Writes the MP's bytes into the packet buffer (data side of the
    /// DRAM writes) and updates assembly state.
    fn write_to_dram(&mut self, env: &mut Env<'_, RouterWorld>) {
        let Some(h) = self.buf else { return };
        let mp = self.mp.as_ref().expect("MP present");
        let w: &mut RouterWorld = env.world;
        let off = usize::from(self.mp_index) * 64;
        if w.pool
            .write_at(h, off, &mp.data[..usize::from(mp.len)])
            .is_none()
        {
            // The buffer lapped mid-assembly. Tear the assembly down so
            // later MPs of this frame become (counted) orphans instead
            // of re-hitting the stale handle.
            w.assembly.remove(&mp.frame_id);
            if w.port_assembly[usize::from(mp.port)] == Some(mp.frame_id) {
                w.port_assembly[usize::from(mp.port)] = None;
            }
            if self.starts {
                // Not yet admitted: this is the packet's one drop site.
                w.counters.input_lap_drops.inc();
            }
            // Already-admitted packets are counted once, downstream,
            // when their stale descriptor is dequeued and read.
            self.verdict = Verdict::Drop;
            return;
        }
        let meta = w.meta_mut(h);
        meta.len += u16::from(mp.len);
        // Count of MPs landed in DRAM, not highest index: slots were
        // claimed in `protocol`, so concurrent same-frame writes may
        // complete out of order, and `written == total` must mean
        // "every MP is in DRAM" before the SA touches the bytes.
        meta.mps_written += 1;
        if mp.tag.ends_packet() {
            meta.mps_total = self.mp_index + 1;
            w.assembly.remove(&mp.frame_id);
            if w.port_assembly[usize::from(mp.port)] == Some(mp.frame_id) {
                w.port_assembly[usize::from(mp.port)] = None;
            }
        }
    }

    /// The data side of the enqueue (timing is charged by the phases).
    fn do_enqueue(&mut self, env: &mut Env<'_, RouterWorld>) {
        let Some(h) = self.buf else { return };
        let desc = h.to_descriptor();
        let w: &mut RouterWorld = env.world;
        // Tracing: match by the packet's IPv4 destination.
        if w.tracer.dst.is_some() {
            let dst = w
                .pool
                .read(h)
                .filter(|b| b.len() >= 34)
                .map(|b| u32::from_be_bytes([b[30], b[31], b[32], b[33]]));
            if dst.is_some_and(|d| w.tracer.matches(d)) {
                let (verdict, qid) = match self.verdict {
                    Verdict::Forward => ("forward", Some(self.qid as u16)),
                    Verdict::Escalate(Escalation::SaLocal { .. }) => ("to-strongarm", None),
                    Verdict::Escalate(Escalation::SaMiss) => ("route-miss", None),
                    Verdict::Escalate(Escalation::Pe { .. }) => ("to-pentium", None),
                    Verdict::Drop => ("drop", None),
                };
                w.tracer.record(
                    env.now,
                    crate::trace::TraceStep::Classified {
                        in_port: w.meta_of(h).in_port,
                        qid,
                        verdict,
                    },
                );
                w.traced_descs.insert(desc);
            }
        }
        match self.verdict {
            Verdict::Forward => {
                if w.mode != RunMode::InputOnly {
                    // The per-flow queue manager, when installed, replaces
                    // the legacy QueuePlane for forwarded packets: the flow
                    // key hashes to a bounded per-flow queue and the port's
                    // AQM discipline decides admission. Discards are
                    // counted inside the plane (exactly one counter each);
                    // like every other drop site, dropping never frees the
                    // buffer — one-lap pool semantics.
                    let meta = w.meta[h.index() as usize];
                    let admitted = match (&mut w.qm, self.flow_key) {
                        (Some(qm), Some(key)) => qm.enqueue(
                            usize::from(meta.out_port),
                            &key,
                            desc,
                            u32::from(meta.len.max(60)),
                            env.now,
                        ),
                        _ => w.queues.enqueue(self.qid, desc),
                    };
                    if admitted && w.traced_descs.contains(&desc) {
                        w.tracer.record(
                            env.now,
                            crate::trace::TraceStep::Enqueued {
                                qid: self.qid as u16,
                            },
                        );
                    }
                    // Only admitted packets consume WFQ service credit.
                    if admitted {
                        if let (Some(flow), Some(wfq)) = (self.wfq_flow, &mut w.wfq) {
                            let len =
                                w.meta[BufferHandle::from_descriptor(desc).index() as usize].len;
                            wfq.mapper.charge(flow, u32::from(len.max(60)));
                        }
                    }
                }
                w.counters.input_pkts.inc();
            }
            Verdict::Escalate(esc) => {
                let q = match esc {
                    Escalation::SaLocal { .. } => &mut w.sa_local_q,
                    Escalation::SaMiss => &mut w.sa_miss_q,
                    Escalation::Pe { flow, .. } => &mut w.sa_pe_q[usize::from(flow)],
                };
                if q.enqueue(desc) {
                    w.escalations.insert(desc, esc);
                    w.signals.push(crate::plane::PlaneSignal::WakeSa);
                }
                match esc {
                    Escalation::Pe { .. } => w.counters.to_pe.inc(),
                    _ => w.counters.to_sa.inc(),
                }
                w.counters.input_pkts.inc();
            }
            Verdict::Drop => {}
        }
    }
}

impl CtxProgram<RouterWorld> for InputLoop {
    fn resume(&mut self, env: &mut Env<'_, RouterWorld>) -> Op {
        loop {
            match self.phase {
                Phase::AcquireToken => {
                    self.phase = Phase::CheckPort;
                    return Op::TokenAcquire(self.ring);
                }
                Phase::CheckPort => {
                    self.phase = Phase::PortDecide;
                    return self.compute(self.costs.port_check);
                }
                Phase::PortDecide => {
                    if env.hw.port_rdy(self.port) {
                        self.phase = Phase::DmaIssue;
                    } else {
                        // Figure 5 line 3: `goto INPUT_LOOP`. The context
                        // releases the token and spins back to the
                        // acquire — it must keep cycling the token even
                        // when its port is idle, or the rotation stalls
                        // for every other member. A short idle models
                        // the re-test pacing without flooding the event
                        // queue.
                        self.phase = Phase::NotReadySpin;
                        return Op::TokenRelease(self.ring);
                    }
                }
                Phase::NotReadySpin => {
                    self.phase = Phase::AcquireToken;
                    return Op::Idle(npr_sim::cycles_to_ps(16));
                }
                Phase::DmaIssue => {
                    self.phase = Phase::Dma;
                    return self.compute(self.costs.dma_issue);
                }
                Phase::Dma => {
                    self.phase = Phase::AfterDma;
                    return Op::DmaRxToFifo {
                        port: self.port,
                        slot: self.slot,
                    };
                }
                Phase::AfterDma => {
                    self.mp = env.hw.in_fifo[self.slot].pop_front();
                    debug_assert!(self.mp.is_some(), "DMA completed without an MP");
                    self.phase = Phase::AddrCalc;
                    return Op::TokenRelease(self.ring);
                }
                Phase::AddrCalc => {
                    self.phase = Phase::CursorRead;
                    return self.compute(self.costs.addr_calc);
                }
                Phase::CursorRead => {
                    self.phase = Phase::CursorWrite;
                    return Op::MemRead(MemKind::Scratch, 4);
                }
                Phase::CursorWrite => {
                    self.phase = Phase::FifoToRegs;
                    return Op::MemWrite(MemKind::Scratch, 4);
                }
                Phase::FifoToRegs => {
                    self.phase = Phase::Protocol;
                    return self.compute(self.costs.fifo_to_regs);
                }
                Phase::Protocol => {
                    self.protocol(env);
                    self.phase = if self.starts {
                        Phase::ClassSram1
                    } else {
                        Phase::VrpSram
                    };
                    let n = self.costs.protocol + self.vrp_cycles;
                    return self.compute(n);
                }
                Phase::ClassSram1 => {
                    self.phase = Phase::ClassSram2;
                    return Op::MemRead(MemKind::Sram, 4);
                }
                Phase::ClassSram2 => {
                    self.phase = Phase::VrpSram;
                    return Op::MemRead(MemKind::Sram, 4);
                }
                Phase::VrpSram => {
                    if self.vrp_sram_left > 0 {
                        self.vrp_sram_left -= 1;
                        return Op::MemRead(MemKind::Sram, 4);
                    }
                    self.phase = Phase::RegsToDram;
                }
                Phase::RegsToDram => {
                    self.phase = Phase::DramWrite1;
                    return self.compute(self.costs.regs_to_dram);
                }
                Phase::DramWrite1 => {
                    self.write_to_dram(env);
                    self.phase = Phase::DramWrite2;
                    return Op::MemWrite(MemKind::Dram, 32);
                }
                Phase::DramWrite2 => {
                    self.phase = if self.starts && self.verdict != Verdict::Drop {
                        Phase::EnqPrep
                    } else {
                        Phase::StatsWrite
                    };
                    return Op::MemWrite(MemKind::Dram, 32);
                }
                Phase::EnqPrep => {
                    self.mutex = env.world.queue_mutex[self.qid];
                    let protected =
                        self.discipline == InputDiscipline::ProtectedShared && self.mutex.is_some();
                    self.phase = if protected {
                        Phase::EnqMutex
                    } else {
                        Phase::EnqEntryWrite
                    };
                    // Private queues do all enqueue arithmetic up front;
                    // the protected path splits it around the mutex.
                    let prep = if protected {
                        self.costs.enqueue / 2
                    } else {
                        self.costs.enqueue
                    };
                    return self.compute(prep);
                }
                Phase::EnqMutex => {
                    if self.spinlock {
                        self.phase = Phase::SpinCheck;
                        return Op::MutexTryAcquire(self.mutex.expect("mutex present"));
                    }
                    self.phase = Phase::EnqCrit;
                    return Op::MutexAcquire(self.mutex.expect("mutex present"));
                }
                Phase::SpinTry => {
                    self.phase = Phase::SpinCheck;
                    return Op::MutexTryAcquire(self.mutex.expect("mutex present"));
                }
                Phase::SpinCheck => {
                    if env.hw.last_try[env.ctx] {
                        self.phase = Phase::EnqCrit;
                    } else {
                        // Spin: the test-branch-retest loop burns issue
                        // cycles the lock holder also needs.
                        self.phase = Phase::SpinBurn;
                    }
                }
                Phase::SpinBurn => {
                    // Pull the probe result from the transfer register,
                    // test, branch (with delay slots), regenerate the
                    // address: the realistic retry loop body.
                    self.phase = Phase::SpinTry;
                    return self.compute(10);
                }
                Phase::EnqCrit => {
                    self.phase = Phase::EnqHeadRead;
                    return self.compute(self.costs.enqueue - self.costs.enqueue / 2);
                }
                Phase::EnqHeadRead => {
                    self.phase = Phase::EnqEntryWrite;
                    return Op::MemRead(MemKind::Scratch, 4);
                }
                Phase::EnqEntryWrite => {
                    self.phase = match self.discipline {
                        InputDiscipline::ProtectedShared => Phase::EnqHeadWrite,
                        InputDiscipline::PrivatePerCtx => Phase::ReadyBit,
                    };
                    return Op::MemWrite(MemKind::Sram, 4);
                }
                Phase::EnqHeadWrite => {
                    self.phase = Phase::EnqRelease;
                    return Op::MemWrite(MemKind::Scratch, 4);
                }
                Phase::EnqRelease => {
                    self.do_enqueue(env);
                    self.phase = Phase::ReadyBit;
                    if let Some(m) = self.mutex {
                        return Op::MutexRelease(m);
                    }
                }
                Phase::ReadyBit => {
                    if self.discipline == InputDiscipline::PrivatePerCtx {
                        self.do_enqueue(env);
                    }
                    self.phase = Phase::StatsWrite;
                    return Op::MemWrite(MemKind::Scratch, 4);
                }
                Phase::StatsWrite => {
                    self.phase = Phase::LoopEnd;
                    return Op::MemWrite(MemKind::Scratch, 4);
                }
                Phase::LoopEnd => {
                    self.mps_done += 1;
                    env.world.counters.input_mps.inc();
                    let delta =
                        self.reg_issued + u64::from(self.costs.loop_ctl) - self.reg_published;
                    env.world.counters.input_reg_cycles.add(delta);
                    self.reg_published = self.reg_issued + u64::from(self.costs.loop_ctl);
                    self.mp = None;
                    self.buf = None;
                    self.phase = Phase::AcquireToken;
                    return self.compute(self.costs.loop_ctl);
                }
            }
        }
    }
}
