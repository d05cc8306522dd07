//! The operator's control interface (paper, section 4.5): `install /
//! remove / getdata / setdata`, plus the listing view.
//!
//! Admission control and bookkeeping are synchronous — the operator
//! learns immediately whether a request is admissible — but every
//! accepted operation also becomes a [`ControlOp`] that traverses the
//! processor hierarchy with real costs: Pentium marshalling, a PCI
//! descriptor transaction, StrongARM execution, and (for ME code) the
//! instruction-store freeze window. Use [`Router::ctl_in_flight`] to
//! wait for propagation; the costs appear in the `Report`'s `ctl_*`
//! fields.

use crate::classify::{Key, WhereRun};
use crate::install::{
    admit_me, admit_pe, admit_sa, AdmitError, Fid, InstallRecord, InstallRequest,
};
use crate::pe::PeForwarder;
use crate::plane::{ControlOp, ControlVerb, CtlStats, PlaneEvent};
use crate::router::Router;
use crate::sa::SaForwarder;
use crate::world::MeForwarder;

/// One row of the operator's view of the extension plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstalledEntry {
    /// Forwarder id.
    pub fid: Fid,
    /// Report name.
    pub name: String,
    /// The processor level it runs on.
    pub where_run: WhereRun,
    /// Instruction-store slots its code occupies (ME only; 0 elsewhere).
    pub istore_slots: usize,
}

impl Router {
    /// Installs a StrongARM forwarder as the handler for exceptional
    /// packets (TTL expiry, IP options) that no other forwarder claims.
    pub fn install_exception_handler(&mut self, req: InstallRequest) -> Result<Fid, AdmitError> {
        let fid = self.install(Key::All, req, None)?;
        // The handler must not run on every packet as a general
        // forwarder — it only serves escalations.
        self.world.classifier.unbind(fid);
        let rec = &self.installs[&fid];
        debug_assert_eq!(
            rec.where_run,
            WhereRun::Sa,
            "exception handlers run on the SA"
        );
        self.world.exception_sa_fwdr = rec.fwdr_index;
        Ok(fid)
    }

    /// Installs a forwarder for `key` with `state_bytes` of flow state.
    ///
    /// Admission is immediate; activation is not. The operation crosses
    /// the hierarchy with simulated costs, and for ME code the
    /// instruction-store write (with its input-engine freeze window)
    /// lands only when the op reaches the fast path.
    pub fn install(
        &mut self,
        key: Key,
        req: InstallRequest,
        out_port: Option<u8>,
    ) -> Result<Fid, AdmitError> {
        let fid = self.next_fid;
        let (where_run, fwdr_index, istore_id, state_bytes, slots) = match req {
            InstallRequest::Me { prog } => {
                let cost = admit_me(
                    &self.world,
                    &prog,
                    &key,
                    &self.vrp_budget,
                    self.istore.free_slots(),
                )?;
                let slots = prog.istore_slots();
                let id = self.istore.install(slots).map_err(AdmitError::IStore)?;
                let state_bytes = usize::from(prog.state_bytes);
                self.world.me_forwarders.push(MeForwarder { prog, cost });
                (
                    WhereRun::Me,
                    (self.world.me_forwarders.len() - 1) as u32,
                    Some(id),
                    state_bytes,
                    slots,
                )
            }
            InstallRequest::Sa { name, cycles, f } => {
                admit_sa(self.sa_reserved_for_pe)?;
                self.sa.forwarders.push(SaForwarder { name, cycles, f });
                (
                    WhereRun::Sa,
                    (self.sa.forwarders.len() - 1) as u32,
                    None,
                    64,
                    0,
                )
            }
            InstallRequest::Pe {
                name,
                cycles,
                tickets,
                expected_pps,
                f,
            } => {
                admit_pe(&self.pe.forwarders, cycles, expected_pps)?;
                self.pe.forwarders.push(PeForwarder {
                    name,
                    cycles,
                    tickets,
                    expected_pps,
                    f,
                });
                (
                    WhereRun::Pe,
                    (self.pe.forwarders.len() - 1) as u32,
                    None,
                    64,
                    0,
                )
            }
        };
        // Allocate and zero the flow state ("allocates size bytes of
        // SRAM memory to hold the flow state, and initializes it to
        // zero").
        self.world.flow_state.push(vec![0u8; state_bytes]);
        let state_idx = (self.world.flow_state.len() - 1) as u32;
        let entry = crate::install::flow_entry(fid, where_run, fwdr_index, state_idx, out_port);
        match key {
            Key::All => self.world.classifier.bind_general(entry),
            Key::Flow(k) => self.world.classifier.bind_flow(k, entry),
        }
        self.installs.insert(
            fid,
            InstallRecord {
                key,
                where_run,
                fwdr_index,
                state_idx,
                istore_id,
            },
        );
        self.next_fid += 1;
        self.submit_ctl(ControlVerb::Install { fid, slots });
        Ok(fid)
    }

    /// Removes an installed forwarder. ME removals rewrite the
    /// instruction store under the same freeze window as installs.
    pub fn remove(&mut self, fid: Fid) -> Result<(), AdmitError> {
        let rec = self.installs.remove(&fid).ok_or(AdmitError::NoSuchFid)?;
        self.world.classifier.unbind(fid);
        let mut slots = 0;
        if let Some(id) = rec.istore_id {
            slots = self.world.me_forwarders[rec.fwdr_index as usize]
                .prog
                .istore_slots();
            let _ = self.istore.remove(id);
        }
        self.submit_ctl(ControlVerb::Remove { fid, slots });
        Ok(())
    }

    /// Lists installed forwarders — the operator's view of the
    /// extension plane, sorted by fid.
    pub fn installed(&self) -> Vec<InstalledEntry> {
        let mut out: Vec<InstalledEntry> = self
            .installs
            .iter()
            .map(|(&fid, rec)| {
                let (name, istore_slots) = match rec.where_run {
                    WhereRun::Me => {
                        let f = &self.world.me_forwarders[rec.fwdr_index as usize];
                        (f.prog.name.clone(), f.prog.istore_slots())
                    }
                    WhereRun::Sa => (self.sa.forwarders[rec.fwdr_index as usize].name.clone(), 0),
                    WhereRun::Pe => (self.pe.forwarders[rec.fwdr_index as usize].name.clone(), 0),
                };
                InstalledEntry {
                    fid,
                    name,
                    where_run: rec.where_run,
                    istore_slots,
                }
            })
            .collect();
        out.sort_by_key(|e| e.fid);
        out
    }

    /// Reads a forwarder's flow state (control/data communication). The
    /// reply descriptor crosses the bus upward with simulated cost.
    pub fn getdata(&mut self, fid: Fid) -> Result<Vec<u8>, AdmitError> {
        let rec = self.installs.get(&fid).ok_or(AdmitError::NoSuchFid)?;
        let data = self.world.flow_state[rec.state_idx as usize].clone();
        self.submit_ctl(ControlVerb::GetData {
            fid,
            bytes: data.len(),
        });
        Ok(data)
    }

    /// Writes a forwarder's flow state. Payloads larger than the state
    /// allocated at install time are refused; shorter writes update a
    /// prefix.
    pub fn setdata(&mut self, fid: Fid, data: &[u8]) -> Result<(), AdmitError> {
        let rec = self.installs.get(&fid).ok_or(AdmitError::NoSuchFid)?;
        let state = &mut self.world.flow_state[rec.state_idx as usize];
        if data.len() > state.len() {
            return Err(AdmitError::StateSize {
                given: data.len(),
                capacity: state.len(),
            });
        }
        state[..data.len()].copy_from_slice(data);
        self.submit_ctl(ControlVerb::SetData {
            fid,
            bytes: data.len(),
        });
        Ok(())
    }

    /// Control operations submitted but not yet landed at their
    /// terminal level. Run the simulation forward until this reaches
    /// zero to observe fully propagated state.
    pub fn ctl_in_flight(&self) -> u64 {
        self.ctl.in_flight()
    }

    /// Lifetime control-plane accounting.
    pub fn ctl_stats(&self) -> CtlStats {
        self.ctl
    }

    /// Enqueues an admitted operation at the Pentium, where it begins
    /// its descent through the hierarchy. Also used by the health
    /// monitor to replay installs after a StrongARM soft reset.
    pub(crate) fn submit_ctl(&mut self, verb: ControlVerb) {
        let now = self.events.now();
        let op = ControlOp {
            seq: self.ctl.submitted,
            verb,
            issued: now,
        };
        self.ctl.submitted += 1;
        self.events
            .schedule(now, PlaneEvent::CtlSubmit(Box::new(op)));
    }
}
