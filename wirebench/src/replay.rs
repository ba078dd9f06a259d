//! The in-process reference replay: a synchronous `SlaService` fed the
//! exact set-up batches the serving process received, in the same order.
//! Service fitting is deterministic, so the replay reaches the same epochs
//! with the same `SystemParams`; the oracle checks served answers against
//! them. No telemetry reaches the server while it answers reads, so each
//! tenant's fit after set-up is the only one a read can see.

use std::sync::Arc;

use cos_model::SystemParams;
use cos_serve::{CalibrationBase, SlaService, SnapshotReader, TenantId};

use crate::inputs::{serve_config, Batch};

/// A replayed service plus each tenant's latest fit.
pub struct Replay {
    service: SlaService,
    reader: SnapshotReader,
    tenants: Vec<TenantId>,
    /// Tenant `t`'s current epoch and its parameters, once calibrated.
    fits: Vec<Option<(u64, Arc<SystemParams>)>>,
}

impl Replay {
    /// A fresh service over `base` for `tenants`.
    pub fn new(base: CalibrationBase, tenants: &[TenantId]) -> Replay {
        let service = SlaService::new(base, serve_config(cos_obs::Registry::new()));
        let reader = service.reader();
        Replay {
            service,
            reader,
            tenants: tenants.to_vec(),
            fits: vec![None; tenants.len()],
        }
    }

    /// Ingests one batch and records the fit it leaves each tenant with.
    pub fn apply(&mut self, batch: &Batch) {
        let tenant = &self.tenants[batch.tenant];
        for ev in &batch.events {
            self.service.ingest_for(tenant, *ev);
        }
        for (t, id) in self.tenants.iter().enumerate() {
            let Ok(state) = self.reader.state_for(id) else {
                continue;
            };
            if let Some(snap) = &state.snapshot {
                self.fits[t] = Some((snap.epoch, Arc::clone(&snap.params)));
            }
        }
    }

    /// Tenant `t`'s current epoch (0 = not calibrated).
    pub fn epoch(&self, t: usize) -> u64 {
        self.fits[t].as_ref().map_or(0, |f| f.0)
    }

    /// The fitted parameters of tenant `t`'s current epoch.
    pub fn params(&self, t: usize) -> Option<Arc<SystemParams>> {
        self.fits[t].as_ref().map(|f| Arc::clone(&f.1))
    }

    /// The synchronous service itself (the traced run times its calls;
    /// what it ingests there no longer moves the recorded fits).
    pub fn service_mut(&mut self) -> &mut SlaService {
        &mut self.service
    }
}
