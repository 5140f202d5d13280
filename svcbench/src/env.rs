//! Building the system under test and applying write batches.

use crate::workload::{OpStream, Workload, WriteBatch};
use beas_common::{ResourceQuota, Result, Row, Value};
use beas_core::BeasSystem;
use beas_service::{QueryService, Session};
use beas_tlc::{generate, tlc_access_schema, TlcConfig};
use std::collections::HashSet;

/// A service over freshly generated TLC data, one unlimited session, and
/// the workload's operation stream.
pub struct Env {
    /// The service under test.
    pub service: QueryService,
    /// The one client session (closed loop, unlimited quota).
    pub session: Session,
    /// The seeded operation stream.
    pub stream: OpStream,
    /// For workloads whose stream issues no writes: a service over a fork
    /// of the same data that takes the benchmark's write batches, so that
    /// write latency is measured without the writes touching the reads.
    pub side: Option<QueryService>,
}

impl Env {
    /// Generate data at `scale` from `seed`, build the system and the
    /// service, and open the session.  No warm-up.
    pub fn build(workload: Workload, scale: u32, seed: u64) -> Result<Env> {
        let config = TlcConfig {
            scale_factor: scale,
            seed,
        };
        let db = generate(&config)?;
        let service = QueryService::new(BeasSystem::with_schema(db, tlc_access_schema())?);
        let session = service.session(ResourceQuota::unlimited());
        let side = (!workload.writes()).then(|| QueryService::new(service.snapshot().fork()));
        Ok(Env {
            service,
            session,
            stream: OpStream::new(workload, &config, seed),
            side,
        })
    }

    /// Where write batches outside the operation stream go.
    pub fn write_target(&self) -> &QueryService {
        self.side.as_ref().unwrap_or(&self.service)
    }

    /// The warm-up pass through the session: fills the plan cache and the
    /// statistics memo.
    pub fn warm(&self) -> Result<()> {
        for read in self.stream.warmup() {
            self.session.execute(&read.sql)?;
        }
        Ok(())
    }
}

/// Whether `row` belongs to one of `pnums` (column 0 of `call`).
fn owned_by(pnums: &HashSet<&str>, row: &Row) -> bool {
    matches!(&row[0], Value::Str(p) if pnums.contains(p.as_str()))
}

/// Apply `batch` through the service; returns the rows affected.
pub fn write_service(service: &QueryService, batch: WriteBatch) -> Result<usize> {
    let outcome = match batch {
        WriteBatch::Insert(rows) => service.insert_rows("call", rows)?,
        WriteBatch::Delete(pnums) => {
            let set: HashSet<&str> = pnums.iter().map(String::as_str).collect();
            service.delete_rows("call", |row| owned_by(&set, row))?
        }
    };
    Ok(outcome.rows_affected)
}

/// Apply `batch` to a system directly (the maintenance layer without the
/// service's fork and publish); returns the rows affected.
pub fn write_system(system: &mut BeasSystem, batch: WriteBatch) -> Result<usize> {
    let outcome = match batch {
        WriteBatch::Insert(rows) => system.insert_rows("call", rows)?,
        WriteBatch::Delete(pnums) => {
            let set: HashSet<&str> = pnums.iter().map(String::as_str).collect();
            system.delete_rows("call", |row| owned_by(&set, row))?
        }
    };
    Ok(outcome.rows_affected)
}
