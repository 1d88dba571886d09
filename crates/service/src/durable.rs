//! Service-side glue for the crash-safe budget journal (`starj-durable`).
//!
//! [`DurableConfig`] (a field of [`crate::ServiceConfig`]) points a service
//! at a journal directory; [`crate::Service::open`] opens the WAL, replays
//! whatever a previous process left there, and hands the recovered
//! per-tenant spends to the accountant so re-registered tenants resume
//! from their true (possibly over-charged, never under-charged) ledgers.
//!
//! [`DurableState`] is the shared runtime handle: the open
//! [`starj_durable::BudgetWal`] plus the **degraded-mode** latch. The
//! first journal failure flips the latch permanently (matching the WAL's
//! fail-stop contract): cache hits and free answers keep flowing, every
//! new budget spend is refused with
//! [`ServiceError::DurabilityUnavailable`], and the
//! `starj_durable_degraded` gauge goes to 1 until an operator restarts
//! the process (which re-runs recovery against what actually hit disk).

use crate::error::ServiceError;
use starj_durable::{
    BudgetWal, JournalRecord, RecordKind, Recovery, SyncPolicy, WalConfig, WalCounters,
};
use starj_noise::PrivacyBudget;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Where and how a service journals budget movements.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableConfig {
    /// Journal directory (created if missing). The router namespaces this
    /// per dataset: `<durable_root>/<dataset>`.
    pub dir: PathBuf,
    /// Fsync policy; [`SyncPolicy::Group`] is the production default.
    pub sync: SyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
}

impl DurableConfig {
    /// Production defaults (group fsync, 4 MiB segments) at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurableConfig { dir: dir.into(), sync: SyncPolicy::Group, segment_bytes: 4 << 20 }
    }

    pub(crate) fn wal_config(&self) -> WalConfig {
        WalConfig { dir: self.dir.clone(), sync: self.sync, segment_bytes: self.segment_bytes }
    }
}

/// Request metadata journaled alongside every settlement record, so the
/// on-disk trail answers "which query, against which data, from which
/// connection" — the same fields the telemetry audit trail carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordMeta {
    /// Stable-within-a-run fingerprint of the request's mechanism and
    /// canonical query, as on its audit events; 0 = none.
    pub query_hash: u64,
    /// Data version the request was admitted against.
    pub data_version: u64,
    /// Wire request id (0 = in-process caller).
    pub request_id: u64,
}

/// What recovery found, kept for metrics exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplaySummary {
    /// Valid records replayed at startup.
    pub records: u64,
    /// Commit records among them (the ones that rebuilt ledgers).
    pub commits: u64,
    /// Segments scanned.
    pub segments: u64,
    /// Whether a torn tail was truncated.
    pub torn_tail_truncated: bool,
}

impl ReplaySummary {
    fn of(recovery: &Recovery) -> Self {
        ReplaySummary {
            records: recovery.records,
            commits: recovery.commits,
            segments: recovery.segments,
            torn_tail_truncated: recovery.torn_tail_truncated,
        }
    }
}

/// Point-in-time durability status (rendered as `starj_durable_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableStatus {
    /// True once a journal failure has latched degraded mode.
    pub degraded: bool,
    /// Journal append/fsync/rotation counters since open.
    pub counters: WalCounters,
    /// Journal failures observed (each also latches `degraded`).
    pub journal_errors: u64,
    /// Spend attempts refused because the journal was unavailable.
    pub degraded_refusals: u64,
    /// What startup recovery replayed.
    pub replay: ReplaySummary,
}

/// The open journal plus the degraded-mode latch. One per `Service`,
/// shared (`Arc`) into every reservation it issues.
#[derive(Debug)]
pub struct DurableState {
    wal: BudgetWal,
    degraded: AtomicBool,
    journal_errors: AtomicU64,
    degraded_refusals: AtomicU64,
    replay: ReplaySummary,
}

impl DurableState {
    pub(crate) fn new(wal: BudgetWal, recovery: &Recovery) -> Self {
        DurableState {
            wal,
            degraded: AtomicBool::new(false),
            journal_errors: AtomicU64::new(0),
            degraded_refusals: AtomicU64::new(0),
            replay: ReplaySummary::of(recovery),
        }
    }

    /// True once a journal failure has flipped the service into degraded
    /// mode (cache hits and free answers only; spends refused).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    pub(crate) fn note_degraded_refusal(&self) {
        self.degraded_refusals.fetch_add(1, Ordering::Relaxed);
    }

    fn record(
        kind: RecordKind,
        tenant: &str,
        cost: &PrivacyBudget,
        meta: &RecordMeta,
    ) -> JournalRecord {
        JournalRecord {
            kind,
            tenant: tenant.to_string(),
            query_hash: meta.query_hash,
            epsilon: cost.epsilon(),
            delta: cost.delta(),
            data_version: meta.data_version,
            request_id: meta.request_id,
        }
    }

    fn latch_degraded(&self, reason: String) -> ServiceError {
        self.journal_errors.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Release);
        ServiceError::DurabilityUnavailable { reason }
    }

    /// Fail-closed append for the spend path (`Reserve`, `Commit`): the
    /// record must be durable before the caller may proceed. Refuses
    /// immediately in degraded mode; a fresh journal failure latches
    /// degraded mode and refuses.
    pub(crate) fn append_spend(
        &self,
        kind: RecordKind,
        tenant: &str,
        cost: &PrivacyBudget,
        meta: &RecordMeta,
    ) -> Result<(), ServiceError> {
        if self.is_degraded() {
            self.note_degraded_refusal();
            return Err(ServiceError::DurabilityUnavailable {
                reason: "journal broken by an earlier failure; restart to recover".into(),
            });
        }
        self.wal.append(&Self::record(kind, tenant, cost, meta)).map_err(|e| {
            self.note_degraded_refusal();
            self.latch_degraded(e.to_string())
        })
    }

    /// Best-effort append for non-spend records (`Refund`, `Refusal`).
    /// Losing one can only *over*-state the recovered spend (a refund that
    /// never hit disk was already applied in memory and replay ignores
    /// refunds anyway), so the in-memory settlement proceeds regardless;
    /// a failure still latches degraded mode.
    pub(crate) fn append_note(
        &self,
        kind: RecordKind,
        tenant: &str,
        cost: &PrivacyBudget,
        meta: &RecordMeta,
    ) {
        if self.is_degraded() {
            return;
        }
        if let Err(e) = self.wal.append(&Self::record(kind, tenant, cost, meta)) {
            let _ = self.latch_degraded(e.to_string());
        }
    }

    /// Current durability status for metrics exposition.
    pub fn status(&self) -> DurableStatus {
        DurableStatus {
            degraded: self.is_degraded(),
            counters: self.wal.counters(),
            journal_errors: self.journal_errors.load(Ordering::Relaxed),
            degraded_refusals: self.degraded_refusals.load(Ordering::Relaxed),
            replay: self.replay,
        }
    }
}

/// Journal context carried by a [`crate::accountant::Reservation`] so every
/// settlement path (commit, rollback, RAII drop) journals through the same
/// shared state with the same request metadata.
#[derive(Debug, Clone)]
pub struct JournalCtx {
    pub(crate) state: Arc<DurableState>,
    pub(crate) meta: RecordMeta,
}

impl JournalCtx {
    /// Bind the shared durable state to one request's metadata.
    pub fn new(state: Arc<DurableState>, meta: RecordMeta) -> Self {
        JournalCtx { state, meta }
    }
}
