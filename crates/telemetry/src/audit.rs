//! The privacy-budget audit trail: an append-only structured log of every
//! accountant decision.
//!
//! A DP deployment's budget ledger is its privacy *claim*; the audit trail
//! is the *evidence*. Every reserve, commit, refund, and refusal lands
//! here as a structured [`AuditEvent`] carrying the tenant, the canonical
//! request hash, the `(ε, δ)` delta, the data version it was admitted
//! against, and the outcome — so "tenant `a` spent `ε = 0.75`" can be
//! decomposed into *which queries, against which data, when*.
//!
//! # The reconciliation invariant
//!
//! The ledger charges budget only at commit time, so for every tenant
//!
//! ```text
//! Σ ε over Commit events  ==  ledger.spent_epsilon()
//! Σ ε over Reserve events ==  Σ Commit + Σ Refund   (every hold settles)
//! ```
//!
//! With dyadic ε values (k/2ⁿ — every workspace test and bench uses
//! these) floating-point addition is exact and order-independent, so the
//! first identity holds *bitwise*; `tests/prop_telemetry.rs` pins it
//! property-style. [`AuditTrail::committed`] computes the left-hand side.
//!
//! The trail is bounded: past `capacity`, the oldest events are dropped
//! and counted in [`AuditTrail::dropped`] — reconciliation sums therefore
//! use the running per-tenant totals, which survive eviction.

use crate::clock::now_ns;
use crate::events::EventBus;
use crate::json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

/// What the accountant did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// A hold was admitted: `spent + in-flight + cost ≤ allotment`.
    Reserve,
    /// A hold became committed spending (the answer was released).
    Commit,
    /// A hold was returned (rollback, drop, failed or stale request).
    Refund,
    /// A reserve was refused (the allotment could not absorb the cost).
    Refusal,
}

impl AuditKind {
    /// Stable snake_case name (JSONL `kind` field).
    pub fn name(self) -> &'static str {
        match self {
            AuditKind::Reserve => "reserve",
            AuditKind::Commit => "commit",
            AuditKind::Refund => "refund",
            AuditKind::Refusal => "refusal",
        }
    }
}

/// One accountant decision.
#[derive(Debug, Clone)]
pub struct AuditEvent {
    /// Monotone per-trail sequence number (stable across eviction).
    pub seq: u64,
    /// Nanoseconds since the process epoch.
    pub at_ns: u64,
    /// The tenant charged (shared, not cloned, on the hot path).
    pub tenant: Arc<str>,
    /// Hash of the canonical request (0 when the caller had none, e.g. a
    /// bare accountant test).
    pub query_hash: u64,
    /// The ε component of the `(ε, δ)` delta.
    pub epsilon: f64,
    /// The δ component.
    pub delta: f64,
    /// The data version the request was admitted against.
    pub data_version: u64,
    /// The wire request id ambient on the recording thread (the network
    /// front door's frame id; see [`crate::reqid`]). 0 = internal traffic.
    pub request_id: u64,
    /// What happened.
    pub kind: AuditKind,
}

impl AuditEvent {
    /// The event as a JSON object (one JSONL line). The `request_id` key is
    /// present only for wire traffic (non-zero ids).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("seq", Json::Num(self.seq as f64)),
            ("at_ns", Json::Num(self.at_ns as f64)),
            ("tenant", Json::Str(self.tenant.to_string())),
            ("kind", Json::Str(self.kind.name().to_string())),
            ("query_hash", Json::Str(format!("{:016x}", self.query_hash))),
            ("epsilon", Json::Num(self.epsilon)),
            ("delta", Json::Num(self.delta)),
            ("data_version", Json::Num(self.data_version as f64)),
        ];
        if self.request_id != 0 {
            pairs.push(("request_id", Json::Num(self.request_id as f64)));
        }
        Json::obj(pairs)
    }
}

/// Per-tenant running totals, exact under eviction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantTotals {
    /// Σ ε over Reserve events.
    pub reserved_epsilon: f64,
    /// Σ ε over Commit events — bit-equals the ledger's dyadic spend.
    pub committed_epsilon: f64,
    /// Σ δ over Commit events.
    pub committed_delta: f64,
    /// Σ ε over Refund events.
    pub refunded_epsilon: f64,
    /// Refusal events observed.
    pub refusals: u64,
    /// Commit events observed.
    pub commits: u64,
}

#[derive(Debug, Default)]
struct TrailState {
    events: VecDeque<AuditEvent>,
    totals: BTreeMap<Arc<str>, TenantTotals>,
    next_seq: u64,
    dropped: u64,
}

/// The bounded append-only audit trail. One mutex guards the deque — the
/// accountant already serializes per tenant, and an audit append is a few
/// field stores, so the trail adds no meaningful contention; capacity 0
/// disables recording entirely.
#[derive(Debug)]
pub struct AuditTrail {
    state: Mutex<TrailState>,
    capacity: usize,
    /// Live streaming: every recorded event is also published here.
    bus: Option<Arc<EventBus>>,
    component: Arc<str>,
}

impl AuditTrail {
    /// A trail holding at most `capacity` events (0 = disabled).
    pub fn new(capacity: usize) -> AuditTrail {
        AuditTrail {
            state: Mutex::new(TrailState::default()),
            capacity,
            bus: None,
            component: Arc::from("service"),
        }
    }

    /// The same trail also streaming every event to `bus` (labeled
    /// `component`), when one is given.
    pub fn with_bus(mut self, bus: Option<Arc<EventBus>>, component: Arc<str>) -> AuditTrail {
        self.bus = bus;
        self.component = component;
        self
    }

    /// True iff the trail records anything.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Appends one event, stamped with the wire request id ambient on the
    /// recording thread. No-op when disabled.
    pub fn record(
        &self,
        tenant: &Arc<str>,
        kind: AuditKind,
        query_hash: u64,
        epsilon: f64,
        delta: f64,
        data_version: u64,
    ) {
        self.record_for_request(
            tenant,
            kind,
            query_hash,
            epsilon,
            delta,
            data_version,
            crate::reqid::current_wire_request_id(),
        );
    }

    /// [`AuditTrail::record`] with an explicit wire request id (0 =
    /// internal). Settlement events fire on whatever thread settles the
    /// reservation — a coalescer worker refusing a stale job, for example —
    /// so callers that captured the id at submit time pass it here instead
    /// of relying on the recording thread's ambient state.
    #[allow(clippy::too_many_arguments)]
    pub fn record_for_request(
        &self,
        tenant: &Arc<str>,
        kind: AuditKind,
        query_hash: u64,
        epsilon: f64,
        delta: f64,
        data_version: u64,
        request_id: u64,
    ) {
        if !self.enabled() {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let seq = state.next_seq;
        state.next_seq += 1;
        let totals = state.totals.entry(Arc::clone(tenant)).or_default();
        match kind {
            AuditKind::Reserve => totals.reserved_epsilon += epsilon,
            AuditKind::Commit => {
                totals.committed_epsilon += epsilon;
                totals.committed_delta += delta;
                totals.commits += 1;
            }
            AuditKind::Refund => totals.refunded_epsilon += epsilon,
            AuditKind::Refusal => totals.refusals += 1,
        }
        let event = AuditEvent {
            seq,
            at_ns: now_ns(),
            tenant: Arc::clone(tenant),
            query_hash,
            epsilon,
            delta,
            data_version,
            request_id,
            kind,
        };
        if let Some(bus) = &self.bus {
            bus.publish_audit(&self.component, &event);
        }
        state.events.push_back(event);
        if state.events.len() > self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        }
    }

    /// Every retained event, oldest first.
    pub fn events(&self) -> Vec<AuditEvent> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.events.iter().cloned().collect()
    }

    /// The retained events of one tenant, oldest first.
    pub fn events_for(&self, tenant: &str) -> Vec<AuditEvent> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.events.iter().filter(|e| &*e.tenant == tenant).cloned().collect()
    }

    /// The running totals of one tenant (exact even after eviction).
    pub fn totals(&self, tenant: &str) -> TenantTotals {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.totals.get(tenant).copied().unwrap_or_default()
    }

    /// Σ `(ε, δ)` over the tenant's Commit events — the pair that must
    /// bit-equal the tenant's ledger spend when ε values are dyadic.
    pub fn committed(&self, tenant: &str) -> (f64, f64) {
        let t = self.totals(tenant);
        (t.committed_epsilon, t.committed_delta)
    }

    /// Tenants with recorded totals, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.totals.keys().map(|t| t.to_string()).collect()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).events.len()
    }

    /// True iff no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the capacity bound so far.
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// One tenant's retained events as JSONL, oldest first, with `extra`
    /// pairs appended to every line — the `/audit?tenant=` filter of the
    /// operator plane.
    pub fn to_jsonl_for(&self, tenant: &str, extra: &[(&str, &str)]) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out, Some(tenant), extra);
        out
    }

    /// Appends the retained events (only `tenant`'s, when given) to `out`
    /// as JSONL (one JSON object per line), oldest first. `extra` key/value
    /// pairs (e.g. `("dataset", name)` from a router roll-up) are appended
    /// to every line, escaped like any other string — hostile names cannot
    /// break a line. A roll-up over several trails writes them into one
    /// buffer.
    pub fn write_jsonl(&self, out: &mut String, tenant: Option<&str>, extra: &[(&str, &str)]) {
        let events = match tenant {
            Some(tenant) => self.events_for(tenant),
            None => self.events(),
        };
        for event in events {
            let mut line = event.to_json();
            if let Json::Obj(pairs) = &mut line {
                pairs.extend(extra.iter().map(|(k, v)| ((*k).to_string(), Json::Str((*v).into()))));
            }
            line.render_into(out);
            out.push('\n');
        }
    }

    /// Every retained event as JSONL, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out, None, &[]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(name: &str) -> Arc<str> {
        Arc::from(name)
    }

    #[test]
    fn disabled_trail_records_nothing() {
        let trail = AuditTrail::new(0);
        trail.record(&tenant("t"), AuditKind::Commit, 1, 0.5, 0.0, 0);
        assert!(trail.is_empty());
        assert_eq!(trail.committed("t"), (0.0, 0.0));
    }

    #[test]
    fn commit_sums_are_exact_for_dyadic_epsilons() {
        let trail = AuditTrail::new(16);
        let t = tenant("a");
        for eps in [0.5, 0.25, 0.125, 0.125] {
            trail.record(&t, AuditKind::Reserve, 7, eps, 0.0, 0);
            trail.record(&t, AuditKind::Commit, 7, eps, 0.0, 0);
        }
        let (eps, delta) = trail.committed("a");
        assert_eq!(eps, 1.0, "dyadic sum is bit-exact");
        assert_eq!(delta, 0.0);
        let totals = trail.totals("a");
        assert_eq!(totals.reserved_epsilon, 1.0);
        assert_eq!(totals.commits, 4);
    }

    #[test]
    fn eviction_keeps_totals_exact() {
        let trail = AuditTrail::new(2);
        let t = tenant("a");
        for _ in 0..5 {
            trail.record(&t, AuditKind::Commit, 0, 0.25, 0.0, 3);
        }
        assert_eq!(trail.len(), 2, "capacity bound enforced");
        assert_eq!(trail.dropped(), 3);
        assert_eq!(trail.committed("a").0, 1.25, "totals survive eviction");
        let events = trail.events();
        assert_eq!(events[0].seq, 3, "oldest retained event");
        assert_eq!(events[1].data_version, 3);
    }

    #[test]
    fn per_tenant_queries_filter() {
        let trail = AuditTrail::new(16);
        trail.record(&tenant("a"), AuditKind::Reserve, 1, 0.5, 0.0, 0);
        trail.record(&tenant("b"), AuditKind::Refusal, 2, 9.0, 0.0, 0);
        trail.record(&tenant("a"), AuditKind::Refund, 1, 0.5, 0.0, 0);
        assert_eq!(trail.events_for("a").len(), 2);
        assert_eq!(trail.events_for("b").len(), 1);
        assert_eq!(trail.totals("b").refusals, 1);
        assert_eq!(trail.totals("a").refunded_epsilon, 0.5);
        assert_eq!(trail.tenants(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn ambient_wire_request_id_lands_on_events() {
        let trail = AuditTrail::new(4);
        {
            let _scope = crate::reqid::WireRequestScope::enter(9001);
            trail.record(&tenant("t"), AuditKind::Refusal, 1, 0.5, 0.0, 0);
        }
        trail.record(&tenant("t"), AuditKind::Reserve, 1, 0.5, 0.0, 0);
        let events = trail.events();
        assert_eq!(events[0].request_id, 9001, "wire-scoped event carries the frame id");
        assert_eq!(events[1].request_id, 0, "internal traffic records no id");
        let jsonl = trail.to_jsonl();
        let first = Json::parse(jsonl.lines().next().expect("line")).expect("parses");
        assert_eq!(first.get("request_id").and_then(Json::as_f64), Some(9001.0));
        let second = Json::parse(jsonl.lines().nth(1).expect("line")).expect("parses");
        assert!(second.get("request_id").is_none(), "zero ids are omitted");
    }

    #[test]
    fn jsonl_lines_parse_and_carry_tags() {
        let trail = AuditTrail::new(4);
        trail.record(&tenant("t"), AuditKind::Commit, 0xdead_beef, 0.5, 1e-9, 2);
        let mut jsonl = String::new();
        trail.write_jsonl(&mut jsonl, None, &[("dataset", "ssb")]);
        let line = jsonl.lines().next().expect("one line");
        let parsed = Json::parse(line).expect("line parses");
        assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("commit"));
        assert_eq!(parsed.get("dataset").and_then(Json::as_str), Some("ssb"));
        assert_eq!(parsed.get("query_hash").and_then(Json::as_str), Some("00000000deadbeef"));
        assert_eq!(parsed.get("epsilon").and_then(Json::as_f64), Some(0.5));
    }
}
