//! Building the serving stack a workload runs on, and the checks that
//! hold it to exact answers and exact ledgers.

use crate::workload::{Mix, Stream, Universe, Workload};
use starj_durable::SyncPolicy;
use starj_engine::{canonicalize, exec, QueryResult, StarQuery, StarSchema};
use starj_gate::{Gate, GateConfig};
use starj_noise::PrivacyBudget;
use starj_router::{Router, RouterConfig};
use starj_service::{DurableConfig, Service, ServiceConfig};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;

pub const DATASET: &str = "ssb";
/// Dyadic per-query ε, so every ledger sum is exact in binary floating point.
pub const EPSILON: f64 = 0.125;
pub const ADMIN_TOKEN: &str = "tok-admin";
/// Requests per client written into the journal before a durable run.
pub const HISTORY_PER_CLIENT: usize = 1000;

pub fn tenant(client: usize) -> String {
    format!("client-{client}")
}

pub fn token(client: usize) -> String {
    format!("tok-{client}")
}

/// Seed of the SSB instance. Like dbgen's, the data is one fixed instance
/// per scale factor; the benchmark seed varies the traffic.
const DATA_SEED: u64 = 2023;

/// The SSB instance a workload serves.
pub fn generate(w: &Workload) -> Result<StarSchema, String> {
    starj_ssb::generate(&starj_ssb::SsbConfig::at_scale(w.scale, DATA_SEED))
        .map_err(|e| e.to_string())
}

/// The shipped defaults with only the workload's named settings changed.
pub fn service_config(w: &Workload, coalesce: bool) -> ServiceConfig {
    ServiceConfig { cache_answers: w.cache, coalesce, ..ServiceConfig::default() }
}

fn allotment() -> PrivacyBudget {
    PrivacyBudget::pure(1.0e6).expect("benchmark allotment is a valid budget")
}

/// Tenants `client-0..=clients`: one per measured client plus one more
/// that sends the warm-up requests.
fn tenants(w: &Workload) -> impl Iterator<Item = String> {
    (0..=w.clients).map(tenant)
}

/// A one-shard router hosting the dataset, journaling under
/// `journal_root/ssb` when given, with every tenant registered.
pub fn open_router(
    schema: &Arc<StarSchema>,
    w: &Workload,
    journal_root: Option<&Path>,
) -> Result<Arc<Router>, String> {
    let router = Router::new(RouterConfig {
        shards: 1,
        shard_config: service_config(w, w.coalesce),
        durable_root: journal_root.map(Path::to_path_buf),
        ..RouterConfig::default()
    })
    .map_err(|e| e.to_string())?;
    router.add_dataset(DATASET, Arc::clone(schema)).map_err(|e| e.to_string())?;
    for t in tenants(w) {
        router.register_tenant(DATASET, &t, allotment()).map_err(|e| e.to_string())?;
    }
    Ok(Arc::new(router))
}

/// A standalone service with every tenant registered, journaling to
/// `journal` when given.
pub fn open_service(
    schema: &Arc<StarSchema>,
    w: &Workload,
    coalesce: bool,
    journal: Option<&Path>,
) -> Result<Service, String> {
    let config =
        ServiceConfig { durable: journal.map(DurableConfig::at), ..service_config(w, coalesce) };
    let service = Service::open(Arc::clone(schema), config).map_err(|e| e.to_string())?;
    for t in tenants(w) {
        service.register_tenant(&t, allotment()).map_err(|e| e.to_string())?;
    }
    Ok(service)
}

/// The gate on an ephemeral loopback port: one token per tenant and one
/// admin token for the `metrics` verb; everything else shipped defaults.
pub fn bind_gate(router: &Arc<Router>, w: &Workload) -> Result<Gate, String> {
    let config = GateConfig {
        tokens: (0..=w.clients).map(|c| (token(c), tenant(c))).collect(),
        admin_tokens: vec![ADMIN_TOKEN.to_string()],
        ..GateConfig::default()
    };
    Gate::bind(Arc::clone(router), config, "127.0.0.1:0").map_err(|e| e.to_string())
}

/// Writes a seeded spending history into `journal_root/ssb`:
/// [`HISTORY_PER_CLIENT`] pool queries per measured client. It is a test
/// fixture, not the serving path, so it skips fsync; the runs that reopen
/// it serve with the shipped group-commit policy.
pub fn write_history(
    schema: &Arc<StarSchema>,
    w: &Workload,
    journal_root: &Path,
    seed: u64,
) -> Result<(), String> {
    let config = ServiceConfig {
        durable: Some(DurableConfig {
            sync: SyncPolicy::Never,
            ..DurableConfig::at(journal_root.join(DATASET))
        }),
        cache_answers: false,
        ..ServiceConfig::default()
    };
    let service = Service::open(Arc::clone(schema), config).map_err(|e| e.to_string())?;
    let pool = starj_bench::query_pool();
    for c in 0..w.clients {
        let t = tenant(c);
        service.register_tenant(&t, allotment()).map_err(|e| e.to_string())?;
        let mut stream = Stream::new(Mix::Pool, pool.len() as u32, seed ^ 0x4157, c);
        for _ in 0..HISTORY_PER_CLIENT {
            let q = &pool[stream.next_draw().index as usize];
            service.pm_answer(&t, q, EPSILON).map_err(|e| format!("history: {e}"))?;
        }
    }
    Ok(())
}

/// Reopens `journal_root/ssb` and checks that replay rebuilds exactly the
/// expected commits and per-tenant spends.
pub fn check_replay(
    schema: &Arc<StarSchema>,
    w: &Workload,
    journal_root: &Path,
    expected_commits: &[u64],
) -> Result<(), String> {
    let service = open_service(schema, w, false, Some(&journal_root.join(DATASET)))?;
    let status = service.durable_status().ok_or("reopened service has no journal")?;
    let total: u64 = expected_commits.iter().sum();
    if status.replay.commits != total {
        return Err(format!(
            "journal replayed {} commits, expected {total}",
            status.replay.commits
        ));
    }
    for (c, &commits) in expected_commits.iter().enumerate() {
        let usage = service.tenant_usage(&tenant(c)).map_err(|e| e.to_string())?;
        check_spend(&tenant(c), usage.spent_epsilon, usage.in_flight_epsilon, commits)?;
    }
    Ok(())
}

/// A tenant's spent ε must bit-equal `commits × ε` with nothing in flight.
pub fn check_spend(tenant: &str, spent: f64, in_flight: f64, commits: u64) -> Result<(), String> {
    let expected = EPSILON * commits as f64;
    if spent.to_bits() != expected.to_bits() || in_flight != 0.0 {
        return Err(format!(
            "{tenant} ledger: spent {spent} with {in_flight} in flight, expected {expected} \
             ({commits} charged requests) with none"
        ));
    }
    Ok(())
}

/// What the gate submits for a SQL statement: parsed, then canonicalized.
pub fn gate_form(schema: &StarSchema, sql: &str) -> Result<StarQuery, String> {
    let parsed = starj_gate::sql::parse_query(schema, sql, "sql").map_err(|e| e.to_string())?;
    let canon = canonicalize(&parsed);
    Ok(if canon.unsatisfiable { parsed } else { canon.to_query("sql") })
}

/// True when two results are the same bit for bit.
pub fn same_bits(a: &QueryResult, b: &QueryResult) -> bool {
    match (a, b) {
        (QueryResult::Scalar(x), QueryResult::Scalar(y)) => x.to_bits() == y.to_bits(),
        (QueryResult::Groups(x), QueryResult::Groups(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, vx), (ky, vy))| kx == ky && vx.to_bits() == vy.to_bits())
        }
        _ => false,
    }
}

/// The oracle check: a released answer must be exactly the reference
/// executor's answer to the noisy query it says it ran.
pub fn check_reference(
    schema: &StarSchema,
    noisy: &StarQuery,
    result: &QueryResult,
) -> Result<(), String> {
    let expected = exec::reference::execute(schema, noisy).map_err(|e| e.to_string())?;
    if !same_bits(&expected, result) {
        return Err(format!("answer to {} differs from exec::reference", noisy.name));
    }
    Ok(())
}

/// Exact answers for the queries of each client's first `per_client`
/// fresh requests — the releases whose relative error the run reports —
/// computed by the reference executor, on every core, before timing starts.
pub fn truths(
    schema: &StarSchema,
    w: &Workload,
    universe: &Universe,
    seed: u64,
    per_client: usize,
) -> Result<HashMap<u32, QueryResult>, String> {
    let mut wanted = BTreeSet::new();
    for c in 0..w.clients {
        let mut stream = Stream::new(w.mix, universe.len(), seed, c);
        let mut fresh = 0;
        // A small universe is exhausted long before `per_client` draws.
        while fresh < per_client && wanted.len() < universe.len() as usize {
            let d = stream.next_draw();
            if !d.repeat {
                wanted.insert(d.index);
                fresh += 1;
            }
        }
    }
    let wanted: Vec<u32> = wanted.into_iter().collect();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = wanted.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = wanted
            .chunks(chunk)
            .map(|indices| {
                scope.spawn(move || {
                    indices
                        .iter()
                        .map(|&i| {
                            let result = exec::reference::execute(schema, &universe.query(i));
                            result.map(|r| (i, r)).map_err(|e| e.to_string())
                        })
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut truth = HashMap::new();
        for h in handles {
            truth.extend(h.join().expect("reference thread panicked")?);
        }
        Ok(truth)
    })
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
