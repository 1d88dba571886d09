//! The untraced run: closed-loop wire clients against a gate on loopback,
//! reporting the end-to-end metrics.

use crate::stack::{self, DATASET};
use crate::stats::{self, Tally};
use crate::wire::{self, Drive, Window};
use crate::workload::{Universe, Workload};
use crate::Outcome;
use starj_gate::GateClient;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The floor on requests per run, split across clients: 1 000 latencies
/// leave 10 beyond p99.
pub const MIN_REQUESTS: usize = 1000;
/// Fresh answers whose relative error a run reports at most, split across
/// clients: each client's first ones, so the sample is fixed by the seed.
pub const REL_ERR_SAMPLES: usize = 2000;
/// Requests the extra warm-up tenant sends before timing starts, so the
/// lazily built cost model and plan caches are warm.
pub const WARMUP_REQUESTS: usize = 32;

pub fn run(w: &Workload, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let journal = w.journal.then(|| work.join("journal"));
    if let Some(root) = &journal {
        // The seeded history the set-ups recover; generating its data is
        // not part of set-up.
        let schema = Arc::new(stack::generate(w)?);
        stack::write_history(&schema, w, root, seed)?;
    }

    let mut setup_s = Vec::new();
    let mut serving = None;
    for _ in 0..w.setups {
        // The previous set-up's gate and router close first, so the
        // journal is reopened, not shared.
        drop(serving.take());
        let start = Instant::now();
        let schema = Arc::new(stack::generate(w)?);
        let router = stack::open_router(&schema, w, journal.as_deref())?;
        let gate = stack::bind_gate(&router, w)?;
        GateClient::connect(gate.addr()).map_err(|e| format!("gate is not accepting: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        serving = Some((gate, router, schema));
    }
    let (gate, router, schema) = serving.ok_or("a workload sets up at least once")?;

    let universe = Universe::new(w.mix, &schema);
    let keep = REL_ERR_SAMPLES.div_ceil(w.clients);
    let truth = stack::truths(&schema, w, &universe, seed, keep)?;
    let min_requests = MIN_REQUESTS.div_ceil(w.clients);
    let drive = |window, keep_answers| Drive {
        addr: gate.addr(),
        schema: &schema,
        w,
        universe: &universe,
        seed,
        window,
        keep_answers,
    };
    let (warm, _) =
        wire::drive(&drive(Window::Count(WARMUP_REQUESTS), 0), w.clients..w.clients + 1);
    let (runs, wall) =
        wire::drive(&drive(Window::Timed { seconds, min_requests }, keep), 0..w.clients);

    let mut errors: Vec<String> = Vec::new();
    let mut tally = Tally::default();
    for run in warm.iter().chain(&runs) {
        tally.add(run.tally);
        errors.extend(run.errors.iter().cloned());
    }
    // Ledgers: every charged request and nothing else, none in flight.
    let history = if w.journal { stack::HISTORY_PER_CLIENT as u64 } else { 0 };
    let mut commits = Vec::new();
    for (c, run) in runs.iter().chain(&warm).enumerate() {
        let base = if c < w.clients { history } else { 0 };
        let usage = router.tenant_usage(DATASET, &stack::tenant(c)).map_err(|e| e.to_string())?;
        let check = stack::check_spend(
            &stack::tenant(c),
            usage.spent_epsilon,
            usage.in_flight_epsilon,
            base + run.charged,
        );
        errors.extend(check.err());
        commits.push(base + run.charged);
    }
    drop(gate);
    drop(router);
    if let Some(root) = &journal {
        errors.extend(stack::check_replay(&schema, w, root, &commits).err());
    }

    let latencies =
        stats::sorted(&runs.iter().flat_map(|r| r.latencies.clone()).collect::<Vec<_>>());
    let p99 = stats::tail_percentile(&latencies, 990, 10);
    if p99.is_none() {
        errors.push(format!("{} requests leave fewer than 10 beyond p99", latencies.len()));
    }
    let rel_err: Vec<f64> = runs
        .iter()
        .flat_map(|r| &r.answers)
        .map(|(index, answer)| answer.relative_error(&truth[index]))
        .collect();
    let ok: u64 = runs.iter().map(|r| r.tally.attempted - r.tally.not_ok()).sum();
    let measured = runs.iter().fold(Tally::default(), |mut t, r| {
        t.add(r.tally);
        t
    });
    let metrics_rtt: Vec<f64> = runs.iter().flat_map(|r| r.metrics_rtt.clone()).collect();
    println!(
        "{}: {} requests in {wall:.2}s over {} clients, {} beyond p99; {} relative-error \
         samples; {} metrics-verb round trips; set-ups {:?}",
        w.name,
        latencies.len(),
        w.clients,
        stats::beyond(latencies.len(), 990),
        rel_err.len(),
        metrics_rtt.len(),
        setup_s,
    );
    let metrics = vec![
        ("qps", ok as f64 / wall, "1/s"),
        ("latency_p50_ms", stats::percentile(&latencies, 500).unwrap_or(f64::NAN) * 1e3, "ms"),
        ("latency_p99_ms", p99.unwrap_or(f64::NAN) * 1e3, "ms"),
        ("ok_frac", 1.0 - measured.failed_frac(), "ratio"),
        ("setup_s", stats::median(&setup_s), "s"),
        ("peak_rss_mb", stack::peak_rss_mb()?, "MiB"),
        ("rel_err_p50", stats::median(&rel_err), "ratio"),
    ];
    Ok(Outcome { tally, errors, metrics })
}
