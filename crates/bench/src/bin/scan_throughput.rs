//! Scan-kernel throughput: the same `l`-query workload answered five ways —
//!
//! 1. **row-at-a-time** — the legacy executor (`exec::reference`), one scan
//!    per query over `Vec<bool>` bitmaps;
//! 2. **bitset** — the vectorized chunked kernel, still one scan per query;
//! 3. **fused** — `execute_batch`, all `l` queries in ONE fact scan through
//!    the staged SIMD-width kernel (shared per-chunk fk staging, probe fast
//!    paths, selectivity-ordered masks);
//! 4. **fused-legacy-gather** — the same fused scan with
//!    `ScanOptions::legacy_gather` forcing the pre-staging scalar interior
//!    (the A/B baseline isolating the staged kernel's win);
//! 5. **parallel** — the staged fused scan sharded across threads.
//!
//! Plus the weighted (WD-shaped) form: `l` reconstructed predicate rows
//! answered by `execute_weighted_batch` in one scan vs `l` reference scans.
//!
//! Every regime is timed **median-of-3** (each run equivalence-checked
//! against the reference executor) so the self-gates and the CI drift job
//! don't flap on one noisy run. Results are written to `BENCH_scan.json`.
//!
//! The bin self-gates (non-zero exit), which is what the CI bench step
//! gates on:
//!
//! 1. **equivalence** — any answer divergence from the reference executor
//!    in any regime or run;
//! 2. **fusion** — the fused regimes must cost exactly one fact scan;
//! 3. **fusion speedup** — at the reference workload shape (8 queries, a
//!    memory-resident fact table of ≥ 100k rows) the fused batch must run
//!    in at most half the per-query bitset regime's wall time: fusion has
//!    to be a *compute* win, not just a scan-count saving. `SCAN_GATE=1`
//!    forces the gate at other shapes, `SCAN_GATE=0` disables it;
//! 4. **no regression** — when the committed `BENCH_scan.json` was
//!    measured at the same workload parameters, no shared regime may lose
//!    more than the noise threshold (`BENCH_DRIFT_PCT`, default 15%) of
//!    its recorded queries/sec.
//!
//! ```text
//! SSB_SF=0.05 SCAN_QUERIES=16 SCAN_THREADS=4 \
//!   cargo run --release -p starj-bench --bin scan_throughput
//! ```

use starj_bench::drift::{self, Verdict};
use starj_bench::harness::{env_u64, timed, Json};
use starj_bench::{query_pool, root_seed, ssb_sf, TablePrinter};
use starj_engine::exec::reference;
use starj_engine::{
    execute, execute_batch, execute_batch_with, execute_weighted_batch, Agg, QueryResult,
    ScanOptions, StarQuery, StarSchema, WeightedPredicate, WeightedQuery,
};
use starj_ssb::{generate, SsbConfig, BLOCKS};

/// Timed runs per regime (median taken).
const RUNS: usize = 3;
/// The fusion-speedup gate arms itself at this workload shape.
const GATE_QUERIES: usize = 8;
const GATE_MIN_ROWS: usize = 100_000;
/// Fused-batch must be at least this many times faster than per-query
/// bitset wall time for the gate to pass.
const GATE_FUSED_SPEEDUP: f64 = 2.0;

struct Regime {
    name: &'static str,
    /// Median wall seconds over [`RUNS`] timed runs.
    wall_secs: f64,
    scans: u64,
    ok: bool,
}

fn median(mut walls: Vec<f64>) -> f64 {
    walls.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
    walls[walls.len() / 2]
}

fn run_regime(
    schema: &StarSchema,
    name: &'static str,
    oracle: &[QueryResult],
    f: impl Fn() -> Vec<QueryResult>,
) -> Regime {
    // Warm-up run, then RUNS timed runs; ALL are equivalence-checked (a
    // thread-count-dependent bug could diverge on any of them).
    let mut ok = f() == oracle;
    let scans_before = schema.fact_scans();
    let mut walls = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let (got, wall) = timed(&f);
        ok &= got == oracle;
        walls.push(wall);
    }
    let scans = (schema.fact_scans() - scans_before) / RUNS as u64;
    Regime { name, wall_secs: median(walls), scans, ok }
}

/// WD-shaped weighted rows: one indicator row per query over the year
/// block, the shape `X·Â` reconstruction produces (here exact indicators so
/// the reference comparison is deterministic).
fn weighted_workload(l: usize) -> Vec<WeightedQuery> {
    let (_, _, year_domain) = BLOCKS[0];
    (0..l)
        .map(|i| {
            let hi = (i % year_domain as usize) as u32;
            let weights: Vec<f64> =
                (0..year_domain).map(|y| if y <= hi { 1.0 } else { 0.0 }).collect();
            WeightedQuery {
                predicates: vec![WeightedPredicate::new("Date", "year", weights)],
                agg: Agg::Count,
            }
        })
        .collect()
}

fn main() {
    let sf = ssb_sf();
    let seed = root_seed();
    let l = env_u64("SCAN_QUERIES", 16) as usize;
    let threads = env_u64("SCAN_THREADS", 4) as usize;

    let schema: StarSchema = generate(&SsbConfig::at_scale(sf, seed)).expect("SSB generation");
    let fact_rows = schema.fact().num_rows();
    let pool = query_pool();
    let queries: Vec<StarQuery> = (0..l).map(|i| pool[i % pool.len()].clone()).collect();

    println!(
        "Scan kernels (SF={sf}, {fact_rows} fact rows, l={l} queries, {threads} threads, \
         median of {RUNS})\n"
    );

    // The committed results, read BEFORE this run overwrites them — gate 4
    // compares against them when the parameters match.
    let committed = drift::load("BENCH_scan.json").ok();

    // The oracle: legacy row-at-a-time answers.
    let oracle: Vec<QueryResult> =
        queries.iter().map(|q| reference::execute(&schema, q).expect("reference")).collect();

    let mut regimes = vec![
        run_regime(&schema, "row-at-a-time", &oracle, || {
            queries.iter().map(|q| reference::execute(&schema, q).unwrap()).collect()
        }),
        run_regime(&schema, "bitset", &oracle, || {
            queries.iter().map(|q| execute(&schema, q).unwrap()).collect()
        }),
        run_regime(&schema, "fused-batch", &oracle, || execute_batch(&schema, &queries).unwrap()),
        run_regime(&schema, "fused-legacy-gather", &oracle, || {
            execute_batch_with(&schema, &queries, ScanOptions::default().with_legacy_gather())
                .unwrap()
        }),
        run_regime(&schema, "fused-parallel", &oracle, || {
            execute_batch_with(&schema, &queries, ScanOptions::parallel(threads)).unwrap()
        }),
    ];
    // The reference executor predates the scan counter; it pays one scan
    // per query by construction.
    regimes[0].scans = l as u64;

    // Weighted (WD answering) form: l reference scans vs one fused scan,
    // also median-of-3.
    let witems = weighted_workload(l);
    let woracle: Vec<f64> = witems
        .iter()
        .map(|w| reference::execute_weighted(&schema, &w.predicates, &w.agg).unwrap())
        .collect();
    let mut weighted_ok = true;
    let mut wd_fused_scans = 0;
    let mut wd_fused_walls = Vec::with_capacity(RUNS);
    let mut wd_ref_walls = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        let scans_before = schema.fact_scans();
        let (wfused, wall) = timed(|| execute_weighted_batch(&schema, &witems).unwrap());
        wd_fused_scans = schema.fact_scans() - scans_before;
        weighted_ok &= wfused == woracle;
        wd_fused_walls.push(wall);
        let (_, ref_wall) = timed(|| {
            witems
                .iter()
                .map(|w| reference::execute_weighted(&schema, &w.predicates, &w.agg).unwrap())
                .collect::<Vec<f64>>()
        });
        wd_ref_walls.push(ref_wall);
    }
    let wd_fused_secs = median(wd_fused_walls);
    let wd_ref_secs = median(wd_ref_walls);

    let table = TablePrinter::new(
        &["regime", "scans", "wall s", "queries/s", "Mrows/s", "check"],
        &[20, 6, 10, 11, 9, 6],
    );
    let qps = |wall: f64| l as f64 / wall.max(1e-12);
    let mrps = |wall: f64| l as f64 * fact_rows as f64 / wall.max(1e-12) / 1e6;
    for r in &regimes {
        table.row(&[
            r.name,
            &r.scans.to_string(),
            &format!("{:.4}", r.wall_secs),
            &format!("{:.0}", qps(r.wall_secs)),
            &format!("{:.1}", mrps(r.wall_secs)),
            if r.ok { "ok" } else { "FAIL" },
        ]);
    }
    table.rule();
    table.row(&[
        "wd-per-query",
        &l.to_string(),
        &format!("{wd_ref_secs:.4}"),
        &format!("{:.0}", qps(wd_ref_secs)),
        &format!("{:.1}", mrps(wd_ref_secs)),
        "ok",
    ]);
    table.row(&[
        "wd-fused",
        &wd_fused_scans.to_string(),
        &format!("{wd_fused_secs:.4}"),
        &format!("{:.0}", qps(wd_fused_secs)),
        &format!("{:.1}", mrps(wd_fused_secs)),
        if weighted_ok { "ok" } else { "FAIL" },
    ]);

    let fused = regimes.iter().find(|r| r.name == "fused-batch").unwrap();
    let bitset = regimes.iter().find(|r| r.name == "bitset").unwrap();
    let legacy = regimes.iter().find(|r| r.name == "fused-legacy-gather").unwrap();
    let speedup = regimes[0].wall_secs / fused.wall_secs.max(1e-12);
    let fused_vs_bitset = bitset.wall_secs / fused.wall_secs.max(1e-12);
    let staged_vs_legacy = legacy.wall_secs / fused.wall_secs.max(1e-12);
    let wd_speedup = wd_ref_secs / wd_fused_secs.max(1e-12);
    println!(
        "\nfused-batch vs row-at-a-time: {speedup:.1}×; vs per-query bitset: \
         {fused_vs_bitset:.2}×; staged vs legacy gather: {staged_vs_legacy:.2}×; \
         WD fused vs per-query: {wd_speedup:.1}×"
    );

    let json = Json::obj(vec![
        ("bench", Json::Str("scan_throughput".into())),
        ("scale_factor", Json::Num(sf)),
        ("fact_rows", Json::Num(fact_rows as f64)),
        ("workload_queries", Json::Num(l as f64)),
        ("threads", Json::Num(threads as f64)),
        ("timed_runs", Json::Num(RUNS as f64)),
        (
            "regimes",
            Json::Arr(
                regimes
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::Str(r.name.into())),
                            ("fact_scans", Json::Num(r.scans as f64)),
                            ("wall_secs", Json::Num(r.wall_secs)),
                            ("queries_per_sec", Json::Num(qps(r.wall_secs))),
                            ("rows_per_sec", Json::Num(1e6 * mrps(r.wall_secs))),
                        ])
                    })
                    .chain([
                        Json::obj(vec![
                            ("name", Json::Str("wd-per-query".into())),
                            ("fact_scans", Json::Num(l as f64)),
                            ("wall_secs", Json::Num(wd_ref_secs)),
                            ("queries_per_sec", Json::Num(qps(wd_ref_secs))),
                            ("rows_per_sec", Json::Num(1e6 * mrps(wd_ref_secs))),
                        ]),
                        Json::obj(vec![
                            ("name", Json::Str("wd-fused".into())),
                            ("fact_scans", Json::Num(wd_fused_scans as f64)),
                            ("wall_secs", Json::Num(wd_fused_secs)),
                            ("queries_per_sec", Json::Num(qps(wd_fused_secs))),
                            ("rows_per_sec", Json::Num(1e6 * mrps(wd_fused_secs))),
                        ]),
                    ])
                    .collect(),
            ),
        ),
        ("fused_speedup_vs_row_at_a_time", Json::Num(speedup)),
        ("fused_speedup_vs_bitset", Json::Num(fused_vs_bitset)),
        ("staged_speedup_vs_legacy_gather", Json::Num(staged_vs_legacy)),
        ("wd_fused_speedup_vs_per_query", Json::Num(wd_speedup)),
    ]);
    json.write("BENCH_scan.json").expect("write BENCH_scan.json");
    println!("wrote BENCH_scan.json");

    let mut failed = false;

    // Gate 1: equivalence. CI gates on this, not on machine-dependent
    // absolute speeds.
    for r in &regimes {
        if !r.ok {
            eprintln!("EQUIVALENCE FAILURE: regime `{}` diverged from the reference", r.name);
            failed = true;
        }
    }
    if !weighted_ok {
        eprintln!("EQUIVALENCE FAILURE: fused weighted batch diverged from the reference");
        failed = true;
    }

    // Gate 2: fusion — one scan per fused batch.
    if fused.scans != 1 || wd_fused_scans != 1 {
        eprintln!(
            "FUSION FAILURE: fused regimes took {} / {wd_fused_scans} scans, expected 1",
            fused.scans
        );
        failed = true;
    }

    // Gate 3: fusion must be a compute win at the reference shape.
    let gate_armed = match std::env::var("SCAN_GATE").ok().as_deref() {
        Some("0") => false,
        Some(_) => true,
        None => l == GATE_QUERIES && fact_rows >= GATE_MIN_ROWS,
    };
    if gate_armed {
        if fused_vs_bitset < GATE_FUSED_SPEEDUP {
            eprintln!(
                "FUSED-SPEEDUP GATE FAILED: fused-batch is only {fused_vs_bitset:.2}× the \
                 per-query bitset regime (need ≥ {GATE_FUSED_SPEEDUP:.1}×)"
            );
            failed = true;
        } else {
            println!(
                "fused-speedup gate passed: {fused_vs_bitset:.2}× ≥ {GATE_FUSED_SPEEDUP:.1}× \
                 over per-query bitset"
            );
        }
    } else {
        println!(
            "fused-speedup gate not armed (needs l={GATE_QUERIES} and ≥ {GATE_MIN_ROWS} fact \
             rows, or SCAN_GATE=1)"
        );
    }

    // Gate 4: no regression vs the committed BENCH_scan.json (only when it
    // was measured at the same workload parameters on this box).
    match committed {
        None => println!("no prior BENCH_scan.json to compare against"),
        Some(old) => {
            let fresh = drift::load("BENCH_scan.json").expect("just-written results parse");
            match drift::compare(&old, &fresh, drift::noise_frac_from_env()) {
                Verdict::Ok(held) => {
                    println!("no regression vs committed BENCH_scan.json ({} regimes)", held.len());
                }
                Verdict::Skipped(reason) => println!("committed comparison skipped: {reason}"),
                Verdict::Regressed(lines) => {
                    eprintln!("REGRESSION vs committed BENCH_scan.json:");
                    for line in lines {
                        eprintln!("  {line}");
                    }
                    failed = true;
                }
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}
