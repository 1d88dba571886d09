//! The traced run: each workload's seeded streams replayed down a ladder of
//! public entry points with the same client count, every rung on its own
//! stack, with the benchmark's own span around every call.
//!
//! | rung              | entry point                                                      |
//! |-------------------|------------------------------------------------------------------|
//! | `wire.untraced`   | `GateClient::sql` over loopback TCP, no spans                    |
//! | `gate.sql`        | `GateClient::sql` over loopback TCP                              |
//! | `router`          | `Router::pm_answer`, after a `gate.sql_parse` span               |
//! | `service`         | `Service::pm_answer`, coalesced and journaled as the workload is |
//! | `service.journal` | `Service::pm_answer`, journaled as the workload is, direct       |
//! | `service.direct`  | `Service::pm_answer`, direct, no journal                         |
//! | `kernel`          | `canonicalize` → `pm::perturb_query` → `execute_with`            |
//!
//! The rungs run interleaved: in every round each rung serves the next
//! block of every client's stream, so drift in the machine's speed lands
//! on all rungs alike. A layer's number is the difference between the
//! medians of adjacent rungs, which counts waiting as well as busy time;
//! the kernel rung's `core.perturb` and `engine.scan` spans split the
//! bottom. The layers therefore add up to the traced top rung's median,
//! and the ladder is consistent when that sum is within the workload's
//! `ladder_bound` of the untraced top rung's median.

use crate::spans::{self, Recorder, Span};
use crate::stack::{self, tenant, token, DATASET, EPSILON};
use crate::stats::{self, Tally};
use crate::wire::{self, check_answer, wire_result, Drive, Window};
use crate::workload::{Draw, Stream, Universe, Workload};
use crate::Outcome;
use starj_engine::{canonicalize, execute_with, QueryResult, StarQuery};
use starj_gate::GateClient;
use starj_noise::StarRng;
use starj_service::{Service, ServiceAnswer, ServiceConfig, TenantUsage};
use starj_telemetry::{cost_counters, kernel_counters, Json};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Rounds the run aims for; the block size follows from it.
const TARGET_ROUNDS: f64 = 10.0;
/// Requests per client per rung: at least this many...
const MIN_RUNG_REQUESTS: usize = 100;
/// ...and at most this many.
const MAX_RUNG_REQUESTS: usize = 8_000;
/// `metrics` verb round trips timed after the rounds.
const METRICS_SAMPLES: usize = 16;
/// Answers per client per in-process rung checked against the reference,
/// taken from every `REFERENCE_STRIDE`-th request.
const REFERENCE_SAMPLES: usize = 8;
const REFERENCE_STRIDE: usize = 7;

/// One request as every rung sees it.
struct Prepared {
    draw: Draw,
    sql: String,
    /// What the gate submits for `sql`.
    query: StarQuery,
}

/// What an entry point returned.
struct Served {
    cached: bool,
    cost: f64,
    result: QueryResult,
    noisy: Option<StarQuery>,
}

impl From<ServiceAnswer> for Served {
    fn from(a: ServiceAnswer) -> Served {
        Served {
            cached: a.cached,
            cost: a.cost.map_or(0.0, |c| c.epsilon()),
            result: a.result,
            noisy: a.noisy_query,
        }
    }
}

/// Serves one request for client `c`, recording its own spans, and
/// returns its latency in seconds. The map holds the client's first
/// answer to every query, which a cache-mirroring rung replays.
type Serve<'a> = Box<
    dyn Fn(
            usize,
            &Prepared,
            &mut Recorder,
            u64,
            &HashMap<u32, QueryResult>,
        ) -> (f64, Result<Served, String>)
        + Sync
        + 'a,
>;

/// A rung's ledger lookup for one tenant.
type Usage<'a> = Box<dyn Fn(&str) -> Option<TenantUsage> + 'a>;

/// One rung's record of one client.
struct Lane {
    rec: Recorder,
    first: HashMap<u32, QueryResult>,
    /// Latency in seconds by request index.
    latencies: Vec<f64>,
    tally: Tally,
    charged: u64,
    errors: Vec<String>,
    kept: Vec<(StarQuery, QueryResult)>,
}

fn serve_block(
    w: &Workload,
    serve: &Serve<'_>,
    c: usize,
    base: usize,
    block: &[Prepared],
    lane: &mut Lane,
) {
    for (i, p) in block.iter().enumerate() {
        let k = base + i;
        let (secs, served) = serve(c, p, &mut lane.rec, ((c as u64) << 32) | k as u64, &lane.first);
        lane.latencies.push(secs);
        lane.tally.attempted += 1;
        let served = match served {
            Ok(s) => s,
            Err(e) => {
                lane.tally.refused += 1;
                lane.errors.push(format!("client {c}: {e}"));
                continue;
            }
        };
        match check_answer(w, p.draw, served.cached, served.cost, &served.result, &mut lane.first) {
            Ok(charged) => lane.charged += u64::from(charged),
            Err(e) => lane.errors.push(format!("client {c}: {e}")),
        }
        if let Some(noisy) = served.noisy {
            if k.is_multiple_of(REFERENCE_STRIDE) && lane.kept.len() < REFERENCE_SAMPLES {
                lane.kept.push((noisy, served.result));
            }
        }
    }
}

/// A wire rung: each client's own connection, with or without a span.
fn wire_serve<'a>(clients: &'a [Mutex<GateClient>], span: Option<&'static str>) -> Serve<'a> {
    Box::new(move |c, p, rec, request, _| {
        let mut client = clients[c].lock().expect("a client's connection is used by one thread");
        let open = span.map(|name| rec.begin(name, request, 0));
        let start = Instant::now();
        let reply = client.sql(&token(c), DATASET, &p.sql, EPSILON);
        let secs = match open {
            Some(open) => rec.end(open),
            None => start.elapsed().as_secs_f64(),
        };
        let served = reply.map_err(|e| e.to_string()).and_then(|reply| {
            if reply.get("ok").and_then(Json::as_f64) != Some(1.0) {
                return Err(format!("refused: {}", reply.render()));
            }
            let result = wire_result(&reply).ok_or(format!("malformed: {}", reply.render()))?;
            Ok(Served {
                cached: reply.get("cached").and_then(Json::as_f64) == Some(1.0),
                cost: reply.get("cost_epsilon").and_then(Json::as_f64).unwrap_or(f64::NAN),
                result,
                noisy: None,
            })
        });
        (secs, served)
    })
}

/// A service rung: `Service::pm_answer` inside a span named `span`.
fn service_serve<'a>(service: &'a Service, span: &'static str) -> Serve<'a> {
    Box::new(move |c, p, rec, request, _| {
        let open = rec.begin(span, request, 0);
        let answer = service.pm_answer(&tenant(c), &p.query, EPSILON);
        (rec.end(open), answer.map(Served::from).map_err(|e| e.to_string()))
    })
}

fn connect(addr: std::net::SocketAddr, n: usize) -> Result<Vec<Mutex<GateClient>>, String> {
    (0..n).map(|_| GateClient::connect(addr).map(Mutex::new).map_err(|e| e.to_string())).collect()
}

/// A fresh, empty journal directory for one stack when the workload
/// journals.
fn fresh_journal(
    w: &Workload,
    work: &Path,
    name: &str,
) -> Result<Option<std::path::PathBuf>, String> {
    if !w.journal {
        return Ok(None);
    }
    let dir = work.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    Ok(Some(dir))
}

/// Median self time, in seconds, of the spans named `name`; over
/// `requests` requests when given, counting 0 for each request without
/// such a span (a cache hit never reaches the kernel).
fn self_p50(spans: &[Span], name: &str, requests: Option<usize>) -> f64 {
    let own = spans::self_times_ns(spans);
    let mut secs: Vec<f64> =
        spans.iter().filter(|s| s.name == name).map(|s| own[&s.id] as f64 * 1e-9).collect();
    if let Some(requests) = requests {
        secs.resize(requests, 0.0);
    }
    stats::median(&secs)
}

/// The layers between adjacent rungs, top first, then the kernel split
/// into its parts: `rungs` are `(layer, rung median)` pairs from the top
/// rung down to `service.direct`, `parts` the kernel's median parts. The
/// last rung's remainder after its parts is its own self time.
pub fn layers(
    rungs: &[(&'static str, f64)],
    parts: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> =
        rungs.windows(2).map(|pair| (pair[0].0, pair[0].1 - pair[1].1)).collect();
    let (last, bottom) = *rungs.last().expect("a ladder has rungs");
    out.push((last, bottom - parts.iter().map(|(_, v)| v).sum::<f64>()));
    out.extend_from_slice(parts);
    out
}

pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    out: &Path,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let schema = Arc::new(stack::generate(w)?);
    let generate_s = start.elapsed().as_secs_f64();

    // Recovery: the router open that replays the seeded history (or, with
    // no journal, the router open alone), then the replayed record count.
    let history = w.journal.then(|| work.join("history"));
    if let Some(root) = &history {
        stack::write_history(&schema, w, root, seed)?;
    }
    let start = Instant::now();
    drop(stack::open_router(&schema, w, history.as_deref())?);
    let recovery_s = start.elapsed().as_secs_f64();
    let replay_records = match &history {
        Some(root) => stack::open_service(&schema, w, false, Some(&root.join(DATASET)))?
            .durable_status()
            .map_or(0, |s| s.replay.records),
        None => 0,
    };

    // One stack per rung.
    let universe = Universe::new(w.mix, &schema);
    let untraced_router =
        stack::open_router(&schema, w, fresh_journal(w, work, "untraced")?.as_deref())?;
    let untraced_gate = stack::bind_gate(&untraced_router, w)?;
    let traced_router =
        stack::open_router(&schema, w, fresh_journal(w, work, "traced")?.as_deref())?;
    let traced_gate = stack::bind_gate(&traced_router, w)?;
    let router = stack::open_router(&schema, w, fresh_journal(w, work, "router")?.as_deref())?;
    let service =
        stack::open_service(&schema, w, w.coalesce, fresh_journal(w, work, "service")?.as_deref())?;
    let service_journal = stack::open_service(
        &schema,
        w,
        false,
        fresh_journal(w, work, "service.journal")?.as_deref(),
    )?;
    let service_direct = stack::open_service(&schema, w, false, None)?;

    // Warm-up over the untraced wire, which also sizes the blocks: a round
    // of seven rungs should take about a tenth of the run.
    let (warm, _) = wire::drive(
        &Drive {
            addr: untraced_gate.addr(),
            schema: &schema,
            w,
            universe: &universe,
            seed,
            window: Window::Count(crate::endtoend::WARMUP_REQUESTS),
            keep_answers: 0,
        },
        w.clients..w.clients + 1,
    );
    let mut tally = Tally::default();
    let mut errors = Vec::new();
    for r in &warm {
        tally.add(r.tally);
        errors.extend(r.errors.iter().cloned());
    }
    let warm_latencies: Vec<f64> = warm.iter().flat_map(|r| r.latencies.clone()).collect();
    let per_request = warm_latencies.iter().sum::<f64>() / warm_latencies.len().max(1) as f64;
    let block =
        ((seconds / (7.0 * TARGET_ROUNDS * per_request)) as usize).clamp(1, MAX_RUNG_REQUESTS);

    let untraced_clients = connect(untraced_gate.addr(), w.clients)?;
    let traced_clients = connect(traced_gate.addr(), w.clients)?;
    let arrivals = AtomicU64::new(0);
    let pm = ServiceConfig::default().pm;
    let noise_root = StarRng::from_seed(ServiceConfig::default().seed);
    let rungs: Vec<(&'static str, Serve<'_>)> = vec![
        ("wire.untraced", wire_serve(&untraced_clients, None)),
        ("gate.sql", wire_serve(&traced_clients, Some("gate.sql"))),
        (
            "router",
            Box::new(|c, p, rec, request, _| {
                let span = rec.begin("gate.sql_parse", request, 0);
                let parsed = starj_gate::sql::parse_query(&schema, &p.sql, "sql");
                rec.end(span);
                let query = match parsed {
                    Ok(q) => canonicalize(&q).to_query("sql"),
                    Err(e) => return (0.0, Err(e.to_string())),
                };
                let span = rec.begin("router", request, 0);
                let answer = router.pm_answer(DATASET, &tenant(c), &query, EPSILON);
                (rec.end(span), answer.map(Served::from).map_err(|e| e.to_string()))
            }),
        ),
        ("service", service_serve(&service, "service")),
        ("service.journal", service_serve(&service_journal, "service.journal")),
        ("service.direct", service_serve(&service_direct, "service.direct")),
        (
            // Hand-assembled as the service assembles it: the service's own
            // noise stream, and its answer cache mirrored for repeats.
            "kernel",
            Box::new(|_, p, rec, request, first| {
                let top = rec.begin("kernel", request, 0);
                let served = if w.cache && p.draw.repeat {
                    first
                        .get(&p.draw.index)
                        .map(|result| Served {
                            cached: true,
                            cost: 0.0,
                            result: result.clone(),
                            noisy: None,
                        })
                        .ok_or_else(|| "repeat of a query never answered".to_string())
                } else {
                    let executable = canonicalize(&p.query).to_query(&p.query.name);
                    let mut rng = noise_root.derive_index(arrivals.fetch_add(1, Ordering::Relaxed));
                    let span = rec.begin("core.perturb", request, top.id());
                    let noisy =
                        dp_starj::pm::perturb_query(&schema, &executable, EPSILON, &pm, &mut rng);
                    rec.end(span);
                    noisy.map_err(|e| e.to_string()).and_then(|noisy| {
                        let span = rec.begin("engine.scan", request, top.id());
                        let result = execute_with(&schema, &noisy, pm.scan);
                        rec.end(span);
                        result
                            .map(|result| Served {
                                cached: false,
                                cost: EPSILON,
                                result,
                                noisy: Some(noisy),
                            })
                            .map_err(|e| e.to_string())
                    })
                };
                (rec.end(top), served)
            }),
        ),
    ];
    let kernel_rung = rungs.len() - 1;
    let names: Vec<&str> = rungs.iter().map(|(name, _)| *name).collect();

    let epoch = Instant::now();
    let mut lanes: Vec<Vec<Lane>> = (0..rungs.len())
        .map(|r| {
            (0..w.clients)
                .map(|c| Lane {
                    rec: Recorder::new(epoch, (r * w.clients + c) as u64),
                    first: HashMap::new(),
                    latencies: Vec::new(),
                    tally: Tally::default(),
                    charged: 0,
                    errors: Vec::new(),
                    kept: Vec::new(),
                })
                .collect()
        })
        .collect();
    let mut streams: Vec<Stream> =
        (0..w.clients).map(|c| Stream::new(w.mix, universe.len(), seed, c)).collect();
    let mut prepared: Vec<Vec<Prepared>> = (0..w.clients).map(|_| Vec::new()).collect();
    // Kernel counters are process-wide; only the kernel rung's blocks,
    // which run alone, are counted.
    let (mut chunks, mut staged_gathers, mut probe_bitset, mut cost_walks) = (0, 0, 0, 0);
    let mut n = 0;
    while n < MIN_RUNG_REQUESTS
        || (epoch.elapsed().as_secs_f64() < seconds && n + block <= MAX_RUNG_REQUESTS)
    {
        for (stream, requests) in streams.iter_mut().zip(&mut prepared) {
            for _ in 0..block {
                let draw = stream.next_draw();
                let sql = universe.sql(&schema, draw.index).into_owned();
                let query = stack::gate_form(&schema, &sql)?;
                requests.push(Prepared { draw, sql, query });
            }
        }
        let round = n / block;
        for r in (0..rungs.len()).map(|i| (i + round) % rungs.len()) {
            let serve = &rungs[r].1;
            let kernel_before = kernel_counters().snapshot();
            let cost_before = cost_counters().snapshot();
            std::thread::scope(|scope| {
                for (c, lane) in lanes[r].iter_mut().enumerate() {
                    let requests = &prepared[c][n..n + block];
                    scope.spawn(move || serve_block(w, serve, c, n, requests, lane));
                }
            });
            if r == kernel_rung {
                let kernel = kernel_counters().snapshot().since(&kernel_before);
                chunks += kernel.chunks_scanned;
                staged_gathers += kernel.staged_gathers;
                probe_bitset += kernel.probe_bitset;
                cost_walks += cost_counters().snapshot().since(&cost_before).walks;
            }
        }
        n += block;
    }

    // The admin exposition, timed on the loaded traced stack.
    let mut metrics_rec = Recorder::new(epoch, (rungs.len() * w.clients) as u64);
    let mut admin = GateClient::connect(traced_gate.addr()).map_err(|e| e.to_string())?;
    let mut metrics_rtt = Vec::new();
    for i in 0..METRICS_SAMPLES {
        let span = metrics_rec.begin("telemetry.metrics", u64::MAX - i as u64, 0);
        let reply = admin.metrics(stack::ADMIN_TOKEN).map_err(|e| e.to_string())?;
        metrics_rtt.push(metrics_rec.end(span));
        if reply.get("prometheus").is_none() {
            errors.push(format!("metrics verb refused: {}", reply.render()));
        }
    }
    drop(admin);
    drop(rungs);
    drop(untraced_clients);
    drop(traced_clients);
    let refusals: u64 = [&untraced_gate, &traced_gate]
        .iter()
        .flat_map(|g| g.metrics().refusal_counts())
        .map(|(_, count)| count)
        .sum();

    // Checks: every answer, every ledger, and sampled answers against the
    // reference executor.
    let usage: [Usage<'_>; 6] = [
        Box::new(|t| untraced_router.tenant_usage(DATASET, t).ok()),
        Box::new(|t| traced_router.tenant_usage(DATASET, t).ok()),
        Box::new(|t| router.tenant_usage(DATASET, t).ok()),
        Box::new(|t| service.tenant_usage(t).ok()),
        Box::new(|t| service_journal.tenant_usage(t).ok()),
        Box::new(|t| service_direct.tenant_usage(t).ok()),
    ];
    for (r, rung_lanes) in lanes.iter().enumerate() {
        for (c, lane) in rung_lanes.iter().enumerate() {
            tally.add(lane.tally);
            errors.extend(lane.errors.iter().cloned());
            if let Some(usage) = usage.get(r) {
                let check = usage(&tenant(c))
                    .ok_or(format!("{} lost its tenant", tenant(c)))
                    .and_then(|u| {
                        stack::check_spend(
                            &tenant(c),
                            u.spent_epsilon,
                            u.in_flight_epsilon,
                            lane.charged,
                        )
                    });
                errors.extend(check.err());
            }
            for (noisy, result) in &lane.kept {
                errors.extend(stack::check_reference(&schema, noisy, result).err());
            }
        }
    }
    if !errors.is_empty() {
        return Ok(Outcome { tally, errors, metrics: Vec::new() });
    }

    // The ladder.
    let rung_p50: Vec<f64> = lanes
        .iter()
        .map(|l| {
            stats::median(&l.iter().flat_map(|lane| lane.latencies.clone()).collect::<Vec<_>>())
        })
        .collect();
    let kernel_spans: Vec<Span> =
        lanes[kernel_rung].iter().flat_map(|l| l.rec.spans.clone()).collect();
    let router_spans: Vec<Span> = lanes[2].iter().flat_map(|l| l.rec.spans.clone()).collect();
    // The kernel's parts over every request, as the rung medians are; the
    // per-layer metrics below take them over the calls made.
    let all = Some(n * w.clients);
    let perturb = self_p50(&kernel_spans, "core.perturb", None);
    let scan = self_p50(&kernel_spans, "engine.scan", None);
    let ladder = layers(
        &[
            ("gate", rung_p50[1]),
            ("router", rung_p50[2]),
            ("service.coalesce", rung_p50[3]),
            ("durable.commit", rung_p50[4]),
            ("service.self", rung_p50[5]),
        ],
        &[
            ("core.perturb", self_p50(&kernel_spans, "core.perturb", all)),
            ("engine.scan", self_p50(&kernel_spans, "engine.scan", all)),
        ],
    );
    let layer = |name: &str| ladder.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| *v);
    let layer_sum: f64 = ladder.iter().map(|(_, v)| v).sum();
    let untraced = rung_p50[0];
    let residual = (layer_sum - untraced).abs() / untraced;

    println!(
        "{}: ladder over {n} requests per client per rung ({} rounds of {block}), {} clients",
        w.name,
        n / block,
        w.clients
    );
    for (name, p50) in names.iter().zip(&rung_p50) {
        println!("  rung  {name:<16} p50 {:>10.1} µs", p50 * 1e6);
    }
    for (name, v) in &ladder {
        println!("  layer {name:<16}     {:>10.1} µs", v * 1e6);
    }
    println!(
        "  kernel rung self time (canonicalize, noise seeding) p50 {:.1} µs",
        self_p50(&kernel_spans, "kernel", None) * 1e6
    );
    println!(
        "  sum of layers {:.1} µs beside the untraced top rung p50 {:.1} µs: residual {:.2}% (bound {:.0}%)",
        layer_sum * 1e6,
        untraced * 1e6,
        residual * 100.0,
        w.ladder_bound * 100.0
    );
    if residual > w.ladder_bound {
        errors.push(format!(
            "ladder inconsistent: layers sum to {:.1} µs against an untraced top rung of {:.1} µs",
            layer_sum * 1e6,
            untraced * 1e6
        ));
    }

    let mut all_spans: Vec<Span> =
        lanes.iter().flatten().flat_map(|l| l.rec.spans.iter().cloned()).collect();
    all_spans.extend(metrics_rec.spans);
    all_spans.sort_by_key(|s| (s.start_ns, s.id));
    let spans_path = out.join(format!("spans-{}.jsonl", w.name));
    spans::write_jsonl(&spans_path, &all_spans).map_err(|e| e.to_string())?;
    println!("  wrote {} spans to {}", all_spans.len(), spans_path.display());

    let scans = kernel_spans.iter().filter(|s| s.name == "engine.scan").count().max(1) as f64;
    let scan_secs: f64 = kernel_spans
        .iter()
        .filter(|s| s.name == "engine.scan")
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum();
    let snapshot = service.metrics();
    let charged: u64 = lanes[3].iter().map(|l| l.charged).sum();
    let (fsyncs_per_record, bytes_per_spend) = service.durable_status().map_or((0.0, 0.0), |d| {
        (
            d.counters.fsyncs as f64 / d.counters.records.max(1) as f64,
            d.counters.bytes as f64 / charged.max(1) as f64,
        )
    });
    let us = |v: f64| v * 1e6;
    let metrics = vec![
        ("ssb.generate_s", generate_s, "s"),
        ("engine.scan_ms_p50", scan * 1e3, "ms"),
        ("engine.rows_per_s", schema.fact().num_rows() as f64 * scans / scan_secs, "rows/s"),
        ("engine.chunks_per_req", chunks as f64 / scans, "count"),
        ("engine.staged_gathers_per_req", staged_gathers as f64 / scans, "count"),
        ("engine.probe_bitset_per_req", probe_bitset as f64 / scans, "count"),
        ("engine.cost_walks_per_req", cost_walks as f64 / scans, "count"),
        ("core.perturb_us_p50", us(perturb), "us"),
        ("service.self_us_p50", us(layer("service.self")), "us"),
        ("service.coalesce_wait_us_p50", us(layer("service.coalesce")), "us"),
        (
            "service.coalesce_batch_mean",
            snapshot.coalesced_requests as f64 / snapshot.coalesced_batches.max(1) as f64,
            "count",
        ),
        (
            "service.cache_hit_ratio",
            snapshot.cache_hits as f64 / snapshot.queries_served.max(1) as f64,
            "ratio",
        ),
        ("durable.commit_us_p50", us(layer("durable.commit")), "us"),
        ("durable.fsyncs_per_record", fsyncs_per_record, "ratio"),
        ("durable.bytes_per_spend", bytes_per_spend, "bytes"),
        ("durable.recovery_s", recovery_s, "s"),
        ("durable.replay_records", replay_records as f64, "count"),
        ("router.self_us_p50", us(layer("router")), "us"),
        ("gate.self_us_p50", us(layer("gate")), "us"),
        ("gate.sql_parse_us_p50", us(self_p50(&router_spans, "gate.sql_parse", None)), "us"),
        ("gate.refusals", refusals as f64, "count"),
        ("telemetry.metrics_ms_p50", stats::median(&metrics_rtt) * 1e3, "ms"),
        ("trace.overhead_frac", rung_p50[1] / untraced - 1.0, "ratio"),
        ("ladder.requests_per_rung", (n * w.clients) as f64, "count"),
    ];
    Ok(Outcome { tally, errors, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_difference_adjacent_rungs_and_add_up_to_the_top() {
        let rungs = [("gate", 10.0), ("router", 6.0), ("service", 5.5)];
        let parts = [("perturb", 1.0), ("scan", 3.0)];
        let got = layers(&rungs, &parts);
        assert_eq!(
            got,
            vec![("gate", 4.0), ("router", 0.5), ("service", 1.5), ("perturb", 1.0), ("scan", 3.0)]
        );
        let sum: f64 = got.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, 10.0);
    }
}
