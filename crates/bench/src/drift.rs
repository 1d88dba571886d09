//! Bench-drift comparison: detects throughput regressions between two
//! `BENCH_*.json` documents.
//!
//! Two consumers share this logic:
//!
//! * `bench_compare` (the CI drift job) — compares the previous run's
//!   archived artifact against the current run and exits non-zero when any
//!   shared regime's `queries_per_sec` fell beyond the noise threshold;
//! * `scan_throughput`'s self-gate — compares the fresh measurement
//!   against the *committed* `BENCH_scan.json` before overwriting it.
//!
//! Comparison is strictly like-for-like: documents must come from the same
//! bench, and the workload parameters (scale factor, fact rows, query
//! count, threads, …) must match — a different machine class can't be
//! detected, but a different workload can, and comparing those is noise,
//! not signal, so mismatched parameters report as *skipped*, never failed.

use crate::harness::Json;

/// Default regression threshold: a shared regime may lose up to this
/// fraction of its `queries_per_sec` before the comparison fails (absorbs
/// run-to-run noise on shared hardware).
pub const DEFAULT_NOISE_FRAC: f64 = 0.15;

/// Parameter keys that must match for two documents to be comparable.
const PARAM_KEYS: [&str; 6] =
    ["scale_factor", "fact_rows", "workload_queries", "threads", "queries_per_client", "window_us"];

/// A bench document reduced to its comparable skeleton.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// The `bench` name field.
    pub bench: String,
    /// Workload parameters present in the document, in `PARAM_KEYS` order.
    pub params: Vec<(String, f64)>,
    /// `(regime key, queries_per_sec)` measurement points.
    pub points: Vec<(String, f64)>,
}

/// The verdict of one drift comparison.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// All shared regimes within the threshold (lists `regime: old → new`).
    Ok(Vec<String>),
    /// At least one shared regime regressed beyond the threshold.
    Regressed(Vec<String>),
    /// Documents are not comparable (different bench or parameters).
    Skipped(String),
}

/// Extracts the comparable skeleton of a bench document. Points come from
/// the `regimes` array (`scan_throughput`) or the `samples` array
/// (`coalesce_throughput` / `service_throughput`), keyed by regime name
/// plus any `clients`/`tenants` qualifier so concurrency levels compare
/// only to themselves.
pub fn extract(doc: &Json) -> Result<BenchDoc, String> {
    let bench = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or_else(|| "document has no `bench` field".to_string())?
        .to_string();
    let params = PARAM_KEYS
        .iter()
        .filter_map(|k| doc.get(k).and_then(Json::as_f64).map(|v| (k.to_string(), v)))
        .collect();
    let mut points = Vec::new();
    for arr_key in ["regimes", "samples"] {
        for entry in doc.get(arr_key).and_then(Json::as_arr).unwrap_or(&[]) {
            let Some(qps) = entry.get("queries_per_sec").and_then(Json::as_f64) else {
                continue;
            };
            let Some(name) =
                entry.get("name").or_else(|| entry.get("regime")).and_then(Json::as_str)
            else {
                continue;
            };
            let mut key = name.to_string();
            for qualifier in ["clients", "tenants", "cache"] {
                if let Some(v) = entry.get(qualifier) {
                    match v {
                        Json::Num(n) => key.push_str(&format!("@{qualifier}={n}")),
                        Json::Str(s) => key.push_str(&format!("@{qualifier}={s}")),
                        _ => {}
                    }
                }
            }
            points.push((key, qps));
        }
    }
    if points.is_empty() {
        return Err(format!("bench `{bench}` has no regimes/samples with queries_per_sec"));
    }
    Ok(BenchDoc { bench, params, points })
}

/// Compares `new` against `old`: every regime present in both must keep at
/// least `(1 - noise_frac)` of its old `queries_per_sec`.
pub fn compare(old: &BenchDoc, new: &BenchDoc, noise_frac: f64) -> Verdict {
    if old.bench != new.bench {
        return Verdict::Skipped(format!("different benches: `{}` vs `{}`", old.bench, new.bench));
    }
    if old.params != new.params {
        return Verdict::Skipped(format!(
            "parameters differ (old {:?}, new {:?}) — not comparable",
            old.params, new.params
        ));
    }
    let mut regressions = Vec::new();
    let mut held = Vec::new();
    for (key, old_qps) in &old.points {
        let Some((_, new_qps)) = new.points.iter().find(|(k, _)| k == key) else {
            continue; // regimes can be added/retired; only shared ones gate
        };
        let floor = old_qps * (1.0 - noise_frac);
        let line = format!("{key}: {old_qps:.0} → {new_qps:.0} qps");
        if *new_qps < floor {
            regressions.push(format!(
                "{line} ({:.1}% drop > {:.0}% threshold)",
                100.0 * (1.0 - new_qps / old_qps),
                100.0 * noise_frac
            ));
        } else {
            held.push(line);
        }
    }
    if regressions.is_empty() {
        Verdict::Ok(held)
    } else {
        Verdict::Regressed(regressions)
    }
}

/// Reads and extracts a bench document from a file.
pub fn load(path: &str) -> Result<BenchDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    extract(&Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?)
}

/// The noise threshold from the `BENCH_DRIFT_PCT` environment knob
/// (percent), defaulting to [`DEFAULT_NOISE_FRAC`].
pub fn noise_frac_from_env() -> f64 {
    crate::harness::env_f64("BENCH_DRIFT_PCT", DEFAULT_NOISE_FRAC * 100.0) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_doc(fused_qps: f64) -> Json {
        Json::obj(vec![
            ("bench", Json::Str("scan_throughput".into())),
            ("scale_factor", Json::Num(0.1)),
            ("fact_rows", Json::Num(600000.0)),
            ("workload_queries", Json::Num(8.0)),
            ("threads", Json::Num(4.0)),
            (
                "regimes",
                Json::Arr(vec![
                    Json::obj(vec![
                        ("name", Json::Str("bitset".into())),
                        ("queries_per_sec", Json::Num(600.0)),
                    ]),
                    Json::obj(vec![
                        ("name", Json::Str("fused-batch".into())),
                        ("queries_per_sec", Json::Num(fused_qps)),
                    ]),
                ]),
            ),
        ])
    }

    #[test]
    fn roundtrip_parse_of_rendered_documents() {
        let doc = scan_doc(1200.0);
        let parsed = Json::parse(&doc.render()).unwrap();
        let d = extract(&parsed).unwrap();
        assert_eq!(d.bench, "scan_throughput");
        assert_eq!(d.points.len(), 2);
        assert_eq!(d.points[1], ("fused-batch".to_string(), 1200.0));
        assert_eq!(d.params.len(), 4);
    }

    #[test]
    fn within_threshold_is_ok() {
        let old = extract(&scan_doc(1000.0)).unwrap();
        let new = extract(&scan_doc(900.0)).unwrap();
        assert!(matches!(compare(&old, &new, 0.15), Verdict::Ok(_)));
    }

    #[test]
    fn regression_beyond_threshold_fails() {
        let old = extract(&scan_doc(1000.0)).unwrap();
        let new = extract(&scan_doc(700.0)).unwrap();
        let Verdict::Regressed(lines) = compare(&old, &new, 0.15) else {
            panic!("30% drop must regress");
        };
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("fused-batch"), "{lines:?}");
    }

    #[test]
    fn parameter_mismatch_skips() {
        let old = extract(&scan_doc(1000.0)).unwrap();
        let mut changed = scan_doc(1000.0);
        if let Json::Obj(pairs) = &mut changed {
            pairs.iter_mut().find(|(k, _)| k == "fact_rows").unwrap().1 = Json::Num(999.0);
        }
        let new = extract(&changed).unwrap();
        assert!(matches!(compare(&old, &new, 0.15), Verdict::Skipped(_)));
    }

    #[test]
    fn sample_shaped_documents_qualify_by_clients() {
        let doc = Json::obj(vec![
            ("bench", Json::Str("coalesce_throughput".into())),
            (
                "samples",
                Json::Arr(vec![Json::obj(vec![
                    ("regime", Json::Str("coalesced".into())),
                    ("clients", Json::Num(8.0)),
                    ("queries_per_sec", Json::Num(1200.0)),
                ])]),
            ),
        ]);
        let d = extract(&doc).unwrap();
        assert_eq!(d.points[0].0, "coalesced@clients=8");
    }

    #[test]
    fn parser_handles_escapes_null_and_nesting() {
        let parsed = Json::parse(r#"{"a": [1, -2.5e3, null, true], "b": "x\n\"yA"}"#).unwrap();
        assert_eq!(parsed.get("a").and_then(Json::as_arr).unwrap().len(), 4);
        assert_eq!(parsed.get("b").and_then(Json::as_str), Some("x\n\"yA"));
        let unicode = Json::parse(r#""\u0041é tail""#).unwrap();
        assert_eq!(unicode.as_str(), Some("Aé tail"));
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("123 junk").is_err());
    }
}
