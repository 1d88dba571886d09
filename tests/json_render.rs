//! Golden tests for the single-buffer JSON renderer.
//!
//! `Json::render`, `Json::render_into` and the gate's `frame_of` must
//! produce exactly the bytes of the original per-node renderer (kept below
//! as the oracle `per_node_render`): every escape, the `null` spelling of
//! non-finite numbers, the 9e15 integer boundary, and nesting. A `metrics`
//! reply — Prometheus text plus audit JSONL carrying a hostile tenant name —
//! must survive the wire and `Json::parse` with both strings intact.

use dp_starj_repro::engine::Table;
use dp_starj_repro::engine::{to_sql, Column, Dimension, Domain, Predicate, StarQuery, StarSchema};
use dp_starj_repro::gate::wire::frame_of;
use dp_starj_repro::gate::{Gate, GateClient, GateConfig};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::router::{Router, RouterConfig};
use dp_starj_repro::service::ServiceConfig;
use dp_starj_repro::telemetry::Json;
use std::sync::Arc;

/// The renderer as it was before `render_into`: one `String` per node,
/// joined with `format!`. The byte-for-byte oracle of these tests.
fn per_node_render(json: &Json) -> String {
    fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }
    match json {
        Json::Num(v) if v.is_finite() => {
            if v.fract() == 0.0 && v.abs() < 9.0e15 {
                format!("{}", *v as i64)
            } else {
                format!("{v}")
            }
        }
        Json::Num(_) => "null".into(),
        Json::Str(s) => string(s),
        Json::Obj(pairs) => {
            let body: Vec<String> = pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", string(k), per_node_render(v)))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
        Json::Arr(items) => {
            let body: Vec<String> = items.iter().map(per_node_render).collect();
            format!("[{}]", body.join(", "))
        }
        Json::Null => "null".into(),
    }
}

/// Asserts all three renderers give `expected`, and that it is the
/// oracle's output.
fn assert_renders(json: &Json, expected: &str) {
    assert_eq!(per_node_render(json), expected, "the oracle disagrees with the golden bytes");
    assert_eq!(json.render(), expected);
    let mut appended = String::from("prefix:");
    json.render_into(&mut appended);
    assert_eq!(appended, format!("prefix:{expected}"), "render_into appends");
    assert_eq!(frame_of(json), expected.as_bytes());
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

#[test]
fn escapes_render_the_golden_bytes() {
    assert_renders(&s(""), r#""""#);
    assert_renders(&s("plain ascii"), r#""plain ascii""#);
    assert_renders(&s("\""), r#""\"""#);
    assert_renders(&s("\\"), r#""\\""#);
    assert_renders(&s("a\nb\rc\td"), r#""a\nb\rc\td""#);
    assert_renders(
        &s("\u{0}\u{1}\u{8}\u{c}\u{1b}\u{1f}"),
        r#""\u0000\u0001\u0008\u000c\u001b\u001f""#,
    );
    // DEL and everything above it pass through unescaped, multi-byte
    // UTF-8 included.
    assert_renders(&s("\u{7f} ε=½ 数 🦀"), "\"\u{7f} ε=½ 数 🦀\"");
    assert_renders(&s("end\\\"\n"), r#""end\\\"\n""#);
}

#[test]
fn numbers_render_the_golden_bytes() {
    assert_renders(&Json::Num(f64::NAN), "null");
    assert_renders(&Json::Num(f64::INFINITY), "null");
    assert_renders(&Json::Num(f64::NEG_INFINITY), "null");
    assert_renders(&Json::Null, "null");
    assert_renders(&Json::Num(0.0), "0");
    assert_renders(&Json::Num(-0.0), "0");
    assert_renders(&Json::Num(-7.0), "-7");
    assert_renders(&Json::Num(0.125), "0.125");
    assert_renders(&Json::Num(-1234.5), "-1234.5");
    assert_renders(&Json::Num(1e-7), "0.0000001");
    // The integer path ends just below 9e15; at and beyond it `f64`
    // Display takes over.
    assert_renders(&Json::Num(8_999_999_999_999_999.0), "8999999999999999");
    assert_renders(&Json::Num(8_999_999_999_999_998.0), "8999999999999998");
    assert_renders(&Json::Num(9.0e15), "9000000000000000");
    assert_renders(&Json::Num(-9.0e15), "-9000000000000000");
    assert_renders(&Json::Num(1e300), &format!("{}", 1e300));
}

#[test]
fn nesting_renders_the_golden_bytes() {
    assert_renders(&Json::Arr(vec![]), "[]");
    assert_renders(&Json::Obj(vec![]), "{}");
    let doc = Json::obj(vec![
        ("id", Json::Num(3.0)),
        ("k\"ey\n", Json::Arr(vec![Json::Num(1.0), Json::Null, s("x")])),
        (
            "nested",
            Json::Arr(vec![
                Json::Arr(vec![]),
                Json::obj(vec![("a", Json::Obj(vec![])), ("b", Json::Arr(vec![Json::Num(0.5)]))]),
            ]),
        ),
    ]);
    assert_renders(
        &doc,
        r#"{"id": 3, "k\"ey\n": [1, null, "x"], "nested": [[], {"a": {}, "b": [0.5]}]}"#,
    );
}

/// A seeded random document: strings drawn from an alphabet heavy in
/// characters that need escaping, numbers around the integer boundary.
fn random_doc(state: &mut u64, depth: u32) -> Json {
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }
    const ALPHABET: [char; 12] =
        ['a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '🦀'];
    let text = |state: &mut u64| -> String {
        let len = next(state) % 12;
        (0..len).map(|_| ALPHABET[(next(state) % ALPHABET.len() as u64) as usize]).collect()
    };
    let kind = if depth == 0 { next(state) % 3 } else { next(state) % 5 };
    match kind {
        0 => {
            let bits = next(state);
            let v = match bits % 4 {
                0 => (bits >> 8) as f64 - 2.0f64.powi(55),
                1 => f64::from_bits(bits),
                2 => (bits % 2_000) as f64 / 8.0 - 100.0,
                _ => 9.0e15 - (bits % 3) as f64,
            };
            Json::Num(v)
        }
        1 => Json::Str(text(state)),
        2 => Json::Null,
        3 => Json::Arr((0..next(state) % 4).map(|_| random_doc(state, depth - 1)).collect()),
        _ => Json::Obj(
            (0..next(state) % 4).map(|_| (text(state), random_doc(state, depth - 1))).collect(),
        ),
    }
}

#[test]
fn random_documents_render_like_the_per_node_renderer() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..2_000 {
        let doc = random_doc(&mut state, 4);
        let expected = per_node_render(&doc);
        assert_eq!(doc.render(), expected);
        assert_eq!(frame_of(&doc), expected.as_bytes());
        let back = Json::parse(&expected).expect("rendered JSON parses");
        assert_eq!(back.render(), expected, "parsing then rendering is the identity");
    }
}

const DATASET: &str = "sales";
const TOKEN: &str = "tok-hostile";
/// A tenant name that needs every kind of escape in an audit line.
const TENANT: &str = "ev\"il\\ten\nant\t\u{1}";
const ADMIN_TOKEN: &str = "tok-admin";

fn schema() -> Arc<StarSchema> {
    let domain = Domain::numeric("c", 4).unwrap();
    let dim = Table::new(
        "Dim",
        vec![Column::key("pk", (0..4).collect()), Column::attr("c", domain, (0..4).collect())],
    )
    .unwrap();
    let fact =
        Table::new("Fact", vec![Column::key("fk", vec![0, 0, 1, 1, 2, 2, 3, 3, 0, 1])]).unwrap();
    Arc::new(StarSchema::new(fact, vec![Dimension::new(dim, "pk", "fk")]).unwrap())
}

#[test]
fn metrics_reply_round_trips_with_prometheus_and_audit_intact() {
    let router = Router::new(RouterConfig {
        shards: 1,
        shard_config: ServiceConfig::default(),
        ..RouterConfig::default()
    })
    .unwrap();
    router.add_dataset(DATASET, schema()).unwrap();
    router.register_tenant(DATASET, TENANT, PrivacyBudget::pure(64.0).unwrap()).unwrap();
    let router = Arc::new(router);
    let config = GateConfig {
        tokens: vec![(TOKEN.to_string(), TENANT.to_string())],
        admin_tokens: vec![ADMIN_TOKEN.to_string()],
        ..GateConfig::default()
    };
    let gate = Gate::bind(Arc::clone(&router), config, "127.0.0.1:0").unwrap();
    let mut client = GateClient::connect(gate.addr()).unwrap();
    let schema = router.dataset_schema(DATASET).unwrap();
    for c in 0..4 {
        let sql = to_sql(&schema, &StarQuery::count("q").with(Predicate::point("Dim", "c", c)));
        let answer = client.sql(TOKEN, DATASET, &sql, 0.5).unwrap();
        assert_eq!(answer.get("ok").and_then(Json::as_f64), Some(1.0));
    }

    let reply = client.metrics(ADMIN_TOKEN).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_f64), Some(1.0));
    // No traffic is in flight, so the router's exposition and trail are
    // what the gate rendered; the gate's own families follow the router's.
    let audit = reply.get("audit_jsonl").and_then(Json::as_str).expect("audit_jsonl string");
    assert_eq!(audit, router.audit_jsonl(), "audit JSONL must survive the wire intact");
    assert_eq!(audit.lines().count(), 8, "a reserve and a commit per answer");
    for line in audit.lines() {
        let event = Json::parse(line).expect("every audit line parses");
        assert_eq!(event.get("tenant").and_then(Json::as_str), Some(TENANT));
    }
    let prometheus = reply.get("prometheus").and_then(Json::as_str).expect("prometheus string");
    let router_text = router.prometheus_text();
    assert!(
        prometheus.starts_with(&router_text) && prometheus.len() > router_text.len(),
        "the router's exposition must survive the wire intact, then the gate's"
    );
    assert!(prometheus.contains("starj_gate_"));
    // The reply re-renders to the bytes the oracle gives.
    assert_eq!(frame_of(&reply), per_node_render(&reply).as_bytes());
}
