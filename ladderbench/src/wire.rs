//! Closed-loop wire clients: each one tenant on its own TCP connection,
//! sending its next SQL statement only after the answer arrives.

use crate::stack::{same_bits, token, ADMIN_TOKEN, DATASET, EPSILON};
use crate::stats::Tally;
use crate::workload::{Draw, Stream, Universe, Workload};
use starj_engine::{QueryResult, StarSchema};
use starj_gate::GateClient;
use starj_telemetry::Json;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long each client keeps sending.
#[derive(Debug, Clone, Copy)]
pub enum Window {
    /// Until `seconds` have passed and the client has sent at least
    /// `min_requests` (the floor keeps percentiles and error samples full).
    Timed { seconds: f64, min_requests: usize },
    /// Exactly this many requests.
    Count(usize),
}

impl Window {
    fn done(&self, start: Instant, sent: usize) -> bool {
        match *self {
            Window::Timed { seconds, min_requests } => {
                sent >= min_requests && start.elapsed().as_secs_f64() >= seconds
            }
            Window::Count(n) => sent >= n,
        }
    }
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Request latencies in seconds, in send order.
    pub latencies: Vec<f64>,
    pub tally: Tally,
    /// Requests the service charged ε for.
    pub charged: u64,
    /// The first fresh answers (a repeat replays an earlier release), in
    /// send order, for the relative-error sample.
    pub answers: Vec<(u32, QueryResult)>,
    /// `metrics` verb round trips in seconds.
    pub metrics_rtt: Vec<f64>,
    /// Every failed check, in order.
    pub errors: Vec<String>,
}

/// Checks one answer against what the workload promises and returns
/// whether it was charged: with the cache on, a repeat must replay the
/// first answer bit for bit at no cost; everything else must pay exactly ε.
pub fn check_answer(
    w: &Workload,
    draw: Draw,
    cached: bool,
    cost: f64,
    result: &QueryResult,
    first: &mut HashMap<u32, QueryResult>,
) -> Result<bool, String> {
    if w.cache && draw.repeat {
        let original = first.get(&draw.index).ok_or("repeat of a query never answered")?;
        if !cached || cost != 0.0 || !same_bits(original, result) {
            return Err(format!(
                "repeat of query {} was not a free, identical replay (cached {cached}, cost {cost})",
                draw.index
            ));
        }
        return Ok(false);
    }
    if cached || cost.to_bits() != EPSILON.to_bits() {
        return Err(format!("fresh query {} cached {cached} at cost {cost}", draw.index));
    }
    if w.cache {
        first.insert(draw.index, result.clone());
    }
    Ok(true)
}

/// The result carried by an `ok` answer frame.
pub fn wire_result(json: &Json) -> Option<QueryResult> {
    match json.get("kind")?.as_str()? {
        "scalar" => Some(QueryResult::Scalar(json.get("value")?.as_f64()?)),
        "groups" => {
            let mut groups = BTreeMap::new();
            for g in json.get("groups")?.as_arr()? {
                let key = g
                    .get("key")?
                    .as_arr()?
                    .iter()
                    .map(|k| k.as_f64().map(|v| v as u32))
                    .collect::<Option<Vec<u32>>>()?;
                groups.insert(key, g.get("value")?.as_f64()?);
            }
            Some(QueryResult::Groups(groups))
        }
        _ => None,
    }
}

/// Settings shared by every client of one drive.
pub struct Drive<'a> {
    pub addr: SocketAddr,
    pub schema: &'a StarSchema,
    pub w: &'a Workload,
    pub universe: &'a Universe,
    pub seed: u64,
    pub window: Window,
    /// Fresh answers each client keeps for the relative-error sample.
    pub keep_answers: usize,
}

/// Runs clients `clients` (stream and tenant indices) concurrently, each
/// connecting before a common start; returns their runs and the window's
/// wall time in seconds.
pub fn drive(d: &Drive<'_>, clients: Range<usize>) -> (Vec<ClientRun>, f64) {
    let barrier = &Barrier::new(clients.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            clients.map(|c| scope.spawn(move || client_loop(d, c, barrier))).collect();
        barrier.wait();
        let start = Instant::now();
        let runs: Vec<ClientRun> =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (runs, start.elapsed().as_secs_f64())
    })
}

fn client_loop(d: &Drive<'_>, c: usize, barrier: &Barrier) -> ClientRun {
    let mut run = ClientRun::default();
    let connected = GateClient::connect(d.addr).and_then(|client| {
        let admin =
            if c == 0 && d.w.metrics_verb { Some(GateClient::connect(d.addr)?) } else { None };
        Ok((client, admin))
    });
    barrier.wait();
    let (mut client, mut admin) = match connected {
        Ok(pair) => pair,
        Err(e) => {
            run.errors.push(format!("client {c} could not connect: {e}"));
            return run;
        }
    };
    let mut stream = Stream::new(d.w.mix, d.universe.len(), d.seed, c);
    let mut first = HashMap::new();
    let tok = token(c);
    let start = Instant::now();
    let mut next_metrics = Duration::from_secs(1);
    while !d.window.done(start, run.latencies.len()) {
        if let Some(admin) = admin.as_mut().filter(|_| start.elapsed() >= next_metrics) {
            next_metrics += Duration::from_secs(1);
            let t = Instant::now();
            match admin.metrics(ADMIN_TOKEN) {
                Ok(reply) if reply.get("prometheus").and_then(Json::as_str).is_some() => {
                    run.metrics_rtt.push(t.elapsed().as_secs_f64())
                }
                Ok(reply) => run.errors.push(format!("metrics verb refused: {}", reply.render())),
                Err(e) => run.errors.push(format!("metrics verb failed: {e}")),
            }
        }
        let draw = stream.next_draw();
        let sql = d.universe.sql(d.schema, draw.index);
        let t = Instant::now();
        let reply = client.sql(&tok, DATASET, &sql, EPSILON);
        run.latencies.push(t.elapsed().as_secs_f64());
        run.tally.attempted += 1;
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                run.tally.failed += 1;
                run.errors.push(format!("client {c} lost its connection: {e}"));
                break;
            }
        };
        if reply.get("ok").and_then(Json::as_f64) != Some(1.0) {
            run.tally.refused += 1;
            run.errors.push(format!("client {c} refused: {}", reply.render()));
            continue;
        }
        let Some(result) = wire_result(&reply) else {
            run.tally.failed += 1;
            run.errors.push(format!("client {c} got a malformed answer: {}", reply.render()));
            continue;
        };
        let cached = reply.get("cached").and_then(Json::as_f64) == Some(1.0);
        let cost = reply.get("cost_epsilon").and_then(Json::as_f64).unwrap_or(f64::NAN);
        match check_answer(d.w, draw, cached, cost, &result, &mut first) {
            Ok(charged) => run.charged += u64::from(charged),
            Err(e) => run.errors.push(format!("client {c}: {e}")),
        }
        if !draw.repeat && run.answers.len() < d.keep_answers {
            run.answers.push((draw.index, result));
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;

    #[test]
    fn repeats_must_replay_free_and_fresh_answers_must_pay() {
        let cached_workload = find("mixed-durable").unwrap();
        assert!(cached_workload.cache);
        let mut first = HashMap::new();
        let fresh = Draw { index: 7, repeat: false };
        let repeat = Draw { index: 7, repeat: true };
        let answer = QueryResult::Scalar(41.0);
        let check = |d, cached, cost, r: &QueryResult, first: &mut _| {
            check_answer(cached_workload, d, cached, cost, r, first)
        };
        assert!(check(repeat, true, 0.0, &answer, &mut first).is_err(), "nothing to replay yet");
        assert!(check(fresh, false, 0.0, &answer, &mut first).is_err(), "fresh must pay");
        assert_eq!(check(fresh, false, EPSILON, &answer, &mut first), Ok(true));
        assert_eq!(check(repeat, true, 0.0, &answer, &mut first), Ok(false));
        assert!(check(repeat, true, 0.0, &QueryResult::Scalar(42.0), &mut first).is_err());
        assert!(check(repeat, false, EPSILON, &answer, &mut first).is_err(), "a repeat must hit");

        // With the cache off every answer is a fresh release.
        let uncached = find("point-small").unwrap();
        assert_eq!(check_answer(uncached, repeat, false, EPSILON, &answer, &mut first), Ok(true));
        assert!(check_answer(uncached, repeat, true, 0.0, &answer, &mut first).is_err());
    }

    #[test]
    fn answer_frames_parse_to_results() {
        let scalar = Json::parse(r#"{"ok": 1, "kind": "scalar", "value": 12.5}"#).unwrap();
        assert!(same_bits(&wire_result(&scalar).unwrap(), &QueryResult::Scalar(12.5)));
        let groups =
            Json::parse(r#"{"ok": 1, "kind": "groups", "groups": [{"key": [1, 2], "value": 3}]}"#)
                .unwrap();
        let expected = QueryResult::Groups(BTreeMap::from([(vec![1, 2], 3.0)]));
        assert!(same_bits(&wire_result(&groups).unwrap(), &expected));
        assert!(wire_result(&Json::parse(r#"{"ok": 0, "code": "x"}"#).unwrap()).is_none());
    }
}
