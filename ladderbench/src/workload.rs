//! The workloads and their seeded request streams.
//!
//! Every stream is a pure function of the benchmark's `--seed` and the
//! client index, so a rung of the traced run can replay exactly the
//! requests another rung served.

use starj_engine::{to_sql, Predicate, StarQuery, StarSchema};
use starj_noise::StarRng;
use std::borrow::Cow;

/// Which query universe a workload draws from, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Uniform draws from the 140-query ad-hoc COUNT pool.
    Pool,
    /// The paper's nine SSB queries in rotation, from a seeded offset.
    Paper,
    /// Three-predicate COUNT queries: a fresh one with probability 3/5, else
    /// a Zipf-skewed repeat of one this client already sent.
    Skewed,
}

/// One workload: data size, client count, serving settings and query mix.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// SSB scale factor (6 000 000 × scale fact rows).
    pub scale: f64,
    /// Closed-loop clients, one tenant and one TCP connection each.
    pub clients: usize,
    pub mix: Mix,
    /// `ServiceConfig::coalesce`.
    pub coalesce: bool,
    /// Budget journal (`SyncPolicy::Group`, the shipped default) on.
    pub journal: bool,
    /// `ServiceConfig::cache_answers`.
    pub cache: bool,
    /// Client 0 also sends the admin `metrics` verb once a second.
    pub metrics_verb: bool,
    /// Set-ups per end-to-end run; `setup_s` is their median.
    pub setups: usize,
    /// How far the traced ladder's layers may sum from the untraced top
    /// rung's median, as a share of it, before the traced run fails.
    pub ladder_bound: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    // A ~0.2 ms scan: gate, parse, routing, admission and noise dominate;
    // bypasses the coalescer, the journal and the cache.
    Workload {
        name: "point-small",
        scale: 0.01,
        clients: 2,
        mix: Mix::Pool,
        coalesce: false,
        journal: false,
        cache: false,
        metrics_verb: false,
        setups: 5,
        ladder_bound: 0.10,
    },
    // Data beyond every CPU cache: the engine scan is ~99% of a request, and
    // the one client leaves a core free.
    Workload {
        name: "ssb-sf1",
        scale: 1.0,
        clients: 1,
        mix: Mix::Paper,
        coalesce: false,
        journal: false,
        cache: false,
        metrics_verb: false,
        setups: 3,
        // At SF 1 a rung's median over ~110 requests of the nine-query
        // rotation moves 3–9% between rungs doing identical work, so a
        // 10% bound would fail on noise alone.
        ladder_bound: 0.25,
    },
    // `point-small` through the coalescer: the coalesced wire path alone,
    // bypassing the journal and cache that `mixed-durable` exercises.
    Workload {
        name: "point-coalesced",
        scale: 0.01,
        clients: 2,
        mix: Mix::Pool,
        coalesce: true,
        journal: false,
        cache: false,
        metrics_verb: false,
        setups: 5,
        ladder_bound: 0.10,
    },
    // Cache hits beside fsync'd spends, the coalescer, recovery and the
    // admin exposition: the layers `point-small` and `ssb-sf1` bypass.
    Workload {
        name: "mixed-durable",
        scale: 0.05,
        clients: 2,
        mix: Mix::Skewed,
        coalesce: true,
        journal: true,
        cache: true,
        metrics_verb: true,
        setups: 5,
        ladder_bound: 0.10,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Share of `Skewed` requests that repeat an earlier (tenant, query) pair.
/// Kept under one half so the latency median sits inside the miss mode
/// rather than on the boundary between cache hits and misses.
pub const REPEAT_SHARE: f64 = 0.4;

/// Zipf exponent over a client's earlier queries, oldest first.
const ZIPF_S: f64 = 1.0;

/// `Skewed` universe: year range (28) × customer nation (25) × part
/// category (25).
const YEAR_RANGES: u32 = 28;
const NATIONS: u32 = 25;
const CATEGORIES: u32 = 25;
const SKEWED_SIZE: u32 = YEAR_RANGES * NATIONS * CATEGORIES;

/// The `lo..=hi` year pair with index `i` among the 28 ordered pairs of
/// the seven SSB years.
fn year_range(mut i: u32) -> (u32, u32) {
    for lo in 0..7 {
        let width = 7 - lo;
        if i < width {
            return (lo, lo + i);
        }
        i -= width;
    }
    unreachable!("year range index out of bounds")
}

/// The queries a workload can send, each with its SQL text.
pub struct Universe {
    mix: Mix,
    listed: Vec<(StarQuery, String)>,
}

impl Universe {
    pub fn new(mix: Mix, schema: &StarSchema) -> Universe {
        let queries = match mix {
            Mix::Pool => starj_bench::query_pool(),
            Mix::Paper => starj_ssb::all_queries(),
            Mix::Skewed => Vec::new(),
        };
        let listed = queries.into_iter().map(|q| (q.clone(), to_sql(schema, &q))).collect();
        Universe { mix, listed }
    }

    pub fn len(&self) -> u32 {
        match self.mix {
            Mix::Skewed => SKEWED_SIZE,
            _ => self.listed.len() as u32,
        }
    }

    pub fn query(&self, index: u32) -> StarQuery {
        match self.mix {
            Mix::Skewed => skewed_query(index),
            _ => self.listed[index as usize].0.clone(),
        }
    }

    /// The SQL a client sends for `index`: pre-rendered for the listed
    /// universes, rendered on demand for the large `Skewed` one.
    pub fn sql(&self, schema: &StarSchema, index: u32) -> Cow<'_, str> {
        match self.mix {
            Mix::Skewed => Cow::Owned(to_sql(schema, &skewed_query(index))),
            _ => Cow::Borrowed(&self.listed[index as usize].1),
        }
    }
}

fn skewed_query(index: u32) -> StarQuery {
    let category = index % CATEGORIES;
    let rest = index / CATEGORIES;
    let nation = rest % NATIONS;
    let (lo, hi) = year_range(rest / NATIONS);
    StarQuery::count(format!("mix_{index}"))
        .with(Predicate::range("Date", "year", lo, hi))
        .with(Predicate::point("Customer", "nation", nation))
        .with(Predicate::point("Part", "category", category))
}

/// One request of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    /// Index into the workload's [`Universe`].
    pub index: u32,
    /// True when this client already sent the same query earlier; with
    /// the answer cache on, the answer replays for free.
    pub repeat: bool,
}

/// A client's endless, seeded request stream.
pub struct Stream {
    mix: Mix,
    rng: StarRng,
    universe: u32,
    sent: u64,
    offset: u32,
    /// `Skewed`: this client's fresh-query order and the queries already
    /// sent with their cumulative Zipf weights.
    fresh: Vec<u32>,
    seen: Vec<u32>,
    cumulative: Vec<f64>,
}

impl Stream {
    pub fn new(mix: Mix, universe: u32, seed: u64, client: usize) -> Stream {
        let mut rng = StarRng::from_seed(seed).derive("stream").derive_index(client as u64);
        let offset = rng.below(u64::from(universe)) as u32;
        let fresh = if mix == Mix::Skewed {
            let mut order: Vec<u32> = (0..universe).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.index(i + 1));
            }
            order
        } else {
            Vec::new()
        };
        Stream {
            mix,
            rng,
            universe,
            sent: 0,
            offset,
            fresh,
            seen: Vec::new(),
            cumulative: Vec::new(),
        }
    }

    pub fn next_draw(&mut self) -> Draw {
        let sent = self.sent;
        self.sent += 1;
        match self.mix {
            Mix::Pool => {
                Draw { index: self.rng.below(u64::from(self.universe)) as u32, repeat: false }
            }
            Mix::Paper => Draw {
                index: ((u64::from(self.offset) + sent) % u64::from(self.universe)) as u32,
                repeat: false,
            },
            Mix::Skewed => {
                if !self.seen.is_empty() && self.rng.coin(REPEAT_SHARE) {
                    let total = *self.cumulative.last().expect("seen is non-empty");
                    let target = self.rng.unit() * total;
                    let at = self.cumulative.partition_point(|&c| c <= target);
                    return Draw { index: self.seen[at.min(self.seen.len() - 1)], repeat: true };
                }
                // Fresh queries walk this client's permutation; should a
                // run ever exhaust it, the walk wraps and the "fresh" query
                // is in fact a repeat, which the cache then serves.
                let index = self.fresh[(self.seen.len()) % self.fresh.len()];
                let weight = 1.0 / ((self.seen.len() + 1) as f64).powf(ZIPF_S);
                let total = self.cumulative.last().copied().unwrap_or(0.0);
                self.seen.push(index);
                self.cumulative.push(total + weight);
                Draw { index, repeat: false }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Stream {
        fn take(mix: Mix, universe: u32, seed: u64, client: usize, n: usize) -> Vec<Draw> {
            let mut stream = Stream::new(mix, universe, seed, client);
            (0..n).map(|_| stream.next_draw()).collect()
        }
    }

    #[test]
    fn streams_are_seeded() {
        for mix in [Mix::Pool, Mix::Paper, Mix::Skewed] {
            let universe = if mix == Mix::Skewed { SKEWED_SIZE } else { 140 };
            let a = Stream::take(mix, universe, 7, 1, 500);
            assert_eq!(a, Stream::take(mix, universe, 7, 1, 500));
            assert_ne!(a, Stream::take(mix, universe, 8, 1, 500));
            assert_ne!(a, Stream::take(mix, universe, 7, 0, 500));
            assert!(a.iter().all(|d| d.index < universe));
        }
    }

    #[test]
    fn paper_mix_rotates() {
        let draws = Stream::take(Mix::Paper, 9, 3, 0, 18);
        for (k, d) in draws.iter().enumerate().skip(1) {
            assert_eq!(d.index, (draws[0].index + k as u32) % 9);
        }
    }

    #[test]
    fn skewed_repeats_are_earlier_queries_at_the_configured_share() {
        let draws = Stream::take(Mix::Skewed, SKEWED_SIZE, 11, 0, 20_000);
        let mut seen = std::collections::HashSet::new();
        let mut repeats = 0;
        for d in &draws {
            assert_eq!(d.repeat, seen.contains(&d.index), "repeat flag must be exact");
            repeats += usize::from(d.repeat);
            seen.insert(d.index);
        }
        let share = repeats as f64 / draws.len() as f64;
        assert!((share - REPEAT_SHARE).abs() < 0.02, "repeat share {share}");
    }

    #[test]
    fn skewed_universe_decodes_every_index_to_a_distinct_query() {
        let sample = [0, 1, 24, 25, 624, 625, SKEWED_SIZE / 2, SKEWED_SIZE - 1];
        let canon: std::collections::HashSet<String> = sample
            .iter()
            .map(|&i| format!("{:?}", starj_engine::canonicalize(&skewed_query(i))))
            .collect();
        assert_eq!(canon.len(), sample.len());
        assert_eq!(year_range(0), (0, 0));
        assert_eq!(year_range(YEAR_RANGES - 1), (6, 6));
    }
}
