//! Heap footprint of the answer cache.
//!
//! Under the Predicate Mechanism a cached answer is an exact evaluation of
//! an already-noisy query, so the service keeps every fresh release for
//! free replay — the cache is the one structure that grows with traffic.
//! A counting global allocator measures what each fresh release leaves on
//! the heap once its request is done, and that replaying the releases as
//! cache hits leaves nothing behind.
//!
//! This file holds a single test on purpose: the allocator counts the
//! whole process, so no other test may run beside it.

use dp_starj_repro::engine::{Predicate, StarQuery};
use dp_starj_repro::noise::PrivacyBudget;
use dp_starj_repro::service::{Service, ServiceConfig};
use dp_starj_repro::ssb::{generate, SsbConfig};
use dp_starj_repro::telemetry::TelemetryConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Net live heap bytes of the process.
static LIVE: AtomicI64 = AtomicI64::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is only
// bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = System.realloc(ptr, layout, new_size);
        if !grown.is_null() {
            LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        grown
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ENTRIES: u32 = 4_000;
const EPS: f64 = 0.125;
/// Retained heap bytes allowed per cached release.
const MAX_BYTES_PER_ENTRY: i64 = 1_024;

/// The `i`-th distinct three-predicate COUNT over SSB: a year range, a
/// customer nation and a part category (the shape of the `mixed-durable`
/// benchmark workload).
fn query(i: u32) -> StarQuery {
    let category = i % 25;
    let nation = (i / 25) % 25;
    let lo = (i / 625) % 7;
    StarQuery::count(format!("mix_{i}"))
        .with(Predicate::range("Date", "year", lo, (lo + 1).min(6)))
        .with(Predicate::point("Customer", "nation", nation))
        .with(Predicate::point("Part", "category", category))
}

#[test]
fn cached_releases_stay_small_and_hits_retain_nothing() {
    let schema = Arc::new(generate(&SsbConfig::at_scale(0.001, 7)).expect("SSB generates"));
    let config =
        ServiceConfig { telemetry: TelemetryConfig::disabled(), ..ServiceConfig::default() };
    let service = Service::new(schema, config);
    service.register_tenant("tenant-0", PrivacyBudget::pure(1_000.0).unwrap()).unwrap();
    let queries: Vec<StarQuery> = (0..ENTRIES).map(query).collect();

    // Warm every lazily built structure (scan plans, cost model, metric
    // registries) on a query outside the measured set.
    let warm = query(ENTRIES + 1);
    service.pm_answer("tenant-0", &warm, EPS).expect("warm-up answers");
    service.pm_answer("tenant-0", &warm, EPS).expect("warm-up replays");

    let before = LIVE.load(Ordering::SeqCst);
    for q in &queries {
        let answer = service.pm_answer("tenant-0", q, EPS).expect("funded query answers");
        assert!(!answer.cached, "distinct queries are fresh releases");
    }
    let after_fresh = LIVE.load(Ordering::SeqCst);
    assert_eq!(service.metrics().cache_hits, 1, "only the warm-up replay hit");

    for q in &queries {
        let answer = service.pm_answer("tenant-0", q, EPS).expect("replays answer");
        assert!(answer.cached, "every repeat replays its release");
    }
    let after_hits = LIVE.load(Ordering::SeqCst);

    let per_entry = (after_fresh - before) / i64::from(ENTRIES);
    assert!(
        per_entry <= MAX_BYTES_PER_ENTRY,
        "each cached release retains {per_entry} heap bytes (bound {MAX_BYTES_PER_ENTRY})"
    );
    assert_eq!(after_hits - after_fresh, 0, "replaying cached releases must retain no heap");
    assert_eq!(service.metrics().cache_hits, 1 + u64::from(ENTRIES));
}
