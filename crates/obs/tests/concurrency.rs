//! Concurrency guarantees of the metrics layer: totals are *exact*
//! under many writer threads (no sampled or lost updates), and
//! histogram merge is associative and order-independent, so sharded
//! recording folds to the same result no matter the fold order.

use proptest::prelude::*;
use std::sync::Arc;
use tt_obs::{BucketScheme, Histogram, MetricsRegistry};

const WRITERS: usize = 8;
const PER_WRITER: usize = 5_000;

#[test]
fn counter_totals_are_exact_under_threads() {
    let registry = Arc::new(MetricsRegistry::default());
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let counter = registry.counter("requests_total");
                let gauge = registry.gauge("inflight");
                for i in 0..PER_WRITER {
                    counter.inc();
                    gauge.add(if (i + w) % 2 == 0 { 1 } else { -1 });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = registry.snapshot();
    assert_eq!(
        snap.counters["requests_total"],
        (WRITERS * PER_WRITER) as u64
    );
    // Each writer nets 0 over an even number of alternating updates.
    assert_eq!(snap.gauges["inflight"], 0);
    assert_eq!(snap.dropped_series, 0);
}

#[test]
fn histogram_totals_are_exact_under_threads() {
    let registry = Arc::new(MetricsRegistry::default());
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let hist = registry.histogram("latency_us");
                for i in 0..PER_WRITER {
                    // Deterministic per-thread values spanning several
                    // octaves.
                    hist.record(((w * PER_WRITER + i) as u64 % 1_000) * 37 + 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let live = registry.snapshot().histograms["latency_us"].clone();

    // Replay the same multiset single-threaded: every count, the sum,
    // min and max must match bit-for-bit — interleaving is invisible.
    let mut replay = Histogram::default();
    for w in 0..WRITERS {
        for i in 0..PER_WRITER {
            replay.record(((w * PER_WRITER + i) as u64 % 1_000) * 37 + 1);
        }
    }
    assert_eq!(live, replay);
    assert_eq!(live.count(), (WRITERS * PER_WRITER) as u64);
}

#[test]
fn threaded_runs_are_bit_identical() {
    // Two independent threaded runs over the same multiset produce
    // identical snapshots even though thread interleaving differs —
    // the property the `/metrics` endpoint's determinism rests on.
    let run = || {
        let registry = Arc::new(MetricsRegistry::default());
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    let hist = registry.histogram("latency_us");
                    for i in 0..1_000 {
                        hist.record((w as u64 * 7 + i as u64 * 13) % 40_000);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        registry.snapshot().histograms["latency_us"].clone()
    };
    assert_eq!(run(), run());
}

fn hist_of(values: &[u64], scheme: BucketScheme) -> Histogram {
    let mut h = Histogram::new(scheme);
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(0u64..2_000_000, 0..60),
        b in prop::collection::vec(0u64..2_000_000, 0..60),
        c in prop::collection::vec(0u64..2_000_000, 0..60),
    ) {
        let scheme = BucketScheme::DEFAULT;
        let (ha, hb, hc) = (hist_of(&a, scheme), hist_of(&b, scheme), hist_of(&c, scheme));

        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // Order independence: c ⊕ a ⊕ b matches too.
        let mut shuffled = hc.clone();
        shuffled.merge(&ha);
        shuffled.merge(&hb);
        prop_assert_eq!(&left, &shuffled);

        // And the merge equals recording the concatenation directly.
        let mut all: Vec<u64> = Vec::new();
        all.extend(&a);
        all.extend(&b);
        all.extend(&c);
        prop_assert_eq!(&left, &hist_of(&all, scheme));
    }

    #[test]
    fn delta_since_inverts_merge(
        first in prop::collection::vec(0u64..1_000_000, 1..50),
        second in prop::collection::vec(0u64..1_000_000, 1..50),
    ) {
        let scheme = BucketScheme::DEFAULT;
        let earlier = hist_of(&first, scheme);
        let mut later = earlier.clone();
        for &v in &second {
            later.record(v);
        }
        let delta = later.delta_since(&earlier);
        prop_assert_eq!(delta.count(), second.len() as u64);
        prop_assert_eq!(delta.sum(), second.iter().sum::<u64>());
        // Re-merging the delta onto the earlier snapshot restores the
        // later one exactly.
        let mut restored = earlier.clone();
        restored.merge(&delta);
        prop_assert_eq!(restored.count(), later.count());
        prop_assert_eq!(restored.sum(), later.sum());
    }
}

#[test]
fn tracer_retains_exactly_the_last_capacity_under_concurrent_finishes() {
    use std::collections::HashSet;
    use tt_obs::Tracer;

    const THREADS: usize = 4;
    const PER_THREAD: usize = 500;
    const CAPACITY: usize = 64;
    let tracer = Arc::new(Tracer::new(CAPACITY));
    let finished_ids: Vec<Vec<u64>> = (0..THREADS)
        .map(|_| {
            let tracer = Arc::clone(&tracer);
            std::thread::spawn(move || {
                (0..PER_THREAD)
                    .map(|i| {
                        let h = tracer.begin();
                        let root = h.open("request", None, i as u64);
                        h.attr_int(root, "i", i as i64);
                        h.close(root, i as u64 + 1);
                        tracer.finish(&h);
                        h.request_id()
                    })
                    .collect()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();

    let total = (THREADS * PER_THREAD) as u64;
    assert_eq!(tracer.finished_count(), total);
    assert_eq!(tracer.dropped_traces(), total - CAPACITY as u64);
    let retained = tracer.recent(CAPACITY);
    assert_eq!(retained.len(), CAPACITY);
    let ids: HashSet<u64> = retained.iter().map(|t| t.request_id).collect();
    assert_eq!(ids.len(), CAPACITY, "no trace retained twice");
    // Each thread finishes in its own order, so what survives of it is
    // a suffix of its finishes: a retained trace implies every later
    // trace of the same thread is retained too.
    for own in &finished_ids {
        let kept = own.iter().filter(|id| ids.contains(id)).count();
        assert!(own[own.len() - kept..].iter().all(|id| ids.contains(id)));
    }
    for trace in &retained {
        let found = tracer.find(trace.trace_id);
        assert_eq!(found.len(), 1);
        assert_eq!(&found[0], trace);
        assert_eq!(found[0].spans[0].attrs.len(), 1);
    }

    // A sequential tail of `CAPACITY` finishes evicts every trace of
    // the concurrent phase, and `recent` lists the tail in order.
    let tail: Vec<u64> = (0..CAPACITY)
        .map(|_| {
            let h = tracer.begin();
            h.span("request", None, 0, 1);
            tracer.finish(&h);
            h.request_id()
        })
        .collect();
    let recent: Vec<u64> = tracer
        .recent(CAPACITY)
        .iter()
        .map(|t| t.request_id)
        .collect();
    assert_eq!(recent, tail);
    assert_eq!(tracer.recent(3).len(), 3);
    assert_eq!(tracer.dropped_traces(), total);
}
