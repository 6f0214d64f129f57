//! `WorkerPool::broadcast` timed from outside: back-to-back, and after a
//! stretch of caller work about as long as one serial section of a cycle.

use std::hint::black_box;
use std::time::{Duration, Instant};

use icn_sim::WorkerPool;

use crate::stats::{median, micros_since, Metrics};

/// Broadcasts timed per measurement.
const BROADCASTS: usize = 2_000;

/// Caller work before each gapped broadcast.
const GAP: Duration = Duration::from_micros(20);

/// `pool.broadcast_us_p50` and `pool.broadcast_after_gap_us_p50` for a
/// pool of `threads` shards (the caller is one of them).
#[must_use]
pub fn layers(threads: usize) -> Metrics {
    let pool = WorkerPool::new(threads.max(1) - 1);
    let noop = |shard: usize| {
        black_box(shard);
    };
    let mut back_to_back = Vec::with_capacity(BROADCASTS);
    for _ in 0..BROADCASTS {
        let start = Instant::now();
        pool.broadcast(&noop);
        back_to_back.push(micros_since(start));
    }
    let mut after_gap = Vec::with_capacity(BROADCASTS);
    for _ in 0..BROADCASTS {
        let work = Instant::now();
        while work.elapsed() < GAP {
            std::hint::spin_loop();
        }
        let start = Instant::now();
        pool.broadcast(&noop);
        after_gap.push(micros_since(start));
    }
    let mut out = Metrics::default();
    out.put("pool.broadcast_us_p50", "us", median(&back_to_back));
    out.put("pool.broadcast_after_gap_us_p50", "us", median(&after_gap));
    out
}
