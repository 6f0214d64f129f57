//! Performance harnesses behind `icn bench`.
//!
//! * [`perf`] — the simulator regression gate: a fixed case list
//!   (`smoke_256`, the 256-port CI smoke case, and `dmc2048_w4_load2`,
//!   the §6 paper-scale network), simulated cycles per wall-clock second,
//!   the `BENCH_PR3.json` baseline format, and a >25%-regression check.
//!   `icn bench --overhead` times the same cases with the profiler on
//!   against off.
//! * [`loadgen`] — drives a live `icn-serve` instance with a concurrent
//!   mixed HTTP workload for `icn bench --serve` (latency percentiles +
//!   crash-recovery timing).
//!
//! Both measure the code paths the experiments and the service run —
//! there is no separate bench-only path to drift.

#![warn(missing_docs)]

pub mod loadgen;
pub mod perf;
