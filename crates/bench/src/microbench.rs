//! Minimal wall-clock micro-benchmark harness for the `kernels` bench.
//!
//! The build environment has no crates.io access, so the `[[bench]]`
//! target is a plain `harness = false` binary; this module provides the
//! small slice of a harness it needs: a time-calibrated iteration count,
//! a warm-up pass, and a readable one-line report. Statistical rigor is
//! out of scope; perfbench makes every host-speed claim.

use std::time::{Duration, Instant};

/// Measurement budget of one benchmark.
const BUDGET: Duration = Duration::from_millis(200);

/// Measure `f`, calibrating the iteration count so the measured run takes
/// roughly 200 ms, and print the mean time per iteration.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // Warm-up + calibration: run once, then scale the iteration count to
    // fill the budget (clamped to a sane range).
    let t0 = Instant::now();
    std::hint::black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(50));
    let iters = (BUDGET.as_nanos() / once.as_nanos()).clamp(3, 1_000_000) as u64;

    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    let (value, unit) = if ns >= 1e9 {
        (ns / 1e9, "s")
    } else if ns >= 1e6 {
        (ns / 1e6, "ms")
    } else if ns >= 1e3 {
        (ns / 1e3, "µs")
    } else {
        (ns, "ns")
    };
    println!("{name:<40} {value:>10.2} {unit}/iter  ({iters} iters)");
}
