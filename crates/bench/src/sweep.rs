//! Parallel design-point execution and per-point tracing annotations for
//! the sweep binaries.
//!
//! Every design point of a sweep is an independent simulation — separate
//! `EclipseSystem`, separate RNG state, separate stats — so points can run
//! on separate host threads with **no** effect on simulated timing. The
//! executor here is deliberately std-only (scoped threads + an atomic work
//! index): results come back in the input order regardless of which thread
//! finished first, so sweep tables are byte-stable across thread counts.
//!
//! Pass `--threads N` to any sweep binary (or set `ECLIPSE_SWEEP_THREADS`;
//! the flag wins) to override the default of one thread per available
//! core — useful for timing comparisons and for debugging a single point.

use eclipse_core::RunSummary;
use eclipse_sim::SharedTraceSink;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The `--threads N` (or `--threads=N`) command-line override shared by
/// every sweep binary. `None` when the flag is absent; panics on a
/// malformed count so a typo'd benchmark invocation fails loudly instead
/// of silently running at a different width.
pub fn threads_flag() -> Option<usize> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            let v = args.next().expect("--threads requires a thread count");
            return Some(
                v.trim()
                    .parse()
                    .expect("--threads count must be a positive integer"),
            );
        }
        if let Some(v) = a.strip_prefix("--threads=") {
            return Some(
                v.trim()
                    .parse()
                    .expect("--threads count must be a positive integer"),
            );
        }
    }
    None
}

/// Number of worker threads for a sweep over `points` design points:
/// the `--threads` flag if present, else `ECLIPSE_SWEEP_THREADS` if set,
/// else one per available core — never more than there are points, and
/// never fewer than one.
pub fn sweep_threads(points: usize) -> usize {
    let budget = threads_flag()
        .or_else(|| {
            std::env::var("ECLIPSE_SWEEP_THREADS")
                .ok()
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    budget.clamp(1, points.max(1))
}

/// Run `run` over every design point, in parallel across host cores.
///
/// Deterministic by construction: each point is handed to exactly one
/// worker, workers share nothing but the work index, and the result vector
/// is ordered by input position — the output is identical to
/// `points.iter().map(run).collect()`, just faster.
pub fn par_sweep<T: Sync, R: Send>(points: &[T], run: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = sweep_threads(points.len());
    if threads <= 1 || points.len() <= 1 {
        return points.iter().map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = points.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= points.len() {
                    break;
                }
                let r = run(&points[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker produced no result")
        })
        .collect()
}

/// True when `--trace` was passed on the command line: sweep binaries then
/// install a structured trace sink per design point and print a per-point
/// annotation (see [`trace_annotation`]). Off by default — tracing costs
/// host time and the annotations are noise in the standard tables.
pub fn trace_flag() -> bool {
    std::env::args().any(|a| a == "--trace")
}

/// Render the per-design-point tracing annotation: `GetSpace` denial
/// rates, sync-message latency, and (when a sink was installed) the
/// structured-trace event mix.
pub fn trace_annotation(
    label: &str,
    summary: &RunSummary,
    sink: Option<&SharedTraceSink>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(out, "  [trace] {label}:").unwrap();
    let mut denials: Vec<_> = summary
        .denial_rates
        .iter()
        .filter(|(_, rate)| *rate > 0.0)
        .collect();
    denials.sort_by(|a, b| b.1.total_cmp(&a.1));
    if denials.is_empty() {
        writeln!(out, "    getspace denials: none").unwrap();
    } else {
        for (row, rate) in denials.iter().take(4) {
            writeln!(out, "    getspace denial {row}: {:.1}%", rate * 100.0).unwrap();
        }
        if denials.len() > 4 {
            writeln!(out, "    ... {} more rows with denials", denials.len() - 4).unwrap();
        }
    }
    let stat = summary.sync_latency.stat();
    if stat.count() > 0 {
        writeln!(
            out,
            "    sync latency: n={} mean={:.1} p90<={} max={:.0} cycles",
            stat.count(),
            stat.mean(),
            summary.sync_latency.quantile_upper_bound(0.9),
            stat.max()
        )
        .unwrap();
    }
    if let Some(sink) = sink {
        let sink = sink.borrow();
        let counts = sink.counts_by_kind();
        if !counts.is_empty() {
            let mix: Vec<String> = counts
                .iter()
                .map(|(kind, n)| format!("{kind}={n}"))
                .collect();
            writeln!(
                out,
                "    events: {} (emitted={} dropped={})",
                mix.join(" "),
                sink.emitted(),
                sink.dropped()
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_sweep_preserves_input_order() {
        let points: Vec<u64> = (0..64).collect();
        let out = par_sweep(&points, |&p| p * p);
        assert_eq!(out, points.iter().map(|p| p * p).collect::<Vec<_>>());
    }

    #[test]
    fn par_sweep_matches_serial_run() {
        let points: Vec<u64> = (0..17).collect();
        let serial: Vec<u64> = points.iter().map(|&p| p.wrapping_mul(0x9E3779B9)).collect();
        let parallel = par_sweep(&points, |&p| p.wrapping_mul(0x9E3779B9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn par_sweep_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_sweep(&empty, |&p| p).is_empty());
        assert_eq!(par_sweep(&[7u32], |&p| p + 1), vec![8]);
    }

    #[test]
    fn sweep_threads_respects_override() {
        // Can't set the env var here without racing other tests; just
        // check the bounds logic.
        assert_eq!(sweep_threads(0), 1);
        assert_eq!(sweep_threads(1), 1);
        assert!(sweep_threads(1000) >= 1);
    }

    #[test]
    fn threads_flag_absent_in_test_harness() {
        // The test binary was not launched with `--threads`, so the flag
        // parser must report absence (and thus fall through to the env /
        // core-count path) rather than misreading unrelated arguments.
        assert_eq!(threads_flag(), None);
    }
}
