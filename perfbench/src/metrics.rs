//! Metric plumbing: the exact per-layer counts read from the public
//! stats structs after a run, order statistics, and the process's
//! memory high-water mark.

use std::time::Instant;

use eclipse_core::{EclipseSystem, RunSummary};

/// Coprocessor units that get `coprocs.<unit>.*` metrics: the MPEG
/// instance's five and the synthetic pipeline's six workers. A unit a
/// workload does not build reports 0.
pub const UNITS: [&str; 11] = [
    "vld", "rlsq", "dct", "mcme", "dsp", "stage0", "stage1", "stage2", "stage3", "stage4", "stage5",
];

/// Every trace event kind, in `TraceSink::counts_by_kind` naming. A kind
/// a run never emits reports 0.
pub const TRACE_KINDS: [&str; 25] = [
    "app_drained",
    "app_mapped",
    "app_paused",
    "app_resumed",
    "app_unmapped",
    "bank_grant",
    "bus_grant",
    "cache_flush",
    "cache_invalidate",
    "cache_prefetch",
    "counter",
    "fault",
    "getspace_deny",
    "getspace_grant",
    "putspace_recv",
    "putspace_send",
    "run_end",
    "run_start",
    "sample",
    "stale_sync_rejected",
    "step",
    "sync_deliver",
    "sync_hop",
    "task_idle",
    "task_selected",
];

/// What must repeat exactly on every op of a run, and across runs with
/// the same seed: simulated cycles, every exact per-layer count, and a
/// digest of the op's output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub sim_cycles: u64,
    pub counts: Vec<(String, u64)>,
    pub output: u64,
}

/// Exact per-layer counts of a finished run, by metric name.
pub fn layer_counts(sys: &EclipseSystem, s: &RunSummary) -> Vec<(String, u64)> {
    let shells = sys.shells();
    let tasks = || shells.iter().flat_map(|sh| sh.tasks()).map(|t| &t.stats);
    let rows = || shells.iter().flat_map(|sh| sh.rows()).map(|r| &r.stats);
    let caches = || shells.iter().flat_map(|sh| sh.caches()).map(|c| &c.stats);
    let ports = sys.data_fabric().ports();
    let dram = sys.dram().stats();
    let sram = sys.mem().sram.stats();
    let counts: [(&str, u64); 31] = [
        (
            "shell.sched.gettask_calls",
            shells.iter().map(|sh| sh.stats.gettask_calls).sum(),
        ),
        (
            "shell.sched.gettask_runs",
            shells.iter().map(|sh| sh.stats.gettask_runs).sum(),
        ),
        ("shell.task.steps", tasks().map(|t| t.steps).sum()),
        (
            "shell.task.aborted_steps",
            tasks().map(|t| t.aborted_steps).sum(),
        ),
        (
            "shell.task.switches_in",
            tasks().map(|t| t.switches_in).sum(),
        ),
        (
            "shell.sync.getspace_calls",
            rows().map(|r| r.getspace_calls).sum(),
        ),
        (
            "shell.sync.getspace_denied",
            rows().map(|r| r.getspace_denied).sum(),
        ),
        (
            "shell.sync.putspace_calls",
            rows().map(|r| r.putspace_calls).sum(),
        ),
        ("shell.sync.messages", s.sync_messages),
        (
            "shell.sync.latency_p95_cycles",
            s.sync_latency.quantile_upper_bound(0.95),
        ),
        ("shell.cache.hits", caches().map(|c| c.hits).sum()),
        ("shell.cache.misses", caches().map(|c| c.misses).sum()),
        (
            "shell.cache.prefetches",
            caches().map(|c| c.prefetches).sum(),
        ),
        (
            "shell.cache.writebacks",
            caches().map(|c| c.writebacks).sum(),
        ),
        (
            "shell.cache.invalidations",
            caches().map(|c| c.invalidations).sum(),
        ),
        (
            "shell.cache.stall_cycles",
            caches().map(|c| c.stall_cycles).sum(),
        ),
        (
            "shell.util.busy_cycles",
            s.utilization.iter().map(|u| u.busy).sum(),
        ),
        (
            "shell.util.stalled_cycles",
            s.utilization.iter().map(|u| u.stalled).sum(),
        ),
        (
            "shell.util.idle_cycles",
            s.utilization.iter().map(|u| u.idle).sum(),
        ),
        (
            "mem.fabric.transactions",
            ports.iter().map(|p| p.stats.transactions).sum(),
        ),
        (
            "mem.fabric.bytes",
            ports.iter().map(|p| p.stats.bytes).sum(),
        ),
        (
            "mem.fabric.busy_cycles",
            ports.iter().map(|p| p.stats.busy_cycles).sum(),
        ),
        (
            "mem.fabric.contended_requests",
            sys.data_fabric().contended_requests(),
        ),
        ("mem.dram.transactions", dram.transactions),
        ("mem.dram.bytes", dram.bytes),
        ("mem.dram.row_hits", dram.row_hits),
        ("mem.dram.row_misses", dram.row_misses),
        ("mem.sram.bytes_read", sram.bytes_read),
        ("mem.sram.bytes_written", sram.bytes_written),
        ("coprocs.media_errors", s.media_errors),
        ("coprocs.concealed_mbs", s.concealed_mbs),
    ];
    let mut out: Vec<(String, u64)> = counts.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    for unit in UNITS {
        let shell = sys.shell_names().iter().position(|n| n == unit);
        let busy = shell.map_or(0, |i| s.utilization[i].busy);
        let steps = shell.map_or(0, |i| shells[i].tasks().iter().map(|t| t.stats.steps).sum());
        out.push((format!("coprocs.{unit}.busy_cycles"), busy));
        out.push((format!("coprocs.{unit}.steps"), steps));
    }
    out
}

/// Derived per-layer ratios of a finished run (exact for a given seed).
pub fn layer_ratios(sys: &EclipseSystem, s: &RunSummary) -> Vec<(&'static str, f64, &'static str)> {
    let caches = || sys.shells().iter().flat_map(|sh| sh.caches());
    let hits: u64 = caches().map(|c| c.stats.hits).sum();
    let misses: u64 = caches().map(|c| c.stats.misses).sum();
    let ports = sys.data_fabric().ports();
    let waits: u64 = ports.iter().map(|p| p.stats.wait.count()).sum();
    let wait_sum: f64 = ports.iter().map(|p| p.stats.wait.sum()).sum();
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    vec![
        ("shell.sched.occupancy", s.sched_occupancy, "ratio"),
        (
            "shell.cache.hit_rate",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        (
            "mem.fabric.wait_mean_cycles",
            ratio(wait_sum, waits as f64),
            "cycles",
        ),
    ]
}

pub fn fingerprint(sys: &EclipseSystem, s: &RunSummary, output: u64) -> Fingerprint {
    Fingerprint {
        sim_cycles: s.cycles,
        counts: layer_counts(sys, s),
        output,
    }
}

/// A fixed reference computation timed beside every op: eight
/// unstable sorts of the same 4096 pseudo-random `u64`s. The host's
/// speed swings by up to 2x over tens of seconds (other tenants share
/// the cores); branchy, cache-resident code like the simulator's and
/// this loop's slows down together, so an op's time divided by the
/// reference time measured around it cancels most of the swing. The
/// loop uses no code of the simulator, so a change to the simulator
/// moves the ratio in full.
pub struct RefLoop {
    template: Vec<u64>,
    buf: Vec<u64>,
}

impl RefLoop {
    const LEN: usize = 4096;
    const SORTS: usize = 8;

    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let template = (0..Self::LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        RefLoop {
            template,
            buf: vec![0; Self::LEN],
        }
    }

    /// Host seconds of one pass of the reference computation.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..Self::SORTS {
            self.buf.copy_from_slice(&self.template);
            self.buf.sort_unstable();
            std::hint::black_box(&self.buf);
        }
        start.elapsed().as_secs_f64()
    }
}

/// Median of `v` (sorts it in place).
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest-percentile sample that still has at least `beyond`
/// samples above it: `(value, percentile, samples above)`. Falls back to
/// the maximum when there are too few samples.
pub fn tail(v: &mut [f64], beyond: usize) -> (f64, f64, usize) {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let idx = n.saturating_sub(beyond + 1);
    let pct = if n > 1 {
        100.0 * idx as f64 / (n - 1) as f64
    } else {
        100.0
    };
    (v[idx], pct, n - 1 - idx)
}

/// Peak resident set size of this process so far, in MiB: the
/// kernel's `VmHWM` for this process image. (`getrusage` would also
/// count the launching process's footprint, which `execve` carries
/// over into `ru_maxrss`.)
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
