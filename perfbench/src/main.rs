//! Host-performance benchmark of the Eclipse simulator.
//!
//! Runs one workload (or all four) in this process on one simulation
//! thread, for a fixed wall-clock budget of ops, checks every op's output
//! and prints every end-to-end and per-layer metric by name with its
//! unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, holding the
//! end-to-end metrics with `--trace 0` and the per-layer metrics with
//! `--trace 1`.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <decode_qcif|transcode_qcif|pipeline_sync|fork_checkpoint|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and which
//! layer moves which end-to-end number.

mod metrics;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Fingerprint, RefLoop, TRACE_KINDS};
use workloads::{Op, Workload, NAMES};

/// Seed used when `--seed` is not given; it makes `decode_qcif` the
/// exact `StreamSpec::qcif()` stream of the repository's experiments.
const DEFAULT_SEED: u64 = 0xEC11;
/// Seed kept out of every tuning run; the self-test requires it to
/// change simulated cycles or counts.
const HELD_OUT_SEED: u64 = 0x5EED;
/// Ops measured at least, whatever `--seconds` says, so the tail
/// percentile always has `TAIL_BEYOND` samples beyond it.
const MIN_OPS: usize = 21;
const TAIL_BEYOND: usize = 10;
/// Traced runs per workload (their median gives `sim.trace.overhead`).
const TRACED_RUNS: usize = 3;
/// Trace ring capacity: far above any workload's event count, so the
/// ring never drops (checked per run). The ring grows on demand.
const TRACE_CAPACITY: usize = 1 << 30;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !args.self_test && args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            NAMES.join(", ")
        ));
    }
    Ok(args)
}

#[derive(Clone, Copy)]
enum Value {
    F(f64),
    I(u64),
}

struct Metric {
    name: String,
    value: Value,
    unit: &'static str,
}

fn m(name: impl Into<String>, value: Value, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

struct Report {
    workload: &'static str,
    attempted: usize,
    failed: usize,
    error: Option<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn failed(workload: &'static str, attempted: usize, error: String) -> Report {
        Report {
            workload,
            attempted,
            failed: attempted,
            error: Some(error),
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn correct(&self) -> bool {
        self.error.is_none() && self.failed == 0
    }
}

/// Host-time samples of the successful ops of a run.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    op: Vec<f64>,
    op_ref: Vec<f64>,
    ref_s: Vec<f64>,
    run: Vec<f64>,
    restore: Vec<f64>,
    save: Vec<f64>,
    state_hash: Vec<f64>,
}

impl Samples {
    fn push(&mut self, s: &Sample) {
        self.setup.push(s.setup_s);
        self.op.push(s.op.op_s);
        self.op_ref.push(s.op.op_s / s.ref_s);
        self.ref_s.push(s.ref_s);
        self.run.push(s.op.run_s);
        self.restore.push(s.op.restore_s);
        self.save.push(s.op.save_s);
        self.state_hash.push(s.op.state_hash_s);
    }
}

/// One checked op and what was measured around it.
struct Sample {
    setup_s: f64,
    /// Mean of the reference loop timed just before and just after the op.
    ref_s: f64,
    op: Op,
    fp: Fingerprint,
    sys: workloads::Sys,
}

/// One op on a fresh build, checked; `reference` is the fingerprint it
/// must reproduce, when known.
fn checked_op(
    w: &Workload,
    reference: Option<&Fingerprint>,
    ref_loop: &mut RefLoop,
) -> Result<Sample, String> {
    let t = Instant::now();
    let mut sys = w.build();
    let setup_s = t.elapsed().as_secs_f64();
    let before = ref_loop.time();
    let op = w.op(&mut sys)?;
    let ref_s = (before + ref_loop.time()) / 2.0;
    let fp = w.check(&sys, &op)?;
    if let Some(r) = reference {
        if let Some(diff) = fingerprint_diff(r, &fp) {
            return Err(format!("op not deterministic: {diff}"));
        }
    }
    Ok(Sample {
        setup_s,
        ref_s,
        op,
        fp,
        sys,
    })
}

fn fingerprint_diff(a: &Fingerprint, b: &Fingerprint) -> Option<String> {
    if a.sim_cycles != b.sim_cycles {
        return Some(format!("sim_cycles {} vs {}", a.sim_cycles, b.sim_cycles));
    }
    if a.output != b.output {
        return Some("output digest differs".into());
    }
    a.counts
        .iter()
        .zip(&b.counts)
        .find(|(x, y)| x != y)
        .map(|((k, x), (_, y))| format!("{k} {x} vs {y}"))
}

struct Traced {
    run_s: f64,
    emitted: u64,
    kinds: Vec<(&'static str, u64)>,
}

/// Separate traced runs: the ring must drop nothing, and the traced run
/// must reproduce the untraced run's simulated cycles, state hash and
/// every exact count.
fn traced_runs(w: &Workload, reference: &Fingerprint, ref_hash: u64) -> Result<Traced, String> {
    let mut run_s = Vec::new();
    let mut last = None;
    for _ in 0..TRACED_RUNS {
        let mut sys = w.build();
        let sink = sys.core_mut().enable_tracing(TRACE_CAPACITY);
        let op = w.op(&mut sys)?;
        let fp = w.check(&sys, &op)?;
        let hash = op.state_hash.unwrap_or_else(|| sys.core().state_hash());
        if fp.sim_cycles != reference.sim_cycles || hash != ref_hash {
            return Err(format!(
                "tracing perturbed the run: {} cycles / hash {hash:#x} vs untraced {} / {ref_hash:#x}",
                fp.sim_cycles, reference.sim_cycles
            ));
        }
        if let Some(diff) = fingerprint_diff(reference, &fp) {
            return Err(format!("tracing perturbed a count: {diff}"));
        }
        let sink = sink.borrow();
        if sink.dropped() != 0 {
            return Err(format!("trace ring dropped {} events", sink.dropped()));
        }
        run_s.push(op.run_s);
        last = Some((sink.emitted(), sink.counts_by_kind()));
    }
    let (emitted, kinds) = last.expect("at least one traced run");
    Ok(Traced {
        run_s: metrics::median(&mut run_s),
        emitted,
        kinds,
    })
}

fn run_workload(w: &Workload, seconds: f64) -> Report {
    let mut ref_loop = RefLoop::new();
    // Reference op: warms caches and lazy set-up, and fixes the
    // fingerprint every later op must reproduce. Untimed.
    let Sample {
        op: ref_op,
        fp: reference,
        sys,
        ..
    } = match checked_op(w, None, &mut ref_loop) {
        Ok(x) => x,
        Err(e) => return Report::failed(w.name, 1, e),
    };
    let ref_hash = ref_op.state_hash.unwrap_or_else(|| sys.core().state_hash());
    let ratios = metrics::layer_ratios(sys.core(), &ref_op.summary);
    drop(sys);

    let mut samples = Samples::default();
    let (mut attempted, mut failed, mut error) = (0, 0, None);
    let start = Instant::now();
    while attempted < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        attempted += 1;
        match checked_op(w, Some(&reference), &mut ref_loop) {
            Ok(sample) => samples.push(&sample),
            Err(e) => {
                failed += 1;
                error.get_or_insert(e);
            }
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    if samples.op.is_empty() {
        return Report::failed(w.name, attempted, error.unwrap_or_default());
    }
    let peak_rss_mb = match metrics::peak_rss_mb() {
        Ok(mb) => mb,
        Err(e) => return Report::failed(w.name, attempted, e),
    };
    let traced = match traced_runs(w, &reference, ref_hash) {
        Ok(t) => t,
        Err(e) => return Report::failed(w.name, attempted, e),
    };
    let kernels = w.kernels();

    let n = samples.op.len();
    let op_s = metrics::median(&mut samples.op);
    let (tail_s, _, _) = metrics::tail(&mut samples.op, TAIL_BEYOND);
    let op_ref = metrics::median(&mut samples.op_ref);
    let (tail_ref, tail_pct, beyond) = metrics::tail(&mut samples.op_ref, TAIL_BEYOND);
    let cycles = ref_op.cycles_advanced as f64;
    let run_s = metrics::median(&mut samples.run);
    let restore_s = metrics::median(&mut samples.restore);
    let save_s = metrics::median(&mut samples.save);
    let state_hash_s = metrics::median(&mut samples.state_hash);
    let kernel_s = kernels.decode_s + kernels.encode_s;

    use Value::{F, I};
    let end_to_end = vec![
        m("op_ref", F(op_ref), "ref"),
        m("op_ref_tail", F(tail_ref), "ref"),
        m("sim_cycles_per_ref", F(cycles / op_ref), "cycles/ref"),
        m("setup_s", F(metrics::median(&mut samples.setup)), "s"),
        m("sim_cycles", I(reference.sim_cycles), "cycles"),
        m("peak_rss_mb", F(peak_rss_mb), "MiB"),
    ];
    let mut per_layer = vec![
        m("host.op_s", F(op_s), "s"),
        m("host.op_s_tail", F(tail_s), "s"),
        m("host.sim_cycles_per_s", F(cycles / op_s), "cycles/s"),
        m("host.ref_s", F(metrics::median(&mut samples.ref_s)), "s"),
        m("core.run_s", F(run_s), "s"),
        m("core.sim_overhead_s", F(run_s - kernel_s), "s"),
        m("core.snapshot.restore_s", F(restore_s), "s"),
        m("core.snapshot.save_s", F(save_s), "s"),
        m("core.snapshot.state_hash_s", F(state_hash_s), "s"),
        m("core.snapshot.bytes", I(ref_op.snapshot_bytes), "bytes"),
        m("media.decode_s", F(kernels.decode_s), "s"),
        m("media.encode_s", F(kernels.encode_s), "s"),
        m("sim.events", I(traced.emitted), "count"),
        m(
            "sim.host_ns_per_event",
            F(run_s * 1e9 / traced.emitted as f64),
            "ns",
        ),
        m("sim.trace.overhead", F(traced.run_s / run_s), "ratio"),
    ];
    for (name, v, unit) in ratios {
        per_layer.push(m(name, F(v), unit));
    }
    for (name, v) in &reference.counts {
        let unit = if name.ends_with("_cycles") {
            "cycles"
        } else if name.contains("bytes") {
            "bytes"
        } else {
            "count"
        };
        per_layer.push(m(name.clone(), I(*v), unit));
    }
    for kind in TRACE_KINDS {
        let count = traced
            .kinds
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |&(_, c)| c);
        per_layer.push(m(format!("trace.{kind}"), I(count), "count"));
    }

    let notes = vec![
        format!("inputs: {}", w.describe()),
        format!(
            "{attempted} ops in {measured_s:.2} s, {failed} failed (fail_ratio {})",
            failed as f64 / attempted as f64
        ),
        format!("op_ref_tail and op_s_tail are p{tail_pct:.1} of {n} samples ({beyond} beyond it)"),
        format!(
            "share of op_s: media kernels {:.1}%, snapshot calls {:.1}%, simulator (calendar+shell+mem) {:.1}%",
            100.0 * kernel_s / op_s,
            100.0 * (restore_s + save_s + state_hash_s) / op_s,
            100.0 * (run_s - kernel_s) / op_s
        ),
    ];
    Report {
        workload: w.name,
        attempted,
        failed,
        error,
        end_to_end,
        per_layer,
        notes,
    }
}

fn fmt_value(v: Value) -> String {
    match v {
        Value::F(x) => {
            assert!(x.is_finite(), "non-finite metric value {x}");
            format!("{x}")
        }
        Value::I(x) => format!("{x}"),
    }
}

fn print_report(r: &Report) {
    println!("== {} ==", r.workload);
    for note in &r.notes {
        println!("  {note}");
    }
    if let Some(e) = &r.error {
        println!("  CHECK FAILED: {e}");
    }
    for (title, list) in [("end-to-end", &r.end_to_end), ("per-layer", &r.per_layer)] {
        if list.is_empty() {
            continue;
        }
        println!("  {title}:");
        for x in list.iter() {
            println!("    {:<34} {:>22} {}", x.name, fmt_value(x.value), x.unit);
        }
    }
}

/// The result line: end-to-end metrics (`--trace 0`) or per-layer
/// metrics (`--trace 1`); with several workloads, names are prefixed by
/// the workload.
fn result_json(reports: &[Report], trace: bool) -> String {
    let prefix = reports.len() > 1;
    let mut metrics = String::new();
    for r in reports {
        let list = if trace { &r.per_layer } else { &r.end_to_end };
        for x in list {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let name = if prefix {
                format!("{}.{}", r.workload, x.name)
            } else {
                x.name.clone()
            };
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                fmt_value(x.value),
                x.unit
            );
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        reports.iter().all(Report::correct),
        reports.iter().map(|r| r.attempted).sum::<usize>(),
        reports.iter().map(|r| r.failed).sum::<usize>(),
    )
}

/// Same seed twice must give byte-identical simulated cycles, counts
/// and outputs; the held-out seed must change them.
fn self_test() -> bool {
    let mut ok = true;
    for name in NAMES {
        let run = |seed| {
            let w = Workload::generate(name, seed).expect("known workload");
            checked_op(&w, None, &mut RefLoop::new()).map(|s| s.fp)
        };
        let verdict = match (run(DEFAULT_SEED), run(DEFAULT_SEED), run(HELD_OUT_SEED)) {
            (Ok(a), Ok(b), Ok(c)) => match fingerprint_diff(&a, &b) {
                Some(diff) => Err(format!("same seed differs: {diff}")),
                None if a == c => Err("held-out seed left cycles and counts unchanged".into()),
                None => {
                    let moved = a.counts.iter().zip(&c.counts).filter(|(x, y)| x != y);
                    Ok(format!(
                        "same seed identical ({} cycles, {} counts); held-out seed: {} cycles, {} counts moved",
                        a.sim_cycles,
                        a.counts.len(),
                        c.sim_cycles,
                        moved.count()
                    ))
                }
            },
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Err(e),
        };
        match verdict {
            Ok(msg) => println!("self-test {name:<16} ok: {msg}"),
            Err(msg) => {
                ok = false;
                println!("self-test {name:<16} FAILED: {msg}");
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return if self_test() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut reports = Vec::new();
    for name in names {
        let t = Instant::now();
        let w = Workload::generate(name, args.seed).expect("validated workload name");
        println!(
            "{name}: seed {} inputs generated in {:.2} s (untimed)",
            args.seed,
            t.elapsed().as_secs_f64()
        );
        let r = run_workload(&w, args.seconds);
        print_report(&r);
        reports.push(r);
    }
    println!("{}", result_json(&reports, args.trace));
    if reports.iter().all(Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
