//! Snapshot smoke: prove a decode forked from a mid-run checkpoint is
//! indistinguishable from the uninterrupted run.
//!
//! Three passes over one workload:
//!
//! 1. **Uninterrupted** — run to completion, sampling the rolling state
//!    hash on a fixed cycle grid.
//! 2. **Save** — a second, independent build advanced to the midpoint
//!    and checkpointed (twice, from two separate builds, which must
//!    produce byte-identical checkpoints).
//! 3. **Fork** — a third build restored from the checkpoint and run to
//!    completion on the same grid.
//!
//! The forked run's hash sequence, run summary, and display frames must
//! match the uninterrupted run exactly. The deterministic evidence is
//! written to `results/` so CI can run the binary twice and diff the two
//! reports — byte-identical output across independent processes.
//! The full run also records the final state hash of the private-port
//! open-gate system that `timing_fingerprint` times. Fork-from-checkpoint
//! wall-clock vs re-simulating the prefix is printed to stdout only (it
//! is host-dependent).
//!
//! Usage: `cargo run -p eclipse-bench --release --bin snapshot_smoke [--quick]`

use std::fmt::Write as _;
use std::time::Instant;

use eclipse_bench::synthetic::open_gate_system;
use eclipse_bench::{save_result, StreamSpec};
use eclipse_coprocs::instance::{build_decode_system, DecodeSystem};
use eclipse_core::{EclipseConfig, RunOutcome};
use eclipse_sim::snapshot::fnv1a_64;

/// Run to completion, sampling `state_hash` every `stride` cycles.
fn finish_sampling(dec: &mut DecodeSystem, stride: u64) -> (Vec<(u64, u64)>, String) {
    let mut samples = Vec::new();
    // Snap to the global grid so runs started at different cycles (the
    // reference from 0, the fork from the checkpoint) sample at the
    // same absolute times.
    let mut stop = dec.system.sys.now() / stride * stride;
    loop {
        stop += stride;
        match dec.system.sys.run_until(stop) {
            None => samples.push((stop, dec.system.sys.state_hash())),
            Some(outcome) => {
                assert_eq!(outcome, RunOutcome::AllFinished, "decode must finish");
                break;
            }
        }
    }
    let frames = dec.system.display_frames("dec0").expect("display frames");
    let mut digest = format!(
        "final hash {:#018x}, frames {}\n",
        dec.system.sys.state_hash(),
        frames.len()
    );
    for (i, f) in frames.iter().enumerate() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&f.y.data);
        bytes.extend_from_slice(&f.u.data);
        bytes.extend_from_slice(&f.v.data);
        writeln!(digest, "frame {i} {:#018x}", fnv1a_64(&bytes)).unwrap();
    }
    (samples, digest)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (label, spec) = if quick {
        ("tiny", StreamSpec::tiny())
    } else {
        ("qcif_decode_15f", StreamSpec::qcif())
    };
    let (bitstream, _) = spec.encode();
    let build = || build_decode_system(EclipseConfig::default(), bitstream.clone());

    // Measuring pass: learn the total cycle count so the sampling grid
    // and the checkpoint cycle land mid-run regardless of workload.
    let total = {
        let mut dec = build();
        let s = dec.system.run(20_000_000_000);
        assert_eq!(s.outcome, RunOutcome::AllFinished, "workload must finish");
        s.cycles
    };
    let stride = (total / 16).max(1);
    let mid = total / 2 / stride * stride;
    assert!(mid > 0 && mid < total);

    // Pass 1: the uninterrupted reference run.
    let mut reference = build();
    let (ref_samples, ref_digest) = finish_sampling(&mut reference, stride);
    assert_eq!(reference.system.sys.now(), total, "nondeterministic rerun");

    // Pass 2: checkpoint at the midpoint — twice, from independent
    // builds, which must serialize byte-identically.
    let mut saver = build();
    assert_eq!(saver.system.sys.run_until(mid), None, "must save mid-run");
    let ckpt = saver.system.sys.save();
    let mut saver2 = build();
    assert_eq!(saver2.system.sys.run_until(mid), None);
    assert_eq!(
        ckpt,
        saver2.system.sys.save(),
        "two independent builds produced different checkpoint bytes"
    );
    let hash_at_save = saver.system.sys.state_hash();

    // Pass 3: fork from the checkpoint and finish.
    let mut fork = build();
    fork.system.sys.restore(&ckpt).expect("restore checkpoint");
    assert_eq!(
        fork.system.sys.state_hash(),
        hash_at_save,
        "restored state hash differs from the saved system's"
    );
    let (fork_samples, fork_digest) = finish_sampling(&mut fork, stride);

    // The forked run must retrace the reference run exactly from `mid`.
    let ref_tail: Vec<_> = ref_samples.iter().filter(|&&(c, _)| c > mid).collect();
    let fork_tail: Vec<_> = fork_samples.iter().filter(|&&(c, _)| c > mid).collect();
    assert_eq!(ref_tail, fork_tail, "state-hash sequences diverged");
    assert_eq!(ref_digest, fork_digest, "summary/frame digests diverged");

    // Host-dependent timing (stdout only): forking vs re-simulating the
    // prefix. This is what checkpoint-forked sweeps buy per design point.
    let t0 = Instant::now();
    let mut scratch = build();
    assert_eq!(scratch.system.sys.run_until(mid), None);
    let scratch_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let mut forked = build();
    forked.system.sys.restore(&ckpt).expect("restore");
    let fork_ms = t1.elapsed().as_secs_f64() * 1e3;
    println!(
        "fork_from_checkpoint: restore {fork_ms:.2} ms vs re-simulate-prefix \
         {scratch_ms:.2} ms ({:.1}x)",
        scratch_ms / fork_ms.max(1e-9)
    );

    let mut report = String::new();
    writeln!(report, "snapshot smoke: {label}").unwrap();
    writeln!(
        report,
        "total {total} cycles, checkpoint at {mid}, {} bytes, fnv {:#018x}",
        ckpt.len(),
        fnv1a_64(&ckpt)
    )
    .unwrap();
    writeln!(report, "state hash at save {hash_at_save:#018x}").unwrap();
    for &(c, h) in &ref_samples {
        let arm = if c > mid { "both" } else { "ref " };
        writeln!(report, "{arm} {c:>12} {h:#018x}").unwrap();
    }
    report.push_str(&ref_digest);
    report.push_str("fork retraces reference: yes\n");
    if !quick {
        // The final state hash of `timing_fingerprint`'s open-gate point
        // pins the private-port fabric's checkpointed state.
        let mut gate = open_gate_system(2_000, 60);
        let s = gate.run(1_000_000_000);
        assert_eq!(s.outcome, RunOutcome::AllFinished, "open-gate run");
        writeln!(
            report,
            "open_gate/private-port-2apps state hash {:#018x}",
            gate.state_hash()
        )
        .unwrap();
    }
    print!("{report}");
    save_result(
        if quick {
            "snapshot_smoke_quick.txt"
        } else {
            "snapshot_smoke.txt"
        },
        &report,
    );
}
