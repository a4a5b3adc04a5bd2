//! Allocation budget of the step path.
//!
//! Runs three system shapes at two sizes under a counting global
//! allocator: the `pipeline_sync` shape (two 6-stage `PipeCoproc`
//! pipelines on shared stage workers, 32-byte packets, 128-byte
//! streams) at N and 4N packets, the QCIF MPEG decode at N and 4N
//! frames, and the time-shift transcode (that decode plus a concurrent
//! encode on the same coprocessors) at N and 4N frames. Everything a run
//! allocates once (calendar slots, message buffers, staging buffers,
//! histogram buckets) is paid at both sizes, so the difference is what
//! the extra steps cost: it must stay under one allocation per 100
//! steps (DESIGN.md §9). A per-step `Vec` anywhere on the GetTask → step
//! → PutSpace → sync-delivery path, or in a coprocessor's step body,
//! shows up here as ≥ 1 per step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eclipse_bench::synthetic::PipeCoproc;
use eclipse_bench::StreamSpec;
use eclipse_coprocs::apps::{DecodeAppConfig, EncodeAppConfig};
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder};
use eclipse_core::{EclipseConfig, EclipseSystem, RunOutcome, SystemBuilder};
use eclipse_kpn::GraphBuilder;
use eclipse_media::stream::GopConfig;

/// Counts heap allocations (fresh and reallocations) made by the
/// current thread, so the test harness's own threads do not interfere.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

const PIPES: usize = 2;
const STAGES: usize = 6;
const PACKET_BYTES: u32 = 32;
const STREAM_BYTES: u32 = 128;
/// Per-stage compute cycles: one slow filter stage, the rest fast, so
/// the stages around the bottleneck keep running into denied GetSpace
/// calls and idle wake-ups as well as completed steps.
const COMPUTE: [u64; STAGES] = [11, 17, 60, 9, 14, 12];

/// Stage `i` of every pipe runs on the shared `stage{i}` worker.
fn build(packets: u32) -> EclipseSystem {
    let mut b = SystemBuilder::new(EclipseConfig::default());
    for (i, &c) in COMPUTE.iter().enumerate() {
        let kind = match i {
            0 => "source",
            i if i == STAGES - 1 => "sink",
            _ => "filter",
        };
        b.add_coprocessor(Box::new(PipeCoproc::worker(
            format!("stage{i}"),
            format!("stage{i}"),
            packets,
            PACKET_BYTES,
            c,
            kind,
        )));
    }
    for p in 0..PIPES {
        let mut g = GraphBuilder::new(format!("pipe{p}"));
        let streams: Vec<_> = (0..STAGES - 1)
            .map(|s| g.stream(format!("p{p}s{s}"), STREAM_BYTES))
            .collect();
        for i in 0..STAGES {
            let ins: Vec<_> = streams
                .get(i.wrapping_sub(1))
                .into_iter()
                .copied()
                .collect();
            let outs: Vec<_> = streams.get(i).into_iter().copied().collect();
            g.task(format!("p{p}t{i}"), format!("stage{i}"), 0, &ins, &outs);
        }
        b.map_app(&g.build().unwrap()).unwrap();
    }
    b.build()
}

/// `(steps executed, allocations made by the run)` of a built system.
fn run(mut sys: EclipseSystem) -> (u64, u64) {
    let before = allocations();
    let summary = sys.run(u64::MAX);
    let allocs = allocations() - before;
    assert_eq!(summary.outcome, RunOutcome::AllFinished);
    let steps = sys
        .shells()
        .iter()
        .flat_map(|s| s.tasks())
        .map(|t| t.stats.steps + t.stats.aborted_steps)
        .sum();
    (steps, allocs)
}

/// The runs at N and 4N, `(steps, allocations)` each: fewer than one
/// extra allocation per 100 extra steps, over at least `min_extra_steps`.
fn assert_budget(
    shape: &str,
    (steps_n, allocs_n): (u64, u64),
    (steps_4n, allocs_4n): (u64, u64),
    min_extra_steps: u64,
) {
    let extra_steps = steps_4n - steps_n;
    let extra_allocs = allocs_4n.saturating_sub(allocs_n);
    assert!(
        extra_steps >= min_extra_steps,
        "{shape}: only {extra_steps} extra steps"
    );
    assert!(
        extra_allocs * 100 < extra_steps,
        "{shape}: {extra_allocs} allocations for {extra_steps} extra steps \
         ({allocs_n} for {steps_n} steps, {allocs_4n} for {steps_4n} steps)"
    );
}

#[test]
fn step_path_allocates_less_than_once_per_100_steps() {
    const N: u32 = 2_000;
    // Every task completes one step per packet: 3N more per task.
    assert_budget(
        "pipeline",
        run(build(N)),
        run(build(4 * N)),
        3 * N as u64 * (PIPES * STAGES) as u64,
    );
}

/// Frames of the MPEG shapes at size N.
const FRAMES: u16 = 6;

/// The first `frames` frames of the QCIF stream, as an IPBB GOP.
fn qcif(frames: u16) -> StreamSpec {
    StreamSpec {
        frames,
        ..StreamSpec::qcif()
    }
}

fn decode(frames: u16) -> EclipseSystem {
    let (bits, _) = qcif(frames).encode();
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    b.add_decode("dec", bits, DecodeAppConfig::default());
    b.build().sys
}

fn transcode(frames: u16) -> EclipseSystem {
    let spec = qcif(frames);
    let (bits, _) = spec.encode();
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    b.add_decode("watch", bits, DecodeAppConfig::default());
    b.add_encode(
        "record",
        StreamSpec {
            seed: 0x5EED,
            ..spec
        }
        .source_frames(),
        GopConfig { n: 12, m: 3 },
        8,
        8,
        EncodeAppConfig::default(),
    );
    b.build().sys
}

#[test]
fn mpeg_decode_step_path_allocates_less_than_once_per_100_steps() {
    // At least one VLD step per macroblock of every extra frame.
    let extra_mbs = 3 * FRAMES as u64 * qcif(FRAMES).mbs_per_frame() as u64;
    assert_budget(
        "decode",
        run(decode(FRAMES)),
        run(decode(4 * FRAMES)),
        extra_mbs,
    );
}

#[test]
fn mpeg_transcode_step_path_allocates_less_than_once_per_100_steps() {
    // At least one VLD and one ME step per macroblock of every extra
    // frame.
    let extra_mbs = 3 * FRAMES as u64 * qcif(FRAMES).mbs_per_frame() as u64;
    assert_budget(
        "transcode",
        run(transcode(FRAMES)),
        run(transcode(4 * FRAMES)),
        2 * extra_mbs,
    );
}
