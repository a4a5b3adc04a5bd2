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

use eclipse_bench::synthetic::{pipeline_sync_system, SYNC_PIPES, SYNC_STAGES};
use eclipse_bench::{timeshift_transcode, StreamSpec};
use eclipse_coprocs::instance::build_decode_system;
use eclipse_core::{EclipseConfig, EclipseSystem, RunOutcome};

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
        run(pipeline_sync_system(N)),
        run(pipeline_sync_system(4 * N)),
        3 * N as u64 * (SYNC_PIPES * SYNC_STAGES) as u64,
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
    build_decode_system(EclipseConfig::default(), qcif(frames).encode().0)
        .system
        .sys
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
        run(timeshift_transcode(FRAMES).sys),
        run(timeshift_transcode(4 * FRAMES).sys),
        2 * extra_mbs,
    );
}
