//! Allocation budget of the step path.
//!
//! Runs the `pipeline_sync`-shaped system (two 6-stage `PipeCoproc`
//! pipelines on shared stage workers, 32-byte packets, 128-byte streams)
//! at N and 4N packets under a counting global allocator. Everything a
//! run allocates once (calendar slots, message buffers, histogram
//! buckets) is paid at both sizes, so the difference is what the extra
//! steps cost: it must stay under one allocation per 100 steps
//! (DESIGN.md §9). A per-step `Vec` anywhere on the GetTask → step →
//! PutSpace → sync-delivery path shows up here as ≥ 1 per step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use eclipse_bench::synthetic::PipeCoproc;
use eclipse_core::{EclipseConfig, EclipseSystem, RunOutcome, SystemBuilder};
use eclipse_kpn::GraphBuilder;

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

/// `(steps executed, allocations made by the run)`.
fn run(packets: u32) -> (u64, u64) {
    let mut sys = build(packets);
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

#[test]
fn step_path_allocates_less_than_once_per_100_steps() {
    const N: u32 = 2_000;
    let (steps_n, allocs_n) = run(N);
    let (steps_4n, allocs_4n) = run(4 * N);
    let extra_steps = steps_4n - steps_n;
    let extra_allocs = allocs_4n.saturating_sub(allocs_n);
    // Every task completes one step per packet: 3N more per task.
    assert!(extra_steps >= 3 * N as u64 * (PIPES * STAGES) as u64);
    assert!(
        extra_allocs * 100 < extra_steps,
        "{extra_allocs} allocations for {extra_steps} extra steps \
         ({allocs_n} at {N} packets, {allocs_4n} at {} packets)",
        4 * N
    );
}
