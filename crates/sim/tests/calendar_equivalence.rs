//! Differential property tests: the hybrid wheel [`Calendar`] must be
//! observationally identical to the original heap [`BaselineCalendar`] —
//! same pop order (including same-cycle key order and FIFO ties), same
//! `now`, same `len`/`peek_time` at every step, across `clear`, reuse and
//! checkpoint restore. The baseline is the executable specification of
//! the `(time, key, seq)` contract; the simulator's bit-reproducibility
//! rests on this equivalence (DESIGN.md "Host performance").

use eclipse_sim::calendar::WHEEL_SLOTS;
use eclipse_sim::{BaselineCalendar, Calendar};
use proptest::prelude::*;

/// One operation applied to both calendars in lock-step.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + delay` (delay chosen to land in the wheel, at
    /// the window edge, or in the far heap) under a key.
    Schedule(u64, u64),
    /// Schedule one event per key, all at the same `now + delay`: with
    /// key 0 throughout this is a FIFO tie; with interleaved, repeated
    /// keys the slot must order by key and keep FIFO within each key.
    Burst(u64, Vec<u64>),
    /// Pop one event.
    Pop,
    /// Drop all pending events, keep `now`.
    Clear,
    /// Replace the wheel calendar by a fresh one restored from its
    /// `pending_in_order_keyed` view (the checkpoint round trip).
    Checkpoint,
}

/// A small key set, so same-cycle events tie on keys often; the extremes
/// are included because the simulator's content keys span all of `u64`.
fn key_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(1), Just(2), Just(7), Just(u64::MAX)]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let w = WHEEL_SLOTS as u64;
    let unkeyed = |d| Op::Schedule(d, 0);
    let keyed = |(d, k)| Op::Schedule(d, k);
    let burst = |(d, keys)| Op::Burst(d, keys);
    let mixed_keys = || proptest::collection::vec(key_strategy(), 8..16);
    // The vendored proptest shim's `prop_oneof!` is uniform; repeated arms
    // weight the mix toward the simulator's dominant schedule/pop pattern.
    prop_oneof![
        // Dense short delays (the simulator's dominant pattern).
        (0u64..64).prop_map(unkeyed),
        ((0u64..64), key_strategy()).prop_map(keyed),
        ((0u64..4096), key_strategy()).prop_map(keyed),
        // Around the wheel/heap boundary.
        ((w - 2..w + 2), key_strategy()).prop_map(keyed),
        // Far future.
        (w..w * 4).prop_map(unkeyed),
        ((w..w * 4), key_strategy()).prop_map(keyed),
        // Same-cycle bursts: short FIFO ties, and 8..16 events with
        // mixed keys near and far.
        ((0u64..32), (2usize..6)).prop_map(|(d, n)| Op::Burst(d, vec![0; n])),
        ((0u64..32), mixed_keys()).prop_map(burst),
        ((w..w + 32), mixed_keys()).prop_map(burst),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Clear),
        Just(Op::Checkpoint),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wheel_and_heap_calendars_are_observationally_identical(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut wheel: Calendar<u32> = Calendar::new();
        let mut heap: BaselineCalendar<u32> = BaselineCalendar::new();
        let mut id = 0u32;
        for op in &ops {
            match op {
                Op::Schedule(delay, key) => {
                    wheel.schedule_keyed_at(wheel.now() + delay, *key, id);
                    heap.schedule_keyed_at(heap.now() + delay, *key, id);
                    id += 1;
                }
                Op::Burst(delay, keys) => {
                    for &key in keys {
                        wheel.schedule_keyed_at(wheel.now() + delay, key, id);
                        heap.schedule_keyed_at(heap.now() + delay, key, id);
                        id += 1;
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.pop_keyed(), heap.pop_keyed());
                    prop_assert_eq!(wheel.now(), heap.now());
                }
                Op::Clear => {
                    wheel.clear();
                    heap.clear();
                }
                Op::Checkpoint => {
                    let mut restored = Calendar::new();
                    restored.restore(wheel.now(), wheel.pending_in_order_keyed());
                    wheel = restored;
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        // Drain both completely: the tails must match event for event and
        // equal the checkpoint view taken before the drain, and reuse
        // after the drain must still agree.
        let pending = wheel.pending_in_order_keyed();
        let mut tail = Vec::new();
        loop {
            let (a, b) = (wheel.pop_keyed(), heap.pop_keyed());
            prop_assert_eq!(a, b);
            match a {
                Some(ev) => tail.push(ev),
                None => break,
            }
        }
        prop_assert_eq!(pending, tail);
        wheel.schedule(7, id);
        heap.schedule(7, id);
        prop_assert_eq!(wheel.pop(), heap.pop());
    }

    /// Absolute-time scheduling at far-apart timestamps: marches the
    /// window across many wrap-arounds.
    #[test]
    fn absolute_schedules_across_windows_match(
        strides in proptest::collection::vec(1u64..WHEEL_SLOTS as u64 * 2, 1..64),
    ) {
        let mut wheel: Calendar<u32> = Calendar::new();
        let mut heap: BaselineCalendar<u32> = BaselineCalendar::new();
        let mut t = 0u64;
        for (i, &stride) in strides.iter().enumerate() {
            t += stride;
            wheel.schedule_at(t, i as u32);
            heap.schedule_at(t, i as u32);
            // Interleave pops so `now` advances and the wheel window slides.
            if i % 2 == 1 {
                prop_assert_eq!(wheel.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
