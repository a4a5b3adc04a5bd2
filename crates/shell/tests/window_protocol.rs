//! Property tests of the shell's windowed synchronization protocol:
//! random producer/consumer operation sequences against a reference FIFO
//! model must never lose, duplicate, or corrupt a byte, and the space
//! accounting must match the model exactly; and a record run read in one
//! call must charge exactly what one read per record charges.

use eclipse_mem::{BusConfig, CyclicBuffer, SramConfig};
use eclipse_shell::stream_table::{AccessPoint, PortDir, RowIdx, StreamRowConfig};
use eclipse_shell::task_table::TaskConfig;
use eclipse_shell::{CacheConfig, MemSys, Shell, ShellConfig, ShellId, SyncMsg, TaskIdx};
use eclipse_sim::snapshot::{SnapWriter, Snapshot};
use proptest::prelude::*;

const T0: TaskIdx = TaskIdx(0);

#[derive(Debug, Clone)]
enum Op {
    /// Producer tries to write-and-commit `n` bytes.
    Produce(u8),
    /// Consumer tries to read-and-commit `n` bytes.
    Consume(u8),
    /// Deliver all pending sync messages.
    Deliver,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (1u8..=96).prop_map(Op::Produce),
            (1u8..=96).prop_map(Op::Consume),
            Just(Op::Deliver),
        ],
        1..200,
    )
}

fn arb_cache() -> impl Strategy<Value = CacheConfig> {
    prop_oneof![
        Just(CacheConfig::with_lines(0, false)),
        Just(CacheConfig {
            lines: 2,
            line_bytes: 32,
            prefetch: false,
            prefetch_depth: 0
        }),
        Just(CacheConfig::with_lines(8, true)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stream transport through shells+caches+SRAM is byte-exact under
    /// arbitrary interleavings, buffer sizes, and cache configurations.
    #[test]
    fn random_op_sequences_never_corrupt_data(
        ops in arb_ops(),
        buffer_size in 96u32..512,
        cache in arb_cache(),
    ) {
        let cfg = ShellConfig { cache, ..ShellConfig::default() };
        let buf = CyclicBuffer::new(0, buffer_size);
        let mut producer = Shell::new(ShellId(0), cfg);
        let mut consumer = Shell::new(ShellId(1), cfg);
        let prow = producer.add_stream_row(StreamRowConfig {
            buffer: buf,
            dir: PortDir::Producer,
            remotes: vec![AccessPoint { shell: ShellId(1), row: RowIdx(0) }],
        });
        let crow = consumer.add_stream_row(StreamRowConfig {
            buffer: buf,
            dir: PortDir::Consumer,
            remotes: vec![AccessPoint { shell: ShellId(0), row: RowIdx(0) }],
        });
        producer.add_task(TaskConfig { name: "p".into(), budget: 1000, task_info: 0, ports: vec![prow], space_hints: vec![0] });
        consumer.add_task(TaskConfig { name: "c".into(), budget: 1000, task_info: 0, ports: vec![crow], space_hints: vec![0] });
        // SRAM sized to a whole number of cache lines (line fetches are
        // line-aligned, as in the real instance's power-of-two SRAM).
        let mut mem = MemSys::shared_bus(
            SramConfig { size: (buffer_size + 63) & !63, word_bytes: 16, latency: 2 },
            BusConfig::default(),
            BusConfig::default(),
        );

        // Reference model.
        let mut produced_total: u64 = 0;
        let mut consumed_total: u64 = 0;
        let mut in_flight_to_consumer: u32 = 0; // committed, message pending
        let mut in_flight_to_producer: u32 = 0;
        let mut consumer_visible: u32 = 0;
        let mut producer_room: u32 = buffer_size;
        let mut pending: Vec<SyncMsg> = Vec::new();
        let mut now: u64 = 0;

        let byte_at = |i: u64| -> u8 { (i % 251) as u8 ^ 0x3C };

        for op in ops {
            now += 50;
            match op {
                Op::Produce(n) => {
                    let n = n as u32;
                    let model_ok = producer_room >= n && n <= buffer_size;
                    let ok = producer.get_space(T0, 0, n, now);
                    prop_assert_eq!(ok, model_ok, "producer GetSpace({}) room {}", n, producer_room);
                    if ok {
                        let data: Vec<u8> = (0..n as u64).map(|i| byte_at(produced_total + i)).collect();
                        now = producer.write(T0, 0, 0, &data, now, &mut mem).max(now);
                        producer.put_space(T0, 0, n, now, &mut mem, &mut pending);
                        produced_total += n as u64;
                        producer_room -= n;
                        in_flight_to_consumer += n;
                    } else {
                        // Clear the blocked mark so the next op can retry.
                        producer.deliver_putspace(
                            &SyncMsg {
                                src: AccessPoint { shell: ShellId(1), row: RowIdx(0) },
                                dst: AccessPoint { shell: ShellId(0), row: RowIdx(0) },
                                bytes: 0,
                                send_at: now,
                                dst_gen: 0,
                            },
                            now,
                        );
                    }
                }
                Op::Consume(n) => {
                    let n = n as u32;
                    let model_ok = consumer_visible >= n;
                    let ok = consumer.get_space(T0, 0, n, now);
                    prop_assert_eq!(ok, model_ok, "consumer GetSpace({}) visible {}", n, consumer_visible);
                    if ok {
                        let mut data = vec![0u8; n as usize];
                        now = consumer.read(T0, 0, 0, &mut data, now, &mut mem).max(now);
                        for (i, &b) in data.iter().enumerate() {
                            prop_assert_eq!(b, byte_at(consumed_total + i as u64), "byte {} of stream", consumed_total + i as u64);
                        }
                        consumer.put_space(T0, 0, n, now, &mut mem, &mut pending);
                        consumed_total += n as u64;
                        consumer_visible -= n;
                        in_flight_to_producer += n;
                    } else {
                        consumer.deliver_putspace(
                            &SyncMsg {
                                src: AccessPoint { shell: ShellId(0), row: RowIdx(0) },
                                dst: AccessPoint { shell: ShellId(1), row: RowIdx(0) },
                                bytes: 0,
                                send_at: now,
                                dst_gen: 0,
                            },
                            now,
                        );
                    }
                }
                Op::Deliver => {
                    now += 100;
                    for msg in pending.drain(..) {
                        if msg.dst.shell == ShellId(1) {
                            consumer.deliver_putspace(&msg, now);
                            consumer_visible += msg.bytes;
                            in_flight_to_consumer -= msg.bytes;
                        } else {
                            producer.deliver_putspace(&msg, now);
                            producer_room += msg.bytes;
                            in_flight_to_producer -= msg.bytes;
                        }
                    }
                }
            }
            // Conservation: every byte of capacity is room, visible data,
            // or in flight.
            prop_assert_eq!(
                producer_room + consumer_visible + in_flight_to_consumer + in_flight_to_producer,
                buffer_size,
                "capacity conservation"
            );
            // Shell-visible space matches the model exactly.
            prop_assert_eq!(producer.space(RowIdx(0)), producer_room);
            prop_assert_eq!(consumer.space(RowIdx(0)), consumer_visible);
        }
        // Total stream order: consumed prefix of produced sequence.
        prop_assert!(consumed_total <= produced_total);
    }

    /// Credit conservation under *reordered and delayed* putspace
    /// delivery: sync messages sit in a pending pool and are delivered
    /// one at a time in an arbitrary (generator-chosen) order, modelling
    /// a congested message network. At every step the buffer's capacity
    /// must be exactly partitioned into producer room, consumer-visible
    /// data, and in-flight credits — no byte is ever lost or duplicated,
    /// regardless of delivery order.
    #[test]
    fn credit_conservation_under_reordered_delivery(
        ops in proptest::collection::vec(
            prop_oneof![
                (1u8..=96).prop_map(ReorderOp::Produce),
                (1u8..=96).prop_map(ReorderOp::Consume),
                any::<u16>().prop_map(ReorderOp::DeliverOne),
            ],
            1..250,
        ),
        buffer_size in 96u32..512,
    ) {
        let cfg = ShellConfig::default();
        let buf = CyclicBuffer::new(0, buffer_size);
        let mut producer = Shell::new(ShellId(0), cfg);
        let mut consumer = Shell::new(ShellId(1), cfg);
        let prow = producer.add_stream_row(StreamRowConfig {
            buffer: buf,
            dir: PortDir::Producer,
            remotes: vec![AccessPoint { shell: ShellId(1), row: RowIdx(0) }],
        });
        let crow = consumer.add_stream_row(StreamRowConfig {
            buffer: buf,
            dir: PortDir::Consumer,
            remotes: vec![AccessPoint { shell: ShellId(0), row: RowIdx(0) }],
        });
        producer.add_task(TaskConfig { name: "p".into(), budget: 1000, task_info: 0, ports: vec![prow], space_hints: vec![0] });
        consumer.add_task(TaskConfig { name: "c".into(), budget: 1000, task_info: 0, ports: vec![crow], space_hints: vec![0] });
        let mut mem = MemSys::shared_bus(
            SramConfig { size: (buffer_size + 63) & !63, word_bytes: 16, latency: 2 },
            BusConfig::default(),
            BusConfig::default(),
        );

        let mut pending: Vec<SyncMsg> = Vec::new();
        let mut now: u64 = 0;
        let conserve = |producer: &Shell, consumer: &Shell, pending: &[SyncMsg]| -> u64 {
            let in_flight: u64 = pending.iter().map(|m| m.bytes as u64).sum();
            producer.space(RowIdx(0)) as u64 + consumer.space(RowIdx(0)) as u64 + in_flight
        };

        for op in ops {
            now += 50;
            match op {
                ReorderOp::Produce(n) => {
                    let n = n as u32;
                    if producer.get_space(T0, 0, n, now) {
                        let data = vec![0xA5u8; n as usize];
                        now = producer.write(T0, 0, 0, &data, now, &mut mem).max(now);
                        producer.put_space(T0, 0, n, now, &mut mem, &mut pending);
                    }
                }
                ReorderOp::Consume(n) => {
                    let n = n as u32;
                    if consumer.get_space(T0, 0, n, now) {
                        let mut data = vec![0u8; n as usize];
                        now = consumer.read(T0, 0, 0, &mut data, now, &mut mem).max(now);
                        consumer.put_space(T0, 0, n, now, &mut mem, &mut pending);
                    }
                }
                ReorderOp::DeliverOne(sel) => {
                    if !pending.is_empty() {
                        // Arbitrary (not FIFO) pick: out-of-order delivery.
                        let msg = pending.swap_remove(sel as usize % pending.len());
                        now += 100;
                        if msg.dst.shell == ShellId(1) {
                            consumer.deliver_putspace(&msg, now);
                        } else {
                            producer.deliver_putspace(&msg, now);
                        }
                    }
                }
            }
            prop_assert_eq!(
                conserve(&producer, &consumer, &pending),
                buffer_size as u64,
                "credit conservation violated with {} messages in flight",
                pending.len()
            );
        }
        // Drain every remaining credit: space views must close the books.
        while let Some(msg) = pending.pop() {
            now += 100;
            if msg.dst.shell == ShellId(1) {
                consumer.deliver_putspace(&msg, now);
            } else {
                producer.deliver_putspace(&msg, now);
            }
        }
        prop_assert_eq!(
            producer.space(RowIdx(0)) as u64 + consumer.space(RowIdx(0)) as u64,
            buffer_size as u64
        );
    }
}

#[derive(Debug, Clone)]
enum ReorderOp {
    /// Producer tries to write-and-commit `n` bytes.
    Produce(u8),
    /// Consumer tries to read-and-commit `n` bytes.
    Consume(u8),
    /// Deliver one pending sync message, chosen arbitrarily.
    DeliverOne(u16),
}

/// One operation on the consumer row before a record run is compared.
#[derive(Debug, Clone)]
enum WarmOp {
    /// A putspace message from the producer makes up to `n` more bytes
    /// visible.
    Deliver(u16),
    /// GetSpace for up to `n` bytes, then its prefetch (as `StepCtx`
    /// does): invalidates newly granted lines, fetches ahead.
    Get(u16),
    /// GetSpace alone: newly granted lines are invalidated and left
    /// unfetched, ahead of lines that are warm.
    GetOnly(u16),
    /// Read `len` bytes at `off` inside the window (both reduced to fit):
    /// warms lines and issues read-triggered prefetches.
    Read(u16, u16),
    /// Read the whole window in one call: warms every line of it.
    ReadAll,
    /// Write `len` bytes at `off` inside the window: dirty lines.
    Write(u16, u16),
    /// PutSpace of up to `n` bytes: moves the access point, so later
    /// windows wrap around the buffer end.
    Put(u16),
    /// Let `n` cycles pass.
    Wait(u16),
}

fn arb_warm_ops() -> impl Strategy<Value = Vec<WarmOp>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u16>().prop_map(WarmOp::Deliver),
            any::<u16>().prop_map(WarmOp::Get),
            any::<u16>().prop_map(WarmOp::GetOnly),
            (any::<u16>(), any::<u16>()).prop_map(|(o, l)| WarmOp::Read(o, l)),
            Just(WarmOp::ReadAll),
            (any::<u16>(), any::<u16>()).prop_map(|(o, l)| WarmOp::Write(o, l)),
            any::<u16>().prop_map(WarmOp::Put),
            (0u16..300).prop_map(WarmOp::Wait),
        ],
        0..40,
    )
}

/// Caches of 0, 1, 2 and 8 lines of 8, 16 or 64 bytes, prefetching 1 or
/// 2 lines ahead or not at all.
fn arb_run_cache() -> impl Strategy<Value = CacheConfig> {
    (
        prop_oneof![Just(0usize), Just(1), Just(2), Just(8)],
        prop_oneof![Just(8u32), Just(16), Just(64)],
        any::<bool>(),
        1u32..=2,
    )
        .prop_map(
            |(lines, line_bytes, prefetch, prefetch_depth)| CacheConfig {
                lines,
                line_bytes,
                prefetch,
                prefetch_depth,
            },
        )
}

const PRODUCER: AccessPoint = AccessPoint {
    shell: ShellId(0),
    row: RowIdx(0),
};

/// A consumer shell whose one row owns `buffer`, over an SRAM holding a
/// distinct pattern, after `ops`. Returns the shell, the memory and the
/// current cycle. Deterministic: two calls build identical states.
fn warmed_consumer(
    cache: CacheConfig,
    buffer: CyclicBuffer,
    ops: &[WarmOp],
) -> (Shell, MemSys, u64) {
    let cfg = ShellConfig {
        cache,
        ..ShellConfig::default()
    };
    let mut shell = Shell::new(ShellId(1), cfg);
    let row = shell.add_stream_row(StreamRowConfig {
        buffer,
        dir: PortDir::Consumer,
        remotes: vec![PRODUCER],
    });
    shell.add_task(TaskConfig {
        name: "c".into(),
        budget: 1000,
        task_info: 0,
        ports: vec![row],
        space_hints: vec![0],
    });
    let sram_size = (buffer.base + buffer.size + 63) & !63;
    let mut mem = MemSys::shared_bus(
        SramConfig {
            size: sram_size,
            word_bytes: 16,
            latency: 2,
        },
        BusConfig::default(),
        BusConfig::default(),
    );
    let pattern: Vec<u8> = (0..sram_size).map(|a| (a * 131 + 7) as u8).collect();
    mem.sram.write(0, &pattern);
    let now = warm(&mut shell, &mut mem, 0, ops);
    (shell, mem, now)
}

/// Apply `ops` to the consumer shell from cycle `now`; returns the cycle
/// after them.
fn warm(shell: &mut Shell, mem: &mut MemSys, mut now: u64, ops: &[WarmOp]) -> u64 {
    let size = shell.rows()[0].buffer.size;
    let mut msgs = Vec::new();
    for op in ops {
        now += 3;
        let (space, granted) = (shell.space(RowIdx(0)), shell.rows()[0].granted);
        match *op {
            WarmOp::Deliver(n) => deliver(shell, n as u32 % (size - space + 1), now),
            WarmOp::Get(n) => {
                let n = n as u32 % (space + 1);
                if shell.get_space(T0, 0, n, now) {
                    shell.prefetch_window(T0, 0, n, now, mem);
                }
            }
            WarmOp::GetOnly(n) => {
                shell.get_space(T0, 0, n as u32 % (space + 1), now);
            }
            WarmOp::Read(off, len) => {
                let len = len as u32 % (granted + 1);
                let off = off as u32 % (granted - len + 1);
                let mut buf = vec![0u8; len as usize];
                now = shell.read(T0, 0, off, &mut buf, now, mem);
            }
            WarmOp::ReadAll => {
                let mut buf = vec![0u8; granted as usize];
                shell.read(T0, 0, 0, &mut buf, now, mem);
            }
            WarmOp::Write(off, len) => {
                let len = len as u32 % (granted + 1);
                let off = off as u32 % (granted - len + 1);
                let data: Vec<u8> = (0..len).map(|i| (i as u8) ^ 0xA5).collect();
                now = shell.write(T0, 0, off, &data, now, mem);
            }
            WarmOp::Put(n) => {
                shell.put_space(T0, 0, n as u32 % (granted + 1), now, mem, &mut msgs);
            }
            WarmOp::Wait(n) => now += n as u64,
        }
    }
    now
}

fn deliver(shell: &mut Shell, bytes: u32, now: u64) {
    shell.deliver_putspace(
        &SyncMsg {
            src: PRODUCER,
            dst: AccessPoint {
                shell: ShellId(1),
                row: RowIdx(0),
            },
            bytes,
            send_at: now,
            dst_gen: 0,
        },
        now,
    );
}

/// Everything a read can change: the shell's tables, caches and
/// counters, and the memory system's SRAM and fabric state.
fn observable(shell: &Shell, mem: &MemSys) -> (String, Vec<u8>, Vec<u8>) {
    let mut w = SnapWriter::new();
    shell.save_state(&mut w);
    let mut m = SnapWriter::new();
    mem.save(&mut m);
    (
        format!("{:?}", shell.caches()[0].stats),
        w.into_bytes(),
        m.into_bytes(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `Shell::read_run` charges exactly what one `Shell::read` per
    /// record charges, each issued at the previous one's completion
    /// cycle: the same completion cycle, bytes, cache counters (one hit
    /// per line chunk of each record) and saved shell and memory state.
    /// Records of 1–8 bytes over unaligned, wrapping windows, through
    /// caches of 0–8 lines with prefetch on and off, over warm,
    /// invalidated and dirty lines, issued before and after in-flight
    /// lines are ready.
    #[test]
    fn read_run_equals_per_record_reads(
        ops in arb_warm_ops(),
        cache in arb_run_cache(),
        base in 0u32..100,
        size in 16u32..300,
        rec in 1usize..=8,
        records in 0usize..=64,
        off in any::<u16>(),
        delay in prop_oneof![Just(0u64), Just(1), Just(4), Just(1000)],
        widen in any::<bool>(),
        rewarm in any::<bool>(),
    ) {
        let buffer = CyclicBuffer::new(base, size);
        let (mut run_shell, mut run_mem, now) = warmed_consumer(cache, buffer, &ops);
        let (mut ref_shell, mut ref_mem, _) = warmed_consumer(cache, buffer, &ops);
        // Keep the run inside the window, or widen the window to cover
        // it; then maybe read the whole window once more, leaving its
        // lines in flight at `now`.
        let granted = run_shell.rows()[0].granted as usize;
        let records = if widen || granted < rec {
            records.min(size as usize / rec)
        } else {
            records.min(granted / rec)
        };
        let len = (records * rec) as u32;
        let mut start = now;
        for (shell, mem) in [(&mut run_shell, &mut run_mem), (&mut ref_shell, &mut ref_mem)] {
            if shell.rows()[0].granted < len {
                let space = shell.space(RowIdx(0));
                deliver(shell, size - space, now);
                prop_assert!(shell.get_space(T0, 0, len, now));
                shell.prefetch_window(T0, 0, len, now, mem);
            }
            if rewarm {
                start = warm(shell, mem, now, &[WarmOp::ReadAll]);
            }
        }
        let granted = run_shell.rows()[0].granted;
        let off = off as u32 % (granted - len + 1);
        let start = start + delay;

        let mut run_buf = vec![0u8; len as usize];
        let run_done = run_shell.read_run(T0, 0, off, rec, &mut run_buf, start, &mut run_mem);
        let mut ref_buf = vec![0u8; len as usize];
        let mut ref_done = start;
        for (i, record) in ref_buf.chunks_exact_mut(rec).enumerate() {
            ref_done = ref_shell.read(T0, 0, off + (i * rec) as u32, record, ref_done, &mut ref_mem);
        }
        prop_assert_eq!(run_done, ref_done);
        prop_assert_eq!(run_buf, ref_buf);
        let (run_stats, run_state, run_memory) = observable(&run_shell, &run_mem);
        let (ref_stats, ref_state, ref_memory) = observable(&ref_shell, &ref_mem);
        prop_assert_eq!(run_stats, ref_stats);
        prop_assert!(run_state == ref_state, "saved shell state differs");
        prop_assert!(run_memory == ref_memory, "saved memory state differs");
    }
}
