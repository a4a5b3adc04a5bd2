//! Property tests of the shell's windowed synchronization protocol:
//! random producer/consumer operation sequences against a reference FIFO
//! model must never lose, duplicate, or corrupt a byte, and the space
//! accounting must match the model exactly.

use eclipse_mem::{BusConfig, CyclicBuffer, SramConfig};
use eclipse_shell::stream_table::{AccessPoint, PortDir, RowIdx, StreamRowConfig};
use eclipse_shell::task_table::TaskConfig;
use eclipse_shell::{CacheConfig, MemSys, Shell, ShellConfig, ShellId, SyncMsg, TaskIdx};
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
