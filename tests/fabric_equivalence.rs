//! Fabric-equivalence suite: the pluggable data-fabric layer must be
//! invisible when the default backend is selected, and every backend
//! must stay functionally conservative (no created or lost credits, no
//! created or lost bytes) no matter how the traffic looks.
//!
//! Two layers of evidence:
//!
//! 1. **Timing equivalence.** Explicitly selecting the default fabric
//!    (`SharedBus` with the instance's read/write bus pair) on the
//!    Figure-10 decode reproduces the implicit build cycle-for-cycle —
//!    the same guarantee the committed `results/timing_fingerprint.txt`
//!    encodes, checked here against a live run rather than a file.
//! 2. **Conservation under random traffic.** Property tests drive
//!    randomly shaped producer/filter/consumer pipelines through every
//!    data fabric with the credit checker armed: each must finish,
//!    observe sync traffic, and move the same number of bytes over the
//!    data fabric (the fabric shapes *when* traffic flows, never *what*
//!    flows).

use eclipse::coprocs::apps::DecodeAppConfig;
use eclipse::coprocs::instance::{build_decode_system, InstanceCosts, MpegBuilder};
use eclipse::core::{EclipseConfig, RunOutcome, RunSummary, SystemBuilder};
use eclipse::kpn::GraphBuilder;
use eclipse::media::encoder::{Encoder, EncoderConfig};
use eclipse::media::source::{SourceConfig, SyntheticSource};
use eclipse::media::stream::GopConfig;
use eclipse::mem::{BusConfig, DataFabricConfig};
use eclipse_bench::synthetic::PipeCoproc;
use proptest::prelude::*;

fn small_stream() -> Vec<u8> {
    let src = SyntheticSource::new(SourceConfig {
        width: 64,
        height: 48,
        complexity: 0.4,
        motion: 2.0,
        seed: 0xFAB41C,
    });
    let enc = Encoder::new(EncoderConfig {
        width: 64,
        height: 48,
        qscale: 6,
        gop: GopConfig { n: 6, m: 3 },
        search_range: 15,
    });
    let (bytes, _) = enc.encode(&src.frames(7));
    bytes
}

/// Selecting the default fabric by hand is byte-identical in time to
/// not selecting any fabric at all: same cycle count, same sync-message
/// count, same per-shell utilization split.
#[test]
fn explicit_default_fabrics_reproduce_implicit_timing() {
    let bitstream = small_stream();
    let cfg = EclipseConfig::default();

    let mut implicit = build_decode_system(cfg, bitstream.clone());
    let a = implicit.system.run(20_000_000_000);

    let mut eb = MpegBuilder::new(cfg, InstanceCosts::default());
    eb.with_data_fabric(DataFabricConfig::SharedBus {
        read: cfg.read_bus,
        write: cfg.write_bus,
    });
    eb.add_decode("dec0", bitstream, DecodeAppConfig::default());
    let mut explicit = eb.build();
    let b = explicit.run(20_000_000_000);

    assert_eq!(a.outcome, RunOutcome::AllFinished);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// One pipeline shape, run through a given data fabric with the credit
/// checker armed; returns the summary plus total bytes the data fabric
/// carried.
fn run_combo(
    pipelines: usize,
    buffer: u32,
    packets: u32,
    packet_bytes: u32,
    data: DataFabricConfig,
) -> (RunSummary, u64) {
    let sram = (pipelines as u32 * 2 * buffer + 1024)
        .next_power_of_two()
        .max(32 * 1024);
    let mut b = SystemBuilder::new(EclipseConfig::default().with_sram_size(sram));
    b.with_data_fabric(data);
    let mut g = GraphBuilder::new("fuzz");
    for p in 0..pipelines {
        let a = g.stream(format!("a{p}"), buffer);
        let bs = g.stream(format!("b{p}"), buffer);
        g.task(format!("src{p}"), format!("src{p}"), 0, &[], &[a]);
        g.task(format!("mid{p}"), format!("mid{p}"), 0, &[a], &[bs]);
        g.task(format!("dst{p}"), format!("dst{p}"), 0, &[bs], &[]);
        b.add_coprocessor(Box::new(PipeCoproc::source(
            format!("src{p}"),
            packets,
            packet_bytes,
            60,
        )));
        b.add_coprocessor(Box::new(PipeCoproc::filter(
            format!("mid{p}"),
            packets,
            packet_bytes,
            90,
        )));
        b.add_coprocessor(Box::new(PipeCoproc::sink(
            format!("dst{p}"),
            packets,
            packet_bytes,
            40,
        )));
    }
    let graph = g.build().unwrap();
    b.map_app(&graph).unwrap();
    let mut sys = b.build();
    sys.enable_credit_check();
    let summary = sys.run(10_000_000_000);
    let bytes: u64 = sys
        .data_fabric()
        .ports()
        .iter()
        .map(|p| p.stats.bytes)
        .sum();
    (summary, bytes)
}

fn fabric_combos(cfg: &EclipseConfig) -> Vec<(&'static str, DataFabricConfig)> {
    let port = BusConfig {
        width_bytes: cfg.read_bus.width_bytes,
        latency: cfg.read_bus.latency,
        cycles_per_beat: cfg.read_bus.cycles_per_beat,
    };
    vec![
        (
            "shared",
            DataFabricConfig::SharedBus {
                read: cfg.read_bus,
                write: cfg.write_bus,
            },
        ),
        (
            "private",
            DataFabricConfig::PrivatePort {
                grant_cycles: 2,
                port,
            },
        ),
        // XY-routed data chunks must conserve exactly like the flat
        // fabrics: hops shift timing and add link counters, never
        // payload.
        (
            "mesh",
            DataFabricConfig::Mesh {
                cols: 2,
                rows: 2,
                interleave_bytes: 64,
                link_grant: 2,
                hop_cycles: 1,
                port,
            },
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every data fabric conserves credits (the armed credit checker
    /// panics on any violation), completes the same workload, and
    /// carries the same number of payload bytes as every other fabric —
    /// the fabric shifts timing, never data. (Sync *message counts*
    /// legitimately differ across fabrics: how many putspace updates
    /// coalesce depends on scheduling timing.)
    #[test]
    fn all_fabrics_conserve_credits_and_bytes(
        pipelines in 1usize..=3,
        buffer_pow in 7u32..=9,     // 128, 256, 512 B stream buffers
        packets in 40u32..160,
        packet_pow in 4u32..=6,     // 16, 32, 64 B packets
    ) {
        let buffer = 1u32 << buffer_pow;
        let packet_bytes = 1u32 << packet_pow;
        let cfg = EclipseConfig::default();
        let mut reference: Option<u64> = None;
        for (label, data) in fabric_combos(&cfg) {
            let (summary, bytes) = run_combo(
                pipelines, buffer, packets, packet_bytes, data,
            );
            prop_assert_eq!(
                summary.outcome, RunOutcome::AllFinished,
                "{} did not finish: {:?}", label, summary.outcome
            );
            prop_assert!(
                summary.sync_messages > 0,
                "{}: no sync traffic observed", label
            );
            match reference {
                None => reference = Some(bytes),
                Some(ref_bytes) => {
                    prop_assert_eq!(
                        bytes, ref_bytes,
                        "{}: fabric byte total diverged", label
                    );
                }
            }
        }
    }
}
