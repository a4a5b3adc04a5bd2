//! **Interconnect-fabric design-space sweep**: decode throughput and
//! stream denial rates across data-fabric backends (the paper instance's
//! shared read/write bus pair vs. address-interleaved multi-bank SRAM
//! fabrics vs. the worst-case-provisioned private-port crossbar vs. the
//! 2-D mesh NoC of bank nodes) and sync-network backends (flat direct
//! delivery vs. a unidirectional ring with per-hop latency and link
//! contention vs. the XY-routed mesh with credit piggy-backing).
//!
//! The private-port rows also measure the price of timing independence:
//! every access pays the static grant bound up front, and in exchange
//! no shell's traffic can move another shell's grant (see DESIGN.md
//! §16).
//!
//! The shared-bus + direct row is the committed baseline model; every
//! other row answers a scaling question the template leaves open: how
//! much arbitration headroom do SRAM banks buy, and what does a real
//! sync topology cost?
//!
//! Usage: `cargo run -p eclipse-bench --release --bin sweep_fabric [--quick]`

use eclipse_bench::{par_sweep, save_result, table, StreamSpec};
use eclipse_coprocs::apps::DecodeAppConfig;
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder};
use eclipse_core::{EclipseConfig, RunOutcome};
use eclipse_media::stream::GopConfig;
use eclipse_mem::{BusConfig, DataFabricConfig};
use eclipse_shell::SyncFabricConfig;
use std::fmt::Write as _;

struct Point {
    label: &'static str,
    data: DataFabricConfig,
    sync: SyncFabricConfig,
}

fn points(cfg: &EclipseConfig) -> Vec<Point> {
    let bank = BusConfig {
        width_bytes: cfg.read_bus.width_bytes,
        latency: cfg.read_bus.latency,
        cycles_per_beat: cfg.read_bus.cycles_per_beat,
    };
    let shared = DataFabricConfig::SharedBus {
        read: cfg.read_bus,
        write: cfg.write_bus,
    };
    let multibank = |banks| DataFabricConfig::MultiBank {
        banks,
        interleave_bytes: 64,
        bank,
    };
    let private = |grant| DataFabricConfig::PrivatePort {
        grant_cycles: grant,
        port: bank,
    };
    let ring = SyncFabricConfig::Ring {
        hop_latency: 2,
        link_occupancy: 1,
    };
    let mesh = |cols, rows| DataFabricConfig::Mesh {
        cols,
        rows,
        interleave_bytes: 64,
        link_grant: 2,
        hop_cycles: 1,
        port: bank,
    };
    let mesh_sync = SyncFabricConfig::Mesh {
        cols: 2,
        rows: 2,
        hop_latency: 2,
        link_occupancy: 1,
        piggyback_window: 4,
    };
    vec![
        Point {
            label: "shared-bus + direct",
            data: shared,
            sync: SyncFabricConfig::Direct,
        },
        Point {
            label: "2-bank + direct",
            data: multibank(2),
            sync: SyncFabricConfig::Direct,
        },
        Point {
            label: "4-bank + direct",
            data: multibank(4),
            sync: SyncFabricConfig::Direct,
        },
        Point {
            label: "8-bank + direct",
            data: multibank(8),
            sync: SyncFabricConfig::Direct,
        },
        Point {
            label: "private g=2 + direct",
            data: private(2),
            sync: SyncFabricConfig::Direct,
        },
        Point {
            label: "private g=8 + direct",
            data: private(8),
            sync: SyncFabricConfig::Direct,
        },
        Point {
            label: "shared-bus + ring",
            data: shared,
            sync: ring,
        },
        Point {
            label: "4-bank + ring",
            data: multibank(4),
            sync: ring,
        },
        Point {
            label: "private g=2 + ring",
            data: private(2),
            sync: ring,
        },
        Point {
            label: "mesh 2x2 + direct",
            data: mesh(2, 2),
            sync: SyncFabricConfig::Direct,
        },
        Point {
            label: "mesh 2x2 + mesh-sync",
            data: mesh(2, 2),
            sync: mesh_sync,
        },
        Point {
            label: "mesh 4x2 + direct",
            data: mesh(4, 2),
            sync: SyncFabricConfig::Direct,
        },
    ]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let spec = if quick {
        StreamSpec {
            frames: 3,
            gop: GopConfig { n: 3, m: 1 },
            ..StreamSpec::qcif()
        }
    } else {
        StreamSpec::qcif()
    };
    let (bitstream, _) = spec.encode();
    let cfg = EclipseConfig::default();

    let pts = points(&cfg);
    let results = par_sweep(&pts, |p| {
        let mut b = MpegBuilder::new(cfg, InstanceCosts::default());
        b.with_data_fabric(p.data);
        b.with_sync_fabric(p.sync);
        b.add_decode("dec0", bitstream.clone(), DecodeAppConfig::default());
        let mut sys = b.build();
        let summary = sys.run(20_000_000_000);
        assert_eq!(
            summary.outcome,
            RunOutcome::AllFinished,
            "{} did not finish",
            p.label
        );
        let frames = sys
            .display_frames("dec0")
            .map(|f| f.len())
            .unwrap_or_default();
        let cycles_per_frame = summary.cycles / frames.max(1) as u64;
        let worst_denial = summary
            .denial_rates
            .iter()
            .map(|&(_, r)| r)
            .fold(0.0f64, f64::max);
        let (contended, port_count, fly_stats) = {
            let fabric = sys.sys.data_fabric();
            let busy: u64 = fabric.ports().iter().map(|p| p.stats.busy_cycles).sum();
            (fabric.contended_requests(), fabric.ports().len(), busy)
        };
        let sync = sys.sys.sync_fabric().stats();
        let row = vec![
            p.label.to_string(),
            format!("{}", summary.cycles),
            format!("{cycles_per_frame}"),
            format!("{:.3}", worst_denial),
            format!("{contended}"),
            format!(
                "{:.1}%",
                100.0 * fly_stats as f64 / (summary.cycles * port_count as u64).max(1) as f64
            ),
            format!("{}", sync.hops),
            format!("{}", sync.wait_cycles),
        ];
        (summary.cycles, row)
    });

    let rows: Vec<Vec<String>> = results.iter().map(|(_, r)| r.clone()).collect();
    let t = table(
        &[
            "fabric",
            "decode cycles",
            "cycles/frame",
            "worst denial",
            "data contended",
            "mean port util",
            "sync hops",
            "sync wait",
        ],
        &rows,
    );
    println!("{t}");

    let baseline = results[0].0;
    let mut out = String::new();
    writeln!(
        out,
        "Interconnect-fabric sweep ({} frames QCIF decode)\n",
        spec.frames
    )
    .unwrap();
    out.push_str(&t);
    writeln!(out, "\nrelative to shared-bus + direct baseline:").unwrap();
    for ((cycles, row), p) in results.iter().zip(&pts) {
        writeln!(
            out,
            "  {:<22} {:+.2}%",
            p.label,
            100.0 * (*cycles as f64 - baseline as f64) / baseline as f64
        )
        .unwrap();
        let _ = row;
    }
    if !quick {
        save_result("sweep_fabric.txt", &out);
    }
}
