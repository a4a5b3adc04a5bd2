//! **Interconnect-fabric design-space sweep**: decode throughput and
//! stream denial rates across the data-fabric backends — the paper
//! instance's shared read/write bus pair vs. the worst-case-provisioned
//! private-port crossbar vs. the 2-D mesh NoC of bank nodes. `putspace`
//! messages take the paper's flat per-message latency throughout.
//!
//! The private-port rows also measure the price of timing independence:
//! every access pays the static grant bound up front, and in exchange
//! no shell's traffic can move another shell's grant (see DESIGN.md
//! §16).
//!
//! The shared-bus row is the committed baseline model; every other row
//! answers a scaling question the template leaves open: how much does a
//! private port per shell, or a mesh of SRAM bank nodes, buy?
//!
//! Usage: `cargo run -p eclipse-bench --release --bin sweep_fabric [--quick]`

use eclipse_bench::{par_sweep, save_result, table, StreamSpec};
use eclipse_coprocs::apps::DecodeAppConfig;
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder};
use eclipse_core::{EclipseConfig, RunOutcome};
use eclipse_media::stream::GopConfig;
use eclipse_mem::{BusConfig, DataFabricConfig};
use std::fmt::Write as _;

fn points(cfg: &EclipseConfig) -> Vec<(&'static str, DataFabricConfig)> {
    let bank = BusConfig {
        width_bytes: cfg.read_bus.width_bytes,
        latency: cfg.read_bus.latency,
        cycles_per_beat: cfg.read_bus.cycles_per_beat,
    };
    let private = |grant| DataFabricConfig::PrivatePort {
        grant_cycles: grant,
        port: bank,
    };
    let mesh = |cols, rows| DataFabricConfig::Mesh {
        cols,
        rows,
        interleave_bytes: 64,
        link_grant: 2,
        hop_cycles: 1,
        port: bank,
    };
    vec![
        (
            "shared-bus",
            DataFabricConfig::SharedBus {
                read: cfg.read_bus,
                write: cfg.write_bus,
            },
        ),
        ("private g=2", private(2)),
        ("private g=8", private(8)),
        ("mesh 2x2", mesh(2, 2)),
        ("mesh 4x2", mesh(4, 2)),
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
    let results = par_sweep(&pts, |&(label, data)| {
        let mut b = MpegBuilder::new(cfg, InstanceCosts::default());
        b.with_data_fabric(data);
        b.add_decode("dec0", bitstream.clone(), DecodeAppConfig::default());
        let mut sys = b.build();
        let summary = sys.run(20_000_000_000);
        assert_eq!(
            summary.outcome,
            RunOutcome::AllFinished,
            "{label} did not finish"
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
        let row = vec![
            label.to_string(),
            format!("{}", summary.cycles),
            format!("{cycles_per_frame}"),
            format!("{:.3}", worst_denial),
            format!("{contended}"),
            format!(
                "{:.1}%",
                100.0 * fly_stats as f64 / (summary.cycles * port_count as u64).max(1) as f64
            ),
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
    writeln!(out, "\nrelative to the shared-bus baseline:").unwrap();
    for ((cycles, _), (label, _)) in results.iter().zip(&pts) {
        writeln!(
            out,
            "  {:<22} {:+.2}%",
            label,
            100.0 * (*cycles as f64 - baseline as f64) / baseline as f64
        )
        .unwrap();
    }
    if !quick {
        save_result("sweep_fabric.txt", &out);
    }
}
