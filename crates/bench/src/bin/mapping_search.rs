//! **Placement search**: score the placement passes against each data
//! fabric topology instead of hand-assigning tasks.
//!
//! The workload is a pool instance — several identical worker
//! coprocessors per pipeline stage, all advertising the *same* function
//! — running a bundle of independent source → work → sink pipelines.
//! With a pool, placement is a real decision: the historical first-fit
//! pass piles every task of a stage onto the first supporting worker,
//! while the topology-aware pass balances load and, on a mesh (read off
//! the fabric's [`FabricTopology`](eclipse_mem::FabricTopology)
//! descriptor), breaks ties by hop distance between communicating tasks.
//!
//! Each (topology × placement) cell reports run cycles and transport
//! energy per packet from the Section-6 coefficient decomposition
//! (`eclipse_core::model`): bank access + wire transport (global-bus
//! pJ/B on flat fabrics, per-link-hop pJ/B on the mesh) + `putspace`
//! messages.
//!
//! Usage: `cargo run -p eclipse-bench --release --bin mapping_search [--quick]`

use eclipse_bench::synthetic::PipeCoproc;
use eclipse_bench::{par_sweep, save_result, table};
use eclipse_core::model::{transport_energy_per_mb_pj, TransportCounts};
use eclipse_core::{
    EclipseConfig, FirstFitPlacement, Placement, RunOutcome, SystemBuilder, TopologyAwarePlacement,
};
use eclipse_kpn::GraphBuilder;
use eclipse_mem::{BusConfig, DataFabricConfig, MeshDataFabric};
use std::fmt::Write as _;

/// Pipelines in the bundle (each: source → work → sink).
const PIPES: usize = 4;
/// Worker pool sizes per stage: 2 sources, 4 workers, 2 sinks.
const SRC_POOL: usize = 2;
const WORK_POOL: usize = 4;
const SINK_POOL: usize = 2;

struct Cell {
    topo_label: &'static str,
    data: DataFabricConfig,
    placement_label: &'static str,
    first_fit: bool,
}

fn topologies(cfg: &EclipseConfig) -> Vec<(&'static str, DataFabricConfig)> {
    let bank = BusConfig {
        width_bytes: cfg.read_bus.width_bytes,
        latency: cfg.read_bus.latency,
        cycles_per_beat: cfg.read_bus.cycles_per_beat,
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
        (
            "private g=2",
            DataFabricConfig::PrivatePort {
                grant_cycles: 2,
                port: bank,
            },
        ),
        ("mesh 2x2", mesh(2, 2)),
        ("mesh 4x2", mesh(4, 2)),
    ]
}

fn build_pool_system(
    cfg: EclipseConfig,
    data: DataFabricConfig,
    placement: Box<dyn Placement>,
    packets: u32,
) -> eclipse_core::EclipseSystem {
    let mut b = SystemBuilder::new(cfg);
    b.with_data_fabric(data);
    b.with_placement(placement);
    // Worker pools: every worker of a stage advertises the same
    // function, so the placement pass decides which one each task uses.
    // Tasks time-share a worker, so each worker's per-task packet quota
    // is the full pipeline quota.
    for i in 0..SRC_POOL {
        b.add_coprocessor(Box::new(PipeCoproc::worker(
            format!("srcw{i}"),
            "stage-src",
            packets,
            64,
            60,
            "source",
        )));
    }
    for i in 0..WORK_POOL {
        b.add_coprocessor(Box::new(PipeCoproc::worker(
            format!("workw{i}"),
            "stage-work",
            packets,
            64,
            90,
            "filter",
        )));
    }
    for i in 0..SINK_POOL {
        b.add_coprocessor(Box::new(PipeCoproc::worker(
            format!("sinkw{i}"),
            "stage-sink",
            packets,
            64,
            40,
            "sink",
        )));
    }
    for p in 0..PIPES {
        let mut g = GraphBuilder::new(format!("pipe{p}"));
        let a = g.stream(format!("a{p}"), 256);
        let bst = g.stream(format!("b{p}"), 256);
        g.task(format!("src{p}"), "stage-src", 0, &[], &[a]);
        g.task(format!("work{p}"), "stage-work", 0, &[a], &[bst]);
        g.task(format!("sink{p}"), "stage-sink", 0, &[bst], &[]);
        b.map_app(&g.build().unwrap()).unwrap();
    }
    b.build()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let packets: u32 = if quick { 64 } else { 400 };
    let cfg = EclipseConfig::default();

    let mut cells = Vec::new();
    for (topo_label, data) in topologies(&cfg) {
        for (placement_label, first_fit) in [("first-fit", true), ("topology-aware", false)] {
            cells.push(Cell {
                topo_label,
                data,
                placement_label,
                first_fit,
            });
        }
    }

    let results = par_sweep(&cells, |c| {
        let placement: Box<dyn Placement> = if c.first_fit {
            Box::new(FirstFitPlacement)
        } else {
            Box::new(TopologyAwarePlacement)
        };
        let mut sys = build_pool_system(cfg, c.data, placement, packets);
        let summary = sys.run(20_000_000_000);
        assert_eq!(
            summary.outcome,
            RunOutcome::AllFinished,
            "{} / {} did not finish",
            c.topo_label,
            c.placement_label
        );
        let fabric = sys.data_fabric();
        let sram_bytes: u64 = fabric.ports().iter().map(|p| p.stats.bytes).sum();
        let (mesh, byte_hops) = match fabric.as_any().downcast_ref::<MeshDataFabric>() {
            Some(m) => (true, m.byte_hops()),
            None => (false, 0),
        };
        let counts = TransportCounts {
            sram_bytes,
            byte_hops,
            mesh,
            sync_messages: summary.sync_messages,
        };
        // One packet = one macroblock-equivalent work unit; count the
        // packets the sinks actually consumed.
        let work_units = (PIPES as u64) * packets as u64;
        let pj_per_mb = transport_energy_per_mb_pj(&counts, work_units);
        (summary.cycles, pj_per_mb)
    });

    let mut rows = Vec::new();
    for (c, (cycles, pj)) in cells.iter().zip(&results) {
        rows.push(vec![
            c.topo_label.to_string(),
            c.placement_label.to_string(),
            format!("{cycles}"),
            format!("{pj:.0}"),
        ]);
    }
    let t = table(&["topology", "placement", "cycles", "pJ/MB"], &rows);
    println!("{t}");

    // Per-topology verdict: does the fabric-aware pass beat first-fit
    // on cycles or energy?
    let mut out = String::new();
    writeln!(
        out,
        "Placement search ({PIPES} pipelines x {packets} packets, pools {SRC_POOL}/{WORK_POOL}/{SINK_POOL})\n"
    )
    .unwrap();
    out.push_str(&t);
    writeln!(out, "\ntopology-aware vs first-fit:").unwrap();
    let mut wins = 0;
    for pair in cells.chunks(2).zip(results.chunks(2)) {
        let (cs, rs) = pair;
        let (ff_cycles, ff_pj) = rs[0];
        let (ta_cycles, ta_pj) = rs[1];
        let cyc_gain = 100.0 * (ff_cycles as f64 - ta_cycles as f64) / ff_cycles as f64;
        let pj_gain = 100.0 * (ff_pj - ta_pj) / ff_pj.max(f64::EPSILON);
        let verdict = if ta_cycles < ff_cycles || ta_pj < ff_pj {
            wins += 1;
            "WIN"
        } else if ta_cycles == ff_cycles && ta_pj == ff_pj {
            "tie"
        } else {
            "loss"
        };
        writeln!(
            out,
            "  {:<22} cycles {:+.2}%  energy {:+.2}%  {}",
            cs[0].topo_label, cyc_gain, pj_gain, verdict
        )
        .unwrap();
    }
    writeln!(
        out,
        "\ntopology-aware placement wins on {wins}/{} topologies",
        cells.len() / 2
    )
    .unwrap();
    println!(
        "{}",
        out.lines()
            .skip_while(|l| !l.starts_with("topology-aware vs"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        wins >= 1,
        "expected the fabric-aware placer to beat first-fit on at least one topology"
    );
    if !quick {
        save_result("mapping_search.txt", &out);
    }
}
