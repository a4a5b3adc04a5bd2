//! Simulated-timing and work fingerprint of the canonical workloads.
//!
//! Prints a full digest of every [`RunSummary`] field plus the exact work
//! counts the public stats hold (steps, GetTask/GetSpace/PutSpace calls,
//! cache, fabric-port, DRAM and SRAM traffic) for the Figure-10 QCIF
//! decode, one design point per sweep binary, perfbench's
//! `pipeline_sync` shape and the default time-shift transcode.
//! Host-performance work (calendar structure, cache fast paths) must
//! leave this output **byte-identical**: a change in simulated work shows
//! up in the count lines even where every `cycles:` line holds. Run it
//! before and after an optimization and diff
//! `results/timing_fingerprint.txt`.
//!
//! Usage: `cargo run -p eclipse-bench --release --bin timing_fingerprint`

use eclipse_bench::synthetic::{
    open_gate_system, pipeline_sync_system, PipeCoproc, SYNC_PIPES, SYNC_STAGES,
};
use eclipse_bench::{save_result, timeshift_transcode, StreamSpec};
use eclipse_coprocs::apps::{DecodeAppConfig, EncodeAppConfig};
use eclipse_coprocs::instance::{build_decode_system, InstanceCosts, MpegBuilder};
use eclipse_core::system::CpuSyncConfig;
use eclipse_core::{EclipseConfig, EclipseSystem, RunSummary, SystemBuilder};
use eclipse_kpn::GraphBuilder;
use eclipse_media::stream::GopConfig;
use eclipse_shell::CacheConfig;
use std::fmt::Write as _;

fn digest(out: &mut String, label: &str, sys: &EclipseSystem, s: &RunSummary) {
    writeln!(out, "== {label} ==").unwrap();
    writeln!(out, "outcome: {:?}", s.outcome).unwrap();
    writeln!(out, "cycles: {}", s.cycles).unwrap();
    writeln!(out, "sync_messages: {}", s.sync_messages).unwrap();
    writeln!(out, "cpu_sync_busy: {}", s.cpu_sync_busy).unwrap();
    writeln!(out, "sched_occupancy: {:.12}", s.sched_occupancy).unwrap();
    for (i, u) in s.utilization.iter().enumerate() {
        writeln!(
            out,
            "util[{i}]: busy={} stalled={} idle={}",
            u.busy, u.stalled, u.idle
        )
        .unwrap();
    }
    for (row, rate) in &s.denial_rates {
        writeln!(out, "denial {row}: {rate:.12}").unwrap();
    }
    writeln!(out, "sync_latency buckets: {:?}", s.sync_latency.buckets()).unwrap();
    writeln!(
        out,
        "sync_latency stat: n={} sum={:.3} min={:.3} max={:.3}",
        s.sync_latency.stat().count(),
        s.sync_latency.stat().sum(),
        s.sync_latency.stat().min(),
        s.sync_latency.stat().max()
    )
    .unwrap();

    let shells = sys.shells();
    let shell_sum = |f: fn(&eclipse_shell::ShellStats) -> u64| {
        shells.iter().map(|sh| f(&sh.stats)).sum::<u64>()
    };
    let tasks = || shells.iter().flat_map(|sh| sh.tasks()).map(|t| &t.stats);
    let rows = || shells.iter().flat_map(|sh| sh.rows()).map(|r| &r.stats);
    let caches = || shells.iter().flat_map(|sh| sh.caches()).map(|c| &c.stats);
    writeln!(
        out,
        "tasks: steps={} aborted_steps={} switches_in={}",
        tasks().map(|t| t.steps).sum::<u64>(),
        tasks().map(|t| t.aborted_steps).sum::<u64>(),
        tasks().map(|t| t.switches_in).sum::<u64>()
    )
    .unwrap();
    writeln!(
        out,
        "gettask: calls={} runs={}",
        shell_sum(|st| st.gettask_calls),
        shell_sum(|st| st.gettask_runs)
    )
    .unwrap();
    writeln!(
        out,
        "getspace: calls={} denied={}",
        rows().map(|r| r.getspace_calls).sum::<u64>(),
        rows().map(|r| r.getspace_denied).sum::<u64>()
    )
    .unwrap();
    writeln!(
        out,
        "putspace: calls={} messages_sent={}",
        rows().map(|r| r.putspace_calls).sum::<u64>(),
        shell_sum(|st| st.messages_sent)
    )
    .unwrap();
    writeln!(
        out,
        "cache: hits={} misses={} prefetches={} writebacks={} invalidations={} stall_cycles={}",
        caches().map(|c| c.hits).sum::<u64>(),
        caches().map(|c| c.misses).sum::<u64>(),
        caches().map(|c| c.prefetches).sum::<u64>(),
        caches().map(|c| c.writebacks).sum::<u64>(),
        caches().map(|c| c.invalidations).sum::<u64>(),
        caches().map(|c| c.stall_cycles).sum::<u64>()
    )
    .unwrap();
    for port in sys.data_fabric().ports() {
        writeln!(
            out,
            "bus/{}: txn={} bytes={} busy={} wait_sum={:.3}",
            port.name,
            port.stats.transactions,
            port.stats.bytes,
            port.stats.busy_cycles,
            port.stats.wait.sum()
        )
        .unwrap();
    }
    let dram = sys.dram().stats();
    writeln!(
        out,
        "dram: txn={} bytes={} row_hits={} row_misses={}",
        dram.transactions, dram.bytes, dram.row_hits, dram.row_misses
    )
    .unwrap();
    let sram = sys.mem().sram.stats();
    writeln!(
        out,
        "sram: bytes_read={} bytes_written={}",
        sram.bytes_read, sram.bytes_written
    )
    .unwrap();
}

fn main() {
    let mut out = String::new();
    let spec = StreamSpec::qcif();
    let (bitstream, _) = spec.encode();

    // Figure-10 QCIF decode, default configuration.
    {
        let mut dec = build_decode_system(EclipseConfig::default(), bitstream.clone());
        let s = dec.system.sys.run(20_000_000_000);
        digest(&mut out, "qcif_decode/default", &dec.system.sys, &s);
    }

    // sweep_cache point: 512 B + prefetch.
    {
        let cfg = EclipseConfig::default().with_cache(CacheConfig::with_lines(8, true));
        let mut dec = build_decode_system(cfg, bitstream.clone());
        let s = dec.system.sys.run(20_000_000_000);
        digest(&mut out, "sweep_cache/512B+prefetch", &dec.system.sys, &s);
    }

    // sweep_bus point: 64-bit bus.
    {
        let cfg = EclipseConfig::default().with_bus_width(8);
        let mut dec = build_decode_system(cfg, bitstream.clone());
        let s = dec.system.sys.run(20_000_000_000);
        digest(&mut out, "sweep_bus/width8", &dec.system.sys, &s);
    }

    // sweep_coupling point: 0.7x buffers.
    {
        let bufs = DecodeAppConfig::default().scaled(0.7);
        let sram = (bufs.total() + 8 * 1024).next_power_of_two().max(32 * 1024);
        let mut b = MpegBuilder::new(
            EclipseConfig::default().with_sram_size(sram),
            InstanceCosts::default(),
        );
        b.add_decode("dec0", bitstream.clone(), bufs);
        let mut sys = b.build();
        let s = sys.sys.run(50_000_000_000);
        digest(&mut out, "sweep_coupling/0.7x", &sys.sys, &s);
    }

    // sweep_scalability point: 4 pipelines, distributed and CPU-centric.
    for (label, cpu) in [
        ("sweep_scalability/4pipes-distributed", None),
        (
            "sweep_scalability/4pipes-cpu",
            Some(CpuSyncConfig {
                service_cycles: 200,
            }),
        ),
    ] {
        let pipelines = 4usize;
        let sram = (pipelines as u32 * 2 * 256 + 1024)
            .next_power_of_two()
            .max(32 * 1024);
        let mut b = SystemBuilder::new(EclipseConfig::default().with_sram_size(sram));
        if let Some(c) = cpu {
            b.with_cpu_sync(c);
        }
        let mut g = GraphBuilder::new("scale");
        for p in 0..pipelines {
            let a = g.stream(format!("a{p}"), 256);
            let bs = g.stream(format!("b{p}"), 256);
            g.task(format!("src{p}"), format!("src{p}"), 0, &[], &[a]);
            g.task(format!("mid{p}"), format!("mid{p}"), 0, &[a], &[bs]);
            g.task(format!("dst{p}"), format!("dst{p}"), 0, &[bs], &[]);
            b.add_coprocessor(Box::new(PipeCoproc::source(format!("src{p}"), 400, 64, 60)));
            b.add_coprocessor(Box::new(PipeCoproc::filter(format!("mid{p}"), 400, 64, 90)));
            b.add_coprocessor(Box::new(PipeCoproc::sink(format!("dst{p}"), 400, 64, 40)));
        }
        let graph = g.build().unwrap();
        b.map_app(&graph).unwrap();
        let mut sys = b.build();
        let s = sys.run(1_000_000_000);
        digest(&mut out, label, &sys, &s);
    }

    // sweep_scheduler point: best-guess policy, budget 2000, encode+decode.
    {
        let spec = StreamSpec {
            frames: 6,
            gop: GopConfig { n: 6, m: 3 },
            ..StreamSpec::qcif()
        };
        let (mix_bs, _) = spec.encode();
        let mut cfg = EclipseConfig::default();
        cfg.shell.policy = eclipse_shell::SchedPolicy::BestGuess;
        cfg.default_budget = 2000;
        let mut b = MpegBuilder::new(cfg, InstanceCosts::default());
        b.add_decode("dec0", mix_bs, DecodeAppConfig::default());
        let frames = StreamSpec {
            seed: spec.seed + 9,
            ..spec
        }
        .source_frames();
        b.add_encode(
            "enc0",
            frames,
            spec.gop,
            spec.qscale,
            8,
            EncodeAppConfig::default(),
        );
        let mut sys = b.build();
        let s = sys.sys.run(100_000_000_000);
        digest(&mut out, "sweep_scheduler/bestguess-2000", &sys.sys, &s);
    }

    // Open-gate point: two independent apps on the private-port crossbar,
    // pinning that fabric's timing. Its final state hash is snapshot
    // evidence and lives in `results/snapshot_smoke.txt`.
    {
        let mut sys = open_gate_system(2_000, 60);
        let s = sys.run(1_000_000_000);
        digest(&mut out, "open_gate/private-port-2apps", &sys, &s);
    }

    // perfbench's `pipeline_sync` shape at its default seed, checked
    // against the graph's closed-form work: every task completes one step
    // per packet, every packet crossing a stream costs one putspace from
    // its producer and one from its consumer, and the run ends when the
    // last task finishes, which may leave each chain's final credit
    // undelivered.
    {
        const PACKETS: u64 = 10_000;
        let mut sys = pipeline_sync_system(PACKETS as u32);
        let s = sys.run(1_000_000_000);
        digest(&mut out, "pipeline_sync/2x6-shared-stages", &sys, &s);
        let (pipes, stages) = (SYNC_PIPES as u64, SYNC_STAGES as u64);
        let steps: u64 = sys
            .shells()
            .iter()
            .flat_map(|sh| sh.tasks())
            .map(|t| t.stats.steps)
            .sum();
        let sent: u64 = sys.shells().iter().map(|sh| sh.stats.messages_sent).sum();
        assert_eq!(steps, pipes * stages * PACKETS, "pipeline steps");
        assert_eq!(
            sent,
            pipes * (stages - 1) * 2 * PACKETS,
            "putspace messages"
        );
        assert!(
            s.sync_messages <= sent && sent - s.sync_messages <= pipes,
            "{} of {sent} putspace messages delivered",
            s.sync_messages
        );
    }

    // The section-1 time-shift transcode (perfbench's `transcode_qcif`
    // at its default seed): decode plus a concurrent encode on the same
    // coprocessors, default configuration.
    {
        let mut sys = timeshift_transcode(15);
        let s = sys.sys.run(50_000_000_000);
        digest(&mut out, "transcode/timeshift-default", &sys.sys, &s);
    }

    print!("{out}");
    save_result("timing_fingerprint.txt", &out);
}
