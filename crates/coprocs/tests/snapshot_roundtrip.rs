//! Checkpoint/restore over the real MPEG instance: a decode interrupted
//! mid-run and restored into a freshly built system must finish with
//! bit-identical frames, summary, and state-hash sequence — including
//! after live reconfiguration has reshaped the tables relative to the
//! fresh build receiving the checkpoint.

use eclipse_coprocs::apps::{AudioAppConfig, DecodeAppConfig};
use eclipse_coprocs::instance::{build_decode_system, DecodeSystem, InstanceCosts, MpegBuilder};
use eclipse_core::{EclipseConfig, RunOutcome};
use eclipse_media::encoder::{Encoder, EncoderConfig};
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::stream::GopConfig;
use eclipse_media::{audio, Decoder};
use eclipse_mem::{BusConfig, DataFabricConfig};
use eclipse_sim::FaultPlan;

fn encode_test_stream(
    width: usize,
    height: usize,
    frames: u16,
    gop: GopConfig,
    seed: u64,
) -> Vec<u8> {
    let src = SyntheticSource::new(SourceConfig {
        width,
        height,
        complexity: 0.35,
        motion: 2.0,
        seed,
    });
    let enc = Encoder::new(EncoderConfig {
        width,
        height,
        qscale: 6,
        gop,
        search_range: 15,
    });
    enc.encode(&src.frames(frames)).0
}

/// Finish a decode run, sampling the state hash every `stride` cycles.
fn finish_with_hashes(dec: &mut DecodeSystem, stride: u64) -> (Vec<u64>, String) {
    let mut hashes = Vec::new();
    let mut stop = dec.system.sys.now();
    loop {
        stop += stride;
        match dec.system.sys.run_until(stop) {
            None => hashes.push(dec.system.sys.state_hash()),
            Some(outcome) => {
                assert_eq!(outcome, RunOutcome::AllFinished);
                break;
            }
        }
    }
    hashes.push(dec.system.sys.state_hash());
    let frames = dec
        .system
        .display_frames("dec0")
        .expect("display collected frames");
    let digest = format!(
        "{} frames, final hash {:#018x}",
        frames.len(),
        hashes.last().unwrap()
    );
    (hashes, digest)
}

#[test]
fn mpeg_decode_roundtrip_is_bit_exact() {
    let bs = encode_test_stream(64, 48, 8, GopConfig { n: 12, m: 3 }, 23);
    let reference = Decoder::decode(&bs).expect("software decode");

    // Reference pass to learn the total cycle count, then save halfway.
    let total = {
        let mut dec = build_decode_system(EclipseConfig::default(), bs.clone());
        let s = dec.system.run(200_000_000);
        assert_eq!(s.outcome, RunOutcome::AllFinished);
        s.cycles
    };
    let mid = total / 2;

    let mut original = build_decode_system(EclipseConfig::default(), bs.clone());
    assert!(
        original.system.sys.run_until(mid).is_none(),
        "decode must still be mid-flight at the save point"
    );
    let hash_at_save = original.system.sys.state_hash();
    let bytes = original.system.sys.save();
    let (tail_a, digest_a) = finish_with_hashes(&mut original, total / 16);
    let frames_a = original.system.display_frames("dec0").unwrap();

    let mut restored = build_decode_system(EclipseConfig::default(), bs);
    restored.system.sys.restore(&bytes).unwrap();
    assert_eq!(restored.system.sys.state_hash(), hash_at_save);
    let (tail_b, digest_b) = finish_with_hashes(&mut restored, total / 16);
    let frames_b = restored.system.display_frames("dec0").unwrap();

    assert_eq!(tail_a, tail_b, "state-hash tails diverged after restore");
    assert_eq!(digest_a, digest_b);
    assert_eq!(
        frames_a, frames_b,
        "restored decode produced different frames"
    );
    // And both still match the software decoder bit-exactly.
    assert_eq!(frames_b.len(), reference.frames.len());
    for (i, (sim, sw)) in frames_b.iter().zip(&reference.frames).enumerate() {
        assert_eq!(sim, sw, "frame {i} differs from software decode");
    }
}

#[test]
fn two_fresh_mpeg_builds_checkpoint_identically() {
    // The nondeterminism regression (ordered task/config maps): two
    // independently built instances of the same system, advanced to the
    // same cycle, must produce byte-identical checkpoints.
    let bs = encode_test_stream(48, 32, 3, GopConfig { n: 3, m: 1 }, 24);
    let mk = || build_decode_system(EclipseConfig::default(), bs.clone());
    let mut a = mk();
    let mut b = mk();
    assert_eq!(
        a.system.sys.save(),
        b.system.sys.save(),
        "fresh builds serialize differently"
    );
    a.system.sys.run_until(300_000);
    b.system.sys.run_until(300_000);
    assert_eq!(
        a.system.sys.save(),
        b.system.sys.save(),
        "mid-run builds serialize differently"
    );
    assert_eq!(a.system.sys.state_hash(), b.system.sys.state_hash());
}

/// Every data fabric must checkpoint bit-exactly *under load* — at a
/// cycle where the fabric arbiters hold live cursors (private-port and
/// mesh in-flight grants, bus busy-until horizons), syncs are in flight, and
/// timing faults (sync delays, bus retries, coprocessor stalls) are
/// armed, so the fault lanes' RNG cursors travel in the checkpoint too.
/// A restore into a fresh build must replay to the same state-hash tail
/// and finish with the same frames, fault counters, `RunSummary`, state
/// hash and checkpoint bytes as one uninterrupted run.
#[test]
fn checkpoint_under_load_across_fabric_combos() {
    let bs = encode_test_stream(48, 32, 3, GopConfig { n: 3, m: 1 }, 26);
    let cfg = EclipseConfig::default();
    let bank = BusConfig {
        width_bytes: cfg.read_bus.width_bytes,
        latency: cfg.read_bus.latency,
        cycles_per_beat: cfg.read_bus.cycles_per_beat,
    };
    let combos: [(&str, DataFabricConfig); 3] = [
        (
            "shared-bus",
            DataFabricConfig::SharedBus {
                read: cfg.read_bus,
                write: cfg.write_bus,
            },
        ),
        (
            "private-port",
            DataFabricConfig::PrivatePort {
                grant_cycles: 2,
                port: bank,
            },
        ),
        (
            "mesh",
            DataFabricConfig::Mesh {
                cols: 2,
                rows: 2,
                interleave_bytes: 64,
                link_grant: 2,
                hop_cycles: 1,
                port: bank,
            },
        ),
    ];
    // Timing faults only: none of these can wedge the run.
    let faults = FaultPlan {
        seed: 7,
        sync_delay_rate: 0.05,
        sync_delay_max: 32,
        bus_error_rate: 0.02,
        bus_retry_cycles: 16,
        stall_rate: 0.01,
        stall_cycles: 8,
        ..FaultPlan::default()
    };
    const MAX_CYCLES: u64 = 200_000_000;
    for (label, data) in combos {
        let mk = || {
            let mut b = MpegBuilder::new(cfg, InstanceCosts::default());
            b.with_data_fabric(data);
            b.add_decode("dec0", bs.clone(), DecodeAppConfig::default());
            let mut sys = b.build();
            sys.sys.inject_faults(faults.clone());
            sys
        };
        // Uninterrupted reference; its length also places the save
        // point squarely mid-decode, with the pipeline saturated.
        let mut reference = mk();
        let want = reference.run(MAX_CYCLES);
        assert_eq!(want.outcome, RunOutcome::AllFinished, "{label}");
        let total = want.cycles;
        let f = reference.sys.fault_stats();
        assert!(
            f.sync_delayed > 0 && f.bus_errors > 0 && f.coproc_stalls > 0,
            "{label}: every armed fault class must fire: {f:?}"
        );

        let mut original = mk();
        assert!(
            original.sys.run_until(2 * total / 5).is_none(),
            "{label}: decode must still be mid-flight at the save point"
        );
        let hash_at_save = original.sys.state_hash();
        let bytes = original.sys.save();

        let mut restored = mk();
        restored.sys.restore(&bytes).unwrap();
        assert_eq!(
            restored.sys.state_hash(),
            hash_at_save,
            "{label}: restore does not reproduce the checkpoint hash"
        );
        // Re-saving immediately must be byte-identical: arbiter
        // cursors, in-flight grants, and queued syncs all survive
        // the round-trip, not just the hashed subset.
        assert_eq!(
            restored.sys.save(),
            bytes,
            "{label}: save→restore→save is not byte-stable"
        );

        // Sample the state hash on a fixed stride up to (not including)
        // the finishing cycle, then close the run for its summary.
        let finish = |sys: &mut eclipse_coprocs::instance::MpegSystem| {
            let mut hashes = Vec::new();
            let mut stop = sys.sys.now() + total / 16;
            while stop < total {
                assert!(sys.sys.run_until(stop).is_none(), "{label}");
                hashes.push(sys.sys.state_hash());
                stop += total / 16;
            }
            let summary = sys.run(MAX_CYCLES);
            (hashes, format!("{summary:?}"))
        };
        let (tail_a, summary_a) = finish(&mut original);
        let (tail_b, summary_b) = finish(&mut restored);
        assert_eq!(tail_a, tail_b, "{label}: state-hash tails diverged");
        for (who, sys, summary) in [
            ("interrupted", &original, summary_a),
            ("restored", &restored, summary_b),
        ] {
            assert_eq!(
                summary,
                format!("{want:?}"),
                "{label}: {who} RunSummary diverged"
            );
            assert_eq!(
                sys.sys.state_hash(),
                reference.sys.state_hash(),
                "{label}: {who} state hash diverged"
            );
            assert_eq!(
                sys.sys.save(),
                reference.sys.save(),
                "{label}: {who} checkpoint bytes diverged"
            );
            assert_eq!(
                sys.sys.fault_stats(),
                reference.sys.fault_stats(),
                "{label}: {who} fault counters diverged"
            );
            assert_eq!(
                sys.display_frames("dec0"),
                reference.display_frames("dec0"),
                "{label}: {who} decode produced different frames"
            );
        }
    }
}

/// The mesh data fabric joins the checkpoint-under-load contract —
/// with the save point *proven* to land mid-route: the test scans for a
/// cycle where the mesh still holds an injection-port grant beyond "now"
/// (a chunk in flight on its XY route). Restoring into a fresh build
/// must reproduce the hash, re-save byte-identically, and replay to the
/// same frames.
#[test]
fn mesh_checkpoint_restores_in_flight_routes() {
    use eclipse_mem::MeshDataFabric;

    let bs = encode_test_stream(48, 32, 3, GopConfig { n: 3, m: 1 }, 26);
    let cfg = EclipseConfig::default();
    let bank = BusConfig {
        width_bytes: cfg.read_bus.width_bytes,
        latency: cfg.read_bus.latency,
        cycles_per_beat: cfg.read_bus.cycles_per_beat,
    };
    let mesh = DataFabricConfig::Mesh {
        cols: 2,
        rows: 2,
        interleave_bytes: 64,
        link_grant: 2,
        hop_cycles: 1,
        port: bank,
    };
    let label = "mesh";
    let mk = || {
        let mut b = MpegBuilder::new(cfg, InstanceCosts::default());
        b.with_data_fabric(mesh);
        b.add_decode("dec0", bs.clone(), DecodeAppConfig::default());
        b.build()
    };
    let total = {
        let mut m = mk();
        let s = m.run(200_000_000);
        assert_eq!(s.outcome, RunOutcome::AllFinished, "{label}");
        s.cycles
    };

    // Scan mid-decode for a stop cycle with a route genuinely in flight.
    // Deterministic: the same stream always yields the same first hit.
    let mut original = mk();
    let mut stop = 2 * total / 5;
    let found = loop {
        if stop > 4 * total / 5 {
            break false;
        }
        assert!(
            original.sys.run_until(stop).is_none(),
            "{label}: decode must still be mid-flight while scanning"
        );
        let now = original.sys.now();
        if original
            .sys
            .data_fabric()
            .as_any()
            .downcast_ref::<MeshDataFabric>()
            .expect("mesh data fabric selected")
            .in_flight(now)
        {
            break true;
        }
        stop += 101;
    };
    assert!(found, "{label}: no save point with in-flight routes found");

    let hash_at_save = original.sys.state_hash();
    let bytes = original.sys.save();

    let mut restored = mk();
    restored.sys.restore(&bytes).unwrap();
    assert_eq!(
        restored.sys.state_hash(),
        hash_at_save,
        "{label}: restore does not reproduce the checkpoint hash"
    );
    assert_eq!(
        restored.sys.save(),
        bytes,
        "{label}: save→restore→save is not byte-stable"
    );

    let hashes = |sys: &mut eclipse_coprocs::instance::MpegSystem| {
        let mut out = Vec::new();
        let mut at = sys.sys.now();
        loop {
            at += total / 16;
            match sys.sys.run_until(at) {
                None => out.push(sys.sys.state_hash()),
                Some(outcome) => {
                    assert_eq!(outcome, RunOutcome::AllFinished, "{label}");
                    break;
                }
            }
        }
        out.push(sys.sys.state_hash());
        out
    };
    let tail_a = hashes(&mut original);
    let tail_b = hashes(&mut restored);
    assert_eq!(tail_a, tail_b, "{label}: state-hash tails diverged");
    assert_eq!(
        original.display_frames("dec0"),
        restored.display_frames("dec0"),
        "{label}: restored decode produced different frames"
    );
}

#[test]
fn live_audio_churn_survives_roundtrip() {
    // Live reconfiguration reshapes the shell and DSP tables relative to
    // any fresh build; the checkpoint must rebuild them wholesale.
    let bs = encode_test_stream(48, 32, 4, GopConfig { n: 4, m: 1 }, 25);
    let pcm = audio::synth_pcm(audio::BLOCK_SAMPLES * 4, 0xA5A5);
    let audio_ref = audio::decode(&audio::encode(&pcm));

    // Measuring pass so the audio map and the save both land mid-decode.
    let total = {
        let mut dec = build_decode_system(EclipseConfig::default(), bs.clone());
        let s = dec.system.run(200_000_000);
        assert_eq!(s.outcome, RunOutcome::AllFinished);
        s.cycles
    };

    let mut original = build_decode_system(EclipseConfig::default(), bs.clone());
    assert!(original.system.sys.run_until(total / 4).is_none());
    original
        .system
        .add_audio_live("aud", &pcm, AudioAppConfig::default())
        .expect("live audio admission");
    original.system.sys.run_until(total / 2);
    let hash_at_save = original.system.sys.state_hash();
    let bytes = original.system.sys.save();
    let (tail_a, _) = finish_with_hashes(&mut original, total / 8);
    let pcm_a = original.system.pcm_samples("aud").expect("pcm decoded");

    // The fresh build never saw the audio app; restore recreates its
    // rows, task-table entries, DSP task bindings, and DRAM contents.
    let mut restored = build_decode_system(EclipseConfig::default(), bs);
    restored.system.sys.restore(&bytes).unwrap();
    assert_eq!(restored.system.sys.state_hash(), hash_at_save);
    let (tail_b, _) = finish_with_hashes(&mut restored, total / 8);
    let pcm_b = restored.system.pcm_samples("aud").expect("pcm decoded");

    assert_eq!(tail_a, tail_b, "state-hash tails diverged after restore");
    assert_eq!(pcm_a, pcm_b, "live-mapped audio output diverged");
    assert_eq!(
        pcm_a, audio_ref,
        "audio decode must match the software codec"
    );
}

/// Supervisor rollback restores a checkpoint into the same live system,
/// whose DRAM has since been written past the checkpoint's content. The
/// restore must clear everything the checkpoint holds as zero, up to the
/// live system's written extent, and then replay the uninterrupted run.
#[test]
fn restore_into_used_system_replays_uninterrupted_run() {
    let bs = encode_test_stream(176, 144, 4, GopConfig { n: 12, m: 3 }, 27);
    let mut dec = build_decode_system(EclipseConfig::default(), bs.clone());
    let total = dec.system.run(200_000_000);
    assert_eq!(total.outcome, RunOutcome::AllFinished);
    let total = total.cycles;

    let mut dec_ref = build_decode_system(EclipseConfig::default(), bs.clone());
    assert!(dec_ref.system.sys.run_until(total / 2).is_none());
    let hash_at_save = dec_ref.system.sys.state_hash();
    let bytes = dec_ref.system.sys.save();
    let (tail_ref, digest_ref) = finish_with_hashes(&mut dec_ref, total / 16);
    let frames_ref = dec_ref.system.display_frames("dec0").unwrap();

    // Extent of the checkpoint's DRAM content, as a fresh build sees it.
    let mut fresh = build_decode_system(EclipseConfig::default(), bs);
    fresh.system.sys.restore(&bytes).unwrap();
    let content_extent = fresh.system.sys.dram().extent();

    // `dec` ran to completion, writing past the checkpoint's content;
    // also scribble on the very top of DRAM, which sets the written
    // extent to the full capacity.
    assert!(dec.system.sys.dram().extent() > content_extent);
    let size = dec.system.sys.dram().config().size;
    dec.system.sys.dram_mut().write(size - 4, &[0xA5; 4]);
    assert_eq!(dec.system.sys.dram().extent(), size as usize);

    dec.system.sys.restore(&bytes).unwrap();
    assert_eq!(dec.system.sys.state_hash(), hash_at_save);
    assert_eq!(dec.system.sys.dram().extent(), content_extent);
    // The hash covers only bytes below the extent: compare the whole
    // DRAM with the fresh restore, so nothing above it was left behind.
    let (mut a, mut b) = (vec![0u8; 1 << 16], vec![0u8; 1 << 16]);
    for addr in (0..size).step_by(a.len()) {
        dec.system.sys.dram_mut().read(addr, &mut a);
        fresh.system.sys.dram_mut().read(addr, &mut b);
        assert!(a == b, "DRAM differs from a fresh restore at {addr:#x}");
    }
    let (tail, digest) = finish_with_hashes(&mut dec, total / 16);
    let frames = dec.system.display_frames("dec0").unwrap();

    assert_eq!(tail, tail_ref, "state-hash tails diverged after restore");
    assert_eq!(digest, digest_ref);
    assert_eq!(
        frames, frames_ref,
        "restored decode produced different frames"
    );
}
