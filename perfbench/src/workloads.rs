//! The four workloads: seeded input generation, the system build (the
//! set-up step), one op, and the per-op output check.
//!
//! Every instance is a default one — shared read/write bus, direct sync
//! network, first-fit placement — the configuration that
//! `results/timing_fingerprint.txt` pins. Inputs are generated from the
//! seed before any timing starts; the timed calls only ever see
//! generated inputs.

use std::hash::{BuildHasher, Hasher};
use std::time::Instant;

use eclipse_bench::synthetic::PipeCoproc;
use eclipse_bench::StreamSpec;
use eclipse_coprocs::apps::{DecodeAppConfig, EncodeAppConfig};
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder, MpegSystem};
use eclipse_core::{EclipseConfig, EclipseSystem, RunOutcome, RunSummary, SystemBuilder};
use eclipse_kpn::GraphBuilder;
use eclipse_media::encoder::EncoderConfig;
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::stream::GopConfig;
use eclipse_media::{Decoder, Encoder, Frame};
use eclipse_sim::snapshot::{fnv1a_64, FnvState};

use crate::metrics::{self, Fingerprint};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "decode_qcif",
    "transcode_qcif",
    "pipeline_sync",
    "fork_checkpoint",
];

/// Simulated-cycle limit of every run; all workloads finish far below.
const MAX_CYCLES: u64 = 50_000_000_000;

/// Time-shift recording: encoder GOP, quantizer and the motion search
/// range the instance's ME task uses (as in `examples/transcode_timeshift.rs`).
const REC_GOP: GopConfig = GopConfig { n: 12, m: 3 };
const REC_QSCALE: u8 = 6;
const REC_SEARCH_RANGE: u8 = 8;

/// Synthetic pipelines: `PIPES` independent chains of `STAGES` stages,
/// each task moving `PACKETS` packets of `PACKET_BYTES` through streams
/// of `STREAM_BYTES`. Stage `i` of every chain runs on one shared
/// `stage{i}` worker, so each worker multi-tasks `PIPES` tasks.
const PIPES: usize = 2;
const STAGES: usize = 6;
const PACKETS: u32 = 10_000;
const PACKET_BYTES: u32 = 32;
const STREAM_BYTES: u32 = 128;
/// Compute cycles of the bottleneck, a seeded filter stage; the other
/// stages draw theirs from `FAST_STAGE_MIN..FAST_STAGE_MIN + FAST_STAGE_SPAN`,
/// well below it, so simulated time stays within a few percent across
/// seeds while the per-unit counts move.
const BOTTLENECK_CYCLES: u64 = 60;
const FAST_STAGE_MIN: u64 = 8;
const FAST_STAGE_SPAN: u64 = 12;

/// Standalone kernel timings are medians over this many calls.
const KERNEL_REPS: usize = 5;

/// A built system, ready for one op.
pub enum Sys {
    Mpeg(MpegSystem),
    Plain(EclipseSystem),
}

impl Sys {
    pub fn core(&self) -> &EclipseSystem {
        match self {
            Sys::Mpeg(m) => &m.sys,
            Sys::Plain(s) => s,
        }
    }

    pub fn core_mut(&mut self) -> &mut EclipseSystem {
        match self {
            Sys::Mpeg(m) => &mut m.sys,
            Sys::Plain(s) => s,
        }
    }

    fn mpeg(&self) -> &MpegSystem {
        match self {
            Sys::Mpeg(m) => m,
            Sys::Plain(_) => panic!("MPEG workload built a plain system"),
        }
    }
}

/// Host time of one op, split by the public calls it made.
pub struct Op {
    pub op_s: f64,
    /// Inside `run`.
    pub run_s: f64,
    /// Inside `restore`, `save` and `state_hash` (fork_checkpoint only).
    pub restore_s: f64,
    pub save_s: f64,
    pub state_hash_s: f64,
    /// Size of the checkpoint `save` returned (fork_checkpoint only).
    pub snapshot_bytes: u64,
    /// Simulated cycles the op advanced.
    pub cycles_advanced: u64,
    pub summary: RunSummary,
    /// The final state hash, when the op computed it.
    pub state_hash: Option<u64>,
}

/// Standalone media-kernel cost of the op's inputs, in host seconds.
#[derive(Default)]
pub struct Kernels {
    pub decode_s: f64,
    pub encode_s: f64,
}

enum Inputs {
    Decode {
        bits: Vec<u8>,
        reference: Vec<Frame>,
    },
    Transcode {
        live_bits: Vec<u8>,
        live_ref: Vec<Frame>,
        camera: Vec<Frame>,
    },
    Pipeline {
        compute: [u64; STAGES],
    },
    Fork {
        bits: Vec<u8>,
        reference: Vec<Frame>,
        checkpoint: Vec<u8>,
        checkpoint_cycle: u64,
        final_cycles: u64,
        final_hash: u64,
    },
}

/// One workload with its generated inputs.
pub struct Workload {
    pub name: &'static str,
    inputs: Inputs,
}

/// The Fig. 10 QCIF IPBB stream with the seed as the source's content
/// seed (seed 0xEC11 is `StreamSpec::qcif()` itself).
fn qcif_stream(seed: u64) -> Vec<u8> {
    StreamSpec {
        seed,
        ..StreamSpec::qcif()
    }
    .encode()
    .0
}

fn decode_reference(bits: &[u8]) -> Vec<Frame> {
    Decoder::decode(bits)
        .expect("generated stream decodes")
        .frames
}

fn build_decode(bits: &[u8]) -> MpegSystem {
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    b.add_decode("dec0", bits.to_vec(), DecodeAppConfig::default());
    b.build()
}

/// SplitMix64 step: the pipeline's cost draws.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-stage compute cycles: one seeded filter stage is the bottleneck
/// and the others are fast, so the stages around it wait for space.
fn pipeline_costs(seed: u64) -> [u64; STAGES] {
    let mut state = seed;
    let bottleneck = 1 + (splitmix(&mut state) % (STAGES as u64 - 2)) as usize;
    let mut costs = [0; STAGES];
    for (i, c) in costs.iter_mut().enumerate() {
        *c = if i == bottleneck {
            BOTTLENECK_CYCLES
        } else {
            FAST_STAGE_MIN + splitmix(&mut state) % FAST_STAGE_SPAN
        };
    }
    costs
}

fn stage_kind(i: usize) -> &'static str {
    match i {
        0 => "source",
        i if i == STAGES - 1 => "sink",
        _ => "filter",
    }
}

fn build_pipeline(compute: &[u64; STAGES]) -> EclipseSystem {
    let mut b = SystemBuilder::new(EclipseConfig::default());
    for (i, &c) in compute.iter().enumerate() {
        b.add_coprocessor(Box::new(PipeCoproc::worker(
            format!("stage{i}"),
            format!("stage{i}"),
            PACKETS,
            PACKET_BYTES,
            c,
            stage_kind(i),
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
        b.map_app(&g.build().expect("pipeline graph is valid"))
            .expect("pipeline maps");
    }
    b.build()
}

fn frames_digest(frames: &[Frame]) -> u64 {
    let mut h = FnvState.build_hasher();
    for f in frames {
        h.write(&f.y.data);
        h.write(&f.u.data);
        h.write(&f.v.data);
    }
    h.finish()
}

fn check_frames(sys: &Sys, prefix: &str, reference: &[Frame]) -> Result<u64, String> {
    let frames = sys
        .mpeg()
        .display_frames(prefix)
        .ok_or_else(|| format!("no display output for {prefix}"))?;
    if frames.len() != reference.len() || frames.iter().zip(reference).any(|(a, b)| a != b) {
        return Err(format!(
            "{prefix}: {} displayed frames differ from the software decoder's {}",
            frames.len(),
            reference.len()
        ));
    }
    Ok(frames_digest(&frames))
}

fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    metrics::median(&mut t)
}

impl Workload {
    /// Generate the inputs of workload `name` from `seed`, or `None` for
    /// an unknown name. Nothing here is timed.
    pub fn generate(name: &str, seed: u64) -> Option<Workload> {
        let (name, inputs) = match name {
            "decode_qcif" => {
                let bits = qcif_stream(seed);
                let reference = decode_reference(&bits);
                (NAMES[0], Inputs::Decode { bits, reference })
            }
            "transcode_qcif" => {
                let live_bits = qcif_stream(seed);
                let live_ref = decode_reference(&live_bits);
                let spec = StreamSpec::qcif();
                let camera = SyntheticSource::new(SourceConfig {
                    width: spec.width,
                    height: spec.height,
                    complexity: 0.4,
                    motion: 1.5,
                    seed: seed ^ 0x5EED_CA3E_4A00_0000,
                })
                .frames(spec.frames);
                (
                    NAMES[1],
                    Inputs::Transcode {
                        live_bits,
                        live_ref,
                        camera,
                    },
                )
            }
            "pipeline_sync" => (
                NAMES[2],
                Inputs::Pipeline {
                    compute: pipeline_costs(seed),
                },
            ),
            "fork_checkpoint" => {
                let bits = qcif_stream(seed);
                let reference = decode_reference(&bits);
                let mut whole = build_decode(&bits);
                let done = whole.run(MAX_CYCLES);
                assert_eq!(done.outcome, RunOutcome::AllFinished, "reference decode");
                let checkpoint_cycle = done.cycles / 2;
                let mut prefix = build_decode(&bits);
                assert_eq!(prefix.sys.run_until(checkpoint_cycle), None, "mid-run stop");
                (
                    NAMES[3],
                    Inputs::Fork {
                        checkpoint: prefix.sys.save(),
                        checkpoint_cycle,
                        final_cycles: done.cycles,
                        final_hash: whole.sys.state_hash(),
                        bits,
                        reference,
                    },
                )
            }
            _ => return None,
        };
        Some(Workload { name, inputs })
    }

    /// Set-up: build a fresh system from the generated inputs.
    pub fn build(&self) -> Sys {
        match &self.inputs {
            Inputs::Decode { bits, .. } | Inputs::Fork { bits, .. } => {
                Sys::Mpeg(build_decode(bits))
            }
            Inputs::Transcode {
                live_bits, camera, ..
            } => {
                let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
                b.add_decode("watch", live_bits.clone(), DecodeAppConfig::default());
                b.add_encode(
                    "record",
                    camera.clone(),
                    REC_GOP,
                    REC_QSCALE,
                    REC_SEARCH_RANGE,
                    EncodeAppConfig::default(),
                );
                Sys::Mpeg(b.build())
            }
            Inputs::Pipeline { compute } => Sys::Plain(build_pipeline(compute)),
        }
    }

    /// One op on a freshly built system. The fork op restores the
    /// mid-run checkpoint, runs to completion, then saves and hashes the
    /// final state; every other op is one `run`.
    pub fn op(&self, sys: &mut Sys) -> Result<Op, String> {
        let core = sys.core_mut();
        let start = Instant::now();
        if let Inputs::Fork {
            checkpoint,
            checkpoint_cycle,
            ..
        } = &self.inputs
        {
            core.restore(checkpoint)
                .map_err(|e| format!("restore failed: {e:?}"))?;
            let restored = Instant::now();
            let summary = core.run(MAX_CYCLES);
            let ran = Instant::now();
            let saved = core.save();
            let saved_at = Instant::now();
            let hash = core.state_hash();
            let end = Instant::now();
            return Ok(Op {
                op_s: (end - start).as_secs_f64(),
                run_s: (ran - restored).as_secs_f64(),
                restore_s: (restored - start).as_secs_f64(),
                save_s: (saved_at - ran).as_secs_f64(),
                state_hash_s: (end - saved_at).as_secs_f64(),
                snapshot_bytes: saved.len() as u64,
                cycles_advanced: summary.cycles - checkpoint_cycle,
                summary,
                state_hash: Some(hash),
            });
        }
        let summary = core.run(MAX_CYCLES);
        let run_s = start.elapsed().as_secs_f64();
        Ok(Op {
            op_s: run_s,
            run_s,
            restore_s: 0.0,
            save_s: 0.0,
            state_hash_s: 0.0,
            snapshot_bytes: 0,
            cycles_advanced: summary.cycles,
            summary,
            state_hash: None,
        })
    }

    /// Check the op's outputs against the workload's oracle and return
    /// its exact fingerprint (simulated cycles, per-layer counts and an
    /// output digest), which must repeat on every op of a run.
    pub fn check(&self, sys: &Sys, op: &Op) -> Result<Fingerprint, String> {
        let s = &op.summary;
        if s.outcome != RunOutcome::AllFinished {
            return Err(format!("run ended with {:?}", s.outcome));
        }
        if s.media_errors != 0 || s.concealed_mbs != 0 {
            return Err(format!(
                "{} media errors, {} concealed macroblocks on a clean input",
                s.media_errors, s.concealed_mbs
            ));
        }
        let output = match &self.inputs {
            Inputs::Decode { reference, .. } => check_frames(sys, "dec0", reference)?,
            Inputs::Transcode { live_ref, .. } => {
                let watched = check_frames(sys, "watch", live_ref)?;
                let recorded = sys
                    .mpeg()
                    .encoded_bytes("record")
                    .ok_or("no recorded stream")?;
                let playback = Decoder::decode(&recorded)
                    .map_err(|e| format!("recorded stream does not decode: {e:?}"))?;
                if playback.frames.len() != live_ref.len() {
                    return Err(format!(
                        "recorded stream holds {} frames, expected {}",
                        playback.frames.len(),
                        live_ref.len()
                    ));
                }
                // The recorded bytes enter the fingerprint, so they must
                // be byte-identical across the ops of a run.
                watched ^ fnv1a_64(&recorded).rotate_left(1)
            }
            Inputs::Pipeline { .. } => {
                let core = sys.core();
                if !core.shells().iter().all(|sh| sh.all_tasks_finished()) {
                    return Err("a pipeline task did not finish".into());
                }
                // Every packet crossing a stream costs one putspace from
                // its producer and one from its consumer, and every
                // completed step moves one packet.
                let messages = (PIPES * (STAGES - 1)) as u64 * 2 * PACKETS as u64;
                let steps = (PIPES * STAGES) as u64 * PACKETS as u64;
                let shells = core.shells();
                let sent: u64 = shells.iter().map(|sh| sh.stats.messages_sent).sum();
                let got_steps: u64 = shells
                    .iter()
                    .flat_map(|sh| sh.tasks())
                    .map(|t| t.stats.steps)
                    .sum();
                if sent != messages || got_steps != steps {
                    return Err(format!(
                        "putspace messages {sent} (graph: {messages}), steps {got_steps} (graph: {steps})"
                    ));
                }
                // The run ends when the last task finishes, which may
                // leave each chain's final credit undelivered.
                if s.sync_messages > sent || sent - s.sync_messages > PIPES as u64 {
                    return Err(format!(
                        "{} of {sent} putspace messages delivered",
                        s.sync_messages
                    ));
                }
                0
            }
            Inputs::Fork {
                reference,
                final_hash,
                ..
            } => {
                if op.state_hash != Some(*final_hash) {
                    return Err(format!(
                        "forked state hash {:?} differs from the uninterrupted run's {final_hash:#x}",
                        op.state_hash
                    ));
                }
                check_frames(sys, "dec0", reference)?
            }
        };
        Ok(metrics::fingerprint(sys.core(), s, output))
    }

    /// Standalone cost of the media kernels on the op's own bitstream
    /// and frames (0 where the workload runs none). The fork op decodes
    /// only the part of the stream after the checkpoint, so its share is
    /// pro-rated by simulated cycles.
    pub fn kernels(&self) -> Kernels {
        let decode = |bits: &[u8]| {
            median_time(KERNEL_REPS, || {
                std::hint::black_box(Decoder::decode(std::hint::black_box(bits)).is_ok());
            })
        };
        match &self.inputs {
            Inputs::Decode { bits, .. } => Kernels {
                decode_s: decode(bits),
                encode_s: 0.0,
            },
            Inputs::Transcode {
                live_bits, camera, ..
            } => {
                let spec = StreamSpec::qcif();
                let enc = Encoder::new(EncoderConfig {
                    width: spec.width,
                    height: spec.height,
                    qscale: REC_QSCALE,
                    gop: REC_GOP,
                    search_range: REC_SEARCH_RANGE,
                });
                Kernels {
                    decode_s: decode(live_bits),
                    encode_s: median_time(KERNEL_REPS, || {
                        std::hint::black_box(enc.encode(std::hint::black_box(camera)).0.len());
                    }),
                }
            }
            Inputs::Pipeline { .. } => Kernels::default(),
            Inputs::Fork {
                bits,
                checkpoint_cycle,
                final_cycles,
                ..
            } => Kernels {
                decode_s: decode(bits) * (1.0 - *checkpoint_cycle as f64 / *final_cycles as f64),
                encode_s: 0.0,
            },
        }
    }

    /// A line describing the generated inputs, for the report.
    pub fn describe(&self) -> String {
        match &self.inputs {
            Inputs::Decode { bits, reference } | Inputs::Fork { bits, reference, .. } => {
                format!(
                    "QCIF IPBB stream, {} frames, {} bytes",
                    reference.len(),
                    bits.len()
                )
            }
            Inputs::Transcode {
                live_bits, camera, ..
            } => format!(
                "decode {} bytes + encode {} camera frames (search range {REC_SEARCH_RANGE})",
                live_bits.len(),
                camera.len()
            ),
            Inputs::Pipeline { compute } => format!(
                "{PIPES} pipelines x {STAGES} stages x {PACKETS} packets of {PACKET_BYTES} B, stage compute {compute:?} cycles"
            ),
        }
    }
}
