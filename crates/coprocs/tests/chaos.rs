//! Robustness integration tests (ISSUE 3): deadlock diagnosis on
//! undersized buffers, deterministic fault injection, credit
//! conservation on clean runs, and graceful degradation of the full
//! coprocessor pipeline on corrupted bitstreams.

use eclipse_coprocs::apps::DecodeAppConfig;
use eclipse_coprocs::instance::{
    build_decode_system, try_build_decode_system, InstanceCosts, MpegBuilder,
};
use eclipse_core::{EclipseConfig, RunOutcome};
use eclipse_media::encoder::{Encoder, EncoderConfig};
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::stream::GopConfig;
use eclipse_sim::{corrupt_bytes, FaultPlan};

fn encode_test_stream(frames: u16, gop: GopConfig, seed: u64) -> Vec<u8> {
    let src = SyntheticSource::new(SourceConfig {
        width: 48,
        height: 32,
        complexity: 0.35,
        motion: 2.0,
        seed,
    });
    let enc = Encoder::new(EncoderConfig {
        width: 48,
        height: 32,
        qscale: 6,
        gop,
        search_range: 7,
    });
    enc.encode(&src.frames(frames)).0
}

/// Acceptance criterion: a decode graph whose MC→display buffer cannot
/// hold even one reconstructed-macroblock record wedges — and the run
/// must terminate with a deadlock diagnosis naming the stuck tasks and
/// the starved streams, not spin to `max_cycles`.
#[test]
fn undersized_buffer_deadlock_names_tasks_and_streams() {
    let bs = encode_test_stream(2, GopConfig { n: 1, m: 1 }, 31);
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    b.add_decode(
        "dec0",
        bs,
        DecodeAppConfig {
            // One PIX record is 385 bytes: nothing ever fits.
            recon_buf: 256,
            ..DecodeAppConfig::default()
        },
    );
    let mut sys = b.build();
    sys.sys.set_watchdog(2_000_000);
    let summary = sys.run(50_000_000);
    match &summary.outcome {
        RunOutcome::Deadlock(blocked) => {
            assert!(!blocked.is_empty(), "diagnosis must list the stuck tasks");
            let all = blocked
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n");
            // The MC task is stuck writing the undersized stream; the
            // diagnosis names it, the port's stream label, and the
            // local space view.
            assert!(all.contains("dec0.mc"), "names the task: {all}");
            assert!(all.contains("blocked on port"), "names the port: {all}");
            assert!(all.contains("local space"), "shows the space view: {all}");
            assert!(all.contains("recon"), "names the starved stream: {all}");
        }
        other => panic!("expected a deadlock diagnosis, got {other:?}"),
    }
}

/// One seed, one fault schedule: two runs with the same plan are
/// cycle-identical and inject the identical fault mix.
#[test]
fn fault_injection_is_deterministic_per_seed() {
    let bs = encode_test_stream(3, GopConfig { n: 3, m: 1 }, 32);
    let run = |seed: u64| {
        let mut dec = build_decode_system(EclipseConfig::default(), bs.clone());
        dec.system.sys.inject_faults(FaultPlan {
            bus_error_rate: 0.02,
            stall_rate: 0.001,
            sync_delay_rate: 0.02,
            ..FaultPlan::with_seed(seed)
        });
        dec.system.sys.set_watchdog(5_000_000);
        let s = dec.system.run(100_000_000);
        (s.cycles, s.sync_messages, s.faults)
    };
    let a = run(0xDEAD_BEEF);
    let b = run(0xDEAD_BEEF);
    assert_eq!(a, b, "same seed must reproduce the run exactly");
    assert!(a.2.total() > 0, "the plan must actually inject faults");
    let c = run(0x0BAD_CAFE);
    assert_ne!(a.2, c.2, "a different seed draws a different fault mix");
}

/// A clean decode passes the credit-conservation checker (which panics
/// on violation) and reports zero faults and media errors.
#[test]
fn clean_decode_passes_credit_check() {
    let bs = encode_test_stream(2, GopConfig { n: 2, m: 1 }, 33);
    let mut dec = build_decode_system(EclipseConfig::default(), bs);
    dec.system.sys.enable_credit_check();
    let summary = dec.system.run(100_000_000);
    assert_eq!(summary.outcome, RunOutcome::AllFinished);
    assert_eq!(summary.faults.total(), 0);
    assert_eq!(summary.media_errors, 0);
    assert_eq!(summary.concealed_mbs, 0);
}

/// Acceptance criterion: ~1% byte corruption past the sequence header
/// must not panic or wedge the hardware pipeline — the run terminates
/// and the damage shows up in the error/concealment counters.
#[test]
fn corrupted_bitstream_decodes_without_panic_and_reports_damage() {
    let mut bs = encode_test_stream(6, GopConfig { n: 6, m: 3 }, 34);
    // Spare the 15-byte sequence header (it sizes the frame arena).
    let flipped = corrupt_bytes(&mut bs[16..], 0.01, 0xFACE);
    assert!(flipped > 0);
    let mut dec = try_build_decode_system(EclipseConfig::default(), bs).expect("header is intact");
    dec.system.sys.set_watchdog(5_000_000);
    let summary = dec.system.run(400_000_000);
    // Graceful termination: ideally every task finishes (VLD resyncs and
    // emits EOS); a residual wedge must at least be *diagnosed*.
    match &summary.outcome {
        RunOutcome::AllFinished | RunOutcome::Deadlock(_) => {}
        other => panic!("corrupted run must terminate, got {other:?}"),
    }
    assert!(
        summary.media_errors + summary.concealed_mbs > 0,
        "1% corruption must be detected and counted: errors {} concealed {}",
        summary.media_errors,
        summary.concealed_mbs
    );
}

/// Corruption confined to the *tail* of the stream: the pipeline
/// finishes cleanly (resync + EOS) and still delivers every leading
/// picture to the display.
#[test]
fn tail_corruption_still_finishes_and_displays_leading_frames() {
    let bs = encode_test_stream(4, GopConfig { n: 4, m: 1 }, 35);
    let cut = bs.len() * 3 / 4;
    let mut damaged = bs;
    corrupt_bytes(&mut damaged[cut..], 0.05, 7);
    let mut dec =
        try_build_decode_system(EclipseConfig::default(), damaged).expect("header is intact");
    dec.system.sys.set_watchdog(5_000_000);
    let summary = dec.system.run(400_000_000);
    match &summary.outcome {
        RunOutcome::AllFinished | RunOutcome::Deadlock(_) => {}
        other => panic!("corrupted run must terminate, got {other:?}"),
    }
    if summary.outcome == RunOutcome::AllFinished {
        let frames = dec.system.display_frames("dec0").unwrap_or_default();
        assert!(
            !frames.is_empty(),
            "the undamaged prefix must still reach the display"
        );
    }
}

/// SRAM bit flips anywhere in the encode pipeline (source → ME → FDCT →
/// QRL → VLE, and the IQ → IDCT → RECON loop) must never panic: every
/// damaged record is skipped or substituted and counted, and each run
/// finishes or ends in a diagnosed deadlock.
#[test]
fn sram_flips_in_the_encode_pipeline_never_panic() {
    use eclipse_coprocs::apps::EncodeAppConfig;
    let frames = SyntheticSource::new(SourceConfig {
        width: 48,
        height: 32,
        complexity: 0.3,
        motion: 1.5,
        seed: 33,
    })
    .frames(7);
    let run = |plan: Option<FaultPlan>| {
        let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
        b.add_encode(
            "enc0",
            frames.clone(),
            GopConfig { n: 12, m: 3 },
            6,
            7,
            EncodeAppConfig::default(),
        );
        let mut sys = b.build();
        if let Some(plan) = plan {
            sys.sys.inject_faults(plan);
        }
        sys.sys.set_watchdog(5_000_000);
        sys.run(2_000_000_000)
    };
    let clean = run(None);
    assert_eq!(clean.outcome, RunOutcome::AllFinished);
    assert_eq!(clean.media_errors, 0, "a clean encode reports no damage");
    let mut damaged_runs = 0;
    for seed in 0..40u64 {
        let summary = run(Some(FaultPlan {
            sram_flip_rate: 0.002,
            ..FaultPlan::with_seed(seed)
        }));
        match &summary.outcome {
            RunOutcome::AllFinished => {}
            RunOutcome::Deadlock(blocked) => {
                assert!(!blocked.is_empty(), "seed {seed}: undiagnosed deadlock")
            }
            other => panic!("seed {seed}: encode must terminate, got {other:?}"),
        }
        damaged_runs += (summary.media_errors > 0) as u32;
    }
    assert!(damaged_runs > 0, "some flips must be detected and counted");
}

/// Writes a fixed byte script to its output port in one step, then
/// finishes — or, as a sink, waits for `len` bytes on its input and
/// keeps them.
struct Script {
    function: &'static str,
    bytes: Vec<u8>,
    sink: bool,
    done: bool,
}

impl eclipse_core::Coprocessor for Script {
    fn name(&self) -> &str {
        self.function
    }
    fn supports(&self, function: &str) -> bool {
        function == self.function
    }
    fn configure_task(
        &mut self,
        _t: eclipse_shell::TaskIdx,
        _d: &eclipse_kpn::graph::TaskDecl,
    ) -> (Vec<u32>, Vec<u32>) {
        let n = self.bytes.len() as u32;
        if self.sink {
            (vec![n], vec![])
        } else {
            (vec![], vec![n])
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn step(
        &mut self,
        _task: eclipse_shell::TaskIdx,
        _info: u32,
        ctx: &mut eclipse_core::StepCtx<'_>,
    ) -> eclipse_core::StepResult {
        use eclipse_core::StepResult;
        if self.done {
            return StepResult::Finished;
        }
        let n = self.bytes.len() as u32;
        if !ctx.get_space(0, n) {
            return StepResult::Blocked;
        }
        if self.sink {
            ctx.read(0, 0, &mut self.bytes);
        } else {
            ctx.write(0, 0, &self.bytes);
        }
        ctx.put_space(0, n);
        self.done = true;
        StepResult::Finished
    }
}

/// A residual record damaged to `i16::MAX` samples (a flipped high bit)
/// reaches the decode-side `mc` task on a forward-predicted macroblock
/// whose prediction is non-zero. The reconstruction must saturate to
/// 255, not overflow.
#[test]
fn mc_saturates_a_damaged_max_residual() {
    use eclipse_coprocs::cost::McCost;
    use eclipse_coprocs::mcme::{arena_bytes, McMeCoproc, McTaskConfig, DECODE_SLOTS};
    use eclipse_coprocs::records::{self, mode, PicRec, TAG_EOS};
    use eclipse_media::motion::MotionVector;
    use eclipse_media::stream::PictureType;

    // One 16×16 macroblock: an intra I picture of residual 100, then a
    // P picture predicting forward from it with every sample i16::MAX.
    let pic = |ptype, temporal_ref| PicRec {
        ptype,
        qscale: 8,
        temporal_ref,
        mb_cols: 1,
        mb_rows: 1,
    };
    let zero = MotionVector::default();
    let mut mv = Vec::new();
    mv.extend(pic(PictureType::I, 0).to_bytes());
    mv.extend(records::mbmv_to_bytes(mode::INTRA, 0x3F, zero, zero));
    mv.extend(pic(PictureType::P, 1).to_bytes());
    mv.extend(records::mbmv_to_bytes(mode::FWD, 0x3F, zero, zero));
    mv.push(TAG_EOS);
    let mut resid = Vec::new();
    for value in [100i16, i16::MAX] {
        for _ in 0..6 {
            resid.extend(records::cblk_to_bytes(&[value; 64]));
        }
    }
    resid.push(TAG_EOS);
    let pix_len = 2 * (records::PIC_REC_BYTES + 1 + records::PIX_REC_BYTES) as usize + 1;

    let mut b = eclipse_core::SystemBuilder::new(EclipseConfig::default());
    let arena_base = b.dram_alloc(arena_bytes(16, 16, DECODE_SLOTS), 64);
    let cfgs = [(
        "mc0".to_string(),
        McTaskConfig {
            arena_base,
            width: 16,
            height: 16,
            search_range: 0,
        },
    )]
    .into_iter()
    .collect();
    b.add_coprocessor(Box::new(McMeCoproc::new(McCost::default(), cfgs)));
    let script = |function, bytes, sink| Script {
        function,
        bytes,
        sink,
        done: false,
    };
    b.add_coprocessor(Box::new(script("mvsrc", mv, false)));
    b.add_coprocessor(Box::new(script("ressrc", resid, false)));
    let sink = b.add_coprocessor(Box::new(script("pixsink", vec![0; pix_len], true)));
    let mut g = eclipse_kpn::GraphBuilder::new("mc_overflow");
    let s_mv = g.stream("mv", 256);
    let s_res = g.stream("res", 2048);
    let s_pix = g.stream("pix", 2048);
    g.task("feed_mv", "mvsrc", 0, &[], &[s_mv]);
    g.task("feed_res", "ressrc", 0, &[], &[s_res]);
    g.task("mc0", "mc", 0, &[s_mv, s_res], &[s_pix]);
    g.task("drain", "pixsink", 0, &[s_pix], &[]);
    b.map_app(&g.build().unwrap()).unwrap();
    let mut sys = b.build();

    let summary = sys.run(10_000_000);
    assert_eq!(summary.outcome, RunOutcome::AllFinished);
    let out = &sys
        .coproc(sink)
        .as_any()
        .downcast_ref::<Script>()
        .unwrap()
        .bytes;
    // PIC I, MB I, PIC P, MB P, EOS.
    let mb = |k: usize| {
        let start = records::PIC_REC_BYTES as usize * (k + 1)
            + (1 + records::PIX_REC_BYTES as usize) * k
            + 1;
        &out[start..start + records::PIX_REC_BYTES as usize]
    };
    assert!(mb(0).iter().all(|&p| p == 100), "intra MB reconstructs");
    assert!(mb(1).iter().all(|&p| p == 255), "damaged MB saturates");
    assert_eq!(out[pix_len - 1], TAG_EOS);
}
