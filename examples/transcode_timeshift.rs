//! Time-shift transcoding (the paper's set-top-box motivation): decode
//! one stream while encoding another on the *same* coprocessors — the
//! DCT unit simultaneously time-shares the decode IDCT, the encode FDCT,
//! and the encoder's reconstruction IDCT; the MC/ME unit runs decode MC,
//! encode ME, and the reconstruction loop.
//! (`cargo run --release --example transcode_timeshift`)

use eclipse::coprocs::apps::{DecodeAppConfig, EncodeAppConfig};
use eclipse::coprocs::instance::{InstanceCosts, MpegBuilder};
use eclipse::core::{EclipseConfig, RunOutcome};
use eclipse::media::encoder::{Encoder, EncoderConfig};
use eclipse::media::source::{SourceConfig, SyntheticSource};
use eclipse::media::stream::GopConfig;
use eclipse::media::Decoder;

fn main() {
    let (width, height, frames) = (96, 80, 6);
    let gop = GopConfig { n: 6, m: 3 };

    // The "broadcast" stream we are watching (decode side).
    let live = SyntheticSource::new(SourceConfig {
        width,
        height,
        complexity: 0.5,
        motion: 2.0,
        seed: 77,
    });
    let live_frames = live.frames(frames);
    let enc = Encoder::new(EncoderConfig {
        width,
        height,
        qscale: 6,
        gop,
        search_range: 15,
    });
    let (live_bits, _) = enc.encode(&live_frames);
    let live_ref = Decoder::decode(&live_bits).unwrap();

    // The camera feed we are recording (encode side).
    let cam = SyntheticSource::new(SourceConfig {
        width,
        height,
        complexity: 0.4,
        motion: 1.5,
        seed: 88,
    });
    let cam_frames = cam.frames(frames);

    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    b.add_decode("watch", live_bits, DecodeAppConfig::default());
    b.add_encode(
        "record",
        cam_frames.clone(),
        gop,
        6,
        8,
        EncodeAppConfig::default(),
    );
    let mut sys = b.build();
    let summary = sys.run(50_000_000_000);
    assert_eq!(summary.outcome, RunOutcome::AllFinished);

    // Watching: bit-exact decode despite the concurrent encode.
    let watched = sys.display_frames("watch").unwrap();
    assert!(watched.iter().zip(&live_ref.frames).all(|(a, b)| a == b));
    println!(
        "decode side: {} frames bit-exact while encoding concurrently",
        watched.len()
    );

    // Recording: the produced bitstream is exactly what the software
    // encoder makes of the same camera frames (Kahn determinism: the
    // stream does not depend on how the shared units interleave), and it
    // decodes with good quality.
    let recorded = sys.encoded_bytes("record").unwrap();
    let (software, _) = Encoder::new(EncoderConfig {
        width,
        height,
        qscale: 6,
        gop,
        search_range: 8,
    })
    .encode(&cam_frames);
    assert!(
        recorded == software,
        "recorded stream ({} B) differs from the software encoder's ({} B)",
        recorded.len(),
        software.len()
    );
    let playback = Decoder::decode(&recorded).expect("recorded stream is valid");
    let worst = playback
        .frames
        .iter()
        .zip(&cam_frames)
        .map(|(d, s)| d.psnr_y(s))
        .fold(f64::INFINITY, f64::min);
    println!(
        "encode side: {} frames -> {} kB, byte-identical to the software encoder, \
         playback quality {:.1} dB (worst frame)",
        playback.frames.len(),
        recorded.len() / 1024,
        worst
    );

    println!("\nshared-unit task tables:");
    for (i, name) in sys.sys.shell_names().iter().enumerate() {
        let shell = &sys.sys.shells()[i];
        let tasks: Vec<&str> = shell.tasks().iter().map(|t| t.cfg.name.as_str()).collect();
        println!("  {:<8} {:?}", name, tasks);
    }
    println!(
        "\ntotal: {} cycles ({:.2} ms at 150 MHz)",
        summary.cycles,
        summary.cycles as f64 / 150e3
    );
}
