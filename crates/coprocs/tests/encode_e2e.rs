//! End-to-end encode verification: the Eclipse encode pipeline (source →
//! ME → FDCT → QRL → VLE → sink, with the QRL → IQ → IDCT → RECON
//! reconstruction loop) must produce a bitstream the *software* decoder
//! accepts, with normal codec quality — and simultaneous
//! encode+decode mixes must work on the shared coprocessors.

use eclipse_coprocs::apps::{DecodeAppConfig, EncodeAppConfig};
use eclipse_coprocs::instance::{InstanceCosts, MpegBuilder};
use eclipse_core::{EclipseConfig, RunOutcome};
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::stream::{GopConfig, PictureType};
use eclipse_media::Decoder;

fn source_frames(width: usize, height: usize, n: u16, seed: u64) -> Vec<eclipse_media::Frame> {
    SyntheticSource::new(SourceConfig {
        width,
        height,
        complexity: 0.3,
        motion: 1.5,
        seed,
    })
    .frames(n)
}

#[test]
fn eclipse_encoded_stream_decodes_with_good_quality() {
    let frames = source_frames(48, 32, 6, 31);
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    b.add_encode(
        "enc0",
        frames.clone(),
        GopConfig { n: 6, m: 1 },
        5,
        7,
        EncodeAppConfig::default(),
    );
    let mut sys = b.build();
    let summary = sys.run(500_000_000);
    assert_eq!(
        summary.outcome,
        RunOutcome::AllFinished,
        "encode must complete"
    );

    let bytes = sys
        .encoded_bytes("enc0")
        .expect("sink collected the bitstream");
    assert!(!bytes.is_empty());
    let decoded = Decoder::decode(&bytes).expect("software decoder accepts the Eclipse bitstream");
    assert_eq!(decoded.frames.len(), frames.len());
    for (i, (dec, src)) in decoded.frames.iter().zip(&frames).enumerate() {
        let psnr = dec.psnr_y(src);
        assert!(psnr > 24.0, "frame {i}: PSNR {psnr:.1} dB too low");
    }
    // The stream uses I and P pictures as planned.
    use std::collections::HashSet;
    let types: HashSet<PictureType> = decoded.pictures.iter().map(|p| p.ptype).collect();
    assert!(types.contains(&PictureType::I) && types.contains(&PictureType::P));
}

#[test]
fn eclipse_encode_with_b_pictures() {
    let frames = source_frames(48, 32, 7, 33);
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
    let summary = sys.run(1_000_000_000);
    assert_eq!(summary.outcome, RunOutcome::AllFinished);
    let bytes = sys.encoded_bytes("enc0").unwrap();
    let decoded = Decoder::decode(&bytes).expect("decodes");
    assert!(
        decoded.pictures.iter().any(|p| p.ptype == PictureType::B),
        "B pictures expected"
    );
    for (i, (dec, src)) in decoded.frames.iter().zip(&frames).enumerate() {
        let psnr = dec.psnr_y(src);
        assert!(psnr > 22.0, "frame {i}: PSNR {psnr:.1} dB");
    }
}

#[test]
fn simultaneous_encode_and_decode_share_the_coprocessors() {
    // The paper's transcoder-flavoured mix: decode one stream while
    // encoding another, multi-tasking VLD/RLSQ/DCT/MC-ME.
    let dec_frames = source_frames(48, 32, 4, 35);
    let enc = eclipse_media::Encoder::new(eclipse_media::EncoderConfig {
        width: 48,
        height: 32,
        qscale: 6,
        gop: GopConfig { n: 4, m: 1 },
        search_range: 7,
    });
    let (bitstream, _) = enc.encode(&dec_frames);
    let reference = Decoder::decode(&bitstream).unwrap();

    let enc_frames = source_frames(48, 32, 4, 36);
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    b.add_decode("dec0", bitstream, DecodeAppConfig::default());
    b.add_encode(
        "enc0",
        enc_frames.clone(),
        GopConfig { n: 4, m: 1 },
        6,
        7,
        EncodeAppConfig::default(),
    );
    let mut sys = b.build();
    let summary = sys.run(1_000_000_000);
    assert_eq!(summary.outcome, RunOutcome::AllFinished);

    // Decode half still bit-exact.
    let frames = sys.display_frames("dec0").unwrap();
    for (i, (sim, sw)) in frames.iter().zip(&reference.frames).enumerate() {
        assert_eq!(
            sim, sw,
            "decode frame {i} corrupted by the concurrent encode"
        );
    }
    // Encode half still valid.
    let bytes = sys.encoded_bytes("enc0").unwrap();
    let decoded = Decoder::decode(&bytes).unwrap();
    for (dec, src) in decoded.frames.iter().zip(&enc_frames) {
        assert!(dec.psnr_y(src) > 24.0);
    }
    // Multi-tasking actually happened: the DCT shell hosted 3 tasks
    // (decode idct, encode fdct, encode idct) and switched between them.
    let dct_shell = &sys.sys.shells()[sys.coprocs.dct];
    assert_eq!(dct_shell.tasks().len(), 3);
    assert!(
        dct_shell.sched().switches > 2,
        "expected task switches on the DCT"
    );
}

/// Encode `frames` on the Eclipse instance and with the software
/// `Encoder` under the same parameters; return both bitstreams.
fn eclipse_and_software_streams(
    frames: &[eclipse_media::Frame],
    gop: GopConfig,
    qscale: u8,
    search_range: u8,
) -> (Vec<u8>, Vec<u8>) {
    let mut b = MpegBuilder::new(EclipseConfig::default(), InstanceCosts::default());
    b.add_encode(
        "enc0",
        frames.to_vec(),
        gop,
        qscale,
        search_range,
        EncodeAppConfig::default(),
    );
    let mut sys = b.build();
    let summary = sys.run(2_000_000_000);
    assert_eq!(summary.outcome, RunOutcome::AllFinished);
    let eclipse = sys.encoded_bytes("enc0").unwrap();
    let software = eclipse_media::Encoder::new(eclipse_media::EncoderConfig {
        width: frames[0].width,
        height: frames[0].height,
        qscale,
        gop,
        search_range,
    })
    .encode(frames)
    .0;
    (eclipse, software)
}

/// Kahn determinism, end to end: the encode graph's output stream does
/// not depend on how the coprocessors interleave, so the Eclipse encoder
/// (windowed ME on the MC/ME coprocessor, quantization on the RLSQ, ...)
/// must emit exactly the software `Encoder`'s bytes.
#[test]
fn eclipse_encoder_matches_software_encoder_byte_for_byte() {
    let cases: [(usize, usize, u16, GopConfig, u8); 3] = [
        // IPPP.
        (48, 32, 6, GopConfig { n: 6, m: 1 }, 7),
        // IBBP.
        (48, 32, 7, GopConfig { n: 12, m: 3 }, 7),
        // 2×2 macroblocks, range 15: every macroblock is an edge one and
        // most of every search window is replicated frame edge.
        (32, 32, 7, GopConfig { n: 12, m: 3 }, 15),
    ];
    for (i, &(w, h, n, gop, range)) in cases.iter().enumerate() {
        let frames = source_frames(w, h, n, 40 + i as u64);
        let (eclipse, software) = eclipse_and_software_streams(&frames, gop, 6, range);
        assert!(!software.is_empty());
        assert!(
            eclipse == software,
            "case {i}: {}x{} {gop:?} r{range}: Eclipse {} bytes vs software {} bytes",
            w,
            h,
            eclipse.len(),
            software.len()
        );
    }
}
