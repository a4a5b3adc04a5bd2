//! Microbenchmarks of the functional kernels the coprocessors execute:
//! DCT, quantization, run-length coding, VLC, motion search, and the
//! windowed FIFO primitives. These keep the *simulator host speed* honest
//! — the cycle model is separate.
//!
//! Runs as a plain `harness = false` binary (`cargo bench --bench
//! kernels`) on the in-repo harness in [`eclipse_bench::microbench`].

use std::hint::black_box;

use eclipse_bench::microbench::bench;
use eclipse_media::bits::{BitReader, BitWriter};
use eclipse_media::dct::{fdct2d, idct2d};
use eclipse_media::motion::{mb_luma, three_step_search_pred, MotionVector, SearchWindow};
use eclipse_media::quant::{dequant_intra, quant_intra};
use eclipse_media::scan::{rle_decode, rle_encode, RunLevel};
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::vlc::{get_block, put_block};

fn test_block() -> [i16; 64] {
    let mut b = [0i16; 64];
    for (i, v) in b.iter_mut().enumerate() {
        *v = ((i as i32 * 37 % 401) - 200) as i16;
    }
    b
}

fn bench_dct() {
    let block = test_block();
    bench("dct/fdct2d", || fdct2d(black_box(&block)));
    let coefs = fdct2d(&block);
    bench("dct/idct2d", || idct2d(black_box(&coefs)));
}

fn bench_quant_rle() {
    let coefs = fdct2d(&test_block());
    bench("rlsq/quant_intra", || quant_intra(black_box(&coefs), 6));
    let levels = quant_intra(&coefs, 6);
    bench("rlsq/dequant_intra", || {
        dequant_intra(black_box(&levels), 6)
    });
    let mut symbols = [RunLevel::default(); 64];
    bench("rlsq/rle_encode", || {
        rle_encode(black_box(&levels), &mut symbols)
    });
    let n = rle_encode(&levels, &mut symbols);
    bench("rlsq/rle_decode", || {
        rle_decode(black_box(&symbols[..n])).unwrap()
    });
}

fn bench_vlc() {
    let mut symbols = [RunLevel::default(); 64];
    let n = rle_encode(&quant_intra(&fdct2d(&test_block()), 6), &mut symbols);
    bench("vlc/encode_block", || {
        let mut w = BitWriter::new();
        put_block(&mut w, black_box(&symbols[..n]));
        w.finish()
    });
    let mut w = BitWriter::new();
    put_block(&mut w, &symbols[..n]);
    let bytes = w.finish();
    bench("vlc/decode_block", || {
        let mut r = BitReader::new(black_box(&bytes));
        get_block(&mut r, &mut symbols).unwrap()
    });
}

fn bench_motion() {
    let src = SyntheticSource::new(SourceConfig {
        width: 176,
        height: 144,
        complexity: 0.5,
        motion: 2.0,
        seed: 7,
    });
    let f0 = src.frame(0);
    let f1 = src.frame(1);
    bench("motion/three_step_search_qcif_mb", || {
        three_step_search_pred(
            black_box(&f1),
            black_box(&f0),
            5,
            4,
            15,
            &[MotionVector::default()],
        )
    });
    // Edge macroblock: most of its window is replicated frame edge.
    bench("motion/three_step_search_qcif_edge_mb", || {
        three_step_search_pred(
            black_box(&f1),
            black_box(&f0),
            0,
            0,
            15,
            &[MotionVector::default()],
        )
    });
    // One SAD per half-pel phase over a prebuilt window (the kernel alone).
    let win = SearchWindow::from_plane(&f0.y, 5, 4, 15);
    let luma = mb_luma(&f1, 5, 4);
    bench("motion/window_sad_4_phases", || {
        [(6, -4), (7, -4), (6, -3), (7, -3)]
            .map(|(dx, dy)| win.sad(black_box(&luma), MotionVector { dx, dy }))
    });
}

fn bench_codec() {
    let src = SyntheticSource::new(SourceConfig {
        width: 176,
        height: 144,
        complexity: 0.5,
        motion: 2.0,
        seed: 7,
    });
    let frames = src.frames(5);
    let enc = eclipse_media::Encoder::new(eclipse_media::EncoderConfig {
        width: 176,
        height: 144,
        qscale: 6,
        gop: eclipse_media::GopConfig { n: 12, m: 3 },
        search_range: 15,
    });
    bench("codec/encode_qcif_5f", || enc.encode(black_box(&frames)));
    let (bytes, _) = enc.encode(&frames);
    bench("codec/decode_qcif_5f", || {
        eclipse_media::Decoder::decode(black_box(&bytes)).unwrap()
    });
}

fn bench_fifo() {
    use eclipse_kpn::{Fifo, FifoConfig};
    let fifo = Fifo::new(FifoConfig {
        capacity: 4096,
        consumers: 1,
    });
    let data = [0xA5u8; 64];
    let mut buf = [0u8; 64];
    bench("kpn_fifo/window_cycle_64B", || {
        fifo.producer_wait_space(64);
        fifo.producer_write(0, &data);
        fifo.producer_put_space(64);
        fifo.consumer_wait_space(0, 64);
        fifo.consumer_read(0, 0, &mut buf);
        fifo.consumer_put_space(0, 64);
        black_box(buf[0])
    });
}

fn bench_shell() {
    use eclipse_mem::{BusConfig, CyclicBuffer, SramConfig};
    use eclipse_shell::stream_table::{AccessPoint, PortDir, RowIdx, StreamRowConfig};
    use eclipse_shell::task_table::TaskConfig;
    use eclipse_shell::{MemSys, Shell, ShellConfig, ShellId, TaskIdx};

    bench("shell/getspace_putspace_roundtrip", || {
        let mut shell = Shell::new(ShellId(0), ShellConfig::default());
        let row = shell.add_stream_row(StreamRowConfig {
            buffer: CyclicBuffer::new(0, 4096),
            dir: PortDir::Producer,
            remotes: vec![AccessPoint {
                shell: ShellId(1),
                row: RowIdx(0),
            }],
        });
        shell.add_task(TaskConfig {
            name: "t".into(),
            budget: 1000,
            task_info: 0,
            ports: vec![row],
            space_hints: vec![0],
        });
        let mut mem = MemSys::shared_bus(
            SramConfig::default(),
            BusConfig::default(),
            BusConfig::default(),
        );
        let mut now = 0u64;
        let mut msgs = Vec::new();
        for _ in 0..16 {
            shell.get_space(TaskIdx(0), 0, 64, now);
            shell.write(TaskIdx(0), 0, 0, &[1u8; 64], now, &mut mem);
            msgs.clear();
            now = shell.put_space(TaskIdx(0), 0, 64, now, &mut mem, &mut msgs) + 1;
            // Recycle the room locally so the loop can continue.
            let msg = eclipse_shell::SyncMsg {
                src: AccessPoint {
                    shell: ShellId(1),
                    row: RowIdx(0),
                },
                dst: AccessPoint {
                    shell: ShellId(0),
                    row: RowIdx(0),
                },
                bytes: 64,
                send_at: now,
                dst_gen: 0,
            };
            shell.deliver_putspace(&msg, now);
        }
        black_box(now)
    });
}

fn main() {
    bench_dct();
    bench_quant_rle();
    bench_vlc();
    bench_motion();
    bench_codec();
    bench_fifo();
    bench_shell();
}
