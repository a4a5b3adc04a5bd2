//! # eclipse-bench — the experiment harness
//!
//! One binary per paper artifact (see `DESIGN.md` §4 and
//! `EXPERIMENTS.md`):
//!
//! | bin | paper artifact |
//! |---|---|
//! | `fig10_buffer_traces` | Figure 10 — buffer filling & bottleneck shifts |
//! | `fig9_visualization` | Figure 9 — architecture & application views |
//! | `sweep_cache` | §7 cache-size / prefetch design-space sweep |
//! | `sweep_bus` | §7 bus width & latency sweep |
//! | `tab_instance_model` | §6 area / power / Gops estimates |
//! | `tab_app_mixes` | §6 application mixes |
//! | `tab_load_irregularity` | §2.2 worst/average load ratios |
//! | `sweep_coupling` | §2.2/§3 buffer-size (coupling) sweep |
//! | `sweep_scheduler` | §5.3 scheduler ablation & budget sweep |
//! | `sweep_scalability` | §2.3/§5.1 distributed vs CPU-centric sync |
//! | `tab_coherency` | §5.2 coherency mechanism accounting |
//! | `tab_granularity` | Figure 1/§2.1 granularity of parallelism |
//!
//! This library holds the shared workload generators and reporting
//! helpers those binaries use.

pub mod microbench;
pub mod sweep;
pub mod synthetic;

pub use sweep::{par_sweep, sweep_threads, threads_flag, trace_annotation, trace_flag};

use eclipse_media::encoder::{EncodeStats, Encoder, EncoderConfig};
use eclipse_media::source::{SourceConfig, SyntheticSource};
use eclipse_media::stream::GopConfig;

/// A standard test stream: resolution, GOP, content parameters.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Luma width.
    pub width: usize,
    /// Luma height.
    pub height: usize,
    /// Frame count.
    pub frames: u16,
    /// GOP structure.
    pub gop: GopConfig,
    /// Quantizer scale.
    pub qscale: u8,
    /// Content complexity 0..1.
    pub complexity: f64,
    /// Content motion in pixels/frame.
    pub motion: f64,
    /// Generator seed.
    pub seed: u64,
}

impl StreamSpec {
    /// The workhorse experiment stream: QCIF-sized (99 macroblocks — big
    /// enough for realistic buffer dynamics, small enough to simulate a
    /// full GOP quickly), classic IPBBPBB GOP.
    pub fn qcif() -> Self {
        StreamSpec {
            width: 176,
            height: 144,
            frames: 15,
            gop: GopConfig { n: 12, m: 3 },
            qscale: 6,
            complexity: 0.5,
            motion: 2.0,
            seed: 0xEC11,
        }
    }

    /// A small, fast variant for sweeps with many configurations.
    pub fn tiny() -> Self {
        StreamSpec {
            width: 64,
            height: 48,
            frames: 8,
            ..Self::qcif()
        }
    }

    /// Generate the source frames.
    pub fn source_frames(&self) -> Vec<eclipse_media::Frame> {
        SyntheticSource::new(SourceConfig {
            width: self.width,
            height: self.height,
            complexity: self.complexity,
            motion: self.motion,
            seed: self.seed,
        })
        .frames(self.frames)
    }

    /// Encode the source into an elementary stream.
    pub fn encode(&self) -> (Vec<u8>, EncodeStats) {
        let enc = Encoder::new(EncoderConfig {
            width: self.width,
            height: self.height,
            qscale: self.qscale,
            gop: self.gop,
            search_range: 15,
        });
        enc.encode(&self.source_frames())
    }

    /// Macroblocks per frame.
    pub fn mbs_per_frame(&self) -> u32 {
        (self.width as u32 / 16) * (self.height as u32 / 16)
    }
}

/// Render a markdown-ish table: header row + separator + rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!(
                " {:<w$} |",
                c,
                w = widths.get(i).copied().unwrap_or(c.len())
            ));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Write experiment output under `results/` (created on demand) and echo
/// the path.
pub fn save_result(name: &str, contents: &str) {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write result");
    println!("[saved {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qcif_spec_encodes() {
        let spec = StreamSpec {
            frames: 2,
            ..StreamSpec::tiny()
        };
        let (bytes, stats) = spec.encode();
        assert!(!bytes.is_empty());
        assert_eq!(stats.pictures.len(), 2);
    }

    #[test]
    fn table_renders_aligned() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        assert!(t.contains("| name      | value |") || t.contains("| name"));
        assert_eq!(t.lines().count(), 4);
    }
}
