//! Analytical area / power / performance model of an Eclipse instance.
//!
//! Reproduces the silicon estimates of paper Section 6 for the first
//! Eclipse instance in 0.18 µm CMOS at 150 MHz:
//!
//! * total area below 7 mm² (excluding the DSP-CPU), of which 1.7 mm² for
//!   the 32 kB on-chip SRAM and 2.0 mm² for the programmable VLD;
//! * total power below 240 mW while decoding two HD MPEG-2 streams;
//! * computational performance of roughly 36 Gops for dual-HD decoding,
//!   counted on mostly 16-bit data.
//!
//! This is a *model*, not a measurement: the constants are calibrated to
//! the paper's published numbers (the paper itself presents them as
//! pre-layout estimates). The value of reproducing it is that the same
//! formulas then extrapolate to other template configurations (more
//! coprocessors, bigger SRAM, wider buses) in the design-space benches.

use serde::{Deserialize, Serialize};

use crate::config::EclipseConfig;

/// Area model constants (0.18 µm CMOS, from the paper's instance).
pub mod constants {
    /// SRAM area per kB, mm² (1.7 mm² / 32 kB).
    pub const SRAM_MM2_PER_KB: f64 = 1.7 / 32.0;
    /// The programmable VLD coprocessor, mm².
    pub const VLD_MM2: f64 = 2.0;
    /// RLSQ coprocessor (run-length + scan + quant, both directions), mm².
    pub const RLSQ_MM2: f64 = 0.55;
    /// DCT coprocessor (forward + inverse), mm².
    pub const DCT_MM2: f64 = 0.75;
    /// MC/ME coprocessor, mm².
    pub const MCME_MM2: f64 = 1.0;
    /// One coprocessor shell (tables + scheduler + sync logic), mm².
    pub const SHELL_MM2: f64 = 0.10;
    /// Shell cache area per kB, mm² (register-file style).
    pub const CACHE_MM2_PER_KB: f64 = 0.05;
    /// Bus + glue per shell port, mm².
    pub const BUS_MM2_PER_PORT: f64 = 0.04;

    /// Power density: mW per mm² of *active* logic at 150 MHz, 0.18 µm.
    pub const MW_PER_MM2_ACTIVE: f64 = 48.0;
    /// SRAM access energy coefficient: mW per (GB/s of traffic).
    pub const MW_PER_GBS: f64 = 18.0;

    /// Ops per macroblock for each decode stage (16-bit ops; calibrated
    /// so dual-HD decode lands at the paper's ~36 Gops).
    pub const OPS_PER_MB_VLD: f64 = 9_000.0;
    /// See [`OPS_PER_MB_VLD`].
    pub const OPS_PER_MB_RLSQ: f64 = 14_000.0;
    /// See [`OPS_PER_MB_VLD`].
    pub const OPS_PER_MB_DCT: f64 = 28_000.0;
    /// See [`OPS_PER_MB_VLD`].
    pub const OPS_PER_MB_MC: f64 = 22_000.0;

    // ---- Transport energy decomposition --------------------------------
    //
    // The paper's aggregate SRAM coefficient is [`MW_PER_GBS`] = 18 mW
    // per GB/s, i.e. 18 pJ per byte moved between a shell and the
    // memory. For topology comparisons that lump sum is split into the
    // bank (cell-array) access and the wire transport getting the byte
    // there: on the flat global-bus fabrics the two add back up to the
    // paper's 18 pJ/B exactly, while on a mesh the global wire is
    // replaced by short per-link segments whose cost scales with the
    // hops actually traversed — the quantity placement can shrink.

    /// Bank (cell-array) access energy per byte, pJ.
    pub const PJ_PER_BANK_BYTE: f64 = 12.0;
    /// Global-wire transport per byte on flat (non-mesh) fabrics, pJ.
    /// `PJ_PER_BANK_BYTE + PJ_PER_WIRE_BYTE` = the paper's 18 pJ/B.
    pub const PJ_PER_WIRE_BYTE: f64 = 6.0;
    /// Mesh link-segment transport per byte per hop, pJ. A route of
    /// 4 hops costs the same wire energy as the flat global bus.
    pub const PJ_PER_LINK_BYTE_HOP: f64 = 1.5;
    /// Cost of delivering one `putspace` message, pJ.
    pub const PJ_PER_SYNC_MSG: f64 = 4.0;
}

/// Observed transport activity of one run, the input to
/// [`transport_energy_pj`]. Data-side counters come from the data
/// fabric's ports; the hop-weighted byte count comes from a mesh
/// fabric's per-link stats (0 elsewhere); the message count comes from
/// `RunSummary::sync_messages`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportCounts {
    /// Total bytes moved between shells and SRAM.
    pub sram_bytes: u64,
    /// Σ over transfers of bytes × mesh links traversed (0 on flat
    /// fabrics).
    pub byte_hops: u64,
    /// Whether the data fabric is a mesh (wire energy is then charged
    /// per link hop instead of per global-bus byte).
    pub mesh: bool,
    /// `putspace` messages delivered.
    pub sync_messages: u64,
}

/// Transport (communication) energy of a run, in pJ: bank accesses plus
/// wire transport plus `putspace` messages, per the decomposition in
/// [`constants`]. On flat fabrics this reduces to the paper's aggregate
/// 18 pJ per SRAM byte (+ sync); on a mesh the wire term scales with
/// the byte·hops placement controls.
pub fn transport_energy_pj(c: &TransportCounts) -> f64 {
    use constants::*;
    let wire = if c.mesh {
        c.byte_hops as f64 * PJ_PER_LINK_BYTE_HOP
    } else {
        c.sram_bytes as f64 * PJ_PER_WIRE_BYTE
    };
    c.sram_bytes as f64 * PJ_PER_BANK_BYTE + wire + c.sync_messages as f64 * PJ_PER_SYNC_MSG
}

/// Convenience: transport energy per macroblock (or any other work
/// unit), pJ. Returns 0 for an empty run.
pub fn transport_energy_per_mb_pj(c: &TransportCounts, macroblocks: u64) -> f64 {
    if macroblocks == 0 {
        0.0
    } else {
        transport_energy_pj(c) / macroblocks as f64
    }
}

/// One line of the area/power report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComponentEstimate {
    /// Component name.
    pub name: String,
    /// Estimated silicon area in mm².
    pub area_mm2: f64,
    /// Estimated power at the given activity, mW.
    pub power_mw: f64,
}

/// The full instance estimate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstanceEstimate {
    /// Per-component breakdown.
    pub components: Vec<ComponentEstimate>,
    /// Total area, mm².
    pub total_area_mm2: f64,
    /// Total power, mW.
    pub total_power_mw: f64,
    /// Aggregate computational performance, Gops.
    pub gops: f64,
}

/// Workload description for the power/performance half of the model.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadModel {
    /// Macroblocks decoded per second (all streams combined). Dual-HD
    /// (2 × 1920×1088 @ 30 Hz) is 2 × 8160 × 30 = 489 600 MB/s.
    pub mb_per_sec: f64,
    /// Average utilization of the coprocessors (0..1).
    pub utilization: f64,
    /// SRAM traffic in GB/s.
    pub sram_gbs: f64,
}

impl WorkloadModel {
    /// The paper's headline workload: simultaneous decoding of two HD
    /// MPEG-2 streams.
    pub fn dual_hd_decode() -> Self {
        WorkloadModel {
            mb_per_sec: 2.0 * 8160.0 * 30.0,
            utilization: 0.75,
            sram_gbs: 1.8,
        }
    }

    /// Standard-definition decode of one stream (720×576 @ 25 Hz).
    pub fn sd_decode() -> Self {
        WorkloadModel {
            mb_per_sec: 1620.0 * 25.0,
            utilization: 0.15,
            sram_gbs: 0.15,
        }
    }
}

/// Estimate the paper's first instance (VLD + RLSQ + DCT + MC/ME, shared
/// SRAM) for a given template configuration and workload.
pub fn estimate_instance(cfg: &EclipseConfig, workload: &WorkloadModel) -> InstanceEstimate {
    use constants::*;
    let sram_kb = cfg.sram.size as f64 / 1024.0;
    let cache_kb_per_shell = {
        let c = cfg.shell.cache;
        (c.lines as f64 * c.line_bytes as f64) / 1024.0 * 2.0 // read + write rows, rough doubling
    };
    let coprocs: [(&str, f64, f64); 4] = [
        ("vld", VLD_MM2, OPS_PER_MB_VLD),
        ("rlsq", RLSQ_MM2, OPS_PER_MB_RLSQ),
        ("dct", DCT_MM2, OPS_PER_MB_DCT),
        ("mc/me", MCME_MM2, OPS_PER_MB_MC),
    ];

    let mut components = Vec::new();
    let mut gops = 0.0;
    for (name, area, ops_per_mb) in coprocs {
        let shell_area = SHELL_MM2 + cache_kb_per_shell * CACHE_MM2_PER_KB + 2.0 * BUS_MM2_PER_PORT;
        let power = (area + shell_area) * MW_PER_MM2_ACTIVE * workload.utilization;
        components.push(ComponentEstimate {
            name: format!("{name} (+shell)"),
            area_mm2: area + shell_area,
            power_mw: power,
        });
        gops += ops_per_mb * workload.mb_per_sec / 1e9;
    }
    let sram_area = sram_kb * SRAM_MM2_PER_KB;
    components.push(ComponentEstimate {
        name: format!("sram {}kB", sram_kb as u32),
        area_mm2: sram_area,
        power_mw: workload.sram_gbs * MW_PER_GBS,
    });

    let total_area_mm2 = components.iter().map(|c| c.area_mm2).sum();
    let total_power_mw = components.iter().map(|c| c.power_mw).sum();
    InstanceEstimate {
        components,
        total_area_mm2,
        total_power_mw,
        gops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_hd_matches_paper_envelope() {
        let est = estimate_instance(&EclipseConfig::default(), &WorkloadModel::dual_hd_decode());
        // Paper: < 7 mm² total, 1.7 mm² SRAM, 2.0 mm² VLD, < 240 mW,
        // ~36 Gops.
        assert!(
            est.total_area_mm2 < 7.0,
            "area {:.2} mm²",
            est.total_area_mm2
        );
        assert!(
            est.total_area_mm2 > 5.0,
            "area {:.2} mm² suspiciously small",
            est.total_area_mm2
        );
        let sram = est
            .components
            .iter()
            .find(|c| c.name.starts_with("sram"))
            .unwrap();
        assert!((sram.area_mm2 - 1.7).abs() < 0.01);
        let vld = est
            .components
            .iter()
            .find(|c| c.name.starts_with("vld"))
            .unwrap();
        assert!(vld.area_mm2 >= 2.0 && vld.area_mm2 < 2.6);
        assert!(
            est.total_power_mw < 240.0,
            "power {:.0} mW",
            est.total_power_mw
        );
        assert!(
            est.total_power_mw > 120.0,
            "power {:.0} mW suspiciously low",
            est.total_power_mw
        );
        assert!((est.gops - 36.0).abs() < 4.0, "gops {:.1}", est.gops);
    }

    #[test]
    fn bigger_sram_costs_area() {
        let small = estimate_instance(&EclipseConfig::default(), &WorkloadModel::dual_hd_decode());
        let big = estimate_instance(
            &EclipseConfig::default().with_sram_size(64 * 1024),
            &WorkloadModel::dual_hd_decode(),
        );
        assert!(big.total_area_mm2 > small.total_area_mm2 + 1.5);
    }

    #[test]
    fn flat_transport_energy_matches_paper_coefficient() {
        // 1 GB moved on a flat fabric must cost exactly the paper's
        // aggregate 18 pJ/B (= 18 mW at 1 GB/s).
        let c = TransportCounts {
            sram_bytes: 1_000_000_000,
            ..Default::default()
        };
        let pj = transport_energy_pj(&c);
        assert!((pj - 18.0e9).abs() < 1.0, "{pj}");
    }

    #[test]
    fn mesh_transport_energy_scales_with_hops() {
        let base = TransportCounts {
            sram_bytes: 1_000_000,
            byte_hops: 2_000_000, // average 2 hops/byte
            mesh: true,
            ..Default::default()
        };
        let near = transport_energy_pj(&base);
        // 12 + 2×1.5 = 15 pJ/B: a 2-hop-average mesh beats the flat bus.
        assert!((near - 15.0e6).abs() < 1.0, "{near}");
        let far = transport_energy_pj(&TransportCounts {
            byte_hops: 5_000_000,
            ..base
        });
        // 12 + 5×1.5 = 19.5 pJ/B: sprawl costs more than the flat bus.
        assert!(far > 18.0e6);
        // Per-macroblock normalization.
        assert!((transport_energy_per_mb_pj(&base, 1000) - 15.0e3).abs() < 1e-6);
        assert_eq!(transport_energy_per_mb_pj(&base, 0), 0.0);
    }

    #[test]
    fn sd_decode_needs_far_less_power() {
        let hd = estimate_instance(&EclipseConfig::default(), &WorkloadModel::dual_hd_decode());
        let sd = estimate_instance(&EclipseConfig::default(), &WorkloadModel::sd_decode());
        assert!(sd.total_power_mw < hd.total_power_mw / 3.0);
        assert!(sd.gops < hd.gops / 8.0);
    }
}
