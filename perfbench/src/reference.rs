//! The correctness reference: per-cell `Stats` digests recorded with the
//! benchmark, and the check every measured cell must pass.
//!
//! The table (`reference.tsv`) holds one row per cell the workloads run:
//! scale, benchmark, variant, simulated cycles, warp issues and a 64-bit
//! FNV-1a digest over every result field of [`Stats`] (counters, memory
//! statistics and each dynamic-launch record). It is regenerated with
//! `perfbench --record perfbench/reference.tsv`, which runs every cell on
//! a cold simulator, a different path from the warm one the workloads
//! measure.

use gpu_sim::{DynLaunchKind, Stats};
use std::collections::HashMap;
use workloads::{Benchmark, Scale, Variant};

/// Total simulated cycles of the 80 Test-scale cells (16 benchmarks ×
/// [`Variant::MAIN`]); unchanged since the event engine landed.
pub const TEST_MATRIX_CYCLES: u64 = 28_590_263;

const TABLE: &str = include_str!("../reference.tsv");

/// One recorded cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    pub cycles: u64,
    pub warp_issues: u64,
    pub digest: u64,
}

impl Row {
    pub fn of(stats: &Stats) -> Row {
        Row {
            cycles: stats.cycles,
            warp_issues: stats.warp_issues,
            digest: stats_digest(stats),
        }
    }
}

/// The parsed reference table.
pub struct Reference {
    rows: HashMap<(Scale, Benchmark, Variant), Row>,
}

impl Reference {
    /// Parses the table compiled into the binary.
    pub fn load() -> Result<Reference, String> {
        let mut rows = HashMap::new();
        for (n, line) in TABLE.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("reference.tsv line {}: malformed row {line:?}", n + 1);
            if f.len() != 6 {
                return Err(bad());
            }
            let scale = Scale::from_name(f[0]).ok_or_else(bad)?;
            let bench = Benchmark::from_name(f[1]).ok_or_else(bad)?;
            let variant = Variant::from_label(f[2]).ok_or_else(bad)?;
            let row = Row {
                cycles: f[3].parse().map_err(|_| bad())?,
                warp_issues: f[4].parse().map_err(|_| bad())?,
                digest: u64::from_str_radix(f[5], 16).map_err(|_| bad())?,
            };
            rows.insert((scale, bench, variant), row);
        }
        let test_total: u64 = Benchmark::ALL
            .iter()
            .flat_map(|&b| Variant::MAIN.map(|v| (b, v)))
            .map(|(b, v)| rows.get(&(Scale::Test, b, v)).map_or(0, |r| r.cycles))
            .sum();
        if test_total != TEST_MATRIX_CYCLES {
            return Err(format!(
                "reference.tsv: Test matrix totals {test_total} cycles, expected {TEST_MATRIX_CYCLES}"
            ));
        }
        Ok(Reference { rows })
    }

    pub fn row(&self, scale: Scale, bench: Benchmark, variant: Variant) -> Option<Row> {
        self.rows.get(&(scale, bench, variant)).copied()
    }

    /// Checks one cell's statistics against its recorded row; `Err`
    /// names the cell and shows both rows.
    pub fn check(
        &self,
        scale: Scale,
        bench: Benchmark,
        variant: Variant,
        stats: &Stats,
    ) -> Result<(), String> {
        let cell = format!("{}/{}/{}", scale.name(), bench.name(), variant.label());
        let want = self
            .row(scale, bench, variant)
            .ok_or_else(|| format!("{cell}: no reference row"))?;
        let got = Row::of(stats);
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{cell}: stats {got:?} differ from reference {want:?}"
            ))
        }
    }
}

/// FNV-1a over the result fields of `stats`. Field by field rather than
/// through `Debug`, so a counter added to `Stats` later does not change
/// the digest of an unchanged result.
pub fn stats_digest(s: &Stats) -> u64 {
    let m = &s.mem;
    let mut h = Fnv::default();
    for v in [
        s.cycles,
        s.warp_issues,
        s.active_lanes,
        s.resident_warp_cycles,
        s.busy_cycles,
        s.tb_completed,
        s.host_launches,
        s.peak_pending_bytes,
        s.agg_coalesced,
        s.agg_fallbacks,
        s.agt_overflows,
        s.barrier_waits,
        s.degraded_to_device_kernel,
        s.degraded_to_host_serial,
        s.launch_backoffs,
        s.host_launches_deferred,
        s.pending_bytes,
        s.forced_agt_overflows,
        s.forced_mem_delays,
        s.hwq_full_rejections,
        s.kmu_saturation_rejections,
        s.agt_overflow_exhausted,
        s.heap_cap_denials,
        u64::from(s.max_warps_per_smx),
        u64::from(s.num_smx),
        m.loads,
        m.stores,
        m.atomics,
        m.l1.hits,
        m.l1.misses,
        m.l1.writebacks,
        m.l2.hits,
        m.l2.misses,
        m.l2.writebacks,
        m.dram.n_rd,
        m.dram.n_wr,
        m.dram.active_cycles,
        m.dram.row_hits,
        m.dram.row_misses,
        s.launches.len() as u64,
    ] {
        h.u64(v);
    }
    for l in &s.launches {
        h.u64(match l.kind {
            DynLaunchKind::DeviceKernel => 1,
            DynLaunchKind::AggGroup => 2,
            DynLaunchKind::AggFallback => 3,
            DynLaunchKind::HostSerialized => 4,
        });
        h.u64(l.launched_at);
        h.u64(l.first_tb_at.unwrap_or(u64::MAX));
        h.u64(u64::from(l.ntb));
        h.u64(u64::from(l.threads_per_tb));
        h.u64(l.reserved_bytes);
    }
    h.0
}

/// 64-bit FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Writes the reference table for every cell the workloads run, each on
/// a cold simulator.
pub fn record(path: &str, cells: &[(Scale, Benchmark, Variant)]) -> Result<(), String> {
    let mut out = String::from(
        "# perfbench correctness reference: scale, benchmark, variant, cycles, warp issues,\n\
         # FNV-1a digest of the result fields of Stats (see src/reference.rs).\n",
    );
    let mut setups: Vec<workloads::CellSetup> = Vec::new();
    for &(scale, bench, variant) in cells {
        let pos = setups
            .iter()
            .position(|s| s.benchmark() == bench && s.scale() == scale);
        let setup = match pos {
            Some(i) => &setups[i],
            None => {
                let s = workloads::CellSetup::new(bench, scale, gpu_sim::GpuConfig::k20c())
                    .map_err(|e| e.to_string())?;
                setups.push(s);
                setups.last().expect("pushed above")
            }
        };
        let t = std::time::Instant::now();
        let report = setup.run(variant).map_err(|e| e.to_string())?;
        let row = Row::of(&report.stats);
        eprintln!(
            "record {:5} {:16} {:6} {:>10} cycles {:8.1} ms",
            scale.name(),
            bench.name(),
            variant.label(),
            row.cycles,
            t.elapsed().as_secs_f64() * 1e3
        );
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{:016x}\n",
            scale.name(),
            bench.name(),
            variant.label(),
            row.cycles,
            row.warp_issues,
            row.digest
        ));
    }
    std::fs::write(path, out).map_err(|e| format!("write {path}: {e}"))
}
