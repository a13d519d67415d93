//! What a run prints: metric values, order statistics, deterministic work
//! counts from `Stats`, the Test-scale model geomeans, and peak memory.

use crate::reference::Reference;
use gpu_sim::Stats;
use std::time::Duration;
use workloads::{Benchmark, Scale, Variant};

/// The outcome of one run, before it is printed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures; any one voids the run's numbers.
    pub mismatches: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    pub fn mismatch(&mut self, why: String) {
        if self.mismatches.len() < 20 {
            eprintln!("perfbench: MISMATCH: {why}");
        }
        self.mismatches.push(why);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest value of `v`; 0 if empty.
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The tail of `v`: the highest order statistic with at least ten samples
/// above it, or the maximum when there are fewer than eleven samples.
/// Returns `(value, percentile, samples)`.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    if v.is_empty() {
        return (0.0, 0.0, 0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let i = if n >= 11 { n - 11 } else { n - 1 };
    (s[i], 100.0 * (i + 1) as f64 / n as f64, n)
}

/// Host peak resident memory of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU time stolen by the hypervisor so far, in clock ticks (the
/// `steal` column of `/proc/stat`); printed beside the numbers because it
/// is the one source of host noise a guest can see.
pub fn steal_ticks() -> Option<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()?
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()
}

/// Deterministic work counts summed over a set of cells.
#[derive(Clone, Debug, Default)]
pub struct Work {
    pub cycles: u64,
    pub warp_issues: u64,
    pub active_lanes: u64,
    pub busy_cycles: u64,
    pub tb_completed: u64,
    pub host_launches: u64,
    pub dyn_launches: u64,
    pub agg_coalesced: u64,
    pub agg_fallbacks: u64,
    pub agt_overflows: u64,
    pub peak_pending_bytes: u64,
    pub wait_cycles: u64,
    pub waited_launches: u64,
    pub transactions: u64,
    pub l1_hits: u64,
    pub l1_accesses: u64,
    pub l2_hits: u64,
    pub l2_accesses: u64,
    pub row_hits: u64,
    pub row_accesses: u64,
    pub dram_commands: u64,
    pub dram_active: u64,
}

impl Work {
    pub fn add(&mut self, s: &Stats) {
        let m = &s.mem;
        self.cycles += s.cycles;
        self.warp_issues += s.warp_issues;
        self.active_lanes += s.active_lanes;
        self.busy_cycles += s.busy_cycles;
        self.tb_completed += s.tb_completed;
        self.host_launches += s.host_launches;
        self.dyn_launches += s.launches.len() as u64;
        self.agg_coalesced += s.agg_coalesced;
        self.agg_fallbacks += s.agg_fallbacks;
        self.agt_overflows += s.agt_overflows;
        self.peak_pending_bytes = self.peak_pending_bytes.max(s.peak_pending_bytes);
        for w in s.launches.iter().filter_map(|l| l.waiting_time()) {
            self.wait_cycles += w;
            self.waited_launches += 1;
        }
        self.transactions += m.loads + m.stores + m.atomics;
        self.l1_hits += m.l1.hits;
        self.l1_accesses += m.l1.hits + m.l1.misses;
        self.l2_hits += m.l2.hits;
        self.l2_accesses += m.l2.hits + m.l2.misses;
        self.row_hits += m.dram.row_hits;
        self.row_accesses += m.dram.row_hits + m.dram.row_misses;
        // Aggregated as `DramStats::efficiency` is per run: commands over
        // active cycles.
        self.dram_commands += m.dram.n_rd + m.dram.n_wr;
        self.dram_active += m.dram.active_cycles;
    }

    /// The per-layer work metrics of the launch path, issue, engine and
    /// memory layers.
    pub fn emit(&self, out: &mut Outcome) {
        let r = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        out.metric("launch.host", self.host_launches as f64, "count");
        out.metric("launch.dyn", self.dyn_launches as f64, "count");
        out.metric(
            "launch.per_m_issue",
            1e6 * r(self.dyn_launches, self.warp_issues),
            "1/Minst",
        );
        out.metric("agt.coalesced", self.agg_coalesced as f64, "count");
        out.metric(
            "agt.coalesce_ratio",
            r(self.agg_coalesced, self.agg_coalesced + self.agg_fallbacks),
            "ratio",
        );
        out.metric("agt.fallbacks", self.agg_fallbacks as f64, "count");
        out.metric("agt.overflows", self.agt_overflows as f64, "count");
        out.metric(
            "launch.peak_pending_kb",
            self.peak_pending_bytes as f64 / 1024.0,
            "KiB",
        );
        out.metric(
            "launch.avg_wait_cycles",
            r(self.wait_cycles, self.waited_launches),
            "cycles",
        );
        out.metric("issue.warp_issues", self.warp_issues as f64, "count");
        out.metric(
            "issue.lanes_per_issue",
            r(self.active_lanes, self.warp_issues),
            "lanes",
        );
        out.metric("issue.tb_completed", self.tb_completed as f64, "count");
        out.metric(
            "issue.busy_cycle_share",
            r(self.busy_cycles, self.cycles),
            "ratio",
        );
        out.metric("engine.sim_cycles", self.cycles as f64, "cycles");
        out.metric(
            "engine.cycles_per_issue",
            r(self.cycles, self.warp_issues),
            "cycles",
        );
        out.metric("mem.transactions", self.transactions as f64, "count");
        out.metric(
            "mem.tx_per_issue",
            r(self.transactions, self.warp_issues),
            "ratio",
        );
        out.metric(
            "mem.l1_hit_ratio",
            r(self.l1_hits, self.l1_accesses),
            "ratio",
        );
        out.metric(
            "mem.l2_hit_ratio",
            r(self.l2_hits, self.l2_accesses),
            "ratio",
        );
        out.metric(
            "mem.dram_row_hit_ratio",
            r(self.row_hits, self.row_accesses),
            "ratio",
        );
        out.metric(
            "mem.dram_efficiency",
            r(self.dram_commands, self.dram_active),
            "ratio",
        );
    }
}

/// The paper's Figure 11 averages (speedup over Flat, and DTBL over CDP).
pub const PAPER_FIG11: [(&str, f64); 5] = [
    ("model.cdp_vs_flat", 0.86),
    ("model.dtbl_vs_flat", 1.21),
    ("model.cdpi_vs_flat", 1.43),
    ("model.dtbli_vs_flat", 1.63),
    ("model.dtbl_vs_cdp", 1.40),
];

/// Test-scale geomean speedups over Flat (and DTBL over CDP), in
/// [`PAPER_FIG11`] order, from each cell's simulated cycles.
pub fn model_geomeans(cycles: impl Fn(Benchmark, Variant) -> u64) -> [f64; 5] {
    let geo = |f: &dyn Fn(Benchmark) -> f64| {
        let logs: f64 = Benchmark::ALL.iter().map(|&b| f(b).max(1e-12).ln()).sum();
        (logs / Benchmark::ALL.len() as f64).exp()
    };
    let speedup =
        |b: Benchmark, v: Variant| cycles(b, Variant::Flat) as f64 / cycles(b, v).max(1) as f64;
    [
        geo(&|b| speedup(b, Variant::Cdp)),
        geo(&|b| speedup(b, Variant::Dtbl)),
        geo(&|b| speedup(b, Variant::CdpIdeal)),
        geo(&|b| speedup(b, Variant::DtblIdeal)),
        geo(&|b| speedup(b, Variant::Dtbl) / speedup(b, Variant::Cdp)),
    ]
}

/// Emits the `model.*` metrics from the recorded Test-scale cycles.
pub fn emit_model(reference: &Reference, out: &mut Outcome) {
    let g = model_geomeans(|b, v| reference.row(Scale::Test, b, v).map_or(0, |r| r.cycles));
    for ((name, _), value) in PAPER_FIG11.iter().zip(g) {
        out.metric(name, value, "x");
    }
}

/// The accuracy line: Test-scale geomeans beside the paper's averages.
pub fn print_accuracy(g: &[f64; 5]) {
    let mut line = String::from(
        "accuracy (Test scale, not gated; EXPERIMENTS.md holds the Eval-scale record):",
    );
    for ((name, paper), got) in PAPER_FIG11.iter().zip(g) {
        let short = name.trim_start_matches("model.");
        line.push_str(&format!(
            " {short} {got:.2}x vs paper {paper:.2}x ({:+.0}%);",
            100.0 * (got / paper - 1.0)
        ));
    }
    println!("{}", line.trim_end_matches(';'));
}
