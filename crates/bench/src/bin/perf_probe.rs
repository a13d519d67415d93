//! Perf probe: the repo's wall-clock trajectory, one data point per PR.
//!
//! PR 10's probe prices the warp-vectorized functional layer: decoded
//! micro-op programs, the lane-major register file, and warp-level
//! execute kernels with uniform-operand fast paths, against the per-lane
//! scalar executor they replaced (kept alive behind
//! `GpuConfig::legacy_exec`). Four sweeps of the Test-scale matrix
//! (16 benchmarks × 5 variants, one sweep worker):
//!
//! 1. **decoded_serial** — the default decoded executor on the serial
//!    event-driven engine (`smx_jobs = 1`, every SMX staged inline on
//!    the stepping thread): the number that matters.
//! 2. **legacy_serial** — the same engine with `legacy_exec = true`: one
//!    `lane_step` call per active lane per issue. The decoded/legacy
//!    wall-clock ratio is the executor speedup, measured on identical
//!    workloads producing identical cycles.
//! 3. **sharded_auto** — decoded executor, `smx_jobs = 0`: the auto
//!    policy resolves worker count and fan-out threshold from the host's
//!    spare parallelism. On a host with no spare core it resolves to
//!    inline staging — the same code as `decoded_serial`, so its ratio is
//!    two timings of one path, not a speedup.
//! 4. **sharded_x4** — decoded executor, forced `smx_jobs = 4`: the
//!    oversubscription stress cell from PR 9, re-priced on the decoded
//!    path.
//!
//! Each path records how it resolved on this host: `effective_smx_jobs`,
//! `pool_threshold` (the minimum issuable SMXs before a step fans out;
//! `null` = never) and `stages_on_pool` (whether any step can reach the
//! worker pool at all).
//!
//! All four paths must agree on total `sim_cycles` — the probe **exits
//! 1** on any mismatch, so CI cannot record a benchmark number produced
//! by a divergent executor or engine. It also **exits 1** if the decoded
//! executor fails to clear a 1.25× wall-clock floor over the scalar one:
//! a regression that parks the tentpole behind an accidental slow path
//! fails the build rather than shipping as a silent perf loss. When the
//! host has more than one core the probe adds a `paper_cell`: the paper's
//! headline bfs_usa_road/dtbl cell at eval scale, serial vs sharded-auto.
//!
//! Usage: `perf_probe [--out PATH]` (default `BENCH_pr10.json`).

use bench::SweepRunner;
use gpu_isa::Program;
use gpu_sim::{Gpu, GpuConfig};
use std::time::Instant;
use workloads::{Benchmark, Scale, Variant};

/// Hard floor on decoded-vs-scalar executor speedup; CI fails below it.
const DECODED_SPEEDUP_FLOOR: f64 = 1.25;

struct PathNumbers {
    /// Resolved stage-phase worker count.
    smx_jobs: usize,
    /// Resolved fan-out threshold; `None` = the pool is never used.
    pool_threshold: Option<usize>,
    wall_seconds: f64,
    sim_cycles: u64,
    cells_ok: usize,
    cells_total: usize,
}

impl PathNumbers {
    fn cycles_per_sec(&self) -> f64 {
        self.sim_cycles as f64 / self.wall_seconds.max(1e-9)
    }

    fn cells_per_sec(&self) -> f64 {
        self.cells_ok as f64 / self.wall_seconds.max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "    \"effective_smx_jobs\": {},\n",
                "    \"pool_threshold\": {},\n",
                "    \"stages_on_pool\": {},\n",
                "    \"wall_seconds\": {:.3},\n",
                "    \"sim_cycles\": {},\n",
                "    \"cycles_per_sec\": {:.0},\n",
                "    \"cells_ok\": {},\n",
                "    \"cells_total\": {},\n",
                "    \"cells_per_sec\": {:.3}\n",
                "  }}"
            ),
            self.smx_jobs,
            self.pool_threshold
                .map_or_else(|| "null".to_string(), |t| t.to_string()),
            self.smx_jobs > 1 && self.pool_threshold.is_some(),
            self.wall_seconds,
            self.sim_cycles,
            self.cycles_per_sec(),
            self.cells_ok,
            self.cells_total,
            self.cells_per_sec(),
        )
    }
}

fn summarize(cfg: &GpuConfig, run: impl FnOnce() -> bench::Matrix) -> PathNumbers {
    // Resolved as inside the one-wide sweep the path runs in.
    let (smx_jobs, threshold) = gpu_sim::sweep::with_pool_width(1, || {
        let gpu = Gpu::new(cfg.clone(), Program::new());
        (gpu.effective_smx_jobs(), gpu.effective_pool_threshold())
    });
    let benchmarks = Benchmark::ALL;
    let variants = Variant::MAIN;
    let t0 = Instant::now();
    let m = run();
    let wall_seconds = t0.elapsed().as_secs_f64();
    m.report_failures();
    let mut sim_cycles = 0u64;
    let mut cells_ok = 0usize;
    for &b in &benchmarks {
        for &v in &variants {
            if m.contains(b, v) {
                sim_cycles += m.get(b, v).stats.cycles;
                cells_ok += 1;
            }
        }
    }
    PathNumbers {
        smx_jobs,
        pool_threshold: (threshold != usize::MAX).then_some(threshold),
        wall_seconds,
        sim_cycles,
        cells_ok,
        cells_total: benchmarks.len() * variants.len(),
    }
}

fn sweep(jobs: usize, legacy_exec: bool) -> PathNumbers {
    let mut cfg = GpuConfig::k20c();
    cfg.smx_jobs = jobs;
    cfg.legacy_exec = legacy_exec;
    summarize(&cfg, || {
        SweepRunner::new(1).run_matrix_with(
            &Benchmark::ALL,
            &Variant::MAIN,
            Scale::Test,
            cfg.clone(),
        )
    })
}

/// Times one benchmark/variant cell at a given scale, returning
/// `(wall_seconds, sim_cycles)`.
fn time_cell(
    b: Benchmark,
    v: Variant,
    scale: Scale,
    mut cfg: GpuConfig,
    jobs: usize,
) -> (f64, u64) {
    cfg.smx_jobs = jobs;
    let t0 = Instant::now();
    let report = b.run_with(v, scale, cfg).expect("paper cell converges");
    (t0.elapsed().as_secs_f64(), report.stats.cycles)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .or_else(|| {
            args.iter()
                .find_map(|a| a.strip_prefix("--out=").map(str::to_string))
        })
        .unwrap_or_else(|| "BENCH_pr10.json".to_string());

    let host_cores = gpu_sim::sweep::default_jobs();

    eprintln!("perf_probe: decoded executor, serial event engine (smx_jobs=1)");
    let decoded = sweep(1, false);
    eprintln!("perf_probe: scalar per-lane executor (legacy_exec=true), same engine");
    let legacy = sweep(1, true);
    eprintln!("perf_probe: decoded executor, sharded engine, auto policy (smx_jobs=0)");
    let auto = sweep(0, false);
    eprintln!("perf_probe: decoded executor, sharded engine, forced smx_jobs=4");
    let x4 = sweep(4, false);

    // Executor/engine equivalence is priced into the probe itself: a
    // benchmark number from a path that diverged on simulated cycles is
    // meaningless, so refuse to record one.
    for (name, p) in [
        ("legacy_serial", &legacy),
        ("sharded_auto", &auto),
        ("sharded_x4", &x4),
    ] {
        if p.sim_cycles != decoded.sim_cycles || p.cells_ok != decoded.cells_ok {
            eprintln!(
                "perf_probe: FATAL: {name} diverged from decoded serial \
                 (cycles {} vs {}, cells {} vs {})",
                p.sim_cycles, decoded.sim_cycles, p.cells_ok, decoded.cells_ok
            );
            std::process::exit(1);
        }
    }

    let decoded_vs_legacy = legacy.wall_seconds / decoded.wall_seconds.max(1e-9);
    if decoded_vs_legacy < DECODED_SPEEDUP_FLOOR {
        eprintln!(
            "perf_probe: FATAL: decoded executor is only {decoded_vs_legacy:.2}x the scalar \
             one (floor {DECODED_SPEEDUP_FLOOR:.2}x) — the vectorized path regressed"
        );
        std::process::exit(1);
    }

    // The paper's headline cell at eval scale, where a multi-core host's
    // fan-out has real work to amortize the commit barrier against.
    let paper_cell = if host_cores > 1 {
        let (b, v) = (Benchmark::BfsUsaRoad, Variant::Dtbl);
        eprintln!("perf_probe: eval-scale paper cell {b} [{v}], serial vs sharded auto");
        let (serial_wall, serial_cycles) = time_cell(b, v, Scale::Eval, GpuConfig::k20c(), 1);
        let (sharded_wall, sharded_cycles) = time_cell(b, v, Scale::Eval, GpuConfig::k20c(), 0);
        if serial_cycles != sharded_cycles {
            eprintln!(
                "perf_probe: FATAL: paper cell diverged ({sharded_cycles} vs {serial_cycles})"
            );
            std::process::exit(1);
        }
        format!(
            concat!(
                "{{\n",
                "    \"cell\": \"bfs_usa_road/dtbl @ eval scale\",\n",
                "    \"sim_cycles\": {},\n",
                "    \"serial_wall_seconds\": {:.3},\n",
                "    \"sharded_wall_seconds\": {:.3},\n",
                "    \"sharded_vs_serial_speedup\": {:.2}\n",
                "  }}"
            ),
            serial_cycles,
            serial_wall,
            sharded_wall,
            serial_wall / sharded_wall.max(1e-9),
        )
    } else {
        "null".to_string()
    };

    let auto_ratio = decoded.wall_seconds / auto.wall_seconds.max(1e-9);
    let x4_ratio = decoded.wall_seconds / x4.wall_seconds.max(1e-9);
    let json = format!(
        concat!(
            "{{\n",
            "  \"probe\": \"test-scale matrix, {} cells, --jobs 1\",\n",
            "  \"host_cores\": {},\n",
            "  \"decoded_serial\": {},\n",
            "  \"legacy_serial\": {},\n",
            "  \"sharded_auto\": {},\n",
            "  \"sharded_x4\": {},\n",
            "  \"decoded_vs_legacy\": {:.2},\n",
            "  \"sharded_auto_vs_serial\": {:.2},\n",
            "  \"forced_x4_vs_serial\": {:.2},\n",
            "  \"paper_cell\": {}\n",
            "}}\n"
        ),
        decoded.cells_total,
        host_cores,
        decoded.json(),
        legacy.json(),
        auto.json(),
        x4.json(),
        decoded_vs_legacy,
        auto_ratio,
        x4_ratio,
        paper_cell,
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("perf_probe: failed to write {out}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!(
        "perf_probe ({host_cores} core(s)): decoded {:.1}s ({:.2} cells/s), scalar {:.1}s \
         ({decoded_vs_legacy:.2}x decoded speedup), auto {:.1}s ({auto_ratio:.2}x), \
         forced x4 {:.1}s ({x4_ratio:.2}x); wrote {out}",
        decoded.wall_seconds,
        decoded.cells_per_sec(),
        legacy.wall_seconds,
        auto.wall_seconds,
        x4.wall_seconds,
    );
}
