//! The repository benchmark for the DTBL reproduction.
//!
//! ```text
//! perfbench --workload <test_matrix|eval_dyn|eval_flat|serve_mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --record <path>      # rewrite the correctness reference
//! ```
//!
//! `serve_mix` also starts this program with `--rss-probe <round>` to
//! measure peak memory in fresh processes (see `serve.rs`).
//!
//! Each run builds its setups, measures passes (or serving rounds)
//! until `--seconds` have elapsed, checks every simulated result against
//! `reference.tsv`, and prints one JSON object as its last stdout line.
//! With `--trace 0` the object holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of a run that alternates
//! untraced and span-traced passes. See `README.md` for every metric.

mod batch;
mod reference;
mod report;
mod serve;
mod spans;

use report::Outcome;
use spans::{Layer, Spans};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The end-to-end metrics every `--trace 0` run prints, with units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("cell_p50_ms", "ms"),
    ("cell_tail_ms", "ms"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every `--trace 1` run prints, with units. A
/// layer a workload does not reach reads 0.
const PER_LAYER: [(&str, &str); 51] = [
    ("setup.build_ms", "ms"),
    ("bind.warm_us", "us"),
    ("bind.cold_ms", "ms"),
    ("run.ms", "ms"),
    ("run.ns_per_warp_issue", "ns"),
    ("run.ns_per_sim_cycle", "ns"),
    ("launch.host", "count"),
    ("launch.dyn", "count"),
    ("launch.per_m_issue", "1/Minst"),
    ("agt.coalesced", "count"),
    ("agt.coalesce_ratio", "ratio"),
    ("agt.fallbacks", "count"),
    ("agt.overflows", "count"),
    ("launch.peak_pending_kb", "KiB"),
    ("launch.avg_wait_cycles", "cycles"),
    ("issue.warp_issues", "count"),
    ("issue.lanes_per_issue", "lanes"),
    ("issue.tb_completed", "count"),
    ("issue.busy_cycle_share", "ratio"),
    ("engine.sim_cycles", "cycles"),
    ("engine.cycles_per_issue", "cycles"),
    ("mem.transactions", "count"),
    ("mem.tx_per_issue", "ratio"),
    ("mem.l1_hit_ratio", "ratio"),
    ("mem.l2_hit_ratio", "ratio"),
    ("mem.dram_row_hit_ratio", "ratio"),
    ("mem.dram_efficiency", "ratio"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("trace.bytes", "bytes"),
    ("trace.export_ms", "ms"),
    ("trace.fetch_ms", "ms"),
    ("serve.submit_us", "us"),
    ("serve.wait_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.admission_wait_p50_us", "us"),
    ("serve.admission_wait_tail_us", "us"),
    ("serve.warm_binds", "count"),
    ("serve.cold_builds", "count"),
    ("serve.slot_contention", "count"),
    ("model.cdp_vs_flat", "x"),
    ("model.dtbl_vs_flat", "x"),
    ("model.cdpi_vs_flat", "x"),
    ("model.dtbli_vs_flat", "x"),
    ("model.dtbl_vs_cdp", "x"),
    ("self_ms.bind", "ms"),
    ("self_ms.run", "ms"),
    ("self_ms.trace", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.bench", "ms"),
    ("trace_overhead", "x"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TestMatrix,
    EvalDyn,
    EvalFlat,
    ServeMix,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::TestMatrix,
        Workload::EvalDyn,
        Workload::EvalFlat,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TestMatrix => "test_matrix",
            Workload::EvalDyn => "eval_dyn",
            Workload::EvalFlat => "eval_flat",
            Workload::ServeMix => "serve_mix",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `serve_mix` only: run only round `k` of the run, print the peak
    /// memory and stop. The workload starts this in child processes.
    pub rss_probe: Option<usize>,
}

const USAGE: &str = "usage: perfbench --workload <test_matrix|eval_dyn|eval_flat|serve_mix> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --record <path>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let rss_probe = if argv.iter().any(|a| a == "--rss-probe") {
        let k = value("--rss-probe")?
            .parse()
            .map_err(|_| "--rss-probe needs a round number".to_string())?;
        Some(k)
    } else {
        None
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rss_probe,
    })
}

/// Refuses a run whose numbers would not mean what they say.
fn check_environment() -> Result<(), String> {
    if cfg!(debug_assertions) || gpu_sim::GpuConfig::k20c().check_invariants {
        return Err(
            "debug build: the per-cycle invariant checker makes runs ~10x slower; \
                    build with --release"
                .into(),
        );
    }
    for var in ["SMX_JOBS", "DEGRADE_POLICY"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; it silently changes every GpuConfig::k20c(), unset it"
            ));
        }
    }
    Ok(())
}

/// The commit when run from the root of a git checkout, else `unknown`.
/// `GIT_DIR` keeps git from searching directories above the working one.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The engine width a default cell runs with (`Gpu::effective_smx_jobs`).
fn effective_engine() -> Result<usize, String> {
    use workloads::{Benchmark, CellSetup, Scale, Variant};
    let setup = CellSetup::new(Benchmark::Amr, Scale::Test, gpu_sim::GpuConfig::k20c())
        .map_err(|e| e.to_string())?;
    let (prog, _) = setup.program(Variant::Flat);
    let mut slot = gpu_sim::WarmSlot::new();
    let gpu = slot.bind(setup.run_cfg(Variant::Flat), prog.clone());
    Ok(gpu.effective_smx_jobs())
}

/// Emits the per-layer self times, per traced pass or round.
pub fn emit_self_times(selfs: &[Duration; 6], passes: f64, out: &mut Outcome) {
    for (layer, d) in Layer::ALL.iter().zip(selfs) {
        let name = match layer {
            Layer::Bind => "self_ms.bind",
            Layer::Run => "self_ms.run",
            Layer::Trace => "self_ms.trace",
            Layer::Serve => "self_ms.serve",
            Layer::Bench => "self_ms.bench",
            // Setup runs before the measured passes; `setup.build_ms`
            // reports it.
            Layer::Setup => continue,
        };
        out.metric(name, report::ms(*d) / passes, "ms");
    }
}

/// Orders the run's metrics as `expected` lists them, filling the ones a
/// workload does not reach with 0. Unknown names are a benchmark bug.
fn canonical(
    metrics: &[(&'static str, f64, &'static str)],
    expected: &[(&str, &str)],
) -> Result<Vec<(String, f64, String)>, String> {
    if let Some((name, ..)) = metrics
        .iter()
        .find(|(n, ..)| !expected.iter().any(|(e, _)| e == n))
    {
        return Err(format!("metric {name} is not declared"));
    }
    Ok(expected
        .iter()
        .map(|&(name, unit)| {
            let v = metrics
                .iter()
                .find(|(n, ..)| *n == name)
                .map_or(0.0, |m| m.1);
            (name.to_string(), v, unit.to_string())
        })
        .collect())
}

fn result_line(out: &Outcome, metrics: &[(String, f64, String)], correct: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(why) = check_environment() {
        eprintln!("perfbench: refusing to run: {why}");
        return ExitCode::from(2);
    }
    if let Some(i) = argv.iter().position(|a| a == "--record") {
        let Some(path) = argv.get(i + 1) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match reference::record(path, &reference_cells()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: record failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let reference = match reference::Reference::load() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let commit = commit();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engine = match effective_engine() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("perfbench: building the engine probe failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} host_cores={host_cores} \
         effective_smx_jobs={engine} commit={commit}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let steal0 = report::steal_ticks();
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch, false);
    let mut out = Outcome::default();
    let run = match args.workload {
        Workload::ServeMix => serve::run(&args, &reference, &mut spans, &mut out),
        w => batch::run(w, &args, &reference, &mut spans, &mut out),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {}: {e}", args.workload.name());
        out.mismatch(e);
    }
    if let (Some(a), Some(b)) = (steal0, report::steal_ticks()) {
        println!(
            "host: {} steal ticks over {:.1} s",
            b.saturating_sub(a),
            epoch.elapsed().as_secs_f64()
        );
    }
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            ".bench_out/spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }

    if args.rss_probe.is_some() {
        // The parent run reads only the `rss_probe_mb` line.
        return if out.mismatches.is_empty() && out.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match canonical(&out.metrics, expected) {
        Ok(m) => m,
        Err(e) => {
            out.mismatch(e);
            Vec::new()
        }
    };
    let correct = out.mismatches.is_empty() && out.failed == 0;
    if !correct {
        eprintln!(
            "perfbench: correctness gate failed ({} mismatches, {} failed of {}); no numbers recorded",
            out.mismatches.len(),
            out.failed,
            out.attempted
        );
        println!("{}", result_line(&out, &[], false));
        return ExitCode::FAILURE;
    }
    for (n, v, u) in &metrics {
        println!("{n:32} {v:>16.6} {u}");
    }
    println!("{}", result_line(&out, &metrics, true));
    ExitCode::SUCCESS
}

/// Every cell any workload runs, for `--record`.
fn reference_cells() -> Vec<(workloads::Scale, workloads::Benchmark, workloads::Variant)> {
    let mut cells = Vec::new();
    for w in [Workload::TestMatrix, Workload::EvalDyn, Workload::EvalFlat] {
        let (scale, list) = batch::cells(w);
        cells.extend(list.into_iter().map(|(b, v)| (scale, b, v)));
    }
    cells
}
