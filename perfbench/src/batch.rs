//! The batch workloads: one caller runs cells back to back on one warm
//! slot, each cell starting from empty modelled caches (`reset_bind`).

use crate::reference::Reference;
use crate::report::{
    median, min, model_geomeans, ms, peak_rss_mb, print_accuracy, tail, Outcome, Work,
};
use crate::spans::{Layer, Spans};
use crate::{Args, Workload};
use gpu_sim::{GpuConfig, WarmSlot};
use sim_rand::{Rng, SeedableRng, StdRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use workloads::{Benchmark, CellSetup, Scale, Variant};

/// How many times a run builds its setups; `setup_s` is the fastest. One
/// build takes 5–60 ms. The builds are spread evenly over the run's time,
/// so a stretch of slow host does not catch all of them.
const SETUP_BUILDS: usize = 24;

/// Runs of each cell a run makes at least; past `--seconds` a run stops
/// as soon as every cell has this many.
const MIN_SAMPLES: usize = 2;

/// The five launch-heavy benchmarks of the Eval-scale workloads.
pub const EVAL_BENCHES: [Benchmark; 5] = [
    Benchmark::ClrGraph500,
    Benchmark::SsspCage15,
    Benchmark::BfsCage15,
    Benchmark::Bht,
    Benchmark::Amr,
];

/// A batch workload's cells: its scale and `(benchmark, variant)` list.
pub fn cells(w: Workload) -> (Scale, Vec<(Benchmark, Variant)>) {
    let cross = |bs: &[Benchmark], vs: &[Variant]| -> Vec<(Benchmark, Variant)> {
        bs.iter()
            .flat_map(|&b| vs.iter().map(move |&v| (b, v)))
            .collect()
    };
    match w {
        Workload::TestMatrix => (Scale::Test, cross(&Benchmark::ALL, &Variant::MAIN)),
        Workload::EvalDyn => (
            Scale::Eval,
            cross(&EVAL_BENCHES, &[Variant::Cdp, Variant::Dtbl]),
        ),
        Workload::EvalFlat => (Scale::Eval, cross(&EVAL_BENCHES, &[Variant::Flat])),
        Workload::ServeMix => unreachable!("serve_mix is not a batch workload"),
    }
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// The built setups and the warm slot the measured passes run on.
struct Bench {
    setups: Vec<CellSetup>,
    slot: WarmSlot,
}

fn setup_of(setups: &[CellSetup], b: Benchmark) -> &CellSetup {
    setups
        .iter()
        .find(|s| s.benchmark() == b)
        .expect("a setup per benchmark")
}

/// Builds every setup of the workload and pays the one cold `Gpu::new`.
/// Returns the bench, the Σ `CellSetup::new` time and the cold-bind time.
fn build(
    scale: Scale,
    cells: &[(Benchmark, Variant)],
    spans: &mut Spans,
) -> Result<(Bench, Duration, Duration), String> {
    let mut setups: Vec<CellSetup> = Vec::new();
    let mut build = Duration::ZERO;
    for &(b, _) in cells {
        if setups.iter().any(|s| s.benchmark() == b) {
            continue;
        }
        let sp = spans.begin("setup", Layer::Setup, 0, None);
        let t = Instant::now();
        let s = CellSetup::new(b, scale, GpuConfig::k20c())
            .map_err(|e| format!("CellSetup::new({}): {e}", b.name()))?;
        build += t.elapsed();
        spans.end(sp);
        setups.push(s);
    }
    let mut bench = Bench {
        setups,
        slot: WarmSlot::new(),
    };
    let (b, v) = cells[0];
    let setup = setup_of(&bench.setups, b);
    let (cfg, prog) = (setup.run_cfg(v), setup.program(v).0.clone());
    let sp = spans.begin("cold_bind", Layer::Bind, 0, None);
    let t = Instant::now();
    bench.slot.bind(cfg, prog);
    let cold = t.elapsed();
    spans.end(sp);
    Ok((bench, build, cold))
}

/// Each build's times: the whole setup, Σ `CellSetup::new`, cold bind.
#[derive(Default)]
struct BuildTimes {
    setup_s: Vec<f64>,
    build_ms: Vec<f64>,
    cold_ms: Vec<f64>,
}

/// Builds the workload again, replacing `old`, which it drops first so
/// peak memory holds one build; returns the build and its whole time.
fn rebuild(
    scale: Scale,
    cells: &[(Benchmark, Variant)],
    old: Option<Bench>,
    spans: &mut Spans,
    times: &mut BuildTimes,
) -> Result<(Bench, Duration), String> {
    drop(old);
    let t = Instant::now();
    let (bench, build, cold) = build(scale, cells, spans)?;
    let d = t.elapsed();
    times.setup_s.push(d.as_secs_f64());
    times.build_ms.push(ms(build));
    times.cold_ms.push(ms(cold));
    Ok((bench, d))
}

/// Runs a batch workload.
pub fn run(
    w: Workload,
    args: &Args,
    reference: &Reference,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let (scale, cells) = cells(w);
    let seconds = Duration::from_secs_f64(args.seconds);
    let build_every = seconds / SETUP_BUILDS as u32;
    let mut times = BuildTimes::default();
    spans.set_on(args.trace);
    let (mut bench, _) = rebuild(scale, &cells, None, spans, &mut times)?;

    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut cell_secs: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut work = Work::default();
    let mut first_cycles: HashMap<(Benchmark, Variant), u64> = HashMap::new();
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut bind_probe = Duration::ZERO;
    let mut bind_probes = Vec::new();
    let mut op = 0u64;
    let measured_from = spans.len();
    let t_run = Instant::now();
    let mut next_build = build_every;
    // Untraced runs stop at the first cell boundary past `--seconds` where
    // every cell has `MIN_SAMPLES` runs; traced runs stop after a whole
    // pass past it, and make at least one untraced and one traced pass.
    let done = |samples: &[Vec<f64>]| {
        t_run.elapsed() >= seconds && samples.iter().all(|s| s.len() >= MIN_SAMPLES)
    };
    'passes: for pass in 0.. {
        let traced = args.trace && pass % 2 == 1;
        if args.trace && pass >= 2 && t_run.elapsed() >= seconds {
            break;
        }
        spans.set_on(traced);
        let mut order: Vec<usize> = (0..cells.len()).collect();
        shuffle(&mut order, &mut rng);
        let t_pass = Instant::now();
        let mut pass_builds = Duration::ZERO;
        for &ci in &order {
            if !args.trace && done(&cell_secs) {
                if ci != order[0] {
                    untraced_walls.push((t_pass.elapsed() - pass_builds).as_secs_f64());
                }
                break 'passes;
            }
            if t_run.elapsed() >= next_build {
                next_build += build_every;
                // Builds stay out of the traced passes' spans and walls.
                spans.set_on(false);
                let (b, d) = rebuild(scale, &cells, Some(bench), spans, &mut times)?;
                bench = b;
                pass_builds += d;
                spans.set_on(traced);
            }
            let (b, v) = cells[ci];
            op += 1;
            out.attempted += 1;
            let root = spans.begin("cell", Layer::Bench, op, None);
            let setup = setup_of(&bench.setups, b);
            if traced {
                // A standalone bind of the same cell prices the bind that
                // `run_warm` performs internally.
                let (cfg, prog) = (setup.run_cfg(v), setup.program(v).0.clone());
                let sp = spans.begin("bind", Layer::Bind, op, Some(root));
                let t = Instant::now();
                bench.slot.bind(cfg, prog);
                let d = t.elapsed();
                spans.end(sp);
                bind_probe += d;
                bind_probes.push(d.as_secs_f64() * 1e6);
            }
            let sp = spans.begin("run_warm", Layer::Run, op, Some(root));
            let t = Instant::now();
            let res = setup.run_warm(v, &mut bench.slot);
            let dt = t.elapsed();
            spans.end(sp);
            let sp = spans.begin("verify", Layer::Bench, op, Some(root));
            match res {
                Ok(report) => {
                    if let Err(why) = reference.check(scale, b, v, &report.stats) {
                        out.mismatch(why);
                    }
                    if pass == 0 {
                        work.add(&report.stats);
                        first_cycles.insert((b, v), report.stats.cycles);
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.mismatch(format!("{}/{}/{}: {e}", scale.name(), b.name(), v.label()));
                }
            }
            spans.end(sp);
            spans.end(root);
            if !traced {
                cell_secs[ci].push(dt.as_secs_f64());
            }
        }
        let wall = (t_pass.elapsed() - pass_builds).as_secs_f64();
        if traced {
            traced_walls.push(wall);
        } else {
            untraced_walls.push(wall);
        }
    }
    let passes = untraced_walls.len();
    let fmt = |w: &[f64]| {
        w.iter()
            .map(|s| format!("{s:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "pass walls (s): untraced [{}] traced [{}]",
        fmt(&untraced_walls),
        fmt(&traced_walls)
    );
    println!(
        "{}: {} untraced + {} traced passes of {} cells ({} scale) in {:.1} s",
        w.name(),
        passes,
        traced_walls.len(),
        cells.len(),
        scale.name(),
        t_run.elapsed().as_secs_f64()
    );
    if w == Workload::TestMatrix && first_cycles.len() == cells.len() {
        let g = model_geomeans(|b, v| first_cycles[&(b, v)]);
        print_accuracy(&g);
    }

    if !args.trace {
        // Each cell's fastest run. On a shared 2-core virtual machine the
        // host slows for stretches of 10–60 s and more (Eval cells up to
        // 1.8×), and the share of a run those stretches cover moved pass
        // totals and percentiles by 20–30% between runs. The fastest run
        // of the same Test cells stayed within 3% from one 5 s stretch to
        // the next.
        let best_ms: Vec<f64> = cell_secs.iter().map(|s| 1e3 * min(s)).collect();
        let pass_secs = best_ms.iter().sum::<f64>() / 1e3;
        let (tail_ms, pct, n) = tail(&best_ms);
        let runs = cell_secs.iter().map(Vec::len);
        println!(
            "cell times: fastest of {}–{} runs per cell; p50 and tail = p{pct:.1} of {n} cells",
            runs.clone().min().unwrap_or(0),
            runs.max().unwrap_or(0)
        );
        let p50 = median(&best_ms);
        out.metric("setup_s", min(&times.setup_s), "s");
        out.metric(
            "sim_minst_per_s",
            work.warp_issues as f64 / pass_secs / 1e6,
            "Minst/s",
        );
        out.metric("cell_p50_ms", p50, "ms");
        out.metric("cell_tail_ms", tail_ms, "ms");
        // One caller, one cell per request: a request's latency is its
        // cell's host time.
        out.metric("req_p50_ms", p50, "ms");
        out.metric("req_tail_ms", tail_ms, "ms");
        out.metric("req_per_s", cells.len() as f64 / pass_secs, "1/s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        return Ok(());
    }

    // Traced run: per-layer numbers from the traced passes.
    let tp = traced_walls.len() as f64;
    let mut selfs = spans.self_times(measured_from);
    // `run_warm` binds internally; charge that share to bind.
    let run_idx = Layer::ALL
        .iter()
        .position(|&l| l == Layer::Run)
        .expect("run layer");
    selfs[run_idx] = selfs[run_idx].saturating_sub(bind_probe);
    let run_secs = spans
        .total("run_warm")
        .saturating_sub(bind_probe)
        .as_secs_f64()
        / tp;
    out.metric("setup.build_ms", median(&times.build_ms), "ms");
    out.metric("bind.warm_us", median(&bind_probes), "us");
    out.metric("bind.cold_ms", median(&times.cold_ms), "ms");
    out.metric("run.ms", run_secs * 1e3, "ms");
    out.metric(
        "run.ns_per_warp_issue",
        run_secs * 1e9 / work.warp_issues as f64,
        "ns",
    );
    out.metric(
        "run.ns_per_sim_cycle",
        run_secs * 1e9 / work.cycles as f64,
        "ns",
    );
    work.emit(out);
    crate::report::emit_model(reference, out);
    crate::emit_self_times(&selfs, tp, out);
    out.metric(
        "trace_overhead",
        (traced_walls.iter().sum::<f64>() / tp)
            / (untraced_walls.iter().sum::<f64>() / passes as f64),
        "x",
    );
    Ok(())
}
