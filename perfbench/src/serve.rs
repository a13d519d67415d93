//! `serve_mix`: a closed loop of two client connections against an
//! in-process `gpu-serve` daemon on loopback.
//!
//! A run is a sequence of rounds. Each round starts a fresh daemon (no
//! cache file, a warm pool of one worker), connects both clients, and
//! drains one seeded request list. Its untraced part has the shape of
//! the repository's daemon check, `daemon_smoke`: every cell once, and
//! [`REPLAYS`] more requests of it, so 80% of the untraced requests are
//! repeats the result cache answers. Here each repeat falls at a seeded
//! place after the cell's first request. On top of that come traced
//! submissions of the small launch-heavy cells, whose JSONL trace the
//! client then fetches. Each client sends its next request only after the
//! previous result arrived.

use crate::batch::shuffle;
use crate::reference::{Fnv, Reference};
use crate::report::{median, min, ms, peak_rss_mb, tail, Outcome, Work};
use crate::spans::{Layer, Spans};
use crate::Args;
use gpu_serve::client::{snapshot_counter, snapshot_percentile};
use gpu_serve::{serve, Client, ConfigPreset, DaemonHandle, ServeConfig, SubmitSpec};
use gpu_sim::Stats;
use gpu_trace::TraceData;
use sim_rand::{Rng, SeedableRng, StdRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use workloads::{Benchmark, CellSetup, Scale, Variant};

/// Client connections in the closed loop.
const CLIENTS: usize = 2;
/// The benchmarks whose Test cells each take 0.4–1.4 s of host time, 85%
/// of the whole matrix. They are left out of the mix: on a 2-core host a
/// round with them takes ~10 s, too long for enough rounds in a run to
/// pin the latency percentiles down.
const LONG: [Benchmark; 2] = [Benchmark::ClrCage15, Benchmark::ClrGraph500];
/// Repeats of each cell per round: `daemon_smoke` seeds its daemon with
/// one pass over its cells and then replays them from four clients.
const REPLAYS: usize = 4;
/// A run makes rounds until `--seconds` have passed, and at least this
/// many.
const MIN_ROUNDS: usize = 5;
/// `setup_s` is the fastest of `SETUP_SAMPLES` samples per round, each
/// the mean of `SETUP_GROUP` daemon start + connect cycles made back to
/// back. One cycle takes well under a millisecond, too short for a single
/// timing to be steady on a shared host. The samples are spread over the
/// run, a few before each round, so a slow stretch of the host
/// does not catch all of them. The first `SETUP_WARMUP` cycles of the run
/// are not timed: the first ~80 cycles of a process ran 3–10× slower than
/// the rest.
const SETUP_WARMUP: usize = 200;
const SETUP_SAMPLES: usize = 2;
const SETUP_GROUP: usize = 10;
/// `peak_rss_mb` is the highest of the peaks of the run's first
/// `RSS_PROBES` rounds, each run alone in a fresh process. In one process
/// only the first round's peak is clean: each later round starts a new
/// daemon on new threads, and the allocator keeps the freed memory of
/// earlier ones. A round's peak depends on its request order (first
/// rounds of five seeds: 52–62 MiB), so one round is not enough.
const RSS_PROBES: usize = 3;
/// glibc's mmap threshold for the probes, fixed at its default starting
/// value so freed large buffers go back to the system. With the dynamic
/// threshold, freed trace buffers stayed resident and one round's peak
/// moved between 93 and 115 MiB on the same seed; fixed, 51.5–51.8 MiB.
const PROBE_MMAP_THRESHOLD: &str = "131072";
/// Server-side wait bound for one request.
const WAIT: Duration = Duration::from_secs(120);
/// Cells submitted traced, once per round: the Test-scale launch-heavy
/// cells with 1–6 MB traces (`clr_graph500`'s is 87 MB, so it is left out).
/// No serving usage in the repository submits traced jobs, so this share
/// (8 of 358 requests) is an assumption; README.md shows how the request
/// latencies move with it.
const TRACED: [(Benchmark, Variant); 8] = [
    (Benchmark::SsspCage15, Variant::Cdp),
    (Benchmark::SsspCage15, Variant::Dtbl),
    (Benchmark::BfsCage15, Variant::Cdp),
    (Benchmark::BfsCage15, Variant::Dtbl),
    (Benchmark::Bht, Variant::Cdp),
    (Benchmark::Bht, Variant::Dtbl),
    (Benchmark::Amr, Variant::Cdp),
    (Benchmark::Amr, Variant::Dtbl),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Req {
    bench: Benchmark,
    variant: Variant,
    traced: bool,
}

/// Every cell of the mix once, untraced.
fn mix_cells() -> Vec<Req> {
    Benchmark::ALL
        .iter()
        .filter(|b| !LONG.contains(b))
        .flat_map(|&bench| {
            Variant::MAIN.map(|variant| Req {
                bench,
                variant,
                traced: false,
            })
        })
        .collect()
}

/// One round's request list: every cell of the mix once in a seeded
/// order, its [`REPLAYS`] repeats somewhere after its first request, and
/// the traced requests anywhere.
fn round_requests(rng: &mut StdRng) -> Vec<Req> {
    let cells = mix_cells();
    let mut seq = cells.clone();
    shuffle(&mut seq, rng);
    for r in cells.into_iter().flat_map(|r| [r; REPLAYS]) {
        let first = seq
            .iter()
            .position(|&q| q == r)
            .expect("every cell is in the list");
        let pos = rng.gen_range(first + 1..=seq.len());
        seq.insert(pos, r);
    }
    for (bench, variant) in TRACED {
        let pos = rng.gen_range(0..=seq.len());
        seq.insert(
            pos,
            Req {
                bench,
                variant,
                traced: true,
            },
        );
    }
    seq
}

fn spec(req: Req, client: usize) -> SubmitSpec {
    SubmitSpec {
        benchmark: req.bench,
        variant: req.variant,
        scale: Scale::Test,
        client: format!("c{client}"),
        weight: 1,
        preset: ConfigPreset::K20c,
        max_cycles: None,
        cycle_cap: None,
        trace: req.traced,
    }
}

/// Digest and size of a trace as exported to JSONL.
struct TraceSeen {
    digest: u64,
    bytes: u64,
    events: u64,
    dropped: u64,
    fetch: Duration,
    export: Duration,
}

fn export_digest(data: TraceData) -> (u64, u64, u64, u64) {
    let (events, dropped) = (data.events.len() as u64, data.dropped);
    let text = gpu_trace::export::jsonl(&[("cell".to_string(), data)]);
    let mut h = Fnv::default();
    h.bytes(text.as_bytes());
    (h.0, text.len() as u64, events, dropped)
}

/// One completed request.
struct Done {
    req: Req,
    /// Earlier requests for the same key in this round's list.
    occurrence: usize,
    latency: Duration,
    submit: Duration,
    wait: Duration,
    stats: Stats,
    trace: Option<TraceSeen>,
}

/// What one round measured.
struct Round {
    wall: Duration,
    done: Vec<Done>,
    metrics: gpu_trace::json::Json,
}

/// Starts a daemon and connects the clients.
fn start(spans: &mut Spans) -> Result<(DaemonHandle, Vec<Client>, Duration), String> {
    let root = spans.begin("start", Layer::Bench, 0, None);
    let t = Instant::now();
    let sp = spans.begin("daemon_start", Layer::Serve, 0, Some(root));
    let handle = serve(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    spans.end(sp);
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        let sp = spans.begin("connect", Layer::Serve, 0, Some(root));
        clients.push(Client::connect(handle.addr).map_err(|e| format!("connect: {e}"))?);
        spans.end(sp);
    }
    let d = t.elapsed();
    spans.end(root);
    Ok((handle, clients, d))
}

fn stop(handle: DaemonHandle, mut clients: Vec<Client>) -> Result<(), String> {
    clients[0]
        .shutdown()
        .map_err(|e| format!("daemon shutdown: {e}"))?;
    drop(clients);
    handle.wait();
    Ok(())
}

/// Mean time of `SETUP_GROUP` daemon start + connect cycles, in seconds.
fn setup_sample(spans: &mut Spans) -> Result<f64, String> {
    let mut sum = Duration::ZERO;
    for _ in 0..SETUP_GROUP {
        let (handle, clients, d) = start(spans)?;
        sum += d;
        stop(handle, clients)?;
    }
    Ok(sum.as_secs_f64() / SETUP_GROUP as f64)
}

/// One client's side of a round: pull the next request, submit, wait,
/// fetch the trace of a traced request, check the result.
fn client_loop(
    c: usize,
    client: &mut Client,
    seq: &[Req],
    next: &AtomicUsize,
    op_base: u64,
    spans: &mut Spans,
    reference: &Reference,
) -> (Vec<Done>, Vec<String>) {
    let mut done = Vec::new();
    let mut errors = Vec::new();
    loop {
        let i = next.fetch_add(1, Ordering::SeqCst);
        let Some(&req) = seq.get(i) else {
            break;
        };
        let op = op_base + i as u64;
        let root = spans.begin("request", Layer::Bench, op, None);
        let t0 = Instant::now();
        let sp = spans.begin("submit", Layer::Serve, op, Some(root));
        let job = client.submit(&spec(req, c));
        spans.end(sp);
        let submit = t0.elapsed();
        let t1 = Instant::now();
        let sp = spans.begin("wait", Layer::Serve, op, Some(root));
        let result = job.and_then(|job| client.wait(job, WAIT).map(|r| (job, r)));
        spans.end(sp);
        let wait = t1.elapsed();
        let cell = format!(
            "{}/{}{}",
            req.bench.name(),
            req.variant.label(),
            if req.traced { "+trace" } else { "" }
        );
        let (job, report) = match result {
            Ok(r) => r,
            Err(e) => {
                errors.push(format!("request {cell}: {e}"));
                spans.end(root);
                continue;
            }
        };
        let mut trace = None;
        if req.traced {
            let t2 = Instant::now();
            let sp = spans.begin("trace_fetch", Layer::Serve, op, Some(root));
            let fetched = client.trace(job);
            spans.end(sp);
            let fetch = t2.elapsed();
            match fetched {
                Ok(Some(data)) => {
                    let t3 = Instant::now();
                    let sp = spans.begin("export", Layer::Trace, op, Some(root));
                    let (digest, bytes, events, dropped) = export_digest(data);
                    spans.end(sp);
                    trace = Some(TraceSeen {
                        digest,
                        bytes,
                        events,
                        dropped,
                        fetch,
                        export: t3.elapsed(),
                    });
                }
                Ok(None) => errors.push(format!("request {cell}: traced job returned no trace")),
                Err(e) => errors.push(format!("request {cell}: trace fetch: {e}")),
            }
        }
        let latency = submit + wait + trace.as_ref().map_or(Duration::ZERO, |t| t.fetch);
        let sp = spans.begin("verify", Layer::Bench, op, Some(root));
        if let Err(why) = reference.check(Scale::Test, req.bench, req.variant, &report.stats) {
            errors.push(why);
        }
        spans.end(sp);
        spans.end(root);
        done.push(Done {
            req,
            occurrence: seq[..i].iter().filter(|&&r| r == req).count(),
            latency,
            submit,
            wait,
            stats: report.stats,
            trace,
        });
    }
    (done, errors)
}

fn run_round(
    seq: &[Req],
    op_base: u64,
    spans: &mut Spans,
    reference: &Reference,
    out: &mut Outcome,
) -> Result<Round, String> {
    let (handle, mut clients, _) = start(spans)?;
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    let epoch_on = (spans.epoch(), spans.is_on());
    let results: Vec<(Vec<Done>, Vec<String>, Spans)> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let next = &next;
                s.spawn(move || {
                    let mut spans = Spans::new(epoch_on.0, epoch_on.1);
                    let (done, errors) =
                        client_loop(c, client, seq, next, op_base, &mut spans, reference);
                    (done, errors, spans)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t.elapsed();
    let mut done = Vec::new();
    for (d, errors, s) in results {
        done.extend(d);
        spans.absorb(s);
        for e in errors {
            out.failed += 1;
            out.mismatch(e);
        }
    }
    out.attempted += seq.len() as u64;
    let sp = spans.begin("metrics", Layer::Serve, 0, None);
    let metrics = clients[0].metrics().map_err(|e| format!("metrics: {e}"))?;
    spans.end(sp);
    stop(handle, clients)?;
    Ok(Round {
        wall,
        done,
        metrics,
    })
}

/// One round's latencies, each keyed by its request and the request's
/// occurrence in the round, so rounds can be matched.
struct RoundLatency {
    by_slot: HashMap<(Req, usize), f64>,
    /// Work of the cells the daemon simulated.
    work: Work,
}

fn round_latency(r: &Round) -> RoundLatency {
    // The daemon simulated each key once; its other requests were cache
    // hits with equal stats (all are checked against the reference).
    let mut seen = std::collections::HashSet::new();
    let mut work = Work::default();
    for d in r.done.iter().filter(|d| seen.insert(d.req)) {
        work.add(&d.stats);
    }
    RoundLatency {
        by_slot: r
            .done
            .iter()
            .map(|d| ((d.req, d.occurrence), ms(d.latency)))
            .collect(),
        work,
    }
}

/// Each key's fastest value across rounds. Every round holds the same
/// requests in another order; the fastest is the one least slowed by the
/// host and by how one order happened to pair the requests in the queue.
fn per_key_fastest<K: std::hash::Hash + Eq + Copy>(maps: &[&HashMap<K, f64>]) -> Vec<f64> {
    let mut acc: HashMap<K, Vec<f64>> = HashMap::new();
    for m in maps {
        for (&k, &v) in m.iter() {
            acc.entry(k).or_default().push(v);
        }
    }
    acc.values().map(|v| min(v)).collect()
}

/// Runs `serve_mix`.
pub fn run(
    args: &Args,
    reference: &Reference,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    spans.set_on(args.trace);
    for _ in 0..SETUP_WARMUP {
        let (handle, clients, _) = start(spans)?;
        stop(handle, clients)?;
    }
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut setups = Vec::new();

    let mut rng = StdRng::seed_from_u64(args.seed);
    let measured_from = spans.len();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let t_run = Instant::now();
    for i in 0.. {
        let enough = match args.rss_probe {
            Some(k) => i > k,
            None => i >= MIN_ROUNDS && t_run.elapsed() >= seconds,
        };
        if enough {
            break;
        }
        let seq = round_requests(&mut rng);
        if args.rss_probe.is_some_and(|k| i < k) {
            // A probe draws the earlier rounds' lists to reach its own.
            continue;
        }
        // Setup samples stay out of the traced rounds' spans.
        spans.set_on(false);
        for _ in 0..SETUP_SAMPLES {
            setups.push(setup_sample(spans)?);
        }
        let traced = args.trace && i % 2 == 1;
        spans.set_on(traced);
        let round = run_round(&seq, (i as u64) << 20, spans, reference, out)?;
        rounds.push((traced, round));
    }
    if args.rss_probe.is_some() {
        // The parent run checks the traces of the same rounds.
        println!("rss_probe_mb {:?}", peak_rss_mb());
        return Ok(());
    }
    verify_traces(&rounds, reference, out)?;

    let untraced: Vec<&Round> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    println!(
        "serve_mix: {} untraced + {} traced rounds of {} requests ({CLIENTS} clients, 1 worker) in {:.1} s",
        untraced.len(),
        traced.len(),
        rounds[0].1.done.len(),
        t_run.elapsed().as_secs_f64()
    );
    let walls: Vec<String> = rounds
        .iter()
        .map(|(t, r)| format!("{:.2}{}", r.wall.as_secs_f64(), if *t { "t" } else { "" }))
        .collect();
    println!("round walls (s, t = traced): [{}]", walls.join(" "));

    if !args.trace {
        let lats: Vec<RoundLatency> = untraced.iter().map(|r| round_latency(r)).collect();
        let req = per_key_fastest(&lats.iter().map(|l| &l.by_slot).collect::<Vec<_>>());
        let (req_tail, req_pct, n_req) = tail(&req);
        println!(
            "latency: fastest over rounds per request; tail = p{req_pct:.1} of {n_req} requests"
        );
        // Simulation speed as clients see it: the warp issues of the cells
        // the daemon simulated ÷ Σ of each such request's fastest latency.
        // A cell's first request in a round is the one the daemon runs;
        // the repeats are cache hits. Like the batch workloads' per-cell
        // fastest runs, this needs each request to be fast in one round
        // only. The fastest round needs all of them fast at once; in runs
        // made side by side it moved about twice as much as this.
        let firsts: Vec<HashMap<(Req, usize), f64>> = lats
            .iter()
            .map(|l| {
                l.by_slot
                    .iter()
                    .filter(|(k, _)| k.1 == 0)
                    .map(|(&k, &v)| (k, v))
                    .collect()
            })
            .collect();
        let sim_s = per_key_fastest(&firsts.iter().collect::<Vec<_>>())
            .iter()
            .sum::<f64>()
            / 1e3;
        // Requests per second of the fastest round: every round answers
        // the same requests.
        let (fastest, lat) = untraced
            .iter()
            .zip(&lats)
            .min_by(|a, b| a.0.wall.cmp(&b.0.wall))
            .expect("at least one untraced round");
        out.metric("setup_s", min(&setups), "s");
        out.metric(
            "sim_minst_per_s",
            lat.work.warp_issues as f64 / sim_s / 1e6,
            "Minst/s",
        );
        // The daemon's per-cell host time is not visible from outside; a
        // client sees a cell only as a request.
        out.metric("cell_p50_ms", median(&req), "ms");
        out.metric("cell_tail_ms", req_tail, "ms");
        out.metric("req_p50_ms", median(&req), "ms");
        out.metric("req_tail_ms", req_tail, "ms");
        out.metric(
            "req_per_s",
            fastest.done.len() as f64 / fastest.wall.as_secs_f64(),
            "1/s",
        );
        let mut peak_rss = 0.0_f64;
        for k in 0..RSS_PROBES {
            peak_rss = peak_rss.max(probe_rss(args, k)?);
        }
        out.metric("peak_rss_mb", peak_rss, "MiB");
        return Ok(());
    }

    let tr = traced.len() as f64;
    round_latency(traced[0]).work.emit(out);
    let all: Vec<&Done> = traced.iter().flat_map(|r| &r.done).collect();
    let seen: Vec<&TraceSeen> = all.iter().filter_map(|d| d.trace.as_ref()).collect();
    let per_round = |f: &dyn Fn(&TraceSeen) -> f64| seen.iter().map(|t| f(t)).sum::<f64>() / tr;
    out.metric("trace.events", per_round(&|t| t.events as f64), "count");
    out.metric("trace.dropped", per_round(&|t| t.dropped as f64), "count");
    out.metric("trace.bytes", per_round(&|t| t.bytes as f64), "bytes");
    out.metric(
        "trace.export_ms",
        median(&seen.iter().map(|t| ms(t.export)).collect::<Vec<_>>()),
        "ms",
    );
    out.metric(
        "trace.fetch_ms",
        median(&seen.iter().map(|t| ms(t.fetch)).collect::<Vec<_>>()),
        "ms",
    );
    out.metric(
        "serve.submit_us",
        median(
            &all.iter()
                .map(|d| d.submit.as_secs_f64() * 1e6)
                .collect::<Vec<_>>(),
        ),
        "us",
    );
    out.metric(
        "serve.wait_ms",
        median(&all.iter().map(|d| ms(d.wait)).collect::<Vec<_>>()),
        "ms",
    );
    let counter = |name: &str| {
        traced
            .iter()
            .map(|r| snapshot_counter(&r.metrics, name) as f64)
            .sum::<f64>()
            / tr
    };
    let (hits, misses) = (counter("server.cache_hits"), counter("server.cache_misses"));
    out.metric("serve.cache_hit_ratio", hits / (hits + misses), "ratio");
    let admission = |pct: &str| {
        median(
            &traced
                .iter()
                .map(|r| {
                    snapshot_percentile(&r.metrics, "admission.wait_us", pct).unwrap_or(0) as f64
                })
                .collect::<Vec<_>>(),
        )
    };
    out.metric("serve.admission_wait_p50_us", admission("p50"), "us");
    out.metric("serve.admission_wait_tail_us", admission("p95"), "us");
    out.metric("serve.warm_binds", counter("server.warm_binds"), "count");
    out.metric("serve.cold_builds", counter("server.cold_builds"), "count");
    out.metric(
        "serve.slot_contention",
        counter("server.slot_contention"),
        "count",
    );
    crate::report::emit_model(reference, out);
    crate::emit_self_times(&spans.self_times(measured_from), tr, out);
    let mean_wall =
        |rs: &[&Round]| rs.iter().map(|r| r.wall.as_secs_f64()).sum::<f64>() / rs.len() as f64;
    out.metric(
        "trace_overhead",
        mean_wall(&traced) / mean_wall(&untraced),
        "x",
    );
    Ok(())
}

/// Runs round `k` of this run alone in a fresh process of this program
/// (`--rss-probe k`), which checks each result against the reference, and
/// returns the process's peak memory through that round.
fn probe_rss(args: &Args, k: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("rss probe: {e}"))?;
    let (seed, seconds, k) = (
        args.seed.to_string(),
        args.seconds.to_string(),
        k.to_string(),
    );
    let run = std::process::Command::new(exe)
        .args(["--workload", "serve_mix", "--seed", &seed])
        .args(["--seconds", &seconds, "--trace", "0", "--rss-probe", &k])
        .env("MALLOC_MMAP_THRESHOLD_", PROBE_MMAP_THRESHOLD)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("rss probe: {e}"))?;
    if !run.status.success() {
        return Err(format!("rss probe failed: {}", run.status));
    }
    String::from_utf8_lossy(&run.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("rss_probe_mb ")?.parse().ok())
        .ok_or_else(|| "rss probe printed no peak".to_string())
}

/// Every fetched trace must be byte-identical to the trace of the same
/// cell run in-process.
fn verify_traces(
    rounds: &[(bool, Round)],
    reference: &Reference,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setups: HashMap<Benchmark, CellSetup> = HashMap::new();
    for (bench, variant) in TRACED {
        let req = Req {
            bench,
            variant,
            traced: true,
        };
        let cfg = spec(req, 0).gpu_config();
        let setup = match setups.entry(bench) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => e.insert(
                CellSetup::new(bench, Scale::Test, cfg)
                    .map_err(|e| format!("CellSetup::new({}): {e}", bench.name()))?,
            ),
        };
        let report = setup
            .run(variant)
            .map_err(|e| format!("in-process {}/{}: {e}", bench.name(), variant.label()))?;
        if let Err(why) = reference.check(Scale::Test, bench, variant, &report.stats) {
            out.mismatch(why);
        }
        let Some(data) = report.trace else {
            out.mismatch(format!(
                "in-process {}/{}: no trace",
                bench.name(),
                variant.label()
            ));
            continue;
        };
        let (want, ..) = export_digest(data);
        for d in rounds
            .iter()
            .flat_map(|(_, r)| &r.done)
            .filter(|d| d.req == req)
        {
            if let Some(t) = &d.trace {
                if t.digest != want {
                    out.mismatch(format!(
                        "{}/{}: served trace differs from the in-process trace",
                        bench.name(),
                        variant.label()
                    ));
                }
            }
        }
    }
    Ok(())
}
