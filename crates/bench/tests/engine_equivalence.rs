//! The engines' headline contract at workload scale: across the full
//! benchmark matrix, every execution engine — per-cycle, event-driven,
//! and the two-phase engine staging inline or on its worker pool at any
//! `smx_jobs` — must produce `Stats` structurally identical to the
//! serial baseline — cycle counts, launch records, memory counters,
//! occupancy integrals, the lot. Any component whose `next_event_at`
//! horizon overshoots its true next state change, or any staged effect
//! committed out of stream order, shows up here as a divergence.
//!
//! The serial baseline itself is pinned by `golden_serial.tsv`: the
//! output of the single-phase serial engine that applied every effect
//! directly, recorded before that engine was folded into the staged one.
//! Every default-config (`smx_jobs = 1`) matrix and trace computed here
//! is checked against it.

use bench::{Matrix, SweepRunner};
use gpu_isa::{Dim3, KernelBuilder, Op, Program, Space};
use gpu_sim::{BudgetKind, CancelToken, Fnv, Gpu, GpuConfig, SimError, Stats};
use gpu_trace::{Category, TraceConfig};
use workloads::{Benchmark, Scale, Variant};

const VARIANTS: [Variant; 3] = [Variant::Flat, Variant::Cdp, Variant::Dtbl];

/// The launch-heavy benchmarks whose JSONL traces are compared byte for
/// byte.
const TRACED: [Benchmark; 3] = [Benchmark::BfsUsaRoad, Benchmark::Amr, Benchmark::Bht];

/// One row per Test cell (`cell`, benchmark, variant, cycles, FNV-1a of
/// the `Stats` Debug form) and one per traced configuration (`trace`,
/// metrics interval, FNV-1a of the JSONL export of the [`TRACED`] cells).
const GOLDEN: &str = include_str!("golden_serial.tsv");

fn fnv_hex(bytes: &[u8]) -> String {
    format!("{:016x}", Fnv::new().bytes(bytes).finish())
}

/// Asserts `actual` equals the golden rows that start with `prefix`,
/// printing the actual rows on a mismatch.
fn assert_golden(prefix: &str, actual: &[String]) {
    let expected: Vec<&str> = GOLDEN.lines().filter(|l| l.starts_with(prefix)).collect();
    assert!(
        !expected.is_empty() && actual.iter().map(String::as_str).eq(expected),
        "rows `{prefix}..` diverged from golden_serial.tsv; actual rows:\n{}",
        actual.join("\n")
    );
}

/// Checks a default-config matrix over every benchmark against the
/// golden cell rows.
fn assert_matrix_golden(m: &Matrix) {
    let mut rows = Vec::new();
    for &bm in Benchmark::ALL.iter() {
        for &v in &VARIANTS {
            rows.push(if m.contains(bm, v) {
                let stats = &m.get(bm, v).stats;
                let digest = fnv_hex(format!("{stats:?}").as_bytes());
                format!("cell\t{bm}\t{v}\t{}\t{digest}", stats.cycles)
            } else {
                format!("cell\t{bm}\t{v}\tfailed\t-")
            });
        }
    }
    assert_golden("cell\t", &rows);
}

/// Checks a default-config JSONL export of the [`TRACED`] cells against
/// the golden trace row for its metrics interval.
fn assert_trace_golden(metrics_interval: u32, jsonl: &str) {
    let prefix = format!("trace\t{metrics_interval}\t");
    assert_golden(&prefix, &[format!("{prefix}{}", fnv_hex(jsonl.as_bytes()))]);
}

/// The default-config matrix, checked against the golden table.
fn serial_matrix() -> Matrix {
    let m = SweepRunner::new(4).run_matrix(&Benchmark::ALL, &VARIANTS, Scale::Test);
    assert_matrix_golden(&m);
    m
}

/// Asserts two matrices agree cell-for-cell: same failure set, and
/// bit-identical `Stats` on every successful cell.
fn assert_matrices_identical(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(
        a.failures().len(),
        b.failures().len(),
        "{what}: failure sets diverged"
    );
    for &bm in Benchmark::ALL.iter() {
        for &v in &VARIANTS {
            assert_eq!(
                a.contains(bm, v),
                b.contains(bm, v),
                "{what}: {bm} [{v}] succeeded under one engine but not the other"
            );
            if !a.contains(bm, v) {
                continue;
            }
            assert_eq!(
                a.get(bm, v).stats,
                b.get(bm, v).stats,
                "{what}: {bm} [{v}] Stats diverged"
            );
        }
    }
}

/// All 16 benchmarks × 3 variants, once per engine. Uses a worker pool
/// for wall clock; `sweep_determinism` separately proves the pool cannot
/// affect results.
#[test]
fn event_driven_stats_match_per_cycle() {
    let evented = serial_matrix();
    let mut cfg = GpuConfig::k20c();
    cfg.force_per_cycle = true;
    let percycle =
        SweepRunner::new(4).run_matrix_with(&Benchmark::ALL, &VARIANTS, Scale::Test, cfg);
    assert_matrices_identical(&evented, &percycle, "event-driven vs per-cycle");
}

/// Pooled staging across the full 16-benchmark × 3-variant matrix:
/// `smx_jobs` of 2 and 4 with the pool forced on (`pool_min_issuable =
/// 2`) must reproduce the serial `Stats` bit-for-bit. Under the auto
/// threshold these cells would stage inline inside a 4-wide sweep pool
/// on any host with ≤4 cores — the serial engine's own code — so the
/// threshold is pinned to keep chunked worker-pool staging compared on
/// every host. The runs go through a sweep pool as well, so this also
/// covers the pool × intra-sim composition rules.
#[test]
fn sharded_engine_stats_match_serial_across_matrix() {
    let serial = serial_matrix();
    for jobs in [2usize, 4] {
        let mut cfg = GpuConfig::k20c();
        cfg.smx_jobs = jobs;
        cfg.pool_min_issuable = 2;
        let pooled =
            SweepRunner::new(4).run_matrix_with(&Benchmark::ALL, &VARIANTS, Scale::Test, cfg);
        assert_matrices_identical(
            &serial,
            &pooled,
            &format!("serial vs forced pool (smx_jobs={jobs})"),
        );
    }
}

/// Event traces, not just aggregate stats: on three launch-heavy
/// benchmarks the JSONL export of a pooled run must be *byte-identical*
/// to the serial run — same events, same order, same cycle stamps. The
/// per-SMX shard trace buffers are merged in SMX-index order at commit,
/// which is exactly the order one inline shard emits them in.
#[test]
fn sharded_engine_traces_match_serial_byte_for_byte() {
    let jsonl = |jobs: usize, pool_min: usize| -> String {
        let mut cfg = GpuConfig::k20c();
        cfg.smx_jobs = jobs;
        cfg.pool_min_issuable = pool_min;
        cfg.trace = TraceConfig {
            mask: Category::default_mask(),
            metrics_interval: 1000,
            ..TraceConfig::off()
        };
        let mut m = SweepRunner::new(1).run_matrix_with(&TRACED, &VARIANTS, Scale::Test, cfg);
        assert!(m.failures().is_empty(), "traced runs must all succeed");
        gpu_trace::export::jsonl(&m.take_traces(&TRACED, &VARIANTS))
    };
    let serial = jsonl(1, 0);
    assert_trace_golden(1000, &serial);
    for jobs in [2usize, 4] {
        assert!(
            jsonl(jobs, 2) == serial,
            "forced pool, smx_jobs={jobs}: JSONL trace diverged from the serial engine"
        );
    }
}

/// Epoch batching across the full 16-benchmark × 3-variant matrix: with
/// batching on (the default), a staged step whose effects were all
/// SMX-pure may jump straight to the next event horizon — executing
/// *fewer* steps than the per-cycle-equivalent run — yet every cell's
/// `Stats` must stay bit-identical to runs with batching off. The
/// batched side is the serial matrix itself (pinned by the golden
/// table); batched pooled staging is compared by
/// `sharded_engine_stats_match_serial_across_matrix`.
#[test]
fn epoch_batched_matrix_matches_serial_and_unbatched() {
    let serial = serial_matrix();
    for jobs in [2usize, 4] {
        let mut off = GpuConfig::k20c();
        off.smx_jobs = jobs;
        off.epoch_batching = false;
        let m = SweepRunner::new(4).run_matrix_with(&Benchmark::ALL, &VARIANTS, Scale::Test, off);
        assert_matrices_identical(
            &serial,
            &m,
            &format!("serial vs epochs off, smx_jobs={jobs}"),
        );
    }
}

/// Epoch batching under tracing, byte-for-byte: with interval metrics off
/// (`metrics_interval: 0` — a non-zero interval samples every cycle and
/// forces per-cycle stepping, disabling jumps entirely) the epoch-batched
/// engine takes multi-cycle jumps between staged steps, yet the JSONL
/// export must stay byte-identical to the serial engine: same events,
/// same order, same cycle stamps. A jump taken after a step that staged
/// *any* cross-SMX effect would mis-stamp the next wave of events and
/// fail here.
#[test]
fn epoch_batched_traces_match_serial_byte_for_byte() {
    let jsonl = |jobs: usize, pool_min: usize| -> String {
        let mut cfg = GpuConfig::k20c();
        cfg.smx_jobs = jobs;
        cfg.pool_min_issuable = pool_min;
        cfg.trace = TraceConfig {
            mask: Category::default_mask(),
            metrics_interval: 0,
            ..TraceConfig::off()
        };
        let mut m = SweepRunner::new(1).run_matrix_with(&TRACED, &VARIANTS, Scale::Test, cfg);
        assert!(m.failures().is_empty(), "traced runs must all succeed");
        gpu_trace::export::jsonl(&m.take_traces(&TRACED, &VARIANTS))
    };
    let serial = jsonl(1, 0);
    assert_trace_golden(0, &serial);
    for (jobs, pool_min) in [(2usize, 2usize), (13, 0)] {
        assert!(
            jsonl(jobs, pool_min) == serial,
            "smx_jobs={jobs} pool_min_issuable={pool_min}: \
             epoch-batched JSONL trace diverged from the serial engine"
        );
    }
}

/// The warm-pool serving contract across the full matrix: every benchmark
/// run cold (fresh construction per cell), warm-pooled (reset + bind on a
/// shared server), and as a cache hit (same server, repeat batch) must
/// produce bit-identical `Stats`. Any mutable field `Gpu::reset_bind`
/// forgets to reinitialize, or any artifact-relevant config field
/// `GpuConfig::content_hash` forgets to hash, shows up here.
#[test]
fn cold_warm_and_cached_paths_are_bit_identical() {
    let runner = SweepRunner::new(4);
    let cold = runner.run_matrix_cold(&Benchmark::ALL, &VARIANTS, Scale::Test, GpuConfig::k20c());

    let server = runner.server();
    let warm = runner.run_matrix_on(
        &server,
        &Benchmark::ALL,
        &VARIANTS,
        Scale::Test,
        GpuConfig::k20c(),
    );
    assert_matrices_identical(&cold, &warm, "cold vs warm-pooled");
    let executed = server.cache_misses();
    assert!(
        server.warm_binds() > 0,
        "a 48-cell batch on a 4-slot pool must rebind warm instances"
    );

    let cached = runner.run_matrix_on(
        &server,
        &Benchmark::ALL,
        &VARIANTS,
        Scale::Test,
        GpuConfig::k20c(),
    );
    assert_eq!(
        server.cache_misses(),
        executed,
        "the repeat batch must be served entirely from the result cache"
    );
    assert_eq!(server.cache_hits(), executed);
    assert_matrices_identical(&cold, &cached, "cold vs cache-hit");
}

/// Traces through the serving paths, not just aggregate stats: the JSONL
/// export of a warm-pooled run and of a cache-hit run must be
/// byte-identical to the cold run — same events, same order, same cycle
/// stamps (cached reports carry the leader's recorded trace verbatim).
#[test]
fn warm_and_cached_traces_match_cold_byte_for_byte() {
    let mut cfg = GpuConfig::k20c();
    cfg.trace = TraceConfig {
        mask: Category::default_mask(),
        metrics_interval: 1000,
        ..TraceConfig::off()
    };
    let runner = SweepRunner::new(1);
    let jsonl = |m: &mut Matrix| -> String {
        assert!(m.failures().is_empty(), "traced runs must all succeed");
        gpu_trace::export::jsonl(&m.take_traces(&TRACED, &VARIANTS))
    };

    let mut cold = runner.run_matrix_cold(&TRACED, &VARIANTS, Scale::Test, cfg.clone());
    let cold_jsonl = jsonl(&mut cold);
    assert!(!cold_jsonl.is_empty());

    let server = runner.server();
    let mut warm = runner.run_matrix_on(&server, &TRACED, &VARIANTS, Scale::Test, cfg.clone());
    assert!(
        jsonl(&mut warm) == cold_jsonl,
        "warm-pooled JSONL trace diverged from cold construction"
    );

    let mut cached = runner.run_matrix_on(&server, &TRACED, &VARIANTS, Scale::Test, cfg);
    assert_eq!(server.cache_hits(), 9, "second traced batch is all hits");
    assert!(
        jsonl(&mut cached) == cold_jsonl,
        "cache-hit JSONL trace diverged from cold construction"
    );
}

/// A run budget is part of the determinism contract, not an escape hatch
/// from it: a cycle cap must land every engine — per-cycle, event-driven,
/// and the two-phase sharded engine — on the *identical* cycle with
/// bit-identical partial `Stats`. The cap is folded into the event
/// engine's skip target, so even a skip that would have sailed past the
/// cap stops exactly on it.
#[test]
fn cycle_cap_trips_at_identical_cycle_across_engines() {
    let (b, v) = (Benchmark::BfsCitation, Variant::Dtbl);
    let full = b
        .run_with(v, Scale::Test, GpuConfig::k20c())
        .expect("unbudgeted probe run completes");
    let cap = full.stats.cycles / 2;
    assert!(cap > 0, "the probe run must be long enough to halve");

    let run = |mut cfg: GpuConfig| -> (u64, Box<Stats>) {
        cfg.budget.cycle_cap = Some(cap);
        match b.run_with(v, Scale::Test, cfg) {
            Err(SimError::DeadlineExceeded {
                budget: BudgetKind::Cycles,
                cycle,
                stats,
            }) => (cycle, stats),
            other => panic!("expected a cycle-cap stop, got {other:?}"),
        }
    };

    let mut pc_cfg = GpuConfig::k20c();
    pc_cfg.force_per_cycle = true;
    let (pc_cycle, pc_stats) = run(pc_cfg);
    let (ev_cycle, ev_stats) = run(GpuConfig::k20c());
    let mut sh_cfg = GpuConfig::k20c();
    sh_cfg.smx_jobs = 4;
    let (sh_cycle, sh_stats) = run(sh_cfg);
    // Epoch batching armed against the cap: a jump planned mid-epoch is
    // clamped by the budget fold, so the batched engine stops on the
    // identical cycle instead of sailing past it.
    let mut eb_cfg = GpuConfig::k20c();
    eb_cfg.smx_jobs = 4;
    eb_cfg.epoch_batching = false;
    let (eb_cycle, eb_stats) = run(eb_cfg);
    let mut pl_cfg = GpuConfig::k20c();
    pl_cfg.smx_jobs = 2;
    pl_cfg.pool_min_issuable = 2;
    let (pl_cycle, pl_stats) = run(pl_cfg);

    assert_eq!(
        pc_cycle, cap,
        "per-cycle engine must stop exactly at the cap"
    );
    assert_eq!(ev_cycle, cap, "event engine must land exactly on the cap");
    assert_eq!(sh_cycle, cap, "sharded engine must land exactly on the cap");
    assert_eq!(
        eb_cycle, cap,
        "unbatched sharded engine must land exactly on the cap"
    );
    assert_eq!(
        pl_cycle, cap,
        "forced-pool sharded engine must land exactly on the cap"
    );
    assert_eq!(
        pc_stats, ev_stats,
        "partial stats diverged: per-cycle vs event-driven"
    );
    assert_eq!(
        ev_stats, sh_stats,
        "partial stats diverged: serial vs sharded (smx_jobs=4)"
    );
    assert_eq!(
        sh_stats, eb_stats,
        "partial stats diverged: epoch-batched vs unbatched sharded"
    );
    assert_eq!(
        sh_stats, pl_stats,
        "partial stats diverged: inline vs forced-pool staging"
    );
}

/// One root warp whose lanes each grab a device-side parameter buffer and
/// CDP-launch a child — the heap grows *mid-run*, at an instruction, not
/// at setup.
fn heapy_gpu(cfg: GpuConfig) -> Gpu {
    let mut prog = Program::new();
    // Child: tag its 32-word slice.
    let mut cb = KernelBuilder::new("child", Dim3::x(32), 1);
    let base = cb.ld_param(0);
    let gtid = cb.global_tid();
    let addr = cb.mad(gtid, Op::Imm(4), Op::Reg(base));
    cb.st(Space::Global, addr, 0, Op::Reg(gtid));
    let child = prog.add(cb.build().unwrap());
    // Root: each lane launches one child on its own slice.
    let mut rb = KernelBuilder::new("root", Dim3::x(8), 1);
    let out = rb.ld_param(0);
    let gtid = rb.global_tid();
    let buf = rb.get_param_buf(1);
    let slice = rb.imul(gtid, Op::Imm(32 * 4));
    let sbase = rb.iadd(slice, Op::Reg(out));
    rb.st_param_word(buf, 0, Op::Reg(sbase));
    rb.launch_device(child, Op::Imm(1), buf);
    let root = prog.add(rb.build().unwrap());

    let mut gpu = Gpu::new(cfg, prog);
    let out = gpu.malloc(8 * 32 * 4).unwrap();
    gpu.launch(root, 1, &[out], 0).unwrap();
    gpu
}

/// The live-heap cap trips the first time an *executed instruction* grows
/// the heap past it. Heap growth only happens on cycles where work runs,
/// and every engine steps exactly those cycles, so the trip cycle — and
/// the partial stats — must be identical across all three engines.
#[test]
fn heap_cap_trips_at_identical_cycle_across_engines() {
    // Measure the post-setup baseline once; the device-side parameter
    // buffers allocated mid-run are what must push past the cap.
    let baseline = heapy_gpu(GpuConfig::test_small()).heap_live_bytes();
    let cap = baseline + 300;

    let run = |mut cfg: GpuConfig| -> (u64, Box<Stats>) {
        cfg.budget.live_heap_cap = Some(cap);
        let mut gpu = heapy_gpu(cfg);
        match gpu.run_to_idle() {
            Err(SimError::DeadlineExceeded {
                budget: BudgetKind::LiveHeap,
                cycle,
                stats,
            }) => (cycle, stats),
            other => panic!("expected a live-heap stop, got {other:?}"),
        }
    };

    let mut pc_cfg = GpuConfig::test_small();
    pc_cfg.force_per_cycle = true;
    let (pc_cycle, pc_stats) = run(pc_cfg);
    let (ev_cycle, ev_stats) = run(GpuConfig::test_small());
    let mut sh_cfg = GpuConfig::test_small();
    sh_cfg.smx_jobs = 4;
    let (sh_cycle, sh_stats) = run(sh_cfg);

    assert!(pc_cycle > 0, "the cap must trip mid-run, not at setup");
    assert_eq!(
        pc_cycle, ev_cycle,
        "heap-cap trip cycle: per-cycle vs event"
    );
    assert_eq!(ev_cycle, sh_cycle, "heap-cap trip cycle: serial vs sharded");
    assert_eq!(
        pc_stats, ev_stats,
        "heap-cap partial stats: per-cycle vs event"
    );
    assert_eq!(
        ev_stats, sh_stats,
        "heap-cap partial stats: serial vs sharded"
    );
}

/// Wall-clock deadlines depend on the host, so the contract is shape
/// only: a 0 ms deadline must surface as the typed `WallClock` budget
/// stop carrying a partial-stats snapshot stamped with the stop cycle —
/// never a panic, never an unrelated error. (The wall check is sampled
/// every 1024 steps, so the per-cycle engine guarantees it runs.)
#[test]
fn wall_clock_deadline_surfaces_as_a_typed_error() {
    let mut cfg = GpuConfig::k20c();
    cfg.force_per_cycle = true;
    cfg.budget.deadline_ms = Some(0);
    match Benchmark::BfsCitation.run_with(Variant::Dtbl, Scale::Test, cfg) {
        Err(SimError::DeadlineExceeded {
            budget: BudgetKind::WallClock,
            cycle,
            stats,
        }) => {
            assert!(cycle > 0, "the deadline is checked after stepping");
            assert_eq!(
                stats.cycles, cycle,
                "the partial snapshot must be stamped with the stop cycle"
            );
        }
        other => panic!("expected a wall-clock stop, got {other:?}"),
    }
}

/// A token cancelled before the run starts stops it at the first
/// boundary check with partial stats — the cooperative-cancellation
/// contract a sweep driver relies on to abandon cells.
#[test]
fn pre_cancelled_token_stops_the_run_with_partial_stats() {
    let token = CancelToken::new();
    token.cancel();
    let mut cfg = GpuConfig::k20c();
    cfg.budget.cancel = Some(token);
    match Benchmark::BfsCitation.run_with(Variant::Dtbl, Scale::Test, cfg) {
        Err(SimError::Cancelled { cycle, stats }) => {
            assert!(cycle >= 1, "cancellation lands after at least one step");
            assert_eq!(stats.cycles, cycle);
        }
        other => panic!("expected a cancellation stop, got {other:?}"),
    }
}
