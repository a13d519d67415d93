//! The top-level GPU: host API and the cycle-level execution engine.

use crate::access_slab::AccessSlab;
use crate::config::{CancelToken, GpuConfig};
use crate::dispatch::{KdeEntry, KernelDistributor, Kmu, Origin, PendingKernel};
use crate::error::{BudgetKind, SimError};
use crate::fault::FaultPlan;
use crate::runtime::degrade::LaunchRetry;
use crate::shard::{self, EffectItem, SmxEffects, StageControl};
use crate::smx::warp::WarpState;
use crate::smx::{Smx, Tbcr};
use crate::stats::Stats;
use dtbl_core::{FcfsController, GroupRef, SchedulingPool};
use gpu_isa::{apply_atomic, KernelId, LatClass, Program, WARP_SIZE};
use gpu_mem::{AccessId, AccessKind, BackingStore, LinearAllocator, MemSubsystem};
use gpu_trace::{Category, EventKind, Recorder};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Base of the heap served by [`Gpu::malloc`].
pub(crate) const HEAP_BASE: u32 = 0x1000_0000;
/// Size of the device heap.
pub(crate) const HEAP_SIZE: u32 = 0xD000_0000;
/// Global-memory bytes the runtime reserves per pending device-launched
/// kernel beyond its parameter buffer (kernel configuration record, stream
/// object, KMU bookkeeping). CDP pays this; a coalesced DTBL group's
/// descriptor lives on-chip in the AGT instead.
pub(crate) const CDP_PENDING_RECORD_BYTES: u64 = 192;
/// Bytes of a spilled aggregated-group descriptor (an AGE image plus
/// alignment) when the AGT hash probe misses.
pub(crate) const AGG_OVERFLOW_RECORD_BYTES: u64 = 32;

/// Builds an [`SimError::InvariantViolation`] — the uniform way the
/// engine reports state that breaks its own bookkeeping laws.
pub(crate) fn invariant(cycle: u64, law: String) -> SimError {
    SimError::InvariantViolation { cycle, law }
}

/// Allocates from the device heap, honoring an injected heap-byte cap.
pub(crate) fn heap_alloc(
    alloc: &mut LinearAllocator,
    fault: &FaultPlan,
    now: u64,
    stats: &mut Stats,
    bytes: u32,
) -> Option<u32> {
    if let Some(limit) = fault.heap_limit_bytes {
        if fault.active_at(now) && alloc.live_bytes() + u64::from(bytes) > limit {
            stats.heap_cap_denials += 1;
            return None;
        }
    }
    alloc.alloc(bytes)
}

/// A simulated Kepler-class GPU with CDP device-kernel launch and the DTBL
/// extension.
///
/// # Example
///
/// ```
/// use gpu_isa::{Dim3, KernelBuilder, Op, Program, Space};
/// use gpu_sim::{Gpu, GpuConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // out[i] = i for 64 threads.
/// let mut prog = Program::new();
/// let mut b = KernelBuilder::new("iota", Dim3::x(32), 1);
/// let gtid = b.global_tid();
/// let base = b.ld_param(0);
/// let addr = b.mad(gtid, Op::Imm(4), Op::Reg(base));
/// b.st(Space::Global, addr, 0, Op::Reg(gtid));
/// let k = prog.add(b.build()?);
///
/// let mut gpu = Gpu::new(GpuConfig::test_small(), prog);
/// let out = gpu.malloc(64 * 4)?;
/// gpu.launch(k, 2, &[out], 0)?;
/// gpu.run_to_idle()?;
/// assert_eq!(gpu.mem().read_u32(out + 4 * 63), 63);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Gpu {
    pub(crate) cfg: GpuConfig,
    pub(crate) program: Program,
    pub(crate) mem: BackingStore,
    pub(crate) alloc: LinearAllocator,
    pub(crate) timing: MemSubsystem,
    pub(crate) kmu: Kmu,
    pub(crate) kd: KernelDistributor,
    pub(crate) pool: SchedulingPool,
    pub(crate) fcfs: FcfsController,
    pub(crate) smxs: Vec<Smx>,
    pub(crate) cycle: u64,
    pub(crate) warp_age: u64,
    pub(crate) stats: Stats,
    /// Owner map for in-flight memory accesses: a direct-mapped,
    /// generation-checked slab (ids are monotone), so the two hottest
    /// lookups in the machine never hash and never allocate.
    pub(crate) access_owner: AccessSlab,
    pub(crate) group_record: HashMap<GroupRef, usize>,
    /// Heap bytes reserved per parameter buffer, keyed by buffer address;
    /// recorded at allocation (host launch or `cudaGetParameterBuffer`)
    /// and released into the heap accounting when the kernel that owns
    /// the buffer retires.
    pub(crate) param_bytes: HashMap<u32, u32>,
    /// Per-KDE descriptor-walk state: a spilled (overflow) aggregated
    /// group's descriptor must be fetched from global memory before the
    /// SMX scheduler can distribute its thread blocks (§4.3); this holds
    /// `(group, ready_at)` for the fetch in progress / completed.
    pub(crate) agt_walk: HashMap<u32, (GroupRef, u64)>,
    pub(crate) rr_smx: usize,
    pub(crate) mem_buf: Vec<AccessId>,
    /// Pooled scratch for the FCFS order walked by `distribute_tbs`
    /// (reused every cycle so the distribution path never allocates).
    pub(crate) kde_buf: Vec<u32>,
    /// Per-SMX staging buffers for the two-phase engine; empty until the
    /// first step that stages.
    pub(crate) shards: Vec<SmxEffects>,
    /// Pooled scratch for the tracked access ids of one committed
    /// `MemIssue` item.
    pub(crate) txn_ids_buf: Vec<AccessId>,
    /// Steps actually executed (cycles stepped, not skipped). Equals
    /// `cycle` under per-cycle stepping; far smaller under event-driven
    /// stepping on latency-bound workloads. Not part of [`Stats`] — the
    /// two engines must produce bit-identical stats.
    pub(crate) steps_executed: u64,
    /// Monotone counter bumped by every forward-progress signal (kernel
    /// installation, thread-block placement/retirement, memory completion,
    /// device launch); the run loop's watchdog compares it across cycles.
    pub(crate) progress_marker: u64,
    /// Structured-event recorder; off (mask 0) unless `cfg.trace` enables
    /// categories, in which case [`step`](Self::step) drains every
    /// component's staging buffer once per cycle.
    pub(crate) tracer: Recorder,
    /// Last-sample counters for interval metrics (deltas between samples).
    pub(crate) trace_win: crate::trace::TraceWindow,
    /// Host instant [`run_to_idle`](Self::run_to_idle) entered, for the
    /// wall-clock budget. Host time never influences simulation state —
    /// only *whether* the run is cut short.
    pub(crate) run_started: Option<Instant>,
    /// The degradation ladder's retry queue: KMU-saturated launches
    /// waiting out their deterministic backoff, ordered (ready_at, seq).
    pub(crate) retry_q: BinaryHeap<Reverse<LaunchRetry>>,
    /// Monotone sequence for retry-queue FIFO tie-breaking.
    pub(crate) retry_seq: u64,
    /// Host launches parked while their hardware work queue sits at an
    /// injected cap; drained FIFO as capacity frees.
    pub(crate) host_deferred: VecDeque<(u32, PendingKernel)>,
    /// Resolved stage-phase fan-out threshold for the current run (see
    /// [`GpuConfig::pool_min_issuable`]); refreshed by
    /// [`run_to_idle`](Self::run_to_idle). `usize::MAX` = never cross the
    /// worker-pool barrier, stage inline.
    pub(crate) pool_threshold: usize,
    /// Rolling stage/commit self-measurement for the opt-in `engine`
    /// trace category; dormant (one predicted-off branch per staged step)
    /// otherwise.
    pub(crate) meter: EngineMeter,
}

/// Rolling stage/commit wall-clock accumulators between `engine_sample`
/// emissions. Host timings never influence simulation state — they only
/// feed the opt-in `engine` trace category.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EngineMeter {
    /// Staged steps accumulated since the last emission.
    steps: u64,
    /// Simulated cycles covered by those steps (deltas between
    /// consecutive staged steps — the epoch lengths).
    cycles: u64,
    /// Wall-clock nanoseconds spent in the stage phase.
    stage_ns: u64,
    /// Wall-clock nanoseconds spent in the commit phase.
    commit_ns: u64,
    /// Cycle of the previous staged step (`u64::MAX` = none yet).
    last_cycle: u64,
}

impl Default for EngineMeter {
    fn default() -> Self {
        EngineMeter {
            steps: 0,
            cycles: 0,
            stage_ns: 0,
            commit_ns: 0,
            last_cycle: u64::MAX,
        }
    }
}

impl Gpu {
    /// Builds a GPU and loads `program` onto it.
    pub fn new(cfg: GpuConfig, program: Program) -> Self {
        let stats = Stats {
            max_warps_per_smx: cfg.max_warps_per_smx(),
            num_smx: cfg.num_smx as u32,
            ..Stats::default()
        };
        let mut gpu = Gpu {
            program,
            mem: BackingStore::new(),
            alloc: LinearAllocator::new(HEAP_BASE, HEAP_SIZE),
            timing: MemSubsystem::new(cfg.mem),
            kmu: Kmu::new(cfg.kde_entries),
            kd: KernelDistributor::new(cfg.kde_entries),
            pool: SchedulingPool::new(cfg.agt_entries, cfg.kde_entries),
            fcfs: FcfsController::new(cfg.kde_entries),
            smxs: (0..cfg.num_smx).map(|i| Smx::new(i, &cfg)).collect(),
            cycle: 0,
            warp_age: 0,
            stats,
            access_owner: AccessSlab::new(),
            group_record: HashMap::new(),
            param_bytes: HashMap::new(),
            agt_walk: HashMap::new(),
            rr_smx: 0,
            mem_buf: Vec::new(),
            kde_buf: Vec::new(),
            shards: Vec::new(),
            txn_ids_buf: Vec::new(),
            steps_executed: 0,
            progress_marker: 0,
            tracer: Recorder::new(cfg.trace),
            trace_win: crate::trace::TraceWindow::default(),
            run_started: None,
            retry_q: BinaryHeap::new(),
            retry_seq: 0,
            host_deferred: VecDeque::new(),
            pool_threshold: usize::MAX,
            meter: EngineMeter::default(),
            cfg,
        };
        gpu.apply_trace_mask();
        gpu
    }

    /// Rebinds a pooled GPU to a new `(config, program)` pair, restoring
    /// the exact state `Gpu::new(cfg, program)` would build while keeping
    /// the expensive host-side allocations warm: the backing store's
    /// 64 Ki-slot page table and every already-materialized page survive
    /// (zeroed in place), and the pooled scratch vectors keep their
    /// capacity. Everything else — timing model, dispatch structures,
    /// SMXs, stats, tracer — is rebuilt from `cfg`, so a run on a rebound
    /// GPU is bit-identical to a run on a fresh one (pinned by the
    /// equivalence tests) and a panic-abandoned instance is safe to
    /// rebind: no field escapes reinitialization.
    pub fn reset_bind(&mut self, cfg: GpuConfig, program: Program) {
        self.program = program;
        self.mem.clear();
        self.alloc = LinearAllocator::new(HEAP_BASE, HEAP_SIZE);
        self.timing = MemSubsystem::new(cfg.mem);
        self.kmu = Kmu::new(cfg.kde_entries);
        self.kd = KernelDistributor::new(cfg.kde_entries);
        self.pool = SchedulingPool::new(cfg.agt_entries, cfg.kde_entries);
        self.fcfs = FcfsController::new(cfg.kde_entries);
        // Same SMX count: reset each in place, retaining the pooled
        // register slabs and scratch capacity (`Smx::reset` restores the
        // exact observable state `Smx::new` builds). A geometry change
        // rebuilds from scratch.
        if self.smxs.len() == cfg.num_smx {
            for smx in &mut self.smxs {
                smx.reset(&cfg);
            }
        } else {
            self.smxs = (0..cfg.num_smx).map(|i| Smx::new(i, &cfg)).collect();
        }
        self.cycle = 0;
        self.warp_age = 0;
        self.stats = Stats {
            max_warps_per_smx: cfg.max_warps_per_smx(),
            num_smx: cfg.num_smx as u32,
            ..Stats::default()
        };
        self.access_owner = AccessSlab::new();
        self.group_record.clear();
        self.param_bytes.clear();
        self.agt_walk.clear();
        self.rr_smx = 0;
        self.mem_buf.clear();
        self.kde_buf.clear();
        // Reset the shard buffers element-wise: `Vec::clear` on the outer
        // vec would drop each `SmxEffects` and with it every staging
        // buffer's capacity, making the first epochs after a rebind
        // reallocate. A length mismatch against a new `num_smx` is healed
        // lazily by the staged step's `resize_with`.
        for fx in &mut self.shards {
            fx.clear();
        }
        self.txn_ids_buf.clear();
        self.steps_executed = 0;
        self.progress_marker = 0;
        self.tracer = Recorder::new(cfg.trace);
        self.trace_win = crate::trace::TraceWindow::default();
        self.run_started = None;
        self.retry_q.clear();
        self.retry_seq = 0;
        self.host_deferred.clear();
        self.pool_threshold = usize::MAX;
        self.meter = EngineMeter::default();
        self.cfg = cfg;
        self.apply_trace_mask();
    }

    /// The active configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The loaded program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Functional global memory (for host-side setup and validation — the
    /// analogue of `cudaMemcpy`).
    pub fn mem(&self) -> &BackingStore {
        &self.mem
    }

    /// Mutable functional global memory.
    pub fn mem_mut(&mut self) -> &mut BackingStore {
        &mut self.mem
    }

    /// Statistics accumulated so far (memory counters are refreshed by
    /// [`run_to_idle`](Self::run_to_idle)).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cycles actually stepped (as opposed to skipped by the event-driven
    /// engine). Per-cycle stepping makes this equal to
    /// [`cycle`](Self::cycle); event-driven stepping makes it the number
    /// of cycles on which something could happen.
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    /// Bytes currently charged against the device heap (allocations minus
    /// retired-kernel parameter buffers). Exposed for accounting tests.
    pub fn heap_live_bytes(&self) -> u64 {
        self.alloc.live_bytes()
    }

    /// Allocates device memory (the analogue of `cudaMalloc`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the heap is exhausted (or an
    /// injected heap cap denies the allocation).
    pub fn malloc(&mut self, bytes: u32) -> Result<u32, SimError> {
        heap_alloc(
            &mut self.alloc,
            &self.cfg.fault,
            self.cycle,
            &mut self.stats,
            bytes,
        )
        .ok_or(SimError::OutOfMemory { bytes })
    }

    /// Rejects a host launch when the target hardware work queue sits at
    /// an injected capacity limit.
    fn check_hwq_capacity(&mut self, stream: u32) -> Result<(), SimError> {
        if let Some(cap) = self.cfg.fault.hwq_capacity {
            if self.cfg.fault.active_at(self.cycle) {
                let depth = self.kmu.hwq_depth(stream);
                if depth >= cap {
                    self.stats.hwq_full_rejections += 1;
                    return Err(SimError::HwqFull { stream, depth });
                }
            }
        }
        Ok(())
    }

    /// Launches `kernel` with `ntb` thread blocks on `stream` (the
    /// analogue of `kernel<<<ntb, ...>>>(params)`); `params` are copied
    /// into a fresh device parameter buffer.
    ///
    /// A zero-block grid is a no-op that succeeds immediately, matching
    /// the device-launch path; it must not reach the Kernel Distributor,
    /// where an entry with no blocks would never complete and trip the
    /// hang watchdog.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown kernels, heap exhaustion, or a full
    /// hardware work queue (injected-fault runs under the strict
    /// degradation policy; the default ladder defers the launch into a
    /// software queue instead).
    pub fn launch(
        &mut self,
        kernel: KernelId,
        ntb: u32,
        params: &[u32],
        stream: u32,
    ) -> Result<(), SimError> {
        let Some(kernel_fn) = self.program.get(kernel) else {
            return Err(SimError::UnknownKernel(kernel));
        };
        let kernel_fn = Arc::clone(kernel_fn);
        if ntb == 0 {
            return Ok(());
        }
        if !self.cfg.degrade.ladder {
            self.check_hwq_capacity(stream)?;
        }
        let param_sz = (params.len().max(1) * 4) as u32;
        let param_addr = self.malloc(param_sz)?;
        self.param_bytes.insert(param_addr, param_sz);
        self.mem.write_slice_u32(param_addr, params);
        self.stats.host_launches += 1;
        if self.tracer.on(Category::Launch) {
            self.tracer.emit(
                self.cycle,
                EventKind::HostLaunch {
                    kernel: u32::from(kernel.0),
                    ntb,
                    hwq: self.kmu.hwq_of_stream(stream) as u32,
                },
            );
        }
        let pk = PendingKernel {
            kernel,
            kernel_fn,
            ntb,
            param_addr,
            origin: Origin::Host { hwq: 0 }, // rewritten by push_host
        };
        if self.cfg.degrade.ladder && self.hwq_overloaded(stream).is_some() {
            self.park_host_launch(stream, pk);
        } else {
            self.kmu.push_host(stream, pk);
        }
        Ok(())
    }

    /// Launches `kernel` with a caller-managed parameter buffer at
    /// `param_addr` (the caller has already written the parameter words
    /// there). Useful for differential testing against the reference
    /// interpreter, which shares the same address map.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownKernel`] for kernels not in the program
    /// and [`SimError::HwqFull`] under an injected work-queue cap.
    pub fn launch_with_param_addr(
        &mut self,
        kernel: KernelId,
        ntb: u32,
        param_addr: u32,
        stream: u32,
    ) -> Result<(), SimError> {
        let Some(kernel_fn) = self.program.get(kernel) else {
            return Err(SimError::UnknownKernel(kernel));
        };
        let kernel_fn = Arc::clone(kernel_fn);
        if ntb == 0 {
            return Ok(());
        }
        if !self.cfg.degrade.ladder {
            self.check_hwq_capacity(stream)?;
        }
        self.stats.host_launches += 1;
        if self.tracer.on(Category::Launch) {
            self.tracer.emit(
                self.cycle,
                EventKind::HostLaunch {
                    kernel: u32::from(kernel.0),
                    ntb,
                    hwq: self.kmu.hwq_of_stream(stream) as u32,
                },
            );
        }
        let pk = PendingKernel {
            kernel,
            kernel_fn,
            ntb,
            param_addr,
            origin: Origin::Host { hwq: 0 },
        };
        if self.cfg.degrade.ladder && self.hwq_overloaded(stream).is_some() {
            self.park_host_launch(stream, pk);
        } else {
            self.kmu.push_host(stream, pk);
        }
        Ok(())
    }

    /// True when no work remains anywhere in the machine — including the
    /// degradation ladder's retry and deferral queues, whose entries are
    /// launches the machine still owes.
    pub fn is_idle(&self) -> bool {
        self.kmu.is_empty()
            && self.kd.is_empty()
            && self.smxs.iter().all(Smx::is_idle)
            && self.timing.quiescent()
            && self.retry_q.is_empty()
            && self.host_deferred.is_empty()
    }

    /// Runs until the machine is idle, returning the accumulated stats.
    ///
    /// Never panics on simulated-program misbehaviour: hung kernels are
    /// caught by the forward-progress watchdog (well before `max_cycles`)
    /// and reported with a structured [`HangReport`](crate::HangReport);
    /// resource exhaustion and guest memory faults come back as their own
    /// [`SimError`] variants.
    ///
    /// # Errors
    ///
    /// * [`SimError::BarrierDeadlock`] / [`SimError::Hang`] when the
    ///   watchdog window elapses with no forward progress;
    /// * [`SimError::CycleLimit`] when the configured cycle budget is
    ///   exceeded;
    /// * [`SimError::DeadlineExceeded`] / [`SimError::Cancelled`] when a
    ///   [`RunBudget`](crate::RunBudget) limit fires, carrying partial
    ///   stats;
    /// * any error bubbling out of [`step`](Self::step).
    pub fn run_to_idle(&mut self) -> Result<&Stats, SimError> {
        self.run_started = Some(Instant::now());
        let jobs = self.effective_smx_jobs();
        self.pool_threshold = self.effective_pool_threshold();
        // Every run stages each SMX's slice of a cycle and commits the
        // shards in SMX order; the only choice is who stages. Without a
        // spare worker (one job, or a threshold that says the barrier
        // never pays off on this host) the stepping thread stages inline
        // and no pool member is spawned to spin against a barrier that
        // never opens.
        let result = if jobs <= 1 || self.pool_threshold == usize::MAX {
            self.run_loop(None)
        } else {
            let ctrl = StageControl::new(jobs);
            std::thread::scope(|scope| {
                for w in 1..jobs {
                    let c = &ctrl;
                    scope.spawn(move || c.worker(w));
                }
                let r = self.run_loop(Some(&ctrl));
                ctrl.shutdown();
                r
            })
        };
        if self.tracer.on(Category::Engine) {
            let now = self.cycle;
            self.flush_engine_meter(now);
        }
        result?;
        self.stats.cycles = self.cycle;
        self.stats.mem = self.timing.stats();
        Ok(&self.stats)
    }

    /// Resolved worker count for this run's stage phase: `cfg.smx_jobs`
    /// with `0` (auto) mapped to the machine's available parallelism
    /// divided by the enclosing sweep pool's width — a `sweep --jobs N`
    /// worker gets a 1/N share instead of oversubscribing the host — and
    /// everything capped at the SMX count.
    pub fn effective_smx_jobs(&self) -> usize {
        let n = self.smxs.len().max(1);
        match self.cfg.smx_jobs {
            1 => 1,
            0 => {
                let outer = crate::sweep::current_pool_width().max(1);
                (crate::sweep::default_jobs() / outer).clamp(1, n)
            }
            j => j.min(n),
        }
    }

    /// Resolved stage-phase fan-out threshold (see
    /// [`GpuConfig::pool_min_issuable`]): the minimum number of issuable
    /// SMXs in a step before staging crosses the worker-pool barrier
    /// instead of running inline. `usize::MAX` means *never* — the auto
    /// policy's answer when the host has no spare core for this
    /// simulation (available parallelism divided by the enclosing sweep
    /// pool's width is ≤ 1), where a barrier round-trip on an
    /// oversubscribed host costs more than the fan-out saves. Inline and
    /// pooled staging are bit-identical, so this is purely host policy.
    pub fn effective_pool_threshold(&self) -> usize {
        match self.cfg.pool_min_issuable {
            0 => {
                let outer = crate::sweep::current_pool_width().max(1);
                if crate::sweep::default_jobs() / outer <= 1 {
                    usize::MAX
                } else {
                    2
                }
            }
            n => n,
        }
    }

    /// The run loop shared by every engine mode; `ctrl` is the worker pool
    /// that stages busy steps (`None` = stage inline).
    fn run_loop(&mut self, ctrl: Option<&StageControl>) -> Result<(), SimError> {
        // Interval metrics sample *every* cycle boundary; skipping would
        // drop samples, so tracing with an interval forces per-cycle mode.
        let sampling = self.tracer.enabled() && self.tracer.metrics_interval() > 0;
        let event_driven = !self.cfg.force_per_cycle && !sampling;
        let mut last_marker = self.progress_marker;
        let mut last_progress = self.cycle;
        while !self.is_idle() {
            let jumpable = self.step_core(ctrl)?;
            if self.progress_marker != last_marker {
                last_marker = self.progress_marker;
                last_progress = self.cycle;
            }
            if let Some(err) = self.deadline_error(last_progress) {
                self.note_budget_stop(&err);
                return Err(err);
            }
            if event_driven && jumpable && !self.is_idle() {
                // The step at `cycle - 1` either found nothing to do
                // (quiet) or changed only SMX-local state whose next
                // activity the ready horizons repaired at stage end
                // already bound (epoch batching), so every cycle before the next
                // component event is a no-op: jump straight there,
                // reconstructing what the skipped no-op steps would have
                // accumulated (occupancy integrals; the DRAM model
                // catches up its own active-cycle counter lazily).
                let now = self.cycle - 1;
                let mut target = self.next_event_horizon(now).unwrap_or(u64::MAX);
                if self.cfg.watchdog_window > 0 {
                    target = target.min(last_progress + self.cfg.watchdog_window);
                }
                target = target.min(self.cfg.max_cycles);
                // The budget's cycle cap is a landing site too, so every
                // engine trips it at the identical cycle.
                if let Some(cap) = self.cfg.budget.cycle_cap {
                    target = target.min(cap);
                }
                if target > self.cycle {
                    let delta = target - self.cycle;
                    let resident: u32 = self.smxs.iter().map(|s| s.live_warps).sum();
                    if resident > 0 {
                        self.stats.busy_cycles += delta;
                        self.stats.resident_warp_cycles += delta * u64::from(resident);
                    }
                    self.cycle = target;
                    if let Some(err) = self.deadline_error(last_progress) {
                        self.note_budget_stop(&err);
                        return Err(err);
                    }
                }
            }
        }
        Ok(())
    }

    /// Watchdog / cycle-budget check at the current cycle, shared by the
    /// per-step path and the post-skip landing so both engines fail at
    /// the identical cycle with the identical report.
    fn deadline_error(&self, last_progress: u64) -> Option<SimError> {
        if self.cfg.watchdog_window > 0 && self.cycle - last_progress >= self.cfg.watchdog_window {
            let report = Box::new(self.hang_report(last_progress));
            return Some(if report.barrier_deadlock() {
                SimError::BarrierDeadlock { report }
            } else {
                SimError::Hang { report }
            });
        }
        if self.cycle >= self.cfg.max_cycles {
            return Some(SimError::CycleLimit {
                cycles: self.cfg.max_cycles,
            });
        }
        if !self.cfg.budget.is_inert() {
            let budget = &self.cfg.budget;
            if budget.cycle_cap.is_some_and(|cap| self.cycle >= cap) {
                return Some(SimError::DeadlineExceeded {
                    budget: BudgetKind::Cycles,
                    cycle: self.cycle,
                    stats: self.partial_stats(),
                });
            }
            if budget
                .live_heap_cap
                .is_some_and(|cap| self.alloc.live_bytes() > cap)
            {
                return Some(SimError::DeadlineExceeded {
                    budget: BudgetKind::LiveHeap,
                    cycle: self.cycle,
                    stats: self.partial_stats(),
                });
            }
            if budget
                .cancel
                .as_ref()
                .is_some_and(CancelToken::is_cancelled)
            {
                return Some(SimError::Cancelled {
                    cycle: self.cycle,
                    stats: self.partial_stats(),
                });
            }
            // The wall clock is host state, not simulated state: sample it
            // sparsely (every 1024 executed steps) so the budget check
            // costs no syscall on the hot path. Only the error's *shape*
            // is deterministic, never the cycle it fires at.
            if self.steps_executed.is_multiple_of(1024) {
                if let (Some(ms), Some(started)) = (budget.deadline_ms, self.run_started) {
                    if started.elapsed().as_millis() >= u128::from(ms) {
                        return Some(SimError::DeadlineExceeded {
                            budget: BudgetKind::WallClock,
                            cycle: self.cycle,
                            stats: self.partial_stats(),
                        });
                    }
                }
            }
        }
        None
    }

    /// Snapshot of the statistics accumulated so far, with the derived
    /// fields `run_to_idle` would have filled in brought up to date —
    /// what a budget stop hands back so the work done is not lost.
    fn partial_stats(&self) -> Box<Stats> {
        let mut stats = Box::new(self.stats.clone());
        stats.cycles = self.cycle;
        stats.mem = self.timing.stats();
        stats
    }

    /// Emits the `DeadlineHit` trace event for a budget or cancellation
    /// stop (code 3 = cancelled); other errors pass through silently.
    fn note_budget_stop(&mut self, err: &SimError) {
        if !self.tracer.on(Category::Launch) {
            return;
        }
        let (budget, limit) = match err {
            SimError::DeadlineExceeded { budget, .. } => {
                let limit = match budget {
                    BudgetKind::WallClock => self.cfg.budget.deadline_ms.unwrap_or(0),
                    BudgetKind::Cycles => self.cfg.budget.cycle_cap.unwrap_or(0),
                    BudgetKind::LiveHeap => self.cfg.budget.live_heap_cap.unwrap_or(0),
                };
                (budget.code(), limit)
            }
            SimError::Cancelled { .. } => (3, 0),
            _ => return,
        };
        let cycle = self.cycle;
        self.tracer
            .emit(cycle, EventKind::DeadlineHit { budget, limit });
    }

    /// Earliest future cycle on which any component can change state,
    /// given that the step just executed at `now` was quiet. `None` means
    /// no component will ever act again (the run loop then jumps to the
    /// watchdog deadline). Each component promises a *lower bound* on its
    /// next state change — waking too early costs one extra no-op step,
    /// but a bound past the true event would diverge from per-cycle
    /// stepping (see DESIGN.md, "The horizon contract").
    fn next_event_horizon(&mut self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |t: u64| next = Some(next.map_or(t, |n: u64| n.min(t)));
        if let Some(t) = self.kmu.next_event_at(now) {
            fold(t);
        }
        if let Some(t) = self.timing.next_event_at(now) {
            fold(t);
        }
        // Every SMX that staged this step repaired its ready-horizon cache
        // at the end of its stage phase, and the steps that reach here
        // (quiet, or SMX-pure under epoch batching) changed no SMX state
        // since, so this is O(1) per SMX.
        for smx in &mut self.smxs {
            if let Some(t) = smx.next_ready_at(now) {
                fold(t);
            }
        }
        // Pending spilled-descriptor fetches wake the distribution path.
        // A walk whose fetch has already matured (`ready <= now`) is
        // consumed on the *next* dispatch attempt — with zero fetch
        // latency it can be inserted and mature within the same quiet
        // step — so it always folds at least `now + 1`.
        for &(_, ready) in self.agt_walk.values() {
            fold(ready.max(now + 1));
        }
        // A fault plan flips behaviour (delays, caps) at its activation
        // edge; step there so no span straddles the flip.
        if !self.cfg.fault.is_nop() && now < self.cfg.fault.after_cycle {
            fold(self.cfg.fault.after_cycle);
        }
        // Ladder queues: a deferred retry matures at its backoff deadline;
        // a parked host launch re-probes its work queue every cycle (the
        // queue's drain is itself a progress event, so `now + 1` is the
        // only sound bound).
        if let Some(Reverse(head)) = self.retry_q.peek() {
            fold(head.ready_at.max(now + 1));
        }
        if !self.host_deferred.is_empty() {
            fold(now + 1);
        }
        next
    }

    /// Advances the machine by one core cycle.
    ///
    /// # Errors
    ///
    /// Propagates typed failures from the launch paths, guest memory
    /// faults, and (when enabled) the per-cycle invariant checker.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.step_core(None).map(|_quiet| ())
    }

    /// One core cycle; returns whether the run loop may jump straight to
    /// the next component event afterwards. True for a *quiet* step — no
    /// kernel installed, no thread block placed, no warp picked, no
    /// memory completion delivered — and, with
    /// [`epoch_batching`](GpuConfig::epoch_batching) on, also for an
    /// *SMX-pure* step: warps issued but staged zero
    /// cross-SMX effects, so every schedulable input the horizons do not
    /// already bound is unchanged (each staged SMX repaired its ready
    /// horizon at the end of this very step's stage phase). Any other step may have
    /// created distribution work the horizons do not model, so it must
    /// be followed by a real step (see DESIGN.md, "Epoch amortization").
    fn step_core(&mut self, ctrl: Option<&StageControl>) -> Result<bool, SimError> {
        let now = self.cycle;
        self.steps_executed += 1;

        // 0. Degradation ladder: matured launch retries and parked host
        // launches re-attempt before the KMU ticks, in the serial phase
        // (see runtime::degrade).
        let mut quiet = true;
        // Candidate for the SMX-pure epoch jump; any cross-SMX activity
        // below falsifies it.
        let mut local = self.cfg.epoch_batching;
        if (!self.retry_q.is_empty() || !self.host_deferred.is_empty())
            && self.process_deferred(now)?
        {
            quiet = false;
            local = false;
        }

        // 1. KMU: mature device launches, advance the dispatch pipeline.
        let kd = &self.kd;
        if let Some((slot, pk)) = self
            .kmu
            .tick(now, self.cfg.latency.kernel_dispatch, |reserved| {
                kd.free_slot_excluding(reserved)
            })
        {
            self.install_kernel(slot, pk, now)?;
            quiet = false;
            local = false;
        }

        // 2. SMX scheduler: distribute thread blocks.
        if self.distribute_tbs(now)? > 0 {
            quiet = false;
            local = false;
        }

        // 3. SMXs: issue warps in two phases (see shard.rs for the
        // determinism argument). Only SMXs whose ready-horizon cache
        // admits an issue this cycle are staged; every other shard is
        // still empty from its last commit. With zero issuable SMXs there
        // is nothing to stage or commit at all.
        let issuable = self.smxs.iter().filter(|x| x.may_issue(now)).count();
        if issuable > 0 {
            let metering = self.tracer.on(Category::Engine);
            let t0 = metering.then(Instant::now);
            let mask = self.tracer.mask();
            let mut shards = std::mem::take(&mut self.shards);
            if shards.len() != self.smxs.len() {
                shards.resize_with(self.smxs.len(), SmxEffects::default);
            }
            // Cross-thread handoff only pays off when enough SMXs can
            // actually issue; below the threshold (or with no pool)
            // staging runs inline — same code, same results, no barrier
            // round-trip.
            match ctrl {
                Some(ctrl) if issuable >= self.pool_threshold => {
                    ctrl.stage(&mut self.smxs, &mut shards, &self.cfg, mask, now);
                }
                _ => {
                    for (x, fx) in self.smxs.iter_mut().zip(shards.iter_mut()) {
                        if x.may_issue(now) {
                            shard::stage_smx(x, fx, &self.cfg, mask, now);
                        }
                    }
                }
            }
            let t1 = metering.then(Instant::now);
            let mut commit_err = None;
            for (s, fx) in shards.iter_mut().enumerate() {
                // No pick, no issue: nothing was staged.
                if fx.picks == 0 {
                    continue;
                }
                quiet = false;
                if !fx.is_pure() {
                    local = false;
                }
                if let Err(e) = self.commit_shard(s, fx, now) {
                    commit_err = Some(e);
                    break;
                }
            }
            if let Some(e) = commit_err {
                // Later shards staged but never committed: drop their
                // items so no later step commits them.
                for fx in &mut shards {
                    fx.clear();
                }
                self.shards = shards;
                return Err(e);
            }
            self.shards = shards;
            if let (Some(t0), Some(t1)) = (t0, t1) {
                self.note_engine_step(t0, t1, now);
            }
        }

        // 4. Memory timing (an injected fault may delay the wake-ups).
        let wake_delay = if self.cfg.fault.mem_delay > 0 && self.cfg.fault.active_at(now) {
            self.cfg.fault.mem_delay
        } else {
            0
        };
        let mut buf = std::mem::take(&mut self.mem_buf);
        buf.clear();
        self.timing.tick(now, &mut buf);
        let mut delayed = 0u64;
        let mut completions = 0u64;
        for id in buf.drain(..) {
            if let Some((s, w)) = self.access_owner.remove(id) {
                completions += 1;
                let mut woke_at = None;
                if let Some(warp) = self.smxs[s].warps[w].as_mut() {
                    if let WarpState::WaitingMem { outstanding } = &mut warp.state {
                        *outstanding -= 1;
                        if *outstanding == 0 {
                            warp.state = WarpState::Ready;
                            warp.ready_at = now + 1 + wake_delay;
                            woke_at = Some(warp.ready_at);
                            if wake_delay > 0 {
                                delayed += 1;
                            }
                        }
                    }
                }
                if let Some(at) = woke_at {
                    self.smxs[s].note_ready_at(at);
                }
            }
        }
        self.mem_buf = buf;
        self.stats.forced_mem_delays += delayed;
        if completions > 0 {
            self.progress_marker += 1;
            quiet = false;
            // Wake-ups postdate the stage phase, so the horizons repaired
            // there no longer bound this step's SMX state.
            local = false;
        }

        // 5. Occupancy sampling.
        let resident: u32 = self.smxs.iter().map(|s| s.live_warps).sum();
        if resident > 0 {
            self.stats.busy_cycles += 1;
            self.stats.resident_warp_cycles += u64::from(resident);
        }

        // 6. Tracing: drain every component's staging buffer (stamping
        // `now`) and take an interval metrics sample. One predicted-off
        // branch when tracing is disabled.
        if self.tracer.enabled() {
            self.drain_traces(now);
            self.sample_metrics(now);
        }

        self.cycle += 1;
        if self.cfg.check_invariants {
            self.check_invariants()?;
        }
        Ok(quiet || local)
    }

    /// Accumulates one staged step's stage/commit timings into the engine
    /// meter, emitting an `engine_sample` trace event every 1024 staged
    /// steps (the final partial window is flushed by
    /// [`run_to_idle`](Self::run_to_idle)). Only called when the opt-in
    /// `engine` trace category is enabled.
    fn note_engine_step(&mut self, stage_start: Instant, commit_start: Instant, now: u64) {
        let m = &mut self.meter;
        m.stage_ns += (commit_start - stage_start).as_nanos() as u64;
        m.commit_ns += commit_start.elapsed().as_nanos() as u64;
        if m.last_cycle != u64::MAX {
            m.cycles += now - m.last_cycle;
        }
        m.last_cycle = now;
        m.steps += 1;
        if m.steps >= 1024 {
            self.flush_engine_meter(now);
        }
    }

    /// Emits the engine meter's accumulated window as one
    /// `engine_sample` event and resets it (epoch-length tracking keeps
    /// its anchor cycle).
    fn flush_engine_meter(&mut self, now: u64) {
        let m = &mut self.meter;
        if m.steps == 0 {
            return;
        }
        let kind = EventKind::EngineSample {
            steps: m.steps,
            cycles: m.cycles,
            stage_ns: m.stage_ns,
            commit_ns: m.commit_ns,
        };
        m.steps = 0;
        m.cycles = 0;
        m.stage_ns = 0;
        m.commit_ns = 0;
        self.tracer.emit(now, kind);
    }

    fn install_kernel(&mut self, slot: u32, pk: PendingKernel, now: u64) -> Result<(), SimError> {
        let (launch_record, hwq) = match pk.origin {
            Origin::Host { hwq } => (None, Some(hwq)),
            Origin::Device { record } => (Some(record), None),
        };
        let installed = self.kd.install(
            slot,
            KdeEntry {
                kernel: pk.kernel,
                kernel_fn: pk.kernel_fn,
                grid_ntb: pk.ntb,
                param_addr: pk.param_addr,
                next_native_tb: 0,
                native_exe: 0,
                native_done: 0,
                agg_exe: 0,
                dispatched_at: now,
                launch_record,
                hwq,
            },
        );
        if installed.is_err() {
            // The KMU reserved this slot when the dispatch began; finding
            // it occupied means the reservation bookkeeping broke.
            return Err(invariant(now, format!("KDE slot {slot} already occupied")));
        }
        self.fcfs.mark_new(slot);
        self.progress_marker += 1;
        Ok(())
    }

    // ---- thread-block distribution (§2.3 + §4.2 DTBL flow) ----------------

    /// Distributes up to `tb_dispatch_per_cycle` thread blocks in FCFS
    /// order; returns how many were placed this cycle.
    fn distribute_tbs(&mut self, now: u64) -> Result<u32, SimError> {
        let mut budget = self.cfg.tb_dispatch_per_cycle;
        if budget == 0 {
            return Ok(0);
        }
        let mut placed = 0;
        let mut kdes = std::mem::take(&mut self.kde_buf);
        kdes.clear();
        kdes.extend(self.fcfs.marked_in_order());
        'kernels: for &kde in &kdes {
            loop {
                if budget == 0 {
                    break 'kernels;
                }
                if !self.try_dispatch_one(kde, now)? {
                    continue 'kernels;
                }
                placed += 1;
                budget -= 1;
            }
        }
        self.kde_buf = kdes;
        Ok(placed)
    }

    /// Re-derives whether KDE `kde` still has distributable work and
    /// updates the FCFS controller to match: the first-dispatch bit falls
    /// once every native block has been handed out, and the entry is
    /// unmarked only when the aggregated-group pool is empty too.
    ///
    /// Every site that consumes distributable work funnels through this
    /// one check *after* updating its counters. Re-deriving both facts
    /// here (instead of each site testing one of them against a value
    /// read before its own update) means no ordering of "native cursor
    /// advanced" vs. "pool drained" can strand a kernel marked with
    /// nothing to distribute — which would pin it at the head of the FCFS
    /// order forever — or unmark one that still has work.
    fn refresh_mark(&mut self, kde: u32) {
        let native_pending = self
            .kd
            .get(kde)
            .is_some_and(|e| !e.native_fully_scheduled());
        if native_pending {
            return;
        }
        self.fcfs.clear_first_dispatch(kde);
        if self.pool.nagei(kde).is_none() {
            self.fcfs.unmark(kde);
        }
    }

    /// Attempts to distribute one thread block of kernel `kde`; returns
    /// whether a block was placed.
    fn try_dispatch_one(&mut self, kde: u32, now: u64) -> Result<bool, SimError> {
        let Some(entry) = self.kd.get(kde) else {
            return Ok(false);
        };
        let kernel_id = entry.kernel;
        let native_next = if self.fcfs.is_first_dispatch(kde) && !entry.native_fully_scheduled() {
            true
        } else if self.pool.nagei(kde).is_some() {
            false
        } else {
            // Nothing to distribute; a marked kernel with an empty pool is
            // transient (between clear-first and unmark) — re-derive its
            // mark so it leaves the FCFS order.
            self.refresh_mark(kde);
            return Ok(false);
        };

        // A spilled descriptor lives in global memory: the scheduler must
        // fetch it before it can distribute the group's thread blocks
        // (§4.3), stalling this kernel's dispatch — unlike a zero-cost
        // on-chip AGE. Checked before SMX selection so a walk-stalled
        // cycle leaves the round-robin cursor and first-load bookkeeping
        // untouched: such cycles are pure no-ops, which is what lets the
        // event-driven engine skip them wholesale.
        if !native_next {
            let Some(group) = self.pool.nagei(kde) else {
                return Err(invariant(now, format!("KDE {kde} lost its NAGEI group")));
            };
            if group.is_overflow() {
                match self.agt_walk.get(&kde) {
                    Some(&(g, ready)) if g == group => {
                        if now < ready {
                            return Ok(false);
                        }
                    }
                    _ => {
                        self.agt_walk
                            .insert(kde, (group, now + self.cfg.pipeline.agt_overflow_load));
                        return Ok(false);
                    }
                }
            }
        }

        // Refcounted handle shared with the distributor entry — never a
        // deep copy of the kernel on the block-dispatch path.
        let kernel = Arc::clone(&entry.kernel_fn);
        // Spatial sharing (optional §5.2B extension): host-launched native
        // blocks keep off the reserved SMXs; dynamic work may go anywhere.
        let dynamic = !native_next || entry.launch_record.is_some();
        let Some(smx_idx) = self.pick_smx(&kernel, dynamic) else {
            return Ok(false);
        };

        let first_load = !self.smxs[smx_idx].kernels_loaded.contains(&kernel_id);
        let ready_at = now
            + if first_load {
                self.cfg.pipeline.context_setup
            } else {
                20 // block-dispatch handshake
            };
        if first_load {
            self.smxs[smx_idx].kernels_loaded.insert(kernel_id);
        }

        if native_next {
            let Some(entry) = self.kd.get_mut(kde) else {
                return Err(invariant(now, format!("KDE {kde} vanished mid-dispatch")));
            };
            let blkid = entry.next_native_tb;
            entry.next_native_tb += 1;
            entry.native_exe += 1;
            let nctaid = entry.grid_ntb;
            let param = entry.param_addr;
            let record = entry.launch_record;
            let fully = entry.native_fully_scheduled();
            if self.smxs[smx_idx]
                .place_tb(
                    kernel_id,
                    &kernel,
                    Tbcr {
                        kdei: kde,
                        agei: None,
                        blkid,
                    },
                    nctaid,
                    param,
                    ready_at,
                    &mut self.warp_age,
                )
                .is_none()
            {
                return Err(invariant(
                    now,
                    format!("SMX {smx_idx} refused a native TB despite can_fit"),
                ));
            }
            if let Some(r) = record {
                self.mark_launch_started(r, smx_idx, now);
            }
            if fully {
                self.refresh_mark(kde);
            }
        } else {
            let Some(group) = self.pool.nagei(kde) else {
                return Err(invariant(now, format!("KDE {kde} lost its NAGEI group")));
            };
            let info = self.pool.agt().info(group);
            let blkid = self.pool.agt_mut().tb_scheduled(group);
            let Some(entry) = self.kd.get_mut(kde) else {
                return Err(invariant(now, format!("KDE {kde} vanished mid-dispatch")));
            };
            entry.agg_exe += 1;
            if self.smxs[smx_idx]
                .place_tb(
                    kernel_id,
                    &kernel,
                    Tbcr {
                        kdei: kde,
                        agei: Some(group),
                        blkid,
                    },
                    info.ntb,
                    info.param_addr,
                    ready_at,
                    &mut self.warp_age,
                )
                .is_none()
            {
                return Err(invariant(
                    now,
                    format!("SMX {smx_idx} refused an aggregated TB despite can_fit"),
                ));
            }
            if let Some(r) = self.group_record.remove(&group) {
                self.mark_launch_started(r, smx_idx, now);
            }
            if self.pool.agt().fully_scheduled(group) && self.pool.advance_nagei(kde).is_none() {
                // Pool drained: the kernel leaves the FCFS queue once its
                // native blocks are also all distributed.
                self.refresh_mark(kde);
            }
        }
        self.progress_marker += 1;
        Ok(true)
    }

    fn mark_launch_started(&mut self, record: usize, smx: usize, now: u64) {
        let rec = &mut self.stats.launches[record];
        if rec.first_tb_at.is_none() {
            rec.first_tb_at = Some(now);
            let bytes = rec.reserved_bytes;
            self.stats.remove_pending(bytes);
            if self.tracer.on(Category::Launch) {
                self.tracer.emit(
                    now,
                    EventKind::LaunchSched {
                        record: record as u32,
                        smx: smx as u32,
                    },
                );
            }
        }
    }

    /// Round-robin SMX selection among those with room for one block of
    /// `kernel`. With spatial sharing enabled, non-dynamic blocks are
    /// confined to the first `num_smx - dyn_reserved_smx` SMXs.
    fn pick_smx(&mut self, kernel: &gpu_isa::Kernel, dynamic: bool) -> Option<usize> {
        let n = self.smxs.len();
        let limit = if dynamic {
            n
        } else {
            n.saturating_sub(self.cfg.dyn_reserved_smx).max(1)
        };
        for k in 0..limit {
            let s = (self.rr_smx + k) % limit;
            if self.smxs[s].can_fit(kernel, &self.cfg) {
                self.rr_smx = (s + 1) % limit;
                return Some(s);
            }
        }
        None
    }

    // ---- two-phase commit --------------------------------------------------

    /// Applies one SMX's staged effects in stream order — the serial half
    /// of the two-phase engine. Items are staged in issue order and
    /// shards commit in SMX-index order, so the shared machine
    /// (functional memory, heap, timing model, KD/AGT/KMU, stats, traces)
    /// sees one mutation sequence whoever staged the shards. A shard's
    /// staged error is raised only after its already-staged items
    /// commit.
    pub(crate) fn commit_shard(
        &mut self,
        s: usize,
        fx: &mut SmxEffects,
        now: u64,
    ) -> Result<(), SimError> {
        // Per-issue stats were pre-aggregated at stage time; three adds
        // replace one item per issue. Their order against the item stream
        // is unobservable — `Stats` is only read between steps.
        self.stats.warp_issues += fx.issues;
        self.stats.active_lanes += fx.lanes;
        self.stats.barrier_waits += fx.barriers;
        // Pure picks with tracing off stage no items: skip the drain.
        let applied = if fx.items.is_empty() {
            Ok(())
        } else {
            self.apply_items(s, fx, now)
        };
        let staged_err = fx.err.take();
        // The shard is consumed either way, so an SMX that is not staged
        // next step leaves an empty shard behind.
        fx.clear();
        applied?;
        staged_err.map_or(Ok(()), Err)
    }

    /// Applies a shard's staged items in stream order.
    fn apply_items(&mut self, s: usize, fx: &SmxEffects, now: u64) -> Result<(), SimError> {
        let mut ids = std::mem::take(&mut self.txn_ids_buf);
        for item in &fx.items {
            match *item {
                EffectItem::TraceRun { start, len } => {
                    // Serialization (cycle stamping, run assembly)
                    // happened on the stage worker; splice the whole
                    // pre-ordered segment at once.
                    self.tracer
                        .emit_stamped(&fx.events[start as usize..(start + len) as usize]);
                }
                EffectItem::GlobalLoad { w, lane, dst, addr } => {
                    let v = self.mem.read_u32(addr);
                    self.warp_mut(s, w, now)?
                        .regs
                        .write_lane(dst, lane as usize, v);
                }
                EffectItem::WarpLoad {
                    w,
                    dst,
                    mask,
                    start,
                } => {
                    let addrs = &fx.addrs[start as usize..start as usize + WARP_SIZE];
                    let mut vals = [0u32; WARP_SIZE];
                    let mut rest = mask;
                    while rest != 0 {
                        let lane = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        vals[lane] = self.mem.read_u32(addrs[lane]);
                    }
                    self.warp_mut(s, w, now)?
                        .regs
                        .store_masked(dst, &vals, mask);
                }
                EffectItem::ParamLoad { w, dst, addr, mask } => {
                    let v = self.mem.read_u32(addr);
                    self.warp_mut(s, w, now)?.regs.broadcast(dst, v, mask);
                }
                EffectItem::GlobalStore { addr, value } => self.mem.write_u32(addr, value),
                EffectItem::GlobalAtomic {
                    w,
                    lane,
                    dst,
                    op,
                    addr,
                    operand,
                    comparand,
                } => {
                    let old = self.mem.read_u32(addr);
                    let new = apply_atomic(op, old, operand, comparand);
                    self.mem.write_u32(addr, new);
                    if let Some(d) = dst {
                        self.warp_mut(s, w, now)?
                            .regs
                            .write_lane(d, lane as usize, old);
                    }
                }
                EffectItem::AllocParam {
                    w,
                    lane,
                    dst,
                    bytes,
                } => {
                    let Some(addr) = heap_alloc(
                        &mut self.alloc,
                        &self.cfg.fault,
                        now,
                        &mut self.stats,
                        bytes,
                    ) else {
                        return Err(SimError::OutOfMemory { bytes });
                    };
                    self.param_bytes.insert(addr, bytes);
                    self.stats.add_pending(u64::from(bytes));
                    self.warp_mut(s, w, now)?
                        .regs
                        .write_lane(dst, lane as usize, addr);
                }
                EffectItem::MemIssue {
                    w,
                    kind,
                    start,
                    len,
                } => {
                    ids.clear();
                    let addrs = &fx.txns[start as usize..(start + len) as usize];
                    self.timing.access_batch(s, addrs, kind, now, &mut ids);
                    if kind != AccessKind::Store {
                        for &id in &ids {
                            self.access_owner.insert(id, (s, w as usize));
                        }
                        // Stage assumed every transaction is tracked; fix
                        // the count up if the timing model declined some.
                        if ids.len() as u32 != len {
                            if let Some(warp) = self.smxs[s].warps[w as usize].as_mut() {
                                warp.state = WarpState::WaitingMem {
                                    outstanding: ids.len() as u32,
                                };
                            }
                        }
                    }
                }
                EffectItem::Launch {
                    hw_tid,
                    req,
                    visible_at,
                } => self.handle_launch(hw_tid, req, now, visible_at)?,
                EffectItem::TbComplete { tbcr } => self.finish_tb(tbcr, now)?,
            }
        }
        self.txn_ids_buf = ids;
        Ok(())
    }

    /// Mutable warp for a staged register writeback; a vanished warp here
    /// means stage and commit disagreed about liveness.
    fn warp_mut(
        &mut self,
        s: usize,
        w: u32,
        now: u64,
    ) -> Result<&mut crate::smx::warp::Warp, SimError> {
        self.smxs[s].warps[w as usize].as_mut().ok_or_else(|| {
            invariant(
                now,
                format!("staged writeback names vacant warp {w} on SMX {s}"),
            )
        })
    }

    pub(crate) fn release_barrier(
        warps: &mut [Option<crate::smx::warp::Warp>],
        tb: &mut crate::smx::TbSlot,
        now: u64,
        latency: u64,
    ) {
        for ws in &tb.warp_slots {
            if let Some(w) = warps[*ws].as_mut() {
                if matches!(w.state, WarpState::AtBarrier) {
                    w.state = WarpState::Ready;
                    w.ready_at = now + latency;
                }
            }
        }
        tb.barrier_arrived = 0;
    }

    // ---- thread-block / kernel completion ----------------------------------------

    /// Post-release bookkeeping for a completed thread block: KD/AGT
    /// counters, kernel retirement, FCFS/pool/KMU/heap cleanup. Runs in
    /// the commit phase; the stage half already released the slot
    /// SMX-locally.
    fn finish_tb(&mut self, tbcr: Tbcr, now: u64) -> Result<(), SimError> {
        self.stats.tb_completed += 1;
        self.progress_marker += 1;
        let kde = tbcr.kdei;
        {
            let Some(entry) = self.kd.get_mut(kde) else {
                return Err(invariant(
                    now,
                    format!("TB completed for non-resident KDE {kde}"),
                ));
            };
            match tbcr.agei {
                None => {
                    entry.native_done += 1;
                    entry.native_exe -= 1;
                }
                Some(group) => {
                    entry.agg_exe -= 1;
                    self.pool.agt_mut().tb_finished(group);
                }
            }
        }
        let Some(entry) = self.kd.get(kde) else {
            return Err(invariant(
                now,
                format!("KDE {kde} vanished during completion"),
            ));
        };
        let done = entry.native_fully_scheduled()
            && entry.native_all_done()
            && entry.agg_exe == 0
            && self.pool.nagei(kde).is_none();
        if done {
            let Some(entry) = self.kd.release(kde) else {
                return Err(invariant(now, format!("KDE {kde} vanished at release")));
            };
            if self.tracer.on(Category::Launch) {
                self.tracer.emit(
                    now,
                    EventKind::KernelRetire {
                        kde,
                        kernel: u32::from(entry.kernel.0),
                    },
                );
            }
            self.pool.reset_kde(kde);
            self.agt_walk.remove(&kde);
            self.fcfs.unmark(kde);
            if let Some(hwq) = entry.hwq {
                self.kmu.unblock_hwq(hwq);
            }
            // The retired kernel's parameter buffer no longer pins heap
            // accounting (bump allocator: bytes only, no address reuse).
            // Free exactly the bytes recorded at allocation; a kernel
            // launched via a caller-managed buffer recorded nothing.
            if let Some(bytes) = self.param_bytes.remove(&entry.param_addr) {
                self.alloc.free_accounting(bytes);
            }
        }
        Ok(())
    }
}

/// When a panic unwinds through a live `Gpu` — a supervised sweep cell
/// crashing mid-run — stash the machine's position and its recorder's
/// recent-event ring on the thread, so the sweep's `CrashReport` can say
/// *where* the simulation was, not just what the panic said. A normal
/// drop does nothing.
impl Drop for Gpu {
    fn drop(&mut self) {
        if std::thread::panicking() {
            crate::sweep::stash_crash_context(self.cycle, self.tracer.recent());
        }
    }
}

/// Dependent-issue latency for a pre-classified ALU micro-op. The decode
/// step computed the class once per instruction; this replaces the old
/// per-issue `alu_latency` match over the full instruction enum.
pub(crate) fn class_latency(lat: LatClass, pipe: &crate::config::PipelineLatencies) -> u64 {
    match lat {
        LatClass::Alu => pipe.alu,
        LatClass::IMul => pipe.imul,
        LatClass::IDiv => pipe.idiv,
        LatClass::FDiv => pipe.fdiv,
    }
}
