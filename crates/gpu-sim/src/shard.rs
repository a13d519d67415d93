//! Two-phase SMX stepping: the parallel *stage* phase and its worker pool.
//!
//! The engine splits each SMX's slice of a cycle into a stage half and a
//! commit half (see DESIGN.md, "The two-phase determinism contract"):
//!
//! * **Stage** ([`stage_smx`]) runs with `&mut Smx` and `&mut SmxEffects`
//!   only — it may mutate anything SMX-local (registers, SIMT stacks,
//!   warp states and `ready_at`, shared memory, barrier bookkeeping,
//!   scheduler cursors, thread-block release) but records every globally
//!   visible effect as an [`EffectItem`] in the shard's staging buffer.
//!   Different SMXs therefore stage with **no shared mutable state**, so
//!   the stage phase can run on worker threads.
//! * **Commit** (`Gpu::commit_shard` in gpu.rs) drains the staged items
//!   in SMX-index order on the main thread, applying them to the shared
//!   machine (functional memory, heap, `MemSubsystem`, KMU/KD/AGT,
//!   stats, the central trace recorder) in issue order.
//!
//! This is the only warp-issue path. The serial engine is this engine
//! with every shard staged inline on the stepping thread; the worker
//! pool ([`StageControl`]) only changes *who* runs [`stage_smx`], never
//! the staged items or their commit order — which is what makes Stats
//! and traces bit-identical at any thread count.

use crate::config::GpuConfig;
use crate::error::SimError;
use crate::gpu::{class_latency, invariant, Gpu};
use crate::smx::warp::WarpState;
use crate::smx::{Smx, Tbcr};
use gpu_isa::{
    exec_alu, lane_step, AtomOp, Dim3, Effect, LaneView, LaunchKind, LaunchRequest, Reg, Space,
    ThreadEnv, UOp, WARP_SIZE,
};
use gpu_mem::coalesce::coalesce_append;
use gpu_mem::AccessKind;
use gpu_trace::{Category, EventKind, StallReason};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// One deferred, globally visible effect staged by [`stage_smx`]. Items
/// are committed in staging order within a shard and in SMX-index order
/// across shards — one order whoever staged them. Trace events are
/// pre-serialized into [`SmxEffects::events`] at stage time and
/// referenced by [`TraceRun`] ranges riding the same stream, so event
/// interleavings are fixed too; per-issue stats are pre-aggregated into
/// shard counters (their commit order is unobservable — `Stats` is only
/// read between steps).
///
/// [`TraceRun`]: EffectItem::TraceRun
#[derive(Clone, Copy, Debug)]
pub(crate) enum EffectItem {
    /// A run of pre-stamped trace events
    /// (`SmxEffects::events[start..start + len]`), positioned exactly
    /// where the issue emitted them relative to the commit-side
    /// emissions of the other items. Serialization (cycle stamping, run
    /// assembly) happened on the worker at stage time; the commit phase
    /// only bulk-appends.
    TraceRun { start: u32, len: u32 },
    /// A global-memory lane load from the per-lane executor: read at
    /// commit, written back into the lane's destination register.
    GlobalLoad {
        w: u32,
        lane: u8,
        dst: Reg,
        addr: u32,
    },
    /// A warp-wide global load: the active lanes of `mask` read
    /// `SmxEffects::addrs[start..start + 32]` in lane order at commit,
    /// and one masked store writes them back.
    WarpLoad {
        w: u32,
        dst: Reg,
        mask: u32,
        start: u32,
    },
    /// A warp's parameter-word load: every lane reads the same word, so
    /// commit does one read and broadcasts it, keeping `dst` uniform.
    ParamLoad {
        w: u32,
        dst: Reg,
        addr: u32,
        mask: u32,
    },
    /// A global-memory lane store.
    GlobalStore { addr: u32, value: u32 },
    /// A global-memory lane atomic (read-modify-write at commit; the old
    /// value lands in `dst` when present).
    GlobalAtomic {
        w: u32,
        lane: u8,
        dst: Option<Reg>,
        op: AtomOp,
        addr: u32,
        operand: u32,
        comparand: Option<u32>,
    },
    /// One lane's `cudaGetParameterBuffer` heap allocation (bump-allocator
    /// addresses depend on commit order, which is issue order).
    AllocParam {
        w: u32,
        lane: u8,
        dst: Reg,
        bytes: u32,
    },
    /// One warp memory instruction's coalesced transactions: the segment
    /// addresses live in `SmxEffects::txns[start..start + len]`.
    MemIssue {
        w: u32,
        kind: AccessKind,
        start: u32,
        len: u32,
    },
    /// A device-side launch request from one lane.
    Launch {
        hw_tid: u32,
        req: LaunchRequest,
        visible_at: u64,
    },
    /// A thread block fully retired at stage time (slot already released
    /// SMX-locally); commit runs the KD/AGT/KMU/heap bookkeeping.
    TbComplete { tbcr: Tbcr },
}

/// Per-SMX staging buffer filled by [`stage_smx`] and drained by the
/// commit phase.
#[derive(Debug, Default)]
pub(crate) struct SmxEffects {
    /// Staged effects in issue order.
    pub(crate) items: Vec<EffectItem>,
    /// Coalesced transaction segments referenced by `MemIssue` items.
    pub(crate) txns: Vec<u32>,
    /// Lane address images (32 per item) referenced by `WarpLoad` items.
    pub(crate) addrs: Vec<u32>,
    /// Pre-stamped trace events referenced by `TraceRun` items: the
    /// commit-offloaded serialization of this shard's trace segment.
    pub(crate) events: Vec<(u64, EventKind)>,
    /// Per-issue scratch for device-launch requests (kept here so the
    /// stage phase never allocates in steady state).
    launch_tmp: Vec<(u32, LaunchRequest)>,
    /// Warps picked this step (any pick makes the step non-quiet).
    pub(crate) picks: u32,
    /// Staged items that are true cross-SMX effects (everything except
    /// `TraceRun`). `0` across all shards means the step was SMX-pure —
    /// the epoch-batching test (see DESIGN.md, "Epoch amortization").
    pub(crate) globals: u32,
    /// Pre-aggregated `stats.warp_issues` for this step (commit applies
    /// one add; the per-issue order is unobservable).
    pub(crate) issues: u64,
    /// Pre-aggregated `stats.active_lanes`.
    pub(crate) lanes: u64,
    /// Pre-aggregated `stats.barrier_waits`.
    pub(crate) barriers: u64,
    /// First error hit while staging this SMX; raised by the commit phase
    /// *after* this shard's already-staged items are applied, so the
    /// machine stops in the state the issues before the error left.
    pub(crate) err: Option<SimError>,
}

impl SmxEffects {
    /// Resets the buffer for a new step, retaining every allocation
    /// (`Vec::clear` keeps capacity) so steady-state staging never
    /// reallocates.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
        self.txns.clear();
        self.addrs.clear();
        self.events.clear();
        self.launch_tmp.clear();
        self.picks = 0;
        self.globals = 0;
        self.issues = 0;
        self.lanes = 0;
        self.barriers = 0;
        self.err = None;
    }

    /// True when the commit phase consumed everything (invariant law 7).
    pub(crate) fn is_drained(&self) -> bool {
        self.items.is_empty() && self.events.is_empty() && self.err.is_none()
    }

    /// True when staging this SMX produced no cross-SMX effect: picks may
    /// have advanced SMX-local state (registers, `ready_at`, shared
    /// memory, barriers), but nothing was staged for the shared machine.
    pub(crate) fn is_pure(&self) -> bool {
        self.globals == 0 && self.err.is_none()
    }

    /// Stages one true cross-SMX effect.
    #[inline]
    fn push_global(&mut self, item: EffectItem) {
        self.globals += 1;
        self.items.push(item);
    }

    /// Stages one trace event pre-stamped with `now`, extending the
    /// current `TraceRun` when no global item intervened since the last
    /// event — the commit phase then splices whole runs at once.
    #[inline]
    fn push_event(&mut self, now: u64, kind: EventKind) {
        let idx = self.events.len() as u32;
        self.events.push((now, kind));
        if let Some(EffectItem::TraceRun { start, len }) = self.items.last_mut() {
            if *start + *len == idx {
                *len += 1;
                return;
            }
        }
        self.items.push(EffectItem::TraceRun { start: idx, len: 1 });
    }
}

/// Stages one SMX's slice of cycle `now`: warp selection plus the
/// SMX-local half of every picked warp's issue, with all globally visible
/// effects recorded into `fx`.
pub(crate) fn stage_smx(
    smx: &mut Smx,
    fx: &mut SmxEffects,
    cfg: &GpuConfig,
    trace_mask: u32,
    now: u64,
) {
    fx.clear();
    let picks = smx.select_warps(now, cfg.issue_per_cycle, cfg.warp_sched);
    fx.picks = picks as u32;
    for k in 0..picks {
        let w = smx.picked()[k];
        match stage_warp(smx, fx, cfg, trace_mask, now, w) {
            Ok(None) => {}
            Ok(Some(done_slot)) => {
                let Some(tbcr) = smx.release_tb(done_slot) else {
                    fx.err = Some(invariant(
                        now,
                        format!(
                            "releasing TB slot {done_slot} on SMX {}: empty or warps still live",
                            smx.id
                        ),
                    ));
                    break;
                };
                fx.push_global(EffectItem::TbComplete { tbcr });
            }
            Err(e) => {
                fx.err = Some(e);
                break;
            }
        }
    }
    // Repair the SMX's ready-horizon cache while its warps are hot: the
    // next step's `may_issue` preflight and the event horizon then read
    // it in O(1) instead of rescanning.
    smx.next_ready_at(now);
}

/// Issues one instruction for warp `w`: applies its SMX-local half
/// (registers, SIMT stack, shared memory, barriers, `ready_at`) and
/// stages every global effect into `fx`. Returns the TB slot index when
/// this issue completed the warp's entire thread block.
fn stage_warp(
    smx: &mut Smx,
    fx: &mut SmxEffects,
    cfg: &GpuConfig,
    trace_mask: u32,
    now: u64,
    w: usize,
) -> Result<Option<usize>, SimError> {
    let s = smx.id;
    let t_warp = trace_mask & Category::Warp.bit() != 0;
    let Smx {
        warps, tb_slots, ..
    } = smx;
    let Some(warp) = warps[w].as_mut() else {
        return Ok(None);
    };
    if !matches!(warp.state, WarpState::Ready) || warp.ready_at > now {
        return Ok(None);
    }
    warp.sync_reconvergence();
    let tb_slot = warp.tb_slot;
    let Some(tb) = tb_slots[tb_slot].as_mut() else {
        return Err(invariant(
            now,
            format!("warp {w} on SMX {s} names empty TB slot {tb_slot}"),
        ));
    };
    if warp.is_done() {
        warp.state = WarpState::Done;
        smx.live_warps -= 1;
        tb.live_warps -= 1;
        let released = tb.live_warps == 0;
        if !released && tb.live_warps > 0 && tb.barrier_arrived >= tb.live_warps {
            Gpu::release_barrier(warps, tb, now, 20);
        }
        return Ok(released.then_some(tb_slot));
    }

    let Some((pc, mask)) = warp.current() else {
        return Err(invariant(
            now,
            format!("warp {w} on SMX {s} has no current execution path"),
        ));
    };
    let inst = *tb.kernel_fn.fetch(pc);
    let m = *tb.kernel_fn.uop(pc);
    let legacy = cfg.legacy_exec;

    fx.issues += 1;
    fx.lanes += u64::from(mask.count_ones());
    if t_warp {
        fx.push_event(
            now,
            EventKind::WarpIssue {
                smx: s as u32,
                warp: w as u32,
                lanes: mask.count_ones(),
            },
        );
    }

    let pipe = cfg.pipeline;
    let lat = cfg.latency;

    let block_dim = tb.block_dim;
    let blkid = tb.tbcr.blkid;
    let nctaid = tb.nctaid;
    let param_base = tb.param_base;
    let env_of = move |lane: u32, warp_in_tb: u32| -> ThreadEnv {
        let linear = u64::from(warp_in_tb) * WARP_SIZE as u64 + u64::from(lane);
        let tid = block_dim.delinearize(linear);
        ThreadEnv {
            tid,
            ctaid: (blkid, 0, 0),
            ntid: block_dim,
            nctaid: Dim3::x(nctaid),
            lane,
            smid: s as u32,
            param_base,
        }
    };
    let shared_fault = |addr: u32, size: usize| SimError::SharedMemFault {
        smx: s,
        tb_slot,
        addr,
        size: size as u32,
    };

    match m.op {
        UOp::Bra {
            pred,
            target,
            reconv,
        } => {
            // Predicates live in warp-wide lane masks, so the taken set is
            // two bitwise ops regardless of executor mode.
            let taken = match pred {
                None => mask,
                Some((p, negate)) => {
                    let pm = warp.regs.pred_mask(p);
                    (if negate { !pm } else { pm }) & mask
                }
            };
            warp.branch(taken, target, reconv);
            warp.ready_at = now + pipe.alu;
        }
        UOp::Exit => {
            warp.exit_lanes(mask);
            if warp.is_done() {
                smx.live_warps -= 1;
                tb.live_warps -= 1;
                let released = tb.live_warps == 0;
                if !released && tb.barrier_arrived >= tb.live_warps {
                    Gpu::release_barrier(warps, tb, now, pipe.alu);
                }
                return Ok(released.then_some(tb_slot));
            }
            warp.ready_at = now + pipe.alu;
        }
        UOp::Bar => {
            warp.advance_pc();
            warp.state = WarpState::AtBarrier;
            tb.barrier_arrived += 1;
            fx.barriers += 1;
            if t_warp {
                fx.push_event(
                    now,
                    EventKind::WarpStall {
                        smx: s as u32,
                        warp: w as u32,
                        reason: StallReason::Barrier.code(),
                    },
                );
                fx.push_event(
                    now,
                    EventKind::BarrierWait {
                        smx: s as u32,
                        tb_slot: tb_slot as u32,
                        arrived: tb.barrier_arrived,
                        expected: tb.live_warps,
                    },
                );
            }
            if tb.barrier_arrived >= tb.live_warps {
                Gpu::release_barrier(warps, tb, now, pipe.shared_mem);
            }
        }
        UOp::GetParamBuf { dst, words } => {
            warp.advance_pc();
            let x = u64::from(mask.count_ones());
            let bytes = u32::from(words.max(1)) * 4;
            for lane in 0..WARP_SIZE as u32 {
                if mask & (1 << lane) == 0 {
                    continue;
                }
                fx.push_global(EffectItem::AllocParam {
                    w: w as u32,
                    lane: lane as u8,
                    dst,
                    bytes,
                });
            }
            warp.ready_at = now + lat.get_param_buf(x);
        }
        UOp::Launch {
            kind,
            kernel,
            ntb,
            param,
        } => {
            warp.advance_pc();
            let hw_base = warp.hw_slot as u32 * WARP_SIZE as u32;
            fx.launch_tmp.clear();
            if legacy {
                let warp_in_tb = warp.warp_in_tb;
                for lane in 0..WARP_SIZE as u32 {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let env = env_of(lane, warp_in_tb);
                    if let Effect::Launch(req) = lane_step(
                        &mut LaneView::new(&mut warp.regs, lane as usize),
                        &inst,
                        &env,
                    ) {
                        fx.launch_tmp.push((hw_base + lane, req));
                    }
                }
            } else {
                let mut ntbs = [0u32; WARP_SIZE];
                warp.regs.src_sweep(ntb, mask, &mut ntbs);
                let mut rest = mask;
                while rest != 0 {
                    let lane = rest.trailing_zeros();
                    rest &= rest - 1;
                    fx.launch_tmp.push((
                        hw_base + lane,
                        LaunchRequest {
                            kind,
                            kernel,
                            ntb: ntbs[lane as usize],
                            param_addr: warp.regs.lane(param, lane as usize),
                        },
                    ));
                }
            }
            let x = fx.launch_tmp.len() as u64;
            let is_agg = kind == LaunchKind::Agg;
            if x > 0 && t_warp {
                fx.push_event(
                    now,
                    EventKind::WarpStall {
                        smx: s as u32,
                        warp: w as u32,
                        reason: StallReason::LaunchApi.code(),
                    },
                );
            }
            warp.ready_at = now
                + if is_agg {
                    lat.agg_launch
                } else {
                    lat.launch_device(x)
                };
            let visible_at = warp.ready_at;
            for i in 0..fx.launch_tmp.len() {
                let (hw_tid, req) = fx.launch_tmp[i];
                fx.push_global(EffectItem::Launch {
                    hw_tid,
                    req,
                    visible_at,
                });
            }
        }
        UOp::Ld { .. } | UOp::St { .. } | UOp::LdParam { .. } | UOp::Atom { .. } => {
            warp.advance_pc();
            let mut global_addrs = [None::<u32>; WARP_SIZE];
            let mut any_shared = false;
            let mut is_load_or_atomic = false;
            let mut is_atomic = false;
            if legacy {
                let warp_in_tb = warp.warp_in_tb;
                for lane in 0..WARP_SIZE as u32 {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let env = env_of(lane, warp_in_tb);
                    let eff = lane_step(
                        &mut LaneView::new(&mut warp.regs, lane as usize),
                        &inst,
                        &env,
                    );
                    match eff {
                        Effect::Load { dst, req } => {
                            is_load_or_atomic = true;
                            match req.space {
                                Space::Shared => {
                                    any_shared = true;
                                    let v = tb
                                        .shared_read(req.addr)
                                        .ok_or_else(|| shared_fault(req.addr, tb.shared.len()))?;
                                    warp.regs.write_lane(dst, lane as usize, v);
                                }
                                Space::Global => {
                                    fx.push_global(EffectItem::GlobalLoad {
                                        w: w as u32,
                                        lane: lane as u8,
                                        dst,
                                        addr: req.addr,
                                    });
                                    global_addrs[lane as usize] = Some(req.addr);
                                }
                            }
                        }
                        Effect::Store { req, value } => match req.space {
                            Space::Shared => {
                                any_shared = true;
                                tb.shared_write(req.addr, value)
                                    .ok_or_else(|| shared_fault(req.addr, tb.shared.len()))?;
                            }
                            Space::Global => {
                                fx.push_global(EffectItem::GlobalStore {
                                    addr: req.addr,
                                    value,
                                });
                                global_addrs[lane as usize] = Some(req.addr);
                            }
                        },
                        Effect::Atomic {
                            dst,
                            op,
                            req,
                            operand,
                            comparand,
                        } => {
                            is_load_or_atomic = true;
                            is_atomic = true;
                            match req.space {
                                Space::Shared => {
                                    any_shared = true;
                                    let old = tb
                                        .shared_read(req.addr)
                                        .ok_or_else(|| shared_fault(req.addr, tb.shared.len()))?;
                                    let new = gpu_isa::apply_atomic(op, old, operand, comparand);
                                    tb.shared_write(req.addr, new)
                                        .ok_or_else(|| shared_fault(req.addr, tb.shared.len()))?;
                                    if let Some(d) = dst {
                                        warp.regs.write_lane(d, lane as usize, old);
                                    }
                                }
                                Space::Global => {
                                    fx.push_global(EffectItem::GlobalAtomic {
                                        w: w as u32,
                                        lane: lane as u8,
                                        dst,
                                        op,
                                        addr: req.addr,
                                        operand,
                                        comparand,
                                    });
                                    global_addrs[lane as usize] = Some(req.addr);
                                }
                            }
                        }
                        _ => {
                            return Err(invariant(
                                now,
                                "memory instruction produced a non-memory effect".into(),
                            ))
                        }
                    }
                }
            } else {
                // Space is static per instruction: branch once, sweep
                // operands across the active lanes, then stage/apply in
                // lane order — the exact sequence the per-lane executor
                // produced (global effects defer to commit either way).
                match m.op {
                    UOp::Ld {
                        dst,
                        space,
                        addr,
                        offset,
                    } => {
                        is_load_or_atomic = true;
                        let mut addrs = [0u32; WARP_SIZE];
                        warp.regs.addr_sweep(addr, offset, mask, &mut addrs);
                        match space {
                            Space::Shared => {
                                any_shared = true;
                                let mut vals = [0u32; WARP_SIZE];
                                let mut rest = mask;
                                while rest != 0 {
                                    let lane = rest.trailing_zeros() as usize;
                                    rest &= rest - 1;
                                    vals[lane] = tb.shared_read(addrs[lane]).ok_or_else(|| {
                                        shared_fault(addrs[lane], tb.shared.len())
                                    })?;
                                }
                                warp.regs.store_masked(dst, &vals, mask);
                            }
                            Space::Global => {
                                let start = fx.addrs.len() as u32;
                                fx.addrs.extend_from_slice(&addrs);
                                fx.push_global(EffectItem::WarpLoad {
                                    w: w as u32,
                                    dst,
                                    mask,
                                    start,
                                });
                                let mut rest = mask;
                                while rest != 0 {
                                    let lane = rest.trailing_zeros() as usize;
                                    rest &= rest - 1;
                                    global_addrs[lane] = Some(addrs[lane]);
                                }
                            }
                        }
                    }
                    UOp::LdParam { dst, word } => {
                        is_load_or_atomic = true;
                        let addr = param_base.wrapping_add(u32::from(word) * 4);
                        // One functional read at commit suffices — the
                        // backing store is pure and every lane loads the
                        // same word — but coalescing still sees the full
                        // per-lane address image.
                        fx.push_global(EffectItem::ParamLoad {
                            w: w as u32,
                            dst,
                            addr,
                            mask,
                        });
                        let mut rest = mask;
                        while rest != 0 {
                            let lane = rest.trailing_zeros() as usize;
                            rest &= rest - 1;
                            global_addrs[lane] = Some(addr);
                        }
                    }
                    UOp::St {
                        space,
                        addr,
                        offset,
                        src,
                    } => {
                        let mut addrs = [0u32; WARP_SIZE];
                        warp.regs.addr_sweep(addr, offset, mask, &mut addrs);
                        let mut vals = [0u32; WARP_SIZE];
                        warp.regs.src_sweep(src, mask, &mut vals);
                        let mut rest = mask;
                        match space {
                            Space::Shared => {
                                any_shared = true;
                                while rest != 0 {
                                    let lane = rest.trailing_zeros() as usize;
                                    rest &= rest - 1;
                                    tb.shared_write(addrs[lane], vals[lane]).ok_or_else(|| {
                                        shared_fault(addrs[lane], tb.shared.len())
                                    })?;
                                }
                            }
                            Space::Global => {
                                while rest != 0 {
                                    let lane = rest.trailing_zeros() as usize;
                                    rest &= rest - 1;
                                    fx.push_global(EffectItem::GlobalStore {
                                        addr: addrs[lane],
                                        value: vals[lane],
                                    });
                                    global_addrs[lane] = Some(addrs[lane]);
                                }
                            }
                        }
                    }
                    UOp::Atom {
                        dst,
                        op,
                        space,
                        addr,
                        offset,
                        src,
                        extra,
                    } => {
                        is_load_or_atomic = true;
                        is_atomic = true;
                        let mut addrs = [0u32; WARP_SIZE];
                        warp.regs.addr_sweep(addr, offset, mask, &mut addrs);
                        let mut opers = [0u32; WARP_SIZE];
                        warp.regs.src_sweep(src, mask, &mut opers);
                        let mut rest = mask;
                        while rest != 0 {
                            let lane = rest.trailing_zeros() as usize;
                            rest &= rest - 1;
                            let comparand = extra.map(|r| warp.regs.lane(r, lane));
                            match space {
                                Space::Shared => {
                                    any_shared = true;
                                    let old = tb.shared_read(addrs[lane]).ok_or_else(|| {
                                        shared_fault(addrs[lane], tb.shared.len())
                                    })?;
                                    let new =
                                        gpu_isa::apply_atomic(op, old, opers[lane], comparand);
                                    tb.shared_write(addrs[lane], new).ok_or_else(|| {
                                        shared_fault(addrs[lane], tb.shared.len())
                                    })?;
                                    if let Some(d) = dst {
                                        warp.regs.write_lane(d, lane, old);
                                    }
                                }
                                Space::Global => {
                                    fx.push_global(EffectItem::GlobalAtomic {
                                        w: w as u32,
                                        lane: lane as u8,
                                        dst,
                                        op,
                                        addr: addrs[lane],
                                        operand: opers[lane],
                                        comparand,
                                    });
                                    global_addrs[lane] = Some(addrs[lane]);
                                }
                            }
                        }
                    }
                    _ => unreachable!("arm is gated on memory micro-ops"),
                }
            }
            let (start, len) = coalesce_append(&global_addrs, &mut fx.txns);
            if len == 0 {
                warp.ready_at = now
                    + if any_shared {
                        pipe.shared_mem
                    } else {
                        pipe.alu
                    };
            } else if is_load_or_atomic {
                let kind = if is_atomic {
                    AccessKind::Atomic
                } else {
                    AccessKind::Load
                };
                // The timing model tracks loads and atomics; commit fixes
                // the count up if any access comes back untracked.
                warp.state = WarpState::WaitingMem { outstanding: len };
                fx.push_global(EffectItem::MemIssue {
                    w: w as u32,
                    kind,
                    start,
                    len,
                });
                if t_warp {
                    fx.push_event(
                        now,
                        EventKind::WarpStall {
                            smx: s as u32,
                            warp: w as u32,
                            reason: StallReason::Memory.code(),
                        },
                    );
                }
            } else {
                fx.push_global(EffectItem::MemIssue {
                    w: w as u32,
                    kind: AccessKind::Store,
                    start,
                    len,
                });
                warp.ready_at = now + pipe.store_issue;
            }
        }
        UOp::MemFence => {
            warp.advance_pc();
            warp.ready_at = now + pipe.memfence;
        }
        UOp::Nop => {
            warp.advance_pc();
            warp.ready_at = now + 1;
        }
        ref alu => {
            warp.advance_pc();
            if legacy {
                let warp_in_tb = warp.warp_in_tb;
                for lane in 0..WARP_SIZE as u32 {
                    if mask & (1 << lane) == 0 {
                        continue;
                    }
                    let env = env_of(lane, warp_in_tb);
                    let eff = lane_step(
                        &mut LaneView::new(&mut warp.regs, lane as usize),
                        &inst,
                        &env,
                    );
                    debug_assert_eq!(eff, Effect::None, "ALU class must be self-contained");
                }
            } else {
                exec_alu(alu, &mut warp.regs, &warp.env, mask);
            }
            warp.ready_at = now + class_latency(m.lat, &pipe);
        }
    }
    Ok(None)
}

// ---- worker pool -----------------------------------------------------------

/// Contiguous shard-index range worker `w` of `jobs` covers over `n`
/// SMXs.
pub(crate) fn chunk(n: usize, jobs: usize, w: usize) -> (usize, usize) {
    let per = n.div_ceil(jobs.max(1));
    let lo = (w * per).min(n);
    (lo, ((w + 1) * per).min(n))
}

/// The batch of raw pointers published to stage workers for one step.
#[derive(Clone, Copy)]
struct Batch {
    smxs: *mut Smx,
    shards: *mut SmxEffects,
    n: usize,
    cfg: *const GpuConfig,
    mask: u32,
    now: u64,
}

impl Batch {
    const fn empty() -> Self {
        Batch {
            smxs: std::ptr::null_mut(),
            shards: std::ptr::null_mut(),
            n: 0,
            cfg: std::ptr::null(),
            mask: 0,
            now: 0,
        }
    }
}

/// Barrier-synchronous stage-phase worker pool: the main thread publishes
/// a [`Batch`] per step (epoch-numbered), workers stage their contiguous
/// chunk of SMXs, and the main thread blocks until every worker reports
/// done — only then does it read or mutate the shards again.
pub(crate) struct StageControl {
    jobs: usize,
    epoch: AtomicUsize,
    done: AtomicUsize,
    stop: AtomicBool,
    panicked: AtomicBool,
    batch: UnsafeCell<Batch>,
}

// SAFETY: `batch` is written by the main thread strictly before the
// release-store on `epoch` that publishes it, and read by workers only
// after an acquire-load observes the new epoch; the main thread does not
// touch the published slices again until every worker has
// release-incremented `done` (acquire-observed by the main thread).
// Worker chunks are disjoint, so no two threads ever alias the same
// `Smx`/`SmxEffects` element.
unsafe impl Sync for StageControl {}

/// Spin briefly, then yield: on a loaded (or single-core) host the OS
/// must get a chance to run the peer we are waiting on.
const SPIN_BUDGET: u32 = 64;

impl StageControl {
    /// A pool coordinator for `jobs` total members (the calling thread is
    /// member 0; spawn members `1..jobs` onto [`worker`](Self::worker)).
    pub(crate) fn new(jobs: usize) -> Self {
        StageControl {
            jobs,
            epoch: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            batch: UnsafeCell::new(Batch::empty()),
        }
    }

    /// Worker loop for pool member `w` (1-based). Exits when
    /// [`shutdown`](Self::shutdown) is called.
    pub(crate) fn worker(&self, w: usize) {
        let mut seen = 0usize;
        loop {
            let mut spins = 0u32;
            let e = loop {
                let e = self.epoch.load(Ordering::Acquire);
                if e != seen {
                    break e;
                }
                if self.stop.load(Ordering::Relaxed) {
                    return;
                }
                spins += 1;
                if spins < SPIN_BUDGET {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            };
            seen = e;
            let b = unsafe { *self.batch.get() };
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: see the `Sync` impl — the batch pointers are
                // valid for the whole epoch and this worker's chunk is
                // disjoint from every other member's.
                let cfg = unsafe { &*b.cfg };
                let (lo, hi) = chunk(b.n, self.jobs, w);
                for i in lo..hi {
                    unsafe {
                        stage_smx(
                            &mut *b.smxs.add(i),
                            &mut *b.shards.add(i),
                            cfg,
                            b.mask,
                            b.now,
                        );
                    }
                }
            }));
            if r.is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            // Increment even after a panic so the main thread's wait
            // cannot deadlock; it re-raises via the `panicked` flag.
            self.done.fetch_add(1, Ordering::Release);
        }
    }

    /// Stages every SMX for cycle `now`: publishes the batch, takes chunk
    /// 0 on the calling thread, and blocks until all workers finish — so
    /// the borrows behind the published pointers are exclusive again when
    /// this returns.
    pub(crate) fn stage(
        &self,
        smxs: &mut [Smx],
        shards: &mut [SmxEffects],
        cfg: &GpuConfig,
        mask: u32,
        now: u64,
    ) {
        debug_assert_eq!(smxs.len(), shards.len());
        let n = smxs.len();
        let sp = smxs.as_mut_ptr();
        let fp = shards.as_mut_ptr();
        unsafe {
            *self.batch.get() = Batch {
                smxs: sp,
                shards: fp,
                n,
                cfg,
                mask,
                now,
            };
        }
        self.done.store(0, Ordering::Relaxed);
        self.epoch.fetch_add(1, Ordering::Release);
        let (lo, hi) = chunk(n, self.jobs, 0);
        for i in lo..hi {
            // SAFETY: chunk 0 is disjoint from every worker chunk.
            unsafe { stage_smx(&mut *sp.add(i), &mut *fp.add(i), cfg, mask, now) };
        }
        let mut spins = 0u32;
        while self.done.load(Ordering::Acquire) != self.jobs - 1 {
            spins += 1;
            if spins < SPIN_BUDGET {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        assert!(
            !self.panicked.load(Ordering::Acquire),
            "a stage worker panicked"
        );
    }

    /// Tells the workers to exit; called once after the run loop ends.
    pub(crate) fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_all_shards_without_overlap() {
        for n in 0..20 {
            for jobs in 1..6 {
                let mut covered = vec![0u32; n];
                for w in 0..jobs {
                    let (lo, hi) = chunk(n, jobs, w);
                    for c in covered.iter_mut().take(hi).skip(lo) {
                        *c += 1;
                    }
                }
                assert!(
                    covered.iter().all(|&c| c == 1),
                    "n={n} jobs={jobs}: {covered:?}"
                );
            }
        }
    }

    #[test]
    fn pool_stages_disjoint_chunks_and_survives_many_epochs() {
        use crate::config::GpuConfig;
        let cfg = GpuConfig::test_small();
        let mut smxs: Vec<Smx> = (0..7).map(|i| Smx::new(i, &cfg)).collect();
        let mut shards: Vec<SmxEffects> = (0..7).map(|_| SmxEffects::default()).collect();
        let ctrl = StageControl::new(3);
        std::thread::scope(|scope| {
            for w in 1..3 {
                let c = &ctrl;
                scope.spawn(move || c.worker(w));
            }
            for step in 0..100u64 {
                ctrl.stage(&mut smxs, &mut shards, &cfg, 0, step);
                for fx in &shards {
                    assert_eq!(fx.picks, 0, "empty SMXs pick nothing");
                    assert!(fx.is_drained());
                }
            }
            ctrl.shutdown();
        });
    }

    /// Steps `gpu` until a warp can issue a micro-op matching `want` this
    /// cycle, then stages that SMX by hand and returns its shard
    /// (uncommitted) with the SMX index and the cycle.
    fn stage_at(gpu: &mut Gpu, want: fn(&UOp) -> bool) -> (usize, SmxEffects, u64) {
        for _ in 0..10_000 {
            let now = gpu.cycle();
            let found = gpu.smxs.iter().position(|smx| {
                smx.warps.iter().flatten().any(|warp| {
                    let Some((pc, _)) = warp.current() else {
                        return false;
                    };
                    let tb = smx.tb_slots[warp.tb_slot].as_ref().expect("live TB");
                    matches!(warp.state, WarpState::Ready)
                        && warp.ready_at <= now
                        && want(&tb.kernel_fn.uop(pc).op)
                })
            });
            if let Some(s) = found {
                let mut fx = SmxEffects::default();
                stage_smx(&mut gpu.smxs[s], &mut fx, &gpu.cfg, 0, now);
                return (s, fx, now);
            }
            gpu.step().expect("step");
        }
        panic!("no warp reached the wanted micro-op");
    }

    /// The warp-granular load items against the per-lane leg, on one
    /// 24-lane warp: a parameter load commits as one broadcast that keeps
    /// its destination uniform, a global load stages one item instead of
    /// one per lane, and the committed lane values equal the per-lane
    /// executor's.
    #[test]
    fn warp_load_items_match_the_per_lane_leg() {
        use gpu_isa::{Dim3, KernelBuilder, Op, Program};
        let run = |legacy: bool| {
            let mut prog = Program::new();
            let mut b = KernelBuilder::new("gather", Dim3::x(24), 1);
            let base = b.ld_param(0);
            let gtid = b.global_tid();
            let addr = b.mad(gtid, Op::Imm(4), Op::Reg(base));
            let v = b.ld(Space::Global, addr, 0);
            b.st(Space::Global, addr, 0, Op::Reg(v));
            let k = prog.add(b.build().expect("kernel builds"));
            let mut cfg = GpuConfig::test_small();
            cfg.legacy_exec = legacy;
            let mut gpu = Gpu::new(cfg, prog);
            let buf = gpu.malloc(24 * 4).expect("malloc");
            for i in 0..24 {
                gpu.mem_mut().write_u32(buf + 4 * i, 7 * i + 3);
            }
            gpu.launch(k, 1, &[buf], 0).expect("launch");

            let (s, mut fx, now) = stage_at(&mut gpu, |op| matches!(op, UOp::LdParam { .. }));
            gpu.commit_shard(s, &mut fx, now).expect("commit");
            let warp = gpu.smxs[s].warps.iter().flatten().next().expect("warp");
            let base_uniform = warp.regs.is_uniform(base);

            let (s, mut fx, now) = stage_at(&mut gpu, |op| {
                matches!(
                    op,
                    UOp::Ld {
                        space: Space::Global,
                        ..
                    }
                )
            });
            let loads = fx
                .items
                .iter()
                .filter(|i| {
                    matches!(
                        i,
                        EffectItem::WarpLoad { .. } | EffectItem::GlobalLoad { .. }
                    )
                })
                .count();
            gpu.commit_shard(s, &mut fx, now).expect("commit");
            let warp = gpu.smxs[s].warps.iter().flatten().next().expect("warp");
            let lanes: Vec<u32> = (0..WARP_SIZE).map(|l| warp.regs.lane(v, l)).collect();
            (base_uniform, loads, lanes)
        };
        let (uniform, loads, lanes) = run(false);
        let (_, legacy_loads, legacy_lanes) = run(true);
        assert!(
            uniform,
            "a staged LdParam must leave its destination uniform"
        );
        assert_eq!(loads, 1, "a warp-wide global load stages one item");
        assert_eq!(
            legacy_loads, 24,
            "the per-lane leg stages one item per lane"
        );
        assert_eq!(lanes, legacy_lanes, "committed lane values diverged");
        let expect: Vec<u32> = (0..WARP_SIZE as u32)
            .map(|l| if l < 24 { 7 * l + 3 } else { 0 })
            .collect();
        assert_eq!(lanes, expect);
    }

    /// `SmxEffects::clear` must retain every allocation: across a long
    /// soak of fill/clear epochs neither the buffer pointers nor the
    /// capacities may move once warmed up, so steady-state staging never
    /// touches the allocator.
    #[test]
    fn effects_clear_retains_capacity_across_soak() {
        const TBCR: Tbcr = Tbcr {
            kdei: 0,
            agei: None,
            blkid: 0,
        };
        let mut fx = SmxEffects::default();
        // Warm up: one epoch's worth of staged traffic.
        for i in 0..32u32 {
            fx.push_global(EffectItem::TbComplete { tbcr: TBCR });
            fx.push_event(
                7,
                EventKind::WarpIssue {
                    smx: 0,
                    warp: i,
                    lanes: 32,
                },
            );
            fx.txns.push(i);
            fx.addrs.push(i);
        }
        fx.clear();
        let ptrs = (
            fx.items.as_ptr(),
            fx.events.as_ptr(),
            fx.txns.as_ptr(),
            fx.addrs.as_ptr(),
        );
        let caps = (
            fx.items.capacity(),
            fx.events.capacity(),
            fx.txns.capacity(),
            fx.addrs.capacity(),
        );
        for epoch in 0..10_000u32 {
            for i in 0..32u32 {
                fx.push_global(EffectItem::TbComplete { tbcr: TBCR });
                fx.push_event(
                    u64::from(epoch),
                    EventKind::WarpIssue {
                        smx: 0,
                        warp: i,
                        lanes: 32,
                    },
                );
                fx.txns.push(i);
                fx.addrs.push(i);
            }
            fx.clear();
            assert!(fx.is_drained() && fx.is_pure());
            assert_eq!(
                (
                    fx.items.as_ptr(),
                    fx.events.as_ptr(),
                    fx.txns.as_ptr(),
                    fx.addrs.as_ptr()
                ),
                ptrs,
                "epoch {epoch}: a staging buffer reallocated"
            );
            assert_eq!(
                (
                    fx.items.capacity(),
                    fx.events.capacity(),
                    fx.txns.capacity(),
                    fx.addrs.capacity()
                ),
                caps,
                "epoch {epoch}: a staging buffer changed capacity"
            );
        }
    }
}
