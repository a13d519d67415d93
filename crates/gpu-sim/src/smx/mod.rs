//! Streaming Multiprocessor (SMX): resident thread blocks, warps, resource
//! accounting, and warp selection.

pub mod warp;

use crate::config::{GpuConfig, WarpSchedPolicy};
use dtbl_core::GroupRef;
use gpu_isa::{Dim3, Kernel, KernelId, WarpRegs};
use gpu_trace::{Category, EventKind, TraceBuffer};
use std::collections::HashSet;
use std::sync::Arc;
use warp::{Warp, WarpState};

/// The Thread Block Control Register contents (Figure 4): which Kernel
/// Distributor entry and (for aggregated TBs) which AGE this block belongs
/// to, plus its block id within the kernel grid or aggregated group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tbcr {
    /// Kernel Distributor entry index (KDEI).
    pub kdei: u32,
    /// Aggregated group reference (AGEI); `None` for native blocks.
    pub agei: Option<GroupRef>,
    /// Block index within the kernel grid or aggregated group (BLKID).
    pub blkid: u32,
}

/// A resident thread block.
#[derive(Clone, Debug)]
pub struct TbSlot {
    /// Control-register contents.
    pub tbcr: Tbcr,
    /// Kernel function id executed by this block.
    pub kernel: KernelId,
    /// The kernel function itself, shared (refcounted) with the program
    /// and the distributor entry — warp issue fetches instructions from
    /// here without a per-issue program-table lookup.
    pub kernel_fn: Arc<Kernel>,
    /// Block shape.
    pub block_dim: Dim3,
    /// Grid/group extent the block indexes into.
    pub nctaid: u32,
    /// Parameter-buffer base for `LdParam`.
    pub param_base: u32,
    /// Warp slot indices (into [`Smx::warps`]) belonging to this block.
    pub warp_slots: Vec<usize>,
    /// Warps still running.
    pub live_warps: u32,
    /// Warps currently stopped at the barrier.
    pub barrier_arrived: u32,
    /// Functional shared-memory storage for the block.
    pub shared: Vec<u8>,
    /// Registers reserved (for release accounting).
    pub regs_reserved: u32,
    /// Threads reserved.
    pub threads_reserved: u32,
}

impl TbSlot {
    /// Reads a 32-bit word of shared memory. Returns `None` when the
    /// access is outside the block's static allocation — a bug in the
    /// simulated program, which the engine reports as a
    /// [`SimError::SharedMemFault`](crate::SimError::SharedMemFault)
    /// instead of crashing.
    pub fn shared_read(&self, addr: u32) -> Option<u32> {
        let a = addr as usize;
        let bytes = self.shared.get(a..a + 4)?;
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Writes a 32-bit word of shared memory; `None` on out-of-bounds.
    pub fn shared_write(&mut self, addr: u32, v: u32) -> Option<()> {
        let a = addr as usize;
        let bytes = self.shared.get_mut(a..a + 4)?;
        bytes.copy_from_slice(&v.to_le_bytes());
        Some(())
    }
}

/// One streaming multiprocessor.
#[derive(Clone, Debug)]
pub struct Smx {
    /// SMX index.
    pub id: usize,
    /// Thread-block slots (bounded by `max_tb_per_smx`).
    pub tb_slots: Vec<Option<TbSlot>>,
    /// Warp slots (slab with free list).
    pub warps: Vec<Option<Warp>>,
    free_warp_slots: Vec<usize>,
    /// Threads currently resident.
    pub used_threads: u32,
    /// Registers currently reserved.
    pub used_regs: u32,
    /// Shared memory currently reserved.
    pub used_shared: u32,
    /// Live (not Done) warps, maintained incrementally for occupancy
    /// sampling.
    pub live_warps: u32,
    /// Kernels whose code/context has been set up on this SMX already
    /// (first block of a kernel pays `context_setup`).
    pub kernels_loaded: HashSet<KernelId>,
    /// Warp slot that issued most recently (GTO greedy pointer).
    pub greedy: Option<usize>,
    rr_cursor: usize,
    /// Recycled `warp_slots` index vectors from released thread blocks, so
    /// steady-state block dispatch reuses their capacity instead of
    /// allocating a fresh `Vec` per placed block.
    slot_vec_pool: Vec<Vec<usize>>,
    /// Recycled lane-major register slabs from released warps. Every warp
    /// — including the partial last warp of an odd-sized block — uses a
    /// full 32-lane slab, so the pool is uniform and short-lived DTBL
    /// aggregated blocks re-bind a warm slab instead of allocating.
    reg_pool: Vec<WarpRegs>,
    /// Resident warp slots in ascending `age` order. Ages are handed out
    /// from a monotone counter, so `place_tb` appends in order and the
    /// list stays sorted without ever sorting; GTO walks it instead of
    /// collect+sort every cycle.
    age_order: Vec<usize>,
    /// Scratch buffer [`select_warps`](Self::select_warps) writes its
    /// picks into, reused across cycles (read back via
    /// [`picked`](Self::picked)).
    pick_buf: Vec<usize>,
    /// Cached lower bound on the earliest `ready_at` over resident
    /// [`WarpState::Ready`] warps. Every site that assigns a future
    /// `ready_at` folds into it (see
    /// [`note_ready_at`](Self::note_ready_at)); it may go stale-low when
    /// such a warp issues or blocks, which
    /// [`next_ready_at`](Self::next_ready_at) repairs by rescanning —
    /// stale-low is harmless (a too-early horizon), stale-high would be a
    /// correctness bug.
    ready_min: u64,
    trace: TraceBuffer,
}

impl Smx {
    /// Creates an empty SMX.
    pub fn new(id: usize, cfg: &GpuConfig) -> Self {
        Smx {
            id,
            tb_slots: vec![None; cfg.max_tb_per_smx],
            warps: Vec::new(),
            free_warp_slots: Vec::new(),
            used_threads: 0,
            used_regs: 0,
            used_shared: 0,
            live_warps: 0,
            kernels_loaded: HashSet::new(),
            greedy: None,
            rr_cursor: 0,
            slot_vec_pool: Vec::new(),
            reg_pool: Vec::new(),
            age_order: Vec::new(),
            pick_buf: Vec::new(),
            ready_min: u64::MAX,
            trace: TraceBuffer::default(),
        }
    }

    /// Restores the state [`Smx::new`] would build while keeping the
    /// warm allocations: the warp slab's and scratch vectors' capacity,
    /// the pooled `warp_slots` vectors, and the pooled register slabs
    /// (any still attached to a leftover warp are recovered first). Used
    /// by `Gpu::reset_bind`; a run after a reset must be bit-identical to
    /// a run on a fresh SMX, so everything observable — including warp
    /// slot numbering, which feeds the AGT hash — is reinitialized.
    pub fn reset(&mut self, cfg: &GpuConfig) {
        for w in self.warps.drain(..).flatten() {
            self.reg_pool.push(w.regs);
        }
        self.free_warp_slots.clear();
        self.tb_slots.clear();
        self.tb_slots.resize(cfg.max_tb_per_smx, None);
        self.used_threads = 0;
        self.used_regs = 0;
        self.used_shared = 0;
        self.live_warps = 0;
        self.kernels_loaded.clear();
        self.greedy = None;
        self.rr_cursor = 0;
        self.age_order.clear();
        self.pick_buf.clear();
        self.ready_min = u64::MAX;
        self.trace.set_mask(0);
        self.trace.drain();
    }

    /// Staging buffer for thread-block placement/retirement events. The
    /// simulator sets the category mask and drains it once per cycle.
    pub fn trace_mut(&mut self) -> &mut TraceBuffer {
        &mut self.trace
    }

    /// Registers needed by one thread block of `kernel`.
    fn regs_for(kernel: &Kernel) -> u32 {
        kernel.threads_per_block() * u32::from(kernel.regs_per_thread())
    }

    /// True when a thread block of `kernel` fits in the remaining
    /// resources (threads, registers, shared memory, TB slot, warp slots).
    pub fn can_fit(&self, kernel: &Kernel, cfg: &GpuConfig) -> bool {
        let threads = kernel.threads_per_block();
        self.tb_slots.iter().any(Option::is_none)
            && self.used_threads + threads <= cfg.max_threads_per_smx
            && self.used_regs + Self::regs_for(kernel) <= cfg.regs_per_smx
            && self.used_shared + kernel.shared_mem_bytes() <= cfg.shared_mem_per_smx
    }

    /// Installs one thread block and its warps. Returns the TB slot
    /// index, or `None` when no slot is free (callers should check
    /// [`can_fit`](Self::can_fit) first; a `None` here means the
    /// scheduler's accounting is broken and is reported as an invariant
    /// violation).
    #[allow(clippy::too_many_arguments)]
    pub fn place_tb(
        &mut self,
        kernel_id: KernelId,
        kernel: &Arc<Kernel>,
        tbcr: Tbcr,
        nctaid: u32,
        param_base: u32,
        ready_at: u64,
        warp_age: &mut u64,
    ) -> Option<usize> {
        let slot = self.tb_slots.iter().position(Option::is_none)?;
        if self.trace.on(Category::Tb) {
            self.trace.push(EventKind::TbPlace {
                smx: self.id as u32,
                slot: slot as u32,
                kernel: u32::from(kernel_id.0),
                kde: tbcr.kdei,
                blkid: tbcr.blkid,
                agg: tbcr.agei.is_some() as u32,
            });
        }
        let threads = kernel.threads_per_block();
        let n_warps = threads.div_ceil(gpu_isa::WARP_SIZE as u32);
        let mut warp_slots = self.slot_vec_pool.pop().unwrap_or_default();
        warp_slots.reserve(n_warps as usize);
        for wi in 0..n_warps {
            let lanes_left = threads - wi * gpu_isa::WARP_SIZE as u32;
            let valid = if lanes_left >= 32 {
                u32::MAX
            } else {
                (1u32 << lanes_left) - 1
            };
            let ws = self.free_warp_slots.pop().unwrap_or_else(|| {
                self.warps.push(None);
                self.warps.len() - 1
            });
            let regs = self.reg_pool.pop().unwrap_or_default();
            let mut w = Warp::new(
                slot,
                wi,
                ws,
                kernel.regs_per_thread(),
                valid,
                *warp_age,
                regs,
            );
            *warp_age += 1;
            w.ready_at = ready_at;
            w.env.build(
                kernel.block_dim(),
                Dim3::x(nctaid),
                tbcr.blkid,
                wi,
                valid,
                self.id as u32,
                param_base,
            );
            self.warps[ws] = Some(w);
            warp_slots.push(ws);
            self.age_order.push(ws);
            self.live_warps += 1;
        }
        self.ready_min = self.ready_min.min(ready_at);
        self.used_threads += threads;
        self.used_regs += Self::regs_for(kernel);
        self.used_shared += kernel.shared_mem_bytes();
        self.tb_slots[slot] = Some(TbSlot {
            tbcr,
            kernel: kernel_id,
            kernel_fn: Arc::clone(kernel),
            block_dim: kernel.block_dim(),
            nctaid,
            param_base,
            warp_slots,
            live_warps: n_warps,
            barrier_arrived: 0,
            shared: vec![0u8; kernel.shared_mem_bytes() as usize],
            regs_reserved: Self::regs_for(kernel),
            threads_reserved: threads,
        });
        Some(slot)
    }

    /// Releases a completed thread block's resources and returns its
    /// TBCR; `None` when the slot is empty or warps are still live
    /// (either is a scheduler-accounting bug, surfaced as an invariant
    /// violation by the caller).
    pub fn release_tb(&mut self, slot: usize) -> Option<Tbcr> {
        if self.tb_slots[slot].as_ref()?.live_warps != 0 {
            return None;
        }
        let mut tb = self.tb_slots[slot].take()?;
        for ws in tb.warp_slots.drain(..) {
            if let Some(w) = self.warps[ws].take() {
                // Recover the lane-major register slab (capacity intact)
                // for the next placed block.
                self.reg_pool.push(w.regs);
            }
            self.free_warp_slots.push(ws);
            if self.greedy == Some(ws) {
                self.greedy = None;
            }
        }
        let warps = &self.warps;
        self.age_order.retain(|ws| warps[*ws].is_some());
        self.slot_vec_pool.push(tb.warp_slots);
        self.used_threads -= tb.threads_reserved;
        self.used_regs -= tb.regs_reserved;
        self.used_shared -= tb.shared.len() as u32;
        if self.trace.on(Category::Tb) {
            self.trace.push(EventKind::TbRetire {
                smx: self.id as u32,
                slot: slot as u32,
                kde: tb.tbcr.kdei,
            });
        }
        Some(tb.tbcr)
    }

    /// Selects up to `budget` distinct ready warps to issue this cycle,
    /// honoring the configured policy (GTO keeps the last-issued warp
    /// first while it stays ready; round-robin rotates). The picks are
    /// written into a per-SMX scratch buffer — read them back via
    /// [`picked`](Self::picked) — and the count is returned; no allocation
    /// happens in steady state.
    pub fn select_warps(&mut self, now: u64, budget: usize, policy: WarpSchedPolicy) -> usize {
        self.pick_buf.clear();
        // `ready_min` never exceeds the true minimum `ready_at` of any
        // `Ready` warp (it is only ever folded down or repaired to the
        // exact minimum), so a cached bound past `now` proves no warp
        // can issue this cycle: skip the slot scan. On the event-driven
        // path every quiet step repairs the cache, making this the
        // common case for each SMX that is memory-bound or empty.
        if self.ready_min > now {
            return 0;
        }
        let ready = |w: &Warp| w.issuable(now);

        if policy == WarpSchedPolicy::Gto {
            if let Some(g) = self.greedy {
                if let Some(Some(w)) = self.warps.get(g) {
                    if ready(w) {
                        self.pick_buf.push(g);
                    }
                }
            }
        }
        match policy {
            WarpSchedPolicy::Gto => {
                // Oldest-first among remaining ready warps: `age_order` is
                // kept sorted by construction, so one in-order walk
                // replaces the old collect+sort.
                for &i in &self.age_order {
                    if self.pick_buf.len() >= budget {
                        break;
                    }
                    if Some(i) == self.greedy {
                        continue;
                    }
                    if let Some(Some(w)) = self.warps.get(i) {
                        if ready(w) {
                            self.pick_buf.push(i);
                        }
                    }
                }
            }
            WarpSchedPolicy::RoundRobin => {
                let n = self.warps.len();
                for k in 0..n {
                    if self.pick_buf.len() >= budget {
                        break;
                    }
                    let i = (self.rr_cursor + k) % n.max(1);
                    if let Some(Some(w)) = self.warps.get(i) {
                        if ready(w) {
                            self.pick_buf.push(i);
                        }
                    }
                }
                if let Some(last) = self.pick_buf.last() {
                    self.rr_cursor = (last + 1) % n.max(1);
                }
            }
        }
        self.pick_buf.truncate(budget);
        if let Some(first) = self.pick_buf.first() {
            self.greedy = Some(*first);
        }
        self.pick_buf.len()
    }

    /// The warp slots chosen by the most recent
    /// [`select_warps`](Self::select_warps) call.
    pub fn picked(&self) -> &[usize] {
        &self.pick_buf
    }

    /// Folds a newly assigned warp `ready_at` into the cached ready
    /// horizon. Must be called by every site that makes a warp issuable
    /// *outside* a warp issue on this SMX — block placement and memory
    /// wake-ups. Sites reached only *through* an issue (instruction
    /// latencies, barrier release by the arriving warp) need no fold: the
    /// issuing warp had `ready_at <= now`, which pins the cache at or
    /// below `now`, so the next [`next_ready_at`](Self::next_ready_at)
    /// query rescans and sees their effect.
    pub fn note_ready_at(&mut self, at: u64) {
        self.ready_min = self.ready_min.min(at);
    }

    /// Earliest future cycle at which a resident warp may become
    /// issuable, as a safe lower bound; `None` when no resident warp is in
    /// the `Ready` state (blocked warps are woken by memory completions or
    /// barrier releases, whose horizons/steps are tracked elsewhere).
    ///
    /// The cached bound may be stale-low (a warp issued or blocked since
    /// it was folded); when it is not in the future it is repaired with
    /// one scan of the resident warps (`age_order` lists exactly the
    /// occupied slots, so empty slots cost nothing) — at most one scan
    /// per staged or quiet step, instead of one per simulated cycle.
    pub fn next_ready_at(&mut self, now: u64) -> Option<u64> {
        if self.ready_min <= now {
            let mut min = u64::MAX;
            for w in self
                .age_order
                .iter()
                .filter_map(|&i| self.warps[i].as_ref())
            {
                if matches!(w.state, WarpState::Ready) && w.ready_at < min {
                    min = w.ready_at;
                }
            }
            self.ready_min = min;
        }
        (self.ready_min != u64::MAX).then_some(self.ready_min.max(now + 1))
    }

    /// Cheap preflight for the two-phase stage dispatcher: can any warp
    /// possibly issue at `now`? The cached bound never exceeds the true
    /// minimum `ready_at` of a `Ready` warp, so `false` is definitive
    /// (the SMX will stage zero picks); `true` may be stale-low.
    pub(crate) fn may_issue(&self, now: u64) -> bool {
        self.ready_min <= now
    }

    /// True when no warps are resident.
    pub fn is_idle(&self) -> bool {
        self.live_warps == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_isa::KernelBuilder;

    fn kernel(threads: u32, shared_words: u32) -> Arc<Kernel> {
        let mut b = KernelBuilder::new("k", Dim3::x(threads), 1);
        if shared_words > 0 {
            b.alloc_shared_words(shared_words);
        }
        let _ = b.imm(0);
        Arc::new(b.build().unwrap())
    }

    fn tbcr() -> Tbcr {
        Tbcr {
            kdei: 0,
            agei: None,
            blkid: 0,
        }
    }

    #[test]
    fn place_and_release_roundtrip() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(100, 8);
        assert!(smx.can_fit(&k, &cfg));
        let mut age = 0;
        let slot = smx
            .place_tb(KernelId(0), &k, tbcr(), 4, 0x100, 0, &mut age)
            .unwrap();
        assert_eq!(smx.used_threads, 100);
        assert_eq!(smx.live_warps, 4, "100 threads = 4 warps (last partial)");
        let tb = smx.tb_slots[slot].as_ref().unwrap();
        assert_eq!(tb.warp_slots.len(), 4);
        let last = smx.warps[tb.warp_slots[3]].as_ref().unwrap();
        assert_eq!(last.valid_mask.count_ones(), 4, "100 - 96 lanes");

        // Drain warps, then release.
        let slots: Vec<usize> = tb.warp_slots.clone();
        for ws in slots {
            smx.warps[ws].as_mut().unwrap().state = WarpState::Done;
            smx.live_warps -= 1;
        }
        smx.tb_slots[slot].as_mut().unwrap().live_warps = 0;
        assert!(smx.release_tb(slot).is_some());
        assert!(smx.release_tb(slot).is_none(), "double release refused");
        assert_eq!(smx.used_threads, 0);
        assert_eq!(smx.used_regs, 0);
        assert_eq!(smx.used_shared, 0);
        assert!(smx.is_idle());
    }

    #[test]
    fn capacity_limits_enforced() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(1024, 0);
        let mut age = 0;
        smx.place_tb(KernelId(0), &k, tbcr(), 4, 0, 0, &mut age)
            .unwrap();
        assert!(smx.can_fit(&k, &cfg), "2048 threads total allowed");
        smx.place_tb(KernelId(0), &k, tbcr(), 4, 0, 0, &mut age)
            .unwrap();
        assert!(!smx.can_fit(&k, &cfg), "thread limit reached");
    }

    #[test]
    fn shared_memory_limit() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        // 32 KiB of shared per block: only one fits in 48 KiB.
        let k = kernel(32, 8 * 1024);
        let mut age = 0;
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        assert!(!smx.can_fit(&k, &cfg));
    }

    #[test]
    fn shared_rw_and_oob_refused() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(32, 4);
        let mut age = 0;
        let slot = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        let tb = smx.tb_slots[slot].as_mut().unwrap();
        tb.shared_write(8, 77).unwrap();
        assert_eq!(tb.shared_read(8), Some(77));
        assert_eq!(tb.shared_read(16), None, "OOB shared read is refused");
        assert_eq!(tb.shared_write(16, 1), None, "OOB shared write is refused");
    }

    #[test]
    fn gto_prefers_greedy_then_oldest() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(96, 0); // 3 warps, ages 0,1,2
        let mut age = 0;
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        assert_eq!(smx.select_warps(0, 1, WarpSchedPolicy::Gto), 1);
        let g = smx.picked()[0];
        // Greedy warp keeps priority while ready.
        assert_eq!(smx.select_warps(0, 2, WarpSchedPolicy::Gto), 2);
        assert_eq!(smx.picked()[0], g);
        // Stall the greedy warp: oldest other warp wins.
        smx.warps[g].as_mut().unwrap().ready_at = 100;
        assert_eq!(smx.select_warps(0, 1, WarpSchedPolicy::Gto), 1);
        let next = smx.picked()[0];
        assert_ne!(next, g);
        let age_next = smx.warps[next].as_ref().unwrap().age;
        assert_eq!(age_next, if g == 0 { 1 } else { 0 });
    }

    #[test]
    fn gto_age_order_survives_release_and_replace() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(64, 0); // 2 warps per block
        let mut age = 0;
        let s0 = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        // Retire the first (older) block; its slots leave the age order.
        let used: Vec<usize> = smx.tb_slots[s0].as_ref().unwrap().warp_slots.clone();
        for ws in &used {
            smx.warps[*ws].as_mut().unwrap().state = WarpState::Done;
            smx.live_warps -= 1;
        }
        smx.tb_slots[s0].as_mut().unwrap().live_warps = 0;
        assert!(smx.release_tb(s0).is_some());
        // A new block reuses the freed slots with *newer* ages; GTO must
        // still pick the surviving second block's warps (ages 2,3) first.
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        smx.greedy = None;
        assert_eq!(smx.select_warps(0, 4, WarpSchedPolicy::Gto), 4);
        let ages: Vec<u64> = smx
            .picked()
            .iter()
            .map(|ws| smx.warps[*ws].as_ref().unwrap().age)
            .collect();
        assert_eq!(ages, vec![2, 3, 4, 5], "oldest-first across slot reuse");
    }

    #[test]
    fn next_ready_at_tracks_wakeups_and_rescans() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        assert_eq!(smx.next_ready_at(0), None, "empty SMX has no horizon");
        let k = kernel(64, 0);
        let mut age = 0;
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 50, &mut age)
            .unwrap();
        assert_eq!(smx.next_ready_at(0), Some(50), "placement folds ready_at");
        // Block both warps on memory: the stale-low cache is repaired by a
        // rescan and the SMX stops advertising a self-event.
        for w in smx.warps.iter_mut().flatten() {
            w.state = WarpState::WaitingMem { outstanding: 1 };
        }
        assert_eq!(smx.next_ready_at(60), None);
        // A wake-up folds the new ready_at back in.
        for w in smx.warps.iter_mut().flatten() {
            w.state = WarpState::Ready;
            w.ready_at = 200;
        }
        smx.note_ready_at(200);
        assert_eq!(smx.next_ready_at(60), Some(200));
    }

    #[test]
    fn placed_tb_shares_the_kernel_not_a_copy() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(64, 0);
        let mut age = 0;
        let slot = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        let tb = smx.tb_slots[slot].as_ref().unwrap();
        assert!(
            Arc::ptr_eq(&tb.kernel_fn, &k),
            "block dispatch must share the kernel allocation, not deep-copy it"
        );
    }

    #[test]
    fn warp_slot_vectors_are_pooled_across_blocks() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(64, 0);
        let mut age = 0;
        let slot = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        let cap_before = smx.tb_slots[slot].as_ref().unwrap().warp_slots.capacity();
        let used: Vec<usize> = smx.tb_slots[slot].as_ref().unwrap().warp_slots.clone();
        for ws in &used {
            smx.warps[*ws].as_mut().unwrap().state = WarpState::Done;
            smx.live_warps -= 1;
        }
        smx.tb_slots[slot].as_mut().unwrap().live_warps = 0;
        assert!(smx.release_tb(slot).is_some());
        assert_eq!(smx.slot_vec_pool.len(), 1, "released Vec parked for reuse");
        let slot2 = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        assert!(smx.slot_vec_pool.is_empty(), "pooled Vec taken back out");
        assert!(smx.tb_slots[slot2].as_ref().unwrap().warp_slots.capacity() >= cap_before);
    }

    #[test]
    fn register_slabs_are_pooled_across_blocks() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(100, 0); // 4 warps, last one partial (4 lanes)
        let mut age = 0;
        let slot = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        let used: Vec<usize> = smx.tb_slots[slot].as_ref().unwrap().warp_slots.clone();
        for ws in &used {
            smx.warps[*ws].as_mut().unwrap().state = WarpState::Done;
            smx.live_warps -= 1;
        }
        smx.tb_slots[slot].as_mut().unwrap().live_warps = 0;
        assert!(smx.release_tb(slot).is_some());
        assert_eq!(
            smx.reg_pool.len(),
            4,
            "all four slabs recovered, partial last warp included"
        );
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        assert!(smx.reg_pool.is_empty(), "pooled slabs taken back out");
    }

    #[test]
    fn reset_matches_fresh_smx_but_keeps_pools() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(64, 4);
        let mut age = 0;
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        smx.kernels_loaded.insert(KernelId(0));
        smx.reset(&cfg);
        // Observable state is exactly what Smx::new builds...
        let fresh = Smx::new(0, &cfg);
        assert_eq!(smx.tb_slots.len(), fresh.tb_slots.len());
        assert!(smx.tb_slots.iter().all(Option::is_none));
        assert!(smx.warps.is_empty() || smx.warps.iter().all(Option::is_none));
        assert_eq!(smx.warps.iter().flatten().count(), 0);
        assert!(smx.free_warp_slots.is_empty(), "slot numbering restarts");
        assert_eq!(smx.used_threads, 0);
        assert_eq!(smx.used_regs, 0);
        assert_eq!(smx.used_shared, 0);
        assert_eq!(smx.live_warps, 0);
        assert!(smx.kernels_loaded.is_empty());
        assert_eq!(smx.ready_min, u64::MAX);
        // ...but the register slabs were recovered for reuse.
        assert_eq!(smx.reg_pool.len(), 2, "leftover warps drained into pool");
        let mut age2 = 0;
        smx.place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age2)
            .unwrap();
        assert!(smx.reg_pool.is_empty(), "warm slabs reused after reset");
    }

    #[test]
    fn warp_slots_are_recycled() {
        let cfg = GpuConfig::test_small();
        let mut smx = Smx::new(0, &cfg);
        let k = kernel(64, 0);
        let mut age = 0;
        let slot = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        let used: Vec<usize> = smx.tb_slots[slot].as_ref().unwrap().warp_slots.clone();
        for ws in &used {
            smx.warps[*ws].as_mut().unwrap().state = WarpState::Done;
            smx.live_warps -= 1;
        }
        smx.tb_slots[slot].as_mut().unwrap().live_warps = 0;
        assert!(smx.release_tb(slot).is_some());
        let slot2 = smx
            .place_tb(KernelId(0), &k, tbcr(), 1, 0, 0, &mut age)
            .unwrap();
        let reused = &smx.tb_slots[slot2].as_ref().unwrap().warp_slots;
        assert!(reused.iter().all(|ws| used.contains(ws)), "slab reuse");
        assert_eq!(smx.warps.len(), 2);
    }
}
