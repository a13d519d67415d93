//! Warp-level memory access coalescing.
//!
//! As on Kepler-class hardware (§2.2 of the paper): the 32 addresses of a
//! warp's active lanes are mapped to the 128-byte segments they touch, and
//! one memory transaction is generated per distinct segment. A fully
//! coalesced access (32 consecutive words) produces exactly one
//! transaction; a fully scattered access produces up to 32 — this is the
//! "memory divergence" that the paper's CDP/DTBL implementations reduce by
//! giving each dynamically-launched block consecutive addresses to work on.

use crate::SEGMENT_BYTES;

/// Computes the distinct 128-byte segment base addresses touched by the
/// active lanes of a warp.
///
/// `addrs[i] = Some(a)` for an active lane accessing byte address `a`,
/// `None` for inactive lanes. The result is sorted and deduplicated; its
/// length is the number of memory transactions the access costs.
///
/// Accesses in this ISA are 32-bit and may straddle a segment boundary
/// when unaligned; both touched segments are counted in that case.
///
/// # Example
///
/// ```
/// use gpu_mem::coalesce::coalesce;
///
/// // 32 consecutive words: one transaction.
/// let addrs: Vec<Option<u32>> = (0..32).map(|i| Some(0x1000 + i * 4)).collect();
/// assert_eq!(coalesce(&addrs).len(), 1);
///
/// // Stride-128 words: one transaction per lane.
/// let addrs: Vec<Option<u32>> = (0..32).map(|i| Some(0x1000 + i * 128)).collect();
/// assert_eq!(coalesce(&addrs).len(), 32);
/// ```
pub fn coalesce(addrs: &[Option<u32>]) -> Vec<u32> {
    let mut segs: Vec<u32> = Vec::with_capacity(4);
    coalesce_append(addrs, &mut segs);
    segs
}

/// [`coalesce`] appended onto a caller-provided buffer *without* clearing
/// it: the segments for this access land (sorted, deduplicated) at the
/// tail, and the returned `(start, len)` names their range within `segs`.
/// The two-phase engine batches every warp access an SMX stages in one
/// cycle into a single per-shard transaction list this way.
pub fn coalesce_append(addrs: &[Option<u32>], segs: &mut Vec<u32>) -> (u32, u32) {
    let start = segs.len();
    for a in addrs.iter().flatten() {
        push_seg(segs, start, a & !(SEGMENT_BYTES - 1));
        let last_byte = a.wrapping_add(3);
        let seg2 = last_byte & !(SEGMENT_BYTES - 1);
        push_seg(segs, start, seg2);
    }
    segs[start..].sort_unstable();
    // Dedup the tail in place (`Vec::dedup` would touch the whole buffer).
    let mut w = start + 1;
    for r in start + 1..segs.len() {
        if segs[r] != segs[w - 1] {
            segs[w] = segs[r];
            w += 1;
        }
    }
    if start < segs.len() {
        segs.truncate(w);
    }
    (start as u32, (segs.len() - start) as u32)
}

fn push_seg(segs: &mut Vec<u32>, start: usize, seg: u32) {
    // Small-vector fast path: most warps touch very few segments, so a
    // linear containment check beats hashing.
    if !segs[start..].contains(&seg) {
        segs.push(seg);
    }
}

/// Convenience wrapper: number of transactions for an access pattern.
pub fn transaction_count(addrs: &[Option<u32>]) -> usize {
    coalesce(addrs).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes(it: impl IntoIterator<Item = u32>) -> Vec<Option<u32>> {
        it.into_iter().map(Some).collect()
    }

    #[test]
    fn fully_coalesced_is_one_transaction() {
        let a = lanes((0..32).map(|i| 0x4000 + i * 4));
        assert_eq!(coalesce(&a), vec![0x4000]);
    }

    #[test]
    fn inactive_lanes_are_ignored() {
        let mut a = lanes((0..32).map(|i| 0x4000 + i * 4));
        for lane in a.iter_mut().skip(8) {
            *lane = None;
        }
        assert_eq!(coalesce(&a).len(), 1);
        let none: Vec<Option<u32>> = vec![None; 32];
        assert!(coalesce(&none).is_empty());
    }

    #[test]
    fn broadcast_same_address_is_one_transaction() {
        let a = vec![Some(0x123_400u32); 32];
        assert_eq!(coalesce(&a).len(), 1);
    }

    #[test]
    fn two_segment_split() {
        // First 16 lanes in one segment, next 16 in the following one.
        let a = lanes((0..32).map(|i| 0x8000 + i * 8));
        assert_eq!(coalesce(&a).len(), 2);
    }

    #[test]
    fn scattered_access_costs_one_per_lane() {
        let a = lanes((0..32).map(|i| i * 4096));
        assert_eq!(coalesce(&a).len(), 32);
    }

    #[test]
    fn unaligned_word_straddles_two_segments() {
        let a = vec![Some(126u32)]; // bytes 126..130 cross the 128 boundary
        let segs = coalesce(&a);
        assert_eq!(segs, vec![0, 128]);
    }

    #[test]
    fn results_are_sorted_segment_bases() {
        let a = vec![Some(600u32), Some(10), Some(300)];
        let segs = coalesce(&a);
        assert_eq!(segs, vec![0, 256, 512]);
        assert!(segs.iter().all(|s| s % SEGMENT_BYTES == 0));
    }
}
