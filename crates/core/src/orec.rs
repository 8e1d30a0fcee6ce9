use std::sync::atomic::AtomicU64;

use txmem::Addr;

/// A transaction-record value is either
/// * even: the version (commit timestamp) of the last transaction that
///   wrote any location mapping to this record, or
/// * odd: locked, with the owner's thread id in the upper bits.
#[inline]
pub fn is_locked(v: u64) -> bool {
    v & 1 == 1
}

#[inline]
pub fn lock_value(owner: u64) -> u64 {
    (owner << 1) | 1
}

#[inline]
pub fn owner_of(v: u64) -> u64 {
    debug_assert!(is_locked(v));
    v >> 1
}

/// Bytes covered by one orec stripe (the `addr >> 6` line mapping in
/// [`OrecTable::index_of`]). Ranged barriers batch shared spans at this
/// granularity: all words of a stripe share one record, so one acquire /
/// one validation entry covers the whole stripe sub-span.
pub const STRIPE_BYTES: u64 = 64;

/// The one address-to-record map: the line number's low bits. Shared by
/// [`OrecTable::index_of`] and the worker's direct copy of the table.
#[inline(always)]
pub(crate) fn line_index(addr: Addr, mask: u64) -> u32 {
    ((addr.raw() >> 6) & mask) as u32
}

/// The system-wide transaction-record table (paper §2.1): each entry tracks
/// ownership of the memory locations mapping to it. The map is address
/// bits, as in the Intel C++ STM, TL2 and TinySTM: all eight words of a
/// 64-byte line share one record, and record `i` guards line `i` modulo the
/// table size — so eight neighbouring lines' records share one (aligned)
/// cache line of the table, and a transaction's metadata is as clustered
/// as its data. Coverage rule: a table of `n` records is alias-free over
/// any `n × 64` bytes; beyond that, addresses exactly that far apart
/// collide. Both effects — words of a line, and lines a table-span apart —
/// are the *false conflicts* the paper discusses, which barrier elision
/// reduces (Table 1).
pub struct OrecTable {
    /// The allocation: seven records more than the table, so that the
    /// table proper can start on a cache line wherever the allocator put
    /// it (a large `malloc` lands 16 bytes past a page).
    orecs: Box<[AtomicU64]>,
    /// Index of the first 64-byte-aligned record — record 0 of the table.
    base: usize,
    mask: u64,
}

impl OrecTable {
    /// Build a table of `2^log2` transaction records, all unlocked at
    /// version 0.
    pub fn new(log2: u32) -> OrecTable {
        let n = 1usize << log2;
        let mut v = Vec::with_capacity(n + 7);
        v.resize_with(n + 7, || AtomicU64::new(0));
        let orecs = v.into_boxed_slice();
        OrecTable {
            base: (orecs.as_ptr() as usize).wrapping_neg() % 64 / 8,
            orecs,
            mask: (n - 1) as u64,
        }
    }

    /// The table for an address space of `space_bytes`: one record per
    /// line, rounded up to a power of two, capped at `2^cap_log2`. Under
    /// the direct map records beyond the space's lines are unreachable, so
    /// the clamp changes no verdict.
    pub fn covering(space_bytes: u64, cap_log2: u32) -> OrecTable {
        let lines = space_bytes.div_ceil(STRIPE_BYTES).next_power_of_two();
        OrecTable::new(cap_log2.min(lines.trailing_zeros()))
    }

    /// Map an address to its record index: its 64-byte line number,
    /// `(addr >> 6) & mask`.
    #[inline]
    pub fn index_of(&self, addr: Addr) -> u32 {
        line_index(addr, self.mask)
    }

    /// The records, for the worker's direct copy (the slow path indexes
    /// the slice itself instead of chasing the runtime; the index mask is
    /// its length minus one).
    pub(crate) fn records(&self) -> &[AtomicU64] {
        &self.orecs[self.base..][..=self.mask as usize]
    }

    #[inline]
    /// The record at `idx` (for re-examining a lock already hashed).
    pub fn at(&self, idx: u32) -> &AtomicU64 {
        &self.records()[idx as usize]
    }

    /// Number of records in the table.
    pub fn len(&self) -> usize {
        self.mask as usize + 1
    }

    /// True if the table has no records (never the case for a table
    /// built by [`OrecTable::new`]).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StmRuntime, TxConfig};
    use std::collections::HashSet;
    use std::sync::atomic::Ordering;
    use txmem::MemConfig;

    #[test]
    fn lock_encoding_roundtrips() {
        for owner in [0u64, 1, 7, 1000] {
            let v = lock_value(owner);
            assert!(is_locked(v));
            assert_eq!(owner_of(v), owner);
        }
        assert!(!is_locked(0));
        assert!(!is_locked(2));
        assert!(!is_locked(40));
    }

    #[test]
    fn neighbouring_lines_pack_into_contiguous_records() {
        let t = OrecTable::new(16);
        let base = Addr(0x4000);
        for w in 1..8 {
            assert_eq!(t.index_of(base), t.index_of(base.word(w)));
        }
        // Eight consecutive lines: eight consecutive records inside one
        // 64-byte line of the table.
        let i0 = t.index_of(base);
        assert_eq!(i0 % 8, 0);
        assert_eq!(t.at(0) as *const AtomicU64 as usize % 64, 0);
        for l in 0..8 {
            assert_eq!(t.index_of(base.offset(l * 64)), i0 + l as u32);
        }
        // 512 consecutive lines touch 64 table lines (a hashed map: ~512).
        let touched: HashSet<u32> = (0..512)
            .map(|l| t.index_of(base.offset(l * 64)) / 8)
            .collect();
        assert!(touched.len() <= 64, "{} table lines", touched.len());
    }

    #[test]
    fn covered_space_is_alias_free_and_a_small_cap_still_aliases() {
        let rt = |log2| {
            let cfg = TxConfig {
                orec_log2: log2,
                ..TxConfig::default()
            };
            StmRuntime::new(MemConfig::small(), cfg)
        };
        // Sized to the space's lines (576 KiB -> 2^14), not to the 2^20 cap.
        let t = &rt(20).orecs;
        assert_eq!(t.len(), 1 << 14);
        assert_eq!(rt(12).orecs.len(), 1 << 12, "a lower cap still binds");
        let lines = 576 * 1024 / STRIPE_BYTES;
        let seen: HashSet<u32> = (0..lines).map(|l| t.index_of(Addr(l * 64))).collect();
        assert_eq!(seen.len() as u64, lines, "two lines of the space alias");
        // The ablation's mechanism: a 16-record table aliases lines exactly
        // 16 x 64 bytes apart, and nothing closer.
        let t = &rt(4).orecs;
        let a = Addr(0x4000);
        assert_eq!(t.index_of(a), t.index_of(a.offset(16 * 64)));
        assert!((1..16).all(|l| t.index_of(a) != t.index_of(a.offset(l * 64))));
    }

    #[test]
    fn len_and_is_empty_agree() {
        let t = OrecTable::new(4);
        assert_eq!(t.len(), 16);
        assert!(!t.is_empty());
    }

    #[test]
    fn records_start_unlocked_at_version_zero() {
        let t = OrecTable::new(4);
        for i in 0..t.len() as u32 {
            assert_eq!(t.at(i).load(Ordering::Relaxed), 0);
        }
    }
}
