use crate::array::RangeArray;
use crate::filter::AddrFilter;
use crate::tree::RangeTree;
use crate::CapturePolicy;

/// Which allocation-log implementation a transaction uses (paper §3.1.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LogKind {
    /// Precise search tree of ranges (paper Fig. 5).
    Tree,
    /// Cache-line-sized unsorted array of ranges (paper Fig. 6).
    Array,
    /// Direct-mapped hash filter of exact addresses.
    Filter,
}

impl LogKind {
    /// Every log kind, in the order the paper's figures list them.
    pub const ALL: [LogKind; 3] = [LogKind::Tree, LogKind::Array, LogKind::Filter];

    /// Short label used in experiment tables ("tree" / "array" / "filtering").
    pub fn name(self) -> &'static str {
        match self {
            LogKind::Tree => "tree",
            LogKind::Array => "array",
            LogKind::Filter => "filtering",
        }
    }
}

/// Enum dispatch over the three implementations, so the hot barrier path
/// pays a predictable branch instead of a virtual call.
pub enum LogImpl {
    /// Precise balanced range tree.
    Tree(RangeTree),
    /// Cache-line-sized unsorted range array.
    Array(RangeArray<4>),
    /// Lossy direct-mapped address filter.
    Filter(AddrFilter),
}

impl LogImpl {
    /// Construct an empty log of the requested kind (the filter gets its
    /// fixed-size table).
    pub fn new(kind: LogKind) -> LogImpl {
        match kind {
            LogKind::Tree => LogImpl::Tree(RangeTree::new()),
            LogKind::Array => LogImpl::Array(RangeArray::new()),
            LogKind::Filter => LogImpl::Filter(AddrFilter::with_log2_entries(
                crate::filter::DEFAULT_FILTER_LOG2,
            )),
        }
    }

    /// See [`CapturePolicy::insert`].
    #[inline]
    pub fn insert(&mut self, start: u64, len: u64, level: u32) {
        match self {
            LogImpl::Tree(t) => t.insert(start, len, level),
            LogImpl::Array(a) => a.insert(start, len, level),
            LogImpl::Filter(f) => f.insert(start, len, level),
        }
    }

    /// See [`CapturePolicy::remove`].
    #[inline]
    pub fn remove(&mut self, start: u64, len: u64) {
        match self {
            LogImpl::Tree(t) => t.remove(start, len),
            LogImpl::Array(a) => a.remove(start, len),
            LogImpl::Filter(f) => f.remove(start, len),
        }
    }

    /// See [`CapturePolicy::query`].
    #[inline]
    pub fn query(&self, addr: u64) -> Option<u32> {
        match self {
            LogImpl::Tree(t) => t.query(addr),
            LogImpl::Array(a) => a.query(addr),
            LogImpl::Filter(f) => f.query(addr),
        }
    }

    /// See [`CapturePolicy::clear`].
    #[inline]
    pub fn clear(&mut self) {
        match self {
            LogImpl::Tree(t) => t.clear(),
            LogImpl::Array(a) => a.clear(),
            LogImpl::Filter(f) => f.clear(),
        }
    }

    /// Number of live entries currently representable (diagnostics).
    pub fn entries(&self) -> usize {
        match self {
            LogImpl::Tree(t) => t.entries(),
            LogImpl::Array(a) => a.entries(),
            LogImpl::Filter(f) => f.entries(),
        }
    }

    /// Which implementation this log dispatches to.
    pub fn kind(&self) -> LogKind {
        match self {
            LogImpl::Tree(_) => LogKind::Tree,
            LogImpl::Array(_) => LogKind::Array,
            LogImpl::Filter(_) => LogKind::Filter,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_dispatch_matches_kinds() {
        for kind in LogKind::ALL {
            let mut log = LogImpl::new(kind);
            assert_eq!(log.kind(), kind);
            log.insert(1000, 100, 1);
            // Every implementation must find the inserted block (none is
            // lossy on a single insert).
            assert_eq!(log.query(1000), Some(1));
            assert_eq!(log.query(1096), Some(1));
            assert_eq!(log.query(2000), None);
            log.clear();
            assert_eq!(log.query(1000), None);
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(LogKind::Tree.name(), "tree");
        assert_eq!(LogKind::Array.name(), "array");
        assert_eq!(LogKind::Filter.name(), "filtering");
    }
}
