//! Capture-analysis data structures (paper §3.1).
//!
//! The runtime capture analysis of "Optimizing Transactions for Captured
//! Memory" needs to answer one question inside every STM barrier: *was the
//! accessed address allocated by the current transaction?* For the stack this
//! is a single range comparison (implemented in `txmem::ThreadStack`); for
//! the heap it requires an **allocation log** of every block allocated inside
//! the transaction. The paper evaluates three interchangeable
//! implementations, all provided here:
//!
//! * [`RangeTree`] — a balanced search tree of ranges (paper Fig. 5):
//!   *precise*, with internal nodes carrying subtree bounds so misses
//!   terminate high in the tree.
//! * [`RangeArray`] — an unsorted, cache-line-sized array of ranges (paper
//!   Fig. 6): *lossy* (overflowing inserts are dropped) but very cheap.
//! * [`AddrFilter`] — a direct-mapped hash filter of exact word addresses
//!   (paper §3.1.2 "Filtering"): false negatives allowed, never false
//!   positives.
//! * [`NurseryLog`] — the transaction-local *bump-region* classifier: the
//!   runtime serves small transactional allocations from a contiguous
//!   nursery region, so heap capture collapses to the same two-compare
//!   range test as the stack check (plus one watermark compare for
//!   nesting). Blocks the scalar range cannot represent — those in a
//!   region the nursery switched away from, large blocks — compose with
//!   any of the three logs above.
//!
//! All are conservative: a miss only means a full STM barrier is executed, so
//! lossiness costs performance, never correctness (valid for in-place-update
//! STMs, as the paper notes; a deferred-update STM would need consistency).
//!
//! [`PrivateLog`] reuses the same structures for the paper's §3.1.3
//! `addPrivateMemoryBlock` / `removePrivateMemoryBlock` annotations for
//! thread-local and read-only data: unlike the allocation log it is *not*
//! cleared at transaction end.

//! The [`CapturePolicy`] trait is the seam the STM's barrier pipeline is
//! monomorphized over: the three logs implement it, and [`LogImpl`] is the
//! enum-dispatch implementation the STM's *reference* pipeline queries per
//! access, kept for differential tests and the dispatch microbenchmark.

#![warn(missing_docs)]

mod array;
mod filter;
mod log;
mod nursery;
mod policy;
mod private;
mod tree;

pub use array::RangeArray;
pub use filter::{AddrFilter, DEFAULT_FILTER_LOG2};
pub use log::{LogImpl, LogKind};
pub use nursery::{NurseryLog, NurseryMark};
pub use policy::CapturePolicy;
pub use private::PrivateLog;
pub use tree::RangeTree;
