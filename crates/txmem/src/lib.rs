//! Simulated word-addressable shared memory for the captured-memory STM.
//!
//! The paper ("Optimizing Transactions for Captured Memory", SPAA 2009)
//! instruments C++ programs whose transactional data lives in raw process
//! memory: per-thread stacks, and a heap managed by a McRT-Malloc-style
//! allocator. A safe-Rust reproduction cannot hand raw stack addresses to an
//! STM, so this crate provides the equivalent substrate as a *simulated* flat
//! address space:
//!
//! * [`SharedMem`] — a flat array of 64-bit words, byte-addressed through
//!   [`Addr`], shared by every thread.
//! * [`ThreadStack`] — a per-thread, downward-growing stack region inside the
//!   shared address space, with an explicit stack pointer exactly like the
//!   paper's Figure 3 (`start_sp` is recorded by the STM at transaction
//!   begin; `sp` is the live stack top).
//! * [`TxHeap`] — a size-class allocator over 8 KiB pages, after
//!   McRT-Malloc (paper ref \[11\]) and mimalloc: each page is free, a block
//!   page that counts its live blocks and keeps its free space as merging
//!   runs (nursery regions included), or part of a large run, and a page
//!   whose last block dies goes back to the pool, where it can serve
//!   anything.
//!
//! All transactional workloads (the STAMP-like suite, the `txcc` VM) store
//! their data in this address space, which is what makes the paper's capture
//! checks — a stack range comparison and an allocation-log lookup —
//! implementable verbatim.

mod addr;
mod alloc;
mod mem;
mod pad;
mod stack;

pub use addr::{words_to_bytes, Addr, NULL, WORD_BYTES};
pub use alloc::{
    small_block_total, AllocError, Census, TxHeap, HEADER_BYTES, MAX_SMALL_BYTES,
    NURSERY_MAX_BLOCK_BYTES, PAGE_BYTES, SIZE_CLASSES,
};
pub use mem::{MemConfig, MemLayout, SharedMem};
pub use pad::CachePadded;
pub use stack::ThreadStack;
