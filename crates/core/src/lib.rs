//! A software transactional memory runtime with capture-optimized barriers —
//! the core system of "Optimizing Transactions for Captured Memory"
//! (Dragojević, Ni, Adl-Tabatabai; SPAA 2009).
//!
//! The runtime follows the Intel C++ STM design the paper builds on
//! (McRT-STM family):
//!
//! * a global **transaction record** (orec) table at cache-line (64-byte)
//!   granularity, indexed by address bits (record `i` guards line `i`
//!   modulo the table size, as in the Intel STM, TL2 and TinySTM);
//! * **eager (encounter-time) locking** of records on write;
//! * **in-place updates** with an **undo log** for rollback;
//! * **optimistic (invisible) readers** with timestamp-based validation and
//!   snapshot extension, so transactions always observe consistent state;
//! * an **exponential backoff** contention manager, escalating to karma
//!   patience and a serialization token for chronic aborters;
//! * a transactional allocator (allocations are undone on abort, frees are
//!   deferred to commit);
//! * **closed nesting** with partial abort.
//!
//! On top of that substrate sit the paper's contributions, all configurable
//! through [`TxConfig`]:
//!
//! * **Runtime capture analysis** ([`Mode::Runtime`]): every barrier first
//!   checks whether the accessed address is *captured* — allocated on the
//!   transaction-local stack (one range compare) or heap (an allocation-log
//!   lookup using the tree / array / filter structures from the `capture`
//!   crate) — and if so performs a plain load/store.
//! * **Compiler capture analysis** ([`Mode::Compiler`]): access sites that
//!   static analysis proves captured ([`Site::compiler_elides`]) skip the
//!   barrier entirely, with no runtime check cost. (The actual static
//!   analysis lives in the `txcc` crate; Rust-authored workloads carry its
//!   verdict in their [`Site`] descriptors.)
//! * **Data annotations** ([`TxConfig::annotations`]): the paper's
//!   `addPrivateMemoryBlock` / `removePrivateMemoryBlock` API for
//!   thread-local and read-only data.
//!
//! The barrier pipeline itself is **monomorphized** (DESIGN.md §2): all
//! mode/log dispatch is resolved once at [`StmRuntime::new`] into a
//! static table of function pointers specialized per [`Mode`] and per
//! [`CapturePolicy`] implementation, and the hottest captured accesses
//! (current-level stack, most-recent captured block) are handled by exact
//! inline checks before the call. The pre-refactor per-access
//! enum-dispatch pipeline is preserved behind
//! [`TxConfig::reference_dispatch`] as a differential-testing oracle.
//!
//! # Example
//!
//! ```
//! use stm::{Mode, StmRuntime, Site, TxConfig};
//! use txmem::MemConfig;
//!
//! static SITE: Site = Site::shared("example.counter");
//!
//! let rt = StmRuntime::new(MemConfig::small(), TxConfig::default());
//! let counter = rt.alloc_global(8); // one shared word
//! let mut w = rt.spawn_worker();
//! let v = w.txn(|tx| {
//!     let v = tx.read(&SITE, counter)?;
//!     tx.write(&SITE, counter, v + 1)?;
//!     Ok(v + 1)
//! });
//! assert_eq!(v, 1);
//! ```
#![warn(missing_docs)]

mod barrier;
mod clock;
mod commit;
mod config;
mod contention;
mod durable;
mod nursery;
mod orec;
mod runtime;
mod site;
mod stats;
mod txalloc;
mod typed;
mod worker;

pub use capture::{CapturePolicy, LogKind};
pub use config::{CheckScope, ConfigError, Mode, TxConfig};
pub use contention::{ChaosPlan, ChaosPoint};
pub use durable::{log_file_name, recover, FaultPhase, FaultPlan, RecoveryReport, SimDisk};
pub use orec::OrecTable;
pub use runtime::StmRuntime;
pub use site::Site;
pub use stats::{BarrierStats, TxStats, LATENCY_BUCKETS};
pub use typed::{Field, StackFrame, TxBuf, TxObject, TxPtr, TxWord};
pub use worker::{Abort, Tx, TxResult, WorkerCtx};
