//! Deterministic torn-tail recovery sweep (ISSUE 8, satellite 3).
//!
//! A fixed durable workload of `N` committing transactions produces one
//! log record per commit. By running the identical `N-1`- and
//! `N`-transaction workloads on fresh disks we learn the byte range
//! `[len0, len1)` the final record occupies. Then, for **every** byte
//! offset in that range, a fresh identical run has its log either
//! truncated at the offset or corrupted at that byte, and recovery must:
//!
//! * drop exactly the final transaction (`logical_committed == N-1`) —
//!   never a partial application, never an earlier record;
//! * report the damage (`torn_tails == 1`, except at the clean record
//!   boundary where the tail is simply absent);
//! * leave memory bit-identical to the `N-1`-commit prefix; and
//! * chop the damaged tail so an immediate second recovery is clean.

use std::sync::Arc;

use stm::{log_file_name, recover, SimDisk, Site, StmRuntime, TxConfig};
use txmem::{Addr, MemConfig};

static S_SHARED: Site = Site::shared("torn.shared");
static S_LOCAL: Site = Site::captured_local("torn.local");

const CELLS: u64 = 4;
const BLK_WORDS: u64 = 3;
const N: usize = 6;

fn cfg() -> TxConfig {
    TxConfig {
        durable: true,
        orec_log2: 12,
        ..TxConfig::runtime_tree_full()
    }
}

/// The pure shadow of `n` committed transactions.
struct Sim {
    cells: [u64; CELLS as usize],
    /// `(publisher index, contents)` of the block the slot points at.
    published: Option<(usize, Vec<u64>)>,
}

fn simulate(n: usize) -> Sim {
    let mut cells = [0u64; CELLS as usize];
    let mut published = None;
    for i in 0..n {
        let c = i % CELLS as usize;
        cells[c] = cells[c].wrapping_mul(7).wrapping_add(i as u64 + 1);
        if i % 2 == 1 {
            published = Some((i, (0..BLK_WORDS).map(|j| i as u64 * 100 + j).collect()));
        }
    }
    Sim { cells, published }
}

/// Run the first `n` transactions of the fixed script on a fresh durable
/// runtime over `disk`. Returns the global addresses and the per-txn
/// block-pointer ledger (0 = the transaction allocated nothing).
fn run(n: usize, disk: &Arc<SimDisk>) -> (Addr, Addr, Vec<u64>) {
    let rt = StmRuntime::new_durable(MemConfig::small(), cfg(), disk.clone());
    let cells = rt.alloc_global(CELLS * 8);
    let slot = rt.alloc_global(8);
    let mut ptrs = vec![0u64; n];
    let mut w = rt.spawn_worker();
    for (i, p) in ptrs.iter_mut().enumerate() {
        let iu = i as u64;
        *p = w.txn(|tx| {
            let c = cells.word(iu % CELLS);
            let v = tx.read(&S_SHARED, c)?;
            tx.write(&S_SHARED, c, v.wrapping_mul(7).wrapping_add(iu + 1))?;
            if i % 2 == 1 {
                let b = tx.alloc(BLK_WORDS * 8)?;
                for j in 0..BLK_WORDS {
                    tx.write(&S_LOCAL, b.word(j), iu * 100 + j)?;
                }
                tx.write(&S_SHARED, slot, b.raw())?;
                Ok(b.raw())
            } else {
                Ok(0)
            }
        });
    }
    drop(w);
    (cells, slot, ptrs)
}

/// Recover from `disk` and assert the exact `expect_l`-commit prefix,
/// `expect_torn` torn tails, and bit-identical memory.
fn check(
    disk: &Arc<SimDisk>,
    cells: Addr,
    slot: Addr,
    ptrs: &[u64],
    expect_l: usize,
    expect_torn: u64,
    what: &str,
) {
    let (rt, report) = recover(MemConfig::small(), cfg(), disk.clone());
    assert_eq!(
        report.logical_committed, expect_l as u64,
        "{what}: prefix length"
    );
    assert_eq!(report.torn_tails, expect_torn, "{what}: torn-tail count");
    let sim = simulate(expect_l);
    for c in 0..CELLS as usize {
        assert_eq!(
            rt.mem().load_private(cells.word(c as u64)),
            sim.cells[c],
            "{what}: cell {c} diverged"
        );
    }
    let got = rt.mem().load_private(slot);
    match &sim.published {
        None => assert_eq!(got, 0, "{what}: slot must be unpublished"),
        Some((i, content)) => {
            assert_eq!(got, ptrs[*i], "{what}: slot pointer");
            for (j, &want) in content.iter().enumerate() {
                assert_eq!(
                    rt.mem().load_private(Addr(got).word(j as u64)),
                    want,
                    "{what}: block word {j}"
                );
            }
        }
    }
    // Recovery chopped the damage: a second pass must be clean and agree.
    drop(rt);
    let (_rt2, again) = recover(MemConfig::small(), cfg(), disk.clone());
    assert_eq!(again.torn_tails, 0, "{what}: tail not chopped");
    assert_eq!(
        again.logical_committed, expect_l as u64,
        "{what}: unstable re-recovery"
    );
}

/// Byte range `[len0, len1)` of the final transaction's record, measured
/// from two fresh identical runs (the workload is deterministic, so the
/// first `N-1` records are byte-identical across runs).
fn final_record_range() -> (usize, usize) {
    let name = log_file_name(0);
    let d0 = SimDisk::new();
    run(N - 1, &d0);
    let len0 = d0.file_len(&name);
    let d1 = SimDisk::new();
    run(N, &d1);
    let len1 = d1.file_len(&name);
    assert!(
        len0 > 0 && len1 > len0,
        "workload must append a final record"
    );
    (len0, len1)
}

#[test]
fn truncation_at_every_offset_of_the_final_record_drops_exactly_one_txn() {
    let name = log_file_name(0);
    let (len0, len1) = final_record_range();
    for off in len0..len1 {
        let disk = SimDisk::new();
        let (cells, slot, ptrs) = run(N, &disk);
        disk.truncate_file(&name, off);
        // At the exact record boundary the tail is absent, not torn.
        let torn = u64::from(off > len0);
        check(
            &disk,
            cells,
            slot,
            &ptrs,
            N - 1,
            torn,
            &format!("truncate@{off}"),
        );
    }
}

#[test]
fn corruption_at_every_byte_of_the_final_record_drops_exactly_one_txn() {
    let name = log_file_name(0);
    let (len0, len1) = final_record_range();
    for off in len0..len1 {
        let disk = SimDisk::new();
        let (cells, slot, ptrs) = run(N, &disk);
        disk.corrupt_byte(&name, off);
        check(
            &disk,
            cells,
            slot,
            &ptrs,
            N - 1,
            1,
            &format!("corrupt@{off}"),
        );
    }
}

#[test]
fn undamaged_log_recovers_all_commits() {
    let disk = SimDisk::new();
    let (cells, slot, ptrs) = run(N, &disk);
    check(&disk, cells, slot, &ptrs, N, 0, "clean");
}
