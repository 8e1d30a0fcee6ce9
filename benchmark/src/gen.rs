//! The benchmark's own input generator: a seeded xorshift64* stream, a Zipf
//! sampler, and the pre-drawn op streams of every workload. Nothing here
//! depends on `crates/bench` (ROADMAP item 3 rewrites that crate), and
//! every stream is drawn in full *before* a timed phase starts, so the
//! program under test receives only generated inputs and the generator's
//! cost never lands in a measurement.

use pool::PoolEntry;

/// Sender-id domain of the pool workloads (Zipf-distributed).
pub const SENDERS: u64 = 1 << 10;
/// Priority domain of the pool workloads.
pub const PRIOS: u64 = 1 << 16;
/// Zipf exponent of the sender draw.
pub const THETA: f64 = 0.8;
/// Largest payload, in words, an insert carries.
pub const PAYLOAD_MAX: u64 = 8;

/// splitmix64 finalizer: turns (seed, stream tag) pairs into well-mixed,
/// non-zero generator states.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xorshift64*.
pub struct Rng(u64);

impl Rng {
    /// The stream `tag` of benchmark seed `seed`. Distinct tags give
    /// independent streams, so a workload's threads (and its prefill vs.
    /// its measured window) never share draws.
    pub fn stream(seed: u64, tag: u64) -> Rng {
        Rng(mix(mix(seed) ^ tag).max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * 2f64.powi(-53)
    }
}

/// Zipf(θ) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0 && theta.is_finite() && theta >= 0.0);
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

/// One pre-drawn pool operation. 24 bytes, so a million-op stream streams
/// through the cache without competing with the pool's own working set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolOp {
    Insert {
        id: u64,
        nonce: u32,
        prio: u32,
        sender: u16,
        payload_words: u8,
    },
    PopBest,
    Remove {
        id: u64,
    },
    Promote {
        id: u64,
        prio: u32,
    },
    RemoveSender {
        sender: u16,
    },
    Contains {
        id: u64,
    },
    /// `len` + `live_bytes` in one read-only transaction.
    Stats,
}

/// Number of distinct [`PoolOp`] kinds (index space of [`PoolOp::kind`]).
pub const POOL_KINDS: usize = 7;

/// Span / metric names per kind, indexed by [`PoolOp::kind`].
pub const POOL_KIND_NAMES: [&str; POOL_KINDS] = [
    "insert",
    "pop_best",
    "remove",
    "promote",
    "remove_sender",
    "contains",
    "stats",
];

impl PoolOp {
    pub fn kind(&self) -> usize {
        match self {
            PoolOp::Insert { .. } => 0,
            PoolOp::PopBest => 1,
            PoolOp::Remove { .. } => 2,
            PoolOp::Promote { .. } => 3,
            PoolOp::RemoveSender { .. } => 4,
            PoolOp::Contains { .. } => 5,
            PoolOp::Stats => 6,
        }
    }

    /// Canonical words of this op, for [`StreamHash`].
    fn words(&self) -> [u64; 3] {
        match *self {
            PoolOp::Insert {
                id,
                nonce,
                prio,
                sender,
                payload_words,
            } => [
                id,
                (nonce as u64) << 32 | prio as u64,
                (sender as u64) << 8 | payload_words as u64,
            ],
            PoolOp::PopBest => [1, 0, 0],
            PoolOp::Remove { id } => [2, id, 0],
            PoolOp::Promote { id, prio } => [3, id, prio as u64],
            PoolOp::RemoveSender { sender } => [4, sender as u64, 0],
            PoolOp::Contains { id } => [5, id, 0],
            PoolOp::Stats => [6, 0, 0],
        }
    }
}

/// FNV-1a over 64-bit words: the identity of a generated input. Recorded
/// with every result so two runs can prove they measured the same ops.
#[derive(Clone, Copy)]
pub struct StreamHash(u64);

impl Default for StreamHash {
    fn default() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }
}

impl StreamHash {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn pool_ops(&mut self, ops: &[PoolOp]) {
        for op in ops {
            for w in op.words() {
                self.word(w);
            }
        }
    }

    pub fn transfers(&mut self, ts: &[Transfer]) {
        for t in ts {
            self.word((t.from as u64) << 32 | t.to as u64);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The `expt pool` mix — 55% fresh insert, 15% pop_best, 10% remove, 10%
/// promote, 5% remove_sender, 5% resubmission of an id from this thread's
/// history (a duplicate if still live, a legitimate re-insert otherwise) —
/// drawn up front. `thread` tags the ids (high bits), so streams of
/// different threads never collide except through deliberate resubmits.
pub fn pool_mixed(seed: u64, thread: u64, n: usize) -> Vec<PoolOp> {
    let mut rng = Rng::stream(seed, 0x100 + thread);
    let zipf = Zipf::new(SENDERS, THETA);
    let mut issued: Vec<u64> = Vec::new();
    let mut next_seq = 0u64;
    let mut next_nonce = 0u32;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = rng.below(100);
        let pick = |rng: &mut Rng, issued: &[u64]| -> Option<u64> {
            (!issued.is_empty()).then(|| issued[rng.below(issued.len() as u64) as usize])
        };
        let picked = match roll {
            70..=89 | 95..=99 => pick(&mut rng, &issued),
            _ => None,
        };
        let op = match (roll, picked) {
            (55..=69, _) => PoolOp::PopBest,
            (70..=79, Some(id)) => PoolOp::Remove { id },
            (80..=89, Some(id)) => PoolOp::Promote {
                id,
                prio: rng.below(PRIOS) as u32,
            },
            (90..=94, _) => PoolOp::RemoveSender {
                sender: zipf.sample(&mut rng) as u16,
            },
            (_, resubmit) => {
                let id = resubmit.unwrap_or_else(|| {
                    next_seq += 1;
                    let id = (thread + 1) << 40 | next_seq;
                    issued.push(id);
                    id
                });
                next_nonce += 1;
                PoolOp::Insert {
                    id,
                    nonce: next_nonce,
                    sender: zipf.sample(&mut rng) as u16,
                    prio: rng.below(PRIOS) as u32,
                    payload_words: rng.below(PAYLOAD_MAX + 1) as u8,
                }
            }
        };
        ops.push(op);
    }
    ops
}

/// The `pool-lookup` window over a prefilled pool whose live items are
/// `live` (sorted by id, as `seq_collect` and `ModelPool::contents` both
/// return them): 70% `contains` of a live id, 20% `contains` of an id no
/// stream ever issues, 5% `Stats`, 5% `promote` of a live id. Promotes
/// change priorities only, so the live set — and with it every hit/miss
/// expectation — is stable however often the window is cycled.
pub fn pool_lookup(seed: u64, live: &[PoolEntry], n: usize) -> Vec<PoolOp> {
    assert!(!live.is_empty(), "lookup window over an empty pool");
    let mut rng = Rng::stream(seed, 0x200);
    let live_id = |rng: &mut Rng| live[rng.below(live.len() as u64) as usize].id;
    (0..n)
        .map(|_| match rng.below(100) {
            0..=69 => PoolOp::Contains {
                id: live_id(&mut rng),
            },
            // Thread tag 0xFFFF: above any id `pool_mixed` can issue.
            70..=89 => PoolOp::Contains {
                id: 0xFFFF << 40 | rng.below(1 << 32),
            },
            90..=94 => PoolOp::Stats,
            _ => PoolOp::Promote {
                id: live_id(&mut rng),
                prio: rng.below(PRIOS) as u32,
            },
        })
        .collect()
}

/// One pre-drawn `transfer-short` transaction: move one unit from word
/// `from` to word `to` (always distinct).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    pub from: u32,
    pub to: u32,
}

/// Uniform transfers over `words` shared words.
pub fn transfers(seed: u64, thread: u64, words: u64, n: usize) -> Vec<Transfer> {
    assert!(words >= 2);
    let mut rng = Rng::stream(seed, 0x300 + thread);
    (0..n)
        .map(|_| {
            let from = rng.below(words);
            let to = (from + 1 + rng.below(words - 1)) % words;
            Transfer {
                from: from as u32,
                to: to as u32,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_hash(seed: u64, thread: u64) -> u64 {
        let mut h = StreamHash::default();
        h.pool_ops(&pool_mixed(seed, thread, 5_000));
        h.value()
    }

    #[test]
    fn pool_op_is_compact() {
        assert!(std::mem::size_of::<PoolOp>() <= 24);
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(mixed_hash(7, 0), mixed_hash(7, 0));
        assert_ne!(mixed_hash(7, 0), mixed_hash(8, 0));
        assert_ne!(mixed_hash(7, 0), mixed_hash(7, 1), "threads draw apart");
        let h = |seed| {
            let mut h = StreamHash::default();
            h.transfers(&transfers(seed, 0, 1 << 16, 5_000));
            h.value()
        };
        assert_eq!(h(3), h(3));
        assert_ne!(h(3), h(4));
    }

    #[test]
    fn mixed_stream_has_the_stated_mix() {
        let ops = pool_mixed(11, 0, 100_000);
        let mut by_kind = [0usize; POOL_KINDS];
        for op in &ops {
            by_kind[op.kind()] += 1;
        }
        // 55% fresh + 5% resubmits are both inserts.
        let share = |k: usize| by_kind[k] as f64 / ops.len() as f64;
        assert!((share(0) - 0.60).abs() < 0.01, "{by_kind:?}");
        assert!((share(1) - 0.15).abs() < 0.01);
        assert!((share(2) - 0.10).abs() < 0.01);
        assert!((share(3) - 0.10).abs() < 0.01);
        assert!((share(4) - 0.05).abs() < 0.01);
        assert_eq!(by_kind[5] + by_kind[6], 0);
    }

    #[test]
    fn lookup_window_mix_and_miss_ids() {
        let live: Vec<PoolEntry> = (1..=50)
            .map(|id| PoolEntry {
                id,
                sender: 0,
                nonce: 0,
                prio: 0,
                payload_words: 0,
            })
            .collect();
        let ops = pool_lookup(5, &live, 20_000);
        let hits = ops
            .iter()
            .filter(|op| matches!(op, PoolOp::Contains { id } if *id <= 50))
            .count();
        let misses = ops
            .iter()
            .filter(|op| matches!(op, PoolOp::Contains { id } if *id > 50))
            .count();
        assert!((hits as f64 / 20_000.0 - 0.70).abs() < 0.02);
        assert!((misses as f64 / 20_000.0 - 0.20).abs() < 0.02);
        assert_eq!(ops, pool_lookup(5, &live, 20_000));
        assert_ne!(ops, pool_lookup(6, &live, 20_000));
    }

    #[test]
    fn transfers_never_self_transfer() {
        for t in transfers(1, 0, 16, 10_000) {
            assert_ne!(t.from, t.to);
            assert!(t.from < 16 && t.to < 16);
        }
    }

    #[test]
    fn zipf_skews_toward_rank_zero() {
        let z = Zipf::new(1_000, 1.0);
        let mut rng = Rng::stream(9, 0);
        let top = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(top > 2_500, "top-10 share {top}/10000");
    }
}
