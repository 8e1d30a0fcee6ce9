//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: one `rep` span per repetition, an `stm.txn` span around each
//! sampled `w.txn(..)` call, and one child span per closure attempt
//! (`pool.<op>`, `transfer.body`). The op index is the id the spans of one
//! op share. Spans stay in memory until the repetition ends; a layer's
//! self time is its span minus the part its children cover.

use std::time::Instant;

use crate::json::Value;
use crate::stats::percentile_sorted;

/// Index of the repetition span, parent of every `stm.txn` span.
pub const REP: u32 = 0;
/// Kind index of the repetition span and of `stm.txn` spans; closure
/// kinds follow from 2.
pub const KIND_REP: u16 = 0;
pub const KIND_TXN: u16 = 1;
pub const KIND_BODY0: u16 = 2;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: u16,
    /// Op index within the issuing thread's stream.
    pub id: u32,
    /// Index of the causing span ([`REP`] for transactions).
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span buffer. Parent indices are local until
/// [`Trace::merge`] rebases them.
pub struct ThreadTrace {
    epoch: Instant,
    spans: Vec<Span>,
    /// Closure attempts of *every* op, sampled or not.
    pub attempts: u64,
}

impl ThreadTrace {
    pub fn new(epoch: Instant, capacity: usize) -> ThreadTrace {
        ThreadTrace {
            epoch,
            spans: Vec::with_capacity(capacity),
            attempts: 0,
        }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open an `stm.txn` span for op `id`; returns its local index.
    #[inline]
    pub fn open_txn(&mut self, id: u32) -> u32 {
        let at = self.now();
        self.spans.push(Span {
            kind: KIND_TXN,
            id,
            parent: REP,
            start_ns: at,
            end_ns: at,
        });
        (self.spans.len() - 1) as u32
    }

    #[inline]
    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now();
    }

    /// Record one finished closure attempt under transaction span `txn`.
    #[inline]
    pub fn attempt(&mut self, kind: u16, id: u32, txn: u32, start_ns: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            kind,
            id,
            parent: txn,
            start_ns,
            end_ns,
        });
    }
}

pub struct Trace {
    /// Span names by kind index.
    pub kinds: Vec<String>,
    pub spans: Vec<Span>,
    pub attempts: u64,
}

impl Trace {
    /// Join the threads' buffers under one repetition span covering
    /// `[0, rep_end_ns)`.
    pub fn merge(kinds: Vec<String>, rep_end_ns: u64, threads: Vec<ThreadTrace>) -> Trace {
        let mut spans = vec![Span {
            kind: KIND_REP,
            id: 0,
            parent: u32::MAX,
            start_ns: 0,
            end_ns: rep_end_ns,
        }];
        let mut attempts = 0;
        for t in threads {
            let base = spans.len() as u32;
            attempts += t.attempts;
            spans.extend(t.spans.into_iter().map(|mut s| {
                if s.kind != KIND_TXN {
                    s.parent += base;
                }
                s
            }));
        }
        Trace {
            kinds,
            spans,
            attempts,
        }
    }

    /// Mean self time of the `stm.txn` spans: the call minus its closure
    /// attempts, i.e. begin + commit + rollback + backoff (plus the two
    /// timer reads that bracket each attempt).
    pub fn txn_self_ns(&self) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.kind >= KIND_BODY0 {
                child_ns[s.parent as usize] += s.dur();
            }
        }
        let (mut total, mut n) = (0u64, 0u64);
        for (s, c) in self.spans.iter().zip(&child_ns) {
            if s.kind == KIND_TXN {
                total += s.dur().saturating_sub(*c);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64
        }
    }

    /// Per closure kind: `(name, p50 ns, p99 ns, share of all stm.txn time)`.
    pub fn body_kinds(&self) -> Vec<(&str, f64, f64, f64)> {
        let txn_total: u64 = self
            .spans
            .iter()
            .filter(|s| s.kind == KIND_TXN)
            .map(Span::dur)
            .sum();
        (KIND_BODY0 as usize..self.kinds.len())
            .map(|k| {
                let mut durs: Vec<u64> = self
                    .spans
                    .iter()
                    .filter(|s| s.kind as usize == k)
                    .map(Span::dur)
                    .collect();
                durs.sort_unstable();
                let pct = |p| percentile_sorted(&durs, p).unwrap_or(0) as f64;
                let share = if txn_total == 0 {
                    0.0
                } else {
                    durs.iter().sum::<u64>() as f64 / txn_total as f64
                };
                (self.kinds[k].as_str(), pct(0.5), pct(0.99), share)
            })
            .collect()
    }

    /// Columnar JSON: one row `[kind, id, parent, start_ns, end_ns]` per
    /// span (`parent` -1 for the repetition span).
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        Value::object([
            ("workload", Value::str(workload)),
            ("seed", Value::Num(seed as f64)),
            (
                "kinds",
                Value::Arr(self.kinds.iter().map(Value::str).collect()),
            ),
            (
                "columns",
                Value::Arr(
                    ["kind", "id", "parent", "start_ns", "end_ns"]
                        .map(Value::str)
                        .to_vec(),
                ),
            ),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            let parent = if s.parent == u32::MAX {
                                -1.0
                            } else {
                                s.parent as f64
                            };
                            Value::Arr(
                                [
                                    s.kind as f64,
                                    s.id as f64,
                                    parent,
                                    s.start_ns as f64,
                                    s.end_ns as f64,
                                ]
                                .map(Value::Num)
                                .to_vec(),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: u16, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let t = Trace {
            kinds: ["rep", "stm.txn", "pool.insert", "pool.remove"]
                .map(String::from)
                .to_vec(),
            spans: vec![
                span(KIND_REP, u32::MAX, 0, 1_000),
                // txn 100 ns with two attempts of 30 + 40 ns: self 30.
                span(KIND_TXN, REP, 0, 100),
                span(2, 1, 10, 40),
                span(2, 1, 50, 90),
                // txn 50 ns with one 40 ns attempt: self 10.
                span(KIND_TXN, REP, 200, 250),
                span(3, 4, 205, 245),
            ],
            attempts: 3,
        };
        assert_eq!(t.txn_self_ns(), 20.0);
        let kinds = t.body_kinds();
        assert_eq!(kinds[0], ("pool.insert", 30.0, 40.0, 70.0 / 150.0));
        assert_eq!(kinds[1], ("pool.remove", 40.0, 40.0, 40.0 / 150.0));
        let json = t.to_json("w", 1).render();
        assert!(crate::json::parse(&json).is_ok());
    }

    #[test]
    fn merge_rebases_attempt_parents() {
        let epoch = Instant::now();
        let mut a = ThreadTrace::new(epoch, 4);
        let mut b = ThreadTrace::new(epoch, 4);
        for t in [&mut a, &mut b] {
            let txn = t.open_txn(7);
            let at = t.now();
            t.attempt(KIND_BODY0, 7, txn, at);
            t.close(txn);
        }
        let t = Trace::merge(
            vec!["rep".into(), "stm.txn".into(), "x".into()],
            10,
            vec![a, b],
        );
        assert_eq!(t.spans.len(), 5);
        assert_eq!((t.spans[1].parent, t.spans[2].parent), (REP, 1));
        assert_eq!((t.spans[3].parent, t.spans[4].parent), (REP, 3));
    }
}
