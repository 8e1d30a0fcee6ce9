use capture::LogKind;

use crate::contention::ChaosPlan;

/// Which barriers perform runtime capture checks, and for which kinds of
/// captured memory. These correspond to the configurations measured in the
/// paper's Figure 10/11: checking both stack and heap in both barrier kinds,
/// write barriers only, or write barriers + heap only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckScope {
    /// Run capture checks in read barriers.
    pub reads: bool,
    /// Run capture checks in write barriers.
    pub writes: bool,
    /// Check the transaction-local stack (paper Fig. 4).
    pub stack: bool,
    /// Check the transaction-local heap (allocation log).
    pub heap: bool,
}

impl CheckScope {
    /// Configuration (1) of Figure 10: stack+heap in reads and writes.
    pub const FULL: CheckScope = CheckScope {
        reads: true,
        writes: true,
        stack: true,
        heap: true,
    };
    /// Configuration (2): stack+heap, write barriers only.
    pub const WRITES_STACK_HEAP: CheckScope = CheckScope {
        reads: false,
        writes: true,
        stack: true,
        heap: true,
    };
    /// Configuration (3): heap only, write barriers only (also the
    /// configuration of Figure 11(b)).
    pub const WRITES_HEAP: CheckScope = CheckScope {
        reads: false,
        writes: true,
        stack: false,
        heap: true,
    };

    /// Display label, e.g. `r+w/stack+heap` (used by experiment tables).
    pub fn label(&self) -> String {
        let barriers = match (self.reads, self.writes) {
            (true, true) => "r+w",
            (false, true) => "w",
            (true, false) => "r",
            (false, false) => "none",
        };
        let kinds = match (self.stack, self.heap) {
            (true, true) => "stack+heap",
            (false, true) => "heap",
            (true, false) => "stack",
            (false, false) => "none",
        };
        format!("{barriers}/{kinds}")
    }
}

/// Barrier optimization mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// No capture analysis: every transactional access executes the full
    /// barrier (the paper's baseline; over-instrumentation included).
    Baseline,
    /// Runtime capture analysis (paper §3.1) with the chosen allocation-log
    /// data structure and check scope.
    Runtime {
        /// Allocation-log data structure for the captured-heap check.
        log: LogKind,
        /// Which barriers check which kinds of captured memory.
        scope: CheckScope,
    },
    /// Compiler capture analysis (paper §3.2): sites statically proven
    /// captured skip the barrier entirely; everything else runs the full
    /// barrier with *no* runtime checks.
    Compiler,
    /// Interprocedural compiler capture analysis (`txcc::interproc`):
    /// like [`Mode::Compiler`], but the static verdict is the
    /// summary-based whole-program pass, so sites whose allocation flows
    /// through a non-inlined call ([`crate::Site::compiler_elides_interproc`])
    /// are elided as well. Still zero runtime checks.
    CompilerInterproc,
}

impl Mode {
    /// Display label, e.g. `runtime-tree (r+w/stack+heap)`.
    pub fn label(&self) -> String {
        match self {
            Mode::Baseline => "baseline".into(),
            Mode::Runtime { log, scope } => format!("runtime-{} ({})", log.name(), scope.label()),
            Mode::Compiler => "compiler".into(),
            Mode::CompilerInterproc => "compiler-interproc".into(),
        }
    }
}

/// Full runtime configuration. Build it as a struct literal over a preset
/// (`TxConfig { nursery: true, ..TxConfig::runtime_tree_full() }`); every
/// runtime constructor checks the combination with [`TxConfig::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxConfig {
    /// Barrier optimization mode (the paper's configurations).
    pub mode: Mode,
    /// Consult the thread's private-memory annotation log in barriers
    /// (paper §3.1.3). Off by default, matching the paper's evaluation
    /// ("we did not elide those barriers in the following experiments").
    pub annotations: bool,
    /// Maintain a precise shadow tree and classify every barrier into the
    /// paper's Figure-8 categories (tx-local heap / tx-local stack /
    /// not-required-other / required). Adds overhead; used by the harness.
    pub classify: bool,
    /// Classify the blocks of the worker's *nursery* by range. Every
    /// arm bump-allocates small transactional blocks in a per-worker
    /// nursery — a contiguous bump region of the heap, held across
    /// transactions — and an abort reclaims it in O(1) by rewinding the
    /// bump. This flag picks only the capture check: on, the
    /// captured-heap check in [`Mode::Runtime`] barriers becomes a
    /// two-compare range test (the same shape as the stack check) and a
    /// bump block enters no log; off, every block is recorded in the
    /// configured allocation log at birth. Blocks the scalar range cannot
    /// represent (those in a region the nursery switched away from, large
    /// blocks) fall back to the configured log. Requires `Mode::Runtime`
    /// (the other modes keep no runtime capture state; see
    /// [`ConfigError::NurseryWithoutBackingLog`]).
    pub nursery: bool,
    /// log2 of the transaction-record table size — an upper bound: the
    /// table never exceeds the address space's lines (one record per
    /// 64-byte line, rounded up to a power of two), which an address-bits
    /// map could not reach anyway. Turned down, lines `2^orec_log2 × 64`
    /// bytes apart share a record (the paper's false-conflict ablation).
    /// Must be in `4..=26`.
    pub orec_log2: u32,
    /// How many times a barrier re-examines a locked record before the
    /// contention manager aborts the transaction. Must be at least 1.
    pub spin_tries: u32,
    /// Route every barrier through the **enum-dispatch reference
    /// pipeline** — a per-access `match` on [`Mode`] and an enum-dispatched
    /// allocation log — instead of the monomorphized dispatch table
    /// selected at runtime construction. Semantics (including statistics)
    /// are identical by contract; the differential tests and the
    /// `barrier_dispatch` microbenchmark rely on that. Not a paper
    /// mechanism; testing/measurement aid only. Excludes `durable`.
    pub reference_dispatch: bool,
    /// Durable commit mode: every commit appends its write set to
    /// a per-worker append-only redo log on the runtime's simulated disk
    /// (see `stm::SimDisk`), from which [`crate::recover`] can rebuild the
    /// heap after a crash. The record is on disk *before* the commit
    /// publishes its locks, so no transaction can observe unlogged state.
    /// Captured writes — stack, in-transaction heap blocks, nursery — are
    /// *not* logged per word: a surviving block is logged once as a
    /// coalesced final-content range at commit, and stack scratch is not
    /// logged at all. Requires
    /// [`StmRuntime::new_durable`](crate::StmRuntime::new_durable).
    pub durable: bool,
    /// Consecutive aborts after which the contention ladder (backoff →
    /// karma patience → a global serialization token; see
    /// `stm::contention`) enters its karma tier: the transaction's
    /// lock-spin budget starts growing with its attempt count, so chronic
    /// aborters out-wait fresh transactions in mutual-wait cycles. Must be
    /// `1..serialize_threshold`.
    pub karma_threshold: u64,
    /// Consecutive aborts after which the contention ladder serializes: the
    /// transaction takes the global token, drains in-flight transactions,
    /// and runs solo (it then cannot conflict, so it commits). Must be
    /// `> karma_threshold`.
    pub serialize_threshold: u64,
    /// Deterministic schedule-fault injection plan (`None` disables; see
    /// [`ChaosPlan`]). Test/measurement aid: injects seeded delays, yields
    /// and sleep-preemptions at barrier/validation/commit points to force
    /// pathological interleavings. A plan needs `period >= 1` and
    /// `yield_share + preempt_share <= 100`.
    pub chaos: Option<ChaosPlan>,
}

impl Default for TxConfig {
    fn default() -> Self {
        TxConfig {
            mode: Mode::Baseline,
            annotations: false,
            classify: false,
            nursery: false,
            orec_log2: 20,
            spin_tries: 64,
            reference_dispatch: false,
            durable: false,
            karma_threshold: 8,
            serialize_threshold: 64,
            chaos: None,
        }
    }
}

/// Why [`TxConfig::validate`] rejected a configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `nursery` without runtime capture analysis: the nursery's
    /// scalar range cannot represent every block (those in a region it
    /// switched away from, large blocks), so it *requires* a backing
    /// allocation log to demote to — and only [`Mode::Runtime`] carries
    /// one.
    NurseryWithoutBackingLog,
    /// `orec_log2` outside the supported 4..=26 range (the table is at
    /// most `2^orec_log2` words; below 16 entries every address collides,
    /// above 2^26 the table dwarfs the simulated memory it guards).
    OrecLog2OutOfRange(u32),
    /// `spin_tries` of zero: a barrier must re-examine a locked record at
    /// least once before the contention manager gives up.
    ZeroSpinTries,
    /// `durable` together with `reference_dispatch`: the enum-dispatch
    /// pipeline is the differential oracle for the per-access barriers
    /// alone; the durable commit hook changes the commit path
    /// (ticket draws for allocating read-only commits, pre-publish log
    /// appends) that the oracle's stats are compared against.
    DurableWithReferenceDispatch,
    /// `karma_threshold` of zero: the karma tier would escalate before the
    /// first abort, skipping plain backoff entirely.
    ZeroKarmaThreshold,
    /// `serialize_threshold` of zero: every first abort would grab the
    /// global serialization token, serializing the whole runtime.
    ZeroSerializeThreshold,
    /// Escalation thresholds out of order (`karma_threshold >=
    /// serialize_threshold`): the ladder must pass through the karma tier
    /// before serializing, or the spin-budget escalation is dead code.
    UnorderedEscalationThresholds(u64, u64),
    /// A [`crate::ChaosPlan`] with `period` of zero: the injection draw is
    /// taken modulo the period (1 fires at every enabled point).
    ZeroChaosPeriod,
    /// A [`crate::ChaosPlan`] whose `yield_share + preempt_share` exceeds
    /// 100: the shares are percentages of firings, the remainder are spin
    /// delays.
    ChaosSharesTooLarge(u32),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NurseryWithoutBackingLog => write!(
                f,
                "nursery allocation requires runtime capture analysis \
                 (Mode::Runtime) for its backing allocation log"
            ),
            ConfigError::OrecLog2OutOfRange(v) => {
                write!(f, "orec_log2 {v} outside supported range 4..=26")
            }
            ConfigError::ZeroSpinTries => write!(f, "spin_tries must be at least 1"),
            ConfigError::DurableWithReferenceDispatch => write!(
                f,
                "durable commit mode is incompatible with the \
                 reference_dispatch differential oracle"
            ),
            ConfigError::ZeroKarmaThreshold => {
                write!(f, "karma_threshold must be at least 1")
            }
            ConfigError::ZeroSerializeThreshold => {
                write!(f, "serialize_threshold must be at least 1")
            }
            ConfigError::UnorderedEscalationThresholds(k, s) => write!(
                f,
                "escalation thresholds out of order: karma_threshold {k} must \
                 be below serialize_threshold {s}"
            ),
            ConfigError::ZeroChaosPeriod => {
                write!(f, "chaos plan period must be at least 1")
            }
            ConfigError::ChaosSharesTooLarge(v) => {
                write!(f, "chaos plan yield_share + preempt_share {v} exceeds 100")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl TxConfig {
    /// Check that the fields form a configuration the runtime can run.
    /// Every [`StmRuntime`](crate::StmRuntime) constructor calls this and
    /// panics with the error's message, so a runtime never silently
    /// ignores a field.
    ///
    /// ```
    /// use stm::{ConfigError, Mode, TxConfig};
    ///
    /// assert!(TxConfig::runtime_tree_nursery().validate().is_ok());
    ///
    /// // The nursery needs a backing log; baseline mode has none.
    /// let cfg = TxConfig { nursery: true, ..TxConfig::with_mode(Mode::Baseline) };
    /// assert_eq!(cfg.validate(), Err(ConfigError::NurseryWithoutBackingLog));
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        let c = self;
        if c.nursery && !matches!(c.mode, Mode::Runtime { .. }) {
            return Err(ConfigError::NurseryWithoutBackingLog);
        }
        if !(4..=26).contains(&c.orec_log2) {
            return Err(ConfigError::OrecLog2OutOfRange(c.orec_log2));
        }
        if c.spin_tries == 0 {
            return Err(ConfigError::ZeroSpinTries);
        }
        if c.durable && c.reference_dispatch {
            return Err(ConfigError::DurableWithReferenceDispatch);
        }
        if c.karma_threshold == 0 {
            return Err(ConfigError::ZeroKarmaThreshold);
        }
        if c.serialize_threshold == 0 {
            return Err(ConfigError::ZeroSerializeThreshold);
        }
        if c.karma_threshold >= c.serialize_threshold {
            return Err(ConfigError::UnorderedEscalationThresholds(
                c.karma_threshold,
                c.serialize_threshold,
            ));
        }
        if let Some(plan) = &c.chaos {
            if plan.period == 0 {
                return Err(ConfigError::ZeroChaosPeriod);
            }
            let shares = plan.yield_share + plan.preempt_share;
            if shares > 100 {
                return Err(ConfigError::ChaosSharesTooLarge(shares));
            }
        }
        Ok(())
    }

    /// Default configuration with the given barrier mode.
    pub fn with_mode(mode: Mode) -> TxConfig {
        TxConfig {
            mode,
            ..TxConfig::default()
        }
    }

    /// The runtime configuration used in most of the paper's figures:
    /// tree-based log, full scope.
    pub fn runtime_tree_full() -> TxConfig {
        TxConfig::with_mode(Mode::Runtime {
            log: LogKind::Tree,
            scope: CheckScope::FULL,
        })
    }

    /// The canonical nursery configuration (ISSUE 4): the same tree-based
    /// runtime analysis with per-transaction nursery allocation — the
    /// tree serves as the fallback log for overflow/demoted/large blocks.
    /// The single source of truth for every benchmark/test/example that
    /// compares "nursery on" against [`TxConfig::runtime_tree_full`].
    pub fn runtime_tree_nursery() -> TxConfig {
        let mut cfg = TxConfig::runtime_tree_full();
        cfg.nursery = true;
        cfg
    }

    /// Display label: the mode label, plus `+nursery` / `+durable`
    /// suffixes when those features are active (used by experiment tables
    /// and reports).
    pub fn label(&self) -> String {
        let mut l = self.mode.label();
        let mut suffix = String::new();
        if self.nursery {
            suffix.push_str("+nursery");
        }
        if self.durable {
            suffix.push_str("+durable");
        }
        if !suffix.is_empty() {
            match l.find(" (") {
                Some(i) => l.insert_str(i, &suffix),
                None => l.push_str(&suffix),
            }
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(Mode::Baseline.label(), "baseline");
        assert_eq!(
            Mode::Runtime {
                log: LogKind::Tree,
                scope: CheckScope::FULL
            }
            .label(),
            "runtime-tree (r+w/stack+heap)"
        );
        assert_eq!(CheckScope::WRITES_HEAP.label(), "w/heap");
        assert_eq!(Mode::Compiler.label(), "compiler");
        assert_eq!(Mode::CompilerInterproc.label(), "compiler-interproc");
    }

    #[test]
    fn default_is_baseline() {
        let c = TxConfig::default();
        assert_eq!(c.mode, Mode::Baseline);
        assert!(!c.annotations);
        assert!(!c.classify);
        assert!(!c.nursery);
    }

    #[test]
    fn validate_rejects_each_inconsistent_combination() {
        let d = TxConfig::default();
        // The presets validate.
        for ok in [
            d,
            TxConfig::runtime_tree_full(),
            TxConfig::runtime_tree_nursery(),
        ] {
            assert_eq!(ok.validate(), Ok(()));
        }

        // Nursery without a backing log is rejected for every non-runtime
        // mode.
        for mode in [Mode::Baseline, Mode::Compiler, Mode::CompilerInterproc] {
            let c = TxConfig {
                nursery: true,
                ..TxConfig::with_mode(mode)
            };
            assert_eq!(c.validate(), Err(ConfigError::NurseryWithoutBackingLog));
        }

        // Range checks.
        let c = TxConfig { orec_log2: 2, ..d };
        assert_eq!(c.validate(), Err(ConfigError::OrecLog2OutOfRange(2)));
        let c = TxConfig { orec_log2: 30, ..d };
        assert_eq!(c.validate(), Err(ConfigError::OrecLog2OutOfRange(30)));
        let c = TxConfig { spin_tries: 0, ..d };
        assert_eq!(c.validate(), Err(ConfigError::ZeroSpinTries));

        // The reference pipeline validates on its own.
        let c = TxConfig {
            reference_dispatch: true,
            ..d
        };
        assert_eq!(c.validate(), Ok(()));

        // Durable mode: the reference-dispatch oracle cannot run with the
        // durable commit hook; durable composes with the nursery.
        let c = TxConfig {
            durable: true,
            reference_dispatch: true,
            ..d
        };
        assert_eq!(c.validate(), Err(ConfigError::DurableWithReferenceDispatch));
        let c = TxConfig {
            durable: true,
            ..TxConfig::runtime_tree_nursery()
        };
        assert_eq!(c.validate(), Ok(()));
        assert!(!d.durable);

        // Contention-manager knobs: zero budgets are rejected, and the
        // escalation thresholds must be ordered (karma strictly below
        // serialize — the ladder passes through the karma tier first).
        let c = TxConfig {
            karma_threshold: 0,
            ..d
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroKarmaThreshold));
        let c = TxConfig {
            karma_threshold: 1,
            serialize_threshold: 0,
            ..d
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroSerializeThreshold));
        for (k, s) in [(64, 64), (100, 10)] {
            let c = TxConfig {
                karma_threshold: k,
                serialize_threshold: s,
                ..d
            };
            assert_eq!(
                c.validate(),
                Err(ConfigError::UnorderedEscalationThresholds(k, s))
            );
        }
        let c = TxConfig {
            karma_threshold: 4,
            serialize_threshold: 32,
            ..d
        };
        assert_eq!(c.validate(), Ok(()));

        // Chaos plans: the injection period must be at least 1 and the
        // delay-kind shares are percentages.
        let mut plan = ChaosPlan::all(7, 0);
        let c = TxConfig {
            chaos: Some(plan),
            ..d
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroChaosPeriod));
        plan.period = 4;
        plan.yield_share = 70;
        plan.preempt_share = 40;
        let c = TxConfig {
            chaos: Some(plan),
            ..d
        };
        assert_eq!(c.validate(), Err(ConfigError::ChaosSharesTooLarge(110)));
        let c = TxConfig {
            chaos: Some(ChaosPlan::all(7, 4)),
            ..d
        };
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(d.chaos, None);

        // Errors render human-readable messages (runtime construction
        // panics with them).
        let msg = format!("{}", ConfigError::NurseryWithoutBackingLog);
        assert!(msg.contains("backing allocation log"), "{msg}");
        let msg = format!("{}", ConfigError::DurableWithReferenceDispatch);
        assert!(msg.contains("reference_dispatch"), "{msg}");
        let msg = format!("{}", ConfigError::UnorderedEscalationThresholds(9, 3));
        assert!(
            msg.contains("karma_threshold 9") && msg.contains("serialize_threshold 3"),
            "{msg}"
        );
        let msg = format!("{}", ConfigError::ChaosSharesTooLarge(120));
        assert!(msg.contains("120"), "{msg}");

        // Every remaining knob validates.
        let c = TxConfig {
            annotations: true,
            classify: true,
            spin_tries: 7,
            reference_dispatch: true,
            ..d
        };
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn nursery_labels_and_activation() {
        let c = TxConfig::runtime_tree_nursery();
        assert_eq!(c.label(), "runtime-tree+nursery (r+w/stack+heap)");
        assert_eq!(
            TxConfig::runtime_tree_full().label(),
            "runtime-tree (r+w/stack+heap)"
        );
    }

    #[test]
    fn durable_labels() {
        let mut c = TxConfig::runtime_tree_nursery();
        c.durable = true;
        assert_eq!(c.label(), "runtime-tree+nursery+durable (r+w/stack+heap)");
        let mut b = TxConfig::default();
        b.durable = true;
        assert_eq!(b.label(), "baseline+durable");
    }
}
