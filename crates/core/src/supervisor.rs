//! The run supervisor: graceful degradation under memory pressure.
//!
//! [`Supervisor::mine`] wraps a mining run in an escalation ladder that
//! turns [`CfpError::MemoryExhausted`] (and watchdog timeouts) into
//! completed, *exact* runs wherever possible. The ladder is a list of
//! executor configurations tried in order, each at most once per run:
//!
//! 1. **retry** — run again with the budget enforced by one shared
//!    [`BudgetPool`] and compact-on-pressure armed, so a denied
//!    allocation first reclaims the arena's trailing free chunks.
//! 2. **degrade** — downshift from parallel to one worker (one
//!    conditional tree live instead of `threads`), same pool and
//!    compaction. Skipped when the run had one worker already.
//! 3. **partition** / **spill** — the partitioned rung: split the
//!    input into `k` item-range projections ([`cfp_data::partition`]),
//!    build and convert each under the budget,
//!    mine it with one worker, and merge the per-range results into the
//!    exact global result. A range that still exhausts the budget is
//!    split in two and requeued; a single-item range that fails ends the
//!    run. The policy picks the partition store: `partition` keeps each
//!    converted array in memory and mines it at once; `spill` writes
//!    every array to a crash-safe, checksummed spill file and mines them
//!    back one at a time through zero-copy views, so the budget covers
//!    only one partition's transient structures at a time.
//!
//! Attempts share the source's one pass 1; an input failure is final.
//!
//! Output is buffered per attempt and flushed to the caller's sink only
//! when an attempt succeeds, so the caller never sees a partial result
//! stream mixed into a complete one. Every rung emits a
//! [`Phase::Recover`] span and a [`RungReport`]; the CLI serialises the
//! collected [`RecoveryReport`] as the `degradation` section of the
//! `cfp-profile/2` run report.
//!
//! Exactness of the partitioned rung follows Grahne & Zhu's range
//! projection argument, spelled out in [`cfp_data::partition`]: every
//! frequent itemset has exactly one maximal item under the global
//! support-descending recode order, the projection for that item's range
//! preserves the itemset's full global support, and a max-item filter
//! keeps each itemset in exactly one range's output. The on-disk detour
//! of the spill store is a checksummed identity transformation of each
//! partition's array.

use crate::exec::{prepare, Exec, Prepared, Reconcile};
use crate::growth::{ArrayCharge, MineOpts, TopKState};
use crate::spill::{load_spill_array, write_spill_array, CondSpill};
use cfp_data::miner::CollectSink;
use cfp_data::partition::{project, ranges_by_mass};
use cfp_data::spill::SpillDir;
use cfp_data::{CfpError, Item, ItemRecoder, ItemsetSink, MineStats, OutputMode, Source};
use cfp_memman::{ArenaOptions, BudgetPool, Component};
use cfp_trace::{span, Phase};
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// How far the supervisor may escalate when a run fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryPolicy {
    /// No recovery: the first failure is final (classic behaviour).
    Off,
    /// Rung 1 only: compact-and-retry under a shared pool.
    Retry,
    /// Rungs 1–2: retry, then downshift to one worker.
    Degrade,
    /// Rungs 1–3: retry, degrade, then partitioned mining in memory.
    Partition,
    /// Rungs 1–3 with the partitioned rung out of core: partition arrays
    /// go through spill files and are mined back one at a time through
    /// zero-copy views. For datasets whose projections still crowd the
    /// budget in RAM.
    Spill,
}

impl RecoveryPolicy {
    /// The policy's CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::Off => "off",
            RecoveryPolicy::Retry => "retry",
            RecoveryPolicy::Degrade => "degrade",
            RecoveryPolicy::Partition => "partition",
            RecoveryPolicy::Spill => "spill",
        }
    }
}

impl std::str::FromStr for RecoveryPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(RecoveryPolicy::Off),
            "retry" => Ok(RecoveryPolicy::Retry),
            "degrade" => Ok(RecoveryPolicy::Degrade),
            "partition" => Ok(RecoveryPolicy::Partition),
            "spill" => Ok(RecoveryPolicy::Spill),
            other => Err(format!(
                "unknown recovery policy '{other}' (off|retry|degrade|partition|spill)"
            )),
        }
    }
}

/// One rung's outcome within a recovery ladder.
#[derive(Clone, Debug)]
pub struct RungReport {
    /// Rung name: `"retry"`, `"degrade"`, `"partition"`, or `"spill"`.
    pub rung: &'static str,
    /// Whether this rung completed the run.
    pub succeeded: bool,
    /// Bytes reclaimed by arena compaction during the rung.
    pub reclaimed_bytes: u64,
    /// Number of partitions mined (the partition and spill rungs; 0 for
    /// the others).
    pub partitions: u64,
    /// The rung's failure, when it failed.
    pub error: Option<String>,
}

/// What the supervisor did to finish (or fail) a run.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// The configured escalation policy.
    pub policy: String,
    /// The rungs attempted, in order. Empty for a healthy first attempt.
    pub rungs: Vec<RungReport>,
    /// Whether a rung (rather than the first attempt) produced the result.
    pub recovered: bool,
    /// Partitions in the final successful configuration (0 = monolithic).
    pub final_partitions: u64,
    /// Per-partition pool peaks of the partition or spill rung, in
    /// mining order.
    pub partition_peaks: Vec<u64>,
}

/// Supervises a mining run with an escalation ladder (see the module
/// docs). Construct with the same knobs as
/// [`ParallelCfpGrowthMiner`](crate::ParallelCfpGrowthMiner) plus a
/// [`RecoveryPolicy`].
#[derive(Clone, Debug)]
pub struct Supervisor {
    /// Worker threads for the first attempt and the retry rung.
    pub threads: usize,
    /// Byte budget for the whole run; `None` disables the memory rungs'
    /// reason to exist but the ladder still handles worker failures.
    pub mem_budget: Option<u64>,
    /// The escalation policy.
    pub policy: RecoveryPolicy,
    /// Watchdog limit for parallel attempts (see
    /// [`ParallelCfpGrowthMiner::worker_timeout`](crate::ParallelCfpGrowthMiner::worker_timeout)).
    pub worker_timeout: Option<Duration>,
    /// Parent directory for the spill store's scratch files; the system
    /// temp directory when unset. A uniquely-named subdirectory is
    /// created per run and removed on every exit path.
    pub spill_dir: Option<PathBuf>,
    /// Cooperative cancellation, polled at every rung and partition
    /// boundary and threaded into each rung's executor. A fired token
    /// stops the ladder with [`CfpError::Interrupted`] — recovery rungs
    /// never escalate past a cancellation, because the interruption is
    /// not a failure the ladder could repair.
    pub cancel: Option<cfp_fault::CancelToken>,
    /// What every rung emits (all, closed, maximal, or top-k). The
    /// partitioned rung stays exact in condensed modes by mining ranges
    /// in descending item order and reconciling each partition's
    /// locally-condensed output against a global subsumption index; for
    /// top-k it mines everything and selects the winners at the end.
    pub output: OutputMode,
}

/// One step of the recovery ladder.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The classic run.
    First,
    /// Rung 1: shared pool, compaction armed.
    Retry,
    /// Rung 2: one worker.
    Degrade,
    /// Rung 3: partitioned mining through the policy's store.
    Partitioned,
}

/// Where the partitioned rung's range queue starts.
enum Start {
    /// Split the item domain into this many support-mass-balanced ranges.
    Split(usize),
    /// Continue a previous run: `done` partitions completed, these
    /// ranges left to mine, in order.
    Resume { done: u64, remaining: Vec<(u32, u32)> },
}

/// What one attempt did besides its result.
#[derive(Default)]
struct Tally {
    /// Bytes reclaimed by arena compaction.
    reclaimed: u64,
    /// Pool peak of every partition mined, in order.
    peaks: Vec<u64>,
}

impl Supervisor {
    /// A supervisor with the given policy and defaults for the rest.
    pub fn new(policy: RecoveryPolicy) -> Self {
        Supervisor {
            threads: 1,
            mem_budget: None,
            policy,
            worker_timeout: None,
            spill_dir: None,
            cancel: None,
            output: OutputMode::default(),
        }
    }

    /// Whether the run's cancel token (if any) has fired.
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// The steps this policy allows, in order.
    fn ladder(&self) -> Vec<Step> {
        let mut steps = vec![Step::First];
        if self.policy >= RecoveryPolicy::Retry {
            steps.push(Step::Retry);
        }
        // Degrading a one-worker run would repeat the retry exactly.
        if self.policy >= RecoveryPolicy::Degrade && self.threads > 1 {
            steps.push(Step::Degrade);
        }
        if self.policy >= RecoveryPolicy::Partition {
            steps.push(Step::Partitioned);
        }
        steps
    }

    /// Mines `source`, escalating through the recovery ladder on failure.
    ///
    /// Returns the mining result *and* the recovery report — the report
    /// survives failure so callers can still explain what was attempted.
    /// The caller's sink receives either the complete result of the
    /// winning attempt or nothing.
    pub fn mine<'a>(
        &self,
        source: impl Into<Source<'a>>,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
    ) -> (Result<MineStats, CfpError>, RecoveryReport) {
        let source = source.into();
        let mut report =
            RecoveryReport { policy: self.policy.name().to_string(), ..Default::default() };
        let mut cause: Option<CfpError> = None;
        for step in self.ladder() {
            match cause {
                Some(CfpError::Interrupted) => return (Err(CfpError::Interrupted), report),
                Some(_) if self.cancelled() => return (Err(CfpError::Interrupted), report),
                Some(e @ (CfpError::Io(_) | CfpError::Parse { .. })) => return (Err(e), report),
                _ => {}
            }
            // Size the first split from the failure itself: aim for
            // projections of at most half the budget; otherwise 2.
            let k0 = match cause {
                Some(CfpError::MemoryExhausted { footprint, limit, .. }) if limit > 0 => {
                    (2 * footprint).div_ceil(limit).max(2) as usize
                }
                _ => 2,
            };
            let mut buf = CollectSink::new();
            match self.run_step(step, &source, min_support, Start::Split(k0), &mut buf, &mut report)
            {
                Ok(stats) => {
                    for (itemset, support) in &buf.itemsets {
                        sink.emit(itemset, *support);
                    }
                    return (Ok(stats), report);
                }
                Err(e) => cause = Some(e),
            }
        }
        (Err(cause.expect("the ladder has a first step")), report)
    }

    /// Runs the partitioned rung directly, without first climbing the
    /// monolithic rungs — for callers that already know the dataset must
    /// be partitioned, and for checkpointed runs. The store follows the
    /// policy: on disk for [`RecoveryPolicy::Spill`], in memory
    /// otherwise. Output and exactness match a [`mine`](Supervisor::mine)
    /// run whose ladder ends in the same rung.
    ///
    /// Output is **streamed** to `sink` partition by partition, and after
    /// each completed partition the sink receives a
    /// [`cfp_data::MineProgress::SpillParts`] notification carrying the
    /// global completed-partition count and the not-yet-mined `(lo, hi)`
    /// ranges in processing order — exactly the state a checkpoint
    /// manifest needs. A partition that fails and is halved never reaches
    /// the sink, so the stream always sits at a partition watermark.
    ///
    /// `resume` replays a previous run's final notification: `done`
    /// completed partitions (counted into subsequent notifications, never
    /// re-mined) and the surviving ranges to mine, in order. Because
    /// ranges are re-projected from the source, no spill files need to
    /// have survived the crash. Passing `None` starts a fresh run.
    pub fn mine_out_of_core<'a>(
        &self,
        source: impl Into<Source<'a>>,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
        resume: Option<(u64, Vec<(u32, u32)>)>,
    ) -> (Result<MineStats, CfpError>, RecoveryReport) {
        // Resuming mid-run would start the reconcile index (or top-k
        // heap) without the already-emitted partitions' contributions;
        // the CLI restricts checkpointing of condensed/top-k runs to
        // `--recover=off` so this path is unreachable from it.
        assert!(
            resume.is_none() || self.output == OutputMode::All,
            "resumable out-of-core mining supports only OutputMode::All, not {}",
            self.output
        );
        let start = match resume {
            Some((done, remaining)) => Start::Resume { done, remaining },
            None => Start::Split(2),
        };
        let mut report =
            RecoveryReport { policy: self.policy.name().to_string(), ..Default::default() };
        let source = source.into();
        let result =
            self.run_step(Step::Partitioned, &source, min_support, start, sink, &mut report);
        (result, report)
    }

    /// Runs one ladder step into `sink` and records it in `report`:
    /// every step but the first is a rung, announced in the trace and
    /// reported.
    fn run_step(
        &self,
        step: Step,
        source: &Source<'_>,
        min_support: u64,
        start: Start,
        sink: &mut dyn ItemsetSink,
        report: &mut RecoveryReport,
    ) -> Result<MineStats, CfpError> {
        let rung = match step {
            Step::First => None,
            Step::Retry => Some(("retry", cfp_trace::Rung::Retry)),
            Step::Degrade => Some(("degrade", cfp_trace::Rung::Degrade)),
            Step::Partitioned if self.policy == RecoveryPolicy::Spill => {
                Some(("spill", cfp_trace::Rung::Spill))
            }
            Step::Partitioned => Some(("partition", cfp_trace::Rung::Partition)),
        };
        let _s = rung.map(|_| span(Phase::Recover));
        if let Some((_, event)) = rung {
            if cfp_trace::enabled() {
                cfp_trace::counters::CORE_RECOVERY_RUNGS.inc();
                if cfp_trace::events::capturing() {
                    cfp_trace::events::record(cfp_trace::EventKind::RecoveryRung(event));
                }
            }
        }
        let mut tally = Tally::default();
        let result = match step {
            Step::Partitioned => self.partitioned(source, min_support, start, sink, &mut tally),
            _ => self.monolithic(step, source, min_support, sink, &mut tally),
        };
        if let Some((name, _)) = rung {
            report.rungs.push(RungReport {
                rung: name,
                succeeded: result.is_ok(),
                reclaimed_bytes: tally.reclaimed,
                partitions: tally.peaks.len() as u64,
                error: result.as_ref().err().map(ToString::to_string),
            });
            if result.is_ok() {
                report.recovered = true;
                report.final_partitions = tally.peaks.len() as u64;
                report.partition_peaks = tally.peaks;
            }
        }
        result
    }

    /// One monolithic attempt: the first run, the retry or the degrade.
    fn monolithic(
        &self,
        step: Step,
        source: &Source<'_>,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
        tally: &mut Tally,
    ) -> Result<MineStats, CfpError> {
        let pool = self.mem_budget.map(BudgetPool::new);
        let exec = Exec {
            workers: if step == Step::Degrade { 1 } else { self.threads },
            single_path_opt: true,
            tree_budget: None,
            worker_timeout: self.worker_timeout,
            opts: MineOpts {
                pool: pool.clone(),
                compact_on_pressure: step != Step::First,
                cancel: self.cancel.clone(),
                output: self.output,
                ..Default::default()
            },
        };
        let result = exec.run(source, min_support, sink);
        tally.reclaimed = pool.map_or(0, |p| p.compact_reclaimed());
        result
    }

    /// The partitioned rung, streaming into `sink`: project each queued
    /// item range, build and convert it under a fresh budget pool, hand
    /// the array to the store, and mine stored partitions one at a time
    /// with one worker through a max-item range filter. A range is
    /// projected by one pass over the source; the halves of a range whose
    /// build exhausted the budget are cut from its projection instead.
    fn partitioned(
        &self,
        source: &Source<'_>,
        min_support: u64,
        start: Start,
        sink: &mut dyn ItemsetSink,
        tally: &mut Tally,
    ) -> Result<MineStats, CfpError> {
        let counts = source.counts()?;
        let recoder = counts.recoder(min_support);
        let n = recoder.num_items();
        if n == 0 {
            // Nothing frequent: the empty result is exact.
            return Ok(MineStats::default());
        }
        // Condensed modes mine locally condensed partitions in
        // descending range order — the one-worker top-item order — and
        // reconcile across partitions; top-k mines every partition in
        // full and selects the winners at the end.
        let condensed = self.output.is_condensed();
        let part_output = match self.output {
            OutputMode::TopK(_) => OutputMode::All,
            other => other,
        };
        let mut reconcile = Reconcile::new(self.output);
        let topk = match self.output {
            OutputMode::TopK(k) => Some(TopKState::new(k)),
            _ => None,
        };
        let mut store = Store::open(self.policy, &self.spill_dir)?;
        // Conditional arrays above a quarter of the budget follow the
        // partitions to disk; without a budget nothing is oversized.
        let cond_spill = match &store {
            Store::Disk { dir, .. } => {
                self.mem_budget.map(|b| CondSpill::new(Arc::clone(dir), (b / 4).max(1)))
            }
            Store::Memory => None,
        };
        let (done0, ranges) = match start {
            Start::Split(k) => {
                let mut ranges = ranges_by_mass(&recoder, k.min(n));
                if condensed {
                    ranges.reverse();
                }
                (0, ranges)
            }
            Start::Resume { done, remaining } => (done, remaining),
        };
        let mut ranges: VecDeque<Range> =
            ranges.into_iter().map(|(lo, hi)| (lo, hi, None)).collect();
        let mut parts: VecDeque<Part> = VecDeque::new();
        let mut stats = MineStats { scan_time: counts.elapsed, ..Default::default() };
        let mut emitted = 0u64;
        loop {
            // Build: project, build and convert queued ranges into the
            // store. The memory store hands each array straight to the
            // mine loop below; the disk store spills them all first.
            while let Some((lo, hi, parent)) = ranges.pop_front() {
                if self.cancelled() {
                    return Err(CfpError::Interrupted);
                }
                let proj_t0 = cfp_trace::hist::maybe_now();
                let pool = self.mem_budget.map(BudgetPool::new);
                let arena = ArenaOptions {
                    budget: None,
                    pool: pool.clone(),
                    compact_on_pressure: true,
                    component: Component::BuildTree,
                };
                let proj = project(parent.as_ref().unwrap_or(source), &recoder, lo, hi)?;
                drop(parent);
                match prepare(&proj, min_support, arena, &mut stats) {
                    Ok(prepared) => {
                        cfp_trace::hist::record_since(
                            &cfp_trace::hist::CORE_SPILL_PROJECT_NANOS,
                            proj_t0,
                        );
                        parts.push_back(Part { lo, hi, data: store.put(prepared)?, pool });
                        if matches!(store, Store::Memory) {
                            break;
                        }
                    }
                    Err(CfpError::MemoryExhausted { .. }) if hi - lo > 1 => {
                        // Too big even projected: split it in place.
                        tally.reclaimed += pool.map_or(0, |p| p.compact_reclaimed());
                        split(&mut ranges, (lo, hi, Some(proj)), condensed);
                    }
                    Err(e) => return Err(e),
                }
            }
            if condensed {
                // Highest ranges first: the one-worker top-item order the
                // reconcile relies on. (Halves of a split partition were
                // built behind the partitions still stored.)
                parts.make_contiguous().sort_by_key(|p| Reverse(p.lo));
            }
            // Mine: each stored partition, one at a time, through a
            // per-partition buffer, so a halved failure simply drops its
            // partial output and the sink only ever sees whole
            // partitions.
            while let Some(Part { lo, hi, data, pool }) = parts.pop_front() {
                if self.cancelled() {
                    return Err(CfpError::Interrupted);
                }
                let exec = Exec {
                    workers: 1,
                    single_path_opt: true,
                    tree_budget: None,
                    worker_timeout: None,
                    opts: MineOpts {
                        pool: pool.clone(),
                        compact_on_pressure: true,
                        cond_spill: cond_spill.clone(),
                        cancel: self.cancel.clone(),
                        resume_skip: 0,
                        output: part_output,
                    },
                };
                let mut buf = CollectSink::new();
                let mine_t0 = cfp_trace::hist::maybe_now();
                let mined = data.load(&pool).and_then(|prepared| {
                    let mut filter = RangeFilterSink { inner: &mut buf, recoder: &recoder, lo, hi };
                    exec.mine(prepared, min_support, &mut filter, MineStats::default())
                });
                cfp_trace::hist::record_since(&cfp_trace::hist::CORE_SPILL_MINE_NANOS, mine_t0);
                tally.reclaimed += pool.as_ref().map_or(0, |p| p.compact_reclaimed());
                match mined {
                    Ok(s) => {
                        stats.mine_time += s.mine_time;
                        tally.peaks.push(pool.map_or(s.peak_bytes, |p| p.peak()));
                        if let Store::Disk { .. } = store {
                            if cfp_trace::enabled() {
                                cfp_trace::counters::CORE_SPILL_PARTS_DONE.inc();
                            }
                        }
                        if let Some(rec) = &mut reconcile {
                            // Drop candidates subsumed by an earlier
                            // (higher-range) partition; survivors join
                            // the index for the partitions below.
                            buf.itemsets.retain(|(set, support)| rec.admit(set, *support));
                        }
                        if let Some(state) = &topk {
                            for (set, support) in buf.itemsets.drain(..) {
                                state.offer(&set, support);
                            }
                        }
                        emitted += buf.itemsets.len() as u64;
                        for (itemset, support) in &buf.itemsets {
                            sink.emit(itemset, *support);
                        }
                        let remaining: Vec<(u32, u32)> = parts
                            .iter()
                            .map(|p| (p.lo, p.hi))
                            .chain(ranges.iter().map(|&(lo, hi, _)| (lo, hi)))
                            .collect();
                        let emit_t0 = cfp_trace::hist::maybe_now();
                        let sent = sink.progress(cfp_data::MineProgress::SpillParts {
                            done: done0 + tally.peaks.len() as u64,
                            remaining: &remaining,
                        });
                        cfp_trace::hist::record_since(&cfp_trace::hist::CORE_EMIT_NANOS, emit_t0);
                        sent?;
                    }
                    Err(CfpError::MemoryExhausted { .. }) if hi - lo > 1 => {
                        // Conditional structures still too big: drop the
                        // partial output with its buffer and split the
                        // range; its halves are projected and built next.
                        split(&mut ranges, (lo, hi, None), condensed);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if ranges.is_empty() && parts.is_empty() {
                break;
            }
        }
        if let Some(state) = &topk {
            let winners = state.drain_sorted();
            emitted += winners.len() as u64;
            for (set, support) in &winners {
                sink.emit(set, *support);
            }
        }
        if cfp_trace::enabled() {
            cfp_trace::counters::CORE_PARTITIONS.record(tally.peaks.len() as u64);
        }
        stats.itemsets = emitted;
        stats.peak_bytes = tally.peaks.iter().copied().max().unwrap_or(0);
        stats.worker_peaks = tally.peaks.clone();
        Ok(stats)
    }
}

/// A queued item range `[lo, hi)` and the projection to cut it from, if any.
type Range = (u32, u32, Option<Source<'static>>);

/// Splits a range too big for the budget in place: its halves go to the
/// front of the queue, the higher one first when the output is
/// condensed (`descending`).
fn split(ranges: &mut VecDeque<Range>, (lo, hi, from): Range, descending: bool) {
    let mid = lo + (hi - lo) / 2;
    let (first, second) = if descending { ((mid, hi), (lo, mid)) } else { ((lo, mid), (mid, hi)) };
    ranges.push_front((second.0, second.1, from.clone()));
    ranges.push_front((first.0, first.1, from));
}

/// Where the partitioned rung keeps converted partition arrays until
/// they are mined.
enum Store {
    /// In memory: each array is mined as soon as it is converted.
    Memory,
    /// On disk: each array round-trips through a checksummed CFPA spill
    /// file in the run's [`SpillDir`], removed on every exit path.
    Disk {
        dir: Arc<SpillDir>,
        /// Files written so far (names the next one).
        written: u64,
    },
}

/// A stored partition's array.
enum Stored {
    /// The converted array itself.
    Memory(Prepared),
    /// A spill file plus the item mapping captured at build time (the
    /// source is not consulted again to mine it).
    Disk { dir: Arc<SpillDir>, name: String, globals: Arc<[Item]> },
}

/// One partition between its build and its mining.
struct Part {
    /// Global recoded item range `[lo, hi)` the partition covers.
    lo: u32,
    /// Exclusive upper bound of the range.
    hi: u32,
    data: Stored,
    /// The partition's budget pool, shared by its build and its mining.
    pool: Option<BudgetPool>,
}

impl Store {
    /// The store `policy` selects; the disk store creates its directory
    /// under `parent` (the system temp directory when unset).
    fn open(policy: RecoveryPolicy, parent: &Option<PathBuf>) -> Result<Store, CfpError> {
        if policy != RecoveryPolicy::Spill {
            return Ok(Store::Memory);
        }
        let parent = parent.clone().unwrap_or_else(std::env::temp_dir);
        match SpillDir::create(&parent) {
            Ok(dir) => Ok(Store::Disk { dir: Arc::new(dir), written: 0 }),
            Err(e) => Err(CfpError::Spill {
                op: "write",
                path: parent.display().to_string(),
                message: e.to_string(),
            }),
        }
    }

    /// Keeps a converted partition until it is mined.
    fn put(&mut self, prepared: Prepared) -> Result<Stored, CfpError> {
        match self {
            Store::Memory => Ok(Stored::Memory(prepared)),
            Store::Disk { dir, written } => {
                let name = format!("p{written}.cfpa");
                *written += 1;
                write_spill_array(&dir.file(&name), &prepared.array)?;
                if cfp_trace::enabled() {
                    // Live denominator for the progress heartbeat's
                    // `spill k/n` (grows when a partition is halved).
                    cfp_trace::counters::CORE_SPILL_PARTITIONS.record(*written);
                }
                Ok(Stored::Disk { dir: Arc::clone(dir), name, globals: prepared.globals })
            }
        }
    }
}

impl Stored {
    /// Takes a stored partition back for mining. A spill file is read
    /// as one shared buffer — attributed to `pool` as external
    /// [`Component::Spill`] memory — and removed.
    fn load(self, pool: &Option<BudgetPool>) -> Result<Prepared, CfpError> {
        match self {
            Stored::Memory(prepared) => Ok(prepared),
            Stored::Disk { dir, name, globals } => {
                let loaded = load_spill_array(&dir.file(&name));
                dir.remove(&name);
                let (array, bytes) = loaded?;
                let charge = ArrayCharge::with_component(pool.clone(), Component::Spill, bytes);
                Ok(Prepared::new(Arc::new(array), globals, charge))
            }
        }
    }
}

/// Forwards only itemsets whose *maximal* global-recoded item falls in
/// `[lo, hi)` — the disjointness filter of the partitioned rung.
struct RangeFilterSink<'a> {
    inner: &'a mut CollectSink,
    recoder: &'a ItemRecoder,
    lo: u32,
    hi: u32,
}

impl ItemsetSink for RangeFilterSink<'_> {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        let max = itemset.iter().filter_map(|&it| self.recoder.recode(it)).max();
        if let Some(m) = max {
            if self.lo <= m && m < self.hi {
                self.inner.emit(itemset, support);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CfpGrowthMiner;
    use cfp_data::Miner;
    use cfp_data::TransactionDb;

    fn textbook() -> TransactionDb {
        TransactionDb::from_rows(&[
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ])
    }

    fn reference(db: &TransactionDb, minsup: u64) -> Vec<(Vec<Item>, u64)> {
        let mut sink = CollectSink::new();
        CfpGrowthMiner::new().mine(db, minsup, &mut sink);
        sink.into_sorted()
    }

    #[test]
    fn healthy_run_reports_no_rungs() {
        let db = textbook();
        let sup = Supervisor::new(RecoveryPolicy::Partition);
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, 2, &mut sink);
        r.expect("healthy run");
        assert!(report.rungs.is_empty());
        assert!(!report.recovered);
        assert_eq!(sink.into_sorted(), reference(&db, 2));
    }

    #[test]
    fn budget_too_small_for_monolithic_tree_recovers_via_partitioning() {
        let db = textbook();
        // Find the monolithic tree's charge, then budget below it: the
        // first attempt, the retry, and the degrade rung all fail in the
        // build phase; partitioned projections fit.
        let (_, tree) = crate::growth::try_build_tree(&db, 2, None).unwrap();
        let budget = tree.arena_footprint() - 10;
        drop(tree);

        let sup = Supervisor {
            threads: 2,
            mem_budget: Some(budget),
            ..Supervisor::new(RecoveryPolicy::Partition)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, 2, &mut sink);
        let stats = r.expect("partitioning must recover the run");
        assert!(report.recovered);
        assert_eq!(
            report.rungs.iter().map(|r| r.rung).collect::<Vec<_>>(),
            vec!["retry", "degrade", "partition"],
            "each rung attempted exactly once, in order"
        );
        assert!(report.final_partitions >= 2);
        for (i, peak) in report.partition_peaks.iter().enumerate() {
            assert!(peak <= &budget, "partition {i} peak {peak} over budget {budget}");
        }
        let got = sink.into_sorted();
        assert_eq!(got, reference(&db, 2), "partitioned result must be exact");
        assert_eq!(stats.itemsets, got.len() as u64);
    }

    #[test]
    fn policy_off_returns_the_original_failure_untouched() {
        let db = textbook();
        let sup = Supervisor { mem_budget: Some(16), ..Supervisor::new(RecoveryPolicy::Off) };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, 2, &mut sink);
        let err = r.expect_err("16 bytes cannot hold the tree");
        assert_eq!(err.exit_code(), 4);
        assert!(report.rungs.is_empty());
        assert!(sink.into_sorted().is_empty(), "no partial output on failure");
    }

    #[test]
    fn retry_policy_stops_after_one_rung() {
        let db = textbook();
        let sup = Supervisor { mem_budget: Some(16), ..Supervisor::new(RecoveryPolicy::Retry) };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, 2, &mut sink);
        assert!(r.is_err(), "16 bytes stays impossible after compaction");
        assert_eq!(report.rungs.len(), 1);
        assert_eq!(report.rungs[0].rung, "retry");
        assert!(!report.rungs[0].succeeded);
    }

    #[test]
    fn partitioned_equivalence_on_a_block_structured_db() {
        // Three nearly-disjoint item blocks: projections are about a
        // third of the monolithic tree, so a budget between the two
        // sizes forces exactly the partition rung to succeed.
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(4242);
        let mut db = TransactionDb::new();
        for block in 0u32..3 {
            for _ in 0..60 {
                let t: Vec<Item> =
                    (0..8).filter(|_| rng.gen_bool(0.6)).map(|i| block * 100 + i).collect();
                db.push(&t);
            }
        }
        let minsup = 3;
        let (_, tree) = crate::growth::try_build_tree(&db, minsup, None).unwrap();
        let mono = tree.arena_footprint();
        drop(tree);

        let budget = mono * 2 / 3;
        let sup = Supervisor {
            threads: 2,
            mem_budget: Some(budget),
            ..Supervisor::new(RecoveryPolicy::Partition)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, minsup, &mut sink);
        r.expect("block-structured db must partition cleanly");
        assert!(report.recovered);
        assert_eq!(report.rungs.last().unwrap().rung, "partition");
        for peak in &report.partition_peaks {
            assert!(peak <= &budget, "peak {peak} over budget {budget}");
        }
        assert_eq!(sink.into_sorted(), reference(&db, minsup));
    }

    fn spill_parent(tag: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("cfp-sup-spill-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn assert_clean(parent: &std::path::Path) {
        let leftovers = std::fs::read_dir(parent).map(|it| it.count()).unwrap_or(0);
        assert_eq!(leftovers, 0, "no stray spill state may survive the run");
        let _ = std::fs::remove_dir_all(parent);
    }

    #[test]
    fn spill_policy_recovers_out_of_core_on_a_block_structured_db() {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(4242);
        let mut db = TransactionDb::new();
        for block in 0u32..3 {
            for _ in 0..60 {
                let t: Vec<Item> =
                    (0..8).filter(|_| rng.gen_bool(0.6)).map(|i| block * 100 + i).collect();
                db.push(&t);
            }
        }
        let minsup = 3;
        let (_, tree) = crate::growth::try_build_tree(&db, minsup, None).unwrap();
        let mono = tree.arena_footprint();
        drop(tree);

        let parent = spill_parent("ladder");
        let sup = Supervisor {
            threads: 2,
            mem_budget: Some(mono * 2 / 3),
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, minsup, &mut sink);
        r.expect("the spill rung must recover the run");
        assert!(report.recovered);
        assert_eq!(
            report.rungs.iter().map(|r| r.rung).collect::<Vec<_>>(),
            vec!["retry", "degrade", "spill"],
            "the spill policy replaces the partition rung"
        );
        assert!(report.final_partitions >= 2);
        assert_eq!(sink.into_sorted(), reference(&db, minsup), "spilled result must be exact");
        assert_clean(&parent);
    }

    #[test]
    fn mine_out_of_core_matches_the_reference_on_the_textbook_db() {
        let db = textbook();
        let parent = spill_parent("direct");
        let sup = Supervisor {
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine_out_of_core(&db, 2, &mut sink, None);
        let stats = r.expect("out-of-core run");
        assert!(report.recovered);
        assert_eq!(report.rungs.len(), 1);
        assert_eq!(report.rungs[0].rung, "spill");
        assert!(report.final_partitions >= 2, "the rung must actually partition");
        let got = sink.into_sorted();
        assert_eq!(got, reference(&db, 2));
        assert_eq!(stats.itemsets, got.len() as u64);
        assert_clean(&parent);
    }

    #[test]
    fn mine_out_of_core_stays_under_a_sub_monolithic_budget() {
        let db = textbook();
        // Budget below the monolithic tree but above a single projection:
        // ranges that overrun it are halved and respilled until they fit.
        let (_, tree) = crate::growth::try_build_tree(&db, 2, None).unwrap();
        let budget = tree.arena_footprint() - 10;
        drop(tree);

        let parent = spill_parent("tiny");
        let sup = Supervisor {
            mem_budget: Some(budget),
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine_out_of_core(&db, 2, &mut sink, None);
        r.expect("halving must make every partition fit");
        for (i, peak) in report.partition_peaks.iter().enumerate() {
            assert!(peak <= &budget, "partition {i} peak {peak} over budget {budget}");
        }
        assert_eq!(sink.into_sorted(), reference(&db, 2));
        assert_clean(&parent);
    }

    #[test]
    fn mine_out_of_core_on_an_empty_db_is_exactly_empty() {
        let parent = spill_parent("empty");
        let sup = Supervisor {
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine_out_of_core(&TransactionDb::new(), 1, &mut sink, None);
        let stats = r.expect("empty run");
        assert_eq!(stats.itemsets, 0);
        assert_eq!(report.final_partitions, 0);
        assert!(sink.into_sorted().is_empty());
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn spill_policy_name_round_trips() {
        let p: RecoveryPolicy = "spill".parse().unwrap();
        assert_eq!(p, RecoveryPolicy::Spill);
        assert_eq!(p.name(), "spill");
        let err = "disk".parse::<RecoveryPolicy>().unwrap_err();
        assert!(err.contains("spill"), "the error must list the new policy: {err}");
    }

    fn block_db() -> TransactionDb {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(4242);
        let mut db = TransactionDb::new();
        for block in 0u32..3 {
            for _ in 0..60 {
                let t: Vec<Item> =
                    (0..8).filter(|_| rng.gen_bool(0.6)).map(|i| block * 100 + i).collect();
                db.push(&t);
            }
        }
        db
    }

    /// One recorded `SpillParts` notification: done, remaining ranges,
    /// itemsets emitted so far.
    type Mark = (u64, Vec<(u32, u32)>, usize);

    /// Streams into a collector while recording every `SpillParts`
    /// notification.
    struct MarkingSink {
        inner: CollectSink,
        marks: Vec<Mark>,
        cancel_after: Option<(u64, cfp_fault::CancelToken)>,
    }

    impl ItemsetSink for MarkingSink {
        fn emit(&mut self, itemset: &[Item], support: u64) {
            self.inner.emit(itemset, support);
        }

        fn progress(&mut self, p: cfp_data::MineProgress<'_>) -> Result<(), CfpError> {
            if let cfp_data::MineProgress::SpillParts { done, remaining } = p {
                self.marks.push((done, remaining.to_vec(), self.inner.itemsets.len()));
                if let Some((after, token)) = &self.cancel_after {
                    if done >= *after {
                        token.cancel();
                    }
                }
            }
            Ok(())
        }
    }

    #[test]
    fn a_fired_token_stops_the_ladder_without_escalation() {
        let db = textbook();
        let token = cfp_fault::CancelToken::new();
        token.cancel();
        let sup = Supervisor {
            mem_budget: Some(16),
            cancel: Some(token),
            ..Supervisor::new(RecoveryPolicy::Partition)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, 2, &mut sink);
        let err = r.expect_err("a cancelled run cannot complete");
        assert_eq!(err.exit_code(), 8, "interruption must win over recovery: {err}");
        assert!(report.rungs.is_empty(), "interruption must not climb the ladder");
        assert!(sink.into_sorted().is_empty());
    }

    #[test]
    fn streaming_spill_run_matches_the_buffered_one_mark_by_mark() {
        let db = block_db();
        let parent = spill_parent("stream");
        let sup = Supervisor {
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut sink =
            MarkingSink { inner: CollectSink::new(), marks: Vec::new(), cancel_after: None };
        let (r, report) = sup.mine_out_of_core(&db, 3, &mut sink, None);
        let stats = r.expect("streaming run");
        assert!(report.final_partitions >= 2);
        assert_eq!(stats.itemsets, sink.inner.itemsets.len() as u64);
        assert_eq!(
            sink.marks.len() as u64,
            report.final_partitions,
            "one notification per completed partition"
        );
        let last = sink.marks.last().unwrap();
        assert_eq!(last.0, report.final_partitions);
        assert!(last.1.is_empty(), "the final notification has nothing remaining");
        assert_eq!(last.2, sink.inner.itemsets.len(), "the final mark covers all output");
        assert_eq!(sink.inner.into_sorted(), reference(&db, 3));
        assert_clean(&parent);
    }

    #[test]
    fn resume_from_every_spill_mark_completes_the_exact_stream() {
        let db = block_db();
        let parent = spill_parent("resume");
        let sup = Supervisor {
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut full =
            MarkingSink { inner: CollectSink::new(), marks: Vec::new(), cancel_after: None };
        sup.mine_out_of_core(&db, 3, &mut full, None).0.expect("full run");
        assert!(full.marks.len() >= 2, "need at least two partitions to test resume");
        for (done, remaining, prefix_len) in &full.marks {
            let mut resumed =
                MarkingSink { inner: CollectSink::new(), marks: Vec::new(), cancel_after: None };
            sup.mine_out_of_core(&db, 3, &mut resumed, Some((*done, remaining.clone())))
                .0
                .expect("resumed run");
            let mut joined = full.inner.itemsets[..*prefix_len].to_vec();
            joined.extend(resumed.inner.itemsets.iter().cloned());
            assert_eq!(
                joined, full.inner.itemsets,
                "prefix at mark {done} + resumed tail must equal the full stream"
            );
            if let Some(last) = resumed.marks.last() {
                assert_eq!(last.0 as usize, full.marks.len(), "done counts are global");
            }
        }
        assert_clean(&parent);
    }

    #[test]
    fn cancelled_spill_run_stops_at_a_partition_watermark_and_resumes() {
        let db = block_db();
        let parent = spill_parent("cancel");
        let token = cfp_fault::CancelToken::new();
        let sup = Supervisor {
            spill_dir: Some(parent.clone()),
            cancel: Some(token.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut first = MarkingSink {
            inner: CollectSink::new(),
            marks: Vec::new(),
            cancel_after: Some((1, token)),
        };
        let (r, _) = sup.mine_out_of_core(&db, 3, &mut first, None);
        let err = r.expect_err("the token fires after the first partition");
        assert_eq!(err.exit_code(), 8, "unexpected failure: {err}");
        let (done, remaining, prefix_len) = first.marks.last().unwrap().clone();
        assert_eq!(prefix_len, first.inner.itemsets.len(), "output stops at the watermark");
        assert!(!remaining.is_empty(), "work must remain after the interruption");

        let sup = Supervisor {
            spill_dir: Some(parent.clone()),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let mut rest =
            MarkingSink { inner: CollectSink::new(), marks: Vec::new(), cancel_after: None };
        sup.mine_out_of_core(&db, 3, &mut rest, Some((done, remaining)))
            .0
            .expect("resume after interruption");
        let mut joined = first.inner.itemsets;
        joined.extend(rest.inner.itemsets);
        joined.sort();
        assert_eq!(joined, reference(&db, 3), "interrupt + resume must lose nothing");
        assert_clean(&parent);
    }

    #[test]
    fn single_item_range_failure_is_final() {
        let db = textbook();
        let sup = Supervisor {
            mem_budget: Some(5), // below even a root slot's charge
            ..Supervisor::new(RecoveryPolicy::Partition)
        };
        let mut sink = CollectSink::new();
        let (r, report) = sup.mine(&db, 2, &mut sink);
        let err = r.expect_err("5 bytes cannot hold any projection");
        assert_eq!(err.exit_code(), 4);
        assert!(!report.recovered);
        assert!(sink.into_sorted().is_empty());
    }
}
