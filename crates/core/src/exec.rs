//! The mining executor: one CFP-growth run, start to finish.
//!
//! Every CFP-growth driver — [`CfpGrowthMiner`](crate::CfpGrowthMiner),
//! [`ParallelCfpGrowthMiner`](crate::ParallelCfpGrowthMiner),
//! [`MiningImage`](crate::MiningImage) and each partition of the
//! supervisor's partitioned rung — is a thin front-end over this module.
//! A run is the paper's pipeline over one re-scannable [`Source`]:
//!
//! 1. [`prepare`]: **count** item supports, **build** the CFP-tree and
//!    **convert** it to the CFP-array (tree and array coexist briefly —
//!    the build-phase peak of §3.5 — then the tree is dropped);
//! 2. [`Exec::mine`]: **mine** the first-level items of the array,
//!    least frequent first, on `workers` workers.
//!
//! The first-level loop exists once ([`first_level`]): it polls
//! cancellation, skips the items a resumed run already emitted, and
//! reports a progress watermark after every item. Where an item's
//! itemsets come from is the only thing that differs between worker
//! counts:
//!
//! - **One worker** mines each item inline on the caller's thread,
//!   straight into the sink, with one run-wide output-mode state.
//! - **N workers** claim cost-sorted items from a shared [`TaskQueue`],
//!   each recycling one arena across its conditional trees, and send
//!   each item's buffered itemsets back; the caller's loop replays them
//!   in descending item order ([`OrderedEmitter`]), so the output stream
//!   is byte-for-byte the one-worker stream. Condensed modes mine with
//!   per-task state and are reconciled there ([`Reconcile`]).
//!
//! Worker panics are contained per item ([`contain`]) in both shapes,
//! and the top-k winners drain once, after the loop.

use crate::growth::{
    mine_item, mine_single_path, single_path, ArrayCharge, Ctx, MineOpts, ModeCtx, Scratch,
    SubsumeIndex, TopKState,
};
use crate::schedule::TaskQueue;
use cfp_array::{convert, CfpArray};
use cfp_data::{CfpError, Item, ItemsetSink, MineProgress, MineStats, OutputMode, Source};
use cfp_memman::{ArenaOptions, Component};
use cfp_metrics::{HeapSize, MemGauge, Stopwatch};
use cfp_trace::{span, Phase};
use cfp_tree::CfpTree;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// A converted CFP-array ready to mine, with its item mapping.
pub(crate) struct Prepared {
    /// The top-level array, shared with the workers.
    pub array: Arc<CfpArray>,
    /// Recoded id → original item.
    pub globals: Arc<[Item]>,
    /// Heap bytes of the tree the array was converted from (0 when it
    /// was not converted here).
    tree_bytes: u64,
    /// The array's attribution to the run's pool.
    _charge: ArrayCharge,
}

impl Prepared {
    /// Wraps an array that already exists (an image, a loaded spill
    /// file); `charge` attributes its bytes for as long as it is mined.
    pub(crate) fn new(array: Arc<CfpArray>, globals: Arc<[Item]>, charge: ArrayCharge) -> Self {
        Prepared { array, globals, tree_bytes: 0, _charge: charge }
    }
}

/// Count (the source's cached pass 1), build and convert — the one
/// prologue of every CFP-growth run. The tree's arena follows `arena`;
/// the array is charged to its pool. Phase times and the tree's node
/// count accumulate into `stats`.
pub(crate) fn prepare(
    source: &Source<'_>,
    min_support: u64,
    arena: ArenaOptions,
    stats: &mut MineStats,
) -> Result<Prepared, CfpError> {
    let counts = source.counts()?;
    stats.scan_time += counts.elapsed;
    let recoder = counts.recoder(min_support);
    let mut sw = Stopwatch::start();
    let pool = arena.pool.clone();
    let tree = {
        let _s = span(Phase::Build);
        CfpTree::try_from_source_with(source, &recoder, arena)?
    };
    stats.build_time += sw.lap();
    stats.tree_nodes += tree.num_nodes();

    let tree_bytes = tree.heap_bytes();
    let array = {
        let _s = span(Phase::Convert);
        convert(&tree)
    };
    let charge = ArrayCharge::new(pool, array.heap_bytes());
    drop(tree);
    stats.convert_time += sw.lap();
    let globals = (0..recoder.num_items() as u32).map(|i| recoder.original(i)).collect();
    Ok(Prepared { array: Arc::new(array), globals, tree_bytes, _charge: charge })
}

/// How one CFP-growth run executes.
#[derive(Clone, Debug, Default)]
pub(crate) struct Exec {
    /// Mine-phase workers; 0 and 1 both mine inline on the caller's
    /// thread.
    pub workers: usize,
    /// Enumerate single-path structures directly instead of recursing.
    pub single_path_opt: bool,
    /// Byte cap on the initial tree's own arena (conditional trees stay
    /// uncapped unless `opts.pool` covers them).
    pub tree_budget: Option<u64>,
    /// Watchdog limit for runs with several workers.
    pub worker_timeout: Option<Duration>,
    /// Pool, compaction, conditional spilling, cancellation, resume and
    /// output mode.
    pub opts: MineOpts,
}

impl Exec {
    /// A whole run: [`prepare`] then [`mine`](Self::mine).
    pub(crate) fn run(
        &self,
        source: &Source<'_>,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
    ) -> Result<MineStats, CfpError> {
        let mut stats = MineStats::default();
        let arena = self.opts.arena_options(self.tree_budget, Component::BuildTree);
        let prepared = prepare(source, min_support, arena, &mut stats)?;
        self.mine(prepared, min_support, sink, stats)
    }

    /// Mines a prepared array into `sink`, completing `stats`.
    pub(crate) fn mine(
        &self,
        p: Prepared,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
        mut stats: MineStats,
    ) -> Result<MineStats, CfpError> {
        let mut sw = Stopwatch::start();
        let n = p.array.num_items() as u32;
        if cfp_trace::enabled() {
            cfp_trace::counters::CORE_FIRST_LEVEL_ITEMS.record(n as u64);
        }
        // One top-k heap for the whole run: offers are commutative (the
        // final content is the set of k best, fixed by the input), so
        // the drain below is deterministic for any worker count.
        let topk = match self.opts.output {
            OutputMode::TopK(k) => Some(Arc::new(TopKState::new(k))),
            _ => None,
        };
        // A globally single-path array is enumerated whole, never
        // decomposed per item: the per-item order groups output by
        // first-level item while the shortcut groups by path depth. A
        // single-path run reports no per-item watermarks, so a resumed
        // run (resume_skip > 0) never started from one. An array mined
        // above its build support (an image) may hold infrequent items
        // and takes the per-item path.
        let root_path = self.single_path_opt
            && self.opts.resume_skip == 0
            && single_path(&p.array)
                .is_some_and(|path| path.iter().all(|&(_, count)| count >= min_support));
        // A one-worker run accounts every structure in one gauge, from
        // the build-phase peak — tree and array coexist during
        // conversion (§3.5) — to the conditional structures.
        let gauge = MemGauge::new();
        let one_worker = self.workers <= 1;
        if one_worker {
            gauge.alloc(p.tree_bytes);
            gauge.checkpoint();
            gauge.alloc(p.array.heap_bytes());
            gauge.checkpoint();
            gauge.free(p.tree_bytes);
        }
        let workers = self.workers.min(n as usize);
        let (itemsets, totals) = if root_path || workers <= 1 {
            (self.inline(&p, min_support, sink, gauge.clone(), &topk, root_path)?, Vec::new())
        } else {
            self.pool(&p, min_support, workers, sink, &topk)?
        };
        if one_worker {
            stats.peak_bytes = gauge.peak();
            stats.avg_bytes = gauge.average();
            gauge.free(p.array.heap_bytes());
        } else {
            // Upper-bound estimate: shared structures plus every
            // worker's conditional peak, as if all peaked at once.
            stats.peak_bytes =
                p.tree_bytes.max(p.array.heap_bytes()) + totals.iter().map(|t| t.peak).sum::<u64>();
            if let Some(pool) = &self.opts.pool {
                stats.peak_bytes = stats.peak_bytes.max(pool.peak());
            }
            stats.avg_bytes = stats.peak_bytes;
            stats.worker_peaks = totals.iter().map(|t| t.peak).collect();
            stats.worker_tasks = totals.iter().map(|t| t.tasks).collect();
            stats.worker_costs = totals.iter().map(|t| t.cost).collect();
        }
        // A top-k run emits nothing while mining; the retained winners
        // reach the sink here, sorted, once the bound is final.
        let drained = topk.map_or(0, |state| drain_topk(&state, sink));
        stats.itemsets = itemsets + drained;
        stats.mine_time = sw.lap();
        Ok(stats)
    }

    /// One worker on the caller's thread: each first-level item mines
    /// straight into `sink` under one run-wide output-mode state.
    fn inline(
        &self,
        p: &Prepared,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
        gauge: MemGauge,
        topk: &Option<Arc<TopKState>>,
        root_path: bool,
    ) -> Result<u64, CfpError> {
        let _s = span(Phase::Mine);
        let mut scratch = Scratch::default();
        let mut mode = ModeCtx::new(self.opts.output, topk);
        let mut ctx = Ctx::new(
            sink,
            gauge,
            min_support,
            self.single_path_opt,
            &self.opts,
            &mut scratch,
            &mut mode,
        );
        if root_path {
            contain(0, || Ok(mine_single_path(&p.array, &p.globals, &mut ctx)))?;
        } else {
            let mut lane = Inline { ctx: &mut ctx, array: &p.array, globals: &p.globals };
            first_level(&mut lane, p.array.num_items() as u32, &self.opts)?;
        }
        Ok(ctx.itemsets())
    }

    /// `workers` threads claiming items from a [`TaskQueue`]; the
    /// caller's thread replays their output in order. Returns the
    /// itemsets emitted and each worker's totals.
    fn pool(
        &self,
        p: &Prepared,
        min_support: u64,
        workers: usize,
        sink: &mut dyn ItemsetSink,
        topk: &Option<Arc<TopKState>>,
    ) -> Result<(u64, Vec<WorkerTotals>), CfpError> {
        let n = p.array.num_items() as u32;
        if cfp_trace::enabled() {
            cfp_trace::counters::CORE_WORKERS.record(workers as u64);
        }
        // Items a resumed run already emitted are not scheduled — except
        // in condensed modes, where their itemsets must seed the
        // reconcile index (replayed silently, like the one-worker quiet
        // re-mine).
        let scheduled = first_level_span(n, &self.opts);
        let shared = Arc::new(Shared {
            queue: TaskQueue::with_limit(&p.array, scheduled),
            array: Arc::clone(&p.array),
            globals: Arc::clone(&p.globals),
            min_support,
            single_path_opt: self.single_path_opt,
            opts: self.opts.clone(),
            topk: topk.clone(),
            poison: AtomicBool::new(false),
            heartbeats: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            // Claims beyond the round-robin share count as steals: work
            // the queue moved onto a worker that a fixed deal would not
            // have given it.
            fair_share: (n as u64).div_ceil(workers as u64),
        });
        let (tx, rx) = mpsc::channel::<(u32, Batch)>();
        let handles = (0..workers)
            .map(|w| {
                let (shared, tx) = (Arc::clone(&shared), tx.clone());
                std::thread::spawn(move || work(w, &shared, tx))
            })
            .collect();
        drop(tx);
        let mut emitter = OrderedEmitter {
            sink,
            rx,
            pending: (0..scheduled).map(|_| None).collect(),
            reconcile: Reconcile::new(self.opts.output),
            emitted: 0,
            shared,
            handles,
            worker_timeout: self.worker_timeout,
            last_beats: vec![0; workers],
            timed_out: false,
        };
        let looped = first_level(&mut emitter, n, &self.opts);
        emitter.finish(looped)
    }
}

/// The number of first-level items a run visits: all `n` in condensed
/// modes (resumed items are re-mined quietly), else those below the
/// resume watermark.
fn first_level_span(n: u32, opts: &MineOpts) -> u32 {
    if opts.output.is_condensed() {
        n
    } else {
        (n as u64).saturating_sub(opts.resume_skip) as u32
    }
}

/// Where each first-level item's itemsets come from.
trait Lane {
    /// Delivers item `item`'s itemsets to the run's sink — silently when
    /// `live` is false (a resumed condensed run re-deriving its state).
    fn item(&mut self, item: u32, live: bool) -> Result<(), CfpError>;

    /// The run's sink.
    fn sink(&mut self) -> &mut dyn ItemsetSink;
}

/// The first-level loop, shared by every worker count: items `n-1 … 0`
/// in order, the ones a resumed run already emitted skipped (or, in
/// condensed modes, replayed quietly), cancellation polled before each
/// item, and a progress watermark after each. The watermark counts
/// completed items *globally* — skipped ones included — so a resumed
/// run checkpoints seamlessly.
fn first_level(lane: &mut dyn Lane, n: u32, opts: &MineOpts) -> Result<(), CfpError> {
    let live_below = (n as u64).saturating_sub(opts.resume_skip) as u32;
    for item in (0..first_level_span(n, opts)).rev() {
        if opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            return Err(CfpError::Interrupted);
        }
        let live = item < live_below;
        lane.item(item, live)?;
        if live {
            // Every itemset of items n-1 … item is now in the sink: an
            // exact watermark of n-item completed first-level items.
            let emit_t0 = cfp_trace::hist::maybe_now();
            let emitted = lane.sink().progress(MineProgress::Items { done: (n - item) as u64 });
            cfp_trace::hist::record_since(&cfp_trace::hist::CORE_EMIT_NANOS, emit_t0);
            emitted?;
        }
    }
    Ok(())
}

/// The one-worker lane: mine the item right here.
struct Inline<'c, 'a> {
    ctx: &'c mut Ctx<'a>,
    array: &'c CfpArray,
    globals: &'c [Item],
}

impl Lane for Inline<'_, '_> {
    fn item(&mut self, item: u32, live: bool) -> Result<(), CfpError> {
        self.ctx.set_quiet(!live);
        contain(0, || mine_item(self.array, item, self.globals, self.ctx))
    }

    fn sink(&mut self) -> &mut dyn ItemsetSink {
        self.ctx.sink()
    }
}

/// Runs one unit of mine-phase work with worker-panic containment: the
/// `core.worker` failpoint fires here, and a panic comes back as a
/// structured [`CfpError::WorkerPanic`] naming `worker` — the process
/// and the caller's sink survive.
fn contain<T>(worker: usize, f: impl FnOnce() -> Result<T, CfpError>) -> Result<T, CfpError> {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if cfp_fault::should_fail("core.worker") {
            panic!("injected worker fault (failpoint core.worker)");
        }
        f()
    }));
    caught.unwrap_or_else(|payload| {
        if cfp_trace::enabled() {
            cfp_trace::counters::CORE_WORKER_PANICS.inc();
        }
        Err(CfpError::WorkerPanic { worker, message: panic_message(&*payload) })
    })
}

/// Renders a caught panic payload as a diagnostic string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Emits a finished top-k run's retained itemsets into `sink` (highest
/// support first, ties lexicographic) and returns how many there were.
fn drain_topk(state: &TopKState, sink: &mut dyn ItemsetSink) -> u64 {
    let winners = state.drain_sorted();
    for (set, support) in &winners {
        sink.emit(set, *support);
        if cfp_trace::enabled() {
            cfp_trace::counters::CORE_PATTERNS.inc();
        }
    }
    winners.len() as u64
}

/// Global condensed-mode reconciliation of locally condensed output.
///
/// A worker (or a partition) mining with a *local* subsumption index can
/// never reject a true closed/maximal itemset — a local subsumer is
/// itself accepted, so subsumption is transitive — but can accept a
/// candidate whose subsumer lives in another task's subtree. Replaying
/// the output in descending top-item order — the one-worker emission
/// order — against one global index removes those false accepts: any
/// subsumer has a top item ≥ the candidate's, so it is replayed (and
/// indexed) no later than the candidate itself.
pub(crate) struct Reconcile {
    index: SubsumeIndex,
    /// Closed mode: subsumption only counts at equal support.
    closed: bool,
}

impl Reconcile {
    /// The reconcile state for `output`; `None` outside closed/maximal.
    pub(crate) fn new(output: OutputMode) -> Option<Self> {
        match output {
            OutputMode::Closed => Some(Reconcile { index: SubsumeIndex::default(), closed: true }),
            OutputMode::Maximal => {
                Some(Reconcile { index: SubsumeIndex::default(), closed: false })
            }
            OutputMode::All | OutputMode::TopK(_) => None,
        }
    }

    /// Accepts `set` (and indexes it) unless an earlier accepted itemset
    /// subsumes it.
    pub(crate) fn admit(&mut self, set: &[Item], support: u64) -> bool {
        if self.index.subsumes(set, self.closed.then_some(support)) {
            if cfp_trace::enabled() {
                if self.closed {
                    cfp_trace::counters::CORE_CLOSED_PRUNED.inc();
                } else {
                    cfp_trace::counters::CORE_MAXIMAL_PRUNED.inc();
                }
            }
            return false;
        }
        self.index.insert(set, support);
        true
    }
}

/// One task's itemsets in emission order.
type Batch = Vec<(Vec<Item>, u64)>;

/// Buffers one task's itemsets.
#[derive(Default)]
struct TaskSink {
    buf: Batch,
}

impl ItemsetSink for TaskSink {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        self.buf.push((itemset.to_vec(), support));
    }
}

/// What the workers of one run share. Threads are spawned (not scoped)
/// over this `Arc` so the watchdog can abandon a truly wedged worker.
struct Shared {
    queue: TaskQueue,
    array: Arc<CfpArray>,
    globals: Arc<[Item]>,
    min_support: u64,
    single_path_opt: bool,
    opts: MineOpts,
    topk: Option<Arc<TopKState>>,
    /// Set when the run ends early — a worker failed, the watchdog
    /// fired, or the caller stopped — so every worker stops claiming.
    poison: AtomicBool,
    /// Ticked per claimed task; the watchdog's liveness signal.
    heartbeats: Vec<AtomicU64>,
    /// The round-robin deal size; claims past it count as steals.
    fair_share: u64,
}

/// One worker's tally.
#[derive(Clone, Copy, Default)]
struct WorkerTotals {
    /// Peak bytes of its conditional structures.
    peak: u64,
    /// First-level items it mined.
    tasks: u64,
    /// Summed estimated cost of those items.
    cost: u64,
}

/// A worker: claim items until the queue drains or the run stops, mine
/// each into a task buffer (condensed state fresh per task; top-k shares
/// the run's heap) and send it to the caller.
fn work(w: usize, s: &Shared, tx: mpsc::Sender<(u32, Batch)>) -> Result<WorkerTotals, CfpError> {
    if cfp_trace::events::capturing() {
        // Pin this worker's event track to a stable name before the
        // mine-phase span records its first event.
        cfp_trace::events::name_thread(&format!("worker-{w}"));
    }
    // Each worker's mining wall time accumulates into the mine phase
    // (span count = worker count).
    let _s = span(Phase::Mine);
    let mut scratch = Scratch::default();
    let mut t = WorkerTotals::default();
    while let Some((start, len)) = s.queue.claim() {
        for slot in start..start + len {
            if s.poison.load(Ordering::Relaxed)
                || s.opts.cancel.as_ref().is_some_and(|c| c.is_cancelled())
            {
                return Ok(t);
            }
            tick(&s.heartbeats[w], t.tasks, s.fair_share);
            if cfp_fault::should_fail("core.worker.stall") {
                // Injected hang: hold the heartbeat still until the
                // watchdog poisons the run, then exit.
                while !s.poison.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return Ok(t);
            }
            let item = s.queue.item(slot);
            t.tasks += 1;
            t.cost += s.queue.cost(slot);
            if cfp_trace::events::capturing() {
                cfp_trace::events::record(cfp_trace::events::EventKind::TaskClaim {
                    item,
                    cost: s.queue.cost(slot),
                    stolen: t.tasks > s.fair_share,
                });
            }
            let mut task = TaskSink::default();
            let gauge = MemGauge::new();
            let mut mode = ModeCtx::new(s.opts.output, &s.topk);
            let mined = contain(w, || {
                let mut ctx = Ctx::new(
                    &mut task,
                    gauge.clone(),
                    s.min_support,
                    s.single_path_opt,
                    &s.opts,
                    &mut scratch,
                    &mut mode,
                );
                mine_item(&s.array, item, &s.globals, &mut ctx)
            });
            if let Err(e) = mined {
                s.poison.store(true, Ordering::Relaxed);
                return Err(e);
            }
            t.peak = t.peak.max(gauge.peak());
            // The caller keeps the receiver until every worker is joined
            // (or abandoned by the watchdog, whose result nobody reads).
            let _ = tx.send((item, task.buf));
        }
    }
    Ok(t)
}

/// Per-task worker bookkeeping: the watchdog heartbeat, plus the claim
/// and steal counters when tracing is on. `done` is the number of tasks
/// the worker completed before this one.
#[inline]
fn tick(heartbeat: &AtomicU64, done: u64, fair_share: u64) {
    heartbeat.fetch_add(1, Ordering::Relaxed);
    if cfp_trace::enabled() {
        cfp_trace::counters::CORE_WORKER_HEARTBEATS.inc();
        cfp_trace::counters::CORE_TASKS_CLAIMED.inc();
        if done >= fair_share {
            cfp_trace::counters::CORE_TASKS_STOLEN.inc();
        }
    }
}

/// The N-worker lane: hands the first-level loop each item's buffered
/// itemsets in descending item order, holding batches that arrive early
/// until every higher item has been emitted.
struct OrderedEmitter<'s> {
    sink: &'s mut dyn ItemsetSink,
    rx: mpsc::Receiver<(u32, Batch)>,
    /// Batches received ahead of their turn, by item id.
    pending: Vec<Option<Batch>>,
    reconcile: Option<Reconcile>,
    emitted: u64,
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<Result<WorkerTotals, CfpError>>>,
    worker_timeout: Option<Duration>,
    /// Heartbeats at the last sign of progress (watchdog only).
    last_beats: Vec<u64>,
    timed_out: bool,
}

impl OrderedEmitter<'_> {
    /// The next batch from any worker. With a worker timeout, a window
    /// in which neither a batch arrives nor any heartbeat advances is a
    /// stall. A closed channel means every worker stopped early; the
    /// placeholder `Interrupted` is resolved by [`finish`](Self::finish).
    fn recv(&mut self) -> Result<(u32, Batch), CfpError> {
        let Some(limit) = self.worker_timeout else {
            return self.rx.recv().map_err(|_| CfpError::Interrupted);
        };
        let tick = (limit / 4).max(Duration::from_millis(5)).min(limit);
        let mut waited = Duration::ZERO;
        loop {
            match self.rx.recv_timeout(tick) {
                Ok(msg) => return Ok(msg),
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(CfpError::Interrupted),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    let beats = self.shared.heartbeats.iter().map(|h| h.load(Ordering::Relaxed));
                    let beats: Vec<u64> = beats.collect();
                    if beats != self.last_beats {
                        self.last_beats = beats;
                        waited = Duration::ZERO;
                        continue;
                    }
                    waited += tick;
                    if waited < limit {
                        continue;
                    }
                    // Stall: blame the first unfinished worker.
                    if cfp_trace::enabled() {
                        cfp_trace::counters::CORE_WORKER_STALLS.inc();
                    }
                    self.timed_out = true;
                    let stalled =
                        self.handles.iter().position(|h| !h.is_finished()).unwrap_or_default();
                    return Err(CfpError::WorkerTimeout {
                        worker: stalled,
                        waited_ms: waited.as_millis() as u64,
                    });
                }
            }
        }
    }

    /// Stops and joins the workers, then settles the run's outcome. A
    /// worker's own failure outranks the interruption it caused; a
    /// failed progress hook or a watchdog timeout stands as is.
    fn finish(self, looped: Result<(), CfpError>) -> Result<(u64, Vec<WorkerTotals>), CfpError> {
        self.shared.poison.store(true, Ordering::Relaxed);
        let mut totals = Vec::with_capacity(self.handles.len());
        let mut failed: Option<CfpError> = None;
        for (w, h) in self.handles.into_iter().enumerate() {
            if self.timed_out {
                // Give the poisoned workers a short grace to notice;
                // abandon any that stay wedged (they hold only Arc'd
                // shared state, which outlives the run).
                for _ in 0..50 {
                    if h.is_finished() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                if !h.is_finished() {
                    continue;
                }
            }
            // join() only errors on a panic that escaped `contain`; fold
            // it into the same structured error instead of re-panicking.
            let joined = h.join().unwrap_or_else(|payload| {
                Err(CfpError::WorkerPanic { worker: w, message: panic_message(&*payload) })
            });
            match joined {
                Ok(t) => totals.push(t),
                Err(e) => {
                    totals.push(WorkerTotals::default());
                    failed.get_or_insert(e);
                }
            }
        }
        match (looped, failed) {
            (Err(e), _) if !matches!(e, CfpError::Interrupted) => Err(e),
            (_, Some(e)) => Err(e),
            (looped, None) => looped.map(|()| (self.emitted, totals)),
        }
    }
}

impl Lane for OrderedEmitter<'_> {
    fn item(&mut self, item: u32, live: bool) -> Result<(), CfpError> {
        let batch = loop {
            if let Some(batch) = self.pending[item as usize].take() {
                break batch;
            }
            let (tag, batch) = self.recv()?;
            self.pending[tag as usize] = Some(batch);
        };
        for (itemset, support) in batch {
            if self.reconcile.as_mut().is_some_and(|r| !r.admit(&itemset, support)) {
                continue;
            }
            if live {
                self.sink.emit(&itemset, support);
                self.emitted += 1;
            }
        }
        Ok(())
    }

    fn sink(&mut self) -> &mut dyn ItemsetSink {
        &mut *self.sink
    }
}

#[cfg(test)]
mod tests {
    use crate::growth::{CfpGrowthMiner, MineOpts};
    use cfp_data::miner::{CollectSink, Miner};
    use cfp_data::{fimi, CfpError, ParsePolicy, Source, TransactionDb};

    fn tmp_file(name: &str, db: &TransactionDb) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cfp_core_exec");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        fimi::write_file(db, &path).unwrap();
        path
    }

    /// Mines a FIMI file through the streamed source, one worker.
    fn mine_path(
        path: &std::path::Path,
        min_support: u64,
        sink: &mut CollectSink,
    ) -> Result<cfp_data::MineStats, CfpError> {
        let source = Source::file(path, ParsePolicy::Strict);
        CfpGrowthMiner::new().try_mine_with(source, min_support, sink, &MineOpts::default())
    }

    #[test]
    fn file_mining_matches_in_memory_mining() {
        let db = TransactionDb::from_rows(&[
            vec![1, 2, 5],
            vec![2, 4],
            vec![2, 3],
            vec![1, 2, 4],
            vec![1, 3],
            vec![2, 3],
            vec![1, 3],
            vec![1, 2, 3, 5],
            vec![1, 2, 3],
        ]);
        let path = tmp_file("match.dat", &db);
        let mut file_sink = CollectSink::new();
        let file_stats = mine_path(&path, 2, &mut file_sink).unwrap();
        let mut mem_sink = CollectSink::new();
        let mem_stats = CfpGrowthMiner::new().mine(&db, 2, &mut mem_sink);

        assert_eq!(file_sink.itemsets, mem_sink.itemsets, "the same stream, in order");
        assert_eq!(file_stats.itemsets, mem_stats.itemsets);
        assert_eq!(file_stats.tree_nodes, mem_stats.tree_nodes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_mines_nothing() {
        let path = tmp_file("empty.dat", &TransactionDb::new());
        let mut sink = CollectSink::new();
        let stats = mine_path(&path, 1, &mut sink).unwrap();
        assert_eq!(stats.itemsets, 0);
        assert!(sink.itemsets.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_reports_io_error() {
        let mut sink = CollectSink::new();
        let err = mine_path("/nonexistent/cfp/file.dat".as_ref(), 1, &mut sink);
        assert!(matches!(err, Err(CfpError::Io(_))), "{err:?}");
    }

    #[test]
    fn malformed_file_reports_parse_error() {
        let dir = std::env::temp_dir().join("cfp_core_exec");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.dat");
        std::fs::write(&path, "1 2 three\n").unwrap();
        let mut sink = CollectSink::new();
        assert!(mine_path(&path, 1, &mut sink).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streamed_malformed_file_fails_with_its_line_and_exit_3() {
        let dir = std::env::temp_dir().join("cfp_core_exec");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-line.dat");
        std::fs::write(&path, "1 2\n2 3\n1 bogus 2\n1 2\n").unwrap();
        let mut sink = CollectSink::new();
        let err = mine_path(&path, 1, &mut sink).expect_err("strict parsing must reject");
        assert!(matches!(err, CfpError::Parse { line: 3, .. }), "{err:?}");
        assert_eq!(err.exit_code(), 3);
        assert!(sink.itemsets.is_empty());
        // Under the skip policy the same file mines the other lines.
        let skip = Source::file(&path, ParsePolicy::Skip);
        let stats = CfpGrowthMiner::new().try_mine_with(&skip, 2, &mut sink, &MineOpts::default());
        assert_eq!(stats.unwrap().itemsets, 3, "{{1}}, {{2}}, {{1, 2}}");
        assert_eq!(skip.counts().unwrap().parse.skipped_lines, 1);
        std::fs::remove_file(&path).ok();
    }
}
