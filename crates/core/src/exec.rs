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
//!   each recycling one arena across its conditional trees. A worker
//!   encodes its itemsets as it mines them ([`ItemsetBuf`]: Δ-coded
//!   varints, as the paper stores every large structure) and sends them
//!   back in chunks of [`CHUNK_BYTES`]. The caller's loop replays the
//!   chunks in descending item order ([`OrderedEmitter`]): the item whose
//!   turn it is streams to the sink while it is still being mined, and
//!   only items ahead of their turn are held, in encoded form. The output
//!   stream is byte-for-byte the one-worker stream. Condensed modes mine
//!   with per-task state and are reconciled there ([`Reconcile`]).
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
use cfp_encoding::varint;
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
        let (tx, rx) = mpsc::channel::<Chunk>();
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
            pending: (0..scheduled).map(|_| Held::default()).collect(),
            set: Vec::new(),
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

/// Itemsets in emission order, encoded compactly with the paper's
/// variable-byte code: per itemset its length, its items Δ-coded (the
/// first from 0), then its support, each a varint. Sinks receive items
/// ascending, so each Δ is small; the wrapping difference keeps any
/// order exact. An itemset of ten small items takes about 14 bytes here,
/// against some 80 as a `(Vec<Item>, u64)`.
#[derive(Default)]
pub(crate) struct ItemsetBuf {
    bytes: Vec<u8>,
}

impl ItemsetBuf {
    /// Encoded bytes held.
    fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Calls `f` on every held itemset, in the order they were emitted.
    pub(crate) fn replay(&self, f: impl FnMut(&[Item], u64)) {
        decode(&self.bytes, &mut Vec::new(), f);
    }
}

impl ItemsetSink for ItemsetBuf {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        varint::write_u64(&mut self.bytes, itemset.len() as u64);
        let mut prev: Item = 0;
        for &item in itemset {
            varint::write_u64(&mut self.bytes, item.wrapping_sub(prev) as u64);
            prev = item;
        }
        varint::write_u64(&mut self.bytes, support);
    }
}

/// Calls `f` on every itemset [`ItemsetBuf`] encoded into `bytes`, in
/// order, decoding each into `set`.
fn decode(bytes: &[u8], set: &mut Vec<Item>, mut f: impl FnMut(&[Item], u64)) {
    let mut at = 0;
    let next = |at: &mut usize| {
        let (v, n) = varint::read_u64_unchecked(&bytes[*at..]);
        *at += n;
        v
    };
    while at < bytes.len() {
        set.clear();
        let mut prev: Item = 0;
        for _ in 0..next(&mut at) {
            prev = prev.wrapping_add(next(&mut at) as Item);
            set.push(prev);
        }
        f(set, next(&mut at));
    }
}

/// Encoded bytes a worker gathers before it sends them to the caller.
const CHUNK_BYTES: usize = 64 << 10;

/// Part of one first-level item's itemsets, encoded by [`ItemsetBuf`].
/// A worker sends an item's chunks in order; `last` marks the item's
/// final chunk (possibly empty).
struct Chunk {
    item: u32,
    bytes: Vec<u8>,
    last: bool,
}

/// A worker's sink for one task: encodes each itemset as it is mined and
/// sends a chunk every [`CHUNK_BYTES`].
struct TaskSink<'t> {
    item: u32,
    buf: ItemsetBuf,
    tx: &'t mpsc::Sender<Chunk>,
}

impl TaskSink<'_> {
    fn send(&mut self, last: bool) {
        // The caller keeps the receiver until every worker is joined
        // (or abandoned by the watchdog, whose result nobody reads).
        let bytes = std::mem::take(&mut self.buf.bytes);
        let _ = self.tx.send(Chunk { item: self.item, bytes, last });
    }
}

impl ItemsetSink for TaskSink<'_> {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        self.buf.emit(itemset, support);
        if self.buf.len() >= CHUNK_BYTES {
            self.send(false);
        }
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

/// A worker: claim items until the queue drains or the run stops, and
/// mine each into a [`TaskSink`] (condensed state fresh per task; top-k
/// shares the run's heap) that streams it to the caller.
fn work(w: usize, s: &Shared, tx: mpsc::Sender<Chunk>) -> Result<WorkerTotals, CfpError> {
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
            let mut task = TaskSink { item, buf: ItemsetBuf::default(), tx: &tx };
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
            task.send(true);
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

/// The N-worker lane: replays each item's chunks in descending item
/// order. The chunks of the item whose turn it is reach the sink as they
/// arrive; chunks of items ahead of their turn are held, encoded, until
/// every higher item has been emitted.
struct OrderedEmitter<'s> {
    sink: &'s mut dyn ItemsetSink,
    rx: mpsc::Receiver<Chunk>,
    /// Chunks received ahead of their turn, by item id.
    pending: Vec<Held>,
    /// Decoding scratch.
    set: Vec<Item>,
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
    /// The next chunk from any worker. With a worker timeout, a window
    /// in which neither a chunk arrives nor any heartbeat advances is a
    /// stall. A closed channel means every worker stopped early; the
    /// placeholder `Interrupted` is resolved by [`finish`](Self::finish).
    fn recv(&mut self) -> Result<Chunk, CfpError> {
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

    /// Replays one chunk of the current item through the reconcile
    /// index, into the sink when `live`.
    fn replay(&mut self, bytes: &[u8], live: bool) {
        let OrderedEmitter { sink, set, reconcile, emitted, .. } = self;
        decode(bytes, set, |itemset, support| {
            if reconcile.as_mut().is_some_and(|r| !r.admit(itemset, support)) {
                return;
            }
            if live {
                sink.emit(itemset, support);
                *emitted += 1;
            }
        });
    }
}

/// An item's chunks that arrived ahead of its turn.
#[derive(Default)]
struct Held {
    chunks: Vec<Vec<u8>>,
    /// Whether its last chunk is among them.
    last: bool,
}

impl Lane for OrderedEmitter<'_> {
    fn item(&mut self, item: u32, live: bool) -> Result<(), CfpError> {
        let held = std::mem::take(&mut self.pending[item as usize]);
        for bytes in &held.chunks {
            self.replay(bytes, live);
        }
        if held.last {
            return Ok(());
        }
        loop {
            let chunk = self.recv()?;
            if chunk.item == item {
                self.replay(&chunk.bytes, live);
                if chunk.last {
                    return Ok(());
                }
            } else {
                let held = &mut self.pending[chunk.item as usize];
                held.chunks.push(chunk.bytes);
                held.last = chunk.last;
            }
        }
    }

    fn sink(&mut self) -> &mut dyn ItemsetSink {
        &mut *self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::{ItemsetBuf, CHUNK_BYTES};
    use crate::growth::{CfpGrowthMiner, MineOpts};
    use crate::ParallelCfpGrowthMiner;
    use cfp_data::miner::{CollectSink, Miner};
    use cfp_data::rng::{Rng, StdRng};
    use cfp_data::{fimi, CfpError, Item, ItemsetSink, MineProgress, OutputMode};
    use cfp_data::{ParsePolicy, Source, TransactionDb};
    use cfp_fault::CancelToken;

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

    #[test]
    fn itemset_codec_round_trips_extreme_values() {
        let sets: Vec<(Vec<Item>, u64)> = vec![
            (vec![0], 1),
            (vec![Item::MAX], u64::MAX),
            (vec![], 0),
            (vec![0, 1, 127, 128, 16_384, Item::MAX - 1, Item::MAX], u64::MAX - 1),
            (vec![7], 0),
            (vec![3, 1], 1 << 40),
        ];
        let mut buf = ItemsetBuf::default();
        for (set, support) in &sets {
            buf.emit(set, *support);
        }
        let mut back = Vec::new();
        buf.replay(|set, support| back.push((set.to_vec(), support)));
        assert_eq!(back, sets);
        // Small ascending items take one byte each.
        let mut small = ItemsetBuf::default();
        small.emit(&[1, 2, 3, 100], 50);
        assert_eq!(small.len(), 1 + 4 + 1);
    }

    /// 1,000 rows over 14 items, each present with probability 0.97:
    /// every one of the 2^14 - 1 itemsets is frequent at support 500.
    /// Item ids are spread apart, so each Δ takes three bytes, an itemset
    /// encodes to some 27 and the heaviest first-level items span several
    /// chunks.
    fn dense_db() -> TransactionDb {
        let mut rng = StdRng::seed_from_u64(14);
        let mut db = TransactionDb::new();
        for _ in 0..1000 {
            let row: Vec<Item> =
                (0..14u32).filter(|_| rng.gen_bool(0.97)).map(|i| i * 100_000 + 5).collect();
            db.push(&row);
        }
        db
    }

    const DENSE_SUPPORT: u64 = 500;

    /// Encodes the stream and records its size at every item watermark;
    /// cancels once `cancel_after` items are done.
    struct MarkSink {
        stream: CollectSink,
        encoded: ItemsetBuf,
        marks: Vec<usize>,
        watermark: u64,
        cancel: Option<(CancelToken, u64)>,
    }

    impl MarkSink {
        fn new(cancel: Option<(CancelToken, u64)>) -> Self {
            let (stream, encoded) = (CollectSink::new(), ItemsetBuf::default());
            MarkSink { stream, encoded, marks: Vec::new(), watermark: 0, cancel }
        }
    }

    impl ItemsetSink for MarkSink {
        fn emit(&mut self, itemset: &[Item], support: u64) {
            self.stream.emit(itemset, support);
            self.encoded.emit(itemset, support);
        }

        fn progress(&mut self, p: MineProgress<'_>) -> Result<(), CfpError> {
            if let MineProgress::Items { done } = p {
                self.watermark = done;
                self.marks.push(self.encoded.len());
                if let Some((token, after)) = &self.cancel {
                    if done >= *after {
                        token.cancel();
                    }
                }
            }
            Ok(())
        }
    }

    fn sequential(output: OutputMode, resume_skip: u64) -> Vec<(Vec<Item>, u64)> {
        let mut sink = CollectSink::new();
        let opts = MineOpts { output, resume_skip, ..Default::default() };
        CfpGrowthMiner::new().try_mine_with(&dense_db(), DENSE_SUPPORT, &mut sink, &opts).unwrap();
        sink.itemsets
    }

    fn parallel(
        threads: usize,
        output: OutputMode,
        resume_skip: u64,
        sink: &mut dyn ItemsetSink,
        cancel: Option<CancelToken>,
    ) -> Result<cfp_data::MineStats, CfpError> {
        let miner = ParallelCfpGrowthMiner {
            output,
            resume_skip,
            cancel,
            ..ParallelCfpGrowthMiner::new(threads)
        };
        miner.try_mine(&dense_db(), DENSE_SUPPORT, sink)
    }

    #[test]
    fn dense_items_stream_in_several_chunks() {
        let mut sink = MarkSink::new(None);
        parallel(2, OutputMode::All, 0, &mut sink, None).unwrap();
        assert_eq!(sink.stream.itemsets.len(), (1 << 14) - 1);
        let mut at = 0;
        let per_item: Vec<usize> =
            sink.marks.iter().map(|&m| m - std::mem::replace(&mut at, m)).collect();
        let multi_chunk = per_item.iter().filter(|&&b| b > CHUNK_BYTES).count();
        assert!(multi_chunk >= 2, "per-item encoded bytes: {per_item:?}");
        assert!(per_item[0] > 2 * CHUNK_BYTES, "the head item spans several chunks: {per_item:?}");
    }

    #[test]
    fn streamed_parallel_output_is_the_sequential_stream() {
        // Top-k does not compose with resume; it runs from the start.
        let cells = [
            (OutputMode::All, 0),
            (OutputMode::All, 2),
            (OutputMode::Closed, 0),
            (OutputMode::Closed, 3),
            (OutputMode::Maximal, 0),
            (OutputMode::Maximal, 1),
            (OutputMode::TopK(100), 0),
        ];
        for (output, skip) in cells {
            let seq = sequential(output, skip);
            // Maximal has one itemset, the full set, in the first item.
            assert!(!seq.is_empty() || skip > 0, "{output} skip={skip}");
            for threads in [2, 3, 4] {
                let mut par = CollectSink::new();
                parallel(threads, output, skip, &mut par, None).unwrap();
                assert!(
                    par.itemsets == seq,
                    "{output} skip={skip} threads={threads}: stream diverged from sequential"
                );
            }
        }
    }

    #[test]
    fn streamed_cancel_stops_at_a_watermark_and_resume_completes() {
        for output in [OutputMode::All, OutputMode::Closed] {
            let full = sequential(output, 0);
            for threads in [2, 3, 4] {
                // The first item is the heaviest: the cancel lands right
                // after a many-chunk item streamed.
                let token = CancelToken::new();
                let mut first = MarkSink::new(Some((token.clone(), 1)));
                let err = parallel(threads, output, 0, &mut first, Some(token));
                assert!(matches!(err, Err(CfpError::Interrupted)), "{err:?}");
                let watermark = first.watermark;
                assert_eq!(watermark, 1);
                let mut second = CollectSink::new();
                parallel(threads, output, watermark, &mut second, None).unwrap();
                let mut joined = first.stream.itemsets;
                joined.extend(second.itemsets);
                assert!(
                    joined == full,
                    "{output} threads={threads}: cancel + resume must equal the whole stream"
                );
            }
        }
    }
}
