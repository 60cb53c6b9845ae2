//! The CFP-growth mining algorithm.
//!
//! CFP-growth is FP-growth with both phases running on compressed
//! structures. One invocation:
//!
//! 1. **Scan** — count item supports, recode frequent items densely in
//!    descending support order ([`cfp_data::ItemRecoder`]).
//! 2. **Build** — insert every recoded transaction into a
//!    [`CfpTree`].
//! 3. **Convert** — transform the CFP-tree into a [`CfpArray`]
//!    (§3.5); tree and array coexist briefly, which is exactly the peak
//!    the paper describes, then the tree is dropped and its memory
//!    recycled.
//! 4. **Mine** — for each item, least frequent first: emit the itemset,
//!    gather the conditional pattern base by scanning the item's subarray
//!    and walking parent chains, build a *conditional* CFP-tree from the
//!    weighted filtered paths, convert it, recurse.
//!
//! Conditional trees keep the global support order of items (see the
//! discussion in `cfp_fptree::growth`), and a conditional structure that
//! degenerates into a single path short-circuits into direct subset
//! enumeration.

use crate::exec::{Exec, Source};
use crate::spill::CondSpill;
use cfp_array::{convert, CfpArray};
use cfp_data::{
    CfpError, Item, ItemRecoder, ItemsetSink, MineStats, Miner, OutputMode, TransactionDb,
};
use cfp_memman::{Arena, ArenaOptions, BudgetPool, Component, MemoryBudget, StatsReset};
use cfp_metrics::{HeapSize, MemGauge};
use cfp_tree::{CfpTree, CfpTreeConfig};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Options threaded through the mine phase's conditional-tree recursion.
///
/// The defaults reproduce the classic behaviour exactly: conditional
/// trees are uncapped and never compact. The recovery ladder
/// ([`crate::supervisor::Supervisor`]) passes a shared [`BudgetPool`] so
/// that *every* arena of a run — the initial tree and all conditional
/// trees — answers to one limit, and turns on compact-on-pressure so a
/// denied allocation first reclaims trailing free chunks and retries.
#[derive(Clone, Debug, Default)]
pub struct MineOpts {
    /// Shared byte pool charged by the initial and conditional tree
    /// arenas. Exhaustion surfaces as [`CfpError::MemoryExhausted`].
    pub pool: Option<BudgetPool>,
    /// Compact an arena and retry once before reporting exhaustion.
    pub compact_on_pressure: bool,
    /// Round-trip oversized conditional CFP-arrays through spill files
    /// ([`CondSpill`]), leaving their data bytes outside pool-metered
    /// memory. Armed by the supervisor's spill rung; `None` keeps every
    /// conditional structure in RAM (classic behaviour).
    pub cond_spill: Option<CondSpill>,
    /// Cooperative cancellation, polled before every first-level item
    /// (and by every worker at its task boundaries). When it fires,
    /// mining stops at the next boundary with [`CfpError::Interrupted`];
    /// everything emitted so far sits at an exact item watermark.
    pub cancel: Option<cfp_fault::CancelToken>,
    /// Resume support: the first `resume_skip` top-level items (in the
    /// descending mining order, i.e. items `n-1 … n-resume_skip`) were
    /// fully emitted by a previous run and are skipped without emitting
    /// anything. Progress notifications still report *global* completed
    /// counts, so a resumed run checkpoints seamlessly. Under a
    /// condensed [`output`](Self::output) mode the skipped items are
    /// re-mined *silently* — their itemsets rebuild the subsumption
    /// index without reaching the sink, so the resumed emission stream
    /// continues byte-exactly. `resume_skip` does not compose with
    /// [`OutputMode::TopK`].
    pub resume_skip: u64,
    /// Which itemsets this run reports (see [`OutputMode`]). The
    /// condensed modes run closure/maximality checks inside the
    /// recursion; `TopK` collects into a shared bounded heap and emits
    /// the winners, sorted, at the end of the run.
    pub output: OutputMode,
}

impl MineOpts {
    /// Arena options charging this run's pool, capped at `budget`.
    pub(crate) fn arena_options(&self, budget: Option<u64>, component: Component) -> ArenaOptions {
        ArenaOptions {
            budget: budget.map(MemoryBudget::new),
            pool: self.pool.clone(),
            compact_on_pressure: self.compact_on_pressure,
            component,
        }
    }
}

/// Inverted index over accepted condensed itemsets, answering "is this
/// candidate contained in an already-accepted itemset?" — with equal
/// support for closed mode, support-agnostic for maximal mode. Itemsets
/// are stored and queried with *original* item ids sorted ascending,
/// exactly as they are emitted.
#[derive(Debug, Default)]
pub(crate) struct SubsumeIndex {
    entries: Vec<(Vec<Item>, u64)>,
    by_item: HashMap<Item, Vec<u32>>,
}

impl SubsumeIndex {
    /// Records an accepted itemset.
    pub(crate) fn insert(&mut self, set: &[Item], support: u64) {
        let id = self.entries.len() as u32;
        for &it in set {
            self.by_item.entry(it).or_default().push(id);
        }
        self.entries.push((set.to_vec(), support));
    }

    /// True when an indexed itemset contains every item of `set` (and,
    /// when `support` is given, has exactly that support). Candidates
    /// are checked before insertion and the enumeration tree visits
    /// each itemset once, so a hit is always a *proper* superset.
    pub(crate) fn subsumes(&self, set: &[Item], support: Option<u64>) -> bool {
        // Scan only the shortest posting list among the set's items.
        let mut best: Option<&Vec<u32>> = None;
        for it in set {
            match self.by_item.get(it) {
                None => return false,
                Some(list) => {
                    if best.is_none_or(|b| list.len() < b.len()) {
                        best = Some(list);
                    }
                }
            }
        }
        let Some(list) = best else {
            return false; // an empty candidate never occurs
        };
        list.iter().any(|&id| {
            let (entry, sup) = &self.entries[id as usize];
            entry.len() >= set.len()
                && support.is_none_or(|s| *sup == s)
                && is_subset_sorted(set, entry)
        })
    }
}

/// `small ⊆ big`, both sorted ascending.
fn is_subset_sorted(small: &[Item], big: &[Item]) -> bool {
    let mut it = big.iter();
    small.iter().all(|s| it.any(|b| b == s))
}

/// Shared state of a streaming top-k run: a min-heap of the best `k`
/// `(support, itemset)` pairs — higher support wins, ties broken toward
/// the lexicographically smaller itemset — plus a monotonically rising
/// admission bound. One instance is shared by every worker of a run, so
/// the retained set is the true global top-k regardless of schedule.
#[derive(Debug)]
pub(crate) struct TopKState {
    k: usize,
    bound: AtomicU64,
    heap: Mutex<TopKHeap>,
}

/// Min-heap entry order: worst retained `(support, itemset)` on top.
type TopKHeap = BinaryHeap<Reverse<(u64, Reverse<Vec<Item>>)>>;

impl TopKState {
    pub(crate) fn new(k: usize) -> Self {
        TopKState {
            k,
            bound: AtomicU64::new(0),
            heap: Mutex::new(BinaryHeap::with_capacity(k + 1)),
        }
    }

    /// Support of the worst retained itemset once `k` are held, else 0.
    /// Any candidate *strictly* below the bound — and its whole subtree,
    /// since extensions never gain support — can be pruned. The bound
    /// only rises, so a stale read is merely conservative.
    pub(crate) fn bound(&self) -> u64 {
        self.bound.load(Ordering::Relaxed)
    }

    /// Offers a candidate; evicts the worst entry when over `k`.
    pub(crate) fn offer(&self, set: &[Item], support: u64) {
        if self.k == 0 || support < self.bound() {
            return;
        }
        let mut heap = self.heap.lock().unwrap_or_else(|e| e.into_inner());
        heap.push(Reverse((support, Reverse(set.to_vec()))));
        if heap.len() > self.k {
            heap.pop();
        }
        if heap.len() == self.k {
            if let Some(worst) = heap.peek() {
                self.bound.store(worst.0 .0, Ordering::Relaxed);
            }
        }
    }

    /// The retained itemsets, highest support first, ties in ascending
    /// lexicographic order — the final emission order of a top-k run.
    pub(crate) fn drain_sorted(&self) -> Vec<(Vec<Item>, u64)> {
        let heap = std::mem::take(&mut *self.heap.lock().unwrap_or_else(|e| e.into_inner()));
        let mut v: Vec<(u64, Reverse<Vec<Item>>)> = heap.into_iter().map(|r| r.0).collect();
        v.sort_by(|a, b| b.cmp(a));
        v.into_iter().map(|(s, i)| (i.0, s)).collect()
    }
}

/// Per-run (or, with several workers, per-task) runtime state of the
/// active [`OutputMode`]. The closed/maximal indexes grow as itemsets
/// are accepted; the top-k state is shared across all workers of a run.
#[derive(Debug)]
pub(crate) enum ModeCtx {
    /// Report every frequent itemset.
    All,
    /// Closure checking against an emitted-closed index.
    Closed(SubsumeIndex),
    /// Maximality pruning against an emitted-maximal index.
    Maximal(SubsumeIndex),
    /// Streaming top-k with a rising admission bound.
    TopK(Arc<TopKState>),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ModeKind {
    All,
    Closed,
    Maximal,
    TopK,
}

impl ModeCtx {
    /// Fresh state for `output`; top-k joins the run's shared heap
    /// `topk`, so every worker offers into one global heap.
    pub(crate) fn new(output: OutputMode, topk: &Option<Arc<TopKState>>) -> Self {
        match output {
            OutputMode::All => ModeCtx::All,
            OutputMode::Closed => ModeCtx::Closed(SubsumeIndex::default()),
            OutputMode::Maximal => ModeCtx::Maximal(SubsumeIndex::default()),
            OutputMode::TopK(_) => {
                ModeCtx::TopK(Arc::clone(topk.as_ref().expect("a top-k run has one shared heap")))
            }
        }
    }

    fn kind(&self) -> ModeKind {
        match self {
            ModeCtx::All => ModeKind::All,
            ModeCtx::Closed(_) => ModeKind::Closed,
            ModeCtx::Maximal(_) => ModeKind::Maximal,
            ModeCtx::TopK(_) => ModeKind::TopK,
        }
    }
}

/// RAII attribution of a flat CFP-array buffer to the run's budget pool.
///
/// The charge is *unmetered* ([`BudgetPool::charge_external`]): it feeds
/// the per-component gauges of the memstat report but never affects
/// admission, so mining output stays byte-identical with attribution on.
/// Dropping the guard releases the charge on every path, including
/// errors.
pub(crate) struct ArrayCharge {
    pool: Option<BudgetPool>,
    component: Component,
    bytes: u64,
}

impl ArrayCharge {
    pub(crate) fn new(pool: Option<BudgetPool>, bytes: u64) -> Self {
        Self::with_component(pool, Component::CondArrays, bytes)
    }

    /// An external charge against an explicit component — the spill rung
    /// attributes loaded spill buffers to [`Component::Spill`] this way.
    pub(crate) fn with_component(
        pool: Option<BudgetPool>,
        component: Component,
        bytes: u64,
    ) -> Self {
        if let Some(p) = &pool {
            p.charge_external(component, bytes);
        }
        ArrayCharge { pool, component, bytes }
    }
}

impl Drop for ArrayCharge {
    fn drop(&mut self) {
        if let Some(p) = &self.pool {
            p.release_external(self.component, self.bytes);
        }
    }
}

/// Charges a conditional array's bytes to the pool with the right
/// attribution: an in-RAM array is a `CondArrays` charge for its whole
/// heap footprint; a spilled (shared-buffer) array additionally
/// attributes its data block — which `heap_bytes` no longer counts — to
/// [`Component::Spill`].
fn charge_cond_array(
    pool: &Option<BudgetPool>,
    array: &CfpArray,
) -> (ArrayCharge, Option<ArrayCharge>) {
    let charge = ArrayCharge::new(pool.clone(), array.heap_bytes());
    let spill = array
        .is_shared()
        .then(|| ArrayCharge::with_component(pool.clone(), Component::Spill, array.data_bytes()));
    (charge, spill)
}

/// Per-worker reusable mine-phase state.
///
/// The first conditional tree's arena is kept after conversion,
/// [`Arena::reset`] wipes it (releasing its budget-pool reservation), and
/// the next conditional tree rebuilds inside it — so a worker touching
/// thousands of first-level items performs one heap allocation ramp-up
/// instead of one per item. Only one conditional tree is ever alive per
/// worker (`conditional` drops it before the recursion continues), so a
/// single slot suffices.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The recycled arena (captured from the first conditional tree).
    arena: Option<Arena>,
}

/// Rewrites the phase of a memory-exhaustion error to `"mine"`:
/// conditional-tree construction goes through the same build entry
/// points as the initial tree, but failures there happen mid-mining.
fn mine_phase(e: CfpError) -> CfpError {
    match e {
        CfpError::MemoryExhausted { requested, footprint, limit, .. } => {
            CfpError::MemoryExhausted { phase: "mine", requested, footprint, limit }
        }
        other => other,
    }
}

/// The CFP-growth miner.
#[derive(Clone, Debug)]
pub struct CfpGrowthMiner {
    /// Enumerate single-path structures directly instead of recursing.
    pub single_path_opt: bool,
    /// Byte cap on the initial tree's arena. When set, exceeding it
    /// surfaces as [`CfpError::MemoryExhausted`] from
    /// [`Miner::try_mine`] (or a panic from the infallible
    /// [`Miner::mine`]). The build phase dominates the peak, so the cap
    /// governs it only; conditional trees during mining stay uncapped.
    pub mem_budget: Option<u64>,
}

impl Default for CfpGrowthMiner {
    fn default() -> Self {
        CfpGrowthMiner { single_path_opt: true, mem_budget: None }
    }
}

impl CfpGrowthMiner {
    /// A miner with default options.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs the scan and build phases: returns the recoder and the initial
/// CFP-tree. Exposed separately so benchmarks can time phases.
pub fn build_tree(db: &TransactionDb, min_support: u64) -> (ItemRecoder, CfpTree) {
    try_build_tree(db, min_support, None).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`build_tree`]: the tree arena is capped at `budget` bytes
/// when given, and exhaustion comes back as
/// [`CfpError::MemoryExhausted`] with the phase set to `"build"`.
pub fn try_build_tree(
    db: &TransactionDb,
    min_support: u64,
    budget: Option<u64>,
) -> Result<(ItemRecoder, CfpTree), CfpError> {
    try_build_tree_with(
        db,
        min_support,
        MineOpts::default().arena_options(budget, Component::BuildTree),
    )
}

/// [`try_build_tree`] with full [`ArenaOptions`]: the initial tree can
/// draw from a shared [`BudgetPool`] and compact under pressure.
pub fn try_build_tree_with(
    db: &TransactionDb,
    min_support: u64,
    opts: ArenaOptions,
) -> Result<(ItemRecoder, CfpTree), CfpError> {
    let recoder = ItemRecoder::scan(db, min_support);
    let tree = CfpTree::try_from_db_with(db, &recoder, opts)?;
    Ok((recoder, tree))
}

/// The recursion state of one mining worker: where its itemsets go, its
/// output-mode state, its recycled arena and the suffix being extended.
pub(crate) struct Ctx<'a> {
    sink: &'a mut dyn ItemsetSink,
    gauge: MemGauge,
    min_support: u64,
    single_path_opt: bool,
    opts: &'a MineOpts,
    scratch: &'a mut Scratch,
    mode: &'a mut ModeCtx,
    /// Suppress sink emission (and itemset counting) while re-mining
    /// items a resumed condensed run already reported — the subsumption
    /// index still fills, so later checks see exactly the state an
    /// uninterrupted run would have.
    quiet: bool,
    suffix: Vec<Item>,
    emit_buf: Vec<Item>,
    path_buf: Vec<u32>,
    itemsets: u64,
}

impl<'a> Ctx<'a> {
    /// Recursion state over an empty suffix. `gauge` accounts the
    /// conditional structures this worker builds.
    pub(crate) fn new(
        sink: &'a mut dyn ItemsetSink,
        gauge: MemGauge,
        min_support: u64,
        single_path_opt: bool,
        opts: &'a MineOpts,
        scratch: &'a mut Scratch,
        mode: &'a mut ModeCtx,
    ) -> Self {
        Ctx {
            sink,
            gauge,
            min_support,
            single_path_opt,
            opts,
            scratch,
            mode,
            quiet: false,
            suffix: Vec::new(),
            emit_buf: Vec::new(),
            path_buf: Vec::new(),
            itemsets: 0,
        }
    }

    /// The sink this worker emits into.
    pub(crate) fn sink(&mut self) -> &mut dyn ItemsetSink {
        &mut *self.sink
    }

    /// Silences (or re-enables) emission for the items that follow.
    pub(crate) fn set_quiet(&mut self, quiet: bool) {
        self.quiet = quiet;
    }

    /// Itemsets this worker has emitted so far.
    pub(crate) fn itemsets(&self) -> u64 {
        self.itemsets
    }

    /// Sorts the current suffix into `emit_buf` — the candidate itemset
    /// in emission form.
    fn build_candidate(&mut self) {
        self.emit_buf.clear();
        self.emit_buf.extend_from_slice(&self.suffix);
        self.emit_buf.sort_unstable();
    }

    /// All/top-k emission of the current suffix: the classic path sends
    /// it to the sink; a top-k run offers it to the shared heap instead
    /// (winners reach the sink sorted, at the end of the run).
    fn emit(&mut self, support: u64) {
        self.build_candidate();
        if let ModeCtx::TopK(state) = &*self.mode {
            state.offer(&self.emit_buf, support);
            return;
        }
        self.emit_candidate(support);
    }

    /// Forwards the already-built candidate in `emit_buf` to the sink,
    /// unless this subtree is being silently re-mined after a resume.
    fn emit_candidate(&mut self, support: u64) {
        if self.quiet {
            return;
        }
        self.sink.emit(&self.emit_buf, support);
        self.itemsets += 1;
        if cfp_trace::enabled() {
            cfp_trace::counters::CORE_PATTERNS.inc();
        }
    }

    /// Is the candidate in `emit_buf` contained in an accepted itemset?
    /// (`Some(s)` additionally requires equal support — the closed-mode
    /// query; `None` is the maximal-mode query.)
    fn candidate_subsumed(&self, support: Option<u64>) -> bool {
        match &*self.mode {
            ModeCtx::Closed(ix) | ModeCtx::Maximal(ix) => ix.subsumes(&self.emit_buf, support),
            _ => false,
        }
    }

    /// Records the candidate in `emit_buf` as accepted.
    fn insert_candidate(&mut self, support: u64) {
        match &mut *self.mode {
            ModeCtx::Closed(ix) | ModeCtx::Maximal(ix) => ix.insert(&self.emit_buf, support),
            _ => {}
        }
    }

    /// Current top-k admission bound (0 outside top-k mode).
    fn topk_bound(&self) -> u64 {
        match &*self.mode {
            ModeCtx::TopK(state) => state.bound(),
            _ => 0,
        }
    }
}

impl Miner for CfpGrowthMiner {
    fn name(&self) -> &'static str {
        "cfp-growth"
    }

    fn mine(&self, db: &TransactionDb, min_support: u64, sink: &mut dyn ItemsetSink) -> MineStats {
        self.try_mine(db, min_support, sink).unwrap_or_else(|e| panic!("{e}"))
    }

    fn try_mine(
        &self,
        db: &TransactionDb,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
    ) -> Result<MineStats, CfpError> {
        self.try_mine_with(db, min_support, sink, &MineOpts::default())
    }
}

impl CfpGrowthMiner {
    /// [`Miner::try_mine`] with explicit [`MineOpts`]: a shared budget
    /// pool covering the initial *and* every conditional tree, and
    /// compact-on-pressure retry. `try_mine` delegates here with the
    /// defaults, so its behaviour is unchanged.
    pub fn try_mine_with(
        &self,
        db: &TransactionDb,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
        opts: &MineOpts,
    ) -> Result<MineStats, CfpError> {
        self.exec(opts).run(Source::Db(db), min_support, sink)
    }

    /// The one-worker executor this miner's options describe.
    pub(crate) fn exec(&self, opts: &MineOpts) -> Exec {
        Exec {
            workers: 1,
            single_path_opt: self.single_path_opt,
            tree_budget: self.mem_budget,
            worker_timeout: None,
            opts: opts.clone(),
        }
    }
}

/// If the whole `array` is one single path, enumerates it into the
/// context's sink exactly as the recursion's shortcut would and returns
/// `true`; returns `false` when the array branches.
pub(crate) fn mine_single_path(array: &CfpArray, globals: &[Item], ctx: &mut Ctx<'_>) -> bool {
    let Some(path) = single_path(array) else {
        return false;
    };
    if cfp_trace::enabled() {
        cfp_trace::span::single_path();
    }
    enumerate_single_path(&path, globals, ctx);
    true
}

/// Mines the complete subtree of first-level item `item`: emits `{item}`
/// and recurses through its conditional structures. This is the unit of
/// work the executor's first-level loop hands to a worker; each
/// first-level item is independent of the others.
pub(crate) fn mine_item(
    array: &CfpArray,
    item: u32,
    globals: &[Item],
    ctx: &mut Ctx<'_>,
) -> Result<(), CfpError> {
    let task_t0 = cfp_trace::hist::maybe_now();
    if !mine_suffix(array, item, globals, ctx)? {
        return Ok(());
    }
    cfp_trace::hist::record_since(&cfp_trace::hist::CORE_MINE_TASK_NANOS, task_t0);
    if !ctx.quiet && cfp_trace::enabled() {
        cfp_trace::counters::CORE_ITEMS_MINED.inc();
    }
    Ok(())
}

/// Extends the suffix by `item` and mines that node; returns `false`
/// when `item` is not frequent in `array`.
fn mine_suffix(
    array: &CfpArray,
    item: u32,
    globals: &[Item],
    ctx: &mut Ctx<'_>,
) -> Result<bool, CfpError> {
    let support = array.item_support(item);
    if support < ctx.min_support {
        return Ok(false);
    }
    ctx.suffix.push(globals[item as usize]);
    let node = mine_node(array, item, globals, support, ctx);
    ctx.suffix.pop();
    node.map(|()| true)
}

/// Mines every frequent itemset of a conditional `array` combined with
/// the suffix in `ctx`; `globals` maps local ids to original items.
fn mine_array(array: &CfpArray, globals: &[Item], ctx: &mut Ctx<'_>) -> Result<(), CfpError> {
    if ctx.single_path_opt && mine_single_path(array, globals, ctx) {
        return Ok(());
    }
    for item in (0..array.num_items() as u32).rev() {
        mine_suffix(array, item, globals, ctx)?;
    }
    Ok(())
}

/// Processes one node of the enumeration tree — the suffix, whose last
/// item `item` is already pushed, with support `support` — under the
/// active output mode: runs the mode's pruning checks, decides
/// emission, and recurses into the conditional structure.
fn mine_node(
    array: &CfpArray,
    item: u32,
    globals: &[Item],
    support: u64,
    ctx: &mut Ctx<'_>,
) -> Result<(), CfpError> {
    match ctx.mode.kind() {
        ModeKind::All | ModeKind::TopK => {
            if ctx.mode.kind() == ModeKind::TopK && support < ctx.topk_bound() {
                // Extensions never gain support: the whole subtree sits
                // below the admission bound.
                if cfp_trace::enabled() {
                    cfp_trace::counters::CORE_TOPK_PRUNED.inc();
                }
                return Ok(());
            }
            ctx.emit(support);
            if item > 0 {
                if let Some(cond) = conditional(array, item, globals, support, ctx)? {
                    recurse_into(cond, ctx)?;
                }
                record_rec_exit(item, globals);
            }
        }
        ModeKind::Closed => {
            ctx.build_candidate();
            if ctx.candidate_subsumed(Some(support)) {
                // An accepted closed itemset contains the candidate at
                // equal support, so it also contains — at equal support
                // — every extension in this subtree: nothing here is
                // closed (the FPclose subtree prune).
                if cfp_trace::enabled() {
                    cfp_trace::counters::CORE_CLOSED_PRUNED.inc();
                }
                return Ok(());
            }
            let cond =
                if item > 0 { conditional(array, item, globals, support, ctx)? } else { None };
            if cond.as_ref().is_some_and(|c| c.support_preserved) {
                // LCM prefix-preservation test over the conditional
                // database: some conditional item occurs in every
                // occurrence of the candidate, so a proper superset has
                // equal support — not closed. The subtree still holds
                // closed itemsets; recursion continues.
                if cfp_trace::enabled() {
                    cfp_trace::counters::CORE_CLOSED_PRUNED.inc();
                }
            } else {
                ctx.build_candidate();
                ctx.emit_candidate(support);
                ctx.insert_candidate(support);
            }
            if item > 0 {
                if let Some(cond) = cond {
                    recurse_into(cond, ctx)?;
                }
                record_rec_exit(item, globals);
            }
        }
        ModeKind::Maximal => {
            let cond =
                if item > 0 { conditional(array, item, globals, support, ctx)? } else { None };
            match cond {
                None => {
                    // Empty tail: no frequent extension exists below the
                    // candidate, so it is maximal unless an accepted
                    // maximal itemset already contains it.
                    ctx.build_candidate();
                    if ctx.candidate_subsumed(None) {
                        if cfp_trace::enabled() {
                            cfp_trace::counters::CORE_MAXIMAL_PRUNED.inc();
                        }
                    } else {
                        ctx.emit_candidate(support);
                        ctx.insert_candidate(support);
                    }
                    if item > 0 {
                        record_rec_exit(item, globals);
                    }
                }
                Some(cond) => {
                    // HUTMFI lookahead: when candidate ∪ tail is inside
                    // an accepted maximal itemset, every itemset in this
                    // subtree is a proper subset of it — prune.
                    ctx.emit_buf.clear();
                    ctx.emit_buf.extend_from_slice(&ctx.suffix);
                    ctx.emit_buf.extend_from_slice(&cond.globals);
                    ctx.emit_buf.sort_unstable();
                    if ctx.candidate_subsumed(None) {
                        if cfp_trace::enabled() {
                            cfp_trace::counters::CORE_MAXIMAL_PRUNED.inc();
                        }
                    } else {
                        recurse_into(cond, ctx)?;
                    }
                    record_rec_exit(item, globals);
                }
            }
        }
    }
    Ok(())
}

/// Charges, mines, and releases a conditional structure.
fn recurse_into(cond: Cond, ctx: &mut Ctx<'_>) -> Result<(), CfpError> {
    ctx.gauge.alloc(cond.array.heap_bytes());
    let _charges = charge_cond_array(&ctx.opts.pool, &cond.array);
    ctx.gauge.checkpoint();
    mine_array(&cond.array, &cond.globals, ctx)?;
    ctx.gauge.free(cond.array.heap_bytes());
    Ok(())
}

/// The matching exit of the RecEnter recorded inside [`conditional`].
fn record_rec_exit(item: u32, globals: &[Item]) {
    if cfp_trace::events::capturing() {
        cfp_trace::events::record(cfp_trace::events::EventKind::RecExit {
            item: globals[item as usize],
        });
    }
}

/// A built conditional structure, plus what closed mode learned from
/// the frequency pass over the conditional pattern base.
struct Cond {
    array: CfpArray,
    globals: Vec<Item>,
    /// Some conditional item appears in *every* occurrence of the
    /// candidate (`freq == support`): a proper superset has equal
    /// support, so the candidate is not closed.
    support_preserved: bool,
}

/// Builds the conditional CFP-array of `item`: conditional pattern base →
/// conditional CFP-tree → conversion. Returns `None` when no conditional
/// item stays frequent. `support` is the candidate's support (the item's
/// support within `array`), used only for the closed-mode verdict.
fn conditional(
    array: &CfpArray,
    item: u32,
    globals: &[Item],
    support: u64,
    ctx: &mut Ctx<'_>,
) -> Result<Option<Cond>, CfpError> {
    // Pass A: conditional frequencies along all prefix paths.
    let mut freq = vec![0u64; item as usize];
    let mut path = std::mem::take(&mut ctx.path_buf);
    let mut pattern_base = 0usize;
    for node in array.subarray(item) {
        pattern_base += 1;
        array.prefix_path(item, &node, &mut path);
        for &it in &path {
            freq[it as usize] += node.count;
        }
    }
    let support_preserved = freq.contains(&support);
    if cfp_trace::enabled() {
        // Depth = suffix length: how many conditional levels we are down.
        cfp_trace::span::conditional_tree(ctx.suffix.len(), pattern_base);
        if cfp_trace::events::capturing() {
            // The matching RecExit is recorded by the caller once the
            // conditional subtree is fully mined (or immediately, when
            // this returns None), so the enter/exit pair brackets the
            // whole recursion.
            cfp_trace::events::record(cfp_trace::events::EventKind::RecEnter {
                item: globals[item as usize],
                depth: ctx.suffix.len().min(u16::MAX as usize) as u16,
                pattern_base: pattern_base as u64,
            });
        }
    }

    let mut remap = vec![u32::MAX; item as usize];
    let mut cond_globals = Vec::new();
    for (old, &f) in freq.iter().enumerate() {
        if f >= ctx.min_support {
            remap[old] = cond_globals.len() as u32;
            cond_globals.push(globals[old]);
        }
    }
    if cond_globals.is_empty() {
        ctx.path_buf = path;
        return Ok(None);
    }

    // Pass B: insert the filtered weighted paths into a conditional tree.
    // Conditional arenas share the run's budget pool (when one is set) and
    // may compact-and-retry; exhaustion surfaces with the "mine" phase.
    // The worker rebuilds inside its long-lived arena instead of
    // allocating a fresh one per conditional tree.
    let mut cond_tree = match ctx.scratch.arena.take() {
        Some(arena) => CfpTree::try_with_arena(cond_globals.len(), CfpTreeConfig::default(), arena),
        None => CfpTree::try_with_options(
            cond_globals.len(),
            CfpTreeConfig::default(),
            ctx.opts.arena_options(None, Component::CondTrees),
        ),
    }
    .map_err(mine_phase)?;
    let mut filtered: Vec<u32> = Vec::new();
    for node in array.subarray(item) {
        array.prefix_path(item, &node, &mut path);
        filtered.clear();
        filtered.extend(
            path.iter().filter(|&&it| remap[it as usize] != u32::MAX).map(|&it| remap[it as usize]),
        );
        if !filtered.is_empty() {
            let weight = u32::try_from(node.count).expect("count exceeds u32");
            if let Err(e) = cond_tree.try_insert(&filtered, weight) {
                ctx.path_buf = path;
                return Err(mine_phase(CfpError::from(e)));
            }
        }
    }
    ctx.path_buf = path;

    if cfp_trace::enabled() {
        cfp_trace::counters::CORE_COND_TREE_BYTES.record_log2(cond_tree.arena_used());
    }
    ctx.gauge.alloc(cond_tree.heap_bytes());
    let cond_array = convert(&cond_tree);
    ctx.gauge.free(cond_tree.heap_bytes());
    let mut arena = cond_tree.into_arena();
    // ClearPeaks: each task gets a fresh per-instance high-water window,
    // so one early giant conditional tree cannot smear its peak across
    // every later task (the run-level peak stays in the budget pool).
    arena.reset_with(StatsReset::ClearPeaks);
    ctx.scratch.arena = Some(arena);
    // Out-of-core hook: an oversized conditional array round-trips
    // through a spill file and comes back as a shared view, so its data
    // block leaves pool-metered memory. The checksum on the file proves
    // the round trip intact; mining a view is byte-identical to mining
    // the owned original.
    let cond_array = match &ctx.opts.cond_spill {
        Some(cs) if cond_array.data_bytes() >= cs.threshold() => cs.round_trip(&cond_array)?,
        _ => cond_array,
    };
    Ok(Some(Cond { array: cond_array, globals: cond_globals, support_preserved }))
}

/// If the array represents a single downward path (every item has exactly
/// one node, chained by parent links), returns its `(item, count)` pairs
/// from the top.
pub(crate) fn single_path(array: &CfpArray) -> Option<Vec<(u32, u64)>> {
    let n = array.num_items() as u32;
    let mut path = Vec::with_capacity(n as usize);
    let mut expected_parent: Option<u32> = None;
    for item in 0..n {
        let mut it = array.subarray(item);
        let node = it.next()?;
        if it.next().is_some() {
            return None;
        }
        let parent = array.parent_of(item, &node).map(|(p, _)| p);
        if parent != expected_parent {
            return None;
        }
        path.push((item, node.count));
        expected_parent = Some(item);
    }
    Some(path)
}

/// Processes a single-path structure directly, without recursing. In
/// all mode this emits every non-empty subset of the path combined with
/// the current suffix (a subset's support is its deepest element's
/// count); the other modes exploit the path shape:
///
/// - **top-k** skips a whole deepest-block when its uniform support sits
///   below the admission bound;
/// - **closed** emits only full prefixes whose next-deeper count
///   strictly drops — any other subset keeps its support when a missing
///   shallower (or the equal-count deeper) item is added — each still
///   subject to the cross-branch subsumption check;
/// - **maximal** looks ahead to the unique candidate, suffix ∪ whole
///   path, and checks it against the emitted-maximal index.
fn enumerate_single_path(path: &[(u32, u64)], globals: &[Item], ctx: &mut Ctx<'_>) {
    fn rec_prefix(
        path: &[(u32, u64)],
        globals: &[Item],
        deepest: usize,
        i: usize,
        support: u64,
        ctx: &mut Ctx<'_>,
    ) {
        if i == deepest {
            return;
        }
        let (item, _) = path[i];
        ctx.suffix.push(globals[item as usize]);
        ctx.emit(support);
        rec_prefix(path, globals, deepest, i + 1, support, ctx);
        ctx.suffix.pop();
        rec_prefix(path, globals, deepest, i + 1, support, ctx);
    }

    match ctx.mode.kind() {
        ModeKind::All | ModeKind::TopK => {
            let topk = ctx.mode.kind() == ModeKind::TopK;
            for deepest in 0..path.len() {
                let (item, count) = path[deepest];
                if topk && count < ctx.topk_bound() {
                    // Every subset of this block has support `count`.
                    if cfp_trace::enabled() {
                        cfp_trace::counters::CORE_TOPK_PRUNED.inc();
                    }
                    continue;
                }
                ctx.suffix.push(globals[item as usize]);
                ctx.emit(count);
                rec_prefix(path, globals, deepest, 0, count, ctx);
                ctx.suffix.pop();
            }
        }
        ModeKind::Closed => {
            for deepest in 0..path.len() {
                let count = path[deepest].1;
                if path.get(deepest + 1).is_some_and(|&(_, c)| c == count) {
                    continue; // the next-deeper extension preserves support
                }
                ctx.emit_buf.clear();
                ctx.emit_buf.extend_from_slice(&ctx.suffix);
                ctx.emit_buf.extend(path[..=deepest].iter().map(|&(it, _)| globals[it as usize]));
                ctx.emit_buf.sort_unstable();
                if ctx.candidate_subsumed(Some(count)) {
                    if cfp_trace::enabled() {
                        cfp_trace::counters::CORE_CLOSED_PRUNED.inc();
                    }
                } else {
                    ctx.emit_candidate(count);
                    ctx.insert_candidate(count);
                }
            }
        }
        ModeKind::Maximal => {
            let Some(&(_, count)) = path.last() else {
                return;
            };
            ctx.emit_buf.clear();
            ctx.emit_buf.extend_from_slice(&ctx.suffix);
            ctx.emit_buf.extend(path.iter().map(|&(it, _)| globals[it as usize]));
            ctx.emit_buf.sort_unstable();
            if ctx.candidate_subsumed(None) {
                if cfp_trace::enabled() {
                    cfp_trace::counters::CORE_MAXIMAL_PRUNED.inc();
                }
            } else {
                ctx.emit_candidate(count);
                ctx.insert_candidate(count);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_data::miner::{CollectSink, CountingSink};
    use cfp_fptree::FpGrowthMiner;

    fn mine_collect(db: &TransactionDb, minsup: u64, opt: bool) -> Vec<(Vec<Item>, u64)> {
        let miner = CfpGrowthMiner { single_path_opt: opt, ..Default::default() };
        let mut sink = CollectSink::new();
        miner.mine(db, minsup, &mut sink);
        sink.into_sorted()
    }

    fn fp_collect(db: &TransactionDb, minsup: u64) -> Vec<(Vec<Item>, u64)> {
        let mut sink = CollectSink::new();
        FpGrowthMiner::new().mine(db, minsup, &mut sink);
        sink.into_sorted()
    }

    #[test]
    fn shared_cond_arrays_charge_the_spill_component_externally() {
        use cfp_data::spill::SpillDir;
        let db = TransactionDb::from_rows(&[
            vec![1, 2, 5],
            vec![2, 4],
            vec![1, 2, 4],
            vec![1, 2],
            vec![1, 3],
        ]);
        let (_, tree) = try_build_tree(&db, 2, None).unwrap();
        let array = convert(&tree);
        drop(tree);
        let parent = std::env::temp_dir().join(format!("cfp-growth-spill-{}", std::process::id()));
        let dir = std::sync::Arc::new(SpillDir::create(&parent).unwrap());
        let view = crate::spill::CondSpill::new(std::sync::Arc::clone(&dir), 1)
            .round_trip(&array)
            .unwrap();
        assert!(view.is_shared());

        let pool = BudgetPool::new(1 << 20);
        let charges = charge_cond_array(&Some(pool.clone()), &view);
        let snap = pool.snapshot();
        let spill_row =
            snap.components.iter().find(|(name, _, _)| *name == "spill").expect("spill row");
        assert_eq!(spill_row.1, view.data_bytes(), "the shared data block is a spill charge");
        assert_eq!(
            snap.components_total(),
            snap.accounted(),
            "Σ components must stay equal to used + external with spill charges live"
        );
        drop(charges);
        let snap = pool.snapshot();
        assert_eq!(snap.external_used, 0, "dropping the guards releases every charge");
        assert_eq!(snap.components_total(), snap.accounted());
        drop(dir);
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn cond_spill_round_trip_keeps_mining_byte_identical() {
        use cfp_data::spill::SpillDir;
        // A denser db so several conditional arrays exist; threshold 1
        // forces every one of them through the spill file path.
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut db = TransactionDb::new();
        for _ in 0..80 {
            let row: Vec<Item> = (0..10).filter(|_| rng.gen_bool(0.5)).collect();
            db.push(&row);
        }
        let baseline = mine_collect(&db, 3, true);

        let parent =
            std::env::temp_dir().join(format!("cfp-growth-condspill-{}", std::process::id()));
        let dir = std::sync::Arc::new(SpillDir::create(&parent).unwrap());
        let opts = MineOpts {
            cond_spill: Some(crate::spill::CondSpill::new(std::sync::Arc::clone(&dir), 1)),
            ..Default::default()
        };
        let mut sink = CollectSink::new();
        CfpGrowthMiner::new().try_mine_with(&db, 3, &mut sink, &opts).unwrap();
        assert_eq!(sink.into_sorted(), baseline, "spilled conditionals must not change output");
        assert_eq!(
            std::fs::read_dir(dir.path()).unwrap().count(),
            0,
            "every conditional round-trip file is removed after its load"
        );
        drop(dir);
        let _ = std::fs::remove_dir_all(&parent);
    }

    #[test]
    fn textbook_example_matches_fp_growth() {
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
        let got = mine_collect(&db, 2, true);
        assert_eq!(got, fp_collect(&db, 2));
        assert!(got.contains(&(vec![1, 2, 5], 2)));
    }

    #[test]
    fn single_path_opt_changes_nothing() {
        let db =
            TransactionDb::from_rows(&[vec![0, 1, 2, 3], vec![0, 1, 2], vec![0, 1], vec![7, 8]]);
        assert_eq!(mine_collect(&db, 1, true), mine_collect(&db, 1, false));
    }

    #[test]
    fn empty_database_and_high_minsup() {
        assert!(mine_collect(&TransactionDb::new(), 1, true).is_empty());
        let db = TransactionDb::from_rows(&[vec![1u32, 2]]);
        assert!(mine_collect(&db, 2, true).is_empty());
    }

    #[test]
    fn pure_single_path_database() {
        let db = TransactionDb::from_rows(&vec![vec![3u32, 5, 9]; 4]);
        let got = mine_collect(&db, 2, true);
        assert_eq!(got.len(), 7);
        assert!(got.iter().all(|(_, s)| *s == 4));
    }

    #[test]
    fn randomized_equivalence_with_fp_growth() {
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(31337);
        for trial in 0..40 {
            let n_items = rng.gen_range(1..=12);
            let n_txn = rng.gen_range(1..=60);
            let mut db = TransactionDb::new();
            for _ in 0..n_txn {
                let t: Vec<Item> = (0..n_items)
                    .filter(|_| rng.gen_bool(0.4))
                    .map(|i| i as Item * 7 + 3) // non-dense original ids
                    .collect();
                db.push(&t);
            }
            let minsup = rng.gen_range(1..=5);
            assert_eq!(
                mine_collect(&db, minsup, true),
                fp_collect(&db, minsup),
                "trial {trial} minsup {minsup}"
            );
        }
    }

    #[test]
    fn stats_track_memory_and_phases() {
        let db =
            TransactionDb::from_rows(&[vec![1, 2, 3, 4], vec![1, 2, 3], vec![1, 2], vec![2, 3, 4]]);
        let mut sink = CountingSink::new();
        let stats = CfpGrowthMiner::new().mine(&db, 1, &mut sink);
        assert_eq!(stats.itemsets, sink.count);
        assert!(stats.peak_bytes > 0);
        assert!(stats.tree_nodes > 0);
        assert!(stats.avg_bytes > 0);
        assert!(stats.avg_bytes <= stats.peak_bytes);
    }

    #[test]
    fn tiny_budget_fails_structured_and_uncapped_retry_succeeds() {
        let db =
            TransactionDb::from_rows(&[vec![1, 2, 3, 4], vec![1, 2, 3], vec![1, 2], vec![2, 3, 4]]);
        let capped = CfpGrowthMiner { mem_budget: Some(8), ..Default::default() };
        let mut sink = CountingSink::new();
        let err = capped.try_mine(&db, 1, &mut sink).expect_err("8 bytes cannot hold the tree");
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("build"), "{err}");
        // The failure is recoverable in-process: retry without the cap.
        let mut sink = CountingSink::new();
        let stats = CfpGrowthMiner::new().try_mine(&db, 1, &mut sink).expect("uncapped mine");
        assert_eq!(stats.itemsets, sink.count);
        assert!(sink.count > 0);
    }

    #[test]
    fn generous_budget_mines_identically() {
        let db =
            TransactionDb::from_rows(&[vec![1, 2, 3, 4], vec![1, 2, 3], vec![1, 2], vec![2, 3, 4]]);
        let capped = CfpGrowthMiner { mem_budget: Some(1 << 20), ..Default::default() };
        let mut sink = CollectSink::new();
        capped.try_mine(&db, 1, &mut sink).expect("1 MiB is plenty");
        assert_eq!(sink.into_sorted(), mine_collect(&db, 1, true));
    }

    #[test]
    fn exhausted_pool_fails_structured_in_the_mine_phase() {
        // An uncapped initial build followed by mining under a pool too
        // small for even a conditional tree's root slot: the failure must
        // be a structured MemoryExhausted naming the mine phase, not a
        // panic (the conditional recursion is fallible end to end).
        let db = TransactionDb::from_rows(&[
            vec![1, 2, 3],
            vec![1, 2, 3],
            vec![1, 2],
            vec![2, 3],
            vec![1, 3],
        ]);
        let (recoder, tree) = try_build_tree(&db, 1, None).expect("uncapped build");
        let array = convert(&tree);
        drop(tree);
        let globals: Vec<Item> =
            (0..recoder.num_items() as u32).map(|i| recoder.original(i)).collect();
        let opts = MineOpts {
            pool: Some(BudgetPool::new(4)),
            compact_on_pressure: true,
            ..Default::default()
        };
        let mut sink = CountingSink::new();
        let last = recoder.num_items() as u32 - 1;
        let (mut scratch, mut mode) = (Scratch::default(), ModeCtx::All);
        let mut ctx =
            Ctx::new(&mut sink, MemGauge::new(), 1, false, &opts, &mut scratch, &mut mode);
        let err = mine_item(&array, last, &globals, &mut ctx)
            .expect_err("a 4-byte pool cannot hold a conditional tree root");
        assert_eq!(err.exit_code(), 4);
        assert!(err.to_string().contains("mine"), "{err}");
    }

    #[test]
    fn cancel_and_resume_split_the_emission_stream_exactly() {
        use cfp_data::MineProgress;
        use cfp_fault::CancelToken;

        // A sink that requests cancellation once `after` top-level items
        // have completed — the in-process analogue of SIGTERM.
        struct CancellingSink {
            inner: CollectSink,
            cancel: CancelToken,
            after: u64,
            watermark: u64,
        }
        impl ItemsetSink for CancellingSink {
            fn emit(&mut self, itemset: &[Item], support: u64) {
                self.inner.emit(itemset, support);
            }
            fn progress(&mut self, p: MineProgress<'_>) -> Result<(), CfpError> {
                if let MineProgress::Items { done } = p {
                    self.watermark = done;
                    if done >= self.after {
                        self.cancel.cancel();
                    }
                }
                Ok(())
            }
        }

        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(4242);
        let mut db = TransactionDb::new();
        for _ in 0..60 {
            let t: Vec<Item> = (0..12).filter(|_| rng.gen_bool(0.5)).collect();
            db.push(&t);
        }
        let miner = CfpGrowthMiner::new();
        let mut full = CollectSink::new();
        miner.try_mine(&db, 3, &mut full).unwrap();

        for after in [1u64, 3, 7] {
            let cancel = CancelToken::new();
            let mut first = CancellingSink {
                inner: CollectSink::new(),
                cancel: cancel.clone(),
                after,
                watermark: 0,
            };
            let opts = MineOpts { cancel: Some(cancel), ..Default::default() };
            let err = miner.try_mine_with(&db, 3, &mut first, &opts).expect_err("cancelled");
            assert_eq!(err.exit_code(), 8, "{err}");
            assert_eq!(first.watermark, after, "stops at the first boundary past the trigger");

            let opts = MineOpts { resume_skip: first.watermark, ..Default::default() };
            let mut second = CollectSink::new();
            miner.try_mine_with(&db, 3, &mut second, &opts).unwrap();

            let mut joined = first.inner.itemsets;
            joined.extend(second.itemsets);
            assert_eq!(
                joined, full.itemsets,
                "pre-cancel + post-resume emission must equal the uninterrupted run (after={after})"
            );
        }
    }

    #[test]
    fn deep_recursion_on_dense_block() {
        // A dense block: every transaction holds most of 14 items, so
        // conditional trees nest deeply.
        use cfp_data::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut db = TransactionDb::new();
        for _ in 0..50 {
            let t: Vec<Item> = (0..14).filter(|_| rng.gen_bool(0.8)).collect();
            db.push(&t);
        }
        let got = mine_collect(&db, 10, true);
        assert_eq!(got, fp_collect(&db, 10));
        assert!(!got.is_empty());
    }
}
