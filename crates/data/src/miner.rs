//! The common interface implemented by every mining algorithm in the
//! workspace, and the output sinks results are streamed into.
//!
//! A frequent-itemset miner can emit millions of itemsets; materializing
//! them all defeats the paper's memory story. Miners therefore push each
//! frequent itemset into an [`ItemsetSink`], and callers choose a sink that
//! matches their need: counting only, collecting, keeping the top-k, or a
//! histogram by cardinality.
//!
//! Itemsets are always emitted with *original* item identifiers, sorted
//! ascending, so results from different algorithms are directly comparable.

use crate::types::{Item, TransactionDb};
use cfp_fault::CfpError;
use std::collections::BinaryHeap;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Which itemsets a mining run reports.
///
/// `All` is the classic behaviour. The condensed modes are *first-class
/// miners*, not post-hoc filters: closure checking, maximality pruning
/// and the rising top-k support bound run inside the CFP-growth
/// recursion, so the full frequent set is never materialized.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutputMode {
    /// Every frequent itemset.
    #[default]
    All,
    /// Only closed itemsets: no proper superset has equal support.
    Closed,
    /// Only maximal itemsets: no proper superset is frequent.
    Maximal,
    /// The `k` highest-support itemsets, ties broken lexicographically
    /// (smaller itemset wins), emitted sorted at the end of the run.
    TopK(usize),
}

impl OutputMode {
    /// True for the modes whose emission depends on previously emitted
    /// itemsets (closed/maximal subsumption indexes).
    pub fn is_condensed(&self) -> bool {
        matches!(self, OutputMode::Closed | OutputMode::Maximal)
    }
}

impl fmt::Display for OutputMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutputMode::All => f.write_str("all"),
            OutputMode::Closed => f.write_str("closed"),
            OutputMode::Maximal => f.write_str("maximal"),
            OutputMode::TopK(k) => write!(f, "topk:{k}"),
        }
    }
}

impl FromStr for OutputMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "all" => Ok(OutputMode::All),
            "closed" => Ok(OutputMode::Closed),
            "maximal" => Ok(OutputMode::Maximal),
            _ => match s.strip_prefix("topk:") {
                Some(n) => match n.parse::<usize>() {
                    Ok(k) if k >= 1 => Ok(OutputMode::TopK(k)),
                    Ok(_) => Err(format!("invalid output mode '{s}': topk wants k >= 1")),
                    Err(_) => Err(format!("invalid output mode '{s}': topk wants an integer")),
                },
                None => {
                    Err(format!("invalid output mode '{s}' (expected all|closed|maximal|topk:N)"))
                }
            },
        }
    }
}

/// A resumable-boundary notification delivered to
/// [`ItemsetSink::progress`].
///
/// Miners guarantee that when a notification arrives, every itemset of
/// the completed units (and nothing of any later unit) has already been
/// emitted — the sink's byte stream sits at an exact watermark, which is
/// what makes checkpoint/resume exact.
#[derive(Clone, Copy, Debug)]
pub enum MineProgress<'a> {
    /// `done` top-level items are fully emitted. CFP-growth mines
    /// first-level items in descending recoded order, so `done = d`
    /// means items `n-1, n-2, …, n-d` are finished.
    Items {
        /// Completed top-level items.
        done: u64,
    },
    /// `done` spill partitions are fully emitted; `remaining` holds the
    /// not-yet-mined `(lo, hi)` recoded item ranges in the exact order
    /// the rung will process them.
    SpillParts {
        /// Completed spill partitions.
        done: u64,
        /// Unmined ranges, in processing order.
        remaining: &'a [(u32, u32)],
    },
}

/// Receives frequent itemsets as they are discovered.
pub trait ItemsetSink {
    /// Called once per frequent itemset. `itemset` contains original item
    /// ids sorted ascending; `support` is its exact support count.
    fn emit(&mut self, itemset: &[Item], support: u64);

    /// Called at each resumable boundary (see [`MineProgress`]). The
    /// default ignores it; checkpointing sinks override it to flush
    /// output and commit a manifest. An `Err` aborts the run.
    fn progress(&mut self, progress: MineProgress<'_>) -> Result<(), CfpError> {
        let _ = progress;
        Ok(())
    }
}

/// Counts itemsets without storing them.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Number of itemsets emitted.
    pub count: u64,
    /// Sum of supports, a cheap checksum for cross-algorithm comparisons.
    pub support_sum: u64,
    /// Sum of cardinalities.
    pub item_sum: u64,
}

impl CountingSink {
    /// A fresh counting sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ItemsetSink for CountingSink {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        self.count += 1;
        self.support_sum += support;
        self.item_sum += itemset.len() as u64;
    }
}

/// Collects all itemsets into a vector.
#[derive(Debug, Default)]
pub struct CollectSink {
    /// The collected `(itemset, support)` pairs, in emission order.
    pub itemsets: Vec<(Vec<Item>, u64)>,
}

impl CollectSink {
    /// A fresh collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorts results canonically (by itemset contents) for comparisons.
    pub fn into_sorted(mut self) -> Vec<(Vec<Item>, u64)> {
        self.itemsets.sort();
        self.itemsets
    }
}

impl ItemsetSink for CollectSink {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        self.itemsets.push((itemset.to_vec(), support));
    }
}

/// Keeps the `k` itemsets with the highest support.
///
/// Ties at the cut-off are broken *lexicographically* (the smaller
/// itemset wins), so the retained set — and therefore the output of a
/// top-k run — is a deterministic function of the emitted multiset,
/// independent of emission order, thread count, or schedule.
#[derive(Debug)]
pub struct TopKSink {
    k: usize,
    // Min-heap (via the outer Reverse) ordered by "goodness": higher
    // support is better, and among equal supports the lexicographically
    // smaller itemset is better (hence the inner Reverse on the
    // itemset). `pop` therefore evicts the worst retained entry.
    heap: BinaryHeap<std::cmp::Reverse<(u64, std::cmp::Reverse<Vec<Item>>)>>,
}

impl TopKSink {
    /// Keeps the top `k` itemsets by support.
    pub fn new(k: usize) -> Self {
        TopKSink { k, heap: BinaryHeap::with_capacity(k + 1) }
    }

    /// Support of the worst retained itemset once `k` are held; 0 while
    /// the heap is still filling. A streaming miner may prune any
    /// candidate whose support is *strictly* below this bound.
    pub fn bound(&self) -> u64 {
        if self.heap.len() < self.k {
            return 0;
        }
        self.heap.peek().map_or(0, |r| r.0 .0)
    }

    /// The retained itemsets, highest support first, ties in ascending
    /// lexicographic order.
    pub fn into_sorted(self) -> Vec<(Vec<Item>, u64)> {
        let mut v: Vec<(u64, std::cmp::Reverse<Vec<Item>>)> =
            self.heap.into_iter().map(|r| r.0).collect();
        v.sort_by(|a, b| b.cmp(a));
        v.into_iter().map(|(s, i)| (i.0, s)).collect()
    }
}

impl ItemsetSink for TopKSink {
    fn emit(&mut self, itemset: &[Item], support: u64) {
        if self.k == 0 {
            return;
        }
        self.heap.push(std::cmp::Reverse((support, std::cmp::Reverse(itemset.to_vec()))));
        if self.heap.len() > self.k {
            self.heap.pop();
        }
    }
}

/// Histogram of itemset cardinalities (index = cardinality).
#[derive(Debug, Default)]
pub struct LengthHistogramSink {
    /// `buckets[k]` = number of frequent itemsets of cardinality `k`.
    pub buckets: Vec<u64>,
}

impl LengthHistogramSink {
    /// A fresh histogram.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ItemsetSink for LengthHistogramSink {
    fn emit(&mut self, itemset: &[Item], _support: u64) {
        let k = itemset.len();
        if self.buckets.len() <= k {
            self.buckets.resize(k + 1, 0);
        }
        self.buckets[k] += 1;
    }
}

/// Discards everything (pure throughput measurement).
#[derive(Debug, Default)]
pub struct NullSink;

impl ItemsetSink for NullSink {
    fn emit(&mut self, _itemset: &[Item], _support: u64) {}
}

/// Execution statistics returned by every miner.
#[derive(Clone, Debug, Default)]
pub struct MineStats {
    /// Number of frequent itemsets emitted.
    pub itemsets: u64,
    /// Time of the counting scan (pass 1).
    pub scan_time: Duration,
    /// Time to build the algorithm's main structure (pass 2).
    pub build_time: Duration,
    /// Time to convert between build- and mine-phase structures
    /// (zero for algorithms without a conversion step).
    pub convert_time: Duration,
    /// Time of the mine phase.
    pub mine_time: Duration,
    /// Peak bytes of the algorithm's data structures.
    pub peak_bytes: u64,
    /// Average bytes across phase checkpoints (0 if not tracked).
    pub avg_bytes: u64,
    /// Logical nodes of the initial prefix tree (0 for tree-less miners).
    pub tree_nodes: u64,
    /// Per-worker peak bytes of conditional structures (empty for
    /// sequential miners; one entry per worker thread otherwise).
    pub worker_peaks: Vec<u64>,
    /// First-level item tasks each worker claimed and processed (empty
    /// for sequential miners).
    pub worker_tasks: Vec<u64>,
    /// Summed estimated cost (encoded subarray bytes) of the tasks each
    /// worker processed (empty for sequential miners). The max/min ratio
    /// across workers is the load-imbalance measure the skew benchmark
    /// reports.
    pub worker_costs: Vec<u64>,
}

impl MineStats {
    /// Total wall time across all phases.
    pub fn total_time(&self) -> Duration {
        self.scan_time + self.build_time + self.convert_time + self.mine_time
    }
}

/// A frequent-itemset mining algorithm.
pub trait Miner {
    /// Short identifier used in benchmark tables (e.g. `"cfp-growth"`).
    fn name(&self) -> &'static str;

    /// Mines all itemsets with support ≥ `min_support` from `db`,
    /// emitting each into `sink`, and returns execution statistics.
    fn mine(&self, db: &TransactionDb, min_support: u64, sink: &mut dyn ItemsetSink) -> MineStats;

    /// Fallible [`mine`](Self::mine): miners with recoverable failure
    /// modes (memory budgets, contained worker panics) override this to
    /// report a structured [`CfpError`] instead of panicking. The default
    /// simply delegates to `mine`, so the eight baseline miners keep
    /// their infallible behaviour unchanged.
    fn try_mine(
        &self,
        db: &TransactionDb,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
    ) -> Result<MineStats, CfpError> {
        Ok(self.mine(db, min_support, sink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_accumulates() {
        let mut s = CountingSink::new();
        s.emit(&[1, 2], 10);
        s.emit(&[3], 5);
        assert_eq!(s.count, 2);
        assert_eq!(s.support_sum, 15);
        assert_eq!(s.item_sum, 3);
    }

    #[test]
    fn collect_sink_sorts_canonically() {
        let mut s = CollectSink::new();
        s.emit(&[2], 1);
        s.emit(&[1, 3], 4);
        s.emit(&[1], 9);
        let v = s.into_sorted();
        assert_eq!(v, vec![(vec![1], 9), (vec![1, 3], 4), (vec![2], 1)]);
    }

    #[test]
    fn topk_keeps_highest_supports() {
        let mut s = TopKSink::new(2);
        s.emit(&[1], 5);
        s.emit(&[2], 50);
        s.emit(&[3], 20);
        s.emit(&[4], 1);
        let v = s.into_sorted();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], (vec![2], 50));
        assert_eq!(v[1], (vec![3], 20));
    }

    #[test]
    fn topk_zero_is_a_null_sink() {
        let mut s = TopKSink::new(0);
        s.emit(&[1], 5);
        assert!(s.into_sorted().is_empty());
    }

    #[test]
    fn topk_breaks_support_ties_lexicographically() {
        // Four itemsets tie at support 7; only two fit. The retained
        // pair must be the lexicographically smallest two, regardless of
        // emission order — repeat with the reverse order to prove it.
        for rev in [false, true] {
            let mut emits: Vec<Vec<Item>> = vec![vec![9], vec![2, 4], vec![2, 3], vec![1, 100]];
            if rev {
                emits.reverse();
            }
            let mut s = TopKSink::new(2);
            for e in &emits {
                s.emit(e, 7);
            }
            let v = s.into_sorted();
            assert_eq!(v, vec![(vec![1, 100], 7), (vec![2, 3], 7)]);
        }
    }

    #[test]
    fn topk_bound_rises_as_the_heap_fills() {
        let mut s = TopKSink::new(2);
        assert_eq!(s.bound(), 0);
        s.emit(&[1], 5);
        assert_eq!(s.bound(), 0, "bound is inactive until k are held");
        s.emit(&[2], 9);
        assert_eq!(s.bound(), 5);
        s.emit(&[3], 7);
        assert_eq!(s.bound(), 7);
    }

    #[test]
    fn output_mode_parses_and_displays() {
        assert_eq!("all".parse::<OutputMode>().unwrap(), OutputMode::All);
        assert_eq!("closed".parse::<OutputMode>().unwrap(), OutputMode::Closed);
        assert_eq!("maximal".parse::<OutputMode>().unwrap(), OutputMode::Maximal);
        assert_eq!("topk:50".parse::<OutputMode>().unwrap(), OutputMode::TopK(50));
        for bad in ["topk:0", "topk:x", "topk:", "frequent", "", "topk:-3"] {
            assert!(bad.parse::<OutputMode>().is_err(), "{bad} must not parse");
        }
        for m in [OutputMode::All, OutputMode::Closed, OutputMode::Maximal, OutputMode::TopK(7)] {
            assert_eq!(m.to_string().parse::<OutputMode>().unwrap(), m, "round trip {m}");
        }
        assert!(OutputMode::Closed.is_condensed());
        assert!(!OutputMode::TopK(3).is_condensed());
    }

    #[test]
    fn length_histogram_buckets_by_cardinality() {
        let mut s = LengthHistogramSink::new();
        s.emit(&[1], 1);
        s.emit(&[1, 2], 1);
        s.emit(&[3, 4], 1);
        assert_eq!(s.buckets, vec![0, 1, 2]);
    }

    #[test]
    fn mine_stats_total_time_sums_phases() {
        let st = MineStats {
            scan_time: Duration::from_millis(1),
            build_time: Duration::from_millis(2),
            convert_time: Duration::from_millis(3),
            mine_time: Duration::from_millis(4),
            ..Default::default()
        };
        assert_eq!(st.total_time(), Duration::from_millis(10));
    }
}
