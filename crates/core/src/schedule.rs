//! Mine-phase scheduling for runs with several workers.
//!
//! The mine phase decomposes into one independent task per first-level
//! item, but task costs are wildly skewed: a few high-support items own
//! most of the CFP-array and dominate the conditional recursion, exactly
//! the imbalance FIMI datasets exhibit. A fixed round-robin deal would fix
//! each worker's item set up front, so whichever worker drew the heavy
//! items would finish last while the rest idle.
//!
//! [`TaskQueue`] claims dynamically instead: items are sorted
//! heaviest-first by an O(1) cost estimate (the encoded byte length of
//! each item's subarray, straight from [`cfp_array::CfpArray::starts`])
//! and workers pull from a shared cursor. Heavy items are claimed one at a
//! time — the longest-processing-time-first greedy rule, which keeps the
//! completion-time spread within one task of optimal — while the cheap
//! tail is claimed in chunks so the cursor is not hammered once per
//! trivial item.

use cfp_array::CfpArray;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cheap items are claimed in runs of this many to amortise the cursor
/// CAS; heavy items always go one at a time.
const CHUNK: usize = 8;

/// A shared, lock-free queue of first-level item tasks, sorted
/// heaviest-first.
///
/// The queue is a sorted vector plus an atomic cursor: claiming is a
/// compare-and-swap advancing the cursor by one (heavy task) or up to
/// [`CHUNK`] (cheap tail). Nothing is ever pushed back, so ABA problems
/// cannot arise and no locks are needed.
pub(crate) struct TaskQueue {
    /// First-level items, heaviest first (ties broken by descending item
    /// id so the order is deterministic).
    order: Vec<u32>,
    /// Estimated cost of `order[i]`: the item's encoded subarray bytes.
    costs: Vec<u64>,
    /// Next unclaimed position in `order`.
    cursor: AtomicUsize,
    /// Costs strictly above this claim singly; the rest claim chunked.
    heavy_threshold: u64,
}

impl TaskQueue {
    /// Builds the queue for every first-level item of `array`.
    #[cfg(test)]
    pub fn new(array: &CfpArray) -> Self {
        Self::with_limit(array, array.num_items() as u32)
    }

    /// Builds the queue for items `0 .. max_item` only — the resume
    /// path's constructor: items `max_item .. n` were fully emitted by a
    /// previous run (mining walks items in descending order) and must
    /// not be re-claimed.
    pub fn with_limit(array: &CfpArray, max_item: u32) -> Self {
        let n = (array.num_items() as u32).min(max_item);
        let mut order: Vec<u32> = (0..n).collect();
        // Heaviest first; descending item id on ties keeps the order (and
        // therefore chunk boundaries) deterministic across runs.
        order.sort_by_key(|&item| {
            (std::cmp::Reverse(array.subarray_bytes(item)), std::cmp::Reverse(item))
        });
        let costs: Vec<u64> = order.iter().map(|&item| array.subarray_bytes(item)).collect();
        let total: u64 = costs.iter().sum();
        let heavy_threshold = if costs.is_empty() { 0 } else { total / costs.len() as u64 };
        TaskQueue { order, costs, cursor: AtomicUsize::new(0), heavy_threshold }
    }

    /// Number of item tasks in the queue.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// The item at queue position `slot`.
    pub fn item(&self, slot: usize) -> u32 {
        self.order[slot]
    }

    /// The estimated cost of the task at queue position `slot`.
    pub fn cost(&self, slot: usize) -> u64 {
        self.costs[slot]
    }

    /// Claims the next run of tasks: returns the half-open slot range
    /// `[start, start + len)`, or `None` when the queue is drained.
    ///
    /// A task costing strictly more than the mean claims alone, so a
    /// worker stuck on it cannot also hold cheap items hostage; once the
    /// cursor reaches the cheap tail, claims widen to [`CHUNK`].
    pub fn claim(&self) -> Option<(usize, usize)> {
        loop {
            let start = self.cursor.load(Ordering::Relaxed);
            if start >= self.order.len() {
                return None;
            }
            let want = if self.costs[start] > self.heavy_threshold {
                1
            } else {
                CHUNK.min(self.order.len() - start)
            };
            if self
                .cursor
                .compare_exchange_weak(start, start + want, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Some((start, want));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfp_data::TransactionDb;

    fn queue_for(rows: &[Vec<u32>], minsup: u64) -> TaskQueue {
        let (_, tree) =
            crate::growth::try_build_tree(&TransactionDb::from_rows(rows), minsup, None)
                .expect("build");
        TaskQueue::new(&cfp_array::convert(&tree))
    }

    #[test]
    fn queue_is_sorted_heaviest_first_and_covers_every_item() {
        let q = queue_for(
            &[vec![1, 2, 3, 4], vec![1, 2, 3], vec![1, 2], vec![1], vec![2, 3, 4], vec![3]],
            1,
        );
        for w in q.costs.windows(2) {
            assert!(w[0] >= w[1], "queue not sorted by descending cost: {:?}", q.costs);
        }
        let mut items: Vec<u32> = q.order.clone();
        items.sort_unstable();
        assert_eq!(items, (0..q.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn claims_drain_the_queue_exactly_once() {
        let q = queue_for(&vec![vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]; 3], 1);
        let mut seen = vec![false; q.len()];
        while let Some((start, len)) = q.claim() {
            for (slot, claimed) in seen.iter_mut().enumerate().skip(start).take(len) {
                assert!(!*claimed, "slot {slot} claimed twice");
                *claimed = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "queue drained with unclaimed slots");
        assert!(q.claim().is_none(), "drained queue must stay drained");
    }

    #[test]
    fn limited_queue_excludes_completed_items() {
        let (_, tree) = crate::growth::try_build_tree(
            &TransactionDb::from_rows(&vec![vec![0u32, 1, 2, 3, 4, 5]; 3]),
            1,
            None,
        )
        .unwrap();
        let array = cfp_array::convert(&tree);
        let q = TaskQueue::with_limit(&array, 4);
        assert_eq!(q.len(), 4);
        let mut items: Vec<u32> = q.order.clone();
        items.sort_unstable();
        assert_eq!(items, vec![0, 1, 2, 3], "items ≥ max_item are already mined");
        let q = TaskQueue::with_limit(&array, 99);
        assert_eq!(q.len(), array.num_items(), "limit clamps to the item count");
    }

    #[test]
    fn empty_array_yields_no_claims() {
        let (_, tree) = crate::growth::try_build_tree(&TransactionDb::new(), 1, None).unwrap();
        let q = TaskQueue::new(&cfp_array::convert(&tree));
        assert_eq!(q.len(), 0);
        assert!(q.claim().is_none());
    }

    #[test]
    fn concurrent_claims_partition_the_queue() {
        let q = std::sync::Arc::new(queue_for(&vec![(0..32u32).collect::<Vec<_>>(); 4], 1));
        let claimed: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let q = std::sync::Arc::clone(&q);
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some((start, len)) = q.claim() {
                            mine.extend(start..start + len);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = claimed.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..q.len()).collect::<Vec<_>>(), "claims must partition the slots");
    }
}
