//! Item-range partitioning of a transaction database for fallback
//! mining under a memory budget.
//!
//! When the monolithic CFP-tree does not fit, Grahne & Zhu's partitioning
//! scheme (PAPERS.md, "Mining Frequent Itemsets from Secondary Memory")
//! still yields *exact* results: split the frequent items — in the global
//! support-descending recode order — into `k` disjoint ranges
//! `[lo, hi)`, and for each range build the projection
//!
//! > `DB_j = { t ∩ items(0..hi) : t ∈ DB, t contains an item in [lo, hi) }`
//!
//! Mining `DB_j` in full and keeping only itemsets whose *maximum*
//! global-recoded item falls in `[lo, hi)` gives every such itemset its
//! exact global support: a transaction contains the itemset iff it
//! contains the itemset's maximum item (which is in the range, so the
//! transaction is in `DB_j`) and all its other items (all recoded below
//! `hi`, so the projection kept them). Each itemset has exactly one
//! maximum item and therefore belongs to exactly one range — the union
//! over ranges is the exact global result, merged by concatenation.
//!
//! Ranges are balanced by *support mass* rather than item count: an
//! item's support bounds the number of tree nodes it can contribute, so
//! equal-mass ranges give roughly equal projection footprints.

use crate::count::{count_transaction, ItemRecoder};
use crate::source::{Counts, Source};
use crate::types::{Item, TransactionDb};
use cfp_fault::CfpError;

/// Splits the recoded item domain `[0, num_items)` into `k` contiguous
/// ranges `(lo, hi)` of roughly equal support mass.
///
/// `k` is clamped to `[1, num_items]`; the returned ranges are disjoint,
/// non-empty, and cover the whole domain in order. Returns an empty
/// vector when the recoder holds no frequent items.
pub fn ranges_by_mass(recoder: &ItemRecoder, k: usize) -> Vec<(u32, u32)> {
    let n = recoder.num_items();
    if n == 0 {
        return Vec::new();
    }
    let k = k.clamp(1, n);
    let total: u64 = recoder.supports().iter().sum();
    let mut ranges = Vec::with_capacity(k);
    let mut cum = 0u64;
    let mut lo = 0usize;
    for j in 0..k {
        // Leave at least one item for each of the remaining ranges.
        let max_hi = n - (k - 1 - j);
        let goal = (j as u64 + 1) * total / k as u64;
        cum += recoder.support(lo as u32);
        let mut hi = lo + 1;
        while hi < max_hi && cum < goal {
            cum += recoder.support(hi as u32);
            hi += 1;
        }
        if j == k - 1 {
            hi = n;
        }
        ranges.push((lo as u32, hi as u32));
        lo = hi;
    }
    ranges
}

/// Builds the projection `DB_j` of `source` for the recoded item range
/// `[lo, hi)` under `recoder`'s global order, in one sequential pass (the
/// secondary-memory strategy of Grahne & Zhu), counting it as it is cut.
///
/// A transaction enters the projection iff it contains a frequent item
/// whose recoded id is in `[lo, hi)`; of its items, those recoded below
/// `hi` are kept (mapped back to *original* ids, so the projection is a
/// self-contained database any miner can run on). Infrequent items are
/// dropped — they cannot appear in any frequent itemset, and any item of
/// a globally frequent itemset is also frequent within the projection
/// (its projected support is at least the itemset's global support).
/// Projecting a projection of a range containing `[lo, hi)` gives the
/// same database as projecting the whole source.
pub fn project(
    source: &Source<'_>,
    recoder: &ItemRecoder,
    lo: u32,
    hi: u32,
) -> Result<Source<'static>, CfpError> {
    let (mut out, mut counts) = (TransactionDb::new(), Counts::default());
    let (mut recoded, mut items): (Vec<u32>, Vec<Item>) = (Vec::new(), Vec::new());
    source.for_each(|t| {
        recoder.recode_transaction(t, &mut recoded);
        if recoded.iter().any(|&i| lo <= i && i < hi) {
            items.clear();
            items.extend(recoded.iter().filter(|&&i| i < hi).map(|&i| recoder.original(i)));
            items.sort_unstable();
            count_transaction(&items, &mut counts.supports);
            out.push(&items);
        }
        Ok(())
    })?;
    counts.transactions = out.len() as u64;
    Ok(Source::counted(out, counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The projection's transactions, checked against its cached counts.
    fn project_rows(db: &TransactionDb, recoder: &ItemRecoder, lo: u32, hi: u32) -> Vec<Vec<Item>> {
        let proj = project(&Source::from(db), recoder, lo, hi).unwrap();
        let mut rows = Vec::new();
        proj.for_each(|t| {
            rows.push(t.to_vec());
            Ok(())
        })
        .unwrap();
        let recount = TransactionDb::from_rows(&rows);
        let counts = proj.counts().unwrap();
        assert_eq!(counts.transactions, rows.len() as u64);
        assert_eq!(counts.recoder(1).supports(), ItemRecoder::scan(&recount, 1).supports());
        rows
    }

    /// The textbook dataset used across the workspace (items 1..=5).
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

    #[test]
    fn ranges_cover_the_domain_disjointly() {
        let db = textbook();
        let recoder = ItemRecoder::scan(&db, 2);
        let n = recoder.num_items() as u32;
        for k in 1..=n as usize + 3 {
            let ranges = ranges_by_mass(&recoder, k);
            assert_eq!(ranges.len(), k.min(n as usize), "k={k}");
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges.last().unwrap().1, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "ranges must tile the domain");
                assert!(w[0].0 < w[0].1, "ranges must be non-empty");
            }
        }
    }

    #[test]
    fn ranges_balance_support_mass() {
        // Heavily skewed supports: one dominant item, many light ones.
        let mut rows = Vec::new();
        for i in 0..40u32 {
            rows.push(vec![0, 100 + i]); // item 0 in every transaction
            rows.push(vec![100 + i]);
        }
        let db = TransactionDb::from_rows(&rows);
        let recoder = ItemRecoder::scan(&db, 2);
        let ranges = ranges_by_mass(&recoder, 2);
        assert_eq!(ranges.len(), 2);
        // Ranges are balanced by mass, not item count: the first range
        // (led by the dominant item) must hold far fewer items than the
        // second, and the two masses must come out nearly equal.
        let mass = |(lo, hi): (u32, u32)| -> u64 { (lo..hi).map(|i| recoder.support(i)).sum() };
        let (m0, m1) = (mass(ranges[0]), mass(ranges[1]));
        assert!(ranges[0].1 - ranges[0].0 < ranges[1].1 - ranges[1].0, "{ranges:?}");
        let max_support = recoder.support(0);
        assert!(m0.abs_diff(m1) <= max_support, "masses {m0} vs {m1} out of balance");
    }

    #[test]
    fn empty_recoder_yields_no_ranges() {
        let db = TransactionDb::from_rows(&[vec![1], vec![2]]);
        let recoder = ItemRecoder::scan(&db, 5); // nothing frequent
        assert!(ranges_by_mass(&recoder, 4).is_empty());
    }

    #[test]
    fn projection_keeps_context_below_hi_and_filters_rows() {
        let db = textbook();
        let recoder = ItemRecoder::scan(&db, 2);
        let n = recoder.num_items() as u32;
        // The last range: rows must contain one of its items; all
        // frequent items are kept as context (hi == n).
        let lo = n - 1;
        let proj = project_rows(&db, &recoder, lo, n);
        let rare_original = recoder.original(n - 1);
        for t in proj.iter() {
            assert!(t.contains(&rare_original), "{t:?} lacks the range item");
        }
        // Every projected transaction is a subset of some original one.
        assert!(proj.len() <= db.len());

        // The first range keeps only items recoded below its hi.
        let (lo0, hi0) = (0u32, 1u32);
        let proj0 = project_rows(&db, &recoder, lo0, hi0);
        let top_original = recoder.original(0);
        for t in proj0.iter() {
            assert_eq!(t, &[top_original], "only the top item fits below hi=1");
        }
        // The top item is in 7 of the 9 textbook transactions (item 2
        // or item 1, both support 7 — whichever recodes first).
        assert_eq!(proj0.len(), 7);
    }

    #[test]
    fn projections_drop_infrequent_items() {
        let db = TransactionDb::from_rows(&[vec![1, 2, 99], vec![1, 2], vec![1, 2]]);
        let recoder = ItemRecoder::scan(&db, 2);
        let n = recoder.num_items() as u32;
        let proj = project_rows(&db, &recoder, 0, n);
        for t in proj.iter() {
            assert!(!t.contains(&99), "infrequent item must not survive projection");
        }
        assert_eq!(proj.len(), 3);
    }
}
