//! The first database scan: support counting and support-ordered recoding.
//!
//! FP-growth's first pass counts the support of every item; only frequent
//! items are retained, and the items of each transaction are then sorted in
//! descending order of support (§2.1). This module implements that pass and
//! the *recoding* used throughout the workspace: frequent items receive
//! dense new identifiers `0..n` assigned in descending support order (ties
//! broken by original id, so recoding is deterministic). Recoded ids have
//! two properties the compressed structures rely on:
//!
//! - sorting a transaction by descending support = sorting recoded ids
//!   ascending, and
//! - ids strictly increase along every root-to-leaf tree path, so the
//!   `Δitem` delta to the parent is always ≥ 1.

use crate::types::{Item, TransactionDb};
use cfp_metrics::HeapSize;

/// Adds one transaction to a growable support-count table. A FIMI
/// transaction may repeat an item; support counts presence, not
/// multiplicity, so a duplicate within the transaction counts once.
pub fn count_transaction(transaction: &[Item], counts: &mut Vec<u64>) {
    for (i, &item) in transaction.iter().enumerate() {
        if transaction[..i].contains(&item) {
            continue;
        }
        if counts.len() <= item as usize {
            counts.resize(item as usize + 1, 0);
        }
        counts[item as usize] += 1;
    }
}

/// Counts the support of every item in `db`.
///
/// Returns a vector indexed by item id (length `max_item + 1`).
pub fn count_supports(db: &TransactionDb) -> Vec<u64> {
    let mut counts = vec![0u64; db.max_item().map_or(0, |m| m as usize + 1)];
    for t in db.iter() {
        count_transaction(t, &mut counts);
    }
    counts
}

/// Maps frequent items to dense ids in descending support order.
#[derive(Clone, Debug)]
pub struct ItemRecoder {
    /// `old -> new + 1`; 0 means infrequent (filtered out).
    old_to_new: Vec<u32>,
    /// `new -> old`.
    new_to_old: Vec<Item>,
    /// Support per *new* id (non-increasing).
    supports: Vec<u64>,
}

impl ItemRecoder {
    /// Builds a recoder from per-item supports and a minimum support.
    pub fn from_supports(supports_by_item: &[u64], min_support: u64) -> Self {
        let mut frequent: Vec<Item> = (0..supports_by_item.len() as u32)
            .filter(|&i| supports_by_item[i as usize] >= min_support)
            .collect();
        // Descending support, ascending original id for determinism.
        frequent.sort_by(|&a, &b| {
            supports_by_item[b as usize].cmp(&supports_by_item[a as usize]).then(a.cmp(&b))
        });
        let mut old_to_new = vec![0u32; supports_by_item.len()];
        let mut supports = Vec::with_capacity(frequent.len());
        for (new, &old) in frequent.iter().enumerate() {
            old_to_new[old as usize] = new as u32 + 1;
            supports.push(supports_by_item[old as usize]);
        }
        ItemRecoder { old_to_new, new_to_old: frequent, supports }
    }

    /// Runs the first scan over `db` and builds the recoder.
    pub fn scan(db: &TransactionDb, min_support: u64) -> Self {
        Self::from_supports(&count_supports(db), min_support)
    }

    /// Number of frequent items.
    pub fn num_items(&self) -> usize {
        self.new_to_old.len()
    }

    /// New id of `old`, or `None` if the item is infrequent.
    #[inline]
    pub fn recode(&self, old: Item) -> Option<u32> {
        match self.old_to_new.get(old as usize) {
            Some(&v) if v != 0 => Some(v - 1),
            _ => None,
        }
    }

    /// Original id of a recoded item.
    #[inline]
    pub fn original(&self, new: u32) -> Item {
        self.new_to_old[new as usize]
    }

    /// Support of a recoded item.
    #[inline]
    pub fn support(&self, new: u32) -> u64 {
        self.supports[new as usize]
    }

    /// Supports indexed by new id (non-increasing).
    pub fn supports(&self) -> &[u64] {
        &self.supports
    }

    /// Recodes a transaction into `out`: infrequent items dropped,
    /// duplicates removed, result sorted ascending (= descending support).
    pub fn recode_transaction(&self, transaction: &[Item], out: &mut Vec<u32>) {
        out.clear();
        for &item in transaction {
            if let Some(new) = self.recode(item) {
                out.push(new);
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

impl HeapSize for ItemRecoder {
    fn heap_bytes(&self) -> u64 {
        self.old_to_new.heap_bytes() + self.new_to_old.heap_bytes() + self.supports.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> TransactionDb {
        // supports: 1 -> 3, 2 -> 2, 3 -> 4, 5 -> 1
        TransactionDb::from_rows(&[vec![1, 2, 3], vec![1, 3], vec![2, 3, 5], vec![3, 1]])
    }

    #[test]
    fn count_supports_ignores_duplicates_within_a_transaction() {
        let db = TransactionDb::from_rows(&[vec![4, 4, 4], vec![4]]);
        let counts = count_supports(&db);
        assert_eq!(counts[4], 2);
    }

    #[test]
    fn recoder_orders_by_descending_support() {
        let r = ItemRecoder::scan(&sample_db(), 2);
        // item 3 (support 4) -> 0, item 1 (support 3) -> 1, item 2 -> 2
        assert_eq!(r.num_items(), 3);
        assert_eq!(r.recode(3), Some(0));
        assert_eq!(r.recode(1), Some(1));
        assert_eq!(r.recode(2), Some(2));
        assert_eq!(r.recode(5), None, "support 1 < minsup 2");
        assert_eq!(r.original(0), 3);
        assert_eq!(r.support(0), 4);
        assert_eq!(r.supports(), &[4, 3, 2]);
    }

    #[test]
    fn ties_break_by_original_id() {
        let db = TransactionDb::from_rows(&[vec![9, 4], vec![4, 9]]);
        let r = ItemRecoder::scan(&db, 1);
        assert_eq!(r.recode(4), Some(0));
        assert_eq!(r.recode(9), Some(1));
    }

    #[test]
    fn recode_transaction_filters_sorts_dedups() {
        let r = ItemRecoder::scan(&sample_db(), 2);
        let mut out = Vec::new();
        r.recode_transaction(&[5, 2, 3, 2, 1], &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn recode_out_of_range_items_is_none() {
        let r = ItemRecoder::scan(&sample_db(), 2);
        assert_eq!(r.recode(1_000_000), None);
    }

    #[test]
    fn empty_db_yields_empty_recoder() {
        let r = ItemRecoder::scan(&TransactionDb::new(), 1);
        assert_eq!(r.num_items(), 0);
    }

    #[test]
    fn min_support_zero_keeps_everything_present() {
        let r = ItemRecoder::scan(&sample_db(), 1);
        assert_eq!(r.num_items(), 4);
    }
}
