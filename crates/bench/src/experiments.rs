//! One function per table/figure of the paper's evaluation.

use crate::report::{mib, secs, Table};
use crate::run_miner;
use cfp_baselines::all_miners;
use cfp_core::CfpGrowthMiner;
use cfp_data::profiles::{self, DatasetProfile};
use cfp_data::{ItemRecoder, Miner, TransactionDb};
use cfp_fptree::{FpGrowthMiner, FpTree};
use cfp_metrics::HeapSize;
use cfp_tree::CfpTree;
use std::time::Duration;

/// Per-run wall-clock budget for Figure 8; algorithms exceeding it are
/// skipped at lower supports (the paper likewise stopped algorithms that
/// ran for hours). Override with `CFP_BUDGET_SECS`.
fn budget() -> Duration {
    let secs =
        std::env::var("CFP_BUDGET_SECS").ok().and_then(|v| v.parse::<u64>().ok()).unwrap_or(20);
    Duration::from_secs(secs)
}

fn webdocs_like() -> (DatasetProfile, TransactionDb) {
    let p = profiles::by_name("webdocs-like").expect("profile exists");
    let db = p.generate();
    (p, db)
}

/// Table 1: leading-zero-byte distribution of the FP-tree's seven fields
/// on the webdocs-shaped dataset at 10% minimum support.
pub fn table1() -> Table {
    let (p, db) = webdocs_like();
    let minsup = p.absolute_support(&db, 1); // the 10% level
    let recoder = ItemRecoder::scan(&db, minsup);
    let tree = FpTree::from_db(&db, &recoder);
    let stats = cfp_fptree::analysis::analyze(&tree);
    let mut t = Table::new(
        format!(
            "Table 1: leading zero bytes per FP-tree field (webdocs-like, minsup {minsup}, {} nodes)",
            tree.num_nodes()
        ),
        &["field", "0", "1", "2", "3", "4"],
    );
    for (name, hist) in stats.rows() {
        let mut cells = vec![name.to_string()];
        cells.extend(hist.paper_row().split('\t').map(str::to_string));
        t.push_row(cells);
    }
    t.push_row(vec![
        "zero-byte fraction".into(),
        format!("{:.0}%", stats.zero_byte_fraction() * 100.0),
    ]);
    t
}

/// Table 2: leading-zero-byte distribution of the CFP-tree's data fields
/// on the same workload.
pub fn table2() -> Table {
    let (p, db) = webdocs_like();
    let minsup = p.absolute_support(&db, 1);
    let recoder = ItemRecoder::scan(&db, minsup);
    let tree = CfpTree::from_db(&db, &recoder);
    let stats = cfp_tree::analysis::analyze(&tree);
    let mut t = Table::new(
        format!(
            "Table 2: leading zero bytes per CFP-tree field (webdocs-like, minsup {minsup}, {} nodes)",
            tree.num_nodes()
        ),
        &["field", "0", "1", "2", "3", "4"],
    );
    for (name, hist) in [("ditem", &stats.ditem), ("pcount", &stats.pcount)] {
        let mut cells = vec![name.to_string()];
        cells.extend(hist.paper_row().split('\t').map(str::to_string));
        t.push_row(cells);
    }
    t
}

/// Table 3: summary of the synthetic Quest datasets (scaled; see DESIGN.md).
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table 3: summary of datasets (scaled Quest configurations)",
        &["dataset", "transactions", "avg. itemcard.", "distinct items", "FIMI size"],
    );
    for name in ["quest1", "quest2"] {
        let p = profiles::by_name(name).expect("profile exists");
        let db = p.generate();
        let mut bytes = Vec::new();
        cfp_data::fimi::write(&db, &mut bytes).expect("in-memory write");
        t.push_row(vec![
            name.into(),
            cfp_metrics::fmt_count(db.len() as u64),
            format!("{:.1}", db.avg_transaction_len()),
            cfp_metrics::fmt_count(db.distinct_items() as u64),
            cfp_metrics::fmt_bytes(bytes.len() as u64),
        ]);
    }
    t
}

/// Figure 6(a): average node size of the ternary CFP-tree per dataset and
/// support level, with the reduction factor against the 40-byte baseline.
pub fn fig6a() -> Table {
    let mut t = Table::new(
        "Figure 6(a): avg. node size of the ternary CFP-tree (bytes; xN = reduction vs 40 B)",
        &["dataset", "high", "medium", "low", "nodes@low"],
    );
    for p in profiles::all() {
        let db = p.generate();
        let mut cells = vec![p.name.to_string()];
        let mut nodes_low = 0;
        for level in 0..3 {
            let minsup = p.absolute_support(&db, level);
            let recoder = ItemRecoder::scan(&db, minsup);
            let tree = CfpTree::from_db(&db, &recoder);
            let avg = tree.avg_node_bytes();
            cells.push(format!("{:.2} (x{:.0})", avg, 40.0 / avg.max(0.01)));
            nodes_low = tree.num_nodes();
        }
        cells.push(cfp_metrics::fmt_count(nodes_low));
        t.push_row(cells);
    }
    t
}

/// Figure 6(b): average node size of the CFP-array per dataset and
/// support level, plus the per-field byte split at the low level.
pub fn fig6b() -> Table {
    let mut t = Table::new(
        "Figure 6(b): avg. node size of the CFP-array (bytes; xN = reduction vs 40 B)",
        &["dataset", "high", "medium", "low", "ditem/dpos/count @low"],
    );
    for p in profiles::all() {
        let db = p.generate();
        let mut cells = vec![p.name.to_string()];
        let mut split = String::new();
        for level in 0..3 {
            let minsup = p.absolute_support(&db, level);
            let recoder = ItemRecoder::scan(&db, minsup);
            let tree = CfpTree::from_db(&db, &recoder);
            let array = cfp_core::convert(&tree);
            let avg = array.avg_node_bytes();
            cells.push(format!("{:.2} (x{:.0})", avg, 40.0 / avg.max(0.01)));
            let (d, p_, c) = cfp_array::stats::field_bytes(&array).per_node(array.num_nodes());
            split = format!("{d:.2}/{p_:.2}/{c:.2}");
        }
        cells.push(split);
        t.push_row(cells);
    }
    t
}

/// One support level of the Figure 7 sweep.
#[derive(Clone, Debug)]
pub struct Fig7Row {
    /// Absolute minimum support.
    pub minsup: u64,
    /// Initial FP-tree size in nodes (the paper's x-axis).
    pub tree_nodes: u64,
    /// FP-growth statistics.
    pub fp: cfp_data::MineStats,
    /// CFP-growth statistics.
    pub cfp: cfp_data::MineStats,
    /// Build-phase memory: FP-tree bytes.
    pub fp_build_bytes: u64,
    /// Build-phase memory: CFP-tree + CFP-array bytes (coexist during
    /// conversion, §3.5).
    pub cfp_build_bytes: u64,
}

/// Runs the Figure 7 support sweep on the Quest1 profile.
///
/// `fractions` are relative supports, descending; `None` uses the default
/// grid.
pub fn fig7_sweep(fractions: Option<&[f64]>) -> Vec<Fig7Row> {
    let default = [0.02, 0.012, 0.008, 0.005, 0.003, 0.002, 0.0015];
    let fractions = fractions.unwrap_or(&default);
    let p = profiles::by_name("quest1").expect("profile exists");
    let db = p.generate();
    let fp = FpGrowthMiner::new();
    let cfp = CfpGrowthMiner::new();
    let mut rows = Vec::new();
    for &f in fractions {
        let minsup = ((db.len() as f64 * f).ceil() as u64).max(1);
        let fp_stats = run_miner(&fp, &db, minsup);
        let cfp_stats = run_miner(&cfp, &db, minsup);
        assert_eq!(fp_stats.itemsets, cfp_stats.itemsets, "miners disagree at minsup {minsup}");
        // Build-phase memory measured directly on the structures.
        let recoder = ItemRecoder::scan(&db, minsup);
        let fp_tree = FpTree::from_db(&db, &recoder);
        let fp_build_bytes = fp_tree.heap_bytes();
        drop(fp_tree);
        let cfp_tree = CfpTree::from_db(&db, &recoder);
        let array = cfp_core::convert(&cfp_tree);
        let cfp_build_bytes = cfp_tree.heap_bytes() + array.heap_bytes();
        rows.push(Fig7Row {
            minsup,
            tree_nodes: fp_stats.tree_nodes,
            fp: fp_stats,
            cfp: cfp_stats,
            fp_build_bytes,
            cfp_build_bytes,
        });
    }
    rows
}

/// Figure 7(a): build(+convert) time vs. initial tree size.
pub fn fig7a(rows: &[Fig7Row]) -> Table {
    let mut t = Table::new(
        "Figure 7(a): build and conversion time vs. tree size (quest1, seconds)",
        &["minsup", "nodes", "scan", "fp build", "cfp build", "cfp convert", "cfp build+conv"],
    );
    for r in rows {
        t.push_row(vec![
            r.minsup.to_string(),
            cfp_metrics::fmt_count(r.tree_nodes),
            secs(r.cfp.scan_time),
            secs(r.fp.build_time),
            secs(r.cfp.build_time),
            secs(r.cfp.convert_time),
            secs(r.cfp.build_time + r.cfp.convert_time),
        ]);
    }
    t
}

/// Figure 7(b): memory consumption during the build phase.
pub fn fig7b(rows: &[Fig7Row]) -> Table {
    let mut t = Table::new(
        "Figure 7(b): build-phase memory vs. tree size (quest1, MiB)",
        &["minsup", "nodes", "fp-tree", "cfp-tree+array", "reduction"],
    );
    for r in rows {
        t.push_row(vec![
            r.minsup.to_string(),
            cfp_metrics::fmt_count(r.tree_nodes),
            mib(r.fp_build_bytes),
            mib(r.cfp_build_bytes),
            format!("x{:.1}", r.fp_build_bytes as f64 / r.cfp_build_bytes.max(1) as f64),
        ]);
    }
    t
}

/// Figure 7(c): total execution time.
pub fn fig7c(rows: &[Fig7Row]) -> Table {
    let mut t = Table::new(
        "Figure 7(c): total execution time vs. tree size (quest1, seconds)",
        &["minsup", "nodes", "itemsets", "fp-growth", "cfp-growth"],
    );
    for r in rows {
        t.push_row(vec![
            r.minsup.to_string(),
            cfp_metrics::fmt_count(r.tree_nodes),
            cfp_metrics::fmt_count(r.fp.itemsets),
            secs(r.fp.total_time()),
            secs(r.cfp.total_time()),
        ]);
    }
    t
}

/// Figure 7(d): peak (and average) memory over the whole run.
pub fn fig7d(rows: &[Fig7Row]) -> Table {
    let mut t = Table::new(
        "Figure 7(d): memory consumption vs. tree size (quest1, MiB)",
        &["minsup", "nodes", "fp peak", "cfp peak", "cfp avg", "reduction"],
    );
    for r in rows {
        t.push_row(vec![
            r.minsup.to_string(),
            cfp_metrics::fmt_count(r.tree_nodes),
            mib(r.fp.peak_bytes),
            mib(r.cfp.peak_bytes),
            mib(r.cfp.avg_bytes),
            format!("x{:.1}", r.fp.peak_bytes as f64 / r.cfp.peak_bytes.max(1) as f64),
        ]);
    }
    t
}

/// Which Quest dataset a Figure 8 run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuestSet {
    /// The Quest1 profile (Figures 8(a)–8(c)).
    Quest1,
    /// The Quest2 profile with twice the transactions (Figure 8(d)).
    Quest2,
}

/// Runs all algorithms over a support sweep on one Quest dataset and
/// returns (time table, peak-memory table). Covers Figures 8(a)–8(d):
/// 8(a)/8(b) compare the FP-growth-variant columns, 8(c)/8(d) the
/// FIMI-algorithm columns.
pub fn fig8(set: QuestSet, fractions: Option<&[f64]>) -> (Table, Table) {
    let default = [0.02, 0.012, 0.008, 0.005, 0.003, 0.002];
    let fractions = fractions.unwrap_or(&default);
    let profile_name = match set {
        QuestSet::Quest1 => "quest1",
        QuestSet::Quest2 => "quest2",
    };
    let db = profiles::by_name(profile_name).expect("profile exists").generate();

    let mut miners: Vec<Box<dyn Miner>> = vec![Box::new(CfpGrowthMiner::new())];
    miners.extend(all_miners());
    let names: Vec<&'static str> = miners.iter().map(|m| m.name()).collect();

    let mut headers = vec!["minsup", "itemsets"];
    headers.extend(names.iter().copied());
    let mut time_t =
        Table::new(format!("Figure 8 ({profile_name}): total execution time (seconds)"), &headers);
    let mut mem_t = Table::new(format!("Figure 8 ({profile_name}): peak memory (MiB)"), &headers);

    // An algorithm exceeding the budget is skipped at lower supports,
    // mirroring the paper's treatment of multi-hour runs.
    let mut over_budget = vec![false; miners.len()];
    for &f in fractions {
        let minsup = ((db.len() as f64 * f).ceil() as u64).max(1);
        let mut times = Vec::new();
        let mut mems = Vec::new();
        let mut itemsets: Option<u64> = None;
        for (i, m) in miners.iter().enumerate() {
            if over_budget[i] {
                times.push("skipped".to_string());
                mems.push("skipped".to_string());
                continue;
            }
            let stats = run_miner(m.as_ref(), &db, minsup);
            if let Some(expect) = itemsets {
                assert_eq!(stats.itemsets, expect, "{} disagrees at {minsup}", m.name());
            } else {
                itemsets = Some(stats.itemsets);
            }
            if stats.total_time() > budget() {
                over_budget[i] = true;
            }
            times.push(secs(stats.total_time()));
            mems.push(mib(stats.peak_bytes));
        }
        let mut trow = vec![minsup.to_string(), cfp_metrics::fmt_count(itemsets.unwrap_or(0))];
        trow.extend(times);
        time_t.push_row(trow);
        let mut mrow = vec![minsup.to_string(), cfp_metrics::fmt_count(itemsets.unwrap_or(0))];
        mrow.extend(mems);
        mem_t.push_row(mrow);
    }
    (time_t, mem_t)
}

/// Ablation of the CFP-tree's structural techniques: chain nodes and
/// embedded leaves toggled independently (the byte-level encodings are
/// inherent to the node format). Bytes per logical node, per profile at
/// the medium support level.
pub fn ablation() -> Table {
    use cfp_tree::CfpTreeConfig;
    let configs: [(&str, CfpTreeConfig); 4] = [
        ("full", CfpTreeConfig::default()),
        ("no-chains", CfpTreeConfig { max_chain_len: 0, embed_leaves: true }),
        ("no-embed", CfpTreeConfig { max_chain_len: 15, embed_leaves: false }),
        ("neither", CfpTreeConfig { max_chain_len: 0, embed_leaves: false }),
    ];
    let mut headers = vec!["dataset"];
    headers.extend(configs.iter().map(|(n, _)| *n));
    let mut t = Table::new(
        "Ablation: CFP-tree bytes/node with techniques disabled (medium support)",
        &headers,
    );
    for p in profiles::all() {
        let db = p.generate();
        let minsup = p.absolute_support(&db, 1);
        let recoder = ItemRecoder::scan(&db, minsup);
        let mut cells = vec![p.name.to_string()];
        let mut buf = Vec::new();
        for (_, cfg) in configs {
            let mut tree = cfp_tree::CfpTree::with_config(recoder.num_items(), cfg);
            for txn in db.iter() {
                recoder.recode_transaction(txn, &mut buf);
                tree.insert(&buf, 1);
            }
            if tree.num_nodes() == 0 {
                cells.push("-".into());
            } else {
                cells.push(format!("{:.2}", tree.avg_node_bytes()));
            }
        }
        t.push_row(cells);
    }
    t
}

/// The in-core capacity claim of §4.4: at a fixed memory budget, how many
/// prefix-tree nodes can each representation hold before spilling? The
/// paper reports CFP-growth staying in-core for 7.5x larger trees than
/// FP-growth; the ratio here follows directly from measured bytes/node.
pub fn capacity(budget_bytes: u64) -> Table {
    let mut t = Table::new(
        format!(
            "In-core capacity at a {} budget (nodes before spilling; mine-phase structures)",
            cfp_metrics::fmt_bytes(budget_bytes)
        ),
        &[
            "dataset",
            "fp-growth (40 B)",
            "fp-growth (28 B)",
            "cfp-growth",
            "capacity ratio vs 40 B",
        ],
    );
    for p in profiles::all() {
        let db = p.generate();
        let minsup = p.absolute_support(&db, 1);
        let recoder = ItemRecoder::scan(&db, minsup);
        let tree = CfpTree::from_db(&db, &recoder);
        if tree.num_nodes() == 0 {
            continue;
        }
        let array = cfp_core::convert(&tree);
        // During conversion tree and array coexist; afterwards only the
        // array remains, so capacity is bounded by the coexistence peak.
        let cfp_bytes_per_node =
            (tree.arena_used() + array.data_bytes()) as f64 / tree.num_nodes() as f64;
        let cap = |bpn: f64| (budget_bytes as f64 / bpn) as u64;
        t.push_row(vec![
            p.name.to_string(),
            cfp_metrics::fmt_count(cap(40.0)),
            cfp_metrics::fmt_count(cap(28.0)),
            cfp_metrics::fmt_count(cap(cfp_bytes_per_node)),
            format!("x{:.1}", 40.0 / cfp_bytes_per_node),
        ]);
    }
    t
}

/// Parallel mine-phase scaling on quest1 (the §5 class-4 extension).
pub fn parallel_scaling() -> Table {
    use cfp_core::ParallelCfpGrowthMiner;
    let p = profiles::by_name("quest1").expect("profile exists");
    let db = p.generate();
    let minsup = p.absolute_support(&db, 2);
    let seq = run_miner(&CfpGrowthMiner::new(), &db, minsup);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut t = Table::new(
        format!(
            "Parallel scaling (quest1, minsup {minsup}, {} itemsets, host has {cores} core(s))",
            cfp_metrics::fmt_count(seq.itemsets)
        ),
        &["threads", "total (s)", "mine (s)", "speedup vs 1 thread (mine)", "peak (MiB)"],
    );
    t.push_row(vec![
        "1".into(),
        secs(seq.total_time()),
        secs(seq.mine_time),
        "x1.0".into(),
        mib(seq.peak_bytes),
    ]);
    for threads in [2usize, 4, 8] {
        let stats = run_miner(&ParallelCfpGrowthMiner::new(threads), &db, minsup);
        assert_eq!(stats.itemsets, seq.itemsets, "parallel result mismatch");
        t.push_row(vec![
            threads.to_string(),
            secs(stats.total_time()),
            secs(stats.mine_time),
            format!("x{:.1}", seq.mine_time.as_secs_f64() / stats.mine_time.as_secs_f64()),
            mib(stats.peak_bytes),
        ]);
    }
    t
}

/// Per-worker cost of a fixed round-robin deal of the first-level items
/// (item `i` to worker `i mod threads`), under the cost estimate the
/// dynamic task queue sorts by: each item's encoded subarray bytes.
pub fn round_robin_costs(db: &TransactionDb, minsup: u64, threads: usize) -> Vec<u64> {
    let (_, tree) = cfp_core::build_tree(db, minsup);
    let array = cfp_core::convert(&tree);
    let mut costs = vec![0u64; threads];
    for item in 0..array.num_items() as u32 {
        costs[item as usize % threads] += array.subarray_bytes(item);
    }
    costs
}

/// Skew benchmark: mine-phase load balance on a heavy-tailed dataset,
/// a fixed round-robin deal vs. the dynamic work-stealing scheduler.
///
/// Reports per-worker cost (the max/min ratio is the imbalance measure)
/// at four workers: computed for the round-robin deal, measured for a
/// dynamic run together with its mine time and the scheduler's trace
/// counters (claims, steals, arena resets).
pub fn skew() -> Table {
    use cfp_core::ParallelCfpGrowthMiner;
    use cfp_trace::counters as tc;
    let p = profiles::by_name("kosarak-like").expect("profile exists");
    let db = p.generate();
    let minsup = p.absolute_support(&db, 2);
    let threads = 4;
    let mut t = Table::new(
        format!(
            "Skew benchmark: mine-phase load balance (kosarak-like, minsup {minsup}, {threads} workers)"
        ),
        &[
            "schedule",
            "mine (s)",
            "worker cost max/min",
            "worker tasks",
            "claims",
            "steals",
            "arena resets",
        ],
    );
    let imbalance = |costs: &[u64]| {
        let max = costs.iter().copied().max().unwrap_or(0);
        let min = costs.iter().copied().min().unwrap_or(0);
        format!("x{:.2}", max as f64 / min.max(1) as f64)
    };
    let dealt = round_robin_costs(&db, minsup, threads);
    let n = ItemRecoder::scan(&db, minsup).num_items();
    let dealt_tasks: Vec<String> =
        (0..threads).map(|w| (n / threads + usize::from(w < n % threads)).to_string()).collect();
    t.push_row(vec![
        "round-robin".into(),
        "-".into(),
        imbalance(&dealt),
        dealt_tasks.join("/"),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    let was_enabled = cfp_trace::enabled();
    cfp_trace::set_enabled(true);
    cfp_trace::reset();
    let stats = run_miner(&ParallelCfpGrowthMiner::new(threads), &db, minsup);
    let (claims, steals, resets) =
        (tc::CORE_TASKS_CLAIMED.get(), tc::CORE_TASKS_STOLEN.get(), tc::MEMMAN_RESETS.get());
    cfp_trace::set_enabled(was_enabled);
    let tasks: Vec<String> = stats.worker_tasks.iter().map(u64::to_string).collect();
    t.push_row(vec![
        "dynamic".into(),
        secs(stats.mine_time),
        imbalance(&stats.worker_costs),
        tasks.join("/"),
        claims.to_string(),
        steals.to_string(),
        resets.to_string(),
    ]);
    t
}

/// Headline compression summary: bytes per node of every representation.
pub fn compression_summary() -> Table {
    let mut t = Table::new(
        "Compression summary (medium support level per profile)",
        &[
            "dataset",
            "nodes",
            "fp-tree B/node",
            "paper fp B/node",
            "cfp-tree B/node",
            "cfp-array B/node",
            "tree reduction",
            "array reduction",
        ],
    );
    for p in profiles::all() {
        let db = p.generate();
        let minsup = p.absolute_support(&db, 1);
        let recoder = ItemRecoder::scan(&db, minsup);
        let cfp_tree = CfpTree::from_db(&db, &recoder);
        let array = cfp_core::convert(&cfp_tree);
        if cfp_tree.num_nodes() == 0 {
            t.push_row(vec![
                p.name.to_string(),
                "0".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let tree_avg = cfp_tree.avg_node_bytes();
        let array_avg = array.avg_node_bytes();
        t.push_row(vec![
            p.name.to_string(),
            cfp_metrics::fmt_count(cfp_tree.num_nodes()),
            format!("{}", FpTree::NODE_BYTES),
            format!("{}", FpTree::PAPER_NODE_BYTES),
            format!("{tree_avg:.2}"),
            format!("{array_avg:.2}"),
            format!("x{:.1}", 40.0 / tree_avg.max(0.01)),
            format!("x{:.1}", 40.0 / array_avg.max(0.01)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_reports_both_quests() {
        let t = table3();
        assert_eq!(t.rows.len(), 2);
        assert!(t.rows[0][0] == "quest1");
    }

    #[test]
    fn fig7_sweep_is_consistent_on_a_small_grid() {
        let rows = fig7_sweep(Some(&[0.05, 0.03]));
        assert_eq!(rows.len(), 2);
        assert!(rows[0].tree_nodes <= rows[1].tree_nodes, "lower support, bigger tree");
        for r in &rows {
            assert!(r.cfp_build_bytes < r.fp_build_bytes, "CFP must be smaller");
        }
        // All four tables render.
        for t in [fig7a(&rows), fig7b(&rows), fig7c(&rows), fig7d(&rows)] {
            assert!(!t.render().is_empty());
        }
    }

    /// A database whose two cost-heaviest first-level items land on the
    /// same worker under a two-thread round-robin deal, while the dynamic
    /// queue hands one heavy item to each.
    ///
    /// 53 items: 10 fillers (recoded 0..9), 40 single-node padding items
    /// (10..49), then the tail heavy1 (50), a light mid item (51), and
    /// heavy2 (52). The round-robin deal sends even recoded ids —
    /// including both heavies — to worker 0. Each heavy item sits under
    /// ~900 distinct filler-subset prefixes, so its subarray dwarfs
    /// everything else and the mine phase is long enough for both dynamic
    /// workers to reach the queue.
    fn parity_skewed_db() -> TransactionDb {
        // Distinct non-empty subsets of the 10 filler items, |S| <= 7.
        let masks: Vec<u16> = (1u16..1024).filter(|m| m.count_ones() <= 7).collect();
        let with_suffix = |m: u16, extra: u32| -> Vec<u32> {
            let mut row: Vec<u32> = (0..10u32).filter(|&i| m >> i & 1 == 1).collect();
            row.push(extra);
            row
        };
        let mut rows: Vec<Vec<u32>> = Vec::new();
        for &m in &masks[..900] {
            rows.push(with_suffix(m, 50)); // heavy1: 900 nodes
        }
        for &m in &masks[..850] {
            rows.push(with_suffix(m, 52)); // heavy2: 850 nodes
        }
        for _ in 0..875 {
            rows.push(vec![51]); // mid item: support between the heavies, 1 node
        }
        // Padding items with distinct supports 988 down to 910, one tree
        // node each.
        for (k, item) in (10..50u32).enumerate() {
            for _ in 0..(988 - 2 * k) {
                rows.push(vec![item]);
            }
        }
        // Top the fillers up to strictly decreasing supports above
        // everything else, pinning recoded ids to original ids.
        let mut count = std::collections::HashMap::new();
        for r in &rows {
            for &i in r {
                *count.entry(i).or_insert(0u32) += 1;
            }
        }
        for k in 0..10u32 {
            for _ in count[&k]..(1200 - 10 * k) {
                rows.push(vec![k]);
            }
        }
        TransactionDb::from_rows(&rows)
    }

    #[test]
    fn dynamic_schedule_balances_the_parity_skewed_load_better() {
        use cfp_core::ParallelCfpGrowthMiner;
        let db = parity_skewed_db();
        let imbalance = |costs: &[u64]| {
            let max = *costs.iter().max().unwrap() as f64;
            // A worker that claimed nothing makes the ratio infinite.
            max / *costs.iter().min().unwrap() as f64
        };
        let dealt = imbalance(&round_robin_costs(&db, 1, 2));
        assert!(dealt > 1.5, "construction must skew the round-robin deal, got {dealt:.2}");
        // The dynamic split depends on claim timing; the best of a few
        // runs is what the scheduler can achieve, and must beat the
        // deterministic round-robin deal.
        let miner = ParallelCfpGrowthMiner::new(2);
        let expect = run_miner(&cfp_core::CfpGrowthMiner::new(), &db, 1).itemsets;
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let stats = run_miner(&miner, &db, 1);
            assert_eq!(stats.itemsets, expect, "parallel and sequential disagree");
            best = best.min(imbalance(&stats.worker_costs));
        }
        assert!(best < dealt, "dynamic {best:.2} must beat round-robin {dealt:.2}");
    }

    #[test]
    fn skew_table_reports_both_schedules() {
        let t = skew();
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], "round-robin");
        assert_eq!(t.rows[1][0], "dynamic");
        // The dynamic row's claim counter covers every first-level item
        // and its arena resets are visible.
        assert!(t.rows[1][4].parse::<u64>().unwrap() > 0);
        assert!(t.rows[1][6].parse::<u64>().unwrap() > 0);
    }

    #[test]
    fn fig8_all_miners_agree_at_high_support() {
        let (time_t, mem_t) = fig8(QuestSet::Quest1, Some(&[0.06]));
        assert_eq!(time_t.rows.len(), 1);
        assert_eq!(mem_t.rows.len(), 1);
        assert!(!time_t.rows[0].iter().any(|c| c == "skipped"));
    }
}
