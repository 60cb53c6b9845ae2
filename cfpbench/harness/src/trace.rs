//! The traced run: one workload's pipeline replayed in-process, with a
//! span around each call into a layer's public API.
//!
//! Spans are recorded by the benchmark, never inside the program. Counts
//! come from public accessors and `/proc/self`, except the mine-phase
//! counts (conditional trees, single-path shortcuts, steals), which are
//! read from the `cfp-trace` counter registry during one extra, untimed
//! parallel call. Every span runs with the program's instrumentation off.

use cfp_core::{
    CountingSink, ItemRecoder, Miner, MiningImage, ParallelCfpGrowthMiner, RecoveryPolicy,
    Supervisor, TransactionDb,
};
use cfp_data::double_buffer::DoubleBufferedReader;
use cfp_data::{fimi, ParsePolicy};
use cfp_encoding::varint;
use cfp_memman::ArenaOptions;
use cfp_trace::counters as tc;
use cfp_tree::CfpTree;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;
const MB: f64 = 1e6;

/// The `--support` flag, read exactly as `cfp-mine` reads it.
#[derive(Clone, Copy)]
pub enum Support {
    Absolute(u64),
    Relative(f64),
}

impl Support {
    pub fn parse(raw: &str) -> Result<Support, String> {
        match raw.strip_suffix('%') {
            Some(p) => p
                .parse::<f64>()
                .map(|p| Support::Relative(p / 100.0))
                .map_err(|_| format!("bad support {raw:?}")),
            None => raw.parse().map(Support::Absolute).map_err(|_| format!("bad support {raw:?}")),
        }
    }

    fn absolute(self, transactions: usize) -> u64 {
        match self {
            Support::Absolute(n) => n.max(1),
            Support::Relative(f) => ((transactions as f64 * f).ceil() as u64).max(1),
        }
    }
}

/// The spill workload's memory budget and scratch directory.
pub struct Spill {
    pub budget: u64,
    pub dir: PathBuf,
}

/// A closed span: name, start and end in seconds since the run began, and
/// the enclosing span (every layer call is a child of `run`).
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed().as_secs_f64();
        let out = black_box(f());
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, start, end });
        out
    }

    fn secs(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).sum()
    }
}

/// Flat `name -> number` output, written as one JSON object.
#[derive(Default)]
struct Out {
    fields: Vec<(String, f64)>,
}

impl Out {
    fn put(&mut self, name: &str, value: f64) {
        self.fields.push((name.to_string(), value));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Reads a field of `/proc/self/<file>` in bytes (`status` fields are in
/// kB, `io` fields in bytes).
fn proc_bytes(file: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/self/{file}")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let value = line[field.len()..].trim();
    match value.strip_suffix("kB") {
        Some(kb) => kb.trim().parse::<u64>().ok().map(|kb| kb * 1024),
        None => value.parse().ok(),
    }
}

pub fn run(
    input: &str,
    support: Support,
    threads: usize,
    spill: Option<Spill>,
) -> Result<String, String> {
    let mut t = Tracer { origin: Instant::now(), spans: Vec::new() };
    let mut m = Out::default();
    let mut items = Out::default();
    let mut reported = Out::default();
    let file_bytes = std::fs::metadata(input).map_err(|e| format!("{input}: {e}"))?.len() as f64;

    // cfp-data: the materialising parse cfp-mine uses, then one pass of
    // the paper's double-buffered stream over the same file.
    let db: TransactionDb = t
        .time("data.parse", || fimi::read_file_with_policy(input, ParsePolicy::Strict))
        .map_err(|e| format!("{input}: {e}"))?
        .0;
    m.put("data.parse_mb_s", ratio(file_bytes / MB, t.secs("data.parse")));
    m.put("data.db_mib", db.data_bytes() as f64 / MIB);
    let file = std::fs::File::open(input).map_err(|e| format!("{input}: {e}"))?;
    let mut streamed = 0u64;
    t.time("data.stream", || {
        DoubleBufferedReader::new(file).for_each_transaction(|txn| streamed += txn.len() as u64)
    })
    .map_err(|e| format!("{input}: {e}"))?;
    if streamed != db.total_items() as u64 {
        return Err(format!("stream pass read {streamed} items, parse read {}", db.total_items()));
    }
    m.put("data.stream_mb_s", ratio(file_bytes / MB, t.secs("data.stream")));
    let min_support = support.absolute(db.len());

    // cfp-core, parallel miner at the workload's thread count (it falls
    // back to the sequential miner at one thread). VmHWM is reset first,
    // so its growth is what the call itself held on top of the database.
    let hwm_reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    let rss_before = proc_bytes("status", "VmRSS:").unwrap_or(0);
    let mut sink = CountingSink::new();
    let par = t
        .time("core.parallel_mine", || {
            ParallelCfpGrowthMiner::new(threads).try_mine(&db, min_support, &mut sink)
        })
        .map_err(|e| format!("parallel mine: {e}"))?;
    let hwm_after = proc_bytes("status", "VmHWM:").unwrap_or(0);
    items.put("parallel", sink.count as f64);
    m.put("core.parallel_mine_s", t.secs("core.parallel_mine"));
    let costs = &par.worker_costs;
    let mean_cost = costs.iter().sum::<u64>() as f64 / costs.len().max(1) as f64;
    let max_cost = costs.iter().copied().max().unwrap_or(0) as f64;
    m.put("core.worker_imbalance", if costs.is_empty() { 1.0 } else { ratio(max_cost, mean_cost) });
    m.put(
        "core.emit_buffer_mib",
        if hwm_reset { hwm_after.saturating_sub(rss_before) as f64 / MIB } else { 0.0 },
    );
    reported.put("parallel.scan_s", par.scan_time.as_secs_f64());
    reported.put("parallel.build_s", par.build_time.as_secs_f64());
    reported.put("parallel.convert_s", par.convert_time.as_secs_f64());
    reported.put("parallel.mine_s", par.mine_time.as_secs_f64());
    reported.put("parallel.vmhwm_reset", if hwm_reset { 1.0 } else { 0.0 });

    // The same call again with the counter registry armed, for the
    // mine-phase counts only: arming it slows the call, so it is no span.
    cfp_trace::reset();
    cfp_trace::set_enabled(true);
    let mut sink = CountingSink::new();
    let counted = ParallelCfpGrowthMiner::new(threads).try_mine(&db, min_support, &mut sink);
    cfp_trace::set_enabled(false);
    counted.map_err(|e| format!("counted parallel mine: {e}"))?;
    items.put("parallel_counted", sink.count as f64);
    let cond_trees = tc::CORE_CONDITIONAL_TREES.get() as f64;
    let shortcuts = tc::CORE_SINGLE_PATH_SHORTCUTS.get() as f64;
    m.put(
        "core.steal_ratio",
        ratio(tc::CORE_TASKS_STOLEN.get() as f64, tc::CORE_TASKS_CLAIMED.get() as f64),
    );

    // cfp-data count, cfp-tree build (cfp-memman arena), cfp-array convert.
    let recoder = t.time("data.count", || ItemRecoder::scan(&db, min_support));
    m.put("data.count_s", t.secs("data.count"));
    let tree = t
        .time("tree.build", || CfpTree::try_from_db_with(&db, &recoder, ArenaOptions::default()))
        .map_err(|e| format!("tree build: {e}"))?;
    let build_s = t.secs("tree.build");
    m.put("tree.build_s", build_s);
    m.put("tree.insert_ns_per_txn", ratio(build_s * 1e9, db.len() as f64));
    m.put("tree.nodes", tree.num_nodes() as f64);
    m.put("tree.bytes_per_node", tree.avg_node_bytes());
    let arena = tree.arena().stats();
    m.put("memman.arena_peak_mib", arena.peak_footprint as f64 / MIB);
    m.put("memman.queue_hit_ratio", ratio(arena.queue_hits as f64, arena.allocs as f64));
    m.put("memman.reallocs", (arena.grows + arena.shrinks) as f64);
    let tree_bytes = tree.arena_used() as f64;
    let array = t.time("array.convert", || cfp_array::convert(&tree));
    drop(tree);
    let convert_s = t.secs("array.convert");
    m.put("array.convert_s", convert_s);
    m.put("array.convert_mb_s", ratio(tree_bytes / MB, convert_s));
    m.put("array.bytes_per_node", array.avg_node_bytes());

    // cfp-encoding: varint decoding over the converted array's bytes,
    // repeated until at least 64 MiB have been decoded.
    let data = array.data();
    let passes = if data.is_empty() { 0 } else { (64 << 20) / data.len() + 1 };
    t.time("encoding.varint_decode", || {
        let mut sum = 0u64;
        for _ in 0..passes {
            let mut rest = black_box(data);
            while !rest.is_empty() {
                match varint::read_u64(rest) {
                    Some((v, n)) => {
                        sum = sum.wrapping_add(v);
                        rest = &rest[n..];
                    }
                    None => rest = &rest[1..],
                }
            }
        }
        sum
    });
    m.put(
        "encoding.varint_decode_mb_s",
        ratio((data.len() * passes) as f64 / MB, t.secs("encoding.varint_decode")),
    );
    drop(array);

    // cfp-core, sequential mine of a prepared image. Building the image
    // repeats count, build and convert; its span is not a layer metric.
    let image = t.time("core.image_build", || MiningImage::build(&db, min_support));
    let mut sink = CountingSink::new();
    t.time("core.mine", || image.mine(min_support, &mut sink));
    drop(image);
    items.put("sequential", sink.count as f64);
    let mine_s = t.secs("core.mine");
    m.put("core.mine_s", mine_s);
    m.put("core.itemsets_per_s", ratio(sink.count as f64, mine_s));
    m.put("core.cond_trees", cond_trees);
    m.put("core.us_per_cond_tree", ratio(mine_s * 1e6, cond_trees));
    m.put("core.single_path_ratio", ratio(shortcuts, cond_trees));
    m.put("core.parallel_speedup", ratio(mine_s, par.mine_time.as_secs_f64()));

    // cfp-core supervisor: the spill rung at the workload's budget. Spill
    // traffic is the growth of the process's read/write syscall byte
    // counts across the call, which does no other I/O.
    let in_memory_s = t.secs("data.count") + build_s + convert_s + mine_s;
    let (mut spill_s, mut partitions, mut written, mut read) = (0.0, 0.0, 0.0, 0.0);
    if let Some(spill) = spill {
        std::fs::create_dir_all(&spill.dir).map_err(|e| format!("spill dir: {e}"))?;
        let supervisor = Supervisor {
            threads,
            mem_budget: Some(spill.budget),
            spill_dir: Some(spill.dir),
            ..Supervisor::new(RecoveryPolicy::Spill)
        };
        let io_before = (proc_bytes("io", "wchar:"), proc_bytes("io", "rchar:"));
        let mut sink = CountingSink::new();
        let (result, report) =
            t.time("core.spill", || supervisor.mine(&db, min_support, &mut sink));
        let io_after = (proc_bytes("io", "wchar:"), proc_bytes("io", "rchar:"));
        result.map_err(|e| format!("spill mine: {e}"))?;
        items.put("spill", sink.count as f64);
        spill_s = t.secs("core.spill");
        partitions = report.final_partitions as f64;
        let delta = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / MIB,
            _ => 0.0,
        };
        written = delta(io_before.0, io_after.0);
        read = delta(io_before.1, io_after.1);
    }
    m.put("core.spill_s", spill_s);
    m.put("core.spill_partitions", partitions);
    m.put("core.spill_slowdown", ratio(spill_s, in_memory_s));
    m.put("data.spill_write_mib", written);
    m.put("data.spill_read_mib", read);

    let mut json = String::from("{");
    for (section, out) in [("metrics", &m), ("itemsets", &items), ("program_reported", &reported)] {
        let _ = write!(json, "\"{section}\": {{");
        for (i, (name, value)) in out.fields.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(json, "{sep}\"{name}\": {value:e}");
        }
        json.push_str("}, ");
    }
    json.push_str("\"spans\": [");
    for (i, s) in t.spans.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            json,
            "{sep}{{\"name\": \"{}\", \"parent\": \"run\", \"start_s\": {:e}, \"end_s\": {:e}}}",
            s.name, s.start, s.end
        );
    }
    json.push_str("]}");
    Ok(json)
}
