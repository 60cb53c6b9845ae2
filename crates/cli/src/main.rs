//! `cfp-mine` — frequent-itemset mining from the command line.
//!
//! A FIMI-repository-style interface over the whole workspace: point it at
//! a FIMI-format file, pick a support threshold (absolute count or
//! percentage), and choose an algorithm, an output mode, and optional
//! post-processing.
//!
//! ```text
//! cfp-mine <input.dat> --support <N | P%> [options]
//!
//!   --algorithm NAME   cfp (default), fp, apriori, eclat, lcm,
//!                      nonordfp, tiny, fparray
//!   --threads N        parallel CFP-growth with N workers (claiming
//!                      cost-sorted items from a shared queue; output
//!                      is byte-identical to one worker)
//!   --mem-budget B     cap the build-phase arena at B bytes (k/m/g
//!                      suffixes allowed; cfp algorithms only)
//!   --skip-bad-lines   drop malformed input lines instead of failing
//!   --output MODE      what the cfp engine mines: all (default; every
//!                      frequent itemset), closed, maximal, or topk:N
//!                      (the N highest-support itemsets). Condensed
//!                      modes run inside the CFP-growth recursion —
//!                      closure/maximality/top-k-bound pruning, not a
//!                      post-hoc filter — and stream in the same
//!                      deterministic order as all-mode (topk prints
//!                      support-descending at the end). cfp only
//!   --count            print only the number of frequent itemsets
//!   --top K            print the K highest-support itemsets
//!                      (cfp: alias for --output=topk:K)
//!   --closed           print only closed itemsets
//!                      (cfp: alias for --output=closed)
//!   --maximal          print only maximal itemsets
//!                      (cfp: alias for --output=maximal)
//!   --rules CONF       print association rules with confidence ≥ CONF
//!   --image PATH       also save a reusable mining image (CFP only)
//!   --stats            print phase times and peak memory to stderr
//!   --profile PATH     enable tracing and write a cfp-profile/2 JSON
//!                      run report (phase spans, counters, memory
//!                      time series, event summary) to PATH
//!   --trace-out PATH   capture the event timeline and write Chrome
//!                      trace-event JSON (open in Perfetto or
//!                      chrome://tracing; one track per worker plus
//!                      memory counter tracks)
//!   --flame-out PATH   write folded flamegraph stacks of the
//!                      conditional-tree descent (flamegraph.pl /
//!                      speedscope input)
//!   --progress         live status heartbeat on stderr (phase, items
//!                      mined, steals, budget-pool peak)
//!   --mem-report PATH  write a cfp-memstat/1 JSON memory report
//!                      (per-component attribution, reconciliation
//!                      audit, per-structure analytics, compression
//!                      table vs FP-tree baselines; cfp only). The
//!                      mining run charges an attribution pool and a
//!                      post-run analytics pass measures the structures;
//!                      mining output is byte-identical with the flag on
//!   --recover POLICY   escalation ladder on failure: off (default),
//!                      retry (compact-and-retry), degrade (… then
//!                      sequential), partition (… then item-range
//!                      partitioned fallback mining), spill (… then
//!                      out-of-core: partition arrays go through
//!                      crash-safe disk files; cfp only)
//!   --spill-dir PATH   parent directory for the spill rung's scratch
//!                      files (default: the system temp directory; a
//!                      per-run subdirectory is created and removed on
//!                      every exit path; requires --recover=spill)
//!   --worker-timeout S watchdog: fail a parallel run when no worker
//!                      makes progress for S seconds
//!   --checkpoint-dir P crash-safe checkpointing: periodically commit a
//!                      cfp-ckpt/1 manifest into P recording an exact
//!                      output watermark. The directory is guarded by a
//!                      PID lockfile. Requires the cfp algorithm,
//!                      streaming output (--output all, closed, or
//!                      maximal; no --count, --top/topk, or --rules),
//!                      and --recover off or spill (condensed modes:
//!                      --recover off only)
//!   --checkpoint-every N  commit the manifest every N completed
//!                      top-level items (default 32; spill partitions
//!                      always commit per partition)
//!   --resume           continue from the manifest in --checkpoint-dir:
//!                      completed units are skipped, so appending this
//!                      run's stdout to the previous (truncated) output
//!                      reproduces an uninterrupted run byte for byte
//!   --deadline S       cooperative wall-clock budget: stop gracefully
//!                      at the next resumable boundary after S seconds
//!                      and exit 8 (cfp only)
//! ```
//!
//! Flags also accept the `--flag=value` spelling. Itemsets print in FIMI
//! output format: space-separated items followed by the absolute support
//! in parentheses, e.g. `3 17 29 (1250)`.
//!
//! # Exit codes
//!
//! The process maps every failure to a stable code (see
//! `CfpError::exit_code`): 0 success (including a closed output pipe),
//! 1 I/O error, 2 usage error, 3 malformed input, 4 memory budget
//! exhausted, 5 worker panic, 6 worker timeout, 7 spill failure (a
//! spill-file write, read, or checksum validation failed permanently
//! during `--recover=spill`), 8 interrupted (SIGINT/SIGTERM or
//! `--deadline` stopped the run at a resumable boundary; buffered
//! output was flushed and, under `--checkpoint-dir`, a manifest was
//! committed), 9 invalid checkpoint (torn, corrupted, or
//! config-mismatched manifest on `--resume`, or a checkpoint commit
//! failed), 10 state directory locked by another live process.
//! `--recover=off` leaves all of these exactly as they were; other
//! policies only change the outcome when a recovery rung actually
//! completes the run.

use cfp_core::{
    CfpGrowthMiner, CkptProgress, CollectSink, CountingSink, ItemsetSink, MineStats, Miner,
    MiningImage, OutputMode, ParallelCfpGrowthMiner, RecoveryPolicy, RecoveryReport, Source,
    Supervisor, TopKSink,
};
use cfp_data::{CfpError, ParsePolicy};
use cfp_fault::EXIT_USAGE;
use cfp_rules::{closed_itemsets, maximal_itemsets, RuleMiner};
use std::io::{self, Write};
use std::process::exit;
use std::time::Duration;

#[derive(Debug)]
struct Options {
    input: String,
    support: SupportSpec,
    algorithm: String,
    threads: usize,
    mem_budget: Option<u64>,
    policy: ParsePolicy,
    output: OutputMode,
    count_only: bool,
    top: Option<usize>,
    closed: bool,
    maximal: bool,
    rules: Option<f64>,
    image: Option<String>,
    stats: bool,
    profile: Option<String>,
    trace_out: Option<String>,
    flame_out: Option<String>,
    progress: bool,
    mem_report: Option<String>,
    metrics_out: Option<String>,
    metrics_every: Duration,
    blackbox: Option<String>,
    recover: RecoveryPolicy,
    spill_dir: Option<String>,
    worker_timeout: Option<Duration>,
    checkpoint_dir: Option<String>,
    checkpoint_every: u64,
    resume: bool,
    deadline: Option<Duration>,
}

#[derive(Debug)]
enum SupportSpec {
    Absolute(u64),
    Relative(f64),
}

fn print_usage() {
    eprintln!("usage: cfp-mine <input.dat> --support <N | P%> [options]");
    eprintln!("  --algorithm cfp|fp|apriori|eclat|lcm|nonordfp|tiny|fparray");
    eprintln!("  --threads N | --mem-budget BYTES[k|m|g]");
    eprintln!("  --skip-bad-lines");
    eprintln!("  --output all|closed|maximal|topk:N");
    eprintln!("  --count | --top K | --closed | --maximal");
    eprintln!("  --rules CONF | --image PATH | --stats | --profile PATH");
    eprintln!("  --trace-out PATH | --flame-out PATH | --progress | --mem-report PATH");
    eprintln!("  --metrics-out PATH [--metrics-every DUR] | --blackbox DIR");
    eprintln!("  --recover off|retry|degrade|partition|spill | --spill-dir PATH");
    eprintln!("  --worker-timeout SECONDS");
    eprintln!("  --checkpoint-dir PATH | --checkpoint-every N | --resume | --deadline SECONDS");
}

/// Parses a duration with an optional `ms`/`s`/`m` suffix (bare numbers
/// are seconds), e.g. `250ms`, `1.5s`, `2m`.
fn parse_duration(s: &str) -> Result<Duration, String> {
    let (digits, scale) = if let Some(d) = s.strip_suffix("ms") {
        (d, 1e-3)
    } else if let Some(d) = s.strip_suffix('s') {
        (d, 1.0)
    } else if let Some(d) = s.strip_suffix('m') {
        (d, 60.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = digits.parse().map_err(|_| format!("bad duration {s:?}"))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!("duration {s:?} must be positive"));
    }
    Ok(Duration::from_secs_f64(v * scale))
}

/// Parses a byte count with an optional `k`/`m`/`g` suffix (powers of
/// 1024, case-insensitive), e.g. `64m` = 67108864.
fn parse_bytes(s: &str) -> Result<u64, String> {
    let (digits, shift) = match s.to_ascii_lowercase().as_str() {
        t if t.ends_with('k') => (&s[..s.len() - 1], 10),
        t if t.ends_with('m') => (&s[..s.len() - 1], 20),
        t if t.ends_with('g') => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: u64 = digits.parse().map_err(|_| format!("bad byte count {s:?}"))?;
    n.checked_shl(shift)
        .filter(|&v| v >> shift == n)
        .ok_or_else(|| format!("byte count {s:?} overflows"))
}

/// Parses the argument list (without the program name). Returns a
/// description of the first problem instead of exiting, so main owns the
/// process exit and tests can exercise every path in-process.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        input: String::new(),
        support: SupportSpec::Absolute(0),
        algorithm: "cfp".into(),
        threads: 1,
        mem_budget: None,
        policy: ParsePolicy::Strict,
        output: OutputMode::All,
        count_only: false,
        top: None,
        closed: false,
        maximal: false,
        rules: None,
        image: None,
        stats: false,
        profile: None,
        trace_out: None,
        flame_out: None,
        progress: false,
        mem_report: None,
        metrics_out: None,
        metrics_every: Duration::from_secs(1),
        blackbox: None,
        recover: RecoveryPolicy::Off,
        spill_dir: None,
        worker_timeout: None,
        checkpoint_dir: None,
        checkpoint_every: 32,
        resume: false,
        deadline: None,
    };
    let mut checkpoint_every_given = false;
    let mut metrics_every_given = false;
    let mut output_given = false;
    // Accept `--flag=value` as well as `--flag value`.
    let args: Vec<String> = args
        .iter()
        .flat_map(|a| match a.strip_prefix("--").and_then(|r| r.split_once('=')) {
            Some((flag, val)) => vec![format!("--{flag}"), val.to_string()],
            None => vec![a.clone()],
        })
        .collect();
    let mut support_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--support" => {
                let v = value(arg)?;
                opts.support = if let Some(pct) = v.strip_suffix('%') {
                    let p: f64 = pct.parse().map_err(|_| format!("bad percentage {v:?}"))?;
                    SupportSpec::Relative(p / 100.0)
                } else {
                    SupportSpec::Absolute(v.parse().map_err(|_| format!("bad support {v:?}"))?)
                };
                support_given = true;
            }
            "--algorithm" => opts.algorithm = value(arg)?,
            "--threads" => {
                opts.threads = value(arg)?.parse().map_err(|_| "bad thread count".to_string())?;
            }
            "--mem-budget" => opts.mem_budget = Some(parse_bytes(&value(arg)?)?),
            "--skip-bad-lines" => opts.policy = ParsePolicy::Skip,
            "--output" => {
                opts.output = value(arg)?.parse()?;
                output_given = true;
            }
            "--count" => opts.count_only = true,
            "--top" => {
                opts.top = Some(value(arg)?.parse().map_err(|_| "bad top-k".to_string())?);
            }
            "--closed" => opts.closed = true,
            "--maximal" => opts.maximal = true,
            "--rules" => {
                opts.rules = Some(value(arg)?.parse().map_err(|_| "bad confidence".to_string())?);
            }
            "--image" => opts.image = Some(value(arg)?),
            "--stats" => opts.stats = true,
            "--profile" => opts.profile = Some(value(arg)?),
            "--trace-out" => opts.trace_out = Some(value(arg)?),
            "--flame-out" => opts.flame_out = Some(value(arg)?),
            "--progress" => opts.progress = true,
            "--mem-report" => opts.mem_report = Some(value(arg)?),
            "--metrics-out" => opts.metrics_out = Some(value(arg)?),
            "--metrics-every" => {
                opts.metrics_every = parse_duration(&value(arg)?)?;
                metrics_every_given = true;
            }
            "--blackbox" => opts.blackbox = Some(value(arg)?),
            "--recover" => opts.recover = value(arg)?.parse()?,
            "--spill-dir" => opts.spill_dir = Some(value(arg)?),
            "--worker-timeout" => {
                let secs: f64 =
                    value(arg)?.parse().map_err(|_| "bad worker timeout".to_string())?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("worker timeout must be a positive number of seconds".to_string());
                }
                opts.worker_timeout = Some(Duration::from_secs_f64(secs));
            }
            "--checkpoint-dir" => opts.checkpoint_dir = Some(value(arg)?),
            "--checkpoint-every" => {
                opts.checkpoint_every =
                    value(arg)?.parse().map_err(|_| "bad checkpoint interval".to_string())?;
                if opts.checkpoint_every == 0 {
                    return Err("--checkpoint-every must be at least 1".to_string());
                }
                checkpoint_every_given = true;
            }
            "--resume" => opts.resume = true,
            "--deadline" => {
                let secs: f64 = value(arg)?.parse().map_err(|_| "bad deadline".to_string())?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("deadline must be a positive number of seconds".to_string());
                }
                opts.deadline = Some(Duration::from_secs_f64(secs));
            }
            other if !other.starts_with('-') && opts.input.is_empty() => {
                opts.input = other.to_string();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.input.is_empty() {
        return Err("no input file given".to_string());
    }
    if !support_given {
        return Err("no --support given".to_string());
    }
    // A budget below the arena's initial carve (the root slot, one
    // minimum-size chunk) can never admit even an empty tree: reject it
    // up front as a usage error instead of failing every attempt.
    if let Some(b) = opts.mem_budget {
        if b < cfp_memman::MIN_CHUNK as u64 {
            return Err(format!(
                "--mem-budget {b} is below the arena's minimum carve of {} bytes",
                cfp_memman::MIN_CHUNK
            ));
        }
    }
    if output_given {
        if opts.output != OutputMode::All && opts.algorithm != "cfp" {
            return Err(format!(
                "--output={} only applies to the cfp algorithm, not {:?} (use the post-hoc \
                 --top/--closed/--maximal flags for baselines)",
                opts.output, opts.algorithm
            ));
        }
        if opts.top.is_some() || opts.closed || opts.maximal {
            return Err(
                "--output cannot be combined with --top, --closed, or --maximal".to_string()
            );
        }
        if opts.rules.is_some() && opts.output != OutputMode::All {
            return Err(format!(
                "--rules needs the full frequent set; it cannot be combined with --output={}",
                opts.output
            ));
        }
    } else if opts.algorithm == "cfp" && opts.rules.is_none() && !opts.count_only {
        // The legacy condensed flags become first-class engine modes on
        // the cfp pipeline (pruning inside the recursion instead of a
        // post-hoc filter over the full set); the baselines keep the
        // post-hoc path. Precedence mirrors the historical dispatch
        // order: --top beats --closed beats --maximal.
        if let Some(k) = opts.top.take() {
            opts.output = OutputMode::TopK(k);
        } else if opts.closed {
            opts.output = OutputMode::Closed;
            opts.closed = false;
        } else if opts.maximal {
            opts.output = OutputMode::Maximal;
            opts.maximal = false;
        }
    }
    if opts.spill_dir.is_some() && opts.recover != RecoveryPolicy::Spill {
        return Err("--spill-dir requires --recover=spill".to_string());
    }
    if metrics_every_given && opts.metrics_out.is_none() {
        return Err("--metrics-every requires --metrics-out".to_string());
    }
    if opts.mem_report.is_some() && opts.algorithm != "cfp" {
        return Err(format!(
            "--mem-report only applies to the cfp algorithm, not {:?}",
            opts.algorithm
        ));
    }
    // Checkpointing promises an exact output watermark, which only the
    // deterministic plain-streaming CFP pipeline provides.
    if opts.checkpoint_dir.is_some() {
        if opts.algorithm != "cfp" {
            return Err(format!(
                "--checkpoint-dir only applies to the cfp algorithm, not {:?}",
                opts.algorithm
            ));
        }
        if opts.count_only
            || opts.top.is_some()
            || opts.closed
            || opts.maximal
            || opts.rules.is_some()
            || matches!(opts.output, OutputMode::TopK(_))
        {
            return Err("--checkpoint-dir requires streaming output (no --count, --top, \
                 --output=topk, or --rules; baseline --closed/--maximal collect in memory)"
                .to_string());
        }
        if !matches!(opts.recover, RecoveryPolicy::Off | RecoveryPolicy::Spill) {
            return Err("--checkpoint-dir requires --recover off or spill (the other rungs \
                 re-emit output without a resumable watermark)"
                .to_string());
        }
        if opts.output.is_condensed() && opts.recover != RecoveryPolicy::Off {
            return Err(format!(
                "--checkpoint-dir with --output={} requires --recover=off (spill partitions \
                 cannot rebuild the cross-partition reconcile state at a mid-run watermark)",
                opts.output
            ));
        }
        if opts.mem_report.is_some() {
            return Err("--checkpoint-dir cannot be combined with --mem-report".to_string());
        }
    } else {
        if opts.resume {
            return Err("--resume requires --checkpoint-dir".to_string());
        }
        if checkpoint_every_given {
            return Err("--checkpoint-every requires --checkpoint-dir".to_string());
        }
    }
    if opts.deadline.is_some() && opts.algorithm != "cfp" {
        return Err(format!(
            "--deadline only applies to the cfp algorithm, not {:?}",
            opts.algorithm
        ));
    }
    Ok(opts)
}

/// Builds the attribution pool a `--mem-report` run charges. Admission
/// must be byte-identical to a run without the flag: sequential runs get
/// an unlimited pool (their `--mem-budget` stays a per-arena cap), while
/// parallel runs get exactly the pool `ParallelCfpGrowthMiner` would
/// have created from `--mem-budget` itself.
fn attribution_pool(opts: &Options) -> cfp_memman::BudgetPool {
    use cfp_memman::BudgetPool;
    match opts.mem_budget {
        Some(b) if opts.algorithm == "cfp" && opts.threads > 1 => BudgetPool::new(b),
        _ => BudgetPool::unlimited(),
    }
}

/// The baseline miner `--algorithm` names, or `None` for cfp.
fn baseline_by_name(opts: &Options) -> Result<Option<Box<dyn Miner>>, String> {
    if opts.recover != RecoveryPolicy::Off && opts.algorithm != "cfp" {
        return Err(format!(
            "--recover only applies to the cfp algorithm, not {:?}",
            opts.algorithm
        ));
    }
    let miner: Box<dyn Miner> = match opts.algorithm.as_str() {
        "cfp" => return Ok(None),
        "fp" => Box::new(cfp_fptree::FpGrowthMiner::new()),
        "apriori" => Box::new(cfp_baselines::AprioriMiner::new()),
        "eclat" => Box::new(cfp_baselines::EclatMiner::new()),
        "lcm" => Box::new(cfp_baselines::LcmStyleMiner::new()),
        "nonordfp" => Box::new(cfp_baselines::NonordFpMiner::new()),
        "tiny" => Box::new(cfp_baselines::TinyStyleMiner::new()),
        "fparray" => Box::new(cfp_baselines::FpArrayStyleMiner::new()),
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    if opts.mem_budget.is_some() {
        eprintln!(
            "warning: --mem-budget only applies to the cfp algorithms; ignored for {}",
            opts.algorithm
        );
    }
    Ok(Some(miner))
}

/// One run's mining driver — a baseline algorithm over its materialised
/// database, or CFP-growth over the streamed source (the executor
/// directly, or the supervisor's ladder under `--recover`) — plus the
/// run-scoped state it mines with: the `--mem-report` attribution pool
/// and the cancel token of `--deadline` and `--checkpoint-dir`.
struct Run<'a> {
    opts: &'a Options,
    baseline: Option<Box<dyn Miner>>,
    pool: Option<cfp_memman::BudgetPool>,
    cancel: Option<cfp_fault::CancelToken>,
}

impl Run<'_> {
    /// Mines the input into `sink`, from `resume` when a checkpoint
    /// supplied one; a supervised run also yields its [`RecoveryReport`]
    /// for the profile's degradation section.
    fn mine(
        &self,
        source: &Source<'_>,
        min_support: u64,
        sink: &mut dyn ItemsetSink,
        resume: Option<CkptProgress>,
        degradation: &mut Option<RecoveryReport>,
    ) -> Result<MineStats, CfpError> {
        let o = self.opts;
        if let Some(miner) = &self.baseline {
            // Only the baseline algorithms materialise the database.
            let (db, _) = {
                let _s = cfp_trace::span(cfp_trace::Phase::Read);
                cfp_data::fimi::read_file_with_policy(&o.input, o.policy)?
            };
            return miner.try_mine(&db, min_support, sink);
        }
        if o.recover != RecoveryPolicy::Off {
            let supervisor = Supervisor {
                threads: o.threads,
                mem_budget: o.mem_budget,
                policy: o.recover,
                worker_timeout: o.worker_timeout,
                spill_dir: o.spill_dir.as_ref().map(std::path::PathBuf::from),
                cancel: self.cancel.clone(),
                output: o.output,
            };
            // Checkpointed runs go straight to the partitioned rung: only
            // it streams partition watermarks, so the monolithic rungs
            // (whose output has no committed prefix) are skipped.
            let (r, report) = if o.checkpoint_dir.is_some() {
                let resume = match resume {
                    Some(CkptProgress::Spill { parts_done, remaining }) => {
                        Some((parts_done, remaining))
                    }
                    _ => None,
                };
                supervisor.mine_out_of_core(source, min_support, sink, resume)
            } else {
                supervisor.mine(source, min_support, sink)
            };
            stash_blackbox_degradation(&report);
            *degradation = Some(report);
            return r;
        }
        let resume_skip = match resume {
            Some(CkptProgress::Mono { items_done }) => items_done,
            _ => 0,
        };
        if o.threads > 1 {
            let miner = ParallelCfpGrowthMiner {
                mem_budget: o.mem_budget,
                pool: self.pool.clone(),
                worker_timeout: o.worker_timeout,
                cancel: self.cancel.clone(),
                resume_skip,
                output: o.output,
                ..ParallelCfpGrowthMiner::new(o.threads)
            };
            miner.try_mine_source(source, min_support, sink)
        } else {
            let mine_opts = cfp_core::MineOpts {
                pool: self.pool.clone(),
                cancel: self.cancel.clone(),
                resume_skip,
                output: o.output,
                ..Default::default()
            };
            let miner = CfpGrowthMiner { single_path_opt: true, mem_budget: o.mem_budget };
            miner.try_mine_with(source, min_support, sink, &mine_opts)
        }
    }
}

/// Exits with the documented code for a failed output write. A broken
/// pipe is the downstream consumer (`head`, `grep -q`, a closed pager)
/// losing interest — that is success, reported quietly, matching the
/// behaviour of well-mannered Unix filters.
fn exit_for_write_error(e: &io::Error) -> ! {
    if e.kind() == io::ErrorKind::BrokenPipe {
        exit(0);
    }
    eprintln!("cfp-mine: cannot write output: {e}");
    exit(1);
}

/// Writes itemsets in FIMI output format — space-separated items followed
/// by the support in parentheses, newline-terminated — through one reused
/// line buffer, so a line costs no allocation.
#[derive(Default)]
struct FimiLines {
    line: Vec<u8>,
}

impl FimiLines {
    fn write(&mut self, out: &mut impl Write, itemset: &[u32], support: u64) -> io::Result<()> {
        self.line.clear();
        for (i, &item) in itemset.iter().enumerate() {
            if i > 0 {
                self.line.push(b' ');
            }
            push_decimal(&mut self.line, item as u64);
        }
        self.line.extend_from_slice(b" (");
        push_decimal(&mut self.line, support);
        self.line.extend_from_slice(b")\n");
        out.write_all(&self.line)
    }
}

/// Appends the decimal digits of `v` to `out`.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Streams itemsets straight to a writer in FIMI output format.
///
/// Write failures are recorded, not panicked on; after the first failure
/// further output is discarded (mining continues so stats stay
/// meaningful) and main exits through [`exit_for_write_error`].
struct PrintSink<W: Write> {
    out: W,
    lines: FimiLines,
    count: u64,
    err: Option<io::Error>,
}

impl<W: Write> ItemsetSink for PrintSink<W> {
    fn emit(&mut self, itemset: &[u32], support: u64) {
        self.count += 1;
        if self.err.is_some() {
            return;
        }
        if let Err(e) = self.lines.write(&mut self.out, itemset, support) {
            self.err = Some(e);
        }
    }
}

fn print_itemsets(itemsets: &[(Vec<u32>, u64)]) -> io::Result<()> {
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut lines = FimiLines::default();
    for (items, support) in itemsets {
        lines.write(&mut out, items, *support)?;
    }
    out.flush()
}

/// Counts the bytes that actually reached the inner writer — under a
/// `BufWriter` this advances on flush, so at commit time `written` is
/// exactly the output watermark a manifest may record as durable.
struct CountingWriter<W: Write> {
    inner: W,
    written: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Best-effort durability for stdout before a manifest commit: when
/// stdout is a regular file (`cfp-mine … > out.dat`), fsync it so the
/// manifest never records a watermark ahead of what survives a crash.
/// Pipes and ttys reject the sync; that is fine — they have no
/// post-crash contents to resume against.
fn sync_stdout() {
    #[cfg(unix)]
    {
        use std::os::unix::io::FromRawFd;
        // ManuallyDrop: fd 1 must stay open after the sync.
        let f = std::mem::ManuallyDrop::new(unsafe { std::fs::File::from_raw_fd(1) });
        let _ = f.sync_all();
    }
}

/// The checkpointing output sink (`--checkpoint-dir`): streams FIMI
/// lines like [`PrintSink`] and, at the resumable boundaries the miner
/// announces through [`ItemsetSink::progress`], commits a `cfp-ckpt/1`
/// manifest. The commit protocol orders durability correctly: flush the
/// line buffer, fsync stdout, then atomically write the manifest — so a
/// committed manifest never names bytes that were not durably written
/// first.
struct CheckpointSink<'a> {
    out: io::BufWriter<CountingWriter<io::StdoutLock<'a>>>,
    lines: FimiLines,
    err: Option<io::Error>,
    dir: std::path::PathBuf,
    /// Commit cadence in completed top-level items; spill partitions
    /// always commit.
    every: u64,
    /// Config fingerprint stamped into every manifest.
    input: String,
    min_support: u64,
    counts: String,
    num_items: u64,
    output: String,
    /// Output bytes and itemsets carried over from the segment(s) this
    /// run resumed; manifests record cumulative totals so a crashed
    /// appended-to output file can be truncated to `output_bytes`.
    base_bytes: u64,
    base_itemsets: u64,
    /// Itemsets emitted by this segment.
    emitted: u64,
    /// The most recent watermark the miner announced, committed or not.
    latest: Option<(cfp_core::CkptProgress, u64)>,
    /// Resume units covered by the last committed manifest.
    last_committed: u64,
}

impl CheckpointSink<'_> {
    /// Flushes output and commits the latest watermark. An error from
    /// the manifest write (e.g. the `core.ckpt.write` failpoint) is
    /// structured and aborts the run through [`ItemsetSink::progress`].
    fn commit(&mut self) -> Result<(), CfpError> {
        let Some((progress, itemsets)) = self.latest.clone() else {
            return Ok(());
        };
        if self.err.is_some() {
            // Output is no longer reaching the stream; a manifest
            // claiming otherwise would corrupt a later resume.
            return Ok(());
        }
        if let Err(e) = self.out.flush() {
            self.err = Some(e);
            return Ok(());
        }
        sync_stdout();
        let manifest = cfp_core::Manifest {
            input: self.input.clone(),
            min_support: self.min_support,
            counts: self.counts.clone(),
            num_items: self.num_items,
            output: self.output.clone(),
            progress,
            output_bytes: self.base_bytes + self.out.get_ref().written,
            itemsets: self.base_itemsets + itemsets,
        };
        cfp_core::ckpt::save(&self.dir, &manifest)?;
        self.last_committed = manifest.progress.done();
        Ok(())
    }
}

impl ItemsetSink for CheckpointSink<'_> {
    fn emit(&mut self, itemset: &[u32], support: u64) {
        self.emitted += 1;
        if self.err.is_some() {
            return;
        }
        if let Err(e) = self.lines.write(&mut self.out, itemset, support) {
            self.err = Some(e);
        }
    }

    fn progress(&mut self, progress: cfp_data::MineProgress<'_>) -> Result<(), CfpError> {
        let (snapshot, force) = match progress {
            cfp_data::MineProgress::Items { done } => {
                (cfp_core::CkptProgress::Mono { items_done: done }, false)
            }
            cfp_data::MineProgress::SpillParts { done, remaining } => (
                cfp_core::CkptProgress::Spill { parts_done: done, remaining: remaining.to_vec() },
                true,
            ),
        };
        let done = snapshot.done();
        self.latest = Some((snapshot, self.emitted));
        if force || done >= self.last_committed + self.every {
            self.commit()?;
        }
        Ok(())
    }
}

fn report_stats(stats: &MineStats, n_itemsets: u64) {
    eprintln!(
        "itemsets {}  scan {:.3}s  build {:.3}s  convert {:.3}s  mine {:.3}s  peak {}",
        n_itemsets,
        stats.scan_time.as_secs_f64(),
        stats.build_time.as_secs_f64(),
        stats.convert_time.as_secs_f64(),
        stats.mine_time.as_secs_f64(),
        cfp_metrics::fmt_bytes(stats.peak_bytes),
    );
    if !stats.worker_peaks.is_empty() {
        let peaks: Vec<String> =
            stats.worker_peaks.iter().map(|&p| cfp_metrics::fmt_bytes(p)).collect();
        eprintln!("worker peaks  {}", peaks.join("  "));
    }
}

/// With tracing enabled (`--profile`), `--stats` additionally dumps the
/// counter registry so the headline numbers are inspectable without
/// opening the JSON report.
fn report_trace_stats() {
    use cfp_trace::counters as tc;
    let allocs = tc::MEMMAN_ALLOCS.get();
    let hits = tc::MEMMAN_QUEUE_HITS.get();
    let hit_pct = if allocs > 0 { 100.0 * hits as f64 / allocs as f64 } else { 0.0 };
    eprintln!(
        "arena  allocs {allocs}  frees {}  queue-hit {hit_pct:.1}%  grow {}  shrink {}  peak footprint {}",
        tc::MEMMAN_FREES.get(),
        tc::MEMMAN_GROWS.get(),
        tc::MEMMAN_SHRINKS.get(),
        cfp_metrics::fmt_bytes(tc::MEMMAN_PEAK_FOOTPRINT.get()),
    );
    eprintln!(
        "tree   standard {}  chain {}  embedded {}  splits {}  unembeds {}",
        tc::TREE_STANDARD_NODES.get(),
        tc::TREE_CHAIN_NODES.get(),
        tc::TREE_EMBEDDED_LEAVES.get(),
        tc::TREE_CHAIN_SPLITS.get(),
        tc::TREE_UNEMBEDS.get(),
    );
    eprintln!(
        "mine   conditional trees {}  single-path shortcuts {}  max depth {}  patterns {}",
        tc::CORE_CONDITIONAL_TREES.get(),
        tc::CORE_SINGLE_PATH_SHORTCUTS.get(),
        tc::CORE_MAX_DEPTH.get(),
        tc::CORE_PATTERNS.get(),
    );
}

/// `--blackbox` arming state: the report directory plus the run-identity
/// context, set once before mining starts so any dying path can dump.
struct BlackboxArm {
    dir: std::path::PathBuf,
    context: Vec<(String, String)>,
}

static BLACKBOX_ARM: std::sync::OnceLock<BlackboxArm> = std::sync::OnceLock::new();
/// Degradation state stashed for the flight recorder: the recovery
/// report lives in locals the exit paths cannot reach, so supervised
/// runs deposit a copy here as soon as the supervisor returns.
static BLACKBOX_DEGRADATION: std::sync::Mutex<Option<cfp_trace::DegradationReport>> =
    std::sync::Mutex::new(None);

/// Converts the supervisor's recovery report into the trace-layer shape
/// shared by `--profile` and the blackbox.
fn to_trace_degradation(d: &RecoveryReport) -> cfp_trace::DegradationReport {
    cfp_trace::DegradationReport {
        policy: d.policy.clone(),
        rungs: d
            .rungs
            .iter()
            .map(|r| cfp_trace::RungOutcome {
                rung: r.rung.to_string(),
                succeeded: r.succeeded,
                reclaimed_bytes: r.reclaimed_bytes,
                partitions: r.partitions,
                error: r.error.clone(),
            })
            .collect(),
        recovered: d.recovered,
        final_partitions: d.final_partitions,
    }
}

/// Makes a supervised run's ladder activity visible to a later blackbox
/// dump. No-op unless `--blackbox` is armed.
fn stash_blackbox_degradation(report: &RecoveryReport) {
    if BLACKBOX_ARM.get().is_some() && !report.rungs.is_empty() {
        *BLACKBOX_DEGRADATION.lock().unwrap() = Some(to_trace_degradation(report));
    }
}

/// Exit code reported in a blackbox dump for a main-thread panic (the
/// process code the Rust runtime uses for unwound panics).
const PANIC_EXIT_CODE: i32 = 101;

/// Dumps a `cfp-blackbox/1` post-mortem if `--blackbox` is armed and the
/// exit code is one the flight recorder covers: the structured pipeline
/// failures (3–10) and panics. Usage (2) and plain I/O (1) exits carry
/// no mining state worth a report.
fn dump_blackbox(error: &str, code: i32) {
    let Some(arm) = BLACKBOX_ARM.get() else { return };
    if !(3..=10).contains(&code) && code != PANIC_EXIT_CODE {
        return;
    }
    let degradation = BLACKBOX_DEGRADATION.lock().unwrap().take();
    let report = cfp_trace::BlackboxReport::capture(
        error,
        code as i64,
        arm.context.clone(),
        None,
        degradation,
    );
    match report.write(&arm.dir) {
        Ok(path) => eprintln!("cfp-mine: blackbox report written to {}", path.display()),
        Err(e) => eprintln!("cfp-mine: cannot write blackbox report: {e}"),
    }
}

/// Reports a pipeline failure and exits with its documented code. The
/// diagnostic names the failing phase (the `Display` of
/// `CfpError::MemoryExhausted` includes it). When `--blackbox` is armed
/// this is also the flight recorder's dump point: every structured
/// mining failure funnels through here.
fn exit_for_mine_error(e: CfpError) -> ! {
    eprintln!("cfp-mine: {e}");
    dump_blackbox(&e.to_string(), e.exit_code());
    exit(e.exit_code());
}

/// Runs a `--checkpoint-dir` mining run end to end: resolve the resume
/// watermark from the manifest (if `--resume`), mine through a
/// [`CheckpointSink`], and handle the three outcomes — completed
/// (manifest cleared), interrupted at a watermark (final manifest
/// committed, exit 8), or failed (structured exit). Exits the process on
/// every error path; returns the run's stats on success.
fn run_checkpointed(
    run: &Run<'_>,
    source: &Source<'_>,
    min_support: u64,
    degradation: &mut Option<RecoveryReport>,
) -> MineStats {
    use cfp_core::ckpt;
    let opts = run.opts;
    let dir = std::path::Path::new(opts.checkpoint_dir.as_deref().expect("checkpoint dir set"));
    let recoder = source.counts().unwrap_or_else(|e| exit_for_mine_error(e)).recoder(min_support);
    let counts = ckpt::counts_fingerprint(&recoder);
    let num_items = recoder.num_items() as u64;
    let spill_mode = opts.recover == RecoveryPolicy::Spill;

    let mut resume: Option<CkptProgress> = None;
    let mut base_bytes = 0u64;
    let mut base_itemsets = 0u64;
    if opts.resume {
        match ckpt::load(dir) {
            // No manifest is a fresh start, not an error: the previous
            // run may have died before its first commit, or completed
            // and cleared it.
            Ok(None) => eprintln!("no checkpoint manifest in {}; starting fresh", dir.display()),
            Ok(Some(m)) => {
                if let Err(e) = m.ensure_matches(
                    dir,
                    &opts.input,
                    min_support,
                    &counts,
                    &opts.output.to_string(),
                ) {
                    exit_for_mine_error(e);
                }
                let manifest_path = ckpt::manifest_path(dir).display().to_string();
                match (&m.progress, spill_mode) {
                    (CkptProgress::Mono { items_done }, false) => {
                        if *items_done > num_items {
                            exit_for_mine_error(CfpError::Checkpoint {
                                path: manifest_path,
                                message: format!(
                                    "watermark of {items_done} item(s) exceeds the \
                                     {num_items}-item universe"
                                ),
                            });
                        }
                    }
                    (CkptProgress::Spill { .. }, true) => {}
                    (p, _) => exit_for_mine_error(CfpError::Checkpoint {
                        path: manifest_path,
                        message: format!(
                            "manifest records a '{}' run; resume it with the matching \
                             --recover policy",
                            p.mode()
                        ),
                    }),
                }
                base_bytes = m.output_bytes;
                base_itemsets = m.itemsets;
                eprintln!(
                    "resuming from checkpoint: {} unit(s) done, {} output byte(s) committed",
                    m.progress.done(),
                    m.output_bytes
                );
                resume = Some(m.progress);
            }
            Err(e) => exit_for_mine_error(e),
        }
    }
    if cfp_trace::enabled() {
        // Surface the resume point in the --progress heartbeat and the
        // metrics export (first-level items for mono runs, partitions
        // for spill runs; 0 = started fresh).
        let watermark = resume.as_ref().map_or(0, CkptProgress::done);
        cfp_trace::counters::CORE_RESUME_WATERMARK.record(watermark);
    }

    let stdout = std::io::stdout();
    let mut sink = CheckpointSink {
        out: io::BufWriter::new(CountingWriter { inner: stdout.lock(), written: 0 }),
        lines: FimiLines::default(),
        err: None,
        dir: dir.to_path_buf(),
        every: opts.checkpoint_every,
        input: opts.input.clone(),
        min_support,
        counts,
        num_items,
        output: opts.output.to_string(),
        base_bytes,
        base_itemsets,
        emitted: 0,
        latest: None,
        last_committed: resume.as_ref().map_or(0, CkptProgress::done),
    };

    let result = run.mine(source, min_support, &mut sink, resume, degradation);
    match result {
        Ok(stats) => {
            let flushed = sink.out.flush();
            if let Some(e) = sink.err {
                exit_for_write_error(&e);
            }
            if let Err(e) = flushed {
                exit_for_write_error(&e);
            }
            ckpt::clear(dir);
            stats
        }
        Err(CfpError::Interrupted) => {
            // The miner stopped exactly at the watermark in `latest`
            // (nothing is emitted between a boundary notification and
            // the Interrupted return), so committing it makes the next
            // `--resume` continue byte-exactly. A failed final commit
            // only costs re-mining back to the previous manifest.
            if let Err(e) = sink.commit() {
                eprintln!("cfp-mine: warning: final checkpoint commit failed: {e}");
            }
            if let Some(e) = sink.err {
                exit_for_write_error(&e);
            }
            let done =
                sink.latest.as_ref().map_or(sink.last_committed, |(progress, _)| progress.done());
            eprintln!(
                "cfp-mine: interrupted at a resumable watermark ({done} unit(s) done); run \
                 again with --resume to continue"
            );
            exit(CfpError::Interrupted.exit_code());
        }
        Err(e) => exit_for_mine_error(e),
    }
}

fn main() {
    // Arm failpoints from CFP_FAULT when the `fault` feature is
    // compiled in; a guaranteed no-op otherwise.
    cfp_fault::configure_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("cfp-mine: {msg}");
            print_usage();
            exit(EXIT_USAGE);
        }
    };
    // Shared state directories are single-owner: claim their PID locks
    // before any work, failing fast with exit 10 when another live run
    // already holds one. Stale locks from crashed runs are reclaimed.
    let mut state_dirs: Vec<&String> = Vec::new();
    state_dirs.extend(opts.checkpoint_dir.as_ref());
    state_dirs.extend(opts.spill_dir.as_ref());
    state_dirs.dedup();
    let _dir_locks: Vec<cfp_data::DirLock> = state_dirs
        .into_iter()
        .map(|dir| {
            cfp_data::DirLock::acquire(std::path::Path::new(dir))
                .unwrap_or_else(|e| exit_for_mine_error(e))
        })
        .collect();
    let profiling = opts.profile.is_some();
    let tracing = opts.trace_out.is_some() || opts.flame_out.is_some();
    // --mem-report needs the counter registry live for its distribution
    // summaries; counters are observational and never change output.
    // --metrics-out and --blackbox read the same registry (and the
    // latency histograms), so they arm it too.
    if profiling
        || tracing
        || opts.progress
        || opts.mem_report.is_some()
        || opts.metrics_out.is_some()
        || opts.blackbox.is_some()
    {
        cfp_trace::set_enabled(true);
    }
    if tracing || opts.blackbox.is_some() {
        // Event capture is gated separately from the counters so plain
        // `--profile` runs do not pay the per-event ring-buffer cost;
        // the flight recorder needs the rings for its last-N events.
        cfp_trace::events::set_capture(true);
        cfp_trace::events::name_thread("main");
    }
    if let Some(dir) = &opts.blackbox {
        // Create the directory up front: a run dying of ENOSPC or a
        // panic should not also have to mkdir on the way down.
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cfp-mine: cannot create blackbox directory {dir}: {e}");
            exit(1);
        }
        let context = vec![
            ("dataset".to_string(), opts.input.clone()),
            ("algorithm".to_string(), opts.algorithm.clone()),
            ("threads".to_string(), opts.threads.max(1).to_string()),
            ("output".to_string(), opts.output.to_string()),
            ("recover".to_string(), format!("{:?}", opts.recover).to_lowercase()),
        ];
        let _ = BLACKBOX_ARM.set(BlackboxArm { dir: std::path::PathBuf::from(dir), context });
        // A main-thread panic bypasses every structured exit path; hook
        // it so the flight recorder still fires (worker panics are
        // caught and arrive as CfpError::WorkerPanic instead).
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            default_hook(info);
            dump_blackbox(&format!("panic: {info}"), PANIC_EXIT_CODE);
        }));
    }
    let metrics = opts.metrics_out.as_ref().map(|path| {
        let labels = vec![
            ("dataset".to_string(), opts.input.clone()),
            ("algorithm".to_string(), opts.algorithm.clone()),
            ("threads".to_string(), opts.threads.max(1).to_string()),
        ];
        cfp_trace::MetricsExporter::start(
            std::path::PathBuf::from(path),
            opts.metrics_every,
            labels,
        )
    });
    let run_started = std::time::Instant::now();
    let sampler = (profiling || opts.trace_out.is_some())
        .then(|| cfp_trace::MemSampler::start(std::time::Duration::from_millis(10)));
    let meter = opts
        .progress
        .then(|| cfp_trace::ProgressMeter::start(std::time::Duration::from_millis(200)));

    // Pass 1 over the streamed input runs here (it resolves a relative
    // support); every later consumer reuses its counts.
    let source = Source::file(&opts.input, opts.policy);
    let counts = match source.counts() {
        Ok(counts) => counts,
        Err(CfpError::Io(e)) => {
            eprintln!("cannot read {}: {e}", opts.input);
            exit(1);
        }
        Err(e) => {
            eprintln!("cfp-mine: {}: {e}", opts.input);
            dump_blackbox(&format!("{}: {e}", opts.input), e.exit_code());
            exit(e.exit_code());
        }
    };
    if counts.parse.skipped_lines > 0 {
        eprintln!(
            "warning: skipped {} malformed line(s) ({} bad token(s)) in {}",
            counts.parse.skipped_lines, counts.parse.bad_tokens, opts.input
        );
    }
    let min_support = match opts.support {
        SupportSpec::Absolute(n) => n.max(1),
        SupportSpec::Relative(f) => ((counts.transactions as f64 * f).ceil() as u64).max(1),
    };
    eprintln!(
        "{}: {} transactions, {} distinct items; minimum support {min_support}",
        opts.input,
        counts.transactions,
        counts.distinct_items()
    );

    // Cooperative cancellation: a checkpointed or deadlined run stops at
    // the next resumable boundary on SIGINT/SIGTERM or when its
    // wall-clock budget expires, instead of dying mid-stream. Signal
    // handlers are installed only here, so plain runs keep the default
    // kill-me-now semantics.
    let cancel = (opts.checkpoint_dir.is_some() || opts.deadline.is_some()).then(|| {
        let mut token = cfp_fault::CancelToken::new();
        if let Some(budget) = opts.deadline {
            token = token.with_deadline(budget);
        }
        if cfp_fault::install_signal_handlers() {
            token = token.observing_signals();
        }
        token
    });

    // The attribution pool exists only when --mem-report asked for it;
    // the mining run charges it so per-component peaks describe the
    // real run, and the post-run analytics pass audits against it.
    let baseline = match baseline_by_name(&opts) {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("cfp-mine: {msg}");
            print_usage();
            exit(EXIT_USAGE);
        }
    };
    let run = Run {
        opts: &opts,
        baseline,
        pool: opts.mem_report.as_ref().map(|_| attribution_pool(&opts)),
        cancel,
    };
    let needs_collection =
        opts.top.is_some() || opts.closed || opts.maximal || opts.rules.is_some();
    let mut degradation: Option<RecoveryReport> = None;

    let stats = if opts.checkpoint_dir.is_some() {
        run_checkpointed(&run, &source, min_support, &mut degradation)
    } else if opts.count_only {
        let mut sink = CountingSink::new();
        let stats = run
            .mine(&source, min_support, &mut sink, None, &mut degradation)
            .unwrap_or_else(|e| exit_for_mine_error(e));
        if let Err(e) = writeln!(std::io::stdout(), "{}", sink.count) {
            exit_for_write_error(&e);
        }
        stats
    } else if let Some(k) = opts.top {
        let mut sink = TopKSink::new(k);
        let stats = run
            .mine(&source, min_support, &mut sink, None, &mut degradation)
            .unwrap_or_else(|e| exit_for_mine_error(e));
        if let Err(e) = print_itemsets(&sink.into_sorted()) {
            exit_for_write_error(&e);
        }
        stats
    } else if needs_collection {
        let mut sink = CollectSink::new();
        let stats = run
            .mine(&source, min_support, &mut sink, None, &mut degradation)
            .unwrap_or_else(|e| exit_for_mine_error(e));
        let all = sink.into_sorted();
        if let Some(conf) = opts.rules {
            let rules = RuleMiner::new(&all, counts.transactions).rules_by_confidence(conf);
            let stdout = std::io::stdout();
            let mut out = std::io::BufWriter::new(stdout.lock());
            for r in &rules {
                if let Err(e) = writeln!(
                    out,
                    "{:?} => {:?}  support {}  confidence {:.3}  lift {:.3}",
                    r.antecedent, r.consequent, r.support, r.confidence, r.lift
                ) {
                    exit_for_write_error(&e);
                }
            }
            if let Err(e) = out.flush() {
                exit_for_write_error(&e);
            }
            eprintln!("{} rules", rules.len());
        } else if opts.closed {
            if let Err(e) = print_itemsets(&closed_itemsets(&all)) {
                exit_for_write_error(&e);
            }
        } else if opts.maximal {
            if let Err(e) = print_itemsets(&maximal_itemsets(&all)) {
                exit_for_write_error(&e);
            }
        }
        stats
    } else {
        let stdout = std::io::stdout();
        let mut sink = PrintSink {
            out: std::io::BufWriter::new(stdout.lock()),
            lines: FimiLines::default(),
            count: 0,
            err: None,
        };
        let stats = match run.mine(&source, min_support, &mut sink, None, &mut degradation) {
            Ok(stats) => stats,
            Err(e) => {
                // A failed run — notably a `--deadline` interruption —
                // still flushes the complete lines emitted before the
                // stop, so a graceful exit 8 loses no buffered output.
                let _ = sink.out.flush();
                exit_for_mine_error(e)
            }
        };
        let flushed = sink.out.flush();
        if let Some(e) = sink.err {
            exit_for_write_error(&e);
        }
        if let Err(e) = flushed {
            exit_for_write_error(&e);
        }
        stats
    };
    let wall_nanos = run_started.elapsed().as_nanos() as u64;
    let samples = sampler.map(cfp_trace::MemSampler::stop).unwrap_or_default();
    if let Some(meter) = meter {
        meter.stop();
    }
    if let Some(exporter) = metrics {
        // Flushes one final snapshot, so even runs shorter than the
        // interval leave a complete export behind.
        let path = exporter.stop();
        eprintln!("metrics written to {} (and {}.jsonl)", path.display(), path.display());
    }
    // Freeze the timeline before any export reads it; the tracks are
    // shared by the Chrome export, the flame export, and the profile
    // report's events summary.
    let tracks = if tracing {
        cfp_trace::events::set_capture(false);
        cfp_trace::events::drain()
    } else {
        Vec::new()
    };
    if let Some(path) = &opts.trace_out {
        let json = cfp_trace::chrome::chrome_trace(&tracks, &samples);
        if let Err(e) = std::fs::write(path, json.to_pretty()) {
            eprintln!("cannot write trace {path}: {e}");
            exit(1);
        }
        eprintln!("trace written to {path} ({} tracks)", tracks.len());
    }
    if let Some(path) = &opts.flame_out {
        if let Err(e) = std::fs::write(path, cfp_trace::flame::folded_stacks(&tracks)) {
            eprintln!("cannot write flamegraph stacks {path}: {e}");
            exit(1);
        }
        eprintln!("flamegraph stacks written to {path}");
    }

    if let Some(path) = &opts.image {
        if opts.algorithm != "cfp" {
            eprintln!("--image requires the cfp algorithm");
            exit(EXIT_USAGE);
        }
        let image =
            MiningImage::try_build(&source, min_support).unwrap_or_else(|e| exit_for_mine_error(e));
        if let Err(e) = image.save(path) {
            eprintln!("cannot save image {path}: {e}");
            exit(1);
        }
        eprintln!("image saved to {path}");
    }
    if opts.stats {
        report_stats(&stats, stats.itemsets);
        if profiling {
            report_trace_stats();
        }
    }
    let mut memstat_summary: Option<cfp_trace::MemSummary> = None;
    if let Some(path) = &opts.mem_report {
        let pool = run.pool.as_ref().expect("pool exists whenever --mem-report is given");
        // FP-tree baselines for the compression table, built from the
        // same counts the CFP structures use.
        let recoder =
            source.counts().unwrap_or_else(|e| exit_for_mine_error(e)).recoder(min_support);
        let fp = cfp_fptree::FpTree::from_source(&source, &recoder)
            .unwrap_or_else(|e| exit_for_mine_error(e));
        let b = cfp_fptree::analysis::baselines(&fp);
        drop(fp);
        let baselines = cfp_core::FpBaselineBytes {
            nodes: b.nodes,
            in_memory_bytes: b.in_memory_bytes,
            paper_bytes: b.paper_bytes,
            nonordfp_bytes: b.nonordfp_bytes,
        };
        let run = cfp_core::MemStatRun {
            dataset: &opts.input,
            algorithm: &opts.algorithm,
            threads: opts.threads.max(1) as u64,
        };
        match cfp_core::collect_memstat(&source, min_support, &run, pool, Some(baselines)) {
            Ok(report) => {
                memstat_summary = Some(report.summary());
                if let Err(e) = std::fs::write(path, report.to_json().to_pretty()) {
                    eprintln!("cannot write memory report {path}: {e}");
                    exit(1);
                }
                eprintln!("memory report written to {path}");
            }
            Err(e) => {
                eprintln!("cfp-mine: memory report failed: {e}");
                exit(e.exit_code());
            }
        }
    }
    if let Some(d) = degradation.as_ref().filter(|d| d.recovered) {
        let winner = d.rungs.last().map(|r| r.rung).unwrap_or("?");
        eprintln!(
            "recovered via {winner} after {} rung(s){}",
            d.rungs.len(),
            if d.final_partitions > 0 {
                format!(" ({} partitions)", d.final_partitions)
            } else {
                String::new()
            }
        );
    }
    if let Some(path) = &opts.profile {
        let mut report = cfp_trace::RunReport::capture(
            opts.input.clone(),
            counts.transactions,
            min_support,
            opts.algorithm.clone(),
            opts.threads.max(1) as u64,
            stats.itemsets,
            wall_nanos,
            samples,
        );
        if opts.algorithm == "cfp" && opts.threads > 1 {
            report = report.with_schedule("dynamic");
        }
        // A supervised run that needed its ladder records what happened;
        // healthy runs keep the section absent so the schema stays
        // backward-compatible.
        if let Some(d) = degradation.as_ref().filter(|d| !d.rungs.is_empty()) {
            report = report.with_degradation(to_trace_degradation(d));
        }
        report = report.with_events(cfp_trace::events::summarize(&tracks));
        // Fold the memory summary in when --mem-report also ran, so
        // profile consumers can diff memory without the full document.
        if let Some(m) = memstat_summary.clone() {
            report = report.with_memstat(m);
        }
        if let Err(e) = std::fs::write(path, report.to_json().to_pretty()) {
            eprintln!("cannot write profile {path}: {e}");
            exit(1);
        }
        eprintln!("profile written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_bytes_accepts_suffixes() {
        assert_eq!(parse_bytes("4096"), Ok(4096));
        assert_eq!(parse_bytes("4k"), Ok(4096));
        assert_eq!(parse_bytes("64M"), Ok(64 << 20));
        assert_eq!(parse_bytes("2g"), Ok(2 << 30));
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("x").is_err());
        assert!(parse_bytes("12q").is_err());
        assert!(parse_bytes("99999999999999999999g").is_err());
    }

    #[test]
    fn parse_args_happy_path() {
        let o = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--threads",
            "4",
            "--mem-budget",
            "1m",
            "--skip-bad-lines",
        ]))
        .unwrap();
        assert_eq!(o.input, "in.dat");
        assert!(matches!(o.support, SupportSpec::Absolute(2)));
        assert_eq!(o.threads, 4);
        assert_eq!(o.mem_budget, Some(1 << 20));
        assert_eq!(o.policy, ParsePolicy::Skip);
    }

    #[test]
    fn parse_args_reports_problems_instead_of_exiting() {
        assert!(parse_args(&args(&[])).unwrap_err().contains("no input"));
        assert!(parse_args(&args(&["in.dat"])).unwrap_err().contains("--support"));
        assert!(parse_args(&args(&["in.dat", "--support"])).unwrap_err().contains("missing value"));
        assert!(parse_args(&args(&["in.dat", "--support", "x"]))
            .unwrap_err()
            .contains("bad support"));
        assert!(parse_args(&args(&["in.dat", "--support", "2", "--bogus"]))
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse_args(&args(&["in.dat", "--support", "2", "--mem-budget", "huge"]))
            .unwrap_err()
            .contains("bad byte count"));
    }

    #[test]
    fn parse_args_schedule() {
        // Work-stealing is the only mine-phase schedule, so `--schedule`
        // is not a flag in either spelling.
        for spelling in [&["--schedule", "dynamic"][..], &["--schedule=static"][..]] {
            let mut a = vec!["in.dat", "--support", "2"];
            a.extend_from_slice(spelling);
            let err = parse_args(&args(&a)).unwrap_err();
            assert!(err.contains("unknown argument \"--schedule\""), "{err}");
        }
    }

    #[test]
    fn parse_args_spill_flags() {
        let o = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--recover=spill",
            "--spill-dir",
            "/tmp/scratch",
        ]))
        .unwrap();
        assert_eq!(o.recover, RecoveryPolicy::Spill);
        assert_eq!(o.spill_dir.as_deref(), Some("/tmp/scratch"));

        // --spill-dir is meaningless outside the spill policy.
        let err =
            parse_args(&args(&["in.dat", "--support", "2", "--spill-dir", "/tmp/s"])).unwrap_err();
        assert!(err.contains("--recover=spill"), "{err}");
        let err = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--recover=partition",
            "--spill-dir",
            "/tmp/s",
        ]))
        .unwrap_err();
        assert!(err.contains("--recover=spill"), "{err}");

        // The policy list in the parse error names spill.
        let err =
            parse_args(&args(&["in.dat", "--support", "2", "--recover", "disk"])).unwrap_err();
        assert!(err.contains("spill"), "{err}");

        // --recover=spill applies to the cfp algorithm only.
        let o = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--algorithm",
            "apriori",
            "--recover=spill",
        ]))
        .unwrap();
        assert!(baseline_by_name(&o).is_err());
    }

    #[test]
    fn parse_args_checkpoint_flags() {
        let o = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--checkpoint-dir",
            "/tmp/ck",
            "--checkpoint-every",
            "7",
            "--resume",
            "--deadline",
            "1.5",
        ]))
        .unwrap();
        assert_eq!(o.checkpoint_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(o.checkpoint_every, 7);
        assert!(o.resume);
        assert_eq!(o.deadline, Some(Duration::from_secs_f64(1.5)));

        // Defaults: every 32 items, no resume, no deadline.
        let o =
            parse_args(&args(&["in.dat", "--support", "2", "--checkpoint-dir=/tmp/ck"])).unwrap();
        assert_eq!(o.checkpoint_every, 32);
        assert!(!o.resume);
        assert_eq!(o.deadline, None);

        // The checkpointed spill mode parses too.
        let o = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--checkpoint-dir=/tmp/ck",
            "--recover=spill",
            "--spill-dir=/tmp/sp",
        ]))
        .unwrap();
        assert_eq!(o.recover, RecoveryPolicy::Spill);
    }

    #[test]
    fn parse_args_checkpoint_validations() {
        let err = parse_args(&args(&["in.dat", "--support", "2", "--resume"])).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
        let err = parse_args(&args(&["in.dat", "--support", "2", "--checkpoint-every", "4"]))
            .unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");
        let err = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--checkpoint-dir=/tmp/ck",
            "--checkpoint-every",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        for bad in [
            &["--checkpoint-dir=/tmp/ck", "--count"][..],
            &["--checkpoint-dir=/tmp/ck", "--top", "5"][..],
            &["--checkpoint-dir=/tmp/ck", "--rules", "0.5"][..],
            &["--checkpoint-dir=/tmp/ck", "--recover=partition"][..],
            &["--checkpoint-dir=/tmp/ck", "--mem-report", "m.json"][..],
            &["--checkpoint-dir=/tmp/ck", "--algorithm", "fp"][..],
            &["--deadline", "5", "--algorithm", "eclat"][..],
            &["--deadline", "0"][..],
            &["--deadline", "-3"][..],
        ] {
            let mut a = vec!["in.dat", "--support", "2"];
            a.extend_from_slice(bad);
            assert!(parse_args(&args(&a)).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parse_args_output_modes() {
        let o = parse_args(&args(&["in.dat", "--support", "2", "--output", "closed"])).unwrap();
        assert_eq!(o.output, OutputMode::Closed);
        let o = parse_args(&args(&["in.dat", "--support", "2", "--output=maximal"])).unwrap();
        assert_eq!(o.output, OutputMode::Maximal);
        let o = parse_args(&args(&["in.dat", "--support", "2", "--output=topk:12"])).unwrap();
        assert_eq!(o.output, OutputMode::TopK(12));
        let o = parse_args(&args(&["in.dat", "--support", "2"])).unwrap();
        assert_eq!(o.output, OutputMode::All);

        // Malformed modes are usage errors.
        for bad in ["topk:0", "topk:x", "topk:", "frequent", ""] {
            let err =
                parse_args(&args(&["in.dat", "--support", "2", "--output", bad])).unwrap_err();
            assert!(err.contains("output mode"), "{bad:?}: {err}");
        }

        // The legacy condensed flags alias to engine modes on cfp…
        let o = parse_args(&args(&["in.dat", "--support", "2", "--closed"])).unwrap();
        assert_eq!(o.output, OutputMode::Closed);
        assert!(!o.closed, "aliased flag must not also trigger the post-hoc filter");
        let o = parse_args(&args(&["in.dat", "--support", "2", "--maximal"])).unwrap();
        assert_eq!(o.output, OutputMode::Maximal);
        let o = parse_args(&args(&["in.dat", "--support", "2", "--top", "7"])).unwrap();
        assert_eq!(o.output, OutputMode::TopK(7));
        assert_eq!(o.top, None);
        // …but stay post-hoc on the baselines, where --output is rejected.
        let o = parse_args(&args(&["in.dat", "--support", "2", "--algorithm=lcm", "--closed"]))
            .unwrap();
        assert_eq!(o.output, OutputMode::All);
        assert!(o.closed);
        let err =
            parse_args(&args(&["in.dat", "--support", "2", "--algorithm=lcm", "--output=closed"]))
                .unwrap_err();
        assert!(err.contains("cfp"), "{err}");

        // --rules needs the full set; --output conflicts with the legacy
        // flags it replaces. --rules with a legacy flag keeps output=All
        // (the rules branch wins, as it always has).
        let err = parse_args(&args(&["in.dat", "--support", "2", "--output=closed", "--maximal"]))
            .unwrap_err();
        assert!(err.contains("cannot be combined"), "{err}");
        let err =
            parse_args(&args(&["in.dat", "--support", "2", "--output=topk:3", "--rules", "0.5"]))
                .unwrap_err();
        assert!(err.contains("--rules"), "{err}");
        let o =
            parse_args(&args(&["in.dat", "--support", "2", "--rules", "0.5", "--closed"])).unwrap();
        assert_eq!(o.output, OutputMode::All);

        // Checkpointing streams closed/maximal but only on the off rung,
        // and never top-k (no watermark over a heap).
        let o = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--checkpoint-dir=/tmp/ck",
            "--output=closed",
        ]))
        .unwrap();
        assert_eq!(o.output, OutputMode::Closed);
        let err = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--checkpoint-dir=/tmp/ck",
            "--output=maximal",
            "--recover=spill",
        ]))
        .unwrap_err();
        assert!(err.contains("--recover=off"), "{err}");
        let err = parse_args(&args(&[
            "in.dat",
            "--support",
            "2",
            "--checkpoint-dir=/tmp/ck",
            "--output=topk:5",
        ]))
        .unwrap_err();
        assert!(err.contains("streaming"), "{err}");
    }

    #[test]
    fn parse_args_relative_support() {
        let o = parse_args(&args(&["x.dat", "--support", "2.5%"])).unwrap();
        match o.support {
            SupportSpec::Relative(f) => assert!((f - 0.025).abs() < 1e-12),
            SupportSpec::Absolute(_) => panic!("expected relative"),
        }
    }
}
