//! `cfpbench-harness` — the compiled half of the cfp-mine benchmark
//! (`cfpbench/run.py` drives it).
//!
//! ```text
//! cfpbench-harness gen-dense --transactions N --groups G --values V \
//!                  --presence P --skew S --seed X <out.dat>
//! cfpbench-harness digest < cfp-mine-output
//! cfpbench-harness trace --input F --support S --threads T \
//!                  [--mem-budget BYTES --spill-dir DIR]
//! ```
//!
//! * `gen-dense` writes connect-shaped dense data (one value per attribute
//!   group) from a seed. The repository's `connect-like` profile has the
//!   same shape but a fixed seed, so the benchmark carries its own copy of
//!   the generator.
//! * `digest` reads FIMI output (`3 17 29 (1250)` per line) and prints the
//!   line count and an order-independent digest: each line's items are
//!   sorted, hashed with its support, and the hashes are summed, so two
//!   outputs with the same itemsets in any order agree.
//! * `trace` replays one workload's pipeline in-process and times each call
//!   into a layer's public API (see `trace.rs`).

mod trace;

use cfp_data::rng::{Rng, StdRng};
use cfp_data::{fimi, Item, TransactionDb};
use std::io::{self, BufRead, Read};
use std::process::exit;

fn usage() -> ! {
    eprintln!("usage: cfpbench-harness gen-dense --transactions N --groups G --values V");
    eprintln!("                         --presence P --skew S --seed X <out.dat>");
    eprintln!("       cfpbench-harness digest < output");
    eprintln!("       cfpbench-harness trace --input F --support S --threads T");
    eprintln!("                         [--mem-budget BYTES --spill-dir DIR]");
    exit(2);
}

/// `--flag value` pairs plus at most one positional argument.
struct Args {
    flags: Vec<(String, String)>,
    positional: Option<String>,
}

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut out = Args { flags: Vec::new(), positional: None };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let Some(value) = it.next() else {
                    eprintln!("missing value for --{name}");
                    usage()
                };
                out.flags.push((name.to_string(), value.clone()));
            } else if out.positional.is_none() {
                out.positional = Some(arg.clone());
            } else {
                eprintln!("unexpected argument {arg:?}");
                usage()
            }
        }
        out
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> T {
        let Some(raw) = self.opt(name) else {
            eprintln!("missing --{name}");
            usage()
        };
        raw.parse().unwrap_or_else(|_| {
            eprintln!("cannot parse --{name} {raw:?}");
            usage()
        })
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let rest = Args::parse(&args[1..]);
    match command.as_str() {
        "gen-dense" => {
            let Some(out) = rest.positional.as_deref() else { usage() };
            let db = dense_attributes(
                rest.get("transactions"),
                rest.get("groups"),
                rest.get("values"),
                rest.get("presence"),
                rest.get("skew"),
                rest.get("seed"),
            );
            if let Err(e) = fimi::write_file(&db, out) {
                eprintln!("cannot write {out}: {e}");
                exit(1);
            }
        }
        "digest" => match digest(io::stdin().lock()) {
            Ok((lines, sum)) => println!("{lines} {sum:016x}"),
            Err(e) => {
                eprintln!("cannot read output: {e}");
                exit(1);
            }
        },
        "trace" => {
            let input: String = rest.get("input");
            let support = trace::Support::parse(rest.opt("support").unwrap_or_else(|| usage()))
                .unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                });
            let spill = rest.opt("mem-budget").map(|_| trace::Spill {
                budget: rest.get("mem-budget"),
                dir: rest.get::<String>("spill-dir").into(),
            });
            match trace::run(&input, support, rest.get("threads"), spill) {
                Ok(json) => println!("{json}"),
                Err(e) => {
                    eprintln!("trace failed: {e}");
                    exit(1);
                }
            }
        }
        _ => usage(),
    }
}

/// Dense attribute data: every transaction holds, for each of `groups`
/// attributes present (probability `presence`), one of `values` items,
/// value `v` drawn with probability proportional to `skew^v`.
fn dense_attributes(
    transactions: usize,
    groups: usize,
    values: usize,
    presence: f64,
    skew: f64,
    seed: u64,
) -> TransactionDb {
    if values == 0 || groups == 0 {
        eprintln!("--groups and --values must be positive");
        usage()
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let cdf: Vec<f64> = (0..values)
        .scan(0.0, |acc, v| {
            *acc += skew.powi(v as i32);
            Some(*acc)
        })
        .collect();
    let total = cdf[values - 1];
    let mut db = TransactionDb::with_capacity(transactions, transactions * groups);
    let mut txn: Vec<Item> = Vec::with_capacity(groups);
    for _ in 0..transactions {
        txn.clear();
        for g in 0..groups {
            if presence < 1.0 && rng.gen::<f64>() >= presence {
                continue;
            }
            let u = rng.gen::<f64>() * total;
            let v = cdf.partition_point(|&c| c < u).min(values - 1);
            txn.push((g * values + v) as Item);
        }
        db.push(&txn);
    }
    db
}

/// Line count and order-independent digest of FIMI itemset output.
///
/// A well-formed line (`items... (support)`) hashes its sorted items and
/// its support; any other line hashes its raw bytes, so it still counts
/// against a reference instead of being skipped.
fn digest(input: impl Read) -> io::Result<(u64, u64)> {
    let mut lines = 0u64;
    let mut sum = 0u64;
    let mut items: Vec<u64> = Vec::new();
    for line in io::BufReader::with_capacity(1 << 20, input).split(b'\n') {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        lines += 1;
        let hash = match parse_itemset(&line, &mut items) {
            Some(support) => {
                items.sort_unstable();
                let mut h = Fnv::new();
                for &item in &items {
                    h.write(&item.to_le_bytes());
                }
                h.write(b"(");
                h.write(&support.to_le_bytes());
                h.finish()
            }
            None => {
                let mut h = Fnv::new();
                h.write(b"raw:");
                h.write(&line);
                h.finish()
            }
        };
        sum = sum.wrapping_add(mix64(hash));
    }
    Ok((lines, sum))
}

/// Parses `a b c (s)` into `items` and returns `s`.
fn parse_itemset(line: &[u8], items: &mut Vec<u64>) -> Option<u64> {
    items.clear();
    let mut tokens = line.split(|&b| b == b' ').filter(|t| !t.is_empty());
    let mut support = None;
    for token in tokens.by_ref() {
        if let Some(inner) = token.strip_prefix(b"(").and_then(|t| t.strip_suffix(b")")) {
            support = Some(parse_u64(inner)?);
            break;
        }
        items.push(parse_u64(token)?);
    }
    if tokens.next().is_some() {
        return None;
    }
    support
}

fn parse_u64(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() || digits.len() > 19 {
        return None;
    }
    digits
        .iter()
        .try_fold(0u64, |acc, &d| d.is_ascii_digit().then(|| acc * 10 + u64::from(d - b'0')))
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64 finaliser: spreads FNV's weak high bits before the sum.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_line_and_item_order() {
        let a = digest(&b"1 2 (5)\n3 (7)\n"[..]).unwrap();
        let b = digest(&b"3 (7)\n2 1 (5)\n"[..]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.0, 2);
    }

    #[test]
    fn digest_sees_changed_support_missing_line_and_garbage() {
        let base = digest(&b"1 2 (5)\n3 (7)\n"[..]).unwrap();
        assert_ne!(base, digest(&b"1 2 (6)\n3 (7)\n"[..]).unwrap());
        assert_ne!(base, digest(&b"1 2 (5)\n"[..]).unwrap());
        assert_ne!(base, digest(&b"1 2 (5)\n3 (7\n"[..]).unwrap());
    }
}
