//! The versioned machine-readable run report.
//!
//! `cfp-mine --profile out.json` (and `cfp-bench`'s per-run profiles)
//! serialise a [`RunReport`] — one JSON document per mining run capturing
//! phase spans, the full counter registry, histogram sketches, and the
//! memory time series. The document is self-describing via its `schema`
//! field; consumers must check it before reading anything else.

use crate::counters;
use crate::events::EventsSummary;
use crate::json::Json;
use crate::memstat::MemSummary;
use crate::sampler::Sample;
use crate::span::{self, PhaseSpan};

/// Schema identifier of the current report layout. `/2` added the
/// `events` summary block (with its `dropped_events` accounting) for the
/// event-timeline layer to the retired `/1` layout.
pub const SCHEMA: &str = "cfp-profile/2";

/// Whether `schema` names a report layout this crate can read.
pub fn schema_is_supported(schema: &str) -> bool {
    schema == SCHEMA
}

/// One rung of the recovery ladder, as reported by the run supervisor.
#[derive(Clone, Debug)]
pub struct RungOutcome {
    /// Rung name: `"retry"`, `"degrade"`, or `"partition"`.
    pub rung: String,
    /// Whether this rung completed the run.
    pub succeeded: bool,
    /// Bytes compaction returned to the footprint during this rung.
    pub reclaimed_bytes: u64,
    /// Partitions mined in this rung (0 for non-partition rungs).
    pub partitions: u64,
    /// The error that ended this rung, if it failed.
    pub error: Option<String>,
}

/// The `degradation` section of a profile: what the supervisor did after
/// the initial attempt failed. Absent on healthy runs.
#[derive(Clone, Debug)]
pub struct DegradationReport {
    /// Recovery policy in force (`"retry"`, `"degrade"`, `"partition"`).
    pub policy: String,
    /// Rungs attempted, in ladder order; each at most once.
    pub rungs: Vec<RungOutcome>,
    /// Whether some rung completed the run.
    pub recovered: bool,
    /// Final partition count the database was mined under (0 when the
    /// partition rung was never reached).
    pub final_partitions: u64,
}

/// Everything `--profile` writes about one mining run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Dataset path or profile name.
    pub dataset: String,
    /// Transactions mined.
    pub transactions: u64,
    /// Absolute minimum support used.
    pub support: u64,
    /// Algorithm name as selected on the command line.
    pub algorithm: String,
    /// Worker threads (1 = sequential).
    pub threads: u64,
    /// Mine-phase schedule of a parallel run (`"dynamic"`; reports from
    /// older builds may also say `"static"`); absent for sequential runs
    /// and non-cfp algorithms.
    pub schedule: Option<String>,
    /// Frequent itemsets found.
    pub itemsets: u64,
    /// End-to-end wall time of the run in nanoseconds.
    pub wall_nanos: u64,
    /// Accumulated per-phase spans, in pipeline order.
    pub phases: Vec<PhaseSpan>,
    /// Counter/gauge registry snapshot, in registry order.
    pub counters: Vec<(&'static str, u64)>,
    /// Histogram snapshots (dense bucket vectors).
    pub histograms: Vec<(&'static str, Vec<u64>)>,
    /// Peak tracked bytes over the run.
    pub peak_bytes: u64,
    /// Tracked bytes at the end of the run.
    pub final_bytes: u64,
    /// Memory time series (at least two samples: start and stop).
    pub samples: Vec<Sample>,
    /// Recovery-ladder activity, present only for degraded runs.
    pub degradation: Option<DegradationReport>,
    /// Event-timeline summary, present when the caller attached one via
    /// [`with_events`](Self::with_events) (additive in `cfp-profile/2`).
    pub events: Option<EventsSummary>,
    /// Per-component memory summary, present when the caller attached
    /// one via [`with_memstat`](Self::with_memstat) (additive in
    /// `cfp-profile/2`; see the `cfp-memstat/1` document for the full
    /// space-domain report).
    pub memstat: Option<MemSummary>,
}

impl RunReport {
    /// Snapshots the global registry and phase spans into a report.
    /// Run metadata (`dataset`, `support`, ...) comes from the caller;
    /// everything else is read from the instrumentation state.
    #[allow(clippy::too_many_arguments)]
    pub fn capture(
        dataset: impl Into<String>,
        transactions: u64,
        support: u64,
        algorithm: impl Into<String>,
        threads: u64,
        itemsets: u64,
        wall_nanos: u64,
        samples: Vec<Sample>,
    ) -> Self {
        RunReport {
            dataset: dataset.into(),
            transactions,
            support,
            algorithm: algorithm.into(),
            threads,
            itemsets,
            wall_nanos,
            schedule: None,
            phases: span::phase_snapshot(),
            counters: counters::snapshot(),
            histograms: counters::histogram_snapshot(),
            peak_bytes: counters::MEM_PEAK_BYTES.get(),
            final_bytes: counters::MEM_CURRENT_BYTES.get(),
            samples,
            degradation: None,
            events: None,
            memstat: None,
        }
    }

    /// Records the mine-phase schedule of a parallel run in the `run`
    /// section.
    pub fn with_schedule(mut self, schedule: impl Into<String>) -> Self {
        self.schedule = Some(schedule.into());
        self
    }

    /// Attaches the supervisor's degradation section to the report.
    pub fn with_degradation(mut self, degradation: DegradationReport) -> Self {
        self.degradation = Some(degradation);
        self
    }

    /// Attaches the event-timeline summary (usually
    /// [`crate::events::summary`]) to the report.
    pub fn with_events(mut self, events: EventsSummary) -> Self {
        self.events = Some(events);
        self
    }

    /// Attaches the per-component memory summary (usually
    /// [`MemStatReport::summary`](crate::memstat::MemStatReport::summary))
    /// to the report.
    pub fn with_memstat(mut self, memstat: MemSummary) -> Self {
        self.memstat = Some(memstat);
        self
    }

    /// Serialises to the `cfp-profile/2` JSON document.
    pub fn to_json(&self) -> Json {
        let mut run_fields = vec![
            ("dataset".into(), Json::str(self.dataset.clone())),
            ("transactions".into(), Json::u64(self.transactions)),
            ("support".into(), Json::u64(self.support)),
            ("algorithm".into(), Json::str(self.algorithm.clone())),
            ("threads".into(), Json::u64(self.threads)),
        ];
        if let Some(s) = &self.schedule {
            run_fields.push(("schedule".into(), Json::str(s.clone())));
        }
        run_fields.push(("itemsets".into(), Json::u64(self.itemsets)));
        run_fields.push(("wall_nanos".into(), Json::u64(self.wall_nanos)));
        let run = Json::Obj(run_fields);
        let phases = Json::Arr(
            self.phases
                .iter()
                .map(|p| {
                    Json::Obj(vec![
                        ("name".into(), Json::str(p.name)),
                        ("nanos".into(), Json::u64(p.nanos)),
                        ("count".into(), Json::u64(p.count)),
                    ])
                })
                .collect(),
        );
        let counters = Json::Obj(
            self.counters.iter().map(|&(name, v)| (name.to_string(), Json::u64(v))).collect(),
        );
        // Histograms are sparse in practice (a handful of mask bytes, a
        // dozen depths), so emit [bucket, count] pairs for non-zero
        // buckets instead of dense vectors.
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(name, buckets)| {
                    let pairs = buckets
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c != 0)
                        .map(|(i, &c)| Json::Arr(vec![Json::u64(i as u64), Json::u64(c)]))
                        .collect();
                    (name.to_string(), Json::Arr(pairs))
                })
                .collect(),
        );
        let samples = Json::Arr(
            self.samples
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("at_ms".into(), Json::u64(s.at_ms)),
                        ("mem_current".into(), Json::u64(s.mem_current)),
                        ("mem_peak".into(), Json::u64(s.mem_peak)),
                        ("arena_used".into(), Json::u64(s.arena_used)),
                        ("arena_footprint".into(), Json::u64(s.arena_footprint)),
                    ])
                })
                .collect(),
        );
        let memory = Json::Obj(vec![
            ("peak_bytes".into(), Json::u64(self.peak_bytes)),
            ("final_bytes".into(), Json::u64(self.final_bytes)),
            ("samples".into(), samples),
        ]);
        let mut doc = vec![
            ("schema".into(), Json::str(SCHEMA)),
            ("run".into(), run),
            ("phases".into(), phases),
            ("counters".into(), counters),
            ("histograms".into(), histograms),
            ("memory".into(), memory),
        ];
        if let Some(m) = &self.memstat {
            doc.push(("memstat".into(), m.to_json()));
        }
        if let Some(e) = &self.events {
            doc.push((
                "events".into(),
                Json::Obj(vec![
                    ("tracks".into(), Json::u64(e.tracks)),
                    ("recorded".into(), Json::u64(e.recorded)),
                    ("dropped_events".into(), Json::u64(e.dropped_events)),
                    (
                        "by_kind".into(),
                        Json::Obj(
                            e.by_kind
                                .iter()
                                .map(|&(name, count)| (name.to_string(), Json::u64(count)))
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if let Some(d) = &self.degradation {
            let rungs = Json::Arr(
                d.rungs
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("rung".into(), Json::str(r.rung.clone())),
                            ("succeeded".into(), Json::Bool(r.succeeded)),
                            ("reclaimed_bytes".into(), Json::u64(r.reclaimed_bytes)),
                            ("partitions".into(), Json::u64(r.partitions)),
                            (
                                "error".into(),
                                match &r.error {
                                    Some(e) => Json::str(e.clone()),
                                    None => Json::Null,
                                },
                            ),
                        ])
                    })
                    .collect(),
            );
            doc.push((
                "degradation".into(),
                Json::Obj(vec![
                    ("policy".into(), Json::str(d.policy.clone())),
                    ("rungs".into(), rungs),
                    ("recovered".into(), Json::Bool(d.recovered)),
                    ("final_partitions".into(), Json::u64(d.final_partitions)),
                ]),
            ));
        }
        Json::Obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample(at_ms: u64, current: u64) -> Sample {
        Sample {
            at_ms,
            mem_current: current,
            mem_peak: current,
            arena_used: current / 2,
            arena_footprint: current,
        }
    }

    #[test]
    fn report_serialises_and_parses_with_schema() {
        let report = RunReport::capture(
            "retail-like",
            30_000,
            240,
            "cfp",
            1,
            9_000,
            1_234_567,
            vec![sample(0, 100), sample(10, 4096)],
        );
        let text = report.to_json().to_pretty();
        let doc = json::parse(&text).expect("report must be valid JSON");
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let run = doc.get("run").expect("run object");
        assert_eq!(run.get("support").and_then(Json::as_u64), Some(240));
        assert_eq!(run.get("algorithm").and_then(Json::as_str), Some("cfp"));
        let phases = doc.get("phases").and_then(Json::as_arr).expect("phases");
        assert_eq!(phases.len(), 7, "one entry per pipeline phase");
        assert_eq!(
            phases[0].get("name").and_then(Json::as_str),
            Some("read"),
            "phases stay in pipeline order"
        );
        let samples = doc
            .get("memory")
            .and_then(|m| m.get("samples"))
            .and_then(Json::as_arr)
            .expect("memory.samples");
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].get("arena_footprint").and_then(Json::as_u64), Some(4096));
    }

    #[test]
    fn schedule_field_is_absent_by_default_and_round_trips() {
        let base = RunReport::capture("d", 1, 1, "cfp", 4, 0, 1, vec![]);
        let doc = json::parse(&base.to_json().to_compact()).unwrap();
        assert!(doc.get("run").unwrap().get("schedule").is_none());

        let doc = json::parse(&base.with_schedule("dynamic").to_json().to_pretty()).unwrap();
        let run = doc.get("run").expect("run object");
        assert_eq!(run.get("schedule").and_then(Json::as_str), Some("dynamic"));
        assert_eq!(run.get("threads").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn histograms_are_sparse_pairs() {
        crate::counters::TREE_MASK_BYTES.record(0x0F);
        let report = RunReport::capture("d", 1, 1, "cfp", 1, 0, 1, vec![]);
        let doc = json::parse(&report.to_json().to_compact()).unwrap();
        let mask = doc
            .get("histograms")
            .and_then(|h| h.get("tree.mask_bytes"))
            .and_then(Json::as_arr)
            .expect("mask histogram");
        assert!(mask
            .iter()
            .any(|pair| pair.as_arr().map(|p| p[0].as_u64() == Some(0x0F)) == Some(true)));
        crate::counters::TREE_MASK_BYTES.reset();
    }

    #[test]
    fn counters_appear_by_name() {
        let report = RunReport::capture("d", 1, 1, "cfp", 1, 0, 1, vec![]);
        let doc = json::parse(&report.to_json().to_compact()).unwrap();
        let counters = doc.get("counters").expect("counters object");
        assert!(counters.get("memman.allocs").is_some());
        assert!(counters.get("core.conditional_trees").is_some());
    }

    #[test]
    fn both_schema_generations_are_supported() {
        assert!(schema_is_supported(SCHEMA));
        assert!(!schema_is_supported("cfp-profile/1"), "v1 read support is retired");
        assert!(schema_is_supported("cfp-profile/2"));
        assert!(!schema_is_supported("cfp-profile/3"));
        assert!(!schema_is_supported("something-else/1"));
    }

    #[test]
    fn events_section_is_absent_by_default_and_round_trips() {
        let base = RunReport::capture("d", 1, 1, "cfp", 1, 0, 1, vec![]);
        let doc = json::parse(&base.to_json().to_compact()).unwrap();
        assert!(doc.get("events").is_none(), "no events block unless attached");

        let with = base.with_events(EventsSummary {
            tracks: 4,
            recorded: 1000,
            dropped_events: 12,
            by_kind: vec![("phase_begin", 6), ("task_claim", 982)],
        });
        let doc = json::parse(&with.to_json().to_pretty()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("cfp-profile/2"));
        let events = doc.get("events").expect("events section");
        assert_eq!(events.get("tracks").and_then(Json::as_u64), Some(4));
        assert_eq!(events.get("dropped_events").and_then(Json::as_u64), Some(12));
        let by_kind = events.get("by_kind").expect("by_kind map");
        assert_eq!(by_kind.get("task_claim").and_then(Json::as_u64), Some(982));
    }

    #[test]
    fn memstat_section_is_absent_by_default_and_round_trips() {
        let base = RunReport::capture("d", 1, 1, "cfp", 1, 0, 1, vec![]);
        let doc = json::parse(&base.to_json().to_compact()).unwrap();
        assert!(doc.get("memstat").is_none(), "no memstat block unless attached");

        let with = base.with_memstat(MemSummary {
            pool_peak: 62213,
            reconciled: true,
            component_peaks: vec![("build-tree".into(), 50000), ("cond-trees".into(), 9000)],
        });
        let doc = json::parse(&with.to_json().to_pretty()).unwrap();
        let m = doc.get("memstat").expect("memstat section");
        assert_eq!(m.get("pool_peak").and_then(Json::as_u64), Some(62213));
        assert_eq!(m.get("reconciled"), Some(&Json::Bool(true)));
        let peaks = m.get("component_peaks").expect("component_peaks map");
        assert_eq!(peaks.get("cond-trees").and_then(Json::as_u64), Some(9000));
    }

    #[test]
    fn degradation_section_is_absent_by_default_and_round_trips() {
        let base = RunReport::capture("d", 1, 1, "cfp", 1, 0, 1, vec![]);
        let doc = json::parse(&base.to_json().to_compact()).unwrap();
        assert!(doc.get("degradation").is_none(), "healthy runs carry no degradation");

        let degraded = base.with_degradation(DegradationReport {
            policy: "partition".into(),
            rungs: vec![
                RungOutcome {
                    rung: "retry".into(),
                    succeeded: false,
                    reclaimed_bytes: 512,
                    partitions: 0,
                    error: Some("memory exhausted".into()),
                },
                RungOutcome {
                    rung: "partition".into(),
                    succeeded: true,
                    reclaimed_bytes: 0,
                    partitions: 4,
                    error: None,
                },
            ],
            recovered: true,
            final_partitions: 4,
        });
        let doc = json::parse(&degraded.to_json().to_pretty()).unwrap();
        let d = doc.get("degradation").expect("degradation section");
        assert_eq!(d.get("policy").and_then(Json::as_str), Some("partition"));
        assert_eq!(d.get("recovered"), Some(&Json::Bool(true)));
        assert_eq!(d.get("final_partitions").and_then(Json::as_u64), Some(4));
        let rungs = d.get("rungs").and_then(Json::as_arr).expect("rungs array");
        assert_eq!(rungs.len(), 2);
        assert_eq!(rungs[0].get("rung").and_then(Json::as_str), Some("retry"));
        assert_eq!(rungs[0].get("reclaimed_bytes").and_then(Json::as_u64), Some(512));
        assert_eq!(rungs[1].get("partitions").and_then(Json::as_u64), Some(4));
        assert_eq!(rungs[1].get("error"), Some(&Json::Null));
    }
}
