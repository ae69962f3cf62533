//! Pipeline observability (`ent_core::metrics`): stage timers, throughput
//! counters and the machine-readable perf trajectory
//! (`BENCH_pipeline.json`).
//!
//! The paper's evaluation is throughput-heavy batch analysis (>100 hours
//! of traces); the ROADMAP demands the pipeline run as fast as the
//! hardware allows. Neither is achievable blind: this module records
//! where a study run spends its time — in one table of stages, the
//! application analyzers among them ([`Stage`]) — with monotonic timers,
//! threaded through every batch entry point of [`crate::pipeline`] exactly
//! like [`crate::records::IngestHealth`]: accumulated per trace, merged
//! lock-free per worker, aggregated per dataset and study-wide. One
//! [`std::time::Instant::now`] costs 39–43 ns on the reference box (20 M
//! back-to-back reads, `rustc -O`) — as much as the per-packet and
//! per-delivery work it would bracket — so every stage that runs per
//! packet, per delivery or per connection reads the clock for one event in
//! 71 and reports an estimate (the rule is stated on [`Stage`]).
//!
//! Two invariants make the numbers trustworthy:
//!
//! * **Event and byte counts are deterministic** — counted on every event,
//!   independent of thread count and work-queue scheduling, so they double
//!   as a correctness fingerprint (see the determinism test in
//!   [`crate::run`]).
//! * **Wall times are honest** — nested stages are declared as nested
//!   ([`Stage::parent`]: analyzer delivery time is *inside* flow-ingest
//!   time), never double-reported as disjoint, the roots add up to the
//!   worker wall (`entreport obs-check`), and which events are clocked is a
//!   pure function of the input.

use crate::error::BenchJsonError;
use crate::report::Table;
use std::time::Instant;

/// Wall time, event count and byte volume for one pipeline stage.
///
/// `wall_ns` is cumulative monotonic time; `events` and `bytes` are
/// stage-specific (documented per stage on [`PipelineMetrics`]) and are
/// deterministic for a given input regardless of parallelism.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StageStat {
    /// Cumulative wall-clock nanoseconds spent in the stage.
    pub wall_ns: u64,
    /// Stage-specific event count (packets, deliveries, connections, …).
    pub events: u64,
    /// Bytes processed by the stage (0 where not meaningful).
    pub bytes: u64,
}

impl StageStat {
    /// Record one batch of work.
    #[inline]
    pub fn add(&mut self, wall_ns: u64, events: u64, bytes: u64) {
        self.wall_ns += wall_ns;
        self.events += events;
        self.bytes += bytes;
    }

    /// Fold another stat into this one.
    pub fn absorb(&mut self, other: &StageStat) {
        self.add(other.wall_ns, other.events, other.bytes);
    }

    /// Wall time in (fractional) microseconds.
    pub fn wall_us(&self) -> f64 {
        self.wall_ns as f64 / 1_000.0
    }

    /// Events per second of stage wall time (0 when untimed).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.events as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// A cheap monotonic stopwatch for attributing wall time to stages.
///
/// `lap()` returns the nanoseconds since the previous lap (or start) and
/// restarts the clock, so a chain of laps attributes a loop body to
/// consecutive stages with one clock read per boundary.
#[derive(Debug, Clone, Copy)]
pub struct StageTimer(Instant);

#[cfg(test)]
thread_local! {
    /// Clock reads this thread's timers have made: what the pipeline's
    /// clock-read pin counts.
    pub(crate) static CLOCK_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The one place a stage timer reads the clock.
#[inline]
#[expect(clippy::disallowed_methods, reason = "stage walls are observability, never a result")]
fn now() -> Instant {
    #[cfg(test)]
    CLOCK_READS.with(|n| n.set(n.get() + 1));
    Instant::now()
}

impl StageTimer {
    /// Start the stopwatch.
    #[inline]
    pub fn start() -> StageTimer {
        StageTimer(now())
    }

    /// Nanoseconds since start/previous lap; restarts the clock.
    #[inline]
    pub fn lap(&mut self) -> u64 {
        let now = now();
        let ns = now.duration_since(self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }

    /// Nanoseconds since start/previous lap, without restarting.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        now().duration_since(self.0).as_nanos() as u64
    }
}

/// Declare an enum and the [`StageStat`] table it indexes from one row per
/// variant: the variant, its document name, the bench documents that must
/// report it non-zero and the row whose wall time contains it. Whatever
/// enumerates the rows — documents, the stage table, the events signature,
/// the checkpoint codec — loops over the generated `ALL`: a name is
/// written once.
macro_rules! stat_table {
    (@parent $E:ident) => { None };
    (@parent $E:ident $P:ident) => { Some($E::$P) };
    (
        $(#[$emeta:meta])* enum $E:ident;
        $(#[$tmeta:meta])* struct $T:ident;
        $( $(#[$vmeta:meta])* $V:ident = $name:literal $(in $($docs:ident)|+)? $(under $P:ident)? ),+ $(,)?
    ) => {
        $(#[$emeta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $E { $( $(#[$vmeta])* $V ),+ }

        impl $E {
            /// Number of variants.
            pub const COUNT: usize = [$($name),+].len();
            /// Every variant in declaration order — which is also document,
            /// signature and checkpoint order.
            pub const ALL: [$E; Self::COUNT] = [$($E::$V),+];

            /// The name used in documents, tables and the events signature.
            pub const fn name(self) -> &'static str {
                match self { $($E::$V => $name),+ }
            }

            /// Bit set of the bench documents that must report this entry
            /// non-zero (0 where the table declares none).
            pub const fn mandatory_in(self) -> u8 {
                match self { $($E::$V => 0 $($(| $docs)+)?),+ }
            }

            /// The entry this one is nested inside — its wall time is part
            /// of the parent's (`None` for an entry declared without one).
            pub const fn parent(self) -> Option<$E> {
                match self { $($E::$V => stat_table!(@parent $E $($P)?)),+ }
            }
        }

        $(#[$tmeta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $T {
            /// One slot per variant, in `ALL` order.
            pub(crate) stats: [StageStat; $E::COUNT],
        }

        impl $T {
            /// (name, stat) pairs in `ALL` order.
            pub fn named(&self) -> impl Iterator<Item = (&'static str, &StageStat)> {
                $E::ALL.iter().map(|k| k.name()).zip(&self.stats)
            }

            /// Fold another table into this one, entry by entry.
            pub fn absorb(&mut self, other: &$T) {
                for (mine, theirs) in self.stats.iter_mut().zip(&other.stats) {
                    mine.absorb(theirs);
                }
            }
        }

        impl std::ops::Index<$E> for $T {
            type Output = StageStat;
            #[inline]
            #[expect(clippy::indexing_slicing, reason = "the table has one slot per variant")]
            fn index(&self, k: $E) -> &StageStat {
                &self.stats[k as usize]
            }
        }

        impl std::ops::IndexMut<$E> for $T {
            #[inline]
            #[expect(clippy::indexing_slicing, reason = "the table has one slot per variant")]
            fn index_mut(&mut self, k: $E) -> &mut StageStat {
                &mut self.stats[k as usize]
            }
        }
    };
}

/// [`Stage::mandatory_in`] bit: non-zero in every `ent-bench-pipeline/1`
/// document. A zero there means the instrumentation rotted; `entreport
/// obs-check` fails on it.
pub const STUDY_DOC: u8 = 1;
/// [`Stage::mandatory_in`] bit: non-zero in every `ent-bench-monitor/1`
/// document (so the run had checkpointing on and saw both TCP and UDP
/// traffic — what the CI smoke drives).
pub const MONITOR_DOC: u8 = 2;

stat_table! {
    /// The ledger: one row per stage with individually-attributed time —
    /// the ten batch stages, three monitor-mode stages (zero for batch
    /// runs), the ingest elapsed-wall stage, then one row per application
    /// analyzer. Each variant states what its `events` / `bytes` count. A
    /// stage nested inside another is declared `under` it
    /// ([`Stage::parent`]), never double-reported as disjoint; the rows
    /// without a parent (the roots) add up to a trace's worker wall, less
    /// the seal's few unclocked passes.
    ///
    /// **Events and bytes are exact; the walls of the per-packet,
    /// per-delivery and per-connection stages are 1-in-71 estimates.**
    /// `frame_parse`, `flow_ingest`, `finalize` and every analyzer count
    /// each event as it happens but read the clock only for an event whose
    /// row's own event counter, before the bump, is a multiple of one
    /// stride (71) — no RNG, so which events are clocked is a pure function
    /// of the input, and the first event of every window is clocked. The
    /// window close turns the clocked laps into `wall_ns` (DESIGN §8c), then
    /// fills each of [`SUM_ROWS`] with the sum of its children. Every other
    /// stage runs once per trace, epoch or checkpoint and is clocked
    /// exactly.
    enum Stage;
    /// One [`StageStat`] per [`Stage`], indexed by the enum.
    struct StageStats;
    /// Synthesis of the trace (`ent-gen`; added by [`crate::run`], where
    /// generation happens): packets generated / wire bytes.
    Generate = "generate" in STUDY_DOC,
    /// Application-session emission into the trace buffer: logical packets
    /// emitted, *including* the beyond-window tail the trace never
    /// materializes / logical wire bytes of the same.
    GenSynth = "gen_synth" in STUDY_DOC under Generate,
    /// The global timestamp sort of the emitted packet records: in-window
    /// records sorted / 0.
    GenSort = "gen_sort" in STUDY_DOC under Generate,
    /// Tap admission: injected drops over frames already written at the
    /// snaplen: packets captured / captured (post-snaplen) bytes.
    GenTap = "gen_tap" in STUDY_DOC under Generate,
    /// Link/network/transport dissection (`ent-wire`): frames seen
    /// (including rejected ones) / captured bytes. Inside the batch ingest
    /// phase's elapsed wall, [`Stage::Ingest`].
    FrameParse = "frame_parse" in STUDY_DOC | MONITOR_DOC under Ingest,
    /// Connection demultiplexing (`ent-flow`) *including* nested analyzer
    /// deliveries and conn finalization: packets ingested / wire bytes.
    /// Inside [`Stage::Ingest`], as `frame_parse` is.
    FlowIngest = "flow_ingest" in STUDY_DOC | MONITOR_DOC under Ingest,
    /// In-order TCP payload handed to an application analyzer: deliveries /
    /// delivered bytes. A sum row: the TCP analyzers' rows, added up.
    TcpDeliver = "tcp_deliver" in STUDY_DOC | MONITOR_DOC under FlowIngest,
    /// Datagrams handed to an application analyzer: deliveries / delivered
    /// bytes. A sum row: the UDP analyzers' rows, added up.
    UdpDeliver = "udp_deliver" in STUDY_DOC | MONITOR_DOC under FlowIngest,
    /// Per-connection analyzer drain at close: connections summarized /
    /// payload bytes of those connections.
    Finalize = "finalize" in STUDY_DOC | MONITOR_DOC under FlowIngest,
    /// The paper's §3 scanner filter: connections examined / 0 (the bytes
    /// field is *not* reused as a removed-connections count).
    ScannerRemoval = "scanner_removal" in STUDY_DOC | MONITOR_DOC,
    /// Monitor mode, epoch-boundary rotation: epochs flushed (including
    /// the final partial epoch) / connections force-closed at a boundary.
    EpochRotate = "epoch_rotate" in MONITOR_DOC,
    /// Monitor mode, checkpoint serialization + atomic write: checkpoints
    /// written / 0.
    Checkpoint = "checkpoint" in MONITOR_DOC,
    /// The time a batch run's dispatcher waited for room in its worker
    /// lane's batch channel (zero inline and in monitor mode), inside the
    /// ingest phase's elapsed wall; events and bytes are 0. Bounded-state
    /// degradation is counted by [`crate::records::IngestHealth`] alone.
    Backpressure = "backpressure" under Ingest,
    /// *Elapsed* wall of the frame-parse + flow-ingest phase of one trace,
    /// end to end, as the caller saw it (zero in monitor mode). Inline it
    /// is the frame loop plus the window close; on the worker lane, whose
    /// `frame_parse`/`flow_ingest` walls count only the worker's own work,
    /// it adds the hand-off and the join. Those stages and `backpressure`
    /// are declared `under` it, so its exclusive wall is the phase's own
    /// share (the window close, and the lane's hand-off). Events and bytes
    /// are always 0.
    Ingest = "ingest",
    // One row per application analyzer, under the stage that delivers its
    // payload. An event is one delivery into the analyzer (a TCP segment's
    // in-order data or one UDP datagram); bytes are the delivered payload
    // bytes.
    /// HTTP transaction parsing.
    Http = "http" under TcpDeliver,
    /// SMTP session tracking.
    Smtp = "smtp" under TcpDeliver,
    /// Cleartext IMAP4 command tracking.
    Imap = "imap" under TcpDeliver,
    /// TLS record/handshake tracking (HTTPS, IMAP-S, POP-S).
    Tls = "tls" under TcpDeliver,
    /// CIFS/SMB (and NetBIOS-SSN) message parsing.
    Cifs = "cifs" under TcpDeliver,
    /// DCE/RPC call parsing (mapped ports and pipes).
    Dcerpc = "dcerpc" under TcpDeliver,
    /// NFS over TCP.
    NfsTcp = "nfs_tcp" under TcpDeliver,
    /// NFS over UDP.
    NfsUdp = "nfs_udp" under UdpDeliver,
    /// NCP call parsing.
    Ncp = "ncp" under TcpDeliver,
    /// DNS query/response matching.
    Dns = "dns" under UdpDeliver,
    /// NetBIOS-NS transaction matching.
    Nbns = "nbns" under UdpDeliver,
}

/// The rows that time nothing themselves: at every window close each is
/// set to the sum of the rows declared `under` it — events, bytes and wall
/// — so a delivery is counted once, in its analyzer's row.
pub const SUM_ROWS: [Stage; 2] = [Stage::TcpDeliver, Stage::UdpDeliver];

impl Stage {
    /// Whether a sum row already holds this row's figures in full: the
    /// analyzer rows.
    pub(crate) fn summed(self) -> bool {
        self.parent().is_some_and(|p| SUM_ROWS.contains(&p))
    }
}

impl StageStats {
    /// Set every one of [`SUM_ROWS`] to the sum of its child rows.
    pub(crate) fn fill_sum_rows(&mut self) {
        for row in SUM_ROWS {
            let mut sum = StageStat::default();
            for (stage, stat) in Stage::ALL.iter().zip(&self.stats) {
                if stage.parent() == Some(row) {
                    sum.absorb(stat);
                }
            }
            self[row] = sum;
        }
    }
}

/// Stage-level observability for the analysis pipeline.
///
/// Accumulated per trace by the [`crate::pipeline`] session, carried on
/// [`crate::records::TraceAnalysis::metrics`], and aggregated with
/// [`PipelineMetrics::absorb`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PipelineMetrics {
    /// Per-stage wall time and event counts (see [`Stage`] for what each
    /// stage's events and bytes mean).
    pub stages: StageStats,
    /// High-water mark of simultaneously open connections (max, not sum,
    /// under [`PipelineMetrics::absorb`]).
    pub peak_open_conns: u64,
    /// Total wall time attributed to traces (generation + analysis). Under
    /// aggregation this is *worker* time: the sum over traces, which can
    /// exceed elapsed wall clock when workers run in parallel.
    pub trace_wall_ns: u64,
    /// Traces folded into this record.
    pub traces: u64,
}

impl PipelineMetrics {
    /// Fold another trace's (or dataset's) metrics into this one.
    /// Wall times and counts add; `peak_open_conns` takes the max.
    pub fn absorb(&mut self, other: &PipelineMetrics) {
        self.stages.absorb(&other.stages);
        self.peak_open_conns = self.peak_open_conns.max(other.peak_open_conns);
        self.trace_wall_ns += other.trace_wall_ns;
        self.traces += other.traces;
    }

    /// Packets analyzed (the flow-ingest event count).
    pub fn packets(&self) -> u64 {
        self.stages[Stage::FlowIngest].events
    }

    /// Wire bytes analyzed.
    pub fn bytes(&self) -> u64 {
        self.stages[Stage::FlowIngest].bytes
    }

    /// Packets per second of worker time (generation + analysis).
    pub fn packets_per_sec(&self) -> f64 {
        if self.trace_wall_ns == 0 {
            return 0.0;
        }
        self.packets() as f64 / (self.trace_wall_ns as f64 / 1e9)
    }

    /// Wire bytes per second of worker time.
    pub fn bytes_per_sec(&self) -> f64 {
        if self.trace_wall_ns == 0 {
            return 0.0;
        }
        self.bytes() as f64 / (self.trace_wall_ns as f64 / 1e9)
    }

    /// Deterministic fingerprint of the metrics: every stage's (name,
    /// events, bytes), plus the trace total.
    /// Wall times are deliberately excluded — two runs of the same study
    /// must produce identical signatures regardless of thread count — and
    /// so is `peak_open_conns`, so that the committed hashes do not move.
    /// The peak is equal inline and on the worker lane, and is compared
    /// exactly between runs via the top-level bench keys.
    pub fn events_signature(&self) -> Vec<(String, u64, u64)> {
        let mut sig: Vec<_> = self.stages.named().map(|(n, s)| (format!("stage:{n}"), s.events, s.bytes)).collect();
        sig.push(("traces".into(), self.traces, 0));
        sig
    }

    /// [`Self::events_signature`] folded into one u64 for display — FNV-1a
    /// over the (name, events, bytes) triples, so two runs match iff every
    /// counter matches.
    pub fn events_signature_hash(&self) -> u64 {
        let mut data = Vec::new();
        for (name, events, bytes) in self.events_signature() {
            data.extend_from_slice(name.as_bytes());
            data.extend_from_slice(&events.to_le_bytes());
            data.extend_from_slice(&bytes.to_le_bytes());
        }
        crate::checkpoint::fnv1a(&data)
    }

    /// A stage's wall time less that of the stages declared `under` it
    /// ([`Stage::parent`]): what the stage spent in its own code.
    /// Saturating — the nested walls are estimates taken inside an estimate.
    pub fn exclusive_ns(&self, stage: Stage) -> u64 {
        let (mut inclusive, mut children) = (0u64, 0u64);
        for (s, stat) in Stage::ALL.iter().zip(&self.stages.stats) {
            if *s == stage {
                inclusive = stat.wall_ns;
            } else if s.parent() == Some(stage) {
                children += stat.wall_ns;
            }
        }
        inclusive.saturating_sub(children)
    }

    /// Render the study-wide per-stage table for the CLI: inclusive wall
    /// (`wall ms`) beside exclusive (`excl ms`, [`Self::exclusive_ns`]), so
    /// the rows of the second column do not overlap and add up to the
    /// roots' walls.
    pub fn stage_table(&self, title: &str) -> Table {
        let mut t = Table::new(title, &["stage", "wall ms", "excl ms", "events", "Mbytes", "ev/s"]);
        let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
        for (stage, (name, s)) in Stage::ALL.iter().zip(self.stages.named()) {
            // Rows a run never touched (the monitor's in a batch study, an
            // analyzer without traffic) stay out, the study's own stages in.
            if stage.mandatory_in() & STUDY_DOC == 0 && *s == StageStat::default() {
                continue;
            }
            t.row(vec![
                name.to_string(),
                ms(s.wall_ns),
                ms(self.exclusive_ns(*stage)),
                s.events.to_string(),
                format!("{:.3}", s.bytes as f64 / 1e6),
                format!("{:.0}", s.events_per_sec()),
            ]);
        }
        let blank = String::new;
        t.row(vec!["peak open conns".into(), blank(), blank(), self.peak_open_conns.to_string(), blank(), blank()]);
        t
    }
}

// ---------------------------------------------------------------------------
// Bench documents. Each kind of document is one row of [`SCHEMAS`]; the
// emitter, the validator (`entreport obs-check`) and the comparer
// (`entreport bench-compare`) below walk that row, and one golden document
// per row pins its keys. Adding a document kind is a row plus its
// invariants — see DESIGN §8.
// ---------------------------------------------------------------------------

type Res<T = ()> = Result<T, BenchJsonError>;

/// `return Err(format!(..).into())`.
macro_rules! bail {
    ($($arg:tt)*) => { return Err(format!($($arg)*).into()) };
}

/// What a key means to [`validate_bench_json`] and [`compare_bench_json`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    /// Run parameter: two documents that disagree are not comparable.
    Param,
    /// Deterministic outcome: must equal the baseline exactly.
    Exact,
    /// Wall time: validated like any number and printed against the
    /// baseline as a ratio, never compared — walls are recorded here and
    /// judged by paired runs (`scripts/bench-pair.sh`).
    Wall,
    /// Derived float: must equal the baseline within this tolerance.
    Rate(f64),
    /// Required, never compared (machine-dependent, or implied by others).
    Info,
}

/// How a key's value is written, and the JSON type required on read: a
/// number in its shortest form, a float with fixed decimals, or a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fmt {
    Num,
    Fixed(usize),
    Text,
}

/// A value handed to [`bench_json`]; the key's format says how to write it.
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// An integer count.
    U(u64),
    /// A float.
    F(f64),
    /// A string.
    S(String),
}

/// One declared key of a bench document.
#[derive(Debug, Clone, Copy)]
struct Key {
    name: &'static str,
    role: Role,
    fmt: Fmt,
    /// How the emitter derives the value from the run's metrics; `None`
    /// means the caller supplies it by name.
    derive: Option<fn(&PipelineMetrics) -> Val>,
}

impl Key {
    const fn new(name: &'static str, role: Role, fmt: Fmt) -> Key {
        Key { name, role, fmt, derive: None }
    }
    const fn derived(self, derive: fn(&PipelineMetrics) -> Val) -> Key {
        Key { derive: Some(derive), ..self }
    }
}

// The tables' vocabulary: a plain number in each role, and a wall in µs.
const fn param(name: &'static str) -> Key { Key::new(name, Param, Num) }
const fn exact(name: &'static str) -> Key { Key::new(name, Exact, Num) }
const fn info(name: &'static str) -> Key { Key::new(name, Info, Num) }
const fn info_us(name: &'static str) -> Key { Key::new(name, Info, Fixed(3)) }

/// The array of per-run entries some documents carry.
#[derive(Debug, Clone, Copy)]
struct Entries {
    /// The JSON member holding the array.
    array: &'static str,
    /// What the comparer calls two documents' differing entry identities.
    roster: &'static str,
    /// Per-entry keys; the first identifies the entry, uniquely.
    keys: &'static [Key],
}

/// One kind of bench document: a row of [`SCHEMAS`].
#[derive(Debug, Clone, Copy)]
pub struct Schema {
    /// The value of the document's `schema` member.
    tag: &'static str,
    /// Top-level keys, in emission order.
    top: &'static [Key],
    /// `Some(bit)`: the document carries the `stages` map, and every stage
    /// with `bit` in [`Stage::mandatory_in`] is non-zero.
    stages: Option<u8>,
    entries: Option<Entries>,
    /// Invariants beyond shape over `(document, its entries)`, checked on
    /// every validation; also fills the human-readable summary.
    check: Option<fn(&JsonValue, &[JsonValue], &mut BenchSummary) -> Res>,
    /// A within-run ratio the document is held to by [`obs_check`] alone —
    /// it needs no baseline: its report line, or the failure.
    gate: Option<fn(&JsonValue) -> Result<String, String>>,
}

use Fmt::{Fixed, Num, Text};
use Role::{Exact, Info, Param, Rate, Wall};

/// The members of every `stages` map entry: wall time,
/// events, bytes — in that order, which the stage checks rely on.
const STAT_KEYS: [Key; 3] = [Key::new("wall_us", Wall, Fixed(3)), exact("events"), exact("bytes")];

/// A derived f64 of a pack document (rates, entropies), compared within
/// 1e-6: counts are integers and compared exactly, but the ratios and
/// `log2` sums they derive into can drift in the last few ulps across libm
/// builds, and the emitter rounds to 6–9 decimals — near-exact, not bitwise.
const fn pack_rate(name: &'static str, decimals: usize) -> Key {
    Key::new(name, Rate(1e-6), Fixed(decimals))
}

/// A study run (`entreport study --bench-json`, `BENCH_pipeline.json`):
/// run parameters, totals of the summed metrics, per-dataset totals.
pub const PIPELINE: Schema = Schema {
    tag: "ent-bench-pipeline/1",
    top: &[
        param("scale"), param("seed"), param("threads"),
        info_us("study_wall_us"),
        info_us("worker_wall_us").derived(|m| Val::F(m.trace_wall_ns as f64 / 1e3)),
        exact("traces").derived(|m| Val::U(m.traces)),
        exact("packets").derived(|m| Val::U(m.packets())),
        info("bytes").derived(|m| Val::U(m.bytes())),
        Key::new("packets_per_sec", Info, Fixed(1)).derived(|m| Val::F(m.packets_per_sec())),
        Key::new("bytes_per_sec", Info, Fixed(1)).derived(|m| Val::F(m.bytes_per_sec())),
        exact("peak_open_conns").derived(|m| Val::U(m.peak_open_conns)),
    ],
    stages: Some(STUDY_DOC),
    entries: Some(Entries {
        array: "datasets",
        roster: "dataset lists",
        keys: &[Key::new("name", Param, Text), exact("traces"), info_us("wall_us"), exact("packets"), exact("bytes")],
    }),
    check: None,
    gate: Some(gate_ledger),
};

/// A resident run (`entreport monitor --bench-json`). It has no generation
/// stages, and its gate keys are the state budgets (parameters) and the
/// bounded-state outcome counters — `peak_open_conns`, `evicted_conns`,
/// `pending_dropped`: the steady-state memory gate — not study wall time.
pub const MONITOR: Schema = Schema {
    tag: "ent-bench-monitor/1",
    top: &[
        param("epoch_secs"), param("max_conns"), param("max_pending"),
        exact("epochs"),
        exact("checkpoints").derived(|m| Val::U(m.stages[Stage::Checkpoint].events)),
        exact("packets").derived(|m| Val::U(m.packets())),
        exact("bytes").derived(|m| Val::U(m.bytes())),
        exact("peak_open_conns").derived(|m| Val::U(m.peak_open_conns)),
        exact("evicted_conns"), exact("pending_dropped"), exact("checkpoint_recoveries"),
    ],
    stages: Some(MONITOR_DOC),
    entries: None,
    check: None,
    gate: None,
};

/// Labeled scenario packs (`entreport packs`, `BENCH_packs.json`): one
/// scored run per pack — the scanner-removal scoring gate
/// (precision/recall floors) and the trace-complexity record (per-pack
/// header entropy after Avin et al.). It carries no wall times.
pub const PACKS: Schema = Schema {
    tag: "ent-bench-packs/1",
    top: &[
        param("scale"), param("seed"), param("threads"),
        param("precision_floor"), param("recall_floor"),
    ],
    stages: None,
    entries: Some(Entries {
        array: "packs",
        roster: "pack rosters",
        keys: &[
            Key::new("name", Param, Text),
            exact("traces"), exact("packets"), exact("attack_packets"), exact("scan_sources"),
            // Scanner removal's confusion matrix against the labels, and its rates.
            exact("flagged"), exact("true_pos"), exact("false_pos"), exact("false_neg"),
            pack_rate("precision", 6), pack_rate("recall", 6), pack_rate("f1", 6),
            pack_rate("entropy_nontemporal", 9), pack_rate("entropy_temporal", 9),
        ],
    }),
    check: Some(check_packs),
    gate: None,
};

/// Every bench document kind this build emits, validates and compares.
const SCHEMAS: [&Schema; 3] = [&PIPELINE, &MONITOR, &PACKS];

/// `keys` as `"name": value` members, each value derived from `metrics`
/// or looked up by name in `values`.
fn members(keys: &[Key], values: &[(&str, Val)], metrics: Option<&PipelineMetrics>) -> Res<Vec<String>> {
    let member = |key: &Key| -> Res<String> {
        let name = key.name;
        let given = || values.iter().find(|(n, _)| *n == name).map(|(_, v)| v.clone());
        Ok(match (key.fmt, key.derive.zip(metrics).map(|(derive, m)| derive(m)).or_else(given)) {
            (_, None) => bail!("no value given for key {name:?}"),
            (Num, Some(Val::U(n))) => format!("\"{name}\": {n}"),
            (Num, Some(Val::F(x))) => format!("\"{name}\": {x}"),
            (Fixed(d), Some(Val::F(x))) => format!("\"{name}\": {x:.d$}"),
            (Text, Some(Val::S(s))) => format!("\"{name}\": \"{s}\""),
            (fmt, Some(v)) => bail!("key {name:?}: {v:?} cannot be written as {fmt:?}"),
        })
    };
    keys.iter().map(member).collect()
}

/// One top-level member holding `rows`, one per line, between `brackets`.
fn block(name: &str, brackets: [char; 2], rows: &[String]) -> String {
    let mut out = format!("\"{name}\": {}\n", brackets[0]);
    for (i, row) in rows.iter().enumerate() {
        out += &format!("    {row}{}\n", if i + 1 < rows.len() { "," } else { "" });
    }
    out + "  " + &brackets[1].to_string()
}

/// Serialize one bench document of kind `schema`.
///
/// `values` supplies, by name, every top-level key the schema does not
/// derive from `metrics`; `metrics` also fills the `stages` map of the
/// schemas that carry it; `entries` holds one named-value
/// list per element of the schema's entry array. Member order and number
/// formatting come from the schema row, never from the caller.
pub fn bench_json(
    schema: &Schema,
    values: &[(&str, Val)],
    metrics: Option<&PipelineMetrics>,
    entries: &[Vec<(&str, Val)>],
) -> Res<String> {
    let mut top = vec![format!("\"schema\": \"{}\"", schema.tag)];
    top.extend(members(schema.top, values, metrics)?);
    if let (Some(_), Some(m)) = (schema.stages, metrics) {
        let stat_row = |(name, s): (&str, &StageStat)| -> Res<String> {
            let [wall, events, bytes] = STAT_KEYS.map(|k| k.name);
            let stat = [(wall, Val::F(s.wall_us())), (events, Val::U(s.events)), (bytes, Val::U(s.bytes))];
            Ok(format!("\"{name}\": {{{}}}", members(&STAT_KEYS, &stat, None)?.join(", ")))
        };
        let stages = m.stages.named().map(stat_row).collect::<Res<Vec<_>>>()?;
        top.push(block("stages", ['{', '}'], &stages));
    }
    if let Some(e) = &schema.entries {
        let row = |entry: &Vec<(&str, Val)>| -> Res<String> {
            Ok(format!("{{{}}}", members(e.keys, entry, None)?.join(", ")))
        };
        let rows = entries.iter().map(row).collect::<Res<Vec<_>>>()?;
        top.push(block(e.array, ['[', ']'], &rows));
    }
    Ok(format!("{{\n  {}\n}}\n", top.join(",\n  ")))
}

// ---------------------------------------------------------------------------
// Minimal JSON reader for schema validation (`entreport obs-check`) and
// cross-run comparison. Hand-rolled because the workspace builds offline
// with no registry dependencies. Accepts the JSON subset this module
// emits (objects, arrays, strings without exotic escapes, numbers,
// booleans, null) — enough to validate any conforming producer.
// ---------------------------------------------------------------------------

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (f64 precision suffices for validation).
    Number(f64),
    /// A string (escape sequences decoded for `\" \\ \/ \n \t \r`).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        let JsonValue::Object(members) = self else { return None };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        if let JsonValue::Number(n) = self { Some(*n) } else { None }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        if let JsonValue::String(s) = self { Some(s) } else { None }
    }
}

struct JsonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonReader<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn require(&mut self, b: u8) -> Res {
        self.skip_ws();
        match self.bump() {
            Some(got) if got == b => Ok(()),
            got => bail!("expected '{}' at byte {}, found {:?}", b as char, self.pos.saturating_sub(1), got.map(char::from)),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Res<JsonValue> {
        for expected in word.bytes() {
            match self.bump() {
                Some(got) if got == expected => {}
                _ => bail!("malformed literal near byte {}", self.pos),
            }
        }
        Ok(value)
    }

    fn string(&mut self) -> Res<String> {
        // Opening quote already consumed by the caller.
        let mut s = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    other => {
                        bail!("unsupported escape {:?} at byte {}", other.map(|o| o as char), self.pos)
                    }
                },
                Some(b) => s.push(b as char),
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self, _first: u8) -> Res<JsonValue> {
        let start = self.pos.saturating_sub(1);
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = self.bytes.get(start..self.pos).and_then(|b| std::str::from_utf8(b).ok()).unwrap_or("");
        text.parse().map(JsonValue::Number).map_err(|e| format!("bad number {text:?}: {e}").into())
    }

    /// The comma-separated items up to `close` (the opener is consumed).
    fn seq<T>(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Res<T>) -> Res<Vec<T>> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b) if b == close => return Ok(items),
                _ => bail!("expected ',' or '{}' at byte {}", close as char, self.pos),
            }
        }
    }

    fn value(&mut self) -> Res<JsonValue> {
        self.skip_ws();
        match self.bump() {
            Some(b'{') => {
                let member = |r: &mut Self| {
                    r.require(b'"')?;
                    let key = r.string()?;
                    r.require(b':')?;
                    Ok((key, r.value()?))
                };
                Ok(JsonValue::Object(self.seq(b'}', member)?))
            }
            Some(b'[') => Ok(JsonValue::Array(self.seq(b']', Self::value)?)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("rue", JsonValue::Bool(true)),
            Some(b'f') => self.literal("alse", JsonValue::Bool(false)),
            Some(b'n') => self.literal("ull", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(b),
            other => bail!("unexpected {:?} at byte {}", other.map(|o| o as char), self.pos),
        }
    }
}

/// Parse a JSON document (the subset [`bench_json`] emits).
pub fn json_parse(text: &str) -> Res<JsonValue> {
    let mut r = JsonReader { bytes: text.as_bytes(), pos: 0 };
    let v = r.value()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        bail!("trailing garbage at byte {}", r.pos);
    }
    Ok(v)
}

/// A validated bench document's summary, for human-readable echo.
#[derive(Debug, Clone, Default)]
pub struct BenchSummary {
    /// Total packets analyzed.
    pub packets: u64,
    /// Total traces (epochs, for a monitor document).
    pub traces: u64,
    /// Study wall microseconds (pipeline documents only).
    pub study_wall_us: f64,
    /// One (label, wall_us or score, events) row per mandatory stage — or
    /// per entry, for the documents without stage maps.
    pub stages: Vec<(String, f64, u64)>,
}

/// Numeric member; NaN when missing, so it never compares equal.
fn num(obj: &JsonValue, key: &str) -> f64 {
    obj.get(key).and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
}

fn text<'a>(obj: &'a JsonValue, key: &str) -> &'a str {
    obj.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

/// A key's value as text, for equality checks and diagnoses alike.
fn show(key: &Key, obj: &JsonValue) -> String {
    match obj.get(key.name) {
        Some(JsonValue::String(s)) => s.clone(),
        Some(JsonValue::Number(n)) => n.to_string(),
        _ => "missing".into(),
    }
}

/// The elements of a document's entry array (none for a schema without one).
fn entries_of<'a>(doc: &'a JsonValue, schema: &Schema) -> Res<&'a [JsonValue]> {
    match schema.entries.map(|e| (e.array, doc.get(e.array))) {
        None => Ok(&[]),
        Some((_, Some(JsonValue::Array(items)))) => Ok(items),
        Some((array, _)) => bail!("missing {array:?} array"),
    }
}

/// An entry's identity — its first key — as `name=value`.
fn entry_id(e: &Entries, entry: &JsonValue) -> String {
    e.keys
        .first()
        .map_or_else(String::new, |id| format!("{}={}", id.name, show(id, entry)))
}

/// Check `obj` carries every required key of `keys` with the declared
/// JSON type, and no negative number.
fn require(keys: &[Key], obj: &JsonValue, ctx: &str) -> Res {
    for key in keys {
        let name = key.name;
        match (key.fmt, obj.get(name)) {
            (Text, Some(JsonValue::String(_))) => {}
            (Text, _) => bail!("{ctx}missing string field {name:?}"),
            (_, Some(JsonValue::Number(n))) if *n >= 0.0 => {}
            (_, Some(JsonValue::Number(_))) => bail!("{ctx}negative value for {name:?}"),
            _ => bail!("{ctx}missing numeric field {name:?}"),
        }
    }
    Ok(())
}

/// The stages a document with [`Schema::stages`] `bit` must report, each
/// with its entry in `doc`'s `stages` map (`Null` where missing).
fn mandatory_stages(doc: &JsonValue, bit: u8) -> impl Iterator<Item = (&'static str, &JsonValue)> {
    let stages = doc.get("stages");
    Stage::ALL
        .into_iter()
        .filter(move |s| s.mandatory_in() & bit != 0)
        .map(move |s| (s.name(), stages.and_then(|m| m.get(s.name())).unwrap_or(&JsonValue::Null)))
}

/// Parse a document, find its schema row, and check it: shape (every
/// declared key, the stat maps, unique entry identities), no zero where
/// zero means instrumentation rot, then the row's own invariants.
fn validated(text: &str) -> Res<(JsonValue, &'static Schema, BenchSummary)> {
    let doc = json_parse(text)?;
    let tag = doc.get("schema").and_then(JsonValue::as_str).ok_or("missing \"schema\"")?;
    let Some(schema) = SCHEMAS.into_iter().find(|s| s.tag == tag) else {
        let known: Vec<&str> = SCHEMAS.iter().map(|s| s.tag).collect();
        bail!("schema mismatch: got {tag:?}, want one of {known:?}");
    };
    require(schema.top, &doc, "")?;
    let top = |key: &str| doc.get(key).and_then(JsonValue::as_f64);
    let mut summary = BenchSummary {
        packets: top("packets").unwrap_or(0.0) as u64,
        // Epochs stand in for traces in a monitor document's echo.
        traces: top("traces").or(top("epochs")).unwrap_or(0.0) as u64,
        study_wall_us: top("study_wall_us").unwrap_or(0.0),
        stages: Vec::new(),
    };
    if top("packets") == Some(0.0) {
        bail!("run analyzed zero packets");
    }
    if let Some(bit) = schema.stages {
        if !matches!(doc.get("stages"), Some(JsonValue::Object(_))) {
            bail!("missing \"stages\" object");
        }
        let [wall_key, events_key, _] = STAT_KEYS;
        for (name, stat) in mandatory_stages(&doc, bit) {
            if *stat == JsonValue::Null {
                bail!("missing mandatory stage {name:?}");
            }
            require(&STAT_KEYS, stat, &format!("stage {name:?}: "))?;
            let (wall_us, events) = (num(stat, wall_key.name), num(stat, events_key.name));
            if wall_us <= 0.0 || events <= 0.0 {
                let what = if wall_us <= 0.0 { "wall time" } else { "events" };
                bail!("mandatory stage {name:?} has zero {what} — instrumentation rot?");
            }
            summary.stages.push((name.to_string(), wall_us, events as u64));
        }
    }
    let entries = entries_of(&doc, schema)?;
    if let Some(e) = &schema.entries {
        let mut seen: Vec<String> = Vec::new();
        for (i, entry) in entries.iter().enumerate() {
            require(e.keys, entry, &format!("{}[{i}]: ", e.array))?;
            let id = entry_id(e, entry);
            if seen.contains(&id) {
                bail!("duplicate {} entry for {id}", e.array);
            }
            if entry.get("packets").and_then(JsonValue::as_f64) == Some(0.0) {
                bail!("{} entry {id} analyzed zero packets", e.array);
            }
            seen.push(id);
        }
    }
    if let Some(check) = schema.check {
        check(&doc, entries, &mut summary)?;
    }
    Ok((doc, schema, summary))
}

/// Validate a bench document of any kind: every declared key present with
/// its declared type, every mandatory stage non-zero (the instrumentation-
/// rot check), entry identities unique, and the schema's own invariants —
/// the scanner-removal quality gate for pack documents.
pub fn validate_bench_json(text: &str) -> Res<BenchSummary> {
    validated(text).map(|(_, _, summary)| summary)
}

/// Entropies closer than this (bits, on both axes) count as
/// indistinguishable when checking that an adversarial pack actually
/// shifted the base mix's header-symbol complexity.
const PACK_ENTROPY_DISTINCT_EPS: f64 = 1e-9;

/// The scoring gate: a `"base"` entry must exist (the unperturbed mix is
/// the anchor), every pack with labeled scan sources must reach
/// `recall_floor`, every pack that flagged anything `precision_floor`, and
/// every other pack's entropy pair must differ from base's — a pack whose
/// complexity matches the base mix injected nothing measurable.
fn check_packs(doc: &JsonValue, packs: &[JsonValue], summary: &mut BenchSummary) -> Res {
    let entropy = |p: &JsonValue| (num(p, "entropy_nontemporal"), num(p, "entropy_temporal"));
    // "base" need not be the first entry: find it first.
    let base = packs.iter().find(|p| text(p, "name") == "base").map(entropy);
    let (base_nt, base_t) = base.ok_or("no \"base\" pack entry — the unperturbed mix is the scoring anchor")?;
    let (precision_floor, recall_floor) = (num(doc, "precision_floor"), num(doc, "recall_floor"));
    for p in packs {
        let (name, packets) = (text(p, "name"), num(p, "packets") as u64);
        let (scan_sources, flagged) = (num(p, "scan_sources"), num(p, "flagged"));
        let (recall, precision) = (num(p, "recall"), num(p, "precision"));
        if scan_sources > 0.0 && recall < recall_floor {
            bail!(
                "pack {name:?} recall {recall:.4} below floor {recall_floor} \
                 ({scan_sources} labeled scan sources went undercaught)"
            );
        }
        if flagged > 0.0 && precision < precision_floor {
            bail!(
                "pack {name:?} precision {precision:.4} below floor {precision_floor} \
                 (scanner removal is flagging benign traffic)"
            );
        }
        let (nt, t) = entropy(p);
        let near = |a: f64, b: f64| (a - b).abs() <= PACK_ENTROPY_DISTINCT_EPS;
        if name != "base" && near(nt, base_nt) && near(t, base_t) {
            bail!(
                "pack {name:?} entropy ({nt:.9}, {t:.9}) is indistinguishable from base — the \
                 pack injected nothing measurable"
            );
        }
        summary.packets += packets;
        summary.traces += num(p, "traces") as u64;
        summary.stages.push((format!("pack={name}"), num(p, "f1"), packets));
    }
    Ok(())
}

/// The stages the second perf wave attacked (the template-slot generator
/// and the fused parse/ingest pass), and the share of the summed stage
/// wall they must stay under: 55.5% before that wave, ~42% after.
const HOT_PATH: [Stage; 3] = [Stage::GenSynth, Stage::FrameParse, Stage::FlowIngest];
const HOT_PATH_SHARE_FLOOR: f64 = 0.55;

/// How far the root rows' walls may sum from the worker wall, either way:
/// the unattributed rest is the seal's few passes outside every stage.
const LEDGER_TOLERANCE: f64 = 0.02;

/// A study document's within-run gates, each a ratio of its own walls:
/// the roots of the stage tree ([`Stage::parent`] `None`) must add up to
/// `worker_wall_us` within [`LEDGER_TOLERANCE`], and [`HOT_PATH`] must stay
/// under [`HOT_PATH_SHARE_FLOOR`] of the summed stage wall (a sum row's
/// children counted once, in the sum row).
fn gate_ledger(doc: &JsonValue) -> Result<String, String> {
    let wall = |s: &Stage| doc.get("stages").and_then(|m| m.get(s.name())).map_or(0.0, |stat| num(stat, STAT_KEYS[0].name));
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let roots: f64 = Stage::ALL.iter().filter(|s| s.parent().is_none()).map(wall).sum();
    let attributed = share(roots, num(doc, "worker_wall_us"));
    let ledger = format!(
        "root stage walls: {:.2}% of the worker wall, {:.2}% unattributed (tolerance: {:.0}%)",
        attributed * 100.0,
        (1.0 - attributed) * 100.0,
        LEDGER_TOLERANCE * 100.0
    );
    if (1.0 - attributed).abs() > LEDGER_TOLERANCE {
        return Err(ledger);
    }
    let total: f64 = Stage::ALL.iter().filter(|s| !s.summed()).map(wall).sum();
    let hot = share(HOT_PATH.iter().map(wall).sum(), total);
    let line = format!("hot-path wall share: {:.1}% (floor: < {:.0}%)", hot * 100.0, HOT_PATH_SHARE_FLOOR * 100.0);
    if hot < HOT_PATH_SHARE_FLOOR { Ok(format!("{ledger}  ok\n{line}  ok\n")) } else { Err(line) }
}

/// `entreport obs-check`: validate a bench document, then hold it to its
/// schema's within-run gate, if it has one. Returns the summary and the
/// gate's report line (empty without a gate).
pub fn obs_check(text: &str) -> Res<(BenchSummary, String)> {
    let (doc, schema, summary) = validated(text)?;
    let line = schema.gate.map(|gate| gate(&doc)).transpose()?;
    Ok((summary, line.unwrap_or_default()))
}

/// Compare one object of each document key by key, as each key's role
/// says. A parameter mismatch ends the comparison; every other difference
/// accumulates in `failures`.
fn compare_keys(keys: &[Key], (b, c): (&JsonValue, &JsonValue), ctx: &str, failures: &mut Vec<String>) -> Res {
    for key in keys {
        let name = key.name;
        let (bv, cv) = (show(key, b), show(key, c));
        let (bn, cn) = (num(b, name), num(c, name));
        let drifted = match key.role {
            Info | Wall => false,
            Param if bv != cv => bail!(
                "runs are not comparable: {ctx}{name:?} differs (baseline {bv}, candidate {cv})"
            ),
            Param => false,
            Exact => bv != cv,
            // NaN (a missing field slipping past validation) must fail too.
            Rate(tolerance) => (bn - cn).abs() > tolerance || (bn - cn).is_nan(),
        };
        if drifted {
            failures.push(format!("{ctx}{name} drifted (baseline {bv}, candidate {cv})"));
        }
    }
    Ok(())
}

/// Compare a candidate bench document against a committed baseline of the
/// same schema, key by key as the schema row's roles say. The runs must
/// agree on every run parameter and on the roster of entries (otherwise
/// the comparison is meaningless and this errors out), and every exact key
/// — top-level, per entry, and the `events`/`bytes` of every mandatory
/// stage — must match the baseline *exactly* (rate keys within their
/// tolerance). Any drift means the pipeline's outputs changed, which a
/// perf change must never do. Walls are printed as candidate/baseline
/// ratios and never fail: one run against a committed number is no
/// measurement, paired runs are (DESIGN §8).
///
/// Returns a human-readable comparison table, or a newline-separated list
/// of every unacceptable difference.
pub fn compare_bench_json(baseline: &str, candidate: &str) -> Res<String> {
    let side = |which: &str, text: &str| {
        validated(text).map_err(|e| BenchJsonError::new(format!("{which}: {e}")))
    };
    let ((b, schema, _), (c, c_schema, _)) = (side("baseline", baseline)?, side("candidate", candidate)?);
    if schema.tag != c_schema.tag {
        let (bt, ct) = (schema.tag, c_schema.tag);
        bail!("runs are not comparable: schema differs (baseline {bt:?}, candidate {ct:?})");
    }
    let mut failures: Vec<String> = Vec::new();
    let mut report = String::new();
    compare_keys(schema.top, (&b, &c), "", &mut failures)?;
    if let Some(bit) = schema.stages {
        let wall = |stat: &JsonValue| num(stat, STAT_KEYS[0].name);
        report += &format!("{:<16} {:>12} {:>12} {:>7}\n", "stage", "base_us", "cand_us", "ratio");
        for ((name, bst), (_, cst)) in mandatory_stages(&b, bit).zip(mandatory_stages(&c, bit)) {
            compare_keys(&STAT_KEYS, (bst, cst), &format!("stage {name}: "), &mut failures)?;
            let (bw, cw) = (wall(bst), wall(cst));
            report += &format!("{name:<16} {bw:>12.1} {cw:>12.1} {:>6.2}x\n", cw / bw);
        }
    }
    let (be, ce) = (entries_of(&b, schema)?, entries_of(&c, schema)?);
    if let Some(e) = &schema.entries {
        let ids = |list: &[JsonValue]| list.iter().map(|x| entry_id(e, x)).collect::<Vec<_>>();
        if ids(be) != ids(ce) {
            bail!("runs are not comparable: {} differ", e.roster);
        }
        for (bent, cent) in be.iter().zip(ce) {
            let (id, before) = (entry_id(e, bent), failures.len());
            compare_keys(e.keys, (bent, cent), &format!("{id}: "), &mut failures)?;
            let verdict = if failures.len() == before { "ok" } else { "DRIFTED" };
            report += &format!("{id:<16} {verdict}\n");
        }
    }
    if failures.is_empty() { Ok(report) } else { Err(failures.join("\n").into()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Val::{F, S, U};

    fn nonzero_metrics() -> PipelineMetrics {
        let mut m = PipelineMetrics {
            peak_open_conns: 5,
            // The roots' walls: generate, scanner removal (no ingest wall).
            trace_wall_ns: 3_100,
            traces: 1,
            ..Default::default()
        };
        m.stages[Stage::Generate].add(3_000, 10, 100);
        m.stages[Stage::GenSynth].add(600, 12, 120);
        m.stages[Stage::GenSort].add(100, 10, 0);
        m.stages[Stage::GenTap].add(200, 10, 90);
        m.stages[Stage::FrameParse].add(2_000, 10, 90);
        m.stages[Stage::FlowIngest].add(3_000, 10, 100);
        m.stages[Stage::TcpDeliver].add(500, 4, 40);
        m.stages[Stage::UdpDeliver].add(400, 3, 30);
        m.stages[Stage::Finalize].add(600, 2, 20);
        m.stages[Stage::ScannerRemoval].add(100, 2, 0);
        // Each deliver stage is its analyzers' sum.
        m.stages[Stage::Http].add(500, 4, 40);
        m.stages[Stage::Dns].add(400, 3, 30);
        m
    }

    fn mandatory_in(bit: u8) -> usize {
        Stage::ALL.iter().filter(|s| s.mandatory_in() & bit != 0).count()
    }

    #[test]
    fn absorb_adds_counts_and_maxes_peak() {
        let mut a = nonzero_metrics();
        let mut b = nonzero_metrics();
        b.peak_open_conns = 3;
        b.stages[Stage::FlowIngest].add(1_000, 5, 50);
        a.absorb(&b);
        assert_eq!(a.traces, 2);
        assert_eq!(a.stages[Stage::FlowIngest].events, 25);
        assert_eq!(a.stages[Stage::FlowIngest].bytes, 250);
        assert_eq!(a.peak_open_conns, 5); // max, not sum
        assert_eq!(a.trace_wall_ns, 6_200);
    }

    #[test]
    fn signature_ignores_wall_time() {
        let mut a = nonzero_metrics();
        let mut b = nonzero_metrics();
        b.stages[Stage::FlowIngest].wall_ns += 999_999;
        b.trace_wall_ns += 123;
        assert_eq!(a.events_signature(), b.events_signature());
        a.stages[Stage::FlowIngest].events += 1;
        assert_ne!(a.events_signature(), b.events_signature());
    }

    #[test]
    fn exclusive_column_sums_to_the_root_stages_inclusive_walls() {
        // The golden document's metrics, in µs so the table's three
        // decimals of a millisecond are exact.
        let mut m = nonzero_metrics();
        for s in &mut m.stages.stats {
            s.wall_ns *= 1_000;
        }
        assert_eq!(m.exclusive_ns(Stage::Generate), 2_100_000); // 3000 − (600 + 100 + 200) µs
        assert_eq!(m.exclusive_ns(Stage::FlowIngest), 1_500_000); // 3000 − (500 + 400 + 600) µs
        // A sum row's own share is nothing; its analyzers hold it all.
        assert_eq!(m.exclusive_ns(Stage::TcpDeliver), 0);
        assert_eq!(m.exclusive_ns(Stage::Http), 500_000);
        // The ingest phase's elapsed wall encloses `frame_parse`,
        // `flow_ingest` and the lane's send wait: its own share is what is
        // left of it.
        m.stages[Stage::Backpressure].wall_ns = 100_000;
        m.stages[Stage::Ingest].wall_ns = 5_250_000; // 2000 + 3000 + 100 µs + its own 150 µs
        assert_eq!(m.exclusive_ns(Stage::Ingest), 150_000);
        // So the column adds up to the roots' walls, counting no stage twice.
        let table = m.stage_table("stages");
        let col = table.headers.iter().position(|h| h == "excl ms").expect("excl ms column");
        let column_ms: f64 = table.rows.iter().filter_map(|row| row[col].parse::<f64>().ok()).sum();
        let roots = Stage::ALL.iter().filter(|s| s.parent().is_none());
        let roots_ns: u64 = roots.map(|s| m.stages[*s].wall_ns).sum();
        assert!((column_ms - roots_ns as f64 / 1e6).abs() < 1e-9, "{column_ms} ms vs {roots_ns} ns");
        // Children that out-run their parent (estimates inside an
        // estimate) floor the parent's own share at zero.
        m.stages[Stage::Finalize].wall_ns = 9_000_000;
        assert_eq!(m.exclusive_ns(Stage::FlowIngest), 0);
    }

    /// A document under construction: what a caller hands [`bench_json`].
    #[derive(Clone)]
    struct Doc {
        schema: &'static Schema,
        top: Vec<(&'static str, Val)>,
        metrics: Option<PipelineMetrics>,
        entries: Vec<Vec<(&'static str, Val)>>,
    }

    fn set(row: &mut [(&'static str, Val)], key: &str, v: Val) {
        row.iter_mut().find(|(k, _)| *k == key).expect("key in fixture row").1 = v;
    }

    impl Doc {
        fn text(&self) -> String {
            bench_json(self.schema, &self.top, self.metrics.as_ref(), &self.entries).expect("emit")
        }

        fn with(mut self, key: &str, v: Val) -> Doc {
            set(&mut self.top, key, v);
            self
        }

        fn with_entry(mut self, i: usize, key: &str, v: Val) -> Doc {
            set(&mut self.entries[i], key, v);
            self
        }
    }

    fn pipeline(scale: f64, seed: u64, threads: u64, study_wall_ns: u64, m: &PipelineMetrics) -> Doc {
        Doc {
            schema: &PIPELINE,
            top: vec![
                ("scale", F(scale)), ("seed", U(seed)), ("threads", U(threads)),
                ("study_wall_us", F(study_wall_ns as f64 / 1e3)),
            ],
            metrics: Some(*m),
            entries: vec![vec![
                ("name", S("D0".into())), ("traces", U(2)), ("wall_us", F(3_000_000.0 / 1e3)),
                ("packets", U(20)), ("bytes", U(2_000)),
            ]],
        }
    }

    #[test]
    fn bench_json_roundtrips_and_validates() {
        let text = pipeline(0.002, 7, 4, 5_000_000, &nonzero_metrics()).text();
        let summary = validate_bench_json(&text).expect("valid");
        assert_eq!(summary.packets, 10);
        assert_eq!(summary.traces, 1);
        assert_eq!(summary.stages.len(), mandatory_in(STUDY_DOC));
        // The parsed document agrees with the emitter field-for-field.
        let doc = json_parse(&text).expect("parse");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some(PIPELINE.tag)
        );
        assert_eq!(
            doc.get("stages")
                .and_then(|s| s.get("tcp_deliver"))
                .and_then(|s| s.get("events"))
                .and_then(|v| v.as_f64()),
            Some(4.0)
        );
    }

    #[test]
    fn wall_and_rate_keys_agree_with_their_sources() {
        let study_wall_ns = 5_000_000u64;
        let m = nonzero_metrics();
        let doc = json_parse(&pipeline(0.002, 7, 4, study_wall_ns, &m).text()).expect("parse");
        let num = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("missing numeric key {key:?}"))
        };
        // "study_wall_us" is the study's elapsed wall; "worker_wall_us"
        // the summed per-trace worker wall — emitted in microseconds.
        assert!((num("study_wall_us") - study_wall_ns as f64 / 1e3).abs() < 1e-6);
        assert!((num("worker_wall_us") - m.trace_wall_ns as f64 / 1e3).abs() < 1e-6);
        // "packets_per_sec" / "bytes_per_sec" are throughput over worker
        // wall time, consistent with the emitted packet and byte totals.
        let worker_secs = m.trace_wall_ns as f64 / 1e9;
        assert!((num("packets_per_sec") - m.packets() as f64 / worker_secs).abs() < 0.1);
        assert!((num("bytes_per_sec") - m.bytes() as f64 / worker_secs).abs() < 0.1);
    }

    #[test]
    fn validation_rejects_zeroed_mandatory_stage() {
        let mut m = nonzero_metrics();
        m.stages[Stage::UdpDeliver] = StageStat::default();
        let mut doc = pipeline(0.002, 7, 1, 1_000, &m);
        doc.entries.clear();
        let text = doc.text();
        let err = validate_bench_json(&text).expect_err("zero stage must fail");
        assert!(err.message().contains("udp_deliver"), "{err}");
        // Wrong schema string also fails.
        let bad = text.replace(PIPELINE.tag, "something-else/9");
        assert!(validate_bench_json(&bad)
            .expect_err("schema mismatch")
            .message()
            .contains("schema mismatch"));
    }

    fn bench_doc(m: &PipelineMetrics) -> String {
        pipeline(0.01, 2005, 1, 9_000_000, m).text()
    }

    #[test]
    fn compare_accepts_identical_and_faster_runs() {
        let base = bench_doc(&nonzero_metrics());
        let report = compare_bench_json(&base, &base).expect("identical run passes");
        assert!(report.contains("flow_ingest"), "{report}");
        let mut fast = nonzero_metrics();
        fast.stages[Stage::FlowIngest].wall_ns /= 2;
        compare_bench_json(&base, &bench_doc(&fast)).expect("faster run passes");
    }

    #[test]
    fn compare_rejects_event_drift_even_with_waiver() {
        // Event and byte drift is the comparison's one failure, whatever
        // the walls did.
        let base = bench_doc(&nonzero_metrics());
        let mut drifted = nonzero_metrics();
        drifted.stages[Stage::TcpDeliver].events += 1;
        drifted.stages[Stage::TcpDeliver].wall_ns /= 2;
        let err = compare_bench_json(&base, &bench_doc(&drifted)).expect_err("event drift must fail");
        assert!(err.message().contains("tcp_deliver"), "{err}");
        assert!(err.message().contains("drifted"), "{err}");
    }

    #[test]
    fn compare_gates_wall_one_sided_with_share_floor_and_waiver() {
        // Walls are recorded, not gated: a dominant stage at twice its
        // baseline wall and a minor one at twenty times are printed as
        // ratios, and the comparison passes.
        let base = bench_doc(&nonzero_metrics());
        let mut slow = nonzero_metrics();
        slow.stages[Stage::FlowIngest].wall_ns *= 2;
        slow.stages[Stage::ScannerRemoval].wall_ns *= 20;
        let report = compare_bench_json(&base, &bench_doc(&slow)).expect("walls never fail");
        let row = |stage: &str| {
            report
                .lines()
                .find(|l| l.starts_with(stage))
                .unwrap_or_default()
                .to_string()
        };
        assert!(row("flow_ingest").ends_with("2.00x"), "{report}");
        assert!(row("scanner_removal").ends_with("20.00x"), "{report}");
    }

    #[test]
    fn compare_holds_the_hot_path_under_its_wall_share_unless_waived() {
        // The hot-path share is a within-run ratio: `obs-check` holds a
        // study document to it on its own, and the comparison does not.
        let base = bench_doc(&nonzero_metrics());
        let (_, lines) = obs_check(&base).expect("53% passes");
        // The analyzer rows are counted once, in their deliver stages, so
        // they do not grow the denominator.
        assert_eq!(lines.lines().nth(1), Some("hot-path wall share: 53.3% (floor: < 55%)  ok"));
        let mut hot = nonzero_metrics();
        hot.stages[Stage::Generate].wall_ns = 2_000;
        hot.trace_wall_ns = 2_100;
        let hot = bench_doc(&hot);
        let err = obs_check(&hot).expect_err("58.9% fails");
        assert!(err.message().contains("hot-path wall share: 58.9%"), "{err}");
        validate_bench_json(&hot).expect("the shape is fine");
        let report = compare_bench_json(&base, &hot).expect("the comparison holds no share");
        assert!(!report.contains("hot-path"), "{report}");
        // Documents without a gate report no line.
        assert_eq!(obs_check(&packs().text()).expect("valid packs doc").1, "");
    }

    #[test]
    fn obs_check_holds_the_roots_to_the_worker_wall() {
        // The golden document's roots (generate, scanner removal) add up
        // to its worker wall exactly.
        let (_, lines) = obs_check(&bench_doc(&nonzero_metrics())).expect("the ledger balances");
        assert_eq!(
            lines.lines().next(),
            Some("root stage walls: 100.00% of the worker wall, 0.00% unattributed (tolerance: 2%)  ok")
        );
        // 3% of the worker wall outside every root stage fails, naming the
        // unattributed share; the document's shape is still fine.
        let mut short = nonzero_metrics();
        short.trace_wall_ns = 3_196; // 3 100 / 0.97
        let short = bench_doc(&short);
        let err = obs_check(&short).expect_err("3% unattributed");
        assert!(err.message().contains("3.00% unattributed"), "{err}");
        validate_bench_json(&short).expect("the shape is fine");
        // A nested stage is no root: an ingest wall holding the lane's send
        // wait balances once, not twice.
        let mut lane = nonzero_metrics();
        lane.stages[Stage::Backpressure].wall_ns = 500;
        lane.stages[Stage::Ingest].wall_ns = 5_600;
        lane.trace_wall_ns = 8_700;
        obs_check(&bench_doc(&lane)).expect("the send wait is inside ingest");
    }

    #[test]
    fn compare_refuses_mismatched_run_parameters() {
        let base = bench_doc(&nonzero_metrics());
        let other = base.replace("\"seed\": 2005", "\"seed\": 7");
        let err = compare_bench_json(&base, &other).expect_err("seed mismatch");
        assert!(err.message().contains("not comparable"), "{err}");
    }

    fn monitor_metrics() -> PipelineMetrics {
        let mut m = nonzero_metrics();
        m.stages[Stage::EpochRotate].add(300, 4, 6);
        m.stages[Stage::Checkpoint].add(900, 3, 0);
        m
    }

    fn monitor(m: &PipelineMetrics) -> Doc {
        Doc {
            schema: &MONITOR,
            top: vec![
                ("epoch_secs", U(300)), ("max_conns", U(4_096)), ("max_pending", U(8)), ("epochs", U(4)),
                ("evicted_conns", U(1)), ("pending_dropped", U(1)), ("checkpoint_recoveries", U(0)),
            ],
            metrics: Some(*m),
            entries: Vec::new(),
        }
    }

    #[test]
    fn monitor_bench_json_roundtrips_and_validates() {
        let text = monitor(&monitor_metrics()).text();
        let summary = validate_bench_json(&text).expect("valid monitor doc");
        assert_eq!(summary.packets, 10);
        assert_eq!(summary.traces, 4); // epochs echo through the traces slot
        assert_eq!(summary.stages.len(), mandatory_in(MONITOR_DOC));
        // A monitor run without checkpoints fails the rot check.
        let mut no_ckpt = monitor_metrics();
        no_ckpt.stages[Stage::Checkpoint] = StageStat::default();
        let err = validate_bench_json(&monitor(&no_ckpt).text()).expect_err("zero checkpoint stage");
        assert!(err.message().contains("checkpoint"), "{err}");
    }

    #[test]
    fn monitor_compare_gates_state_budgets_and_degradation_counters() {
        let base = monitor(&monitor_metrics()).text();
        compare_bench_json(&base, &base).expect("identical monitor runs pass");
        // A leak shows up as peak_open_conns drift — hard failure.
        let mut leaky = monitor_metrics();
        leaky.peak_open_conns += 100;
        let err =
            compare_bench_json(&base, &monitor(&leaky).text()).expect_err("peak drift must fail");
        assert!(err.message().contains("peak_open_conns"), "{err}");
        // Unaccounted drops drift the degradation counters — hard failure.
        let dropping = monitor(&monitor_metrics()).with("pending_dropped", U(6));
        let err = compare_bench_json(&base, &dropping.text()).expect_err("pending_dropped drift");
        assert!(err.message().contains("pending_dropped"), "{err}");
        // Different budgets are not comparable at all.
        let other_budget = monitor(&monitor_metrics()).with("max_conns", U(64));
        let err = compare_bench_json(&base, &other_budget.text()).expect_err("budget mismatch");
        assert!(err.message().contains("not comparable"), "{err}");
        // And a monitor doc never compares against a pipeline doc.
        let pipeline = bench_doc(&nonzero_metrics());
        let err = compare_bench_json(&pipeline, &base).expect_err("schema mix");
        assert!(err.message().contains("schema differs"), "{err}");
    }

    #[test]
    fn json_parser_handles_the_emitted_subset() {
        let v = json_parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true, "e": null}"#)
            .expect("parse");
        assert_eq!(
            v.get("a"),
            Some(&JsonValue::Array(vec![
                JsonValue::Number(1.0),
                JsonValue::Number(2.5),
                JsonValue::Number(-300.0)
            ]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(|c| c.as_str()),
            Some("x\ny")
        );
        assert!(json_parse("{\"a\": 1,}").is_err());
        assert!(json_parse("{\"a\": 1} trailing").is_err());
        assert!(json_parse("").is_err());
    }

    #[test]
    fn stage_timer_laps_are_monotone() {
        let mut t = StageTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = t.lap();
        assert!(b >= 2_000_000, "lap under sleep duration: {b}");
    }

    #[test]
    fn signature_excludes_peak_but_hash_tracks_counters() {
        // peak_open_conns is compared by the bench keys and stays out of
        // the events signature, so committed hashes do not move...
        let a = nonzero_metrics();
        let mut b = nonzero_metrics();
        b.peak_open_conns += 100;
        assert_eq!(a.events_signature(), b.events_signature());
        assert_eq!(a.events_signature_hash(), b.events_signature_hash());
        // ...while any real counter drift must move the hash.
        b.stages[Stage::Http].events += 1;
        assert_ne!(a.events_signature_hash(), b.events_signature_hash());
    }

    fn packs() -> Doc {
        let entry = |name: &str, scan_sources: u64, tp: u64, fp: u64, fnn: u64, nt: f64, t: f64| {
            let (precision, recall) = (
                if tp + fp == 0 { 1.0 } else { tp as f64 / (tp + fp) as f64 },
                if tp + fnn == 0 { 1.0 } else { tp as f64 / (tp + fnn) as f64 },
            );
            vec![
                ("name", S(name.into())), ("traces", U(2)), ("packets", U(5_000)),
                ("attack_packets", U(if scan_sources > 0 { 130 } else { 0 })),
                ("scan_sources", U(scan_sources)),
                ("flagged", U(tp + fp)), ("true_pos", U(tp)), ("false_pos", U(fp)), ("false_neg", U(fnn)),
                ("precision", F(precision)), ("recall", F(recall)),
                ("f1", F(2.0 * precision * recall / (precision + recall))),
                ("entropy_nontemporal", F(nt)), ("entropy_temporal", F(t)),
            ]
        };
        Doc {
            schema: &PACKS,
            top: vec![
                ("scale", F(0.01)), ("seed", U(2005)), ("threads", U(1)),
                ("precision_floor", F(0.9)), ("recall_floor", F(0.9)),
            ],
            metrics: None,
            entries: vec![
                entry("base", 4, 8, 0, 0, 9.1, 3.2),
                entry("sweep", 6, 12, 0, 1, 9.4, 3.5),
                entry("synflood", 4, 8, 0, 0, 9.2, 3.1),
            ],
        }
    }

    #[test]
    fn packs_json_roundtrips_and_gates_scoring() {
        let text = packs().text();
        let summary = validate_bench_json(&text).expect("valid packs doc");
        assert_eq!(summary.packets, 15_000);
        assert_eq!(summary.traces, 6);
        assert_eq!(summary.stages.len(), 3);
        // Every emitted key parses back numerically (pins the key names
        // and the confusion-matrix/entropy field layout).
        let doc = json_parse(&text).expect("well-formed JSON");
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some(PACKS.tag));
        for key in ["scale", "seed", "threads", "precision_floor", "recall_floor"] {
            assert!(doc.get(key).and_then(JsonValue::as_f64).is_some(), "{key}");
        }
        let Some(JsonValue::Array(packs)) = doc.get("packs") else {
            panic!("packs array missing");
        };
        let sweep = packs
            .iter()
            .find(|p| p.get("name").and_then(|v| v.as_str()) == Some("sweep"))
            .expect("sweep entry");
        let num = |key: &str| sweep.get(key).and_then(JsonValue::as_f64).expect("pack key");
        assert_eq!(num("traces"), 2.0);
        assert_eq!(num("packets"), 5_000.0);
        assert_eq!(num("attack_packets"), 130.0);
        assert_eq!(num("scan_sources"), 6.0);
        assert_eq!(num("flagged"), 12.0);
        assert_eq!(num("true_pos"), 12.0);
        assert_eq!(num("false_pos"), 0.0);
        assert_eq!(num("false_neg"), 1.0);
        assert_eq!(num("precision"), 1.0);
        assert!((num("recall") - 12.0 / 13.0).abs() < 1e-6);
        assert!(num("f1") > 0.9 && num("f1") < 1.0);
        assert!((num("entropy_nontemporal") - 9.4).abs() < 1e-9);
        assert!((num("entropy_temporal") - 3.5).abs() < 1e-9);
    }

    #[test]
    fn packs_validation_enforces_floors_base_and_entropy_separation() {
        // Recall below the floor on a pack with labeled scan sources.
        let low = packs().with_entry(1, "recall", F(0.5));
        let err = validate_bench_json(&low.text()).expect_err("recall floor");
        assert!(err.message().contains("below floor"), "{err}");
        // Precision below the floor on a pack that flagged connections.
        let fp = packs().with_entry(2, "precision", F(0.2));
        let err = validate_bench_json(&fp.text()).expect_err("precision floor");
        assert!(err.message().contains("flagging benign"), "{err}");
        // A pack whose entropy pair equals base injected nothing.
        let flat = packs()
            .with_entry(2, "entropy_nontemporal", F(9.1))
            .with_entry(2, "entropy_temporal", F(3.2));
        let err = validate_bench_json(&flat.text()).expect_err("entropy overlap");
        assert!(err.message().contains("indistinguishable"), "{err}");
        // No base entry, no anchor.
        let mut unanchored = packs();
        unanchored.entries.remove(0);
        let err = validate_bench_json(&unanchored.text()).expect_err("no base");
        assert!(err.message().contains("\"base\""), "{err}");
        // Duplicate pack names are rejected.
        let dup = packs()
            .with_entry(2, "name", S("sweep".into()))
            .with_entry(2, "entropy_nontemporal", F(9.4))
            .with_entry(2, "entropy_temporal", F(3.5));
        let err = validate_bench_json(&dup.text()).expect_err("dup names");
        assert!(err.message().contains("duplicate"), "{err}");
        // Vacuous packs (nothing labeled, nothing flagged) pass floors.
        let mut quiet = packs();
        for key in ["scan_sources", "flagged", "true_pos", "false_pos", "false_neg"] {
            set(&mut quiet.entries[2], key, U(0));
        }
        for key in ["precision", "recall", "f1"] {
            set(&mut quiet.entries[2], key, F(0.0));
        }
        validate_bench_json(&quiet.text()).expect("vacuous pack passes");
    }

    #[test]
    fn packs_compare_gates_counts_exactly_and_rates_nearly() {
        let base = packs().text();
        let report = compare_bench_json(&base, &base).expect("identical passes");
        assert!(report.contains("sweep"), "{report}");
        assert!(report.contains("ok"), "{report}");
        // A one-count confusion-matrix drift is a hard failure.
        let drift = packs().with_entry(1, "true_pos", U(13)).with_entry(1, "false_neg", U(0));
        let err = compare_bench_json(&base, &drift.text()).expect_err("count drift");
        assert!(err.message().contains("true_pos drifted"), "{err}");
        // Entropy drift beyond the libm tolerance fails...
        let edrift = packs().with_entry(2, "entropy_temporal", F(3.1 + 1e-3));
        let err = compare_bench_json(&base, &edrift.text()).expect_err("entropy drift");
        assert!(err.message().contains("entropy_temporal drifted"), "{err}");
        // ...but a last-ulp wobble within the tolerance does not.
        let wobble = packs().with_entry(2, "entropy_temporal", F(3.1 + 1e-10));
        compare_bench_json(&base, &wobble.text()).expect("sub-tolerance wobble passes");
        // Different rosters are not comparable at all.
        let mut fewer = packs();
        fewer.entries.pop();
        let err = compare_bench_json(&base, &fewer.text()).expect_err("roster mismatch");
        assert!(err.message().contains("rosters differ"), "{err}");
        // Different floors are a different gate configuration.
        let floored = packs().with("recall_floor", F(0.5));
        let err = compare_bench_json(&base, &floored.text()).expect_err("floor mismatch");
        assert!(err.message().contains("recall_floor"), "{err}");
    }

    /// The three fixtures above, one per [`SCHEMAS`] row and in its order,
    /// each with the document the parent commit's hand-written emitter
    /// produced for it. The length is the table's, so a row without a
    /// fixture does not compile.
    fn fixtures() -> [(Doc, &'static str); SCHEMAS.len()] {
        [
            (pipeline(0.01, 2005, 1, 9_000_000, &nonzero_metrics()), include_str!("../testdata/bench_pipeline.golden.json")),
            (monitor(&monitor_metrics()), include_str!("../testdata/bench_monitor.golden.json")),
            (packs(), include_str!("../testdata/bench_packs.golden.json")),
        ]
    }

    #[test]
    fn emitter_output_is_byte_identical_to_the_goldens() {
        for ((doc, golden), schema) in fixtures().iter().zip(SCHEMAS) {
            assert_eq!(doc.schema.tag, schema.tag, "one fixture per table row, in order");
            assert_eq!(doc.text(), *golden, "{}", schema.tag);
        }
    }

    /// Rewrite member `name` on the first line of `text` starting with
    /// `line_start`: `edit` maps the member's name and value text to the
    /// replacement member.
    fn edit_member(text: &str, line_start: &str, name: &str, edit: impl Fn(&str, &str) -> String) -> String {
        let line = text.lines().find(|l| l.starts_with(line_start)).expect("line to edit");
        let start = line.find(&format!("\"{name}\": ")).expect("member on line");
        let value_at = start + name.len() + 4;
        let end = value_at + line[value_at..].find([',', '}']).unwrap_or(line.len() - value_at);
        let edited = format!("{}{}{}", &line[..start], edit(name, &line[value_at..end]), &line[end..]);
        text.replacen(line, &edited, 1)
    }

    #[test]
    fn every_schema_row_emits_validates_and_compares() {
        let renamed = |_: &str, value: &str| format!("\"gone\": {value}");
        let bumped = |name: &str, value: &str| match value.parse::<f64>() {
            Ok(n) => format!("\"{name}\": {}", n + 1.0),
            Err(_) => format!("\"{name}\": \"x{}", &value[1..]),
        };
        let slowed = |name: &str, value: &str| format!("\"{name}\": {:.3}", value.parse::<f64>().expect("wall") * 1.3);
        for (doc, _) in fixtures() {
            let (tag, text) = (doc.schema.tag, doc.text());
            validate_bench_json(&text).unwrap_or_else(|e| panic!("{tag}: {e}"));
            compare_bench_json(&text, &text).unwrap_or_else(|e| panic!("{tag}: {e}"));
            // Every place the row declares keys, with the start of the line
            // that holds them.
            let mut places: Vec<(&[Key], String)> = Vec::new();
            for key in doc.schema.top {
                places.push((std::slice::from_ref(key), format!("  \"{}\": ", key.name)));
            }
            if doc.schema.stages.is_some() {
                places.push((&STAT_KEYS, "    \"flow_ingest\": ".into()));
            }
            if let Some(e) = &doc.schema.entries {
                places.push((e.keys, "    {".into()));
            }
            for (key, line) in places.iter().flat_map(|(keys, line)| keys.iter().map(move |k| (k, line))) {
                let name = key.name;
                // Removing a declared key fails validation, naming it.
                let err = validate_bench_json(&edit_member(&text, line, name, renamed))
                    .expect_err(&format!("{tag}: without {name}"));
                assert!(err.message().contains(name), "{name}: {err}");
                // Perturbing an exact key fails comparison.
                if key.role == Exact {
                    let drifted = edit_member(&text, line, name, bumped);
                    compare_bench_json(&text, &drifted).expect_err(&format!("{tag}: {name} drift"));
                }
                // +30 % on a wall key is printed, not failed.
                if key.role == Wall {
                    let slow = edit_member(&text, line, name, slowed);
                    assert_ne!(slow, text, "{tag}: {name} not slowed");
                    let report = compare_bench_json(&text, &slow)
                        .unwrap_or_else(|e| panic!("{tag}: {name} +30%: {e}"));
                    assert!(report.contains("1.30x"), "{tag}: {name} +30%: {report}");
                }
            }
        }
    }
}
