//! The phases of one run, in order:
//!
//! 1. set the store up `SETUPS` times (generate, build, save, open) and
//!    keep the last one;
//! 2. run one instance of every template, which warms the store and
//!    records the digests the reference gate compares; the first one
//!    times the first query on the freshly opened store;
//! 3. the measured window of `--seconds`, with write batches to a spare
//!    store between the reads, and every read's result checked, untimed,
//!    against this benchmark's own decode of the query's BGP;
//! 4. read the peak resident memory, then checkpoint the spare store;
//! 5. the reference gate (independent evaluators, untimed);
//! 6. the durability gate: reopen the spare store from disk and compare
//!    it against the expected graph.
//!
//! A traced run traces every other operation, so the difference between
//! traced and untraced reads of a template is the tracing overhead.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use s2rdf_columnar::exec::JoinStrategy;
use s2rdf_columnar::metrics;
use s2rdf_core::compiler::bgp::{compile_bgp, CompileOptions};
use s2rdf_core::engines::centralized::CentralizedEngine;
use s2rdf_core::engines::SparqlEngine;
use s2rdf_core::exec::{eval_pattern, ExecContext, QueryOptions};
use s2rdf_core::{BuildOptions, CoreError, S2rdfStore, Solutions};
use s2rdf_sparql::GraphPattern;
use s2rdf_watdiv::{generate, Config, Dataset};
use serde::Serialize;

use crate::check::{self, Digest};
use crate::gen::{self, ReadQuery, WriteStream};
use crate::probe::{self, ms, Tracer};
use crate::{Args, Kind};

/// Write batches: (inserted, deleted) triples.
const WRITE_BATCH: (usize, usize) = (20, 6);
/// WatDiv scale factor of the spare store the write batches go to.
const WRITE_SCALE: u32 = 1;
/// Write batches the shortest window holds at least. They go to a spare
/// store at `WRITE_SCALE`, spread evenly between the reads, so the reads
/// see the store they warmed. A batch rebuilds the triples table and the
/// ExtVP tables of the predicates it touches: memory-bound work whose
/// time follows the shared machine. At SF3 a batch took about half a
/// second, the median of twenty drifted by 30% between two sets of ten
/// runs and spread by 0.35 within one, and the batches slowed `cold`'s
/// reads by a fifth. SF1 batches are a third of the work and disturb the
/// reads less. Smaller batches touch one or two predicates, and the two
/// most frequent ones (`friendOf`, `follows`: three quarters of the
/// triples) cost several times the rest to update, so their median
/// flipped between cost levels from one seed to the next. One checkpoint
/// follows the window; the durability gate reopens the spare store after
/// it.
const WRITE_BATCHES: usize = 40;
/// Store set-ups per run; `setup_s` is their median. Saving is
/// fsync-bound, and a median of three keeps one stalled save from
/// deciding a run.
const SETUPS: usize = 3;
/// A read still running after this long fails with a timeout.
const QUERY_DEADLINE: Duration = Duration::from_secs(60);
/// Time `CentralizedEngine` gets per reference query.
const REFERENCE_DEADLINE: Duration = Duration::from_secs(1);

/// One reported metric.
#[derive(Serialize)]
pub struct Metric {
    value: f64,
    unit: &'static str,
}

/// The final stdout line.
#[derive(Serialize)]
pub struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// The run's inputs, sample counts and digests, printed before the result.
#[derive(Serialize)]
pub struct RunRecord {
    workload: &'static str,
    seed: u64,
    scale: u32,
    seconds: f64,
    trace: bool,
    /// Each set-up's total, in seconds; `setup_s` is their median.
    setup_s_each: Vec<f64>,
    query_list: QueryList,
    /// Combined digest of the checked results, in hex.
    result_digest: String,
    samples: Samples,
    percentiles_used: Levels,
    reference_fallbacks: u64,
    failed_ratio: f64,
    trace_file: String,
    /// Untraced samples and median latency of each template.
    median_ms_by_template: BTreeMap<String, (usize, f64)>,
}

#[derive(Serialize)]
struct QueryList {
    queries: usize,
    /// In hex.
    hash: String,
}

#[derive(Serialize)]
struct Samples {
    reads: usize,
    traced_reads: usize,
    write_batches: usize,
    checkpoints: usize,
}

#[derive(Serialize)]
struct Levels {
    query_p50_ms: f64,
    query_p90_ms: f64,
    query_p99_ms: f64,
}

/// What a run prints.
pub struct Outcome {
    pub run_record: RunRecord,
    pub result: ResultLine,
}

/// Operations attempted and failed; errors, timeouts and wrong results
/// all count as failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}");
    }

    fn expect(&mut self, what: &str, got: Digest, want: Digest) {
        if got == want {
            self.ok();
        } else {
            self.fail(format!("{what}: got {got}, expected {want}"));
        }
    }
}

/// Everything a run measures. Query-layer sums cover traced reads only.
#[derive(Default)]
struct Rec {
    setup_s: Vec<f64>,
    generate_ms: Vec<f64>,
    build_ms: Vec<f64>,
    save_ms: Vec<f64>,
    open_ms: Vec<f64>,
    open_read_bytes: Vec<f64>,
    store_bytes_per_triple: f64,
    first_query_ms: f64,
    /// Untraced read latencies (a `cold` read includes its store open).
    read_ms: Vec<f64>,
    /// Untraced read latencies by template, for the run record.
    by_template: std::collections::BTreeMap<&'static str, Vec<f64>>,
    /// Traced read operations, whole, with their templates.
    traced_op_ms: Vec<(&'static str, f64)>,
    peak_rss_mb: f64,

    traced_reads: f64,
    parse_ms: f64,
    plan_ms: f64,
    bgp_ms: f64,
    result_ms: f64,
    input_rows: f64,
    intermediate_rows: f64,
    join_comparisons: f64,
    join_ms: f64,
    joins: [f64; 3],
    pool_tasks: f64,
    pool_steals: f64,
    pool_busy_ms: f64,
    pool_capacity_ms: f64,
    result_rows: f64,
    result_terms: f64,
    /// `columnar::metrics` io counter deltas around traced reads.
    io: [f64; 5],

    batch_ms: Vec<f64>,
    extvp_recomputed: f64,
    checkpoint_ms: Vec<f64>,
    tables_flushed: f64,
    wal_valid_bytes: Vec<f64>,
    write_bytes: f64,
    user_triples: f64,
}

const IO_COUNTERS: [&str; 5] = [
    "columnar.io.cache_hits",
    "columnar.io.cache_misses",
    "columnar.io.chunks_decoded",
    "columnar.io.chunks_pruned",
    "columnar.io.bytes_read",
];

fn io_counters() -> [f64; 5] {
    IO_COUNTERS.map(|name| metrics::counter(name).get() as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Runs one benchmark run in a private directory under `.bench_work`,
/// which is removed afterwards; only the trace file stays.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let base = PathBuf::from(".bench_work");
    let work = base.join(format!(
        "{}-seed{}-{}",
        args.kind.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| err("creating .bench_work", e))?;
    let mut bench = Bench {
        args,
        rec: Rec::default(),
        tally: Tally::default(),
        tracer: args.trace.then(|| Tracer::new(Instant::now())),
        op: 0,
        pending_batches: 0,
        reference_fallbacks: 0,
        min_reads: 0,
        phase_start: Instant::now(),
        write_every: 0,
    };
    let result = bench.run_in(&work, &base);
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// The store the write batches go to, at `WRITE_SCALE`, with the write
/// stream drawn from its graph. Set up once per run, untimed, and not
/// part of `setup_s`.
struct Spare {
    data: Dataset,
    dir: PathBuf,
    store: S2rdfStore,
    stream: WriteStream,
}

impl Spare {
    fn new(work: &Path, seed: u64) -> Result<Spare, String> {
        let data = generate(&dataset_config(WRITE_SCALE));
        let dir = work.join("spare");
        S2rdfStore::build(&data.graph, &BuildOptions::default())
            .save(&dir)
            .map_err(|e| err("saving the spare store", e))?;
        Ok(Spare {
            store: S2rdfStore::load(&dir).map_err(|e| err("opening the spare store", e))?,
            stream: WriteStream::new(&data.graph, seed),
            data,
            dir,
        })
    }
}

struct Bench<'a> {
    args: &'a Args,
    rec: Rec,
    tally: Tally,
    tracer: Option<Tracer>,
    /// Operation id of the current operation (spans carry it).
    op: u64,
    /// Write batches since the last checkpoint.
    pending_batches: usize,
    /// Reference checks that fell back from `CentralizedEngine` to VP.
    reference_fallbacks: u64,
    /// Fewest untraced reads a window can end with.
    min_reads: usize,
    phase_start: Instant,
    /// Reads between two write batches.
    write_every: usize,
}

impl Bench<'_> {
    /// Reports the time a phase took on stderr.
    fn phase_done(&mut self, phase: &str) {
        let now = Instant::now();
        eprintln!(
            "perfbench: {phase} took {:.1} s",
            ms(self.phase_start, now) / 1e3
        );
        self.phase_start = now;
    }

    fn run_in(&mut self, work: &Path, base: &Path) -> Result<Outcome, String> {
        let kind = self.args.kind;
        let (data, mut store, dir) = self.setup(work)?;
        let queries = gen::read_queries(kind, &data, self.args.seed);
        let firsts = first_instances(&queries);
        self.min_reads = firsts.len() * kind.min_rounds();
        self.write_every = self.min_reads / WRITE_BATCHES;
        self.rec.store_bytes_per_triple = store_bytes_per_triple(&dir, data.graph.len())?;

        // `firsts[0]` is the list's first query: the first one on the
        // freshly opened store.
        let mut digests = Vec::with_capacity(firsts.len());
        for &i in &firsts {
            let t = Instant::now();
            let r = store.query_opt(&queries[i].text, &query_options());
            if i == 0 {
                self.rec.first_query_ms = ms(t, Instant::now());
            }
            match r {
                Ok((s, _)) => {
                    if let Some(d) = self.checked(&store, &queries[i], &s) {
                        digests.push((i, d));
                    }
                }
                Err(e) => self.tally.fail(format!("{}: {e}", queries[i].template)),
            }
        }
        self.phase_done("set-up and warm-up");

        let window = Duration::from_secs_f64(self.args.seconds);
        let mut spare = match kind {
            Kind::Bound => {
                let mut spare = Spare::new(work, self.args.seed)?;
                self.read_window(&store, &queries, &mut spare, window)?;
                spare
            }
            Kind::Cold => {
                drop(store);
                let mut spare = Spare::new(work, self.args.seed)?;
                self.cold_window(&dir, &queries, &mut spare, window)?;
                store = S2rdfStore::load(&dir).map_err(|e| err("reopening", e))?;
                spare
            }
        };
        self.rec.peak_rss_mb = probe::peak_rss_mb()?;
        self.checkpoint(&mut spare.store, &spare.dir)?;
        self.phase_done("measured window and checkpoint");

        self.reference_gate(&data, &store, &queries, &digests)?;
        self.phase_done("reference gate");
        drop(store);
        let mut result_digests: Vec<Digest> = digests.iter().map(|(_, d)| *d).collect();
        result_digests.push(self.durability_gate(spare)?);
        self.phase_done("durability gate");

        let trace_file = match &self.tracer {
            Some(tracer) => {
                let path = base.join(format!(
                    "{}-seed{}.trace.jsonl",
                    kind.name(),
                    self.args.seed
                ));
                tracer
                    .write(&path)
                    .map_err(|e| err("writing the trace", e))?;
                path.display().to_string()
            }
            None => String::new(),
        };
        Ok(self.outcome(&queries, check::combine(result_digests), &trace_file))
    }

    /// A window ends once `--seconds` have passed, at least
    /// `Kind::min_rounds` rounds of `round` operations are done, and the
    /// last round is complete. Whole rounds keep every template (or every
    /// write of a checkpoint cycle) equally represented.
    fn window_done(&self, start: Instant, window: Duration, done: usize, round: usize) -> bool {
        start.elapsed() >= window
            && done.is_multiple_of(round)
            && done / round >= self.args.kind.min_rounds()
    }

    /// In a traced run every other operation is traced, so traced and
    /// untraced reads see the same drift and template mix. The metrics
    /// registry is on for the traced ones only.
    fn set_traced(&self, op_index: usize) -> bool {
        let traced = self.tracer.is_some() && op_index % 2 == 1;
        metrics::set_enabled(traced);
        traced
    }

    fn next_op(&mut self) {
        self.op += 1;
    }

    fn span(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        let op = self.op;
        self.tracer
            .as_mut()
            .map(|t| t.span(name, op, parent, start, end))
    }

    /// Generates, builds, saves and opens the store `SETUPS` times and
    /// keeps the last one. `setup_s` is the median of the totals.
    fn setup(&mut self, work: &Path) -> Result<(Dataset, S2rdfStore, PathBuf), String> {
        let config = dataset_config(self.args.scale);
        let mut kept = None;
        for i in 0..SETUPS {
            if let Some((_, _, old)) = kept.take() {
                let _ = std::fs::remove_dir_all::<PathBuf>(old);
            }
            self.next_op();
            let dir = work.join(format!("store{i}"));
            let t0 = Instant::now();
            let data = generate(&config);
            let t1 = Instant::now();
            let built = S2rdfStore::build(&data.graph, &BuildOptions::default());
            let t2 = Instant::now();
            built.save(&dir).map_err(|e| err("saving the store", e))?;
            let t3 = Instant::now();
            drop(built);
            let (read0, _) = probe::io_bytes()?;
            let t4 = Instant::now();
            let store = S2rdfStore::load(&dir).map_err(|e| err("opening the store", e))?;
            let t5 = Instant::now();
            let (read1, _) = probe::io_bytes()?;
            let root = self.span("setup", None, t0, t5);
            self.span("generate", root, t0, t1);
            self.span("build", root, t1, t2);
            self.span("save", root, t2, t3);
            self.span("open", root, t4, t5);
            let r = &mut self.rec;
            r.generate_ms.push(ms(t0, t1));
            r.build_ms.push(ms(t1, t2));
            r.save_ms.push(ms(t2, t3));
            r.open_ms.push(ms(t4, t5));
            r.open_read_bytes.push((read1 - read0) as f64);
            r.setup_s
                .push((ms(t0, t1) + ms(t1, t2) + ms(t2, t3) + ms(t4, t5)) / 1e3);
            kept = Some((data, store, dir));
        }
        Ok(kept.expect("SETUPS is at least 1"))
    }

    /// One read through the public query path, its result checked by
    /// `checked` outside the timing. Untraced, the timed part is the
    /// `query_opt` call alone. Traced, the same call runs with the metrics
    /// registry on, between two snapshots of its io counters, and is
    /// followed by separate parse, plan and BGP-only calls that attribute
    /// its time to layers; the real call runs first so its cache
    /// behaviour matches the untraced run. Returns the read's time without
    /// the attribution calls and the check, or `None` after a failure.
    fn read(
        &mut self,
        store: &S2rdfStore,
        q: &ReadQuery,
        traced: bool,
        parent: Option<usize>,
    ) -> Option<f64> {
        if !traced {
            let t0 = Instant::now();
            let r = store.query_opt(&q.text, &query_options());
            let wall = ms(t0, Instant::now());
            return match r {
                Ok((s, _)) => self.checked(store, q, &s).map(|_| wall),
                Err(e) => {
                    self.tally.fail(format!("{}: {e}", q.template));
                    None
                }
            };
        }
        let start = Instant::now();
        let io0 = io_counters();
        let t0 = Instant::now();
        let r = store.query_opt(&q.text, &query_options());
        let t1 = Instant::now();
        let io1 = io_counters();
        let wall = ms(start, Instant::now());
        let (solutions, explain) = match r {
            Ok(r) => r,
            Err(e) => {
                self.tally.fail(format!("{}: {e}", q.template));
                return None;
            }
        };
        let t2 = Instant::now();
        let parsed = s2rdf_sparql::parse_query(&q.text).map(|mut query| {
            s2rdf_sparql::optimizer::optimize(&mut query);
            query
        });
        let t3 = Instant::now();
        let query = match parsed {
            Ok(query) => query,
            Err(e) => {
                self.tally.fail(format!("{}: parse: {e}", q.template));
                return None;
            }
        };
        // The WatDiv queries are one BGP each.
        if let GraphPattern::Bgp(bgp) = &query.pattern {
            std::hint::black_box(compile_bgp(
                bgp,
                store.catalog(),
                store.dict(),
                CompileOptions::default(),
            ));
        }
        let t4 = Instant::now();
        let engine = store.engine(true);
        let mut ctx = ExecContext::new(store.dict(), query_options());
        let bgp = eval_pattern(&engine, &query.pattern, &mut ctx);
        let t5 = Instant::now();
        if let Err(e) = bgp {
            self.tally.fail(format!("{}: bgp: {e}", q.template));
            return None;
        }
        self.checked(store, q, &solutions)?;

        let (exec_ms, parse_ms, bgp_ms) = (ms(t0, t1), ms(t2, t3), ms(t4, t5));
        let result_ms = (exec_ms - parse_ms - bgp_ms).max(0.0);
        let root = self.span("query", parent, t0, t5);
        self.span("execute", root, t0, t1);
        self.span("parse", root, t2, t3);
        self.span("plan", root, t3, t4);
        self.span("bgp", root, t4, t5);
        if let (Some(tracer), Some(root)) = (self.tracer.as_mut(), root) {
            let end = tracer.start_us(root) + exec_ms * 1e3;
            tracer.derived("result", self.op, Some(root), end - result_ms * 1e3, end);
        }

        let r = &mut self.rec;
        r.traced_reads += 1.0;
        r.parse_ms += parse_ms;
        r.plan_ms += ms(t3, t4);
        r.bgp_ms += bgp_ms;
        r.result_ms += result_ms;
        r.input_rows += explain.bgp_steps.iter().map(|s| s.rows as f64).sum::<f64>();
        r.intermediate_rows += explain.intermediate_rows.iter().sum::<usize>() as f64;
        r.join_comparisons += explain.naive_join_comparisons as f64;
        for j in &explain.join_steps {
            r.join_ms += j.wall_micros as f64 / 1e3;
            let k = match j.decision.strategy {
                JoinStrategy::Serial => 0,
                JoinStrategy::Broadcast => 1,
                JoinStrategy::Partitioned => 2,
            };
            r.joins[k] += 1.0;
        }
        if let Some(pool) = &explain.pool {
            r.pool_tasks += pool.tasks as f64;
            r.pool_steals += pool.steals as f64;
            r.pool_busy_ms += pool.busy_micros.iter().sum::<u64>() as f64 / 1e3;
            r.pool_capacity_ms += pool.workers as f64 * exec_ms;
        }
        r.result_rows += solutions.len() as f64;
        r.result_terms += (solutions.len() * solutions.vars.len()) as f64;
        for k in 0..IO_COUNTERS.len() {
            r.io[k] += io1[k] - io0[k];
        }
        Some(wall)
    }

    /// Checks a read's result against this benchmark's own decode,
    /// through `store.dict()`, of the id table `eval_pattern` gives for
    /// the query's BGP: a check of the engine's modifiers and decode path
    /// that bypasses them, on the store as the read saw it. Counts the
    /// read as attempted, and as failed on a mismatch. Returns the read's
    /// digest when it matched.
    fn checked(&mut self, store: &S2rdfStore, q: &ReadQuery, s: &Solutions) -> Option<Digest> {
        let got = check::solutions(s);
        let want = bgp_table(store, &q.text)
            .and_then(|(table, vars)| check::id_table(&table, &vars, store.dict()));
        match want {
            Ok(want) if want == got => {
                self.tally.ok();
                Some(got)
            }
            Ok(want) => {
                let what = format!("{}: got {got}, the own decode gives {want}", q.template);
                self.tally.fail(what);
                None
            }
            Err(e) => {
                self.tally.fail(format!("{}: own decode: {e}", q.template));
                None
            }
        }
    }

    /// Records a read's wall time as a latency sample (untraced) or as a
    /// traced operation.
    fn sample(&mut self, traced: bool, template: &'static str, wall: f64) {
        if traced {
            self.rec.traced_op_ms.push((template, wall));
        } else {
            self.rec.read_ms.push(wall);
            self.rec.by_template.entry(template).or_default().push(wall);
        }
    }

    /// `bound`: back-to-back reads on the warm store, with a write batch
    /// to the spare store every `write_every` reads.
    fn read_window(
        &mut self,
        store: &S2rdfStore,
        queries: &[ReadQuery],
        spare: &mut Spare,
        window: Duration,
    ) -> Result<(), String> {
        let start = Instant::now();
        let round = count_templates(queries);
        let mut n = 0;
        while !self.window_done(start, window, n, round) {
            let i = n % queries.len();
            n += 1;
            let traced = self.set_traced(n);
            self.next_op();
            if let Some(wall) = self.read(store, &queries[i], traced, None) {
                self.sample(traced, queries[i].template, wall);
            }
            self.spare_write(n, spare)?;
        }
        Ok(())
    }

    /// The write batch due after the `n`th read of a read-only window,
    /// with the metrics registry off, as in the untraced run.
    fn spare_write(&mut self, n: usize, spare: &mut Spare) -> Result<(), String> {
        metrics::set_enabled(false);
        if n.is_multiple_of(self.write_every) {
            self.write_batch(&mut spare.store, &mut spare.stream)?;
        }
        Ok(())
    }

    /// `cold`: every read opens the store from disk, queries it once and
    /// drops it; the sample covers all three. A write batch to the spare
    /// store follows every `write_every` reads.
    fn cold_window(
        &mut self,
        dir: &Path,
        queries: &[ReadQuery],
        spare: &mut Spare,
        window: Duration,
    ) -> Result<(), String> {
        let start = Instant::now();
        let round = count_templates(queries);
        let mut n = 0;
        while !self.window_done(start, window, n, round) {
            let i = n % queries.len();
            n += 1;
            let traced = self.set_traced(n);
            self.next_op();
            let (read0, _) = probe::io_bytes()?;
            let t0 = Instant::now();
            let store = match S2rdfStore::load(dir) {
                Ok(s) => s,
                Err(e) => {
                    self.tally.fail(format!("opening the store: {e}"));
                    continue;
                }
            };
            let t1 = Instant::now();
            let (read1, _) = probe::io_bytes()?;
            // The root span is closed once its children are recorded.
            let root = self.span("cold_read", None, t0, t0);
            self.span("open", root, t0, t1);
            let done = self.read(&store, &queries[i], traced, root);
            let t2 = Instant::now();
            drop(store);
            let t3 = Instant::now();
            if let (Some(tracer), Some(root)) = (self.tracer.as_mut(), root) {
                tracer.close(root, t3);
            }
            if traced {
                self.rec.open_ms.push(ms(t0, t1));
                self.rec.open_read_bytes.push((read1 - read0) as f64);
            }
            if let Some(wall) = done {
                let sample = ms(t0, t1) + wall + ms(t2, t3);
                self.sample(traced, queries[i].template, sample);
            }
            self.spare_write(n, spare)?;
        }
        Ok(())
    }

    /// One `update_batch` call.
    fn write_batch(
        &mut self,
        store: &mut S2rdfStore,
        stream: &mut WriteStream,
    ) -> Result<(), String> {
        let (inserts, deletes) = stream.next_batch(WRITE_BATCH.0, WRITE_BATCH.1);
        self.next_op();
        let (_, w0) = probe::io_bytes()?;
        let t0 = Instant::now();
        let r = store.update_batch(&inserts, &deletes);
        let t1 = Instant::now();
        let (_, w1) = probe::io_bytes()?;
        self.span("update_batch", None, t0, t1);
        match r {
            Ok(summary)
                if summary.inserted == inserts.len() && summary.deleted == deletes.len() =>
            {
                self.tally.ok();
                let r = &mut self.rec;
                r.batch_ms.push(ms(t0, t1));
                r.extvp_recomputed += summary.extvp_recomputed as f64;
                r.write_bytes += (w1 - w0) as f64;
                r.user_triples += (summary.inserted + summary.deleted) as f64;
            }
            Ok(summary) => self.tally.fail(format!(
                "update_batch applied {}+{} of {}+{} triples",
                summary.inserted,
                summary.deleted,
                inserts.len(),
                deletes.len()
            )),
            Err(e) => self.tally.fail(format!("update_batch: {e}")),
        }
        self.pending_batches += 1;
        Ok(())
    }

    /// Checkpoints when any batch is pending.
    fn checkpoint(&mut self, store: &mut S2rdfStore, dir: &Path) -> Result<(), String> {
        if self.pending_batches == 0 {
            return Ok(());
        }
        self.pending_batches = 0;
        self.next_op();
        if let Some(wal) = S2rdfStore::wal_status(dir).map_err(|e| err("reading the WAL", e))? {
            self.rec.wal_valid_bytes.push(wal.valid_bytes as f64);
        }
        let (_, w0) = probe::io_bytes()?;
        let t0 = Instant::now();
        let r = store.checkpoint();
        let t1 = Instant::now();
        let (_, w1) = probe::io_bytes()?;
        self.span("checkpoint", None, t0, t1);
        match r {
            Ok(report) => {
                self.tally.ok();
                self.rec.checkpoint_ms.push(ms(t0, t1));
                self.rec.tables_flushed += report.tables_flushed as f64;
                self.rec.write_bytes += (w1 - w0) as f64;
            }
            Err(e) => self.tally.fail(format!("checkpoint: {e}")),
        }
        Ok(())
    }

    /// Compares the digests taken before the window, each already
    /// checked against the own decode, with `CentralizedEngine` over the
    /// generated graph.
    ///
    /// `CentralizedEngine` runs index nested-loop joins on one core, and
    /// some retailer-bound IL-2 instances take it tens of seconds at SF3.
    /// It gets `REFERENCE_DEADLINE` per query; past that the S2RDF VP
    /// engine is the reference instead (ExtVP must be a lossless
    /// reduction), and the run record counts the fallback.
    fn reference_gate(
        &mut self,
        data: &Dataset,
        store: &S2rdfStore,
        queries: &[ReadQuery],
        digests: &[(usize, Digest)],
    ) -> Result<(), String> {
        let centralized = CentralizedEngine::new(&data.graph);
        let digest = |r: Result<s2rdf_core::Solutions, CoreError>| {
            r.map(|s| check::solutions(&s)).map_err(|e| e.to_string())
        };
        let mut corrupt = self.args.corrupt_digest;
        for &(i, got) in digests {
            let q = &queries[i];
            let options = QueryOptions {
                deadline: Some(Instant::now() + REFERENCE_DEADLINE),
                ..QueryOptions::default()
            };
            let (name, want) = match centralized.query_opt(&q.text, &options) {
                Err(CoreError::Timeout) => {
                    self.reference_fallbacks += 1;
                    ("S2RDF VP", digest(store.engine(false).query(&q.text)))
                }
                r => ("CentralizedEngine", digest(r.map(|(s, _)| s))),
            };
            let what = format!("{} vs {name}", q.template);
            match want {
                Ok(mut want) => {
                    if corrupt {
                        want.hash ^= 1;
                        corrupt = false;
                    }
                    self.tally.expect(&what, got, want);
                }
                Err(e) => self.tally.fail(format!("{what}: {e}")),
            }
        }
        Ok(())
    }

    /// Drops the spare store and reopens it from disk after its
    /// checkpoint. It must hold exactly the expected graph, and one
    /// instance of every Basic template must match both a fresh build over
    /// that graph (which never touches the delta path) and
    /// `CentralizedEngine`. Returns the combined digest of those reads.
    fn durability_gate(&mut self, spare: Spare) -> Result<Digest, String> {
        let Spare {
            data,
            dir,
            store,
            stream,
        } = spare;
        drop(store);
        let reopened = S2rdfStore::load(&dir).map_err(|e| err("reopening the spare store", e))?;
        let want = stream.expected_len();
        for (what, got) in [
            ("catalog triple count", reopened.catalog().total_triples),
            ("triples-table rows", reopened.triples_table().num_rows()),
        ] {
            if got == want {
                self.tally.ok();
            } else {
                self.tally
                    .fail(format!("reopened store: {what} {got}, expected {want}"));
            }
        }
        let graph = stream.expected_graph();
        let fresh = S2rdfStore::build(&graph, &BuildOptions::default());
        let centralized = CentralizedEngine::new(&graph);
        // `cold` reads the Basic templates.
        let sample = gen::read_queries(Kind::Cold, &data, self.args.seed);
        let mut digests = Vec::new();
        for &i in &first_instances(&sample) {
            let q = &sample[i];
            let run = |r: Result<s2rdf_core::Solutions, CoreError>| {
                r.map(|s| check::solutions(&s)).map_err(|e| e.to_string())
            };
            let got = match run(reopened.query(&q.text)) {
                Ok(d) => d,
                Err(e) => {
                    self.tally
                        .fail(format!("{} on the reopened store: {e}", q.template));
                    continue;
                }
            };
            digests.push(got);
            for (reference, want) in [
                ("fresh build", run(fresh.query(&q.text))),
                ("CentralizedEngine", run(centralized.query(&q.text))),
            ] {
                let what = format!("{} after writes vs {reference}", q.template);
                match want {
                    Ok(want) => self.tally.expect(&what, got, want),
                    Err(e) => self.tally.fail(format!("{what}: {e}")),
                }
            }
        }
        let hash = check::combine(digests.iter().copied());
        Ok(Digest {
            rows: digests.iter().map(|d| d.rows).sum(),
            hash,
        })
    }

    fn outcome(&self, queries: &[ReadQuery], result_digest: u64, trace_file: &str) -> Outcome {
        let r = &self.rec;
        let reads = self.min_reads;
        let (p50, p50_used) = probe::percentile(&r.read_ms, level(0.5, reads));
        let (p90, p90_used) = probe::percentile(&r.read_ms, level(0.9, reads));
        let (p99, p99_used) = probe::percentile(&r.read_ms, level(0.99, reads));
        let write_s = r.batch_ms.iter().sum::<f64>() / 1e3;
        let t = &self.tally;
        let metrics = if self.args.trace {
            self.layer_metrics()
        } else {
            vec![
                m("setup_s", probe::median(&r.setup_s), "s"),
                m(
                    "queries_per_s",
                    ratio(r.read_ms.len() as f64 * 1e3, r.read_ms.iter().sum()),
                    "1/s",
                ),
                m("query_p50_ms", p50, "ms"),
                m("query_p99_ms", p99, "ms"),
                m("query_p90_ms", p90, "ms"),
                m("write_triples_per_s", ratio(r.user_triples, write_s), "1/s"),
                m("store_bytes_per_triple", r.store_bytes_per_triple, "B"),
                m("peak_rss_mb", r.peak_rss_mb, "MiB"),
                m(
                    "success_ratio",
                    1.0 - ratio(t.failed as f64, t.attempted as f64),
                    "ratio",
                ),
            ]
        };
        let list_hash = check::combine(queries.iter().map(|q| Digest {
            rows: q.text.len(),
            hash: check::text_hash(&q.text),
        }));
        let run_record = RunRecord {
            workload: self.args.kind.name(),
            seed: self.args.seed,
            scale: self.args.scale,
            seconds: self.args.seconds,
            trace: self.args.trace,
            setup_s_each: r.setup_s.clone(),
            query_list: QueryList {
                queries: queries.len(),
                hash: format!("{list_hash:016x}"),
            },
            result_digest: format!("{result_digest:016x}"),
            samples: Samples {
                reads: r.read_ms.len(),
                traced_reads: r.traced_op_ms.len(),
                write_batches: r.batch_ms.len(),
                checkpoints: r.checkpoint_ms.len(),
            },
            percentiles_used: Levels {
                query_p50_ms: p50_used,
                query_p90_ms: p90_used,
                query_p99_ms: p99_used,
            },
            reference_fallbacks: self.reference_fallbacks,
            failed_ratio: ratio(t.failed as f64, t.attempted as f64),
            trace_file: trace_file.to_string(),
            median_ms_by_template: r
                .by_template
                .iter()
                .map(|(t, v)| (t.to_string(), (v.len(), probe::median(v))))
                .collect(),
        };
        Outcome {
            run_record,
            result: ResultLine {
                correct: t.failed == 0,
                attempted: t.attempted,
                failed: t.failed,
                metrics: metrics.into_iter().collect(),
            },
        }
    }

    /// Mean extra time of a traced read over an untraced read of the same
    /// template: the cost of the metrics registry and the counter
    /// snapshots. The attribution calls are left out of the traced time.
    /// Templates differ in cost by orders of magnitude, so comparing
    /// overall means would measure the template mix.
    fn tracing_overhead_ms(&self) -> f64 {
        let r = &self.rec;
        let extra: Vec<f64> = r
            .traced_op_ms
            .iter()
            .filter_map(|(t, wall)| r.by_template.get(t).map(|v| wall - probe::median(v)))
            .collect();
        probe::mean(&extra)
    }

    /// Per-layer metrics of a traced run: per-read means of the traced
    /// reads, per-call means of the writes, medians over set-ups.
    fn layer_metrics(&self) -> Vec<(String, Metric)> {
        let r = &self.rec;
        let n = r.traced_reads;
        let per = |v: f64| ratio(v, n);
        let [hits, misses, decoded, pruned, bytes_read] = r.io;
        vec![
            m("watdiv.generate_ms", probe::median(&r.generate_ms), "ms"),
            m("store.build_ms", probe::median(&r.build_ms), "ms"),
            m("store.save_ms", probe::median(&r.save_ms), "ms"),
            m("store.open_ms", probe::median(&r.open_ms), "ms"),
            m(
                "store.open_read_bytes",
                probe::median(&r.open_read_bytes),
                "B",
            ),
            m("store.update_batch_ms", probe::mean(&r.batch_ms), "ms"),
            m(
                "store.extvp_recomputed",
                ratio(r.extvp_recomputed, r.batch_ms.len() as f64),
                "count",
            ),
            m("store.checkpoint_ms", probe::mean(&r.checkpoint_ms), "ms"),
            m(
                "store.tables_flushed",
                ratio(r.tables_flushed, r.checkpoint_ms.len() as f64),
                "count",
            ),
            m(
                "store.write_bytes_per_user_triple",
                ratio(r.write_bytes, r.user_triples),
                "B",
            ),
            m("wal.valid_bytes", probe::mean(&r.wal_valid_bytes), "B"),
            m("sparql.parse_ms", per(r.parse_ms), "ms"),
            m("compiler.plan_ms", per(r.plan_ms), "ms"),
            m("compiler.input_rows", per(r.input_rows), "count"),
            m("engines.bgp_ms", per(r.bgp_ms), "ms"),
            m(
                "engines.intermediate_rows",
                per(r.intermediate_rows),
                "count",
            ),
            m("engines.join_comparisons", per(r.join_comparisons), "count"),
            m("columnar.join_ms", per(r.join_ms), "ms"),
            m("columnar.joins_serial", per(r.joins[0]), "count"),
            m("columnar.joins_broadcast", per(r.joins[1]), "count"),
            m("columnar.joins_partitioned", per(r.joins[2]), "count"),
            m("columnar.pool_tasks", per(r.pool_tasks), "count"),
            m("columnar.pool_steals", per(r.pool_steals), "count"),
            m("columnar.pool_busy_ms", per(r.pool_busy_ms), "ms"),
            m(
                "columnar.pool_utilization",
                ratio(r.pool_busy_ms, r.pool_capacity_ms),
                "ratio",
            ),
            m("exec.result_ms", per(r.result_ms), "ms"),
            m("exec.result_rows", per(r.result_rows), "count"),
            m("exec.result_terms", per(r.result_terms), "count"),
            m(
                "exec.result_ns_per_term",
                ratio(r.result_ms * 1e6, r.result_terms),
                "ns",
            ),
            m("io.cache_hits", per(hits), "count"),
            m("io.cache_misses", per(misses), "count"),
            m("io.cache_hit_ratio", ratio(hits, hits + misses), "ratio"),
            m("io.chunks_decoded", per(decoded), "count"),
            m("io.chunks_pruned", per(pruned), "count"),
            m("io.prune_ratio", ratio(pruned, pruned + decoded), "ratio"),
            m("io.bytes_read", per(bytes_read), "B"),
            m("io.first_query_ms", r.first_query_ms, "ms"),
            m("trace.overhead_ms", self.tracing_overhead_ms(), "ms"),
        ]
    }
}

/// The percentile a metric nominally at `nominal` is taken at: the
/// highest, in whole percents, with ten samples beyond it in the smallest
/// sample a run can have. Fixing it per workload, instead of per run,
/// keeps it on the same templates when a run completes an extra round.
fn level(nominal: f64, min_samples: usize) -> f64 {
    let cap = (100.0 * (1.0 - 10.0 / min_samples as f64)).floor() / 100.0;
    nominal.min(cap)
}

fn m(name: &str, value: f64, unit: &'static str) -> (String, Metric) {
    (name.to_string(), Metric { value, unit })
}

/// The dataset is WatDiv's default one at the scale, whatever the seed:
/// WatDiv itself publishes one dataset per scale factor. Datasets from
/// different seeds change the result sizes of the constant-free ST and
/// IL-3 queries; measured with a dataset per seed, most figures
/// spread by 20–30% across seeds, more than a regression bound can
/// absorb. The seed drives the query constants, the query order and the
/// writes.
fn dataset_config(scale: u32) -> Config {
    Config {
        scale,
        ..Config::default()
    }
}

fn query_options() -> QueryOptions {
    QueryOptions {
        deadline: Some(Instant::now() + QUERY_DEADLINE),
        ..QueryOptions::default()
    }
}

/// Templates in a query list: the length of one round.
fn count_templates(queries: &[ReadQuery]) -> usize {
    first_instances(queries).len()
}

/// Index of the first instance of each template in a query list.
fn first_instances(queries: &[ReadQuery]) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    (0..queries.len())
        .filter(|&i| seen.insert(queries[i].template))
        .collect()
}

fn store_bytes_per_triple(dir: &Path, triples: usize) -> Result<f64, String> {
    let bytes = probe::dir_bytes(dir).map_err(|e| err("sizing the store", e))?;
    Ok(ratio(bytes as f64, triples as f64))
}

/// The ExtVP engine's id table for a plain `SELECT vars WHERE { BGP }`
/// query's pattern, and the projected variables. No decode happens here.
fn bgp_table(
    store: &S2rdfStore,
    text: &str,
) -> Result<(s2rdf_columnar::Table, Vec<String>), String> {
    let mut query = s2rdf_sparql::parse_query(text).map_err(|e| e.to_string())?;
    s2rdf_sparql::optimizer::optimize(&mut query);
    if query.distinct
        || query.limit.is_some()
        || query.offset.is_some()
        || !query.order_by.is_empty()
        || query.is_aggregate()
    {
        return Err("only plain SELECT queries are decoded here".into());
    }
    let engine = store.engine(true);
    let mut ctx = ExecContext::new(store.dict(), query_options());
    let table = eval_pattern(&engine, &query.pattern, &mut ctx).map_err(|e| e.to_string())?;
    Ok((table, query.projected_vars()))
}
