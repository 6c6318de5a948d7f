//! One workload, start to finish: fixture, oracle, server child, load,
//! verification, metrics — untraced for the end-to-end numbers, traced for
//! the per-layer ones.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use kbqa_core::service::KbqaService;
use kbqa_rdf::{Snapshot, TripleStore};

use crate::affinity::Placement;
use crate::fixture::{output_root, Fixture, Scale};
use crate::http::{render_head, Conn};
use crate::loadgen::{self, ns, ConnResult, Pacing, Phases, Plan, Sample, Sent, Traffic};
use crate::measure::{summarize, Summary};
use crate::server::ServerChild;
use crate::spec::FAILED_SHARE_BOUND;
use crate::stats::{iqr_share, median, percentile};
use crate::trace::{self, Span, SpanBuffer};
use crate::workload::{Op, Pool, Workload, RELOAD_EVERY};

/// Server start-ups timed for `setup_s`; the median is reported.
const SETUP_RUNS: usize = 5;
/// An untraced run is this many repeats of fresh server child → warm-up →
/// measured time, each `--seconds / REPEATS` long and sending the same
/// requests. A metric is computed over everything one repeat measured, and
/// the median of the repeats is reported: the build box loses the odd second
/// to its host, and what one repeat loses the other two outvote. The last
/// `REPEATS` of the `SETUP_RUNS` start-ups serve them.
pub const REPEATS: usize = 3;
/// Warm-up before the measured time: this long, or a quarter of the
/// measured time when that is shorter.
const WARMUP: Duration = Duration::from_secs(2);
/// Offered rates of the traced run's ladder, requests per second.
const LADDER_RATES: [u64; 4] = [1000, 2000, 4000, 8000];
/// The ladder's latency limit on p99, from due time.
const LADDER_LIMIT_US: f64 = 5000.0;
/// Reloads timed for `core.persist.model_reload_ms_p50`.
const RELOAD_PROBES: usize = 5;

/// What every workload of one seed shares.
pub struct Prepared {
    pub fixture: Fixture,
    pub oracle: KbqaService,
    pub pool: Pool,
    /// The server child's CPUs, as `serve --cpus` takes them.
    server_cpus: String,
    /// CPUs the generator owns (0 when nothing is pinned).
    generator_cpus: usize,
}

impl Prepared {
    pub fn new(seed: u64, scale: Scale, placement: &Placement) -> Self {
        let fixture = Fixture::obtain(seed, scale);
        let oracle = fixture.oracle();
        let pool = Pool::prepare(
            &fixture.streams,
            &oracle,
            seed,
            placement.connections(false),
            placement.connections(true),
        );
        Self {
            fixture,
            oracle,
            pool,
            server_cpus: placement.server_list(),
            generator_cpus: placement.generator.len(),
        }
    }

    /// The plan of `workload` at its own pacing.
    fn plan(&self, workload: Workload, phases: Phases, span_capacity: usize) -> Plan {
        let conns = self.pool.conns(workload);
        // Every measured time sees a reload, however short it is.
        let measured = phases.end.saturating_sub(phases.measure_from);
        Plan {
            conns,
            keep_awake: self.generator_cpus,
            pacing: Pacing {
                interval: workload.open_rate().map(|rate| interval(conns, rate)),
                reload_every: (workload == Workload::MixedOpen)
                    .then_some(RELOAD_EVERY.min(measured)),
            },
            phases,
            span_capacity,
        }
    }

    fn spawn_server(&self) -> Result<ServerChild, String> {
        ServerChild::spawn(&self.fixture.bundle, &self.server_cpus)
    }
}

/// A reported value and, when it is the median of several measurements —
/// the repeats of a run, the start-ups behind `setup_s` — their scatter (IQR
/// over median).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: Option<f64>,
}

impl Reading {
    fn median_of(values: &[f64]) -> Self {
        Self {
            value: median(values),
            spread: iqr_share(values),
        }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value.
    pub values: BTreeMap<String, Reading>,
    /// Operations of all repeats together.
    pub attempted: u64,
    pub failed: u64,
    /// Every reply byte-identical to the oracle's, within the failure bound.
    pub correct: bool,
    /// Latency samples behind each percentile: those of the repeat with the
    /// fewest.
    pub samples: u64,
    /// Human-readable remarks (validity warnings).
    pub notes: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &str, value: f64) {
        self.values.insert(
            name.to_owned(),
            Reading {
                value,
                spread: None,
            },
        );
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

struct PoolTraffic<'a> {
    pool: &'a Pool,
    workload: Workload,
}

impl Traffic for PoolTraffic<'_> {
    fn request(&self, conn: usize, k: u64, out: &mut Vec<u8>) -> Sent {
        let op = self.pool.op_at(self.workload, conn, k);
        let id = self.pool.op_id(self.workload, conn, k);
        let line = match op {
            Op::Answer { .. } => "POST /answer",
            Op::Batch { .. } => "POST /batch?stream=1",
        };
        render_head(out, line, "", self.pool.body_len(op, id));
        let head = out.len();
        self.pool.write_body(op, id, out);
        debug_assert_eq!(out.len() - head, self.pool.body_len(op, id));
        Sent {
            id,
            op,
            questions: self.pool.questions_in(op) as u32,
        }
    }

    fn verify(&self, sent: &Sent, body: &[u8], epoch: &mut u64) -> bool {
        match sent.op {
            Op::Answer { q } => match self.pool.check_answer(q, body) {
                Some(served) if served >= *epoch => {
                    *epoch = served;
                    true
                }
                _ => false,
            },
            // Only `batch_stream` batches, and it never reloads: epoch 0.
            Op::Batch { b } => body == self.pool.batch_expected[b].as_slice(),
        }
    }
}

/// Time between two requests of one connection when `conns` of them
/// together send `rate` per second.
fn interval(conns: usize, rate: u64) -> Duration {
    Duration::from_secs_f64(conns as f64 / rate as f64)
}

fn warmup_for(seconds: f64) -> Duration {
    WARMUP.min(Duration::from_secs_f64(seconds / 4.0))
}

fn sleep_until(at: Instant) {
    std::thread::sleep(at.saturating_duration_since(Instant::now()));
}

fn all_samples(results: &[ConnResult]) -> Vec<Sample> {
    results
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect()
}

/// What one repeat of an untraced run measured.
struct Repeat {
    summary: Summary,
    cpu_us_per_question: f64,
    rss_peak_mb: f64,
    /// What was wrong with the reloads, if anything was.
    reload_fault: Option<String>,
}

/// One repeat: warm `server` up, then measure `workload` for `seconds`.
fn repeat(
    p: &Prepared,
    server: &ServerChild,
    workload: Workload,
    seconds: f64,
) -> Result<Repeat, String> {
    let warmup = warmup_for(seconds);
    let phases = Phases {
        origin: Instant::now(),
        measure_from: warmup,
        trace_from: None,
        end: warmup + Duration::from_secs_f64(seconds),
        first_k: 0,
    };
    let traffic = PoolTraffic {
        pool: &p.pool,
        workload,
    };
    let plan = p.plan(workload, phases, 0);
    // The measured time is what lies between the two readings of the
    // server's CPU time, by this thread's clock: the operations counted and
    // the CPU time charged to them are of the very same interval.
    let (results, (before, after)) = loadgen::run(&traffic, server.addr, &plan, || {
        sleep_until(phases.origin + phases.measure_from);
        let before = (server.cpu_us(), Instant::now());
        sleep_until(phases.origin + phases.end);
        (before, (server.cpu_us(), Instant::now()))
    });
    let summary = summarize(
        &all_samples(&results),
        ns(before.1 - phases.origin),
        ns(after.1 - phases.origin),
    )
    .ok_or("no operation completed in the measured time")?;
    Ok(Repeat {
        cpu_us_per_question: (after.0? - before.0?) / summary.questions_ok as f64,
        rss_peak_mb: server.rss_peak_mb()?,
        reload_fault: reload_fault(&results, server.cache_stats()?.model_epoch),
        summary,
    })
}

/// The untraced run: every end-to-end metric of `workload`, each the median
/// of [`REPEATS`] repeats of `seconds / REPEATS`.
pub fn end_to_end(p: &Prepared, workload: Workload, seconds: f64) -> Result<Outcome, String> {
    let mut startups = Vec::with_capacity(SETUP_RUNS);
    let mut repeats = Vec::with_capacity(REPEATS);
    let mut threads = (0, 0);
    for run in 0..SETUP_RUNS {
        let server = p.spawn_server()?;
        startups.push(server.startup.as_secs_f64());
        if run >= SETUP_RUNS - REPEATS {
            repeats.push(repeat(p, &server, workload, seconds / REPEATS as f64)?);
            threads = server.loops_and_workers()?;
        }
    }

    let mut outcome = Outcome {
        attempted: repeats.iter().map(|r| r.summary.attempted).sum(),
        failed: repeats.iter().map(|r| r.summary.failed).sum(),
        samples: repeats
            .iter()
            .map(|r| r.summary.attempted)
            .min()
            .expect("REPEATS > 0"),
        ..Outcome::default()
    };
    let mut over_repeats = |name: &str, of: fn(&Repeat) -> f64| {
        let values: Vec<f64> = repeats.iter().map(of).collect();
        outcome
            .values
            .insert(name.to_owned(), Reading::median_of(&values));
    };
    over_repeats("questions_per_s", |r| r.summary.questions_per_s);
    over_repeats("latency_p50_us", |r| r.summary.latency_p50_us);
    over_repeats("latency_p90_us", |r| r.summary.latency_p90_us);
    over_repeats("latency_p99_us", |r| r.summary.latency_p99_us);
    over_repeats("first_byte_p50_us", |r| r.summary.first_byte_p50_us);
    over_repeats("server_cpu_us_per_question", |r| r.cpu_us_per_question);
    over_repeats("server_rss_peak_mb", |r| r.rss_peak_mb);
    outcome
        .values
        .insert("setup_s".into(), Reading::median_of(&startups));
    outcome.set("gold_top1_share", p.pool.gold_top1_share(workload));
    outcome.set("failed_share", outcome.failed_share());

    outcome.notes.push(format!(
        "{} connections; the server child ran {} event loops and {} workers on CPUs [{}]",
        p.pool.conns(workload),
        threads.0,
        threads.1,
        p.server_cpus
    ));
    if repeats.iter().any(|r| !r.summary.p99_supported) {
        outcome.notes.push(format!(
            "latency_p99_us has fewer than ten samples beyond it ({} samples in a repeat)",
            outcome.samples
        ));
    }
    let faults: Vec<String> = repeats.into_iter().filter_map(|r| r.reload_fault).collect();
    outcome.correct = faults.is_empty() && outcome.failed_share() <= FAILED_SHARE_BOUND;
    outcome.notes.extend(faults);
    Ok(outcome)
}

/// What was wrong with the reloads of one server child, if anything: all
/// must succeed, and the server must end on the epoch they add up to.
fn reload_fault(results: &[ConnResult], final_epoch: u64) -> Option<String> {
    let failed: u64 = results.iter().map(|r| r.reloads_failed).sum();
    let done: usize = results.iter().map(|r| r.reload_ms.len()).sum();
    if failed > 0 {
        Some(format!("FAILED: {failed} model reloads failed"))
    } else if final_epoch != done as u64 {
        Some(format!(
            "FAILED: server ended on model epoch {final_epoch} after {done} reloads"
        ))
    } else {
        None
    }
}

/// One ladder step: mixed traffic at `rate` for `step`.
fn ladder_step(
    p: &Prepared,
    server: &ServerChild,
    rate: u64,
    step: Duration,
    first_k: u64,
) -> (Option<Summary>, u64) {
    let phases = Phases {
        origin: Instant::now(),
        measure_from: Duration::ZERO,
        trace_from: None,
        end: step,
        first_k,
    };
    let traffic = PoolTraffic {
        pool: &p.pool,
        workload: Workload::MixedOpen,
    };
    let mut plan = p.plan(Workload::MixedOpen, phases, 0);
    plan.pacing = Pacing {
        interval: Some(interval(plan.conns, rate)),
        reload_every: None,
    };
    let (results, ()) = loadgen::run(&traffic, server.addr, &plan, || ());
    let next_k = results.iter().map(|r| r.next_k).max().unwrap_or(first_k);
    // Everything counts, however late it completed: a backlog that outlives
    // the step is exactly what the step is looking for.
    (summarize(&all_samples(&results), 0, u64::MAX), next_k)
}

/// The traced run: every per-layer metric of `workload`, and the span file.
pub fn traced(p: &Prepared, workload: Workload, seconds: f64) -> Result<Outcome, String> {
    let server = p.spawn_server()?;
    let warmup = warmup_for(seconds);
    let half = Duration::from_secs_f64(seconds / 4.0);
    let phases = Phases {
        origin: Instant::now(),
        measure_from: warmup,
        trace_from: Some(warmup + half),
        end: warmup + half * 2,
        first_k: 0,
    };
    let traffic = PoolTraffic {
        pool: &p.pool,
        workload,
    };
    // Three spans per operation; 30 000 operations per second and
    // connection is beyond what one serial connection reaches.
    let span_capacity = (half.as_secs_f64() * 30e3) as usize * 3 + 1024;
    let plan = p.plan(workload, phases, span_capacity);
    let (results, scrapes) = loadgen::run(&traffic, server.addr, &plan, || {
        sleep_until(phases.origin + phases.measure_from);
        let before = (server.cache_stats(), server.metrics());
        sleep_until(phases.origin + phases.end);
        (before, (server.cache_stats(), server.metrics()))
    });
    let ((cache0, metrics0), (cache1, metrics1)) = scrapes;
    let (cache0, cache1, metrics0, metrics1) = (cache0?, cache1?, metrics0?, metrics1?);

    let samples = all_samples(&results);
    let split = ns(phases.trace_from.expect("set above"));
    let untraced = summarize(&samples, ns(phases.measure_from), split)
        .ok_or("no operation completed in the untraced window")?;
    let traced = summarize(&samples, split, ns(phases.end))
        .ok_or("no operation completed in the traced window")?;
    let both = summarize(&samples, ns(phases.measure_from), ns(phases.end)).expect("non-empty");

    let mut outcome = Outcome {
        attempted: both.attempted,
        failed: both.failed,
        samples: both.attempted,
        ..Outcome::default()
    };
    outcome.set("loadgen.requests_sent", both.attempted as f64);
    outcome.set("loadgen.requests_failed", both.failed as f64);
    outcome.set(
        "loadgen.reconnects",
        results.iter().map(|r| r.reconnects).sum::<u64>() as f64,
    );
    outcome.set("loadgen.connections", plan.conns as f64);
    outcome.set("loadgen.send_lag_p99_us", both.send_lag_p99_us);
    outcome.set("loadgen.latency_p99_us", both.latency_p99_us);
    if both.send_lag_p99_us > 0.1 * both.latency_p50_us {
        outcome.notes.push(format!(
            "INVALID: the generator ran late (send lag p99 {:.1} us exceeds a tenth of latency p50 {:.1} us): it, not the server, may be the limit",
            both.send_lag_p99_us, both.latency_p50_us
        ));
    }
    outcome.set(
        "trace.overhead_share",
        1.0 - traced.questions_per_s / untraced.questions_per_s,
    );

    let socket_spans: Vec<Span> = results
        .iter()
        .flat_map(|r| r.spans.spans().iter().copied())
        .collect();
    let dropped: u64 = results.iter().map(|r| r.spans.dropped).sum();
    if dropped > 0 {
        outcome
            .notes
            .push(format!("{dropped} spans did not fit the span buffer"));
    }
    let mut roundtrips: Vec<f64> = socket_spans
        .iter()
        .filter(|s| s.name == "server.http.roundtrip")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    if roundtrips.is_empty() {
        return Err("the traced window recorded no round trip".into());
    }
    outcome.set(
        "server.http.roundtrip_us_p50",
        percentile(&mut roundtrips, 0.5),
    );
    // What `ServerConfig::default()` auto-sized to on the server's CPUs.
    let (loops, workers) = server.loops_and_workers()?;
    outcome.set("server.http.event_loops", loops as f64);
    outcome.set("server.http.workers", workers as f64);
    outcome.set(
        "server.http.requests_shed",
        ((metrics1.requests_shed + metrics1.requests_shed_by_route)
            - (metrics0.requests_shed + metrics0.requests_shed_by_route)) as f64,
    );
    outcome.set(
        "server.http.bytes_out_per_question",
        both.bytes_in as f64 / both.questions_ok as f64,
    );
    let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);
    outcome.set(
        "server.cache.hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    outcome.set(
        "server.cache.evictions",
        (cache1.evictions - cache0.evictions) as f64,
    );
    let fault = reload_fault(&results, server.cache_stats()?.model_epoch);
    outcome.correct = fault.is_none() && outcome.failed_share() <= FAILED_SHARE_BOUND;
    outcome.notes.extend(fault);

    // The rate ladder: mixed traffic at fixed offered rates, one step each.
    let step = Duration::from_secs_f64(seconds / 8.0);
    let mut next_k = results.iter().map(|r| r.next_k).max().unwrap_or(0);
    let mut max_rate = 0u64;
    let mut within = true;
    for rate in LADDER_RATES {
        let (summary, k) = ladder_step(p, &server, rate, step, next_k);
        next_k = k;
        let summary = summary.ok_or("a ladder step completed no operation")?;
        outcome.set(
            &format!("loadgen.ladder.p99_us_at_{rate}"),
            summary.latency_p99_us,
        );
        // A backlog that grows shows as a p99 beyond the limit: the limit is
        // far below the step's length, and latency runs from the due time.
        within &= summary.failed == 0 && summary.latency_p99_us <= LADDER_LIMIT_US;
        if within {
            max_rate = rate;
        }
    }
    outcome.set("loadgen.max_rate_within_limit", max_rate as f64);

    outcome.set("core.persist.model_reload_ms_p50", reload_ms_p50(&server)?);
    drop(server);

    // The layers, in process, on the operations the traced window sent.
    let first_traced_id = socket_spans
        .iter()
        .map(|s| s.request_id)
        .min()
        .expect("non-empty, checked above");
    let mut probe_spans = SpanBuffer::with_capacity(1 << 18);
    let (layers, in_process_ns) = trace::probe_layers(
        &p.oracle,
        &p.pool,
        workload,
        first_traced_id,
        phases.origin,
        &mut probe_spans,
    );
    for (name, value) in layers {
        outcome.set(name, value);
    }
    outcome.set(
        "server.http.edge_us_p50",
        trace::edge_us_p50(&socket_spans, &in_process_ns),
    );

    storage_and_fixture_costs(p, &mut outcome)?;

    let path = output_root()
        .join("benchmark")
        .join(format!("trace-{}.jsonl", workload.name()));
    trace::write_jsonl(&path, socket_spans.iter().chain(probe_spans.spans()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    outcome
        .notes
        .push(format!("spans written to {}", path.display()));

    Ok(outcome)
}

/// What opening the snapshot and loading the bundle cost now, and what
/// building the fixture cost when it was built.
fn storage_and_fixture_costs(p: &Prepared, outcome: &mut Outcome) -> Result<(), String> {
    let snap = p.fixture.bundle.join(kbqa_core::persist::STORE_FILE);
    let started = Instant::now();
    let store = TripleStore::from_snapshot(Snapshot::open(&snap).map_err(|e| e.to_string())?);
    outcome.set(
        "rdf.snapshot_open_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    outcome.set("rdf.triples", store.len() as f64);
    outcome.set("rdf.snapshot_bytes", file_len(&snap)? as f64);
    drop(store);
    let started = Instant::now();
    drop(p.fixture.oracle());
    outcome.set(
        "core.persist.bundle_load_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
    outcome.set(
        "core.persist.bundle_bytes",
        p.fixture.bundle_bytes()? as f64,
    );
    outcome.set("core.learner.learn_s", p.fixture.info.learn_s);
    outcome.set("core.learner.templates", p.fixture.info.templates as f64);
    outcome.set("corpus.world_generate_s", p.fixture.info.world_generate_s);
    Ok(())
}

/// Median latency of [`RELOAD_PROBES`] model reloads on an idle server, ms.
fn reload_ms_p50(server: &ServerChild) -> Result<f64, String> {
    let mut admin = Conn::new(server.addr);
    let mut request = Vec::new();
    loadgen::render_reload(&mut request);
    let mut reload_ms = Vec::with_capacity(RELOAD_PROBES);
    for _ in 0..RELOAD_PROBES {
        let started = Instant::now();
        let reply = admin
            .roundtrip(&request)
            .map_err(|e| format!("reload probe: {e}"))?;
        if reply.status != 200 {
            return Err(format!("reload probe: status {}", reply.status));
        }
        reload_ms.push((reply.done - started).as_secs_f64() * 1e3);
    }
    Ok(percentile(&mut reload_ms, 0.5))
}

fn file_len(path: &std::path::Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}
