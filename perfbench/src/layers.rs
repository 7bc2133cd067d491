//! Per-layer metrics of a traced run, each measured from outside by timing
//! calls into the layer's public functions.

use std::time::{Duration, Instant};

use cbls_parallel::{SequentialExecutor, WalkExecutor};
use cbls_perfmodel::EmpiricalDistribution;
use cbls_problems::Benchmark;
use cbls_resilience::Supervisor;
use cbls_service::{SolveRequest, SolveService};

use crate::load::JobObs;
use crate::plan::{derive_seed, Stream, COSTAS, JOB_BUDGET, JOB_MIX, JOB_WALKS, MODEL};
use crate::race::{Instance, RaceSample};
use crate::replay::{self, ProbeLog};
use crate::run::{Metric, Report};
use crate::stats::{mean, median, tail};
use crate::trace::Tracer;

/// Iterations per recorded walk of a probe-trace replay.
const REPLAY_WALK_ITERATIONS: u64 = 20_000;
/// Probe evaluations a replay log holds at least.
const REPLAY_EVALUATIONS: u64 = 300_000;
/// Timed passes per replay mode (the median is kept).
const REPLAY_REPS: usize = 7;
/// Evaluator builds timed per instance (the median is kept).
const BUILD_REPS: usize = 101;
/// Batches run both supervised and bare for the supervision overhead.
const SUPERVISED_BATCHES: u64 = 20;

/// What the per-layer measurements read.
pub struct Inputs<'a> {
    /// Workload seed.
    pub seed: u64,
    /// The race instances.
    pub race_mix: &'a [Instance],
    /// The race phase's samples.
    pub races: &'a [RaceSample],
    /// The open loop's jobs.
    pub open: &'a [JobObs],
    /// The service the jobs ran on.
    pub service: &'a SolveService,
    /// The measured `speedup_p2`.
    pub speedup_p2: f64,
    /// Where spans go.
    pub tracer: &'a Tracer,
    /// Where check results go.
    pub report: &'a mut Report,
}

/// Every per-layer metric except the tracer's own overhead.
pub fn measure(inputs: &mut Inputs<'_>) -> Vec<Metric> {
    let mut out = core(inputs.races);
    out.extend(problems(inputs));
    out.extend(model(inputs));
    out.extend(parallel(inputs.races));
    out.push(("resilience.overhead_ms", supervision_overhead(inputs), "ms"));
    out.extend(service(inputs));
    out.extend(perfmodel(inputs));
    out
}

/// Engine counts and speed over the p=1 walks.
fn core(races: &[RaceSample]) -> Vec<Metric> {
    let stats: Vec<_> = races
        .iter()
        .filter_map(|r| r.p1.records.first())
        .map(|r| (&r.outcome.stats, r.outcome.elapsed))
        .collect();
    let n = stats.len() as f64;
    let iters: u64 = stats.iter().map(|s| s.0.iterations).sum();
    let engine_s: f64 = stats.iter().map(|s| s.1.as_secs_f64()).sum();
    let evals: u64 = stats.iter().map(|s| s.0.swap_evaluations).sum();
    let restarts: u64 = stats.iter().map(|s| s.0.restarts).sum();
    vec![
        ("core.iters_per_s", iters as f64 / engine_s, "1/s"),
        ("core.iters_to_solution_mean", iters as f64 / n, "count"),
        (
            "core.swap_evals_per_iter",
            evals as f64 / iters as f64,
            "count",
        ),
        ("core.restarts_per_solve", restarts as f64 / n, "count"),
    ]
}

/// Span names of one replayed kernel: builds, the check, the timed passes.
struct KernelSpans {
    build: &'static str,
    check: &'static str,
    timed: &'static str,
}

/// A recorded, checked and timed probe trace.
struct Kernel {
    /// Median `Benchmark::build` time, microseconds.
    build_us: f64,
    log: ProbeLog,
    /// Seconds probing and swapping per pass; `NaN` unless the replay
    /// matched the recording bit for bit.
    probing_s: f64,
    swapping_s: f64,
}

impl Kernel {
    /// Nanoseconds per call over `calls` calls.
    fn ns(seconds: f64, calls: u64) -> f64 {
        seconds * 1e9 / calls as f64
    }
}

fn kernel(inputs: &mut Inputs<'_>, id: &str, group: u64, spans: &KernelSpans) -> Kernel {
    let bench = Benchmark::from_id(id).expect("replay ids are catalog ids");
    let tracer = inputs.tracer;
    let builds: Vec<f64> = (0..BUILD_REPS)
        .map(|_| {
            let started = Instant::now();
            let built = tracer.span(spans.build, group, None, |_| bench.build());
            let seconds = started.elapsed().as_secs_f64();
            drop(built);
            seconds
        })
        .collect();
    let log = replay::record(
        &bench,
        derive_seed(inputs.seed, Stream::Replay, group),
        REPLAY_WALK_ITERATIONS,
        REPLAY_EVALUATIONS,
    );
    let checked = tracer.span(spans.check, group, None, |_| {
        log.check(bench.build().as_mut())
    });
    let ok = checked.is_ok();
    inputs.report.check(
        checked
            .err()
            .map(|e| format!("{id} replay: {e}"))
            .into_iter()
            .collect(),
    );
    let timing = tracer.span(spans.timed, group, None, |_| {
        log.time(|| bench.build(), REPLAY_REPS)
    });
    let valid = |s: f64| if ok { s } else { f64::NAN };
    Kernel {
        build_us: median(&builds) * 1e6,
        probing_s: valid(timing.probing_s),
        swapping_s: valid(timing.swapping_s),
        log,
    }
}

/// The Costas probe trace (hand-coded scalar kernel).
fn problems(inputs: &mut Inputs<'_>) -> Vec<Metric> {
    let spans = KernelSpans {
        build: "problems.build",
        check: "problems.replay_check",
        timed: "problems.replay_timed",
    };
    let k = kernel(inputs, COSTAS, 0, &spans);
    vec![
        (
            "problems.probe_ns",
            Kernel::ns(k.probing_s, k.log.evaluations()),
            "ns",
        ),
        (
            "problems.swap_ns",
            Kernel::ns(k.swapping_s, k.log.swaps),
            "ns",
        ),
        ("problems.build_us", k.build_us, "us"),
        ("problems.probes", k.log.evaluations() as f64, "count"),
        ("problems.swaps", k.log.swaps as f64, "count"),
    ]
}

/// The golomb-8 row trace (`cbls-model`'s batched kernels).
fn model(inputs: &mut Inputs<'_>) -> Vec<Metric> {
    let spans = KernelSpans {
        build: "model.build",
        check: "model.replay_check",
        timed: "model.replay_timed",
    };
    let k = kernel(inputs, MODEL, 1, &spans);
    vec![
        ("model.row_ns", Kernel::ns(k.probing_s, k.log.rows), "ns"),
        (
            "model.probe_ns",
            Kernel::ns(k.probing_s, k.log.evaluations()),
            "ns",
        ),
        ("model.swap_ns", Kernel::ns(k.swapping_s, k.log.swaps), "ns"),
        ("model.build_us", k.build_us, "us"),
        ("model.rows", k.log.rows as f64, "count"),
        ("model.row_probes", k.log.row_probes as f64, "count"),
        ("model.swaps", k.log.swaps as f64, "count"),
    ]
}

/// Executor overhead of the p=2 races and the share of their work the
/// winner did.
fn parallel(races: &[RaceSample]) -> Vec<Metric> {
    let overhead_ms: Vec<f64> = races
        .iter()
        .filter_map(|r| Some((r.p2_s - r.p2.winning_record()?.outcome.elapsed.as_secs_f64()) * 1e3))
        .collect();
    let winner: u64 = races
        .iter()
        .filter_map(|r| r.p2.winning_record())
        .map(|w| w.outcome.stats.iterations)
        .sum();
    let total: u64 = races
        .iter()
        .flat_map(|r| &r.p2.records)
        .map(|w| w.outcome.stats.iterations)
        .sum();
    vec![
        ("parallel.batch_overhead_ms", median(&overhead_ms), "ms"),
        (
            "parallel.useful_work_frac",
            winner as f64 / total as f64,
            "ratio",
        ),
    ]
}

/// Median of `Supervisor::run` time minus `SequentialExecutor::execute`
/// time on the same service batches, in milliseconds.
fn supervision_overhead(inputs: &Inputs<'_>) -> f64 {
    let tracer = inputs.tracer;
    let diffs: Vec<f64> = (0..SUPERVISED_BATCHES)
        .map(|k| {
            let id = JOB_MIX[k as usize % JOB_MIX.len()];
            let request = SolveRequest::new(id, JOB_WALKS, JOB_BUDGET)
                .with_master_seed(derive_seed(inputs.seed, Stream::Job, 1_000_000 + k));
            let batch = inputs
                .service
                .batch_for(&request)
                .expect("mix ids are catalog ids");
            let bench = Benchmark::from_id(id).expect("mix ids are catalog ids");
            let factory = || bench.build();
            let time = |name, f: &dyn Fn()| {
                let started = Instant::now();
                tracer.span(name, k, None, |_| f());
                started.elapsed()
            };
            let bare = time("parallel.execute_bare", &|| {
                let _ = SequentialExecutor.execute(&factory, &batch);
            });
            let supervised = time("resilience.supervisor_run", &|| {
                let _ = Supervisor::new(SequentialExecutor).run(&factory, &batch);
            });
            signed_ms(supervised, bare)
        })
        .collect();
    median(&diffs)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn signed_ms(a: Duration, b: Duration) -> f64 {
    ms(a) - ms(b)
}

/// Where each open-loop job's latency went, seen from the client.  The
/// generator's lateness, `submit`, the wait for `Started`, the supervised
/// execution and the rest add up to each job's latency.
fn service(inputs: &mut Inputs<'_>) -> Vec<Metric> {
    let mut late_ms = Vec::new();
    let mut admit_us = Vec::new();
    let mut queue_ms = Vec::new();
    let mut exec_ms = Vec::new();
    let mut post_ms = Vec::new();
    let mut frames = Vec::new();
    for job in inputs.open {
        let (Some(started), Some(completed), Some(done)) =
            (job.started_rx, job.completed_rx, &job.completed)
        else {
            continue;
        };
        let exec = done.execution.execution.wall_time;
        late_ms.push(ms(job.submit_start.saturating_duration_since(job.due)));
        admit_us.push(ms(job.submit_end.saturating_duration_since(job.submit_start)) * 1e3);
        queue_ms.push(ms(started.saturating_duration_since(job.submit_end)));
        exec_ms.push(ms(exec));
        post_ms.push(signed_ms(
            completed.saturating_duration_since(started),
            exec,
        ));
        frames.push(job.frames.len() as f64);
    }
    let (late_pct, late_tail) = tail(&late_ms);
    let parts = [
        median(&late_ms),
        median(&admit_us) / 1e3,
        median(&queue_ms),
        median(&exec_ms),
        median(&post_ms),
    ];
    inputs.report.notes.push(format!(
        "job latency p50 parts (ms): late {:.4} + admit {:.4} + queue {:.4} + exec {:.4} + post {:.4} = {:.4}; bench.gen_late_tail_ms is p{late_pct} of {}",
        parts[0], parts[1], parts[2], parts[3], parts[4], parts.iter().sum::<f64>(), late_ms.len()
    ));
    vec![
        ("service.admit_us", median(&admit_us), "us"),
        ("service.queue_wait_p50_ms", parts[2], "ms"),
        ("service.queue_wait_tail_ms", tail(&queue_ms).1, "ms"),
        ("service.exec_p50_ms", parts[3], "ms"),
        ("service.post_exec_p50_ms", parts[4], "ms"),
        ("service.frames_per_job", mean(&frames), "count"),
        ("bench.gen_late_tail_ms", late_tail, "ms"),
    ]
}

/// The order-statistics prediction of `speedup_p2` from the p=1 iteration
/// samples, instance by instance.
fn perfmodel(inputs: &mut Inputs<'_>) -> Vec<Metric> {
    let tracer = inputs.tracer;
    let mut p1_total = 0.0;
    let mut p2_total = 0.0;
    let mut ks_weighted = 0.0;
    let mut n_total = 0.0;
    for instance in 0..inputs.race_mix.len() {
        let iters: Vec<f64> = inputs
            .races
            .iter()
            .filter(|r| r.instance == instance)
            .filter_map(|r| r.p1.records.first())
            .map(|r| r.outcome.stats.iterations as f64)
            .collect();
        if iters.is_empty() {
            continue;
        }
        let group = instance as u64;
        let dist = EmpiricalDistribution::new(&iters);
        let n = iters.len() as f64;
        p1_total += dist.mean() * n;
        p2_total += tracer.span("perfmodel.expected_min_of", group, None, |_| {
            dist.expected_min_of(2)
        }) * n;
        let (shift, scale) = tracer.span("perfmodel.fit_shifted_exponential", group, None, |_| {
            dist.fit_shifted_exponential()
        });
        ks_weighted += dist.ks_distance_shifted_exponential(shift, scale) * n;
        n_total += n;
    }
    let predicted = p1_total / p2_total;
    let error = inputs.speedup_p2 / predicted - 1.0;
    inputs.report.notes.push(format!(
        "speedup_p2 / perfmodel.pred_speedup_p2 - 1 = {error:+.4}"
    ));
    vec![
        ("perfmodel.pred_speedup_p2", predicted, "ratio"),
        ("perfmodel.pred_error_p2", error.abs(), "ratio"),
        ("perfmodel.ks_distance", ks_weighted / n_total, "ratio"),
    ]
}
