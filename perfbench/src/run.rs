//! One run of one workload: set-up, the timed phases, the checks outside
//! the timed window, and the metrics.

use std::fs;
use std::path::Path;
use std::time::Instant;

use cbls_core::SearchConfig;
use cbls_parallel::{SequentialExecutor, WalkBatch, WalkExecutor};
use cbls_service::{ServiceConfig, SolveRequest, SolveService};

use crate::layers;
use crate::load::{self, JobObs};
use crate::plan::{
    derive_seed, round_share, Plan, Stream, CLIENTS, FOLLOWERS, JOB_BUDGET, JOB_MIX, JOB_WALKS,
    OFFERED_RATE, ROUNDS, SETUP_REPS, WARMUP_ITERATIONS,
};
use crate::race::{self, Instance};
use crate::stats::{mean, median, paired_speedup, quantile, quartile_spread, tail};
use crate::trace::{self, Tracer};

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (p=1 walks, p=2 races, service jobs, checks).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// End-to-end metrics (always measured).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Report {
    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Count one checked operation; `misses` are its failures, if any.
    pub(crate) fn check(&mut self, misses: Vec<String>) {
        self.attempted += 1;
        if !misses.is_empty() {
            self.failed += 1;
            self.notes
                .extend(misses.into_iter().map(|m| format!("MISS {m}")));
        }
    }

    /// The result line: one JSON object with the metrics of the mode.
    #[must_use]
    pub fn json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Everything set-up builds; the last of the set-up repetitions is kept.
struct Setup {
    race_mix: Vec<Instance>,
    service: SolveService,
    warmup_jobs: u64,
}

/// Build the race instances and the job instances, start the service, send
/// one warm-up job per job instance, wait for them, and run warm-up walks on
/// every race instance.  The warm-up seeds are fixed, so set-up does the
/// same work whatever the workload seed.
fn set_up(plan: &Plan, tracer: &Tracer, rep: u64) -> Setup {
    let race_mix: Vec<Instance> = plan
        .race_mix
        .iter()
        .map(|id| tracer.span("problems.build", rep, None, |_| Instance::new(id)))
        .collect();
    for id in JOB_MIX {
        tracer.span("problems.build", rep, None, |_| Instance::new(id));
    }
    let service = tracer.span("service.new", rep, None, |_| {
        SolveService::new(ServiceConfig::default().with_workers(CLIENTS))
    });
    let handles: Vec<_> = JOB_MIX
        .iter()
        .enumerate()
        .map(|(k, id)| {
            let request = SolveRequest::new(*id, JOB_WALKS, JOB_BUDGET)
                .with_master_seed(derive_seed(0, Stream::Warmup, k as u64));
            tracer.span("service.submit", rep, None, |_| service.submit(request))
        })
        .collect();
    // The warm-up jobs occupy both workers; the warm-up walks wait for them
    // so set-up never runs more compute threads than the timed phases.
    let mut warmup_jobs = 0;
    for handle in handles.into_iter().flatten() {
        let _ = handle.wait();
        warmup_jobs += 1;
    }
    let share = WARMUP_ITERATIONS / race_mix.len() as u64;
    for (k, inst) in race_mix.iter().enumerate() {
        let factory = || inst.bench.build();
        // Each walk may use what is left of the share, so set-up searches
        // exactly `share` iterations per instance whatever the trajectories.
        let mut left = share;
        let mut walk = 0;
        while left > 0 {
            let config = SearchConfig {
                max_iterations_per_restart: left,
                max_restarts: 0,
                ..inst.config.clone()
            };
            let seed = derive_seed(0, Stream::Warmup, 1000 * (k as u64 + 1) + walk);
            let batch = WalkBatch::uniform(seed, &config, 1);
            let execution = tracer.span("parallel.warmup", rep, None, |_| {
                SequentialExecutor.execute(&factory, &batch)
            });
            let used: u64 = execution
                .records
                .iter()
                .map(|r| r.outcome.stats.iterations)
                .sum();
            left = left.saturating_sub(used.max(1));
            walk += 1;
        }
    }
    Setup {
        race_mix,
        service,
        warmup_jobs,
    }
}

fn job_requests(seed: u64, first: u64, count: usize) -> Vec<SolveRequest> {
    (0..count as u64)
        .map(|k| {
            let id = JOB_MIX[((first + k) % JOB_MIX.len() as u64) as usize];
            SolveRequest::new(id, JOB_WALKS, JOB_BUDGET).with_master_seed(derive_seed(
                seed,
                Stream::Job,
                first + k,
            ))
        })
        .collect()
}

/// Run `plan` with workload seed `seed`.  Spans are recorded when `traced`
/// and written to `trace_dir`.
///
/// # Errors
///
/// An I/O error writing the trace.
pub fn run(plan: &Plan, seed: u64, traced: bool, trace_dir: &Path) -> Result<Report, String> {
    let origin = Instant::now();
    let tracer = Tracer::new(origin, traced);
    let mut report = Report::default();

    // Set-up, repeated before and after the timed phases; the median is
    // `setup_s`.
    let mut setup_times = Vec::new();
    let mut timed_set_up = |rep: u64| {
        let started = Instant::now();
        let setup = tracer.span("bench.setup", rep, None, |_| set_up(plan, &tracer, rep));
        setup_times.push(started.elapsed().as_secs_f64());
        setup
    };
    let (before, after) = SETUP_REPS;
    let mut kept = None;
    for rep in 0..before {
        if let Some(previous) = kept.replace(timed_set_up(rep)) {
            previous.service.shutdown();
        }
    }
    let Setup {
        race_mix,
        service,
        warmup_jobs,
    } = kept.expect("at least one set-up");

    // Timed phases, interleaved in rounds.
    let race_plan = plan.races(seed);
    let open_requests = job_requests(seed, 0, plan.open_jobs);
    let closed_requests = job_requests(seed, plan.open_jobs as u64, plan.closed_jobs);
    let mut races = Vec::new();
    let mut open = Vec::new();
    let mut closed = Vec::new();
    let mut closed_s = 0.0;
    let timed_start = Instant::now();
    for round in 0..ROUNDS {
        let share = round_share(race_plan.len(), round);
        races.extend(race::run(
            &race_mix,
            &race_plan[share.clone()],
            share.start as u64,
            plan.race_reps,
            &tracer,
        ));
        let share = round_share(open_requests.len(), round);
        open.extend(load::open_loop(
            &service,
            open_requests[share.clone()].to_vec(),
            OFFERED_RATE,
            FOLLOWERS,
            share.start as u64,
        ));
        let share = round_share(closed_requests.len(), round);
        let (jobs, seconds) = load::closed_loop(
            &service,
            closed_requests[share.clone()].to_vec(),
            CLIENTS,
            (plan.open_jobs + share.start) as u64,
        );
        closed.extend(jobs);
        closed_s += seconds;
    }
    let timed_s = timed_start.elapsed().as_secs_f64();
    for rep in before..before + after {
        timed_set_up(rep).service.shutdown();
    }

    // Checks, outside the timed window.
    for sample in &races {
        for miss in race::audit(&race_mix, sample) {
            report.check(miss.into_iter().collect());
        }
    }
    for job in open.iter().chain(&closed) {
        report.check(load::audit(&service, job));
    }
    report.check(metrics_agree(&service, warmup_jobs, &open, &closed));

    // End-to-end metrics.
    let p1_ms: Vec<f64> = races.iter().map(|r| r.p1_s * 1e3).collect();
    let p2_ms: Vec<f64> = races.iter().map(|r| r.p2_s * 1e3).collect();
    let latency_ms: Vec<f64> = open
        .iter()
        .filter_map(JobObs::latency_s)
        .map(|s| s * 1e3)
        .collect();
    let (job_pct, job_tail) = tail(&latency_ms);
    let speedup = paired_speedup(&p1_ms, &p2_ms).unwrap_or(f64::NAN);
    report.end_to_end = vec![
        ("tts_p1_mean_ms", mean(&p1_ms), "ms"),
        ("tts_p2_mean_ms", mean(&p2_ms), "ms"),
        ("tts_p2_p50_ms", quantile(&p2_ms, 0.5), "ms"),
        ("tts_p2_p90_ms", quantile(&p2_ms, 0.9), "ms"),
        ("speedup_p2", speedup, "ratio"),
        ("job_p50_ms", median(&latency_ms), "ms"),
        ("job_tail_ms", job_tail, "ms"),
        ("jobs_per_s_max", closed.len() as f64 / closed_s, "1/s"),
        ("setup_s", median(&setup_times), "s"),
    ];
    report.notes.push(format!(
        "set-up times (s): {setup_times:.4?}, quartile spread {:.3}",
        quartile_spread(&setup_times).unwrap_or(f64::NAN)
    ));
    report.notes.push(format!(
        "plan: {} race seeds over {:?} ({} calls each of p=1 and p=2 per seed), {} open-loop jobs at {OFFERED_RATE}/s, {} closed-loop jobs with {CLIENTS} outstanding; job_tail_ms is p{job_pct} of {} latencies; timed phases {timed_s:.2} s",
        plan.race_seeds, plan.race_mix, plan.race_reps, plan.open_jobs, plan.closed_jobs, latency_ms.len()
    ));

    if traced {
        for job in open.iter().chain(&closed) {
            job.trace(&tracer);
        }
        let mut per_layer = layers::measure(&mut layers::Inputs {
            seed,
            race_mix: &race_mix,
            races: &races,
            open: &open,
            service: &service,
            speedup_p2: speedup,
            tracer: &tracer,
            report: &mut report,
        });
        // A tenth of the race seeds (at least one of each order) is run
        // again.
        let rerun = (race_plan.len() / ROUNDS).max(2);
        let (overhead, reruns) = trace_overhead(&race_mix, &race_plan[..rerun]);
        for sample in &reruns {
            for miss in race::audit(&race_mix, sample) {
                report.check(miss.into_iter().collect());
            }
        }
        per_layer.push(("bench.trace_overhead_frac", overhead, "ratio"));
        let spans = tracer.spans();
        report.per_layer = per_layer;
        for (layer, (self_s, count)) in trace::self_time_by_layer(&spans) {
            report.notes.push(format!(
                "self time {layer:<11} {self_s:>9.4} s over {count} spans"
            ));
        }
        fs::create_dir_all(trace_dir)
            .map_err(|e| format!("creating {}: {e}", trace_dir.display()))?;
        let path = trace_dir.join(format!("trace-{}-{seed}.jsonl", plan.workload));
        fs::write(&path, trace::to_jsonl(&spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report
            .notes
            .push(format!("wrote {} spans to {}", spans.len(), path.display()));
    }
    service.shutdown();

    let all = report.end_to_end.iter().chain(&report.per_layer);
    let bad: Vec<String> = all
        .filter(|m| !m.1.is_finite())
        .map(|m| format!("metric {} is not finite", m.0))
        .collect();
    report.check(bad);
    Ok(report)
}

/// Tracing overhead, measured: each of `races` runs again once with tracing
/// off and once with it on, alternating which goes first.  Whichever runs
/// second tends to run a few percent faster, so the overhead is the
/// geometric mean of the two orders' median traced-over-untraced wall-time
/// ratios, minus one.  The service phases record their spans after the
/// timed window, so the races carry all the tracing the window sees.
/// Returns the overhead and the re-run samples, for the audit.
fn trace_overhead(race_mix: &[Instance], races: &[(usize, u64)]) -> (f64, Vec<race::RaceSample>) {
    let off = Tracer::new(Instant::now(), false);
    let on = Tracer::new(Instant::now(), true);
    let mut ratios = [Vec::new(), Vec::new()];
    let mut samples = Vec::new();
    for (k, pair) in races.iter().enumerate() {
        let mut wall = [0.0; 2];
        let order = if k % 2 == 0 { [0, 1] } else { [1, 0] };
        for which in order {
            let started = Instant::now();
            samples.extend(race::run(
                race_mix,
                std::slice::from_ref(pair),
                k as u64,
                1,
                [&off, &on][which],
            ));
            wall[which] = started.elapsed().as_secs_f64();
        }
        ratios[k % 2].push(wall[1] / wall[0]);
    }
    let ratio = (median(&ratios[0]) * median(&ratios[1])).sqrt();
    (ratio - 1.0, samples)
}

/// Cross-check the service's own counters against the jobs this run sent.
fn metrics_agree(
    service: &SolveService,
    warmup_jobs: u64,
    open: &[JobObs],
    closed: &[JobObs],
) -> Vec<String> {
    let jobs = || open.iter().chain(closed);
    let admitted = warmup_jobs + jobs().filter(|j| j.rejected.is_none()).count() as u64;
    let rejected = jobs().filter(|j| j.rejected.is_some()).count() as u64;
    let completed = warmup_jobs + jobs().filter(|j| j.completed.is_some()).count() as u64;
    let solved = warmup_jobs
        + jobs()
            .filter(|j| j.completed.as_ref().is_some_and(|c| c.result.solved))
            .count() as u64;
    let snapshot = service.metrics();
    [
        ("service.jobs_admitted", admitted),
        ("service.jobs_rejected", rejected),
        ("service.jobs_completed", completed),
        ("service.jobs_solved", solved),
    ]
    .into_iter()
    .filter_map(|(name, want)| {
        let got = snapshot.counter(name);
        (got != Some(want))
            .then(|| format!("metrics: {name} reads {got:?}, the client counted {want}"))
    })
    .collect()
}
