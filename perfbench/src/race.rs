//! The race protocol: for each seed, walk 0 of a 2-walk batch runs alone on
//! the sequential executor (p=1), then the whole batch races on the threads
//! executor, the first finisher stopping the other (p=2).  A plan may repeat
//! the pair for each seed; the fastest call of each kind is the seed's time.

use std::time::Instant;

use cbls_core::{Evaluator, SearchConfig};
use cbls_parallel::{BatchExecution, SequentialExecutor, ThreadsExecutor, WalkBatch, WalkExecutor};
use cbls_problems::Benchmark;

use crate::plan::{COSTAS, COSTAS_RESTART_ITERATIONS};
use crate::trace::Tracer;

/// A benchmark with its tuned configuration, built once in set-up.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The catalog entry.
    pub bench: Benchmark,
    /// Its tuned search configuration.
    pub config: SearchConfig,
}

impl Instance {
    /// Resolve a catalog id and tune its configuration ([`COSTAS`] with
    /// its restart budget at [`COSTAS_RESTART_ITERATIONS`]).
    ///
    /// # Panics
    ///
    /// Panics on an id the catalog does not know: the benchmark's mixes are
    /// fixed in its source.
    #[must_use]
    pub fn new(id: &str) -> Self {
        let bench = Benchmark::from_id(id).unwrap_or_else(|| panic!("unknown benchmark id {id}"));
        let mut config = bench.tuned_config();
        if id == COSTAS {
            config.max_iterations_per_restart = COSTAS_RESTART_ITERATIONS;
        }
        Self { config, bench }
    }
}

/// One seed of the race protocol.
#[derive(Debug, Clone)]
pub struct RaceSample {
    /// Index of the instance in the workload's race mix.
    pub instance: usize,
    /// Master seed of the 2-walk batch.
    pub seed: u64,
    /// Wall time of the fastest p=1 `execute` call, seconds.
    pub p1_s: f64,
    /// Wall time of the fastest p=2 `execute` call, seconds.
    pub p2_s: f64,
    /// The fastest p=1 execution.
    pub p1: BatchExecution,
    /// The fastest p=2 execution.
    pub p2: BatchExecution,
    /// The other repetitions' p=1 executions, audited like [`Self::p1`].
    pub slower_p1: Vec<BatchExecution>,
    /// The other repetitions' p=2 executions, audited like [`Self::p2`].
    pub slower_p2: Vec<BatchExecution>,
}

/// Run the protocol `reps` times for every `(instance, seed)` pair, in
/// order, and keep the fastest call of each kind: on a shared host a call
/// now and then loses milliseconds to a descheduled thread, which the
/// p=2 race, spread over two cores, meets several times as often as the
/// p=1 walk.  The pairs' spans are grouped from `first_group` on.
pub fn run(
    mix: &[Instance],
    plan: &[(usize, u64)],
    first_group: u64,
    reps: usize,
    tracer: &Tracer,
) -> Vec<RaceSample> {
    plan.iter()
        .enumerate()
        .map(|(k, &(instance, seed))| {
            let group = first_group + k as u64;
            let inst = &mix[instance];
            tracer.span("bench.race_seed", group, None, |root| {
                let pair = WalkBatch::uniform(seed, &inst.config, 2);
                let single = WalkBatch::new(pair.seeds(), pair.jobs()[..1].to_vec());
                let mut p1 = Vec::with_capacity(reps);
                let mut p2 = Vec::with_capacity(reps);
                for _ in 0..reps.max(1) {
                    p1.push(timed_execute(
                        &SequentialExecutor,
                        "parallel.execute_p1",
                        inst,
                        &single,
                        group,
                        root,
                        tracer,
                    ));
                    p2.push(timed_execute(
                        &ThreadsExecutor,
                        "parallel.execute_p2",
                        inst,
                        &pair,
                        group,
                        root,
                        tracer,
                    ));
                }
                let (p1_s, p1, slower_p1) = fastest(p1);
                let (p2_s, p2, slower_p2) = fastest(p2);
                RaceSample {
                    instance,
                    seed,
                    p1_s,
                    p2_s,
                    p1,
                    p2,
                    slower_p1,
                    slower_p2,
                }
            })
        })
        .collect()
}

/// The fastest of `calls` and the executions of the others.
fn fastest(mut calls: Vec<(f64, BatchExecution)>) -> (f64, BatchExecution, Vec<BatchExecution>) {
    let best = (0..calls.len())
        .min_by(|&a, &b| calls[a].0.total_cmp(&calls[b].0))
        .expect("at least one repetition");
    let (wall, execution) = calls.swap_remove(best);
    (wall, execution, calls.into_iter().map(|c| c.1).collect())
}

fn timed_execute<X: WalkExecutor>(
    executor: &X,
    name: &'static str,
    inst: &Instance,
    batch: &WalkBatch,
    group: u64,
    parent: Option<u64>,
    tracer: &Tracer,
) -> (f64, BatchExecution) {
    let open = tracer.begin(name, group, parent);
    let call = open.id();
    let factory = || -> Box<dyn Evaluator> {
        if tracer.enabled() {
            tracer.span("problems.build", group, call, |_| inst.bench.build())
        } else {
            inst.bench.build()
        }
    };
    let started = Instant::now();
    let execution = executor.execute(&factory, batch);
    let wall = started.elapsed().as_secs_f64();
    tracer.end(open);
    (wall, execution)
}

/// Whether `solution` is a verified solution of `bench` on a fresh
/// evaluator: cost 0 when computed in full, and accepted by `verify`.
#[must_use]
pub fn verified(bench: &Benchmark, solution: &[usize]) -> bool {
    let mut fresh = bench.build();
    solution.len() == fresh.size() && fresh.init(solution) == 0 && fresh.verify(solution)
}

/// Check one sample outside the timed window: every p=1 walk, then every
/// p=2 race, each `Some(miss)` when it failed.
#[must_use]
pub fn audit(mix: &[Instance], sample: &RaceSample) -> Vec<Option<String>> {
    let bench = &mix[sample.instance].bench;
    let miss = |what: &str| Some(format!("{} seed {} {what}", bench.id(), sample.seed));
    // Walk 0 runs the same seed stream in every call: alone, it takes the
    // same trajectory each time, and when it wins a race it must have taken
    // that trajectory too.
    let alone = sample
        .p1
        .records
        .first()
        .map(|r| r.outcome.stats.iterations);
    let p1 = std::iter::once(&sample.p1)
        .chain(&sample.slower_p1)
        .map(|p1| match p1.winning_record() {
            Some(r) if !verified(bench, &r.outcome.solution) => {
                miss("p=1 solution fails verification")
            }
            Some(r) if alone != Some(r.outcome.stats.iterations) => {
                miss("p=1 repetitions took different trajectories")
            }
            Some(_) => None,
            None => miss("p=1 walk did not solve"),
        });
    let p2 = std::iter::once(&sample.p2)
        .chain(&sample.slower_p2)
        .map(|p2| match p2.winning_record() {
            Some(r) if !verified(bench, &r.outcome.solution) => {
                miss("p=2 solution fails verification")
            }
            Some(r) if r.walk_id == 0 && alone != Some(r.outcome.stats.iterations) => {
                miss("p=2 walk 0 diverged from its p=1 trajectory")
            }
            Some(_) => None,
            None => miss("p=2 race did not solve"),
        });
    p1.chain(p2).collect()
}
