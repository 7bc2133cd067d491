//! Probe-trace replay: record the probes and swaps a seeded walk makes
//! through the public `Evaluator` API, replay them on a fresh evaluator,
//! check every replayed result bit for bit, and only then time them.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use cbls_core::{AdaptiveSearch, Evaluator, IncrementalProfile, SearchConfig};
use cbls_parallel::WalkSeeds;
use cbls_problems::Benchmark;

use crate::stats::median;

/// One recorded call.  Rows index into the log's flat partner and result
/// buffers.
#[derive(Debug, Clone, Copy)]
enum Op {
    Init {
        perm: usize,
        cost: i64,
    },
    Probe {
        i: usize,
        j: usize,
        cost: i64,
        out: i64,
    },
    Row {
        i: usize,
        cost: i64,
        at: usize,
        len: usize,
    },
    Swap {
        i: usize,
        j: usize,
    },
}

/// A recorded call sequence plus exact counts of what it holds.
#[derive(Debug, Default, Clone)]
pub struct ProbeLog {
    ops: Vec<Op>,
    perms: Vec<Vec<usize>>,
    partners: Vec<usize>,
    results: Vec<i64>,
    /// Scalar `cost_if_swap` calls.
    pub probes: u64,
    /// Batched `cost_if_swaps` calls.
    pub rows: u64,
    /// Candidates evaluated inside rows.
    pub row_probes: u64,
    /// `executed_swap` calls.
    pub swaps: u64,
}

/// An evaluator that forwards every call to `inner` and logs the ones the
/// replay times.
struct Recorder {
    inner: Box<dyn Evaluator>,
    log: RefCell<ProbeLog>,
}

impl Evaluator for Recorder {
    fn size(&self) -> usize {
        self.inner.size()
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn init(&mut self, perm: &[usize]) -> i64 {
        let cost = self.inner.init(perm);
        let log = self.log.get_mut();
        log.ops.push(Op::Init {
            perm: log.perms.len(),
            cost,
        });
        log.perms.push(perm.to_vec());
        cost
    }
    fn cost(&self, perm: &[usize]) -> i64 {
        self.inner.cost(perm)
    }
    fn cost_on_variable(&self, perm: &[usize], i: usize) -> i64 {
        self.inner.cost_on_variable(perm, i)
    }
    fn cost_if_swap(&self, perm: &[usize], current_cost: i64, i: usize, j: usize) -> i64 {
        let out = self.inner.cost_if_swap(perm, current_cost, i, j);
        let mut log = self.log.borrow_mut();
        log.ops.push(Op::Probe {
            i,
            j,
            cost: current_cost,
            out,
        });
        log.probes += 1;
        out
    }
    fn cost_if_swaps(
        &self,
        perm: &[usize],
        current_cost: i64,
        i: usize,
        js: &[usize],
        out: &mut [i64],
    ) {
        self.inner.cost_if_swaps(perm, current_cost, i, js, out);
        let mut log = self.log.borrow_mut();
        let at = log.partners.len();
        log.partners.extend_from_slice(js);
        log.results.extend_from_slice(out);
        log.ops.push(Op::Row {
            i,
            cost: current_cost,
            at,
            len: js.len(),
        });
        log.rows += 1;
        log.row_probes += js.len() as u64;
    }
    fn executed_swap(&mut self, perm: &[usize], i: usize, j: usize) {
        self.inner.executed_swap(perm, i, j);
        let log = self.log.get_mut();
        log.ops.push(Op::Swap { i, j });
        log.swaps += 1;
    }
    fn touched_by_swap(&self, perm: &[usize], i: usize, j: usize, out: &mut Vec<usize>) -> bool {
        self.inner.touched_by_swap(perm, i, j, out)
    }
    fn project_errors(&self, perm: &[usize], indices: &[usize], out: &mut [i64]) {
        self.inner.project_errors(perm, indices, out);
    }
    fn project_errors_full(&self, perm: &[usize], out: &mut [i64]) {
        self.inner.project_errors_full(perm, out);
    }
    fn incremental_profile(&self) -> IncrementalProfile {
        self.inner.incremental_profile()
    }
    fn tune(&self, config: &mut SearchConfig) {
        self.inner.tune(config);
    }
    fn verify(&self, perm: &[usize]) -> bool {
        self.inner.verify(perm)
    }
}

/// Record walks of `bench` under its tuned configuration, each capped at
/// `walk_iterations` iterations and seeded from `seed`, until the log holds
/// at least `min_evaluations` probe evaluations.
#[must_use]
pub fn record(
    bench: &Benchmark,
    seed: u64,
    walk_iterations: u64,
    min_evaluations: u64,
) -> ProbeLog {
    let mut config = bench.tuned_config();
    config.max_iterations_per_restart = walk_iterations;
    config.max_restarts = 0;
    let engine = AdaptiveSearch::new(config);
    let seeds = WalkSeeds::new(seed);
    let mut recorder = Recorder {
        inner: bench.build(),
        log: RefCell::new(ProbeLog::default()),
    };
    let mut walk = 0;
    while recorder.log.get_mut().evaluations() < min_evaluations {
        let _ = engine.solve(&mut recorder, &mut seeds.rng_of(walk));
        walk += 1;
    }
    recorder.log.into_inner()
}

/// Which recorded calls a timed pass replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    InitOnly,
    State,
    Full,
}

impl ProbeLog {
    /// Probe evaluations: scalar probes plus candidates inside rows.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        self.probes + self.row_probes
    }

    /// Replay every call on `evaluator` and compare each result with the
    /// recorded one; the first mismatch is an error.
    ///
    /// # Errors
    ///
    /// A description of the first call whose replayed result differs.
    pub fn check(&self, evaluator: &mut dyn Evaluator) -> Result<(), String> {
        let mut perm = Vec::new();
        let mut out = Vec::new();
        for (k, op) in self.ops.iter().enumerate() {
            match *op {
                Op::Init { perm: p, cost } => {
                    perm.clone_from(&self.perms[p]);
                    let got = evaluator.init(&perm);
                    if got != cost {
                        return Err(format!("op {k}: init gave {got}, recorded {cost}"));
                    }
                }
                Op::Probe {
                    i,
                    j,
                    cost,
                    out: want,
                } => {
                    let got = evaluator.cost_if_swap(&perm, cost, i, j);
                    if got != want {
                        return Err(format!(
                            "op {k}: cost_if_swap({i},{j}) gave {got}, recorded {want}"
                        ));
                    }
                }
                Op::Row { i, cost, at, len } => {
                    out.clear();
                    out.resize(len, 0);
                    evaluator.cost_if_swaps(&perm, cost, i, &self.partners[at..at + len], &mut out);
                    if out[..] != self.results[at..at + len] {
                        return Err(format!(
                            "op {k}: cost_if_swaps row {i} differs from the recording"
                        ));
                    }
                }
                Op::Swap { i, j } => {
                    perm.swap(i, j);
                    evaluator.executed_swap(&perm, i, j);
                }
            }
        }
        Ok(())
    }

    fn pass(&self, evaluator: &mut dyn Evaluator, pass: Pass) -> f64 {
        let mut perm = Vec::new();
        let mut out = vec![0; self.partners.len().min(4096)];
        let mut sink = 0i64;
        let started = Instant::now();
        for op in &self.ops {
            match *op {
                Op::Init { perm: p, .. } => {
                    perm.clone_from(&self.perms[p]);
                    sink = sink.wrapping_add(evaluator.init(&perm));
                }
                Op::Probe { i, j, cost, .. } if pass == Pass::Full => {
                    sink = sink.wrapping_add(evaluator.cost_if_swap(&perm, cost, i, j));
                }
                Op::Row { i, cost, at, len } if pass == Pass::Full => {
                    if out.len() < len {
                        out.resize(len, 0);
                    }
                    evaluator.cost_if_swaps(
                        &perm,
                        cost,
                        i,
                        &self.partners[at..at + len],
                        &mut out[..len],
                    );
                    sink = sink.wrapping_add(out[0]);
                }
                Op::Swap { i, j } if pass != Pass::InitOnly => {
                    perm.swap(i, j);
                    evaluator.executed_swap(&perm, i, j);
                }
                _ => {}
            }
        }
        black_box(sink);
        started.elapsed().as_secs_f64()
    }

    /// Time the log: the median of `reps` passes of each kind, replayed on
    /// evaluators from `build`.  Probe time is the full pass minus the
    /// state-only pass (inits and swaps), swap time the state-only pass
    /// minus the init-only pass.
    #[must_use]
    pub fn time(&self, build: impl Fn() -> Box<dyn Evaluator>, reps: usize) -> ReplayTiming {
        let mut evaluator = build();
        let mut times = |pass| {
            let samples: Vec<f64> = (0..reps)
                .map(|_| self.pass(evaluator.as_mut(), pass))
                .collect();
            median(&samples)
        };
        let init = times(Pass::InitOnly);
        let state = times(Pass::State);
        let full = times(Pass::Full);
        ReplayTiming {
            probing_s: (full - state).max(0.0),
            swapping_s: (state - init).max(0.0),
        }
    }
}

/// Time a replay spent in probes and in swaps, per pass.
#[derive(Debug, Clone, Copy)]
pub struct ReplayTiming {
    /// Seconds in `cost_if_swap` / `cost_if_swaps` calls.
    pub probing_s: f64,
    /// Seconds in `executed_swap` calls.
    pub swapping_s: f64,
}
