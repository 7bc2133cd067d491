//! Solve-service traffic: an open loop at a fixed offered rate and a closed
//! loop with a fixed number of requests outstanding, observed from the
//! client side through each job's progress frames.

use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use cbls_parallel::{SequentialExecutor, WalkExecutor};
use cbls_problems::Benchmark;
use cbls_service::{AdmissionError, CompletedJob, JobEvent, JobHandle, SolveRequest, SolveService};

use crate::race::verified;
use crate::trace::Tracer;

/// Frame kinds in stream order: `A`dmitted, `S`tarted, `W`alk, `C`ompleted.
pub type FrameLog = Vec<(char, u64)>;

/// One request as its client saw it.
#[derive(Debug)]
pub struct JobObs {
    /// The job's position in its phase (the span group).
    pub index: u64,
    /// The request sent.
    pub request: SolveRequest,
    /// When the request was due to be sent.
    pub due: Instant,
    /// When `submit` was called.
    pub submit_start: Instant,
    /// When `submit` returned.
    pub submit_end: Instant,
    /// Frames received, as `(kind, seq)`.
    pub frames: FrameLog,
    /// When the `Started` frame was received.
    pub started_rx: Option<Instant>,
    /// When the `Completed` frame was received.
    pub completed_rx: Option<Instant>,
    /// The job's result, from `JobHandle::wait`.
    pub completed: Option<CompletedJob>,
    /// Why admission refused the request, if it did.
    pub rejected: Option<AdmissionError>,
}

impl JobObs {
    /// Latency from the due time to the `Completed` frame, seconds.
    #[must_use]
    pub fn latency_s(&self) -> Option<f64> {
        Some(
            self.completed_rx?
                .saturating_duration_since(self.due)
                .as_secs_f64(),
        )
    }

    /// Record this job's spans: the job from its due time to its terminal
    /// frame, with the `submit` call, the wait for `Started` and the wait
    /// for `Completed` as children.
    pub fn trace(&self, tracer: &Tracer) {
        let (Some(started), Some(completed)) = (self.started_rx, self.completed_rx) else {
            return;
        };
        let root = tracer.record("bench.job", self.index, None, self.due, completed);
        tracer.record(
            "service.submit",
            self.index,
            root,
            self.submit_start,
            self.submit_end,
        );
        tracer.record(
            "service.wait_started",
            self.index,
            root,
            self.submit_end,
            started,
        );
        tracer.record(
            "service.wait_completed",
            self.index,
            root,
            started,
            completed,
        );
    }
}

fn submit(
    service: &SolveService,
    index: u64,
    request: SolveRequest,
    due: Instant,
) -> (JobObs, Option<JobHandle>) {
    let submit_start = Instant::now();
    let outcome = service.submit(request.clone());
    let submit_end = Instant::now();
    let (handle, rejected) = match outcome {
        Ok(handle) => (Some(handle), None),
        Err(err) => (None, Some(err)),
    };
    let obs = JobObs {
        index,
        request,
        due,
        submit_start,
        submit_end,
        frames: Vec::new(),
        started_rx: None,
        completed_rx: None,
        completed: None,
        rejected,
    };
    (obs, handle)
}

/// Read `handle`'s stream to its end, stamping the frames that matter.
fn follow(obs: &mut JobObs, mut handle: JobHandle) {
    while let Some(frame) = handle.next_frame() {
        let kind = match frame.event {
            JobEvent::Admitted { .. } => 'A',
            JobEvent::Started { .. } => {
                obs.started_rx = Some(Instant::now());
                'S'
            }
            JobEvent::Walk { .. } => 'W',
            JobEvent::Completed { .. } => {
                obs.completed_rx = Some(Instant::now());
                'C'
            }
        };
        obs.frames.push((kind, frame.seq));
    }
    obs.completed = handle.wait();
}

/// Send `requests` at `rate` per second from now and follow each job on
/// one of `followers` threads (blocked on a job's stream, never polling).
/// Jobs are numbered from `first_index`; returns them in send order.
pub fn open_loop(
    service: &SolveService,
    requests: Vec<SolveRequest>,
    rate: f64,
    followers: usize,
    first_index: u64,
) -> Vec<JobObs> {
    let total = requests.len();
    let (work_tx, work_rx) = mpsc::channel::<(JobObs, Option<JobHandle>)>();
    let work_rx = Mutex::new(work_rx);
    let (done_tx, done_rx) = mpsc::channel::<JobObs>();
    thread::scope(|scope| {
        for _ in 0..followers {
            let done_tx = done_tx.clone();
            let work_rx = &work_rx;
            scope.spawn(move || loop {
                let next = work_rx.lock().expect("work queue poisoned").recv();
                let Ok((mut obs, handle)) = next else { break };
                if let Some(handle) = handle {
                    follow(&mut obs, handle);
                }
                let _ = done_tx.send(obs);
            });
        }
        let start = Instant::now();
        for (k, request) in requests.into_iter().enumerate() {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let sent = submit(service, first_index + k as u64, request, due);
            work_tx.send(sent).expect("followers outlive the generator");
        }
        drop(work_tx);
    });
    drop(done_tx);
    let mut jobs: Vec<JobObs> = done_rx.iter().collect();
    assert_eq!(jobs.len(), total, "every sent request is followed");
    jobs.sort_by_key(|j| j.index);
    jobs
}

/// Keep `clients` requests outstanding: each client sends its next request
/// as soon as its previous one completes.  Returns the jobs and the time
/// from the first send to the last completion, seconds.
pub fn closed_loop(
    service: &SolveService,
    requests: Vec<SolveRequest>,
    clients: usize,
    first_index: u64,
) -> (Vec<JobObs>, f64) {
    let mut shares: Vec<Vec<(u64, SolveRequest)>> = vec![Vec::new(); clients];
    for (k, request) in requests.into_iter().enumerate() {
        shares[k % clients].push((first_index + k as u64, request));
    }
    let start = Instant::now();
    let mut jobs: Vec<JobObs> = thread::scope(|scope| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| {
                scope.spawn(move || {
                    share
                        .into_iter()
                        .map(|(index, request)| {
                            let (mut obs, handle) = submit(service, index, request, Instant::now());
                            if let Some(handle) = handle {
                                follow(&mut obs, handle);
                            }
                            obs
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let end = jobs
        .iter()
        .filter_map(|j| j.completed_rx)
        .max()
        .unwrap_or(start);
    jobs.sort_by_key(|j| j.index);
    (jobs, end.saturating_duration_since(start).as_secs_f64())
}

/// Check one job outside the timed window: admission, frame order, result,
/// solution, and agreement with a direct replay of its batch.  Each miss is
/// one message.
#[must_use]
pub fn audit(service: &SolveService, job: &JobObs) -> Vec<String> {
    let what = |m: &str| {
        format!(
            "job {} ({}, seed {}): {m}",
            job.index, job.request.benchmark, job.request.master_seed
        )
    };
    if let Some(err) = &job.rejected {
        return vec![what(&format!("rejected: {err:?}"))];
    }
    let mut misses = Vec::new();
    if !frames_in_order(&job.frames) {
        misses.push(what(&format!("frames out of order: {:?}", job.frames)));
    }
    let Some(done) = &job.completed else {
        misses.push(what("no result"));
        return misses;
    };
    let result = &done.result;
    if !result.solved || result.degradation.is_some() {
        misses.push(what(&format!(
            "solved {} degradation {:?}",
            result.solved, result.degradation
        )));
    }
    let bench = Benchmark::from_id(&job.request.benchmark).expect("mix ids are catalog ids");
    let record = done.execution.execution.winning_record();
    if !record.is_some_and(|r| verified(&bench, &r.outcome.solution)) {
        misses.push(what("solution fails verification"));
    }
    let Some(batch) = service.batch_for(&job.request) else {
        misses.push(what("no batch for the request"));
        return misses;
    };
    let direct = SequentialExecutor.execute(&|| bench.build(), &batch);
    let key = |r: Option<&cbls_parallel::WalkRecord>| {
        r.map(|r| (r.walk_id, r.seed, r.outcome.stats.iterations))
    };
    if direct.winner != result.winner || key(direct.winning_record()) != key(record) {
        misses.push(what("result differs from a direct replay of its batch"));
    }
    misses
}

/// `Admitted`, `Started`, any number of `Walk`, `Completed`, with strictly
/// increasing sequence numbers.
#[must_use]
pub fn frames_in_order(frames: &[(char, u64)]) -> bool {
    let kinds: String = frames.iter().map(|f| f.0).collect();
    let shape = kinds.len() >= 3
        && kinds.starts_with("AS")
        && kinds.ends_with('C')
        && kinds[2..kinds.len() - 1].chars().all(|k| k == 'W');
    shape && frames.windows(2).all(|w| w[0].1 < w[1].1)
}
