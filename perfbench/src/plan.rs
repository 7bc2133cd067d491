//! Workloads and their sample plans, fixed before a run starts.

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["cap-race", "model-race", "svc-short"];

/// Sub-millisecond solves sent to the service (and raced by `svc-short`).
pub const JOB_MIX: [&str; 5] = [
    "queens-200",
    "golomb-7",
    "qcp-10",
    "coloring-60x3",
    "magic-sequence-30",
];
/// Walks per service job.
pub const JOB_WALKS: usize = 2;
/// Iteration budget per job walk: every instance of the mix solves well
/// within it.
pub const JOB_BUDGET: u64 = 1_000_000;
/// Offered rate of the open loop, jobs per second.
pub const OFFERED_RATE: f64 = 50.0;
/// Requests kept outstanding by the closed loop.
pub const CLIENTS: usize = 2;
/// Threads following open-loop jobs (each blocks on one job's stream).
pub const FOLLOWERS: usize = 8;
/// Set-ups before the timed phases (the last one is used) and after them
/// (discarded); `setup_s` is the median of all of them.  Machine speed
/// drifts by tens of percent over seconds, so set-ups spread over the run
/// measure it the way the timed phases see it.
pub const SETUP_REPS: (u64, u64) = (3, 4);
/// Rounds the timed phases are interleaved in: each round runs its share
/// of the races, then of the open loop, then of the closed loop, so every
/// phase samples the whole run rather than one stretch of a machine whose
/// speed drifts over seconds.
pub const ROUNDS: usize = 10;
/// Engine iterations of warm-up walks per set-up, shared over the race mix.
pub const WARMUP_ITERATIONS: u64 = 60_000;

/// Costas instance of `cap-race` and of the probe-trace replay.
pub const COSTAS: &str = "costas-13";
/// Restart budget of the [`COSTAS`] races, in iterations, in place of the
/// tuned 10 000.  A Costas restart either solves in a quick descent of a
/// few hundred iterations or stalls until its budget runs out, so time to
/// solution is a whole number of budgets plus one descent.  With
/// the tuned budget that is a coarse staircase whose quantiles jump between
/// steps from one seed set to the next; a budget just above one descent
/// makes the steps fine, and the mean about ten times lower, so a run fits
/// enough seeds for steady figures.
pub const COSTAS_RESTART_ITERATIONS: u64 = 1_000;
/// Model instance of `model-race` and of the row-trace replay.
pub const MODEL: &str = "golomb-8";

/// What one run of a workload does.  Counts scale with the run length at
/// fixed per-second rates, so a plan depends only on the workload and
/// `--seconds`; nothing stops early.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The workload's name.
    pub workload: &'static str,
    /// Instances the race phase cycles through.
    pub race_mix: Vec<&'static str>,
    /// Seeds of the race phase.
    pub race_seeds: usize,
    /// p=1 walks and p=2 races per seed; the fastest of each is the
    /// seed's time.
    pub race_reps: usize,
    /// Requests of the open loop, sent at [`OFFERED_RATE`].
    pub open_jobs: usize,
    /// Requests of the closed loop.
    pub closed_jobs: usize,
}

impl Plan {
    /// The plan of `workload` for a run of `seconds`; `None` for an unknown
    /// workload.
    #[must_use]
    pub fn new(workload: &str, seconds: f64) -> Option<Self> {
        // (name, race mix, race seeds / s, repetitions per seed,
        //  open-loop jobs / s, closed-loop jobs / s)
        //
        // `svc-short` races sub-millisecond solves, where a thread that the
        // host deschedules for a few milliseconds (one race in six, on a
        // busy 2-vCPU host) would decide the mean; the fastest of three
        // calls per seed is not decided by it.  The race workloads' walks
        // are long enough that the losses average out over their seeds.
        let (workload, race_mix, race, reps, open, closed): (_, &[&'static str], _, _, _, _) =
            match workload {
                "cap-race" => ("cap-race", &[COSTAS], 14.0, 1, 8.0, 4.0),
                "model-race" => ("model-race", &[MODEL], 38.0, 1, 8.0, 4.0),
                "svc-short" => ("svc-short", &JOB_MIX, 60.0, 3, 34.0, 10.0),
                _ => return None,
            };
        let count = |per_s: f64, min: usize| ((per_s * seconds).round() as usize).max(min);
        Some(Self {
            workload,
            race_mix: race_mix.to_vec(),
            race_seeds: count(race, 2),
            race_reps: reps,
            open_jobs: count(open, 2),
            closed_jobs: count(closed, CLIENTS),
        })
    }

    /// `(race-mix index, master seed)` of every race under workload seed
    /// `seed`, in run order.
    #[must_use]
    pub fn races(&self, seed: u64) -> Vec<(usize, u64)> {
        let mix = self.race_mix.len() as u64;
        (0..self.race_seeds as u64)
            .map(|k| ((k % mix) as usize, derive_seed(seed, Stream::Race, k)))
            .collect()
    }
}

/// Indices of round `round`'s share of `total` items.
#[must_use]
pub fn round_share(total: usize, round: usize) -> std::ops::Range<usize> {
    total * round / ROUNDS..total * (round + 1) / ROUNDS
}

/// Seed streams derived from the workload seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Master seeds of the race phase.
    Race = 1,
    /// Master seeds of service requests.
    Job = 2,
    /// Seeds of the recorded probe-trace walks.
    Replay = 3,
    /// Seeds of set-up warm-up work.
    Warmup = 4,
}

/// The `k`-th seed of `stream` under workload seed `seed` (SplitMix64
/// finalizer over the three inputs).
#[must_use]
pub fn derive_seed(seed: u64, stream: Stream, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64) << 56)
        .wrapping_add(k);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
