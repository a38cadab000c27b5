//! The benchmark's metric arithmetic: percentile selection, medians, ratios
//! and the host-time accounting identity. Kept free of simulator types so
//! the self-tests can check it against exact references.

/// Zero-based index of the nearest-rank `p` percentile in a sorted sample
/// of `n` values: the smallest rank whose cumulative share reaches `p`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&p), "percentile {p} outside [0, 1]");
    let rank = (p * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - 1 - nearest_rank(n, p)
}

/// Nearest-rank percentiles of `samples` for each `p` in `ps` (ascending),
/// found by repeated selection rather than a full sort. Reorders
/// `samples`.
pub fn percentiles(samples: &mut [u64], ps: &[f64]) -> Vec<u64> {
    assert!(
        ps.windows(2).all(|w| w[0] <= w[1]),
        "percentiles must be requested in ascending order"
    );
    let n = samples.len();
    let mut lo = 0;
    let mut out = Vec::with_capacity(ps.len());
    for &p in ps {
        let idx = nearest_rank(n, p);
        // Everything before `lo` is already <= the previous pick, so the
        // next rank only needs selecting within the tail.
        let (_, v, _) = samples[lo..].select_nth_unstable(idx - lo);
        out.push(*v);
        lo = idx;
    }
    out
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `num / den`, or 0 when the base is empty (the metric does not apply to
/// the workload; the printed base shows it).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Failed operations as a share of attempted frames.
pub fn fail_frac(failed: u64, attempted: u64) -> f64 {
    assert!(attempted > 0, "no frames attempted");
    failed as f64 / attempted as f64
}

/// Host time of one traced run, as measured from outside each layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTimes {
    /// Scheduler worker threads (partitions) that ran the simulation.
    pub workers: usize,
    /// Wall-clock seconds of the run phase.
    pub wall_s: f64,
    /// Seconds inside `SwitchNode` callbacks, program included.
    pub switch_total_s: f64,
    /// Seconds inside pipeline-program callbacks (the `core` layer).
    pub program_s: f64,
    /// Seconds inside `RnicNode` callbacks.
    pub rnic_s: f64,
    /// Seconds inside generator and sink callbacks.
    pub apps_s: f64,
}

/// Self time of each layer, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTimes {
    /// Engine: dispatch, links, queues, trace digest and (parallel) sync
    /// wait: everything outside node callbacks.
    pub sim: f64,
    /// Switch node minus its program.
    pub switch: f64,
    /// Pipeline programs: primitives, channels, pools, shards.
    pub core: f64,
    /// Memory-server NICs.
    pub rnic: f64,
    /// Generators and sinks.
    pub apps: f64,
}

impl LayerTimes {
    /// Fold another run's times into this one (same worker count).
    pub fn add(&mut self, o: &LayerTimes) {
        assert!(
            self.workers == 0 || self.workers == o.workers,
            "runs with different worker counts"
        );
        self.workers = o.workers;
        self.wall_s += o.wall_s;
        self.switch_total_s += o.switch_total_s;
        self.program_s += o.program_s;
        self.rnic_s += o.rnic_s;
        self.apps_s += o.apps_s;
    }

    /// Split the run into layer self times. By construction
    /// `sim + switch + core + rnic + apps == workers × wall`.
    pub fn self_times(&self) -> SelfTimes {
        let nodes = self.switch_total_s + self.rnic_s + self.apps_s;
        SelfTimes {
            sim: self.workers as f64 * self.wall_s - nodes,
            switch: self.switch_total_s - self.program_s,
            core: self.program_s,
            rnic: self.rnic_s,
            apps: self.apps_s,
        }
    }
}

impl SelfTimes {
    /// Sum over every layer.
    pub fn total(&self) -> f64 {
        self.sim + self.switch + self.core + self.rnic + self.apps
    }
}

/// A 64-bit mixer (SplitMix64 finalizer) for deriving independent seeds
/// from the command-line seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
