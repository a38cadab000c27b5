//! One timed run of a workload, and the metrics computed from a set of
//! runs.

use crate::stats::{beyond, median, ratio, LayerTimes};
use crate::workload::{Outcome, Workload};
use std::time::Instant;

/// The process-wide `extmem_wire` work counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireCounts {
    /// Payload buffer allocations.
    pub allocs: u64,
    /// Copy-on-write payload copies.
    pub cows: u64,
    /// Content digests computed.
    pub digests: u64,
    /// Frame-pool hits.
    pub pool_hits: u64,
    /// Frame-pool misses.
    pub pool_misses: u64,
}

impl WireCounts {
    /// The counters now.
    pub fn now() -> WireCounts {
        WireCounts {
            allocs: extmem_wire::bytes::alloc_count(),
            cows: extmem_wire::bytes::cow_count(),
            digests: extmem_wire::packet::digest_compute_count(),
            pool_hits: extmem_wire::pool::hit_count(),
            pool_misses: extmem_wire::pool::miss_count(),
        }
    }

    /// The counts accrued since `before`.
    pub fn since(self, before: WireCounts) -> WireCounts {
        WireCounts {
            allocs: self.allocs - before.allocs,
            cows: self.cows - before.cows,
            digests: self.digests - before.digests,
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
        }
    }
}

/// One build-and-run of a workload.
#[derive(Clone, Debug)]
pub struct Run {
    /// Ran behind the timing shims.
    pub traced: bool,
    /// Host seconds to build the topology (set-up phase), the median of
    /// [`SETUP_REPS`] builds.
    pub setup_s: f64,
    /// Host seconds from the first event to the settled condition.
    pub wall_s: f64,
    /// Results and checked failures.
    pub outcome: Outcome,
    /// Per-layer host time (traced runs only).
    pub layers: Option<LayerTimes>,
    /// `extmem_wire` work during the run phase.
    pub wire: WireCounts,
}

impl Run {
    /// Workload frames delivered per host second of the run phase.
    pub fn frames_per_s(&self) -> f64 {
        self.outcome.common.received as f64 / self.wall_s
    }
}

/// Builds per run; the run's set-up time is their median.
pub const SETUP_REPS: usize = 5;

/// Build `workload` with `frames` frames from `seed`, drive it to its
/// settled condition, and read the results.
pub fn run_once(workload: Workload, seed: u64, frames: u64, traced: bool) -> Run {
    // Set up several times and keep the median; the last build runs.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut build = || {
        let t = Instant::now();
        let inst = workload.build(seed, frames, traced);
        setups.push(t.elapsed().as_secs_f64());
        inst
    };
    for _ in 1..SETUP_REPS {
        drop(build());
    }
    let mut inst = build();
    let setup_s = median(&setups);
    let before = WireCounts::now();
    let t = Instant::now();
    let settled_at = inst.drive();
    let wall_s = t.elapsed().as_secs_f64();
    let wire = WireCounts::now().since(before);
    let layers = traced.then(|| inst.topo.layer_times(&inst.sim, wall_s));
    Run {
        traced,
        setup_s,
        wall_s,
        outcome: inst.outcome(settled_at),
        layers,
        wire,
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How a ratio was formed, printed next to it.
    pub base: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, base: String) -> Metric {
    assert!(value.is_finite(), "{name} is not finite ({base})");
    Metric {
        name,
        value,
        unit,
        base,
    }
}

/// The end-to-end metrics (untraced runs; host metrics are medians over
/// `runs`, simulated ones come from the first run, which every later run
/// repeats exactly).
pub fn end_to_end(runs: &[Run], peak_rss_mb: f64) -> Vec<Metric> {
    assert!(!runs.is_empty() && runs.iter().all(|r| !r.traced));
    let fps: Vec<f64> = runs.iter().map(Run::frames_per_s).collect();
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let o = &runs[0].outcome;
    let c = &o.common;
    let n = c.latency_samples;
    assert!(n > 0, "no frame was delivered");
    let p = c.latency;
    let tail = |q: f64| format!("{n} samples, {} beyond", beyond(n, q));
    let span_s = c.last_rx.as_secs_f64();
    let settle_us = o.settled_at.saturating_since(c.last_send).as_micros_f64();
    vec![
        metric(
            "frames_per_s",
            median(&fps),
            "frames/s",
            format!("median of {} runs, {} frames each", runs.len(), c.received),
        ),
        metric(
            "setup_s",
            median(&setups),
            "s",
            format!(
                "median over {} runs of the median of {SETUP_REPS} set-ups",
                runs.len()
            ),
        ),
        metric(
            "peak_rss_mb",
            peak_rss_mb,
            "MB",
            "VmHWM after the process's first run".into(),
        ),
        metric("lat_p50_us", p[0] as f64 / 1e6, "us", tail(0.5)),
        metric("lat_p99_us", p[1] as f64 / 1e6, "us", tail(0.99)),
        metric("lat_p999_us", p[2] as f64 / 1e6, "us", tail(0.999)),
        metric(
            "goodput_gbps",
            ratio(c.rx_bytes as f64 * 8.0, span_s) / 1e9,
            "Gb/s",
            format!(
                "{} B delivered in {:.3} ms from the first send",
                c.rx_bytes,
                span_s * 1e3
            ),
        ),
        metric(
            "settle_us",
            settle_us,
            "us",
            format!("last send at {:.3} us", c.last_send.as_micros_f64()),
        ),
        metric(
            "mem_ops_per_frame",
            ratio(c.mem_ops() as f64, c.sent as f64),
            "ops/frame",
            format!("{} server requests / {} frames", c.mem_ops(), c.sent),
        ),
    ]
}

/// The per-layer metrics from traced runs (`untraced` gives the overhead
/// base). Host times are per run, averaged over the traced runs; counts
/// come from the first traced run.
pub fn per_layer(traced: &[Run], untraced: &[Run]) -> Vec<Metric> {
    assert!(!traced.is_empty() && !untraced.is_empty());
    let n = traced.len() as f64;
    let mut lt = LayerTimes::default();
    for r in traced {
        lt.add(r.layers.as_ref().expect("traced run has layer times"));
    }
    let st = lt.self_times();
    let per_run = |s: f64| s / n;
    let o = &traced[0].outcome;
    let c = &o.common;
    let k = &o.core;
    let frames = c.sent as f64;
    let wire = median_wire(traced);
    let hop = c.hop_packets as f64;
    let ns_per = |s: f64, count: u64| ratio(per_run(s) * 1e9, count as f64);
    let fps_u = median(&untraced.iter().map(Run::frames_per_s).collect::<Vec<_>>());
    let fps_t = median(&traced.iter().map(Run::frames_per_s).collect::<Vec<_>>());
    let mem_ops = c.mem_ops();
    vec![
        metric(
            "sim.self_s",
            per_run(st.sim),
            "s",
            format!("{} workers x {:.4} s wall - node callbacks, per run", lt.workers, per_run(lt.wall_s)),
        ),
        metric("sim.ns_per_event", ns_per(st.sim, c.events), "ns", format!("/ {} events", c.events)),
        metric("sim.events_per_frame", ratio(c.events as f64, frames), "events/frame", format!("{} / {} frames", c.events, c.sent)),
        metric("sim.hop_packets_per_frame", ratio(hop, frames), "pkts/frame", format!("{} / {} frames", c.hop_packets, c.sent)),
        metric("sim.peak_queue_depth", c.sched.peak_depth as f64, "events", "high-water, merged over partitions".into()),
        metric("sim.cascades", c.sched.cascades as f64, "count", "wheel cascades".into()),
        metric("sim.dead_dispatches", c.sched.dead_dispatches as f64, "count", "cancelled timers reaped".into()),
        metric(
            "sim.slab_hit_rate",
            ratio(c.sched.slab_hits as f64, (c.sched.slab_hits + c.sched.slab_misses) as f64),
            "ratio",
            format!("{} hits / {} slab takes", c.sched.slab_hits, c.sched.slab_hits + c.sched.slab_misses),
        ),
        metric(
            "sim.cross_messages_per_frame",
            ratio(c.par.cross_messages as f64, frames),
            "msgs/frame",
            format!("{} / {} frames, {} partitions", c.par.cross_messages, c.sent, c.par.partitions),
        ),
        metric("sim.channel_stalls", c.par.channel_stalls as f64, "count", "first traced run".into()),
        metric(
            "wire.allocs_per_hop_packet",
            ratio(wire.allocs as f64, hop),
            "allocs/pkt",
            format!("{} / {} hop packets", wire.allocs, c.hop_packets),
        ),
        metric(
            "wire.cow_copies_per_hop_packet",
            ratio(wire.cows as f64, hop),
            "copies/pkt",
            format!("{} / {} hop packets", wire.cows, c.hop_packets),
        ),
        metric(
            "wire.digests_per_hop_packet",
            ratio(wire.digests as f64, hop),
            "digests/pkt",
            format!("{} / {} hop packets", wire.digests, c.hop_packets),
        ),
        metric(
            "wire.pool_hit_rate",
            ratio(wire.pool_hits as f64, (wire.pool_hits + wire.pool_misses) as f64),
            "ratio",
            format!("{} hits / {} takes", wire.pool_hits, wire.pool_hits + wire.pool_misses),
        ),
        metric("switch.self_s", per_run(st.switch), "s", "switch node time - program time, per run".into()),
        metric("switch.ns_per_rx_packet", ns_per(st.switch, c.rx_packets), "ns", format!("/ {} rx packets", c.rx_packets)),
        metric(
            "switch.pipeline_passes_per_frame",
            ratio(c.pipeline_passes as f64, frames),
            "passes/frame",
            format!("{} / {} frames", c.pipeline_passes, c.sent),
        ),
        metric("switch.tm_max_queue_bytes", c.tm_max_queue_bytes as f64, "B", "deepest egress queue".into()),
        metric("switch.tm_drops", c.tm_drops as f64, "count", "TM tail drops".into()),
        metric("core.self_s", per_run(st.core), "s", "pipeline-program callbacks, per run".into()),
        metric(
            "core.ns_per_pipeline_pass",
            ns_per(st.core, c.pipeline_passes),
            "ns",
            format!("/ {} pipeline passes", c.pipeline_passes),
        ),
        metric(
            "core.remote_ops_per_frame",
            ratio(k.remote_ops as f64, frames),
            "ops/frame",
            format!("{} channel ops / {} frames", k.remote_ops, c.sent),
        ),
        metric(
            "core.retransmit_frac",
            ratio(k.retransmits as f64, k.remote_ops as f64),
            "ratio",
            format!("{} retransmits / {} channel ops", k.retransmits, k.remote_ops),
        ),
        metric("core.timeouts", k.timeouts as f64, "count", "channel timeout rounds".into()),
        metric(
            "core.reads_per_miss",
            ratio(k.bucket_reads as f64, k.remote_lookups as f64),
            "reads/miss",
            format!("{} bucket reads / {} remote lookups", k.bucket_reads, k.remote_lookups),
        ),
        metric("core.relocation_moves", k.relocation_moves as f64, "count", "cuckoo displacements".into()),
        metric("core.ring_max_occupancy", k.ring_max_occupancy as f64, "entries", "packet-buffer ring high-water".into()),
        metric(
            "core.faa_merge_frac",
            ratio(k.faa_merged as f64, k.faa_updates as f64),
            "ratio",
            format!("{} merged / {} updates", k.faa_merged, k.faa_updates),
        ),
        metric("core.max_pending_slots", k.max_pending_slots as f64, "slots", "max over shards".into()),
        metric(
            "core.mirror_writes_per_update",
            ratio((k.mirror_writes + k.delta_replayed) as f64, k.faa_updates as f64),
            "writes/update",
            format!(
                "({} mirror WRITEs + {} replayed mirror deltas) / {} updates",
                k.mirror_writes, k.delta_replayed, k.faa_updates
            ),
        ),
        metric("core.delta_replayed", k.delta_replayed as f64, "count", "pool rollup".into()),
        metric("core.failovers", k.failovers as f64, "count", "pool rollup".into()),
        metric("core.reissued_ops", k.reissued_ops as f64, "count", "pool rollup".into()),
        metric("core.reseed_ops", k.reseed_ops as f64, "count", "pool rollup".into()),
        metric("rnic.self_s", per_run(st.rnic), "s", "memory-server NIC callbacks, per run".into()),
        metric("rnic.ns_per_request", ns_per(st.rnic, mem_ops), "ns", format!("/ {mem_ops} requests served")),
        metric(
            "rnic.bytes_per_frame",
            ratio(c.mem_bytes() as f64, frames),
            "B/frame",
            format!("{} B / {} frames", c.mem_bytes(), c.sent),
        ),
        metric(
            "rnic.duplicate_frac",
            ratio(c.rnic.duplicates as f64, mem_ops as f64),
            "ratio",
            format!("{} duplicates / {mem_ops} requests", c.rnic.duplicates),
        ),
        metric(
            "rnic.drops",
            c.nic_drops() as f64,
            "count",
            format!(
                "rx overflow {} + atomic overflow {} + out-of-sequence {} + malformed {} + outage {}",
                c.rnic.rx_overflow_drops,
                c.rnic.atomic_overflow_drops,
                c.rnic.out_of_sequence_drops,
                c.rnic.malformed_drops,
                c.rnic.outage_drops
            ),
        ),
        metric("apps.self_s", per_run(st.apps), "s", "generator + sink callbacks, per run".into()),
        metric("apps.ns_per_frame", ns_per(st.apps, c.sent), "ns", format!("/ {} frames", c.sent)),
        metric(
            "trace.overhead_frac",
            fps_u / fps_t - 1.0,
            "ratio",
            format!("untraced {fps_u:.0} / traced {fps_t:.0} frames/s - 1"),
        ),
    ]
}

/// Per-counter medians of the wire counts over `runs`.
fn median_wire(runs: &[Run]) -> WireCounts {
    let med = |f: fn(&WireCounts) -> u64| -> u64 {
        let v: Vec<f64> = runs.iter().map(|r| f(&r.wire) as f64).collect();
        median(&v).round() as u64
    };
    WireCounts {
        allocs: med(|w| w.allocs),
        cows: med(|w| w.cows),
        digests: med(|w| w.digests),
        pool_hits: med(|w| w.pool_hits),
        pool_misses: med(|w| w.pool_misses),
    }
}
