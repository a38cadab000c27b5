//! `sharded_faa_fabric`: a 4-leaf / 2-spine fabric with the consistent-hash
//! [`ShardedStateStoreProgram`] on every leaf (two active shards plus a
//! spare activated mid-run, each shard a 2-replica pool). Each pod sends
//! 256 B frames drawn Zipf(1.05) from a 2^20-flow synthesized population
//! across the spines to the next pod, on the parallel engine with two
//! workers. One leaf's shard-0 primary crashes and restarts after a fixed
//! outage inside the pool's probe budget.

use crate::stats::mix;
use crate::topo::{LatSink, Topo};
use crate::workload::{run_until_settled, CoreCounters, Instance, Outcome, Scenario};
use extmem_apps::workload::Arrival;
use extmem_apps::{
    host_endpoint, host_ip, host_mac, FlowPick, FlowSet, SinkNode, TrafficGenNode, WorkloadSpec,
};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::state_store::read_remote_counters;
use extmem_core::{Fib, L2Program, PoolConfig, RdmaChannel, ShardedStateStoreProgram};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{
    with_sched_backend, FabricSpec, LinkSpec, Node, SchedBackend, SimBuilder, Simulator,
};
use extmem_types::{ByteSize, NodeId, Rate, Rkey, Time, TimeDelta};

/// Frames a full run sends, over all pods.
pub const DEFAULT_FRAMES: u64 = 80_000;
/// Scheduler worker threads.
const WORKERS: usize = 2;
const LEAVES: usize = 4;
const SPINES: usize = 2;
const REPLICAS: usize = 2;
/// Shards per leaf; the last is the spare.
const SHARDS: u32 = 3;
const SPARE: u32 = SHARDS - 1;
const COUNTERS: u64 = 256;
/// Hosts per leaf: generator, sink, then every shard's replicas.
const HOSTS_PER_LEAF: usize = 2 + SHARDS as usize * REPLICAS;
/// Synthesized flow population per generator.
const FLOWS: usize = 1 << 20;
const FRAME: usize = 256;
/// Mean offered load per pod generator: 60% of its 25 G uplink, so the
/// median frame queues behind Poisson bursts, and each leaf's updates
/// overrun its shards' atomic rate and accumulate locally.
const GEN_GBPS: u64 = 15;
/// Pool health: declare a server down after two timeout rounds, then probe
/// every 100 µs, at most 64 times (a 6.4 ms rejoin budget).
const PROBE_INTERVAL: TimeDelta = TimeDelta::from_micros(100);
const MAX_PROBES: u32 = 64;
/// Leaf 0's shard-0 primary crashes a tenth into the send window (so the
/// pool detects it through live traffic at any run length) and restarts
/// after a fixed outage well inside the probe budget.
const OUTAGE: TimeDelta = TimeDelta::from_micros(500);

fn host(l: usize, i: usize) -> usize {
    l * HOSTS_PER_LEAF + i
}

/// Host index of `(shard, replica)` within its pod.
fn server_index(shard: u32, replica: usize) -> usize {
    2 + shard as usize * REPLICAS + replica
}

/// Build the workload: `frames` frames over all pods, every seed derived
/// from `seed`.
pub fn build(seed: u64, frames: u64, topo: Topo) -> Instance {
    with_sched_backend(SchedBackend::Parallel(WORKERS), || {
        build_parallel(seed, frames, topo)
    })
}

fn build_parallel(seed: u64, frames: u64, mut topo: Topo) -> Instance {
    assert!(OUTAGE.picos() < MAX_PROBES as u64 * PROBE_INTERVAL.picos());
    let region = ByteSize::from_bytes(COUNTERS * 8);
    let leaf_endpoint = |l: usize| extmem_wire::roce::RoceEndpoint {
        mac: extmem_wire::MacAddr::local(200 + l as u32),
        ip: 0x0a00_0100 + l as u32,
    };
    let spec = FabricSpec {
        leaves: LEAVES,
        spines: SPINES,
        hosts_per_leaf: HOSTS_PER_LEAF,
        host_link: LinkSpec::asymmetric(
            Rate::from_gbps(40),
            Rate::from_gbps(25),
            TimeDelta::from_nanos(300),
        ),
        up_link: LinkSpec::testbed_40g(),
    };

    let mut progs = Vec::new();
    let mut nics: Vec<Vec<Option<RnicNode>>> = Vec::new();
    let mut keys = Vec::new();
    for l in 0..LEAVES {
        let mut pod_nics: Vec<Option<RnicNode>> = vec![None, None];
        let mut shards = Vec::new();
        let mut pod_keys = Vec::new();
        for shard in 0..SHARDS {
            let mut channels = Vec::new();
            let mut shard_keys = Vec::new();
            for r in 0..REPLICAS {
                let i = server_index(shard, r);
                let mut nic = RnicNode::new(
                    format!("mem{l}s{shard}r{r}"),
                    RnicConfig::at(host_endpoint(host(l, i))),
                );
                let ch = RdmaChannel::setup(leaf_endpoint(l), spec.host_port(i), &mut nic, region);
                shard_keys.push((ch.rkey, ch.base_va));
                channels.push(ch);
                pod_nics.push(Some(nic));
            }
            pod_keys.push(shard_keys);
            let engine = FaaEngine::replicated(
                channels,
                FaaConfig {
                    reliable: true,
                    rto: TimeDelta::from_micros(50),
                    ..Default::default()
                },
                PoolConfig {
                    down_threshold: 2,
                    probe_interval: PROBE_INTERVAL,
                    max_probes: Some(MAX_PROBES),
                    reseed_atomics: true,
                    ..Default::default()
                },
            );
            shards.push((shard, engine, shard != SPARE));
        }
        keys.push(pod_keys);
        let next = (l + 1) % LEAVES;
        let mut fib = Fib::new(8);
        fib.install(host_mac(host(l, 1)), spec.host_port(1));
        fib.install(host_mac(host(next, 1)), spec.uplink_port(next % SPINES));
        progs.push(Some(ShardedStateStoreProgram::new(
            fib,
            shards,
            64,
            TimeDelta::from_micros(20),
        )));
        nics.push(pod_nics);
    }

    let per_gen = frames.div_ceil(LEAVES as u64);
    let mut b = SimBuilder::new(mix(seed, 3));
    let fabric = spec.build(
        &mut b,
        |l| {
            let prog = progs[l].take().expect("leaf program built once");
            topo.switch(format!("leaf{l}"), Box::new(prog))
        },
        |s| {
            let mut prog = L2Program::new(8);
            for j in 0..LEAVES {
                prog.fib.install(host_mac(host(j, 1)), spec.spine_port(j));
            }
            topo.switch(format!("spine{s}"), Box::new(prog))
        },
        |l, i| -> Box<dyn Node> {
            match i {
                0 => {
                    let next = (l + 1) % LEAVES;
                    let spec = WorkloadSpec {
                        src_mac: host_mac(host(l, 0)),
                        dst_mac: host_mac(host(next, 1)),
                        flows: FlowSet::synth(
                            FLOWS,
                            0x0a80_0000 + ((l as u32) << 8),
                            host_ip(host(next, 1)),
                            9_000,
                        ),
                        pick: FlowPick::Zipf(1.05),
                        frame_len: FRAME,
                        offered: Some(Rate::from_gbps(GEN_GBPS)),
                        arrival: Arrival::Poisson,
                        count: per_gen,
                        seed: mix(seed, 300 + l as u64),
                        flow_id_base: (l as u32) << 24,
                    };
                    topo.wrap(Box::new(TrafficGenNode::new(format!("gen{l}"), spec)))
                }
                1 => topo.wrap(Box::new(LatSink::new(
                    SinkNode::coarse(format!("sink{l}")),
                    per_gen,
                ))),
                _ => topo.wrap(Box::new(nics[l][i].take().expect("server NIC built once"))),
            }
        },
    );
    topo.switches.extend(&fabric.leaves);
    topo.switches.extend(&fabric.spines);
    for pod in &fabric.hosts {
        topo.gens.push(pod[0]);
        topo.sinks.push(pod[1]);
        topo.nics.extend(&pod[2..]);
    }

    let mut sim = b.build();
    for &g in &topo.gens {
        sim.schedule_timer(g, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
    }
    let victim = fabric.hosts[0][server_index(0, 0)];
    let window =
        TimeDelta::from_picos(Rate::from_gbps(GEN_GBPS).time_to_send(FRAME).picos() * per_gen);
    let crash_at = TimeDelta::from_picos(window.picos() / 10);
    sim.schedule_crash(victim, crash_at);
    sim.schedule_restart(victim, crash_at + OUTAGE);
    Instance {
        sim,
        topo,
        scenario: Box::new(ShardedFaaFabric {
            leaves: fabric.leaves,
            servers: fabric.hosts.iter().map(|pod| pod[2..].to_vec()).collect(),
            keys,
            window,
            restart_at: Time::ZERO + crash_at + OUTAGE,
            expected: per_gen * LEAVES as u64,
            settled: false,
        }),
    }
}

struct ShardedFaaFabric {
    leaves: Vec<NodeId>,
    /// `[leaf][server_index - 2]`.
    servers: Vec<Vec<NodeId>>,
    /// `[leaf][shard][replica]`.
    keys: Vec<Vec<Vec<(Rkey, u64)>>>,
    window: TimeDelta,
    /// When the crashed primary powers back up.
    restart_at: Time,
    expected: u64,
    settled: bool,
}

impl Scenario for ShardedFaaFabric {
    /// Spares activate at the middle of the nominal send window. Settled:
    /// the crashed primary restarted, every frame sent and delivered, and
    /// every leaf `is_settled()` (quiescent, replicas synced), checked
    /// every 10 µs.
    fn drive(&mut self, sim: &mut Simulator, topo: &Topo) -> Time {
        sim.run_until(Time::ZERO + TimeDelta::from_picos(self.window.picos() / 2));
        for &leaf in &self.leaves {
            topo.program_mut::<ShardedStateStoreProgram>(sim, leaf)
                .activate_shard(SPARE, 1 << 16);
        }
        let first = Time::ZERO + self.window;
        let bound = first + OUTAGE + TimeDelta::from_millis(50);
        let (leaves, expected, restart_at) = (&self.leaves, self.expected, self.restart_at);
        self.settled = run_until_settled(sim, first, TimeDelta::from_micros(10), bound, |sim| {
            sim.now() >= restart_at
                && topo.sent(sim) == expected
                && topo.delivered(sim) == expected
                && leaves.iter().all(|&l| {
                    topo.program::<ShardedStateStoreProgram>(sim, l)
                        .is_settled()
                })
        });
        sim.now()
    }

    fn outcome(&self, sim: &Simulator, topo: &Topo, settled_at: Time) -> Outcome {
        let common = topo.common(sim);
        let mut core = CoreCounters::default();
        let (mut counter_error, mut degraded) = (0u64, 0u64);
        for (l, &leaf) in self.leaves.iter().enumerate() {
            let prog = topo.program::<ShardedStateStoreProgram>(sim, leaf);
            core.add_channel(&prog.channel_rollup());
            core.add_pool(&prog.pool_rollup());
            for s in prog.shard_stats() {
                core.faa_updates += s.faa.updates;
                core.faa_merged += s.faa.merged;
                core.max_pending_slots = core.max_pending_slots.max(s.faa.max_pending_slots);
            }
            degraded += prog.is_degraded() as u64;
            for shard in 0..SHARDS {
                let mut oracle = vec![0u64; COUNTERS as usize];
                for (&(s, slot), &v) in &prog.oracle {
                    if s == shard {
                        oracle[slot as usize] += v;
                    }
                }
                for r in 0..REPLICAS {
                    let (rkey, base_va) = self.keys[l][shard as usize][r];
                    let nic =
                        topo.node::<RnicNode>(sim, self.servers[l][server_index(shard, r) - 2]);
                    let remote = read_remote_counters(nic, rkey, base_va, COUNTERS);
                    counter_error += remote
                        .iter()
                        .zip(&oracle)
                        .map(|(a, b)| a.abs_diff(*b))
                        .sum::<u64>();
                }
            }
        }
        let failures = vec![
            (
                "frames_lost",
                common.sent.saturating_sub(common.received + common.corrupt),
            ),
            ("frames_corrupt", common.corrupt),
            ("counter_units_off_oracle", counter_error),
            ("leaves_degraded", degraded),
            ("unsettled", !self.settled as u64),
        ];
        Outcome {
            common,
            core,
            failures,
            settled_at,
        }
    }
}
