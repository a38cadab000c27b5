//! The workloads, what a run of one reports, and the settle loop they share.

use crate::topo::{Common, Topo};
use crate::{fabric, lookup, pktbuf};
use extmem_core::{ChannelStats, PoolStats};
use extmem_sim::Simulator;
use extmem_types::{Time, TimeDelta};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §4 packet buffer detouring MTU bursts over a lossy reliable channel.
    PktbufDetour,
    /// Cacheless one-RTT cuckoo lookup under insert/delete churn.
    LookupChurn,
    /// Sharded, replicated FaA state store on a leaf–spine fabric.
    ShardedFaaFabric,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PktbufDetour,
        Workload::LookupChurn,
        Workload::ShardedFaaFabric,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PktbufDetour => "pktbuf_detour",
            Workload::LookupChurn => "lookup_churn",
            Workload::ShardedFaaFabric => "sharded_faa_fabric",
        }
    }

    /// Parse a `--workload` value.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Frames a full-length run sends (all generators together).
    pub fn default_frames(self) -> u64 {
        match self {
            Workload::PktbufDetour => pktbuf::DEFAULT_FRAMES,
            Workload::LookupChurn => lookup::DEFAULT_FRAMES,
            Workload::ShardedFaaFabric => fabric::DEFAULT_FRAMES,
        }
    }

    /// Build the topology, registered regions and installed images: the
    /// set-up phase, everything before the first event.
    pub fn build(self, seed: u64, frames: u64, traced: bool) -> Instance {
        let topo = Topo::new(traced);
        match self {
            Workload::PktbufDetour => pktbuf::build(seed, frames, topo),
            Workload::LookupChurn => lookup::build(seed, frames, topo),
            Workload::ShardedFaaFabric => fabric::build(seed, frames, topo),
        }
    }
}

/// A built, not yet run, workload.
pub struct Instance {
    /// The simulation.
    pub sim: Simulator,
    /// Its nodes by role.
    pub topo: Topo,
    /// The workload's own run loop and checks.
    pub scenario: Box<dyn Scenario>,
}

impl Instance {
    /// Run the workload until its settled condition holds (the run phase).
    /// Returns the simulated instant it settled.
    pub fn drive(&mut self) -> Time {
        self.scenario.drive(&mut self.sim, &self.topo)
    }

    /// Read the results off a driven instance.
    pub fn outcome(&self, settled_at: Time) -> Outcome {
        self.scenario.outcome(&self.sim, &self.topo, settled_at)
    }
}

/// One workload's run loop and output checks.
pub trait Scenario {
    /// Run until settled (or the settle bound passes); the settled instant.
    fn drive(&mut self, sim: &mut Simulator, topo: &Topo) -> Time;

    /// Counters and checked failures after [`Scenario::drive`].
    fn outcome(&self, sim: &Simulator, topo: &Topo, settled_at: Time) -> Outcome;
}

/// What one run of a workload produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Counters every workload has.
    pub common: Common,
    /// The primitives' counters.
    pub core: CoreCounters,
    /// Failed operations by kind.
    pub failures: Vec<(&'static str, u64)>,
    /// When the workload's settled condition held.
    pub settled_at: Time,
}

impl Outcome {
    /// Failed operations of every kind.
    pub fn failed(&self) -> u64 {
        self.failures.iter().map(|&(_, n)| n).sum()
    }
}

/// Counters of the switch programs (the `core` layer). Fields a workload's
/// primitive does not have stay zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// RDMA ops the channels issued.
    pub remote_ops: u64,
    /// Channel retransmissions.
    pub retransmits: u64,
    /// Channel timeout rounds.
    pub timeouts: u64,
    /// Lookups that went to remote memory.
    pub remote_lookups: u64,
    /// Bucket READs those lookups issued.
    pub bucket_reads: u64,
    /// Residents displaced by cuckoo inserts.
    pub relocation_moves: u64,
    /// Most ring entries held at once.
    pub ring_max_occupancy: u64,
    /// FaA updates requested.
    pub faa_updates: u64,
    /// FaA updates merged into a pending slot instead of sent.
    pub faa_merged: u64,
    /// Most FaA slots pending at once (max over shards).
    pub max_pending_slots: u64,
    /// Writes fanned out to mirrors.
    pub mirror_writes: u64,
    /// Mirror deltas replayed on rejoin.
    pub delta_replayed: u64,
    /// Pool failovers.
    pub failovers: u64,
    /// Ops reissued to a new primary.
    pub reissued_ops: u64,
    /// Ops spent reseeding a rejoining server.
    pub reseed_ops: u64,
}

impl CoreCounters {
    /// Fold in a channel's counters.
    pub fn add_channel(&mut self, c: &ChannelStats) {
        self.remote_ops += c.ops_issued;
        self.retransmits += c.retransmits;
        self.timeouts += c.timeouts;
    }

    /// Fold in a pool's counters.
    pub fn add_pool(&mut self, p: &PoolStats) {
        self.mirror_writes += p.mirror_writes;
        self.delta_replayed += p.delta_replayed;
        self.failovers += p.failovers;
        self.reissued_ops += p.reissued_ops;
        self.reseed_ops += p.reseed_ops;
    }
}

/// Run `sim` to `first` in one go, then in `step` chunks until `settled`
/// holds or the clock passes `bound`. Returns whether it settled.
pub fn run_until_settled(
    sim: &mut Simulator,
    first: Time,
    step: TimeDelta,
    bound: Time,
    settled: impl Fn(&Simulator) -> bool,
) -> bool {
    sim.run_until(first);
    loop {
        if settled(sim) {
            return true;
        }
        if sim.now() >= bound {
            return false;
        }
        let next = sim.now() + step;
        sim.run_until(next);
    }
}
