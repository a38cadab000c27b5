//! What the three workloads share: wrapping nodes for the traced run,
//! reaching them again through the wrappers, the latency-recording sink,
//! and the counters every workload reports.

use crate::shim::{TimedNode, TimedProgram};
use crate::stats::{percentiles, LayerTimes};
use extmem_apps::SinkNode;
use extmem_apps::TrafficGenNode;
use extmem_rnic::{RnicNode, RnicStats};
use extmem_sim::{Node, NodeCtx, Simulator};
use extmem_switch::{PipelineProgram, SwitchConfig, SwitchNode};
use extmem_types::{NodeId, PortId, Time};
use extmem_wire::Packet;

/// Percentiles the latency metrics report.
pub const LATENCY_PERCENTILES: [f64; 3] = [0.5, 0.99, 0.999];

/// Byte offset of the send timestamp in a workload frame: Ethernet (14) +
/// IPv4 (20) + UDP (8) + magic, flow id and sequence (10).
const SENT_AT_OFFSET: usize = 52;

/// A [`SinkNode`] that also keeps every one-way latency sample (send
/// timestamp → delivery, picoseconds) so the benchmark can select exact
/// percentiles. All validation and counting is the inner sink's.
pub struct LatSink {
    inner: SinkNode,
    /// Latency of every frame the inner sink accepted.
    pub samples: Vec<u64>,
}

impl LatSink {
    /// Record latency around `inner`, with room for `frames` samples up
    /// front (no regrowth during the run).
    pub fn new(inner: SinkNode, frames: u64) -> LatSink {
        LatSink {
            inner,
            samples: Vec::with_capacity(frames as usize),
        }
    }

    /// The wrapped sink's counters.
    pub fn sink(&self) -> &SinkNode {
        &self.inner
    }
}

impl Node for LatSink {
    fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, port: PortId, packet: Packet) {
        let sent_at = packet
            .as_slice()
            .get(SENT_AT_OFFSET..SENT_AT_OFFSET + 8)
            .map(|b| u64::from_be_bytes(b.try_into().expect("8-byte slice")));
        let before = self.inner.received;
        self.inner.on_packet(ctx, port, packet);
        if self.inner.received > before {
            let sent_at = sent_at.expect("an accepted frame carries its timestamp");
            self.samples.push(ctx.now().picos().saturating_sub(sent_at));
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Node ids by role, and whether they sit behind timing shims.
#[derive(Clone, Debug, Default)]
pub struct Topo {
    /// Nodes are [`TimedNode`]s and programs [`TimedProgram`]s.
    pub traced: bool,
    /// Every switch (leaves and spines).
    pub switches: Vec<NodeId>,
    /// Every memory-server NIC.
    pub nics: Vec<NodeId>,
    /// Every traffic generator.
    pub gens: Vec<NodeId>,
    /// Every sink ([`LatSink`]).
    pub sinks: Vec<NodeId>,
}

impl Topo {
    /// A topology whose nodes are timed when `traced`.
    pub fn new(traced: bool) -> Topo {
        Topo {
            traced,
            ..Topo::default()
        }
    }

    /// Wrap `node` for this run (a no-op untraced).
    pub fn wrap(&self, node: Box<dyn Node>) -> Box<dyn Node> {
        if self.traced {
            Box::new(TimedNode::new(node))
        } else {
            node
        }
    }

    /// A default-configured switch running `program`, wrapped for this run.
    pub fn switch(&self, name: String, program: Box<dyn PipelineProgram>) -> Box<dyn Node> {
        let program: Box<dyn PipelineProgram> = if self.traced {
            Box::new(TimedProgram::new(program))
        } else {
            program
        };
        self.wrap(Box::new(SwitchNode::new(
            name,
            SwitchConfig::default(),
            program,
        )))
    }

    /// A node, seen through its shim if traced.
    pub fn node<'a, T: Node>(&self, sim: &'a Simulator, id: NodeId) -> &'a T {
        if self.traced {
            sim.node::<TimedNode>(id).inner::<T>()
        } else {
            sim.node::<T>(id)
        }
    }

    /// A switch's program, seen through its shims if traced.
    pub fn program<'a, T: PipelineProgram>(&self, sim: &'a Simulator, switch: NodeId) -> &'a T {
        let sw = self.node::<SwitchNode>(sim, switch);
        if self.traced {
            sw.program::<TimedProgram>().inner::<T>()
        } else {
            sw.program::<T>()
        }
    }

    /// Mutable variant of [`Topo::program`].
    pub fn program_mut<'a, T: PipelineProgram>(
        &self,
        sim: &'a mut Simulator,
        switch: NodeId,
    ) -> &'a mut T {
        if self.traced {
            sim.node_mut::<TimedNode>(switch)
                .inner_mut::<SwitchNode>()
                .program_mut::<TimedProgram>()
                .inner_mut::<T>()
        } else {
            sim.node_mut::<SwitchNode>(switch).program_mut::<T>()
        }
    }

    /// Host time per layer for a traced run whose run phase took `wall_s`.
    pub fn layer_times(&self, sim: &Simulator, wall_s: f64) -> LayerTimes {
        assert!(self.traced, "layer times need the timing shims");
        let busy = |ids: &[NodeId]| -> f64 {
            ids.iter()
                .map(|&id| sim.node::<TimedNode>(id).busy_ns())
                .sum::<u64>() as f64
                * 1e-9
        };
        let program_ns: u64 = self
            .switches
            .iter()
            .map(|&id| {
                sim.node::<TimedNode>(id)
                    .inner::<SwitchNode>()
                    .program::<TimedProgram>()
                    .busy_ns()
            })
            .sum();
        LayerTimes {
            workers: sim.par_stats().partitions,
            wall_s,
            switch_total_s: busy(&self.switches),
            program_s: program_ns as f64 * 1e-9,
            rnic_s: busy(&self.nics),
            apps_s: busy(&self.gens) + busy(&self.sinks),
        }
    }

    /// Frames the generators have sent so far.
    pub fn sent(&self, sim: &Simulator) -> u64 {
        self.gens
            .iter()
            .map(|&g| self.node::<TrafficGenNode>(sim, g).sent)
            .sum()
    }

    /// Frames the sinks have seen so far, accepted or corrupt.
    pub fn delivered(&self, sim: &Simulator) -> u64 {
        self.sinks
            .iter()
            .map(|&s| {
                let sink = self.node::<LatSink>(sim, s).sink();
                sink.received + sink.corrupt
            })
            .sum()
    }

    /// The last delivery at any sink.
    pub fn last_rx(&self, sim: &Simulator) -> Time {
        self.sinks
            .iter()
            .map(|&s| self.node::<LatSink>(sim, s).sink().last_rx)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// The counters every workload reports.
    pub fn common(&self, sim: &Simulator) -> Common {
        let mut c = Common {
            events: sim.events_processed(),
            hop_packets: sim.packets_delivered(),
            digest: sim.trace_digest(),
            sched: sim.sched_stats(),
            par: sim.par_stats(),
            ..Common::default()
        };
        for &g in &self.gens {
            let gen = self.node::<TrafficGenNode>(sim, g);
            c.sent += gen.sent;
            c.last_send = c.last_send.max(gen.last_tx_at);
        }
        let mut latency = Vec::new();
        for &s in &self.sinks {
            let ls = self.node::<LatSink>(sim, s);
            let sink = ls.sink();
            c.received += sink.received;
            c.rx_bytes += sink.bytes;
            c.corrupt += sink.corrupt;
            c.dscp_mismatch += sink.dscp_mismatch;
            c.last_rx = c.last_rx.max(sink.last_rx);
            latency.extend_from_slice(&ls.samples);
        }
        c.latency_samples = latency.len();
        if !latency.is_empty() {
            let p = percentiles(&mut latency, &LATENCY_PERCENTILES);
            c.latency.copy_from_slice(&p);
        }
        let ports = SwitchConfig::default().ports;
        for &id in &self.switches {
            let sw = self.node::<SwitchNode>(sim, id);
            let st = sw.stats();
            c.rx_packets += st.rx_packets;
            c.pipeline_passes += st.pipeline_passes;
            c.tm_drops += st.tm_drops;
            for p in 0..ports {
                c.tm_max_queue_bytes = c.tm_max_queue_bytes.max(sw.tm().stats(PortId(p)).max_bytes);
            }
        }
        for &id in &self.nics {
            let s = self.node::<RnicNode>(sim, id).stats();
            add_rnic(&mut c.rnic, &s);
        }
        c
    }
}

fn add_rnic(acc: &mut RnicStats, s: &RnicStats) {
    acc.writes += s.writes;
    acc.write_bytes += s.write_bytes;
    acc.reads += s.reads;
    acc.read_bytes += s.read_bytes;
    acc.atomics += s.atomics;
    acc.ext_ops += s.ext_ops;
    acc.ext_op_bytes += s.ext_op_bytes;
    acc.duplicates += s.duplicates;
    acc.naks += s.naks;
    acc.rx_overflow_drops += s.rx_overflow_drops;
    acc.atomic_overflow_drops += s.atomic_overflow_drops;
    acc.malformed_drops += s.malformed_drops;
    acc.out_of_sequence_drops += s.out_of_sequence_drops;
    acc.cpu_packets += s.cpu_packets;
    acc.outage_drops += s.outage_drops;
}

/// Counters read off the nodes every workload has.
#[derive(Clone, Debug, Default)]
pub struct Common {
    /// Simulator events processed.
    pub events: u64,
    /// Per-hop packet deliveries over every link.
    pub hop_packets: u64,
    /// Trace digest.
    pub digest: u64,
    /// Scheduler counters.
    pub sched: extmem_sim::SchedStats,
    /// Parallel-engine counters.
    pub par: extmem_sim::ParStats,
    /// Frames the generators sent (the attempted frames).
    pub sent: u64,
    /// When the last frame finished leaving its generator.
    pub last_send: Time,
    /// Frames the sinks accepted.
    pub received: u64,
    /// Frame bytes the sinks accepted.
    pub rx_bytes: u64,
    /// Frames the sinks rejected as corrupt.
    pub corrupt: u64,
    /// Frames with the wrong DSCP mark.
    pub dscp_mismatch: u64,
    /// Last delivery at any sink.
    pub last_rx: Time,
    /// One-way latency at each of [`LATENCY_PERCENTILES`], picoseconds.
    pub latency: [u64; 3],
    /// Latency samples behind `latency`.
    pub latency_samples: usize,
    /// Packets received by all switches.
    pub rx_packets: u64,
    /// Pipeline passes over all switches.
    pub pipeline_passes: u64,
    /// TM tail drops over all switches.
    pub tm_drops: u64,
    /// Deepest egress queue seen on any switch port.
    pub tm_max_queue_bytes: u64,
    /// Memory-server NIC counters summed over every server.
    pub rnic: RnicStats,
}

impl Common {
    /// Requests served by the memory servers, retransmits and duplicates
    /// included.
    pub fn mem_ops(&self) -> u64 {
        let r = &self.rnic;
        r.writes + r.reads + r.atomics + r.ext_ops + r.duplicates + r.naks
    }

    /// Bytes the memory servers moved: WRITE and READ payload, remote-op
    /// responses and 8 bytes per atomic.
    pub fn mem_bytes(&self) -> u64 {
        let r = &self.rnic;
        r.write_bytes + r.read_bytes + r.ext_op_bytes + 8 * r.atomics
    }

    /// NIC drops: overflow, out-of-sequence, malformed and outage.
    pub fn nic_drops(&self) -> u64 {
        let r = &self.rnic;
        r.rx_overflow_drops
            + r.atomic_overflow_drops
            + r.out_of_sequence_drops
            + r.malformed_drops
            + r.outage_drops
    }
}
