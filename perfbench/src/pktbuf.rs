//! `pktbuf_detour`: several senders fan MTU frames into one 10 G drain port
//! at a mean load below its rate but with bursts above it: four Poisson
//! senders, plus eight line-rate bursts spread over the run, the last one
//! ending 5% after the senders' nominal window (many standard deviations of
//! their Poisson finish), so the final drain is the last burst's. The §4
//! packet buffer (`Mode::Auto`, reliable channel) detours the excess to one
//! memory server over a link that drops 0.1% of packets, and loads it back
//! as the queue drains, so the ring fills and drains once per burst.

use crate::stats::mix;
use crate::topo::{LatSink, Topo};
use crate::workload::{run_until_settled, CoreCounters, Instance, Outcome, Scenario};
use extmem_apps::workload::Arrival;
use extmem_apps::{host_endpoint, host_ip, host_mac, SinkNode, TrafficGenNode, WorkloadSpec};
use extmem_core::packet_buffer::Mode;
use extmem_core::{Fib, PacketBufferProgram, RdmaChannel, ReliableConfig};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{FaultSpec, LinkSpec, SimBuilder, Simulator};
use extmem_types::{ByteSize, FiveTuple, NodeId, PortId, Rate, Time, TimeDelta};

/// Frames a full run sends, over all senders.
pub const DEFAULT_FRAMES: u64 = 120_000;
/// Poisson senders sharing the drain port.
const SENDERS: usize = 4;
/// Line-rate bursts, one generator each; together they send 1/8 of the
/// frames.
const BURSTS: usize = 8;
/// Frame size: Ethernet MTU.
const FRAME: usize = 1500;
/// Ring entry: the entry header plus one MTU frame.
const ENTRY: u64 = 1516;
/// Ring capacity in entries (bounded ring memory on the server).
const RING_ENTRIES: u64 = 4096;
/// Mean offered load per Poisson sender: half the drain port together,
/// about 57% with the bursts.
const SENDER_GBPS: f64 = 1.25;
/// Drop probability of the switch–server link.
const LOSS: f64 = 0.001;
/// Ports (and host indices): senders, bursts, then the drain and the
/// server.
const DRAIN: PortId = PortId((SENDERS + BURSTS) as u16);
const SERVER: PortId = PortId((SENDERS + BURSTS) as u16 + 1);

fn sink_host() -> usize {
    DRAIN.raw() as usize
}

fn server_host() -> usize {
    SERVER.raw() as usize
}

/// Build the workload: `frames` frames in total, every seed derived from
/// `seed`.
pub fn build(seed: u64, frames: u64, mut topo: Topo) -> Instance {
    let mut nic = RnicNode::new("memsrv", RnicConfig::at(host_endpoint(server_host())));
    let channel = RdmaChannel::setup(
        extmem_apps::scenario::switch_endpoint(),
        SERVER,
        &mut nic,
        ByteSize::from_bytes(RING_ENTRIES * ENTRY),
    );
    let mut fib = Fib::new(8);
    fib.install(host_mac(sink_host()), DRAIN);
    let prog = PacketBufferProgram::new(
        fib,
        vec![channel],
        DRAIN,
        ENTRY,
        Mode::Auto {
            start_store_qbytes: 16 * 1024,
            resume_load_qbytes: 8 * 1024,
        },
        8,
        TimeDelta::from_micros(50),
    )
    .with_reliability(ReliableConfig {
        rto: TimeDelta::from_micros(50),
        ..Default::default()
    });

    let mut b = SimBuilder::new(mix(seed, 1));
    let switch = b.add_node(topo.switch("tor".into(), Box::new(prog)));
    topo.switches.push(switch);
    let burst = (frames / (8 * BURSTS as u64)).max(1);
    let per_sender = (frames - burst * BURSTS as u64)
        .div_ceil(SENDERS as u64)
        .max(1);
    // Nominal send window of the Poisson senders at their mean rate.
    let window =
        TimeDelta::from_secs_f64(per_sender as f64 * FRAME as f64 * 8.0 / (SENDER_GBPS * 1e9));
    let line = LinkSpec::testbed_40g();
    let mut kicks = Vec::new();
    for i in 0..SENDERS + BURSTS {
        let flow = FiveTuple::new(
            host_ip(i),
            host_ip(sink_host()),
            40_000 + i as u16,
            9_000,
            17,
        );
        let mut spec = WorkloadSpec::simple(
            host_mac(i),
            host_mac(sink_host()),
            flow,
            FRAME,
            line.rate,
            burst,
        );
        spec.flow_id_base = i as u32;
        let kick = if i < SENDERS {
            spec.offered = Some(Rate::from_gbps_f64(SENDER_GBPS));
            spec.arrival = Arrival::Poisson;
            spec.count = per_sender;
            spec.seed = mix(seed, 100 + i as u64);
            TimeDelta::ZERO
        } else {
            // Back to back at line rate; the k-th burst (from 1) ends at
            // k/BURSTS of 105% of the window.
            spec.offered = None;
            let k = (i - SENDERS) as u64 + 1;
            let end = TimeDelta::from_picos(window.picos() / 20 * 21 / BURSTS as u64 * k);
            let len = TimeDelta::from_picos(line.rate.time_to_send(FRAME).picos() * burst);
            TimeDelta::from_picos(end.picos().saturating_sub(len.picos()))
        };
        let gen = b.add_node(topo.wrap(Box::new(TrafficGenNode::new(format!("gen{i}"), spec))));
        b.connect(switch, PortId(i as u16), gen, PortId(0), line);
        topo.gens.push(gen);
        kicks.push((gen, kick));
    }
    let sink = b.add_node(topo.wrap(Box::new(LatSink::new(SinkNode::new("sink"), frames))));
    b.connect(
        switch,
        DRAIN,
        sink,
        PortId(0),
        LinkSpec::new(Rate::from_gbps(10), TimeDelta::from_nanos(300)),
    );
    topo.sinks.push(sink);
    let server = b.add_node(topo.wrap(Box::new(nic)));
    let mut lossy = LinkSpec::testbed_40g();
    lossy.faults = FaultSpec::drop(LOSS);
    b.connect(switch, SERVER, server, PortId(0), lossy);
    topo.nics.push(server);

    let mut sim = b.build();
    for (gen, kick) in kicks {
        sim.schedule_timer(gen, kick, TrafficGenNode::KICK_TOKEN);
    }
    Instance {
        sim,
        topo,
        scenario: Box::new(PktbufDetour {
            switch,
            window,
            expected: per_sender * SENDERS as u64 + burst * BURSTS as u64,
            settled: false,
        }),
    }
}

struct PktbufDetour {
    switch: NodeId,
    window: TimeDelta,
    expected: u64,
    settled: bool,
}

impl Scenario for PktbufDetour {
    /// Settled: every frame sent, the ring drained, and every frame
    /// delivered (or the bound passed). The settled instant is the last
    /// delivery, which follows the last ring load.
    fn drive(&mut self, sim: &mut Simulator, topo: &Topo) -> Time {
        let (switch, expected) = (self.switch, self.expected);
        let first = Time::ZERO + self.window;
        let bound = first + TimeDelta::from_millis(100);
        self.settled = run_until_settled(sim, first, TimeDelta::from_micros(10), bound, |sim| {
            topo.sent(sim) == expected
                && topo
                    .program::<PacketBufferProgram>(sim, switch)
                    .ring_occupancy()
                    == 0
                && topo.delivered(sim) == expected
        });
        topo.last_rx(sim)
    }

    fn outcome(&self, sim: &Simulator, topo: &Topo, settled_at: Time) -> Outcome {
        let common = topo.common(sim);
        let s = topo
            .program::<PacketBufferProgram>(sim, self.switch)
            .stats();
        let mut core = CoreCounters {
            ring_max_occupancy: s.max_ring_occupancy,
            ..CoreCounters::default()
        };
        core.add_channel(&s.channel);
        core.add_pool(&s.pool);
        let failures = vec![
            (
                "frames_lost",
                common.sent.saturating_sub(common.received + common.corrupt),
            ),
            ("frames_corrupt", common.corrupt),
            ("ring_entries_lost", s.lost_entries),
            (
                "ring_not_drained",
                s.stored.saturating_sub(s.loaded + s.lost_entries),
            ),
            ("channel_failed_over", s.channel.failed_over as u64),
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
