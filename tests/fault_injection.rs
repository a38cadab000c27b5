//! Fault-injection integration tests: the §7 "RDMA packet drops"
//! discussion, exercised end to end.
//!
//! * reliable packet buffer: lost RDMA packets are retransmitted — exact
//!   recovery, no duplicates, no reordering, no wedge,
//! * best-effort state store: drops cause undercount,
//! * reliable state store (§7 extension): exact counts despite loss,
//! * corruption: bad ICRC frames die at the NIC, never reach memory.

use extmem_apps::scenario::{host_endpoint, host_ip, host_mac, switch_endpoint};
use extmem_apps::workload::{SinkNode, TrafficGenNode, WorkloadSpec};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::packet_buffer::{Mode, PacketBufferProgram};
use extmem_core::state_store::read_remote_counters;
use extmem_core::{Fib, RdmaChannel, ShardedStateStoreProgram};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{FaultSpec, LinkSpec, SimBuilder, Simulator};
use extmem_types::{ByteSize, FiveTuple, NodeId, PortId, Rate, Time, TimeDelta};

struct LossyRig {
    sim: Simulator,
    sink: NodeId,
    switch: NodeId,
    server: NodeId,
}

fn lossy_counting_rig(faa: FaaConfig, faults: FaultSpec, seed: u64) -> (LossyRig, u64, u64) {
    let counters = 256u64;
    let mut nic = RnicNode::new("memsrv", RnicConfig::at(host_endpoint(2)));
    let channel = RdmaChannel::setup(
        switch_endpoint(),
        PortId(2),
        &mut nic,
        ByteSize::from_bytes(counters * 8),
    );
    let rkey = channel.rkey.raw() as u64;
    let base = channel.base_va;
    let mut fib = Fib::new(8);
    fib.install(host_mac(0), PortId(0));
    fib.install(host_mac(1), PortId(1));
    let engine = FaaEngine::new(channel, faa);
    let prog =
        ShardedStateStoreProgram::new(fib, vec![(0, engine, true)], 1, TimeDelta::from_micros(30));

    let mut b = SimBuilder::new(seed);
    let switch = b.add_node(Box::new(extmem_switch::SwitchNode::new(
        "tor",
        extmem_switch::SwitchConfig::default(),
        Box::new(prog),
    )));
    let gen = b.add_node(Box::new(TrafficGenNode::new(
        "gen",
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            FiveTuple::new(host_ip(0), host_ip(1), 5000, 9000, 17),
            256,
            Rate::from_gbps(10),
            600,
        ),
    )));
    let sink = b.add_node(Box::new(SinkNode::new("sink")));
    let link = LinkSpec::testbed_40g();
    b.connect(switch, PortId(0), gen, PortId(0), link);
    b.connect(switch, PortId(1), sink, PortId(0), link);
    let server = b.add_node(Box::new(nic));
    let mut lossy = LinkSpec::testbed_40g();
    lossy.faults = faults;
    b.connect(switch, PortId(2), server, PortId(0), lossy);
    let mut sim = b.build();
    sim.schedule_timer(gen, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
    (
        LossyRig {
            sim,
            sink,
            switch,
            server,
        },
        rkey,
        base,
    )
}

#[test]
fn reliable_statestore_is_exact_under_drops() {
    let (mut rig, rkey, base) = lossy_counting_rig(
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(40),
            ..Default::default()
        },
        FaultSpec {
            drop_prob: 0.05,
            corrupt_prob: 0.0,
            ..FaultSpec::NONE
        },
        404,
    );
    rig.sim.run_until(Time::from_millis(30));
    let sw: &extmem_switch::SwitchNode = rig.sim.node(rig.switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let s = prog.engine(0).stats();
    assert!(s.retransmits > 0, "expected recovery activity: {s:?}");
    assert!(prog.is_quiescent(), "must settle: {s:?}");
    let nic = rig.sim.node::<RnicNode>(rig.server);
    let remote: u64 = read_remote_counters(nic, extmem_types::Rkey(rkey as u32), base, 256)
        .iter()
        .sum();
    let truth: u64 = prog.oracle.values().sum();
    assert_eq!(remote, truth, "reliable mode must be exact");
    // Forwarding untouched by the telemetry channel loss.
    assert_eq!(rig.sim.node::<SinkNode>(rig.sink).received, 600);
}

#[test]
fn best_effort_statestore_undercounts_under_drops() {
    let (mut rig, rkey, base) = lossy_counting_rig(
        FaaConfig::default(),
        FaultSpec {
            drop_prob: 0.08,
            corrupt_prob: 0.0,
            ..FaultSpec::NONE
        },
        405,
    );
    rig.sim.run_until(Time::from_millis(30));
    let sw: &extmem_switch::SwitchNode = rig.sim.node(rig.switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let nic = rig.sim.node::<RnicNode>(rig.server);
    let remote: u64 = read_remote_counters(nic, extmem_types::Rkey(rkey as u32), base, 256)
        .iter()
        .sum();
    let truth: u64 = prog.oracle.values().sum();
    assert!(
        remote < truth,
        "8% loss must undercount (remote {remote} vs truth {truth})"
    );
    assert!(prog.engine(0).stats().lost_updates > 0 || prog.engine(0).stats().naks > 0);
}

#[test]
fn best_effort_statestore_never_wedges_under_heavy_loss() {
    // Regression: lost AtomicAcks used to pin the outstanding window shut.
    // The RTO-based aging must keep the engine flowing and eventually
    // quiescent even at 20% loss.
    let (mut rig, _rkey, _base) = lossy_counting_rig(
        FaaConfig {
            rto: TimeDelta::from_micros(60),
            ..Default::default()
        },
        FaultSpec {
            drop_prob: 0.2,
            corrupt_prob: 0.0,
            ..FaultSpec::NONE
        },
        407,
    );
    rig.sim.run_until(Time::from_millis(40));
    let sw: &extmem_switch::SwitchNode = rig.sim.node(rig.switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let s = prog.engine(0).stats();
    assert!(
        prog.is_quiescent(),
        "engine wedged: in_transit={} stats={s:?}",
        prog.engine(0).in_transit()
    );
    assert!(s.lost_updates > 0, "20% loss must lose something: {s:?}");
    // Forwarding untouched.
    assert_eq!(rig.sim.node::<SinkNode>(rig.sink).received, 600);
}

#[test]
fn corruption_dies_at_the_nic() {
    let (mut rig, rkey, base) = lossy_counting_rig(
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(40),
            ..Default::default()
        },
        FaultSpec {
            drop_prob: 0.0,
            corrupt_prob: 0.05,
            ..FaultSpec::NONE
        },
        406,
    );
    rig.sim.run_until(Time::from_millis(30));
    let nic = rig.sim.node::<RnicNode>(rig.server);
    assert!(
        nic.stats().malformed_drops > 0,
        "corruption should hit the ICRC"
    );
    assert_eq!(
        nic.stats().cpu_packets,
        0,
        "corrupt frames must not punt to the CPU"
    );
    // Reliability recovers the corrupted requests too.
    let sw: &extmem_switch::SwitchNode = rig.sim.node(rig.switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let remote: u64 = read_remote_counters(nic, extmem_types::Rkey(rkey as u32), base, 256)
        .iter()
        .sum();
    let truth: u64 = prog.oracle.values().sum();
    assert_eq!(remote, truth, "reliable mode must absorb corruption");
}

#[test]
fn packet_buffer_never_duplicates_or_reorders_under_loss() {
    for seed in [1u64, 77, 901] {
        let mut nic = RnicNode::new("memsrv", RnicConfig::at(host_endpoint(2)));
        let channel =
            RdmaChannel::setup(switch_endpoint(), PortId(2), &mut nic, ByteSize::from_mb(2));
        let mut fib = Fib::new(8);
        fib.install(host_mac(0), PortId(0));
        fib.install(host_mac(1), PortId(1));
        let prog = PacketBufferProgram::new(
            fib,
            vec![channel],
            PortId(1),
            2048,
            Mode::Auto {
                start_store_qbytes: 4096,
                resume_load_qbytes: 2048,
            },
            8,
            TimeDelta::from_micros(50),
        );
        let mut b = SimBuilder::new(seed);
        let switch = b.add_node(Box::new(extmem_switch::SwitchNode::new(
            "tor",
            extmem_switch::SwitchConfig::default(),
            Box::new(prog),
        )));
        let gen = b.add_node(Box::new(TrafficGenNode::new(
            "gen",
            WorkloadSpec::simple(
                host_mac(0),
                host_mac(1),
                FiveTuple::new(host_ip(0), host_ip(1), 5000, 9000, 17),
                800,
                Rate::from_gbps(30),
                400,
            ),
        )));
        let sink = b.add_node(Box::new(SinkNode::new("sink")));
        b.connect(switch, PortId(0), gen, PortId(0), LinkSpec::testbed_40g());
        b.connect(
            switch,
            PortId(1),
            sink,
            PortId(0),
            LinkSpec::new(Rate::from_gbps(10), TimeDelta::from_nanos(300)),
        );
        let server = b.add_node(Box::new(nic));
        let mut lossy = LinkSpec::testbed_40g();
        lossy.faults = FaultSpec {
            drop_prob: 0.04,
            corrupt_prob: 0.02,
            ..FaultSpec::NONE
        };
        b.connect(switch, PortId(2), server, PortId(0), lossy);
        let mut sim = b.build();
        sim.schedule_timer(gen, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
        sim.run_until(Time::from_millis(50));

        let sink = sim.node::<SinkNode>(sink);
        assert_eq!(
            sink.corrupt, 0,
            "seed {seed}: corrupted payload leaked through"
        );
        assert_eq!(sink.total_reorders(), 0, "seed {seed}: order violated");
        assert!(
            sink.received > 200,
            "seed {seed}: channel collapsed ({})",
            sink.received
        );
        let sw: &extmem_switch::SwitchNode = sim.node(switch);
        let s = sw.program::<PacketBufferProgram>().stats();
        assert_eq!(
            s.lost_entries, 0,
            "seed {seed}: reliable channel must lose nothing: {s:?}"
        );
        assert_eq!(s.loaded, s.stored, "seed {seed}: entries unaccounted: {s:?}");
    }
}

#[test]
fn server_outage_and_recovery_with_reliable_statestore() {
    // §7 "handling switch and server failures": the memory server goes dark
    // for 2ms mid-run. Reliable mode keeps retransmitting; once the server
    // recovers, every count lands and the store is exact again.
    let counters = 128u64;
    let mut nic = RnicNode::new(
        "memsrv",
        RnicConfig {
            outage: Some((Time::from_millis(1), Time::from_millis(3))),
            ..RnicConfig::at(host_endpoint(2))
        },
    );
    let channel = RdmaChannel::setup(
        switch_endpoint(),
        PortId(2),
        &mut nic,
        ByteSize::from_bytes(counters * 8),
    );
    let rkey = channel.rkey;
    let base = channel.base_va;
    let mut fib = Fib::new(8);
    fib.install(host_mac(0), PortId(0));
    fib.install(host_mac(1), PortId(1));
    let engine = FaaEngine::new(
        channel,
        FaaConfig {
            reliable: true,
            rto: TimeDelta::from_micros(100),
            ..Default::default()
        },
    );
    let prog =
        ShardedStateStoreProgram::new(fib, vec![(0, engine, true)], 1, TimeDelta::from_micros(50));

    let mut b = SimBuilder::new(777);
    let switch = b.add_node(Box::new(extmem_switch::SwitchNode::new(
        "tor",
        extmem_switch::SwitchConfig::default(),
        Box::new(prog),
    )));
    let gen = b.add_node(Box::new(TrafficGenNode::new(
        "gen",
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            FiveTuple::new(host_ip(0), host_ip(1), 5000, 9000, 17),
            256,
            Rate::from_gbps(2),
            2_000, // spans the outage: 2000 * 256B @ 2G = ~2ms of traffic
        ),
    )));
    let sink = b.add_node(Box::new(SinkNode::new("sink")));
    let link = LinkSpec::testbed_40g();
    b.connect(switch, PortId(0), gen, PortId(0), link);
    b.connect(switch, PortId(1), sink, PortId(0), link);
    let server = b.add_node(Box::new(nic));
    b.connect(switch, PortId(2), server, PortId(0), link);
    let mut sim = b.build();
    sim.schedule_timer(gen, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);

    // During the outage, the remote store is frozen while truth advances.
    sim.run_until(Time::from_micros(2_500));
    {
        let sw: &extmem_switch::SwitchNode = sim.node(switch);
        let prog = sw.program::<ShardedStateStoreProgram>();
        let nic = sim.node::<RnicNode>(server);
        assert!(nic.stats().outage_drops > 0, "outage never bit");
        let remote: u64 = read_remote_counters(nic, rkey, base, counters).iter().sum();
        let truth: u64 = prog.oracle.values().sum();
        assert!(remote < truth, "store should lag during the outage");
    }

    // After recovery + retransmissions, exactness is restored.
    sim.run_until(Time::from_millis(30));
    let sw: &extmem_switch::SwitchNode = sim.node(switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let s = prog.engine(0).stats();
    assert!(s.retransmits > 0, "recovery must retransmit: {s:?}");
    assert!(prog.is_quiescent(), "must settle after recovery: {s:?}");
    let nic = sim.node::<RnicNode>(server);
    let remote: u64 = read_remote_counters(nic, rkey, base, counters).iter().sum();
    let truth: u64 = prog.oracle.values().sum();
    assert_eq!(
        remote, truth,
        "counts must converge after the server returns"
    );
    // Forwarding was never disturbed by the telemetry outage.
    assert_eq!(sim.node::<SinkNode>(sink).received, 2_000);
}

#[test]
fn server_outage_packet_buffer_recovers_exactly() {
    // A short outage (well inside the retry budget) is invisible to the
    // payload stream: the reliable channel retransmits what was in flight
    // and every detoured packet is eventually released in order.
    let mut nic = RnicNode::new(
        "memsrv",
        RnicConfig {
            outage: Some((Time::from_micros(200), Time::from_micros(600))),
            ..RnicConfig::at(host_endpoint(2))
        },
    );
    let channel = RdmaChannel::setup(switch_endpoint(), PortId(2), &mut nic, ByteSize::from_mb(2));
    let mut fib = Fib::new(8);
    fib.install(host_mac(0), PortId(0));
    fib.install(host_mac(1), PortId(1));
    let prog = PacketBufferProgram::new(
        fib,
        vec![channel],
        PortId(1),
        2048,
        Mode::Auto {
            start_store_qbytes: 4096,
            resume_load_qbytes: 2048,
        },
        8,
        TimeDelta::from_micros(50),
    );
    let mut b = SimBuilder::new(778);
    let switch = b.add_node(Box::new(extmem_switch::SwitchNode::new(
        "tor",
        extmem_switch::SwitchConfig::default(),
        Box::new(prog),
    )));
    let gen = b.add_node(Box::new(TrafficGenNode::new(
        "gen",
        WorkloadSpec::simple(
            host_mac(0),
            host_mac(1),
            FiveTuple::new(host_ip(0), host_ip(1), 5000, 9000, 17),
            800,
            Rate::from_gbps(30),
            600,
        ),
    )));
    let sink = b.add_node(Box::new(SinkNode::new("sink")));
    b.connect(switch, PortId(0), gen, PortId(0), LinkSpec::testbed_40g());
    b.connect(
        switch,
        PortId(1),
        sink,
        PortId(0),
        LinkSpec::new(Rate::from_gbps(10), TimeDelta::from_nanos(300)),
    );
    let server = b.add_node(Box::new(nic));
    b.connect(
        switch,
        PortId(2),
        server,
        PortId(0),
        LinkSpec::testbed_40g(),
    );
    let mut sim = b.build();
    sim.schedule_timer(gen, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
    sim.run_until(Time::from_millis(60));

    let sink = sim.node::<SinkNode>(sink);
    let sw: &extmem_switch::SwitchNode = sim.node(switch);
    let s = sw.program::<PacketBufferProgram>().stats();
    let nic = sim.node::<RnicNode>(server);
    assert!(nic.stats().outage_drops > 0, "outage never bit");
    assert!(s.channel.retransmits > 0, "recovery must retransmit: {s:?}");
    assert!(!s.channel.failed_over, "short outage must not fail over: {s:?}");
    assert_eq!(s.lost_entries, 0, "reliable channel must lose nothing: {s:?}");
    assert_eq!(s.loaded, s.stored, "entries unaccounted: {s:?}");
    assert_eq!(sink.total_reorders(), 0);
    assert_eq!(sink.received, 600, "every packet must be delivered");
}
