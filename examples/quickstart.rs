//! Quickstart: the whole system in one file.
//!
//! Builds the smallest interesting topology — two hosts, a ToR switch
//! running the **state-store primitive**, and one memory server — pushes a
//! thousand packets through it, and shows that (a) traffic is forwarded
//! normally, (b) per-flow counters materialize in the *server's* DRAM via
//! RDMA Fetch-and-Add, and (c) the server CPU handled zero packets.
//!
//! Run with: `cargo run --release --example quickstart`

use extmem_apps::scenario::{host_endpoint, host_ip, host_mac, switch_endpoint};
use extmem_apps::workload::{FlowPick, SinkNode, TrafficGenNode, WorkloadSpec};
use extmem_core::faa::{FaaConfig, FaaEngine};
use extmem_core::state_store::read_remote_counters;
use extmem_core::{Fib, RdmaChannel, ShardedStateStoreProgram};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{LinkSpec, SimBuilder};
use extmem_switch::{SwitchConfig, SwitchNode};
use extmem_types::{ByteSize, FiveTuple, PortId, Rate, Time, TimeDelta};

fn main() {
    // ---------------------------------------------------------------
    // 1. Control plane (the only CPU involvement in the whole design):
    //    register memory on the server and set up the RDMA channel.
    // ---------------------------------------------------------------
    let counters = 1024u64;
    let mut nic = RnicNode::new("memory-server", RnicConfig::at(host_endpoint(2)));
    let channel = RdmaChannel::setup(
        switch_endpoint(),
        PortId(2), // the switch port the server hangs off
        &mut nic,
        ByteSize::from_bytes(counters * 8),
    );
    let (rkey, base_va) = (channel.rkey, channel.base_va);
    println!(
        "channel: qpn={} rkey={} base=0x{:x}",
        channel.qp.peer_qpn, rkey, base_va
    );

    // ---------------------------------------------------------------
    // 2. The data-plane program: L2 forwarding + remote per-flow counting.
    //    The state store takes a list of (shard id, engine, active)
    //    shards; one shard with one ring point is the paper's single
    //    memory server.
    // ---------------------------------------------------------------
    let mut fib = Fib::new(8);
    fib.install(host_mac(0), PortId(0));
    fib.install(host_mac(1), PortId(1));
    let engine = FaaEngine::new(channel, FaaConfig::default());
    let program =
        ShardedStateStoreProgram::new(fib, vec![(0, engine, true)], 1, TimeDelta::from_micros(50));

    // ---------------------------------------------------------------
    // 3. Topology: sender -- switch -- receiver, memory server on port 2.
    // ---------------------------------------------------------------
    let mut b = SimBuilder::new(1);
    let switch = b.add_node(Box::new(SwitchNode::new(
        "tor",
        SwitchConfig::default(),
        Box::new(program),
    )));
    let flows: Vec<FiveTuple> = (0..4)
        .map(|i| FiveTuple::new(host_ip(0), host_ip(1), 5000 + i, 9000, 17))
        .collect();
    let sender = b.add_node(Box::new(TrafficGenNode::new(
        "sender",
        WorkloadSpec {
            src_mac: host_mac(0),
            dst_mac: host_mac(1),
            flows: flows.clone().into(),
            pick: FlowPick::Uniform,
            frame_len: 256,
            offered: Some(Rate::from_gbps(10)),
            arrival: extmem_apps::workload::Arrival::Paced,
            count: 1000,
            seed: 7,
            flow_id_base: 0,
        },
    )));
    let receiver = b.add_node(Box::new(SinkNode::new("receiver")));
    let link = LinkSpec::testbed_40g();
    b.connect(switch, PortId(0), sender, PortId(0), link);
    b.connect(switch, PortId(1), receiver, PortId(0), link);
    let server = b.add_node(Box::new(nic));
    b.connect(switch, PortId(2), server, PortId(0), link);

    // ---------------------------------------------------------------
    // 4. Run. After the workload, give the switch a moment to flush its
    //    outstanding Fetch-and-Adds.
    // ---------------------------------------------------------------
    let mut sim = b.build();
    sim.schedule_timer(sender, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
    sim.run_until(Time::from_millis(5));

    // ---------------------------------------------------------------
    // 5. Inspect: end-to-end delivery, and counters in server DRAM.
    // ---------------------------------------------------------------
    let sink = sim.node::<SinkNode>(receiver);
    println!(
        "forwarded {} packets end-to-end, median latency {}",
        sink.received,
        sink.latency.summarize().unwrap().median
    );

    let sw: &SwitchNode = sim.node::<SwitchNode>(switch);
    let prog = sw.program::<ShardedStateStoreProgram>();
    let nic = sim.node::<RnicNode>(server);
    let remote = read_remote_counters(nic, rkey, base_va, counters);

    println!("\nper-flow counters (read from the server's DRAM):");
    for f in &flows {
        let (_, slot) = prog.route_of(f);
        println!(
            "  {:?} -> slot {:4}: {:4} packets",
            f, slot, remote[slot as usize]
        );
    }
    let total: u64 = remote.iter().sum();
    println!("\nremote total = {total} (sent 1000)");
    println!(
        "FaA requests sent: {} (merged {} updates into fewer ops)",
        prog.engine(0).stats().faa_sent,
        prog.engine(0).stats().merged
    );
    println!(
        "server CPU packets: {} (zero CPU involvement)",
        nic.stats().cpu_packets
    );
    assert_eq!(total, 1000);
    assert_eq!(nic.stats().cpu_packets, 0);
    println!("\nOK");
}
