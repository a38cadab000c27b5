//! `lookup_churn`: the one-RTT cuckoo lookup table, cacheless (every frame
//! pays one bucket READ on the verb path), under 64 B frames drawn Zipf(1.1)
//! over a resident key set, while a scripted sliding window of inserts and
//! deletes relocates residents on the same remote table for the whole run.

use crate::stats::mix;
use crate::topo::{LatSink, Topo};
use crate::workload::{CoreCounters, Instance, Outcome, Scenario};
use extmem_apps::workload::Arrival;
use extmem_apps::{
    host_endpoint, host_ip, host_mac, FlowPick, SinkNode, TrafficGenNode, WorkloadSpec,
};
use extmem_core::lookup::{install_cuckoo_image, ChurnScript, ControlOp, TOKEN_CHURN};
use extmem_core::{
    ActionEntry, CuckooConfig, CuckooDirectory, Fib, LookupTableProgram, RdmaChannel,
};
use extmem_rnic::{RnicConfig, RnicNode};
use extmem_sim::{LinkSpec, SimBuilder, Simulator};
use extmem_switch::switch::program_token;
use extmem_types::{ByteSize, FiveTuple, NodeId, PortId, Rate, Rkey, Time, TimeDelta};

/// Frames a full run sends.
pub const DEFAULT_FRAMES: u64 = 200_000;
/// Keys resident for the whole run; the traffic draws from these.
const RESIDENT: u64 = 2048;
/// Churn keys live at once (sliding window).
const WINDOW: usize = 64;
/// Smallest Ethernet frame.
const FRAME: usize = 64;
/// Mean offered load (≈5.9 M frames/s, each one bucket READ: ~60% of the
/// table server's request rate).
const OFFERED_GBPS: u64 = 3;
/// Gap between churn ops.
const CHURN_PERIOD: TimeDelta = TimeDelta::from_micros(2);
/// DSCP the resident keys' action sets; the sink checks it.
const DSCP: u8 = 46;
const TABLE: PortId = PortId(2);

/// Resident key `i`: distinct for every `i < 2^16`, placed by the seed.
fn resident_key(seed: u64, i: u64) -> FiveTuple {
    let salt = mix(seed, 7);
    FiveTuple::new(
        0x0b00_0000 | (salt as u32 & 0x00ff_ff00),
        host_ip(1),
        (i as u16) ^ (salt >> 32) as u16,
        80,
        17,
    )
}

/// Churn key `i`: distinct for every `i < 2^32` and from every resident
/// key (different destination port).
fn churn_key(seed: u64, i: u64) -> FiveTuple {
    let salt = mix(seed, 8);
    FiveTuple::new(
        0x0c00_0000u32.wrapping_add((i >> 16) as u32) ^ (salt as u32 & 0x00ff_0000),
        host_ip(1),
        (i as u16) ^ (salt >> 32) as u16,
        8080,
        17,
    )
}

/// Build the workload: `frames` frames, every seed derived from `seed`.
pub fn build(seed: u64, frames: u64, mut topo: Topo) -> Instance {
    // The directory's design load (<= 50% at the window's peak): inserts
    // still land in full buckets and relocate residents.
    let cfg = CuckooConfig::for_capacity(RESIDENT + WINDOW as u64);
    let mut dir = CuckooDirectory::new(cfg);
    let flows: Vec<FiveTuple> = (0..RESIDENT).map(|i| resident_key(seed, i)).collect();
    for f in &flows {
        dir.install(*f, ActionEntry::set_dscp(DSCP))
            .expect("resident set fits");
    }

    // Churn for 105% of the nominal send window: it overlaps the whole
    // run, and the table converges after the last frame, far beyond the
    // generator's Poisson spread in finish time.
    let rate = Rate::from_gbps(OFFERED_GBPS);
    let window = TimeDelta::from_picos(rate.time_to_send(FRAME).picos() * frames);
    let churn_keys =
        ((window.picos() / 20 * 21) / (2 * CHURN_PERIOD.picos())).max(WINDOW as u64 + 1);
    let mut ops = Vec::with_capacity(2 * churn_keys as usize);
    for i in 0..churn_keys {
        ops.push(ControlOp::Insert(
            churn_key(seed, i),
            ActionEntry::set_dscp(12),
        ));
        if i >= WINDOW as u64 {
            ops.push(ControlOp::Remove(churn_key(seed, i - WINDOW as u64)));
        }
    }
    for i in churn_keys - WINDOW as u64..churn_keys {
        ops.push(ControlOp::Remove(churn_key(seed, i)));
    }

    let mut nic = RnicNode::new("tablesrv", RnicConfig::at(host_endpoint(2)));
    let channel = RdmaChannel::setup(
        extmem_apps::scenario::switch_endpoint(),
        TABLE,
        &mut nic,
        ByteSize::from_bytes(dir.region_bytes()),
    );
    let (rkey, base_va) = (channel.rkey, channel.base_va);
    install_cuckoo_image(&mut nic, &channel, &dir);
    let mut fib = Fib::new(8);
    fib.install(host_mac(0), PortId(0));
    fib.install(host_mac(1), PortId(1));
    let prog = LookupTableProgram::cuckoo(fib, channel, dir, None).with_churn(ChurnScript {
        ops,
        period: CHURN_PERIOD,
    });

    let mut b = SimBuilder::new(mix(seed, 2));
    let switch = b.add_node(topo.switch("tor".into(), Box::new(prog)));
    topo.switches.push(switch);
    let spec = WorkloadSpec {
        src_mac: host_mac(0),
        dst_mac: host_mac(1),
        flows: flows.into(),
        pick: FlowPick::Zipf(1.1),
        frame_len: FRAME,
        offered: Some(rate),
        arrival: Arrival::Poisson,
        count: frames,
        seed: mix(seed, 200),
        flow_id_base: 0,
    };
    let gen = b.add_node(topo.wrap(Box::new(TrafficGenNode::new("client", spec))));
    topo.gens.push(gen);
    let mut sink = SinkNode::new("server");
    sink.expect_dscp = Some(DSCP);
    let sink = b.add_node(topo.wrap(Box::new(LatSink::new(sink, frames))));
    topo.sinks.push(sink);
    let table = b.add_node(topo.wrap(Box::new(nic)));
    topo.nics.push(table);
    let link = LinkSpec::testbed_40g();
    b.connect(switch, PortId(0), gen, PortId(0), link);
    b.connect(switch, PortId(1), sink, PortId(0), link);
    b.connect(switch, TABLE, table, PortId(0), link);

    let mut sim = b.build();
    sim.schedule_timer(gen, TimeDelta::ZERO, TrafficGenNode::KICK_TOKEN);
    sim.schedule_timer(
        switch,
        TimeDelta::from_micros(5),
        program_token(TOKEN_CHURN),
    );
    Instance {
        sim,
        topo,
        scenario: Box::new(LookupChurn {
            switch,
            table,
            rkey,
            base_va,
        }),
    }
}

struct LookupChurn {
    switch: NodeId,
    table: NodeId,
    rkey: Rkey,
    base_va: u64,
}

impl Scenario for LookupChurn {
    /// Settled: quiescent (nothing arms a timer forever here), so the
    /// settled instant is the last event: the churn's final delete.
    fn drive(&mut self, sim: &mut Simulator, _topo: &Topo) -> Time {
        sim.run_to_quiescence();
        sim.now()
    }

    fn outcome(&self, sim: &Simulator, topo: &Topo, settled_at: Time) -> Outcome {
        let common = topo.common(sim);
        let prog = topo.program::<LookupTableProgram>(sim, self.switch);
        let s = prog.stats();
        let mut core = CoreCounters {
            remote_lookups: s.remote_lookups,
            bucket_reads: s.bucket_reads,
            relocation_moves: s.relocation_moves,
            ..CoreCounters::default()
        };
        core.add_channel(&s.channel);
        core.add_pool(&s.pool);
        let image = prog.directory().expect("cuckoo mode").encode_region();
        let remote = topo
            .node::<RnicNode>(sim, self.table)
            .region(self.rkey)
            .read(self.base_va, image.len() as u64)
            .expect("table region in bounds");
        let region_mismatch = remote.iter().zip(&image).filter(|(a, b)| a != b).count() as u64;
        let failures = vec![
            (
                "frames_lost",
                common.sent.saturating_sub(common.received + common.corrupt),
            ),
            ("frames_corrupt", common.corrupt),
            ("dscp_mismatch", common.dscp_mismatch),
            ("slow_path_punts", s.slow_path),
            ("failed_lookups", s.failed_ops),
            ("inserts_rejected", s.inserts_rejected),
            ("verify_mismatches", s.verify_mismatches),
            ("region_bytes_differ_from_directory", region_mismatch),
            ("relocation_not_idle", !prog.relocation_idle() as u64),
        ];
        Outcome {
            common,
            core,
            failures,
            settled_at,
        }
    }
}
