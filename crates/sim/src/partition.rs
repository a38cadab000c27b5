//! Support types for the conservative-synchronization parallel engine.
//!
//! The node graph is split into `k` **partitions** by [`place`]: each
//! single-link node rides with the switch it hangs off, and each such
//! group goes whole to the partition the contiguous index split
//! ([`part_of`]) gives its middle member. Each partition owns its nodes,
//! its own timing wheel, and the transmit side of every link direction
//! whose transmitting node it owns. Partitions advance concurrently under
//! the classic conservative rule: link propagation delay is
//! **lookahead**. Partition `p` publishes, per outbound neighbor `q`, a
//! lower bound on the timestamp of any delivery it may still send
//! (`min(own queue head, own dispatch bound) + min propagation p→q`), and
//! `q` only dispatches events strictly below the minimum of its inbound
//! bounds. That bound holds between any two dispatches, so it is
//! re-published every few dispatches and the window slides instead of
//! advancing in lockstep. Cross-partition deliveries travel through
//! bounded SPSC channels; everything else (timers, tx-completions, crash
//! and link admin) stays partition-local.
//!
//! Deadlock freedom: bounds are re-published every loop iteration whether
//! or not progress was made (the null-message role), all cross-partition
//! links are required to have strictly positive propagation, and a sender
//! blocked on a full channel drains its own inboxes while it waits.
//!
//! Every shared slot a worker writes (its bounds, `finished` flag and
//! `progress` counter, a channel's `sent` or `recv` count) has one writer
//! and a cache line of its own, and a bound or flag is stored only when
//! its value changes, so an idle worker's spin reads lines without
//! dirtying them.
//!
//! Termination uses distributed double-scan detection: per-partition
//! `finished` flags, monotone `progress` counters bumped on every dispatch
//! or drain, and per-channel sent/received counters. The coordinator
//! (partition 0) declares the run over only after two consecutive scans
//! observe every partition finished, every channel balanced, and no
//! progress in between.

use crate::link::{Endpoint, LinkSpec};
use extmem_types::{NodeId, PortId, Time};
use extmem_wire::Packet;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;

/// Static description of one link, shared read-only by every partition.
pub(crate) struct LinkInfo {
    pub spec: LinkSpec,
    pub ends: [Endpoint; 2],
}

/// Static connection state of one `(node, port)` pair.
#[derive(Clone, Copy)]
pub(crate) struct PortSlotStatic {
    /// Index into [`Topo::links`].
    pub link: u32,
    /// Which end of that link this port is (0 or 1).
    pub end: u8,
}

/// The immutable topology, shared by all partitions behind an `Arc`.
pub(crate) struct Topo {
    pub links: Vec<LinkInfo>,
    /// `ports[node][port]` → connection state, `None` for unconnected ports.
    pub ports: Vec<Vec<Option<PortSlotStatic>>>,
    /// Owning partition of each node.
    pub node_part: Vec<u32>,
}

impl Topo {
    /// Link directions (`link * 2 + transmitting end`).
    pub fn dirs(&self) -> usize {
        self.links.len() * 2
    }

    /// Partition owning the transmit side of direction `dir`.
    pub fn dir_owner(&self, dir: usize) -> u32 {
        let ep = self.links[dir / 2].ends[dir & 1];
        self.node_part[ep.node.raw() as usize]
    }

    pub fn slot(&self, node: NodeId, port: PortId) -> Option<PortSlotStatic> {
        *self
            .ports
            .get(node.raw() as usize)?
            .get(port.raw() as usize)?
    }
}

/// Contiguous balanced partition assignment: node `i` of `n` goes to
/// partition `i * k / n`. [`place`] applies it to groups of nodes.
pub(crate) fn part_of(node: usize, nodes: usize, parts: usize) -> u32 {
    debug_assert!(node < nodes && parts >= 1);
    (node * parts / nodes) as u32
}

/// Link-aware partition assignment of `nodes` nodes to `parts` partitions.
///
/// A node with exactly one link (a host, a memory server, a generator)
/// joins the group of its neighbour when that neighbour has more than one
/// link (the switch it hangs off). A group larger than `⌈nodes / parts⌉`
/// is dissolved back into single nodes, so a star never swallows a whole
/// worker's share. Each group then goes to the partition [`part_of`] gives
/// its middle member, which keeps the split as balanced as `part_of`'s
/// while no group is cut: on a pod-major leaf–spine fabric every pod stays
/// on one worker and only leaf↔spine links cross. Single nodes land
/// exactly where `part_of` puts them.
pub(crate) fn place(nodes: usize, parts: usize, links: &[LinkInfo]) -> Vec<u32> {
    let mut degree = vec![0usize; nodes];
    // Meaningful only for nodes of degree 1: their sole neighbour.
    let mut neighbour: Vec<usize> = (0..nodes).collect();
    for l in links {
        let [a, b] = l.ends.map(|e| e.node.raw() as usize);
        degree[a] += 1;
        degree[b] += 1;
        neighbour[a] = b;
        neighbour[b] = a;
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); nodes];
    for i in 0..nodes {
        let j = neighbour[i];
        let anchor = if degree[i] == 1 && degree[j] > 1 {
            j
        } else {
            i
        };
        groups[anchor].push(i);
    }
    let cap = nodes.div_ceil(parts);
    let mut part = vec![0u32; nodes];
    for g in &groups {
        let whole = g.len() <= cap;
        for &i in g {
            // Members were pushed in index order.
            let at = if whole { g[g.len() / 2] } else { i };
            part[i] = part_of(at, nodes, parts);
        }
    }
    part
}

/// Derive an independent RNG stream seed from the simulation seed
/// (splitmix64-style finalizer over a tag/index-disambiguated input).
/// A pure function, so every backend derives identical streams.
pub(crate) fn stream_seed(seed: u64, tag: u64, idx: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(idx.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RNG stream tag for per-link-direction fault injection.
pub(crate) const STREAM_FAULTS: u64 = 1;
/// RNG stream tag for per-node [`crate::NodeCtx::rng`] draws.
pub(crate) const STREAM_NODE: u64 = 2;

/// A delivery crossing a partition boundary. The tie key and lane were
/// fixed by the transmitting side, so the receiver just inserts it.
pub(crate) struct CrossMsg {
    pub at: Time,
    pub tie: u64,
    /// FIFO lane id, or [`crate::event::NO_LANE`] for reordered/duplicate
    /// deliveries.
    pub lane: u32,
    pub node: NodeId,
    pub port: PortId,
    pub packet: Packet,
}

/// Sending half of one `p → q` channel, held by partition `p`.
pub(crate) struct Outbox {
    pub tx: SyncSender<CrossMsg>,
    /// Messages enqueued (bumped *before* the enqueue, so `sent > recv`
    /// whenever a message is in flight).
    pub sent: Arc<Padded<AtomicU64>>,
}

/// Receiving half of one `p → q` channel, held by partition `q`.
pub(crate) struct Inbox {
    pub rx: Receiver<CrossMsg>,
    /// Messages fully absorbed into the local queue (bumped *after* the
    /// insert).
    pub recv: Arc<Padded<AtomicU64>>,
}

/// One channel's counters, retained for the coordinator's balance scan.
pub(crate) struct ChannelMeta {
    pub sent: Arc<Padded<AtomicU64>>,
    pub recv: Arc<Padded<AtomicU64>>,
}

/// A value alone on its cache line (128 bytes: a line plus the adjacent
/// line some cores prefetch with it), so one worker writing its own slot
/// never invalidates the line a neighbour is polling.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct Padded<T>(T);

impl<T> Deref for Padded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// State shared by all worker threads of one parallel run. Every slot a
/// worker writes has that worker as its only writer while workers run, and
/// is padded to its own cache line.
pub(crate) struct SyncShared {
    pub k: usize,
    /// `bounds[p * k + q]`: picosecond promise from `p` to `q` — every
    /// delivery `p` has yet to send to `q` fires at or after this. Only
    /// ever raised while workers run.
    pub bounds: Vec<Padded<AtomicU64>>,
    /// `lookahead[p * k + q]`: min propagation over links `p → q`
    /// (`u64::MAX` when no such link).
    pub lookahead: Vec<u64>,
    /// Partitions with a channel into `q` / out of `p`.
    pub inbound: Vec<Vec<u32>>,
    pub outbound: Vec<Vec<u32>>,
    /// Per-partition "nothing left to do at my current bounds" flags.
    pub finished: Vec<Padded<AtomicBool>>,
    /// Per-partition monotone activity counters (any dispatch or drain).
    pub progress: Vec<Padded<AtomicU64>>,
    /// Set once by the coordinator; every worker exits on seeing it.
    pub done: AtomicBool,
    pub channels: Vec<ChannelMeta>,
}

impl SyncShared {
    pub fn new(k: usize, lookahead: Vec<u64>) -> SyncShared {
        assert_eq!(lookahead.len(), k * k);
        let mut inbound = vec![Vec::new(); k];
        let mut outbound = vec![Vec::new(); k];
        for p in 0..k {
            for q in 0..k {
                if p != q && lookahead[p * k + q] != u64::MAX {
                    outbound[p].push(q as u32);
                    inbound[q].push(p as u32);
                }
            }
        }
        SyncShared {
            k,
            bounds: (0..k * k).map(|_| Padded::default()).collect(),
            lookahead,
            inbound,
            outbound,
            finished: (0..k).map(|_| Padded::default()).collect(),
            progress: (0..k).map(|_| Padded::default()).collect(),
            done: AtomicBool::new(false),
            channels: Vec::new(),
        }
    }

    /// Prepare for a run: clear flags and seed the bound matrix from the
    /// partitions' current queue heads (`peeks[p]`, `u64::MAX` if empty).
    ///
    /// Naively seeding `bounds[p][q] = peek_p + la` over-promises: `p`'s
    /// earliest *send* can be triggered by a message it has not received
    /// yet (e.g. `p` idle until 1000 locally, but `q` dispatches at 10 and
    /// the reply bounces off `p` at 210). The true lower bound on when any
    /// causal chain can reach `p` is the min-plus relaxation
    /// `est(p) = min(peek_p, min over r of est(r) + la(r→p))`, a shortest-
    /// path fixpoint that Bellman–Ford reaches in `< k` sweeps because all
    /// lookaheads are strictly positive.
    pub fn begin(&self, peeks: &[u64]) {
        self.done.store(false, SeqCst);
        for f in &self.finished {
            f.store(false, SeqCst);
        }
        let k = self.k;
        let mut est: Vec<u64> = peeks.to_vec();
        for _ in 0..k {
            let mut changed = false;
            for p in 0..k {
                for &q in &self.outbound[p] {
                    let q = q as usize;
                    let cand = est[p].saturating_add(self.lookahead[p * k + q]);
                    if cand < est[q] {
                        est[q] = cand;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for (p, &e) in est.iter().enumerate() {
            for &q in &self.outbound[p] {
                let q = q as usize;
                let b = e.saturating_add(self.lookahead[p * k + q]);
                self.bounds[p * k + q].store(b, SeqCst);
            }
        }
    }

    /// The dispatch bound of partition `me`: min over inbound promises,
    /// `u64::MAX` with no inbound channels. `me` may dispatch strictly
    /// below this.
    pub fn safe_bound(&self, me: usize) -> u64 {
        let mut safe = u64::MAX;
        for &p in &self.inbound[me] {
            safe = safe.min(self.bounds[p as usize * self.k + me].load(SeqCst));
        }
        safe
    }

    /// Raise the promise `me → q` to at least `bound` picoseconds. `me` is
    /// the slot's only writer, so an unchanged promise is a plain load and
    /// leaves the line clean in its readers' caches.
    pub fn publish(&self, me: usize, q: usize, bound: u64) {
        let slot = &self.bounds[me * self.k + q];
        if bound > slot.load(SeqCst) {
            slot.store(bound, SeqCst);
        }
    }

    /// Set partition `me`'s finished flag, storing only on a change (`me`
    /// is its only writer).
    pub fn set_finished(&self, me: usize, finished: bool) {
        let slot = &self.finished[me];
        if slot.load(SeqCst) != finished {
            slot.store(finished, SeqCst);
        }
    }

    /// Coordinator-only: double-scan termination check. Returns `true`
    /// (and sets [`SyncShared::done`]) only if two consecutive scans both
    /// see every partition finished and every channel balanced, with
    /// identical `(progress, sent)` totals — i.e. no activity slipped
    /// between the scans. A partition drains by first lowering its
    /// `finished` flag, then bumping `recv`, so a scan that observes a
    /// balanced channel and a later scan that re-reads the flag cannot
    /// both miss in-flight work.
    pub fn try_terminate(&self) -> bool {
        let scan = || -> Option<(u64, u64)> {
            if !self.finished.iter().all(|f| f.load(SeqCst)) {
                return None;
            }
            let mut sent_total = 0u64;
            for c in &self.channels {
                let s = c.sent.load(SeqCst);
                if s != c.recv.load(SeqCst) {
                    return None;
                }
                sent_total += s;
            }
            let progress = self.progress.iter().map(|p| p.load(SeqCst)).sum();
            Some((progress, sent_total))
        };
        match (scan(), scan()) {
            (Some(a), Some(b)) if a == b => {
                self.done.store(true, SeqCst);
                true
            }
            _ => false,
        }
    }
}

/// Trips the shared `done` flag if its worker unwinds, so the other
/// workers (and the joining `thread::scope`) are not left spinning on a
/// run that can never finish.
pub(crate) struct PanicFuse<'a>(pub &'a SyncShared);

impl Drop for PanicFuse<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.done.store(true, SeqCst);
        }
    }
}

/// Counters from the parallel engine, exposed via
/// [`crate::Simulator::par_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParStats {
    /// Partitions (= worker threads) the topology was split into.
    pub partitions: usize,
    /// Deliveries that crossed a partition boundary.
    pub cross_messages: u64,
    /// Minimum over all dispatches of `safe_bound - event_time` in
    /// picoseconds (`u64::MAX` if nothing was ever dispatched under a
    /// finite bound). Strictly positive iff no partition ever dispatched
    /// at or past its incoming-link bound.
    pub min_dispatch_margin_picos: u64,
    /// Worker loop iterations summed over partitions and runs.
    pub iterations: u64,
    /// Times a sender found a cross-partition channel full and had to
    /// spin (draining its own inboxes while waiting).
    pub channel_stalls: u64,
}

impl Default for ParStats {
    fn default() -> Self {
        ParStats {
            partitions: 1,
            cross_messages: 0,
            min_dispatch_margin_picos: u64::MAX,
            iterations: 0,
            channel_stalls: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_of_is_contiguous_and_balanced() {
        let n = 10;
        let k = 4;
        let assign: Vec<u32> = (0..n).map(|i| part_of(i, n, k)).collect();
        assert!(assign.windows(2).all(|w| w[0] <= w[1]), "contiguous");
        assert_eq!(assign[0], 0);
        assert_eq!(assign[n - 1], (k - 1) as u32);
        for p in 0..k as u32 {
            let size = assign.iter().filter(|&&a| a == p).count();
            assert!((2..=3).contains(&size), "partition {p} holds {size}");
        }
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let a = stream_seed(42, STREAM_FAULTS, 0);
        assert_eq!(a, stream_seed(42, STREAM_FAULTS, 0), "pure function");
        assert_ne!(a, stream_seed(42, STREAM_FAULTS, 1));
        assert_ne!(a, stream_seed(42, STREAM_NODE, 0));
        assert_ne!(a, stream_seed(43, STREAM_FAULTS, 0));
    }

    #[test]
    fn begin_relaxes_bounds_through_cycles() {
        // Two partitions, 100 ps lookahead both ways. p0 idle until 1000,
        // p1 fires at 10: p0's promise must reflect that p1's event can
        // bounce a reply off p0 at 10 + 100 (+100 back), not 1000 + 100.
        let mut la = vec![u64::MAX; 4];
        la[1] = 100; // 0 → 1
        la[2] = 100; // 1 → 0
        let s = SyncShared::new(2, la);
        s.begin(&[1000, 10]);
        assert_eq!(s.bounds[1].load(SeqCst), 110 + 100, "0→1: est(0)=110");
        assert_eq!(s.bounds[2].load(SeqCst), 10 + 100, "1→0: est(1)=10");
        assert_eq!(s.safe_bound(0), 110);
        assert_eq!(s.safe_bound(1), 210);
    }

    #[test]
    fn bounds_only_ratchet_up() {
        let mut la = vec![u64::MAX; 4];
        la[1] = 5;
        la[2] = 5;
        let s = SyncShared::new(2, la);
        s.begin(&[0, 0]);
        s.publish(0, 1, 50);
        s.publish(0, 1, 20); // lower publish must not win
        assert_eq!(s.safe_bound(1), 50);
    }

    #[test]
    fn termination_needs_all_finished_and_balanced() {
        let s = SyncShared::new(2, vec![u64::MAX; 4]);
        s.begin(&[u64::MAX, u64::MAX]);
        assert!(!s.try_terminate(), "nobody finished yet");
        s.finished[0].store(true, SeqCst);
        assert!(!s.try_terminate(), "partition 1 still running");
        s.finished[1].store(true, SeqCst);
        assert!(s.try_terminate());
        assert!(s.done.load(SeqCst));
    }
}
