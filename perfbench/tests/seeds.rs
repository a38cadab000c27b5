//! Each workload's output checks at reduced length, on the default seed and
//! two held-out seeds: no failed operation, the same digest when run again,
//! and the same digest behind the timing shims.

use extmem_perfbench::{run_once, Workload};

/// Seeds the reduced runs use: the default, then two held out from tuning.
const SEEDS: [u64; 3] = [1, 7, 1009];
const FRAMES: u64 = 3_000;

fn check(w: Workload) {
    for seed in SEEDS {
        let a = run_once(w, seed, FRAMES, false);
        let b = run_once(w, seed, FRAMES, false);
        let t = run_once(w, seed, FRAMES, true);
        let o = &a.outcome;
        assert_eq!(o.failed(), 0, "{w:?} seed {seed}: {:?}", o.failures);
        assert!(
            o.common.sent >= FRAMES && o.common.received == o.common.sent,
            "{w:?} seed {seed}"
        );
        assert_eq!(
            o.common.digest, b.outcome.common.digest,
            "{w:?} seed {seed}: not deterministic"
        );
        assert_eq!(
            o.common.digest, t.outcome.common.digest,
            "{w:?} seed {seed}: shims changed the run"
        );
        assert_eq!(
            o.common.events, t.outcome.common.events,
            "{w:?} seed {seed}"
        );
        assert!(o.settled_at >= o.common.last_send, "{w:?} seed {seed}");
    }
    let d: Vec<u64> = SEEDS
        .iter()
        .map(|&s| run_once(w, s, FRAMES, false).outcome.common.digest)
        .collect();
    assert!(
        d[0] != d[1] && d[1] != d[2],
        "{w:?}: the seed does not reach the inputs"
    );
}

#[test]
fn pktbuf_detour_seeds() {
    check(Workload::PktbufDetour);
}

#[test]
fn lookup_churn_seeds() {
    check(Workload::LookupChurn);
}

#[test]
fn sharded_faa_fabric_seeds() {
    check(Workload::ShardedFaaFabric);
}
