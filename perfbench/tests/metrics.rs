//! Self-tests of the benchmark's metric arithmetic.

use extmem_perfbench::stats::{
    beyond, fail_frac, median, mix, nearest_rank, percentiles, LayerTimes,
};
use extmem_perfbench::{run_once, Workload};

fn samples(n: usize, seed: u64) -> Vec<u64> {
    // Heavy duplicates and a long tail, like latency samples.
    (0..n as u64)
        .map(|i| mix(seed, i) % 1000 + mix(seed, i + n as u64).is_multiple_of(64) as u64 * 5_000)
        .collect()
}

#[test]
fn percentile_selection_matches_an_exact_sort() {
    for (n, seed) in [(1, 1), (2, 2), (7, 3), (1000, 4), (10_000, 5), (12_345, 6)] {
        let mut s = samples(n, seed);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        let ps = [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        let got = percentiles(&mut s, &ps);
        for (p, v) in ps.iter().zip(got) {
            // Nearest rank: the smallest value with at least p of the sample
            // at or below it.
            let idx = nearest_rank(n, *p);
            assert_eq!(v, sorted[idx], "n={n} p={p}");
            let at_or_below = sorted.iter().filter(|&&x| x <= v).count();
            assert!(at_or_below as f64 >= p * n as f64, "n={n} p={p}");
            assert!(
                (idx as f64) < (p * n as f64).max(1.0),
                "rank {idx} is not the smallest for n={n} p={p}"
            );
        }
    }
}

#[test]
fn p999_has_ten_samples_beyond_it_from_ten_thousand_samples() {
    for n in [10_000usize, 10_001, 12_345, 120_000] {
        let mut sorted = samples(n, n as u64);
        sorted.sort_unstable();
        let idx = nearest_rank(n, 0.999);
        assert_eq!(sorted.len() - 1 - idx, beyond(n, 0.999));
        assert!(beyond(n, 0.999) >= 10, "n={n}");
    }
    // Below ten thousand samples the rule no longer holds at p99.9.
    assert_eq!(beyond(9_999, 0.999), 9);
    assert!(beyond(1_000, 0.99) >= 10);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn layer_self_times_sum_to_workers_times_wall() {
    let lt = LayerTimes {
        workers: 2,
        wall_s: 1.5,
        switch_total_s: 0.7,
        program_s: 0.4,
        rnic_s: 0.5,
        apps_s: 0.3,
    };
    let st = lt.self_times();
    assert!((st.total() - 3.0).abs() < 1e-12);
    assert!((st.switch - 0.3).abs() < 1e-12 && st.core == 0.4);
}

#[test]
fn traced_runs_satisfy_the_time_accounting_identity() {
    for w in Workload::ALL {
        let r = run_once(w, 1, 1_000, true);
        let lt = r.layers.expect("traced run");
        let st = lt.self_times();
        let budget = lt.workers as f64 * r.wall_s;
        assert!(
            (st.total() - budget).abs() < 1e-9 * budget.max(1.0),
            "{w:?}: {st:?} vs {budget}"
        );
        for (layer, t) in [
            ("sim", st.sim),
            ("switch", st.switch),
            ("core", st.core),
            ("rnic", st.rnic),
            ("apps", st.apps),
        ] {
            assert!(t >= 0.0, "{w:?}: {layer} self time {t} is negative");
        }
        assert!(
            st.core > 0.0 && st.rnic > 0.0 && st.apps > 0.0,
            "{w:?}: {st:?}"
        );
    }
}

#[test]
fn fail_frac_is_failed_ops_over_attempted_frames() {
    assert_eq!(fail_frac(0, 10), 0.0);
    assert_eq!(fail_frac(3, 12), 0.25);
    let r = run_once(Workload::LookupChurn, 1, 2_000, false);
    // The base is the frames the generators attempted, not the frames that
    // arrived.
    assert_eq!(r.outcome.common.sent, 2_000);
    assert_eq!(
        r.outcome.failed(),
        r.outcome.failures.iter().map(|f| f.1).sum::<u64>()
    );
    assert_eq!(
        fail_frac(r.outcome.failed(), r.outcome.common.sent),
        0.0,
        "{:?}",
        r.outcome.failures
    );
}

#[test]
fn every_metric_is_declared_in_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let u = run_once(Workload::PktbufDetour, 1, 1_000, false);
    let t = run_once(Workload::PktbufDetour, 1, 1_000, true);
    let e2e = extmem_perfbench::report::end_to_end(std::slice::from_ref(&u), 1.0);
    let layer =
        extmem_perfbench::report::per_layer(std::slice::from_ref(&t), std::slice::from_ref(&u));
    for m in e2e.iter().chain(&layer) {
        let decl = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
    }
    assert_eq!(json.matches("\"better\"").count(), e2e.len() + layer.len());
}
