//! Campaign cost: the batched incremental tracker vs naive per-step full
//! re-sweeps.
//!
//! A `T`-step attack campaign needs the exact survivor connectivity after
//! every removal. The naive approach re-runs the full non-adjacent-pair
//! sweep `T` times; the incremental tracker re-solves only the pairs whose
//! recorded flow witness used the removed vertex. On top of that, the
//! batched engine shares BFS level graphs across same-source pairs in the
//! initial sweep, skips dirty-pair re-solves whose replayed flow already
//! attains the alive-degree bound (without touching the network at all),
//! stops surviving probes after one augmenting path, and reuses the
//! replayed decomposition instead of re-tracing it when the flow did not
//! change. Both paths produce identical κ series (asserted here and tested
//! in `kad_resilience::attack::incremental`); this bench quantifies the
//! speedup on Bench-preset-sized overlay graphs and prints the flow-solve
//! counts behind it.
//!
//! `batched_campaign` measures the attack-phase cost (prebuilt tracker,
//! one clone + the full victim schedule per iteration);
//! `batched_initial_sweep` measures the one-off construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kad_bench::support::overlay_graph;
use kad_resilience::attack::{Campaign, CampaignConfig, CampaignStrategy, IncrementalConnectivity};
use kad_resilience::sampled::sampled_connectivity;
use kad_resilience::AnalysisConfig;
use std::collections::HashSet;
use std::hint::black_box;

/// The deterministic victim schedule: replay the same campaign's victims so
/// the naive baseline removes the identical sequence.
fn victim_schedule(g: &flowgraph::DiGraph, budget: usize, seed: u64) -> Vec<u32> {
    Campaign::new(
        g,
        CampaignConfig {
            strategy: CampaignStrategy::Random,
            budget,
            seed,
        },
    )
    .expect("valid config")
    .run()
    .steps
    .iter()
    .map(|s| s.victim)
    .collect()
}

/// Serial exact sweep over the survivor graph — what a naive campaign runs
/// after every removal.
fn full_resweep(g: &flowgraph::DiGraph, removed: &HashSet<u32>) -> u64 {
    let (survivor, _) = g.remove_vertices(removed);
    sampled_connectivity(
        &survivor,
        &AnalysisConfig {
            parallel: false,
            ..AnalysisConfig::exact()
        },
    )
    .min
}

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    for &(n, k, budget) in &[(32usize, 8usize, 8usize), (64, 8, 12)] {
        let g = overlay_graph(n, k, 11);
        let victims = victim_schedule(&g, budget, 17);
        assert_eq!(victims.len(), budget);

        // One-off instrumentation: count flow solves and assert the
        // tracker agrees with the naive re-sweep on every step's κ.
        {
            let t = std::time::Instant::now();
            let mut batched = IncrementalConnectivity::new(&g);
            println!("  init sweep: batched {:.2?}", t.elapsed());
            let batched_initial = batched.flows_computed();
            let mut removed = HashSet::new();
            for &v in &victims {
                batched.remove(v).expect("victim alive");
                removed.insert(v);
                assert_eq!(
                    batched.summary().min,
                    full_resweep(&g, &removed),
                    "batched incremental diverged from full re-sweep"
                );
            }
            let batched_steps = batched.flows_computed() - batched_initial;
            println!(
                "  n={n} k={k} budget={budget}: initial sweep {batched_initial} flows, \
                 {batched_steps} batched re-solves over {budget} steps \
                 (naive would re-solve ≈ {} flows)",
                batched_initial as usize * budget
            );
            let built = IncrementalConnectivity::new(&g);
            let t = std::time::Instant::now();
            let clone = built.clone();
            let clone_time = t.elapsed();
            let mut stepper = built.clone();
            let t = std::time::Instant::now();
            for &v in &victims {
                stepper.remove(v).expect("victim alive");
                std::hint::black_box(stepper.summary().min);
            }
            println!(
                "  clone {clone_time:.2?}, batched steps {:.2?} ({} alive)",
                t.elapsed(),
                clone.alive()
            );
        }

        // Attack-phase cost: a live campaign builds the tracker once during
        // stabilization, then consumes one removal per simulated minute —
        // the per-step path is what the session engine pays. Each iteration
        // clones the prebuilt tracker (a memcpy, ~1% of the loop) and runs
        // the full victim schedule.
        let batched_base = IncrementalConnectivity::new(&g);

        group.bench_with_input(
            BenchmarkId::new("batched_campaign", format!("n{n}-T{budget}")),
            &batched_base,
            |bencher, base| {
                bencher.iter(|| {
                    let mut tracker = base.clone();
                    let mut series = Vec::with_capacity(victims.len());
                    for &v in &victims {
                        tracker.remove(v).expect("victim alive");
                        series.push(tracker.summary().min);
                    }
                    black_box(series)
                });
            },
        );

        // Construction cost (the initial full sweep) — kept separate so the
        // one-off setup does not drown the live path.
        group.bench_with_input(
            BenchmarkId::new("batched_initial_sweep", format!("n{n}")),
            &g,
            |bencher, g| {
                bencher.iter(|| black_box(IncrementalConnectivity::new(g).summary().min));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive_resweep_campaign", format!("n{n}-T{budget}")),
            &g,
            |bencher, g| {
                bencher.iter(|| {
                    let mut removed = HashSet::new();
                    let mut series = Vec::with_capacity(victims.len());
                    for &v in &victims {
                        removed.insert(v);
                        series.push(full_resweep(g, &removed));
                    }
                    black_box(series)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
