//! Live-κ cost: the batched multi-pair max-flow engine against a per-pair
//! baseline on the min-only sweep the session engine runs every simulated
//! minute, plus the headline scale check — exact κ_min at n=1000 inside a
//! one-minute budget.
//!
//! The baseline lives here, not in the library: it runs plain [`Dinic`]
//! per pair through [`EvenNetwork::vertex_connectivity_with`] on rayon,
//! over the same smallest-out-degree sources with the same running-minimum
//! cutoff (clamped at 1) as the library sweep — exactly the work the
//! batched engine replaces.
//!
//! The `kappa` group is what the CI `kappa-perf-smoke` job parses out of
//! `BENCH_perf_kappa.json`: it fails the build if the batched engine's
//! best median falls behind the per-pair baseline's. Set
//! `PERF_KAPPA_QUICK=1` to shrink the sweep size and skip the n=1000
//! minute-budget check (CI smoke mode); the full run is the acceptance
//! benchmark.
//!
//! Both sweeps are asserted to find the same κ_min before timing
//! anything — the speedup is never allowed to buy a different answer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flowgraph::even::EvenNetwork;
use flowgraph::maxflow::{Dinic, FlowWorkspace};
use flowgraph::DiGraph;
use kad_bench::support::overlay_graph;
use kad_resilience::sampled::sampled_connectivity;
use kad_resilience::AnalysisConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// CI smoke mode: smaller overlay, no minute-budget check.
fn quick() -> bool {
    std::env::var("PERF_KAPPA_QUICK").is_ok_and(|v| v == "1")
}

/// The per-pair baseline: the library's min-only sweep (same sources,
/// same clamped running-minimum cutoff, rayon over sources) with plain
/// Dinic per pair instead of the batched engine.
fn per_pair_min_sweep(g: &DiGraph, config: &AnalysisConfig) -> u64 {
    let n = g.node_count();
    let sources: Vec<u32> = g
        .vertices_by_out_degree()
        .into_iter()
        .take(config.source_count(n))
        .collect();
    let global_min = AtomicU64::new(u64::MAX);
    let prototype = EvenNetwork::from_graph(g);
    let per_source: Vec<u64> = sources
        .par_iter()
        .map_init(
            || {
                (
                    prototype.clone(),
                    FlowWorkspace::for_network(prototype.network()),
                )
            },
            |(even, workspace), &v| {
                let mut local_min = u64::MAX;
                for w in 0..n as u32 {
                    let current = global_min.load(Ordering::Relaxed);
                    let cutoff = (current != u64::MAX).then(|| current.max(1));
                    let Some(flow) =
                        even.vertex_connectivity_with(&Dinic::new(), v, w, cutoff, workspace)
                    else {
                        continue;
                    };
                    if flow < local_min {
                        local_min = flow;
                        global_min.fetch_min(flow, Ordering::Relaxed);
                    }
                }
                local_min
            },
        )
        .collect();
    per_source.into_iter().min().unwrap_or(u64::MAX)
}

fn bench_min_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("kappa");
    group.sample_size(10);
    let n = if quick() { 96 } else { 256 };
    let g = overlay_graph(n, 10, 11);

    // The sweeps must agree before either is timed. κ_min is exact under
    // cutoff pruning, so this also pins the value the sampler publishes.
    let config = AnalysisConfig::min_only();
    let batched = sampled_connectivity(&g, &config);
    assert_eq!(
        batched.min,
        per_pair_min_sweep(&g, &config),
        "batched and per-pair sweeps must find the same κ_min"
    );
    println!(
        "  n={n}: κ_min={} over {} sources",
        batched.min, batched.sources_used
    );

    group.bench_with_input(
        BenchmarkId::new("batched_min_sweep", format!("n{n}")),
        &g,
        |bencher, g| {
            bencher.iter(|| black_box(sampled_connectivity(g, &config).min));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("per_pair_min_sweep", format!("n{n}")),
        &g,
        |bencher, g| {
            bencher.iter(|| black_box(per_pair_min_sweep(g, &config)));
        },
    );
    group.finish();
}

/// The acceptance check from the κ-engine PR: one per-minute κ_min sweep
/// at n=1000 (k=20 symmetric overlay, the paper's larger network size
/// scaled 2.5×) must fit inside the simulated minute it accounts for.
fn bench_live_minute(c: &mut Criterion) {
    if quick() {
        println!("  PERF_KAPPA_QUICK=1: skipping the n=1000 minute-budget check");
        return;
    }
    let n = 1000usize;
    let mut rng = SmallRng::seed_from_u64(11);
    let g = flowgraph::generators::random_k_out_symmetric(n, 20, &mut rng);
    let config = AnalysisConfig::min_only();

    // One-shot wall-clock budget: a live sampler charges one sweep per
    // simulated minute, so the sweep must cost well under 60 s.
    let start = Instant::now();
    let sweep = sampled_connectivity(&g, &config);
    let elapsed = start.elapsed();
    println!(
        "  n={n}: κ_min={} in {:.2?} (budget: one simulated minute)",
        sweep.min, elapsed
    );
    assert!(
        elapsed.as_secs() < 60,
        "per-minute κ at n={n} took {elapsed:.2?} — over the one-minute budget"
    );

    let mut group = c.benchmark_group("kappa");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("live_minute_kappa", format!("n{n}")),
        &g,
        |bencher, g| {
            bencher.iter(|| black_box(sampled_connectivity(g, &config).min));
        },
    );
    group.finish();
}

criterion_group!(benches, bench_min_sweep, bench_live_minute);
criterion_main!(benches);
