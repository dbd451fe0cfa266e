//! Connectivity-analysis costs: the paper's c-sampling vs the full sweep,
//! cutoff pruning, rayon parallelism (the "cluster substitute") — and the
//! workspace-reuse refactor: one evaluator + one workspace swept over all
//! pairs versus rebuilding the Even network per pair.
//!
//! The `sweep_*` benches also report allocation counts via a counting
//! global allocator, demonstrating that the steady-state workspace sweep
//! performs **zero** per-pair allocations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kad_bench::support::overlay_graph;
use kad_resilience::pair::PairEvaluator;
use kad_resilience::sampled::sampled_connectivity;
use kad_resilience::AnalysisConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapped with an allocation counter, so benches can
/// report how many heap allocations a sweep performs.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn bench_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("connectivity");
    group.sample_size(10);
    let g = overlay_graph(120, 10, 11);

    let configs: [(&str, AnalysisConfig); 4] = [
        ("paper_c0.02", AnalysisConfig::default()),
        ("exact", AnalysisConfig::exact()),
        (
            "exact_cutoff",
            AnalysisConfig {
                use_cutoff: true,
                ..AnalysisConfig::exact()
            },
        ),
        (
            "exact_serial",
            AnalysisConfig {
                parallel: false,
                ..AnalysisConfig::exact()
            },
        ),
    ];
    for (name, config) in configs {
        group.bench_with_input(BenchmarkId::new(name, "n120-k10"), &g, |bencher, g| {
            bencher.iter(|| black_box(sampled_connectivity(g, &config).min));
        });
    }
    group.finish();
}

/// Workspace reuse against two baselines, same source set swept over all
/// targets:
///
/// * `workspace_reuse` — one evaluator whose Even network and scratch
///   buffers persist across pairs (the current hot path);
/// * `fresh_scratch_per_pair` — one Even network per *source* (what the
///   pre-refactor `map_init` sweep built per rayon worker) but solver
///   scratch allocated fresh for every pair, as `max_flow` used to do.
///   Closest honest emulation of the old hot path (its `O(m)` full reset
///   is not reproducible — resets are journaled now);
/// * `rebuild_per_pair` — the Even transformation rebuilt for every pair:
///   the per-call cost of the convenience `pair_connectivity` API, an
///   upper bound rather than the old sweep behaviour.
fn bench_workspace_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("pair_sweep");
    group.sample_size(10);
    for &(n, k) in &[(60usize, 8usize), (120, 10)] {
        let g = overlay_graph(n, k, 11);
        let sources: Vec<u32> = (0..4u32).collect();

        group.bench_with_input(
            BenchmarkId::new("workspace_reuse", format!("n{n}-k{k}")),
            &g,
            |bencher, g| {
                let mut eval = PairEvaluator::new(g);
                // Warm one full sweep so every buffer has reached its
                // steady-state capacity, then count allocations.
                sweep(&mut eval, &sources, g.node_count());
                let before = allocations();
                let mut sweeps = 0u64;
                bencher.iter(|| {
                    sweeps += 1;
                    black_box(sweep(&mut eval, &sources, g.node_count()))
                });
                let delta = allocations() - before;
                println!(
                    "  allocations during {sweeps} steady-state sweeps (n={n}): {delta} \
                     (zero per-pair ⇒ independent of the {} pairs swept)",
                    sweeps as usize * sources.len() * g.node_count()
                );
            },
        );

        group.bench_with_input(
            BenchmarkId::new("fresh_scratch_per_pair", format!("n{n}-k{k}")),
            &g,
            |bencher, g| {
                use flowgraph::even::EvenNetwork;
                use flowgraph::maxflow::Dinic;
                bencher.iter(|| {
                    let mut min = u64::MAX;
                    for &v in &sources {
                        // Pre-refactor per-worker cost: one Even build per
                        // source sweep…
                        let mut even = EvenNetwork::from_graph(g);
                        for w in 0..g.node_count() as u32 {
                            // …and fresh solver scratch per pair (the
                            // workspace-less compatibility entry point).
                            if let Some(flow) = even.vertex_connectivity(&Dinic::new(), v, w, None)
                            {
                                min = min.min(flow);
                            }
                        }
                    }
                    black_box(min)
                });
            },
        );

        group.bench_with_input(
            BenchmarkId::new("rebuild_per_pair", format!("n{n}-k{k}")),
            &g,
            |bencher, g| {
                bencher.iter(|| {
                    let mut min = u64::MAX;
                    for &v in &sources {
                        for w in 0..g.node_count() as u32 {
                            // Fresh Even network + solver scratch per pair.
                            let mut eval = PairEvaluator::new(g);
                            if let Some(flow) = eval.connectivity(v, w, None) {
                                min = min.min(flow);
                            }
                        }
                    }
                    black_box(min)
                });
            },
        );
    }
    group.finish();
}

fn sweep(eval: &mut PairEvaluator, sources: &[u32], n: usize) -> u64 {
    let mut min = u64::MAX;
    for &v in sources {
        for w in 0..n as u32 {
            if let Some(flow) = eval.connectivity(v, w, None) {
                min = min.min(flow);
            }
        }
    }
    min
}

criterion_group!(benches, bench_analysis, bench_workspace_reuse);
criterion_main!(benches);
