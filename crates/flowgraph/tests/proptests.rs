//! Property-based tests for the flow/connectivity machinery.
//!
//! The central properties: the max-flow engine agrees with the Edmonds–Karp
//! reference oracle, and the Even-transform connectivity obeys Menger's
//! theorem — the number of vertex-disjoint paths found equals the flow
//! value equals the size of a verified vertex cut.

use flowgraph::digraph::DiGraph;
use flowgraph::even::{EdgeCapacity, EvenNetwork};
use flowgraph::generators;
use flowgraph::maxflow::{BatchedDinic, Dinic, EdmondsKarp, FlowNetwork, FlowWorkspace, MaxFlow};
use flowgraph::mincut::{cut_disconnects, min_vertex_cut};
use flowgraph::paths::{validate_disjoint_paths, vertex_disjoint_paths};
use flowgraph::scc::{is_strongly_connected, strongly_connected_components};
use proptest::prelude::*;

/// Strategy: a random digraph with up to `n` vertices and arbitrary edges.
fn arb_digraph(max_n: usize) -> impl Strategy<Value = DiGraph> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 4)
            .prop_map(move |edges| DiGraph::from_edges(n, edges))
    })
}

/// Strategy: a random flow network with capacities.
fn arb_network(max_n: usize) -> impl Strategy<Value = (FlowNetwork, u32, u32)> {
    (2..=max_n).prop_flat_map(|n| {
        let arcs = proptest::collection::vec((0..n as u32, 0..n as u32, 1u64..50), 1..n * 3);
        arcs.prop_map(move |arcs| {
            let mut net = FlowNetwork::new(n);
            for (u, v, c) in arcs {
                if u != v {
                    net.add_arc(u, v, c);
                }
            }
            (net, 0, n as u32 - 1)
        })
    })
}

/// Strategy: a general flow network — non-unit capacities, and arcs that
/// may come with an antiparallel partner of a different capacity.
fn arb_general_network(max_n: usize) -> impl Strategy<Value = FlowNetwork> {
    (2..=max_n).prop_flat_map(|n| {
        let arcs = proptest::collection::vec(
            (0..n as u32, 0..n as u32, 1u64..20, any::<bool>()),
            0..n * 3,
        );
        arcs.prop_map(move |arcs| {
            let mut net = FlowNetwork::new(n);
            for (u, v, c, antiparallel) in arcs {
                if u != v {
                    net.add_arc(u, v, c);
                    if antiparallel {
                        net.add_arc(v, u, c % 7 + 1);
                    }
                }
            }
            net
        })
    })
}

/// Recounts, from the public arc lists, the reverse stubs (odd arc ids)
/// leaving each vertex with positive residual.
fn recount_open_stubs(net: &FlowNetwork) -> Vec<u32> {
    (0..net.node_count() as u32)
        .map(|v| {
            let open = net
                .arcs_from(v)
                .iter()
                .filter(|&&a| a % 2 == 1 && net.residual(a) > 0);
            open.count() as u32
        })
        .collect()
}

/// Checks the per-vertex kernel state against a recount: every vertex
/// lists its forward arcs ahead of its stubs, its open-stub count is
/// exact, and `scan_arcs` holds every arc with positive residual.
fn check_kernel_state(net: &FlowNetwork) -> Result<(), TestCaseError> {
    let recount = recount_open_stubs(net);
    for v in 0..net.node_count() as u32 {
        let arcs = net.arcs_from(v);
        let forward = arcs.iter().take_while(|&&a| a % 2 == 0).count();
        prop_assert!(
            arcs[forward..].iter().all(|&a| a % 2 == 1),
            "vertex {} lists a forward arc after a stub: {:?}",
            v,
            arcs
        );
        prop_assert_eq!(
            net.open_stub_count(v),
            recount[v as usize],
            "open stubs of {}",
            v
        );
        let scanned = net.scan_arcs(v);
        prop_assert!(
            arcs.starts_with(scanned),
            "scan_arcs({}) is a prefix of arcs_from",
            v
        );
        for &a in &arcs[scanned.len()..] {
            prop_assert_eq!(net.residual(a), 0, "skipped arc {} of {} is open", a, v);
        }
    }
    Ok(())
}

/// Checks a possibly cut-off flow value against the oracle's exact one.
fn check_against_oracle(
    got: u64,
    exact: u64,
    cutoff: Option<u64>,
    what: &str,
) -> Result<(), TestCaseError> {
    match cutoff {
        Some(c) if exact >= c => {
            prop_assert!(
                got >= c && got <= exact,
                "{}: {} outside [{}, {}]",
                what,
                got,
                c,
                exact
            );
        }
        _ => prop_assert_eq!(got, exact, "{}", what),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The target-bounded kernels and their per-vertex stub counts stay
    /// exact under any interleaving of batched and per-pair flows (varying
    /// source, sink and cutoff), flows resumed on a network that already
    /// carries a cut-off flow, base-capacity edits of forward arcs and stubs
    /// alike, arc insertions and resets. After every step the value matches
    /// Edmonds–Karp on a fresh clone and the open-stub counts match a
    /// recount.
    #[test]
    fn kernel_state_survives_interleaved_edits(
        net in arb_general_network(10),
        steps in proptest::collection::vec((0u32..6, 0u32..64, 0u32..64, 0u64..8), 1..24),
    ) {
        let mut net = net;
        let mut engine = BatchedDinic::new();
        let mut ws = FlowWorkspace::new();
        check_kernel_state(&net)?;
        for (kind, a, b, c) in steps {
            let n = net.node_count() as u32;
            let (s, t) = (a % n, b % n);
            // Cutoff 0 and 1 are common in κ_min sweeps; 7 means none.
            let cutoff = (c < 7).then_some(c);
            match kind {
                0 | 1 if s != t => {
                    net.reset();
                    let mut oracle_net = net.clone();
                    let exact = EdmondsKarp::new().max_flow(&mut oracle_net, s, t, None);
                    let (got, what) = if kind == 0 {
                        (engine.max_flow(&mut net, s, t, cutoff, &mut ws), "batched")
                    } else {
                        (Dinic::new().max_flow_with(&mut net, s, t, cutoff, &mut ws), "dinic")
                    };
                    check_against_oracle(got, exact, cutoff, what)?;
                }
                2 if s != t => {
                    // Finish a cut-off flow without resetting: the second
                    // run starts from open stubs and must add exactly the
                    // missing units.
                    net.reset();
                    let mut oracle_net = net.clone();
                    let exact = EdmondsKarp::new().max_flow(&mut oracle_net, s, t, None);
                    let dinic = Dinic::new();
                    let first = dinic.max_flow_with(&mut net, s, t, cutoff, &mut ws);
                    check_kernel_state(&net)?;
                    let rest = dinic.max_flow_with(&mut net, s, t, None, &mut ws);
                    check_against_oracle(first + rest, exact, None, "resumed dinic")?;
                }
                3 if net.arc_count() > 0 => {
                    net.reset();
                    let arc = a % (2 * net.arc_count() as u32);
                    net.set_base_capacity(arc, c % 4);
                }
                4 if s != t => {
                    net.reset();
                    net.add_arc(s, t, c + 1);
                }
                5 => net.reset(),
                _ => {}
            }
            check_kernel_state(&net)?;
        }
    }

    /// Dinic computes the oracle's max-flow value on arbitrary networks.
    #[test]
    fn solvers_agree((net, s, t) in arb_network(12)) {
        let mut a = net.clone();
        let mut b = net;
        let fa = Dinic::new().max_flow(&mut a, s, t, None);
        let fb = EdmondsKarp::new().max_flow(&mut b, s, t, None);
        prop_assert_eq!(fa, fb);
    }

    /// Max flow equals the capacity across the residual-reachability cut.
    #[test]
    fn max_flow_equals_min_cut((net, s, t) in arb_network(12)) {
        let mut work = net.clone();
        let flow = Dinic::new().max_flow(&mut work, s, t, None);
        let reach = work.residual_reachable(s);
        prop_assert!(reach[s as usize]);
        // If the sink were still reachable there would be an augmenting
        // path — the flow would not be maximal.
        prop_assert!(!reach[t as usize]);
        let mut cut = 0u64;
        for u in 0..work.node_count() as u32 {
            if !reach[u as usize] { continue; }
            for &arc in work.arcs_from(u) {
                if arc % 2 == 0 && !reach[work.arc_head(arc) as usize] {
                    cut += work.residual(arc) + work.flow(arc);
                }
            }
        }
        prop_assert_eq!(cut, flow);
    }

    /// Cutoff runs return a certified lower bound, never exceeding the
    /// true maximum.
    #[test]
    fn cutoff_is_sound((net, s, t) in arb_network(10), cutoff in 0u64..20) {
        let mut exact_net = net.clone();
        let exact = EdmondsKarp::new().max_flow(&mut exact_net, s, t, None);
        for solver in [&Dinic::new() as &dyn MaxFlow, &EdmondsKarp::new()] {
            let mut work = net.clone();
            let bounded = solver.max_flow(&mut work, s, t, Some(cutoff));
            prop_assert!(bounded <= exact, "{}: {} > {}", solver.name(), bounded, exact);
            if exact >= cutoff {
                prop_assert!(bounded >= cutoff, "{}: {} < cutoff {}", solver.name(), bounded, cutoff);
            } else {
                prop_assert_eq!(bounded, exact, "below cutoff the value is exact");
            }
        }
    }

    /// Even-transform: unit and infinite edge capacities give the same
    /// κ(v,w) for every non-adjacent pair.
    #[test]
    fn even_edge_capacity_equivalence(g in arb_digraph(9)) {
        let mut unit = EvenNetwork::from_graph(&g);
        let mut inf = EvenNetwork::with_edge_capacity(&g, EdgeCapacity::Infinite);
        for v in 0..g.node_count() as u32 {
            for w in 0..g.node_count() as u32 {
                prop_assert_eq!(
                    unit.vertex_connectivity(&Dinic::new(), v, w, None),
                    inf.vertex_connectivity(&Dinic::new(), v, w, None)
                );
            }
        }
    }

    /// Menger's theorem end-to-end: κ(v,w) == number of vertex-disjoint
    /// paths == size of a verified vertex cut.
    #[test]
    fn menger_chain(g in arb_digraph(9)) {
        let mut even = EvenNetwork::from_graph(&g);
        for v in 0..g.node_count() as u32 {
            for w in 0..g.node_count() as u32 {
                let Some(kappa) = even.vertex_connectivity(&Dinic::new(), v, w, None) else {
                    continue;
                };
                let paths = vertex_disjoint_paths(&g, v, w).expect("same adjacency");
                prop_assert_eq!(paths.len() as u64, kappa);
                prop_assert!(validate_disjoint_paths(&g, v, w, &paths).is_ok());
                let cut = min_vertex_cut(&g, v, w).expect("same adjacency");
                prop_assert_eq!(cut.connectivity, kappa);
                prop_assert_eq!(cut.vertices.len() as u64, kappa);
                prop_assert!(cut_disconnects(&g, v, w, &cut.vertices));
            }
        }
    }

    /// κ(v,w) is bounded by out-degree of v and in-degree of w.
    #[test]
    fn kappa_degree_bounds(g in arb_digraph(10)) {
        let mut even = EvenNetwork::from_graph(&g);
        for v in 0..g.node_count() as u32 {
            for w in 0..g.node_count() as u32 {
                if let Some(kappa) = even.vertex_connectivity(&Dinic::new(), v, w, None) {
                    prop_assert!(kappa <= g.out_degree(v) as u64);
                    prop_assert!(kappa <= g.in_degree(w) as u64);
                }
            }
        }
    }

    /// SCC decomposition agrees with pairwise positive connectivity: two
    /// vertices are in the same SCC iff flow both ways is positive.
    #[test]
    fn scc_matches_positive_flow(g in arb_digraph(8)) {
        let scc = strongly_connected_components(&g);
        let mut even = EvenNetwork::from_graph(&g);
        for v in 0..g.node_count() as u32 {
            for w in 0..g.node_count() as u32 {
                if v == w { continue; }
                let vw = g.has_edge(v, w)
                    || even.vertex_connectivity(&Dinic::new(), v, w, None).expect("non-adjacent") > 0;
                let wv = g.has_edge(w, v)
                    || even.vertex_connectivity(&Dinic::new(), w, v, None).expect("non-adjacent") > 0;
                let same = scc.component[v as usize] == scc.component[w as usize];
                prop_assert_eq!(same, vw && wv, "pair ({}, {})", v, w);
            }
        }
    }

    /// Generators produce what they promise.
    #[test]
    fn generator_invariants(n in 3usize..30, k in 1usize..5, seed in 0u64..1000) {
        prop_assume!(k < n);
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let g = generators::random_k_out(n, k, &mut rng);
        for v in 0..n as u32 {
            prop_assert_eq!(g.out_degree(v), k);
        }
        let sym = generators::random_k_out_symmetric(n, k, &mut rng);
        prop_assert_eq!(sym.reciprocity(), 1.0);
        let cyc = generators::bidirected_cycle(n);
        prop_assert!(is_strongly_connected(&cyc));
    }

    /// Dinic agrees with the oracle on random digraphs when both share one
    /// reused `FlowWorkspace` across every pair of an Even network.
    #[test]
    fn workspace_solvers_agree(g in arb_digraph(10)) {
        let mut workspace = FlowWorkspace::new();
        let mut dinic = EvenNetwork::from_graph(&g);
        let mut oracle = EvenNetwork::from_graph(&g);
        for v in 0..g.node_count() as u32 {
            for w in 0..g.node_count() as u32 {
                let got = dinic.vertex_connectivity_with(&Dinic::new(), v, w, None, &mut workspace);
                let expected =
                    oracle.vertex_connectivity_with(&EdmondsKarp::new(), v, w, None, &mut workspace);
                prop_assert_eq!(got, expected, "dinic vs edmonds-karp ({}, {})", v, w);
            }
        }
    }

    /// Workspace reuse across many pairs matches fresh-solver results: one
    /// network + one workspace swept over every pair must equal a brand-new
    /// network and workspace per pair.
    #[test]
    fn workspace_reuse_matches_fresh(g in arb_digraph(9)) {
        let mut reused_net = EvenNetwork::from_graph(&g);
        let mut reused_ws = FlowWorkspace::for_network(reused_net.network());
        for v in 0..g.node_count() as u32 {
            for w in 0..g.node_count() as u32 {
                let reused =
                    reused_net.vertex_connectivity_with(&Dinic::new(), v, w, None, &mut reused_ws);
                let mut fresh_net = EvenNetwork::from_graph(&g);
                let mut fresh_ws = FlowWorkspace::new();
                let fresh =
                    fresh_net.vertex_connectivity_with(&Dinic::new(), v, w, None, &mut fresh_ws);
                prop_assert_eq!(reused, fresh, "pair ({}, {})", v, w);
            }
        }
    }

    /// The journaled O(touched) reset is exact: after any flow computation,
    /// reset restores the network to its freshly-built state.
    #[test]
    fn journaled_reset_is_exact((net, s, t) in arb_network(12)) {
        let mut work = net.clone();
        Dinic::new().max_flow(&mut work, s, t, None);
        work.reset();
        prop_assert_eq!(&work, &net);
        EdmondsKarp::new().max_flow(&mut work, s, t, None);
        work.reset();
        prop_assert_eq!(&work, &net);
    }

    /// The batched engine equals the per-pair oracle on raw random flow
    /// networks — including the level-graph-reuse path, which a
    /// source-major pair order exercises deliberately.
    #[test]
    fn batched_matches_per_pair_solvers((net, _, _) in arb_network(12)) {
        let mut engine = BatchedDinic::new();
        let mut ws = FlowWorkspace::new();
        let n = net.node_count() as u32;
        for s in 0..n {
            for t in 0..n {
                if s == t {
                    continue;
                }
                let mut per_pair = net.clone();
                let expected = EdmondsKarp::new().max_flow(&mut per_pair, s, t, None);
                let mut shared = net.clone();
                let got = engine.max_flow(&mut shared, s, t, None, &mut ws);
                prop_assert_eq!(got, expected, "batched vs edmonds-karp ({}, {})", s, t);
            }
        }
    }

    /// Batched cutoff runs obey the same certified-lower-bound contract as
    /// the per-pair algorithms.
    #[test]
    fn batched_cutoff_is_sound((net, s, t) in arb_network(10), cutoff in 0u64..20) {
        let mut exact_net = net.clone();
        let exact = EdmondsKarp::new().max_flow(&mut exact_net, s, t, None);
        let mut engine = BatchedDinic::new();
        let mut ws = FlowWorkspace::new();
        let mut work = net.clone();
        let bounded = engine.max_flow(&mut work, s, t, Some(cutoff), &mut ws);
        prop_assert!(bounded <= exact);
        if exact >= cutoff {
            prop_assert!(bounded >= cutoff);
        } else {
            prop_assert_eq!(bounded, exact, "below cutoff the value is exact");
        }
    }

    /// Graph mutation invariants: removing an edge never increases
    /// reachability; re-adding restores the graph exactly.
    #[test]
    fn edge_removal_roundtrip(g in arb_digraph(10)) {
        let edges: Vec<(u32, u32)> = g.edges().collect();
        prop_assume!(!edges.is_empty());
        let mut h = g.clone();
        let (u, v) = edges[edges.len() / 2];
        prop_assert!(h.remove_edge(u, v));
        prop_assert!(!h.has_edge(u, v));
        h.add_edge(u, v);
        prop_assert_eq!(h, g);
    }
}
