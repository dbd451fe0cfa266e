//! End-to-end integration tests spanning every crate: simulate → snapshot
//! → transform → max-flow → resilience, exactly the paper's pipeline.

use kademlia_resilience::dessim::time::{SimDuration, SimTime};
use kademlia_resilience::dessim::transport::Transport;
use kademlia_resilience::flowgraph::even::EvenNetwork;
use kademlia_resilience::flowgraph::maxflow::EdmondsKarp;
use kademlia_resilience::kad_resilience::{analyze_snapshot, snapshot_to_digraph, AnalysisConfig};
use kademlia_resilience::kademlia::config::KademliaConfig;
use kademlia_resilience::kademlia::network::SimNetwork;
use kademlia_resilience::prelude::*;

fn stabilized_network(n: usize, k: usize, seed: u64) -> SimNetwork {
    let config = KademliaConfig::builder()
        .bits(64)
        .k(k)
        .staleness_limit(1)
        .build()
        .expect("valid config");
    let mut net = SimNetwork::new(config, Transport::default(), seed);
    let mut prev = None;
    for _ in 0..n {
        let addr = net.spawn_node();
        net.join(addr, prev);
        prev = Some(addr);
        net.run_until(net.now() + SimDuration::from_secs(20));
    }
    net.run_until(SimTime::from_minutes(120));
    net
}

#[test]
fn stabilized_network_has_connectivity_near_k() {
    // Paper, Simulations A-D: "the connectivity is roughly k" after
    // stabilization.
    let net = stabilized_network(50, 10, 1);
    let report = analyze_snapshot(&net.snapshot(), &AnalysisConfig::exact());
    assert!(
        report.min_connectivity >= 8,
        "κ_min = {} should be near k = 10",
        report.min_connectivity
    );
    let avg = report
        .avg_connectivity
        .expect("exact sweep reports an average");
    assert!(
        avg >= report.min_connectivity as f64,
        "average cannot be below minimum"
    );
}

#[test]
fn connectivity_graph_is_near_undirected() {
    // Paper, Section 5.2: "the connectivity graphs come very close to
    // being undirected" — the justification for smallest-out-degree
    // sampling.
    // Without data traffic the tables are mostly — not perfectly —
    // symmetric (full buckets drop reverse edges); traffic pushes
    // reciprocity higher still (see pipeline tests in kad-resilience).
    let net = stabilized_network(60, 8, 2);
    let g = snapshot_to_digraph(&net.snapshot());
    assert!(
        g.reciprocity() > 0.7,
        "reciprocity {} too low for the sampling argument",
        g.reciprocity()
    );
}

#[test]
fn engine_matches_oracle_on_a_real_snapshot() {
    // The batched engine against a brute-force Edmonds–Karp sweep on an
    // actual overlay graph, not just synthetic networks: identical minimum,
    // average and pair count.
    let net = stabilized_network(40, 6, 3);
    let snap = net.snapshot();
    let report = analyze_snapshot(&snap, &AnalysisConfig::exact());
    let g = snapshot_to_digraph(&snap);
    let n = g.node_count() as u32;
    let mut even = EvenNetwork::from_graph(&g);
    let flows: Vec<u64> = (0..n)
        .flat_map(|v| (0..n).map(move |w| (v, w)))
        .filter_map(|(v, w)| even.vertex_connectivity(&EdmondsKarp::new(), v, w, None))
        .collect();
    assert_eq!(report.pairs_evaluated, flows.len());
    assert_eq!(
        report.min_connectivity,
        *flows.iter().min().expect("non-adjacent pairs")
    );
    let avg = flows.iter().sum::<u64>() as f64 / flows.len() as f64;
    let got = report
        .avg_connectivity
        .expect("full sweep reports an average");
    assert!((got - avg).abs() < 1e-9, "{got} vs {avg}");
}

#[test]
fn churn_and_recovery_cycle() {
    // Remove a fifth of the network, let the staleness limit clean the
    // tables up under traffic, verify the survivors stay connected.
    let mut net = stabilized_network(50, 10, 4);
    let before = analyze_snapshot(&net.snapshot(), &AnalysisConfig::default());
    assert!(before.min_connectivity > 0);

    let victims: Vec<_> = net.alive_addrs().into_iter().take(10).collect();
    for v in victims {
        net.remove_node(v);
    }
    // Drive traffic so failures are detected and tables rewire.
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(404);
    let survivors = net.alive_addrs();
    for round in 0..30u64 {
        for &addr in survivors.iter().step_by(3) {
            let target =
                kademlia_resilience::kademlia::id::NodeId::random(&mut rng, net.config().bits);
            net.start_lookup(addr, target);
        }
        net.run_until(net.now() + SimDuration::from_secs(30 + round));
    }
    let after = analyze_snapshot(&net.snapshot(), &AnalysisConfig::default());
    assert_eq!(after.node_count, 40);
    assert!(
        after.strongly_connected,
        "survivors should remain mutually reachable: {after}"
    );
}

#[test]
fn even_transform_agrees_with_attack_reality_on_snapshot() {
    // The computed κ is not just a number: removing fewer vertices than κ
    // can never disconnect the snapshot graph.
    use kademlia_resilience::kad_resilience::attack::{simulate_attack, AttackStrategy};
    use rand::SeedableRng;
    let net = stabilized_network(36, 6, 5);
    let g = snapshot_to_digraph(&net.snapshot());
    let report = analyze_snapshot(&net.snapshot(), &AnalysisConfig::exact());
    let kappa = report.min_connectivity;
    assert!(kappa > 0);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
    for _ in 0..25 {
        let outcome = simulate_attack(&g, (kappa - 1) as usize, AttackStrategy::Random, &mut rng)
            .expect("budget κ−1 < n");
        assert!(
            outcome.survivors_connected,
            "attack below κ disconnected the network"
        );
    }
}

#[test]
fn scenario_runner_full_pipeline() {
    let scenario = ScenarioBuilder::quick(32, 8).seed(17).build();
    let outcome = run_scenario(&scenario);
    assert!(!outcome.snapshots.is_empty());
    let last = outcome.snapshots.last().expect("non-empty");
    assert_eq!(last.network_size, 32);
    assert!(last.report.min_connectivity > 0);
    assert!(outcome.counters.get("msg_sent") > 1000);
}

#[test]
fn umbrella_prelude_compiles_and_runs() {
    let config = KademliaConfig::default();
    assert_eq!(config.k, 20);
    let scenario = ScenarioBuilder::quick(16, 4).build();
    let outcome = run_scenario(&scenario);
    let report: &ConnectivityReport = &outcome.snapshots.last().expect("snapshot").report;
    assert!(report.node_count == 16);
}
