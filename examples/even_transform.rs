//! Figure 1 of the paper, replayed: Even's vertex-splitting transformation
//! turns vertex connectivity into max flow.
//!
//! The 9-vertex example graph has maximum *edge* flow 3 from `a` to `i`,
//! but vertex connectivity 1 — all three edge-disjoint paths squeeze
//! through vertex `e`. The transformed graph exposes that bottleneck to any
//! max-flow solver.
//!
//! ```text
//! cargo run --release --example even_transform
//! ```

use kademlia_resilience::flowgraph::even::{unit_flow_network, EvenNetwork};
use kademlia_resilience::flowgraph::generators::paper_figure1;
use kademlia_resilience::flowgraph::maxflow::{Dinic, MaxFlow};
use kademlia_resilience::flowgraph::mincut::min_vertex_cut;
use kademlia_resilience::flowgraph::paths::vertex_disjoint_paths;

fn main() {
    let g = paper_figure1();
    let names = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];
    let (a, i) = (0u32, 8u32);

    println!(
        "Figure 1 example graph: {} vertices, {} edges",
        g.node_count(),
        g.edge_count()
    );
    for (u, v) in g.edges() {
        print!("{}→{} ", names[u as usize], names[v as usize]);
    }
    println!("\n");

    // (a) the original graph: maximum flow (edge connectivity) is 3.
    let mut unit = unit_flow_network(&g);
    let edge_flow = Dinic::new().max_flow(&mut unit, a, i, None);
    println!("max flow a→i in the original graph D:      {edge_flow}");

    // (b) the transformed graph: max flow equals vertex connectivity = 1.
    let mut even = EvenNetwork::from_graph(&g);
    let kappa = even
        .vertex_connectivity(&Dinic::new(), a, i, None)
        .expect("a and i are non-adjacent");
    println!("max flow a''→i' in the transformed D':     {kappa}");
    println!(
        "transformed sizes: {} vertices, {} arcs (paper: 2n and m+n)",
        even.network().node_count(),
        even.network().arc_count()
    );

    // Which vertex is the bottleneck?
    let cut = min_vertex_cut(&g, a, i).expect("non-adjacent");
    let cut_names: Vec<&str> = cut.vertices.iter().map(|&v| names[v as usize]).collect();
    println!("minimum vertex cut: {{{}}}", cut_names.join(", "));

    // And the Menger witness: the single vertex-disjoint path.
    let paths = vertex_disjoint_paths(&g, a, i).expect("non-adjacent");
    for path in &paths {
        let p: Vec<&str> = path.iter().map(|&v| names[v as usize]).collect();
        println!("node-disjoint path: {}", p.join(" → "));
    }
}
