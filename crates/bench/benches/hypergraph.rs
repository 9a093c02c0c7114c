//! Timing benches for the multilevel hypergraph partitioner (the
//! hMetis substitute) on random hypergraphs.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::hypergraph::{Hypergraph, HypergraphBuilder, PartitionConfig};
use soctam_bench::harness::{bench, samples};
use soctam_exec::Rng;

fn random_hypergraph(vertices: u32, edges: u32, seed: u64) -> Hypergraph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut builder = HypergraphBuilder::new();
    for _ in 0..vertices {
        builder.add_vertex(rng.range_u64_inclusive(1, 40));
    }
    for _ in 0..edges {
        let len = rng.range_usize_inclusive(2, 5);
        let pins: Vec<u32> = (0..len).map(|_| rng.range_u32(0, vertices)).collect();
        if pins.iter().collect::<std::collections::BTreeSet<_>>().len() >= 2 {
            builder
                .add_edge(rng.range_u64_inclusive(1, 20), &pins)
                .expect("pins in range");
        }
    }
    builder.build()
}

fn main() {
    let samples = samples(10);
    for (vertices, edges) in [(32u32, 200u32), (128, 1_000), (512, 4_000)] {
        let hg = random_hypergraph(vertices, edges, 7);
        for parts in [2u32, 8] {
            let config = PartitionConfig::new(parts).with_seed(3);
            bench(
                &format!("hypergraph_partition/v{vertices}_e{edges}/{parts}"),
                samples,
                || hg.partition(&config).expect("partitions"),
            );
        }
    }
}
