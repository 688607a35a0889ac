//! Adversarial shard-interleaving tests: the engine's parallel phase (the
//! scan, sharded over edge partitions; shuffle and apply run on the calling
//! thread) must produce bit-identical results no matter in which order the
//! worker shards complete.
//!
//! [`cutfit::util::exec::with_shard_permutation`] replays every pool
//! fan-out as a sequential run of the same shards in a seeded adversarial
//! order (fresh Fisher–Yates draw per fan-out, identical shard boundaries
//! and shard↔scratch-state pairing). Because disjoint-write phases make any
//! completion-order interleaving equivalent to *some* shard order, driving
//! whole algorithm runs through many random orders is a loom-style schedule
//! exploration at the granularity where our executor can actually race —
//! and debug builds additionally assert shard disjointness via the
//! `DisjointSlice` owner tracking.

use cutfit::prelude::*;
use cutfit::util::exec::with_shard_permutation;

fn graph_and_cut() -> (ClusterConfig, PartitionedGraph) {
    let graph = DatasetProfile::youtube().generate(0.002, 42);
    let pg = GraphXStrategy::EdgePartition2D.partition(&graph, 16);
    (ClusterConfig::paper_cluster(), pg)
}

fn opts(threads: usize) -> PregelConfig {
    PregelConfig {
        executor: ExecutorMode::Parallel { threads },
        ..Default::default()
    }
}

#[test]
fn pagerank_is_bit_identical_under_adversarial_shard_orders() {
    let (cluster, pg) = graph_and_cut();
    for threads in [1usize, 2, 4] {
        let baseline = pagerank(&pg, &cluster, 5, &opts(threads)).expect("baseline run");
        for seed in 0..5u64 {
            let permuted = with_shard_permutation(seed, || {
                pagerank(&pg, &cluster, 5, &opts(threads)).expect("permuted run")
            });
            // Bit-identical: float states compared exactly, accounting and
            // convergence included.
            assert_eq!(
                permuted.states, baseline.states,
                "threads={threads} seed={seed}"
            );
            assert_eq!(permuted.supersteps, baseline.supersteps);
            assert_eq!(permuted.converged, baseline.converged);
            assert_eq!(permuted.sim, baseline.sim, "threads={threads} seed={seed}");
        }
    }
}

#[test]
fn connected_components_is_bit_identical_under_adversarial_shard_orders() {
    let (cluster, pg) = graph_and_cut();
    for threads in [2usize, 4] {
        let baseline = connected_components(&pg, &cluster, 20, &opts(threads)).expect("baseline");
        for seed in [7u64, 1_000_003] {
            let permuted = with_shard_permutation(seed, || {
                connected_components(&pg, &cluster, 20, &opts(threads)).expect("permuted")
            });
            assert_eq!(permuted.states, baseline.states, "threads={threads}");
            assert_eq!(permuted.sim, baseline.sim);
        }
    }
}

#[test]
fn sssp_is_bit_identical_under_adversarial_shard_orders() {
    let (cluster, pg) = graph_and_cut();
    let landmarks = vec![0, 5, 17];
    let baseline = sssp(&pg, &cluster, landmarks.clone(), 30, &opts(4)).expect("baseline");
    for seed in 0..3u64 {
        let permuted = with_shard_permutation(seed, || {
            sssp(&pg, &cluster, landmarks.clone(), 30, &opts(4)).expect("permuted")
        });
        assert_eq!(permuted.states, baseline.states, "seed={seed}");
        assert_eq!(permuted.supersteps, baseline.supersteps);
        assert_eq!(permuted.sim, baseline.sim);
    }
}

#[test]
fn permutation_also_agrees_with_sequential_mode() {
    // Transitivity check pinning all three schedules to one another:
    // sequential, parallel, and permuted-parallel.
    let (cluster, pg) = graph_and_cut();
    let sequential = pagerank(
        &pg,
        &cluster,
        5,
        &PregelConfig {
            executor: ExecutorMode::Sequential,
            ..Default::default()
        },
    )
    .expect("sequential");
    let permuted = with_shard_permutation(99, || {
        pagerank(&pg, &cluster, 5, &opts(3)).expect("permuted")
    });
    assert_eq!(permuted.states, sequential.states);
    assert_eq!(permuted.sim, sequential.sim);
}
