//! Superstep-throughput microbench for the rebuilt engine hot path:
//! PageRank on an RMAT graph over a 16-partition 2D cut, sequential vs
//! `Parallel{4}` vs `Auto`. The reported element rate is **supersteps per
//! second** — the figure of merit for the paper's argument that partitioning
//! quality surfaces as superstep execution time.
//!
//! Defaults to RMAT scale 16 (65 536 vertices, ~500 k edges), the acceptance
//! workload for the engine's scan-index/buffer-reuse hot path; set
//! `CUTFIT_BENCH_RMAT_SCALE` to run a smaller graph (CI uses 12 as a
//! non-gating perf trajectory signal).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cutfit_core::prelude::*;

/// Message supersteps per measured run (plus one setup superstep).
const ITERATIONS: u64 = 3;

fn rmat_scale() -> u32 {
    std::env::var("CUTFIT_BENCH_RMAT_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

fn bench_superstep_throughput(c: &mut Criterion) {
    let scale = rmat_scale();
    let config = cutfit_core::datagen::RmatConfig {
        scale,
        edges: (1u64 << scale) * 8,
        ..Default::default()
    };
    let graph = cutfit_core::datagen::rmat(&config, 42);
    let pg = GraphXStrategy::EdgePartition2D.partition(&graph, 16);
    let cluster = ClusterConfig::paper_cluster();

    let mut group = c.benchmark_group(format!("superstep_throughput/rmat{scale}"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(ITERATIONS + 1)); // supersteps/sec
    for (label, executor) in [
        ("sequential", ExecutorMode::Sequential),
        ("parallel-4", ExecutorMode::Parallel { threads: 4 }),
        ("auto", ExecutorMode::Auto),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &executor,
            |b, &executor| {
                b.iter(|| {
                    cutfit_core::algorithms::pagerank(
                        &pg,
                        &cluster,
                        ITERATIONS,
                        &PregelConfig {
                            executor,
                            ..Default::default()
                        },
                    )
                    .expect("fits in memory")
                })
            },
        );
    }
    group.finish();
}

/// The locality ablation for the ingestion pipeline's relabeling options:
/// the same RMAT graph under four vertex orderings — natural (generator
/// order), adversarially shuffled, BFS relabeled, and degree relabeled
/// (hubs first) — each cut by the same 2D strategy and driven through the
/// same PageRank supersteps. Orderings change *which* vertices collocate
/// under locality-sensitive hashing and how sequential the engine's
/// per-partition tables are scanned, so the superstep rate quantifies the
/// cache-locality value of relabeling at ingestion time.
fn bench_relabel_locality(c: &mut Criterion) {
    let scale = rmat_scale();
    let config = cutfit_core::datagen::RmatConfig {
        scale,
        edges: (1u64 << scale) * 8,
        ..Default::default()
    };
    let natural = cutfit_core::datagen::rmat(&config, 42);
    let orderings: [(&str, Graph); 4] = [
        (
            "shuffled",
            cutfit_core::datagen::relabel::shuffle_ids(&natural, 7),
        ),
        ("bfs", cutfit_core::datagen::relabel::bfs_relabel(&natural)),
        (
            "degree",
            cutfit_core::datagen::relabel::degree_relabel(&natural),
        ),
        ("natural", natural),
    ];
    let cluster = ClusterConfig::paper_cluster();

    let mut group = c.benchmark_group(format!("relabel_locality/rmat{scale}"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(ITERATIONS + 1));
    for (label, graph) in &orderings {
        let pg = GraphXStrategy::EdgePartition2D.partition(graph, 16);
        group.bench_with_input(BenchmarkId::from_parameter(*label), &pg, |b, pg| {
            b.iter(|| {
                cutfit_core::algorithms::pagerank(
                    pg,
                    &cluster,
                    ITERATIONS,
                    &PregelConfig {
                        executor: ExecutorMode::Sequential,
                        ..Default::default()
                    },
                )
                .expect("fits in memory")
            })
        });
    }
    group.finish();
}

/// Top-`k` in-degree vertices: SSSP distance propagates along *reverse*
/// edges, so the biggest in-degree hubs are landmarks the whole graph can
/// actually reach (hash-picked landmarks on an RMAT graph tend to have no
/// in-neighbors and converge in one superstep, which benchmarks nothing).
fn hub_landmarks(graph: &Graph, k: usize) -> Vec<VertexId> {
    let mut by_in_degree: Vec<(u32, VertexId)> = graph
        .in_degrees()
        .iter()
        .enumerate()
        .map(|(v, &d)| (d, v as VertexId))
        .collect();
    by_in_degree.sort_unstable_by_key(|&(d, v)| (std::cmp::Reverse(d), v));
    by_in_degree.iter().take(k).map(|&(_, v)| v).collect()
}

/// Frontier-driven execution on converging algorithms, on both frontier
/// regimes: SSSP and CC to fixpoint on an RMAT graph (short diameter, the
/// tail is a few supersteps) and SSSP on a road network (huge diameter,
/// the tail is hundreds of supersteps — the paper's SSSP-hostile shape).
/// Dense pays O(V + E) per superstep forever; `Sparse`/`Auto` pay
/// O(active) once the wavefront shrinks, so the dense-vs-auto gap is the
/// direct measure of what the frontier protocol buys (results are pinned
/// bit-identical across modes by `tests/frontier.rs`, so only time moves).
fn bench_frontier(c: &mut Criterion) {
    let scale = rmat_scale();
    let config = cutfit_core::datagen::RmatConfig {
        scale,
        edges: (1u64 << scale) * 8,
        ..Default::default()
    };
    let graph = cutfit_core::datagen::rmat(&config, 42);
    let landmarks = hub_landmarks(&graph, 3);
    let pg = GraphXStrategy::EdgePartition2D.partition(&graph, 16);

    // Road scale tracks the RMAT scale so CI's smaller setting stays fast:
    // scale 16 → ~21.5 k vertices and a ~260-superstep wavefront.
    let road_scale = 0.02 * (1u64 << scale) as f64 / (1u64 << 16) as f64;
    let road_profile = cutfit_core::datagen::DatasetProfile::road_net_pa();
    let road = road_profile.generate(road_scale, 42);
    let road_pg = GraphXStrategy::EdgePartition2D.partition(&road, 16);

    let cluster = ClusterConfig::paper_cluster();
    let modes = [
        ("dense", ScanMode::Dense),
        ("sparse", ScanMode::Sparse),
        ("auto", ScanMode::Auto),
    ];
    let opts_for = |scan_mode| PregelConfig {
        executor: ExecutorMode::Sequential,
        scan_mode,
        // Long runs accrue shuffle lineage; periodic checkpoints truncate
        // it so the simulated road-network run doesn't OOM the cluster.
        checkpoint_interval: Some(25),
        ..Default::default()
    };

    let mut group = c.benchmark_group(format!("frontier/rmat{scale}"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(1)); // whole runs/sec
    for (label, scan_mode) in modes {
        let opts = opts_for(scan_mode);
        group.bench_with_input(BenchmarkId::new("sssp", label), &opts, |b, opts| {
            b.iter(|| {
                cutfit_core::algorithms::sssp(&pg, &cluster, landmarks.clone(), 10_000, opts)
                    .expect("fits in memory")
            })
        });
        group.bench_with_input(BenchmarkId::new("cc", label), &opts, |b, opts| {
            b.iter(|| {
                cutfit_core::algorithms::connected_components(&pg, &cluster, 10_000, opts)
                    .expect("fits in memory")
            })
        });
        group.bench_with_input(BenchmarkId::new("road-sssp", label), &opts, |b, opts| {
            b.iter(|| {
                cutfit_core::algorithms::sssp(&road_pg, &cluster, vec![0], 10_000, opts)
                    .expect("fits in memory")
            })
        });
    }
    group.finish();

    // Frontier-shape counters next to the timings (fractions scaled ×1000,
    // identical across scan modes by construction).
    for (algo, profile) in [
        (
            "sssp",
            cutfit_core::algorithms::sssp(
                &pg,
                &cluster,
                landmarks.clone(),
                10_000,
                &opts_for(ScanMode::Auto),
            )
            .expect("fits in memory")
            .sim
            .frontier_profile(),
        ),
        (
            "cc",
            cutfit_core::algorithms::connected_components(
                &pg,
                &cluster,
                10_000,
                &opts_for(ScanMode::Auto),
            )
            .expect("fits in memory")
            .sim
            .frontier_profile(),
        ),
        (
            "road-sssp",
            cutfit_core::algorithms::sssp(
                &road_pg,
                &cluster,
                vec![0],
                10_000,
                &opts_for(ScanMode::Auto),
            )
            .expect("fits in memory")
            .sim
            .frontier_profile(),
        ),
    ] {
        let base = format!("frontier/rmat{scale}/{algo}");
        cutfit_bench::summary::record_count(&format!("{base}/supersteps"), profile.supersteps);
        cutfit_bench::summary::record_count(
            &format!("{base}/mean_active_x1000"),
            (profile.mean_active_fraction * 1000.0).round() as u64,
        );
        cutfit_bench::summary::record_count(
            &format!("{base}/mean_scanned_x1000"),
            (profile.mean_scanned_fraction * 1000.0).round() as u64,
        );
        cutfit_bench::summary::record_count(
            &format!("{base}/low_active_supersteps"),
            profile.low_active_supersteps,
        );
    }
}

criterion_group!(
    benches,
    bench_superstep_throughput,
    bench_relabel_locality,
    bench_frontier
);
criterion_main!(benches);
