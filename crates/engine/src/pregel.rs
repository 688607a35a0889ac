//! The metered Pregel loop.
//!
//! The superstep hot path is built around two ideas:
//!
//! * **Run-scoped indexes** (the private `ScanIndex`): everything the loop
//!   would otherwise resolve per message — each vertex's master ("home")
//!   partition including the isolated-vertex hash fallback, and the
//!   partition→executor mapping — is precomputed once from the
//!   [`PartitionedGraph`], and endpoint resolution is a single load from the
//!   borrowed local→global table, so supersteps do zero binary searches,
//!   routing lookups, or hashing. The parts only some programs read — the
//!   fixed-size-state setup aggregates and the sparse-scan adjacency — are
//!   built the first time a program needs them.
//! * **Buffer reuse**: the inbox, per-partition partial-aggregate buffers,
//!   and activity bitsets are allocated once per run and cleared in place
//!   (the shuffle *takes* every partial and the apply *takes* every inbox
//!   entry, so the buffers self-clean), eliminating the per-superstep
//!   O(vertices + replicas) allocation churn.
//!
//! The scan runs on the worker pool, parallel over edge partitions. Shuffle
//! and apply/broadcast run on the calling thread, one linear sweep each,
//! in every [`ExecutorMode`]. Because every ledger quantity is an integer
//! counter and each vertex's messages merge in ascending source-partition
//! order, every executor mode is bit-identical in both vertex states and
//! the metered [`SimReport`].

use std::sync::Arc;

use cutfit_cluster::{ClusterConfig, ClusterSim, SimError, SimReport, SuperstepLedger};
use cutfit_graph::types::PartId;
use cutfit_graph::VertexId;
use cutfit_partition::{EdgePartition, PartitionedGraph, NO_PART};
use cutfit_util::exec::{run_ranges, DisjointSlice};
use cutfit_util::hash::hash64;
use cutfit_util::num::{part_index, vid_index};

use crate::frontier::{
    gather_edges, plan_sparse_scan, FrontierAdjacency, FrontierBuffers, ScanKind,
};
use crate::program::{ActiveDirection, InitCtx, Messages, Triplet, VertexProgram};

/// How partitions are scanned within a superstep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorMode {
    /// One partition after another on the calling thread.
    Sequential,
    /// The scan phase runs on a pool of OS threads, each owning a disjoint
    /// range of edge partitions; shuffle and apply run on the calling
    /// thread. Results are bit-identical to sequential execution: merges
    /// happen in deterministic source-partition order, and all metering is
    /// integral.
    Parallel {
        /// Number of worker threads.
        threads: usize,
    },
    /// Like [`ExecutorMode::Parallel`] with the pool sized from
    /// [`std::thread::available_parallelism`].
    Auto,
}

impl ExecutorMode {
    /// Number of worker threads this mode resolves to (≥ 1).
    pub fn threads(&self) -> usize {
        match self {
            ExecutorMode::Sequential => 1,
            ExecutorMode::Parallel { threads } => (*threads).max(1),
            ExecutorMode::Auto => cutfit_util::exec::auto_threads(),
        }
    }
}

/// How supersteps visit edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanMode {
    /// Walk every partition's full edge table each superstep, filtering on
    /// the activity bitset — GraphX's behaviour, O(V + E) per superstep
    /// regardless of how few vertices are still active.
    Dense,
    /// Always gather from the frontier's incident-edge lists — O(active)
    /// per superstep, but slower than dense when most vertices are active
    /// (the gather pays a sort). For testing and benchmarking.
    Sparse,
    /// Each partition picks dense or sparse per superstep by comparing its
    /// frontier-incident degree sum against its edge count. The default.
    Auto,
}

impl Default for ScanMode {
    fn default() -> Self {
        ScanMode::Auto
    }
}

/// Engine options.
#[derive(Debug, Clone)]
pub struct PregelConfig {
    /// Maximum number of message supersteps (the paper runs PR and CC for
    /// 10 iterations).
    pub max_iterations: u64,
    /// Executor mode: how many threads the scan phase runs on.
    pub executor: ExecutorMode,
    /// Whether to charge the initial dataset load from storage.
    pub charge_initial_load: bool,
    /// Per-run override of the cluster scenario's checkpoint interval:
    /// `Some(n)` checkpoints every `n` supersteps (`Some(0)` disables),
    /// `None` defers to `ClusterConfig::scenario.checkpoint_interval`.
    /// Checkpoints are billed at superstep boundaries and truncate retained
    /// shuffle lineage — the `checkpointInterval` knob that keeps
    /// high-superstep jobs (the paper's SSSP) from lineage OOM, at a
    /// storage-write cost per checkpoint.
    pub checkpoint_interval: Option<u64>,
    /// How converging programs scan edges once activity drops; every mode
    /// is bit-identical in states and [`SimReport`] (the sparse path visits
    /// the same edges in the same per-slot order and meters the same
    /// quantities), so this knob only moves wall-clock time.
    pub scan_mode: ScanMode,
}

impl Default for PregelConfig {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            executor: ExecutorMode::Sequential,
            charge_initial_load: true,
            checkpoint_interval: None,
            scan_mode: ScanMode::Auto,
        }
    }
}

/// Outcome of a Pregel run.
#[derive(Debug, Clone)]
pub struct PregelResult<V> {
    /// Final state of every vertex (isolated vertices hold their
    /// initial-apply value).
    pub states: Vec<V>,
    /// Message supersteps executed (not counting setup).
    pub supersteps: u64,
    /// True if the computation reached a fixpoint (no messages), false if
    /// it stopped at `max_iterations`.
    pub converged: bool,
    /// Simulated-cluster accounting.
    pub sim: SimReport,
}

/// Precomputed setup-superstep aggregates, used to meter the initial apply
/// + replica broadcast of **fixed-size-state** programs in O(partitions +
/// executor pairs) instead of O(vertices + replicas) per dispatch: the
/// per-message bill is then a constant, so only the counts matter — and
/// the counts are a property of the cut, not of the program.
struct SetupAggregates {
    /// Vertices mastered (hash fallback included) at each partition.
    home_counts: Vec<u64>,
    /// Isolated (`NO_PART`) vertices per hash-fallback home.
    isolated_counts: Vec<u64>,
    /// `((master_exec, mirror_exec), messages)` of the initial state
    /// broadcast, sparse and sorted (an executor-pair matrix would cost
    /// `executors²` memory on huge clusters).
    bcast_pairs: Vec<((u32, u32), u64)>,
}

impl SetupAggregates {
    fn build(pg: &PartitionedGraph, home: &[PartId], exec_of_part: &[u32]) -> Self {
        let np = pg.num_parts() as usize;
        let mut home_counts = vec![0u64; np];
        for &h in home {
            home_counts[h as usize] += 1;
        }
        let mut isolated_counts = vec![0u64; np];
        for (v, &m) in pg.masters().iter().enumerate() {
            if m == NO_PART {
                isolated_counts[home[v] as usize] += 1;
            }
        }
        // BTreeMap: iterated below, and unordered iteration in the
        // engine is exactly what the analyzer's D1 rule forbids.
        let mut pairs: std::collections::BTreeMap<(u32, u32), u64> =
            std::collections::BTreeMap::new();
        for v in 0..pg.num_vertices() {
            let replicas = pg.routing().parts_of(v);
            if replicas.len() > 1 {
                let h = home[v as usize];
                let master_exec = exec_of_part[h as usize];
                for &p in replicas {
                    if p != h {
                        *pairs
                            .entry((master_exec, exec_of_part[p as usize]))
                            .or_default() += 1;
                    }
                }
            }
        }
        // BTreeMap iteration is already key-ascending: no sort needed.
        Self {
            home_counts,
            isolated_counts,
            bcast_pairs: pairs.into_iter().collect(),
        }
    }
}

/// Run-scoped index precomputed from the [`PartitionedGraph`] so the
/// superstep loop does no routing lookups, hashing, or binary searches.
/// Edge and local→global tables are *not* duplicated here — the loop reads
/// them straight from the graph, which keeps the index self-contained (no
/// borrows) so a [`PreparedRun`] can own both the `Arc`'d graph and its
/// index.
struct ScanIndex {
    /// Master partition per vertex, with the isolated-vertex hash fallback
    /// folded in (GraphX hash-partitions the vertex RDD; vertices without
    /// edges still live somewhere).
    home: Vec<PartId>,
    /// Executor hosting each partition.
    exec_of_part: Vec<u32>,
    /// Setup-superstep aggregates for fixed-size-state metering, built the
    /// first time a fixed-size program runs (variable-size programs take
    /// the per-vertex metering sweep and never read them).
    setup: Option<SetupAggregates>,
    /// Frontier-driven sparse-scan index: the eager replica-local table
    /// plus lazily built per-partition incident-edge CSRs. Built the first
    /// time a converging program runs a scan mode other than
    /// [`ScanMode::Dense`].
    adjacency: Option<FrontierAdjacency>,
}

impl ScanIndex {
    fn build(pg: &PartitionedGraph, cluster: &ClusterConfig) -> Self {
        let np = pg.num_parts() as usize;
        let home: Vec<PartId> = pg
            .masters()
            .iter()
            .enumerate()
            .map(|(v, &m)| {
                if m == NO_PART {
                    (hash64(v as u64) % np as u64) as PartId
                } else {
                    m
                }
            })
            .collect();
        let exec_of_part: Vec<u32> = (0..np as u32).map(|p| cluster.executor_of(p)).collect();
        Self {
            home,
            exec_of_part,
            setup: None,
            adjacency: None,
        }
    }
}

/// Metering accumulator for one shuffle or apply phase, flushed into the
/// ledger once per phase. Every field is an exact integer counter.
struct MeterDelta {
    executors: usize,
    /// Row-major `executors × executors` byte/message matrices, allocated
    /// on the first recorded transfer (mirrors [`SuperstepLedger`]'s lazy
    /// hardening: a huge executor grid must not cost `executors²` memory
    /// up front).
    exec_bytes: Vec<u64>,
    exec_msgs: Vec<u64>,
    /// Per-partition counters.
    vertex_ops: Vec<u64>,
    local_bytes: Vec<u64>,
    /// Per-partition resident-state deltas (signed bytes).
    resident: Vec<i64>,
    /// Messages shuffled this phase.
    msgs: u64,
}

impl MeterDelta {
    fn new(executors: usize, num_parts: usize) -> Self {
        Self {
            executors,
            exec_bytes: Vec::new(),
            exec_msgs: Vec::new(),
            vertex_ops: vec![0; num_parts],
            local_bytes: vec![0; num_parts],
            resident: vec![0; num_parts],
            msgs: 0,
        }
    }

    fn reset(&mut self) {
        self.exec_bytes.fill(0);
        self.exec_msgs.fill(0);
        self.vertex_ops.fill(0);
        self.local_bytes.fill(0);
        self.resident.fill(0);
        self.msgs = 0;
    }

    #[inline]
    fn send_exec(&mut self, from_exec: u32, to_exec: u32, msgs: u64, bytes: u64) {
        if self.exec_bytes.is_empty() {
            let cells = self.executors * self.executors;
            self.exec_bytes = vec![0; cells];
            self.exec_msgs = vec![0; cells];
        }
        let idx = from_exec as usize * self.executors + to_exec as usize;
        self.exec_bytes[idx] += bytes;
        self.exec_msgs[idx] += msgs;
    }

    fn flush_ledger(&self, ledger: &mut SuperstepLedger) {
        for (p, &ops) in self.vertex_ops.iter().enumerate() {
            if ops > 0 {
                ledger.vertex_ops(p as u32, ops);
            }
        }
        for (p, &bytes) in self.local_bytes.iter().enumerate() {
            if bytes > 0 {
                ledger.local_bytes(p as u32, bytes);
            }
        }
        if self.exec_bytes.is_empty() {
            return;
        }
        for from in 0..self.executors {
            for to in 0..self.executors {
                let idx = from * self.executors + to;
                if self.exec_msgs[idx] > 0 || self.exec_bytes[idx] > 0 {
                    ledger.send_exec(
                        from as u32,
                        to as u32,
                        self.exec_msgs[idx],
                        self.exec_bytes[idx],
                    );
                }
            }
        }
    }

    fn flush_resident(&self, sim: &mut ClusterSim) {
        for (p, &delta) in self.resident.iter().enumerate() {
            sim.adjust_resident(p as u32, delta);
        }
    }
}

/// Global out/in degree tables, derived from the partitioned edge tables
/// (the engine never touches the original edge list).
fn degree_tables(pg: &PartitionedGraph) -> (Vec<u32>, Vec<u32>) {
    let n = pg.num_vertices() as usize;
    let mut out_deg = vec![0u32; n];
    let mut in_deg = vec![0u32; n];
    for part in pg.parts() {
        for &(ls, ld) in &part.edges {
            out_deg[part.vertices[ls as usize] as usize] += 1;
            in_deg[part.vertices[ld as usize] as usize] += 1;
        }
    }
    (out_deg, in_deg)
}

/// Everything a run needs besides the graph and the program: the routing
/// index, degree tables, metering sim, and program-independent scratch
/// (activity bitset, frontier bookkeeping, matched-edge counts, metering
/// delta). [`run_pregel`] builds one per call; a [`PreparedRun`] keeps one
/// alive across jobs, so back-to-back dispatches allocate nothing here (the
/// message-typed inbox/partial buffers are per-program and stay per-run).
struct RunScope {
    index: ScanIndex,
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    sim: ClusterSim,
    active: Vec<bool>,
    frontier: FrontierBuffers,
    matched: Vec<u64>,
    delta: MeterDelta,
}

impl RunScope {
    fn new(pg: &PartitionedGraph, cluster: &ClusterConfig) -> Self {
        let np = pg.num_parts() as usize;
        let (out_deg, in_deg) = degree_tables(pg);
        Self {
            index: ScanIndex::build(pg, cluster),
            out_deg,
            in_deg,
            sim: ClusterSim::new(cluster.clone(), pg.num_parts()),
            active: vec![false; pg.num_vertices() as usize],
            frontier: FrontierBuffers::new(np),
            matched: vec![0; np],
            delta: MeterDelta::new(cluster.executors as usize, np),
        }
    }
}

/// Runs `program` over `pg` on the simulated `cluster`.
///
/// Returns [`SimError::OutOfMemory`] if the modelled memory demand exceeds
/// an executor's budget — partial results are discarded, as they would be
/// on the real system.
///
/// This is the one-shot entry point: it builds the run-scoped index and
/// buffers, runs, and throws them away. Callers dispatching several jobs
/// against the same cut should build a [`PreparedRun`] once instead.
pub fn run_pregel<P: VertexProgram>(
    program: &P,
    pg: &PartitionedGraph,
    cluster: &ClusterConfig,
    opts: &PregelConfig,
) -> Result<PregelResult<P::State>, SimError> {
    let mut scope = RunScope::new(pg, cluster);
    let (states, supersteps, converged) =
        execute(program, pg, &mut scope, opts.executor.threads(), opts)?;
    Ok(PregelResult {
        states,
        supersteps,
        converged,
        sim: scope.sim.into_report(),
    })
}

/// A run-scoped handle over one materialized cut: the routing index, degree
/// tables, reusable metering sim, and program-independent buffers, built
/// once and shared by every job dispatched against the same
/// [`PartitionedGraph`]. Back-to-back jobs on one cut skip all routing
/// setup — the serving layer's cache-hit path is
/// [`PreparedRun::run`], which only allocates the message-typed buffers of
/// the program it executes.
///
/// The handle is prepared for a maximum parallelism at construction
/// ([`ExecutorMode::threads`] of the mode passed to [`PreparedRun::new`]);
/// a run requesting more threads is clamped to that budget. Results are
/// bit-identical at every thread count, so clamping never changes states
/// or the metered [`SimReport`].
pub struct PreparedRun {
    pg: Arc<PartitionedGraph>,
    scope: RunScope,
    threads: usize,
}

impl PreparedRun {
    /// Builds the routing index, degree tables, and reusable buffers for
    /// `pg` on `cluster`, with `executor`'s thread budget. The index parts
    /// only some programs read are built by the first run that needs them
    /// and kept for the handle's later runs.
    pub fn new(pg: Arc<PartitionedGraph>, cluster: &ClusterConfig, executor: ExecutorMode) -> Self {
        let threads = executor.threads().min(pg.num_parts().max(1) as usize);
        Self {
            scope: RunScope::new(&pg, cluster),
            pg,
            threads,
        }
    }

    /// The cut this handle was prepared for.
    pub fn graph(&self) -> &Arc<PartitionedGraph> {
        &self.pg
    }

    /// The cluster the metering sim bills against.
    pub fn cluster(&self) -> &ClusterConfig {
        self.scope.sim.config()
    }

    /// The thread budget the handle was prepared for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `program` on the prepared cut. Bit-identical — vertex states
    /// *and* [`SimReport`] — to [`run_pregel`] on the same graph, cluster,
    /// and options, for any sequence of prior runs through this handle:
    /// the metering sim is [`ClusterSim::reset`] (allocations kept) and
    /// every reused buffer is re-initialized before the loop starts.
    pub fn run<P: VertexProgram>(
        &mut self,
        program: &P,
        opts: &PregelConfig,
    ) -> Result<PregelResult<P::State>, SimError> {
        let threads = opts.executor.threads().min(self.threads);
        self.scope.sim.reset();
        let (states, supersteps, converged) =
            execute(program, &self.pg, &mut self.scope, threads, opts)?;
        Ok(PregelResult {
            states,
            supersteps,
            converged,
            sim: self.scope.sim.report().clone(),
        })
    }
}

/// The superstep loop shared by [`run_pregel`] (transient scope) and
/// [`PreparedRun::run`] (cached index, reused buffers). `threads` is the
/// scan's worker count; `opts` supplies the iteration cap and
/// load-charging policy.
fn execute<P: VertexProgram>(
    program: &P,
    pg: &PartitionedGraph,
    scope: &mut RunScope,
    threads: usize,
    opts: &PregelConfig,
) -> Result<(Vec<P::State>, u64, bool), SimError> {
    let RunScope {
        index,
        out_deg,
        in_deg,
        sim,
        active,
        frontier: fb,
        matched,
        delta,
    } = scope;
    let (out_deg, in_deg): (&[u32], &[u32]) = (out_deg, in_deg);
    let n = pg.num_vertices() as usize;
    let np = pg.num_parts() as usize;
    let num_edges = pg.num_edges();
    let msg_overhead = sim.config().cost.message_overhead_bytes;
    debug_assert_eq!(sim.config().executors as usize, delta.executors);
    let all_active = program.always_active();
    let dir = program.active_direction();
    // Sparse scans need the incident-edge adjacency, built on first need.
    // Forced dense mode and always-active programs (their frontier never
    // shrinks) take the dense path every superstep and never build it.
    let adjacency = if all_active || opts.scan_mode == ScanMode::Dense {
        None
    } else {
        Some(
            &*index
                .adjacency
                .get_or_insert_with(|| FrontierAdjacency::build(pg)),
        )
    };
    let force_sparse = opts.scan_mode == ScanMode::Sparse;

    if let Some(every) = opts.checkpoint_interval {
        sim.set_checkpoint_interval(every);
    }
    if opts.charge_initial_load {
        sim.charge_load(cutfit_cluster::load_bytes(
            pg.num_vertices(),
            pg.num_edges(),
        ));
    }

    // --- Setup: initial apply on every vertex + replica broadcast. ---
    let ctx = InitCtx {
        out_degrees: out_deg,
        in_degrees: in_deg,
        num_vertices: pg.num_vertices(),
    };
    let init_msg = program.initial_msg();
    let mut states: Vec<P::State> = (0..n as u64)
        .map(|v| {
            let s = program.initial_state(v, &ctx);
            program.apply(v, &s, &init_msg)
        })
        .collect();
    let fixed_state = program.fixed_state_bytes();
    let batched_setup = fixed_state.map(|size| {
        let setup = index
            .setup
            .get_or_insert_with(|| SetupAggregates::build(pg, &index.home, &index.exec_of_part));
        (size, &*setup)
    });
    if let Some((size, setup)) = batched_setup {
        // Every state bills the same constant, so the setup superstep is a
        // pure function of the cut's precomputed counts: one vertex op per
        // mastered vertex, one broadcast message per (vertex, mirror)
        // pair — batched per executor pair. Ledger accumulation is
        // commutative integer addition, so this is bit-identical to the
        // per-vertex sweep below.
        for (q, &count) in setup.home_counts.iter().enumerate() {
            if count > 0 {
                sim.ledger().vertex_ops(q as PartId, count);
            }
        }
        let bytes = size + msg_overhead;
        for &((from, to), msgs) in &setup.bcast_pairs {
            sim.ledger().send_exec(from, to, msgs, msgs * bytes);
        }
    } else {
        for v in 0..n as u64 {
            let home = index.home[v as usize];
            sim.ledger().vertex_ops(home, 1);
            let replicas = pg.routing().parts_of(v);
            if replicas.len() > 1 {
                let bytes = program.state_bytes(&states[vid_index(v)]) + msg_overhead;
                let master_exec = index.exec_of_part[part_index(home)];
                for &p in replicas {
                    if p != home {
                        sim.ledger().send_exec(
                            master_exec,
                            index.exec_of_part[p as usize],
                            1,
                            bytes,
                        );
                    }
                }
            }
        }
    }

    // --- Residency: structure + replica states, declared once and updated
    //     incrementally; re-summing every replica per superstep is gone. ---
    let mut resident: Vec<u64> = pg.parts().iter().map(|p| p.structure_bytes()).collect();
    for (p, part) in pg.parts().iter().enumerate() {
        resident[p] += match fixed_state {
            Some(size) => part.num_vertices() * size,
            None => part
                .vertices
                .iter()
                .map(|&v| program.state_bytes(&states[v as usize]))
                .sum(),
        };
    }
    // Isolated vertices have no replica, but their state still occupies the
    // hash-fallback home (the vertex RDD is hash-partitioned regardless of
    // edges) — and since messages only travel along edges, those states
    // never change after setup: charge them once.
    if let Some((size, setup)) = batched_setup {
        for (q, &count) in setup.isolated_counts.iter().enumerate() {
            resident[q] += count * size;
        }
    } else {
        for (v, &master) in pg.masters().iter().enumerate() {
            if master == NO_PART {
                resident[index.home[v] as usize] += program.state_bytes(&states[v]);
            }
        }
    }
    for (p, &bytes) in resident.iter().enumerate() {
        sim.set_resident(p as PartId, bytes);
    }
    drop(resident);
    sim.end_superstep()?;

    // --- Run-scoped buffers: message-typed inbox/partials are allocated
    //     per run (the message type changes with the program); everything
    //     program-independent comes from the reusable `RunScope` and is
    //     re-initialized in place. ---
    let mut partials: Vec<Vec<Option<P::Msg>>> = pg
        .parts()
        .iter()
        .map(|part| {
            std::iter::repeat_with(|| None)
                .take(part.vertices.len())
                .collect()
        })
        .collect();
    let mut inbox: Vec<Option<P::Msg>> = std::iter::repeat_with(|| None).take(n).collect();
    fb.reset();
    let FrontierBuffers {
        frontier,
        touched_inbox,
        part_frontier,
        touched_partials,
        gather,
        deg_sum,
        scan_kind,
        sparse_wants,
    } = fb;
    if !all_active {
        // The frontier protocol keeps `active` equal to the current
        // frontier set from the second message superstep on. The first
        // superstep is implicitly all-active (`frontier_all`) and never
        // reads the bitset, so a clean all-false start suffices — and
        // always-active programs never touch it at all.
        active.fill(false);
    }
    let mut frontier_all = true;

    // --- Superstep loop. ---
    let mut supersteps = 0u64;
    let mut converged = false;
    while supersteps < opts.max_iterations {
        // 0. Plan: distribute the frontier to its replica partitions and
        //    pick each partition's scan kind. While every vertex is active
        //    (superstep one, always-active programs) all partitions take
        //    the predicate-free full scan.
        let active_count = if frontier_all {
            scan_kind.fill(ScanKind::Full);
            n as u64
        } else if let Some(adj) = adjacency {
            plan_sparse_scan(
                pg,
                adj,
                dir,
                force_sparse,
                (out_deg, in_deg),
                frontier,
                part_frontier,
                deg_sum,
                scan_kind,
                sparse_wants,
            )
        } else {
            scan_kind.fill(ScanKind::Dense);
            frontier.iter().map(|f| f.len() as u64).sum()
        };

        // 1. Scan: per-partition pre-aggregated messages, in parallel over
        //    edge partitions. Sparse partitions visit only the frontier's
        //    incident edges (ascending edge index, so per-slot merge order
        //    matches the dense walk) and record first-written partial
        //    slots for the shuffle.
        scan_all(
            program,
            pg,
            adjacency,
            &states,
            active,
            out_deg,
            in_deg,
            &mut partials,
            part_frontier,
            touched_partials,
            gather,
            scan_kind,
            matched,
            threads,
        );
        for (p, &m) in matched.iter().enumerate() {
            sim.ledger().edge_scans(p as PartId, m);
        }
        // Frontier telemetry: active vertices at scan time and edges the
        // scan visited. Both are mode-invariant integers — `matched` is
        // pinned equal across modes, and the frontier is exactly the set
        // of vertices that received messages last superstep.
        let scanned: u64 = matched.iter().sum();
        sim.ledger()
            .record_frontier(active_count, n as u64, scanned, num_edges);

        // 2. Shuffle partials to masters, partitions in ascending order.
        //    Dense/full partitions: one linear sweep over the partial
        //    buffer. Sparse partitions: drain exactly the touched slots.
        //    Either way each vertex's messages merge in ascending
        //    source-partition order — at most one slot exists per (vertex,
        //    partition) — so the merged inbox is the same in every scan
        //    mode. First-written inbox slots are recorded per home
        //    partition: they are the next frontier.
        delta.reset();
        for p in 0..np {
            let globals = &pg.parts()[p].vertices;
            let from_exec = index.exec_of_part[p];
            let partial = &mut partials[p];
            let mut drain = |local: usize, slot: &mut Option<P::Msg>| {
                let Some(msg) = slot.take() else { return };
                let v = vid_index(globals[local]);
                let q = part_index(index.home[v]);
                let bytes = program.msg_bytes(&msg) + msg_overhead;
                delta.send_exec(from_exec, index.exec_of_part[q], 1, bytes);
                delta.local_bytes[q] += bytes;
                delta.msgs += 1;
                let entry = &mut inbox[v];
                *entry = Some(match entry.take() {
                    Some(acc) => program.merge(acc, msg),
                    None => {
                        touched_inbox[q].push(v as VertexId);
                        msg
                    }
                });
            };
            if scan_kind[p] == ScanKind::Sparse {
                for &local in touched_partials[p].iter() {
                    drain(local as usize, &mut partial[local as usize]);
                }
            } else {
                for (local, slot) in partial.iter_mut().enumerate() {
                    drain(local, slot);
                }
            }
        }
        for list in touched_partials.iter_mut() {
            list.clear();
        }
        delta.flush_ledger(sim.ledger());

        if delta.msgs == 0 {
            converged = true;
            sim.end_superstep()?;
            break;
        }

        // 3. Apply at masters; 4. broadcast updated states to mirrors.
        //    Drains exactly the touched inbox slots, homes in ascending
        //    order — no O(V) inbox sweep and no O(V) bitset reset: the old
        //    frontier's bits are cleared list-wise, then the touched
        //    vertices become the new frontier. Applies are independent per
        //    vertex and all metering is commutative-integral, so visit
        //    order never shows in states or bills. Residency is tracked as
        //    signed per-partition deltas (exactly zero for fixed-size
        //    states).
        delta.reset();
        if !all_active && !frontier_all {
            for flist in frontier.iter() {
                for &fv in flist {
                    active[vid_index(fv)] = false;
                }
            }
        }
        for (q, touched_q) in touched_inbox.iter().enumerate() {
            let master_exec = index.exec_of_part[q];
            for &tv in touched_q {
                let v = vid_index(tv);
                let Some(msg) = inbox[v].take() else { continue };
                let state = &mut states[v];
                let old_bytes = if fixed_state.is_none() {
                    program.state_bytes(state)
                } else {
                    0
                };
                *state = program.apply(tv, state, &msg);
                if !all_active {
                    active[v] = true;
                }
                let state_size = program.state_bytes(state);
                delta.vertex_ops[q] += 1;
                delta.local_bytes[q] += state_size;
                let bytes = state_size + msg_overhead;
                for &p in pg.routing().parts_of(tv) {
                    if part_index(p) != q {
                        delta.send_exec(master_exec, index.exec_of_part[part_index(p)], 1, bytes);
                    }
                }
                if fixed_state.is_none() {
                    let diff = state_size as i64 - old_bytes as i64;
                    if diff != 0 {
                        for &p in pg.routing().parts_of(tv) {
                            delta.resident[part_index(p)] += diff;
                        }
                    }
                }
            }
        }
        delta.flush_ledger(sim.ledger());
        delta.flush_resident(sim);
        // The vertices that received messages are exactly next superstep's
        // frontier: swap the touched lists in and recycle the old frontier
        // lists as next superstep's touched scratch. Always-active programs
        // stay in `frontier_all` forever and just recycle the scratch.
        if all_active {
            for list in touched_inbox.iter_mut() {
                list.clear();
            }
        } else {
            std::mem::swap(frontier, touched_inbox);
            for list in touched_inbox.iter_mut() {
                list.clear();
            }
            frontier_all = false;
        }
        supersteps += 1;
        sim.end_superstep()?;
    }

    Ok((states, supersteps, converged))
}

/// Scans all partitions on the pool (inline at one thread), writing
/// per-partition pre-aggregated messages into the reusable `partials`
/// buffers and the matched-edge counts (for metering) into `matched`. Each
/// partition is scanned according to its planned [`ScanKind`]: `Full` skips
/// the activity predicate entirely, `Dense` walks all edges testing the
/// bitset, `Sparse` gathers the frontier's incident edges from the
/// partition's adjacency lists and visits only those — in ascending edge
/// index, so the per-slot merge order (and hence every float bit pattern)
/// matches the dense walk.
#[allow(clippy::too_many_arguments)]
fn scan_all<P: VertexProgram>(
    program: &P,
    pg: &PartitionedGraph,
    adjacency: Option<&FrontierAdjacency>,
    states: &[P::State],
    active: &[bool],
    out_deg: &[u32],
    in_deg: &[u32],
    partials: &mut [Vec<Option<P::Msg>>],
    part_frontier: &[Vec<u32>],
    touched_partials: &mut [Vec<u32>],
    gather: &mut [Vec<u32>],
    scan_kind: &[ScanKind],
    matched: &mut [u64],
    threads: usize,
) {
    let partial_cells = DisjointSlice::new(partials);
    let touched_cells = DisjointSlice::new(touched_partials);
    let gather_cells = DisjointSlice::new(gather);
    let matched_cells = DisjointSlice::new(matched);
    run_ranges(pg.parts().len(), threads, |parts| {
        for p in parts {
            // SAFETY: partition ranges are disjoint across threads, so each
            // partition's partial buffer, touched list, gather scratch, and
            // matched slot has exactly one writer.
            let out = unsafe { partial_cells.get_mut(p) };
            let touched = unsafe { touched_cells.get_mut(p) };
            let gat = unsafe { gather_cells.get_mut(p) };
            let part = &pg.parts()[p];
            let flist = &part_frontier[p];
            let m = match scan_kind[p] {
                ScanKind::Full => {
                    scan_partition::<P, true>(program, part, states, active, out_deg, in_deg, out)
                }
                ScanKind::Sparse if flist.is_empty() => {
                    // No frontier replica lives here: nothing to gather, no
                    // edge the dense predicate would match, no CSR needed.
                    0
                }
                // A `Sparse` plan with no CSR built (which the planner
                // never produces) degrades safely to the dense walk.
                ScanKind::Sparse => match adjacency.and_then(|adj| adj.part(p)) {
                    Some(pa) => {
                        gather_edges(pa, flist, program.active_direction(), gat);
                        scan_partition_sparse(
                            program, part, states, active, out_deg, in_deg, out, gat, touched,
                        )
                    }
                    None => scan_partition::<P, false>(
                        program, part, states, active, out_deg, in_deg, out,
                    ),
                },
                ScanKind::Dense => {
                    scan_partition::<P, false>(program, part, states, active, out_deg, in_deg, out)
                }
            };
            unsafe { *matched_cells.get_mut(p) = m };
        }
    });
}

/// Scans one partition's whole edge table: map-side combine into the
/// partition's reusable local-vertex-indexed buffer (left all-`None` by the
/// previous shuffle). With `FULL` every vertex is active (superstep one,
/// always-active programs): the activity predicate is statically true, the
/// bitset is never read, and `matched` is exactly the partition's edge
/// count.
fn scan_partition<P: VertexProgram, const FULL: bool>(
    program: &P,
    part: &EdgePartition,
    states: &[P::State],
    active: &[bool],
    out_deg: &[u32],
    in_deg: &[u32],
    out: &mut [Option<P::Msg>],
) -> u64 {
    let mut matched = 0u64;
    let dir = program.active_direction();
    for &(ls, ld) in &part.edges {
        let src = part.vertices[ls as usize];
        let dst = part.vertices[ld as usize];
        let s = vid_index(src);
        let d = vid_index(dst);
        if !FULL {
            let scan = match dir {
                ActiveDirection::Either => active[s] || active[d],
                ActiveDirection::Out => active[s],
                ActiveDirection::In => active[d],
                ActiveDirection::Both => active[s] && active[d],
            };
            if !scan {
                continue;
            }
            matched += 1;
        }
        let triplet = Triplet {
            src,
            dst,
            src_state: &states[s],
            dst_state: &states[d],
            src_out_degree: out_deg[s],
            dst_in_degree: in_deg[d],
        };
        match program.send(&triplet) {
            Messages::None => {}
            Messages::ToSrc(m) => emit(program, &mut out[ls as usize], m),
            Messages::ToDst(m) => emit(program, &mut out[ld as usize], m),
            Messages::Both(ms, md) => {
                emit(program, &mut out[ls as usize], ms);
                emit(program, &mut out[ld as usize], md);
            }
        }
    }
    if FULL {
        part.edges.len() as u64
    } else {
        matched
    }
}

/// Scans one partition through a gathered edge-index list instead of the
/// full edge array. The gather upholds two invariants (see
/// [`crate::frontier::gather_edges`]): it contains exactly the edges the
/// dense predicate would match — except under `Both`, where it
/// over-approximates with src-incident edges and the `active[dst]` check
/// here restores exactness — and it is sorted ascending, so slots merge
/// their messages in the same order as the dense walk. Locals whose slot
/// goes `None → Some` are pushed onto `touched` for the sparse shuffle.
#[allow(clippy::too_many_arguments)]
fn scan_partition_sparse<P: VertexProgram>(
    program: &P,
    part: &EdgePartition,
    states: &[P::State],
    active: &[bool],
    out_deg: &[u32],
    in_deg: &[u32],
    out: &mut [Option<P::Msg>],
    gathered: &[u32],
    touched: &mut Vec<u32>,
) -> u64 {
    let mut matched = 0u64;
    let both = program.active_direction() == ActiveDirection::Both;
    for &e in gathered {
        let (ls, ld) = part.edges[e as usize];
        let src = part.vertices[ls as usize];
        let dst = part.vertices[ld as usize];
        let s = vid_index(src);
        let d = vid_index(dst);
        if both && !(active[s] && active[d]) {
            continue;
        }
        matched += 1;
        let triplet = Triplet {
            src,
            dst,
            src_state: &states[s],
            dst_state: &states[d],
            src_out_degree: out_deg[s],
            dst_in_degree: in_deg[d],
        };
        match program.send(&triplet) {
            Messages::None => {}
            Messages::ToSrc(m) => emit_touched(program, out, ls, touched, m),
            Messages::ToDst(m) => emit_touched(program, out, ld, touched, m),
            Messages::Both(ms, md) => {
                emit_touched(program, out, ls, touched, ms);
                emit_touched(program, out, ld, touched, md);
            }
        }
    }
    matched
}

#[inline]
fn emit<P: VertexProgram>(program: &P, slot: &mut Option<P::Msg>, msg: P::Msg) {
    *slot = Some(match slot.take() {
        Some(acc) => program.merge(acc, msg),
        None => msg,
    });
}

/// [`emit`] that also records first-written locals, so the sparse shuffle
/// can drain exactly the populated slots instead of sweeping the partition.
#[inline]
fn emit_touched<P: VertexProgram>(
    program: &P,
    out: &mut [Option<P::Msg>],
    local: u32,
    touched: &mut Vec<u32>,
    msg: P::Msg,
) {
    let slot = &mut out[local as usize];
    *slot = Some(match slot.take() {
        Some(acc) => program.merge(acc, msg),
        None => {
            touched.push(local);
            msg
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cutfit_graph::{Edge, Graph};
    use cutfit_partition::{GraphXStrategy, Partitioner};

    /// Max-id label propagation: converges to the component-wise max.
    struct MaxLabel;
    impl VertexProgram for MaxLabel {
        type State = u64;
        type Msg = u64;
        fn name(&self) -> &'static str {
            "max-label"
        }
        fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> u64 {
            v
        }
        fn initial_msg(&self) -> u64 {
            0
        }
        fn apply(&self, _v: VertexId, state: &u64, msg: &u64) -> u64 {
            *state.max(msg)
        }
        fn send(&self, t: &Triplet<'_, u64>) -> Messages<u64> {
            match (t.src_state > t.dst_state, t.dst_state > t.src_state) {
                (true, _) => Messages::ToDst(*t.src_state),
                (_, true) => Messages::ToSrc(*t.dst_state),
                _ => Messages::None,
            }
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
        fn fixed_state_bytes(&self) -> Option<u64> {
            Some(8)
        }
    }

    fn two_components() -> Graph {
        Graph::new(
            7,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(2, 3),
                Edge::new(4, 5),
            ],
        )
    }

    fn cfg() -> ClusterConfig {
        ClusterConfig::paper_cluster()
    }

    #[test]
    fn max_label_converges_per_component() {
        let pg = GraphXStrategy::RandomVertexCut.partition(&two_components(), 4);
        let r = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        assert!(r.converged);
        assert_eq!(r.states, vec![3, 3, 3, 3, 5, 5, 6]);
        assert!(r.supersteps >= 3, "information must travel the path");
        assert!(r.sim.total_seconds > 0.0);
    }

    #[test]
    fn isolated_vertices_keep_initial_state() {
        let g = Graph::new(3, vec![Edge::new(0, 1)]);
        let pg = GraphXStrategy::SourceCut.partition(&g, 2);
        let r = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        assert_eq!(r.states[2], 2);
    }

    #[test]
    fn max_iterations_caps_supersteps() {
        let g = Graph::new(50, (0..49).map(|v| Edge::new(v, v + 1)).collect());
        let pg = GraphXStrategy::EdgePartition1D.partition(&g, 4);
        let opts = PregelConfig {
            max_iterations: 5,
            ..Default::default()
        };
        let r = run_pregel(&MaxLabel, &pg, &cfg(), &opts).unwrap();
        assert_eq!(r.supersteps, 5);
        assert!(!r.converged);
    }

    #[test]
    fn parallel_equals_sequential() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 9);
        let pg = GraphXStrategy::EdgePartition2D.partition(&g, 16);
        let seq = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        let par = run_pregel(
            &MaxLabel,
            &pg,
            &cfg(),
            &PregelConfig {
                executor: ExecutorMode::Parallel { threads: 4 },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seq.states, par.states);
        assert_eq!(seq.supersteps, par.supersteps);
        assert_eq!(seq.sim, par.sim, "metering must be identical too");
    }

    #[test]
    fn auto_equals_sequential() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8);
        let pg = GraphXStrategy::CanonicalRandomVertexCut.partition(&g, 8);
        let seq = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        let auto = run_pregel(
            &MaxLabel,
            &pg,
            &cfg(),
            &PregelConfig {
                executor: ExecutorMode::Auto,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(ExecutorMode::Auto.threads() >= 1);
        assert_eq!(seq.states, auto.states);
        assert_eq!(seq.sim, auto.sim);
    }

    /// MaxLabel with a fat fixed-size state, for memory-accounting tests.
    struct FatLabel;
    impl VertexProgram for FatLabel {
        type State = u64;
        type Msg = u64;
        fn name(&self) -> &'static str {
            "fat-label"
        }
        fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> u64 {
            v
        }
        fn initial_msg(&self) -> u64 {
            0
        }
        fn apply(&self, _v: VertexId, state: &u64, msg: &u64) -> u64 {
            *state.max(msg)
        }
        fn send(&self, t: &Triplet<'_, u64>) -> Messages<u64> {
            if t.src_state > t.dst_state {
                Messages::ToDst(*t.src_state)
            } else {
                Messages::None
            }
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
        fn state_bytes(&self, _state: &u64) -> u64 {
            1 << 20 // 1 MB per vertex
        }
        fn fixed_state_bytes(&self) -> Option<u64> {
            Some(1 << 20)
        }
    }

    #[test]
    fn isolated_vertices_count_toward_resident_memory() {
        // Same single edge; one graph carries 98 extra isolated vertices.
        // Their 1 MB states must surface in peak executor memory, charged at
        // the hash-fallback homes.
        let small = Graph::new(2, vec![Edge::new(0, 1)]);
        let sparse = Graph::new(100, vec![Edge::new(0, 1)]);
        let run = |g: &Graph| {
            let pg = GraphXStrategy::RandomVertexCut.partition(g, 4);
            run_pregel(&FatLabel, &pg, &cfg(), &PregelConfig::default()).unwrap()
        };
        let base = run(&small).sim.peak_executor_memory_gb;
        let with_isolated = run(&sparse).sim.peak_executor_memory_gb;
        // 98 isolated MB spread over 4 partitions: the busiest executor
        // gains at least a couple dozen MB even under a skewed hash.
        assert!(
            with_isolated > base + 0.02,
            "isolated vertices must be resident somewhere: {with_isolated} vs {base}"
        );
    }

    /// A program whose state grows as labels arrive — exercises the
    /// incremental (delta-based) residency path for variable-size states.
    struct GrowingTrail;
    impl VertexProgram for GrowingTrail {
        type State = Vec<u64>;
        type Msg = u64;
        fn name(&self) -> &'static str {
            "growing-trail"
        }
        fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> Vec<u64> {
            vec![v]
        }
        fn initial_msg(&self) -> u64 {
            0
        }
        fn apply(&self, _v: VertexId, state: &Vec<u64>, msg: &u64) -> Vec<u64> {
            let mut next = state.clone();
            if next.last() != Some(msg) {
                next.push(*msg);
            }
            next
        }
        fn send(&self, t: &Triplet<'_, Vec<u64>>) -> Messages<u64> {
            let (s, d) = (t.src_state.last().unwrap(), t.dst_state.last().unwrap());
            if s > d {
                Messages::ToDst(*s)
            } else {
                Messages::None
            }
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
        fn state_bytes(&self, state: &Vec<u64>) -> u64 {
            8 * state.len() as u64
        }
    }

    #[test]
    fn variable_state_metering_is_mode_independent() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8);
        let pg = GraphXStrategy::EdgePartition1D.partition(&g, 8);
        let seq = run_pregel(&GrowingTrail, &pg, &cfg(), &PregelConfig::default()).unwrap();
        let par = run_pregel(
            &GrowingTrail,
            &pg,
            &cfg(),
            &PregelConfig {
                executor: ExecutorMode::Parallel { threads: 3 },
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(seq.states, par.states);
        assert_eq!(
            seq.sim, par.sim,
            "incremental residency deltas must be order-independent"
        );
        assert!(
            seq.sim.peak_executor_memory_gb > 0.0,
            "growing states must register in memory accounting"
        );
    }

    #[test]
    fn worse_partitioning_ships_more_remote_bytes() {
        // CRVC collocates both directions; RVC splits them — on a symmetric
        // graph RVC must replicate more and thus ship more bytes.
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 11).symmetrized();
        let crvc = GraphXStrategy::CanonicalRandomVertexCut.partition(&g, 32);
        let rvc = GraphXStrategy::RandomVertexCut.partition(&g, 32);
        let opts = PregelConfig {
            max_iterations: 3,
            ..Default::default()
        };
        let a = run_pregel(&MaxLabel, &crvc, &cfg(), &opts).unwrap();
        let b = run_pregel(&MaxLabel, &rvc, &cfg(), &opts).unwrap();
        assert!(
            b.sim.remote_bytes > a.sim.remote_bytes,
            "rvc {} vs crvc {}",
            b.sim.remote_bytes,
            a.sim.remote_bytes
        );
    }

    #[test]
    fn activity_tracking_reduces_scans_over_time() {
        // After convergence regions stop being scanned: total messages are
        // finite even with a generous iteration cap.
        let g = two_components();
        let pg = GraphXStrategy::CanonicalRandomVertexCut.partition(&g, 2);
        let r = run_pregel(
            &MaxLabel,
            &pg,
            &cfg(),
            &PregelConfig {
                max_iterations: 1000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(r.converged);
        assert!(r.supersteps < 10);
    }

    #[test]
    fn oom_is_reported() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 10);
        let pg = GraphXStrategy::RandomVertexCut.partition(&g, 8);
        let tiny = ClusterConfig {
            executor_memory_gb: 1e-6,
            ..ClusterConfig::paper_cluster()
        };
        let err = run_pregel(&MaxLabel, &pg, &tiny, &PregelConfig::default()).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
    }

    /// MaxLabel without the fixed-size declaration: takes the per-vertex
    /// setup-metering sweep instead of the batched path.
    struct MaxLabelUndeclared;
    impl VertexProgram for MaxLabelUndeclared {
        type State = u64;
        type Msg = u64;
        fn name(&self) -> &'static str {
            "max-label-undeclared"
        }
        fn initial_state(&self, v: VertexId, _ctx: &InitCtx<'_>) -> u64 {
            v
        }
        fn initial_msg(&self) -> u64 {
            0
        }
        fn apply(&self, _v: VertexId, state: &u64, msg: &u64) -> u64 {
            *state.max(msg)
        }
        fn send(&self, t: &Triplet<'_, u64>) -> Messages<u64> {
            match (t.src_state > t.dst_state, t.dst_state > t.src_state) {
                (true, _) => Messages::ToDst(*t.src_state),
                (_, true) => Messages::ToSrc(*t.dst_state),
                _ => Messages::None,
            }
        }
        fn merge(&self, a: u64, b: u64) -> u64 {
            a.max(b)
        }
    }

    #[test]
    fn batched_setup_metering_equals_the_per_vertex_sweep() {
        // The same computation with and without the fixed-size-state
        // declaration must bill identically: the batched setup path is
        // an aggregation of the sweep, not a different model. Includes
        // isolated vertices (hash-fallback residency goes through the
        // precomputed isolated counts in the batched path).
        let mut g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 9);
        g = Graph::new(g.num_vertices() + 7, g.edges().to_vec());
        for strategy in [
            GraphXStrategy::RandomVertexCut,
            GraphXStrategy::EdgePartition2D,
            GraphXStrategy::SourceCut,
        ] {
            let pg = strategy.partition(&g, 16);
            let declared = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
            let swept =
                run_pregel(&MaxLabelUndeclared, &pg, &cfg(), &PregelConfig::default()).unwrap();
            assert_eq!(declared.states, swept.states);
            assert_eq!(declared.sim, swept.sim, "{strategy}: setup billing drifted");
        }
    }

    #[test]
    fn prepared_run_is_bit_identical_to_run_pregel_and_reusable() {
        // One PreparedRun dispatching many jobs — same program repeatedly,
        // then a different program with a different message type — must
        // reproduce run_pregel bit for bit (states and SimReport) on every
        // dispatch, in every executor mode.
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 9);
        for mode in [
            ExecutorMode::Sequential,
            ExecutorMode::Parallel { threads: 4 },
            ExecutorMode::Auto,
        ] {
            let pg = Arc::new(GraphXStrategy::EdgePartition2D.partition(&g, 16));
            let opts = PregelConfig {
                executor: mode,
                ..Default::default()
            };
            let fresh = run_pregel(&MaxLabel, &pg, &cfg(), &opts).unwrap();
            let mut prepared = PreparedRun::new(pg.clone(), &cfg(), mode);
            for round in 0..3 {
                let r = prepared.run(&MaxLabel, &opts).unwrap();
                assert_eq!(r.states, fresh.states, "round {round}");
                assert_eq!(r.sim, fresh.sim, "round {round}: metering drifted");
                assert_eq!(r.supersteps, fresh.supersteps);
                assert_eq!(r.converged, fresh.converged);
            }
            // A variable-size-state program through the same handle
            // (exercises buffer re-initialization across message types).
            let fresh_trail = run_pregel(&GrowingTrail, &pg, &cfg(), &opts).unwrap();
            let trail = prepared.run(&GrowingTrail, &opts).unwrap();
            assert_eq!(trail.states, fresh_trail.states);
            assert_eq!(trail.sim, fresh_trail.sim);
            // And back to the first program: nothing leaked.
            let again = prepared.run(&MaxLabel, &opts).unwrap();
            assert_eq!(again.sim, fresh.sim);
        }
    }

    #[test]
    fn prepared_run_clamps_threads_to_its_budget() {
        // A handle prepared sequentially has a budget of one thread; a
        // parallel request runs its scan inline on the calling thread —
        // with identical results, not a panic.
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8);
        let pg = Arc::new(GraphXStrategy::RandomVertexCut.partition(&g, 8));
        let seq = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        let mut prepared = PreparedRun::new(pg, &cfg(), ExecutorMode::Sequential);
        assert_eq!(prepared.threads(), 1);
        let r = prepared
            .run(
                &MaxLabel,
                &PregelConfig {
                    executor: ExecutorMode::Parallel { threads: 4 },
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(r.states, seq.states);
        assert_eq!(r.sim, seq.sim);
    }

    /// Runs `program` through `prepared` and asserts states and bill equal
    /// a one-shot [`run_pregel`] with the same options.
    fn assert_prepared_matches_fresh<P: VertexProgram>(
        prepared: &mut PreparedRun,
        program: &P,
        opts: &PregelConfig,
    ) where
        P::State: PartialEq + std::fmt::Debug,
    {
        let fresh = run_pregel(program, prepared.graph(), prepared.cluster(), opts).unwrap();
        let r = prepared.run(program, opts).unwrap();
        let what = (program.name(), opts.executor, opts.scan_mode);
        assert_eq!(r.states, fresh.states, "{what:?}");
        assert_eq!(r.sim, fresh.sim, "{what:?}: metering drifted");
        assert_eq!(r.supersteps, fresh.supersteps, "{what:?}");
    }

    #[test]
    fn prepared_run_builds_lazy_index_parts_on_first_need() {
        // The setup aggregates and the sparse-scan adjacency are built by
        // the first run that needs them, whatever ran before. Includes
        // isolated vertices, which the setup aggregates count separately.
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 9);
        let g = Graph::new(g.num_vertices() + 5, g.edges().to_vec());
        let pg = Arc::new(GraphXStrategy::EdgePartition2D.partition(&g, 16));
        for mode in [
            ExecutorMode::Sequential,
            ExecutorMode::Parallel { threads: 4 },
        ] {
            let opts = |scan_mode| PregelConfig {
                executor: mode,
                scan_mode,
                ..Default::default()
            };
            // Variable-size first, then fixed-size, then a converging
            // program under Dense followed by Auto.
            let mut prepared = PreparedRun::new(pg.clone(), &cfg(), mode);
            let built = |p: &PreparedRun| {
                let index = &p.scope.index;
                (index.setup.is_some(), index.adjacency.is_some())
            };
            assert_eq!(built(&prepared), (false, false));
            assert_prepared_matches_fresh(&mut prepared, &GrowingTrail, &opts(ScanMode::Dense));
            assert_eq!(built(&prepared), (false, false));
            assert_prepared_matches_fresh(&mut prepared, &MaxLabel, &opts(ScanMode::Dense));
            assert_eq!(built(&prepared), (true, false));
            assert_prepared_matches_fresh(&mut prepared, &MaxLabel, &opts(ScanMode::Auto));
            assert_eq!(built(&prepared), (true, true));
            // The other order: the adjacency first, from a variable-size
            // program, then a fixed-size one reusing it.
            let mut prepared = PreparedRun::new(pg.clone(), &cfg(), mode);
            assert_prepared_matches_fresh(&mut prepared, &GrowingTrail, &opts(ScanMode::Sparse));
            assert_eq!(built(&prepared), (false, true));
            assert_prepared_matches_fresh(&mut prepared, &MaxLabel, &opts(ScanMode::Auto));
            assert_eq!(built(&prepared), (true, true));
        }
    }

    #[test]
    fn prepared_run_recovers_after_oom() {
        // An OOM abort must not poison the reused sim/buffers: raising the
        // budget (fresh handle) or re-running a smaller program works, and
        // a failed dispatch leaves the next one bit-identical to fresh.
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 10);
        let pg = Arc::new(GraphXStrategy::RandomVertexCut.partition(&g, 8));
        let tiny = ClusterConfig {
            executor_memory_gb: 1e-6,
            ..ClusterConfig::paper_cluster()
        };
        let mut prepared = PreparedRun::new(pg.clone(), &tiny, ExecutorMode::Sequential);
        assert!(matches!(
            prepared.run(&MaxLabel, &PregelConfig::default()),
            Err(SimError::OutOfMemory { .. })
        ));
        // FatLabel OOMs too; MaxLabel keeps OOMing — what matters is that
        // the *same* error reproduces (no residual ledger state shifting
        // the failure point).
        let a = prepared
            .run(&MaxLabel, &PregelConfig::default())
            .unwrap_err();
        let b = run_pregel(&MaxLabel, &pg, &tiny, &PregelConfig::default()).unwrap_err();
        assert_eq!(a, b, "failure must be reproducible through a reused handle");
    }

    #[test]
    fn executor_mode_resolves_thread_counts() {
        assert_eq!(ExecutorMode::Sequential.threads(), 1);
        assert_eq!(ExecutorMode::Parallel { threads: 0 }.threads(), 1);
        assert_eq!(ExecutorMode::Parallel { threads: 6 }.threads(), 6);
        assert!(ExecutorMode::Auto.threads() >= 1);
    }

    #[test]
    fn scenario_faults_change_only_the_bill_never_the_states() {
        use cutfit_cluster::ScenarioConfig;
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 9);
        let pg = GraphXStrategy::EdgePartition2D.partition(&g, 16);
        let clean = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        let messy_cfg = cfg().with_scenario(ScenarioConfig::messy(77));
        let messy = run_pregel(&MaxLabel, &pg, &messy_cfg, &PregelConfig::default()).unwrap();
        assert_eq!(clean.states, messy.states);
        assert_eq!(clean.supersteps, messy.supersteps);
        assert_eq!(clean.sim.messages, messy.sim.messages);
        assert_eq!(clean.sim.remote_bytes, messy.sim.remote_bytes);
        assert!(messy.sim.total_seconds > clean.sim.total_seconds);
    }

    #[test]
    fn scenario_runs_are_mode_invariant_and_repeatable() {
        use cutfit_cluster::ScenarioConfig;
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 9);
        let pg = GraphXStrategy::RandomVertexCut.partition(&g, 16);
        let cluster = cfg().with_scenario(ScenarioConfig::messy(13));
        let seq = run_pregel(&MaxLabel, &pg, &cluster, &PregelConfig::default()).unwrap();
        for mode in [
            ExecutorMode::Sequential,
            ExecutorMode::Parallel { threads: 4 },
            ExecutorMode::Auto,
        ] {
            let opts = PregelConfig {
                executor: mode,
                ..Default::default()
            };
            let r = run_pregel(&MaxLabel, &pg, &cluster, &opts).unwrap();
            assert_eq!(r.states, seq.states, "{mode:?}");
            assert_eq!(r.sim, seq.sim, "fault schedule must be mode-invariant");
        }
    }

    #[test]
    fn checkpoint_interval_override_bills_checkpoints_on_any_cluster() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 9);
        let pg = GraphXStrategy::RandomVertexCut.partition(&g, 8);
        let plain = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        let opts = PregelConfig {
            checkpoint_interval: Some(2),
            ..Default::default()
        };
        let ckpt = run_pregel(&MaxLabel, &pg, &cfg(), &opts).unwrap();
        assert_eq!(plain.states, ckpt.states);
        assert_eq!(plain.sim.checkpoint_bytes, 0);
        assert!(
            ckpt.sim.checkpoint_bytes > 0,
            "resident state is snapshotted"
        );
        assert!(ckpt.sim.checkpoint_seconds > 0.0);
        assert!(ckpt.sim.total_seconds > plain.sim.total_seconds);
    }

    #[test]
    fn prepared_run_does_not_leak_checkpoint_override_across_dispatches() {
        let g = cutfit_datagen::rmat(&cutfit_datagen::RmatConfig::default(), 8);
        let pg = Arc::new(GraphXStrategy::RandomVertexCut.partition(&g, 8));
        let plain = run_pregel(&MaxLabel, &pg, &cfg(), &PregelConfig::default()).unwrap();
        let mut prepared = PreparedRun::new(pg, &cfg(), ExecutorMode::Sequential);
        let with_ckpt = prepared
            .run(
                &MaxLabel,
                &PregelConfig {
                    checkpoint_interval: Some(1),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(with_ckpt.sim.checkpoint_bytes > 0);
        // The next dispatch without the override is bit-identical to fresh.
        let after = prepared.run(&MaxLabel, &PregelConfig::default()).unwrap();
        assert_eq!(after.sim, plain.sim);
        assert_eq!(after.states, plain.states);
    }
}
