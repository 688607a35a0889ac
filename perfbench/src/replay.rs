//! The traced replay: the same workload as `Workspace` serves it, rebuilt
//! from each layer's public entry points so that a span can be recorded
//! around every call into a layer. It follows `Workspace` step for step
//! (decode, resolve in submission order, schedule, then per job: load and
//! repartition charges, cut materialization, dispatch), so its digest must
//! equal the untraced run's; any drift in either shows as a mismatch.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use cutfit_core::algorithms::triangles::{canonicalize, triangle_count_partitioned};
use cutfit_core::algorithms::{ConnectedComponents, PageRank, Sssp};
use cutfit_core::cluster::ClusterSim;
use cutfit_core::graph::io::ParseError;
use cutfit_core::graph::source::materialize;
use cutfit_core::graph::types::PartId;
use cutfit_core::graph::BinaryFileSource;
use cutfit_core::prelude::*;
use cutfit_core::{CacheStats, CutChoice, CutKey, GranularityHint};

use crate::digest::{Digest, JobDigest};
use crate::trace::Tracer;

/// How Pregel jobs are dispatched in a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Through `Algorithm::run_prepared`, as the `Workspace` dispatches
    /// them; vertex states are not returned.
    Prepared,
    /// Through `PreparedRun::run` with the algorithm's own vertex program,
    /// configured as `Algorithm::run_prepared` configures it, so that the
    /// final states can be checked against a reference.
    States,
}

/// A job's answer, kept for the reference check after the replay.
#[derive(Debug, Clone)]
pub enum Answer {
    /// Triangle Count total.
    Triangles(u64),
    /// Connected-components labels.
    Components {
        /// Whether the run reached its fixpoint.
        converged: bool,
        /// Per-vertex labels.
        labels: Vec<u64>,
    },
    /// Per-vertex hop distances to each landmark.
    Distances {
        /// Whether the run reached its fixpoint.
        converged: bool,
        /// The landmarks, in state order.
        landmarks: Vec<VertexId>,
        /// Per-vertex distance vectors.
        states: Vec<Vec<u32>>,
    },
}

/// Totals over every Pregel dispatch of a replay (jobs and probes).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTotals {
    /// Message supersteps.
    pub supersteps: u64,
    /// Message records shipped.
    pub messages: u64,
    /// Frontier samples recorded.
    pub samples: u64,
    /// Sum of the samples' active-vertex fractions.
    pub active_sum: f64,
    /// Sum of the samples' scanned-edge fractions.
    pub scanned_sum: f64,
}

/// What a replay produced.
#[derive(Debug)]
pub struct Replay {
    /// The replay's digest, jobs in dispatch order.
    pub digest: Digest,
    /// The decoded graph.
    pub graph: Arc<Graph>,
    /// Answers of the dispatched jobs, by dispatch index.
    pub answers: Vec<(usize, Answer)>,
    /// Every simulated report: jobs, probes, and the session's charges.
    pub reports: Vec<SimReport>,
    /// The session-level report (initial load and repartitions).
    pub session: SimReport,
    /// Engine totals over jobs and probes.
    pub engine: EngineTotals,
    /// Advisory probes dispatched.
    pub probes: u64,
    /// Replicas over every cut materialized.
    pub replicas: u64,
    /// Cut-cache counters.
    pub stats: CacheStats,
}

struct Cut {
    pg: Arc<PartitionedGraph>,
    prepared: Option<PreparedRun>,
}

struct Session<'a> {
    graph: Arc<Graph>,
    canon: Option<Arc<Graph>>,
    cluster: ClusterConfig,
    executor: ExecutorMode,
    engine: Engine,
    advice_mode: AdviceMode,
    base_parts: PartId,
    cuts: BTreeMap<CutKey, Cut>,
    advice: BTreeMap<(&'static str, PartId), GraphXStrategy>,
    sim: ClusterSim,
    load_bytes: u64,
    active: Option<CutKey>,
    loaded: bool,
    stats: CacheStats,
    advice_seconds: f64,
    probes: u64,
    replicas: u64,
    totals: EngineTotals,
    reports: Vec<SimReport>,
    trace: &'a mut Tracer,
}

type Dispatched = Result<(SimReport, u64, Option<Answer>), SimError>;

/// Replays `jobs` (in submission order) over the container at `path` with
/// the session settings of `workload`, recording spans into `trace`.
pub fn replay(
    workload: &crate::Workload,
    path: &Path,
    jobs: &[Job],
    executor: ExecutorMode,
    engine: Engine,
    trace: &mut Tracer,
) -> Result<Replay, ParseError> {
    let setup = trace.begin("setup", 0);
    let decode = trace.begin("graph.decode", 0);
    let source = BinaryFileSource::open(path)?
        .with_decode_threads(0)
        .with_read_ahead(8);
    let load_bytes = source.file_bytes();
    let graph = Arc::new(materialize(&source)?);
    trace.end(decode);

    let cluster = workload.cluster();
    let mut s = Session {
        graph,
        canon: None,
        sim: ClusterSim::new(cluster.clone(), cluster.executors),
        cluster,
        executor,
        engine,
        advice_mode: workload.advice,
        base_parts: workload.base_parts,
        cuts: BTreeMap::new(),
        advice: BTreeMap::new(),
        load_bytes,
        active: None,
        loaded: false,
        stats: CacheStats::default(),
        advice_seconds: 0.0,
        probes: 0,
        replicas: 0,
        totals: EngineTotals::default(),
        reports: Vec::new(),
        trace,
    };

    // `Workspace::schedule`: resolve in submission order, then a stable
    // sort by cut.
    let mut keyed = Vec::with_capacity(jobs.len());
    for job in jobs {
        keyed.push((s.resolve(job), job));
    }
    keyed.sort_by_key(|(k, _)| (k.canonical, k.num_parts, k.strategy.abbrev()));
    s.trace.end(setup);

    let serve = s.trace.begin("serve", 0);
    let mut digests = Vec::with_capacity(keyed.len());
    let mut answers = Vec::new();
    for (i, (_, job)) in keyed.into_iter().enumerate() {
        let (digest, answer) = s.run_job(job);
        digests.push(digest);
        if let Some(a) = answer {
            answers.push((i, a));
        }
    }
    s.trace.end(serve);

    let session = s.sim.report().clone();
    let mut reports = s.reports;
    reports.push(session.clone());
    Ok(Replay {
        digest: Digest::new(digests, s.advice_seconds, s.stats),
        graph: s.graph,
        answers,
        reports,
        session,
        engine: s.totals,
        probes: s.probes,
        replicas: s.replicas,
        stats: s.stats,
    })
}

impl Session<'_> {
    /// `Workspace::run_job_with`.
    fn run_job(&mut self, job: &Job) -> (JobDigest, Option<Answer>) {
        let key = self.resolve(job);
        let before = self.sim.report().total_seconds;
        if !self.loaded {
            self.sim.charge_load(self.load_bytes);
            self.loaded = true;
        }
        let cache_hit = self.ensure_cut(key);
        let switched_cut = self.active != Some(key);
        let mut provisioning_failure = None;
        if switched_cut {
            self.stats.cut_switches += 1;
            match self.sim.charge_repartition(self.cuts[&key].pg.num_edges()) {
                Ok(_) => self.active = Some(key),
                Err(e) => provisioning_failure = Some(e),
            }
        }
        let provisioning = self.sim.report().total_seconds - before;
        let outcome = match provisioning_failure {
            Some(e) => Err(e),
            None => self.dispatch(key, &job.algorithm),
        };
        let (supersteps, result, answer) = match outcome {
            Ok((sim, steps, answer)) => (steps, Ok(sim), answer),
            Err(e) => (0, Err(e), None),
        };
        let digest = JobDigest::new(
            job.algorithm.abbrev(),
            key,
            cache_hit,
            switched_cut,
            provisioning,
            supersteps,
            result.as_ref(),
        );
        (digest, answer)
    }

    /// `Workspace::resolve`.
    fn resolve(&mut self, job: &Job) -> CutKey {
        let algorithm = &job.algorithm;
        let canonical = algorithm.needs_canonical();
        let num_parts = match job.cut {
            CutChoice::Fixed {
                strategy,
                num_parts,
            } => {
                return CutKey {
                    strategy,
                    num_parts,
                    canonical,
                }
            }
            CutChoice::AdvisedAt { num_parts } => num_parts,
            CutChoice::Advised => {
                match Advisor::granularity_typed(algorithm.class(), algorithm.converges()) {
                    GranularityHint::Coarse => self.base_parts,
                    GranularityHint::Fine => self.base_parts.saturating_mul(2),
                }
            }
        };
        CutKey {
            strategy: self.advised(algorithm, num_parts),
            num_parts,
            canonical,
        }
    }

    /// The advisor's choice, memoized per (algorithm, granularity).
    fn advised(&mut self, algorithm: &Algorithm, num_parts: PartId) -> GraphXStrategy {
        if let Some(&s) = self.advice.get(&(algorithm.abbrev(), num_parts)) {
            return s;
        }
        let span = self.trace.begin("core.advise", num_parts);
        let strategy = match self.advice_mode {
            AdviceMode::Measured => self.measured(algorithm, num_parts),
            AdviceMode::Probed => self.probed(algorithm, num_parts),
        };
        self.trace.end(span);
        self.advice
            .insert((algorithm.abbrev(), num_parts), strategy);
        strategy
    }

    /// Measured advice: one fused sweep scores every candidate on the
    /// class metric; the lowest score wins, NaN last, ties in candidate
    /// order (`Advisor::recommend_measured_threaded`'s ranking).
    fn measured(&mut self, algorithm: &Algorithm, num_parts: PartId) -> GraphXStrategy {
        let graph = if algorithm.needs_canonical() {
            self.canonical()
        } else {
            self.graph.clone()
        };
        let metric = match algorithm.class() {
            AlgorithmClass::EdgeBound => MetricKind::CommCost,
            AlgorithmClass::VertexStateBound => MetricKind::Cut,
        };
        let candidates = GraphXStrategy::all();
        let span = self.trace.begin("partition.sweep", num_parts);
        let measured = sweep_metrics(&graph, &candidates, num_parts, self.executor.threads());
        self.trace.end(span);
        let score = |k: usize| measured[k].get(metric);
        let before = |a: f64, b: f64| match (a.is_nan(), b.is_nan()) {
            (false, false) => a.total_cmp(&b).is_lt(),
            (nan_a, nan_b) => !nan_a && nan_b,
        };
        let best = (1..candidates.len()).fold(0, |best, k| {
            if before(score(k), score(best)) {
                k
            } else {
                best
            }
        });
        candidates[best]
    }

    /// `Workspace`'s probed advice: the algorithm's probe under every
    /// candidate, through the cut cache; failed probes rank last.
    fn probed(&mut self, algorithm: &Algorithm, num_parts: PartId) -> GraphXStrategy {
        let probe = algorithm.probe();
        let canonical = algorithm.needs_canonical();
        let mut best: Option<(GraphXStrategy, f64)> = None;
        for strategy in GraphXStrategy::all() {
            let key = CutKey {
                strategy,
                num_parts,
                canonical,
            };
            self.ensure_cut(key);
            self.probes += 1;
            let time = match self.dispatch(key, &probe) {
                Ok((sim, _, _)) => {
                    self.advice_seconds += sim.total_seconds;
                    sim.total_seconds
                }
                Err(_) => f64::MAX,
            };
            if best.is_none_or(|(_, t)| time < t) {
                best = Some((strategy, time));
            }
        }
        best.expect("at least one candidate").0
    }

    /// Materializes `key` if absent; returns true on a cache hit.
    fn ensure_cut(&mut self, key: CutKey) -> bool {
        if self.cuts.contains_key(&key) {
            self.stats.cache_hits += 1;
            return true;
        }
        self.stats.cache_misses += 1;
        let graph = if key.canonical {
            self.canonical()
        } else {
            self.graph.clone()
        };
        let (parts, threads) = (key.num_parts, self.executor.threads());
        let span = self.trace.begin("partition.assign", parts);
        let assignment = key.strategy.assign_edges_threaded(&graph, parts, threads);
        self.trace.end(span);
        let span = self.trace.begin("partition.build", parts);
        let pg = PartitionedGraph::build_threaded(&graph, &assignment, parts, threads);
        self.trace.end(span);
        let span = self.trace.begin("partition.metrics", parts);
        let metrics = PartitionMetrics::of(&pg);
        self.trace.end(span);
        self.replicas += metrics.total_replicas;
        self.cuts.insert(
            key,
            Cut {
                pg: Arc::new(pg),
                prepared: None,
            },
        );
        false
    }

    /// The canonical orientation, computed once.
    fn canonical(&mut self) -> Arc<Graph> {
        if let Some(canon) = &self.canon {
            return canon.clone();
        }
        let span = self.trace.begin("algorithms.canonicalize", 0);
        let canon = Arc::new(canonicalize(&self.graph));
        self.trace.end(span);
        self.canon = Some(canon.clone());
        canon
    }

    /// Runs `algorithm` on the materialized cut `key`.
    fn dispatch(&mut self, key: CutKey, algorithm: &Algorithm) -> Dispatched {
        let cut = self
            .cuts
            .get_mut(&key)
            .expect("cut ensured before dispatch");
        let parts = key.num_parts;
        if matches!(algorithm, Algorithm::Triangles) {
            let span = self.trace.begin("algorithms.triangles", parts);
            let r = triangle_count_partitioned(&cut.pg, &self.cluster, false);
            self.trace.end(span);
            let r = r?;
            self.reports.push(r.sim.clone());
            return Ok((r.sim, 4, Some(Answer::Triangles(r.total))));
        }
        if cut.prepared.is_none() {
            let span = self.trace.begin("engine.prepare", parts);
            cut.prepared = Some(PreparedRun::new(
                cut.pg.clone(),
                &self.cluster,
                self.executor,
            ));
            self.trace.end(span);
        }
        let prepared = cut.prepared.as_mut().expect("prepared above");
        let span = self.trace.begin("engine.run", parts);
        let out = match self.engine {
            Engine::Prepared => algorithm
                .run_prepared(prepared, self.executor, false)
                .map(|(sim, steps)| (sim, steps, None)),
            Engine::States => run_with_states(algorithm, prepared, self.executor),
        };
        self.trace.end(span);
        let (sim, steps, answer) = out?;
        let t = &mut self.totals;
        t.supersteps += steps;
        t.messages += sim.messages;
        for sample in &sim.frontier_trace {
            t.samples += 1;
            t.active_sum += sample.active_fraction();
            t.scanned_sum += sample.scanned_fraction();
        }
        self.reports.push(sim.clone());
        Ok((sim, steps, answer))
    }
}

/// `Algorithm::run_prepared`'s dispatch for the programs whose final
/// states the gate checks, keeping those states.
fn run_with_states(
    algorithm: &Algorithm,
    prepared: &mut PreparedRun,
    executor: ExecutorMode,
) -> Dispatched {
    let opts = |max_iterations| PregelConfig {
        max_iterations,
        executor,
        charge_initial_load: false,
        ..Default::default()
    };
    match *algorithm {
        Algorithm::PageRank { iterations } => {
            let r = prepared.run(&PageRank, &opts(iterations))?;
            Ok((r.sim, r.supersteps, None))
        }
        Algorithm::ConnectedComponents { max_iterations } => {
            let r = prepared.run(&ConnectedComponents, &opts(max_iterations))?;
            let answer = Answer::Components {
                converged: r.converged,
                labels: r.states,
            };
            Ok((r.sim, r.supersteps, Some(answer)))
        }
        Algorithm::Sssp {
            num_landmarks,
            seed,
            max_iterations,
        } => {
            let landmarks =
                Sssp::pick_landmarks(prepared.graph().num_vertices(), num_landmarks, seed);
            let r = prepared.run(&Sssp::new(landmarks.clone()), &opts(max_iterations))?;
            let answer = Answer::Distances {
                converged: r.converged,
                landmarks,
                states: r.states,
            };
            Ok((r.sim, r.supersteps, Some(answer)))
        }
        _ => algorithm
            .run_prepared(prepared, executor, false)
            .map(|(sim, steps)| (sim, steps, None)),
    }
}
