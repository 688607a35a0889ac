//! Per-job digests: what every run of a workload must agree on, bit for
//! bit, whichever path served it.

use std::collections::BTreeSet;

use cutfit_core::cluster::{SimError, SimReport};
use cutfit_core::graph::types::PartId;
use cutfit_core::{CacheStats, CutKey, WorkloadReport};

/// One job's resolved cut and simulated outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobDigest {
    /// Algorithm abbreviation.
    pub algorithm: &'static str,
    /// Strategy abbreviation of the resolved cut.
    pub strategy: &'static str,
    /// Partition count of the resolved cut.
    pub num_parts: PartId,
    /// Whether the cut is over the canonical orientation.
    pub canonical: bool,
    /// Whether the cut was already materialized.
    pub cache_hit: bool,
    /// Whether the job switched the session's active cut.
    pub switched_cut: bool,
    /// Supersteps executed.
    pub supersteps: u64,
    /// Bits of the job's simulated total seconds.
    pub total_bits: u64,
    /// Message records the job shipped.
    pub messages: u64,
    /// Bits of the session-level provisioning seconds the job caused.
    pub provisioning_bits: u64,
    /// The failure, if the job failed.
    pub error: Option<String>,
}

impl JobDigest {
    /// Digest of one dispatch.
    pub fn new(
        algorithm: &'static str,
        key: CutKey,
        cache_hit: bool,
        switched_cut: bool,
        provisioning_seconds: f64,
        supersteps: u64,
        result: Result<&SimReport, &SimError>,
    ) -> Self {
        let (total_bits, messages, error) = match result {
            Ok(r) => (r.total_seconds.to_bits(), r.messages, None),
            Err(e) => (0, 0, Some(e.to_string())),
        };
        Self {
            algorithm,
            strategy: key.strategy.abbrev(),
            num_parts: key.num_parts,
            canonical: key.canonical,
            cache_hit,
            switched_cut,
            supersteps,
            total_bits,
            messages,
            provisioning_bits: provisioning_seconds.to_bits(),
            error,
        }
    }
}

/// A whole workload's digest: its jobs in dispatch order plus the
/// session-level quantities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// One entry per dispatched job.
    pub jobs: Vec<JobDigest>,
    /// Bits of the simulated seconds spent on advisory probes.
    pub advice_bits: u64,
    /// Cut-cache hits, misses and active-cut switches.
    pub cache: (u64, u64, u64),
}

impl Digest {
    /// Digest of a workload served through a `Workspace`.
    pub fn of_report(report: &WorkloadReport, advice_seconds: f64, stats: CacheStats) -> Self {
        let jobs = report
            .jobs
            .iter()
            .map(|j| {
                let key = CutKey {
                    strategy: j.strategy,
                    num_parts: j.num_parts,
                    canonical: j.canonical,
                };
                JobDigest::new(
                    j.algorithm,
                    key,
                    j.cache_hit,
                    j.switched_cut,
                    j.provisioning_seconds,
                    j.supersteps,
                    j.result.as_ref(),
                )
            })
            .collect();
        Self::new(jobs, advice_seconds, stats)
    }

    /// Assembles a digest.
    pub fn new(jobs: Vec<JobDigest>, advice_seconds: f64, stats: CacheStats) -> Self {
        Self {
            jobs,
            advice_bits: advice_seconds.to_bits(),
            cache: (stats.cache_hits, stats.cache_misses, stats.cut_switches),
        }
    }

    /// Indices of the jobs on which `self` and `other` disagree. Every job
    /// counts as disagreeing when the session-level quantities differ.
    pub fn mismatched(&self, other: &Digest) -> BTreeSet<usize> {
        let n = self.jobs.len().max(other.jobs.len());
        if self.advice_bits != other.advice_bits || self.cache != other.cache {
            return (0..n).collect();
        }
        (0..n)
            .filter(|&i| self.jobs.get(i) != other.jobs.get(i))
            .collect()
    }

    /// Indices of the jobs that failed.
    pub fn failed(&self) -> BTreeSet<usize> {
        (0..self.jobs.len())
            .filter(|&i| self.jobs[i].error.is_some())
            .collect()
    }

    /// A short fingerprint for logs (FNV-1a over the debug rendering).
    pub fn fingerprint(&self) -> u64 {
        format!("{self:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }
}
