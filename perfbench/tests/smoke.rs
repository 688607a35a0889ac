//! Small-scale smoke test of the benchmark itself: every workload passes its
//! correctness gate, and a run reports exactly the metrics `BENCHMARK.json`
//! declares, under their declared names.

use std::time::Duration;

use cutfit_core::graph::analysis::count_triangles;
use cutfit_core::graph::binfmt::write_binary_file;
use serve_bench::gate::wrong_answers;
use serve_bench::replay::Answer;
use serve_bench::{measure, result_json, Workload, MIN_PASSES};

/// `(name, unit)` of every entry listed under `section` in `BENCHMARK.json`
/// (the unit is empty for workloads).
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let rest = &json[start..];
    let list = &rest[..rest.find(']').expect("section is a list")];
    let quoted = |s: &str| s.split('"').nth(1).unwrap_or_default().to_string();
    list.split("\"name\"")
        .skip(1)
        .map(|entry| {
            let unit = entry.split("\"unit\"").nth(1).map(quoted);
            (quoted(entry), unit.unwrap_or_default())
        })
        .collect()
}

#[test]
fn every_workload_passes_its_gate_and_reports_the_declared_metrics() {
    let declared_workloads = declared("workloads");
    let names: Vec<(String, String)> = Workload::all()
        .iter()
        .map(|w| (w.name.to_string(), String::new()))
        .collect();
    assert_eq!(declared_workloads, names);
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-bench-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    for w in Workload::all() {
        let w = w.clone().at_scale(w.scale / 16.0);
        let path = dir.join(format!("{}.cfb", w.name));
        write_binary_file(&w.generate(5), &path).unwrap();
        let o = measure(&w, &path, 5, Duration::ZERO).unwrap();
        std::fs::remove_file(&path).ok();

        assert!(o.correct, "{}: {:?}", w.name, o.notes);
        assert_eq!(o.failed, 0, "{}", w.name);
        let jobs = w.jobs(5).len() as u64;
        assert_eq!(o.attempted, jobs * (1 + MIN_PASSES as u64), "{}", w.name);
        let got = |ms: &[serve_bench::Metric]| {
            ms.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(got(&o.end_to_end), end_to_end, "{}", w.name);
        assert_eq!(got(&o.per_layer), per_layer, "{}", w.name);
        for traced in [false, true] {
            let line = result_json(&o, traced);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
        }
    }
}

#[test]
fn the_gate_flags_a_wrong_answer() {
    let w = Workload::by_name("social-serve").unwrap().at_scale(0.0005);
    let g = w.generate(2);
    let truth = count_triangles(&g);
    let answers = [
        (0, Answer::Triangles(truth)),
        (3, Answer::Triangles(truth + 1)),
    ];
    assert_eq!(
        wrong_answers(&g, &answers).into_iter().collect::<Vec<_>>(),
        vec![3]
    );
}

#[test]
fn digests_disagree_on_the_job_that_differs() {
    use cutfit_core::{CacheStats, CutKey, GraphXStrategy};
    use serve_bench::digest::{Digest, JobDigest};
    let key = CutKey {
        strategy: GraphXStrategy::EdgePartition2D,
        num_parts: 8,
        canonical: false,
    };
    let report = cutfit_core::cluster::SimReport::default();
    let job = |steps| JobDigest::new("PR", key, false, true, 0.5, steps, Ok(&report));
    let a = Digest::new(vec![job(3), job(4)], 0.0, CacheStats::default());
    let b = Digest::new(vec![job(3), job(5)], 0.0, CacheStats::default());
    assert_eq!(a.mismatched(&b).into_iter().collect::<Vec<_>>(), vec![1]);
    assert!(a.mismatched(&a).is_empty());
    let stats = CacheStats {
        cache_hits: 1,
        ..CacheStats::default()
    };
    let c = Digest::new(vec![job(3), job(4)], 0.0, stats);
    assert_eq!(
        a.mismatched(&c).len(),
        2,
        "session-level drift flags every job"
    );
}
