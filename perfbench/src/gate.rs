//! The correctness gate's reference check: job answers against the exact
//! algorithms in `cutfit_graph::analysis`.

use std::collections::BTreeSet;

use cutfit_core::graph::analysis::{bfs_distances, count_triangles, weakly_connected_components};
use cutfit_core::graph::{Csr, Graph};

use crate::replay::Answer;

/// Indices of the jobs whose answer differs from the reference. Runs that
/// stopped at their iteration cap have no fixpoint to compare and are
/// skipped; so are jobs with no reference (PageRank).
pub fn wrong_answers<'a>(
    graph: &Graph,
    answers: impl IntoIterator<Item = &'a (usize, Answer)>,
) -> BTreeSet<usize> {
    let mut triangles = None;
    let mut components = None;
    let mut reversed = None;
    let mut wrong = BTreeSet::new();
    for (job, answer) in answers {
        let ok = match answer {
            Answer::Triangles(total) => {
                *total == *triangles.get_or_insert_with(|| count_triangles(graph))
            }
            Answer::Components { converged, labels } => {
                !converged
                    || *labels
                        == components
                            .get_or_insert_with(|| weakly_connected_components(graph).labels)
                            .as_slice()
            }
            Answer::Distances {
                converged,
                landmarks,
                states,
            } => {
                // SSSP improves src from dst along each edge: distances
                // follow out-edges, so the reference BFS runs on in-edges.
                let rev = reversed.get_or_insert_with(|| Csr::in_of(graph));
                !converged
                    || landmarks.iter().enumerate().all(|(i, &l)| {
                        let dist = bfs_distances(&*rev, l);
                        states.len() == dist.len()
                            && states.iter().zip(&dist).all(|(s, &d)| s.get(i) == Some(&d))
                    })
            }
        };
        if !ok {
            wrong.insert(*job);
        }
    }
    wrong
}
