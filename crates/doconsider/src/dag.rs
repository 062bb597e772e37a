//! The runtime true-dependence DAG of a doacross loop.
//!
//! Node `i` is iteration `i`; an edge `w → i` (with `w < i`) exists when
//! iteration `i` reads an element that iteration `w` writes. These are the
//! executor's `check < 0` references — exactly the references that can make
//! iteration `i` busy-wait. Antidependencies (`check > 0`) never cause
//! waiting in the preprocessed doacross (the old value is read from `y`),
//! so they impose no ordering constraint on the claim order and are not
//! edges here.

use doacross_core::{AccessPattern, MAXINT};

/// A compact CSR-style predecessor list: for each iteration, the earlier
/// iterations it truly depends on (deduplicated, ascending).
#[derive(Debug, Clone)]
pub struct DependenceDag {
    offsets: Vec<usize>,
    preds: Vec<usize>,
}

impl DependenceDag {
    /// Builds the DAG for `pattern` by replaying the inspector (a writer
    /// map over the data space) and classifying every reference — O(data
    /// space + total references).
    pub fn build<P: AccessPattern + ?Sized>(pattern: &P) -> Self {
        let n = pattern.iterations();
        // Writer map, as the inspector would fill it.
        let mut writer = vec![MAXINT; pattern.data_len()];
        for i in 0..n {
            writer[pattern.lhs(i)] = i as i64;
        }
        let mut offsets = vec![0usize; n + 1];
        let mut preds: Vec<usize> = Vec::new();
        let mut scratch: Vec<usize> = Vec::new();
        for i in 0..n {
            scratch.clear();
            for j in 0..pattern.terms(i) {
                let w = writer[pattern.term_element(i, j)];
                if w != MAXINT && (w as usize) < i {
                    scratch.push(w as usize);
                }
            }
            scratch.sort_unstable();
            scratch.dedup();
            preds.extend_from_slice(&scratch);
            offsets[i + 1] = preds.len();
        }
        Self { offsets, preds }
    }

    /// Builds the DAG directly from predecessor lists (used by solvers that
    /// already have the structure, e.g. a triangular matrix's rows).
    ///
    /// Each `preds_of(i)` entry must be `< i`.
    pub fn from_predecessors<F, I>(n: usize, preds_of: F) -> Self
    where
        F: Fn(usize) -> I,
        I: IntoIterator<Item = usize>,
    {
        let mut offsets = vec![0usize; n + 1];
        let mut preds: Vec<usize> = Vec::new();
        let mut scratch: Vec<usize> = Vec::new();
        for i in 0..n {
            scratch.clear();
            for p in preds_of(i) {
                assert!(p < i, "predecessor {p} of iteration {i} is not earlier");
                scratch.push(p);
            }
            scratch.sort_unstable();
            scratch.dedup();
            preds.extend_from_slice(&scratch);
            offsets[i + 1] = preds.len();
        }
        Self { offsets, preds }
    }

    /// Number of iterations (nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the loop has no iterations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The true-dependence predecessors of iteration `i` (ascending).
    #[inline]
    pub fn predecessors(&self, i: usize) -> &[usize] {
        &self.preds[self.offsets[i]..self.offsets[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::IndirectLoop;

    /// Iterations with no predecessors — claimable immediately.
    fn sources(dag: &DependenceDag) -> Vec<usize> {
        (0..dag.len())
            .filter(|&i| dag.predecessors(i).is_empty())
            .collect()
    }

    fn chain(n: usize) -> IndirectLoop {
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap()
    }

    #[test]
    fn chain_produces_path_graph() {
        let dag = DependenceDag::build(&chain(5));
        assert_eq!(dag.len(), 5);
        assert_eq!(dag.preds.len(), 4);
        assert!(dag.predecessors(0).is_empty());
        for i in 1..5 {
            assert_eq!(dag.predecessors(i), &[i - 1]);
        }
        assert_eq!(sources(&dag), vec![0]);
    }

    #[test]
    fn independent_loop_has_no_edges() {
        let n = 10;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|_| vec![]).collect();
        let l = IndirectLoop::new(n, a, rhs, vec![vec![]; n]).unwrap();
        let dag = DependenceDag::build(&l);
        assert_eq!(dag.preds.len(), 0);
        assert_eq!(sources(&dag).len(), n);
    }

    #[test]
    fn antidependencies_are_not_edges() {
        // Iteration 0 reads the element iteration 1 writes: an
        // antidependency, which never causes waiting.
        let l = IndirectLoop::new(
            2,
            vec![0, 1],
            vec![vec![1], vec![0]],
            vec![vec![1.0], vec![1.0]],
        )
        .unwrap();
        let dag = DependenceDag::build(&l);
        assert!(dag.predecessors(0).is_empty());
        assert_eq!(dag.predecessors(1), &[0], "1 reads 0's output: true dep");
    }

    #[test]
    fn duplicate_references_are_deduplicated() {
        let l = IndirectLoop::new(
            3,
            vec![0, 1, 2],
            vec![vec![], vec![0, 0, 0], vec![0, 1, 0]],
            vec![vec![], vec![1.0; 3], vec![1.0; 3]],
        )
        .unwrap();
        let dag = DependenceDag::build(&l);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.predecessors(2), &[0, 1]);
        assert_eq!(dag.preds.len(), 3);
    }

    #[test]
    fn from_predecessors_round_trip() {
        let dag = DependenceDag::from_predecessors(4, |i| if i == 3 { vec![0, 1] } else { vec![] });
        assert_eq!(dag.predecessors(3), &[0, 1]);
        assert_eq!(dag.preds.len(), 2);
        assert_eq!(sources(&dag), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "not earlier")]
    fn forward_predecessor_rejected() {
        let _ = DependenceDag::from_predecessors(2, |i| if i == 0 { vec![1] } else { vec![] });
    }

    #[test]
    fn empty_dag() {
        let dag = DependenceDag::from_predecessors(0, |_| Vec::<usize>::new());
        assert!(dag.is_empty());
        assert_eq!(dag.preds.len(), 0);
    }
}
