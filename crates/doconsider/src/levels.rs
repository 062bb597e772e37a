//! Wavefront (level) assignment over the true-dependence DAG.
//!
//! `level(i) = 1 + max(level(p) for p in predecessors(i))`, with sources at
//! level 1. Iterations sharing a level are mutually independent, so the
//! levels are the solve's *wavefronts*; the level count is the dependence
//! critical path, and `n / levels` is the average exploitable parallelism —
//! the quantity that decides how well Table 1's triangular solves can do on
//! 16 processors.

use crate::dag::DependenceDag;
use doacross_core::ClaimStream;

/// The level (wavefront) of every iteration, plus summary statistics.
#[derive(Debug, Clone)]
pub struct LevelAssignment {
    /// `level[i] ∈ 1..=nlevels`.
    levels: Vec<usize>,
    nlevels: usize,
}

impl LevelAssignment {
    /// Computes levels with one forward sweep (predecessors always precede
    /// their dependents in iteration order, so a single in-order pass
    /// suffices — O(nodes + edges)).
    pub fn compute(dag: &DependenceDag) -> Self {
        let n = dag.len();
        let mut levels = vec![0usize; n];
        let mut nlevels = 0usize;
        for i in 0..n {
            let mut lvl = 1usize;
            for &p in dag.predecessors(i) {
                lvl = lvl.max(levels[p] + 1);
            }
            levels[i] = lvl;
            nlevels = nlevels.max(lvl);
        }
        Self { levels, nlevels }
    }

    /// Number of iterations.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the assignment is empty.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The level of iteration `i` (1-based).
    #[inline]
    pub fn level(&self, i: usize) -> usize {
        self.levels[i]
    }

    /// All levels, indexed by iteration.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// Number of distinct levels — the dependence critical path length.
    pub fn critical_path(&self) -> usize {
        self.nlevels
    }

    /// Average wavefront width `n / nlevels` (0 for an empty loop): the
    /// average parallelism available to a machine with enough processors.
    pub fn average_parallelism(&self) -> f64 {
        if self.nlevels == 0 {
            0.0
        } else {
            self.levels.len() as f64 / self.nlevels as f64
        }
    }
}

/// Iterations per level: `histogram[l - 1]` is the width of level `l` —
/// the differences of [`ClaimStream::sort_levels`]' level offsets.
pub fn level_histogram(assignment: &LevelAssignment) -> Vec<usize> {
    let (offsets, _) = ClaimStream::sort_levels(assignment.levels(), assignment.critical_path());
    offsets.windows(2).map(|w| w[1] - w[0]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DependenceDag;

    #[test]
    fn chain_levels_are_positions() {
        let dag = DependenceDag::from_predecessors(5, |i| if i > 0 { vec![i - 1] } else { vec![] });
        let lv = LevelAssignment::compute(&dag);
        assert_eq!(lv.levels(), &[1, 2, 3, 4, 5]);
        assert_eq!(lv.critical_path(), 5);
        assert_eq!(lv.average_parallelism(), 1.0);
        assert_eq!(level_histogram(&lv), vec![1; 5]);
    }

    #[test]
    fn independent_iterations_share_level_one() {
        let dag = DependenceDag::from_predecessors(8, |_| Vec::<usize>::new());
        let lv = LevelAssignment::compute(&dag);
        assert!(lv.levels().iter().all(|&l| l == 1));
        assert_eq!(lv.critical_path(), 1);
        assert_eq!(lv.average_parallelism(), 8.0);
        assert_eq!(level_histogram(&lv), vec![8]);
    }

    #[test]
    fn diamond_dag_levels() {
        //      0
        //    /   \
        //   1     2
        //    \   /
        //      3
        let dag = DependenceDag::from_predecessors(4, |i| match i {
            1 | 2 => vec![0],
            3 => vec![1, 2],
            _ => vec![],
        });
        let lv = LevelAssignment::compute(&dag);
        assert_eq!(lv.levels(), &[1, 2, 2, 3]);
        assert_eq!(level_histogram(&lv), vec![1, 2, 1]);
        assert_eq!(lv.critical_path(), 3);
    }

    #[test]
    fn level_is_longest_path_not_shortest() {
        // 3 depends on 0 (short path) and on 2 (via 0->1->2 long path).
        let dag = DependenceDag::from_predecessors(4, |i| match i {
            1 => vec![0],
            2 => vec![1],
            3 => vec![0, 2],
            _ => vec![],
        });
        let lv = LevelAssignment::compute(&dag);
        assert_eq!(lv.level(3), 4, "longest chain 0->1->2->3");
    }

    #[test]
    fn empty_assignment() {
        let dag = DependenceDag::from_predecessors(0, |_| Vec::<usize>::new());
        let lv = LevelAssignment::compute(&dag);
        assert!(lv.is_empty());
        assert_eq!(lv.critical_path(), 0);
        assert_eq!(lv.average_parallelism(), 0.0);
        assert!(level_histogram(&lv).is_empty());
    }
}
