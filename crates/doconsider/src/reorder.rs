//! The doconsider permutation: level-sorted iteration claim order.
//!
//! Sorting iterations by wavefront level (stable within a level) puts
//! mutually independent iterations next to each other in the claim
//! sequence. Under self-scheduling, consecutive claims go to different
//! processors, so processors stop claiming chains of directly dependent
//! iterations — which is precisely how the plain preprocessed doacross
//! loses time on the Table 1 solves (efficiencies 0.32–0.46), and why the
//! rearranged version recovers it (0.63–0.75).

use crate::dag::DependenceDag;
use crate::levels::LevelAssignment;
use doacross_core::{AccessPattern, ClaimStream};

/// Computes the doconsider claim order for `pattern`: iterations sorted by
/// dependence level, stable within a level. The result is a permutation of
/// `0..n` and a topological order of the true dependencies, suitable as
/// the claim order of a stream (`doacross_plan::CensusPass::stream`, the
/// artifact of a `Reordered` plan).
pub fn doconsider_order<P: AccessPattern + ?Sized>(pattern: &P) -> Vec<usize> {
    let dag = DependenceDag::build(pattern);
    let levels = LevelAssignment::compute(&dag);
    order_from_levels(&levels)
}

/// The level-sorted permutation for a precomputed [`LevelAssignment`]
/// (counting sort by level — O(n + levels), stable): the order half of
/// [`ClaimStream::sort_levels`].
pub fn order_from_levels(levels: &LevelAssignment) -> Vec<usize> {
    ClaimStream::sort_levels(levels.levels(), levels.critical_path()).1
}

/// Inverts a permutation: `inv[order[k]] == k`.
///
/// # Panics
/// Panics if `order` is not a permutation of `0..order.len()`.
fn invert_permutation(order: &[usize]) -> Vec<usize> {
    let n = order.len();
    let mut inv = vec![usize::MAX; n];
    for (k, &i) in order.iter().enumerate() {
        assert!(i < n && inv[i] == usize::MAX, "not a permutation");
        inv[i] = k;
    }
    inv
}

/// Whether `order` claims every true-dependence writer before its readers.
pub fn is_topological_order(dag: &DependenceDag, order: &[usize]) -> bool {
    if order.len() != dag.len() {
        return false;
    }
    let pos = invert_permutation(order);
    (0..dag.len()).all(|i| dag.predecessors(i).iter().all(|&p| pos[p] < pos[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::IndirectLoop;

    /// The smallest claim-distance between any dependent pair under `order`:
    /// `min over edges (w → i) of pos[i] − pos[w]`. Returns `None` for a
    /// dependence-free loop.
    ///
    /// This is the quantity the doconsider transformation maximizes: under
    /// self-scheduling on `p` processors, a dependent pair closer than ≈`p`
    /// claim slots executes concurrently and the reader stalls. The natural
    /// order of a distance-1 chain has gap 1 (maximal stalling); a level order
    /// pushes every gap to at least the width of the predecessor's level.
    fn min_dependence_gap(dag: &DependenceDag, order: &[usize]) -> Option<usize> {
        assert_eq!(order.len(), dag.len(), "order must cover the loop");
        let pos = invert_permutation(order);
        let mut min_gap: Option<usize> = None;
        for i in 0..dag.len() {
            for &w in dag.predecessors(i) {
                debug_assert!(pos[w] < pos[i], "order must be topological");
                let gap = pos[i] - pos[w];
                min_gap = Some(min_gap.map_or(gap, |g| g.min(gap)));
            }
        }
        min_gap
    }

    fn chain(n: usize) -> IndirectLoop {
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap()
    }

    #[test]
    fn chain_order_is_identity() {
        let order = doconsider_order(&chain(6));
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn independent_order_is_identity_by_stability() {
        let n = 5;
        let a: Vec<usize> = (0..n).collect();
        let l = IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap();
        assert_eq!(doconsider_order(&l), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn interleaved_chains_are_grouped_by_level() {
        // Two independent chains interleaved in iteration order:
        //   chain A: 0 -> 2 -> 4 ; chain B: 1 -> 3 -> 5
        // Levels: [1,1,2,2,3,3] -> order groups wavefronts together.
        let a = vec![2, 3, 4, 5, 6, 7];
        let rhs = vec![vec![], vec![], vec![2], vec![3], vec![4], vec![5]];
        let coeff = vec![vec![], vec![], vec![1.0], vec![1.0], vec![1.0], vec![1.0]];
        let l = IndirectLoop::new(8, a, rhs, coeff).unwrap();
        let order = doconsider_order(&l);
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
        // Same loop but with the chains' dependence distances = 1 (claim
        // order matters): A: 0 -> 1, B: 2 -> 3 becomes levels [1,2,1,2].
        let a2 = vec![4, 5, 6, 7];
        let rhs2 = vec![vec![], vec![4], vec![], vec![6]];
        let coeff2 = vec![vec![], vec![1.0], vec![], vec![1.0]];
        let l2 = IndirectLoop::new(8, a2, rhs2, coeff2).unwrap();
        let order2 = doconsider_order(&l2);
        assert_eq!(order2, vec![0, 2, 1, 3], "level-1 first, then level-2");
    }

    #[test]
    fn order_is_always_topological() {
        let l = chain(20);
        let dag = crate::dag::DependenceDag::build(&l);
        let order = doconsider_order(&l);
        assert!(is_topological_order(&dag, &order));
        // Reversed chain order is not.
        let rev: Vec<usize> = (0..20).rev().collect();
        assert!(!is_topological_order(&dag, &rev));
    }

    #[test]
    fn invert_round_trips() {
        let order = vec![3usize, 1, 0, 2];
        let inv = invert_permutation(&order);
        assert_eq!(inv, vec![2, 1, 3, 0]);
        for (k, &i) in order.iter().enumerate() {
            assert_eq!(inv[i], k);
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn invert_rejects_duplicates() {
        let _ = invert_permutation(&[0, 0, 2]);
    }

    #[test]
    fn wrong_length_is_not_topological() {
        let dag = crate::dag::DependenceDag::from_predecessors(3, |_| Vec::<usize>::new());
        assert!(!is_topological_order(&dag, &[0, 1]));
    }

    #[test]
    fn dependence_gap_of_chain_is_one_either_way() {
        let dag = crate::dag::DependenceDag::from_predecessors(5, |i| {
            if i > 0 {
                vec![i - 1]
            } else {
                vec![]
            }
        });
        let natural: Vec<usize> = (0..5).collect();
        assert_eq!(min_dependence_gap(&dag, &natural), Some(1));
    }

    #[test]
    fn dependence_gap_none_for_doall() {
        let dag = crate::dag::DependenceDag::from_predecessors(4, |_| Vec::<usize>::new());
        assert_eq!(min_dependence_gap(&dag, &[0, 1, 2, 3]), None);
    }

    #[test]
    fn doconsider_widens_the_gap_on_interleaved_chains() {
        // Iterations 0..8 in two chains with distance-1 deps in natural
        // order: A: 0->1->2->3, B: 4->5->6->7 via lhs/rhs structure.
        // Natural order gap = 1. Level order interleaves the chains:
        // levels [1,2,3,4,1,2,3,4] -> order [0,4,1,5,2,6,3,7] -> gap = 2.
        let a = vec![8, 9, 10, 11, 12, 13, 14, 15];
        let rhs = vec![
            vec![],
            vec![8],
            vec![9],
            vec![10],
            vec![],
            vec![12],
            vec![13],
            vec![14],
        ];
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![1.0; r.len()]).collect();
        let l = IndirectLoop::new(16, a, rhs, coeff).unwrap();
        let dag = crate::dag::DependenceDag::build(&l);
        let natural: Vec<usize> = (0..8).collect();
        let level = doconsider_order(&l);
        assert_eq!(level, vec![0, 4, 1, 5, 2, 6, 3, 7]);
        assert_eq!(min_dependence_gap(&dag, &natural), Some(1));
        assert_eq!(min_dependence_gap(&dag, &level), Some(2));
    }
}
