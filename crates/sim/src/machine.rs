//! The simulated shared-memory machine.
//!
//! The executor simulation replays the runtime's exact scheduling
//! discipline: processors claim iterations (or chunks) from a shared
//! counter in order, each claimed iteration runs the Figure 5 body, and a
//! true-dependency reference to an unfinished writer stalls the claiming
//! processor until the writer's (simulated) completion instant. Because
//! claims are chronological and true dependencies point to earlier claim
//! slots, a single pass over claim slots — always advancing the earliest-
//! available processor — is a complete discrete-event simulation.

use crate::cost::CostModel;
use crate::result::SimResult;
use doacross_core::{claim_grain, AccessPattern, MAXINT};

/// Knobs of a simulated run.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Iterations claimed per counter grab (the paper's Multimax policy is
    /// 1).
    pub chunk: usize,
    /// Simulate the inspector phase. Disable for the §2.3 linear-subscript
    /// variant, which eliminates execution-time preprocessing entirely
    /// (e.g. the triangular solve's identity subscript).
    pub include_inspector: bool,
    /// Halve the postprocessing cost: models consumers that read the
    /// result from `ynew` directly, so postprocessing only resets flags
    /// (no copy-back) — the configuration a solver library would use.
    pub light_post: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            chunk: 1,
            include_inspector: true,
            light_post: false,
        }
    }
}

/// A `p`-processor shared-memory machine with a [`CostModel`].
#[derive(Debug, Clone)]
pub struct Machine {
    /// Number of processors.
    pub processors: usize,
    /// Per-action costs.
    pub costs: CostModel,
}

impl Machine {
    /// A machine with `processors` equal-speed processors and the
    /// calibrated Multimax cost model.
    pub fn new(processors: usize) -> Self {
        assert!(processors > 0, "machine needs at least one processor");
        Self {
            processors,
            costs: CostModel::multimax(),
        }
    }

    /// The paper's testbed: 16 processors.
    pub fn multimax() -> Self {
        Self::new(16)
    }

    /// Sequential execution time of `pattern` (the paper's `T_seq`).
    pub fn sequential_time<P: AccessPattern + ?Sized>(&self, pattern: &P) -> f64 {
        let n = pattern.iterations();
        let total_terms: usize = (0..n).map(|i| pattern.terms(i)).sum();
        self.costs.sequential_time(n, total_terms)
    }

    /// Simulates a preprocessed-doacross run of `pattern`, optionally
    /// claiming iterations in `order` (a topological permutation, e.g. a
    /// doconsider order).
    ///
    /// # Panics
    /// Panics if `order` is non-topological (a writer simulated after its
    /// reader) or not a permutation.
    pub fn simulate_doacross<P: AccessPattern + ?Sized>(
        &self,
        pattern: &P,
        order: Option<&[usize]>,
        opts: SimOptions,
    ) -> SimResult {
        let n = pattern.iterations();
        let p = self.processors;
        let c = &self.costs;
        let chunk = opts.chunk.max(1);
        if let Some(ord) = order {
            assert_eq!(ord.len(), n, "order length must match iteration count");
        }

        // Writer map, as the inspector would fill it.
        let mut writer = vec![MAXINT; pattern.data_len()];
        for i in 0..n {
            writer[pattern.lhs(i)] = i as i64;
        }

        // Phase times for the embarrassingly parallel sweeps.
        let t_inspector = if opts.include_inspector && n > 0 {
            c.region_dispatch + (n as f64 * c.inspect_per_iter) / p as f64
        } else {
            0.0
        };
        let post_cost = if opts.light_post {
            c.post_per_iter * 0.5
        } else {
            c.post_per_iter
        };
        let t_post = if n > 0 {
            c.region_dispatch + (n as f64 * post_cost) / p as f64
        } else {
            0.0
        };

        // Executor: chronological claim simulation.
        let mut proc_time = vec![0.0f64; p];
        let mut completion = vec![f64::NAN; n];
        let mut wait_cycles = 0.0f64;
        let mut stalls = 0u64;
        let mut true_deps = 0u64;
        let mut next_slot = 0usize;
        while next_slot < n {
            // Earliest-available processor claims the next chunk.
            let proc = (0..p)
                .min_by(|&a, &b| proc_time[a].total_cmp(&proc_time[b]))
                .expect("at least one processor");
            let mut t = proc_time[proc] + c.schedule_grab;
            let hi = (next_slot + chunk).min(n);
            for slot in next_slot..hi {
                let i = order.map_or(slot, |o| o[slot]);
                t += c.iteration_setup;
                let iv = i as i64;
                for j in 0..pattern.terms(i) {
                    t += c.check;
                    let w = writer[pattern.term_element(i, j)];
                    if w != MAXINT && w < iv {
                        true_deps += 1;
                        let done = completion[w as usize];
                        assert!(
                            !done.is_nan(),
                            "writer {w} claimed after its reader {i}: order is not topological"
                        );
                        if done > t {
                            stalls += 1;
                            // Busy-wait until the writer publishes; the
                            // final successful poll costs one flag load.
                            wait_cycles += done - t;
                            t = done + c.wait_poll;
                        }
                    }
                    t += c.term;
                }
                t += c.publish;
                completion[i] = t;
            }
            proc_time[proc] = t;
            next_slot = hi;
        }
        let exec_busy = proc_time.iter().copied().fold(0.0f64, f64::max);
        let t_executor = if n > 0 {
            c.region_dispatch + exec_busy
        } else {
            0.0
        };

        let t_seq = self.sequential_time(pattern);
        let t_par = t_inspector + t_executor + t_post;
        let efficiency = if t_par > 0.0 {
            t_seq / (p as f64 * t_par)
        } else {
            0.0
        };
        SimResult {
            processors: p,
            iterations: n,
            t_seq,
            t_par,
            t_inspector,
            t_executor,
            t_post,
            efficiency,
            wait_cycles,
            stalls,
            true_deps,
        }
    }
}

impl Machine {
    /// Simulates a level-scheduled (barrier-per-wavefront) execution of
    /// `pattern`: levels run as doalls separated by a region dispatch/join,
    /// with no dependency checks, flags, or waiting inside a level.
    ///
    /// `level_sizes[l]` is the number of iterations in wavefront `l`; terms
    /// are charged per iteration exactly as in the doacross executor, minus
    /// the check cost (no `iter` lookups are needed once levels are known).
    /// `chunk` is the claim-slot count per counter grab, as
    /// `Doacross::run_planned` takes it: `Some(1)` is the paper's
    /// one-iteration policy, `None` derives it from each level's width
    /// ([`claim_grain`]). One grab is charged per chunk, and a level cannot
    /// finish faster than its costliest chunk.
    pub fn simulate_level_scheduled<P: AccessPattern + ?Sized>(
        &self,
        pattern: &P,
        order: &[usize],
        level_sizes: &[usize],
        chunk: Option<usize>,
    ) -> SimResult {
        let n = pattern.iterations();
        assert_eq!(order.len(), n, "order must cover all iterations");
        assert_eq!(
            level_sizes.iter().sum::<usize>(),
            n,
            "levels must partition the iterations"
        );
        let p = self.processors as f64;
        let c = &self.costs;
        let mut t_total = 0.0f64;
        let mut cursor = 0usize;
        for &width in level_sizes {
            // Work in this wavefront, ideally balanced over p processors;
            // a level cannot finish faster than its largest single chunk.
            let chunk = chunk
                .unwrap_or_else(|| claim_grain(width, self.processors))
                .max(1);
            let mut work = 0.0f64;
            let mut max_chunk = 0.0f64;
            for claimed in order[cursor..cursor + width].chunks(chunk) {
                // Summed left to right, so a one-iteration chunk costs what
                // a row always has, to the last bit.
                let mut cost = c.schedule_grab;
                for &i in claimed {
                    cost = cost + c.iteration_setup + pattern.terms(i) as f64 * c.term + c.publish;
                }
                work += cost;
                max_chunk = max_chunk.max(cost);
            }
            cursor += width;
            t_total += c.region_dispatch + (work / p).max(max_chunk);
        }
        let t_seq = self.sequential_time(pattern);
        let efficiency = if t_total > 0.0 {
            t_seq / (p * t_total)
        } else {
            0.0
        };
        SimResult {
            processors: self.processors,
            iterations: n,
            t_seq,
            t_par: t_total,
            t_inspector: 0.0,
            t_executor: t_total,
            t_post: 0.0,
            efficiency,
            wait_cycles: 0.0,
            stalls: 0,
            true_deps: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::{IndirectLoop, TestLoop};

    fn doall_loop(n: usize, m: usize) -> TestLoop {
        TestLoop::new(n, m, 7) // odd L: no dependencies
    }

    #[test]
    fn odd_l_plateaus_match_the_paper() {
        let machine = Machine::multimax();
        let r1 = machine.simulate_doacross(&doall_loop(10_000, 1), None, SimOptions::default());
        let r5 = machine.simulate_doacross(&doall_loop(10_000, 5), None, SimOptions::default());
        assert!(
            (r1.efficiency - 1.0 / 3.0).abs() < 0.02,
            "M=1: {}",
            r1.efficiency
        );
        assert!((r5.efficiency - 0.5).abs() < 0.02, "M=5: {}", r5.efficiency);
        assert_eq!(r1.stalls, 0);
        assert_eq!(r5.stalls, 0);
    }

    #[test]
    fn even_l_efficiency_rises_monotonically() {
        // Non-decreasing along L, with a genuine rise from the serialized
        // regime (small L) to the overhead plateau (large L) — the curve
        // flattens once dependence distances exceed the in-flight window,
        // exactly as Figure 6 does.
        let machine = Machine::multimax();
        for m in [1usize, 5] {
            let mut effs = Vec::new();
            for l in [4usize, 6, 8, 10, 12, 14] {
                let t = TestLoop::new(10_000, m, l);
                let r = machine.simulate_doacross(&t, None, SimOptions::default());
                effs.push(r.efficiency);
            }
            for w in effs.windows(2) {
                assert!(w[1] >= w[0] - 1e-12, "M={m}: {effs:?}");
            }
            assert!(
                effs.last().unwrap() > &(effs[0] * 1.5),
                "M={m}: plateau should clearly exceed the serialized regime: {effs:?}"
            );
        }
    }

    #[test]
    fn short_distance_dependencies_serialize() {
        // L=4, M=1: distance-1 chain -> far below the doall plateau.
        let machine = Machine::multimax();
        let chained =
            machine.simulate_doacross(&TestLoop::new(10_000, 1, 4), None, SimOptions::default());
        let free =
            machine.simulate_doacross(&TestLoop::new(10_000, 1, 7), None, SimOptions::default());
        assert!(chained.efficiency < free.efficiency / 2.0);
        assert!(chained.stalls > 0);
        assert!(chained.wait_cycles > 0.0);
    }

    #[test]
    fn single_processor_has_no_stalls_and_overhead_bound_efficiency() {
        let machine = Machine::new(1);
        let r = machine.simulate_doacross(&TestLoop::new(2_000, 1, 4), None, SimOptions::default());
        assert_eq!(r.stalls, 0, "in-order single processor never waits");
        // Efficiency at p=1 is the pure overhead ratio.
        assert!((r.efficiency - machine.costs.doall_efficiency(1)).abs() < 0.05);
    }

    #[test]
    fn eliminating_inspector_and_copy_back_raises_efficiency() {
        let machine = Machine::multimax();
        let t = doall_loop(10_000, 1);
        let full = machine.simulate_doacross(&t, None, SimOptions::default());
        let lean = machine.simulate_doacross(
            &t,
            None,
            SimOptions {
                include_inspector: false,
                light_post: true,
                chunk: 1,
            },
        );
        assert_eq!(lean.t_inspector, 0.0);
        assert!(lean.efficiency > full.efficiency);
    }

    #[test]
    fn chunking_reduces_grab_overhead_for_doalls() {
        let machine = Machine::multimax();
        let t = doall_loop(10_000, 1);
        let c1 = machine.simulate_doacross(&t, None, SimOptions::default());
        let c8 = machine.simulate_doacross(
            &t,
            None,
            SimOptions {
                chunk: 8,
                ..Default::default()
            },
        );
        assert!(c8.t_executor < c1.t_executor);
    }

    #[test]
    fn topological_order_enables_parallelism_on_chained_loop() {
        // Two interleaved distance-1 chains; a level order interleaves
        // them so stalls shrink.
        let machine = Machine::multimax();
        let t = TestLoop::new(10_000, 1, 4);
        let natural = machine.simulate_doacross(&t, None, SimOptions::default());
        // L=4, M=1: iteration i depends on i-1. The only valid orders are
        // essentially the natural one, so instead check the simulator's
        // order plumbing with an explicitly identical permutation.
        let identity: Vec<usize> = (0..t.iterations()).collect();
        let same = machine.simulate_doacross(&t, Some(&identity), SimOptions::default());
        assert!((natural.t_par - same.t_par).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not topological")]
    fn non_topological_order_is_detected() {
        let n = 4;
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let l = IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap();
        let machine = Machine::new(2);
        let rev: Vec<usize> = (0..n).rev().collect();
        let _ = machine.simulate_doacross(&l, Some(&rev), SimOptions::default());
    }

    #[test]
    fn empty_loop_simulates_to_zero() {
        let l = IndirectLoop::new(0, vec![], vec![], vec![]).unwrap();
        let machine = Machine::multimax();
        let r = machine.simulate_doacross(&l, None, SimOptions::default());
        assert_eq!(r.t_par, 0.0);
        assert_eq!(r.efficiency, 0.0);
    }

    #[test]
    fn speedup_never_exceeds_processor_count() {
        let machine = Machine::multimax();
        for l in [4usize, 7, 10, 14] {
            let t = TestLoop::new(5_000, 3, l);
            let r = machine.simulate_doacross(&t, None, SimOptions::default());
            assert!(r.speedup() <= 16.0 + 1e-9, "L={l}");
            assert!(r.efficiency <= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let _ = Machine::new(0);
    }

    #[test]
    fn doall_efficiency_is_processor_count_independent() {
        // Work conservation: for a dependence-free loop the efficiency is
        // the overhead ratio, regardless of p (large-n limit).
        let t = doall_loop(20_000, 1);
        let baseline = Machine::new(2)
            .simulate_doacross(&t, None, SimOptions::default())
            .efficiency;
        for p in [4usize, 8, 32] {
            let e = Machine::new(p)
                .simulate_doacross(&t, None, SimOptions::default())
                .efficiency;
            assert!((e - baseline).abs() < 0.02, "p={p}: {e} vs {baseline}");
        }
    }

    #[test]
    fn level_scheduled_doall_is_one_region() {
        // A dependence-free loop has a single level; the level-scheduled
        // time is one dispatch plus balanced work.
        let n = 1_000;
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|_| vec![]).collect();
        let l = IndirectLoop::new(n, a, rhs, vec![vec![]; n]).unwrap();
        let machine = Machine::multimax();
        let order: Vec<usize> = (0..n).collect();
        let r = machine.simulate_level_scheduled(&l, &order, &[n], Some(1));
        let c = &machine.costs;
        let per_iter = c.schedule_grab + c.iteration_setup + c.publish;
        let expect = c.region_dispatch + n as f64 * per_iter / 16.0;
        assert!((r.t_par - expect).abs() < 1e-6, "{} vs {expect}", r.t_par);
    }

    #[test]
    fn level_scheduled_chain_pays_a_dispatch_per_level() {
        // A pure chain has n levels of one iteration each: barrier cost
        // dominates, which is exactly why the paper's flag-based doacross
        // exists.
        let n = 100;
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let l = IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap();
        let machine = Machine::multimax();
        let order: Vec<usize> = (0..n).collect();
        let levels = vec![1usize; n];
        let lvl = machine.simulate_level_scheduled(&l, &order, &levels, Some(1));
        let doacross = machine.simulate_doacross(&l, None, SimOptions::default());
        assert!(
            lvl.t_par > doacross.t_par,
            "barrier-per-level must lose on a chain: {} vs {}",
            lvl.t_par,
            doacross.t_par
        );
        assert!(lvl.t_par >= n as f64 * machine.costs.region_dispatch);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn level_sizes_must_partition() {
        let l =
            IndirectLoop::new(2, vec![0, 1], vec![vec![], vec![]], vec![vec![], vec![]]).unwrap();
        let machine = Machine::new(2);
        let _ = machine.simulate_level_scheduled(&l, &[0, 1], &[1], Some(1));
    }
}
