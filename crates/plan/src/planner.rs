//! Cost-model-driven variant selection.
//!
//! The planner turns a [`PlanCensus`] into a [`PlanVariant`] choice by
//! pricing each legal candidate with the calibrated [`CostModel`] from
//! `doacross-sim` (the same constants that reproduce the paper's Figure 6
//! plateaus). All prices are *per planned run* — the inspector does not
//! appear in any parallel candidate's price, because a plan pays it once at
//! build time; that asymmetry is the whole point of the subsystem.
//!
//! ## The model
//!
//! With `p` processors, `n` iterations, `T` references, and per-action
//! costs `c`:
//!
//! * per-iteration executor overhead `e = grab + setup + publish`,
//!   per-reference work `r = term + check`, serial iteration cost
//!   `chain = e + (T/n)·r`;
//! * total executor work `W = n·e + T·r`;
//! * the critical path bounds any schedule: `t ≥ CP · chain`;
//! * a true dependency whose writer is claimed `g` slots earlier stalls its
//!   reader roughly `chain · max(0, p − g)/p` (with one claim per slot,
//!   `p` consecutive slots run concurrently, so a gap below `p` leaves the
//!   writer `(p − g)/p` of an iteration short of finished when the reader
//!   wants its value) — summed over the dependence edges this prices a
//!   claim order, which is what separates the natural from the doconsider
//!   order on Table 1-like structures;
//! * every *flag-based* variant additionally pays one `ready` check per
//!   true dependency (`true_deps · wait_poll` — the successful poll of
//!   Figure 5 S4 that even a non-stalling reader performs);
//! * executor estimate `max((W + flags + stalls)/p, CP · chain)`, plus
//!   postprocessing `n · post/p` and one region dispatch (the copy-back
//!   rides in the executor's region).
//!
//! The **wavefront** candidate replaces the per-element synchronization
//! with per-level barriers: it pays no flag checks and never stalls, but
//! each of its `CP` levels costs `⌈width/p⌉ · chain` (whole claim rounds —
//! a level cannot borrow slack from its neighbors) plus one barrier
//! crossing. The selection rule the two prices encode is exactly the
//! DOACROSS→DOALL conversion trade-off: level scheduling wins when the
//! predicted poll/stall bill exceeds `levels × barrier`.
//!
//! Sequential is priced with the paper's `T_seq` model and wins ties (it
//! uses the fewest resources); the linear variant wins ties against the
//! streamed one (it carries no artifact at all), and the flag-based
//! variants win ties against the wavefront (its artifact is larger).
//!
//! ## Stage 1: the floor
//!
//! A plan build stops where its decision is made. Stage 1 is one census
//! pass ([`CensusPass::of`]) and a gate that is arithmetic on its counters:
//! [`parallel_floor`]` = dispatch + max(W/p, CP·chain) + n·post/p` bounds
//! every parallel candidate of an injective loop from below, by three
//! inequalities —
//!
//! 1. **flag variants**: `flags ≥ 0` and `stalls ≥ 0` sit *inside* the
//!    `max`, so `max((W + flags + stalls)/p, CP·chain) ≥ max(W/p, CP·chain)`
//!    under any claim order (doacross, linear, reordered);
//! 2. **wavefront**: every level is at least one claim round and rounds are
//!    whole, so `Σ⌈width/p⌉ ≥ max(⌈n/p⌉, CP)`; with `n·chain = W` that is
//!    `rounds·chain ≥ max(W/p, CP·chain)`, and `levels × barrier ≥ 0` only
//!    adds to it (the two sides of that inequality are rounded
//!    separately, so the computed floor takes the smaller of
//!    `max(W/p, CP·chain)` and `max(⌈n/p⌉, CP)·chain`);
//! 3. **blocked** (the injective memory rule) only ever *overrides* a
//!    non-sequential choice — it never rescues a loop from sequential.
//!
//! So when `T_seq ≤ floor`, sequential is what exhaustive pricing would
//! have picked (ties go sequential), and the planner returns it with only
//! `costs.sequential` priced: no edge walk, no claim order or its
//! inversion, no stall sums, no class stream, no level schedule. Every operation between
//! the floor and a real price is monotone in floating point too, so the
//! bound holds on the computed values, not just on paper
//! (`tests/staged_equivalence.rs`). A plan built this way is *gated*
//! ([`ExecutionPlan::is_gated`]); the adaptive layer re-checks the same
//! floor under refined constants instead of re-pricing candidates it
//! never had.
//!
//! **Stage 2** ([`Planner::price`], gate not taken) measures the
//! structure quantities a price needs beyond the census — the stall
//! weights of the natural and the doconsider claim order and the
//! wavefront's claim rounds — from the writer map and level array stage 1
//! holds, and keeps them in the plan ([`PlanFeatures`], [`ExecutionPlan::features`]).
//! They are model-free: [`price_features`] turns them into every
//! candidate's price under any [`CostModel`] with arithmetic alone, and it
//! is the one place candidates are priced — by the planner under its own
//! model (the plan's `costs`), and by the adaptive layer under refined
//! ones. A gated or stream-less plan keeps no features; the same function
//! prices it from the census.
//!
//! **Stage 3** captures the chosen variant's artifact only: the one
//! [`ClaimStream`](doacross_core::ClaimStream) of a doacross, reordered or
//! wavefront plan, laid out in that variant's claim order from what the
//! census pass already holds — no inspector region runs and no writer map
//! is kept. A loop too large for the stream's `u32` indices
//! is planned like a non-injective one: none of the three is priced.

use crate::census::{CensusPass, PlanCensus};
use crate::fingerprint::PatternFingerprint;
use crate::plan::{ExecutionPlan, PlanFeatures, PlanVariant, VariantCosts};
use doacross_core::{AccessPattern, ClaimStream, DoacrossError, LinearSubscript};
use doacross_par::ThreadPool;
use doacross_sim::CostModel;
use std::time::Instant;

/// Data-space : iteration-space ratio at which an injective loop is
/// strip-mined for memory (§2.3): when `data_len ≥ factor · iterations`,
/// the flat variants drag `data_len`-sized scratch (`iter`, `ready`,
/// `ynew`) through memory for a loop that writes only a sliver of it,
/// while the blocked variant bounds scratch to each block's element
/// window. Below the ratio the flat variants' single inspector-free
/// region wins; at or above it the planner prices the blocked run and
/// takes it whenever it also beats sequential.
pub const BLOCKED_DATA_SPACE_FACTOR: usize = 8;

/// Builds [`ExecutionPlan`]s for access patterns.
#[derive(Debug, Clone)]
pub struct Planner {
    costs: CostModel,
}

impl Default for Planner {
    fn default() -> Self {
        Self::new()
    }
}

impl Planner {
    /// Planner with the Multimax-calibrated cost model.
    pub fn new() -> Self {
        Self::with_costs(CostModel::multimax())
    }

    /// Planner with explicit cost constants (e.g. from
    /// `doacross_sim::calibrate` for host-accurate selection).
    pub fn with_costs(costs: CostModel) -> Self {
        Self { costs }
    }

    /// The cost constants selection runs on.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Builds a plan for `pattern`; `pool` supplies the processor count the
    /// cost model prices for (planning itself dispatches nothing).
    ///
    /// Fails only on genuinely unexecutable patterns (out-of-bounds
    /// subscripts); loops the flat construct rejects (non-injective
    /// left-hand sides) get a legal [`PlanVariant::Blocked`] or
    /// [`PlanVariant::Sequential`] plan instead of an error.
    pub fn plan<P: AccessPattern + ?Sized>(
        &self,
        pool: &ThreadPool,
        pattern: &P,
    ) -> Result<ExecutionPlan, DoacrossError> {
        self.plan_with_fingerprint(pool, pattern, PatternFingerprint::of(pattern))
    }

    /// Like [`Planner::plan`] with an already-computed fingerprint, so
    /// cache-miss paths that fingerprinted the pattern for the lookup do
    /// not scan the index arrays a second time.
    pub fn plan_with_fingerprint<P: AccessPattern + ?Sized>(
        &self,
        pool: &ThreadPool,
        pattern: &P,
        fingerprint: PatternFingerprint,
    ) -> Result<ExecutionPlan, DoacrossError> {
        let start = Instant::now();
        // Stage 1: the census pass and the gate on its counters.
        let pass = CensusPass::of(pattern);
        if let Some((iteration, element)) = pass.first_out_of_bounds {
            return Err(DoacrossError::SubscriptOutOfBounds {
                iteration,
                element,
                data_len: pass.census.data_len,
            });
        }
        let linear = detect_linear(pattern);
        let p = pool.threads();

        // A loop no stream-backed candidate can run — the flat construct
        // rejects its non-injective left-hand side, or it outgrows the
        // stream's `u32` indices — is priced from its census alone, and so
        // is one the gate settles.
        let census = &pass.census;
        let Pricing {
            variant,
            costs,
            features,
            sorted,
        } = if census.injective
            && ClaimStream::fits(census.iterations, census.total_terms, census.critical_path)
            && !gated(&self.costs, census, p)
        {
            self.price(pattern, &pass, linear, p)
        } else {
            let (variant, costs) = price_features(&self.costs, census, None, linear, p);
            Pricing {
                variant,
                costs,
                features: None,
                sorted: None,
            }
        };

        // Stage 3: capture only what the chosen variant consumes — its
        // claim stream, in its claim order.
        let (offsets, order) = sorted.unzip();
        let stream = match variant {
            PlanVariant::Doacross => Some((None, None)),
            PlanVariant::Reordered => Some((order.as_deref(), None)),
            PlanVariant::Wavefront => Some((order.as_deref(), offsets.as_deref())),
            _ => None,
        }
        .map(|(order, offsets)| {
            pass.stream(pattern, order, offsets)
                .expect("a census that fits() has a stream")
        });
        let plan = ExecutionPlan {
            fingerprint,
            processors: p,
            variant,
            census: pass.census,
            stream,
            linear,
            costs,
            features,
            build_time: start.elapsed(),
        };
        // Translation validation: in debug builds every freshly built plan
        // is proven sound against the very pattern it was built from. The
        // verifier re-derives the dependence structure independently, so a
        // census or schedule-construction bug trips here, at the source.
        debug_assert!(
            plan.verify_against(pattern).is_ok(),
            "planner built an unsound {} plan: {}",
            plan.variant(),
            plan.verify_against(pattern).unwrap_err(),
        );
        Ok(plan)
    }

    /// Stage 2: measures the [`PlanFeatures`] of the injective, in-bounds
    /// pattern `pass` ran over and prices them ([`price_features`]).
    /// [`Planner::plan_with_fingerprint`] calls it whenever the stage-1
    /// gate is not taken; calling it on a census the gate would have taken
    /// is legal and selects `Sequential` (that is the gate's proof
    /// obligation, `tests/staged_equivalence.rs`).
    pub fn price<P: AccessPattern + ?Sized>(
        &self,
        pattern: &P,
        pass: &CensusPass,
        linear: Option<LinearSubscript>,
        p: usize,
    ) -> Pricing {
        let census = &pass.census;
        // Stall weights need the dependence edges and the doconsider
        // order; the rounds need the level widths. The edges are read off
        // stage 1's writer map and the order and widths come from the
        // counting sort of its level array (identical to
        // `doconsider_order`) — all skipped for dependence-free loops: one
        // level, no stalls.
        let (sorted, features) = if census.true_deps == 0 {
            let features = PlanFeatures {
                stall_natural: 0.0,
                stall_reordered: 0.0,
                rounds: census.iterations.div_ceil(p),
            };
            (None, features)
        } else {
            let (offsets, order) = pass.sorted_levels();
            let (stall_natural, stall_reordered) = stall_weights(pattern, pass, &order, p);
            let features = PlanFeatures {
                stall_natural,
                stall_reordered,
                rounds: offsets.windows(2).map(|w| (w[1] - w[0]).div_ceil(p)).sum(),
            };
            (Some((offsets, order)), features)
        };
        let (variant, costs) = price_features(&self.costs, census, Some(&features), linear, p);
        Pricing {
            variant,
            costs,
            features: Some(features),
            sorted,
        }
    }
}

/// What stage 2 hands stage 3: the selection, every candidate's price,
/// what they were priced from, and the level sort behind it (so the
/// chosen variant's artifact is assembled, not recomputed).
#[derive(Debug)]
pub struct Pricing {
    /// The selected variant.
    pub variant: PlanVariant,
    /// Every candidate's price (`None` = not legal or not applicable).
    pub costs: VariantCosts,
    /// The model-free quantities `costs` was priced from (`None` when the
    /// census alone priced it).
    pub features: Option<PlanFeatures>,
    /// `(offsets, order)` of [`CensusPass::sorted_levels`], present when
    /// the loop has true dependencies.
    sorted: Option<(Vec<usize>, Vec<usize>)>,
}

/// Prices every candidate of a plan under `model` and selects among them
/// — the one place candidates are priced, by the planner under its own
/// model and by the adaptive layer under refined ones. `features` are
/// stage 2's ([`ExecutionPlan::features`]); `None` prices what a census
/// alone can: sequential and, for a non-injective left-hand side, the
/// blocked run at its duplicate-write gap (a gated or stream-less plan).
/// `linear` and `p` are the plan's subscript and processor count.
pub fn price_features(
    model: &CostModel,
    census: &PlanCensus,
    features: Option<&PlanFeatures>,
    linear: Option<LinearSubscript>,
    p: usize,
) -> (PlanVariant, VariantCosts) {
    let t_seq = sequential_cost(model, census);
    let Some(features) = features else {
        // Two writes `d` apart can only collide within one block of size
        // `B > d`, so any `B ≤ gap` is collision-free; an injective loop
        // has no gap and no blocked candidate here.
        let block_size = census.min_duplicate_write_gap.unwrap_or(1).max(1);
        let t_blocked = (block_size > 1).then(|| blocked_cost(model, census, block_size, p));
        let variant = match t_blocked {
            Some(t) if t < t_seq => PlanVariant::Blocked { block_size },
            _ => PlanVariant::Sequential,
        };
        let costs = VariantCosts {
            sequential: t_seq,
            blocked: t_blocked,
            ..Default::default()
        };
        return (variant, costs);
    };

    let n = census.iterations as f64;
    let chain = chain_cost(model, census);
    let work = raw_work(model, census);
    // The flag-based variants check `ready` once per true dependency even
    // when the writer already finished (Figure 5 S4's successful poll);
    // the wavefront variant has no flags to check.
    let flag_checks = census.true_deps as f64 * model.wait_poll;
    let cp_bound = census.critical_path as f64 * chain;
    let post = n * model.post_per_iter / p as f64;
    // One region per parallel solve: the copy-back rides behind the
    // executor's completion count in the same dispatch.
    let dispatch = model.region_dispatch;

    let parallel = |stall_weight: f64| {
        dispatch + ((work + flag_checks + chain * stall_weight) / p as f64).max(cp_bound) + post
    };
    let t_doacross = parallel(features.stall_natural);
    let t_reordered = parallel(features.stall_reordered);

    // Wavefront candidate: each level is a whole claim round —
    // `⌈width/p⌉ · chain` (a level cannot borrow slack from its
    // neighbors) — plus one barrier crossing per level boundary. No flag
    // checks, no stalls, by construction. Only meaningful when there are
    // true dependencies (so is the doconsider order): a doall is one level
    // and the flat variants already never wait on it.
    let dependent = census.true_deps > 0;
    let t_wavefront = dependent.then(|| {
        let barriers = census.critical_path.saturating_sub(1) as f64 * model.barrier;
        dispatch + features.rounds as f64 * chain + barriers + post
    });

    let mut costs = VariantCosts {
        sequential: t_seq,
        doacross: Some(t_doacross),
        linear: linear.map(|_| t_doacross),
        reordered: dependent.then_some(t_reordered),
        blocked: None,
        wavefront: t_wavefront,
    };

    // Selection: cheapest wins; sequential wins ties (fewest resources);
    // among equal parallel candidates, linear beats streamed (no artifact
    // at all), the natural order beats the reordered one (no order array)
    // unless reordering is a real improvement, and the flag-based variants
    // beat the wavefront (its artifact is larger) unless level scheduling
    // is a real improvement.
    let best_flagged = t_doacross.min(t_reordered);
    let best_parallel = best_flagged.min(t_wavefront.unwrap_or(f64::INFINITY));
    let mut variant = if t_seq <= best_parallel {
        PlanVariant::Sequential
    } else if t_wavefront.is_some_and(|t| t < best_flagged) {
        PlanVariant::Wavefront
    } else if t_reordered < t_doacross {
        PlanVariant::Reordered
    } else if let Some(subscript) = linear {
        PlanVariant::Linear(subscript)
    } else {
        PlanVariant::Doacross
    };

    // §2.3's memory argument as a selection rule: an injective loop whose
    // data space dwarfs its iteration space ([`BLOCKED_DATA_SPACE_FACTOR`])
    // wastes `data_len`-sized scratch on the flat variants; strip-mining
    // bounds scratch to block windows and is always legal when `a` is
    // injective. Applied only when a parallel variant is otherwise
    // profitable, and only if the priced blocked run still beats
    // sequential — ~16 blocks of at least `4p` iterations keep
    // self-scheduling busy while shrinking the window.
    if variant != PlanVariant::Sequential
        && census.iterations > 0
        && census.data_len >= BLOCKED_DATA_SPACE_FACTOR * census.iterations
    {
        let block_size = census
            .iterations
            .div_ceil(16)
            .max(4 * p)
            .min(census.iterations);
        let t_blocked = blocked_cost(model, census, block_size, p);
        costs.blocked = Some(t_blocked);
        if t_blocked < t_seq {
            variant = PlanVariant::Blocked { block_size };
        }
    }
    (variant, costs)
}

/// Price of the §2.3 strip-mined run at `block_size`: each block pays two
/// parallel regions (inspector, then executor with its copy-back) and the
/// per-iteration inspector cost stays in the run — blocked runs cannot
/// reuse a prebuilt map across blocks.
fn blocked_cost(model: &CostModel, census: &PlanCensus, block_size: usize, p: usize) -> f64 {
    let nblocks = census.iterations.div_ceil(block_size).max(1) as f64;
    let work = census.iterations as f64
        * (exec_per_iter(model) + model.inspect_per_iter + model.post_per_iter)
        + census.total_terms as f64 * per_term(model);
    nblocks * 2.0 * model.region_dispatch + work / p as f64
}

/// Stall weights of the natural claim order and of `order`: for each
/// true-dependence edge with claim gap `g`, `max(0, p − g)/p`. The edges
/// are one pass over the references against the writer map of `pass` (an
/// injective, in-bounds pattern), each row's writers deduplicated — one
/// edge per (writer, reader) pair. The numerators are summed as integers
/// and divided once, so each weight is one rounding from exact and never
/// above `true_deps·(p − 1)/p` as computed (the bound a stored plan is
/// checked against).
fn stall_weights<P: AccessPattern + ?Sized>(
    pattern: &P,
    pass: &CensusPass,
    order: &[usize],
    p: usize,
) -> (f64, f64) {
    let mut pos = vec![0usize; order.len()];
    for (slot, &i) in order.iter().enumerate() {
        pos[i] = slot;
    }
    let (mut natural, mut reordered) = (0u64, 0u64);
    let mut writers = Vec::new();
    for i in 0..pattern.iterations() {
        writers.clear();
        writers.extend(
            (0..pattern.terms(i))
                .map(|j| pass.writer[pattern.term_element(i, j)] as usize)
                .filter(|&w| w < i),
        );
        writers.sort_unstable();
        writers.dedup();
        for &w in &writers {
            natural += p.saturating_sub(i - w) as u64;
            reordered += p.saturating_sub(pos[i] - pos[w]) as u64;
        }
    }
    (natural as f64 / p as f64, reordered as f64 / p as f64)
}

/// The paper's `T_seq` for this census.
fn sequential_cost(model: &CostModel, census: &PlanCensus) -> f64 {
    model.sequential_time(census.iterations, census.total_terms as usize)
}

/// Per-iteration executor overhead `e`.
fn exec_per_iter(model: &CostModel) -> f64 {
    model.schedule_grab + model.iteration_setup + model.publish
}

/// Per-reference executor work `r`.
fn per_term(model: &CostModel) -> f64 {
    model.term + model.check
}

/// Serial cost of one average iteration.
fn chain_cost(model: &CostModel, census: &PlanCensus) -> f64 {
    exec_per_iter(model) + census.terms_per_iteration() * per_term(model)
}

/// Total executor work `W = n·e + T·r`.
fn raw_work(model: &CostModel, census: &PlanCensus) -> f64 {
    census.iterations as f64 * exec_per_iter(model) + census.total_terms as f64 * per_term(model)
}

/// The lower bound on every parallel candidate's price for an injective
/// loop with this census on `p` processors under `model` — see "Stage 1:
/// the floor" in the module docs for the three inequalities. Pure
/// arithmetic on the census, so the adaptive layer re-evaluates it under
/// refined constants at no cost.
///
/// The inner term is the smaller of the flag variants' bound
/// `max(W/p, CP·chain)` and the wavefront's `max(⌈n/p⌉, CP)·chain`: on
/// paper the second is never below the first, but they are rounded
/// separately, and taking the minimum keeps the bound exact on the
/// computed prices.
pub fn parallel_floor(model: &CostModel, census: &PlanCensus, p: usize) -> f64 {
    let chain = chain_cost(model, census);
    let flagged = (raw_work(model, census) / p as f64).max(census.critical_path as f64 * chain);
    let rounds = census.iterations.div_ceil(p).max(census.critical_path);
    let inner = flagged.min(rounds as f64 * chain);
    model.region_dispatch + inner + census.iterations as f64 * model.post_per_iter / p as f64
}

/// The stage-1 gate: whether `T_seq ≤` [`parallel_floor`], i.e. sequential
/// is what pricing every candidate of this injective census would select.
/// The planner asks it of its own constants; the adaptive layer asks it
/// again of the refined ones.
pub fn gated(model: &CostModel, census: &PlanCensus, p: usize) -> bool {
    sequential_cost(model, census) <= parallel_floor(model, census, p)
}

/// Detects a linear left-hand-side subscript `a(i) = c·i + d` with `c ≥ 1`.
///
/// Loops with fewer than two iterations are trivially linear (`c = 1`,
/// `d = lhs(0)`), matching what the §2.3 arithmetic oracle needs.
pub fn detect_linear<P: AccessPattern + ?Sized>(pattern: &P) -> Option<LinearSubscript> {
    let n = pattern.iterations();
    if n == 0 {
        return Some(LinearSubscript::new(1, 0));
    }
    let d = pattern.lhs(0);
    if n == 1 {
        return Some(LinearSubscript::new(1, d));
    }
    let second = pattern.lhs(1);
    if second <= d {
        return None; // stride must be ≥ 1 for injectivity
    }
    let c = second - d;
    for i in 2..n {
        if pattern.lhs(i) != c * i + d {
            return None;
        }
    }
    Some(LinearSubscript::new(c, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use doacross_core::{IndirectLoop, TestLoop};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    fn chain(n: usize) -> IndirectLoop {
        let a: Vec<usize> = (1..=n).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        IndirectLoop::new(n + 1, a, rhs, vec![vec![1.0]; n]).unwrap()
    }

    #[test]
    fn linear_detection() {
        let t = TestLoop::new(100, 2, 6);
        let sub = detect_linear(&t).expect("a(i) = 2i + PAD + 2");
        assert_eq!(sub, t.linear_subscript());

        let scattered = IndirectLoop::new(
            8,
            vec![3, 1, 6],
            vec![vec![], vec![], vec![]],
            vec![vec![], vec![], vec![]],
        )
        .unwrap();
        assert_eq!(detect_linear(&scattered), None);

        let identity = chain(5); // lhs = i + 1
        assert_eq!(detect_linear(&identity), Some(LinearSubscript::new(1, 1)));
    }

    #[test]
    fn doall_linear_pattern_selects_linear() {
        // Odd L: dependence-free Figure 4 loop with a linear subscript.
        let t = TestLoop::new(2_000, 1, 7);
        let plan = Planner::new().plan(&pool(), &t).unwrap();
        assert!(matches!(plan.variant(), PlanVariant::Linear(_)), "{plan}");
        assert!(plan.stream().is_none(), "linear variant needs no artifact");
        assert!(plan.census().is_doall());
    }

    /// Stage 2 called directly, whatever the gate would have said.
    fn priced(planner: &Planner, l: &IndirectLoop, p: usize) -> Pricing {
        planner.price(l, &CensusPass::of(l), detect_linear(l), p)
    }

    #[test]
    fn serial_chain_selects_sequential() {
        // Critical path == n: no parallelism to buy back the overhead, and
        // the floor alone says so — the plan is gated: no parallel price,
        // no artifact.
        let l = chain(500);
        let plan = Planner::new().plan(&pool(), &l).unwrap();
        assert_eq!(plan.variant(), PlanVariant::Sequential, "{plan}");
        assert!(plan.is_gated());
        let costs = plan.costs();
        assert_eq!(
            *costs,
            VariantCosts {
                sequential: costs.sequential,
                ..Default::default()
            }
        );
        assert_eq!(plan.memory_bytes(), 0);
        // Pricing everything anyway arrives at the same place.
        let full = priced(&Planner::new(), &l, 4);
        assert_eq!(full.variant, PlanVariant::Sequential);
        assert_eq!(full.costs.sequential, costs.sequential);
        assert!(costs.sequential <= full.costs.doacross.unwrap());
    }

    #[test]
    fn a_gated_plan_reopens_under_cheaper_executor_constants() {
        // A serial chain under the preset: the floor settles it, and the
        // census alone prices it — sequential, nothing else.
        let l = chain(500);
        let statics = CostModel::multimax();
        let plan = Planner::with_costs(statics).plan(&pool(), &l).unwrap();
        assert!(plan.is_gated() && plan.features().is_none(), "{plan}");
        let (variant, costs) =
            price_features(&statics, plan.census(), None, plan.linear_subscript(), 4);
        assert_eq!((variant, &costs), (plan.variant(), plan.costs()));

        // A model whose executor work is nearly free pulls the floor
        // (dispatch + CP·chain + post) under T_seq: the gate, asked again,
        // opens, and the rebuild it asks for prices everything.
        let mut refined = statics;
        for c in [
            &mut refined.schedule_grab,
            &mut refined.iteration_setup,
            &mut refined.publish,
            &mut refined.term,
            &mut refined.check,
            &mut refined.post_per_iter,
        ] {
            *c *= 1e-3;
        }
        refined.region_dispatch = 1.0;
        assert!(gated(&statics, plan.census(), 4));
        assert!(!gated(&refined, plan.census(), 4));
        let rebuilt = Planner::with_costs(refined).plan(&pool(), &l).unwrap();
        assert!(!rebuilt.is_gated() && rebuilt.features().is_some());
        assert!(rebuilt.costs().doacross.is_some() && rebuilt.costs().wavefront.is_some());
    }

    #[test]
    fn tight_interleaved_chains_select_reordered() {
        // Many independent distance-1 chains interleaved: natural claim
        // order stalls on every edge, the doconsider order does not.
        let chains = 32usize;
        let len = 16usize;
        let n = chains * len;
        // Iteration k = chain (k % chains), link (k / chains)... use
        // layout: iteration i writes element i; link j of chain c is
        // iteration c*len + j, reading its predecessor (distance 1).
        let a: Vec<usize> = (0..n).collect();
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| if i % len == 0 { vec![] } else { vec![i - 1] })
            .collect();
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![0.5; r.len()]).collect();
        let l = IndirectLoop::new(n, a, rhs, coeff).unwrap();
        let plan = Planner::new().plan(&pool(), &l).unwrap();
        assert_eq!(plan.variant(), PlanVariant::Reordered, "{plan}");
        let stream = plan.stream().expect("reordered plan carries its stream");
        assert_eq!(stream.order().expect("with its claim order").len(), n);
        assert!(
            stream.level_offsets().is_none(),
            "levels are the wavefront's"
        );
        assert_eq!(plan.memory_bytes(), 4 * (2 * n + 1) + (n - chains));
        assert!(
            plan.costs().reordered.unwrap() < plan.costs().doacross.unwrap(),
            "{:?}",
            plan.costs()
        );
    }

    #[test]
    fn scattered_doall_selects_doacross() {
        // Dependence-free but non-linear lhs: the inspected flat doacross
        // is the only parallel candidate.
        let n = 4_000usize;
        // Injective scatter: reverse order is non-linear (stride would be
        // negative).
        let a: Vec<usize> = (0..n).map(|i| n - 1 - i).collect();
        let l = IndirectLoop::new(n, a, vec![vec![]; n], vec![vec![]; n]).unwrap();
        let plan = Planner::new().plan(&pool(), &l).unwrap();
        assert_eq!(plan.variant(), PlanVariant::Doacross, "{plan}");
        let stream = plan.stream().expect("doacross plan carries its stream");
        assert!(stream.order().is_none(), "natural order is no order");
        assert_eq!(stream.total_terms(), 0);
    }

    #[test]
    fn deep_wide_grid_selects_wavefront() {
        // Many true dependencies, zero stalls under any order: the flag
        // bill (true_deps · wait_poll) is what the flat variants pay and
        // the wavefront does not; 19 barriers cost less.
        let l = crate::testgrid::deep_grid(64, 20, 3, 7);
        let plan = Planner::new().plan(&pool(), &l).unwrap();
        assert_eq!(plan.variant(), PlanVariant::Wavefront, "{plan}");
        let schedule = plan.stream().expect("wavefront carries its stream");
        assert_eq!(schedule.level_count(), 20);
        assert_eq!(schedule.level_count(), plan.census().critical_path);
        assert_eq!(schedule.max_width(), 64);
        assert!(schedule.order().is_some(), "claimed in level order");
        let costs = plan.costs();
        assert!(
            costs.wavefront.unwrap() < costs.doacross.unwrap(),
            "{costs:?}"
        );
        assert!(
            costs.wavefront.unwrap() < costs.reordered.unwrap_or(f64::INFINITY),
            "{costs:?}"
        );
    }

    #[test]
    fn wavefront_is_not_priced_for_doalls_or_non_injective_loops() {
        // Doall: one level, nothing ever waits — wavefront is pointless
        // and must not even appear among the candidates.
        let t = TestLoop::new(2_000, 1, 7);
        let plan = Planner::new().plan(&pool(), &t).unwrap();
        assert!(plan.costs().wavefront.is_none(), "{:?}", plan.costs());
        assert!(matches!(plan.variant(), PlanVariant::Linear(_)));

        // Non-injective: no level schedule exists.
        let dup =
            IndirectLoop::new(2, vec![0, 0], vec![vec![], vec![]], vec![vec![], vec![]]).unwrap();
        let plan = Planner::new().plan(&pool(), &dup).unwrap();
        assert!(plan.costs().wavefront.is_none());
    }

    #[test]
    fn serial_chains_price_wavefront_but_keep_sequential() {
        // A chain is all levels: the wavefront candidate exists but every
        // level is one iteration + one barrier — sequential must win, in
        // stage 2 as at the gate.
        let l = chain(500);
        let full = priced(&Planner::new(), &l, 4);
        assert_eq!(full.variant, PlanVariant::Sequential);
        let costs = full.costs;
        assert!(costs.wavefront.is_some());
        assert!(costs.sequential <= costs.wavefront.unwrap(), "{costs:?}");

        let plan = Planner::new().plan(&pool(), &l).unwrap();
        assert_eq!(plan.variant(), PlanVariant::Sequential, "{plan}");
        assert!(plan.costs().wavefront.is_none(), "gated: never priced");
        assert!(plan.stream().is_none(), "artifact not captured");
    }

    #[test]
    fn non_injective_with_wide_gaps_selects_blocked() {
        // Element reuse at distance 512: blocked with block_size <= 512 is
        // legal, and with real per-reference work the strip-mined run
        // beats the sequential loop.
        let n = 4_096usize;
        let period = 512usize;
        let a: Vec<usize> = (0..n).map(|i| i % period).collect();
        let rhs: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + 7) % period]).collect();
        let l = IndirectLoop::new(period, a, rhs, vec![vec![0.25]; n]).unwrap();
        let plan = Planner::new().plan(&pool(), &l).unwrap();
        assert_eq!(
            plan.variant(),
            PlanVariant::Blocked { block_size: 512 },
            "{plan}"
        );
    }

    #[test]
    fn huge_data_space_selects_blocked_for_injective_loops() {
        // §2.3 memory rule: an injective scatter over a data space 8x the
        // iteration space crosses BLOCKED_DATA_SPACE_FACTOR and is
        // strip-mined; the same structure over a denser data space keeps
        // the flat inspected doacross.
        let build = |spread: usize| {
            let n = 4_096usize;
            let data_len = n * spread;
            // Decreasing strided lhs: injective, non-linear (stride < 0).
            let a: Vec<usize> = (0..n).map(|i| (n - 1 - i) * spread).collect();
            // Reads hit elements no iteration writes (3 mod spread): doall.
            let rhs: Vec<Vec<usize>> = (0..n)
                .map(|i| vec![i * spread + 3, ((i + 9) % n) * spread + 3])
                .collect();
            let coeff = vec![vec![0.5, 0.25]; n];
            IndirectLoop::new(data_len, a, rhs, coeff).unwrap()
        };

        let at_threshold = build(BLOCKED_DATA_SPACE_FACTOR);
        let plan = Planner::new().plan(&pool(), &at_threshold).unwrap();
        assert!(
            matches!(plan.variant(), PlanVariant::Blocked { .. }),
            "{plan}"
        );
        assert!(
            plan.costs().blocked.unwrap() < plan.costs().sequential,
            "{:?}",
            plan.costs()
        );

        let below_threshold = build(BLOCKED_DATA_SPACE_FACTOR / 2);
        let plan = Planner::new().plan(&pool(), &below_threshold).unwrap();
        assert_eq!(plan.variant(), PlanVariant::Doacross, "{plan}");
        assert!(
            plan.costs().blocked.is_none(),
            "rule not engaged below the ratio: {:?}",
            plan.costs()
        );
    }

    #[test]
    fn blocked_rule_never_overrides_sequential() {
        // A serial chain across a huge data space: no parallel variant is
        // profitable, so the memory rule must not strip-mine it.
        let n = 64usize;
        let spread = 16usize;
        let a: Vec<usize> = (0..n).map(|i| i * spread).collect();
        let rhs: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                if i == 0 {
                    vec![]
                } else {
                    vec![(i - 1) * spread]
                }
            })
            .collect();
        let coeff: Vec<Vec<f64>> = rhs.iter().map(|r| vec![1.0; r.len()]).collect();
        let l = IndirectLoop::new(n * spread, a, rhs, coeff).unwrap();
        let plan = Planner::new().plan(&pool(), &l).unwrap();
        assert_eq!(plan.variant(), PlanVariant::Sequential, "{plan}");
    }

    #[test]
    fn non_injective_adjacent_duplicates_select_sequential() {
        let l =
            IndirectLoop::new(2, vec![0, 0], vec![vec![], vec![]], vec![vec![], vec![]]).unwrap();
        let plan = Planner::new().plan(&pool(), &l).unwrap();
        assert_eq!(plan.variant(), PlanVariant::Sequential);
        assert_eq!(plan.census().min_duplicate_write_gap, Some(1));
    }

    #[test]
    fn out_of_bounds_patterns_are_rejected() {
        // `injective: true` → classified path; `false` → duplicate lhs, the
        // non-injective early path. Both must reject out-of-bounds terms.
        struct Lying {
            injective: bool,
        }
        impl AccessPattern for Lying {
            fn iterations(&self) -> usize {
                2
            }
            fn data_len(&self) -> usize {
                2
            }
            fn lhs(&self, i: usize) -> usize {
                if self.injective {
                    i
                } else {
                    0
                }
            }
            fn terms(&self, _: usize) -> usize {
                1
            }
            fn term_element(&self, _: usize, _: usize) -> usize {
                7
            }
        }
        for injective in [true, false] {
            let err = Planner::new()
                .plan(&pool(), &Lying { injective })
                .unwrap_err();
            assert!(
                matches!(err, DoacrossError::SubscriptOutOfBounds { element: 7, .. }),
                "injective={injective}: {err:?}"
            );
        }
    }

    #[test]
    fn empty_loop_plans_sequential() {
        let l = IndirectLoop::new(0, vec![], vec![], vec![]).unwrap();
        let plan = Planner::new().plan(&pool(), &l).unwrap();
        assert_eq!(plan.variant(), PlanVariant::Sequential);
    }
}
