//! [`ExecutorPool`]: checkout pools of [`PlanExecutor`] scratch, keyed by
//! sub-pool index.
//!
//! The engine's multi-pool scheduler routes each solve to one of N worker
//! sub-pools. A scratch executor is `&mut` state (ready flags, shadow
//! array, level cells — one runtime's worth) that grows to the largest
//! structure seen — exactly the reuse economics the paper's preprocessing
//! amortization depends on. Keeping one checkout stack *per sub-pool*
//! preserves those economics under multi-tenancy: tenants routed to
//! different sub-pools stop churning each other's scratch, and a tenant
//! that keeps landing on the same sub-pool keeps finding scratch sized for
//! its structures.

use crate::runtime::PlanExecutor;
use doacross_core::DoacrossConfig;
use parking_lot::Mutex;

/// Per-sub-pool stacks of reusable [`PlanExecutor`] scratch.
///
/// `checkout(k)` pops from sub-pool `k`'s stack (building a fresh executor
/// when empty — concurrency on one sub-pool can exceed 1 while a previous
/// checkout is still out); `restore(k, executor)` pushes it back. Each
/// stack grows to the peak concurrency its sub-pool ever saw.
#[derive(Debug)]
pub struct ExecutorPool {
    config: DoacrossConfig,
    stacks: Vec<Mutex<Vec<PlanExecutor>>>,
}

impl ExecutorPool {
    /// One empty checkout stack per sub-pool.
    ///
    /// # Panics
    ///
    /// If `pools` is 0.
    pub fn new(config: DoacrossConfig, pools: usize) -> Self {
        assert!(pools >= 1, "ExecutorPool requires at least one sub-pool");
        Self {
            config,
            stacks: (0..pools).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Number of sub-pool stacks.
    pub fn pools(&self) -> usize {
        self.stacks.len()
    }

    /// Checks an executor out of sub-pool `pool`'s stack, building a fresh
    /// one if the stack is empty.
    pub fn checkout(&self, pool: usize) -> PlanExecutor {
        self.stacks[pool]
            .lock()
            .pop()
            .unwrap_or_else(|| PlanExecutor::new(self.config))
    }

    /// Returns `executor` to sub-pool `pool`'s stack for reuse.
    pub fn restore(&self, pool: usize, executor: PlanExecutor) {
        self.stacks[pool].lock().push(executor);
    }

    /// Executors currently resting in sub-pool `pool`'s stack.
    pub fn idle(&self, pool: usize) -> usize {
        self.stacks[pool].lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_restore_reuses_scratch_per_sub_pool() {
        let pool = ExecutorPool::new(DoacrossConfig::default(), 2);
        assert_eq!(pool.pools(), 2);
        assert_eq!(pool.idle(0), 0);
        let a = pool.checkout(0);
        pool.restore(0, a);
        assert_eq!(pool.idle(0), 1);
        assert_eq!(pool.idle(1), 0, "stacks are keyed by sub-pool");
        let _again = pool.checkout(0);
        assert_eq!(pool.idle(0), 0);
    }

    #[test]
    fn empty_stack_builds_a_fresh_executor() {
        let pool = ExecutorPool::new(DoacrossConfig::default(), 1);
        // Two concurrent checkouts from one sub-pool both succeed.
        let a = pool.checkout(0);
        let b = pool.checkout(0);
        pool.restore(0, a);
        pool.restore(0, b);
        assert_eq!(pool.idle(0), 2);
    }
}
