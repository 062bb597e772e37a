//! The five workloads: what each sets up and which operations it runs.

use crate::inputs::{self, SplitMix, System};
use crate::lane::{Lane, Ledger, Operation};
use crate::trace::Tracer;
use doacross_core::PlanProvenance;
use doacross_engine::{Engine, EngineBuilder, EngineError, FallbackPolicy, PreparedLoop};
use doacross_plan::{PlanStore, PlanVariant, Planner};
use doacross_sim::CostModel;
use std::sync::atomic::{AtomicU64, Ordering};

/// Name and the one-line reason each workload exists (the same text
/// `BENCHMARK.json` carries).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "table1-auto",
        "five Table-1 structures on Engine::builder().build(): whatever the planner picks at the host's worker count",
    ),
    (
        "table1-par",
        "same structures, variant pinned by price to wavefront and to a flag variant: region dispatch, barriers, flags, snapshot",
    ),
    (
        "tiny-tenants",
        "nproc clients with 1-2 us systems on one shared workers(1).pools(nproc) engine: admission, checkout, stats envelope",
    ),
    (
        "tiny-observed",
        "one client, same tiny systems, observability+profiling+adaptive on, scraped every 10000 solves: emitting beside solving",
    ),
    (
        "cold-plan",
        "cache_capacity(2) under a round-robin of five structures: every prepare a miss+eviction, plus one warm start per round",
    ),
];

/// Operations per handle before anything is measured.
pub const WARMUP_OPS: usize = 200;
/// Solves between two scrapes on `tiny-observed`.
pub const SCRAPE_EVERY: u64 = 10_000;

/// The variant a lane must have been given; anything else is a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Any,
    Sequential,
    Wavefront,
    Flags,
}

impl Expect {
    fn admits(self, v: PlanVariant) -> bool {
        match self {
            Expect::Any => true,
            Expect::Sequential => v == PlanVariant::Sequential,
            Expect::Wavefront => v == PlanVariant::Wavefront,
            Expect::Flags => is_flags(v),
        }
    }
}

/// The variants that synchronise through per-element ready flags.
pub fn is_flags(v: PlanVariant) -> bool {
    matches!(
        v,
        PlanVariant::Doacross | PlanVariant::Linear(_) | PlanVariant::Reordered
    )
}

/// Prices under which the planner must pick the wavefront: sequential and
/// every flag poll cost a fortune, barriers are free.
pub fn wavefront_prices() -> CostModel {
    CostModel {
        seq_iter: 1e6,
        seq_term: 1e6,
        wait_poll: 1e6,
        barrier: 0.0,
        ..CostModel::multimax()
    }
}

/// Prices under which a flag variant must win: barriers cost a fortune,
/// polls are free.
pub fn flag_prices() -> CostModel {
    CostModel {
        seq_iter: 1e6,
        seq_term: 1e6,
        wait_poll: 0.0,
        barrier: 1e9,
        ..CostModel::multimax()
    }
}

/// An engine whose planner runs on `prices`.
pub fn priced_engine(prices: CostModel, workers: usize, fallback: FallbackPolicy) -> Engine {
    Engine::builder()
        .workers(workers)
        .pools(1)
        .planner(Planner::with_costs(prices))
        .fallback(fallback)
        .build()
}

/// The engine `Engine::builder().build()` gives on an unpinned process:
/// the builder sizes itself by `available_parallelism()`, which reads 1
/// once the client thread is confined to one CPU, so the host's count is
/// passed in.
pub fn host_engine(nproc: usize) -> EngineBuilder {
    Engine::builder().workers(nproc.min(8))
}

/// One prepared handle and what it is expected to be.
pub struct Handle {
    pub label: String,
    pub system: usize,
    pub engine: usize,
    pub prepared: PreparedLoop,
}

/// One client thread's inputs and handles.
pub struct Client {
    pub systems: Vec<System>,
    pub handles: Vec<Handle>,
}

/// Everything one set-up produces.
pub struct World {
    pub workload: &'static str,
    pub nproc: usize,
    pub engines: Vec<Engine>,
    pub clients: Vec<Client>,
    /// `cold-plan` only: the encoded store each warm start decodes.
    pub store: Vec<u8>,
    /// Failures met while setting up (a prepare that errored).
    pub setup_failures: Ledger,
    /// Solves so far on `tiny-observed`; every [`SCRAPE_EVERY`]th scrapes.
    pub solve_clock: AtomicU64,
}

impl World {
    /// Resident bytes of the plans the workload holds: each plan's own
    /// struct plus the arrays `memory_bytes()` accounts for.
    pub fn plan_bytes(&self) -> usize {
        self.clients
            .iter()
            .flat_map(|c| &c.handles)
            .map(|h| {
                std::mem::size_of::<doacross_plan::ExecutionPlan>()
                    + h.prepared.plan().memory_bytes()
            })
            .sum()
    }
}

fn prepare_all(
    engines: &[Engine],
    engine: usize,
    tag: &str,
    expect: Expect,
    systems: &[System],
    failures: &mut Ledger,
) -> Vec<Handle> {
    let mut handles = Vec::new();
    for (system, sys) in systems.iter().enumerate() {
        match engines[engine].prepare(&sys.loop_()) {
            Ok(prepared) => {
                if !expect.admits(prepared.variant()) {
                    failures.fail(|| {
                        format!(
                            "{}: expected {expect:?}, planner chose {}",
                            sys.name,
                            prepared.variant()
                        )
                    });
                }
                handles.push(Handle {
                    label: format!("{}{tag}", sys.name),
                    system,
                    engine,
                    prepared,
                });
            }
            Err(e) => failures.fail(|| format!("{}: prepare failed: {e:?}", sys.name)),
        }
    }
    handles
}

/// Builds inputs, engines and cold-prepares every structure: the work
/// `setup_s` times.
pub fn setup(workload: &'static str, seed: u64, nproc: usize) -> World {
    let mut failures = Ledger::default();
    let mut store = Vec::new();
    let (engines, clients) = match workload {
        "table1-auto" => {
            let systems = inputs::table1(seed);
            let engines = vec![host_engine(nproc).build()];
            let handles = prepare_all(&engines, 0, "", Expect::Any, &systems, &mut failures);
            (engines, vec![Client { systems, handles }])
        }
        "table1-par" => {
            let systems = inputs::table1(seed);
            let engines = vec![
                priced_engine(wavefront_prices(), nproc, FallbackPolicy::default()),
                priced_engine(flag_prices(), nproc, FallbackPolicy::default()),
            ];
            let mut handles = prepare_all(
                &engines,
                0,
                "/wavefront",
                Expect::Wavefront,
                &systems,
                &mut failures,
            );
            handles.extend(prepare_all(
                &engines,
                1,
                "/flags",
                Expect::Flags,
                &systems,
                &mut failures,
            ));
            (engines, vec![Client { systems, handles }])
        }
        "tiny-tenants" => {
            let engines = vec![Engine::builder().workers(1).pools(nproc).build()];
            let clients = (0..nproc)
                .map(|tenant| {
                    let systems = inputs::tiny(seed, tenant);
                    let handles =
                        prepare_all(&engines, 0, "", Expect::Sequential, &systems, &mut failures);
                    Client { systems, handles }
                })
                .collect();
            (engines, clients)
        }
        "tiny-observed" => {
            let engines = vec![host_engine(nproc)
                .observability_default()
                .profiling_default()
                .adaptive()
                .build()];
            let systems = inputs::tiny(seed, 0);
            let handles = prepare_all(&engines, 0, "", Expect::Any, &systems, &mut failures);
            (engines, vec![Client { systems, handles }])
        }
        "cold-plan" => {
            let systems = inputs::table1(seed);
            // Engine 0 churns; engine 1 holds all five plans and is the
            // source of the store the warm starts decode.
            let engines = vec![
                host_engine(nproc).cache_capacity(2).shards(1).build(),
                host_engine(nproc).build(),
            ];
            let handles = prepare_all(&engines, 1, "", Expect::Any, &systems, &mut failures);
            store = engines[1].snapshot().to_bytes();
            (engines, vec![Client { systems, handles }])
        }
        other => panic!("unknown workload {other}"),
    };
    World {
        workload,
        nproc,
        engines,
        clients,
        store,
        setup_failures: failures,
        solve_clock: AtomicU64::new(0),
    }
}

/// A warmed solve through a prepared handle.
struct Solve<'a> {
    sys: &'a System,
    prepared: PreparedLoop,
    /// `tiny-observed`: the engine to scrape and the workload's solve clock.
    scrape: Option<(&'a Engine, &'a AtomicU64)>,
}

impl Operation for Solve<'_> {
    fn run(&mut self, k: usize, y: &mut [f64], tracer: &mut Tracer, ledger: &mut Ledger) -> bool {
        let loop_ = self.sys.loop_();
        let mut ok = true;
        for _ in 0..k {
            match tracer.span("execute", |_| self.prepared.execute(&loop_, y)) {
                Ok(stats) => ledger.solved(&stats),
                Err(e) => {
                    ok = false;
                    ledger.op_failed(|| format!("{}: execute failed: {e:?}", self.sys.name));
                }
            }
            if let Some((engine, clock)) = self.scrape {
                if (clock.fetch_add(1, Ordering::Relaxed) + 1) % SCRAPE_EVERY == 0 {
                    let text = tracer.span("scrape", |_| engine.metrics_text());
                    let profiles = tracer.span("drain_profiles", |_| engine.recent_profiles());
                    if text.is_empty() || profiles.is_empty() {
                        ledger.fail(|| "scrape returned nothing".to_string());
                    }
                }
            }
        }
        ok
    }
}

/// `prepare` that must miss, then the plan's first `execute`.
struct ColdSolve<'a> {
    sys: &'a System,
    engine: &'a Engine,
}

impl Operation for ColdSolve<'_> {
    fn run(&mut self, k: usize, y: &mut [f64], tracer: &mut Tracer, ledger: &mut Ledger) -> bool {
        let loop_ = self.sys.loop_();
        let mut ok = true;
        for _ in 0..k {
            let result = tracer.span("cold_op", |t| {
                let prepared = t.span("prepare", |_| self.engine.prepare(&loop_))?;
                let stats = t.span("execute", |_| prepared.execute(&loop_, y))?;
                Ok::<_, EngineError>((prepared.from_cache(), stats))
            });
            match result {
                Ok((false, stats)) if stats.provenance == PlanProvenance::PlanCold => {
                    ledger.solved(&stats)
                }
                Ok((hit, stats)) => ledger.op_failed(|| {
                    let name = &self.sys.name;
                    format!(
                        "{name}: cold op was not cold (from_cache {hit}, {})",
                        stats.provenance
                    )
                }),
                Err(e) => {
                    ok = false;
                    ledger.op_failed(|| format!("{}: cold op failed: {e:?}", self.sys.name));
                }
            }
        }
        ok
    }
}

/// Decode a store, restore it into a fresh engine, hit-prepare, execute.
struct WarmStart<'a> {
    sys: &'a System,
    store: &'a [u8],
    /// Built by `between()`, used by one `run`, dropped by the next
    /// `between()` so neither thread spawn nor join is timed.
    engine: Option<Engine>,
    nproc: usize,
}

impl Operation for WarmStart<'_> {
    fn between(&mut self) {
        self.engine = Some(host_engine(self.nproc).build());
    }

    fn run(&mut self, k: usize, y: &mut [f64], tracer: &mut Tracer, ledger: &mut Ledger) -> bool {
        assert_eq!(k, 1, "a warm start needs a fresh engine per operation");
        let engine = self.engine.as_ref().expect("between() builds the engine");
        let loop_ = self.sys.loop_();
        let result = tracer.span("warm_start_op", |t| {
            let store = t
                .span("decode", |_| PlanStore::from_bytes(self.store))
                .map_err(EngineError::Persist)?;
            t.span("warm_from", |_| engine.warm_from(&store));
            let prepared = t.span("prepare", |_| engine.prepare(&loop_))?;
            t.span("execute", |_| prepared.execute(&loop_, y))
        });
        match result {
            Ok(stats) if stats.provenance == PlanProvenance::PlanCached => {
                ledger.solved(&stats);
                true
            }
            Ok(stats) => {
                ledger.op_failed(|| format!("warm start was {}", stats.provenance));
                true
            }
            Err(e) => {
                ledger.op_failed(|| format!("warm start failed: {e:?}"));
                false
            }
        }
    }
}

/// The lanes of every client, in seed-shuffled operation order.
pub fn lanes<'a>(world: &'a World, seed: u64) -> Vec<Vec<Lane<'a>>> {
    let mut rng = SplitMix::new(seed ^ 0x0DE2_0001);
    world
        .clients
        .iter()
        .map(|client| {
            let mut lanes: Vec<Lane<'a>> = if world.workload == "cold-plan" {
                let mut lanes: Vec<Lane<'a>> = client
                    .systems
                    .iter()
                    .map(|sys| {
                        let op = ColdSolve {
                            sys,
                            engine: &world.engines[0],
                        };
                        Lane::new(format!("{}/cold", sys.name), sys, Box::new(op), Some(1))
                    })
                    .collect();
                let sys = &client.systems[2];
                let op = WarmStart {
                    sys,
                    store: &world.store,
                    engine: None,
                    nproc: world.nproc,
                };
                lanes.push(Lane::new(
                    format!("{}/warm-start", sys.name),
                    sys,
                    Box::new(op),
                    Some(1),
                ));
                lanes
            } else {
                client
                    .handles
                    .iter()
                    .map(|h| {
                        let sys = &client.systems[h.system];
                        let op = Solve {
                            sys,
                            prepared: h.prepared.clone(),
                            scrape: (world.workload == "tiny-observed")
                                .then_some((&world.engines[h.engine], &world.solve_clock)),
                        };
                        Lane::new(h.label.clone(), sys, Box::new(op), None)
                    })
                    .collect()
            };
            rng.shuffle(&mut lanes);
            lanes
        })
        .collect()
}
