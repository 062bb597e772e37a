//! The part of the per-layer ledger (`--trace 1`) that does not depend on
//! the workload: each layer's public calls, timed from outside on the
//! Table-1 structures and the tiny systems of this seed. One function per
//! layer (= crate). Sampled probes share the time budget; counted probes
//! are fixed work. Nothing here is gated.

use crate::inputs::{self, System};
use crate::lane::{timed_pass, Lane, LaneSummary, Ledger, Operation};
use crate::metrics::Report;
use crate::pin;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{flag_prices, host_engine, is_flags, priced_engine, wavefront_prices};
use doacross_core::seq::run_sequential;
use doacross_core::DoacrossLoop;
use doacross_engine::{Engine, FallbackPolicy, PreparedLoop};
use doacross_par::{SpinBarrier, ThreadPool};
use doacross_plan::{PatternFingerprint, PlanCensus, PlanStore, PlanVariant};
use doacross_sched::PoolSet;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// `run_sequential`, monomorphic or through `&dyn DoacrossLoop`.
struct RunSeq<'a> {
    sys: &'a System,
    dynamic: bool,
}

impl Operation for RunSeq<'_> {
    fn run(&mut self, k: usize, y: &mut [f64], _: &mut Tracer, ledger: &mut Ledger) -> bool {
        let loop_ = self.sys.loop_();
        for _ in 0..k {
            if self.dynamic {
                let erased: &dyn DoacrossLoop = black_box(&loop_);
                run_sequential(erased, y);
            } else {
                run_sequential(black_box(&loop_), y);
            }
        }
        ledger.ops += k as u64;
        true
    }
}

/// A warmed `execute` with nothing else around it.
struct Execute<'a> {
    sys: &'a System,
    prepared: PreparedLoop,
}

impl Operation for Execute<'_> {
    fn run(&mut self, k: usize, y: &mut [f64], _: &mut Tracer, ledger: &mut Ledger) -> bool {
        let loop_ = self.sys.loop_();
        let mut ok = true;
        for _ in 0..k {
            match self.prepared.execute(&loop_, y) {
                Ok(stats) => ledger.solved(&stats),
                Err(e) => {
                    ok = false;
                    ledger.op_failed(|| format!("{}: probe execute failed: {e:?}", self.sys.name));
                }
            }
        }
        ok
    }
}

fn seq_lane<'a>(tag: &str, sys: &'a System, dynamic: bool) -> Lane<'a> {
    let op = RunSeq { sys, dynamic };
    Lane::new(format!("{}/{tag}", sys.name), sys, Box::new(op), None)
}

/// A lane of warmed `execute`s of `sys` on `engine`, tagged `tag`.
fn execute_lane<'a>(tag: &str, sys: &'a System, engine: &Engine) -> Lane<'a> {
    let prepared = engine
        .prepare(&sys.loop_())
        .expect("probe structures are valid loops");
    let mut y = vec![0.0; sys.bare.n()];
    for _ in 0..20 {
        prepared
            .execute(&sys.loop_(), &mut y)
            .expect("probe warm-up solve");
    }
    let op = Execute { sys, prepared };
    Lane::new(format!("{}/{tag}", sys.name), sys, Box::new(op), None)
}

/// Geometric mean of `f` over the lanes whose name ends in `tag`, and
/// their sample count.
fn over(lanes: &[LaneSummary], tag: &str, f: impl Fn(&LaneSummary) -> f64) -> (f64, usize) {
    let picked: Vec<&LaneSummary> = lanes.iter().filter(|l| l.name.ends_with(tag)).collect();
    let n = picked.iter().map(|l| l.samples).sum();
    let values: Vec<f64> = picked.into_iter().map(f).collect();
    (stats::geomean(&values), n)
}

fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&stats::sorted(times))
}

struct Probes<'a> {
    report: &'a mut Report,
    nproc: usize,
    /// Seconds the sampled probes may use together.
    budget: f64,
    table1: &'a [System],
    /// Operations and failures of every probe.
    probed: Ledger,
}

impl<'a> Probes<'a> {
    /// Alternating samples on `lanes` for `share` of the budget.
    fn sample(&mut self, lanes: &mut [Lane<'_>], share: f64) -> Vec<LaneSummary> {
        timed_pass(lanes, self.budget * share, &mut Tracer::off());
        for lane in lanes.iter() {
            self.probed.absorb(&lane.ledger);
        }
        lanes.iter().map(LaneSummary::of).collect()
    }

    /// sparse: what the inputs cost to make and to read once.
    fn sparse(&mut self, seed: u64) {
        let operators: Vec<_> = doacross_sparse::ProblemKind::all()
            .into_iter()
            .map(|k| doacross_sparse::Problem::build_seeded(k, seed).a)
            .collect();
        let ns = median_ns(5, || {
            for a in &operators {
                black_box(doacross_sparse::ilu0(a));
            }
        });
        self.report
            .stat("sparse.ilu0_us", ns / 1e3, 5, "all five operators");
        let bytes: usize = self
            .table1
            .iter()
            .map(|s| s.bare.computed_bytes_per_solve())
            .sum();
        let note = "computed from array sizes, five structures";
        self.report
            .noted("sparse.bytes_per_solve", bytes as f64, note);
    }

    /// core, sequential: the loop through the repo's traits; and the bare
    /// kernel's own numbers, which are sparse's.
    fn core_sequential(&mut self) {
        let mut lanes: Vec<Lane<'_>> = self
            .table1
            .iter()
            .flat_map(|sys| {
                [
                    seq_lane("seq-mono", sys, false),
                    seq_lane("seq-dyn", sys, true),
                ]
            })
            .collect();
        let sums = self.sample(&mut lanes, 0.12);
        let (p01, n) = over(&sums, "seq-mono", |l| l.bare_p01);
        self.report
            .stat("sparse.bare_p01_ns", p01, n, "geomean, five structures");
        let (p50, _) = over(&sums, "seq-mono", |l| l.bare_p50);
        self.report.stat("sparse.bare_p50_ns", p50, n, "");
        for (metric, tag) in [
            ("core.seq_mono_over_bare", "seq-mono"),
            ("core.seq_dyn_over_bare", "seq-dyn"),
        ] {
            let (ratio, n) = over(&sums, tag, LaneSummary::p01_over_bare);
            self.report.stat(metric, ratio, n, "p01, five structures");
        }
    }

    /// core, parallel families, and the engine's snapshot rung: the two
    /// priced engines with and without the fallback policy, on SPE2
    /// (blocky, 90 levels) and 5-PT (125 narrow levels).
    fn core_parallel(&mut self) {
        let engine = |prices, fallback| priced_engine(prices, self.nproc, fallback);
        let engines = [
            (
                "wf-off",
                engine(wavefront_prices(), FallbackPolicy::Disabled),
            ),
            (
                "wf-on",
                engine(wavefront_prices(), FallbackPolicy::default()),
            ),
            ("fl-off", engine(flag_prices(), FallbackPolicy::Disabled)),
            ("fl-on", engine(flag_prices(), FallbackPolicy::default())),
        ];
        let mut lanes: Vec<Lane<'_>> = [&self.table1[0], &self.table1[2]]
            .into_iter()
            .flat_map(|sys| {
                engines
                    .iter()
                    .map(move |(tag, e)| execute_lane(tag, sys, e))
            })
            .collect();
        let sums = self.sample(&mut lanes, 0.33);
        let ratio = |tag| over(&sums, tag, LaneSummary::p01_over_bare);
        let ((wf, n), (fl, _)) = (ratio("wf-off"), ratio("fl-off"));
        let note = "SPE2 and 5-PT, fallback off";
        self.report
            .stat("core.wavefront_p01_over_bare", wf, n, note);
        self.report.stat("core.flags_p01_over_bare", fl, n, note);
        let off_over_on = ((wf / ratio("wf-on").0) * (fl / ratio("fl-on").0)).sqrt();
        let note = "p01, geomean of both families";
        self.report
            .noted("engine.fallback_off_over_on", off_over_on, note);
    }

    /// engine envelope, obs and adapt: the tiny systems on four engines
    /// that differ in one switch each.
    fn tiny_switches(&mut self, seed: u64) {
        let tiny = inputs::tiny(seed, 0);
        let base = || Engine::builder().workers(1).pools(1);
        let off = base().build();
        let obs = base().observability_default().build();
        let prof = base().observability_default().profiling_default().build();
        let adapt = base().adaptive().build();
        let engines = [
            ("off", &off),
            ("obs", &obs),
            ("prof", &prof),
            ("adapt", &adapt),
        ];
        let mut lanes: Vec<Lane<'_>> = tiny
            .iter()
            .flat_map(|sys| {
                let on_engines = engines
                    .iter()
                    .map(move |(tag, e)| execute_lane(tag, sys, e));
                std::iter::once(seq_lane("seq", sys, false)).chain(on_engines)
            })
            .collect();
        let last_event = |e: &Engine| e.trace_events().last().map_or(0, |event| event.seq);
        let events_before = last_event(&obs);
        let sums = self.sample(&mut lanes, 0.25);

        // Per system, then averaged: execute minus the bare trait loop.
        let p01_ns = |name: String| {
            let lane = sums.iter().find(|l| l.name == name).expect("lane exists");
            lane.subject_p01
        };
        let envelope: f64 = tiny
            .iter()
            .map(|sys| p01_ns(format!("{}/off", sys.name)) - p01_ns(format!("{}/seq", sys.name)))
            .sum::<f64>()
            / tiny.len() as f64;
        let ns = |tag| over(&sums, tag, |l| l.subject_p01);
        let ((off_ns, n), (seq_ns, _)) = (ns("/off"), ns("/seq"));
        let note = format!("execute {off_ns:.0} ns - run_sequential {seq_ns:.0} ns, p01");
        self.report.stat("engine.envelope_ns", envelope, n, &note);
        for (metric, tag) in [
            ("obs.on_over_off", "/obs"),
            ("obs.profiled_over_off", "/prof"),
            ("adapt.on_over_off", "/adapt"),
        ] {
            self.report.stat(metric, ns(tag).0 / off_ns, n, "p01");
        }

        let solves: u64 = lanes
            .iter()
            .filter(|l| l.name.ends_with("/obs"))
            .map(|l| l.ledger.ops)
            .sum();
        let events = last_event(&obs) - events_before;
        self.report
            .put("obs.events_per_solve", events as f64 / solves.max(1) as f64);
        let profiles = prof.recent_profiles();
        let spans: usize = profiles.iter().map(|p| p.spans.len()).sum();
        let per_solve = spans as f64 / profiles.len().max(1) as f64;
        self.report.stat(
            "obs.spans_per_solve",
            per_solve,
            profiles.len(),
            "profile ring",
        );
        let dropped: u64 = profiles.iter().map(|p| p.dropped).sum();
        self.report.put("obs.spans_dropped", dropped as f64);
        let scrape = median_ns(15, || {
            black_box(obs.metrics_text());
        });
        self.report
            .stat("obs.scrape_us", scrape / 1e3, 15, "metrics_text()");
        let adaptive = adapt.adaptive_stats().unwrap_or_default();
        self.report.put("adapt.trials", adaptive.trials as f64);
        self.report
            .put("adapt.promotions", adaptive.promotions as f64);
        self.report
            .put("adapt.demotions", adaptive.demotions as f64);
    }

    /// sim: what calibration costs and how well its prices predict.
    fn sim(&mut self) {
        let ns = median_ns(3, || {
            black_box(doacross_sim::calibrate(3));
        });
        self.report
            .stat("sim.calibrate_ms", ns / 1e6, 3, "calibrate(3)");
        let engine = host_engine(self.nproc).calibrated().build();
        let unit_ns = engine.calibration().map_or(f64::NAN, |c| c.unit_ns);
        let mut lanes: Vec<Lane<'_>> = self
            .table1
            .iter()
            .map(|s| execute_lane("cal", s, &engine))
            .collect();
        let sums = self.sample(&mut lanes, 0.13);
        let ratios: Vec<f64> = self
            .table1
            .iter()
            .zip(&sums)
            .map(|(sys, lane)| {
                let prepared = engine.prepare(&sys.loop_()).expect("cached plan");
                let price = prepared.plan().costs().of(prepared.variant());
                price.unwrap_or(f64::NAN) * unit_ns / lane.subject_p01
            })
            .collect();
        let n = sums.iter().map(|l| l.samples).sum();
        let note = "plan price x unit_ns / p01 execute, calibrated engine";
        self.report
            .stat("sim.priced_over_realized", stats::geomean(&ratios), n, note);
    }

    /// par: region dispatch and barrier crossings.
    fn par(&mut self) {
        const REGIONS: usize = 1_500;
        const CROSSINGS: usize = 4_096;
        let nproc = self.nproc;
        for (metric, workers) in [("par.dispatch_p1_us", 1), ("par.dispatch_pn_us", nproc)] {
            let pool = ThreadPool::new(workers);
            pool.run(|_| {});
            let ns = median_ns(REGIONS, || pool.run(|_| {}));
            let note = format!("empty ThreadPool::run, {workers} workers");
            self.report.stat(metric, ns / 1e3, REGIONS, &note);
        }
        let pool = ThreadPool::new(nproc);
        let barrier = SpinBarrier::new(nproc);
        let empty = median_ns(50, || pool.run(|_| {}));
        let region = median_ns(7, || {
            pool.run(|_| {
                for _ in 0..CROSSINGS {
                    barrier.wait();
                }
            })
        });
        let per_crossing = (region - empty).max(0.0) / CROSSINGS as f64;
        let note = format!("{CROSSINGS} SpinBarrier::wait per region, {nproc} workers");
        self.report
            .stat("par.barrier_cross_ns", per_crossing, 7, &note);
    }

    /// sched: admission, alone and with every client asking at once.
    fn sched(&mut self) {
        const ACQUIRES: usize = 20_000;
        let nproc = self.nproc;
        let set = &PoolSet::new(nproc, 1, 1_024);
        let batch = || {
            let t = Instant::now();
            for _ in 0..ACQUIRES {
                drop(black_box(set.acquire().expect("a free pool")));
            }
            t.elapsed().as_nanos() as f64 / ACQUIRES as f64
        };
        let alone = stats::median(&stats::sorted((0..9).map(|_| batch()).collect()));
        let note = "PoolSet::acquire + release, one caller";
        self.report
            .stat("sched.acquire_ns", alone, 9 * ACQUIRES, note);
        let together: Vec<f64> = std::thread::scope(|s| {
            let others: Vec<_> = (1..nproc)
                .map(|k| {
                    s.spawn(move || {
                        pin::client(k);
                        batch()
                    })
                })
                .collect();
            let mut all = vec![batch()];
            all.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("acquire thread")),
            );
            all
        });
        let contended = stats::median(&stats::sorted(together));
        let note = format!("{nproc} callers at once");
        self.report.stat(
            "sched.acquire_contended_ns",
            contended,
            nproc * ACQUIRES,
            &note,
        );
    }

    /// plan, verify, doconsider: one chain of spans per structure around
    /// each public call. `prepare`'s stages cannot be opened from outside,
    /// so they are replayed standalone on the same input.
    fn plan(&mut self, tracer: &mut Tracer) {
        const CHAINS: usize = 12;
        let auto = host_engine(self.nproc).build();
        let handles: Vec<PreparedLoop> = self
            .table1
            .iter()
            .map(|s| auto.prepare(&s.loop_()).expect("valid loop"))
            .collect();
        let count = |f: fn(PlanVariant) -> bool| handles.iter().filter(|h| f(h.variant())).count();
        let seq = count(|v| v == PlanVariant::Sequential);
        self.report.put("engine.variant_seq", seq as f64);
        let wavefront = count(|v| v == PlanVariant::Wavefront);
        self.report
            .put("engine.variant_wavefront", wavefront as f64);
        self.report
            .put("engine.variant_flags", count(is_flags) as f64);
        let levels: usize = handles
            .iter()
            .map(|h| h.plan().census().critical_path)
            .sum();
        self.report.put("doconsider.levels", levels as f64);

        // Span durations by name, one vector per structure, so a median is
        // never taken over a mix of sizes.
        let mut by_name: BTreeMap<&'static str, Vec<Vec<f64>>> = BTreeMap::new();
        let mut note = |name: &'static str, k: usize, t: &Tracer| {
            let per = by_name.entry(name).or_default();
            per.resize(per.len().max(k + 1), Vec::new());
            per[k].push(t.last_ns() as f64);
        };
        let (mut edges, mut store_bytes) = (0, 0);
        for chain in 0..CHAINS {
            for (k, sys) in self.table1.iter().enumerate() {
                let loop_ = sys.loop_();
                tracer.span("probe_replay", |t| {
                    let fp = t.span("fingerprint", |_| PatternFingerprint::of(&loop_));
                    note("fingerprint", k, t);
                    t.span("census", |_| black_box(PlanCensus::of(&loop_)));
                    note("census", k, t);
                    let (planner, pool) = (auto.planner(), auto.pool());
                    let plan = t
                        .span("plan", |_| planner.plan_with_fingerprint(pool, &loop_, fp))
                        .expect("valid loop");
                    note("plan", k, t);
                    let verdict = t.span("verify", |_| {
                        plan.sync_schedule()
                            .and_then(|s| doacross_verify::verify_pattern(&loop_, &s))
                    });
                    note("verify", k, t);
                    match verdict {
                        Ok(r) if chain == 0 => edges += r.flow_edges + r.anti_edges,
                        Ok(_) => {}
                        Err(e) => self
                            .probed
                            .fail(|| format!("{}: plan does not verify: {e}", sys.name)),
                    }
                    t.span("order", |_| {
                        black_box(doacross_doconsider::doconsider_order(&loop_))
                    });
                    note("order", k, t);
                });
                let hit = tracer
                    .span("hit_prepare", |_| auto.prepare(&loop_))
                    .expect("cached");
                note("hit_prepare", k, tracer);
                if !hit.from_cache() {
                    self.probed
                        .fail(|| format!("{}: probe prepare missed", sys.name));
                }
            }
            tracer.span("probe_store", |t| {
                let store = t.span("snapshot", |_| auto.snapshot());
                let bytes = t.span("encode", |_| store.to_bytes());
                note("encode", 0, t);
                store_bytes = bytes.len();
                let back = t.span("decode_store", |_| PlanStore::from_bytes(&bytes));
                note("decode_store", 0, t);
                if back.map(|b| b.len()).ok() != Some(store.len()) {
                    self.probed
                        .fail(|| "store round trip lost plans".to_string());
                }
            });
        }

        // Mean over structures of the per-structure median, in ns.
        let mean_ns = |name: &str| -> (f64, usize) {
            let per = &by_name[name];
            let medians: f64 = per
                .iter()
                .map(|v| stats::median(&stats::sorted(v.clone())))
                .sum();
            (medians / per.len() as f64, per.iter().map(Vec::len).sum())
        };
        for (metric, span, note) in [
            (
                "plan.fingerprint_us",
                "fingerprint",
                "PatternFingerprint::of",
            ),
            ("plan.census_us", "census", "PlanCensus::of"),
            (
                "plan.plan_us",
                "plan",
                "Planner::plan_with_fingerprint (runs its own census)",
            ),
            (
                "verify.pattern_us",
                "verify",
                "verify_pattern on the chosen schedule",
            ),
            ("doconsider.order_us", "order", "doconsider_order"),
            (
                "plan.encode_us",
                "encode",
                "PlanStore::to_bytes, five plans",
            ),
            (
                "plan.decode_us",
                "decode_store",
                "PlanStore::from_bytes, five plans",
            ),
        ] {
            let (ns, n) = mean_ns(span);
            self.report.stat(metric, ns / 1e3, n, note);
        }
        let (hit, n) = mean_ns("hit_prepare");
        let note = "a prepare that hits, its fingerprint scan included";
        self.report.stat("plan.cache_hit_ns", hit, n, note);
        self.report.put("plan.store_bytes", store_bytes as f64);
        let note = "flow + anti, five structures";
        self.report.noted("verify.edges", edges as f64, note);
        let build = median_ns(9, || {
            black_box(host_engine(self.nproc).build());
        });
        let note = "Engine::builder().build() and drop";
        self.report.stat("engine.build_us", build / 1e3, 9, note);
    }

    /// failpoint, and the harness's own clock.
    fn small_change(&mut self) {
        const HITS: usize = 2_000_000;
        let site = failpoint::lookup("benchmark::probe");
        let t = Instant::now();
        for i in 0..HITS as u64 {
            failpoint::hit(black_box(site), black_box(i));
        }
        let per_hit = t.elapsed().as_nanos() as f64 / HITS as f64;
        self.report
            .stat("failpoint.disarmed_hit_ns", per_hit, HITS, "hit(None, i)");
        const READS: usize = 200_000;
        let t = Instant::now();
        for _ in 0..READS {
            black_box(Instant::now());
        }
        let per_read = t.elapsed().as_nanos() as f64 / READS as f64;
        self.report
            .stat("bench.timer_ns", per_read, READS, "Instant::now()");
    }
}

/// Runs every probe; `tracer` receives the plan-layer spans. Returns the
/// operations the probes ran and the failures they met.
pub fn run(
    report: &mut Report,
    seed: u64,
    nproc: usize,
    budget: f64,
    tracer: &mut Tracer,
) -> Ledger {
    report.put("bench.nproc", nproc as f64);
    let table1 = inputs::table1(seed);
    let mut probes = Probes {
        report,
        nproc,
        budget,
        table1: &table1,
        probed: Ledger::default(),
    };
    probes.sparse(seed);
    probes.core_sequential();
    probes.core_parallel();
    probes.tiny_switches(seed);
    probes.sim();
    probes.par();
    probes.sched();
    probes.plan(tracer);
    probes.small_change();
    probes.probed
}
