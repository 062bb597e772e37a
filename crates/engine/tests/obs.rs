//! End-to-end observability tests: a mixed workload on an instrumented
//! engine, with the Prometheus scrape actually parsed — format validity
//! (TYPE before samples, cumulative buckets, `+Inf` = `_count`), coverage
//! of the required metric families, and reconciliation of the scraped
//! numbers against the engine's own counters.

use doacross_core::{AccessPattern, IndirectLoop, TestLoop};
use doacross_engine::{Engine, PlanProvenance, SolveOutcome, TraceEvent};
use doacross_plan::{PlanVariant, Planner};
use doacross_sim::CostModel;
use std::collections::BTreeMap;

/// One parsed sample: label set (sorted) and value.
type Sample = (BTreeMap<String, String>, f64);

/// A parsed metric family.
struct Family {
    kind: String,
    samples: Vec<Sample>,
}

/// A deliberately strict parser for the Prometheus text exposition
/// format, as far as this workspace emits it. Panics — with the offending
/// line — on anything malformed: a sample before its `# TYPE`, an unknown
/// suffix, bad label syntax.
fn parse_prometheus(text: &str) -> BTreeMap<String, Family> {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let name = it.next().unwrap().to_string();
            let kind = it.next().expect("TYPE line missing kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind} in: {line}"
            );
            let prev = families.insert(
                name.clone(),
                Family {
                    kind,
                    samples: Vec::new(),
                },
            );
            assert!(prev.is_none(), "duplicate TYPE for {name}");
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP
        }
        let (name_and_labels, value) = line.rsplit_once(' ').expect("sample missing value");
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
        let (name, labels) = match name_and_labels.split_once('{') {
            None => (name_and_labels.to_string(), BTreeMap::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').expect("unterminated label set");
                let mut labels = BTreeMap::new();
                for pair in body.split(',') {
                    let (k, v) = pair.split_once('=').expect("label missing =");
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .unwrap_or_else(|| panic!("unquoted label value: {line}"));
                    labels.insert(k.to_string(), v.to_string());
                }
                (name.to_string(), labels)
            }
        };
        // Resolve the family: exact name, or a histogram suffix.
        let family_name = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| families.get(*base).is_some_and(|f| f.kind == "histogram"))
            })
            .unwrap_or(&name)
            .to_string();
        let family = families
            .get_mut(&family_name)
            .unwrap_or_else(|| panic!("sample before TYPE: {line}"));
        if family.kind == "histogram" {
            // Re-attach the suffix so reconciliation below can tell the
            // series apart.
            let mut labels = labels;
            labels.insert("__series".into(), name.clone());
            family.samples.push((labels, value));
        } else {
            family.samples.push((labels, value));
        }
    }
    // Histogram integrity: per label set, buckets cumulative
    // non-decreasing in order of appearance, ending at +Inf == _count.
    for (name, family) in &families {
        if family.kind != "histogram" {
            continue;
        }
        // Per label set: the (le, value) buckets in order plus the _count.
        type HistogramSeries = (Vec<(String, f64)>, Option<f64>);
        let mut by_series: BTreeMap<BTreeMap<String, String>, HistogramSeries> = BTreeMap::new();
        for (labels, value) in &family.samples {
            let series = labels.get("__series").unwrap().clone();
            let mut key = labels.clone();
            key.remove("__series");
            let le = key.remove("le");
            let entry = by_series.entry(key).or_default();
            if series == format!("{name}_bucket") {
                entry.0.push((le.expect("bucket without le"), *value));
            } else if series == format!("{name}_count") {
                entry.1 = Some(*value);
            }
        }
        for (labels, (buckets, count)) in by_series {
            assert!(!buckets.is_empty(), "{name}{labels:?}: no buckets");
            let mut prev = 0.0;
            for (le, v) in &buckets {
                assert!(*v >= prev, "{name}: bucket le={le} decreased");
                prev = *v;
            }
            let (last_le, last_v) = buckets.last().unwrap();
            assert_eq!(last_le, "+Inf", "{name}: final bucket not +Inf");
            assert_eq!(Some(*last_v), count, "{name}: +Inf != _count");
        }
    }
    families
}

fn counter_value(families: &BTreeMap<String, Family>, name: &str) -> f64 {
    let family = families
        .get(name)
        .unwrap_or_else(|| panic!("{name} missing from scrape"));
    family.samples.iter().map(|(_, v)| v).sum()
}

#[test]
fn scrape_parses_and_covers_the_required_metrics() {
    let engine = Engine::builder()
        .workers(2)
        .pools(2)
        .adaptive()
        .observability_default()
        .build();
    // Mixed workload: three structures (different sizes/dependence
    // shapes), repeated solves, one invalidation, one save/load cycle.
    let loops: Vec<TestLoop> = [(400usize, 8usize), (300, 7), (500, 9)]
        .iter()
        .map(|&(n, l)| TestLoop::new(n, 1, l))
        .collect();
    let mut solves = 0u64;
    for round in 0..3 {
        for l in &loops {
            let mut y = l.initial_y();
            engine.run(l, &mut y).unwrap();
            solves += 1;
        }
        if round == 1 {
            let fp = doacross_plan::PatternFingerprint::of(&loops[0]);
            assert!(engine.invalidate(&fp));
        }
    }
    let store =
        std::env::temp_dir().join(format!("doacross-obs-test-{}.plans", std::process::id()));
    let _ = std::fs::remove_file(&store);
    let saved = engine.save_plans(&store).unwrap();
    let restored = engine.load_plans(&store).unwrap();
    let _ = std::fs::remove_file(&store);

    let text = engine.metrics_text();
    let families = parse_prometheus(&text);

    // Cache traffic reconciles exactly with the engine's own counters.
    let stats = engine.cache_stats();
    assert_eq!(
        counter_value(&families, "doacross_cache_hits_total") as u64,
        stats.hits
    );
    assert_eq!(
        counter_value(&families, "doacross_cache_misses_total") as u64,
        stats.misses
    );
    assert_eq!(
        counter_value(&families, "doacross_cache_insertions_total") as u64,
        stats.insertions
    );

    // Every completed solve is counted, by (variant, provenance).
    assert_eq!(
        counter_value(&families, "doacross_solves_total") as u64,
        solves
    );
    for (labels, _) in &families["doacross_solves_total"].samples {
        assert!(labels.contains_key("variant") && labels.contains_key("provenance"));
    }

    // Per-variant latency histograms: present, and their counts cover
    // the solves.
    let hist = &families["doacross_solve_ns"];
    assert_eq!(hist.kind, "histogram");
    let hist_count: f64 = hist
        .samples
        .iter()
        .filter(|(l, _)| {
            l.get("__series")
                .is_some_and(|s| s == "doacross_solve_ns_count")
        })
        .map(|(_, v)| v)
        .sum();
    assert_eq!(hist_count as u64, solves);

    // Adaptive decision counters render for an adaptive engine.
    for name in [
        "doacross_adaptive_repricings_total",
        "doacross_adaptive_trials_total",
        "doacross_adaptive_promotions_total",
        "doacross_adaptive_demotions_total",
        "doacross_adaptive_baseline_probes_total",
    ] {
        assert!(families.contains_key(name), "{name} missing");
    }
    // ... and the registry's own policy counters exist (values depend on
    // what the host measured; presence and parseability are the contract).
    for name in [
        "doacross_divergences_total",
        "doacross_trials_started_total",
        "doacross_trials_committed_total",
        "doacross_trials_demoted_total",
    ] {
        assert!(families.contains_key(name), "{name} missing");
    }

    // Plan builds, invalidation, persistence.
    assert!(counter_value(&families, "doacross_plan_builds_total") >= 3.0);
    assert_eq!(
        counter_value(&families, "doacross_cache_invalidations_total"),
        1.0
    );
    assert_eq!(counter_value(&families, "doacross_store_saves_total"), 1.0);
    assert_eq!(
        counter_value(&families, "doacross_store_plans_saved_total") as usize,
        saved
    );
    assert_eq!(counter_value(&families, "doacross_store_loads_total"), 1.0);
    assert_eq!(
        counter_value(&families, "doacross_store_plans_restored_total") as usize,
        restored
    );

    // Fault-containment counters render unconditionally — a fault-free
    // workload scrapes them all at zero, so dashboards can alert on any
    // increase without waiting for a first fault. (The chaos suite covers
    // the nonzero side.)
    for name in [
        "doacross_fault_panics_total",
        "doacross_fault_timeouts_total",
        "doacross_fault_fallbacks_total",
        "doacross_store_quarantines_total",
        "doacross_adaptive_fallbacks_total",
    ] {
        assert_eq!(
            counter_value(&families, name),
            0.0,
            "{name} nonzero on a clean workload"
        );
    }

    // Per-structure series carry the 32-hex-char fingerprint label.
    let structure = &families["doacross_structure_solves_total"];
    assert!(!structure.samples.is_empty());
    for (labels, _) in &structure.samples {
        let fp = &labels["fingerprint"];
        assert!(fp == "other" || (fp.len() == 32 && fp.chars().all(|c| c.is_ascii_hexdigit())));
    }

    // `doacross_workers` is per sub-pool: times the sub-pool count it is
    // the engine's whole worker set.
    let workers = counter_value(&families, "doacross_workers") as usize;
    let pools = counter_value(&families, "doacross_pools") as usize;
    assert_eq!((workers, pools), (engine.threads(), 2));
    assert_eq!(workers * pools, engine.total_workers());
}

#[test]
fn recent_solves_returns_the_last_n_with_variant_and_provenance() {
    let engine = Engine::builder().workers(2).observability_default().build();
    let capacity = 128; // the flight recorder's capacity
    let loop_ = TestLoop::new(300, 1, 8);
    for _ in 0..capacity + 3 {
        let mut y = loop_.initial_y();
        engine.run(&loop_, &mut y).unwrap();
    }
    let solves = engine.recent_solves();
    assert_eq!(solves.len(), capacity, "bounded to flight capacity");
    // Every solve was of the same structure; all retained ones are
    // cache-served (the cold first solve aged out of the ring).
    let expected_fp = doacross_obs::FpId::from(&doacross_plan::PatternFingerprint::of(&loop_));
    for s in &solves {
        assert_eq!(s.fp, expected_fp);
        assert_eq!(s.provenance, PlanProvenance::PlanCached);
        assert!(s.total_ns > 0);
        assert!(s.workers >= 1, "a solve always reports its worker count");
        assert_eq!(s.outcome, SolveOutcome::Ok, "clean solves record Ok");
        assert!(s.outcome.delivered());
    }
    // A fresh structure's solve lands at the tail with cold provenance.
    let other = TestLoop::new(200, 1, 7);
    let mut y = other.initial_y();
    engine.run(&other, &mut y).unwrap();
    let solves = engine.recent_solves();
    let last = solves.last().unwrap();
    assert_eq!(
        last.fp,
        doacross_obs::FpId::from(&doacross_plan::PatternFingerprint::of(&other))
    );
    assert_eq!(last.provenance, PlanProvenance::PlanCold);
}

#[test]
fn trace_records_the_plan_lifecycle_in_order() {
    // One sub-pool pinned: multi-pool engines interleave
    // `pool_dispatched` events into the trace, and this test asserts the
    // exact single-pool lifecycle on any host.
    let engine = Engine::builder()
        .workers(2)
        .pools(1)
        .observability_default()
        .build();
    let loop_ = TestLoop::new(250, 1, 8);
    let mut y = loop_.initial_y();
    engine.run(&loop_, &mut y).unwrap();
    let mut y = loop_.initial_y();
    engine.run(&loop_, &mut y).unwrap();
    let fp = doacross_plan::PatternFingerprint::of(&loop_);
    engine.invalidate(&fp);

    let kinds: Vec<&'static str> = engine
        .trace_events()
        .iter()
        .map(|e| e.event.kind())
        .collect();
    assert_eq!(
        kinds,
        [
            "cache_miss",
            "plan_built",
            "solve_finished",
            "cache_hit",
            "solve_finished",
            "cache_invalidated",
        ]
    );
    // The build event carries the decision record: a chosen price and at
    // least the sequential candidate priced.
    let events = engine.trace_events();
    let built = events
        .iter()
        .find_map(|e| match &e.event {
            TraceEvent::PlanBuilt {
                chosen_price,
                candidate_prices,
                ..
            } => Some((*chosen_price, *candidate_prices)),
            _ => None,
        })
        .unwrap();
    assert!(built.0.is_finite());
    assert!(built.1[0].is_some(), "sequential is always priced");
    // Sequence numbers are strictly increasing.
    for w in events.windows(2) {
        assert!(w[0].seq < w[1].seq);
    }
}

#[test]
fn disabled_observability_is_inert_but_sampled_metrics_remain() {
    let engine = Engine::builder().workers(2).build();
    assert!(!engine.observability_enabled());
    let loop_ = TestLoop::new(300, 1, 8);
    for _ in 0..3 {
        let mut y = loop_.initial_y();
        engine.run(&loop_, &mut y).unwrap();
    }
    assert!(engine.recent_solves().is_empty());
    assert!(engine.trace_events().is_empty());
    let text = engine.metrics_text();
    let families = parse_prometheus(&text);
    // The engine-sampled section still scrapes...
    assert_eq!(counter_value(&families, "doacross_cache_misses_total"), 1.0);
    assert_eq!(counter_value(&families, "doacross_cache_hits_total"), 2.0);
    assert!(families.contains_key("doacross_workers"));
    // ...but the registry section is absent.
    assert!(!families.contains_key("doacross_solves_total"));
}

/// Scheduler observability: on a multi-pool engine the `doacross_pool_*`
/// families (documented at [`doacross_obs`]'s crate root) render, parse
/// strictly, and reconcile exactly — in total and per pool — with the
/// scheduler's own dispatch ledger, which in turn is the count of solves
/// whose variant is not `sequential`: every parallel solve is one
/// dispatch, a sequential one is none, and nothing else dispatches.
#[test]
fn pool_metrics_reconcile_with_the_scheduler() {
    // Two flag-variant structures and one that is sequential under any
    // cost model (every iteration writes element 0).
    let prices = CostModel {
        seq_iter: 1e6,
        seq_term: 1e6,
        wait_poll: 0.0,
        barrier: 1e9,
        ..CostModel::multimax()
    };
    let engine = Engine::builder()
        .workers(1)
        .pools(2)
        .planner(Planner::with_costs(prices))
        .observability_default()
        .build();
    let parallel: Vec<TestLoop> = [(300usize, 8usize), (400, 7)]
        .iter()
        .map(|&(n, l)| TestLoop::new(n, 1, l))
        .collect();
    let n = 200;
    let rhs: Vec<Vec<usize>> = (1..=n).map(|j| vec![j]).collect();
    let serial = IndirectLoop::new(n + 1, vec![0; n], rhs, vec![vec![0.5]; n]).unwrap();

    // Sequential solves first: they dispatch nowhere, so a multi-pool
    // engine that has run only those renders no pool family at all.
    for _ in 0..3 {
        let mut y = vec![1.0; serial.data_len()];
        let stats = engine.run(&serial, &mut y).unwrap();
        assert_eq!(stats.workers, 1);
    }
    assert_eq!(
        engine.prepare(&serial).unwrap().variant(),
        PlanVariant::Sequential
    );
    let quiet = engine.metrics_text();
    assert!(!quiet.contains("doacross_pool_"), "{quiet}");
    for p in engine.pool_stats() {
        assert_eq!((p.dispatches, p.steals), (0, 0), "{p:?}");
    }
    assert!(engine.recent_solves().iter().all(|s| s.pool.is_none()));

    // Each parallel solve traces its sub-pool dispatch (pools > 1).
    let mut parallel_solves = 0u64;
    for l in &parallel {
        let variant = engine.prepare(l).unwrap().variant();
        assert!(
            matches!(
                variant,
                PlanVariant::Doacross | PlanVariant::Linear(_) | PlanVariant::Reordered
            ),
            "{variant:?}"
        );
    }
    for _ in 0..3 {
        for l in &parallel {
            let mut y = l.initial_y();
            engine.run(l, &mut y).unwrap();
            parallel_solves += 1;
        }
    }

    let text = engine.metrics_text();
    let families = parse_prometheus(&text);

    // The scraped dispatch counter reconciles with the scheduler's own
    // ledger — in total and per pool — and both with the parallel solves;
    // the solve counter with those plus the sequential ones.
    let pool_stats = engine.pool_stats();
    let ledger: u64 = pool_stats.iter().map(|p| p.dispatches).sum();
    assert_eq!(ledger, parallel_solves, "one dispatch per parallel solve");
    assert_eq!(
        counter_value(&families, "doacross_pool_dispatches_total") as u64,
        ledger
    );
    let sequential_solves: f64 = families["doacross_solves_total"]
        .samples
        .iter()
        .filter(|(labels, _)| labels.get("variant").is_some_and(|v| v == "sequential"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(sequential_solves as u64, 3);
    assert_eq!(
        counter_value(&families, "doacross_solves_total") as u64,
        ledger + 3
    );
    for p in &pool_stats {
        let scraped: f64 = families["doacross_pool_dispatches_total"]
            .samples
            .iter()
            .filter(|(labels, _)| labels.get("pool").is_some_and(|v| *v == p.pool.to_string()))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(scraped as u64, p.dispatches, "pool {} series", p.pool);
    }
    assert_eq!(
        counter_value(&families, "doacross_pool_steals_total") as u64,
        pool_stats.iter().map(|p| p.steals).sum::<u64>()
    );
    assert!(families.contains_key("doacross_pool_wait_ns"));
    // Only the parallel solves are in the per-pool latency histograms.
    let pool_latencies: f64 = families["doacross_pool_solve_ns"]
        .samples
        .iter()
        .filter(|(labels, _)| {
            labels
                .get("__series")
                .is_some_and(|s| s == "doacross_pool_solve_ns_count")
        })
        .map(|(_, v)| v)
        .sum();
    assert_eq!(pool_latencies as u64, parallel_solves);

    // The engine-sampled scheduler gauges scrape.
    assert_eq!(counter_value(&families, "doacross_pools"), 2.0);
    assert_eq!(counter_value(&families, "doacross_saturations_total"), 0.0);

    // Flight-recorded solves carry an in-range pool stamp exactly when
    // they were parallel.
    for s in engine.recent_solves() {
        match s.variant.as_str() {
            "sequential" => assert_eq!(s.pool, None, "{s:?}"),
            _ => assert!(
                s.pool.is_some_and(|p| (p as usize) < engine.pools()),
                "{s:?}"
            ),
        }
    }
}

#[test]
fn cold_start_reasons_are_traced() {
    let missing =
        std::env::temp_dir().join(format!("doacross-obs-missing-{}.plans", std::process::id()));
    let _ = std::fs::remove_file(&missing);
    let engine = Engine::builder()
        .workers(2)
        .observability_default()
        .warm_start(&missing)
        .build();
    let kinds: Vec<&'static str> = engine
        .trace_events()
        .iter()
        .map(|e| e.event.kind())
        .collect();
    assert_eq!(kinds, ["cold_start"]);
    let text = engine.metrics_text();
    let families = parse_prometheus(&text);
    assert_eq!(counter_value(&families, "doacross_cold_starts_total"), 1.0);
}

/// The `doacross_profile_*` families (documented at [`doacross_obs`]'s
/// crate root) pass the same strict parse as everything else and
/// reconcile exactly with the profiler's own solve ring — including the
/// per-level barrier-wait histogram and its cardinality cap: at the
/// default `max_levels` (16), a 20-level wavefront must scrape as exactly
/// the series `level="0"` to `level="15"` and the `level="other"` overflow.
#[test]
fn profile_metrics_scrape_strictly_and_reconcile_with_the_profiler() {
    use doacross_engine::SpanKind;
    // The paper's preset prices the grid below as a wavefront; this
    // host's own model (the default) would run it sequentially.
    let engine = Engine::builder()
        .workers(4)
        .pools(1)
        .planner(doacross_plan::Planner::new())
        .observability_default()
        .profiling_default()
        .build();
    assert!(engine.profiling_enabled());

    // An armed-but-idle profiler renders nothing: the scrape is
    // byte-identical to an unprofiled engine's until a solve lands.
    let idle = engine.metrics_text();
    assert!(!idle.contains("doacross_profile_"), "{idle}");

    // A 20-level dependence grid plans as the wavefront; three warmed
    // solves fill the profile ring.
    let loop_ = doacross_plan::testgrid::deep_grid(64, 20, 3, 7);
    let prepared = engine.prepare(&loop_).unwrap();
    assert_eq!(prepared.variant(), doacross_plan::PlanVariant::Wavefront);
    let y0: Vec<f64> = (0..loop_.data_len())
        .map(|e| 1.0 + (e % 10) as f64)
        .collect();
    let mut stats = None;
    for _ in 0..3 {
        let mut y = y0.clone();
        stats = Some(prepared.execute(&loop_, &mut y).unwrap());
    }
    let stats = stats.unwrap();
    let profiles = engine.recent_profiles();
    assert_eq!(profiles.len(), 3);

    let text = engine.metrics_text();
    let families = parse_prometheus(&text);

    // Scalar counters reconcile with the ring.
    assert_eq!(
        counter_value(&families, "doacross_profile_solves_total"),
        3.0
    );
    assert_eq!(
        counter_value(&families, "doacross_profile_dropped_spans_total") as u64,
        profiles.iter().map(|p| p.dropped).sum::<u64>()
    );

    // Per-kind span counters reconcile, series by series.
    let span_family = &families["doacross_profile_spans_total"];
    assert_eq!(span_family.kind, "counter");
    for kind in [
        SpanKind::Work,
        SpanKind::FlagWait,
        SpanKind::BarrierWait,
        SpanKind::DispatchWait,
    ] {
        let expect: u64 = profiles.iter().map(|p| p.kind_spans[kind.index()]).sum();
        let scraped: f64 = span_family
            .samples
            .iter()
            .filter(|(labels, _)| labels.get("kind").is_some_and(|v| v == kind.as_str()))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(scraped as u64, expect, "kind {:?}", kind);
    }

    // The realized-critical-path gauge carries the latest wavefront
    // profile; the priced gauge is absent (this engine was handed its
    // planner, so there is no measured unit to price in).
    let last = profiles.last().unwrap();
    let realized: f64 = families["doacross_profile_realized_critical_ns"]
        .samples
        .iter()
        .filter(|(labels, _)| labels.get("variant").is_some_and(|v| v == "wavefront"))
        .map(|(_, v)| v)
        .sum();
    assert_eq!(realized as u64, last.realized_critical_ns);
    assert!(
        !families.contains_key("doacross_profile_priced_ns"),
        "uncalibrated engine must not price"
    );

    // The barrier-wait histogram collapses levels 16..19 under "other"
    // and its total count is exactly the barrier-wait spans harvested:
    // one per joined worker per crossing.
    let hist = &families["doacross_profile_barrier_wait_ns"];
    assert_eq!(hist.kind, "histogram");
    let mut levels: Vec<String> = hist
        .samples
        .iter()
        .filter_map(|(labels, _)| labels.get("level").cloned())
        .collect();
    levels.sort();
    levels.dedup();
    let max_levels = 16;
    let mut capped: Vec<String> = (0..max_levels).map(|l| l.to_string()).collect();
    capped.push("other".to_string());
    capped.sort();
    assert_eq!(levels, capped, "cardinality cap at max_levels={max_levels}");
    let count_total: f64 = hist
        .samples
        .iter()
        .filter(|(labels, _)| {
            labels
                .get("__series")
                .is_some_and(|s| s == "doacross_profile_barrier_wait_ns_count")
        })
        .map(|(_, v)| v)
        .sum();
    let barrier_spans: u64 = profiles
        .iter()
        .map(|p| p.kind_spans[SpanKind::BarrierWait.index()])
        .sum();
    assert_eq!(count_total as u64, barrier_spans);
    // Joined workers are the tracks carrying a work span (`SpanKind::Work`):
    // worker 0 always, a helper when it joined the region in time.
    let joined: u64 = profiles
        .iter()
        .map(|p| {
            let mut workers: Vec<u32> = p
                .spans
                .iter()
                .filter(|s| s.kind == SpanKind::Work)
                .map(|s| s.worker)
                .collect();
            workers.sort_unstable();
            workers.dedup();
            assert_eq!(workers.first(), Some(&0), "worker 0 always joins");
            assert!(workers.len() <= stats.workers, "{workers:?}");
            workers.len() as u64
        })
        .sum();
    assert_eq!(
        barrier_spans,
        joined * stats.barrier_crossings,
        "one barrier-wait span per joined worker per crossing, every solve"
    );
}
