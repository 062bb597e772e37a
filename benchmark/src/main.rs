//! The repo's benchmark: what a warmed `PreparedLoop::execute` (and a cold
//! `prepare`) costs, in units of the bare sequential loop on the same
//! host, on five workloads, with a ledger of what each layer charges.
//! `README.md` beside `Cargo.toml` documents every metric and workload.

mod bare;
mod inputs;
mod lane;
mod ledger;
mod metrics;
mod pin;
mod probes;
mod stats;
mod trace;
mod workloads;

use doacross_core::alloc::CountingAllocator;
use lane::{p01_geomean, timed_pass, Lane, LaneSummary, Ledger};
use metrics::Report;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Instant;
use trace::Tracer;
use workloads::{World, WARMUP_OPS, WORKLOADS};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Fresh set-ups behind `setup_s` (more if they are quick, see
/// [`measure_setup`]).
const SETUPS: usize = 5;

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    check: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: None,
        check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a name")?;
                let known = WORKLOADS.iter().find(|w| w.0 == name);
                args.workload = Some(known.ok_or(format!("unknown workload {name}"))?.0);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--check" => args.check = true,
            "--emit-manifest" => {
                print!("{}", metrics::manifest());
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(args))
}

/// What one client thread brings back from its passes.
struct ClientOut {
    warmup: Ledger,
    fixed: Ledger,
    fixed_allocations: u64,
    untraced: Vec<LaneSummary>,
    untraced_ledger: Ledger,
    untraced_subject_ns: f64,
    traced: Vec<LaneSummary>,
    traced_ledger: Ledger,
    tracer: Tracer,
}

struct Passes {
    fixed_ops: usize,
    untraced_seconds: f64,
    traced_seconds: f64,
}

fn take_ledgers(lanes: &mut [Lane<'_>]) -> Ledger {
    let mut sum = Ledger::default();
    for lane in lanes {
        sum.absorb(&std::mem::take(&mut lane.ledger));
    }
    sum
}

fn run_client(
    lanes: &mut [Lane<'_>],
    passes: &Passes,
    phase: &Barrier,
    origin: Instant,
    thread: u32,
    after_fixed: impl FnOnce(),
) -> ClientOut {
    // Round-robin like the timed pass: on `cold-plan` the order of
    // operations is what makes every prepare a miss.
    let mut off = Tracer::off();
    for _ in 0..WARMUP_OPS {
        for lane in lanes.iter_mut() {
            lane.run_checked(1, &mut off);
        }
    }
    let warmup = take_ledgers(lanes);
    phase.wait();

    let mut fixed_allocations = 0;
    for _ in 0..passes.fixed_ops {
        for lane in lanes.iter_mut() {
            fixed_allocations += lane.run_checked(1, &mut off);
        }
    }
    let fixed = take_ledgers(lanes);
    phase.wait();
    after_fixed();
    phase.wait();

    timed_pass(lanes, passes.untraced_seconds, &mut off);
    let untraced: Vec<LaneSummary> = lanes.iter().map(LaneSummary::of).collect();
    let untraced_subject_ns = lanes
        .iter()
        .map(|l| l.subject_ns.iter().sum::<f64>() * l.op_batch as f64)
        .sum();
    let untraced_ledger = take_ledgers(lanes);
    lanes.iter_mut().for_each(Lane::clear_samples);
    phase.wait();

    let mut tracer = Tracer::new(passes.traced_seconds > 0.0, origin, thread);
    let mut traced = Vec::new();
    if passes.traced_seconds > 0.0 {
        timed_pass(lanes, passes.traced_seconds, &mut tracer);
        traced = lanes.iter().map(LaneSummary::of).collect();
    }
    let traced_ledger = take_ledgers(lanes);
    ClientOut {
        warmup,
        fixed,
        fixed_allocations,
        untraced,
        untraced_ledger,
        untraced_subject_ns,
        traced,
        traced_ledger,
        tracer,
    }
}

/// Counts that must repeat exactly between two runs of the fixed pass.
#[derive(Debug, PartialEq)]
struct ExactCounts {
    allocations: u64,
    plan_bytes: usize,
    barriers: u64,
    true_deps: u64,
    cache: [u64; 3],
    variants: [usize; 3],
    failed: u64,
}

struct WorkloadRun {
    outs: Vec<ClientOut>,
    exact: ExactCounts,
    fixed_ops: u64,
    pool_totals: [u64; 3],
    /// Set-up failures plus every pass of every client.
    total: Ledger,
}

struct SetupTime {
    seconds: f64,
    setups: usize,
    note: String,
}

fn variant_split(world: &World) -> [usize; 3] {
    use doacross_plan::PlanVariant as V;
    let mut split = [0; 3];
    for h in world.clients.iter().flat_map(|c| &c.handles) {
        match h.prepared.variant() {
            V::Sequential => split[0] += 1,
            V::Wavefront => split[1] += 1,
            v if workloads::is_flags(v) => split[2] += 1,
            _ => {}
        }
    }
    split
}

fn run_passes(world: &World, seed: u64, passes: &Passes) -> WorkloadRun {
    let mut lanes = workloads::lanes(world, seed);
    let phase = Barrier::new(lanes.len());
    let origin = Instant::now();
    let cache_after_fixed = std::sync::Mutex::new([0u64; 3]);
    let read_cache = || {
        let mut sum = [0u64; 3];
        for s in world.engines.iter().map(|e| e.cache_stats()) {
            sum[0] += s.hits;
            sum[1] += s.misses;
            sum[2] += s.evictions;
        }
        *cache_after_fixed.lock().expect("no panics hold this lock") = sum;
    };
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let mut rest = lanes.iter_mut().enumerate();
        let (_, first) = rest.next().expect("every workload has a client");
        let others: Vec<_> = rest
            .map(|(k, lanes)| {
                let phase = &phase;
                scope.spawn(move || {
                    pin::client(k);
                    run_client(lanes, passes, phase, origin, k as u32, || ())
                })
            })
            .collect();
        // Client 0 runs on this thread, so a one-client workload starts no
        // thread and never has more runnable threads than the engine's.
        let mut outs = vec![run_client(first, passes, &phase, origin, 0, read_cache)];
        outs.extend(
            others
                .into_iter()
                .map(|h| h.join().expect("client thread panicked")),
        );
        outs
    });
    let fixed_ops: u64 = outs.iter().map(|o| o.fixed.ops).sum();
    let mut pool_totals = [0u64; 3];
    for engine in &world.engines {
        for p in engine.pool_stats() {
            pool_totals[0] += p.dispatches;
            pool_totals[1] += p.steals;
        }
        pool_totals[2] += engine.saturations();
    }
    let cache = *cache_after_fixed.lock().expect("no panics hold this lock");
    let mut total = world.setup_failures.clone();
    for o in &outs {
        for l in [&o.warmup, &o.fixed, &o.untraced_ledger, &o.traced_ledger] {
            total.absorb(l);
        }
    }
    let exact = ExactCounts {
        allocations: outs.iter().map(|o| o.fixed_allocations).sum(),
        plan_bytes: world.plan_bytes(),
        barriers: outs.iter().map(|o| o.fixed.barriers).sum(),
        true_deps: outs.iter().map(|o| o.fixed.true_deps).sum(),
        cache,
        variants: variant_split(world),
        failed: total.failed,
    };
    WorkloadRun {
        outs,
        exact,
        fixed_ops,
        pool_totals,
        total,
    }
}

fn fixed_ops_for(workload: &str) -> usize {
    if workload.starts_with("tiny") {
        2_000
    } else {
        100
    }
}

/// Seconds of a fresh set-up: at least [`SETUPS`] of them and as many more
/// as fit in a second and a half (45-300), reported like every other time
/// here as the p01 that leaves ten samples beyond it, so about the tenth
/// fastest. The median of the same set-ups moves 20-55 % between runs with
/// the host's slow phases; this moves 4-18 % while a phase lasts, and up
/// to 1.5x between a quiet and a slow phase, which nothing tried removes
/// (README, "Host facts").
fn measure_setup(world: &World, seed: u64) -> SetupTime {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < SETUPS || (started.elapsed().as_secs_f64() < 1.5 && times.len() < 300) {
        let t = Instant::now();
        let fresh = workloads::setup(world.workload, seed, world.nproc);
        times.push(t.elapsed().as_secs_f64());
        drop(fresh);
    }
    let times = stats::sorted(times);
    let (seconds, quantile) = stats::percentile(&times, 0.01);
    let [q1, q2, q3] = stats::quartiles(&times);
    let note = format!(
        "p{:.0} of fresh set-ups; min {:.6} q1 {q1:.6} p50 {q2:.6} q3 {q3:.6}",
        quantile * 100.0,
        times[0]
    );
    SetupTime {
        seconds,
        setups: times.len(),
        note,
    }
}

fn print_lanes(title: &str, lanes: &[&LaneSummary]) {
    println!("-- {title}: per lane, ns per operation");
    println!(
        "{:<22} {:>7} {:>10} {:>10} {:>11} {:>11} {:>11} {:>11} {:>11} {:>8}",
        "lane",
        "n",
        "bare p01",
        "bare p50",
        "subj p01",
        "subj q1",
        "subj p50",
        "subj q3",
        "subj p99",
        "p01/bare"
    );
    for l in lanes {
        println!(
            "{:<22} {:>7} {:>10.0} {:>10.0} {:>11.0} {:>11.0} {:>11.0} {:>11.0} {:>11.0} {:>8.3}  (p{:04.1}, p{:04.1})",
            l.name,
            l.samples,
            l.bare_p01,
            l.bare_p50,
            l.subject_p01,
            l.subject_quartiles[0],
            l.subject_quartiles[1],
            l.subject_quartiles[2],
            l.subject_p99,
            l.p01_over_bare(),
            l.p01_quantile * 100.0,
            l.p99_quantile * 100.0,
        );
    }
}

struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

fn run_workload(
    workload: &'static str,
    args: &Args,
    trace: bool,
    nproc: usize,
) -> Result<Outcome, String> {
    let mut report = Report::default();
    let share = if trace { 0.3 } else { 1.0 };
    let passes = Passes {
        fixed_ops: fixed_ops_for(workload),
        untraced_seconds: args.seconds * share,
        traced_seconds: if trace { args.seconds * share } else { 0.0 },
    };
    let world = workloads::setup(workload, args.seed, nproc);
    let run = run_passes(&world, args.seed, &passes);
    if !trace {
        // After the passes: a process's first second pays page faults that
        // make every set-up 1.6x as long.
        let setup = measure_setup(&world, args.seed);
        report.stat("setup_s", setup.seconds, setup.setups, &setup.note);
    }

    if args.check {
        let again_world = workloads::setup(workload, args.seed, nproc);
        let brief = Passes {
            fixed_ops: passes.fixed_ops,
            untraced_seconds: 0.05,
            traced_seconds: 0.0,
        };
        let again = run_passes(&again_world, args.seed, &brief);
        if again.exact != run.exact {
            return Err(format!(
                "{workload}: exact counts did not repeat\n first: {:?}\nsecond: {:?}",
                run.exact, again.exact
            ));
        }
        println!("check {workload}: exact counts repeat: {:?}", run.exact);
    }

    let untraced: Vec<&LaneSummary> = run.outs.iter().flat_map(|o| &o.untraced).collect();
    let traced: Vec<&LaneSummary> = run.outs.iter().flat_map(|o| &o.traced).collect();
    print_lanes(&format!("{workload} untraced"), &untraced);
    let p01 = p01_geomean(&untraced);
    let samples = untraced.iter().map(|l| l.samples).sum();
    if !trace {
        let note = format!("geomean over {} lanes", untraced.len());
        report.stat("solve_p01_over_bare", p01, samples, &note);
        report.put("plan_kb", run.exact.plan_bytes as f64 / 1024.0);
    }

    let mut ledger = run.total.clone();
    let mut probe_tracer = Tracer::new(trace, Instant::now(), 1_000);
    if trace {
        let budget = args.seconds * 0.4;
        let probed = probes::run(&mut report, args.seed, nproc, budget, &mut probe_tracer);
        ledger.absorb(&probed);
    }
    let (attempted, failed) = (ledger.ops.max(1), ledger.failed.min(ledger.ops.max(1)));

    if trace {
        print_lanes(&format!("{workload} traced"), &traced);
        ledger::workload_metrics(&mut report, &run, &untraced, &traced, attempted, failed);
        let mut tracers: Vec<&Tracer> = run.outs.iter().map(|o| &o.tracer).collect();
        ledger::trace_metrics(&mut report, &tracers);
        tracers.push(&probe_tracer);
        for t in &tracers {
            if !trace::children_fit(t.spans()) {
                return Err(format!("{workload}: a span does not fit inside its parent"));
            }
        }
        let path = std::path::Path::new("benchmark/out").join(format!("{workload}.trace.json"));
        trace::write_json(&path, workload, &tracers)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    Ok(Outcome {
        report,
        attempted,
        failed,
        first_failure: ledger.first_failure,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\nusage: [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--check] [--emit-manifest]");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let placement = match pin::client(0) {
        Some(cpu) => format!("client t and the pools it builds on one cpu (client 0 on cpu {cpu})"),
        None => "threads float (no affinity call)".to_string(),
    };
    println!(
        "seed {}  nproc {nproc}  seconds {}  placement: {placement}",
        args.seed, args.seconds
    );
    let selected: Vec<&'static str> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let mut any_failed = false;
    for workload in selected {
        // A run names one mode; the full set (no `--trace`) does both.
        for trace in [false, true] {
            if args.trace.is_some_and(|t| t != trace) {
                continue;
            }
            println!("== {workload}  trace {}", u8::from(trace));
            let outcome = match run_workload(workload, &args, trace, nproc) {
                Ok(outcome) => outcome,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            outcome
                .report
                .print(&format!("{workload}  trace {}", u8::from(trace)));
            if let Some(why) = &outcome.first_failure {
                println!("first failure: {why}");
                any_failed = true;
            }
            let names = if trace {
                metrics::per_layer_names()
            } else {
                metrics::end_to_end_names()
            };
            match outcome
                .report
                .result_line(&names, outcome.attempted, outcome.failed)
            {
                Ok(line) => println!("{line}"),
                Err(e) => {
                    eprintln!("{workload}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if args.check && any_failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
