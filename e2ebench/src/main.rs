//! One benchmark for the Nectar simulator and the simulated Nectar.
//!
//!     cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!         --workload stream|rpc|fabric --seed N --seconds S --trace 0|1
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: the
//! workload's fixed simulated window runs once here and then in fresh
//! child processes while `--seconds` allows, every rerun reproducing the
//! first run's metrics snapshot byte for byte; five more children
//! measure set-up. `run_s` and `setup_s` are medians of the measured
//! times, each scaled by the machine's speed, sampled by a reference
//! workload run beside it (see `calib`). `--trace 1` runs
//! the window once untraced (in a child) and once traced (spans around
//! every call into the simulator, the window cut into `run_until`
//! slices), asserts that both snapshots are byte-identical, reports the
//! per-layer metrics and writes the span dump under `.bench_out/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `attempted` counts
//! the simulated operations issued; `failed` counts operations whose
//! result was wrong or unaccounted for. Operations the simulated system
//! itself reported as failed or abandoned are a measured outcome, shown
//! by `ok_ratio`, not a benchmark failure.

mod calib;
mod common;
mod fabric;
mod hostinfo;
mod layers;
mod member;
mod rpc;
mod spans;
mod stream;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

use nectar::world::World;
use nectar_sim::{SimDuration, SimTime};

use calib::{Meter, Reference};
use common::Instance;
use hostinfo::{timed, Timed};
use spans::Spans;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, child: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|_| format!("bad seed {val}"))?,
            "--seconds" => args.seconds = val.parse().map_err(|_| format!("bad seconds {val}"))?,
            "--trace" => args.trace = val == "1",
            "--child" => args.child = Some(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["stream", "rpc", "fabric"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}' (stream, rpc, fabric)", args.workload));
    }
    Ok(args)
}

type Setup = fn(u64, &mut Spans) -> Instance;

fn setup_of(workload: &str) -> Setup {
    match workload {
        "stream" => stream::setup,
        "rpc" => rpc::setup,
        _ => fabric::setup,
    }
}

/// Traced runs only: build every CAB's route table again by calling
/// `Topology::routes_from` directly, so the route-table share of
/// `World::new` shows as its own span.
pub fn route_tables(world: &World, spans: &mut Spans) {
    if !spans.enabled() {
        return;
    }
    let id = spans.enter("routes_from");
    let mut routes = 0usize;
    for src in 0..world.topo.cabs() as u16 {
        routes += world.topo.routes_from(src).expect("topology is routable").len();
    }
    spans.attr(id, "routes", routes as f64);
    spans.exit(id);
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `(name, unit, value)`.
pub type Metric = (&'static str, &'static str, f64);

/// What one invocation reports: the failed checks, the simulated
/// operations issued, and the metrics.
struct Report {
    problems: Vec<String>,
    attempted: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(&self) {
        for (name, unit, v) in &self.metrics {
            println!("  {name:<32} {v:>14.4} {unit}");
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let mut m = String::new();
        for (i, (name, unit, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(m, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.problems.len()
        );
    }
}

/// What a child process measured: one set-up in a fresh process and,
/// for a run child, one untraced run of the window with its snapshot,
/// both unscaled, and the machine's speed while it measured.
struct ChildReport {
    setup_s: f64,
    speed: f64,
    run: Option<(Timed, String)>,
}

/// `--child setup|run`: measure in this fresh process and report on
/// stdout. Worlds are built in fresh processes because the allocator's
/// history changes both the set-up time and the memory of a world built
/// after another one was dropped. A set-up child repeats a set-up that
/// is cheap (until 0.2 s have passed) and reports the median, with a
/// reference chunk just before and just after; a run child runs the
/// window paced by reference chunks.
fn child(a: &Args, run: bool) -> ! {
    let setup = setup_of(&a.workload);
    let mut meter = Meter::Here(Reference::new());
    let sampled = "a reference chunk in this process cannot fail";
    if !run {
        meter.sample().expect(sampled);
    }
    let mut samples = Vec::new();
    let mut i = loop {
        let (i, t) = timed(|| setup(a.seed, &mut Spans::new(false)));
        samples.push(t.wall_s);
        if run || samples.iter().sum::<f64>() >= 0.2 {
            break i;
        }
    };
    println!("setup_s {}", median(&samples));
    if run {
        let r = i.run_paced(&mut meter).expect(sampled);
        println!("speed {}", meter.speed());
        println!("run_s {}\ncpu_s {}\nrq_wait_s {}\nsnapshot", r.wall_s, r.cpu_s, r.rq_wait_s);
        println!("{}", i.world.metrics_json());
    } else {
        meter.sample().expect(sampled);
        println!("speed {}", meter.speed());
    }
    let _ = std::io::stdout().flush();
    // skip tearing the world down: the process ends here
    std::process::exit(0)
}

fn spawn_child(a: &Args, run: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seed = a.seed.to_string();
    let mode = if run { "run" } else { "setup" };
    let out = Command::new(exe)
        .args(["--workload", &a.workload, "--seed", &seed, "--child", mode])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    if !out.status.success() {
        return Err(format!("child process ({mode}) failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let (head, snapshot) = match text.split_once("snapshot\n") {
        Some((h, s)) => (h, Some(s.trim_end().to_string())),
        None => (&text[..], None),
    };
    let field = |name: &str| -> Result<f64, String> {
        head.lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .ok_or(format!("child process ({mode}) reported no {name}"))
    };
    let setup_s = field("setup_s ")?;
    let speed = field("speed ")?;
    let run = match snapshot {
        Some(s) => {
            let t = Timed {
                wall_s: field("run_s ")?,
                cpu_s: field("cpu_s ")?,
                rq_wait_s: field("rq_wait_s ")?,
            };
            Some((t, s))
        }
        None => None,
    };
    Ok(ChildReport { setup_s, speed, run })
}

/// `--trace 0`: the end-to-end metrics.
///
/// This process sets up and runs the window once, reads the outcome and
/// the memory high-water mark, and drops the world. Further untraced
/// runs, each in a fresh child process, repeat while `--seconds`
/// allows; every one must reproduce this run's metrics snapshot byte for
/// byte. Five set-up children follow. Each time is scaled by the speed
/// measured beside it; `setup_s` is the median of the scaled set-up
/// reports and `run_s` the median of all scaled runs.
fn plain(a: &Args) -> Report {
    let started = Instant::now();
    let setup = setup_of(&a.workload);
    let mut problems = Vec::new();
    // the reference runs in child processes, out of this process's
    // memory high-water mark
    let mut meter = Meter::Spawned { workload: a.workload.clone(), chunks: 0, seconds: 0.0 };
    let mut i = setup(a.seed, &mut Spans::new(false));
    let mut runs = Vec::new();
    match i.run_paced(&mut meter) {
        Ok(t) => runs.push((t, meter.speed())),
        Err(e) => problems.push(e),
    }
    let mut rep_s = started.elapsed().as_secs_f64();
    let reference = i.world.metrics_json();
    let mut out = i.outcome();
    let peak_rss_mb = hostinfo::peak_rss_mb();
    drop(i);
    problems.extend(out.problems.iter().cloned());

    if a.workload == "rpc" {
        let (knee, steps) = rpc::ladder(a.seed);
        for s in &steps {
            println!(
                "  ladder {:>6} req/s: p99 {:>10.1} us, failed {}, backlog growth {:.2} -> {}",
                s.rps,
                s.p99_us,
                s.failed,
                s.backlog_growth,
                if s.pass { "pass" } else { "miss" }
            );
        }
        out.ops_per_s = knee as f64;
        if !rpc::schedules_differ(a.seed) {
            problems.push("the seed does not change the rpc request schedule".into());
        }
    }

    while started.elapsed().as_secs_f64() + rep_s * 1.1 < a.seconds {
        let t0 = Instant::now();
        match spawn_child(a, true) {
            Ok(ChildReport { speed, run: Some((t, snapshot)), .. }) => {
                runs.push((t, speed));
                if snapshot != reference.trim_end() {
                    problems.push("a same-seed rerun produced a different metrics snapshot".into());
                }
            }
            Ok(_) => problems.push("a run child reported no run".into()),
            Err(e) => {
                problems.push(e);
                break;
            }
        }
        rep_s = t0.elapsed().as_secs_f64();
    }
    let mut setup_s = Vec::new();
    while setup_s.len() < 5 {
        match spawn_child(a, false) {
            Ok(r) => setup_s.push(r.setup_s * r.speed),
            Err(e) => {
                problems.push(e);
                break;
            }
        }
    }

    println!(
        "workload {} seed {}: {} set-ups, {} timed runs",
        a.workload,
        a.seed,
        setup_s.len(),
        runs.len()
    );
    for (k, (r, speed)) in runs.iter().enumerate() {
        println!(
            "  run {k}: wall_s {:.4} speed {:.4} cpu_s {:.4} rq_wait_s {:.4} cores {}",
            r.wall_s,
            speed,
            r.cpu_s,
            r.rq_wait_s,
            hostinfo::cores()
        );
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  operations: {} attempted, {} failed or abandoned (failed_ratio {:.6}), {} barrier members abandoned; \
         latency samples: rpc {}, barrier {}",
        out.attempted, out.failed, failed_ratio, out.abandoned_members, out.rpc_samples, out.barrier_samples
    );
    let run_s: Vec<f64> = runs.iter().map(|(r, speed)| r.wall_s * speed).collect();
    let metrics = vec![
        ("setup_s", "s", median(&setup_s)),
        ("run_s", "s", median(&run_s)),
        ("peak_rss_mb", "MB", peak_rss_mb),
        ("ok_ratio", "ratio", 1.0 - failed_ratio),
        ("stream_goodput_mbps", "sim-Mbit/s", out.goodput_mbps),
        ("stream_min_mbps", "sim-Mbit/s", out.min_flow_mbps),
        ("rpc_p50_us", "sim-us", out.rpc_p50_us),
        ("rpc_p99_us", "sim-us", out.rpc_p99_us),
        ("rpc_knee_rps", "sim-req/s", out.ops_per_s),
        ("barrier_p50_us", "sim-us", out.barrier_p50_us),
        ("barrier_p99_us", "sim-us", out.barrier_p99_us),
    ];
    Report { problems, attempted: out.attempted, metrics }
}

/// `--trace 1`: the per-layer metrics and the span dump.
fn traced(a: &Args) -> Report {
    const SLICES: u64 = 10;
    let setup = setup_of(&a.workload);
    let mut problems = Vec::new();
    let mut host = layers::HostSide::default();

    // the untraced reference run, in a fresh child process
    let reference = match spawn_child(a, true) {
        Ok(ChildReport { speed, run: Some((t, snapshot)), .. }) => {
            host.untraced_run_s = t.wall_s;
            host.untraced_speed = speed;
            host.untraced_cpu_s = t.cpu_s;
            host.untraced_rq_wait_s = t.rq_wait_s;
            Some(snapshot)
        }
        Ok(_) => {
            problems.push("the untraced child reported no run".into());
            None
        }
        Err(e) => {
            problems.push(e);
            None
        }
    };

    // the traced run
    let mut spans = Spans::new(true);
    let root = spans.enter(format!("{} seed {}", a.workload, a.seed));
    let mut i = spans.scope("setup", |sp| setup(a.seed, sp));
    host.world_new_s = spans.total_seconds("World::new");
    host.route_table_s = spans.total_seconds("routes_from");
    host.deploy_s = spans.total_seconds("deploy");
    host.rss_after_setup_mb = hostinfo::rss_mb();
    let run = spans.enter("run");
    let run_started = Instant::now();
    let span_ns = (i.end - SimTime::ZERO).as_nanos();
    let mut prev = i.world.metrics();
    for k in 1..=SLICES {
        let until = SimTime::ZERO + SimDuration::from_nanos(span_ns * k / SLICES);
        let events0 = i.sim.executed();
        let slice = spans.enter(format!("run_until slice {k}"));
        let (_, t) = timed(|| i.world.run_until(&mut i.sim, until));
        spans.exit(slice);
        let snap = spans.scope("metrics diff", |_| i.world.metrics());
        let changed = snap.iter().filter(|(key, v)| prev.get(key) != Some(*v)).count();
        let frames = snap.get("net/frames_launched").unwrap_or(0)
            - prev.get("net/frames_launched").unwrap_or(0);
        spans.attr(slice, "events", (i.sim.executed() - events0) as f64);
        spans.attr(slice, "pending", i.sim.pending() as f64);
        spans.attr(slice, "frames_launched", frames as f64);
        spans.attr(slice, "metric_keys_changed", changed as f64);
        host.slice_s.push(t.wall_s);
        host.slice_pending.push(i.sim.pending() as u64);
        prev = snap;
    }
    host.traced_run_s = run_started.elapsed().as_secs_f64();
    spans.exit(run);
    let out = spans.scope("finish", |_| i.outcome());
    spans.exit(root);
    if reference.is_some_and(|r| r != i.world.metrics_json().trim_end()) {
        problems.push("the traced run's metrics snapshot differs from the untraced run's".into());
    }
    problems.extend(out.problems.iter().cloned());
    let metrics = layers::collect(&i.world, &i.sim, i.end - SimTime::ZERO, &out, &host);

    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-seed{}.json", a.workload, a.seed));
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, spans.to_json(&a.workload, a.seed)));
    match written {
        Ok(()) => println!("span dump: {}", path.display()),
        Err(e) => problems.push(format!("cannot write {}: {e}", path.display())),
    }
    println!("self time by span (s):");
    for (name, s) in spans.self_time_by_name() {
        println!("  {name:<24} {s:>10.4}");
    }
    Report { problems, attempted: out.attempted, metrics }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if args.child.as_deref() == Some("reference") {
        calib::reference_child();
    }
    if let Some(mode) = &args.child {
        child(&args, mode == "run");
    }
    let report = if args.trace { traced(&args) } else { plain(&args) };
    report.print();
}
