//! `vqd-perfbench` — the end-to-end benchmark of `vqd-cli serve`.
//!
//! ```text
//! vqd-perfbench --workload decide|certain|scan --seed N --seconds S --trace 0|1
//!               --server PATH/TO/vqd-cli --scratch DIR
//! ```
//!
//! The server runs as a child process; this one client process drives
//! it closed-loop over the workload's connections (at most 2) and checks
//! every reply against an outcome fixed before timing starts. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! replays the workload with profiled envelopes, samples per-thread CPU,
//! pushes the same inputs through each layer's public functions in
//! process, and reports the per-layer metrics. The last stdout line is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Spans of the traced run go to `DIR/spans-<workload>-<seed>.jsonl`.

mod child;
mod drive;
mod gen;
mod layers;

use child::Server;
use drive::{Schedule, Stats};
use gen::{Plan, Workload};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vqd_obs::Metric;
use vqd_server::{CacheCounters, Envelope, Outcome, Request, Response, WireStats};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    scratch: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("vqd-perfbench: {msg}");
    eprintln!(
        "usage: vqd-perfbench --workload decide|certain|scan --seed N --seconds S \
         --trace 0|1 --server PATH --scratch DIR"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut server, mut scratch) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("`{flag}` needs a value")));
        let num = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("bad {flag} `{value}`")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{value}`"))),
                )
            }
            "--seed" => seed = Some(num()),
            "--seconds" => seconds = Some(num()),
            "--trace" => trace = Some(num() != 0),
            "--server" => server = Some(PathBuf::from(value)),
            "--scratch" => scratch = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds
            .filter(|&s| s > 0)
            .unwrap_or_else(|| usage("--seconds must be > 0")),
        trace: trace.unwrap_or(false),
        server: server.unwrap_or_else(|| usage("--server is required")),
        scratch: scratch.unwrap_or_else(|| usage("--scratch is required")),
    }
}

fn main() {
    let args = parse_args();
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("vqd-perfbench: {e}");
            std::process::exit(1)
        }
    }
}

/// One named, unit-carrying metric value.
struct Metrics(Vec<(String, &'static str, f64)>);

impl Metrics {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_owned(), unit, value));
    }
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of a sorted sample (0 when empty).
fn pct(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fixes every item's expected outcome with the in-process library,
/// before any server starts. The path family is also held to the
/// `k | m` rule, so the library itself is checked there.
fn oracle(plan: &mut Plan) -> Result<(), String> {
    let mut per_family: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (i, item) in plan.items.iter_mut().enumerate() {
        let mut rec = layers::Recorder::new();
        let started = Instant::now();
        let out = layers::execute(&mut rec, &item.request, &layers::sequential());
        per_family
            .entry(item.family)
            .or_default()
            .push(started.elapsed().as_secs_f64() * 1e3);
        if matches!(out, Outcome::Error { .. } | Outcome::Exhausted { .. }) {
            return Err(format!(
                "workload item {i} ({}) does not complete: {out}",
                item.family
            ));
        }
        item.expected = out;
        if let Some(msg) = drive::mismatch(item, &item.expected) {
            return Err(format!(
                "library disagrees with the k | m rule on item {i}: {msg}"
            ));
        }
    }
    for (family, ms) in per_family {
        let s = sorted(ms);
        println!(
            "oracle {family:<15} n={:<5} p50 {:.3}ms max {:.3}ms",
            s.len(),
            pct(&s, 0.5),
            s.last().copied().unwrap_or(0.0)
        );
    }
    Ok(())
}

/// Server flags for a workload; `certain` gets a fresh cache directory.
fn server_flags(args: &Args, n: usize) -> Result<Vec<String>, String> {
    if args.workload != Workload::Certain {
        return Ok(Vec::new());
    }
    let dir = args
        .scratch
        .join(format!("cache-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(vec!["--cache-dir".to_owned(), dir.display().to_string()])
}

/// Where the servers' stderr goes.
fn server_log(args: &Args) -> PathBuf {
    args.scratch
        .join(format!("server-{}-{}.log", args.workload.name(), args.seed))
}

/// Spawn → ready → preload puts → warm-up pass. Returns the server, the
/// preloaded handles, and the set-up time in seconds.
fn setup(
    args: &Args,
    plan: &Plan,
    lines: &[Option<String>],
    n: usize,
) -> Result<(Server, Vec<String>, f64), String> {
    let flags = server_flags(args, n)?;
    let started = Instant::now();
    let server = Server::spawn(&args.server, &flags, &server_log(args))?;
    let handles = drive::preload(server.addr, plan)?;
    let warm = drive::run_conn(
        server.addr,
        plan,
        0,
        lines,
        &handles,
        false,
        Schedule::Items(plan.warm.clone()),
    );
    if warm.failed() > 0 {
        return Err(format!(
            "warm-up failed: {}",
            warm.first_problem.unwrap_or_default()
        ));
    }
    Ok((server, handles, started.elapsed().as_secs_f64()))
}

/// Drives every connection of the plan closed-loop for `seconds`.
/// Meanwhile this thread marks window boundaries every [`WINDOW_S`],
/// each with a reading of `cpu` (the server's CPU, ms).
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    plan: &Plan,
    lines: &[Option<String>],
    handles: &[String],
    profiled: bool,
    seed: u64,
    seconds: f64,
    cpu: &dyn Fn() -> f64,
) -> (Stats, f64, Vec<(Instant, f64)>) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut all = Stats::default();
    let mut marks = vec![(started, cpu())];
    std::thread::scope(|s| {
        let conns: Vec<_> = (0..plan.conns)
            .map(|c| {
                s.spawn(move || {
                    let schedule = Schedule::Until { deadline, seed };
                    drive::run_conn(addr, plan, c, lines, handles, profiled, schedule)
                })
            })
            .collect();
        loop {
            let next = (marks.last().expect("start mark").0 + Duration::from_secs_f64(WINDOW_S))
                .min(deadline);
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            marks.push((Instant::now(), cpu()));
            if next >= deadline {
                break;
            }
        }
        for c in conns {
            all.merge(c.join().expect("client connection thread panicked"));
        }
    });
    (all, started.elapsed().as_secs_f64(), marks)
}

/// Length of one measurement window.
const WINDOW_S: f64 = 2.0;

/// Per window between consecutive marks: (throughput 1/s, server CPU
/// ms per request). Operations still in flight at the deadline fall
/// outside every window.
fn windows(stats: &Stats, marks: &[(Instant, f64)]) -> Vec<(f64, f64)> {
    marks
        .windows(2)
        .filter_map(|w| {
            let ((t0, cpu0), (t1, cpu1)) = (w[0], w[1]);
            let done = stats
                .done_at
                .iter()
                .filter(|t| **t >= t0 && **t < t1)
                .count() as f64;
            let secs = (t1 - t0).as_secs_f64();
            // A short tail window (deadline not on a boundary) is too noisy to keep.
            (secs >= WINDOW_S / 2.0 && done > 0.0).then(|| (done / secs, (cpu1 - cpu0) / done))
        })
        .collect()
}

/// The server's cache and disk counters, over the wire (all zero when
/// the server cannot be asked).
fn cache_stats(addr: SocketAddr) -> CacheCounters {
    let outcome = vqd_server::Client::connect(addr).and_then(|mut c| c.cache_stats());
    match outcome {
        Ok(Outcome::CacheStatsSnapshot {
            entries,
            bytes,
            hits,
            misses,
            evictions,
            puts,
            disk_hits,
            disk_misses,
            disk_spills,
            disk_promotions,
            disk_corrupt_dropped,
            disk_io_errors,
            disk_bytes,
            ..
        }) => CacheCounters {
            entries,
            bytes,
            hits,
            misses,
            evictions,
            puts,
            disk_hits,
            disk_misses,
            disk_spills,
            disk_promotions,
            disk_corrupt_dropped,
            disk_io_errors,
            disk_bytes,
        },
        _ => CacheCounters::default(),
    }
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("cannot create {}: {e}", args.scratch.display()))?;
    let mut plan = gen::build(args.workload, args.seed);
    oracle(&mut plan)?;
    let plain = drive::encode_items(&plan, false);
    println!(
        "workload {}: {} items, {} connection(s), closed loop, seed {}, {}s",
        args.workload.name(),
        plan.items.len(),
        plan.conns,
        args.seed,
        args.seconds
    );
    if args.trace {
        traced(args, &plan, &plain)
    } else {
        end_to_end(args, &plan, &plain)
    }
}

fn end_to_end(args: &Args, plan: &Plan, lines: &[Option<String>]) -> Result<bool, String> {
    let mut setups = Vec::new();
    let mut kept = None;
    for n in 0..SETUPS {
        let (server, handles, secs) = setup(args, plan, lines, n)?;
        setups.push(secs);
        if let Some((old, _)) = kept.replace((server, handles)) {
            Server::stop(old, Duration::from_secs(10));
        }
    }
    let (server, handles) = kept.expect("at least one set-up");
    let client0 = child::self_cpu_ms();
    let (stats, wall, marks) = drive(
        server.addr,
        plan,
        lines,
        &handles,
        false,
        args.seed,
        args.seconds as f64,
        &|| server.cpu_ms(),
    );
    let client_cpu = child::self_cpu_ms() - client0;
    let rss = server.peak_rss_mb();
    let cache = cache_stats(server.addr);
    server.stop(Duration::from_secs(10));

    // Throughput and CPU per request are medians over the windows, so a
    // burst of interference on a shared host moves only a few of them.
    // Latency percentiles take the whole run's samples.
    let per_window = windows(&stats, &marks);
    let col = |f: fn(&(f64, f64)) -> f64| median(&per_window.iter().map(f).collect::<Vec<_>>());
    let lat = sorted(stats.lat_ms.clone());
    let n = lat.len();
    let beyond_p99 = n.saturating_sub((0.99 * n as f64).ceil() as usize);
    let mut m = Metrics(Vec::new());
    m.put("throughput_rps", "1/s", col(|w| w.0));
    m.put("latency_p50_ms", "ms", pct(&lat, 0.50));
    m.put("latency_p99_ms", "ms", pct(&lat, 0.99));
    m.put("server_cpu_ms_per_req", "ms", col(|w| w.1));
    m.put("server_peak_rss_mb", "MiB", rss);
    m.put("setup_s", "s", median(&setups));
    for (name, unit, value) in &m.0 {
        println!("{name:<24} {value:>12.4} {unit}");
    }
    println!(
        "{:<24} {:>12.4} frac",
        "failed_frac",
        ratio(stats.failed() as f64, stats.attempted as f64)
    );
    if args.workload == Workload::Certain {
        println!(
            "{:<24} {:>12.4} ms",
            "put_latency_p50_ms",
            pct(&sorted(stats.put_ms.clone()), 0.5)
        );
    }
    println!(
        "{:<24} {:>12.4} frac",
        "bench.client_cpu_frac",
        client_cpu / (wall * 1e3)
    );
    println!(
        "samples {n} ({beyond_p99} beyond p99) in {wall:.1}s, {} windows (rps {:?}), setups {:?} s, {} re-puts",
        per_window.len(),
        per_window.iter().map(|w| w.0.round()).collect::<Vec<_>>(),
        setups.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        stats.reputs
    );
    if beyond_p99 < 10 {
        println!("warning: fewer than 10 samples beyond p99; run longer for a p99 to rely on");
    }
    if args.workload == Workload::Certain {
        let c = cache;
        println!(
            "cache (server lifetime): hits {} misses {} evictions {} bytes {} puts {} | disk \
             spills {} hits {} io_errors {} bytes {}",
            c.hits,
            c.misses,
            c.evictions,
            c.bytes,
            c.puts,
            c.disk_spills,
            c.disk_hits,
            c.disk_io_errors,
            c.disk_bytes
        );
    }
    finish(&stats, m)
}

/// Prints the failure summary and the result line; returns correctness.
fn finish(stats: &Stats, m: Metrics) -> Result<bool, String> {
    // An error reply where an answer was expected is a wrong reply;
    // overloaded and exhausted are governance outcomes, counted as failed.
    let correct =
        stats.wrong == 0 && stats.errors == 0 && stats.transport == 0 && stats.attempted > 0;
    println!(
        "attempted {} failed {} (wrong {}, errors {}, overloaded {}, exhausted {}, transport {})",
        stats.attempted,
        stats.failed(),
        stats.wrong,
        stats.errors,
        stats.overloaded,
        stats.exhausted,
        stats.transport
    );
    if let Some(p) = &stats.first_problem {
        eprintln!("vqd-perfbench: first problem: {p}");
    }
    let metrics: Vec<String> =
        m.0.iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        stats.attempted.max(1),
        stats.failed(),
        metrics.join(", ")
    );
    Ok(correct)
}

/// Rounds of one untraced and one profiled slice in the traced run:
/// alternating them keeps a drift in the host's speed from biasing the
/// comparison.
const TRACE_ROUNDS: u64 = 5;

fn traced(args: &Args, plan: &Plan, plain: &[Option<String>]) -> Result<bool, String> {
    // A third of the run untraced, a third profiled, a third replaying
    // in process.
    let third = args.seconds as f64 / 3.0;
    let slice = third / TRACE_ROUNDS as f64;
    let profiled_lines = drive::encode_items(plan, true);
    let (server, handles, _) = setup(args, plan, plain, 0)?;
    let (mut untraced, mut traced) = (Stats::default(), Stats::default());
    let (mut wall_a, mut wall_b) = (0.0, 0.0);
    let (mut client_cpu, mut io_cpu, mut worker_cpu) = (0.0, 0.0, 0.0);
    let mut cache_deltas = Vec::new();
    for k in 0..2 * TRACE_ROUNDS {
        // Slices run untraced, profiled, profiled, untraced, …: each has a
        // request sequence of its own, and the order alternates so that
        // whatever one slice leaves in the cache favours neither side.
        let profiled = (k % 2 == 1) != ((k / 2) % 2 == 1);
        let lines = if profiled { &profiled_lines } else { plain };
        let before = (
            server.thread_cpu_ms("vqd-io-"),
            server.thread_cpu_ms("vqd-worker-"),
            child::self_cpu_ms(),
            cache_stats(server.addr),
        );
        let seed = args.seed.wrapping_add(k);
        let (s, wall, _) = drive(
            server.addr,
            plan,
            lines,
            &handles,
            profiled,
            seed,
            slice,
            &|| server.cpu_ms(),
        );
        if profiled {
            // Timelines and engine counter deltas on every reply.
            cache_deltas.push((before.3, cache_stats(server.addr)));
            wall_b += wall;
            traced.merge(s);
        } else {
            // The throughput base for the tracing overhead, and CPU per
            // thread-name prefix.
            io_cpu += server.thread_cpu_ms("vqd-io-") - before.0;
            worker_cpu += server.thread_cpu_ms("vqd-worker-") - before.1;
            client_cpu += child::self_cpu_ms() - before.2;
            wall_a += wall;
            untraced.merge(s);
        }
    }
    server.stop(Duration::from_secs(10));

    // In-process replay through the layers' public functions.
    let mut rec = layers::Recorder::new();
    let replay = replay(&mut rec, plan, plain, args.seed, third);
    let spans_path = args.scratch.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    rec.write_jsonl(&spans_path)
        .map_err(|e| format!("cannot write spans: {e}"))?;

    let speedup = exec_speedup(plan)?;
    let alive = parallel_probe(args)?;

    let mut stats = untraced;
    let (a_n, a_bytes_req, a_bytes_reply) = (
        stats.replies as f64,
        stats.request_bytes as f64,
        stats.reply_bytes as f64,
    );
    let tput_a = stats.lat_ms.len() as f64 / wall_a;
    let tput_b = traced.lat_ms.len() as f64 / wall_b;
    let reqs_a = stats.lat_ms.len() as f64;

    let mut m = Metrics(Vec::new());
    m.put("bench.client_cpu_frac", "frac", client_cpu / (wall_a * 1e3));
    m.put("server.io_cpu_ms_per_req", "ms", ratio(io_cpu, reqs_a));
    let phase = |f: fn(&vqd_server::Timeline) -> u64| {
        sorted(traced.timelines.iter().map(|t| f(t) as f64).collect())
    };
    let (frame, queue, exec, reorder) = (
        phase(|t| t.frame_us),
        phase(|t| t.queue_us),
        phase(|t| t.exec_us),
        phase(|t| t.reorder_us),
    );
    m.put("server.frame_us_p50", "us", pct(&frame, 0.5));
    m.put("server.reorder_us_p50", "us", pct(&reorder, 0.5));
    let p50_span = |name: &str| pct(&sorted(rec.durations_us(name)), 0.5);
    m.put("proto.decode_us", "us", p50_span("proto.decode"));
    m.put("proto.encode_us", "us", p50_span("proto.encode"));
    m.put("proto.request_bytes", "bytes", ratio(a_bytes_req, a_n));
    m.put("proto.reply_bytes", "bytes", ratio(a_bytes_reply, a_n));
    m.put("pool.queue_us_p50", "us", pct(&queue, 0.5));
    m.put("pool.queue_us_p95", "us", pct(&queue, 0.95));
    m.put("pool.exec_us_p50", "us", pct(&exec, 0.5));
    m.put("pool.exec_us_p95", "us", pct(&exec, 0.95));
    m.put(
        "pool.worker_cpu_ms_per_req",
        "ms",
        ratio(worker_cpu, reqs_a),
    );
    m.put(
        "pool.overloaded",
        "count",
        (stats.overloaded + traced.overloaded) as f64,
    );
    m.put("query.parse_us", "us", p50_span("query.parse"));
    m.put("router.classify_us", "us", p50_span("router.classify"));
    m.put(
        "router.fastpath_hit_ratio",
        "frac",
        ratio(traced.fastpath as f64, traced.routed as f64),
    );
    m.put("chase.inverse_us", "us", p50_span("chase.inverse"));
    let per_req = |metric: Metric| ratio(traced.profile.get(metric) as f64, traced.profiled as f64);
    m.put(
        "chase.rounds_per_req",
        "count",
        per_req(Metric::ChaseRounds),
    );
    m.put(
        "chase.triggers_per_req",
        "count",
        per_req(Metric::ChaseTriggersFired),
    );
    m.put(
        "chase.nulls_per_req",
        "count",
        per_req(Metric::ChaseNullsCreated),
    );
    m.put("eval.hom_us", "us", p50_span("eval.hom"));
    m.put(
        "eval.hom_candidates_per_req",
        "count",
        per_req(Metric::HomCandidatesTried),
    );
    m.put(
        "eval.hom_backtracks_per_req",
        "count",
        per_req(Metric::HomBacktracks),
    );
    m.put(
        "eval.prune_ratio",
        "frac",
        ratio(
            traced.profile.get(Metric::HomPruneHits) as f64,
            traced.profile.get(Metric::HomCandidatesTried) as f64,
        ),
    );
    m.put("core.decide_us", "us", p50_span("core.decide"));
    m.put("core.certain_us", "us", p50_span("core.certain"));
    m.put("core.scan_us", "us", p50_span("core.scan"));
    m.put("core.containment_us", "us", p50_span("core.containment"));
    m.put("core.finite_us", "us", p50_span("core.finite"));
    m.put("exec.speedup_w2", "x", speedup);
    m.put(
        "exec.parallel_probe_server_alive",
        "count",
        if alive { 1.0 } else { 0.0 },
    );
    // Counters over the profiled slices; sizes as the last one ended.
    // `disk.io_errors` is reported raw: a fault-free run should read 0.
    let delta = |f: fn(&CacheCounters) -> u64| {
        let sum: u64 = cache_deltas
            .iter()
            .map(|(a, b)| f(b).saturating_sub(f(a)))
            .sum();
        sum as f64
    };
    let last = cache_deltas.last().map(|(_, b)| *b).unwrap_or_default();
    let (hits, misses) = (delta(|c| c.hits), delta(|c| c.misses));
    m.put("cache.hit_ratio", "frac", ratio(hits, hits + misses));
    m.put("cache.evictions", "count", delta(|c| c.evictions));
    m.put(
        "cache.index_builds_per_req",
        "count",
        ratio(traced.index_builds as f64, traced.replies as f64),
    );
    m.put("cache.bytes", "bytes", last.bytes as f64);
    m.put("disk.spills", "count", delta(|c| c.disk_spills));
    m.put("disk.hits", "count", delta(|c| c.disk_hits));
    m.put("disk.io_errors", "count", delta(|c| c.disk_io_errors));
    m.put("disk.bytes", "bytes", last.disk_bytes as f64);
    m.put(
        "budget.steps_per_req",
        "count",
        ratio(traced.steps as f64, traced.replies as f64),
    );
    m.put(
        "obs.trace_overhead_frac",
        "frac",
        1.0 - ratio(tput_b, tput_a),
    );
    m.put(
        "put_latency_p50_ms",
        "ms",
        pct(&sorted(traced.put_ms.clone()), 0.5),
    );
    for (name, unit, value) in &m.0 {
        println!("{name:<34} {value:>14.4} {unit}");
    }
    println!(
        "self time per layer (in-process replay of {} requests):",
        replay.attempted
    );
    for (name, (calls, total, own)) in rec.summary() {
        println!("  {name:<18} calls {calls:>7}  total {total:>12.1}us  self {own:>12.1}us");
    }
    println!(
        "phase sample counts: untraced {} ({:.1} rps), profiled {} ({:.1} rps); spans -> {}",
        stats.lat_ms.len(),
        tput_a,
        traced.lat_ms.len(),
        tput_b,
        spans_path.display()
    );
    stats.merge(traced);
    stats.merge(replay);
    finish(&stats, m)
}

/// Most requests one in-process replay records (bounds the span store).
const REPLAY_MAX: u64 = 50_000;

/// Replays the workload's request sequence in process: decode the
/// wire line, execute through the layers, encode the reply. Checked
/// against the same expected outcomes as the live replies.
fn replay(
    rec: &mut layers::Recorder,
    plan: &Plan,
    lines: &[Option<String>],
    seed: u64,
    seconds: f64,
) -> Stats {
    let mut stats = Stats::default();
    let mut stream = gen::Stream::new(seed, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let exec = layers::sequential();
    let mut next_fresh = 0;
    let mut n = 0u64;
    while Instant::now() < deadline && n < REPLAY_MAX {
        rec.begin_request(n);
        n += 1;
        stats.attempted += 1;
        let root = rec.enter("request");
        let (item, line) = match stream.next(plan) {
            gen::Step::Write => {
                let fresh = &plan.fresh[0];
                next_fresh += 1;
                let extent = &fresh[next_fresh % fresh.len()];
                (None, drive::encode(gen::put(extent), false))
            }
            gen::Step::Read(i) => {
                let line = match &lines[i] {
                    Some(l) => l.clone(),
                    None => drive::encode(plan.items[i].request.clone(), false),
                };
                (Some(i), line)
            }
        };
        let envelope = rec.span("proto.decode", |_| Envelope::from_line(line.trim_end()));
        let Ok(envelope) = envelope else {
            stats.wrong += 1;
            rec.exit(root);
            continue;
        };
        let outcome = layers::execute(rec, &envelope.request, &exec);
        rec.span("proto.encode", |_| {
            Response::new(envelope.id.clone(), outcome.clone(), WireStats::default())
                .to_json()
                .to_string()
        });
        rec.exit(root);
        let wrong = match item {
            Some(i) => drive::mismatch(&plan.items[i], &outcome),
            None => match &outcome {
                Outcome::InstancePut { .. } => None,
                other => Some(format!("put_instance replay: {other}")),
            },
        };
        if let Some(msg) = wrong {
            stats.wrong += 1;
            if stats.first_problem.is_none() {
                stats.first_problem = Some(format!("in-process replay: {msg}"));
            }
        }
    }
    stats
}

/// Passes over the requests in [`exec_speedup`]; which width runs first
/// alternates between passes.
const SPEEDUP_PASSES: usize = 4;

/// Sequential over width-2 wall time of the workload's engine-parallel
/// requests (certain answers and semantic scans), each with a fresh
/// budget; outputs must be identical. 0 when the workload has none.
fn exec_speedup(plan: &Plan) -> Result<f64, String> {
    let pool = Arc::new(vqd_exec::ExecPool::new(2));
    let picks: Vec<&Request> = plan
        .items
        .iter()
        .map(|it| &it.request)
        .filter(|r| matches!(r, Request::Certain { .. } | Request::Semantic { .. }))
        .take(16)
        .collect();
    if picks.is_empty() {
        return Ok(0.0);
    }
    let mut rec = layers::Recorder::new();
    let mut timed = |request: &Request, width: usize| {
        let ctx = if width == 1 {
            layers::sequential()
        } else {
            vqd_exec::ExecCtx::on_pool(vqd_budget::Budget::unlimited(), width, Arc::clone(&pool))
        };
        let started = Instant::now();
        let out = layers::execute(&mut rec, request, &ctx);
        (out, started.elapsed().as_secs_f64())
    };
    let (mut seq_s, mut par_s) = (0.0, 0.0);
    for pass in 0..SPEEDUP_PASSES {
        for request in &picks {
            let ((seq, seq_t), (par, par_t)) = if pass % 2 == 0 {
                let seq = timed(request, 1);
                (seq, timed(request, 2))
            } else {
                let par = timed(request, 2);
                (timed(request, 1), par)
            };
            seq_s += seq_t;
            par_s += par_t;
            if seq != par {
                return Err(format!(
                    "width-2 execution disagrees with sequential on {}",
                    request.op()
                ));
            }
        }
    }
    Ok(ratio(seq_s, par_s))
}

/// Whether a server started with `--engine-threads 2` survives one
/// width-2 semantic scan that finds a counterexample. Runs against its
/// own throwaway server, outside the timed phases.
fn parallel_probe(args: &Args) -> Result<bool, String> {
    let mut server = Server::spawn(
        &args.server,
        &["--engine-threads".into(), "2".into()],
        &server_log(args),
    )?;
    let request = Request::Semantic {
        schema: gen::SCHEMA.into(),
        views: "V(x) :- E(x,y).".into(),
        query: "Q(x,y) :- E(x,y).".into(),
        domain: 3,
        space_limit: 1 << 20,
    };
    let line = Envelope::new("probe", vqd_server::Limits::none(), request)
        .with_parallelism(2)
        .to_json()
        .to_string();
    let replied = vqd_server::Client::connect(server.addr)
        .and_then(|mut c| {
            c.set_read_timeout(Some(Duration::from_secs(30)))?;
            c.call_raw(&line)
        })
        .is_ok_and(|r| matches!(r.outcome, Outcome::SemanticOutcome { .. }));
    std::thread::sleep(Duration::from_millis(300));
    let alive = server.alive()
        && vqd_server::Client::connect(server.addr)
            .and_then(|mut c| {
                c.set_read_timeout(Some(Duration::from_secs(5)))?;
                c.ping()
            })
            .unwrap_or(false);
    println!("parallel probe: reply ok {replied}, server alive afterwards {alive}");
    if alive {
        server.stop(Duration::from_secs(10));
    }
    Ok(alive)
}
