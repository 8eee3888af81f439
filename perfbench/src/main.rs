//! The repository benchmark. One run drives one named workload:
//!
//! ```text
//! lbsn-perfbench --workload <hot_honest|deep_history|paper_mixed>
//!                --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (open loop at the
//! workload's fixed rate, then a closed loop); `--trace 1` runs the
//! layer breakdown (direct replay with shadow calls, untraced and
//! traced open loops, telemetry on/off closed loops) and writes its
//! spans to `<trace-dir>/trace-<workload>-<seed>.json`. Either way the
//! last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and the exit code
//! is non-zero when an output check fails. See `perfbench/README.md`.

mod checks;
mod layers;
mod loadgen;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use lbsn_obs::names::server as names;
use lbsn_obs::Snapshot;
use lbsn_server::{FrontendConfig, RequestFrontend};

use loadgen::{closed_loop, open_loop, Pages, Tally, MISSED};
use stats::{mean, median, quantile, ratio, windowed_quantile};
use trace::Tracer;
use workload::{build, Class, SetupTimes, Workload, World};

/// Worlds built per run: at least `SETUP_MIN_REPEATS`, and more while
/// the builds so far took under `SETUP_BUDGET_S` (at most
/// `SETUP_MAX_REPEATS`), so a fast set-up is sampled often enough for a
/// steady median. `setup_s` and the `workload.*_s` layers report the
/// median.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 15;
const SETUP_BUDGET_S: f64 = 3.0;

/// Frontend workers: with the generator thread that is the box's two
/// cores.
const FRONTEND_WORKERS: usize = 1;

/// Consecutive slices of an open-loop phase whose latency quantiles
/// are reduced to their median.
const LATENCY_WINDOWS: usize = 24;

/// Fixed open-loop offered rate of every workload, check-ins (and page
/// fetches) per wall second: under 10 % of the worker's capacity on the
/// slowest workload, and half a period (250 µs) apart from the check-in
/// tail, so a page rarely waits behind a decision.
const OPEN_RATE: f64 = 2_000.0;

/// Submissions the closed loop keeps outstanding (below every epoch
/// length, see `loadgen::closed_loop`).
const CLOSED_OUTSTANDING: usize = 32;

/// Share of `--seconds` the end-to-end run spends in the open loop; the
/// closed loop gets the rest.
const OPEN_SHARE: f64 = 0.75;

/// Spans written to the trace file at most.
const TRACE_FILE_SPANS: usize = 20_000;

/// Closed-loop slice pairs (registry on, registry off) of the telemetry
/// cost measurement.
const TELEMETRY_PAIRS: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_dir = PathBuf::from("perfbench/out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--trace-dir" => trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        trace_dir,
    })
}

/// Metrics in report order, with their units.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        // A latency quantile that landed on a failed request is infinite;
        // JSON has no infinity, so it reads as the largest number.
        let value = if value.is_finite() { value } else { f64::MAX };
        self.metrics.push((name, value, unit));
    }

    /// Folds a phase's tally into the run's books and problems.
    fn count(&mut self, phase: &str, t: &Tally) {
        self.attempted += t.submitted + t.pages;
        self.failed += t.failed_checkins() + t.page_failures;
        for (what, n) in [
            ("shed", t.shed),
            ("errored", t.errors),
            ("wrong decisions", t.wrong),
            ("failed pages", t.page_failures),
        ] {
            if n > 0 {
                self.problems.push(format!("{phase}: {n} {what}"));
            }
        }
    }

    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.4} {unit}");
        }
        let body = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Builds the world several times (see `SETUP_MIN_REPEATS`), keeping
/// the last one.
fn setup(args: &Args) -> (World, Vec<SetupTimes>) {
    let params = args.workload.params();
    let mut times: Vec<SetupTimes> = Vec::with_capacity(SETUP_MAX_REPEATS);
    let mut world = None;
    while times.len() < SETUP_MIN_REPEATS
        || (times.len() < SETUP_MAX_REPEATS
            && times.iter().map(|t| t.total_s).sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous world first so only one is resident.
        drop(world.take());
        let (w, t) = build(params, args.seed);
        times.push(t);
        world = Some(w);
    }
    (world.expect("at least one set-up"), times)
}

fn median_of(times: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&times.iter().map(f).collect::<Vec<_>>())
}

/// Latency quantile in µs, as the median over
/// [`LATENCY_WINDOWS`] consecutive slices of the phase (see
/// `stats::windowed_quantile`).
fn windowed_us(samples: &[u64], q: f64) -> f64 {
    let ns = windowed_quantile(samples, LATENCY_WINDOWS, q);
    if ns >= MISSED as f64 {
        f64::INFINITY
    } else {
        ns / 1e3
    }
}

/// Latency quantile in µs over every sample of the phase.
fn whole_run_us(samples: &mut [u64], q: f64) -> f64 {
    let ns = quantile(samples, q);
    if ns == MISSED {
        f64::INFINITY
    } else {
        ns as f64 / 1e3
    }
}

fn frontend(world: &World) -> RequestFrontend {
    RequestFrontend::new(
        Arc::clone(&world.server),
        FrontendConfig {
            workers: FRONTEND_WORKERS,
            ..FrontendConfig::default()
        },
    )
}

/// Resident set size from `/proc/self/status`, MB (0 where absent).
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(args: &Args, world: &mut World, setups: &[SetupTimes], report: &mut Report) {
    let fe = frontend(world);
    let pages = Pages::new(world);
    let open_s = args.seconds * OPEN_SHARE;
    let closed_s = args.seconds - open_s;
    let open = open_loop(world, &fe, &pages, OPEN_RATE, open_s, None);
    report.count("open loop", &open.tally);
    // Memory after the open loop's fixed op count: the closed loop's
    // history growth scales with throughput and would tie the two.
    world.server.sample_memory();
    let snap = world.registry.snapshot();
    let closed = closed_loop(world, &fe, CLOSED_OUTSTANDING, closed_s);
    report.count("closed loop", &closed.tally);
    fe.quiesce();

    let failed = open.tally.failed_checkins() + closed.tally.failed_checkins();
    let attempted = open.tally.submitted + closed.tally.submitted;
    report.put("setup_s", median_of(setups, |t| t.total_s), "s");
    report.put("checkins_per_s", closed.rate(), "1/s");
    report.put(
        "ok_frac",
        1.0 - ratio(failed as f64, attempted as f64),
        "ratio",
    );
    report.put(
        "mem_bytes_per_user",
        snap.gauge(names::MEM_BYTES_PER_USER),
        "B",
    );
    println!(
        "# {}: open loop {} check-ins at {}/s over {open_s:.1} s (+{} pages; p50 {:.2} us, \
         page p50 {:.2} us, unbounded: see latency.*), closed loop {} decisions with {} \
         outstanding over {:.2} s, {} worker thread(s)",
        args.workload.name(),
        open.checkin_ns.len(),
        OPEN_RATE,
        open.page_ns.len(),
        windowed_us(&open.checkin_ns, 0.50),
        windowed_us(&open.page_ns, 0.50),
        closed.tally.decided,
        CLOSED_OUTSTANDING,
        closed.elapsed_s,
        FRONTEND_WORKERS
    );
    let mut tally = open.tally;
    tally.add(&closed.tally);
    fe.shutdown();
    report
        .problems
        .extend(checks::invariants(&world.server, &tally));
}

/// The counts that must repeat exactly for a seed: they depend only on
/// the stream and the decisions, never on timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DeterministicCounts {
    /// Ops per class over the replay and the open loops.
    ops: [u64; 3],
    /// Σ in-window records `decide_mayor` scans in the replay.
    window_records: u64,
    /// Mayorship challenges in the replay.
    challenges: u64,
    /// Pages fetched over the replay and the open loops.
    pages: u64,
}

impl DeterministicCounts {
    fn of(replay: &layers::Replay, opens: &[&loadgen::OpenResult]) -> Self {
        let mut counts = DeterministicCounts {
            ops: replay.tally.per_class,
            window_records: replay.window_records,
            challenges: replay.challenges,
            pages: replay.tally.pages,
        };
        for open in opens {
            counts.pages += open.tally.pages;
            for c in Class::ALL {
                counts.ops[c.index()] += open.tally.per_class[c.index()];
            }
        }
        counts
    }
}

/// `--trace 1`: the per-layer metrics.
fn per_layer(args: &Args, world: &mut World, setups: &[SetupTimes], report: &mut Report) {
    let params = world.params;
    let fe = frontend(world);
    let pages = Pages::new(world);
    let mut tracer = Tracer::new();
    // Open loops 35 % each, telemetry closed loops 30 %.
    let open_s = args.seconds * 0.35;
    let telemetry_s = args.seconds - 2.0 * open_s;

    // 1. Direct replay with shadow calls (fixed op count: deterministic).
    let before = world.registry.snapshot();
    let replay = layers::replay(world, &pages, params.replay_ops, Some(&mut tracer));
    let after_replay = world.registry.snapshot();
    report.count("direct replay", &replay.tally);
    if replay.shadow_mismatch > 0 {
        report.problems.push(format!(
            "direct replay: {} shadow detector verdicts disagree with the server",
            replay.shadow_mismatch
        ));
    }

    // 2-3. Untraced then traced open loop at the workload's rate.
    let mut plain = open_loop(world, &fe, &pages, OPEN_RATE, open_s, None);
    report.count("untraced open loop", &plain.tally);
    let traced = open_loop(world, &fe, &pages, OPEN_RATE, open_s, Some(&mut tracer));
    report.count("traced open loop", &traced.tally);
    fe.quiesce();
    let after_open = world.registry.snapshot();

    let counts = DeterministicCounts::of(&replay, &[&plain, &traced]);

    // 4. Telemetry cost: closed-loop slices, registry on vs off.
    let slice = telemetry_s / (2 * TELEMETRY_PAIRS) as f64;
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let (mut batches, mut batched_ops) = (0u64, 0u64);
    let mut telemetry_tally = Tally::default();
    for _ in 0..TELEMETRY_PAIRS {
        let s0 = world.registry.snapshot();
        let r = closed_loop(world, &fe, CLOSED_OUTSTANDING, slice);
        let s1 = world.registry.snapshot();
        if let (Some(h1), Some(h0)) = (
            s1.histograms.get(names::FRONTEND_BATCH_SIZE),
            s0.histograms.get(names::FRONTEND_BATCH_SIZE),
        ) {
            batches += h1.count - h0.count;
            batched_ops += h1.sum - h0.sum;
        }
        on.push(r.rate());
        telemetry_tally.add(&r.tally);
        world.registry.set_enabled(false);
        let r = closed_loop(world, &fe, CLOSED_OUTSTANDING, slice);
        world.registry.set_enabled(true);
        off.push(r.rate());
        telemetry_tally.add(&r.tally);
    }
    report.count("telemetry closed loops", &telemetry_tally);
    fe.quiesce();

    // 5. Memory: the periodic sweeps that ran, then direct sweeps.
    let sweeps_run = world.registry.snapshot().counter(names::MEM_SAMPLES);
    let sweep_ms: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            world.server.sample_memory();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let parts = replay.parts();
    let plain_p50_us = windowed_us(&plain.checkin_ns, 0.5);
    let traced_p50_us = windowed_us(&traced.checkin_ns, 0.5);
    let admission_p50_us = replay.admission_p50_ns() as f64 / 1e3;
    let open_submitted = (plain.tally.submitted + traced.tally.submitted) as f64;
    let per_op = |v: &[u64]| mean(v);

    report.put(
        "loadgen.late_p99_us",
        quantile(&mut plain.late_ns, 0.99) as f64 / 1e3,
        "us",
    );
    report.put("latency.checkin_p50_us", plain_p50_us, "us");
    report.put(
        "latency.checkin_p99_us",
        whole_run_us(&mut plain.checkin_ns, 0.99),
        "us",
    );
    report.put(
        "latency.page_p50_us",
        windowed_us(&plain.page_ns, 0.5),
        "us",
    );
    report.put(
        "latency.page_p99_us",
        whole_run_us(&mut plain.page_ns, 0.99),
        "us",
    );
    report.put("workload.plan_s", median_of(setups, |t| t.plan_s), "s");
    report.put(
        "workload.bulk_load_s",
        median_of(setups, |t| t.bulk_load_s),
        "s",
    );
    report.put(
        "workload.preload_s",
        median_of(setups, |t| t.preload_s),
        "s",
    );
    report.put(
        "workload.compact_s",
        median_of(setups, |t| t.compact_s),
        "s",
    );
    report.put(
        "frontend.submit_ns",
        quantile(&mut plain.submit_ns, 0.5) as f64,
        "ns",
    );
    report.put(
        "frontend.batch_len_mean",
        ratio(batched_ops as f64, batches as f64),
        "ops",
    );
    report.put(
        "frontend.shed_frac",
        ratio(
            after_open.counter(names::FRONTEND_SHED) as f64,
            after_open.counter(names::FRONTEND_SUBMITTED) as f64,
        ),
        "ratio",
    );
    report.put(
        "frontend.residual_us",
        plain_p50_us - admission_p50_us,
        "us",
    );
    report.put("admission.op_ns", parts.op_ns, "ns");
    report.put(
        "admission.op_p99_ns",
        quantile(&mut replay.admission_ns.clone(), 0.99) as f64,
        "ns",
    );
    report.put(
        "admission.lock_retry_per_kop",
        1e3 * ratio(
            counter_delta(&after_replay, &after_open, names::LOCK_RETRY) as f64,
            open_submitted,
        ),
        "1/kop",
    );
    report.put(
        "admission.lock_fallback",
        counter_delta(&after_replay, &after_open, names::LOCK_FALLBACK) as f64,
        "count",
    );
    report.put("admission.residual_ns", parts.residual_ns(), "ns");
    report.put("verify.ns", per_op(&replay.verify_ns), "ns");
    report.put(
        "verify.abstain_frac",
        ratio(replay.verify_abstain as f64, replay.verify_ns.len() as f64),
        "ratio",
    );
    for (name, samples) in [
        "detect.branded_account_ns",
        "detect.gps_proximity_ns",
        "detect.frequent_checkins_ns",
        "detect.superhuman_speed_ns",
        "detect.rapid_fire_ns",
    ]
    .into_iter()
    .zip(&replay.detect_ns)
    {
        report.put(name, per_op(samples), "ns");
    }
    let ops = replay.ops as f64;
    report.put(
        "detect.flag_frac",
        ratio(replay.flagged as f64, ops),
        "ratio",
    );
    report.put(
        "rewards.decide_mayor_ns",
        per_op(&replay.decide_mayor_ns),
        "ns",
    );
    report.put(
        "rewards.decide_mayor_p99_ns",
        quantile(&mut replay.decide_mayor_ns.clone(), 0.99) as f64,
        "ns",
    );
    report.put(
        "rewards.evaluate_badges_ns",
        per_op(&replay.badges_ns),
        "ns",
    );
    report.put(
        "rewards.challenges_per_op",
        ratio(replay.challenges as f64, ops),
        "ratio",
    );
    report.put(
        "history.window_records_per_op",
        ratio(replay.window_records as f64, ops),
        "records",
    );
    report.put("history.append_ns", per_op(&replay.append_ns), "ns");
    report.put(
        "history.decode_ns_per_record",
        ratio(replay.walk_ns as f64, replay.walk_records as f64),
        "ns",
    );
    report.put(
        "history.bytes_per_record",
        ratio(replay.history_bytes as f64, replay.history_records as f64),
        "B",
    );
    report.put("web.user_page_ns", per_op(&replay.user_page_ns), "ns");
    report.put("web.venue_page_ns", per_op(&replay.venue_page_ns), "ns");
    report.put("scrape.parse_ns", per_op(&replay.parse_ns), "ns");
    report.put("crawldb.insert_ns", per_op(&replay.insert_ns), "ns");
    report.put("obs.mem_sweeps", sweeps_run as f64, "count");
    report.put("obs.mem_sweep_ms", median(&sweep_ms), "ms");
    report.put(
        "obs.telemetry_cost_frac",
        1.0 - ratio(median(&on), median(&off)),
        "ratio",
    );
    report.put(
        "obs.audit_records_per_op",
        ratio(
            counter_delta(&before, &after_replay, names::AUDIT_RECORDS) as f64,
            ops,
        ),
        "ratio",
    );
    report.put("mem.rss_mb", rss_mb(), "MB");
    report.put(
        "trace.overhead_frac",
        ratio(traced_p50_us - plain_p50_us, plain_p50_us),
        "ratio",
    );
    report.put(
        "workload.honest_ops",
        counts.ops[Class::Honest.index()] as f64,
        "count",
    );
    report.put(
        "workload.heavy_ops",
        counts.ops[Class::Heavy.index()] as f64,
        "count",
    );
    report.put(
        "workload.cheater_ops",
        counts.ops[Class::Cheater.index()] as f64,
        "count",
    );
    report.put("crawl.pages", counts.pages as f64, "count");

    reconcile(&parts, plain_p50_us, admission_p50_us, &tracer);
    let per_class = Class::ALL
        .iter()
        .map(|c| format!("{}={}", c.name(), counts.ops[c.index()]))
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "# deterministic counts: ops {per_class} window_records={} challenges={} pages={}",
        counts.window_records, counts.challenges, counts.pages
    );

    let mut tally = replay.tally;
    for t in [&plain.tally, &traced.tally, &telemetry_tally] {
        tally.add(t);
    }
    fe.shutdown();
    report
        .problems
        .extend(checks::invariants(&world.server, &tally));

    let path = args
        .trace_dir
        .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    match tracer.write_chrome(&path, TRACE_FILE_SPANS) {
        Ok(()) => println!(
            "# trace: {} spans recorded, written to {}",
            tracer.len(),
            path.display()
        ),
        Err(e) => report
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
}

/// Prints the reconciliation lines: the shadow layers against the real
/// admission, and admission plus frontend residual against the
/// end-to-end median. A residual above 10 % is named.
fn reconcile(
    parts: &layers::AdmissionParts,
    checkin_p50_us: f64,
    admission_p50_us: f64,
    tracer: &Tracer,
) {
    let name_if_large = |residual: f64, total: f64, what: &str| {
        let share = ratio(residual, total);
        if share.abs() > 0.10 {
            format!("{:.1}% > 10%: {what}", 100.0 * share)
        } else {
            format!("{:.1}%", 100.0 * share)
        }
    };
    let residual = parts.residual_ns();
    println!(
        "# reconcile admission.op_ns {:.0} = verify {:.0} + detect {:.0} + history.append {:.0} \
         + rewards {:.0} + residual {:.0} ({})",
        parts.op_ns,
        parts.verify_ns,
        parts.detect_ns,
        parts.append_ns,
        parts.rewards_ns,
        residual,
        name_if_large(
            residual,
            parts.op_ns,
            "shard locks, venue update, audit record, telemetry, and cache misses the warm clones hide"
        )
    );
    let frontend_residual = checkin_p50_us - admission_p50_us;
    println!(
        "# reconcile latency.checkin_p50_us {:.2} = admission.op p50 {:.2} + frontend.residual {:.2} ({})",
        checkin_p50_us,
        admission_p50_us,
        frontend_residual,
        name_if_large(
            frontend_residual,
            checkin_p50_us,
            "frontend.residual = queue wait + submit/worker/ticket handoff"
        )
    );
    let st = tracer.self_times();
    let per = |name: &str| {
        st.get(name)
            .map_or(0.0, |s| s.total_ns as f64 / s.count.max(1) as f64 / 1e3)
    };
    println!(
        "# traced check-in self time (mean us): loadgen.late {:.2} + frontend.submit {:.2} + \
         frontend.wait {:.2} + unattributed {:.2}",
        per("loadgen.late"),
        per("frontend.submit"),
        per("frontend.wait"),
        per("checkin"),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lbsn-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut world, setups) = setup(&args);
    let mut report = Report::default();
    if world.preload_wrong > 0 {
        report
            .problems
            .push(format!("preload: {} wrong decisions", world.preload_wrong));
    }
    if args.trace {
        per_layer(&args, &mut world, &setups, &mut report);
    } else {
        end_to_end(&args, &mut world, &setups, &mut report);
    }
    for p in &report.problems {
        println!("# CHECK FAILED: {p}");
    }
    report.print();
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small, fast variant of `workload` (short preload, few ops).
    fn counts(workload: Workload, seed: u64) -> DeterministicCounts {
        let mut params = workload.params();
        params.entities = params.entities.min(20_000);
        params.preload_days = params.preload_days.min(3);
        params.replay_ops = 300;
        let (mut world, _) = build(params, seed);
        assert_eq!(world.preload_wrong, 0, "preload decisions");
        let fe = frontend(&world);
        let pages = Pages::new(&world);
        let replay = layers::replay(&mut world, &pages, params.replay_ops, None);
        let open = open_loop(&mut world, &fe, &pages, 500.0, 0.2, None);
        fe.shutdown();
        let mut tally = replay.tally;
        tally.add(&open.tally);
        assert_eq!(
            tally.failed_checkins() + tally.page_failures,
            0,
            "{tally:?}"
        );
        assert_eq!(replay.shadow_mismatch, 0);
        assert!(checks::invariants(&world.server, &tally).is_empty());
        DeterministicCounts::of(&replay, &[&open])
    }

    #[test]
    fn deterministic_counts_repeat_for_a_seed() {
        for workload in Workload::ALL {
            let first = counts(workload, 7);
            assert_eq!(first, counts(workload, 7), "{}", workload.name());
            assert!(first.window_records > 0 && first.pages > 0);
        }
    }
}
