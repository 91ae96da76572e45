//! The repo's benchmark: seeded TPC-H traffic mixes driven through the
//! public API of `legobase`, timed from outside. See README.md.
//!
//! ```text
//! legobase_benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                    [--selftest-fault] [--out DIR]
//! ```
//!
//! Without `--workload` every workload runs in turn. The last line a run
//! prints is its result object; the line before it is the full report.

mod children;
mod driver;
mod layers;
mod metrics;
mod stats;
mod sys;
mod templates;
mod trace;
mod workload;

use children::{answer, calibrate, spawn, VERIFY_SF};
use driver::{Backend, Client, Round};
use legobase::LegoBase;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use sys::Json;
use templates::TEMPLATES;
use trace::Tracer;
use workload::{Schedule, Workload, WORKLOADS};

/// Set-ups per untraced run (one in this process, the others in children);
/// `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Samples per template a timed phase must collect: a p90 with ten samples
/// beyond it.
const MIN_SAMPLES: usize = 100;
/// The end-to-end times are this percentile over a phase's rounds: the rounds
/// the machine's neighbours disturbed least (README.md, "Why the fast decile").
const FAST: f64 = 0.10;
/// Rounds a timed phase must complete: ten rounds below the fast decile.
const MIN_ROUNDS: usize = 100;
/// Rounds of the traced pass.
const TRACED_ROUNDS: usize = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    fault: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: legobase_benchmark [--workload {}] [--seed N] [--seconds S] [--trace 0|1] \
         [--selftest-fault] [--out DIR] | --print-benchmark-json",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        fault: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--selftest-fault" => args.fault = true,
            "--out" => args.out = PathBuf::from(value()),
            _ => usage(),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        usage();
    }
    args
}

/// The archive of one run; removed when the run ends, however it ends.
struct Archive(PathBuf);

impl Drop for Archive {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Times of one set-up, harness start to first timed request.
struct Setup {
    total_s: f64,
    generate_s: f64,
    write_s: f64,
    open_s: f64,
    warmup_s: f64,
}

impl Setup {
    const FIELDS: [&'static str; 5] = ["total_s", "generate_s", "write_s", "open_s", "warmup_s"];

    fn fields(&self) -> [f64; 5] {
        [self.total_s, self.generate_s, self.write_s, self.open_s, self.warmup_s]
    }

    fn to_json(&self) -> Json {
        Json::obj(Setup::FIELDS.into_iter().zip(self.fields().map(Json::Num)))
    }

    /// Reads back what the `setup` child printed.
    fn parse(line: &str) -> Result<Setup, String> {
        let [total_s, generate_s, write_s, open_s, warmup_s] = Setup::FIELDS;
        Ok(Setup {
            total_s: answer(line, total_s)?,
            generate_s: answer(line, generate_s)?,
            write_s: answer(line, write_s)?,
            open_s: answer(line, open_s)?,
            warmup_s: answer(line, warmup_s)?,
        })
    }
}

/// One set-up, first half: a child generates the data and writes the
/// archive, this process opens it and starts the program. Returns the started
/// program and the set-up's times so far (`total_s` and `warmup_s` are
/// completed by [`warmed`] once the client has connected and warmed up — it
/// borrows the backend, so the caller holds both).
fn start(
    workload: &Workload,
    archive: &std::path::Path,
) -> Result<(Backend, Instant, Setup), String> {
    let t0 = Instant::now();
    let line =
        spawn("generate", &[workload.scale_factor.to_string(), archive.display().to_string()])?;
    let t_open = Instant::now();
    let system = LegoBase::from_archive(archive)
        .map_err(|e| format!("cannot open {}: {e}", archive.display()))?;
    let open_s = t_open.elapsed().as_secs_f64();
    let backend = Backend::start(system, workload.transport)?;
    let setup = Setup {
        total_s: 0.0,
        generate_s: answer(&line, "generate_s")?,
        write_s: answer(&line, "write_s")?,
        open_s,
        warmup_s: 0.0,
    };
    Ok((backend, t0, setup))
}

/// One set-up, second half: the client is connected and warm.
fn warmed(setup: Setup, t0: Instant, t_warm: Instant) -> Setup {
    Setup { total_s: t0.elapsed().as_secs_f64(), warmup_s: t_warm.elapsed().as_secs_f64(), ..setup }
}

/// Child role: one whole set-up in a fresh process, torn down again. The
/// measuring process sets up once itself — its memory high-water mark is
/// that of one server — and the repetitions behind `setup_s` run here.
fn child_setup(args: &[String]) -> Result<(), String> {
    let [name, seed, archive] = args else {
        return Err("setup wants <workload> <seed> <archive>".into());
    };
    let workload = workload::find(name).ok_or_else(|| format!("no workload `{name}`"))?;
    let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}`"))?;
    let schedule = Schedule::new(workload, seed);
    let (backend, t0, setup) = start(workload, std::path::Path::new(archive))?;
    let t_warm = Instant::now();
    let client = Client::connect_and_warm(&backend, workload, &schedule)?;
    let setup = warmed(setup, t0, t_warm);
    drop(client);
    backend.shutdown();
    let words: Vec<String> =
        Setup::FIELDS.iter().zip(setup.fields()).map(|(k, v)| format!("{k} {v}")).collect();
    println!("{}", words.join(" "));
    Ok(())
}

/// Metric values by name.
type Values = BTreeMap<String, f64>;

/// What the last set-up's client measured.
struct Measured {
    values: Values,
    /// One report row per template, then one for the phase.
    rows: Vec<Json>,
    /// Spans of the traced pass and the observed (plan, prepared) cache hit
    /// rates; `None` on an untraced run.
    traced: Option<(Tracer, (f64, f64))>,
}

/// What [`timed_and_summarized`] hands back.
struct Summary {
    /// The three time-based end-to-end metrics: [`FAST`] over the rounds.
    fast_gm_ms: f64,
    throughput_qps: f64,
    cpu_ms_per_query: f64,
    /// Geometric means over the templates of their median and p90 latency
    /// over all requests.
    p50_gm_ms: f64,
    p90_gm_ms: f64,
    /// Median latency per template slot.
    p50_ms: Vec<f64>,
    /// Mean latency over all requests.
    mean_ms: f64,
    /// One report row per template, then one for the phase.
    rows: Vec<Json>,
}

/// [`FAST`] over the rounds of whatever `of` reads from a round.
fn fast(rounds: &[Round], of: impl Fn(&Round) -> f64) -> Result<f64, String> {
    let mut values: Vec<f64> = rounds.iter().map(of).collect();
    values.sort_by(f64::total_cmp);
    stats::percentile(&values, FAST).map_err(|e| format!("over rounds: {e}"))
}

/// Runs one timed phase — `seconds` long, and long enough for
/// [`MIN_ROUNDS`] rounds and [`MIN_SAMPLES`] samples of every template — and
/// summarises it: per round for the end-to-end times, per template over all
/// requests for the report and the per-layer figures.
fn timed_and_summarized(
    client: &mut Client<'_>,
    schedule: &Schedule,
    workload: &Workload,
    seconds: f64,
    fault: Option<usize>,
) -> Result<Summary, String> {
    let min_rounds = MIN_SAMPLES.div_ceil(schedule.samples_per_round()).max(MIN_ROUNDS);
    let wall_s = client.timed_phase(schedule, seconds, min_rounds, fault)?;
    let rounds = std::mem::take(&mut client.rounds);
    let requests: usize = rounds.iter().map(|r| r.requests).sum();
    let (mut p50_ms, mut p90_ms, mut fast_ms, mut rows) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut all = Vec::with_capacity(requests);
    for (slot, name) in workload.templates.iter().enumerate() {
        let mut samples = std::mem::take(&mut client.samples[slot]);
        all.extend_from_slice(&samples);
        samples.sort_by(f64::total_cmp);
        let at = |p| stats::percentile(&samples, p).map_err(|e| format!("{name}: {e}"));
        let (p50, p90) = (at(0.5)?, at(0.9)?);
        let [q1, _, q3] = stats::quartiles(&samples).ok_or("a template has under two samples")?;
        let fast_round = fast(&rounds, |r| r.slot_ms[slot])?;
        p50_ms.push(p50);
        p90_ms.push(p90);
        fast_ms.push(fast_round);
        rows.push(Json::obj([
            ("template", Json::str(*name)),
            ("samples", Json::Int(samples.len() as i64)),
            ("p10_round_ms", Json::Num(fast_round)),
            ("p25_ms", Json::Num(q1)),
            ("p50_ms", Json::Num(p50)),
            ("p75_ms", Json::Num(q3)),
            ("p90_ms", Json::Num(p90)),
        ]));
    }
    let gm = |xs: &[f64]| stats::geomean(xs).ok_or("a template's latency is not positive");
    let (p50_gm_ms, p90_gm_ms) = (gm(&p50_ms)?, gm(&p90_ms)?);
    rows.push(Json::obj([
        ("rounds", Json::Int(rounds.len() as i64)),
        ("wall_s", Json::Num(wall_s)),
        ("requests", Json::Int(requests as i64)),
        ("whole_phase_qps", Json::Num(requests as f64 / wall_s)),
        ("latency_p50_gm_ms", Json::Num(p50_gm_ms)),
        ("latency_p90_gm_ms", Json::Num(p90_gm_ms)),
    ]));
    Ok(Summary {
        fast_gm_ms: gm(&fast_ms)?,
        throughput_qps: 1.0 / fast(&rounds, |r| r.wall_s / r.requests as f64)?,
        cpu_ms_per_query: fast(&rounds, |r| r.cpu_s * 1e3 / r.requests as f64)?,
        p50_gm_ms,
        p90_gm_ms,
        mean_ms: stats::mean(&all).ok_or("the timed phase sent no request")?,
        p50_ms,
        rows,
    })
}

/// The untraced measurement: the end-to-end metrics but `setup_s`.
fn measure_end_to_end(
    client: &mut Client<'_>,
    schedule: &Schedule,
    workload: &Workload,
    seconds: f64,
    fault: Option<usize>,
) -> Result<Measured, String> {
    let summary = timed_and_summarized(client, schedule, workload, seconds, fault)?;
    // Read before anything else allocates: the high-water mark of a process
    // that opened an archive, warmed up and served.
    let peak_rss_mb = sys::peak_rss_mb()?;
    let values = Values::from([
        ("latency_p10_gm_ms".to_string(), summary.fast_gm_ms),
        ("throughput_qps".to_string(), summary.throughput_qps),
        ("cpu_ms_per_query".to_string(), summary.cpu_ms_per_query),
        ("peak_rss_mb".to_string(), peak_rss_mb),
    ]);
    Ok(Measured { values, rows: summary.rows, traced: None })
}

/// The traced measurement on the measured configuration: an untraced phase
/// of half the run (per-template medians, the base of the overhead ratio),
/// then [`TRACED_ROUNDS`] rounds with a span per request, and the service's
/// own counters over both.
fn measure_traced(
    backend: &Backend,
    client: &mut Client<'_>,
    schedule: &Schedule,
    workload: &Workload,
    seconds: f64,
    epoch: Instant,
) -> Result<Measured, String> {
    let before = backend.stats();
    let summary = timed_and_summarized(client, schedule, workload, seconds / 2.0, None)?;
    let mean_ms = summary.mean_ms;
    let rows = summary.rows;
    let mut values = Values::from([
        ("latency.mean_ms".to_string(), mean_ms),
        ("latency.p50_gm_ms".to_string(), summary.p50_gm_ms),
        ("latency.p90_gm_ms".to_string(), summary.p90_gm_ms),
    ]);
    for (name, p50) in workload.templates.iter().zip(summary.p50_ms) {
        values.insert(format!("tpl.{name}.p50_ms"), p50);
    }

    client.tracer = Some(Tracer::new(epoch, 0));
    client.timed_phase(schedule, 0.0, TRACED_ROUNDS, None)?;
    let spans = client.tracer.take().expect("tracer attached above");
    let (requests, request_ns) = spans.duration_by_name()["request"];
    values
        .insert("trace.overhead_ratio".into(), request_ns as f64 / 1e6 / requests as f64 / mean_ms);

    let after = backend.stats();
    let rate = |hits: u64, misses: u64| hits as f64 / ((hits + misses) as f64).max(1.0);
    let hit_rates = (
        rate(
            after.plan_cache_hits - before.plan_cache_hits,
            after.plan_cache_misses - before.plan_cache_misses,
        ),
        rate(
            after.prepared_cache_hits - before.prepared_cache_hits,
            after.prepared_cache_misses - before.prepared_cache_misses,
        ),
    );
    values.extend([
        ("service.plan_hit_rate".to_string(), hit_rates.0),
        ("service.prepared_hit_rate".to_string(), hit_rates.1),
        ("service.queries_ok".to_string(), after.queries_ok as f64),
        ("service.queries_rejected".to_string(), after.queries_rejected as f64),
        ("service.queries_expired".to_string(), after.queries_expired as f64),
        ("service.queries_panicked".to_string(), after.queries_panicked as f64),
    ]);
    Ok(Measured { values, rows, traced: Some((spans, hit_rates)) })
}

/// The layer walk, and the shares of a request's wall time it implies.
/// Execution is what the replies reported; the stages a cache hit skips are
/// charged at the observed miss rate times their staged cost.
fn add_layer_metrics(
    values: &mut Values,
    real: Tracer,
    hit_rates: (f64, f64),
    walk: layers::Walk,
    schedule: &Schedule,
) -> Tracer {
    let (exec_n, exec_ns) = real.duration_by_name()["exec.execute"];
    let scanned: f64 = real
        .spans
        .iter()
        .filter(|s| s.name == "exec.execute")
        .map(|s| walk.base_rows[schedule.texts[s.text].slot])
        .sum();
    values.insert("exec.ms".into(), exec_ns as f64 / 1e6 / exec_n as f64);
    values.insert("exec.share".into(), exec_ns as f64 / real.request_ns() as f64);
    values.insert("exec.ns_per_row".into(), exec_ns as f64 / scanned);
    let mean_us = values["latency.mean_ms"] * 1e3;
    let m = &walk.metrics;
    let frontend_us = (1.0 - hit_rates.0) * (m["sql.plan_us"] + m["optimizer.optimize_us"])
        + (1.0 - hit_rates.1) * m["sc.compile_us"];
    values.insert("frontend.share".into(), frontend_us / mean_us);
    values.insert("load.share".into(), (1.0 - hit_rates.1) * m["load.ms"] * 1e3 / mean_us);
    // Templates outside the mix: the walk's warm in-process side pass.
    for (template, p50) in walk.side_p50_ms.iter().enumerate() {
        values.entry(format!("tpl.{}.p50_ms", TEMPLATES[template].name)).or_insert(*p50);
    }
    values.extend(walk.metrics);
    let mut spans = real;
    spans.absorb(walk.tracer);
    spans
}

/// What a run hands to the printer.
struct Outcome {
    metrics: Values,
    attempted: u64,
    failed: u64,
    report: Json,
}

fn metric_json(values: &Values) -> Json {
    let units = metrics::units();
    Json::obj(values.iter().map(|(name, value)| {
        let unit = units.get(name).copied().unwrap_or("?");
        (name.clone(), Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]))
    }))
}

/// Pins this thread, and so everything the run starts, to one CPU when
/// requests cross threads (TCP): client and server then alternate on a core
/// that never idles. A machine that refuses is measured unpinned, and the
/// report says so.
fn pin(workload: &Workload) -> Option<sys::Pinned> {
    if workload.transport != workload::Transport::Tcp {
        return None;
    }
    sys::pin_to_one_cpu().map_err(|e| eprintln!("legobase_benchmark: not pinned: {e}")).ok()
}

fn run(workload: &Workload, args: &Args, cleared_env: &[&str]) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = pin(workload);
    let schedule = Schedule::new(workload, args.seed);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let archive = Archive(args.out.join(format!("{}-{}.lbca", workload.name, std::process::id())));
    let epoch = Instant::now();
    let calib_start = calibrate()?;

    let t = Instant::now();
    let line = spawn("verify", &[workload.name.to_string(), args.seed.to_string()])?;
    let verify_s = t.elapsed().as_secs_f64();
    let (verified, mismatched) =
        (answer(&line, "verified")? as u64, answer(&line, "mismatched")? as u64);

    // `setup_s` is the median of SETUP_REPS set-ups: all but one run in
    // children, the last one here, and its client is the one measured.
    let mut setups: Vec<Setup> = Vec::with_capacity(SETUP_REPS);
    let (mut attempted, mut failed) = (verified, mismatched);
    if !args.trace {
        for _ in 1..SETUP_REPS {
            let line = spawn(
                "setup",
                &[
                    workload.name.to_string(),
                    args.seed.to_string(),
                    archive.0.display().to_string(),
                ],
            )?;
            setups.push(Setup::parse(&line)?);
        }
    }
    let (backend, t0, setup) = start(workload, &archive.0)?;
    let t_warm = Instant::now();
    let mut client = Client::connect_and_warm(&backend, workload, &schedule)?;
    setups.push(warmed(setup, t0, t_warm));
    let measured = if args.trace {
        measure_traced(&backend, &mut client, &schedule, workload, args.seconds, epoch)?
    } else {
        // `--selftest-fault`: one damaged expectation and one damaged request
        // text; a run that still reports no failure has a broken checker.
        let fault = args.fault.then(|| {
            client.corrupt_expectation();
            schedule.texts.len() - 1
        });
        measure_end_to_end(&mut client, &schedule, workload, args.seconds, fault)?
    };
    attempted += client.attempted;
    failed += client.failed;
    let first_failure = client.first_failure.take();
    drop(client);
    backend.shutdown();
    let Measured { mut values, rows, traced } = measured;
    let last = setups.last().expect("at least one set-up");

    if let Some((real, hit_rates)) = traced {
        let walk = layers::walk(&archive.0, workload, &schedule, args.seed, nproc, epoch)?;
        let spans = add_layer_metrics(&mut values, real, hit_rates, walk, &schedule);
        values.insert("tpch.generate_s".into(), last.generate_s);
        values.insert("archive.write_s".into(), last.write_s);
        values.insert("setup.warmup_s".into(), last.warmup_s);
        let path = args.out.join(format!("{}.trace.json", workload.name));
        std::fs::write(&path, format!("{}\n", spans.to_json()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        let totals: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
        values.insert("setup_s".into(), stats::median(&totals).expect("at least one set-up"));
    }
    drop(archive);

    // Machine probes before and after: a drift of more than a tenth marks
    // the run noisy. It explains a number; it never gates one.
    let calib_end = calibrate()?;
    let drift = |a: f64, b: f64| (a - b).abs() / a;
    let noisy = drift(calib_start.spin_ms, calib_end.spin_ms) > 0.10
        || drift(calib_start.membw_gbps, calib_end.membw_gbps) > 0.10;
    if args.trace {
        values.insert("machine.spin_ms".into(), calib_end.spin_ms);
        values.insert("machine.membw_gbps".into(), calib_end.membw_gbps);
    }

    let report = Json::obj([
        ("workload", Json::str(workload.name)),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("scale_factor", Json::Num(workload.scale_factor)),
        ("clients", Json::Int(1)),
        ("nproc", Json::Int(nproc as i64)),
        ("pinned_cpu", pinned.as_ref().map_or(Json::Bool(false), |p| Json::Int(p.cpu as i64))),
        ("cleared_env", Json::Arr(cleared_env.iter().map(|n| Json::str(*n)).collect())),
        ("noisy", Json::Bool(noisy)),
        (
            "calibration",
            Json::obj([
                ("spin_ms_start", Json::Num(calib_start.spin_ms)),
                ("spin_ms_end", Json::Num(calib_end.spin_ms)),
                ("membw_gbps_start", Json::Num(calib_start.membw_gbps)),
                ("membw_gbps_end", Json::Num(calib_end.membw_gbps)),
            ]),
        ),
        ("setups", Json::Arr(setups.iter().map(Setup::to_json).collect())),
        ("verify_s", Json::Num(verify_s)),
        ("verify_texts", Json::Int(verified as i64)),
        ("verify_scale_factor", Json::Num(VERIFY_SF)),
        ("templates", Json::Arr(rows)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("failed_share", Json::Num(failed as f64 / attempted as f64)),
        ("first_failure", first_failure.map_or(Json::Bool(false), Json::Str)),
        ("metrics", metric_json(&values)),
    ]);

    // The result line carries exactly the metrics BENCHMARK.json names for
    // this mode; one that is missing or not a number is an error, never a
    // default.
    let wanted: Vec<String> = if args.trace {
        metrics::per_layer().into_iter().map(|m| m.0).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.0.to_string()).collect()
    };
    let mut result = Values::new();
    for name in wanted {
        match values.get(&name) {
            Some(v) if v.is_finite() => result.insert(name, *v),
            Some(v) => return Err(format!("metric {name} is {v}")),
            None => return Err(format!("metric {name} was not measured")),
        };
    }
    Ok(Outcome { metrics: result, attempted, failed, report })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Before any thread exists: numbers are of the defaults.
    let cleared_env = sys::clear_engine_env();

    if argv.first().map(String::as_str) == Some("--child") {
        let outcome = match argv.get(1).map(String::as_str) {
            Some("generate") => children::generate(&argv[2..]),
            Some("calibrate") => children::machine_probes(),
            Some("verify") => children::verify(&argv[2..]),
            Some("setup") => child_setup(&argv[2..]),
            _ => Err("unknown child role".to_string()),
        };
        if let Err(e) = outcome {
            eprintln!("legobase_benchmark child: {e}");
            std::process::exit(2);
        }
        return;
    }
    if argv.iter().any(|a| a == "--print-benchmark-json") {
        print!("{}", metrics::benchmark_json());
        return;
    }

    let args = parse_args(&argv);
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => vec![workload::find(name).unwrap_or_else(|| usage())],
        None => WORKLOADS.iter().collect(),
    };
    let mut any_failed = false;
    for workload in selected {
        match run(workload, &args, &cleared_env) {
            Ok(outcome) => {
                println!("{}", outcome.report);
                println!(
                    "{}",
                    Json::obj([
                        ("correct", Json::Bool(outcome.failed == 0)),
                        ("attempted", Json::Int(outcome.attempted as i64)),
                        ("failed", Json::Int(outcome.failed as i64)),
                        ("metrics", metric_json(&outcome.metrics)),
                    ])
                );
                any_failed |= outcome.failed > 0;
            }
            Err(e) => {
                eprintln!("legobase_benchmark {}: {e}", workload.name);
                std::process::exit(2);
            }
        }
    }
    if any_failed {
        std::process::exit(1);
    }
}
