//! End-to-end benchmark of the `webcache` CLI: `simulate`, `sweep` and
//! `serve` at 1/8 trace scale, with a separate traced run that times
//! each layer from outside. See `README.md` in this directory.
//!
//! The untraced run generates the workload's inputs from `--seed` (timed
//! several times: `setup_s`), then runs the timed body in child processes
//! of this same executable so that `peak_rss_mb` excludes generation,
//! checks the outputs against the reference digests, and prints the
//! result line.

pub mod body;
pub mod golden;
pub mod inputs;
pub mod options;
pub mod report;
pub mod serve_client;
pub mod stats;
pub mod traced;

use std::path::Path;
use std::process::{Command, Stdio};

use golden::{Case, Golden};
use inputs::Inputs;
use options::{Options, Workload, CANARY_SCALE, CANARY_SEED, SCRAPE_INTERVAL};
use report::{result_line, Metrics};

/// Input generations timed per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;

/// Processes the timed body is split over, each with an equal share of
/// `--seconds`. The same build runs at different speeds in different
/// processes (memory layout; measured: serve rounds at 0.85 M req/s in
/// one process and 1.2 M in another at equal host speed), so a run
/// samples several.
pub const BODY_PROCESSES: usize = 2;

/// Runs the benchmark for the command line `argv` (without the program
/// name) and returns the process exit code.
pub fn main_entry(argv: &[String]) -> i32 {
    let opts = match Options::parse(argv) {
        Ok(opts) => opts,
        Err(usage) => {
            eprintln!("{usage}");
            return 2;
        }
    };
    if opts.body {
        return child_main(&opts);
    }
    let base = opts.work_dir.clone();
    let opts = Options {
        work_dir: base.join(format!(
            "{}-{}-{}",
            opts.workload.name(),
            opts.seed,
            std::process::id()
        )),
        ..opts
    };
    let outcome = if opts.trace {
        traced::run(&opts)
    } else {
        untraced(&opts)
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    // Fails, as it should, while another run still uses the directory.
    let _ = std::fs::remove_dir(&base);
    match outcome {
        Ok(mut outcome) => {
            for m in &outcome.metrics.0 {
                if !m.value.is_finite() {
                    outcome.failed += 1;
                    outcome.failures.push(format!("{} is not finite", m.name));
                }
            }
            for why in &outcome.failures {
                eprintln!("FAILED: {why}");
            }
            println!(
                "{}",
                result_line(
                    outcome.failed == 0,
                    outcome.attempted.max(1),
                    outcome.failed,
                    &outcome.metrics
                )
            );
            if outcome.failed == 0 {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    }
}

/// A finished run: its metrics and operation counts.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Printed metrics.
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Why they failed.
    pub failures: Vec<String>,
}

/// The untraced end-to-end run.
fn untraced(opts: &Options) -> Result<Outcome, String> {
    // Set-up time in nominal-host seconds: each generation is paired
    // with a host-speed measurement taken just before it.
    let mut setup_samples = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let speed = stats::host_speed();
        let (inputs, seconds) =
            inputs::prepare(opts.workload, opts.scale, opts.seed, &opts.work_dir, "run")
                .map_err(|e| format!("generating inputs: {e}"))?;
        setup_samples.push(stats::nominal_seconds(seconds, speed));
        prepared = Some(inputs);
    }
    let inputs = prepared.expect("SETUP_REPS is positive");
    eprintln!("perfbench: {}", context_json(opts, &inputs));

    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let part = Options {
        seconds: opts.seconds / BODY_PROCESSES as f64,
        ..opts.clone()
    };
    let mut body = body::BodyReport::default();
    for _ in 0..BODY_PROCESSES {
        // glibc raises its mmap threshold after a large buffer is freed,
        // and from then on keeps such buffers in its heaps. Over many
        // rounds in one process that makes each round's peak RSS depend
        // on what earlier rounds left behind (measured: 78-119 MB for one
        // serve workload). A fixed threshold returns every large buffer
        // when it is freed, as in the fresh process a user runs.
        let child = Command::new(&exe)
            .env("MALLOC_MMAP_THRESHOLD_", "131072")
            .args(part.child_args(inputs.facts.requests))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a body process: {e}"))?;
        let text = String::from_utf8_lossy(&child.stdout);
        body.merge(body::BodyReport::parse(&text)?);
        if !child.status.success() {
            return Err(format!("body process exited with {}", child.status));
        }
    }

    let mut outcome = Outcome {
        attempted: body.attempted,
        failed: body.failed,
        failures: body.failures.clone(),
        ..Outcome::default()
    };
    let golden_failures = check_golden(opts, &body)?;
    outcome.attempted += 1;
    if !golden_failures.is_empty() {
        outcome.failed += 1;
        outcome.failures.extend(golden_failures);
    }

    // Rates and times of each round are scaled to the nominal host by the
    // host speed measured just before the round.
    let paired = |values: &[f64], scale: fn(f64, f64) -> f64| -> Vec<f64> {
        (values.iter().zip(&body.speeds))
            .map(|(&value, &speed)| scale(value, speed))
            .collect()
    };
    let rates = paired(&body.rounds, stats::nominal_rate);
    let serve_setup = paired(&body.serve_setup, stats::nominal_seconds);
    let setup =
        stats::median(&setup_samples).unwrap_or(0.0) + stats::median(&serve_setup).unwrap_or(0.0);
    let rps = stats::median(&rates).unwrap_or(0.0);
    outcome.metrics.push("setup_s", "s", setup);
    outcome.metrics.push("requests_per_s", "1/s", rps);
    let peaks: Vec<f64> = body.peak_rss_kib.iter().map(|&kib| kib as f64).collect();
    let peak_kib = stats::median(&peaks).unwrap_or(0.0);
    outcome.metrics.push("peak_rss_mb", "MB", peak_kib / 1024.0);

    let rounded = |v: &[f64]| v.iter().map(|r| r.round()).collect::<Vec<_>>();
    eprintln!(
        "perfbench: {} rounds; requests/s as measured {:?}, host speed {:?}, \
         nominal-host median {rps:.0}",
        body.rounds.len(),
        rounded(&body.rounds),
        rounded(&body.speeds),
    );
    if !body.scrapes.is_empty() {
        let latencies: Vec<f64> = body.scrapes.iter().map(|s| s.latency_ms).collect();
        let late: Vec<f64> = body.scrapes.iter().map(|s| s.late_ms).collect();
        eprintln!(
            "perfbench: {} scrapes every {:?}: p50 {:.3} ms, p95 {:.3} ms, scraper late p95 {:.3} ms",
            latencies.len(),
            SCRAPE_INTERVAL,
            stats::median(&latencies).unwrap_or(0.0),
            stats::quantile(&latencies, 0.95).unwrap_or(0.0),
            stats::quantile(&late, 0.95).unwrap_or(0.0),
        );
    }
    Ok(outcome)
}

/// Compares the body's digests with the reference file: the canary case
/// always, the run's own case when the file has it. With
/// `--record-golden`, rewrites both instead.
fn check_golden(opts: &Options, body: &body::BodyReport) -> Result<Vec<String>, String> {
    let mut golden = Golden::load(&opts.golden)?;
    let own: Case = (opts.workload.name().to_owned(), opts.scale, opts.seed);
    let canary: Case = (opts.workload.name().to_owned(), CANARY_SCALE, CANARY_SEED);
    if opts.record_golden {
        if body.failed > 0 {
            return Err("refusing to record digests of a failed run".to_owned());
        }
        golden.record(&own, &body.digests);
        golden.record(&canary, &body.canary);
        golden
            .save(&opts.golden)
            .map_err(|e| format!("writing {}: {e}", opts.golden.display()))?;
        return Ok(Vec::new());
    }
    let mut failures = golden.check(&canary, &body.canary);
    if body.canary.is_empty() {
        failures.push("the canary case produced no digests".to_owned());
    }
    if golden.has_case(&own) {
        failures.extend(golden.check(&own, &body.digests));
    } else {
        eprintln!(
            "perfbench: no reference digests for {} 1/{} seed {}; checked the canary case",
            own.0, own.1, own.2
        );
    }
    Ok(failures)
}

/// The run context as a JSON object.
pub fn context_json(opts: &Options, inputs: &Inputs) -> String {
    let f = &inputs.facts;
    // The traced run scrapes on every workload, the untraced run only on
    // the serve workloads.
    let scrapes = opts.trace || matches!(opts.workload, Workload::Serve | Workload::ServeSharded);
    let scrape = if scrapes {
        format!("{:.3}", 1.0 / SCRAPE_INTERVAL.as_secs_f64())
    } else {
        "null".to_owned()
    };
    format!(
        "{{\"workload\": \"{}\", \"why\": \"{}\", \"seed\": {}, \"scale\": \"1/{}\", \
         \"trace\": \"{}\", \"requests\": {}, \"distinct_documents\": {}, \
         \"requested_bytes\": {}, \"overall_bytes\": {}, \"text_bytes\": {}, \
         \"wctb_bytes\": {}, \"nproc\": {}, \"scrapes_per_s\": {scrape}}}",
        opts.workload.name(),
        opts.workload.why(),
        opts.seed,
        opts.scale,
        opts.workload.profile().name(),
        f.requests,
        f.distinct,
        f.requested_bytes,
        f.overall_bytes,
        f.text_bytes
            .map_or_else(|| "null".to_owned(), |b| b.to_string()),
        f.wctb_bytes,
        stats::nproc(),
    )
}

/// The child process: run the body on the parent's inputs and report.
fn child_main(opts: &Options) -> i32 {
    let (text, wctb) = body::input_paths(opts);
    let inputs = Inputs {
        text,
        wctb,
        facts: inputs::TraceFacts {
            requests: opts.requests,
            ..Default::default()
        },
    };
    if !Path::new(&inputs.wctb).exists() || opts.requests == 0 {
        eprintln!("perfbench: the body process needs the parent's inputs");
        return 2;
    }
    let report = body::run(opts, &inputs);
    print!("{}", report.render());
    0
}
