//! The timed body of a run, executed in a child process so that its peak
//! RSS excludes input generation. It runs the workload's commands until
//! `--seconds` have passed, checks their outputs, then runs the canary
//! case, and reports to the parent in a line protocol on stdout.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use webcache_core::PolicyKind;
use webcache_sim::experiment::PAPER_SIZE_FRACTIONS;

use crate::golden::digest;
use crate::inputs::{self, Inputs};
use crate::options::{
    Options, Workload, CANARY_SCALE, CANARY_SEED, SCRAPE_INTERVAL, SERVE_DEADLINE,
};
use crate::serve_client::{self, Scrape, ServeSpec};
use crate::stats;

/// The policies `simulate` runs: list, heap and sketch-admission replay.
pub const SIMULATE_POLICIES: [&str; 3] = ["lru", "gd*(p)", "tinylfu+slru"];

/// What the body measured and checked.
#[derive(Debug, Default)]
pub struct BodyReport {
    /// Requests per second of each timed round.
    pub rounds: Vec<f64>,
    /// Host speed ([`stats::host_speed`]) measured before each round.
    pub speeds: Vec<f64>,
    /// Serve set-up samples (parse, load, bind) in seconds.
    pub serve_setup: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Why operations failed.
    pub failures: Vec<String>,
    /// Output digests of the run's case, by name.
    pub digests: Vec<(String, String)>,
    /// Output digests of the canary case, by name.
    pub canary: Vec<(String, String)>,
    /// Peak RSS of a timed round as a fresh process would see it, one
    /// per body process: the process's RSS before any work plus the
    /// median round's growth above its starting RSS, KiB.
    pub peak_rss_kib: Vec<u64>,
    /// Scrapes of the serve workloads.
    pub scrapes: Vec<Scrape>,
}

impl BodyReport {
    fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records `value` under `name`; a second, different value for the
    /// same name (nondeterministic output) is a failure.
    fn record_digest(&mut self, name: &str, value: String) {
        if let Err(why) = record(&mut self.digests, name, value) {
            self.fail(why);
        }
    }

    /// Folds the report of another body process of the same run into
    /// this one; their digests must agree.
    pub fn merge(&mut self, other: BodyReport) {
        self.rounds.extend(other.rounds);
        self.speeds.extend(other.speeds);
        self.serve_setup.extend(other.serve_setup);
        self.scrapes.extend(other.scrapes);
        self.peak_rss_kib.extend(other.peak_rss_kib);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        for (name, value) in other.digests {
            self.record_digest(&name, value);
        }
        for (name, value) in other.canary {
            if let Err(why) = record(&mut self.canary, &name, value) {
                self.fail(why);
            }
        }
    }

    /// Renders the line protocol read by [`BodyReport::parse`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rounds {
            out.push_str(&format!("round {r}\n"));
        }
        for r in &self.speeds {
            out.push_str(&format!("speed {r}\n"));
        }
        for s in &self.serve_setup {
            out.push_str(&format!("setup {s}\n"));
        }
        out.push_str(&format!("ops {} {}\n", self.attempted, self.failed));
        for f in &self.failures {
            out.push_str(&format!("fail {}\n", f.replace('\n', " ")));
        }
        for (n, d) in &self.digests {
            out.push_str(&format!("digest {n} {d}\n"));
        }
        for (n, d) in &self.canary {
            out.push_str(&format!("canary {n} {d}\n"));
        }
        for kib in &self.peak_rss_kib {
            out.push_str(&format!("rss_kib {kib}\n"));
        }
        for s in &self.scrapes {
            out.push_str(&format!(
                "scrape {} {} {} {} {} {}\n",
                s.late_ms, s.latency_ms, s.ttfb_ms, s.transfer_ms, s.bytes, s.ok
            ));
        }
        out
    }

    /// Parses [`BodyReport::render`]'s output.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line.
    pub fn parse(text: &str) -> Result<BodyReport, String> {
        let mut report = BodyReport::default();
        for line in text.lines() {
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("malformed body line `{line}`");
            let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
            let mut fields = rest.split(' ');
            let mut next = || fields.next().ok_or_else(bad);
            match kind {
                "round" => report.rounds.push(num(rest)?),
                "speed" => report.speeds.push(num(rest)?),
                "setup" => report.serve_setup.push(num(rest)?),
                "ops" => {
                    report.attempted = next()?.parse().map_err(|_| bad())?;
                    report.failed = next()?.parse().map_err(|_| bad())?;
                }
                "fail" => report.failures.push(rest.to_owned()),
                "digest" => report
                    .digests
                    .push((next()?.to_owned(), next()?.to_owned())),
                "canary" => report.canary.push((next()?.to_owned(), next()?.to_owned())),
                "rss_kib" => report.peak_rss_kib.push(rest.parse().map_err(|_| bad())?),
                "scrape" => report.scrapes.push(Scrape {
                    late_ms: num(next()?)?,
                    latency_ms: num(next()?)?,
                    ttfb_ms: num(next()?)?,
                    transfer_ms: num(next()?)?,
                    bytes: next()?.parse().map_err(|_| bad())?,
                    ok: next()? == "true",
                }),
                _ => return Err(bad()),
            }
        }
        Ok(report)
    }
}

/// Records `value` under `name` in `digests`; a different value already
/// recorded under that name is an error.
fn record(digests: &mut Vec<(String, String)>, name: &str, value: String) -> Result<(), String> {
    match digests.iter().find(|(n, _)| n == name) {
        Some((_, seen)) if *seen != value => Err(format!(
            "{name}: output changed between rounds ({seen} -> {value})"
        )),
        Some(_) => Ok(()),
        None => {
            digests.push((name.to_owned(), value));
            Ok(())
        }
    }
}

/// Runs one CLI command through `webcache_cli::run`, turning errors and
/// panics into messages.
pub fn run_cli(argv: &[String]) -> Result<String, String> {
    match std::panic::catch_unwind(|| webcache_cli::run(argv)) {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => Err(format!("`webcache {}`: {e}", argv.join(" "))),
        Err(_) => Err(format!("`webcache {}` panicked", argv.join(" "))),
    }
}

fn argv(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// The `simulate` commands: every policy on the text and wctb file,
/// named `simulate.<policy>.<format>`.
pub fn simulate_commands(inputs: &Inputs) -> Vec<(String, Vec<String>)> {
    let mut cmds = Vec::new();
    for policy in SIMULATE_POLICIES {
        let files = inputs
            .text
            .iter()
            .map(|p| ("text", p))
            .chain([("wctb", &inputs.wctb)]);
        for (format, path) in files {
            let path = path.display().to_string();
            cmds.push((
                format!("simulate.{policy}.{format}"),
                argv(&["simulate", "--trace", &path, "--policy", policy]),
            ));
        }
    }
    cmds
}

/// The `sweep` command: the default paper grid on the wctb file.
pub fn sweep_command(inputs: &Inputs) -> Vec<String> {
    argv(&["sweep", "--trace", &inputs.wctb.display().to_string()])
}

/// Grid cells of the default sweep.
pub fn sweep_cells() -> u64 {
    (PolicyKind::PAPER_CONSTANT.len() * PAPER_SIZE_FRACTIONS.len()) as u64
}

/// Runs the body for `opts` on `inputs` (the child process's work).
pub fn run(opts: &Options, inputs: &Inputs) -> BodyReport {
    let mut report = BodyReport::default();
    let budget = Duration::from_secs_f64(opts.seconds);
    let requests = inputs.facts.requests;
    let fresh_rss = stats::rss_kib().unwrap_or(0);
    let rounds;
    match opts.workload {
        Workload::Simulate => {
            let cmds = simulate_commands(inputs);
            rounds = timed_rounds(budget, |timed| {
                let started = Instant::now();
                for (name, cmd) in &cmds {
                    let out = run_cli(cmd);
                    report.op(out.as_ref().map(|_| ()).map_err(Clone::clone));
                    if let Ok(out) = out {
                        report.record_digest(name, digest(out.as_bytes()));
                    }
                }
                let rps = (cmds.len() * requests) as f64 / started.elapsed().as_secs_f64();
                if timed {
                    report.rounds.push(rps);
                }
            });
        }
        Workload::Sweep => {
            let cmd = sweep_command(inputs);
            let cells = sweep_cells();
            let mut last = None;
            rounds = timed_rounds(budget, |timed| {
                let started = Instant::now();
                let out = run_cli(&cmd);
                let elapsed = started.elapsed().as_secs_f64();
                report.attempted += cells;
                match out {
                    Ok(out) => {
                        report.record_digest("sweep", digest(out.as_bytes()));
                        last = Some(out);
                    }
                    Err(why) => {
                        report.failed += cells - 1;
                        report.fail(why);
                    }
                }
                if timed {
                    report.rounds.push(cells as f64 * requests as f64 / elapsed);
                }
            });
            // The LRU @ 5% cell is one of the cells counted above.
            if let Some(sweep) = last {
                if let Err(why) = sweep_matches_simulate(&sweep, inputs) {
                    report.fail(why);
                }
            }
        }
        Workload::Serve | Workload::ServeSharded => {
            let log = opts.work_dir.join("serve.log");
            let spec = ServeSpec {
                trace: &inputs.wctb,
                flags: opts.workload.serve_flags(),
                passes: opts.workload.serve_passes(),
                log: &log,
                scrape_interval: Some(SCRAPE_INTERVAL),
                deadline: SERVE_DEADLINE,
            };
            rounds = timed_rounds(budget, |timed| {
                let run = serve_once(&spec, requests, &mut report);
                if timed {
                    report.serve_setup.push(run.setup.as_secs_f64());
                    report
                        .rounds
                        .push(run.requests as f64 / run.body.as_secs_f64().max(1e-9));
                    report.scrapes.extend(run.scrapes);
                }
            });
        }
    }
    report.speeds = rounds.iter().map(|&(speed, _)| speed).collect();
    // A user runs each command in a fresh process; memory that earlier
    // rounds left with the allocator is not theirs to pay.
    let growth: Vec<f64> = rounds.iter().map(|&(_, kib)| kib as f64).collect();
    report
        .peak_rss_kib
        .push(fresh_rss + stats::median(&growth).unwrap_or(0.0) as u64);
    if opts.workload == Workload::Simulate {
        // Each command was counted as an operation; a disagreement fails
        // one of the pair.
        for check in formats_agree(&report.digests) {
            if let Err(why) = check {
                report.fail(why);
            }
        }
    }
    let canary = canary(opts, &mut report);
    report.canary = canary;
    report
}

/// Calls `round(false)` once to warm up (heap, page cache), then
/// `round(true)` until `budget` has passed (at least once). Warm-up
/// rounds are checked like the others but not timed. Returns, for each
/// timed round, the host speed measured just before it and its memory
/// growth: the round's peak RSS above the RSS it started from, in KiB.
fn timed_rounds(budget: Duration, mut round: impl FnMut(bool)) -> Vec<(f64, u64)> {
    round(false);
    let started = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let speed = stats::host_speed();
        stats::reset_peak_rss();
        let base = stats::rss_kib().unwrap_or(0);
        round(true);
        let peak = stats::peak_rss_kib().unwrap_or(0);
        rounds.push((speed, peak.saturating_sub(base)));
        if started.elapsed() >= budget {
            break;
        }
    }
    rounds
}

/// One serve invocation with its checks (see [`check_serve_run`]).
fn serve_once(
    spec: &ServeSpec<'_>,
    requests: usize,
    report: &mut BodyReport,
) -> serve_client::ServeRun {
    let (run, _) = serve_client::run(spec, None);
    check_serve_run(spec, requests, &run, report);
    run
}

/// Checks one serve invocation: its errors, passes and requests replayed
/// as `/healthz` reports them, each logged pass's `(requests, hit rate)`
/// (recorded as the `serve.pass` digest), and every scrape.
pub fn check_serve_run(
    spec: &ServeSpec<'_>,
    requests: usize,
    run: &serve_client::ServeRun,
    report: &mut BodyReport,
) {
    for why in &run.failures {
        report.fail(why.clone());
    }
    report.attempted += spec.passes;
    let expected = spec.passes * requests as u64;
    if run.passes != spec.passes || run.requests != expected {
        report.fail(format!(
            "serve replayed {} requests over {} passes, expected {expected} over {}",
            run.requests, run.passes, spec.passes
        ));
    }
    if run.pass_stats.len() as u64 != spec.passes {
        report.fail(format!(
            "serve logged {} passes, expected {}",
            run.pass_stats.len(),
            spec.passes
        ));
    }
    for (pass_requests, hit_rate) in &run.pass_stats {
        if *pass_requests != requests as u64 {
            report.fail(format!(
                "serve pass replayed {pass_requests} requests, trace has {requests}"
            ));
        }
        report.record_digest(
            "serve.pass",
            digest(format!("{pass_requests} {hit_rate}").as_bytes()),
        );
    }
    for scrape in &run.scrapes {
        report.op(if scrape.ok {
            Ok(())
        } else {
            Err("scrape of /metrics failed or was not 200".to_owned())
        });
    }
}

/// Cross-path check: for every policy, the `simulate` output on the text
/// file equals the one on the wctb file.
pub fn formats_agree(digests: &[(String, String)]) -> Vec<Result<(), String>> {
    let find = |name: String| digests.iter().find(|(n, _)| *n == name).map(|(_, d)| d);
    SIMULATE_POLICIES
        .iter()
        .map(|policy| {
            let text = find(format!("simulate.{policy}.text"));
            match (text, find(format!("simulate.{policy}.wctb"))) {
                (Some(text), Some(wctb)) if text == wctb => Ok(()),
                _ => Err(format!("simulate {policy}: text and wctb outputs differ")),
            }
        })
        .collect()
}

/// Runs `simulate --policy lru` on the wctb file and compares its table
/// with the LRU column of `sweep`'s output at the same capacity (5%), per
/// type, for hit rate and byte hit rate: batched against serial replay.
pub fn sweep_matches_simulate(sweep: &str, inputs: &Inputs) -> Result<(), String> {
    let path = inputs.wctb.display().to_string();
    let simulate = run_cli(&argv(&["simulate", "--trace", &path, "--policy", "lru"]))?;
    let title = simulate.lines().next().unwrap_or_default();
    let capacity = title
        .split_once(" @ ")
        .and_then(|(_, rest)| rest.split_once(" (warm-up"))
        .map(|(cap, _)| cap.trim().to_owned())
        .ok_or_else(|| format!("unexpected simulate title `{title}`"))?;
    let mut compared = 0;
    for line in simulate.lines().skip(3) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        if cols.len() < 6 {
            continue;
        }
        let n = cols.len();
        let scope = cols[..n - 5].join(" ");
        for (metric, value) in [("Hit Rate", cols[n - 3]), ("Byte Hit Rate", cols[n - 2])] {
            let Some(cell) = panel_cell(sweep, &format!("{scope}: {metric}"), &capacity, "LRU")
            else {
                continue;
            };
            if cell != value {
                return Err(format!(
                    "sweep LRU @ {capacity} {scope} {metric} = {cell}, simulate says {value}"
                ));
            }
            compared += 1;
        }
    }
    if compared < 6 {
        return Err(format!(
            "only {compared} sweep cells matched the simulate table"
        ));
    }
    Ok(())
}

/// The value in column `column`, row `row` of the sweep panel titled
/// `title`.
fn panel_cell(sweep: &str, title: &str, row: &str, column: &str) -> Option<String> {
    let mut lines = sweep.lines().skip_while(|l| l.trim() != title).skip(1);
    let header = lines.next()?;
    let col = header
        .split("  ")
        .map(str::trim)
        .filter(|h| !h.is_empty())
        .position(|h| h == column)?;
    lines
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .find(|l| l.starts_with(row) && l[row.len()..].starts_with(' '))
        .and_then(|l| {
            let values: Vec<&str> = l[row.len()..].split_whitespace().collect();
            values.get(col.checked_sub(1)?).map(|v| v.to_string())
        })
}

/// Runs the workload's commands once on the canary case (a small fixed
/// input) and returns their digests, checked against the reference on
/// every run whatever the seed.
fn canary(opts: &Options, report: &mut BodyReport) -> Vec<(String, String)> {
    let dir: PathBuf = opts.work_dir.join("canary");
    let prepared = inputs::prepare(opts.workload, CANARY_SCALE, CANARY_SEED, &dir, "canary");
    let inputs = match prepared {
        Ok((inputs, _)) => inputs,
        Err(e) => {
            report.fail(format!("canary inputs: {e}"));
            return Vec::new();
        }
    };
    let mut canary = BodyReport::default();
    match opts.workload {
        Workload::Simulate => {
            for (name, cmd) in simulate_commands(&inputs) {
                match run_cli(&cmd) {
                    Ok(out) => canary.record_digest(&name, digest(out.as_bytes())),
                    Err(why) => canary.fail(why),
                }
            }
        }
        Workload::Sweep => match run_cli(&sweep_command(&inputs)) {
            Ok(out) => canary.record_digest("sweep", digest(out.as_bytes())),
            Err(why) => canary.fail(why),
        },
        Workload::Serve | Workload::ServeSharded => {
            let log = dir.join("serve.log");
            let spec = ServeSpec {
                trace: &inputs.wctb,
                flags: opts.workload.serve_flags(),
                passes: 2,
                log: &log,
                scrape_interval: None,
                deadline: SERVE_DEADLINE,
            };
            serve_once(&spec, inputs.facts.requests, &mut canary);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    report.attempted += 1;
    if canary.failed > 0 {
        report.fail(format!("canary case: {}", canary.failures.join("; ")));
    }
    canary.digests
}

/// Where the child expects the parent's inputs.
pub fn input_paths(opts: &Options) -> (Option<PathBuf>, PathBuf) {
    inputs::paths(Path::new(&opts.work_dir), opts.workload, "run")
}
