//! Command-line options and the workload catalogue.

use std::path::PathBuf;
use std::time::Duration;

/// Which trace profile a workload replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The DFN (German research network) proxy workload.
    Dfn,
    /// The RTP (Regional Telecom Provider) proxy workload.
    Rtp,
}

impl Profile {
    /// Short lower-case name, used in file names.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Dfn => "dfn",
            Profile::Rtp => "rtp",
        }
    }
}

/// One benchmark workload: a set of `webcache` commands and the inputs
/// they run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `webcache simulate` for three policies on the text and wctb trace.
    Simulate,
    /// `webcache sweep` over the paper grid on the wctb trace.
    Sweep,
    /// `webcache serve` in serial mode with every observer, scraped.
    Serve,
    /// `webcache serve --shards 8 --clients 2`, scraped.
    ServeSharded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Simulate,
        Workload::Sweep,
        Workload::Serve,
        Workload::ServeSharded,
    ];

    /// The name given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Simulate => "simulate",
            Workload::Sweep => "sweep",
            Workload::Serve => "serve",
            Workload::ServeSharded => "serve-sharded",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The trace profile the workload replays.
    pub fn profile(self) -> Profile {
        match self {
            Workload::Simulate | Workload::Sweep => Profile::Dfn,
            Workload::Serve | Workload::ServeSharded => Profile::Rtp,
        }
    }

    /// Whether the workload needs the text `.wct` encoding besides wctb.
    pub fn needs_text(self) -> bool {
        self == Workload::Simulate
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Simulate => "webcache simulate, 3 policies x text/wctb on DFN 1/8: the one-shot path where decode and DenseTrace interning show next to serial replay",
            Workload::Sweep => "webcache sweep, paper grid (4 policies x 7 sizes) on DFN 1/8 wctb on all cores: batched core replay dominates, decode is negligible",
            Workload::Serve => "webcache serve on RTP 1/8, serial with every observer, scraped open-loop: observers take most of each pass",
            Workload::ServeSharded => "webcache serve --shards 8 --clients 2 on RTP 1/8, scraped: the only workload that measures shard routing and lock probes",
        }
    }

    /// The serve command's extra flags (empty for non-serve workloads).
    pub fn serve_flags(self) -> &'static [&'static str] {
        match self {
            Workload::ServeSharded => &["--shards", "8", "--clients", "2"],
            _ => &[],
        }
    }

    /// Replay passes per serve invocation, sized so that one invocation
    /// replays for about two seconds at 1/8 scale.
    pub fn serve_passes(self) -> u64 {
        match self {
            Workload::ServeSharded => 12,
            _ => 4,
        }
    }
}

/// How long one serve invocation may take to become ready, and then to
/// finish its passes (a few seconds at 1/8 scale), before it fails.
pub const SERVE_DEADLINE: Duration = Duration::from_secs(30);

/// The policy every serve invocation runs.
pub const SERVE_POLICY: &str = "gd*(p)";

/// The open-loop scraper's interval between `/metrics` requests. Not a
/// multiple of the server's 25 ms accept poll, so scrapes land at every
/// phase of it.
pub const SCRAPE_INTERVAL: Duration = Duration::from_millis(29);

/// The trace scale of the canary case, checked against the reference
/// digests on every run whatever the seed.
pub const CANARY_SCALE: u32 = 512;
/// The seed of the canary case.
pub const CANARY_SEED: u64 = 1;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the timed body runs.
    pub seconds: f64,
    /// Traced per-layer run instead of the untraced end-to-end run.
    pub trace: bool,
    /// Trace scale denominator (8 means 1/8 of the full workload).
    pub scale: u32,
    /// Reference digests file.
    pub golden: PathBuf,
    /// Rewrite the reference digests of this case instead of checking.
    pub record_golden: bool,
    /// Scratch directory for generated inputs (removed at exit).
    pub work_dir: PathBuf,
    /// Directory for the traced run's artefacts.
    pub out_dir: PathBuf,
    /// Internal: run the timed body in this (child) process.
    pub body: bool,
    /// Internal: requests per trace, passed from parent to child.
    pub requests: usize,
}

const USAGE: &str = "usage: perfbench --workload simulate|sweep|serve|serve-sharded \
--seed N --seconds S --trace 0|1 [--scale DENOM] [--golden FILE] [--record-golden] \
[--work-dir DIR] [--out-dir DIR]";

impl Options {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// A usage message for unknown, missing or malformed flags.
    pub fn parse(argv: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut opts = Options {
            workload: Workload::Simulate,
            seed: 0,
            seconds: 0.0,
            trace: false,
            scale: 8,
            golden: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/golden.tsv")),
            record_golden: false,
            work_dir: PathBuf::from(".perfbench-work"),
            out_dir: PathBuf::from("perfbench-out"),
            body: false,
            requests: 0,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--record-golden" => {
                    opts.record_golden = true;
                    continue;
                }
                "--body" => {
                    opts.body = true;
                    continue;
                }
                _ => {}
            }
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} expects a value\n{USAGE}"))?;
            let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--scale" => {
                    opts.scale = value.parse().map_err(|_| bad())?;
                    if opts.scale == 0 {
                        return Err(bad());
                    }
                }
                "--golden" => opts.golden = PathBuf::from(value),
                "--work-dir" => opts.work_dir = PathBuf::from(value),
                "--out-dir" => opts.out_dir = PathBuf::from(value),
                "--requests" => opts.requests = value.parse().map_err(|_| bad())?,
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        opts.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
        opts.seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
        opts.seconds = seconds.ok_or_else(|| format!("--seconds is required\n{USAGE}"))?;
        opts.trace = trace.unwrap_or(false);
        Ok(opts)
    }

    /// The argument list that re-creates these options in a child
    /// process running the timed body.
    pub fn child_args(&self, requests: usize) -> Vec<String> {
        let mut args: Vec<String> = [
            "--body",
            "--workload",
            self.workload.name(),
            "--seed",
            &self.seed.to_string(),
            "--seconds",
            &self.seconds.to_string(),
            "--scale",
            &self.scale.to_string(),
            "--requests",
            &requests.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.push("--work-dir".into());
        args.push(self.work_dir.display().to_string());
        args
    }
}
