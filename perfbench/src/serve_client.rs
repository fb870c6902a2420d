//! Drives one `webcache serve` invocation through the CLI's public entry
//! points (`ServeOptions::from_args` + `serve_with`), scrapes `/metrics`
//! on an open-loop schedule, and detects the end of the replay passes.
//!
//! The end is `passes == N` on `/healthz`. The daemon's status starts as
//! `replaying: false, passes: 0`, so waiting for `replaying == false`
//! would return before the first pass has run.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use webcache_cli::{serve_with, Args, CliError, ServeOptions};
use webcache_obs::TraceRecorder;

use crate::options::SERVE_POLICY;

/// Per-request socket timeout; a scrape slower than this fails.
pub const HTTP_TIMEOUT: Duration = Duration::from_secs(5);

/// One HTTP response with its timing.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// From connecting until the first response byte arrived.
    pub ttfb: Duration,
    /// From connecting until the server closed the connection.
    pub total: Duration,
}

/// One `GET` over a fresh connection (`Connection: close`).
///
/// # Errors
///
/// Connection, timeout and read failures, and unparsable status lines.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    let started = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, HTTP_TIMEOUT)?;
    stream.set_read_timeout(Some(HTTP_TIMEOUT))?;
    stream.set_write_timeout(Some(HTTP_TIMEOUT))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::with_capacity(64 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut ttfb = None;
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        ttfb.get_or_insert_with(|| started.elapsed());
        raw.extend_from_slice(&chunk[..n]);
    }
    let total = started.elapsed();
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(bad)?;
    Ok(Response {
        status,
        body: raw[head_end + 4..].to_vec(),
        ttfb: ttfb.unwrap_or(total),
        total,
    })
}

/// The raw text of a top-level scalar field (`"key": value`) in a flat
/// JSON object or JSONL record.
pub fn json_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = text.find(&pattern)? + pattern.len();
    let rest = text[start..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Whether a `/healthz` body reports at least `passes` completed passes.
/// Deliberately ignores `replaying`, which reads `false` before the
/// first pass starts.
pub fn passes_reached(healthz: &str, passes: u64) -> bool {
    json_field(healthz, "passes")
        .and_then(|v| v.parse::<u64>().ok())
        .is_some_and(|done| done >= passes)
}

/// One timed scrape of `/metrics`.
#[derive(Debug, Clone, Copy)]
pub struct Scrape {
    /// How late the scraper started the request after it was due.
    pub late_ms: f64,
    /// From when the scrape was due until the response was complete.
    pub latency_ms: f64,
    /// From connecting until the first response byte.
    pub ttfb_ms: f64,
    /// From the first response byte until the connection closed.
    pub transfer_ms: f64,
    /// Response body size.
    pub bytes: usize,
    /// Whether the scrape returned 200 within the timeout.
    pub ok: bool,
}

/// What one serve invocation did.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Option parsing, trace load and bind, until `on_ready`.
    pub setup: Duration,
    /// From `on_ready` until `/healthz` reported every pass done.
    pub body: Duration,
    /// Completed passes, as reported by `/healthz`.
    pub passes: u64,
    /// Requests replayed, as reported by `/healthz`.
    pub requests: u64,
    /// `(requests, hit rate)` of each pass, from the daemon's log.
    pub pass_stats: Vec<(u64, String)>,
    /// The open-loop scrapes.
    pub scrapes: Vec<Scrape>,
    /// `serve_with`'s summary line.
    pub summary: String,
    /// Failures (errors, timeouts, bad replies).
    pub failures: Vec<String>,
}

/// One serve invocation's settings.
#[derive(Debug, Clone)]
pub struct ServeSpec<'a> {
    /// The trace file served.
    pub trace: &'a Path,
    /// Extra flags (`--shards 8 --clients 2`).
    pub flags: &'a [&'a str],
    /// `--passes N`.
    pub passes: u64,
    /// `--log-file`; removed after the pass records are read.
    pub log: &'a Path,
    /// Open-loop scrape interval; `None` runs no scraper.
    pub scrape_interval: Option<std::time::Duration>,
    /// Give up on the passes after this long.
    pub deadline: Duration,
}

impl ServeSpec<'_> {
    /// The `webcache serve` argument list (without the subcommand).
    pub fn argv(&self) -> Vec<String> {
        let mut argv: Vec<String> = [
            "--trace",
            &self.trace.display().to_string(),
            "--policy",
            SERVE_POLICY,
            "--passes",
            &self.passes.to_string(),
            "--port",
            "0",
            "--log-file",
            &self.log.display().to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        argv.extend(self.flags.iter().map(|s| s.to_string()));
        argv
    }
}

/// Runs one serve invocation to `spec.passes` passes, scraping
/// `/metrics` meanwhile; `scrape_track` (if any) gets one span per
/// scrape and is handed back.
pub fn run(
    spec: &ServeSpec<'_>,
    scrape_track: Option<TraceRecorder>,
) -> (ServeRun, Option<TraceRecorder>) {
    let mut run = ServeRun::default();
    let _ = std::fs::remove_file(spec.log);
    let started = Instant::now();
    let opts = Args::parse(&spec.argv(), &["quick"])
        .map_err(CliError::from)
        .and_then(|args| ServeOptions::from_args(&args));
    let opts = match opts {
        Ok(opts) => opts,
        Err(e) => {
            run.failures.push(format!("serve options: {e}"));
            return (run, scrape_track);
        }
    };
    let shutdown = AtomicBool::new(false);
    let (ready_tx, ready_rx) = mpsc::channel();
    let mut track = scrape_track;
    std::thread::scope(|scope| {
        let shutdown = &shutdown;
        let server = scope.spawn(move || {
            serve_with(opts, shutdown, move |addr| {
                let _ = ready_tx.send((addr, Instant::now()));
            })
        });
        match ready_rx.recv_timeout(spec.deadline) {
            Ok((addr, ready_at)) => {
                run.setup = ready_at - started;
                drive(spec, addr, ready_at, &mut run, &mut track);
            }
            Err(_) => run.failures.push("serve never became ready".to_owned()),
        }
        shutdown.store(true, Ordering::SeqCst);
        match server.join() {
            Ok(Ok(summary)) => run.summary = summary,
            Ok(Err(e)) => run.failures.push(format!("serve: {e}")),
            Err(_) => run.failures.push("serve panicked".to_owned()),
        }
    });
    match std::fs::read_to_string(spec.log) {
        Ok(log) => {
            run.pass_stats = log
                .lines()
                .filter(|l| json_field(l, "msg") == Some("\"pass complete\""))
                .filter_map(|l| {
                    let requests = json_field(l, "requests")?.parse().ok()?;
                    Some((requests, json_field(l, "hit_rate")?.to_owned()))
                })
                .collect();
            let _ = std::fs::remove_file(spec.log);
        }
        Err(e) => run.failures.push(format!("serve log: {e}")),
    }
    (run, track)
}

/// The body of one invocation: scrape until the passes are done.
fn drive(
    spec: &ServeSpec<'_>,
    addr: SocketAddr,
    ready_at: Instant,
    run: &mut ServeRun,
    track: &mut Option<TraceRecorder>,
) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|inner| {
        let stop = &stop;
        let scraper = spec.scrape_interval.map(|interval| {
            let mut track = track.take();
            inner.spawn(move || {
                let scrapes = scrape_loop(addr, interval, stop, track.as_mut());
                (scrapes, track)
            })
        });
        loop {
            match get(addr, "/healthz") {
                Ok(resp) if resp.status == 200 => {
                    let body = String::from_utf8_lossy(&resp.body);
                    if passes_reached(&body, spec.passes) {
                        run.body = ready_at.elapsed();
                        run.passes = json_field(&body, "passes")
                            .and_then(|v| v.parse().ok())
                            .unwrap_or(0);
                        run.requests = json_field(&body, "requests_replayed")
                            .and_then(|v| v.parse().ok())
                            .unwrap_or(0);
                        break;
                    }
                }
                Ok(resp) => run
                    .failures
                    .push(format!("/healthz answered {}", resp.status)),
                Err(e) => run.failures.push(format!("/healthz: {e}")),
            }
            if ready_at.elapsed() > spec.deadline || run.failures.len() > 3 {
                run.failures
                    .push(format!("passes not done within {:?}", spec.deadline));
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        if let Some(handle) = scraper {
            match handle.join() {
                Ok((scrapes, back)) => {
                    run.scrapes = scrapes;
                    *track = back;
                }
                Err(_) => run.failures.push("scraper panicked".to_owned()),
            }
        }
    });
}

/// Open-loop scraper: request `k` is due at `start + k * interval`
/// whatever happened to earlier requests, and is timed from then.
fn scrape_loop(
    addr: SocketAddr,
    interval: Duration,
    stop: &AtomicBool,
    mut track: Option<&mut TraceRecorder>,
) -> Vec<Scrape> {
    let start = Instant::now();
    let mut scrapes = Vec::new();
    for k in 0u32.. {
        let due = start + interval * k;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let begin = Instant::now();
        if let Some(t) = track.as_deref_mut() {
            t.begin("obs:scrape /metrics");
        }
        let result = get(addr, "/metrics");
        if let Some(t) = track.as_deref_mut() {
            t.end();
        }
        let done = Instant::now();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let (ok, ttfb, transfer, bytes) = match &result {
            Ok(r) => (r.status == 200, r.ttfb, r.total - r.ttfb, r.body.len()),
            Err(_) => (false, done - begin, Duration::ZERO, 0),
        };
        scrapes.push(Scrape {
            late_ms: ms(begin - due),
            latency_ms: ms(done - due),
            ttfb_ms: ms(ttfb),
            transfer_ms: ms(transfer),
            bytes,
            ok,
        });
    }
    scrapes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_healthz_state_is_not_done() {
        let initial = "{\"status\": \"ok\", \"replaying\": false, \"passes\": 0, \
                       \"requests_replayed\": 0}";
        assert!(!passes_reached(initial, 1));
        let midway = "{\"replaying\": true, \"passes\": 2, \"requests_replayed\": 10}";
        assert!(!passes_reached(midway, 3));
        let done = "{\"replaying\": false, \"passes\": 3, \"requests_replayed\": 15}";
        assert!(passes_reached(done, 3));
    }

    #[test]
    fn json_field_reads_flat_records() {
        let line = "{\"ts_ms\":1,\"msg\":\"pass complete\",\"requests\":518110,\"hit_rate\":0.4}";
        assert_eq!(json_field(line, "requests"), Some("518110"));
        assert_eq!(json_field(line, "hit_rate"), Some("0.4"));
        assert_eq!(json_field(line, "msg"), Some("\"pass complete\""));
        assert_eq!(json_field(line, "missing"), None);
    }
}
