//! The traced run: times each layer from outside.
//!
//! Every stage is one call into a layer's public function, wrapped in a
//! `TraceRecorder` span named `<layer>:<what>` on the `layers` track.
//! The layers are the workspace crates: `workload`, `trace`, `core`,
//! `sim`, `obs` and `cli`. Sweep cells appear on per-worker tracks and
//! scrapes on a `scraper` track. The spans are exported as chrome-trace
//! JSON (loads in Perfetto).
//!
//! The suite is the same on every workload and runs on the workload's
//! own trace profile, so every per-layer metric is reported on every
//! workload:
//!
//! 1. generate, encode and decode the inputs, intern the dense view;
//! 2. the real CLI commands (`simulate` x6, `sweep`, `serve` with the
//!    open-loop scraper), each in a `cli:` span;
//! 3. the layers those commands call, one by one: serial replay,
//!    instrumented replay, shard routing and sharded replay, each serve
//!    observer against the no-op observer, the parallel sweep, report
//!    rendering and the metrics exposition.
//!
//! After the traced suite, the workload's own commands run once more
//! without spans; the difference in requests per second is the tracing
//! overhead.

use std::fs;
use std::time::Instant;

use webcache_core::{PolicyKind, PolicySpec, ShardLockProbe};
use webcache_obs::{
    chrome_trace_json, FlightSink, Level, Logger, PolicyProbe, ReasonChannel, Registry,
    SharedRecorder, TraceClock, TraceRecorder,
};
use webcache_sim::latency_obs::DEFAULT_LATENCY_WINDOWS;
use webcache_sim::report::figure_panel;
use webcache_sim::{
    AnomalyConfig, AnomalyObserver, CacheSizeSweep, ConcurrentSimulator, FlightObserver,
    LatencyModel, LatencyObserver, LogObserver, Metric, NoopObserver, Observer, ProfileObserver,
    RegretConfig, RegretTracker, ShardedTrace, SimulationConfig, Simulator, SloConfig, SloTracker,
};
use webcache_trace::{format as text_format, format_bin, ByteSize, DenseTrace, DocumentType};

use crate::body::{self, run_cli, BodyReport, SIMULATE_POLICIES};
use crate::golden::{digest, Golden};
use crate::inputs::{self, Inputs, TraceFacts};
use crate::options::{Options, Workload, SCRAPE_INTERVAL, SERVE_DEADLINE, SERVE_POLICY};
use crate::report::Metrics;
use crate::serve_client::{self, ServeSpec};
use crate::{stats, Outcome};
use webcache_cli::serve::DEFAULT_FLIGHT_CAPACITY;

/// The layers, in report order.
pub const LAYERS: [&str; 6] = ["workload", "trace", "core", "sim", "obs", "cli"];

/// Policies whose replay is instrumented (heap sift steps for the heap
/// policies, evictions for all).
const INSTRUMENTED: [&str; 6] = [
    "lru",
    "gd*(p)",
    "tinylfu+slru",
    "lfu-da",
    "gds(1)",
    "gd*(1)",
];

/// Heap-backed policies among [`INSTRUMENTED`].
const HEAP_POLICIES: [&str; 4] = ["gd*(p)", "lfu-da", "gds(1)", "gd*(1)"];

/// The serve observers timed one by one.
const OBSERVERS: [&str; 8] = [
    "flight", "regret", "profile", "anomaly", "log", "latency", "slo", "all",
];

/// Shards and clients of the sharded replay stage.
const SHARDS: usize = 8;
const CLIENTS: usize = 2;

/// Turns a policy spec into a metric-name component (`gd*(p)` ->
/// `gdstar-p`, `tinylfu+slru` -> `tinylfu-slru`).
pub fn metric_policy(spec: &str) -> String {
    let mut out = String::new();
    for c in spec.chars() {
        match c {
            '*' => out.push_str("star"),
            '(' | '+' => out.push('-'),
            ')' => {}
            c => out.push(c),
        }
    }
    out
}

/// Every per-layer metric name with its unit, in print order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = vec![
        ("workload.generate_ns_per_req".into(), "ns"),
        ("trace.encode_text_ns_per_req".into(), "ns"),
        ("trace.encode_wctb_ns_per_req".into(), "ns"),
        ("trace.decode_text_ns_per_req".into(), "ns"),
        ("trace.decode_wctb_ns_per_req".into(), "ns"),
        ("trace.intern_ns_per_req".into(), "ns"),
        ("trace.input_bytes_per_req.text".into(), "count"),
        ("trace.input_bytes_per_req.wctb".into(), "count"),
    ];
    for p in SIMULATE_POLICIES {
        names.push((format!("core.replay_ns_per_req.{}", metric_policy(p)), "ns"));
    }
    for p in PolicyKind::PAPER_CONSTANT {
        let label = metric_policy(&PolicySpec::from(p).to_string().to_lowercase());
        names.push((format!("core.replay_batched_ns_per_req.{label}"), "ns"));
    }
    for p in HEAP_POLICIES {
        names.push((
            format!("core.heap_sift_steps_per_req.{}", metric_policy(p)),
            "count",
        ));
    }
    for p in INSTRUMENTED {
        names.push((
            format!("core.evictions_per_req.{}", metric_policy(p)),
            "count",
        ));
    }
    names.extend([
        ("sim.route_ns_per_req".into(), "ns"),
        ("sim.sharded_replay_ns_per_req".into(), "ns"),
        ("sim.shard_lock_contention".into(), "share"),
        ("sim.shard_lock_wait_ns_per_req".into(), "ns"),
        ("sim.shard_request_imbalance".into(), "ratio"),
    ]);
    for o in OBSERVERS {
        names.push((format!("sim.observer_ns_per_req.{o}"), "ns"));
    }
    names.extend([
        ("sim.flight_records_per_req".into(), "count"),
        ("sim.sweep_cell_ns_per_req.median".into(), "ns"),
        ("sim.sweep_cell_ns_per_req.max".into(), "ns"),
        ("sim.sweep_worker_idle_share".into(), "share"),
        ("sim.report_render_ms".into(), "ms"),
        ("obs.metrics_render_ms".into(), "ms"),
        ("obs.scrape_body_bytes".into(), "count"),
        ("obs.scrape_ttfb_ms".into(), "ms"),
        ("obs.scrape_transfer_ms".into(), "ms"),
        ("obs.scrape_p50_ms".into(), "ms"),
        ("obs.scrape_p95_ms".into(), "ms"),
        ("obs.scraper_late_ms".into(), "ms"),
        ("cli.self_ms.simulate".into(), "ms"),
        ("cli.self_ms.sweep".into(), "ms"),
    ]);
    for layer in LAYERS {
        names.push((format!("layer.self_ms.{layer}"), "ms"));
    }
    names.extend([
        ("bench.traced_wall_ms".into(), "ms"),
        ("bench.self_time_coverage".into(), "share"),
        ("bench.tracing_overhead_rps".into(), "1/s"),
        ("bench.host_speed".into(), "1/s"),
    ]);
    names
}

/// Records spans and counts the suite's operations.
struct Suite {
    track: TraceRecorder,
    values: Vec<(String, f64)>,
    checks: BodyReport,
    /// Time moved between layers where one span holds two layers' work
    /// (see [`Suite::attribution`]), in ns: `(from, to, ns)`.
    moves: Vec<(&'static str, &'static str, f64)>,
}

impl Suite {
    /// Runs `f` inside the span `name`, returning its result and wall
    /// time in ns.
    fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        self.track.begin(name);
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as f64;
        self.track.end();
        (out, ns)
    }

    fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.push((name.into(), value));
    }

    fn check(&mut self, result: Result<(), String>) {
        self.checks.attempted += 1;
        if let Err(why) = result {
            self.checks.failed += 1;
            self.checks.failures.push(why);
        }
    }

    /// Self time per layer on the `layers` track, in ns, after the
    /// recorded moves. Layer spans do not nest (only the root holds
    /// them), so a span's self time is its duration. Returns the
    /// per-layer totals and the root span's duration.
    fn attribution(&self) -> (Vec<(&'static str, f64)>, f64) {
        let events = self.track.events();
        let root = events
            .iter()
            .find(|e| e.name == ROOT)
            .map_or(0.0, |e| e.dur_us as f64 * 1e3);
        let mut totals: Vec<(&'static str, f64)> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
        for e in events {
            let Some(layer) = e.name.split_once(':').map(|(l, _)| l) else {
                continue;
            };
            if let Some(slot) = totals.iter_mut().find(|(l, _)| *l == layer) {
                slot.1 += e.dur_us as f64 * 1e3;
            }
        }
        for &(from, to, ns) in &self.moves {
            for (layer, total) in totals.iter_mut() {
                if *layer == from {
                    *total -= ns;
                } else if *layer == to {
                    *total += ns;
                }
            }
        }
        (totals, root)
    }
}

/// The root span's name (not a layer).
const ROOT: &str = "traced suite";

/// Runs the traced suite for `opts` and returns the per-layer metrics.
///
/// # Errors
///
/// File-system errors on the work or output directory.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    fs::create_dir_all(&opts.work_dir).map_err(|e| io("work dir", e))?;
    fs::create_dir_all(&opts.out_dir).map_err(|e| io("out dir", e))?;
    let clock = TraceClock::new();
    let mut suite = Suite {
        track: TraceRecorder::new(&clock, 0, "layers"),
        values: Vec::new(),
        checks: BodyReport::default(),
        moves: Vec::new(),
    };
    let workload = opts.workload;
    let profile = workload.profile();
    let (text_path, wctb_path) = {
        let dir = &opts.work_dir;
        (
            dir.join(format!("{}-traced.wct", profile.name())),
            dir.join(format!("{}-traced.wctb", profile.name())),
        )
    };
    let mut tracks: Vec<TraceRecorder> = Vec::new();

    // The per-layer times are as measured; the host's speed gives them
    // context (see `stats::host_speed`).
    let host_speed = stats::host_speed();
    suite.set("bench.host_speed", host_speed);
    suite.track.begin(ROOT);
    let root_started = Instant::now();

    // 1. Inputs: generate, encode, decode, intern.
    let (trace, gen_ns) = suite.span("workload:generate", || {
        inputs::generate(profile, opts.scale, opts.seed)
    });
    let n = trace.len() as f64;
    let (text, enc_text_ns) = suite.span("trace:encode_text", || inputs::encode_text(&trace));
    let text = text.map_err(|e| io("encoding text", e))?;
    let (wctb, enc_wctb_ns) = suite.span("trace:encode_wctb", || format_bin::to_bytes(&trace));
    fs::write(&text_path, &text).map_err(|e| io("writing inputs", e))?;
    fs::write(&wctb_path, &wctb).map_err(|e| io("writing inputs", e))?;
    let (from_text, dec_text_ns) = suite.span("trace:decode_text", || {
        text_format::read_trace(text.as_slice())
    });
    let (from_wctb, dec_wctb_ns) =
        suite.span("trace:decode_wctb", || format_bin::from_bytes(&wctb));
    suite.check(match (&from_text, &from_wctb) {
        (Ok(a), Ok(b)) if *a == trace && *b == trace => Ok(()),
        _ => Err("decoded trace differs from the generated one".to_owned()),
    });
    let (dense, intern_ns) = suite.span("trace:intern", || DenseTrace::build(&trace));
    drop((from_text, from_wctb));
    suite.set("workload.generate_ns_per_req", gen_ns / n);
    suite.set("trace.encode_text_ns_per_req", enc_text_ns / n);
    suite.set("trace.encode_wctb_ns_per_req", enc_wctb_ns / n);
    suite.set("trace.decode_text_ns_per_req", dec_text_ns / n);
    suite.set("trace.decode_wctb_ns_per_req", dec_wctb_ns / n);
    suite.set("trace.intern_ns_per_req", intern_ns / n);
    suite.set("trace.input_bytes_per_req.text", text.len() as f64 / n);
    suite.set("trace.input_bytes_per_req.wctb", wctb.len() as f64 / n);
    let facts = TraceFacts {
        requests: trace.len(),
        distinct: trace.distinct_documents(),
        requested_bytes: trace.requested_bytes().as_u64(),
        overall_bytes: trace.overall_size().as_u64(),
        text_bytes: Some(text.len()),
        wctb_bytes: wctb.len(),
    };
    drop((text, wctb));
    let cmd_inputs = Inputs {
        text: Some(text_path.clone()),
        wctb: wctb_path.clone(),
        facts,
    };
    let capacity = ByteSize::new((trace.overall_size().as_f64() * 0.05).round().max(1.0) as u64);
    let config = SimulationConfig::builder()
        .capacity(capacity)
        .warmup_fraction(0.10)
        .build();

    // 2. The real commands, each in a cli span.
    let mut traced_cmd_ns = 0.0;
    let mut digests: Vec<(String, String)> = Vec::new();
    let mut simulate_cli_ns = 0.0;
    for (name, cmd) in body::simulate_commands(&cmd_inputs) {
        let (out, ns) = suite.span(&format!("cli:{name}"), || run_cli(&cmd));
        simulate_cli_ns += ns;
        if workload == Workload::Simulate {
            traced_cmd_ns += ns;
        }
        suite.check(out.as_ref().map(|_| ()).map_err(Clone::clone));
        if let Ok(out) = out {
            digests.push((name, digest(out.as_bytes())));
        }
    }
    for check in body::formats_agree(&digests) {
        suite.check(check);
    }
    let (sweep_out, sweep_cli_ns) =
        suite.span("cli:sweep", || run_cli(&body::sweep_command(&cmd_inputs)));
    if workload == Workload::Sweep {
        traced_cmd_ns += sweep_cli_ns;
    }
    suite.check(sweep_out.as_ref().map(|_| ()).map_err(Clone::clone));
    if let Ok(out) = &sweep_out {
        digests.push(("sweep".to_owned(), digest(out.as_bytes())));
        suite.check(body::sweep_matches_simulate(out, &cmd_inputs));
    }
    let serve_passes = match workload {
        Workload::Serve | Workload::ServeSharded => workload.serve_passes(),
        _ => 1,
    };
    let log = opts.work_dir.join("serve.log");
    let serve_spec = ServeSpec {
        trace: &wctb_path,
        flags: workload.serve_flags(),
        passes: serve_passes,
        log: &log,
        scrape_interval: Some(SCRAPE_INTERVAL),
        deadline: SERVE_DEADLINE,
    };
    let scraper = TraceRecorder::new(&clock, 1, "scraper");
    let ((serve_run, scraper), _) = suite.span("cli:serve", || {
        serve_client::run(&serve_spec, Some(scraper))
    });
    tracks.extend(scraper);
    let serve_body_ns = serve_run.body.as_nanos() as f64;
    body::check_serve_run(&serve_spec, trace.len(), &serve_run, &mut suite.checks);
    let serve_digests = std::mem::take(&mut suite.checks.digests);
    if matches!(workload, Workload::Serve | Workload::ServeSharded) {
        traced_cmd_ns += serve_body_ns;
        digests.extend(serve_digests);
    }
    let scrapes = &serve_run.scrapes;
    let mean = |f: fn(&serve_client::Scrape) -> f64| {
        scrapes.iter().map(f).sum::<f64>() / scrapes.len().max(1) as f64
    };
    let latencies: Vec<f64> = scrapes.iter().map(|s| s.latency_ms).collect();
    suite.set("obs.scrape_body_bytes", mean(|s| s.bytes as f64));
    suite.set("obs.scrape_ttfb_ms", mean(|s| s.ttfb_ms));
    suite.set("obs.scrape_transfer_ms", mean(|s| s.transfer_ms));
    suite.set(
        "obs.scrape_p50_ms",
        stats::median(&latencies).unwrap_or(0.0),
    );
    suite.set(
        "obs.scrape_p95_ms",
        stats::quantile(&latencies, 0.95).unwrap_or(0.0),
    );
    suite.set("obs.scraper_late_ms", mean(|s| s.late_ms));

    // 3a. Serial replay, as `simulate` runs it.
    for policy in SIMULATE_POLICIES {
        let spec = parse(policy)?;
        let (_, ns) = suite.span(&format!("core:replay {policy}"), || {
            Simulator::from_spec(spec, config).run_dense(&dense)
        });
        suite.set(
            format!("core.replay_ns_per_req.{}", metric_policy(policy)),
            ns / n,
        );
    }

    // 3b. Instrumented replay: heap work and evictions per request.
    for policy in INSTRUMENTED {
        let spec = parse(policy)?;
        let registry = Registry::new();
        let label = spec.label();
        suite.span(&format!("core:replay_instrumented {policy}"), || {
            let probe = PolicyProbe::register(&registry, &label);
            let mut observer = ProfileObserver::register(&registry, &label);
            Simulator::from_spec_instrumented(spec, config, probe)
                .run_dense_observed(&dense, &mut observer)
        });
        let sum = |name: &str| -> f64 {
            registry
                .flat_samples()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.value)
                .sum()
        };
        if HEAP_POLICIES.contains(&policy) {
            suite.set(
                format!("core.heap_sift_steps_per_req.{}", metric_policy(policy)),
                sum("webcache_heap_sift_steps_sum") / n,
            );
        }
        suite.set(
            format!("core.evictions_per_req.{}", metric_policy(policy)),
            sum("webcache_sim_evictions_total") / n,
        );
    }

    // 3c. Shard routing and sharded replay with lock probes.
    let (sharded, route_ns) = suite.span("sim:route", || ShardedTrace::build(&dense, SHARDS));
    let sharded = sharded.map_err(|e| format!("routing: {e}"))?;
    let probes: Vec<ShardLockProbe> = (0..SHARDS).map(|_| ShardLockProbe::new()).collect();
    let serve_policy = parse(SERVE_POLICY)?;
    let (conc, conc_ns) = suite.span("sim:sharded_replay", || {
        ConcurrentSimulator::new(serve_policy, config)
            .with_lock_probes(probes.clone())
            .run_sharded(&dense, &sharded, CLIENTS)
    });
    let acquisitions: u64 = probes.iter().map(|p| p.acquisitions.get()).sum();
    let contended: u64 = probes.iter().map(|p| p.contended.get()).sum();
    let wait_us: u64 = probes.iter().map(|p| p.wait_us.sum()).sum();
    suite.set("sim.route_ns_per_req", route_ns / n);
    suite.set("sim.sharded_replay_ns_per_req", conc_ns / n);
    suite.set(
        "sim.shard_lock_contention",
        contended as f64 / acquisitions.max(1) as f64,
    );
    suite.set("sim.shard_lock_wait_ns_per_req", wait_us as f64 * 1e3 / n);
    suite.set(
        "sim.shard_request_imbalance",
        conc.balance().request_imbalance,
    );
    suite.check(if conc.overall().requests > 0 {
        Ok(())
    } else {
        Err("sharded replay replayed nothing".to_owned())
    });

    // 3d. The serve observers, each paired with the no-op observer on the
    // same trace. The flight recorder, alone and in the full chain, runs
    // on the instrumented simulator that feeds it reasons, as in serve.
    let plain = || Simulator::from_spec(serve_policy, config);
    let instrumented = |evict: ReasonChannel, admit: ReasonChannel| {
        move || {
            let sink = FlightSink::new(evict);
            let mut sim = Simulator::from_spec_instrumented(serve_policy, config, sink);
            sim.set_admit_reasons(admit);
            sim
        }
    };
    let noop_ns = replay_observed(
        &mut suite,
        "core:replay_observed noop",
        plain,
        &dense,
        &mut NoopObserver,
    );
    let label = serve_policy.label();
    let model = LatencyModel::campus_2001();
    let logger = Logger::to_file(&opts.work_dir.join("observers.log"), Level::Info)
        .map_err(|e| io("observer log", e))?;
    let mut all_registry = Registry::new();
    for name in OBSERVERS {
        let registry = Registry::new();
        let recorder = SharedRecorder::new(DEFAULT_FLIGHT_CAPACITY);
        let (evict, admit) = (ReasonChannel::new(), ReasonChannel::new());
        let flight =
            || FlightObserver::with_reasons(recorder.clone(), evict.clone(), admit.clone());
        let regret = || RegretTracker::with_registry(RegretConfig::default(), &registry);
        let profile = || ProfileObserver::register(&registry, &label);
        let anomaly =
            || AnomalyObserver::register(&registry, logger.clone(), AnomalyConfig::default());
        let log = || LogObserver::new(logger.clone());
        let latency = || LatencyObserver::register(model, DEFAULT_LATENCY_WINDOWS, &registry);
        let slo = || SloTracker::register(SloConfig::default(), model, &registry);
        let span = format!("sim:observer {name}");
        let sim = instrumented(evict.clone(), admit.clone());
        let s = &mut suite;
        let ns = match name {
            "flight" => replay_observed(s, &span, sim, &dense, &mut flight()),
            "regret" => replay_observed(s, &span, plain, &dense, &mut regret()),
            "profile" => replay_observed(s, &span, plain, &dense, &mut profile()),
            "anomaly" => replay_observed(s, &span, plain, &dense, &mut anomaly()),
            "log" => replay_observed(s, &span, plain, &dense, &mut log()),
            "latency" => replay_observed(s, &span, plain, &dense, &mut latency()),
            "slo" => replay_observed(s, &span, plain, &dense, &mut slo()),
            _ => {
                // The full chain, in the daemon's order.
                let (lat, objectives) = (latency(), slo());
                let rest = (log(), (lat.clone(), objectives.clone()));
                let mut chain = (flight(), (regret(), (profile(), (anomaly(), rest))));
                let ns = replay_observed(s, &span, sim, &dense, &mut chain);
                // Publish the per-pass gauges, so that the exposition
                // timed below has the daemon's metric families.
                lat.rotate_and_publish();
                let _ = objectives.evaluate();
                ns
            }
        };
        if name == "flight" {
            suite.set("sim.flight_records_per_req", recorder.total() as f64 / n);
        }
        if name == "all" {
            all_registry = registry;
        }
        suite.set(
            format!("sim.observer_ns_per_req.{name}"),
            (ns - noop_ns) / n,
        );
        // The replay inside the span is core work; the rest is the
        // observer's.
        suite.moves.push(("sim", "core", noop_ns.min(ns)));
    }
    let _ = fs::remove_file(opts.work_dir.join("observers.log"));

    // 3e. The parallel sweep, one track per worker.
    let threads = stats::nproc();
    let grid = CacheSizeSweep::new(
        PolicyKind::PAPER_CONSTANT.to_vec(),
        CacheSizeSweep::paper_capacities(&trace),
    );
    let mut workers: Vec<TraceRecorder> = (0..threads)
        .map(|i| TraceRecorder::new(&clock, 10 + i as u32, format!("sweep-worker-{i}")))
        .collect();
    let cells = std::sync::Mutex::new(Vec::new());
    let sweep_started = Instant::now();
    let (report, sweep_ns) = suite.span("sim:sweep", || {
        grid.run_with_progress_recorded(
            &trace,
            threads,
            |p| {
                let end = sweep_started.elapsed().as_nanos() as f64;
                let ns = p.elapsed.as_nanos() as f64;
                cells
                    .lock()
                    .expect("no panics hold the lock")
                    .push((p.policy, end - ns, end));
            },
            &mut workers,
        )
    });
    let cells = cells.into_inner().expect("sweep workers finished");
    tracks.extend(workers);
    let cell_ns: Vec<f64> = cells
        .iter()
        .map(|&(_, start, end)| (end - start) / n)
        .collect();
    suite.set(
        "sim.sweep_cell_ns_per_req.median",
        stats::median(&cell_ns).unwrap_or(0.0),
    );
    suite.set(
        "sim.sweep_cell_ns_per_req.max",
        cell_ns.iter().copied().fold(0.0, f64::max),
    );
    for kind in PolicyKind::PAPER_CONSTANT {
        let spec = PolicySpec::from(kind);
        let total: f64 = cells
            .iter()
            .filter(|(p, _, _)| *p == spec)
            .map(|&(_, s, e)| e - s)
            .sum();
        suite.set(
            format!(
                "core.replay_batched_ns_per_req.{}",
                metric_policy(&spec.to_string().to_lowercase())
            ),
            total / n,
        );
    }
    let busy_ns: f64 = cells.iter().map(|&(_, s, e)| e - s).sum();
    suite.set(
        "sim.sweep_worker_idle_share",
        idle_share(&cells, threads.min(cells.len().max(1)), sweep_ns),
    );
    // Worker time in cells is core replay, shared over the threads.
    suite
        .moves
        .push(("sim", "core", (busy_ns / threads as f64).min(sweep_ns)));

    let (_, render_ns) = suite.span("sim:report_render", || {
        let mut out = String::new();
        for metric in [Metric::HitRate, Metric::ByteHitRate] {
            out.push_str(&figure_panel(&report, metric, None).render());
            for ty in DocumentType::MAIN {
                out.push_str(&figure_panel(&report, metric, Some(ty)).render());
            }
        }
        out
    });
    suite.set("sim.report_render_ms", render_ns / 1e6);
    let (_, metrics_ns) = suite.span("obs:metrics_render", || all_registry.prometheus_text());
    suite.set("obs.metrics_render_ms", metrics_ns / 1e6);

    let wall_ns = root_started.elapsed().as_nanos() as f64;
    suite.track.end();

    // CLI self time: each real command minus the layer stages it runs.
    let replay_of = |policy: &str| {
        suite
            .values
            .iter()
            .find(|(k, _)| *k == format!("core.replay_ns_per_req.{}", metric_policy(policy)))
            .map_or(0.0, |(_, v)| v * n)
    };
    let simulate_children: f64 = SIMULATE_POLICIES
        .iter()
        .map(|p| 2.0 * (intern_ns + replay_of(p)) + dec_text_ns + dec_wctb_ns)
        .sum();
    suite.set(
        "cli.self_ms.simulate",
        (simulate_cli_ns - simulate_children) / 1e6,
    );
    suite.set(
        "cli.self_ms.sweep",
        (sweep_cli_ns - dec_wctb_ns - sweep_ns - render_ns) / 1e6,
    );

    let (layers, root_ns) = suite.attribution();
    let attributed: f64 = layers.iter().map(|(_, ns)| ns).sum();
    for (layer, ns) in &layers {
        suite.set(format!("layer.self_ms.{layer}"), ns / 1e6);
    }
    let coverage = attributed / root_ns.max(1.0);
    suite.set("bench.traced_wall_ms", wall_ns / 1e6);
    suite.set("bench.self_time_coverage", coverage);
    suite.check(if (0.9..=1.1).contains(&coverage) {
        Ok(())
    } else {
        Err(format!(
            "layer self times cover {coverage:.3} of the traced wall-clock, not within a tenth"
        ))
    });

    // The workload's own commands again, untraced: tracing overhead.
    let workload_requests = match workload {
        Workload::Simulate => body::simulate_commands(&cmd_inputs).len() as f64 * n,
        Workload::Sweep => body::sweep_cells() as f64 * n,
        _ => serve_passes as f64 * n,
    };
    let untraced_ns = match workload {
        Workload::Simulate => {
            let started = Instant::now();
            for (_, cmd) in body::simulate_commands(&cmd_inputs) {
                suite.check(run_cli(&cmd).map(|_| ()));
            }
            started.elapsed().as_nanos() as f64
        }
        Workload::Sweep => {
            let started = Instant::now();
            suite.check(run_cli(&body::sweep_command(&cmd_inputs)).map(|_| ()));
            started.elapsed().as_nanos() as f64
        }
        _ => {
            let (run, _) = serve_client::run(&serve_spec, None);
            for why in &run.failures {
                suite.check(Err(why.clone()));
            }
            run.body.as_nanos() as f64
        }
    };
    let rps = |ns: f64| workload_requests / (ns / 1e9).max(1e-9);
    suite.set(
        "bench.tracing_overhead_rps",
        rps(traced_cmd_ns) - rps(untraced_ns),
    );

    // Reference digests of the workload's own outputs, when stored.
    let golden = Golden::load(&opts.golden)?;
    let case = (workload.name().to_owned(), opts.scale, opts.seed);
    if golden.has_case(&case) {
        let own: Vec<(String, String)> = digests
            .into_iter()
            .filter(|(name, _)| match workload {
                Workload::Simulate => name.starts_with("simulate."),
                Workload::Sweep => name == "sweep",
                _ => name == "serve.pass",
            })
            .collect();
        for why in golden.check(&case, &own) {
            suite.check(Err(why));
        }
    }

    // Artefacts: the chrome trace and the run context.
    let mut all_tracks = vec![std::mem::replace(
        &mut suite.track,
        TraceRecorder::new(&clock, 0, "layers"),
    )];
    all_tracks.extend(tracks);
    let stem = format!("{}-seed{}", workload.name(), opts.seed);
    let trace_path = opts.out_dir.join(format!("trace-{stem}.json"));
    fs::write(&trace_path, chrome_trace_json(&all_tracks)).map_err(|e| io("chrome trace", e))?;
    let context = crate::context_json(opts, &cmd_inputs);
    fs::write(opts.out_dir.join(format!("context-{stem}.json")), &context)
        .map_err(|e| io("context", e))?;
    eprintln!("perfbench: {context}");
    eprintln!("perfbench: chrome trace -> {}", trace_path.display());
    for (layer, ns) in &layers {
        eprintln!("perfbench: layer {layer:<8} self {:>10.1} ms", ns / 1e6);
    }
    eprintln!(
        "perfbench: traced wall {:.1} ms, layer self times cover {:.3}",
        root_ns / 1e6,
        coverage
    );

    let mut metrics = Metrics::default();
    for (name, unit) in per_layer_metrics() {
        match suite.values.iter().find(|(k, _)| *k == name) {
            Some(&(_, value)) => metrics.push(name, unit, value),
            None => suite.check(Err(format!("metric {name} was not measured"))),
        }
    }
    Ok(Outcome {
        metrics,
        attempted: suite.checks.attempted,
        failed: suite.checks.failed,
        failures: suite.checks.failures,
    })
}

fn parse(spec: &str) -> Result<PolicySpec, String> {
    spec.parse().map_err(|e| format!("policy `{spec}`: {e}"))
}

/// One `run_dense_observed` of the simulator `make` builds, with `obs`,
/// in the span `name`; returns its wall time in ns.
fn replay_observed<O: Observer>(
    suite: &mut Suite,
    name: &str,
    make: impl FnOnce() -> Simulator,
    dense: &DenseTrace,
    obs: &mut O,
) -> f64 {
    suite.span(name, || make().run_dense_observed(dense, obs)).1
}

/// Share of the sweep's wall time during which fewer than `threads`
/// workers were inside a cell. `cells` holds `(policy, start, end)` in ns
/// from the sweep's start.
fn idle_share(cells: &[(PolicySpec, f64, f64)], threads: usize, wall_ns: f64) -> f64 {
    let mut edges: Vec<(f64, i32)> = cells
        .iter()
        .flat_map(|&(_, s, e)| [(s, 1), (e, -1)])
        .collect();
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut busy = 0;
    let mut last = 0.0;
    let mut short = 0.0;
    for (t, delta) in edges {
        if busy < threads as i32 {
            short += t - last;
        }
        busy += delta;
        last = t;
    }
    short += (wall_ns - last).max(0.0);
    short / wall_ns.max(1.0)
}
