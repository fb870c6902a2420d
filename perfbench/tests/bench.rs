//! Tests of the benchmark itself, at 1/4096 scale.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use webcache_obs::json::{self, Value};
use webcache_perfbench::inputs;
use webcache_perfbench::options::Workload;
use webcache_perfbench::serve_client::{self, ServeSpec};

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");
const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs the benchmark at 1/4096 scale; returns the exit status success
/// and the parsed result line.
fn run_bench(workload: &str, trace: bool, extra: &[&str], dir: &Path) -> (bool, Value) {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", "1", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "4096"])
        .args(["--work-dir", &dir.join("work").display().to_string()])
        .args(["--out-dir", &dir.join("out").display().to_string()])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "no result line; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    let value = json::parse(last).unwrap_or_else(|e| panic!("bad result line {last}: {e:?}"));
    (out.status.success(), value)
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(MANIFEST_DIR).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect("name and unit");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn printed(result: &Value) -> Vec<(String, String)> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Value::as_f64).is_some(),
                "{name} has a numeric value"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect()
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in Workload::ALL {
        let dir = scratch(&format!("metrics-{}", workload.name()));
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let (ok, result) = run_bench(workload.name(), trace, &[], &dir);
            assert!(ok, "{} trace={trace} failed: {result:?}", workload.name());
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(
                &printed(&result),
                expected,
                "{} trace={trace}",
                workload.name()
            );
        }
    }
}

#[test]
fn corrupted_reference_digest_fails_the_run() {
    let dir = scratch("corrupt");
    let golden = std::fs::read_to_string(Path::new(MANIFEST_DIR).join("golden.tsv"))
        .expect("read golden.tsv");
    // Flip the last hex digit of the sweep workload's canary digest.
    let corrupted: String = golden
        .lines()
        .map(|line| {
            if line.starts_with("sweep\t512\t1\tsweep\t") {
                let (head, last) = line.split_at(line.len() - 1);
                format!("{head}{}\n", if last == "0" { "1" } else { "0" })
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    assert_ne!(corrupted, golden, "the canary line exists");
    let path = dir.join("golden.tsv");
    std::fs::write(&path, corrupted).expect("write corrupted golden");

    let (ok, result) = run_bench(
        "sweep",
        false,
        &["--golden", &path.display().to_string()],
        &dir,
    );
    assert!(!ok, "a digest mismatch exits non-zero");
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    assert!(result.get("failed").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);

    let (ok, _) = run_bench("sweep", false, &[], &dir);
    assert!(ok, "the stored reference passes");
}

#[test]
fn serve_client_waits_for_every_pass() {
    let dir = scratch("serve-client");
    let (inputs, _) = inputs::prepare(Workload::Serve, 4096, 1, &dir, "t").expect("inputs");
    let log = dir.join("serve.log");
    let spec = ServeSpec {
        trace: &inputs.wctb,
        flags: &[],
        passes: 3,
        log: &log,
        scrape_interval: Some(Duration::from_millis(7)),
        deadline: Duration::from_secs(60),
    };
    let (run, _) = serve_client::run(&spec, None);
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    // The daemon starts as `replaying: false, passes: 0`; a client that
    // stopped on `replaying == false` would see 0 passes here.
    assert_eq!(run.passes, 3);
    assert_eq!(run.requests, 3 * inputs.facts.requests as u64);
    assert_eq!(run.pass_stats.len(), 3);
    assert!(run
        .pass_stats
        .iter()
        .all(|(requests, _)| *requests == inputs.facts.requests as u64));
}
