//! Input generation: a workload's traces, made from the seed and written
//! in the encodings its commands read.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use webcache_trace::{format as text_format, format_bin, Trace};
use webcache_workload::WorkloadProfile;

use crate::options::{Profile, Workload};

/// Generates the `profile` trace at 1/`scale` from `seed`.
pub fn generate(profile: Profile, scale: u32, seed: u64) -> Trace {
    let base = match profile {
        Profile::Dfn => WorkloadProfile::dfn(),
        Profile::Rtp => WorkloadProfile::rtp(),
    };
    base.scaled(1.0 / f64::from(scale)).build_trace(seed)
}

/// Encodes a trace in the text `.wct` format.
///
/// # Errors
///
/// Propagates writer errors (none for an in-memory buffer).
pub fn encode_text(trace: &Trace) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    text_format::write_trace(&mut buf, trace)?;
    Ok(buf)
}

/// Sizes of one generated trace, for the run context.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceFacts {
    /// Requests in the trace.
    pub requests: usize,
    /// Distinct documents requested.
    pub distinct: usize,
    /// Sum of all requested bytes.
    pub requested_bytes: u64,
    /// Sum of the distinct documents' sizes (the 100% cache size).
    pub overall_bytes: u64,
    /// Size of the text encoding, if written.
    pub text_bytes: Option<usize>,
    /// Size of the wctb encoding.
    pub wctb_bytes: usize,
}

/// The files one workload's commands read.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The text `.wct` file (only for workloads that read it).
    pub text: Option<PathBuf>,
    /// The binary wctb file.
    pub wctb: PathBuf,
    /// Trace sizes.
    pub facts: TraceFacts,
}

/// File paths of a workload's inputs inside `dir` (named by `tag`).
pub fn paths(dir: &Path, workload: Workload, tag: &str) -> (Option<PathBuf>, PathBuf) {
    let stem = format!("{}-{tag}", workload.profile().name());
    let text = workload
        .needs_text()
        .then(|| dir.join(format!("{stem}.wct")));
    (text, dir.join(format!("{stem}.wctb")))
}

/// Generates and writes a workload's inputs, returning them and the
/// wall time it took in seconds (one set-up time sample).
///
/// # Errors
///
/// File-system errors while writing into `dir`.
pub fn prepare(
    workload: Workload,
    scale: u32,
    seed: u64,
    dir: &Path,
    tag: &str,
) -> io::Result<(Inputs, f64)> {
    fs::create_dir_all(dir)?;
    let (text, wctb) = paths(dir, workload, tag);
    let started = Instant::now();
    let trace = generate(workload.profile(), scale, seed);
    let mut text_bytes = None;
    if let Some(path) = &text {
        let encoded = encode_text(&trace)?;
        fs::write(path, &encoded)?;
        text_bytes = Some(encoded.len());
    }
    let encoded = format_bin::to_bytes(&trace);
    fs::write(&wctb, &encoded)?;
    let seconds = started.elapsed().as_secs_f64();
    let facts = TraceFacts {
        requests: trace.len(),
        distinct: trace.distinct_documents(),
        requested_bytes: trace.requested_bytes().as_u64(),
        overall_bytes: trace.overall_size().as_u64(),
        text_bytes,
        wctb_bytes: encoded.len(),
    };
    Ok((Inputs { text, wctb, facts }, seconds))
}
