//! Order statistics and process measurements.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// A `/proc/self/status` field in KiB, if the platform reports it.
fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// This process's resident set size in KiB (`VmRSS`).
pub fn rss_kib() -> Option<u64> {
    status_kib("VmRSS:")
}

/// This process's peak resident set size in KiB (`VmHWM`).
pub fn peak_rss_kib() -> Option<u64> {
    status_kib("VmHWM:")
}

/// Returns freed heap memory to the OS and restarts the peak-RSS count
/// from the current RSS, so that the next [`peak_rss_kib`] reads the
/// peak of what runs in between.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only releases free memory at the tops of
        // glibc's heaps; it takes no pointers and is safe to call at any
        // time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// [`host_speed`] on the reference host: timings are scaled to it.
pub const NOMINAL_HOST_SPEED: f64 = 12.0e6;

/// Scales a rate measured while the host ran at `speed` to the nominal
/// host ([`NOMINAL_HOST_SPEED`]).
pub fn nominal_rate(rate: f64, speed: f64) -> f64 {
    rate * NOMINAL_HOST_SPEED / speed
}

/// Scales a duration measured while the host ran at `speed` to the
/// nominal host.
pub fn nominal_seconds(seconds: f64, speed: f64) -> f64 {
    seconds * speed / NOMINAL_HOST_SPEED
}

/// The host's current speed: requests per second of a fixed reference
/// replay, run on every available core at once and averaged over them.
/// It is timed next to each measurement because on a shared host the
/// speed of the same code drifts by a quarter over minutes.
pub fn host_speed() -> f64 {
    let threads = nproc();
    let total: f64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| scope.spawn(reference_replay))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference replay does not panic"))
            .sum()
    });
    total / threads as f64
}

/// Requests per second of a byte-capacity LRU cache (hash map plus
/// index-linked list) over a skewed synthetic request stream: the same
/// kind of work as the program's replay core, in code that shares
/// nothing with the program.
fn reference_replay() -> f64 {
    const DOCS: u64 = 400_000;
    const REQUESTS: u64 = 3 << 20;
    const CAPACITY: u64 = 400 << 20;
    const NIL: usize = usize::MAX;
    let started = std::time::Instant::now();
    // Per node: document, size, previous and next node (most recent first).
    let mut nodes: Vec<(u64, u64, usize, usize)> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut index: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    let (mut head, mut tail, mut used, mut hits) = (NIL, NIL, 0u64, 0u64);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..REQUESTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Product of two uniforms: small ids are much more popular.
        let doc = (x % DOCS) * ((x >> 32) % DOCS) / DOCS;
        let size = 1 + (doc.wrapping_mul(0x9e37_79b9) >> 7) % 32_768;
        if let Some(&n) = index.get(&doc) {
            hits += 1;
            let (_, _, prev, next) = nodes[n];
            if prev != NIL {
                nodes[prev].3 = next;
                if next != NIL {
                    nodes[next].2 = prev;
                } else {
                    tail = prev;
                }
                nodes[n].2 = NIL;
                nodes[n].3 = head;
                nodes[head].2 = n;
                head = n;
            }
            continue;
        }
        while used + size > CAPACITY && tail != NIL {
            let (victim, victim_size, prev, _) = nodes[tail];
            index.remove(&victim);
            free.push(tail);
            used -= victim_size;
            tail = prev;
            if tail != NIL {
                nodes[tail].3 = NIL;
            } else {
                head = NIL;
            }
        }
        let node = (doc, size, NIL, head);
        let n = match free.pop() {
            Some(n) => {
                nodes[n] = node;
                n
            }
            None => {
                nodes.push(node);
                nodes.len() - 1
            }
        };
        if head != NIL {
            nodes[head].2 = n;
        } else {
            tail = n;
        }
        head = n;
        index.insert(doc, n);
        used += size;
    }
    std::hint::black_box(hits);
    REQUESTS as f64 / started.elapsed().as_secs_f64()
}

/// Worker threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.95), Some(4.8));
        assert_eq!(median(&[]), None);
    }
}
