//! Output digests and the reference digests stored beside the benchmark.
//!
//! The reference file (`golden.tsv`) holds one line per digest:
//! `workload <TAB> scale <TAB> seed <TAB> name <TAB> digest`, sorted.
//! Every run checks its canary case against it, and its own case when
//! the file has one for the run's seed and scale.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// 64-bit FNV-1a digest of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Identifies one input case: workload, scale denominator and seed.
pub type Case = (String, u32, u64);

/// The reference digests, keyed by case and digest name.
#[derive(Debug, Default, Clone)]
pub struct Golden {
    entries: BTreeMap<(Case, String), String>,
}

impl Golden {
    /// Loads the reference file; a missing file is an empty table.
    ///
    /// # Errors
    ///
    /// I/O errors other than "not found", and malformed lines.
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        let mut golden = Golden::default();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let bad = || format!("{}:{}: malformed line `{line}`", path.display(), i + 1);
            let [workload, scale, seed, name, value] = fields[..] else {
                return Err(bad());
            };
            let case = (
                workload.to_owned(),
                scale.parse().map_err(|_| bad())?,
                seed.parse().map_err(|_| bad())?,
            );
            golden
                .entries
                .insert((case, name.to_owned()), value.to_owned());
        }
        Ok(golden)
    }

    /// Whether the table has any digest for `case`.
    pub fn has_case(&self, case: &Case) -> bool {
        self.entries.keys().any(|(c, _)| c == case)
    }

    /// Compares `digests` with the reference for `case`, returning one
    /// message per mismatch or missing reference.
    pub fn check(&self, case: &Case, digests: &[(String, String)]) -> Vec<String> {
        let mut failures = Vec::new();
        for (name, value) in digests {
            match self.entries.get(&(case.clone(), name.clone())) {
                Some(expected) if expected == value => {}
                Some(expected) => failures.push(format!(
                    "digest mismatch for {name} ({} 1/{} seed {}): got {value}, reference {expected}",
                    case.0, case.1, case.2
                )),
                None => failures.push(format!(
                    "no reference digest for {name} ({} 1/{} seed {})",
                    case.0, case.1, case.2
                )),
            }
        }
        failures
    }

    /// Replaces the digests of `case` with `digests`.
    pub fn record(&mut self, case: &Case, digests: &[(String, String)]) {
        self.entries.retain(|(c, _), _| c != case);
        for (name, value) in digests {
            self.entries
                .insert((case.clone(), name.clone()), value.clone());
        }
    }

    /// Writes the table back, sorted.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("# workload\tscale\tseed\tname\tdigest (FNV-1a 64)\n");
        for (((workload, scale, seed), name), value) in &self.entries {
            out.push_str(&format!("{workload}\t{scale}\t{seed}\t{name}\t{value}\n"));
        }
        fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn check_flags_mismatch_and_missing() {
        let case: Case = ("sweep".into(), 8, 3);
        let mut golden = Golden::default();
        golden.record(&case, &[("sweep".into(), "00ff".into())]);
        assert!(golden
            .check(&case, &[("sweep".into(), "00ff".into())])
            .is_empty());
        assert_eq!(
            golden
                .check(&case, &[("sweep".into(), "00fe".into())])
                .len(),
            1
        );
        assert_eq!(
            golden
                .check(&case, &[("other".into(), "00ff".into())])
                .len(),
            1
        );
    }
}
