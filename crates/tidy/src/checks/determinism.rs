//! The determinism check.
//!
//! Every figure this reproduction ships is pinned by a bit-identical
//! output guarantee, so the crates the simulation results flow through
//! must not observe anything outside the simulation: no randomly
//! seeded hash containers (iteration order varies per process), no
//! wall-clock reads, no environment or thread-identity reads. The
//! `bench` harness (real timing) and the `server`/`coserve`/`tidy`
//! runtimes are exempt; everything else is deterministic by contract.

use crate::check::{allowed, find_token, Check, Diagnostic};
use crate::scan::{FileKind, ScannedFile};

/// Crates whose non-test code must stay free of nondeterminism.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "model",
    "core",
    "sim",
    "workload",
    "cluster",
    "metrics",
    "baselines",
    "trace",
    "faults",
];

/// `(pattern, what to do instead)` pairs; patterns are token-matched
/// against scanned code, so comments and string literals never trip
/// them.
const FORBIDDEN: &[(&str, &str)] = &[
    (
        "HashMap",
        "iteration order is randomly seeded per process; use BTreeMap",
    ),
    (
        "HashSet",
        "iteration order is randomly seeded per process; use BTreeSet",
    ),
    (
        "RandomState",
        "randomly seeded hasher; use an ordered container instead",
    ),
    (
        "DefaultHasher",
        "randomly seeded hasher; use an ordered container instead",
    ),
    (
        "Instant",
        "wall-clock read; simulated time must come from coserve_sim::time",
    ),
    (
        "SystemTime",
        "wall-clock read; simulated time must come from coserve_sim::time",
    ),
    (
        "env::",
        "environment read; results must not depend on the process environment",
    ),
    (
        "thread::current",
        "thread identity is nondeterministic across runs",
    ),
    (
        "thread_rng",
        "OS-seeded RNG; use the seeded coserve_sim::rng generator",
    ),
];

/// Forbids nondeterministic constructs in the deterministic crates.
#[derive(Debug)]
pub struct Determinism;

impl Check for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn run(&self, files: &[ScannedFile], out: &mut Vec<Diagnostic>) {
        for file in files {
            if file.kind != FileKind::Src
                || !DETERMINISTIC_CRATES.contains(&file.crate_name.as_str())
            {
                continue;
            }
            for (lineno, line) in file.numbered() {
                if line.in_test || allowed(line, self.name()) {
                    continue;
                }
                for &(pattern, why) in FORBIDDEN {
                    if find_token(&line.code, pattern).is_some() {
                        out.push(Diagnostic {
                            check: self.name(),
                            file: file.path.clone(),
                            line: lineno,
                            message: format!(
                                "`{pattern}` in deterministic crate `{}`: {why}",
                                file.crate_name
                            ),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_on(path: &str, crate_name: &str, content: &str) -> Vec<Diagnostic> {
        let file = ScannedFile::parse(path, crate_name, FileKind::Src, content);
        let mut out = Vec::new();
        Determinism.run(&[file], &mut out);
        out
    }

    #[test]
    fn hashmap_in_core_is_flagged_with_location() {
        let out = run_on(
            "crates/core/src/engine.rs",
            "core",
            "use std::collections::BTreeMap;\nuse std::collections::HashMap;\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 2);
        assert!(out[0]
            .to_string()
            .starts_with("crates/core/src/engine.rs:2:"));
    }

    #[test]
    fn wall_clock_and_env_reads_are_flagged() {
        let out = run_on(
            "crates/sim/src/time.rs",
            "sim",
            "let t = std::time::Instant::now();\nlet v = std::env::var(\"X\");\n",
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn bench_and_server_are_exempt() {
        for (path, name) in [
            ("crates/bench/src/figures.rs", "bench"),
            ("crates/server/src/server.rs", "server"),
        ] {
            let out = run_on(path, name, "let t = Instant::now();\n");
            assert!(out.is_empty(), "{name} should be exempt: {out:?}");
        }
    }

    #[test]
    fn mentions_in_comments_strings_and_tests_are_fine() {
        let out = run_on(
            "crates/core/src/pool.rs",
            "core",
            concat!(
                "// a HashMap here would break determinism\n",
                "let msg = \"HashMap\";\n",
                "#[cfg(test)]\n",
                "mod tests { use std::collections::HashMap; }\n",
            ),
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn suppression_silences_a_justified_site() {
        let out = run_on(
            "crates/metrics/src/output.rs",
            "metrics",
            "let d = std::env::var_os(\"COSERVE_OUT_DIR\"); // tidy:allow(determinism) path only\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
