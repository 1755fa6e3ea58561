//! Design-space sweep over generated SRAM macro specs.
//!
//! ```text
//! cargo run --release -p sram_gen --bin gen_report -- \
//!     [--specs-dir D] [--spec FILE]... [--corpus-dir D] \
//!     [--random N] [--seed S] [--mc N] [--smoke N] \
//!     [--threads W]
//! ```
//!
//! Three sweeps in one run:
//!
//! * **Committed specs** (`--specs-dir`, `--spec`): each builds a full
//!   [`GenReport`] — organization, netlists, characterization, area/power,
//!   fault-injected smoke — and contributes its digests to the report.
//!   A spec named `digits` is additionally checked for byte-identical
//!   layout against the hand-wired trained-digits fixture
//!   (`paper_fixture_match`).
//! * **Random sample** (`--random N --seed S`): N seeded draws from the
//!   spec space, each swept the same way — the design space stays an
//!   object of test, not just the committed points.
//! * **Malformed corpus** (`--corpus-dir`): every file must be *rejected*
//!   with a typed error; any panic kills the process and fails the gate,
//!   any acceptance is counted and fails the gate.
//!
//! Stdout is one [`Record`] of `key=value` lines, parsed by `cargo xtask
//! gen-report`; progress goes to stderr. All observables are deterministic
//! in the flags — independent of `--threads` — which the xtask gate checks
//! by diffing two runs at different worker counts.

use sram_exec::report::Record;
use sram_exec::Flags;
use sram_gen::organize::layout_digest;
use sram_gen::report::{GenReport, GenReportOptions};
use sram_gen::spec::SramSpec;
use std::path::PathBuf;

struct Args {
    specs_dir: Option<PathBuf>,
    spec_files: Vec<PathBuf>,
    corpus_dir: Option<PathBuf>,
    random: usize,
    seed: u64,
    mc_samples: usize,
    smoke_requests: usize,
}

fn parse_args() -> Result<Args, String> {
    let raw = sram_exec::strip_threads_flag(std::env::args().skip(1).collect())?;
    let mut args = Args {
        specs_dir: None,
        spec_files: Vec::new(),
        corpus_dir: None,
        random: 8,
        seed: 0x5EED_5A3C,
        mc_samples: 160,
        smoke_requests: 32,
    };
    Flags::default()
        .optional("--specs-dir", &mut args.specs_dir, |_| true)
        .repeated("--spec", &mut args.spec_files)
        .optional("--corpus-dir", &mut args.corpus_dir, |_| true)
        .value("--random", &mut args.random, |_| true)
        .value("--seed", &mut args.seed, |_| true)
        .value("--mc", &mut args.mc_samples, |&n| n > 0)
        .value("--smoke", &mut args.smoke_requests, |&n| n > 0)
        .parse(raw)?;
    Ok(args)
}

/// Sanitizes a spec name into a kv-key fragment.
fn key_of(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Sorted `.toml` files of a directory.
fn toml_files(dir: &PathBuf) -> Result<Vec<PathBuf>, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    Ok(files)
}

/// The hand-wired digits fixture's layout, for the golden cross-check.
fn paper_fixture_digest() -> u64 {
    let (digits_q, _) = sram_serve::fixture::trained_digit_network();
    let map = sram_array::organization::SynapticMemoryMap::new(
        &neuro_system::layout::bank_words(&digits_q),
        &fault_inject::protection::ProtectionPolicy::MsbProtected { msb_8t: 3 },
        sram_array::organization::SubArrayDims::PAPER,
    );
    layout_digest(&map)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gen_report: {e}");
            std::process::exit(2);
        }
    };
    let opts = GenReportOptions {
        mc_samples: args.mc_samples,
        smoke_requests: args.smoke_requests,
        ..GenReportOptions::default()
    };

    let mut record = Record::default();
    let mut failures = 0usize;

    // --- Committed specs ------------------------------------------------
    let mut spec_files = args.spec_files.clone();
    if let Some(dir) = &args.specs_dir {
        match toml_files(dir) {
            Ok(files) => spec_files.extend(files),
            Err(e) => {
                eprintln!("gen_report: {e}");
                std::process::exit(2);
            }
        }
    }
    let mut digits_layout: Option<u64> = None;
    record.put("specs_total", spec_files.len());
    for path in &spec_files {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let key = format!("spec_{}", key_of(&stem));
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("gen_report: cannot read {}: {e}", path.display());
                record.put(format!("{key}_ok"), false);
                failures += 1;
                continue;
            }
        };
        match SramSpec::from_toml_str(&text).and_then(|spec| GenReport::build(&spec, &opts)) {
            Ok(report) => {
                eprintln!(
                    "spec {stem:<16} {:>8} words  layout {:#018x}  report {:#018x}",
                    report.organization.map.total_words(),
                    report.organization.layout_digest(),
                    report.digest()
                );
                if stem == "digits" {
                    digits_layout = Some(report.organization.layout_digest());
                }
                report.put_into(&key, &mut record);
            }
            Err(e) => {
                eprintln!("spec {stem}: FAILED: {e}");
                record
                    .put(format!("{key}_ok"), false)
                    .put(format!("{key}_error"), e);
                failures += 1;
            }
        }
    }

    // --- Golden cross-check against the hand-wired fixture --------------
    if let Some(generated) = digits_layout {
        let fixture = paper_fixture_digest();
        let matches = generated == fixture;
        eprintln!(
            "paper fixture layout {fixture:#018x} vs generated {generated:#018x}: {}",
            if matches { "MATCH" } else { "MISMATCH" }
        );
        record.put("paper_fixture_match", matches);
        if !matches {
            failures += 1;
        }
    }

    // --- Seeded random sample -------------------------------------------
    record.put("random_total", args.random);
    let mut random_ok = 0usize;
    for i in 0..args.random {
        let spec = SramSpec::sample(sram_exec::derive_seed(args.seed, i as u64));
        let key = format!("rand_{i}");
        match GenReport::build(&spec, &opts) {
            Ok(report) => {
                eprintln!(
                    "rand {i:<2} ({:<14}) {:>6} words  report {:#018x}",
                    spec.name,
                    report.organization.map.total_words(),
                    report.digest()
                );
                random_ok += 1;
                report.put_into(&key, &mut record);
            }
            Err(e) => {
                eprintln!("rand {i} ({}): FAILED: {e}", spec.name);
                record.put(format!("{key}_ok"), false);
                failures += 1;
            }
        }
    }
    record.put("random_ok", random_ok);

    // --- Malformed corpus -----------------------------------------------
    if let Some(dir) = &args.corpus_dir {
        let files = match toml_files(dir) {
            Ok(files) => files,
            Err(e) => {
                eprintln!("gen_report: {e}");
                std::process::exit(2);
            }
        };
        let mut rejected = 0usize;
        for path in &files {
            let stem = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            let text = std::fs::read_to_string(path).unwrap_or_default();
            match SramSpec::from_toml_str(&text) {
                // Typed rejection (any `GenError` variant) is the pass
                // condition; a panic would kill the process instead.
                Err(err) => {
                    eprintln!("corpus {stem:<24} rejected: {err}");
                    rejected += 1;
                }
                Ok(_) => {
                    eprintln!("corpus {stem}: ACCEPTED (must be rejected)");
                    failures += 1;
                }
            }
        }
        record
            .put("corpus_total", files.len())
            .put("corpus_rejected", rejected);
    }

    record.put("failures", failures);
    print!("{record}");
    if failures > 0 {
        std::process::exit(1);
    }
}
