//! `cargo xtask lint` — the repo-invariant linter.
//!
//! Six mechanical rules over the lexed source model (see [`crate::lex`]);
//! each encodes an invariant the workspace documents elsewhere, so drift
//! between code and contract fails CI instead of rotting silently:
//!
//! 1. **Atomics confinement** — atomic types, `sync::atomic` paths, and the
//!    five atomic `Ordering::` variants appear only in the capacity ledger
//!    (`crates/core/src/revenue/ledger.rs`), the analysis toolchain itself,
//!    and the vendored shims. All cross-thread protocol lives behind the
//!    ledger's `LedgerCell` surface, where `cargo xtask check-ledger` can
//!    model-check it.
//! 2. **Ordering contract coverage** — every ledger function that names an
//!    atomic ordering is documented (function and ordering both appear as
//!    code spans) in `docs/concurrency.md`; every code span in a `###`
//!    heading there names a ledger function, so a contract section cannot
//!    outlive its function; and both the ledger and ARCHITECTURE.md link
//!    that contract.
//! 3. **No deprecated surface** — `#[deprecated]` and lint attributes that
//!    name `deprecated` (`#[allow(deprecated)]` and friends) appear only in
//!    test code. The workspace has no external users, so a superseded API
//!    is deleted, not kept behind a compat shim.
//! 4. **No stray panics** — non-test library code of `core`, `algorithms`,
//!    and `serve` contains no bare `.unwrap()` and no `panic!` (the
//!    documented-invariant style is `.expect("why this cannot fail")`).
//! 5. **Env-knob registry** — every `REVMAX_*` literal in non-test sources
//!    is listed in `docs/env.md` and vice versa, and environment reads go
//!    through `revmax_core::env` (no direct `std::env::var` outside it and
//!    the vendored shims).
//! 6. **Oracle confinement** — the `revmax_oracle` path (the test-only
//!    reference engines: hash, eager) appears only in test code and under
//!    `crates/oracle/`.
//!    The product plans with one engine; references are plugged in by tests
//!    through `plan_with`, never selected at runtime.

use crate::lex::{self, SourceModel};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A lexed workspace file.
struct File {
    /// Path relative to the workspace root, with `/` separators.
    rel: String,
    /// Raw source text.
    raw: String,
    /// Lexed model (blanked code + string literals).
    model: SourceModel,
    /// `#[cfg(test)]` byte ranges within the blanked code.
    test_regions: Vec<std::ops::Range<usize>>,
}

impl File {
    fn is_integration_test(&self) -> bool {
        self.rel.contains("/tests/")
    }

    fn in_test_code(&self, offset: usize) -> bool {
        self.is_integration_test() || lex::in_regions(&self.test_regions, offset)
    }

    fn at(&self, offset: usize) -> String {
        format!("{}:{}", self.rel, lex::line_of(&self.model.code, offset))
    }
}

/// Runs every rule; prints violations and returns the gate's exit code.
pub fn run() -> ExitCode {
    let root = workspace_root();
    let files = load_files(&root);
    let mut violations = Vec::new();

    atomics_confinement(&files, &mut violations);
    ordering_contract(&root, &files, &mut violations);
    no_deprecated_surface(&files, &mut violations);
    no_stray_panics(&files, &mut violations);
    env_registry(&root, &files, &mut violations);
    oracle_confinement(&files, &mut violations);

    if violations.is_empty() {
        println!(
            "lint: {} files checked, all repo invariants hold",
            files.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("lint: {v}");
        }
        println!("lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// The workspace root (xtask lives at `<root>/crates/xtask`).
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// Lexes every workspace `.rs` file (crates, the facade, examples, vendor).
fn load_files(root: &Path) -> Vec<File> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "examples", "vendor"] {
        collect_rs(&root.join(top), &mut paths);
    }
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let raw =
                std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()));
            let rel = p
                .strip_prefix(root)
                .expect("collected under the root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let model = lex::lex(&raw);
            let test_regions = lex::test_regions(&model.code);
            File {
                rel,
                raw,
                model,
                test_regions,
            }
        })
        .collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 1: atomics confinement
// ---------------------------------------------------------------------------

const LEDGER: &str = "crates/core/src/revenue/ledger.rs";

const ATOMIC_TOKENS: &[&str] = &[
    "sync::atomic",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

fn atomics_allowed(rel: &str) -> bool {
    rel == LEDGER || rel.starts_with("crates/xtask/") || rel.starts_with("vendor/")
}

fn atomics_confinement(files: &[File], violations: &mut Vec<String>) {
    for f in files {
        if atomics_allowed(&f.rel) {
            continue;
        }
        for token in ATOMIC_TOKENS {
            for at in lex::token_offsets(&f.model.code, token) {
                violations.push(format!(
                    "atomics-confinement: {}: `{token}` outside the capacity ledger \
                     (all atomics live in {LEDGER}; see docs/concurrency.md)",
                    f.at(at)
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: ordering contract coverage
// ---------------------------------------------------------------------------

const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn ordering_contract(root: &Path, files: &[File], violations: &mut Vec<String>) {
    let Some(ledger) = files.iter().find(|f| f.rel == LEDGER) else {
        violations.push(format!("ordering-contract: {LEDGER} not found"));
        return;
    };
    let doc_path = root.join("docs/concurrency.md");
    let doc = match std::fs::read_to_string(&doc_path) {
        Ok(d) => d,
        Err(_) => {
            violations.push(
                "ordering-contract: docs/concurrency.md is missing (the ledger's \
                 memory-ordering contract)"
                    .into(),
            );
            return;
        }
    };

    if !ledger.raw.contains("docs/concurrency.md") {
        violations.push(format!(
            "ordering-contract: {LEDGER} does not link docs/concurrency.md"
        ));
    }
    let arch = std::fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap_or_default();
    if !arch.contains("docs/concurrency.md") {
        violations
            .push("ordering-contract: ARCHITECTURE.md does not link docs/concurrency.md".into());
    }

    let code = &ledger.model.code;
    let fn_offsets = lex::token_offsets(code, "fn");
    // The name declared by the `fn` token at `f`.
    let fn_name = |f: usize| {
        let bytes = code.as_bytes();
        let mut p = f + 2;
        while p < bytes.len() && bytes[p].is_ascii_whitespace() {
            p += 1;
        }
        lex::ident_at(code, p)
    };
    for at in lex::token_offsets(code, "Ordering::") {
        let variant = lex::ident_at(code, at + "Ordering::".len());
        if !ORDERING_VARIANTS.contains(&variant) {
            continue;
        }
        let enclosing = fn_offsets
            .iter()
            .rev()
            .find(|&&f| f < at)
            .map(|&f| fn_name(f))
            .unwrap_or("");
        for span in [variant, enclosing] {
            if !span.is_empty() && !doc.contains(&format!("`{span}`")) {
                violations.push(format!(
                    "ordering-contract: {}: `{span}` (at an `Ordering::{variant}` use) \
                     is not covered in docs/concurrency.md",
                    ledger.at(at)
                ));
            }
        }
    }

    let fns: Vec<&str> = fn_offsets.iter().map(|&f| fn_name(f)).collect();
    for heading in doc.lines().filter(|l| l.starts_with("### ")) {
        for name in heading.split('`').skip(1).step_by(2) {
            if !fns.contains(&name) {
                violations.push(format!(
                    "ordering-contract: docs/concurrency.md heading \"{heading}\" names \
                     `{name}`, which is not a function in {LEDGER}"
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: no deprecated surface
// ---------------------------------------------------------------------------

/// The byte range of the attribute opened at `at` (`#[` or `#![`), through
/// its matching `]`.
fn attribute_span(code: &str, at: usize) -> std::ops::Range<usize> {
    let bytes = code.as_bytes();
    let mut depth = 0usize;
    for (p, &b) in bytes.iter().enumerate().skip(at) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return at..p + 1;
                }
            }
            _ => {}
        }
    }
    at..bytes.len()
}

fn no_deprecated_surface(files: &[File], violations: &mut Vec<String>) {
    for f in files {
        let code = &f.model.code;
        for opener in ["#[", "#!["] {
            for at in lex::token_offsets(code, opener) {
                let span = attribute_span(code, at);
                if lex::token_offsets(&code[span.clone()], "deprecated").is_empty()
                    || f.in_test_code(at)
                {
                    continue;
                }
                // Blanking preserves byte offsets, so the raw text of the
                // span is the attribute as written.
                violations.push(format!(
                    "no-deprecated-surface: {}: `{}` outside test code — delete the \
                     superseded item and migrate its callers instead of deprecating it",
                    f.at(at),
                    f.raw[span].split_whitespace().collect::<Vec<_>>().join(" ")
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: no stray panics in library code
// ---------------------------------------------------------------------------

fn library_scope(rel: &str) -> bool {
    [
        "crates/core/src/",
        "crates/algorithms/src/",
        "crates/serve/src/",
        "crates/http/src/",
    ]
    .iter()
    .any(|p| rel.starts_with(p))
}

fn no_stray_panics(files: &[File], violations: &mut Vec<String>) {
    for f in files {
        if !library_scope(&f.rel) {
            continue;
        }
        for (token, advice) in [
            (
                ".unwrap()",
                "use .expect(\"documented invariant\") or handle the None/Err",
            ),
            (
                "panic!",
                "return an error or use .expect with the invariant",
            ),
        ] {
            for at in lex::token_offsets(&f.model.code, token) {
                if f.in_test_code(at) {
                    continue;
                }
                violations.push(format!(
                    "no-stray-panics: {}: `{token}` in non-test library code — {advice}",
                    f.at(at)
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: env-knob registry
// ---------------------------------------------------------------------------

const ENV_IMPL: &str = "crates/core/src/env.rs";

/// Extracts `REVMAX_*` names from text.
fn revmax_names(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = text[from..].find("REVMAX_") {
        let at = from + rel;
        let mut end = at + "REVMAX_".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        if end > at + "REVMAX_".len() {
            let name = text[at..end].trim_end_matches('_');
            // REVMAX_TEST_* is the documented namespace for test-local
            // variables; it is convention, not a knob, so it stays out of
            // the registry in both directions.
            if !name.starts_with("REVMAX_TEST") {
                out.push(name.to_string());
            }
        }
        from = end;
    }
    out
}

fn env_registry(root: &Path, files: &[File], violations: &mut Vec<String>) {
    let doc = match std::fs::read_to_string(root.join("docs/env.md")) {
        Ok(d) => d,
        Err(_) => {
            violations
                .push("env-registry: docs/env.md is missing (the REVMAX_* knob registry)".into());
            return;
        }
    };
    let mut registered = revmax_names(&doc);
    registered.sort();
    registered.dedup();

    let mut used: Vec<(String, String)> = Vec::new(); // (name, where)
    for f in files {
        if f.is_integration_test() {
            continue;
        }
        // Line ranges of test regions, to scope the string scan.
        let test_lines: Vec<(usize, usize)> = f
            .test_regions
            .iter()
            .map(|r| {
                (
                    lex::line_of(&f.model.code, r.start),
                    lex::line_of(&f.model.code, r.end),
                )
            })
            .collect();
        for (line, text) in &f.model.strings {
            if test_lines.iter().any(|&(s, e)| (s..=e).contains(line)) {
                continue;
            }
            for name in revmax_names(text) {
                used.push((name, format!("{}:{line}", f.rel)));
            }
        }
        // Direct std::env reads bypass the registry's parsing contract.
        if f.rel == ENV_IMPL || f.rel.starts_with("vendor/") {
            continue;
        }
        for token in ["std::env::var(", "std::env::var_os("] {
            for at in lex::token_offsets(&f.model.code, token) {
                violations.push(format!(
                    "env-registry: {}: direct `{token}..)` — read knobs through \
                     `revmax_core::env` (see docs/env.md)",
                    f.at(at)
                ));
            }
        }
    }

    for (name, at) in &used {
        if !registered.contains(name) {
            violations.push(format!(
                "env-registry: {at}: `{name}` is not listed in docs/env.md"
            ));
        }
    }
    for name in &registered {
        if !used.iter().any(|(n, _)| n == name) {
            violations.push(format!(
                "env-registry: docs/env.md lists `{name}` but no source references it"
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 6: oracle confinement
// ---------------------------------------------------------------------------

const ORACLE_PATH: &str = "revmax_oracle";

fn oracle_allowed(rel: &str) -> bool {
    rel.starts_with("crates/oracle/")
}

fn oracle_confinement(files: &[File], violations: &mut Vec<String>) {
    for f in files {
        if oracle_allowed(&f.rel) {
            continue;
        }
        for at in lex::token_offsets(&f.model.code, ORACLE_PATH) {
            if f.in_test_code(at) {
                continue;
            }
            violations.push(format!(
                "oracle-confinement: {}: `{ORACLE_PATH}` outside test code (the reference \
                 engines are test-only: tests plug them in through `plan_with`)",
                f.at(at)
            ));
        }
    }
}
