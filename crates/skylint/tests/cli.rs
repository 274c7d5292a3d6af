//! End-to-end CLI tests: exit codes and output shapes of the `skylint`
//! binary over the fixture trees. Every event-stream rule has a bad/clean
//! tree pair here, and the usage and hard-error paths (retired flags,
//! malformed annotations, unknown config keys, config values that name
//! nothing, no config at all) are pinned to exit code 2.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use skylint::rules::RULE_IDS;

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(rel)
}

fn skylint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_skylint")).args(args).output().expect("run skylint")
}

/// Runs `check` over a fixture tree and returns (exit code, stdout, stderr).
fn check_tree(tree: &str) -> (Option<i32>, String, String) {
    let root = fixture(tree);
    let out = skylint(&["check", "--root", root.to_str().expect("utf-8 path")]);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A bad tree must exit 1 and name `rule` in its findings.
fn assert_bad(tree: &str, rule: &str) -> String {
    let (code, stdout, stderr) = check_tree(tree);
    assert_eq!(code, Some(1), "{tree}: stdout: {stdout}stderr: {stderr}");
    assert!(stdout.contains(rule), "{tree}: expected a {rule} finding in:\n{stdout}");
    stdout
}

/// A clean tree must exit 0 with no findings.
fn assert_clean(tree: &str) {
    let (code, stdout, stderr) = check_tree(tree);
    assert_eq!(code, Some(0), "{tree}: stdout: {stdout}stderr: {stderr}");
    assert!(stdout.contains("clean"), "{tree}: {stdout}");
}

#[test]
fn check_exits_nonzero_on_the_bad_tree() {
    let (code, stdout, stderr) = check_tree("bad_tree");
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(stdout.contains("no-panic-paths"), "{stdout}");
    assert!(stdout.contains("api-hygiene"), "{stdout}");
    assert!(stdout.contains("src/lib.rs"), "{stdout}");
}

#[test]
fn check_exits_zero_on_the_clean_tree() {
    assert_clean("clean_tree");
}

// ---------------------------------------------------------------------------
// Semantic rule families: one bad/clean tree pair each
// ---------------------------------------------------------------------------

#[test]
fn lock_order_cycle_tree_is_flagged() {
    let stdout = assert_bad("lock_cycle_bad", "lock-order");
    assert!(stdout.contains("cycle"), "expected a lock-cycle finding in:\n{stdout}");
    assert!(stdout.contains("read") && stdout.contains("write"), "{stdout}");
}

#[test]
fn lock_order_consistent_tree_is_clean() {
    assert_clean("lock_cycle_clean");
}

#[test]
fn transitive_panic_tree_is_flagged_at_the_public_api() {
    let stdout = assert_bad("panic_transitive_bad", "no-panic-paths");
    // One rule, two findings: the site where it stands, and the witness
    // on the public API naming the private chain. `mid` gets neither.
    assert!(stdout.contains("src/lib.rs:17 [no-panic-paths] bracket indexing"), "{stdout}");
    assert!(stdout.contains("src/lib.rs:8 [no-panic-paths] pub fn `api`"), "{stdout}");
    assert!(stdout.contains("via `mid` → `deep`"), "{stdout}");
    assert!(stdout.contains("2 violations found"), "{stdout}");
}

#[test]
fn total_call_chain_tree_is_clean() {
    assert_clean("panic_transitive_clean");
}

#[test]
fn hot_path_allocation_tree_is_flagged_with_a_witness() {
    let stdout = assert_bad("hot_alloc_bad", "hot-path-alloc");
    assert!(stdout.contains("kernel"), "{stdout}");
    assert!(stdout.contains("stage"), "expected the witness path in:\n{stdout}");
}

#[test]
fn in_place_kernel_tree_is_clean() {
    assert_clean("hot_alloc_clean");
}

#[test]
fn stale_allow_tree_is_flagged() {
    let stdout = assert_bad("dead_allow_bad", "dead-allow");
    assert!(stdout.contains("no-panic-paths"), "{stdout}");
}

#[test]
fn exercised_allow_tree_is_clean() {
    assert_clean("dead_allow_clean");
}

#[test]
fn guard_span_tree_is_flagged_with_witness_chains() {
    let stdout = assert_bad("guard_span_bad", "guard-hold-span");
    // Direct expensive call under a read guard…
    assert!(stdout.contains("read guard"), "{stdout}");
    assert!(stdout.contains("`expensive_fetch`"), "{stdout}");
    // …and a transitive one under a write guard, with the chain named.
    assert!(stdout.contains("write guard"), "{stdout}");
    assert!(stdout.contains("`refresh` → `expensive_fetch`"), "{stdout}");
}

#[test]
fn copy_drop_compute_tree_is_clean() {
    assert_clean("guard_span_clean");
}

#[test]
fn scattered_env_read_tree_is_flagged() {
    let stdout = assert_bad("env_read_bad", "determinism");
    // Both the path form and the macro form are findings.
    assert!(stdout.contains("`env::var` read in fn `scattered`"), "{stdout}");
    assert!(stdout.contains("`env::option_env` read in fn `compiled_in`"), "{stdout}");
}

#[test]
fn pinned_env_read_tree_is_clean() {
    // The one read is pinned to `tools/main.rs`: scanned, but outside
    // `crates.library`, so the ban does not apply to it.
    assert_clean("env_read_clean");
}

#[test]
fn unvalidated_decoded_length_tree_is_flagged() {
    let stdout = assert_bad("range_taint_bad", "range-taint");
    // The direct flow and the propagated one, each naming its origin.
    assert!(stdout.contains("receives `n`"), "{stdout}");
    assert!(stdout.contains("receives `padded`"), "{stdout}");
    assert!(stdout.contains("tainted by `get_u32_le`"), "{stdout}");
}

#[test]
fn validated_decoded_length_tree_is_clean() {
    assert_clean("range_taint_clean");
}

#[test]
fn raw_sync_primitive_tree_is_flagged() {
    let stdout = assert_bad("sync_confine_bad", "sync-confinement");
    // All three forms: parking_lot, std::sync and std::thread.
    assert!(stdout.contains("parking_lot"), "{stdout}");
    assert!(stdout.contains("std::sync::Mutex"), "{stdout}");
    assert!(stdout.contains("skycheck::sync::thread"), "{stdout}");
    // The Arc import and the capability probe stay unflagged.
    assert!(!stdout.contains("available_parallelism"), "{stdout}");
    assert!(!stdout.contains("Arc"), "{stdout}");
}

#[test]
fn shimmed_sync_tree_is_clean() {
    assert_clean("sync_confine_clean");
}

#[test]
fn escaping_lock_guard_tree_is_flagged() {
    let stdout = assert_bad("sync_confine_guard_bad", "sync-confinement");
    // All three escaping signatures, including the pub(crate) one and
    // the multi-line one, each naming the guard type.
    assert!(stdout.contains("`pub fn read_handle`"), "{stdout}");
    assert!(stdout.contains("`pub fn write_handle`"), "{stdout}");
    assert!(stdout.contains("`pub fn side_handle`"), "{stdout}");
    assert!(stdout.contains("RwLockReadGuard"), "{stdout}");
    assert!(stdout.contains("RwLockWriteGuard"), "{stdout}");
    assert!(stdout.contains("MutexGuard"), "{stdout}");
    // The closure API, the private helper and the value read stay clean.
    assert!(!stdout.contains("with_read"), "{stdout}");
    assert!(!stdout.contains("`pub fn value`"), "{stdout}");
}

#[test]
fn sealed_guard_tree_is_clean() {
    assert_clean("sync_confine_guard_clean");
}

#[test]
fn recursive_shared_reads_tree_is_clean() {
    // Shared → shared re-entry on one lock is safe under the shim RwLock.
    assert_clean("recursive_read_clean");
}

// ---------------------------------------------------------------------------
// Usage errors and hard errors: exit 2 before any findings are produced
// ---------------------------------------------------------------------------

#[test]
fn dry_run_without_fix_flag_is_a_usage_error() {
    // `check` takes `--root` and nothing else: the retired flags are
    // rejected like any unknown argument, not silently ignored.
    let root = fixture("clean_tree");
    let root = root.to_str().expect("utf-8 path");
    for flag in ["--dry-run", "--fix-dead-allows", "--json", "--quiet", "--bench-out", "--config"] {
        assert_eq!(skylint(&["check", "--root", root, flag]).status.code(), Some(2), "{flag}");
    }
}

#[test]
fn malformed_annotation_is_a_hard_error() {
    let (code, stdout, stderr) = check_tree("malformed_tree");
    assert_eq!(code, Some(2), "stdout: {stdout}stderr: {stderr}");
    assert!(stderr.contains("made-up-rule"), "{stderr}");
    assert!(stdout.is_empty(), "no findings expected on a policy error: {stdout}");
}

#[test]
fn unknown_config_section_is_a_hard_error() {
    let (code, stdout, stderr) = check_tree("bad_config_tree");
    assert_eq!(code, Some(2), "stdout: {stdout}stderr: {stderr}");
    assert!(stderr.contains("frobnicate"), "{stderr}");
}

#[test]
fn misspelled_config_values_are_hard_errors() {
    // Known keys whose values name nothing: a path missing under the
    // root is reported before the scan, a designator matching no
    // function after it — each with its key and the offending value.
    let (code, stdout, stderr) = check_tree("misspelled_config_tree");
    assert_eq!(code, Some(2), "stdout: {stdout}stderr: {stderr}");
    assert!(stderr.contains("`rules.hot-path-alloc.scope-files` names `scr`"), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");

    let tree = Path::new(env!("CARGO_TARGET_TMPDIR")).join("misspelled_designator_tree");
    std::fs::remove_dir_all(&tree).ok();
    std::fs::create_dir_all(tree.join("src")).expect("mkdir");
    let src = fixture("misspelled_config_tree");
    std::fs::copy(src.join("src/lib.rs"), tree.join("src/lib.rs")).expect("copy source");
    let toml = std::fs::read_to_string(src.join("skylint.toml")).expect("read policy");
    std::fs::write(tree.join("skylint.toml"), toml.replace("\"scr\"", "\"src\"")).expect("write");
    let out = skylint(&["check", "--root", tree.to_str().expect("utf-8 path")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("`rules.hot-path-alloc.kernels` names `kernal`"), "{stderr}");
}

#[test]
fn missing_policy_file_is_a_hard_error() {
    // No skylint.toml means no policy, and no policy must not read as
    // "clean": there is no built-in default to fall back to.
    let root = fixture("clean_tree/src");
    let out = skylint(&["check", "--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("skylint.toml"));
}

#[test]
fn explain_and_rules_subcommands() {
    let rules = skylint(&["rules"]);
    assert_eq!(rules.status.code(), Some(0));
    let listed = String::from_utf8_lossy(&rules.stdout);
    assert_eq!(listed.lines().count(), RULE_IDS.len(), "{listed}");
    for (rule, line) in RULE_IDS.iter().zip(listed.lines()) {
        // `id — summary (DESIGN §9.n)`: DESIGN.md is the rationale's home.
        assert!(line.starts_with(&format!("{rule} — ")), "{line}");
        assert!(line.contains("(DESIGN §9."), "{line}");
    }
    // `explain` went with its four-copies-of-the-rationale text.
    assert_eq!(skylint(&["explain", "determinism"]).status.code(), Some(2));
    assert_eq!(skylint(&["frobnicate"]).status.code(), Some(2));
}
