//! End-to-end CLI tests: exit codes and output shapes of the `skylint`
//! binary over the fixture trees. Every semantic rule family has a
//! bad/clean tree pair here, and the two hard-error paths (malformed
//! annotations, unknown config keys) are pinned to exit code 2.

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
    let stdout = assert_bad("panic_transitive_bad", "panic-reachability");
    // The finding lands on the public API and names the private chain.
    assert!(stdout.contains("`api`"), "{stdout}");
    assert!(stdout.contains("mid") && stdout.contains("deep"), "{stdout}");
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
fn capture_race_tree_is_flagged() {
    let stdout = assert_bad("capture_race_bad", "capture-race");
    assert!(stdout.contains("`count`"), "{stdout}");
    assert!(stdout.contains("spawn"), "{stdout}");
}

#[test]
fn synchronized_capture_tree_is_clean() {
    assert_clean("capture_race_clean");
}

#[test]
fn scattered_env_read_tree_is_flagged() {
    let stdout = assert_bad("env_read_bad", "env-read-confinement");
    // Both the path form and the macro form are findings; the pin
    // function itself is exempt.
    assert!(stdout.contains("`env::var`"), "{stdout}");
    assert!(stdout.contains("`env::option_env`"), "{stdout}");
    assert!(stdout.contains("pinned_mode"), "{stdout}");
    assert!(!stdout.contains("fn `pinned_mode`"), "{stdout}");
}

#[test]
fn pinned_env_read_tree_is_clean() {
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
// --fix-dead-allows: dry-run previews, the real thing rewrites
// ---------------------------------------------------------------------------

/// Copies a fixture tree into the target tmpdir so the fixer can write.
fn scratch_copy(tree: &str, dest_name: &str) -> PathBuf {
    let src = fixture(tree);
    let dest = Path::new(env!("CARGO_TARGET_TMPDIR")).join(dest_name);
    std::fs::remove_dir_all(&dest).ok();
    std::fs::create_dir_all(dest.join("src")).expect("mkdir");
    for rel in ["skylint.toml", "src/lib.rs"] {
        std::fs::copy(src.join(rel), dest.join(rel)).expect("copy fixture file");
    }
    dest
}

#[test]
fn fix_dead_allows_dry_run_prints_a_diff_and_writes_nothing() {
    let tree = scratch_copy("dead_allow_bad", "fix_dry_run");
    let before = std::fs::read_to_string(tree.join("src/lib.rs")).expect("read");
    let out = skylint(&[
        "check",
        "--root",
        tree.to_str().expect("utf-8 path"),
        "--fix-dead-allows",
        "--dry-run",
    ]);
    // Dry-run keeps check semantics: the dead-allow still counts.
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("- "), "expected a -/+ diff in:\n{stdout}");
    assert!(stdout.contains("skylint: allow(no-panic-paths)"), "{stdout}");
    let after = std::fs::read_to_string(tree.join("src/lib.rs")).expect("read");
    assert_eq!(before, after, "--dry-run must not modify the tree");
}

#[test]
fn fix_dead_allows_rewrites_the_tree_to_clean() {
    let tree = scratch_copy("dead_allow_bad", "fix_apply");
    let root = tree.to_str().expect("utf-8 path");
    let out = skylint(&["check", "--root", root, "--fix-dead-allows"]);
    // Repaired dead-allows no longer count as violations.
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("removed 1 stale allow"), "{stdout}");
    let after = std::fs::read_to_string(tree.join("src/lib.rs")).expect("read");
    assert!(!after.contains("skylint: allow"), "annotation must be gone:\n{after}");
    // The rewritten tree now checks clean end to end.
    let recheck = skylint(&["check", "--root", root]);
    assert_eq!(recheck.status.code(), Some(0));
}

#[test]
fn dry_run_without_fix_flag_is_a_usage_error() {
    let root = fixture("clean_tree");
    let out = skylint(&["check", "--root", root.to_str().expect("utf-8 path"), "--dry-run"]);
    assert_eq!(out.status.code(), Some(2));
}

// ---------------------------------------------------------------------------
// Hard errors: exit 2 before any findings are produced
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// Report formats
// ---------------------------------------------------------------------------

#[test]
fn json_output_is_a_versioned_report_object() {
    let root = fixture("bad_tree");
    let out = skylint(&["check", "--json", "--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"schema\": \"skylint-report/3\""), "{stdout}");
    assert!(stdout.contains("\"rule\""), "{stdout}");
    assert!(stdout.contains("\"line\""), "{stdout}");
    assert!(stdout.contains("\"functions_analyzed\""), "{stdout}");
}

#[test]
fn json_report_matches_the_golden_file() {
    let root = fixture("bad_tree");
    let out = skylint(&["check", "--json", "--root", root.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let golden = include_str!("golden/bad_tree.json");
    assert_eq!(
        stdout, golden,
        "the --json report drifted from tests/golden/bad_tree.json; \
         if the schema changed intentionally, bump REPORT_SCHEMA and \
         regenerate the golden file"
    );
}

#[test]
fn bench_out_writes_a_record() {
    let root = fixture("clean_tree");
    let bench = Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_skylint_test.json");
    let out = skylint(&[
        "check",
        "--quiet",
        "--root",
        root.to_str().expect("utf-8 path"),
        "--bench-out",
        bench.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let record = std::fs::read_to_string(&bench).expect("bench record written");
    assert!(record.contains("\"skylint-bench/3\""), "{record}");
    assert!(record.contains("\"files_scanned\""), "{record}");
    assert!(record.contains("\"wall_ms\""), "{record}");
    assert!(record.contains("\"findings_per_rule\""), "{record}");
}

#[test]
fn explain_and_rules_subcommands() {
    let rules = skylint(&["rules"]);
    assert_eq!(rules.status.code(), Some(0));
    let listed = String::from_utf8_lossy(&rules.stdout);
    for rule in RULE_IDS {
        assert!(listed.contains(rule), "{listed}");
        let explained = skylint(&["explain", rule]);
        assert_eq!(explained.status.code(), Some(0), "explain {rule}");
        assert!(!explained.stdout.is_empty(), "explain {rule} printed nothing");
    }
    assert_eq!(skylint(&["explain", "bogus"]).status.code(), Some(2));
    assert_eq!(skylint(&["frobnicate"]).status.code(), Some(2));
}
