//! Fixture tests: every rule fires on its known-bad fixture and stays
//! silent on the known-clean ones.
//!
//! Fixtures live under `tests/fixtures/` and are scanned in memory with
//! [`skylint::scan_source`] under a synthetic policy whose path lists
//! point at a fake `lib/src/` tree, so the tests are independent of the
//! real repository policy in `skylint.toml`.

use skylint::{scan_source, Finding, Policy};

/// Policy for the fake `lib/` crate the fixtures pretend to live in.
fn policy() -> Policy {
    let list = |items: &[&str]| items.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
    Policy {
        include: list(&["lib"]),
        exclude: vec![],
        library_paths: list(&["lib"]),
        index_strict_files: list(&["lib/src/strict.rs"]),
        float_files: list(&["lib/src/geom.rs"]),
        float_fields: list(&["lo", "hi"]),
        spawn_allowed: list(&["lib/src/par.rs"]),
        required_headers: list(&["#![warn(missing_docs)]", "#![forbid(unsafe_code)]"]),
        lock_graph_files: list(&["lib/src/shared.rs"]),
        alloc_kernels: list(&["kernel"]),
        alloc_scope_files: list(&["lib/src"]),
        alloc_calls: list(&["Vec::new", "push", "clone", "to_vec", "collect"]),
        guard_span_files: list(&["lib/src"]),
        expensive_calls: list(&["expensive_fetch"]),
        taint_files: list(&["lib/src"]),
        taint_validators: list(&["clamped"]),
        sync_confine_files: list(&["lib/src/confined.rs"]),
    }
}

fn findings(path: &str, src: &str) -> Vec<Finding> {
    scan_source(path, src, &policy()).expect("fixture annotations are well-formed")
}

/// Asserts every finding carries `rule` and that there are `count` of them.
fn assert_only(found: &[Finding], rule: &str, count: usize) {
    let pretty: Vec<String> =
        found.iter().map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message)).collect();
    assert_eq!(found.len(), count, "expected {count} findings, got:\n{}", pretty.join("\n"));
    for f in found {
        assert_eq!(f.rule, rule, "unexpected rule in:\n{}", pretty.join("\n"));
    }
}

// ---------------------------------------------------------------------------
// no-panic-paths
// ---------------------------------------------------------------------------

#[test]
fn bad_panics_fixture_is_flagged() {
    let found = findings("lib/src/panics.rs", include_str!("fixtures/bad/panics.rs"));
    // unwrap + expect + todo! + panic!
    assert_only(&found, "no-panic-paths", 4);
}

#[test]
fn bad_indexing_fixture_is_flagged_only_in_strict_files() {
    let src = include_str!("fixtures/bad/indexing.rs");
    let strict = findings("lib/src/strict.rs", src);
    assert_only(&strict, "no-panic-paths", 1);
    assert!(strict[0].message.contains("bracket indexing"), "{:?}", strict[0]);
    // The same source outside the index-strict list is clean.
    assert_only(&findings("lib/src/other.rs", src), "no-panic-paths", 0);
}

#[test]
fn panic_sites_are_read_from_fn_bodies_only() {
    // The boundary of reading panic sites from the event stream: events
    // exist inside fn bodies, so a module-level initializer is out of
    // sight (no library crate has one that can panic; rustc evaluates
    // `const` ones at compile time). The same call in a fn is a finding.
    let src = r#"//! Fixture.
/// Module-level initializer: not an event.
pub static LIMIT: std::sync::LazyLock<usize> = std::sync::LazyLock::new(|| "4".parse().unwrap());

/// The same expression in a function body: a finding.
pub fn limit() -> usize {
    "4".parse().unwrap()
}
"#;
    let found = findings("lib/src/limits.rs", src);
    assert_only(&found, "no-panic-paths", 1);
    assert_eq!(found[0].line, 7, "{:?}", found[0]);
}

#[test]
fn transitive_panic_is_reported_at_the_public_api_by_the_same_rule() {
    let src = r#"//! Fixture.
/// Public entry point.
pub fn api(xs: &[u64]) -> u64 {
    helper(xs)
}

fn helper(xs: &[u64]) -> u64 {
    // skylint: allow(no-panic-paths) — seeded: justified sites do not propagate.
    let first = xs.first().unwrap();
    *xs.last().expect("non-empty") + first
}
"#;
    // The unjustified `.expect()` is a finding where it stands and the
    // witness on `api`; the justified `.unwrap()` is neither.
    let found = findings("lib/src/chain.rs", src);
    assert_only(&found, "no-panic-paths", 2);
    assert!(found[0].message.contains("pub fn `api` can reach .expect()"), "{:?}", found[0]);
    assert!(found[0].message.contains("via `helper`"), "{:?}", found[0]);
    assert_eq!((found[1].line, found[1].message.contains(".expect()")), (10, true));
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

#[test]
fn bad_wall_clock_fixture_is_flagged() {
    let found = findings("lib/src/timing.rs", include_str!("fixtures/bad/wall_clock.rs"));
    assert!(!found.is_empty());
    assert!(found.iter().all(|f| f.rule == "determinism"), "{found:?}");
    assert!(found.iter().any(|f| f.message.contains("wall clock")), "{found:?}");
}

#[test]
fn bad_hash_collections_fixture_is_flagged() {
    let found = findings("lib/src/dedup.rs", include_str!("fixtures/bad/hash_collections.rs"));
    // use-line HashMap + HashSet, the two type ascriptions, HashMap::new.
    assert_only(&found, "determinism", 5);
}

#[test]
fn bad_float_eq_fixture_is_flagged() {
    let found = findings("lib/src/geom.rs", include_str!("fixtures/bad/float_eq.rs"));
    // lo == hi, lo == 0.0, hi != 1.0.
    assert_only(&found, "determinism", 3);
    // Outside the float-strict list, raw float equality is not checked.
    assert_only(
        &findings("lib/src/elsewhere.rs", include_str!("fixtures/bad/float_eq.rs")),
        "determinism",
        0,
    );
}

// ---------------------------------------------------------------------------
// concurrency-hygiene
// ---------------------------------------------------------------------------

#[test]
fn bad_spawn_fixture_is_flagged_outside_the_lanes() {
    let src = include_str!("fixtures/bad/spawn.rs");
    let found = findings("lib/src/spawn.rs", src);
    assert_only(&found, "concurrency-hygiene", 1);
    // The sanctioned lane may spawn.
    assert_only(&findings("lib/src/par.rs", src), "concurrency-hygiene", 0);
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

#[test]
fn bad_lock_order_fixture_is_flagged() {
    let found = findings("lib/src/shared.rs", include_str!("fixtures/bad/lock_order.rs"));
    // Unannotated acquisition, undeclared phase, mislabeled kind, and a
    // read phase entered under a live write guard.
    assert_only(&found, "lock-order", 4);
    assert!(found.iter().any(|f| f.message.contains("carries no `// lock-order:")), "{found:?}");
    assert!(found.iter().any(|f| f.message.contains("not a declared phase")), "{found:?}");
    assert!(found.iter().any(|f| f.message.contains("contradicts the acquisition kind")));
    assert!(found.iter().any(|f| f.message.contains("contradicts the declared order")));
    // Outside `[rules.lock-order].files` the same source has no subject.
    assert_only(
        &findings("lib/src/elsewhere.rs", include_str!("fixtures/bad/lock_order.rs")),
        "-",
        0,
    );
}

// ---------------------------------------------------------------------------
// api-hygiene
// ---------------------------------------------------------------------------

#[test]
fn bad_crate_root_fixture_is_flagged() {
    let found = findings("lib/src/lib.rs", include_str!("fixtures/bad/crate_root.rs"));
    // Two missing required headers + missing `//!` crate docs.
    assert_only(&found, "api-hygiene", 3);
}

#[test]
fn bad_unsafe_fixture_is_flagged() {
    // `unsafe` is the compiler's to reject: the rule only insists that
    // every library crate root asks it to.
    let found = findings("lib/src/lib.rs", include_str!("fixtures/bad/unsafe_block.rs"));
    assert_only(&found, "api-hygiene", 1);
    assert!(found[0].message.contains("#![forbid(unsafe_code)]"), "{:?}", found[0]);
}

// ---------------------------------------------------------------------------
// Clean fixtures and exemptions
// ---------------------------------------------------------------------------

#[test]
fn allow_annotations_suppress_findings() {
    let found = findings("lib/src/allowed.rs", include_str!("fixtures/clean/allowed.rs"));
    assert_only(&found, "-", 0);
}

#[test]
fn cfg_test_regions_are_exempt() {
    let found = findings("lib/src/tested.rs", include_str!("fixtures/clean/test_region.rs"));
    assert_only(&found, "-", 0);
}

#[test]
fn float_field_method_calls_are_not_float_equality() {
    // Regression for the `hi.len() != lo.len()` false positive: a
    // float-field identifier followed by `.` is an access, not a value.
    let found = findings("lib/src/geom.rs", include_str!("fixtures/clean/geom.rs"));
    assert_only(&found, "-", 0);
}

#[test]
fn ordered_annotated_locks_are_clean() {
    let found = findings("lib/src/shared.rs", include_str!("fixtures/clean/shared.rs"));
    assert_only(&found, "-", 0);
}

#[test]
fn test_paths_are_exempt_from_library_rules() {
    // The worst fixture, relocated under tests/: nothing fires.
    let found = findings("lib/tests/panics.rs", include_str!("fixtures/bad/panics.rs"));
    assert_only(&found, "-", 0);
}

// ---------------------------------------------------------------------------
// guard-hold-span
// ---------------------------------------------------------------------------

#[test]
fn expensive_call_under_live_guard_is_flagged_with_witness() {
    let src = r#"//! Fixture.
/// Designated expensive call.
pub fn expensive_fetch() -> u64 {
    42
}

/// Indirection the fixpoint must see through.
pub fn refresh() -> u64 {
    expensive_fetch()
}

/// BAD: the read guard on `lock` is live across the transitive call.
pub fn fetch_under_guard(lock: &L) -> u64 {
    let g = lock.read();
    let v = refresh();
    drop(g);
    v
}
"#;
    let found = findings("lib/src/store.rs", src);
    assert_only(&found, "guard-hold-span", 1);
    assert!(found[0].message.contains("read guard"), "{}", found[0].message);
    assert!(found[0].message.contains("`refresh` → `expensive_fetch`"), "{}", found[0].message);
}

#[test]
fn expensive_call_after_guard_drop_is_clean() {
    let src = r#"//! Fixture.
/// Designated expensive call.
pub fn expensive_fetch() -> u64 {
    42
}

/// Clean: the guard dies at `drop` before the expensive call.
pub fn drop_then_fetch(lock: &L) -> u64 {
    let g = lock.read();
    drop(g);
    expensive_fetch()
}
"#;
    let found = findings("lib/src/store.rs", src);
    assert_only(&found, "-", 0);
}

// ---------------------------------------------------------------------------
// determinism: environment reads
// ---------------------------------------------------------------------------

#[test]
fn scattered_env_read_is_flagged() {
    let src = r#"//! Fixture.
/// BAD: ambient environment read in a library function.
pub fn scattered() -> Option<String> {
    std::env::var("MODE").ok()
}
"#;
    let found = findings("lib/src/config.rs", src);
    assert_only(&found, "determinism", 1);
    assert!(found[0].message.contains("scattered"), "{}", found[0].message);
    // The same read in a tool or test file is not library code.
    assert_only(&findings("tool/src/main.rs", src), "-", 0);
    assert_only(&findings("lib/tests/config.rs", src), "-", 0);
}

// ---------------------------------------------------------------------------
// range-taint
// ---------------------------------------------------------------------------

#[test]
fn unvalidated_decoded_length_reaching_a_sink_is_flagged() {
    let src = r#"//! Fixture.
/// BAD: the decoded `n` reaches the allocation sink unvalidated.
pub fn load(cur: &mut Cursor) -> Vec<u8> {
    let n = cur.get_u32_le() as usize;
    Vec::with_capacity(n)
}
"#;
    let found = findings("lib/src/decode.rs", src);
    assert_only(&found, "range-taint", 1);
    assert!(found[0].message.contains("get_u32_le"), "{}", found[0].message);
}

#[test]
fn length_validated_at_birth_is_clean() {
    let src = r#"//! Fixture.
/// Clean: the decode statement itself passes the validator.
pub fn load(cur: &mut Cursor) -> Vec<u8> {
    let n = clamped(cur.get_u32_le() as usize);
    Vec::with_capacity(n)
}
"#;
    let found = findings("lib/src/decode.rs", src);
    assert_only(&found, "-", 0);
}

// ---------------------------------------------------------------------------
// sync-confinement
// ---------------------------------------------------------------------------

#[test]
fn raw_primitives_in_a_confined_file_are_flagged() {
    let src = r#"//! Fixture.
use parking_lot::Mutex;
use std::sync::RwLock;

/// BAD: an unshimmed thread operation.
pub fn pause() {
    std::thread::yield_now();
}

/// Allowed: a pure capability probe.
pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Allowed: `Arc` carries no schedule point.
pub fn share(v: u64) -> std::sync::Arc<u64> {
    std::sync::Arc::new(v)
}
"#;
    // The parking_lot import, the std::sync::RwLock import and the
    // yield_now call; Arc and available_parallelism stay clean.
    let found = findings("lib/src/confined.rs", src);
    assert_only(&found, "sync-confinement", 3);
    // The same source outside the confined list is not checked.
    assert_only(&findings("lib/src/free.rs", src), "sync-confinement", 0);
}
