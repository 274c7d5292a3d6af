//! Self-tests over the real repository under the committed `skylint.toml`.
//! Running inside `cargo test` makes them part of the tier-1 gate:
//!
//! * the tree scans clean;
//! * every rule is *live*: fixtures prove a rule fires on synthetic code
//!   under a fixture's own config, but only a seeded defect in a real
//!   file proves the repository's config still points the rule at real
//!   code — a rule whose subject is gone fails here instead of rotting;
//! * the census behind the `no-panic-paths` merge stays what it was
//!   measured to be.

use std::path::{Path, PathBuf};

use skylint::{scan, Finding, Policy};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn report(findings: &[Finding]) -> String {
    let lines: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{} [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    lines.join("\n")
}

#[test]
fn repository_is_skylint_clean() {
    let root = repo_root();
    let policy = Policy::load(&root).expect("skylint.toml passes strict validation");
    let outcome = scan(&root, &policy).expect("scan repository");
    assert!(
        outcome.files_scanned > 50,
        "suspiciously few files scanned ({}) — is the include list broken?",
        outcome.files_scanned
    );
    assert!(
        outcome.findings.is_empty(),
        "the tree has skylint violations — run `cargo run -p skylint -- check`:\n{}",
        report(&outcome.findings)
    );
}

/// Copies every included directory (minus the excluded paths) into
/// `CARGO_TARGET_TMPDIR/<name>`, so a test can seed defects into real
/// files and scan them under the repository's own policy.
fn scratch_tree(name: &str) -> (PathBuf, Policy) {
    fn copy(from: &Path, to: &Path, rel: &str, exclude: &[String]) {
        if exclude.iter().any(|e| e == rel) {
            return;
        }
        if from.is_dir() {
            std::fs::create_dir_all(to).expect("mkdir");
            for entry in std::fs::read_dir(from).expect("read_dir").flatten() {
                let name = entry.file_name();
                let rel = format!("{rel}/{}", name.to_string_lossy());
                copy(&entry.path(), &to.join(&name), &rel, exclude);
            }
        } else {
            std::fs::copy(from, to).expect("copy file");
        }
    }
    let root = repo_root();
    let policy = Policy::load(&root).expect("load policy");
    let tree = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&tree).ok();
    std::fs::create_dir_all(&tree).expect("mkdir");
    for inc in &policy.include {
        copy(&root.join(inc), &tree.join(inc), inc, &policy.exclude);
    }
    (tree, policy)
}

/// Scans `tree` with `file` edited — the unique occurrence of `from`
/// replaced by `to` — and restores the file afterwards.
fn scan_seeded(tree: &Path, policy: &Policy, file: &str, from: &str, to: &str) -> Vec<Finding> {
    let path = tree.join(file);
    let original = std::fs::read_to_string(&path).expect("read file to seed");
    assert_eq!(original.matches(from).count(), 1, "{file}: seed anchor {from:?} must be unique");
    std::fs::write(&path, original.replacen(from, to, 1)).expect("write seeded file");
    let outcome = scan(tree, policy).expect("scan seeded tree");
    std::fs::write(&path, original).expect("restore file");
    outcome.findings
}

/// One seeded defect per rule (two for `determinism`, whose name-ban and
/// event halves are separate code): `(rule, file, from, to)`.
const SEEDS: [(&str, &str, &str, &str); 12] = [
    (
        "no-panic-paths",
        "crates/storage/src/persist.rs",
        "let dims = buf.get_u32_le() as usize;",
        "let dims = usize::try_from(buf.get_u32_le()).unwrap();",
    ),
    // The one crate that parses bytes from a socket is under the rule.
    (
        "no-panic-paths",
        "crates/serve/src/proto.rs",
        "let verb = tokens.next().ok_or_else(|| \"empty request\".to_owned())?;",
        "let verb = tokens.next().unwrap();",
    ),
    (
        "determinism",
        "crates/core/src/mpr.rs",
        "    let invalidated_pieces = pieces.len();\n",
        "    let invalidated_pieces = pieces.len();\n    let _t = std::time::Instant::now();\n",
    ),
    (
        "determinism",
        "crates/geom/src/float.rs",
        "pub fn exact_eq(a: f64, b: f64) -> bool {\n",
        "pub fn exact_eq(a: f64, b: f64) -> bool {\n    let _ = std::env::var(\"EPS\");\n",
    ),
    (
        "concurrency-hygiene",
        "crates/algos/src/planar.rs",
        "pub fn planar_applicable(dims: usize) -> bool {\n",
        "pub fn planar_applicable(dims: usize) -> bool {\n    std::thread::spawn(|| {});\n",
    ),
    ("api-hygiene", "crates/rtree/src/lib.rs", "#![forbid(unsafe_code)]\n", ""),
    (
        "sync-confinement",
        "crates/core/src/shared.rs",
        "use skycheck::sync::{Arc, AtomicU64, Ordering, RwLock};\n",
        "use skycheck::sync::{Arc, AtomicU64, Ordering, RwLock};\n\
         use std::sync::Mutex as RawMutex;\n",
    ),
    (
        "lock-order",
        "crates/core/src/shared.rs",
        "self.inner.master.write().touch(id); // lock-order: write",
        "self.inner.master.write().touch(id);",
    ),
    (
        "hot-path-alloc",
        "crates/core/src/mpr.rs",
        "    let mut cover: Option<Vec<Interval>> = None;\n",
        "    let mut cover: Option<Vec<Interval>> = None;\n    let _lo = old.lo().to_vec();\n",
    ),
    (
        "guard-hold-span",
        "crates/core/src/shared.rs",
        "let written = write(&mut master);\n",
        "let written = write(&mut master);\n        planner.plan();\n",
    ),
    (
        "range-taint",
        "crates/storage/src/persist.rs",
        "let n = checked_len(buf.get_u64_le(), dims * 8, &buf, \"slot count\")?;",
        "let n = buf.get_u64_le() as usize;",
    ),
    (
        "dead-allow",
        "crates/storage/src/persist.rs",
        "tail.try_into().expect(\"8 bytes\")",
        "tail.try_into().unwrap_or([0; 8])",
    ),
];

#[test]
fn every_rule_is_live_on_the_real_tree() {
    let (tree, policy) = scratch_tree("skylint_liveness");
    for rule in skylint::rules::RULE_IDS {
        assert!(SEEDS.iter().any(|s| s.0 == rule), "no seeded defect exercises `{rule}`");
    }
    for (rule, file, from, to) in SEEDS {
        let found = scan_seeded(&tree, &policy, file, from, to);
        assert!(
            found.iter().any(|f| f.rule == rule && f.file == file),
            "`{rule}` is dead on the real tree: seeding {to:?} into {file} is not reported \
             there — has its section of skylint.toml lost its subject?\n{}",
            report(&found)
        );
        assert!(
            found.iter().all(|f| f.rule == rule),
            "seeding a `{rule}` defect into {file} woke another rule:\n{}",
            report(&found)
        );
    }
    // The lock-order kind check, beside the missing-annotation arm above:
    // a `write` acquisition relabelled `read`.
    let flipped = scan_seeded(
        &tree,
        &policy,
        "crates/core/src/shared.rs",
        "let mut master = self.inner.master.write(); // lock-order: write",
        "let mut master = self.inner.master.write(); // lock-order: read",
    );
    assert!(flipped.iter().all(|f| f.rule == "lock-order") && !flipped.is_empty());
}

#[test]
fn panic_census_matches_the_merge_ledger() {
    // With every `allow(no-panic-paths)` disabled, the one merged rule
    // must print what the two rules it replaced printed (DESIGN.md §9.11):
    // one direct site per disabled annotation, and the same public-API
    // witnesses. The numbers are a census of the tree — they move when a
    // justified panic site is added or removed, and only then.
    let (tree, policy) = scratch_tree("skylint_census");
    let mut disabled = 0;
    for file in policy.library_paths.iter().flat_map(|p| rs_files(&tree.join(p))) {
        let src = std::fs::read_to_string(&file).expect("read");
        disabled += src.matches("// skylint: allow(no-panic-paths)").count();
        let off = src.replace("// skylint: allow(no-panic-paths)", "// justified:");
        std::fs::write(&file, off).expect("write");
    }
    let found = scan(&tree, &policy).expect("scan").findings;
    assert!(found.iter().all(|f| f.rule == "no-panic-paths"), "{}", report(&found));
    let (witnesses, direct): (Vec<_>, Vec<_>) =
        found.iter().partition(|f| f.message.contains("can reach"));
    assert_eq!((disabled, direct.len()), (20, 20), "direct sites:\n{}", report(&found));
    // 38 at the parent of the merge, less three public functions deleted
    // since (`sample_skyline_fraction`, `Adaptive::choice`,
    // `BbsExecutor::with_config`), plus the two `Server` entry points
    // that joined the library universe with `crates/serve`. 35 → 29 with
    // the obs merges: `Registry::merge` and `QueryReport::merge` are
    // deleted, and with them the name-only `merge` edge through which
    // `Node::mbr`, `RStarTree::mbr`, `BestFirst::new`, the R-tree's kNN
    // query (since deleted) and `bbs_constrained` reached a panic;
    // `QueryStats::report` is new (its `Registry::set` name-matches
    // `Cache::insert`). 29 → 28: `SnapshotDir::load` (reaching
    // `Table::load`) is deleted with its type. 28 → 25 with one CBCS
    // holder: the exclusive and the dynamic executor's constructors and
    // `Service::session` reached the per-executor state's bounds
    // `expect`, which is now `Service::open`'s own; the dynamic
    // executor's `insert` and `delete` went with their type, and
    // `Service::{insert, delete}` are new and reach what those did.
    // 25 → 21 with single-item planning: `plan` and
    // `missing_points_region` hold the planner's sites themselves now
    // (the multi-part planner's primary-part `expect`, a direct site, is
    // gone: 23 → 22 direct), `Registry::set` is deleted and
    // `QueryStats::report` reached a panic only through it, and
    // `Cache::insert_with_cost`, now a forward, takes `Cache::insert`'s
    // place. 22 → 20 direct with one skyline algorithm: BNL's window
    // `expect` went with BNL, and the `expect` of `PointBlock`'s
    // `From<&[Point]>` (no caller) with the impl; `Sfs::compute`'s stays,
    // an inherent method now, and the witnesses do not move.
    let in_serve = witnesses.iter().filter(|f| f.file.starts_with("crates/serve/")).count();
    assert_eq!((witnesses.len() - in_serve, in_serve), (21, 2), "witnesses:\n{}", report(&found));
}

/// Every `.rs` file at or under `path`.
fn rs_files(path: &Path) -> Vec<PathBuf> {
    if path.is_dir() {
        let entries = std::fs::read_dir(path).expect("read_dir").flatten();
        entries.flat_map(|e| rs_files(&e.path())).collect()
    } else if path.extension().is_some_and(|e| e == "rs") {
        vec![path.to_owned()]
    } else {
        Vec::new()
    }
}
