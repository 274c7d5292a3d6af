//! Workspace call graph and the dataflow analyses on top of it.
//!
//! Call edges are resolved **by name**, not by type — skylint has no type
//! inference. A method call `x.len()` therefore resolves to *every*
//! workspace method named `len`; a bare call to every free function of
//! that name; a path call `Q::f` to functions whose owner type, module or
//! file stem matches `Q`. That over-approximation is sound for the
//! analyses built here (reachability of panics, allocations and lock
//! acquisitions can only be over-reported, never missed within the
//! universe), and the universe is kept small on purpose: the engine feeds
//! in only library-crate, non-test functions.
//!
//! Three analyses:
//!
//! * [`Workspace::may_panic`] — fixpoint propagation of may-panic facts
//!   with a witness chain, skipping facts justified by allow annotations;
//! * [`Workspace::reachable_with_paths`] — BFS from designated kernel
//!   roots, remembering one call path per reached function;
//! * [`Workspace::lock_edges`] — the inter-procedural lock-acquisition
//!   graph: an edge `A → B` means `B` is acquired (directly, or anywhere
//!   inside a callee) while a guard on `A` is live.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::engine::file_in;
use crate::symbols::{Event, EventKind, FnDef, LockKind};

/// The resolved call graph over one scan's function universe.
pub struct Workspace {
    /// All function definitions, indexed by id.
    pub fns: Vec<FnDef>,
    /// Resolved callee ids per function, sorted and deduplicated.
    pub callees: Vec<Vec<usize>>,
    methods: BTreeMap<String, Vec<usize>>,
    free: BTreeMap<String, Vec<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// A may-panic verdict for one function: how the panic is reached and
/// where the underlying fact lives.
#[derive(Clone, Debug)]
pub struct PanicInfo {
    /// Callee chain from this function (exclusive) to the sink.
    pub chain: Vec<usize>,
    /// What panics (`.unwrap()`, `panic!`, `bracket indexing`, …).
    pub desc: String,
    /// File of the panic site.
    pub file: String,
    /// Line of the panic site.
    pub line: u32,
}

/// One lock-acquisition site, as used in graph edges and messages.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockSite {
    /// Lock identity (receiver field name).
    pub lock: String,
    /// Shared or exclusive.
    pub kind: LockKind,
    /// Declared `// lock-order:` phase, if annotated.
    pub phase: Option<String>,
    /// File of the acquisition.
    pub file: String,
    /// Line of the acquisition.
    pub line: u32,
}

impl PartialOrd for LockKind {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LockKind {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

/// An edge of the lock-acquisition graph: `to` is acquired while a guard
/// on `from` is live in `holder`.
#[derive(Clone, Debug)]
pub struct LockEdge {
    /// The held lock.
    pub from: LockSite,
    /// The lock acquired under it.
    pub to: LockSite,
    /// Qualified name of the function holding `from`.
    pub holder: String,
    /// Qualified callee name when the acquisition is inside a callee.
    pub via: Option<String>,
}

impl Workspace {
    /// Builds the graph from extracted definitions.
    pub fn build(fns: Vec<FnDef>) -> Workspace {
        let mut methods: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
            if f.owner.is_empty() {
                free.entry(f.name.clone()).or_default().push(i);
            } else {
                methods.entry(f.name.clone()).or_default().push(i);
            }
        }
        let mut ws = Workspace { fns, callees: Vec::new(), methods, free, by_name };
        ws.callees = (0..ws.fns.len())
            .map(|i| {
                let mut out: Vec<usize> = ws.fns[i]
                    .events
                    .iter()
                    .flat_map(|e| ws.resolve(i, e))
                    .filter(|&c| c != i)
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        ws
    }

    /// Total resolved call edges.
    pub fn edge_count(&self) -> usize {
        self.callees.iter().map(Vec::len).sum()
    }

    /// Candidate callee ids for one call event of `caller`.
    pub fn resolve(&self, caller: usize, e: &Event) -> Vec<usize> {
        match &e.kind {
            EventKind::Method { .. } => self.methods.get(&e.name).cloned().unwrap_or_default(),
            EventKind::Bare => self.free.get(&e.name).cloned().unwrap_or_default(),
            EventKind::Path { qual } => {
                let Some(q) = qual.last() else {
                    return self.free.get(&e.name).cloned().unwrap_or_default();
                };
                let q: &str =
                    if q == "Self" { self.fns[caller].owner.as_str() } else { q.as_str() };
                self.by_name
                    .get(&e.name)
                    .map(|ids| {
                        ids.iter()
                            .copied()
                            .filter(|&c| {
                                let f = &self.fns[c];
                                f.owner == q
                                    || file_stem(&f.file) == q
                                    || f.module.iter().any(|m| m == q)
                            })
                            .collect()
                    })
                    .unwrap_or_default()
            }
            _ => Vec::new(),
        }
    }

    /// Computes, per function, whether a panic is reachable and how.
    /// `fact` describes the unjustified panic an event amounts to, if any
    /// (`.unwrap()`, `panic!`, …); the first one in a function seeds it,
    /// and seeds propagate to callers with a witness chain.
    pub fn may_panic(
        &self,
        fact: &dyn Fn(&FnDef, &Event) -> Option<String>,
    ) -> Vec<Option<PanicInfo>> {
        let mut info: Vec<Option<PanicInfo>> = self
            .fns
            .iter()
            .map(|f| {
                f.events.iter().find_map(|e| {
                    fact(f, e).map(|desc| PanicInfo {
                        chain: Vec::new(),
                        desc,
                        file: f.file.clone(),
                        line: e.line,
                    })
                })
            })
            .collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                if info[i].is_some() {
                    continue;
                }
                for &c in &self.callees[i] {
                    if let Some(pi) = info[c].clone() {
                        let mut chain = vec![c];
                        chain.extend(pi.chain.iter().copied());
                        info[i] =
                            Some(PanicInfo { chain, desc: pi.desc, file: pi.file, line: pi.line });
                        changed = true;
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        info
    }

    /// BFS over call edges from `roots`; the value is one call path
    /// (function ids, root first) reaching each function.
    pub fn reachable_with_paths(&self, roots: &[usize]) -> BTreeMap<usize, Vec<usize>> {
        let mut paths: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut sorted: Vec<usize> = roots.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for r in sorted {
            paths.insert(r, vec![r]);
            queue.push_back(r);
        }
        while let Some(i) = queue.pop_front() {
            let base = paths.get(&i).cloned().unwrap_or_default();
            for &c in &self.callees[i] {
                if let std::collections::btree_map::Entry::Vacant(v) = paths.entry(c) {
                    let mut p = base.clone();
                    p.push(c);
                    v.insert(p);
                    queue.push_back(c);
                }
            }
        }
        paths
    }

    /// Direct acquisition sites of each function, as [`LockSite`]s.
    fn own_sites(&self) -> Vec<Vec<LockSite>> {
        self.fns
            .iter()
            .map(|f| {
                f.events
                    .iter()
                    .filter_map(|e| match &e.kind {
                        EventKind::Acquire { lock, kind, phase, .. } => Some(LockSite {
                            lock: lock.clone(),
                            kind: *kind,
                            phase: phase.clone(),
                            file: f.file.clone(),
                            line: e.line,
                        }),
                        _ => None,
                    })
                    .collect()
            })
            .collect()
    }

    /// The inter-procedural lock-acquisition graph, for functions defined
    /// in files under the `lock_files` prefixes. Edges are deduplicated by
    /// (locks, kinds, holder, via).
    pub fn lock_edges(&self, lock_files: &[String]) -> Vec<LockEdge> {
        let own = self.own_sites();
        // Transitive acquisition sets: what ends up locked anywhere below
        // each function. Deduplicate by (lock, kind) to bound the fixpoint.
        let mut trans = own.clone();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let mut add: Vec<LockSite> = Vec::new();
                for &c in &self.callees[i] {
                    for site in &trans[c] {
                        let dup = |s: &LockSite| s.lock == site.lock && s.kind == site.kind;
                        if !trans[i].iter().any(dup) && !add.iter().any(dup) {
                            add.push(site.clone());
                        }
                    }
                }
                if !add.is_empty() {
                    trans[i].extend(add);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut edges = Vec::new();
        let mut seen: BTreeSet<(String, LockKind, String, LockKind, String, Option<String>)> =
            BTreeSet::new();
        for (i, f) in self.fns.iter().enumerate() {
            if !file_in(&f.file, lock_files) {
                continue;
            }
            for a in &f.events {
                let EventKind::Acquire { lock, kind, held_until, phase } = &a.kind else {
                    continue;
                };
                let from = LockSite {
                    lock: lock.clone(),
                    kind: *kind,
                    phase: phase.clone(),
                    file: f.file.clone(),
                    line: a.line,
                };
                for e in &f.events {
                    if e.tok <= a.tok || e.tok > *held_until {
                        continue;
                    }
                    match &e.kind {
                        EventKind::Acquire { lock: l2, kind: k2, phase: p2, .. } => {
                            let to = LockSite {
                                lock: l2.clone(),
                                kind: *k2,
                                phase: p2.clone(),
                                file: f.file.clone(),
                                line: e.line,
                            };
                            let key = (
                                from.lock.clone(),
                                from.kind,
                                to.lock.clone(),
                                to.kind,
                                f.qualified(),
                                None,
                            );
                            if seen.insert(key) {
                                edges.push(LockEdge {
                                    from: from.clone(),
                                    to,
                                    holder: f.qualified(),
                                    via: None,
                                });
                            }
                        }
                        EventKind::Method { .. } | EventKind::Bare | EventKind::Path { .. } => {
                            for c in self.resolve(i, e) {
                                for site in &trans[c] {
                                    let via = Some(self.fns[c].qualified());
                                    let key = (
                                        from.lock.clone(),
                                        from.kind,
                                        site.lock.clone(),
                                        site.kind,
                                        f.qualified(),
                                        via.clone(),
                                    );
                                    if seen.insert(key) {
                                        edges.push(LockEdge {
                                            from: from.clone(),
                                            to: site.clone(),
                                            holder: f.qualified(),
                                            via,
                                        });
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        edges
    }
}

/// Finds directed cycles among *distinct* locks in the edge set; each
/// cycle is reported once, as the lock names in path order starting from
/// the lexicographically smallest.
pub fn lock_cycles(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        if e.from.lock != e.to.lock {
            adj.entry(&e.from.lock).or_default().insert(&e.to.lock);
        }
    }
    let mut found: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut stack: Vec<&str> = vec![start];
        let mut iters: Vec<Vec<&str>> =
            vec![adj.get(start).map(|s| s.iter().copied().collect()).unwrap_or_default()];
        while let Some(next_set) = iters.last_mut() {
            match next_set.pop() {
                Some(n) => {
                    if let Some(pos) = stack.iter().position(|&s| s == n) {
                        let cycle: Vec<&str> = stack[pos..].to_vec();
                        found.insert(canonical_cycle(&cycle));
                    } else if stack.len() < nodes.len() {
                        stack.push(n);
                        iters.push(
                            adj.get(n).map(|s| s.iter().copied().collect()).unwrap_or_default(),
                        );
                    }
                }
                None => {
                    stack.pop();
                    iters.pop();
                }
            }
        }
    }
    found.into_iter().collect()
}

/// Rotates a cycle so it starts at its smallest lock name.
fn canonical_cycle(cycle: &[&str]) -> Vec<String> {
    let min = cycle.iter().enumerate().min_by_key(|(_, s)| **s).map(|(i, _)| i).unwrap_or(0);
    cycle[min..].iter().chain(cycle[..min].iter()).map(|s| (*s).to_owned()).collect()
}

fn file_stem(file: &str) -> &str {
    file.rsplit('/').next().unwrap_or(file).trim_end_matches(".rs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceModel;
    use crate::parser::parse;
    use crate::symbols::extract_fns;

    fn workspace(files: &[(&str, &str)]) -> Workspace {
        let mut fns = Vec::new();
        for (path, src) in files {
            let model = SourceModel::build((*path).to_owned(), src);
            let file = parse(&model.tokens);
            fns.extend(extract_fns(&model, &file).into_iter().filter(|f| !f.in_test));
        }
        Workspace::build(fns)
    }

    fn id(ws: &Workspace, name: &str) -> usize {
        ws.fns.iter().position(|f| f.name == name).unwrap_or_else(|| panic!("no fn {name}"))
    }

    #[test]
    fn transitive_panic_with_witness_chain() {
        let ws = workspace(&[(
            "lib/src/a.rs",
            "pub fn api(xs: &[u32]) -> u32 { mid(xs) }\n\
             fn mid(xs: &[u32]) -> u32 { deep(xs) }\n\
             fn deep(xs: &[u32]) -> u32 { xs.first().unwrap().wrapping_add(1) }\n",
        )]);
        let info = ws.may_panic(&|_, e| (e.name == "unwrap").then(|| ".unwrap()".to_owned()));
        let api = info[id(&ws, "api")].as_ref().expect("api must reach a panic");
        assert_eq!(api.desc, ".unwrap()");
        let names: Vec<&str> = api.chain.iter().map(|&c| ws.fns[c].name.as_str()).collect();
        assert_eq!(names, vec!["mid", "deep"]);
        assert_eq!(api.line, 3);
    }

    #[test]
    fn justified_facts_do_not_propagate() {
        let ws = workspace(&[(
            "lib/src/a.rs",
            "pub fn api(xs: &[u32]) -> u32 { deep(xs) }\n\
             fn deep(xs: &[u32]) -> u32 { *xs.first().unwrap() }\n",
        )]);
        let info = ws.may_panic(&|_, _| None);
        assert!(info.iter().all(Option::is_none));
    }

    #[test]
    fn kernel_reachability_records_a_path() {
        let ws = workspace(&[(
            "lib/src/k.rs",
            "pub fn kernel(xs: &mut Vec<f64>) { stage(xs); }\n\
             fn stage(xs: &mut Vec<f64>) { finish(xs); }\n\
             fn finish(xs: &mut Vec<f64>) { xs.clear(); }\n\
             fn unrelated() {}\n",
        )]);
        let reach = ws.reachable_with_paths(&[id(&ws, "kernel")]);
        assert!(reach.contains_key(&id(&ws, "finish")));
        assert!(!reach.contains_key(&id(&ws, "unrelated")));
        let path = &reach[&id(&ws, "finish")];
        let names: Vec<&str> = path.iter().map(|&c| ws.fns[c].name.as_str()).collect();
        assert_eq!(names, vec!["kernel", "stage", "finish"]);
    }

    #[test]
    fn lock_edges_intra_and_inter_procedural() {
        let ws = workspace(&[(
            "lib/src/shared.rs",
            "impl Pair {\n\
                 pub fn ab(&self) {\n\
                     let ga = self.a.read(); // lock-order: read\n\
                     let gb = self.b.read(); // lock-order: read\n\
                     drop((ga, gb));\n\
                 }\n\
                 pub fn holds_a_calls_locker(&self) {\n\
                     let ga = self.a.read(); // lock-order: read\n\
                     self.lock_b();\n\
                     drop(ga);\n\
                 }\n\
                 fn lock_b(&self) {\n\
                     let gb = self.b.write(); // lock-order: write\n\
                     drop(gb);\n\
                 }\n\
             }\n",
        )]);
        let edges = ws.lock_edges(&["lib/src".to_owned()]);
        assert!(edges.iter().any(|e| e.from.lock == "a" && e.to.lock == "b" && e.via.is_none()));
        assert!(edges.iter().any(|e| e.from.lock == "a"
            && e.to.lock == "b"
            && e.via.as_deref() == Some("Pair::lock_b")));
    }

    #[test]
    fn cycle_detection_across_functions() {
        let ws = workspace(&[(
            "lib/src/shared.rs",
            "impl Pair {\n\
                 pub fn ab(&self) {\n\
                     let ga = self.a.write(); // lock-order: write\n\
                     let gb = self.b.write(); // lock-order: write\n\
                     drop((ga, gb));\n\
                 }\n\
                 pub fn ba(&self) {\n\
                     let gb = self.b.write(); // lock-order: write\n\
                     let ga = self.a.write(); // lock-order: write\n\
                     drop((ga, gb));\n\
                 }\n\
             }\n",
        )]);
        let cycles = lock_cycles(&ws.lock_edges(&["lib/src".to_owned()]));
        assert_eq!(cycles, vec![vec!["a".to_owned(), "b".to_owned()]]);
    }

    #[test]
    fn temporary_guards_produce_no_edges() {
        let ws = workspace(&[(
            "lib/src/shared.rs",
            "impl S {\n\
                 pub fn counts(&self) -> (usize, usize) {\n\
                     let n = self.a.read().len(); // lock-order: read\n\
                     let m = self.b.read().len(); // lock-order: read\n\
                     (n, m)\n\
                 }\n\
             }\n",
        )]);
        assert!(ws.lock_edges(&["lib/src".to_owned()]).is_empty());
    }
}
