//! One runner per figure of the paper's evaluation (Section 7).
//!
//! Every function prints the same series the paper plots, as text tables.
//! `Scale::default()` shrinks dataset sizes so the full suite completes in
//! minutes; `Scale::full()` restores the paper's sizes (hours, like the
//! original experiments).

use skycache_core::{
    BaselineExecutor, BbsExecutor, CbcsConfig, MprMode, Overlap, QueryStats, ReplacementPolicy,
    SearchStrategy, Service, ServiceConfig,
};
use skycache_datagen::Distribution;
use skycache_geom::Constraints;
use skycache_storage::Table;

use crate::{
    filter_by_case, fmt_size, independent_queries, interactive_queries, print_header, print_row,
    real_estate_table, run_queries, split_by_stability, summarize, synthetic_table, zipf_queries,
    Summary,
};

/// Experiment scale knobs.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Dataset sizes for the size-scalability figures (5, 6, 8).
    pub sizes: Vec<usize>,
    /// Dataset size for the dimensionality figure (7).
    pub dim_study_n: usize,
    /// Dimensionalities for Figure 7.
    pub dims_fig7: Vec<usize>,
    /// Dimensionalities for Figure 9 with the exact MPR.
    pub dims_fig9_mpr: Vec<usize>,
    /// Dimensionalities for Figure 9 with the approximate MPR.
    pub dims_fig9_ampr: Vec<usize>,
    /// Dataset size for Figures 10 and 11.
    pub mid_n: usize,
    /// Real-estate dataset size (Figure 12).
    pub real_n: usize,
    /// Interactive workload length.
    pub interactive_queries: usize,
    /// Independent workload length.
    pub independent_queries: usize,
    /// Cache preload size for independent workloads.
    pub preload: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            sizes: vec![50_000, 100_000, 200_000, 300_000],
            dim_study_n: 100_000,
            dims_fig7: vec![6, 7, 8, 9, 10],
            dims_fig9_mpr: (2..=6).collect(),
            dims_fig9_ampr: (2..=8).collect(),
            mid_n: 200_000,
            real_n: 300_000,
            interactive_queries: 100,
            independent_queries: 100,
            preload: 300,
        }
    }
}

impl Scale {
    /// The paper's original sizes. Expect multi-hour runtimes, exactly as
    /// the original evaluation did.
    pub fn full() -> Self {
        Scale {
            sizes: vec![1_000_000, 2_000_000, 3_000_000, 4_000_000, 5_000_000],
            dim_study_n: 1_000_000,
            dims_fig7: vec![6, 7, 8, 9, 10],
            dims_fig9_mpr: (2..=7).collect(),
            dims_fig9_ampr: (2..=10).collect(),
            mid_n: 1_000_000,
            real_n: 1_280_000,
            interactive_queries: 500,
            independent_queries: 500,
            preload: 2_000,
        }
    }
}

fn ms(s: f64) -> String {
    format!("{:.0}ms", s * 1e3)
}

fn secs(s: f64) -> String {
    format!("{s:.3}s")
}

fn count(v: f64) -> String {
    format!("{v:.0}")
}

fn cbcs_config(mpr: MprMode, strategy: SearchStrategy) -> CbcsConfig {
    CbcsConfig { mpr, strategy, ..Default::default() }
}

/// Runs CBCS — one session of a fresh [`Service`] — over `queries`, after
/// a warm-up workload whose records are dropped.
fn run_cbcs(
    table: &Table,
    queries: &[Constraints],
    preload: &[Constraints],
    config: CbcsConfig,
) -> Vec<QueryStats> {
    let service = Service::open(table, ServiceConfig::with_cbcs(config));
    let mut session = service.session();
    run_queries(&mut session, preload);
    run_queries(&mut session, queries)
}

/// Average time, points read and range queries issued.
fn time_cells(s: &Summary) -> [String; 3] {
    [secs(s.avg_time_s), count(s.avg_points), count(s.avg_rq)]
}

/// Average points read and range queries issued and executed (Fig. 8).
fn points_cells(s: &Summary) -> [String; 3] {
    [count(s.avg_points), count(s.avg_rq), count(s.avg_rq_executed)]
}

/// One row for all of `records`, then one each for their stable and
/// unstable cache hits where there are any.
fn method_rows(label: &str, records: &[QueryStats], cells: fn(&Summary) -> [String; 3]) {
    print_row(label, &cells(&summarize(records)));
    let (stable, unstable) = split_by_stability(records);
    for (part, hits) in [("Stable", stable), ("Unstable", unstable)] {
        if !hits.is_empty() {
            print_row(&format!("{label} ({part})"), &cells(&summarize(hits)));
        }
    }
}

/// The Baseline and BBS rows over `queries`.
fn reference_rows(table: &Table, queries: &[Constraints]) {
    let baseline = summarize(&run_queries(&mut BaselineExecutor::new(table), queries));
    print_row("Baseline", &time_cells(&baseline));
    let bbs = summarize(&run_queries(&mut BbsExecutor::new(table), queries));
    print_row("BBS", &time_cells(&bbs));
}

fn size_columns() -> Vec<String> {
    vec!["avg time".into(), "pts read".into(), "range qs".into()]
}

/// Figures 5a–5c: runtime vs dataset size, |D| = 5, interactive
/// exploratory search, for all three distributions (aMPR uses 1 NN as in
/// the paper).
pub fn fig5(scale: &Scale) {
    println!("\n#### Figure 5: scalability with dataset size (|D|=5, interactive) ####");
    for dist in [Distribution::Independent, Distribution::Correlated, Distribution::AntiCorrelated]
    {
        for &n in &scale.sizes {
            let table = synthetic_table(dist, 5, n, 42);
            let queries = interactive_queries(&table, scale.interactive_queries, 17, None);
            print_header(
                &format!("Fig 5 [{}] |S| = {}", dist.label(), fmt_size(n)),
                &size_columns(),
            );

            reference_rows(&table, &queries);

            method_rows(
                "aMPR",
                &run_cbcs(&table, &queries, &[], CbcsConfig::default()),
                time_cells,
            );
        }
    }
}

/// Figure 6: runtime vs dataset size, |D| = 3 independent, with the exact
/// MPR included.
pub fn fig6(scale: &Scale) {
    println!("\n#### Figure 6: scalability with dataset size (|D|=3, independent data, interactive) ####");
    for &n in &scale.sizes {
        let table = synthetic_table(Distribution::Independent, 3, n, 42);
        let queries = interactive_queries(&table, scale.interactive_queries, 17, None);
        print_header(&format!("Fig 6 |S| = {}", fmt_size(n)), &size_columns());

        reference_rows(&table, &queries);

        let exact = CbcsConfig { mpr: MprMode::Exact, ..Default::default() };
        method_rows("MPR", &run_cbcs(&table, &queries, &[], exact), time_cells);
        method_rows("aMPR", &run_cbcs(&table, &queries, &[], CbcsConfig::default()), time_cells);
    }
}

/// Figure 7: runtime vs dimensionality (|D| in 6..10; only the first 5
/// dimensions are constrained, per the paper's setup).
pub fn fig7(scale: &Scale) {
    println!("\n#### Figure 7: efficiency with increasing dimensionality (|S| = {}, 5 constrained dims) ####",
        fmt_size(scale.dim_study_n));
    for &d in &scale.dims_fig7 {
        let table = synthetic_table(Distribution::Independent, d, scale.dim_study_n, 42);
        let queries = interactive_queries(&table, scale.interactive_queries, 17, Some(5));
        print_header(&format!("Fig 7 |D| = {d}"), &size_columns());

        reference_rows(&table, &queries);

        method_rows("aMPR", &run_cbcs(&table, &queries, &[], CbcsConfig::default()), time_cells);
    }
}

/// Figures 8a/8b: average points read vs dataset size (|D| = 5 and 3).
pub fn fig8(scale: &Scale) {
    println!("\n#### Figure 8: avg points read from disk (independent data, interactive) ####");
    for (dims, with_mpr) in [(5usize, false), (3usize, true)] {
        for &n in &scale.sizes {
            let table = synthetic_table(Distribution::Independent, dims, n, 42);
            let queries = interactive_queries(&table, scale.interactive_queries, 17, None);
            print_header(
                &format!("Fig 8 |D| = {dims}, |S| = {}", fmt_size(n)),
                &["pts read".into(), "rq issued".into(), "rq executed".into()],
            );

            let mut baseline = BaselineExecutor::new(&table);
            let b = summarize(&run_queries(&mut baseline, &queries));
            print_row("Baseline", &points_cells(&b));

            if with_mpr {
                let exact = CbcsConfig { mpr: MprMode::Exact, ..Default::default() };
                method_rows("MPR", &run_cbcs(&table, &queries, &[], exact), points_cells);
            }
            method_rows(
                "aMPR",
                &run_cbcs(&table, &queries, &[], CbcsConfig::default()),
                points_cells,
            );
        }
    }
}

/// Figures 9a/9b: average number of range queries generated vs
/// dimensionality at |S| = 5k, for the exact MPR and aMPR with
/// 1/3/6/10 nearest neighbors, on both workloads.
pub fn fig9(scale: &Scale) {
    println!("\n#### Figure 9: avg number of range queries generated (|S| = 5k) ####");
    let modes: Vec<(String, MprMode)> = std::iter::once(("MPR".to_owned(), MprMode::Exact))
        .chain(
            [1usize, 3, 6, 10]
                .into_iter()
                .map(|k| (format!("aMPR({k}p)"), MprMode::Approximate { k })),
        )
        .collect();

    for interactive in [true, false] {
        let workload_name = if interactive { "interactive" } else { "independent" };
        let all_dims = &scale.dims_fig9_ampr;
        print_header(
            &format!("Fig 9 ({workload_name})"),
            all_dims.iter().map(|d| format!("|D|={d}")).collect::<Vec<_>>().as_slice(),
        );
        for (label, mode) in &modes {
            let exact = matches!(mode, MprMode::Exact);
            let mut cells = Vec::new();
            for &d in all_dims {
                if exact && !scale.dims_fig9_mpr.contains(&d) {
                    // The paper omits MPR beyond 7D: "just generating the
                    // range queries here took several hours".
                    cells.push("-".to_owned());
                    continue;
                }
                let table = synthetic_table(Distribution::Independent, d, 5_000, 42);
                let records = if interactive {
                    let queries = interactive_queries(&table, 60, 17, None);
                    run_cbcs(
                        &table,
                        &queries,
                        &[],
                        cbcs_config(*mode, SearchStrategy::MaxOverlapSP),
                    )
                } else {
                    let preload = independent_queries(&table, 60, 5, None);
                    let queries = independent_queries(&table, 30, 19, None);
                    let config = cbcs_config(*mode, SearchStrategy::prioritized_nd_std());
                    run_cbcs(&table, &queries, &preload, config)
                };
                // Average over cache hits (query/cache-item pairs).
                let hits = filter_by_case(&records, |_| true);
                let s = summarize(hits.iter().copied());
                cells.push(count(s.avg_rq.max(0.0)));
            }
            print_row(label, &cells);
        }
    }
}

/// Figure 10: average milliseconds per stage (processing / fetching /
/// skyline), |S| scaled from the paper's 1M, |D| = 3 independent.
pub fn fig10(scale: &Scale) {
    println!(
        "\n#### Figure 10: avg ms per stage (independent, |S| = {}, |D| = 3) ####",
        fmt_size(scale.mid_n)
    );
    let table = synthetic_table(Distribution::Independent, 3, scale.mid_n, 42);
    let queries = interactive_queries(&table, scale.interactive_queries, 17, None);
    print_header(
        "Fig 10",
        &["processing".into(), "fetching".into(), "skyline".into(), "total".into()],
    );

    let mut baseline = BaselineExecutor::new(&table);
    let b = summarize(&run_queries(&mut baseline, &queries));
    print_stage_row("Baseline", &b);

    // Prioritized1D surfaces the single-bound cases the figure reports.
    let config = CbcsConfig { strategy: SearchStrategy::Prioritized1D, ..Default::default() };
    let records = run_cbcs(&table, &queries, &[], config);
    let all = summarize(records.iter());
    print_stage_row("aMPR (all hits)", &all);
    for (label, want) in [
        ("aMPR Case 1", Overlap::CaseA { dim: 0 }.label()),
        ("aMPR Case 2", Overlap::CaseB { dim: 0 }.label()),
        ("aMPR Case 3", Overlap::CaseC { dim: 0 }.label()),
        ("aMPR Case 4", Overlap::CaseD { dim: 0 }.label()),
    ] {
        let slice = filter_by_case(&records, |c| c.label() == want);
        if slice.is_empty() {
            print_row(label, &["-".into(), "-".into(), "-".into(), "-".into()]);
        } else {
            let s = summarize(slice.iter().copied());
            print_stage_row(label, &s);
        }
    }
}

fn print_stage_row(label: &str, s: &Summary) {
    print_row(label, &[ms(s.stages_s[0]), ms(s.stages_s[1]), ms(s.stages_s[2]), ms(s.avg_time_s)]);
}

/// Figures 11a/11b: response time per cache search strategy.
pub fn fig11(scale: &Scale) {
    println!(
        "\n#### Figure 11: cache search strategies (independent data, |S| = {}, |D| = 5) ####",
        fmt_size(scale.mid_n)
    );
    let table = synthetic_table(Distribution::Independent, 5, scale.mid_n, 42);

    let strategies = [
        SearchStrategy::Random,
        SearchStrategy::MaxOverlap,
        SearchStrategy::MaxOverlapSP,
        SearchStrategy::Prioritized1D,
        SearchStrategy::prioritized_nd_std(),
        SearchStrategy::prioritized_nd_bad(),
        SearchStrategy::OptimumDistance,
    ];

    // (a) interactive workload, empty cache.
    let queries = interactive_queries(&table, scale.interactive_queries, 17, None);
    print_header("Fig 11a (interactive)", &size_columns());
    for strategy in &strategies {
        let config = CbcsConfig { strategy: strategy.clone(), ..Default::default() };
        let s = summarize(&run_cbcs(&table, &queries, &[], config));
        print_row(&strategy.label(), &time_cells(&s));
    }

    // (b) independent queries over a preloaded cache. The paper drops
    // Prioritized1D here (single-bound cases barely occur).
    let preload = independent_queries(&table, scale.preload, 5, None);
    let queries = independent_queries(&table, scale.independent_queries, 19, None);
    print_header("Fig 11b (independent, preloaded cache)", &size_columns());
    for strategy in &strategies {
        if *strategy == SearchStrategy::Prioritized1D {
            continue;
        }
        let config = CbcsConfig { strategy: strategy.clone(), ..Default::default() };
        let s = summarize(&run_cbcs(&table, &queries, &preload, config));
        print_row(&strategy.label(), &time_cells(&s));
    }
}

/// Figures 12a/12b: the real-estate dataset (4 dimensions).
pub fn fig12(scale: &Scale) {
    println!(
        "\n#### Figure 12: Danish-style property data (|S| = {}, |D| = 4) ####",
        fmt_size(scale.real_n)
    );
    let table = real_estate_table(scale.real_n, 2005);

    // (a) interactive exploratory search.
    let queries = interactive_queries(&table, scale.interactive_queries, 17, None);
    print_header("Fig 12a (interactive)", &size_columns());

    reference_rows(&table, &queries);

    method_rows("aMPR", &run_cbcs(&table, &queries, &[], CbcsConfig::default()), time_cells);

    // (b) independent queries, preloaded cache, varying #NN.
    let preload = independent_queries(&table, scale.preload, 5, None);
    let queries = independent_queries(&table, scale.independent_queries.clamp(25, 50), 19, None);
    print_header("Fig 12b (independent, preloaded cache)", &size_columns());
    reference_rows(&table, &queries);
    for k in [1usize, 5, 10] {
        let config = cbcs_config(MprMode::Approximate { k }, SearchStrategy::prioritized_nd_std());
        let s = summarize(&run_cbcs(&table, &queries, &preload, config));
        print_row(&format!("aMPR({k}p)"), &time_cells(&s));
    }
}

/// Ablation (Section 6.2, left as future work by the paper): LRU vs LCU
/// cache replacement under a small capacity, on interactive chains and on
/// a Zipf-skewed multi-user stream whose base-query pool exceeds the
/// cache.
pub fn ablation_replacement(scale: &Scale) {
    println!("\n#### Ablation: cache replacement policies (interactive, |D|=3) ####");
    let table = synthetic_table(Distribution::Independent, 3, scale.mid_n.min(200_000), 42);
    let queries = interactive_queries(&table, scale.interactive_queries.max(200), 17, None);
    replacement_rows(
        "replacement",
        &table,
        &queries,
        &[
            ("unbounded", None, ReplacementPolicy::Lru),
            ("LRU cap=8", Some(8), ReplacementPolicy::Lru),
            ("LCU cap=8", Some(8), ReplacementPolicy::Lcu),
            ("LRU cap=2", Some(2), ReplacementPolicy::Lru),
            ("LCU cap=2", Some(2), ReplacementPolicy::Lcu),
        ],
    );

    // A skewed multi-user stream whose pool of 96 query bases exceeds the
    // cache of 32.
    let n = scale.mid_n.min(100_000);
    let table = synthetic_table(Distribution::Independent, 4, n, 42);
    let queries = zipf_queries(&table, 400, 23, 96, 1.1, 0);
    replacement_rows(
        &format!("replacement (zipf, |D|=4, |S| = {})", fmt_size(n)),
        &table,
        &queries,
        &[
            ("unbounded", None, ReplacementPolicy::Lru),
            ("LRU cap=32", Some(32), ReplacementPolicy::Lru),
            ("LCU cap=32", Some(32), ReplacementPolicy::Lcu),
        ],
    );
}

/// One row per `(label, capacity, policy)`: average time, average and
/// total points read, and the share of queries answered from a cached
/// item.
fn replacement_rows(
    title: &str,
    table: &Table,
    queries: &[Constraints],
    rows: &[(&str, Option<usize>, ReplacementPolicy)],
) {
    let columns = ["avg time".into(), "pts read".into(), "total pts".into(), "hit rate".into()];
    print_header(title, &columns);
    for &(label, capacity, policy) in rows {
        let config = CbcsConfig { capacity, policy, ..Default::default() };
        let records = run_cbcs(table, queries, &[], config);
        let s = summarize(records.iter());
        let total: u64 = records.iter().map(|r| r.points_read).sum();
        let hits = records.iter().filter(|r| r.cache_hit).count();
        print_row(
            label,
            &[
                secs(s.avg_time_s),
                count(s.avg_points),
                total.to_string(),
                format!("{:.0}%", hits as f64 / records.len() as f64 * 100.0),
            ],
        );
    }
}

/// Ablation: the #NN knob of the aMPR (Section 5.3's trade-off) on both
/// workloads.
pub fn ablation_k(scale: &Scale) {
    println!("\n#### Ablation: aMPR nearest-neighbor count (|D|=4) ####");
    let table = synthetic_table(Distribution::Independent, 4, scale.mid_n.min(200_000), 42);
    for interactive in [true, false] {
        let name = if interactive { "interactive" } else { "independent" };
        print_header(&format!("aMPR k sweep ({name})"), &size_columns());
        let (preload, queries) = if interactive {
            (Vec::new(), interactive_queries(&table, scale.interactive_queries, 17, None))
        } else {
            (
                independent_queries(&table, scale.preload, 5, None),
                independent_queries(&table, scale.independent_queries.min(60), 19, None),
            )
        };
        for k in [0usize, 1, 2, 3, 5, 8, 10, 15] {
            let strategy = if interactive {
                SearchStrategy::MaxOverlapSP
            } else {
                SearchStrategy::prioritized_nd_std()
            };
            let config = cbcs_config(MprMode::Approximate { k }, strategy);
            let s = summarize(&run_cbcs(&table, &queries, &preload, config));
            print_row(&format!("k={k}"), &time_cells(&s));
        }
    }
}
