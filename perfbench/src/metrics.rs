//! The registry: every workload and metric name the benchmark reports, with
//! units, in the order `BENCHMARK.json` lists them. `tests/cli.rs` checks
//! the two agree.

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: &[&str] = &[
    "sheet_bulk",
    "avl_churn",
    "lang_height",
    "ag_eager_par1",
    "memo_eager_par2",
];

/// Printed with `--trace 0`: what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("update_overhead_x", "x"),
    ("init_overhead_x", "x"),
    ("live_bytes_per_node", "B"),
    ("peak_live_mib", "MiB"),
];

/// Printed with `--trace 1`: one layer each, named `<layer>.<metric>`.
/// `loop.*` is the closed-loop client's own view of update latency.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loop.update_p50_us", "us"),
    ("loop.update_p99_us", "us"),
    ("loop.updates_per_s", "1/s"),
    ("api.write_us", "us"),
    ("api.read_us", "us"),
    ("core.propagate_us", "us"),
    ("setup.construct_s", "s"),
    ("setup.build_s", "s"),
    ("setup.first_query_s", "s"),
    ("setup.conventional_s", "s"),
    ("core.executions_per_update", "count"),
    ("core.calls_per_update", "count"),
    ("core.reads_per_update", "count"),
    ("core.writes_per_update", "count"),
    ("core.comparisons_per_update", "count"),
    ("core.dirtied_per_update", "count"),
    ("core.propagation_steps_per_update", "count"),
    ("core.memo_probes_per_update", "count"),
    ("core.height_raises_per_update", "count"),
    ("core.wasted_share", "ratio"),
    ("core.cache_hit_share", "ratio"),
    ("core.change_share", "ratio"),
    ("core.dedup_share", "ratio"),
    ("core.coalesced_share", "ratio"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.edges_created_per_update", "count"),
    ("graph.edges_removed_per_update", "count"),
    ("exec_pool.parallel_levels_per_update", "count"),
    ("exec_pool.parallel_exec_share", "ratio"),
    ("exec_pool.worker_busy_share", "ratio"),
    ("exec_pool.level_width_hwm", "count"),
    ("mem.graph_core_bytes_per_node", "B"),
    ("mem.value_slab_bytes_per_node", "B"),
    ("mem.memo_bytes_per_node", "B"),
    ("mem.queues_bytes_per_node", "B"),
    ("mem.substrate_bytes_per_node", "B"),
    ("mem.allocs_per_update", "count"),
    ("mem.live_growth_bytes_per_update", "B"),
    ("mem.build_allocs_per_node", "count"),
    ("trace.overhead_pct", "%"),
];

/// Span names by the role their call plays in an update. `api.write_us`,
/// `api.read_us` and `core.propagate_us` sum the self time of these spans;
/// the stderr report breaks them out per name.
pub const WRITE_SPANS: &[&str] = &[
    "sheet.set_formulas",
    "trees.insert",
    "trees.insert_all",
    "trees.remove",
    "lang.set_field",
    "agkit.set_terminal",
    "core.batch",
];
pub const READ_SPANS: &[&str] = &[
    "sheet.value_at",
    "trees.rebalance",
    "trees.contains",
    "lang.call_method",
    "agkit.syn",
    "core.call",
];
pub const PROPAGATE_SPANS: &[&str] = &["core.propagate"];
