//! The names, units and directions of every metric the benchmark reports —
//! the single list `BENCHMARK.json` is generated from and every run's
//! output is checked against.

use crate::sys::Json;
use crate::templates::TEMPLATES;
use crate::workload::WORKLOADS;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 12;

/// An end-to-end metric: name, unit, better direction, regression bound.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// The end-to-end metrics, measured with tracing off and a clock outside the
/// program. The three times are the fast decile over the run's rounds
/// (`main.rs`, `FAST`): this shared machine slows memory-bound work by
/// 1.2–2× for seconds to minutes at a time, medians over a run follow those
/// spells (spreads of 14–24% between runs of the same code), the fast decile
/// follows the program (4–10% in the same runs; README.md). The medians stay
/// in every report and as per-layer `latency.p50_gm_ms`. The share of failed
/// requests is not among them because a metric that is 0 on a healthy run
/// cannot carry a relative bound; it is the `failed / attempted` pair of
/// every result line and fails the command. The p90 geomean is a per-layer
/// metric (`latency.p90_gm_ms`): one busy spell moves a run's tail by a
/// fifth, so it explains but cannot gate. The time-based bounds are the
/// widest the contract allows; memory does not care.
pub const END_TO_END: [EndToEnd; 5] = [
    ("latency_p10_gm_ms", "ms", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("cpu_ms_per_query", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
];

/// A per-layer metric: name, unit, better direction.
pub type PerLayer = (String, &'static str, &'static str);

/// The per-layer metrics of the traced pass.
pub fn per_layer() -> Vec<PerLayer> {
    let fixed: [(&str, &str, &str); 47] = [
        ("sql.plan_us", "us", "lower"),
        ("sql.cache_text_us", "us", "lower"),
        ("optimizer.optimize_us", "us", "lower"),
        ("optimizer.qerror_gm", "ratio", "lower"),
        ("optimizer.reordered", "count", "higher"),
        ("sc.compile_us", "us", "lower"),
        ("sc.cgen_us", "us", "lower"),
        ("sc.c_bytes", "bytes", "lower"),
        ("frontend.share", "ratio", "lower"),
        ("load.ms", "ms", "lower"),
        ("load.share", "ratio", "lower"),
        ("load.resident_mb", "MB", "lower"),
        ("exec.ms", "ms", "lower"),
        ("exec.share", "ratio", "lower"),
        ("exec.ns_per_row", "ns", "lower"),
        ("exec.bytes_per_row", "bytes", "lower"),
        ("pool.par_ratio", "ratio", "lower"),
        ("storage.unpack_gbps", "GB/s", "higher"),
        ("machine.membw_gbps", "GB/s", "higher"),
        ("machine.spin_ms", "ms", "lower"),
        ("tpch.generate_s", "s", "lower"),
        ("archive.write_s", "s", "lower"),
        ("archive.open_ms", "ms", "lower"),
        ("archive.bytes", "bytes", "lower"),
        ("archive.mapped_mb", "MB", "higher"),
        ("service.plan_hit_rate", "ratio", "higher"),
        ("service.prepared_hit_rate", "ratio", "higher"),
        ("service.queries_ok", "count", "higher"),
        ("service.queries_rejected", "count", "lower"),
        ("service.queries_expired", "count", "lower"),
        ("service.queries_panicked", "count", "lower"),
        ("service.overhead_us", "us", "lower"),
        ("wire.encode_request_us", "us", "lower"),
        ("wire.decode_request_us", "us", "lower"),
        ("wire.encode_batch_mbps", "MB/s", "higher"),
        ("wire.decode_batch_mbps", "MB/s", "higher"),
        ("wire.frame_roundtrip_us", "us", "lower"),
        ("wire.result_bytes_per_query", "bytes", "lower"),
        ("tcp.transport_us", "us", "lower"),
        ("tcp.connect_ms", "ms", "lower"),
        ("tcp.vs_inproc_ratio", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
        ("latency.mean_ms", "ms", "lower"),
        ("latency.p50_gm_ms", "ms", "lower"),
        ("latency.p90_gm_ms", "ms", "lower"),
        ("setup.warmup_s", "s", "lower"),
    ];
    let mut all: Vec<PerLayer> = fixed.iter().map(|(n, u, b)| (n.to_string(), *u, *b)).collect();
    all.extend(TEMPLATES.iter().map(|t| (format!("tpl.{}.p50_ms", t.name), "ms", "lower")));
    all
}

/// Unit of every metric, by name.
pub fn units() -> std::collections::BTreeMap<String, &'static str> {
    let mut units: std::collections::BTreeMap<String, &'static str> =
        END_TO_END.iter().map(|m| (m.0.to_string(), m.1)).collect();
    units.extend(per_layer().into_iter().map(|(name, unit, _)| (name, unit)));
    units
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!("    {}", Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {}",
                Json::obj([
                    ("name", Json::str(*name)),
                    ("unit", Json::str(*unit)),
                    ("better", Json::str(*better)),
                    ("bound", Json::Num(*bound)),
                ])
            )
        })
        .collect();
    let per_layer: Vec<String> = per_layer()
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "    {}",
                Json::obj([
                    ("name", Json::str(name.as_str())),
                    ("unit", Json::str(*unit)),
                    ("better", Json::str(*better)),
                ])
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root is what this package generates
    /// (`run.sh --print-benchmark-json`), within the contract's limits.
    #[test]
    fn benchmark_json_is_current_and_within_limits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with run.sh --print-benchmark-json");
        assert!(on_disk.len() <= 64 * 1024);
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{} per-layer metrics", layers.len());
        let mut names: Vec<&str> = layers.iter().map(|(n, _, _)| n.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(END_TO_END.iter().any(|m| (m.0, m.1, m.2) == ("setup_s", "s", "lower")));
    }
}
