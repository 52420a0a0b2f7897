//! Metric names, units and the result line.
//!
//! The declared lists below are the contract with `BENCHMARK.json`:
//! an untraced run reports exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`], on every workload.

use std::fmt::Write;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("matgen.gen_s", "s"),
    ("la.spmv_us", "us"),
    ("la.spmv32_us", "us"),
    ("la.gemv_t_us", "us"),
    ("la.gemv_n_us", "us"),
    ("la.dot_us", "us"),
    ("la.axpy_us", "us"),
    ("la.spmm4_us", "us"),
    ("la.store32_spmv_us", "us"),
    ("la.spmv_gbs", "GB/s"),
    ("la.gemv_t_gbs", "GB/s"),
    ("machine.triad_gbs", "GB/s"),
    ("backend.spmv_us", "us"),
    ("backend.gemv_t_us", "us"),
    ("backend.gemv_n_us", "us"),
    ("backend.spmm4_us", "us"),
    ("la.cgs2_us", "us"),
    ("backend.cgs2_us", "us"),
    ("ctx.cgs2_eager_us", "us"),
    ("stream.cgs2_record_us", "us"),
    ("stream.cgs2_replay_us", "us"),
    ("backend.over_la", "ratio"),
    ("backend.par_speedup", "ratio"),
    ("ctx.over_backend", "ratio"),
    ("stream.over_eager", "ratio"),
    ("stream.replay_hit_rate", "ratio"),
    ("stream.nodes_per_op", "count"),
    ("solver.iters_per_op", "count"),
    ("solver.restarts_per_op", "count"),
    ("solver.us_per_iter", "us"),
    ("precond.poly_build_s", "s"),
    ("precond.bj_build_s", "s"),
    ("precond.poly_apply_us", "us"),
    ("precond.bj_apply_us", "us"),
    ("gpusim.fp64_sim_s", "sim_s"),
    ("gpusim.ir_sim_s", "sim_s"),
    ("gpusim.ir_speedup", "ratio"),
    ("service.submit_us", "us"),
    ("service.step_p50_us", "us"),
    ("service.step_p90_us", "us"),
    ("service.queue_wait_p50_s", "s"),
    ("service.req_p90_s", "s"),
    ("service.occupancy", "ratio"),
    ("service.admissions", "count"),
    ("service.cycles", "count"),
    ("service.payload_allocs", "count"),
    ("gen.late_p90_s", "s"),
    ("core.self_share", "ratio"),
    ("backend.busy_share", "ratio"),
    ("backend.calls_per_iter", "count"),
    ("backend.batch_width_mean", "count"),
    ("trace.overhead", "ratio"),
];

/// Measured values in report order.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Record a metric and print it on the human-readable report.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("  {name:<28} {value:>16.6} {unit}");
        self.values.push((name, value, unit));
    }

    /// Print an alias line: a workload-specific name from the
    /// benchmark doc for a value reported under a generic name.
    pub fn alias(&self, alias: &str, of: &str, note: &str) {
        if let Some(&(_, v, unit)) = self.values.iter().find(|(n, ..)| *n == of) {
            println!("  {alias:<28} {v:>16.6} {unit}  (= {of}{note})");
        }
    }

    /// Whether exactly the `declared` metrics were measured, each once
    /// with its declared unit and a finite value. Prints what is wrong.
    pub fn matches(&self, declared: &[(&str, &str)]) -> bool {
        let mut ok = self.values.len() == declared.len();
        for &(name, unit) in declared {
            match self.values.iter().find(|(n, ..)| *n == name) {
                Some(&(_, v, u)) if u == unit && v.is_finite() => {}
                other => {
                    eprintln!("perfbench: metric {name} [{unit}] is wrong: {other:?}");
                    ok = false;
                }
            }
        }
        ok
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values cannot appear in JSON; `matches` has
            // already marked such a run incorrect.
            let v = if value.is_finite() { *value } else { 0.0 };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every declared metric appears in `BENCHMARK.json` with its unit,
    /// in the section its run mode reports.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end].to_string()
        };
        for (declared, key) in [(END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")] {
            let sec = section(key);
            assert_eq!(sec.matches("\"name\"").count(), declared.len(), "{key}");
            for (name, unit) in declared {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(sec.contains(&entry), "{key} lacks {entry}");
            }
        }
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.123456789012345, "s");
        let line = m.result_line(true, 3, 0);
        assert!(line.contains("\"value\": 0.123456789012345"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }
}
