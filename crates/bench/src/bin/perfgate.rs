//! CI perf-trajectory gate: collect the fast-bench artifacts
//! (`results/stream.json`, `results/multirhs.json`,
//! `results/precision.json`, `results/serving.json`,
//! `results/basis.json`) into one schema-stable, git-SHA-stamped
//! `results/BENCH_ci.run.json`, and FAIL the job when a load-bearing
//! perf property regresses:
//!
//! - the recorded `BlockGmres` overlap ratio of the stream bench (the
//!   k = 4 block solve of laplace2d(48), GMRES(30)) must equal the
//!   committed baseline exactly: it is a ratio of V100-model seconds of
//!   a bit-identical solve on the reference backend, so it does not
//!   depend on the runner, and any drift means a driver edit moved a
//!   charge on the simulated timeline;
//! - the same overlap ratio must stay below 1.0 (the chain baseline);
//! - the fp32 shadow store's k = 1 SpMM must move `< 0.55x` the bytes
//!   (and simulated time) of the fp64 store at the pinned shape, with
//!   both end-to-end IR storage paths converged;
//! - every solve the `SolverService` serves must stay bit-identical to
//!   a one-shot solve of the same request (the single-RHS `Gmres`
//!   front; the test suites hold that driver to an independent
//!   textbook oracle);
//! - the compressed Krylov basis's charged GEMV bytes must match the
//!   machine-independent analytic `ncols x n x elem_bytes +
//!   streams x n x work_bytes` model exactly, the pinned fp32/fp64
//!   basis byte ratio must not regress against the committed baseline,
//!   every basis path must converge end to end, and the native-basis
//!   solve must stay bit-identical to a plain solve;
//! - the QoS admission scheduler must meet its contracts: zero deadline
//!   misses under EDF at the pinned subcritical load, EDF + precision-
//!   ladder degradation improving p99 over FIFO at the overload point
//!   with every degraded solve still converged to its fp64 tolerance,
//!   fair-share tenant occupancy bounded near the even split, and
//!   submit-then-cancel waves allocating no payload buffers;
//! - the parallel backend must beat the reference backend on one CGS2
//!   pass at the stretched-bj shape (`cgs2_par_speedup >= 1.0`) when the
//!   runner has two or more cores — the gate on the worker pool's
//!   dispatch cost (a 1-core runner reports the figure ungated);
//! - the deterministic precision byte ratio must not regress against
//!   the **committed baseline** `results/BENCH_ci.json` (the per-SHA
//!   snapshot checked into the repo); the other listed values are
//!   diffed against the same baseline and reported, not gated: the
//!   wall-clock ones vary across runners. The `serving_*` values are
//!   diffed only when both runs served the same number of requests per
//!   load point (fast mode serves fewer); otherwise they are reported
//!   as not comparable and left out of `baseline_deltas`.
//!
//! The workspace's serde_json shim is write-only, so the gate reads the
//! (self-produced, schema-stable) artifacts with a minimal scanner
//! keyed on uniquely-named fields, and splices the verbatim file
//! contents into the combined artifact — every future PR's perf deltas
//! become one machine-readable, diffable file.
//!
//! Set `MPGMRES_PERF_INJECT_REGRESSION=overlap` (which trips both
//! overlap gates), or `precision`, `serving`, `basis`, `qos` or `pool`,
//! to deliberately corrupt the gated value before checking: CI runs
//! this as an expected-failure step, proving the gate actually fires. The
//! injected run writes `BENCH_ci_injected.json` so it can never
//! masquerade as the real artifact.
//!
//! No run writes the committed baseline: a second run still diffs
//! against it, not against the first run. To regenerate the baseline,
//! copy `results/BENCH_ci.run.json` over `results/BENCH_ci.json`.

use std::fs;
use std::process::Command;

use mpgmres_bench::output;

/// Extract the number following the FIRST occurrence of `"key":` —
/// sufficient for the uniquely-named gate fields of our own artifacts.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn extract_bool(json: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

struct Gate {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let dir = output::results_dir(None);
    let read = |name: &str| -> String {
        let path = dir.join(name);
        fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!(
                "perfgate: cannot read {} ({e}); run the fast benches first",
                path.display()
            );
            std::process::exit(2);
        })
    };
    let stream = read("stream.json");
    let multirhs = read("multirhs.json");
    let precision = read("precision.json");
    let serving = read("serving.json");
    let basis = read("basis.json");
    // The committed per-SHA baseline (a copy of this artifact, from the
    // last change that refreshed it).
    let baseline = fs::read_to_string(dir.join("BENCH_ci.json")).ok();

    let inject = std::env::var("MPGMRES_PERF_INJECT_REGRESSION").unwrap_or_default();

    // --- gates 1 and 2: the block overlap ratio -----------------------
    let mut overlap = extract_number(&stream, "overlap_ratio").expect("stream.json overlap");
    if inject == "overlap" {
        println!("perfgate: INJECTING overlap-ratio regression (+1.0)");
        overlap += 1.0;
    }
    // Gate 1 is exact equality: both sides are the same model output
    // printed round-trip, so a single moved charge shows as a mismatch.
    let g1 = match baseline
        .as_deref()
        .and_then(|b| extract_number(b, "overlap_ratio"))
    {
        Some(pinned) => Gate {
            name: "overlap_ratio_matches_baseline",
            ok: overlap == pinned,
            detail: format!("overlap ratio {overlap} vs {pinned} (k = 4, committed baseline)"),
        },
        None => Gate {
            name: "overlap_ratio_matches_baseline",
            ok: true,
            detail: "no committed overlap baseline".to_string(),
        },
    };
    let g2 = Gate {
        name: "block_overlap_below_chain",
        ok: overlap < 1.0,
        detail: format!("overlap_ratio {overlap:.6}"),
    };

    // --- gate 3: fp32 store traffic under the 0.55 bar, IR converged --
    let mut byte_ratio =
        extract_number(&precision, "fp32_fp64_spmm_byte_ratio").expect("precision.json byte ratio");
    let time_ratio = extract_number(&precision, "fp32_fp64_spmm_time_ratio_k1")
        .expect("precision.json time ratio");
    if inject == "precision" {
        println!("perfgate: INJECTING precision byte-ratio regression (+0.5)");
        byte_ratio += 0.5;
    }
    let ir_converged = extract_bool(&precision, "ir_paths_converged").unwrap_or(false);
    let g3 = Gate {
        name: "fp32_store_spmm_traffic_below_055",
        ok: byte_ratio < 0.55 && time_ratio < 0.55 && ir_converged,
        detail: format!(
            "byte ratio {byte_ratio:.6}, k=1 time ratio {time_ratio:.6}, ir_paths_converged {ir_converged}"
        ),
    };

    // --- gate 4: served solves bit-identical to one-shot solves -------
    let mut serving_parity = extract_bool(&serving, "serving_parity_ok").unwrap_or(false);
    if inject == "serving" {
        println!("perfgate: INJECTING serving parity regression (parity = false)");
        serving_parity = false;
    }
    let g4 = Gate {
        name: "serving_parity",
        ok: serving_parity,
        detail: format!("parity {serving_parity}"),
    };

    // --- gate 6: compressed-basis byte model + end-to-end paths ------
    let mut basis_model_error =
        extract_number(&basis, "basis_model_error").expect("basis.json model error");
    let basis_byte_ratio = extract_number(&basis, "basis_fp32_fp64_byte_ratio")
        .expect("basis.json fp32/fp64 byte ratio");
    if inject == "basis" {
        println!("perfgate: INJECTING basis byte-model regression (error = 0.5)");
        basis_model_error = 0.5;
    }
    let basis_converged = extract_bool(&basis, "basis_paths_converged").unwrap_or(false);
    let basis_native_ok = extract_bool(&basis, "basis_native_bit_identical").unwrap_or(false);
    // The pinned ratio is pure analytic accounting, so it hard-gates
    // against the committed baseline on any machine (exact 112/216;
    // a baseline predating the basis artifact gates on the closed form).
    let basis_ratio_floor = baseline
        .as_deref()
        .and_then(|b| extract_number(b, "basis_fp32_fp64_byte_ratio"))
        .unwrap_or(112.0 / 216.0);
    let g6 = Gate {
        name: "basis_byte_model_and_paths",
        ok: basis_model_error < 1e-9
            && basis_byte_ratio <= basis_ratio_floor + 1e-9
            && basis_converged
            && basis_native_ok,
        detail: format!(
            "byte model error {basis_model_error:.2e}, fp32/fp64 ratio {basis_byte_ratio:.6} \
             (baseline {basis_ratio_floor:.6}), paths converged {basis_converged}, \
             native bit-identical {basis_native_ok}"
        ),
    };

    // --- gate 7: QoS admission scheduling ----------------------------
    let mut qos_misses = extract_number(&serving, "serving_qos_subcritical_deadline_misses")
        .expect("serving.json qos deadline misses");
    let qos_p99_improved = extract_bool(&serving, "serving_qos_p99_improved").unwrap_or(false);
    let qos_degraded_converged =
        extract_bool(&serving, "serving_qos_degraded_converged").unwrap_or(false);
    let qos_fair_share = extract_number(&serving, "serving_qos_fairshare_max_share")
        .expect("serving.json fair-share max share");
    let qos_cancel_allocs = extract_number(&serving, "serving_qos_cancel_wave_allocs_delta")
        .expect("serving.json cancel wave allocs delta");
    if inject == "qos" {
        println!("perfgate: INJECTING qos deadline-miss regression (misses = 7)");
        qos_misses = 7.0;
    }
    // Two symmetric tenants: a fair scheduler keeps the larger share
    // near 0.5; 0.65 leaves room for end-of-stream drain effects.
    let g7 = Gate {
        name: "serving_qos_scheduling",
        ok: qos_misses == 0.0
            && qos_p99_improved
            && qos_degraded_converged
            && qos_fair_share <= 0.65
            && qos_cancel_allocs == 0.0,
        detail: format!(
            "subcritical deadline misses {qos_misses}, p99 improved {qos_p99_improved}, \
             degraded converged {qos_degraded_converged}, fair-share max {qos_fair_share:.4}, \
             cancel wave allocs {qos_cancel_allocs}"
        ),
    };

    // --- gate 9: the pool pays at the stretched-bj CGS2 shape ----------
    let mut cgs2_speedup =
        extract_number(&stream, "cgs2_par_speedup").expect("stream.json cgs2 speedup");
    let mut pool_threads =
        extract_number(&stream, "pool_threads").expect("stream.json pool threads");
    if inject == "pool" {
        println!("perfgate: INJECTING pool regression (cgs2 speedup = 0.5 on 2 cores)");
        cgs2_speedup = 0.5;
        pool_threads = pool_threads.max(2.0);
    }
    let pool_dispatch = extract_number(&stream, "pool_dispatch_us").unwrap_or(f64::NAN);
    let g9 = Gate {
        name: "pool_cgs2_par_speedup",
        ok: pool_threads < 2.0 || cgs2_speedup >= 1.0,
        detail: format!(
            "cgs2 speedup {cgs2_speedup:.3} on {pool_threads} participants \
             (gated at >= 1.0 from 2), empty dispatch {pool_dispatch:.2} us"
        ),
    };

    // --- gate 8 + report: diff against the committed baseline ---------
    // The precision byte ratio (gate 8) and the overlap ratio (gate 1)
    // are deterministic model outputs and hard-gate; the other numbers
    // are diffed for the log and the artifact.
    let diff_keys = [
        "overlap_ratio",
        "pool_dispatch_us",
        "cgs2_par_speedup",
        "fp32_fp64_spmm_byte_ratio",
        "ir_store_sim_speedup",
        "serving_p50_seconds",
        "serving_p99_seconds",
        "serving_occupancy",
        "basis_fp32_fp64_byte_ratio",
        "serving_qos_fifo_p99_seconds",
        "serving_qos_edf_p99_seconds",
        "serving_qos_fairshare_max_share",
    ];
    // Same artifact order as the combined file, so a key present in
    // several documents resolves identically in baseline and current.
    let current_of = |key: &str| -> Option<f64> {
        for doc in [&stream, &multirhs, &precision, &serving, &basis] {
            if let Some(v) = extract_number(doc, key) {
                return Some(v);
            }
        }
        None
    };
    let mut delta_lines: Vec<String> = Vec::new();
    let mut baseline_sha = String::from("none");
    if let Some(base) = &baseline {
        baseline_sha = base
            .find("\"git_sha\":")
            .and_then(|at| {
                let rest = &base[at + "\"git_sha\":".len()..];
                let open = rest.find('"')?;
                let close = rest[open + 1..].find('"')?;
                Some(rest[open + 1..open + 1 + close].to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        println!("perfgate: diffing against committed baseline ({baseline_sha})");
        // The serving numbers depend on how many requests each load
        // point serves (fast mode serves fewer), so they are compared
        // only between runs of the same size.
        let requests = [
            base.find("\"serving\":")
                .and_then(|at| extract_number(&base[at..], "requests")),
            extract_number(&serving, "requests"),
        ];
        let [base_requests, requests_now] =
            requests.map(|r| r.map_or("?".into(), |r| format!("{r:.0}")));
        for key in diff_keys {
            if key.starts_with("serving_") && requests[0] != requests[1] {
                println!(
                    "perfgate:   {key}: not comparable ({base_requests} vs {requests_now} requests)"
                );
                continue;
            }
            match (extract_number(base, key), current_of(key)) {
                (Some(b), Some(c)) => {
                    let pct = if b != 0.0 { (c - b) / b * 100.0 } else { 0.0 };
                    println!("perfgate:   {key}: baseline {b:.6} -> current {c:.6} ({pct:+.1}%)");
                    delta_lines.push(format!(
                        "    {{ \"key\": \"{key}\", \"baseline\": {b}, \"current\": {c} }}"
                    ));
                }
                _ => println!("perfgate:   {key}: not present in both runs, skipped"),
            }
        }
    } else {
        println!("perfgate: no committed baseline BENCH_ci.json — skipping the diff");
    }
    let g8 = match &baseline {
        Some(base) => match extract_number(base, "fp32_fp64_spmm_byte_ratio") {
            Some(b) => Gate {
                name: "precision_ratio_vs_baseline",
                ok: byte_ratio <= b + 1e-9,
                detail: format!("byte ratio {byte_ratio:.6} vs committed baseline {b:.6}"),
            },
            None => Gate {
                name: "precision_ratio_vs_baseline",
                ok: true,
                detail: "baseline predates the precision artifact".to_string(),
            },
        },
        None => Gate {
            name: "precision_ratio_vs_baseline",
            ok: true,
            detail: "no committed baseline".to_string(),
        },
    };

    let gates = [g1, g2, g3, g4, g6, g7, g8, g9];
    let mut ok = true;
    for g in &gates {
        println!(
            "perfgate: [{}] {} — {}",
            if g.ok { "PASS" } else { "FAIL" },
            g.name,
            g.detail
        );
        ok &= g.ok;
    }

    // --- assemble the combined, SHA-stamped artifact ----------------
    let gates_json: Vec<String> = gates
        .iter()
        .map(|g| {
            format!(
                "    {{ \"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\" }}",
                g.name,
                g.ok,
                g.detail.replace('"', "'")
            )
        })
        .collect();
    let combined = format!(
        "{{\n  \"schema\": 12,\n  \"git_sha\": \"{}\",\n  \"baseline_git_sha\": \"{}\",\n  \"gates\": [\n{}\n  ],\n  \"baseline_deltas\": [\n{}\n  ],\n  \"stream\": {},\n  \"multirhs\": {},\n  \"precision\": {},\n  \"serving\": {},\n  \"basis\": {}\n}}\n",
        git_sha(),
        baseline_sha,
        gates_json.join(",\n"),
        delta_lines.join(",\n"),
        stream.trim(),
        multirhs.trim(),
        precision.trim(),
        serving.trim(),
        basis.trim(),
    );
    let out = if inject.is_empty() {
        dir.join("BENCH_ci.run.json")
    } else {
        dir.join("BENCH_ci_injected.json")
    };
    fs::write(&out, combined).expect("write the perfgate artifact");
    println!("perfgate: wrote {}", out.display());

    if !ok {
        eprintln!("perfgate: perf trajectory regressed — failing the job");
        std::process::exit(1);
    }
}
