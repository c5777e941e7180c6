//! Regenerates every table and figure of the soNUMA evaluation.
//!
//! ```text
//! cargo run -p sonuma-bench --bin gen-figures --release
//! ```
//!
//! Pass subset names (`table1 fig1 fig7 fig8 fig9 table2 ablations
//! pipelines`) to
//! print only some; add `--csv <dir>` to also save plottable CSV files.
//!
//! The `trace` subset (never part of the default run) renders the
//! flight-recorder figures — the link-utilization heatmap and the
//! stall/recovery timeline. It reads a saved trace via `--trace-file
//! <path>`, or, with no file, runs the canned `rack1024-nodekill`
//! scenario with tracing on and renders its recovery dip.
//!
//! The `kv` subset (also only when named) renders the KV-service
//! figures — the GET-p99-vs-value-size crossover table per backend and
//! the per-tenant-class achieved-vs-offered bars. It reads a saved
//! scenario report via `--kv-report <path>`, or, with no file, runs the
//! canned `rack512-kv` scenario across all three backends.
//!
//! A flag without its value, an unreadable or malformed file, or an
//! unknown section name exits 2 with a message naming it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sonuma_bench::fig07::Platform;
use sonuma_bench::report::{cell, CsvTable};
use sonuma_bench::{ablations, fig01, fig07, fig08, fig09, kvfig, table1, table2, tracefig};

/// Every section name; `trace` and `kv` run only when named.
const SECTIONS: &str = "table1 fig1 fig7 fig8 fig9 table2 ablations pipelines trace kv";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gen-figures: {e}");
            ExitCode::from(2)
        }
    }
}

/// Removes `flag VALUE` from `args` and returns the value.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<PathBuf>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
    let value = value
        .map(PathBuf::from)
        .ok_or(format!("{flag} needs a value"))?;
    args.drain(i..=i + 1);
    Ok(Some(value))
}

fn read(flag: &str, path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{flag} {}: {e}", path.display()))
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let csv_dir = take_value(&mut args, "--csv")?;
    let trace_file = take_value(&mut args, "--trace-file")?;
    let kv_report = take_value(&mut args, "--kv-report")?;
    if let Some(bad) = args.iter().find(|a| !SECTIONS.split(' ').any(|s| s == *a)) {
        return Err(format!("unknown section {bad:?}; known: {SECTIONS}"));
    }
    let save = |name: &str, table: &CsvTable| -> Result<(), String> {
        if let Some(dir) = &csv_dir {
            let path = table
                .save(dir, name)
                .map_err(|e| format!("--csv {}: {e}", dir.display()))?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    };
    let all = args.is_empty();
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("table1") {
        table1::print();
    }
    if want("fig1") {
        let rows = fig01::run();
        fig01::print(&rows);
        let mut t = CsvTable::new(&["size_bytes", "latency_us", "bandwidth_gbps"]);
        for r in &rows {
            t.row(&[
                r.size.to_string(),
                cell(r.latency.as_us_f64()),
                cell(r.gbps),
            ]);
        }
        save("fig01_netpipe_tcp", &t)?;
    }
    if want("fig7") {
        let lat_hw = fig07::latency(Platform::SimulatedHardware);
        fig07::print_latency(Platform::SimulatedHardware, &lat_hw);
        let bw = fig07::bandwidth(Platform::SimulatedHardware);
        fig07::print_bandwidth(&bw);
        let lat_dev = fig07::latency(Platform::DevPlatform);
        fig07::print_latency(Platform::DevPlatform, &lat_dev);

        for (name, rows) in [
            ("fig07a_latency_hw", &lat_hw),
            ("fig07c_latency_dev", &lat_dev),
        ] {
            let mut t = CsvTable::new(&["size_bytes", "single_us", "double_us"]);
            for r in rows {
                t.row(&[
                    r.size.to_string(),
                    cell(r.single.as_us_f64()),
                    cell(r.double.as_us_f64()),
                ]);
            }
            save(name, &t)?;
        }
        let mut t = CsvTable::new(&["size_bytes", "single_gbps", "double_gbps", "mops"]);
        for r in &bw {
            t.row(&[
                r.size.to_string(),
                cell(r.single_gbps),
                cell(r.double_gbps),
                cell(r.iops / 1e6),
            ]);
        }
        save("fig07b_bandwidth_hw", &t)?;
    }
    if want("fig8") {
        let lat = fig08::latency(Platform::SimulatedHardware);
        fig08::print(
            "Figure 8a: send/receive latency (sim'd HW)",
            "paper: 340 ns minimum; optimal threshold 256 B",
            "us",
            &lat,
        );
        let bw = fig08::bandwidth(Platform::SimulatedHardware);
        fig08::print(
            "Figure 8b: send/receive bandwidth (sim'd HW)",
            "paper: >10 Gbps at 4 KB; push flattens on per-packet cost",
            "Gbps",
            &bw,
        );
        let lat_dev = fig08::latency(Platform::DevPlatform);
        fig08::print(
            "Figure 8c: send/receive latency (dev platform)",
            "paper: 1.4 us minimum; optimal threshold 1 KB",
            "us",
            &lat_dev,
        );
        for (name, rows) in [
            ("fig08a_msg_latency_hw", &lat),
            ("fig08b_msg_bandwidth_hw", &bw),
            ("fig08c_msg_latency_dev", &lat_dev),
        ] {
            let mut t = CsvTable::new(&["size_bytes", "pull_only", "push_only", "tuned"]);
            for r in rows {
                t.row(&[
                    r.size.to_string(),
                    cell(r.pull_only),
                    cell(r.push_only),
                    cell(r.tuned),
                ]);
            }
            save(name, &t)?;
        }
    }
    if want("fig9") {
        let left = fig09::run(16_384, &[2, 4, 8], false);
        fig09::print("Figure 9 (left): PageRank speedup, sim'd HW", &left);
        let right = fig09::run(8_192, &[2, 4, 8, 16], true);
        fig09::print("Figure 9 (right): PageRank speedup, dev platform", &right);
        for (name, fig) in [("fig09_left_hw", &left), ("fig09_right_dev", &right)] {
            let mut t = CsvTable::new(&["nodes", "shm", "bulk", "fine_grain"]);
            for r in &fig.rows {
                t.row(&[
                    r.parallelism.to_string(),
                    cell(r.shm),
                    cell(r.bulk),
                    cell(r.fine),
                ]);
            }
            save(name, &t)?;
        }
    }
    if want("table2") {
        let cols = table2::run();
        table2::print(&cols);
        let mut t = CsvTable::new(&[
            "transport",
            "max_bw_gbps",
            "read_rtt_us",
            "fetch_add_us",
            "mops",
        ]);
        for c in &cols {
            t.row(&[
                c.name.to_string(),
                cell(c.max_bw_gbps),
                cell(c.read_rtt.as_us_f64()),
                cell(c.fetch_add.as_us_f64()),
                cell(c.mops),
            ]);
        }
        save("table2_vs_rdma", &t)?;
    }
    if want("ablations") {
        ablations::print("CT$", &ablations::ct_cache());
        ablations::print("MAQ depth", &ablations::maq_depth());
        ablations::print("unroll initiation interval", &ablations::unroll_interval());
        ablations::print("fabric topology", &ablations::topology());
        ablations::print("WQ poll cadence", &ablations::poll_interval());
    }
    // Simulating a traced rack is far heavier than every other figure,
    // so `trace` runs only when named explicitly.
    if args.iter().any(|a| a == "trace") {
        let text = match &trace_file {
            Some(path) => read("--trace-file", path)?,
            None => showcase_trace(),
        };
        let doc = tracefig::parse_trace(&text).map_err(|e| format!("trace: {e}"))?;
        print!("{}", tracefig::render_heatmap(&doc));
        println!();
        print!("{}", tracefig::render_timeline(&doc));
        save("trace_link_heatmap", &tracefig::heatmap_csv(&doc))?;
        save("trace_timeline", &tracefig::timeline_csv(&doc))?;
    }
    // Driving the KV rack over three backends is likewise too heavy for
    // the default run, so `kv` also runs only when named.
    if args.iter().any(|a| a == "kv") {
        let doc = match &kv_report {
            Some(path) => sonuma_bench::json::Json::parse(&read("--kv-report", path)?)
                .map_err(|e| format!("--kv-report {}: {e}", path.display()))?,
            None => showcase_kv_report(),
        };
        let runs = kvfig::kv_runs(&doc);
        if runs.is_empty() {
            return Err("the report carries no kv sections".into());
        }
        print!("{}", kvfig::render_crossover(&runs));
        println!();
        print!("{}", kvfig::render_slo(&runs));
        save("kv_crossover", &kvfig::crossover_csv(&runs))?;
        save("kv_slo", &kvfig::slo_csv(&runs))?;
    }
    if want("pipelines") {
        let rows = pipeline_counters();
        sonuma_bench::report::print_pipeline_stats(
            "RMC pipeline counters (4 nodes, neighbor read stream)",
            &rows,
        );
        save(
            "pipeline_counters",
            &sonuma_bench::report::pipeline_stats_table(&rows),
        )?;
    }
    Ok(())
}

/// Runs the canned `rack1024-nodekill` scenario with tracing armed and
/// returns its trace: 16 nodes die at 30 us and restart at 50 us, so
/// the timeline shows the completion-rate dip and the climb back — the
/// flight recorder's showcase.
fn showcase_trace() -> String {
    use sonuma_bench::scenario::{self, TraceSpec};

    let mut spec = scenario::canned("rack1024-nodekill").expect("a canned scenario");
    spec.trace = Some(TraceSpec {
        interval_us: 5.0,
        ..TraceSpec::default()
    });
    eprintln!(
        "tracing {} (pass --trace-file to skip the run)...",
        spec.name
    );
    let result = scenario::run_spec(&spec);
    result
        .runs
        .into_iter()
        .find_map(|r| r.trace)
        .expect("soNUMA run produced a trace")
        .text
}

/// Runs the canned `rack512-kv` scenario — all three backends — and
/// returns its report: the per-backend GET p99 columns of the crossover
/// table come straight from the three runs' `kv` sections.
fn showcase_kv_report() -> sonuma_bench::json::Json {
    use sonuma_bench::scenario;

    let spec = scenario::canned("rack512-kv").expect("a canned scenario");
    eprintln!(
        "running {} on all backends (pass --kv-report to skip the run)...",
        spec.name
    );
    scenario::report(&scenario::run_specs(&[spec]))
}

/// Drives a short all-nodes read stream over the full machine and
/// snapshots every node's RGP/RRPP/RCP counters.
fn pipeline_counters() -> Vec<(String, sonuma_core::PipelineStats)> {
    use sonuma_core::{NodeId, RemoteBackend, RemoteRequest, SonumaBackend};

    let nodes = 4u16;
    let mut b = SonumaBackend::simulated_hardware(nodes as usize, 1 << 20);
    for n in 0..nodes {
        for i in 0..32u64 {
            let dst = NodeId((n + 1) % nodes);
            b.post(NodeId(n), RemoteRequest::read(dst, (i % 16) * 1024, 1024))
                .expect("32 posts fit a 64-entry WQ");
        }
    }
    while b.advance() {}
    let mut rows: Vec<(String, sonuma_core::PipelineStats)> = (0..nodes)
        .map(|n| (format!("n{n}"), b.pipeline_stats(NodeId(n))))
        .collect();
    rows.push(("total".to_string(), b.total_pipeline_stats()));
    rows
}
