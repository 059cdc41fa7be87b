//! `san-perf` — the repository benchmark.
//!
//! ```text
//! san-perf bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//! san-perf run [--workload W] [--seed N] [--seconds S] [--runs K] [--traced] [--json PATH]
//! san-perf compare A.json B.json
//! ```
//!
//! `bench` runs one workload in this process and prints a report, then one
//! JSON line: `correct`, `attempted`, `failed` and the metrics (end-to-end
//! with `--trace 0`, per-layer with `--trace 1`). `run` runs each workload
//! in its own child `bench` process, one at a time, prints every metric
//! with its unit and can save the runs for `compare`, which judges a change
//! (B) against its parent (A). Every command exits non-zero when a check
//! fails.

use std::process::{Command, ExitCode, Stdio};

use san_chaos::Json;
use san_perf::bench::{bench, show};
use san_perf::compare::{compare, render, Run, RunSet, Verdict};
use san_perf::{Params, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  san-perf bench --workload W [--seed N] [--seconds S] [--trace 0|1]\n  \
         san-perf run [--workload W] [--seed N] [--seconds S] [--runs K] [--traced] [--json PATH]\n  \
         san-perf compare A.json B.json\nworkloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

/// Flags shared by `bench` and `run`.
struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: u64,
    json: Option<String>,
}

fn parse_opts(args: &[String], seconds: f64) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds,
        traced: false,
        runs: 1,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            o.traced = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => o.workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = value.parse().map_err(|_| bad())?,
            "--runs" => o.runs = value.parse().map_err(|_| bad())?,
            "--json" => o.json = Some(value.clone()),
            "--trace" => {
                o.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(o.seconds.is_finite() && o.seconds >= 0.0) || o.runs == 0 {
        return Err("--seconds must be ≥ 0 and --runs ≥ 1".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "bench" => match parse_opts(rest, 20.0) {
            Ok(o) => cmd_bench(&o),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        "run" => match parse_opts(rest, 1.0) {
            Ok(o) => cmd_run(&o),
            Err(e) => {
                eprintln!("error: {e}");
                usage()
            }
        },
        "compare" => match rest {
            [a, b] => cmd_compare(a, b),
            _ => usage(),
        },
        _ => usage(),
    }
}

fn cmd_bench(o: &Opts) -> ExitCode {
    let Some(w) = o.workload else {
        eprintln!("error: bench needs --workload");
        return usage();
    };
    let r = bench(
        w,
        &Params {
            seed: o.seed,
            tiny: false,
        },
        o.seconds,
        o.traced,
    );
    for line in r.report_lines() {
        println!("{line}");
    }
    println!("{}", r.json_line());
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a child `bench` process; its report lines are
/// echoed and its JSON line parsed.
fn child(w: Workload, seed: u64, o: &Opts) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating san-perf: {e}"))?;
    let out = Command::new(exe)
        .args(["bench", "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let (last, report) =
        lines
            .split_last()
            .ok_or(format!("{}: no output ({})", w.name(), out.status))?;
    for l in report {
        println!("{l}");
    }
    let doc = Json::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name()))?;
    let digest = report
        .iter()
        .find_map(|l| l.strip_prefix("sim_digest "))
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("")
        .to_string();
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(kv)) => kv
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    };
    let correct = out.status.success() && doc.get("correct").and_then(Json::as_bool) == Some(true);
    Ok(Run {
        workload: w.name().to_string(),
        seed,
        correct,
        digest,
        metrics,
    })
}

fn cmd_run(o: &Opts) -> ExitCode {
    let workloads: Vec<Workload> = match o.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut set = RunSet::default();
    let mut ok = true;
    for i in 0..o.runs {
        for &w in &workloads {
            match child(w, o.seed.wrapping_add(i), o) {
                Ok(r) => {
                    ok &= r.correct;
                    set.runs.push(r);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
        }
    }
    println!("\n{:<14} {:<22} {:>16} unit", "workload", "metric", "value");
    for r in &set.runs {
        for (name, v) in &r.metrics {
            let unit = san_perf::metrics::find(name).map_or("", |m| m.unit);
            println!("{:<14} {name:<22} {:>16} {unit}", r.workload, show(*v));
        }
        println!(
            "{:<14} {:<22} {:>16} {}",
            r.workload,
            "sim_digest",
            r.digest,
            if r.correct { "correct" } else { "FAILED" }
        );
    }
    if let Some(path) = &o.json {
        if let Err(e) = std::fs::write(path, set.to_json().pretty() + "\n") {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    RunSet::from_json(&doc).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(a: &str, b: &str) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cmps = compare(&a, &b);
    print!("{}", render(&cmps));
    let regressed = cmps
        .iter()
        .any(|w| w.incorrect > 0 || w.metrics.iter().any(|m| m.verdict == Verdict::Regression));
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
