//! kt-perfbench: the serving benchmark.
//!
//! Drives `kt-serve` from outside, through its public API, on an
//! expert-bound MoE and prints every end-to-end metric by name and
//! unit; with `--trace 1` it also runs the workload with kt-trace on
//! and prints the per-layer profile. Outputs are checked against an
//! unloaded sequential `generate_greedy` of the same prompts.
//!
//! ```text
//! bash perfbench/run.sh --workload decode_batch --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod load;
mod profile;
mod report;
mod workload;

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kt_core::{EngineConfig, HybridEngine};
use kt_model::{ModelConfig, ModelPreset};
use kt_serve::{Server, ServerConfig};

use load::Phase;
use report::{median, percentile, Metrics};
use workload::{Load, Planned, Workload, CHAT_RATES_RPS, SLO_GOODPUT};

/// End-to-end metrics the result line carries, with units: the ones
/// steady enough run to run to gate on. See README.md for why the
/// others are not gated.
pub const END_TO_END: &[(&str, &str)] = &[
    ("output_tok_s", "tok/s"),
    ("busy_tok_s", "tok/s"),
    ("goodput", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// End-to-end metrics printed with the gated ones but not carried by
/// the result line.
pub const PRINTED: &[(&str, &str)] = &[
    ("ttft_p50_ms", "ms"),
    ("ttft_p90_ms", "ms"),
    ("itl_p50_ms", "ms"),
    ("itl_p99_ms", "ms"),
    ("error_rate", "ratio"),
    ("slo_rate_rps", "req/s"),
    ("output_match", "ratio"),
];

/// Engine builds (each with `Server::start`) timed for `setup_s`, at
/// the start of the run and again at its end: the host's speed drifts
/// over tens of seconds, so builds from both ends of a run vary less
/// from run to run than builds made back to back.
const SETUP_REPS: usize = 4;
/// Completed requests re-run sequentially to check outputs.
const CHECK_SAMPLES: usize = 6;
/// The engine's weight seed: fixed, so only the requests vary by run.
const ENGINE_SEED: u64 = 17;
/// Bound on `Server::shutdown`, which can hang on a lost wakeup.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(20);
/// The whole run must end by then, or it fails.
const RUN_DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(25.0);
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds must be in 1..=60, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The measured model: the DeepSeek-V3 tiny preset reshaped so that
/// routed experts on the CPU dominate a decode step, as in the paper.
fn model() -> ModelConfig {
    let mut cfg = ModelPreset::DeepSeekV3.tiny_config();
    cfg.name = "deepseek-v3-tiny-expert-bound".into();
    cfg.moe_inter = 512;
    cfg.n_routed_experts = 32;
    cfg.vocab = 8192;
    cfg.max_seq = 1024;
    cfg
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        n_cpu_workers: 1,
        n_deferred: 2,
        seed: ENGINE_SEED,
        ..Default::default()
    }
}

/// Stops a server, failing instead of hanging if `shutdown` does not
/// return in time. On failure the shutdown thread is left behind; the
/// caller exits the process, which ends it.
fn shutdown_bounded(server: Server) -> Result<(), String> {
    let (tx, rx) = mpsc::channel();
    let t = std::thread::spawn(move || {
        server.shutdown();
        let _ = tx.send(());
    });
    match rx.recv_timeout(SHUTDOWN_TIMEOUT) {
        Ok(()) => t.join().map_err(|_| "server shutdown panicked".to_string()),
        Err(_) => Err(format!(
            "Server::shutdown did not return within {SHUTDOWN_TIMEOUT:?}"
        )),
    }
}

/// Builds the engine and starts the server once, timed.
fn setup_once() -> Result<(Arc<HybridEngine>, Server, f64), String> {
    let t = Instant::now();
    let engine =
        Arc::new(HybridEngine::random(&model(), engine_config()).map_err(|e| e.to_string())?);
    let server =
        Server::start(Arc::clone(&engine), ServerConfig::default()).map_err(|e| e.to_string())?;
    Ok((engine, server, t.elapsed().as_secs_f64()))
}

/// Sets up `SETUP_REPS` times, pushing each time onto `times`; returns
/// the last engine and server.
fn setup(times: &mut Vec<f64>) -> Result<(Arc<HybridEngine>, Server), String> {
    loop {
        let (engine, server, secs) = setup_once()?;
        times.push(secs);
        if times.len() % SETUP_REPS == 0 {
            return Ok((engine, server));
        }
        shutdown_bounded(server)?;
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn provenance(args: &Args) -> String {
    let m = model();
    format!(
        "provenance: commit={} cores={} simd={:?} profile={} model={} hidden={} layers={} moe_inter={} experts={} top_k={} vocab={} max_seq={} workload={} seed={} seconds={} trace={}",
        commit(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        kt_core::effective_simd_level(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        m.name,
        m.hidden,
        m.n_layers,
        m.moe_inter,
        m.n_routed_experts,
        m.top_k,
        m.vocab,
        m.max_seq,
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// The end-to-end metrics of a measured phase.
fn end_to_end(w: Workload, p: &Phase) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let ttft = p.ttft_ms();
    let itl = p.itl_ms();
    m.push("output_tok_s", p.output_tok_s());
    m.push("ttft_p50_ms", percentile(&ttft, 50.0)?);
    m.push("ttft_p90_ms", percentile(&ttft, 90.0)?);
    m.push("itl_p50_ms", percentile(&itl, 50.0)?);
    m.push("itl_p99_ms", percentile(&itl, 99.0)?);
    m.push("goodput", p.goodput(w.limits()));
    m.push(
        "error_rate",
        p.n_failed() as f64 / p.sent.len().max(1) as f64,
    );
    Ok(m)
}

/// Re-runs a seeded sample of completed requests through an unloaded
/// sequential `generate_greedy` on the same engine and counts exact
/// matches.
fn check_outputs(
    engine: &HybridEngine,
    seed: u64,
    phases: &[(&Phase, &[Planned])],
) -> Result<(usize, usize), String> {
    let mut done: Vec<(&[u32], &[u32], usize)> = phases
        .iter()
        .flat_map(|(p, plan)| {
            p.completed().map(|(s, r)| {
                (
                    &plan[s.index].prompt[..],
                    &r.tokens[..],
                    plan[s.index].max_new,
                )
            })
        })
        .collect();
    workload::Rng::stream(seed, 0xC4EC).shuffle(&mut done);
    let sample = &done[..done.len().min(CHECK_SAMPLES)];
    let mut matched = 0;
    for &(prompt, served, max_new) in sample {
        engine.reset();
        let reference = engine
            .generate_greedy(prompt, max_new)
            .map_err(|e| e.to_string())?;
        matched += usize::from(reference == served);
    }
    Ok((matched, sample.len()))
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    println!("{}", provenance(args));
    let mut setup_times = Vec::new();
    let (engine, server) = setup(&mut setup_times)?;

    let warm_plan = w.warmup(args.seed);
    let warm = load::run(
        &server,
        "warmup",
        &warm_plan,
        Load::Closed {
            clients: ServerConfig::default().max_batch,
        },
        60.0,
    );
    println!("{}", warm.counts());

    let plan = w.requests(args.seed, 0, w.load(), args.seconds);
    let measured = load::run(&server, "measured", &plan, w.load(), args.seconds);
    println!("{}", measured.counts());
    println!("{}", measured.server_counts());
    let rss = peak_rss_mb()?;

    let mut checked: Vec<(Phase, Vec<Planned>)> = Vec::new();
    let mut lines = Vec::new();
    let mut result = if !args.trace {
        let mut m = end_to_end(w, &measured)?;
        m.push("peak_rss_mb", rss);
        if w == Workload::ChatMixed {
            // The SLO sweep: the nominal rate, then two higher fixed
            // rates in shorter phases.
            let mut slo_rate = 0.0;
            let mut goodputs = vec![(CHAT_RATES_RPS[0], measured.goodput(w.limits()))];
            for (i, &rate) in CHAT_RATES_RPS.iter().enumerate().skip(1) {
                let load = Load::Open { rate_rps: rate };
                let secs = args.seconds / 3.0;
                let plan = w.requests(args.seed, i as u64, load, secs);
                let p = load::run(&server, &format!("sweep_{rate}rps"), &plan, load, secs);
                println!("{}", p.counts());
                goodputs.push((rate, p.goodput(w.limits())));
                checked.push((p, plan));
            }
            for &(rate, g) in &goodputs {
                lines.push(format!("slo_sweep: rate_rps={rate} goodput={g:.4}"));
                if g >= SLO_GOODPUT {
                    slo_rate = rate;
                }
            }
            m.push("slo_rate_rps", slo_rate);
        }
        // Over every timed phase (on chat_mixed, the sweep's too): the
        // host's speed varies within a run, and more engine time
        // averages more of it.
        let timed: Vec<&Phase> = std::iter::once(&measured)
            .chain(checked.iter().map(|(p, _)| p))
            .collect();
        m.push("busy_tok_s", load::busy_tok_s(&timed));
        m
    } else {
        let traced_plan = w.requests(args.seed, 1, w.load(), args.seconds);
        kt_trace::enable();
        let before = profile::Snapshot::take(&engine);
        let traced = load::run(&server, "traced", &traced_plan, w.load(), args.seconds);
        let after = profile::Snapshot::take(&engine);
        kt_trace::disable();
        println!("{}", traced.counts());
        let m = profile::per_layer(
            w,
            &engine,
            (&before, &after),
            &traced,
            &measured,
            &traced_plan,
        )?;
        lines.push(format!(
            "step shares ({}): {}",
            w.name(),
            profile::step_shares(&m)
        ));
        checked.push((traced, traced_plan));
        m
    };
    checked.insert(0, (measured, plan));
    shutdown_bounded(server)?;

    let phases: Vec<(&Phase, &[Planned])> =
        checked.iter().map(|(p, plan)| (p, &plan[..])).collect();
    let t = Instant::now();
    let (matched, sampled) = check_outputs(&engine, args.seed, &phases)?;
    println!(
        "phase=check sent={sampled} succeeded={matched} failed={} seconds={:.2}",
        sampled - matched,
        t.elapsed().as_secs_f64()
    );
    result.push("output_match", matched as f64 / sampled.max(1) as f64);
    if !args.trace {
        // The second half of the set-up samples, with no engine running.
        drop(engine);
        let (_, server) = setup(&mut setup_times)?;
        shutdown_bounded(server)?;
        result.push("setup_s", median(&setup_times));
    }
    println!("setup: seconds={setup_times:.3?}");

    print!(
        "{}",
        result.table(&format!(
            "{} {}",
            w.name(),
            if args.trace {
                "per-layer (traced)"
            } else {
                "end-to-end"
            }
        ))
    );
    for l in &lines {
        println!("{l}");
    }
    let attempted: usize = checked.iter().map(|(p, _)| p.sent.len()).sum();
    let failed: usize =
        checked.iter().map(|(p, _)| p.n_failed()).sum::<usize>() + (sampled - matched);
    let declared = if args.trace {
        profile::PER_LAYER
    } else {
        END_TO_END
    };
    let selected: Vec<(&str, f64, &str)> = declared
        .iter()
        .map(|&(name, unit)| {
            let v = result
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            Ok((name, v, unit))
        })
        .collect::<Result<_, String>>()?;
    let correct = sampled > 0 && matched == sampled;
    println!(
        "{}",
        report::result_json(correct, attempted as u64, failed as u64, &selected)?
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kt-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A hang anywhere fails the run instead of stalling it: the
    // watchdog ends the process, and every thread with it.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_DEADLINE);
        eprintln!("kt-perfbench: run exceeded {RUN_DEADLINE:?}; failing it");
        std::process::exit(3);
    });
    if let Err(e) = run(&args) {
        eprintln!("kt-perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_declared_once() {
        let all: Vec<&str> = [END_TO_END, PRINTED, profile::PER_LAYER]
            .into_iter()
            .flatten()
            .map(|&(n, _)| n)
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(report::valid_name(name), "{name}");
            assert!(!all[..i].contains(name), "{name} declared twice");
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    /// The names and units declared in BENCHMARK.json are exactly the
    /// ones this program emits.
    #[test]
    fn benchmark_json_declares_the_emitted_metrics() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark");
        let section = |key: &str, next: Option<&str>| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section");
            let end = next
                .and_then(|n| json[start..].find(&format!("\"{n}\"")))
                .map_or(json.len(), |e| start + e);
            let body = &json[start..end];
            body.split("\"name\": \"")
                .skip(1)
                .map(|rest| {
                    let name = rest[..rest.find('"').unwrap()].to_string();
                    let u = rest.find("\"unit\": \"").unwrap() + 9;
                    let unit = rest[u..u + rest[u..].find('"').unwrap()].to_string();
                    (name, unit)
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end", Some("per_layer")), own(END_TO_END));
        assert_eq!(section("per_layer", None), own(profile::PER_LAYER));
    }
}
