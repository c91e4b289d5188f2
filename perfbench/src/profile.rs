//! The traced run's per-layer profile.
//!
//! Reads the program's own kt-trace phase table and counters, the
//! server's statistics and the engine's launch and expert-activation
//! counters, each differenced around the traced phase. The benchmark
//! adds nothing to the program; its own spans (around
//! `Server::submit` and `Server::stats`) are timed in the client.

use kt_core::{ExpertProfile, HybridEngine, LaunchStats, ServeStats};
use kt_trace::{CounterKind, SpanKind, N_COUNTERS, N_SPAN_KINDS};

use crate::load::Phase;
use crate::report::{percentile, Metrics};
use crate::workload::{Planned, Workload};

/// Per-layer metrics the traced run reports, with units, in report
/// order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.submit_us_p90", "us"),
    ("serve.batch_rows_mean", "rows"),
    ("serve.queue_depth_mean", "requests"),
    ("serve.sched_us_per_step", "us"),
    ("serve.prefill_tokens_per_step", "tokens"),
    ("serve.preemptions", "count"),
    ("core.step_us", "us"),
    ("core.embed_us", "us"),
    ("core.attention_us", "us"),
    ("core.gating_us", "us"),
    ("core.dispatch_us", "us"),
    ("core.cpu_expert_immediate_us", "us"),
    ("core.cpu_expert_deferred_us", "us"),
    ("core.shared_experts_us", "us"),
    ("core.merge_spin_us", "us"),
    ("core.scatter_add_us", "us"),
    ("core.deferral_flush_us", "us"),
    ("core.lm_head_us", "us"),
    ("core.vgpu_launches_per_step", "count"),
    ("core.graph_replays_per_step", "count"),
    ("kernels.cpu_expert_gbps", "GB/s"),
    ("kv.pages_in_use_peak", "pages"),
    ("kv.pages_shared_peak", "pages"),
    ("prefix.hit_token_ratio", "ratio"),
    ("prefix.seed_us_per_hit", "us"),
    ("prefix.evictions", "count"),
    ("prefix.evicted_mb", "MB"),
    ("tensor.arena_allocs_after_warmup", "count"),
    ("trace.overhead_pct", "%"),
    ("loadgen.lag_max_ms", "ms"),
    ("bench.stats_us_mean", "us"),
];

/// Engine step phases reported per step, in decode order.
const STEP_PHASES: &[(&str, SpanKind)] = &[
    ("core.step_us", SpanKind::EngineStep),
    ("core.embed_us", SpanKind::Embed),
    ("core.attention_us", SpanKind::Attention),
    ("core.gating_us", SpanKind::Gating),
    ("core.dispatch_us", SpanKind::ExpertDispatch),
    ("core.cpu_expert_immediate_us", SpanKind::CpuExpertImmediate),
    ("core.cpu_expert_deferred_us", SpanKind::CpuExpertDeferred),
    ("core.shared_experts_us", SpanKind::SharedExperts),
    ("core.merge_spin_us", SpanKind::MergeSpin),
    ("core.scatter_add_us", SpanKind::ScatterAdd),
    ("core.deferral_flush_us", SpanKind::DeferralFlush),
    ("core.lm_head_us", SpanKind::LmHead),
];

/// Counters read around a phase.
pub struct Snapshot {
    phases: [u64; N_SPAN_KINDS],
    counters: [u64; N_COUNTERS],
    launch: LaunchStats,
    experts: ExpertProfile,
}

impl Snapshot {
    pub fn take(engine: &HybridEngine) -> Snapshot {
        let sink = kt_trace::sink();
        Snapshot {
            phases: sink.phase_snapshot(),
            counters: std::array::from_fn(|i| sink.counter(CounterKind::ALL[i])),
            launch: engine.launch_stats(),
            experts: engine.expert_profile(),
        }
    }

    fn phase_ns(&self, before: &Snapshot, kind: SpanKind) -> f64 {
        self.phases[kind as usize].saturating_sub(before.phases[kind as usize]) as f64
    }

    fn counter(&self, before: &Snapshot, kind: CounterKind) -> f64 {
        self.counters[kind as usize].saturating_sub(before.counters[kind as usize]) as f64
    }
}

/// Difference of one `ServeStats` field across a phase.
fn delta(p: &Phase, f: impl Fn(&ServeStats) -> u64) -> f64 {
    f(&p.stats_after).saturating_sub(f(&p.stats_before)) as f64
}

/// Expected number of distinct experts a step touches when `per_step`
/// activations fall on experts in the proportions of `counts`.
pub fn distinct_experts(counts: &[f64], per_step: f64) -> f64 {
    let total: f64 = counts.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    counts
        .iter()
        .map(|c| 1.0 - (1.0 - c / total).powf(per_step))
        .sum()
}

/// Expert weight bytes the CPU backend streams per engine step, as
/// computed from tensor sizes: for each MoE layer, the expected number
/// of distinct routed experts a step touches, given the phase's
/// activation counts, times one expert's stored bytes.
fn expert_bytes_per_step(
    before: &ExpertProfile,
    after: &ExpertProfile,
    steps: f64,
    expert_bytes: f64,
) -> f64 {
    let distinct: f64 = (0..after.n_layers())
        .map(|l| {
            let counts: Vec<f64> = (0..after.n_experts())
                .map(|e| after.count(l, e).saturating_sub(before.count(l, e)) as f64)
                .collect();
            distinct_experts(&counts, counts.iter().sum::<f64>() / steps)
        })
        .sum();
    distinct * expert_bytes
}

/// The per-layer profile of `traced`, with `untraced` (the same
/// workload just before, tracing off) for the overhead estimate.
pub fn per_layer(
    w: Workload,
    engine: &HybridEngine,
    (before, after): (&Snapshot, &Snapshot),
    traced: &Phase,
    untraced: &Phase,
    plan: &[Planned],
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let steps = delta(traced, |s| s.steps).max(1.0);
    let per_step_us = |kind| after.phase_ns(before, kind) / steps / 1e3;

    m.push(
        "serve.queue_wait_p50_ms",
        percentile(&traced.queue_wait_ms(), 50.0)?,
    );
    m.push(
        "serve.submit_us_p90",
        percentile(&traced.submit_us(), 90.0)?,
    );
    m.push(
        "serve.batch_rows_mean",
        delta(traced, |s| s.occupancy_sum) / steps,
    );
    m.push(
        "serve.queue_depth_mean",
        delta(traced, |s| s.queue_depth_sum) / steps,
    );
    m.push(
        "serve.sched_us_per_step",
        per_step_us(SpanKind::ServeStep) - per_step_us(SpanKind::EngineStep),
    );
    m.push(
        "serve.prefill_tokens_per_step",
        delta(traced, |s| s.prefill_tokens) / steps,
    );
    m.push(
        "serve.preemptions",
        delta(traced, |s| s.preempt_swap + s.preempt_recompute),
    );
    for &(name, kind) in STEP_PHASES {
        m.push(name, per_step_us(kind));
    }
    let launches = (after.launch.total_launches() - before.launch.total_launches()) as f64;
    m.push("core.vgpu_launches_per_step", launches / steps);
    let replays = (after.launch.graph_replays - before.launch.graph_replays) as f64;
    m.push("core.graph_replays_per_step", replays / steps);

    let expert_bytes = engine.expert_weight_bytes().unwrap_or(0) as f64;
    let bytes = expert_bytes_per_step(&before.experts, &after.experts, steps, expert_bytes);
    let cpu_us =
        per_step_us(SpanKind::CpuExpertImmediate) + per_step_us(SpanKind::CpuExpertDeferred);
    m.push(
        "kernels.cpu_expert_gbps",
        if cpu_us > 0.0 {
            bytes / (cpu_us * 1e3)
        } else {
            0.0
        },
    );

    m.push("kv.pages_in_use_peak", traced.pages_in_use_peak as f64);
    m.push("kv.pages_shared_peak", traced.pages_shared_peak as f64);
    let hit_tokens = after.counter(before, CounterKind::PrefixHitTokens);
    m.push(
        "prefix.hit_token_ratio",
        hit_tokens / traced.prompt_tokens(plan).max(1) as f64,
    );
    let hits = after.counter(before, CounterKind::PrefixHits);
    let seed_us = after.phase_ns(before, SpanKind::PrefixSeed) / 1e3;
    m.push(
        "prefix.seed_us_per_hit",
        if hits > 0.0 { seed_us / hits } else { 0.0 },
    );
    m.push("prefix.evictions", delta(traced, |s| s.prefix_evictions));
    m.push(
        "prefix.evicted_mb",
        after.counter(before, CounterKind::PrefixEvictedBytes) / 1e6,
    );
    m.push(
        "tensor.arena_allocs_after_warmup",
        delta(traced, |s| s.arena_allocations),
    );

    // Tracing overhead: how much worse the traced phase read on the
    // workload's headline latency or throughput.
    let overhead = match w {
        Workload::DecodeBatch => {
            let (off, on) = (untraced.output_tok_s(), traced.output_tok_s());
            (off - on) / off * 100.0
        }
        _ => {
            let off = percentile(&untraced.ttft_ms(), 50.0)?;
            let on = percentile(&traced.ttft_ms(), 50.0)?;
            (on - off) / off * 100.0
        }
    };
    m.push("trace.overhead_pct", overhead);
    let lag = traced.lag_ms().into_iter().fold(0.0, f64::max);
    m.push("loadgen.lag_max_ms", lag);
    let stats_us: Vec<f64> = traced.stats_ns.iter().map(|&n| n as f64 / 1e3).collect();
    m.push(
        "bench.stats_us_mean",
        stats_us.iter().sum::<f64>() / stats_us.len().max(1) as f64,
    );
    Ok(m)
}

/// Shares of the engine step spent in each phase, for the log.
pub fn step_shares(m: &Metrics) -> String {
    let step = m.get("core.step_us").unwrap_or(0.0).max(1e-9);
    STEP_PHASES[1..]
        .iter()
        .map(|&(name, _)| {
            let short = name.trim_start_matches("core.").trim_end_matches("_us");
            format!("{short}={:.1}%", m.get(name).unwrap_or(0.0) / step * 100.0)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::valid_name;

    #[test]
    fn per_layer_names_are_valid_and_unique() {
        for (i, (name, unit)) in PER_LAYER.iter().enumerate() {
            assert!(valid_name(name));
            assert!(!unit.is_empty());
            assert!(PER_LAYER[..i].iter().all(|(n, _)| n != name));
        }
        for (name, _) in STEP_PHASES {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name));
        }
    }

    #[test]
    fn distinct_expert_estimate_is_bounded_by_activations_and_experts() {
        assert_eq!(distinct_experts(&[0.0; 4], 8.0), 0.0);
        // Every activation on one expert: one distinct expert.
        assert!((distinct_experts(&[10.0, 0.0, 0.0, 0.0], 8.0) - 1.0).abs() < 1e-12);
        // One activation per step touches exactly one expert.
        assert!((distinct_experts(&[1.0; 4], 1.0) - 1.0).abs() < 1e-12);
        // Many activations over a uniform router touch nearly all.
        let d = distinct_experts(&[1.0; 32], 64.0);
        assert!(d > 27.0 && d < 32.0);
    }
}
