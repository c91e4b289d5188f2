//! The load generator: one client thread drives `kt-serve` through its
//! public API, closed-loop or open-loop, and records what each request
//! saw.
//!
//! It never blocks without a bound: it sleeps until the next request is
//! due (open loop) or waits with `wait_timeout` on the oldest request
//! (closed loop, and the drain after every phase), and a request
//! unresolved at its deadline is cancelled and counted as timed out.
//! It wakes only when there is something to do, so it takes as little
//! CPU as it can from the server it measures.

use std::time::{Duration, Instant};

use kt_core::ServeStats;
use kt_serve::{Request, RequestHandle, RequestResult, Server};

use crate::workload::{Limits, Load, Planned};

/// A request unresolved this long after its due time counts as timed
/// out.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// How often the client samples `Server::stats` for KV occupancy.
/// Sparse, because `Server::stats` waits on locks a step holds.
const STATS_EVERY: Duration = Duration::from_millis(100);

/// What one sent request saw.
#[derive(Debug, Clone)]
pub struct Sent {
    /// Index into the phase's request list.
    pub index: usize,
    /// When it was due, and when `Server::submit` was called. A closed
    /// loop's requests are due when sent.
    pub due: Instant,
    pub submitted: Instant,
    /// Wall time of the `Server::submit` call.
    pub submit_ns: u64,
    /// `None` when it did not resolve by its deadline.
    pub result: Option<RequestResult>,
}

impl Sent {
    pub fn completed(&self) -> Option<&RequestResult> {
        self.result.as_ref().filter(|r| r.is_completed())
    }

    /// TTFT from the due time: generator lag, queue wait and the
    /// server's admission-to-first-token time. `None` without a first
    /// token.
    pub fn ttft(&self) -> Option<Duration> {
        let r = self.result.as_ref()?;
        let ttft = r.metrics.ttft_ns?;
        Some(ttft_from_due(
            self.due,
            self.submitted,
            r.metrics.queue_wait_ns,
            ttft,
        ))
    }

    /// When each output token was emitted, from the server's own
    /// queue-wait, TTFT and inter-token timings.
    pub fn emitted_at<'a>(&self, r: &'a RequestResult) -> impl Iterator<Item = Instant> + 'a {
        let first = r
            .metrics
            .ttft_ns
            .map(|t| self.submitted + Duration::from_nanos(r.metrics.queue_wait_ns + t));
        first.into_iter().flat_map(move |first| {
            std::iter::once(first).chain(r.metrics.token_latencies_ns.iter().scan(
                first,
                |t, &g| {
                    *t += Duration::from_nanos(g);
                    Some(*t)
                },
            ))
        })
    }

    /// Whether it completed within the goodput limits.
    pub fn good(&self, limits: Limits) -> bool {
        let Some(r) = self.completed() else {
            return false;
        };
        let gap_ns = limits.gap.as_nanos() as u64;
        self.ttft().is_some_and(|t| t <= limits.ttft)
            && r.metrics.token_latencies_ns.iter().all(|&g| g <= gap_ns)
    }
}

/// Latency of a first token as a user sees it: from when the request
/// was due, so a generator that fell behind (a stall anywhere) is
/// charged to the requests it delayed.
pub fn ttft_from_due(
    due: Instant,
    submitted: Instant,
    queue_wait_ns: u64,
    ttft_ns: u64,
) -> Duration {
    submitted.saturating_duration_since(due) + Duration::from_nanos(queue_wait_ns + ttft_ns)
}

/// Everything one phase recorded.
#[derive(Debug)]
pub struct Phase {
    pub name: String,
    pub load: Load,
    pub sent: Vec<Sent>,
    pub start: Instant,
    /// End of the sending window (closed loop: no sends after it).
    pub window_end: Instant,
    /// When the last request resolved or timed out.
    pub end: Instant,
    /// Peak KV pages in use and shared, from `Server::stats` samples.
    pub pages_in_use_peak: u64,
    pub pages_shared_peak: u64,
    /// Wall time of each `Server::stats` sample.
    pub stats_ns: Vec<u64>,
    /// Server statistics before and after the phase.
    pub stats_before: ServeStats,
    pub stats_after: ServeStats,
}

impl Phase {
    pub fn completed(&self) -> impl Iterator<Item = (&Sent, &RequestResult)> {
        self.sent
            .iter()
            .filter_map(|s| s.completed().map(|r| (s, r)))
    }

    pub fn n_completed(&self) -> usize {
        self.completed().count()
    }

    pub fn n_failed(&self) -> usize {
        self.sent.len() - self.n_completed()
    }

    pub fn goodput(&self, limits: Limits) -> f64 {
        self.sent.iter().filter(|s| s.good(limits)).count() as f64 / self.sent.len().max(1) as f64
    }

    /// Tokens of completed requests per second. A closed loop counts
    /// the tokens emitted inside its window, over the window; an open
    /// loop counts every completion, over the time from the phase's
    /// start to its last completion.
    pub fn output_tok_s(&self) -> f64 {
        let (tokens, secs) = match self.load {
            Load::Closed { .. } => {
                let tokens: usize = self
                    .completed()
                    .map(|(s, r)| {
                        s.emitted_at(r)
                            .filter(|&t| t >= self.start && t <= self.window_end)
                            .count()
                    })
                    .sum();
                (tokens, (self.window_end - self.start).as_secs_f64())
            }
            Load::Open { .. } => {
                let tokens: usize = self.completed().map(|(_, r)| r.tokens.len()).sum();
                let last = self
                    .completed()
                    .filter_map(|(s, r)| s.emitted_at(r).last())
                    .max()
                    .unwrap_or(self.start);
                (tokens, (last - self.start).as_secs_f64())
            }
        };
        tokens as f64 / secs.max(1e-9)
    }

    /// TTFT of every request sent; one that did not complete counts as
    /// infinitely late, so failures push the percentiles up.
    pub fn ttft_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .map(|s| match (s.completed(), s.ttft()) {
                (Some(_), Some(t)) => t.as_secs_f64() * 1e3,
                _ => f64::INFINITY,
            })
            .collect()
    }

    pub fn itl_ms(&self) -> Vec<f64> {
        self.completed()
            .flat_map(|(_, r)| r.metrics.token_latencies_ns.iter().map(|&g| g as f64 / 1e6))
            .collect()
    }

    pub fn queue_wait_ms(&self) -> Vec<f64> {
        self.completed()
            .map(|(_, r)| r.metrics.queue_wait_ns as f64 / 1e6)
            .collect()
    }

    /// How late the open-loop generator submitted, per request.
    pub fn lag_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .map(|s| s.submitted.saturating_duration_since(s.due).as_secs_f64() * 1e3)
            .collect()
    }

    pub fn submit_us(&self) -> Vec<f64> {
        self.sent.iter().map(|s| s.submit_ns as f64 / 1e3).collect()
    }

    /// Prompt tokens of every request sent.
    pub fn prompt_tokens(&self, plan: &[Planned]) -> usize {
        self.sent.iter().map(|s| plan[s.index].prompt.len()).sum()
    }

    /// `sent=… succeeded=… failed=…` for the run's log.
    pub fn counts(&self) -> String {
        format!(
            "phase={} sent={} succeeded={} failed={} seconds={:.2}",
            self.name,
            self.sent.len(),
            self.n_completed(),
            self.n_failed(),
            (self.end - self.start).as_secs_f64()
        )
    }

    /// What the server counted over the phase, for the run's log.
    pub fn server_counts(&self) -> String {
        let (a, b) = (&self.stats_before, &self.stats_after);
        let steps = b.steps - a.steps;
        format!(
            "server: steps={steps} rows_mean={:.2} prefill_tokens={} prefix_lookups={} prefix_hits={} prefix_hit_tokens={} prefix_evictions={}",
            (b.occupancy_sum - a.occupancy_sum) as f64 / steps.max(1) as f64,
            b.prefill_tokens - a.prefill_tokens,
            b.prefix_lookups - a.prefix_lookups,
            b.prefix_hits - a.prefix_hits,
            b.prefix_hit_tokens - a.prefix_hit_tokens,
            b.prefix_evictions - a.prefix_evictions,
        )
    }
}

/// Tokens of completed requests per second of engine time, over
/// `phases`: the vGPU's op execution plus launch time, which covers
/// each step, its wait for the CPU experts included, but not the idle
/// time between open-loop arrivals. An open loop's `output_tok_s` is
/// its offered load until the server saturates; this moves with the
/// program's speed at any load.
pub fn busy_tok_s(phases: &[&Phase]) -> f64 {
    let busy_ns = |s: &ServeStats| s.gpu_busy_ns + s.gpu_launch_overhead_ns;
    let (mut tokens, mut ns) = (0, 0);
    for p in phases {
        tokens += p.completed().map(|(_, r)| r.tokens.len()).sum::<usize>();
        ns += busy_ns(&p.stats_after).saturating_sub(busy_ns(&p.stats_before));
    }
    tokens as f64 / (ns as f64 / 1e9).max(1e-9)
}

struct Outstanding {
    sent: Sent,
    handle: RequestHandle,
}

struct Client<'a> {
    server: &'a Server,
    outstanding: Vec<Outstanding>,
    done: Vec<Sent>,
    next_stats: Instant,
    pages_in_use_peak: u64,
    pages_shared_peak: u64,
    stats_ns: Vec<u64>,
}

impl Client<'_> {
    fn submit(&mut self, index: usize, p: &Planned, due: Instant) {
        let t = Instant::now();
        let handle = self.server.submit(Request::greedy(&p.prompt, p.max_new));
        let after = Instant::now();
        self.outstanding.push(Outstanding {
            sent: Sent {
                index,
                due,
                submitted: t,
                submit_ns: (after - t).as_nanos() as u64,
                result: None,
            },
            handle,
        });
    }

    /// Collects resolved requests and cancels those past their
    /// deadline; samples KV occupancy when due.
    fn poll(&mut self) {
        let now = Instant::now();
        let mut i = 0;
        while i < self.outstanding.len() {
            let o = &self.outstanding[i];
            let result = o.handle.try_result();
            if result.is_some() || now >= o.sent.due + REQUEST_TIMEOUT {
                let mut o = self.outstanding.remove(i);
                if result.is_none() {
                    o.handle.cancel();
                }
                o.sent.result = result;
                self.done.push(o.sent);
            } else {
                i += 1;
            }
        }
        if now >= self.next_stats {
            self.sample_stats();
        }
    }

    fn sample_stats(&mut self) {
        let t = Instant::now();
        let s = self.server.stats();
        self.stats_ns.push(t.elapsed().as_nanos() as u64);
        self.pages_in_use_peak = self
            .pages_in_use_peak
            .max(s.kv_pages_total - s.kv_pages_free);
        self.pages_shared_peak = self.pages_shared_peak.max(s.kv_pages_shared);
        self.next_stats = t + STATS_EVERY;
    }

    /// Blocks until the oldest outstanding request resolves, its
    /// deadline passes, or `until`, whichever comes first.
    fn wait_oldest(&self, until: Instant) {
        let now = Instant::now();
        let Some(o) = self.outstanding.first() else {
            std::thread::sleep(until.saturating_duration_since(now));
            return;
        };
        let deadline = until.min(o.sent.due + REQUEST_TIMEOUT);
        let _ = o
            .handle
            .wait_timeout(deadline.saturating_duration_since(now));
    }

    /// Waits for every outstanding request until its deadline.
    fn drain(&mut self) {
        while !self.outstanding.is_empty() {
            self.wait_oldest(self.next_stats);
            self.poll();
        }
    }
}

/// Runs one phase of `plan` at `load`, sending for at most `seconds`
/// (a closed loop also stops when the plan runs out), then waits for
/// every request sent.
pub fn run(server: &Server, name: &str, plan: &[Planned], load: Load, seconds: f64) -> Phase {
    let stats_before = server.stats();
    let start = Instant::now();
    let window_end = start + Duration::from_secs_f64(seconds);
    let mut c = Client {
        server,
        outstanding: Vec::new(),
        done: Vec::new(),
        next_stats: start,
        pages_in_use_peak: 0,
        pages_shared_peak: 0,
        stats_ns: Vec::new(),
    };
    match load {
        Load::Closed { clients } => {
            let mut next = 0;
            while Instant::now() < window_end && next < plan.len() {
                while c.outstanding.len() < clients && next < plan.len() {
                    c.submit(next, &plan[next], Instant::now());
                    next += 1;
                }
                // With equal output lengths the oldest request finishes
                // first, so this wakes once per completion.
                c.wait_oldest(window_end.min(c.next_stats));
                c.poll();
            }
        }
        Load::Open { .. } => {
            for (i, p) in plan.iter().enumerate() {
                let due = start + p.due;
                loop {
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    std::thread::sleep(
                        (due - now).min(c.next_stats.saturating_duration_since(now)),
                    );
                    c.poll();
                }
                c.submit(i, p, due);
            }
        }
    }
    c.drain();
    let mut sent = c.done;
    sent.sort_by_key(|s| s.index);
    Phase {
        name: name.to_string(),
        load,
        sent,
        start,
        window_end,
        end: Instant::now(),
        pages_in_use_peak: c.pages_in_use_peak,
        pages_shared_peak: c.pages_shared_peak,
        stats_ns: c.stats_ns,
        stats_before,
        stats_after: server.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_ttft_counts_from_the_due_time_not_the_submit_time() {
        let due = Instant::now();
        let submitted = due + Duration::from_millis(30);
        let t = ttft_from_due(due, submitted, 2_000_000, 5_000_000);
        assert_eq!(t, Duration::from_millis(37), "lag + queue wait + ttft");
        // Submitting on time charges no lag.
        assert_eq!(
            ttft_from_due(due, due, 2_000_000, 5_000_000),
            Duration::from_millis(7)
        );
    }
}
