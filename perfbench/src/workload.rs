//! Seeded request generation for the three serving workloads.
//!
//! Everything here is a pure function of the workload seed, so a run
//! reproduces its inputs exactly and the program under test sees only
//! the generated requests. Aggregate properties that would otherwise
//! swing from seed to seed (request count, the multiset of prompt and
//! output lengths, how often each document is drawn) are fixed by
//! stratified sampling: the seed decides the order, the arrival times
//! and the token contents, not the totals. That keeps run-to-run
//! spread down to what the program itself does.

use std::time::Duration;

/// SplitMix64: a small, well-mixed deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a seed, independent of the
    /// seed's other streams.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// One request the load generator sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Planned {
    /// When an open loop sends it, from the start of its phase. Zero
    /// in a closed loop, which sends on completion instead.
    pub due: Duration,
    pub prompt: Vec<u32>,
    pub max_new: usize,
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DecodeBatch,
    PrefixRag,
    ChatMixed,
}

/// Closed loop: `clients` callers that each wait for their reply.
/// Open loop: Poisson arrivals at a fixed rate, whatever the server
/// does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    Closed { clients: usize },
    Open { rate_rps: f64 },
}

/// Goodput limits: a request counts toward goodput only if it
/// completed, its TTFT (from its due time) is within `ttft`, and each
/// of its inter-token gaps is within `gap`.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub ttft: Duration,
    pub gap: Duration,
}

/// Tokens the generator draws prompts from. Well inside the model's
/// vocabulary; token 0 is avoided.
pub const VOCAB: u64 = 8000;

/// `decode_batch`: clients, prompt and output lengths.
pub const DECODE_CLIENTS: usize = 8;
pub const DECODE_PROMPT: usize = 16;
pub const DECODE_NEW: usize = 128;

/// `prefix_rag`: document pool, Zipf exponent, unique suffix, output.
pub const RAG_DOCS: usize = 64;
pub const RAG_DOC_LEN: usize = 384;
pub const RAG_ZIPF_S: f64 = 1.0;
pub const RAG_SUFFIX: usize = 16;
pub const RAG_NEW: usize = 16;
pub const RAG_RATE_RPS: f64 = 4.0;
/// Documents the warm-up sends once each, most popular last.
pub const RAG_WARM_DOCS: usize = 24;

/// `chat_mixed`: bounded-Pareto prompt lengths, uniform outputs, and
/// the fixed rates of the SLO sweep (nominal first).
pub const CHAT_PROMPT_MIN: f64 = 32.0;
pub const CHAT_PROMPT_MAX: f64 = 512.0;
pub const CHAT_PARETO_ALPHA: f64 = 1.2;
pub const CHAT_NEW_MIN: usize = 16;
pub const CHAT_NEW_MAX: usize = 64;
pub const CHAT_RATES_RPS: [f64; 3] = [4.0, 6.0, 8.0];

/// Goodput share a rate must reach to count toward `slo_rate_rps`.
pub const SLO_GOODPUT: f64 = 0.9;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DecodeBatch,
        Workload::PrefixRag,
        Workload::ChatMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DecodeBatch => "decode_batch",
            Workload::PrefixRag => "prefix_rag",
            Workload::ChatMixed => "chat_mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The measured phase's load.
    pub fn load(self) -> Load {
        match self {
            Workload::DecodeBatch => Load::Closed {
                clients: DECODE_CLIENTS,
            },
            Workload::PrefixRag => Load::Open {
                rate_rps: RAG_RATE_RPS,
            },
            Workload::ChatMixed => Load::Open {
                rate_rps: CHAT_RATES_RPS[0],
            },
        }
    }

    /// Goodput limits, fixed from the seed commit's own latencies.
    pub fn limits(self) -> Limits {
        let ms = Duration::from_millis;
        match self {
            Workload::DecodeBatch => Limits {
                ttft: ms(100),
                gap: ms(60),
            },
            Workload::PrefixRag => Limits {
                ttft: ms(500),
                gap: ms(100),
            },
            Workload::ChatMixed => Limits {
                ttft: ms(500),
                gap: ms(100),
            },
        }
    }

    /// Untimed warm-up requests, sent closed-loop by as many clients
    /// as the server batches. `prefix_rag` draws from the same Zipf
    /// stream so its prefix cache reaches steady state before timing.
    pub fn warmup(self, seed: u64) -> Vec<Planned> {
        const WARM: u64 = 0x7761_726d; // "warm"
        match self {
            Workload::DecodeBatch => (0..DECODE_CLIENTS)
                .map(|i| Planned {
                    due: Duration::ZERO,
                    prompt: decode_prompt(seed ^ WARM, i),
                    max_new: 32,
                })
                .collect(),
            // The most popular documents once each, most popular last,
            // so the prefix cache starts the timed phase holding them.
            Workload::PrefixRag => {
                rag_requests(seed, WARM, (0..RAG_WARM_DOCS).rev().collect(), None)
            }
            Workload::ChatMixed => chat_requests(seed ^ WARM, 24, None),
        }
    }

    /// The requests of one timed phase of `seconds` at `load`. A closed
    /// loop gets a prompt stream longer than it can use, whose first
    /// round is shortened so the clients finish one after another
    /// rather than in lockstep; an open loop gets exactly
    /// `rate × seconds` requests spread over the phase.
    pub fn requests(self, seed: u64, phase: u64, load: Load, seconds: f64) -> Vec<Planned> {
        let salt = (phase + 1).wrapping_mul(0x9E37_79B9);
        let stream = seed ^ salt;
        match load {
            Load::Closed { .. } => {
                // Generous: no host sustains 50 requests/s of 128 tokens.
                let n = (seconds * 50.0).ceil() as usize + DECODE_CLIENTS;
                (0..n)
                    .map(|i| Planned {
                        due: Duration::ZERO,
                        prompt: decode_prompt(stream, i),
                        max_new: if i < DECODE_CLIENTS {
                            DECODE_NEW * (i + 1) / DECODE_CLIENTS
                        } else {
                            DECODE_NEW
                        },
                    })
                    .collect()
            }
            Load::Open { rate_rps } => {
                let n = (rate_rps * seconds).round().max(1.0) as usize;
                let arrivals = arrivals(stream, n, seconds);
                match self {
                    Workload::PrefixRag => {
                        let ranks = stratified(&mut Rng::stream(stream, 4), n, zipf_rank);
                        rag_requests(seed, salt, ranks, Some(arrivals))
                    }
                    _ => chat_requests(stream, n, Some(arrivals)),
                }
            }
        }
    }
}

/// `n` Poisson arrivals over `seconds`, conditioned on their count:
/// sorted uniform points, so the seed moves the arrival times but not
/// how many requests the phase holds.
pub fn arrivals(seed: u64, n: usize, seconds: f64) -> Vec<Duration> {
    let mut rng = Rng::stream(seed, 1);
    let mut t: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    t.sort_by(f64::total_cmp);
    t.into_iter().map(Duration::from_secs_f64).collect()
}

/// `n` stratified quantiles of a distribution given by its inverse
/// CDF, in seeded order.
fn stratified<T>(rng: &mut Rng, n: usize, inv_cdf: impl Fn(f64) -> T) -> Vec<T> {
    let mut xs: Vec<T> = (0..n)
        .map(|i| inv_cdf((i as f64 + 0.5) / n as f64))
        .collect();
    rng.shuffle(&mut xs);
    xs
}

fn tokens(rng: &mut Rng, n: usize) -> Vec<u32> {
    (0..n).map(|_| 1 + rng.below(VOCAB - 1) as u32).collect()
}

/// The `i`-th unique `decode_batch` prompt of a seed.
pub fn decode_prompt(seed: u64, i: usize) -> Vec<u32> {
    let mut rng = Rng::stream(seed, 2 + ((i as u64) << 8));
    tokens(&mut rng, DECODE_PROMPT)
}

/// The shared document pool of `prefix_rag` for a seed.
pub fn rag_documents(seed: u64) -> Vec<Vec<u32>> {
    let mut rng = Rng::stream(seed, 3);
    (0..RAG_DOCS)
        .map(|_| tokens(&mut rng, RAG_DOC_LEN))
        .collect()
}

/// Inverse CDF of Zipf(`RAG_ZIPF_S`) over the document ranks.
fn zipf_rank(u: f64) -> usize {
    let w: Vec<f64> = (1..=RAG_DOCS)
        .map(|r| (r as f64).powf(-RAG_ZIPF_S))
        .collect();
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    for (rank, p) in w.iter().enumerate() {
        acc += p / total;
        if u < acc {
            return rank;
        }
    }
    RAG_DOCS - 1
}

/// `prefix_rag` requests for documents of popularity `ranks`. The
/// document pool and which document is popular depend on the run's
/// seed only, so the warm-up and every timed phase share them; `salt`
/// separates the phases' unique suffixes.
fn rag_requests(
    seed: u64,
    salt: u64,
    ranks: Vec<usize>,
    arrivals: Option<Vec<Duration>>,
) -> Vec<Planned> {
    let docs = rag_documents(seed);
    let mut rank_to_doc: Vec<usize> = (0..RAG_DOCS).collect();
    Rng::stream(seed, 5).shuffle(&mut rank_to_doc);
    let mut rng = Rng::stream(seed ^ salt, 6);
    ranks
        .into_iter()
        .enumerate()
        .map(|(i, rank)| {
            let mut prompt = docs[rank_to_doc[rank]].clone();
            prompt.extend(tokens(&mut rng, RAG_SUFFIX));
            Planned {
                due: arrivals.as_ref().map_or(Duration::ZERO, |a| a[i]),
                prompt,
                max_new: RAG_NEW,
            }
        })
        .collect()
}

/// Inverse CDF of the bounded Pareto prompt-length distribution.
fn chat_prompt_len(u: f64) -> usize {
    let (l, h, a) = (CHAT_PROMPT_MIN, CHAT_PROMPT_MAX, CHAT_PARETO_ALPHA);
    let ratio = (l / h).powf(a);
    let x = l / (1.0 - u * (1.0 - ratio)).powf(1.0 / a);
    (x.round() as usize).clamp(CHAT_PROMPT_MIN as usize, CHAT_PROMPT_MAX as usize)
}

fn chat_requests(seed: u64, n: usize, arrivals: Option<Vec<Duration>>) -> Vec<Planned> {
    let mut rng = Rng::stream(seed, 6);
    let lens = stratified(&mut rng, n, chat_prompt_len);
    let span = (CHAT_NEW_MAX - CHAT_NEW_MIN) as f64;
    let news = stratified(&mut rng, n, |u| CHAT_NEW_MIN + (u * (span + 1.0)) as usize);
    (0..n)
        .map(|i| Planned {
            due: arrivals.as_ref().map_or(Duration::ZERO, |a| a[i]),
            prompt: tokens(&mut rng, lens[i]),
            max_new: news[i],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_other_seed_different() {
        for w in Workload::ALL {
            let a = w.requests(7, 0, w.load(), 5.0);
            let b = w.requests(7, 0, w.load(), 5.0);
            let c = w.requests(8, 0, w.load(), 5.0);
            assert_eq!(a, b, "{}: same seed must give the same requests", w.name());
            assert_ne!(a, c, "{}: another seed must give other requests", w.name());
            assert_eq!(w.warmup(7), w.warmup(7));
            assert_ne!(w.warmup(7), w.warmup(8));
        }
    }

    #[test]
    fn open_loop_phases_hold_rate_times_seconds_requests_in_order() {
        let r = Workload::ChatMixed.requests(3, 0, Load::Open { rate_rps: 4.0 }, 25.0);
        assert_eq!(r.len(), 100);
        assert!(r.windows(2).all(|p| p[0].due <= p[1].due));
        assert!(r.last().unwrap().due <= Duration::from_secs(25));
        for p in &r {
            assert!((32..=512).contains(&p.prompt.len()));
            assert!((CHAT_NEW_MIN..=CHAT_NEW_MAX).contains(&p.max_new));
        }
    }

    #[test]
    fn stratification_fixes_totals_across_seeds() {
        let total = |seed| -> (usize, usize) {
            let r = Workload::ChatMixed.requests(seed, 0, Load::Open { rate_rps: 4.0 }, 25.0);
            (
                r.iter().map(|p| p.prompt.len()).sum(),
                r.iter().map(|p| p.max_new).sum(),
            )
        };
        assert_eq!(total(1), total(2));
    }

    #[test]
    fn rag_prompts_share_seeded_documents_with_zipf_popularity() {
        let docs = rag_documents(11);
        let r = Workload::PrefixRag.requests(11, 0, Workload::PrefixRag.load(), 25.0);
        let mut hits = vec![0usize; RAG_DOCS];
        for p in &r {
            assert_eq!(p.prompt.len(), RAG_DOC_LEN + RAG_SUFFIX);
            let d = docs
                .iter()
                .position(|d| p.prompt.starts_with(d))
                .expect("prompt starts with a document");
            hits[d] += 1;
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        assert!(
            hits[0] > 4 * hits[15].max(1),
            "Zipf head dominates: {hits:?}"
        );
        // The warm-up draws from the same document pool.
        let warm = Workload::PrefixRag.warmup(11);
        assert!(warm
            .iter()
            .all(|p| docs.iter().any(|d| p.prompt.starts_with(d))));
    }

    #[test]
    fn decode_prompts_are_unique() {
        let r = Workload::DecodeBatch.requests(5, 0, Workload::DecodeBatch.load(), 2.0);
        let mut firsts: Vec<&[u32]> = r.iter().map(|p| &p.prompt[..]).collect();
        firsts.sort();
        firsts.dedup();
        assert_eq!(firsts.len(), r.len());
        assert!(r.iter().all(|p| p.prompt.len() == DECODE_PROMPT));
        // The first round is staggered, every later request full length.
        let first: Vec<usize> = r[..DECODE_CLIENTS].iter().map(|p| p.max_new).collect();
        assert_eq!(
            first,
            (1..=DECODE_CLIENTS)
                .map(|i| DECODE_NEW * i / DECODE_CLIENTS)
                .collect::<Vec<_>>()
        );
        assert!(r[DECODE_CLIENTS..].iter().all(|p| p.max_new == DECODE_NEW));
    }
}
