//! Sort requests and deterministic workloads.
//!
//! A [`SortRequest`] is everything the service needs to serve one batch:
//! the shape, the seed that regenerates its data (requests carry seeds,
//! not payloads, so workload files stay small and runs stay
//! reproducible), the algorithm, a [`Priority`] for the shedding order
//! and an absolute virtual-time deadline. A [`Workload`] is an
//! arrival-ordered stream of requests, either loaded from JSON or
//! generated from a seed.

use array_sort::SplitterPolicy;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Request priority. Under overload the service sheds the *lowest*
/// priority first; the derived `Ord` ascends from [`Priority::Low`] to
/// [`Priority::Critical`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(rename_all = "lowercase")]
pub enum Priority {
    /// First to be shed.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Shed only after all normal/low requests.
    High,
    /// Never shed before anything else is.
    Critical,
}

impl Priority {
    /// Parses the lowercase name used by the CLI and workload files.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "low" => Ok(Priority::Low),
            "normal" => Ok(Priority::Normal),
            "high" => Ok(Priority::High),
            "critical" => Ok(Priority::Critical),
            other => Err(format!(
                "unknown priority '{other}' (expected low|normal|high|critical)"
            )),
        }
    }

    /// Lowercase display name.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
            Priority::Critical => "critical",
        }
    }
}

/// Which device sorter serves a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[serde(rename_all = "lowercase")]
pub enum Algorithm {
    /// GPU-ArraySort, the paper's in-place three-phase pipeline. The
    /// service still projects both GAS variants for these requests and
    /// dispatches whichever the cost model says is cheaper.
    #[default]
    Gas,
    /// The warp-multisplit fused pipeline, forced.
    #[serde(rename = "gas-warp")]
    GasWarp,
    /// The sort-then-sort Thrust baseline (STA).
    Sta,
}

impl Algorithm {
    /// Parses the lowercase name used by the CLI and workload files.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "gas" => Ok(Algorithm::Gas),
            "gas-warp" => Ok(Algorithm::GasWarp),
            "sta" => Ok(Algorithm::Sta),
            other => Err(format!(
                "unknown algorithm '{other}' (expected gas|gas-warp|sta)"
            )),
        }
    }

    /// Lowercase display name.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Gas => "gas",
            Algorithm::GasWarp => "gas-warp",
            Algorithm::Sta => "sta",
        }
    }
}

/// One batch-sort request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SortRequest {
    /// Unique request id; the report carries exactly one record per id.
    pub id: u64,
    /// Arrays in the batch.
    pub num_arrays: usize,
    /// Elements per array.
    pub array_len: usize,
    /// Seed regenerating the batch's data (paper-uniform distribution).
    pub data_seed: u64,
    /// Device sorter to use.
    pub algorithm: Algorithm,
    /// Splitter-selection policy for GAS requests (ignored by
    /// [`Algorithm::Sta`]). Defaults to the paper's regular sampling, so
    /// workload files written before the field existed parse unchanged.
    #[serde(default)]
    pub splitters: SplitterPolicy,
    /// Shedding priority.
    pub priority: Priority,
    /// Virtual-time arrival, ms.
    pub arrival_ms: f64,
    /// Absolute virtual-time deadline, ms.
    pub deadline_ms: f64,
}

impl SortRequest {
    /// Raw payload size in bytes (f32 elements).
    pub fn data_bytes(&self) -> u64 {
        (self.num_arrays as u64) * (self.array_len as u64) * 4
    }
}

/// Knobs for [`Workload::generate`]. All ranges are inclusive.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Seed for every random draw the generator makes.
    pub seed: u64,
    /// Number of requests.
    pub requests: usize,
    /// `num_arrays` range.
    pub arrays: (usize, usize),
    /// `array_len` range.
    pub array_len: (usize, usize),
    /// Mean virtual-time gap between arrivals, ms (gaps are uniform in
    /// `[0.5, 1.5) ×` this).
    pub mean_gap_ms: f64,
    /// Deadline slack range: the deadline is the arrival plus a uniform
    /// multiple of a crude per-request service estimate.
    pub deadline_slack: (f64, f64),
    /// Fraction of requests routed to [`Algorithm::Sta`].
    pub sta_fraction: f64,
    /// Fraction of requests forced to [`Algorithm::GasWarp`] (drawn from
    /// the non-STA share). Defaults to 0 so workloads generated before
    /// the variant existed replay bit-identically.
    pub warp_fraction: f64,
    /// Fraction of requests served with the deterministic splitter
    /// policy ([`SplitterPolicy::Deterministic`]). Decided from a hash
    /// of the request id rather than an RNG draw, so setting it does not
    /// perturb the shapes/arrivals of workloads generated before the
    /// knob existed (they replay bit-identically). Defaults to 0.
    pub deterministic_fraction: f64,
    /// Fraction of requests rewritten into **repeated content**: each
    /// flagged request takes one of four canned (shape, data-seed)
    /// palette entries, so identical payload bytes recur throughout the
    /// stream and the result cache has something to hit. Decided from a
    /// hash of the request id (a different hash than
    /// `deterministic_fraction`) after every RNG draw, so setting it
    /// does not perturb the non-repeated requests — they stay
    /// bit-identical to the knob-free workload. Defaults to 0.
    pub repeat_fraction: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            requests: 100,
            arrays: (8, 64),
            array_len: (16, 96),
            mean_gap_ms: 0.4,
            deadline_slack: (4.0, 40.0),
            sta_fraction: 0.25,
            warp_fraction: 0.0,
            deterministic_fraction: 0.0,
            repeat_fraction: 0.0,
        }
    }
}

/// The canned (num_arrays, array_len, data-seed salt) palette
/// `repeat_fraction` rewrites flagged requests onto. Four entries keep
/// the cache honest (it must hold several keys, not one) while each
/// entry recurs often enough to hit.
const REPEAT_PALETTE: [(usize, usize, u64); 4] = [(6, 32, 1), (8, 24, 2), (4, 48, 3), (8, 40, 4)];

/// An arrival-ordered stream of sort requests.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// The requests, sorted by `(arrival_ms, id)`.
    pub requests: Vec<SortRequest>,
}

impl Workload {
    /// Generates a deterministic workload: the same config always yields
    /// the same requests, bit for bit.
    pub fn generate(cfg: &WorkloadConfig) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut arrival = 0.0f64;
        let mut requests = Vec::with_capacity(cfg.requests);
        for id in 0..cfg.requests as u64 {
            arrival += cfg.mean_gap_ms * rng.gen_range(0.5..1.5);
            let num_arrays = rng.gen_range(cfg.arrays.0..=cfg.arrays.1);
            let array_len = rng.gen_range(cfg.array_len.0..=cfg.array_len.1);
            let draw = rng.gen::<f64>();
            let algorithm = if draw < cfg.sta_fraction {
                Algorithm::Sta
            } else if draw < cfg.sta_fraction + cfg.warp_fraction {
                Algorithm::GasWarp
            } else {
                Algorithm::Gas
            };
            let priority = match rng.gen_range(0..10) {
                0 => Priority::Critical,
                1 | 2 => Priority::High,
                3..=7 => Priority::Normal,
                _ => Priority::Low,
            };
            // Crude service estimate: n log n element moves at host speed
            // plus a transfer allowance. Only the *slack multiple* of this
            // matters; the service's own admission estimator is sharper.
            let n = array_len as f64;
            let crude_ms = num_arrays as f64 * n * n.log2().max(1.0) * 10e-6;
            let slack = rng.gen_range(cfg.deadline_slack.0..=cfg.deadline_slack.1);
            // Splitter policy from a hash of the id, not an RNG draw:
            // the knob must not shift any draw the shapes above consume.
            let det_unit =
                (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 / (1u64 << 24) as f64;
            let splitters = if det_unit < cfg.deterministic_fraction {
                SplitterPolicy::Deterministic
            } else {
                SplitterPolicy::RegularSample
            };
            let mut req = SortRequest {
                id,
                num_arrays,
                array_len,
                data_seed: cfg.seed.wrapping_mul(0x9E37_79B9).wrapping_add(id),
                algorithm,
                splitters,
                priority,
                arrival_ms: arrival,
                deadline_ms: arrival + (crude_ms * slack).max(1.0),
            };
            // Repeated-content rewrite, also from an id hash (a different
            // one) applied after every RNG draw: flagged requests snap to
            // a canned palette entry whose data seed depends only on the
            // workload seed, so identical bytes recur across the stream.
            // Arrival, priority and deadline keep their drawn values.
            let repeat_unit = (id.rotate_left(17).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64
                / (1u64 << 24) as f64;
            if repeat_unit < cfg.repeat_fraction {
                let pick =
                    (id.wrapping_mul(0xD1B5_4A32_D192_ED03) >> 8) as usize % REPEAT_PALETTE.len();
                let (num, len, salt) = REPEAT_PALETTE[pick];
                req.num_arrays = num;
                req.array_len = len;
                req.data_seed = cfg.seed.wrapping_mul(0x517C_C1B7).wrapping_add(salt);
                req.algorithm = Algorithm::Gas;
                req.splitters = SplitterPolicy::RegularSample;
            }
            requests.push(req);
        }
        Workload { requests }
    }

    /// Parses a workload from JSON: either `{"requests": [...]}` or a
    /// bare request array.
    pub fn from_json(body: &str) -> Result<Self, String> {
        let parsed = if body.trim_start().starts_with('[') {
            serde_json::from_str(body).map(|requests| Workload { requests })
        } else {
            serde_json::from_str(body)
        };
        parsed.map_err(|e| format!("cannot parse workload: {e}"))
    }

    /// Serializes the workload as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("workload serializes")
    }

    /// Checks the stream is well formed: unique ids, positive shapes,
    /// non-decreasing arrivals, deadlines after arrivals.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut last_arrival = f64::NEG_INFINITY;
        for r in &self.requests {
            if !seen.insert(r.id) {
                return Err(format!("duplicate request id {}", r.id));
            }
            if r.num_arrays == 0 || r.array_len == 0 {
                return Err(format!(
                    "request {}: num_arrays and array_len must be positive",
                    r.id
                ));
            }
            if r.arrival_ms < last_arrival {
                return Err(format!("request {}: arrivals must be non-decreasing", r.id));
            }
            if r.deadline_ms <= r.arrival_ms {
                return Err(format!(
                    "request {}: deadline {} must be after arrival {}",
                    r.id, r.deadline_ms, r.arrival_ms
                ));
            }
            last_arrival = r.arrival_ms;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_valid() {
        let cfg = WorkloadConfig {
            requests: 50,
            ..WorkloadConfig::default()
        };
        let a = Workload::generate(&cfg);
        let b = Workload::generate(&cfg);
        assert_eq!(a, b, "same seed, same workload");
        assert_eq!(a.requests.len(), 50);
        a.validate().unwrap();
        let other = Workload::generate(&WorkloadConfig {
            seed: 1,
            requests: 50,
            ..WorkloadConfig::default()
        });
        assert_ne!(a, other, "different seed, different workload");
    }

    #[test]
    fn warp_fraction_routes_requests_without_disturbing_the_rest() {
        let base = WorkloadConfig {
            requests: 200,
            ..WorkloadConfig::default()
        };
        let plain = Workload::generate(&base);
        assert!(
            plain
                .requests
                .iter()
                .all(|r| r.algorithm != Algorithm::GasWarp),
            "default mix stays warp-free (back-compat)"
        );
        let mixed = Workload::generate(&WorkloadConfig {
            warp_fraction: 0.3,
            ..base.clone()
        });
        let warps = mixed
            .requests
            .iter()
            .filter(|r| r.algorithm == Algorithm::GasWarp)
            .count();
        assert!(warps > 20, "0.3 of 200 requests routes dozens, got {warps}");
        // Shapes, arrivals and deadlines are untouched by the routing knob.
        for (a, b) in plain.requests.iter().zip(&mixed.requests) {
            assert_eq!(
                (a.num_arrays, a.array_len, a.arrival_ms.to_bits()),
                (b.num_arrays, b.array_len, b.arrival_ms.to_bits())
            );
        }
    }

    #[test]
    fn deterministic_fraction_routes_policies_without_disturbing_the_rest() {
        let base = WorkloadConfig {
            requests: 200,
            ..WorkloadConfig::default()
        };
        let plain = Workload::generate(&base);
        assert!(
            plain
                .requests
                .iter()
                .all(|r| r.splitters == SplitterPolicy::RegularSample),
            "default mix stays on the paper's policy (back-compat)"
        );
        let mixed = Workload::generate(&WorkloadConfig {
            deterministic_fraction: 0.4,
            ..base.clone()
        });
        let det = mixed
            .requests
            .iter()
            .filter(|r| r.splitters == SplitterPolicy::Deterministic)
            .count();
        assert!(
            det > 40 && det < 160,
            "0.4 of 200 requests routes a deterministic share, got {det}"
        );
        // Everything except the policy field is bit-identical: the knob
        // consumes no RNG draw.
        for (a, b) in plain.requests.iter().zip(&mixed.requests) {
            let mut b2 = b.clone();
            b2.splitters = a.splitters;
            assert_eq!(a, &b2);
        }
    }

    #[test]
    fn repeat_fraction_repeats_content_without_disturbing_the_rest() {
        let base = WorkloadConfig {
            requests: 200,
            ..WorkloadConfig::default()
        };
        let plain = Workload::generate(&base);
        let mixed = Workload::generate(&WorkloadConfig {
            repeat_fraction: 0.5,
            ..base.clone()
        });
        let repeated: Vec<&SortRequest> = plain
            .requests
            .iter()
            .zip(&mixed.requests)
            .filter(|(a, b)| a != b)
            .map(|(_, b)| b)
            .collect();
        assert!(
            repeated.len() > 50 && repeated.len() < 150,
            "0.5 of 200 requests rewritten, got {}",
            repeated.len()
        );
        // Every rewritten request sits on a palette entry, and each
        // distinct (shape, seed) recurs — that is what a cache can hit.
        let mut seeds: Vec<u64> = repeated.iter().map(|r| r.data_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert!(
            seeds.len() <= 4 && seeds.len() >= 2,
            "palette holds 4 canned seeds, saw {}",
            seeds.len()
        );
        assert!(repeated.len() > 2 * seeds.len(), "each entry recurs");
        // Non-repeated requests are bit-identical: the knob consumes no
        // RNG draw, and arrival/priority/deadline survive even on the
        // rewritten ones.
        for (a, b) in plain.requests.iter().zip(&mixed.requests) {
            assert_eq!(a.arrival_ms.to_bits(), b.arrival_ms.to_bits());
            assert_eq!(a.deadline_ms.to_bits(), b.deadline_ms.to_bits());
            assert_eq!(a.priority, b.priority);
        }
        mixed.validate().unwrap();
    }

    #[test]
    fn json_round_trip_and_bare_array() {
        let w = Workload::generate(&WorkloadConfig {
            requests: 3,
            ..WorkloadConfig::default()
        });
        let parsed = Workload::from_json(&w.to_json()).unwrap();
        assert_eq!(w, parsed);
        let bare = serde_json::to_string(&w.requests).unwrap();
        assert_eq!(Workload::from_json(&bare).unwrap(), w);
        assert!(Workload::from_json("nonsense").is_err());
    }

    #[test]
    fn validate_rejects_malformed_streams() {
        let mut w = Workload::generate(&WorkloadConfig {
            requests: 2,
            ..WorkloadConfig::default()
        });
        w.requests[1].id = w.requests[0].id;
        assert!(w.validate().unwrap_err().contains("duplicate"));

        let mut w = Workload::generate(&WorkloadConfig {
            requests: 2,
            ..WorkloadConfig::default()
        });
        w.requests[1].arrival_ms = w.requests[0].arrival_ms - 1.0;
        assert!(w.validate().unwrap_err().contains("non-decreasing"));

        let mut w = Workload::generate(&WorkloadConfig {
            requests: 1,
            ..WorkloadConfig::default()
        });
        w.requests[0].deadline_ms = w.requests[0].arrival_ms;
        assert!(w.validate().unwrap_err().contains("deadline"));
    }

    #[test]
    fn priority_and_algorithm_parse() {
        assert_eq!(Priority::parse("critical").unwrap(), Priority::Critical);
        assert!(Priority::parse("urgent").is_err());
        assert_eq!(Algorithm::parse("sta").unwrap(), Algorithm::Sta);
        assert!(Algorithm::parse("gas-fused").is_err());
        assert_eq!(Algorithm::parse("gas-warp").unwrap(), Algorithm::GasWarp);
        assert_eq!(
            serde_json::to_string(&Algorithm::GasWarp).unwrap(),
            "\"gas-warp\""
        );
        assert!(Algorithm::parse("quick").is_err());
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::High < Priority::Critical);
    }
}
