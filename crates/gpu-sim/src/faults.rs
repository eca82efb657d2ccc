//! Deterministic, seedable fault injection (chaos testing).
//!
//! Real GPU deployments lose work to transient faults: a kernel launch
//! that comes back with an error, a PCIe transfer that aborts halfway or
//! delivers corrupted data, a stream that stalls behind an unrelated
//! tenant, an allocation that fails under memory pressure. This module
//! lets a test or the `gas chaos` CLI inject exactly those faults into
//! the simulator — *deterministically*, so every failing run can be
//! replayed from its seed.
//!
//! A [`FaultPlan`] describes probabilistic rates per operation class plus
//! optional scripted faults pinned to a specific operation index. Install
//! it with [`crate::Gpu::set_fault_plan`]; the device then consults a
//! [`FaultInjector`] (one `rand_chacha` draw per operation, so the fault
//! sequence depends only on the seed and the operation order) before each
//! kernel launch, transfer and allocation. Injected faults surface as
//! [`crate::SimError::InjectedFault`], which is the only *transient*
//! error in the taxonomy — see [`crate::SimError::is_transient`].
//!
//! With no plan installed the device takes none of these paths and every
//! cycle bill, result and trace is byte-identical to a build without this
//! module.
//!
//! Injection points and their semantics:
//!
//! * **Kernel launch** ([`FaultKind::LaunchFailure`]) — the kernel body
//!   never runs (no data effects); the launch overhead is still charged,
//!   modelling a driver-rejected launch.
//! * **Transfer abort** ([`FaultKind::TransferAbort`]) — no data moves;
//!   half the transfer time is charged (the DMA died mid-flight).
//! * **Transfer corruption** ([`FaultKind::TransferCorruption`]) — the
//!   copy completes and full time is charged, but one destination element
//!   is damaged and the transfer reports an error (modelling a detected
//!   CRC/ECC failure; the caller must discard the payload).
//! * **Stream stall** ([`FaultKind::StreamStall`]) — the operation
//!   succeeds but takes [`FaultPlan::stall_ms`] longer. Never an error.
//! * **Device OOM** ([`FaultKind::DeviceOom`]) — an allocation fails as
//!   if the device were out of memory, without touching the ledger.
//! * **Device death** ([`FaultKind::DeviceDeath`]) — the device falls off
//!   the bus at a kernel launch and never comes back: the launch fails,
//!   the [`crate::Gpu`] is marked dead, and every later operation fails
//!   immediately with the same *permanent* error (the one injected fault
//!   whose [`crate::SimError::is_transient`] is `false`). Only the
//!   original death lands in the injector log; the fail-fast rejections
//!   afterwards are consequences, not new faults.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What kind of fault fired. See the module docs for per-kind semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A kernel launch is rejected before any block runs.
    LaunchFailure,
    /// A host↔device copy dies mid-flight; no data moves.
    TransferAbort,
    /// A copy completes but one destination element is damaged; the
    /// transfer reports the (detected) corruption as an error.
    TransferCorruption,
    /// The operation succeeds but takes [`FaultPlan::stall_ms`] longer.
    StreamStall,
    /// An allocation fails as if device memory were exhausted.
    DeviceOom,
    /// The device dies permanently at a kernel launch: the launch fails
    /// and every subsequent operation on the device fails immediately
    /// with the same error. The only *permanent* injected fault.
    DeviceDeath,
}

impl FaultKind {
    /// True when this kind surfaces as a [`crate::SimError`] (everything
    /// except [`FaultKind::StreamStall`], which only costs time).
    pub fn is_error(self) -> bool {
        !matches!(self, FaultKind::StreamStall)
    }

    /// True when the fault is unrecoverable on this device: retrying the
    /// operation there can never succeed. Only [`FaultKind::DeviceDeath`].
    pub fn is_permanent(self) -> bool {
        matches!(self, FaultKind::DeviceDeath)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::LaunchFailure => "launch-failure",
            FaultKind::TransferAbort => "transfer-abort",
            FaultKind::TransferCorruption => "transfer-corruption",
            FaultKind::StreamStall => "stream-stall",
            FaultKind::DeviceOom => "device-oom",
            FaultKind::DeviceDeath => "device-death",
        };
        f.write_str(s)
    }
}

/// The operation class a scripted fault is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultOp {
    /// Kernel launches ([`crate::Gpu::launch`]).
    Launch,
    /// Transfers (`htod_copy`/`htod_into`/`dtoh_into`).
    Transfer,
    /// Allocations (`alloc`, plus the implicit allocation in `htod_copy`).
    Alloc,
}

/// A fault pinned to the `index`-th operation of class `op` (0-based,
/// counted per class across the device's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptedFault {
    /// Which operation class the fault targets.
    pub op: FaultOp,
    /// 0-based index within that class.
    pub index: u64,
    /// The fault to inject there.
    pub kind: FaultKind,
}

/// A deterministic fault schedule: per-class probabilities plus scripted
/// faults, all derived from `seed`.
///
/// Rates are per-operation probabilities in `[0, 1]`. One RNG draw is
/// consumed per operation regardless of outcome, so the injected sequence
/// is a pure function of `(seed, operation order)` — tweaking one rate
/// shifts which faults fire but never desynchronizes the stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the `ChaCha8` stream driving all probabilistic choices.
    pub seed: u64,
    /// Probability that a kernel launch fails.
    pub launch_failure: f64,
    /// Probability that a transfer aborts.
    pub transfer_abort: f64,
    /// Probability that a transfer delivers (detected) corrupted data.
    pub transfer_corruption: f64,
    /// Probability that an allocation reports device-OOM.
    pub alloc_oom: f64,
    /// Probability that a launch or transfer stalls for [`Self::stall_ms`].
    pub stream_stall: f64,
    /// Probability that a kernel launch kills the device permanently
    /// ([`FaultKind::DeviceDeath`]). Defaults to 0 so plans serialized
    /// before the kind existed parse unchanged.
    #[serde(default)]
    pub device_death: f64,
    /// Extra simulated milliseconds a stalled operation takes.
    pub stall_ms: f64,
    /// Stop injecting after this many faults (scripted + probabilistic).
    /// `None` means unlimited.
    pub max_faults: Option<u32>,
    /// Faults pinned to specific operation indices, checked before the
    /// probabilistic rates.
    pub scripted: Vec<ScriptedFault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            launch_failure: 0.0,
            transfer_abort: 0.0,
            transfer_corruption: 0.0,
            alloc_oom: 0.0,
            stream_stall: 0.0,
            device_death: 0.0,
            stall_ms: 1.0,
            max_faults: None,
            scripted: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed — the starting point
    /// for the builder methods.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Sets the kernel-launch failure rate.
    pub fn with_launch_failure(mut self, rate: f64) -> Self {
        self.launch_failure = rate;
        self
    }

    /// Sets the transfer-abort rate.
    pub fn with_transfer_abort(mut self, rate: f64) -> Self {
        self.transfer_abort = rate;
        self
    }

    /// Sets the transfer-corruption rate.
    pub fn with_transfer_corruption(mut self, rate: f64) -> Self {
        self.transfer_corruption = rate;
        self
    }

    /// Sets the allocation-OOM rate.
    pub fn with_alloc_oom(mut self, rate: f64) -> Self {
        self.alloc_oom = rate;
        self
    }

    /// Sets the stall rate and how long each stall takes.
    pub fn with_stream_stall(mut self, rate: f64, stall_ms: f64) -> Self {
        self.stream_stall = rate;
        self.stall_ms = stall_ms;
        self
    }

    /// Sets the permanent device-death rate (per kernel launch).
    pub fn with_device_death(mut self, rate: f64) -> Self {
        self.device_death = rate;
        self
    }

    /// Caps the total number of injected faults.
    pub fn with_max_faults(mut self, max: u32) -> Self {
        self.max_faults = Some(max);
        self
    }

    /// Pins `kind` to the `index`-th operation of class `op`.
    pub fn with_scripted(mut self, op: FaultOp, index: u64, kind: FaultKind) -> Self {
        self.scripted.push(ScriptedFault { op, index, kind });
        self
    }

    /// True when the plan can never inject anything.
    pub fn is_empty(&self) -> bool {
        self.scripted.is_empty()
            && self.launch_failure == 0.0
            && self.transfer_abort == 0.0
            && self.transfer_corruption == 0.0
            && self.alloc_oom == 0.0
            && self.stream_stall == 0.0
            && self.device_death == 0.0
    }

    /// Parses a compact `key=value,key=value` spec, the format accepted by
    /// `gas sort --faults` and `gas chaos --faults`.
    ///
    /// Keys: `seed=N`, rates `launch`/`abort`/`corrupt`/`oom`/`stall`/
    /// `device-death` (floats in `[0,1]`), `stall-ms=F`, `max=N`, and
    /// scripted pins `launch-at=I`, `abort-at=I`, `corrupt-at=I`,
    /// `oom-at=I`, `stall-at=I`, `device-death-at=I` (0-based operation
    /// index within the class; repeatable). Unknown keys are parse
    /// errors, never silently ignored.
    ///
    /// ```
    /// use gpu_sim::FaultPlan;
    /// let plan = FaultPlan::parse("seed=7,launch=0.1,abort=0.05,stall=0.02,stall-ms=2.5").unwrap();
    /// assert_eq!(plan.seed, 7);
    /// assert!(FaultPlan::parse("launch=2.0").is_err(), "rates must be probabilities");
    /// ```
    pub fn parse(spec: &str) -> Result<Self, FaultSpecError> {
        let mut plan = Self::default();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| FaultSpecError::new(format!("expected key=value, got `{token}`")))?;
            match key.trim() {
                "seed" => plan.seed = parse_u64(key, value)?,
                "launch" => plan.launch_failure = parse_rate(key, value)?,
                "abort" => plan.transfer_abort = parse_rate(key, value)?,
                "corrupt" => plan.transfer_corruption = parse_rate(key, value)?,
                "oom" => plan.alloc_oom = parse_rate(key, value)?,
                "stall" => plan.stream_stall = parse_rate(key, value)?,
                "device-death" => plan.device_death = parse_rate(key, value)?,
                "stall-ms" => plan.stall_ms = parse_f64(key, value)?,
                "max" => plan.max_faults = Some(parse_u64(key, value)? as u32),
                "launch-at" => {
                    plan = plan.with_scripted(
                        FaultOp::Launch,
                        parse_u64(key, value)?,
                        FaultKind::LaunchFailure,
                    )
                }
                "abort-at" => {
                    plan = plan.with_scripted(
                        FaultOp::Transfer,
                        parse_u64(key, value)?,
                        FaultKind::TransferAbort,
                    )
                }
                "corrupt-at" => {
                    plan = plan.with_scripted(
                        FaultOp::Transfer,
                        parse_u64(key, value)?,
                        FaultKind::TransferCorruption,
                    )
                }
                "oom-at" => {
                    plan = plan.with_scripted(
                        FaultOp::Alloc,
                        parse_u64(key, value)?,
                        FaultKind::DeviceOom,
                    )
                }
                "stall-at" => {
                    plan = plan.with_scripted(
                        FaultOp::Launch,
                        parse_u64(key, value)?,
                        FaultKind::StreamStall,
                    )
                }
                "device-death-at" => {
                    plan = plan.with_scripted(
                        FaultOp::Launch,
                        parse_u64(key, value)?,
                        FaultKind::DeviceDeath,
                    )
                }
                other => {
                    return Err(FaultSpecError::new(format!(
                        "unknown fault-spec key `{other}` \
                         (known: seed, launch, abort, corrupt, oom, stall, device-death, \
                         stall-ms, max, launch-at, abort-at, corrupt-at, oom-at, stall-at, \
                         device-death-at)"
                    )))
                }
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Checks that every rate is a probability and the per-operation-class
    /// sums do not exceed 1.
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        if self.launch_failure + self.device_death + self.stream_stall > 1.0 {
            return Err(FaultSpecError::new(
                "launch + device-death + stall rates exceed 1.0".to_string(),
            ));
        }
        if self.transfer_abort + self.transfer_corruption + self.stream_stall > 1.0 {
            return Err(FaultSpecError::new(
                "abort + corrupt + stall rates exceed 1.0".to_string(),
            ));
        }
        if self.stall_ms < 0.0 || !self.stall_ms.is_finite() {
            return Err(FaultSpecError::new(format!(
                "stall-ms must be a finite non-negative number, got {}",
                self.stall_ms
            )));
        }
        Ok(())
    }
}

fn parse_rate(key: &str, value: &str) -> Result<f64, FaultSpecError> {
    let rate = parse_f64(key, value)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(FaultSpecError::new(format!(
            "`{key}` must be a probability in [0, 1], got {rate}"
        )));
    }
    Ok(rate)
}

fn parse_f64(key: &str, value: &str) -> Result<f64, FaultSpecError> {
    value
        .trim()
        .parse::<f64>()
        .map_err(|_| FaultSpecError::new(format!("`{key}` expects a number, got `{value}`")))
}

fn parse_u64(key: &str, value: &str) -> Result<u64, FaultSpecError> {
    value
        .trim()
        .parse::<u64>()
        .map_err(|_| FaultSpecError::new(format!("`{key}` expects an integer, got `{value}`")))
}

/// A malformed or invalid fault spec (see [`FaultPlan::parse`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError {
    message: String,
}

impl FaultSpecError {
    fn new(message: String) -> Self {
        Self { message }
    }
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault spec: {}", self.message)
    }
}

impl std::error::Error for FaultSpecError {}

/// One fault the injector actually fired (the replay log).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InjectedFault {
    /// What fired.
    pub kind: FaultKind,
    /// The operation it hit: a kernel name, `"htod"`, `"dtoh"`,
    /// `"alloc"` or `"htod_copy"`.
    pub op: String,
    /// 0-based index of the operation within its class.
    pub op_index: u64,
    /// Simulated timestamp when the fault fired.
    pub at_ms: f64,
}

/// The runtime state behind an installed [`FaultPlan`]: the ChaCha stream,
/// per-class operation counters and the log of faults that fired.
///
/// Owned by [`crate::Gpu`] (install via [`crate::Gpu::set_fault_plan`]);
/// exposed publicly so tests can drive it directly.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: ChaCha8Rng,
    launches: u64,
    transfers: u64,
    allocs: u64,
    injected: Vec<InjectedFault>,
}

impl FaultInjector {
    /// Builds the injector for `plan`, seeding the RNG from `plan.seed`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(plan.seed);
        Self {
            plan,
            rng,
            launches: 0,
            transfers: 0,
            allocs: 0,
            injected: Vec::new(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Extra latency a stalled operation incurs.
    pub fn stall_ms(&self) -> f64 {
        self.plan.stall_ms
    }

    /// Every fault fired so far, in order.
    pub fn log(&self) -> &[InjectedFault] {
        &self.injected
    }

    /// Number of injected faults that surfaced as errors (i.e. everything
    /// except stalls) — the count recovery layers must account for.
    pub fn error_faults(&self) -> usize {
        self.injected.iter().filter(|f| f.kind.is_error()).count()
    }

    fn budget_left(&self) -> bool {
        self.plan
            .max_faults
            .is_none_or(|max| (self.injected.len() as u32) < max)
    }

    fn scripted(&self, op: FaultOp, index: u64) -> Option<FaultKind> {
        self.plan
            .scripted
            .iter()
            .find(|s| s.op == op && s.index == index)
            .map(|s| s.kind)
    }

    fn record(&mut self, kind: FaultKind, op: &str, op_index: u64, at_ms: f64) {
        self.injected.push(InjectedFault {
            kind,
            op: op.to_string(),
            op_index,
            at_ms,
        });
    }

    /// Consults the plan for the next kernel launch named `name`; `now_ms`
    /// stamps the log entry. Returns [`FaultKind::LaunchFailure`],
    /// [`FaultKind::DeviceDeath`] or [`FaultKind::StreamStall`] when a
    /// fault fires. The threshold order puts `launch_failure` first, so a
    /// zero death rate leaves launch-failure fire indices untouched (the
    /// stream-alignment contract).
    pub fn on_launch(&mut self, name: &str, now_ms: f64) -> Option<FaultKind> {
        let index = self.launches;
        self.launches += 1;
        let draw: f64 = self.rng.gen();
        if !self.budget_left() {
            return None;
        }
        let launch = self.plan.launch_failure;
        let death = self.plan.device_death;
        let drawn = if draw < launch {
            Some(FaultKind::LaunchFailure)
        } else if draw < launch + death {
            Some(FaultKind::DeviceDeath)
        } else if draw < launch + death + self.plan.stream_stall {
            Some(FaultKind::StreamStall)
        } else {
            None
        };
        let kind = self.scripted(FaultOp::Launch, index).or(drawn)?;
        self.record(kind, name, index, now_ms);
        Some(kind)
    }

    /// Consults the plan for the next transfer (`op` is `"htod"` or
    /// `"dtoh"`). Returns [`FaultKind::TransferAbort`],
    /// [`FaultKind::TransferCorruption`] or [`FaultKind::StreamStall`].
    pub fn on_transfer(&mut self, op: &str, now_ms: f64) -> Option<FaultKind> {
        let index = self.transfers;
        self.transfers += 1;
        let draw: f64 = self.rng.gen();
        if !self.budget_left() {
            return None;
        }
        let abort = self.plan.transfer_abort;
        let corrupt = self.plan.transfer_corruption;
        let drawn = if draw < abort {
            Some(FaultKind::TransferAbort)
        } else if draw < abort + corrupt {
            Some(FaultKind::TransferCorruption)
        } else if draw < abort + corrupt + self.plan.stream_stall {
            Some(FaultKind::StreamStall)
        } else {
            None
        };
        let kind = self.scripted(FaultOp::Transfer, index).or(drawn)?;
        self.record(kind, op, index, now_ms);
        Some(kind)
    }

    /// Consults the plan for the next allocation. Returns
    /// [`FaultKind::DeviceOom`] when the fault fires.
    pub fn on_alloc(&mut self, op: &str, now_ms: f64) -> Option<FaultKind> {
        let index = self.allocs;
        self.allocs += 1;
        let draw: f64 = self.rng.gen();
        if !self.budget_left() {
            return None;
        }
        let drawn = if draw < self.plan.alloc_oom {
            Some(FaultKind::DeviceOom)
        } else {
            None
        };
        let kind = self.scripted(FaultOp::Alloc, index).or(drawn)?;
        self.record(kind, op, index, now_ms);
        Some(kind)
    }

    /// Picks which element a corrupting transfer damages.
    pub fn corrupt_index(&mut self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            self.rng.gen_range(0..len)
        }
    }
}

/// Damages `slice[index]` by overwriting it with its neighbour — the
/// visible payload damage of a [`FaultKind::TransferCorruption`]. A slice
/// shorter than two elements is left untouched (the transfer still
/// reports the error).
pub fn corrupt_slice<T: Copy>(slice: &mut [T], index: usize) {
    if slice.len() < 2 {
        return;
    }
    let src = (index + 1) % slice.len();
    slice[index] = slice[src];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::seeded(42));
        for i in 0..100 {
            assert_eq!(inj.on_launch("k", i as f64), None);
            assert_eq!(inj.on_transfer("htod", i as f64), None);
            assert_eq!(inj.on_alloc("alloc", i as f64), None);
        }
        assert!(inj.log().is_empty());
        assert!(FaultPlan::seeded(42).is_empty());
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = FaultPlan::seeded(7)
            .with_launch_failure(0.3)
            .with_transfer_abort(0.2)
            .with_transfer_corruption(0.1)
            .with_alloc_oom(0.15)
            .with_stream_stall(0.1, 2.0);
        let drive = |mut inj: FaultInjector| {
            let mut seq = Vec::new();
            for i in 0..200u64 {
                match i % 3 {
                    0 => seq.push(inj.on_launch("k", 0.0)),
                    1 => seq.push(inj.on_transfer("htod", 0.0)),
                    _ => seq.push(inj.on_alloc("alloc", 0.0)),
                }
            }
            (seq, inj.log().to_vec())
        };
        let (a_seq, a_log) = drive(FaultInjector::new(plan.clone()));
        let (b_seq, b_log) = drive(FaultInjector::new(plan));
        assert_eq!(a_seq, b_seq);
        assert_eq!(a_log, b_log);
        assert!(
            !a_log.is_empty(),
            "rates this high must fire within 200 ops"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mk = |seed| {
            let mut inj = FaultInjector::new(FaultPlan::seeded(seed).with_launch_failure(0.5));
            (0..64)
                .map(|_| inj.on_launch("k", 0.0).is_some())
                .collect::<Vec<_>>()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn scripted_faults_fire_at_exact_indices() {
        let plan = FaultPlan::seeded(0)
            .with_scripted(FaultOp::Launch, 2, FaultKind::LaunchFailure)
            .with_scripted(FaultOp::Transfer, 0, FaultKind::TransferCorruption)
            .with_scripted(FaultOp::Alloc, 1, FaultKind::DeviceOom);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.on_launch("a", 0.0), None);
        assert_eq!(inj.on_launch("b", 0.0), None);
        assert_eq!(inj.on_launch("c", 1.5), Some(FaultKind::LaunchFailure));
        assert_eq!(
            inj.on_transfer("htod", 2.0),
            Some(FaultKind::TransferCorruption)
        );
        assert_eq!(inj.on_alloc("alloc", 0.0), None);
        assert_eq!(inj.on_alloc("alloc", 3.0), Some(FaultKind::DeviceOom));
        let log = inj.log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].op, "c");
        assert_eq!(log[0].op_index, 2);
        assert_eq!(log[0].at_ms, 1.5);
        assert_eq!(inj.error_faults(), 3);
    }

    #[test]
    fn max_faults_caps_injection() {
        let plan = FaultPlan::seeded(3)
            .with_launch_failure(1.0)
            .with_max_faults(2);
        let mut inj = FaultInjector::new(plan);
        let fired: usize = (0..10)
            .filter(|_| inj.on_launch("k", 0.0).is_some())
            .count();
        assert_eq!(fired, 2);
        assert_eq!(inj.log().len(), 2);
    }

    #[test]
    fn stalls_are_not_error_faults() {
        let plan = FaultPlan::seeded(0).with_scripted(FaultOp::Launch, 0, FaultKind::StreamStall);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.on_launch("k", 0.0), Some(FaultKind::StreamStall));
        assert_eq!(inj.log().len(), 1);
        assert_eq!(inj.error_faults(), 0);
        assert!(!FaultKind::StreamStall.is_error());
        assert!(FaultKind::TransferAbort.is_error());
    }

    #[test]
    fn parse_round_trips_all_keys() {
        let plan = FaultPlan::parse(
            "seed=9, launch=0.1, abort=0.05, corrupt=0.04, oom=0.02, stall=0.03, \
             stall-ms=2.5, max=16, launch-at=3, abort-at=1, corrupt-at=2, oom-at=0, stall-at=5",
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.launch_failure, 0.1);
        assert_eq!(plan.transfer_abort, 0.05);
        assert_eq!(plan.transfer_corruption, 0.04);
        assert_eq!(plan.alloc_oom, 0.02);
        assert_eq!(plan.stream_stall, 0.03);
        assert_eq!(plan.stall_ms, 2.5);
        assert_eq!(plan.max_faults, Some(16));
        assert_eq!(plan.scripted.len(), 5);
        assert_eq!(
            plan.scripted[0],
            ScriptedFault {
                op: FaultOp::Launch,
                index: 3,
                kind: FaultKind::LaunchFailure
            }
        );
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("launch").is_err(), "missing value");
        assert!(FaultPlan::parse("launch=nope").is_err(), "not a number");
        assert!(FaultPlan::parse("launch=1.5").is_err(), "rate > 1");
        assert!(FaultPlan::parse("bogus=1").is_err(), "unknown key");
        assert!(
            FaultPlan::parse("abort=0.6,corrupt=0.6").is_err(),
            "class sum > 1"
        );
        assert!(FaultPlan::parse("stall-ms=-1").is_err(), "negative stall");
        assert!(FaultPlan::parse("").is_ok(), "empty spec is an empty plan");
    }

    #[test]
    fn parse_accepts_device_death_keys() {
        let plan = FaultPlan::parse("seed=3,device-death=0.02,device-death-at=4").unwrap();
        assert_eq!(plan.device_death, 0.02);
        assert_eq!(
            plan.scripted,
            vec![ScriptedFault {
                op: FaultOp::Launch,
                index: 4,
                kind: FaultKind::DeviceDeath
            }]
        );
        assert!(!plan.is_empty());
        // The launch class sum includes the death rate.
        assert!(
            FaultPlan::parse("launch=0.6,device-death=0.3,stall=0.2").is_err(),
            "launch-class sum > 1"
        );
        // An unknown kind's scripted key is rejected, not silently dropped.
        let err = FaultPlan::parse("gpu-melt-at=0").unwrap_err();
        assert!(err.to_string().contains("unknown fault-spec key"));
        assert!(err.to_string().contains("device-death-at"), "{err}");
    }

    #[test]
    fn device_death_is_a_permanent_error_kind() {
        assert!(FaultKind::DeviceDeath.is_error());
        assert!(FaultKind::DeviceDeath.is_permanent());
        for kind in [
            FaultKind::LaunchFailure,
            FaultKind::TransferAbort,
            FaultKind::TransferCorruption,
            FaultKind::StreamStall,
            FaultKind::DeviceOom,
        ] {
            assert!(!kind.is_permanent(), "{kind} must stay recoverable");
        }
        assert_eq!(FaultKind::DeviceDeath.to_string(), "device-death");
    }

    #[test]
    fn death_rate_zero_keeps_launch_stream_aligned() {
        // Adding (or removing) a death rate of zero must not move which
        // launches fail — same one-draw-per-op contract as the stall knob.
        let fire_indices = |plan: FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            (0..256u64)
                .filter(|_| inj.on_launch("k", 0.0) == Some(FaultKind::LaunchFailure))
                .collect::<Vec<_>>()
        };
        let with_death = fire_indices(
            FaultPlan::seeded(11)
                .with_launch_failure(0.2)
                .with_device_death(0.0),
        );
        let without = fire_indices(FaultPlan::seeded(11).with_launch_failure(0.2));
        assert_eq!(with_death, without);
    }

    #[test]
    fn scripted_device_death_fires_and_counts_as_error() {
        let plan = FaultPlan::seeded(0).with_scripted(FaultOp::Launch, 1, FaultKind::DeviceDeath);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.on_launch("a", 0.0), None);
        assert_eq!(inj.on_launch("b", 2.0), Some(FaultKind::DeviceDeath));
        assert_eq!(inj.log().len(), 1);
        assert_eq!(inj.error_faults(), 1);
    }

    #[test]
    fn one_draw_per_op_keeps_streams_aligned() {
        // Turning a rate off must not shift which draws later ops see.
        let fire_indices = |plan: FaultPlan| {
            let mut inj = FaultInjector::new(plan);
            (0..256u64)
                .filter(|_| inj.on_launch("k", 0.0) == Some(FaultKind::LaunchFailure))
                .collect::<Vec<_>>()
        };
        let with_stall = fire_indices(
            FaultPlan::seeded(11)
                .with_launch_failure(0.2)
                .with_stream_stall(0.0, 1.0),
        );
        let without_stall = fire_indices(FaultPlan::seeded(11).with_launch_failure(0.2));
        assert_eq!(with_stall, without_stall);
    }

    #[test]
    fn corrupt_slice_damages_exactly_one_element() {
        let mut v = vec![10u32, 20, 30, 40];
        corrupt_slice(&mut v, 1);
        assert_eq!(v, vec![10, 30, 30, 40]);
        let mut one = vec![5u32];
        corrupt_slice(&mut one, 0);
        assert_eq!(one, vec![5], "too short to damage visibly");
    }

    #[test]
    fn fault_kind_display_is_kebab() {
        assert_eq!(FaultKind::LaunchFailure.to_string(), "launch-failure");
        assert_eq!(FaultKind::DeviceOom.to_string(), "device-oom");
    }
}
