//! The device handle: allocation, transfers, kernel launches and the
//! simulated clock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use crate::block::BlockCtx;
use crate::cost::{KERNEL_LAUNCH_US, THRUST_ELEM_CYCLES};
use crate::error::{SimError, SimResult};
use crate::faults::{corrupt_slice, FaultInjector, FaultKind, FaultPlan, InjectedFault};
use crate::memory::{DeviceBuffer, MemoryLedger};
use crate::spec::DeviceSpec;
use crate::stats::{
    Counters, KernelEfficiency, KernelStats, SpanId, SpanRecord, Timeline, TransferDir,
    TransferStats,
};
use crate::stream::{AsyncEvent, AsyncState, Engine, EventId, StreamId};

/// Launch geometry for a kernel, mirroring `<<<grid, block, shared>>>`.
#[derive(Debug, Clone, Copy)]
pub struct LaunchConfig {
    /// Number of blocks.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
    /// Dynamic shared memory the kernel will allocate per block, in bytes.
    /// Validated against the device before any block runs.
    pub shared_mem_bytes: u32,
}

impl LaunchConfig {
    /// Grid of `grid_dim` blocks × `block_dim` threads, no shared memory
    /// declared (kernels that stage data in shared memory declare their
    /// worst-case bytes via [`LaunchConfig::with_shared`]).
    pub fn grid(grid_dim: u32, block_dim: u32) -> Self {
        Self {
            grid_dim,
            block_dim,
            shared_mem_bytes: 0,
        }
    }

    /// Adds a per-block shared-memory declaration.
    pub fn with_shared(mut self, bytes: u32) -> Self {
        self.shared_mem_bytes = bytes;
        self
    }
}

/// An opaque position of the billed-time clock, taken with
/// [`Gpu::bill_mark`] and consumed by [`Gpu::billed_since`].
#[derive(Debug, Clone, Copy)]
pub struct BillMark(f64);

/// A simulated GPU: owns the memory ledger, the baseline calibration and
/// the clock.
///
/// ```
/// use gpu_sim::{Gpu, DeviceSpec, LaunchConfig};
///
/// let mut gpu = Gpu::new(DeviceSpec::test_device());
/// let buf = gpu.htod_copy(&[3u32, 1, 2]).unwrap();
/// let view = buf.view();
/// gpu.launch("double", LaunchConfig::grid(1, 3), |block| {
///     block.threads(|t| {
///         let i = t.global_idx();
///         t.charge_global(2, 4, gpu_sim::AccessPattern::Coalesced);
///         view.set(i, view.get(i) * 2);
///     });
/// })
/// .unwrap();
/// let mut buf = buf;
/// let mut out = [0u32; 3];
/// gpu.dtoh_into(&mut buf, &mut out).unwrap();
/// assert_eq!(out, [6, 2, 4]);
/// assert!(gpu.elapsed_ms() > 0.0);
/// ```
pub struct Gpu {
    spec: DeviceSpec,
    thrust_elem_cycles: f64,
    ledger: Arc<MemoryLedger>,
    elapsed_ms: f64,
    timeline: Timeline,
    async_state: AsyncState,
    current_stream: Option<StreamId>,
    open_spans: Vec<usize>,
    faults: Option<Mutex<FaultInjector>>,
    /// Set when a [`FaultKind::DeviceDeath`] fired: the device fell off
    /// the bus. Every later operation fails immediately with the same
    /// permanent error, without consulting the injector (one log entry
    /// per death, so fault accounting stays 1:1 with attempts).
    dead: bool,
}

/// Fraction of a transfer's full time an aborted transfer still costs
/// (the DMA died mid-flight).
const ABORTED_TRANSFER_FRACTION: f64 = 0.5;

impl Gpu {
    /// Creates a device with the paper-calibrated cost model.
    pub fn new(spec: DeviceSpec) -> Self {
        Self::with_thrust_elem_cycles(spec, THRUST_ELEM_CYCLES)
    }

    /// Creates a device whose Thrust-era baseline costs `cycles` per
    /// element and radix pass ([`ThreadCtx::charge_baseline_sort`]) instead
    /// of the 5 200 that pins STA to the throughput the paper measured
    /// (§7.2: ≈25 M elements/s on the K40c). It is the cost model's one
    /// setting; the baseline-sensitivity sweep lowers it toward 0, Thrust
    /// at its architectural peak. Only thrust-sim's radix sort, the engine
    /// under STA, charges it.
    ///
    /// [`ThreadCtx::charge_baseline_sort`]: crate::ThreadCtx::charge_baseline_sort
    pub fn with_thrust_elem_cycles(spec: DeviceSpec, cycles: f64) -> Self {
        let ledger = Arc::new(MemoryLedger::new(spec.usable_mem_bytes()));
        Self {
            spec,
            thrust_elem_cycles: cycles,
            ledger,
            elapsed_ms: 0.0,
            timeline: Timeline::default(),
            async_state: AsyncState::default(),
            current_stream: None,
            open_spans: Vec::new(),
            faults: None,
            dead: false,
        }
    }

    /// True once an injected [`FaultKind::DeviceDeath`] has fired. A dead
    /// device rejects every operation with the original death error.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The permanent error a dead device returns for every operation.
    fn death_error(op: &str) -> SimError {
        SimError::InjectedFault {
            kind: FaultKind::DeviceDeath,
            op: op.to_string(),
        }
    }

    /// Installs (or, with `None`, removes) a fault-injection plan. The
    /// injector's RNG is seeded from the plan, so installing the same plan
    /// on the same workload replays the same faults. With no plan
    /// installed every operation behaves exactly as before this subsystem
    /// existed — identical results, cycle bills and traces.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan.map(|p| Mutex::new(FaultInjector::new(p)));
    }

    /// True when a fault plan is installed.
    pub fn fault_injection_active(&self) -> bool {
        self.faults.is_some()
    }

    /// The faults injected so far (empty when no plan is installed).
    /// Survives [`Gpu::reset_clock`], like the memory ledger.
    pub fn injected_faults(&self) -> Vec<InjectedFault> {
        self.injector()
            .map(|f| f.log().to_vec())
            .unwrap_or_default()
    }

    /// The device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The allocation ledger (used bytes, peak, capacity).
    pub fn ledger(&self) -> &MemoryLedger {
        &self.ledger
    }

    /// Simulated time elapsed since construction or [`Gpu::reset_clock`].
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ms
    }

    /// Marks the current position of the billed-time clock. Pair with
    /// [`Gpu::billed_since`] to meter exactly what one piece of work was
    /// billed — the measured side of the cost-model accuracy metrics.
    pub fn bill_mark(&self) -> BillMark {
        BillMark(self.elapsed_ms)
    }

    /// Milliseconds the simulator has billed since `mark` was taken.
    /// Invalidated by [`Gpu::reset_clock`] (the clock rewinds past any
    /// outstanding mark).
    pub fn billed_since(&self, mark: BillMark) -> f64 {
        self.elapsed_ms - mark.0
    }

    /// Everything launched/copied so far.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Zeroes the clock and clears the timeline; the memory ledger (and its
    /// peak) is left untouched because allocations may outlive the reset.
    /// Pending asynchronous work is synchronized first.
    pub fn reset_clock(&mut self) {
        self.synchronize();
        self.elapsed_ms = 0.0;
        self.timeline = Timeline::default();
        self.async_state.clear_events();
        self.open_spans.clear();
    }

    /// Current simulated timestamp for trace purposes: the host clock on
    /// the default stream, or the quiesce time of all outstanding async
    /// work while a stream is active (the async clock only advances at
    /// [`Gpu::synchronize`], so this is the best available estimate of
    /// "now" mid-pipeline).
    pub fn now_ms(&self) -> f64 {
        if self.current_stream.is_some() {
            self.async_state.quiesce_time(self.elapsed_ms)
        } else {
            self.elapsed_ms
        }
    }

    /// Opens a named phase span at the current simulated time. Spans nest
    /// (a span opened while another is open records a greater `depth`) and
    /// group the kernels/transfers issued inside them for the trace
    /// exporters ([`crate::chrome_trace_json`]). Close with [`Gpu::end_span`].
    pub fn begin_span(&mut self, name: &str) -> SpanId {
        let idx = self.timeline.spans.len();
        let now = self.now_ms();
        self.timeline.spans.push(SpanRecord {
            name: name.to_string(),
            start_ms: now,
            end_ms: now,
            depth: self.open_spans.len() as u32,
        });
        self.open_spans.push(idx);
        SpanId(idx)
    }

    /// Closes a span opened by [`Gpu::begin_span`], stamping its end time.
    pub fn end_span(&mut self, span: SpanId) {
        let now = self.now_ms();
        if let Some(pos) = self.open_spans.iter().rposition(|&idx| idx == span.0) {
            self.open_spans.remove(pos);
        }
        if let Some(rec) = self.timeline.spans.get_mut(span.0) {
            rec.end_ms = now;
        }
    }

    /// Number of spans currently open (begun but not ended).
    pub fn open_span_count(&self) -> usize {
        self.open_spans.len()
    }

    /// Closes every span opened beyond the first `keep`, stamping their
    /// ends at the current simulated time. An `?`-style early return
    /// unwinds past pending [`Gpu::end_span`] calls and leaves their spans
    /// dangling; recovery layers snapshot [`Gpu::open_span_count`] before
    /// an attempt and call this after a failure so the trace stays
    /// well-formed.
    pub fn close_spans_beyond(&mut self, keep: usize) {
        let now = self.now_ms();
        while self.open_spans.len() > keep {
            let idx = self.open_spans.pop().expect("len checked above");
            if let Some(rec) = self.timeline.spans.get_mut(idx) {
                rec.end_ms = now;
            }
        }
    }

    /// Runs `f` inside a span named `name` — the closure-scoped companion
    /// of [`Gpu::begin_span`]/[`Gpu::end_span`].
    pub fn with_span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let span = self.begin_span(name);
        let out = f(self);
        self.end_span(span);
        out
    }

    /// Creates a stream (like `cudaStreamCreate`). Work issued while the
    /// stream is active ([`Gpu::set_stream`]) is scheduled asynchronously:
    /// kernels occupy the compute engine, copies occupy their direction's
    /// DMA engine, and operations on *different* streams overlap across
    /// engines. Call [`Gpu::synchronize`] to advance the clock to
    /// completion.
    pub fn create_stream(&mut self) -> StreamId {
        self.async_state.create_stream(self.elapsed_ms)
    }

    /// Makes subsequent operations issue on `stream` (pass `None` to
    /// return to the default, synchronous stream — which synchronizes
    /// outstanding async work first, like CUDA's legacy default stream).
    pub fn set_stream(&mut self, stream: Option<StreamId>) {
        if stream.is_none() {
            self.synchronize();
        }
        self.current_stream = stream;
    }

    /// Blocks (advances the simulated clock) until all engines and streams
    /// are idle, like `cudaDeviceSynchronize`. Returns the new elapsed
    /// time.
    pub fn synchronize(&mut self) -> f64 {
        if self.async_state.has_streams() {
            self.elapsed_ms = self.async_state.quiesce_time(self.elapsed_ms);
        }
        self.elapsed_ms
    }

    /// Scheduled asynchronous operations (for overlap inspection).
    pub fn async_events(&self) -> &[AsyncEvent] {
        self.async_state.events()
    }

    /// Records an event capturing all work queued so far on `stream`
    /// (like `cudaEventRecord`).
    pub fn record_event(&mut self, stream: StreamId) -> EventId {
        self.async_state.record_event(stream, self.elapsed_ms)
    }

    /// Makes `stream` wait for `event` before running any later work
    /// (like `cudaStreamWaitEvent`) — the cross-stream dependency
    /// primitive producer/consumer pipelines need.
    pub fn stream_wait_event(&mut self, stream: StreamId, event: EventId) {
        self.async_state.stream_wait_event(stream, event);
    }

    /// Completion time of a recorded event, simulated ms.
    pub fn event_time(&self, event: EventId) -> f64 {
        self.async_state.event_time(event)
    }

    /// Allocates an uninitialized-by-convention (actually zeroed) device
    /// buffer of `len` elements.
    pub fn alloc<T: Copy + Default>(&self, len: usize) -> SimResult<DeviceBuffer<T>> {
        if self.dead {
            return Err(Self::death_error("alloc"));
        }
        if self.next_alloc_fault("alloc").is_some() {
            return Err(SimError::InjectedFault {
                kind: FaultKind::DeviceOom,
                op: "alloc".into(),
            });
        }
        DeviceBuffer::zeroed(self.ledger.clone(), len)
    }

    /// Allocates a device buffer and copies `host` into it, charging PCIe
    /// transfer time (`cudaMemcpy` H→D).
    pub fn htod_copy<T: Copy + Default>(&mut self, host: &[T]) -> SimResult<DeviceBuffer<T>> {
        if self.dead {
            return Err(Self::death_error("htod_copy"));
        }
        if self.next_alloc_fault("htod_copy").is_some() {
            return Err(SimError::InjectedFault {
                kind: FaultKind::DeviceOom,
                op: "htod_copy".into(),
            });
        }
        let fault = self.next_transfer_fault("htod");
        if matches!(fault, Some(FaultKind::TransferAbort)) {
            let bytes = std::mem::size_of_val(host) as u64;
            let lost_ms = self.spec.transfer_ms(bytes) * ABORTED_TRANSFER_FRACTION;
            self.charge_lost_time("htod[abort]", Engine::HtoD, lost_ms);
            return Err(SimError::InjectedFault {
                kind: FaultKind::TransferAbort,
                op: "htod".into(),
            });
        }
        let mut buf = DeviceBuffer::from_host(self.ledger.clone(), host)?;
        let stall_ms = self.stall_for(fault);
        self.charge_transfer(TransferDir::HtoD, buf.size_bytes(), stall_ms);
        if matches!(fault, Some(FaultKind::TransferCorruption)) {
            let idx = self.pick_corrupt_index(buf.len());
            corrupt_slice(buf.as_mut_slice(), idx);
            return Err(SimError::InjectedFault {
                kind: FaultKind::TransferCorruption,
                op: "htod".into(),
            });
        }
        Ok(buf)
    }

    /// Overwrites an existing device buffer from `host` (sizes must match),
    /// charging transfer time.
    pub fn htod_into<T: Copy>(&mut self, host: &[T], dst: &mut DeviceBuffer<T>) -> SimResult<()> {
        if self.dead {
            return Err(Self::death_error("htod"));
        }
        if host.len() != dst.len() {
            return Err(SimError::TransferSizeMismatch {
                src_len: host.len(),
                dst_len: dst.len(),
            });
        }
        let bytes = std::mem::size_of_val(host) as u64;
        let fault = self.next_transfer_fault("htod");
        if matches!(fault, Some(FaultKind::TransferAbort)) {
            let lost_ms = self.spec.transfer_ms(bytes) * ABORTED_TRANSFER_FRACTION;
            self.charge_lost_time("htod[abort]", Engine::HtoD, lost_ms);
            return Err(SimError::InjectedFault {
                kind: FaultKind::TransferAbort,
                op: "htod".into(),
            });
        }
        dst.as_mut_slice().copy_from_slice(host);
        let stall_ms = self.stall_for(fault);
        self.charge_transfer(TransferDir::HtoD, bytes, stall_ms);
        if matches!(fault, Some(FaultKind::TransferCorruption)) {
            let idx = self.pick_corrupt_index(dst.len());
            corrupt_slice(dst.as_mut_slice(), idx);
            return Err(SimError::InjectedFault {
                kind: FaultKind::TransferCorruption,
                op: "htod".into(),
            });
        }
        Ok(())
    }

    /// Copies a device buffer into an existing host slice, charging transfer
    /// time (`cudaMemcpy` D→H).
    pub fn dtoh_into<T: Copy>(
        &mut self,
        buf: &mut DeviceBuffer<T>,
        host: &mut [T],
    ) -> SimResult<()> {
        if self.dead {
            return Err(Self::death_error("dtoh"));
        }
        if host.len() != buf.len() {
            return Err(SimError::TransferSizeMismatch {
                src_len: buf.len(),
                dst_len: host.len(),
            });
        }
        let bytes = std::mem::size_of_val(host) as u64;
        let fault = self.next_transfer_fault("dtoh");
        if matches!(fault, Some(FaultKind::TransferAbort)) {
            let lost_ms = self.spec.transfer_ms(bytes) * ABORTED_TRANSFER_FRACTION;
            self.charge_lost_time("dtoh[abort]", Engine::DtoH, lost_ms);
            return Err(SimError::InjectedFault {
                kind: FaultKind::TransferAbort,
                op: "dtoh".into(),
            });
        }
        host.copy_from_slice(buf.as_slice());
        let stall_ms = self.stall_for(fault);
        self.charge_transfer(TransferDir::DtoH, bytes, stall_ms);
        if matches!(fault, Some(FaultKind::TransferCorruption)) {
            let idx = self.pick_corrupt_index(host.len());
            corrupt_slice(host, idx);
            return Err(SimError::InjectedFault {
                kind: FaultKind::TransferCorruption,
                op: "dtoh".into(),
            });
        }
        Ok(())
    }

    /// The installed fault injector, locked.
    fn injector(&self) -> Option<MutexGuard<'_, FaultInjector>> {
        self.faults
            .as_ref()
            .map(|m| m.lock().expect("the fault injector lock is poisoned"))
    }

    fn next_launch_fault(&mut self, name: &str) -> Option<FaultKind> {
        let now = self.now_ms();
        self.injector().and_then(|mut f| f.on_launch(name, now))
    }

    fn next_transfer_fault(&mut self, op: &str) -> Option<FaultKind> {
        let now = self.now_ms();
        self.injector().and_then(|mut f| f.on_transfer(op, now))
    }

    fn next_alloc_fault(&self, op: &str) -> Option<FaultKind> {
        let now = self.now_ms();
        self.injector().and_then(|mut f| f.on_alloc(op, now))
    }

    fn pick_corrupt_index(&self, len: usize) -> usize {
        self.injector().map_or(0, |mut f| f.corrupt_index(len))
    }

    /// Extra latency for a stalled operation; zero for any other outcome.
    fn stall_for(&self, fault: Option<FaultKind>) -> f64 {
        if matches!(fault, Some(FaultKind::StreamStall)) {
            self.injector().map_or(0.0, |f| f.stall_ms())
        } else {
            0.0
        }
    }

    /// Advances the clock (or occupies an engine, under streams) for time
    /// an injected fault wasted without producing a timeline entry.
    fn charge_lost_time(&mut self, name: &str, engine: Engine, dur_ms: f64) {
        if let Some(stream) = self.current_stream {
            self.async_state
                .schedule(name, stream, engine, self.elapsed_ms, dur_ms);
        } else {
            self.elapsed_ms += dur_ms;
        }
    }

    fn charge_transfer(&mut self, direction: TransferDir, bytes: u64, stall_ms: f64) {
        let time_ms = self.spec.transfer_ms(bytes) + stall_ms;
        let (start_ms, stream) = if let Some(stream) = self.current_stream {
            let (engine, name) = match direction {
                TransferDir::HtoD => (Engine::HtoD, "htod"),
                TransferDir::DtoH => (Engine::DtoH, "dtoh"),
            };
            let (start, _end) =
                self.async_state
                    .schedule(name, stream, engine, self.elapsed_ms, time_ms);
            (start, Some(stream.0))
        } else {
            let start = self.elapsed_ms;
            self.elapsed_ms += time_ms;
            (start, None)
        };
        self.timeline.transfers.push(TransferStats {
            direction,
            bytes,
            time_ms,
            start_ms,
            stream,
        });
    }

    /// Launches `kernel` over `cfg.grid_dim` blocks.
    ///
    /// Blocks execute in parallel on host threads, but the timing
    /// model is deterministic: block `b` is queued on SM `b % sm_count`, a
    /// block's cycles come from its phase/warp folds (see
    /// [`crate::block::BlockCtx`]), and the kernel's cycle count is the
    /// busiest SM's total. Returns the launch's [`KernelStats`] (also
    /// appended to the timeline).
    pub fn launch<F>(&mut self, name: &str, cfg: LaunchConfig, kernel: F) -> SimResult<KernelStats>
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        if self.dead {
            return Err(Self::death_error(name));
        }
        self.validate(&cfg)?;
        let fault = self.next_launch_fault(name);
        if matches!(fault, Some(FaultKind::LaunchFailure)) {
            // Rejected before any block runs: no data effects, but the
            // driver round-trip (launch overhead) is still paid.
            let overhead_ms = KERNEL_LAUNCH_US / 1_000.0;
            self.charge_lost_time("launch[failed]", Engine::Compute, overhead_ms);
            return Err(SimError::InjectedFault {
                kind: FaultKind::LaunchFailure,
                op: name.to_string(),
            });
        }
        if matches!(fault, Some(FaultKind::DeviceDeath)) {
            // The device falls off the bus: the kernel never runs, the
            // driver round-trip is paid once, and the device is dead for
            // good — every later operation fails fast with this error.
            let overhead_ms = KERNEL_LAUNCH_US / 1_000.0;
            self.charge_lost_time("launch[device-death]", Engine::Compute, overhead_ms);
            self.dead = true;
            return Err(Self::death_error(name));
        }
        let stall_ms = self.stall_for(fault);
        let sm_count = self.spec.sm_count as usize;
        let warp_slots = self.spec.warp_slots();
        let thrust_elem_cycles = self.thrust_elem_cycles;

        let agg = run_blocks(cfg.grid_dim, sm_count, |agg, block_idx| {
            let mut ctx = BlockCtx::new(
                block_idx,
                cfg.grid_dim,
                cfg.block_dim,
                warp_slots,
                thrust_elem_cycles,
            );
            kernel(&mut ctx);
            let (cycles, counters) = ctx.finish();
            agg.sm_cycles[block_idx as usize % sm_count] += cycles;
            agg.max_block = agg.max_block.max(cycles);
            agg.counters.merge(&counters);
        });

        let cycles = *agg.sm_cycles.iter().max().unwrap_or(&0);
        let busy: u64 = agg.sm_cycles.iter().sum();
        let mean = busy as f64 / sm_count as f64;
        let sm_imbalance = if mean > 0.0 {
            cycles as f64 / mean
        } else {
            1.0
        };
        let time_ms = self.spec.cycles_to_ms(cycles) + KERNEL_LAUNCH_US / 1_000.0 + stall_ms;

        let occ = crate::occupancy::occupancy(
            &self.spec,
            &crate::occupancy::KernelResources::new(cfg.block_dim, cfg.shared_mem_bytes),
        );
        let (start_ms, stream) = if let Some(stream) = self.current_stream {
            let (start, _end) =
                self.async_state
                    .schedule(name, stream, Engine::Compute, self.elapsed_ms, time_ms);
            (start, Some(stream.0))
        } else {
            let start = self.elapsed_ms;
            self.elapsed_ms += time_ms;
            (start, None)
        };
        let efficiency = KernelEfficiency::compute(&agg.counters, cycles, time_ms, &self.spec);
        let stats = KernelStats {
            name: name.to_string(),
            grid_dim: cfg.grid_dim,
            block_dim: cfg.block_dim,
            cycles,
            time_ms,
            start_ms,
            stream,
            counters: agg.counters,
            sm_imbalance,
            max_block_cycles: agg.max_block,
            occupancy: occ.fraction,
            efficiency,
        };
        self.timeline.kernels.push(stats.clone());
        Ok(stats)
    }

    fn validate(&self, cfg: &LaunchConfig) -> SimResult<()> {
        if cfg.grid_dim == 0 {
            return Err(SimError::InvalidLaunch {
                reason: "grid_dim must be > 0".into(),
            });
        }
        if cfg.block_dim == 0 {
            return Err(SimError::InvalidLaunch {
                reason: "block_dim must be > 0".into(),
            });
        }
        if cfg.block_dim > self.spec.max_threads_per_block {
            return Err(SimError::InvalidLaunch {
                reason: format!(
                    "block_dim {} exceeds device max {}",
                    cfg.block_dim, self.spec.max_threads_per_block
                ),
            });
        }
        if cfg.shared_mem_bytes > self.spec.shared_mem_per_block {
            return Err(SimError::SharedMemOverflow {
                requested: cfg.shared_mem_bytes,
                available: self.spec.shared_mem_per_block,
            });
        }
        Ok(())
    }
}

struct LaunchAgg {
    sm_cycles: Vec<u64>,
    counters: Counters,
    max_block: u64,
}

impl LaunchAgg {
    fn new(sm_count: usize) -> Self {
        Self {
            sm_cycles: vec![0; sm_count],
            counters: Counters::default(),
            max_block: 0,
        }
    }

    fn merge(mut self, other: Self) -> Self {
        for (a, b) in self.sm_cycles.iter_mut().zip(&other.sm_cycles) {
            *a += b;
        }
        self.counters.merge(&other.counters);
        self.max_block = self.max_block.max(other.max_block);
        self
    }
}

/// Host cores, read once per process.
fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `block(agg, b)` for every block `b` of the grid on scoped host
/// threads, the calling thread among them. Workers take chunks of
/// `⌈grid / (8·cores)⌉` blocks from a shared counter, so an uneven grid
/// keeps every worker busy, and each folds into its own [`LaunchAgg`].
/// The counter publishes no data (`join` hands back each tally), so it
/// is `Relaxed`. The merge is integer sums and a max, so the result does
/// not depend on which thread ran which block.
fn run_blocks(grid: u32, sm_count: usize, block: impl Fn(&mut LaunchAgg, u32) + Sync) -> LaunchAgg {
    let len = grid as usize;
    let chunk = len.div_ceil(8 * host_cores()).max(1);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut agg = LaunchAgg::new(sm_count);
        loop {
            let lo = next.fetch_add(chunk, Ordering::Relaxed);
            if lo >= len {
                return agg;
            }
            for b in lo..(lo + chunk).min(len) {
                block(&mut agg, b as u32);
            }
        }
    };
    std::thread::scope(|s| {
        let threads = host_cores().min(len.div_ceil(chunk));
        let workers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mine = work();
        workers.into_iter().fold(mine, |agg, w| {
            agg.merge(w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AccessPattern;

    fn gpu() -> Gpu {
        Gpu::new(DeviceSpec::test_device())
    }

    #[test]
    fn launch_runs_every_thread_once() {
        let mut g = gpu();
        let buf = g.alloc::<u32>(8 * 16).unwrap();
        let view = buf.view();
        g.launch("fill", LaunchConfig::grid(8, 16), |block| {
            block.threads(|t| {
                view.set(t.global_idx(), t.global_idx() as u32 + 1);
            });
        })
        .unwrap();
        let mut buf = buf;
        let host = buf.to_host_vec();
        assert!(host.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }

    #[test]
    fn bill_mark_meters_exactly_the_work_in_between() {
        let mut g = gpu();
        let data: Vec<u32> = (0..256).collect();
        let _warmup = g.htod_copy(&data).unwrap();
        let before = g.elapsed_ms();
        let mark = g.bill_mark();
        assert_eq!(g.billed_since(mark), 0.0, "nothing billed yet");
        let buf = g.htod_copy(&data).unwrap();
        let view = buf.view();
        g.launch("work", LaunchConfig::grid(8, 32), |block| {
            block.threads(|t| {
                t.charge_alu(4);
                view.set(t.global_idx(), t.tid);
            });
        })
        .unwrap();
        let billed = g.billed_since(mark);
        assert!(billed > 0.0);
        assert_eq!(billed, g.elapsed_ms() - before, "mark is a clock offset");
    }

    #[test]
    fn launch_time_is_deterministic() {
        let run = || {
            let mut g = gpu();
            let buf = g.alloc::<u32>(1024).unwrap();
            let view = buf.view();
            g.launch("work", LaunchConfig::grid(32, 32), |block| {
                block.threads(|t| {
                    t.charge_global(3, 4, AccessPattern::Coalesced);
                    t.charge_alu((t.tid as u64 % 7) * 10);
                    view.set(t.global_idx(), t.tid);
                });
            })
            .unwrap()
            .cycles
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "parallel execution must not change the cycle count");
        assert!(a > 0);
    }

    #[test]
    fn threaded_launch_equals_a_sequential_fold() {
        let kernel = |block: &mut BlockCtx| {
            let b = block.block_idx() as u64;
            block.threads(|t| {
                t.charge_alu((b * 7 + t.tid as u64) % 13);
                t.charge_global(b % 3 + 1, 4, AccessPattern::Coalesced);
            });
            if b.is_multiple_of(5) {
                block.one_thread(|t| t.charge_atomic_global(b));
            }
        };
        let spec = DeviceSpec::tesla_k40c();
        let sms = spec.sm_count as usize;
        let cores = host_cores() as u32;
        for grid in [1, cores, 8 * cores - 1, 8 * cores, 8 * cores + 1, 1000] {
            let (mut sm_cycles, mut counters, mut max_block) =
                (vec![0u64; sms], Counters::default(), 0);
            for b in 0..grid {
                let mut ctx = BlockCtx::new(b, grid, 64, spec.warp_slots(), THRUST_ELEM_CYCLES);
                kernel(&mut ctx);
                let (cycles, c) = ctx.finish();
                sm_cycles[b as usize % sms] += cycles;
                max_block = max_block.max(cycles);
                counters.merge(&c);
            }
            let cycles = *sm_cycles.iter().max().unwrap();
            let mean = sm_cycles.iter().sum::<u64>() as f64 / sms as f64;

            let got = Gpu::new(spec.clone())
                .launch("k", LaunchConfig::grid(grid, 64), kernel)
                .unwrap();
            assert_eq!(got.cycles, cycles, "grid {grid}");
            assert_eq!(got.counters, counters, "grid {grid}");
            assert_eq!(got.max_block_cycles, max_block, "grid {grid}");
            assert_eq!(got.sm_imbalance, cycles as f64 / mean, "grid {grid}");
        }
    }

    #[test]
    fn more_blocks_cost_more_time() {
        let mut g = gpu();
        let small = g
            .launch("w", LaunchConfig::grid(4, 32), |b| {
                b.threads(|t| t.charge_alu(100))
            })
            .unwrap();
        let large = g
            .launch("w", LaunchConfig::grid(64, 32), |b| {
                b.threads(|t| t.charge_alu(100))
            })
            .unwrap();
        assert!(large.cycles > small.cycles);
    }

    #[test]
    fn launch_validation_errors() {
        let mut g = gpu();
        let err = g
            .launch("bad", LaunchConfig::grid(0, 32), |_| {})
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidLaunch { .. }));
        let err = g
            .launch("bad", LaunchConfig::grid(1, 0), |_| {})
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidLaunch { .. }));
        let err = g
            .launch("bad", LaunchConfig::grid(1, 512), |_| {})
            .unwrap_err();
        assert!(
            matches!(err, SimError::InvalidLaunch { .. }),
            "256 is the test device's max"
        );
        let err = g
            .launch(
                "bad",
                LaunchConfig::grid(1, 32).with_shared(64 * 1024),
                |_| {},
            )
            .unwrap_err();
        assert!(matches!(err, SimError::SharedMemOverflow { .. }));
    }

    #[test]
    fn transfers_charge_time_and_appear_in_timeline() {
        let mut g = gpu();
        let data = vec![1.0f32; 1024];
        let mut buf = g.htod_copy(&data).unwrap();
        let mut back = vec![0.0f32; 1024];
        g.dtoh_into(&mut buf, &mut back).unwrap();
        assert_eq!(back, data);
        assert_eq!(g.timeline().transfers.len(), 2);
        assert_eq!(g.timeline().htod_bytes(), 4096);
        assert!(g.elapsed_ms() >= 2.0 * 0.01, "two latency floors");
    }

    #[test]
    fn htod_into_rejects_size_mismatch() {
        let mut g = gpu();
        let mut buf = g.alloc::<u32>(4).unwrap();
        let err = g.htod_into(&[1u32, 2, 3], &mut buf).unwrap_err();
        assert_eq!(
            err,
            SimError::TransferSizeMismatch {
                src_len: 3,
                dst_len: 4
            }
        );
    }

    #[test]
    fn dtoh_into_round_trips() {
        let mut g = gpu();
        let mut buf = g.htod_copy(&[9u32, 8, 7]).unwrap();
        let mut host = [0u32; 3];
        g.dtoh_into(&mut buf, &mut host).unwrap();
        assert_eq!(host, [9, 8, 7]);
    }

    #[test]
    fn oom_is_reported_with_sizes() {
        let g = gpu(); // 64 MiB - 4 MiB reserve = 60 MiB usable
        let err = g.alloc::<u8>(61 * 1024 * 1024).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
    }

    #[test]
    fn ledger_peak_visible_through_gpu() {
        let g = gpu();
        {
            let _a = g.alloc::<u8>(1024).unwrap();
            let _b = g.alloc::<u8>(2048).unwrap();
            assert_eq!(g.ledger().used(), 3072);
        }
        assert_eq!(g.ledger().used(), 0);
        assert_eq!(g.ledger().peak(), 3072);
    }

    #[test]
    fn reset_clock_clears_timeline_not_ledger() {
        let mut g = gpu();
        let _buf = g.htod_copy(&[1u32, 2]).unwrap();
        assert!(g.elapsed_ms() > 0.0);
        g.reset_clock();
        assert_eq!(g.elapsed_ms(), 0.0);
        assert!(g.timeline().transfers.is_empty());
        assert_eq!(g.ledger().used(), 8);
    }

    #[test]
    fn sm_imbalance_reported() {
        let mut g = gpu();
        // 1 block on a 2-SM device: the other SM idles => imbalance = 2.
        let s = g
            .launch("lone", LaunchConfig::grid(1, 32), |b| {
                b.threads(|t| t.charge_alu(100))
            })
            .unwrap();
        assert!((s.sm_imbalance - 2.0).abs() < 1e-9);
        // Even block count => balanced.
        let s = g
            .launch("even", LaunchConfig::grid(4, 32), |b| {
                b.threads(|t| t.charge_alu(100))
            })
            .unwrap();
        assert!((s.sm_imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn launch_reports_occupancy() {
        let mut g = gpu();
        let s = g
            .launch("occ", LaunchConfig::grid(4, 256), |b| {
                b.threads(|t| t.charge_alu(1))
            })
            .unwrap();
        // Test device: 16 max warps/SM, 256 threads = 8 warps, 8 blocks max
        // → warp-limited at 2 blocks = 16 warps = full occupancy.
        assert!((s.occupancy - 1.0).abs() < 1e-12, "got {}", s.occupancy);
        let s = g
            .launch(
                "occ_shared",
                LaunchConfig::grid(4, 32).with_shared(16 * 1024),
                |b| b.threads(|t| t.charge_alu(1)),
            )
            .unwrap();
        // 16 KB shared per block on a 16 KB/SM device → 1 block = 1 warp.
        assert!(
            (s.occupancy - 1.0 / 16.0).abs() < 1e-12,
            "got {}",
            s.occupancy
        );
    }

    #[test]
    fn events_carry_start_timestamps() {
        let mut g = gpu();
        let data = vec![1.0f32; 1024];
        let mut buf = g.htod_copy(&data).unwrap();
        g.launch("k", LaunchConfig::grid(2, 32), |b| {
            b.threads(|t| t.charge_alu(100))
        })
        .unwrap();
        g.dtoh_into(&mut buf, &mut [0.0f32; 1024]).unwrap();
        let tl = g.timeline();
        let up = &tl.transfers[0];
        let k = &tl.kernels[0];
        let down = &tl.transfers[1];
        assert_eq!(up.start_ms, 0.0);
        assert!(
            (k.start_ms - up.end_ms()).abs() < 1e-12,
            "kernel starts when upload ends"
        );
        assert!((down.start_ms - k.end_ms()).abs() < 1e-12);
        assert!((down.end_ms() - g.elapsed_ms()).abs() < 1e-12);
        assert!(up.stream.is_none() && k.stream.is_none());
    }

    #[test]
    fn streamed_events_record_stream_and_scheduled_start() {
        let mut g = gpu();
        let a = g.create_stream();
        let b = g.create_stream();
        g.set_stream(Some(a));
        let _b1 = g.htod_copy(&vec![0u32; 1 << 16]).unwrap();
        g.set_stream(Some(b));
        let _b2 = g.htod_copy(&vec![0u32; 1 << 16]).unwrap();
        g.synchronize();
        let t = &g.timeline().transfers;
        assert_eq!(t[0].stream, Some(a.0));
        assert_eq!(t[1].stream, Some(b.0));
        assert!(
            (t[1].start_ms - t[0].end_ms()).abs() < 1e-12,
            "same DMA engine serializes the two uploads"
        );
    }

    #[test]
    fn launch_computes_efficiency() {
        let mut g = gpu();
        let s = g
            .launch("k", LaunchConfig::grid(4, 32), |b| {
                b.threads(|t| {
                    t.charge_alu(50);
                    t.charge_global(8, 4, AccessPattern::Coalesced);
                    t.charge_shared(4);
                })
            })
            .unwrap();
        assert!(s.efficiency.gb_per_s > 0.0);
        assert!(s.efficiency.mem_utilization > 0.0 && s.efficiency.mem_utilization < 1.0);
        assert!(
            (s.efficiency.coalescing_ratio - 1.0).abs() < 1e-9,
            "coalesced access"
        );
        assert!((s.efficiency.bank_conflict_degree - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_cover_elapsed_time() {
        let mut g = gpu();
        let outer = g.begin_span("run");
        let s1 = g.begin_span("upload");
        let _buf = g.htod_copy(&[1u32, 2, 3]).unwrap();
        g.end_span(s1);
        g.with_span("compute", |g| {
            g.launch("k", LaunchConfig::grid(1, 32), |b| {
                b.threads(|t| t.charge_alu(10))
            })
            .unwrap();
        });
        g.end_span(outer);
        let spans = &g.timeline().spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].depth, 1);
        assert!((spans[0].duration_ms() - g.elapsed_ms()).abs() < 1e-12);
        let inner: f64 = spans[1].duration_ms() + spans[2].duration_ms();
        assert!(
            (inner - g.elapsed_ms()).abs() < 1e-12,
            "children tile the parent exactly"
        );
        assert_eq!(g.timeline().top_spans().count(), 1);
    }

    #[test]
    fn reset_clock_clears_spans_and_depth() {
        let mut g = gpu();
        let s = g.begin_span("x");
        g.end_span(s);
        let _open = g.begin_span("dangling");
        g.reset_clock();
        assert!(g.timeline().spans.is_empty());
        let t = g.begin_span("fresh");
        assert_eq!(
            g.timeline().spans[t.0].depth,
            0,
            "depth resets with the clock"
        );
        g.end_span(t);
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        use crate::faults::FaultPlan;
        let run = |plan: Option<FaultPlan>| {
            let mut g = gpu();
            g.set_fault_plan(plan);
            let data: Vec<u32> = (0..4096).rev().collect();
            let mut buf = g.htod_copy(&data).unwrap();
            let view = buf.view();
            g.launch("inc", LaunchConfig::grid(8, 32), |b| {
                b.threads(|t| {
                    t.charge_alu(5);
                    let i = t.global_idx();
                    if i < 4096 {
                        view.set(i, view.get(i) + 1);
                    }
                });
            })
            .unwrap();
            let mut out = vec![0u32; 4096];
            g.dtoh_into(&mut buf, &mut out).unwrap();
            (out, g.elapsed_ms(), g.timeline().kernels[0].cycles)
        };
        let plain = run(None);
        let chaos_off = run(Some(FaultPlan::seeded(99)));
        assert_eq!(plain, chaos_off, "an empty plan must be a perfect no-op");
    }

    #[test]
    fn injected_launch_failure_skips_kernel_but_charges_overhead() {
        use crate::faults::{FaultKind, FaultOp, FaultPlan};
        let mut g = gpu();
        g.set_fault_plan(Some(FaultPlan::seeded(0).with_scripted(
            FaultOp::Launch,
            0,
            FaultKind::LaunchFailure,
        )));
        let buf = g.alloc::<u32>(64).unwrap();
        let view = buf.view();
        let err = g
            .launch("doomed", LaunchConfig::grid(2, 32), |b| {
                b.threads(|t| view.set(t.global_idx(), 1));
            })
            .unwrap_err();
        assert!(err.is_transient());
        assert!(matches!(
            err,
            SimError::InjectedFault {
                kind: FaultKind::LaunchFailure,
                ..
            }
        ));
        let overhead = KERNEL_LAUNCH_US / 1_000.0;
        assert!((g.elapsed_ms() - overhead).abs() < 1e-12);
        assert!(
            g.timeline().kernels.is_empty(),
            "no stats for a failed launch"
        );
        let mut buf = buf;
        assert!(
            buf.to_host_vec().iter().all(|&v| v == 0),
            "kernel body must not have run"
        );
        // The retry (launch index 1) succeeds.
        let view = buf.view();
        g.launch("retry", LaunchConfig::grid(2, 32), |b| {
            b.threads(|t| view.set(t.global_idx(), 1));
        })
        .unwrap();
        assert_eq!(g.injected_faults().len(), 1);
    }

    #[test]
    fn injected_transfer_corruption_damages_payload_and_errors() {
        use crate::faults::{FaultKind, FaultOp, FaultPlan};
        let mut g = gpu();
        g.set_fault_plan(Some(FaultPlan::seeded(5).with_scripted(
            FaultOp::Transfer,
            0,
            FaultKind::TransferCorruption,
        )));
        let mut buf = {
            // Bypass injection for the upload: install the plan afterwards.
            let mut clean = gpu();
            clean.htod_copy(&[1u32, 2, 3, 4]).unwrap()
        };
        let mut host = [0u32; 4];
        let err = g.dtoh_into(&mut buf, &mut host).unwrap_err();
        assert!(matches!(
            err,
            SimError::InjectedFault {
                kind: FaultKind::TransferCorruption,
                ..
            }
        ));
        assert_ne!(host, [1, 2, 3, 4], "payload must be visibly damaged");
        assert_ne!(host, [0, 0, 0, 0], "the copy itself did complete");
        assert_eq!(
            g.timeline().transfers.len(),
            1,
            "a corrupted transfer still bills full time"
        );
    }

    #[test]
    fn injected_abort_moves_no_data_and_bills_half_time() {
        use crate::faults::{FaultKind, FaultOp, FaultPlan};
        let mut g = gpu();
        g.set_fault_plan(Some(FaultPlan::seeded(5).with_scripted(
            FaultOp::Transfer,
            0,
            FaultKind::TransferAbort,
        )));
        let data = vec![7u32; 1 << 16];
        let err = g.htod_copy(&data).unwrap_err();
        assert!(matches!(
            err,
            SimError::InjectedFault {
                kind: FaultKind::TransferAbort,
                ..
            }
        ));
        let full = g.spec().transfer_ms((1u64 << 16) * 4);
        assert!((g.elapsed_ms() - full * 0.5).abs() < 1e-12);
        assert!(g.timeline().transfers.is_empty());
        assert_eq!(g.ledger().used(), 0, "no allocation survives an abort");
    }

    #[test]
    fn injected_oom_is_transient_and_leaves_ledger_untouched() {
        use crate::faults::{FaultKind, FaultOp, FaultPlan};
        let mut g = gpu();
        g.set_fault_plan(Some(FaultPlan::seeded(1).with_scripted(
            FaultOp::Alloc,
            0,
            FaultKind::DeviceOom,
        )));
        let err = g.alloc::<u32>(16).unwrap_err();
        assert!(err.is_transient());
        assert_eq!(g.ledger().used(), 0);
        assert_eq!(g.ledger().alloc_count(), 0);
        // A *real* OOM stays fatal even with a plan installed.
        let err = g.alloc::<u8>(61 * 1024 * 1024).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }));
        assert!(!err.is_transient());
    }

    #[test]
    fn stream_stall_adds_latency_without_erroring() {
        use crate::faults::{FaultKind, FaultOp, FaultPlan};
        let body = |g: &mut Gpu| {
            g.launch("k", LaunchConfig::grid(2, 32), |b| {
                b.threads(|t| t.charge_alu(100))
            })
            .unwrap()
        };
        let mut clean = gpu();
        let baseline = body(&mut clean).time_ms;
        let mut g = gpu();
        g.set_fault_plan(Some(
            FaultPlan::seeded(0)
                .with_stream_stall(0.0, 2.5)
                .with_scripted(FaultOp::Launch, 0, FaultKind::StreamStall),
        ));
        let stalled = body(&mut g).time_ms;
        assert!((stalled - baseline - 2.5).abs() < 1e-12);
        assert_eq!(g.injected_faults().len(), 1);
        assert!(!g.injected_faults()[0].kind.is_error());
    }

    #[test]
    fn close_spans_beyond_repairs_error_unwinds() {
        let mut g = gpu();
        let outer = g.begin_span("outer");
        let base = g.open_span_count();
        assert_eq!(base, 1);
        let _attempt = g.begin_span("attempt");
        let _inner = g.begin_span("attempt/upload");
        // Simulate an error return that skipped both end_span calls.
        g.close_spans_beyond(base);
        assert_eq!(g.open_span_count(), 1);
        let fresh = g.begin_span("retry");
        assert_eq!(g.timeline().spans[fresh.0].depth, 1, "depth is repaired");
        g.end_span(fresh);
        g.end_span(outer);
        assert_eq!(g.open_span_count(), 0);
    }

    #[test]
    fn device_death_is_permanent_and_logged_once() {
        use crate::faults::{FaultKind, FaultOp, FaultPlan};
        let mut g = gpu();
        g.set_fault_plan(Some(FaultPlan::seeded(0).with_scripted(
            FaultOp::Launch,
            0,
            FaultKind::DeviceDeath,
        )));
        assert!(!g.is_dead());
        let buf = g.alloc::<u32>(64).unwrap();
        let view = buf.view();
        let err = g
            .launch("doomed", LaunchConfig::grid(2, 32), |b| {
                b.threads(|t| view.set(t.global_idx(), 1));
            })
            .unwrap_err();
        assert!(!err.is_transient(), "death is permanent");
        assert!(matches!(
            err,
            SimError::InjectedFault {
                kind: FaultKind::DeviceDeath,
                ..
            }
        ));
        assert!(g.is_dead());
        let overhead = KERNEL_LAUNCH_US / 1_000.0;
        assert!((g.elapsed_ms() - overhead).abs() < 1e-12, "overhead billed");
        // Every later operation fails fast with the same error and does
        // NOT add injector log entries: one death, one fault.
        let view = buf.view();
        let retry = g
            .launch("retry", LaunchConfig::grid(2, 32), |b| {
                b.threads(|t| view.set(t.global_idx(), 1));
            })
            .unwrap_err();
        assert!(matches!(
            retry,
            SimError::InjectedFault {
                kind: FaultKind::DeviceDeath,
                ..
            }
        ));
        assert!(g.alloc::<u32>(4).is_err());
        assert!(g.htod_copy(&[1u32]).is_err());
        let mut buf = buf;
        let mut host = [0u32; 64];
        assert!(g.dtoh_into(&mut buf, &mut host).is_err());
        assert_eq!(g.injected_faults().len(), 1, "only the death is logged");
        assert!(
            (g.elapsed_ms() - overhead).abs() < 1e-12,
            "fail-fast ops bill no time"
        );
    }

    /// Every preset's transfer times and one small launch's time, pinned
    /// as `f64` bits. The transfer and launch expressions read the PCIe
    /// and launch constants; reordering any of their float operations, or
    /// the per-element global cost's, moves these bits.
    #[test]
    fn transfer_and_launch_times_are_pinned() {
        // (transfer_ms of 0 B, 4 KiB and 8 MiB; time_ms of the launch).
        const TRANSFERS: [u64; 3] = [0x3f847ae147ae147b, 0x3f852dd643b5a90c, 0x3fe6b08b06114a63];
        let pins = [
            (DeviceSpec::tesla_k40c(), 0x3f74cc839c5d9093),
            (DeviceSpec::tesla_k20(), 0x3f74d1060d19a932),
            (DeviceSpec::tesla_k80_die(), 0x3f74c062b747e19c),
            (DeviceSpec::gtx_980(), 0x3f74b0e4540f16c8),
            (DeviceSpec::test_device(), 0x3f74b7b28954a7f8),
        ];
        for (spec, launch_bits) in pins {
            let transfers = [0, 4 << 10, 8 << 20].map(|bytes| spec.transfer_ms(bytes).to_bits());
            assert_eq!(transfers, TRANSFERS, "{}", spec.name);
            let mut g = Gpu::new(spec);
            let k = g
                .launch("pinned", LaunchConfig::grid(1, 64), |b| {
                    b.threads(|t| {
                        t.charge_global(3, 4, AccessPattern::Coalesced);
                        t.charge_global(1, 4, AccessPattern::Scattered);
                        t.charge_global(2, 8, AccessPattern::Strided(2));
                        t.charge_alu(7);
                    })
                })
                .unwrap();
            assert_eq!(k.cycles, 58, "{}", g.spec().name);
            assert_eq!(k.time_ms.to_bits(), launch_bits, "{}", g.spec().name);
        }
    }
}
