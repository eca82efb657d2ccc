//! # gpu-sim — a deterministic SIMT GPU simulator
//!
//! This crate is the hardware substrate for the GPU-ArraySort reproduction
//! (Awan & Saeed, ICPP 2016). The paper's experiments ran on an NVIDIA
//! Tesla K40c; this environment has no CUDA device, so the reproduction
//! substitutes a simulator that preserves the properties the paper's
//! algorithm design and evaluation depend on:
//!
//! * **SIMT execution geometry** — grids of blocks, blocks of threads,
//!   warps of 32 executing in lockstep. Kernels are plain Rust closures run
//!   once per block ([`Gpu::launch`]); inside, [`BlockCtx::threads`] runs
//!   barrier-separated per-thread phases.
//! * **A cycle cost model** — threads charge ALU ops, shared-memory
//!   accesses and warp-amortized global-memory transactions at fixed
//!   Kepler-class cycle costs ([`ThreadCtx`]); the one setting is the
//!   Thrust-era baseline's calibration ([`Gpu::with_thrust_elem_cycles`]).
//!   Warps cost as much as their slowest thread, warps fold into SM issue
//!   slots, blocks fold into a per-SM makespan, cycles convert to
//!   milliseconds via the device clock. The result is a deterministic
//!   performance estimate independent of host speed.
//! * **Capacity ledgers** — a global-memory allocator with the K40c's
//!   11 520 MB limit ([`MemoryLedger`], [`DeviceBuffer`]) and a 48 KB
//!   per-block shared-memory budget ([`LaunchConfig::with_shared`]). The
//!   paper's Table 1 (how many arrays fit) falls out of these.
//! * **A PCIe transfer model** — H↔D copies charge latency + bandwidth
//!   time, which the out-of-core extension overlaps.
//!
//! Kernels do *real* data movement on real host memory — the array-sort
//! crates verify their outputs element-for-element — while the simulated
//! clock produces the paper's figures' shapes.
//!
//! ## Quick tour
//!
//! ```
//! use gpu_sim::{AccessPattern, DeviceSpec, Gpu, LaunchConfig};
//!
//! let mut gpu = Gpu::new(DeviceSpec::tesla_k40c());
//! let data: Vec<f32> = (0..1024).rev().map(|x| x as f32).collect();
//! let buf = gpu.htod_copy(&data).unwrap();
//! let view = buf.view();
//!
//! // One block per 256-element tile; each thread squares one element.
//! gpu.launch("square", LaunchConfig::grid(4, 256), |block| {
//!     block.threads(|t| {
//!         let i = t.global_idx();
//!         t.charge_global(2, 4, AccessPattern::Coalesced); // 1 load + 1 store
//!         t.charge_alu(1);
//!         view.set(i, view.get(i) * view.get(i));
//!     });
//! })
//! .unwrap();
//!
//! let mut buf = buf;
//! let mut out = vec![0.0f32; data.len()];
//! gpu.dtoh_into(&mut buf, &mut out).unwrap();
//! assert_eq!(out[0], data[0] * data[0]);
//! println!("simulated time: {:.3} ms", gpu.elapsed_ms());
//! ```

#![warn(missing_docs)]

pub mod banks;
mod block;
pub mod coalescing;
mod cost;
mod error;
mod faults;
mod gpu;
pub mod guide;
mod memory;
mod occupancy;
mod spec;
mod stats;
mod stream;
mod trace;

pub use block::{warp, BlockCtx, ThreadCtx};
pub use cost::{AccessPattern, WARP_SIZE};
pub use error::{SimError, SimResult};
pub use faults::{
    FaultInjector, FaultKind, FaultOp, FaultPlan, FaultSpecError, InjectedFault, ScriptedFault,
};
pub use gpu::{BillMark, Gpu, LaunchConfig};
pub use memory::{DeviceBuffer, GlobalView, MemoryLedger};
pub use occupancy::{occupancy, KernelResources, Limiter, Occupancy};
pub use spec::{DeviceSpec, MIB};
pub use stats::{
    Counters, KernelEfficiency, KernelStats, SpanId, SpanRecord, Timeline, TransferDir,
    TransferStats,
};
pub use stream::{AsyncEvent, Engine, EventId, StreamId};
pub use trace::{chrome_trace_json, chrome_trace_json_pool, phase_summaries, PhaseSummary};
