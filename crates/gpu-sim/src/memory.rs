//! Device global memory: the allocation ledger, typed device buffers, and
//! the unsafe-but-disciplined cross-block view used by kernels.
//!
//! Every [`DeviceBuffer`] allocation is charged against the device's usable
//! capacity and released on drop, so the ledger reproduces the
//! out-of-memory wall the paper's Table 1 measures. Buffers carry real
//! host-side storage — kernels move real data — while the *accounting* is
//! what models the GPU.
//!
//! A dropped buffer's host storage is kept as one of its thread's few
//! spare blocks and backs the next buffer of the same layout. A batch loop
//! then reuses its blocks instead of asking `malloc` for them each time.
//! Left to glibc, a freed block of a few MiB is split by small allocations
//! or given back to the system; the next request then faults in fresh
//! pages, and peak RSS grows by a whole block in some runs (DESIGN §6).

use std::alloc::Layout;
use std::cell::{RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{SimError, SimResult};

/// Shared allocation ledger for one device. Thread-safe; buffers hold an
/// `Arc` to it so they can release their bytes when dropped.
#[derive(Debug)]
pub struct MemoryLedger {
    capacity: u64,
    used: AtomicU64,
    peak: AtomicU64,
    allocs: AtomicU64,
}

impl MemoryLedger {
    /// Creates a ledger with `capacity` usable bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
        }
    }

    /// Attempts to reserve `bytes`; fails with [`SimError::OutOfMemory`]
    /// when the device is full.
    pub fn reserve(&self, bytes: u64) -> SimResult<()> {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let new = cur + bytes;
            if new > self.capacity {
                return Err(SimError::OutOfMemory {
                    requested: bytes,
                    available: self.capacity - cur,
                });
            }
            match self
                .used
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.peak.fetch_max(new, Ordering::Relaxed);
                    self.allocs.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Returns `bytes` to the pool.
    pub fn release(&self, bytes: u64) {
        self.used.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark over the ledger's lifetime.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity - self.used()
    }

    /// Number of successful allocations made so far.
    pub fn alloc_count(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }
}

/// A typed allocation in simulated device memory.
///
/// The storage lives in host RAM (kernels do real work on it); the ledger
/// accounting is what models the device's capacity. Dropping the buffer
/// frees its bytes back to the ledger, like `cudaFree`.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    data: UnsafeCell<Vec<T>>,
    bytes: u64,
    ledger: Arc<MemoryLedger>,
}

// SAFETY: access to the interior Vec is mediated by &self/&mut self methods
// and by GlobalView, whose safety contract (each element written by at most
// one thread per launch, no read of an element concurrently written) is the
// same discipline CUDA global memory requires.
unsafe impl<T: Send> Send for DeviceBuffer<T> {}
unsafe impl<T: Send + Sync> Sync for DeviceBuffer<T> {}

impl<T: Copy + Default> DeviceBuffer<T> {
    /// Allocates `len` default-initialized elements (like `cudaMalloc` +
    /// `cudaMemset`). Fails when the ledger is out of capacity.
    pub fn zeroed(ledger: Arc<MemoryLedger>, len: usize) -> SimResult<Self> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        ledger.reserve(bytes)?;
        let data = match take_spare(len) {
            Some(mut v) => {
                v.resize(len, T::default());
                v
            }
            None => vec![T::default(); len],
        };
        Ok(Self {
            data: UnsafeCell::new(data),
            bytes,
            ledger,
        })
    }

    /// Allocates and fills from a host slice (accounting only — the transfer
    /// *time* is charged by [`crate::gpu::Gpu::htod_copy`]).
    pub fn from_host(ledger: Arc<MemoryLedger>, host: &[T]) -> SimResult<Self> {
        let bytes = std::mem::size_of_val(host) as u64;
        ledger.reserve(bytes)?;
        let data = match take_spare(host.len()) {
            Some(mut v) => {
                v.extend_from_slice(host);
                v
            }
            None => host.to_vec(),
        };
        Ok(Self {
            data: UnsafeCell::new(data),
            bytes,
            ledger,
        })
    }
}

impl<T> DeviceBuffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        unsafe { (*self.data.get()).len() }
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the allocation in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.bytes
    }

    /// Host-side read access (conceptually after a sync).
    pub fn as_slice(&mut self) -> &[T] {
        self.data.get_mut()
    }

    /// Host-side mutable access (outside any launch).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.data.get_mut()
    }

    /// A cross-block view for use inside kernels. See [`GlobalView`] for
    /// the aliasing discipline.
    pub fn view(&self) -> GlobalView<'_, T> {
        let v = self.data.get();
        // SAFETY: pointer and length derive from a live allocation owned by
        // self; GlobalView's contract governs concurrent use.
        unsafe { GlobalView::from_raw((*v).as_mut_ptr(), (*v).len()) }
    }
}

impl<T: Clone> DeviceBuffer<T> {
    /// Copies contents back to a host `Vec` without billing a transfer (a
    /// billed D→H copy is [`crate::gpu::Gpu::dtoh_into`]).
    pub fn to_host_vec(&mut self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

impl<T> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.ledger.release(self.bytes);
        if !std::mem::needs_drop::<T>() {
            keep_spare(std::mem::take(self.data.get_mut()));
        }
    }
}

/// Most bytes a thread keeps in spare blocks. glibc hands blocks above its
/// 32 MiB ceiling for `mmap` straight back to the system when they are
/// freed, so keeping them would hold memory the allocator gives up.
const SPARE_MAX_BYTES: usize = 32 << 20;

/// Most spare blocks a thread keeps: STA's batch drops four (DESIGN §6).
const SPARE_MAX_BLOCKS: usize = 4;

thread_local! {
    /// The host storage of the last device buffers this thread dropped.
    static SPARES: RefCell<VecDeque<Spare>> = const { RefCell::new(VecDeque::new()) };
}

/// A block from the global allocator, given back to it on drop.
struct Spare {
    ptr: NonNull<u8>,
    layout: Layout,
}

impl Drop for Spare {
    fn drop(&mut self) {
        // SAFETY: `ptr` is a `Vec` buffer allocated with `layout`, and
        // nothing else owns it.
        unsafe { std::alloc::dealloc(self.ptr.as_ptr(), self.layout) }
    }
}

/// An empty `Vec` on the newest of this thread's spare blocks that has
/// exactly the layout of `len` elements of `T`, if there is one.
fn take_spare<T>(len: usize) -> Option<Vec<T>> {
    let layout = Layout::array::<T>(len).ok()?;
    let spare = SPARES
        .try_with(|s| {
            let mut s = s.borrow_mut();
            let i = s.iter().rposition(|spare| spare.layout == layout)?;
            s.remove(i)
        })
        .ok()??;
    let spare = ManuallyDrop::new(spare);
    // SAFETY: the block came from the global allocator with `layout`,
    // which is the layout of a `Vec<T>` of capacity `len`; the `Vec` is
    // empty, so no element is read before it is written.
    Some(unsafe { Vec::from_raw_parts(spare.ptr.as_ptr().cast::<T>(), 0, len) })
}

/// Makes `v`'s block this thread's newest spare, freeing the oldest ones
/// past [`SPARE_MAX_BLOCKS`] blocks or [`SPARE_MAX_BYTES`] bytes. `T` has
/// no drop glue, so forgetting the elements is sound.
fn keep_spare<T>(v: Vec<T>) {
    let Ok(layout) = Layout::array::<T>(v.capacity()) else {
        return;
    };
    if layout.size() == 0 || layout.size() > SPARE_MAX_BYTES {
        return;
    }
    let mut v = ManuallyDrop::new(v);
    let spare = Spare {
        ptr: NonNull::new(v.as_mut_ptr().cast::<u8>()).expect("a Vec with capacity is non-null"),
        layout,
    };
    // During thread teardown the closure is not run and drops `spare`.
    let _ = SPARES.try_with(move |s| {
        let mut s = s.borrow_mut();
        s.push_back(spare);
        while s.len() > SPARE_MAX_BLOCKS
            || s.iter().map(|spare| spare.layout.size()).sum::<usize>() > SPARE_MAX_BYTES
        {
            s.pop_front();
        }
    });
}

/// An unsynchronized, cross-block view of device memory, mirroring what a
/// CUDA kernel sees: every block may read and write anywhere.
///
/// # Safety discipline
///
/// The simulator upholds CUDA's rules rather than Rust's: within one kernel
/// launch, **each element must be written by at most one thread, and no
/// thread may read an element another thread writes**. All shipped
/// kernels obey this by construction (blocks own disjoint array segments,
/// or scatters are permutations); the `trace` tests validate it on small
/// inputs.
pub struct GlobalView<'a, T> {
    ptr: *mut T,
    len: usize,
    _life: PhantomData<&'a T>,
}

unsafe impl<T: Send + Sync> Send for GlobalView<'_, T> {}
unsafe impl<T: Send + Sync> Sync for GlobalView<'_, T> {}

impl<T> Clone for GlobalView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for GlobalView<'_, T> {}

impl<'a, T> GlobalView<'a, T> {
    /// Builds a view from a raw region.
    ///
    /// # Safety
    /// `ptr` must be valid for reads/writes of `len` elements for `'a`, and
    /// all concurrent use must follow the type-level discipline above.
    pub unsafe fn from_raw(ptr: *mut T, len: usize) -> Self {
        Self {
            ptr,
            len,
            _life: PhantomData,
        }
    }

    /// Number of elements visible through the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads element `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> T
    where
        T: Copy,
    {
        assert!(idx < self.len, "GlobalView read OOB: {idx} >= {}", self.len);
        // SAFETY: bounds checked; discipline forbids concurrent writers.
        unsafe { *self.ptr.add(idx) }
    }

    /// Writes element `idx`.
    #[inline]
    pub fn set(&self, idx: usize, val: T) {
        assert!(
            idx < self.len,
            "GlobalView write OOB: {idx} >= {}",
            self.len
        );
        // SAFETY: bounds checked; discipline guarantees a unique writer.
        unsafe { *self.ptr.add(idx) = val }
    }

    /// A sub-view of `range` (both bounds in elements).
    pub fn subview(&self, start: usize, len: usize) -> GlobalView<'a, T> {
        assert!(
            start + len <= self.len,
            "subview OOB: {start}+{len} > {}",
            self.len
        );
        // SAFETY: stays within the parent region.
        unsafe { GlobalView::from_raw(self.ptr.add(start), len) }
    }

    /// Exclusive slice of a region this caller owns for the launch.
    ///
    /// # Safety
    /// No other thread may access `[start, start+len)` during the returned
    /// borrow.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &'a mut [T] {
        assert!(
            start + len <= self.len,
            "slice_mut OOB: {start}+{len} > {}",
            self.len
        );
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }

    /// Read-only slice of a quiescent region (no concurrent writers).
    ///
    /// # Safety
    /// No thread may write `[start, start+len)` during the returned borrow.
    pub unsafe fn slice(&self, start: usize, len: usize) -> &'a [T] {
        assert!(
            start + len <= self.len,
            "slice OOB: {start}+{len} > {}",
            self.len
        );
        std::slice::from_raw_parts(self.ptr.add(start), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(cap: u64) -> Arc<MemoryLedger> {
        Arc::new(MemoryLedger::new(cap))
    }

    #[test]
    fn a_dropped_buffer_backs_the_next_buffer_of_its_layout() {
        let l = ledger(1 << 22);
        let mut a = DeviceBuffer::from_host(l.clone(), &[7u32; 64]).unwrap();
        let block = a.as_slice().as_ptr() as usize;
        drop(a);
        // Same size and alignment, another element type: the spare block,
        // filled afresh.
        let mut b = DeviceBuffer::<f32>::zeroed(l.clone(), 64).unwrap();
        assert_eq!(b.as_slice().as_ptr() as usize, block);
        assert!(b.as_slice().iter().all(|&x| x == 0.0));
        drop(b);
        // Same size, wider alignment: a new block, the spare stays.
        let mut c = DeviceBuffer::<u64>::zeroed(l.clone(), 32).unwrap();
        assert_ne!(c.as_slice().as_ptr() as usize, block);
        let mut d = DeviceBuffer::from_host(l.clone(), &[3u32; 64]).unwrap();
        assert_eq!(d.as_slice().as_ptr() as usize, block);
        assert_eq!(d.as_slice(), &[3u32; 64]);
        drop((c, d));
        assert_eq!(l.used(), 0);

        // STA's batch: the upload and the tags live across two radix
        // sorts, and each sort allocates alternate keys and values and a
        // small digit table, dropping the table first. All four big blocks
        // back the next batch's four big buffers, refilled.
        let len = 1 << 16;
        let sta_batch = |host: &[f32]| {
            let mut values = DeviceBuffer::from_host(l.clone(), host).unwrap();
            let mut tags = DeviceBuffer::<u32>::zeroed(l.clone(), len).unwrap();
            assert_eq!(values.as_slice(), host);
            assert!(tags.as_slice().iter().all(|&x| x == 0));
            tags.as_mut_slice().fill(9);
            let mut blocks = vec![
                values.as_slice().as_ptr() as usize,
                tags.as_slice().as_ptr() as usize,
            ];
            for _ in 0..2 {
                let mut alt_keys = DeviceBuffer::<f32>::zeroed(l.clone(), len).unwrap();
                let mut alt_values = DeviceBuffer::<u32>::zeroed(l.clone(), len).unwrap();
                let hist = DeviceBuffer::<u32>::zeroed(l.clone(), 256).unwrap();
                assert!(alt_keys.as_slice().iter().all(|&x| x == 0.0));
                assert!(alt_values.as_slice().iter().all(|&x| x == 0));
                alt_values.as_mut_slice().fill(5);
                blocks.push(alt_keys.as_slice().as_ptr() as usize);
                blocks.push(alt_values.as_slice().as_ptr() as usize);
                drop((hist, alt_values, alt_keys));
            }
            drop((tags, values));
            blocks.sort_unstable();
            blocks.dedup();
            blocks
        };
        let first = sta_batch(&[1.0; 1 << 16]);
        assert_eq!(first.len(), 4, "the second sort reuses the first's blocks");
        assert_eq!(spare_sizes(), [len * 4; 4], "the digit table is evicted");
        assert_eq!(sta_batch(&[2.0; 1 << 16]), first);
        assert_eq!(l.used(), 0);
    }

    /// Sizes of this thread's spare blocks, oldest first.
    fn spare_sizes() -> Vec<usize> {
        SPARES.with(|s| s.borrow().iter().map(|s| s.layout.size()).collect())
    }

    #[test]
    fn spares_are_capped_in_count_and_bytes() {
        let l = ledger(1 << 30);
        for len in [1, 2, 3, 4, 5] {
            drop(DeviceBuffer::<u8>::zeroed(l.clone(), len).unwrap());
        }
        assert_eq!(spare_sizes(), [2, 3, 4, 5], "the oldest goes first");
        // Too big to keep at all.
        drop(DeviceBuffer::<u8>::zeroed(l.clone(), SPARE_MAX_BYTES + 1).unwrap());
        assert_eq!(spare_sizes(), [2, 3, 4, 5]);
        // Two 20 MiB blocks pass the byte cap together: the newer one
        // evicts everything older.
        let big = 20 << 20;
        let a = DeviceBuffer::<u8>::zeroed(l.clone(), big).unwrap();
        let b = DeviceBuffer::<u16>::zeroed(l.clone(), big / 2).unwrap();
        drop(a);
        assert_eq!(spare_sizes(), [3, 4, 5, big]);
        drop(b);
        assert_eq!(spare_sizes(), [big]);
    }

    #[test]
    fn ledger_tracks_used_and_peak() {
        let l = ledger(1000);
        l.reserve(400).unwrap();
        l.reserve(500).unwrap();
        assert_eq!(l.used(), 900);
        assert_eq!(l.peak(), 900);
        l.release(500);
        assert_eq!(l.used(), 400);
        assert_eq!(l.peak(), 900, "peak is sticky");
        assert_eq!(l.alloc_count(), 2);
    }

    #[test]
    fn ledger_rejects_over_capacity() {
        let l = ledger(1000);
        l.reserve(800).unwrap();
        let err = l.reserve(300).unwrap_err();
        assert_eq!(
            err,
            SimError::OutOfMemory {
                requested: 300,
                available: 200
            }
        );
    }

    #[test]
    fn buffer_charges_and_releases_ledger() {
        let l = ledger(1024);
        {
            let b = DeviceBuffer::<u32>::zeroed(l.clone(), 100).unwrap();
            assert_eq!(b.size_bytes(), 400);
            assert_eq!(l.used(), 400);
        }
        assert_eq!(l.used(), 0, "drop releases");
        assert_eq!(l.peak(), 400);
    }

    #[test]
    fn buffer_from_host_round_trips() {
        let l = ledger(1 << 20);
        let mut b = DeviceBuffer::from_host(l, &[1u32, 2, 3]).unwrap();
        assert_eq!(b.to_host_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn oversized_buffer_fails_typed() {
        let l = ledger(100);
        let err = DeviceBuffer::<u64>::zeroed(l, 100).unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { requested: 800, .. }));
    }

    #[test]
    fn view_get_set_subview() {
        let l = ledger(1 << 20);
        let mut b = DeviceBuffer::<u32>::zeroed(l, 10).unwrap();
        let v = b.view();
        v.set(3, 42);
        assert_eq!(v.get(3), 42);
        let sub = v.subview(2, 4);
        assert_eq!(sub.get(1), 42);
        sub.set(0, 7);
        assert_eq!(b.as_slice()[2], 7);
    }

    #[test]
    #[should_panic(expected = "read OOB")]
    fn view_bounds_checked() {
        let l = ledger(1 << 20);
        let b = DeviceBuffer::<u32>::zeroed(l, 4).unwrap();
        let v = b.view();
        let _ = v.get(4);
    }

    #[test]
    fn ledger_reserve_is_thread_safe() {
        let l = ledger(10_000);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let l = &l;
                s.spawn(move || {
                    for _ in 0..100 {
                        if l.reserve(10).is_ok() {
                            l.release(10);
                        }
                    }
                });
            }
        });
        assert_eq!(l.used(), 0);
    }
}
