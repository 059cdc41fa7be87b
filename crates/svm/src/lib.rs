//! # san-svm — GeNIMA-like shared virtual memory over VMMC
//!
//! The paper's application experiments (§6.1.4) run SPLASH-2 programs on the
//! GeNIMA shared-virtual-memory protocol, which exploits NIC support to
//! eliminate asynchronous protocol processing. This crate reproduces that
//! substrate as a home-based SVM:
//!
//! * shared pages (4 KB) with static homes (`page % nodes`); per-node
//!   validity bits and dirty sets,
//! * page fetches served by the home's NIC-level deposit path (a request
//!   message out, a 4 KB direct deposit back) — **Data time**,
//! * home-based queue locks whose grants carry the previous holder's write
//!   notices (pages to invalidate) — **Lock time**,
//! * a centralized barrier manager that gathers write notices and broadcasts
//!   invalidations with the release; dirty pages are flushed to their homes
//!   before arrival — **Barrier time**,
//! * everything else is **Compute + Handler time** — matching the four bars
//!   of Figure 9.
//!
//! Application *data* lives in shared heaps (`Rc<RefCell<…>>`) accessed
//! directly by the process coroutines; the SVM protocol carries the
//! *timing and ordering* of coherence (fetches, flushes and invalidations
//! move logical 4 KB payloads through the full simulated stack). Processes
//! declare their accesses (`read(page)` / `write(page)`) exactly where a
//! page fault would occur. This is the standard SVM-simulation split: data
//! correctness is guaranteed by protocol ordering, which the application
//! results then validate against sequential references. A process parks at
//! every SVM call, so a heap borrow must end before the next one; clippy's
//! `await_holding_refcell_ref` lint rejects a borrow held across an `.await`.

pub mod msg;
pub mod node;
pub mod runner;

pub use msg::SvmMsg;
pub use node::{SvmNode, SvmReq, SvmResp, PAGE_BYTES};
pub use runner::{proc_body, run_svm, ProcBody, SvmConfig, SvmReport, TimeBreakdown};

/// Shorthand for the coroutine IO type SVM processes use.
pub type SvmIo = san_proc::ProcIo<SvmReq, SvmResp>;

/// A process's handle to the SVM: readable, awaitable shared-memory calls.
pub struct Svm {
    io: SvmIo,
}

impl Svm {
    /// Wrap a coroutine's IO handle.
    pub fn new(io: SvmIo) -> Self {
        Self { io }
    }

    /// Spend `d` of CPU time.
    pub async fn compute(&mut self, d: san_sim::Duration) {
        self.io.compute(d).await;
    }

    /// Declare a read of `page` (fetches it if not locally valid).
    pub async fn read(&mut self, page: u32) {
        self.io.request(SvmReq::Read(page)).await;
    }

    /// Declare a write to `page` (fetches if needed, marks dirty).
    pub async fn write(&mut self, page: u32) {
        self.io.request(SvmReq::Write(page)).await;
    }

    /// Declare reads over an inclusive page range.
    pub async fn read_range(&mut self, first: u32, last: u32) {
        for p in first..=last {
            self.read(p).await;
        }
    }

    /// Declare writes over an inclusive page range.
    pub async fn write_range(&mut self, first: u32, last: u32) {
        for p in first..=last {
            self.write(p).await;
        }
    }

    /// Acquire a global lock.
    pub async fn acquire(&mut self, lock: u32) {
        self.io.request(SvmReq::Acquire(lock)).await;
    }

    /// Release a global lock (flushes this node's writes under it).
    pub async fn release(&mut self, lock: u32) {
        self.io.request(SvmReq::Release(lock)).await;
    }

    /// Enter the global barrier.
    pub async fn barrier(&mut self) {
        self.io.request(SvmReq::Barrier).await;
    }

    /// Current simulated time.
    pub fn now(&self) -> san_sim::Time {
        self.io.now()
    }
}

/// Map a flat element index to its page, for `bytes_per_elem`-sized data
/// starting at `base_page`.
#[inline]
pub fn page_of(base_page: u32, index: usize, bytes_per_elem: usize) -> u32 {
    base_page + (index * bytes_per_elem / PAGE_BYTES as usize) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_of_maps_by_bytes() {
        // 512 f64s per 4 KB page.
        assert_eq!(page_of(0, 0, 8), 0);
        assert_eq!(page_of(0, 511, 8), 0);
        assert_eq!(page_of(0, 512, 8), 1);
        assert_eq!(page_of(10, 1024, 8), 12);
        // u32 keys: 1024 per page.
        assert_eq!(page_of(0, 1023, 4), 0);
        assert_eq!(page_of(0, 1024, 4), 1);
    }
}
