//! Multicore CPU model with per-class cycle accounting.
//!
//! Each simulated kernel or application operation is costed as a
//! [`CostSheet`] — a breakdown of cycles over [`CycleClass`]es — and then
//! *executed* on a core. A core processes operations serially: an
//! operation scheduled while the core is busy starts when the core
//! becomes free. Per-class totals are what the experiment harnesses use
//! to regenerate the paper's profiling claims (spinlock cycle shares,
//! `inet_lookup_listener` share, per-core utilization).

use serde::{Deserialize, Serialize};

use crate::time::Cycles;

/// Identifies one CPU core of the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CoreId(pub u16);

impl CoreId {
    /// The core index as a `usize`, for table indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// Classification of where cycles are spent, mirroring the kernel
/// function groups the paper profiles with `perf`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(usize)]
pub enum CycleClass {
    /// Per-packet NET_RX softirq base processing.
    SoftirqBase,
    /// Listen-socket lookup (`inet_lookup_listener`).
    ListenLookup,
    /// Established-table lookup (`__inet_lookup_established`).
    EstLookup,
    /// Three-way-handshake and teardown segment processing.
    Handshake,
    /// Socket (TCB) allocation, table insertion/removal, freeing.
    TcbManage,
    /// Cycles wasted spinning on contended locks.
    LockSpin,
    /// Stall cycles from cache-coherence transfers and L3 misses.
    CacheMiss,
    /// VFS work: dentry/inode setup and teardown for socket FDs.
    Vfs,
    /// Syscall entry/exit and fixed syscall bodies.
    Syscall,
    /// Epoll event posting and draining.
    Epoll,
    /// TCP timer arm/disarm/fire.
    Timer,
    /// User-level application work (request parsing, response build).
    AppWork,
    /// Transmit-path processing (qdisc, driver, XPS).
    TxPath,
    /// Receive Flow Deliver software packet steering.
    Steering,
}

impl CycleClass {
    /// Number of classes; sizes the accounting arrays.
    pub const COUNT: usize = 14;

    /// All classes in declaration order.
    pub const ALL: [CycleClass; Self::COUNT] = [
        CycleClass::SoftirqBase,
        CycleClass::ListenLookup,
        CycleClass::EstLookup,
        CycleClass::Handshake,
        CycleClass::TcbManage,
        CycleClass::LockSpin,
        CycleClass::CacheMiss,
        CycleClass::Vfs,
        CycleClass::Syscall,
        CycleClass::Epoll,
        CycleClass::Timer,
        CycleClass::AppWork,
        CycleClass::TxPath,
        CycleClass::Steering,
    ];

    /// Stable short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CycleClass::SoftirqBase => "softirq",
            CycleClass::ListenLookup => "listen_lookup",
            CycleClass::EstLookup => "est_lookup",
            CycleClass::Handshake => "handshake",
            CycleClass::TcbManage => "tcb_manage",
            CycleClass::LockSpin => "lock_spin",
            CycleClass::CacheMiss => "cache_miss",
            CycleClass::Vfs => "vfs",
            CycleClass::Syscall => "syscall",
            CycleClass::Epoll => "epoll",
            CycleClass::Timer => "timer",
            CycleClass::AppWork => "app_work",
            CycleClass::TxPath => "tx_path",
            CycleClass::Steering => "steering",
        }
    }
}

/// Accumulated cycle cost of one operation, broken down by class.
///
/// # Example
///
/// ```
/// # use sim_core::cpu::{CostSheet, CycleClass};
/// let mut sheet = CostSheet::new();
/// sheet.add(CycleClass::Syscall, 300);
/// sheet.add(CycleClass::AppWork, 700);
/// assert_eq!(sheet.total(), 1_000);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CostSheet {
    by_class: [Cycles; CycleClass::COUNT],
    total: Cycles,
}

impl CostSheet {
    /// Creates an empty (zero-cost) sheet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `cycles` of work classified as `class`.
    pub fn add(&mut self, class: CycleClass, cycles: Cycles) {
        self.by_class[class as usize] += cycles;
        self.total += cycles;
    }

    /// Total cycles across all classes.
    pub fn total(&self) -> Cycles {
        self.total
    }

    /// Cycles attributed to `class`.
    pub fn class(&self, class: CycleClass) -> Cycles {
        self.by_class[class as usize]
    }

    /// Resets the sheet to zero cost, keeping the allocation.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

/// The time span an operation occupied a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// When the core began executing the operation.
    pub start: Cycles,
    /// When the core finished (and became free again).
    pub end: Cycles,
}

#[derive(Debug, Clone, Default)]
struct Core {
    busy_until: Cycles,
    busy_cycles: Cycles,
    by_class: [Cycles; CycleClass::COUNT],
}

/// The simulated multicore CPU.
#[derive(Debug)]
pub struct Cpu {
    cores: Vec<Core>,
}

impl Cpu {
    /// Creates a CPU with `n` cores, all idle at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > u16::MAX as usize`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a CPU needs at least one core");
        assert!(n <= u16::MAX as usize, "core count exceeds CoreId range");
        Cpu {
            cores: vec![Core::default(); n],
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Executes an operation costed by `sheet` on `core`, not earlier
    /// than `earliest`. Returns the span actually occupied. The core's
    /// busy-until pointer advances; per-class totals accumulate.
    pub fn execute(&mut self, core: CoreId, earliest: Cycles, sheet: &CostSheet) -> Span {
        let c = &mut self.cores[core.index()];
        let start = earliest.max(c.busy_until);
        let end = start + sheet.total();
        c.busy_until = end;
        c.busy_cycles += sheet.total();
        for i in 0..CycleClass::COUNT {
            c.by_class[i] += sheet.by_class[i];
        }
        Span { start, end }
    }

    /// The earliest time `core` can begin new work.
    pub fn free_at(&self, core: CoreId) -> Cycles {
        self.cores[core.index()].busy_until
    }

    /// Total busy cycles accumulated on `core` since construction.
    pub fn busy_cycles(&self, core: CoreId) -> Cycles {
        self.cores[core.index()].busy_cycles
    }

    /// Cycles attributed to `class` on `core`.
    pub fn class_cycles(&self, core: CoreId, class: CycleClass) -> Cycles {
        self.cores[core.index()].by_class[class as usize]
    }

    /// Cycles attributed to `class`, summed over all cores.
    pub fn class_cycles_total(&self, class: CycleClass) -> Cycles {
        self.cores.iter().map(|c| c.by_class[class as usize]).sum()
    }

    /// Total busy cycles summed over all cores.
    pub fn busy_cycles_total(&self) -> Cycles {
        self.cores.iter().map(|c| c.busy_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sheet(cycles: Cycles) -> CostSheet {
        let mut s = CostSheet::new();
        s.add(CycleClass::AppWork, cycles);
        s
    }

    #[test]
    fn back_to_back_operations_queue() {
        let mut cpu = Cpu::new(2);
        let a = cpu.execute(CoreId(0), 0, &sheet(100));
        assert_eq!(a, Span { start: 0, end: 100 });
        // Scheduled at t=50 but core 0 busy until 100.
        let b = cpu.execute(CoreId(0), 50, &sheet(100));
        assert_eq!(
            b,
            Span {
                start: 100,
                end: 200
            }
        );
        // Other core is unaffected.
        let c = cpu.execute(CoreId(1), 50, &sheet(100));
        assert_eq!(
            c,
            Span {
                start: 50,
                end: 150
            }
        );
    }

    #[test]
    fn idle_gap_respected() {
        let mut cpu = Cpu::new(1);
        cpu.execute(CoreId(0), 0, &sheet(10));
        let b = cpu.execute(CoreId(0), 1_000, &sheet(10));
        assert_eq!(b.start, 1_000);
        assert_eq!(cpu.busy_cycles(CoreId(0)), 20);
    }

    #[test]
    fn class_accounting_sums() {
        let mut cpu = Cpu::new(1);
        let mut s = CostSheet::new();
        s.add(CycleClass::Vfs, 30);
        s.add(CycleClass::LockSpin, 70);
        cpu.execute(CoreId(0), 0, &s);
        cpu.execute(CoreId(0), 0, &s);
        assert_eq!(cpu.class_cycles(CoreId(0), CycleClass::Vfs), 60);
        assert_eq!(cpu.class_cycles_total(CycleClass::LockSpin), 140);
        assert_eq!(cpu.busy_cycles_total(), 200);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = Cpu::new(0);
    }

    #[test]
    fn cost_sheet_clear() {
        let mut s = sheet(10);
        s.clear();
        assert_eq!(s.total(), 0);
        assert_eq!(s.class(CycleClass::AppWork), 0);
    }

    #[test]
    fn class_names_are_unique() {
        let mut names: Vec<&str> = CycleClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CycleClass::COUNT);
    }
}
