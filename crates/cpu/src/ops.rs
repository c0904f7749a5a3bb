//! The architecture-neutral operation vocabulary and the `Exec` sink.
//!
//! Kernels in `mb-kernels` are ordinary Rust functions generic over an
//! [`Exec`] parameter. They compute their real numerical result *and*
//! report every abstract operation to the sink. The sink decides what the
//! report costs:
//!
//! * [`NullExec`] — nothing (native-speed runs);
//! * [`CountingExec`] — tallies [`OpCounts`] (workload characterisation);
//! * [`crate::exec_model::ModelExec`] — charges cycles on a machine model.

/// Floating-point operation kinds, costed separately because their
/// throughputs differ by an order of magnitude on both target cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlopKind {
    /// Addition or subtraction.
    Add,
    /// Multiplication.
    Mul,
    /// Fused (or chained) multiply-add — counts as **two** flops, per
    /// LINPACK convention.
    Fma,
    /// Division.
    Div,
    /// Square root.
    Sqrt,
    /// Comparison / min / max / abs.
    Cmp,
}

impl FlopKind {
    /// How many flops this operation contributes to FLOPS accounting
    /// (per lane).
    pub fn flops(self) -> u64 {
        match self {
            FlopKind::Fma => 2,
            _ => 1,
        }
    }
}

/// Floating-point precision. The distinction drives the paper's key
/// asymmetry: the Cortex-A9's NEON unit is **single precision only**
/// (Section II.B), so double-precision work cannot be vectorised on ARM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit IEEE-754.
    F32,
    /// 64-bit IEEE-754.
    F64,
}

impl Precision {
    /// Element width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }
}

/// The sink kernels report their operations to.
///
/// `lanes` on [`Exec::flop`] expresses *intended* SIMD width: a kernel
/// that processes 4 elements per iteration reports `lanes = 4` once
/// rather than 4 scalar flops. Whether the hardware can actually execute
/// them in parallel is the model's decision, not the kernel's.
pub trait Exec {
    /// Reports `lanes` parallel floating-point operations of `kind`.
    fn flop(&mut self, kind: FlopKind, prec: Precision, lanes: u32);

    /// Reports `n` simple integer/logic operations.
    fn int_ops(&mut self, n: u64);

    /// Reports a load of `bytes` at (virtual) address `addr`.
    fn load(&mut self, addr: u64, bytes: u32);

    /// Reports a store of `bytes` at (virtual) address `addr`.
    fn store(&mut self, addr: u64, bytes: u32);

    /// Reports a conditional branch; `predictable` distinguishes
    /// loop-style branches from data-dependent ones.
    fn branch(&mut self, predictable: bool);

    /// Reports `n` identical flop instructions in one call — equivalent
    /// to calling [`Exec::flop`] `n` times. Sinks whose accounting is
    /// closed-form override this in O(1); kernels should prefer it for
    /// loops that exist only to report uniform arithmetic.
    fn flop_run(&mut self, kind: FlopKind, prec: Precision, lanes: u32, n: u64) {
        for _ in 0..n {
            self.flop(kind, prec, lanes);
        }
    }

    /// Reports `n` branches of equal predictability in one call —
    /// equivalent to calling [`Exec::branch`] `n` times.
    fn branch_run(&mut self, n: u64, predictable: bool) {
        for _ in 0..n {
            self.branch(predictable);
        }
    }

    /// Reports `n` accesses of `bytes` at `base`, `base + stride`,
    /// `base + 2·stride`, … (wrapping) in one call — equivalent to
    /// calling [`Exec::store`] (if `is_store`) or [`Exec::load`] on each
    /// address in turn. Sinks with a cheaper batched form override it;
    /// kernels should prefer it for constant-stride sweeps whose
    /// accesses share cache lines.
    fn mem_run(&mut self, base: u64, stride: u64, n: u64, bytes: u32, is_store: bool) {
        let mut addr = base;
        for _ in 0..n {
            if is_store {
                self.store(addr, bytes);
            } else {
                self.load(addr, bytes);
            }
            addr = addr.wrapping_add(stride);
        }
    }

    /// Reports `n` iterations of a loop body whose `streams` advance in
    /// lockstep — equivalent to calling, for each iteration `i` in turn,
    /// [`Exec::load`] or [`Exec::store`] at every stream's
    /// [`Stream::addr`]`(i)` in slice order and then [`Exec::flop`] for
    /// every entry of `flops` in slice order. Sinks with a cheaper form
    /// override it; kernels should prefer it for loops whose streams
    /// stay on one cache line for several iterations.
    fn lockstep_run(&mut self, streams: &[Stream], flops: &[Flop], n: u64) {
        for i in 0..n {
            for s in streams {
                if s.is_store {
                    self.store(s.addr(i), s.bytes);
                } else {
                    self.load(s.addr(i), s.bytes);
                }
            }
            for f in flops {
                self.flop(f.kind, f.prec, f.lanes);
            }
        }
    }
}

/// One memory stream of a [`Exec::lockstep_run`] loop body: iteration
/// `i` accesses `bytes` at `base + i·stride` (wrapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream {
    /// Address of the first iteration's access.
    pub base: u64,
    /// Bytes between consecutive iterations' accesses (0 for a fixed
    /// address such as a spill slot).
    pub stride: u64,
    /// Access width in bytes.
    pub bytes: u32,
    /// Whether the access is a store (else a load).
    pub is_store: bool,
}

impl Stream {
    /// A stream of loads.
    pub const fn load(base: u64, stride: u64, bytes: u32) -> Self {
        Stream {
            base,
            stride,
            bytes,
            is_store: false,
        }
    }

    /// A stream of stores.
    pub const fn store(base: u64, stride: u64, bytes: u32) -> Self {
        Stream {
            base,
            stride,
            bytes,
            is_store: true,
        }
    }

    /// The address iteration `i` accesses.
    #[inline]
    pub fn addr(&self, i: u64) -> u64 {
        self.base.wrapping_add(i.wrapping_mul(self.stride))
    }
}

/// One flop instruction of a [`Exec::lockstep_run`] loop body — the
/// arguments of one [`Exec::flop`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flop {
    /// Operation kind.
    pub kind: FlopKind,
    /// Precision.
    pub prec: Precision,
    /// SIMD lanes.
    pub lanes: u32,
}

impl Flop {
    /// A flop instruction of `lanes` lanes.
    pub const fn new(kind: FlopKind, prec: Precision, lanes: u32) -> Self {
        Flop { kind, prec, lanes }
    }
}

/// A sink that ignores everything — kernels run at native speed.
///
/// # Examples
///
/// ```
/// use mb_cpu::ops::{Exec, FlopKind, NullExec, Precision};
/// let mut e = NullExec;
/// e.flop(FlopKind::Add, Precision::F64, 4);
/// e.int_ops(10);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullExec;

impl Exec for NullExec {
    #[inline(always)]
    fn flop(&mut self, _kind: FlopKind, _prec: Precision, _lanes: u32) {}
    #[inline(always)]
    fn int_ops(&mut self, _n: u64) {}
    #[inline(always)]
    fn load(&mut self, _addr: u64, _bytes: u32) {}
    #[inline(always)]
    fn store(&mut self, _addr: u64, _bytes: u32) {}
    #[inline(always)]
    fn branch(&mut self, _predictable: bool) {}
    #[inline(always)]
    fn flop_run(&mut self, _kind: FlopKind, _prec: Precision, _lanes: u32, _n: u64) {}
    #[inline(always)]
    fn branch_run(&mut self, _n: u64, _predictable: bool) {}
    #[inline(always)]
    fn mem_run(&mut self, _base: u64, _stride: u64, _n: u64, _bytes: u32, _is_store: bool) {}
    #[inline(always)]
    fn lockstep_run(&mut self, _streams: &[Stream], _flops: &[Flop], _n: u64) {}
}

/// Aggregated operation counts — a workload characterisation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Scalar-equivalent flops (lanes × per-op flops), double precision.
    pub flops_f64: u64,
    /// Scalar-equivalent flops, single precision.
    pub flops_f32: u64,
    /// Flop *instructions* (one per `flop` call), i.e. not lane-scaled.
    pub flop_instructions: u64,
    /// Division + square-root flops (long-latency subset, lane-scaled).
    pub long_latency_flops: u64,
    /// Integer/logic operations.
    pub int_ops: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Bytes loaded.
    pub load_bytes: u64,
    /// Bytes stored.
    pub store_bytes: u64,
    /// Branches.
    pub branches: u64,
    /// Branches flagged unpredictable.
    pub unpredictable_branches: u64,
}

impl OpCounts {
    /// Total scalar-equivalent flops, both precisions.
    pub fn total_flops(&self) -> u64 {
        self.flops_f64 + self.flops_f32
    }

    /// Total memory accesses.
    pub fn memory_accesses(&self) -> u64 {
        self.loads + self.stores
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.load_bytes + self.store_bytes
    }

    /// Arithmetic intensity: flops per byte moved (0 when no bytes).
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.total_bytes();
        if b == 0 {
            0.0
        } else {
            self.total_flops() as f64 / b as f64
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &OpCounts) {
        self.flops_f64 += other.flops_f64;
        self.flops_f32 += other.flops_f32;
        self.flop_instructions += other.flop_instructions;
        self.long_latency_flops += other.long_latency_flops;
        self.int_ops += other.int_ops;
        self.loads += other.loads;
        self.stores += other.stores;
        self.load_bytes += other.load_bytes;
        self.store_bytes += other.store_bytes;
        self.branches += other.branches;
        self.unpredictable_branches += other.unpredictable_branches;
    }

    /// Tallies `n` flop instructions of `kind` over `lanes` lanes.
    #[inline]
    pub(crate) fn add_flops(&mut self, kind: FlopKind, prec: Precision, lanes: u32, n: u64) {
        let flops = kind.flops() * lanes as u64 * n;
        match prec {
            Precision::F64 => self.flops_f64 += flops,
            Precision::F32 => self.flops_f32 += flops,
        }
        self.flop_instructions += n;
        if matches!(kind, FlopKind::Div | FlopKind::Sqrt) {
            self.long_latency_flops += lanes as u64 * n;
        }
    }

    /// Tallies `n` loads (or stores) of `bytes` each.
    pub(crate) fn add_mem(&mut self, n: u64, bytes: u32, is_store: bool) {
        if is_store {
            self.stores += n;
            self.store_bytes += n * bytes as u64;
        } else {
            self.loads += n;
            self.load_bytes += n * bytes as u64;
        }
    }
}

/// A sink that tallies [`OpCounts`] without costing anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingExec {
    counts: OpCounts,
}

impl CountingExec {
    /// Creates a zeroed counter sink.
    pub fn new() -> Self {
        CountingExec::default()
    }

    /// The tallied counts.
    pub fn counts(&self) -> &OpCounts {
        &self.counts
    }
}

impl Exec for CountingExec {
    fn flop(&mut self, kind: FlopKind, prec: Precision, lanes: u32) {
        self.counts.add_flops(kind, prec, lanes, 1);
    }

    fn int_ops(&mut self, n: u64) {
        self.counts.int_ops += n;
    }

    fn load(&mut self, _addr: u64, bytes: u32) {
        self.counts.add_mem(1, bytes, false);
    }

    fn store(&mut self, _addr: u64, bytes: u32) {
        self.counts.add_mem(1, bytes, true);
    }

    fn branch(&mut self, predictable: bool) {
        self.counts.branches += 1;
        if !predictable {
            self.counts.unpredictable_branches += 1;
        }
    }

    fn flop_run(&mut self, kind: FlopKind, prec: Precision, lanes: u32, n: u64) {
        self.counts.add_flops(kind, prec, lanes, n);
    }

    fn branch_run(&mut self, n: u64, predictable: bool) {
        self.counts.branches += n;
        if !predictable {
            self.counts.unpredictable_branches += n;
        }
    }

    fn mem_run(&mut self, _base: u64, _stride: u64, n: u64, bytes: u32, is_store: bool) {
        self.counts.add_mem(n, bytes, is_store);
    }

    fn lockstep_run(&mut self, streams: &[Stream], flops: &[Flop], n: u64) {
        for s in streams {
            self.counts.add_mem(n, s.bytes, s.is_store);
        }
        for f in flops {
            self.flop_run(f.kind, f.prec, f.lanes, n);
        }
    }
}

/// Forwards every report to two sinks — e.g. counting *and* modelling in
/// one pass.
#[derive(Debug)]
pub struct TeeExec<'a, A, B> {
    /// First sink.
    pub a: &'a mut A,
    /// Second sink.
    pub b: &'a mut B,
}

impl<'a, A: Exec, B: Exec> TeeExec<'a, A, B> {
    /// Creates a tee over two sinks.
    pub fn new(a: &'a mut A, b: &'a mut B) -> Self {
        TeeExec { a, b }
    }
}

impl<A: Exec, B: Exec> Exec for TeeExec<'_, A, B> {
    fn flop(&mut self, kind: FlopKind, prec: Precision, lanes: u32) {
        self.a.flop(kind, prec, lanes);
        self.b.flop(kind, prec, lanes);
    }
    fn int_ops(&mut self, n: u64) {
        self.a.int_ops(n);
        self.b.int_ops(n);
    }
    fn load(&mut self, addr: u64, bytes: u32) {
        self.a.load(addr, bytes);
        self.b.load(addr, bytes);
    }
    fn store(&mut self, addr: u64, bytes: u32) {
        self.a.store(addr, bytes);
        self.b.store(addr, bytes);
    }
    fn branch(&mut self, predictable: bool) {
        self.a.branch(predictable);
        self.b.branch(predictable);
    }
    fn flop_run(&mut self, kind: FlopKind, prec: Precision, lanes: u32, n: u64) {
        self.a.flop_run(kind, prec, lanes, n);
        self.b.flop_run(kind, prec, lanes, n);
    }
    fn branch_run(&mut self, n: u64, predictable: bool) {
        self.a.branch_run(n, predictable);
        self.b.branch_run(n, predictable);
    }
    fn mem_run(&mut self, base: u64, stride: u64, n: u64, bytes: u32, is_store: bool) {
        self.a.mem_run(base, stride, n, bytes, is_store);
        self.b.mem_run(base, stride, n, bytes, is_store);
    }
    fn lockstep_run(&mut self, streams: &[Stream], flops: &[Flop], n: u64) {
        self.a.lockstep_run(streams, flops, n);
        self.b.lockstep_run(streams, flops, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_kind_flop_counts() {
        assert_eq!(FlopKind::Add.flops(), 1);
        assert_eq!(FlopKind::Fma.flops(), 2);
        assert_eq!(FlopKind::Div.flops(), 1);
    }

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::F32.bytes(), 4);
        assert_eq!(Precision::F64.bytes(), 8);
    }

    #[test]
    fn counting_exec_tallies() {
        let mut e = CountingExec::new();
        e.flop(FlopKind::Fma, Precision::F64, 2); // 4 f64 flops
        e.flop(FlopKind::Add, Precision::F32, 4); // 4 f32 flops
        e.flop(FlopKind::Div, Precision::F64, 1); // long latency
        e.int_ops(7);
        e.load(0x100, 8);
        e.load(0x108, 8);
        e.store(0x200, 4);
        e.branch(true);
        e.branch(false);
        let c = e.counts();
        assert_eq!(c.flops_f64, 5);
        assert_eq!(c.flops_f32, 4);
        assert_eq!(c.total_flops(), 9);
        assert_eq!(c.flop_instructions, 3);
        assert_eq!(c.long_latency_flops, 1);
        assert_eq!(c.int_ops, 7);
        assert_eq!(c.loads, 2);
        assert_eq!(c.stores, 1);
        assert_eq!(c.load_bytes, 16);
        assert_eq!(c.store_bytes, 4);
        assert_eq!(c.memory_accesses(), 3);
        assert_eq!(c.total_bytes(), 20);
        assert_eq!(c.branches, 2);
        assert_eq!(c.unpredictable_branches, 1);
    }

    #[test]
    fn arithmetic_intensity() {
        let mut e = CountingExec::new();
        e.flop(FlopKind::Add, Precision::F64, 1);
        e.load(0, 8);
        assert!((e.counts().arithmetic_intensity() - 0.125).abs() < 1e-12);
        let empty = OpCounts::default();
        assert_eq!(empty.arithmetic_intensity(), 0.0);
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = CountingExec::new();
        a.flop(FlopKind::Add, Precision::F64, 1);
        a.load(0, 8);
        let mut b = CountingExec::new();
        b.flop(FlopKind::Mul, Precision::F64, 1);
        b.store(0, 8);
        let mut total = *a.counts();
        total.merge(b.counts());
        assert_eq!(total.total_flops(), 2);
        assert_eq!(total.loads, 1);
        assert_eq!(total.stores, 1);
    }

    #[test]
    fn tee_feeds_both() {
        let mut a = CountingExec::new();
        let mut b = CountingExec::new();
        {
            let mut tee = TeeExec::new(&mut a, &mut b);
            tee.flop(FlopKind::Add, Precision::F64, 1);
            tee.branch(true);
        }
        assert_eq!(a.counts().flops_f64, 1);
        assert_eq!(b.counts().flops_f64, 1);
        assert_eq!(a.counts().branches, 1);
    }

    #[test]
    fn counting_mem_run_equals_per_access_calls() {
        let mut batched = CountingExec::new();
        batched.mem_run(0x100, 12, 1000, 8, false);
        batched.mem_run(0x100, 0, 7, 16, true);
        let mut single = CountingExec::new();
        for i in 0..1000 {
            single.load(0x100 + i * 12, 8);
        }
        for _ in 0..7 {
            single.store(0x100, 16);
        }
        assert_eq!(batched, single);
    }

    #[test]
    fn tee_forwards_mem_run_to_both() {
        let mut a = CountingExec::new();
        let mut b = CountingExec::new();
        TeeExec::new(&mut a, &mut b).mem_run(0, 4, 100, 4, true);
        assert_eq!(a.counts().stores, 100);
        assert_eq!(b.counts().store_bytes, 400);
    }

    /// Forwards every report to a `CountingExec` but keeps the trait's
    /// default `lockstep_run`.
    struct PerOp(CountingExec);

    impl Exec for PerOp {
        fn flop(&mut self, kind: FlopKind, prec: Precision, lanes: u32) {
            self.0.flop(kind, prec, lanes);
        }
        fn int_ops(&mut self, n: u64) {
            self.0.int_ops(n);
        }
        fn load(&mut self, addr: u64, bytes: u32) {
            self.0.load(addr, bytes);
        }
        fn store(&mut self, addr: u64, bytes: u32) {
            self.0.store(addr, bytes);
        }
        fn branch(&mut self, predictable: bool) {
            self.0.branch(predictable);
        }
    }

    const ROW: [Stream; 3] = [
        Stream::load(0x100, 16, 16),
        Stream::load(0x900, 16, 16),
        Stream::store(0x900, 16, 16),
    ];
    const BODY_FLOPS: [Flop; 2] = [
        Flop::new(FlopKind::Fma, Precision::F64, 2),
        Flop::new(FlopKind::Div, Precision::F32, 4),
    ];

    #[test]
    fn counting_lockstep_run_equals_the_per_access_expansion() {
        let mut closed = CountingExec::new();
        let mut expanded = PerOp(CountingExec::new());
        for (streams, flops, n) in [
            (&ROW[..], &BODY_FLOPS[..], 1000),
            (&ROW[1..], &[][..], 7),
            (&[][..], &BODY_FLOPS[..1], 5),
            (&ROW[..], &BODY_FLOPS[..], 0),
        ] {
            closed.lockstep_run(streams, flops, n);
            expanded.lockstep_run(streams, flops, n);
            assert_eq!(closed, expanded.0);
        }
        assert_eq!(closed.counts().loads, 2000 + 7);
        assert_eq!(closed.counts().long_latency_flops, 4 * 1000);
    }

    #[test]
    fn default_lockstep_run_reports_each_body_in_order() {
        // Each body's accesses in stream order, then its flops.
        #[derive(Default)]
        struct Log(Vec<(char, u64)>);
        impl Exec for Log {
            fn flop(&mut self, _: FlopKind, _: Precision, lanes: u32) {
                self.0.push(('f', lanes as u64));
            }
            fn int_ops(&mut self, _: u64) {}
            fn load(&mut self, addr: u64, _: u32) {
                self.0.push(('l', addr));
            }
            fn store(&mut self, addr: u64, _: u32) {
                self.0.push(('s', addr));
            }
            fn branch(&mut self, _: bool) {}
        }
        let mut log = Log::default();
        log.lockstep_run(&ROW, &BODY_FLOPS[..1], 2);
        assert_eq!(
            log.0,
            [
                ('l', 0x100),
                ('l', 0x900),
                ('s', 0x900),
                ('f', 2),
                ('l', 0x110),
                ('l', 0x910),
                ('s', 0x910),
                ('f', 2)
            ]
        );
    }

    #[test]
    fn tee_forwards_lockstep_run_to_both() {
        let (mut a, mut b) = (CountingExec::new(), CountingExec::new());
        TeeExec::new(&mut a, &mut b).lockstep_run(&ROW, &BODY_FLOPS, 10);
        let mut expanded = PerOp(CountingExec::new());
        expanded.lockstep_run(&ROW, &BODY_FLOPS, 10);
        assert_eq!(a, expanded.0);
        assert_eq!(b, expanded.0);
    }

    #[test]
    fn null_exec_is_inert() {
        let mut e = NullExec;
        e.flop(FlopKind::Sqrt, Precision::F32, 16);
        e.load(0, 4);
        e.mem_run(0, 4, 1 << 40, 4, false);
        e.lockstep_run(&ROW, &BODY_FLOPS, 1 << 40);
        // Nothing to assert beyond "it compiles and runs" (at once).
    }
}
