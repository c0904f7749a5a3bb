//! The runtime invariant sanitizer — `mb-check`'s dynamic half.
//!
//! [`ValidatingExec`] sandwiches any [`Exec`] sink and asserts stream
//! invariants as operations flow through, compiled only under the
//! `validate` feature so production sweeps pay nothing:
//!
//! * **Region containment** — every load/store falls inside a declared
//!   address region (the membench array, its spill slots, …). An access
//!   outside is the simulation analogue of a wild pointer.
//! * **Batch/per-op consistency** — `flop_run`/`branch_run`/`mem_run`/
//!   `lockstep_run` totals must equal the sum of the equivalent per-op
//!   calls. The wrapper tallies both forms independently (expanding a
//!   bounded prefix of each batch op by op) and cross-checks after every
//!   batch call.
//! * **Operand sanity** — zero-byte or over-4096-byte accesses, runs
//!   whose addresses overflow, zero-lane flops and other degenerate
//!   operands are flagged at the first offending call.
//!
//! For a wrapped [`ModelExec`], [`ValidatingExec::finish`] additionally
//! validates the report: cycle components finite and non-negative,
//! counters consistent with the operation tally, and the inner sink's
//! counts bit-identical to the wrapper's shadow tally.
//!
//! The wrapper never changes what reaches the inner sink, so a
//! `validate` build produces bit-identical numbers to a normal build —
//! the acceptance gate exercised by `crates/core/tests/validate_smoke.rs`.

use crate::exec_model::{ExecReport, ModelExec};
use crate::ops::{CountingExec, Exec, Flop, FlopKind, OpCounts, Precision, Stream};

/// How many ops of each batch call are replayed one by one for the
/// batch/per-op cross-check; the remainder is added in closed form.
const EXPAND_CAP: u64 = 4096;

/// A named address region accesses are validated against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Human-readable name, surfaced in violations.
    pub name: String,
    /// First byte address of the region.
    pub base: u64,
    /// Region length in bytes.
    pub bytes: u64,
}

impl Region {
    /// Whether `[addr, addr + bytes)` lies inside the region.
    fn contains(&self, addr: u64, bytes: u64) -> bool {
        addr.checked_sub(self.base)
            .is_some_and(|offset| offset <= self.bytes && bytes <= self.bytes - offset)
    }
}

/// An [`Exec`] wrapper asserting stream invariants (see module docs).
#[derive(Debug)]
pub struct ValidatingExec<E> {
    inner: E,
    regions: Vec<Region>,
    violations: Vec<String>,
    strict: bool,
    /// Closed-form shadow tally: batch ops counted with one multiply.
    closed: CountingExec,
    /// Replay shadow tally: batch ops expanded per-op (capped, remainder
    /// closed-form). Diverges from `closed` only if batch semantics do.
    replayed: CountingExec,
}

impl<E: Exec> ValidatingExec<E> {
    /// Wraps a sink. Violations are collected; call [`Self::assert_clean`]
    /// at the end of the run (or use [`Self::strict`] to panic at the
    /// first offence).
    pub fn new(inner: E) -> Self {
        ValidatingExec {
            inner,
            regions: Vec::new(),
            violations: Vec::new(),
            strict: false,
            closed: CountingExec::new(),
            replayed: CountingExec::new(),
        }
    }

    /// Panic at the first violation instead of collecting.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Declares an address region loads and stores may touch. With no
    /// declared regions the containment check is off.
    pub fn declare_region(&mut self, name: impl Into<String>, base: u64, bytes: u64) {
        self.regions.push(Region {
            name: name.into(),
            base,
            bytes,
        });
    }

    /// The violations collected so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwraps, discarding validation state.
    pub fn into_inner(self) -> E {
        self.inner
    }

    /// The wrapper's own operation tally (closed-form shadow).
    pub fn shadow_counts(&self) -> &OpCounts {
        self.closed.counts()
    }

    /// Panics with the full violation list unless the stream was clean.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "ValidatingExec: {} violation(s):\n{}",
            self.violations.len(),
            self.violations.join("\n")
        );
    }

    fn violate(&mut self, message: String) {
        if self.strict {
            panic!("ValidatingExec: {message}");
        }
        self.violations.push(message);
    }

    /// Checks a run of `n` accesses of `bytes` at `addr`, `addr + stride`,
    /// … (a single access is a run of one): each access is `1..=4096` B,
    /// the addresses do not overflow, and one declared region holds the
    /// whole span.
    fn check_region(&mut self, what: &str, addr: u64, bytes: u32, n: u64, stride: u64) {
        if n == 0 {
            return;
        }
        if !(1..=4096).contains(&bytes) {
            self.violate(format!("{what} of {bytes} B at {addr:#x} outside 1..=4096"));
            return;
        }
        // A run is monotone, so its span is [first, last + bytes).
        let Some(end) = stride
            .checked_mul(n - 1)
            .and_then(|d| addr.checked_add(d))
            .and_then(|last| last.checked_add(bytes as u64))
        else {
            self.violate(format!(
                "{what} of {n} × {bytes} B at {addr:#x}, stride {stride}, \
                 overflows the address space"
            ));
            return;
        };
        if self.regions.is_empty() {
            return;
        }
        let span = end - addr;
        if !self.regions.iter().any(|r| r.contains(addr, span)) {
            let declared: Vec<String> = self
                .regions
                .iter()
                .map(|r| format!("{} [{:#x}, {:#x})", r.name, r.base, r.base + r.bytes))
                .collect();
            self.violate(format!(
                "{what} of {span} B at {addr:#x} outside every declared \
                 region: {}",
                declared.join(", ")
            ));
        }
    }

    /// Cross-checks the closed-form and replayed tallies after a batch
    /// call; they must agree field for field.
    fn check_batch(&mut self, what: &str) {
        if self.closed.counts() != self.replayed.counts() {
            let (c, r) = (*self.closed.counts(), *self.replayed.counts());
            self.violate(format!(
                "{what}: batch totals diverge from per-op sums \
                 (closed-form {c:?} vs replayed {r:?})"
            ));
            // Re-sync so one divergence is reported once, not forever.
            self.replayed = self.closed;
        }
    }
}

impl<E: Exec> Exec for ValidatingExec<E> {
    fn flop(&mut self, kind: FlopKind, prec: Precision, lanes: u32) {
        if lanes == 0 {
            self.violate(format!("flop({kind:?}, {prec:?}) with zero lanes"));
        }
        self.closed.flop(kind, prec, lanes);
        self.replayed.flop(kind, prec, lanes);
        self.inner.flop(kind, prec, lanes);
    }

    fn int_ops(&mut self, n: u64) {
        self.closed.int_ops(n);
        self.replayed.int_ops(n);
        self.inner.int_ops(n);
    }

    fn load(&mut self, addr: u64, bytes: u32) {
        self.check_region("load", addr, bytes, 1, 0);
        self.closed.load(addr, bytes);
        self.replayed.load(addr, bytes);
        self.inner.load(addr, bytes);
    }

    fn store(&mut self, addr: u64, bytes: u32) {
        self.check_region("store", addr, bytes, 1, 0);
        self.closed.store(addr, bytes);
        self.replayed.store(addr, bytes);
        self.inner.store(addr, bytes);
    }

    fn branch(&mut self, predictable: bool) {
        self.closed.branch(predictable);
        self.replayed.branch(predictable);
        self.inner.branch(predictable);
    }

    fn flop_run(&mut self, kind: FlopKind, prec: Precision, lanes: u32, n: u64) {
        if lanes == 0 && n > 0 {
            self.violate(format!("flop_run({kind:?}, {prec:?}) with zero lanes"));
        }
        self.closed.flop_run(kind, prec, lanes, n);
        let replay = n.min(EXPAND_CAP);
        for _ in 0..replay {
            self.replayed.flop(kind, prec, lanes);
        }
        if n > replay {
            self.replayed.flop_run(kind, prec, lanes, n - replay);
        }
        self.check_batch("flop_run");
        self.inner.flop_run(kind, prec, lanes, n);
    }

    fn branch_run(&mut self, n: u64, predictable: bool) {
        self.closed.branch_run(n, predictable);
        let replay = n.min(EXPAND_CAP);
        for _ in 0..replay {
            self.replayed.branch(predictable);
        }
        if n > replay {
            self.replayed.branch_run(n - replay, predictable);
        }
        self.check_batch("branch_run");
        self.inner.branch_run(n, predictable);
    }

    fn mem_run(&mut self, base: u64, stride: u64, n: u64, bytes: u32, is_store: bool) {
        let what = if is_store { "store run" } else { "load run" };
        self.check_region(what, base, bytes, n, stride);
        self.closed.mem_run(base, stride, n, bytes, is_store);
        let replay = n.min(EXPAND_CAP);
        let mut addr = base;
        for _ in 0..replay {
            if is_store {
                self.replayed.store(addr, bytes);
            } else {
                self.replayed.load(addr, bytes);
            }
            addr = addr.wrapping_add(stride);
        }
        if n > replay {
            self.replayed
                .mem_run(addr, stride, n - replay, bytes, is_store);
        }
        self.check_batch("mem_run");
        self.inner.mem_run(base, stride, n, bytes, is_store);
    }

    fn lockstep_run(&mut self, streams: &[Stream], flops: &[Flop], n: u64) {
        // Each stream is a run of its own, so this checks every access.
        for s in streams {
            let what = if s.is_store {
                "lockstep store stream"
            } else {
                "lockstep load stream"
            };
            self.check_region(what, s.base, s.bytes, n, s.stride);
        }
        self.closed.lockstep_run(streams, flops, n);
        let replay = n.min(EXPAND_CAP);
        for i in 0..replay {
            for s in streams {
                if s.is_store {
                    self.replayed.store(s.addr(i), s.bytes);
                } else {
                    self.replayed.load(s.addr(i), s.bytes);
                }
            }
            for f in flops {
                self.replayed.flop(f.kind, f.prec, f.lanes);
            }
        }
        if n > replay {
            // Counts do not depend on the addresses.
            self.replayed.lockstep_run(streams, flops, n - replay);
        }
        self.check_batch("lockstep_run");
        self.inner.lockstep_run(streams, flops, n);
    }
}

impl ValidatingExec<ModelExec> {
    /// Delegates to [`ModelExec::finish`] and validates the report:
    /// every cycle component finite and non-negative, totals covering
    /// the components, and the inner tally bit-identical to the shadow
    /// tally (any divergence means the model dropped or double-counted
    /// an operation).
    pub fn finish(&mut self) -> ExecReport {
        let report = self.inner.finish();
        for (name, value) in [
            ("compute_cycles", report.compute_cycles),
            ("memory_cycles", report.memory_cycles),
            ("branch_cycles", report.branch_cycles),
        ] {
            if !value.is_finite() || value < 0.0 {
                self.violate(format!("report {name} = {value} (negative or non-finite)"));
            }
        }
        if report.time.as_secs_f64() < 0.0 || !report.time.as_secs_f64().is_finite() {
            self.violate(format!(
                "report time = {} (negative or non-finite)",
                report.time
            ));
        }
        if report.counts != *self.closed.counts() {
            self.violate(format!(
                "inner counts diverge from the shadow tally \
                 (inner {:?} vs shadow {:?})",
                report.counts,
                self.closed.counts()
            ));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::NullExec;

    #[test]
    fn clean_stream_has_no_violations() {
        let mut v = ValidatingExec::new(CountingExec::new());
        v.declare_region("array", 0x1000, 4096);
        v.flop(FlopKind::Fma, Precision::F64, 2);
        v.flop_run(FlopKind::Add, Precision::F32, 4, 10_000);
        v.load(0x1000, 8);
        v.store(0x1ff8, 8);
        v.branch_run(5_000, true);
        v.assert_clean();
        assert_eq!(v.inner().counts(), v.shadow_counts());
    }

    #[test]
    fn out_of_region_access_is_flagged() {
        let mut v = ValidatingExec::new(NullExec);
        v.declare_region("array", 0x1000, 4096);
        v.load(0xfff, 8); // below
        v.store(0x1ffc, 8); // straddles the end
        v.load(0x1800, 8); // fine
        assert_eq!(v.violations().len(), 2, "{:?}", v.violations());
        assert!(v.violations()[0].contains("outside every declared region"));
    }

    #[test]
    fn no_regions_means_no_containment_check() {
        let mut v = ValidatingExec::new(NullExec);
        v.load(0xDEAD_BEEF, 8);
        v.assert_clean();
    }

    #[test]
    fn zero_byte_access_is_flagged() {
        let mut v = ValidatingExec::new(NullExec);
        v.load(0x1000, 0);
        assert_eq!(v.violations().len(), 1);
        assert!(v.violations()[0].contains("load of 0 B at 0x1000 outside 1..=4096"));
    }

    #[test]
    fn zero_lane_flop_is_flagged() {
        let mut v = ValidatingExec::new(NullExec);
        v.flop(FlopKind::Add, Precision::F64, 0);
        v.flop_run(FlopKind::Add, Precision::F64, 0, 10);
        assert_eq!(v.violations().len(), 2);
    }

    #[test]
    #[should_panic(expected = "ValidatingExec")]
    fn strict_mode_panics_immediately() {
        let mut v = ValidatingExec::new(NullExec).strict();
        v.declare_region("array", 0, 16);
        v.load(1 << 20, 8);
    }

    /// A sink whose batch methods are subtly wrong: `flop_run` drops one
    /// op. The wrapper's own tallies still agree (it validates the batch
    /// *semantics*, not the inner sink), but a wrapped ModelExec-style
    /// count comparison at finish() would catch the inner drift — here
    /// we check the wrapper forwards batches verbatim.
    #[test]
    fn batch_calls_forward_verbatim() {
        let mut v = ValidatingExec::new(CountingExec::new());
        v.flop_run(FlopKind::Mul, Precision::F64, 1, EXPAND_CAP + 123);
        v.branch_run(EXPAND_CAP + 7, false);
        v.assert_clean();
        let c = v.inner().counts();
        assert_eq!(c.flops_f64, EXPAND_CAP + 123);
        assert_eq!(c.branches, EXPAND_CAP + 7);
        assert_eq!(c.unpredictable_branches, EXPAND_CAP + 7);
        assert_eq!(v.inner().counts(), v.shadow_counts());
    }

    #[test]
    fn mem_run_checks_the_whole_span() {
        let mut v = ValidatingExec::new(CountingExec::new());
        v.declare_region("array", 0x1000, 4096);
        v.mem_run(0x1000, 8, 512, 8, false); // exactly the region
        v.assert_clean();
        v.mem_run(0x1000, 8, 513, 8, true); // one element past the end
        v.mem_run(0xff8, 8, 2, 8, false); // starts below
        assert_eq!(v.violations().len(), 2, "{:?}", v.violations());
        assert!(v.violations()[0]
            .contains("store run of 4104 B at 0x1000 outside every declared region"));
        // An empty run touches nothing.
        v.mem_run(0, 8, 0, 8, false);
        assert_eq!(v.violations().len(), 2);
    }

    #[test]
    fn lockstep_run_checks_every_stream_over_the_whole_run() {
        let mut v = ValidatingExec::new(CountingExec::new());
        v.declare_region("array", 0x1000, 4096);
        let fma = [Flop::new(FlopKind::Fma, Precision::F64, 2)];
        let row = [Stream::load(0x1000, 16, 16), Stream::store(0x1800, 16, 16)];
        v.lockstep_run(&row, &fma, 128); // both streams end at a region edge
        v.lockstep_run(&[Stream::store(0x1ff8, 0, 8)], &[], 1000); // a spill slot
        v.assert_clean();
        v.lockstep_run(&row, &fma, 129); // the store stream runs one past
        v.lockstep_run(&[Stream::load(0x1000, 8, 0)], &[], 3);
        v.lockstep_run(&[Stream::load(0xff8, 8, 8)], &[], 0); // empty: fine
        assert_eq!(v.violations().len(), 2, "{:?}", v.violations());
        assert!(v.violations()[0]
            .contains("lockstep store stream of 2064 B at 0x1800 outside every declared region"));
        assert!(v.violations()[1].contains("lockstep load stream of 0 B at 0x1000"));
    }

    #[test]
    fn lockstep_run_forwards_verbatim_and_cross_checks() {
        let fma = [Flop::new(FlopKind::Fma, Precision::F64, 2)];
        let row = [
            Stream::load(0, 16, 16),
            Stream::load(0x800, 16, 16),
            Stream::store(0x800, 16, 16),
        ];
        let mut v = ValidatingExec::new(ModelExec::snowball());
        v.declare_region("matrix", 0, 1 << 20);
        v.lockstep_run(&row, &fma, EXPAND_CAP + 77);
        let report = v.finish();
        v.assert_clean();
        let mut bare = ModelExec::snowball();
        bare.lockstep_run(&row, &fma, EXPAND_CAP + 77);
        assert_eq!(report, bare.finish());
        assert_eq!(report.counts.loads, 2 * (EXPAND_CAP + 77));
        assert_eq!(report.counts, *v.shadow_counts());
    }

    #[test]
    fn degenerate_mem_runs_are_flagged() {
        let mut v = ValidatingExec::new(NullExec);
        v.mem_run(0x1000, 8, 4, 0, false);
        v.mem_run(0x1000, 8, 4, 4097, true);
        v.load(0x1000, 8192);
        v.mem_run(u64::MAX - 64, 8, 16, 8, false);
        v.mem_run(0, u64::MAX, 3, 8, false);
        assert_eq!(v.violations().len(), 5, "{:?}", v.violations());
        assert!(v.violations()[0].contains("load run of 0 B at 0x1000 outside 1..=4096"));
        assert!(v.violations()[3].contains("overflows the address space"));
    }

    #[test]
    fn mem_run_forwards_verbatim_and_cross_checks() {
        let mut v = ValidatingExec::new(ModelExec::snowball());
        v.declare_region("buffer", 0, 1 << 20);
        v.mem_run(0, 4, EXPAND_CAP + 321, 4, false);
        v.mem_run(64, 16, 10, 16, true);
        let report = v.finish();
        v.assert_clean();
        let mut bare = ModelExec::snowball();
        bare.mem_run(0, 4, EXPAND_CAP + 321, 4, false);
        bare.mem_run(64, 16, 10, 16, true);
        assert_eq!(report, bare.finish());
        assert_eq!(report.counts.loads, EXPAND_CAP + 321);
        assert_eq!(report.counts.store_bytes, 160);
    }

    #[test]
    fn model_exec_report_validates_clean() {
        let mut v = ValidatingExec::new(ModelExec::snowball());
        v.declare_region("buffer", 0, 1 << 20);
        for i in 0..10_000u64 {
            v.load((i * 8) % (1 << 20), 8);
            v.flop(FlopKind::Fma, Precision::F64, 1);
            v.branch(true);
        }
        v.flop_run(FlopKind::Add, Precision::F32, 2, 50_000);
        let report = v.finish();
        v.assert_clean();
        assert!(report.cycles.get() > 0);
        assert_eq!(report.counts, *v.shadow_counts());
    }
}
