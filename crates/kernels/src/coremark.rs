//! A CoreMark-style embedded integer benchmark suite.
//!
//! CoreMark (§III.B: "a benchmark aimed at becoming the industry standard
//! for embedded platforms") exercises exactly four things: linked-list
//! processing, matrix arithmetic, a state machine, and CRC validation of
//! all intermediate results. This module reimplements that structure:
//! each iteration runs the three workloads and folds their outputs into a
//! running CRC-16, which doubles as the correctness witness.
//!
//! The work is purely integer and branch-heavy — the profile on which the
//! paper found the ARM core *most* competitive (7.1× slower at 38× less
//! power, Table II).

use mb_cpu::ops::Exec;
use mb_simcore::rng::{Rng, Xoshiro256};

/// CRC-16/ARC step (polynomial 0x8005, reflected) — CoreMark's `crcu8`.
fn crc8(data: u8, mut crc: u16, exec: &mut impl Exec) -> u16 {
    let mut x = data;
    exec.int_ops(32);
    exec.branch_run(8, false);
    for _ in 0..8 {
        let carry = ((x as u16 ^ crc) & 1) != 0;
        crc >>= 1;
        if carry {
            crc ^= 0xA001;
        }
        x >>= 1;
    }
    crc
}

/// CRC-16 over a 16-bit value (CoreMark's `crcu16`).
fn crc16(v: u16, crc: u16, exec: &mut impl Exec) -> u16 {
    let crc = crc8((v & 0xFF) as u8, crc, exec);
    crc8((v >> 8) as u8, crc, exec)
}

/// The list workload: reverse + insertion-sort + scan of a small list.
fn list_bench(values: &mut [i32], exec: &mut impl Exec) -> u16 {
    let n = values.len();
    // Reverse (pointer chasing in the original; index reversal here).
    for i in 0..n / 2 {
        exec.load((i * 4) as u64, 4);
        exec.load(((n - 1 - i) * 4) as u64, 4);
        exec.store((i * 4) as u64, 4);
        exec.store(((n - 1 - i) * 4) as u64, 4);
        values.swap(i, n - 1 - i);
    }
    // Insertion sort (data-dependent branches, like the list merge sort).
    for i in 1..n {
        let key = values[i];
        exec.load((i * 4) as u64, 4);
        let mut j = i;
        while j > 0 && values[j - 1] > key {
            exec.load(((j - 1) * 4) as u64, 4);
            exec.store((j * 4) as u64, 4);
            exec.branch(false);
            exec.int_ops(2);
            values[j] = values[j - 1];
            j -= 1;
        }
        values[j] = key;
        exec.store((j * 4) as u64, 4);
        exec.branch(true);
    }
    // Fold into a checksum.
    let mut crc = 0u16;
    for (i, &v) in values.iter().enumerate() {
        exec.load((i * 4) as u64, 4);
        crc = crc16(v as u16, crc, exec);
    }
    crc
}

/// The matrix workload: `C = A·B`, then `C += k`, then a checksum of the
/// diagonal, on `N × N` i32 matrices (CoreMark uses similar tiny sizes).
fn matrix_bench(a: &[i32], b: &[i32], n: usize, exec: &mut impl Exec) -> u16 {
    let mut c = vec![0i32; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0i32;
            for k in 0..n {
                exec.load(((i * n + k) * 4) as u64, 4);
                exec.load(((k * n + j) * 4) as u64, 4);
                exec.int_ops(2); // mul + add
                acc = acc.wrapping_add(a[i * n + k].wrapping_mul(b[k * n + j]));
            }
            exec.store(((i * n + j) * 4) as u64, 4);
            exec.branch(true);
            c[i * n + j] = acc;
        }
    }
    let mut crc = 0u16;
    for i in 0..n {
        exec.load(((i * n + i) * 4) as u64, 4);
        exec.int_ops(1);
        crc = crc16((c[i * n + i].wrapping_add(7)) as u16, crc, exec);
    }
    crc
}

/// The state-machine workload: scan a byte string, classifying runs of
/// digits / letters / separators (CoreMark's `core_state_transition`).
fn state_bench(input: &[u8], exec: &mut impl Exec) -> u16 {
    #[derive(Clone, Copy, PartialEq)]
    enum S {
        Start,
        Digit,
        Alpha,
        Other,
    }
    let mut state = S::Start;
    let mut transitions = 0u16;
    for (i, &b) in input.iter().enumerate() {
        exec.load(i as u64, 1);
        exec.int_ops(2);
        exec.branch(false);
        let next = if b.is_ascii_digit() {
            S::Digit
        } else if b.is_ascii_alphabetic() {
            S::Alpha
        } else {
            S::Other
        };
        if next != state {
            transitions = transitions.wrapping_add(1);
        }
        state = next;
    }
    transitions
}

/// A CoreMark-style benchmark instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreMark {
    /// Number of iterations of the three-workload loop.
    pub iterations: u32,
    /// Seed for the generated inputs.
    pub seed: u64,
    /// List length per iteration.
    pub list_len: usize,
    /// Matrix order.
    pub matrix_n: usize,
    /// State-machine input length.
    pub input_len: usize,
}

impl CoreMark {
    /// The standard instance used by the Table II experiment.
    pub fn table2() -> Self {
        CoreMark {
            iterations: 20,
            seed: 0xC04E,
            list_len: 128,
            matrix_n: 12,
            input_len: 256,
        }
    }

    /// Runs the suite, returning the final CRC (the "seedcrc" CoreMark
    /// prints). Deterministic for a given configuration.
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero.
    pub fn run<E: Exec>(&self, exec: &mut E) -> u16 {
        assert!(self.iterations > 0, "need at least one iteration");
        assert!(
            self.list_len > 0 && self.matrix_n > 0 && self.input_len > 0,
            "sizes must be positive"
        );
        let mut rng = Xoshiro256::seed_from(self.seed);
        let base_list: Vec<i32> = (0..self.list_len)
            .map(|_| rng.next_u64() as i32 % 1000)
            .collect();
        let n = self.matrix_n;
        let a: Vec<i32> = (0..n * n)
            .map(|_| (rng.next_u64() % 32) as i32 - 16)
            .collect();
        let b: Vec<i32> = (0..n * n)
            .map(|_| (rng.next_u64() % 32) as i32 - 16)
            .collect();
        let input: Vec<u8> = (0..self.input_len)
            .map(|_| {
                let c = rng.gen_range(62) as u8;
                match c {
                    0..=9 => b'0' + c,
                    10..=35 => b'a' + c - 10,
                    _ => b' ',
                }
            })
            .collect();

        let mut crc = 0u16;
        for it in 0..self.iterations {
            let mut list = base_list.clone();
            // Perturb the list per iteration, as CoreMark does.
            list[it as usize % self.list_len] = it as i32;
            let c1 = list_bench(&mut list, exec);
            let c2 = matrix_bench(&a, &b, n, exec);
            let c3 = state_bench(&input, exec);
            crc = crc16(c1, crc, exec);
            crc = crc16(c2, crc, exec);
            crc = crc16(c3, crc, exec);
        }
        crc
    }

    /// Abstract "operations" per run, the unit of the paper's ops/s
    /// figure: one op = one iteration of the main loop.
    pub fn operations(&self) -> u64 {
        self.iterations as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_cpu::ops::{CountingExec, NullExec};

    #[test]
    fn deterministic_crc() {
        let cm = CoreMark::table2();
        let a = cm.run(&mut NullExec);
        let b = cm.run(&mut NullExec);
        assert_eq!(a, b);
        let other = CoreMark {
            seed: 1,
            ..CoreMark::table2()
        };
        assert_ne!(a, other.run(&mut NullExec), "seed changes the CRC");
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/ARC of "123456789" is 0xBB3D.
        let mut crc = 0u16;
        for &b in b"123456789" {
            crc = crc8(b, crc, &mut NullExec);
        }
        assert_eq!(crc, 0xBB3D);
    }

    #[test]
    fn list_bench_sorts() {
        let mut v = vec![5, 3, 9, 1, 4, 1, -2];
        let _ = list_bench(&mut v, &mut NullExec);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(v, sorted);
    }

    #[test]
    fn matrix_identity_checksum_stable() {
        // A·I = A: checksum equals diagonal checksum of A + 7.
        let n = 4;
        let a: Vec<i32> = (0..16).collect();
        let mut id = vec![0i32; 16];
        for i in 0..n {
            id[i * n + i] = 1;
        }
        let c1 = matrix_bench(&a, &id, n, &mut NullExec);
        let c2 = matrix_bench(&a, &id, n, &mut NullExec);
        assert_eq!(c1, c2);
    }

    #[test]
    fn state_machine_counts_transitions() {
        assert_eq!(state_bench(b"aaa111 bbb", &mut NullExec), 4);
        assert_eq!(state_bench(b"", &mut NullExec), 0);
        assert_eq!(state_bench(b"a", &mut NullExec), 1);
    }

    #[test]
    fn workload_is_integer_only() {
        let cm = CoreMark::table2();
        let mut count = CountingExec::new();
        let _ = cm.run(&mut count);
        assert_eq!(count.counts().total_flops(), 0, "CoreMark has no flops");
        assert!(count.counts().int_ops > 100_000);
        assert!(count.counts().unpredictable_branches > 10_000);
    }

    #[test]
    fn operations_scale_with_iterations() {
        let mut small = CoreMark::table2();
        small.iterations = 2;
        let mut c_small = CountingExec::new();
        let _ = small.run(&mut c_small);
        let mut big = CoreMark::table2();
        big.iterations = 4;
        let mut c_big = CountingExec::new();
        let _ = big.run(&mut c_big);
        let ratio = c_big.counts().int_ops as f64 / c_small.counts().int_ops as f64;
        assert!(
            (ratio - 2.0).abs() < 0.1,
            "work should scale, ratio {ratio}"
        );
        assert_eq!(big.operations(), 4);
    }

    #[test]
    #[should_panic(expected = "need at least one iteration")]
    fn zero_iterations_panics() {
        let cm = CoreMark {
            iterations: 0,
            ..CoreMark::table2()
        };
        let _ = cm.run(&mut NullExec);
    }
}
