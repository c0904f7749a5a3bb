//! The batched reports of StockFish, SPECFEM3D and BigDFT against
//! per-access reference loops.
//!
//! The kernels report their hot loops with `mem_run` and `lockstep_run`.
//! `Log` keeps the trait's default expansions of both, so it sees the
//! batched forms access by access. Each test replays the loop as it was
//! reported before batching, one `load`, `store`, `flop` or `int_ops`
//! call at a time, and requires the same memory-access sequence and the
//! same `OpCounts`. The relative order of flops and accesses is free:
//! sinks tally flops apart from their memory state.

use mb_cpu::ops::{CountingExec, Exec, FlopKind, OpCounts, Precision};
use mb_kernels::chess::{self, Board, Move, Searcher};
use mb_kernels::magicfilter::{magicfilter_pass, MAGIC_FILTER};
use mb_kernels::specfem::{Specfem, SpecfemConfig, DEGREE, NGLL};

/// One memory access: `(is_store, addr, bytes)`.
type Access = (bool, u64, u32);

/// An expanding sink: every access in order, plus the op counts.
#[derive(Default)]
struct Log {
    accesses: Vec<Access>,
    counts: CountingExec,
}

impl Log {
    fn counts(&self) -> OpCounts {
        *self.counts.counts()
    }
}

impl Exec for Log {
    fn flop(&mut self, kind: FlopKind, prec: Precision, lanes: u32) {
        self.counts.flop(kind, prec, lanes);
    }
    fn int_ops(&mut self, n: u64) {
        self.counts.int_ops(n);
    }
    fn load(&mut self, addr: u64, bytes: u32) {
        self.accesses.push((false, addr, bytes));
        self.counts.load(addr, bytes);
    }
    fn store(&mut self, addr: u64, bytes: u32) {
        self.accesses.push((true, addr, bytes));
        self.counts.store(addr, bytes);
    }
    fn branch(&mut self, predictable: bool) {
        self.counts.branch(predictable);
    }
}

/// Asserts two logs saw the same accesses and counts.
fn assert_same(batched: &Log, reference: &Log, what: &str) {
    assert_eq!(
        batched.accesses.len(),
        reference.accesses.len(),
        "{what}: access count"
    );
    assert!(
        batched.accesses == reference.accesses,
        "{what}: access sequence"
    );
    assert_eq!(batched.counts(), reference.counts(), "{what}: op counts");
}

/// The initial position and the bench's middlegame position.
fn positions() -> [Board; 2] {
    let mut middlegame = Board::initial();
    for (from, to) in [(12u8, 28u8), (52, 36), (6, 21), (57, 42)] {
        middlegame = middlegame.apply(Move {
            from,
            to,
            promotion: None,
        });
    }
    [Board::initial(), middlegame]
}

/// `Board::evaluate` as one `load` and one `int_ops` per square.
fn reference_evaluate(board: &Board, exec: &mut Log) -> i32 {
    let mut score = 0;
    for sq in 0..64u8 {
        exec.load(sq as u64, 2);
        exec.int_ops(1);
        if let Some(p) = board.at(sq) {
            let v = p.kind.value();
            score += if p.color == board.side { v } else { -v };
        }
    }
    let my_moves = board.pseudo_legal_moves().len() as i32;
    exec.int_ops(my_moves as u64);
    score + 2 * my_moves
}

/// `Searcher::search` with a `load` per move and the reference
/// evaluation; returns the score and counts nodes in `nodes`.
fn reference_search(
    board: &Board,
    depth: u32,
    mut alpha: i32,
    beta: i32,
    nodes: &mut u64,
    exec: &mut Log,
) -> i32 {
    *nodes += 1;
    exec.int_ops(8);
    exec.branch(false);
    if depth == 0 {
        return reference_evaluate(board, exec);
    }
    let mut moves = board.legal_moves();
    let value = |sq: u8| board.at(sq).map_or(0, |p| p.kind.value());
    moves.sort_by_key(|m| match value(m.to) {
        0 => 0,
        victim => -(10 * victim - value(m.from)),
    });
    exec.int_ops(moves.len() as u64 * 2);
    exec.int_ops(moves.len() as u64 * 6);
    for _ in 0..moves.len() {
        exec.load(0, 4);
    }
    exec.branch_run(moves.len() as u64, false);
    if moves.is_empty() {
        return if board.in_check() { -30_000 } else { 0 };
    }
    let mut best = i32::MIN + 1;
    for m in moves {
        exec.store(m.to as u64, 2);
        exec.store(m.from as u64, 2);
        let score = -reference_search(&board.apply(m), depth - 1, -beta, -alpha, nodes, exec);
        best = best.max(score);
        alpha = alpha.max(best);
        if alpha >= beta {
            exec.branch(false);
            break;
        }
    }
    best
}

#[test]
fn chess_evaluate_reports_one_load_and_int_op_per_square() {
    for board in positions() {
        let (mut batched, mut reference) = (Log::default(), Log::default());
        let score = board.evaluate(&mut batched);
        assert_eq!(score, reference_evaluate(&board, &mut reference));
        assert_same(&batched, &reference, "evaluate");
    }
}

#[test]
fn chess_search_reports_one_load_per_move() {
    for board in positions() {
        let (mut batched, mut reference) = (Log::default(), Log::default());
        let mut searcher = Searcher::new();
        let score = searcher.search(&board, 3, -100_000, 100_000, &mut batched);
        let mut nodes = 0;
        let expected = reference_search(&board, 3, -100_000, 100_000, &mut nodes, &mut reference);
        assert_eq!((score, searcher.nodes()), (expected, nodes));
        assert_same(&batched, &reference, "search");
    }
}

#[test]
fn chess_bench_is_the_two_reference_searches() {
    let (mut batched, mut reference) = (Log::default(), Log::default());
    let nodes = chess::bench(2, &mut batched);
    let mut expected = 0;
    for board in positions() {
        reference_search(&board, 2, -100_000, 100_000, &mut expected, &mut reference);
    }
    assert_eq!(nodes, expected);
    assert_same(&batched, &reference, "bench");
}

/// `Specfem::step`'s reports for a mesh of `elements` elements, access
/// by access.
fn reference_step(elements: usize, exec: &mut Log) {
    let n = elements * DEGREE + 1;
    for e in 0..elements {
        let base = e * DEGREE;
        for i in 0..NGLL {
            let mut j = 0;
            while j + 1 < NGLL {
                exec.load(((base + j) * 8) as u64, 16);
                exec.flop(FlopKind::Fma, Precision::F64, 2);
                j += 2;
            }
            exec.load(((base + j) * 8) as u64, 8);
            exec.flop(FlopKind::Fma, Precision::F64, 1);
            exec.load(((n + base + i) * 8) as u64, 8);
            exec.store(((n + base + i) * 8) as u64, 8);
            exec.flop(FlopKind::Add, Precision::F64, 1);
        }
        exec.branch(true);
    }
    for i in 0..n {
        exec.load((i * 8) as u64, 8);
        exec.flop(FlopKind::Fma, Precision::F64, 1);
        exec.flop(FlopKind::Add, Precision::F64, 1);
        exec.flop(FlopKind::Div, Precision::F64, 1);
        exec.store((i * 8) as u64, 8);
    }
}

#[test]
fn specfem_step_reports_the_per_access_sequence() {
    let cfg = SpecfemConfig {
        elements: 9,
        ..SpecfemConfig::table2()
    };
    let mut sim = Specfem::new(cfg);
    for _ in 0..2 {
        let (mut batched, mut reference) = (Log::default(), Log::default());
        sim.step(&mut batched);
        reference_step(cfg.elements, &mut reference);
        assert_same(&batched, &reference, "specfem step");
    }
}

#[test]
fn magicfilter_pass_reports_taps_then_the_transposed_store() {
    // `n` below the tap count wraps a row's taps round more than once.
    for (n, ndat, unroll) in [(20, 7, 3), (5, 12, 4), (16, 1, 1)] {
        let input: Vec<f64> = (0..n * ndat).map(|k| (k as f64 * 0.37).sin()).collect();
        let mut out = vec![0.0; n * ndat];
        let mut batched = Log::default();
        magicfilter_pass(&input, n, ndat, &mut out, unroll, &mut batched);

        let mut reference = Log::default();
        let mut expected = vec![0.0; n * ndat];
        let out_base = (n * ndat * 8) as u64;
        for i in 0..n {
            for j in 0..ndat {
                let mut acc = 0.0;
                for (t, &c) in MAGIC_FILTER.iter().enumerate() {
                    let row = (i + n * 8 + t - 8) % n;
                    reference.load(((row * ndat + j) * 8) as u64, 8);
                    acc += c * input[row * ndat + j];
                }
                reference.flop_run(FlopKind::Fma, Precision::F64, 1, 16);
                reference.store(out_base + ((j * n + i) * 8) as u64, 8);
                expected[j * n + i] = acc;
            }
        }
        let groups = n as u64 * ndat.div_ceil(unroll as usize) as u64;
        reference.int_ops(2 * groups);
        reference.branch_run(groups, true);
        assert_same(&batched, &reference, "magicfilter pass");
        assert_eq!(out, expected);
    }
}
