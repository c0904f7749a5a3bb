//! A chess engine in the StockFish benchmark's role.
//!
//! StockFish is the paper's third single-node benchmark ("an open-source
//! chess engine with benchmarking capabilities", §III.B): pure integer
//! work, pointer-heavy, dominated by data-dependent branches — the
//! workload class where branch prediction and out-of-order execution pay
//! most. This module implements a real engine: full legal move
//! generation (castling and en passant excluded — immaterial for the
//! benchmarked depths and validated by perft), alpha-beta negamax with
//! material + mobility evaluation, and a `bench` entry point that counts
//! searched nodes, the engine's ops/s currency.
//!
//! Correctness is pinned by perft: from the initial position the legal
//! move counts are 20 / 400 / 8 902 / 197 281 at depths 1–4, values that
//! castling and en passant cannot affect (neither is reachable before
//! ply 5).

use mb_cpu::ops::Exec;

/// Piece colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Color {
    /// White to move first.
    White,
    /// Black.
    Black,
}

impl Color {
    /// The opposing colour.
    pub fn flip(self) -> Color {
        match self {
            Color::White => Color::Black,
            Color::Black => Color::White,
        }
    }
}

/// Piece kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Pawn.
    Pawn,
    /// Knight.
    Knight,
    /// Bishop.
    Bishop,
    /// Rook.
    Rook,
    /// Queen.
    Queen,
    /// King.
    King,
}

impl Kind {
    /// Centipawn material value (king large enough to dominate).
    pub fn value(self) -> i32 {
        match self {
            Kind::Pawn => 100,
            Kind::Knight => 320,
            Kind::Bishop => 330,
            Kind::Rook => 500,
            Kind::Queen => 900,
            Kind::King => 20_000,
        }
    }
}

/// A piece: colour + kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Piece {
    /// Colour.
    pub color: Color,
    /// Kind.
    pub kind: Kind,
}

/// A move from one square to another, with an optional promotion.
/// Squares are `rank * 8 + file`, rank 0 = white's back rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Move {
    /// Origin square.
    pub from: u8,
    /// Destination square.
    pub to: u8,
    /// Promotion piece for pawns reaching the last rank.
    pub promotion: Option<Kind>,
}

const KNIGHT_OFFSETS: [(i32, i32); 8] = [
    (1, 2),
    (2, 1),
    (2, -1),
    (1, -2),
    (-1, -2),
    (-2, -1),
    (-2, 1),
    (-1, 2),
];
const KING_OFFSETS: [(i32, i32); 8] = [
    (0, 1),
    (1, 1),
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, -1),
    (-1, 0),
    (-1, 1),
];
const BISHOP_DIRS: [(i32, i32); 4] = [(1, 1), (1, -1), (-1, -1), (-1, 1)];
const ROOK_DIRS: [(i32, i32); 4] = [(0, 1), (1, 0), (0, -1), (-1, 0)];

/// A chess position (no castling rights / en passant state — see the
/// module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Board {
    squares: [Option<Piece>; 64],
    /// Side to move.
    pub side: Color,
}

impl Board {
    /// The standard initial position.
    pub fn initial() -> Self {
        use Kind::*;
        let back = [Rook, Knight, Bishop, Queen, King, Bishop, Knight, Rook];
        let mut squares = [None; 64];
        for f in 0..8 {
            squares[f] = Some(Piece {
                color: Color::White,
                kind: back[f],
            });
            squares[8 + f] = Some(Piece {
                color: Color::White,
                kind: Pawn,
            });
            squares[48 + f] = Some(Piece {
                color: Color::Black,
                kind: Pawn,
            });
            squares[56 + f] = Some(Piece {
                color: Color::Black,
                kind: back[f],
            });
        }
        Board {
            squares,
            side: Color::White,
        }
    }

    /// An empty board with the given side to move (for custom setups).
    pub fn empty(side: Color) -> Self {
        Board {
            squares: [None; 64],
            side,
        }
    }

    /// Places a piece (testing / position setup).
    ///
    /// # Panics
    ///
    /// Panics if `sq >= 64`.
    pub fn set(&mut self, sq: u8, piece: Option<Piece>) {
        self.squares[sq as usize] = piece;
    }

    /// The piece on a square.
    ///
    /// # Panics
    ///
    /// Panics if `sq >= 64`.
    pub fn at(&self, sq: u8) -> Option<Piece> {
        self.squares[sq as usize]
    }

    fn king_square(&self, color: Color) -> Option<u8> {
        (0..64u8).find(|&s| {
            self.squares[s as usize]
                == Some(Piece {
                    color,
                    kind: Kind::King,
                })
        })
    }

    fn offset(sq: u8, dr: i32, df: i32) -> Option<u8> {
        let r = (sq / 8) as i32 + dr;
        let f = (sq % 8) as i32 + df;
        if (0..8).contains(&r) && (0..8).contains(&f) {
            Some((r * 8 + f) as u8)
        } else {
            None
        }
    }

    /// Whether squares `a` and `b` share a rank, file or diagonal.
    fn aligned(a: u8, b: u8) -> bool {
        let dr = (a / 8) as i32 - (b / 8) as i32;
        let df = (a % 8) as i32 - (b % 8) as i32;
        dr == 0 || df == 0 || dr.abs() == df.abs()
    }

    /// Whether `sq` is attacked by any piece of `by`.
    pub fn attacked(&self, sq: u8, by: Color) -> bool {
        // Pawn attacks.
        let dir = if by == Color::White { -1 } else { 1 };
        for df in [-1, 1] {
            if let Some(s) = Self::offset(sq, dir, df) {
                if self.squares[s as usize]
                    == Some(Piece {
                        color: by,
                        kind: Kind::Pawn,
                    })
                {
                    return true;
                }
            }
        }
        // Knights.
        for (dr, df) in KNIGHT_OFFSETS {
            if let Some(s) = Self::offset(sq, dr, df) {
                if self.squares[s as usize]
                    == Some(Piece {
                        color: by,
                        kind: Kind::Knight,
                    })
                {
                    return true;
                }
            }
        }
        // Kings.
        for (dr, df) in KING_OFFSETS {
            if let Some(s) = Self::offset(sq, dr, df) {
                if self.squares[s as usize]
                    == Some(Piece {
                        color: by,
                        kind: Kind::King,
                    })
                {
                    return true;
                }
            }
        }
        // Sliders.
        for (dirs, kinds) in [
            (&BISHOP_DIRS, [Kind::Bishop, Kind::Queen]),
            (&ROOK_DIRS, [Kind::Rook, Kind::Queen]),
        ] {
            for &(dr, df) in dirs {
                let mut cur = sq;
                while let Some(s) = Self::offset(cur, dr, df) {
                    if let Some(p) = self.squares[s as usize] {
                        if p.color == by && kinds.contains(&p.kind) {
                            return true;
                        }
                        break;
                    }
                    cur = s;
                }
            }
        }
        false
    }

    /// Whether the side to move is in check.
    pub fn in_check(&self) -> bool {
        match self.king_square(self.side) {
            Some(k) => self.attacked(k, self.side.flip()),
            None => false,
        }
    }

    #[inline]
    fn pawn_moves<F: FnMut(Move)>(&self, from: u8, out: &mut F) {
        let color = self.side;
        let dir = if color == Color::White { 1 } else { -1 };
        let start_rank = if color == Color::White { 1 } else { 6 };
        let last_rank = if color == Color::White { 7 } else { 0 };
        let push_with_promos = |to: u8, out: &mut F| {
            if to / 8 == last_rank {
                for k in [Kind::Queen, Kind::Rook, Kind::Bishop, Kind::Knight] {
                    out(Move {
                        from,
                        to,
                        promotion: Some(k),
                    });
                }
            } else {
                out(Move {
                    from,
                    to,
                    promotion: None,
                });
            }
        };
        if let Some(one) = Self::offset(from, dir, 0) {
            if self.squares[one as usize].is_none() {
                push_with_promos(one, out);
                if from / 8 == start_rank {
                    if let Some(two) = Self::offset(from, 2 * dir, 0) {
                        if self.squares[two as usize].is_none() {
                            out(Move {
                                from,
                                to: two,
                                promotion: None,
                            });
                        }
                    }
                }
            }
        }
        for df in [-1, 1] {
            if let Some(cap) = Self::offset(from, dir, df) {
                if matches!(self.squares[cap as usize], Some(p) if p.color != color) {
                    push_with_promos(cap, out);
                }
            }
        }
    }

    /// Generates pseudo-legal moves for the side to move.
    pub fn pseudo_legal_moves(&self) -> Vec<Move> {
        let mut out = Vec::with_capacity(48);
        self.each_pseudo_legal(|m| out.push(m));
        out
    }

    /// Calls `out` on every pseudo-legal move of the side to move, in
    /// [`Board::pseudo_legal_moves`] order, without collecting them.
    #[inline]
    fn each_pseudo_legal(&self, mut out: impl FnMut(Move)) {
        for from in 0..64u8 {
            let Some(p) = self.squares[from as usize] else {
                continue;
            };
            if p.color != self.side {
                continue;
            }
            match p.kind {
                Kind::Pawn => self.pawn_moves(from, &mut out),
                Kind::Knight => {
                    for (dr, df) in KNIGHT_OFFSETS {
                        if let Some(to) = Self::offset(from, dr, df) {
                            if !matches!(self.squares[to as usize], Some(q) if q.color == p.color) {
                                out(Move {
                                    from,
                                    to,
                                    promotion: None,
                                });
                            }
                        }
                    }
                }
                Kind::King => {
                    for (dr, df) in KING_OFFSETS {
                        if let Some(to) = Self::offset(from, dr, df) {
                            if !matches!(self.squares[to as usize], Some(q) if q.color == p.color) {
                                out(Move {
                                    from,
                                    to,
                                    promotion: None,
                                });
                            }
                        }
                    }
                }
                Kind::Bishop | Kind::Rook | Kind::Queen => {
                    let dirs: &[(i32, i32)] = match p.kind {
                        Kind::Bishop => &BISHOP_DIRS,
                        Kind::Rook => &ROOK_DIRS,
                        _ => &[
                            (1, 1),
                            (1, -1),
                            (-1, -1),
                            (-1, 1),
                            (0, 1),
                            (1, 0),
                            (0, -1),
                            (-1, 0),
                        ],
                    };
                    for &(dr, df) in dirs {
                        let mut cur = from;
                        while let Some(to) = Self::offset(cur, dr, df) {
                            match self.squares[to as usize] {
                                None => {
                                    out(Move {
                                        from,
                                        to,
                                        promotion: None,
                                    });
                                    cur = to;
                                }
                                Some(q) => {
                                    if q.color != p.color {
                                        out(Move {
                                            from,
                                            to,
                                            promotion: None,
                                        });
                                    }
                                    break;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// How many pseudo-legal moves the side to move has. Kept out of
    /// line: inlined into [`Board::evaluate`], the count ran slower than
    /// collecting the moves into a `Vec`.
    #[inline(never)]
    fn mobility(&self) -> i32 {
        let mut n = 0;
        self.each_pseudo_legal(|_| n += 1);
        n
    }

    /// Applies a move, returning the new position (the mover's king must
    /// not be left in check for the move to be *legal*; this method does
    /// not verify that).
    pub fn apply(&self, m: Move) -> Board {
        let mut b = self.clone();
        let mut piece = b.squares[m.from as usize].expect("move from empty square");
        if let Some(k) = m.promotion {
            piece.kind = k;
        }
        b.squares[m.to as usize] = Some(piece);
        b.squares[m.from as usize] = None;
        b.side = self.side.flip();
        b
    }

    /// Generates fully legal moves. The mover's king is found once per
    /// position: a move leaves it where it was unless it is the king's
    /// own move. Out of check, a move from a square on no rank, file or
    /// diagonal through the king cannot expose it: it adds no attacker
    /// and opens no ray to the king. So only king moves, moves from a
    /// square on such a line and every move in check are played out and
    /// tested.
    pub fn legal_moves(&self) -> Vec<Move> {
        let enemy = self.side.flip();
        let king = self.king_square(self.side);
        let in_check = king.is_some_and(|k| self.attacked(k, enemy));
        let mut out = Vec::with_capacity(48);
        self.each_pseudo_legal(|m| {
            let legal = match king {
                None => false,
                Some(k) if k == m.from => !self.apply(m).attacked(m.to, enemy),
                Some(k) if !in_check && !Self::aligned(k, m.from) => true,
                Some(k) => !self.apply(m).attacked(k, enemy),
            };
            if legal {
                out.push(m);
            }
        });
        out
    }

    /// Perft: the number of leaf nodes of the legal-move tree at `depth`.
    pub fn perft(&self, depth: u32) -> u64 {
        if depth == 0 {
            return 1;
        }
        self.legal_moves()
            .iter()
            .map(|&m| self.apply(m).perft(depth - 1))
            .sum()
    }

    /// Static evaluation from the side to move's perspective:
    /// material + a small mobility term.
    pub fn evaluate<E: Exec>(&self, exec: &mut E) -> i32 {
        // One 2-byte load and one integer op per square.
        exec.mem_run(0, 1, 64, 2, false);
        exec.int_ops(64);
        let mut score = 0i32;
        for p in self.squares.iter().flatten() {
            let v = p.kind.value();
            score += if p.color == self.side { v } else { -v };
        }
        // Mobility bonus.
        let my_moves = self.mobility();
        exec.int_ops(my_moves as u64);
        score + 2 * my_moves
    }
}

/// The searcher: negamax with alpha-beta pruning and (by default)
/// MVV-LVA move ordering — captures of valuable victims by cheap
/// attackers are searched first, which is what makes alpha-beta prune.
#[derive(Debug)]
pub struct Searcher {
    nodes: u64,
    ordering: bool,
}

impl Searcher {
    /// Creates a searcher with move ordering enabled.
    pub fn new() -> Self {
        Searcher {
            nodes: 0,
            ordering: true,
        }
    }

    /// Enables/disables MVV-LVA ordering (for the ordering ablation),
    /// builder-style.
    pub fn with_ordering(mut self, ordering: bool) -> Self {
        self.ordering = ordering;
        self
    }

    /// Nodes visited so far.
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// MVV-LVA score of a move on a board: most valuable victim first,
    /// least valuable attacker as tiebreak; quiet moves last.
    fn move_score(board: &Board, m: Move) -> i32 {
        let victim = board.at(m.to).map(|p| p.kind.value()).unwrap_or(0);
        let attacker = board.at(m.from).map(|p| p.kind.value()).unwrap_or(0);
        if victim == 0 {
            0
        } else {
            10 * victim - attacker
        }
    }

    /// Negamax alpha-beta to `depth`, reporting work to `exec`.
    /// Returns the score in centipawns from the side to move.
    pub fn search<E: Exec>(
        &mut self,
        board: &Board,
        depth: u32,
        mut alpha: i32,
        beta: i32,
        exec: &mut E,
    ) -> i32 {
        self.nodes += 1;
        // Per-node bookkeeping the instrumented counters see.
        exec.int_ops(8);
        exec.branch(false);
        if depth == 0 {
            return board.evaluate(exec);
        }
        let mut moves = board.legal_moves();
        if self.ordering {
            moves.sort_by_key(|&m| -Self::move_score(board, m));
            exec.int_ops(moves.len() as u64 * 2); // sort network cost
        }
        exec.int_ops(moves.len() as u64 * 6);
        exec.mem_run(0, 0, moves.len() as u64, 4, false);
        exec.branch_run(moves.len() as u64, false);
        if moves.is_empty() {
            // Checkmate or stalemate.
            return if board.in_check() { -30_000 } else { 0 };
        }
        let mut best = i32::MIN + 1;
        for m in moves {
            let child = board.apply(m);
            // make/unmake traffic.
            exec.store(m.to as u64, 2);
            exec.store(m.from as u64, 2);
            let score = -self.search(&child, depth - 1, -beta, -alpha, exec);
            if score > best {
                best = score;
            }
            if best > alpha {
                alpha = best;
            }
            if alpha >= beta {
                exec.branch(false);
                break; // beta cut-off
            }
        }
        best
    }
}

impl Default for Searcher {
    fn default() -> Self {
        Searcher::new()
    }
}

/// The StockFish-style `bench`: search the initial position and a
/// middlegame position to `depth`, returning total nodes (the paper's
/// ops currency).
pub fn bench<E: Exec>(depth: u32, exec: &mut E) -> u64 {
    let mut total = 0;
    let mut s = Searcher::new();
    let initial = Board::initial();
    s.search(&initial, depth, -100_000, 100_000, exec);
    total += s.nodes();
    // A middlegame-ish position: advance a few forced-ish moves.
    let mut b = Board::initial();
    for (from, to) in [(12u8, 28u8), (52, 36), (6, 21), (57, 42)] {
        b = b.apply(Move {
            from,
            to,
            promotion: None,
        });
    }
    let mut s = Searcher::new();
    s.search(&b, depth, -100_000, 100_000, exec);
    total + s.nodes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_cpu::ops::{CountingExec, NullExec};

    #[test]
    fn perft_initial_position() {
        let b = Board::initial();
        assert_eq!(b.perft(1), 20);
        assert_eq!(b.perft(2), 400);
        assert_eq!(b.perft(3), 8_902);
    }

    #[test]
    #[ignore = "slow in debug builds; run with --release or --ignored"]
    fn perft_depth4() {
        assert_eq!(Board::initial().perft(4), 197_281);
    }

    /// A board with `pieces` on it and `side` to move.
    fn setup(side: Color, pieces: &[(u8, Color, Kind)]) -> Board {
        let mut b = Board::empty(side);
        for &(sq, color, kind) in pieces {
            b.set(sq, Some(Piece { color, kind }));
        }
        b
    }

    #[test]
    fn legal_moves_match_a_king_search_per_move() {
        // The reference plays every pseudo-legal move out and finds the
        // mover's king on the child board.
        fn reference(b: &Board) -> Vec<Move> {
            b.pseudo_legal_moves()
                .into_iter()
                .filter(|&m| {
                    let next = b.apply(m);
                    next.king_square(b.side)
                        .is_some_and(|k| !next.attacked(k, next.side))
                })
                .collect()
        }
        use Color::{Black, White};
        use Kind::*;
        // Pins on a file and a diagonal, out of check; then the same
        // position in check from a queen on the open diagonal.
        let pinned = [
            (4, White, King),
            (11, White, Bishop),
            (20, White, Rook),
            (14, White, Pawn),
            (62, Black, King),
            (25, Black, Bishop),
            (60, Black, Rook),
            (53, Black, Pawn),
            (54, Black, Pawn),
        ];
        let mut checked = pinned.to_vec();
        checked.push((31, Black, Queen));
        let (pinned, checked) = (setup(White, &pinned), setup(White, &checked));
        assert!(!pinned.in_check() && checked.in_check());
        let mut middlegame = Board::initial();
        for (from, to) in [(12u8, 28u8), (52, 36), (6, 21), (57, 42)] {
            middlegame = middlegame.apply(Move {
                from,
                to,
                promotion: None,
            });
        }
        // Every position up to two plies from these roots.
        let mut frontier = vec![Board::initial(), middlegame, pinned, checked];
        let mut boards = frontier.clone();
        for _ in 0..2 {
            frontier = frontier
                .iter()
                .flat_map(|b| b.legal_moves().into_iter().map(|m| b.apply(m)))
                .collect();
            boards.extend_from_slice(&frontier);
        }
        let checks = boards.iter().filter(|b| b.in_check()).count();
        assert!(checks > 20, "{checks} of {} boards in check", boards.len());
        for b in &boards {
            assert_eq!(b.legal_moves(), reference(b));
        }
    }

    #[test]
    fn initial_position_not_in_check() {
        assert!(!Board::initial().in_check());
    }

    #[test]
    fn scholars_mate_detection() {
        // Build a back-rank mate: black king h8, white queen g7 guarded
        // by king g6. Black to move has no legal moves and is in check.
        let mut b = Board::empty(Color::Black);
        b.set(
            63,
            Some(Piece {
                color: Color::Black,
                kind: Kind::King,
            }),
        );
        b.set(
            54,
            Some(Piece {
                color: Color::White,
                kind: Kind::Queen,
            }),
        );
        b.set(
            46,
            Some(Piece {
                color: Color::White,
                kind: Kind::King,
            }),
        );
        assert!(b.in_check());
        assert!(b.legal_moves().is_empty());
        let mut s = Searcher::new();
        let score = s.search(&b, 2, -100_000, 100_000, &mut NullExec);
        assert_eq!(score, -30_000, "mate is the worst score");
    }

    #[test]
    fn stalemate_scores_zero() {
        // Black king a8; white queen c7 (not giving check, covering all
        // king moves), white king b6 far enough.
        let mut b = Board::empty(Color::Black);
        b.set(
            56,
            Some(Piece {
                color: Color::Black,
                kind: Kind::King,
            }),
        );
        b.set(
            50,
            Some(Piece {
                color: Color::White,
                kind: Kind::Queen,
            }),
        );
        b.set(
            41,
            Some(Piece {
                color: Color::White,
                kind: Kind::King,
            }),
        );
        assert!(!b.in_check());
        assert!(b.legal_moves().is_empty(), "stalemate has no moves");
        let mut s = Searcher::new();
        assert_eq!(s.search(&b, 3, -100_000, 100_000, &mut NullExec), 0);
    }

    #[test]
    fn promotions_generated() {
        let mut b = Board::empty(Color::White);
        b.set(
            48, // a7
            Some(Piece {
                color: Color::White,
                kind: Kind::Pawn,
            }),
        );
        b.set(
            7,
            Some(Piece {
                color: Color::White,
                kind: Kind::King,
            }),
        );
        b.set(
            23,
            Some(Piece {
                color: Color::Black,
                kind: Kind::King,
            }),
        );
        let moves = b.legal_moves();
        let promos: Vec<_> = moves.iter().filter(|m| m.promotion.is_some()).collect();
        assert_eq!(promos.len(), 4, "all four promotion pieces");
    }

    #[test]
    fn pinned_piece_cannot_move() {
        // White king e1, white rook e2, black rook e8: the rook on e2 is
        // pinned and may only move along the e-file.
        let mut b = Board::empty(Color::White);
        b.set(
            4,
            Some(Piece {
                color: Color::White,
                kind: Kind::King,
            }),
        );
        b.set(
            12,
            Some(Piece {
                color: Color::White,
                kind: Kind::Rook,
            }),
        );
        b.set(
            60,
            Some(Piece {
                color: Color::Black,
                kind: Kind::Rook,
            }),
        );
        let rook_moves: Vec<_> = b
            .legal_moves()
            .into_iter()
            .filter(|m| m.from == 12)
            .collect();
        assert!(rook_moves.iter().all(|m| m.to % 8 == 4), "stay on e-file");
        assert!(!rook_moves.is_empty());
    }

    #[test]
    fn alpha_beta_equals_full_search_value() {
        // Alpha-beta must return the same value as pure negamax.
        fn negamax(b: &Board, d: u32) -> i32 {
            if d == 0 {
                return b.evaluate(&mut NullExec);
            }
            let moves = b.legal_moves();
            if moves.is_empty() {
                return if b.in_check() { -30_000 } else { 0 };
            }
            moves
                .iter()
                .map(|&m| -negamax(&b.apply(m), d - 1))
                .max()
                .expect("non-empty")
        }
        let b = Board::initial();
        let plain = negamax(&b, 2);
        let mut s = Searcher::new();
        let ab = s.search(&b, 2, -100_000, 100_000, &mut NullExec);
        assert_eq!(plain, ab);
    }

    #[test]
    fn bench_counts_nodes_and_is_deterministic() {
        let n1 = bench(3, &mut NullExec);
        let n2 = bench(3, &mut NullExec);
        assert_eq!(n1, n2);
        assert!(n1 > 1_000, "depth-3 bench should visit many nodes: {n1}");
        let deeper = bench(4, &mut NullExec);
        assert!(deeper > n1 * 3, "depth scaling: {n1} → {deeper}");
    }

    #[test]
    fn mvv_lva_ordering_prunes_more() {
        // Same value, fewer nodes with ordering — from a tactical
        // middlegame position where captures exist.
        let mut b = Board::initial();
        for (from, to) in [(12u8, 28u8), (51, 35), (28, 35)] {
            b = b.apply(Move {
                from,
                to,
                promotion: None,
            });
        }
        let mut ordered = Searcher::new();
        let v1 = ordered.search(&b, 3, -100_000, 100_000, &mut NullExec);
        let mut unordered = Searcher::new().with_ordering(false);
        let v2 = unordered.search(&b, 3, -100_000, 100_000, &mut NullExec);
        assert_eq!(v1, v2, "ordering must not change the minimax value");
        assert!(
            ordered.nodes() < unordered.nodes(),
            "ordering should prune: {} vs {}",
            ordered.nodes(),
            unordered.nodes()
        );
    }

    #[test]
    fn bench_is_integer_dominated() {
        let mut count = CountingExec::new();
        let _ = bench(2, &mut count);
        assert_eq!(count.counts().total_flops(), 0);
        assert!(count.counts().unpredictable_branches > 1_000);
    }
}
