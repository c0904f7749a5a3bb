//! The determinism rule registry.
//!
//! Line rules are token-level checks over stripped source lines (see
//! [`crate::source`]). Rules are scoped: test modules are always exempt
//! (tests may time things, spawn helpers, unwrap freely), and each rule
//! declares which crates or files it does not apply to. The scoping
//! mirrors the determinism contract in DESIGN.md: model code must be a
//! pure function of its explicit seeds, while the harness crates
//! (`bench`, `check` itself) are allowed to touch the host.
//!
//! Two rules are *workspace* rules rather than line rules: they run
//! over the cross-crate call graph ([`crate::taint`]), so the per-line
//! `fire` never triggers them — they exist in the registry for naming,
//! `--list-rules` and `allow(...)` directives.

use crate::report::Finding;
use crate::source::SourceFile;
use crate::FileClass;

/// Identifier of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// `HashMap`/`HashSet` in model code — iteration order can leak into
    /// results; use `BTreeMap`/`BTreeSet` or a sorted collect.
    HashmapIterOrder,
    /// `Instant`/`SystemTime` outside `crates/bench` — model time must
    /// come from the simulated clock, never the host's.
    WallClockInModel,
    /// RNG constructed from ambient entropy rather than an explicit
    /// seed.
    UnseededRng,
    /// Thread spawn or channel fan-out outside `mb_simcore::par` — all
    /// parallelism must go through the deterministic sweep engine.
    RogueThreads,
    /// `.unwrap()` in library code paths; propagate a `Result` or use a
    /// documented `expect` instead.
    UnwrapInLib,
    /// Public numeric quantity (latency, energy, …) without a unit
    /// suffix (`_cycles`, `_joules`, `_ns`, …) at a model boundary.
    UnitSuffix,
    /// `catch_unwind` or a discarded fallible result (`let _ =` on a
    /// `try_`/`checked_`/`parse` call) outside `mb_simcore::par` —
    /// panic containment is the sweep engine's job, and errors must be
    /// handled or propagated, never swallowed.
    SilentCatch,
    /// Workspace rule: a function transitively reaches a nondeterminism
    /// source (wall clock, unseeded RNG, hash-order iteration, rogue
    /// threads) through the call graph. See [`crate::taint`].
    DeterminismTaint,
    /// Workspace rule: a function reachable from a registered slot
    /// measurer allocates (`Vec::new`, `vec![]`, `format!`, …) inside
    /// the measured region. See [`crate::taint::hot_alloc_findings`].
    HotAlloc,
}

/// Every rule, in reporting order.
pub const ALL_RULES: [RuleId; 9] = [
    RuleId::HashmapIterOrder,
    RuleId::WallClockInModel,
    RuleId::UnseededRng,
    RuleId::RogueThreads,
    RuleId::UnwrapInLib,
    RuleId::UnitSuffix,
    RuleId::SilentCatch,
    RuleId::DeterminismTaint,
    RuleId::HotAlloc,
];

impl RuleId {
    /// The rule's kebab-case name, as used in `allow(...)` directives.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HashmapIterOrder => "hashmap-iter-order",
            RuleId::WallClockInModel => "wall-clock-in-model",
            RuleId::UnseededRng => "unseeded-rng",
            RuleId::RogueThreads => "rogue-threads",
            RuleId::UnwrapInLib => "unwrap-in-lib",
            RuleId::UnitSuffix => "unit-suffix",
            RuleId::SilentCatch => "silent-catch",
            RuleId::DeterminismTaint => "determinism-taint",
            RuleId::HotAlloc => "hot-alloc",
        }
    }

    /// One-line description for `--list-rules`.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::HashmapIterOrder => {
                "no HashMap/HashSet in model crates; iteration order can reach results"
            }
            RuleId::WallClockInModel => {
                "no Instant/SystemTime outside crates/bench; model time is simulated"
            }
            RuleId::UnseededRng => "every RNG must be constructed from an explicit seed",
            RuleId::RogueThreads => {
                "no thread spawn/channel fan-out outside mb_simcore::par"
            }
            RuleId::UnwrapInLib => {
                "no .unwrap() in library paths; propagate Result or use a documented expect"
            }
            RuleId::UnitSuffix => {
                "public numeric quantities carry unit suffixes (_cycles, _joules, _ns, ...)"
            }
            RuleId::SilentCatch => {
                "no catch_unwind or discarded fallible results outside mb_simcore::par"
            }
            RuleId::DeterminismTaint => {
                "no call path from model code to a nondeterminism source (taint over the call graph)"
            }
            RuleId::HotAlloc => {
                "no allocation in functions reachable from registered slot measurers"
            }
        }
    }
}

/// Crate-relative location facts the rules scope on.
#[derive(Debug, Clone)]
struct FileContext {
    /// Crate directory name under `crates/` (e.g. `"net"`).
    krate: String,
    /// Path relative to the workspace root, `/`-separated.
    rel: String,
    /// Library code vs test/bench/example context.
    class: FileClass,
}

impl FileContext {
    fn new(rel_path: &str, class: FileClass) -> Self {
        let rel = rel_path.replace('\\', "/");
        let krate = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
            .to_string();
        FileContext { krate, rel, class }
    }

    /// Binary code paths (`src/bin/`, `src/main.rs`): allowed to unwrap —
    /// a CLI aborting with a backtrace is fine.
    fn is_bin(&self) -> bool {
        self.rel.contains("/src/bin/") || self.rel.ends_with("/src/main.rs")
    }
}

/// Tokens whose presence on a stripped line fires `unseeded-rng`.
const UNSEEDED_RNG_TOKENS: [&str; 6] = [
    "thread_rng",
    "from_entropy",
    "OsRng",
    "rand::random",
    "getrandom",
    "from_os_rng",
];

/// Tokens whose presence fires `rogue-threads`.
const ROGUE_THREAD_TOKENS: [&str; 6] = [
    "thread::spawn",
    "thread::Builder",
    "thread::scope",
    "mpsc::",
    "crossbeam::",
    "rayon::",
];

/// Quantity words that demand a unit suffix when they end a public
/// numeric field or parameter name.
const QUANTITY_WORDS: [&str; 10] = [
    "time",
    "latency",
    "duration",
    "delay",
    "energy",
    "power",
    "bandwidth",
    "frequency",
    "freq",
    "penalty",
];

/// Name segments accepted as unit suffixes.
const UNIT_SEGMENTS: [&str; 24] = [
    "ns", "us", "ms", "secs", "s", "cycles", "cycle", "joules", "j", "watts", "w", "bps", "kbps",
    "mbps", "gbps", "hz", "khz", "mhz", "ghz", "bytes", "flops", "ops", "ratio", "factor",
];

/// Primitive numeric types the `unit-suffix` rule cares about. Wrapper
/// types like `SimTime` carry their unit in the type, so only bare
/// primitives are suspect.
const NUMERIC_TYPES: [&str; 13] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "f32", "f64",
];

/// Runs every line rule over one parsed file. `rel_path` is the
/// workspace-relative path (used for scoping and reporting); `class`
/// relaxes the rule set outside library code: integration tests,
/// benches and examples are harness context, where only `unseeded-rng`
/// still applies (even harness randomness must be seeded, or sweeps
/// stop being reproducible).
pub fn check_file(rel_path: &str, src: &SourceFile, class: FileClass) -> Vec<Finding> {
    let ctx = FileContext::new(rel_path, class);
    let mut findings = Vec::new();
    for (idx, line) in src.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let lineno = idx + 1;
        for rule in ALL_RULES {
            if !ctx.class.is_lib() && rule != RuleId::UnseededRng {
                continue;
            }
            if line.allows(rule.name()) {
                continue;
            }
            if let Some(message) = fire(rule, &ctx, &line.code) {
                findings.push(Finding {
                    rule: rule.name().to_string(),
                    file: ctx.rel.clone(),
                    line: lineno,
                    message,
                    symbol: String::new(),
                });
            }
        }
    }
    findings
}

/// Whether `rule` fires on this stripped line in this file; returns the
/// finding message if so. Workspace rules never fire here.
fn fire(rule: RuleId, ctx: &FileContext, code: &str) -> Option<String> {
    match rule {
        RuleId::HashmapIterOrder => {
            if ctx.krate == "bench" || ctx.krate == "check" {
                return None;
            }
            let token = ["HashMap", "HashSet"].iter().find(|t| has_token(code, t))?;
            Some(format!(
                "{token} in model code: iteration order is nondeterministic; \
                 use BTreeMap/BTreeSet or a sorted collect"
            ))
        }
        RuleId::WallClockInModel => {
            if ctx.krate == "bench" || ctx.krate == "check" {
                return None;
            }
            let token = ["Instant", "SystemTime"]
                .iter()
                .find(|t| has_token(code, t))?;
            Some(format!(
                "{token} outside crates/bench: model time must come from the \
                 simulated clock"
            ))
        }
        RuleId::UnseededRng => {
            let token = UNSEEDED_RNG_TOKENS.iter().find(|t| code.contains(*t))?;
            Some(format!(
                "{token}: RNGs must be constructed from an explicit seed"
            ))
        }
        RuleId::RogueThreads => {
            if ctx.rel.ends_with("crates/simcore/src/par.rs") {
                return None;
            }
            let token = ROGUE_THREAD_TOKENS.iter().find(|t| code.contains(*t))?;
            Some(format!(
                "{token}: parallelism must go through mb_simcore::par"
            ))
        }
        RuleId::UnwrapInLib => {
            if ctx.is_bin() || ctx.krate == "check" {
                return None;
            }
            code.contains(".unwrap()").then(|| {
                ".unwrap() in library code: propagate a Result or use a \
                 documented expect"
                    .to_string()
            })
        }
        RuleId::UnitSuffix => {
            if ctx.krate == "bench" || ctx.krate == "check" {
                return None;
            }
            unit_suffix_violation(code)
        }
        RuleId::SilentCatch => {
            if ctx.rel.ends_with("crates/simcore/src/par.rs") {
                return None;
            }
            if has_token(code, "catch_unwind") {
                return Some(
                    "catch_unwind outside mb_simcore::par: panic containment is the \
                     sweep engine's job; propagate an MbError instead"
                        .to_string(),
                );
            }
            silent_discard_violation(code)
        }
        RuleId::DeterminismTaint | RuleId::HotAlloc => None,
    }
}

/// Word-boundary token search: `HashMap` must not match `MyHashMapLike`
/// prefixes from the left (identifier characters on either side defeat
/// the match).
fn has_token(code: &str, token: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(at) = code[start..].find(token) {
        let begin = start + at;
        let end = begin + token.len();
        let left_ok = begin == 0 || !is_ident_byte(bytes[begin - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        start = begin + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Call shapes that return a `Result`/`Option` worth keeping. The
/// discard check only fires when one of these appears on the right of a
/// `let _ =`, so plain value discards (`let _ = hop;`) stay legal.
const FALLIBLE_HINTS: [&str; 5] = ["try_", "checked_", ".parse(", ".parse::<", "from_str"];

/// Detects `let _ = <something fallible>(...)` — a `Result` silently
/// thrown away.
fn silent_discard_violation(code: &str) -> Option<String> {
    let at = code.find("let _ =")?;
    let rhs = &code[at + "let _ =".len()..];
    if !rhs.contains('(') {
        return None;
    }
    let hint = FALLIBLE_HINTS.iter().find(|h| rhs.contains(*h))?;
    Some(format!(
        "`let _ =` discards the result of a fallible call (`{hint}`): \
         handle the error or propagate it as an MbError"
    ))
}

/// Detects `pub <name>: <numeric>` declarations whose name talks about a
/// physical quantity without saying the unit.
fn unit_suffix_violation(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    if !trimmed.starts_with("pub ") {
        return None;
    }
    let decl = trimmed.trim_start_matches("pub ").trim_start();
    // Match `<ident>: <type>` with a primitive numeric type.
    let colon = decl.find(':')?;
    let name = decl[..colon].trim();
    if !name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        || name.is_empty()
    {
        return None;
    }
    let ty = decl[colon + 1..]
        .trim_start()
        .trim_end_matches(',')
        .trim_end();
    if !NUMERIC_TYPES.contains(&ty) {
        return None;
    }
    let segments: Vec<&str> = name.split('_').collect();
    if segments.iter().any(|s| UNIT_SEGMENTS.contains(s)) {
        return None;
    }
    let last = segments.last().copied().unwrap_or("");
    QUANTITY_WORDS.contains(&last).then(|| {
        format!(
            "`{name}: {ty}` is a physical quantity without a unit suffix; \
             name it e.g. `{name}_cycles` / `{name}_ns` / `{name}_joules`"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn check_snippet(path: &str, src: &str) -> Vec<Finding> {
        check_file(path, &SourceFile::parse(src), FileClass::Lib)
    }

    #[test]
    fn workspace_rules_never_fire_line_by_line() {
        // A line that would trip several line rules still produces no
        // workspace-rule findings; those run over the call graph.
        let src = "let t = Instant::now(); let m = HashMap::new();\n";
        let findings = check_snippet("crates/net/src/graph.rs", src);
        let workspace_rules = [RuleId::DeterminismTaint, RuleId::HotAlloc].map(RuleId::name);
        for f in &findings {
            assert!(
                !workspace_rules.contains(&f.rule.as_str()),
                "workspace rule {} fired as a line rule",
                f.rule
            );
        }
    }

    #[test]
    fn hashmap_fires_in_model_crate_only() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(check_snippet("crates/net/src/graph.rs", src).len(), 1);
        assert!(check_snippet("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn hashmap_respects_word_boundaries() {
        let src = "struct MyHashMapLike;\nfn uses_hash_map_like(m: MyHashMapLike) {}\n";
        assert!(check_snippet("crates/net/src/graph.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_fires_outside_bench() {
        let src = "let t0 = std::time::Instant::now();\n";
        let f = check_snippet("crates/cpu/src/exec_model.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock-in-model");
        assert!(check_snippet("crates/bench/src/perfsuite.rs", src).is_empty());
    }

    #[test]
    fn unseeded_rng_fires_everywhere() {
        let src = "let mut rng = thread_rng();\n";
        assert_eq!(check_snippet("crates/bench/src/lib.rs", src).len(), 1);
        assert_eq!(check_snippet("crates/mem/src/pages.rs", src).len(), 1);
    }

    #[test]
    fn non_lib_context_relaxes_to_unseeded_rng_only() {
        let src = "\
let t0 = std::time::Instant::now();
let v = data.last().unwrap();
let mut rng = thread_rng();
";
        for class in [FileClass::Test, FileClass::Bench, FileClass::Example] {
            let f = check_file("crates/net/tests/smoke.rs", &SourceFile::parse(src), class);
            assert_eq!(f.len(), 1, "{class:?}: {f:?}");
            assert_eq!(f[0].rule, "unseeded-rng");
        }
        // The same file as library code trips all three.
        let f = check_file(
            "crates/net/src/smoke.rs",
            &SourceFile::parse(src),
            FileClass::Lib,
        );
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn rogue_threads_fires_outside_par() {
        for src in [
            "std::thread::spawn(move || work());\n",
            "std::thread::scope(|s| work(s));\n",
        ] {
            let f = check_snippet("crates/kernels/src/lib.rs", src);
            assert_eq!(f.len(), 1, "{src}");
            assert_eq!(f[0].rule, "rogue-threads");
            assert!(check_snippet("crates/simcore/src/par.rs", src).is_empty());
        }
    }

    #[test]
    fn unwrap_fires_in_lib_not_bin() {
        let src = "let v = data.last().unwrap();\n";
        assert_eq!(check_snippet("crates/os/src/lib.rs", src).len(), 1);
        assert!(check_snippet("crates/bench/src/main.rs", src).is_empty());
        assert!(check_snippet("crates/bench/src/bin/tool.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "let v = data.last().copied().unwrap_or(0);\n";
        assert!(check_snippet("crates/os/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unit_suffix_fires_on_bare_quantity() {
        let src = "pub struct C {\n    pub hit_latency: u64,\n}\n";
        let f = check_snippet("crates/mem/src/hierarchy.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unit-suffix");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn unit_suffix_accepts_suffixed_and_typed_quantities() {
        let src = "\
pub struct C {
    pub hit_latency_cycles: u64,
    pub bandwidth_bps: f64,
    pub latency: SimTime,
    pub messages: u64,
}
";
        assert!(check_snippet("crates/mem/src/hierarchy.rs", src).is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn t() { let x = foo().unwrap(); }
}
";
        assert!(check_snippet("crates/net/src/graph.rs", src).is_empty());
    }

    #[test]
    fn suppression_silences_a_rule() {
        let src = "use std::collections::HashMap; // mb-check: allow(hashmap-iter-order)\n";
        assert!(check_snippet("crates/net/src/graph.rs", src).is_empty());
        // But not a different rule.
        let src2 = "let x = foo.unwrap(); // mb-check: allow(hashmap-iter-order)\n";
        assert_eq!(check_snippet("crates/os/src/lib.rs", src2).len(), 1);
    }

    #[test]
    fn silent_catch_fires_on_catch_unwind_outside_par() {
        let src = "let r = std::panic::catch_unwind(|| job());\n";
        let f = check_snippet("crates/net/src/fabric.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "silent-catch");
        assert!(check_snippet("crates/simcore/src/par.rs", src).is_empty());
    }

    #[test]
    fn silent_catch_fires_on_discarded_fallible_call() {
        let src = "let _ = u32::try_from(big);\n";
        let f = check_snippet("crates/mem/src/cache.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "silent-catch");
        let src2 = "let _ = s.parse::<u64>();\n";
        assert_eq!(check_snippet("crates/mem/src/cache.rs", src2).len(), 1);
    }

    #[test]
    fn silent_catch_allows_plain_discards() {
        // Value discards without a fallible call are idiomatic.
        let src = "let _ = hop;\nlet _ = (a, b);\nlet _ = m.get(&0);\n";
        assert!(check_snippet("crates/net/src/fabric.rs", src).is_empty());
    }

    #[test]
    fn tokens_in_strings_and_comments_do_not_fire() {
        let src = "\
// A HashMap would be wrong here; Instant too.
let label = \"thread_rng\";
";
        assert!(check_snippet("crates/net/src/graph.rs", src).is_empty());
    }
}
