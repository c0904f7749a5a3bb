//! `mb-lab` CLI — run, shard, supervise, serve, merge and digest
//! experiment campaigns. Run it without arguments for the usage text,
//! which is generated from [`VERBS`]: every verb declares its operands
//! and one flag table, and a single parser reads every command line.
//!
//! The client verbs (`submit` … `shutdown`) speak the `mbsrv1` line
//! protocol to an `mb-lab serve` instance; `--addr` falls back to the
//! `MB_ADDR` environment variable.
//!
//! ## Exit codes
//!
//! The exit status is a documented contract (see
//! `mb_simcore::error::exit_code`) so a supervisor can tell *why* a
//! worker died:
//!
//! | code | meaning                                                  |
//! |------|----------------------------------------------------------|
//! | 0    | success                                                  |
//! | 1    | generic failure (e.g. digest mismatch under `--check`)   |
//! | 2    | usage: unknown flag, missing operand, malformed value    |
//! | 3    | journal/segment corruption (chain break, version skew, …)|
//! | 4    | a campaign slot panicked (restartable, maybe poisoned)   |
//! | 5    | env/shard misconfiguration (bad `MB_*`, wrong campaign, a |
//! |      | data dir/journal owned by a live process, …)             |
//! | 6    | `mbsrv1` protocol fault (skew, malformed/oversized frame)|
//! | 7    | server unavailable or busy (typed backpressure; retry)   |
//!
//! The shard assignment comes from `--shard i/N` or, failing that, the
//! `MB_SHARD` environment variable (same syntax); default `0/1`. A
//! malformed value in either place is a hard error — a worker silently
//! re-running the whole grid solo is exactly the kind of
//! measuring-something-else failure the campaign machinery exists to
//! rule out. `--max-slots n` (or `MB_MAX_SLOTS`) bounds how many slots
//! one invocation executes so CI can smoke a truncated paper shard;
//! `--times` prints per-slot wall times. Worker threads follow the
//! workspace-wide `MB_THREADS` variable.

use mb_lab::driver::{RunOptions, Shard};
use mb_lab::serve::ServePolicy;
use mb_lab::supervise::SupervisePolicy;
use mb_lab::{campaign, client, driver, journal, serve, supervise, transport, JobState};
use mb_simcore::error::exit_code;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

/// Everything a command line can set. Each verb's flags fill the part
/// it reads; the serve policy's `supervise` half doubles as the knob
/// store of `supervise`, `run` (`--task-delay-ms`) and `submit`
/// (`--shards`). Required flags are always set before a verb runs.
#[derive(Default)]
struct Cli {
    operands: Vec<String>,
    journal: PathBuf,
    dir: PathBuf,
    addr: String,
    run: RunOptions,
    times: bool,
    policy: ServePolicy,
    from: usize,
    expect: Option<u64>,
    check: bool,
}

impl Cli {
    fn sup(&mut self) -> &mut SupervisePolicy {
        &mut self.policy.supervise
    }
}

/// Parses a flag value into its target; `None` rejects the value.
type Setter = fn(&mut Cli, &str) -> Option<()>;

/// One flag: its name, the placeholder its value is shown with (empty
/// for a switch), the environment variable it falls back to, whether
/// the verb needs it, and its setter.
struct Flag {
    name: &'static str,
    arg: &'static str,
    env: Option<&'static str>,
    required: bool,
    set: Setter,
}

const fn flag(name: &'static str, arg: &'static str, set: Setter) -> Flag {
    Flag {
        name,
        arg,
        env: None,
        required: false,
        set,
    }
}

const fn required(name: &'static str, arg: &'static str, set: Setter) -> Flag {
    Flag {
        required: true,
        ..flag(name, arg, set)
    }
}

const fn with_env(env: &'static str, name: &'static str, arg: &'static str, set: Setter) -> Flag {
    Flag {
        env: Some(env),
        ..flag(name, arg, set)
    }
}

/// Stores `value` in `slot` when there is one.
fn set<T>(slot: &mut T, value: Option<T>) -> Option<()> {
    *slot = value?;
    Some(())
}

/// Parses `v` into `slot`.
fn put<T: FromStr>(slot: &mut T, v: &str) -> Option<()> {
    set(slot, v.parse().ok())
}

const JOURNAL: Flag = required("--journal", "<path>", |c, v| put(&mut c.journal, v));
const DIR: Flag = required("--dir", "<path>", |c, v| put(&mut c.dir, v));
const ADDR: Flag = with_env("MB_ADDR", "--addr", "host:port", |c, v| put(&mut c.addr, v));
const SHARD: Flag = with_env("MB_SHARD", "--shard", "i/N", |c, v| {
    set(&mut c.run.shard, Shard::parse(v))
});
const MAX_SLOTS: Flag = with_env("MB_MAX_SLOTS", "--max-slots", "n", |c, v| {
    set(&mut c.run.max_slots, v.parse().ok().map(Some))
});
const SKIP_SLOTS: Flag = flag("--skip-slots", "a,b,c", |c, v| {
    set(
        &mut c.run.skip_slots,
        v.split(',').map(|p| p.trim().parse().ok()).collect(),
    )
});
const TIMES: Flag = flag("--times", "", |c, _| set(&mut c.times, Some(true)));
const TASK_DELAY: Flag = flag("--task-delay-ms", "d", |c, v| {
    put(&mut c.sup().task_delay_ms, v)
});
const POLL: Flag = flag("--poll-ms", "d", |c, v| put(&mut c.sup().poll_ms, v));
const SHARDS: Flag = flag("--shards", "N", |c, v| {
    set(&mut c.sup().shards, v.parse().ok().filter(|&n| n > 0))
});
const HANG_POLLS: Flag = flag("--hang-polls", "n", |c, v| put(&mut c.sup().hang_polls, v));
const POISON: Flag = flag("--poison-threshold", "k", |c, v| {
    put(&mut c.sup().poison_threshold, v)
});
const MAX_RESTARTS: Flag = flag("--max-restarts", "n", |c, v| {
    put(&mut c.sup().max_restarts, v)
});
const BACKOFF_BASE: Flag = flag("--backoff-base-ms", "d", |c, v| {
    put(&mut c.sup().backoff_base_ms, v)
});
const BACKOFF_CAP: Flag = flag("--backoff-cap-ms", "d", |c, v| {
    put(&mut c.sup().backoff_cap_ms, v)
});
const MAX_POLLS: Flag = flag("--max-polls", "n", |c, v| put(&mut c.sup().max_polls, v));
const CHAOS_KILLS: Flag = flag("--chaos-kills", "n", |c, v| {
    put(&mut c.sup().chaos_kills, v)
});
const BIND: Flag = flag("--bind", "host:port", |c, v| put(&mut c.policy.bind, v));
const QUEUE_CAP: Flag = flag("--queue-cap", "n", |c, v| put(&mut c.policy.queue_cap, v));
const WORKERS: Flag = flag("--workers", "n", |c, v| put(&mut c.policy.workers, v));
const FROM: Flag = flag("--from", "k", |c, v| put(&mut c.from, v));
const EXPECT: Flag = flag("--expect", "0xHEX", |c, v| {
    set(
        &mut c.expect,
        u64::from_str_radix(v.trim_start_matches("0x"), 16)
            .ok()
            .map(Some),
    )
});
const CHECK: Flag = flag("--check", "", |c, _| set(&mut c.check, Some(true)));

/// A verb's outcome: `Err` carries the documented exit code, its
/// diagnostic already printed.
type Outcome = Result<(), ExitCode>;

/// One verb: its operands as the usage text shows them, how many it
/// takes, its flag table, and what it runs.
struct Verb {
    name: &'static str,
    operands: &'static str,
    arity: (usize, usize),
    flags: &'static [Flag],
    run: fn(Cli) -> Outcome,
}

const fn verb(
    name: &'static str,
    operands: &'static str,
    arity: (usize, usize),
    flags: &'static [Flag],
    run: fn(Cli) -> Outcome,
) -> Verb {
    Verb {
        name,
        operands,
        arity,
        flags,
        run,
    }
}

const VERBS: &[Verb] = &[
    verb("list", "", (0, 0), &[], cmd_list),
    verb(
        "run",
        "<campaign>",
        (1, 1),
        &[JOURNAL, SHARD, TASK_DELAY, MAX_SLOTS, SKIP_SLOTS, TIMES],
        cmd_run,
    ),
    verb(
        "supervise",
        "<campaign>",
        (1, 1),
        &[
            DIR,
            SHARDS,
            POLL,
            HANG_POLLS,
            POISON,
            MAX_RESTARTS,
            BACKOFF_BASE,
            BACKOFF_CAP,
            MAX_POLLS,
            TASK_DELAY,
            CHAOS_KILLS,
        ],
        cmd_supervise,
    ),
    verb(
        "serve",
        "",
        (0, 0),
        &[DIR, BIND, QUEUE_CAP, WORKERS, POLL, TASK_DELAY],
        cmd_serve,
    ),
    verb("submit", "<campaign>", (1, 1), &[ADDR, SHARDS], cmd_submit),
    verb("status", "[job]", (0, 1), &[ADDR], cmd_status),
    verb("watch", "<job>", (1, 1), &[ADDR], cmd_watch),
    verb("cancel", "<job>", (1, 1), &[ADDR], cmd_cancel),
    verb("fetch", "<job> <segment>", (2, 2), &[ADDR], cmd_fetch),
    verb("ping", "", (0, 0), &[ADDR], cmd_ping),
    verb("shutdown", "", (0, 0), &[ADDR], cmd_shutdown),
    verb("export", "<journal> <segment>", (2, 2), &[FROM], cmd_export),
    verb("ingest", "<journal> <segment>", (2, 2), &[], cmd_ingest),
    verb("merge", "<out> <in>...", (2, usize::MAX), &[], cmd_merge),
    verb("digest", "<journal>", (1, 1), &[EXPECT, CHECK], cmd_digest),
];

/// Prints the usage text generated from [`VERBS`], wrapped at 80
/// columns, and returns the usage exit code.
fn usage() -> ExitCode {
    let mut text = String::from("usage:");
    for verb in VERBS {
        let mut line = format!("  mb-lab {}", verb.name);
        let flags = verb.flags.iter().map(|f| match (f.required, f.arg) {
            (true, arg) => format!("{} {arg}", f.name),
            (false, "") => format!("[{}]", f.name),
            (false, arg) => format!("[{} {arg}]", f.name),
        });
        for part in std::iter::once(verb.operands.to_string()).chain(flags) {
            if part.is_empty() {
                continue;
            }
            if line.len() + 1 + part.len() > 80 {
                text.push('\n');
                text.push_str(&line);
                line = "      ".to_string();
            } else {
                line.push(' ');
            }
            line.push_str(&part);
        }
        text.push('\n');
        text.push_str(&line);
    }
    eprintln!("{text}");
    ExitCode::from(exit_code::USAGE)
}

/// Reads `args` against `verb`'s flag table. Flags and operands may
/// interleave; the last repeat of a flag wins. A bad flag, a missing
/// required flag or a wrong operand count is a usage error (exit 2).
/// An environment fallback shares its flag's validation, but a bad
/// value there is an environment misconfiguration (exit 5): a sharded
/// worker that quietly runs the whole grid solo corrupts the experiment
/// it thinks it is contributing to.
fn parse(verb: &Verb, args: &[String]) -> Result<Cli, ExitCode> {
    let mut cli = Cli::default();
    let mut given: Vec<&str> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            cli.operands.push(arg.clone());
            continue;
        }
        let Some(flag) = verb.flags.iter().find(|f| f.name == arg) else {
            eprintln!("mb-lab: unknown {} option '{arg}'", verb.name);
            return Err(usage());
        };
        let value = match (flag.arg, args.next()) {
            ("", _) => "",
            (_, Some(value)) => value,
            (_, None) => {
                let msg = format!("{} requires a value", flag.name);
                return Err(fail(&msg, exit_code::USAGE));
            }
        };
        if (flag.set)(&mut cli, value).is_none() {
            let msg = format!("bad {} '{value}': want {}", flag.name, flag.arg);
            return Err(fail(&msg, exit_code::USAGE));
        }
        given.push(flag.name);
    }
    let (min, max) = verb.arity;
    if !(min..=max).contains(&cli.operands.len()) {
        eprintln!("mb-lab: {} takes {}", verb.name, verb.operands);
        return Err(usage());
    }
    for flag in verb.flags.iter().filter(|f| !given.contains(&f.name)) {
        if flag.required {
            eprintln!("mb-lab: {} requires {} {}", verb.name, flag.name, flag.arg);
            return Err(usage());
        }
        let Some((var, value)) = flag
            .env
            .and_then(|var| Some((var, std::env::var(var).ok()?)))
        else {
            continue;
        };
        if (flag.set)(&mut cli, &value).is_none() {
            eprintln!("mb-lab: bad {var} '{value}': want {}", flag.arg);
            return Err(ExitCode::from(exit_code::ENV_MISCONFIG));
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(verb) = args
        .first()
        .and_then(|name| VERBS.iter().find(|v| v.name == name))
    else {
        return usage();
    };
    match parse(verb, &args[1..]).and_then(verb.run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

/// Prints an error and returns its documented exit code.
fn fail(e: &dyn std::fmt::Display, code: u8) -> ExitCode {
    eprintln!("mb-lab: {e}");
    ExitCode::from(code)
}

/// The server address of a client verb; absent is exit 5.
fn addr(cli: &Cli) -> Result<&str, ExitCode> {
    if cli.addr.is_empty() {
        eprintln!("mb-lab: no server address (pass --addr host:port or set MB_ADDR)");
        return Err(ExitCode::from(exit_code::ENV_MISCONFIG));
    }
    Ok(&cli.addr)
}

/// Reads `MB_SEED` (decimal or `0x`-prefixed hex) into the supervise
/// backoff/chaos seed; absent keeps the policy default. Then locates
/// this very binary, which supervisors spawn as their workers.
fn seed_and_worker(seed: &mut u64) -> Result<PathBuf, ExitCode> {
    if let Ok(v) = std::env::var("MB_SEED") {
        let parsed = match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        };
        *seed = parsed.map_err(|_| {
            eprintln!("mb-lab: bad MB_SEED '{v}': want decimal or 0xHEX");
            ExitCode::from(exit_code::ENV_MISCONFIG)
        })?;
    }
    std::env::current_exe().map_err(|e| {
        eprintln!("mb-lab: cannot locate own binary: {e}");
        ExitCode::from(exit_code::ENV_MISCONFIG)
    })
}

fn cmd_list(_: Cli) -> Outcome {
    for c in campaign::registry() {
        let pinned = match c.pinned_digest() {
            Some(d) => format!("digest {d:#018x}"),
            None => "unpinned".to_string(),
        };
        println!(
            "{:<20} {:>3} tasks  {}  {}",
            c.name(),
            c.task_labels().len(),
            pinned,
            c.description()
        );
    }
    Ok(())
}

fn cmd_run(cli: Cli) -> Outcome {
    let name = &cli.operands[0];
    let c = campaign::find(name).ok_or_else(|| {
        eprintln!("mb-lab: unknown campaign '{name}' (try `mb-lab list`)");
        ExitCode::from(exit_code::ENV_MISCONFIG)
    })?;
    let opts = RunOptions {
        task_delay_ms: cli.policy.supervise.task_delay_ms,
        ..cli.run
    };
    let outcome = driver::run_campaign_with(c.as_ref(), &cli.journal, &opts)
        .map_err(|e| fail(&e, e.exit_code()))?;
    if outcome.recovered_torn_tail {
        eprintln!("mb-lab: dropped a torn journal tail (crash recovery)");
    }
    if cli.times {
        let labels = c.task_labels();
        for &(slot, secs) in &outcome.slot_secs {
            println!("  slot {slot:>4} {:<24} {secs:>9.4}s", labels[slot]);
        }
    }
    if !outcome.slot_secs.is_empty() {
        let total: f64 = outcome.slot_secs.iter().map(|&(_, s)| s).sum();
        let peak = outcome
            .slot_secs
            .iter()
            .map(|&(_, s)| s)
            .fold(0.0_f64, f64::max);
        println!(
            "{}: {} slot(s) in {total:.3}s (mean {:.4}s, max {peak:.4}s)",
            c.name(),
            outcome.slot_secs.len(),
            total / outcome.slot_secs.len() as f64
        );
    }
    print!(
        "{}: shard {}: {} replayed, {} executed",
        c.name(),
        opts.shard,
        outcome.replayed,
        outcome.executed
    );
    if outcome.skipped > 0 {
        print!(", {} skipped (quarantined)", outcome.skipped);
    }
    match outcome.digest {
        Some(d) => println!(", digest {d:#018x}"),
        None if outcome.remaining > 0 => {
            println!(
                ", {} still missing (bounded run; rerun to continue)",
                outcome.remaining
            )
        }
        None => println!(" (partial shard; merge to finalize)"),
    }
    Ok(())
}

fn cmd_supervise(mut cli: Cli) -> Outcome {
    let name = &cli.operands[0];
    let policy = &mut cli.policy.supervise;
    let worker_exe = seed_and_worker(&mut policy.seed)?;
    let report = supervise::supervise(name, &cli.dir, &worker_exe, policy)
        .map_err(|e| fail(&e, e.exit_code()))?;
    let restarts: u32 = report.per_shard.iter().map(|s| s.crashes).sum();
    println!(
        "{name}: supervised {} shard(s): {} ({} restart(s), {} hang(s), {} chaos kill(s))",
        report.shards,
        report.accounting.summary(),
        restarts,
        report.per_shard.iter().map(|s| s.hangs).sum::<u32>(),
        report.chaos_kills
    );
    match report.digest {
        Some(d) if report.digest_checked => {
            println!("merged digest {d:#018x} (pinned digest check: ok)")
        }
        Some(d) => println!("merged digest {d:#018x} (no pin registered)"),
        None => println!(
            "degraded completion: {} slot(s) quarantined, digest withheld",
            report.quarantined.len()
        ),
    }
    println!("report: {}", cli.dir.join("report.json").display());
    Ok(())
}

fn cmd_serve(mut cli: Cli) -> Outcome {
    let worker_exe = seed_and_worker(&mut cli.sup().seed)?;
    let summary =
        serve::serve(&cli.dir, &worker_exe, &cli.policy).map_err(|e| fail(&e, e.exit_code()))?;
    println!(
        "mb-lab serve: exiting: {} job(s) known, {} done, {} failed, {} cancelled, \
         {} left for the next server",
        summary.jobs, summary.done, summary.failed, summary.cancelled, summary.queued_left
    );
    Ok(())
}

fn cmd_submit(cli: Cli) -> Outcome {
    let (campaign_name, shards) = (&cli.operands[0], cli.policy.supervise.shards);
    let (job, queued) =
        client::submit(addr(&cli)?, campaign_name, shards).map_err(|e| fail(&e, e.exit_code()))?;
    println!("submitted {job} ({campaign_name}, {shards} shard(s), queue depth {queued})");
    Ok(())
}

fn print_job(s: &mb_lab::JobStatus) {
    let digest = match s.digest {
        Some(d) => format!("  digest {d:#018x}"),
        None => String::new(),
    };
    println!(
        "{:<6} {:<20} {:>2} shard(s)  {:<9} {:>4}/{:<4}{digest}",
        s.job,
        s.campaign,
        s.shards,
        s.state.as_str(),
        s.done,
        s.total
    );
}

fn cmd_status(cli: Cli) -> Outcome {
    let jobs = client::status(addr(&cli)?, cli.operands.first().map(String::as_str))
        .map_err(|e| fail(&e, e.exit_code()))?;
    jobs.iter().for_each(print_job);
    if cli.operands.is_empty() {
        println!("{} job(s)", jobs.len());
    }
    Ok(())
}

fn cmd_watch(cli: Cli) -> Outcome {
    let job = &cli.operands[0];
    let mut last_done = usize::MAX;
    let outcome = client::watch(addr(&cli)?, job, |done, total, eta_ms| {
        if done != last_done {
            last_done = done;
            match eta_ms {
                Some(eta) => println!(
                    "{job}: {done}/{total} slot(s), eta {:.1}s",
                    eta as f64 / 1000.0
                ),
                None => println!("{job}: {done}/{total} slot(s)"),
            }
        }
    })
    .map_err(|e| fail(&e, e.exit_code()))?;
    let detail = outcome.detail.as_deref();
    match (outcome.state, outcome.digest) {
        (JobState::Done, Some(d)) if outcome.checked => {
            println!("{job}: done, digest {d:#018x} (pinned digest check: ok)")
        }
        (JobState::Done, Some(d)) => println!("{job}: done, digest {d:#018x} (no pin registered)"),
        (JobState::Done, None) => println!(
            "{job}: done (degraded: {})",
            detail.unwrap_or("digest withheld")
        ),
        (state, _) => {
            return Err(fail(
                &format!(
                    "{job} ended {}: {}",
                    state.as_str(),
                    detail.unwrap_or("<no detail>")
                ),
                exit_code::FAILURE,
            ))
        }
    }
    Ok(())
}

fn cmd_cancel(cli: Cli) -> Outcome {
    let snapshot = client::cancel(addr(&cli)?, &cli.operands[0]);
    print_job(&snapshot.map_err(|e| fail(&e, e.exit_code()))?);
    Ok(())
}

fn cmd_fetch(cli: Cli) -> Outcome {
    let (job, out) = (&cli.operands[0], &cli.operands[1]);
    let records =
        client::fetch(addr(&cli)?, job, Path::new(out)).map_err(|e| fail(&e, e.exit_code()))?;
    println!("fetched {records} record(s) -> {out} (chain-verified)");
    Ok(())
}

fn cmd_ping(cli: Cli) -> Outcome {
    let addr = addr(&cli)?;
    client::ping(addr).map_err(|e| fail(&e, e.exit_code()))?;
    println!("{addr}: alive");
    Ok(())
}

fn cmd_shutdown(cli: Cli) -> Outcome {
    let addr = addr(&cli)?;
    let running = client::shutdown(addr).map_err(|e| fail(&e, e.exit_code()))?;
    println!("{addr}: stopping ({running} job(s) draining)");
    Ok(())
}

fn cmd_export(cli: Cli) -> Outcome {
    let (journal_path, segment) = (&cli.operands[0], &cli.operands[1]);
    let seg = transport::export_segment(Path::new(journal_path), cli.from, Path::new(segment))
        .map_err(|e| fail(&e, e.exit_code()))?;
    let end = seg.from + seg.records.len();
    println!(
        "exported {} record(s) [{}..{end}] of {journal_path} -> {segment}",
        seg.records.len(),
        seg.from
    );
    Ok(())
}

fn cmd_ingest(cli: Cli) -> Outcome {
    let (journal_path, segment) = (&cli.operands[0], &cli.operands[1]);
    let out = transport::ingest_segment(Path::new(journal_path), Path::new(segment))
        .map_err(|e| fail(&e, e.exit_code()))?;
    println!(
        "ingested {segment} -> {journal_path}: {} appended, {} duplicate(s) verified",
        out.appended, out.duplicates
    );
    Ok(())
}

fn cmd_merge(cli: Cli) -> Outcome {
    let out = Path::new(&cli.operands[0]);
    let inputs: Vec<PathBuf> = cli.operands[1..].iter().map(PathBuf::from).collect();
    let merged = journal::merge(out, &inputs).map_err(|e| fail(&e, e.exit_code()))?;
    println!(
        "merged {} shard(s) -> {} ({} records, campaign {})",
        inputs.len(),
        out.display(),
        merged.records.len(),
        merged.header.campaign
    );
    Ok(())
}

fn cmd_digest(cli: Cli) -> Outcome {
    let loaded =
        journal::Journal::load(Path::new(&cli.operands[0])).map_err(|e| fail(&e, e.exit_code()))?;
    let digest = driver::digest_journal(&loaded).map_err(|e| fail(&e, e.exit_code()))?;
    let campaign_name = &loaded.header.campaign;
    println!("{campaign_name}: digest {digest:#018x}");
    if let Some(want) = cli.expect.filter(|&want| want != digest) {
        return Err(fail(
            &format!("digest mismatch: got {digest:#018x}, expected {want:#018x}"),
            exit_code::FAILURE,
        ));
    }
    if cli.check {
        match campaign::find(campaign_name).and_then(|c| c.pinned_digest()) {
            Some(want) if want == digest => println!("pinned digest check: ok"),
            Some(want) => {
                return Err(fail(
                    &format!("pinned digest mismatch: got {digest:#018x}, pinned {want:#018x}"),
                    exit_code::FAILURE,
                ))
            }
            None => {
                return Err(fail(
                    &format!("campaign '{campaign_name}' has no pinned digest"),
                    exit_code::FAILURE,
                ))
            }
        }
    }
    Ok(())
}
