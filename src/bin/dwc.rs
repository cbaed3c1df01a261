//! `dwc` — command-line front end for the deep-web crawler.
//!
//! ```text
//! dwc generate <ebay|acm|dblp|imdb> [--scale S] [--seed N] [--out FILE.csv]
//! dwc graph <FILE.csv>
//! dwc crawl <FILE.csv> [--policy bfs|dfs|random|freq|gl|mmmi]
//!           [--seed-value ATTR=VALUE]... [--budget ROUNDS] [--page-size K]
//!           [--cap N] [--coverage F] [--keyword] [--stats] [--trace OUT.csv]
//!           [--journal FILE [--checkpoint-every N]] [--events FILE.jsonl]
//! dwc resume <FILE.csv> --journal FILE [crawl flags]
//! dwc serve <FILE.csv> --seed-value ATTR=VALUE... [--connections N]
//!           [--requests R] [--queue D] [--serve-workers W]
//!           [--latency-us N|MIN:MAX] [--decode-us N] [--deadline MS]
//! ```
//!
//! `generate` writes a synthetic dataset as CSV; `graph` prints the
//! attribute-value-graph statistics of a CSV table (Figure 2 style);
//! `crawl` runs a crawl against an in-process server over the CSV table and
//! reports cost and coverage, optionally journaling the crawl and dumping
//! the per-query trace for plotting.
//!
//! Crash safety: `--journal FILE` persists the crawl in a [`StateJournal`]
//! — a checkpoint base, then one checksummed delta frame per completed
//! query — and `--checkpoint-every N` rebases it atomically every N queries
//! (temp file, fsync, `.bak` rotation, rename), so it holds at most N
//! deltas. After a crash, `dwc resume --journal FILE` recovers the
//! journal's last intact frame (from the `.bak` generation when the
//! primary holds no intact base) and continues the crawl, journaling into
//! the same file. Crawls, fleet restarts and `dwc resume` share that one
//! recovery path.
//!
//! Observability: `--events FILE.jsonl` streams every structured crawl event
//! as one JSON line. Replaying the file through
//! `dwc_core::metrics::replay_report` reconstructs the exact final report —
//! the stream *is* the accounting, not a log of it.
//!
//! Serving tier: `dwc serve` puts the table behind a
//! [`SourceService`] (bounded queue, admission control, modeled latency)
//! and drives open client load against it, reporting throughput, shed rate,
//! and tail latency. `dwc crawl --connect N` routes a crawl through the
//! same service over a pool of N client connections — the protocol-real
//! transport — with `--deadline MS` attaching a per-request deadline.

use deep_web_crawler::core::crawler::StopReason;
use deep_web_crawler::core::serve::SourceService;
use deep_web_crawler::datagen::loader::{load_csv, to_csv};
use deep_web_crawler::model::components::Connectivity;
use deep_web_crawler::model::degree::DegreeDistribution;
use deep_web_crawler::prelude::*;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("graph") => cmd_graph(&args[1..]),
        Some("crawl") => cmd_crawl(&args[1..], false),
        Some("resume") => cmd_crawl(&args[1..], true),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("help") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}; see `dwc help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dwc: {msg}");
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "\
dwc — query-selection crawler for structured web sources

USAGE:
  dwc generate <ebay|acm|dblp|imdb> [--scale S] [--seed N] [--out FILE.csv]
  dwc graph <FILE.csv>
  dwc crawl <FILE.csv> [--policy bfs|dfs|random|freq|gl|mmmi]
            [--seed-value ATTR=VALUE]... [--budget ROUNDS] [--page-size K]
            [--cap N] [--coverage F] [--keyword] [--stats] [--trace OUT.csv]
            [--journal FILE [--checkpoint-every N]] [--mem-budget MB]
            [--events FILE.jsonl]
            [--connect N] [--deadline MS] [--queue D] [--serve-workers W]
            [--latency-us N|MIN:MAX] [--decode-us N]
  dwc resume <FILE.csv> --journal FILE [crawl flags]
  dwc fleet <FILE.csv> --seed-value ATTR=VALUE... [--workers N]
            [--policy bfs|dfs|random|freq|gl|mmmi] [--budget ROUNDS]
            [--slice ROUNDS] [--allocation even|harvest|weighted-fair]
            [--tenants W[:QUOTA[:PRIO]],...] [--page-size K]
            [--mem-budget MB]
  dwc serve <FILE.csv> --seed-value ATTR=VALUE... [--connections N]
            [--requests R] [--queue D] [--serve-workers W]
            [--latency-us N|MIN:MAX] [--decode-us N] [--deadline MS]
            [--page-size K]
  dwc chaos <FILE.csv> --seed-value ATTR=VALUE... [--policy P] [--budget R]
            [--page-size K] [--chaos-seed N] [--chaos-rate F]
            [--chaos-horizon N] [--chaos-kind K[,K...]] [--chaos-plan SPEC]
            [--connect N] [--serve-workers W] [--queue D] [--hedge-us N]
  dwc help

Crash safety: --journal FILE persists the crawl as a checksummed frame
log: a checkpoint base, then one delta frame per completed query.
--checkpoint-every N rebases it every N queries, atomically (temp file,
fsync, rename; the previous generation is kept as FILE.bak), so the
journal holds at most N deltas; without it the journal is never rebased.
After a crash, `dwc resume --journal FILE` restarts from the journal's
last intact frame (from FILE.bak when FILE has no intact base): a kill
loses at most the query in flight.

Out-of-core storage: --mem-budget MB packs the table into file-backed
segments and serves it through a sized buffer pool; three quarters of the
budget go to the segment page pool, one quarter to the rendered-page
cache. Reports are bit-identical to the resident backend — only RSS
changes.

Observability: --events streams the crawl's structured event log as JSONL;
replaying it reconstructs the final report figure for figure.

Fleet scheduling: `dwc fleet` runs one crawl job per --seed-value against a
shared in-process server, multiplexed onto a bounded pool of --workers
threads that drain one FIFO queue of budget slices (default: available
parallelism, capped at the job count; --workers 0 is rejected). --workers
and --allocation apply to `dwc fleet` only.

Multi-tenancy: `dwc fleet --tenants SPEC` runs the fleet under a tenant
registry — comma-separated WEIGHT[:QUOTA[:PRIO]] entries, ids 0..n, jobs
assigned round-robin (job i → tenant i mod n). With `--allocation
weighted-fair` the round budget is divided by deficit round-robin over
tenant weights; QUOTA caps a tenant's total rounds (its jobs are parked at
the next slice boundary once reached) and PRIO orders dispatch within a
cycle. The report gains a per-tenant usage ledger (rounds, pages,
preemptions) whose rounds sum exactly to the fleet's total rounds.

Serving tier: `dwc serve` puts the table behind a request/response service
(bounded --queue, admission control, --latency-us service times, per-record
--decode-us cost, --deadline MS deadlines) and hammers it with --connections
closed-loop clients, reporting req/s, shed rate, and p50/p95/p99 latency.
`dwc crawl --connect N` drives the crawl itself through that service over a
round-robin pool of N connections; the crawl report is identical to the
in-process transport, and shed/cancelled requests are billed as rounds.

Chaos testing: `dwc chaos` interposes a deterministic lossy wire between
the crawl and the service. --chaos-plan takes an exact frame:kind schedule
(e.g. \"12:drop,40:stall\"; kinds: drop dup reorder corrupt stall disconnect
crash halt); otherwise a schedule is drawn from --chaos-seed / --chaos-rate
/ --chaos-horizon / --chaos-kind. The run checks the chaos invariants
(report absorption, billing conservation, replay parity) against a
fault-free baseline; a violated schedule is ddmin-shrunk and reprinted as a
reproducible --chaos-plan invocation. --hedge-us enables client hedging.
";

/// Parsed command line: positional arguments plus accumulated `--flag value`
/// pairs.
type ParsedArgs = (Vec<String>, Vec<(String, String)>);

/// Tiny flag parser: returns (positional args, flag map); repeatable flags
/// accumulate.
fn parse_flags(args: &[String]) -> Result<ParsedArgs, String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if name == "keyword" || name == "stats" {
                flags.push((name.to_string(), "true".to_string()));
                continue;
            }
            let value =
                it.next().ok_or_else(|| format!("flag --{name} needs a value"))?.to_string();
            flags.push((name.to_string(), value));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

/// Parses `--workers`, rejecting 0 right at the command line — a zero-thread
/// pool is always a mistake, not something to clamp silently.
fn parse_workers(flags: &[(String, String)]) -> Result<Option<usize>, String> {
    match flag(flags, "workers") {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(0) | Err(_) => Err("--workers must be a positive thread count".into()),
            Ok(w) => Ok(Some(w)),
        },
    }
}

/// Parses `--mem-budget MB`, rejecting 0 right at the command line — a
/// zero-byte budget can cache nothing and is always a spec error.
fn parse_mem_budget(flags: &[(String, String)]) -> Result<Option<u64>, String> {
    match flag(flags, "mem-budget") {
        None => Ok(None),
        Some(v) => match v.parse::<u64>() {
            Ok(0) | Err(_) => Err("--mem-budget must be a positive MiB count".into()),
            Ok(mb) => Ok(Some(mb)),
        },
    }
}

/// The out-of-core serving `--mem-budget MB` asks for: the budget, and a
/// directory made fresh for this run's segment files. Dropping it removes
/// the directory with the segments in it, so bind it before the server it
/// backs: the server, and its open segment files, go first.
struct Paging {
    mb: u64,
    dir: PathBuf,
}

impl Paging {
    /// Creates `dwc-segments-<pid>-<n>` in the temp directory.
    fn create(mb: u64) -> Result<Self, String> {
        Ok(Paging { mb, dir: fresh_segment_dir(&std::env::temp_dir())? })
    }
}

impl Drop for Paging {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Creates `dwc-segments-<pid>-<n>` under `parent` for the first `n` whose
/// directory does not exist yet, so segments that an earlier process with
/// the same pid left behind are never reopened.
fn fresh_segment_dir(parent: &Path) -> Result<PathBuf, String> {
    let pid = std::process::id();
    for n in 0..1000 {
        let dir = parent.join(format!("dwc-segments-{pid}-{n}"));
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
            Err(e) => return Err(format!("creating {}: {e}", dir.display())),
        }
    }
    Err(format!("no free dwc-segments-{pid}-N directory in {}", parent.display()))
}

/// Builds the serving backend. Without `--mem-budget` the table is served
/// resident, exactly as before. With it, the table is packed into
/// file-backed segments and served out-of-core, the buffer pool and the
/// rendered-page cache both sized from the one budget
/// ([`dwc_store::MemoryBudget`]'s 3/4 : 1/4 split) — query semantics,
/// billing, and rendered bytes are identical either way.
fn build_server(
    table: UniversalTableHandle,
    interface: InterfaceSpec,
    paging: Option<&Paging>,
) -> Result<WebDbServer, String> {
    use deep_web_crawler::store::{FilePager, MemoryBudget, SegmentTable, DEFAULT_PAGE_SIZE};
    let Some(Paging { mb, dir }) = paging else { return Ok(WebDbServer::new(table, interface)) };
    let budget = MemoryBudget::from_mb(*mb);
    let pager = FilePager::open(dir, DEFAULT_PAGE_SIZE)
        .map_err(|e| format!("opening segment dir {}: {e}", dir.display()))?;
    let seg = SegmentTable::from_table(&table, Box::new(pager), budget.pool_bytes())
        .map_err(|e| format!("packing segments: {e}"))?;
    eprintln!(
        "paged backend: {} records, {} KiB on disk in {} ({mb} MiB budget)",
        seg.num_records(),
        seg.storage_bytes() / 1024,
        dir.display()
    );
    Ok(WebDbServer::paged(std::sync::Arc::new(seg), interface)
        .with_page_cache(budget.page_cache_entries()))
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let (pos, flags) = parse_flags(args)?;
    let preset = match pos.first().map(String::as_str) {
        Some("ebay") => Preset::Ebay,
        Some("acm") => Preset::Acm,
        Some("dblp") => Preset::Dblp,
        Some("imdb") => Preset::Imdb,
        other => return Err(format!("unknown preset {other:?} (ebay|acm|dblp|imdb)")),
    };
    let scale: f64 = flag(&flags, "scale").unwrap_or("0.01").parse().map_err(|_| "bad --scale")?;
    let seed: u64 = flag(&flags, "seed").unwrap_or("1").parse().map_err(|_| "bad --seed")?;
    let table = preset.table(scale, seed);
    let csv = to_csv(&table);
    match flag(&flags, "out") {
        Some(path) => {
            std::fs::write(path, &csv).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote {} records ({} distinct values) to {path}",
                table.num_records(),
                table.num_distinct_values()
            );
        }
        None => print!("{csv}"),
    }
    Ok(())
}

fn cmd_graph(args: &[String]) -> Result<(), String> {
    let (pos, _) = parse_flags(args)?;
    let path = pos.first().ok_or("graph needs a CSV file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let table = load_csv(&text).map_err(|e| e.to_string())?;
    let graph = AvGraph::from_table(&table);
    let dd = DegreeDistribution::of_graph(&graph);
    let conn = Connectivity::analyze(&table);
    println!("records            : {}", table.num_records());
    println!("distinct values    : {}", table.num_distinct_values());
    println!("AVG edges          : {}", graph.num_edges());
    println!("max / mean degree  : {} / {:.2}", dd.max_degree(), dd.mean_degree());
    println!("largest component  : {:.1}% of records", conn.largest_component_coverage() * 100.0);
    if let Some(fit) = dd.power_law_fit() {
        println!(
            "power-law fit      : slope {:.3}, intercept {:.3}, R² {:.3}",
            fit.slope, fit.intercept, fit.r_squared
        );
    }
    Ok(())
}

fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    Ok(match name {
        "bfs" => PolicyKind::Bfs,
        "dfs" => PolicyKind::Dfs,
        "random" => PolicyKind::Random(7),
        "freq" => PolicyKind::FreqGreedy,
        "gl" => PolicyKind::GreedyLink,
        "mmmi" => PolicyKind::Mmmi(MmmiConfig {
            trigger: Saturation::HarvestWindow { window: 32, threshold: 0.25 },
            batch: 50,
        }),
        other => return Err(format!("unknown policy {other:?} (bfs|dfs|random|freq|gl|mmmi)")),
    })
}

fn cmd_crawl(args: &[String], resume: bool) -> Result<(), String> {
    let (pos, flags) = parse_flags(args)?;
    // Unknown flags are otherwise ignored; a retired persistence flag must
    // not leave a crawl silently unpersisted, nor a fleet flag silently
    // unapplied.
    let retired =
        |n: &str| n == "resume" || (n.starts_with("checkpoint") && n != "checkpoint-every");
    if let Some((name, _)) = flags.iter().find(|(n, _)| retired(n)) {
        return Err(format!("--{name} is retired: persist with --journal FILE, then `dwc resume`"));
    }
    if let Some((name, _)) = flags.iter().find(|(n, _)| n == "workers" || n == "allocation") {
        return Err(format!("--{name} applies to `dwc fleet` only"));
    }
    let path = pos.first().ok_or("crawl needs a CSV file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let table = load_csv(&text).map_err(|e| e.to_string())?;
    let n = table.num_records();

    let policy = parse_policy(flag(&flags, "policy").unwrap_or("gl"))?;
    let page_size: usize =
        flag(&flags, "page-size").unwrap_or("10").parse().map_err(|_| "bad --page-size")?;
    let mut interface = InterfaceSpec::permissive(table.schema(), page_size);
    if let Some(cap) = flag(&flags, "cap") {
        interface = interface.with_result_cap(cap.parse().map_err(|_| "bad --cap")?);
    }
    let mut builder = CrawlConfig::builder().known_target_size(n);
    if let Some(b) = flag(&flags, "budget") {
        builder = builder.max_rounds(b.parse().map_err(|_| "bad --budget")?);
    }
    if let Some(c) = flag(&flags, "coverage") {
        builder = builder.target_coverage(c.parse().map_err(|_| "bad --coverage")?);
    }
    if flag(&flags, "keyword").is_some() {
        builder = builder.query_mode(QueryMode::Keyword);
    }
    if let Some(ms) = flag(&flags, "deadline") {
        let ms: u64 = ms.parse().map_err(|_| "bad --deadline")?;
        builder = builder.deadline(std::time::Duration::from_millis(ms));
    }
    let journal = flag(&flags, "journal");
    if let Some(journal) = journal {
        builder = builder.journal_path(journal);
    } else if resume {
        return Err("resume needs --journal FILE".into());
    }
    if let Some(every) = flag(&flags, "checkpoint-every") {
        if journal.is_none() {
            return Err("--checkpoint-every needs --journal FILE".into());
        }
        builder = builder.checkpoint_every(every.parse().map_err(|_| "bad --checkpoint-every")?);
    }
    let mem_budget = parse_mem_budget(&flags)?;
    let config = builder.build().map_err(|e| e.to_string())?;

    let paging = mem_budget.map(Paging::create).transpose()?;
    let server = build_server(table, interface, paging.as_ref())?;

    if let Some(connections) = parse_connect(&flags)? {
        if resume {
            return Err("--connect applies to fresh crawls, not resume".into());
        }
        let config_serve = parse_serve_flags(&flags)?.build().map_err(|e| e.to_string())?;
        let service = SourceService::start(std::sync::Arc::new(server), config_serve);
        let pool = service.connect_pool(connections).map_err(|e| e.to_string())?;
        let mut crawler = Crawler::new(pool, policy.build(), config);
        seed_crawler(&mut crawler, &seed_values(&flags, CRAWL_NEEDS_SEEDS)?)?;
        run_and_report(crawler, &flags, n)?;
        let served = service.shutdown();
        eprintln!(
            "service   : {} completed / {} shed ({:.1}% of offered) / {} cancelled",
            served.completed,
            served.shed,
            served.shed_rate() * 100.0,
            served.cancelled
        );
        eprintln!(
            "latency   : p50 {}us  p95 {}us  p99 {}us  max {}us (queue depth max {})",
            served.p50_latency_us,
            served.p95_latency_us,
            served.p99_latency_us,
            served.max_latency_us,
            served.max_queue_depth
        );
        return Ok(());
    }

    let crawler = match journal.filter(|_| resume) {
        Some(path) => {
            let rec = StateJournal::recover(std::path::Path::new(path))
                .map_err(|e| format!("recovering {path}: {e}"))?
                .ok_or_else(|| format!("journal {path} holds no crawl state"))?;
            eprintln!(
                "resumed from journal {path}{}: base + {} deltas{}",
                if rec.from_backup { ".bak (no intact base in the primary)" } else { "" },
                rec.deltas_applied,
                if rec.torn { " (torn tail discarded)" } else { "" }
            );
            let cp = rec.checkpoint;
            eprintln!("resuming at {} records / {} rounds", cp.records.len(), cp.rounds);
            Crawler::resume(&server, policy.build(), &cp, config)
        }
        None => {
            let mut crawler = Crawler::new(&server, policy.build(), config);
            seed_crawler(&mut crawler, &seed_values(&flags, CRAWL_NEEDS_SEEDS)?)?;
            crawler
        }
    };

    run_and_report(crawler, &flags, n)
}

/// `dwc crawl`'s error when a fresh crawl has no seed.
const CRAWL_NEEDS_SEEDS: &str = "crawl needs at least one --seed-value ATTR=VALUE";

/// Every `--seed-value ATTR=VALUE` as an `(attr, value)` pair, split at the
/// first `=`; `missing` is the subcommand's error when there is none.
fn seed_values(flags: &[(String, String)], missing: &str) -> Result<Vec<(String, String)>, String> {
    let seeds: Vec<(String, String)> = flags
        .iter()
        .filter(|(name, _)| name == "seed-value")
        .map(|(_, value)| {
            value
                .split_once('=')
                .map(|(a, v)| (a.to_string(), v.to_string()))
                .ok_or_else(|| format!("--seed-value wants ATTR=VALUE, got {value:?}"))
        })
        .collect::<Result<_, _>>()?;
    if seeds.is_empty() {
        return Err(missing.into());
    }
    Ok(seeds)
}

/// Adds every seed to the crawler.
fn seed_crawler<S: deep_web_crawler::core::DataSource>(
    crawler: &mut Crawler<S>,
    seeds: &[(String, String)],
) -> Result<(), String> {
    for (attr, value) in seeds {
        if !crawler.add_seed(attr, value) {
            return Err(format!("seed attribute {attr:?} is unknown or not queriable"));
        }
    }
    Ok(())
}

/// Runs a constructed crawl to its stop condition and prints the report —
/// generic over the transport, so the in-process and `--connect` paths share
/// the event streaming and reporting verbatim.
fn run_and_report<S: deep_web_crawler::core::DataSource>(
    mut crawler: Crawler<S>,
    flags: &[(String, String)],
    n: usize,
) -> Result<(), String> {
    // Run manually so the stop reason can be explained.
    if let Some(events_path) = flag(flags, "events") {
        let file = std::fs::File::create(events_path)
            .map_err(|e| format!("creating {events_path}: {e}"))?;
        crawler.add_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(file))));
        eprintln!("streaming events to {events_path}");
    }
    let stop = loop {
        if let Some(reason) = crawler.budget_stop() {
            let why = match reason {
                StopReason::RoundBudget => {
                    format!("round budget {} exhausted", crawler.max_rounds().unwrap_or_default())
                }
                StopReason::CoverageReached => format!(
                    "coverage target {} reached",
                    crawler.target_coverage().unwrap_or_default()
                ),
                other => other.as_str().replace('_', " "),
            };
            eprintln!("stopping: {why}");
            break reason;
        }
        if crawler.step().is_none() {
            eprintln!("stopping: frontier exhausted");
            break StopReason::FrontierExhausted;
        }
    };
    if let Some(path) = flag(flags, "journal") {
        eprintln!("journal {path}: {} periodic rebases", crawler.checkpoints_written());
    }
    if flag(flags, "stats").is_some() {
        println!(
            "{}",
            deep_web_crawler::core::report::CrawlSummary::from_state(crawler.state(), 10)
        );
    }
    let report = crawler.into_report(stop);
    if let Some(trace_path) = flag(flags, "trace") {
        std::fs::write(trace_path, report.trace.to_csv())
            .map_err(|e| format!("writing {trace_path}: {e}"))?;
        eprintln!("trace written to {trace_path}");
    }
    println!("records   : {} / {}", report.records, n);
    println!("coverage  : {:.1}%", report.final_coverage.unwrap_or(0.0) * 100.0);
    println!("queries   : {}", report.queries);
    println!("rounds    : {}", report.rounds);
    println!("aborted   : {}", report.aborted_queries);
    Ok(())
}

/// Parses `--connect`, rejecting 0 — a protocol crawl needs at least one
/// connection.
fn parse_connect(flags: &[(String, String)]) -> Result<Option<usize>, String> {
    match flag(flags, "connect") {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(0) | Err(_) => Err("--connect must be a positive connection count".into()),
            Ok(c) => Ok(Some(c)),
        },
    }
}

/// Builds the serving-tier config from `--queue`, `--serve-workers`,
/// `--latency-us N|MIN:MAX`, `--decode-us`, and `--serve-seed`; the caller
/// finishes the builder (so `dwc serve` can attach `--deadline` as the
/// service-side default while `dwc crawl` keeps it on the crawl config).
fn parse_serve_flags(
    flags: &[(String, String)],
) -> Result<deep_web_crawler::core::serve::ServeConfigBuilder, String> {
    use std::time::Duration;
    let mut builder = ServeConfig::builder();
    if let Some(q) = flag(flags, "queue") {
        builder = builder.queue_depth(q.parse().map_err(|_| "bad --queue")?);
    }
    if let Some(w) = flag(flags, "serve-workers") {
        builder = builder.workers(w.parse().map_err(|_| "bad --serve-workers")?);
    }
    if let Some(spec) = flag(flags, "latency-us") {
        let model = match spec.split_once(':') {
            Some((lo, hi)) => LatencyModel::Uniform {
                min: Duration::from_micros(lo.parse().map_err(|_| "bad --latency-us")?),
                max: Duration::from_micros(hi.parse().map_err(|_| "bad --latency-us")?),
            },
            None => LatencyModel::Fixed(Duration::from_micros(
                spec.parse().map_err(|_| "bad --latency-us")?,
            )),
        };
        builder = builder.latency(model);
    }
    if let Some(d) = flag(flags, "decode-us") {
        builder = builder
            .decode_per_record(Duration::from_micros(d.parse().map_err(|_| "bad --decode-us")?));
    }
    if let Some(seed) = flag(flags, "serve-seed") {
        builder = builder.seed(seed.parse().map_err(|_| "bad --serve-seed")?);
    }
    Ok(builder)
}

/// `dwc serve`: closed-loop load generator against the serving tier — N
/// client connections hammer the service with the given queries, then the
/// run reports throughput, shed rate, and tail latency. Sized so that
/// `--connections` well above `--serve-workers` overloads the queue and the
/// shed rate becomes visible — the backpressure demo in one command.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    let (pos, flags) = parse_flags(args)?;
    let path = pos.first().ok_or("serve needs a CSV file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let table = load_csv(&text).map_err(|e| e.to_string())?;
    let page_size: usize =
        flag(&flags, "page-size").unwrap_or("10").parse().map_err(|_| "bad --page-size")?;
    let interface = InterfaceSpec::permissive(table.schema(), page_size);

    let queries: Vec<Query> =
        seed_values(&flags, "serve needs at least one --seed-value ATTR=VALUE to query")?
            .into_iter()
            .map(|(attr, value)| Query::ByString { attr, value })
            .collect();
    let connections: usize = match flag(&flags, "connections").unwrap_or("4").parse() {
        Ok(0) | Err(_) => return Err("--connections must be a positive count".into()),
        Ok(c) => c,
    };
    let requests: usize =
        flag(&flags, "requests").unwrap_or("200").parse().map_err(|_| "bad --requests")?;
    let mut serve_builder = parse_serve_flags(&flags)?;
    if let Some(ms) = flag(&flags, "deadline") {
        let ms: u64 = ms.parse().map_err(|_| "bad --deadline")?;
        serve_builder = serve_builder.default_deadline(Duration::from_millis(ms));
    }
    let config = serve_builder.build().map_err(|e| e.to_string())?;

    let server = Arc::new(WebDbServer::new(table, interface));
    let service = SourceService::start(server, config);
    let start = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            let conn = service.connect();
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut failed = 0u64;
                for i in 0..requests {
                    let q = &queries[(c + i) % queries.len()];
                    match conn.respond(&SourceRequest::new(q, 0, ProberMode::Wire), &mut |_| {}) {
                        Ok(_) | Err(CrawlError::Rejected) | Err(CrawlError::Cancelled) => {}
                        Err(_) => failed += 1,
                    }
                }
                failed
            })
        })
        .collect();
    let mut failed = 0u64;
    for handle in handles {
        failed += handle.join().expect("client thread");
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let report = service.shutdown();
    println!(
        "offered    : {} ({} connections x {} requests)",
        report.offered(),
        connections,
        requests
    );
    println!("completed  : {} ({:.0} req/s)", report.completed, report.completed as f64 / elapsed);
    println!("shed       : {} ({:.1}% of offered)", report.shed, report.shed_rate() * 100.0);
    println!("cancelled  : {}", report.cancelled);
    if failed > 0 {
        println!("failed     : {failed}");
    }
    println!("queue depth: max {} / mean {:.2}", report.max_queue_depth, report.mean_queue_depth);
    println!(
        "latency    : p50 {}us  p95 {}us  p99 {}us  max {}us",
        report.p50_latency_us, report.p95_latency_us, report.p99_latency_us, report.max_latency_us
    );
    Ok(())
}

/// One chaos crawl: the table behind a [`SourceService`], a seeded lossy
/// wire on every pooled connection, and the crawl driven through it.
fn chaos_crawl(
    table: &UniversalTableHandle,
    plan: &ChaosPlan,
    opts: &ChaosOptions,
) -> Result<ChaosRun, String> {
    use std::sync::Arc;
    let interface = InterfaceSpec::permissive(table.schema(), opts.page_size);
    let inner = Arc::new(WebDbServer::new(table.clone(), interface));
    let serve_config = ServeConfig::builder()
        .queue_depth(opts.queue_depth)
        .workers(opts.serve_workers)
        .build()
        .map_err(|e| e.to_string())?;
    let service = SourceService::start(Arc::clone(&inner), serve_config);
    let sink = MemorySink::new();
    service.add_sink(Box::new(sink.clone()));
    let chaos = Arc::new(ChaosState::new(plan.clone()));
    let mut pool = service
        .connect_pool(opts.connections)
        .map_err(|e| e.to_string())?
        .with_chaos(Arc::clone(&chaos));
    if let Some(threshold) = opts.hedge {
        pool = pool.with_hedging(threshold);
    }
    let mut crawler = Crawler::new(&pool, opts.policy.build(), opts.crawl.clone());
    seed_crawler(&mut crawler, &opts.seeds)?;
    let report = crawler.run();
    // Chaos duplicates and losing hedges may still be draining; wait until
    // every admitted request is accounted for before reading the bill.
    loop {
        let r = service.service_report();
        if r.enqueued == r.completed + r.cancelled {
            break;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let rounds_used = pool.rounds_used();
    drop(pool);
    let service_report = service.shutdown();
    Ok(ChaosRun {
        report,
        service: service_report,
        replayed: deep_web_crawler::core::replay_service_report(&sink.collected()),
        executed: inner.rounds_used(),
        rounds_used,
        frames: chaos.frames_sent(),
        tally: chaos.tally(),
    })
}

/// The table type `load_csv` yields, aliased so `chaos_crawl` can clone it
/// per run.
type UniversalTableHandle = deep_web_crawler::model::UniversalTable;

struct ChaosOptions {
    seeds: Vec<(String, String)>,
    policy: PolicyKind,
    crawl: CrawlConfig,
    page_size: usize,
    connections: usize,
    serve_workers: usize,
    queue_depth: usize,
    hedge: Option<std::time::Duration>,
}

/// `dwc chaos`: a crawl through the serving tier behind a deterministic
/// lossy wire, with the chaos invariants checked against a fault-free
/// baseline and ddmin shrinking on violation.
fn cmd_chaos(args: &[String]) -> Result<(), String> {
    use std::time::Duration;
    let (pos, flags) = parse_flags(args)?;
    let path = pos.first().ok_or("chaos needs a CSV file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let table = load_csv(&text).map_err(|e| e.to_string())?;
    let n = table.num_records();

    let policy = parse_policy(flag(&flags, "policy").unwrap_or("gl"))?;
    let page_size: usize =
        flag(&flags, "page-size").unwrap_or("10").parse().map_err(|_| "bad --page-size")?;
    let mut builder = CrawlConfig::builder().known_target_size(n).prober(ProberMode::Wire);
    if let Some(b) = flag(&flags, "budget") {
        builder = builder.max_rounds(b.parse().map_err(|_| "bad --budget")?);
    }
    let crawl = builder.build().map_err(|e| e.to_string())?;

    let seeds = seed_values(&flags, "chaos needs at least one --seed-value ATTR=VALUE")?;

    let opts = ChaosOptions {
        seeds,
        policy,
        crawl,
        page_size,
        connections: parse_connect(&flags)?.unwrap_or(1),
        serve_workers: flag(&flags, "serve-workers")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "bad --serve-workers")?,
        queue_depth: flag(&flags, "queue").unwrap_or("32").parse().map_err(|_| "bad --queue")?,
        hedge: flag(&flags, "hedge-us")
            .map(|v| v.parse::<u64>().map_err(|_| "bad --hedge-us"))
            .transpose()?
            .map(Duration::from_micros),
    };

    let (plan, origin) = match flag(&flags, "chaos-plan") {
        Some(spec) => (ChaosPlan::from_spec(spec).map_err(|e| e.to_string())?, "explicit plan"),
        None => {
            let seed: u64 = flag(&flags, "chaos-seed")
                .unwrap_or("1")
                .parse()
                .map_err(|_| "bad --chaos-seed")?;
            let rate: f64 = flag(&flags, "chaos-rate")
                .unwrap_or("0.1")
                .parse()
                .map_err(|_| "bad --chaos-rate")?;
            let horizon: u64 = flag(&flags, "chaos-horizon")
                .unwrap_or("256")
                .parse()
                .map_err(|_| "bad --chaos-horizon")?;
            let kinds: Vec<ChaosKind> = match flag(&flags, "chaos-kind") {
                None => ChaosKind::ALL.to_vec(),
                Some(tokens) => tokens
                    .split(',')
                    .map(|t| {
                        ChaosKind::parse(t.trim())
                            .ok_or_else(|| format!("unknown chaos kind {t:?}"))
                    })
                    .collect::<Result<_, _>>()?,
            };
            (ChaosPlan::seeded(seed, horizon, rate, &kinds), "seeded plan")
        }
    };

    // Fault-free baseline, same crawl, in process.
    let baseline = {
        let interface = InterfaceSpec::permissive(table.schema(), opts.page_size);
        let server = WebDbServer::new(table.clone(), interface);
        let mut crawler = Crawler::new(&server, opts.policy.build(), opts.crawl.clone());
        seed_crawler(&mut crawler, &opts.seeds)?;
        crawler.run()
    };

    let run = chaos_crawl(&table, &plan, &opts)?;
    eprintln!("chaos      : {origin}, {} fault(s) over {} wire frames", plan.len(), run.frames);
    eprintln!(
        "injected   : {} dropped / {} dup / {} corrupt / {} stalled / {} reordered / {} \
         disconnects / {} crashes{}",
        run.tally.dropped,
        run.tally.duplicated,
        run.tally.corrupted,
        run.tally.stalled,
        run.tally.reordered,
        run.tally.disconnects,
        run.tally.crashes,
        if run.tally.halted { " / HALTED" } else { "" }
    );
    println!("records    : {} / {} (baseline {})", run.report.records, n, baseline.records);
    println!("rounds     : crawl {} / billed {}", run.report.rounds, run.rounds_used);
    println!(
        "service    : {} completed / {} retransmitted / {} shed / {} cancelled / {} restarts / \
         {} hedged",
        run.service.completed,
        run.service.retransmitted,
        run.service.shed,
        run.service.cancelled,
        run.service.restarts,
        run.service.hedged
    );

    match run.violation(&plan, &baseline) {
        None => {
            println!("invariants : absorption, conservation, replay parity — all hold");
            Ok(())
        }
        Some(why) => {
            eprintln!("invariant violated: {why}");
            eprintln!("shrinking the schedule (ddmin)...");
            let shrunk = shrink_plan(&plan, |p| {
                chaos_crawl(&table, p, &opts).is_ok_and(|run| run.violation(p, &baseline).is_some())
            });
            Err(format!(
                "{why}\nshrunk to {} fault(s); reproduce with:\n  dwc chaos {} --chaos-plan \
                 \"{}\"",
                shrunk.len(),
                path,
                shrunk.to_spec()
            ))
        }
    }
}

/// Parses `--allocation even|harvest|weighted-fair`; anything else is
/// rejected at parse time.
fn parse_allocation(flags: &[(String, String)]) -> Result<Option<AllocationStrategy>, String> {
    match flag(flags, "allocation") {
        None => Ok(None),
        Some("even") => Ok(Some(AllocationStrategy::Even)),
        Some("harvest") => Ok(Some(AllocationStrategy::HarvestProportional)),
        Some("weighted-fair") => Ok(Some(AllocationStrategy::WeightedFair)),
        Some(other) => Err(format!("unknown allocation {other:?} (even|harvest|weighted-fair)")),
    }
}

/// Parses a `--tenants SPEC`: comma-separated `WEIGHT[:QUOTA[:PRIORITY]]`
/// entries, assigned tenant ids 0..n in order. Fleet jobs are mapped onto
/// the registry round-robin (job i → tenant i mod n).
fn parse_tenants(spec: &str) -> Result<Vec<Tenant>, String> {
    spec.split(',')
        .enumerate()
        .map(|(id, entry)| {
            let mut parts = entry.split(':');
            let weight: u32 = parts
                .next()
                .unwrap_or("")
                .parse()
                .map_err(|_| format!("bad tenant weight in {entry:?}"))?;
            let mut tenant = Tenant::new(id as u32).with_weight(weight);
            if let Some(quota) = parts.next() {
                tenant = tenant.with_quota(
                    quota.parse().map_err(|_| format!("bad tenant quota in {entry:?}"))?,
                );
            }
            if let Some(priority) = parts.next() {
                tenant = tenant.with_priority(
                    priority.parse().map_err(|_| format!("bad tenant priority in {entry:?}"))?,
                );
            }
            if parts.next().is_some() {
                return Err(format!(
                    "tenant entry {entry:?} has too many fields (WEIGHT[:QUOTA[:PRIORITY]])"
                ));
            }
            Ok(tenant)
        })
        .collect()
}

/// `dwc fleet`: one crawl job per `--seed-value`, all against a shared
/// in-process server, multiplexed onto the bounded worker pool.
fn cmd_fleet(args: &[String]) -> Result<(), String> {
    use std::sync::Arc;
    let (pos, flags) = parse_flags(args)?;
    let path = pos.first().ok_or("fleet needs a CSV file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let table = load_csv(&text).map_err(|e| e.to_string())?;
    let n = table.num_records();
    let policy = parse_policy(flag(&flags, "policy").unwrap_or("gl"))?;
    let page_size: usize =
        flag(&flags, "page-size").unwrap_or("10").parse().map_err(|_| "bad --page-size")?;
    let interface = InterfaceSpec::permissive(table.schema(), page_size);

    let seeds =
        seed_values(&flags, "fleet needs at least one --seed-value ATTR=VALUE (one job per seed)")?;

    let mut fleet = FleetConfig::builder();
    if let Some(w) = parse_workers(&flags)? {
        fleet = fleet.workers(w);
    }
    if let Some(b) = flag(&flags, "budget") {
        fleet = fleet.total_rounds(b.parse().map_err(|_| "bad --budget")?);
    }
    if let Some(s) = flag(&flags, "slice") {
        fleet = fleet.slice(s.parse().map_err(|_| "bad --slice")?);
    }
    if let Some(allocation) = parse_allocation(&flags)? {
        fleet = fleet.allocation(allocation);
    }
    let tenants = match flag(&flags, "tenants") {
        Some(spec) => parse_tenants(spec)?,
        None => Vec::new(),
    };
    if !tenants.is_empty() {
        fleet = fleet.tenants(tenants.clone());
    }
    let fleet = fleet.build().map_err(|e| e.to_string())?;

    let paging = parse_mem_budget(&flags)?.map(Paging::create).transpose()?;
    let shared = Arc::new(build_server(table, interface, paging.as_ref())?);
    let config = CrawlConfig::builder().known_target_size(n).build().map_err(|e| e.to_string())?;
    let jobs: Vec<FleetJob<Arc<WebDbServer>>> = seeds
        .into_iter()
        .enumerate()
        .map(|(i, seed)| FleetJob {
            source: Arc::clone(&shared),
            policy: policy.clone(),
            seeds: vec![seed],
            config: config.clone(),
            resume: None,
            tenant: (!tenants.is_empty()).then(|| tenants[i % tenants.len()].id),
        })
        .collect();
    eprintln!("fleet: {} jobs on {} pool workers", jobs.len(), fleet.resolved_workers(jobs.len()));
    let report = run_fleet(jobs, fleet);
    print!("{report}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_dirs_are_fresh_and_removed_on_drop() {
        let parent = std::env::temp_dir().join(format!("dwc-bin-{}-fresh", std::process::id()));
        let _ = std::fs::remove_dir_all(&parent);
        // An earlier process with this pid left a segment file behind.
        let stale = parent.join(format!("dwc-segments-{}-0", std::process::id()));
        std::fs::create_dir_all(&stale).unwrap();
        std::fs::write(stale.join("seg-0"), b"stale").unwrap();
        let dir = fresh_segment_dir(&parent).unwrap();
        assert_ne!(dir, stale, "an existing directory is never reused");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "the new directory is empty");
        drop(Paging { mb: 4, dir: dir.clone() });
        assert!(!dir.exists(), "dropping the paging removes its directory");
        assert!(stale.join("seg-0").exists(), "another run's directory is left alone");
        std::fs::remove_dir_all(&parent).unwrap();
    }
}
