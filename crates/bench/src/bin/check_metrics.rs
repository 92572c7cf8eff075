//! Validates the workspace's machine-readable observability artifacts.
//!
//! Default mode checks a JSONL metrics file produced by `--metrics-out`,
//! line by line:
//!
//! 1. every line is one syntactically valid JSON object;
//! 2. every record carries a known `"t"` type tag;
//! 3. `span_open` / `span_close` records balance like parentheses, with
//!    matching names and depths (no orphaned opens at end of file);
//! 4. the final line is the `summary` record, and it carries a
//!    supported `schema_version`;
//! 5. the `lacr-par` contract holds: every `par.region` span carries
//!    numeric `items`/`threads` attributes, `par.tasks` / `par.steal`
//!    counters only fire inside an open `par.region` span, and the
//!    summed `par.tasks` deltas equal the summed region `items` (a
//!    `par.steal` counter is optional — single-threaded regions never
//!    emit one);
//! 6. the retiming substrate contract holds: inside each
//!    `retime.min_period` span, every substrate probe is served either
//!    from the cached W/D substrate or by building it — summed
//!    `retime.probe` deltas equal summed `retime.wd_cache_hits` deltas
//!    plus the number of `retime.wd_build` child spans. (Host-free
//!    searches use arrival-time FEAS probes, which emit only
//!    `retime.feas_probes`; both sides are then zero.)
//!
//! `--mem` mode re-reads the same JSONL stream and enforces the memory
//! observability contract instead: every `span_close` carries all four
//! `mem.*` keys (`mem.self_bytes`, `mem.live_bytes`, `mem.peak_bytes`,
//! `mem.allocs`), the allocator's peak is never below its live gauge at
//! any sample, per-span alloc counts are non-negative, and `mem.allocs`
//! counter totals are monotone non-decreasing across the stream.
//!
//! Other artifact kinds have their own modes:
//!
//! - `--run <RUN_x.json>`: provenance (`schema_version`, `threads`,
//!   `git_rev`) plus a `quality` block with the gated metrics on every
//!   circuit entry;
//! - `--bench <BENCH_x.json>`: provenance only (legacy shape otherwise);
//! - `--flight <dump.jsonl>`: a flight-recorder postmortem — versioned
//!   header with a `reason`, an `events` count matching the body, every
//!   body line a known record type;
//! - `--serve <responses.jsonl>`: a transcript of `lacr serve` response
//!   lines — every line a structured response with an `id`
//!   (string-or-null) and a known `status`, and the payload each status
//!   promises (plan text, error kind/message, rejection reason, stats
//!   snapshot blocks);
//! - `--stats <snapshots.jsonl>`: one or more `lacr serve` stats
//!   snapshots (from `{"cmd":"stats"}` responses or the periodic
//!   `--stats-interval-ms` heartbeat) — required keys present, status
//!   counts sum to completed requests, gauges non-negative, rolling
//!   percentiles ordered `p50 <= p95 <= p99`, and every counter
//!   monotone non-decreasing across successive snapshots;
//! - `--chrome <trace.json>`: a Chrome trace-event file from
//!   `--trace-chrome` — a `traceEvents` array whose every event carries
//!   `name`/`ph`/`ts`/`pid`/`tid`, with `B`/`E` begin–end events
//!   balancing like parentheses (matching names) per `(pid, tid)` lane.
//!
//! ```text
//! cargo run --release -p lacr-bench --bin check_metrics -- [mode] <file>
//! ```
//!
//! Exits 0 on success (one confirmation line on stdout), 1 with the
//! offending line number on stderr otherwise.

use lacr_obs::json::{parse_json, Json};
use std::process::ExitCode;

/// Quality metrics every `RUN_*.json` circuit entry must carry. A
/// subset of [`lacr_bench::compare::GATED_METRICS`]: the gate also
/// covers artifact-specific metrics (`min_area_flops` in scale runs)
/// that planner run records never have.
const REQUIRED_RUN_METRICS: &[&str] = &["lac_n_foa", "n_wr", "t_clk_ns", "route_overflow"];

const KNOWN_TYPES: &[&str] = &[
    "span_open",
    "span_close",
    "counter",
    "gauge",
    "hist",
    "event",
    "summary",
];

/// Validates the whole stream; returns (records, spans, parallel
/// regions) on success.
fn check_stream(text: &str) -> Result<(usize, usize, usize), String> {
    let mut open_spans: Vec<(String, u64)> = Vec::new();
    let mut records = 0usize;
    let mut spans = 0usize;
    let mut saw_summary = false;
    let mut par_regions = 0usize;
    let mut par_items = 0u64;
    let mut par_tasks = 0u64;
    // One (probes, cache_hits, wd_builds) tracker per open
    // retime.min_period span; counters and wd_build spans attribute to
    // the innermost one.
    let mut min_period_stack: Vec<(u64, u64, u64)> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.trim().is_empty() {
            continue;
        }
        if saw_summary {
            return Err(format!("line {ln}: records after the summary line"));
        }
        let v = parse_json(line).map_err(|e| format!("line {ln}: {e}"))?;
        records += 1;
        let t = v
            .get("t")
            .and_then(Json::as_str)
            .ok_or(format!("line {ln}: missing \"t\" tag"))?;
        if !KNOWN_TYPES.contains(&t) {
            return Err(format!("line {ln}: unknown record type {t:?}"));
        }
        match t {
            "span_open" => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {ln}: span_open without name"))?;
                let depth = v
                    .get("depth")
                    .and_then(Json::as_num)
                    .ok_or(format!("line {ln}: span_open without depth"))?;
                if depth as usize != open_spans.len() {
                    return Err(format!(
                        "line {ln}: span_open depth {depth} but {} spans are open",
                        open_spans.len()
                    ));
                }
                if name == "par.region" {
                    let attrs = v
                        .get("attrs")
                        .ok_or(format!("line {ln}: par.region without attrs"))?;
                    let items = attrs
                        .get("items")
                        .and_then(Json::as_num)
                        .ok_or(format!("line {ln}: par.region without numeric items"))?;
                    let threads = attrs
                        .get("threads")
                        .and_then(Json::as_num)
                        .ok_or(format!("line {ln}: par.region without numeric threads"))?;
                    if threads < 1.0 {
                        return Err(format!("line {ln}: par.region with {threads} threads"));
                    }
                    par_regions += 1;
                    par_items += items as u64;
                }
                if name == "retime.min_period" {
                    min_period_stack.push((0, 0, 0));
                } else if name == "retime.wd_build" {
                    if let Some(t) = min_period_stack.last_mut() {
                        t.2 += 1;
                    }
                }
                open_spans.push((name.to_string(), depth as u64));
            }
            "span_close" => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {ln}: span_close without name"))?;
                let (open_name, _) = open_spans
                    .pop()
                    .ok_or(format!("line {ln}: span_close with no open span"))?;
                if open_name != name {
                    return Err(format!(
                        "line {ln}: span_close {name:?} does not match open {open_name:?}"
                    ));
                }
                if name == "retime.min_period" {
                    let (probes, hits, builds) = min_period_stack
                        .pop()
                        .ok_or(format!("line {ln}: unbalanced retime.min_period"))?;
                    if probes != hits + builds {
                        return Err(format!(
                            "line {ln}: retime.min_period closed with {probes} substrate \
                             probe(s) but {hits} cache hit(s) + {builds} wd_build span(s)"
                        ));
                    }
                }
                spans += 1;
            }
            "counter" => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {ln}: counter without name"))?;
                if name == "par.tasks" || name == "par.steal" {
                    if !open_spans.iter().any(|(n, _)| n == "par.region") {
                        return Err(format!(
                            "line {ln}: {name} counter outside any par.region span"
                        ));
                    }
                    let delta = v
                        .get("delta")
                        .and_then(Json::as_num)
                        .ok_or(format!("line {ln}: {name} without numeric delta"))?;
                    if name == "par.tasks" {
                        par_tasks += delta as u64;
                    }
                }
                if name == "retime.probe" || name == "retime.wd_cache_hits" {
                    if let Some(t) = min_period_stack.last_mut() {
                        let delta = v
                            .get("delta")
                            .and_then(Json::as_num)
                            .ok_or(format!("line {ln}: {name} without numeric delta"))?;
                        if name == "retime.probe" {
                            t.0 += delta as u64;
                        } else {
                            t.1 += delta as u64;
                        }
                    }
                }
            }
            "summary" => {
                check_schema_version(&v).map_err(|e| format!("line {ln}: summary {e}"))?;
                saw_summary = true;
            }
            _ => {}
        }
    }
    if let Some((name, _)) = open_spans.last() {
        return Err(format!("end of file with span {name:?} still open"));
    }
    if !saw_summary {
        return Err("no summary record (stream truncated?)".to_string());
    }
    if par_tasks != par_items {
        return Err(format!(
            "par.tasks total {par_tasks} does not match the {par_items} items \
             declared by {par_regions} par.region span(s)"
        ));
    }
    Ok((records, spans, par_regions))
}

/// Span-close keys the memory observability contract requires on every
/// record once the counting allocator is wired in (schema version 2).
const MEM_SPAN_KEYS: &[&str] = &[
    "mem.self_bytes",
    "mem.live_bytes",
    "mem.peak_bytes",
    "mem.allocs",
];

/// Validates the memory contract over a JSONL metrics stream: every
/// `span_close` carries all `mem.*` keys, `mem.peak_bytes >=
/// mem.live_bytes` at every sample (the allocator loads live before
/// peak, so a violation means the record was fabricated or the
/// counters are broken), per-span `mem.allocs` is non-negative, and
/// `mem.allocs` counter totals never decrease. Returns (span closes
/// checked, counter samples checked).
fn check_mem_stream(text: &str) -> Result<(usize, usize), String> {
    let mut closes = 0usize;
    let mut counter_samples = 0usize;
    let mut last_alloc_total = f64::NEG_INFINITY;
    let mut saw_summary = false;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {ln}: {e}"))?;
        let t = v
            .get("t")
            .and_then(Json::as_str)
            .ok_or(format!("line {ln}: missing \"t\" tag"))?;
        match t {
            "span_close" => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {ln}: span_close without name"))?;
                for &key in MEM_SPAN_KEYS {
                    v.get(key)
                        .and_then(Json::as_num)
                        .ok_or(format!("line {ln}: span_close {name:?} missing {key}"))?;
                }
                let live = v.get("mem.live_bytes").and_then(Json::as_num).unwrap();
                let peak = v.get("mem.peak_bytes").and_then(Json::as_num).unwrap();
                if peak < live {
                    return Err(format!(
                        "line {ln}: span_close {name:?} has mem.peak_bytes {peak} \
                         below mem.live_bytes {live}"
                    ));
                }
                let allocs = v.get("mem.allocs").and_then(Json::as_num).unwrap();
                if allocs < 0.0 {
                    return Err(format!(
                        "line {ln}: span_close {name:?} has negative mem.allocs {allocs}"
                    ));
                }
                closes += 1;
            }
            "counter" if v.get("name").and_then(Json::as_str) == Some("mem.allocs") => {
                let delta = v
                    .get("delta")
                    .and_then(Json::as_num)
                    .ok_or(format!("line {ln}: mem.allocs counter without delta"))?;
                if delta < 0.0 {
                    return Err(format!("line {ln}: mem.allocs delta {delta} is negative"));
                }
                let total = v
                    .get("total")
                    .and_then(Json::as_num)
                    .ok_or(format!("line {ln}: mem.allocs counter without total"))?;
                if total < last_alloc_total {
                    return Err(format!(
                        "line {ln}: mem.allocs total went backwards \
                         ({last_alloc_total} -> {total})"
                    ));
                }
                last_alloc_total = total;
                counter_samples += 1;
            }
            "summary" => {
                check_schema_version(&v).map_err(|e| format!("line {ln}: summary {e}"))?;
                saw_summary = true;
            }
            _ => {}
        }
    }
    if !saw_summary {
        return Err("no summary record (stream truncated?)".to_string());
    }
    if closes == 0 {
        return Err("no span_close records to check the memory contract on".to_string());
    }
    Ok((closes, counter_samples))
}

/// Requires a supported `schema_version` on `v`.
fn check_schema_version(v: &Json) -> Result<u32, String> {
    let version = v
        .get("schema_version")
        .and_then(Json::as_num)
        .ok_or("has no schema_version (artifact predates the telemetry contract)")?
        as u32;
    if version > lacr_obs::SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} is newer than this tool's {}",
            lacr_obs::SCHEMA_VERSION
        ));
    }
    Ok(version)
}

/// Requires full provenance (`schema_version`, `threads`, `git_rev`) on
/// a perf-record artifact.
fn check_provenance(v: &Json) -> Result<(), String> {
    check_schema_version(v)?;
    v.get("threads")
        .and_then(Json::as_num)
        .ok_or("record has no numeric threads field")?;
    v.get("git_rev")
        .and_then(Json::as_str)
        .ok_or("record has no git_rev field")?;
    Ok(())
}

/// Validates a `BENCH_*.json` perf record: provenance only — the body
/// shape is bench-specific. Returns the bench name.
fn check_bench_record(text: &str) -> Result<String, String> {
    let v = parse_json(text)?;
    check_provenance(&v)?;
    Ok(v.get("bench")
        .and_then(Json::as_str)
        .unwrap_or("unknown")
        .to_string())
}

/// Validates a `RUN_*.json` solution-quality artifact: provenance plus
/// a `quality` block with every gated metric on each circuit entry.
/// Returns (bench, circuits).
fn check_run_record(text: &str) -> Result<(String, usize), String> {
    let v = parse_json(text)?;
    check_provenance(&v)?;
    let circuits = v
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or("run record has no circuits array")?;
    for c in circuits {
        let name = c
            .get("circuit")
            .and_then(Json::as_str)
            .ok_or("circuit entry without a name")?;
        let q = c
            .get("quality")
            .ok_or(format!("{name}: circuit entry without a quality block"))?;
        for &metric in REQUIRED_RUN_METRICS {
            q.get(metric)
                .and_then(Json::as_num)
                .ok_or(format!("{name}: quality block missing {metric}"))?;
        }
        q.get("n_foa_trajectory")
            .and_then(Json::as_arr)
            .filter(|t| !t.is_empty())
            .ok_or(format!("{name}: quality block missing n_foa_trajectory"))?;
    }
    Ok((
        v.get("bench")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string(),
        circuits.len(),
    ))
}

/// Validates a transcript of `lacr serve` response lines: every line is
/// one JSON object with an `id` (string, or null for requests whose id
/// was unrecoverable — malformed or oversized lines) and a `status`
/// from the response taxonomy. Each status implies its payload:
/// `ok`/`degraded` carry a `plan` block with a non-empty `text` array
/// (and `degraded` a non-empty `degradations` array), `error` carries
/// `error.kind`/`error.message`, `rejected` carries a `reason`, and
/// `stats` carries the snapshot blocks (`requests`/`pool`/`latency`/
/// `cache`/`connections`/`flight` — deep-validated by `--stats`).
/// Returns (responses, per-status counts in taxonomy order).
fn check_serve_transcript(text: &str) -> Result<(usize, [usize; 5]), String> {
    const STATUSES: [&str; 5] = ["ok", "degraded", "error", "rejected", "stats"];
    const ERROR_KINDS: [&str; 3] = ["bad-request", "plan", "panic"];
    const REJECT_REASONS: [&str; 4] = [
        "overloaded",
        "oversized",
        "shutting-down",
        "connection-limit",
    ];
    let mut counts = [0usize; 5];
    let mut responses = 0usize;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {ln}: {e}"))?;
        responses += 1;
        match v.get("id") {
            Some(Json::Str(_)) | Some(Json::Null) => {}
            other => {
                return Err(format!(
                    "line {ln}: id must be a string or null, got {other:?}"
                ))
            }
        }
        let status = v
            .get("status")
            .and_then(Json::as_str)
            .ok_or(format!("line {ln}: response without status"))?;
        let slot = STATUSES
            .iter()
            .position(|s| *s == status)
            .ok_or(format!("line {ln}: unknown status {status:?}"))?;
        counts[slot] += 1;
        match status {
            "ok" | "degraded" => {
                let plan = v
                    .get("plan")
                    .ok_or(format!("line {ln}: {status} response without a plan block"))?;
                plan.get("text")
                    .and_then(Json::as_arr)
                    .filter(|t| !t.is_empty())
                    .ok_or(format!("line {ln}: plan block without text lines"))?;
                if status == "degraded" {
                    v.get("degradations")
                        .and_then(Json::as_arr)
                        .filter(|d| !d.is_empty())
                        .ok_or(format!("line {ln}: degraded response without reasons"))?;
                }
            }
            "error" => {
                let e = v
                    .get("error")
                    .ok_or(format!("line {ln}: error response without error block"))?;
                let kind = e
                    .get("kind")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {ln}: error block without kind"))?;
                if !ERROR_KINDS.contains(&kind) {
                    return Err(format!("line {ln}: unknown error kind {kind:?}"));
                }
                e.get("message")
                    .and_then(Json::as_str)
                    .filter(|m| !m.is_empty())
                    .ok_or(format!("line {ln}: error block without message"))?;
            }
            "rejected" => {
                let reason = v
                    .get("reason")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {ln}: rejected response without reason"))?;
                if !REJECT_REASONS.contains(&reason) {
                    return Err(format!("line {ln}: unknown rejection reason {reason:?}"));
                }
            }
            _ => {
                check_schema_version(&v).map_err(|e| format!("line {ln}: stats {e}"))?;
                for block in [
                    "requests",
                    "pool",
                    "latency",
                    "cache",
                    "connections",
                    "flight",
                ] {
                    v.get(block)
                        .ok_or(format!("line {ln}: stats response without {block} block"))?;
                }
            }
        }
    }
    if responses == 0 {
        return Err("no response lines (daemon produced no output?)".to_string());
    }
    Ok((responses, counts))
}

/// Numeric leaf at `path` inside a stats snapshot, or an error naming
/// the missing key.
fn stats_num(v: &Json, path: &[&str]) -> Result<f64, String> {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("snapshot missing {}", path.join(".")))?;
    }
    cur.as_num()
        .ok_or_else(|| format!("{} is not a number", path.join(".")))
}

/// Counters that must never decrease across successive snapshots from
/// one daemon: the request totals, the pool's lifetime counters, the
/// plan-cache and connection counters, and the flight-recorder dump
/// count.
const MONOTONE_COUNTERS: &[&[&str]] = &[
    &["requests", "received"],
    &["requests", "ok"],
    &["requests", "degraded"],
    &["requests", "error"],
    &["requests", "rejected"],
    &["requests", "completed"],
    &["pool", "shed_total"],
    &["pool", "completed_total"],
    &["pool", "panics"],
    &["cache", "hits"],
    &["cache", "misses"],
    &["cache", "evictions"],
    &["connections", "accepted_total"],
    &["connections", "shed_total"],
    &["flight", "dumps"],
    &["uptime_us"],
];

/// Validates one or more `lacr serve` stats snapshots, one JSON object
/// per line (ordered oldest first, as both the `{"cmd":"stats"}`
/// response stream and the periodic heartbeat emit them). Checks the
/// contract every snapshot promises — required keys, status counts
/// summing to completed, non-negative gauges, `queued <= capacity`,
/// ordered percentiles — and that every lifetime counter is monotone
/// non-decreasing across the sequence. Returns the snapshot count.
fn check_stats_lines(text: &str) -> Result<usize, String> {
    let mut snapshots = 0usize;
    let mut prev: Option<Json> = None;
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {ln}: {e}"))?;
        snapshots += 1;
        if v.get("status").and_then(Json::as_str) != Some("stats") {
            return Err(format!("line {ln}: not a stats snapshot (status != stats)"));
        }
        let version = check_schema_version(&v).map_err(|e| format!("line {ln}: {e}"))?;
        let num = |path: &[&str]| stats_num(&v, path).map_err(|e| format!("line {ln}: {e}"));
        // Request accounting: the status counts partition completed
        // requests, and nothing finishes that was never received.
        let ok = num(&["requests", "ok"])?;
        let degraded = num(&["requests", "degraded"])?;
        let error = num(&["requests", "error"])?;
        let rejected = num(&["requests", "rejected"])?;
        let received = num(&["requests", "received"])?;
        let completed = num(&["requests", "completed"])?;
        if completed != ok + degraded + error {
            return Err(format!(
                "line {ln}: completed {completed} != ok {ok} + degraded {degraded} \
                 + error {error}"
            ));
        }
        if completed + rejected > received {
            return Err(format!(
                "line {ln}: completed {completed} + rejected {rejected} exceeds \
                 received {received}"
            ));
        }
        // Pool gauges: instantaneous, but never negative, and the queue
        // never reports beyond its own capacity.
        let queued = num(&["pool", "queued"])?;
        let capacity = num(&["pool", "capacity"])?;
        if queued > capacity {
            return Err(format!("line {ln}: queued {queued} > capacity {capacity}"));
        }
        for path in [
            ["pool", "workers"],
            ["pool", "inflight"],
            ["pool", "shed_total"],
            ["pool", "completed_total"],
            ["pool", "panics"],
            ["cache", "hits"],
            ["cache", "misses"],
            ["cache", "evictions"],
            ["connections", "active"],
            ["connections", "accepted_total"],
            ["connections", "shed_total"],
            ["connections", "max"],
            ["flight", "dumps"],
            ["flight", "capacity"],
        ] {
            let n = num(&path)?;
            if n < 0.0 {
                return Err(format!("line {ln}: {} is negative ({n})", path.join(".")));
            }
        }
        // The plan cache never reports residency beyond its own caps.
        let cache_entries = num(&["cache", "entries"])?;
        let cache_max_entries = num(&["cache", "max_entries"])?;
        if cache_entries > cache_max_entries {
            return Err(format!(
                "line {ln}: cache entries {cache_entries} > max_entries {cache_max_entries}"
            ));
        }
        let cache_bytes = num(&["cache", "bytes"])?;
        let cache_max_bytes = num(&["cache", "max_bytes"])?;
        if cache_bytes > cache_max_bytes {
            return Err(format!(
                "line {ln}: cache bytes {cache_bytes} > max_bytes {cache_max_bytes}"
            ));
        }
        // Schema 2 snapshots carry the allocator block and the cache's
        // audited byte count; schema-1 archives predate both.
        if version >= 2 {
            let live = num(&["mem", "live_bytes"])?;
            let peak = num(&["mem", "peak_bytes"])?;
            if peak < live {
                return Err(format!(
                    "line {ln}: mem.peak_bytes {peak} below mem.live_bytes {live}"
                ));
            }
            for path in [
                ["mem", "allocs"],
                ["mem", "deallocs"],
                ["mem", "peak_rss_bytes"],
                ["mem", "cache_bytes_actual"],
                ["cache", "bytes_actual"],
            ] {
                let n = num(&path)?;
                if n < 0.0 {
                    return Err(format!("line {ln}: {} is negative ({n})", path.join(".")));
                }
            }
        }
        // Rolling latency: both windows carry ordered percentiles.
        num(&["latency", "window_us"])?;
        for block in ["queue_wait_us", "service_us"] {
            let p50 = num(&["latency", block, "p50"])?;
            let p95 = num(&["latency", block, "p95"])?;
            let p99 = num(&["latency", block, "p99"])?;
            if !(p50 <= p95 && p95 <= p99) {
                return Err(format!(
                    "line {ln}: {block} percentiles out of order \
                     (p50 {p50}, p95 {p95}, p99 {p99})"
                ));
            }
        }
        if let Some(p) = &prev {
            for path in MONOTONE_COUNTERS {
                let before = stats_num(p, path).map_err(|e| format!("line {ln}: {e}"))?;
                let after = stats_num(&v, path).map_err(|e| format!("line {ln}: {e}"))?;
                if after < before {
                    return Err(format!(
                        "line {ln}: {} went backwards ({before} -> {after})",
                        path.join(".")
                    ));
                }
            }
            // Allocator lifetime counters are monotone too, but only
            // when both snapshots are schema-2 (a v1 -> v2 boundary in
            // an archive has nothing to compare).
            for path in [
                &["mem", "allocs"][..],
                &["mem", "deallocs"],
                &["mem", "peak_bytes"],
                &["mem", "peak_rss_bytes"],
            ] {
                if let (Ok(before), Ok(after)) = (stats_num(p, path), stats_num(&v, path)) {
                    if after < before {
                        return Err(format!(
                            "line {ln}: {} went backwards ({before} -> {after})",
                            path.join(".")
                        ));
                    }
                }
            }
        }
        prev = Some(v);
    }
    if snapshots == 0 {
        return Err("no stats snapshots (daemon produced no output?)".to_string());
    }
    Ok(snapshots)
}

/// Validates a Chrome trace-event file from `--trace-chrome`: the
/// `traceEvents` array is present and non-empty, every event carries
/// `name`/`ph`/`ts`/`pid`/`tid` with a known phase, and the `B`/`E`
/// duration events balance like parentheses — matching names, LIFO
/// order — within each `(pid, tid)` lane. Returns (events, lanes).
fn check_chrome_trace(text: &str) -> Result<(usize, usize), String> {
    const KNOWN_PHASES: [&str; 5] = ["B", "E", "C", "i", "M"];
    let v = parse_json(text)?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("no traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }
    // Per-(pid, tid) open-span stacks; B pushes, E must pop its match.
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> =
        std::collections::BTreeMap::new();
    let mut last_ts_per_lane: std::collections::BTreeMap<(u64, u64), f64> =
        std::collections::BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let ctx = |what: &str| format!("event {i}: {what}");
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("no name"))?;
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("no ph"))?;
        if !KNOWN_PHASES.contains(&ph) {
            return Err(ctx(&format!("unknown phase {ph:?}")));
        }
        let ts = e
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("no ts"))?;
        if ts < 0.0 {
            return Err(ctx(&format!("negative ts {ts}")));
        }
        let pid = e
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("no pid"))? as u64;
        let tid = e
            .get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("no tid"))? as u64;
        let lane = (pid, tid);
        // Timestamps never run backwards within a lane (metadata events
        // are pinned at ts 0 and exempt).
        if ph != "M" {
            let last = last_ts_per_lane.entry(lane).or_insert(0.0);
            if ts < *last {
                return Err(ctx(&format!("ts {ts} before lane high-water {last}")));
            }
            *last = ts;
        }
        match ph {
            "B" => stacks.entry(lane).or_default().push(name.to_string()),
            "E" => {
                let open = stacks
                    .entry(lane)
                    .or_default()
                    .pop()
                    .ok_or_else(|| ctx("E with no open B in its lane"))?;
                if open != name {
                    return Err(ctx(&format!("E {name:?} does not match open B {open:?}")));
                }
            }
            _ => {}
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!(
                "lane ({pid}, {tid}) ends with span {open:?} still open"
            ));
        }
    }
    Ok((events.len(), stacks.len()))
}

/// Validates a flight-recorder postmortem dump: a versioned header line
/// with a `reason` and an `events` count that matches the number of
/// body lines; every body line a known record type. Returns (reason,
/// events).
fn check_flight_dump(text: &str) -> Result<(String, usize), String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("empty flight dump")?;
    let h = parse_json(header).map_err(|e| format!("header: {e}"))?;
    if h.get("t").and_then(Json::as_str) != Some("flight") {
        return Err("header is not a {\"t\":\"flight\"} record".to_string());
    }
    check_schema_version(&h).map_err(|e| format!("header {e}"))?;
    let reason = h
        .get("reason")
        .and_then(Json::as_str)
        .ok_or("header has no reason")?
        .to_string();
    let declared = h
        .get("events")
        .and_then(Json::as_num)
        .ok_or("header has no events count")? as usize;
    let mut body = 0usize;
    for (ln, line) in lines.enumerate() {
        let ln = ln + 2;
        let v = parse_json(line).map_err(|e| format!("line {ln}: {e}"))?;
        let t = v
            .get("t")
            .and_then(Json::as_str)
            .ok_or(format!("line {ln}: missing \"t\" tag"))?;
        // A dump is a raw ring snapshot: any record type except the
        // stream-final summary may appear, in any order.
        if !KNOWN_TYPES.contains(&t) || t == "summary" {
            return Err(format!("line {ln}: unknown record type {t:?}"));
        }
        body += 1;
    }
    if body != declared {
        return Err(format!(
            "header declares {declared} events but the body has {body}"
        ));
    }
    Ok((reason, body))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, path) = match args.as_slice() {
        [path] => ("--stream", path.as_str()),
        [mode, path]
            if matches!(
                mode.as_str(),
                "--run" | "--bench" | "--flight" | "--serve" | "--stats" | "--chrome" | "--mem"
            ) =>
        {
            (mode.as_str(), path.as_str())
        }
        _ => {
            eprintln!(
                "usage: check_metrics \
                 [--run|--bench|--flight|--serve|--stats|--chrome|--mem] <file>"
            );
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match mode {
        "--run" => check_run_record(&text).map(|(bench, circuits)| {
            format!("run record for {bench:?}: {circuits} circuit(s) with quality blocks")
        }),
        "--bench" => check_bench_record(&text).map(|bench| format!("bench record for {bench:?}")),
        "--flight" => check_flight_dump(&text)
            .map(|(reason, events)| format!("flight dump ({reason:?}): {events} record(s)")),
        "--serve" => {
            check_serve_transcript(&text).map(|(responses, [ok, deg, err, rej, stats])| {
                format!(
                    "serve transcript: {responses} response(s) \
                     ({ok} ok, {deg} degraded, {err} error, {rej} rejected, {stats} stats)"
                )
            })
        }
        "--stats" => check_stats_lines(&text)
            .map(|snapshots| format!("stats snapshots: {snapshots} consistent snapshot(s)")),
        "--chrome" => check_chrome_trace(&text).map(|(events, lanes)| {
            format!("chrome trace: {events} event(s), {lanes} lane(s), B/E balanced")
        }),
        "--mem" => check_mem_stream(&text).map(|(closes, counters)| {
            format!(
                "memory contract: {closes} span close(s) with mem.* keys, \
                 peak >= live throughout, {counters} monotone mem.allocs sample(s)"
            )
        }),
        _ => check_stream(&text).map(|(records, spans, par_regions)| {
            format!(
                "{records} records, {spans} spans, \
                 {par_regions} parallel regions, summary present"
            )
        }),
    };
    match outcome {
        Ok(msg) => {
            println!("{path}: ok — {msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_a_well_formed_stream() {
        let stream = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"a\",\"depth\":0,\"attrs\":{}}
{\"t\":\"counter\",\"us\":2,\"name\":\"c\",\"delta\":1,\"total\":1}
{\"t\":\"span_close\",\"us\":3,\"name\":\"a\",\"depth\":0,\"incl_us\":2,\"excl_us\":2}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert_eq!(check_stream(stream).unwrap(), (4, 1, 0));
    }

    #[test]
    fn enforces_the_par_counter_contract() {
        // Well-formed region: items == summed par.tasks deltas, counters
        // inside the span, no par.steal at one thread.
        let good = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"par.region\",\"depth\":0,\"attrs\":{\"region\":\"r\",\"items\":3,\"threads\":2}}
{\"t\":\"counter\",\"us\":2,\"name\":\"par.tasks\",\"delta\":3,\"total\":3}
{\"t\":\"counter\",\"us\":3,\"name\":\"par.steal\",\"delta\":1,\"total\":1}
{\"t\":\"span_close\",\"us\":4,\"name\":\"par.region\",\"depth\":0,\"incl_us\":3,\"excl_us\":3}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert_eq!(check_stream(good).unwrap(), (5, 1, 1));

        let short = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"par.region\",\"depth\":0,\"attrs\":{\"region\":\"r\",\"items\":3,\"threads\":1}}
{\"t\":\"counter\",\"us\":2,\"name\":\"par.tasks\",\"delta\":2,\"total\":2}
{\"t\":\"span_close\",\"us\":3,\"name\":\"par.region\",\"depth\":0,\"incl_us\":2,\"excl_us\":2}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert!(check_stream(short).unwrap_err().contains("does not match"));

        let orphan_counter = "\
{\"t\":\"counter\",\"us\":1,\"name\":\"par.tasks\",\"delta\":1,\"total\":1}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert!(check_stream(orphan_counter)
            .unwrap_err()
            .contains("outside any par.region"));

        let no_items = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"par.region\",\"depth\":0,\"attrs\":{\"region\":\"r\",\"threads\":2}}
{\"t\":\"span_close\",\"us\":2,\"name\":\"par.region\",\"depth\":0,\"incl_us\":1,\"excl_us\":1}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert!(check_stream(no_items)
            .unwrap_err()
            .contains("without numeric items"));
    }

    #[test]
    fn enforces_the_retime_substrate_contract() {
        // Two probes: the first builds the substrate, the second hits
        // the cache. A cache hit outside the span (planner reuse) does
        // not count toward any search.
        let good = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"retime.min_period\",\"depth\":0,\"attrs\":{}}
{\"t\":\"counter\",\"us\":2,\"name\":\"retime.probe\",\"delta\":1,\"total\":1}
{\"t\":\"span_open\",\"us\":3,\"name\":\"retime.wd_build\",\"depth\":1,\"attrs\":{}}
{\"t\":\"span_close\",\"us\":4,\"name\":\"retime.wd_build\",\"depth\":1,\"incl_us\":1,\"excl_us\":1}
{\"t\":\"counter\",\"us\":5,\"name\":\"retime.probe\",\"delta\":1,\"total\":2}
{\"t\":\"counter\",\"us\":6,\"name\":\"retime.wd_cache_hits\",\"delta\":1,\"total\":1}
{\"t\":\"span_close\",\"us\":7,\"name\":\"retime.min_period\",\"depth\":0,\"incl_us\":6,\"excl_us\":5}
{\"t\":\"counter\",\"us\":8,\"name\":\"retime.wd_cache_hits\",\"delta\":1,\"total\":2}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert_eq!(check_stream(good).unwrap(), (9, 2, 0));

        // A probe with neither a cache hit nor a build is a contract
        // violation (the substrate was silently bypassed).
        let bypassed = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"retime.min_period\",\"depth\":0,\"attrs\":{}}
{\"t\":\"counter\",\"us\":2,\"name\":\"retime.probe\",\"delta\":2,\"total\":2}
{\"t\":\"counter\",\"us\":3,\"name\":\"retime.wd_cache_hits\",\"delta\":1,\"total\":1}
{\"t\":\"span_close\",\"us\":4,\"name\":\"retime.min_period\",\"depth\":0,\"incl_us\":3,\"excl_us\":3}
{\"t\":\"summary\",\"schema_version\":1}
";
        let err = check_stream(bypassed).unwrap_err();
        assert!(err.contains("2 substrate probe(s)"), "{err}");

        // Host-free searches: FEAS probes only, both sides zero.
        let host_free = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"retime.min_period\",\"depth\":0,\"attrs\":{}}
{\"t\":\"counter\",\"us\":2,\"name\":\"retime.feas_probes\",\"delta\":4,\"total\":4}
{\"t\":\"span_close\",\"us\":3,\"name\":\"retime.min_period\",\"depth\":0,\"incl_us\":2,\"excl_us\":2}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert!(check_stream(host_free).is_ok());
    }

    #[test]
    fn enforces_the_memory_contract() {
        // Well-formed: every close carries the mem keys, peak >= live,
        // and mem.allocs totals climb.
        let good = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"a\",\"depth\":0,\"attrs\":{}}
{\"t\":\"span_open\",\"us\":2,\"name\":\"b\",\"depth\":1,\"attrs\":{}}
{\"t\":\"span_close\",\"us\":3,\"name\":\"b\",\"depth\":1,\"incl_us\":1,\"excl_us\":1,\"mem.self_bytes\":128,\"mem.live_bytes\":4096,\"mem.peak_bytes\":8192,\"mem.allocs\":3}
{\"t\":\"counter\",\"us\":4,\"name\":\"mem.allocs\",\"delta\":3,\"total\":3}
{\"t\":\"span_close\",\"us\":5,\"name\":\"a\",\"depth\":0,\"incl_us\":4,\"excl_us\":3,\"mem.self_bytes\":-64,\"mem.live_bytes\":4000,\"mem.peak_bytes\":8192,\"mem.allocs\":5}
{\"t\":\"counter\",\"us\":6,\"name\":\"mem.allocs\",\"delta\":5,\"total\":8}
{\"t\":\"summary\",\"schema_version\":2}
";
        assert_eq!(check_mem_stream(good).unwrap(), (2, 2));

        // A close missing any mem key fails by name.
        let keyless = "\
{\"t\":\"span_close\",\"us\":1,\"name\":\"a\",\"depth\":0,\"incl_us\":1,\"excl_us\":1,\"mem.self_bytes\":0,\"mem.live_bytes\":0,\"mem.allocs\":0}
{\"t\":\"summary\",\"schema_version\":2}
";
        let err = check_mem_stream(keyless).unwrap_err();
        assert!(err.contains("missing mem.peak_bytes"), "{err}");

        // The allocator loads live before peak: peak < live at any
        // sample means the record was fabricated.
        let inverted = good.replace(
            "\"mem.peak_bytes\":8192,\"mem.allocs\":5",
            "\"mem.peak_bytes\":100,\"mem.allocs\":5",
        );
        let err = check_mem_stream(&inverted).unwrap_err();
        assert!(err.contains("below mem.live_bytes"), "{err}");

        // mem.allocs counter totals never run backwards.
        let rewound = good.replace("\"delta\":5,\"total\":8", "\"delta\":5,\"total\":1");
        let err = check_mem_stream(&rewound).unwrap_err();
        assert!(err.contains("went backwards"), "{err}");

        // Negative per-span alloc counts are impossible.
        let negative = good.replace("\"mem.allocs\":3}", "\"mem.allocs\":-3}");
        let err = check_mem_stream(&negative).unwrap_err();
        assert!(err.contains("negative mem.allocs"), "{err}");

        // A stream with no closes proves nothing — reject it.
        let empty = "{\"t\":\"summary\",\"schema_version\":2}\n";
        assert!(check_mem_stream(empty)
            .unwrap_err()
            .contains("no span_close"));
        assert!(check_mem_stream("").unwrap_err().contains("no summary"));
    }

    #[test]
    fn rejects_orphaned_open_and_mismatched_close() {
        let orphan = "{\"t\":\"span_open\",\"us\":1,\"name\":\"a\",\"depth\":0,\"attrs\":{}}\n{\"t\":\"summary\",\"schema_version\":1}\n";
        assert!(check_stream(orphan).unwrap_err().contains("still open"));
        let mismatch = "\
{\"t\":\"span_open\",\"us\":1,\"name\":\"a\",\"depth\":0,\"attrs\":{}}
{\"t\":\"span_close\",\"us\":2,\"name\":\"b\",\"depth\":0,\"incl_us\":1,\"excl_us\":1}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert!(check_stream(mismatch)
            .unwrap_err()
            .contains("does not match"));
    }

    #[test]
    fn requires_summary_last() {
        assert!(check_stream("").unwrap_err().contains("no summary"));
        let after = "{\"t\":\"summary\",\"schema_version\":1}\n{\"t\":\"event\",\"us\":1,\"name\":\"x\",\"attrs\":{}}\n";
        assert!(check_stream(after)
            .unwrap_err()
            .contains("after the summary"));
    }

    #[test]
    fn rejects_unversioned_summaries() {
        let legacy = "{\"t\":\"summary\"}\n";
        assert!(check_stream(legacy).unwrap_err().contains("schema_version"));
        let future = "{\"t\":\"summary\",\"schema_version\":999}\n";
        assert!(check_stream(future).unwrap_err().contains("newer"));
    }

    #[test]
    fn validates_run_and_bench_records() {
        let run = include_str!("../../tests/fixtures/run_base.json");
        assert_eq!(check_run_record(run).unwrap(), ("table1".into(), 3));
        assert_eq!(check_bench_record(run).unwrap(), "table1");
        let unversioned = "{\"bench\":\"table1\",\"threads\":4,\"git_rev\":\"ab\",\"circuits\":[]}";
        assert!(check_run_record(unversioned)
            .unwrap_err()
            .contains("schema_version"));
        let no_quality = "{\"schema_version\":1,\"bench\":\"t\",\"threads\":1,\
                          \"git_rev\":\"ab\",\"circuits\":[{\"circuit\":\"s344\"}]}";
        assert!(check_run_record(no_quality)
            .unwrap_err()
            .contains("quality block"));
        let no_rev = "{\"schema_version\":1,\"bench\":\"t\",\"threads\":1,\"circuits\":[]}";
        assert!(check_bench_record(no_rev).unwrap_err().contains("git_rev"));
    }

    #[test]
    fn validates_serve_transcripts() {
        let good = "\
{\"id\":\"a\",\"status\":\"ok\",\"plan\":{\"text\":[\"s: T_init 1.00 ns\"]},\"queue_ms\":0,\"plan_ms\":3}
{\"id\":\"b\",\"status\":\"degraded\",\"plan\":{\"text\":[\"s: T_init 1.00 ns\"]},\"degradations\":[\"[lac] over budget\"]}
{\"id\":null,\"status\":\"error\",\"error\":{\"kind\":\"bad-request\",\"message\":\"no spec\"}}
{\"id\":\"c\",\"status\":\"error\",\"error\":{\"kind\":\"panic\",\"message\":\"boom\",\"flight\":\"req-c.jsonl\"}}
{\"id\":\"d\",\"status\":\"rejected\",\"reason\":\"overloaded\",\"queued\":4,\"capacity\":4}
{\"id\":null,\"status\":\"rejected\",\"reason\":\"connection-limit\",\"active\":64,\"max\":64}
";
        assert_eq!(check_serve_transcript(good).unwrap(), (6, [1, 1, 2, 2, 0]));

        // Each status must carry the payload it promises.
        let bare_ok = "{\"id\":\"a\",\"status\":\"ok\"}\n";
        assert!(check_serve_transcript(bare_ok)
            .unwrap_err()
            .contains("plan block"));
        let silent_degrade = "{\"id\":\"a\",\"status\":\"degraded\",\"plan\":{\"text\":[\"x\"]}}\n";
        assert!(check_serve_transcript(silent_degrade)
            .unwrap_err()
            .contains("without reasons"));
        let kindless = "{\"id\":\"a\",\"status\":\"error\",\"error\":{\"message\":\"m\"}}\n";
        assert!(check_serve_transcript(kindless)
            .unwrap_err()
            .contains("without kind"));
        let odd_reason = "{\"id\":\"a\",\"status\":\"rejected\",\"reason\":\"tuesday\"}\n";
        assert!(check_serve_transcript(odd_reason)
            .unwrap_err()
            .contains("unknown rejection reason"));
        let numeric_id = "{\"id\":7,\"status\":\"ok\",\"plan\":{\"text\":[\"x\"]}}\n";
        assert!(check_serve_transcript(numeric_id)
            .unwrap_err()
            .contains("string or null"));
        assert!(check_serve_transcript("")
            .unwrap_err()
            .contains("no response"));

        // A stats response is part of the taxonomy and must carry its
        // snapshot blocks.
        let with_stats = format!("{}{}", good, stats_snapshot(1, 1, 0, 0, 0));
        assert_eq!(
            check_serve_transcript(&with_stats).unwrap(),
            (7, [1, 1, 2, 2, 1])
        );
        // The snapshot must carry the cache and connection blocks too.
        let no_cache = stats_snapshot(1, 1, 0, 0, 0).replace("\"cache\"", "\"cachette\"");
        assert!(check_serve_transcript(&no_cache)
            .unwrap_err()
            .contains("without cache block"));
        let bare_stats = "{\"id\":null,\"status\":\"stats\",\"schema_version\":1}\n";
        assert!(check_serve_transcript(bare_stats)
            .unwrap_err()
            .contains("without requests block"));
    }

    /// One schema-valid stats snapshot line with the given request
    /// counts (received, ok, degraded, error, rejected).
    fn stats_snapshot(received: u64, ok: u64, degraded: u64, error: u64, rejected: u64) -> String {
        let completed = ok + degraded + error;
        format!(
            "{{\"id\":null,\"status\":\"stats\",\"schema_version\":1,\"uptime_us\":{},\
             \"requests\":{{\"received\":{received},\"ok\":{ok},\"degraded\":{degraded},\
             \"error\":{error},\"rejected\":{rejected},\"completed\":{completed}}},\
             \"pool\":{{\"workers\":2,\"capacity\":8,\"queued\":0,\"inflight\":0,\
             \"shed_total\":{rejected},\"completed_total\":{completed},\"panics\":0}},\
             \"latency\":{{\"window_us\":60000000,\
             \"queue_wait_us\":{{\"count\":{completed},\"rate_per_sec\":0.5,\"mean_us\":10,\
             \"p50\":8,\"p95\":16,\"p99\":16,\"max\":12}},\
             \"service_us\":{{\"count\":{completed},\"rate_per_sec\":0.5,\"mean_us\":900,\
             \"p50\":1024,\"p95\":1024,\"p99\":2048,\"max\":1400}}}},\
             \"cache\":{{\"entries\":1,\"bytes\":512,\"max_entries\":128,\
             \"max_bytes\":16777216,\"hits\":{degraded},\"misses\":{completed},\
             \"evictions\":0}},\
             \"connections\":{{\"active\":1,\"accepted_total\":{received},\
             \"shed_total\":0,\"max\":64}},\
             \"flight\":{{\"dumps\":0,\"capacity\":4096}}}}\n",
            1000 + received * 100
        )
    }

    /// Upgrades a v1 snapshot line to schema 2: the allocator block and
    /// the cache's audited byte count become mandatory there.
    fn upgrade_snapshot(line: &str) -> String {
        line.replace("\"schema_version\":1", "\"schema_version\":2")
            .replace("\"evictions\":0}", "\"evictions\":0,\"bytes_actual\":512}")
            .replace(
                "\"flight\":",
                "\"mem\":{\"live_bytes\":1048576,\"peak_bytes\":4194304,\
                 \"allocs\":1000,\"deallocs\":900,\"peak_rss_bytes\":8388608,\
                 \"cache_bytes_actual\":512},\"flight\":",
            )
    }

    #[test]
    fn schema_2_snapshots_must_carry_the_mem_block() {
        let good = format!(
            "{}{}",
            upgrade_snapshot(&stats_snapshot(2, 1, 0, 0, 0)),
            upgrade_snapshot(&stats_snapshot(5, 3, 1, 0, 1))
                .replace("\"allocs\":1000", "\"allocs\":2000")
        );
        assert_eq!(check_stats_lines(&good).unwrap(), 2);

        // A v2 snapshot without the allocator block is incomplete.
        let block_less =
            stats_snapshot(2, 1, 0, 0, 0).replace("\"schema_version\":1", "\"schema_version\":2");
        let err = check_stats_lines(&block_less).unwrap_err();
        assert!(err.contains("missing mem"), "{err}");

        // The snapshot loads live before peak: peak < live is broken.
        let inverted = upgrade_snapshot(&stats_snapshot(2, 1, 0, 0, 0))
            .replace("\"peak_bytes\":4194304", "\"peak_bytes\":1");
        let err = check_stats_lines(&inverted).unwrap_err();
        assert!(err.contains("below mem.live_bytes"), "{err}");

        // Allocator lifetime counters are monotone across snapshots.
        let rewound = format!(
            "{}{}",
            upgrade_snapshot(&stats_snapshot(2, 1, 0, 0, 0)),
            upgrade_snapshot(&stats_snapshot(5, 3, 1, 0, 1))
                .replace("\"allocs\":1000", "\"allocs\":10")
        );
        let err = check_stats_lines(&rewound).unwrap_err();
        assert!(err.contains("mem.allocs went backwards"), "{err}");

        // v1 archives predate the block and are exempt.
        assert_eq!(
            check_stats_lines(&stats_snapshot(2, 1, 0, 0, 0)).unwrap(),
            1
        );
    }

    #[test]
    fn validates_stats_snapshots() {
        let good = format!(
            "{}{}{}",
            stats_snapshot(2, 1, 0, 0, 0),
            stats_snapshot(5, 3, 1, 0, 1),
            stats_snapshot(9, 5, 2, 1, 1)
        );
        assert_eq!(check_stats_lines(&good).unwrap(), 3);

        // The status counts must partition completed.
        let inconsistent = stats_snapshot(4, 2, 1, 0, 0)
            .replace("\"completed\":3", "\"completed\":4")
            .replace("\"completed_total\":3", "\"completed_total\":4");
        let err = check_stats_lines(&inconsistent).unwrap_err();
        assert!(err.contains("completed 4 != ok 2"), "{err}");

        // Completed + rejected can never exceed received.
        let overcount = stats_snapshot(1, 2, 0, 0, 1);
        assert!(check_stats_lines(&overcount)
            .unwrap_err()
            .contains("exceeds"));

        // Percentiles must be ordered within each latency block.
        let disordered = stats_snapshot(2, 1, 0, 0, 0).replace("\"p95\":16", "\"p95\":4");
        assert!(check_stats_lines(&disordered)
            .unwrap_err()
            .contains("out of order"));

        // The cache never reports residency beyond its caps.
        let overfull = stats_snapshot(2, 1, 0, 0, 0).replace("\"entries\":1", "\"entries\":200");
        let err = check_stats_lines(&overfull).unwrap_err();
        assert!(err.contains("cache entries 200 > max_entries"), "{err}");
        let overweight =
            stats_snapshot(2, 1, 0, 0, 0).replace("\"bytes\":512", "\"bytes\":99999999");
        assert!(check_stats_lines(&overweight)
            .unwrap_err()
            .contains("max_bytes"));

        // Cache counters are lifetime totals: never backwards.
        let cache_rewind = format!(
            "{}{}",
            stats_snapshot(5, 3, 1, 0, 1),
            stats_snapshot(9, 5, 2, 1, 1).replace("\"misses\":8", "\"misses\":2")
        );
        let err = check_stats_lines(&cache_rewind).unwrap_err();
        assert!(err.contains("cache.misses went backwards"), "{err}");

        // Counters never run backwards across successive snapshots.
        let backwards = format!(
            "{}{}",
            stats_snapshot(5, 3, 1, 0, 1),
            stats_snapshot(4, 2, 1, 0, 1)
        );
        assert!(check_stats_lines(&backwards)
            .unwrap_err()
            .contains("went backwards"));

        // Missing keys and empty inputs are structural failures.
        let keyless = "{\"id\":null,\"status\":\"stats\",\"schema_version\":1}\n";
        assert!(check_stats_lines(keyless)
            .unwrap_err()
            .contains("missing requests"));
        assert!(check_stats_lines("").unwrap_err().contains("no stats"));
    }

    #[test]
    fn validates_chrome_traces() {
        let good = r#"{"traceEvents":[
{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"lacr"}},
{"name":"outer","ph":"B","ts":10,"pid":1,"tid":1,"args":{}},
{"name":"inner","ph":"B","ts":20,"pid":1,"tid":1,"args":{}},
{"name":"c","ph":"C","ts":25,"pid":1,"tid":0,"args":{"value":3}},
{"name":"inner","ph":"E","ts":30,"pid":1,"tid":1},
{"name":"mark","ph":"i","ts":35,"pid":1,"tid":1,"s":"t","args":{}},
{"name":"outer","ph":"E","ts":40,"pid":1,"tid":1}
],"displayTimeUnit":"ms"}"#;
        // Lanes with any B/E activity: tid 0 carries only counter and
        // metadata events, so only tid 1 opens a stack... but tid 0
        // still appears once `stacks.entry` is touched — it is not, so
        // one lane.
        assert_eq!(check_chrome_trace(good).unwrap(), (7, 1));

        // Interleaved (not nested) spans violate the stack discipline.
        let crossed = r#"{"traceEvents":[
{"name":"a","ph":"B","ts":1,"pid":1,"tid":1,"args":{}},
{"name":"b","ph":"B","ts":2,"pid":1,"tid":1,"args":{}},
{"name":"a","ph":"E","ts":3,"pid":1,"tid":1},
{"name":"b","ph":"E","ts":4,"pid":1,"tid":1}
]}"#;
        assert!(check_chrome_trace(crossed)
            .unwrap_err()
            .contains("does not match"));

        // A close with no open, and a dangling open, both fail.
        let orphan_close = r#"{"traceEvents":[{"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]}"#;
        assert!(check_chrome_trace(orphan_close)
            .unwrap_err()
            .contains("no open B"));
        let dangling =
            r#"{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":1,"args":{}}]}"#;
        assert!(check_chrome_trace(dangling)
            .unwrap_err()
            .contains("still open"));

        // Same-name spans on different lanes are independent.
        let lanes = r#"{"traceEvents":[
{"name":"a","ph":"B","ts":1,"pid":1,"tid":1,"args":{}},
{"name":"a","ph":"B","ts":2,"pid":1,"tid":2,"args":{}},
{"name":"a","ph":"E","ts":3,"pid":1,"tid":2},
{"name":"a","ph":"E","ts":4,"pid":1,"tid":1}
]}"#;
        assert_eq!(check_chrome_trace(lanes).unwrap(), (4, 2));

        // Timestamps must not run backwards within a lane.
        let rewound = r#"{"traceEvents":[
{"name":"a","ph":"B","ts":10,"pid":1,"tid":1,"args":{}},
{"name":"a","ph":"E","ts":5,"pid":1,"tid":1}
]}"#;
        assert!(check_chrome_trace(rewound)
            .unwrap_err()
            .contains("high-water"));

        assert!(check_chrome_trace("{}")
            .unwrap_err()
            .contains("traceEvents"));
        assert!(check_chrome_trace(r#"{"traceEvents":[]}"#)
            .unwrap_err()
            .contains("empty"));
    }

    #[test]
    fn validates_flight_dumps() {
        let good = "\
{\"t\":\"flight\",\"schema_version\":1,\"reason\":\"panic: boom\",\"events\":2,\"dropped\":0}
{\"t\":\"event\",\"us\":1,\"name\":\"route.pass\",\"attrs\":{}}
{\"t\":\"gauge\",\"us\":2,\"name\":\"lac.n_foa\",\"value\":3}
";
        assert_eq!(check_flight_dump(good).unwrap(), ("panic: boom".into(), 2));
        // Count mismatch between header and body.
        let short = "\
{\"t\":\"flight\",\"schema_version\":1,\"reason\":\"r\",\"events\":2,\"dropped\":0}
{\"t\":\"event\",\"us\":1,\"name\":\"x\",\"attrs\":{}}
";
        assert!(check_flight_dump(short).unwrap_err().contains("declares 2"));
        // A dump never contains a summary record.
        let with_summary = "\
{\"t\":\"flight\",\"schema_version\":1,\"reason\":\"r\",\"events\":1,\"dropped\":0}
{\"t\":\"summary\",\"schema_version\":1}
";
        assert!(check_flight_dump(with_summary)
            .unwrap_err()
            .contains("unknown record type"));
        // Header must be versioned.
        let legacy = "{\"t\":\"flight\",\"reason\":\"r\",\"events\":0,\"dropped\":0}\n";
        assert!(check_flight_dump(legacy)
            .unwrap_err()
            .contains("schema_version"));
        assert!(check_flight_dump("").unwrap_err().contains("empty"));
    }
}
