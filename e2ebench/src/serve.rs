//! The serve workload: an in-process `tpdbt-serve` daemon over loopback
//! TCP, driven open loop at a fixed offered rate by a seeded query
//! stream, then closed loop by a pipelined replay of the same stream.
//!
//! The stream mixes tiny-scale `cell`, `base` and `plain` queries. Most
//! are a skewed (Zipf) draw over all 390 keys the pre-fill sweep
//! stores, more than the daemon's 256-entry hot tier holds, so the tail
//! of the draw lands on the disk tier. A small share asks for
//! small-scale cells at thresholds no earlier query asked for, which
//! forces a guest run; each such query arrives on every connection at
//! once, so concurrent requests for it coalesce.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tpdbt_dbt::{DbtConfig, OptMode};
use tpdbt_experiments::runner::ladder;
use tpdbt_experiments::sweep::{run_sweep, SweepOptions};
use tpdbt_serve::json::Json;
use tpdbt_serve::proto::{base_payload, cell_payload, Request};
use tpdbt_serve::{start, Bind, Client, ProfileService, ServerConfig, ServerHandle, ServiceConfig};
use tpdbt_store::digest::fnv64_words;
use tpdbt_store::ProfileStore;
use tpdbt_suite::{all_names, InputKind, Scale};

use crate::check::{build_inputs, cell_config, check_store, references, Reference};
use crate::drive::{set_replay_metrics, set_sweep_metrics};
use crate::metrics::Outcome;
use crate::plan::{parallelism, serve_prefill_plan};
use crate::spans::{render_table, Recorder};
use crate::sweep::replay;
use crate::util::{median, percentile, secs, Rng};

/// Offered rate of the open-loop phase, queries per second over all
/// connections: under a hundredth of what the daemon sustains closed
/// loop, so queueing comes from guest runs, not saturation. A guest run
/// holds up both connections, so this rate times the guest run's
/// length sets the share of queries that wait behind one (about 15 %).
pub const RATE_QPS: f64 = 500.0;
/// One arrival in every block of this many, at a seeded position in
/// the block, asks for a new threshold. Each such arrival sends one
/// query per connection, so guest runs and the queries that coalesce
/// onto them are 2 % of all queries: p99 falls inside that slow group
/// rather than at its edge, and a fixed count keeps it there in every
/// run.
pub const NEW_THRESHOLD_EVERY: usize = 100;
/// The benchmarks a new threshold is asked of, dealt from a deck that
/// the seed shuffles, so each is asked equally often. Their small-scale
/// `cell` computation (AVEP lookup, two-phase run, analysis, durable
/// store write) took 29–33 ms in the daemon on a 2-core Xeon, within
/// 1.15× of each other, INT and FP. A narrow group keeps p99 from
/// depending on which benchmarks the seed picks, or on exactly where in
/// the group the 99th percentile lands; and a guest run longer than
/// the 10–40 ms stalls a shared host inflicts keeps those stalls, which
/// hit a few per cent of all queries, from deciding p99.
pub const FRESH_BENCHES: [&str; 5] = ["apsi", "eon", "gzip", "mcf", "vortex"];
/// New thresholds are drawn from this range in the middle of the
/// small-scale ladder, skipping the ladder's own points.
const FRESH_THRESHOLDS: std::ops::Range<u64> = 1000..3000;
/// Scale of the new-threshold cells.
const FRESH_SCALE: Scale = Scale::Small;
/// Zipf exponent of the key draw.
const ZIPF_S: f64 = 1.0;
/// Share of `--seconds` spent open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.7;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Pre-fill sweeps timed again after the timed phases, so that
/// `sweep_s`, the median of all of a run's pre-fill sweeps, spans the
/// run rather than its first seconds.
const PREFILLS_AFTER: usize = 4;
const SCALE: Scale = Scale::Tiny;

/// One query of the stream.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// A plain profile on the reference or training input.
    Plain(&'static str, Scale, InputKind),
    /// The `T = 1` base.
    Base(&'static str),
    /// One analyzed cell at a threshold.
    Cell(&'static str, Scale, u64),
}

impl Query {
    fn request(&self) -> Request {
        match *self {
            Query::Plain(w, scale, input) => Request::Plain {
                workload: w.to_string(),
                scale,
                input,
            },
            Query::Base(w) => Request::Base {
                workload: w.to_string(),
                scale: SCALE,
            },
            Query::Cell(w, scale, threshold) => Request::Cell {
                workload: w.to_string(),
                scale,
                threshold,
            },
        }
    }

    fn bench(&self) -> &'static str {
        match *self {
            Query::Plain(w, ..) | Query::Base(w) | Query::Cell(w, ..) => w,
        }
    }

    fn scale(&self) -> Scale {
        match *self {
            Query::Plain(_, scale, _) | Query::Cell(_, scale, _) => scale,
            Query::Base(_) => SCALE,
        }
    }
}

/// Every key the pre-fill sweep stores.
#[must_use]
pub fn stored_keys() -> Vec<Query> {
    let points = ladder(SCALE);
    let mut keys = Vec::new();
    for w in all_names() {
        keys.push(Query::Plain(w, SCALE, InputKind::Ref));
        keys.push(Query::Plain(w, SCALE, InputKind::Train));
        keys.push(Query::Base(w));
        keys.extend(points.iter().map(|p| Query::Cell(w, SCALE, p.actual)));
    }
    keys
}

/// One scheduled query.
#[derive(Clone, Debug, PartialEq)]
pub struct Arrival {
    /// When it is due, from the start of the phase.
    pub due: Duration,
    /// The query.
    pub query: Query,
}

/// The seeded open-loop stream for `seconds` at [`RATE_QPS`], split
/// across `connections`: exponential inter-arrival times, a Zipf draw
/// over a seeded ranking of the stored keys, and one arrival in every
/// [`NEW_THRESHOLD_EVERY`] asking every connection at once for a
/// [`FRESH_SCALE`] cell of one of [`FRESH_BENCHES`] at a threshold no
/// earlier query asked for.
#[must_use]
pub fn stream(seed: u64, seconds: f64, connections: usize) -> Vec<Vec<Arrival>> {
    let mut rng = Rng::new(seed, 2);
    let keys = ranked_keys(&mut rng);
    let mut cumulative = Vec::with_capacity(keys.len());
    let mut total = 0.0;
    for rank in 0..keys.len() {
        total += 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
        cumulative.push(total);
    }
    let on_ladder: HashSet<u64> = ladder(FRESH_SCALE).iter().map(|p| p.actual).collect();
    let mut asked: HashSet<(&str, u64)> = HashSet::new();
    let mut deck: Vec<&'static str> = Vec::new();
    let mut per_conn = vec![Vec::new(); connections];
    let mut due = 0.0;
    let mut next_conn = 0;
    let mut fresh_at = 0;
    for i in 0.. {
        due += -(1.0 - rng.unit()).ln() / RATE_QPS;
        if due >= seconds {
            break;
        }
        let at = Duration::from_secs_f64(due);
        if i % NEW_THRESHOLD_EVERY == 0 {
            fresh_at = i + rng.below(NEW_THRESHOLD_EVERY);
        }
        if i == fresh_at {
            if deck.is_empty() {
                deck = FRESH_BENCHES.to_vec();
                for j in (1..deck.len()).rev() {
                    deck.swap(j, rng.below(j + 1));
                }
            }
            let bench = deck.pop().expect("the deck was refilled");
            let threshold = loop {
                let t = FRESH_THRESHOLDS.start
                    + rng.below((FRESH_THRESHOLDS.end - FRESH_THRESHOLDS.start) as usize) as u64;
                if !on_ladder.contains(&t) && asked.insert((bench, t)) {
                    break t;
                }
            };
            for conn in &mut per_conn {
                conn.push(Arrival {
                    due: at,
                    query: Query::Cell(bench, FRESH_SCALE, threshold),
                });
            }
        } else {
            let u = rng.unit() * total;
            let rank = cumulative.partition_point(|&c| c < u).min(keys.len() - 1);
            per_conn[next_conn].push(Arrival {
                due: at,
                query: keys[rank].clone(),
            });
            next_conn = (next_conn + 1) % connections;
        }
    }
    per_conn
}

/// One answered query, as the client saw it.
#[derive(Clone, Copy, Debug)]
struct Timing {
    /// Scheduled send time.
    due: Instant,
    sent: Instant,
    done: Instant,
    /// The tier that answered, or `failed`.
    tier: &'static str,
}

/// Replies seen on one or more connections: the first payload per
/// query and how often each query was answered, plus every failure.
#[derive(Debug, Default)]
struct Replies {
    first: HashMap<Query, (String, u64)>,
    /// Error replies, and replies that differ from the first payload
    /// for the same query.
    failed: u64,
    /// `overloaded` error replies.
    refused: u64,
    count: u64,
    errors: Vec<String>,
}

impl Replies {
    fn merge(&mut self, other: Replies) {
        for (q, (payload, n)) in other.first {
            match self.first.get_mut(&q) {
                Some((mine, count)) if *mine == payload => *count += n,
                Some(_) => {
                    self.failed += n;
                    self.errors.push(format!("connections disagree on {q:?}"));
                }
                None => {
                    self.first.insert(q, (payload, n));
                }
            }
        }
        self.failed += other.failed;
        self.refused += other.refused;
        self.count += other.count;
        self.errors.extend(other.errors);
    }
}

/// Sends `query`, reads its reply, and notes it in `replies`. Returns
/// the answering tier (`failed` for an error reply).
fn ask(client: &mut Client, query: &Query, replies: &mut Replies) -> Result<&'static str, String> {
    let reply = client
        .request(query.request(), None)
        .map_err(|e| format!("request {query:?}: {e}"))?;
    Ok(note(&reply, query, replies))
}

/// Notes the reply to `query` in `replies`; returns the answering tier
/// (`failed` for an error reply).
fn note(reply: &Json, query: &Query, replies: &mut Replies) -> &'static str {
    replies.count += 1;
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        replies.failed += 1;
        if code == "overloaded" {
            replies.refused += 1;
        }
        if replies.errors.len() < 5 {
            replies.errors.push(format!("{query:?}: error {code}"));
        }
        return "failed";
    }
    let tier = match reply.get("source").and_then(Json::as_str) {
        Some("memory") => "memory",
        Some("disk") => "disk",
        Some("computed") => "computed",
        Some("coalesced") => "coalesced",
        _ => "unknown",
    };
    let payload = ["cell", "base", "profile"]
        .iter()
        .find_map(|k| reply.get(k))
        .map_or_else(String::new, Json::render);
    match replies.first.get_mut(query) {
        Some((first, n)) if *first == payload => *n += 1,
        Some(_) => {
            replies.failed += 1;
            if replies.errors.len() < 5 {
                replies.errors.push(format!("{query:?}: reply changed"));
            }
        }
        None => {
            replies.first.insert(query.clone(), (payload, 1));
        }
    }
    tier
}

/// How long before a due time the generator stops sleeping and spins,
/// so that the timer's slack and the generator's own wake-up are not
/// charged to the query.
const SPIN: Duration = Duration::from_micros(300);

/// Sleeps until shortly before `due`, then spins until `due`.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Open loop: each connection sends its arrivals at their due times
/// and waits for each reply; latency counts from the due time, so a
/// reply that holds up the next send charges its wait to that query.
fn open_loop(addr: &str, stream: &[Vec<Arrival>]) -> Result<(Vec<Timing>, Replies), String> {
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let threads: Vec<_> = stream
            .iter()
            .map(|arrivals| {
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    let mut replies = Replies::default();
                    let mut timings = Vec::with_capacity(arrivals.len());
                    for a in arrivals {
                        let due = start + a.due;
                        wait_until(due);
                        let sent = Instant::now();
                        let tier = ask(&mut client, &a.query, &mut replies)?;
                        let done = Instant::now();
                        timings.push(Timing {
                            due,
                            sent,
                            done,
                            tier,
                        });
                    }
                    Ok::<_, String>((timings, replies))
                })
            })
            .collect();
        let mut timings = Vec::new();
        let mut replies = Replies::default();
        for t in threads {
            let (ts, rs) = t
                .join()
                .map_err(|_| "open-loop client panicked".to_string())??;
            timings.extend(ts);
            replies.merge(rs);
        }
        Ok((timings, replies))
    })
}

/// Requests each closed-loop connection keeps in flight.
const PIPELINE: usize = 8;
/// Length of one closed-loop segment.
const SEGMENT: Duration = Duration::from_millis(500);

/// Closed loop: in each [`SEGMENT`] every connection replays its share
/// of the stream, from the top again when it runs out, keeping
/// [`PIPELINE`] requests in flight. Each segment opens new connections
/// on new client threads, so which server worker and which core each
/// connection lands on is drawn again every segment rather than once
/// per run. Returns the replies and the completed queries per second
/// of each segment.
fn closed_loop(
    addr: &str,
    stream: &[Vec<Arrival>],
    seconds: f64,
) -> Result<(Replies, Vec<f64>), String> {
    let segments = ((seconds / SEGMENT.as_secs_f64()).floor() as usize).max(1);
    let mut all = Replies::default();
    let mut rates = Vec::with_capacity(segments);
    for _ in 0..segments {
        let (replies, rate) = closed_segment(addr, stream)?;
        all.merge(replies);
        rates.push(rate);
    }
    Ok((all, rates))
}

/// One closed-loop segment: connects, then counts the replies that
/// arrive within [`SEGMENT`] of the moment every connection is ready.
fn closed_segment(addr: &str, stream: &[Vec<Arrival>]) -> Result<(Replies, f64), String> {
    let ready = Barrier::new(stream.len());
    std::thread::scope(|scope| {
        let threads: Vec<_> = stream
            .iter()
            .map(|arrivals| {
                let ready = &ready;
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"));
                    ready.wait();
                    let client = client.as_mut().map_err(|e| e.clone())?;
                    let until = Instant::now() + SEGMENT;
                    let send = |client: &mut Client, query: &Query| {
                        client
                            .send_request(query.request(), None)
                            .map_err(|e| format!("send {query:?}: {e}"))
                    };
                    let mut queries = arrivals.iter().map(|a| &a.query).cycle();
                    let mut in_flight = VecDeque::with_capacity(PIPELINE);
                    for query in queries.by_ref().take(PIPELINE) {
                        in_flight.push_back((send(client, query)?, query));
                    }
                    let mut replies = Replies::default();
                    let mut done = 0u64;
                    while let Some((id, query)) = in_flight.pop_front() {
                        let reply = client
                            .read_reply()
                            .map_err(|e| format!("reply to {query:?}: {e}"))?;
                        if reply.get("id").and_then(Json::as_u64) != Some(id) {
                            return Err(format!("reply to {query:?} carries the wrong id"));
                        }
                        note(&reply, query, &mut replies);
                        if Instant::now() < until {
                            done += 1;
                            let next = queries.next().expect("the stream is not empty");
                            in_flight.push_back((send(client, next)?, next));
                        }
                    }
                    Ok::<_, String>((replies, done))
                })
            })
            .collect();
        let mut all = Replies::default();
        let mut done = 0;
        for t in threads {
            let (replies, n) = t
                .join()
                .map_err(|_| "closed-loop client panicked".to_string())??;
            all.merge(replies);
            done += n;
        }
        Ok((all, done as f64 / SEGMENT.as_secs_f64()))
    })
}

/// A daemon over a pre-filled store.
struct Daemon {
    handle: ServerHandle,
    store: PathBuf,
}

fn start_daemon(store: &Path) -> Result<Daemon, String> {
    let service = Arc::new(ProfileService::new(ServiceConfig {
        cache_dir: Some(store.to_path_buf()),
        ..ServiceConfig::default()
    }));
    service.startup_recovery();
    // The `tpdbt-serve` binary's defaults.
    let handle = start(
        service,
        ServerConfig {
            bind: Bind::Tcp("127.0.0.1:0".to_string()),
            workers: 4,
            queue_depth: 16,
            accept_shards: 2,
        },
    )
    .map_err(|e| format!("start daemon: {e}"))?;
    Ok(Daemon {
        handle,
        store: store.to_path_buf(),
    })
}

/// The stored keys in the seed's popularity order, most drawn first.
fn ranked_keys(rng: &mut Rng) -> Vec<Query> {
    let mut keys = stored_keys();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i + 1));
    }
    keys
}

/// Primes a started daemon: the AVEP of every benchmark new thresholds
/// are asked of, at their scale, so that a new-threshold cell costs one
/// guest run; then one query per stored key, least drawn first, so the
/// hot tier ends up holding the keys the stream draws most.
fn prime(addr: &str, seed: u64) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut replies = Replies::default();
    let avep = FRESH_BENCHES.map(|w| Query::Plain(w, FRESH_SCALE, InputKind::Ref));
    for q in avep
        .iter()
        .chain(ranked_keys(&mut Rng::new(seed, 2)).iter().rev())
    {
        ask(&mut client, q, &mut replies)?;
    }
    match replies.errors.first() {
        Some(e) => Err(format!("priming: {e}")),
        None => Ok(()),
    }
}

/// Runs the tiny-scale pre-fill sweep into a fresh `store` directory;
/// returns its wall time in seconds.
fn prefill(store: &Path) -> Result<f64, String> {
    let plan = serve_prefill_plan();
    fs::create_dir_all(store).map_err(|e| format!("create {}: {e}", store.display()))?;
    let opts = SweepOptions {
        jobs: plan.jobs,
        cache_dir: Some(store.to_path_buf()),
        ..SweepOptions::default()
    };
    let started = Instant::now();
    let report = run_sweep(&plan.names, plan.scale, &opts, |_| {}).map_err(|e| e.to_string())?;
    let wall = secs(started.elapsed());
    if report.degraded.has_failures() {
        return Err("the pre-fill sweep dropped cells".to_string());
    }
    Ok(wall)
}

/// The serve set-up, timed: a fresh store directory, the tiny-scale
/// pre-fill sweep, daemon start (with its startup recovery) and
/// priming. Repeated [`SETUP_REPS`] times; all but the last daemon are
/// shut down again, untimed. Returns the set-up times, the pre-fill
/// sweep times and the last daemon.
fn setup(seed: u64, work: &Path) -> Result<(Vec<f64>, Vec<f64>, Daemon), String> {
    let mut times = Vec::new();
    let mut prefills = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPS {
        let started = Instant::now();
        let store = work.join(format!("serve{i}")).join("store");
        prefills.push(prefill(&store)?);
        let daemon = start_daemon(&store)?;
        prime(daemon.handle.addr(), seed)?;
        times.push(secs(started.elapsed()));
        if let Some(old) = last.replace(daemon) {
            stop(old);
        }
    }
    Ok((
        times,
        prefills,
        last.expect("at least one set-up repetition"),
    ))
}

fn stop(d: Daemon) {
    d.handle.shutdown();
    if let Some(dir) = d.store.parent() {
        let _ = fs::remove_dir_all(dir);
    }
}

/// What a correct reply to `query` carries: for `cell` and `base`, the
/// payload of the artifact stored under its key, provided that
/// artifact's output digest is the reference's; for `plain`, the
/// reference output's digest. `None` when no correct reply exists.
fn expected_reply(query: &Query, store: &ProfileStore, r: &Reference) -> Option<String> {
    let ref_digest = fnv64_words(&r.ref_output);
    match *query {
        Query::Cell(_, _, t) => {
            let cfg = cell_config(DbtConfig::two_phase(t), OptMode::Sync);
            let c = store.load_cell(&r.ref_guest.key(&cfg))?;
            (c.output_digest == ref_digest).then(|| cell_payload(&c).render())
        }
        Query::Base(_) => {
            let cfg = cell_config(DbtConfig::two_phase(1), OptMode::Sync);
            let b = store.load_base(&r.ref_guest.key(&cfg))?;
            (b.output_digest == ref_digest).then(|| base_payload(&b).render())
        }
        Query::Plain(_, _, kind) => {
            let output = if kind == InputKind::Ref {
                &r.ref_output
            } else {
                &r.train_output
            };
            Some(format!("{:016x}", fnv64_words(output)))
        }
    }
}

/// Checks each query's reply against [`expected_reply`]; every reply
/// to a query whose reply is wrong counts as failed.
#[must_use]
fn check_replies(replies: &Replies, store: &Path, refs: &ServeRefs) -> (u64, Vec<String>) {
    let store = ProfileStore::new(store);
    let mut failed = replies.failed;
    let mut errors = replies.errors.clone();
    for (query, (payload, n)) in &replies.first {
        let want = refs
            .of(query)
            .and_then(|r| expected_reply(query, &store, r));
        let got = match query {
            Query::Plain(..) => tpdbt_serve::json::parse(payload).ok().and_then(|v| {
                v.get("output_digest")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            }),
            _ => Some(payload.clone()),
        };
        if want.is_none() || want != got {
            failed += n;
            if errors.len() < 10 {
                errors.push(format!("wrong reply to {query:?}: {got:?}"));
            }
        }
    }
    (failed, errors)
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Samples in one open-loop latency block: ten beyond its p99.
const BLOCK: usize = 1000;

/// Open-loop latency from each query's due time: the median over all
/// samples, and the median over blocks of [`BLOCK`] consecutive samples
/// (by due time) of each block's p99, so that one stall in one block
/// does not decide the run's tail. Returns p50 and p99 in µs, and the
/// number of blocks.
fn open_loop_latency(open: &[Timing]) -> (f64, f64, usize) {
    let mut by_due: Vec<(Instant, f64)> = open
        .iter()
        .map(|t| (t.due, micros(t.done - t.due)))
        .collect();
    by_due.sort_by_key(|&(due, _)| due);
    let p99s: Vec<f64> = by_due
        .chunks_exact(BLOCK)
        .map(|block| {
            let mut v: Vec<f64> = block.iter().map(|&(_, us)| us).collect();
            v.sort_by(f64::total_cmp);
            percentile(&v, 99.0)
        })
        .collect();
    let mut all: Vec<f64> = by_due.into_iter().map(|(_, us)| us).collect();
    all.sort_by(f64::total_cmp);
    // A run too short for one whole block reports the p99 of all samples.
    let p99 = if p99s.is_empty() {
        percentile(&all, 99.0)
    } else {
        median(&p99s)
    };
    (percentile(&all, 50.0), p99, p99s.len())
}

/// What the two phases measured.
struct Phases {
    open: Vec<Timing>,
    replies: Replies,
    /// Closed-loop queries per second, one value per segment.
    closed_rates: Vec<f64>,
}

fn run_phases(seed: u64, seconds: f64, daemon: &Daemon) -> Result<Phases, String> {
    let stream = stream(seed, seconds * OPEN_SHARE, parallelism());
    let addr = daemon.handle.addr();
    let (open, mut replies) = open_loop(addr, &stream)?;
    let (closed, closed_rates) = closed_loop(addr, &stream, seconds * (1.0 - OPEN_SHARE))?;
    replies.merge(closed);
    Ok(Phases {
        open,
        replies,
        closed_rates,
    })
}

/// Counts the phases' replies into `out` and checks them, and the
/// pre-filled store, against the reference.
fn check_all(p: &Phases, daemon: &Daemon, refs: &ServeRefs, out: &mut Outcome) {
    out.attempted = p.replies.count;
    let (failed, errors) = check_replies(&p.replies, &daemon.store, refs);
    out.failed = failed;
    out.errors.extend(errors);
    let stored = check_store(
        &ProfileStore::new(&daemon.store),
        &refs.stored,
        SCALE,
        OptMode::Sync,
    );
    for f in stored.iter().take(5) {
        out.errors.push(format!("pre-filled store: {f}"));
    }
}

/// Reference outputs of the guests the stream asks about.
struct ServeRefs {
    /// The whole suite at the stored keys' scale.
    stored: Vec<Reference>,
    /// [`FRESH_BENCHES`] at [`FRESH_SCALE`].
    fresh: Vec<Reference>,
}

impl ServeRefs {
    fn new() -> Result<ServeRefs, String> {
        Ok(ServeRefs {
            stored: references(&build_inputs(&all_names(), SCALE)?, SCALE)?,
            fresh: references(&build_inputs(&FRESH_BENCHES, FRESH_SCALE)?, FRESH_SCALE)?,
        })
    }

    /// The reference for `query`'s guest.
    fn of(&self, query: &Query) -> Option<&Reference> {
        let refs = if query.scale() == SCALE {
            &self.stored
        } else {
            &self.fresh
        };
        refs.iter().find(|r| r.name == query.bench())
    }
}

/// The untraced serve run.
///
/// `sweep_s` is the median pre-fill sweep, over the set-ups and
/// [`PREFILLS_AFTER`] more after the timed phases; `p50_us` and `p99_us` are
/// open-loop latencies from each query's due time; `ops_per_s` is the
/// closed-loop rate.
///
/// # Errors
///
/// Set-up, transport and reference failures.
pub fn serve_workload(seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let (setup_times, mut prefills, daemon) = setup(seed, work)?;
    let refs = ServeRefs::new()?;
    let phases = run_phases(seed, seconds, &daemon)?;
    let mut out = Outcome::default();
    check_all(&phases, &daemon, &refs, &mut out);
    stop(daemon);
    for i in 0..PREFILLS_AFTER {
        let dir = work.join(format!("after{i}"));
        prefills.push(prefill(&dir.join("store"))?);
        let stored = check_store(
            &ProfileStore::new(dir.join("store")),
            &refs.stored,
            SCALE,
            OptMode::Sync,
        );
        for f in stored.iter().take(5) {
            out.errors.push(format!("pre-fill after the phases: {f}"));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    let (p50, p99, blocks) = open_loop_latency(&phases.open);
    let qps = median(&phases.closed_rates);
    eprintln!(
        "open loop at {RATE_QPS} queries/s offered over {} connections: {} samples",
        parallelism(),
        phases.open.len(),
    );
    eprintln!(
        "  serve_p50_us = {p50:.1} us over all samples; serve_p99_us = {p99:.1} us, the median \
         p99 of {blocks} blocks of {BLOCK} consecutive samples (reported as p50_us, p99_us)"
    );
    eprintln!(
        "closed loop, {PIPELINE} requests in flight per connection: median of {} segments of {} \
         ms, new connections in each",
        phases.closed_rates.len(),
        SEGMENT.as_millis()
    );
    eprintln!("  serve_qps = {qps:.0} 1/s (reported as ops_per_s)");
    eprintln!(
        "pre-fill sweeps: median of {} ({SETUP_REPS} in set-up, {PREFILLS_AFTER} after the \
         timed phases)",
        prefills.len()
    );
    out.set("setup_s", median(&setup_times));
    out.set("sweep_s", median(&prefills));
    out.set("p50_us", p50);
    out.set("p99_us", p99);
    out.set("ops_per_s", qps);
    out.finish()?;
    Ok(out)
}

/// The traced serve run: the pre-fill sweep is replayed cell by cell
/// with spans (after one `run_sweep` as its control), the daemon serves
/// the replay's store, and every open-loop query becomes a client span
/// named after the tier that answered it.
///
/// # Errors
///
/// Set-up, replay, transport and reference failures.
pub fn trace_serve_workload(seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let plan = serve_prefill_plan();
    let refs = ServeRefs::new()?;
    let mut out = Outcome::default();

    let control_dir = work.join("control");
    let opts = SweepOptions {
        jobs: plan.jobs,
        cache_dir: Some(control_dir.join("store")),
        ..SweepOptions::default()
    };
    let control_start = Instant::now();
    let report = run_sweep(&plan.names, plan.scale, &opts, |_| {}).map_err(|e| e.to_string())?;
    let control_wall = control_start.elapsed();
    let _ = fs::remove_dir_all(&control_dir);

    let origin = Instant::now();
    let mut rec = Recorder::new(origin);
    let store = work.join("serve0").join("store");
    let replayed = rec.span("bench.replay", 0, |rec| {
        replay(&plan, &refs.stored, &store, None, rec)
    })?;
    let wall = origin.elapsed();
    let daemon = start_daemon(&store)?;
    prime(daemon.handle.addr(), seed)?;
    let phases = run_phases(seed, seconds, &daemon)?;
    check_all(&phases, &daemon, &refs, &mut out);
    let stats = Client::connect(daemon.handle.addr())
        .and_then(|mut c| c.request(Request::Stats, None))
        .map_err(|e| format!("stats: {e}"))?;
    let guest_runs = stats
        .get("stats")
        .and_then(|s| s.get("guest_runs"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    stop(daemon);

    let rows = rec.layer_table(wall);
    eprint!(
        "{}",
        render_table("per-layer time of the pre-fill replay", &rows, wall)
    );
    eprintln!(
        "replay wall {:.3} s against untraced pre-fill sweep {:.3} s",
        secs(wall),
        secs(control_wall)
    );

    // Client spans of the open loop, one per query, named after the
    // answering tier.
    let mut queries = Recorder::new(origin);
    for (i, t) in phases.open.iter().enumerate() {
        let name = match t.tier {
            "memory" => "serve.memory",
            "disk" => "serve.disk",
            "computed" => "serve.computed",
            "coalesced" => "serve.coalesced",
            _ => "serve.failed",
        };
        queries.record(name, i as u64, t.due, t.done);
    }
    let spans_path = work.join("spans.jsonl");
    fs::write(&spans_path, rec.to_jsonl() + &queries.to_jsonl())
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;

    let n = phases.open.len().max(1) as f64;
    let share = |name| queries.durations(name).len() as f64 / n;
    let p50 = |name, per_second: f64| {
        let mut v: Vec<f64> = queries
            .durations(name)
            .iter()
            .map(|d| d.as_secs_f64() * per_second)
            .collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, 50.0)
    };
    eprintln!("open-loop replies by tier (latency from the due time):");
    for tier in [
        "serve.memory",
        "serve.disk",
        "serve.computed",
        "serve.coalesced",
        "serve.failed",
    ] {
        eprintln!(
            "  {tier:<16} {:>6} replies  p50 {:>10.1} us",
            queries.durations(tier).len(),
            p50(tier, 1e6)
        );
    }
    let mut late: Vec<f64> = phases
        .open
        .iter()
        .map(|t| micros(t.sent.saturating_duration_since(t.due)))
        .collect();
    late.sort_by(f64::total_cmp);

    set_sweep_metrics(&mut out, &report, plan.jobs);
    set_replay_metrics(&mut out, &rec, &replayed, wall);
    out.set("bench.replay_ratio", secs(wall) / secs(control_wall));
    out.set("serve.memory_share", share("serve.memory"));
    out.set("serve.disk_share", share("serve.disk"));
    out.set("serve.computed_share", share("serve.computed"));
    out.set("serve.coalesced_share", share("serve.coalesced"));
    out.set("serve.memory_us_p50", p50("serve.memory", 1e6));
    out.set("serve.disk_us_p50", p50("serve.disk", 1e6));
    out.set("serve.computed_ms_p50", p50("serve.computed", 1e3));
    out.set("serve.refused", phases.replies.refused as f64);
    out.set("serve.guest_runs", guest_runs);
    out.set("serve.gen_late_us_p99", percentile(&late, 99.0));
    out.finish()?;
    Ok(out)
}
