//! The four workloads: the engine shape they share, set-up, the timed
//! closed loops, and the end-to-end metrics of an untraced run.
//!
//! * `query_cached` — one client, single queries at the paper's budgets,
//!   every buffer pool holding the whole index: the CPU query path alone.
//! * `query_small_cache` — the same queries under a shared page budget of
//!   an eighth of the index: physical reads and eviction on every query.
//! * `serve_http` — one keep-alive connection to a default-config
//!   `Server`, cheap budgets: per-request fixed costs of the server.
//! * `write_mix` — one client running a seeded sequence of queries,
//!   inserts and deletes with background compaction: the write path.

use std::fs;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hd_core::api::{AnnIndex, SearchRequest};
use hd_core::dataset::DatasetProfile;
use hd_core::metrics::average_precision;
use hd_core::topk::Neighbor;
use hd_core::ObjectId;
use hd_engine::{Engine, EngineParams};
use hd_index::{HdIndexParams, QueryParams};
use hd_server::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::corpus::{self, same_answer, Corpus, K, N, QUERIES};
use crate::env;
use crate::http::{self, Conn};
use crate::report::{mean, median, percentile, ratio, Report};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    QueryCached,
    QuerySmallCache,
    ServeHttp,
    WriteMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "query_cached" => Some(Self::QueryCached),
            "query_small_cache" => Some(Self::QuerySmallCache),
            "serve_http" => Some(Self::ServeHttp),
            "write_mix" => Some(Self::WriteMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::QueryCached => "query_cached",
            Self::QuerySmallCache => "query_small_cache",
            Self::ServeHttp => "serve_http",
            Self::WriteMix => "write_mix",
        }
    }

    /// The query budgets the workload's queries run with.
    pub fn query_params(self) -> QueryParams {
        match self {
            Self::ServeHttp => QueryParams::triangular(HTTP_CANDIDATES, HTTP_REFINE, K),
            _ => QueryParams::triangular(ALPHA, GAMMA, K),
        }
    }
}

/// Engine shape shared by every workload: two shards on a two-thread pool,
/// one per core of the two-core machine the benchmark is sized for.
pub const SHARDS: usize = 2;
const THREADS: usize = 2;
/// The paper's query budgets: α candidates per RDB-tree, γ survivors.
const ALPHA: usize = 4096;
const GAMMA: usize = 1024;
/// `serve_http` budgets: cheap per-request work, so that the server's
/// per-request fixed costs dominate.
const HTTP_CANDIDATES: usize = 32;
const HTTP_REFINE: usize = 16;
/// Closed-loop connections. Two connections phase-lock against the
/// coalescer's gather window (their throughput moved between 730 and 1410
/// requests/s from run to run on a two-core machine); one is steady.
const HTTP_CLIENTS: usize = 1;
/// Per-pool page cap, above the largest pool of any run (a shard heap of
/// N/2 vectors is N/16 pages), so `query_cached` holds the whole index.
pub const POOL_PAGES: usize = 16_384;
/// `query_small_cache` shares one page budget of 1/8 of the index's pages
/// across every pool of both shards.
const SMALL_CACHE_FRACTION: u64 = 8;
/// `write_mix` repeats a cycle: a write burst of `BURST_INSERTS` inserts,
/// then deletes from one shard (alternating by cycle) until its tombstone
/// density reaches `COMPACTION_THRESHOLD`, with queries mixed in; then
/// `READ_OPS` queries. The last delete of a burst starts that shard's
/// background compaction, which installs during the read stretch: the
/// engine discards a compaction plan when a write lands on the shard while
/// the plan is prepared, and a write waits for the preparation, so writes
/// and compaction must not overlap for compactions to complete.
const COMPACTION_THRESHOLD: f64 = 0.002;
const BURST_INSERTS: usize = 200;
const READ_OPS: usize = 250;
const BURST_QUERY_PERCENT: u32 = 20;
/// `write_mix` queries scored against exact ground truth over the live set
/// at the moment each runs: the first ones of the sequence, always run.
const SCORED_QUERIES: usize = 100;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

fn engine_params(w: Workload, cache_budget_pages: usize) -> EngineParams {
    EngineParams {
        shards: SHARDS,
        threads: THREADS,
        cache_budget_pages,
        build_budget_bytes: 0,
        index: HdIndexParams {
            query_cache_pages: POOL_PAGES,
            ..HdIndexParams::for_profile(&DatasetProfile::SIFT)
        },
        compaction_threshold: (w == Workload::WriteMix).then_some(COMPACTION_THRESHOLD),
    }
}

/// A built, opened (and on `serve_http`, served) engine.
pub struct Deployment {
    pub engine: Arc<Engine>,
    pub server: Option<Server>,
    pub dir: PathBuf,
    /// The shared page budget of `query_small_cache`; 0 for none.
    pub cache_budget_pages: usize,
    /// Per set-up: build + open (+ bind) until the first query can be served.
    pub setup_s: Vec<f64>,
    /// Per set-up: `Engine::build` alone.
    pub build_s: Vec<f64>,
}

/// Sets the engine up `reps` times, each in a fresh directory, and keeps
/// the last.
fn deploy(w: Workload, corpus: &Corpus, scratch: &Path, reps: usize) -> io::Result<Deployment> {
    let mut setup_s = Vec::with_capacity(reps);
    let mut build_s = Vec::with_capacity(reps);
    let mut last: Option<Deployment> = None;
    for rep in 0..reps {
        if let Some(previous) = last.take() {
            let dir = previous.dir.clone();
            drop(previous);
            fs::remove_dir_all(dir)?;
            // Hand the freed set-up memory back, so every set-up starts from
            // the same resident size and the peak does not depend on what
            // the allocator happened to keep from the one before.
            env::release_free_memory();
        }
        let dir = scratch.join(format!("engine-{rep}"));
        let t0 = Instant::now();
        let built = Engine::build(&corpus.base, &engine_params(w, 0), &dir)?;
        build_s.push(t0.elapsed().as_secs_f64());
        let cache_budget_pages = if w == Workload::QuerySmallCache {
            let page = hd_storage::DEFAULT_PAGE_SIZE as u64;
            (built.disk_bytes() / (page * SMALL_CACHE_FRACTION)) as usize
        } else {
            0
        };
        drop(built);
        let engine = Arc::new(Engine::open(&dir, &engine_params(w, cache_budget_pages))?);
        let server = match w {
            Workload::ServeHttp => {
                Some(Server::bind(Arc::clone(&engine), ServerConfig::default())?)
            }
            _ => None,
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(Deployment {
            engine,
            server,
            dir,
            cache_budget_pages,
            setup_s: Vec::new(),
            build_s: Vec::new(),
        });
    }
    let mut deployment = last.expect("at least one set-up");
    deployment.setup_s = setup_s;
    deployment.build_s = build_s;
    Ok(deployment)
}

/// Wrong answers seen so far; the first is printed when it happens.
#[derive(Default)]
pub struct Checks {
    wrong: u64,
}

impl Checks {
    fn record(&mut self, what: String) {
        if self.wrong == 0 {
            eprintln!("perfbench: wrong answer: {what}");
        }
        self.wrong += 1;
    }

    fn merge(&mut self, other: Checks) {
        self.wrong += other.wrong;
    }

    pub fn ok(&self) -> bool {
        self.wrong == 0
    }
}

/// What one timed loop observed.
#[derive(Default)]
pub struct LoopStats {
    pub elapsed_s: f64,
    /// CPU time the process spent in the loop, all threads, less the
    /// benchmark's own load-generating threads on `serve_http`.
    pub cpu_s: f64,
    /// CPU time of the `serve_http` client threads.
    load_cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    /// Client-side latency of each completed query, in ms.
    pub query_ms: Vec<f64>,
    pub insert_ms: Vec<f64>,
    pub delete_ms: Vec<f64>,
    /// `write_mix`: AP@10 of each scored query.
    pub ap: Vec<f64>,
    /// `write_mix`: ops begun while a background compaction ran, and the
    /// latencies of the queries among them.
    pub compacting_ops: u64,
    pub query_ms_compacting: Vec<f64>,
}

impl LoopStats {
    fn fail(&mut self, what: String) {
        if self.failed == 0 {
            eprintln!("perfbench: failed operation: {what}");
        }
        self.failed += 1;
    }

    /// Records a completed op that began at `start`; returns its latency in
    /// ms.
    fn done(&mut self, start: Instant) -> f64 {
        self.completed += 1;
        start.elapsed().as_secs_f64() * 1e3
    }

    fn query_done(&mut self, start: Instant) -> f64 {
        let ms = self.done(start);
        self.query_ms.push(ms);
        ms
    }

    fn merge(&mut self, other: LoopStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completed += other.completed;
        self.load_cpu_s += other.load_cpu_s;
        self.query_ms.extend(other.query_ms);
    }

    /// CPU time per completed op, in ms. Unlike wall-clock rates it does not
    /// grow while other tenants of the machine hold its cores: the kernel
    /// counts a thread's time only while it runs, and accounts time the
    /// hypervisor steals from the virtual CPU apart.
    pub fn cpu_ms_per_op(&self) -> f64 {
        ratio(self.cpu_s * 1e3, self.completed as f64)
    }

    /// Completed ops per wall-clock second.
    pub fn ops_s(&self) -> f64 {
        ratio(self.completed as f64, self.elapsed_s)
    }
}

/// The seeded `write_mix` op sequence, with a model of the engine's state:
/// the live ids (which a query may return and a delete may pick) and each
/// shard's stored and tombstoned slot counts (when its compaction starts).
#[derive(Clone)]
struct WritePlan {
    rng: StdRng,
    /// Live ids by shard: global id g lives in shard g mod SHARDS.
    live: [Vec<ObjectId>; SHARDS],
    alive: Vec<bool>,
    stored: [usize; SHARDS],
    tombstones: [usize; SHARDS],
    inserts: usize,
    cycle: usize,
    phase: Phase,
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// Inserts left in this cycle's burst.
    Inserts(usize),
    /// Deleting from the cycle's shard until its compaction starts.
    Deletes,
    /// Queries left in this cycle's read stretch.
    Reads(usize),
}

enum Op {
    Query(usize),
    /// The j-th insert of the run.
    Insert(usize),
    Delete(ObjectId),
}

impl WritePlan {
    fn new(seed: u64) -> Self {
        let mut live: [Vec<ObjectId>; SHARDS] = Default::default();
        for id in 0..N as ObjectId {
            live[id as usize % SHARDS].push(id);
        }
        Self {
            rng: StdRng::seed_from_u64(seed ^ 0x7772_6974_655f_6d69),
            stored: live.each_ref().map(Vec::len),
            live,
            alive: vec![true; N],
            tombstones: [0; SHARDS],
            inserts: 0,
            cycle: 0,
            phase: Phase::Inserts(BURST_INSERTS),
        }
    }

    /// Draws the next op and applies it to the model.
    fn next_op(&mut self) -> Op {
        match self.phase {
            Phase::Inserts(0) => self.phase = Phase::Deletes,
            Phase::Reads(0) => {
                self.cycle += 1;
                self.phase = Phase::Inserts(BURST_INSERTS);
            }
            _ => {}
        }
        let burst_query = !matches!(self.phase, Phase::Reads(_))
            && self.rng.gen_range(0..100u32) < BURST_QUERY_PERCENT;
        match &mut self.phase {
            _ if burst_query => Op::Query(self.rng.gen_range(0..QUERIES)),
            Phase::Reads(left) => {
                *left -= 1;
                Op::Query(self.rng.gen_range(0..QUERIES))
            }
            Phase::Inserts(left) => {
                *left -= 1;
                let j = self.inserts;
                self.inserts += 1;
                let id = (N + j) as ObjectId;
                self.live[id as usize % SHARDS].push(id);
                self.stored[id as usize % SHARDS] += 1;
                self.alive.push(true);
                Op::Insert(j)
            }
            Phase::Deletes => {
                let s = self.cycle % SHARDS;
                let pick = self.rng.gen_range(0..self.live[s].len());
                let id = self.live[s].swap_remove(pick);
                self.alive[id as usize] = false;
                self.tombstones[s] += 1;
                // The engine's trigger, in the engine's arithmetic. The
                // compaction drops the tombstoned slots.
                if self.tombstones[s] as f64 / self.stored[s] as f64 >= COMPACTION_THRESHOLD {
                    self.stored[s] -= self.tombstones[s];
                    self.tombstones[s] = 0;
                    self.phase = Phase::Reads(READ_OPS);
                }
                Op::Delete(id)
            }
        }
    }

    /// Whether the last op drawn ended a cycle.
    fn cycle_done(&self) -> bool {
        self.phase == Phase::Reads(0)
    }

    fn live_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.live.iter().flatten().copied()
    }

    fn live_len(&self) -> usize {
        self.live.iter().map(Vec::len).sum()
    }

    fn is_live(&self, id: ObjectId) -> bool {
        self.alive.get(id as usize).copied().unwrap_or(false)
    }

    /// Exact top-k of the first `SCORED_QUERIES` queries of the sequence,
    /// each over the live set at the moment it runs.
    fn scored_truth(&self, corpus: &Corpus) -> Vec<Vec<ObjectId>> {
        let mut sim = self.clone();
        let mut truth = Vec::with_capacity(SCORED_QUERIES);
        while truth.len() < SCORED_QUERIES {
            if let Op::Query(qi) = sim.next_op() {
                truth.push(corpus.exact_knn(corpus.queries.get(qi), sim.live_ids()));
            }
        }
        truth
    }
}

/// One query the way the workload's client path issues it, outside the
/// server: the engine batch call, or for `serve_http` the `AnnIndex`
/// request the server's coalescer makes.
fn search(engine: &Engine, w: Workload, query: &[f32]) -> io::Result<Vec<Neighbor>> {
    let mut answers = match w {
        Workload::ServeHttp => {
            let req = SearchRequest::new(K)
                .with_candidates(HTTP_CANDIDATES)
                .with_refine(HTTP_REFINE);
            AnnIndex::search_batch(engine, &[query], &req)?
                .into_iter()
                .map(|output| output.neighbors)
                .collect()
        }
        _ => engine.search_batch(std::iter::once(query), &w.query_params())?,
    };
    answers
        .pop()
        .ok_or_else(|| io::Error::other("engine returned no answer"))
}

/// One workload, set up, warmed and ready to time.
pub struct Bench {
    pub w: Workload,
    pub corpus: Corpus,
    pub dep: Deployment,
    /// Each query's answer in the warm-up pass; the read-only loops check
    /// that every later answer repeats it.
    reference: Vec<Vec<Neighbor>>,
    /// Read-only workloads: MAP@10 of the reference answers against exact
    /// ground truth over the corpus.
    reference_map: f64,
    plan: WritePlan,
    scored_truth: Vec<Vec<ObjectId>>,
    scored: usize,
    pub checks: Checks,
}

impl Bench {
    /// Generates the inputs and their ground truth, sets the engine up
    /// `reps` times, and warms it with one pass over the queries (off the
    /// clock; it fills the caches and fixes the reference answers).
    pub fn new(w: Workload, seed: u64, scratch: &Path, reps: usize) -> io::Result<Self> {
        let corpus = Corpus::generate(seed);
        let plan = WritePlan::new(seed);
        let (truth, scored_truth) = match w {
            Workload::WriteMix => (Vec::new(), plan.scored_truth(&corpus)),
            _ => (corpus.ground_truth(), Vec::new()),
        };
        let dep = deploy(w, &corpus, scratch, reps)?;
        let mut checks = Checks::default();
        let mut reference = Vec::with_capacity(QUERIES);
        for (qi, query) in corpus.queries.iter().enumerate() {
            let answer = search(&dep.engine, w, query)?;
            if let Err(e) = corpus.check_answer(query, &answer, K, |id| (id as usize) < N) {
                checks.record(format!("warm-up query {qi}: {e}"));
            }
            reference.push(answer);
        }
        let aps: Vec<f64> = truth
            .iter()
            .zip(&reference)
            .map(|(t, answer)| average_precision(t, &corpus::ids(answer)))
            .collect();
        Ok(Self {
            w,
            reference_map: mean(&aps),
            corpus,
            dep,
            reference,
            plan,
            scored_truth,
            scored: 0,
            checks,
        })
    }

    /// Runs the workload's closed loop for `seconds` of wall time.
    pub fn timed_loop(&mut self, seconds: f64) -> io::Result<LoopStats> {
        let cpu0 = env::process_cpu_s()?;
        let mut s = match self.w {
            Workload::QueryCached | Workload::QuerySmallCache => self.direct_loop(seconds),
            Workload::ServeHttp => self.http_loop(seconds)?,
            Workload::WriteMix => self.write_mix_loop(seconds),
        };
        s.cpu_s = env::process_cpu_s()? - cpu0 - s.load_cpu_s;
        Ok(s)
    }

    fn direct_loop(&mut self, seconds: f64) -> LoopStats {
        let mut s = LoopStats::default();
        let engine = &self.dep.engine;
        let qp = self.w.query_params();
        let t0 = Instant::now();
        let mut i = 0;
        while t0.elapsed().as_secs_f64() < seconds {
            let qi = i % QUERIES;
            i += 1;
            s.attempted += 1;
            let t = Instant::now();
            match engine.search_batch(std::iter::once(self.corpus.queries.get(qi)), &qp) {
                Ok(mut answers) => {
                    s.query_done(t);
                    let answer = answers.pop().unwrap_or_default();
                    if !same_answer(&answer, &self.reference[qi]) {
                        self.checks.record(format!("query {qi} changed its answer"));
                    }
                }
                Err(e) => s.fail(format!("query {qi}: {e}")),
            }
        }
        s.elapsed_s = t0.elapsed().as_secs_f64();
        s
    }

    fn http_loop(&mut self, seconds: f64) -> io::Result<LoopStats> {
        let addr = self
            .dep
            .server
            .as_ref()
            .expect("serve_http binds a server")
            .addr();
        let requests: Vec<Vec<u8>> = self
            .corpus
            .queries
            .iter()
            .map(|q| http::query_request(q, K, HTTP_CANDIDATES, HTTP_REFINE))
            .collect();
        // Connect and warm each connection off the clock.
        let mut conns = Vec::with_capacity(HTTP_CLIENTS);
        for request in requests.iter().take(HTTP_CLIENTS) {
            let mut conn = Conn::connect(addr)?;
            conn.roundtrip(request)?;
            conns.push(conn);
        }
        let (requests, reference) = (&requests, &self.reference);
        let t0 = Instant::now();
        let parts: Vec<(LoopStats, Checks)> = std::thread::scope(|scope| {
            let clients: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(c, conn)| {
                    scope
                        .spawn(move || http_client(c, conn, addr, requests, reference, t0, seconds))
                })
                .collect();
            clients
                .into_iter()
                .map(|client| client.join().expect("client thread panicked"))
                .collect()
        });
        let mut s = LoopStats::default();
        for (part, checks) in parts {
            s.merge(part);
            self.checks.merge(checks);
        }
        s.elapsed_s = t0.elapsed().as_secs_f64();
        Ok(s)
    }

    fn write_mix_loop(&mut self, seconds: f64) -> LoopStats {
        let mut s = LoopStats::default();
        let (engine, corpus, plan) = (&self.dep.engine, &self.corpus, &mut self.plan);
        let qp = self.w.query_params();
        let t0 = Instant::now();
        // Whole cycles only, so every run has the same op mix.
        while t0.elapsed().as_secs_f64() < seconds
            || !plan.cycle_done()
            || self.scored < self.scored_truth.len()
        {
            let compacting = engine.compacting();
            s.compacting_ops += u64::from(compacting);
            s.attempted += 1;
            let op = plan.next_op();
            let t = Instant::now();
            match op {
                Op::Query(qi) => {
                    let query = corpus.queries.get(qi);
                    match engine.search_batch(std::iter::once(query), &qp) {
                        Ok(mut answers) => {
                            let ms = s.query_done(t);
                            if compacting {
                                s.query_ms_compacting.push(ms);
                            }
                            let answer = answers.pop().unwrap_or_default();
                            let want = K.min(plan.live_len());
                            if let Err(e) =
                                corpus.check_answer(query, &answer, want, |id| plan.is_live(id))
                            {
                                self.checks.record(format!("query {qi}: {e}"));
                            }
                            if let Some(truth) = self.scored_truth.get(self.scored) {
                                s.ap.push(average_precision(truth, &corpus::ids(&answer)));
                            }
                        }
                        Err(e) => s.fail(format!("query {qi}: {e}")),
                    }
                    self.scored += 1;
                }
                Op::Insert(j) => match engine.insert(corpus.insert_vector(j)) {
                    Ok(id) => {
                        let ms = s.done(t);
                        s.insert_ms.push(ms);
                        if id != (N + j) as ObjectId {
                            self.checks
                                .record(format!("insert {j} got id {id}, expected {}", N + j));
                        }
                    }
                    Err(e) => s.fail(format!("insert {j}: {e}")),
                },
                Op::Delete(id) => match engine.delete(id) {
                    Ok(()) => {
                        let ms = s.done(t);
                        s.delete_ms.push(ms);
                    }
                    Err(e) => s.fail(format!("delete {id}: {e}")),
                },
            }
        }
        s.elapsed_s = t0.elapsed().as_secs_f64();
        s
    }

    /// MAP@10 against exact ground truth: of the reference answers (which
    /// every timed answer repeated) on the read-only workloads, of the
    /// scored queries on `write_mix`.
    pub fn map_at_10(&self, run: &LoopStats) -> f64 {
        match self.w {
            Workload::WriteMix => mean(&run.ap),
            _ => self.reference_map,
        }
    }

    /// Engine disk bytes per byte of live raw vectors.
    pub fn disk_bytes_per_vector_byte(&self) -> f64 {
        let engine = self.dep.engine.as_ref();
        let live = AnnIndex::stats(engine).live_len;
        let raw = live as f64 * (self.corpus.dim() * std::mem::size_of::<f32>()) as f64;
        ratio(engine.disk_bytes() as f64, raw)
    }

    /// Snapshots the engine (a server does so as it shuts down), stops the
    /// server and closes the engine, so its directory can be reopened.
    pub fn finish(self) -> io::Result<Corpus> {
        let Deployment { engine, server, .. } = self.dep;
        match server {
            Some(server) => server.shutdown()?,
            None => engine.save()?,
        }
        drop(engine);
        Ok(self.corpus)
    }
}

/// One `serve_http` connection's closed loop: send, wait for the reply,
/// check it against the engine's own answer, repeat.
fn http_client(
    c: usize,
    conn: Conn,
    addr: SocketAddr,
    requests: &[Vec<u8>],
    reference: &[Vec<Neighbor>],
    t0: Instant,
    seconds: f64,
) -> (LoopStats, Checks) {
    let mut s = LoopStats::default();
    let mut checks = Checks::default();
    let cpu0 = env::thread_cpu_s();
    let mut conn = Some(conn);
    let mut i = c;
    while t0.elapsed().as_secs_f64() < seconds {
        let qi = i % requests.len();
        i += HTTP_CLIENTS;
        s.attempted += 1;
        if conn.is_none() {
            match Conn::connect(addr) {
                Ok(fresh) => conn = Some(fresh),
                Err(e) => {
                    s.fail(format!("connect: {e}"));
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        let t = Instant::now();
        match conn
            .as_mut()
            .expect("connected above")
            .roundtrip(&requests[qi])
        {
            Ok((200, body)) => {
                s.query_done(t);
                match http::parse_neighbors(&body) {
                    Ok(answer) if same_answer(&answer, &reference[qi]) => {}
                    Ok(_) => checks.record(format!(
                        "served query {qi} differs from the engine's answer"
                    )),
                    Err(e) => checks.record(format!("served query {qi}: {e}")),
                }
            }
            Ok((status, body)) => s.fail(format!(
                "served query {qi}: HTTP {status} {}",
                String::from_utf8_lossy(&body)
            )),
            Err(e) => {
                s.fail(format!("served query {qi}: {e}"));
                conn = None;
            }
        }
    }
    s.load_cpu_s = env::thread_cpu_s() - cpu0;
    (s, checks)
}

/// An untraced run: the end-to-end metrics.
pub fn run_untraced(w: Workload, seed: u64, seconds: f64, scratch: &Path) -> io::Result<Report> {
    let mut bench = Bench::new(w, seed, scratch, SETUP_REPS)?;
    let run = bench.timed_loop(seconds)?;
    let disk = bench.disk_bytes_per_vector_byte();
    let map = bench.map_at_10(&run);
    let setup_s = median(&bench.dep.setup_s);
    let correct = bench.checks.ok() && !run.query_ms.is_empty() && map > 0.0;
    bench.finish()?;

    let (attempted, failed) = (run.attempted, run.failed);
    let mut report = Report::new(correct, attempted, failed);
    report.metric("setup_s", setup_s, "s");
    report.metric("cpu_ms_per_op", run.cpu_ms_per_op(), "ms");
    report.metric("map_at_10", map, "ratio");
    report.metric(
        "ok_ops_ratio",
        ratio((attempted - failed) as f64, attempted as f64),
        "ratio",
    );
    report.metric("peak_rss_mb", env::peak_rss_mb()?, "MiB");
    report.metric("disk_bytes_per_vector_byte", disk, "ratio");
    // Wall-clock figures for the reader; they follow the machine's other
    // tenants too closely to bound (README.md), so the result line leaves
    // them to the traced run.
    println!(
        "  client (wall clock): {:.2} ops/s, query p50 {:.3} ms, p90 {:.3} ms",
        run.ops_s(),
        percentile(&run.query_ms, 0.5),
        percentile(&run.query_ms, 0.9)
    );
    Ok(report)
}
