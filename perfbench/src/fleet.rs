//! `fleet_hot_tcp`: closed loop, two caller threads over one
//! `ShardRouter` holding two `TcpShard` links to two `sorl-shardd`
//! processes on loopback. Each daemon boots warm from a snapshot of its
//! own slice of the key pool, and keys are Zipf-skewed over that pool, so
//! nearly every request is a cache hit: the time is routing, the wire
//! codecs, TCP, admission, the gather window and the cache lookup.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sorl::tuner::TopK;
use sorl_obs::TraceId;
use sorl_serve::{CacheSnapshot, ServeError, ServeStats, SnapshotEntry};
use sorl_shard::{
    synthetic_ranker, CacheSlice, ShardRouter, ShardTransport, TcpShard, Topology, TraceDumpReply,
};
use stencil_model::StencilInstance;

use crate::common::{
    median, peak_rss_mb, ratio, reference_answers, same_answer, top1_slowdown, windowed_rate,
    InstanceStream, Rng, ServeDelta, StreamHash, Summary,
};
use crate::{Args, Report};

/// Distinct instances the callers draw keys from.
const POOL: usize = 512;
/// Zipf exponent of the key popularity.
const ZIPF_S: f64 = 1.1;
const SHARD_IDS: [&str; 2] = ["shard-0", "shard-1"];
/// Seed of the synthetic ranker every daemon serves.
const RANKER_SEED: u64 = 42;
/// Depth cached per key (the daemons' default `cache_k_floor`).
const CACHED_K: usize = 8;
/// Depths the callers ask for.
const KS: [usize; 3] = [1, 4, CACHED_K];
const SETUP_REPEATS: usize = 3;
/// Per-request latency limit for `goodput_rps`.
const LIMIT: Duration = Duration::from_millis(5);
/// Per-caller request rate the logs are sized for (untouched capacity
/// costs no resident memory).
const MAX_CALLER_RPS: usize = 50_000;

/// A running `sorl-shardd`; killed and reaped on drop.
struct Daemon {
    child: Child,
    addr: String,
    boot_s: f64,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One link shared between the router and the traced loop, which times
/// `TcpShard::tune` on its own.
struct SharedLink(Arc<TcpShard>);

impl ShardTransport for SharedLink {
    fn tune(&self, instance: StencilInstance, k: usize) -> Result<TopK, ServeError> {
        self.0.tune(instance, k)
    }
    fn ranker_fingerprint(&self) -> Result<u64, ServeError> {
        self.0.ranker_fingerprint()
    }
    fn stats(&self) -> Result<ServeStats, ServeError> {
        self.0.stats()
    }
    fn export_cache(&self, slice: &CacheSlice) -> Result<CacheSnapshot, ServeError> {
        self.0.export_cache(slice)
    }
    fn extract_cache(&self, slice: &CacheSlice) -> Result<CacheSnapshot, ServeError> {
        self.0.extract_cache(slice)
    }
    fn import_cache(&self, snapshot: CacheSnapshot) -> Result<usize, ServeError> {
        self.0.import_cache(snapshot)
    }
    fn trace_dump(&self, trace: Option<TraceId>) -> Result<TraceDumpReply, ServeError> {
        self.0.trace_dump(trace)
    }
}

struct Fleet {
    router: ShardRouter,
    links: Vec<Arc<TcpShard>>,
    // Declared after the router so links close before the daemons die.
    daemons: Vec<Daemon>,
    files: Vec<PathBuf>,
}

/// Parent of the per-run scratch directories, inside the checkout.
const WORK_ROOT: &str = ".bench_work";

/// A scratch directory under [`WORK_ROOT`], removed on drop (with the
/// root, once no other run uses it).
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// Starts a daemon warm-booting from `snapshot`; pair with
/// [`await_listening`].
fn spawn_daemon(shardd: &Path, snapshot: &Path) -> Result<Daemon, String> {
    let child = Command::new(shardd)
        .args(["--addr", "127.0.0.1:0", "--threads", "1", "--synthetic-ranker"])
        .arg(RANKER_SEED.to_string())
        .arg("--snapshot")
        .arg(snapshot)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", shardd.display()))?;
    Ok(Daemon { child, addr: String::new(), boot_s: 0.0 })
}

/// Reads the daemon's `LISTENING <addr>` line; `boot_s` is the time from
/// `spawned` to that line.
fn await_listening(daemon: &mut Daemon, spawned: Instant) -> Result<(), String> {
    let stdout = daemon.child.stdout.as_mut().expect("stdout is piped");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).map_err(|e| format!("daemon stdout: {e}"))?;
    daemon.boot_s = spawned.elapsed().as_secs_f64();
    daemon.addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .ok_or_else(|| format!("daemon printed {line:?} instead of LISTENING"))?
        .to_string();
    Ok(())
}

/// Zipf popularity over pool indices.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Scores the pool in process (the reference answers), writes each
/// shard's slice as a snapshot file, boots both daemons warm from them,
/// connects, and checks every shard came up holding its whole slice.
fn build_fleet(
    shardd: &Path,
    pool: &[StencilInstance],
    dir: &Path,
) -> Result<(Fleet, Vec<TopK>), String> {
    let ranker = synthetic_ranker(RANKER_SEED);
    let fingerprint = ranker.fingerprint();
    let refs = reference_answers(&ranker, &pool.iter().collect::<Vec<_>>(), CACHED_K);

    let topology = Topology::new(SHARD_IDS);
    let mut snapshots: Vec<CacheSnapshot> =
        SHARD_IDS.iter().map(|_| CacheSnapshot::empty(fingerprint)).collect();
    for (i, (q, top)) in pool.iter().zip(&refs).enumerate() {
        let key = q.key();
        let owner = topology.owner_of(&key).expect("the topology has shards");
        let shard = SHARD_IDS.iter().position(|id| *id == owner).expect("owner is a shard");
        snapshots[shard].entries.push(SnapshotEntry {
            key,
            entries: top.entries.clone(),
            candidates: top.candidates,
            last_used: i as u64,
        });
    }
    let mut files = Vec::new();
    for (id, snapshot) in SHARD_IDS.iter().zip(&snapshots) {
        let path = dir.join(format!("{id}.json"));
        snapshot.save_json(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        files.push(path);
    }

    let spawned = Instant::now();
    let mut daemons =
        files.iter().map(|f| spawn_daemon(shardd, f)).collect::<Result<Vec<_>, _>>()?;
    for daemon in &mut daemons {
        await_listening(daemon, spawned)?;
    }
    let links = daemons
        .iter()
        .map(|d| TcpShard::connect(d.addr.as_str()).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("cannot connect to a daemon: {e}"))?;
    let router = ShardRouter::with_shards(SHARD_IDS.iter().zip(&links).map(|(id, link)| {
        (id.to_string(), Box::new(SharedLink(Arc::clone(link))) as Box<dyn ShardTransport>)
    }))
    .map_err(|e| format!("cannot assemble the fleet: {e}"))?;
    for ((id, stats), snapshot) in router.stats().into_iter().zip(&snapshots) {
        let stats = stats.map_err(|e| format!("{id}: {e}"))?;
        if stats.cache_entries != snapshot.len() as u64 {
            return Err(format!(
                "{id} booted with {} cached decisions, its snapshot holds {}",
                stats.cache_entries,
                snapshot.len()
            ));
        }
    }
    Ok((Fleet { router, links, daemons, files }, refs))
}

fn fleet_stats(router: &ShardRouter) -> Result<ServeStats, String> {
    let per_shard = router
        .stats()
        .into_iter()
        .map(|(id, s)| s.map_err(|e| format!("{id}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ServeStats::merge(&per_shard))
}

/// What one caller thread saw.
#[derive(Default)]
struct CallerLog {
    latencies: Vec<f64>,
    rtts: Vec<f64>,
    /// Completion offsets of correct answers, and of those within LIMIT.
    done: Vec<f64>,
    done_within_limit: Vec<f64>,
    ok: u64,
    wrong: u64,
    errors: u64,
}

struct Shared<'a> {
    fleet: &'a Fleet,
    pool: &'a [StencilInstance],
    refs: &'a [TopK],
    zipf: &'a Zipf,
    start: Instant,
    deadline: Instant,
    seed: u64,
    traced: bool,
}

fn caller(id: u64, sh: &Shared<'_>) -> CallerLog {
    let mut rng = Rng::new(sh.seed, 10 + id);
    // Reserve up front: growing the logs mid-run would copy them and make
    // the process's peak RSS depend on where the doublings fell.
    let cap = (sh.deadline - sh.start).as_secs() as usize * MAX_CALLER_RPS;
    let mut log = CallerLog {
        latencies: Vec::with_capacity(cap),
        rtts: Vec::with_capacity(if sh.traced { cap } else { 0 }),
        done: Vec::with_capacity(cap),
        done_within_limit: Vec::with_capacity(cap),
        ..CallerLog::default()
    };
    while Instant::now() < sh.deadline {
        let i = sh.zipf.sample(&mut rng);
        let k = KS[rng.below(KS.len())];
        let instance = sh.pool[i].clone();
        let t0 = Instant::now();
        let outcome = if sh.traced {
            let key = instance.key();
            let owner = sh.fleet.router.owner_of(&key).expect("the fleet has shards");
            let shard = SHARD_IDS.iter().position(|id| *id == owner).expect("owner is a shard");
            let t1 = Instant::now();
            let outcome = sh.fleet.links[shard].tune(instance, k).map_err(|e| e.to_string());
            log.rtts.push(t1.elapsed().as_secs_f64());
            outcome
        } else {
            sh.fleet.router.tune(instance, k).map_err(|e| e.to_string())
        };
        let latency = t0.elapsed();
        log.latencies.push(latency.as_secs_f64());
        let expected = &sh.refs[i];
        match outcome {
            Ok(top)
                if top.candidates == expected.candidates
                    && same_answer(&top.entries, &expected.entries[..k]) =>
            {
                log.ok += 1;
                let at = (t0 + latency - sh.start).as_secs_f64();
                log.done.push(at);
                if latency <= LIMIT {
                    log.done_within_limit.push(at);
                }
            }
            Ok(_) => log.wrong += 1,
            Err(_) => log.errors += 1,
        }
    }
    log
}

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let shardd = args.shardd.as_deref().ok_or("fleet_hot_tcp needs --shardd PATH")?;
    let dir = WorkDir(PathBuf::from(WORK_ROOT).join(format!("fleet-{}", std::process::id())));
    std::fs::create_dir_all(&dir.0)
        .map_err(|e| format!("cannot create {}: {e}", dir.0.display()))?;

    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous fleet down before timing the next boot.
        drop(built.take());
        let t = Instant::now();
        let pool = InstanceStream::new(args.seed, 1).take(POOL);
        let (fleet, refs) = build_fleet(shardd, &pool, &dir.0)?;
        setups.push(t.elapsed().as_secs_f64());
        built = Some((pool, fleet, refs));
    }
    let (pool, fleet, refs) = built.expect("at least one setup");

    let zipf = Zipf::new(POOL, ZIPF_S);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let callers = nproc.clamp(1, 2) as u64;
    let mut hash = StreamHash::new();
    pool.iter().for_each(|q| hash.add_instance(q));
    for c in 0..callers {
        let mut rng = Rng::new(args.seed, 10 + c);
        for _ in 0..256 {
            hash.add(zipf.sample(&mut rng) as u64);
            hash.add(KS[rng.below(KS.len())] as u64);
        }
    }
    rep.stream_hash = hash.hex();

    // The benchmark process's peak is read before the timed phase: the
    // callers' per-request logs grow with throughput, and a faster fleet
    // must not read as a bigger one.
    let own_rss = peak_rss_mb("self").unwrap_or(0.0);
    let before = fleet_stats(&fleet.router)?;
    let start = Instant::now();
    let shared = Shared {
        fleet: &fleet,
        pool: &pool,
        refs: &refs,
        zipf: &zipf,
        start,
        deadline: start + Duration::from_secs_f64(args.seconds),
        seed: args.seed,
        traced: args.trace,
    };
    let logs: Vec<CallerLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let shared = &shared;
                s.spawn(move || caller(c, shared))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let after = fleet_stats(&fleet.router)?;

    // Peak memory of the run itself, before merging the logs copies them.
    let own_rss_end = peak_rss_mb("self").unwrap_or(0.0);
    let daemon_rss: f64 =
        fleet.daemons.iter().map(|d| peak_rss_mb(&d.child.id().to_string()).unwrap_or(0.0)).sum();
    let mut all = CallerLog::default();
    for log in logs {
        all.latencies.extend(log.latencies);
        all.rtts.extend(log.rtts);
        all.done.extend(log.done);
        all.done_within_limit.extend(log.done_within_limit);
        all.ok += log.ok;
        all.wrong += log.wrong;
        all.errors += log.errors;
    }
    let ops = all.latencies.len() as u64;
    rep.attempted = ops;
    rep.wrong = all.wrong;
    rep.failed = all.wrong + all.errors;
    println!(
        "timed phase: {callers} callers sent {ops}, succeeded {}, failed {} ({} wrong answers, {} \
         errors)",
        all.ok, rep.failed, all.wrong, all.errors
    );

    let picks: Vec<_> = pool.iter().zip(&refs).map(|(q, t)| (q.clone(), t.entries[0].0)).collect();
    let summary = Summary::of(all.latencies);
    println!("latency: {}", summary.describe(1e3, "ms"));
    rep.metric("throughput_rps", windowed_rate(&all.done, wall));
    rep.metric("latency_p50_ms", summary.p50 * 1e3);
    rep.metric("latency_p99_ms", summary.tail * 1e3);
    rep.metric("goodput_rps", windowed_rate(&all.done_within_limit, wall));
    rep.metric("ok_share", all.ok as f64 / ops.max(1) as f64);
    rep.metric("top1_slowdown", top1_slowdown(&picks));
    rep.metric("setup_s", median(setups));
    println!(
        "peak rss: generator {own_rss:.1} MiB at the end of set-up ({own_rss_end:.1} MiB after \
         the timed phase, with its logs), daemons {daemon_rss:.1} MiB"
    );
    rep.metric("peak_rss_mb", own_rss + daemon_rss);

    if args.trace {
        let delta = ServeDelta::between(&before, &after);
        let rtt = Summary::of(all.rtts);
        println!("rtt: {}", rtt.describe(1e6, "us"));
        rep.metric("serve.cache_hit_ratio", delta.hit_ratio());
        rep.metric("serve.batch_size_mean", ratio(delta.requests, delta.batches));
        rep.metric("serve.batch_p50_ms", delta.batch_p50_s * 1e3);
        rep.metric("serve.batch_p99_ms", delta.batch_p99_s * 1e3);
        rep.metric("serve.wait_p50_ms", (summary.p50 - delta.batch_p50_s) * 1e3);
        rep.metric("serve.scored_per_miss", ratio(delta.scored, delta.misses));
        rep.metric("serve.evictions_per_request", ratio(delta.evictions, delta.requests));
        rep.metric("serve.shed_share", ratio(delta.sheds, delta.requests + delta.sheds));
        rep.metric("shard.rtt_p50_us", rtt.p50 * 1e6);
        rep.metric("shard.rtt_p99_us", rtt.tail * 1e6);
        rep.metric("shard.link_overhead_us", (rtt.p50 - delta.batch_p50_s) * 1e6);
        rep.metric("shard.boot_s", fleet.daemons.iter().map(|d| d.boot_s).fold(0.0, f64::max));

        let keys: Vec<_> = pool.iter().map(StencilInstance::key).collect();
        const ROUTE_ROUNDS: usize = 200;
        let t = Instant::now();
        for _ in 0..ROUTE_ROUNDS {
            for key in &keys {
                std::hint::black_box(fleet.router.owner_of(std::hint::black_box(key)));
            }
        }
        rep.metric(
            "shard.route_us",
            t.elapsed().as_secs_f64() / (ROUTE_ROUNDS * keys.len()) as f64 * 1e6,
        );

        let mut decode_s = 0.0;
        let mut bytes = 0u64;
        for file in &fleet.files {
            let t = Instant::now();
            let snapshot =
                CacheSnapshot::load_json(file).map_err(|e| format!("{}: {e}", file.display()))?;
            decode_s += t.elapsed().as_secs_f64();
            std::hint::black_box(snapshot);
            bytes += std::fs::metadata(file).map_err(|e| e.to_string())?.len();
        }
        rep.metric("serve.snapshot.decode_s", decode_s);
        rep.metric("serve.snapshot.bytes", bytes as f64);
    }
    Ok(())
}
