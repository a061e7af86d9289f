//! `tune_cold`: closed loop, one caller, sequential in-process
//! `TuningSession::top_k_predefined` over distinct, never-repeating
//! instances. No serve queue, no cache, no wire: the time is row
//! encoding, the scoring kernel and the top-k select.

use std::time::{Duration, Instant};

use sorl::session::TuningSession;
use sorl::table3_benchmarks;

use crate::common::{
    median, oracle_top_k, peak_rss_mb, same_answer, top1_slowdown, train_paper_ranker,
    windowed_rate, Entries, InstanceStream, Replay, Stages, StreamHash, Summary,
};
use crate::{Args, Report};

/// Configurations returned per query.
const K: usize = 8;
/// Setups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// The first instances of the stream, checked against the oracle and
/// used for `top1_slowdown` (independent of how many the loop reached).
const SAMPLE: usize = 48;
/// Per-query latency limit for `goodput_rps`.
const LIMIT: Duration = Duration::from_millis(20);

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let trained = train_paper_ranker(args.trace)?;
        let mut session = TuningSession::new(trained.ranker.clone());
        // Materialize both predefined sets before timing.
        for b in table3_benchmarks().iter().take(3) {
            std::hint::black_box(session.top_k_predefined(&b.instance, K));
        }
        setups.push(t.elapsed().as_secs_f64());
        ready = Some((trained, session));
    }
    let (trained, mut session) = ready.expect("at least one setup");
    let ranker = &trained.ranker;

    let mut hash = StreamHash::new();
    InstanceStream::new(args.seed, 0).take(256).iter().for_each(|q| hash.add_instance(q));
    rep.stream_hash = hash.hex();

    // Read before the timed phase: the stream's dedup set and the
    // per-query logs grow with throughput, and a faster session must not
    // read as a bigger one.
    let setup_rss = peak_rss_mb("self").unwrap_or(0.0);
    let mut stream = InstanceStream::new(args.seed, 0);
    let mut replay = Replay::new(ranker);
    let mut latencies = Vec::new();
    let mut replays = Vec::new();
    let mut stages = Stages::default();
    let mut sample: Vec<(stencil_model::StencilInstance, Entries)> = Vec::new();
    let mut done = Vec::new();
    let mut done_within_limit = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline {
        let instance = stream.next_instance();
        let t = Instant::now();
        let top = std::hint::black_box(session.top_k_predefined(&instance, K));
        let latency = t.elapsed();
        latencies.push(latency.as_secs_f64());
        let at = start.elapsed().as_secs_f64();
        done.push(at);
        if latency <= LIMIT {
            done_within_limit.push(at);
        }
        if args.trace {
            let (entries, st) = replay.run(ranker, &instance, K);
            if !same_answer(&entries, &top.entries) {
                rep.wrong += 1;
            }
            replays.push(st.total_s());
            stages += st;
        }
        if sample.len() < SAMPLE {
            sample.push((instance, top.entries));
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let ops = latencies.len() as u64;
    while sample.len() < SAMPLE {
        let instance = stream.next_instance();
        let entries = session.top_k_predefined(&instance, K).entries;
        sample.push((instance, entries));
    }

    // Answer check: the sample against the per-candidate oracle.
    let mismatches = sample
        .iter()
        .filter(|(q, entries)| !same_answer(entries, &oracle_top_k(ranker, q, K)))
        .count() as u64;
    rep.wrong += mismatches;
    rep.attempted = ops;
    rep.failed = rep.wrong;
    println!(
        "timed phase: sent {ops}, succeeded {}, failed {} (oracle sample {SAMPLE}, {mismatches} \
         mismatched)",
        ops - rep.failed.min(ops),
        rep.failed
    );
    let picks: Vec<_> = sample.iter().map(|(q, e)| (q.clone(), e[0].0)).collect();

    let summary = Summary::of(latencies);
    println!("latency: {}", summary.describe(1e3, "ms"));
    rep.metric("throughput_rps", windowed_rate(&done, wall));
    rep.metric("latency_p50_ms", summary.p50 * 1e3);
    rep.metric("latency_p99_ms", summary.tail * 1e3);
    let goodput = if rep.wrong == 0 { windowed_rate(&done_within_limit, wall) } else { 0.0 };
    rep.metric("goodput_rps", goodput);
    rep.metric("ok_share", 1.0 - rep.failed as f64 / ops.max(1) as f64);
    rep.metric("top1_slowdown", top1_slowdown(&picks));
    rep.metric("setup_s", median(setups));
    println!(
        "peak rss: {setup_rss:.1} MiB at the end of set-up ({:.1} MiB after the timed phase, \
         with its logs)",
        peak_rss_mb("self").unwrap_or(0.0)
    );
    rep.metric("peak_rss_mb", setup_rss);

    if args.trace {
        let session_total = summary.mean * summary.n as f64;
        stages.report(rep, summary.n);
        rep.metric("core.unattributed_share", 1.0 - stages.total_s() / session_total);
        rep.metric("core.trace_overhead_ms", (Summary::of(replays).p50 - summary.p50) * 1e3);
        trained.report(rep);
    }
    Ok(())
}
