//! `serve_open_mix`: open loop. One generator thread submits to an
//! in-process `TuneService` (one scoring thread, bounded queue) on a
//! seeded Poisson schedule: a `nominal` phase below capacity, then an
//! `overload` phase above it. Keys are mostly distinct (far more than the
//! cache holds) with a few in-burst duplicates, so the service works
//! through misses, inserts, evictions, dedup, queueing and shedding.
//! Latency runs from each request's scheduled send time. With two CPUs
//! or more the generator and the scoring thread are pinned to separate
//! CPUs (see `Placement`).
//!
//! Run by hand only (`--workload serve_open_mix`): `BENCHMARK.json` leaves
//! it out because its nominal-phase p99 follows the host's stalls, not
//! the program (see README.md).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sorl::table3_benchmarks;
use sorl::tuner::TopK;
use sorl_serve::{ServeConfig, ServeError, TuneService};
use stencil_model::StencilInstance;

use crate::common::{
    median, peak_rss_mb, ratio, reference_answers, same_answer, top1_slowdown, train_paper_ranker,
    windowed_rate, InstanceStream, Placement, Replay, Rng, ServeDelta, Stages, StreamHash, Summary,
};
use crate::{Args, Report};

/// Offered load of the nominal phase, requests per second.
const NOMINAL_RPS: f64 = 150.0;
/// Offered load of the overload phase, requests per second.
const OVERLOAD_RPS: f64 = 1200.0;
/// Share of the run spent in the nominal phase.
const NOMINAL_SHARE: f64 = 0.85;
/// Share of requests repeating one of the last `DUP_WINDOW` requests.
const DUP_SHARE: f64 = 0.1;
const DUP_WINDOW: usize = 8;
/// Depths the generator asks for.
const KS: [usize; 3] = [1, 4, 8];
/// Depth of the reference answers (the largest in `KS`).
const REF_K: usize = 8;
const SETUP_REPEATS: usize = 5;
/// Stream prefix used for `top1_slowdown` and the traced stage replay.
const SAMPLE: usize = 48;
/// Latency limit (from the scheduled send) for `goodput_rps`.
const LIMIT: Duration = Duration::from_millis(250);
/// How long the run waits for admitted requests to finish after the
/// schedule ends.
const DRAIN: Duration = Duration::from_secs(60);

fn config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        max_batch: 16,
        cache_capacity: 256,
        max_queue: 32,
        ..ServeConfig::default()
    }
}

struct Request {
    /// Scheduled send, seconds after the run starts.
    at: f64,
    overload: bool,
    /// Index into the distinct instances.
    instance: usize,
    k: usize,
}

/// The seeded schedule: distinct instances plus the timed request list.
fn schedule(seed: u64, seconds: f64) -> (Vec<StencilInstance>, Vec<Request>) {
    let mut rng = Rng::new(seed, 20);
    let mut stream = InstanceStream::new(seed, 2);
    let nominal_end = seconds * NOMINAL_SHARE;
    let mut distinct = Vec::new();
    let mut requests: Vec<Request> = Vec::new();
    let mut t = 0.0;
    loop {
        let rate = if t < nominal_end { NOMINAL_RPS } else { OVERLOAD_RPS };
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            break;
        }
        let instance = if !requests.is_empty() && rng.unit() < DUP_SHARE {
            let back = rng.below(DUP_WINDOW.min(requests.len()));
            requests[requests.len() - 1 - back].instance
        } else {
            distinct.push(stream.next_instance());
            distinct.len() - 1
        };
        let k = KS[rng.below(KS.len())];
        requests.push(Request { at: t, overload: t >= nominal_end, instance, k });
    }
    (distinct, requests)
}

/// Sleeps until `due`. No spinning: a spinning generator would steal
/// cycles from the service it loads.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// How one scheduled request ended.
enum Outcome {
    Shed,
    Error,
    Answered { submitted: Instant, done: Instant, top: TopK },
}

pub fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let (distinct, requests) = schedule(args.seed, args.seconds);
    let mut hash = StreamHash::new();
    for r in requests.iter().take(1024) {
        hash.add(r.at.to_bits());
        hash.add_instance(&distinct[r.instance]);
        hash.add(r.k as u64);
    }
    rep.stream_hash = hash.hex();

    let placement = Placement::new();
    println!("placement: {}", placement.describe());
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        drop(ready.take());
        let t = Instant::now();
        let trained = train_paper_ranker(args.trace)?;
        let service =
            placement.spawn_service(|| TuneService::spawn(trained.ranker.clone(), config()));
        let client = service.client();
        for b in table3_benchmarks().iter().take(3) {
            client.tune(b.instance.clone(), 1).map_err(|e| format!("warm-up: {e}"))?;
        }
        setups.push(t.elapsed().as_secs_f64());
        ready = Some((trained, service, client));
    }
    let (trained, service, client) = ready.expect("at least one setup");

    let n = requests.len();
    let before = service.stats();
    let completed = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::channel::<(usize, Instant, Result<TopK, ServeError>)>();
    let mut outcomes: Vec<Option<Outcome>> = (0..n).map(|_| None).collect();
    let mut submitted_at = vec![None; n];
    let mut lags = Vec::with_capacity(n);
    let mut admitted = 0u64;
    let mut backlog_nominal = None;
    let nominal_s = args.seconds * NOMINAL_SHARE;
    placement.enter_generator();
    let start = Instant::now() + Duration::from_millis(10);
    let backlog = |admitted: u64| admitted - completed.load(Ordering::SeqCst);
    for (i, r) in requests.iter().enumerate() {
        if r.overload && backlog_nominal.is_none() {
            wait_until(start + Duration::from_secs_f64(nominal_s));
            backlog_nominal = Some(backlog(admitted));
        }
        let due = start + Duration::from_secs_f64(r.at);
        wait_until(due);
        let now = Instant::now();
        lags.push((now - due).as_secs_f64());
        match client.submit(distinct[r.instance].clone(), r.k) {
            Ok(ticket) => {
                admitted += 1;
                submitted_at[i] = Some(now);
                let (tx, done) = (tx.clone(), Arc::clone(&completed));
                ticket.on_ready(move |result| {
                    let at = Instant::now();
                    done.fetch_add(1, Ordering::SeqCst);
                    let _ = tx.send((i, at, result));
                });
            }
            Err(ServeError::Overloaded(_)) => outcomes[i] = Some(Outcome::Shed),
            Err(_) => outcomes[i] = Some(Outcome::Error),
        }
    }
    wait_until(start + Duration::from_secs_f64(nominal_s));
    let backlog_nominal = backlog_nominal.unwrap_or_else(|| backlog(admitted));
    wait_until(start + Duration::from_secs_f64(args.seconds));
    let backlog_overload = backlog(admitted);
    placement.leave_generator();
    drop(tx);
    for _ in 0..admitted {
        let (i, done, result) = rx.recv_timeout(DRAIN).map_err(|e| format!("drain: {e}"))?;
        let submitted = submitted_at[i].expect("only admitted requests complete");
        outcomes[i] = Some(match result {
            Ok(top) => Outcome::Answered { submitted, done, top },
            Err(_) => Outcome::Error,
        });
    }
    let after = service.stats();
    drop((client, service));

    // References: the in-process session answer for every answered key.
    let mut needed: Vec<usize> = requests
        .iter()
        .zip(&outcomes)
        .filter(|(_, o)| matches!(o, Some(Outcome::Answered { .. })))
        .map(|(r, _)| r.instance)
        .chain(0..SAMPLE.min(distinct.len()))
        .collect();
    needed.sort_unstable();
    needed.dedup();
    let queries: Vec<&StencilInstance> = needed.iter().map(|&i| &distinct[i]).collect();
    let mut refs: Vec<Option<TopK>> = (0..distinct.len()).map(|_| None).collect();
    for (&i, top) in needed.iter().zip(reference_answers(&trained.ranker, &queries, REF_K)) {
        refs[i] = Some(top);
    }

    // Per phase: [sent, succeeded, shed, failed].
    let mut phase = [[0u64; 4]; 2];
    let (mut wrong, mut errors) = (0u64, 0u64);
    // Scheduled send offsets (into the overload phase) of good answers.
    let mut good = Vec::new();
    let mut nominal_latency = Vec::new();
    let mut service_latency = Vec::new();
    for (r, outcome) in requests.iter().zip(&outcomes) {
        let p = &mut phase[usize::from(r.overload)];
        p[0] += 1;
        match outcome.as_ref().expect("every request ended") {
            Outcome::Shed => p[2] += 1,
            Outcome::Error => {
                p[3] += 1;
                errors += 1;
            }
            Outcome::Answered { submitted, done, top } => {
                let expected = refs[r.instance].as_ref().expect("answered keys have references");
                if top.candidates != expected.candidates
                    || !same_answer(&top.entries, &expected.entries[..r.k])
                {
                    p[3] += 1;
                    wrong += 1;
                    continue;
                }
                p[1] += 1;
                let due = start + Duration::from_secs_f64(r.at);
                let latency = *done - due;
                service_latency.push((*done - *submitted).as_secs_f64());
                if r.overload {
                    if latency <= LIMIT {
                        good.push(r.at - nominal_s);
                    }
                } else {
                    nominal_latency.push(latency.as_secs_f64());
                }
            }
        }
    }
    for (name, [sent, ok, shed, failed]) in ["nominal", "overload"].iter().zip(phase) {
        println!("{name} phase: sent {sent}, succeeded {ok}, shed {shed}, failed {failed}");
    }
    println!("backlog at phase end: nominal {backlog_nominal}, overload {backlog_overload}");
    let correct = phase[0][1] + phase[1][1];
    rep.attempted = n as u64;
    rep.wrong = wrong;
    rep.failed = wrong + errors;

    let picks: Vec<_> = (0..SAMPLE.min(distinct.len()))
        .map(|i| (distinct[i].clone(), refs[i].as_ref().expect("sample is scored").entries[0].0))
        .collect();
    let summary = Summary::of(nominal_latency);
    println!("nominal latency: {}", summary.describe(1e3, "ms"));
    println!("generator lag: {}", Summary::of(lags).describe(1e3, "ms"));
    rep.metric("throughput_rps", correct as f64 / args.seconds);
    rep.metric("latency_p50_ms", summary.p50 * 1e3);
    rep.metric("latency_p99_ms", summary.tail * 1e3);
    rep.metric("goodput_rps", windowed_rate(&good, args.seconds - nominal_s));
    rep.metric("ok_share", correct as f64 / n.max(1) as f64);
    rep.metric("top1_slowdown", top1_slowdown(&picks));
    rep.metric("setup_s", median(setups));
    rep.metric("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));

    if args.trace {
        let delta = ServeDelta::between(&before, &after);
        rep.metric("serve.cache_hit_ratio", delta.hit_ratio());
        rep.metric("serve.batch_size_mean", ratio(delta.requests, delta.batches));
        rep.metric("serve.batch_p50_ms", delta.batch_p50_s * 1e3);
        rep.metric("serve.batch_p99_ms", delta.batch_p99_s * 1e3);
        rep.metric(
            "serve.wait_p50_ms",
            (Summary::of(service_latency).p50 - delta.batch_p50_s) * 1e3,
        );
        rep.metric("serve.scored_per_miss", ratio(delta.scored, delta.misses));
        rep.metric("serve.evictions_per_request", ratio(delta.evictions, delta.requests));
        rep.metric("serve.shed_share", ratio(delta.sheds, n as u64));

        // Stage costs of this workload's instance mix, from the replay.
        let mut replay = Replay::new(&trained.ranker);
        let mut st = Stages::default();
        for (i, (q, _)) in picks.iter().enumerate() {
            let (entries, s) = replay.run(&trained.ranker, q, REF_K);
            let expected = refs[i].as_ref().expect("sample is scored");
            if !same_answer(&entries, &expected.entries) {
                rep.wrong += 1;
                rep.failed += 1;
            }
            st += s;
        }
        st.report(rep, picks.len());
        trained.report(rep);
    }
    Ok(())
}
