//! Shared pieces of every workload: the seeded request generator, sample
//! summaries, answer oracles, the traced scoring replay and process
//! probes.

use std::collections::HashSet;
use std::time::Instant;

use crate::Report;
use ranksvm::{kernel, top_k_desc, RankSvmTrainer};
use sorl::pipeline::{PipelineConfig, TrainingPipeline};
use sorl::session::{predefined_candidates, TuningSession};
use sorl::tuner::TopK;
use sorl::{table3_benchmarks, StencilRanker};
use sorl_serve::ServeStats;
use stencil_gen::{Corpus, TrainingSetBuilder};
use stencil_machine::Machine;
use stencil_model::{
    CandidateMatrix, FeatureConfig, FeatureEncoder, GridSize, InstanceKey, StencilExecution,
    StencilInstance, StencilKernel, TuningVector,
};

/// One answer: `(configuration, score)` pairs, best first.
pub type Entries = Vec<(TuningVector, f64)>;

/// SplitMix64: a tiny, fully specified generator, so a seed names the
/// same request stream on every build and host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Independent generator `stream` of the workload seeded by `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        let wide = u128::from(self.next_u64()) * n as u128;
        usize::try_from(wide >> 64).expect("below n fits usize")
    }

    /// Uniform in `[lo, hi]`.
    pub fn between(&mut self, lo: u32, hi: u32) -> u32 {
        let span = usize::try_from(hi - lo).expect("u32 span fits usize") + 1;
        lo + u32::try_from(self.below(span)).expect("offset below a u32 span")
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An endless stream of distinct stencil instances: a Table III kernel
/// drawn uniformly from the 17 benchmarks (so 3-D and 2-D come in
/// Table III's 11:6 ratio) at a random size. No key repeats.
pub struct InstanceStream {
    rng: Rng,
    kernels: Vec<StencilKernel>,
    seen: HashSet<InstanceKey>,
}

impl InstanceStream {
    pub fn new(seed: u64, stream: u64) -> Self {
        let kernels =
            table3_benchmarks().into_iter().map(|b| b.instance.kernel().clone()).collect();
        InstanceStream { rng: Rng::new(seed, stream), kernels, seen: HashSet::new() }
    }

    pub fn next_instance(&mut self) -> StencilInstance {
        loop {
            let kernel = self.kernels[self.rng.below(self.kernels.len())].clone();
            let size = if kernel.dim() == 3 {
                let mut axis = || self.rng.between(48, 384);
                GridSize::d3(axis(), axis(), axis())
            } else {
                let mut axis = || self.rng.between(128, 4096);
                GridSize::d2(axis(), axis())
            };
            let instance = StencilInstance::new(kernel, size).expect("sizes exceed every radius");
            if self.seen.insert(instance.key()) {
                return instance;
            }
        }
    }

    pub fn take(&mut self, n: usize) -> Vec<StencilInstance> {
        (0..n).map(|_| self.next_instance()).collect()
    }
}

/// FNV-1a over the request stream, printed so two runs can show they sent
/// the same requests.
#[derive(Debug, Clone, Copy)]
pub struct StreamHash(u64);

impl StreamHash {
    pub fn new() -> Self {
        StreamHash(0xCBF2_9CE4_8422_2325)
    }

    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn add_instance(&mut self, instance: &StencilInstance) {
        self.add(instance.key().fingerprint());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Samples per window of the p99 estimate: the p99 of 500 samples has
/// five beyond it.
const TAIL_WINDOW: usize = 500;
/// Fewest windows whose median is reported; a smaller sample reports the
/// pooled percentile instead, since the median of one or two windows
/// shields nothing.
const MIN_WINDOWS: usize = 3;

/// Median and tail of a timing sample, taken in the order measured.
///
/// The tail is p99 as the median over consecutive 500-sample windows of
/// each window's p99, so a stall of the host (a burst of slow operations
/// far apart from the next) moves the windows it falls in, not the run.
/// A sample too small for three windows reports the pooled p99, or the
/// highest percentile that has ten samples beyond it if that is lower.
/// `top` is that highest percentile over the pooled sample, for the
/// report line.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub p50: f64,
    pub tail: f64,
    pub tail_label: &'static str,
    pub windows: usize,
    pub top: f64,
    pub top_label: &'static str,
}

const PERCENTILES: [(f64, &str); 7] = [
    (0.999, "p99.9"),
    (0.99, "p99"),
    (0.98, "p98"),
    (0.95, "p95"),
    (0.9, "p90"),
    (0.75, "p75"),
    (0.5, "p50"),
];

/// Nearest-rank percentile of a sorted sample (0 when empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

impl Summary {
    pub fn of(samples: Vec<f64>) -> Summary {
        let n = samples.len();
        let window_p99s: Vec<f64> = samples
            .chunks_exact(TAIL_WINDOW)
            .map(|w| percentile(&sorted(w.to_vec()), 0.99))
            .collect();
        let windows = window_p99s.len();
        let all = sorted(samples);
        let (top_q, top_label) = PERCENTILES
            .iter()
            .copied()
            .find(|&(q, _)| (n as f64 * (1.0 - q)).round() >= 10.0)
            .unwrap_or((1.0, "max"));
        let (tail, tail_label) = if windows >= MIN_WINDOWS {
            (median(window_p99s), "p99")
        } else {
            (percentile(&all, top_q), top_label)
        };
        Summary {
            n,
            mean: if n == 0 { 0.0 } else { all.iter().sum::<f64>() / n as f64 },
            p50: percentile(&all, 0.5),
            tail,
            tail_label,
            windows,
            top: percentile(&all, top_q),
            top_label,
        }
    }

    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let how = if self.windows >= MIN_WINDOWS {
            format!("median of {} windows of {TAIL_WINDOW}", self.windows)
        } else {
            format!("pooled, {} windows of {TAIL_WINDOW} are too few", self.windows)
        };
        format!(
            "p50 {:.4} {unit}, {} {:.4} {unit} ({how}), pooled {} {:.4} {unit} (n={})",
            self.p50 * scale,
            self.tail_label,
            self.tail * scale,
            self.top_label,
            self.top * scale,
            self.n
        )
    }
}

/// Length of the windows rates are measured over.
pub const RATE_WINDOW_S: f64 = 0.5;

/// Events per second: the median over the whole `RATE_WINDOW_S` windows
/// of `[0, span)` of the events (offsets in seconds) each holds. A
/// median over windows keeps a short stall of the host from moving the
/// rate of a whole run.
pub fn windowed_rate(events: &[f64], span: f64) -> f64 {
    let windows = ((span / RATE_WINDOW_S) as usize).max(1);
    let mut counts = vec![0u64; windows];
    for &t in events {
        if let Some(c) = counts.get_mut((t / RATE_WINDOW_S) as usize) {
            *c += 1;
        }
    }
    median(counts.into_iter().map(|c| c as f64).collect()) / RATE_WINDOW_S
}

/// Whether two answers are equal entry by entry, scores bit for bit.
pub fn same_answer(a: &[(TuningVector, f64)], b: &[(TuningVector, f64)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ta, sa), (tb, sb))| ta == tb && sa.to_bits() == sb.to_bits())
}

/// The per-candidate oracle: every predefined configuration encoded on
/// its own with `FeatureEncoder::encode_into` and scored with
/// `LinearRanker::score`, then the same top-k select.
pub fn oracle_top_k(ranker: &StencilRanker, instance: &StencilInstance, k: usize) -> Entries {
    let candidates = predefined_candidates(instance.dim());
    let mut row = Vec::new();
    let scores: Vec<f64> = candidates
        .iter()
        .map(|&t| {
            let exec =
                StencilExecution::new(instance.clone(), t).expect("predefined is admissible");
            ranker.encoder().encode_into(&exec, &mut row);
            ranker.model().score(&row)
        })
        .collect();
    top_k_desc(&scores, k).into_iter().map(|i| (candidates[i], scores[i])).collect()
}

/// Geometric mean, over `picks`, of the noiseless simulated cost of the
/// chosen configuration divided by the best cost in the predefined set.
pub fn top1_slowdown(picks: &[(StencilInstance, TuningVector)]) -> f64 {
    let machine = Machine::xeon_e5_2680_v3();
    let cost = |instance: &StencilInstance, t: TuningVector| {
        let exec = StencilExecution::new(instance.clone(), t).expect("predefined is admissible");
        machine.cost(&exec).total
    };
    let log_sum: f64 = picks
        .iter()
        .map(|(instance, chosen)| {
            let best = predefined_candidates(instance.dim())
                .iter()
                .map(|&t| cost(instance, t))
                .fold(f64::INFINITY, f64::min);
            (cost(instance, *chosen) / best).ln()
        })
        .sum();
    (log_sum / picks.len().max(1) as f64).exp()
}

/// Rows per encode/score block in the traced replay, mirroring the
/// session's own block size so both touch the same working set.
const REPLAY_BLOCK_ROWS: usize = 64;

/// Stage timings of one replayed query, seconds and computed counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub encode_s: f64,
    pub kernel_s: f64,
    pub select_s: f64,
    pub rows: u64,
    pub row_bytes_written: u64,
    pub kernel_bytes_read: u64,
}

impl Stages {
    pub fn total_s(&self) -> f64 {
        self.encode_s + self.kernel_s + self.select_s
    }

    /// Reports the `model` and `ranksvm` stage metrics as means over
    /// `queries` replayed queries.
    pub fn report(&self, rep: &mut Report, queries: usize) {
        let n = queries.max(1) as f64;
        rep.metric("model.encode_rows_ms", self.encode_s / n * 1e3);
        rep.metric("model.row_bytes_written", self.row_bytes_written as f64 / n);
        rep.metric("ranksvm.score_kernel_ms", self.kernel_s / n * 1e3);
        rep.metric("ranksvm.rows_scored", self.rows as f64 / n);
        rep.metric("ranksvm.kernel_bytes_read", self.kernel_bytes_read as f64 / n);
        rep.metric("ranksvm.select_topk_ms", self.select_s / n * 1e3);
        rep.metric("ranksvm.active_kernel", f64::from(u8::from(kernel::simd_active())));
    }
}

impl std::ops::AddAssign for Stages {
    fn add_assign(&mut self, o: Stages) {
        self.encode_s += o.encode_s;
        self.kernel_s += o.kernel_s;
        self.select_s += o.select_s;
        self.rows += o.rows;
        self.row_bytes_written += o.row_bytes_written;
        self.kernel_bytes_read += o.kernel_bytes_read;
    }
}

/// The session's top-k query rebuilt from public pieces, with a span
/// around each stage: `query_features` and `append_candidate` into a
/// `CandidateMatrix`, `kernel::score_rows_into`, then `top_k_desc`.
pub struct Replay {
    matrix: CandidateMatrix,
    scores: Vec<f64>,
}

impl Replay {
    pub fn new(ranker: &StencilRanker) -> Self {
        let dim = ranker.encoder().dim();
        Replay {
            matrix: CandidateMatrix::with_row_capacity(dim, REPLAY_BLOCK_ROWS),
            scores: Vec::new(),
        }
    }

    pub fn run(
        &mut self,
        ranker: &StencilRanker,
        instance: &StencilInstance,
        k: usize,
    ) -> (Entries, Stages) {
        let candidates = predefined_candidates(instance.dim());
        let encoder = ranker.encoder();
        let w = ranker.model().weights();
        let mut st = Stages::default();
        self.scores.clear();
        self.scores.resize(candidates.len(), 0.0);

        let t = Instant::now();
        let qf = encoder.query_features(instance);
        st.encode_s += t.elapsed().as_secs_f64();
        for (block, out) in
            candidates.chunks(REPLAY_BLOCK_ROWS).zip(self.scores.chunks_mut(REPLAY_BLOCK_ROWS))
        {
            let t0 = Instant::now();
            self.matrix.clear();
            for &c in block {
                self.matrix.push_row_with(|row| encoder.append_candidate(&qf, c, row));
            }
            let t1 = Instant::now();
            kernel::score_rows_into(w, self.matrix.rows_data(), self.matrix.stride(), out);
            let t2 = Instant::now();
            st.encode_s += (t1 - t0).as_secs_f64();
            st.kernel_s += (t2 - t1).as_secs_f64();
            let rows = block.len() as u64;
            st.rows += rows;
            st.row_bytes_written += rows * self.matrix.stride() as u64 * 8;
            st.kernel_bytes_read += (rows + 1) * w.len() as u64 * 8;
        }
        let t = Instant::now();
        let entries: Entries = top_k_desc(&self.scores, k)
            .into_iter()
            .map(|i| (candidates[i], self.scores[i]))
            .collect();
        st.select_s = t.elapsed().as_secs_f64();
        (entries, st)
    }
}

/// Peak resident set (`VmHWM`) of a process, MiB (`None` once it is gone).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Counter deltas between two `ServeStats` snapshots, with batch latency
/// quantiles interpolated inside the log2-µs histogram buckets.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeDelta {
    pub requests: u64,
    pub batches: u64,
    pub scored: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub sheds: u64,
    pub batch_p50_s: f64,
    pub batch_p99_s: f64,
}

impl ServeDelta {
    pub fn between(before: &ServeStats, after: &ServeStats) -> ServeDelta {
        let hist: Vec<u64> = after
            .batch_latency_hist
            .iter()
            .zip(&before.batch_latency_hist)
            .map(|(a, b)| a - b)
            .collect();
        ServeDelta {
            requests: after.requests - before.requests,
            batches: after.batches - before.batches,
            scored: after.scored_instances - before.scored_instances,
            hits: after.cache_hits - before.cache_hits,
            misses: after.cache_misses - before.cache_misses,
            evictions: after.cache_evictions - before.cache_evictions,
            sheds: after.sheds() - before.sheds(),
            batch_p50_s: histogram_quantile(&hist, 0.5),
            batch_p99_s: histogram_quantile(&hist, 0.99),
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Quantile of a histogram whose bucket `i` covers `(2^(i-1), 2^i]` µs,
/// linearly interpolated inside the bucket; seconds.
fn histogram_quantile(hist: &[u64], q: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut seen = 0.0;
    for (i, &count) in hist.iter().enumerate() {
        let next = seen + count as f64;
        if count > 0 && next >= target {
            let hi = (1u64 << i) as f64;
            let lo = if i == 0 { 0.0 } else { hi / 2.0 };
            let frac = (target - seen) / count as f64;
            return (lo + frac * (hi - lo)) * 1e-6;
        }
        seen = next;
    }
    (1u64 << (hist.len() - 1)) as f64 * 1e-6
}

/// The paper-default ranker, plus the two training stages timed from a
/// replay of the pipeline when traced.
pub struct Trained {
    pub ranker: StencilRanker,
    pub stages: Option<(f64, f64)>,
}

impl Trained {
    /// Reports the training stage metrics of a traced run.
    pub fn report(&self, rep: &mut Report) {
        if let Some((tsgen_s, train_s)) = self.stages {
            rep.metric("gen.tsgen_s", tsgen_s);
            rep.metric("ranksvm.train_s", train_s);
        }
    }
}

/// Trains with the paper-default `TrainingPipeline`. Traced, it also
/// replays the pipeline's two stages — `TrainingSetBuilder::build_size`,
/// then `RankSvmTrainer::train` — with a span around each, and fails
/// unless the replay yields the pipeline's exact model.
pub fn train_paper_ranker(traced: bool) -> Result<Trained, String> {
    let config = PipelineConfig::default();
    let ranker = TrainingPipeline::new(config).run().ranker;
    if !traced {
        return Ok(Trained { ranker, stages: None });
    }
    let encoder = FeatureEncoder::new(FeatureConfig {
        encoding: config.encoding,
        ..FeatureConfig::default()
    });
    let t = Instant::now();
    let ts = TrainingSetBuilder::paper()
        .with_corpus(Corpus::paper())
        .with_machine(Machine::xeon_e5_2680_v3())
        .with_encoder(encoder.clone())
        .with_seed(config.seed)
        .build_size(config.training_size);
    let tsgen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (model, _) = RankSvmTrainer::new(config.train).train(&ts.dataset);
    let train_s = t.elapsed().as_secs_f64();
    let replayed = StencilRanker::new(encoder, model);
    if replayed.fingerprint() != ranker.fingerprint() {
        return Err("the replayed training stages built a different model than the pipeline".into());
    }
    Ok(Trained { ranker, stages: Some((tsgen_s, train_s)) })
}

/// Median (the mean of the middle two for an even count; 0 when empty).
pub fn median(values: Vec<f64>) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// CPU affinity of the calling thread (Linux), through the C library
/// that std already links. A thread inherits its spawner's mask.
mod affinity {
    /// `cpu_set_t`: 1024 CPUs, one bit each.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 is the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    pub fn only(cpu: usize) -> Mask {
        let mut mask = [0u64; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        mask
    }

    pub fn cpus(mask: &Mask) -> Vec<usize> {
        (0..mask.len() * 64).filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0).collect()
    }
}

/// Keeps an in-process load generator and the service thread it loads on
/// separate CPUs. Left to the scheduler, the two often share one CPU
/// (each wakes the other), and then every wake-up of one waits out the
/// other's time slice: the generator sends late and the scoring thread is
/// preempted mid-batch, which is the harness measuring itself. With fewer
/// than two usable CPUs nothing is pinned.
pub struct Placement {
    /// The process's mask, then the service CPU and the generator CPU.
    pins: Option<(affinity::Mask, usize, usize)>,
}

impl Placement {
    pub fn new() -> Placement {
        let pins = affinity::get().and_then(|all| {
            let cpus = affinity::cpus(&all);
            Some((all, *cpus.first()?, *cpus.get(1)?))
        });
        Placement { pins }
    }

    pub fn describe(&self) -> String {
        match self.pins {
            Some((_, service, generator)) => {
                format!("service thread on cpu {service}, generator on cpu {generator}")
            }
            None => "unpinned (fewer than two CPUs)".to_string(),
        }
    }

    /// Runs `spawn` pinned to the service CPU, so the threads it starts
    /// stay there, then unpins the calling thread.
    pub fn spawn_service<T>(&self, spawn: impl FnOnce() -> T) -> T {
        let Some((all, service, _)) = self.pins else { return spawn() };
        affinity::set(&affinity::only(service));
        let spawned = spawn();
        affinity::set(&all);
        spawned
    }

    /// Pins the calling thread to the generator CPU.
    pub fn enter_generator(&self) {
        if let Some((_, _, generator)) = self.pins {
            affinity::set(&affinity::only(generator));
        }
    }

    /// Unpins the calling thread.
    pub fn leave_generator(&self) {
        if let Some((all, _, _)) = self.pins {
            affinity::set(&all);
        }
    }
}

/// In-process `TuningSession` answers for `instances` at depth `k`,
/// scored in small batches so the reference pass does not inflate peak
/// memory.
pub fn reference_answers(
    ranker: &StencilRanker,
    instances: &[&StencilInstance],
    k: usize,
) -> Vec<TopK> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut session = TuningSession::parallel(ranker.clone(), nproc);
    instances
        .chunks(16)
        .flat_map(|chunk| {
            let queries: Vec<(&StencilInstance, usize)> = chunk.iter().map(|&q| (q, k)).collect();
            session.top_k_batch(&queries)
        })
        .collect()
}
