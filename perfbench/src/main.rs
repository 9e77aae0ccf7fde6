//! `perfbench`: the LightNE benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <factorize|sample|durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed (timed as `setup_s`),
//! then runs a closed loop of back-to-back embeds for the given number
//! of seconds. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the separate traced pass and reports the per-layer metrics. The
//! last line of stdout is the result object; the line before it holds the
//! run context and the median and quartiles of every metric. Every embed
//! and every output check counts as one attempted operation.

mod probes;
mod stats;
mod sys;
mod trace;
mod workload;

use lightne::core::engine::ProgressHook;
use lightne::core::pipeline::{STAGE_NETMF, STAGE_RSVD};
use lightne::core::propagation::{propagation_flops, spectral_propagation};
use lightne::core::{LightNe, LightNeConfig, LightNeOutput, PropagationConfig, RunOptions};
use lightne::eval::classify::evaluate_node_classification;
use lightne::eval::linkpred::rank_held_out;
use lightne::graph::compressed::DEFAULT_BLOCK_SIZE;
use lightne::graph::{GraphOps, V2Graph};
use lightne::linalg::DenseMatrix;
use lightne::sparsifier::construct::SamplerConfig;
use lightne::sparsifier::netmf::sparsifier_to_netmf;
use lightne::sparsifier::sharded::{build_sharded_sparsifier, sharded_to_netmf};
use lightne::utils::checksum::fnv1a64;
use probes::bits_equal;
use stats::{json_str, Checks, Metrics};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use trace::Trace;
use workload::{Inputs, Workload};

/// End-to-end metrics, printed by `--trace 0` (the `end_to_end` list of
/// `BENCHMARK.json`, in order).
pub const END_TO_END: [&str; 7] = [
    "embeddings_per_s",
    "embeddings_per_s_1t",
    "setup_s",
    "peak_rss_mib",
    "micro_f1",
    "link_mrr",
    "resume_s",
];

/// Per-layer metrics, printed by `--trace 1` (the `per_layer` list of
/// `BENCHMARK.json`, in order).
pub const PER_LAYER: [&str; 34] = [
    "sparsifier.sample_s",
    "sparsifier.trials",
    "sparsifier.kept_ratio",
    "sparsifier.trials_per_s",
    "sparsifier.netmf_s",
    "sparsifier.netmf_nnz",
    "hashtable.distinct_entries",
    "hashtable.shards",
    "hashtable.shard_resizes",
    "hashtable.shard_imbalance",
    "hashtable.aggregator_mib",
    "linalg.rsvd_s",
    "linalg.rsvd_gflops",
    "linalg.spmm_s",
    "linalg.spmm_gbps_computed",
    "linalg.orthonormalize_s",
    "linalg.gram_tn_gflops",
    "linalg.gemm_gflops",
    "linalg.stream_copy_gbps",
    "propagation.s",
    "propagation.gflops",
    "parallel.region_us",
    "parallel.axpy_ms",
    "parallel.axpy_seq_ms",
    "graph.v2_encode_s",
    "graph.v2_bits_per_edge",
    "graph.open_s",
    "artifacts.save_s",
    "artifacts.bytes_written_mib",
    "artifacts.inspect_s",
    "artifacts.load_s",
    "engine.unattributed_s",
    "engine.heap_mib_reported",
    "trace.overhead_frac",
];

/// Every timed loop runs at least this many embeds, whatever the budget.
const MIN_REPS: usize = 5;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Scratch files (LNV2 containers, artifact stores), removed at exit.
const WORK_ROOT: &str = ".perfbench_work";
/// Trace files written by `--trace 1`.
const TRACE_ROOT: &str = ".perfbench_out";
const MIB: f64 = 1024.0 * 1024.0;

#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run the timed loop at one worker thread and report to
    /// the parent process (`embeddings_per_s_1t`).
    serial_child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut serial_child) =
        (None, 1u64, 10.0f64, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--serial-child" {
            serial_child = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or_else(|| {
                    format!("unknown workload {val:?} (factorize, sample, durable)")
                })?)
            }
            "--seed" => seed = val.parse().map_err(|_| format!("bad --seed {val:?}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|_| format!("bad --seconds {val:?}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err(format!("--seconds must be positive, got {val}"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, serial_child })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        if args.serial_child {
            run_serial_child(&args)
        } else {
            run(&args)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Per-process scratch directory under [`WORK_ROOT`], removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(w: Workload, seed: u64) -> Result<Self, String> {
        let dir = Path::new(WORK_ROOT).join(format!("{}-{seed}-{}", w.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(WORK_ROOT); // only succeeds once empty
    }
}

/// A workload's prepared inputs; on `durable` also its LNV2 container,
/// opened with `V2Graph::open_mmap`.
struct Prepared {
    inputs: Inputs,
    v2: Option<V2Graph>,
    container: PathBuf,
    setup_secs: Vec<f64>,
}

/// Runs `$body` with `$g` bound to the workload's graph backend: the
/// mmap-opened container on `durable`, the in-memory CSR elsewhere.
macro_rules! with_graph {
    ($prep:expr, |$g:ident| $body:expr) => {
        match &$prep.v2 {
            Some($g) => $body,
            None => {
                let $g = &$prep.inputs.graph;
                $body
            }
        }
    };
}

/// Set-up, repeated `reps` times (each repetition is timed; the last one
/// is kept): input generation, plus the LNV2 encode, write and mmap open
/// on `durable`.
fn setup(
    w: Workload,
    seed: u64,
    work: &WorkDir,
    reps: usize,
    checks: &mut Checks,
) -> Result<Prepared, String> {
    let container = work.0.join("graph.lng2");
    let mut setup_secs = Vec::with_capacity(reps);
    let mut digests = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take()); // release the previous copy before building the next
        let t = Instant::now();
        let inputs = workload::generate(w, seed);
        let v2 = if w == Workload::Durable {
            V2Graph::write(&inputs.graph, probes::CODEC, DEFAULT_BLOCK_SIZE, &container)
                .map_err(|e| format!("writing {}: {e}", container.display()))?;
            Some(V2Graph::open_mmap(&container).map_err(|e| format!("opening container: {e}"))?)
        } else {
            None
        };
        setup_secs.push(t.elapsed().as_secs_f64());
        digests.push(workload::inputs_digest(&inputs));
        last = Some((inputs, v2));
    }
    checks.check("set-up is deterministic in the seed", digests.windows(2).all(|p| p[0] == p[1]));
    let (inputs, v2) = last.expect("at least one set-up repetition");
    if let Some(v2) = &v2 {
        checks.check(
            "LNV2 container decodes to the generated graph",
            workload::graph_digest(v2) == workload::graph_digest(&inputs.graph),
        );
    }
    Ok(Prepared { inputs, v2, container, setup_secs })
}

/// The workload's embed over one graph backend.
struct Bench<'a, G: GraphOps> {
    workload: Workload,
    engine: LightNe,
    /// The same configuration without propagation, which is never
    /// checkpointed: resuming with it stops at the deepest artifact.
    resumer: LightNe,
    g: &'a G,
    ckpt: PathBuf,
}

impl<'a, G: GraphOps> Bench<'a, G> {
    fn new(args: &Args, g: &'a G, work: &WorkDir) -> Self {
        let cfg = args.workload.config(args.seed);
        Self {
            workload: args.workload,
            engine: LightNe::new(cfg),
            resumer: LightNe::new(LightNeConfig { propagation: None, ..cfg }),
            g,
            ckpt: work.0.join("artifacts"),
        }
    }

    fn cfg(&self) -> &LightNeConfig {
        self.engine.config()
    }

    fn n(&self) -> f64 {
        self.g.num_vertices() as f64
    }

    fn run(&self, opts: RunOptions) -> Result<LightNeOutput, String> {
        self.engine.embed_with(self.g, opts).map_err(|e| format!("embed failed: {e}"))
    }

    /// The workload's timed embed; on `durable` it checkpoints every
    /// stage into the artifact directory (call [`Bench::clear`] first).
    fn embed(&self, progress: Option<ProgressHook>) -> Result<LightNeOutput, String> {
        let save = (self.workload == Workload::Durable).then(|| self.ckpt.clone());
        self.run(RunOptions { save_artifacts: save, progress, ..RunOptions::default() })
    }

    /// A checkpointing embed into the artifact directory.
    fn checkpoint(&self) -> Result<LightNeOutput, String> {
        self.run(RunOptions { save_artifacts: Some(self.ckpt.clone()), ..RunOptions::default() })
    }

    /// An embed resumed from the artifact directory: validation and load
    /// of the deepest artifact, the initial embedding.
    fn resume(&self) -> Result<LightNeOutput, String> {
        let opts = RunOptions { resume_from: Some(self.ckpt.clone()), ..RunOptions::default() };
        self.resumer.embed_with(self.g, opts).map_err(|e| format!("resume failed: {e}"))
    }

    /// Removes the artifact directory (outside any timed region).
    fn clear(&self) {
        let _ = std::fs::remove_dir_all(&self.ckpt);
    }
}

fn check_output(checks: &mut Checks, out: &LightNeOutput, reference: &DenseMatrix, what: &str) {
    let finite = out.embedding.as_slice().iter().all(|x| x.is_finite());
    checks.check(&format!("{what}: embedding is finite"), finite);
    checks.check(
        &format!("{what}: bitwise equal to the reference embedding"),
        bits_equal(&out.embedding, reference),
    );
}

/// Checks a resume against the straight run's initial embedding.
fn check_resume(checks: &mut Checks, resumed: &LightNeOutput, straight: &DenseMatrix) {
    let from_initial = resumed.stats.get(STAGE_RSVD).and_then(|s| s.counter("resumed")) == Some(1);
    checks.check(
        "resume: loaded the deepest artifact without fallbacks",
        from_initial && resumed.stats.resume_fallbacks.is_empty(),
    );
    checks.check(
        "resume: byte-identical to the straight embedding",
        bits_equal(&resumed.embedding, straight),
    );
}

fn embedding_hash(x: &DenseMatrix) -> u64 {
    let bytes: Vec<u8> = x.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

/// `(micro_f1 %, link MRR)` of an embedding on the workload's labels and
/// held-out edges. Both are deterministic: the split and negative seeds
/// are fixed. The graph is undirected, so each held-out edge is ranked
/// from both endpoints (corrupting the other end).
fn quality(inputs: &Inputs, x: &DenseMatrix) -> (f64, f64) {
    let f1 = evaluate_node_classification(
        x,
        &inputs.labels,
        workload::TRAIN_RATIO,
        workload::CLASSIFY_SEED,
    );
    let both_ends: Vec<_> = inputs.held_out.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
    let link = rank_held_out(x, &both_ends, workload::LINK_NEGATIVES, &[1], workload::RANK_SEED);
    (f1.micro, link.mrr)
}

/// Samples of one closed loop of timed embeds.
#[derive(Debug, Default)]
struct Loop {
    eps: Vec<f64>,
    rss_mib: Vec<f64>,
    resume_s: Vec<f64>,
}

/// Back-to-back timed embeds for `budget` seconds (at least
/// [`MIN_REPS`]). Each embed's peak RSS is the OS high-water mark, reset
/// just before it. With `with_resume`, each embed is followed by a timed
/// resume from its own artifacts.
fn timed_loop<G: GraphOps>(
    b: &Bench<G>,
    budget: f64,
    reference: &DenseMatrix,
    with_resume: bool,
    checks: &mut Checks,
) -> Result<Loop, String> {
    let mut l = Loop::default();
    let start = Instant::now();
    while l.eps.len() < MIN_REPS || start.elapsed().as_secs_f64() < budget {
        b.clear();
        sys::reset_peak_rss();
        let t = Instant::now();
        let out = b.embed(None)?;
        l.eps.push(b.n() / t.elapsed().as_secs_f64());
        check_output(checks, &out, reference, "timed embed");
        if with_resume {
            let t = Instant::now();
            let resumed = b.resume()?;
            l.resume_s.push(t.elapsed().as_secs_f64());
            check_resume(checks, &resumed, out.initial());
        }
        l.rss_mib.push(sys::peak_rss_mib().unwrap_or(f64::NAN));
    }
    Ok(l)
}

/// Timed resumes from the artifact directory for `budget` seconds.
fn resume_loop<G: GraphOps>(
    b: &Bench<G>,
    budget: f64,
    straight: &DenseMatrix,
    checks: &mut Checks,
) -> Result<Vec<f64>, String> {
    let mut secs = Vec::new();
    let start = Instant::now();
    while secs.len() < MIN_REPS || start.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        let resumed = b.resume()?;
        secs.push(t.elapsed().as_secs_f64());
        check_resume(checks, &resumed, straight);
    }
    Ok(secs)
}

fn run(args: &Args) -> Result<(), String> {
    let threads = lightne::utils::parallel::configure_threads(sys::nproc());
    let work = WorkDir::new(args.workload, args.seed)?;
    let mut checks = Checks::default();
    let prep = setup(args.workload, args.seed, &work, SETUP_REPS, &mut checks)?;
    let (context, metrics) = if args.trace {
        with_graph!(prep, |g| run_traced(args, &prep, g, &work, threads, &mut checks))?
    } else {
        with_graph!(prep, |g| run_e2e(args, &prep, g, &work, threads, &mut checks))?
    };
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    checks.check("every metric is reported, once, in order", metrics.names() == expected);
    checks.check(
        "every metric name is valid",
        metrics.names().iter().all(|n| stats::valid_metric_name(n)),
    );
    checks.check("every metric is a finite number", metrics.all_finite());
    println!("{{\"context\": {context}, \"summary\": {}}}", metrics.summary_json());
    println!("{}", metrics.result_json(&checks));
    Ok(())
}

/// The run context printed next to the metrics.
fn context_json(
    args: &Args,
    prep: &Prepared,
    warm: &LightNeOutput,
    threads: usize,
    extra: &[(&str, String)],
) -> String {
    let g = &prep.inputs.graph;
    let (l2, llc) = sys::cache_sizes();
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let netmf_bytes = warm.stats.get(STAGE_NETMF).map_or(0, |s| s.heap_bytes);
    let mut fields = vec![
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("nproc", sys::nproc().to_string()),
        ("threads", threads.to_string()),
        ("simd_tier", json_str(&warm.stats.simd_tier)),
        ("simd_features", json_str(&warm.stats.simd_features)),
        ("vertices", g.num_vertices().to_string()),
        ("edges", g.num_edges().to_string()),
        ("held_out_edges", prep.inputs.held_out.len().to_string()),
        ("dim", warm.embedding.cols().to_string()),
        ("netmf_nnz", warm.netmf_nnz.to_string()),
        ("embedding_bytes", (warm.embedding.as_slice().len() * 4).to_string()),
        ("netmf_bytes", netmf_bytes.to_string()),
        ("l2_bytes", opt(l2)),
        ("llc_bytes", opt(llc)),
    ];
    fields.extend(extra.iter().cloned());
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// The untraced pass: every end-to-end metric.
fn run_e2e<G: GraphOps>(
    args: &Args,
    prep: &Prepared,
    g: &G,
    work: &WorkDir,
    threads: usize,
    checks: &mut Checks,
) -> Result<(String, Metrics), String> {
    let w = args.workload;
    let b = Bench::new(args, g, work);
    b.clear();
    let warm = b.embed(None)?;
    let reference = &warm.embedding;
    checks.check(
        "warm-up embed: embedding is finite",
        reference.as_slice().iter().all(|x| x.is_finite()),
    );
    let (micro_f1, link_mrr) = quality(&prep.inputs, reference);
    let (f1_floor, mrr_floor) = w.quality_floors();
    checks.check(&format!("micro_f1 {micro_f1:.3} >= floor {f1_floor}"), micro_f1 >= f1_floor);
    checks.check(&format!("link_mrr {link_mrr:.4} >= floor {mrr_floor}"), link_mrr >= mrr_floor);

    // Budget: 40% all-core loop, 40% one-thread child, 20% resumes. On
    // `durable` every timed embed checkpoints and is followed by its own
    // timed resume, and the last one's artifacts serve the resume loop.
    let durable = w == Workload::Durable;
    let rss_reset = sys::reset_peak_rss();
    let mut timed = timed_loop(&b, args.seconds * 0.4, reference, durable, checks)?;
    let serial = spawn_serial_child(args, args.seconds * 0.4)?;
    checks.attempted += serial.attempted;
    checks.failed += serial.failed;
    checks.check(
        "1-thread embedding is bitwise equal to the all-core one",
        serial.hash == embedding_hash(reference),
    );
    if !durable {
        b.clear();
        let straight = b.checkpoint()?;
        check_output(checks, &straight, reference, "checkpointing embed");
    }
    timed.resume_s.extend(resume_loop(&b, args.seconds * 0.2, warm.initial(), checks)?);
    b.clear();

    let mut m = Metrics::default();
    m.samples("embeddings_per_s", "1/s", timed.eps);
    m.samples("embeddings_per_s_1t", "1/s", serial.eps);
    m.samples("setup_s", "s", prep.setup_secs.clone());
    m.samples("peak_rss_mib", "MiB", timed.rss_mib);
    m.one("micro_f1", "%", micro_f1);
    m.one("link_mrr", "ratio", link_mrr);
    m.samples("resume_s", "s", timed.resume_s);
    let context =
        context_json(args, prep, &warm, threads, &[("peak_rss_reset", rss_reset.to_string())]);
    Ok((context, m))
}

/// What the one-thread child reports back.
struct Serial {
    eps: Vec<f64>,
    hash: u64,
    attempted: u64,
    failed: u64,
}

/// Runs this workload's timed loop at one worker thread in a child
/// process and waits for it.
fn spawn_serial_child(args: &Args, budget: f64) -> Result<Serial, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed", &args.seed.to_string()])
        .args(["--seconds", &budget.to_string(), "--trace", "0", "--serial-child"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the 1-thread child: {e}"))?;
    if !out.status.success() {
        return Err(format!("1-thread child failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let mut words = line.split_whitespace();
    let bad = || format!("unreadable 1-thread child report {line:?}");
    if words.next() != Some("serial") {
        return Err(bad());
    }
    let attempted = words.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let failed = words.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let hash = words.next().and_then(|s| u64::from_str_radix(s, 16).ok()).ok_or_else(bad)?;
    let eps = words.map(|s| s.parse().map_err(|_| bad())).collect::<Result<Vec<f64>, _>>()?;
    Ok(Serial { eps, hash, attempted, failed })
}

/// Child side of [`spawn_serial_child`]: set up once, warm up, run the
/// timed loop at one worker thread and print
/// `serial <attempted> <failed> <embedding hash> <embeddings/s>...`.
fn run_serial_child(args: &Args) -> Result<(), String> {
    lightne::utils::parallel::configure_threads(1);
    let work = WorkDir::new(args.workload, args.seed)?;
    let mut checks = Checks::default();
    let prep = setup(args.workload, args.seed, &work, 1, &mut checks)?;
    let (hash, timed) = with_graph!(prep, |g| {
        let b = Bench::new(args, g, &work);
        b.clear();
        let warm = b.embed(None)?;
        let timed = timed_loop(&b, args.seconds, &warm.embedding, false, &mut checks)?;
        b.clear();
        (embedding_hash(&warm.embedding), timed)
    });
    let eps: Vec<String> = timed.eps.iter().map(|e| e.to_string()).collect();
    println!("serial {} {} {hash:016x} {}", checks.attempted, checks.failed, eps.join(" "));
    Ok(())
}

fn lock(t: &Mutex<Trace>) -> MutexGuard<'_, Trace> {
    t.lock().expect("trace lock poisoned: a stage hook panicked")
}

/// Runs `f` inside a probe span named `name` under `parent`.
fn probe<T>(t: &mut Trace, name: &str, parent: usize, f: impl FnOnce() -> T) -> T {
    let group = t.span(parent).group;
    let id = t.open(name, group, Some(parent));
    let out = f();
    t.close(id);
    out
}

/// The sampler configuration the engine derives from `cfg` for `g`.
fn sampler_config<G: GraphOps>(cfg: &LightNeConfig, g: &G) -> SamplerConfig {
    let samples = (cfg.sample_ratio * cfg.window as f64 * g.num_edges() as f64).round() as u64;
    SamplerConfig {
        window: cfg.window,
        samples: samples.max(1),
        downsample: cfg.downsample,
        c_factor: cfg.c_factor,
        prob: cfg.prob,
        seed: cfg.seed,
    }
}

/// The traced pass: alternating untraced and traced embeds, then the
/// kernel probes, then every per-layer metric.
fn run_traced<G: GraphOps>(
    args: &Args,
    prep: &Prepared,
    g: &G,
    work: &WorkDir,
    threads: usize,
    checks: &mut Checks,
) -> Result<(String, Metrics), String> {
    let w = args.workload;
    let b = Bench::new(args, g, work);
    let cfg = *b.cfg();
    let n = g.num_vertices();
    b.clear();
    let warm = b.embed(None)?;
    let reference = &warm.embedding;
    checks.check(
        "warm-up embed: embedding is finite",
        reference.as_slice().iter().all(|x| x.is_finite()),
    );

    // Traced embeds: one root span per embed, stage spans from the
    // progress hook. Untraced embeds alternate with them so that
    // `trace.overhead_frac` compares like with like.
    let shared = Arc::new(Mutex::new(Trace::default()));
    let (mut untraced_eps, mut traced_eps) = (Vec::new(), Vec::new());
    let mut stage_self: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut unattributed = Vec::new();
    let mut group = 0;
    let mut last = None;
    let start = Instant::now();
    while traced_eps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        b.clear();
        let t = Instant::now();
        let out = b.embed(None)?;
        untraced_eps.push(n as f64 / t.elapsed().as_secs_f64());
        check_output(checks, &out, reference, "untraced embed");

        b.clear();
        group += 1;
        let root = lock(&shared).open(w.name(), group, None);
        let hook = trace::stage_hook(shared.clone(), group, root);
        let t = Instant::now();
        let out = b.embed(Some(hook))?;
        let secs = t.elapsed().as_secs_f64();
        let mut tr = lock(&shared);
        tr.close(root);
        traced_eps.push(n as f64 / secs);
        check_output(checks, &out, reference, "traced embed");
        checks.check(
            "traced embed: span self times sum to the root span",
            tr.well_formed(root, 1e-9),
        );
        for stage in tr.children(root).collect::<Vec<_>>() {
            stage_self.entry(tr.span(stage).name.clone()).or_default().push(tr.self_secs(stage));
        }
        unattributed.push(tr.self_secs(root));
        last = Some((out, root));
    }
    b.clear();
    let (last, root) = last.expect("at least one traced embed");
    let mut tr = lock(&shared);
    let counter = |tr: &Trace, stage: &str, key: &str| -> Option<f64> {
        let s = tr.child(root, stage)?;
        tr.span(s).counters.iter().find(|(k, _)| k == key).map(|&(_, v)| v as f64)
    };
    let stage_s = |name: &str| stage_self.get(name).map_or(f64::NAN, |v| stats::median(v));

    // Probes: one tree per run, each probe under the stage it models.
    group += 1;
    let probes_root = tr.open("probes", group, None);

    // sparsify: rebuild the NetMF matrix through the workload's own data
    // path (global table when checkpointing, sharded otherwise).
    let sp = tr.open("sparsify", group, Some(probes_root));
    let scfg = sampler_config(&cfg, g);
    let (netmf, global_resizes) = if w == Workload::Durable {
        let (coo, resizes) =
            probe(&mut tr, "hashtable.global_table", sp, || probes::global_table_sample(g, &scfg))?;
        let m = probe(&mut tr, "sparsifier.netmf", sp, || {
            sparsifier_to_netmf(g, coo, scfg.samples, cfg.negative)
        });
        (m, Some(resizes as f64))
    } else {
        let (table, _) = probe(&mut tr, "hashtable.sharded_table", sp, || {
            build_sharded_sparsifier(g, &scfg, cfg.shards)
        })
        .map_err(|e| format!("sampling failed: {e}"))?;
        let m = probe(&mut tr, "sparsifier.netmf", sp, || {
            sharded_to_netmf(g, table, scfg.samples, cfg.negative)
        });
        (m, None)
    };
    tr.close(sp);
    checks.check(
        "probe NetMF matrix has the traced embed's nnz",
        Some(netmf.nnz() as f64) == counter(&tr, "netmf", "nnz"),
    );

    // rsvd: the dense and sparse kernels at this workload's shapes.
    let rs = tr.open("rsvd", group, Some(probes_root));
    let x = DenseMatrix::gaussian(n, cfg.dim + cfg.oversampling, args.seed);
    let (spmm_s, spmm_gbps) = probe(&mut tr, "linalg.spmm", rs, || probes::spmm(&netmf, &x));
    let orth_s = probe(&mut tr, "linalg.orthonormalize", rs, || probes::orthonormalize(&x));
    let gram_gflops = probe(&mut tr, "linalg.gram_tn", rs, || probes::gram_tn(&x));
    let gemm_gflops = probe(&mut tr, "linalg.gemm", rs, || probes::packed_gemm(&x));
    drop(x);
    let (l2, llc) = sys::cache_sizes();
    let stream_bytes = 4 * llc.unwrap_or(32 << 20) as usize;
    let stream_gbps =
        probe(&mut tr, "linalg.stream_copy", rs, || probes::stream_copy(stream_bytes, threads));
    tr.close(rs);

    // propagate: the parallel runtime, and the propagation filter itself
    // when this workload's embed does not run it.
    let pr = tr.open("propagate", group, Some(probes_root));
    let region_us = probe(&mut tr, "parallel.region", pr, || probes::parallel_region(threads));
    let (axpy_ms, axpy_seq_ms) = probe(&mut tr, "parallel.axpy", pr, || probes::axpy(n, cfg.dim));
    let (prop_s, prop_gflops) = match stage_self.get("propagate") {
        Some(v) => {
            let s = stats::median(v);
            (s, counter(&tr, "propagate", "flops").unwrap_or(f64::NAN) / s / 1e9)
        }
        None => {
            let pcfg = PropagationConfig::default();
            let (s, y) = probe(&mut tr, "propagation", pr, || {
                probes::time_median(1, || spectral_propagation(g, reference, &pcfg))
            });
            checks.check(
                "propagation probe: output is finite",
                y.as_slice().iter().all(|v| v.is_finite()),
            );
            let flops = propagation_flops(n, 2 * g.num_edges() as u64 + n as u64, cfg.dim, &pcfg);
            (s, flops as f64 / s / 1e9)
        }
    };
    tr.close(pr);

    // setup: LNV2 encode and mmap open of this workload's graph.
    let su = tr.open("setup", group, Some(probes_root));
    let (encode_s, bits_per_edge) =
        probe(&mut tr, "graph.v2_encode", su, || probes::v2_encode(&prep.inputs.graph));
    if !prep.container.exists() {
        V2Graph::write(&prep.inputs.graph, probes::CODEC, DEFAULT_BLOCK_SIZE, &prep.container)
            .map_err(|e| format!("writing container: {e}"))?;
    }
    let open_s = probe(&mut tr, "graph.open", su, || probes::v2_open(&prep.container))?;
    tr.close(su);

    // artifacts: store round trip of this workload's NetMF matrix and
    // initial embedding.
    let ar = tr.open("artifacts", group, Some(probes_root));
    let store = work.0.join("probe_store");
    let art = probe(&mut tr, "artifacts.store", ar, || {
        probes::artifacts(&store, &netmf, warm.initial())
    })?;
    checks
        .check("artifact probe: inspect and load round-trip the saved payloads", art.roundtrip_ok);
    tr.close(ar);
    tr.close(probes_root);
    checks.check("probe spans: self times sum to the root span", tr.well_formed(probes_root, 1e-9));

    eprint!("{}", tr.render(root));
    eprint!("{}", tr.render(probes_root));
    write_trace(args, &tr)?;

    let trials = counter(&tr, "sparsify", "trials").unwrap_or(f64::NAN);
    let distinct = counter(&tr, "sparsify", "distinct_entries").unwrap_or(f64::NAN);
    let shards = counter(&tr, "sparsify", "shards").unwrap_or(1.0);
    let shard_max = counter(&tr, "sparsify", "shard_distinct_max").unwrap_or(distinct);
    let resizes = counter(&tr, "sparsify", "shard_resizes").or(global_resizes).unwrap_or(f64::NAN);
    let heap_max = tr
        .children(root)
        .filter_map(|s| counter(&tr, &tr.span(s).name, "heap_bytes"))
        .fold(0.0, f64::max);
    let rsvd_s = stage_s("rsvd");

    let mut m = Metrics::default();
    m.samples("sparsifier.sample_s", "s", stage_self.get("sparsify").cloned().unwrap_or_default());
    m.one("sparsifier.trials", "count", trials);
    m.one(
        "sparsifier.kept_ratio",
        "ratio",
        counter(&tr, "sparsify", "kept").unwrap_or(f64::NAN) / trials,
    );
    m.one("sparsifier.trials_per_s", "1/s", trials / stage_s("sparsify"));
    m.samples("sparsifier.netmf_s", "s", stage_self.get("netmf").cloned().unwrap_or_default());
    m.one("sparsifier.netmf_nnz", "count", counter(&tr, "netmf", "nnz").unwrap_or(f64::NAN));
    m.one("hashtable.distinct_entries", "count", distinct);
    m.one("hashtable.shards", "count", shards);
    m.one("hashtable.shard_resizes", "count", resizes);
    m.one("hashtable.shard_imbalance", "ratio", shard_max / (distinct / shards));
    m.one("hashtable.aggregator_mib", "MiB", last.sampler.aggregator_bytes as f64 / MIB);
    m.samples("linalg.rsvd_s", "s", stage_self.get("rsvd").cloned().unwrap_or_default());
    m.one(
        "linalg.rsvd_gflops",
        "GFLOP/s",
        counter(&tr, "rsvd", "flops").unwrap_or(f64::NAN) / rsvd_s / 1e9,
    );
    m.one("linalg.spmm_s", "s", spmm_s);
    m.one("linalg.spmm_gbps_computed", "GB/s", spmm_gbps);
    m.one("linalg.orthonormalize_s", "s", orth_s);
    m.one("linalg.gram_tn_gflops", "GFLOP/s", gram_gflops);
    m.one("linalg.gemm_gflops", "GFLOP/s", gemm_gflops);
    m.one("linalg.stream_copy_gbps", "GB/s", stream_gbps);
    m.one("propagation.s", "s", prop_s);
    m.one("propagation.gflops", "GFLOP/s", prop_gflops);
    m.one("parallel.region_us", "us", region_us);
    m.one("parallel.axpy_ms", "ms", axpy_ms);
    m.one("parallel.axpy_seq_ms", "ms", axpy_seq_ms);
    m.one("graph.v2_encode_s", "s", encode_s);
    m.one("graph.v2_bits_per_edge", "bits", bits_per_edge);
    m.one("graph.open_s", "s", open_s);
    m.one("artifacts.save_s", "s", art.save_s);
    m.one("artifacts.bytes_written_mib", "MiB", art.bytes_written as f64 / MIB);
    m.one("artifacts.inspect_s", "s", art.inspect_s);
    m.one("artifacts.load_s", "s", art.load_s);
    m.samples("engine.unattributed_s", "s", unattributed);
    m.one("engine.heap_mib_reported", "MiB", heap_max / MIB);
    m.one(
        "trace.overhead_frac",
        "ratio",
        1.0 - stats::median(&traced_eps) / stats::median(&untraced_eps),
    );

    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let extra = [
        ("stream_array_bytes", stream_bytes.to_string()),
        ("stream_llc_bytes", opt(llc)),
        ("stream_l2_bytes", opt(l2)),
        ("probe_columns", (cfg.dim + cfg.oversampling).to_string()),
        ("traced_embeds", traced_eps.len().to_string()),
    ];
    Ok((context_json(args, prep, &warm, threads, &extra), m))
}

/// Writes every recorded span to `.perfbench_out/trace-<workload>-<seed>.json`.
fn write_trace(args: &Args, tr: &Trace) -> Result<(), String> {
    std::fs::create_dir_all(TRACE_ROOT).map_err(|e| format!("creating {TRACE_ROOT}: {e}"))?;
    let path =
        Path::new(TRACE_ROOT).join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, tr.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("trace written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s listed under `key` in `BENCHMARK.json`.
    fn listed_names(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let section = &json[start..];
        let section = &section[..section.find(']').expect("list closes")];
        section
            .split("\"name\":")
            .skip(1)
            .map(|s| s.trim_start().trim_start_matches('"').split('"').next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn metric_names_match_benchmark_json_and_the_name_rule() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        assert_eq!(listed_names(&json, "end_to_end"), END_TO_END);
        assert_eq!(listed_names(&json, "per_layer"), PER_LAYER);
        let workloads = listed_names(&json, "workloads");
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        let mut all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).copied().collect();
        all.extend(Workload::ALL.map(Workload::name));
        for name in &all {
            assert!(stats::valid_metric_name(name), "{name:?} breaks [A-Za-z0-9_.-]+");
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len(),
            "a name is reused"
        );
    }

    #[test]
    fn argument_parsing() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload sample --seed 9 --seconds 2.5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.serial_child),
            (Workload::Sample, 9, 2.5, true, false)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload sample --trace 2")).is_err());
        assert!(parse_args(&argv("--workload sample --seconds 0")).is_err());
    }
}
