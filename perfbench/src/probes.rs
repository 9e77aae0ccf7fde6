//! Kernel probes: timed calls into public functions at a workload's own
//! shapes. Each probe returns the median over a few repetitions, so a
//! single preempted call does not move the figure.

use lightne::core::{ArtifactState, ArtifactStore};
use lightne::graph::compressed::DEFAULT_BLOCK_SIZE;
use lightne::graph::v2::encode_container;
use lightne::graph::{Codec, Graph, GraphOps, V2Graph};
use lightne::hash::{ConcurrentEdgeTable, EdgeAggregator};
use lightne::linalg::kernels::{gemm, gemm_flops};
use lightne::linalg::qr::orthonormalize_columns;
use lightne::linalg::{CsrMatrix, DenseMatrix};
use lightne::sparsifier::construct::{sample_into, SamplerConfig};
use lightne::sparsifier::downsample::{default_c, expected_kept_samples};
use rayon::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Codec of the LNV2 containers the benchmark writes (the CLI default).
pub const CODEC: Codec = Codec::RiceAdaptive;

/// Runs `f` `reps` times; returns the median wall seconds and the last
/// result.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = black_box(f());
        secs.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (crate::stats::median(&secs), last.expect("at least one repetition"))
}

/// `CsrMatrix::spmm` of `m` with `x`: seconds and computed GB/s. The
/// byte count models one pass over the CSR (4-byte index + 4-byte value
/// per non-zero), one gathered `x` row per non-zero, and one write of
/// the output.
pub fn spmm(m: &CsrMatrix, x: &DenseMatrix) -> (f64, f64) {
    let (secs, _) = time_median(5, || m.spmm(x));
    let k = x.cols() as f64;
    let bytes = m.nnz() as f64 * (8.0 + 4.0 * k) + m.n_rows() as f64 * 4.0 * k;
    (secs, bytes / secs / 1e9)
}

/// `orthonormalize_columns` (panel QR) on a copy of `x`: seconds.
pub fn orthonormalize(x: &DenseMatrix) -> f64 {
    let mut secs = Vec::new();
    for _ in 0..3 {
        let mut y = x.clone();
        let t = Instant::now();
        black_box(orthonormalize_columns(&mut y));
        secs.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&secs)
}

/// `DenseMatrix::gram_tn` (`xᵀx`): GFLOP/s.
pub fn gram_tn(x: &DenseMatrix) -> f64 {
    let (secs, _) = time_median(5, || x.gram_tn(x));
    gemm_flops(x.cols(), x.cols(), x.rows()) as f64 / secs / 1e9
}

/// The packed GEMM on the same product as [`gram_tn`] (`xᵀ` is formed
/// once, outside the timing): GFLOP/s.
pub fn packed_gemm(x: &DenseMatrix) -> f64 {
    let (n, k) = (x.rows(), x.cols());
    let xt = x.transpose();
    let mut out = vec![0.0f32; k * k];
    let (secs, _) = time_median(5, || {
        out.fill(0.0);
        gemm(k, k, n, xt.as_slice(), x.as_slice(), &mut out);
    });
    gemm_flops(k, k, n) as f64 / secs / 1e9
}

/// STREAM-style copy between two `array_bytes` arrays, split into one
/// contiguous chunk per thread on plain scoped threads (so the roof does
/// not depend on the runtime under test). GB/s counts the bytes read plus
/// the bytes written, as STREAM does.
pub fn stream_copy(array_bytes: usize, threads: usize) -> f64 {
    let len = array_bytes / 8;
    let src: Vec<u64> = (0..len as u64).collect();
    let mut dst = vec![0u64; len];
    let chunk = len.div_ceil(threads.max(1));
    let mut copy = || {
        std::thread::scope(|s| {
            for (d, c) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
                s.spawn(move || d.copy_from_slice(c));
            }
        });
    };
    copy(); // faults the destination pages in
    let (secs, _) = time_median(3, &mut copy);
    black_box(&dst);
    2.0 * (len * 8) as f64 / secs / 1e9
}

/// One empty parallel region of the vendored runtime: microseconds.
pub fn parallel_region(threads: usize) -> f64 {
    let (secs, _) = time_median(200, || {
        (0..threads.max(2)).into_par_iter().for_each(|i| {
            black_box(i);
        })
    });
    secs * 1e6
}

/// `DenseMatrix::axpy` on `n × d` against a plain sequential loop over
/// the same data: `(parallel ms, sequential ms)`.
pub fn axpy(n: usize, d: usize) -> (f64, f64) {
    let mut y = DenseMatrix::gaussian(n, d, 1);
    let x = DenseMatrix::gaussian(n, d, 2);
    let (par, _) = time_median(15, || y.axpy(0.5, &x));
    let (seq, _) = time_median(15, || {
        for (a, &b) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *a += 0.5 * b;
        }
    });
    black_box(&y);
    (par * 1e3, seq * 1e3)
}

/// LNV2 encode of `g`: `(seconds, container bits per stored arc)`.
pub fn v2_encode(g: &Graph) -> (f64, f64) {
    let (secs, bytes) = time_median(3, || encode_container(g, CODEC, DEFAULT_BLOCK_SIZE));
    (secs, bytes.len() as f64 * 8.0 / g.num_arcs().max(1) as f64)
}

/// `V2Graph::open_mmap` of the container at `path`: seconds.
pub fn v2_open(path: &Path) -> Result<f64, String> {
    let mut secs = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let g = V2Graph::open_mmap(path).map_err(|e| format!("open {}: {e}", path.display()))?;
        secs.push(t.elapsed().as_secs_f64());
        black_box(g);
    }
    Ok(crate::stats::median(&secs))
}

/// Timed `ArtifactStore` calls on a fresh store in `dir`.
pub struct ArtifactTimes {
    /// Saving the NetMF matrix and the initial embedding.
    pub save_s: f64,
    /// Bytes on disk after the saves (payloads plus manifest).
    pub bytes_written: u64,
    /// `inspect()`: manifest read plus checksum of every payload.
    pub inspect_s: f64,
    /// Loading (and validating) both payloads back.
    pub load_s: f64,
    /// Whether inspection found both payloads valid and both loads
    /// returned the saved values bit for bit.
    pub roundtrip_ok: bool,
}

/// Saves, inspects and loads the NetMF matrix and initial embedding.
pub fn artifacts(
    dir: &Path,
    netmf: &CsrMatrix,
    initial: &DenseMatrix,
) -> Result<ArtifactTimes, String> {
    let store = ArtifactStore::create(dir, 0x5EED).map_err(|e| e.to_string())?;
    let (save_s, saved) =
        time_median(3, || store.save_netmf(netmf).and_then(|()| store.save_initial(initial)));
    saved.map_err(|e| e.to_string())?;
    let mut bytes_written = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        bytes_written += entry.and_then(|e| e.metadata()).map_err(|e| e.to_string())?.len();
    }
    let (inspect_s, inspection) = time_median(3, || store.inspect());
    let (load_s, loaded) =
        time_median(3, || store.load_netmf().and_then(|m| Ok((m, store.load_initial()?))));
    let (m, x) = loaded.map_err(|e| e.to_string())?;
    let roundtrip_ok = inspection.netmf == ArtifactState::Valid
        && inspection.initial == ArtifactState::Valid
        && m == *netmf
        && bits_equal(&x, initial);
    Ok(ArtifactTimes { save_s, bytes_written, inspect_s, load_s, roundtrip_ok })
}

/// Aggregated `(row, col, weight)` sparsifier entries.
pub type Coo = Vec<(u32, u32, f32)>;

/// Samples into one global `ConcurrentEdgeTable`, sized the way the
/// engine sizes it on its checkpointing path (expected kept samples,
/// capped by the `n·C·T²` neighbourhood bound), so the table's resize
/// count is visible. Returns the drained COO and the number of resizes.
pub fn global_table_sample<G: GraphOps>(
    g: &G,
    cfg: &SamplerConfig,
) -> Result<(Coo, usize), String> {
    let c = cfg.c_factor.unwrap_or_else(|| default_c(g.num_vertices()));
    let kept = if cfg.downsample {
        expected_kept_samples(g, cfg.samples, c, cfg.prob)
    } else {
        cfg.samples as f64
    };
    let bound = g.num_vertices() as f64 * c * (cfg.window * cfg.window) as f64;
    let table = ConcurrentEdgeTable::with_expected((2.0 * kept).min(bound).max(1024.0) as usize);
    sample_into(g, cfg, &table).map_err(|e| e.to_string())?;
    let resizes = table.resize_count();
    Ok((table.into_coo(), resizes))
}

/// Whether two matrices have the same shape and bit-identical entries.
pub fn bits_equal(a: &DenseMatrix, b: &DenseMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}
