//! The three workloads: what each embeds, with which configuration, and
//! how its inputs are generated from the workload seed. Every workload
//! holds out some of its edges for link prediction and carries one class
//! per vertex for node classification, so each run can score its own
//! embedding.

use lightne::core::LightNeConfig;
use lightne::eval::linkpred::split_edges;
use lightne::gen::profiles::Profile;
use lightne::gen::Labels;
use lightne::graph::{Graph, GraphOps, VertexId};
use lightne::utils::checksum::fnv1a64;

/// The named workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// OAG (labelled SBM, 19 classes), LightNE-Small sampling, dim 128,
    /// propagation on, in-memory CSR: rSVD and propagation dominate.
    Factorize,
    /// Hyperlink-PLD (R-MAT), heavy sampling, dim 32, propagation off:
    /// sparsify and the NetMF drain dominate.
    Sample,
    /// The `factorize` graph as an mmap-opened LNV2 container, one
    /// checkpointing embed and one resume from its artifacts.
    Durable,
}

/// Train ratio of the node-classification split.
pub const TRAIN_RATIO: f64 = 0.1;
/// Fixed seed of the classification split (independent of the workload
/// seed, so `micro_f1` depends only on the embedding).
pub const CLASSIFY_SEED: u64 = 2021;
/// Corrupted edges ranked against each held-out edge.
pub const LINK_NEGATIVES: usize = 100;
/// Fixed seed of the negative draws in `rank_held_out`.
pub const RANK_SEED: u64 = 2021;
/// Salt separating the edge-split stream from the generator stream.
const SPLIT_SALT: u64 = 0x5EED_5EED;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Factorize, Workload::Sample, Workload::Durable];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Factorize => "factorize",
            Workload::Sample => "sample",
            Workload::Durable => "durable",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fraction of edges held out for link prediction: 1% on the
    /// link-prediction profile (the paper's §5.3 protocol), 5% on the
    /// smaller OAG graph so the held-out set is large enough for a steady
    /// MRR.
    pub fn holdout(self) -> f64 {
        match self {
            Workload::Factorize | Workload::Durable => 0.05,
            Workload::Sample => 0.01,
        }
    }

    /// Generator profile and scale. `durable` embeds the `factorize` graph.
    pub fn profile(self) -> (Profile, f64) {
        match self {
            Workload::Factorize | Workload::Durable => (Profile::Oag, 1e-4),
            Workload::Sample => (Profile::HyperlinkPld, 2e-4),
        }
    }

    /// The pipeline configuration; the embed seed is the workload seed.
    pub fn config(self, seed: u64) -> LightNeConfig {
        let base = LightNeConfig { seed, dim: 128, ..LightNeConfig::default() };
        match self {
            Workload::Factorize => LightNeConfig { sample_ratio: 0.1, ..base },
            Workload::Sample => {
                LightNeConfig { sample_ratio: 5.0, dim: 32, propagation: None, ..base }
            }
            Workload::Durable => LightNeConfig { sample_ratio: 1.0, propagation: None, ..base },
        }
    }

    /// Quality floors `(micro_f1 %, link MRR)`: a run whose embedding
    /// scores below either counts one failed operation. Each floor sits
    /// 10–15% below the lowest value seen over fifteen seeds when the
    /// benchmark was defined (factorize 68.0 / 0.130, sample 34.2 / 0.203,
    /// durable 46.1 / 0.150).
    pub fn quality_floors(self) -> (f64, f64) {
        match self {
            Workload::Factorize => (60.0, 0.11),
            Workload::Sample => (30.0, 0.18),
            Workload::Durable => (40.0, 0.13),
        }
    }
}

/// Everything a workload embeds and scores, generated from its seed.
#[derive(Debug)]
pub struct Inputs {
    /// The graph to embed: the generated graph minus the held-out edges.
    pub graph: Graph,
    /// Ground-truth classes of every vertex.
    pub labels: Labels,
    /// Held-out positive edges for link prediction.
    pub held_out: Vec<(VertexId, VertexId)>,
}

/// Generates a workload's inputs. Deterministic in `seed`.
pub fn generate(w: Workload, seed: u64) -> Inputs {
    let (profile, scale) = w.profile();
    let data = profile.generate(scale, seed);
    let n = data.graph.num_vertices();
    let labels = data.labels.unwrap_or_else(|| rmat_block_labels(n));
    let (graph, held_out) = split_edges(&data.graph, w.holdout(), seed ^ SPLIT_SALT);
    Inputs { graph, labels, held_out }
}

/// Ground truth for the label-free R-MAT profile: the generator's
/// top-level block of each vertex, i.e. the two most significant bits of
/// its id (four classes). At every recursion level R-MAT keeps an edge
/// inside one half with probability `a + d` (0.62 for the Graph500
/// parameters), so block membership is planted structure an embedding
/// recovers above chance.
fn rmat_block_labels(n: usize) -> Labels {
    let shift = n.next_power_of_two().trailing_zeros().saturating_sub(2);
    Labels::new(4, (0..n).map(|v| vec![((v >> shift) & 3) as u16]).collect())
}

/// Digest of a graph's adjacency (vertex count, then every neighbour
/// list in vertex order), equal across storage backends.
pub fn graph_digest<G: GraphOps>(g: &G) -> u64 {
    let mut bytes = Vec::with_capacity(8 + 4 * g.num_arcs());
    bytes.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    for u in 0..g.num_vertices() as VertexId {
        g.for_each_neighbor(u, &mut |v| bytes.extend_from_slice(&v.to_le_bytes()));
    }
    fnv1a64(&bytes)
}

/// Digest of a workload's inputs (graph, labels and held-out edges).
pub fn inputs_digest(inputs: &Inputs) -> u64 {
    let mut text = format!("{:016x}", graph_digest(&inputs.graph));
    for v in 0..inputs.labels.num_vertices() {
        text.push_str(&format!(";{:?}", inputs.labels.of(v)));
    }
    for (u, v) in &inputs.held_out {
        text.push_str(&format!(";{u}-{v}"));
    }
    fnv1a64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for w in Workload::ALL {
            let a = inputs_digest(&generate(w, 11));
            let b = inputs_digest(&generate(w, 11));
            let c = inputs_digest(&generate(w, 12));
            assert_eq!(a, b, "{}: same seed, different inputs", w.name());
            assert_ne!(a, c, "{}: seed does not reach the inputs", w.name());
        }
    }

    #[test]
    fn workload_shapes() {
        let f = generate(Workload::Factorize, 1);
        assert_eq!(f.labels.num_labels(), 19);
        assert!(!f.held_out.is_empty());
        let s = generate(Workload::Sample, 1);
        assert_eq!(s.labels.num_labels(), 4);
        assert_eq!(s.labels.num_vertices(), s.graph.num_vertices());
        // `durable` embeds exactly the `factorize` graph.
        let d = generate(Workload::Durable, 1);
        assert_eq!(graph_digest(&d.graph), graph_digest(&f.graph));
        assert!(Workload::Sample.config(1).propagation.is_none());
        assert!(Workload::Factorize.config(1).propagation.is_some());
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
