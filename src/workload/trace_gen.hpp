// Workload generators: synthetic Q/K/V tensors with controlled score
// statistics, and the per-sequence seeds and inputs of a batch.
#pragma once

#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"
#include "workload/dataset_profile.hpp"

namespace star::workload {

/// Synthetic Q/K/V for one attention head such that the score matrix
/// QK^T/sqrt(d_k) has entries of standard deviation ~`score_std`.
struct QkvTriple {
  nn::Tensor q, k, v;
};
QkvTriple random_qkv(std::size_t seq_len, std::size_t d_k, double score_std, Rng& rng);

// --- multi-sequence batches (the BatchScheduler workload) ---
//
// Every sequence gets its own seed, derived up front from the batch seed by
// one sequential pass over a parent stream. Generation and execution of
// sequence i therefore depend only on (seed, i) — never on which thread
// runs it or in what order — which is what makes batched runs bit-identical
// to sequential ones.

/// Per-sequence seeds: seeds[i] fully determines sequence i (empty batch
/// yields an empty vector). The derivation rule is fixed API contract:
/// seeds[i] is the (i+1)-th raw draw of Rng(seed). A closed batch (run_*_one
/// over indices i with sequence_seed(run_seed, i)) and the per-request
/// serving path (serve::StarServer, which uses sequence_seed(request_seed,
/// 0)) derive engine seeds through this one rule, so fault-injection
/// streams stay reproducible across both.
std::vector<std::uint64_t> sequence_seeds(std::size_t batch, std::uint64_t seed);

/// Single-element form of the rule above: the seed of sequence `index` in a
/// batch seeded with `seed` — sequence_seeds(n, seed)[index] for any
/// n > index, computed without materialising the vector (O(index) draws).
std::uint64_t sequence_seed(std::uint64_t seed, std::size_t index);

/// B independent synthetic attention inputs for one head.
std::vector<QkvTriple> qkv_batch(std::size_t batch, std::size_t seq_len,
                                 std::size_t d_k, double score_std,
                                 std::uint64_t seed);

/// B independent encoder-layer inputs (seq_len x d_model embeddings,
/// i.i.d. normal(0, embed_std)).
std::vector<nn::Tensor> embedding_batch(std::size_t batch, std::size_t seq_len,
                                        std::size_t d_model, double embed_std,
                                        std::uint64_t seed);

}  // namespace star::workload
