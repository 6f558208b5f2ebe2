#include "workload/trace_gen.hpp"

#include <cmath>

#include "util/status.hpp"

namespace star::workload {

QkvTriple random_qkv(std::size_t seq_len, std::size_t d_k, double score_std, Rng& rng) {
  require(seq_len >= 1 && d_k >= 1, "random_qkv: dims must be >= 1");
  require(score_std > 0.0, "random_qkv: score_std must be positive");
  // For q, k ~ N(0, s^2) i.i.d., (q . k)/sqrt(d_k) has std ~ s^2 * sqrt(d_k)
  // ... / sqrt(d_k) = s^2. Choose s = sqrt(score_std).
  const double s = std::sqrt(score_std);
  QkvTriple t{nn::Tensor::randn(seq_len, d_k, rng, 0.0, s),
              nn::Tensor::randn(seq_len, d_k, rng, 0.0, s),
              nn::Tensor::randn(seq_len, d_k, rng, 0.0, 1.0)};
  return t;
}

std::vector<std::uint64_t> sequence_seeds(std::size_t batch, std::uint64_t seed) {
  Rng parent(seed);
  std::vector<std::uint64_t> seeds(batch);
  for (auto& s : seeds) {
    s = parent();
  }
  return seeds;
}

std::uint64_t sequence_seed(std::uint64_t seed, std::size_t index) {
  Rng parent(seed);
  std::uint64_t s = 0;
  for (std::size_t i = 0; i <= index; ++i) {
    s = parent();
  }
  return s;
}

std::vector<QkvTriple> qkv_batch(std::size_t batch, std::size_t seq_len,
                                 std::size_t d_k, double score_std,
                                 std::uint64_t seed) {
  const auto seeds = sequence_seeds(batch, seed);
  std::vector<QkvTriple> out;
  out.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    Rng rng(seeds[b]);
    out.push_back(random_qkv(seq_len, d_k, score_std, rng));
  }
  return out;
}

std::vector<nn::Tensor> embedding_batch(std::size_t batch, std::size_t seq_len,
                                        std::size_t d_model, double embed_std,
                                        std::uint64_t seed) {
  require(seq_len >= 1 && d_model >= 1, "embedding_batch: dims must be >= 1");
  require(embed_std > 0.0, "embedding_batch: embed_std must be positive");
  const auto seeds = sequence_seeds(batch, seed);
  std::vector<nn::Tensor> out;
  out.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    Rng rng(seeds[b]);
    out.push_back(nn::Tensor::randn(seq_len, d_model, rng, 0.0, embed_std));
  }
  return out;
}

}  // namespace star::workload
