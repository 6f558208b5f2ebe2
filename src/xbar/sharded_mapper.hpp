// Sharded matrix-to-tile mapping: partitioning one matmul across parallel
// crossbar shards (chiplets / banks).
//
// The monolithic Mapper answers "how does an M x N matrix land on ONE tile
// grid". The ShardedMapper splits the operand over K shards on one rk x ck
// block grid (rk * ck = K): rk row blocks of the inner dimension, whose
// partial sums need an ADD-reduce, by ck column blocks of the output, which
// need only a gather. The three policies are three grid shapes: kRow is
// K x 1, kColumn is 1 x K and kBlockCyclic the near-square factorisation.
// The plan describes the merge the composition layer
// (core::ShardedMatmulEngine) prices: the width of every link hop and the
// log-depth of the reduction tree. This is the same partition-then-reduce
// structure cuBERT uses across GPU streams, applied to crossbar tile grids.
//
// A plan is a value: it holds the grid and the operand shape and visits its
// slices and hop widths without storing them, so building one allocates
// nothing. K = 1 is the 1 x 1 grid: one slice, no hops, zero merge levels.
#pragma once

#include <cstdint>

namespace star::xbar {

/// How the operand is split across shards.
enum class ShardPolicy {
  kRow,          ///< split the inner dim M: shards hold weight row bands,
                 ///< every output needs a partial-sum ADD-reduce
  kColumn,       ///< split the output dim N: shards own disjoint output
                 ///< columns, the merge is a gather (no adds)
  kBlockCyclic,  ///< split both dims on an rk x ck grid (rk*ck = K, rk the
                 ///< largest divisor of K <= sqrt(K)): ADD-reduce inside
                 ///< each column group, gather across groups
};

[[nodiscard]] const char* to_string(ShardPolicy policy);

/// Chunk `i` of `total` split near-equally into `parts`: the first
/// total % parts chunks get one extra element, so sizes differ by at most 1
/// and sum back to `total` exactly.
[[nodiscard]] constexpr std::int64_t chunk(std::int64_t total, int parts, int i) {
  return total / parts + (i < total % parts ? 1 : 0);
}

/// The partition of one m x n matmul on an rk x ck shard grid plus the
/// merge shape the interconnect model prices.
struct ShardPlan {
  std::int64_t m = 0;
  std::int64_t n = 0;
  int rk = 1;  ///< row blocks (partial sums of the same outputs)
  int ck = 1;  ///< column blocks (disjoint outputs)
  /// Depth of the inter-shard merge tree: ceil(log2 K), 0 when K == 1.
  int merge_levels = 0;

  /// Calls f(m_i, n_j) for every shard's slice, row-major over (row block,
  /// column block). The slice dims sum back to m and n.
  template <class F>
  void for_each_slice(F&& f) const {
    for (int i = 0; i < rk; ++i) {
      const std::int64_t mi = chunk(m, rk, i);
      for (int j = 0; j < ck; ++j) {
        f(mi, chunk(n, ck, j));
      }
    }
  }

  /// Calls f(width) for every link hop, in output elements: the rk - 1
  /// ADD-reduce hops of each column group, then the gathers of column
  /// groups 1..ck-1 to the root. No hop when K == 1.
  template <class F>
  void for_each_hop_width(F&& f) const {
    for (int j = 0; j < ck; ++j) {
      for (int h = 0; h < rk - 1; ++h) {
        f(chunk(n, ck, j));
      }
    }
    for (int j = 1; j < ck; ++j) {
      f(chunk(n, ck, j));
    }
  }

  /// Widest single hop (sets the per-row link streaming time; parallel
  /// tree links pipeline, so only the widest hop paces a row). 0 if K == 1.
  [[nodiscard]] std::int64_t max_hop_width() const;
};

class ShardedMapper {
 public:
  /// The rk x ck grid of `num_shards` shards under `policy`.
  ShardedMapper(int num_shards, ShardPolicy policy);

  /// The partition of an m x n matmul. Throws InvalidArgument unless every
  /// shard gets a non-empty slice: rk <= m and ck <= n.
  [[nodiscard]] ShardPlan plan_for(std::int64_t m, std::int64_t n) const;

 private:
  int rk_;
  int ck_;
  int merge_levels_;
};

}  // namespace star::xbar
