#include "xbar/sharded_mapper.hpp"

#include <algorithm>

#include "util/math.hpp"
#include "util/status.hpp"

namespace star::xbar {

namespace {

/// Largest divisor of k that is <= sqrt(k) — the row-block count of the
/// kBlockCyclic grid (ck = k / rk >= rk). Prime k degenerates to 1 x k,
/// i.e. a pure column split.
int block_rows_for(int k) {
  int best = 1;
  for (int d = 1; static_cast<std::int64_t>(d) * d <= k; ++d) {
    if (k % d == 0) {
      best = d;
    }
  }
  return best;
}

/// Row blocks rk of the grid K shards form under `policy` (ck = K / rk).
int grid_rows(int num_shards, ShardPolicy policy) {
  require(num_shards >= 1, "ShardedMapper: num_shards must be >= 1");
  return policy == ShardPolicy::kRow      ? num_shards
         : policy == ShardPolicy::kColumn ? 1
                                          : block_rows_for(num_shards);
}

}  // namespace

const char* to_string(ShardPolicy policy) {
  switch (policy) {
    case ShardPolicy::kRow:
      return "row";
    case ShardPolicy::kColumn:
      return "column";
    case ShardPolicy::kBlockCyclic:
      return "block-cyclic";
  }
  return "?";
}

std::int64_t ShardPlan::max_hop_width() const {
  std::int64_t w = 0;
  for_each_hop_width([&](std::int64_t h) { w = std::max(w, h); });
  return w;
}

ShardedMapper::ShardedMapper(int num_shards, ShardPolicy policy)
    : rk_(grid_rows(num_shards, policy)),
      ck_(num_shards / rk_),
      // bits_for(1) is 1, so the single shard's empty merge stays explicit.
      merge_levels_(num_shards == 1 ? 0
                                    : bits_for(static_cast<std::uint64_t>(num_shards))) {}

// STAR_HOT
ShardPlan ShardedMapper::plan_for(std::int64_t m, std::int64_t n) const {
  require(m >= 1 && n >= 1, "ShardedMapper::plan_for: matrix dims must be >= 1");
  require(rk_ <= m && ck_ <= n,
          "ShardedMapper: the shard grid exceeds the matrix "
          "(rk <= m and ck <= n required: every shard a non-empty slice)");
  return ShardPlan{m, n, rk_, ck_, merge_levels_};
}

}  // namespace star::xbar
