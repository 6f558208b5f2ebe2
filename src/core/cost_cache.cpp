#include "core/cost_cache.hpp"

#include <bit>

namespace star::core {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(Time a, Time b) { return same_bits(a.as_s(), b.as_s()); }
bool same_bits(Energy a, Energy b) { return same_bits(a.as_J(), b.as_J()); }
bool same_bits(Power a, Power b) { return same_bits(a.as_W(), b.as_W()); }

}  // namespace

double CostCacheStats::hit_rate() const {
  return lookups > 0
             ? static_cast<double>(hits) / static_cast<double>(lookups)
             : 0.0;
}

void audit_cost_ledger(const CostCacheStats& stats) {
  STAR_CONTRACT(stats.lookups == stats.hits + stats.misses + stats.bypasses,
                "cost cache: ledger must conserve lookups == hits + misses "
                "+ bypasses");
}

bool bit_identical(const hw::RunReport& a, const hw::RunReport& b) {
  return a.engine_name == b.engine_name && same_bits(a.total_ops, b.total_ops) &&
         same_bits(a.latency, b.latency) && same_bits(a.energy, b.energy) &&
         same_bits(a.avg_power, b.avg_power);
}

bool bit_identical(const AttentionRunResult& a, const AttentionRunResult& b) {
  return bit_identical(a.report, b.report) && same_bits(a.latency, b.latency) &&
         same_bits(a.energy, b.energy) && same_bits(a.power, b.power) &&
         same_bits(a.softmax_block_latency, b.softmax_block_latency) &&
         same_bits(a.softmax_energy, b.softmax_energy) &&
         same_bits(a.write_energy, b.write_energy) &&
         a.matmul_tiles == b.matmul_tiles &&
         a.softmax_engines == b.softmax_engines &&
         same_bits(a.pipeline_speedup, b.pipeline_speedup) &&
         a.num_shards == b.num_shards &&
         same_bits(a.interconnect_latency, b.interconnect_latency) &&
         same_bits(a.interconnect_energy, b.interconnect_energy);
}

void CostCache::reset_stats() {
  std::lock_guard<std::mutex> lk(mu_);
  stats_ = CostCacheStats{};
}

CostCacheStats CostCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::size_t CostCache::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return table_.size();
}

}  // namespace star::core
