// Memoized analytic cost cache for the serve hot path.
//
// Steady-state serving asks the analytic model the SAME question millions
// of times: the cost of one attention layer at one sequence length. Its one
// client, core::BatchEncoderSim, fixes every other input of that cost at
// construction (StarConfig, SystemOverheads, BertConfig, the provisioned
// shard count, one layer), so the length is the whole key. CostCache turns
// the recomputation into an O(1) table hit: a lookup by `seq_len` returns
// the memoized pure-compute AttentionRunResult, and the caller composes any
// residency programming charge on top afterwards — the exact addition order
// the uncached path used, so warm results are bit-identical by
// construction.
//
// The cached VALUE is the pure steady-state record: residency never
// changes it, only the composition the caller adds after the lookup. So a
// residency flush (ResidencyManager::invalidate_all) needs no cache flush.
// A lookup whose request found every image resident (programming charge ==
// 0, the steady state) hits or populates the table. A cold lookup BYPASSES
// it entirely: it is counted (`bypasses`), computed fresh and never
// inserted — the programming transient depends on partial residency state,
// and the steady state the cache exists for is warm by definition.
// reset_stats() zeroes the ledger without touching entries.
//
// Determinism contract: lookups are pure — a hit returns a copy of exactly
// what the miss path computed, so cached serving is bit-identical to
// uncached serving for every request. Audit builds (-DSTAR_AUDIT=ON or
// Debug) PROVE that on every hit: the compute callback is re-run and
// STAR_CONTRACT compares the cached record bit-for-bit against the fresh
// one. The hit/miss ledger obeys lookups == hits + misses + bypasses
// (audit_cost_ledger), and miss-side compute runs under the cache lock so
// the miss count equals the number of distinct warm lengths regardless of
// thread interleaving.
//
// Threading: internally synchronized; any number of scheduler workers may
// look up concurrently (the batcher-pool case tests/test_cost_cache.cpp
// runs under TSan). Compute callbacks must be thread-safe const compute —
// they are invoked under the cache mutex on a miss and outside it for the
// audit recompute — and must not touch the cache or a ResidencyManager
// themselves (acquire residency BEFORE the lookup; that side effect is the
// caller's, not the cache's).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "core/accelerator.hpp"
#include "util/contract.hpp"

namespace star::core {

/// The cache's hit/miss ledger. Conservation law (audited):
/// lookups == hits + misses + bypasses.
struct CostCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;      ///< warm lookups computed and inserted
  std::uint64_t bypasses = 0;    ///< cold lookups, computed, never stored

  /// hits / lookups (0 before any lookup).
  [[nodiscard]] double hit_rate() const;
};

/// STAR_CONTRACT audit of one ledger's conservation law; a no-op in builds
/// without contracts (contracts_enabled() == false).
void audit_cost_ledger(const CostCacheStats& stats);

/// Bit-for-bit equality of two cost records — the audit comparator. Every
/// double compares by bit pattern (so -0.0 != 0.0 and NaN == same-NaN),
/// exactly the "cached serving is indistinguishable from uncached" claim.
[[nodiscard]] bool bit_identical(const hw::RunReport& a, const hw::RunReport& b);
[[nodiscard]] bool bit_identical(const AttentionRunResult& a,
                                 const AttentionRunResult& b);

class CostCache {
 public:
  /// Return the memoized pure-compute record for `seq_len`, calling
  /// `compute` on a miss (under the lock) or, when `warm` is false, as a
  /// cold bypass. In audit builds a hit re-runs `compute` and
  /// STAR_CONTRACTs bit-identity. Templated on the callable so a
  /// steady-state hit performs no allocation at all (no std::function
  /// wrapper — the hit path is the serve hot path).
  template <typename F>
  [[nodiscard]] AttentionRunResult lookup(std::int64_t seq_len, bool warm,
                                          F&& compute) {
    if (!warm) {
      // Cold transient: counted, computed fresh outside the lock, never
      // memoized (see header comment).
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.lookups;
        ++stats_.bypasses;
      }
      return compute();
    }
    std::unique_lock<std::mutex> lk(mu_);
    ++stats_.lookups;
    if (auto it = table_.find(seq_len); it != table_.end()) {
      ++stats_.hits;
      AttentionRunResult cached = it->second;
      lk.unlock();
      if constexpr (contracts_enabled()) {
        // Audit builds prove the central claim on EVERY hit: re-run the
        // compute (outside the lock) and compare bit-for-bit.
        const AttentionRunResult fresh = compute();
        STAR_CONTRACT(bit_identical(cached, fresh),
                      "cost cache: cached record must be bit-identical to a "
                      "fresh compute");
      }
      return cached;
    }
    // Miss-side compute runs under the lock: the miss count then equals
    // the number of distinct warm lengths for every thread interleaving
    // (and concurrent first lookups of one length can never double-insert).
    // The compute is a pure const read of the model — no lock-order hazard.
    ++stats_.misses;
    AttentionRunResult fresh = compute();
    table_.emplace(seq_len, fresh);
    return fresh;
  }

  /// Zero the ledger (entries stay). The bench scopes measurements with
  /// this.
  void reset_stats();

  [[nodiscard]] CostCacheStats stats() const;
  /// Memoized lengths.
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::int64_t, AttentionRunResult> table_;
  CostCacheStats stats_;
};

}  // namespace star::core
