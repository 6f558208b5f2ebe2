// Memoized analytic cost cache for the serve hot path.
//
// Steady-state serving asks the analytic models the SAME question millions
// of times: the cost of one request is a pure function of (model config,
// seq_len, num_layers, num_shards, residency warm/cold state), yet every
// request used to re-run MatmulEngine::stream_cost, the SoftmaxEngine
// preload math and the ShardedMatmulEngine merge composition from scratch.
// CostCache turns that recomputation into an O(1) table hit: a lookup keyed
// by a CostKey returns the memoized pure-compute AttentionRunResult /
// EncoderRunResult, and the caller composes any residency programming
// charge on top afterwards — the exact addition order the uncached path
// used, so warm results are bit-identical by construction.
//
// Key semantics (the invalidation rule):
//   * The cached VALUE is the pure steady-state record — residency never
//     changes it, only the composition the caller adds after the lookup.
//   * `residency_warm` is part of the key. Warm lookups (every image the
//     request needed was already resident, programming charge == 0) hit or
//     populate the table. Cold lookups BYPASS it entirely: they are counted
//     (`bypasses`), computed fresh and never inserted — the programming
//     transient depends on partial residency state one bit cannot encode,
//     and the steady state the cache exists for is warm by definition.
//   * `invalidate()` drops every entry (pair it with
//     ResidencyManager::invalidate_all() or any config swap); `reset_stats()`
//     zeroes the ledger without touching entries.
//
// Determinism contract: lookups are pure — a hit returns a copy of exactly
// what the miss path computed, so cached serving is bit-identical to
// uncached serving for every request. Audit builds (-DSTAR_AUDIT=ON or
// Debug) PROVE that on every hit: the compute callback is re-run and
// STAR_CONTRACT compares the cached record bit-for-bit against the fresh
// one. The hit/miss ledger obeys lookups == hits + misses + bypasses
// (audit_cost_ledger), and miss-side compute runs under the cache lock so
// the miss count equals the number of distinct warm keys regardless of
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
#include "core/encoder_model.hpp"
#include "nn/bert.hpp"
#include "util/contract.hpp"

namespace star::core {

/// The full analytic-cost domain: everything the composed cost records are
/// a function of. `fingerprint` condenses the model identity
/// (StarConfig + SystemOverheads + BertConfig, see cost_fingerprint());
/// the rest is the per-request shape plus the residency warm/cold bit
/// documented in the file header.
struct CostKey {
  std::uint64_t fingerprint = 0;
  std::int64_t seq_len = 0;
  std::int64_t num_layers = 1;
  std::int64_t num_shards = 1;
  /// 1 = every image this request needed was resident (zero programming
  /// charge — the steady state); 0 = some image had to be programmed.
  std::uint8_t residency_warm = 1;

  friend bool operator==(const CostKey&, const CostKey&) = default;
};

/// splitmix64-finalized field mix, the ImageKeyHash recipe: consecutive
/// (seq_len, shape) keys land far apart in the table.
struct CostKeyHash {
  [[nodiscard]] std::size_t operator()(const CostKey& k) const;
};

/// Condense one model identity into the CostKey::fingerprint field: every
/// field of the config / overheads / workload that the analytic cost
/// records depend on. Two models with equal fingerprints produce equal
/// cost records (the audit recompute under -DSTAR_AUDIT=ON would catch a
/// collision that broke this, so the hash is belt-and-braces — each model
/// instance owns its own cache anyway).
[[nodiscard]] std::uint64_t cost_fingerprint(const StarConfig& cfg,
                                             const SystemOverheads& overheads,
                                             const nn::BertConfig& bert);

/// The cache's hit/miss ledger. Conservation law (audited):
/// lookups == hits + misses + bypasses.
struct CostCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;      ///< warm-key lookups computed and inserted
  std::uint64_t bypasses = 0;    ///< cold-key lookups, computed, never stored
  std::uint64_t invalidations = 0;  ///< invalidate() calls

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
[[nodiscard]] bool bit_identical(const EncoderRunResult& a,
                                 const EncoderRunResult& b);

class CostCache {
 public:
  /// Return the memoized pure-compute record for `key`, calling `compute`
  /// on a miss (under the lock) or a cold-key bypass. In audit builds a
  /// hit re-runs `compute` and STAR_CONTRACTs bit-identity. Templated on
  /// the callable so a steady-state hit performs no allocation at all
  /// (no std::function wrapper — the hit path is the serve hot path).
  template <typename F>
  [[nodiscard]] AttentionRunResult attention(const CostKey& key, F&& compute) {
    return lookup<AttentionRunResult>(attention_, key, compute);
  }
  template <typename F>
  [[nodiscard]] EncoderRunResult encoder(const CostKey& key, F&& compute) {
    return lookup<EncoderRunResult>(encoder_, key, compute);
  }

  /// Drop every entry (counts one invalidation); the ledger counters keep
  /// accumulating across the flush.
  void invalidate();
  /// Zero the ledger (entries stay). The bench scopes measurements with
  /// this.
  void reset_stats();

  [[nodiscard]] CostCacheStats stats() const;
  /// Entries across both tables.
  [[nodiscard]] std::size_t size() const;

 private:
  template <typename Result, typename Map, typename F>
  Result lookup(Map& map, const CostKey& key, F& compute) {
    if (key.residency_warm == 0) {
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
    if (auto it = map.find(key); it != map.end()) {
      ++stats_.hits;
      Result cached = it->second;
      lk.unlock();
      if constexpr (contracts_enabled()) {
        // Audit builds prove the central claim on EVERY hit: re-run the
        // compute (outside the lock) and compare bit-for-bit.
        const Result fresh = compute();
        STAR_CONTRACT(bit_identical(cached, fresh),
                      "cost cache: cached record must be bit-identical to a "
                      "fresh compute");
      }
      return cached;
    }
    // Miss-side compute runs under the lock: the miss count then equals
    // the number of distinct warm keys for every thread interleaving (and
    // concurrent first lookups of one key can never double-insert). The
    // compute is a pure const read of the model — no lock-order hazard.
    ++stats_.misses;
    Result fresh = compute();
    map.emplace(key, fresh);
    return fresh;
  }

  mutable std::mutex mu_;
  std::unordered_map<CostKey, AttentionRunResult, CostKeyHash> attention_;
  std::unordered_map<CostKey, EncoderRunResult, CostKeyHash> encoder_;
  CostCacheStats stats_;
};

}  // namespace star::core
