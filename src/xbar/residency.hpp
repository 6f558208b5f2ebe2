// Device residency: which images are programmed on the crossbars right now.
//
// Every crossbar engine in the model implicitly assumed its operands were
// already resident — static weights never paid a write, and the softmax
// engine's dataset-specific CAM/LUT tables (CNEWS/MRPC/CoLA QFormats) were
// preloaded once at construction and never swapped. That misprices exactly
// the traffic the serving layer cares about: multi-dataset and
// model-switching workloads reprogram tiles, and PipeLayer/ReTransformer-
// style RRAM models charge that reprogramming explicitly.
//
// The ResidencyManager closes the gap. It tracks the set of device images
// (weight matrices, LUT/CAM table images) currently programmed on the
// tile/sub-crossbar fabric, keyed by a stable ImageKey. A lookup for a
// resident image is free (the steady-state single-dataset path, which must
// stay bit-identical to the legacy model); a miss charges the caller the
// image's programming cost and installs it, evicting least-recently-used
// images when the configured capacity is exceeded.
//
// Thread safety: all entry points are internally synchronised — one manager
// serves every concurrent request stream of a BatchEncoderSim. Hit/miss
// *totals* are deterministic whenever the capacity is not exceeded (each
// distinct image misses exactly once, no matter how threads interleave);
// under eviction pressure the counts depend on request interleaving, but
// the payload of every request never does — residency is a cost-accounting
// layer and is payload-invariant by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>

#include "fxp/qformat.hpp"
#include "hw/component.hpp"

namespace star::xbar {

/// What kind of device image a key names (split out so serving stats can
/// attribute misses to LUT swaps vs weight uploads).
enum class ImageKind : std::uint8_t {
  kWeight = 0,    ///< a weight matrix programmed over a tile grid
  kLutImage = 1,  ///< a CAM/LUT table set (one softmax QFormat image)
};

/// Stable identity of one programmable device image. Weights are keyed by
/// tensor id (the model assigns them; e.g. layer * slots + slot); LUT/CAM
/// images are keyed by the QFormat they encode, so two requests naming the
/// same dataset format share one image regardless of how they were built.
struct ImageKey {
  ImageKind kind = ImageKind::kWeight;
  std::uint64_t id = 0;

  friend bool operator==(const ImageKey&, const ImageKey&) = default;
};

[[nodiscard]] ImageKey weight_image_key(std::uint64_t tensor_id);
/// Key of the CAM/LUT image for one softmax operand format (packs
/// int_bits/frac_bits/signedness — value-identity, not object identity).
[[nodiscard]] ImageKey lut_image_key(const fxp::QFormat& fmt);

struct ImageKeyHash {
  std::size_t operator()(const ImageKey& k) const {
    // splitmix64-style finalizer over (kind, id).
    std::uint64_t x = k.id * 2u + static_cast<std::uint64_t>(k.kind);
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// What one acquire() did.
struct ResidencyOutcome {
  bool hit = false;
  hw::ProgramCost charged{};     ///< zero on hit; the miss_cost on a miss
  std::uint64_t evictions = 0;   ///< images evicted to make room
};

/// Cumulative accounting since construction.
struct ResidencyStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  // Split by image kind (lookups = lut_* + weight_* sums).
  std::uint64_t lut_hits = 0;
  std::uint64_t lut_misses = 0;
  std::uint64_t weight_hits = 0;
  std::uint64_t weight_misses = 0;
  /// Total programming charged on misses.
  hw::ProgramCost programming{};
};

/// Contract audit of one residency ledger: every lookup was exactly a hit
/// or a miss, and the per-kind (LUT vs weight) splits partition the totals.
/// ResidencyManager::stats() audits its own ledger through this on every
/// read; exposed so tests can prove the contract fires on a forged ledger.
/// A no-op in builds without STAR_CONTRACT (contracts_enabled() == false).
void audit_ledger(const ResidencyStats& stats);

/// LRU cache of programmed device images. `capacity` is the number of
/// images the fabric can hold at once; 0 means unbounded (enough tiles are
/// provisioned for everything ever touched — the legacy assumption).
class ResidencyManager {
 public:
  explicit ResidencyManager(std::size_t capacity = 0);

  /// Look up `key`; on a miss, charge `miss_cost`, install the image and
  /// evict LRU images beyond capacity. Refreshes recency on hits.
  ResidencyOutcome acquire(const ImageKey& key, const hw::ProgramCost& miss_cost);

  /// Same, but the miss bill is priced lazily: `miss_cost` is invoked only
  /// when the image is not resident, so callers whose bills are expensive
  /// to derive (per-format engine sizing, per-shape partitions) pay nothing
  /// on the warm path. The callback runs under the manager's lock and must
  /// not touch the manager.
  ResidencyOutcome acquire(const ImageKey& key,
                           const std::function<hw::ProgramCost()>& miss_cost);

  /// Mark `key` resident without charging or counting a lookup — the
  /// construction-time preload path (model load programs the device before
  /// any request arrives; BatchEncoderSim reports that one-time bill
  /// separately). Still evicts beyond capacity, and those evictions DO
  /// count in stats().evictions.
  void install(const ImageKey& key);

  [[nodiscard]] bool resident(const ImageKey& key) const;
  /// Drop every image (e.g. a power cycle); keeps the stats.
  void invalidate_all();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] ResidencyStats stats() const;

 private:
  void touch_locked(std::list<ImageKey>::iterator it);
  std::uint64_t insert_and_evict_locked(const ImageKey& key);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  /// MRU at the front; map values point into the list.
  std::list<ImageKey> lru_;
  std::unordered_map<ImageKey, std::list<ImageKey>::iterator, ImageKeyHash> index_;
  ResidencyStats stats_;
};

}  // namespace star::xbar
