#include "xbar/residency.hpp"

#include "util/contract.hpp"
#include "util/status.hpp"

namespace star::xbar {

void audit_ledger(const ResidencyStats& stats) {
  STAR_CONTRACT(stats.hits + stats.misses == stats.lookups,
                "residency ledger: hits + misses must equal lookups");
  STAR_CONTRACT(stats.lut_hits + stats.weight_hits == stats.hits,
                "residency ledger: per-kind hits must partition total hits");
  STAR_CONTRACT(stats.lut_misses + stats.weight_misses == stats.misses,
                "residency ledger: per-kind misses must partition total misses");
}

ImageKey weight_image_key(std::uint64_t tensor_id) {
  return ImageKey{ImageKind::kWeight, tensor_id};
}

ImageKey lut_image_key(const fxp::QFormat& fmt) {
  fmt.validate();
  const std::uint64_t packed = (static_cast<std::uint64_t>(fmt.is_signed) << 16) |
                               (static_cast<std::uint64_t>(fmt.int_bits) << 8) |
                               static_cast<std::uint64_t>(fmt.frac_bits);
  return ImageKey{ImageKind::kLutImage, packed};
}

ResidencyManager::ResidencyManager(std::size_t capacity) : capacity_(capacity) {}

void ResidencyManager::touch_locked(std::list<ImageKey>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

std::uint64_t ResidencyManager::insert_and_evict_locked(const ImageKey& key) {
  lru_.push_front(key);
  index_[key] = lru_.begin();
  std::uint64_t evicted = 0;
  if (capacity_ > 0) {
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back());
      lru_.pop_back();
      ++evicted;
    }
  }
  return evicted;
}

ResidencyOutcome ResidencyManager::acquire(const ImageKey& key,
                                           const hw::ProgramCost& miss_cost) {
  return acquire(key, [&miss_cost] { return miss_cost; });
}

ResidencyOutcome ResidencyManager::acquire(
    const ImageKey& key, const std::function<hw::ProgramCost()>& miss_cost) {
  std::lock_guard<std::mutex> lk(mu_);
  ++stats_.lookups;
  const bool is_lut = key.kind == ImageKind::kLutImage;
  ResidencyOutcome out;
  if (const auto it = index_.find(key); it != index_.end()) {
    touch_locked(it->second);
    ++stats_.hits;
    (is_lut ? stats_.lut_hits : stats_.weight_hits) += 1;
    out.hit = true;
    return out;
  }
  ++stats_.misses;
  (is_lut ? stats_.lut_misses : stats_.weight_misses) += 1;
  out.charged = miss_cost();
  stats_.programming += out.charged;
  out.evictions = insert_and_evict_locked(key);
  stats_.evictions += out.evictions;
  // Cache-structure invariants after every install: the LRU list and the
  // index describe the same image set, within the configured fabric size.
  STAR_CONTRACT(index_.size() == lru_.size(),
                "residency cache: index and LRU list diverged");
  STAR_CONTRACT(capacity_ == 0 || index_.size() <= capacity_,
                "residency cache: resident images exceed fabric capacity");
  return out;
}

void ResidencyManager::install(const ImageKey& key) {
  std::lock_guard<std::mutex> lk(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    touch_locked(it->second);
    return;
  }
  // Not a lookup and never charged, but evictions are real either way.
  stats_.evictions += insert_and_evict_locked(key);
}

bool ResidencyManager::resident(const ImageKey& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.contains(key);
}

void ResidencyManager::invalidate_all() {
  std::lock_guard<std::mutex> lk(mu_);
  lru_.clear();
  index_.clear();
}

std::size_t ResidencyManager::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.size();
}

ResidencyStats ResidencyManager::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  audit_ledger(stats_);
  return stats_;
}

}  // namespace star::xbar
