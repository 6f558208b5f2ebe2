#include "serve/length_buckets.hpp"

#include <limits>

#include "util/status.hpp"

namespace star::serve {

void LengthBucketing::validate() const {
  std::int64_t prev = 1;
  for (const LengthBucket& b : buckets) {
    require(b.edge >= 2, "LengthBucketing: bucket edges must be >= 2");
    require(b.edge > prev,
            "LengthBucketing: bucket edges must be strictly increasing");
    require(b.max_wait_ticks >= -1 &&
                b.max_wait_ticks <=
                    std::int64_t{std::numeric_limits<std::uint32_t>::max()},
            "LengthBucketing: max_wait_ticks must be in [-1, 2^32 - 1] "
            "(-1 = inherit)");
    prev = b.edge;
  }
}

std::size_t LengthBucketing::bucket_of(std::int64_t seq_len) const {
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (seq_len <= buckets[i].edge) {
      return i;
    }
  }
  return buckets.size();  // overflow: longer than every edge
}

std::int64_t LengthBucketing::padded_len(std::size_t queue,
                                         std::int64_t batch_max_len) const {
  return pads_to_batch_max(queue) ? batch_max_len : buckets[queue].edge;
}

std::int64_t LengthBucketing::edge_of(std::size_t queue) const {
  return pads_to_batch_max(queue) ? 0 : buckets[queue].edge;
}

std::size_t LengthBucketing::max_batch_for(std::size_t queue,
                                           std::size_t global_max_batch) const {
  if (pads_to_batch_max(queue) || buckets[queue].max_batch == 0) {
    return global_max_batch;
  }
  return buckets[queue].max_batch;
}

std::uint32_t LengthBucketing::max_wait_for(std::size_t queue,
                                            std::uint32_t global_wait) const {
  if (pads_to_batch_max(queue) || buckets[queue].max_wait_ticks < 0) {
    return global_wait;
  }
  return static_cast<std::uint32_t>(buckets[queue].max_wait_ticks);
}

LengthBucketing LengthBucketing::pad_to_max() { return LengthBucketing{}; }

LengthBucketing LengthBucketing::bucketed(
    const std::vector<std::int64_t>& edges) {
  LengthBucketing b;
  b.buckets.reserve(edges.size());
  for (const std::int64_t e : edges) {
    b.buckets.push_back(LengthBucket{e});
  }
  b.validate();
  return b;
}

}  // namespace star::serve
