// Length-bucketed dynamic batching configuration.
//
// Real traffic is a length distribution (workload::LengthHistogram), but a
// formed batch executes as a rectangle: every slot is billed at the same
// padded length. The batcher's padding rule is what this file configures,
// and bucketing is on exactly when the bucket list is non-empty:
//
//   * no buckets (the default, pad-to-max): one queue; a formed batch pads
//     every request to the LONGEST request in that batch.
//   * buckets: requests are partitioned by length into buckets with
//     configurable upper edges; each bucket is its own FIFO queue with its
//     own (max_batch, max_wait_ticks) coalescing policy, and a batch formed
//     from bucket i pads every request to bucket i's edge. Requests longer
//     than the last edge land in an implicit OVERFLOW bucket that pads to
//     its own batch max (the pad-to-max rule), so no admissible length is
//     ever rejected by bucketing. With no buckets, that overflow queue is
//     the only one: pad-to-max is the empty bucket list, accounting
//     included.
//
// Padding is SCHEDULING/ACCOUNTING-ONLY: a request always computes at its
// true length (padded slots never execute), so the payload of a request is
// identical under every bucket-edge choice — the invariant
// tests/test_length_bucketing.cpp locks down bit-exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace star::serve {

/// One length bucket: requests with seq_len <= edge (and above the
/// previous bucket's edge) queue and batch together, padded to `edge`.
struct LengthBucket {
  /// Upper bound (inclusive) on the sequence lengths of this bucket, and
  /// the padded length of every batch it forms. Must be >= 2 and strictly
  /// increasing across the bucket list.
  std::int64_t edge = 0;
  /// Per-bucket dispatch-size cap; 0 inherits the policy-wide max_batch.
  std::size_t max_batch = 0;
  /// Per-bucket age-out window, at most 2^32 - 1 ticks; -1 inherits the
  /// policy-wide max_wait_ticks. Short buckets usually want a SHORT window
  /// (they fill fast and their requests are latency-cheap), long buckets a
  /// longer one.
  std::int64_t max_wait_ticks = -1;
};

/// The length-dimension configuration of the dynamic batcher. Defaults to
/// pad-to-max (no buckets).
struct LengthBucketing {
  /// Strictly increasing bucket edges. Empty is pad-to-max (see file
  /// comment).
  std::vector<LengthBucket> buckets;

  /// Throws InvalidArgument on non-increasing/undersized edges or
  /// malformed per-bucket overrides.
  void validate() const;

  /// Queues the batcher runs: the buckets plus the overflow queue.
  [[nodiscard]] std::size_t num_queues() const { return buckets.size() + 1; }

  /// Queue index a request of `seq_len` tokens coalesces in: the first
  /// bucket whose edge admits it, else the overflow queue
  /// (num_queues() - 1).
  [[nodiscard]] std::size_t bucket_of(std::int64_t seq_len) const;

  /// True when `queue` pads to its own batch max rather than a fixed edge
  /// (the overflow queue, which is the only queue without buckets).
  [[nodiscard]] bool pads_to_batch_max(std::size_t queue) const {
    return queue >= buckets.size();
  }

  /// The padded slot length of a batch formed from `queue` whose longest
  /// member is `batch_max_len`: the bucket edge, or `batch_max_len` for
  /// the batch-max queues above.
  [[nodiscard]] std::int64_t padded_len(std::size_t queue,
                                        std::int64_t batch_max_len) const;

  /// The bucket edge reported for `queue` in stats (0 = pads to batch max).
  [[nodiscard]] std::int64_t edge_of(std::size_t queue) const;

  /// Effective per-queue coalescing knobs: the bucket's override when set,
  /// else the policy-wide value passed in.
  [[nodiscard]] std::size_t max_batch_for(std::size_t queue,
                                          std::size_t global_max_batch) const;
  [[nodiscard]] std::uint32_t max_wait_for(std::size_t queue,
                                           std::uint32_t global_wait) const;

  /// One queue, pad to batch max (no buckets).
  static LengthBucketing pad_to_max();
  /// Buckets with plain edges (no per-bucket overrides), validated.
  static LengthBucketing bucketed(const std::vector<std::int64_t>& edges);
};

}  // namespace star::serve
