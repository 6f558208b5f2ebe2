// The dynamic batcher's rule, with no threads, no clock and no mutex.
//
// A BatchPolicy owns the batcher's per-bucket FIFO queues and holds the one
// copy of its (max_batch, max_wait, LengthBucketing) rule. StarServer runs
// it under its admission mutex on steady_clock time; simulate_batching runs
// it in virtual ticks. Its output is determined by the calls and the times
// passed in: the same calls at the same instants form the same batches.
//
// Entry is a value, or a pointer-like handle to one, with `id`, `seq_len`
// and `enqueued` (admission time) fields. Time is a time point; a queue's
// age-out window is `tick * max_wait_ticks`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "serve/length_buckets.hpp"
#include "serve/server_stats.hpp"
#include "util/contract.hpp"

namespace star::serve {

template <typename Entry, typename Time>
class BatchPolicy {
 public:
  using Duration = decltype(std::declval<Time>() - std::declval<Time>());
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// What next() found at one instant.
  struct Next {
    std::size_t queue = kNone;  ///< the dispatchable queue, kNone if none is
    std::optional<Time> deadline;  ///< earliest age-out of the other queues
  };

  /// One formed batch.
  struct Formed {
    std::size_t size = 0;
    std::int64_t padded_len = 0;  ///< billed slot width
  };

  /// `bucketing` must be valid and `max_batch` >= 1. Declares the queue
  /// layout to `stats`, which form() bills and which outlives the policy.
  BatchPolicy(const LengthBucketing& bucketing, std::size_t max_batch,
              std::uint32_t max_wait_ticks, Duration tick, StatsAccumulator& stats)
      : bucketing_(bucketing), stats_(stats), queues_(bucketing.num_queues()) {
    std::vector<std::int64_t> edges;
    edges.reserve(queues_.size());
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      queues_[q].cap = bucketing_.max_batch_for(q, max_batch);
      queues_[q].wait = tick * bucketing_.max_wait_for(q, max_wait_ticks);
      edges.push_back(bucketing_.edge_of(q));
    }
    stats_.configure_buckets(std::move(edges));
  }

  /// Stamp the admission id (the order "oldest" refers to) and queue `e`
  /// in the bucket of its seq_len.
  void admit(Entry e) {
    auto& f = fields(e);
    f.id = next_id_++;
    queues_[bucketing_.bucket_of(f.seq_len)].fifo.push_back(std::move(e));
    ++size_;
  }

  /// A queue is dispatchable once it holds its effective max_batch, once
  /// its head has waited its effective max_wait, or when `force` (shutdown,
  /// a full kBlock admission bound) makes every non-empty queue so. Among
  /// dispatchable queues the oldest head wins.
  [[nodiscard]] Next next(Time now, bool force) const {
    Next out;
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      const Queue& queue = queues_[q];
      if (queue.fifo.empty()) {
        continue;
      }
      // Derived from the current head: one evicted mid-wait leaves its
      // successor a full window of its own.
      const Time deadline = fields(queue.fifo.front()).enqueued + queue.wait;
      if (force || queue.fifo.size() >= queue.cap || now >= deadline) {
        if (older(q, out.queue)) {
          out.queue = q;
        }
      } else if (!out.deadline || deadline < *out.deadline) {
        out.deadline = deadline;
      }
    }
    return out;
  }

  /// Move one batch off queue `q` into `sink` (oldest first) and bill it:
  /// `size * padded_len` slots holding the members' true lengths, out of a
  /// capacity of `cap * padded_len`. Padded slots never execute.
  template <typename Sink>
  Formed form(std::size_t q, Sink&& sink) {
    Queue& queue = queues_[q];
    const std::size_t take = std::min(queue.fifo.size(), queue.cap);
    std::int64_t batch_max_len = 0;
    std::uint64_t effective = 0;
    for (std::size_t i = 0; i < take; ++i) {
      const std::int64_t len = fields(queue.fifo.front()).seq_len;
      batch_max_len = std::max(batch_max_len, len);
      effective += static_cast<std::uint64_t>(len);
      sink(std::move(queue.fifo.front()));
      queue.fifo.pop_front();
    }
    size_ -= take;
    const std::int64_t padded_len = bucketing_.padded_len(q, batch_max_len);
    // A request only routes to a bucket whose edge fits it, so the token
    // ledger's effective <= padded holds per batch by construction.
    STAR_CONTRACT(padded_len >= batch_max_len,
                  "batcher: billed slot width below the batch's longest member");
    const auto slots = static_cast<std::uint64_t>(padded_len);
    stats_.on_batch(take, q, effective, take * slots, queue.cap * slots);
    return Formed{take, padded_len};
  }

  /// Remove and return the globally oldest entry (kShedOldest); the policy
  /// must not be empty.
  Entry evict() {
    std::size_t oldest = kNone;
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      if (!queues_[q].fifo.empty() && older(q, oldest)) {
        oldest = q;
      }
    }
    Entry e = std::move(queues_[oldest].fifo.front());
    queues_[oldest].fifo.pop_front();
    --size_;
    return e;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  struct Queue {
    std::deque<Entry> fifo;
    std::size_t cap = 0;  ///< effective max_batch
    Duration wait{};      ///< effective age-out window
  };

  /// The entry, or what it points to.
  template <typename E>
  static auto& fields(E& e) {
    if constexpr (requires(E& x) { *x; }) {
      return *e;
    } else {
      return e;
    }
  }

  /// Whether non-empty queue `q`'s head was admitted before `than`'s (any
  /// head beats kNone). Ids rise with admission, so the smallest head id is
  /// the globally oldest entry.
  [[nodiscard]] bool older(std::size_t q, std::size_t than) const {
    return than == kNone ||
           fields(queues_[q].fifo.front()).id < fields(queues_[than].fifo.front()).id;
  }

  LengthBucketing bucketing_;
  StatsAccumulator& stats_;
  std::vector<Queue> queues_;
  std::size_t size_ = 0;
  std::uint64_t next_id_ = 0;
};

}  // namespace star::serve
