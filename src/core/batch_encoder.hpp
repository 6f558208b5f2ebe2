// Batched multi-threaded encoder/attention simulation.
//
// One immutable model — StarConfig geometry, encoder weights, the
// functional SoftmaxEngine and MatmulEngine, the analytic StarAccelerator —
// serves B independent sequences concurrently (the cuBERT serving shape:
// one model, many request streams). Everything mutable lives per sequence:
// a SoftmaxRunState (fault RNG, counters, scratch) and the sequence's
// result slot.
//
// Determinism contract: outputs are bit-identical to running the same
// sequences one-by-one, for every thread count. Sequence i's work depends
// only on (inputs[i], per-sequence seed i); the BatchScheduler only decides
// *when* each sequence runs, never *what* it computes.
//
// Seed-derivation rule (fixed API contract, shared with serve::StarServer):
// the engine seed of sequence i under batch seed `run_seed` is
// workload::sequence_seed(run_seed, i) — the (i+1)-th raw draw of
// Rng(run_seed). The serving front end gives every request its own
// `run_seed` and executes it with sequence_seed(run_seed, 0), i.e. exactly
// the engine seed of a solo single-sequence batch under that run_seed.
// That single rule is what makes a server response bit-identical to a solo
// closed-batch run and keeps fault-injection streams (cam_miss_prob > 0)
// reproducible across both APIs. Closed-batch callers map run_*_one over
// workload::sequence_seeds(n, run_seed) themselves; the composition rule
// above is the contract, pinned by tests/test_batch_scheduler.cpp.
//
// Workspace note (why buffer reuse cannot break determinism): the hot
// functional path runs on pooled, reused EncoderWorkspaces — a bump arena
// for every tensor intermediate plus a SoftmaxRunState for the engine's
// fault RNG, counters and datapath scratch. Reuse is payload-invariant by
// construction: every arena view and scratch vector is fully overwritten
// before it is read (the fused kernels zero-fill or assign first), and
// SoftmaxRunState::reseed() restarts the fault stream exactly as a fresh
// state would. Which worker's workspace serves a request therefore never
// reaches the output bits — tests/test_workspace.cpp pins arena-vs-legacy
// bit-identity across thread counts, fault streams and reuse patterns.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/accelerator.hpp"
#include "core/cost_cache.hpp"
#include "core/functional_attention.hpp"
#include "core/softmax_engine.hpp"
#include "nn/bert.hpp"
#include "nn/workspace.hpp"
#include "sim/batch_scheduler.hpp"
#include "workload/trace_gen.hpp"
#include "xbar/residency.hpp"

namespace star::core {

/// Everything one in-flight functional request needs that is neither the
/// shared read-only model nor the request payload: the bump arena behind
/// the fused nn::*_into kernels and the softmax engine's per-run state
/// (fault RNG + cloned counters + datapath scratch). Sized lazily on first
/// use and reused request after request — a warm workspace makes the whole
/// functional pass allocation-free.
struct EncoderWorkspace {
  nn::Workspace arena;
  SoftmaxRunState softmax_run;
};

/// Mutex-protected freelist of EncoderWorkspaces. One workspace ends up
/// owned per concurrent worker in the steady state: lease() pops a warmed
/// workspace (or builds a fresh one only when the pool is empty — the cold
/// path), and the RAII Lease returns it on destruction. pop_back/push_back
/// against retained vector capacity means a warm lease allocates nothing.
class WorkspacePool {
 public:
  class Lease {
   public:
    Lease(WorkspacePool* pool, std::unique_ptr<EncoderWorkspace> ws)
        : pool_(pool), ws_(std::move(ws)) {}
    Lease(Lease&& o) noexcept : pool_(o.pool_), ws_(std::move(o.ws_)) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        if (ws_ != nullptr) {
          pool_->put(std::move(ws_));
        }
        pool_ = o.pool_;
        ws_ = std::move(o.ws_);
      }
      return *this;
    }
    ~Lease();

    [[nodiscard]] EncoderWorkspace& operator*() const { return *ws_; }
    [[nodiscard]] EncoderWorkspace* operator->() const { return ws_.get(); }
    [[nodiscard]] EncoderWorkspace* get() const { return ws_.get(); }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<EncoderWorkspace> ws_;
  };

  [[nodiscard]] Lease lease();

 private:
  friend class Lease;
  void put(std::unique_ptr<EncoderWorkspace> ws);

  std::mutex mu_;
  std::vector<std::unique_ptr<EncoderWorkspace>> free_;
};

/// What the residency layer charged one request: the programming bill for
/// every image that was not resident, plus the hit/miss attribution the
/// serving stats aggregate. All zero on the steady-state single-dataset
/// path (everything the model owns is installed at construction).
struct ResidencyCharge {
  hw::ProgramCost programming{};
  std::uint64_t lut_hits = 0;
  std::uint64_t lut_misses = 0;
  std::uint64_t weight_hits = 0;
  std::uint64_t weight_misses = 0;

  ResidencyCharge& operator+=(const ResidencyCharge& o) {
    programming += o.programming;
    lut_hits += o.lut_hits;
    lut_misses += o.lut_misses;
    weight_hits += o.weight_hits;
    weight_misses += o.weight_misses;
    return *this;
  }
};

class BatchEncoderSim {
 public:
  /// Builds the shared model state: engines from `cfg`, `stack_depth`
  /// encoder layers of random weights from one continuing Rng(weight_seed)
  /// stream — layer 0's weights are identical for every depth (prefix
  /// property), so deepening a model never changes shallower results.
  /// `stack_depth` bounds the `num_layers` a request may ask for; it
  /// defaults to 1 (the historical single-layer model) and is independent
  /// of bert.layers so small functional configs can exercise deep stacks.
  BatchEncoderSim(const StarConfig& cfg, const nn::BertConfig& bert,
                  std::uint64_t weight_seed = 0xB127,
                  std::int64_t stack_depth = 1);

  // --- per-sequence entry points (the serving-API execution granule) ---
  //
  // Each runs ONE sequence against the shared read-only model; `engine_seed`
  // is the fully derived per-sequence seed (see the seed-derivation rule in
  // the file comment). Thread-safe: many may run concurrently. These are
  // what serve::StarServer dispatches, and what the closed-batch shims
  // below map over.

  /// Functional path: `num_layers` chained encoder_layer_forward passes
  /// (layer l uses layer_weights(l)) with the STAR crossbar softmax.
  /// `engine_seed` seeds the fault-RNG stream (relevant only when
  /// cfg.cam_miss_prob > 0); ONE stream spans the whole chain, so layer
  /// l's sampled faults depend on the layers before it — exactly as a
  /// physical pass through the stack would. `num_layers` must be in
  /// [1, stack_depth()].
  ///
  /// `num_shards` selects how many crossbar shards the request runs on and
  /// must be in [1, config().num_shards] (the provisioned bound). Sharding
  /// is payload-invariant BY CONSTRUCTION: the inter-shard merge adds
  /// exact integer partial sums (the digital reduce is associative), so
  /// the output is bit-identical for every admissible shard count/policy —
  /// only the analytic cost model sees K. tests/test_sharded_matmul.cpp
  /// pins this contract.
  ///
  /// `dataset` names the softmax CAM/LUT image the request needs resident
  /// (CNEWS/MRPC/CoLA QFormats; kDefault = the configured format). Like
  /// sharding it is ACCOUNTING-ONLY and payload-invariant by construction:
  /// the functional datapath always computes in the configured format, the
  /// residency layer only decides whether the image swap is charged. Every
  /// run acquires its dataset's LUT image and the touched layers' weight
  /// images from the per-sim ResidencyManager; misses charge programming
  /// cost into `*charge` (pass nullptr to discard — hits are free either
  /// way, which is the steady state: the model's own images are installed
  /// at construction).
  ///
  /// An input holding a NaN or Inf throws InvalidArgument before any
  /// residency lookup, so a rejected request leaves the residency stats and
  /// resident images exactly as they were.
  [[nodiscard]] nn::Tensor run_encoder_one(
      const nn::Tensor& input, std::uint64_t engine_seed,
      std::int64_t num_layers = 1, std::int64_t num_shards = 1,
      workload::Dataset dataset = workload::Dataset::kDefault,
      ResidencyCharge* charge = nullptr) const;

  /// Allocation-free variant of run_encoder_one: the audited zero-alloc
  /// kernel the serving path runs on. Writes the final layer's output into
  /// `out` (reshaped in place — a warm caller-reused tensor absorbs request
  /// after request without reallocating) and draws every intermediate from
  /// an EncoderWorkspace: the caller's `ws` if non-null (single-threaded
  /// audit loops), else a pool lease (one workspace per concurrent
  /// worker in steady state). Bit-identical to run_encoder_one for every
  /// (input, seed, layers, shards, dataset) — the wrapper delegates here.
  void run_encoder_one_into(const nn::Tensor& input, std::uint64_t engine_seed,
                            nn::Tensor& out, std::int64_t num_layers = 1,
                            std::int64_t num_shards = 1,
                            workload::Dataset dataset = workload::Dataset::kDefault,
                            ResidencyCharge* charge = nullptr,
                            EncoderWorkspace* ws = nullptr) const;

  /// Full-hardware attention path: attention_on_star(qkv) with both matmuls
  /// on the crossbar MatMul engine. A NaN or Inf in q, k or v throws
  /// InvalidArgument.
  [[nodiscard]] FunctionalAttentionResult run_attention_one(
      const workload::QkvTriple& qkv, std::uint64_t engine_seed) const;

  /// Analytic path: latency/energy/power of one attention layer at this
  /// sequence length — the serve hot path, served from the memoized
  /// CostCache (see core/cost_cache.hpp).
  ///
  /// `seq_len` must be in [2, config().max_seq_len]; anything else throws
  /// InvalidArgument before the residency lookup, so a rejected request
  /// leaves the ledger untouched. Past the length check it is
  /// price_analytic(seq_len, dataset, charge).
  ///
  /// `dataset` names the softmax CAM/LUT image the analytic request needs
  /// resident; like the functional path it is acquired from the per-sim
  /// ResidencyManager first, any miss charges programming cost into
  /// `*charge` (pass nullptr to discard), and only a request that found
  /// the image resident reads or fills the cost cache. A warm request (the
  /// steady state; always true for kDefault, installed at construction)
  /// composes a zero charge, so its result is bit-identical to the legacy
  /// uncached call — audited per cache hit under -DSTAR_AUDIT=ON. A cold
  /// request's programming bill is composed into latency/energy (the same
  /// convention as EncoderRunResult) and is never memoized.
  [[nodiscard]] AttentionRunResult run_analytic_one(
      std::int64_t seq_len,
      workload::Dataset dataset = workload::Dataset::kDefault,
      ResidencyCharge* charge = nullptr) const;

  /// The analytic bill at any `seq_len` >= 2 (smaller throws
  /// InvalidArgument before the residency lookup), with run_analytic_one's
  /// residency and cost-cache semantics but no max_seq_len bound: the
  /// analytic model extrapolates past the provisioned length. The batch
  /// replay (serve::simulate_batching) prices a batch at its padded length
  /// this way, which a bucket edge or a what-if trace may put above
  /// max_seq_len. A request's own length goes through run_analytic_one.
  [[nodiscard]] AttentionRunResult price_analytic(
      std::int64_t seq_len,
      workload::Dataset dataset = workload::Dataset::kDefault,
      ResidencyCharge* charge = nullptr) const;

  [[nodiscard]] const StarConfig& config() const { return accel_.config(); }
  [[nodiscard]] const nn::BertConfig& bert() const { return bert_; }
  /// How many chained layers this model can serve (weights prepared).
  [[nodiscard]] std::int64_t stack_depth() const {
    return static_cast<std::int64_t>(weights_.size());
  }
  /// Layer 0's weights — the historical single-layer accessor.
  [[nodiscard]] const nn::EncoderLayerWeights& weights() const {
    return weights_.front();
  }
  [[nodiscard]] const nn::EncoderLayerWeights& layer_weights(std::int64_t layer) const;
  [[nodiscard]] const StarAccelerator& accelerator() const { return accel_; }
  /// The one functional softmax engine every request's rows run through.
  [[nodiscard]] const SoftmaxEngine& softmax_engine() const { return softmax_; }
  [[nodiscard]] const MatmulEngine& matmul_engine() const {
    return accel_.matmul_engine();
  }

  // --- device residency ---
  /// The per-sim residency manager (capacity = config().residency_capacity;
  /// internally synchronised — shared by every concurrent request). The
  /// model's own images (its layers' weights + the configured softmax
  /// format's LUT image) are installed at construction, so single-dataset
  /// traffic is all hits from request one.
  [[nodiscard]] xbar::ResidencyManager& residency() const { return residency_; }
  /// The one-time construction bill: programming every installed image
  /// cold (model load). Reported separately — request-time accounting
  /// starts at zero.
  [[nodiscard]] hw::ProgramCost initial_programming_cost() const {
    return initial_programming_;
  }
  /// Programming bill of `dataset`'s CAM/LUT image (the LUT-cache miss
  /// cost), precomputed per format at construction.
  [[nodiscard]] hw::ProgramCost lut_image_cost(workload::Dataset dataset) const;
  /// Programming bill of one layer's weight image set (six matrices on
  /// the monolithic write port — see run_encoder_one's accounting notes).
  [[nodiscard]] hw::ProgramCost layer_weight_cost() const;

  // --- analytic cost cache ---
  /// The memoized analytic cost table behind run_analytic_one, keyed by
  /// seq_len (per-run mutable state behind the const compute entry points,
  /// internally synchronized like residency()). Exposed for stats
  /// surfacing (ServerStats/ClusterStats cost_cache_* fields) and bench
  /// scoping (reset_stats()).
  [[nodiscard]] CostCache& cost_cache() const { return cost_cache_; }

 private:
  [[nodiscard]] ResidencyCharge touch_residency(std::int64_t num_layers,
                                                workload::Dataset dataset) const;

  nn::BertConfig bert_;
  StarAccelerator accel_;  ///< the analytic model; owns the matmul engine
  SoftmaxEngine softmax_;  ///< the functional softmax tables
  std::vector<nn::EncoderLayerWeights> weights_;  ///< one entry per stack layer
  /// Per-dataset LUT image costs, indexed by workload::Dataset.
  std::array<hw::ProgramCost, 4> lut_costs_{};
  /// Per-matrix weight image bills (slots 0..5, identical across layers).
  std::array<hw::ProgramCost, 6> weight_costs_{};
  hw::ProgramCost initial_programming_{};
  /// Mutable: run_*_one are const (shared model, per-run state), and the
  /// residency manager IS per-run mutable state — internally synchronised.
  mutable xbar::ResidencyManager residency_;
  /// Same mutability story as residency_: the memo table is per-run state.
  mutable CostCache cost_cache_;
  /// Pooled per-worker workspaces behind run_encoder_one_into /
  /// run_attention_one — per-run mutable state, internally synchronised.
  mutable WorkspacePool workspaces_;
};

}  // namespace star::core
