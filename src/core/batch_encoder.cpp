#include "core/batch_encoder.hpp"

#include <algorithm>
#include <cmath>

#include "core/weight_images.hpp"
#include "util/status.hpp"

namespace star::core {

namespace {

std::vector<nn::EncoderLayerWeights> make_weights(const nn::BertConfig& bert,
                                                  std::uint64_t weight_seed,
                                                  std::int64_t stack_depth) {
  require(stack_depth >= 1, "BatchEncoderSim: stack_depth must be >= 1");
  // One continuing stream: layer l's weights are the same for every depth
  // >= l + 1, and layer 0 matches the historical single-layer model.
  Rng rng(weight_seed);
  std::vector<nn::EncoderLayerWeights> w;
  w.reserve(static_cast<std::size_t>(stack_depth));
  for (std::int64_t l = 0; l < stack_depth; ++l) {
    w.push_back(nn::EncoderLayerWeights::random(bert, rng));
  }
  return w;
}

bool all_finite(const nn::Tensor& t) {
  return std::all_of(t.flat().begin(), t.flat().end(),
                     [](double x) { return std::isfinite(x); });
}

}  // namespace

WorkspacePool::Lease::~Lease() {
  if (ws_ != nullptr) {
    pool_->put(std::move(ws_));
  }
}

WorkspacePool::Lease WorkspacePool::lease() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      std::unique_ptr<EncoderWorkspace> ws = std::move(free_.back());
      free_.pop_back();
      return Lease(this, std::move(ws));
    }
  }
  // Cold path: first requests of a new worker build fresh workspaces; the
  // steady state pops warmed ones above without allocating.
  return Lease(this, std::make_unique<EncoderWorkspace>());
}

void WorkspacePool::put(std::unique_ptr<EncoderWorkspace> ws) {
  const std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(ws));
}

BatchEncoderSim::BatchEncoderSim(const StarConfig& cfg, const nn::BertConfig& bert,
                                 std::uint64_t weight_seed,
                                 std::int64_t stack_depth)
    : bert_(bert),
      accel_(cfg),
      softmax_(cfg),
      weights_(make_weights(bert, weight_seed, stack_depth)),
      residency_(static_cast<std::size_t>(cfg.residency_capacity)) {
  bert_.validate();

  // Per-dataset CAM/LUT image bills. The default slot is this model's own
  // engine; named datasets price an engine sized for their format on the
  // same substrate. (Equal formats share one key AND one bill.)
  lut_costs_[static_cast<std::size_t>(workload::Dataset::kDefault)] =
      accel_.softmax_costs().preload_cost();
  for (const auto d : {workload::Dataset::kCnews, workload::Dataset::kMrpc,
                       workload::Dataset::kCola}) {
    const fxp::QFormat& fmt = workload::format_for(d, config().softmax_format);
    lut_costs_[static_cast<std::size_t>(d)] =
        fmt == config().softmax_format
            ? lut_costs_[0]
            : SoftmaxEngine::preload_cost_for(config(), fmt);
  }

  // Per-matrix weight image bills, in the shared slot order of
  // core/weight_images.hpp. The functional path prices uploads on the
  // monolithic write port (K-independent: requests only *gate* shard
  // counts here; the sharded parallel-write bill lives in the analytic
  // models' residency hook).
  const MatmulEngine& mm = accel_.matmul_engine();
  for (const LayerWeightImage& w : layer_weight_images(bert_)) {
    weight_costs_[w.slot] = mm.weight_image_cost(w.m, w.n);
  }

  // Model load: program every image this sim owns. Installed, not charged —
  // the one-time bill is reported via initial_programming_cost() and the
  // request-time counters start from a warm cache.
  for (std::int64_t l = 0; l < stack_depth; ++l) {
    for (std::uint64_t s = 0; s < weight_costs_.size(); ++s) {
      residency_.install(layer_weight_key(l, s));
      initial_programming_ += weight_costs_[s];
    }
  }
  residency_.install(accel_.softmax_costs().image_key());
  initial_programming_ += lut_costs_[0];
}

hw::ProgramCost BatchEncoderSim::lut_image_cost(workload::Dataset dataset) const {
  return lut_costs_[static_cast<std::size_t>(dataset)];
}

hw::ProgramCost BatchEncoderSim::layer_weight_cost() const {
  hw::ProgramCost total;
  for (const hw::ProgramCost& c : weight_costs_) {
    total += c;
  }
  return total;
}

ResidencyCharge BatchEncoderSim::touch_residency(std::int64_t num_layers,
                                                 workload::Dataset dataset) const {
  ResidencyCharge charge;
  const fxp::QFormat& fmt = workload::format_for(dataset, config().softmax_format);
  const auto lut = residency_.acquire(xbar::lut_image_key(fmt),
                                      lut_image_cost(dataset));
  (lut.hit ? charge.lut_hits : charge.lut_misses) += 1;
  charge.programming += lut.charged;
  for (std::int64_t l = 0; l < num_layers; ++l) {
    for (std::uint64_t s = 0; s < weight_costs_.size(); ++s) {
      const auto w = residency_.acquire(layer_weight_key(l, s), weight_costs_[s]);
      (w.hit ? charge.weight_hits : charge.weight_misses) += 1;
      charge.programming += w.charged;
    }
  }
  return charge;
}

const nn::EncoderLayerWeights& BatchEncoderSim::layer_weights(
    std::int64_t layer) const {
  require(layer >= 0 && layer < stack_depth(),
          "layer_weights: layer out of range");
  return weights_[static_cast<std::size_t>(layer)];
}

nn::Tensor BatchEncoderSim::run_encoder_one(const nn::Tensor& input,
                                            std::uint64_t engine_seed,
                                            std::int64_t num_layers,
                                            std::int64_t num_shards,
                                            workload::Dataset dataset,
                                            ResidencyCharge* charge) const {
  // The returned owning tensor is this wrapper's one allocation; the
  // audited zero-alloc path is run_encoder_one_into with a reused `out`.
  nn::Tensor out;
  run_encoder_one_into(input, engine_seed, out, num_layers, num_shards, dataset,
                       charge);
  return out;
}

// STAR_HOT
void BatchEncoderSim::run_encoder_one_into(const nn::Tensor& input,
                                           std::uint64_t engine_seed,
                                           nn::Tensor& out,
                                           std::int64_t num_layers,
                                           std::int64_t num_shards,
                                           workload::Dataset dataset,
                                           ResidencyCharge* charge,
                                           EncoderWorkspace* ws) const {
  require(input.cols() == static_cast<std::size_t>(bert_.d_model),
          "run_encoder_one: input width must equal d_model");
  require(num_layers >= 1 && num_layers <= stack_depth(),
          "run_encoder_one: num_layers must be in [1, stack_depth]");
  require(num_shards >= 1 && num_shards <= config().num_shards,
          "run_encoder_one: num_shards must be in [1, config().num_shards]");
  require(input.rows() <= static_cast<std::size_t>(config().max_seq_len),
          "run_encoder_one: sequence longer than config().max_seq_len");
  // Before any residency lookup: a request that is rejected must not
  // reprogram or evict an image on its way to the error.
  require(all_finite(input), "run_encoder_one: input holds a NaN or Inf");
  // num_shards only gates admission and dataset only selects the resident
  // LUT image: the digital partial-sum reduce is exact and the datapath
  // always runs in the configured format, so the payload below is
  // shard-count AND dataset independent (see header).
  const ResidencyCharge charged = touch_residency(num_layers, dataset);
  if (charge != nullptr) {
    *charge = charged;
  }

  WorkspacePool::Lease lease(nullptr, nullptr);
  if (ws == nullptr) {
    lease = WorkspacePool::Lease(workspaces_.lease());
    ws = lease.get();
  }
  ws->softmax_run.reseed(engine_seed);
  SoftmaxEngineRowRef softmax(softmax_engine(), ws->softmax_run);

  const std::size_t seq = input.rows();
  const std::size_t d_model = static_cast<std::size_t>(bert_.d_model);
  ws->arena.reset();
  ws->arena.require_capacity(nn::encoder_workspace_doubles(bert_, seq));
  out.reshape(seq, d_model);
  const nn::TensorView out_view = nn::view_of(out);

  // Ping-pong chain: intermediate layers bounce between two arena buffers;
  // the final layer writes straight into the caller's tensor. Layer order
  // and per-layer operations are exactly the legacy chain's, so the bits
  // match run_encoder_one's reference path for every depth.
  const nn::TensorView ping = ws->arena.alloc_view(seq, d_model);
  const nn::TensorView pong = ws->arena.alloc_view(seq, d_model);
  for (std::int64_t l = 0; l < num_layers; ++l) {
    const bool last = l == num_layers - 1;
    const nn::TensorView dst = last ? out_view : (l % 2 == 0 ? ping : pong);
    const nn::ConstTensorView src =
        l == 0 ? nn::view_of(input)
               : static_cast<nn::ConstTensorView>(l % 2 == 0 ? pong : ping);
    nn::encoder_layer_forward_into(src, weights_[static_cast<std::size_t>(l)],
                                   softmax, ws->arena, dst);
  }
}

FunctionalAttentionResult BatchEncoderSim::run_attention_one(
    const workload::QkvTriple& qkv, std::uint64_t engine_seed) const {
  require(all_finite(qkv.q) && all_finite(qkv.k) && all_finite(qkv.v),
          "run_attention_one: q, k and v must hold no NaN or Inf");
  // attention_on_star's tensors still allocate (accuracy path, not the hot
  // serve loop), but the engine-internal scratch and counters come warm
  // from the pooled run state — reseed() restarts the fault stream exactly
  // as a fresh SoftmaxRunState(engine_seed) would.
  const WorkspacePool::Lease lease = workspaces_.lease();
  lease->softmax_run.reseed(engine_seed);
  return attention_on_star(qkv.q, qkv.k, qkv.v, matmul_engine(),
                           softmax_engine(), lease->softmax_run);
}

AttentionRunResult BatchEncoderSim::run_analytic_one(std::int64_t seq_len,
                                                     workload::Dataset dataset,
                                                     ResidencyCharge* charge) const {
  // Before any residency lookup: a request that is rejected must not
  // reprogram or evict an image on its way to the error, nor be priced at
  // a length the engine's counters are not sized for.
  require(seq_len >= 2 && seq_len <= config().max_seq_len,
          "run_analytic_one: seq_len must be in [2, config().max_seq_len]");
  return price_analytic(seq_len, dataset, charge);
}

AttentionRunResult BatchEncoderSim::price_analytic(std::int64_t seq_len,
                                                   workload::Dataset dataset,
                                                   ResidencyCharge* charge) const {
  // run_attention_layer's own lower bound, checked before the residency
  // lookup so a refused length leaves the ledger untouched.
  require(seq_len >= 2, "price_analytic: seq_len must be >= 2");
  // Residency next (acquire side effects + hit/miss attribution belong to
  // this request), so the cost lookup knows the warm/cold state the
  // request actually found. The analytic path touches only the dataset's
  // CAM/LUT image — weights live in the functional path's namespace.
  const fxp::QFormat& fmt =
      workload::format_for(dataset, config().softmax_format);
  const auto lut =
      residency_.acquire(xbar::lut_image_key(fmt), lut_image_cost(dataset));
  ResidencyCharge charged;
  (lut.hit ? charged.lut_hits : charged.lut_misses) += 1;
  charged.programming += lut.charged;
  if (charge != nullptr) {
    *charge = charged;
  }

  AttentionRunResult res = cost_cache_.lookup(
      seq_len, lut.hit, [&] { return accel_.run_attention_layer(bert_, seq_len); });

  // Compose the programming charge AFTER the pure steady-state record (the
  // EncoderRunResult convention). Warm requests — every kDefault request,
  // since the model installs its own image at construction — compose zero,
  // keeping the result bit-identical to the legacy uncached call.
  res.latency += charged.programming.latency;
  res.energy += charged.programming.energy;
  res.report.latency = res.latency;
  res.report.energy = res.energy;
  return res;
}

}  // namespace star::core
