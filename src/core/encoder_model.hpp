// Full encoder-layer extension study (E10).
//
// The paper evaluates the attention block; a downstream user runs whole
// encoder layers. This model appends the position-wise FFN (two static
// matmuls on the same crossbar substrate) and the digital vector unit
// (layernorm + GELU) to the attention pipeline and reports layer-level
// latency / energy / GOPs/s/W — showing how the attention-side gains dilute
// (Amdahl) once the FFN's matmul-heavy work joins.
#pragma once

#include "core/accelerator.hpp"
#include "hw/report.hpp"
#include "nn/bert.hpp"
#include "workload/dataset_profile.hpp"
#include "xbar/residency.hpp"

namespace star::core {

struct EncoderRunResult {
  hw::RunReport report;
  Time latency{};
  Energy energy{};
  Power power{};
  AttentionRunResult attention;   ///< the attention sub-block's record
  Time ffn_latency{};
  Energy ffn_energy{};
  Energy vector_unit_energy{};    ///< layernorm + GELU digital work
  double attention_time_share = 0.0;
  // Crossbar sharding (zero at one shard): attention + FFN inter-shard
  // merge totals of the layer.
  Time interconnect_latency{};
  Energy interconnect_energy{};
  // Device residency (zero without a manager, and zero again once the
  // cache is warm): weight-upload + LUT-image reprogramming charged by the
  // ResidencyManager for this run. Included in latency/energy above;
  // power/attention_time_share stay steady-state figures (compute only).
  Time programming_latency{};
  Energy programming_energy{};
};

class EncoderModel {
 public:
  /// The layer runs on a StarAccelerator built from `cfg` with the
  /// calibrated SystemOverheads; the model reads its config and overheads
  /// from that accelerator.
  explicit EncoderModel(const StarConfig& cfg);

  /// One full encoder layer (attention + FFN + norms) at `seq_len`.
  ///
  /// `residency` (optional) makes programming cost explicit: the layer's
  /// six static weight images (Wq/Wk/Wv/Wo/FF1/FF2, keyed under
  /// `layer_id`) and the softmax CAM/LUT image for `dataset` are acquired
  /// from the manager, and any miss charges its programming bill into the
  /// result (programming_* fields + latency/energy totals). With a warm
  /// cache every acquire hits and the result is bit-identical to the
  /// no-manager call — the same delegation discipline as one shard and
  /// N = 1 stacks.
  ///
  /// Every call computes the layer fresh: nothing is memoized here (the
  /// serving path's memo is BatchEncoderSim's CostCache, of attention
  /// records). The model is immutable, so the call is safe to make
  /// concurrently.
  [[nodiscard]] EncoderRunResult run_encoder_layer(
      const nn::BertConfig& bert, std::int64_t seq_len,
      xbar::ResidencyManager* residency = nullptr,
      workload::Dataset dataset = workload::Dataset::kDefault,
      std::int64_t layer_id = 0) const;

  /// The residency touches of one layer run, standalone (the stack model
  /// charges layers L > 0 through this without re-pricing the compute):
  /// acquires the layer's weight images and the dataset's LUT image and
  /// returns the total programming bill (zero when everything is warm).
  [[nodiscard]] hw::ProgramCost charge_residency(const nn::BertConfig& bert,
                                                 xbar::ResidencyManager& residency,
                                                 workload::Dataset dataset,
                                                 std::int64_t layer_id) const;

  /// The layer's per-row stage services (five attention stages + the FFN
  /// stripe rate) — the stack-level schedule building block consumed by
  /// EncoderStackModel / run_stack_pipeline.
  [[nodiscard]] LayerStageTimes layer_stage_times(const nn::BertConfig& bert,
                                                  std::int64_t seq_len) const;

  [[nodiscard]] const StarAccelerator& accelerator() const { return accel_; }

 private:
  /// The pure steady-state layer record (no residency composition).
  [[nodiscard]] EncoderRunResult compute_layer(const nn::BertConfig& bert,
                                               std::int64_t seq_len) const;

  StarAccelerator accel_;
};

}  // namespace star::core
