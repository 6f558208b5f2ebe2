#include "serve/cluster.hpp"

#include <algorithm>
#include <utility>

#include "util/status.hpp"
#include "workload/dataset_profile.hpp"
#include "xbar/residency.hpp"

namespace star::serve {

namespace {

/// Payload footprint of one tensor on the host link (double-precision
/// embeddings, the simulation's native element).
std::uint64_t tensor_bytes(const nn::Tensor& t) {
  return static_cast<std::uint64_t>(t.rows()) *
         static_cast<std::uint64_t>(t.cols()) * sizeof(double);
}

/// Round-robin: node (i mod N). Blind to state, perfectly even long-run.
class RoundRobinPolicy final : public RoutingPolicy {
 public:
  std::size_t route(const std::vector<NodeSnapshot>& nodes) override {
    const std::size_t pick = next_ % nodes.size();
    ++next_;
    return pick;
  }

 private:
  std::size_t next_ = 0;
};

/// The node with the shallowest pending queue; ties break to the lowest
/// node index so routing is deterministic for a given snapshot.
std::size_t least_loaded_of(const std::vector<NodeSnapshot>& nodes) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i].queue_depth < nodes[best].queue_depth) {
      best = i;
    }
  }
  return best;
}

class LeastLoadedPolicy final : public RoutingPolicy {
 public:
  std::size_t route(const std::vector<NodeSnapshot>& nodes) override {
    return least_loaded_of(nodes);
  }
};

/// Residency first, load as the escape hatch: prefer the shallowest node
/// whose cache already holds the request's LUT image; fall back to
/// least-loaded when no node does (the cold miss is then inevitable, so it
/// should land where the queue is shortest) or when every resident node is
/// more than `max_imbalance` requests deeper than the fleet minimum.
class AffinityPolicy final : public RoutingPolicy {
 public:
  explicit AffinityPolicy(std::size_t max_imbalance)
      : max_imbalance_(max_imbalance) {}

  std::size_t route(const std::vector<NodeSnapshot>& nodes) override {
    const std::size_t fallback = least_loaded_of(nodes);
    std::size_t best = nodes.size();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].lut_resident &&
          (best == nodes.size() ||
           nodes[i].queue_depth < nodes[best].queue_depth)) {
        best = i;
      }
    }
    if (best == nodes.size() ||
        nodes[best].queue_depth >
            nodes[fallback].queue_depth + max_imbalance_) {
      return fallback;
    }
    return best;
  }

 private:
  const std::size_t max_imbalance_;
};

}  // namespace

std::unique_ptr<RoutingPolicy> make_route_policy(
    RoutePolicyKind kind, std::size_t affinity_max_imbalance) {
  switch (kind) {
    case RoutePolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>();
    case RoutePolicyKind::kLeastLoaded:
      return std::make_unique<LeastLoadedPolicy>();
    case RoutePolicyKind::kAffinity:
      return std::make_unique<AffinityPolicy>(affinity_max_imbalance);
  }
  throw InvalidArgument("make_route_policy: unknown policy kind");
}

Cluster::Cluster(const core::StarConfig& cfg, const nn::BertConfig& bert,
                 ClusterOptions opts, std::unique_ptr<RoutingPolicy> policy)
    : opts_(std::move(opts)) {
  require(opts_.num_nodes >= 1, "Cluster: num_nodes must be >= 1");
  require(opts_.num_nodes <= 1024, "Cluster: num_nodes must be <= 1024");
  policy_ = policy ? std::move(policy)
                   : make_route_policy(opts_.policy, opts_.affinity_max_imbalance);
  nodes_.reserve(opts_.num_nodes);
  snapshots_.reserve(opts_.num_nodes);
  routed_.assign(opts_.num_nodes, 0);
  for (std::size_t i = 0; i < opts_.num_nodes; ++i) {
    Node node;
    // Every node holds the SAME model (same config, same weight stream):
    // that identity is what makes routing payload-invariant by
    // construction. Residency state, however, is genuinely per node.
    node.model = std::make_unique<core::BatchEncoderSim>(
        cfg, bert, opts_.weight_seed, opts_.stack_depth);
    node.sched = std::make_unique<sim::BatchScheduler>(opts_.threads_per_node);
    ServerOptions server_opts = opts_.server;
    server_opts.node_id = static_cast<std::uint32_t>(i);
    node.server = std::make_unique<StarServer>(*node.model, *node.sched,
                                               server_opts);
    nodes_.push_back(std::move(node));
  }
}

Cluster::~Cluster() { shutdown(); }

const StarServer& Cluster::node(std::size_t i) const {
  require(i < nodes_.size(), "Cluster: node index out of range");
  return *nodes_[i].server;
}

const core::BatchEncoderSim& Cluster::node_model(std::size_t i) const {
  require(i < nodes_.size(), "Cluster: node index out of range");
  return *nodes_[i].model;
}

Cluster::RouteDecision Cluster::route_and_bill(workload::Dataset dataset,
                                               std::uint64_t payload_bytes,
                                               std::uint64_t response_bytes) {
  std::lock_guard<std::mutex> lk(route_mu_);
  snapshots_.clear();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeSnapshot s;
    s.node = i;
    s.queue_depth = nodes_[i].server->pending();
    if (dataset == workload::Dataset::kDefault) {
      // The configured format's image is installed at construction on
      // every node; skip the residency lookup.
      s.lut_resident = true;
    } else {
      const fxp::QFormat& fmt = workload::format_for(
          dataset, nodes_[i].model->softmax_engine().format());
      s.lut_resident =
          nodes_[i].model->residency().resident(xbar::lut_image_key(fmt));
    }
    snapshots_.push_back(s);
  }
  RouteDecision d;
  d.node = policy_->route(snapshots_);
  require(d.node < nodes_.size(), "RoutingPolicy: returned node out of range");
  ++routed_[d.node];
  d.transport_us = (opts_.link.latency(payload_bytes) +
                    opts_.link.latency(response_bytes))
                       .as_us();
  transport_energy_uj_ += (opts_.link.energy(payload_bytes) +
                           opts_.link.energy(response_bytes))
                              .as_uJ();
  return d;
}

std::future<EncoderResponse> Cluster::submit(EncoderRequest req) {
  // Round trip: the seq_len x d_model input down, the same-shape output
  // back.
  const std::uint64_t bytes = tensor_bytes(req.input);
  const RouteDecision d = route_and_bill(req.dataset, bytes, bytes);
  req.transport_us = d.transport_us;
  return nodes_[d.node].server->submit(std::move(req));
}

std::future<AttentionResponse> Cluster::submit(AttentionRequest req) {
  // Q, K and V down; the context output (same shape as Q) back.
  const std::uint64_t down = tensor_bytes(req.qkv.q) +
                             tensor_bytes(req.qkv.k) +
                             tensor_bytes(req.qkv.v);
  const RouteDecision d =
      route_and_bill(workload::Dataset::kDefault, down, tensor_bytes(req.qkv.q));
  req.transport_us = d.transport_us;
  return nodes_[d.node].server->submit(std::move(req));
}

std::future<AnalyticResponse> Cluster::submit(AnalyticRequest req) {
  // A scalar request and a small result record — a control-plane message,
  // not a tensor transfer.
  constexpr std::uint64_t kAnalyticRequestBytes = 16;
  constexpr std::uint64_t kAnalyticResponseBytes = 128;
  const RouteDecision d = route_and_bill(req.dataset, kAnalyticRequestBytes,
                                         kAnalyticResponseBytes);
  req.transport_us = d.transport_us;
  return nodes_[d.node].server->submit(std::move(req));
}

void Cluster::drain() {
  for (Node& node : nodes_) {
    node.server->drain();
  }
}

void Cluster::shutdown() {
  for (Node& node : nodes_) {
    node.server->shutdown();
  }
}

ClusterStats Cluster::stats() const {
  ClusterStats cs;
  cs.num_nodes = nodes_.size();
  cs.per_node.reserve(nodes_.size());
  StatsAccumulator fleet;
  core::CostCacheStats fleet_cc;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    // One locked copy per node: the node's snapshot and its share of the
    // fleet merge come from the same instant.
    StatsAccumulator acc = nodes_[i].server->stats_accumulator();
    // Cost caches are chip-local, like residency: one per node model.
    const core::CostCacheStats cc = nodes_[i].model->cost_cache().stats();
    fleet_cc.lookups += cc.lookups;
    fleet_cc.hits += cc.hits;
    fleet_cc.misses += cc.misses;
    fleet_cc.bypasses += cc.bypasses;
    ServerStats s = acc.snapshot();
    overlay_cost_cache(s, cc);
    cs.per_node.push_back(std::move(s));
    if (i == 0) {
      fleet = std::move(acc);
    } else {
      fleet.merge(acc);
    }
  }
  static_cast<ServerStats&>(cs) = fleet.snapshot();
  overlay_cost_cache(cs, fleet_cc);
  {
    std::lock_guard<std::mutex> lk(route_mu_);
    cs.routed_per_node = routed_;
    cs.transport_energy_uj_total = transport_energy_uj_;
  }
  std::uint64_t routed_total = 0, routed_max = 0;
  for (const std::uint64_t r : cs.routed_per_node) {
    routed_total += r;
    routed_max = std::max(routed_max, r);
  }
  if (routed_total > 0) {
    const double mean_share = static_cast<double>(routed_total) /
                              static_cast<double>(cs.routed_per_node.size());
    cs.routing_imbalance = static_cast<double>(routed_max) / mean_share;
  }
  return cs;
}

}  // namespace star::serve
