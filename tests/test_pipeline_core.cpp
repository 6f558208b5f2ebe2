// Tests for the vector- vs operand-grained attention pipeline model.
#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "util/alloc_counter.hpp"
#include "util/status.hpp"

namespace star::core {
namespace {

StageTimes balanced_times(double ns) {
  StageTimes t;
  t.proj_row = Time::ns(ns);
  t.score_row = Time::ns(ns);
  t.softmax_row = Time::ns(ns);
  t.context_row = Time::ns(ns);
  t.outproj_row = Time::ns(ns);
  return t;
}

TEST(StageTimes, Helpers) {
  StageTimes t = balanced_times(10.0);
  t.softmax_row = Time::ns(50.0);
  EXPECT_EQ(t.stages().size(), 5u);
  EXPECT_NEAR(t.max_stage().as_ns(), 50.0, 1e-12);
  EXPECT_NEAR(t.sum_stages().as_ns(), 90.0, 1e-12);
}

TEST(Pipeline, VectorGrainedApproachesBottleneckRate) {
  const StageTimes t = balanced_times(100.0);
  const auto rep = run_pipeline(t, 1000, PipelineDiscipline::kVectorGrained);
  // makespan ~ sum + (n-1)*max = 500 + 999*100.
  EXPECT_NEAR(rep.makespan.as_us(), (500.0 + 99900.0) / 1000.0, 1e-6);
  EXPECT_GT(rep.bottleneck_util, 0.99);
}

TEST(Pipeline, OperandGrainedAddsSoftmaxBlock) {
  StageTimes t = balanced_times(100.0);
  t.softmax_row = Time::ns(40.0);
  const std::size_t n = 128;
  const auto vec = run_pipeline(t, n, PipelineDiscipline::kVectorGrained);
  const auto op = run_pipeline(t, n, PipelineDiscipline::kOperandGrained);
  EXPECT_GT(op.makespan.as_ns(), vec.makespan.as_ns());
  // Operand = 4-stage matmul pipe + n * softmax_row.
  const double mm = 400.0 + 127.0 * 100.0;
  EXPECT_NEAR(op.makespan.as_ns(), mm + 128.0 * 40.0, 1e-6);
}

TEST(Pipeline, SpeedupPeaksAtBalancedSoftmax) {
  // The vector-grained advantage grows while the softmax stage is hidden
  // under the matmul rate, peaks when the stages balance, and shrinks once
  // the softmax dominates both schedules.
  StageTimes t = balanced_times(100.0);
  double prev = 1.0;
  for (double sm : {10.0, 50.0, 100.0}) {
    t.softmax_row = Time::ns(sm);
    const double sp = analytic_speedup(t, 128);
    EXPECT_GE(sp, prev - 1e-9);
    prev = sp;
  }
  EXPECT_GT(prev, 1.5);  // ~2x at the balanced point
  t.softmax_row = Time::ns(400.0);
  EXPECT_LT(analytic_speedup(t, 128), prev);  // past the peak
  EXPECT_GT(analytic_speedup(t, 128), 1.0);   // but still a win
}

TEST(Pipeline, AnalyticSpeedupMatchesSimulation) {
  StageTimes t = balanced_times(73.0);
  t.softmax_row = Time::ns(211.0);
  for (std::size_t n : {1u, 16u, 128u, 500u}) {
    const auto vec = run_pipeline(t, n, PipelineDiscipline::kVectorGrained);
    const auto op = run_pipeline(t, n, PipelineDiscipline::kOperandGrained);
    const double sim_ratio = op.makespan / vec.makespan;
    EXPECT_NEAR(analytic_speedup(t, n), sim_ratio, 1e-9) << "n=" << n;
  }
}

TEST(Pipeline, SoftmaxUtilisationBounded) {
  StageTimes t = balanced_times(100.0);
  for (auto d : {PipelineDiscipline::kVectorGrained, PipelineDiscipline::kOperandGrained}) {
    const auto rep = run_pipeline(t, 64, d);
    EXPECT_GE(rep.softmax_stage_util, 0.0);
    EXPECT_LE(rep.softmax_stage_util, 1.0 + 1e-9);
  }
}

TEST(Pipeline, SingleRowDegenerateCase) {
  const StageTimes t = balanced_times(10.0);
  const auto vec = run_pipeline(t, 1, PipelineDiscipline::kVectorGrained);
  EXPECT_NEAR(vec.makespan.as_ns(), 50.0, 1e-9);
  const auto op = run_pipeline(t, 1, PipelineDiscipline::kOperandGrained);
  EXPECT_NEAR(op.makespan.as_ns(), 50.0, 1e-9);
}

TEST(Pipeline, RejectsZeroRows) {
  EXPECT_THROW(run_pipeline(balanced_times(1.0), 0, PipelineDiscipline::kVectorGrained),
               InvalidArgument);
  EXPECT_THROW(analytic_speedup(balanced_times(1.0), 0), InvalidArgument);
}

TEST(PipelineAllocations, RunPipelineAndStackAllocateNothing) {
  if (!util::alloc_audit_enabled()) {
    GTEST_SKIP() << "allocation audit not compiled in (Debug or -DSTAR_AUDIT=ON)";
  }
  // Every design point prices both disciplines, and every encoder stack
  // streams its layers through run_stack_pipeline: neither may touch the
  // heap.
  StageTimes t = balanced_times(100.0);
  t.softmax_row = Time::ns(40.0);
  LayerStageTimes layer;
  layer.attention = t;
  layer.ffn_row = Time::ns(120.0);
  for (const auto d : {PipelineDiscipline::kVectorGrained,
                       PipelineDiscipline::kOperandGrained}) {
    const util::AllocCounter single;
    const PipelineReport rep = run_pipeline(t, 128, d);
    EXPECT_EQ(single.allocations(), 0u) << "run_pipeline";
    const util::AllocCounter stacked;
    const StackPipelineReport stack = run_stack_pipeline(layer, 12, 128, d);
    EXPECT_EQ(stacked.allocations(), 0u) << "run_stack_pipeline";
    EXPECT_GT(rep.makespan.as_s(), 0.0);
    EXPECT_GT(stack.makespan.as_s(), rep.makespan.as_s());
  }
}

// Parameterized: vector-grained never loses, for many shapes.
class DisciplineSweep : public ::testing::TestWithParam<std::tuple<double, double, int>> {};

TEST_P(DisciplineSweep, VectorGrainedDominates) {
  const auto [mm_ns, sm_ns, rows] = GetParam();
  StageTimes t = balanced_times(mm_ns);
  t.softmax_row = Time::ns(sm_ns);
  const auto vec = run_pipeline(t, static_cast<std::size_t>(rows),
                                PipelineDiscipline::kVectorGrained);
  const auto op = run_pipeline(t, static_cast<std::size_t>(rows),
                               PipelineDiscipline::kOperandGrained);
  EXPECT_LE(vec.makespan.as_ns(), op.makespan.as_ns() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DisciplineSweep,
    ::testing::Combine(::testing::Values(10.0, 100.0, 1000.0),
                       ::testing::Values(1.0, 100.0, 5000.0),
                       ::testing::Values(1, 64, 512)));

}  // namespace
}  // namespace star::core
