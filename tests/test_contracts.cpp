// Runtime-contract layer tests (util/contract.hpp).
//
// Every STAR_CONTRACT in the tree must be provably LIVE where contracts
// are enabled (Debug / -DSTAR_AUDIT=ON) and provably COMPILED OUT where
// they are not (default Release). One test file covers both: each case
// branches on star::contracts_enabled(), so the identical source asserts
// "fires on a violated invariant" in audit builds and "free of runtime
// effect" in release builds — whichever flavor CI compiles, the claim it
// can check is checked.
//
// Violations are forged through the same entry points production code
// uses: a hand-built non-monotone trace into simulate_batching, raw
// StatsAccumulator counter calls that break admission conservation or the
// token ledger, a forged ResidencyStats through xbar::audit_ledger, and
// mismatched latency reservoirs through serve::audit_reservoir_pair.

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "serve/batch_sim.hpp"
#include "serve/server_stats.hpp"
#include "util/contract.hpp"
#include "workload/arrival_trace.hpp"
#include "xbar/residency.hpp"

namespace star {
namespace {

// ---------------------------------------------------------------------------
// The macro itself.

TEST(Contracts, PassingContractIsAlwaysSilent) {
  EXPECT_NO_THROW(STAR_CONTRACT(2 + 2 == 4, "arithmetic"));
}

TEST(Contracts, FailingContractThrowsOnlyWhenEnabled) {
  if (contracts_enabled()) {
    EXPECT_THROW(STAR_CONTRACT(2 + 2 == 5, "arithmetic"), ContractViolation);
  } else {
    EXPECT_NO_THROW(STAR_CONTRACT(2 + 2 == 5, "arithmetic"));
  }
}

TEST(Contracts, ViolationMessageNamesExpressionAndLocation) {
  if (!contracts_enabled()) GTEST_SKIP() << "contracts compiled out";
  try {
    STAR_CONTRACT(1 == 2, "one is not two");
    FAIL() << "contract did not fire";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("one is not two"), std::string::npos) << what;
    EXPECT_NE(what.find("1 == 2"), std::string::npos) << what;
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos) << what;
  }
}

// The compile-out form is `(void)sizeof(!(expr))`: the condition must still
// PARSE (so disabled builds cannot rot the expression) but must never
// EVALUATE. A side-effecting condition makes that observable.
TEST(Contracts, DisabledContractDoesNotEvaluateItsCondition) {
  int evaluations = 0;
  STAR_CONTRACT((++evaluations, true), "side-effecting condition");
  EXPECT_EQ(evaluations, contracts_enabled() ? 1 : 0);
}

TEST(Contracts, EnabledFlagIsConstexprAndMatchesMacro) {
  constexpr bool enabled = contracts_enabled();
#if STAR_CONTRACTS_ENABLED
  EXPECT_TRUE(enabled);
#else
  EXPECT_FALSE(enabled);
#endif
#ifndef NDEBUG
  // A build without NDEBUG (CMake's Debug) always audits.
  EXPECT_TRUE(enabled);
#endif
}

// Address-sanitizer instrumentation as the compiler itself reports it:
// GCC defines __SANITIZE_ADDRESS__, clang answers
// __has_feature(address_sanitizer).
#if defined(__SANITIZE_ADDRESS__)
#define STAR_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define STAR_TEST_ASAN 1
#endif
#endif

TEST(Contracts, SanitizerNameReportsBuildFlavor) {
  // Always a non-empty C string: "none" in a plain build, and a name that
  // says "address" in a build the compiler instrumented with ASan.
  ASSERT_NE(sanitizer_name(), nullptr);
  const std::string name = sanitizer_name();
  EXPECT_NE(name, "");
#if !defined(STAR_SANITIZER_NAME)
  EXPECT_EQ(name, "none");
#endif
#if defined(STAR_TEST_ASAN)
  EXPECT_NE(name.find("address"), std::string::npos) << name;
#endif
}

// ---------------------------------------------------------------------------
// Invariant 1: ArrivalTrace ticks are strictly increasing.

TEST(Contracts, NonMonotoneTraceFiresInBatchSim) {
  workload::ArrivalTrace trace;
  trace.arrival_ticks = {1.0, 3.0, 2.0};  // forged: 3.0 -> 2.0 goes back
  const std::vector<std::int64_t> lens = {8, 8, 8};
  const serve::BatchSimConfig cfg{};
  if (contracts_enabled()) {
    EXPECT_THROW((void)serve::simulate_batching(trace, lens, cfg),
                 ContractViolation);
  } else {
    EXPECT_NO_THROW((void)serve::simulate_batching(trace, lens, cfg));
  }
}

TEST(Contracts, DuplicateTickFiresInBatchSim) {
  workload::ArrivalTrace trace;
  trace.arrival_ticks = {1.0, 1.0};  // equal ticks violate STRICT increase
  const std::vector<std::int64_t> lens = {4, 4};
  const serve::BatchSimConfig cfg{};
  if (contracts_enabled()) {
    EXPECT_THROW((void)serve::simulate_batching(trace, lens, cfg),
                 ContractViolation);
  } else {
    EXPECT_NO_THROW((void)serve::simulate_batching(trace, lens, cfg));
  }
}

TEST(Contracts, GeneratedTracesSatisfyMonotonicityContract) {
  // The constructor paths must never trip their own postcondition, even
  // with adversarially tiny gaps that stress the t + gap == t absorption
  // guard.
  const auto trace = workload::ArrivalTrace::from_gaps(
      {0.0, 0.0, 1e-300, 0.5, 0.0});
  ASSERT_EQ(trace.size(), 5u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace.arrival_ticks[i], trace.arrival_ticks[i - 1]) << i;
  }
  const std::vector<std::int64_t> lens(trace.size(), 8);
  EXPECT_NO_THROW(
      (void)serve::simulate_batching(trace, lens, serve::BatchSimConfig{}));
}

// ---------------------------------------------------------------------------
// Invariant 2: admission-queue conservation in the stats snapshot.

TEST(Contracts, RejectedWithoutSubmittedFiresOnSnapshot) {
  serve::StatsAccumulator acc;
  acc.on_rejected();  // forged: a rejection that was never submitted
  if (contracts_enabled()) {
    EXPECT_THROW((void)acc.snapshot(), ContractViolation);
  } else {
    EXPECT_NO_THROW((void)acc.snapshot());
  }
}

TEST(Contracts, CompletedWithoutAdmittedFiresOnSnapshot) {
  serve::StatsAccumulator acc;
  acc.on_submitted();
  serve::RequestStats rs;
  rs.seq_len = 4;
  acc.on_done(rs, /*ok=*/true);  // forged: completion without admission
  if (contracts_enabled()) {
    EXPECT_THROW((void)acc.snapshot(), ContractViolation);
  } else {
    EXPECT_NO_THROW((void)acc.snapshot());
  }
}

TEST(Contracts, BalancedLedgerSnapshotsClean) {
  serve::StatsAccumulator acc;
  acc.on_submitted();
  acc.on_admitted();
  acc.on_batch(/*occupancy=*/1, /*bucket=*/0, /*effective=*/4, /*padded=*/4,
               /*capacity=*/8);
  serve::RequestStats rs;
  rs.seq_len = 4;
  acc.on_done(rs, /*ok=*/true);
  serve::ServerStats snap;
  EXPECT_NO_THROW(snap = acc.snapshot());
  EXPECT_EQ(snap.completed, 1u);
}

// ---------------------------------------------------------------------------
// Invariant 3: token ledger (effective <= padded <= capacity).

TEST(Contracts, EffectiveExceedingPaddedFires) {
  serve::StatsAccumulator acc;
  const auto forged = [&acc] {
    acc.on_batch(/*occupancy=*/2, /*bucket=*/0, /*effective=*/10,
                 /*padded=*/5, /*capacity=*/20);
  };
  if (contracts_enabled()) {
    EXPECT_THROW(forged(), ContractViolation);
  } else {
    EXPECT_NO_THROW(forged());
  }
}

TEST(Contracts, PaddedExceedingCapacityFires) {
  serve::StatsAccumulator acc;
  const auto forged = [&acc] {
    acc.on_batch(/*occupancy=*/2, /*bucket=*/0, /*effective=*/5,
                 /*padded=*/30, /*capacity=*/20);
  };
  if (contracts_enabled()) {
    EXPECT_THROW(forged(), ContractViolation);
  } else {
    EXPECT_NO_THROW(forged());
  }
}

TEST(Contracts, EmptyBatchFires) {
  serve::StatsAccumulator acc;
  const auto forged = [&acc] {
    acc.on_batch(/*occupancy=*/0, /*bucket=*/0, /*effective=*/0,
                 /*padded=*/0, /*capacity=*/0);
  };
  if (contracts_enabled()) {
    EXPECT_THROW(forged(), ContractViolation);
  } else {
    EXPECT_NO_THROW(forged());
  }
}

// ---------------------------------------------------------------------------
// Invariant 4: residency hit/miss ledger consistency.

TEST(Contracts, ForgedResidencyTotalsFire) {
  xbar::ResidencyStats s;
  s.lookups = 5;
  s.hits = 2;
  s.misses = 2;  // forged: 2 + 2 != 5
  s.lut_hits = 2;
  s.lut_misses = 2;
  if (contracts_enabled()) {
    EXPECT_THROW(xbar::audit_ledger(s), ContractViolation);
  } else {
    EXPECT_NO_THROW(xbar::audit_ledger(s));
  }
}

TEST(Contracts, ForgedResidencyKindSplitFires) {
  xbar::ResidencyStats s;
  s.lookups = 4;
  s.hits = 2;
  s.misses = 2;
  s.lut_hits = 2;
  s.weight_hits = 2;  // forged: per-kind hits sum to 4, totals say 2
  s.lut_misses = 1;
  s.weight_misses = 1;
  if (contracts_enabled()) {
    EXPECT_THROW(xbar::audit_ledger(s), ContractViolation);
  } else {
    EXPECT_NO_THROW(xbar::audit_ledger(s));
  }
}

TEST(Contracts, LiveResidencyManagerAuditsClean) {
  // The real manager's ledger must satisfy its own audit on every stats()
  // read — hits, misses, and the per-kind splits all come from one code
  // path, so this doubles as a regression net on that accounting.
  xbar::ResidencyManager mgr(/*capacity=*/2);
  const hw::ProgramCost bill{};
  (void)mgr.acquire(xbar::weight_image_key(1), bill);  // miss
  (void)mgr.acquire(xbar::weight_image_key(1), bill);  // hit
  (void)mgr.acquire(xbar::weight_image_key(2), bill);  // miss
  (void)mgr.acquire(xbar::weight_image_key(3), bill);  // miss + evict
  xbar::ResidencyStats s;
  EXPECT_NO_THROW(s = mgr.stats());
  EXPECT_EQ(s.lookups, 4u);
  EXPECT_EQ(s.hits + s.misses, s.lookups);
  EXPECT_EQ(s.lut_hits + s.weight_hits, s.hits);
  EXPECT_EQ(s.lut_misses + s.weight_misses, s.misses);
}

// ---------------------------------------------------------------------------
// Invariant 5: latency reservoirs are index-paired and bounded (the
// reservoir-merge conservation Cluster::stats() re-audits per node).

TEST(Contracts, MismatchedReservoirPairFires) {
  const std::vector<double> queue_wait = {1.0, 2.0};
  const std::vector<double> service = {1.0};  // forged: pair broken
  if (contracts_enabled()) {
    EXPECT_THROW(serve::audit_reservoir_pair(queue_wait, service, 2),
                 ContractViolation);
  } else {
    EXPECT_NO_THROW(serve::audit_reservoir_pair(queue_wait, service, 2));
  }
}

TEST(Contracts, ReservoirLargerThanResolvedCountFires) {
  const std::vector<double> queue_wait = {1.0, 2.0};
  const std::vector<double> service = {1.0, 2.0};
  if (contracts_enabled()) {
    // Two samples but only one request ever resolved: conservation broken.
    EXPECT_THROW(serve::audit_reservoir_pair(queue_wait, service, 1),
                 ContractViolation);
  } else {
    EXPECT_NO_THROW(serve::audit_reservoir_pair(queue_wait, service, 1));
  }
}

TEST(Contracts, WellFormedReservoirPairIsClean) {
  const std::vector<double> queue_wait = {1.0, 2.0, 3.0};
  const std::vector<double> service = {0.5, 0.6, 0.7};
  EXPECT_NO_THROW(serve::audit_reservoir_pair(queue_wait, service, 3));
  EXPECT_NO_THROW(serve::audit_reservoir_pair({}, {}, 0));
}

}  // namespace
}  // namespace star
