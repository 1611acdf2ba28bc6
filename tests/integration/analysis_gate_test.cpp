// End-to-end: the driver's pre-flight schedule verification and post-run
// ledger audit both pass on real parallel constructions — theory and
// runtime agree byte-for-byte — and the verified cube is still correct.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cubist/cubist.h"

namespace cubist {
namespace {

BlockProvider provider_of(const SparseSpec& spec) {
  return [spec](int, const BlockRange& block) {
    return generate_sparse_block(spec, block);
  };
}

ParallelOptions gated_options() {
  ParallelOptions options;
  options.verify_schedule = true;
  options.audit_volume = true;
  options.model_check = true;
  options.audit_hb = true;
  return options;
}

TEST(AnalysisGateTest, VerifiedAndAuditedRunMatchesReference) {
  SparseSpec spec;
  spec.sizes = {16, 8, 8};
  spec.density = 0.2;
  spec.seed = 11;
  const auto report =
      run_parallel_cube(spec.sizes, {1, 1, 0}, CostModel{}, provider_of(spec),
                        /*collect_result=*/true, gated_options());
  ASSERT_TRUE(report.cube.has_value());
  const SparseArray global = generate_sparse_global(spec);
  const CubeResult reference = build_cube_sequential(global);
  EXPECT_EQ(compare_cubes(reference, *report.cube), "");
}

TEST(AnalysisGateTest, AuditHoldsAcrossGridsAndMessageCaps) {
  SparseSpec spec;
  spec.sizes = {16, 8, 4};
  spec.density = 0.3;
  spec.seed = 3;
  for (const std::vector<int>& splits :
       {std::vector<int>{1, 1, 1}, {2, 1, 0}, {0, 0, 0}}) {
    for (std::int64_t cap : {std::int64_t{0}, std::int64_t{5}}) {
      ParallelOptions options = gated_options();
      options.reduce_message_elements = cap;
      EXPECT_NO_THROW(run_parallel_cube(spec.sizes, splits, CostModel{},
                                        provider_of(spec),
                                        /*collect_result=*/false, options))
          << "splits " << splits.size() << " cap " << cap;
    }
  }
}

TEST(AnalysisGateTest, AuditHoldsForUnevenExtents) {
  // Balanced splits of non-divisible extents: Lemma 1 still exact.
  SparseSpec spec;
  spec.sizes = {7, 5, 3};
  spec.density = 0.5;
  spec.seed = 29;
  EXPECT_NO_THROW(run_parallel_cube(spec.sizes, {1, 1, 1}, CostModel{},
                                    provider_of(spec),
                                    /*collect_result=*/false,
                                    gated_options()));
}

TEST(AnalysisGateTest, ModelCheckGateCertifiesSmallGrids) {
  // Within the exhaustive regime (<= kModelCheckMaxRanks) the driver's
  // pre-flight model check explores every interleaving; the same check is
  // directly accessible for tooling, with real DPOR pruning.
  ScheduleSpec sched;
  sched.sizes = {8, 8, 4};
  sched.log_splits = {1, 1, 0};
  const InterleavingReport interleavings =
      check_interleavings(build_comm_plan(sched).ir());
  EXPECT_TRUE(interleavings.ok()) << interleavings.to_string();
  EXPECT_TRUE(interleavings.stats.exhausted);
  EXPECT_GT(interleavings.stats.transitions_pruned, 0);

  SparseSpec spec;
  spec.sizes = sched.sizes;
  spec.density = 0.3;
  spec.seed = 5;
  EXPECT_NO_THROW(run_parallel_cube(spec.sizes, sched.log_splits, CostModel{},
                                    provider_of(spec),
                                    /*collect_result=*/false,
                                    gated_options()));
}

TEST(AnalysisGateTest, HbAuditGateAcceptsGatheredRuns) {
  // audit_hb records the full run — construction, barrier, result gather —
  // and the offline happens-before rebuild must accept all of it.
  SparseSpec spec;
  spec.sizes = {8, 6, 4};
  spec.density = 0.4;
  spec.seed = 13;
  ParallelOptions options = gated_options();
  options.reduce_message_elements = 7;
  const auto report =
      run_parallel_cube(spec.sizes, {1, 1, 0}, CostModel{}, provider_of(spec),
                        /*collect_result=*/true, options);
  EXPECT_GT(report.run.trace.total_events(), 0);
  const HbAuditReport hb = audit_event_trace(report.run.trace);
  EXPECT_TRUE(hb.ok()) << hb.to_string();
  EXPECT_GT(hb.message_edges, 0);
}

TEST(AnalysisGateTest, StandaloneVerifierCertifiesDriverSchedule) {
  // What the driver gates on is also directly accessible to tooling.
  ScheduleSpec spec;
  spec.sizes = {16, 8, 8};
  spec.log_splits = {1, 1, 0};
  const AnalysisReport report = verify_schedule(spec);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.planned_total_elements, report.predicted_total_elements);
  EXPECT_LE(report.max_peak_live_bytes, report.memory_bound_bytes);
  EXPECT_GT(report.planned_messages, 0);
}

TEST(AnalysisGateTest, RankStatsEqualTheStaticPlan) {
  // The executor allocates and releases view blocks in the plan's exact
  // order: replaying a rank's planned memory events through a ledger gives
  // its measured peak, and its planned final views are exactly the bytes
  // it writes back. Uneven extents give every rank its own block sizes.
  SparseSpec spec;
  spec.sizes = {9, 7, 6, 5};
  spec.density = 0.3;
  spec.seed = 31;
  for (const std::vector<int>& log_splits :
       {std::vector<int>{0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 1, 0},
        {1, 1, 0, 0}, {2, 1, 0, 0}, {1, 1, 1, 0}, {1, 1, 1, 1}}) {
    const auto report =
        run_parallel_cube(spec.sizes, log_splits, CostModel{},
                          provider_of(spec), /*collect_result=*/false);
    ScheduleSpec sched;
    sched.sizes = spec.sizes;
    sched.log_splits = log_splits;
    const CommPlan plan = build_comm_plan(sched);
    ASSERT_EQ(report.rank_stats.size(), plan.ranks.size());
    for (std::size_t r = 0; r < plan.ranks.size(); ++r) {
      MemoryLedger ledger;
      std::map<std::uint32_t, std::int64_t> bytes_of;
      for (const PlannedMemoryEvent& event : plan.ranks[r].memory) {
        if (event.kind == PlannedMemoryEvent::Kind::kAlloc) {
          ledger.alloc(event.bytes);
          bytes_of[event.view] = event.bytes;
        } else {
          ledger.release(event.bytes);
        }
      }
      std::int64_t final_bytes = 0;
      for (std::uint32_t view : plan.ranks[r].final_views) {
        final_bytes += bytes_of.at(view);
      }
      EXPECT_EQ(report.rank_stats[r].peak_live_bytes, ledger.peak_bytes())
          << "grid " << ::testing::PrintToString(log_splits) << " rank " << r;
      EXPECT_EQ(report.rank_stats[r].written_bytes, final_bytes)
          << "grid " << ::testing::PrintToString(log_splits) << " rank " << r;
    }
  }
}

TEST(AnalysisGateTest, MeasuredScratchStaysUnderTheStaticBound) {
  // The static memory certificate is Theorem 4 alone: the kernels write
  // every child cell in place, so no rank and no sequential build holds
  // transient scan scratch, and the measured live view-block bytes stay
  // under the verifier's Theorem-4 bound. The sequential build runs on
  // the global pool, so on a multi-core host its root scan splits.
  SparseSpec spec;
  spec.sizes = {64, 48, 32};
  spec.density = 0.4;
  spec.seed = 17;
  const std::vector<int> log_splits = {1, 1, 0};
  const auto report =
      run_parallel_cube(spec.sizes, log_splits, CostModel{}, provider_of(spec),
                        /*collect_result=*/false, gated_options());

  ScheduleSpec sched;
  sched.sizes = spec.sizes;
  sched.log_splits = log_splits;
  const AnalysisReport verified = verify_schedule(sched);
  ASSERT_TRUE(verified.ok()) << verified.to_string();
  ASSERT_EQ(report.rank_stats.size(), std::size_t{4});
  for (std::size_t r = 0; r < report.rank_stats.size(); ++r) {
    EXPECT_EQ(report.rank_stats[r].peak_scratch_bytes, 0) << "rank " << r;
    EXPECT_LE(report.rank_stats[r].peak_live_bytes,
              verified.memory_bound_bytes)
        << "rank " << r;
  }
  BuildStats sequential;
  build_cube_sequential(generate_sparse_global(spec), &sequential);
  EXPECT_EQ(sequential.peak_scratch_bytes, 0);
}

}  // namespace
}  // namespace cubist
