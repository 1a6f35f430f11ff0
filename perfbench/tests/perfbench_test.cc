// Tests of the benchmark's own machinery: the nearest-rank percentile,
// the forwarding decorators, and that a decorated (traced) run of every
// workload reproduces the bare run's results and counters exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "geom/aabb.h"
#include "percentile.h"
#include "probe.h"
#include "workloads.h"

namespace perfbench {

// Names tiny-workload test cases by workload (found by argument lookup).
void PrintTo(const WorkloadSpec& spec, std::ostream* os) { *os << spec.name; }

namespace {

using scout::PageId;

// ------------------------------------------------------------ percentile

TEST(NearestRankTest, SingleSampleIsEveryPercentile) {
  EXPECT_EQ(NearestRank<int64_t>({42}, 1), 42);
  EXPECT_EQ(NearestRank<int64_t>({42}, 50), 42);
  EXPECT_EQ(NearestRank<int64_t>({42}, 99), 42);
}

TEST(NearestRankTest, EmptySampleReadsZero) {
  EXPECT_EQ(NearestRank<int64_t>({}, 50), 0);
}

TEST(NearestRankTest, FewerThanHundredSamples) {
  std::vector<int64_t> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(NearestRank(v, 50), 5);   // rank ceil(5.0) = 5
  EXPECT_EQ(NearestRank(v, 51), 6);   // rank ceil(5.1) = 6
  EXPECT_EQ(NearestRank(v, 90), 9);
  EXPECT_EQ(NearestRank(v, 99), 10);  // p99 of n < 100 is the maximum
  EXPECT_EQ(NearestRank(v, 100), 10);
  EXPECT_EQ(NearestRank(v, 0), 1);    // clamped to the minimum
}

TEST(NearestRankTest, TiesReturnTheTiedValue) {
  const std::vector<int64_t> v = {7, 3, 3, 3};
  EXPECT_EQ(NearestRank(v, 25), 3);
  EXPECT_EQ(NearestRank(v, 50), 3);
  EXPECT_EQ(NearestRank(v, 75), 3);
  EXPECT_EQ(NearestRank(v, 76), 7);
  EXPECT_EQ(NearestRank(v, 99), 7);
}

TEST(NearestRankTest, P99OfThousandIsRank990) {
  std::vector<int64_t> v;
  for (int64_t i = 1000; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(NearestRank(v, 99), 990);
  EXPECT_EQ(NearestRank(v, 50), 500);
}

// ------------------------------------------------------------ decorators

/// Index whose every virtual returns a distinctive value and counts.
class FakeIndex final : public scout::SpatialIndex {
 public:
  std::string_view name() const override { return "fake-index"; }
  const scout::PageStore& store() const override { return store_; }
  void QueryPages(const scout::Region& region,
                  std::vector<PageId>* out) const override {
    (void)region;
    ++query_pages;
    out->push_back(7);
  }
  bool SupportsNeighborhood() const override { return true; }
  const std::vector<PageId>& PageNeighbors(PageId page) const override {
    last_neighbor_page = page;
    return neighbors_;
  }
  void QueryPagesOrdered(const scout::Region& region, const scout::Vec3& start,
                         std::vector<PageId>* out) const override {
    (void)region;
    (void)start;
    ++ordered;
    out->push_back(5);
  }
  PageId NearestPage(const scout::Vec3& p) const override {
    (void)p;
    return 42;
  }

  mutable int query_pages = 0;
  mutable int ordered = 0;
  mutable PageId last_neighbor_page = scout::kInvalidPageId;

 private:
  scout::PageStore store_;
  std::vector<PageId> neighbors_ = {3};
};

/// Prefetcher whose every virtual records that it was reached.
class FakePrefetcher final : public scout::Prefetcher {
 public:
  std::string_view name() const override { return "fake-prefetcher"; }
  void BindSession(uint32_t session_id) override { bound = session_id; }
  void BeginSequence() override { ++begins; }
  scout::SimMicros Observe(const scout::QueryResultView& result) override {
    (void)result;
    ++observes;
    return 11;
  }
  bool SupportsPreparedObserve() const override { return true; }
  void PrepareObserve(const scout::QueryResultView& result,
                      scout::ObservePrep* prep) const override {
    (void)result;
    prep->valid = true;
    ++prepares;
  }
  scout::SimMicros Observe(const scout::QueryResultView& result,
                           scout::ObservePrep* prep) override {
    (void)result;
    ++prepared_observes;
    last_prep = prep;
    return 22;
  }
  void RunPrefetch(scout::PrefetchIo* io) override {
    std::vector<PageId> pages;
    io->QueryPages(region, &pages);
    io->FetchPage(pages.front());
    ++prefetches;
  }
  const scout::ObserveBreakdown& last_observe() const override {
    return breakdown;
  }

  scout::Region region = scout::Region(scout::Aabb::CubeWithVolume(
      scout::Vec3(0, 0, 0), 1.0));
  uint32_t bound = 0;
  int begins = 0;
  int observes = 0;
  mutable int prepares = 0;
  int prepared_observes = 0;
  int prefetches = 0;
  scout::ObservePrep* last_prep = nullptr;
  scout::ObserveBreakdown breakdown;
};

/// PrefetchIo that fetches everything and holds nothing.
class OpenIo final : public scout::PrefetchIo {
 public:
  explicit OpenIo(const scout::SpatialIndex* index) : index_(index) {}
  void QueryPages(const scout::Region& region,
                  std::vector<PageId>* out) override {
    index_->QueryPages(region, out);
  }
  bool IsCached(PageId page) const override { return page == 99; }
  bool FetchPage(PageId page) override {
    fetched.push_back(page);
    return true;
  }
  bool WindowOpen() const override { return true; }
  std::vector<PageId> fetched;

 private:
  const scout::SpatialIndex* index_;
};

class DecoratorTest : public ::testing::TestWithParam<bool> {};

TEST_P(DecoratorTest, IndexForwardsEveryVirtual) {
  Trace trace;
  Probe probe(GetParam() ? &trace : nullptr);
  FakeIndex fake;
  TracedIndex index(&fake, &probe);
  const scout::Region region(
      scout::Aabb::CubeWithVolume(scout::Vec3(1, 1, 1), 8.0));

  EXPECT_EQ(index.name(), "fake-index");
  EXPECT_EQ(&index.store(), &fake.store());
  std::vector<PageId> out;
  index.QueryPages(region, &out);
  EXPECT_EQ(fake.query_pages, 1);
  EXPECT_TRUE(index.SupportsNeighborhood());
  EXPECT_EQ(&index.PageNeighbors(8), &fake.PageNeighbors(8));
  EXPECT_EQ(fake.last_neighbor_page, 8u);
  index.QueryPagesOrdered(region, scout::Vec3(0, 0, 0), &out);
  EXPECT_EQ(fake.ordered, 1);
  EXPECT_EQ(index.NearestPage(scout::Vec3(0, 0, 0)), 42u);
  EXPECT_EQ(out, (std::vector<PageId>{7, 5}));
  // The QueryPages call issued the region's query.
  EXPECT_EQ(probe.open_queries(), 1u);
}

TEST_P(DecoratorTest, PrefetcherForwardsEveryVirtual) {
  Trace trace;
  Probe probe(GetParam() ? &trace : nullptr);
  FakeIndex fake_index;
  TracedIndex index(&fake_index, &probe);
  auto owned = std::make_unique<FakePrefetcher>();
  FakePrefetcher* fake = owned.get();
  fake->breakdown.graph_vertices = 17;
  TracedPrefetcher prefetcher(std::move(owned), &probe);

  EXPECT_EQ(prefetcher.name(), "fake-prefetcher");
  prefetcher.BindSession(5);
  EXPECT_EQ(fake->bound, 5u);
  prefetcher.BeginSequence();
  EXPECT_EQ(fake->begins, 1);
  EXPECT_TRUE(prefetcher.SupportsPreparedObserve());
  EXPECT_EQ(&prefetcher.last_observe(), &fake->breakdown);

  const scout::Region region(
      scout::Aabb::CubeWithVolume(scout::Vec3(1, 1, 1), 8.0));
  scout::QueryResultView view;
  view.region = &region;
  std::vector<PageId> pages;
  index.QueryPages(region, &pages);  // Issue.

  scout::ObservePrep prep;
  prefetcher.PrepareObserve(view, &prep);
  EXPECT_EQ(fake->prepares, 1);
  EXPECT_TRUE(prep.valid);
  // Each Observe overload reaches the same overload of the inner policy.
  EXPECT_EQ(prefetcher.Observe(view, &prep), 22);
  EXPECT_EQ(fake->prepared_observes, 1);
  EXPECT_EQ(fake->last_prep, &prep);
  EXPECT_EQ(prefetcher.Observe(view), 11);
  EXPECT_EQ(fake->observes, 1);

  OpenIo io(&index);
  prefetcher.RunPrefetch(&io);
  EXPECT_EQ(fake->prefetches, 1);
  EXPECT_EQ(io.fetched, (std::vector<PageId>{7}));
  // The plan's index walk did not issue a new query.
  EXPECT_EQ(probe.open_queries(), 0u);
  EXPECT_EQ(probe.TakeSamples().size(), 1u);
}

TEST(DecoratorTraceTest, SpansNestAndPlansAreRecorded) {
  Trace trace;
  Probe probe(&trace);
  FakeIndex fake_index;
  TracedIndex index(&fake_index, &probe);
  auto owned = std::make_unique<FakePrefetcher>();
  owned->breakdown.graph_vertices = 17;
  TracedPrefetcher prefetcher(std::move(owned), &probe);
  prefetcher.BindSession(3);
  prefetcher.BeginSequence();

  const scout::Region region(
      scout::Aabb::CubeWithVolume(scout::Vec3(1, 1, 1), 8.0));
  std::vector<PageId> pages;
  index.QueryPages(region, &pages);
  scout::QueryResultView view;
  view.region = &region;
  prefetcher.Observe(view);
  OpenIo io(&index);
  prefetcher.RunPrefetch(&io);

  const std::vector<std::vector<Span>> threads = trace.TakeSpans();
  ASSERT_EQ(threads.size(), 1u);
  const std::vector<Span>& s = threads[0];
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[0].op, Op::kQueryPages);
  EXPECT_EQ(s[0].parent, -1);
  EXPECT_EQ(s[1].op, Op::kObserve);
  EXPECT_EQ(s[2].op, Op::kRunPrefetch);
  EXPECT_EQ(s[3].op, Op::kQueryPages);
  EXPECT_EQ(s[3].parent, 2);  // The plan walk nests under RunPrefetch.
  for (const Span& span : s) {
    EXPECT_EQ(span.query, s[0].query);
    EXPECT_LE(span.start_ns, span.end_ns);
  }
  const std::vector<ObserveRecord> observes = trace.TakeObserves();
  ASSERT_EQ(observes.size(), 1u);
  EXPECT_EQ(observes[0].graph_vertices, 17u);
  const std::vector<PlanRecord> plans = trace.TakePlans();
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].session, 3u);
  EXPECT_EQ(plans[0].step, 0u);
  EXPECT_EQ(plans[0].pages, (std::vector<PageId>{7}));
}

INSTANTIATE_TEST_SUITE_P(TraceOnOff, DecoratorTest, ::testing::Bool());

// ------------------------------------------------- traced == bare runs

/// A small, fast instance of a benchmark workload: same serving shape,
/// small tissue, one short repetition, short device latency.
WorkloadSpec Tiny(const WorkloadSpec& spec) {
  WorkloadSpec tiny = spec;
  tiny.neuron_objects = 24000;
  tiny.min_queries = 60;
  tiny.device_latency_us = std::min<int64_t>(spec.device_latency_us, 20);
  tiny.think_time_us = std::min<int64_t>(spec.think_time_us, 20);
  return tiny;
}

class TinyWorkloadTest : public ::testing::TestWithParam<WorkloadSpec> {};

TEST_P(TinyWorkloadTest, TracedRunMatchesBareRun) {
  const WorkloadSpec spec = Tiny(GetParam());
  const std::string pagefile = ::testing::TempDir() + "perfbench_test_" +
                               std::string(spec.name) + ".pages";
  Stack stack;
  std::string error;
  ASSERT_TRUE(BuildStack(spec, 7, pagefile, &stack, &error)) << error;
  const Inputs inputs = MakeInputs(spec, stack, 11);
  ASSERT_GE(inputs.num_queries, spec.min_queries);

  Runner bare_runner(spec, stack, inputs, nullptr);
  const Rep bare = bare_runner.RunOnce();
  Trace trace;
  Probe probe(&trace);
  Runner traced_runner(spec, stack, inputs, &probe);
  const Rep traced = traced_runner.RunOnce();
  std::remove(pagefile.c_str());

  EXPECT_TRUE(bare.correct) << bare.error;
  EXPECT_TRUE(traced.correct) << traced.error;
  EXPECT_EQ(bare.failed_queries, 0u);
  EXPECT_EQ(traced.failed_queries, 0u);
  EXPECT_EQ(bare.counters, traced.counters);
  EXPECT_EQ(bare.counters.queries, inputs.num_queries);
  if (spec.file_backend) {
    EXPECT_EQ(bare.store_reads, traced.store_reads);
    EXPECT_EQ(traced.step_ns.size(), inputs.num_queries);
  }
  EXPECT_EQ(traced.response_ns.size(), inputs.num_queries);
  EXPECT_EQ(traced.traced_planned, traced.counters.planned_pages);
  EXPECT_EQ(probe.open_queries(), 0u);
  EXPECT_EQ(trace.TakeObserves().size(), inputs.num_queries);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TinyWorkloadTest, ::testing::ValuesIn(Workloads()),
    [](const ::testing::TestParamInfo<WorkloadSpec>& info) {
      std::string name(info.param.name);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace perfbench
