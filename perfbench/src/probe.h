#pragma once

// Measurement seam of the benchmark: forwarding decorators around the two
// virtual layer interfaces the serving paths call through (SpatialIndex
// and Prefetcher). The program under test is never modified; every
// number here is taken at a public call boundary.
//
//   - Probe: the always-on two-timestamp response probe. A query is
//     ISSUED at its region's first SpatialIndex::QueryPages call made
//     outside a RunPrefetch (QueryExecutor::Prepare's index walk) and
//     DELIVERED at the Prefetcher::Observe call that receives its result.
//   - Trace: the opt-in span recorder (--trace 1). Spans carry name,
//     start, end, parent and query id, are buffered per thread in memory
//     and handed out when the run ends.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "index/spatial_index.h"
#include "prefetch/prefetcher.h"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Query id of a span that belongs to no open query.
inline constexpr uint64_t kNoQuery = ~uint64_t{0};

/// The public call boundaries the decorators time.
enum class Op : uint8_t {
  kQueryPages,
  kQueryPagesOrdered,
  kNearestPage,
  kPageNeighbors,
  kPrepareObserve,
  kObserve,
  kRunPrefetch,
};

/// One timed call. `parent` indexes the enclosing span recorded on the
/// same thread (-1 at top level): index calls made inside RunPrefetch
/// nest under it, so self times subtract correctly.
struct Span {
  Op op = Op::kQueryPages;
  int32_t parent = -1;
  uint64_t query = kNoQuery;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// What a traced Observe read back from the prefetcher's own breakdown.
struct ObserveRecord {
  int64_t wall_graph_build_us = 0;
  int64_t wall_prediction_us = 0;
  size_t graph_vertices = 0;
};

/// Pages one RunPrefetch planned (fetched or enqueued, not already
/// cached), tagged with the session and the step of the query it
/// followed.
struct PlanRecord {
  uint32_t session = 0;
  uint32_t step = 0;
  std::vector<scout::PageId> pages;
};

/// In-memory span recorder. Each thread appends to its own buffer
/// (registered once under the mutex); the Take* calls must run after
/// every recording thread is quiescent.
class Trace {
 public:
  Trace();
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Opens a span on the calling thread; returns its handle for End.
  int32_t Begin(Op op, uint64_t query, int64_t now_ns);
  void End(int32_t span, int64_t now_ns);

  void AddObserve(const ObserveRecord& record);
  void AddPlan(PlanRecord record);

  /// Spans recorded so far, one vector per recording thread. The trace
  /// keeps recording into emptied buffers afterwards.
  std::vector<std::vector<Span>> TakeSpans();
  std::vector<ObserveRecord> TakeObserves();
  std::vector<PlanRecord> TakePlans();

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int32_t> open;  ///< Stack of open span indices.
  };
  Buffer* ThreadBuffer();

  const uint64_t uid_;  ///< Never reused: keys the per-thread lookup.
  std::mutex mu_;       ///< Guards the three vectors below.
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<ObserveRecord> observes_;
  std::vector<PlanRecord> plans_;
};

/// Two-timestamp response probe (see the file comment). Thread-safe:
/// the multi-client engine issues queries from its worker pool.
class Probe {
 public:
  struct Sample {
    uint64_t query = 0;
    int64_t issue_ns = 0;
    int64_t deliver_ns = 0;
  };

  /// `trace` (optional, borrowed) turns on span recording.
  explicit Probe(Trace* trace = nullptr) : trace_(trace) {}

  /// Opens the query of `region` (no-op if already open); returns its id.
  uint64_t Issue(const scout::Region* region, int64_t now_ns);
  /// Closes it and records a sample; kNoQuery if it was never issued.
  uint64_t Deliver(const scout::Region* region, int64_t now_ns);
  /// Id of the open query of `region`, or kNoQuery.
  uint64_t QueryOf(const scout::Region* region) const;

  /// Delivered samples in delivery order (moved out).
  std::vector<Sample> TakeSamples();
  /// Queries issued but not delivered (must be 0 after a run).
  size_t open_queries() const;

  Trace* trace() const { return trace_; }

 private:
  struct Open {
    uint64_t query = 0;
    int64_t issue_ns = 0;
  };
  Trace* const trace_;
  mutable std::mutex mu_;  ///< Guards the three members below.
  std::unordered_map<const scout::Region*, Open> open_;
  std::vector<Sample> samples_;
  uint64_t next_query_ = 0;
};

/// Forwarding SpatialIndex: every virtual goes to `inner`; QueryPages
/// feeds the probe, and with a trace every call records a span.
class TracedIndex final : public scout::SpatialIndex {
 public:
  TracedIndex(const scout::SpatialIndex* inner, Probe* probe)
      : inner_(inner), probe_(probe) {}

  std::string_view name() const override { return inner_->name(); }
  const scout::PageStore& store() const override { return inner_->store(); }
  void QueryPages(const scout::Region& region,
                  std::vector<scout::PageId>* out) const override;
  bool SupportsNeighborhood() const override {
    return inner_->SupportsNeighborhood();
  }
  const std::vector<scout::PageId>& PageNeighbors(
      scout::PageId page) const override;
  void QueryPagesOrdered(const scout::Region& region,
                         const scout::Vec3& start,
                         std::vector<scout::PageId>* out) const override;
  scout::PageId NearestPage(const scout::Vec3& p) const override;

 private:
  const scout::SpatialIndex* inner_;
  Probe* probe_;
};

/// Forwarding Prefetcher (owns the wrapped policy): every virtual goes
/// to the inner prefetcher, including the prepared-Observe overloads, so
/// the multi-client engine's worker-side graph builds stay enabled.
/// Observe feeds the probe; with a trace, Observe/PrepareObserve/
/// RunPrefetch record spans, Observe reads back last_observe(), and
/// RunPrefetch records the pages it planned.
class TracedPrefetcher final : public scout::Prefetcher {
 public:
  TracedPrefetcher(std::unique_ptr<scout::Prefetcher> inner, Probe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string_view name() const override { return inner_->name(); }
  void BindSession(uint32_t session_id) override;
  void BeginSequence() override;
  scout::SimMicros Observe(const scout::QueryResultView& result) override;
  bool SupportsPreparedObserve() const override {
    return inner_->SupportsPreparedObserve();
  }
  void PrepareObserve(const scout::QueryResultView& result,
                      scout::ObservePrep* prep) const override;
  scout::SimMicros Observe(const scout::QueryResultView& result,
                           scout::ObservePrep* prep) override;
  void RunPrefetch(scout::PrefetchIo* io) override;
  const scout::ObserveBreakdown& last_observe() const override {
    return inner_->last_observe();
  }

 private:
  /// Shared body of both Observe overloads; `prep` null means the
  /// one-argument overload.
  scout::SimMicros ObserveImpl(const scout::QueryResultView& result,
                               scout::ObservePrep* prep, bool prepared);

  std::unique_ptr<scout::Prefetcher> inner_;
  Probe* probe_;
  uint32_t session_ = 0;
  uint32_t observed_ = 0;  ///< Observe calls since BeginSequence.
  uint64_t query_ = kNoQuery;  ///< Query of the last Observe.
};

}  // namespace perfbench
