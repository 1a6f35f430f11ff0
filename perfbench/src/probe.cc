#include "probe.h"

#include <atomic>
#include <utility>

namespace perfbench {
namespace {

std::atomic<uint64_t> g_next_trace_uid{1};

/// Per-thread lookup of the calling thread's buffer in each live trace
/// (uids are never reused, so entries of destroyed traces never match).
thread_local std::vector<std::pair<uint64_t, void*>> t_buffers;

/// Inside a traced RunPrefetch on this thread: index calls made here are
/// the prefetcher's plan walks, not query issues, and belong to the
/// query the prefetcher last observed.
thread_local int t_plan_depth = 0;
thread_local uint64_t t_plan_query = kNoQuery;

/// Runs `call` inside a span when tracing is on.
template <typename Fn>
decltype(auto) Timed(Trace* trace, Op op, uint64_t query, Fn&& call) {
  if (trace == nullptr) return call();
  struct Closer {
    Trace* trace;
    int32_t span;
    ~Closer() { trace->End(span, NowNs()); }
  } closer{trace, trace->Begin(op, query, NowNs())};
  return call();
}

/// Forwarding PrefetchIo that records which pages a RunPrefetch planned:
/// a FetchPage that succeeds on a page the inner io did not already hold.
class PlanRecordingIo final : public scout::PrefetchIo {
 public:
  explicit PlanRecordingIo(scout::PrefetchIo* inner) : inner_(inner) {}

  void QueryPages(const scout::Region& region,
                  std::vector<scout::PageId>* out) override {
    inner_->QueryPages(region, out);
  }
  bool IsCached(scout::PageId page) const override {
    return inner_->IsCached(page);
  }
  bool FetchPage(scout::PageId page) override {
    const bool held = inner_->IsCached(page);
    const bool ok = inner_->FetchPage(page);
    if (ok && !held) planned_.push_back(page);
    return ok;
  }
  bool WindowOpen() const override { return inner_->WindowOpen(); }

  std::vector<scout::PageId>& planned() { return planned_; }

 private:
  scout::PrefetchIo* inner_;
  std::vector<scout::PageId> planned_;
};

}  // namespace

// ------------------------------------------------------------------ Trace

Trace::Trace() : uid_(g_next_trace_uid.fetch_add(1)) {}

Trace::Buffer* Trace::ThreadBuffer() {
  for (const auto& [uid, buffer] : t_buffers) {
    if (uid == uid_) return static_cast<Buffer*>(buffer);
  }
  Buffer* buffer = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
  }
  t_buffers.emplace_back(uid_, buffer);
  return buffer;
}

int32_t Trace::Begin(Op op, uint64_t query, int64_t now_ns) {
  Buffer* b = ThreadBuffer();
  Span span;
  span.op = op;
  span.parent = b->open.empty() ? -1 : b->open.back();
  span.query = query;
  span.start_ns = now_ns;
  const auto index = static_cast<int32_t>(b->spans.size());
  b->spans.push_back(span);
  b->open.push_back(index);
  return index;
}

void Trace::End(int32_t span, int64_t now_ns) {
  Buffer* b = ThreadBuffer();
  b->spans[static_cast<size_t>(span)].end_ns = now_ns;
  b->open.pop_back();
}

void Trace::AddObserve(const ObserveRecord& record) {
  const std::lock_guard<std::mutex> lock(mu_);
  observes_.push_back(record);
}

void Trace::AddPlan(PlanRecord record) {
  const std::lock_guard<std::mutex> lock(mu_);
  plans_.push_back(std::move(record));
}

std::vector<std::vector<Span>> Trace::TakeSpans() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<Span>> out;
  out.reserve(buffers_.size());
  for (const auto& b : buffers_) out.push_back(std::exchange(b->spans, {}));
  return out;
}

std::vector<ObserveRecord> Trace::TakeObserves() {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(observes_, {});
}

std::vector<PlanRecord> Trace::TakePlans() {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(plans_, {});
}

// ------------------------------------------------------------------ Probe

uint64_t Probe::Issue(const scout::Region* region, int64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = open_.try_emplace(region);
  if (inserted) it->second = Open{next_query_++, now_ns};
  return it->second.query;
}

uint64_t Probe::Deliver(const scout::Region* region, int64_t now_ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = open_.find(region);
  if (it == open_.end()) return kNoQuery;
  const Open open = it->second;
  open_.erase(it);
  samples_.push_back(Sample{open.query, open.issue_ns, now_ns});
  return open.query;
}

uint64_t Probe::QueryOf(const scout::Region* region) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = open_.find(region);
  return it == open_.end() ? kNoQuery : it->second.query;
}

std::vector<Probe::Sample> Probe::TakeSamples() {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(samples_, {});
}

size_t Probe::open_queries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return open_.size();
}

// ------------------------------------------------------------ TracedIndex

void TracedIndex::QueryPages(const scout::Region& region,
                             std::vector<scout::PageId>* out) const {
  const uint64_t query = t_plan_depth > 0
                             ? t_plan_query
                             : probe_->Issue(&region, NowNs());
  Timed(probe_->trace(), Op::kQueryPages, query,
        [&] { inner_->QueryPages(region, out); });
}

const std::vector<scout::PageId>& TracedIndex::PageNeighbors(
    scout::PageId page) const {
  return Timed(probe_->trace(), Op::kPageNeighbors, t_plan_query,
               [&]() -> const std::vector<scout::PageId>& {
                 return inner_->PageNeighbors(page);
               });
}

void TracedIndex::QueryPagesOrdered(const scout::Region& region,
                                    const scout::Vec3& start,
                                    std::vector<scout::PageId>* out) const {
  Timed(probe_->trace(), Op::kQueryPagesOrdered, t_plan_query,
        [&] { inner_->QueryPagesOrdered(region, start, out); });
}

scout::PageId TracedIndex::NearestPage(const scout::Vec3& p) const {
  return Timed(probe_->trace(), Op::kNearestPage, t_plan_query,
               [&] { return inner_->NearestPage(p); });
}

// ------------------------------------------------------- TracedPrefetcher

void TracedPrefetcher::BindSession(uint32_t session_id) {
  session_ = session_id;
  inner_->BindSession(session_id);
}

void TracedPrefetcher::BeginSequence() {
  observed_ = 0;
  query_ = kNoQuery;
  inner_->BeginSequence();
}

scout::SimMicros TracedPrefetcher::Observe(
    const scout::QueryResultView& result) {
  return ObserveImpl(result, nullptr, /*prepared=*/false);
}

scout::SimMicros TracedPrefetcher::Observe(
    const scout::QueryResultView& result, scout::ObservePrep* prep) {
  return ObserveImpl(result, prep, /*prepared=*/true);
}

scout::SimMicros TracedPrefetcher::ObserveImpl(
    const scout::QueryResultView& result, scout::ObservePrep* prep,
    bool prepared) {
  const int64_t now = NowNs();
  query_ = probe_->Deliver(result.region, now);
  ++observed_;
  Trace* trace = probe_->trace();
  if (trace == nullptr) {
    return prepared ? inner_->Observe(result, prep) : inner_->Observe(result);
  }
  const int32_t span = trace->Begin(Op::kObserve, query_, now);
  const scout::SimMicros cost =
      prepared ? inner_->Observe(result, prep) : inner_->Observe(result);
  trace->End(span, NowNs());
  const scout::ObserveBreakdown& b = inner_->last_observe();
  trace->AddObserve(ObserveRecord{b.wall_graph_build_us,
                                  b.wall_prediction_us, b.graph_vertices});
  return cost;
}

void TracedPrefetcher::PrepareObserve(const scout::QueryResultView& result,
                                      scout::ObservePrep* prep) const {
  Trace* trace = probe_->trace();
  const uint64_t query =
      trace == nullptr ? kNoQuery : probe_->QueryOf(result.region);
  Timed(trace, Op::kPrepareObserve, query,
        [&] { inner_->PrepareObserve(result, prep); });
}

void TracedPrefetcher::RunPrefetch(scout::PrefetchIo* io) {
  struct PlanScope {
    uint64_t saved = t_plan_query;
    explicit PlanScope(uint64_t query) {
      ++t_plan_depth;
      t_plan_query = query;
    }
    ~PlanScope() {
      --t_plan_depth;
      t_plan_query = saved;
    }
  } scope(query_);
  Trace* trace = probe_->trace();
  if (trace == nullptr) {
    inner_->RunPrefetch(io);
    return;
  }
  PlanRecordingIo recording(io);
  Timed(trace, Op::kRunPrefetch, query_,
        [&] { inner_->RunPrefetch(&recording); });
  trace->AddPlan(PlanRecord{session_, observed_ == 0 ? 0 : observed_ - 1,
                            std::move(recording.planned())});
}

}  // namespace perfbench
