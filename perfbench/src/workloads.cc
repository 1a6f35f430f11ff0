#include "workloads.h"

#include <algorithm>
#include <utility>

#include "engine/experiment.h"
#include "engine/query_executor.h"
#include "percentile.h"
#include "prefetch/scout_prefetcher.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

namespace perfbench {
namespace {

using scout::PageId;

constexpr WorkloadSpec kWorkloads[] = {
    {.name = "follow-io",
     .microbench = "model-building",
     .neuron_objects = 120000,
     .file_backend = true,
     .device_latency_us = 300,
     .think_time_us = 300,
     .async_prefetch = true,
     .prefetch_budget_pages = 4,
     .min_queries = 9000},
    {.name = "follow-cpu",
     .microbench = "adhoc-stat",
     .neuron_objects = 345000,
     .file_backend = true,
     .device_latency_us = 0,
     .think_time_us = 0,
     .async_prefetch = false,
     .prefetch_budget_pages = 16,
     .min_queries = 18000},
    {.name = "gaps-miss",
     .microbench = "vis-gaps-high",
     .neuron_objects = 120000,
     .file_backend = true,
     .device_latency_us = 300,
     .think_time_us = 300,
     .async_prefetch = true,
     .prefetch_budget_pages = 4},
    {.name = "shared-sim",
     .microbench = "model-building",
     .neuron_objects = 120000,
     .file_backend = false,
     .sessions = 8,
     .workers = 2,
     .min_queries = 20000},
};

const scout::MicrobenchSpec& Microbench(std::string_view name) {
  for (const scout::MicrobenchSpec& m : scout::kMicrobenchmarks) {
    if (m.name == name) return m;
  }
  std::abort();  // The workload table names only Figure-10 specs.
}

/// Order-sensitive fold of per-sequence result hashes.
uint64_t FoldHash(uint64_t acc, uint64_t h) {
  return (acc ^ h) * 1099511628211ull;
}

std::unique_ptr<scout::Prefetcher> MakePrefetcher(Probe* probe) {
  auto scout_prefetcher =
      std::make_unique<scout::ScoutPrefetcher>(scout::ScoutConfig{});
  if (probe == nullptr) return scout_prefetcher;
  return std::make_unique<TracedPrefetcher>(std::move(scout_prefetcher),
                                            probe);
}

/// Adds one plan record's pages to the traced plan counts: a page is
/// useful when a later query of its sequence reads it.
void CountUseful(const std::vector<std::vector<PageId>>& sequence_pages,
                 const PlanRecord& record, Rep* rep) {
  for (PageId page : record.pages) {
    ++rep->traced_planned;
    for (size_t j = record.step + 1; j < sequence_pages.size(); ++j) {
      if (std::binary_search(sequence_pages[j].begin(),
                             sequence_pages[j].end(), page)) {
        ++rep->traced_useful;
        break;
      }
    }
  }
}

void Fail(Rep* rep, std::string message) {
  if (rep->correct) rep->error = std::move(message);
  rep->correct = false;
}

}  // namespace

std::span<const WorkloadSpec> Workloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

bool BuildStack(const WorkloadSpec& spec, uint64_t dataset_seed,
                const std::string& pagefile, Stack* out,
                std::string* error) {
  out->dataset = scout::GenerateNeuronTissue(
      scout::NeuronConfigForObjectCount(spec.neuron_objects, dataset_seed));
  auto built = scout::RTreeIndex::Build(out->dataset.objects);
  if (!built.ok()) {
    *error = "R-tree build failed: " + built.status().message();
    return false;
  }
  out->index = std::move(built).value();
  if (!spec.file_backend) return true;
  const scout::Status wrote =
      scout::FilePageStore::WriteFile(out->index->store(), pagefile);
  if (!wrote.ok()) {
    *error = "cannot write page file: " + wrote.message();
    return false;
  }
  scout::FilePageStoreOptions options;
  options.device_latency_us = spec.device_latency_us;
  auto opened = scout::FilePageStore::Open(pagefile, options);
  if (!opened.ok()) {
    *error = "cannot open page file: " + opened.status().message();
    return false;
  }
  out->store = std::move(opened).value();
  return true;
}

Inputs MakeInputs(const WorkloadSpec& spec, const Stack& stack,
                  uint64_t seed) {
  Inputs in;
  const scout::QuerySequenceConfig qcfg =
      scout::QueryConfigFor(Microbench(spec.microbench));
  scout::Rng rng(seed);
  auto add = [&](std::vector<scout::Region> queries) {
    in.num_queries += queries.size();
    in.sequences.push_back(std::move(queries));
  };
  while (in.num_queries < spec.min_queries) {
    if (spec.file_backend) {
      scout::Rng seq_rng = rng.Fork();
      scout::GuidedSequence seq =
          scout::GenerateGuidedSequence(stack.dataset, qcfg, &seq_rng);
      if (!seq.queries.empty()) add(std::move(seq.queries));
    } else {
      // MultiClientEngine's own derivation: session s = fork s.
      const uint64_t engine_seed = rng.NextUint64();
      in.engine_seeds.push_back(engine_seed);
      scout::Rng engine_rng(engine_seed);
      for (uint32_t s = 0; s < spec.sessions; ++s) {
        scout::Rng seq_rng = engine_rng.Fork();
        add(scout::GenerateGuidedSequence(stack.dataset, qcfg, &seq_rng)
                .queries);
      }
    }
  }
  scout::QueryExecutor::PreparedQuery prep;
  for (const std::vector<scout::Region>& seq : in.sequences) {
    uint64_t h = scout::QueryExecutor::kResultHashSeed;
    std::vector<std::vector<PageId>>& pages = in.oracle_pages.emplace_back();
    for (const scout::Region& region : seq) {
      scout::QueryExecutor::Prepare(*stack.index, region, &prep);
      h = scout::QueryExecutor::HashPreparedObjects(h, prep.objects);
      in.oracle_objects += prep.objects.size();
      pages.push_back(prep.pages);
    }
    in.oracle_hash.push_back(h);
  }
  return in;
}

Runner::Runner(const WorkloadSpec& spec, const Stack& stack,
               const Inputs& inputs, Probe* probe)
    : spec_(spec), stack_(stack), inputs_(inputs), probe_(probe) {
  const scout::SpatialIndex* index = stack.index.get();
  if (probe != nullptr) {
    traced_index_ = std::make_unique<TracedIndex>(index, probe);
    index = traced_index_.get();
  }
  const scout::MicrobenchSpec& mb = Microbench(spec.microbench);
  scout::ExecutorConfig ecfg =
      scout::ExecutorConfigFor(mb, stack.index->store());
  if (spec.file_backend) {
    ecfg.io.backend = scout::IoBackend::kFile;
    ecfg.io.store = stack.store.get();
    ecfg.io.async_prefetch = spec.async_prefetch;
    ecfg.io.prefetch_budget_pages = spec.prefetch_budget_pages;
    ecfg.io.think_time_us = spec.think_time_us;
    prefetcher_ = MakePrefetcher(probe);
    executor_ =
        std::make_unique<scout::QueryExecutor>(index, prefetcher_.get(), ecfg);
    return;
  }
  const scout::QuerySequenceConfig qcfg = scout::QueryConfigFor(mb);
  for (uint64_t seed : inputs.engine_seeds) {
    engines_.push_back(std::make_unique<scout::MultiClientEngine>(
        stack.dataset, *index, [probe] { return MakePrefetcher(probe); },
        qcfg, ecfg, spec.sessions, seed));
  }
}

Runner::~Runner() = default;

Rep Runner::RunOnce() { return spec_.file_backend ? RunFile() : RunEngines(); }

Rep Runner::RunFile() {
  Rep rep;
  Counters& c = rep.counters;
  Trace* trace = probe_ != nullptr ? probe_->trace() : nullptr;
  scout::FilePageStore* store = stack_.store.get();
  const uint64_t reads_before = store->reads();
  const uint64_t failed_before = store->failed_reads();
  const int64_t think_ns = spec_.think_time_us * 1000;
  for (size_t i = 0; i < inputs_.sequences.size(); ++i) {
    const std::vector<scout::Region>& seq = inputs_.sequences[i];
    const int64_t start = NowNs();
    const scout::FileSequenceStats stats = executor_->RunSequenceFile(seq);
    const int64_t end = NowNs();
    rep.serving_ns += end - start;
    rep.unit_queries.push_back(seq.size());
    rep.unit_ns.push_back(end - start);

    if (stats.result_hash != inputs_.oracle_hash[i]) {
      Fail(&rep, "sequence " + std::to_string(i) +
                     ": result hash differs from the in-memory oracle");
    }
    c.result_hash = FoldHash(c.result_hash, stats.result_hash);
    for (const scout::FileQueryStats& q : stats.queries) {
      ++c.queries;
      c.pages_total += q.pages_total;
      c.pages_hit += q.pages_hit;
      c.demand_reads += q.demand_reads;
      c.planned_pages += q.prefetch_planned;
      c.result_objects += q.result_objects;
      rep.late_hit_waits += q.late_hit_waits;
      if (q.outcome != scout::StatusCode::kOk) ++rep.failed_queries;
    }
    c.evictions += executor_->cache().evictions();

    if (probe_ == nullptr) continue;
    const std::vector<Probe::Sample> samples = probe_->TakeSamples();
    if (samples.size() != seq.size()) {
      Fail(&rep, "probe delivered " + std::to_string(samples.size()) +
                     " of " + std::to_string(seq.size()) + " queries");
      continue;
    }
    for (size_t k = 0; k < samples.size(); ++k) {
      const int64_t response = samples[k].deliver_ns - samples[k].issue_ns;
      const int64_t next =
          k + 1 < samples.size() ? samples[k + 1].issue_ns : end;
      const int64_t step = next - samples[k].issue_ns;
      rep.response_ns.push_back(response);
      rep.step_ns.push_back(step);
      rep.overrun_ns.push_back(std::max<int64_t>(0, step - response - think_ns));
    }
    if (trace != nullptr) {
      for (const PlanRecord& r : trace->TakePlans()) {
        CountUseful(inputs_.oracle_pages[i], r, &rep);
      }
    }
  }
  rep.store_reads = store->reads() - reads_before;
  rep.failed_reads = store->failed_reads() - failed_before;
  if (!spec_.async_prefetch) c.sync_store_reads = rep.store_reads;
  return rep;
}

Rep Runner::RunEngines() {
  Rep rep;
  Counters& c = rep.counters;
  Trace* trace = probe_ != nullptr ? probe_->trace() : nullptr;
  std::vector<uint64_t> sim_response;
  for (size_t e = 0; e < engines_.size(); ++e) {
    const int64_t start = NowNs();
    const scout::MultiClientOutcome outcome = engines_[e]->Run(spec_.workers);
    const int64_t run_ns = NowNs() - start;
    rep.serving_ns += run_ns;

    size_t engine_queries = 0;
    for (const scout::SequenceRunStats& run : outcome.runs) {
      for (const scout::QueryRunStats& q : run.queries) {
        ++engine_queries;
        c.pages_total += q.pages_total;
        c.pages_hit += q.pages_hit;
        c.demand_reads += q.pages_total - q.pages_hit;
        c.planned_pages += q.prefetch_pages;
        c.result_objects += q.result_objects;
        c.admission_closed_windows += q.admission_closed_window ? 1 : 0;
        c.sim_response_sum_us += static_cast<uint64_t>(q.response_us);
        sim_response.push_back(static_cast<uint64_t>(q.response_us));
        if (q.outcome != scout::StatusCode::kOk) ++rep.failed_queries;
      }
    }
    c.queries += engine_queries;
    rep.unit_queries.push_back(engine_queries);
    rep.unit_ns.push_back(run_ns);
    for (const scout::CacheSessionStats& s : outcome.cache_stats) {
      c.evictions += s.evictions_caused;
      c.hits_cross += s.hits_cross;
    }
    c.disk_requests += outcome.disk_stats.requests;
    c.disk_wait_us += static_cast<uint64_t>(outcome.disk_stats.wait_us);

    if (probe_ == nullptr) continue;
    const std::vector<Probe::Sample> samples = probe_->TakeSamples();
    if (samples.size() != engine_queries) {
      Fail(&rep, "probe delivered " + std::to_string(samples.size()) +
                     " of " + std::to_string(engine_queries) + " queries");
    }
    for (const Probe::Sample& s : samples) {
      rep.response_ns.push_back(s.deliver_ns - s.issue_ns);
    }
    if (trace != nullptr) {
      for (const PlanRecord& r : trace->TakePlans()) {
        CountUseful(inputs_.oracle_pages[e * spec_.sessions + r.session], r,
                    &rep);
      }
    }
  }
  if (c.result_objects != inputs_.oracle_objects) {
    Fail(&rep, "pooled result objects " + std::to_string(c.result_objects) +
                   " differ from the in-memory oracle's " +
                   std::to_string(inputs_.oracle_objects));
  }
  c.sim_response_p50_us = NearestRank(sim_response, 50);
  c.sim_response_p99_us = NearestRank(std::move(sim_response), 99);
  return rep;
}

std::pair<uint64_t, uint64_t> SimulatedResponse(const WorkloadSpec& spec,
                                                const Stack& stack,
                                                const Inputs& inputs) {
  scout::ScoutPrefetcher prefetcher{scout::ScoutConfig{}};
  scout::QueryExecutor executor(
      stack.index.get(), &prefetcher,
      scout::ExecutorConfigFor(Microbench(spec.microbench),
                               stack.index->store()));
  std::vector<uint64_t> response;
  response.reserve(inputs.num_queries);
  for (const std::vector<scout::Region>& seq : inputs.sequences) {
    for (const scout::QueryRunStats& q : executor.RunSequence(seq).queries) {
      response.push_back(static_cast<uint64_t>(q.response_us));
    }
  }
  const uint64_t p50 = NearestRank(response, 50);
  return {p50, NearestRank(std::move(response), 99)};
}

}  // namespace perfbench
