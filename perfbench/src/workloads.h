#pragma once

// The benchmark's workloads, their seeded inputs, the in-memory oracle
// they are checked against, and one repetition of serving them through
// the public serving APIs (QueryExecutor::RunSequenceFile on the
// real-I/O path, MultiClientEngine::Run on the simulated backend).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/multi_client_engine.h"
#include "index/rtree.h"
#include "probe.h"
#include "storage/file_page_store.h"
#include "workload/dataset.h"

namespace perfbench {

struct WorkloadSpec {
  std::string_view name;
  std::string_view microbench;  ///< Figure-10 sequence spec.
  uint64_t neuron_objects = 0;  ///< Tissue size.
  /// true: FilePageStore serving (RunSequenceFile). false: the simulated
  /// backend through MultiClientEngine.
  bool file_backend = true;
  int64_t device_latency_us = 0;  ///< Emulated per-read device time.
  int64_t think_time_us = 0;
  bool async_prefetch = false;
  size_t prefetch_budget_pages = 16;
  uint32_t sessions = 1;  ///< Sessions per engine (simulated backend).
  uint32_t workers = 1;   ///< Engine worker threads (simulated backend).
  /// Sequences (or engines) are generated until a repetition holds at
  /// least this many queries.
  size_t min_queries = 1000;
};

/// The benchmark's workloads, in BENCHMARK.json order.
std::span<const WorkloadSpec> Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// What set-up builds: the tissue, its STR R-tree and, on the file
/// backend, the page file written from the R-tree's layout and opened.
struct Stack {
  scout::Dataset dataset;
  std::unique_ptr<scout::RTreeIndex> index;
  std::unique_ptr<scout::FilePageStore> store;  ///< Null when simulated.
};

/// Builds the stack; on the file backend writes the page file at
/// `pagefile`. Returns false with `error` set on failure.
bool BuildStack(const WorkloadSpec& spec, uint64_t dataset_seed,
                const std::string& pagefile, Stack* out, std::string* error);

/// The seeded query sequences of one run and their in-memory oracle
/// (QueryExecutor::Prepare over the bare index).
struct Inputs {
  /// File backend: every sequence. Simulated backend: engine e's session
  /// s is sequence e * sessions + s — exactly the sequences the engine
  /// generates from its seed (session s = fork s of Rng(engine seed)).
  std::vector<std::vector<scout::Region>> sequences;
  std::vector<uint64_t> engine_seeds;  ///< Simulated backend only.
  /// Per sequence: HashPreparedObjects folded over its queries.
  std::vector<uint64_t> oracle_hash;
  /// [sequence][step]: result pages, ascending.
  std::vector<std::vector<std::vector<scout::PageId>>> oracle_pages;
  uint64_t oracle_objects = 0;  ///< Result objects over all queries.
  size_t num_queries = 0;
};

Inputs MakeInputs(const WorkloadSpec& spec, const Stack& stack,
                  uint64_t seed);

/// Counters of one repetition that are a pure function of the inputs:
/// identical across repetitions and between traced and untraced runs.
struct Counters {
  uint64_t queries = 0;
  uint64_t pages_total = 0;
  uint64_t pages_hit = 0;
  uint64_t demand_reads = 0;  ///< Reads issued for logical misses.
  uint64_t planned_pages = 0;
  uint64_t result_objects = 0;
  uint64_t result_hash = 0;  ///< Per-sequence hashes folded in order.
  uint64_t evictions = 0;
  /// Page-file reads; counted only on synchronous file workloads.
  uint64_t sync_store_reads = 0;
  // Simulated backend only (model output of the determinism oracle).
  uint64_t sim_response_sum_us = 0;
  uint64_t sim_response_p50_us = 0;
  uint64_t sim_response_p99_us = 0;
  uint64_t hits_cross = 0;
  uint64_t admission_closed_windows = 0;
  uint64_t disk_requests = 0;
  uint64_t disk_wait_us = 0;

  bool operator==(const Counters&) const = default;
};

/// One repetition: every sequence (or engine) served once.
struct Rep {
  Counters counters;
  bool correct = true;
  std::string error;  ///< First correctness violation.
  uint64_t failed_queries = 0;  ///< Outcome other than kOk.
  int64_t serving_ns = 0;  ///< Sum of RunSequenceFile / Run wall time.
  uint64_t store_reads = 0;
  uint64_t failed_reads = 0;
  uint64_t late_hit_waits = 0;
  /// Per serving unit (a sequence, or an engine run), in serving order:
  /// its query count and wall time.
  std::vector<size_t> unit_queries;
  std::vector<int64_t> unit_ns;
  /// Per query, in serving order (empty without a probe).
  std::vector<int64_t> response_ns;
  /// File backend with a probe: per-query step (issue to next issue or
  /// sequence end) and held-back time max(0, step - response - think).
  std::vector<int64_t> step_ns;
  std::vector<int64_t> overrun_ns;
  /// Traced runs only: pages the prefetchers planned, and how many of
  /// them a later query of the same sequence touches.
  uint64_t traced_planned = 0;
  uint64_t traced_useful = 0;
};

/// Serves a workload repeatedly through one serving stack. With a
/// probe, the index and every prefetcher are wrapped in the forwarding
/// decorators; without one (tests) they run bare.
class Runner {
 public:
  Runner(const WorkloadSpec& spec, const Stack& stack, const Inputs& inputs,
         Probe* probe);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  Rep RunOnce();

 private:
  Rep RunFile();
  Rep RunEngines();

  const WorkloadSpec& spec_;
  const Stack& stack_;
  const Inputs& inputs_;
  Probe* probe_;
  std::unique_ptr<TracedIndex> traced_index_;
  std::unique_ptr<scout::Prefetcher> prefetcher_;     ///< File backend.
  std::unique_ptr<scout::QueryExecutor> executor_;    ///< File backend.
  std::vector<std::unique_ptr<scout::MultiClientEngine>> engines_;
};

/// Simulated response of the same sequences under the DiskModel oracle
/// (file workloads; QueryExecutor::RunSequence with the Figure-10
/// executor config): {p50, p99} in simulated microseconds.
std::pair<uint64_t, uint64_t> SimulatedResponse(const WorkloadSpec& spec,
                                                const Stack& stack,
                                                const Inputs& inputs);

}  // namespace perfbench
