// scout_perfbench: the repository's benchmark. One invocation sets up
// one workload, serves it through the public serving APIs for a fixed
// wall-clock budget, checks the results against the in-memory oracle,
// and prints its metrics. See perfbench/README.md for the workloads,
// metrics and the layer -> end-to-end map.
//
//   scout_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--workdir DIR]
//
// Output: a fingerprint line, a report line, then (last line) the result
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 runs an untraced and a traced pass
// and reports the per-layer metrics. Exit status 1 on any gate failure.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "percentile.h"
#include "probe.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Set-ups per run: repeated until kSetupBudgetS of set-up time has
/// passed, at least kMinSetups and at most kMaxSetups times; setup_s is
/// their median.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 25;
constexpr double kSetupBudgetS = 2.0;
/// Reads replayed through FilePageStore::ReadPage for storage.read_*.
constexpr size_t kReplayReads = 2000;
/// Traced file runs: time outside every query step (sequence start-up
/// and teardown) may be at most this share of serving wall time.
constexpr double kReconcileTolerancePct = 5.0;
/// Timing metrics are medians over chunks of at least this many
/// consecutive queries (whole sequences or engine runs), so that a
/// transient stall of the host moves them less than a pooled figure.
constexpr size_t kChunkQueries = 1000;
/// Spans per thread written to the trace file.
constexpr size_t kTraceFileSpans = 50000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir = ".";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Path of the live page file, for the termination handler.
char g_pagefile[4096];

extern "C" void RemovePageFileAndExit(int sig) {
  unlink(g_pagefile);
  _exit(128 + sig);
}

/// Removes the run's page file on every exit path, including SIGTERM
/// and SIGINT.
struct PageFile {
  explicit PageFile(std::string p) : path(std::move(p)) {
    std::snprintf(g_pagefile, sizeof(g_pagefile), "%s", path.c_str());
    std::signal(SIGTERM, RemovePageFileAndExit);
    std::signal(SIGINT, RemovePageFileAndExit);
  }
  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;
  ~PageFile() { std::remove(path.c_str()); }

  const std::string path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

double PerQuery(double total, uint64_t queries) {
  return queries == 0 ? 0.0 : total / static_cast<double>(queries);
}

double Pct(double part, double whole) {
  return whole <= 0 ? 0.0 : 100.0 * part / whole;
}

void PrintFingerprint(const Args& args, const WorkloadSpec& spec) {
  std::printf(
      "{\"fingerprint\": {\"nproc\": %u, \"cpu_model\": %s, \"simd\": \"%s\", "
      "\"build_type\": \"%s\", \"workload\": \"%s\", \"backend\": \"%s\", "
      "\"device_latency_us\": %lld, \"think_time_us\": %lld, "
      "\"async_prefetch\": %s, \"prefetch_budget_pages\": %zu, "
      "\"sessions\": %u, \"workers\": %u, \"neuron_objects\": %llu, "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
      std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(),
      scout::simd::kLaneName, PERFBENCH_BUILD_TYPE,
      std::string(spec.name).c_str(),
      spec.file_backend ? "file" : "simulated",
      static_cast<long long>(spec.device_latency_us),
      static_cast<long long>(spec.think_time_us),
      spec.async_prefetch ? "true" : "false", spec.prefetch_budget_pages,
      spec.sessions, spec.workers,
      static_cast<unsigned long long>(spec.neuron_objects),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " + value +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

/// Gate bookkeeping: the first failure message wins, every one is
/// printed to stderr.
struct Gates {
  bool ok = true;
  void Check(bool pass, const std::string& what) {
    if (pass) return;
    ok = false;
    std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", what.c_str());
  }
};

/// Serves repetitions while the next one is expected to end within
/// `seconds` of wall time (at least `min_reps`, at most `max_reps` when
/// nonzero).
std::vector<Rep> Serve(Runner* runner, double seconds, size_t min_reps,
                       size_t max_reps) {
  std::vector<Rep> reps;
  const int64_t start = NowNs();
  const auto budget_ns = static_cast<int64_t>(seconds * 1e9);
  int64_t last_ns = 0;
  while (reps.size() < min_reps ||
         (NowNs() - start + last_ns <= budget_ns &&
          (max_reps == 0 || reps.size() < max_reps))) {
    const int64_t rep_start = NowNs();
    reps.push_back(runner->RunOnce());
    last_ns = NowNs() - rep_start;
  }
  return reps;
}

/// Correctness, determinism and probe-coverage gates over the
/// repetitions of one pass, checked against `reference`'s counters.
void CheckReps(const std::vector<Rep>& reps, const Counters& reference,
               const char* pass, Gates* gates) {
  for (size_t r = 0; r < reps.size(); ++r) {
    const std::string where =
        std::string(pass) + " repetition " + std::to_string(r);
    gates->Check(reps[r].correct, where + ": " + reps[r].error);
    gates->Check(reps[r].counters == reference,
                 where + ": deterministic counters differ from repetition 0 "
                         "of the untraced pass");
  }
}

/// Per-chunk timing statistics of a pass.
struct Chunks {
  std::vector<double> queries_per_s;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
};

/// Splits each repetition into chunks of at least kChunkQueries queries
/// (the last chunk of a repetition absorbs its remainder).
Chunks ChunkTimings(const std::vector<Rep>& reps) {
  Chunks out;
  for (const Rep& rep : reps) {
    const size_t total = rep.response_ns.size();
    size_t first = 0;
    size_t n = 0;
    int64_t ns = 0;
    for (size_t u = 0; u < rep.unit_queries.size(); ++u) {
      n += rep.unit_queries[u];
      ns += rep.unit_ns[u];
      const bool last = u + 1 == rep.unit_queries.size();
      if (!last && (n < kChunkQueries || total - first - n < kChunkQueries)) {
        continue;
      }
      const std::vector<int64_t> chunk(
          rep.response_ns.begin() + static_cast<std::ptrdiff_t>(first),
          rep.response_ns.begin() + static_cast<std::ptrdiff_t>(first + n));
      out.queries_per_s.push_back(static_cast<double>(n) * 1e9 /
                                  static_cast<double>(ns));
      out.p50_us.push_back(static_cast<double>(NearestRank(chunk, 50)) * 1e-3);
      out.p99_us.push_back(static_cast<double>(NearestRank(chunk, 99)) * 1e-3);
      first += n;
      n = 0;
      ns = 0;
    }
  }
  return out;
}

struct PassTotals {
  uint64_t queries = 0;
  uint64_t failed = 0;
  int64_t serving_ns = 0;
  std::vector<int64_t> response_ns;
  std::vector<int64_t> step_ns;
  std::vector<int64_t> overrun_ns;
  uint64_t store_reads = 0;
  uint64_t failed_reads = 0;
  uint64_t late_hit_waits = 0;
  uint64_t traced_planned = 0;
  uint64_t traced_useful = 0;
  uint64_t planned = 0;

  double QueriesPerS() const {
    return serving_ns <= 0 ? 0.0
                           : static_cast<double>(queries) * 1e9 /
                                 static_cast<double>(serving_ns);
  }
};

PassTotals Totals(const std::vector<Rep>& reps) {
  PassTotals t;
  for (const Rep& r : reps) {
    t.queries += r.counters.queries;
    t.failed += r.failed_queries;
    t.serving_ns += r.serving_ns;
    t.response_ns.insert(t.response_ns.end(), r.response_ns.begin(),
                         r.response_ns.end());
    t.step_ns.insert(t.step_ns.end(), r.step_ns.begin(), r.step_ns.end());
    t.overrun_ns.insert(t.overrun_ns.end(), r.overrun_ns.begin(),
                        r.overrun_ns.end());
    t.store_reads += r.store_reads;
    t.failed_reads += r.failed_reads;
    t.late_hit_waits += r.late_hit_waits;
    t.traced_planned += r.traced_planned;
    t.traced_useful += r.traced_useful;
    t.planned += r.counters.planned_pages;
  }
  return t;
}

int64_t Sum(const std::vector<int64_t>& v) {
  int64_t s = 0;
  for (int64_t x : v) s += x;
  return s;
}

/// Wall time of the traced spans, split by the stage they measure.
struct Stages {
  int64_t issue_index_ns = 0;  ///< Top-level index calls (query issue).
  int64_t plan_index_ns = 0;   ///< Index calls nested in RunPrefetch.
  uint64_t index_calls = 0;
  int64_t observe_ns = 0;
  int64_t prefetch_ns = 0;       ///< RunPrefetch, children included.
  int64_t prefetch_self_ns = 0;  ///< RunPrefetch minus nested index calls.
};

Stages Summarize(const std::vector<std::vector<Span>>& threads) {
  Stages s;
  for (const std::vector<Span>& spans : threads) {
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const int64_t dur = span.end_ns - span.start_ns;
      switch (span.op) {
        case Op::kQueryPages:
        case Op::kQueryPagesOrdered:
        case Op::kNearestPage:
        case Op::kPageNeighbors:
          ++s.index_calls;
          (span.parent < 0 ? s.issue_index_ns : s.plan_index_ns) +=
              dur - child_ns[i];
          break;
        case Op::kObserve:
          s.observe_ns += dur - child_ns[i];
          break;
        case Op::kRunPrefetch:
          s.prefetch_ns += dur;
          s.prefetch_self_ns += dur - child_ns[i];
          break;
        case Op::kPrepareObserve:
          break;  // Worker-side graph build: read from graph.build_us.
      }
    }
  }
  return s;
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kQueryPages: return "QueryPages";
    case Op::kQueryPagesOrdered: return "QueryPagesOrdered";
    case Op::kNearestPage: return "NearestPage";
    case Op::kPageNeighbors: return "PageNeighbors";
    case Op::kPrepareObserve: return "PrepareObserve";
    case Op::kObserve: return "Observe";
    case Op::kRunPrefetch: return "RunPrefetch";
  }
  return "?";
}

/// Writes the traced spans as JSON lines (one span per line), at most
/// kTraceFileSpans of each thread.
void WriteTrace(const std::string& path,
                const std::vector<std::vector<Span>>& threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (size_t t = 0; t < threads.size(); ++t) {
    const size_t n = std::min(threads[t].size(), kTraceFileSpans);
    for (const Span& s : std::span(threads[t]).first(n)) {
      std::fprintf(f,
                   "{\"thread\": %zu, \"op\": \"%s\", \"query\": %lld, "
                   "\"parent\": %d, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                   t, OpName(s.op),
                   s.query == kNoQuery ? -1LL
                                       : static_cast<long long>(s.query),
                   s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  std::fclose(f);
}

/// Replays up to kReplayReads of `log` through ReadPage on a fresh store
/// opened with `latency_us`; returns per-read wall times (empty on
/// failure, with `*failed` set).
std::vector<int64_t> ReplayReads(const std::string& pagefile,
                                 int64_t latency_us,
                                 const std::vector<scout::PageId>& log,
                                 bool* failed) {
  scout::FilePageStoreOptions options;
  options.device_latency_us = latency_us;
  auto opened = scout::FilePageStore::Open(pagefile, options);
  if (!opened.ok()) {
    *failed = true;
    return {};
  }
  std::vector<int64_t> ns;
  scout::Page page;
  for (size_t i = 0; i < log.size() && i < kReplayReads; ++i) {
    const int64_t start = NowNs();
    *failed |= !(*opened)->ReadPage(log[i], &page).ok();
    ns.push_back(NowNs() - start);
  }
  return ns;
}

/// Metrics of one invocation plus its query counts.
struct Outcome {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// --trace 0: serves with only the response probe and reports the
/// end-to-end metrics.
Outcome EndToEnd(const Args& args, const WorkloadSpec& spec,
                 const Stack& stack, const Inputs& inputs,
                 const std::vector<double>& setup_s, Gates* gates) {
  Probe probe;
  Runner runner(spec, stack, inputs, &probe);
  const std::vector<Rep> reps = Serve(&runner, args.seconds, 2, 0);
  CheckReps(reps, reps.front().counters, "untraced", gates);
  gates->Check(probe.open_queries() == 0, "queries issued but not delivered");
  const PassTotals t = Totals(reps);
  const Chunks chunks = ChunkTimings(reps);
  const Counters& c = reps.front().counters;
  uint64_t sim_p50 = c.sim_response_p50_us;
  uint64_t sim_p99 = c.sim_response_p99_us;
  if (spec.file_backend) {
    std::tie(sim_p50, sim_p99) = SimulatedResponse(spec, stack, inputs);
  }
  std::printf(
      "{\"report\": {\"repetitions\": %zu, \"query_samples\": %zu, "
      "\"timing_chunks\": %zu, \"queries_per_repetition\": %llu, "
      "\"sequences\": %zu, \"failed_query_pct\": %g, \"setups\": %zu}}\n",
      reps.size(), t.response_ns.size(), chunks.p50_us.size(),
      static_cast<unsigned long long>(c.queries), inputs.sequences.size(),
      Pct(static_cast<double>(t.failed), static_cast<double>(t.queries)),
      setup_s.size());
  return Outcome{
      {
          {"setup_s", "s", Median(setup_s)},
          {"response_p50_us", "us", Median(chunks.p50_us)},
          {"response_p99_us", "us", Median(chunks.p99_us)},
          {"queries_per_s", "1/s", Median(chunks.queries_per_s)},
          {"hit_rate_pct", "%",
           Pct(static_cast<double>(c.pages_hit),
               static_cast<double>(c.pages_total))},
          {"demand_reads_per_query", "reads",
           PerQuery(static_cast<double>(c.demand_reads), c.queries)},
          {"peak_rss_mb", "MiB", PeakRssMb()},
          {"sim_response_p50_us", "sim_us", static_cast<double>(sim_p50)},
          {"sim_response_p99_us", "sim_us", static_cast<double>(sim_p99)},
      },
      t.queries, t.failed};
}

/// --trace 1: an untraced pass for half of --seconds, then a traced pass
/// with the same number of repetitions; reports the per-layer metrics.
Outcome PerLayer(const Args& args, const WorkloadSpec& spec,
                 const Stack& stack, const Inputs& inputs,
                 const std::string& pagefile, Gates* gates) {
  Probe bare_probe;
  std::vector<Rep> untraced;
  {
    Runner runner(spec, stack, inputs, &bare_probe);
    untraced = Serve(&runner, args.seconds / 2, 1, 0);
  }
  Trace trace;
  Probe probe(&trace);
  if (stack.store != nullptr) stack.store->EnableFetchLog();
  std::vector<Rep> traced;
  {
    Runner runner(spec, stack, inputs, &probe);
    traced = Serve(&runner, 0, untraced.size(), untraced.size());
  }
  const Counters& c = untraced.front().counters;
  CheckReps(untraced, c, "untraced", gates);
  CheckReps(traced, c, "traced", gates);
  gates->Check(probe.open_queries() == 0 && bare_probe.open_queries() == 0,
               "queries issued but not delivered");
  const PassTotals u = Totals(untraced);
  const PassTotals t = Totals(traced);
  gates->Check(t.traced_planned == t.planned,
               "traced plan records disagree with the planned-page count");

  const std::vector<std::vector<Span>> spans = trace.TakeSpans();
  const std::vector<ObserveRecord> observes = trace.TakeObserves();
  WriteTrace(args.workdir + "/trace-" + std::string(spec.name) + ".jsonl",
             spans);
  gates->Check(observes.size() == t.queries,
               "traced Observe count differs from the query count");
  const Stages s = Summarize(spans);
  double graph_build_us = 0, predict_us = 0, vertices = 0;
  for (const ObserveRecord& o : observes) {
    graph_build_us += static_cast<double>(o.wall_graph_build_us);
    predict_us += static_cast<double>(o.wall_prediction_us);
    vertices += static_cast<double>(o.graph_vertices);
  }

  // A query step (issue to next issue) splits into the issuing index
  // walk, the rest of the response, Observe, RunPrefetch and the
  // remainder (inline plan fetch + think sleep), so the stages cover
  // every step; reconciliation bounds the wall time outside all steps.
  const uint64_t q = t.queries;
  const int64_t response_ns = Sum(t.response_ns);
  const int64_t response_self_ns = response_ns - s.issue_index_ns;
  int64_t think_overlap_ns = 0;
  double unaccounted_pct = 0;
  if (spec.file_backend) {
    const int64_t step_ns = Sum(t.step_ns);
    think_overlap_ns = step_ns - response_ns - s.observe_ns - s.prefetch_ns;
    unaccounted_pct = Pct(static_cast<double>(t.serving_ns - step_ns),
                          static_cast<double>(t.serving_ns));
    gates->Check(std::abs(unaccounted_pct) <= kReconcileTolerancePct,
                 "traced stages leave " + std::to_string(unaccounted_pct) +
                     "% of serving wall time unaccounted");
  }

  // Storage: the traced pass's own fetch log, replayed through ReadPage
  // on fresh stores (same latency, then 0 for read + decode alone).
  std::vector<int64_t> read_ns, decode_ns;
  if (stack.store != nullptr) {
    const std::vector<scout::PageId> log = stack.store->FetchLog();
    bool replay_failed = false;
    read_ns = ReplayReads(pagefile, spec.device_latency_us, log,
                          &replay_failed);
    decode_ns = ReplayReads(pagefile, 0, log, &replay_failed);
    gates->Check(!replay_failed, "fetch-log replay failed");
  }
  const double reads_per_query = PerQuery(static_cast<double>(t.store_reads), q);
  const double decode_us_per_read =
      PerQuery(static_cast<double>(Sum(decode_ns)) * 1e-3, decode_ns.size());
  std::printf(
      "{\"report\": {\"repetitions\": %zu, \"query_samples\": %zu, "
      "\"unaccounted_pct\": %g, \"reconcile_tolerance_pct\": %g, "
      "\"replayed_reads\": %zu, \"untraced_queries_per_s\": %g, "
      "\"traced_queries_per_s\": %g}}\n",
      traced.size(), t.response_ns.size(), unaccounted_pct,
      kReconcileTolerancePct, read_ns.size(), u.QueriesPerS(),
      t.QueriesPerS());

  auto per_query = [&](double total) { return PerQuery(total, q); };
  auto counted = [&](uint64_t total) {
    return PerQuery(static_cast<double>(total), c.queries);
  };
  return Outcome{
      {
          {"index.walk_us", "us",
           per_query((s.issue_index_ns + s.plan_index_ns) * 1e-3)},
          {"index.calls_per_query", "calls",
           per_query(static_cast<double>(s.index_calls))},
          {"graph.build_us", "us", per_query(graph_build_us)},
          {"graph.vertices_per_query", "vertices", per_query(vertices)},
          {"prefetch.observe_self_us", "us", per_query(s.observe_ns * 1e-3)},
          {"prefetch.predict_us", "us", per_query(predict_us)},
          {"prefetch.plan_us", "us", per_query(s.prefetch_self_ns * 1e-3)},
          {"prefetch.planned_pages_per_query", "pages",
           counted(c.planned_pages)},
          {"prefetch.useful_pct", "%",
           Pct(static_cast<double>(t.traced_useful),
               static_cast<double>(t.traced_planned))},
          {"storage.reads_per_query", "reads", reads_per_query},
          {"storage.read_p50_us", "us",
           static_cast<double>(NearestRank(read_ns, 50)) * 1e-3},
          {"storage.read_p99_us", "us",
           static_cast<double>(NearestRank(read_ns, 99)) * 1e-3},
          {"storage.decode_us", "us", decode_us_per_read * reads_per_query},
          {"storage.failed_reads", "reads",
           per_query(static_cast<double>(t.failed_reads))},
          {"cache.evictions_per_query", "pages", counted(c.evictions)},
          {"cache.evictions_per_session", "pages",
           PerQuery(static_cast<double>(c.evictions),
                    inputs.sequences.size())},
          {"cache.cross_hit_share_pct", "%",
           Pct(static_cast<double>(c.hits_cross),
               static_cast<double>(c.pages_hit))},
          {"cache.admission_closed_windows", "windows",
           counted(c.admission_closed_windows)},
          {"async.late_hit_waits_per_query", "waits",
           per_query(static_cast<double>(t.late_hit_waits))},
          {"engine.response_self_us", "us",
           per_query(static_cast<double>(response_self_ns) * 1e-3)},
          {"engine.think_overlap_us", "us",
           per_query(static_cast<double>(think_overlap_ns) * 1e-3)},
          {"engine.think_overrun_p99_us", "us",
           static_cast<double>(NearestRank(t.overrun_ns, 99)) * 1e-3},
          {"shared_disk.wait_us_per_query", "sim_us", counted(c.disk_wait_us)},
          {"shared_disk.requests_per_query", "requests",
           counted(c.disk_requests)},
          {"trace.overhead_pct", "%",
           Pct(u.QueriesPerS() - t.QueriesPerS(), u.QueriesPerS())},
      },
      u.queries + t.queries, u.failed + t.failed};
}

int Run(const Args& args) {
  const WorkloadSpec* spec_ptr = FindWorkload(args.workload);
  if (spec_ptr == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *spec_ptr;
  PrintFingerprint(args, spec);

  // The tissue is fixed (the figure benches' tissue seed); the run's
  // seed draws the query sequences.
  constexpr uint64_t kTissueSeed = 1;
  const uint64_t query_seed = scout::Rng(args.seed).NextUint64();

  const PageFile pagefile(args.workdir + "/perfbench-" +
                          std::to_string(getpid()) + "-" +
                          std::string(spec.name) + ".pages");
  Gates gates;
  Stack stack;
  std::vector<double> setup_s;
  double setup_total_s = 0;
  size_t pages = 0;
  for (size_t k = 0; k < kMaxSetups &&
                     (k < kMinSetups || setup_total_s < kSetupBudgetS);
       ++k) {
    stack = Stack{};  // Release the previous stack outside the timing.
    std::string error;
    const int64_t start = NowNs();
    if (!BuildStack(spec, kTissueSeed, pagefile.path, &stack, &error)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    setup_total_s += setup_s.back();
    const size_t n = stack.index->store().NumPages();
    gates.Check(k == 0 || n == pages, "set-up is not deterministic");
    pages = n;
  }
  const Inputs inputs = MakeInputs(spec, stack, query_seed);

  const Outcome out =
      args.trace == 0
          ? EndToEnd(args, spec, stack, inputs, setup_s, &gates)
          : PerLayer(args, spec, stack, inputs, pagefile.path, &gates);
  for (const Metric& m : out.metrics) {
    gates.Check(std::isfinite(m.value), "metric " + m.name + " is not finite");
  }
  PrintResult(gates.ok, out.attempted, out.failed, out.metrics);
  return gates.ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: scout_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
