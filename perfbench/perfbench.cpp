// perfbench — the repository benchmark program (see README.md).
//
// One process runs one seeded workload: it sets the graph up several times
// (setup_s is the median), executes the iterative CTE once untimed, then
// runs a closed loop with one client for --seconds, setting up once more
// between executions and checking every result
// against the graph/reference oracle. --trace 0 reports the end-to-end
// metrics with no observer attached; --trace 1 alternates untraced and
// traced executions and reports the per-layer metrics. Everything is
// measured from outside the program: wall time around SqLoop::Execute and
// graph::LoadEdges, an ExecutionObserver for round and task spans, deltas
// of the per-execution Recorder counters, of BufferPool::stats(), of
// getrusage and of /proc/self/io.
//
// The last line of stdout is the result object
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// and the exit code is 0 exactly when every execution was correct.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/observer.h"
#include "core/sqloop.h"
#include "core/workloads.h"
#include "dbc/driver.h"
#include "graph/generators.h"
#include "graph/loader.h"
#include "graph/reference.h"
#include "minidb/server.h"

namespace {

using namespace sqloop;
namespace fs = std::filesystem;

// Every workload: one client, 4 workers (one per core of the 4-core
// machine the benchmark was sized on), the postgres profile, and dbc's
// modeled costs off so wall time is real engine and middleware CPU.
constexpr int kThreads = 4;
constexpr int kSetupReps = 5;           // before the warm-up
constexpr double kSetupBetweenS = 0.1;  // of setup after each execution
constexpr int kMinExecutions = 3;       // even past --seconds
constexpr double kTolerance = 1e-9;
// The per-layer parts of a traced execution must sum to its wall time
// within this many seconds (clock rounding only: the parts are disjoint
// intervals of one timeline, so any larger gap is lost or double-counted
// time).
constexpr double kPartsEpsilon = 1e-4;
// The paper-testbed cost model of bench/bench_util.h's EngineFleet,
// counted here and never slept: a 100 us round trip, 3 us of server work
// per row examined and 150 us per compiled statement.
constexpr double kModelRoundTripS = 100e-6;
constexpr double kModelRowS = 3e-6;
constexpr double kModelCompileS = 150e-6;

struct Workload {
  std::string name;
  core::ExecutionMode mode;
  int partitions;
  std::function<graph::Graph(uint64_t seed)> generate;
  std::string query;
  bool pagerank;           // checked against PageRankReference, else Dijkstra
  int pagerank_rounds = 0;
  int64_t sssp_source = 0;
  int64_t pool_divisor = 0;  // buffer pool = table bytes / divisor; 0 = off
  int64_t checkpoint_every = 0;
};

std::vector<Workload> Workloads() {
  const auto web = [](uint64_t seed) {
    return graph::MakeWebGraph(20000, 4, seed);
  };
  Workload pr_sync{"pr_sync", core::ExecutionMode::kSync, 16, web,
                   core::workloads::PageRankQuery(20), true, 20};
  Workload pr_spill = pr_sync;
  pr_spill.name = "pr_spill";
  pr_spill.pool_divisor = 4;
  pr_spill.checkpoint_every = 5;
  Workload sssp{"sssp_asyncp", core::ExecutionMode::kAsyncPriority, 48,
                [](uint64_t seed) {
                  return graph::MakeEgoNetGraph(300, 10, 0.35, seed, false);
                },
                core::workloads::SsspAllQuery(1), false};
  sssp.sssp_source = 1;
  return {pr_sync, sssp, pr_spill};
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0;
  statm >> pages >> pages;  // size, then resident
  return pages * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

/// Bytes this process has passed to write(2) and friends (wchar).
uint64_t WrittenBytes() {
  std::ifstream io("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

/// Collects the program's round and task spans during one execution.
/// OnTaskComplete arrives concurrently on worker threads.
class SpanCollector final : public core::ExecutionObserver {
 public:
  void OnRoundEnd(const telemetry::IterationStats& round) override {
    const std::scoped_lock lock(mutex_);
    rounds_.push_back(round);
  }
  void OnTaskComplete(const telemetry::TaskSpan& span) override {
    const std::scoped_lock lock(mutex_);
    spans_.push_back(span);
  }
  void Take(std::vector<telemetry::IterationStats>* rounds,
            std::vector<telemetry::TaskSpan>* spans) {
    const std::scoped_lock lock(mutex_);
    rounds->swap(rounds_);
    spans->swap(spans_);
    rounds_.clear();
    spans_.clear();
  }

 private:
  std::mutex mutex_;
  std::vector<telemetry::IterationStats> rounds_;
  std::vector<telemetry::TaskSpan> spans_;
};

/// Everything measured about one execution.
struct Execution {
  bool traced = false;
  bool ok = false;
  std::string error;
  double wall_s = 0;
  double cpu_s = 0;
  double written_mb = 0;
  core::RunStats stats;  // without its recorder: see counters
  std::map<std::string, uint64_t, std::less<>> counters;
  double lock_wait_s = 0;
  minidb::BufferPool::Stats pool;  // deltas, except resident_peak
  // traced only
  std::vector<telemetry::IterationStats> rounds;
  std::vector<telemetry::TaskSpan> spans;

  uint64_t Counter(const char* name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  double ModeledServerSeconds() const {
    return static_cast<double>(Counter("dbc.round_trips")) * kModelRoundTripS +
           static_cast<double>(Counter("minidb.rows_examined")) * kModelRowS +
           static_cast<double>(Counter("minidb.plan_cache_misses")) *
               kModelCompileS;
  }
};

/// One traced execution's wall time split into disjoint parts.
struct Parts {
  double server = 0;      // Execute wall - RunStats.seconds
  double setup = 0;       // kSetup spans
  double rounds = 0;      // sum of round wall times
  double checkpoint = 0;  // kCheckpoint spans (between rounds)
  double final = 0;       // kFinal spans
  double master = 0;      // rest of RunStats.seconds: termination probes etc.
  double busy = 0;        // Compute + Gather task time, inside `rounds`
  double Sum() const {
    return server + setup + rounds + checkpoint + final + master;
  }
};

Parts SplitExecution(const Execution& e) {
  Parts p;
  p.server = e.wall_s - e.stats.seconds;
  for (const auto& span : e.spans) {
    switch (span.kind) {
      case telemetry::SpanKind::kSetup: p.setup += span.duration_seconds; break;
      case telemetry::SpanKind::kFinal: p.final += span.duration_seconds; break;
      case telemetry::SpanKind::kCheckpoint:
        p.checkpoint += span.duration_seconds;
        break;
      case telemetry::SpanKind::kCompute:
      case telemetry::SpanKind::kGather:
        p.busy += span.duration_seconds;
        break;
      default: break;
    }
  }
  for (const auto& round : e.rounds) p.rounds += round.seconds;
  p.master = e.stats.seconds - p.setup - p.rounds - p.checkpoint - p.final;
  return p;
}

class Checker {
 public:
  Checker(const Workload& w, const graph::Graph& g) : workload_(w) {
    if (w.pagerank) {
      expected_ = graph::PageRankReference(g, w.pagerank_rounds).rank;
    } else {
      expected_ = graph::Dijkstra(g, w.sssp_source);
    }
  }

  /// Empty when the result matches the reference; otherwise why not.
  std::string Check(const dbc::ResultSet& result) const {
    if (result.rows.size() != expected_.size()) {
      return "expected " + std::to_string(expected_.size()) + " rows, got " +
             std::to_string(result.rows.size());
    }
    std::unordered_set<int64_t> seen;
    for (const auto& row : result.rows) {
      if (row.size() != 2 || !row[0].is_int() || !row[1].is_numeric()) {
        return "malformed result row";
      }
      const int64_t node = row[0].as_int();
      const auto it = expected_.find(node);
      if (it == expected_.end() || !seen.insert(node).second) {
        return "unexpected node " + std::to_string(node);
      }
      const double got = row[1].NumericAsDouble();
      if (!(std::fabs(got - it->second) <= kTolerance)) {
        std::ostringstream os;
        os.precision(17);
        os << workload_.name << ": node " << node << " got " << got
           << " expected " << it->second;
        return os.str();
      }
    }
    return "";
  }

 private:
  const Workload& workload_;
  std::unordered_map<int64_t, double> expected_;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;  // writable directory for spill/checkpoint files
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scratch") {
      args->scratch = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->scratch.empty() &&
         args->seconds > 0;
}

/// Prints `{"name": {"value": v, "unit": u}, ...}` in insertion order.
class MetricWriter {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buffer + ", \"unit\": \"" +
             unit + "\"}";
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void WriteTrace(const std::string& path, const Args& args,
                const std::vector<Execution>& runs,
                const std::vector<std::pair<std::string, double>>& setup) {
  std::ofstream out(path);
  out.precision(9);
  const Execution* last_traced = nullptr;
  for (const auto& e : runs) {
    if (e.traced) last_traced = &e;
  }
  for (const auto& [name, seconds] : setup) {
    out << "{\"span\": \"" << name << "\", \"seconds\": " << seconds << "}\n";
  }
  for (size_t i = 0; i < runs.size(); ++i) {
    const Execution& e = runs[i];
    out << "{\"span\": \"execute\", \"exec\": " << i << ", \"workload\": \""
        << args.workload << "\", \"seed\": " << args.seed
        << ", \"traced\": " << (e.traced ? "true" : "false")
        << ", \"ok\": " << (e.ok ? "true" : "false")
        << ", \"wall_s\": " << e.wall_s << ", \"run_s\": " << e.stats.seconds;
    if (e.traced) {
      const Parts p = SplitExecution(e);
      out << ", \"parts\": {\"server\": " << p.server
          << ", \"setup\": " << p.setup << ", \"rounds\": " << p.rounds
          << ", \"checkpoint\": " << p.checkpoint << ", \"final\": " << p.final
          << ", \"master\": " << p.master << "}";
    }
    out << "}\n";
    // Round and task spans of the last traced execution only: one
    // sssp_asyncp execution alone has ~30k task spans.
    if (&e != last_traced) continue;
    for (const auto& r : e.rounds) {
      out << "{\"span\": \"round\", \"exec\": " << i << ", \"round\": "
          << r.round << ", \"seconds\": " << r.seconds
          << ", \"compute_s\": " << r.compute_seconds
          << ", \"gather_s\": " << r.gather_seconds
          << ", \"barrier_wait_s\": " << r.barrier_wait_seconds << "}\n";
    }
    for (const auto& s : e.spans) {
      out << "{\"span\": \"" << telemetry::SpanKindName(s.kind)
          << "\", \"exec\": " << i << ", \"round\": " << s.round
          << ", \"partition\": " << s.partition << ", \"thread\": "
          << s.thread_id << ", \"start\": " << s.start_seconds
          << ", \"seconds\": " << s.duration_seconds << "}\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> --scratch <dir> [--trace-out <file>]\n";
    return 2;
  }
  const auto all = Workloads();
  const auto found = std::find_if(all.begin(), all.end(), [&](const auto& w) {
    return w.name == args.workload;
  });
  if (found == all.end()) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const Workload& w = *found;

  minidb::Server server;
  dbc::DriverManager::RegisterHost("perfbench", &server);
  const auto url = [](const std::string& db) {
    return "minidb://perfbench/" + db +
           "?latency_us=0&row_cost_ns=0&compile_us=0";
  };

  // --- setup: generate the graph and load it into a fresh database ------
  const auto postgres = minidb::EngineProfile::ByName("postgres");
  graph::Graph g;
  int64_t table_bytes = 0;
  int64_t pool_bytes = 0;
  if (w.pool_divisor > 0) {
    // Size the pool from an unbounded load first: tables latch whether
    // they can be evicted when they are created.
    g = w.generate(args.seed);
    auto probe = server.CreateDatabase("probe", postgres);
    graph::LoadEdges(*dbc::DriverManager::GetConnection(url("probe")), g);
    table_bytes = probe->FindTable("edges")->tracked_bytes();
    pool_bytes = table_bytes / w.pool_divisor;
    probe.reset();
    server.DropDatabase("probe");
  }
  // setup_s samples the whole run, not just its first second: machine
  // speed drifts on that scale, and a 20 ms load is at its mercy. The run
  // sets up kSetupReps times before the warm-up and again after every
  // timed execution (set_up_between).
  std::vector<double> setup_s, generate_s, load_s;
  std::vector<std::pair<std::string, double>> setup_spans;
  int setup_rep = 0;
  const auto set_up = [&](graph::Graph* graph) {
    const std::string name = "bench" + std::to_string(setup_rep++);
    const Stopwatch gen_watch;
    *graph = w.generate(args.seed);
    generate_s.push_back(gen_watch.ElapsedSeconds());
    const Stopwatch load_watch;
    auto database = server.CreateDatabase(name, postgres);
    database->set_buffer_pool_bytes(pool_bytes);
    graph::LoadEdges(*dbc::DriverManager::GetConnection(url(name)), *graph);
    load_s.push_back(load_watch.ElapsedSeconds());
    setup_s.push_back(generate_s.back() + load_s.back());
    setup_spans.emplace_back("graph.generate", generate_s.back());
    setup_spans.emplace_back("graph.load", load_s.back());
    return std::make_pair(name, database);
  };
  std::shared_ptr<minidb::Database> db;
  std::string db_name;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (db) {
      db.reset();
      server.DropDatabase(db_name);
    }
    std::tie(db_name, db) = set_up(&g);
  }
  // Between timed executions: set up into a scratch database for at least
  // kSetupBetweenS, and drop it.
  const auto set_up_between = [&] {
    const Stopwatch watch;
    do {
      graph::Graph scratch;
      const auto [name, database] = set_up(&scratch);
      server.DropDatabase(name);
    } while (watch.ElapsedSeconds() < kSetupBetweenS);
  };
  if (table_bytes == 0) table_bytes = db->FindTable("edges")->tracked_bytes();

  const Checker checker(w, g);
  core::SqloopOptions options;
  options.mode = w.mode;
  options.threads = kThreads;
  options.partitions = w.partitions;
  if (w.mode == core::ExecutionMode::kAsyncPriority) {
    options.priority_query = core::workloads::SsspPriorityQuery();
    options.priority_descending = false;
  }
  options.checkpoint_every = w.checkpoint_every;
  core::SqLoop loop(url(db_name), options);
  SpanCollector collector;

  std::cout << "# perfbench workload=" << w.name << " seed=" << args.seed
            << " mode=" << core::ExecutionModeName(w.mode)
            << " threads=" << kThreads << " partitions=" << w.partitions
            << " nodes=" << g.NodeCount() << " edges=" << g.edge_count()
            << " table_bytes=" << table_bytes << " pool_bytes=" << pool_bytes
            << " checkpoint_every=" << w.checkpoint_every << "\n";

  int64_t attempted = 0;
  int64_t failed = 0;
  int exec_id = 0;
  const auto execute = [&](bool traced) {
    Execution e;
    e.traced = traced;
    // A fresh checkpoint directory per execution, so no run reuses an
    // earlier run's dumps.
    const fs::path ckpt =
        fs::path(args.scratch) / ("ckpt" + std::to_string(exec_id++));
    core::SqloopOptions run_options = options;
    run_options.checkpoint_dir = ckpt.string();
    loop.set_observer(traced ? &collector : nullptr);
    const auto pool_before = db->buffer_pool().stats();
    const uint64_t written_before = WrittenBytes();
    const double cpu_before = CpuSeconds();
    ++attempted;
    try {
      const Stopwatch watch;
      const dbc::ResultSet result = loop.Execute(w.query, run_options);
      e.wall_s = watch.ElapsedSeconds();
      e.cpu_s = CpuSeconds() - cpu_before;
      e.written_mb =
          static_cast<double>(WrittenBytes() - written_before) / 1e6;
      e.stats = loop.last_run();
      // Keep only the counters: holding every execution's recorder (and
      // its task spans) would grow the process with each execution.
      if (e.stats.recorder) {
        for (const auto& [name, value] : e.stats.recorder->Counters()) {
          e.counters.emplace(name, value);
        }
        e.lock_wait_s =
            e.stats.recorder->timer_seconds("minidb.lock_wait_seconds");
        e.stats.recorder.reset();
      }
      if (!e.stats.parallelized || e.stats.mode_used != w.mode) {
        e.error = "ran as " + std::string(core::ExecutionModeName(
                                  e.stats.mode_used)) +
                  ": " + e.stats.fallback_reason;
      } else {
        e.error = checker.Check(result);
      }
    } catch (const std::exception& ex) {
      e.error = std::string("threw: ") + ex.what();
    }
    const auto pool_after = db->buffer_pool().stats();
    e.pool.hits = pool_after.hits - pool_before.hits;
    e.pool.misses = pool_after.misses - pool_before.misses;
    e.pool.pages_evicted = pool_after.pages_evicted - pool_before.pages_evicted;
    e.pool.bytes_spilled = pool_after.bytes_spilled - pool_before.bytes_spilled;
    e.pool.resident_peak = pool_after.resident_peak;
    loop.set_observer(nullptr);
    if (traced) collector.Take(&e.rounds, &e.spans);
    std::error_code ec;
    fs::remove_all(ckpt, ec);
    e.ok = e.error.empty();
    if (!e.ok) {
      ++failed;
      std::cerr << "perfbench: " << w.name << " execution failed: " << e.error
                << "\n";
    }
    return e;
  };

  // Warm-up: the first Execute in a process runs slower than later ones.
  std::cout << "# warm-up wall_s=" << execute(false).wall_s << "\n";

  std::vector<Execution> runs;
  const Stopwatch clock;
  double last_wall = 0;
  double peak_rss_mb = 0;
  while (static_cast<int>(runs.size()) < kMinExecutions ||
         clock.ElapsedSeconds() + last_wall <= args.seconds) {
    // The traced run alternates untraced and traced executions so both
    // see the same machine conditions; trace_overhead compares them.
    runs.push_back(execute(args.trace && runs.size() % 2 == 1));
    set_up_between();
    const Execution& e = runs.back();
    last_wall = e.wall_s;
    // The job server keeps the results and telemetry of its last 128
    // jobs, so memory grows with the number of executions; reading the
    // peak after a fixed count keeps peak_rss_mb from rising when
    // executions get faster.
    if (static_cast<int>(runs.size()) == kMinExecutions) {
      peak_rss_mb = PeakRssMb();
    }
    std::cout << "# exec " << runs.size() << (e.traced ? " traced" : "")
              << " wall_s=" << e.wall_s << " cpu_s=" << e.cpu_s
              << " rounds=" << e.stats.iterations
              << " statements=" << e.Counter("dbc.statements")
              << " spilled_mb=" << e.pool.bytes_spilled / 1e6
              << " rss_mb=" << RssMb() << "\n";
  }

  std::cout << "# setup reps=" << setup_s.size()
            << " min_s=" << *std::min_element(setup_s.begin(), setup_s.end())
            << " median_s=" << Median(setup_s)
            << " max_s=" << *std::max_element(setup_s.begin(), setup_s.end())
            << "\n";

  MetricWriter m;
  const auto collect = [&](bool traced, const auto& get) {
    std::vector<double> v;
    for (const auto& e : runs) {
      if (e.ok && e.traced == traced) v.push_back(get(e));
    }
    return v;
  };
  bool parts_ok = true;
  if (!args.trace) {
    m.Add("query_s", Median(collect(false, [](auto& e) { return e.wall_s; })),
          "s");
    m.Add("cpu_s", Median(collect(false, [](auto& e) { return e.cpu_s; })),
          "s");
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("modeled_server_s",
          Median(collect(false,
                         [](auto& e) { return e.ModeledServerSeconds(); })),
          "s");
    m.Add("peak_rss_mb", peak_rss_mb, "MB");
  } else {
    const auto mean = [&](const auto& get) {
      return Mean(collect(true, get));
    };
    const auto counter = [&](const char* name) {
      return mean([name](auto& e) {
        return static_cast<double>(e.Counter(name));
      });
    };
    std::vector<double> task_ms;
    std::vector<Parts> parts;
    for (const auto& e : runs) {
      if (!e.ok || !e.traced) continue;
      parts.push_back(SplitExecution(e));
      const Parts& p = parts.back();
      for (const auto& s : e.spans) {
        if (s.kind == telemetry::SpanKind::kCompute ||
            s.kind == telemetry::SpanKind::kGather) {
          task_ms.push_back(s.duration_seconds * 1e3);
        }
      }
      // The parts are disjoint and nest inside the Execute call: none may
      // be negative and together they must cover the wall time.
      const bool nested = p.server >= -kPartsEpsilon &&
                          p.master >= -kPartsEpsilon &&
                          p.busy <= p.rounds * kThreads + kPartsEpsilon;
      if (!nested || std::fabs(p.Sum() - e.wall_s) > kPartsEpsilon) {
        std::cerr << "perfbench: parts do not add up: server " << p.server
                  << " setup " << p.setup << " rounds " << p.rounds
                  << " checkpoint " << p.checkpoint << " final " << p.final
                  << " master " << p.master << " busy " << p.busy
                  << " wall " << e.wall_s << "\n";
        parts_ok = false;
      }
    }
    parts_ok = parts_ok && !parts.empty();
    const auto part = [&](double Parts::*field) {
      std::vector<double> v;
      for (const auto& p : parts) v.push_back(p.*field);
      return Mean(v);
    };
    const double traced_query =
        mean([](auto& e) { return e.wall_s; });
    const double rounds = mean([](auto& e) {
      return static_cast<double>(e.stats.iterations);
    });
    const double updates = mean([](auto& e) {
      return static_cast<double>(e.stats.total_updates);
    });
    const double busy = part(&Parts::busy);
    const double round_s = part(&Parts::rounds);
    const double statements = counter("dbc.statements");
    const double hits = counter("minidb.plan_cache_hits");
    const double misses = counter("minidb.plan_cache_misses");
    const auto pool = [&](uint64_t minidb::BufferPool::Stats::*field) {
      return mean([field](auto& e) {
        return static_cast<double>(e.pool.*field);
      });
    };
    const double pool_hits = pool(&minidb::BufferPool::Stats::hits);
    const double pool_misses = pool(&minidb::BufferPool::Stats::misses);
    const double spilled = pool(&minidb::BufferPool::Stats::bytes_spilled);

    m.Add("trace.query_s", traced_query, "s");
    m.Add("trace_overhead",
          Ratio(Median(collect(true, [](auto& e) { return e.wall_s; })),
                Median(collect(false, [](auto& e) { return e.wall_s; }))),
          "ratio");
    m.Add("server.overhead_s", part(&Parts::server), "s");
    m.Add("core.setup_s", part(&Parts::setup), "s");
    m.Add("core.round_s", round_s, "s");
    m.Add("core.final_s", part(&Parts::final), "s");
    m.Add("core.master_s", part(&Parts::master), "s");
    m.Add("core.checkpoint_share",
          Ratio(part(&Parts::checkpoint), traced_query), "ratio");
    m.Add("core.rounds", rounds, "count");
    m.Add("core.tasks", mean([](auto& e) {
            return static_cast<double>(e.stats.compute_tasks +
                                       e.stats.gather_tasks);
          }),
          "count");
    m.Add("core.skipped_tasks", mean([](auto& e) {
            return static_cast<double>(e.stats.skipped_tasks);
          }),
          "count");
    m.Add("core.task_busy_s", busy, "s");
    m.Add("core.task_p50_ms", Percentile(task_ms, 0.50), "ms");
    m.Add("core.task_p99_ms", Percentile(task_ms, 0.99), "ms");
    m.Add("core.worker_util", Ratio(busy, round_s * kThreads), "ratio");
    m.Add("core.idle_s", round_s * kThreads - busy, "s");
    m.Add("dbc.round_trips", counter("dbc.round_trips"), "count");
    m.Add("dbc.statements", statements, "count");
    m.Add("dbc.batches", counter("dbc.batches"), "count");
    m.Add("dbc.round_trips_per_round",
          Ratio(counter("dbc.round_trips"), rounds), "count");
    m.Add("dbc.stmt_us", Ratio(busy * 1e6, statements), "us");
    m.Add("minidb.plan_cache_hit_rate", Ratio(hits, hits + misses), "ratio");
    m.Add("minidb.plan_cache_misses", misses, "count");
    m.Add("minidb.vectorized_cores", counter("minidb.vectorized_cores"),
          "count");
    m.Add("minidb.fused_cores", counter("minidb.fused_cores"), "count");
    m.Add("minidb.scalar_fallbacks", counter("minidb.scalar_fallbacks"),
          "count");
    m.Add("minidb.rows_materialized", counter("minidb.rows_materialized"),
          "count");
    m.Add("minidb.rows_examined", counter("minidb.rows_examined"), "count");
    m.Add("minidb.rows_examined_per_update",
          Ratio(counter("minidb.rows_examined"), updates), "ratio");
    m.Add("minidb.lock_wait_s", mean([](auto& e) { return e.lock_wait_s; }),
          "s");
    m.Add("minidb.full_scans", counter("minidb.full_scans"), "count");
    m.Add("minidb.index_scans", counter("minidb.index_scans"), "count");
    m.Add("storage.pool_hit_rate",
          Ratio(pool_hits, pool_hits + pool_misses), "ratio");
    m.Add("storage.pool_misses", pool_misses, "count");
    m.Add("storage.pages_evicted",
          pool(&minidb::BufferPool::Stats::pages_evicted), "count");
    m.Add("storage.spill_mb", spilled / 1e6, "MB");
    m.Add("storage.spill_amp",
          Ratio(spilled, static_cast<double>(table_bytes)), "ratio");
    m.Add("storage.resident_peak_mb",
          static_cast<double>(db->buffer_pool().stats().resident_peak) / 1e6,
          "MB");
    m.Add("storage.disk_write_mb", mean([](auto& e) { return e.written_mb; }),
          "MB");
    m.Add("checkpoint.writes", mean([](auto& e) {
            return static_cast<double>(e.stats.checkpoints_written);
          }),
          "count");
    m.Add("checkpoint.dumps_reused", mean([](auto& e) {
            return static_cast<double>(e.stats.checkpoint_dumps_reused);
          }),
          "count");
    m.Add("graph.generate_s", Median(generate_s), "s");
    m.Add("graph.load_s", Median(load_s), "s");
    if (!args.trace_out.empty()) {
      WriteTrace(args.trace_out, args, runs, setup_spans);
    }
  }

  const bool correct = failed == 0 && parts_ok;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << m.Json() << "}" << std::endl;
  db.reset();
  dbc::DriverManager::RegisterHost("perfbench", nullptr);
  return correct ? 0 : 1;
}
