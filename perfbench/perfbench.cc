// perfbench: runs one scheduling class on one benchmark workload (or one
// part of it) and prints one JSON record per run on stdout.
//
//   perfbench --workload=serve1024|fig6|fig8 --class=cfs|ule|mlfq|eevdf
//             [--part=K/N] [--seed=42] [--trace] [--inject=cfs_sched_latency]
//
// --part=K/N runs the K-th of N contiguous slices of the workload's runs
// (fig8 has one run per suite app), so one tournament can be sampled as
// many short processes.
//
// Every run goes through the public spec API (ServeSpec, LoadBalanceSpec,
// RegistryApp + ExecuteSpec). Each record carries the run's host CPU time
// (thread CPU clock), its set-up CPU time (ExecuteSpec entry to the end of
// the on_start hooks, the last step before Boot starts the scheduler), the
// engine event count, the Machine and tick-elision counters, and a digest of
// the simulated results. With --trace the class runs twice, untraced and
// then wrapped in TracingScheduler, and the traced record adds per-hook
// calls and self time.
//
// The last line describes the process: the peak RSS of the class runs, the
// speed-probe times taken before and after them (see SpeedProbe), and build
// provenance.
// perfbench/run.py drives this binary; see perfbench/README.md.
#include <sys/mman.h>

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <queue>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/tracing_scheduler.h"
#include "src/apps/registry.h"
#include "src/core/scenarios.h"
#include "src/core/spec.h"
#include "src/sched/registry.h"

namespace perfbench {
namespace {

using namespace schedbattle;

// Workload scale (ServeSpec's arrival window, the suite apps' work). The
// reference digests in references.json hold for this value only.
constexpr double kScale = 0.1;

// fig6 runs 45.5s past the unpin at 14.5s: CFS has spread the spinners to
// ~16 per core long before, while ULE's one-thread-per-pass balancer is still
// converging, as in the paper. A fixed simulated span; kScale does not
// apply.
constexpr SimTime kFig6RunFor = Seconds(60);

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// Anonymous memory mapped for one speed probe and unmapped after it. The
// probe takes none of its memory from malloc, so it leaves the allocator's
// state (heap layout, glibc's dynamic mmap threshold) as it found it.
class ProbeArena {
 public:
  explicit ProbeArena(size_t bytes)
      : bytes_(bytes),
        base_(mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)) {
    if (base_ == MAP_FAILED) {
      std::perror("perfbench: mmap");
      std::exit(1);
    }
  }
  ~ProbeArena() { munmap(base_, bytes_); }
  ProbeArena(const ProbeArena&) = delete;
  ProbeArena& operator=(const ProbeArena&) = delete;

  void* base() const { return base_; }
  size_t size() const { return bytes_; }

 private:
  size_t bytes_;
  void* base_;
};

// A fixed, program-independent kernel shaped like the simulator's hot path:
// a timer heap, random touches of an 8 MB object table and an ordered map.
// On a shared host the same work takes a different CPU time in every
// process (SMT siblings, cache and memory contention). Timing this kernel
// in the same process, just before and after the measured runs, estimates
// that process's slowdown, so run.py can scale the measured times to a
// common host speed. All its memory comes from a fresh ProbeArena. Returns
// thread CPU seconds.
double SpeedProbe() {
  const int64_t start = ThreadCpuNs();
  struct Obj {
    uint64_t words[8];
  };
  using Timer = std::pair<uint64_t, uint32_t>;
  constexpr uint32_t kObjs = 1 << 17;
  constexpr size_t kTimers = 20000;
  ProbeArena arena(16 << 20);
  std::pmr::monotonic_buffer_resource buffer(arena.base(), arena.size(),
                                             std::pmr::null_memory_resource());
  std::pmr::unsynchronized_pool_resource pool(&buffer);
  std::pmr::vector<Obj> objs(kObjs, &buffer);
  std::pmr::vector<Timer> timer_storage(&buffer);
  timer_storage.reserve(kTimers + 1);
  std::priority_queue<Timer, std::pmr::vector<Timer>, std::greater<>> timers(
      std::greater<>(), std::move(timer_storage));
  std::pmr::map<uint32_t, uint64_t> recent(&pool);
  uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (size_t i = 0; i < kTimers; ++i) {
    timers.push({next() % 1000000, static_cast<uint32_t>(next() % kObjs)});
  }
  uint64_t sum = 0;
  for (int i = 0; i < 200000; ++i) {
    const auto [t, id] = timers.top();
    timers.pop();
    Obj& o = objs[id];
    o.words[id & 7] += t;
    sum += o.words[(t >> 3) & 7];
    if ((t & 3) == 0) {
      recent[id] = t;
      if (recent.size() > 4096) {
        recent.erase(recent.begin());
      }
    }
    const auto hop = static_cast<uint32_t>((id * 2654435761u + next()) % kObjs);
    timers.push({t + 1 + next() % 5000, hop});
  }
  // Keep the result observable so the loop is not optimised away.
  if (sum == 1) {
    std::fprintf(stderr, "%llu\n", static_cast<unsigned long long>(sum));
  }
  return (ThreadCpuNs() - start) * 1e-9;
}

// Restarts the process's peak-RSS mark (VmHWM) at its current RSS.
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return !clear_refs.fail();
}

// The process's peak RSS (VmHWM) in KiB, or -1. getrusage's ru_maxrss is
// not used: it cannot be reset, and a child started with vfork inherits
// the parent's peak in it.
long PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return -1;
}

// Appends printf-formatted text to the digest input.
void Appendf(std::string* out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void Appendf(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  if (n > 0) {
    const size_t old = out->size();
    out->resize(old + n + 1);
    std::vsnprintf(out->data() + old, n + 1, fmt, args);
    out->resize(old + n);
  }
  va_end(args);
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

// One simulator run of a workload: its spec plus the scenario-specific part
// of the digest (read from the scenario's own result object after the run)
// and a plausibility check that holds on every seed.
struct Job {
  ExperimentSpec spec;
  std::function<void(std::string*)> describe;
  std::function<bool(const RunResult&)> plausible;
};

std::vector<SloObjective> SuiteWakeupSlo() {
  SloObjective p99;
  p99.metric = SloMetric::kWakeupP99;
  p99.threshold = Seconds(1);
  SloObjective p999;
  p999.metric = SloMetric::kWakeupP999;
  p999.threshold = Seconds(5);
  return {p99, p999};
}

std::vector<Job> BuildJobs(const std::string& workload, SchedKind kind, uint64_t seed) {
  std::vector<Job> jobs;
  if (workload == "serve1024") {
    auto out = std::make_shared<ServeResult>();
    Job job{ServeSpec("serve1024", kind, seed, kScale, out), nullptr, nullptr};
    job.describe = [out](std::string* d) {
      Appendf(d, "serve admitted=%lld completed=%lld good=%lld p50=%lld p99=%lld\n",
              static_cast<long long>(out->admitted), static_cast<long long>(out->completed),
              static_cast<long long>(out->good), static_cast<long long>(out->request_p50),
              static_cast<long long>(out->request_p99));
    };
    job.plausible = [out](const RunResult&) {
      return out->admitted > 0 && out->completed > 0 && out->completed <= out->admitted &&
             out->good <= out->completed;
    };
    jobs.push_back(std::move(job));
  } else if (workload == "fig6") {
    auto out = std::make_shared<LoadBalanceResult>();
    Job job{LoadBalanceSpec(kind, seed, kFig6RunFor, /*tolerance=*/1, out), nullptr, nullptr};
    job.describe = [out](std::string* d) {
      Appendf(d, "fig6 balanced=%lld max=%d min=%d\n",
              static_cast<long long>(out->balanced_time), out->final_max, out->final_min);
    };
    job.plausible = [out](const RunResult&) {
      return out->final_max > 0 && out->final_min >= 0;
    };
    jobs.push_back(std::move(job));
  } else if (workload == "fig8") {
    // RunSuite's per-app spec, for every registered class rather than only
    // CFS and ULE.
    for (const AppEntry& entry : BenchmarkSuite()) {
      Job job;
      job.spec = ExperimentSpec::Multicore(kind, seed);
      job.spec.scale = kScale;
      job.spec.Named(entry.name);
      job.spec.slo = SuiteWakeupSlo();
      job.spec.Add(RegistryApp(entry.name));
      job.plausible = [](const RunResult& r) { return r.apps[0].finished && r.apps[0].metric > 0; };
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

struct RunRecord {
  SchedKind kind = SchedKind::kCfs;
  bool traced = false;
  int64_t cpu_ns = 0;
  int64_t setup_ns = 0;
  int64_t sim_cpu_ns = 0;  // thread CPU clock, on_start end to on_finish entry
  uint64_t events = 0;
  MachineCounters counters;
  TickElisionCounters elision;
  uint64_t digest = 0;
  bool plausible = true;
  TraceTotals trace;
};

// Per-run timestamps and counters taken by the chained hooks.
struct HookMarks {
  int64_t setup_end_cpu = 0;
  int64_t sim_end_cpu = 0;
  uint64_t events = 0;
  TickElisionCounters elision;
};

void DescribeResult(const RunResult& r, std::string* d) {
  const MachineCounters& c = r.counters;
  Appendf(d, "run %s finish=%lld cs=%llu wp=%llu tp=%llu mig=%llu wk=%llu fk=%llu ex=%llu "
             "scan=%llu bal=%llu oh=%lld,%lld,%lld,%lld\n",
          r.label.c_str(), static_cast<long long>(r.finish_time),
          static_cast<unsigned long long>(c.context_switches),
          static_cast<unsigned long long>(c.wakeup_preemptions),
          static_cast<unsigned long long>(c.tick_preemptions),
          static_cast<unsigned long long>(c.migrations),
          static_cast<unsigned long long>(c.wakeups), static_cast<unsigned long long>(c.forks),
          static_cast<unsigned long long>(c.exits),
          static_cast<unsigned long long>(c.pickcpu_scans),
          static_cast<unsigned long long>(c.balance_invocations),
          static_cast<long long>(c.overhead_ns[0]), static_cast<long long>(c.overhead_ns[1]),
          static_cast<long long>(c.overhead_ns[2]), static_cast<long long>(c.overhead_ns[3]));
  for (const AppResult& a : r.apps) {
    Appendf(d, "app %s ops=%llu fin=%d at=%lld metric=%.17g ops_s=%.17g\n", a.name.c_str(),
            static_cast<unsigned long long>(a.ops), a.finished ? 1 : 0,
            static_cast<long long>(a.finish_time), a.metric, a.ops_per_sec);
  }
  for (const SloVerdict& v : r.slo_verdicts) {
    Appendf(d, "slo %s<%lld observed=%lld pass=%d\n", SloMetricName(v.objective.metric),
            static_cast<long long>(v.objective.threshold), static_cast<long long>(v.observed),
            v.pass ? 1 : 0);
  }
}

RunRecord RunClass(const std::string& workload, SchedKind kind, uint64_t seed, int part,
                   int parts, bool traced, const std::string& inject) {
  RunRecord rec;
  rec.kind = kind;
  rec.traced = traced;
  std::string digest_input;
  const int64_t cpu_start = ThreadCpuNs();
  std::vector<Job> jobs = BuildJobs(workload, kind, seed);
  const size_t begin = jobs.size() * part / parts;
  const size_t end = jobs.size() * (part + 1) / parts;
  for (size_t j = begin; j < end; ++j) {
    Job& job = jobs[j];
    ExperimentSpec& spec = job.spec;
    if (inject == "cfs_sched_latency") {
      spec.cfs.sched_latency *= 2;  // a modelled change the digest must catch
    }
    HookMarks marks;
    spec.hooks.on_start = [inner = spec.hooks.on_start, &marks](SpecRunContext& ctx) {
      if (inner) {
        inner(ctx);
      }
      marks.setup_end_cpu = ThreadCpuNs();
    };
    spec.hooks.on_finish = [inner = spec.hooks.on_finish, &marks](SpecRunContext& ctx,
                                                                  RunResult& result) {
      marks.sim_end_cpu = ThreadCpuNs();
      if (inner) {
        inner(ctx, result);
      }
      marks.events = ctx.run.engine().events_executed();
      marks.elision = ctx.run.machine().tick_elision();
    };
    if (traced) {
      spec.scheduler_factory = [totals = &rec.trace](const ExperimentConfig& config) {
        return std::unique_ptr<Scheduler>(std::make_unique<TracingScheduler>(
            SchedulerRegistry::Instance().Of(config.sched).make(config), totals));
      };
    }
    const int64_t run_start = ThreadCpuNs();
    const RunResult result = ExecuteSpec(spec);
    rec.setup_ns += marks.setup_end_cpu - run_start;
    rec.sim_cpu_ns += marks.sim_end_cpu - marks.setup_end_cpu;
    rec.events += marks.events;
    rec.counters.Accumulate(result.counters);
    rec.elision.Accumulate(marks.elision);
    DescribeResult(result, &digest_input);
    if (job.describe) {
      job.describe(&digest_input);
    }
    rec.plausible = rec.plausible && result.counters.context_switches > 0 && marks.events > 0 &&
                    (!job.plausible || job.plausible(result));
  }
  rec.cpu_ns = ThreadCpuNs() - cpu_start;
  rec.digest = Fnv1a(digest_input);
  return rec;
}

void PrintRecord(const std::string& workload, const RunRecord& r) {
  std::printf("{\"type\":\"run\",\"workload\":\"%s\",\"class\":\"%s\",\"traced\":%s,"
              "\"cpu_s\":%.9f,\"setup_s\":%.9f,\"sim_cpu_s\":%.9f,\"events\":%llu,"
              "\"digest\":\"%016llx\",\"plausible\":%s,",
              workload.c_str(), std::string(SchedId(r.kind)).c_str(),
              r.traced ? "true" : "false", r.cpu_ns * 1e-9, r.setup_ns * 1e-9,
              r.sim_cpu_ns * 1e-9, static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.digest), r.plausible ? "true" : "false");
  const MachineCounters& c = r.counters;
  std::printf("\"machine\":{\"ticks_fired\":%llu,\"ticks_elided\":%llu,\"catchup_batches\":%llu,"
              "\"context_switches\":%llu,\"wakeups\":%llu,\"balance_invocations\":%llu,"
              "\"pickcpu_scans\":%llu}",
              static_cast<unsigned long long>(r.elision.ticks_fired),
              static_cast<unsigned long long>(r.elision.ticks_elided),
              static_cast<unsigned long long>(r.elision.batch_updates),
              static_cast<unsigned long long>(c.context_switches),
              static_cast<unsigned long long>(c.wakeups),
              static_cast<unsigned long long>(c.balance_invocations),
              static_cast<unsigned long long>(c.pickcpu_scans));
  if (r.traced) {
    std::printf(",\"hooks\":{");
    for (int h = 0; h < kNumHooks; ++h) {
      std::printf("%s\"%s\":{\"calls\":%llu,\"self_ns\":%lld}", h == 0 ? "" : ",", kHookNames[h],
                  static_cast<unsigned long long>(r.trace.hooks[h].calls),
                  static_cast<long long>(r.trace.hooks[h].self_ns));
    }
    std::printf("},\"queries\":{");
    for (int q = 0; q < kNumQueries; ++q) {
      std::printf("%s\"%s\":%llu", q == 0 ? "" : ",", kQueryNames[q],
                  static_cast<unsigned long long>(r.trace.queries[q]));
    }
    std::printf("}");
  }
  std::printf("}\n");
  std::fflush(stdout);
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload=serve1024|fig6|fig8 --class=cfs|ule|mlfq|eevdf\n"
               "                 [--part=K/N] [--seed=N] [--trace] [--inject=cfs_sched_latency]\n",
               why);
  std::exit(2);
}

int Main(int argc, char** argv) {
  std::string workload;
  SchedKind kind = SchedKind::kCfs;
  bool have_class = false;
  int part = 0;
  int parts = 1;
  uint64_t seed = 42;
  bool trace = false;
  std::string inject;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view flag) -> const char* {
      return arg.substr(0, flag.size()) == flag ? argv[i] + flag.size() : nullptr;
    };
    if (const char* v = value("--workload=")) {
      workload = v;
    } else if (const char* v = value("--class=")) {
      have_class = ParseSchedKind(v, &kind);
      if (!have_class) {
        Usage("unknown --class");
      }
    } else if (const char* v = value("--part=")) {
      if (std::sscanf(v, "%d/%d", &part, &parts) != 2 || parts < 1 || part < 0 ||
          part >= parts) {
        Usage("--part must be K/N with 0 <= K < N");
      }
    } else if (const char* v = value("--seed=")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--inject=")) {
      inject = v;
    } else if (arg == "--trace") {
      trace = true;
    } else {
      Usage("unknown argument");
    }
  }
  if (workload != "serve1024" && workload != "fig6" && workload != "fig8") {
    Usage("--workload must be serve1024, fig6 or fig8");
  }
  if (!have_class) {
    Usage("--class is required");
  }
  if (!inject.empty() && inject != "cfs_sched_latency") {
    Usage("--inject supports only cfs_sched_latency");
  }

  const double probe_before = SpeedProbe();
  // The probe's pages are unmapped again: restart the peak so that it
  // covers the class runs only.
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "perfbench: cannot reset the peak RSS (/proc/self/clear_refs)\n");
    return 1;
  }
  PrintRecord(workload, RunClass(workload, kind, seed, part, parts, /*traced=*/false, inject));
  if (trace) {
    PrintRecord(workload, RunClass(workload, kind, seed, part, parts, /*traced=*/true, inject));
  }
  const long peak_rss_kb = PeakRssKb();
  if (peak_rss_kb <= 0) {
    std::fprintf(stderr, "perfbench: no VmHWM in /proc/self/status\n");
    return 1;
  }
  const double probe_after = SpeedProbe();

#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  std::printf("{\"type\":\"process\",\"peak_rss_mb\":%.3f,\"probe_s\":[%.9f,%.9f],"
              "\"compiler\":\"%s\",\"build_type\":\"%s\",\"asserts\":%s,\"seed\":%llu,"
              "\"scale\":%.17g}\n",
              peak_rss_kb / 1024.0, probe_before, probe_after, PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, asserts ? "true" : "false",
              static_cast<unsigned long long>(seed), kScale);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
