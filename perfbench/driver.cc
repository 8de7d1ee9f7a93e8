// perfbench_driver: the system benchmark's workload driver.
//
//   perfbench_driver --prepare --work DIR --workload W --seed N
//   perfbench_driver --work DIR --workload W --seed N --seconds S
//                    --trace 0|1 --serve-bin PATH [--commit C] [--source D]
//
// --prepare makes the seeded inputs of one workload under DIR/inputs
// (kept between runs; a given seed always yields the same files) and
// exits. The second form runs the workload against those inputs through
// the library's public entry points (or the real cmpserve binary for
// `serve`), verifies every output, and prints a report whose last line
// is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1
// the per-layer ones; a traced run also writes DIR/traces/*.json
// (Chrome trace-event format). Every run writes its full detail,
// host stamp included, to DIR/results/*.json.

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "boost/boost.h"
#include "cmp/cmp.h"
#include "common/cpu_features.h"
#include "common/dataset.h"
#include "datagen/agrawal.h"
#include "dist/dist.h"
#include "infer/batch_predictor.h"
#include "infer/ensemble.h"
#include "infer/infer_kernels.h"
#include "infer/model_io.h"
#include "io/block_source.h"
#include "io/table_file.h"
#include "loadgen.h"
#include "trace.h"
#include "tree/observer.h"
#include "tree/serialize.h"

namespace perfbench {
namespace {

// ---------------------------------------------------------------------
// Workload constants. They are fixed here, not flags: a later change
// must be measured with exactly the same inputs and settings.

constexpr int64_t kTrainRecords = 1'000'000;
// Tables per seed for train and train-dist. Tree shape (and with it the
// number of passes) swings widely from one F7 draw to the next, so one
// table per run would make the figures mostly a property of the seed.
// Each run cycles over several tables and reports the mean per table.
constexpr int kTrainTables = 4;
constexpr int64_t kHoldoutRecords = 1'000'000;
constexpr int64_t kForestRecords = 200'000;
constexpr int kForestRounds = 20;
constexpr int kTrainThreads = 4;
constexpr int kDistWorkers = 2;
constexpr int kDistThreadsPerWorker = 2;
constexpr int64_t kDistBlockRecords = 65'536;
constexpr int kScoreThreads = 4;
constexpr int64_t kTracedScoreRows = 131'072;
constexpr int kServeThreads = 2;
constexpr int64_t kServeRows = 65'536;
// Fixed total row rates of the serve ladder, lowest first. The lowest
// is one the daemon sustains with no backlog; each step above it is
// four times the last.
constexpr double kServeRates[] = {2000, 8000, 32000, 128000};
constexpr double kServeLatencyLimitUs = 10'000;
// Set-ups timed per CPU (see TimeSetup); a blob bind is short, so it is
// repeated more.
constexpr int kSetupsPerCpu = 3;
constexpr int kBindsPerCpu = 25;

// Derived seeds: the held-out rows and the forest's training rows come
// from streams disjoint from the training table's.
uint64_t TrainSeed(uint64_t seed, int table) {
  return seed * 1000 + static_cast<uint64_t>(table);
}
uint64_t HoldoutSeed(uint64_t seed) { return seed + 1'000'003; }
uint64_t ForestSeed(uint64_t seed) { return seed + 2'000'003; }

// ---------------------------------------------------------------------
// Small helpers.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool prepare = false;
  std::string work;
  std::string serve_bin;
  std::string commit = "unknown";
  std::string source = "unknown";
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated quantile of a sorted sample.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

// A timing sample as the benchmark reports it: the median plus the
// highest percentile that still has at least ten samples beyond it
// (p99 needs 1000 samples), with the sample count. With fewer than 20
// samples no percentile qualifies and the tail is the maximum.
struct Dist {
  int64_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};

Dist Summarize(std::vector<double> v) {
  Dist d;
  d.n = static_cast<int64_t>(v.size());
  if (v.empty()) return d;
  std::sort(v.begin(), v.end());
  d.p50 = Quantile(v, 0.5);
  d.tail = v.back();
  d.tail_pct = 100.0;
  for (double pct : {99.9, 99.0, 95.0, 90.0, 80.0, 75.0}) {
    if (static_cast<double>(d.n) * (1.0 - pct / 100.0) >= 10.0) {
      d.tail = Quantile(v, pct / 100.0);
      d.tail_pct = pct;
      break;
    }
  }
  return d;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void MakeDirs(const std::string& path) {
  std::string cur;
  std::stringstream ss(path);
  std::string part;
  if (!path.empty() && path[0] == '/') cur = "/";
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    cur += part + "/";
    ::mkdir(cur.c_str(), 0755);
  }
}

// Publishes `tmp` as `path` once it is complete, so an interrupted
// preparation never leaves a half-written input behind. The data is
// flushed to disk first, so write-back of fresh inputs does not run
// during the timed part of the run that follows.
void Publish(const std::string& tmp, const std::string& path) {
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd < 0 || ::fsync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("cannot flush " + tmp);
  }
  ::close(fd);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot publish " + path);
  }
}

// Field `key` (in kB) of /proc/<pid>/status, or -1.
int64_t ProcStatusKb(pid_t pid, const std::string& key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtoll(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return -1;
}

double PeakRssMib(pid_t pid) {
  return static_cast<double>(ProcStatusKb(pid, "VmHWM")) / 1024.0;
}

// Proportional resident bytes (Pss) of `pid` plus its direct children
// other than `skip`, from /proc. Forked workers share their parent's pages copy-on-write;
// Pss charges each shared page once across its sharers, so the sum is
// the tree's real resident memory where a sum of RSS would count the
// shared pages once per process.
int64_t TreePssBytes(pid_t pid, pid_t skip) {
  auto pss_of = [](const std::string& p) -> int64_t {
    std::ifstream in("/proc/" + p + "/smaps_rollup");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("Pss:", 0) == 0) {
        return std::strtoll(line.c_str() + 4, nullptr, 10) * 1024;
      }
    }
    return 0;
  };
  int64_t total = pss_of(std::to_string(pid));
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return total;
  while (dirent* e = ::readdir(dir)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::ifstream in(std::string("/proc/") + e->d_name + "/stat");
    std::string stat;
    std::getline(in, stat);
    const size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    char state = 0;
    long ppid = 0;
    if (std::sscanf(stat.c_str() + close + 1, " %c %ld", &state, &ppid) == 2 &&
        ppid == pid && std::atol(e->d_name) != skip) {
      total += pss_of(e->d_name);
    }
  }
  ::closedir(dir);
  return total;
}

// Samples TreePssBytes of this process every 10 ms until stopped; the
// peak is the process tree's real peak resident memory (to within the
// sampling interval). The sampler is a forked process, not a thread:
// dist::DistTrain forks its workers from this process, which must then
// be single-threaded. Construct it while the process still is.
class TreePssSampler {
 public:
  TreePssSampler() {
    const pid_t parent = ::getpid();
    if (::pipe(stop_) != 0 || ::pipe(result_) != 0) {
      throw std::runtime_error("pipe failed");
    }
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::close(stop_[1]);
      ::close(result_[0]);
      int64_t peak = 0;
      pollfd p{stop_[0], POLLIN, 0};
      // A byte or EOF on the stop pipe ends the sampling.
      while (::poll(&p, 1, 10) == 0) {
        peak = std::max(peak, TreePssBytes(parent, ::getpid()));
      }
      peak = std::max(peak, TreePssBytes(parent, ::getpid()));
      const bool ok =
          ::write(result_[1], &peak, sizeof(peak)) == sizeof(peak);
      ::_exit(ok ? 0 : 1);
    }
    ::close(stop_[0]);
    ::close(result_[1]);
  }
  ~TreePssSampler() { StopAndPeakMib(); }
  TreePssSampler(const TreePssSampler&) = delete;
  TreePssSampler& operator=(const TreePssSampler&) = delete;

  double StopAndPeakMib() {
    if (pid_ > 0) {
      ::close(stop_[1]);
      const ssize_t got = ::read(result_[0], &peak_, sizeof(peak_));
      ::close(result_[0]);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      if (got != sizeof(peak_)) peak_ = 0;
    }
    return static_cast<double>(peak_) / (1024.0 * 1024.0);
  }

 private:
  int stop_[2] = {-1, -1};
  int result_[2] = {-1, -1};
  pid_t pid_ = -1;
  int64_t peak_ = 0;
};

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------
// Results: named metrics, the run's operation counts, and the report.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check
  std::map<std::string, Metric> e2e;  // end-to-end (trace 0)
  std::map<std::string, Metric> layer;  // per-layer (trace 1)
  // Every figure under its own name, whatever the trace mode; goes to
  // the detail file and the printed report.
  std::vector<Metric> detail;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, unit, value});
  }
};

// End-to-end metrics. Every workload reports every one of them; what
// each means per workload is listed in perfbench/README.md.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},         {"rows_per_s", "rows/s"},
    {"latency_p50_ms", "ms"}, {"accuracy", "fraction"},
    {"peak_rss_mb", "MiB"},   {"ok_frac", "fraction"},
};

// Per-layer metrics. Every workload reports every one; a layer the
// workload does not exercise reads 0.
std::vector<std::pair<std::string, std::string>> PerLayerCatalogue() {
  std::vector<std::pair<std::string, std::string>> m = {
      // Workload-specific end-to-end figures, under their own names.
      {"train_rows_per_s", "rows/s"},
      {"dataset_scans", "count"},
      {"score_rows_per_s", "rows/s"},
      {"serve_predict_p50_us", "us"},
      {"serve_predict_p99_us", "us"},
      {"serve_batch_p50_us", "us"},
      {"serve_batch_p99_us", "us"},
      {"serve_max_rows_per_s", "rows/s"},
      {"failed_frac", "fraction"},
      // Layers.
      {"io.load_s", "s"},
      {"io.bytes_read_mb", "MiB"},
      {"cmp.scan_s", "s"},
      {"cmp.plan_s", "s"},
      {"cmp.finish_s", "s"},
      {"hist.kernel_s", "s"},
      {"train.unattributed_s", "s"},
      {"cmp.passes", "count"},
      {"cmp.buffered_records", "count"},
      {"cmp.alive_intervals", "count"},
      {"cmp.sort_comparisons", "count"},
      {"cmp.predict_split_hit_rate", "fraction"},
      {"hist.code_cache_mb", "MiB"},
      {"hist.sibling_subtractions", "count"},
      {"dist.wire_mb_per_pass", "MiB"},
      {"dist.merge_s", "s"},
      {"dist.scan_wait_s", "s"},
      {"tree.save_s", "s"},
      {"tree.nodes", "count"},
      {"tree.depth", "count"},
      {"infer.bind_s", "s"},
      {"infer.predict_s", "s"},
      {"infer.descend_ns_per_row_tree", "ns"},
      {"infer.vote_share", "fraction"},
      {"infer.mt_scaling", "x"},
      {"serve.server_p50_us", "us"},
      {"serve.server_p99_us", "us"},
      {"serve.net_predict_p50_us", "us"},
      {"serve.net_batch_p50_us", "us"},
      {"serve.batch_fill", "fraction"},
      {"serve.backlog_max", "rows"},
      {"serve.gen_lag_p99_us", "us"},
      {"serve.daemon_threads", "count"},
      {"serve.protocol_errors", "count"},
  };
  for (double rate : kServeRates) {
    const std::string r = std::to_string(static_cast<int64_t>(rate));
    m.push_back({"serve.curve." + r + ".predict_p99_us", "us"});
    m.push_back({"serve.curve." + r + ".batch_p99_us", "us"});
  }
  m.push_back({"trace.coverage", "fraction"});
  m.push_back({"trace.overhead_frac", "fraction"});
  return m;
}

void SetE2e(Report* rep, const std::string& name, double value) {
  for (const auto& [n, unit] : kEndToEnd) {
    if (n == name) {
      rep->e2e[name] = {name, unit, value};
      rep->Detail(name, value, unit);
      return;
    }
  }
  throw std::logic_error("unknown end-to-end metric " + name);
}

// Set-up timing. A single-threaded set-up stays on whichever CPU it
// starts on, and on a shared host one CPU can be half again as slow as
// another, which made a run's median set-up time flip between two
// values from run to run. So the set-up is repeated `rounds` times on
// each CPU the process may use, one CPU after the other, and the figure
// is the mean over the CPUs of the median on each. `once(round)` runs one set-up
// and returns the seconds of its timed part.
struct SetupTimes {
  double value = 0.0;
  std::vector<double> samples;
  int cpus = 0;
};

SetupTimes TimeSetup(int rounds, const std::function<double(int)>& once) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: stay where we are
  // Restores the thread's CPU set however the loop ends, so later work
  // (and the threads it creates) may use every CPU again.
  struct Restore {
    const cpu_set_t* set;
    bool pinned = false;
    ~Restore() {
      if (pinned) ::sched_setaffinity(0, sizeof(*set), set);
    }
  } restore{&allowed};
  SetupTimes out;
  for (const int cpu : cpus) {
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      restore.pinned =
          ::sched_setaffinity(0, sizeof(one), &one) == 0 || restore.pinned;
    }
    std::vector<double> here;
    for (int round = 0; round < rounds; ++round) here.push_back(once(round));
    out.value += Median(here);
    out.samples.insert(out.samples.end(), here.begin(), here.end());
  }
  out.value /= static_cast<double>(cpus.size());
  out.cpus = static_cast<int>(cpus.size());
  return out;
}

void SetSetup(Report* rep, const SetupTimes& setup) {
  SetE2e(rep, "setup_s", setup.value);
  rep->Detail("setup_n", static_cast<double>(setup.samples.size()), "count");
  rep->Detail("setup_cpus", setup.cpus, "count");
  rep->Detail("setup_min_s",
              *std::min_element(setup.samples.begin(), setup.samples.end()),
              "s");
  rep->Detail("setup_max_s",
              *std::max_element(setup.samples.begin(), setup.samples.end()),
              "s");
}

void SetLayer(Report* rep, const std::string& name, double value) {
  for (const auto& [n, unit] : PerLayerCatalogue()) {
    if (n == name) {
      rep->layer[name] = {name, unit, value};
      rep->Detail(name, value, unit);
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

// ---------------------------------------------------------------------
// Host stamp: what a result was measured on, so a 1-thread or
// non-AVX2 run is never mistaken for a 4-thread AVX2 one.

struct Host {
  unsigned hardware_threads = 0;
  long online_cpus = 0;
  std::string kernel_isa;
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string commit;
  std::string source;
};

Host StampHost(const Args& args) {
  Host h;
  h.hardware_threads = std::thread::hardware_concurrency();
  h.online_cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  h.kernel_isa = cmp::KernelIsaName(cmp::ActiveKernelIsa());
  h.commit = args.commit;
  h.source = args.source;
  return h;
}

// ---------------------------------------------------------------------
// Inputs.

struct Inputs {
  std::string dir;
  std::vector<std::string> train_tables;  // 1M F7 records each
  std::string holdout_table;  // 1M F7 records from the held-out seed
  std::vector<std::string> ref_trees;  // 1-thread in-memory CMP trees
  std::string tree_blob;      // ref_trees[0] compiled to .cmpb (served)
  std::string forest_blob;    // 20-round boosted CMP-B forest
  std::string forest_labels;  // scalar-tier 1-thread forest labels
};

Inputs InputsFor(const Args& args) {
  Inputs in;
  in.dir = args.work + "/inputs/s" + std::to_string(args.seed);
  for (int t = 0; t < kTrainTables; ++t) {
    in.train_tables.push_back(in.dir + "/train" + std::to_string(t) + ".cmpt");
    in.ref_trees.push_back(in.dir + "/ref" + std::to_string(t) + ".tree");
  }
  in.holdout_table = in.dir + "/holdout.cmpt";
  in.tree_blob = in.dir + "/ref0.cmpb";
  in.forest_blob = in.dir + "/forest.cmpb";
  in.forest_labels = in.dir + "/forest.labels";
  return in;
}

cmp::CmpOptions TrainOptions(int threads, cmp::TrainObserver* observer) {
  cmp::CmpOptions o = cmp::CmpFullOptions();
  o.base.num_threads = threads;
  o.base.observer = observer;
  return o;
}

void GenerateTable(uint64_t seed, int64_t records, const std::string& path) {
  if (FileExists(path)) return;
  cmp::AgrawalOptions o;
  o.function = cmp::AgrawalFunction::kF7;
  o.num_records = records;
  o.seed = seed;
  const cmp::Dataset ds = cmp::GenerateAgrawal(o);
  if (!cmp::SaveTableFile(ds, path + ".tmp")) {
    throw std::runtime_error("cannot write " + path);
  }
  Publish(path + ".tmp", path);
}

void LoadTableOrThrow(const std::string& path, cmp::Dataset* ds) {
  if (!cmp::LoadTableFile(path, ds)) {
    throw std::runtime_error("cannot load " + path);
  }
}

void Prepare(const Args& args) {
  const Inputs in = InputsFor(args);
  MakeDirs(in.dir);
  const std::string& w = args.workload;
  GenerateTable(HoldoutSeed(args.seed), kHoldoutRecords, in.holdout_table);
  // serve needs only the first table's tree.
  const int tables = w == "train" || w == "train-dist" ? kTrainTables
                     : w == "serve"                    ? 1
                                                       : 0;
  for (int t = 0; t < tables; ++t) {
    GenerateTable(TrainSeed(args.seed, t), kTrainRecords, in.train_tables[t]);
    const std::string& ref = in.ref_trees[t];
    if (!FileExists(ref)) {
      // The reference every timed build is held to: a 1-thread build.
      cmp::Dataset ds;
      LoadTableOrThrow(in.train_tables[t], &ds);
      cmp::CmpBuilder builder(TrainOptions(1, nullptr));
      const cmp::BuildResult r = builder.Build(ds);
      if (!cmp::SaveTree(r.tree, ref + ".tmp")) {
        throw std::runtime_error("cannot write " + ref);
      }
      Publish(ref + ".tmp", ref);
    }
  }
  if (w == "serve" && !FileExists(in.tree_blob)) {
    cmp::DecisionTree tree;
    if (!cmp::LoadTree(in.ref_trees[0], &tree)) {
      throw std::runtime_error("cannot load " + in.ref_trees[0]);
    }
    std::string error;
    if (!cmp::SaveModelBlob({&tree}, in.tree_blob + ".tmp", &error)) {
      throw std::runtime_error("cannot compile tree: " + error);
    }
    Publish(in.tree_blob + ".tmp", in.tree_blob);
  }
  if (w == "score") {
    if (!FileExists(in.forest_blob)) {
      cmp::AgrawalOptions o;
      o.function = cmp::AgrawalFunction::kF7;
      o.num_records = kForestRecords;
      o.seed = ForestSeed(args.seed);
      const cmp::Dataset ds = cmp::GenerateAgrawal(o);
      cmp::BoostOptions bo;
      bo.base.num_threads = kTrainThreads;
      bo.boost.rounds = kForestRounds;
      cmp::BoostBuilder builder(bo);
      const cmp::BuildResult r = builder.Build(ds);
      std::vector<const cmp::DecisionTree*> trees;
      for (const cmp::DecisionTree& t : r.forest) trees.push_back(&t);
      std::string error;
      if (!cmp::SaveModelBlob(trees, in.forest_blob + ".tmp", &error)) {
        throw std::runtime_error("cannot compile forest: " + error);
      }
      Publish(in.forest_blob + ".tmp", in.forest_blob);
    }
    if (!FileExists(in.forest_labels)) {
      // The reference labels: 1 thread, scalar descent tier pinned.
      cmp::CompiledModel model;
      std::string error;
      if (!cmp::LoadCompiledModel(in.forest_blob, &model, &error)) {
        throw std::runtime_error("cannot bind forest: " + error);
      }
      cmp::Dataset holdout;
      LoadTableOrThrow(in.holdout_table, &holdout);
      const cmp::KernelIsa active = cmp::ActiveKernelIsa();
      cmp::SetKernelIsa(cmp::KernelIsa::kScalar);
      if (&cmp::ActiveInferKernelOps() !=
          &cmp::InferKernelOpsFor(cmp::KernelIsa::kScalar)) {
        throw std::runtime_error("cannot pin the scalar descent tier");
      }
      cmp::PredictOptions po;
      po.num_threads = 1;
      const cmp::BatchResult r =
          cmp::EnsemblePredictor(model.trees, cmp::VoteKind::kAverageProb)
              .Predict(holdout, po);
      cmp::SetKernelIsa(active);
      std::ofstream out(in.forest_labels + ".tmp", std::ios::binary);
      out.write(reinterpret_cast<const char*>(r.labels.data()),
                static_cast<std::streamsize>(r.labels.size() *
                                             sizeof(cmp::ClassId)));
      if (!out.good()) throw std::runtime_error("cannot write labels");
      out.close();
      Publish(in.forest_labels + ".tmp", in.forest_labels);
    }
  }
}

// ---------------------------------------------------------------------
// Training observer: per-build layer figures, and (traced runs) spans
// for each pass's scan, finish and plan phases, placed backwards from
// the moment the pass is reported (plan ends there, finish precedes
// plan, scan precedes finish).

struct BuildFigures {
  double wall_s = 0;
  double scan_s = 0;
  double plan_s = 0;
  double finish_s = 0;
  double kernel_s = 0;
  double merge_s = 0;
  int64_t passes = 0;
  int64_t alive_intervals = 0;
  int64_t code_cache_bytes = 0;
  int64_t sibling_subtractions = 0;
  int64_t wire_bytes = 0;
  cmp::BuildStats stats;
};

class FigureObserver : public cmp::TrainObserver {
 public:
  FigureObserver(Tracer* tracer, BuildFigures* fig)
      : tracer_(tracer), fig_(fig) {}

  void OnPass(const cmp::PassObservation& p) override {
    fig_->scan_s += p.scan_seconds;
    fig_->plan_s += p.plan_seconds;
    fig_->finish_s += p.finish_seconds;
    fig_->kernel_s += p.kernel_seconds;
    fig_->merge_s += p.merge_seconds;
    fig_->passes += 1;
    fig_->alive_intervals += p.alive_intervals;
    fig_->code_cache_bytes = std::max(fig_->code_cache_bytes, p.code_cache_bytes);
    fig_->sibling_subtractions += p.sibling_subtractions;
    fig_->wire_bytes += p.wire_bytes;
    if (!tracer_->enabled()) return;
    const int64_t end = tracer_->NowNs();
    const int64_t plan = static_cast<int64_t>(p.plan_seconds * 1e9);
    const int64_t finish = static_cast<int64_t>(p.finish_seconds * 1e9);
    const int64_t scan = static_cast<int64_t>(p.scan_seconds * 1e9);
    const bool dist = p.workers > 0;
    const int64_t merge = static_cast<int64_t>(p.merge_seconds * 1e9);
    if (dist) {
      // The coordinator's scan is waiting on the workers, then merging.
      tracer_->AddComplete("dist", "dist.scan_wait",
                           end - plan - finish - scan, scan - merge);
      tracer_->AddComplete("dist", "dist.merge", end - plan - finish - merge,
                           merge);
    } else {
      tracer_->AddComplete("cmp", "cmp.scan", end - plan - finish - scan,
                           scan);
    }
    tracer_->AddComplete("cmp", "cmp.finish", end - plan - finish, finish);
    tracer_->AddComplete("cmp", "cmp.plan", end - plan, plan);
  }
  void OnBuildEnd(const cmp::BuildStats& stats) override {
    fig_->stats = stats;
  }

 private:
  Tracer* tracer_;
  BuildFigures* fig_;
};

// Accuracy of `tree` on `holdout`, scored by the batch predictor.
double TreeAccuracy(const cmp::DecisionTree& tree, const cmp::Dataset& holdout) {
  std::string error;
  const cmp::CompiledModel model = cmp::CompileModel({&tree}, &error);
  if (model.empty()) throw std::runtime_error("cannot compile: " + error);
  cmp::PredictOptions po;
  po.num_threads = kTrainThreads;
  const cmp::BatchPredictor predictor(&model.trees[0], po);
  const cmp::BatchResult r = predictor.Predict(holdout);
  int64_t correct = 0;
  for (int64_t i = 0; i < holdout.num_records(); ++i) {
    correct += r.labels[static_cast<size_t>(i)] == holdout.label(i);
  }
  return static_cast<double>(correct) /
         static_cast<double>(holdout.num_records());
}

// ---------------------------------------------------------------------
// train and train-dist.

// One table's builds in one phase (untraced or traced).
struct TableBuilds {
  std::vector<double> op_s;  // train: build + save; train-dist: build
  std::vector<double> save_s;
  std::vector<BuildFigures> figures;
};

// The per-table median of `get` over a phase's builds, averaged over
// the tables: the figure for "one build of one table".
double MeanOfMedians(const std::vector<TableBuilds>& tables,
                     const std::function<double(const TableBuilds&,
                                                size_t)>& get) {
  double sum = 0.0;
  for (const TableBuilds& t : tables) {
    std::vector<double> v;
    for (size_t i = 0; i < t.op_s.size(); ++i) v.push_back(get(t, i));
    sum += Median(v);
  }
  return sum / static_cast<double>(tables.size());
}

double MeanOfFigure(const std::vector<TableBuilds>& tables,
                    double (*get)(const BuildFigures&)) {
  return MeanOfMedians(tables, [get](const TableBuilds& t, size_t i) {
    return get(t.figures[i]);
  });
}

// Layer figures common to `train` and `train-dist`, per build of one
// table (times: per-table medians; counts are exact per table).
void SetBuildLayers(Report* rep, const std::vector<TableBuilds>& t, bool dist) {
  constexpr double kMib = 1024.0 * 1024.0;
  auto set = [&](const char* name, double (*get)(const BuildFigures&)) {
    SetLayer(rep, name, MeanOfFigure(t, get));
  };
  set("cmp.scan_s", [](const BuildFigures& b) { return b.scan_s; });
  set("cmp.plan_s", [](const BuildFigures& b) { return b.plan_s; });
  set("cmp.finish_s", [](const BuildFigures& b) { return b.finish_s; });
  set("hist.kernel_s", [](const BuildFigures& b) { return b.kernel_s; });
  set("train.unattributed_s", [](const BuildFigures& b) {
    return b.wall_s - b.scan_s - b.plan_s - b.finish_s;
  });
  set("cmp.passes",
      [](const BuildFigures& b) { return static_cast<double>(b.passes); });
  set("cmp.buffered_records", [](const BuildFigures& b) {
    return static_cast<double>(b.stats.buffered_records);
  });
  set("cmp.alive_intervals", [](const BuildFigures& b) {
    return static_cast<double>(b.alive_intervals);
  });
  set("cmp.sort_comparisons", [](const BuildFigures& b) {
    return static_cast<double>(b.stats.sort_comparisons);
  });
  set("cmp.predict_split_hit_rate", [](const BuildFigures& b) {
    return b.stats.predictions_total > 0
               ? static_cast<double>(b.stats.predictions_correct) /
                     static_cast<double>(b.stats.predictions_total)
               : 0.0;
  });
  set("hist.code_cache_mb", [](const BuildFigures& b) {
    return static_cast<double>(b.code_cache_bytes) / kMib;
  });
  set("hist.sibling_subtractions", [](const BuildFigures& b) {
    return static_cast<double>(b.sibling_subtractions);
  });
  set("tree.nodes", [](const BuildFigures& b) {
    return static_cast<double>(b.stats.tree_nodes);
  });
  set("tree.depth", [](const BuildFigures& b) {
    return static_cast<double>(b.stats.tree_depth);
  });
  if (!dist) return;
  set("dist.wire_mb_per_pass", [](const BuildFigures& b) {
    return static_cast<double>(b.wire_bytes) / kMib /
           static_cast<double>(std::max<int64_t>(b.passes, 1));
  });
  set("dist.merge_s", [](const BuildFigures& b) { return b.merge_s; });
  set("dist.scan_wait_s",
      [](const BuildFigures& b) { return b.scan_s - b.merge_s; });
  set("io.bytes_read_mb", [](const BuildFigures& b) {
    return static_cast<double>(b.stats.bytes_read) / kMib;
  });
}

// Builds the seed's tables in turn, each checked byte for byte against
// its 1-thread reference. `train` holds one table in memory at a time.
class TrainRunner {
 public:
  TrainRunner(const Args& args, bool dist, Report* rep)
      : args_(args), dist_(dist), in_(InputsFor(args)), rep_(rep) {
    for (const std::string& path : in_.ref_trees) {
      std::string bytes;
      if (!ReadFile(path, &bytes)) {
        throw std::runtime_error("missing input " + path);
      }
      refs_.push_back(std::move(bytes));
    }
    MakeDirs(args.work + "/out");
    out_tree_ = args.work + "/out/" + args.workload + "-s" +
                std::to_string(args.seed) + ".tree";
  }

  const Inputs& inputs() const { return in_; }
  const std::vector<std::string>& refs() const { return refs_; }
  void Release() { ds_ = cmp::Dataset(); resident_ = -1; }

  // One set-up of table `t`, timed: train loads it into memory; train-dist
  // opens it and streams it once through the block source, the way each
  // worker reads its slice.
  double Setup(int t, Tracer* tracer) {
    const double s0 = Now();
    if (!dist_) {
      Span span(tracer, "io", "io.load");
      Load(t);
    } else {
      Span span(tracer, "io", "io.block_stream");
      auto source = cmp::TableBlockSource::Open(in_.train_tables[t],
                                                kDistBlockRecords);
      if (source == nullptr) throw std::runtime_error("cannot open table");
      cmp::BlockView view;
      int64_t rows = 0;
      while (source->NextBlock(&view)) rows += view.count;
      if (source->failed() || rows != kTrainRecords) {
        throw std::runtime_error("short table read");
      }
    }
    return Now() - s0;
  }

  // Builds table `t` once and checks the tree.
  void Build(int t, Tracer* tracer, TableBuilds* out) {
    if (!dist_ && resident_ != t) {
      Span span(tracer, "io", "io.load");
      Load(t);
    }
    BuildFigures fig;
    FigureObserver observer(tracer, &fig);
    const char* layer = dist_ ? "dist" : "cmp";
    const double start = Now();
    cmp::BuildResult r;
    {
      Span span(tracer, layer, std::string(layer) + ".build");
      if (!dist_) {
        cmp::CmpBuilder builder(TrainOptions(kTrainThreads, &observer));
        r = builder.Build(ds_);
      } else {
        cmp::dist::DistOptions d;
        d.num_workers = kDistWorkers;
        d.num_threads = kDistThreadsPerWorker;
        d.block_records = kDistBlockRecords;
        r = cmp::dist::DistTrain(in_.train_tables[t],
                                 TrainOptions(kDistThreadsPerWorker, &observer),
                                 d);
      }
    }
    fig.wall_s = Now() - start;
    std::string bytes;
    if (!dist_) {
      // train writes the tree, as `cmptool train --out` does.
      const double s0 = Now();
      {
        Span span(tracer, "tree", "tree.save");
        if (!cmp::SaveTree(r.tree, out_tree_)) {
          throw std::runtime_error("cannot write " + out_tree_);
        }
      }
      out->save_s.push_back(Now() - s0);
      out->op_s.push_back(Now() - start);
      ReadFile(out_tree_, &bytes);
    } else {
      out->op_s.push_back(fig.wall_s);
      bytes = cmp::SerializeTree(r.tree);
    }
    rep_->Check(bytes == refs_[t],
                "table " + std::to_string(t) +
                    ": tree bytes differ from the 1-thread reference");
    out->figures.push_back(fig);
  }

  // Builds the tables round-robin, starting after the table built last,
  // until `seconds` have passed and every table has been built.
  void Phase(double seconds, Tracer* tracer, std::vector<TableBuilds>* out) {
    out->assign(kTrainTables, TableBuilds());
    const double t0 = Now();
    int built = 0;
    while (built < kTrainTables || Now() - t0 < seconds) {
      next_ = (next_ + 1) % kTrainTables;
      Build(next_, tracer, &(*out)[next_]);
      ++built;
    }
  }

 private:
  void Load(int t) {
    ds_ = cmp::Dataset();
    LoadTableOrThrow(in_.train_tables[t], &ds_);
    resident_ = t;
  }

  const Args& args_;
  const bool dist_;
  const Inputs in_;
  Report* rep_;
  std::vector<std::string> refs_;
  std::string out_tree_;
  cmp::Dataset ds_;
  int resident_ = -1;
  int next_ = -1;
};

void RunTrain(const Args& args, bool dist, Tracer* tracer, Report* rep) {
  TrainRunner runner(args, dist, rep);
  const SetupTimes setup = TimeSetup(kSetupsPerCpu, [&](int round) {
    return runner.Setup(round % kTrainTables, tracer);
  });

  std::unique_ptr<TreePssSampler> sampler;
  if (dist) sampler = std::make_unique<TreePssSampler>();
  // Verify before timing: one untimed build, held to the reference like
  // every timed one (it also lets lazy set-up and caches settle).
  Tracer off(false);
  TableBuilds warm;
  runner.Build(0, &off, &warm);

  std::vector<TableBuilds> untraced;
  std::vector<TableBuilds> traced;
  const double timed = args.trace ? args.seconds / 2 : args.seconds;
  runner.Phase(timed, &off, &untraced);
  const int64_t t0 = tracer->NowNs();
  const double w0 = Now();
  if (args.trace) runner.Phase(timed, tracer, &traced);
  const double traced_wall = Now() - w0;
  const int64_t t1 = tracer->NowNs();

  const double peak_mib =
      dist ? sampler->StopAndPeakMib() : PeakRssMib(::getpid());

  // Accuracy on the held-out rows, after the peak is taken.
  runner.Release();
  cmp::Dataset holdout;
  LoadTableOrThrow(runner.inputs().holdout_table, &holdout);
  double accuracy = 0.0;
  for (const std::string& ref : runner.refs()) {
    cmp::DecisionTree tree;
    if (!cmp::DeserializeTree(ref, &tree)) {
      throw std::runtime_error("cannot parse a reference tree");
    }
    accuracy += TreeAccuracy(tree, holdout) / kTrainTables;
  }

  auto op = [](const TableBuilds& t, size_t i) { return t.op_s[i]; };
  const double op_s = MeanOfMedians(untraced, op);
  const double rows_per_s = static_cast<double>(kTrainRecords) / op_s;
  SetSetup(rep, setup);
  SetE2e(rep, "rows_per_s", rows_per_s);
  SetE2e(rep, "latency_p50_ms", op_s * 1e3);
  SetE2e(rep, "accuracy", accuracy);
  SetE2e(rep, "peak_rss_mb", peak_mib);
  int64_t builds = 0;
  for (const TableBuilds& t : untraced) builds += static_cast<int64_t>(t.op_s.size());
  rep->Detail("tables", kTrainTables, "count");
  rep->Detail("builds_timed", static_cast<double>(builds), "count");
  SetLayer(rep, "train_rows_per_s", rows_per_s);
  SetLayer(rep, "dataset_scans",
           MeanOfFigure(untraced, [](const BuildFigures& b) {
             return static_cast<double>(b.stats.dataset_scans);
           }));
  if (!dist) {
    SetLayer(rep, "io.load_s", setup.value);
    SetLayer(rep, "tree.save_s",
             MeanOfMedians(untraced, [](const TableBuilds& t, size_t i) {
               return t.save_s[i];
             }));
  }
  SetBuildLayers(rep, args.trace ? traced : untraced, dist);
  if (args.trace) {
    SetLayer(rep, "trace.coverage",
             tracer->CoveredSeconds(t0, t1) / std::max(traced_wall, 1e-9));
    SetLayer(rep, "trace.overhead_frac",
             MeanOfMedians(traced, op) / op_s - 1.0);
  }
}

// ---------------------------------------------------------------------
// score.

void RunScore(const Args& args, Tracer* tracer, Report* rep) {
  const Inputs in = InputsFor(args);
  cmp::Dataset holdout;
  const double l0 = Now();
  {
    Span span(tracer, "io", "io.load");
    LoadTableOrThrow(in.holdout_table, &holdout);
  }
  const double load_s = Now() - l0;
  std::string ref_raw;
  if (!ReadFile(in.forest_labels, &ref_raw) ||
      ref_raw.size() != static_cast<size_t>(holdout.num_records()) *
                            sizeof(cmp::ClassId)) {
    throw std::runtime_error("missing or short input " + in.forest_labels);
  }
  std::vector<cmp::ClassId> ref(static_cast<size_t>(holdout.num_records()));
  std::memcpy(ref.data(), ref_raw.data(), ref_raw.size());

  // Set-up: bind the blob and build the predictor.
  std::unique_ptr<cmp::CompiledModel> model;
  std::unique_ptr<cmp::EnsemblePredictor> ensemble;
  const SetupTimes bind = TimeSetup(kBindsPerCpu, [&](int) {
    const double b0 = Now();
    Span span(tracer, "infer", "infer.bind");
    auto m = std::make_unique<cmp::CompiledModel>();
    std::string error;
    if (!cmp::LoadCompiledModel(in.forest_blob, m.get(), &error)) {
      throw std::runtime_error("cannot bind forest: " + error);
    }
    auto e = std::make_unique<cmp::EnsemblePredictor>(
        m->trees, cmp::VoteKind::kAverageProb);
    const double seconds = Now() - b0;
    ensemble = std::move(e);  // drop the old predictor before its blob
    model = std::move(m);
    return seconds;
  });

  cmp::PredictOptions po;
  po.num_threads = kScoreThreads;
  auto check = [&](const cmp::BatchResult& r, const std::string& what) {
    rep->Check(r.labels == ref,
               what + ": labels differ from the scalar 1-thread reference");
  };
  // Verify before timing (and warm the predictor's pool and scratch).
  check(ensemble->Predict(holdout, po), "warm-up call");

  auto loop = [&](double seconds, Tracer* tr, std::vector<double>* calls) {
    const double t0 = Now();
    while (calls->size() < 3 || Now() - t0 < seconds) {
      const double c0 = Now();
      cmp::BatchResult r;
      {
        Span span(tr, "infer", "infer.predict");
        r = ensemble->Predict(holdout, po);
      }
      calls->push_back(Now() - c0);
      check(r, "call " + std::to_string(calls->size()));
    }
  };
  Tracer off(false);
  std::vector<double> untraced;
  const double timed = args.trace ? args.seconds / 2 : args.seconds;
  loop(timed, &off, &untraced);
  const double peak_mib = PeakRssMib(::getpid());

  const cmp::BatchResult last = ensemble->Predict(holdout, po);
  int64_t correct = 0;
  for (int64_t i = 0; i < holdout.num_records(); ++i) {
    correct += last.labels[static_cast<size_t>(i)] == holdout.label(i);
  }
  const double call_s = Median(untraced);
  const double rows_per_s = static_cast<double>(holdout.num_records()) / call_s;
  SetSetup(rep, bind);
  SetE2e(rep, "rows_per_s", rows_per_s);
  SetE2e(rep, "latency_p50_ms", call_s * 1e3);
  SetE2e(rep, "accuracy", static_cast<double>(correct) /
                              static_cast<double>(holdout.num_records()));
  SetE2e(rep, "peak_rss_mb", peak_mib);
  const Dist calls = Summarize(untraced);
  rep->Detail("calls_timed", static_cast<double>(calls.n), "count");
  rep->Detail("call_tail_ms", calls.tail * 1e3, "ms");
  rep->Detail("call_tail_pct", calls.tail_pct, "pct");
  rep->Detail("forest_trees", model->num_trees(), "count");
  SetLayer(rep, "score_rows_per_s", rows_per_s);
  SetLayer(rep, "io.load_s", load_s);
  SetLayer(rep, "infer.bind_s", bind.value);
  SetLayer(rep, "infer.predict_s", call_s);
  if (!args.trace) return;

  // Traced half: the same calls with spans, then the descent/vote
  // split on a row subset: every member descended alone through the
  // public single-tree path, against the whole ensemble, both on one
  // thread, and the ensemble again on kScoreThreads.
  const int64_t t0 = tracer->NowNs();
  const double w0 = Now();
  std::vector<double> traced;
  loop(timed, tracer, &traced);
  std::vector<cmp::RecordId> rids(static_cast<size_t>(kTracedScoreRows));
  for (int64_t i = 0; i < kTracedScoreRows; ++i) rids[static_cast<size_t>(i)] = i;
  const cmp::Dataset sub = holdout.Subset(rids);
  cmp::PredictOptions one;
  one.num_threads = 1;
  double members_s = 0.0;
  for (const cmp::CompiledTree& t : model->trees) {
    const cmp::BatchPredictor single(&t, one);
    const double d0 = Now();
    Span span(tracer, "infer", "infer.descend_one_tree");
    const cmp::BatchResult r = single.Predict(sub);
    members_s += Now() - d0;
    rep->Check(r.labels.size() == rids.size(), "single-tree descent");
  }
  std::vector<double> ens1, ens4;
  for (int k = 0; k < 3; ++k) {
    double e0 = Now();
    {
      Span span(tracer, "infer", "infer.ensemble_1t");
      ensemble->Predict(sub, one);
    }
    ens1.push_back(Now() - e0);
    e0 = Now();
    {
      Span span(tracer, "infer", "infer.ensemble_mt");
      ensemble->Predict(sub, po);
    }
    ens4.push_back(Now() - e0);
  }
  const double wall = Now() - w0;
  const int64_t t1 = tracer->NowNs();
  const double e1 = Median(ens1);
  SetLayer(rep, "infer.descend_ns_per_row_tree",
           members_s * 1e9 /
               (static_cast<double>(kTracedScoreRows) * model->num_trees()));
  SetLayer(rep, "infer.vote_share", std::max(0.0, 1.0 - members_s / e1));
  SetLayer(rep, "infer.mt_scaling", e1 / Median(ens4));
  SetLayer(rep, "trace.coverage", tracer->CoveredSeconds(t0, t1) / wall);
  SetLayer(rep, "trace.overhead_frac", Median(traced) / call_s - 1.0);
}

// ---------------------------------------------------------------------
// serve.

class Daemon {
 public:
  Daemon(const std::string& bin, const std::string& blob,
         const std::string& port_file, const std::string& log)
      : port_file_(port_file) {
    std::remove(port_file.c_str());
    const std::string model_arg = "m=" + blob;
    const std::string threads = std::to_string(kServeThreads);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      std::FILE* f = std::freopen(log.c_str(), "a", stderr);
      (void)f;
      ::execl(bin.c_str(), bin.c_str(), "--model", model_arg.c_str(),
              "--port", "0", "--port-file", port_file.c_str(), "--threads",
              threads.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Waits until the daemon listens (port file complete). Returns false
  // if it exits or takes longer than 30 s.
  bool WaitListening() {
    const double deadline = Now() + 30.0;
    while (Now() < deadline) {
      std::string text;
      if (ReadFile(port_file_, &text) && !text.empty() && text.back() == '\n') {
        port_ = std::atoi(text.c_str());
        return port_ > 0;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  }

  // Orderly `quit`; SIGKILL if the daemon does not exit within 5 s.
  void Stop() {
    if (pid_ <= 0) return;
    if (port_ > 0) AdminRequest(port_, "quit");
    const double deadline = Now() + 5.0;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  std::string port_file_;
  pid_t pid_ = -1;
  int port_ = 0;
};

// Number after "key": in a flat JSON text, or 0.
double JsonNumber(const std::string& json, const std::string& key) {
  const std::string k = "\"" + key + "\":";
  const size_t at = json.find(k);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + k.size(), nullptr);
}

void RunServe(const Args& args, Tracer* tracer, Report* rep) {
  const Inputs in = InputsFor(args);
  // The rows the generator sends, the labels the batch predictor gives
  // them (what every served reply must equal) and their true labels.
  cmp::Dataset holdout;
  LoadTableOrThrow(in.holdout_table, &holdout);
  std::vector<cmp::RecordId> rids(static_cast<size_t>(kServeRows));
  for (int64_t i = 0; i < kServeRows; ++i) rids[static_cast<size_t>(i)] = i;
  const cmp::Dataset rows_ds = holdout.Subset(rids);
  holdout = cmp::Dataset();
  // The daemon binds this blob inside its set-up; the same bind, in
  // process, is the layer's share of it.
  cmp::CompiledModel model;
  const SetupTimes bind = TimeSetup(kBindsPerCpu, [&](int) {
    const double b0 = Now();
    std::string error;
    if (!cmp::LoadCompiledModel(in.tree_blob, &model, &error)) {
      throw std::runtime_error("cannot bind served model: " + error);
    }
    return Now() - b0;
  });
  const cmp::BatchResult expect =
      cmp::BatchPredictor(&model.trees[0]).Predict(rows_ds);
  const cmp::Schema& schema = rows_ds.schema();
  std::vector<std::string> rows, expected, truth;
  char buf[64];
  for (int64_t r = 0; r < rows_ds.num_records(); ++r) {
    std::string row;
    for (int32_t a = 0; a < rows_ds.num_attrs(); ++a) {
      if (a > 0) row += ',';
      if (schema.is_numeric(a)) {
        std::snprintf(buf, sizeof(buf), "%.17g", rows_ds.numeric(a, r));
        row += buf;
      } else {
        row += std::to_string(rows_ds.categorical(a, r));
      }
    }
    rows.push_back(std::move(row));
    expected.push_back(schema.class_name(expect.labels[static_cast<size_t>(r)]));
    truth.push_back(schema.class_name(rows_ds.label(r)));
  }

  MakeDirs(args.work + "/out");
  const std::string stem =
      args.work + "/out/serve-s" + std::to_string(args.seed);
  const std::string log = stem + ".daemon.log";
  std::remove(log.c_str());

  // Set-up: spawn to listening with the model bound. Each timed daemon
  // starts on the CPU the driver is pinned to at the time, then quits;
  // the daemon that serves the traffic starts afterwards, free to use
  // every CPU.
  auto spawn = [&] {
    auto d = std::make_unique<Daemon>(args.serve_bin, in.tree_blob,
                                      stem + ".port", log);
    if (!d->WaitListening()) {
      throw std::runtime_error("cmpserve did not start (see " + log + ")");
    }
    return d;
  };
  const SetupTimes setup = TimeSetup(kSetupsPerCpu, [&](int) {
    const double s0 = Now();
    Span span(tracer, "serve", "serve.spawn");
    std::unique_ptr<Daemon> d = spawn();
    return Now() - s0;
  });
  std::unique_ptr<Daemon> daemon = spawn();
  const int port = daemon->port();

  LoadConfig base;
  base.port = port;
  base.model = "m";
  base.rows = &rows;
  base.expected = &expected;
  base.truth = &truth;
  Tracer off(false);

  // Verify before timing: a short, slow schedule (one batch and 64
  // single rows per connection) whose every reply must be right.
  {
    LoadConfig probe = base;
    probe.rows_per_s = 1280;
    probe.seconds = 0.2;
    probe.row_offset = 7;
    const LoadResult r = RunLoadStep(probe, &off);
    rep->Check(r.requests_failed == 0 && r.requests_attempted > 0,
               "verification step: " + std::to_string(r.requests_failed) +
                   " failed requests");
  }

  const double rates_n = static_cast<double>(std::size(kServeRates));
  // The lowest rate gets 40% of the time; the rest share the remainder.
  const double low_s = args.seconds * 0.4;
  const double high_s = args.seconds * 0.6 / (rates_n - 1);
  double max_sustained = 0.0;
  double served_at_max = 0.0;
  double max_within_limit = 0.0;
  bool stop_ladder = false;
  uint64_t offset = 0;
  LoadResult lowest;
  std::string low_stats;
  std::vector<double> lag_all;
  int64_t backlog_max = 0;
  double untraced_batch_p50 = 0.0;
  const int64_t t0 = tracer->NowNs();
  const double w0 = Now();
  if (args.trace) {
    // Overhead reference: the lowest rate once without spans.
    LoadConfig c = base;
    c.rows_per_s = kServeRates[0];
    c.seconds = low_s / 2;
    c.row_offset = offset;
    const LoadResult r = RunLoadStep(c, &off);
    offset += static_cast<uint64_t>(c.rows_per_s * c.seconds);
    rep->attempted += r.requests_attempted;
    rep->failed += r.requests_failed;
    untraced_batch_p50 = Summarize(r.batch_us).p50;
  }
  for (size_t i = 0; i < std::size(kServeRates); ++i) {
    const double rate = kServeRates[i];
    const std::string r = std::to_string(static_cast<int64_t>(rate));
    if (stop_ladder) {
      // Rates above the first one the daemon could not sustain would
      // only pile up more backlog; they read 0 (not run).
      SetLayer(rep, "serve.curve." + r + ".predict_p99_us", 0.0);
      SetLayer(rep, "serve.curve." + r + ".batch_p99_us", 0.0);
      rep->Detail("serve.curve." + r + ".run", 0, "flag");
      continue;
    }
    LoadConfig c = base;
    c.rows_per_s = rate;
    c.seconds = i == 0 ? low_s : high_s;
    c.row_offset = offset;
    offset += static_cast<uint64_t>(rate * c.seconds);
    LoadResult res;
    {
      Span span(tracer, "bench", "serve.step." + r);
      res = RunLoadStep(c, tracer);
    }
    const Dist pd = Summarize(res.predict_us);
    const Dist bd = Summarize(res.batch_us);
    const Dist lag = Summarize(res.lag_us);
    lag_all.insert(lag_all.end(), res.lag_us.begin(), res.lag_us.end());
    backlog_max = std::max(backlog_max, res.backlog_max_rows);
    // Every request of every step counts: failures at any rate (a
    // wrong label, an err reply, a timeout, a refused connection) are
    // failed operations.
    rep->attempted += res.requests_attempted;
    rep->failed += res.requests_failed;
    if (res.wrong_labels > 0) {
      rep->failures.push_back("rate " + r + ": " +
                              std::to_string(res.wrong_labels) +
                              " served labels differ from BatchPredictor");
    }
    if (res.err_replies + res.timeouts + res.refused > 0) {
      rep->failures.push_back(
          "rate " + r + ": " + std::to_string(res.err_replies) + " err, " +
          std::to_string(res.timeouts) + " timeouts, " +
          std::to_string(res.refused) + " refused");
    }
    const bool sustained = res.requests_failed == 0 && !res.backlog_grew;
    const bool within = sustained && pd.tail <= kServeLatencyLimitUs &&
                        bd.tail <= kServeLatencyLimitUs;
    if (sustained) {
      max_sustained = rate;
      served_at_max = res.served_rows_per_s;
    }
    if (within) max_within_limit = rate;
    if (!sustained) stop_ladder = true;
    SetLayer(rep, "serve.curve." + r + ".predict_p99_us", pd.tail);
    SetLayer(rep, "serve.curve." + r + ".batch_p99_us", bd.tail);
    rep->Detail("serve.curve." + r + ".run", 1, "flag");
    rep->Detail("serve.curve." + r + ".predict_p50_us", pd.p50, "us");
    rep->Detail("serve.curve." + r + ".batch_p50_us", bd.p50, "us");
    rep->Detail("serve.curve." + r + ".predict_n", pd.n, "count");
    rep->Detail("serve.curve." + r + ".batch_n", bd.n, "count");
    rep->Detail("serve.curve." + r + ".predict_tail_pct", pd.tail_pct, "pct");
    rep->Detail("serve.curve." + r + ".batch_tail_pct", bd.tail_pct, "pct");
    rep->Detail("serve.curve." + r + ".gen_lag_p50_us", lag.p50, "us");
    rep->Detail("serve.curve." + r + ".backlog_max", res.backlog_max_rows,
                "rows");
    rep->Detail("serve.curve." + r + ".backlog_grew", res.backlog_grew, "flag");
    rep->Detail("serve.curve." + r + ".failed", res.requests_failed, "count");
    rep->Detail("serve.curve." + r + ".shed", res.requests_shed, "count");
    if (i == 0) {
      lowest = res;
      low_stats = AdminRequest(port, "stats");
    }
  }
  const double wall = Now() - w0;
  const int64_t t1 = tracer->NowNs();

  const pid_t pid = daemon->pid();
  const double peak_mib = PeakRssMib(pid);
  const int64_t threads = ProcStatusKb(pid, "Threads");
  // Address space, for connection threads that exited but were never
  // joined: their stacks stay mapped though Threads no longer counts them.
  const double vmsize_mib =
      static_cast<double>(ProcStatusKb(pid, "VmSize")) / 1024.0;
  const std::string end_stats = AdminRequest(port, "stats");
  daemon->Stop();

  const Dist pd = Summarize(lowest.predict_us);
  const Dist bd = Summarize(lowest.batch_us);
  const double server_p50 = JsonNumber(low_stats, "p50");
  const double server_p99 = JsonNumber(low_stats, "p99");
  rep->Check(!low_stats.empty() && low_stats.rfind("ok ", 0) == 0,
             "stats verb after the lowest rate");
  SetSetup(rep, setup);
  SetE2e(rep, "rows_per_s", served_at_max);
  rep->Detail("serve.max_sustained_rate", max_sustained, "rows/s");
  SetE2e(rep, "latency_p50_ms", bd.p50 / 1e3);
  SetE2e(rep, "accuracy",
         lowest.rows_answered > 0
             ? static_cast<double>(lowest.rows_correct_vs_truth) /
                   static_cast<double>(lowest.rows_answered)
             : 0.0);
  SetE2e(rep, "peak_rss_mb", peak_mib);
  SetLayer(rep, "serve_predict_p50_us", pd.p50);
  SetLayer(rep, "serve_predict_p99_us", pd.tail);
  SetLayer(rep, "serve_batch_p50_us", bd.p50);
  SetLayer(rep, "serve_batch_p99_us", bd.tail);
  SetLayer(rep, "serve_max_rows_per_s", max_within_limit);
  SetLayer(rep, "infer.bind_s", bind.value);
  SetLayer(rep, "serve.server_p50_us", server_p50);
  SetLayer(rep, "serve.server_p99_us", server_p99);
  SetLayer(rep, "serve.net_predict_p50_us", pd.p50 - server_p50);
  SetLayer(rep, "serve.net_batch_p50_us", bd.p50 - server_p50);
  SetLayer(rep, "serve.batch_fill", JsonNumber(low_stats, "batch_fill"));
  SetLayer(rep, "serve.backlog_max", static_cast<double>(backlog_max));
  SetLayer(rep, "serve.gen_lag_p99_us", Summarize(lag_all).tail);
  SetLayer(rep, "serve.daemon_threads", static_cast<double>(threads));
  SetLayer(rep, "serve.protocol_errors",
           JsonNumber(end_stats, "protocol_errors"));
  rep->Detail("serve.daemon_vmsize_mb", vmsize_mib, "MiB");
  rep->Detail("serve_predict_n", pd.n, "count");
  rep->Detail("serve_predict_tail_pct", pd.tail_pct, "pct");
  rep->Detail("serve_batch_n", bd.n, "count");
  rep->Detail("serve_batch_tail_pct", bd.tail_pct, "pct");
  rep->Detail("serve_lowest_rate_failed", lowest.requests_failed, "count");
  rep->Detail("serve_lowest_rate_attempted", lowest.requests_attempted,
              "count");
  if (args.trace) {
    SetLayer(rep, "trace.coverage", tracer->CoveredSeconds(t0, t1) / wall);
    SetLayer(rep, "trace.overhead_frac",
             untraced_batch_p50 > 0 ? bd.p50 / untraced_batch_p50 - 1.0 : 0.0);
  }
}

// ---------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--prepare") {
      a->prepare = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--work") {
      a->work = v;
    } else if (k == "--serve-bin") {
      a->serve_bin = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else if (k == "--source") {
      a->source = v;
    } else {
      return false;
    }
  }
  const bool known = a->workload == "train" || a->workload == "train-dist" ||
                     a->workload == "score" || a->workload == "serve";
  return known && !a->work.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver [--prepare] --work DIR --workload "
                 "train|train-dist|score|serve --seed N [--seconds S] "
                 "[--trace 0|1] [--serve-bin PATH] [--commit C] "
                 "[--source D]\n");
    return 2;
  }
  if (args.prepare) {
    Prepare(args);
    return 0;
  }
  Tracer tracer(args.trace == 1);
  Report rep;
  const Host host = StampHost(args);
  const double wall0 = Now();
  if (args.workload == "train" || args.workload == "train-dist") {
    RunTrain(args, args.workload == "train-dist", &tracer, &rep);
  } else if (args.workload == "score") {
    RunScore(args, &tracer, &rep);
  } else {
    if (args.serve_bin.empty()) throw std::runtime_error("--serve-bin needed");
    RunServe(args, &tracer, &rep);
  }
  const double ok_frac =
      rep.attempted > 0 ? 1.0 - static_cast<double>(rep.failed) /
                                    static_cast<double>(rep.attempted)
                        : 0.0;
  SetE2e(&rep, "ok_frac", ok_frac);
  SetLayer(&rep, "failed_frac", 1.0 - ok_frac);
  // Layers the workload does not exercise read 0.
  for (const auto& [name, unit] : PerLayerCatalogue()) {
    if (rep.layer.count(name) == 0) rep.layer[name] = {name, unit, 0.0};
  }
  const bool correct = rep.failed == 0 && rep.attempted > 0;

  std::string trace_path;
  if (args.trace) {
    MakeDirs(args.work + "/traces");
    trace_path = args.work + "/traces/" + args.workload + "-s" +
                 std::to_string(args.seed) + ".json";
    if (!tracer.WriteChromeJson(trace_path)) {
      throw std::runtime_error("cannot write " + trace_path);
    }
    for (const auto& [layer, s] : tracer.SelfSecondsByLayer()) {
      rep.Detail("self_s." + layer, s, "s");
    }
  }

  // Human-readable report, then the detail file, then the result line.
  std::printf("host: hardware_threads=%u online_cpus=%ld kernel_isa=%s "
              "compiler=%s build_type=%s commit=%s source=%s\n",
              host.hardware_threads, host.online_cpus, host.kernel_isa.c_str(),
              host.compiler.c_str(), host.build_type.c_str(),
              host.commit.c_str(), host.source.c_str());
  std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d wall_s=%.3f\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace,
              Now() - wall0);
  for (const Metric& m : rep.detail) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : rep.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  if (!trace_path.empty()) std::printf("trace: %s\n", trace_path.c_str());

  MakeDirs(args.work + "/results");
  const std::string detail_path =
      args.work + "/results/" + args.workload + "-s" +
      std::to_string(args.seed) + "-trace" + std::to_string(args.trace) +
      ".json";
  std::string d = "{\"host\":{\"hardware_threads\":" +
                  std::to_string(host.hardware_threads) +
                  ",\"online_cpus\":" + std::to_string(host.online_cpus) +
                  ",\"kernel_isa\":" + JsonString(host.kernel_isa) +
                  ",\"compiler\":" + JsonString(host.compiler) +
                  ",\"build_type\":" + JsonString(host.build_type) +
                  ",\"commit\":" + JsonString(host.commit) +
                  ",\"source\":" + JsonString(host.source) + "}" +
                  ",\"workload\":" + JsonString(args.workload) +
                  ",\"seed\":" + std::to_string(args.seed) +
                  ",\"seconds\":" + Fmt(args.seconds) +
                  ",\"trace\":" + std::to_string(args.trace) +
                  ",\"attempted\":" + std::to_string(rep.attempted) +
                  ",\"failed\":" + std::to_string(rep.failed) +
                  ",\"figures\":{";
  bool first = true;
  for (const Metric& m : rep.detail) {
    if (!first) d += ',';
    first = false;
    d += JsonString(m.name) + ":{\"value\":" + Fmt(m.value) +
         ",\"unit\":" + JsonString(m.unit) + "}";
  }
  d += "}}\n";
  std::ofstream(detail_path) << d;

  const std::map<std::string, Metric>& out = args.trace ? rep.layer : rep.e2e;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) +
                     ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : out) {
    if (!first) line += ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + Fmt(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
