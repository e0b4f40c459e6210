// Benchmark driver: runs one named PageRank workload against the i2mr
// library for a fixed wall time and prints one JSON line of raw figures.
//
//   i2mr_perfbench --workload pagerank-large-state --seed 1 --seconds 20
//                  --root .bench_run/pagerank-large-state
//
// Closed loop: append one batch, commit it, pin the committed epoch, then
// generate the next batch. Every call into the program is a public one and
// is timed from outside. With I2MR_TRACE_JSON set the epoch loop is traced
// (the program's own spans plus the driver's bench.* spans) and exported
// there; perfbench/run.py turns the trace into per-layer figures.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/pagerank.h"
#include "common/trace.h"
#include "mr/cluster.h"
#include "pipeline/pipeline.h"
#include "serving/shard_group.h"
#include "serving/shard_router.h"
#include "workload.h"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::Rng;

// Set-up time counts from process start-up.
const Clock::time_point kProcessStart = Clock::now();

double MsSince(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}
double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Workload {
  const char* name;
  uint32_t vertices;
  uint32_t updates_per_epoch;  // vertices re-sampled per batch (2 deltas each)
  double filter_threshold;     // CPC threshold (paper §5.3)
  int shards;                  // 0 = one unsharded pipeline
  double error_budget;         // mean relative error allowed vs the oracle
  double tail_percentile;      // epoch_ms_tail: >= 10 epochs beyond it
};

// Sizes, thresholds and budgets are explained in perfbench/README.md.
const Workload kWorkloads[] = {
    {"pagerank-large-state", 32768, 82, 0.01, 0, 0.02, 85},
    {"pagerank-heavy-delta", 4096, 205, 0.01, 0, 0.02, 95},
    {"pagerank-sharded-serving", 8192, 40, 0.001, 2, 0.01, 80},
};

constexpr double kAvgDegree = 8;
constexpr int kWorkers = 4;             // program worker threads in total
constexpr int kMaxIterations = 100;     // per job / refresh
constexpr double kEpsilon = 1e-4;       // L1 change that ends a job
constexpr int kReadsPerEpoch = 32;      // post-commit reads, unsharded
// The sharded reader sleeps this long between reads. Without a pause it
// took a whole core, and its read rate and latency followed whatever CPU
// the refresh and the hypervisor left it (30% run-to-run spread).
constexpr auto kReaderThink = std::chrono::microseconds(100);
constexpr size_t kCheckEvery = 4;       // epochs between answer checkpoints
constexpr size_t kReservoir = 100000;   // read-latency samples kept
constexpr size_t kTraceRingEvents = 1u << 17;
constexpr double kMiB = 1024.0 * 1024.0;

// Fixed-size uniform sample of read latencies (Algorithm R), so a fast
// reader's memory does not grow with the run.
class Reservoir {
 public:
  struct Sample {
    double pin_us, get_us, read_us;
  };
  explicit Reservoir(uint64_t seed) : rng_(seed) {}
  void Add(const Sample& s) {
    ++seen_;
    if (samples_.size() < kReservoir) {
      samples_.push_back(s);
    } else {
      uint64_t j = rng_.Uniform(seen_);
      if (j < kReservoir) samples_[j] = s;
    }
  }
  std::vector<double> Column(double Sample::*field) const {
    std::vector<double> out;
    out.reserve(samples_.size());
    for (const auto& s : samples_) out.push_back(s.*field);
    return out;
  }

 private:
  Rng rng_;
  uint64_t seen_ = 0;
  std::vector<Sample> samples_;
};

// rchar / wchar of this process (/proc/self/io).
std::pair<uint64_t, uint64_t> ProcessIo() {
  std::ifstream in("/proc/self/io");
  std::string name;
  uint64_t value = 0, rchar = 0, wchar = 0;
  while (in >> name >> value) {
    if (name == "rchar:") rchar = value;
    if (name == "wchar:") wchar = value;
  }
  return {rchar, wchar};
}

// Steal and total ticks of all CPUs (/proc/stat): the time the hypervisor
// ran other guests on this machine's vCPUs.
std::pair<uint64_t, uint64_t> CpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t value = 0, total = 0, steal = 0;
  for (int field = 0; field < 10 && in >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
  return {steal, total};
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// Bytes of the files under `root`; hard links (epoch snapshots link the
// engine's files) count once. The background compactor may remove files
// during the walk; a walk it cuts short is repeated.
uint64_t DiskBytes(const std::string& root) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::set<std::pair<dev_t, ino_t>> seen;
    total = 0;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(root, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      struct stat st;
      if (lstat(it->path().c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
        continue;
      }
      if (seen.insert({st.st_dev, st.st_ino}).second) {
        total += static_cast<uint64_t>(st.st_size);
      }
    }
    if (!ec) break;
  }
  return total;
}

// Errors seen during the run: program calls that failed, and violated
// checks. Shared with the reader thread.
class Outcome {
 public:
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    Note(why);
  }
  void Wrong(const std::string& why) {
    if (why.empty()) return;
    std::lock_guard<std::mutex> lock(mu_);
    correct_ = false;
    Note(why);
  }
  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  bool correct() const { return correct_; }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void Note(const std::string& why) {
    if (errors_.size() < 8) errors_.push_back(why);
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  }
  std::mutex mu_;
  bool correct_ = true;
  uint64_t failed_ = 0;
  std::atomic<uint64_t> attempted_{0};
  std::vector<std::string> errors_;
};

// What one epoch loop measured.
struct LoopFigures {
  std::vector<double> epoch_ms;
  std::vector<double> append_ms;
  double loop_s = 0;
  uint64_t rchar = 0, wchar = 0;  // bytes read / written during the loop
  double steal_pct = 0;           // share of CPU time stolen during the loop
  uint64_t appended = 0;
  uint64_t committed = 0;
  double refresh_merge_ms = 0;  // summed over epochs (unsharded only)
  uint64_t exchange_rounds = 0;
  uint64_t edges_exchanged = 0;
  uint64_t reads = 0;
  double check_s = 0;  // spent in answer checkpoints, left out of loop_s
};

class Metrics {
 public:
  void Set(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    items_.push_back("\"" + name + "\": {\"value\": " + buf +
                     ", \"unit\": \"" + unit + "\"}");
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      out += (i ? ", " : "") + items_[i];
    }
    return out + "}";
  }

 private:
  std::vector<std::string> items_;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

i2mr::IterJobSpec Spec(int partitions) {
  return i2mr::pagerank::MakeIterSpec("pr", partitions, kMaxIterations,
                                      kEpsilon);
}

// Runs the closed loop for `seconds`; `epoch` appends a batch and commits
// it, returning false when a program call failed (the loop then stops).
template <typename EpochFn>
void RunLoop(double seconds, EpochFn epoch, LoopFigures* fig) {
  TRACE_SPAN("bench.loop");
  const auto io_before = ProcessIo();
  const auto ticks_before = CpuTicks();
  const Clock::time_point start = Clock::now();
  while (MsSince(start) < seconds * 1000.0) {
    if (!epoch()) break;
  }
  fig->loop_s = MsSince(start) / 1000.0 - fig->check_s;
  const auto io_after = ProcessIo();
  fig->rchar = io_after.first - io_before.first;
  fig->wchar = io_after.second - io_before.second;
  const auto ticks_after = CpuTicks();
  if (ticks_after.second > ticks_before.second) {
    fig->steal_pct = 100.0 * (ticks_after.first - ticks_before.first) /
                     (ticks_after.second - ticks_before.second);
  }
}

struct RunState {
  const Workload* w = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  std::string root;
  perfbench::GraphGenerator* gen = nullptr;
  perfbench::Graph* graph = nullptr;
  Outcome* out = nullptr;
  LoopFigures fig;
  Reservoir reads{0};
  std::vector<double> answer_errors;  // one per checkpoint
  std::vector<double> disk_mb;        // one per checkpoint
  double setup_s = 0;
  uint64_t fsyncs = 0, segments = 0, mrbg_bytes = 0;
};

// Answer checkpoint, every kCheckEvery-th commit and after the loop: the
// served result (fetched by `serve`) must cover exactly the graph's
// vertices, respect the rank floor and stay within the error budget
// against the oracle on the graph as committed so far. Also samples the
// computation root's size. Its time is left out of the loop's rates.
template <typename ServeFn>
void Checkpoint(RunState* rs, ServeFn serve) {
  const Clock::time_point t = Clock::now();
  const std::vector<i2mr::KV> served = serve();
  Outcome& out = *rs->out;
  out.Wrong(perfbench::CheckKeySet(served, *rs->graph));
  out.Wrong(perfbench::CheckRankFloor(served));
  double error = 1;
  out.Wrong(perfbench::CheckAnswer(served,
                                   perfbench::OraclePageRank(*rs->graph),
                                   rs->w->error_budget, &error));
  rs->answer_errors.push_back(error);
  rs->disk_mb.push_back(DiskBytes(rs->root) / kMiB);
  rs->fig.check_s += MsSince(t) / 1000.0;
}

// -- Unsharded pipeline ------------------------------------------------------

void RunPipeline(RunState* rs) {
  const Workload& w = *rs->w;
  Outcome& out = *rs->out;
  i2mr::LocalCluster cluster(rs->root, kWorkers, i2mr::CostModel{});
  i2mr::PipelineOptions options;
  options.spec = Spec(kWorkers);
  options.engine.filter_threshold = w.filter_threshold;
  auto opened = i2mr::Pipeline::Open(&cluster, "pr", options);
  if (!opened.ok()) {
    out.Fail("Pipeline::Open: " + opened.status().ToString());
    return;
  }
  i2mr::Pipeline* pipeline = opened->get();
  {
    TRACE_SPAN("bench.bootstrap");
    auto st = pipeline->Bootstrap(perfbench::StructureRecords(*rs->graph),
                                  perfbench::UnitState(*rs->graph));
    if (!st.ok()) {
      out.Fail("Pipeline::Bootstrap: " + st.ToString());
      return;
    }
  }
  rs->setup_s = MsSince(kProcessStart) / 1000.0;

  Rng delta_rng(rs->seed * 2 + 1);
  Rng key_rng(rs->seed * 2 + 2);
  const uint32_t n = static_cast<uint32_t>(rs->graph->num_vertices());
  i2mr::trace::StartFromEnv();
  RunLoop(rs->seconds, [&] {
    auto batch = perfbench::UpdateBatch(*rs->gen, w.updates_per_epoch,
                                        &delta_rng, rs->graph);
    out.Attempt(2);  // append + commit
    const Clock::time_point t0 = Clock::now();
    {
      TRACE_SPAN("bench.append");
      auto seq = pipeline->AppendBatch(batch);
      if (!seq.ok()) {
        out.Fail("Pipeline::AppendBatch: " + seq.status().ToString());
        return false;
      }
    }
    rs->fig.append_ms.push_back(MsSince(t0));
    rs->fig.appended += batch.size();
    i2mr::StatusOr<i2mr::EpochStats> stats = [&] {
      TRACE_SPAN("bench.commit");
      return pipeline->RunEpoch();
    }();
    if (!stats.ok()) {
      out.Fail("Pipeline::RunEpoch: " + stats.status().ToString());
      return false;
    }
    rs->fig.epoch_ms.push_back(MsSince(t0));
    rs->fig.committed += stats->deltas_applied;
    rs->fig.refresh_merge_ms += stats->refresh_merge_ms;

    // Reads right after the commit: each pins the latest committed epoch
    // (which must be the one just committed) and gets one vertex.
    for (int i = 0; i < kReadsPerEpoch; ++i) {
      const std::string key =
          perfbench::VertexKey(static_cast<uint32_t>(key_rng.Uniform(n)));
      out.Attempt();
      const Clock::time_point a = Clock::now();
      i2mr::EpochPin pin = pipeline->PinServing();
      const Clock::time_point b = Clock::now();
      auto got = pin.Lookup(key);
      const Clock::time_point c = Clock::now();
      if (!got.ok()) {
        out.Fail("EpochPin::Lookup(" + key + "): " + got.status().ToString());
        continue;
      }
      out.Wrong(perfbench::CheckPinnedEpoch(pin.epoch(), stats->epoch));
      rs->reads.Add({UsBetween(a, b), UsBetween(b, c), UsBetween(a, c)});
      ++rs->fig.reads;
    }
    if (rs->fig.epoch_ms.size() % kCheckEvery == 0) {
      Checkpoint(rs, [&] { return pipeline->ServingSnapshot(); });
    }
    return true;
  }, &rs->fig);
  i2mr::trace::TraceCollector::Get()->Stop();

  out.Wrong(perfbench::CheckDeltaTotal(rs->fig.committed, rs->fig.appended));
  out.Wrong(perfbench::CheckDeltaTotal(pipeline->committed_watermark(),
                                       rs->fig.appended));
  Checkpoint(rs, [&] { return pipeline->ServingSnapshot(); });
  rs->fsyncs = pipeline->log()->sync_count();
  rs->segments = pipeline->log()->segment_files();
  auto bytes = pipeline->engine()->MrbgFileBytes();
  if (bytes.ok()) rs->mrbg_bytes = *bytes;
}

// -- Coordinated shards with a concurrent reader -----------------------------

// Calls `read` in a loop on its own thread until stopped; stopped and
// joined on every way out of the scope that owns it.
class ReaderThread {
 public:
  template <typename ReadFn>
  explicit ReaderThread(ReadFn read)
      : thread_([this, read]() mutable {
          while (!stop_.load(std::memory_order_relaxed)) read();
        }) {}
  ~ReaderThread() { Stop(); }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;  // after stop_, which it reads
};

void RunSharded(RunState* rs) {
  const Workload& w = *rs->w;
  Outcome& out = *rs->out;
  i2mr::ShardRouterOptions options;
  options.num_shards = w.shards;
  options.workers_per_shard = kWorkers / w.shards;
  options.cross_shard_exchange = true;
  options.cost = i2mr::CostModel{};
  options.pipeline.spec = Spec(kWorkers / w.shards);
  options.pipeline.engine.filter_threshold = w.filter_threshold;
  auto opened = i2mr::ShardRouter::Open(rs->root, "pr", options);
  if (!opened.ok()) {
    out.Fail("ShardRouter::Open: " + opened.status().ToString());
    return;
  }
  i2mr::ShardRouter* router = opened->get();
  {
    TRACE_SPAN("bench.bootstrap");
    auto st = router->Bootstrap(perfbench::StructureRecords(*rs->graph),
                                perfbench::UnitState(*rs->graph));
    if (!st.ok()) {
      out.Fail("ShardRouter::Bootstrap: " + st.ToString());
      return;
    }
  }
  i2mr::ShardGroup group(router);
  rs->setup_s = MsSince(kProcessStart) / 1000.0;

  // One closed-loop reader: pin a cross-shard snapshot, get one vertex,
  // pause.
  const uint32_t n = static_cast<uint32_t>(rs->graph->num_vertices());
  ReaderThread reader([&, key_rng = Rng(rs->seed * 2 + 2),
                       last_epoch = uint64_t{0}]() mutable {
    const std::string key =
        perfbench::VertexKey(static_cast<uint32_t>(key_rng.Uniform(n)));
    out.Attempt();
    const Clock::time_point a = Clock::now();
    auto snap = group.PinSnapshot();
    const Clock::time_point b = Clock::now();
    if (!snap.ok()) {
      out.Fail("ShardGroup::PinSnapshot: " + snap.status().ToString());
      return;
    }
    auto got = snap->Get(key);
    const Clock::time_point c = Clock::now();
    if (!got.ok()) {
      out.Fail("ShardSnapshot::Get(" + key + "): " + got.status().ToString());
      return;
    }
    out.Wrong(perfbench::CheckEpochVector(snap->epochs(), &last_epoch));
    rs->reads.Add({UsBetween(a, b), UsBetween(b, c), UsBetween(a, c)});
    ++rs->fig.reads;
    std::this_thread::sleep_for(kReaderThink);
  });

  // The served result: the union of the shards' committed results.
  auto serve = [&] {
    std::vector<i2mr::KV> served;
    for (int s = 0; s < router->num_shards(); ++s) {
      auto part = router->shard(s)->ServingSnapshot();
      served.insert(served.end(), part.begin(), part.end());
    }
    return served;
  };
  Rng delta_rng(rs->seed * 2 + 1);
  i2mr::trace::StartFromEnv();
  RunLoop(rs->seconds, [&] {
    auto batch = perfbench::UpdateBatch(*rs->gen, w.updates_per_epoch,
                                        &delta_rng, rs->graph);
    out.Attempt(3);  // append + commit + pinned check
    const Clock::time_point t0 = Clock::now();
    {
      TRACE_SPAN("bench.append");
      auto st = router->AppendBatch(batch);
      if (!st.ok()) {
        out.Fail("ShardRouter::AppendBatch: " + st.ToString());
        return false;
      }
    }
    rs->fig.append_ms.push_back(MsSince(t0));
    rs->fig.appended += batch.size();
    i2mr::StatusOr<i2mr::ShardRouter::CoordinatedEpochStats> stats = [&] {
      TRACE_SPAN("bench.commit");
      return router->RefreshCoordinated();
    }();
    if (!stats.ok() || !stats->committed) {
      out.Fail("ShardRouter::RefreshCoordinated: " +
               (stats.ok() ? std::string("nothing committed")
                           : stats.status().ToString()));
      return false;
    }
    rs->fig.epoch_ms.push_back(MsSince(t0));
    rs->fig.committed += stats->deltas_applied;
    rs->fig.exchange_rounds += static_cast<uint64_t>(stats->rounds);
    rs->fig.edges_exchanged += stats->edges_exchanged;

    auto snap = group.PinSnapshot();
    if (!snap.ok()) {
      out.Fail("ShardGroup::PinSnapshot: " + snap.status().ToString());
      return true;
    }
    for (uint64_t e : snap->epochs()) {
      out.Wrong(perfbench::CheckPinnedEpoch(e, stats->epoch));
    }
    if (rs->fig.epoch_ms.size() % kCheckEvery == 0) Checkpoint(rs, serve);
    return true;
  }, &rs->fig);
  reader.Stop();
  i2mr::trace::TraceCollector::Get()->Stop();

  out.Wrong(perfbench::CheckDeltaTotal(rs->fig.committed, rs->fig.appended));
  Checkpoint(rs, serve);
  uint64_t watermarks = 0;
  for (int s = 0; s < router->num_shards(); ++s) {
    i2mr::Pipeline* shard = router->shard(s);
    watermarks += shard->committed_watermark();
    rs->fsyncs += shard->log()->sync_count();
    rs->segments += shard->log()->segment_files();
    auto bytes = shard->engine()->MrbgFileBytes();
    if (bytes.ok()) rs->mrbg_bytes += *bytes;
  }
  out.Wrong(perfbench::CheckDeltaTotal(watermarks, rs->fig.appended));
}

int Usage() {
  std::fprintf(stderr,
               "usage: i2mr_perfbench --workload <name> --seed <n> "
               "--seconds <s> --root <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, root;
  uint64_t seed = 0;
  double seconds = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--root") {
      root = value;
    } else {
      return Usage();
    }
  }
  const Workload* w = nullptr;
  for (const auto& cand : kWorkloads) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr || root.empty() || seconds <= 0) return Usage();

  // Rings are sized before any program thread exists, so every thread's
  // ring holds the whole loop.
  const bool traced = std::getenv("I2MR_TRACE_JSON") != nullptr;
  if (traced) i2mr::trace::TraceCollector::Get()->set_ring_capacity(kTraceRingEvents);

  perfbench::GraphShape shape;
  shape.num_vertices = w->vertices;
  shape.avg_degree = kAvgDegree;
  perfbench::GraphGenerator gen(shape);
  perfbench::Graph graph = gen.Generate(seed);
  Outcome out;

  RunState rs;
  rs.w = w;
  rs.seed = seed;
  rs.seconds = seconds;
  rs.root = root;
  rs.gen = &gen;
  rs.graph = &graph;
  rs.out = &out;
  rs.reads = Reservoir(seed * 2 + 3);
  if (w->shards > 0) {
    RunSharded(&rs);
  } else {
    RunPipeline(&rs);
  }
  if (rs.fig.epoch_ms.empty()) out.Wrong("no epoch committed");

  uint64_t dropped = 0;
  if (traced) {
    dropped = i2mr::trace::TraceCollector::Get()->approx_dropped();
    auto st = i2mr::trace::ExportFromEnv();
    if (!st.ok()) out.Wrong("trace export: " + st.ToString());
  }

  const double epochs = std::max<double>(1, rs.fig.epoch_ms.size());
  Metrics m;
  // End to end.
  m.Set("setup_s", rs.setup_s, "s");
  m.Set("epoch_ms_p50", perfbench::Percentile(rs.fig.epoch_ms, 50), "ms");
  m.Set("epoch_ms_tail",
        perfbench::Percentile(rs.fig.epoch_ms, w->tail_percentile), "ms");
  m.Set("deltas_per_s", rs.fig.committed / std::max(rs.fig.loop_s, 1e-9),
        "deltas/s");
  m.Set("answer_error",
        rs.answer_errors.empty() ? 1 : perfbench::Percentile(rs.answer_errors, 50),
        "ratio");
  m.Set("write_mb_per_epoch", rs.fig.wchar / kMiB / epochs,
        "MB");
  m.Set("disk_mb", perfbench::Percentile(rs.disk_mb, 50), "MB");
  m.Set("peak_rss_mb", PeakRssMb(), "MB");
  const auto read_us = rs.reads.Column(&Reservoir::Sample::read_us);
  m.Set("read_us_p50", perfbench::Percentile(read_us, 50), "us");
  m.Set("read_us_p99", perfbench::Percentile(read_us, 99), "us");
  m.Set("reads_per_s", rs.fig.reads / std::max(rs.fig.loop_s, 1e-9), "reads/s");
  // Per layer, measured without the trace.
  m.Set("pipeline.append_ms", perfbench::Percentile(rs.fig.append_ms, 50), "ms");
  m.Set("log.fsyncs", static_cast<double>(rs.fsyncs), "count");
  m.Set("log.segments", static_cast<double>(rs.segments), "count");
  m.Set("refresh_merge_ms", rs.fig.refresh_merge_ms / epochs, "ms");
  m.Set("mrbg.bytes", static_cast<double>(rs.mrbg_bytes), "bytes");
  m.Set("serving.exchange_rounds", rs.fig.exchange_rounds / epochs, "count");
  m.Set("serving.edges_exchanged", rs.fig.edges_exchanged / epochs, "count");
  m.Set("serving.pin_us",
        perfbench::Percentile(rs.reads.Column(&Reservoir::Sample::pin_us), 50),
        "us");
  m.Set("serving.get_us",
        perfbench::Percentile(rs.reads.Column(&Reservoir::Sample::get_us), 50),
        "us");
  m.Set("io.read_mb_per_epoch", rs.fig.rchar / kMiB / epochs,
        "MB");
  m.Set("trace.dropped_events", static_cast<double>(dropped), "count");
  m.Set("host.steal_pct", rs.fig.steal_pct, "%");

  std::string errors = "[";
  for (size_t i = 0; i < out.errors().size(); ++i) {
    errors += (i ? ", " : "") + JsonString(out.errors()[i]);
  }
  errors += "]";
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"epochs\": %zu, \"loop_s\": %.6f, \"errors\": %s, \"metrics\": %s}\n",
      out.correct() ? "true" : "false",
      static_cast<unsigned long long>(out.attempted()),
      static_cast<unsigned long long>(out.failed()), rs.fig.epoch_ms.size(),
      rs.fig.loop_s, errors.c_str(), m.Json().c_str());
  return 0;
}
