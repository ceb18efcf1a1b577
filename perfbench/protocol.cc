// The BI protocol benchmark: bulk load → daily refresh batches → BI 1–25.
//
// One run of one workload, driven from outside the program: the benchmark
// generates its inputs from --seed, times its own calls into the snb
// modules' public functions, checks the results, and prints one JSON
// report line on stdout (perfbench/run.py turns it into the benchmark
// result). Progress and the workload descriptor go to stderr.
//
//   protocol --workload insert-power|delete-power|mixed-refresh
//            --seed N --seconds S --trace 0|1 --work-dir DIR
//            [--size default|smoke] [--trace-out FILE]
//
// Workloads (perfbench/README.md says why each exists):
//   insert-power   K daily insert batches (IU 1–8), each followed by
//                  closed-loop power runs (1 stream, 4 workers, adaptive
//                  dispatch) until the batch's share of --seconds is used
//                  and at least kMinPowerRuns ran.
//   delete-power   the same loop over K days of derived DEL 1–8 batches.
//   mixed-refresh  3 closed-loop BI streams read while one writer thread
//                  applies K insert batches open-loop, one every
//                  --seconds / K.
//
// Set-up (datagen, InitStore, bulk Graph build, curation) runs
// Size::setups times; the last one is used and setup_s is the median. After the timed
// window the run checks the naive cross-validation, the graph invariants,
// recovery of the store, and read consistency, and prints a checksum of
// the per-batch result fingerprints. With --trace 1 it also records spans
// and replays each batch's refresh steps on a private chain of snapshots
// to split the write time into log / copy / apply / compact / self.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/date_time.h"
#include "datagen/datagen.h"
#include "datagen/delete_stream.h"
#include "driver/refresh.h"
#include "driver/validation.h"
#include "interactive/updates.h"
#include "params/parameter_curation.h"
#include "sched/scheduler.h"
#include "sched/stream.h"
#include "score.h"
#include "storage/export.h"
#include "storage/graph.h"
#include "storage/recovery.h"
#include "storage/scan_stats.h"
#include "storage/wal.h"
#include "trace.h"
#include "util/rng.h"
#include "validate/validator.h"

namespace perfbench {
namespace {

using namespace snb;

constexpr int kNumTemplates = 25;
constexpr size_t kPowerWorkers = 4;
constexpr size_t kMixedStreams = 3;
// Power runs after each batch, at least. Two give a default-size run
// 4 batches x 2 runs x 25 templates x 5 bindings = 1000 reads, so p99
// has ten samples beyond it.
constexpr int kMinPowerRuns = 2;

enum class Workload { kInsertPower, kDeletePower, kMixedRefresh };

/// Scale of a run. "default" is the ROADMAP re-anchor scale; "smoke" runs
/// every workload and gate in seconds for the benchmark's own tests.
struct Size {
  std::string name;
  uint64_t persons;
  double activity;
  size_t bindings;  // curated bindings per template
  size_t batches;   // daily batches K
  int setups;       // set-up repetitions; setup_s is their median
};
const Size kDefaultSize{"default", 8000, 0.5, 5, 4, 3};
const Size kSmokeSize{"smoke", 300, 0.2, 2, 3, 2};

/// The network of a size is one fixed datagen output, as LDBC fixes the
/// data set of each scale factor: networks of different datagen seeds
/// differ by up to ±12 % in message and knows counts, which would swamp
/// the run-to-run spread. --seed picks what runs on it: the bulk/update
/// split (UpdateFraction), hence the bulk snapshot and the daily batches,
/// the sampled deletes, the stream permutations and the retry jitter.
constexpr uint64_t kDatasetSeed = 42;

/// Share of the network's events withheld from the bulk load as updates:
/// the datagen default of 0.10, moved by the seed within [0.09, 0.11).
double UpdateFraction(uint64_t seed) {
  return 0.09 + 0.02 * util::Rng(seed, uint64_t{0x5b117}).NextDouble();
}

struct Options {
  Workload workload = Workload::kInsertPower;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  Size size = kDefaultSize;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "protocol: %s\n"
               "usage: protocol --workload insert-power|delete-power|"
               "mixed-refresh --seed N --seconds S --trace 0|1\n"
               "                --work-dir DIR [--size default|smoke] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      Usage("flags take the form --name value");
    }
    flags[argv[i] + 2] = argv[i + 1];
    ++i;
  }
  for (const auto& [name, value] : flags) {
    if (name != "workload" && name != "seed" && name != "seconds" &&
        name != "trace" && name != "work-dir" && name != "trace-out" &&
        name != "size") {
      Usage(("unknown flag --" + name).c_str());
    }
  }
  auto take = [&](const char* name) -> const std::string* {
    auto it = flags.find(name);
    return it == flags.end() ? nullptr : &it->second;
  };
  const std::string* workload = take("workload");
  if (workload == nullptr) Usage("--workload is required");
  opt.workload_name = *workload;
  if (*workload == "insert-power") {
    opt.workload = Workload::kInsertPower;
  } else if (*workload == "delete-power") {
    opt.workload = Workload::kDeletePower;
  } else if (*workload == "mixed-refresh") {
    opt.workload = Workload::kMixedRefresh;
  } else {
    Usage("unknown workload");
  }
  if (const std::string* v = take("size")) {
    if (*v == "smoke") {
      opt.size = kSmokeSize;
    } else if (*v != "default") {
      Usage("--size must be default or smoke");
    }
  }
  if (const std::string* v = take("seed")) opt.seed = std::strtoull(v->c_str(), nullptr, 10);
  if (const std::string* v = take("seconds")) opt.seconds = std::strtod(v->c_str(), nullptr);
  if (const std::string* v = take("trace")) opt.trace = *v == "1";
  if (const std::string* v = take("work-dir")) opt.work_dir = *v;
  if (const std::string* v = take("trace-out")) opt.trace_out = *v;
  if (opt.work_dir.empty()) Usage("--work-dir is required");
  if (!(opt.seconds > 0)) Usage("--seconds must be positive");
  return opt;
}

// ---------------------------------------------------------------------------
// Inputs

std::string KindName(datagen::UpdateKind kind) {
  const int k = static_cast<int>(kind);
  return datagen::IsDeleteKind(kind) ? "DEL " + std::to_string(k - 8)
                                     : "IU " + std::to_string(k);
}

/// One daily batch: the events of one simulation day, in stream order.
struct Batch {
  core::Date day = 0;
  std::vector<datagen::UpdateEvent> events;
  std::map<std::string, size_t> per_kind;
  size_t inserts = 0;
  size_t deletes = 0;
};

/// The first `k` whole days of a timestamp-ordered event stream, grouped
/// the way RunBatchedRefresh groups them with batch_days = 1.
std::vector<Batch> FirstDays(const std::vector<datagen::UpdateEvent>& events,
                             size_t k) {
  std::vector<Batch> batches;
  for (const datagen::UpdateEvent& e : events) {
    const core::Date day = core::DateFromDateTime(e.timestamp);
    if (batches.empty() || batches.back().day != day) {
      if (batches.size() == k) break;
      batches.emplace_back();
      batches.back().day = day;
    }
    Batch& b = batches.back();
    b.events.push_back(e);
    ++b.per_kind[KindName(e.kind)];
    ++(datagen::IsDeleteKind(e.kind) ? b.deletes : b.inserts);
  }
  return batches;
}

struct SetupTimes {
  double generate_ms = 0;
  double init_store_ms = 0;
  double graph_build_ms = 0;
  double curate_ms = 0;
  double total_s = 0;
};

struct Dataset {
  std::vector<Batch> batches;
  std::shared_ptr<const storage::Graph> graph;
  params::WorkloadParameters params;
  std::string store_dir;
  /// Copy of the bulk network, kept in traced runs for the refresh
  /// attribution chain.
  core::SocialNetwork bulk;
  std::map<std::string, size_t> bulk_counts;
};

/// Runs set-up once: datagen (plus the derived delete stream for
/// delete-power), InitStore, the bulk Graph build and curation.
Dataset SetUp(const Options& opt, const std::string& store_dir,
              Tracer& tracer, SetupTimes* times) {
  ScopedSpan setup_span(tracer, "setup");
  Dataset ds;
  ds.store_dir = store_dir;
  const Clock::time_point t0 = Clock::now();

  datagen::GeneratedData data;
  {
    ScopedSpan span(tracer, "datagen.generate");
    datagen::DatagenConfig cfg;
    cfg.seed = kDatasetSeed;
    cfg.num_persons = opt.size.persons;
    cfg.activity_scale = opt.size.activity;
    cfg.update_fraction = UpdateFraction(opt.seed);
    data = datagen::Generate(cfg);
    if (opt.workload == Workload::kDeletePower) {
      ScopedSpan derive(tracer, "datagen.derive_deletes");
      datagen::DeleteStreamOptions del;
      del.seed = opt.seed;
      del.days = static_cast<int32_t>(opt.size.batches);
      ds.batches = FirstDays(datagen::DeriveDeleteStream(data.network, del),
                             opt.size.batches);
    } else {
      ds.batches = FirstDays(data.updates, opt.size.batches);
    }
    data.updates = {};
  }
  const Clock::time_point t1 = Clock::now();
  if (ds.batches.empty()) {
    std::fprintf(stderr, "protocol: the generated stream has no events\n");
    std::exit(1);
  }
  const core::SocialNetwork& net = data.network;
  ds.bulk_counts = {{"persons", net.persons.size()},
                    {"knows", net.knows.size()},
                    {"forums", net.forums.size()},
                    {"memberships", net.memberships.size()},
                    {"posts", net.posts.size()},
                    {"comments", net.comments.size()},
                    {"likes", net.likes.size()},
                    {"tags", net.tags.size()}};

  {
    ScopedSpan span(tracer, "storage.init_store");
    std::filesystem::remove_all(store_dir);
    util::Status st =
        storage::InitStore(store_dir, net, ds.batches.front().day - 1);
    if (!st.ok()) {
      std::fprintf(stderr, "protocol: InitStore failed: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
  }
  // The attribution chain's copy of the bulk network is not set-up work.
  if (opt.trace) ds.bulk = data.network;
  const Clock::time_point t2 = Clock::now();
  {
    ScopedSpan span(tracer, "storage.graph_build");
    ds.graph = std::make_shared<const storage::Graph>(std::move(data.network));
  }
  const Clock::time_point t3 = Clock::now();
  {
    ScopedSpan span(tracer, "params.curate");
    params::CurationConfig pc;
    pc.seed = opt.seed;
    pc.per_query = opt.size.bindings;
    ds.params = params::CurateParameters(*ds.graph, pc);
  }
  const Clock::time_point t4 = Clock::now();
  times->generate_ms = MsBetween(t0, t1);
  times->init_store_ms = MsBetween(t1, t2);
  times->graph_build_ms = MsBetween(t2, t3);
  times->curate_ms = MsBetween(t3, t4);
  times->total_s = (times->generate_ms + times->init_store_ms +
                    times->graph_build_ms + times->curate_ms) /
                   1000.0;
  return ds;
}

// ---------------------------------------------------------------------------
// Result fingerprints

/// FNV-1a over the 8 bytes of each folded value.
uint64_t Fold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr uint64_t kFoldSeed = 14695981039346656037ULL;

/// (template, binding) → (fingerprint, rows) of one snapshot's results.
using ResultMap = std::map<std::pair<int, size_t>, std::pair<uint64_t, size_t>>;

uint64_t FoldResults(const ResultMap& results) {
  uint64_t h = kFoldSeed;
  for (const auto& [key, value] : results) {
    h = Fold(h, static_cast<uint64_t>(key.first));
    h = Fold(h, key.second);
    h = Fold(h, value.first);
    h = Fold(h, value.second);
  }
  return h;
}

size_t BindingsFor(const params::WorkloadParameters& params, int q,
                   size_t bindings) {
  return std::min(bindings, sched::BindingCount(params, q));
}

struct ScanTotals {
  std::vector<double> rows_decoded_per_exec =
      std::vector<double>(kNumTemplates + 1, 0.0);
  uint64_t rows_decoded = 0;
  uint64_t blocks_skipped = 0;
};

/// Runs every (template, binding) once, sequentially, under a scan-stats
/// sink per operation.
ResultMap VerificationPass(const storage::Graph& graph,
                           const params::WorkloadParameters& params,
                           size_t bindings, ScanTotals* scans) {
  ResultMap results;
  for (int q = 1; q <= kNumTemplates; ++q) {
    const size_t n = BindingsFor(params, q, bindings);
    uint64_t rows_decoded = 0;
    for (size_t b = 0; b < n; ++b) {
      storage::ScanStats stats;
      sched::OpOutcome out;
      {
        storage::ScopedScanStats sink(&stats);
        out = sched::ExecuteStreamOp(graph, params, {q, b}, nullptr);
      }
      results[{q, b}] = {out.fingerprint, out.rows};
      rows_decoded += stats.rows_decoded.load();
      if (scans != nullptr) {
        scans->blocks_skipped += stats.blocks_skipped_date.load() +
                                 stats.blocks_skipped_bound.load();
      }
    }
    if (scans != nullptr && n > 0) {
      scans->rows_decoded += rows_decoded;
      scans->rows_decoded_per_exec[q] =
          static_cast<double>(rows_decoded) / static_cast<double>(n);
    }
  }
  return results;
}

// ---------------------------------------------------------------------------
// The timed window

/// Everything the timed window records.
struct WindowRecord {
  std::vector<double> write_ms;         // per batch
  std::vector<double> writer_late_ms;   // mixed-refresh: start - due
  std::vector<double> read_ms;          // every completed BI execution
  std::vector<std::vector<double>> per_template_ms =
      std::vector<std::vector<double>>(kNumTemplates + 1);
  std::vector<double> run_wall_ms;      // per RunStreams call
  double read_wall_ms = 0;              // Σ run_wall_ms
  double window_ms = 0;
  size_t completed = 0;
  size_t cancelled = 0;
  size_t morsel_chosen = 0;
  size_t morsel_refused = 0;
  size_t refresh_retries = 0;
  size_t batches_applied = 0;
  size_t batches_failed = 0;
  size_t spans = 0;
  double peak_rss_mb = 0;
  std::vector<uint64_t> batch_fingerprints;  // power workloads
  bool reads_consistent = true;
  std::string failure;
};

ResultMap ResultsOf(const sched::ScheduleResult& run) {
  ResultMap results;
  for (const sched::StreamResult& s : run.streams) {
    for (const sched::OpOutcome& o : s.outcomes) {
      if (!o.cancelled) results[{o.op.query, o.op.binding}] = {o.fingerprint, o.rows};
    }
  }
  return results;
}

void Accumulate(const sched::ScheduleResult& run, WindowRecord* rec) {
  for (const sched::StreamResult& s : run.streams) {
    for (const sched::OpOutcome& o : s.outcomes) {
      if (o.cancelled) continue;
      rec->read_ms.push_back(o.latency_ms);
      rec->per_template_ms[static_cast<size_t>(o.op.query)].push_back(
          o.latency_ms);
    }
  }
  const double wall_ms = run.wall_seconds * 1000.0;
  rec->run_wall_ms.push_back(wall_ms);
  rec->read_wall_ms += wall_ms;
  rec->completed += run.total_completed;
  rec->cancelled += run.total_cancelled;
  rec->morsel_chosen += run.morsel_chosen;
  rec->morsel_refused += run.morsel_refused;
}

/// Samples the resident set every 5 ms until StopAndPeakMb, which returns
/// the largest sample.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double StopAndPeakMb() {
    Stop();
    return static_cast<double>(peak_pages_) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
  }

 private:
  static size_t ResidentPages() {
    size_t size = 0, resident = 0;
    if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
      if (std::fscanf(f, "%zu %zu", &size, &resident) != 2) resident = 0;
      std::fclose(f);
    }
    return resident;
  }
  void Loop() {
    while (!stop_.load()) {
      peak_pages_ = std::max(peak_pages_, ResidentPages());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    peak_pages_ = std::max(peak_pages_, ResidentPages());
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  std::atomic<bool> stop_{false};
  size_t peak_pages_ = 0;  // written by thread_ only until it is joined
  std::thread thread_;
};

driver::RefreshConfig RefreshConfigFor(const Options& opt) {
  driver::RefreshConfig rc;
  rc.seed = opt.seed;
  return rc;
}

bool ApplyBatch(const Options& opt, Dataset& ds, driver::GraphHandle& handle,
                const Batch& batch, WindowRecord* rec) {
  auto report = driver::RunBatchedRefresh(ds.store_dir, handle, batch.events,
                                          RefreshConfigFor(opt));
  if (!report.ok()) {
    ++rec->batches_failed;
    rec->failure = "RunBatchedRefresh: " + report.status().ToString();
    return false;
  }
  ++rec->batches_applied;
  rec->refresh_retries += report.value().retries;
  return true;
}

/// insert-power / delete-power: each batch, then power runs until the
/// batch's share of the window is used (at least kMinPowerRuns).
void PowerWindow(const Options& opt, Dataset& ds, driver::GraphHandle& handle,
                 Tracer& tracer, WindowRecord* rec) {
  sched::SchedulerConfig pc;
  pc.num_streams = 1;
  pc.num_workers = kPowerWorkers;
  pc.bindings_per_query = opt.size.bindings;
  pc.dispatch = sched::DispatchPolicy::kAdaptive;
  pc.seed = opt.seed;

  const Clock::time_point start = Clock::now();
  const double cycle_ms = opt.seconds * 1000.0 / static_cast<double>(ds.batches.size());
  for (size_t b = 0; b < ds.batches.size(); ++b) {
    ScopedSpan cycle(tracer, "protocol.batch");
    {
      ScopedSpan span(tracer, "driver.refresh");
      const Clock::time_point t = Clock::now();
      if (!ApplyBatch(opt, ds, handle, ds.batches[b], rec)) return;
      rec->write_ms.push_back(MsBetween(t, Clock::now()));
    }
    const std::shared_ptr<const storage::Graph> snapshot = handle.Current();
    const double cycle_end_ms = cycle_ms * static_cast<double>(b + 1);
    ResultMap first;
    int runs = 0;
    do {
      ScopedSpan span(tracer, "sched.power_run");
      sched::ScheduleResult run = sched::RunStreams(*snapshot, ds.params, pc);
      Accumulate(run, rec);
      ResultMap results = ResultsOf(run);
      if (first.empty()) {
        first = std::move(results);
        rec->batch_fingerprints.push_back(FoldResults(first));
      } else if (results != first) {
        rec->reads_consistent = false;
      }
    } while (++runs < kMinPowerRuns ||
             MsBetween(start, Clock::now()) < cycle_end_ms);
  }
  rec->window_ms = MsBetween(start, Clock::now());
}

/// mixed-refresh: a writer thread applies batch b at start + b·interval
/// (open loop) while the calling thread runs closed-loop rounds of
/// kMixedStreams streams, each round on the then-current snapshot.
/// Returns, per round, the snapshot version it read and its results.
std::vector<std::pair<size_t, ResultMap>> MixedWindow(
    const Options& opt, Dataset& ds, driver::GraphHandle& handle,
    Tracer& tracer, WindowRecord* rec) {
  sched::SchedulerConfig rc;
  rc.num_streams = kMixedStreams;
  rc.num_workers = kMixedStreams;
  rc.bindings_per_query = opt.size.bindings;
  rc.seed = opt.seed;

  // published[v] is the snapshot after v batches; only the writer touches
  // it until the join. weak_ptrs keep each control block alive, so identity
  // comparison cannot alias.
  std::vector<std::weak_ptr<const storage::Graph>> published{handle.Current()};
  std::atomic<bool> writer_done{false};
  const double interval_ms =
      opt.seconds * 1000.0 / static_cast<double>(ds.batches.size());
  const Clock::time_point start = Clock::now();

  std::jthread writer([&] {
    for (size_t b = 0; b < ds.batches.size(); ++b) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          interval_ms * static_cast<double>(b)));
      std::this_thread::sleep_until(due);
      rec->writer_late_ms.push_back(MsBetween(due, Clock::now()));
      ScopedSpan span(tracer, "driver.refresh");
      if (!ApplyBatch(opt, ds, handle, ds.batches[b], rec)) break;
      rec->write_ms.push_back(MsBetween(due, Clock::now()));
      published.push_back(handle.Current());
    }
    writer_done.store(true);
  });

  std::vector<std::pair<std::weak_ptr<const storage::Graph>, ResultMap>> rounds;
  bool consistent = true;
  while (!writer_done.load() ||
         MsBetween(start, Clock::now()) < opt.seconds * 1000.0) {
    ScopedSpan span(tracer, "sched.stream_round");
    const std::shared_ptr<const storage::Graph> snapshot = handle.Current();
    sched::ScheduleResult run = sched::RunStreams(*snapshot, ds.params, rc);
    Accumulate(run, rec);
    // Streams of one round read one snapshot, so they must agree.
    ResultMap merged;
    for (const sched::StreamResult& s : run.streams) {
      for (const sched::OpOutcome& o : s.outcomes) {
        if (o.cancelled) continue;
        auto [it, fresh] =
            merged.try_emplace({o.op.query, o.op.binding}, o.fingerprint, o.rows);
        if (!fresh && it->second != std::make_pair(o.fingerprint, o.rows)) {
          consistent = false;
        }
      }
    }
    rounds.emplace_back(snapshot, std::move(merged));
  }
  writer.join();
  rec->window_ms = MsBetween(start, Clock::now());
  rec->reads_consistent = consistent;

  std::vector<std::pair<size_t, ResultMap>> versioned;
  for (auto& [weak, results] : rounds) {
    for (size_t v = 0; v < published.size(); ++v) {
      if (!weak.owner_before(published[v]) && !published[v].owner_before(weak)) {
        versioned.emplace_back(v, std::move(results));
        break;
      }
    }
  }
  return versioned;
}

// ---------------------------------------------------------------------------
// Traced refresh attribution

struct RefreshParts {
  double log_ms = 0;
  double export_ms = 0;
  double copy_ms = 0;  // export + Graph construction
  double apply_ms = 0;
  double compact_ms = 0;
  double apply_insert_ms = 0;
  double apply_delete_ms = 0;
  uint64_t wal_bytes = 0;
};

/// Replays each batch's refresh steps on a private chain of snapshots that
/// starts from the bulk network: WAL log to a scratch file with the
/// driver's sync policy, ExportNetwork + Graph construction, ApplyUpdate
/// per event, and the compaction rebuild when tombstones remain.
bool AttributeRefresh(const Options& opt, Dataset& ds, Tracer& tracer,
                      std::vector<RefreshParts>* parts) {
  ScopedSpan root(tracer, "driver.refresh.attribution");
  auto chain = std::make_shared<storage::Graph>(std::move(ds.bulk));
  const std::string log_path = opt.work_dir + "/attribution.wal";
  std::filesystem::remove(log_path);
  const storage::WalSyncPolicy sync = RefreshConfigFor(opt).wal_sync;
  for (const Batch& batch : ds.batches) {
    ScopedSpan batch_span(tracer, "driver.refresh.replay");
    RefreshParts p;
    {
      ScopedSpan span(tracer, "driver.refresh.log");
      const Clock::time_point t = Clock::now();
      storage::Wal wal;
      util::Status st = wal.Open(log_path, {sync});
      const uint64_t before = wal.bytes_written();
      if (st.ok()) st = wal.BatchBegin(batch.day);
      if (st.ok() && batch.deletes > 0) {
        st = wal.NoteDeleteBatch(batch.day, static_cast<uint32_t>(batch.deletes));
      }
      for (size_t i = 0; st.ok() && i < batch.events.size(); ++i) {
        st = wal.Append(batch.events[i]);
      }
      if (st.ok()) st = wal.BatchCommit(batch.day);
      p.wal_bytes = wal.bytes_written() - before;
      if (st.ok()) st = wal.Close();
      if (!st.ok()) {
        std::fprintf(stderr, "protocol: attribution WAL: %s\n", st.ToString().c_str());
        return false;
      }
      p.log_ms = MsBetween(t, Clock::now());
    }
    std::shared_ptr<storage::Graph> shadow;
    {
      ScopedSpan span(tracer, "driver.refresh.copy");
      const Clock::time_point t = Clock::now();
      core::SocialNetwork net;
      {
        ScopedSpan export_span(tracer, "storage.export");
        net = storage::ExportNetwork(*chain);
      }
      p.export_ms = MsBetween(t, Clock::now());
      ScopedSpan build(tracer, "storage.graph_build");
      shadow = std::make_shared<storage::Graph>(std::move(net),
                                                chain->CompactionEpoch());
      p.copy_ms = MsBetween(t, Clock::now());
    }
    {
      ScopedSpan span(tracer, "driver.refresh.apply");
      const Clock::time_point t = Clock::now();
      for (const datagen::UpdateEvent& e : batch.events) {
        const Clock::time_point te = Clock::now();
        util::Status st = interactive::ApplyUpdate(*shadow, e);
        if (!st.ok()) {
          std::fprintf(stderr, "protocol: attribution apply: %s\n", st.ToString().c_str());
          return false;
        }
        (datagen::IsDeleteKind(e.kind) ? p.apply_delete_ms : p.apply_insert_ms) +=
            MsBetween(te, Clock::now());
      }
      p.apply_ms = MsBetween(t, Clock::now());
    }
    if (shadow->HasTombstones()) {
      ScopedSpan span(tracer, "driver.refresh.compact");
      const Clock::time_point t = Clock::now();
      shadow = std::make_shared<storage::Graph>(storage::ExportNetwork(*shadow),
                                                shadow->CompactionEpoch() + 1);
      p.compact_ms = MsBetween(t, Clock::now());
    }
    chain = std::move(shadow);
    parts->push_back(p);
  }
  std::filesystem::remove(log_path);
  return true;
}

// ---------------------------------------------------------------------------
// Output

class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

/// Ordered metric list: name → (value, unit).
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    obj_.Raw(name, JsonObject().Num("value", value).Str("unit", unit).str());
  }
  std::string str() const { return obj_.str(); }

 private:
  JsonObject obj_;
};

std::string TemplateKey(int q) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "bi.BI%02d", q);
  return buf;
}

bool IsReleaseBuild() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

std::string Descriptor(const Options& opt, const Dataset& ds) {
  JsonObject d;
  d.Str("workload", opt.workload_name)
      .Str("size", opt.size.name)
      .Int("persons", opt.size.persons)
      .Num("activity", opt.size.activity)
      .Int("seed", opt.seed)
      .Int("dataset_seed", kDatasetSeed)
      .Num("update_fraction", UpdateFraction(opt.seed))
      .Num("seconds", opt.seconds)
      .Int("batches", ds.batches.size())
      .Int("setups", static_cast<uint64_t>(opt.size.setups));
  JsonObject bulk;
  for (const auto& [name, n] : ds.bulk_counts) bulk.Int(name, n);
  d.Raw("bulk_counts", bulk.str());
  std::string per_batch = "[";
  for (size_t b = 0; b < ds.batches.size(); ++b) {
    JsonObject batch;
    batch.Int("day", static_cast<uint64_t>(ds.batches[b].day))
        .Int("events", ds.batches[b].events.size());
    for (const auto& [kind, n] : ds.batches[b].per_kind) batch.Int(kind, n);
    per_batch += (b == 0 ? "" : ", ") + batch.str();
  }
  d.Raw("events_per_batch", per_batch + "]");
  JsonObject bindings;
  for (int q = 1; q <= kNumTemplates; ++q) {
    bindings.Int("BI " + std::to_string(q), BindingsFor(ds.params, q, opt.size.bindings));
  }
  d.Raw("bindings_per_template", bindings.str());
  d.Int("hardware_threads", std::thread::hardware_concurrency())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", PERFBENCH_COMPILER)
      .Bool("release", IsReleaseBuild());
  return d.str();
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

int Run(const Options& opt) {
  std::filesystem::create_directories(opt.work_dir);
  Tracer tracer(opt.trace, static_cast<uint32_t>(opt.seed));

  // --- set-up, repeated; the last data set is the one measured.
  std::vector<SetupTimes> setups;
  Dataset ds;
  for (int r = 0; r < opt.size.setups; ++r) {
    ds = Dataset();
    malloc_trim(0);
    SetupTimes t;
    ds = SetUp(opt, opt.work_dir + "/store", tracer, &t);
    setups.push_back(t);
    std::fprintf(stderr, "setup %d: %.3f s (generate %.0f ms, init_store %.0f ms, "
                 "graph_build %.0f ms, curate %.0f ms)\n",
                 r + 1, t.total_s, t.generate_ms, t.init_store_ms,
                 t.graph_build_ms, t.curate_ms);
  }
  const std::string descriptor = Descriptor(opt, ds);
  std::fprintf(stderr, "descriptor: %s\n", descriptor.c_str());
  if (!IsReleaseBuild()) {
    std::fprintf(stderr, "WARNING: not a Release build (%s); timings are not "
                 "comparable\n", PERFBENCH_BUILD_TYPE);
  }

  // --- the timed window.
  driver::GraphHandle handle(ds.graph);
  ds.graph.reset();
  malloc_trim(0);
  WindowRecord rec;
  std::vector<std::pair<size_t, ResultMap>> mixed_rounds;
  {
    RssSampler rss;
    ScopedSpan span(tracer, "protocol.window");
    if (opt.workload == Workload::kMixedRefresh) {
      mixed_rounds = MixedWindow(opt, ds, handle, tracer, &rec);
    } else {
      PowerWindow(opt, ds, handle, tracer, &rec);
    }
    rec.peak_rss_mb = rss.StopAndPeakMb();
  }
  rec.spans = tracer.Spans().size();
  std::fprintf(stderr, "window: %.0f ms, %zu batches, %zu reads\n",
               rec.window_ms, rec.batches_applied, rec.completed);

  // --- correctness gates, outside the timed window.
  std::map<std::string, bool> gates;
  std::map<std::string, double> check_ms;
  const std::shared_ptr<const storage::Graph> final_graph = handle.Current();
  gates["refresh"] = rec.batches_failed == 0 &&
                     rec.batches_applied == ds.batches.size();
  {
    ScopedSpan span(tracer, "validate.naive_xcheck");
    const Clock::time_point t = Clock::now();
    gates["naive_xcheck"] =
        driver::ValidateBiImplementations(*final_graph, ds.params, 1).ok();
    check_ms["validate.naive_xcheck_ms"] = MsBetween(t, Clock::now());
  }
  {
    ScopedSpan span(tracer, "validate.graph");
    const Clock::time_point t = Clock::now();
    validate::ValidationReport report = validate::ValidateGraph(*final_graph);
    gates["graph"] = report.ok();
    if (!report.ok()) std::fprintf(stderr, "%s\n", report.ToString().c_str());
    check_ms["validate.graph_ms"] = MsBetween(t, Clock::now());
  }
  ScanTotals scans;
  ResultMap live;
  {
    ScopedSpan span(tracer, "bi.verification_pass");
    live = VerificationPass(*final_graph, ds.params, opt.size.bindings, &scans);
  }
  {
    ScopedSpan span(tracer, "storage.recover");
    const Clock::time_point t = Clock::now();
    auto recovered = storage::RecoveryManager(ds.store_dir).Recover();
    check_ms["storage.recover_ms"] = MsBetween(t, Clock::now());
    gates["recovery"] =
        recovered.ok() &&
        VerificationPass(*recovered.value().graph, ds.params, opt.size.bindings,
                         nullptr) == live;
  }
  // Reads in the window agree with each other and with the sequential
  // verification pass on the final snapshot.
  bool reads_ok = rec.reads_consistent;
  std::vector<uint64_t> fingerprints = rec.batch_fingerprints;
  if (opt.workload == Workload::kMixedRefresh) {
    std::map<size_t, ResultMap> by_version;
    for (const auto& [version, results] : mixed_rounds) {
      auto [it, fresh] = by_version.try_emplace(version, results);
      if (!fresh && it->second != results) reads_ok = false;
      if (version == ds.batches.size() && results != live) reads_ok = false;
    }
    fingerprints.push_back(FoldResults(live));
  } else if (!fingerprints.empty() &&
             fingerprints.back() != FoldResults(live)) {
    reads_ok = false;
  }
  gates["reads"] = reads_ok;
  uint64_t checksum = kFoldSeed;
  for (uint64_t fp : fingerprints) checksum = Fold(checksum, fp);

  // --- traced attribution of each batch's write time.
  std::vector<RefreshParts> parts;
  if (opt.trace && gates["refresh"] && !AttributeRefresh(opt, ds, tracer, &parts)) {
    gates["attribution"] = false;
  }

  bool correct = true;
  for (const auto& [name, ok] : gates) {
    if (!ok) {
      std::fprintf(stderr, "gate failed: %s\n", name.c_str());
      correct = false;
    }
  }
  if (!rec.failure.empty()) std::fprintf(stderr, "%s\n", rec.failure.c_str());

  // --- end-to-end metrics.
  std::vector<double> template_mean_ms;
  for (int q = 1; q <= kNumTemplates; ++q) {
    if (!rec.per_template_ms[static_cast<size_t>(q)].empty()) {
      template_mean_ms.push_back(Mean(rec.per_template_ms[static_cast<size_t>(q)]));
    }
  }
  std::vector<double> setup_s, generate_ms, init_ms, build_ms, curate_ms;
  for (const SetupTimes& t : setups) {
    setup_s.push_back(t.total_s);
    generate_ms.push_back(t.generate_ms);
    init_ms.push_back(t.init_store_ms);
    build_ms.push_back(t.graph_build_ms);
    curate_ms.push_back(t.curate_ms);
  }
  MetricSet e2e;
  e2e.Add("setup_s", Median(setup_s), "s");
  e2e.Add("write_ms_p50", Median(rec.write_ms), "ms");
  e2e.Add("read_ms_p50", Quantile(rec.read_ms, 0.50), "ms");
  e2e.Add("read_ms_p99", Quantile(rec.read_ms, 0.99), "ms");
  e2e.Add("power_geomean_ms", Geomean(template_mean_ms), "ms");
  e2e.Add("power_score", PowerScore(Mean(rec.write_ms), template_mean_ms), "1/h");
  e2e.Add("throughput_qph",
          rec.read_wall_ms > 0
              ? static_cast<double>(rec.completed) * 3600.0 * 1000.0 / rec.read_wall_ms
              : 0.0,
          "1/h");
  e2e.Add("peak_rss_mb", rec.peak_rss_mb, "MB");

  // --- per-layer metrics.
  MetricSet layer;
  layer.Add("datagen.generate_ms", Median(generate_ms), "ms");
  layer.Add("storage.init_store_ms", Median(init_ms), "ms");
  layer.Add("storage.graph_build_ms", Median(build_ms), "ms");
  layer.Add("params.curate_ms", Median(curate_ms), "ms");
  // Means, so that the parts add up to driver.refresh.write_ms.
  std::vector<double> log_ms, copy_ms, apply_ms, compact_ms, self_ms, export_ms;
  double insert_ms = 0, delete_ms = 0, wal_bytes = 0;
  size_t inserts = 0, deletes = 0, events = 0;
  for (size_t b = 0; b < parts.size(); ++b) {
    const RefreshParts& p = parts[b];
    log_ms.push_back(p.log_ms);
    copy_ms.push_back(p.copy_ms);
    apply_ms.push_back(p.apply_ms);
    compact_ms.push_back(p.compact_ms);
    export_ms.push_back(p.export_ms);
    self_ms.push_back(rec.write_ms[b] - p.log_ms - p.copy_ms - p.apply_ms -
                      p.compact_ms);
    insert_ms += p.apply_insert_ms;
    delete_ms += p.apply_delete_ms;
    wal_bytes += static_cast<double>(p.wal_bytes);
    inserts += ds.batches[b].inserts;
    deletes += ds.batches[b].deletes;
    events += ds.batches[b].events.size();
  }
  layer.Add("driver.refresh.write_ms", Mean(rec.write_ms), "ms");
  layer.Add("driver.refresh.log_ms", Mean(log_ms), "ms");
  layer.Add("driver.refresh.copy_ms", Mean(copy_ms), "ms");
  layer.Add("driver.refresh.apply_ms", Mean(apply_ms), "ms");
  layer.Add("driver.refresh.compact_ms", Mean(compact_ms), "ms");
  layer.Add("driver.refresh.self_ms", Mean(self_ms), "ms");
  layer.Add("driver.refresh.retries", static_cast<double>(rec.refresh_retries), "count");
  layer.Add("driver.writer_late_ms",
            rec.writer_late_ms.empty()
                ? 0.0
                : *std::max_element(rec.writer_late_ms.begin(), rec.writer_late_ms.end()),
            "ms");
  layer.Add("storage.export_ms", Mean(export_ms), "ms");
  layer.Add("storage.graph_bytes",
            static_cast<double>(final_graph->Memory().total_bytes()), "B");
  layer.Add("storage.wal_bytes_per_event",
            events == 0 ? 0.0 : wal_bytes / static_cast<double>(events), "B");
  layer.Add("interactive.apply_insert_us_per_event",
            inserts == 0 ? 0.0 : insert_ms * 1000.0 / static_cast<double>(inserts), "us");
  layer.Add("interactive.apply_delete_us_per_event",
            deletes == 0 ? 0.0 : delete_ms * 1000.0 / static_cast<double>(deletes), "us");
  for (int q = 1; q <= kNumTemplates; ++q) {
    layer.Add(TemplateKey(q) + ".mean_ms", Mean(rec.per_template_ms[static_cast<size_t>(q)]), "ms");
  }
  for (int q = 1; q <= kNumTemplates; ++q) {
    layer.Add(TemplateKey(q) + ".rows_decoded", scans.rows_decoded_per_exec[static_cast<size_t>(q)],
              "count");
  }
  // Skipped prune units against skipped units plus decoded rows counted in
  // 1024-row base blocks.
  const double decoded_blocks = static_cast<double>(scans.rows_decoded) / 1024.0;
  const double skipped = static_cast<double>(scans.blocks_skipped);
  layer.Add("bi.blocks_skipped_frac",
            skipped + decoded_blocks > 0 ? skipped / (skipped + decoded_blocks) : 0.0,
            "fraction");
  layer.Add("engine.morsel_chosen", static_cast<double>(rec.morsel_chosen), "count");
  layer.Add("engine.morsel_refused", static_cast<double>(rec.morsel_refused), "count");
  layer.Add("sched.power_run_ms", Median(rec.run_wall_ms), "ms");
  layer.Add("sched.cancelled", static_cast<double>(rec.cancelled), "count");
  for (const auto& [name, ms] : check_ms) layer.Add(name, ms, "ms");
  layer.Add("trace.overhead_frac",
            rec.window_ms > 0
                ? static_cast<double>(rec.spans) * Tracer::CostPerSpanMs() / rec.window_ms
                : 0.0,
            "fraction");

  // Per-batch write split (traced runs): parts plus self sum to write_ms.
  std::string breakdown = "[";
  for (size_t b = 0; b < parts.size(); ++b) {
    JsonObject row;
    row.Int("batch", b + 1)
        .Num("write_ms", rec.write_ms[b])
        .Num("log_ms", parts[b].log_ms)
        .Num("copy_ms", parts[b].copy_ms)
        .Num("apply_ms", parts[b].apply_ms)
        .Num("compact_ms", parts[b].compact_ms)
        .Num("self_ms", self_ms[b]);
    breakdown += (b == 0 ? "" : ", ") + row.str();
  }
  breakdown += "]";

  std::string summary = "{}";
  if (opt.trace) {
    JsonObject s;
    for (const auto& [name, t] : tracer.Summarize()) {
      s.Raw(name, JsonObject()
                      .Int("count", t.count)
                      .Num("total_ms", t.total_ms)
                      .Num("self_ms", t.self_ms)
                      .str());
    }
    summary = s.str();
    if (!opt.trace_out.empty() && !tracer.WriteChrome(opt.trace_out)) {
      std::fprintf(stderr, "protocol: cannot write %s\n", opt.trace_out.c_str());
    }
  }

  JsonObject gate_obj;
  for (const auto& [name, ok] : gates) gate_obj.Bool(name, ok);
  std::string fps = "[";
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    fps += (i == 0 ? "" : ", ") + JsonObject::Quote(Hex(fingerprints[i]));
  }
  fps += "]";

  JsonObject out;
  out.Bool("correct", correct)
      .Int("attempted", rec.completed + rec.cancelled + ds.batches.size())
      .Int("failed", rec.cancelled + (ds.batches.size() - rec.batches_applied))
      .Raw("metrics", e2e.str())
      .Raw("per_layer", layer.str())
      .Raw("gates", gate_obj.str())
      .Str("checksum", Hex(checksum))
      .Raw("batch_fingerprints", fps)
      .Raw("refresh_breakdown", breakdown)
      .Raw("span_summary", summary)
      .Raw("descriptor", descriptor);
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  std::filesystem::remove_all(ds.store_dir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseOptions(argc, argv));
}
