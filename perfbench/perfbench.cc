// KV-CSD system benchmark: one named workload per process.
//
//   kvcsd_perfbench --workload {ingest|serve|analyze} --seed N --seconds S
//                   [--trace-out PATH]
//
// Every workload builds a harness::CsdTestbed and drives the simulated
// device only through client::Client / KeyspaceHandle, checking each answer
// against a host model. A run repeats the whole workload (set-up, timed
// phase, checks, probe) in fresh testbeds until S seconds of wall time have
// passed. Simulated metrics must come out bit-identical in every repetition
// (the simulator is deterministic); host-clock metrics come from the fastest
// repetition. With --trace-out one more repetition runs with the span
// tracer on and writes its Chrome trace to PATH; perfbench/run.py turns it
// into the per-layer self-time table. README.md in this directory explains
// the workloads and every metric.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"sim":{..},"host":{..},
//    "layer":{..},"counts":{..}}
// Exit status is 0 only when every check passed.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/keys.h"
#include "common/random.h"
#include "harness/testbed.h"
#include "kvcsd/zone_manager.h"
#include "nvme/skey.h"
#include "sim/activity.h"
#include "sim/tracer.h"
#include "vpic/vpic.h"

using namespace kvcsd;  // NOLINT

namespace {

using Rows = std::vector<std::pair<std::string, std::string>>;
using Clock = std::chrono::steady_clock;
using Handle = client::KeyspaceHandle;

// ---------------------------------------------------------------------------
// Workload sizes. Changing any of them changes every simulated metric.

constexpr std::uint32_t kQueues = 4;   // SQ/CQ pairs on the PCIe link
constexpr std::uint32_t kFiles = 16;   // VPIC dump files = loaders
constexpr std::uint32_t kBulkInflightFrames = 4;

constexpr std::uint64_t kIngestParticles = 1 << 18;

constexpr std::uint64_t kServeKeys = 1 << 16;
constexpr std::uint32_t kServeValueBytes = 128;
constexpr std::uint32_t kTenants = 4;
constexpr std::uint32_t kWorkersPerTenant = 16;
constexpr std::uint32_t kServeWorkers = kTenants * kWorkersPerTenant;
constexpr std::uint32_t kServeRounds = 4;
constexpr std::uint32_t kServeOpsPerWorker = 512;  // per round
constexpr double kZipfTheta = 0.99;

constexpr std::uint64_t kAnalyzeParticles = 1 << 18;
constexpr std::uint32_t kAnalysts = 4;
constexpr std::uint32_t kQueriesPerAnalyst = 64;  // per query kind
// Query sizes are drawn uniformly from these ranges, so latencies spread
// over a continuum and no percentile sits on a gap between query kinds.
constexpr std::uint32_t kScanRowsMin = 16;
constexpr std::uint32_t kScanRowsMax = 256;
constexpr std::uint32_t kPushdownSpanMin = 512;  // file particles per range
constexpr std::uint32_t kPushdownSpanMax = 4096;
constexpr double kBandWidthMin = 0.002;  // of a file's energies
constexpr double kBandWidthMax = 0.02;
constexpr double kSelectSelectivity = 0.1;

constexpr std::uint32_t kProbeSamples = 4096;  // per op kind
// Probe concurrency: enough to queue at the device, so latencies depend on
// the interleaving the seed sets, not on fixed costs alone, and short of
// saturating it. Serve's folded keyspace makes scans dearer (values spread
// over several value clusters), so serve probes with fewer workers.
constexpr std::uint32_t kProbeWorkers = 64;
constexpr std::uint32_t kServeProbeWorkers = 16;
constexpr std::uint32_t kProbeScanRows = 16;

constexpr std::size_t kTraceCapacity = std::size_t{1} << 26;

// One device for all workloads: the scaled Table I testbed with four
// SQ/CQ pairs and an 8 MiB index cache, sized against the datasets: serve's
// PIDX (~1.7 MiB) fits, analyze's PIDX + SIDX (~15 MiB) does not.
harness::TestbedConfig BenchConfig() {
  harness::TestbedConfig c = harness::TestbedConfig::Scaled();
  c.queues.num_queues = kQueues;
  c.device.index_cache_bytes = MiB(8);
  return c;
}

const std::string kMaxKey(16, '\xff');

// ---------------------------------------------------------------------------
// Bookkeeping shared by all workloads.

struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  // Counts one client call; a non-OK status is a failed op.
  bool Op(const Status& s, const char* what) {
    ++attempted;
    if (s.ok()) return true;
    ++failed;
    Note(std::string(what) + ": " + s.ToString());
    return false;
  }
  // A wrong answer (or a broken invariant) fails the run.
  void Mismatch(const std::string& what) {
    correct = false;
    Note("mismatch: " + what);
  }
  void Note(const std::string& what) {
    if (problems.size() < 16) problems.push_back(what);
  }
};

struct Samples {
  std::vector<Tick> get, put, query;
};

// Nearest-rank percentile in microseconds; 0 when empty.
double PercentileUs(std::vector<Tick> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]) / 1e3;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Seconds(Tick t) { return static_cast<double>(t) / 1e9; }

double WallSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Host time is the process's CPU time. The simulator runs on one thread, so
// on an idle machine this equals wall time; on a shared one it leaves out
// the time the OS gave to other processes, which wall time would count.
double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Host time around each Simulation::Run(), summed per phase name.
struct HostPhases {
  std::map<std::string, double> seconds;
  double wall = 0;  // wall seconds of the same spans, for reference
  void Run(sim::Simulation* sim, const std::string& phase) {
    const auto w0 = Clock::now();
    const double t0 = CpuNow();
    sim->Run();
    seconds[phase] += CpuNow() - t0;
    wall += WallSince(w0);
  }
};

// Benchmark span around one client call on the "bench" track. It carries the
// cmd_id the client is about to stamp on its command: the call path is
// synchronous up to the stamp, so the next id allocated is this call's.
// Burning one id per call changes only trace numbering, never timing.
class OpSpan {
 public:
  OpSpan(sim::Simulation* sim, const char* op) : span_(sim, "bench", op) {
    if (sim->tracer().enabled()) span_.Arg("cmd_id", sim->AllocateCmdId() + 1);
  }

 private:
  sim::TraceSpan span_;
};

std::vector<std::unique_ptr<client::Client>> MakeClients(
    harness::CsdTestbed* bed, std::uint32_t n) {
  std::vector<std::unique_ptr<client::Client>> clients;
  for (std::uint32_t i = 0; i < n; ++i) {
    client::ClientConfig cc;
    cc.queue_id = i % kQueues;
    cc.bulk_inflight_frames = kBulkInflightFrames;
    clients.push_back(std::make_unique<client::Client>(
        &bed->queue(), &bed->host_cpu(), hostenv::CostModel::Host(), cc));
  }
  return clients;
}

// ---------------------------------------------------------------------------
// Per-layer meters, read before and after the timed phase.

using Busy = std::array<Tick, sim::kActivityCount>;

const char* const kRoles[] = {"klog", "vlog",  "pidx", "sidx",
                              "sorted_values", "temp", "meta"};

const char* const kStageHistograms[] = {
    "client.stage.submit_ns",   "client.stage.queue_wait_ns",
    "client.stage.complete_ns", "device.stage.dispatch_ns",
    "device.stage.exec_ns",     "device.recompact.fold_ns"};

struct Snapshot {
  Tick now = 0;
  Busy host_cpu{}, h2d{}, d2h{}, dispatch{}, soc{}, nand{};
  std::map<std::string, std::uint64_t> counters;
  device::CompactionStats compact;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t zns_appended = 0;
};

Snapshot Take(harness::CsdTestbed* bed) {
  Snapshot s;
  s.now = bed->sim().Now();
  s.host_cpu = bed->host_cpu().meter().TotalBusy();
  s.h2d = bed->queue().h2d_meter().TotalBusy();
  s.d2h = bed->queue().d2h_meter().TotalBusy();
  s.dispatch = bed->dev().dispatch_meter().TotalBusy();
  s.soc = bed->dev().cpu().meter().TotalBusy();
  s.nand = bed->dev().ssd().nand().meter().TotalBusy();
  for (const auto& [name, counter] : bed->sim().stats().counters()) {
    s.counters[name] = counter.value();
  }
  s.compact = bed->dev().compaction_stats();
  s.h2d_bytes = bed->queue().host_to_device_bytes();
  s.d2h_bytes = bed->queue().device_to_host_bytes();
  s.zns_appended = bed->dev().ssd().total_bytes_written();
  return s;
}

// Stage histograms have no delta view, so the benchmark empties them when the
// timed phase starts; nothing in the device reads them back.
void ResetStageHistograms(harness::CsdTestbed* bed) {
  for (const char* name : kStageHistograms) {
    bed->sim().stats().histogram(name).Reset();
  }
}

std::uint64_t Delta(const Snapshot& a, const Snapshot& b,
                    const std::string& counter) {
  auto get = [&](const Snapshot& s) -> std::uint64_t {
    auto it = s.counters.find(counter);
    return it == s.counters.end() ? 0 : it->second;
  };
  return get(b) - get(a);
}

double BusyShare(const Busy& a, const Busy& b, Tick span, double capacity,
                 int act = -1) {
  Tick busy = 0;
  for (std::size_t i = 0; i < sim::kActivityCount; ++i) {
    if (act < 0 || static_cast<std::size_t>(act) == i) busy += b[i] - a[i];
  }
  return Ratio(static_cast<double>(busy),
               static_cast<double>(span) * capacity);
}

// Busy share of every public meter across [a, b], split by activity class,
// as a printable table (the JSON carries the totals and the SoC and NAND
// splits).
std::string BusyTable(harness::CsdTestbed* bed, const Snapshot& a,
                      const Snapshot& b) {
  const Tick span = b.now - a.now;
  struct Row {
    const char* name;
    const Busy& from;
    const Busy& to;
    double capacity;
  };
  const Row rows[] = {
      {"host_cpu", a.host_cpu, b.host_cpu,
       bed->host_cpu().meter().capacity()},
      {"pcie.h2d", a.h2d, b.h2d, bed->queue().h2d_meter().capacity()},
      {"pcie.d2h", a.d2h, b.d2h, bed->queue().d2h_meter().capacity()},
      {"dispatch", a.dispatch, b.dispatch,
       bed->dev().dispatch_meter().capacity()},
      {"soc", a.soc, b.soc, bed->dev().cpu().meter().capacity()},
      {"nand", a.nand, b.nand, bed->dev().ssd().nand().meter().capacity()},
  };
  std::string out = "busy share of the timed phase, by activity:\n  meter   ";
  char buf[32];
  for (std::size_t i = 0; i < sim::kActivityCount; ++i) {
    std::snprintf(buf, sizeof(buf), " %10s",
                  sim::ActivityName(static_cast<sim::Activity>(i)));
    out += buf;
  }
  for (const Row& r : rows) {
    std::snprintf(buf, sizeof(buf), "\n  %-8s", r.name);
    out += buf;
    for (std::size_t i = 0; i < sim::kActivityCount; ++i) {
      std::snprintf(buf, sizeof(buf), " %10.6f",
                    BusyShare(r.from, r.to, span, r.capacity,
                              static_cast<int>(i)));
      out += buf;
    }
  }
  return out + "\n";
}

// Every per-layer metric, as deltas across [a, b]. `folds_acked` is the
// number of Compact()+WaitCompaction() folds the benchmark saw acked OK.
std::map<std::string, double> LayerMetrics(harness::CsdTestbed* bed,
                                           const Snapshot& a,
                                           const Snapshot& b,
                                           std::uint64_t folds_acked) {
  std::map<std::string, double> m;
  const Tick span = b.now - a.now;
  sim::Stats& st = bed->sim().stats();
  auto hist_us = [&](const char* name, double p) {
    const sim::Histogram& h = st.histogram(name);
    return h.count() ? h.Percentile(100 * p) / 1e3 : 0.0;  // p in percent
  };
  auto d = [&](const char* counter) {
    return static_cast<double>(Delta(a, b, counter));
  };

  m["client.submit_us.p50"] = hist_us("client.stage.submit_ns", 0.5);
  m["client.complete_us.p50"] = hist_us("client.stage.complete_ns", 0.5);
  m["client.host_cpu_busy"] = BusyShare(a.host_cpu, b.host_cpu, span,
                                        bed->host_cpu().meter().capacity());

  m["nvme.sq_wait_us.p50"] = hist_us("client.stage.queue_wait_ns", 0.5);
  m["nvme.sq_wait_us.p99"] = hist_us("client.stage.queue_wait_ns", 0.99);
  m["nvme.h2d_busy"] = BusyShare(a.h2d, b.h2d, span,
                                 bed->queue().h2d_meter().capacity());
  m["nvme.h2d_bytes"] = static_cast<double>(b.h2d_bytes - a.h2d_bytes);
  m["nvme.d2h_busy"] = BusyShare(a.d2h, b.d2h, span,
                                 bed->queue().d2h_meter().capacity());
  m["nvme.d2h_bytes"] = static_cast<double>(b.d2h_bytes - a.d2h_bytes);

  m["kvcsd.dispatch_busy"] =
      BusyShare(a.dispatch, b.dispatch, span,
                bed->dev().dispatch_meter().capacity());
  m["kvcsd.dispatch_us.p50"] = hist_us("device.stage.dispatch_ns", 0.5);
  m["kvcsd.exec_us.p50"] = hist_us("device.stage.exec_ns", 0.5);
  m["kvcsd.exec_us.p99"] = hist_us("device.stage.exec_ns", 0.99);

  const double soc_cap = bed->dev().cpu().meter().capacity();
  for (sim::Activity act :
       {sim::Activity::kHostRead, sim::Activity::kHostWrite,
        sim::Activity::kCompact, sim::Activity::kRecompact,
        sim::Activity::kPushdown, sim::Activity::kDispatch}) {
    m[std::string("kvcsd.soc_busy.") + sim::ActivityName(act)] =
        BusyShare(a.soc, b.soc, span, soc_cap, static_cast<int>(act));
  }

  m["kvcsd.compact.phase1_s"] =
      Seconds(b.compact.phase1_ticks - a.compact.phase1_ticks);
  m["kvcsd.compact.phase2_s"] =
      Seconds(b.compact.phase2_ticks - a.compact.phase2_ticks);
  m["kvcsd.compact.bytes_read"] =
      static_cast<double>(b.compact.bytes_read - a.compact.bytes_read);
  m["kvcsd.compact.bytes_written"] =
      static_cast<double>(b.compact.bytes_written - a.compact.bytes_written);

  const double folds = d("device.recompact.done");
  m["kvcsd.fold.count"] = folds;
  m["kvcsd.fold.ok_ratio"] =
      Ratio(folds, static_cast<double>(folds_acked));
  m["kvcsd.fold_us.p50"] = hist_us("device.recompact.fold_ns", 0.5);
  const double rebuilt = d("device.recompact.pidx_blocks_rebuilt");
  m["kvcsd.fold.pidx_rebuilt_ratio"] =
      Ratio(rebuilt, rebuilt + d("device.recompact.pidx_blocks_retained"));
  m["kvcsd.fold.delta_keys"] = d("device.recompact.delta_keys");

  const double hits = d("device.read_cache.hits");
  m["kvcsd.index_cache.hit_ratio"] =
      Ratio(hits, hits + d("device.read_cache.misses"));
  const double negative = d("device.bloom.negative");
  const double maybe = d("device.bloom.maybe");
  m["kvcsd.bloom.negative_ratio"] = Ratio(negative, negative + maybe);
  m["kvcsd.bloom.false_positive_ratio"] =
      Ratio(d("device.bloom.false_positive"), maybe);
  m["kvcsd.delta.hit_ratio"] =
      Ratio(d("device.query.delta_hits"), d("device.cmd.kv_retrieve"));
  const double issued = d("device.prefetch.issued");
  m["kvcsd.prefetch.useful_ratio"] =
      Ratio(issued - d("device.prefetch.wasted"), issued);
  m["kvcsd.gather.refs_per_range"] =
      Ratio(d("device.gather.refs"), d("device.gather.ranges"));

  m["kvcsd.select.match_ratio"] =
      Ratio(d("device.select.rows_matched"), d("device.select.rows_scanned"));
  m["kvcsd.select.returned_per_scanned_bytes"] =
      Ratio(d("device.select.bytes_returned"),
            d("device.select.bytes_scanned"));

  const double nand_cap = bed->dev().ssd().nand().meter().capacity();
  for (sim::Activity act :
       {sim::Activity::kHostRead, sim::Activity::kHostWrite,
        sim::Activity::kCompact, sim::Activity::kRecompact,
        sim::Activity::kPushdown, sim::Activity::kOther}) {
    m[std::string("storage.nand_busy.") + sim::ActivityName(act)] =
        BusyShare(a.nand, b.nand, span, nand_cap, static_cast<int>(act));
  }
  for (const char* role : kRoles) {
    const std::string p = std::string("zns.") + role + ".";
    const std::string out = std::string("storage.zns.") + role + ".";
    m[out + "append_bytes"] = d((p + "append_bytes").c_str());
    m[out + "read_bytes"] = d((p + "read_bytes").c_str());
    m[out + "resets"] = d((p + "resets").c_str());
  }
  m["storage.zones_in_use"] = static_cast<double>(
      bed->dev().ssd().num_zones() - bed->dev().zones().free_zones());
  return m;
}

// Bytes of zones not in the free pool, over live user bytes.
double SpaceAmp(harness::CsdTestbed* bed, double live_bytes) {
  const double in_use = static_cast<double>(bed->dev().ssd().num_zones() -
                                            bed->dev().zones().free_zones());
  return Ratio(in_use * static_cast<double>(bed->dev().ssd().zone_size()),
               live_bytes);
}

// ---------------------------------------------------------------------------
// Probe: closed-loop single ops the main mix of a workload lacks, so every
// workload reports get/put/query latency. It runs after the timed phase and
// the checks. Each item names a key, its expected value, and the rows a
// short scan from it must return. PUTs rewrite the expected value, so the
// host model is unchanged. PUTs use the second half of the items, so reads
// never land on a key the probe itself moved into the delta. An untimed
// pass first GETs every read item, so the timed pass sees a warm index
// cache. In the timed pass each worker runs its slice once per enabled
// kind, in a seeded shuffled order, so the kinds contend with each other.

struct ProbeItem {
  Handle ks;
  std::string key;
  std::string value;
  Rows scan;  // the kProbeScanRows rows from `key` on
};

enum class ProbeKind { kGet, kQuery, kPut };

struct Probe {
  Probe(sim::Simulation* s, const std::vector<ProbeItem>* i, Samples* sa,
        Ledger* l)
      : sim(s), items(i), samples(sa), ledger(l) {}
  sim::Simulation* sim;
  const std::vector<ProbeItem>* items;
  Samples* samples;
  Ledger* ledger;
  bool timed = false;
  std::uint64_t rows = 0;
  std::uint32_t done = 0;
};

sim::Task<void> ProbeWorker(
    Probe* p, std::vector<std::pair<ProbeKind, std::size_t>> ops) {
  for (const auto& [kind, index] : ops) {
    const ProbeItem& item = (*p->items)[index];
    Handle ks = item.ks;
    if (kind == ProbeKind::kGet) {
      OpSpan span(p->sim, p->timed ? "get" : "warm_get");
      const Tick t0 = p->sim->Now();
      auto got = co_await ks.Get(item.key);
      if (!p->timed) {
        if (p->ledger->Op(got.status(), "probe warm-up get") &&
            *got != item.value) {
          p->ledger->Mismatch("probe get value");
        }
        continue;
      }
      p->samples->get.push_back(p->sim->Now() - t0);
      if (p->ledger->Op(got.status(), "probe get")) {
        ++p->rows;
        if (*got != item.value) p->ledger->Mismatch("probe get value");
      }
    } else if (kind == ProbeKind::kQuery) {
      OpSpan span(p->sim, "scan");
      Rows rows;
      const Tick t0 = p->sim->Now();
      Status s = co_await ks.Scan(item.key, kMaxKey, kProbeScanRows, &rows);
      p->samples->query.push_back(p->sim->Now() - t0);
      if (p->ledger->Op(s, "probe scan")) {
        p->rows += rows.size();
        if (rows != item.scan) p->ledger->Mismatch("probe scan rows");
      }
    } else {
      OpSpan span(p->sim, "put");
      const Tick t0 = p->sim->Now();
      Status s = co_await ks.Put(item.key, item.value);
      p->samples->put.push_back(p->sim->Now() - t0);
      p->ledger->Op(s, "probe put");
    }
  }
  ++p->done;
}

// Runs the probe in one Simulation::Run(); returns d2h bytes per row read.
double RunProbe(harness::CsdTestbed* bed, const std::vector<ProbeItem>& items,
                const std::vector<ProbeKind>& kinds, std::uint32_t workers,
                std::uint64_t seed, Samples* samples, Ledger* ledger) {
  Probe p(&bed->sim(), &items, samples, ledger);
  const std::size_t half = items.size() / 2;
  const std::size_t per = half / workers;
  for (std::uint32_t w = 0; w < workers; ++w) {
    std::vector<std::pair<ProbeKind, std::size_t>> ops;
    for (std::size_t i = w * per; i < (w + 1) * per; ++i) {
      ops.emplace_back(ProbeKind::kGet, i);
    }
    bed->sim().Spawn(ProbeWorker(&p, std::move(ops)));
  }
  bed->sim().Run();
  if (p.done != workers) ledger->Mismatch("probe workers stalled");

  p.timed = true;
  p.done = 0;
  const std::uint64_t d2h0 = bed->queue().device_to_host_bytes();
  Rng rng(seed ^ 0x5052'4f42'4531ull);
  for (std::uint32_t w = 0; w < workers; ++w) {
    std::vector<std::pair<ProbeKind, std::size_t>> ops;
    for (ProbeKind kind : kinds) {
      const std::size_t base = kind == ProbeKind::kPut ? half : 0;
      for (std::size_t i = w * per; i < (w + 1) * per; ++i) {
        ops.emplace_back(kind, base + i);
      }
    }
    for (std::size_t i = ops.size(); i > 1; --i) {
      std::swap(ops[i - 1], ops[rng.Uniform(i)]);
    }
    bed->sim().Spawn(ProbeWorker(&p, std::move(ops)));
  }
  bed->sim().Run();
  if (p.done != workers) ledger->Mismatch("probe workers stalled");
  return Ratio(static_cast<double>(bed->queue().device_to_host_bytes() - d2h0),
               static_cast<double>(p.rows));
}

// ---------------------------------------------------------------------------
// One repetition of a workload.

struct Outcome {
  std::map<std::string, double> sim;    // end-to-end, simulated clock
  std::map<std::string, double> layer;  // per-layer, simulated clock
  std::map<std::string, double> phase_host;
  std::map<std::string, std::uint64_t> counts;
  double setup_s = 0;
  double host_s = 0;       // CPU seconds of the timed phase
  double host_wall_s = 0;  // wall seconds of the same phase
  std::uint64_t timed_ops = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::string busy_table;
  Ledger ledger;
};

// A p99 needs at least 1000 samples, so at least ten lie beyond it.
constexpr std::size_t kMinP99Samples = 1000;

void SetLatencies(const Samples& s, Outcome* out) {
  for (const auto* v : {&s.get, &s.put, &s.query}) {
    if (v->size() < kMinP99Samples) {
      out->ledger.Mismatch("fewer than 1000 latency samples for a p99");
    }
  }
  out->sim["get_p50_us"] = PercentileUs(s.get, 0.5);
  out->sim["get_p99_us"] = PercentileUs(s.get, 0.99);
  out->sim["put_p50_us"] = PercentileUs(s.put, 0.5);
  out->sim["put_p99_us"] = PercentileUs(s.put, 0.99);
  out->sim["query_p50_us"] = PercentileUs(s.query, 0.5);
  out->sim["query_p99_us"] = PercentileUs(s.query, 0.99);
  out->counts["get_samples"] = s.get.size();
  out->counts["put_samples"] = s.put.size();
  out->counts["query_samples"] = s.query.size();
}

// Finishes the traced repetition: checks nothing was dropped, writes the
// trace for run.py.
void FinishTrace(harness::CsdTestbed* bed, const std::string& path,
                 Outcome* out) {
  if (path.empty()) return;
  const sim::Tracer& tracer = bed->sim().tracer();
  out->trace_events = tracer.size();
  out->trace_dropped = tracer.dropped();
  if (tracer.dropped() != 0) out->ledger.Mismatch("tracer dropped events");
  Status s = tracer.WriteFile(path);
  if (!s.ok()) out->ledger.Mismatch("trace write: " + s.ToString());
}

void EnableTrace(harness::CsdTestbed* bed, const std::string& path) {
  if (!path.empty()) bed->sim().tracer().Enable(kTraceCapacity);
}

// --- VPIC loading (ingest's timed phase, analyze's set-up) ---

// One dump file: its particles in ascending id order, which is the
// device's primary-key order.
using File = std::vector<const vpic::Particle*>;

// Deals the particles to kFiles files at random, as a simulation's ranks
// each own an uneven share of the particles. The seed thus sets each
// file's size as well as its contents.
std::vector<File> SplitDump(const vpic::Dump& dump, std::uint64_t seed) {
  Rng rng(seed ^ 0x5650'4943ull);
  std::vector<File> files(kFiles);
  for (const vpic::Particle& p : dump.all()) {
    files[rng.Uniform(kFiles)].push_back(&p);
  }
  return files;
}

struct Loader {
  Loader(sim::Simulation* s, const std::vector<File>* f,
         std::vector<Handle>* h, Ledger* l)
      : sim(s), files(f), handles(h), ledger(l), num_kvs(kFiles, 0) {}
  sim::Simulation* sim;
  const std::vector<File>* files;
  std::vector<Handle>* handles;
  Ledger* ledger;
  Tick start = 0;
  Tick load_done = 0;       // last Drain acked
  Tick queryable = 0;       // last keyspace COMPACTED with its SIDX
  std::uint64_t keys_acked = 0;
  std::vector<std::uint64_t> num_kvs;
  std::uint32_t done = 0;
};

sim::Task<void> CreateKeyspace(client::Client* db, std::uint32_t file,
                               std::vector<Handle>* out, Ledger* ledger) {
  auto ks = co_await db->CreateKeyspace("vpic" + std::to_string(file));
  if (ledger->Op(ks.status(), "create keyspace")) (*out)[file] = *ks;
}

sim::Task<void> LoadFile(Loader* l, std::uint32_t file) {
  Handle ks = (*l->handles)[file];
  const File& particles = (*l->files)[file];
  auto writer = ks.NewBulkWriter();
  {
    sim::TraceSpan span(l->sim, "bench", "load");
    for (const vpic::Particle* p : particles) {
      if (!l->ledger->Op(co_await writer.Add(p->Key(), p->Payload()),
                         "bulk add")) {
        co_return;
      }
    }
    if (!l->ledger->Op(co_await writer.Drain(), "bulk drain")) co_return;
  }
  l->keys_acked += particles.size();
  l->load_done = std::max(l->load_done, l->sim->Now());
  {
    sim::TraceSpan span(l->sim, "bench", "compact");
    std::vector<nvme::SecondaryIndexSpec> specs(1);
    specs[0].name = "energy";
    specs[0].value_offset = vpic::kEnergyOffset;
    specs[0].value_length = 4;
    specs[0].type = nvme::SecondaryKeyType::kF32;
    if (!l->ledger->Op(co_await ks.CompactWithIndexes(std::move(specs)),
                       "compact with indexes") ||
        !l->ledger->Op(co_await ks.WaitCompaction(), "wait compaction")) {
      co_return;
    }
  }
  auto stat = co_await ks.GetStat();
  if (!l->ledger->Op(stat.status(), "stat")) co_return;
  if (stat->state != "COMPACTED") l->ledger->Mismatch("state " + stat->state);
  l->num_kvs[file] = stat->num_kvs;
  l->queryable = std::max(l->queryable, l->sim->Now());
  ++l->done;
}

// One keyspace per file, each created through its loader's client.
void CreateKeyspaces(harness::CsdTestbed* bed,
                     std::vector<std::unique_ptr<client::Client>>* clients,
                     std::vector<Handle>* handles, Ledger* ledger) {
  handles->assign(kFiles, Handle{});
  for (std::uint32_t f = 0; f < kFiles; ++f) {
    bed->sim().Spawn(CreateKeyspace((*clients)[f].get(), f, handles, ledger));
  }
  bed->sim().Run();
}

// Loads and compacts every file concurrently in one Simulation::Run()
// named `phase`: the first PUT until the last keyspace is queryable.
void LoadAndCompact(harness::CsdTestbed* bed, Loader* l, HostPhases* phases,
                    const std::string& phase) {
  l->start = bed->sim().Now();
  sim::TraceSpan span(&bed->sim(), "bench.phase", phase);
  for (std::uint32_t f = 0; f < kFiles; ++f) {
    bed->sim().Spawn(LoadFile(l, f));
  }
  phases->Run(&bed->sim(), phase);
  if (l->done != kFiles) l->ledger->Mismatch("loaders stalled");
}

// Each keyspace's COMPACTED num_kvs must equal its file's particle count.
void CheckNumKvs(const std::vector<File>& files, const Loader& l,
                 Ledger* ledger) {
  for (std::uint32_t f = 0; f < kFiles; ++f) {
    const std::uint64_t want = files[f].size();
    if (l.num_kvs[f] != want) {
      ledger->Mismatch("keyspace " + std::to_string(f) + " num_kvs " +
                       std::to_string(l.num_kvs[f]) + " != " +
                       std::to_string(want));
    }
  }
}

// Probe items over VPIC keyspaces: random particles, their payloads and
// the next kProbeScanRows particles of the same file.
// `views[c][f]` is keyspace f opened through client c; items rotate
// through the clients.
std::vector<ProbeItem> VpicProbeItems(
    const std::vector<File>& files,
    const std::vector<std::vector<Handle>>& views, std::uint64_t seed) {
  Rng rng(seed ^ 0x5052'4f42'4500ull);
  std::vector<ProbeItem> items(2 * kProbeSamples);
  for (std::size_t i = 0; i < items.size(); ++i) {
    ProbeItem& item = items[i];
    const auto f = static_cast<std::uint32_t>(rng.Uniform(kFiles));
    const auto& file = files[f];
    const std::size_t j = rng.Uniform(file.size());
    item.ks = views[i % views.size()][f];
    item.key = file[j]->Key();
    item.value = file[j]->Payload();
    for (std::size_t k = j; k < file.size() && k < j + kProbeScanRows; ++k) {
      item.scan.emplace_back(file[k]->Key(), file[k]->Payload());
    }
  }
  return items;
}

// --- ingest ---

struct BandCheck {
  explicit BandCheck(float t) : threshold(t) {}
  float threshold;
  std::uint64_t rows = 0;
  bool rows_ok = true;
  std::uint32_t done = 0;
};

sim::Task<void> BandQuery(Handle ks, BandCheck* band, Ledger* ledger) {
  Rows rows;
  Status s = co_await ks.QuerySecondaryRangeF32(
      "energy", band->threshold, std::numeric_limits<float>::max(), 0, &rows);
  if (ledger->Op(s, "energy band")) {
    band->rows += rows.size();
    for (const auto& [key, value] : rows) {
      vpic::Particle p;
      if (!vpic::ParsePayload(value, &p) || p.energy < band->threshold) {
        band->rows_ok = false;
      }
    }
  }
  ++band->done;
}

Outcome RunIngest(std::uint64_t seed, const std::string& trace_path) {
  Outcome out;
  const double t_start = CpuNow();
  vpic::GeneratorConfig gen;
  gen.num_particles = kIngestParticles;
  gen.num_files = kFiles;
  gen.seed = seed;
  const vpic::Dump dump(gen);
  const std::vector<File> files = SplitDump(dump, seed);
  harness::CsdTestbed bed(BenchConfig());
  EnableTrace(&bed, trace_path);
  auto clients = MakeClients(&bed, kFiles);
  std::vector<Handle> handles;
  Ledger& ledger = out.ledger;
  HostPhases phases;

  // Keyspace creation is set-up; the timed span starts at the first PUT.
  CreateKeyspaces(&bed, &clients, &handles, &ledger);
  out.setup_s = CpuNow() - t_start;
  const Snapshot before = Take(&bed);
  ResetStageHistograms(&bed);
  Loader l(&bed.sim(), &files, &handles, &ledger);
  LoadAndCompact(&bed, &l, &phases, "ingest");
  out.host_s = phases.seconds["ingest"];
  out.host_wall_s = phases.wall;
  out.phase_host = phases.seconds;
  const Snapshot after = Take(&bed);
  out.layer = LayerMetrics(&bed, before, after, 0);
  out.busy_table = BusyTable(&bed, before, after);
  out.timed_ops = l.keys_acked;

  const double user_bytes =
      static_cast<double>(kIngestParticles) * vpic::kParticleBytes;
  out.sim["ops_per_s"] = Ratio(static_cast<double>(l.keys_acked),
                               Seconds(l.load_done - l.start));
  out.sim["queryable_s"] = Seconds(l.queryable - l.start);
  out.sim["write_amp"] =
      Ratio(static_cast<double>(after.zns_appended - before.zns_appended),
            user_bytes);
  out.sim["space_amp"] = SpaceAmp(&bed, user_bytes);

  // Checks: per-keyspace num_kvs, and energy-band counts summed over all
  // keyspaces against the dump.
  CheckNumKvs(files, l, &ledger);
  for (double sel : {0.001, 0.01, 0.1}) {
    BandCheck band(dump.EnergyThresholdForSelectivity(sel));
    for (std::uint32_t f = 0; f < kFiles; ++f) {
      bed.sim().Spawn(BandQuery(handles[f], &band, &ledger));
    }
    bed.sim().Run();
    const std::uint64_t want = dump.CountAbove(band.threshold);
    if (band.done != kFiles || band.rows != want || !band.rows_ok) {
      ledger.Mismatch("energy band >= " + std::to_string(band.threshold) +
                      ": " + std::to_string(band.rows) + " rows, want " +
                      std::to_string(want));
    }
  }

  Samples samples;
  const auto items = VpicProbeItems(files, {handles}, seed);
  out.sim["d2h_bytes_per_row"] =
      RunProbe(&bed, items, {ProbeKind::kGet, ProbeKind::kQuery,
                             ProbeKind::kPut},
               kProbeWorkers, seed, &samples, &ledger);
  SetLatencies(samples, &out);
  FinishTrace(&bed, trace_path, &out);
  return out;
}

// --- serve ---

// Value layout: 8 B id, 8 B version, then filler derived from both, so
// any answer can be checked on its own.
std::string ServeValue(std::uint64_t id, std::uint64_t version) {
  std::string v;
  v.reserve(kServeValueBytes);
  PutFixed64(&v, id);
  PutFixed64(&v, version);
  std::uint64_t x = id * 0x9e3779b97f4a7c15ull ^ version;
  while (v.size() < kServeValueBytes) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull;
    v.push_back(static_cast<char>('a' + (x >> 58) % 26));
  }
  return v;
}

bool ServeValueValid(std::uint64_t id, const std::string& v) {
  if (v.size() != kServeValueBytes) return false;
  if (DecodeFixed64(v.data()) != id) return false;
  return v == ServeValue(id, DecodeFixed64(v.data() + 8));
}

// Scrambled Zipfian over [0, n) (Gray et al., as in YCSB): rank r is drawn
// Zipf(theta) and hashed so the hot keys spread over the key space.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n) {
    for (std::uint64_t i = 1; i <= n; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
    half_pow_ = 1.0 + std::pow(0.5, theta);
  }

  std::uint64_t Next(Rng* rng) const {
    const double u = rng->NextDouble();
    const double uz = u * zetan_;
    std::uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < half_pow_) {
      rank = 1;
    } else {
      rank = static_cast<std::uint64_t>(
          static_cast<double>(n_) *
          std::pow(eta_ * u - eta_ + 1.0, alpha_));
      rank = std::min(rank, n_ - 1);
    }
    // FNV-1a over the rank's bytes.
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 8; ++i) {
      h ^= (rank >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
    return h % n_;
  }

 private:
  std::uint64_t n_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
  double half_pow_ = 0;
};

constexpr std::int64_t kDeleted = -1;

struct Serve {
  Serve(sim::Simulation* s, const Zipf* z, std::uint64_t sd, Ledger* l)
      : sim(s),
        zipf(z),
        seed(sd),
        ledger(l),
        model(kServeKeys, 0),
        ever_deleted(kServeKeys, false),
        put_round(kServeKeys, -1),
        delete_round(kServeKeys, -1) {}
  sim::Simulation* sim;
  const Zipf* zipf;
  std::uint64_t seed;
  Ledger* ledger;
  Samples samples;
  // Last-writer-wins host model: version per key, kDeleted when deleted.
  // Every PUT in round r writes version r + 1, and no key is both PUT and
  // DELETEd in one round, so concurrent writers of a key (on different
  // queues, in an order the host cannot see) all leave the same state, and
  // the fold between rounds orders the rounds.
  std::vector<std::int64_t> model;
  std::vector<bool> ever_deleted;
  std::vector<std::int32_t> put_round;
  std::vector<std::int32_t> delete_round;
  std::uint64_t gets = 0, puts = 0, deletes = 0, get_rows = 0;
  std::uint64_t user_bytes = 0;
  std::uint32_t done = 0;
};

sim::Task<void> ServeWorker(Serve* s, Handle ks, std::uint32_t worker,
                            std::uint32_t round) {
  Rng rng(s->seed * 0x100000001b3ull + round * 1000003ull + worker + 1);
  for (std::uint32_t op = 0; op < kServeOpsPerWorker; ++op) {
    const std::uint64_t drawn = s->zipf->Next(&rng);
    const double roll = rng.NextDouble();
    if (roll < 0.90) {
      const std::string key = MakeFixedKey(drawn);
      OpSpan span(s->sim, "get");
      const Tick t0 = s->sim->Now();
      auto got = co_await ks.Get(key);
      s->samples.get.push_back(s->sim->Now() - t0);
      ++s->gets;
      if (got.ok()) {
        ++s->get_rows;
        if (!ServeValueValid(drawn, *got)) s->ledger->Mismatch("get value");
        s->ledger->Op(Status::Ok(), "get");
      } else if (got.status().IsNotFound() && s->ever_deleted[drawn]) {
        s->ledger->Op(Status::Ok(), "get");  // a deleted key: correct
      } else {
        s->ledger->Op(got.status(), "get");
        if (got.status().IsNotFound()) s->ledger->Mismatch("get lost key");
      }
      continue;
    }
    // PUTs follow the Zipf skew; DELETEs pick a uniform key, as expiries
    // hit old data rather than hot keys. A key DELETEd this round takes no
    // PUT this round, and the other way round: both redraw.
    const auto r = static_cast<std::int32_t>(round);
    std::uint64_t id = drawn;
    if (roll < 0.98) {
      while (s->delete_round[id] == r) id = s->zipf->Next(&rng);
      s->put_round[id] = r;
    } else {
      do {
        id = rng.Uniform(kServeKeys);
      } while (s->put_round[id] == r);
      s->delete_round[id] = r;
    }
    const std::string key = MakeFixedKey(id);
    if (roll < 0.98) {
      const std::uint64_t version = round + 1;
      const std::string value = ServeValue(id, version);
      s->model[id] = static_cast<std::int64_t>(version);
      s->user_bytes += key.size() + value.size();
      OpSpan span(s->sim, "put");
      const Tick t0 = s->sim->Now();
      Status st = co_await ks.Put(key, value);
      s->samples.put.push_back(s->sim->Now() - t0);
      ++s->puts;
      s->ledger->Op(st, "put");
    } else {
      s->model[id] = kDeleted;
      s->ever_deleted[id] = true;
      s->user_bytes += key.size();
      OpSpan span(s->sim, "delete");
      const Tick t0 = s->sim->Now();
      Status st = co_await ks.Delete(key);
      s->samples.put.push_back(s->sim->Now() - t0);
      ++s->deletes;
      s->ledger->Op(st, "delete");
    }
  }
  ++s->done;
}

struct Fold {
  Fold(sim::Simulation* s, const sim::Stats* st, Ledger* l)
      : sim(s), stats(st), ledger(l) {}
  sim::Simulation* sim;
  const sim::Stats* stats;
  Ledger* ledger;
  std::uint64_t acked = 0;
  std::uint64_t silent = 0;
  Tick total = 0;
};

// Sync + Compact + WaitCompaction. An acked fold that did not advance the
// device's fold counter counts as a failed op.
sim::Task<void> FoldDelta(Fold* f, Handle ks) {
  sim::TraceSpan span(f->sim, "bench", "fold");
  const Tick t0 = f->sim->Now();
  const std::uint64_t folds0 = f->stats->counter_value("device.recompact.done");
  if (!f->ledger->Op(co_await ks.Sync(), "sync") ||
      !f->ledger->Op(co_await ks.Compact(), "compact") ||
      !f->ledger->Op(co_await ks.WaitCompaction(), "wait compaction")) {
    co_return;
  }
  ++f->acked;
  ++f->ledger->attempted;
  if (f->stats->counter_value("device.recompact.done") == folds0) {
    ++f->silent;
    ++f->ledger->failed;
    f->ledger->Note("fold acked but device fold counter did not advance");
  }
  f->total += f->sim->Now() - t0;
}

sim::Task<void> ServeLoad(client::Client* db, Handle* out, Ledger* ledger) {
  auto ks = co_await db->CreateKeyspace("serve");
  if (!ledger->Op(ks.status(), "create keyspace")) co_return;
  auto writer = ks->NewBulkWriter();
  for (std::uint64_t id = 0; id < kServeKeys; ++id) {
    if (!ledger->Op(co_await writer.Add(MakeFixedKey(id), ServeValue(id, 0)),
                    "bulk add")) {
      co_return;
    }
  }
  if (!ledger->Op(co_await writer.Drain(), "bulk drain") ||
      !ledger->Op(co_await ks->Compact(), "compact") ||
      !ledger->Op(co_await ks->WaitCompaction(), "wait compaction")) {
    co_return;
  }
  *out = *ks;
}

sim::Task<void> OpenServe(client::Client* db, Handle* out, Ledger* ledger) {
  auto ks = co_await db->OpenKeyspace("serve");
  if (ledger->Op(ks.status(), "open keyspace")) *out = *ks;
}

sim::Task<void> ScanAll(Handle ks, Rows* rows, Ledger* ledger) {
  ledger->Op(co_await ks.Scan("", kMaxKey, 0, rows), "full scan");
}

Outcome RunServe(std::uint64_t seed, const std::string& trace_path) {
  Outcome out;
  const double t_start = CpuNow();
  harness::CsdTestbed bed(BenchConfig());
  EnableTrace(&bed, trace_path);
  auto clients = MakeClients(&bed, kTenants);
  Ledger& ledger = out.ledger;
  HostPhases phases;

  Handle loaded;
  bed.sim().Spawn(ServeLoad(clients[0].get(), &loaded, &ledger));
  bed.sim().Run();
  std::vector<Handle> tenants(kTenants);
  for (std::uint32_t t = 0; t < kTenants; ++t) {
    bed.sim().Spawn(OpenServe(clients[t].get(), &tenants[t], &ledger));
  }
  bed.sim().Run();
  const Zipf zipf(kServeKeys, kZipfTheta);
  Serve s(&bed.sim(), &zipf, seed, &ledger);
  Fold fold(&bed.sim(), &bed.sim().stats(), &ledger);
  out.setup_s = CpuNow() - t_start;

  const Snapshot before = Take(&bed);
  ResetStageHistograms(&bed);
  Tick mix_ticks = 0;
  for (std::uint32_t round = 0; round < kServeRounds; ++round) {
    s.done = 0;
    const Tick t0 = bed.sim().Now();
    {
      sim::TraceSpan span(&bed.sim(), "bench.phase", "mix");
      for (std::uint32_t w = 0; w < kServeWorkers; ++w) {
        bed.sim().Spawn(ServeWorker(&s, tenants[w / kWorkersPerTenant], w,
                                    round));
      }
      phases.Run(&bed.sim(), "mix");
    }
    mix_ticks += bed.sim().Now() - t0;
    if (s.done != kServeWorkers) ledger.Mismatch("serve workers stalled");
    sim::TraceSpan span(&bed.sim(), "bench.phase", "fold");
    bed.sim().Spawn(FoldDelta(&fold, tenants[0]));
    phases.Run(&bed.sim(), "fold");
  }
  out.host_s = phases.seconds["mix"] + phases.seconds["fold"];
  out.host_wall_s = phases.wall;
  out.phase_host = phases.seconds;
  const Snapshot after = Take(&bed);
  out.layer = LayerMetrics(&bed, before, after, fold.acked);
  out.busy_table = BusyTable(&bed, before, after);
  out.timed_ops = s.gets + s.puts + s.deletes;
  out.counts["folds_acked"] = fold.acked;
  out.counts["folds_silent"] = fold.silent;

  // Final check: a full scan must equal the last-writer-wins model.
  Rows rows;
  bed.sim().Spawn(ScanAll(tenants[0], &rows, &ledger));
  bed.sim().Run();
  std::uint32_t scan_crc = 0;
  for (const auto& [key, value] : rows) {
    scan_crc = crc32c::Extend(scan_crc, key.data(), key.size());
    scan_crc = crc32c::Extend(scan_crc, value.data(), value.size());
  }
  std::uint32_t model_crc = 0;
  std::uint64_t live = 0;
  double live_bytes = 0;
  std::vector<std::uint64_t> live_ids;
  for (std::uint64_t id = 0; id < kServeKeys; ++id) {
    if (s.model[id] == kDeleted) continue;
    const std::string key = MakeFixedKey(id);
    const std::string value =
        ServeValue(id, static_cast<std::uint64_t>(s.model[id]));
    model_crc = crc32c::Extend(model_crc, key.data(), key.size());
    model_crc = crc32c::Extend(model_crc, value.data(), value.size());
    ++live;
    live_bytes += static_cast<double>(key.size() + value.size());
    live_ids.push_back(id);
  }
  if (rows.size() != live || scan_crc != model_crc) {
    ledger.Mismatch("full scan: " + std::to_string(rows.size()) +
                    " rows vs model " + std::to_string(live));
  }

  out.sim["ops_per_s"] =
      Ratio(static_cast<double>(out.timed_ops), Seconds(mix_ticks));
  out.sim["queryable_s"] =
      Ratio(Seconds(fold.total), static_cast<double>(fold.acked));
  out.sim["write_amp"] =
      Ratio(static_cast<double>(after.zns_appended - before.zns_appended),
            static_cast<double>(s.user_bytes));
  out.sim["space_amp"] = SpaceAmp(&bed, live_bytes);
  out.sim["d2h_bytes_per_row"] =
      Ratio(static_cast<double>(after.d2h_bytes - before.d2h_bytes),
            static_cast<double>(s.get_rows));

  // Probe: short scans from random live keys, checked against the model.
  Rng rng(seed ^ 0x5052'4f42'4500ull);
  std::vector<ProbeItem> items(2 * kProbeSamples);
  for (std::size_t i = 0; i < items.size(); ++i) {
    ProbeItem& item = items[i];
    const std::size_t j = rng.Uniform(live_ids.size());
    const std::uint64_t start = live_ids[j];
    item.ks = tenants[i % kTenants];
    item.key = MakeFixedKey(start);
    item.value = ServeValue(start, static_cast<std::uint64_t>(s.model[start]));
    for (std::size_t k = j; k < live_ids.size() && k < j + kProbeScanRows;
         ++k) {
      const std::uint64_t id = live_ids[k];
      item.scan.emplace_back(
          MakeFixedKey(id),
          ServeValue(id, static_cast<std::uint64_t>(s.model[id])));
    }
  }
  RunProbe(&bed, items, {ProbeKind::kQuery}, kServeProbeWorkers, seed,
           &s.samples, &ledger);
  SetLatencies(s.samples, &out);
  FinishTrace(&bed, trace_path, &out);
  return out;
}

// --- analyze ---

enum class QueryKind { kSidx, kScan, kSelect, kAggregate };

const char* QueryName(QueryKind k) {
  switch (k) {
    case QueryKind::kSidx:
      return "query_sidx";
    case QueryKind::kScan:
      return "query_scan";
    case QueryKind::kSelect:
      return "query_select";
    case QueryKind::kAggregate:
      return "query_aggregate";
  }
  return "query";
}

struct Analyze {
  Analyze(sim::Simulation* s, std::uint64_t sd, Ledger* l)
      : sim(s), seed(sd), ledger(l) {}
  sim::Simulation* sim;
  std::uint64_t seed;
  Ledger* ledger;
  std::vector<File> files;
  std::vector<std::vector<float>> sorted_energy;  // per file
  float select_threshold = 0;
  Samples samples;
  std::uint64_t queries = 0;
  std::uint64_t rows = 0;
  std::uint32_t done = 0;
};

std::string EnergyBytes(const vpic::Particle& p) {
  return p.Payload().substr(vpic::kEnergyOffset, 4);
}

sim::Task<void> Analyst(Analyze* a, const std::vector<Handle>* handles,
                        std::uint32_t analyst, QueryKind kind) {
  Rng rng(a->seed * 0x9e3779b97f4a7c15ull +
          static_cast<std::uint64_t>(kind) * 7919 + analyst + 1);
  for (std::uint32_t q = 0; q < kQueriesPerAnalyst; ++q) {
    const auto f = static_cast<std::uint32_t>(rng.Uniform(kFiles));
    const auto& file = a->files[f];
    Handle ks = (*handles)[f];
    Rows rows;
    Status st;
    const Tick t0 = a->sim->Now();
    switch (kind) {
      case QueryKind::kSidx: {
        // An energy band holding a drawn share of the file's particles.
        const auto& e = a->sorted_energy[f];
        const double width =
            kBandWidthMin + (kBandWidthMax - kBandWidthMin) * rng.NextDouble();
        const double lo_q = 0.5 + 0.45 * rng.NextDouble();
        const float lo = e[static_cast<std::size_t>(
            lo_q * static_cast<double>(e.size() - 1))];
        const float hi = e[std::min<std::size_t>(
            e.size() - 1, static_cast<std::size_t>(
                              (lo_q + width) *
                              static_cast<double>(e.size() - 1)))];
        {
          OpSpan span(a->sim, "sidx");
          st = co_await ks.QuerySecondaryRangeF32("energy", lo, hi, 0, &rows);
        }
        a->samples.query.push_back(a->sim->Now() - t0);
        if (!a->ledger->Op(st, "energy band")) break;
        const auto want = static_cast<std::size_t>(
            std::upper_bound(e.begin(), e.end(), hi) -
            std::lower_bound(e.begin(), e.end(), lo));
        bool ok = rows.size() == want;
        for (const auto& [key, value] : rows) {
          vpic::Particle p;
          ok = ok && vpic::ParsePayload(value, &p) && p.energy >= lo &&
               p.energy <= hi;
        }
        if (!ok) a->ledger->Mismatch("energy band rows");
        break;
      }
      case QueryKind::kScan: {
        const std::size_t j = rng.Uniform(file.size());
        const auto limit = static_cast<std::uint32_t>(
            kScanRowsMin + rng.Uniform(kScanRowsMax - kScanRowsMin + 1));
        {
          OpSpan span(a->sim, "scan");
          st = co_await ks.Scan(file[j]->Key(), kMaxKey, limit, &rows);
        }
        a->samples.query.push_back(a->sim->Now() - t0);
        if (!a->ledger->Op(st, "scan")) break;
        bool ok = rows.size() == std::min<std::size_t>(limit, file.size() - j);
        for (std::size_t k = 0; ok && k < rows.size(); ++k) {
          ok = rows[k].first == file[j + k]->Key() &&
               rows[k].second == file[j + k]->Payload();
        }
        if (!ok) a->ledger->Mismatch("scan rows");
        break;
      }
      case QueryKind::kSelect: {
        const std::size_t span_n =
            kPushdownSpanMin +
            rng.Uniform(kPushdownSpanMax - kPushdownSpanMin + 1);
        const std::size_t j = rng.Uniform(file.size() - span_n);
        Handle::SelectOptions opts;
        opts.pred = nvme::PredicateF32(nvme::PredicateOp::kGe,
                                       vpic::kEnergyOffset,
                                       a->select_threshold);
        opts.proj.enabled = true;
        opts.proj.offset = vpic::kEnergyOffset;
        opts.proj.length = 4;
        const std::string lo = file[j]->Key();
        const std::string hi = file[j + span_n - 1]->Key();
        {
          OpSpan span(a->sim, "select");
          st = co_await ks.Select(lo, hi, opts, &rows);
        }
        a->samples.query.push_back(a->sim->Now() - t0);
        if (!a->ledger->Op(st, "select")) break;
        Rows want;
        for (std::size_t k = j; k < j + span_n; ++k) {
          if (file[k]->energy >= a->select_threshold) {
            want.emplace_back(file[k]->Key(), EnergyBytes(*file[k]));
          }
        }
        if (rows != want) a->ledger->Mismatch("select rows");
        break;
      }
      case QueryKind::kAggregate: {
        const std::size_t span_n =
            kPushdownSpanMin +
            rng.Uniform(kPushdownSpanMax - kPushdownSpanMin + 1);
        const std::size_t j = rng.Uniform(file.size() - span_n);
        nvme::AggregateSpec spec;
        spec.func = nvme::AggregateFunc::kSum;
        spec.value_offset = vpic::kEnergyOffset;
        spec.value_length = 4;
        spec.type = nvme::SecondaryKeyType::kF32;
        const std::string lo = file[j]->Key();
        const std::string hi = file[j + span_n - 1]->Key();
        Result<nvme::AggregateResult> agg = nvme::AggregateResult{};
        {
          OpSpan span(a->sim, "aggregate");
          agg = co_await ks.Aggregate(lo, hi, spec);
        }
        a->samples.query.push_back(a->sim->Now() - t0);
        if (!a->ledger->Op(agg.status(), "aggregate")) break;
        // Host fold in scan (ascending id) order: bit-identical sums.
        nvme::AggregateResult want;
        for (std::size_t k = j; k < j + span_n; ++k) {
          const double v = static_cast<double>(file[k]->energy);
          if (!want.valid) {
            want.min = want.max = v;
            want.valid = true;
          } else {
            want.min = std::min(want.min, v);
            want.max = std::max(want.max, v);
          }
          want.sum += v;
          ++want.rows;
        }
        if (agg->rows != want.rows || agg->valid != want.valid ||
            std::bit_cast<std::uint64_t>(agg->sum) !=
                std::bit_cast<std::uint64_t>(want.sum) ||
            agg->min != want.min || agg->max != want.max) {
          a->ledger->Mismatch("aggregate result");
        }
        break;
      }
    }
    ++a->queries;
    a->rows += rows.size();
  }
  ++a->done;
}

sim::Task<void> OpenVpic(client::Client* db, std::uint32_t file,
                         std::vector<Handle>* out, Ledger* ledger) {
  auto ks = co_await db->OpenKeyspace("vpic" + std::to_string(file));
  if (ledger->Op(ks.status(), "open keyspace")) (*out)[file] = *ks;
}

Outcome RunAnalyze(std::uint64_t seed, const std::string& trace_path) {
  Outcome out;
  const double t_start = CpuNow();
  vpic::GeneratorConfig gen;
  gen.num_particles = kAnalyzeParticles;
  gen.num_files = kFiles;
  gen.seed = seed;
  const vpic::Dump dump(gen);
  const std::vector<File> files = SplitDump(dump, seed);
  harness::CsdTestbed bed(BenchConfig());
  EnableTrace(&bed, trace_path);
  auto clients = MakeClients(&bed, kFiles);
  Ledger& ledger = out.ledger;
  HostPhases phases;

  // Set-up: load and compact the dataset exactly as ingest does.
  std::vector<Handle> handles;
  Loader l(&bed.sim(), &files, &handles, &ledger);
  const Snapshot load0 = Take(&bed);
  CreateKeyspaces(&bed, &clients, &handles, &ledger);
  HostPhases setup_phases;
  LoadAndCompact(&bed, &l, &setup_phases, "setup");
  const Snapshot load1 = Take(&bed);
  CheckNumKvs(files, l, &ledger);
  // Each analyst queries through its own client.
  std::vector<std::vector<Handle>> views(kAnalysts,
                                         std::vector<Handle>(kFiles));
  for (std::uint32_t a = 0; a < kAnalysts; ++a) {
    for (std::uint32_t f = 0; f < kFiles; ++f) {
      bed.sim().Spawn(OpenVpic(clients[a].get(), f, &views[a], &ledger));
    }
  }
  bed.sim().Run();
  Analyze an(&bed.sim(), seed, &ledger);
  for (std::uint32_t f = 0; f < kFiles; ++f) {
    an.files.push_back(files[f]);
    std::vector<float> e;
    for (const vpic::Particle* p : an.files.back()) e.push_back(p->energy);
    std::sort(e.begin(), e.end());
    an.sorted_energy.push_back(std::move(e));
  }
  an.select_threshold = dump.EnergyThresholdForSelectivity(kSelectSelectivity);
  out.setup_s = CpuNow() - t_start;

  const Snapshot before = Take(&bed);
  ResetStageHistograms(&bed);
  for (QueryKind kind : {QueryKind::kSidx, QueryKind::kScan,
                         QueryKind::kSelect, QueryKind::kAggregate}) {
    an.done = 0;
    sim::TraceSpan span(&bed.sim(), "bench.phase", QueryName(kind));
    for (std::uint32_t a = 0; a < kAnalysts; ++a) {
      bed.sim().Spawn(Analyst(&an, &views[a], a, kind));
    }
    phases.Run(&bed.sim(), QueryName(kind));
    if (an.done != kAnalysts) ledger.Mismatch("analysts stalled");
  }
  const Snapshot after = Take(&bed);
  for (const auto& [phase, secs] : phases.seconds) out.host_s += secs;
  out.host_wall_s = phases.wall;
  out.phase_host = phases.seconds;
  out.layer = LayerMetrics(&bed, before, after, 0);
  out.busy_table = BusyTable(&bed, before, after);
  out.timed_ops = an.queries;

  const double user_bytes =
      static_cast<double>(kAnalyzeParticles) * vpic::kParticleBytes;
  out.sim["ops_per_s"] = Ratio(static_cast<double>(an.queries),
                               Seconds(after.now - before.now));
  out.sim["queryable_s"] = Seconds(l.queryable - l.start);
  out.sim["write_amp"] = Ratio(
      static_cast<double>(load1.zns_appended - load0.zns_appended),
      user_bytes);
  out.sim["space_amp"] = SpaceAmp(&bed, user_bytes);
  out.sim["d2h_bytes_per_row"] =
      Ratio(static_cast<double>(after.d2h_bytes - before.d2h_bytes),
            static_cast<double>(an.rows));
  out.counts["rows_returned"] = an.rows;

  // Probe: point GETs and PUTs, which the analysts never issue.
  const auto items = VpicProbeItems(files, views, seed);
  RunProbe(&bed, items, {ProbeKind::kGet, ProbeKind::kPut}, kProbeWorkers,
           seed, &an.samples, &ledger);
  SetLatencies(an.samples, &out);
  FinishTrace(&bed, trace_path, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Repetitions and output.

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Host-clock metrics take the fastest repetition: on a shared machine
// other load only ever adds time, and it comes in bursts that outlast a
// repetition, so the minimum is the steadiest estimate of the simulator's
// own cost (the median is printed beside it).
double Min(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void AppendJson(std::string* out, const std::map<std::string, double>& m) {
  *out += "{";
  bool first = true;
  char buf[64];
  for (const auto& [k, v] : m) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    *out += (first ? "\"" : ",\"") + k + "\":" + buf;
    first = false;
  }
  *out += "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && (a->workload == "ingest" ||
                             a->workload == "serve" ||
                             a->workload == "analyze");
}

Outcome RunOnce(const Args& args, const std::string& trace_path) {
  if (args.workload == "ingest") return RunIngest(args.seed, trace_path);
  if (args.workload == "serve") return RunServe(args.seed, trace_path);
  return RunAnalyze(args.seed, trace_path);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload {ingest|serve|analyze} --seed N "
                 "--seconds S [--trace-out PATH]\n",
                 argv[0]);
    return 2;
  }
  // Repeat in fresh testbeds until the time budget is spent (at least
  // twice, so the determinism check always has a pair to compare).
  const auto t0 = Clock::now();
  std::vector<Outcome> reps;
  double peak_rss_mb = 0;
  do {
    reps.push_back(RunOnce(args, ""));
    // The first repetition's peak: later ones reuse the heap, so the
    // process high-water mark would only add allocator noise.
    if (reps.size() == 1) peak_rss_mb = PeakRssMb();
  } while (reps.size() < 2 || WallSince(t0) < args.seconds);

  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::printf("repetition %zu: setup %.4f s, timed phase %.4f s cpu "
                "%.4f s wall\n",
                i, reps[i].setup_s, reps[i].host_s, reps[i].host_wall_s);
  }
  Outcome& first = reps.front();
  Ledger& ledger = first.ledger;
  std::vector<double> host, setup;
  for (const Outcome& r : reps) {
    host.push_back(r.host_s);
    setup.push_back(r.setup_s);
    if (!r.ledger.correct) ledger.correct = false;
    if (r.sim != first.sim || r.layer != first.layer) {
      ledger.Mismatch("simulated metrics differ between repetitions");
    }
  }
  std::map<std::string, double> phase_host;
  for (const auto& [phase, _] : first.phase_host) {
    std::vector<double> v;
    for (const Outcome& r : reps) v.push_back(r.phase_host.at(phase));
    phase_host[phase] = Min(v);
  }

  std::map<std::string, double> host_metrics{
      {"host_s", Min(host)},
      {"setup_s", Min(setup)},
      {"peak_rss_mb", peak_rss_mb},
  };
  std::map<std::string, double> layer = first.layer;
  layer["sim.host_us_per_op"] =
      Ratio(host_metrics["host_s"] * 1e6, static_cast<double>(first.timed_ops));
  for (const char* phase : {"ingest", "mix", "fold", "query_sidx",
                            "query_scan", "query_select",
                            "query_aggregate"}) {
    auto it = phase_host.find(phase);
    layer[std::string("sim.host_s.") + phase] =
        it == phase_host.end() ? 0.0 : it->second;
  }
  layer["failed_op_ratio"] = Ratio(static_cast<double>(ledger.failed),
                                   static_cast<double>(ledger.attempted));

  if (!args.trace_out.empty()) {
    Outcome traced = RunOnce(args, args.trace_out);
    if (!traced.ledger.correct) ledger.Mismatch("traced repetition failed");
    if (traced.sim != first.sim) {
      ledger.Mismatch("tracing changed simulated metrics");
    }
    layer["trace.overhead_s"] = traced.host_s - host_metrics["host_s"];
    layer["trace.events"] = static_cast<double>(traced.trace_events);
    layer["trace.dropped"] = static_cast<double>(traced.trace_dropped);
  }

  std::printf("workload %s seed %llu: %zu repetitions in %.2f s; median "
              "host_s %.4f, setup_s %.4f\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), reps.size(),
              WallSince(t0), Median(host), Median(setup));
  std::printf("ops attempted %llu failed %llu (failed_op_ratio %.6g)\n",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed),
              layer["failed_op_ratio"]);
  for (const auto& [k, v] : first.counts) {
    std::printf("count %s %llu\n", k.c_str(),
                static_cast<unsigned long long>(v));
  }
  std::printf("%s", first.busy_table.c_str());
  for (const std::string& p : ledger.problems) {
    std::printf("problem: %s\n", p.c_str());
  }

  std::string json = "{\"correct\":";
  json += ledger.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(ledger.attempted);
  json += ",\"failed\":" + std::to_string(ledger.failed);
  json += ",\"sim\":";
  AppendJson(&json, first.sim);
  json += ",\"host\":";
  AppendJson(&json, host_metrics);
  json += ",\"layer\":";
  AppendJson(&json, layer);
  std::map<std::string, double> counts;
  for (const auto& [k, v] : first.counts) {
    counts[k] = static_cast<double>(v);
  }
  counts["repetitions"] = static_cast<double>(reps.size());
  json += ",\"counts\":";
  AppendJson(&json, counts);
  json += "}";
  std::printf("%s\n", json.c_str());
  return ledger.correct ? 0 : 1;
}
