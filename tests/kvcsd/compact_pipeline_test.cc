// End-to-end tests for the multi-core compaction pipeline: results must
// be bit-identical regardless of `soc_cores` (run layout, merge order and
// tie-breaks are all core-count independent), and more cores must not
// make compaction slower — parallel run generation should make it
// strictly faster.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "../testutil.h"
#include "client/client.h"
#include "common/keys.h"
#include "kvcsd/device.h"

namespace kvcsd::device {
namespace {

DeviceConfig SmallDevice(std::uint32_t cores) {
  DeviceConfig c;
  c.zns.zone_size = MiB(1);
  c.zns.num_zones = 256;
  c.zns.nand.channels = 8;
  c.dram_bytes = KiB(512);
  c.write_buffer_bytes = KiB(8);
  c.soc_cores = cores;
  return c;
}

struct Fixture {
  explicit Fixture(std::uint32_t cores) : dev{&sim, SmallDevice(cores), &qp} {
    dev.Start();
  }

  sim::Simulation sim;
  nvme::QueueSet qp{&sim, nvme::PcieConfig{}};
  Device dev;
  sim::CpuPool host{&sim, "host", 8};
  client::Client db{&qp, &host, hostenv::CostModel::Host()};
};

// Everything observable about a compacted keyspace that must not depend
// on the core count: entry count, both pivot sketches, and query results.
struct Outcome {
  bool ok = false;
  Tick compact_ticks = 0;
  std::uint64_t num_kvs = 0;
  std::vector<std::string> pidx_pivots;
  std::vector<std::string> sidx_pivots;
  std::vector<std::pair<std::string, std::string>> scan;
  std::vector<std::pair<std::string, std::string>> sidx_rows;
  std::vector<std::string> gets;
};

std::string EnergyValue(std::uint64_t id) {
  std::string v(28, 'p');
  const float energy = static_cast<float>(id % 97);
  char buf[4];
  std::memcpy(buf, &energy, 4);
  v.append(buf, 4);
  return v;
}

sim::Task<void> Workload(client::Client* db, Device* dev,
                         sim::Simulation* sim, std::uint64_t keys,
                         Outcome* out) {
  auto created = co_await db->CreateKeyspace("pipeline");
  KVCSD_CO_ASSERT_OK(created);
  auto ks = std::move(*created);

  // Shuffled insertion order so run generation sees unsorted zones.
  std::uint64_t stride = 701;
  while (keys % stride == 0) ++stride;
  auto writer = ks.NewBulkWriter();
  for (std::uint64_t i = 0; i < keys; ++i) {
    const std::uint64_t id = (i * stride) % keys;
    KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(id), EnergyValue(id)));
  }
  KVCSD_CO_ASSERT_OK(co_await writer.Flush());

  const Tick start = sim->Now();
  nvme::SecondaryIndexSpec energy;
  energy.name = "energy";
  energy.value_offset = 28;
  energy.value_length = 4;
  energy.type = nvme::SecondaryKeyType::kF32;
  std::vector<nvme::SecondaryIndexSpec> specs;
  specs.push_back(std::move(energy));
  KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(std::move(specs)));
  KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());
  out->compact_ticks = sim->Now() - start;

  auto stat = co_await ks.GetStat();
  KVCSD_CO_ASSERT_OK(stat);
  out->num_kvs = stat->num_kvs;

  // Device-internal index layout.
  auto found = dev->keyspaces().Find("pipeline");
  KVCSD_CO_ASSERT_OK(found);
  for (const SketchEntry& e : (*found)->pidx_sketch) {
    out->pidx_pivots.push_back(e.pivot);
  }
  auto sidx = (*found)->secondary_indexes.find("energy");
  KVCSD_CO_ASSERT(sidx != (*found)->secondary_indexes.end());
  for (const SketchEntry& e : sidx->second.sketch) {
    out->sidx_pivots.push_back(e.pivot);
  }

  // Query-visible results.
  KVCSD_CO_ASSERT_OK(co_await ks.Scan(MakeFixedKey(keys / 4),
                                MakeFixedKey(keys / 4 + 100), 0, &out->scan));
  for (std::uint64_t probe = 0; probe < 16; ++probe) {
    auto v = co_await ks.Get(MakeFixedKey((probe * keys) / 16));
    KVCSD_CO_ASSERT_OK(v);
    out->gets.push_back(std::move(*v));
  }
  KVCSD_CO_ASSERT_OK(co_await ks.QuerySecondaryRangeF32("energy", 10.0f, 14.0f, 0,
                                                  &out->sidx_rows));
  out->ok = true;
}

Outcome RunWorkload(std::uint32_t cores, std::uint64_t keys) {
  Fixture f(cores);
  Outcome out;
  testutil::RunSim(f.sim, Workload(&f.db, &f.dev, &f.sim, keys, &out));
  EXPECT_TRUE(out.ok) << "workload aborted at " << cores << " cores";
  return out;
}

constexpr std::uint64_t kKeys = 6000;

TEST(CompactPipelineTest, ResultsIdenticalAcrossCoreCounts) {
  Outcome one = RunWorkload(1, kKeys);
  Outcome four = RunWorkload(4, kKeys);
  ASSERT_TRUE(one.ok && four.ok);

  EXPECT_EQ(one.num_kvs, kKeys);
  EXPECT_EQ(four.num_kvs, one.num_kvs);
  // Index layout: same blocks split at the same pivots, in both the
  // primary and the fused secondary index.
  EXPECT_GT(one.pidx_pivots.size(), 1u);
  EXPECT_EQ(four.pidx_pivots, one.pidx_pivots);
  EXPECT_GT(one.sidx_pivots.size(), 0u);
  EXPECT_EQ(four.sidx_pivots, one.sidx_pivots);
  // Query results: scans, point gets, secondary range.
  EXPECT_EQ(one.scan.size(), 101u);
  EXPECT_EQ(four.scan, one.scan);
  EXPECT_EQ(four.gets, one.gets);
  EXPECT_GT(one.sidx_rows.size(), 0u);
  EXPECT_EQ(four.sidx_rows, one.sidx_rows);
}

TEST(CompactPipelineTest, MoreCoresCompactStrictlyFaster) {
  Outcome one = RunWorkload(1, kKeys);
  Outcome four = RunWorkload(4, kKeys);
  ASSERT_TRUE(one.ok && four.ok);
  // Phase-1 run generation fans out across cores; with a serial device
  // everything in the pipeline degrades to sequential execution.
  EXPECT_LT(four.compact_ticks, one.compact_ticks);
}

// Exact simulated cost of the write path on a fixed input: one fused
// compaction (PIDX + one SIDX), then one delta fold over a tenth of the
// keys. The simulation is deterministic, so every figure is pinned
// exactly; a change that moves one changes the modelled cost of
// compaction and must say why.
struct WritePathCost {
  bool ok = false;
  Tick end = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  std::size_t pidx_blocks = 0;
  std::size_t sidx_blocks = 0;
  std::uint64_t pidx_retained = 0;
  std::uint64_t pidx_rebuilt = 0;
};

sim::Task<void> WritePathWorkload(Fixture* f, WritePathCost* out) {
  auto created = co_await f->db.CreateKeyspace("pinned");
  KVCSD_CO_ASSERT_OK(created);
  auto ks = std::move(*created);
  constexpr std::uint64_t kPinKeys = 3000;
  auto writer = ks.NewBulkWriter();
  for (std::uint64_t i = 0; i < kPinKeys; ++i) {
    const std::uint64_t id = (i * 701) % kPinKeys;
    KVCSD_CO_ASSERT_OK(co_await writer.Add(MakeFixedKey(id), EnergyValue(id)));
  }
  KVCSD_CO_ASSERT_OK(co_await writer.Flush());
  nvme::SecondaryIndexSpec energy;
  energy.name = "energy";
  energy.value_offset = 28;
  energy.value_length = 4;
  energy.type = nvme::SecondaryKeyType::kF32;
  std::vector<nvme::SecondaryIndexSpec> specs;
  specs.push_back(std::move(energy));
  KVCSD_CO_ASSERT_OK(co_await ks.CompactWithIndexes(std::move(specs)));
  KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

  // The delta touches the first fifth of the key range only, so the fold
  // both rebuilds and retains PIDX blocks: overwrites with new energies,
  // deletes, and keys new to the run.
  for (std::uint64_t id = 0; id < kPinKeys / 5; id += 7) {
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(id), EnergyValue(id + 1)));
  }
  for (std::uint64_t id = 3; id < kPinKeys / 5; id += 11) {
    KVCSD_CO_ASSERT_OK(co_await ks.Delete(MakeFixedKey(id)));
  }
  for (std::uint64_t id = kPinKeys; id < kPinKeys + 40; ++id) {
    KVCSD_CO_ASSERT_OK(co_await ks.Put(MakeFixedKey(id), EnergyValue(id)));
  }
  KVCSD_CO_ASSERT_OK(co_await ks.Compact());
  KVCSD_CO_ASSERT_OK(co_await ks.WaitCompaction());

  out->end = f->sim.Now();
  out->bytes_written = f->dev.compaction_stats().bytes_written;
  out->bytes_read = f->dev.compaction_stats().bytes_read;
  auto found = f->dev.keyspaces().Find("pinned");
  KVCSD_CO_ASSERT_OK(found);
  out->pidx_blocks = (*found)->pidx_sketch.size();
  out->sidx_blocks = (*found)->secondary_indexes.at("energy").sketch.size();
  out->pidx_retained =
      f->sim.stats().counter_value("device.recompact.pidx_blocks_retained");
  out->pidx_rebuilt =
      f->sim.stats().counter_value("device.recompact.pidx_blocks_rebuilt");
  out->ok = true;
}

TEST(CompactPipelineTest, WritePathSimulatedCostIsPinned) {
  Fixture f(4);
  WritePathCost cost;
  testutil::RunSim(f.sim, WritePathWorkload(&f, &cost));
  ASSERT_TRUE(cost.ok);
  EXPECT_EQ(cost.end, 75877279u);
  EXPECT_EQ(cost.bytes_written, 570465u);
  EXPECT_EQ(cost.bytes_read, 477614u);
  EXPECT_EQ(cost.pidx_blocks, 20u);
  EXPECT_EQ(cost.sidx_blocks, 23u);
  EXPECT_EQ(cost.pidx_retained, 15u);
  EXPECT_EQ(cost.pidx_rebuilt, 5u);
}

}  // namespace
}  // namespace kvcsd::device
