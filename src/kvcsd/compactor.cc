// Deferred compaction and secondary-index construction (paper §V).
//
// Compaction sorts a keyspace in two steps, exactly as the paper
// describes: (1) sort the keys — an external merge sort whose run size is
// bounded by SoC DRAM, with intermediate runs stored in temporarily
// allocated TEMP zone clusters; (2) use the sorted keys to sort the values
// — a DRAM-batched external permutation that gathers values with
// address-coalesced reads and streams them out in key order. The result is
// the SORTED_VALUES + PIDX clusters and an in-memory pivot sketch (one
// entry per 4 KB PIDX block) kept in the keyspace table.
//
// Both steps are pipelined across the SoC cores (DESIGN.md §7):
//
//  * Phase 1 fans run generation out over the KLOG zones with
//    sim::ParallelFor — each worker streams its zone in bounded chunks,
//    sorts, and spills independently. The sort budget is split into a
//    FIXED number of shares (kRunGenShares), not `soc_cores`, so the run
//    layout — and therefore the merged output — is identical no matter
//    how many cores execute the fan-out; core count changes timing only.
//  * Phase 2 merges the runs through a loser tree over double-buffered
//    TEMP readers (merge.h) and hands each gathered value batch to a
//    concurrent index-build stage over a bounded channel, so PIDX
//    building + fused extraction of batch N overlap the value gather and
//    sorted-value writes of batch N+1.
//
// Secondary indexes are built either separately (the paper's implemented
// design: a full scan of the compacted keyspace, extract, external sort)
// or fused into the compaction pass (the paper's §V future-work variant:
// keys are extracted while the values are already in DRAM during phase 2,
// skipping the re-read at the cost of extra DRAM pressure). Fused per-spec
// merges run concurrently in a TaskGroup.
#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "common/bloom.h"
#include "kvcsd/device.h"
#include "kvcsd/klog_stream.h"
#include "kvcsd/merge.h"
#include "kvcsd/run_writer.h"
#include "kvcsd/wire.h"
#include "nvme/skey.h"
#include "sim/fault.h"
#include "sim/parallel.h"
#include "sim/tracer.h"

namespace kvcsd::device {

namespace {

// The phase-1 sort budget divides into this many fixed shares; each
// concurrent run-generation worker owns one share, and the worker count
// is min(soc_cores, kRunGenShares) so at most `run_budget` bytes of
// run-building state exist at once. A fixed divisor (rather than
// `soc_cores`) keeps the run layout independent of the core count.
constexpr std::uint64_t kRunGenShares = 4;

}  // namespace

// ---------------------------------------------------------------------------
// Phase 1: parallel run generation
// ---------------------------------------------------------------------------

sim::Task<Status> Device::GenerateZoneRuns(std::uint32_t zone,
                                           KlogSorter* out) {
  // One track per worker share keeps concurrent run-gen spans on separate
  // viewer rows (zone index mod the share count matches the fan-out width).
  sim::TraceSpan span(sim_,
                      config_.stats_prefix + "compact.gen." +
                          std::to_string(zone % kRunGenShares),
                      "run_gen");
  span.Arg("zone", static_cast<std::uint64_t>(zone));
  KlogZoneStream stream(&ssd_, zone, config_.output_batch_bytes,
                        &compaction_stats_.bytes_read,
                        sim::Activity::kCompact);
  std::vector<KlogEntry> parsed;
  for (;;) {
    parsed.clear();
    auto more = co_await stream.NextBatch(&parsed);
    if (!more.ok()) co_return more.status();
    if (!*more) break;
    for (KlogEntry& e : parsed) {
      if (out->Add(std::move(e))) {
        KVCSD_CO_RETURN_IF_ERROR(co_await out->Spill());
      }
    }
  }
  co_return co_await out->Spill();
}

// ---------------------------------------------------------------------------
// SIDX merge into blocks (shared by the separate and fused index builds)
// ---------------------------------------------------------------------------

sim::Task<Status> Device::SidxMergeToBlocks(
    SidxSorter* sorter, const nvme::SecondaryIndexSpec& spec,
    SecondaryIndex* out) {
  KVCSD_CO_RETURN_IF_ERROR(co_await sorter->Spill());

  compaction_stats_.max_merge_fanin = std::max<std::uint64_t>(
      compaction_stats_.max_merge_fanin, sorter->runs().size());
  RunMerger<SidxMergeTraits> merger(sim_, &ssd_);
  KVCSD_CO_RETURN_IF_ERROR(
      co_await merger.Init(sorter->runs(), &compaction_stats_.bytes_read));

  out->spec = spec;
  IndexBlockWriter blocks(sorter->job(), &out->sidx_clusters, ZoneType::kSidx,
                          &out->sketch);
  std::uint64_t merged = 0;
  while (!merger.Empty()) {
    SidxTuple t;
    KVCSD_CO_RETURN_IF_ERROR(co_await merger.Pop(&t));

    merged += SidxMergeTraits::SortBytes(t);
    if (merged >= MiB(1)) {
      co_await cpu_.ComputeBytes(merged, config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
      merged = 0;
    }
    if (blocks.AddSidx(t)) KVCSD_CO_RETURN_IF_ERROR(co_await blocks.Flush());
    ++out->entries;
  }
  if (merged > 0) {
    co_await cpu_.ComputeBytes(merged, config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await blocks.Finish());

  co_await ReleaseClustersBestEffort(std::move(sorter->temp_clusters()));
  sorter->temp_clusters().clear();
  sorter->runs().clear();
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// Phase 2: merge + value permutation, pipelined with index building
// ---------------------------------------------------------------------------

// One unit of hand-off between the gather/write stage and the index-build
// stage: a run of merged entries with their gathered values and the
// addresses the values were rewritten to.
struct Device::ValueBatch {
  std::vector<KlogEntry> entries;
  std::vector<std::string> values;
  std::vector<std::uint64_t> new_addrs;
  std::uint64_t value_bytes = 0;
};

struct Device::PidxPipeline {
  const RunJob* job = nullptr;
  sim::BoundedChannel<std::unique_ptr<ValueBatch>>* channel = nullptr;
  const std::vector<nvme::SecondaryIndexSpec>* specs = nullptr;
  std::vector<SidxSorter>* sidx_sorters = nullptr;
  // When non-null, every merged key is also added to the keyspace's bloom
  // filter here — the one moment all primary keys stream through DRAM in
  // order, so the filter build costs no extra I/O (DESIGN.md §10).
  BloomFilterBuilder* bloom = nullptr;
  std::vector<SketchEntry> sketch;
  std::vector<ClusterId> pidx_clusters;
  std::uint64_t entries_total = 0;
  // Set when the consumer fails; the producer stops feeding new batches.
  bool failed = false;
};

sim::Task<Status> Device::IndexBuildStage(PidxPipeline* pipe) {
  IndexBlockWriter pidx(*pipe->job, &pipe->pidx_clusters, ZoneType::kPidx,
                        &pipe->sketch);

  auto process = [&](ValueBatch& b) -> sim::Task<Status> {
    // Fused secondary-key extraction touches every value byte while the
    // batch sits in DRAM anyway (no keyspace re-read).
    if (!pipe->specs->empty()) {
      co_await cpu_.ComputeBytes(b.value_bytes,
                                 config_.costs.extract_bytes_per_sec, sim::Activity::kCompact);
    }
    std::uint64_t bloom_key_bytes = 0;
    for (std::size_t i = 0; i < b.entries.size(); ++i) {
      const KlogEntry& e = b.entries[i];
      if (pidx.AddPidx(e.key, b.new_addrs[i], e.value_len)) {
        KVCSD_CO_RETURN_IF_ERROR(co_await pidx.Flush());
      }
      if (pipe->bloom != nullptr) {
        pipe->bloom->AddKey(Slice(e.key));
        bloom_key_bytes += e.key.size();
      }

      for (std::size_t spec_index = 0; spec_index < pipe->specs->size();
           ++spec_index) {
        auto skey = nvme::ExtractSecondaryKey(Slice(b.values[i]),
                                              (*pipe->specs)[spec_index]);
        if (!skey.ok()) co_return skey.status();
        SidxSorter& sorter = (*pipe->sidx_sorters)[spec_index];
        if (sorter.Add(SidxTuple{std::move(*skey), e.key, b.new_addrs[i],
                                 e.value_len})) {
          KVCSD_CO_RETURN_IF_ERROR(co_await sorter.Spill());
        }
      }
    }
    pipe->entries_total += b.entries.size();
    if (pipe->bloom != nullptr && bloom_key_bytes > 0) {
      // Hashing each key into the filter costs about one checksum pass.
      co_await cpu_.ComputeBytes(bloom_key_bytes,
                                 config_.costs.checksum_bytes_per_sec, sim::Activity::kCompact);
    }
    co_return Status::Ok();
  };

  Status result = Status::Ok();
  for (;;) {
    auto item = co_await pipe->channel->Pop();
    if (!item.has_value()) break;
    if (!result.ok()) continue;  // drain so a blocked producer always wakes
    Status s = co_await process(**item);
    if (!s.ok()) {
      result = s;
      pipe->failed = true;
    }
  }
  if (result.ok()) result = co_await pidx.Finish();
  if (!result.ok()) pipe->failed = true;
  co_return result;
}

// ---------------------------------------------------------------------------
// Compaction (optionally fused with secondary-index construction)
// ---------------------------------------------------------------------------

// The completion event fires on every exit path — a waiter must never
// hang on a failed compaction.
sim::Task<Status> Device::CompactKeyspace(
    Keyspace* ks, std::vector<nvme::SecondaryIndexSpec> fused_specs,
    std::uint64_t trigger_cmd_id) {
  const bool fold = ks->state == KeyspaceState::kRecompacting;
  sim::TraceSpan span(sim_, trk_compaction_, fold ? "recompact" : "compact");
  span.Arg("keyspace", ks->name);
  if (fold) {
    span.Arg("delta_keys", static_cast<std::uint64_t>(ks->delta_index.size()));
  } else {
    span.Arg("fused_indexes", static_cast<std::uint64_t>(fused_specs.size()));
  }
  if (trigger_cmd_id != 0) {
    span.Arg("trigger_cmd_id", trigger_cmd_id);
    if (sim_->tracer().enabled()) {
      // Closes the flow opened by the kCompact command's exec span: the
      // viewer draws client submit -> device exec -> this compaction.
      sim_->tracer().FlowEnd(sim_->tracer().Track(trk_compaction_), "compact",
                             trigger_cmd_id, sim_->Now());
    }
  }
  ++compactions_running_;
  std::vector<ClusterId> scratch;
  Status result;
  if (fold) {
    result = co_await RunRecompaction(ks, &scratch);
  } else {
    result = co_await RunCompaction(ks, std::move(fused_specs), &scratch);
  }
  --compactions_running_;
  if (!result.ok()) {
    stats()
        .counter(fold ? "device.recompact.failed" : "device.compact.failed")
        .Increment();
    co_await ReleaseClustersBestEffort(std::move(scratch));
    if (ks->state == KeyspaceState::kCompacting) {
      ks->state = ks->klog_clusters.empty() ? KeyspaceState::kEmpty
                                            : KeyspaceState::kWritable;
    } else if (ks->state == KeyspaceState::kRecompacting) {
      ks->state = KeyspaceState::kCompacted;  // the delta stays pending
    }
    if (faults_ == nullptr || !faults_->crashed()) {
      // Make the rollback durable so a later crash cannot resurrect the
      // (RE)COMPACTING state. Best-effort: the snapshot still on flash
      // also rolls back correctly at recovery.
      (void)co_await keyspace_manager_.Persist();
    }
  }
  ks->last_compaction = result;
  CompactionDone(ks->id)->Set();
  co_await MaybeFinishPendingDelete(ks);
  co_return result;
}

sim::Task<Status> Device::CommitRun(Keyspace* ks, Keyspace* next,
                                    std::vector<ClusterId>* scratch) {
  const KeyspaceState job = ks->state;
  const bool fold = job == KeyspaceState::kRecompacting;
  if (CrashPoint(fold ? "recompact.before_commit" : "compact.before_commit")) {
    co_return Status::IoError(
        fold ? "simulated power loss before recompact commit"
             : "simulated power loss before commit");
  }
  auto swap = [ks, next] {
    auto committed = ks->RunFields();
    auto staged = next->RunFields();
    committed.swap(staged);
  };
  swap();
  ks->state = KeyspaceState::kCompacted;
  Status commit = co_await keyspace_manager_.Persist();
  if (!commit.ok()) {
    swap();
    ks->state = job;  // the shell rolls back
    co_return commit;
  }
  ++compactions_done_;
  scratch->clear();
  // Cached index blocks of this keyspace may predate the new layout (a
  // fold rebuilds blocks; a compaction may follow a rollback); drop them
  // so queries can never read a stale block through the cache.
  index_cache_.EraseKeyspace(ks->id);
  co_return Status::Ok();
}

sim::Task<Status> Device::RunCompaction(
    Keyspace* ks, std::vector<nvme::SecondaryIndexSpec> fused_specs,
    std::vector<ClusterId>* scratch) {
  // Compaction must observe complete KLOG/VLOG logs.
  KVCSD_CO_RETURN_IF_ERROR(co_await FlushAndDrain(ks));

  // Make the COMPACTING state and the final log extents durable before
  // any output is written: recovery must know to roll this keyspace back
  // and which clusters hold its logs.
  KVCSD_CO_RETURN_IF_ERROR(co_await keyspace_manager_.Persist());

  // The DRAM budget splits between the key sort and any fused index sorts
  // (the paper's stated cost of consolidating index construction).
  const std::uint64_t budget_shares = 1 + fused_specs.size();
  const std::uint64_t run_budget =
      config_.EffectiveSortRunBytes() / budget_shares;

  // Every cluster the job writes joins `scratch` as it is allocated.
  const RunJob job{this, sim::Activity::kCompact, scratch};
  std::vector<SidxSorter> fused_sorters(fused_specs.size(),
                                        SidxSorter(job, run_budget));

  // ---- Phase 1: parallel run generation over the KLOG zones ----
  const Tick phase1_start = sim_->Now();
  std::vector<std::uint32_t> klog_zones;
  for (ClusterId cluster : ks->klog_clusters) {
    for (std::uint32_t zone : zone_manager_.cluster_zones(cluster)) {
      klog_zones.push_back(zone);
    }
  }

  const std::uint64_t gen_budget =
      std::max<std::uint64_t>(run_budget / kRunGenShares, KiB(4));
  const std::uint32_t gen_workers = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(std::max<std::uint32_t>(config_.soc_cores, 1),
                              kRunGenShares));

  std::vector<KlogSorter> gen(klog_zones.size(), KlogSorter(job, gen_budget));
  auto gen_fn = [&](std::size_t i) -> sim::Task<Status> {
    return GenerateZoneRuns(klog_zones[i], &gen[i]);
  };
  const Status gen_status =
      co_await sim::ParallelFor(sim_, klog_zones.size(), gen_workers, gen_fn);

  // Concatenate in zone order — NOT completion order — so run indexes
  // (the merge tie-break) are reproducible across core counts.
  std::vector<SpilledRun> runs;
  std::vector<ClusterId> temp_clusters;
  for (KlogSorter& zone_runs : gen) {
    for (SpilledRun& run : zone_runs.runs()) runs.push_back(std::move(run));
    temp_clusters.insert(temp_clusters.end(),
                         zone_runs.temp_clusters().begin(),
                         zone_runs.temp_clusters().end());
  }
  KVCSD_CO_RETURN_IF_ERROR(gen_status);
  if (CrashPoint("compact.after_phase1")) {
    co_return Status::IoError("simulated power loss after run generation");
  }
  // Closes a phase: summed ticks, latency histogram and trace span.
  auto end_phase = [&](Tick start, Tick* ticks, const char* histogram,
                       const char* span_name, const char* runs_arg) {
    *ticks += sim_->Now() - start;
    stats().histogram(histogram).Record(sim_->Now() - start);
    if (sim_->tracer().enabled()) {
      sim_->tracer().CompleteSpan(
          sim_->tracer().Track(trk_compaction_), span_name, start, sim_->Now(),
          {{"keyspace", ks->name}, {runs_arg, std::to_string(runs.size())}});
    }
  };
  end_phase(phase1_start, &compaction_stats_.phase1_ticks,
            "device.compact.phase1_ns", "phase1.run_gen", "runs");

  // ---- Phase 2: loser-tree merge feeding the index-build stage ----
  const Tick phase2_start = sim_->Now();
  compaction_stats_.max_merge_fanin =
      std::max<std::uint64_t>(compaction_stats_.max_merge_fanin, runs.size());

  RunMerger<KlogMergeTraits> merger(sim_, &ssd_);
  KVCSD_CO_RETURN_IF_ERROR(
      co_await merger.Init(runs, &compaction_stats_.bytes_read));

  std::vector<ClusterId> value_clusters;
  sim::BoundedChannel<std::unique_ptr<ValueBatch>> batches(sim_, 1);
  std::optional<BloomFilterBuilder> bloom;
  if (config_.bloom_bits_per_key > 0) {
    bloom.emplace(static_cast<int>(config_.bloom_bits_per_key));
  }
  PidxPipeline pipe;
  pipe.job = &job;
  pipe.channel = &batches;
  pipe.specs = &fused_specs;
  pipe.sidx_sorters = &fused_sorters;
  pipe.bloom = bloom.has_value() ? &*bloom : nullptr;
  sim::TaskGroup index_stage(sim_);
  index_stage.Spawn(IndexBuildStage(&pipe));

  // Up to three batches can be DRAM-resident at once (one being built,
  // one queued, one being indexed), so each takes a third of the budget.
  const std::uint64_t batch_budget = std::max<std::uint64_t>(
      config_.dram_bytes / 4 / budget_shares / 3, KiB(64));

  // Gathers the batch's values, rewrites them in key order (recording the
  // new addresses), and hands the batch to the index-build stage.
  auto emit_batch = [&](std::unique_ptr<ValueBatch> b) -> sim::Task<Status> {
    if (b->entries.empty()) co_return Status::Ok();
    std::vector<ValueRef> refs;
    refs.reserve(b->entries.size());
    for (const KlogEntry& e : b->entries) {
      refs.push_back(ValueRef{e.value_addr, e.value_len});
    }
    auto values = co_await GatherValues(std::move(refs), sim::Activity::kCompact);
    if (!values.ok()) co_return values.status();
    compaction_stats_.bytes_read += b->value_bytes;
    co_await cpu_.ComputeBytes(b->value_bytes,
                               config_.costs.memcpy_bytes_per_sec, sim::Activity::kCompact);
    b->values = std::move(*values);

    ChunkWriter out(job, &value_clusters, ZoneType::kSortedValues,
                    /*record_addrs=*/true);
    for (const std::string& value : b->values) {
      if (out.AddValue(value)) KVCSD_CO_RETURN_IF_ERROR(co_await out.Flush());
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await out.Finish());
    b->new_addrs = out.record_addrs();

    co_await batches.Push(std::move(b));
    co_return Status::Ok();
  };

  Status pipeline_status = Status::Ok();
  {
    auto batch = std::make_unique<ValueBatch>();
    std::uint64_t merged_bytes = 0;
    // Last-writer-wins: the merge yields every version of a key
    // adjacently in ascending mutation-seq order (KlogMergeTraits), so
    // only the final entry of an equal-key group is live. `pending` holds
    // the group's newest version so far; it is admitted when the key
    // changes — unless it is a tombstone, which simply vanishes along
    // with every older version it shadowed.
    std::optional<KlogEntry> pending;
    // Adds a live entry; true when the batch reached its budget and must
    // be emitted. Synchronous for the same reason as RunMerger::Pop: an
    // awaited call per entry nests a stack frame per entry when it
    // completes without suspending.
    auto admit = [&](KlogEntry&& entry) {
      batch->value_bytes += entry.value_len;
      batch->entries.push_back(std::move(entry));
      return batch->value_bytes >= batch_budget;
    };
    // Hands the full batch on and starts the next one.
    auto emit_full = [&]() -> sim::Task<Status> {
      Status emitted = co_await emit_batch(std::move(batch));
      batch = std::make_unique<ValueBatch>();
      co_return emitted;
    };
    while (!merger.Empty() && !pipe.failed) {
      KlogEntry entry;
      Status s = co_await merger.Pop(&entry);
      if (!s.ok()) {
        pipeline_status = s;
        break;
      }
      merged_bytes += KlogMergeTraits::SortBytes(entry);
      if (merged_bytes >= MiB(1)) {
        co_await cpu_.ComputeBytes(merged_bytes,
                                   config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
        merged_bytes = 0;
      }
      if (pending.has_value() && pending->key != entry.key &&
          !pending->tombstone && admit(std::move(*pending))) {
        pipeline_status = co_await emit_full();
        if (!pipeline_status.ok()) break;
      }
      pending = std::move(entry);
    }
    if (pipeline_status.ok() && !pipe.failed) {
      if (pending.has_value() && !pending->tombstone &&
          admit(std::move(*pending))) {
        pipeline_status = co_await emit_full();
      }
      if (merged_bytes > 0) {
        co_await cpu_.ComputeBytes(merged_bytes,
                                   config_.costs.merge_bytes_per_sec, sim::Activity::kCompact);
      }
      if (pipeline_status.ok()) {
        pipeline_status = co_await emit_batch(std::move(batch));
      }
    }
  }
  // Always close + join: the consumer must see end-of-stream even on the
  // error paths, or one side would wait forever.
  batches.Close();
  Status index_status = co_await index_stage.Wait();
  KVCSD_CO_RETURN_IF_ERROR(pipeline_status);
  KVCSD_CO_RETURN_IF_ERROR(index_status);

  // ---- Fused secondary indexes: concurrent per-spec merges ----
  std::map<std::string, SecondaryIndex> fused_indexes;
  if (!fused_specs.empty()) {
    std::vector<SecondaryIndex> fused_out(fused_specs.size());
    sim::TaskGroup merges(sim_);
    for (std::size_t i = 0; i < fused_specs.size(); ++i) {
      merges.Spawn(
          SidxMergeToBlocks(&fused_sorters[i], fused_specs[i], &fused_out[i]));
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await merges.Wait());
    for (std::size_t i = 0; i < fused_specs.size(); ++i) {
      fused_indexes[fused_specs[i].name] = std::move(fused_out[i]);
    }
  }
  end_phase(phase2_start, &compaction_stats_.phase2_ticks,
            "device.compact.phase2_ns", "phase2.merge_index", "fanin");

  // ---- Commit ----
  // Phase-1 temporaries are dead weight either way; drop them first.
  co_await ReleaseClustersBestEffort(std::move(temp_clusters));

  // The run replaces the logs. After the LWW pass, entries_total is the
  // exact count of distinct live keys (duplicates collapsed, tombstone
  // winners dropped). The bloom filter rides the same snapshot as the
  // sketch, so recovery restores both or neither; empty when disabled.
  Keyspace next;  // only its run fields are committed
  next.pidx_clusters = std::move(pipe.pidx_clusters);
  next.sorted_value_clusters = std::move(value_clusters);
  next.pidx_sketch = std::move(pipe.sketch);
  next.pidx_bloom = bloom.has_value() ? bloom->Finish() : std::string();
  next.secondary_indexes = std::move(fused_indexes);
  next.num_kvs = pipe.entries_total;
  next.run_entries = pipe.entries_total;
  KVCSD_CO_RETURN_IF_ERROR(co_await CommitRun(ks, &next, scratch));

  // Past the commit point the compaction HAS happened; a crash here loses
  // nothing (recovery reclaims the old logs as unreferenced clusters) and
  // the release below is best-effort for the same reason.
  (void)CrashPoint("compact.after_commit");
  co_await ReleaseClustersBestEffort(std::move(next.klog_clusters));
  co_await ReleaseClustersBestEffort(std::move(next.vlog_clusters));
  co_return Status::Ok();
}

// ---------------------------------------------------------------------------
// Separate secondary-index construction (the paper's implemented design)
// ---------------------------------------------------------------------------

sim::Task<Status> Device::BuildSecondaryIndex(
    Keyspace* ks, const nvme::SecondaryIndexSpec& spec) {
  if (ks->state != KeyspaceState::kCompacted) {
    co_return Status::FailedPrecondition(
        "secondary indexes attach to COMPACTED keyspaces only");
  }
  if (spec.name.empty()) {
    co_return Status::InvalidArgument("secondary index needs a name");
  }
  if (ks->secondary_indexes.contains(spec.name)) {
    co_return Status::AlreadyExists("secondary index exists: " + spec.name);
  }

  // Every cluster the build writes joins `scratch`, released on failure.
  std::vector<ClusterId> scratch;
  SidxSorter sorter(RunJob{this, sim::Activity::kCompact, &scratch},
                    config_.EffectiveSortRunBytes());
  SecondaryIndex sidx;
  Status result = co_await BuildSecondaryIndexInner(ks, spec, &sorter, &sidx);
  if (result.ok()) {
    ks->secondary_indexes[spec.name] = std::move(sidx);
    result = co_await keyspace_manager_.Persist();
    if (result.ok()) co_return result;
    // Persist failed: the index exists in DRAM only; un-install so the
    // live table matches what a restart would recover.
    ks->secondary_indexes.erase(spec.name);
  }
  co_await ReleaseClustersBestEffort(std::move(scratch));
  co_return result;
}

sim::Task<Status> Device::BuildSecondaryIndexInner(
    Keyspace* ks, const nvme::SecondaryIndexSpec& spec, SidxSorter* sorter,
    SecondaryIndex* out) {
  // Step 1 (paper): full scan extracting <skey, pkey> pairs. Walk PIDX
  // blocks via the sketch; gather values batch-wise; extract.
  std::vector<ValueRef> batch_refs;
  std::vector<std::pair<std::string, std::uint64_t>> batch_meta;
  std::vector<std::uint32_t> batch_lens;
  std::uint64_t batch_bytes = 0;

  auto process_scan_batch = [&]() -> sim::Task<Status> {
    if (batch_refs.empty()) co_return Status::Ok();
    auto values = co_await GatherValues(batch_refs, sim::Activity::kCompact);
    if (!values.ok()) co_return values.status();
    co_await cpu_.ComputeBytes(batch_bytes,
                               config_.costs.extract_bytes_per_sec, sim::Activity::kCompact);
    for (std::size_t i = 0; i < values->size(); ++i) {
      auto skey = nvme::ExtractSecondaryKey(Slice((*values)[i]), spec);
      if (!skey.ok()) co_return skey.status();
      if (sorter->Add(SidxTuple{std::move(*skey), batch_meta[i].first,
                                batch_meta[i].second, batch_lens[i]})) {
        KVCSD_CO_RETURN_IF_ERROR(co_await sorter->Spill());
      }
    }
    batch_refs.clear();
    batch_meta.clear();
    batch_lens.clear();
    batch_bytes = 0;
    co_return Status::Ok();
  };

  for (const SketchEntry& block_ref : ks->pidx_sketch) {
    auto block = co_await ReadIndexBlock(ks->id, block_ref, sim::Activity::kCompact);
    if (!block.ok()) co_return block.status();
    std::vector<wire::PidxEntry> entries;
    if (!wire::DecodeIndexBlock(*block, &entries)) {
      co_return Status::Corruption("bad PIDX block during sidx scan");
    }
    for (const wire::PidxEntry& entry : entries) {
      batch_refs.push_back(ValueRef{entry.vaddr, entry.vlen});
      batch_meta.emplace_back(entry.key.ToString(), entry.vaddr);
      batch_lens.push_back(entry.vlen);
      batch_bytes += entry.vlen;
      if (batch_bytes >= config_.dram_bytes / 4) {
        KVCSD_CO_RETURN_IF_ERROR(co_await process_scan_batch());
      }
    }
  }
  KVCSD_CO_RETURN_IF_ERROR(co_await process_scan_batch());

  // Step 2: merge runs into SIDX blocks + sketch.
  co_return co_await SidxMergeToBlocks(sorter, spec, out);
}

}  // namespace kvcsd::device
