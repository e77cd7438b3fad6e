// Incremental re-compaction (DESIGN.md §12): folds a COMPACTED keyspace's
// delta log back into its sorted run WITHOUT re-sorting the run.
//
// The delta index (newest mutation per key, key-ordered) is small relative
// to the run, so the fold touches only what the delta keys touch:
//
//  * Values — live delta values are appended to FRESH SORTED_VALUES
//    clusters in key order; untouched run values stay where they are.
//  * PIDX — each delta key maps to exactly one covering 4 KB block
//    (pivots are unique primary keys). Only those dirty blocks are read,
//    merged two-pointer with the delta (last-writer-wins: a delta PUT
//    replaces the run entry, a tombstone removes it), and rewritten to
//    fresh PIDX clusters. Clean blocks are retained by reference: their
//    sketch entries — and therefore their old clusters — carry over.
//  * SIDX — membership of a stale tuple (pkey overwritten or deleted) is
//    only discoverable by reading each block, so the fold streams every
//    block but REWRITES only dirty regions: maximal runs of consecutive
//    blocks that lost a tuple or that a new tuple sorts into. Regions
//    (not single blocks) are the rebuild unit because secondary keys tie
//    across block boundaries; a region's span provably brackets every
//    tuple tied with the new ones, so the global (skey, pkey) order the
//    scans assert survives. Clean blocks are retained by reference.
//  * Bloom — new keys are OR-ed into the serialized filter in place
//    (BloomFilterAddKey). Deleted keys leave their bits set: that only
//    ever costs false positives, never false negatives.
//
// Commit protocol: the RECOMPACTING state is persisted before any output
// is written (recovery rolls it straight back to COMPACTED, delta intact,
// new clusters reclaimed as unreferenced); the fold then builds the mixed
// old + new sketch and commits it with one table persist. Past that point
// the delta logs and any old index cluster no retained block references
// are released. A crash anywhere leaves either the old state (delta still
// pending) or the new state (delta folded) — never a blend.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bloom.h"
#include "kvcsd/device.h"
#include "kvcsd/merge.h"
#include "kvcsd/run_writer.h"
#include "kvcsd/wire.h"
#include "nvme/skey.h"

namespace kvcsd::device {

namespace {

// One delta mutation prepared for the fold, in key order.
struct FoldItem {
  std::string key;
  bool tombstone = false;
  std::string value;           // loaded bytes (empty for a tombstone)
  std::uint64_t new_addr = 0;  // where the value was re-appended
};

}  // namespace

sim::Task<Result<std::string>> Device::LoadDeltaValue(const DeltaEntry& entry,
                                                      sim::Activity act) {
  if (entry.has_value) co_return entry.value;
  if (entry.vlen == 0) co_return std::string();
  std::vector<ValueRef> one;
  one.push_back(ValueRef{entry.vaddr, entry.vlen});
  auto values = co_await GatherValues(std::move(one), act);
  if (!values.ok()) co_return values.status();
  co_return std::move((*values)[0]);
}

sim::Task<Status> Device::RunRecompaction(Keyspace* ks,
                                          std::vector<ClusterId>* scratch) {
  const Tick fold_start = sim_->Now();
  // The fold must observe the complete delta log (and the durable log
  // extent must match what the fold consumes, for recovery's sake).
  KVCSD_CO_RETURN_IF_ERROR(co_await FlushAndDrain(ks));

  // Make RECOMPACTING and the final delta-log extents durable before any
  // output is written: recovery must know to roll this keyspace back to
  // COMPACTED and which clusters hold its (still authoritative) delta.
  KVCSD_CO_RETURN_IF_ERROR(co_await keyspace_manager_.Persist());
  if (CrashPoint("recompact.before_fold")) {
    co_return Status::IoError("simulated power loss before delta fold");
  }
  // Every cluster the fold writes joins `scratch` as it is allocated.
  const RunJob job{this, sim::Activity::kRecompact, scratch};

  // ---- Snapshot the delta (mutations are rejected kBusy from here) ----
  std::vector<FoldItem> items;
  items.reserve(ks->delta_index.size());
  {
    // Batch-load values that only survive as VLOG pointers (post-restart
    // entries); values written this power cycle ride inline.
    std::vector<ValueRef> refs;
    std::vector<std::size_t> ref_slot;
    for (const auto& [key, entry] : ks->delta_index) {
      FoldItem item;
      item.key = key;
      item.tombstone = entry.tombstone;
      if (!entry.tombstone) {
        if (entry.has_value) {
          item.value = entry.value;
        } else {
          refs.push_back(ValueRef{entry.vaddr, entry.vlen});
          ref_slot.push_back(items.size());
        }
      }
      items.push_back(std::move(item));
    }
    if (!refs.empty()) {
      auto values = co_await GatherValues(std::move(refs), sim::Activity::kRecompact);
      if (!values.ok()) co_return values.status();
      for (std::size_t i = 0; i < ref_slot.size(); ++i) {
        items[ref_slot[i]].value = std::move((*values)[i]);
      }
    }
  }

  // ---- Re-append live delta values in key order to fresh clusters ----
  std::vector<ClusterId> new_value_clusters;
  {
    ChunkWriter out(job, &new_value_clusters, ZoneType::kSortedValues,
                    /*record_addrs=*/true);
    std::uint64_t value_bytes = 0;
    for (const FoldItem& item : items) {
      if (item.tombstone) continue;
      if (out.AddValue(item.value)) {
        KVCSD_CO_RETURN_IF_ERROR(co_await out.Flush());
      }
      value_bytes += item.value.size();
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await out.Finish());
    std::size_t record = 0;
    for (FoldItem& item : items) {
      if (!item.tombstone) item.new_addr = out.record_addrs()[record++];
    }
    co_await cpu_.ComputeBytes(value_bytes,
                               config_.costs.memcpy_bytes_per_sec, sim::Activity::kRecompact);
  }

  // ---- PIDX fold: rebuild only the blocks the delta keys land in ----
  const std::vector<SketchEntry>& old_sketch = ks->pidx_sketch;
  // Delta keys per covering block, in key order. A key preceding every
  // pivot folds into block 0 (its rebuild simply grows a smaller pivot);
  // with no run at all, everything lands in one from-scratch region.
  std::vector<std::vector<const FoldItem*>> per_block(old_sketch.size());
  std::vector<const FoldItem*> orphan_items;  // run has no blocks
  for (const FoldItem& item : items) {
    if (old_sketch.empty()) {
      orphan_items.push_back(&item);
      continue;
    }
    std::size_t pos = SketchLowerBlock(old_sketch, item.key);
    if (pos >= old_sketch.size()) pos = 0;
    per_block[pos].push_back(&item);
  }

  // The folded run, built in place; only its run fields are committed.
  Keyspace next;
  std::vector<SketchEntry>& new_sketch = next.pidx_sketch;
  new_sketch.reserve(old_sketch.size());
  std::int64_t run_entries_delta = 0;
  std::uint64_t pidx_retained = 0;
  std::uint64_t pidx_rebuilt = 0;

  // Two-pointer LWW merge of one dirty block's entries with its delta
  // keys, rewritten into fresh blocks of their own.
  IndexBlockWriter pidx(job, &next.pidx_clusters, ZoneType::kPidx,
                        &new_sketch);
  auto rebuild = [&](const std::vector<wire::PidxEntry>& old_entries,
                     const std::vector<const FoldItem*>& delta)
      -> sim::Task<Status> {
    std::size_t i = 0, j = 0;
    while (i < old_entries.size() || j < delta.size()) {
      bool full = false;
      if (j >= delta.size() || (i < old_entries.size() &&
                                old_entries[i].key < Slice(delta[j]->key))) {
        const wire::PidxEntry& e = old_entries[i++];
        full = pidx.AddPidx(e.key, e.vaddr, e.vlen);
      } else {
        const FoldItem* d = delta[j++];
        const bool match =
            i < old_entries.size() && old_entries[i].key == Slice(d->key);
        if (match) ++i;
        if (d->tombstone) {
          if (match) --run_entries_delta;  // removed a run key
          continue;
        }
        if (!match) ++run_entries_delta;  // inserted a new key
        full = pidx.AddPidx(d->key, d->new_addr,
                            static_cast<std::uint32_t>(d->value.size()));
      }
      if (full) KVCSD_CO_RETURN_IF_ERROR(co_await pidx.Flush());
    }
    co_return co_await pidx.Finish();
  };

  std::uint64_t fold_bytes = 0;
  for (std::size_t pos = 0; pos < old_sketch.size(); ++pos) {
    if (per_block[pos].empty()) {
      new_sketch.push_back(old_sketch[pos]);  // retained by reference
      ++pidx_retained;
      continue;
    }
    ++pidx_rebuilt;
    auto block = co_await ReadIndexBlock(ks->id, old_sketch[pos], sim::Activity::kRecompact);
    if (!block.ok()) co_return block.status();
    compaction_stats_.bytes_read += old_sketch[pos].block_len;
    std::vector<wire::PidxEntry> old_entries;
    if (!wire::DecodeIndexBlock(*block, &old_entries)) {
      co_return Status::Corruption("bad PIDX block in fold");
    }
    for (const wire::PidxEntry& e : old_entries) {
      fold_bytes += e.key.size() + 12;
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await rebuild(old_entries, per_block[pos]));
  }
  if (!orphan_items.empty()) {
    // Empty run: the delta becomes the run.
    KVCSD_CO_RETURN_IF_ERROR(co_await rebuild({}, orphan_items));
    ++pidx_rebuilt;
  }
  if (fold_bytes > 0) {
    co_await cpu_.ComputeBytes(fold_bytes, config_.costs.merge_bytes_per_sec, sim::Activity::kRecompact);
  }

  // ---- SIDX fold: stream all blocks, rewrite only dirty regions ----
  // Every delta key's old tuple (if any) is stale: a tombstone removes
  // it, an overwrite re-points it (and may change its secondary key).
  std::uint64_t sidx_retained = 0;
  std::uint64_t sidx_rebuilt = 0;

  for (auto& [name, sidx] : ks->secondary_indexes) {
    SecondaryIndex& folded = next.secondary_indexes[name];
    folded.spec = sidx.spec;
    const std::vector<SketchEntry>& sketch = sidx.sketch;

    // New tuples from the live delta values, sorted by (skey, pkey).
    std::vector<SidxTuple> fresh;
    for (const FoldItem& item : items) {
      if (item.tombstone) continue;
      auto skey = nvme::ExtractSecondaryKey(Slice(item.value), sidx.spec);
      if (!skey.ok()) co_return skey.status();
      fresh.push_back(SidxTuple{
          std::move(*skey), item.key, item.new_addr,
          static_cast<std::uint32_t>(item.value.size())});
    }
    std::sort(fresh.begin(), fresh.end(), SidxMergeTraits::Less);

    // Pre-mark the insertion span of each fresh tuple dirty. The span
    // [a, b] brackets every block that can hold tuples tied with the
    // tuple's secondary key: blocks before `a` end strictly below it,
    // blocks after `b` start strictly above it, so rebuilding the
    // consecutive dirty run containing [a, b] preserves global order.
    std::vector<bool> dirty(sketch.size(), false);
    std::vector<std::size_t> fresh_start(fresh.size(), 0);
    for (std::size_t f = 0; f < fresh.size(); ++f) {
      if (sketch.empty()) break;
      const std::size_t a = SketchRangeStart(sketch, fresh[f].skey);
      std::size_t b = SketchLowerBlock(sketch, fresh[f].skey);
      if (b >= sketch.size() || b < a) b = a;
      fresh_start[f] = a;
      for (std::size_t p = a; p <= b; ++p) dirty[p] = true;
    }

    std::vector<SidxTuple> region;  // surviving tuples of the open region
    bool region_open = false;
    std::size_t region_start = 0;
    std::size_t fresh_cursor = 0;
    std::uint64_t removed = 0;
    IndexBlockWriter blocks(job, &folded.sidx_clusters, ZoneType::kSidx,
                            &folded.sketch);

    auto emit_region = [&](std::size_t region_end) -> sim::Task<Status> {
      // Merge the region's survivors with the fresh tuples whose
      // insertion span starts inside it, then re-pack as SIDX blocks.
      std::vector<SidxTuple> incoming;
      while (fresh_cursor < fresh.size() &&
             (sketch.empty() || (fresh_start[fresh_cursor] >= region_start &&
                                 fresh_start[fresh_cursor] <= region_end))) {
        incoming.push_back(std::move(fresh[fresh_cursor]));
        ++fresh_cursor;
      }
      if (region.empty() && incoming.empty()) co_return Status::Ok();
      std::vector<SidxTuple> merged;
      merged.reserve(region.size() + incoming.size());
      std::merge(std::make_move_iterator(region.begin()),
                 std::make_move_iterator(region.end()),
                 std::make_move_iterator(incoming.begin()),
                 std::make_move_iterator(incoming.end()),
                 std::back_inserter(merged), SidxMergeTraits::Less);
      region.clear();
      // Pack into 4 KB blocks appended to the fold's fresh clusters.
      for (const SidxTuple& t : merged) {
        if (blocks.AddSidx(t)) {
          KVCSD_CO_RETURN_IF_ERROR(co_await blocks.Flush());
        }
      }
      co_return co_await blocks.Finish();
    };

    for (std::size_t pos = 0; pos < sketch.size(); ++pos) {
      auto block = co_await ReadIndexBlock(ks->id, sketch[pos], sim::Activity::kRecompact);
      if (!block.ok()) co_return block.status();
      compaction_stats_.bytes_read += sketch[pos].block_len;
      std::vector<wire::SidxEntry> entries;
      if (!wire::DecodeIndexBlock(*block, &entries)) {
        co_return Status::Corruption("bad SIDX block in fold");
      }
      std::vector<SidxTuple> survivors;
      survivors.reserve(entries.size());
      bool lost_tuple = false;
      for (const wire::SidxEntry& entry : entries) {
        if (ks->delta_index.contains(entry.pkey.ToString())) {
          lost_tuple = true;
          ++removed;
          continue;
        }
        survivors.push_back(SidxTuple{entry.skey.ToString(),
                                      entry.pkey.ToString(), entry.vaddr,
                                      entry.vlen});
      }
      if (dirty[pos] || lost_tuple) {
        // Dirty: survivors join the open region (opening one if needed).
        if (!region_open) {
          region_open = true;
          region_start = pos;
        }
        region.insert(region.end(),
                      std::make_move_iterator(survivors.begin()),
                      std::make_move_iterator(survivors.end()));
        ++sidx_rebuilt;
      } else {
        if (region_open) {
          KVCSD_CO_RETURN_IF_ERROR(co_await emit_region(pos - 1));
          region_open = false;
        }
        folded.sketch.push_back(sketch[pos]);  // retained by reference
        ++sidx_retained;
      }
    }
    if (region_open) {
      KVCSD_CO_RETURN_IF_ERROR(co_await emit_region(
          sketch.empty() ? 0 : sketch.size() - 1));
    }
    if (fresh_cursor < fresh.size()) {
      // Remaining fresh tuples (empty index, or a tail span): one final
      // from-scratch region.
      region_start = sketch.size();
      KVCSD_CO_RETURN_IF_ERROR(
          co_await emit_region(sketch.empty() ? 0 : sketch.size() - 1));
      ++sidx_rebuilt;
    }
    folded.entries = sidx.entries - removed + fresh.size();
  }

  // ---- Bloom: fold the new keys into the serialized filter in place ----
  std::string new_bloom = ks->pidx_bloom;
  if (!new_bloom.empty()) {
    std::uint64_t bloom_key_bytes = 0;
    for (const FoldItem& item : items) {
      if (item.tombstone) continue;
      BloomFilterAddKey(&new_bloom, Slice(item.key));
      bloom_key_bytes += item.key.size();
    }
    if (bloom_key_bytes > 0) {
      co_await cpu_.ComputeBytes(bloom_key_bytes,
                                 config_.costs.checksum_bytes_per_sec, sim::Activity::kRecompact);
    }
  }

  // ---- Commit ----
  // Drain in-flight readers first: new queries block in AwaitQueryable
  // while the state is RECOMPACTING, and the commit below swaps clusters
  // and sketches that a still-running scan may be dereferencing.
  while (ks->active_readers > 0) {
    sim::Event* idle = ReadersIdle(ks->id);
    idle->Reset();
    if (ks->active_readers == 0) break;
    co_await idle->Wait();
  }

  // Each old index chain splits into clusters a retained block still
  // references, which lead the new chain as they led the old one, and
  // dead ones, released past the commit point. A cluster is referenced
  // iff one of its zones holds a retained block; new-cluster zones can
  // never alias old ones.
  const std::uint64_t zone_size = ssd_.zone_size();
  std::vector<ClusterId> dead;
  auto keep_referenced = [&](const std::vector<ClusterId>& old_chain,
                             const std::vector<SketchEntry>& sketch,
                             std::vector<ClusterId>* chain) {
    std::set<std::uint64_t> zones;
    for (const SketchEntry& e : sketch) zones.insert(e.block_addr / zone_size);
    std::vector<ClusterId> live;
    for (ClusterId id : old_chain) {
      bool referenced = false;
      for (std::uint32_t z : zone_manager_.cluster_zones(id)) {
        if (zones.contains(z)) {
          referenced = true;
          break;
        }
      }
      (referenced ? live : dead).push_back(id);
    }
    chain->insert(chain->begin(), live.begin(), live.end());
  };
  keep_referenced(ks->pidx_clusters, next.pidx_sketch, &next.pidx_clusters);
  for (const auto& [name, sidx] : ks->secondary_indexes) {
    SecondaryIndex& folded = next.secondary_indexes[name];
    keep_referenced(sidx.sidx_clusters, folded.sketch, &folded.sidx_clusters);
  }
  // The delta logs are consumed. The old sorted-value clusters all stay:
  // retained and rebuilt blocks alike still point at unchanged run values.
  next.sorted_value_clusters = ks->sorted_value_clusters;
  next.sorted_value_clusters.insert(next.sorted_value_clusters.end(),
                                    new_value_clusters.begin(),
                                    new_value_clusters.end());
  next.pidx_bloom = std::move(new_bloom);
  next.run_entries = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(ks->run_entries) + run_entries_delta);
  next.num_kvs = next.run_entries;
  KVCSD_CO_RETURN_IF_ERROR(co_await CommitRun(ks, &next, scratch));

  stats().counter("device.recompact.done").Increment();
  stats().counter("device.recompact.delta_keys").Add(items.size());
  stats().counter("device.recompact.pidx_blocks_retained").Add(pidx_retained);
  stats().counter("device.recompact.pidx_blocks_rebuilt").Add(pidx_rebuilt);
  stats()
      .counter("device.recompact.sidx_blocks_retained")
      .Add(sidx_retained);
  stats()
      .counter("device.recompact.sidx_blocks_rebuilt")
      .Add(sidx_rebuilt);
  stats().histogram("device.recompact.fold_ns").Record(sim_->Now() -
                                                       fold_start);

  // Past the commit point the fold HAS happened; the delta logs and any
  // old index cluster with no retained block are garbage (a crash here
  // leaks them to recovery's unreferenced-cluster sweep).
  (void)CrashPoint("recompact.after_commit");
  co_await ReleaseClustersBestEffort(std::move(next.klog_clusters));
  co_await ReleaseClustersBestEffort(std::move(next.vlog_clusters));
  co_await ReleaseClustersBestEffort(std::move(dead));
  co_return Status::Ok();
}

}  // namespace kvcsd::device
