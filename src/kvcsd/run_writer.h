// The run writer, the encode stage of compaction (DESIGN.md §7): every
// flash write of compaction, the delta fold and the separate SIDX build
// goes through ChunkWriter (sorted-run spills and sorted values, batched
// into chunks of output_batch_bytes) or IndexBlockWriter (PIDX/SIDX
// entries packed into index blocks, written in batches, one sketch entry
// per block). RunSorter generates external-sort runs through a
// ChunkWriter.
//
// Filling is synchronous and writing asynchronous: Add*() returns true
// when a batch is sealed, and the caller then co_awaits Flush() before
// the next Add. A batch is therefore written exactly where it fills —
// before the record that would overflow a chunk, or right after the
// index block that reaches the batch size — and no coroutine frame is
// paid per record. Finish() writes whatever is still open.
//
// The caller owns each cluster chain (the commit installs it). Every
// cluster a writer allocates also joins its job's scratch list at once,
// so a job that fails anywhere can release all of them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "kvcsd/device.h"
#include "kvcsd/merge.h"
#include "sim/activity.h"
#include "sim/task.h"

namespace kvcsd::device {

// What a writer writes for: the device, the activity its I/O and
// compute are charged to, and the job's scratch list, which every cluster
// a writer allocates joins.
struct RunJob {
  Device* device;
  sim::Activity act;
  std::vector<ClusterId>* scratch;
};

// Appends finished batches to one cluster chain on behalf of a writer.
class RunWriterBase {
 protected:
  RunWriterBase(const RunJob& job, std::vector<ClusterId>* chain,
                ZoneType type)
      : job_(job), chain_(chain), type_(type) {}

  // Writes `blob` to the end of the chain: the per-I/O software path, the
  // append (allocating a cluster when the chain is full) and the
  // compaction byte count. Returns the blob's flash address.
  sim::Task<Result<std::uint64_t>> Write(const std::string& blob);

  const DeviceConfig& config() const { return job_.device->config(); }

  RunJob job_;
  std::vector<ClusterId>* chain_;
  ZoneType type_;
};

class ChunkWriter : RunWriterBase {
 public:
  // `record_addrs` records the flash address of every record (sorted
  // values need them; spilled runs only need their segments).
  ChunkWriter(const RunJob& job, std::vector<ClusterId>* chain,
              ZoneType type, bool record_addrs = false)
      : RunWriterBase(job, chain, type), track_(record_addrs) {}

  // Each Add seals the open chunk first when the record would overflow
  // it, and returns true when it did: co_await Flush() before the next
  // Add. Run records charge the batch a bound on their encoded size.
  bool Add(const KlogEntry& e);
  bool Add(const SidxTuple& t);
  bool AddValue(const std::string& value);

  // Writes the sealed chunk, if any.
  sim::Task<Status> Flush();
  // Seals the open chunk and writes it.
  sim::Task<Status> Finish();

  // The chunks written so far, as a sorted run (segments + record count).
  SpilledRun TakeRun() { return std::move(run_); }
  // Address of the i-th record added, once its chunk is written.
  const std::vector<std::uint64_t>& record_addrs() const { return addrs_; }

 private:
  // Seals the open chunk when `charge` more bytes would overflow the
  // batch, then starts a record at the end of the open chunk.
  bool Open(std::size_t charge);

  bool track_;
  std::string open_;
  std::string sealed_;
  std::vector<std::uint64_t> open_offsets_;
  std::vector<std::uint64_t> sealed_offsets_;
  SpilledRun run_;
  std::vector<std::uint64_t> addrs_;
};

class IndexBlockWriter : RunWriterBase {
 public:
  // Sketch entries (pivot = first key of each block) are appended to
  // *sketch as their blocks are written.
  IndexBlockWriter(const RunJob& job, std::vector<ClusterId>* chain,
                   ZoneType type, std::vector<SketchEntry>* sketch)
      : RunWriterBase(job, chain, type), sketch_(sketch) {
    wire::BeginIndexBlock(&block_);
  }

  // Each Add closes the open block first when the entry does not fit it,
  // and returns true when the closed blocks reached output_batch_bytes:
  // co_await Flush() before the next Add.
  bool AddPidx(const Slice& key, std::uint64_t vaddr, std::uint32_t vlen);
  bool AddSidx(const SidxTuple& t);

  // Writes the closed blocks, if any, and emits their sketch entries.
  sim::Task<Status> Flush();
  // Closes the open block and writes everything. The writer can then
  // start a new, independent sequence of blocks.
  sim::Task<Status> Finish();

 private:
  bool Open(std::size_t entry_size, const Slice& pivot);
  void CloseBlock();

  std::vector<SketchEntry>* sketch_;
  std::string block_;
  std::uint16_t count_ = 0;
  std::string pivot_;
  std::vector<std::pair<std::string, std::string>> closed_;  // pivot, block
};

// Run generation for an external merge sort over Traits::Entry (merge.h):
// entries buffer in DRAM up to `run_budget` bytes, then Spill() sorts
// them in Traits::Less order and writes one run to TEMP clusters.
template <typename Traits>
class RunSorter {
 public:
  using Entry = typename Traits::Entry;

  RunSorter(const RunJob& job, std::uint64_t run_budget)
      : job_(job), run_budget_(run_budget) {}

  // Buffers one entry; true when the buffer reached the run budget and
  // must Spill() before the next Add.
  bool Add(Entry e) {
    bytes_ += Traits::SortBytes(e);
    current_.push_back(std::move(e));
    return bytes_ >= run_budget_;
  }

  // Sorts the buffered entries and writes them as one run; a no-op when
  // nothing is buffered.
  sim::Task<Status> Spill() {
    if (current_.empty()) co_return Status::Ok();
    Device* device = job_.device;
    co_await device->cpu().ComputeBytes(
        bytes_, device->config().costs.merge_bytes_per_sec, job_.act);
    std::sort(current_.begin(), current_.end(),
              [](const Entry& a, const Entry& b) {
                return Traits::Less(a, b);
              });
    ChunkWriter out(job_, &temp_clusters_, ZoneType::kTemp);
    for (const Entry& e : current_) {
      if (out.Add(e)) KVCSD_CO_RETURN_IF_ERROR(co_await out.Flush());
    }
    KVCSD_CO_RETURN_IF_ERROR(co_await out.Finish());
    ++device->compaction_stats_.runs_spilled;
    runs_.push_back(out.TakeRun());
    // Freed, not just cleared: a sorter outlives its last spill by the
    // whole merge.
    current_ = std::vector<Entry>();
    bytes_ = 0;
    co_return Status::Ok();
  }

  const RunJob& job() const { return job_; }
  std::vector<SpilledRun>& runs() { return runs_; }
  std::vector<ClusterId>& temp_clusters() { return temp_clusters_; }

 private:
  RunJob job_;
  std::uint64_t run_budget_;
  std::vector<Entry> current_;
  std::uint64_t bytes_ = 0;
  std::vector<SpilledRun> runs_;
  std::vector<ClusterId> temp_clusters_;
};

}  // namespace kvcsd::device
