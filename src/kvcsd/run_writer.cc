#include "kvcsd/run_writer.h"

#include <cassert>
#include <span>

#include "kvcsd/wire.h"

namespace kvcsd::device {

sim::Task<Result<std::uint64_t>> RunWriterBase::Write(const std::string& blob) {
  Device* device = job_.device;
  co_await device->cpu_.Compute(config().costs.io_path_overhead, job_.act);
  const std::size_t clusters = chain_->size();
  auto addr = co_await device->AppendToChain(
      chain_, type_, std::as_bytes(std::span(blob.data(), blob.size())),
      job_.act);
  if (chain_->size() > clusters) {
    job_.scratch->push_back(chain_->back());
  }
  if (addr.ok()) device->compaction_stats_.bytes_written += blob.size();
  co_return addr;
}

// ---------------------------------------------------------------------------
// ChunkWriter
// ---------------------------------------------------------------------------

bool ChunkWriter::Open(std::size_t charge) {
  assert(sealed_.empty() && "Flush() the sealed chunk before the next Add");
  bool sealed = false;
  if (!open_.empty() && open_.size() + charge > config().output_batch_bytes) {
    std::swap(open_, sealed_);
    std::swap(open_offsets_, sealed_offsets_);
    open_.clear();
    open_offsets_.clear();
    sealed = true;
  }
  if (track_) open_offsets_.push_back(open_.size());
  ++run_.entries;
  return sealed;
}

bool ChunkWriter::Add(const KlogEntry& e) {
  // 20 bytes bound the fixed fields of a KLOG entry with short varints.
  const bool sealed = Open(e.key.size() + 20);
  wire::AppendKlogEntry(&open_, e.key, e.value_addr, e.value_len, e.seq,
                        e.tombstone);
  return sealed;
}

bool ChunkWriter::Add(const SidxTuple& t) {
  const bool sealed = Open(wire::SidxEntrySize(t.skey, t.pkey));
  wire::AppendSidxEntry(&open_, t.skey, t.pkey, t.vaddr, t.vlen);
  return sealed;
}

bool ChunkWriter::AddValue(const std::string& value) {
  const bool sealed = Open(value.size());
  open_ += value;
  return sealed;
}

sim::Task<Status> ChunkWriter::Flush() {
  if (sealed_.empty()) {
    // Only zero-length records: nothing to write, and they keep address 0.
    addrs_.insert(addrs_.end(), sealed_offsets_.size(), 0);
    sealed_offsets_.clear();
    co_return Status::Ok();
  }
  auto addr = co_await Write(sealed_);
  if (!addr.ok()) co_return addr.status();
  run_.segments.emplace_back(*addr, static_cast<std::uint32_t>(sealed_.size()));
  for (std::uint64_t offset : sealed_offsets_) addrs_.push_back(*addr + offset);
  sealed_.clear();
  sealed_offsets_.clear();
  co_return Status::Ok();
}

sim::Task<Status> ChunkWriter::Finish() {
  assert(sealed_.empty() && "Flush() the sealed chunk before Finish()");
  std::swap(open_, sealed_);
  std::swap(open_offsets_, sealed_offsets_);
  co_return co_await Flush();
}

// ---------------------------------------------------------------------------
// IndexBlockWriter
// ---------------------------------------------------------------------------

void IndexBlockWriter::CloseBlock() {
  if (count_ == 0) return;
  wire::FinishIndexBlock(&block_, count_, config().index_block_size);
  closed_.emplace_back(std::move(pivot_), std::move(block_));
  wire::BeginIndexBlock(&block_);
  count_ = 0;
  pivot_.clear();
}

bool IndexBlockWriter::Open(std::size_t entry_size, const Slice& pivot) {
  bool full = false;
  if (block_.size() + entry_size > config().index_block_size) {
    CloseBlock();
    full = closed_.size() * config().index_block_size >=
           config().output_batch_bytes;
  }
  if (count_ == 0) pivot_ = pivot.ToString();
  ++count_;
  return full;
}

bool IndexBlockWriter::AddPidx(const Slice& key, std::uint64_t vaddr,
                               std::uint32_t vlen) {
  const bool full = Open(wire::PidxEntrySize(key), key);
  wire::AppendPidxEntry(&block_, key, vaddr, vlen);
  return full;
}

bool IndexBlockWriter::AddSidx(const SidxTuple& t) {
  const bool full = Open(wire::SidxEntrySize(t.skey, t.pkey), t.skey);
  wire::AppendSidxEntry(&block_, t.skey, t.pkey, t.vaddr, t.vlen);
  return full;
}

sim::Task<Status> IndexBlockWriter::Flush() {
  if (closed_.empty()) co_return Status::Ok();
  const std::uint32_t block_size = config().index_block_size;
  std::string blob;
  blob.reserve(closed_.size() * block_size);
  for (const auto& [pivot, block] : closed_) blob += block;
  auto addr = co_await Write(blob);
  if (!addr.ok()) co_return addr.status();
  for (std::size_t i = 0; i < closed_.size(); ++i) {
    sketch_->push_back(SketchEntry{std::move(closed_[i].first),
                                   *addr + i * block_size, block_size});
  }
  closed_.clear();
  co_return Status::Ok();
}

sim::Task<Status> IndexBlockWriter::Finish() {
  CloseBlock();
  co_return co_await Flush();
}

}  // namespace kvcsd::device
