#include "phoenix/ckpt.hpp"

#include <utility>

#include "core/crc32.hpp"

namespace coe::phoenix {

void DistributedCheckpointStore::stage(std::uint64_t gen, int part,
                                       std::size_t step,
                                       std::vector<double> data) {
  // The blob is the caller's alone until it is moved in below, so the
  // checksum pass runs outside the lock.
  PartBlob b;
  b.part = part;
  b.step = step;
  b.crc = core::crc32(data);
  b.data = std::move(data);
  std::lock_guard<std::mutex> lk(mtx_);
  stats_.staged += 1;
  stats_.bytes_staged += static_cast<double>(b.data.size()) * 8.0;
  pending_[gen][part] = std::move(b);
}

void DistributedCheckpointStore::commit(std::uint64_t gen) {
  std::lock_guard<std::mutex> lk(mtx_);
  auto it = pending_.find(gen);
  if (it == pending_.end()) return;
  auto& slot = committed_[gen];
  for (auto& [part, blob] : it->second) slot[part] = std::move(blob);
  pending_.erase(it);
  stats_.commits += 1;
  while (committed_.size() > 2) committed_.erase(committed_.begin());
}

void DistributedCheckpointStore::abort_pending() {
  std::lock_guard<std::mutex> lk(mtx_);
  stats_.aborted += pending_.size();
  pending_.clear();
}

std::uint64_t DistributedCheckpointStore::latest_committed() const {
  std::lock_guard<std::mutex> lk(mtx_);
  if (committed_.empty()) return kNone;
  return committed_.rbegin()->first;
}

bool DistributedCheckpointStore::has(std::uint64_t gen, int part) const {
  std::lock_guard<std::mutex> lk(mtx_);
  auto it = committed_.find(gen);
  return it != committed_.end() && it->second.count(part) != 0;
}

DistributedCheckpointStore::Fetch DistributedCheckpointStore::fetch(
    std::uint64_t gen, int part, std::vector<double>* data,
    std::size_t* step) const {
  std::lock_guard<std::mutex> lk(mtx_);
  auto it = committed_.find(gen);
  if (it == committed_.end()) return Fetch::Missing;
  auto jt = it->second.find(part);
  if (jt == it->second.end()) return Fetch::Missing;
  const PartBlob& b = jt->second;
  if (core::crc32(b.data) != b.crc) {
    refused_ += 1;
    return Fetch::Refused;
  }
  if (data) *data = b.data;
  if (step) *step = b.step;
  return Fetch::Ok;
}

std::vector<double>* DistributedCheckpointStore::mutable_payload(
    std::uint64_t gen, int part) {
  std::lock_guard<std::mutex> lk(mtx_);
  auto it = committed_.find(gen);
  if (it == committed_.end()) return nullptr;
  auto jt = it->second.find(part);
  if (jt == it->second.end()) return nullptr;
  return &jt->second.data;
}

DistStoreStats DistributedCheckpointStore::stats() const {
  std::lock_guard<std::mutex> lk(mtx_);
  DistStoreStats s = stats_;
  s.refused = refused_;
  return s;
}

}  // namespace coe::phoenix
