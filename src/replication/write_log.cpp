#include "replication/write_log.hpp"

#include <algorithm>
#include <tuple>

#include "common/assert.hpp"

namespace fastcons {
namespace {

/// First update with id >= `id` in the sorted-by-id log.
std::vector<Update>::const_iterator updates_lower_bound(
    const std::vector<Update>& updates, UpdateId id) {
  return std::lower_bound(
      updates.begin(), updates.end(), id,
      [](const Update& u, UpdateId key) { return u.id < key; });
}

}  // namespace

bool WriteLog::apply(const Update& update) {
  return apply_moved(Update(update)) != nullptr;
}

const Update* WriteLog::apply_moved(Update&& update) {
  FASTCONS_EXPECTS(update.id.seq > 0);
  if (summary_.contains(update.id)) return nullptr;
  summary_.add(update.id);
  const auto pos = updates_lower_bound(updates_, update.id);
  const auto it = updates_.insert(
      updates_.begin() + (pos - updates_.begin()), std::move(update));
  const Update& stored = *it;
  // Last-writer-wins on (created_at, origin, seq).
  const auto kv_pos = kv_.lower_bound(stored.key);
  if (kv_pos == kv_.end() || kv_pos->first != stored.key) {
    kv_.emplace_hint(kv_pos, stored.key,
                     KeyState{stored.created_at, stored.id, stored.value});
  } else {
    KeyState& state = kv_pos->second;
    const auto candidate =
        std::tuple(stored.created_at, stored.id.origin, stored.id.seq);
    const auto incumbent =
        std::tuple(state.written_at, state.by.origin, state.by.seq);
    if (candidate > incumbent) {
      state.written_at = stored.created_at;
      state.by = stored.id;
      state.value = stored.value;
    }
  }
  return &stored;
}

bool WriteLog::contains(UpdateId id) const { return summary_.contains(id); }

std::optional<Update> WriteLog::get(UpdateId id) const {
  const Update* found = find(id);
  if (found == nullptr) return std::nullopt;
  return *found;
}

const Update* WriteLog::find(UpdateId id) const {
  const auto it = updates_lower_bound(updates_, id);
  if (it == updates_.end() || it->id != id) return nullptr;
  return &*it;
}

std::vector<Update> WriteLog::updates_for(
    const SummaryVector& their_summary,
    std::vector<UpdateId>* missing_truncated) const {
  const std::vector<UpdateId> ids = summary_.missing_from(their_summary);
  std::vector<Update> result;
  result.reserve(ids.size());
  for (const UpdateId id : ids) {
    if (const Update* found = find(id)) {
      result.push_back(*found);
    } else if (missing_truncated != nullptr) {
      missing_truncated->push_back(id);
    }
  }
  return result;
}

std::optional<std::string> WriteLog::read(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second.value;
}

std::vector<std::string> WriteLog::keys() const {
  std::vector<std::string> result;
  result.reserve(kv_.size());
  for (const auto& [key, state] : kv_) {
    (void)state;
    result.push_back(key);
  }
  return result;
}

std::size_t WriteLog::truncate_below(const SummaryVector& stable) {
  const std::size_t before = updates_.size();
  std::erase_if(updates_,
                [&](const Update& u) { return stable.contains(u.id); });
  return before - updates_.size();
}

std::vector<Update> WriteLog::all_retained() const {
  return updates_;  // already (origin, seq) sorted
}

void WriteLog::restore(std::vector<Update> updates, const SummaryVector& cover) {
  for (Update& update : updates) {
    apply_moved(std::move(update));
  }
  summary_.merge(cover);
}

std::uint64_t WriteLog::kv_digest() const noexcept {
  // FNV-1a over (key, 0, value, 0) in key order. kv_ iterates by key, so
  // the digest depends only on the materialised state, not insertion order.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
    h *= 1099511628211ull;  // NUL separator step
  };
  for (const auto& [key, state] : kv_) {
    mix(key);
    mix(state.value);
  }
  return h;
}

}  // namespace fastcons
