#include "bloom/counting_abf_table.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace makalu {

namespace {
constexpr std::uint8_t kUnreached = 0xFF;
// Rows the content wave prefetches ahead of the one it edits: the
// frontier's rows are scattered over the slab, so without the hint every
// row costs its misses in series.
constexpr std::size_t kPrefetchAhead = 8;
// Lines of one row the hint pulls (128 entries); a longer row's search
// finds the rest itself.
constexpr std::size_t kPrefetchLines = 8;
}  // namespace

CountingAbfTable::CountingAbfTable(std::size_t node_count, std::size_t depth,
                                   BloomParameters level_params)
    : nodes_(node_count),
      depth_(depth),
      bits_(level_params.bits),
      hashes_(level_params.hashes),
      rows_(node_count * depth),
      adjacency_(node_count) {
  MAKALU_EXPECTS(depth >= 1 && depth < kUnreached);
  MAKALU_EXPECTS(bits_ > 0 && bits_ <= (std::size_t{1} << 28));
  MAKALU_EXPECTS(hashes_ > 0);
  MAKALU_EXPECTS(node_count * depth <=
                 std::numeric_limits<std::uint32_t>::max());
  sum_.assign(bits_, 0);
  scratch_mult_.assign(nodes_, 0);
  scratch_dist_.assign(nodes_, kUnreached);
}

std::uint8_t CountingAbfTable::count(std::uint32_t node, std::size_t l,
                                     std::size_t pos) const {
  MAKALU_EXPECTS(pos < bits_);
  const auto row = entries(node, l);
  const std::size_t at = seek(row, 0, static_cast<std::uint32_t>(pos));
  return at < row.size() && entry_pos(row[at]) == pos ? entry_count(row[at])
                                                       : 0;
}

std::size_t CountingAbfTable::saturated_count(std::uint32_t node,
                                              std::size_t l) const {
  const auto row = entries(node, l);
  return static_cast<std::size_t>(
      std::count_if(row.begin(), row.end(), [](std::uint32_t entry) {
        return entry_count(entry) == kSaturation;
      }));
}

void CountingAbfTable::prefetch_row(std::uint32_t r) const noexcept {
  const auto row = rows_.row(r);
  constexpr std::size_t kLine = 64 / sizeof(std::uint32_t);
  const std::size_t lines =
      std::min((row.size() + kLine - 1) / kLine, kPrefetchLines);
  for (std::size_t i = 0; i < lines; ++i) {
    __builtin_prefetch(row.data() + i * kLine, 1, 1);
  }
}

void CountingAbfTable::set_neighbors(std::uint32_t node,
                                     std::span<const std::uint32_t> row) {
  MAKALU_EXPECTS(node < nodes_);
  const auto size = static_cast<std::uint32_t>(row.size());
  adjacency_.clear_row(node);
  adjacency_.reserve_row(node, size);
  std::copy(row.begin(), row.end(), adjacency_.block(node).begin());
  adjacency_.set_size(node, size);
}

void CountingAbfTable::seed_content(std::uint32_t node, std::uint64_t key) {
  MAKALU_EXPECTS(node < nodes_);
  load_key_slots(key);
  apply_key(row_index(node, 0), 1, /*insert=*/true);
}

void CountingAbfTable::load_key_slots(std::uint64_t key) {
  const auto [h1, h2] = bloom_hash_key(key);
  key_slots_.clear();
  for (std::size_t i = 0; i < hashes_; ++i) {
    key_slots_.push_back(
        {.pos = static_cast<std::uint32_t>((h1 + i * h2) % bits_),
         .repeats = 1});
  }
  std::sort(key_slots_.begin(), key_slots_.end(),
            [](const KeySlot& a, const KeySlot& b) { return a.pos < b.pos; });
  // A repeated probe position adds once per repeat.
  std::size_t out = 0;
  for (std::size_t i = 1; i < key_slots_.size(); ++i) {
    if (key_slots_[i].pos == key_slots_[out].pos) {
      ++key_slots_[out].repeats;
    } else {
      key_slots_[++out] = key_slots_[i];
    }
  }
  key_slots_.resize(out + 1);
}

void CountingAbfTable::apply_key(std::uint32_t r, std::uint32_t amount,
                                 bool insert) {
  // Locate every key slot first (they ascend like the row, so each search
  // starts where the previous one ended) and settle in place the counts
  // that stay nonzero. Entries that appear or reach zero are then
  // inserted or erased in one pass, so each entry of the row moves at
  // most once and the row grows at most once.
  const std::uint32_t size = rows_.size(r);
  std::uint32_t* data = rows_.block(r).data();
  std::uint32_t at = 0;
  std::uint32_t edits = 0;
  for (KeySlot& slot : key_slots_) {
    const std::uint32_t step = slot.repeats * amount;
    at = static_cast<std::uint32_t>(seek({data, size}, at, slot.pos));
    slot.at = at;
    slot.edit = false;
    if (at < size && entry_pos(data[at]) == slot.pos) {
      const std::uint32_t have = entry_count(data[at]);
      std::uint32_t next = 0;
      if (insert) {
        next = std::min<std::uint32_t>(have + step, kSaturation);
      } else if (have >= kSaturation) {
        continue;  // sticky saturation
      } else {
        next = have > step ? have - step : 0;  // underflow clamp
      }
      if (next != 0) {
        data[at] = slot.pos << 4 | next;
      } else {
        slot.edit = true;  // reached zero: leaves the row
        ++edits;
      }
    } else if (insert) {
      slot.edit = true;  // enters the row
      ++edits;
    }
  }
  if (edits == 0) return;
  if (insert) {
    rows_.reserve_row(r, size + edits);  // may relocate row r only
    data = rows_.block(r).data();
    // Back to front: the entries from each insertion point to the
    // previous one shift right by the inserts still pending.
    std::uint32_t end = size;
    std::uint32_t shift = edits;
    for (auto slot = key_slots_.rbegin(); slot != key_slots_.rend(); ++slot) {
      if (!slot->edit) continue;
      std::memmove(data + slot->at + shift, data + slot->at,
                   (end - slot->at) * sizeof(std::uint32_t));
      --shift;
      data[slot->at + shift] =
          slot->pos << 4 |
          std::min<std::uint32_t>(slot->repeats * amount, kSaturation);
      end = slot->at;
    }
    rows_.set_size(r, size + edits);
    return;
  }
  // Front to back: close each erased entry's gap.
  std::uint32_t write = 0;
  std::uint32_t read = 0;
  for (const KeySlot& slot : key_slots_) {
    if (!slot.edit) continue;
    if (write != read) {
      std::memmove(data + write, data + read,
                   (slot.at - read) * sizeof(std::uint32_t));
    }
    write += slot.at - read;
    read = slot.at + 1;
  }
  std::memmove(data + write, data + read,
               (size - read) * sizeof(std::uint32_t));
  rows_.set_size(r, size - edits);
}

void CountingAbfTable::sum_neighbors(std::uint32_t node, std::size_t l) {
  // Scatter the neighbors' entries into the dense accumulator (a slot is
  // untouched iff it reads 0, since every entry counts >= 1), then write
  // the touched slots back in position order and zero them again.
  sum_touched_.clear();
  for (const std::uint32_t w : adjacency_.row(node)) {
    for (const std::uint32_t entry : rows_.row(row_index(w, l - 1))) {
      std::uint8_t& acc = sum_[entry_pos(entry)];
      if (acc == 0) sum_touched_.push_back(entry_pos(entry));
      acc = static_cast<std::uint8_t>(
          std::min<std::uint32_t>(acc + entry_count(entry), kSaturation));
    }
  }
  std::sort(sum_touched_.begin(), sum_touched_.end());
  const std::uint32_t r = row_index(node, l);
  const auto size = static_cast<std::uint32_t>(sum_touched_.size());
  rows_.clear_row(r);
  rows_.reserve_row(r, size);
  std::uint32_t* data = rows_.block(r).data();
  for (std::uint32_t i = 0; i < size; ++i) {
    const std::uint32_t pos = sum_touched_[i];
    data[i] = pos << 4 | sum_[pos];
    sum_[pos] = 0;
  }
  rows_.set_size(r, size);
}

void CountingAbfTable::rebuild_derived() {
  for (std::size_t l = 1; l < depth_; ++l) {
    for (std::uint32_t x = 0; x < nodes_; ++x) sum_neighbors(x, l);
  }
  adjacency_.compact();
  changes_.clear();
  drained_.clear();
}

void CountingAbfTable::mark_changed(std::uint32_t node, std::size_t level) {
  changes_.push_back({node, static_cast<std::uint32_t>(level)});
}

void CountingAbfTable::apply_content_wave(std::uint32_t node,
                                          std::uint64_t key, bool insert) {
  MAKALU_EXPECTS(node < nodes_);
  load_key_slots(key);
  // Wave of walk multiplicities: at step l, scratch_mult_[x] = number of
  // length-l walks node -> x, saturated at kSaturation (saturating
  // counters cannot tell larger multiplicities apart, so clamping is
  // exact — and keeps the wave values bounded).
  constexpr std::uint32_t kMultCap = kSaturation;
  wave_frontier_.clear();
  wave_frontier_.push_back(node);
  scratch_mult_[node] = 1;
  for (std::size_t l = 0; l < depth_; ++l) {
    // Rows are hinted kPrefetchAhead edits ahead (the first ones before
    // any edit); their descriptors were hinted when the frontier was
    // gathered, and the adjacency the next gather reads is hinted here.
    const std::size_t width = wave_frontier_.size();
    for (std::size_t i = 0; i < std::min(width, kPrefetchAhead); ++i) {
      prefetch_row(row_index(wave_frontier_[i], l));
    }
    for (std::size_t i = 0; i < width; ++i) {
      if (i + kPrefetchAhead < width) {
        prefetch_row(row_index(wave_frontier_[i + kPrefetchAhead], l));
      }
      const std::uint32_t x = wave_frontier_[i];
      if (l + 1 < depth_) adjacency_.prefetch_descriptor(x);
      apply_key(row_index(x, l), scratch_mult_[x], insert);
      mark_changed(x, l);
    }
    if (l + 1 == depth_) break;
    // Next wave: multiplicity of w at l+1 is the sum over its neighbors'
    // multiplicities at l. Two-phase (gather, then overwrite) because
    // scratch_mult_ holds this level's values while they are being read.
    wave_adds_.clear();
    for (const std::uint32_t x : wave_frontier_) {
      const std::uint32_t mult = scratch_mult_[x];
      for (const std::uint32_t w : adjacency_.row(x)) {
        wave_adds_.emplace_back(w, mult);
      }
    }
    for (const std::uint32_t x : wave_frontier_) scratch_mult_[x] = 0;
    wave_next_.clear();
    for (const auto& [w, mult] : wave_adds_) {
      if (scratch_mult_[w] == 0) {
        wave_next_.push_back(w);
        rows_.prefetch_descriptor(row_index(w, l + 1));
      }
      const std::uint64_t sum =
          static_cast<std::uint64_t>(scratch_mult_[w]) + mult;
      scratch_mult_[w] =
          sum >= kMultCap ? kMultCap : static_cast<std::uint32_t>(sum);
    }
    wave_frontier_.swap(wave_next_);
  }
  for (const std::uint32_t x : wave_frontier_) scratch_mult_[x] = 0;
}

void CountingAbfTable::insert_content(std::uint32_t node,
                                      std::uint64_t key) {
  apply_content_wave(node, key, /*insert=*/true);
}

void CountingAbfTable::remove_content(std::uint32_t node,
                                      std::uint64_t key) {
  apply_content_wave(node, key, /*insert=*/false);
}

bool CountingAbfTable::add_edge(std::uint32_t u, std::uint32_t v) {
  MAKALU_EXPECTS(u < nodes_ && v < nodes_);
  if (u == v) return false;
  const auto row = adjacency_.row(u);
  if (std::find(row.begin(), row.end(), v) != row.end()) return false;
  adjacency_.push(u, v);
  adjacency_.push(v, u);
  recompute_region(u, v);
  return true;
}

bool CountingAbfTable::remove_edge(std::uint32_t u, std::uint32_t v) {
  MAKALU_EXPECTS(u < nodes_ && v < nodes_);
  if (!adjacency_.erase_value(u, v)) return false;
  adjacency_.erase_value(v, u);
  recompute_region(u, v);
  return true;
}

void CountingAbfTable::recompute_region(std::uint32_t u, std::uint32_t v) {
  if (depth_ < 2) return;
  // Multi-source BFS from both endpoints, radius depth-2: M(x, l) can
  // only change when dist(x, {u, v}) <= l-1 (any walk crossing the
  // flipped edge has an edge-free prefix to one endpoint, so the
  // post-change graph's distances cover edge removal too).
  scratch_touched_.clear();
  scratch_dist_[u] = 0;
  scratch_dist_[v] = 0;
  scratch_touched_.push_back(u);
  scratch_touched_.push_back(v);
  std::size_t head = 0;
  while (head < scratch_touched_.size()) {
    const std::uint32_t x = scratch_touched_[head++];
    const std::size_t d = scratch_dist_[x];
    if (d + 1 > depth_ - 2) continue;
    for (const std::uint32_t w : adjacency_.row(x)) {
      if (scratch_dist_[w] != kUnreached) continue;
      scratch_dist_[w] = static_cast<std::uint8_t>(d + 1);
      scratch_touched_.push_back(w);
    }
  }
  // Level-synchronous local recompute: level l for every x within l-1.
  // Every changed (w, l-1) sits within l-2, so it is final before any
  // level-l read.
  for (std::size_t l = 1; l < depth_; ++l) {
    for (const std::uint32_t x : scratch_touched_) {
      if (static_cast<std::size_t>(scratch_dist_[x]) > l - 1) continue;
      sum_neighbors(x, l);
      mark_changed(x, l);
    }
  }
  for (const std::uint32_t x : scratch_touched_) {
    scratch_dist_[x] = kUnreached;
  }
  scratch_touched_.clear();
}

std::span<const CountingAbfTable::ChangedLevel>
CountingAbfTable::take_changes() {
  std::sort(changes_.begin(), changes_.end());
  changes_.erase(std::unique(changes_.begin(), changes_.end()),
                 changes_.end());
  drained_.swap(changes_);
  changes_.clear();
  return drained_;
}

bool CountingAbfTable::equals(const CountingAbfTable& other) const {
  if (nodes_ != other.nodes_ || depth_ != other.depth_ ||
      bits_ != other.bits_ || hashes_ != other.hashes_) {
    return false;
  }
  for (std::uint32_t r = 0; r < nodes_ * depth_; ++r) {
    const auto a = rows_.row(r);
    const auto b = other.rows_.row(r);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) return false;
  }
  std::vector<std::uint32_t> a;
  std::vector<std::uint32_t> b;
  for (std::uint32_t x = 0; x < nodes_; ++x) {
    const auto row_a = adjacency_.row(x);
    const auto row_b = other.adjacency_.row(x);
    a.assign(row_a.begin(), row_a.end());
    b.assign(row_b.begin(), row_b.end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) return false;
  }
  return true;
}

std::size_t CountingAbfTable::memory_bytes() const noexcept {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  return rows_.memory_bytes() + adjacency_.memory_bytes() +
         bytes(changes_) + bytes(drained_) + bytes(key_slots_) +
         bytes(sum_) + bytes(sum_touched_) + bytes(wave_frontier_) +
         bytes(wave_next_) + bytes(wave_adds_) + bytes(scratch_mult_) +
         bytes(scratch_dist_) + bytes(scratch_touched_);
}

}  // namespace makalu
