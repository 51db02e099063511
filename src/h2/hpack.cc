#include "h2/hpack.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "h2/hpack_huffman.h"

namespace h2push::h2 {
namespace {

// RFC 7541 Appendix A: the static table, 1-based indices 1..61.
constexpr std::array<std::pair<std::string_view, std::string_view>, 61>
    kStaticTable = {{
        {":authority", ""},
        {":method", "GET"},
        {":method", "POST"},
        {":path", "/"},
        {":path", "/index.html"},
        {":scheme", "http"},
        {":scheme", "https"},
        {":status", "200"},
        {":status", "204"},
        {":status", "206"},
        {":status", "304"},
        {":status", "400"},
        {":status", "404"},
        {":status", "500"},
        {"accept-charset", ""},
        {"accept-encoding", "gzip, deflate"},
        {"accept-language", ""},
        {"accept-ranges", ""},
        {"accept", ""},
        {"access-control-allow-origin", ""},
        {"age", ""},
        {"allow", ""},
        {"authorization", ""},
        {"cache-control", ""},
        {"content-disposition", ""},
        {"content-encoding", ""},
        {"content-language", ""},
        {"content-length", ""},
        {"content-location", ""},
        {"content-range", ""},
        {"content-type", ""},
        {"cookie", ""},
        {"date", ""},
        {"etag", ""},
        {"expect", ""},
        {"expires", ""},
        {"from", ""},
        {"host", ""},
        {"if-match", ""},
        {"if-modified-since", ""},
        {"if-none-match", ""},
        {"if-range", ""},
        {"if-unmodified-since", ""},
        {"last-modified", ""},
        {"link", ""},
        {"location", ""},
        {"max-forwards", ""},
        {"proxy-authenticate", ""},
        {"proxy-authorization", ""},
        {"range", ""},
        {"referer", ""},
        {"refresh", ""},
        {"retry-after", ""},
        {"server", ""},
        {"set-cookie", ""},
        {"strict-transport-security", ""},
        {"transfer-encoding", ""},
        {"user-agent", ""},
        {"vary", ""},
        {"via", ""},
        {"www-authenticate", ""},
    }};

constexpr std::size_t kEntryOverhead = 32;

// An evicted ring slot keeps its string buffers for the next entry unless
// they hold more than this.
constexpr std::size_t kSlotKeepCapacity = 256;

// Header names and values are short: hash them 8 bytes at a time.
std::uint64_t hash_string(std::string_view s) {
  const char* p = s.data();
  std::size_t n = s.size();
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  std::uint64_t w = 0;
  if (n >= 4) {  // two overlapping 4-byte reads cover the 4..7-byte tail
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + n - 4, 4);
    w = (static_cast<std::uint64_t>(hi) << 32) | lo;
  } else if (n > 0) {
    w = (static_cast<std::uint64_t>(static_cast<unsigned char>(p[0])) << 16) |
        (static_cast<std::uint64_t>(static_cast<unsigned char>(p[n / 2])) << 8) |
        static_cast<unsigned char>(p[n - 1]);
  }
  h = (h ^ w) * 0x94d049bb133111ebULL;
  return h ^ (h >> 29);
}

std::uint64_t hash_pair(std::uint64_t name_hash, std::string_view value) {
  const std::uint64_t h = hash_string(value);
  return name_hash ^ (h + 0x9e3779b97f4a7c15ULL + (name_hash << 6) +
                      (name_hash >> 2));
}

// Name index over the static table: each distinct name maps to its first
// 1-based index and the number of consecutive entries that share it
// (Appendix A lists same-name entries together).
struct StaticNameIndex {
  struct Slot {
    std::uint64_t hash = 0;
    std::uint8_t first = 0;  // 0 = empty slot
    std::uint8_t count = 0;
  };
  static constexpr std::size_t kSlots = 128;  // power of two > 2 * 61
  std::array<Slot, kSlots> slots{};

  StaticNameIndex() {
    for (std::size_t i = 0; i < kStaticTable.size();) {
      std::size_t n = 1;
      while (i + n < kStaticTable.size() &&
             kStaticTable[i + n].first == kStaticTable[i].first) {
        ++n;
      }
      const std::uint64_t h = hash_string(kStaticTable[i].first);
      std::size_t s = h & (kSlots - 1);
      while (slots[s].first != 0) s = (s + 1) & (kSlots - 1);
      slots[s] = {h, static_cast<std::uint8_t>(i + 1),
                  static_cast<std::uint8_t>(n)};
      i += n;
    }
  }
};

// Find in static table: returns 1-based index of exact match (0 = none);
// name_only gets the first name match.
std::size_t static_find(std::string_view name, std::string_view value,
                        std::size_t& name_only) {
  static const StaticNameIndex index;
  name_only = 0;
  const std::uint64_t h = hash_string(name);
  for (std::size_t s = h & (StaticNameIndex::kSlots - 1);
       index.slots[s].first != 0; s = (s + 1) & (StaticNameIndex::kSlots - 1)) {
    const auto& slot = index.slots[s];
    if (slot.hash != h || kStaticTable[slot.first - 1].first != name) continue;
    name_only = slot.first;
    for (std::size_t i = slot.first; i < slot.first + slot.count; ++i) {
      if (kStaticTable[i - 1].second == value) return i;
    }
    return 0;
  }
  return 0;
}

// Backward-shift deletion from a linear-probing table, so probes never
// need tombstones.
template <typename Slot>
void erase_slot(std::vector<Slot>& table, std::size_t hole) {
  const std::size_t mask = table.size() - 1;
  for (std::size_t j = (hole + 1) & mask; table[j].number != 0;
       j = (j + 1) & mask) {
    const std::size_t home = table[j].hash & mask;
    // Entry j may fill the hole only if its home slot is not cyclically
    // within (hole, j].
    const bool stays = hole <= j ? (hole < home && home <= j)
                                 : (hole < home || home <= j);
    if (stays) continue;
    table[hole] = table[j];
    hole = j;
  }
  table[hole] = {};
}

}  // namespace

std::size_t hpack_static_table_size() noexcept { return kStaticTable.size(); }

std::pair<std::string_view, std::string_view> hpack_static_at(
    std::size_t index) {
  return kStaticTable[index - 1];
}

std::size_t hpack_static_find(std::string_view name, std::string_view value,
                              std::size_t& name_only_out) {
  return static_find(name, value, name_only_out);
}

void hpack_encode_int(std::uint64_t value, int prefix_bits,
                      std::uint8_t first_byte_flags,
                      std::vector<std::uint8_t>& out) {
  const std::uint64_t max_prefix = (1ULL << prefix_bits) - 1;
  if (value < max_prefix) {
    out.push_back(static_cast<std::uint8_t>(first_byte_flags | value));
    return;
  }
  out.push_back(static_cast<std::uint8_t>(first_byte_flags | max_prefix));
  value -= max_prefix;
  while (value >= 128) {
    out.push_back(static_cast<std::uint8_t>(0x80 | (value & 0x7f)));
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

util::Expected<std::uint64_t, std::string> hpack_decode_int(
    std::span<const std::uint8_t> in, std::size_t& pos, int prefix_bits) {
  if (pos >= in.size()) return util::make_unexpected("int: truncated");
  const std::uint64_t max_prefix = (1ULL << prefix_bits) - 1;
  std::uint64_t value = in[pos++] & max_prefix;
  if (value < max_prefix) return value;
  int shift = 0;
  while (true) {
    if (pos >= in.size()) return util::make_unexpected("int: truncated");
    if (shift > 56) return util::make_unexpected("int: overflow");
    const std::uint8_t byte = in[pos++];
    value += static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

void HpackDynamicTable::add(std::string_view name, std::string_view value) {
  const std::size_t entry_size = name.size() + value.size() + kEntryOverhead;
  if (entry_size > max_size_) {
    // An entry larger than the table empties it (RFC 7541 §4.4).
    evict_to(0);
    return;
  }
  evict_to(max_size_ - entry_size);
  if (count_ == ring_.size()) {
    std::vector<Entry> bigger(std::max<std::size_t>(8, 2 * ring_.size()));
    for (std::uint64_t n = inserted_ - count_; n < inserted_; ++n) {
      bigger[n & (bigger.size() - 1)] = std::move(ring_[n & (ring_.size() - 1)]);
    }
    ring_.swap(bigger);
  }
  // The slot keeps the buffers of the entry evicted from it.
  http::Header& h = ring_[inserted_ & (ring_.size() - 1)].header;
  h.name.assign(name);
  h.value.assign(value);
  size_ += entry_size;
  ++count_;
  ++inserted_;
  if (indexed_) index_insert(inserted_ - 1);
}

void HpackDynamicTable::set_max_size(std::size_t max) {
  max_size_ = max;
  evict_to(max_size_);
}

void HpackDynamicTable::evict_to(std::size_t limit) {
  while (size_ > limit && count_ != 0) {
    const std::uint64_t oldest = inserted_ - count_;
    if (indexed_) index_erase(oldest);
    http::Header& h = ring_[oldest & (ring_.size() - 1)].header;
    size_ -= h.name.size() + h.value.size() + kEntryOverhead;
    --count_;
    // Large buffers are freed, so the ring retains little beyond the
    // live table.
    if (h.name.capacity() + h.value.capacity() > kSlotKeepCapacity) {
      h = http::Header{};
    }
  }
}

void HpackDynamicTable::index_insert(std::uint64_t number) const {
  // Keep both tables at most half full; growing rebuilds from the ring.
  if (2 * (count_ + 1) > by_name_.size()) {
    build_index();
    return;
  }
  const Entry& e = entry(number);
  e.name_hash = hash_string(e.header.name);
  e.pair_hash = hash_pair(e.name_hash, e.header.value);
  const std::size_t mask = by_name_.size() - 1;
  std::size_t s = e.name_hash & mask;
  for (; by_name_[s].number != 0; s = (s + 1) & mask) {
    if (by_name_[s].hash == e.name_hash &&
        entry(by_name_[s].number - 1).header.name == e.header.name) {
      break;  // a newer entry takes over the name
    }
  }
  by_name_[s] = {e.name_hash, number + 1};
  s = e.pair_hash & mask;
  for (; by_pair_[s].number != 0; s = (s + 1) & mask) {
    const http::Header& other = entry(by_pair_[s].number - 1).header;
    if (by_pair_[s].hash == e.pair_hash && other == e.header) break;
  }
  by_pair_[s] = {e.pair_hash, number + 1};
}

void HpackDynamicTable::index_erase(std::uint64_t number) const {
  // Only the newest entry of a name is indexed; an older duplicate is
  // evicted before any newer one, so it owns no slot to clear.
  const std::size_t mask = by_name_.size() - 1;
  const Entry& e = entry(number);
  for (std::size_t s = e.name_hash & mask; by_name_[s].number != 0;
       s = (s + 1) & mask) {
    if (by_name_[s].number == number + 1) {
      erase_slot(by_name_, s);
      break;
    }
  }
  for (std::size_t s = e.pair_hash & mask; by_pair_[s].number != 0;
       s = (s + 1) & mask) {
    if (by_pair_[s].number == number + 1) {
      erase_slot(by_pair_, s);
      break;
    }
  }
}

void HpackDynamicTable::build_index() const {
  std::size_t slots = 16;
  while (slots < 2 * (count_ + 1)) slots *= 2;
  by_name_.assign(slots, IndexSlot{});
  by_pair_.assign(slots, IndexSlot{});
  indexed_ = true;
  // Oldest first, so the newest entry of each key ends up indexed.
  for (std::uint64_t n = inserted_ - count_; n < inserted_; ++n) {
    index_insert(n);
  }
}

std::size_t HpackDynamicTable::find(std::string_view name,
                                    std::string_view value,
                                    std::size_t& name_only_out) const {
  name_only_out = npos;
  if (count_ == 0) return npos;
  if (!indexed_) build_index();
  const std::size_t mask = by_name_.size() - 1;
  const std::uint64_t name_hash = hash_string(name);
  for (std::size_t s = name_hash & mask; by_name_[s].number != 0;
       s = (s + 1) & mask) {
    const std::uint64_t number = by_name_[s].number - 1;
    if (by_name_[s].hash == name_hash && entry(number).header.name == name) {
      name_only_out = inserted_ - 1 - number;
      break;
    }
  }
  if (name_only_out == npos) return npos;
  const std::uint64_t pair_hash = hash_pair(name_hash, value);
  for (std::size_t s = pair_hash & mask; by_pair_[s].number != 0;
       s = (s + 1) & mask) {
    const std::uint64_t number = by_pair_[s].number - 1;
    const http::Header& h = entry(number).header;
    if (by_pair_[s].hash == pair_hash && h.name == name && h.value == value) {
      return inserted_ - 1 - number;
    }
  }
  return npos;
}

void HpackEncoder::set_table_size(std::size_t max) {
  table_.set_max_size(max);
  pending_size_update_ = true;
  pending_size_ = max;
}

void HpackEncoder::encode_string(std::string_view s, bool use_huffman,
                                 std::vector<std::uint8_t>& out) {
  if (use_huffman) {
    // Prefer Huffman on ties: RFC 7541 Appendix C's example encoder does
    // (C.6.2 codes "307" in 3 Huffman bytes where raw is also 3).
    const std::size_t hlen = huffman_encoded_size(s);
    if (hlen <= s.size()) {
      hpack_encode_int(hlen, 7, 0x80, out);
      huffman_encode(s, out);
      return;
    }
  }
  hpack_encode_int(s.size(), 7, 0x00, out);
  out.insert(out.end(), s.begin(), s.end());
}

std::vector<std::uint8_t> HpackEncoder::encode(const http::HeaderBlock& block,
                                               bool use_huffman) {
  std::vector<std::uint8_t> out;
  encode_into(block, out, use_huffman);
  return out;
}

void HpackEncoder::encode_into(const http::HeaderBlock& block,
                               std::vector<std::uint8_t>& out,
                               bool use_huffman) {
  out.clear();
  if (pending_size_update_) {
    hpack_encode_int(pending_size_, 5, 0x20, out);
    pending_size_update_ = false;
  }
  for (const auto& h : block) {
    std::size_t static_name = 0;
    const std::size_t static_exact = static_find(h.name, h.value, static_name);
    if (static_exact != 0) {
      hpack_encode_int(static_exact, 7, 0x80, out);  // indexed (static)
      continue;
    }
    std::size_t dyn_name = HpackDynamicTable::npos;
    const std::size_t dyn_exact = table_.find(h.name, h.value, dyn_name);
    if (dyn_exact != HpackDynamicTable::npos) {
      hpack_encode_int(kStaticTable.size() + 1 + dyn_exact, 7, 0x80, out);
      continue;
    }
    // Literal with incremental indexing.
    if (static_name != 0) {
      hpack_encode_int(static_name, 6, 0x40, out);
    } else if (dyn_name != HpackDynamicTable::npos) {
      hpack_encode_int(kStaticTable.size() + 1 + dyn_name, 6, 0x40, out);
    } else {
      out.push_back(0x40);
      encode_string(h.name, use_huffman, out);
    }
    encode_string(h.value, use_huffman, out);
    table_.add(h.name, h.value);
  }
}

util::Expected<std::pair<std::string_view, std::string_view>, std::string>
HpackDecoder::lookup(std::uint64_t index) const {
  if (index == 0) return util::make_unexpected("hpack: index 0");
  if (index <= kStaticTable.size()) return kStaticTable[index - 1];
  const std::uint64_t dyn = index - kStaticTable.size() - 1;
  if (dyn >= table_.entry_count()) {
    return util::make_unexpected("hpack: index out of range");
  }
  const http::Header& h = table_.at(dyn);
  return std::pair<std::string_view, std::string_view>{h.name, h.value};
}

util::Expected<std::size_t, std::string> HpackDecoder::decode_string(
    std::span<const std::uint8_t> in, std::size_t& pos, std::string& out) {
  if (pos >= in.size()) return util::make_unexpected("string: truncated");
  const bool huffman = (in[pos] & 0x80) != 0;
  auto len = hpack_decode_int(in, pos, 7);
  if (!len) return util::make_unexpected(len.error());
  if (pos + *len > in.size()) {
    return util::make_unexpected("string: length beyond block");
  }
  const auto payload = in.subspan(pos, static_cast<std::size_t>(*len));
  pos += static_cast<std::size_t>(*len);
  out.clear();
  if (!huffman) {
    out.assign(payload.begin(), payload.end());
    return out.size();
  }
  return huffman_decode_into(payload, out);
}

util::Expected<http::HeaderBlock, std::string> HpackDecoder::decode(
    std::span<const std::uint8_t> input) {
  http::HeaderBlock block;
  // Every field takes at least one byte; a typical block has about ten.
  block.reserve(std::min<std::size_t>(input.size(), 12));
  std::size_t pos = 0;
  bool seen_header = false;
  while (pos < input.size()) {
    const std::uint8_t b = input[pos];
    if (b & 0x80) {
      // Indexed header field.
      auto index = hpack_decode_int(input, pos, 7);
      if (!index) return util::make_unexpected(index.error());
      auto header = lookup(*index);
      if (!header) return util::make_unexpected(header.error());
      block.push_back({std::string(header->first),
                       std::string(header->second)});
      seen_header = true;
    } else if ((b & 0x40) || (b & 0x20) == 0) {
      // Literal with incremental indexing (0x40), without indexing (0x00)
      // or never indexed (0x10): the header's strings are decoded straight
      // into the block.
      const bool indexing = (b & 0x40) != 0;
      auto index = hpack_decode_int(input, pos, indexing ? 6 : 4);
      if (!index) return util::make_unexpected(index.error());
      http::Header& h = block.emplace_back();
      if (*index == 0) {
        auto n = decode_string(input, pos, h.name);
        if (!n) return util::make_unexpected(n.error());
      } else {
        auto named = lookup(*index);
        if (!named) return util::make_unexpected(named.error());
        h.name.assign(named->first);
      }
      auto value = decode_string(input, pos, h.value);
      if (!value) return util::make_unexpected(value.error());
      if (indexing) table_.add(h.name, h.value);
      seen_header = true;
    } else {
      // Dynamic table size update; must precede header fields (§4.2).
      if (seen_header) {
        return util::make_unexpected("hpack: size update after header");
      }
      auto size = hpack_decode_int(input, pos, 5);
      if (!size) return util::make_unexpected(size.error());
      if (*size > settings_max_) {
        return util::make_unexpected("hpack: size update above SETTINGS cap");
      }
      table_.set_max_size(static_cast<std::size_t>(*size));
    }
  }
  return block;
}

}  // namespace h2push::h2
