// HPACK header compression (RFC 7541).
//
// Full implementation: prefix integer coding, the 61-entry static table, a
// size-bounded FIFO dynamic table, Huffman string literals, and dynamic
// table size updates. Encoder policy mirrors common server behaviour:
// indexed representation on exact match, literal-with-incremental-indexing
// otherwise, Huffman whenever it shortens the literal.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "http/message.h"
#include "util/expected.h"

namespace h2push::h2 {

/// Append the HPACK prefix-integer encoding of `value` with an
/// `prefix_bits`-bit prefix; `first_byte_flags` holds the upper flag bits.
void hpack_encode_int(std::uint64_t value, int prefix_bits,
                      std::uint8_t first_byte_flags,
                      std::vector<std::uint8_t>& out);

/// Decode a prefix integer starting at `pos`; advances `pos` past it.
util::Expected<std::uint64_t, std::string> hpack_decode_int(
    std::span<const std::uint8_t> in, std::size_t& pos, int prefix_bits);

// Read-only access to the RFC 7541 Appendix A static table, for tooling
// (e.g. the structure-aware fuzz generators) that builds header blocks with
// explicit representation choices instead of the encoder's fixed policy.

/// Number of static-table entries (61).
std::size_t hpack_static_table_size() noexcept;

/// Entry at 1-based HPACK `index` in [1, hpack_static_table_size()].
std::pair<std::string_view, std::string_view> hpack_static_at(
    std::size_t index);

/// 1-based index of the exact match, or 0 if absent; `name_only_out`
/// receives the first name-only match (or 0).
std::size_t hpack_static_find(std::string_view name, std::string_view value,
                              std::size_t& name_only_out);

/// Shared dynamic-table logic (RFC 7541 §4): FIFO with 32-byte-per-entry
/// overhead accounting, evicting from the oldest end.
///
/// Entries live in a ring indexed by absolute insertion number, so an
/// evicted slot's strings are reused by a later entry. The first find()
/// builds a hash index from name, and from name plus value, to the newest
/// matching entry; add() and eviction keep it current from then on. A
/// decoder's table, which is never searched, never builds it.
class HpackDynamicTable {
 public:
  explicit HpackDynamicTable(std::size_t max_size = 4096)
      : max_size_(max_size) {}

  /// `name` and `value` must not view this table's own entries: the add
  /// may evict or move them.
  void add(std::string_view name, std::string_view value);
  void set_max_size(std::size_t max);

  std::size_t entry_count() const noexcept { return count_; }
  std::size_t size() const noexcept { return size_; }
  std::size_t max_size() const noexcept { return max_size_; }

  /// index is 0-based from the newest entry.
  const http::Header& at(std::size_t index) const {
    return entry(inserted_ - 1 - index).header;
  }

  /// Returns 0-based index of exact match, or npos; `name_only_out` receives
  /// the first name-only match if any. Newest entries match first.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find(std::string_view name, std::string_view value,
                   std::size_t& name_only_out) const;

 private:
  struct Entry {
    http::Header header;
    // Set as the entry enters the index.
    mutable std::uint64_t name_hash = 0;
    mutable std::uint64_t pair_hash = 0;
  };
  // Open-addressing slot of the hash index: `number` is an insertion
  // number plus one (0 marks an empty slot).
  struct IndexSlot {
    std::uint64_t hash = 0;
    std::uint64_t number = 0;
  };

  const Entry& entry(std::uint64_t number) const {
    return ring_[number & (ring_.size() - 1)];
  }
  void evict_to(std::size_t limit);
  void index_insert(std::uint64_t number) const;
  void index_erase(std::uint64_t number) const;
  void build_index() const;

  std::vector<Entry> ring_;     // power-of-two size; entry n at n & mask
  std::uint64_t inserted_ = 0;  // insertion number of the next entry
  std::size_t count_ = 0;
  std::size_t size_ = 0;
  std::size_t max_size_;
  mutable bool indexed_ = false;
  mutable std::vector<IndexSlot> by_name_;  // newest entry per name
  mutable std::vector<IndexSlot> by_pair_;  // newest entry per name+value
};

class HpackEncoder {
 public:
  explicit HpackEncoder(std::size_t table_size = 4096)
      : table_(table_size) {}

  /// Encode a header block. `use_huffman` controls string literals.
  std::vector<std::uint8_t> encode(const http::HeaderBlock& block,
                                   bool use_huffman = true);

  /// Encode into a caller-owned buffer (cleared first). Reusing one buffer
  /// per connection keeps the encode path allocation-free once warm.
  void encode_into(const http::HeaderBlock& block,
                   std::vector<std::uint8_t>& out, bool use_huffman = true);

  /// Emit a dynamic table size update at the start of the next block.
  void set_table_size(std::size_t max);

  const HpackDynamicTable& table() const noexcept { return table_; }

 private:
  void encode_string(std::string_view s, bool use_huffman,
                     std::vector<std::uint8_t>& out);

  HpackDynamicTable table_;
  bool pending_size_update_ = false;
  std::size_t pending_size_ = 0;
};

class HpackDecoder {
 public:
  explicit HpackDecoder(std::size_t table_size = 4096)
      : table_(table_size) {}

  util::Expected<http::HeaderBlock, std::string> decode(
      std::span<const std::uint8_t> input);

  /// Upper bound for table size updates signalled via SETTINGS.
  void set_max_table_size(std::size_t max) { settings_max_ = max; }

  const HpackDynamicTable& table() const noexcept { return table_; }

 private:
  /// Name and value at HPACK `index`, viewing the static table or this
  /// decoder's dynamic table.
  util::Expected<std::pair<std::string_view, std::string_view>, std::string>
  lookup(std::uint64_t index) const;
  /// Decode the string literal at `pos` into `out`, replacing its contents.
  util::Expected<std::size_t, std::string> decode_string(
      std::span<const std::uint8_t> in, std::size_t& pos, std::string& out);

  HpackDynamicTable table_;
  std::size_t settings_max_ = 4096;
};

}  // namespace h2push::h2
