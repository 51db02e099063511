#include "h2/hpack_huffman.h"

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

namespace h2push::h2 {
namespace {

struct Code {
  std::uint32_t bits;  // right-aligned code
  std::uint8_t len;    // bit length
};

// RFC 7541 Appendix B, symbols 0..256 (256 = EOS).
constexpr std::array<Code, 257> kCodes = {{
    {0x1ff8, 13},     {0x7fffd8, 23},   {0xfffffe2, 28},  {0xfffffe3, 28},
    {0xfffffe4, 28},  {0xfffffe5, 28},  {0xfffffe6, 28},  {0xfffffe7, 28},
    {0xfffffe8, 28},  {0xffffea, 24},   {0x3ffffffc, 30}, {0xfffffe9, 28},
    {0xfffffea, 28},  {0x3ffffffd, 30}, {0xfffffeb, 28},  {0xfffffec, 28},
    {0xfffffed, 28},  {0xfffffee, 28},  {0xfffffef, 28},  {0xffffff0, 28},
    {0xffffff1, 28},  {0xffffff2, 28},  {0x3ffffffe, 30}, {0xffffff3, 28},
    {0xffffff4, 28},  {0xffffff5, 28},  {0xffffff6, 28},  {0xffffff7, 28},
    {0xffffff8, 28},  {0xffffff9, 28},  {0xffffffa, 28},  {0xffffffb, 28},
    {0x14, 6},        {0x3f8, 10},      {0x3f9, 10},      {0xffa, 12},
    {0x1ff9, 13},     {0x15, 6},        {0xf8, 8},        {0x7fa, 11},
    {0x3fa, 10},      {0x3fb, 10},      {0xf9, 8},        {0x7fb, 11},
    {0xfa, 8},        {0x16, 6},        {0x17, 6},        {0x18, 6},
    {0x0, 5},         {0x1, 5},         {0x2, 5},         {0x19, 6},
    {0x1a, 6},        {0x1b, 6},        {0x1c, 6},        {0x1d, 6},
    {0x1e, 6},        {0x1f, 6},        {0x5c, 7},        {0xfb, 8},
    {0x7ffc, 15},     {0x20, 6},        {0xffb, 12},      {0x3fc, 10},
    {0x1ffa, 13},     {0x21, 6},        {0x5d, 7},        {0x5e, 7},
    {0x5f, 7},        {0x60, 7},        {0x61, 7},        {0x62, 7},
    {0x63, 7},        {0x64, 7},        {0x65, 7},        {0x66, 7},
    {0x67, 7},        {0x68, 7},        {0x69, 7},        {0x6a, 7},
    {0x6b, 7},        {0x6c, 7},        {0x6d, 7},        {0x6e, 7},
    {0x6f, 7},        {0x70, 7},        {0x71, 7},        {0x72, 7},
    {0xfc, 8},        {0x73, 7},        {0xfd, 8},        {0x1ffb, 13},
    {0x7fff0, 19},    {0x1ffc, 13},     {0x3ffc, 14},     {0x22, 6},
    {0x7ffd, 15},     {0x3, 5},         {0x23, 6},        {0x4, 5},
    {0x24, 6},        {0x5, 5},         {0x25, 6},        {0x26, 6},
    {0x27, 6},        {0x6, 5},         {0x74, 7},        {0x75, 7},
    {0x28, 6},        {0x29, 6},        {0x2a, 6},        {0x7, 5},
    {0x2b, 6},        {0x76, 7},        {0x2c, 6},        {0x8, 5},
    {0x9, 5},         {0x2d, 6},        {0x77, 7},        {0x78, 7},
    {0x79, 7},        {0x7a, 7},        {0x7b, 7},        {0x7ffe, 15},
    {0x7fc, 11},      {0x3ffd, 14},     {0x1ffd, 13},     {0xffffffc, 28},
    {0xfffe6, 20},    {0x3fffd2, 22},   {0xfffe7, 20},    {0xfffe8, 20},
    {0x3fffd3, 22},   {0x3fffd4, 22},   {0x3fffd5, 22},   {0x7fffd9, 23},
    {0x3fffd6, 22},   {0x7fffda, 23},   {0x7fffdb, 23},   {0x7fffdc, 23},
    {0x7fffdd, 23},   {0x7fffde, 23},   {0xffffeb, 24},   {0x7fffdf, 23},
    {0xffffec, 24},   {0xffffed, 24},   {0x3fffd7, 22},   {0x7fffe0, 23},
    {0xffffee, 24},   {0x7fffe1, 23},   {0x7fffe2, 23},   {0x7fffe3, 23},
    {0x7fffe4, 23},   {0x1fffdc, 21},   {0x3fffd8, 22},   {0x7fffe5, 23},
    {0x3fffd9, 22},   {0x7fffe6, 23},   {0x7fffe7, 23},   {0xffffef, 24},
    {0x3fffda, 22},   {0x1fffdd, 21},   {0xfffe9, 20},    {0x3fffdb, 22},
    {0x3fffdc, 22},   {0x7fffe8, 23},   {0x7fffe9, 23},   {0x1fffde, 21},
    {0x7fffea, 23},   {0x3fffdd, 22},   {0x3fffde, 22},   {0xfffff0, 24},
    {0x1fffdf, 21},   {0x3fffdf, 22},   {0x7fffeb, 23},   {0x7fffec, 23},
    {0x1fffe0, 21},   {0x1fffe1, 21},   {0x3fffe0, 22},   {0x1fffe2, 21},
    {0x7fffed, 23},   {0x3fffe1, 22},   {0x7fffee, 23},   {0x7fffef, 23},
    {0xfffea, 20},    {0x3fffe2, 22},   {0x3fffe3, 22},   {0x3fffe4, 22},
    {0x7ffff0, 23},   {0x3fffe5, 22},   {0x3fffe6, 22},   {0x7ffff1, 23},
    {0x3ffffe0, 26},  {0x3ffffe1, 26},  {0xfffeb, 20},    {0x7fff1, 19},
    {0x3fffe7, 22},   {0x7ffff2, 23},   {0x3fffe8, 22},   {0x1ffffec, 25},
    {0x3ffffe2, 26},  {0x3ffffe3, 26},  {0x3ffffe4, 26},  {0x7ffffde, 27},
    {0x7ffffdf, 27},  {0x3ffffe5, 26},  {0xfffff1, 24},   {0x1ffffed, 25},
    {0x7fff2, 19},    {0x1fffe3, 21},   {0x3ffffe6, 26},  {0x7ffffe0, 27},
    {0x7ffffe1, 27},  {0x3ffffe7, 26},  {0x7ffffe2, 27},  {0xfffff2, 24},
    {0x1fffe4, 21},   {0x1fffe5, 21},   {0x3ffffe8, 26},  {0x3ffffe9, 26},
    {0xffffffd, 28},  {0x7ffffe3, 27},  {0x7ffffe4, 27},  {0x7ffffe5, 27},
    {0xfffec, 20},    {0xfffff3, 24},   {0xfffed, 20},    {0x1fffe6, 21},
    {0x3fffe9, 22},   {0x1fffe7, 21},   {0x1fffe8, 21},   {0x7ffff3, 23},
    {0x3fffea, 22},   {0x3fffeb, 22},   {0x1ffffee, 25},  {0x1ffffef, 25},
    {0xfffff4, 24},   {0xfffff5, 24},   {0x3ffffea, 26},  {0x7ffff4, 23},
    {0x3ffffeb, 26},  {0x7ffffe6, 27},  {0x3ffffec, 26},  {0x3ffffed, 26},
    {0x7ffffe7, 27},  {0x7ffffe8, 27},  {0x7ffffe9, 27},  {0x7ffffea, 27},
    {0x7ffffeb, 27},  {0xffffffe, 28},  {0x7ffffec, 27},  {0x7ffffed, 27},
    {0x7ffffee, 27},  {0x7ffffef, 27},  {0x7fffff0, 27},  {0x3ffffee, 26},
    {0x3fffffff, 30},
}};

// Decoding trie: two children per node; leaves store the symbol. Only used
// once, to build the nibble FSM below — the decode hot path never walks it.
struct TrieNode {
  std::int16_t symbol = -1;  // >= 0 at leaves
  std::unique_ptr<TrieNode> child[2];
};

std::unique_ptr<TrieNode> build_trie() {
  auto r = std::make_unique<TrieNode>();
  for (int sym = 0; sym < 257; ++sym) {
    const Code c = kCodes[static_cast<std::size_t>(sym)];
    TrieNode* node = r.get();
    for (int bit = c.len - 1; bit >= 0; --bit) {
      const int b = static_cast<int>((c.bits >> bit) & 1u);
      if (!node->child[b]) node->child[b] = std::make_unique<TrieNode>();
      node = node->child[b].get();
    }
    node->symbol = static_cast<std::int16_t>(sym);
  }
  return r;
}

// Table-driven decoder: a finite state machine that consumes a nibble per
// step instead of a bit. States are the trie's internal nodes (the partial
// code read so far); each (state, nibble) entry precomputes the next state,
// at most one emitted symbol (the minimum code length is 5 bits, so a
// second code can never complete within the ≤3 bits left after a reset),
// and whether the walk hit EOS or fell off the trie. Padding validity
// becomes a per-state accept bit: the final state must be the root or an
// all-ones prefix of EOS shorter than 8 bits (RFC 7541 §5.2).
struct DecodeTable {
  struct Entry {
    std::uint16_t next = 0;   // state index after the nibble
    std::uint8_t flags = 0;
    std::uint8_t symbol = 0;  // valid when kEmit
  };
  static constexpr std::uint8_t kEmit = 1;  // entry emits `symbol`
  static constexpr std::uint8_t kFail = 2;  // no code matches these bits
  static constexpr std::uint8_t kEos = 4;   // the EOS code completed

  std::vector<Entry> entries;       // states × 16, row-major by state
  std::vector<std::uint8_t> accept;  // per state: valid final padding?
};

const DecodeTable& decode_table() {
  static const DecodeTable table = [] {
    const auto root = build_trie();

    // Index the internal nodes; they are the FSM states, root = state 0.
    std::vector<const TrieNode*> states;
    std::unordered_map<const TrieNode*, std::uint16_t> index;
    const auto add_state = [&](const TrieNode* n) {
      index.emplace(n, static_cast<std::uint16_t>(states.size()));
      states.push_back(n);
    };
    add_state(root.get());
    for (std::size_t i = 0; i < states.size(); ++i) {
      for (const auto& child : states[i]->child) {
        if (child && child->symbol < 0) add_state(child.get());
      }
    }

    DecodeTable t;
    t.entries.resize(states.size() * 16);
    t.accept.assign(states.size(), 0);

    for (std::size_t s = 0; s < states.size(); ++s) {
      for (std::uint32_t nib = 0; nib < 16; ++nib) {
        DecodeTable::Entry e;
        const TrieNode* node = states[s];
        for (int bit = 3; bit >= 0; --bit) {
          const int b = static_cast<int>((nib >> bit) & 1u);
          const TrieNode* next = node->child[b].get();
          if (next == nullptr) {
            e.flags |= DecodeTable::kFail;
            break;
          }
          if (next->symbol == 256) {
            e.flags |= DecodeTable::kEos;
            break;
          }
          if (next->symbol >= 0) {
            e.flags |= DecodeTable::kEmit;
            e.symbol = static_cast<std::uint8_t>(next->symbol);
            node = root.get();
          } else {
            node = next;
          }
        }
        e.next = index.at(node);
        t.entries[s * 16 + nib] = e;
      }
    }

    // Accept states: the root, and every all-ones path of depth 1..7 (a
    // prefix of the 30-one EOS code — padding longer than 7 bits is an
    // error even when all ones).
    const TrieNode* node = root.get();
    t.accept[0] = 1;
    for (int depth = 1; depth <= 7; ++depth) {
      node = node->child[1].get();
      t.accept[index.at(node)] = 1;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::size_t huffman_encoded_size(std::string_view s) noexcept {
  std::size_t bits = 0;
  for (unsigned char c : s) bits += kCodes[c].len;
  return (bits + 7) / 8;
}

void huffman_encode(std::string_view s, std::vector<std::uint8_t>& out) {
  std::uint64_t acc = 0;
  int acc_bits = 0;
  for (unsigned char ch : s) {
    const Code c = kCodes[ch];
    acc = (acc << c.len) | c.bits;
    acc_bits += c.len;
    while (acc_bits >= 8) {
      acc_bits -= 8;
      out.push_back(static_cast<std::uint8_t>((acc >> acc_bits) & 0xff));
    }
  }
  if (acc_bits > 0) {
    // Pad with the most significant bits of EOS (all ones).
    const int pad = 8 - acc_bits;
    acc = (acc << pad) | ((1u << pad) - 1);
    out.push_back(static_cast<std::uint8_t>(acc & 0xff));
  }
}

util::Expected<std::string, std::string> huffman_decode(
    std::span<const std::uint8_t> input) {
  std::string out;
  auto n = huffman_decode_into(input, out);
  if (!n) return util::make_unexpected(n.error());
  return out;
}

namespace {

// Decode `input` into `dst`, which has room for 2 * input.size() symbols:
// every code is at least 5 bits long, so each nibble completes at most one
// symbol. Returns the number of symbols written.
util::Expected<std::size_t, std::string> decode_symbols(
    std::span<const std::uint8_t> input, char* dst) {
  const DecodeTable& table = decode_table();
  const DecodeTable::Entry* entries = table.entries.data();
  char* const begin = dst;
  std::uint32_t state = 0;
  for (std::uint8_t byte : input) {
    const DecodeTable::Entry hi = entries[state * 16 + (byte >> 4)];
    if (hi.flags & (DecodeTable::kFail | DecodeTable::kEos)) {
      return util::make_unexpected(hi.flags & DecodeTable::kEos
                                       ? "huffman: EOS in stream"
                                       : "huffman: invalid code");
    }
    if (hi.flags & DecodeTable::kEmit) *dst++ = static_cast<char>(hi.symbol);
    const DecodeTable::Entry lo = entries[hi.next * 16 + (byte & 0xf)];
    if (lo.flags & (DecodeTable::kFail | DecodeTable::kEos)) {
      return util::make_unexpected(lo.flags & DecodeTable::kEos
                                       ? "huffman: EOS in stream"
                                       : "huffman: invalid code");
    }
    if (lo.flags & DecodeTable::kEmit) *dst++ = static_cast<char>(lo.symbol);
    state = lo.next;
  }
  if (!table.accept[state]) {
    return util::make_unexpected("huffman: invalid padding");
  }
  return static_cast<std::size_t>(dst - begin);
}

}  // namespace

util::Expected<std::size_t, std::string> huffman_decode_into(
    std::span<const std::uint8_t> input, std::string& out) {
  if (input.size() <= 64) {
    // Short literals decode on the stack first, so a result that fits the
    // string's inline buffer never touches the heap.
    char buf[128];
    auto n = decode_symbols(input, buf);
    if (n) out.append(buf, *n);
    return n;
  }
  const std::size_t start = out.size();
  out.resize(start + input.size() * 2);
  auto n = decode_symbols(input, out.data() + start);
  out.resize(start + (n ? *n : 0));
  return n;
}

}  // namespace h2push::h2
