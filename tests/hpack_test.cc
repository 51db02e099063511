// HPACK unit + property tests: integer coding, Huffman, static/dynamic
// tables, encoder/decoder round trips, and RFC 7541 error cases.
#include <gtest/gtest.h>

#include <deque>

#include "h2/hpack.h"
#include "h2/hpack_huffman.h"
#include "util/rng.h"

namespace h2push::h2 {
namespace {

// ---------------------------------------------------------------- integers

TEST(HpackInt, EncodesSmallValueInPrefix) {
  std::vector<std::uint8_t> out;
  hpack_encode_int(10, 5, 0x00, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 10);
}

TEST(HpackInt, Rfc7541ExampleC11) {
  // C.1.1: encoding 10 with a 5-bit prefix.
  std::vector<std::uint8_t> out;
  hpack_encode_int(10, 5, 0, out);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0x0a}));
}

TEST(HpackInt, Rfc7541ExampleC12) {
  // C.1.2: encoding 1337 with a 5-bit prefix → 1f 9a 0a.
  std::vector<std::uint8_t> out;
  hpack_encode_int(1337, 5, 0, out);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{0x1f, 0x9a, 0x0a}));
}

TEST(HpackInt, PreservesFlagBits) {
  std::vector<std::uint8_t> out;
  hpack_encode_int(3, 6, 0x40, out);
  EXPECT_EQ(out[0], 0x43);
}

TEST(HpackInt, DecodeTruncatedFails) {
  const std::vector<std::uint8_t> bytes{0x1f};  // continuation expected
  std::size_t pos = 0;
  EXPECT_FALSE(hpack_decode_int(bytes, pos, 5).has_value());
}

TEST(HpackInt, DecodeOverflowFails) {
  std::vector<std::uint8_t> bytes{0x1f};
  for (int i = 0; i < 12; ++i) bytes.push_back(0xff);
  bytes.push_back(0x7f);
  std::size_t pos = 0;
  EXPECT_FALSE(hpack_decode_int(bytes, pos, 5).has_value());
}

class HpackIntRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(HpackIntRoundTrip, RoundTripsAcrossPrefixSizes) {
  const int prefix = GetParam();
  util::Rng rng(0x1234 + static_cast<std::uint64_t>(prefix));
  for (int i = 0; i < 500; ++i) {
    const auto value =
        static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000'000));
    std::vector<std::uint8_t> out;
    hpack_encode_int(value, prefix, 0, out);
    std::size_t pos = 0;
    auto decoded = hpack_decode_int(out, pos, prefix);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, value);
    EXPECT_EQ(pos, out.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrefixes, HpackIntRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ----------------------------------------------------------------- huffman

TEST(Huffman, EncodesRfcExample) {
  // RFC 7541 C.4.1: "www.example.com" → f1e3 c2e5 f23a 6ba0 ab90 f4ff.
  std::vector<std::uint8_t> out;
  huffman_encode("www.example.com", out);
  const std::vector<std::uint8_t> expected{0xf1, 0xe3, 0xc2, 0xe5, 0xf2, 0x3a,
                                           0x6b, 0xa0, 0xab, 0x90, 0xf4, 0xff};
  EXPECT_EQ(out, expected);
}

TEST(Huffman, DecodesRfcExample) {
  const std::vector<std::uint8_t> wire{0xf1, 0xe3, 0xc2, 0xe5, 0xf2, 0x3a,
                                       0x6b, 0xa0, 0xab, 0x90, 0xf4, 0xff};
  auto decoded = huffman_decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, "www.example.com");
}

TEST(Huffman, EncodedSizeMatchesEncoding) {
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    std::string s;
    const auto len = rng.uniform_int(0, 64);
    for (int j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    std::vector<std::uint8_t> out;
    huffman_encode(s, out);
    EXPECT_EQ(out.size(), huffman_encoded_size(s));
  }
}

TEST(Huffman, RoundTripsArbitraryBytes) {
  util::Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    std::string s;
    const auto len = rng.uniform_int(0, 200);
    for (int j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    }
    std::vector<std::uint8_t> out;
    huffman_encode(s, out);
    auto decoded = huffman_decode(out);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, s);
  }
}

TEST(Huffman, RejectsBadPadding) {
  // A full byte of zero bits cannot be EOS padding.
  const std::vector<std::uint8_t> bad{0x00};
  // 0x00 decodes '0' after 5 bits then 3 zero-bits padding → invalid
  // padding (must be all ones).
  auto result = huffman_decode(bad);
  EXPECT_FALSE(result.has_value());
}

// ------------------------------------------------------------ dynamic table

TEST(HpackDynamicTable, EvictsOldestWhenFull) {
  HpackDynamicTable table(100);
  table.add("aaaa", "bbbb");  // 8 + 32 = 40
  table.add("cccc", "dddd");  // 40 (total 80)
  table.add("eeee", "ffff");  // would exceed: evict the oldest
  EXPECT_EQ(table.entry_count(), 2u);
  EXPECT_EQ(table.at(0).name, "eeee");
  EXPECT_EQ(table.at(1).name, "cccc");
}

TEST(HpackDynamicTable, OversizedEntryClearsTable) {
  HpackDynamicTable table(50);
  table.add("a", "b");
  table.add(std::string(100, 'x'), "y");
  EXPECT_EQ(table.entry_count(), 0u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(HpackDynamicTable, SetMaxSizeEvicts) {
  HpackDynamicTable table(200);
  table.add("aaaa", "bbbb");
  table.add("cccc", "dddd");
  table.set_max_size(50);
  EXPECT_EQ(table.entry_count(), 1u);
  EXPECT_EQ(table.at(0).name, "cccc");
}

// ----------------------------------------------------------- encode/decode

http::HeaderBlock request_headers() {
  return {{":method", "GET"},
          {":scheme", "https"},
          {":authority", "www.example.org"},
          {":path", "/static/app.js"},
          {"accept-encoding", "gzip, deflate"},
          {"user-agent", "h2push-test/1.0"}};
}

TEST(Hpack, RoundTripsSimpleBlock) {
  HpackEncoder encoder;
  HpackDecoder decoder;
  const auto block = request_headers();
  const auto wire = encoder.encode(block);
  auto decoded = decoder.decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, block);
}

TEST(Hpack, SecondEncodingIsSmaller) {
  HpackEncoder encoder;
  const auto block = request_headers();
  const auto first = encoder.encode(block);
  const auto second = encoder.encode(block);
  EXPECT_LT(second.size(), first.size());  // indexed representations
  // And a shared decoder still reproduces both.
  HpackDecoder decoder;
  auto d1 = decoder.decode(first);
  auto d2 = decoder.decode(second);
  ASSERT_TRUE(d1.has_value());
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(*d1, block);
  EXPECT_EQ(*d2, block);
}

TEST(Hpack, StaticTableExactMatchIsOneByte) {
  HpackEncoder encoder;
  const auto wire = encoder.encode({{":method", "GET"}});
  ASSERT_EQ(wire.size(), 1u);
  EXPECT_EQ(wire[0], 0x82);  // static index 2
}

TEST(Hpack, DecoderRejectsIndexOutOfRange) {
  HpackDecoder decoder;
  const std::vector<std::uint8_t> wire{0xff, 0x7f};  // huge index
  EXPECT_FALSE(decoder.decode(wire).has_value());
}

TEST(Hpack, DecoderRejectsSizeUpdateAboveSettingsCap) {
  HpackDecoder decoder;
  decoder.set_max_table_size(4096);
  std::vector<std::uint8_t> wire;
  hpack_encode_int(65536, 5, 0x20, wire);
  EXPECT_FALSE(decoder.decode(wire).has_value());
}

TEST(Hpack, DecoderRejectsSizeUpdateAfterHeader) {
  HpackEncoder encoder;
  auto wire = encoder.encode({{":method", "GET"}});
  hpack_encode_int(1024, 5, 0x20, wire);  // size update after a field
  HpackDecoder decoder;
  EXPECT_FALSE(decoder.decode(wire).has_value());
}

TEST(Hpack, TableSizeUpdateRoundTrips) {
  HpackEncoder encoder;
  HpackDecoder decoder;
  (void)encoder.encode(request_headers());
  encoder.set_table_size(128);
  const auto wire = encoder.encode(request_headers());
  auto decoded = decoder.decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, request_headers());
  EXPECT_LE(decoder.table().max_size(), 128u);
}

struct FuzzCase {
  std::uint64_t seed;
};

class HpackFuzzRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(HpackFuzzRoundTrip, RandomHeaderBlocksSurviveSharedState) {
  util::Rng rng(0xABCDEF + static_cast<std::uint64_t>(GetParam()));
  HpackEncoder encoder(1024);
  HpackDecoder decoder(1024);
  for (int block_i = 0; block_i < 50; ++block_i) {
    http::HeaderBlock block;
    const auto n = rng.uniform_int(1, 12);
    for (int f = 0; f < n; ++f) {
      std::string name, value;
      const auto name_len = rng.uniform_int(1, 20);
      for (int c = 0; c < name_len; ++c) {
        name.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
      }
      const auto value_len = rng.uniform_int(0, 60);
      for (int c = 0; c < value_len; ++c) {
        value.push_back(static_cast<char>(rng.uniform_int(32, 126)));
      }
      block.push_back({std::move(name), std::move(value)});
    }
    const auto wire = encoder.encode(block, rng.bernoulli(0.5));
    auto decoded = decoder.decode(wire);
    ASSERT_TRUE(decoded.has_value()) << decoded.error();
    EXPECT_EQ(*decoded, block);
    // Encoder and decoder dynamic tables stay in lockstep.
    EXPECT_EQ(encoder.table().size(), decoder.table().size());
    EXPECT_EQ(encoder.table().entry_count(), decoder.table().entry_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HpackFuzzRoundTrip, ::testing::Range(0, 8));

// --- differential check against the linear-scan encoder ------------------

// The encoder as it was before its tables were indexed: a FIFO of owned
// entries searched front to back, and a linear static-table scan. Kept
// here only as the reference the indexed encoder must match byte for byte.
class ReferenceEncoder {
 public:
  explicit ReferenceEncoder(std::size_t max_size) : max_size_(max_size) {}

  void set_table_size(std::size_t max) {
    max_size_ = max;
    evict_to(max_size_);
    pending_size_update_ = true;
    pending_size_ = max;
  }

  std::vector<std::uint8_t> encode(const http::HeaderBlock& block,
                                   bool use_huffman) {
    std::vector<std::uint8_t> out;
    if (pending_size_update_) {
      hpack_encode_int(pending_size_, 5, 0x20, out);
      pending_size_update_ = false;
    }
    const std::size_t statics = hpack_static_table_size();
    for (const auto& h : block) {
      std::size_t static_name = 0;
      std::size_t static_exact = 0;
      for (std::size_t i = 1; i <= statics; ++i) {
        const auto [name, value] = hpack_static_at(i);
        if (name != h.name) continue;
        if (static_name == 0) static_name = i;
        if (value == h.value) {
          static_exact = i;
          break;
        }
      }
      if (static_exact != 0) {
        hpack_encode_int(static_exact, 7, 0x80, out);
        continue;
      }
      std::size_t dyn_name = kNone;
      std::size_t dyn_exact = kNone;
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].name != h.name) continue;
        if (dyn_name == kNone) dyn_name = i;
        if (entries_[i].value == h.value) {
          dyn_exact = i;
          break;
        }
      }
      if (dyn_exact != kNone) {
        hpack_encode_int(statics + 1 + dyn_exact, 7, 0x80, out);
        continue;
      }
      if (static_name != 0) {
        hpack_encode_int(static_name, 6, 0x40, out);
      } else if (dyn_name != kNone) {
        hpack_encode_int(statics + 1 + dyn_name, 6, 0x40, out);
      } else {
        out.push_back(0x40);
        encode_string(h.name, use_huffman, out);
      }
      encode_string(h.value, use_huffman, out);
      add(h);
    }
    return out;
  }

  std::size_t entry_count() const { return entries_.size(); }
  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  static void encode_string(const std::string& s, bool use_huffman,
                            std::vector<std::uint8_t>& out) {
    if (use_huffman && huffman_encoded_size(s) <= s.size()) {
      hpack_encode_int(huffman_encoded_size(s), 7, 0x80, out);
      huffman_encode(s, out);
      return;
    }
    hpack_encode_int(s.size(), 7, 0x00, out);
    out.insert(out.end(), s.begin(), s.end());
  }

  void add(const http::Header& h) {
    const std::size_t entry_size = h.name.size() + h.value.size() + 32;
    if (entry_size > max_size_) {
      evict_to(0);
      return;
    }
    evict_to(max_size_ - entry_size);
    size_ += entry_size;
    entries_.push_front(h);
  }

  void evict_to(std::size_t limit) {
    while (size_ > limit && !entries_.empty()) {
      const auto& oldest = entries_.back();
      size_ -= oldest.name.size() + oldest.value.size() + 32;
      entries_.pop_back();
    }
  }

  std::deque<http::Header> entries_;  // front = newest
  std::size_t size_ = 0;
  std::size_t max_size_;
  bool pending_size_update_ = false;
  std::size_t pending_size_ = 0;
};

// Header blocks drawn from small pools, so names and whole fields repeat
// (duplicate table entries, name-only hits, static names with new values),
// through small tables that evict constantly, with size updates between
// blocks. The indexed encoder must emit the reference's bytes, and a
// decoder must read them back.
TEST(Hpack, IndexedEncoderMatchesLinearScanReference) {
  const std::vector<std::string> names{
      ":path",  ":authority", "content-type", "etag", "cache-control",
      "x-a",    "x-b",        "x-longer-custom-header-name", "accept"};
  const std::vector<std::string> values{"",     "/",        "a",
                                        "text/html",      "no-cache",
                                        "/images/logo.png", "v1", "v2",
                                        "a-much-longer-value-for-eviction"};
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    util::Rng rng(0x5eed0000 + seed);
    const std::size_t table = rng.bernoulli(0.5) ? 4096 : 256;
    HpackEncoder encoder(table);
    ReferenceEncoder reference(table);
    HpackDecoder decoder(table);
    for (int block_i = 0; block_i < 200; ++block_i) {
      if (rng.bernoulli(0.05)) {
        const auto size =
            static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(table)));
        encoder.set_table_size(size);
        reference.set_table_size(size);
      }
      http::HeaderBlock block;
      for (int f = rng.uniform_int(1, 10); f > 0; --f) {
        block.push_back(
            {names[static_cast<std::size_t>(
                 rng.uniform_int(0, static_cast<int>(names.size()) - 1))],
             values[static_cast<std::size_t>(
                 rng.uniform_int(0, static_cast<int>(values.size()) - 1))]});
      }
      const bool huffman = rng.bernoulli(0.5);
      const auto wire = encoder.encode(block, huffman);
      ASSERT_EQ(wire, reference.encode(block, huffman))
          << "seed " << seed << " block " << block_i;
      ASSERT_EQ(encoder.table().entry_count(), reference.entry_count());
      ASSERT_EQ(encoder.table().size(), reference.size());
      auto decoded = decoder.decode(wire);
      ASSERT_TRUE(decoded.has_value()) << decoded.error();
      ASSERT_EQ(*decoded, block);
    }
  }
}

}  // namespace
}  // namespace h2push::h2
