// Frame codec tests: serialization round trips for all frame types,
// incremental parsing across arbitrary chunk boundaries, CONTINUATION
// reassembly, and protocol error cases.
#include <gtest/gtest.h>

#include "h2/frame.h"
#include "fuzz/gen_frame.h"
#include "h2/cache_digest.h"
#include "util/rng.h"

namespace h2push::h2 {
namespace {

/// Collects the callback parse, DATA views copied while they are valid.
struct Recorder final : FrameParser::Handler {
  std::vector<Frame> frames;
  bool on_data(const DataView& f) override {
    frames.emplace_back(DataFrame{f.stream_id, f.end_stream,
                                  {f.data.begin(), f.data.end()},
                                  f.padding_bytes});
    return true;
  }
  bool on_frame(Frame&& f) override {
    frames.push_back(std::move(f));
    return true;
  }
};

/// Cut [0, size) into random chunks of 1..max_chunk bytes.
std::vector<std::size_t> random_cuts(util::Rng& rng, std::size_t size,
                                     std::int64_t max_chunk) {
  std::vector<std::size_t> cuts;
  for (std::size_t pos = 0; pos < size;) {
    pos = std::min(size, pos + static_cast<std::size_t>(
                                   rng.uniform_int(1, max_chunk)));
    cuts.push_back(pos);
  }
  return cuts;
}

std::vector<Frame> parse_all(std::span<const std::uint8_t> wire) {
  FrameParser parser;
  auto frames = parser.feed(wire);
  EXPECT_TRUE(frames.has_value());
  return frames.has_value() ? std::move(*frames) : std::vector<Frame>{};
}

TEST(FrameCodec, DataRoundTrip) {
  DataFrame f;
  f.stream_id = 7;
  f.end_stream = true;
  f.data = {1, 2, 3, 4, 5};
  const auto frames = parse_all(serialize(Frame{f}));
  ASSERT_EQ(frames.size(), 1u);
  const auto& d = std::get<DataFrame>(frames[0]);
  EXPECT_EQ(d.stream_id, 7u);
  EXPECT_TRUE(d.end_stream);
  EXPECT_EQ(d.data, f.data);
}

TEST(FrameCodec, HeadersWithPriorityRoundTrip) {
  HeadersFrame f;
  f.stream_id = 3;
  f.end_stream = false;
  f.priority = PrioritySpec{1, 220, true};
  f.header_block = {0x82, 0x87};
  const auto frames = parse_all(serialize(Frame{f}));
  ASSERT_EQ(frames.size(), 1u);
  const auto& h = std::get<HeadersFrame>(frames[0]);
  EXPECT_EQ(h.stream_id, 3u);
  ASSERT_TRUE(h.priority.has_value());
  EXPECT_EQ(h.priority->depends_on, 1u);
  EXPECT_EQ(h.priority->weight, 220);
  EXPECT_TRUE(h.priority->exclusive);
  EXPECT_EQ(h.header_block, f.header_block);
}

TEST(FrameCodec, WeightBoundsRoundTrip) {
  for (std::uint16_t weight : {1, 16, 255, 256}) {
    PriorityFrame f;
    f.stream_id = 5;
    f.priority = PrioritySpec{0, weight, false};
    const auto frames = parse_all(serialize(Frame{f}));
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(std::get<PriorityFrame>(frames[0]).priority.weight, weight);
  }
}

TEST(FrameCodec, LargeHeaderBlockSplitsIntoContinuations) {
  HeadersFrame f;
  f.stream_id = 9;
  f.end_stream = true;
  f.header_block.assign(40000, 0x42);  // > 2 frames at 16384
  const auto wire = serialize(Frame{f});
  // Count CONTINUATION frames on the wire: type byte at offset 3.
  int continuations = 0;
  std::size_t pos = 0;
  while (pos + 9 <= wire.size()) {
    const std::size_t len = (static_cast<std::size_t>(wire[pos]) << 16) |
                            (static_cast<std::size_t>(wire[pos + 1]) << 8) |
                            wire[pos + 2];
    if (wire[pos + 3] == 0x9) ++continuations;
    pos += 9 + len;
  }
  EXPECT_EQ(continuations, 2);
  const auto frames = parse_all(wire);
  ASSERT_EQ(frames.size(), 1u);  // reassembled
  const auto& h = std::get<HeadersFrame>(frames[0]);
  EXPECT_EQ(h.header_block.size(), 40000u);
  EXPECT_TRUE(h.end_stream);
}

TEST(FrameCodec, PushPromiseRoundTrip) {
  PushPromiseFrame f;
  f.stream_id = 1;
  f.promised_id = 2;
  f.header_block = {0x82, 0x84, 0x86};
  const auto frames = parse_all(serialize(Frame{f}));
  ASSERT_EQ(frames.size(), 1u);
  const auto& p = std::get<PushPromiseFrame>(frames[0]);
  EXPECT_EQ(p.stream_id, 1u);
  EXPECT_EQ(p.promised_id, 2u);
  EXPECT_EQ(p.header_block, f.header_block);
}

TEST(FrameCodec, SettingsRoundTrip) {
  SettingsFrame f;
  f.settings = {{SettingsId::kEnablePush, 0},
                {SettingsId::kInitialWindowSize, 6 * 1024 * 1024},
                {SettingsId::kMaxFrameSize, 16384}};
  const auto frames = parse_all(serialize(Frame{f}));
  ASSERT_EQ(frames.size(), 1u);
  const auto& s = std::get<SettingsFrame>(frames[0]);
  EXPECT_FALSE(s.ack);
  ASSERT_EQ(s.settings.size(), 3u);
  EXPECT_EQ(s.settings[0].first, SettingsId::kEnablePush);
  EXPECT_EQ(s.settings[1].second, 6u * 1024 * 1024);
}

TEST(FrameCodec, SettingsAckRoundTrip) {
  SettingsFrame f;
  f.ack = true;
  const auto frames = parse_all(serialize(Frame{f}));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(std::get<SettingsFrame>(frames[0]).ack);
}

TEST(FrameCodec, RstGoawayWindowUpdatePingRoundTrip) {
  std::vector<Frame> inputs;
  inputs.emplace_back(RstStreamFrame{5, ErrorCode::kCancel});
  inputs.emplace_back(GoawayFrame{17, ErrorCode::kProtocolError, "bye"});
  inputs.emplace_back(WindowUpdateFrame{0, 1048576});
  inputs.emplace_back(PingFrame{false, 0xDEADBEEFCAFEF00DULL});
  std::vector<std::uint8_t> wire;
  for (const auto& f : inputs) {
    const auto bytes = serialize(f);
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  const auto frames = parse_all(wire);
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(std::get<RstStreamFrame>(frames[0]).error, ErrorCode::kCancel);
  EXPECT_EQ(std::get<GoawayFrame>(frames[1]).debug_data, "bye");
  EXPECT_EQ(std::get<GoawayFrame>(frames[1]).last_stream_id, 17u);
  EXPECT_EQ(std::get<WindowUpdateFrame>(frames[2]).increment, 1048576u);
  EXPECT_EQ(std::get<PingFrame>(frames[3]).opaque, 0xDEADBEEFCAFEF00DULL);
}

TEST(FrameParser, HandlesArbitraryChunking) {
  // A realistic mixed frame sequence fed one byte at a time.
  std::vector<std::uint8_t> wire;
  for (const Frame& f : std::initializer_list<Frame>{
           Frame{SettingsFrame{false, {{SettingsId::kEnablePush, 1}}}},
           Frame{HeadersFrame{1, true, std::nullopt, {0x82, 0x84}}},
           Frame{DataFrame{1, false, std::vector<std::uint8_t>(5000, 1)}},
           Frame{DataFrame{1, true, std::vector<std::uint8_t>(100, 2)}}}) {
    const auto bytes = serialize(f);
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  util::Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    FrameParser parser;
    std::vector<Frame> collected;
    std::size_t pos = 0;
    while (pos < wire.size()) {
      const std::size_t n = std::min<std::size_t>(
          static_cast<std::size_t>(rng.uniform_int(1, 700)),
          wire.size() - pos);
      auto frames = parser.feed({wire.data() + pos, n});
      ASSERT_TRUE(frames.has_value());
      for (auto& f : *frames) collected.push_back(std::move(f));
      pos += n;
    }
    ASSERT_EQ(collected.size(), 4u);
    EXPECT_EQ(std::get<DataFrame>(collected[2]).data.size(), 5000u);
    EXPECT_TRUE(std::get<DataFrame>(collected[3]).end_stream);
  }
}

TEST(FrameParser, RejectsOversizedFrame) {
  FrameParser parser;
  std::vector<std::uint8_t> wire{0x01, 0x00, 0x00,  // 65536
                                 0x00, 0x00, 0x00, 0x00, 0x00, 0x01};
  EXPECT_FALSE(parser.feed(wire).has_value());
}

TEST(FrameParser, RejectsDataOnStreamZero) {
  DataFrame f;
  f.stream_id = 0;
  f.data = {1};
  auto wire = serialize(Frame{f});
  FrameParser parser;
  EXPECT_FALSE(parser.feed(wire).has_value());
}

TEST(FrameParser, RejectsInterleavedFrameDuringContinuation) {
  HeadersFrame f;
  f.stream_id = 3;
  f.header_block.assign(20000, 0x1);  // forces CONTINUATION
  auto wire = serialize(Frame{f});
  // Truncate to just the first HEADERS frame and append a PING.
  const std::size_t first_len = 16384 + 9;
  wire.resize(first_len);
  const auto ping = serialize(Frame{PingFrame{false, 1}});
  wire.insert(wire.end(), ping.begin(), ping.end());
  FrameParser parser;
  EXPECT_FALSE(parser.feed(wire).has_value());
}

TEST(FrameParser, RejectsZeroWindowIncrement) {
  std::vector<std::uint8_t> wire{0x00, 0x00, 0x04, 0x08, 0x00,
                                 0x00, 0x00, 0x00, 0x01, 0x00,
                                 0x00, 0x00, 0x00};
  FrameParser parser;
  EXPECT_FALSE(parser.feed(wire).has_value());
}

TEST(FrameParser, SurfacesUnknownFrameTypesAsExtensions) {
  std::vector<std::uint8_t> wire{0x00, 0x00, 0x02, 0x77, 0x09,
                                 0x00, 0x00, 0x00, 0x01, 0xAA, 0xBB};
  const auto ping = serialize(Frame{PingFrame{false, 5}});
  wire.insert(wire.end(), ping.begin(), ping.end());
  FrameParser parser;
  auto frames = parser.feed(wire);
  ASSERT_TRUE(frames.has_value());
  ASSERT_EQ(frames->size(), 2u);
  const auto& ext = std::get<ExtensionFrame>((*frames)[0]);
  EXPECT_EQ(ext.type, 0x77);
  EXPECT_EQ(ext.flags, 0x09);
  EXPECT_EQ(ext.stream_id, 1u);
  EXPECT_EQ(ext.payload, (std::vector<std::uint8_t>{0xAA, 0xBB}));
  EXPECT_EQ(std::get<PingFrame>((*frames)[1]).opaque, 5u);
}

TEST(FrameCodec, ExtensionFrameRoundTrips) {
  ExtensionFrame f;
  f.type = kCacheDigestFrameType;
  f.flags = 0x1;
  f.stream_id = 0;
  f.payload = {0x05, 0x07, 0x80};
  const auto frames = parse_all(serialize(Frame{f}));
  ASSERT_EQ(frames.size(), 1u);
  const auto& e = std::get<ExtensionFrame>(frames[0]);
  EXPECT_EQ(e.type, kCacheDigestFrameType);
  EXPECT_EQ(e.payload, f.payload);
}

TEST(FrameParser, CallbackParseMatchesFeedAcrossChunkings) {
  // 200 seeds of random frame sequences, some DATA frames padded, each cut
  // into two independent random chunkings: feed() over one and the
  // callback parse over the other yield the same frames in the same order,
  // DATA compared by bytes.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    fuzz::Random gen(seed);
    util::Rng rng(seed ^ 0x5eed);
    std::vector<std::uint8_t> wire;
    std::size_t expected = 0;
    const auto count = static_cast<std::size_t>(gen.range(1, 40));
    for (std::size_t i = 0; i < count; ++i, ++expected) {
      if (gen.chance(0.15)) {
        // Padded DATA: the serializer never pads, so build it raw.
        auto payload = gen.bytes(1, 3000);
        const auto pad = static_cast<std::uint8_t>(gen.range(0, 40));
        payload[0] = pad;
        payload.insert(payload.end(), pad, 0);
        fuzz::append_raw_frame(wire,
                               static_cast<std::uint32_t>(payload.size()),
                               0x0, kFlagPadded, 7, payload);
        continue;
      }
      serialize_into(fuzz::random_valid_frame(gen), wire);
    }
    const std::int64_t max_chunk = seed % 2 == 0 ? 64 : 4000;

    FrameParser fed;
    std::vector<Frame> via_feed;
    std::size_t pos = 0;
    for (const std::size_t cut : random_cuts(rng, wire.size(), max_chunk)) {
      auto frames = fed.feed({wire.data() + pos, cut - pos});
      ASSERT_TRUE(frames.has_value()) << "seed " << seed;
      for (auto& f : *frames) via_feed.push_back(std::move(f));
      pos = cut;
    }

    FrameParser parsed;
    Recorder via_parse;
    pos = 0;
    for (const std::size_t cut : random_cuts(rng, wire.size(), max_chunk)) {
      ASSERT_FALSE(parsed.parse({wire.data() + pos, cut - pos}, via_parse))
          << "seed " << seed;
      pos = cut;
    }

    ASSERT_EQ(via_feed.size(), expected) << "seed " << seed;
    EXPECT_TRUE(via_feed == via_parse.frames) << "seed " << seed;
  }
}

TEST(FrameParser, FramesBeforeAMalformedOneAreHandledFirst) {
  // SETTINGS, PING, then DATA on stream 0 (a connection error), in one
  // chunk. The callback parse hands over the two good frames before it
  // reports the error, in wire order (RFC 7540 §5.4.1); feed() returns
  // only the error; and the parser stays poisoned.
  std::vector<std::uint8_t> wire;
  serialize_into(Frame{SettingsFrame{false, {{SettingsId::kEnablePush, 0}}}},
                 wire);
  serialize_into(Frame{PingFrame{false, 42}}, wire);
  const std::uint8_t payload[] = {1, 2, 3};
  fuzz::append_raw_frame(wire, 3, 0x0, 0, 0, payload);

  FrameParser parser;
  Recorder recorder;
  const auto error = parser.parse(wire, recorder);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, ErrorCode::kProtocolError);
  ASSERT_EQ(recorder.frames.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<SettingsFrame>(recorder.frames[0]));
  EXPECT_EQ(std::get<PingFrame>(recorder.frames[1]).opaque, 42u);

  const auto ping = serialize(Frame{PingFrame{false, 43}});
  EXPECT_TRUE(parser.parse(ping, recorder).has_value());
  EXPECT_EQ(recorder.frames.size(), 2u);

  FrameParser fed;
  EXPECT_FALSE(fed.feed(wire).has_value());
}

TEST(FrameParser, HandlerCanStopTheParse) {
  std::vector<std::uint8_t> wire;
  for (std::uint64_t i = 0; i < 3; ++i) {
    serialize_into(Frame{PingFrame{false, i}}, wire);
  }
  struct StopAfterFirst final : FrameParser::Handler {
    int seen = 0;
    bool on_data(const DataView&) override { return false; }
    bool on_frame(Frame&&) override { return ++seen < 1; }
  } handler;
  FrameParser parser;
  EXPECT_FALSE(parser.parse(wire, handler).has_value());
  EXPECT_EQ(handler.seen, 1);
}

TEST(FrameCodec, ClientPrefaceIs24Bytes) {
  const auto preface = client_preface();
  EXPECT_EQ(preface.size(), 24u);
  EXPECT_EQ(std::string(preface.begin(), preface.begin() + 3), "PRI");
}

}  // namespace
}  // namespace h2push::h2
