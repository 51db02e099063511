// Adversarial-peer conformance suite for h2::Connection (server role).
//
// Named tests assert the exact RFC 7540 §7 error code for each class of
// malformed input — these are the regression tests for bugs the fuzzers
// surfaced (see tests/corpus/connection/seeds.txt for the trajectories
// that found them). The seeded mini-fuzz tests then run generated valid
// traffic, mutated traffic, and frame soup through the full harness:
// never crash, never hang, never leak a stream, never emit unparseable
// bytes, accounting invariants hold after every chunk.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/gen_frame.h"
#include "fuzz/harness.h"
#include "fuzz/mutate.h"
#include "fuzz/random.h"
#include "fuzz_common.h"
#include "h2/connection.h"
#include "h2/frame.h"
#include "h2/hpack.h"

namespace h2push {
namespace {

using fuzz::Random;
using fuzz_test::iterations;
using fuzz_test::seed_msg;
using h2::ErrorCode;

/// Deterministic single-shot probe: feed a crafted wire image in one
/// receive() call, drain the server, record what it answered with.
struct ServerProbe {
  std::vector<std::pair<std::uint32_t, ErrorCode>> resets;
  bool sent_goaway = false;
  ErrorCode goaway_code = ErrorCode::kNoError;
  std::size_t headers_seen = 0;
  std::vector<std::string> paths;  // :path of every request block handled
  std::vector<std::pair<std::uint32_t, ErrorCode>> resets_received;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> window_updates;
  std::vector<std::uint32_t> data_streams;  // stream of every DATA sent
  std::size_t data_bytes = 0;                // payload of every DATA sent
  std::size_t produced = 0;
  h2::FrameParser out_parser;
  h2::Connection conn;

  ServerProbe()
      : conn(
            [] {
              h2::Connection::Config cfg;
              cfg.role = h2::Role::kServer;
              return cfg;
            }(),
            [this] {
              h2::Connection::Callbacks cbs;
              cbs.on_headers = [this](std::uint32_t,
                                      http::HeaderBlock headers, bool) {
                ++headers_seen;
                paths.emplace_back(http::find_header(headers, ":path"));
              };
              cbs.on_rst = [this](std::uint32_t stream, ErrorCode code) {
                resets_received.emplace_back(stream, code);
              };
              return cbs;
            }()) {
    conn.start();
    drain();
  }

  void feed(const std::vector<std::uint8_t>& bytes) {
    conn.receive(bytes);
    drain();
  }

  void drain() {
    while (conn.want_write()) {
      const auto bytes = conn.produce(1 << 16);
      if (bytes.empty()) break;
      produced += bytes.size();
      ASSERT_LT(produced, 32u << 20) << "server produce() never settles";
      auto frames = out_parser.feed(bytes);
      ASSERT_TRUE(frames.has_value())
          << "server emitted unparseable bytes: " << frames.error().message;
      for (const auto& frame : *frames) {
        if (const auto* goaway = std::get_if<h2::GoawayFrame>(&frame)) {
          sent_goaway = true;
          goaway_code = goaway->error;
        } else if (const auto* rst =
                       std::get_if<h2::RstStreamFrame>(&frame)) {
          resets.emplace_back(rst->stream_id, rst->error);
        } else if (const auto* update =
                       std::get_if<h2::WindowUpdateFrame>(&frame)) {
          window_updates.emplace_back(update->stream_id, update->increment);
        } else if (const auto* data = std::get_if<h2::DataFrame>(&frame)) {
          data_streams.push_back(data->stream_id);
          data_bytes += data->data.size();
        }
      }
    }
  }
};

std::vector<std::uint8_t> preface_and_settings() {
  std::vector<std::uint8_t> wire;
  const auto preface = h2::client_preface();
  wire.insert(wire.end(), preface.begin(), preface.end());
  h2::serialize_into(h2::Frame{h2::SettingsFrame{}}, wire);
  return wire;
}

std::vector<std::uint8_t> encoded_request(h2::HpackEncoder& enc,
                                          const std::string& path) {
  return enc.encode({{":method", "GET"},
                     {":scheme", "https"},
                     {":authority", "fuzz.example"},
                     {":path", path}});
}

void append_headers(std::vector<std::uint8_t>& wire, std::uint32_t stream,
                    std::span<const std::uint8_t> block, bool end_stream) {
  std::uint8_t flags = h2::kFlagEndHeaders;
  if (end_stream) flags |= h2::kFlagEndStream;
  fuzz::append_raw_frame(wire, static_cast<std::uint32_t>(block.size()), 0x1,
                         flags, stream, block);
}

// --- regressions found by the generators/harness during development ------

// SETTINGS_MAX_FRAME_SIZE=0 used to be applied verbatim; produce() would
// then emit empty DATA frames forever (the guarding assert compiles out in
// release builds). §6.5.2 requires rejecting values below 2^14 as a
// connection PROTOCOL_ERROR. Reproducer: corpus/connection/settings-mfs0.
TEST(ConnectionConformance, SettingsMaxFrameSizeZeroIsProtocolError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::serialize_into(
      h2::Frame{h2::SettingsFrame{
          false, {{h2::SettingsId::kMaxFrameSize, 0}}}},
      wire);
  h2::HpackEncoder enc;
  const auto block = encoded_request(enc, "/");
  append_headers(wire, 1, block, true);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kProtocolError);
  EXPECT_EQ(probe.conn.last_error_code(), ErrorCode::kProtocolError);
}

TEST(ConnectionConformance, SettingsEnablePushTwoIsProtocolError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::serialize_into(
      h2::Frame{h2::SettingsFrame{false, {{h2::SettingsId::kEnablePush, 2}}}},
      wire);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kProtocolError);
}

TEST(ConnectionConformance, SettingsInitialWindowOverflowIsFlowControlError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::serialize_into(
      h2::Frame{h2::SettingsFrame{
          false, {{h2::SettingsId::kInitialWindowSize, 0x80000000u}}}},
      wire);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kFlowControlError);
}

// DATA/WINDOW_UPDATE/RST_STREAM on idle streams used to silently allocate
// stream state (an adversarial peer could grow the map without bound and
// corrupt flow accounting). §5.1: frames on idle streams are a connection
// error of type PROTOCOL_ERROR. Reproducer: corpus/connection/data-idle.
TEST(ConnectionConformance, DataOnIdleStreamIsProtocolError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  const std::vector<std::uint8_t> payload{'h', 'i'};
  fuzz::append_raw_frame(wire, 2, 0x0, 0, 5, payload);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kProtocolError);
  EXPECT_EQ(probe.conn.stream_count(), 0u);
}

TEST(ConnectionConformance, WindowUpdateOnIdleStreamIsProtocolError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::serialize_into(h2::Frame{h2::WindowUpdateFrame{7, 100}}, wire);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kProtocolError);
  EXPECT_EQ(probe.conn.stream_count(), 0u);
}

TEST(ConnectionConformance, RstStreamOnIdleStreamIsProtocolError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::serialize_into(
      h2::Frame{h2::RstStreamFrame{9, ErrorCode::kCancel}}, wire);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kProtocolError);
}

// A peer may raise SETTINGS_INITIAL_WINDOW_SIZE only as far as every open
// stream's send window stays within 2^31-1. Stream 1 sits at exactly
// 2^31-1 after its WINDOW_UPDATE; the delta of +1 used to be applied
// unchecked, leaving a window of 2^31 for the invariant checker to find.
// RFC 9113 §6.9.2: a connection FLOW_CONTROL_ERROR. Reproducer:
// corpus/connection/settings-window-delta-overflow.bin.
TEST(ConnectionConformance, SettingsInitialWindowDeltaOverflowIsFlowControlError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::HpackEncoder enc;
  append_headers(wire, 1, encoded_request(enc, "/"), false);  // left open
  h2::serialize_into(
      h2::Frame{h2::WindowUpdateFrame{
          1, h2::kMaxWindow - h2::kDefaultInitialWindow}},
      wire);
  h2::serialize_into(
      h2::Frame{h2::SettingsFrame{
          false,
          {{h2::SettingsId::kInitialWindowSize,
            h2::kDefaultInitialWindow + 1}}}},
      wire);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kFlowControlError);
  EXPECT_EQ(probe.conn.check_invariants(), std::nullopt);
}

// A stream whose send window is spent waits; a WINDOW_UPDATE, or a larger
// SETTINGS_INITIAL_WINDOW_SIZE, makes it sendable again, and a smaller one
// can spend it again.
TEST(ConnectionConformance, StreamWindowChangesStopAndResumeData) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::serialize_into(
      h2::Frame{h2::SettingsFrame{
          false, {{h2::SettingsId::kInitialWindowSize, 100}}}},
      wire);
  h2::HpackEncoder enc;
  append_headers(wire, 1, encoded_request(enc, "/"), true);
  append_headers(wire, 3, encoded_request(enc, "/other"), true);
  probe.feed(wire);
  const auto body = std::make_shared<const std::string>(400, 'x');
  probe.conn.submit_response(1, {{":status", "200"}}, body);
  probe.drain();
  EXPECT_EQ(probe.data_bytes, 100u);
  EXPECT_FALSE(probe.conn.want_write());
  EXPECT_FALSE(probe.conn.send_quiescent());
  wire.clear();
  h2::serialize_into(h2::Frame{h2::WindowUpdateFrame{1, 100}}, wire);
  probe.feed(wire);
  EXPECT_EQ(probe.data_bytes, 200u);
  EXPECT_EQ(probe.conn.check_invariants(), std::nullopt);
  // A window cut to -100, then lifted back to exactly 0: still waiting.
  probe.conn.submit_response(3, {{":status", "200"}}, body);
  wire.clear();
  h2::serialize_into(
      h2::Frame{h2::SettingsFrame{
          false, {{h2::SettingsId::kInitialWindowSize, 0}}}},
      wire);
  h2::serialize_into(h2::Frame{h2::WindowUpdateFrame{1, 100}}, wire);
  probe.feed(wire);
  EXPECT_EQ(probe.data_bytes, 200u);
  EXPECT_FALSE(probe.conn.want_write());
  EXPECT_EQ(probe.conn.check_invariants(), std::nullopt);
  wire.clear();
  h2::serialize_into(
      h2::Frame{h2::SettingsFrame{
          false, {{h2::SettingsId::kInitialWindowSize, 400}}}},
      wire);
  probe.feed(wire);
  EXPECT_EQ(probe.data_bytes, 200u + 200u + 400u);
  EXPECT_TRUE(probe.conn.send_quiescent());
  EXPECT_EQ(probe.conn.stream_state(1), h2::StreamState::kClosed);
  EXPECT_EQ(probe.conn.check_invariants(), std::nullopt);
  EXPECT_FALSE(probe.sent_goaway);
}

// --- frames on closed streams --------------------------------------------
// A closed stream is gone from the connection's stream table; every frame
// that still names it keeps its RFC 7540 §5.1 meaning.

/// A server that answered stream 1 (GET "/done") with an empty 204, which
/// closed it. `enc` is the client's HPACK encoder, in step with the
/// server's decoder.
struct ClosedStreamProbe : ServerProbe {
  h2::HpackEncoder enc;

  ClosedStreamProbe() {
    auto wire = preface_and_settings();
    append_headers(wire, 1, encoded_request(enc, "/done"), true);
    feed(wire);
    conn.submit_response(1, {{":status", "204"}}, nullptr);
    drain();
  }

  void expect_healthy() {
    EXPECT_FALSE(sent_goaway);
    EXPECT_TRUE(resets.empty());
    EXPECT_EQ(conn.stream_state(1), h2::StreamState::kClosed);
    EXPECT_EQ(conn.check_invariants(), std::nullopt);
  }
};

// Late HEADERS are dropped, but their block still updates the HPACK table
// (§4.3): the next request's block refers to the entry it added.
TEST(ConnectionConformance, LateHeadersOnClosedStreamAreDropped) {
  ClosedStreamProbe probe;
  ASSERT_EQ(probe.conn.stream_state(1), h2::StreamState::kClosed);
  std::vector<std::uint8_t> wire;
  append_headers(wire, 1, encoded_request(probe.enc, "/late"), true);
  append_headers(wire, 3, encoded_request(probe.enc, "/late"), true);
  probe.feed(wire);
  probe.expect_healthy();
  EXPECT_EQ(probe.paths, (std::vector<std::string>{"/done", "/late"}));
}

// DATA on a closed stream still debits the connection window and counts
// toward the connection-level WINDOW_UPDATE: here it is what lifts the
// unacknowledged bytes past half the 65535-byte window.
TEST(ConnectionConformance, DataOnClosedStreamFeedsConnectionWindowUpdate) {
  ClosedStreamProbe probe;
  std::vector<std::uint8_t> wire;
  append_headers(wire, 3, encoded_request(probe.enc, "/upload"), false);
  const std::vector<std::uint8_t> straggler(16000, 's');
  fuzz::append_raw_frame(wire, 16000, 0x0, 0, 1, straggler);
  const std::vector<std::uint8_t> body(16384, 'b');
  fuzz::append_raw_frame(wire, 16384, 0x0, 0, 3, body);
  const std::vector<std::uint8_t> tail(1000, 't');
  fuzz::append_raw_frame(wire, 1000, 0x0, 0, 3, tail);
  probe.feed(wire);
  probe.expect_healthy();
  EXPECT_EQ(probe.window_updates,
            (std::vector<std::pair<std::uint32_t, std::uint32_t>>{
                {0, 16000 + 16384 + 1000}}));
}

TEST(ConnectionConformance, DataOnClosedStreamCanOverrunConnectionWindow) {
  ClosedStreamProbe probe;
  std::vector<std::uint8_t> wire;
  const std::vector<std::uint8_t> payload(16384, 's');
  for (int i = 0; i < 4; ++i) {  // 65536 bytes > the 65535-byte window
    fuzz::append_raw_frame(wire, 16384, 0x0, 0, 1, payload);
  }
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kFlowControlError);
}

// §6.9: a WINDOW_UPDATE can trail a closed stream; it is not an error.
TEST(ConnectionConformance, WindowUpdateOnClosedStreamIsIgnored) {
  ClosedStreamProbe probe;
  std::vector<std::uint8_t> wire;
  h2::serialize_into(h2::Frame{h2::WindowUpdateFrame{1, 1000}}, wire);
  probe.feed(wire);
  probe.expect_healthy();
}

TEST(ConnectionConformance, RstStreamOnClosedStreamReachesOnRst) {
  ClosedStreamProbe probe;
  std::vector<std::uint8_t> wire;
  h2::serialize_into(h2::Frame{h2::RstStreamFrame{1, ErrorCode::kCancel}},
                     wire);
  probe.feed(wire);
  probe.expect_healthy();
  EXPECT_EQ(probe.resets_received,
            (std::vector<std::pair<std::uint32_t, ErrorCode>>{
                {1, ErrorCode::kCancel}}));
}

// PRIORITY may name a closed stream (§5.3.4) and still moves the tree: node
// 1 comes back with weight 1 and stream 5 goes under it, so stream 3 (weight
// 16) takes the first frames. Had the frame on 1 been dropped, 5's parent
// would be a weight-16 placeholder and 3 and 5 would alternate.
TEST(ConnectionConformance, PriorityOnClosedStreamMovesTree) {
  ClosedStreamProbe probe;
  std::vector<std::uint8_t> wire;
  h2::serialize_into(
      h2::Frame{h2::SettingsFrame{
          false, {{h2::SettingsId::kInitialWindowSize, 1u << 20}}}},
      wire);
  h2::serialize_into(h2::Frame{h2::WindowUpdateFrame{0, 1u << 20}}, wire);
  append_headers(wire, 3, encoded_request(probe.enc, "/three"), true);
  append_headers(wire, 5, encoded_request(probe.enc, "/five"), true);
  h2::serialize_into(h2::Frame{h2::PriorityFrame{1, {0, 1, false}}}, wire);
  h2::serialize_into(h2::Frame{h2::PriorityFrame{5, {1, 16, false}}}, wire);
  probe.feed(wire);
  const auto body = std::make_shared<const std::string>(4 * 16384, 'x');
  probe.conn.submit_response(3, {{":status", "200"}}, body);
  probe.conn.submit_response(5, {{":status", "200"}}, body);
  probe.drain();
  probe.expect_healthy();
  EXPECT_EQ(probe.data_streams,
            (std::vector<std::uint32_t>{3, 3, 3, 3, 5, 5, 5, 5}));
}

// Ids the peer jumped over stay idle after a higher stream closed: DATA on
// one is still a PROTOCOL_ERROR (§5.1), not a closed-stream straggler.
TEST(ConnectionConformance, DataOnSkippedStreamIdIsProtocolError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::HpackEncoder enc;
  append_headers(wire, 5, encoded_request(enc, "/five"), true);  // skips 1, 3
  probe.feed(wire);
  probe.conn.submit_response(5, {{":status", "204"}}, nullptr);
  probe.drain();
  EXPECT_EQ(probe.conn.stream_state(5), h2::StreamState::kClosed);
  EXPECT_EQ(probe.conn.stream_state(3), h2::StreamState::kIdle);
  wire.clear();
  const std::vector<std::uint8_t> payload{'x'};
  fuzz::append_raw_frame(wire, 1, 0x0, 0, 3, payload);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kProtocolError);
}

// §5.1 half-closed (remote): DATA after END_STREAM is a stream error of
// type STREAM_CLOSED, answered with RST_STREAM — not a connection error.
TEST(ConnectionConformance, DataAfterEndStreamIsStreamClosedRst) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::HpackEncoder enc;
  const auto block = encoded_request(enc, "/a");
  append_headers(wire, 1, block, true);
  const std::vector<std::uint8_t> payload{'x'};
  fuzz::append_raw_frame(wire, 1, 0x0, 0, 1, payload);
  probe.feed(wire);
  EXPECT_FALSE(probe.sent_goaway);
  ASSERT_EQ(probe.resets.size(), 1u);
  EXPECT_EQ(probe.resets[0].first, 1u);
  EXPECT_EQ(probe.resets[0].second, ErrorCode::kStreamClosed);
}

// §5.1.1: client-initiated streams must be odd and monotonically
// increasing. Both violations used to be accepted silently.
TEST(ConnectionConformance, EvenStreamIdHeadersIsProtocolError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::HpackEncoder enc;
  const auto block = encoded_request(enc, "/");
  append_headers(wire, 2, block, true);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kProtocolError);
}

TEST(ConnectionConformance, StreamIdReuseIsProtocolError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::HpackEncoder enc;
  append_headers(wire, 5, encoded_request(enc, "/first"), true);
  append_headers(wire, 3, encoded_request(enc, "/regressing"), true);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kProtocolError);
  EXPECT_EQ(probe.headers_seen, 1u);
}

// Parser-level checks, surfaced through the connection's GOAWAY code.
TEST(ConnectionConformance, OversizedFrameIsFrameSizeError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  const auto payload = std::vector<std::uint8_t>(20000, 0);
  fuzz::append_raw_frame(wire, 20000, 0x0, 0, 1, payload);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kFrameSizeError);
}

TEST(ConnectionConformance, SettingsOddLengthIsFrameSizeError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  const auto payload = std::vector<std::uint8_t>(5, 0);
  fuzz::append_raw_frame(wire, 5, 0x4, 0, 0, payload);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kFrameSizeError);
}

TEST(ConnectionConformance, SettingsAckWithPayloadIsFrameSizeError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  const auto payload = std::vector<std::uint8_t>(6, 0);
  fuzz::append_raw_frame(wire, 6, 0x4, h2::kFlagAck, 0, payload);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kFrameSizeError);
}

// PING on a stream / PRIORITY on stream 0 / RST_STREAM on stream 0 used to
// parse fine; PRIORITY on stream 0 then reached PriorityTree::reprioritize
// and corrupted the tree root. §6.7 / §6.3 / §6.4.
TEST(ConnectionConformance, PingOnStreamIsProtocolError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  const auto payload = std::vector<std::uint8_t>(8, 0xab);
  fuzz::append_raw_frame(wire, 8, 0x6, 0, 3, payload);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kProtocolError);
}

TEST(ConnectionConformance, PriorityOnStreamZeroIsProtocolError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  const std::vector<std::uint8_t> payload{0, 0, 0, 0, 16};
  fuzz::append_raw_frame(wire, 5, 0x2, 0, 0, payload);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kProtocolError);
}

TEST(ConnectionConformance, RstStreamOnStreamZeroIsProtocolError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  const std::vector<std::uint8_t> payload{0, 0, 0, 8};
  fuzz::append_raw_frame(wire, 4, 0x3, 0, 0, payload);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kProtocolError);
}

TEST(ConnectionConformance, WindowUpdateZeroIncrementIsProtocolError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  const std::vector<std::uint8_t> payload{0, 0, 0, 0};
  fuzz::append_raw_frame(wire, 4, 0x8, 0, 0, payload);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kProtocolError);
}

TEST(ConnectionConformance, WindowUpdateOverflowIsFlowControlError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::serialize_into(
      h2::Frame{h2::WindowUpdateFrame{0, h2::kMaxWindow}}, wire);
  h2::serialize_into(
      h2::Frame{h2::WindowUpdateFrame{0, h2::kMaxWindow}}, wire);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kFlowControlError);
  // Regression (corpus/connection/window-overflow.bin): the overflowing
  // increment used to be applied before the error was raised, leaving the
  // send window above 2^31-1 where the invariant checker found it.
  EXPECT_FALSE(probe.conn.check_invariants().has_value());
}

TEST(ConnectionConformance, BadHpackIsCompressionError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  // Indexed representation with index 200: beyond static + (empty)
  // dynamic table.
  std::vector<std::uint8_t> block;
  h2::hpack_encode_int(200, 7, 0x80, block);
  append_headers(wire, 1, block, true);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kCompressionError);
}

TEST(ConnectionConformance, PushPromiseFromClientIsProtocolError) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::HpackEncoder enc;
  h2::PushPromiseFrame pp;
  pp.stream_id = 1;
  pp.promised_id = 2;
  pp.header_block = encoded_request(enc, "/pushed");
  h2::serialize_into(h2::Frame{pp}, wire);
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kProtocolError);
}

// Unbounded CONTINUATION reassembly used to buffer the pending header
// block without limit (memory exhaustion). The parser now caps it and
// answers ENHANCE_YOUR_CALM.
TEST(ConnectionConformance, ContinuationFloodIsEnhanceYourCalm) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  const std::vector<std::uint8_t> fragment(16000, 0x42);
  fuzz::append_raw_frame(wire, 16000, 0x1, 0, 1, fragment);  // no END_HEADERS
  for (int i = 0; i < 70; ++i) {
    fuzz::append_raw_frame(wire, 16000, 0x9, 0, 1, fragment);
  }
  probe.feed(wire);
  EXPECT_TRUE(probe.sent_goaway);
  EXPECT_EQ(probe.goaway_code, ErrorCode::kEnhanceYourCalm);
}

TEST(ConnectionConformance, UnknownExtensionFramesAreIgnored) {
  ServerProbe probe;
  auto wire = preface_and_settings();
  h2::ExtensionFrame ext;
  ext.type = 0x77;
  ext.flags = 0xff;
  ext.stream_id = 0;
  ext.payload = {1, 2, 3, 4};
  h2::serialize_into(h2::Frame{ext}, wire);
  h2::HpackEncoder enc;
  append_headers(wire, 1, encoded_request(enc, "/after"), true);
  probe.feed(wire);
  EXPECT_FALSE(probe.sent_goaway);
  EXPECT_EQ(probe.headers_seen, 1u);
}

// --- seeded mini-fuzz through the full harness ---------------------------

TEST(FuzzConnection, ValidTrafficIsAlwaysAccepted) {
  const std::size_t iters = iterations(2000);
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_test::kConnectionSeed + i;
    Random r(seed);
    auto gen = r.fork("gen");
    const auto traffic =
        fuzz::random_client_traffic(gen, fuzz::TrafficOptions{});
    auto run = r.fork("run");
    const auto result = fuzz::run_server_harness(run, traffic.bytes);
    EXPECT_FALSE(result.hang) << seed_msg(seed);
    EXPECT_FALSE(result.sent_goaway)
        << "server rejected valid traffic with code "
        << static_cast<int>(result.goaway_code) << seed_msg(seed);
    EXPECT_FALSE(result.invariant_violation.has_value())
        << *result.invariant_violation << seed_msg(seed);
    EXPECT_FALSE(result.output_parse_error.has_value())
        << *result.output_parse_error << seed_msg(seed);
    EXPECT_TRUE(result.resets.empty()) << seed_msg(seed);
    EXPECT_EQ(result.requests_seen, traffic.request_streams.size())
        << seed_msg(seed);
    // No stream leak: the server tracks at most the streams the client
    // actually opened (closed ones legitimately stay for late frames).
    EXPECT_LE(result.final_stream_count, traffic.request_streams.size())
        << seed_msg(seed);
  }
}

TEST(FuzzConnection, MutatedTrafficNeverBreaksContract) {
  const std::size_t iters = iterations();
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_test::kConnectionSeed + (1u << 20) + i;
    Random r(seed);
    auto gen = r.fork("gen");
    const auto traffic =
        fuzz::random_client_traffic(gen, fuzz::TrafficOptions{});
    auto mut = r.fork("mut");
    const auto data = fuzz::mutate_traffic(mut, traffic);
    auto run = r.fork("run");
    const auto result = fuzz::run_server_harness(run, data);
    EXPECT_FALSE(result.hang) << seed_msg(seed);
    EXPECT_FALSE(result.invariant_violation.has_value())
        << *result.invariant_violation << seed_msg(seed);
    EXPECT_FALSE(result.output_parse_error.has_value())
        << *result.output_parse_error << seed_msg(seed);
  }
}

TEST(FuzzConnection, FrameSoupNeverBreaksContract) {
  const std::size_t iters = iterations();
  for (std::size_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = fuzz_test::kConnectionSeed + (2u << 20) + i;
    Random r(seed);
    auto gen = r.fork("gen");
    const auto traffic = fuzz::random_frame_soup(gen);
    auto run = r.fork("run");
    const auto result = fuzz::run_server_harness(run, traffic.bytes);
    EXPECT_FALSE(result.hang) << seed_msg(seed);
    EXPECT_FALSE(result.invariant_violation.has_value())
        << *result.invariant_violation << seed_msg(seed);
    EXPECT_FALSE(result.output_parse_error.has_value())
        << *result.output_parse_error << seed_msg(seed);
  }
}

// Replay the committed binary reproducers (and the seed list) that found
// the bugs fixed in this subsystem's first landing.
TEST(FuzzConnection, CorpusReplays) {
  const auto corpus =
      fuzz::load_corpus_dir(fuzz_test::corpus_dir("connection"));
  std::size_t replayed = 0;
  for (const auto& [name, bytes] : corpus) {
    if (name == "seeds.txt") continue;
    Random r(fuzz_test::kConnectionSeed ^ 0xc0ffee);
    const auto result = fuzz::run_server_harness(r, bytes);
    EXPECT_FALSE(result.hang) << name;
    EXPECT_FALSE(result.invariant_violation.has_value())
        << name << ": " << *result.invariant_violation;
    EXPECT_FALSE(result.output_parse_error.has_value())
        << name << ": " << *result.output_parse_error;
    ++replayed;
  }
  EXPECT_GT(replayed, 0u);

  const auto seeds = fuzz::load_seed_file(
      fuzz_test::corpus_dir("connection") + "/seeds.txt");
  EXPECT_FALSE(seeds.empty());
  for (const auto seed : seeds) {
    Random r(seed);
    auto gen = r.fork("gen");
    const auto traffic =
        fuzz::random_client_traffic(gen, fuzz::TrafficOptions{});
    auto mut = r.fork("mut");
    const auto data = fuzz::mutate_traffic(mut, traffic);
    auto run = r.fork("run");
    const auto result = fuzz::run_server_harness(run, data);
    EXPECT_FALSE(result.hang) << seed_msg(seed);
    EXPECT_FALSE(result.invariant_violation.has_value()) << seed_msg(seed);
  }
}

/// Same seed ⇒ byte-identical trajectory: the determinism contract every
// reproducer relies on.
TEST(FuzzConnection, DeterministicTrajectories) {
  for (std::uint64_t seed :
       {fuzz_test::kConnectionSeed, fuzz_test::kConnectionSeed + 17}) {
    Random a(seed);
    Random b(seed);
    auto ga = a.fork("gen");
    auto gb = b.fork("gen");
    const auto ta = fuzz::random_client_traffic(ga, fuzz::TrafficOptions{});
    const auto tb = fuzz::random_client_traffic(gb, fuzz::TrafficOptions{});
    ASSERT_EQ(ta.bytes, tb.bytes) << seed_msg(seed);
    ASSERT_EQ(ta.frame_offsets, tb.frame_offsets) << seed_msg(seed);
    auto ra = a.fork("run");
    auto rb = b.fork("run");
    const auto res_a = fuzz::run_server_harness(ra, ta.bytes);
    const auto res_b = fuzz::run_server_harness(rb, tb.bytes);
    EXPECT_EQ(res_a.produced_bytes, res_b.produced_bytes) << seed_msg(seed);
    EXPECT_EQ(res_a.requests_seen, res_b.requests_seen) << seed_msg(seed);
    EXPECT_EQ(res_a.final_stream_count, res_b.final_stream_count)
        << seed_msg(seed);
  }
}

}  // namespace
}  // namespace h2push
