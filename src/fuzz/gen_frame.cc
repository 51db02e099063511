#include "fuzz/gen_frame.h"

#include <algorithm>
#include <iterator>
#include <string>

#include "http/message.h"

namespace h2push::fuzz {

namespace {

void put_u24(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Random padding for a PADDED frame: pad-length octet + zero bytes.
std::size_t draw_padding(Random& r) {
  return r.chance(0.35) ? r.index(32) + 1 : 0;
}

}  // namespace

void append_raw_frame(std::vector<std::uint8_t>& out, std::uint32_t length,
                      std::uint8_t type, std::uint8_t flags,
                      std::uint32_t stream_id,
                      std::span<const std::uint8_t> payload) {
  put_u24(out, length);
  out.push_back(type);
  out.push_back(flags);
  put_u32(out, stream_id & 0x7fffffffu);
  out.insert(out.end(), payload.begin(), payload.end());
}

namespace {

/// HEADERS (+ optional CONTINUATION splits, optional padding, optional
/// priority) carrying `block` on `stream_id`.
void emit_headers(GeneratedTraffic& out, Random& r, std::uint32_t stream_id,
                  std::span<const std::uint8_t> block, bool end_stream) {
  // Split the block into 1..3 fragments (HEADERS + CONTINUATIONs).
  std::size_t splits = block.size() >= 2 ? r.small_count(2) : 0;
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < splits; ++i) cuts.push_back(r.index(block.size()));
  cuts.push_back(block.size());
  std::sort(cuts.begin(), cuts.end());

  const std::size_t padding = draw_padding(r);
  const bool priority = r.chance(0.25);
  std::uint8_t flags = 0;
  if (end_stream) flags |= h2::kFlagEndStream;
  if (cuts.size() == 1) flags |= h2::kFlagEndHeaders;
  if (padding > 0) flags |= h2::kFlagPadded;
  if (priority) flags |= h2::kFlagPriority;

  std::vector<std::uint8_t> payload;
  if (padding > 0) {
    payload.push_back(static_cast<std::uint8_t>(padding));
  }
  if (priority) {
    // Dependency on stream 0 (never self) keeps the session valid.
    put_u32(payload, 0);
    payload.push_back(static_cast<std::uint8_t>(r.range(0, 255)));  // weight
  }
  payload.insert(payload.end(), block.begin(), block.begin() + cuts[0]);
  payload.insert(payload.end(), padding, 0);

  out.frame_offsets.push_back(out.bytes.size());
  append_raw_frame(out.bytes, static_cast<std::uint32_t>(payload.size()),
                   0x1, flags, stream_id, payload);

  for (std::size_t i = 1; i < cuts.size(); ++i) {
    const bool last = i + 1 == cuts.size();
    std::span<const std::uint8_t> frag{block.data() + cuts[i - 1],
                                       cuts[i] - cuts[i - 1]};
    out.frame_offsets.push_back(out.bytes.size());
    append_raw_frame(out.bytes, static_cast<std::uint32_t>(frag.size()), 0x9,
                     last ? h2::kFlagEndHeaders : 0, stream_id, frag);
  }
}

void emit_data(GeneratedTraffic& out, Random& r, std::uint32_t stream_id,
               std::span<const std::uint8_t> body) {
  std::size_t off = 0;
  while (true) {
    const std::size_t left = body.size() - off;
    const std::size_t take =
        left == 0 ? 0 : static_cast<std::size_t>(r.range(1, left));
    const bool last = take == left;
    const std::size_t padding = draw_padding(r);
    std::uint8_t flags = last ? h2::kFlagEndStream : 0;
    std::vector<std::uint8_t> payload;
    if (padding > 0) {
      flags |= h2::kFlagPadded;
      payload.push_back(static_cast<std::uint8_t>(padding));
    }
    payload.insert(payload.end(), body.begin() + off,
                   body.begin() + off + take);
    payload.insert(payload.end(), padding, 0);
    out.frame_offsets.push_back(out.bytes.size());
    append_raw_frame(out.bytes, static_cast<std::uint32_t>(payload.size()),
                     0x0, flags, stream_id, payload);
    off += take;
    if (last) break;
  }
}

void emit_frame(GeneratedTraffic& out, const h2::Frame& frame) {
  out.frame_offsets.push_back(out.bytes.size());
  h2::serialize_into(frame, out.bytes);
}

/// Valid protocol noise between requests.
void emit_noise(GeneratedTraffic& out, Random& r, std::uint32_t next_id) {
  switch (r.index(4)) {
    case 0:
      emit_frame(out, h2::Frame{h2::PingFrame{false, r.next()}});
      break;
    case 1: {
      // PRIORITY is legal on idle streams (§5.1); avoid self-dependency.
      const auto id = static_cast<std::uint32_t>(r.range(1, next_id + 8));
      h2::PrioritySpec spec;
      spec.depends_on = r.chance(0.5)
                            ? 0
                            : static_cast<std::uint32_t>(r.range(0, next_id));
      if (spec.depends_on == id) spec.depends_on = 0;
      spec.weight = static_cast<std::uint16_t>(r.range(1, 256));
      spec.exclusive = r.chance(0.2);
      emit_frame(out, h2::Frame{h2::PriorityFrame{id, spec}});
      break;
    }
    case 2: {
      // Connection- or request-stream WINDOW_UPDATE, small increments so
      // windows stay far below 2^31-1.
      std::uint32_t id = 0;
      if (!out.request_streams.empty() && r.chance(0.5)) {
        id = out.request_streams[r.index(out.request_streams.size())];
      }
      emit_frame(out, h2::Frame{h2::WindowUpdateFrame{
                          id, static_cast<std::uint32_t>(r.range(1, 4096))}});
      break;
    }
    default: {
      // Unknown extension type: must be ignored (§4.1).
      h2::ExtensionFrame ext;
      ext.type = static_cast<std::uint8_t>(r.range(0x20, 0xff));
      ext.flags = static_cast<std::uint8_t>(r.range(0, 255));
      ext.stream_id = 0;
      ext.payload = r.bytes(0, 32);
      emit_frame(out, h2::Frame{ext});
      break;
    }
  }
}

}  // namespace

GeneratedTraffic random_client_traffic(Random& r, const TrafficOptions& opts) {
  GeneratedTraffic out;
  if (opts.include_preface) {
    const auto preface = h2::client_preface();
    out.bytes.insert(out.bytes.end(), preface.begin(), preface.end());
  }

  auto flow = r.fork("flow");
  auto strings = r.fork("strings");

  // Client SETTINGS with only valid values (§6.5.2).
  h2::SettingsFrame settings;
  if (flow.chance(0.7)) {
    settings.settings.emplace_back(
        h2::SettingsId::kHeaderTableSize,
        static_cast<std::uint32_t>(flow.range(0, 65536)));
  }
  if (flow.chance(0.5)) {
    settings.settings.emplace_back(
        h2::SettingsId::kEnablePush,
        static_cast<std::uint32_t>(flow.range(0, 1)));
  }
  if (flow.chance(0.5)) {
    settings.settings.emplace_back(
        h2::SettingsId::kInitialWindowSize,
        static_cast<std::uint32_t>(flow.range(0, h2::kMaxWindow)));
  }
  if (flow.chance(0.5)) {
    settings.settings.emplace_back(
        h2::SettingsId::kMaxFrameSize,
        static_cast<std::uint32_t>(flow.range(16384, 0xffffff)));
  }
  emit_frame(out, h2::Frame{settings});

  h2::HpackEncoder encoder(4096);
  std::uint32_t next_id = 1;
  const std::size_t requests = flow.range(1, opts.max_requests);
  for (std::size_t i = 0; i < requests; ++i) {
    while (flow.chance(opts.noise)) emit_noise(out, flow, next_id);

    http::HeaderBlock headers{
        {":method", flow.chance(0.2) ? "POST" : "GET"},
        {":scheme", "https"},
        {":authority", strings.token(3, 12) + ".example"},
        {":path", std::string("/").append(strings.token(0, 20))},
    };
    const std::size_t extra = flow.small_count(4);
    for (std::size_t j = 0; j < extra; ++j) {
      headers.push_back({strings.token(1, 10), strings.token(0, 24)});
    }
    const auto block = encoder.encode(headers, flow.chance(0.5));

    const bool has_body = headers[0].value == "POST";
    emit_headers(out, flow, next_id, block, !has_body);
    if (has_body) {
      emit_data(out, flow, next_id, strings.bytes(0, 512));
    }
    out.request_streams.push_back(next_id);
    next_id += 2;
  }
  while (flow.chance(opts.noise)) emit_noise(out, flow, next_id);
  return out;
}

h2::Frame random_valid_frame(Random& r) {
  static constexpr h2::ErrorCode kCodes[] = {
      h2::ErrorCode::kNoError,        h2::ErrorCode::kProtocolError,
      h2::ErrorCode::kInternalError,  h2::ErrorCode::kFlowControlError,
      h2::ErrorCode::kSettingsTimeout, h2::ErrorCode::kStreamClosed,
      h2::ErrorCode::kFrameSizeError, h2::ErrorCode::kRefusedStream,
      h2::ErrorCode::kCancel,         h2::ErrorCode::kCompressionError,
      h2::ErrorCode::kConnectError,   h2::ErrorCode::kEnhanceYourCalm,
      h2::ErrorCode::kInadequateSecurity, h2::ErrorCode::kHttp11Required};
  static constexpr h2::SettingsId kIds[] = {
      h2::SettingsId::kHeaderTableSize,      h2::SettingsId::kEnablePush,
      h2::SettingsId::kMaxConcurrentStreams, h2::SettingsId::kInitialWindowSize,
      h2::SettingsId::kMaxFrameSize,         h2::SettingsId::kMaxHeaderListSize};
  const auto stream = [&] {
    return static_cast<std::uint32_t>(r.range(1, 0x7fffffff));
  };
  const auto code = [&] { return kCodes[r.index(std::size(kCodes))]; };
  // Header blocks occasionally exceed one max_frame_size so the serializer's
  // CONTINUATION split and the parser's reassembly both run.
  const auto block = [&] {
    return r.chance(0.1) ? r.bytes(h2::kDefaultMaxFrameSize,
                                   h2::kDefaultMaxFrameSize + 512)
                         : r.bytes(0, 128);
  };
  switch (r.index(10)) {
    case 0: {
      h2::DataFrame f;
      f.stream_id = stream();
      f.end_stream = r.chance(0.5);
      f.data = r.bytes(0, 256);
      return f;  // padding_bytes stays 0: the serializer never pads
    }
    case 1: {
      h2::HeadersFrame f;
      f.stream_id = stream();
      f.end_stream = r.chance(0.5);
      if (r.chance(0.4)) {
        h2::PrioritySpec spec;
        spec.depends_on = static_cast<std::uint32_t>(r.range(0, 0x7fffffff));
        spec.weight = static_cast<std::uint16_t>(r.range(1, 256));
        spec.exclusive = r.chance(0.3);
        f.priority = spec;
      }
      f.header_block = block();
      return f;
    }
    case 2: {
      h2::PriorityFrame f;
      f.stream_id = stream();
      f.priority.depends_on =
          static_cast<std::uint32_t>(r.range(0, 0x7fffffff));
      f.priority.weight = static_cast<std::uint16_t>(r.range(1, 256));
      f.priority.exclusive = r.chance(0.3);
      return f;
    }
    case 3:
      return h2::RstStreamFrame{stream(), code()};
    case 4: {
      h2::SettingsFrame f;
      f.ack = r.chance(0.2);
      if (!f.ack) {
        const std::size_t n = r.small_count(5);
        for (std::size_t i = 0; i < n; ++i) {
          f.settings.emplace_back(
              kIds[r.index(std::size(kIds))],
              static_cast<std::uint32_t>(r.range(0, 0xffffffffu)));
        }
      }
      return f;
    }
    case 5: {
      h2::PushPromiseFrame f;
      f.stream_id = stream() | 1;  // odd parent
      f.promised_id =
          static_cast<std::uint32_t>(r.range(1, 0x3fffffff)) * 2;  // even
      f.header_block = block();
      return f;
    }
    case 6:
      return h2::PingFrame{r.chance(0.3), r.next()};
    case 7: {
      h2::GoawayFrame f;
      f.last_stream_id = static_cast<std::uint32_t>(r.range(0, 0x7fffffff));
      f.error = code();
      f.debug_data = r.token(0, 24);
      return f;
    }
    case 8:
      return h2::WindowUpdateFrame{
          r.chance(0.3) ? 0 : stream(),
          static_cast<std::uint32_t>(r.range(1, h2::kMaxWindow))};
    default: {
      h2::ExtensionFrame f;
      f.type = static_cast<std::uint8_t>(r.range(0xa, 0xff));
      f.flags = static_cast<std::uint8_t>(r.range(0, 255));
      f.stream_id = static_cast<std::uint32_t>(r.range(0, 0x7fffffff));
      f.payload = r.bytes(0, 64);
      return f;
    }
  }
}

std::vector<std::uint8_t> random_frame_soup_frame(Random& r) {
  std::vector<std::uint8_t> out;
  const std::uint8_t type = static_cast<std::uint8_t>(
      r.chance(0.8) ? r.range(0x0, 0x9) : r.range(0x0, 0xff));
  const std::uint8_t flags = static_cast<std::uint8_t>(r.range(0, 255));
  // Bias stream ids toward the interesting low range (0, 1..8) with an
  // occasional huge id.
  std::uint32_t stream_id;
  switch (r.index(4)) {
    case 0: stream_id = 0; break;
    case 1: stream_id = static_cast<std::uint32_t>(r.range(1, 8)); break;
    case 2: stream_id = static_cast<std::uint32_t>(r.range(1, 64)); break;
    default:
      stream_id = static_cast<std::uint32_t>(r.range(0, 0xffffffffu));
      break;
  }
  // Payload lengths biased small; the declared length always matches the
  // bytes that follow, so the parser sees complete frames with hostile
  // contents rather than eternal truncation.
  const auto payload = r.bytes(0, r.chance(0.9) ? 40 : 300);
  append_raw_frame(out, static_cast<std::uint32_t>(payload.size()), type,
                   flags, stream_id, payload);
  return out;
}

GeneratedTraffic random_frame_soup(Random& r, std::size_t max_frames) {
  GeneratedTraffic out;
  const auto preface = h2::client_preface();
  out.bytes.insert(out.bytes.end(), preface.begin(), preface.end());
  emit_frame(out, h2::Frame{h2::SettingsFrame{}});
  const std::size_t n = r.range(1, max_frames);
  for (std::size_t i = 0; i < n; ++i) {
    out.frame_offsets.push_back(out.bytes.size());
    const auto frame = random_frame_soup_frame(r);
    out.bytes.insert(out.bytes.end(), frame.begin(), frame.end());
  }
  return out;
}

}  // namespace h2push::fuzz
