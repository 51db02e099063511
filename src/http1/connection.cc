#include "http1/connection.h"

#include <algorithm>
#include <charconv>

#include "util/strings.h"

namespace h2push::http1 {

std::string serialize_request(const http::Request& request) {
  std::string out = request.method + " " + request.url.path + " HTTP/1.1\r\n";
  out += "host: " + request.url.host + "\r\n";
  for (const auto& h : request.headers) {
    if (!h.name.empty() && h.name[0] == ':') continue;  // no pseudo headers
    out += h.name + ": " + h.value + "\r\n";
  }
  out += "\r\n";
  return out;
}

std::string serialize_response_head(const http::Response& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " OK\r\n";
  out += "content-type: " +
         std::string(http::content_type_for(response.type)) + "\r\n";
  out += "content-length: " + std::to_string(response.body_size) + "\r\n";
  for (const auto& h : response.headers) {
    out += h.name + ": " + h.value + "\r\n";
  }
  out += "\r\n";
  return out;
}

std::vector<std::string_view> parse_head(std::string_view head,
                                         http::HeaderBlock& headers) {
  const auto lines = util::split(head, '\n');
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto line = util::trim(lines[i]);
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    headers.push_back({util::to_lower(util::trim(line.substr(0, colon))),
                       std::string(util::trim(line.substr(colon + 1)))});
  }
  return util::split(util::trim(lines[0]), ' ');
}

std::size_t HeadReader::take(std::span<const std::uint8_t> bytes) {
  std::size_t n = 0;
  while (n < bytes.size() && !complete()) {
    const auto c = static_cast<char>(bytes[n++]);
    // On a mismatch the longest match left is "\r" or nothing.
    matched_ = c == kEnd[matched_] ? matched_ + 1 : (c == '\r' ? 1 : 0);
  }
  bytes_.append(reinterpret_cast<const char*>(bytes.data()), n);
  return n;
}

std::vector<RequestParser::Message> RequestParser::feed(
    std::span<const std::uint8_t> bytes) {
  std::vector<Message> out;
  while (!error_ && !bytes.empty()) {
    bytes = bytes.subspan(head_.take(bytes));
    if (!head_.complete()) {
      if (head_.size() > 256 * 1024) error_ = true;  // header bomb
      break;
    }
    Message message;
    const auto start = parse_head(head_.head(), message.headers);
    if (start.size() < 3) {
      error_ = true;
      break;
    }
    message.method = std::string(start[0]);
    message.target = std::string(start[1]);
    head_.clear();
    out.push_back(std::move(message));
  }
  return out;
}

// ---------------------------------------------------------------- outbox

void Outbox::append(std::string bytes) {
  if (!bytes.empty()) runs_.push_back({std::move(bytes), nullptr});
}

void Outbox::append_shared(util::SharedBytes body) {
  if (body && !body->empty()) runs_.push_back({{}, std::move(body)});
}

std::size_t Outbox::drain_into(util::PieceSink& out, std::size_t max_bytes) {
  std::size_t written = 0;
  while (written < max_bytes && !runs_.empty()) {
    const Run& run = runs_.front();
    const auto bytes = util::bytes_of(run.shared ? *run.shared : run.bytes);
    const std::size_t n = std::min(max_bytes - written, bytes.size() - read_);
    if (run.shared) {
      out.write_shared(run.shared, bytes.subspan(read_, n));
    } else {
      out.write(bytes.subspan(read_, n));
    }
    written += n;
    read_ += n;
    if (read_ == bytes.size()) {
      runs_.pop_front();
      read_ = 0;
    }
  }
  return written;
}

// ---------------------------------------------------------------- client

void ClientConnection::submit_request(const http::Request& request) {
  queue_.push_back(request);
  if (!in_flight_) send_next();
}

void ClientConnection::send_next() {
  if (queue_.empty() || in_flight_) return;
  in_flight_ = true;
  outbox_.append(serialize_request(queue_.front()));
  queue_.pop_front();
  if (callbacks_.on_write_ready) callbacks_.on_write_ready();
}

void ClientConnection::receive(std::span<const util::Piece> pieces) {
  for (const util::Piece& piece : pieces) read(piece.bytes);
}

void ClientConnection::read(std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    if (!reading_body_) {
      bytes = bytes.subspan(head_.take(bytes));
      if (!head_.complete()) return;
      on_head();
      continue;
    }
    const std::size_t take = std::min(body_remaining_, bytes.size());
    body_remaining_ -= take;
    const bool fin = body_remaining_ == 0;
    if (fin) {
      // Mark idle *before* delivering the final chunk: completion
      // callbacks commonly dispatch the next request to this connection.
      reading_body_ = false;
      in_flight_ = false;
    }
    if (callbacks_.on_body_data) {
      callbacks_.on_body_data(bytes.first(take), fin);
    }
    bytes = bytes.subspan(take);
    if (fin) send_next();  // keep-alive: next queued request goes out
  }
}

void ClientConnection::on_head() {
  http::HeaderBlock headers;
  int status = 0;
  const auto start = parse_head(head_.head(), headers);
  if (start.size() >= 2) {
    std::from_chars(start[1].data(), start[1].data() + start[1].size(),
                    status);
  }
  head_.clear();
  std::size_t content_length = 0;
  const auto cl = http::find_header(headers, "content-length");
  if (!cl.empty()) {
    std::from_chars(cl.data(), cl.data() + cl.size(), content_length);
  }
  if (callbacks_.on_headers) callbacks_.on_headers(headers, status);
  if (content_length == 0) {
    in_flight_ = false;  // idle before the completion callback
    if (callbacks_.on_body_data) callbacks_.on_body_data({}, true);
    send_next();
    return;
  }
  reading_body_ = true;
  body_remaining_ = content_length;
}

// ---------------------------------------------------------------- server

void ServerConnection::submit_response(const http::Response& head,
                                       const util::SharedBytes& body) {
  outbox_.append(serialize_response_head(head));
  outbox_.append_shared(body);
  if (callbacks_.on_write_ready) callbacks_.on_write_ready();
}

void ServerConnection::receive(std::span<const util::Piece> pieces) {
  for (const util::Piece& piece : pieces) {
    for (auto& message : parser_.feed(piece.bytes)) {
      if (callbacks_.on_request) callbacks_.on_request(message);
    }
  }
}

}  // namespace h2push::http1
