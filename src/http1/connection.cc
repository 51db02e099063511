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

bool MessageParser::parse_head(Message& out, std::string_view head) {
  const auto lines = util::split(head, '\n');
  if (lines.empty()) return false;
  std::string_view start_line = util::trim(lines[0]);
  const auto parts = util::split(start_line, ' ');
  if (kind_ == Kind::kRequest) {
    if (parts.size() < 3) return false;
    out.method = std::string(parts[0]);
    out.target = std::string(parts[1]);
  } else {
    if (parts.size() < 2) return false;
    const auto status_sv = parts[1];
    int status = 0;
    std::from_chars(status_sv.data(), status_sv.data() + status_sv.size(),
                    status);
    out.status = status;
  }
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto line = util::trim(lines[i]);
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    out.headers.push_back(
        {util::to_lower(util::trim(line.substr(0, colon))),
         std::string(util::trim(line.substr(colon + 1)))});
  }
  return true;
}

std::vector<MessageParser::Message> MessageParser::feed(
    std::span<const std::uint8_t> bytes) {
  std::vector<Message> out;
  if (error_) return out;
  buffer_.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  while (true) {
    if (reading_body_) {
      const std::size_t take = std::min(body_remaining_, buffer_.size());
      pending_.body.append(buffer_, 0, take);
      buffer_.erase(0, take);
      body_remaining_ -= take;
      if (body_remaining_ > 0) return out;
      reading_body_ = false;
      out.push_back(std::move(pending_));
      pending_ = Message{};
      continue;
    }
    const std::size_t head_end = buffer_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buffer_.size() > 256 * 1024) error_ = true;  // header bomb
      return out;
    }
    Message message;
    if (!parse_head(message, std::string_view(buffer_).substr(0, head_end))) {
      error_ = true;
      return out;
    }
    buffer_.erase(0, head_end + 4);
    std::size_t content_length = 0;
    const auto cl = http::find_header(message.headers, "content-length");
    if (!cl.empty()) {
      std::from_chars(cl.data(), cl.data() + cl.size(), content_length);
    }
    if (kind_ == Kind::kRequest || content_length == 0) {
      out.push_back(std::move(message));
      continue;
    }
    pending_ = std::move(message);
    body_remaining_ = content_length;
    reading_body_ = true;
  }
}

// ---------------------------------------------------------------- outbox

std::size_t Outbox::drain_into(util::PieceSink& out, std::size_t max_bytes) {
  const std::size_t n = std::min(max_bytes, bytes_.size() - read_);
  out.write(util::bytes_of(bytes_).subspan(read_, n));
  read_ += n;
  if (read_ == bytes_.size()) {
    bytes_.clear();
    read_ = 0;
  }
  return n;
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

void ClientConnection::receive(std::span<const std::uint8_t> bytes) {
  inbox_.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  while (true) {
    if (reading_body_) {
      const std::size_t take = std::min(body_remaining_, inbox_.size());
      if (take == 0) return;
      body_remaining_ -= take;
      const bool fin = body_remaining_ == 0;
      if (fin) {
        // Mark idle *before* delivering the final chunk: completion
        // callbacks commonly dispatch the next request to this connection.
        reading_body_ = false;
        in_flight_ = false;
      }
      if (callbacks_.on_body_data) {
        callbacks_.on_body_data(
            {reinterpret_cast<const std::uint8_t*>(inbox_.data()), take},
            fin);
      }
      inbox_.erase(0, take);
      if (!fin) return;
      send_next();  // keep-alive: next queued request goes out
      continue;
    }
    const std::size_t head_end = inbox_.find("\r\n\r\n");
    if (head_end == std::string::npos) return;
    http::HeaderBlock headers;
    int status = 0;
    {
      const std::string_view head_sv =
          std::string_view(inbox_).substr(0, head_end);
      const auto lines = util::split(head_sv, '\n');
      if (!lines.empty()) {
        const auto parts = util::split(util::trim(lines[0]), ' ');
        if (parts.size() >= 2) {
          const auto sv = parts[1];
          std::from_chars(sv.data(), sv.data() + sv.size(), status);
        }
        for (std::size_t i = 1; i < lines.size(); ++i) {
          const auto line = util::trim(lines[i]);
          const auto colon = line.find(':');
          if (colon == std::string_view::npos) continue;
          headers.push_back(
              {util::to_lower(util::trim(line.substr(0, colon))),
               std::string(util::trim(line.substr(colon + 1)))});
        }
      }
    }
    inbox_.erase(0, head_end + 4);
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
      continue;
    }
    reading_body_ = true;
    body_remaining_ = content_length;
  }
}

// ---------------------------------------------------------------- server

void ServerConnection::submit_response(const http::Response& head,
                                       const std::string& body) {
  outbox_.append(serialize_response_head(head));
  outbox_.append(body);
  if (callbacks_.on_write_ready) callbacks_.on_write_ready();
}

void ServerConnection::receive(std::span<const std::uint8_t> bytes) {
  for (auto& message : parser_.feed(bytes)) {
    if (callbacks_.on_request) callbacks_.on_request(message);
  }
}

}  // namespace h2push::http1
