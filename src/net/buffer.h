// Byte buffer for per-connection socket I/O.
//
// A flat vector with a read cursor: append() at the tail, consume() from the
// head, and amortized compaction once the dead prefix dominates. Both the
// read path (bytes from the kernel waiting for the H2 parser) and the write
// path (frames waiting for the kernel) use it; watermark decisions are made
// by the owner from size().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace h2push::net {

class ByteBuffer {
 public:
  bool empty() const noexcept { return head_ == data_.size(); }
  /// Unconsumed bytes.
  std::size_t size() const noexcept { return data_.size() - head_; }

  void append(std::span<const std::uint8_t> bytes) {
    data_.insert(data_.end(), bytes.begin(), bytes.end());
  }

  /// Contiguous view of all unconsumed bytes.
  std::span<const std::uint8_t> readable() const noexcept {
    return {data_.data() + head_, size()};
  }

  /// Mark `n` bytes (<= size()) consumed; compacts when the dead prefix
  /// exceeds both the live payload and a fixed floor, keeping memmove
  /// traffic O(1) amortized per byte.
  void consume(std::size_t n) {
    head_ += n;
    if (head_ >= data_.size()) {
      data_.clear();
      head_ = 0;
    } else if (head_ > 4096 && head_ > data_.size() - head_) {
      data_.erase(data_.begin(),
                  data_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  void clear() noexcept {
    data_.clear();
    head_ = 0;
  }

  /// Append-target access for Connection::produce()-style writers.
  std::vector<std::uint8_t>& tail() noexcept { return data_; }

 private:
  std::vector<std::uint8_t> data_;
  std::size_t head_ = 0;
};

}  // namespace h2push::net
