// Byte pieces: an ordered byte stream as a list of runs, each either bytes
// the holder copied or a slice of an immutable shared buffer kept alive by
// its reference count.
//
// The simulated stack sends a response body by reference: h2::Connection
// writes a DATA payload as a slice of the replay store's body, the TCP
// model's send buffer keeps that slice, a delivery hands the receiver the
// slices it covers, and the frame parser reads the payload in place. Frame
// headers and control frames are small and are copied. util/ holds the type
// because sim/ and h2/ both use it and neither may include the other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace h2push::util {

/// Immutable bytes shared by reference count, e.g. a replay-store response
/// body. Any thread may read them; the count is atomic.
using SharedBytes = std::shared_ptr<const std::string>;

inline std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// A run of bytes handed across a call; `bytes` is valid only during that
/// call. When `owner` is set, `bytes` lies inside `**owner`, and a receiver
/// that needs the bytes later may keep a copy of `*owner` instead of a copy
/// of the bytes.
struct Piece {
  std::span<const std::uint8_t> bytes;
  const SharedBytes* owner = nullptr;
};

/// Where a writer puts an ordered byte stream: the simulated TCP
/// connection's send buffer (sim/tcp.h), which keeps shared slices, or a
/// FlatSink.
class PieceSink {
 public:
  /// Bytes valid only during the call: the sink copies them.
  virtual void write(std::span<const std::uint8_t> bytes) = 0;
  /// `bytes` lies inside `*owner`: the sink may keep a reference instead
  /// of a copy.
  virtual void write_shared(const SharedBytes& owner,
                            std::span<const std::uint8_t> bytes) = 0;

 protected:
  ~PieceSink() = default;
};

/// The sink that flattens: every byte is appended to `out`.
class FlatSink final : public PieceSink {
 public:
  explicit FlatSink(std::vector<std::uint8_t>& out) : out_(out) {}
  void write(std::span<const std::uint8_t> bytes) override {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }
  void write_shared(const SharedBytes& /*owner*/,
                    std::span<const std::uint8_t> bytes) override {
    write(bytes);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// The bytes of `pieces` as one span: in place when there is one piece,
/// else assembled in `scratch`. The TCP model flattens deliveries with it
/// for receivers that read flat bytes.
std::span<const std::uint8_t> flatten(std::span<const Piece> pieces,
                                      std::vector<std::uint8_t>& scratch);

}  // namespace h2push::util
