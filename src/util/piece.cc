#include "util/piece.h"

namespace h2push::util {

std::span<const std::uint8_t> flatten(std::span<const Piece> pieces,
                                      std::vector<std::uint8_t>& scratch) {
  if (pieces.size() == 1) return pieces.front().bytes;
  scratch.clear();
  for (const Piece& piece : pieces) {
    scratch.insert(scratch.end(), piece.bytes.begin(), piece.bytes.end());
  }
  return scratch;
}

}  // namespace h2push::util
