#include "util/piece.h"

namespace h2push::util {

void PieceList::write(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  if (runs_.empty() || runs_.back().owner) {
    runs_.push_back({nullptr, nullptr, copied_.size(), 0});
  }
  copied_.insert(copied_.end(), bytes.begin(), bytes.end());
  runs_.back().len += bytes.size();
}

void PieceList::write_shared(const SharedBytes& owner,
                             std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  runs_.push_back({owner, bytes.data(), 0, bytes.size()});
}

std::span<const Piece> PieceList::pieces() {
  pieces_.clear();
  for (const Run& run : runs_) {
    if (run.owner) {
      pieces_.push_back({{run.data, run.len}, &run.owner});
    } else {
      pieces_.push_back({{copied_.data() + run.offset, run.len}, nullptr});
    }
  }
  return pieces_;
}

void PieceList::clear() {
  copied_.clear();
  runs_.clear();
  pieces_.clear();
}

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
