// RFC 7541 Appendix B Huffman code for HPACK string literals.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/expected.h"

namespace h2push::h2 {

/// Encoded size in bytes of `s` under the HPACK Huffman code (incl. padding).
std::size_t huffman_encoded_size(std::string_view s) noexcept;

/// Append the Huffman encoding of `s` to `out`.
void huffman_encode(std::string_view s, std::vector<std::uint8_t>& out);

/// Decode `input`; fails on EOS in the stream or invalid padding longer
/// than 7 bits (RFC 7541 §5.2).
util::Expected<std::string, std::string> huffman_decode(
    std::span<const std::uint8_t> input);

/// Decode `input`, appending the symbols to `out`; returns how many were
/// appended. On failure `out` is left as it was.
util::Expected<std::size_t, std::string> huffman_decode_into(
    std::span<const std::uint8_t> input, std::string& out);

}  // namespace h2push::h2
