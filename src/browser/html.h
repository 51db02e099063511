// Incremental HTML tokenizer.
//
// The browser model parses real markup bytes as they arrive from the
// network, like a streaming browser parser. The tokenizer is deliberately a
// subset of HTML5 (no entities, no CDATA, no script-content escaping
// subtleties) but handles everything the corpus generator emits and
// arbitrary attribute soup robustly. Two independent Tokenizer cursors can
// read the same growing document buffer: the DOM parser (which blocks on
// sync scripts) and the preload scanner (which races ahead to discover
// fetchable resources — Chromium's speculative scanner).
//
// Tokens do not copy the document: text, script/style bodies and attribute
// names and values are views into the buffer. They stay valid only until
// the buffer next grows, so a consumer that keeps a token across an append
// must copy what it keeps.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace h2push::browser {

/// One attribute as written: `name` in its original case, `value` without
/// its quotes (empty for a bare attribute such as `async`).
struct HtmlAttr {
  std::string_view name;
  std::string_view value;
};

struct HtmlToken {
  enum class Kind : std::uint8_t { kStartTag, kEndTag, kText };
  Kind kind = Kind::kText;
  bool self_closing = false;
  /// Lowercase tag name. Every HTML tag name fits std::string's inline
  /// buffer, so it costs no allocation.
  std::string name;
  std::string_view text;     // kText: raw text; script/style: the body
  std::size_t begin = 0;     // byte offset of the token start
  std::size_t end = 0;       // byte offset one past the token end

  /// Every attribute in document order, duplicates included.
  std::span<const HtmlAttr> attrs() const noexcept {
    if (!spilled_.empty()) return spilled_;
    return {inline_attrs_.data(), inline_count_};
  }
  /// Value of the first attribute whose name equals `attr_name` ignoring
  /// ASCII case (a repeated attribute is ignored, as in HTML5); empty if
  /// there is none.
  std::string_view attr(std::string_view attr_name) const noexcept {
    const HtmlAttr* found = find(attr_name);
    return found == nullptr ? std::string_view{} : found->value;
  }
  bool has_attr(std::string_view attr_name) const noexcept {
    return find(attr_name) != nullptr;
  }

 private:
  friend class HtmlTokenizer;
  // Generated tags carry at most five attributes; more spill to the heap.
  static constexpr std::size_t kInlineAttrs = 6;

  void add_attr(HtmlAttr attr);
  const HtmlAttr* find(std::string_view attr_name) const noexcept;

  std::array<HtmlAttr, kInlineAttrs> inline_attrs_{};
  std::size_t inline_count_ = 0;
  std::vector<HtmlAttr> spilled_;  // all of them, once there are more
};

/// A cursor over an externally owned, append-only document buffer.
/// next() returns tokens that are *complete* in the buffer so far; a
/// partially received tag yields nullopt until more bytes arrive. The
/// token's views point into the buffer (see above).
class HtmlTokenizer {
 public:
  explicit HtmlTokenizer(const std::string* doc) : doc_(doc) {}

  std::optional<HtmlToken> next();

  std::size_t position() const noexcept { return pos_; }
  /// True when the cursor consumed everything currently buffered.
  bool at_end() const noexcept { return pos_ >= doc_->size(); }

 private:
  std::optional<HtmlToken> lex_tag();

  const std::string* doc_;
  std::size_t pos_ = 0;
};

}  // namespace h2push::browser
