#include "browser/html.h"

#include "util/strings.h"

namespace h2push::browser {
namespace {

using util::is_space;

bool is_name_char(char c) {
  return util::is_alnum(c) || c == '-' || c == '_' || c == ':' || c == '!';
}

}  // namespace

void HtmlToken::add_attr(HtmlAttr attr) {
  if (spilled_.empty() && inline_count_ < kInlineAttrs) {
    inline_attrs_[inline_count_++] = attr;
    return;
  }
  if (spilled_.empty()) {
    spilled_.assign(inline_attrs_.begin(), inline_attrs_.end());
  }
  spilled_.push_back(attr);
}

const HtmlAttr* HtmlToken::find(std::string_view attr_name) const noexcept {
  for (const HtmlAttr& a : attrs()) {
    if (util::iequals(a.name, attr_name)) return &a;
  }
  return nullptr;
}

std::optional<HtmlToken> HtmlTokenizer::next() {
  const std::string& doc = *doc_;
  while (pos_ < doc.size()) {
    if (doc[pos_] != '<') {
      // Text run until the next tag or the end of what has been received.
      const std::size_t start = pos_;
      std::size_t stop = doc.find('<', pos_);
      if (stop == std::string::npos) stop = doc.size();
      HtmlToken tok;
      tok.kind = HtmlToken::Kind::kText;
      tok.text = std::string_view(doc).substr(start, stop - start);
      tok.begin = start;
      tok.end = stop;
      pos_ = stop;
      return tok;
    }
    // Comments: skipped entirely (waiting for the terminator if partial).
    if (doc.compare(pos_, 4, "<!--") == 0) {
      const std::size_t close = doc.find("-->", pos_ + 4);
      if (close == std::string::npos) return std::nullopt;
      pos_ = close + 3;
      continue;
    }
    // DOCTYPE and other declarations.
    if (pos_ + 1 < doc.size() && doc[pos_ + 1] == '!') {
      const std::size_t close = doc.find('>', pos_);
      if (close == std::string::npos) return std::nullopt;
      pos_ = close + 1;
      continue;
    }
    return lex_tag();
  }
  return std::nullopt;
}

std::optional<HtmlToken> HtmlTokenizer::lex_tag() {
  const std::string_view doc = *doc_;
  const std::size_t tag_start = pos_;
  std::size_t i = pos_ + 1;
  if (i >= doc.size()) return std::nullopt;

  HtmlToken tok;
  tok.kind = HtmlToken::Kind::kStartTag;
  if (doc[i] == '/') {
    tok.kind = HtmlToken::Kind::kEndTag;
    ++i;
  }
  // Tag name.
  std::size_t name_start = i;
  while (i < doc.size() && is_name_char(doc[i])) ++i;
  if (i >= doc.size()) return std::nullopt;  // name may continue
  tok.name = doc.substr(name_start, i - name_start);
  for (char& c : tok.name) c = util::to_lower(c);

  // Attributes, quote-aware, until '>'.
  while (true) {
    while (i < doc.size() && is_space(doc[i])) ++i;
    if (i >= doc.size()) return std::nullopt;
    if (doc[i] == '>') {
      ++i;
      break;
    }
    if (doc[i] == '/') {
      tok.self_closing = true;
      ++i;
      continue;
    }
    // Attribute name.
    const std::size_t attr_start = i;
    while (i < doc.size() && doc[i] != '=' && doc[i] != '>' && doc[i] != '/' &&
           !is_space(doc[i]))
      ++i;
    if (i >= doc.size()) return std::nullopt;
    HtmlAttr attr{doc.substr(attr_start, i - attr_start), {}};
    while (i < doc.size() && is_space(doc[i])) ++i;
    if (i < doc.size() && doc[i] == '=') {
      ++i;
      while (i < doc.size() && is_space(doc[i])) ++i;
      if (i >= doc.size()) return std::nullopt;
      if (doc[i] == '"' || doc[i] == '\'') {
        const char quote = doc[i++];
        const std::size_t vstart = i;
        while (i < doc.size() && doc[i] != quote) ++i;
        if (i >= doc.size()) return std::nullopt;  // unterminated so far
        attr.value = doc.substr(vstart, i - vstart);
        ++i;
      } else {
        const std::size_t vstart = i;
        while (i < doc.size() && !is_space(doc[i]) && doc[i] != '>') ++i;
        if (i >= doc.size()) return std::nullopt;
        attr.value = doc.substr(vstart, i - vstart);
      }
    }
    if (!attr.name.empty()) tok.add_attr(attr);
  }

  tok.begin = tag_start;
  tok.end = i;

  // Raw-text elements: swallow content up to the matching close tag and
  // attach it to the start token, so consumers see one unit. The close tag
  // must be written in lowercase.
  if (tok.kind == HtmlToken::Kind::kStartTag &&
      (tok.name == "script" || tok.name == "style") && !tok.self_closing) {
    const std::string_view closing =
        tok.name == "script" ? "</script" : "</style";
    std::size_t close = i;
    while (true) {
      close = doc.find(closing, close);
      if (close == std::string_view::npos) return std::nullopt;  // wait
      // Must be followed by '>' or whitespace then '>'.
      std::size_t j = close + closing.size();
      while (j < doc.size() && is_space(doc[j])) ++j;
      if (j >= doc.size()) return std::nullopt;
      if (doc[j] == '>') {
        tok.text = doc.substr(i, close - i);
        tok.end = j + 1;
        pos_ = j + 1;
        return tok;
      }
      ++close;
    }
  }

  pos_ = i;
  return tok;
}

}  // namespace h2push::browser
