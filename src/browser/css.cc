#include "browser/css.h"

#include <algorithm>
#include <functional>
#include <mutex>
#include <unordered_map>

#include "util/strings.h"

namespace h2push::browser {
namespace {

std::string_view strip(std::string_view s) { return util::trim(s); }

/// Call `fn` on each `delim`-separated piece of `s`, empty pieces included
/// (util::split without the vector).
template <typename Fn>
void for_each_piece(std::string_view s, char delim, Fn&& fn) {
  while (true) {
    const std::size_t pos = s.find(delim);
    fn(s.substr(0, pos));
    if (pos == std::string_view::npos) return;
    s.remove_prefix(pos + 1);
  }
}

std::size_t count_pieces(std::string_view s, char delim) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), delim)) + 1;
}

CompoundSelector parse_compound(std::string_view s) {
  CompoundSelector out;
  std::size_t i = 0;
  auto take_name = [&]() {
    const std::size_t start = i;
    while (i < s.size() &&
           (util::is_alnum(s[i]) || s[i] == '-' || s[i] == '_'))
      ++i;
    return s.substr(start, i - start);
  };
  while (i < s.size()) {
    if (s[i] == '.') {
      ++i;
      out.classes.emplace_back(take_name());
    } else if (s[i] == '#') {
      ++i;
      out.id = take_name();
    } else if (s[i] == '*') {
      ++i;
    } else {
      out.tag = util::to_lower(take_name());
      if (out.tag.empty()) ++i;  // skip unsupported char (e.g. ':')
    }
  }
  return out;
}

Selector parse_selector(std::string_view s) {
  Selector sel;
  s = strip(s);
  sel.text = s;
  sel.parts.reserve(count_pieces(s, ' '));
  for_each_piece(s, ' ', [&](std::string_view part) {
    part = strip(part);
    if (part.empty() || part == ">") return;  // treat child as descendant
    sel.parts.push_back(parse_compound(part));
  });
  return sel;
}

/// Call `fn(property, value)` for each `property: value` piece of `body`,
/// both stripped; `property` is not yet lowercased.
template <typename Fn>
void for_each_declaration(std::string_view body, Fn&& fn) {
  for_each_piece(body, ';', [&](std::string_view decl) {
    const std::size_t colon = decl.find(':');
    if (colon == std::string_view::npos) return;
    fn(strip(decl.substr(0, colon)), strip(decl.substr(colon + 1)));
  });
}

std::vector<Declaration> parse_declarations(std::string_view body) {
  std::vector<Declaration> out;
  out.reserve(count_pieces(body, ';'));
  for_each_declaration(body, [&](std::string_view property,
                                 std::string_view value) {
    if (!property.empty()) {
      out.push_back(Declaration{util::to_lower(property), std::string(value)});
    }
  });
  return out;
}

std::string_view unquote_family(std::string_view f) {
  if (!f.empty() && (f.front() == '"' || f.front() == '\'')) {
    f.remove_prefix(1);
    if (!f.empty()) f.remove_suffix(1);
  }
  return f;
}

std::vector<std::string> extract_urls(std::string_view value) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t u = value.find("url(", pos);
    if (u == std::string_view::npos) break;
    const std::size_t close = value.find(')', u + 4);
    if (close == std::string_view::npos) break;
    std::string_view inner = strip(value.substr(u + 4, close - u - 4));
    if (!inner.empty() && (inner.front() == '"' || inner.front() == '\'')) {
      inner.remove_prefix(1);
    }
    if (!inner.empty() && (inner.back() == '"' || inner.back() == '\'')) {
      inner.remove_suffix(1);
    }
    if (!inner.empty()) out.emplace_back(inner);
    pos = close + 1;
  }
  return out;
}

/// Append the rules and font faces of `text` to `sheet`. An @media block
/// recurses into the same sheet; all media apply (the viewport model has no
/// media distinctions).
void parse_into(std::string_view text, Stylesheet& sheet) {
  std::size_t i = 0;
  while (i < text.size()) {
    // Skip whitespace and comments.
    if (util::is_space(text[i])) {
      ++i;
      continue;
    }
    if (text.compare(i, 2, "/*") == 0) {
      const std::size_t close = text.find("*/", i + 2);
      if (close == std::string_view::npos) break;
      i = close + 2;
      continue;
    }
    const std::size_t open = text.find('{', i);
    if (open == std::string_view::npos) break;
    const std::string_view prelude = strip(text.substr(i, open - i));
    const bool media = util::starts_with(prelude, "@media");
    std::size_t close;
    if (media) {
      // Nested block: find the matching close brace by depth.
      int depth = 1;
      close = open + 1;
      while (close < text.size() && depth > 0) {
        if (text[close] == '{') ++depth;
        if (text[close] == '}') --depth;
        if (depth == 0) break;
        ++close;
      }
      if (close >= text.size()) break;
    } else {
      close = text.find('}', open + 1);
      if (close == std::string_view::npos) break;
    }
    const std::string_view body = text.substr(open + 1, close - open - 1);
    const std::string_view rule_text = strip(text.substr(i, close - i + 1));

    if (util::starts_with(prelude, "@font-face")) {
      FontFace face;
      face.text = rule_text;
      for_each_declaration(body, [&](std::string_view name,
                                     std::string_view value) {
        const std::string property = util::to_lower(name);
        if (property == "font-family") {
          face.family = unquote_family(value);
        } else if (property == "src") {
          auto urls = extract_urls(value);
          if (!urls.empty()) face.url = std::move(urls.front());
        }
      });
      sheet.font_faces.push_back(std::move(face));
    } else if (media) {
      parse_into(body, sheet);
    } else if (!prelude.empty() && prelude.front() == '@') {
      // Other at-rules ignored.
    } else {
      std::vector<Selector> selectors;
      selectors.reserve(count_pieces(prelude, ','));
      for_each_piece(prelude, ',', [&](std::string_view sel) {
        auto parsed = parse_selector(sel);
        if (!parsed.parts.empty()) selectors.push_back(std::move(parsed));
      });
      if (!selectors.empty()) {
        sheet.rules.emplace_back(std::move(selectors),
                                 parse_declarations(body),
                                 std::string(rule_text));
      }
    }
    i = close + 1;
  }
}

}  // namespace

CssRule::CssRule(std::vector<Selector> selectors_in,
                 std::vector<Declaration> declarations_in, std::string text_in)
    : selectors(std::move(selectors_in)),
      declarations(std::move(declarations_in)),
      text(std::move(text_in)) {
  bool family_seen = false;
  for (const auto& d : declarations) {
    if (d.property == "font-family" && !family_seen) {
      // First family in the first font-family declaration, unquoted.
      const std::string_view v = d.value;
      font_family_ = unquote_family(strip(v.substr(0, v.find(','))));
      family_seen = true;
    }
    for (auto& u : extract_urls(d.value)) urls_.push_back(std::move(u));
  }
}

std::vector<std::string> Stylesheet::resource_urls() const {
  std::vector<std::string> out;
  for (const auto& r : rules) {
    out.insert(out.end(), r.urls().begin(), r.urls().end());
  }
  for (const auto& f : font_faces) {
    if (!f.url.empty()) out.push_back(f.url);
  }
  return out;
}

std::optional<std::string> Stylesheet::font_url(
    std::string_view family) const {
  for (const auto& f : font_faces) {
    if (f.family == family) return f.url;
  }
  return std::nullopt;
}

Stylesheet parse_css(std::string_view text) {
  Stylesheet sheet;
  parse_into(text, sheet);
  return sheet;
}

namespace {

/// The table behind parse_css_shared. Hashing and parsing run outside the
/// lock; two threads that miss on the same text both parse it, and the
/// second to insert returns the first one's sheet, so every later lookup of
/// that text sees one pointer. Dropping the table frees nothing a caller
/// holds: the sheets live on through their shared_ptrs.
class SheetMemo {
 public:
  std::shared_ptr<const Stylesheet> get(std::string_view text) {
    const std::size_t hash = std::hash<std::string_view>{}(text);
    {
      const std::lock_guard lock(mu_);
      if (auto hit = find(hash, text)) return hit;
    }
    auto parsed = std::make_shared<const Stylesheet>(parse_css(text));
    if (text.size() > kCssMemoCapBytes) return parsed;
    const std::lock_guard lock(mu_);
    if (auto hit = find(hash, text)) return hit;
    if (held_ + text.size() > kCssMemoCapBytes) {
      table_.clear();
      held_ = 0;
    }
    table_.emplace(hash, Entry{std::string(text), parsed});
    held_ += text.size();
    return parsed;
  }

  std::size_t held_bytes() {
    const std::lock_guard lock(mu_);
    return held_;
  }

 private:
  struct Entry {
    std::string text;
    std::shared_ptr<const Stylesheet> sheet;
  };

  std::shared_ptr<const Stylesheet> find(std::size_t hash,
                                         std::string_view text) const {
    const auto [first, last] = table_.equal_range(hash);
    for (auto it = first; it != last; ++it) {
      if (it->second.text == text) return it->second.sheet;
    }
    return nullptr;
  }

  std::mutex mu_;
  std::unordered_multimap<std::size_t, Entry> table_;  // guarded by mu_
  std::size_t held_ = 0;  // text bytes in table_; guarded by mu_
};

SheetMemo& sheet_memo() {
  static SheetMemo memo;
  return memo;
}

}  // namespace

std::shared_ptr<const Stylesheet> parse_css_shared(std::string_view text) {
  return sheet_memo().get(text);
}

std::size_t css_memo_held_bytes() { return sheet_memo().held_bytes(); }

namespace {

bool compound_matches(const CompoundSelector& sel,
                      const ElementPath::Entry& el) {
  if (!sel.tag.empty() && sel.tag != el.tag) return false;
  if (!sel.id.empty() && sel.id != el.id) return false;
  for (const auto& cls : sel.classes) {
    bool found = false;
    for (const auto& have : el.classes) {
      if (have == cls) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

bool matches(const Selector& sel, const ElementPath& path) {
  if (sel.parts.empty() || path.chain.empty()) return false;
  // The last compound must match the element itself; earlier compounds must
  // match ancestors in order.
  if (!compound_matches(sel.parts.back(), path.chain.back())) return false;
  std::size_t part = sel.parts.size() - 1;
  std::size_t node = path.chain.size() - 1;
  while (part > 0) {
    if (node == 0) return false;
    --node;
    if (compound_matches(sel.parts[part - 1], path.chain[node])) {
      --part;
    }
  }
  return part == 0;
}

bool matches(const CssRule& rule, const ElementPath& path) {
  for (const auto& sel : rule.selectors) {
    if (matches(sel, path)) return true;
  }
  return false;
}

}  // namespace h2push::browser
