// CSS object model (simplified).
//
// Parses real stylesheet text into rules with selectors and declarations.
// The subset covers what the corpus generator emits and what the paper's
// mechanisms need:
//   - rule sets with compound selectors (tag, .class, #id) and descendant
//     combinators,
//   - @font-face blocks (font files are "hidden" resources discovered only
//     after CSS parse — paper §4.3 s1),
//   - url(...) references in declarations (background images),
//   - font-family declarations linking elements to web fonts.
// Selector matching against an element ancestor chain powers the critical
// CSS extraction (the paper's penthouse step) in core/critical_css.
// Characters are classified with ASCII tests (util/strings.h) that match
// <cctype> in the "C" locale; bytes >= 0x80 are never space, name or case.
// parse_css_shared memoizes parse_css per process, keyed by the full text:
// a site replayed many times has each of its stylesheets parsed once.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace h2push::browser {

/// One compound selector part: "div.hero#main" → tag=div, classes={hero},
/// id=main. Empty fields are wildcards.
struct CompoundSelector {
  std::string tag;
  std::vector<std::string> classes;
  std::string id;
};

/// A full selector: descendant chain of compounds, e.g. ".nav a".
struct Selector {
  std::vector<CompoundSelector> parts;  // outermost ancestor first
  std::string text;                     // original serialization
};

struct Declaration {
  std::string property;  // lowercase
  std::string value;
};

struct CssRule {
  /// Derives font_family() and urls() from `declarations` once, here: the
  /// renderer asks for them on every layout pass.
  CssRule(std::vector<Selector> selectors,
          std::vector<Declaration> declarations, std::string text);

  std::vector<Selector> selectors;
  std::vector<Declaration> declarations;
  std::string text;  // original rule text (for critical-CSS reassembly)

  /// font-family value if declared, else empty.
  const std::string& font_family() const noexcept { return font_family_; }
  /// url(...) references in the declarations (background images).
  const std::vector<std::string>& urls() const noexcept { return urls_; }

 private:
  std::string font_family_;
  std::vector<std::string> urls_;
};

struct FontFace {
  std::string family;
  std::string url;
  std::string text;  // original @font-face block
};

struct Stylesheet {
  std::vector<CssRule> rules;
  std::vector<FontFace> font_faces;

  /// All url() references: background images + font files.
  std::vector<std::string> resource_urls() const;
  /// @font-face url for a family, if any.
  std::optional<std::string> font_url(std::string_view family) const;
};

Stylesheet parse_css(std::string_view text);

/// parse_css(text), memoized process-wide and shared by every thread. The
/// key is the full text (a hash only picks the bucket; a hit compares every
/// byte), so equal texts in different buffers get the same sheet. The memo
/// holds at most kCssMemoCapBytes of text: an insert that would pass the
/// cap empties it first, and a longer text is parsed without being kept.
std::shared_ptr<const Stylesheet> parse_css_shared(std::string_view text);

inline constexpr std::size_t kCssMemoCapBytes = 8u << 20;

/// Text bytes the parse_css_shared memo holds now (at most kCssMemoCapBytes).
std::size_t css_memo_held_bytes();

/// An element as seen during layout: tag + classes + id, with ancestors.
struct ElementPath {
  struct Entry {
    std::string tag;
    std::vector<std::string> classes;
    std::string id;
  };
  std::vector<Entry> chain;  // outermost first, element itself last
};

/// CSS descendant matching of `sel` against the element path.
bool matches(const Selector& sel, const ElementPath& path);

/// Does any selector of the rule match?
bool matches(const CssRule& rule, const ElementPath& path);

}  // namespace h2push::browser
