// Browser model unit tests: HTML tokenizer (incremental), CSS parser and
// selector matching, Chromium prioritizer chain, and visual-progress math.
#include <gtest/gtest.h>

#include <cctype>
#include <iterator>
#include <map>
#include <optional>
#include <string>

#include "browser/css.h"
#include "browser/html.h"
#include "browser/metrics.h"
#include "browser/priorities.h"
#include "util/rng.h"
#include "util/strings.h"
#include "web/profiles.h"

namespace h2push::browser {
namespace {

// -------------------------------------------------------------- tokenizer

// The tokens are views into `doc`, which must outlive them.
std::vector<HtmlToken> tokenize_all(const std::string& doc) {
  HtmlTokenizer tok(&doc);
  std::vector<HtmlToken> out;
  while (auto t = tok.next()) out.push_back(std::move(*t));
  return out;
}
std::vector<HtmlToken> tokenize_all(std::string&&) = delete;

TEST(HtmlTokenizer, BasicTagsAndText) {
  const std::string doc = "<p class=\"a b\">hello</p>";
  const auto tokens = tokenize_all(doc);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, HtmlToken::Kind::kStartTag);
  EXPECT_EQ(tokens[0].name, "p");
  EXPECT_EQ(tokens[0].attr("class"), "a b");
  EXPECT_EQ(tokens[1].kind, HtmlToken::Kind::kText);
  EXPECT_EQ(tokens[1].text, "hello");
  EXPECT_EQ(tokens[2].kind, HtmlToken::Kind::kEndTag);
}

TEST(HtmlTokenizer, AttributeVariants) {
  const std::string doc = "<img src='a.png' width=600 async data-x=\"1\">";
  const auto tokens = tokenize_all(doc);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].attr("src"), "a.png");
  EXPECT_EQ(tokens[0].attr("width"), "600");
  EXPECT_TRUE(tokens[0].has_attr("async"));
  EXPECT_EQ(tokens[0].attr("data-x"), "1");
}

TEST(HtmlTokenizer, ScriptContentIsSwallowed) {
  const std::string doc =
      "<script>var a = '<p>not a tag</p>';</script><p>x</p>";
  const auto tokens = tokenize_all(doc);
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].name, "script");
  EXPECT_EQ(tokens[0].text, "var a = '<p>not a tag</p>';");
  EXPECT_EQ(tokens[1].name, "p");
}

TEST(HtmlTokenizer, CommentsAndDoctypeSkipped) {
  const std::string doc = "<!DOCTYPE html><!-- <p>ignored</p> --><div></div>";
  const auto tokens = tokenize_all(doc);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].name, "div");
}

TEST(HtmlTokenizer, IncrementalAcrossChunkBoundaries) {
  const std::string full =
      "<head><link rel=\"stylesheet\" href=\"/a.css\"><script "
      "src=\"/b.js\"></script></head><body><p>some text here</p></body>";
  // Feed the document byte by byte; the token stream must match the
  // all-at-once result, modulo text tokens splitting at chunk boundaries
  // (consumers accumulate text, so splits are semantically transparent).
  // A token's views die when the buffer grows, so each is copied on arrival.
  struct Owned {
    HtmlToken::Kind kind;
    std::string name;
    std::string text;
  };
  auto normalize = [](std::vector<Owned> tokens) {
    std::vector<Owned> out;
    for (auto& t : tokens) {
      if (t.kind == HtmlToken::Kind::kText && !out.empty() &&
          out.back().kind == HtmlToken::Kind::kText) {
        out.back().text += t.text;
      } else {
        out.push_back(std::move(t));
      }
    }
    return out;
  };
  auto own = [](const HtmlToken& t) {
    return Owned{t.kind, t.name, std::string(t.text)};
  };
  std::vector<Owned> all;
  for (const auto& t : tokenize_all(full)) all.push_back(own(t));
  const auto expected = normalize(std::move(all));
  std::string doc;
  HtmlTokenizer tok(&doc);
  std::vector<Owned> got;
  for (char c : full) {
    doc.push_back(c);
    while (auto t = tok.next()) got.push_back(own(*t));
  }
  got = normalize(std::move(got));
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].kind, expected[i].kind) << i;
    EXPECT_EQ(got[i].name, expected[i].name) << i;
    EXPECT_EQ(got[i].text, expected[i].text) << i;
  }
}

TEST(HtmlTokenizer, PartialTagWaitsForMoreBytes) {
  std::string doc = "<link rel=\"style";
  HtmlTokenizer tok(&doc);
  EXPECT_FALSE(tok.next().has_value());
  doc += "sheet\" href=\"/x.css\">";
  auto t = tok.next();
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->attr("href"), "/x.css");
}

TEST(HtmlTokenizer, ByteOffsetsAreAccurate) {
  const std::string doc = "abc<p>x</p>";
  const auto tokens = tokenize_all(doc);
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].begin, 0u);  // "abc"
  EXPECT_EQ(tokens[0].end, 3u);
  EXPECT_EQ(tokens[1].begin, 3u);  // <p>
  EXPECT_EQ(tokens[1].end, 6u);
}

// The tokenizer as it was when tokens owned their bytes: a std::map of
// lowercased attribute names (emplace keeps the first occurrence) and a
// std::string for every text run and raw-text body. The view-based
// tokenizer must give the same tokens on any input.
struct ReferenceToken {
  HtmlToken::Kind kind = HtmlToken::Kind::kText;
  std::string name;
  std::map<std::string, std::string> attrs;
  bool self_closing = false;
  std::string text;
  std::size_t begin = 0;
  std::size_t end = 0;
};

class ReferenceTokenizer {
 public:
  explicit ReferenceTokenizer(const std::string* doc) : doc_(doc) {}

  std::optional<ReferenceToken> next() {
    const std::string& doc = *doc_;
    while (pos_ < doc.size()) {
      if (doc[pos_] != '<') {
        const std::size_t start = pos_;
        std::size_t stop = doc.find('<', pos_);
        if (stop == std::string::npos) stop = doc.size();
        ReferenceToken tok;
        tok.text = doc.substr(start, stop - start);
        tok.begin = start;
        tok.end = stop;
        pos_ = stop;
        return tok;
      }
      if (doc.compare(pos_, 4, "<!--") == 0) {
        const std::size_t close = doc.find("-->", pos_ + 4);
        if (close == std::string::npos) return std::nullopt;
        pos_ = close + 3;
        continue;
      }
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

 private:
  static bool is_space(char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  }
  static bool is_name_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
           c == '_' || c == ':' || c == '!';
  }

  std::optional<ReferenceToken> lex_tag() {
    const std::string& doc = *doc_;
    const std::size_t tag_start = pos_;
    std::size_t i = pos_ + 1;
    if (i >= doc.size()) return std::nullopt;
    ReferenceToken tok;
    tok.kind = HtmlToken::Kind::kStartTag;
    if (doc[i] == '/') {
      tok.kind = HtmlToken::Kind::kEndTag;
      ++i;
    }
    const std::size_t name_start = i;
    while (i < doc.size() && is_name_char(doc[i])) ++i;
    if (i >= doc.size()) return std::nullopt;
    tok.name = util::to_lower(
        std::string_view(doc).substr(name_start, i - name_start));
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
      const std::size_t attr_start = i;
      while (i < doc.size() && doc[i] != '=' && doc[i] != '>' &&
             doc[i] != '/' && !is_space(doc[i]))
        ++i;
      if (i >= doc.size()) return std::nullopt;
      std::string attr_name = util::to_lower(
          std::string_view(doc).substr(attr_start, i - attr_start));
      std::string attr_value;
      while (i < doc.size() && is_space(doc[i])) ++i;
      if (i < doc.size() && doc[i] == '=') {
        ++i;
        while (i < doc.size() && is_space(doc[i])) ++i;
        if (i >= doc.size()) return std::nullopt;
        if (doc[i] == '"' || doc[i] == '\'') {
          const char quote = doc[i++];
          const std::size_t vstart = i;
          while (i < doc.size() && doc[i] != quote) ++i;
          if (i >= doc.size()) return std::nullopt;
          attr_value = doc.substr(vstart, i - vstart);
          ++i;
        } else {
          const std::size_t vstart = i;
          while (i < doc.size() && !is_space(doc[i]) && doc[i] != '>') ++i;
          if (i >= doc.size()) return std::nullopt;
          attr_value = doc.substr(vstart, i - vstart);
        }
      }
      if (!attr_name.empty()) {
        tok.attrs.emplace(std::move(attr_name), std::move(attr_value));
      }
    }
    tok.begin = tag_start;
    tok.end = i;
    if (tok.kind == HtmlToken::Kind::kStartTag &&
        (tok.name == "script" || tok.name == "style") && !tok.self_closing) {
      const std::string closing = "</" + tok.name;
      std::size_t close = i;
      while (true) {
        close = doc.find(closing, close);
        if (close == std::string::npos) return std::nullopt;
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

  const std::string* doc_;
  std::size_t pos_ = 0;
};

std::string upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

::testing::AssertionResult same_token(const ReferenceToken& want,
                                      const HtmlToken& got) {
  auto fail = [&](const char* what) {
    return ::testing::AssertionFailure()
           << what << " differs for the token at " << want.begin;
  };
  if (got.kind != want.kind) return fail("kind");
  if (got.name != want.name) return fail("name");
  if (got.self_closing != want.self_closing) return fail("self_closing");
  if (got.text != want.text) return fail("text");
  if (got.begin != want.begin || got.end != want.end) return fail("offsets");
  // The first occurrence of each name, compared ignoring ASCII case.
  std::map<std::string, std::string> attrs;
  for (const HtmlAttr& a : got.attrs()) {
    attrs.emplace(util::to_lower(a.name), std::string(a.value));
  }
  if (attrs != want.attrs) return fail("attributes");
  for (const auto& [name, value] : want.attrs) {
    if (!got.has_attr(name) || got.attr(name) != value ||
        got.attr(upper(name)) != value) {
      return fail("attr()");
    }
  }
  if (got.has_attr("never-written")) return fail("has_attr()");
  return ::testing::AssertionSuccess();
}

/// Both tokenizers drain what `doc` holds now; their tokens must agree.
/// Returns the number of tokens compared.
std::size_t drain_and_compare(ReferenceTokenizer& reference,
                              HtmlTokenizer& tokenizer,
                              const std::string& context) {
  std::size_t n = 0;
  while (true) {
    const auto want = reference.next();
    const auto got = tokenizer.next();
    EXPECT_EQ(got.has_value(), want.has_value()) << context;
    if (!want || !got) return n;
    EXPECT_TRUE(same_token(*want, *got)) << context;
    ++n;
  }
}

/// Tag soup: mixed case, duplicate, bare and unquoted attributes, more
/// attributes than a token holds inline, raw-text bodies with near-miss
/// close tags, comments, declarations and a possibly cut-off end.
std::string attribute_soup(util::Rng& rng) {
  static const char* const kTags[] = {"p",   "DIV",  "Script", "style",
                                      "img", "LINK", "x-y",    "a:b",
                                      "h1",  "SCRIPT"};
  static const char* const kAttrs[] = {"src",   "SRC",   "Href", "href",
                                       "class", "data-x", "async", "rel",
                                       "REL",   "a",     "Id",   "id"};
  static const char* const kSpace[] = {"", " ", "  ", "\t", "\n", "\r\n",
                                       "\v", "\f"};
  auto pick = [&rng](const auto& table) {
    const auto n = static_cast<std::int64_t>(std::size(table));
    return table[rng.uniform_int(0, n - 1)];
  };
  std::string doc;
  const auto parts = rng.uniform_int(1, 40);
  for (std::int64_t p = 0; p < parts; ++p) {
    switch (rng.uniform_int(0, 5)) {
      case 0:
        doc += "some text";
        doc += pick(kSpace);
        break;
      case 1:
        doc += rng.bernoulli(0.5) ? "<!-- <p x=1> -->" : "<!DOCTYPE html>";
        break;
      case 2: {
        const std::string name = pick(kTags);
        doc += "<" + name;
        const auto attrs = rng.uniform_int(0, 10);
        for (std::int64_t a = 0; a < attrs; ++a) {
          doc += rng.bernoulli(0.8) ? " " : pick(kSpace);
          doc += pick(kAttrs);
          if (rng.bernoulli(0.2)) continue;  // bare
          doc += pick(kSpace);
          doc += "=";
          doc += pick(kSpace);
          switch (rng.uniform_int(0, 3)) {
            case 0: doc += "\"v " + std::to_string(a) + "'\""; break;
            case 1: doc += "'v\"" + std::to_string(a) + "'"; break;
            case 2: doc += "v" + std::to_string(a); break;
            default: doc += "\"\""; break;
          }
        }
        if (rng.bernoulli(0.15)) doc += " /";
        doc += ">";
        const std::string lower = util::to_lower(name);
        if (lower == "script" || lower == "style") {
          doc += "var s = '<p>';";
          switch (rng.uniform_int(0, 4)) {
            case 0: doc += "</" + lower + "x></" + lower + ">"; break;
            case 1: doc += "</" + lower + pick(kSpace) + ">"; break;
            case 2: doc += "</" + upper(lower) + "></" + lower + ">"; break;
            case 3: doc += "</" + lower + " a></" + lower + "\n>"; break;
            default: doc += "</" + lower + ">"; break;
          }
        }
        break;
      }
      case 3:
        doc += "</";
        doc += pick(kTags);
        doc += pick(kSpace);
        doc += ">";
        break;
      case 4:
        doc += pick(kSpace);
        break;
      default: {
        static const char kJunk[] = "<>=\"'/! \tab";
        const auto n = rng.uniform_int(1, 6);
        for (std::int64_t k = 0; k < n; ++k) {
          doc += kJunk[rng.uniform_int(0, sizeof kJunk - 2)];
        }
        break;
      }
    }
  }
  if (rng.bernoulli(0.3)) {
    doc.resize(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(doc.size()))));
  }
  return doc;
}

TEST(HtmlTokenizer, MatchesOwningReferenceOnGeneratedSites) {
  for (int w = 1; w <= 20; ++w) {
    const auto site = web::make_w_site(w).site;
    const std::string& html = *site.find(site.main_url)->body;
    ReferenceTokenizer reference(&html);
    HtmlTokenizer tokenizer(&html);
    const std::string context = "w" + std::to_string(w);
    EXPECT_GT(drain_and_compare(reference, tokenizer, context), 100u)
        << context;
    EXPECT_TRUE(tokenizer.at_end()) << context;

    // Fed in small chunks, as the network delivers it.
    util::Rng rng(static_cast<std::uint64_t>(w));
    std::string doc;
    ReferenceTokenizer reference_inc(&doc);
    HtmlTokenizer tokenizer_inc(&doc);
    for (std::size_t at = 0; at < html.size();) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 64));
      doc.append(html, at, n);
      at += n;
      drain_and_compare(reference_inc, tokenizer_inc, context + " chunked");
    }
  }
}

TEST(HtmlTokenizer, MatchesOwningReferenceOnAttributeSoup) {
  util::Rng rng(0x50a9u);
  for (int round = 0; round < 300; ++round) {
    const std::string soup = attribute_soup(rng);
    const std::string context = "round " + std::to_string(round) + ": " + soup;
    ReferenceTokenizer reference(&soup);
    HtmlTokenizer tokenizer(&soup);
    drain_and_compare(reference, tokenizer, context);

    // Byte by byte: every token is compared before the buffer grows again.
    std::string doc;
    ReferenceTokenizer reference_inc(&doc);
    HtmlTokenizer tokenizer_inc(&doc);
    for (char c : soup) {
      doc.push_back(c);
      drain_and_compare(reference_inc, tokenizer_inc, context + " (bytewise)");
    }
  }
}

TEST(HtmlTokenizer, ManyAttributesSpillAndKeepTheFirstOccurrence) {
  const std::string doc =
      "<img a=1 b=2 c=3 d=4 e=5 f=6 g=7 B=dup h=8 src=/x.png SRC=/y.png>";
  const auto tokens = tokenize_all(doc);
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].attrs().size(), 11u);
  EXPECT_EQ(tokens[0].attr("b"), "2");
  EXPECT_EQ(tokens[0].attr("H"), "8");
  EXPECT_EQ(tokens[0].attr("src"), "/x.png");
  EXPECT_FALSE(tokens[0].has_attr("i"));
}

// -------------------------------------------------------------------- css

TEST(CssParser, ParsesRulesAndDeclarations) {
  const auto sheet = parse_css(".hero { min-height: 240px; color: red; }\n"
                               "h1, .title { font-size: 32px; }");
  ASSERT_EQ(sheet.rules.size(), 2u);
  EXPECT_EQ(sheet.rules[0].selectors[0].text, ".hero");
  ASSERT_EQ(sheet.rules[0].declarations.size(), 2u);
  EXPECT_EQ(sheet.rules[1].selectors.size(), 2u);
}

TEST(CssParser, ParsesFontFace) {
  const auto sheet = parse_css(
      "@font-face { font-family: brand; src: url(/fonts/b.woff2) "
      "format(\"woff2\"); }\n.x { font-family: brand, sans-serif; }");
  ASSERT_EQ(sheet.font_faces.size(), 1u);
  EXPECT_EQ(sheet.font_faces[0].family, "brand");
  EXPECT_EQ(sheet.font_faces[0].url, "/fonts/b.woff2");
  EXPECT_EQ(sheet.rules[0].font_family(), "brand");
  EXPECT_EQ(*sheet.font_url("brand"), "/fonts/b.woff2");
}

TEST(CssParser, ExtractsBackgroundUrls) {
  const auto sheet = parse_css(
      ".hero { background-image: url(\"/img/bg.png\"); }");
  const auto urls = sheet.resource_urls();
  ASSERT_EQ(urls.size(), 1u);
  EXPECT_EQ(urls[0], "/img/bg.png");
}

TEST(CssParser, MediaBlocksAreFlattened) {
  const auto sheet = parse_css(
      "@media (max-width: 600px) { .m { margin: 0; } } .n { padding: 0; }");
  EXPECT_EQ(sheet.rules.size(), 2u);
}

TEST(CssParser, SkipsComments) {
  const auto sheet = parse_css("/* .fake { } */ .real { margin: 1px; }");
  ASSERT_EQ(sheet.rules.size(), 1u);
  EXPECT_EQ(sheet.rules[0].selectors[0].text, ".real");
}

ElementPath make_path(std::initializer_list<ElementPath::Entry> entries) {
  ElementPath p;
  p.chain = entries;
  return p;
}

TEST(CssMatch, ClassAndTagAndId) {
  const auto sheet = parse_css(
      "p.lead { x: 1; } #main { x: 2; } div p { x: 3; } .a.b { x: 4; }");
  const auto lead = make_path({{"p", {"lead"}, ""}});
  EXPECT_TRUE(matches(sheet.rules[0], lead));
  EXPECT_FALSE(matches(sheet.rules[0], make_path({{"p", {"other"}, ""}})));
  EXPECT_TRUE(matches(sheet.rules[1], make_path({{"div", {}, "main"}})));
  const auto nested = make_path({{"div", {}, ""}, {"p", {}, ""}});
  EXPECT_TRUE(matches(sheet.rules[2], nested));
  EXPECT_FALSE(matches(sheet.rules[2], make_path({{"p", {}, ""}})));
  EXPECT_TRUE(matches(sheet.rules[3], make_path({{"i", {"a", "b"}, ""}})));
  EXPECT_FALSE(matches(sheet.rules[3], make_path({{"i", {"a"}, ""}})));
}

TEST(CssMatch, DescendantSkipsIntermediateLevels) {
  const auto sheet = parse_css(".hero p { x: 1; }");
  const auto deep = make_path(
      {{"div", {"hero"}, ""}, {"section", {}, ""}, {"p", {}, ""}});
  EXPECT_TRUE(matches(sheet.rules[0], deep));
}

// ------------------------------------------------------------- priorities

TEST(Prioritizer, ClassMapping) {
  EXPECT_EQ(priority_for(http::ResourceType::kCss, true, false),
            NetPriority::kHighest);
  EXPECT_EQ(priority_for(http::ResourceType::kJs, true, false),
            NetPriority::kHigh);
  EXPECT_EQ(priority_for(http::ResourceType::kJs, false, false),
            NetPriority::kMedium);
  EXPECT_EQ(priority_for(http::ResourceType::kJs, false, true),
            NetPriority::kLow);
  EXPECT_EQ(priority_for(http::ResourceType::kImage, false, false),
            NetPriority::kLowest);
}

TEST(Prioritizer, ChainDependsOnLastEqualOrHigher) {
  ChromiumPrioritizer p;
  const auto html = p.assign(1, NetPriority::kHighest);
  EXPECT_EQ(html.depends_on, 0u);
  EXPECT_TRUE(html.exclusive);
  const auto css = p.assign(3, NetPriority::kHighest);
  EXPECT_EQ(css.depends_on, 1u);  // last Highest
  const auto img = p.assign(5, NetPriority::kLowest);
  EXPECT_EQ(img.depends_on, 3u);  // last anything
  const auto js = p.assign(7, NetPriority::kHigh);
  EXPECT_EQ(js.depends_on, 3u);  // skips the image (lower class)
}

TEST(Prioritizer, ClosedStreamsAreNotParents) {
  ChromiumPrioritizer p;
  p.assign(1, NetPriority::kHighest);
  p.assign(3, NetPriority::kHighest);
  p.on_stream_closed(3);
  const auto next = p.assign(5, NetPriority::kHighest);
  EXPECT_EQ(next.depends_on, 1u);
}

TEST(Prioritizer, WeightsDescendWithClass) {
  EXPECT_GT(weight_for(NetPriority::kHighest), weight_for(NetPriority::kHigh));
  EXPECT_GT(weight_for(NetPriority::kHigh), weight_for(NetPriority::kMedium));
  EXPECT_GT(weight_for(NetPriority::kMedium), weight_for(NetPriority::kLow));
  EXPECT_GT(weight_for(NetPriority::kLow), weight_for(NetPriority::kLowest));
}

// ----------------------------------------------------------------- metrics

TEST(VisualProgress, SpeedIndexSingleStep) {
  VisualProgress vp;
  vp.set_reference(0);
  vp.record(sim::from_ms(500), 100.0);
  vp.finalize(100.0);
  // Nothing painted until 500 ms, then complete: SI = 500.
  EXPECT_NEAR(vp.speed_index_ms(), 500.0, 1e-6);
  EXPECT_NEAR(vp.first_paint_ms(), 500.0, 1e-6);
  EXPECT_NEAR(vp.last_change_ms(), 500.0, 1e-6);
}

TEST(VisualProgress, SpeedIndexTwoSteps) {
  VisualProgress vp;
  vp.set_reference(0);
  vp.record(sim::from_ms(200), 50.0);   // half complete at 200 ms
  vp.record(sim::from_ms(600), 100.0);  // complete at 600 ms
  vp.finalize(100.0);
  // SI = 200 * 1.0 + 400 * 0.5 = 400.
  EXPECT_NEAR(vp.speed_index_ms(), 400.0, 1e-6);
}

TEST(VisualProgress, EarlierCompletionGivesLowerIndex) {
  VisualProgress fast, slow;
  fast.set_reference(0);
  slow.set_reference(0);
  fast.record(sim::from_ms(100), 80.0);
  fast.record(sim::from_ms(500), 100.0);
  slow.record(sim::from_ms(400), 80.0);
  slow.record(sim::from_ms(500), 100.0);
  fast.finalize(100.0);
  slow.finalize(100.0);
  EXPECT_LT(fast.speed_index_ms(), slow.speed_index_ms());
}

TEST(VisualProgress, NonMonotoneRecordsIgnored) {
  VisualProgress vp;
  vp.set_reference(0);
  vp.record(sim::from_ms(100), 50.0);
  vp.record(sim::from_ms(200), 40.0);  // ignored
  vp.record(sim::from_ms(300), 60.0);
  vp.finalize(60.0);
  ASSERT_EQ(vp.curve().size(), 2u);
  EXPECT_NEAR(vp.curve()[1].second, 1.0, 1e-9);
}

TEST(VisualProgress, ReferenceShiftsTimes) {
  VisualProgress vp;
  vp.set_reference(sim::from_ms(150));
  vp.record(sim::from_ms(400), 10.0);
  vp.finalize(10.0);
  EXPECT_NEAR(vp.first_paint_ms(), 250.0, 1e-6);
}

TEST(VisualProgress, EmptyFinalizeIsZero) {
  VisualProgress vp;
  vp.finalize(0);
  EXPECT_EQ(vp.speed_index_ms(), 0.0);
  EXPECT_TRUE(vp.curve().empty());
}

}  // namespace
}  // namespace h2push::browser
