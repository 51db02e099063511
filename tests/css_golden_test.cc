// Golden pins of the CSS parser.
//
// Each case parses a fixed corpus with browser::parse_css and compares the
// SHA-256 of a canonical dump of every Stylesheet field (rules, selectors,
// compound parts, declarations, font faces, original texts) plus the
// derived helpers the renderer uses (font_family(), urls(),
// resource_urls()) against a pinned digest. The corpora cover the paper
// sites' stylesheets, two generated populations, seeded random input and
// hand-written edge cases. Any change to a digest means the parser's output
// moved: optimisations of the parser must leave every digest as it is.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "browser/css.h"
#include "css_dump.h"
#include "util/rng.h"
#include "web/corpus.h"
#include "web/profiles.h"
#include "web/site.h"

namespace h2push::browser {
namespace {

void dump_css_of(const web::Site& site, CssDump& dump) {
  for (const auto& e : site.store->all()) {
    if (e.response.type == http::ResourceType::kCss) {
      dump.sheet(parse_css(*e.body));
    }
  }
}

TEST(CssGolden, PaperSiteStylesheets) {
  CssDump dump;
  for (int w = 1; w <= 20; ++w) dump_css_of(web::make_w_site(w).site, dump);
  EXPECT_GT(dump.rules(), 10000u);
  EXPECT_GT(dump.faces(), 0u);
  EXPECT_EQ(dump.hex(),
            "bc62e82d1992fd291a94fa1222d72404abdc4f736481308e774af304ef9a689c");
}

TEST(CssGolden, PopulationStylesheets) {
  CssDump dump;
  for (const auto& profile : {web::PopulationProfile::top100(),
                              web::PopulationProfile::random100()}) {
    for (const auto& site : web::generate_population(profile, 30, 2018)) {
      dump_css_of(site, dump);
    }
  }
  EXPECT_GT(dump.rules(), 1000u);
  EXPECT_EQ(dump.hex(),
            "0c9216f52c37795e8fffcd0be16eb24eb016435a964b7287381faefb7b4aadd3");
}

TEST(CssGolden, SeededRandomInput) {
  // Random strings over CSS punctuation, whitespace (incl. \v\f\r), letters
  // of both cases, digits, url( tokens and arbitrary bytes >= 0x80.
  static constexpr std::string_view kPieces[] = {
      "{", "}", ";", ":", ",", ".", "#", "*", ">", " ", "  ", "\t", "\n",
      "\v", "\f", "\r", "/*", "*/", "@media", "@font-face", "@import",
      "url(", ")", "\"", "'", "a", "div", "P", "Hero", "-x", "_y", "9",
      "font-family", "FONT-Family", "src", "color", "background"};
  util::Rng rng(0x637373);
  auto random_text = [&rng](std::size_t max_pieces) {
    std::string out;
    const std::size_t pieces = rng.index(max_pieces);
    for (std::size_t p = 0; p < pieces; ++p) {
      if (rng.index(8) == 0) {
        out += static_cast<char>(rng.index(256));
      } else {
        out += kPieces[rng.index(std::size(kPieces))];
      }
    }
    return out;
  };
  CssDump dump;
  for (int i = 0; i < 20000; ++i) dump.sheet(parse_css(random_text(120)));
  // Real stylesheets with random spans replaced by random text.
  const web::Site site = web::make_w_site(1).site;
  for (const auto& e : site.store->all()) {
    if (e.response.type != http::ResourceType::kCss) continue;
    for (int i = 0; i < 50; ++i) {
      std::string input = *e.body;
      for (int edit = 0; edit < 4; ++edit) {
        const std::size_t at = rng.index(input.size() + 1);
        const std::size_t len = std::min(rng.index(64), input.size() - at);
        input.replace(at, len, random_text(8));
      }
      dump.sheet(parse_css(input));
    }
  }
  EXPECT_GT(dump.rules(), 10000u);
  EXPECT_EQ(dump.hex(),
            "f4a4aa69488bb456ce5b5edde3e0f12fe3f54488722611fd4f205b776964643b");
}

TEST(CssGolden, EdgeCases) {
  const std::vector<std::string> inputs = {
      "",
      "   \t\v\f\r\n  ",
      "DIV.Hero#Main > P.x { COLOR: Red; Font-Family: \"Open Sans\", serif }",
      "a{\tcolor\v:\fblue\r;\nmargin : 0 }",
      "h1 {} h2 { ; ; : ; x: }",
      "p\xc3\xa9.cl\xe2\x80\x94ss #\xff id { co\x80lor: \xfe; }",
      ".a /* unterminated comment { x: y }",
      "/* ok */ .b { x: y } .c { z: w",
      ".d { x: y } .e { background: url(\"/img/e.png\") }  {",
      "@media screen { .f { x: y } @media print { .g { background: "
      "url('/g.png') } } } .h { x: y }",
      "@media screen { .i { x: y }",
      "@font-face { font-family: 'Brand'; src: url(/fonts/brand.woff2) "
      "format('woff2'), url(/fonts/brand.woff) }",
      "@FONT-FACE { font-family: X }",
      "@font-face { FONT-FAMILY: \"Caps\"; SRC: url( \"/c.woff\" ) }",
      "@import url(/x.css); .j { x: y }",
      ".k, , .l ,.m { background: url() url( ) url(/k.png) url(/l.png }",
      "* { x: y } *.n * { x: y } > { x: y } :hover { x: y }",
      "q { font-family: , serif } r { font-family: '' } s { font-family: \" }",
  };
  CssDump dump;
  for (const auto& input : inputs) dump.sheet(parse_css(input));
  EXPECT_EQ(dump.hex(),
            "d51617dd4a42255239fea577dd0f3c4cf78f2305b02881fc40f62470cb7c3016");
}

}  // namespace
}  // namespace h2push::browser
