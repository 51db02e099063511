// The process-wide stylesheet memo behind browser::parse_css_shared: it
// returns exactly what parse_css returns for the same text, shares one
// sheet between equal texts, tells texts apart byte by byte, holds no more
// text than its cap, and gives concurrent callers identical sheets.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "browser/css.h"
#include "css_dump.h"
#include "web/profiles.h"
#include "web/site.h"

namespace h2push::browser {
namespace {

std::vector<std::string> paper_site_sheets() {
  std::vector<std::string> out;
  for (int w = 1; w <= 20; ++w) {
    const web::Site site = web::make_w_site(w).site;
    for (const auto& e : site.store->all()) {
      if (e.response.type == http::ResourceType::kCss) out.push_back(*e.body);
    }
  }
  return out;
}

std::string digest(const Stylesheet& sheet) {
  CssDump dump;
  dump.sheet(sheet);
  return dump.hex();
}

TEST(CssMemo, EqualsParseCssOnPaperSiteSheets) {
  const auto sheets = paper_site_sheets();
  ASSERT_GT(sheets.size(), 20u);
  for (const auto& text : sheets) {
    EXPECT_EQ(digest(*parse_css_shared(text)), digest(parse_css(text)));
  }
}

TEST(CssMemo, EqualTextSharesOneSheet) {
  const std::string text = ".hero { background: url(/img/a.png) }";
  const auto first = parse_css_shared(text);
  EXPECT_EQ(parse_css_shared(text), first);
  const std::string copy(text.begin(), text.end());  // another buffer
  ASSERT_NE(copy.data(), text.data());
  EXPECT_EQ(parse_css_shared(copy), first);
}

TEST(CssMemo, OneByteApartIsAnotherSheet) {
  const std::string a = ".hero { background: url(/img/a.png) }";
  std::string b = a;
  b[b.find("a.png")] = 'b';
  const auto sheet_a = parse_css_shared(a);
  const auto sheet_b = parse_css_shared(b);
  EXPECT_NE(sheet_a, sheet_b);
  EXPECT_EQ(sheet_a->resource_urls(), std::vector<std::string>{"/img/a.png"});
  EXPECT_EQ(sheet_b->resource_urls(), std::vector<std::string>{"/img/b.png"});
}

TEST(CssMemo, HeldTextStaysWithinCap) {
  // Nine distinct 1 MiB texts: more than the cap, so the table must drop.
  const std::size_t text_bytes = 1u << 20;
  std::size_t inserted = 0;
  for (int i = 0; inserted <= kCssMemoCapBytes; ++i) {
    std::string text(text_bytes, ' ');
    text += ".r" + std::to_string(i) + " { x: y }";
    const auto sheet = parse_css_shared(text);
    ASSERT_EQ(sheet->rules.size(), 1u);
    inserted += text.size();
    EXPECT_LE(css_memo_held_bytes(), kCssMemoCapBytes);
    EXPECT_GE(css_memo_held_bytes(), text.size());  // the newest is kept
  }
  // A text longer than the cap is parsed but never held.
  std::string huge(kCssMemoCapBytes + 1, ' ');
  huge += ".big { x: y }";
  EXPECT_EQ(parse_css_shared(huge)->rules.size(), 1u);
  EXPECT_LE(css_memo_held_bytes(), kCssMemoCapBytes);
}

TEST(CssMemo, ConcurrentLookupsAgree) {
  const auto sheets = paper_site_sheets();
  std::vector<std::string> expected;
  for (const auto& text : sheets) expected.push_back(digest(parse_css(text)));
  constexpr int kThreads = 4;
  std::vector<std::vector<std::string>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sheets, &out = seen[t], t] {
      // Each thread walks the sheets from a different start, twice, so
      // misses, racing inserts and hits all occur.
      out.resize(sheets.size());
      for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t k = 0; k < sheets.size(); ++k) {
          const std::size_t i = (k + static_cast<std::size_t>(t) * 7) %
                                sheets.size();
          out[i] = digest(*parse_css_shared(sheets[i]));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& out : seen) EXPECT_EQ(out, expected);
}

}  // namespace
}  // namespace h2push::browser
