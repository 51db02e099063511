// Golden pins of simulator output.
//
// Each case replays one paper site under one (strategy, network, seed,
// run_index) tuple and compares the SHA-256 of the canonical LoadResult
// serialization (core::RunCache::serialize) against a pinned digest. The
// simulator is deterministic, so any change to these digests means a
// change moved simulated results: refactors of the codec, the servers, the
// sim transports or the browser must leave every digest as it is. A PR
// that changes results on purpose updates the pins and says why.
#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

#include "core/critical_css.h"
#include "core/memo.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "trace/chrome_trace.h"
#include "trace/trace.h"
#include "util/sha256.h"
#include "web/profiles.h"
#include "web/site.h"

namespace h2push::core {
namespace {

enum class Arm { kNoPush, kPushAll, kPushAllInterleaved, kHttp1 };

struct GoldenCase {
  const char* label;
  int site;  // paper site w<site>
  Arm arm;
  bool internet;  // NetworkConditions::internet() instead of testbed()
  std::uint64_t seed;
  int run_index;
  const char* sha256;
};

std::string hex(const std::array<std::uint8_t, 32>& digest) {
  std::string out;
  char buf[3];
  for (const auto byte : digest) {
    std::snprintf(buf, sizeof(buf), "%02x", byte);
    out += buf;
  }
  return out;
}

std::string digest_of(const GoldenCase& c) {
  const web::Site site = web::make_w_site(c.site).site;
  const auto order = web::pushable_urls(site);
  Strategy strategy = no_push();
  RunConfig config;
  config.seed = c.seed;
  config.run_index = c.run_index;
  if (c.internet) config.net = sim::NetworkConditions::internet();
  switch (c.arm) {
    case Arm::kNoPush:
      break;
    case Arm::kPushAll:
      strategy = push_all(site, order);
      break;
    case Arm::kPushAllInterleaved:
      strategy = push_all(site, order);
      strategy.interleaving = true;
      strategy.interleave_offset = head_end_offset(site);
      break;
    case Arm::kHttp1:
      config.browser.use_http1 = true;
      break;
  }
  browser::PageLoadResult result = run_page_load(site, strategy, config);
  EXPECT_TRUE(result.complete) << c.label;
  // Pinned before the HTTP/1.1 arm counted TCP retransmissions; the pin
  // covers everything else it reports.
  if (c.arm == Arm::kHttp1 && c.internet) result.retransmissions = 0;
  return hex(util::sha256(RunCache::serialize(result)));
}

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.label; }

class Golden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Golden, LoadResultDigestIsPinned) {
  const GoldenCase& c = GetParam();
  EXPECT_EQ(digest_of(c), c.sha256) << c.label;
}

// The Internet-condition tuples are runs in which no ACK overtakes a
// go-back-N retransmission: the TCP model mishandles that case (snd_nxt
// falls behind snd_una), and a fix for it must leave these pins valid.
const GoldenCase kCases[] = {
    {"h2_nopush_testbed", 3, Arm::kNoPush, false, 1, 0,
     "52cb700aacccd0d67105e1d36f96d84088ff2a35d81f6bcbe6c2986d25a2d8bd"},
    {"h2_pushall_testbed", 3, Arm::kPushAll, false, 1, 0,
     "739cebf8ed493789c79cf09783d02486993ad09bb324d5c13c9d7f3ce1600005"},
    {"h2_interleave_testbed", 3, Arm::kPushAllInterleaved, false, 1, 0,
     "bf78d0c7391e5eb0fd8b528731d68a1906a65c384e05d76654bb592577016a6d"},
    {"h2_pushall_internet", 12, Arm::kPushAll, true, 7, 2,
     "c38b1b3f643c480cb45645fe30ed5bb9cffa8e55732399d10472f7c664ade892"},
    {"h1_testbed", 3, Arm::kHttp1, false, 1, 0,
     "9dba1c310a8fefa8ce5b79c1a0eb5071cdd2652aeb64a2bd76043274158253cb"},
    {"h1_internet", 12, Arm::kHttp1, true, 7, 0,
     "f38846e4bae87deb2dcd215006eddcc29389ac99b9f7e293ae0124745421836b"},
};

INSTANTIATE_TEST_SUITE_P(Runs, Golden, ::testing::ValuesIn(kCases),
                         [](const auto& param_info) {
                           return std::string(param_info.param.label);
                         });

// One traced interleaved load. The Chrome trace export records what no
// LoadResult field does: the order, timing and arguments of every frame and
// of the server's interleave.configure / .pause / .resume instants. Moving
// the hard switch between modules must leave this export as it is.
TEST(TraceGolden, InterleavedLoadExportIsPinned) {
  const web::Site site = web::make_w_site(3).site;
  Strategy strategy = push_all(site, web::pushable_urls(site));
  strategy.interleaving = true;
  strategy.interleave_offset = head_end_offset(site);
  trace::TraceRecorder recorder;
  RunConfig config;
  config.seed = 1;
  config.trace = &recorder;
  ASSERT_TRUE(run_page_load(site, strategy, config).complete);
  const std::string json = trace::to_chrome_trace_json(recorder);
  for (const char* name :
       {"interleave.configure", "interleave.pause", "interleave.resume"}) {
    EXPECT_NE(json.find('"' + std::string(name) + '"'), std::string::npos)
        << name;
  }
  EXPECT_EQ(hex(util::sha256(json)),
            "16ff8f9d7fa0ed4abd4eaddfef94ed2015960a1b9e46ebda0a0fe9ad65f2aa54");
}

}  // namespace
}  // namespace h2push::core
