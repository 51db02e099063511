#include "net/corpus.h"

#include <cstdlib>

#include "http/url.h"

namespace h2push::net {

std::optional<PushStrategySpec> PushStrategySpec::parse(
    const std::string& text) {
  PushStrategySpec spec;
  if (text == "none") return spec;
  if (text == "all") {
    spec.kind = Kind::kAll;
    return spec;
  }
  const std::string prefix = "first-n:";
  if (text.rfind(prefix, 0) == 0) {
    const long n = std::strtol(text.c_str() + prefix.size(), nullptr, 10);
    if (n < 0) return std::nullopt;
    spec.kind = Kind::kFirstN;
    spec.first_n = static_cast<std::size_t>(n);
    return spec;
  }
  return std::nullopt;
}

std::string PushStrategySpec::to_string() const {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kAll:
      return "all";
    case Kind::kFirstN:
      return "first-n:" + std::to_string(first_n);
  }
  return "none";
}

LiveCorpus build_live_corpus(const LiveCorpusConfig& config) {
  const web::PopulationProfile profile =
      config.profile == "random100" ? web::PopulationProfile::random100()
                                    : web::PopulationProfile::top100();
  const auto sites =
      web::generate_population(profile, config.sites, config.seed);

  LiveCorpus corpus;
  std::size_t site_index = 0;
  for (const auto& site : sites) {
    // Merge the record store. Colliding (host, path) keys across sites
    // keep the latest body (RecordStore::add semantics); all_urls is
    // rebuilt from the merged store below so it never disagrees.
    for (const auto& exchange : site.store->all()) {
      corpus.store.add(exchange);
    }
    // Merge origins, namespacing the synthetic IPs per site so one site's
    // primary server never becomes authoritative for another's hosts.
    // Appended, not "s" + std::to_string(...): GCC 12's -O3 -Wrestrict
    // misreads the insert at the front of a temporary string.
    std::string ip_prefix = "s";
    ip_prefix.append(std::to_string(site_index)).append("/");
    for (const auto& ip : site.origins.all_ips()) {
      for (const auto& host : site.origins.hosts_on_ip(ip)) {
        corpus.origins.add_host(host, ip_prefix + ip);
      }
    }
    corpus.landing_pages.emplace_back(site.main_url.host,
                                      site.main_url.path);
    // Per-site push policy, mirroring core::Strategy construction.
    server::PushPolicy policy;
    policy.trigger_host = site.main_url.host;
    policy.trigger_path = site.main_url.path;
    policy.interleaving = config.scheduler == SchedulerKind::kInterleaving;
    policy.interleave_offset = config.interleave_offset;
    std::vector<std::string> urls = web::pushable_urls(site);
    switch (config.push.kind) {
      case PushStrategySpec::Kind::kNone:
        urls.clear();
        break;
      case PushStrategySpec::Kind::kAll:
        break;
      case PushStrategySpec::Kind::kFirstN:
        if (urls.size() > config.push.first_n) {
          urls.resize(config.push.first_n);
        }
        break;
    }
    policy.push_urls = std::move(urls);
    if (!policy.empty() || policy.interleaving) {
      corpus.policies.emplace(policy.trigger_host, std::move(policy));
    }
    ++site_index;
  }
  corpus.origins.generate_certificates();
  for (const auto& exchange : corpus.store.all()) {
    corpus.all_urls.emplace_back(exchange.request.url.host,
                                 exchange.request.url.path);
  }
  return corpus;
}

}  // namespace h2push::net
