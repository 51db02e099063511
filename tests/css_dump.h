// Canonical digest of parsed stylesheets, shared by the CSS parser tests.
//
// CssDump feeds every Stylesheet field (rules, selectors, compound parts,
// declarations, font faces, original texts) and the derived helpers the
// renderer uses (font_family(), urls(), resource_urls()) into SHA-256, so
// two sheets with equal digests are equal field by field.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "browser/css.h"
#include "util/sha256.h"

namespace h2push::browser {

/// Length-prefixed canonical dump, so field boundaries are unambiguous.
class CssDump {
 public:
  void count(std::size_t n) {
    const auto v = static_cast<std::uint64_t>(n);
    hasher_.update(&v, sizeof(v));
  }
  void str(std::string_view s) {
    count(s.size());
    hasher_.update(s);
  }
  void strings(const std::vector<std::string>& v) {
    count(v.size());
    for (const auto& s : v) str(s);
  }

  void sheet(const Stylesheet& sheet) {
    count(sheet.rules.size());
    for (const auto& rule : sheet.rules) {
      count(rule.selectors.size());
      for (const auto& sel : rule.selectors) {
        str(sel.text);
        count(sel.parts.size());
        for (const auto& part : sel.parts) {
          str(part.tag);
          strings(part.classes);
          str(part.id);
        }
      }
      count(rule.declarations.size());
      for (const auto& d : rule.declarations) {
        str(d.property);
        str(d.value);
      }
      str(rule.text);
      str(rule.font_family());
      strings(rule.urls());
    }
    count(sheet.font_faces.size());
    for (const auto& face : sheet.font_faces) {
      str(face.family);
      str(face.url);
      str(face.text);
    }
    strings(sheet.resource_urls());
    rules_ += sheet.rules.size();
    faces_ += sheet.font_faces.size();
  }

  std::size_t rules() const noexcept { return rules_; }
  std::size_t faces() const noexcept { return faces_; }

  std::string hex() {
    std::string out;
    char buf[3];
    for (const auto byte : hasher_.finish()) {
      std::snprintf(buf, sizeof(buf), "%02x", byte);
      out += buf;
    }
    return out;
  }

 private:
  util::Sha256 hasher_;
  std::size_t rules_ = 0;
  std::size_t faces_ = 0;
};

}  // namespace h2push::browser
