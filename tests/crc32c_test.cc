// CRC32C known answers (RFC 3720, B.4) and agreement between the two
// implementations Crc32cExtend dispatches to. The portable one is called
// directly, so it runs on SSE4.2 hosts too.

#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fts {
namespace {

using Crc32cFn = uint32_t (*)(uint32_t, std::string_view);

/// Every implementation this host can run, by name.
std::vector<std::pair<const char*, Crc32cFn>> Implementations() {
  std::vector<std::pair<const char*, Crc32cFn>> impls = {
      {"portable", &Crc32cExtendPortable}, {"dispatched", &Crc32cExtend}};
  if (CpuSupportsSse42()) impls.emplace_back("sse4.2", &Crc32cExtendSse42);
  return impls;
}

TEST(Crc32cTest, Rfc3720KnownAnswers) {
  std::string zeros(32, '\0'), ones(32, '\xFF'), ascending(32, '\0'), descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  for (const auto& [name, crc] : Implementations()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(crc(0, zeros), 0x8A9136AAu);
    EXPECT_EQ(crc(0, ones), 0x62A8AB43u);
    EXPECT_EQ(crc(0, ascending), 0x46DD794Eu);
    EXPECT_EQ(crc(0, descending), 0x113FDB5Cu);
    EXPECT_EQ(crc(0, "123456789"), 0xE3069283u);
    EXPECT_EQ(crc(0, ""), 0u);
  }
}

TEST(Crc32cTest, ImplementationsAgreeOnEveryShortLengthAndAlignment) {
  std::string buf(64 + 8, '\0');
  uint32_t x = 12345;
  for (char& c : buf) {
    x = x * 1103515245u + 12345u;
    c = static_cast<char>(x >> 24);
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 64; ++len) {
      const std::string_view data = std::string_view(buf).substr(start, len);
      const uint32_t want = Crc32cExtendPortable(0, data);
      for (const auto& [name, crc] : Implementations()) {
        EXPECT_EQ(crc(0, data), want) << name << " start " << start << " len " << len;
      }
    }
  }
}

TEST(Crc32cTest, ExtendingASplitInputEqualsTheWhole) {
  std::string buf(200, '\0');
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<char>(i * 7 + 3);
  const std::string_view all(buf);
  for (const auto& [name, crc] : Implementations()) {
    const uint32_t whole = crc(0, all);
    for (size_t cut = 0; cut <= all.size(); cut += 13) {
      EXPECT_EQ(crc(crc(0, all.substr(0, cut)), all.substr(cut)), whole)
          << name << " cut " << cut;
    }
    EXPECT_EQ(Crc32c(all), whole) << name;
  }
}

}  // namespace
}  // namespace fts
