// Seeded byte-mutation table for parser robustness tests: every mutant of a
// valid input text must parse to either a result or a non-empty error list,
// never a throw or a crash (the ASan CI job runs the same tables).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vinoc::test_support {

struct Mutant {
  std::string label;  ///< operation and byte offset, for failure messages
  std::string text;
};

/// `count` mutants of `text`, one mutation each, drawn from a fixed-seed
/// splitmix64 stream: flip one bit of a byte, delete a byte, duplicate a
/// byte, truncate at an offset, or splice a huge integer over the digit
/// run at or after an offset (inserted when no digit follows). The table
/// depends only on (text, seed, count).
inline std::vector<Mutant> byte_mutations(const std::string& text,
                                          std::uint64_t seed, int count) {
  std::uint64_t state = seed;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  static const char* const kHuge[] = {"99999999999999999999999999999999",
                                      "-9223372036854775809", "4294967296",
                                      "1e99999"};
  std::vector<Mutant> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count && !text.empty(); ++i) {
    const std::size_t at = static_cast<std::size_t>(next() % text.size());
    Mutant m{"", text};
    switch (next() % 5) {
      case 0: {
        const int bit = static_cast<int>(next() % 8);
        m.text[at] = static_cast<char>(
            static_cast<unsigned char>(m.text[at]) ^ (1u << bit));
        m.label = "flip bit " + std::to_string(bit) + " @" + std::to_string(at);
        break;
      }
      case 1:
        m.text.erase(at, 1);
        m.label = "delete @" + std::to_string(at);
        break;
      case 2:
        m.text.insert(at, 1, m.text[at]);
        m.label = "duplicate @" + std::to_string(at);
        break;
      case 3:
        m.text.resize(at);
        m.label = "truncate @" + std::to_string(at);
        break;
      default: {
        const char* huge = kHuge[next() % (sizeof(kHuge) / sizeof(kHuge[0]))];
        std::size_t first = m.text.find_first_of("0123456789", at);
        std::size_t len = 0;
        if (first == std::string::npos) {
          first = at;
        } else {
          const std::size_t end = m.text.find_first_not_of("0123456789.", first);
          len = (end == std::string::npos ? m.text.size() : end) - first;
        }
        m.text.replace(first, len, huge);
        m.label = std::string("splice ") + huge + " @" + std::to_string(first);
        break;
      }
    }
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace vinoc::test_support
