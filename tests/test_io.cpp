// Tests for the I/O module: exports (DOT/SVG/CSV) and the text spec format.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "byte_mutations.hpp"
#include "cli_process.hpp"
#include "vinoc/core/synthesis.hpp"
#include "vinoc/io/exports.hpp"
#include "vinoc/io/jsonl.hpp"
#include "vinoc/io/spec_format.hpp"
#include "vinoc/soc/benchmarks.hpp"
#include "vinoc/soc/islanding.hpp"

namespace vinoc::io {
namespace {

const char* kGoodSpec = R"(# tiny test SoC
soc demo
island vi_main 1.0 always_on
island vi_acc  0.9 shutdown

core cpu    cpu    vi_main 1.5 1.5 300 120 400
core mem    memory vi_main 1.2 1.2  40  60 400
core accel  dsp    vi_acc  1.4 1.4 150  60 300
core uart   peripheral vi_acc 0.4 0.4 5 2 100

flow cpu mem    800 12
flow mem cpu    800 12
flow accel mem  400 18
flow cpu accel   50 24
flow cpu uart     2 40

scenario busy 0.5 vi_main vi_acc
scenario idle 0.5 vi_main
)";

TEST(SpecFormat, ParsesValidSpec) {
  const ParseResult r = parse_soc_spec_string(kGoodSpec);
  ASSERT_TRUE(r.ok) << (r.errors.empty() ? "?" : r.errors.front().message);
  EXPECT_EQ(r.spec.name, "demo");
  EXPECT_EQ(r.spec.islands.size(), 2u);
  EXPECT_FALSE(r.spec.islands[0].can_shutdown);
  EXPECT_TRUE(r.spec.islands[1].can_shutdown);
  EXPECT_EQ(r.spec.cores.size(), 4u);
  EXPECT_EQ(r.spec.cores[0].kind, soc::CoreKind::kCpu);
  EXPECT_DOUBLE_EQ(r.spec.cores[0].dynamic_power_w, 0.3);
  EXPECT_EQ(r.spec.flows.size(), 5u);
  EXPECT_DOUBLE_EQ(r.spec.flows[0].bandwidth_bits_per_s, 800 * 8e6);
  ASSERT_EQ(r.spec.scenarios.size(), 2u);
  EXPECT_TRUE(r.spec.scenarios[1].island_active[0]);
  EXPECT_FALSE(r.spec.scenarios[1].island_active[1]);
}

TEST(SpecFormat, RoundTripsThroughWriter) {
  const ParseResult first = parse_soc_spec_string(kGoodSpec);
  ASSERT_TRUE(first.ok);
  const std::string text = write_soc_spec(first.spec);
  const ParseResult second = parse_soc_spec_string(text);
  ASSERT_TRUE(second.ok) << (second.errors.empty() ? "?" : second.errors.front().message);
  EXPECT_EQ(second.spec.cores.size(), first.spec.cores.size());
  EXPECT_EQ(second.spec.flows.size(), first.spec.flows.size());
  EXPECT_EQ(second.spec.scenarios.size(), first.spec.scenarios.size());
  for (std::size_t f = 0; f < first.spec.flows.size(); ++f) {
    EXPECT_NEAR(second.spec.flows[f].bandwidth_bits_per_s,
                first.spec.flows[f].bandwidth_bits_per_s, 1.0);
  }
}

TEST(SpecFormat, EveryCoreKindRoundTripsThroughWriter) {
  ParseResult first = parse_soc_spec_string(kGoodSpec);
  ASSERT_TRUE(first.ok);
  for (int k = 0; k <= static_cast<int>(soc::CoreKind::kOther); ++k) {
    const auto kind = static_cast<soc::CoreKind>(k);
    first.spec.cores[0].kind = kind;
    const ParseResult second = parse_soc_spec_string(write_soc_spec(first.spec));
    ASSERT_TRUE(second.ok) << k;
    EXPECT_EQ(second.spec.cores[0].kind, kind) << k;
  }
  first.spec.cores[0].kind = soc::CoreKind::kMemController;
  EXPECT_NE(write_soc_spec(first.spec).find(" mem_ctrl "), std::string::npos);
}

TEST(SpecFormat, ReportsAllErrorsWithLineNumbers) {
  const char* bad = R"(soc broken
island vi0 1.0 shutdown
core a cpu vi0 1 1 10 5 100
core b bogus_kind vi0 1 1 10 5 100
flow a nosuch 100 10
flow a b notanumber 10
junk directive
)";
  const ParseResult r = parse_soc_spec_string(bad);
  EXPECT_FALSE(r.ok);
  ASSERT_GE(r.errors.size(), 4u);
  // Each error carries the offending line.
  for (const ParseError& e : r.errors) {
    EXPECT_GT(e.line, 0);
    EXPECT_FALSE(e.message.empty());
  }
}

TEST(SpecFormat, SemanticValidationRunsAfterParse) {
  const char* dup = R"(soc d
island vi0 1.0 always_on
core a cpu vi0 1 1 10 5 100
core a cpu vi0 1 1 10 5 100
flow a a 100 10
)";
  const ParseResult r = parse_soc_spec_string(dup);
  EXPECT_FALSE(r.ok);
}

TEST(SpecFormat, MissingFileReported) {
  const ParseResult r = parse_soc_spec_file("/nonexistent/path/x.soc");
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_NE(r.errors[0].message.find("cannot open"), std::string::npos);
}

TEST(SpecFormat, CoreKindTokens) {
  soc::CoreKind kind = soc::CoreKind::kOther;
  EXPECT_TRUE(parse_core_kind("mem_ctrl", kind));
  EXPECT_EQ(kind, soc::CoreKind::kMemController);
  EXPECT_FALSE(parse_core_kind("warp_drive", kind));
}

TEST(SpecFormat, ParsedSpecSynthesizes) {
  const ParseResult r = parse_soc_spec_string(kGoodSpec);
  ASSERT_TRUE(r.ok);
  const core::SynthesisResult result = core::synthesize(r.spec);
  EXPECT_FALSE(result.points.empty());
}

TEST(SpecFormat, MutatedSpecsParseOrReportErrors) {
  // A writer-produced spec of a named benchmark, mutated byte by byte from a
  // fixed seed: every mutant must come back parsed or with errors listed.
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const std::string text =
      write_soc_spec(soc::with_logical_islands(d26.soc, 4, d26.use_cases));
  ASSERT_TRUE(parse_soc_spec_string(text).ok);
  for (const test_support::Mutant& m :
       test_support::byte_mutations(text, /*seed=*/0x50C, /*count=*/400)) {
    ParseResult r;
    EXPECT_NO_THROW(r = parse_soc_spec_string(m.text)) << m.label;
    EXPECT_EQ(r.ok, r.errors.empty()) << m.label;
  }
}

TEST(SpecFormat, MutatedSpecsExitTheCliWithDocumentedCodes) {
  // The same mutant table through the real CLI: parse, validation,
  // synthesis and output all run, and every mutant must end in a
  // documented exit code — never a runtime error (1) or a signal.
  const soc::Benchmark d26 = soc::make_d26_media_soc();
  const std::string text =
      write_soc_spec(soc::with_logical_islands(d26.soc, 4, d26.use_cases));
  const std::string base = ::testing::TempDir() + "/vinoc_io_cli_mutant";
  for (const test_support::Mutant& m :
       test_support::byte_mutations(text, /*seed=*/0x50C, /*count=*/400)) {
    write_file(base + ".soc", m.text);
    const int status = test_support::run_cli(
        {"synth", base + ".soc", "--threads", "1", "--out", base});
    EXPECT_EQ(test_support::undocumented_exit(status), "") << m.label;
  }
  for (const char* ext : {".soc", ".dot", ".svg", ".csv"}) {
    std::remove((base + ext).c_str());
  }
}

struct Synthesized {
  soc::SocSpec spec;
  core::SynthesisResult result;

  Synthesized() {
    const soc::Benchmark d26 = soc::make_d26_media_soc();
    spec = soc::with_logical_islands(d26.soc, 6, d26.use_cases);
    result = core::synthesize(spec, core::SynthesisOptions{});
  }
};

TEST(Exports, DotContainsAllSwitchesCoresAndFifoMarks) {
  const Synthesized s;
  ASSERT_FALSE(s.result.points.empty());
  const core::NocTopology& topo = s.result.best_power().topology;
  const std::string dot = topology_to_dot(topo, s.spec);
  EXPECT_NE(dot.find("digraph noc"), std::string::npos);
  for (const soc::CoreSpec& c : s.spec.cores) {
    EXPECT_NE(dot.find(c.name), std::string::npos) << c.name;
  }
  for (std::size_t sw = 0; sw < topo.switches.size(); ++sw) {
    EXPECT_NE(dot.find("sw" + std::to_string(sw)), std::string::npos);
  }
  bool has_crossing = false;
  for (const core::TopLink& l : topo.links) has_crossing |= l.crosses_island;
  if (has_crossing) {
    EXPECT_NE(dot.find("fifo"), std::string::npos);
  }
  // Island clusters present.
  EXPECT_NE(dot.find("cluster_isl0"), std::string::npos);
}

TEST(Exports, SvgWellFormedAndContainsGeometry) {
  const Synthesized s;
  ASSERT_FALSE(s.result.points.empty());
  const std::string svg = floorplan_to_svg(s.result.floorplan, s.spec,
                                           &s.result.best_power().topology);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);  // switches
  EXPECT_NE(svg.find("<line"), std::string::npos);    // links
  // One rect per core plus island regions plus the die outline.
  std::size_t rects = 0;
  for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1)) {
    ++rects;
  }
  EXPECT_GE(rects, s.spec.core_count() + s.spec.island_count() + 1);
}

TEST(Exports, SvgWithoutTopologyOmitsNoc) {
  const Synthesized s;
  const std::string svg = floorplan_to_svg(s.result.floorplan, s.spec, nullptr);
  EXPECT_EQ(svg.find("<circle"), std::string::npos);
}

TEST(Exports, CsvHasOneRowPerPointAndMarksPareto) {
  const Synthesized s;
  ASSERT_FALSE(s.result.points.empty());
  const std::string csv = design_points_to_csv(s.result);
  std::size_t lines = 0;
  for (const char c : csv) lines += (c == '\n') ? 1 : 0;
  EXPECT_EQ(lines, s.result.points.size() + 1);  // header + rows
  EXPECT_NE(csv.find("power_mw"), std::string::npos);
  EXPECT_NE(csv.find(",1\n"), std::string::npos);  // at least one pareto row
}

TEST(Exports, WriteFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/vinoc_io_test.txt";
  write_file(path, "hello vinoc\n");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello vinoc\n");
  std::remove(path.c_str());
  EXPECT_THROW(write_file("/nonexistent_dir_zzz/f.txt", "x"), std::runtime_error);
}

TEST(Exports, WriteFileIsAtomicOverExisting) {
  // Overwriting goes through temp + rename: the old content is fully
  // replaced and no .tmp litter survives a successful write.
  const std::string path = ::testing::TempDir() + "/vinoc_io_atomic.txt";
  write_file(path, "old old old old old\n");
  write_file(path, "new\n");
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "new\n");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(Jsonl, ChecksumRoundTrip) {
  const std::string line = "{\"a\":1,\"b\":\"x\"}";
  const std::string stamped = add_line_checksum(line);
  // Still a flat JSON object with a trailing _crc string field.
  EXPECT_EQ(stamped.rfind(line.substr(0, line.size() - 1) + ",\"_crc\":\"", 0),
            0u);
  EXPECT_EQ(stamped.back(), '}');
  std::string payload;
  EXPECT_EQ(verify_line_checksum(stamped, &payload), ChecksumStatus::kOk);
  EXPECT_EQ(payload, line);
}

TEST(Jsonl, ChecksumRoundTripEmptyObject) {
  const std::string stamped = add_line_checksum("{}");
  std::string payload;
  EXPECT_EQ(verify_line_checksum(stamped, &payload), ChecksumStatus::kOk);
  EXPECT_EQ(payload, "{}");
}

TEST(Jsonl, VerifyTreatsUnstampedLineAsAbsent) {
  std::string payload;
  EXPECT_EQ(verify_line_checksum("{\"a\":1}", &payload),
            ChecksumStatus::kAbsent);
  EXPECT_EQ(payload, "{\"a\":1}");  // v1 lines pass through verbatim
}

TEST(Jsonl, MalformedInputTable) {
  const std::string good = add_line_checksum("{\"a\":1}");
  struct Case {
    const char* name;
    std::string line;
    ChecksumStatus expect;
  };
  std::string flipped_payload = good;
  flipped_payload[2] = 'b';  // corrupt the payload, keep the shape
  std::string flipped_crc = good;
  flipped_crc[good.size() - 3] ^= 1;  // corrupt one hex digit
  std::string nonhex_crc = good;
  nonhex_crc[good.size() - 3] = 'Z';
  const Case kCases[] = {
      {"empty line", "", ChecksumStatus::kMalformed},
      {"not json", "garbage", ChecksumStatus::kMalformed},
      {"truncated mid-payload", good.substr(0, 4), ChecksumStatus::kMalformed},
      {"truncated mid-crc", good.substr(0, good.size() - 5),
       ChecksumStatus::kMalformed},
      {"lone brace", "{", ChecksumStatus::kMalformed},
      {"payload bit flip", flipped_payload, ChecksumStatus::kMismatch},
      {"crc bit flip", flipped_crc, ChecksumStatus::kMismatch},
      {"non-hex crc char", nonhex_crc, ChecksumStatus::kMismatch},
      {"two lines concatenated (torn-tail append)", good + good,
       ChecksumStatus::kMismatch},
      {"over-long unstamped line",
       "{\"a\":\"" + std::string(1 << 20, 'x') + "\"}", ChecksumStatus::kAbsent},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(verify_line_checksum(c.line, nullptr), c.expect) << c.name;
  }
}

TEST(Jsonl, Fnv1a64MatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);    // offset basis
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);     // published vector
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace vinoc::io
