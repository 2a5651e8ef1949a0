#include "vinoc/io/spec_format.hpp"

#include <fstream>
#include <map>
#include <sstream>

namespace vinoc::io {

namespace {

const std::map<std::string, soc::CoreKind>& kind_table() {
  static const std::map<std::string, soc::CoreKind> table = {
      {"cpu", soc::CoreKind::kCpu},
      {"dsp", soc::CoreKind::kDsp},
      {"gpu", soc::CoreKind::kGpu},
      {"cache", soc::CoreKind::kCache},
      {"memory", soc::CoreKind::kMemory},
      {"mem_ctrl", soc::CoreKind::kMemController},
      {"dma", soc::CoreKind::kDma},
      {"video", soc::CoreKind::kVideo},
      {"imaging", soc::CoreKind::kImaging},
      {"display", soc::CoreKind::kDisplay},
      {"audio", soc::CoreKind::kAudio},
      {"modem", soc::CoreKind::kModem},
      {"crypto", soc::CoreKind::kCrypto},
      {"peripheral", soc::CoreKind::kPeripheral},
      {"other", soc::CoreKind::kOther},
  };
  return table;
}

/// The spec-file name of `kind`: the parser's table read backwards.
const char* kind_name(soc::CoreKind kind) {
  for (const auto& [name, k] : kind_table()) {
    if (k == kind) return name.c_str();
  }
  return "other";
}

bool parse_double(const std::string& tok, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(tok, &pos);
    return pos == tok.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

bool parse_core_kind(const std::string& token, soc::CoreKind& out) {
  const auto it = kind_table().find(token);
  if (it == kind_table().end()) {
    out = soc::CoreKind::kOther;
    return false;
  }
  out = it->second;
  return true;
}

ParseResult parse_soc_spec(std::istream& in) {
  ParseResult result;
  soc::SocSpec& spec = result.spec;
  std::map<std::string, soc::IslandId> island_of_name;

  std::string line;
  int line_no = 0;
  auto fail = [&result, &line_no](std::string msg) {
    result.errors.push_back({line_no, std::move(msg)});
  };

  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string cmd;
    if (!(ls >> cmd)) continue;  // blank

    if (cmd == "soc") {
      if (!(ls >> spec.name)) fail("soc: missing name");
    } else if (cmd == "island") {
      std::string name;
      std::string vdd_tok;
      std::string mode;
      if (!(ls >> name >> vdd_tok >> mode)) {
        fail("island: expected <name> <vdd_v> <shutdown|always_on>");
        continue;
      }
      soc::VoltageIsland vi;
      vi.name = name;
      if (!parse_double(vdd_tok, vi.vdd_v)) {
        fail("island " + name + ": bad vdd '" + vdd_tok + "'");
        continue;
      }
      if (mode == "shutdown") {
        vi.can_shutdown = true;
      } else if (mode == "always_on") {
        vi.can_shutdown = false;
      } else {
        fail("island " + name + ": mode must be 'shutdown' or 'always_on'");
        continue;
      }
      if (island_of_name.count(name) != 0) {
        fail("island " + name + ": duplicate island name");
        continue;
      }
      island_of_name[name] = static_cast<soc::IslandId>(spec.islands.size());
      spec.islands.push_back(std::move(vi));
    } else if (cmd == "core") {
      std::string name;
      std::string kind_tok;
      std::string island_name;
      std::string w;
      std::string h;
      std::string dyn;
      std::string leak;
      std::string clk;
      if (!(ls >> name >> kind_tok >> island_name >> w >> h >> dyn >> leak >> clk)) {
        fail("core: expected <name> <kind> <island> <w_mm> <h_mm> <dyn_mw> "
             "<leak_mw> <clk_mhz>");
        continue;
      }
      soc::CoreSpec c;
      c.name = name;
      if (!parse_core_kind(kind_tok, c.kind)) {
        fail("core " + name + ": unknown kind '" + kind_tok + "'");
        continue;
      }
      const auto isl = island_of_name.find(island_name);
      if (isl == island_of_name.end()) {
        fail("core " + name + ": unknown island '" + island_name + "'");
        continue;
      }
      c.island = isl->second;
      double dyn_mw = 0.0;
      double leak_mw = 0.0;
      double clk_mhz = 0.0;
      if (!parse_double(w, c.width_mm) || !parse_double(h, c.height_mm) ||
          !parse_double(dyn, dyn_mw) || !parse_double(leak, leak_mw) ||
          !parse_double(clk, clk_mhz)) {
        fail("core " + name + ": bad numeric field");
        continue;
      }
      c.dynamic_power_w = dyn_mw * 1e-3;
      c.leakage_power_w = leak_mw * 1e-3;
      c.clock_hz = clk_mhz * 1e6;
      spec.cores.push_back(std::move(c));
    } else if (cmd == "flow") {
      std::string src;
      std::string dst;
      std::string bw;
      std::string lat;
      if (!(ls >> src >> dst >> bw >> lat)) {
        fail("flow: expected <src> <dst> <bandwidth_mbps> <max_latency_cycles>");
        continue;
      }
      soc::Flow f;
      f.src = spec.find_core(src);
      f.dst = spec.find_core(dst);
      if (f.src < 0) {
        fail("flow: unknown source core '" + src + "'");
        continue;
      }
      if (f.dst < 0) {
        fail("flow: unknown destination core '" + dst + "'");
        continue;
      }
      double bw_mbps = 0.0;
      if (!parse_double(bw, bw_mbps) || !parse_double(lat, f.max_latency_cycles)) {
        fail("flow " + src + "->" + dst + ": bad numeric field");
        continue;
      }
      f.bandwidth_bits_per_s = bw_mbps * 8.0e6;
      f.label = src + "->" + dst;
      spec.flows.push_back(std::move(f));
    } else if (cmd == "scenario") {
      std::string name;
      std::string frac_tok;
      if (!(ls >> name >> frac_tok)) {
        fail("scenario: expected <name> <time_fraction> <islands...>");
        continue;
      }
      soc::Scenario s;
      s.name = name;
      if (!parse_double(frac_tok, s.time_fraction)) {
        fail("scenario " + name + ": bad time fraction");
        continue;
      }
      s.island_active.assign(spec.islands.size(), false);
      std::string isl_name;
      bool bad = false;
      while (ls >> isl_name) {
        const auto it = island_of_name.find(isl_name);
        if (it == island_of_name.end()) {
          fail("scenario " + name + ": unknown island '" + isl_name + "'");
          bad = true;
          break;
        }
        s.island_active[static_cast<std::size_t>(it->second)] = true;
      }
      if (bad) continue;
      // Always-on islands are implicitly active.
      for (std::size_t i = 0; i < spec.islands.size(); ++i) {
        if (!spec.islands[i].can_shutdown) s.island_active[i] = true;
      }
      spec.scenarios.push_back(std::move(s));
    } else {
      fail("unknown directive '" + cmd + "'");
    }
  }

  if (result.errors.empty()) {
    for (const std::string& problem : spec.validate()) {
      result.errors.push_back({0, "spec invalid: " + problem});
    }
  }
  result.ok = result.errors.empty();
  return result;
}

ParseResult parse_soc_spec_string(const std::string& text) {
  std::istringstream in(text);
  return parse_soc_spec(in);
}

ParseResult parse_soc_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ParseResult r;
    r.errors.push_back({0, "cannot open file: " + path});
    return r;
  }
  return parse_soc_spec(in);
}

std::string write_soc_spec(const soc::SocSpec& spec) {
  std::ostringstream os;
  os << "soc " << spec.name << "\n\n";
  for (const soc::VoltageIsland& vi : spec.islands) {
    os << "island " << vi.name << ' ' << vi.vdd_v << ' '
       << (vi.can_shutdown ? "shutdown" : "always_on") << '\n';
  }
  os << '\n';
  for (const soc::CoreSpec& c : spec.cores) {
    os << "core " << c.name << ' ' << kind_name(c.kind) << ' '
       << spec.islands[static_cast<std::size_t>(c.island)].name << ' '
       << c.width_mm << ' ' << c.height_mm << ' ' << c.dynamic_power_w * 1e3
       << ' ' << c.leakage_power_w * 1e3 << ' ' << c.clock_hz / 1e6 << '\n';
  }
  os << '\n';
  for (const soc::Flow& f : spec.flows) {
    os << "flow " << spec.cores[static_cast<std::size_t>(f.src)].name << ' '
       << spec.cores[static_cast<std::size_t>(f.dst)].name << ' '
       << f.bandwidth_bits_per_s / 8.0e6 << ' ' << f.max_latency_cycles << '\n';
  }
  if (!spec.scenarios.empty()) os << '\n';
  for (const soc::Scenario& s : spec.scenarios) {
    os << "scenario " << s.name << ' ' << s.time_fraction;
    for (std::size_t i = 0; i < s.island_active.size(); ++i) {
      if (s.island_active[i]) os << ' ' << spec.islands[i].name;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace vinoc::io
