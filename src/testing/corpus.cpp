#include "testing/corpus.hpp"

#include <array>
#include <charconv>
#include <iterator>
#include <sstream>

#include "net/scenario_io.hpp"
#include "util/atomic_io.hpp"
#include "util/check.hpp"
#include "util/string_util.hpp"

namespace fadesched::testing {
namespace {

constexpr const char* kMagic = "# fadesched scenario v1";

// 17 *significant* digits round-trip every double, so shrunk boundary
// instances replay bit-identically. %g, not util::FormatDouble's fixed
// %f, which drops significance below 1e-17 absolute. to_chars with
// general format and a precision is specified as printf's %.17g, so the
// bytes are the same, at a quarter of snprintf's cost.
void AppendNum(std::string& out, double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::general, 17);
  out.append(buf, result.ptr);
}

}  // namespace

std::string FormatScenario(const ScenarioCase& scenario) {
  FS_CHECK_MSG(scenario.description.find('\n') == std::string::npos,
               "scenario description must be a single line");
  const net::LinkSet& links = scenario.links;
  const bool with_power = !links.HasUniformTxPower();
  std::string out;
  out.reserve(256 + scenario.description.size() +
              links.Size() * (with_power ? 6 : 5) * 25);
  const auto line = [&out](const char* key, double value) {
    out += key;
    AppendNum(out, value);
    out += '\n';
  };
  out += kMagic;
  out += "\n# description: ";
  out += scenario.description;
  out += '\n';
  line("alpha = ", scenario.params.alpha);
  line("epsilon = ", scenario.params.epsilon);
  line("gamma_th = ", scenario.params.gamma_th);
  line("tx_power = ", scenario.params.tx_power);
  line("noise_power = ", scenario.params.noise_power);
  out += "links:\n";
  // The link block reuses scenario_io's CSV schema, but at full precision:
  // rebuild the table cells here instead of calling ToCsv (12 digits).
  out += with_power ? "sx,sy,rx,ry,rate,tx_power\n" : "sx,sy,rx,ry,rate\n";
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    for (const double cell : {links.Sender(i).x, links.Sender(i).y,
                              links.Receiver(i).x, links.Receiver(i).y}) {
      AppendNum(out, cell);
      out += ',';
    }
    AppendNum(out, links.Rate(i));
    if (with_power) {
      out += ',';
      AppendNum(out, links.TxPower(i));
    }
    out += '\n';
  }
  return out;
}

ScenarioCase ParseScenario(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  const auto where = [&] {
    return "scenario file line " + std::to_string(line_no);
  };

  ScenarioCase result;
  const bool has_magic = static_cast<bool>(std::getline(is, line));
  ++line_no;
  FS_CHECK_MSG(has_magic && util::Trim(line) == kMagic,
               "scenario file line 1: missing header '" + std::string(kMagic) +
                   "'");

  bool saw_links = false;
  std::array<bool, 5> seen{};  // alpha, epsilon, gamma_th, tx_power, noise
  while (std::getline(is, line)) {
    ++line_no;
    const std::string trimmed{util::Trim(line)};
    if (trimmed.empty()) continue;
    if (trimmed.rfind("# description:", 0) == 0) {
      result.description = std::string{util::Trim(trimmed.substr(14))};
      continue;
    }
    if (trimmed[0] == '#') continue;
    if (trimmed == "links:") {
      saw_links = true;
      break;
    }
    const auto eq = trimmed.find('=');
    FS_CHECK_MSG(eq != std::string::npos,
                 where() + ": expected 'key = value' or 'links:'");
    const std::string key{util::Trim(trimmed.substr(0, eq))};
    const auto value = util::ParseDouble(util::Trim(trimmed.substr(eq + 1)));
    FS_CHECK_MSG(value.has_value(),
                 where() + ": malformed value for key '" + key + "'");
    if (key == "alpha") {
      result.params.alpha = *value;
      seen[0] = true;
    } else if (key == "epsilon") {
      result.params.epsilon = *value;
      seen[1] = true;
    } else if (key == "gamma_th") {
      result.params.gamma_th = *value;
      seen[2] = true;
    } else if (key == "tx_power") {
      result.params.tx_power = *value;
      seen[3] = true;
    } else if (key == "noise_power") {
      result.params.noise_power = *value;
      seen[4] = true;
    } else {
      FS_CHECK_MSG(false, where() + ": unknown key '" + key + "'");
    }
  }
  FS_CHECK_MSG(saw_links, "scenario file: missing 'links:' block");
  for (std::size_t k = 0; k < seen.size(); ++k) {
    static constexpr const char* kKeys[] = {"alpha", "epsilon", "gamma_th",
                                            "tx_power", "noise_power"};
    FS_CHECK_MSG(seen[k], "scenario file: missing key '" +
                              std::string(kKeys[k]) + "'");
  }
  result.params.Validate();

  // Remainder of the stream is the scenario_io CSV block; FromCsv reports
  // malformed values as "scenario row N" relative to this block.
  std::string csv_block((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
  FS_CHECK_MSG(!util::Trim(csv_block).empty(),
               "scenario file: truncated after 'links:' — missing CSV "
               "header row");
  result.links = net::FromCsv(util::CsvTable::ParseString(csv_block));
  return result;
}

void SaveScenarioFile(const ScenarioCase& scenario, const std::string& path) {
  util::AtomicWriteFile(path, FormatScenario(scenario));
}

ScenarioCase LoadScenarioFile(const std::string& path) {
  return ParseScenario(util::ReadFileToString(path));
}

}  // namespace fadesched::testing
