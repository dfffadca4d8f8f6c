// Round-trip and parse-error contract of the .scenario corpus format.
#include "testing/corpus.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/scenario.hpp"
#include "rng/xoshiro256.hpp"
#include "testing/fuzzer.hpp"
#include "util/check.hpp"

namespace fadesched::testing {
namespace {

ScenarioCase SampleCase() {
  ScenarioCase scenario;
  rng::Xoshiro256 gen(7);
  net::UniformScenarioParams p;
  p.region_size = 300.0;
  scenario.links = net::MakeUniformScenario(9, p, gen);
  scenario.params.alpha = 3.25;
  scenario.params.epsilon = 0.015;
  scenario.params.gamma_th = 1.5;
  scenario.params.tx_power = 2.0;
  scenario.params.noise_power = 1e-9;
  scenario.description = "corpus round-trip sample";
  return scenario;
}

TEST(CorpusTest, RoundTripIsBitIdentical) {
  const ScenarioCase original = SampleCase();
  const ScenarioCase reparsed = ParseScenario(FormatScenario(original));
  ASSERT_EQ(reparsed.links.Size(), original.links.Size());
  for (net::LinkId i = 0; i < original.links.Size(); ++i) {
    EXPECT_EQ(reparsed.links.Sender(i).x, original.links.Sender(i).x);
    EXPECT_EQ(reparsed.links.Sender(i).y, original.links.Sender(i).y);
    EXPECT_EQ(reparsed.links.Receiver(i).x, original.links.Receiver(i).x);
    EXPECT_EQ(reparsed.links.Receiver(i).y, original.links.Receiver(i).y);
    EXPECT_EQ(reparsed.links.Rate(i), original.links.Rate(i));
  }
  EXPECT_EQ(reparsed.params.alpha, original.params.alpha);
  EXPECT_EQ(reparsed.params.epsilon, original.params.epsilon);
  EXPECT_EQ(reparsed.params.gamma_th, original.params.gamma_th);
  EXPECT_EQ(reparsed.params.tx_power, original.params.tx_power);
  EXPECT_EQ(reparsed.params.noise_power, original.params.noise_power);
  EXPECT_EQ(reparsed.description, original.description);
}

TEST(CorpusTest, RoundTripsFuzzedExtremes) {
  // Fuzz-generated instances carry 17-digit doubles, per-link powers, and
  // weighted rates; every one must survive format -> parse bit-for-bit.
  const ScenarioFuzzer fuzzer(11);
  for (std::uint64_t index = 0; index < 30; ++index) {
    const ScenarioCase original = fuzzer.Case(index);
    const ScenarioCase reparsed = ParseScenario(FormatScenario(original));
    ASSERT_EQ(reparsed.links.Size(), original.links.Size()) << index;
    for (net::LinkId i = 0; i < original.links.Size(); ++i) {
      ASSERT_EQ(reparsed.links.Receiver(i).x, original.links.Receiver(i).x);
      ASSERT_EQ(reparsed.links.TxPower(i), original.links.TxPower(i));
    }
    ASSERT_EQ(reparsed.params.epsilon, original.params.epsilon) << index;
  }
}

TEST(CorpusTest, SaveLoadFile) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "fadesched_corpus_test.scenario";
  const ScenarioCase original = SampleCase();
  SaveScenarioFile(original, path.string());
  const ScenarioCase loaded = LoadScenarioFile(path.string());
  EXPECT_EQ(loaded.links.Size(), original.links.Size());
  EXPECT_EQ(loaded.params.alpha, original.params.alpha);
  std::filesystem::remove(path);
}

std::string MessageOf(const std::string& text) {
  try {
    (void)ParseScenario(text);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

// The loader's error positions are part of the format contract: external
// tooling greps them, so the row/line numbering must stay stable.
TEST(CorpusTest, ParseErrorsAreLineNumbered) {
  EXPECT_NE(MessageOf("not a scenario\n").find("line 1"), std::string::npos);

  const std::string bad_value =
      "# fadesched scenario v1\n"
      "alpha = not_a_number\n";
  EXPECT_NE(MessageOf(bad_value).find("scenario file line 2"),
            std::string::npos);

  const std::string bad_key =
      "# fadesched scenario v1\n"
      "alpha = 3\n"
      "bogus = 1\n";
  EXPECT_NE(MessageOf(bad_key).find("scenario file line 3"),
            std::string::npos);

  const std::string missing_key =
      "# fadesched scenario v1\n"
      "alpha = 3\n"
      "links:\n"
      "sx,sy,rx,ry,rate\n";
  EXPECT_NE(MessageOf(missing_key).find("missing key 'epsilon'"),
            std::string::npos);

  // A malformed link row reports its 1-based CSV row via scenario_io.
  const std::string bad_row =
      "# fadesched scenario v1\n"
      "alpha = 3\nepsilon = 0.01\ngamma_th = 1\ntx_power = 1\n"
      "noise_power = 0\n"
      "links:\n"
      "sx,sy,rx,ry,rate\n"
      "0,0,1,0,1\n"
      "5,5,oops,5,1\n";
  const std::string message = MessageOf(bad_row);
  EXPECT_NE(message.find("row 2"), std::string::npos) << message;
}

TEST(CorpusTest, RejectsMultilineDescription) {
  ScenarioCase scenario = SampleCase();
  scenario.description = "two\nlines";
  EXPECT_THROW((void)FormatScenario(scenario), util::CheckFailure);
}

// FormatScenario as it was written with ostringstream and snprintf: the
// reference its to_chars form must reproduce byte for byte, so corpus
// files, check= values and routing keys stay what they were.
std::string SnprintfFormat(const ScenarioCase& scenario) {
  const auto num = [](double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return std::string(buf);
  };
  std::ostringstream os;
  os << "# fadesched scenario v1\n";
  os << "# description: " << scenario.description << "\n";
  os << "alpha = " << num(scenario.params.alpha) << "\n";
  os << "epsilon = " << num(scenario.params.epsilon) << "\n";
  os << "gamma_th = " << num(scenario.params.gamma_th) << "\n";
  os << "tx_power = " << num(scenario.params.tx_power) << "\n";
  os << "noise_power = " << num(scenario.params.noise_power) << "\n";
  os << "links:\n";
  const net::LinkSet& links = scenario.links;
  const bool with_power = !links.HasUniformTxPower();
  os << "sx,sy,rx,ry,rate" << (with_power ? ",tx_power" : "") << "\n";
  for (net::LinkId i = 0; i < links.Size(); ++i) {
    os << num(links.Sender(i).x) << ',' << num(links.Sender(i).y) << ','
       << num(links.Receiver(i).x) << ',' << num(links.Receiver(i).y) << ','
       << num(links.Rate(i));
    if (with_power) os << ',' << num(links.TxPower(i));
    os << "\n";
  }
  return os.str();
}

TEST(CorpusTest, FormatMatchesSnprintfForExtremeAndRandomDoubles) {
  const std::vector<double> special = {
      0.0,      -0.0,     4.9406564584124654e-324, -4.9406564584124654e-324,
      2.2250738585072009e-308,  1e308,   -1e308,    1.7976931348623157e308,
      1e-5,     1e-4,     0.1,      1e16,     1e17,   123456789012345678.0};
  rng::Xoshiro256 gen(2024);
  // A finite double with a random bit pattern; |value| < bound.
  const auto random_double = [&gen](double bound) {
    for (;;) {
      const std::uint64_t bits = gen.Next();
      double value;
      std::memcpy(&value, &bits, sizeof(value));
      if (std::isfinite(value) && std::fabs(value) < bound) return value;
    }
  };
  std::size_t numbers = 0;
  for (std::size_t c = 0; c < 200; ++c) {
    ScenarioCase scenario;
    scenario.description = "case " + std::to_string(c);
    const auto pick = [&](std::size_t k) {
      return k < special.size() ? special[k] : random_double(2e308);
    };
    // Channel parameters are not validated by the format: every special
    // value, ±1e308 and ±0 included, passes through them.
    scenario.params.alpha = pick((5 * c) % 40);
    scenario.params.epsilon = pick((5 * c + 1) % 40);
    scenario.params.gamma_th = pick((5 * c + 2) % 40);
    scenario.params.tx_power = pick((5 * c + 3) % 40);
    scenario.params.noise_power = pick((5 * c + 4) % 40);
    for (std::size_t i = 0; i < 50; ++i) {
      // Coordinates stay below 1e150 so link lengths are finite; ±0 and
      // subnormals sit in the sender, far-out values in rate and power.
      net::Link link;
      link.sender = {i % 7 == 0 ? special[i % 4] : random_double(1e150),
                     random_double(1e150)};
      link.receiver = {random_double(1e150), random_double(1e150)};
      link.rate = std::fabs(i % 5 == 0 ? special[2 + i % 6] : random_double(2e308));
      if (!(link.rate > 0.0)) link.rate = 1.0;
      link.tx_power = c % 2 == 0 ? 0.0 : std::fabs(random_double(2e308));
      const double length = link.Length();
      if (!(length > 0.0) || !std::isfinite(length)) continue;  // Add rejects
      scenario.links.Add(link);
    }
    numbers += 5 + scenario.links.Size() * (c % 2 == 0 ? 5 : 6);
    ASSERT_EQ(FormatScenario(scenario), SnprintfFormat(scenario)) << "case " << c;
  }
  EXPECT_GT(numbers, 50000u);
}

}  // namespace
}  // namespace fadesched::testing
