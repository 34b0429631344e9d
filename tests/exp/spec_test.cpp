#include "exp/spec.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>

namespace nomc::exp {
namespace {

CampaignSpec parse_ok(const std::string& text) {
  CampaignSpec spec;
  SpecError error;
  EXPECT_TRUE(parse_campaign(text, spec, error)) << error.str();
  return spec;
}

SpecError parse_fail(const std::string& text) {
  CampaignSpec spec;
  SpecError error;
  EXPECT_FALSE(parse_campaign(text, spec, error));
  return error;
}

TEST(Spec, EmptySpecYieldsDefaults) {
  const CampaignSpec spec = parse_ok("");
  EXPECT_EQ(spec.name, "campaign");
  EXPECT_EQ(spec.base.scheme, "dcn");
  EXPECT_EQ(spec.base.topology, "dense");
  EXPECT_EQ(spec.base.channels, 6);
  EXPECT_FALSE(spec.base.power_dbm.has_value());
  EXPECT_TRUE(spec.axes.empty());
  EXPECT_EQ(expand_grid(spec).size(), 1u);
}

TEST(Spec, BaseAssignmentsCommentsAndBlanks) {
  const CampaignSpec spec = parse_ok(
      "# a comment\n"
      "name = my_campaign\n"
      "\n"
      "scheme = fixed   # trailing comment\n"
      "cfd = 2.5\n"
      "channels = 4\n"
      "power = -10\n"
      "seed = 42\n"
      "trials = 7\n");
  EXPECT_EQ(spec.name, "my_campaign");
  EXPECT_EQ(spec.base.scheme, "fixed");
  EXPECT_DOUBLE_EQ(spec.base.cfd_mhz, 2.5);
  EXPECT_EQ(spec.base.channels, 4);
  ASSERT_TRUE(spec.base.power_dbm.has_value());
  EXPECT_DOUBLE_EQ(*spec.base.power_dbm, -10.0);
  EXPECT_EQ(spec.base.seed, 42u);
  EXPECT_EQ(spec.base.trials, 7);
}

TEST(Spec, PowerRandomClearsFixedPower) {
  const CampaignSpec spec = parse_ok("power = random\n");
  EXPECT_FALSE(spec.base.power_dbm.has_value());
}

TEST(Spec, SingleSweepExpandsInOrder) {
  const CampaignSpec spec = parse_ok("sweep cfd = 9 5 3\n");
  const auto points = expand_grid(spec);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_DOUBLE_EQ(points[0].params.cfd_mhz, 9.0);
  EXPECT_DOUBLE_EQ(points[1].params.cfd_mhz, 5.0);
  EXPECT_DOUBLE_EQ(points[2].params.cfd_mhz, 3.0);
  EXPECT_EQ(points[2].index, 2);
  ASSERT_EQ(points[0].assignment.size(), 1u);
  EXPECT_EQ(points[0].assignment[0].first, "cfd");
  EXPECT_EQ(points[0].assignment[0].second, "9");
}

TEST(Spec, LockstepSweepStepsKeysTogether) {
  const CampaignSpec spec = parse_ok("sweep cfd/channels = 9/1 3/4\n");
  const auto points = expand_grid(spec);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].params.cfd_mhz, 9.0);
  EXPECT_EQ(points[0].params.channels, 1);
  EXPECT_DOUBLE_EQ(points[1].params.cfd_mhz, 3.0);
  EXPECT_EQ(points[1].params.channels, 4);
}

TEST(Spec, CartesianProductFirstAxisOutermost) {
  const CampaignSpec spec = parse_ok(
      "sweep channels = 5 6\n"
      "sweep scheme = fixed dcn\n");
  const auto points = expand_grid(spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].params.channels, 5);
  EXPECT_EQ(points[0].params.scheme, "fixed");
  EXPECT_EQ(points[1].params.channels, 5);
  EXPECT_EQ(points[1].params.scheme, "dcn");
  EXPECT_EQ(points[2].params.channels, 6);
  EXPECT_EQ(points[2].params.scheme, "fixed");
  EXPECT_EQ(points[3].params.channels, 6);
  EXPECT_EQ(points[3].params.scheme, "dcn");
}

TEST(Spec, SweepOverridesBaseAssignment) {
  const CampaignSpec spec = parse_ok(
      "channels = 2\n"
      "sweep channels = 3 4\n");
  const auto points = expand_grid(spec);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].params.channels, 3);
}

// -- Error reporting: every failure names its line --------------------------

TEST(Spec, UnknownKeyReportsLine) {
  const SpecError error = parse_fail("cfd = 3\nbanana = 7\n");
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.message.find("unknown key"), std::string::npos);
  EXPECT_NE(error.str().find("line 2"), std::string::npos);
}

TEST(Spec, MalformedNumberReportsLine) {
  const SpecError error = parse_fail("\n\ncfd = three\n");
  EXPECT_EQ(error.line, 3);
  EXPECT_NE(error.message.find("not a number"), std::string::npos);
}

TEST(Spec, MissingEqualsReportsLine) {
  const SpecError error = parse_fail("cfd 3\n");
  EXPECT_EQ(error.line, 1);
}

TEST(Spec, UnknownSchemeValueReportsLine) {
  const SpecError error = parse_fail("scheme = zigbee\n");
  EXPECT_EQ(error.line, 1);
  EXPECT_NE(error.message.find("unknown scheme"), std::string::npos);
  // Topology names are checked the same way.
  const SpecError topology = parse_fail("cfd = 3\ntopology = hexagonal\n");
  EXPECT_EQ(topology.line, 2);
  EXPECT_NE(topology.message.find("unknown topology 'hexagonal'"), std::string::npos);
}

TEST(Spec, LockstepArityMismatchReportsLine) {
  const SpecError error = parse_fail("trials = 3\nsweep cfd/channels = 9/1 5\n");
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.message.find("1 value(s) for 2 key(s)"), std::string::npos);
}

TEST(Spec, EmptySweepReportsLine) {
  const SpecError error = parse_fail("sweep cfd =\n");
  EXPECT_EQ(error.line, 1);
  EXPECT_NE(error.message.find("no values"), std::string::npos);
}

TEST(Spec, DoublySweptKeyReportsLine) {
  const SpecError error = parse_fail("sweep cfd = 1 2\nsweep cfd = 3 4\n");
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.message.find("more than one sweep"), std::string::npos);
}

TEST(Spec, DuplicateBaseKeyReportsLine) {
  const SpecError error = parse_fail("cfd = 3\ncfd = 4\n");
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.message.find("duplicate"), std::string::npos);
}

TEST(Spec, OutOfRangeValueReportsLine) {
  const SpecError error = parse_fail("trials = 0\n");
  EXPECT_EQ(error.line, 1);
  EXPECT_NE(error.message.find("out of range"), std::string::npos);
}

TEST(Spec, BadSweepValueReportsLine) {
  const SpecError error = parse_fail("sweep channels = 4 none\n");
  EXPECT_EQ(error.line, 1);
}

TEST(Spec, BadCampaignNameReportsLine) {
  const SpecError error = parse_fail("name = has space\n");
  EXPECT_EQ(error.line, 1);
  EXPECT_NE(error.message.find("name"), std::string::npos);
}

TEST(Spec, NonFiniteValuesRejectedWithLine) {
  // strtod reads all of these; every range check is false for NaN, so only
  // an explicit finiteness check keeps "cfd_mhz":nan out of the store.
  for (const char* key : {"band-start", "cfd", "power", "cca", "warmup", "measure"}) {
    for (const char* value : {"nan", "-nan", "inf", "-inf"}) {
      const std::string k = key;
      const std::string v = value;
      const SpecError base = parse_fail("trials = 1\n" + k + " = " + v + "\n");
      EXPECT_EQ(base.line, 2) << k << " = " << v;
      EXPECT_NE(base.str().find("line 2"), std::string::npos) << base.str();
      const SpecError swept = parse_fail("\n\nsweep " + k + " = " + v + "\n");
      EXPECT_EQ(swept.line, 3) << "sweep " << k << " = " << v;
      EXPECT_NE(swept.str().find("line 3"), std::string::npos) << swept.str();
    }
  }
}

TEST(Spec, NegativeSeedRejected) {
  const SpecError error = parse_fail("seed = -1\n");
  EXPECT_EQ(error.line, 1);
}

TEST(Spec, LoadMissingFileFailsWithoutLine) {
  CampaignSpec spec;
  SpecError error;
  EXPECT_FALSE(load_campaign("/nonexistent/path.campaign", spec, error));
  EXPECT_EQ(error.line, 0);
  EXPECT_EQ(error.str().find("line"), std::string::npos);
}

// -- Grid budget -----------------------------------------------------------

std::string sweep_line(const std::string& key, int values) {
  std::string line = "sweep " + key + " =";
  for (int i = 1; i <= values; ++i) {
    line += ' ';
    line += std::to_string(i);
  }
  return line + "\n";
}

TEST(Spec, GridWithinBudgetAccepted) {
  // 1024 * 2 * 512 = exactly kMaxGridPoints: the budget is inclusive.
  const CampaignSpec spec =
      parse_ok(sweep_line("trials", 1024) + sweep_line("channels", 2) + sweep_line("psdu", 512));
  std::size_t total = 1;
  for (const SweepAxis& axis : spec.axes) total *= axis.steps.size();
  EXPECT_EQ(total, kMaxGridPoints);
}

TEST(Spec, OversizedGridReportsOffendingSweepLine) {
  // 256 * 256 fits; the third axis multiplies past the budget and line 4
  // (not line 1) must carry the blame.
  const SpecError error = parse_fail("name = big\n" + sweep_line("cfd", 256) +
                                     sweep_line("channels", 256) + sweep_line("psdu", 17));
  EXPECT_EQ(error.line, 4);
  EXPECT_NE(error.message.find("sweep grid exceeds"), std::string::npos);
  EXPECT_NE(error.message.find(std::to_string(kMaxGridPoints)), std::string::npos);
  EXPECT_NE(error.message.find("multiplies the grid by 17"), std::string::npos);
}

TEST(Spec, OverflowProofProductRejectsHugeAxes) {
  // 2047 * 2048 overflows the budget but not std::size_t; the divide-based
  // check must reject it on the second sweep line without wrapping.
  const SpecError error =
      parse_fail(sweep_line("psdu", 2047) + sweep_line("trials", 1 << 11));
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.message.find("sweep grid exceeds"), std::string::npos);
}

// -- format_campaign: canonical round-trip ----------------------------------

TEST(Spec, FormatParsesBackToSameGridAndHash) {
  const char* texts[] = {
      "",
      "name = rt\nscheme = fixed\ncfd = 2.5\npower = -7.25\nseed = 18446744073709551615\n",
      "power = random\ntrials = 9\nsweep cfd = 9 5 3\n",
      "sweep cfd/channels = 9/1 5/2 3/4\nsweep scheme = fixed dcn\n",
      "band-start = 902.5\nwarmup = 0.25\nmeasure = 1.5\ncca = -62.5\n"
      "links = 3\npsdu = 64\nsweep channels = 5 6 7\n",
  };
  for (const char* text : texts) {
    SCOPED_TRACE(text);
    const CampaignSpec spec = parse_ok(text);
    const std::string canonical = format_campaign(spec);
    const CampaignSpec reparsed = parse_ok(canonical);
    EXPECT_EQ(spec_hash(reparsed), spec_hash(spec));
    EXPECT_EQ(expand_grid(reparsed).size(), expand_grid(spec).size());
    // Idempotent: formatting the reparse reproduces the canonical text.
    EXPECT_EQ(format_campaign(reparsed), canonical);
  }
}

TEST(Spec, FormatRoundTripsRandomSpecs) {
  // Property check over generated specs: format -> parse preserves the hash
  // (i.e. every semantically relevant field survives) and is idempotent.
  // Fixed-seed generator for property-test inputs, not simulation
  // randomness — every round is reproducible from the literal seed.
  // nomc-lint: allow(det-rand)
  std::mt19937_64 rng{20260805};
  for (int round = 0; round < 50; ++round) {
    std::string text = "name = prop_" + std::to_string(round) + "\n";
    text += "scheme = " + std::string{rng() % 2 ? "dcn" : "fixed"} + "\n";
    text += "cfd = " + std::to_string(1 + rng() % 9) + "\n";
    text += "channels = " + std::to_string(1 + rng() % 6) + "\n";
    text += "trials = " + std::to_string(1 + rng() % 5) + "\n";
    text += "seed = " + std::to_string(rng()) + "\n";
    if (rng() % 2) {
      text += "power = " +
              std::string{rng() % 2 ? "random" : std::to_string(-10 + (int)(rng() % 21))} + "\n";
    }
    if (rng() % 2) text += sweep_line("psdu", 2 + (int)(rng() % 3));
    if (rng() % 2) text += "sweep scheme = fixed dcn\n";
    if (rng() % 2) {
      text += "sweep cfd/channels =";
      const int steps = 2 + (int)(rng() % 3);
      for (int s = 0; s < steps; ++s) {
        text += ' ';
        text += std::to_string(1 + rng() % 9);
        text += '/';
        text += std::to_string(1 + rng() % 6);
      }
      text += "\n";
    }
    SCOPED_TRACE(text);
    const CampaignSpec spec = parse_ok(text);
    const std::string canonical = format_campaign(spec);
    const CampaignSpec reparsed = parse_ok(canonical);
    EXPECT_EQ(spec_hash(reparsed), spec_hash(spec));
    EXPECT_EQ(format_campaign(reparsed), canonical);
  }
}

// -- Hashing ---------------------------------------------------------------

TEST(Spec, HashStableAcrossReparses) {
  const std::string text = "name = h\nsweep cfd = 3 5\n";
  EXPECT_EQ(spec_hash(parse_ok(text)), spec_hash(parse_ok(text)));
  EXPECT_EQ(spec_hash(parse_ok(text)).size(), 16u);
}

TEST(Spec, HashSeesEveryField) {
  const std::string base = "name = h\ncfd = 3\n";
  const std::string hash = spec_hash(parse_ok(base));
  EXPECT_NE(hash, spec_hash(parse_ok("name = h\ncfd = 4\n")));
  EXPECT_NE(hash, spec_hash(parse_ok("name = i\ncfd = 3\n")));
  EXPECT_NE(hash, spec_hash(parse_ok("name = h\ncfd = 3\nsweep channels = 2 3\n")));
  EXPECT_NE(spec_hash(parse_ok("power = 0\n")), spec_hash(parse_ok("power = random\n")));
}

TEST(Spec, HashIgnoresCommentsAndSpacing) {
  EXPECT_EQ(spec_hash(parse_ok("cfd = 3\n")), spec_hash(parse_ok("# hi\n  cfd=3  # x\n")));
}

}  // namespace
}  // namespace nomc::exp
