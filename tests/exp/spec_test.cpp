#include "exp/spec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exp/result_store.hpp"

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

// -- The optional keys ----------------------------------------------------

TEST(Spec, OptionalKeysSetTheirFields) {
  const CampaignSpec spec = parse_ok(
      "scheme = fixed\n"
      "scheme.2 = dcn\n"
      "power.3 = -15.5\n"
      "cca.0 = -55\n"
      "dcn-margin = 4\n"
      "dcn-tu = 6\n"
      "region = 3\n"
      "room-spacing = 1.8\n");
  EXPECT_EQ(spec.base.scheme, "fixed");
  EXPECT_EQ(spec.base.network_scheme, (std::map<int, std::string>{{2, "dcn"}}));
  EXPECT_EQ(spec.base.network_power_dbm, (std::map<int, double>{{3, -15.5}}));
  EXPECT_EQ(spec.base.network_cca_dbm, (std::map<int, double>{{0, -55.0}}));
  EXPECT_EQ(spec.base.dcn_margin_db, 4.0);
  EXPECT_EQ(spec.base.dcn_tu_s, 6.0);
  EXPECT_EQ(spec.base.region_m, 3.0);
  EXPECT_EQ(spec.base.room_spacing_m, 1.8);
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"dcn-margin", "4"},
      {"dcn-tu", "6"},
      {"region", "3"},
      {"room-spacing", "1.8"},
      {"scheme.2", "dcn"},
      {"power.3", "-15.5"},
      {"cca.0", "-55"},
  };
  // The optional settings follow the base keys, which every params sets.
  const std::size_t base_keys = key_settings(PointParams{}).size();
  const std::vector<KeySetting> settings = key_settings(spec.base);
  ASSERT_EQ(settings.size(), base_keys + expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const KeySetting& setting = settings[base_keys + i];
    EXPECT_EQ(std::make_pair(setting.key, setting.text), expected[i]);
    EXPECT_EQ(setting.record, setting.key);  // optional keys keep their spec names
  }
  EXPECT_EQ(settings[base_keys + 4].json, "\"dcn\"");  // scheme.2, quoted
  EXPECT_EQ(settings[base_keys + 5].json, "-15.5");
}

TEST(Spec, KeySettingsRenderEveryBaseKey) {
  PointParams params;
  params.seed = ~std::uint64_t{0};
  std::vector<std::vector<std::string>> rendered;
  for (const KeySetting& s : key_settings(params)) {
    rendered.push_back({s.key, s.text, s.record, s.json});
  }
  const std::vector<std::vector<std::string>> expected = {
      {"scheme", "dcn", "scheme", "\"dcn\""},
      {"topology", "dense", "topology", "\"dense\""},
      {"band-start", "2458", "band_start_mhz", "2458"},
      {"cfd", "3", "cfd_mhz", "3"},
      {"channels", "6", "channels", "6"},
      {"links", "2", "links", "2"},
      {"power", "random", "power_dbm", "null"},  // the one unset key that renders
      {"cca", "-77", "cca_dbm", "-77"},
      {"psdu", "100", "psdu_bytes", "100"},
      {"warmup", "2", "warmup_s", "2"},
      {"measure", "8", "measure_s", "8"},
      {"seed", "18446744073709551615", "seed", "18446744073709551615"},
      {"trials", "3", "trials", "3"},
  };
  EXPECT_EQ(rendered, expected);
  params.power_dbm = -7.25;
  EXPECT_EQ(key_settings(params)[6].json, "-7.25");
}

TEST(Spec, IndexedKeysSweepAndComposeWithOtherAxes) {
  const CampaignSpec spec = parse_ok(
      "sweep cfd = 2 3\n"
      "sweep power.3/scheme.0 = -33/fixed 0/dcn\n");
  const auto points = expand_grid(spec);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].params.network_power_dbm.at(3), -33.0);
  EXPECT_EQ(points[0].params.network_scheme.at(0), "fixed");
  EXPECT_EQ(points[3].params.network_power_dbm.at(3), 0.0);
  EXPECT_EQ(points[3].params.network_scheme.at(0), "dcn");
  EXPECT_EQ(points[3].assignment[1].first, "power.3");
  EXPECT_TRUE(spec.base.network_power_dbm.empty());
}

TEST(Spec, MalformedNetworkIndexReportsLine) {
  for (const char* key : {"scheme.", "scheme.x", "scheme.-1", "scheme.2.1", "scheme.+1",
                          "scheme.01", "scheme.256", "power.99999999999999999999",
                          "power.", "power.1e1", "cca.", "cca.01", "cca.256"}) {
    const std::string k = key;
    const std::string value = k.rfind("scheme", 0) == 0 ? "dcn" : "-10";
    const SpecError base = parse_fail("channels = 6\n" + k + " = " + value + "\n");
    EXPECT_EQ(base.line, 2) << k;
    EXPECT_NE(base.message.find("bad network index"), std::string::npos) << base.str();
    const SpecError swept = parse_fail("\n\nsweep " + k + " = " + value + "\n");
    EXPECT_EQ(swept.line, 3) << "sweep " << k;
    EXPECT_NE(swept.message.find("bad network index"), std::string::npos) << swept.str();
  }
}

TEST(Spec, BadOptionalValuesReportLine) {
  EXPECT_EQ(parse_fail("scheme.1 = zigbee\n").line, 1);
  EXPECT_EQ(parse_fail("cfd = 3\npower.1 = random\n").line, 2);
  EXPECT_EQ(parse_fail("dcn-margin = -1\n").line, 1);
  EXPECT_EQ(parse_fail("dcn-tu = 0\n").line, 1);
  EXPECT_EQ(parse_fail("region = 0\n").line, 1);
  EXPECT_EQ(parse_fail("room-spacing = -2\n").line, 1);
  EXPECT_EQ(parse_fail("cfd = 3\ncca.1 = 5\n").line, 2);
  EXPECT_EQ(parse_fail("cca.1 = random\n").line, 1);
  EXPECT_NE(parse_fail("scheme.x.y = dcn\n").message.find("bad network index"),
            std::string::npos);
  EXPECT_NE(parse_fail("banana.1 = 3\n").message.find("unknown key"), std::string::npos);
}

TEST(Spec, NetworkIndexMissingFromAGridPointReportsItsLine) {
  // Network 5 exists at 6 channels but not at 4.
  const SpecError error = parse_fail(
      "sweep channels = 4 6\n"
      "scheme.5 = dcn\n");
  EXPECT_EQ(error.line, 2);
  EXPECT_NE(error.message.find("only 4 channel(s)"), std::string::npos) << error.str();
  // Order does not matter, and sweeps of an indexed key are checked too.
  EXPECT_EQ(parse_fail("scheme.5 = dcn\nsweep channels = 6 4\n").line, 1);
  EXPECT_EQ(parse_fail("channels = 4\n\nsweep power.4 = -3 0\n").line, 3);
  EXPECT_EQ(parse_fail("sweep cfd/channels = 3/6 5/2\nsweep power.2 = 0\n").line, 2);
  EXPECT_EQ(parse_fail("scheme.6 = dcn\n").line, 1);  // the default 6 channels
  parse_ok("sweep channels = 6 7\nscheme.5 = dcn\n");
  parse_ok("channels = 2\nsweep channels = 6 7\npower.5 = 0\n");  // the sweep wins
}

TEST(Spec, RigTopologyAtAnotherChannelCountReportsItsLine) {
  // The Fig. 5 rig places five channels; the default is six.
  const SpecError base = parse_fail("cfd = 3\ntopology = fig5\n");
  EXPECT_NE(base.str().find("line 2: topology 'fig5' places 5 channels"), std::string::npos);
  EXPECT_NE(base.message.find("a grid point has channels = 6"), std::string::npos) << base.str();
  // Unswept keys blame the later assignment.
  EXPECT_EQ(parse_fail("topology = fig5-cochannel\n\nchannels = 4\n").line, 3);
  // Separate axes combine cartesian: fig5 meets channels = 6.
  const std::string cartesian = "channels = 5\nsweep topology = dense fig5\nsweep channels = 5 6\n";
  EXPECT_EQ(parse_fail(cartesian).line, 3);
  EXPECT_EQ(parse_fail("sweep topology = dense fig5\n").line, 1);
  // One lockstep axis pairs them step by step.
  EXPECT_EQ(parse_fail("sweep topology/channels = fig5/5 fig5-cochannel/6\n").line, 1);
  parse_ok("sweep topology/channels = dense/6 fig5/5\n");
  parse_ok("channels = 5\nsweep topology = dense fig5 fig5-cochannel\n");
  parse_ok("topology = fig5\nchannels = 6\nsweep channels = 5\n");  // the sweep wins
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

/// A key of every row: an indexed key names network 0.
std::string key_of(const SpecKey& row) {
  return row.indexed() ? std::string{row.name} + ".0" : std::string{row.name};
}

TEST(Spec, NonFiniteValuesRejectedWithLine) {
  // strtod reads all of these; every range check is false for NaN, so only
  // an explicit finiteness check keeps "cfd_mhz":nan out of the store.
  for (const SpecKey& row : spec_keys()) {
    if (!row.numeric()) continue;
    const std::string k = key_of(row);
    for (const char* value : {"nan", "-nan", "inf", "-inf"}) {
      const std::string v = value;
      const SpecError base = parse_fail("name = nonfinite\n" + k + " = " + v + "\n");
      EXPECT_EQ(base.line, 2) << k << " = " << v;
      EXPECT_NE(base.message.find("not a number"), std::string::npos) << base.str();
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
      "scheme = fixed\npower.3 = -15.5\nscheme.2 = dcn\nscheme.0 = carrier-sense\n"
      "room-spacing = 1.8\nregion = 3\ndcn-tu = 6\ndcn-margin = 0\n"
      "sweep power.1 = -33 0\n",
      "scheme = fixed\ncca.4 = -20\ncca.0 = -90.5\nchannels = 5\nsweep topology = fig5 "
      "fig5-cochannel\nsweep cca.2 = -95 -60\n",
      "sweep topology/region/room-spacing = dense/3/15 clustered/1/1.8\n"
      "sweep scheme.0/dcn-tu/dcn-margin = dcn/1/2 fixed/3/8\n",
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
    if (rng() % 2) text += "dcn-margin = " + std::to_string(rng() % 9) + "\n";
    if (rng() % 2) text += "region = " + std::to_string(1 + rng() % 20) + ".5\n";
    if (rng() % 2) text += "scheme.0 = " + std::string{rng() % 2 ? "dcn" : "fixed"} + "\n";
    if (rng() % 2) text += "sweep power.0 = -20 0\n";
    if (rng() % 2) text += "cca.0 = " + std::to_string(-95 + (int)(rng() % 76)) + "\n";
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
  const std::string base = "name = h\n";
  const std::string hash = spec_hash(parse_ok(base));
  EXPECT_NE(hash, spec_hash(parse_ok("name = i\n")));
  EXPECT_NE(hash, spec_hash(parse_ok("name = h\nsweep channels = 2 3\n")));
  EXPECT_NE(spec_hash(parse_ok("power = 0\n")), spec_hash(parse_ok("power = random\n")));
  EXPECT_NE(spec_hash(parse_ok("cca.0 = -77\n")), spec_hash(parse_ok("cca.1 = -77\n")));
  // Every row of the key table, set to a value none of the others' specs
  // holds: a numeric key its lower bound, a string key a named value.
  const std::map<std::string, std::string> strings = {{"scheme", "fixed"},
                                                      {"topology", "clustered"}};
  std::set<std::string> hashes = {hash};
  for (const SpecKey& row : spec_keys()) {
    std::string value;
    if (row.numeric()) {
      json_append_double(value, row.min);
    } else {
      ASSERT_EQ(strings.count(row.name), 1u) << "give string key '" << row.name << "' a value";
      value = strings.at(row.name);
    }
    const std::string line = key_of(row) + " = " + value + "\n";
    EXPECT_TRUE(hashes.insert(spec_hash(parse_ok(base + line))).second) << line;
  }
  EXPECT_EQ(hashes.size(), spec_keys().size() + 1);
}

TEST(Spec, UnsetOptionalKeysKeepTheCanonicalTextAndHash) {
  // The canonical text of a spec that sets no optional key is the
  // thirteen base keys and the sweeps, as before the optional keys existed.
  const CampaignSpec spec = parse_ok("name = h\nsweep cfd = 3 5\n");
  EXPECT_EQ(format_campaign(spec),
            "name = h\nscheme = dcn\ntopology = dense\nband-start = 2458\ncfd = 3\n"
            "channels = 6\nlinks = 2\npower = random\ncca = -77\npsdu = 100\nwarmup = 2\n"
            "measure = 8\nseed = 1\ntrials = 3\nsweep cfd = 3 5\n");
}

TEST(Spec, UneditedExampleCampaignHashesArePinned) {
  // The spec hash of every example campaign that predates the optional keys:
  // adding keys must not move an existing spec's identity (or its store).
  const std::pair<const char*, const char*> pinned[] = {
      {"fig01_cfd", "e7c257b4865a3209"},
      {"fig16_18_dcn_all", "5fa1dbde9b1d534c"},
      {"fig19_zigbee_vs_dcn", "5e6cffddaec12427"},
      {"fig30_wider_band", "5948e335aa6fdce9"},
      {"smoke", "2d57757e7c156fa8"},
  };
  for (const auto& [name, hash] : pinned) {
    CampaignSpec spec;
    SpecError error;
    ASSERT_TRUE(load_campaign(std::string{NOMC_CAMPAIGNS_DIR} + "/" + name + ".campaign", spec,
                              error))
        << name << ": " << error.str();
    EXPECT_EQ(spec_hash(spec), hash) << name;
  }
}

TEST(Spec, DocsNameEveryKey) {
  std::string docs;
  ASSERT_TRUE(read_whole_file(std::string{NOMC_DOCS_DIR} + "/campaigns.md", docs));
  for (const SpecKey& row : spec_keys()) {
    const std::string key = row.indexed() ? std::string{row.name} + ".N" : row.name;
    EXPECT_NE(docs.find("`" + key + "`"), std::string::npos)
        << "docs/campaigns.md names no `" << key << "`";
  }
}

TEST(Spec, HashIgnoresCommentsAndSpacing) {
  EXPECT_EQ(spec_hash(parse_ok("cfd = 3\n")), spec_hash(parse_ok("# hi\n  cfd=3  # x\n")));
}

}  // namespace
}  // namespace nomc::exp
