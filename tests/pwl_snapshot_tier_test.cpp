// Wire-format and lifecycle suite for the snapshot v2 PWL tier (CTest label
// `pwl`). Three layers of guarantees:
//
//   · Format: v2 snapshots round-trip the tier exactly; v1 bytes (no tier)
//     still decode; *any* corruption inside the tier block — bit flips,
//     truncation, tier-version skew, a mispaired rounding — is a ParseError
//     even when the outer payload checksum is re-sealed around the damage
//     (the tier carries its own version + CRC precisely so tier damage is
//     caught and named on its own).
//   · Session lifecycle: recovery re-verifies a persisted tier against the
//     curves rebuilt from the extractor state — a sound tier is adopted
//     (serve.compact.tier_reused), a well-formed-but-unsound one is dropped
//     and recomputed (tier_rejected + recomputes), never a reason to refuse
//     the session. Migration gets the same treatment.
//   · Crash determinism: the tier is recomputed deterministically at every
//     snapshot, so a kill -9 between compaction and persist resumes
//     bit-identically — encode(snapshot) is byte-stable across repeats.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "curve/compact.h"
#include "curve/discrete_curve.h"
#include "obs/metrics.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "test_tmpdir.h"
#include "workload/online_extract.h"
#include "workload/workload_curve.h"

namespace wlc::serve {
namespace {

namespace fs = std::filesystem;
using curve::CompactBudget;
using curve::CompactCurve;
using curve::CompactRounding;
using workload::OnlineWorkloadExtractor;

std::int64_t counter_value(const std::string& name) {
  for (const auto& c : obs::registry().snapshot().counters)
    if (c.name == name) return c.value;
  return 0;
}

std::vector<Cycles> demo_demands(std::size_t n, std::uint64_t seed = 17) {
  common::Rng rng(seed);
  std::vector<Cycles> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(static_cast<Cycles>(rng.uniform_int(1, 8000)));
  return out;
}

curve::DiscreteCurve index_curve(const std::vector<workload::WorkloadCurve::Point>& pts) {
  std::vector<double> v;
  v.reserve(pts.size());
  for (const auto& p : pts) v.push_back(static_cast<double>(p.second));
  return curve::DiscreteCurve(std::move(v), 1.0);
}

/// Tier over the breakpoint-index grid — the same recipe the session layer
/// uses when persisting (session.cpp make_tier).
PwlTier make_tier(const OnlineWorkloadExtractor& ex, const CompactBudget& budget) {
  return PwlTier{CompactCurve::compact_upper(index_curve(ex.upper().points()), budget),
                 CompactCurve::compact_lower(index_curve(ex.lower().points()), budget)};
}

SessionSnapshot tiered_snapshot(std::size_t events = 300,
                                CompactBudget budget = CompactBudget{0.0, 1e-3}) {
  OnlineWorkloadExtractor ex({1, 2, 5, 13, 40});
  for (Cycles d : demo_demands(events)) ex.try_push(d);
  SessionSnapshot snap{"sess-pwl", "tenant.p", ex.export_state(), std::nullopt};
  snap.tier = make_tier(ex, budget);
  return snap;
}

// -- byte surgery -----------------------------------------------------------

void put_u32_le(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) bytes[at + b] = static_cast<char>((v >> (8 * b)) & 0xff);
}

/// Recomputes the outer header (payload size + CRC) around a tampered
/// payload, so decode reaches the *inner* tier validation instead of
/// stopping at the whole-snapshot checksum.
std::string reseal(std::string payload, std::uint32_t version = kSnapshotVersion) {
  std::string out(kSnapshotMagic);
  out.resize(kSnapshotHeaderBytes, '\0');
  put_u32_le(out, 8, version);
  for (int b = 0; b < 8; ++b)
    out[12 + b] = static_cast<char>((payload.size() >> (8 * b)) & 0xff);
  put_u32_le(out, 20, crc32(payload));
  return out + payload;
}

std::string payload_of(const std::string& bytes) {
  return bytes.substr(kSnapshotHeaderBytes);
}

void expect_tier_equal(const PwlTier& a, const PwlTier& b) {
  EXPECT_TRUE(a.upper == b.upper);
  EXPECT_TRUE(a.lower == b.lower);
  EXPECT_EQ(a.upper.budget().eps_abs, b.upper.budget().eps_abs);
  EXPECT_EQ(a.upper.budget().eps_rel, b.upper.budget().eps_rel);
  EXPECT_EQ(a.upper.max_error(), b.upper.max_error());
  EXPECT_EQ(a.lower.max_error(), b.lower.max_error());
}

// ---------------------------------------------------------------------------
// Format: round-trips and backward compatibility.
// ---------------------------------------------------------------------------

TEST(PwlSnapshotTier, V2RoundTripPreservesTheTierExactly) {
  const SessionSnapshot snap = tiered_snapshot();
  const SessionSnapshot back = decode_snapshot(encode_snapshot(snap));
  ASSERT_TRUE(back.tier.has_value());
  expect_tier_equal(*back.tier, *snap.tier);
  EXPECT_EQ(back.tier->upper.rounding(), CompactRounding::Up);
  EXPECT_EQ(back.tier->lower.rounding(), CompactRounding::Down);
}

TEST(PwlSnapshotTier, TierlessV2RoundTrips) {
  SessionSnapshot snap = tiered_snapshot();
  snap.tier.reset();
  const SessionSnapshot back = decode_snapshot(encode_snapshot(snap));
  EXPECT_FALSE(back.tier.has_value());
}

TEST(PwlSnapshotTier, V1BytesWithoutTierStillDecode) {
  // A v1 payload is exactly a tierless v2 payload minus the trailing
  // has_tier byte — reconstruct one and make sure this build still reads it.
  SessionSnapshot snap = tiered_snapshot();
  snap.tier.reset();
  std::string payload = payload_of(encode_snapshot(snap));
  ASSERT_EQ(payload.back(), '\0');  // has_tier = 0
  payload.pop_back();
  const SessionSnapshot back = decode_snapshot(reseal(std::move(payload), 1));
  EXPECT_FALSE(back.tier.has_value());
  EXPECT_EQ(back.session_id, snap.session_id);
  EXPECT_EQ(back.extractor.events, snap.extractor.events);
}

TEST(PwlSnapshotTier, V1BytesWithTrailingTierBlockAreRejected) {
  // Declaring version 1 does not smuggle tier bytes past the parser: the v1
  // decoder stops before the tier block, so the bytes surface as trailing
  // garbage.
  const std::string payload = payload_of(encode_snapshot(tiered_snapshot()));
  EXPECT_THROW(decode_snapshot(reseal(payload, 1)), ParseError);
}

// ---------------------------------------------------------------------------
// Corruption matrix: every byte of the tier block, flipped and re-sealed.
// ---------------------------------------------------------------------------

TEST(PwlSnapshotTier, EveryResealedTierByteFlipIsParseError) {
  SessionSnapshot snap = tiered_snapshot(120);
  const std::string with_tier = payload_of(encode_snapshot(snap));
  snap.tier.reset();
  const std::size_t tier_start = payload_of(encode_snapshot(snap)).size() - 1;

  for (std::size_t i = tier_start; i < with_tier.size(); ++i) {
    for (unsigned char mask : {0x01, 0x80}) {
      std::string bad = with_tier;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      // The outer checksum is re-sealed around the flip: only the tier's own
      // validation (presence flag, version, CRC, strict decode) can object.
      EXPECT_THROW(decode_snapshot(reseal(bad)), ParseError)
          << "tier flip of mask " << int(mask) << " at payload byte " << i
          << " (tier block starts at " << tier_start << ") not detected";
    }
  }
}

TEST(PwlSnapshotTier, TierTruncationAtEveryLengthIsParseError) {
  const std::string bytes = encode_snapshot(tiered_snapshot(80));
  for (std::size_t len = kSnapshotHeaderBytes; len < bytes.size(); ++len)
    EXPECT_THROW(decode_snapshot(bytes.substr(0, len)), ParseError) << len;
}

TEST(PwlSnapshotTier, TierVersionSkewIsNamed) {
  SessionSnapshot snap = tiered_snapshot(100);
  std::string payload = payload_of(encode_snapshot(snap));
  snap.tier.reset();
  const std::size_t tier_start = payload_of(encode_snapshot(snap)).size() - 1;
  put_u32_le(payload, tier_start + 1, 99);  // tier_version field
  try {
    decode_snapshot(reseal(std::move(payload)));
    FAIL() << "tier version skew accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("tier version"), std::string::npos) << e.what();
  }
}

TEST(PwlSnapshotTier, MispairedRoundingIsRejected) {
  SessionSnapshot snap = tiered_snapshot(90, CompactBudget{5.0, 0.0});
  // Down-compact both curves: structurally valid, but the upper slot must
  // round Up — decode enforces the pairing.
  OnlineWorkloadExtractor ex({1, 2, 5, 13, 40});
  for (Cycles d : demo_demands(90)) ex.try_push(d);
  snap.tier->upper =
      CompactCurve::compact_lower(index_curve(ex.upper().points()), CompactBudget{5.0, 0.0});
  try {
    decode_snapshot(encode_snapshot(snap));
    FAIL() << "mispaired tier rounding accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("round"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Session lifecycle: adoption, rejection, migration, crash determinism.
// ---------------------------------------------------------------------------

SessionConfig tier_config(const fs::path& dir) {
  SessionConfig cfg;
  cfg.state_dir = dir.string();
  cfg.compact_tier = true;
  cfg.compact = CompactBudget{0.0, 1e-3};
  return cfg;
}

void open_and_push(SessionManager& mgr, const std::string& id, std::size_t events,
                   std::uint64_t seed = 23) {
  OpenRequest req;
  req.session_id = id;
  req.tenant = "t";
  req.ks = {1, 2, 5, 13, 40};
  const auto outcome = mgr.open(req, SessionManager::Clock::now());
  ASSERT_EQ(outcome.kind, SessionManager::OpenOutcome::Kind::Replied);
  ASSERT_TRUE(std::holds_alternative<OpenReply>(outcome.reply));
  PushRequest push;
  push.session_id = id;
  push.demands = demo_demands(events, seed);
  ASSERT_TRUE(std::holds_alternative<PushReply>(mgr.push(push)));
}

std::string read_bytes(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return bytes;
}

TEST(PwlTierLifecycle, SnapshotsAreByteStableAcrossRepeats) {
  const test::TestTmpDir tmp;
  SessionManager mgr(tier_config(tmp.path()));
  open_and_push(mgr, "s1", 250);
  mgr.snapshot_all();
  const std::string first = read_bytes(tmp.path() / "s1.wlcs");
  ASSERT_FALSE(first.empty());
  // Recomputing the tier is deterministic: a second snapshot of the same
  // state — the kill -9 between compaction and persist scenario — writes
  // the identical bytes.
  mgr.snapshot_all();
  EXPECT_EQ(read_bytes(tmp.path() / "s1.wlcs"), first);
  const SessionSnapshot snap = decode_snapshot(first);
  ASSERT_TRUE(snap.tier.has_value());
}

TEST(PwlTierLifecycle, RecoveryAdoptsASoundTier) {
  const test::TestTmpDir tmp;
  {
    SessionManager mgr(tier_config(tmp.path()));
    open_and_push(mgr, "s1", 300);
    mgr.snapshot_all();
  }
  const SessionSnapshot persisted = decode_snapshot(read_bytes(tmp.path() / "s1.wlcs"));
  ASSERT_TRUE(persisted.tier.has_value());

  obs::registry().reset_for_testing();
  SessionManager fresh(tier_config(tmp.path()));
  ASSERT_EQ(fresh.recover(), 1u);
  EXPECT_GE(counter_value("serve.compact.tier_reused"), 1);
  EXPECT_EQ(counter_value("serve.compact.tier_rejected"), 0);

  // The adopted tier is the persisted one, bit-for-bit.
  std::string bytes;
  ASSERT_TRUE(fresh.export_session_snapshot("s1", &bytes));
  const SessionSnapshot exported = decode_snapshot(bytes);
  ASSERT_TRUE(exported.tier.has_value());
  expect_tier_equal(*exported.tier, *persisted.tier);
}

TEST(PwlTierLifecycle, RecoveryDropsAnUnsoundTierAndRecomputes) {
  const test::TestTmpDir tmp;
  {
    SessionManager mgr(tier_config(tmp.path()));
    open_and_push(mgr, "s1", 300);
    mgr.snapshot_all();
  }
  // Forge a structurally valid but *unsound* tier: shift the upper curve
  // below the real γᵘ, breaking dominance while keeping rounding = Up.
  SessionSnapshot snap = decode_snapshot(read_bytes(tmp.path() / "s1.wlcs"));
  ASSERT_TRUE(snap.tier.has_value());
  std::vector<CompactCurve::Knot> knots = snap.tier->upper.knots();
  for (auto& k : knots) k.y -= 1e6;
  snap.tier->upper = CompactCurve::from_knots(
      std::move(knots), snap.tier->upper.dt(), snap.tier->upper.dense_size(),
      CompactRounding::Up, snap.tier->upper.budget(), snap.tier->upper.max_error());
  {
    std::ofstream out(tmp.path() / "s1.wlcs", std::ios::binary | std::ios::trunc);
    const std::string bytes = encode_snapshot(snap);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  obs::registry().reset_for_testing();
  SessionManager fresh(tier_config(tmp.path()));
  // The session itself is fine — an unsound tier is never a reason to
  // refuse it.
  ASSERT_EQ(fresh.recover(), 1u);
  EXPECT_GE(counter_value("serve.compact.tier_rejected"), 1);
  EXPECT_GE(counter_value("serve.compact.recomputes"), 1);
  EXPECT_EQ(counter_value("serve.compact.tier_reused"), 0);

  // The recomputed tier is sound against the recovered extractor state.
  std::string bytes;
  ASSERT_TRUE(fresh.export_session_snapshot("s1", &bytes));
  const SessionSnapshot exported = decode_snapshot(bytes);
  ASSERT_TRUE(exported.tier.has_value());
  const OnlineWorkloadExtractor ex = OnlineWorkloadExtractor::from_state(exported.extractor);
  const auto upts = ex.upper().points();
  ASSERT_EQ(exported.tier->upper.dense_size(), upts.size());
  for (std::size_t j = 0; j < upts.size(); ++j) {
    const double v = static_cast<double>(upts[j].second);
    ASSERT_GE(exported.tier->upper.eval_index(j), v) << j;
  }
}

TEST(PwlTierLifecycle, StructurallyCorruptTierQuarantinesTheWholeSnapshot) {
  const test::TestTmpDir tmp;
  {
    SessionManager mgr(tier_config(tmp.path()));
    open_and_push(mgr, "s1", 200);
    mgr.snapshot_all();
  }
  // Corrupt one byte inside the tier block and re-seal the outer checksum:
  // the inner tier CRC fails, the decode throws, and recovery must
  // quarantine the file — never half-load the session without its tail.
  std::string payload = payload_of(read_bytes(tmp.path() / "s1.wlcs"));
  payload[payload.size() - 5] = static_cast<char>(payload[payload.size() - 5] ^ 0x40);
  {
    std::ofstream out(tmp.path() / "s1.wlcs", std::ios::binary | std::ios::trunc);
    const std::string bytes = reseal(std::move(payload));
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  SessionManager fresh(tier_config(tmp.path()));
  EXPECT_EQ(fresh.recover(), 0u);
  EXPECT_FALSE(fs::exists(tmp.path() / "s1.wlcs"));
  EXPECT_TRUE(fs::exists(tmp.path() / "s1.wlcs.corrupt"));
}

TEST(PwlTierLifecycle, MigrationCarriesTheTierAcrossDaemons) {
  const test::TestTmpDir src_tmp("src");
  const test::TestTmpDir dst_tmp("dst");
  SessionManager src(tier_config(src_tmp.path()));
  open_and_push(src, "s1", 280);
  src.snapshot_all();
  std::string bytes;
  ASSERT_TRUE(src.export_session_snapshot("s1", &bytes));
  const SessionSnapshot wire_snap = decode_snapshot(bytes);
  ASSERT_TRUE(wire_snap.tier.has_value());

  obs::registry().reset_for_testing();
  SessionManager dst(tier_config(dst_tmp.path()));
  const Reply dst_reply = dst.migrate_in(MigrateRequest{bytes});
  ASSERT_TRUE(std::holds_alternative<MigrateOkReply>(dst_reply));
  EXPECT_GE(counter_value("serve.compact.tier_reused"), 1);

  std::string out_bytes;
  ASSERT_TRUE(dst.export_session_snapshot("s1", &out_bytes));
  const SessionSnapshot out_snap = decode_snapshot(out_bytes);
  ASSERT_TRUE(out_snap.tier.has_value());
  expect_tier_equal(*out_snap.tier, *wire_snap.tier);
}

TEST(PwlTierLifecycle, TierlessDaemonIgnoresPersistedTiers) {
  const test::TestTmpDir tmp;
  {
    SessionManager mgr(tier_config(tmp.path()));
    open_and_push(mgr, "s1", 220);
    mgr.snapshot_all();
  }
  SessionConfig cfg;
  cfg.state_dir = tmp.path().string();  // compact_tier stays false
  SessionManager fresh(cfg);
  ASSERT_EQ(fresh.recover(), 1u);
  std::string bytes;
  ASSERT_TRUE(fresh.export_session_snapshot("s1", &bytes));
  // With tiering off the daemon neither adopts nor recomputes a tier.
  EXPECT_FALSE(decode_snapshot(bytes).tier.has_value());
}

}  // namespace
}  // namespace wlc::serve
