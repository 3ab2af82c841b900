// Crash-resumable campaigns: run_campaign_resumable must produce results
// byte-identical (campaign_results_json) to run_campaign — from a cold
// journal, from a partial journal (the crash-resume path), from a journal
// with a torn tail (the record a crash cut mid-write), and from a journal
// recorded for a different campaign (which must be ignored wholesale).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/campaign.h"
#include "util/file_io.h"

namespace nwade::sim {
namespace {

CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.attacks = {"benign", "V1"};
  cfg.densities_vpm = {60};
  cfg.rounds = 2;
  cfg.base_seed = 5;
  cfg.duration_ms = 20'000;
  return cfg;
}

std::string temp_journal(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

class CampaignResumeTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(journal_.c_str()); }
  // One journal per test: ctest runs each test as its own process, in
  // parallel, so a shared path would let one test clobber another's file.
  std::string journal_ = temp_journal(
      ("nwade_campaign_resume_test." +
       std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
       ".journal")
          .c_str());
};

TEST_F(CampaignResumeTest, ColdJournalMatchesPlainRunByteForByte) {
  const CampaignConfig cfg = small_campaign();
  const std::string plain = campaign_results_json(cfg, run_campaign(cfg));

  std::remove(journal_.c_str());
  const std::string resumable =
      campaign_results_json(cfg, run_campaign_resumable(cfg, journal_));
  EXPECT_EQ(resumable, plain);
}

TEST_F(CampaignResumeTest, ResumeFromCompleteJournalMatchesWithoutRerunning) {
  const CampaignConfig cfg = small_campaign();
  std::remove(journal_.c_str());
  const std::string first =
      campaign_results_json(cfg, run_campaign_resumable(cfg, journal_));
  // Second run replays the journal alone — every cell is already recorded,
  // so this is near-instant and must reproduce the same bytes.
  const std::string second =
      campaign_results_json(cfg, run_campaign_resumable(cfg, journal_));
  EXPECT_EQ(second, first);
}

TEST_F(CampaignResumeTest, TornTailIsDiscardedAndRerunByteIdentical) {
  const CampaignConfig cfg = small_campaign();
  std::remove(journal_.c_str());
  const std::string expected =
      campaign_results_json(cfg, run_campaign_resumable(cfg, journal_));
  const Bytes complete = util::read_file(journal_);
  ASSERT_FALSE(complete.empty());

  // Chop the journal mid-record at several depths — exactly what SIGKILL
  // during an append leaves behind. Every truncation must resume to the same
  // result bytes: valid prefix records splice in, the torn tail re-runs.
  for (const double fraction : {0.95, 0.6, 0.3}) {
    Bytes torn(complete.begin(),
               complete.begin() + static_cast<std::ptrdiff_t>(
                                      static_cast<double>(complete.size()) *
                                      fraction));
    ASSERT_TRUE(util::write_file_atomic(journal_, torn));
    const std::string resumed =
        campaign_results_json(cfg, run_campaign_resumable(cfg, journal_));
    EXPECT_EQ(resumed, expected) << "truncated at " << fraction;
  }
}

TEST_F(CampaignResumeTest, CorruptRecordByteIsDiscardedNotTrusted) {
  const CampaignConfig cfg = small_campaign();
  std::remove(journal_.c_str());
  const std::string expected =
      campaign_results_json(cfg, run_campaign_resumable(cfg, journal_));
  Bytes blob = util::read_file(journal_);
  ASSERT_GT(blob.size(), 200u);

  // Flip one byte inside the first record's payload (past the two header
  // strings): its CRC must fail, dropping it and everything after.
  blob[150] ^= 0x01;
  ASSERT_TRUE(util::write_file_atomic(journal_, blob));
  const std::string resumed =
      campaign_results_json(cfg, run_campaign_resumable(cfg, journal_));
  EXPECT_EQ(resumed, expected);
}

TEST_F(CampaignResumeTest, ForeignJournalIsIgnoredWholesale) {
  const CampaignConfig cfg = small_campaign();
  CampaignConfig other = cfg;
  other.base_seed = 99;  // different fingerprint, overlapping cell indices

  std::remove(journal_.c_str());
  run_campaign_resumable(other, journal_);

  // Resuming cfg against other's journal must not splice other's summaries
  // in; it reruns everything and rewrites the journal under cfg's identity.
  const std::string expected = campaign_results_json(cfg, run_campaign(cfg));
  const std::string resumed =
      campaign_results_json(cfg, run_campaign_resumable(cfg, journal_));
  EXPECT_EQ(resumed, expected);

  // And the journal now belongs to cfg: an immediate rerun replays it.
  const std::string replayed =
      campaign_results_json(cfg, run_campaign_resumable(cfg, journal_));
  EXPECT_EQ(replayed, expected);
}

TEST_F(CampaignResumeTest, ThreadCountDoesNotChangeResumedBytes) {
  CampaignConfig cfg = small_campaign();
  std::remove(journal_.c_str());
  cfg.threads = 1;
  const std::string single =
      campaign_results_json(cfg, run_campaign_resumable(cfg, journal_));

  std::remove(journal_.c_str());
  cfg.threads = 4;
  const std::string pooled =
      campaign_results_json(cfg, run_campaign_resumable(cfg, journal_));
  EXPECT_EQ(pooled, single);
}

}  // namespace
}  // namespace nwade::sim
