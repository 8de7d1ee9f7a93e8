// End-to-end smoke test of the cmptool CLI: gen -> info -> train ->
// eval -> show -> dot -> explain -> importance, via std::system. The
// binary path is injected by CMake as CMPTOOL_PATH.
//
// cmptool's exit-code contract (tested below): 0 success, 2 bad
// arguments, 3 I/O failure, 4 training failure.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

constexpr int kBadArgs = 2;
constexpr int kIo = 3;
constexpr int kTrain = 4;

std::string ToolPath() { return CMPTOOL_PATH; }

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// Runs a command, returns the tool's exit code (-1 if it died on a
// signal), captures stdout+stderr into `out`.
int RunTool(const std::string& args, std::string* out = nullptr) {
  const std::string capture = TempPath("cmptool_out.txt");
  const std::string cmd = ToolPath() + " " + args + " > " + capture + " 2>&1";
  const int raw = std::system(cmd.c_str());
  if (out != nullptr) {
    std::ifstream is(capture);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    *out = buffer.str();
  }
  std::remove(capture.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

class CmptoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = TempPath("smoke.cmpt");
    tree_ = TempPath("smoke.tree");
    ASSERT_EQ(RunTool("gen --function F2 --records 4000 --seed 5 --out " +
                  data_),
              0);
  }
  void TearDown() override {
    std::remove(data_.c_str());
    std::remove(tree_.c_str());
  }
  std::string data_;
  std::string tree_;
};

TEST_F(CmptoolTest, InfoShowsSchema) {
  std::string out;
  ASSERT_EQ(RunTool("info --data " + data_, &out), 0);
  EXPECT_NE(out.find("4000 records"), std::string::npos);
  EXPECT_NE(out.find("salary"), std::string::npos);
}

TEST_F(CmptoolTest, TrainEvalShowRoundTrip) {
  std::string out;
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp --out " + tree_,
                &out),
            0);
  EXPECT_NE(out.find("CMP"), std::string::npos);

  ASSERT_EQ(RunTool("eval --data " + data_ + " --tree " + tree_, &out), 0);
  EXPECT_NE(out.find("accuracy"), std::string::npos);

  ASSERT_EQ(RunTool("show --tree " + tree_, &out), 0);
  EXPECT_NE(out.find("leaf"), std::string::npos);
}

TEST_F(CmptoolTest, EveryAlgorithmTrains) {
  for (const std::string algo :
       {"cmp", "cmp-b", "cmp-s", "sprint", "sliq", "clouds", "rainforest",
        "exact", "windowing", "sampled"}) {
    EXPECT_EQ(RunTool("train --data " + data_ + " --algo " + algo +
                  " --out " + tree_),
              0)
        << algo;
  }
}

TEST_F(CmptoolTest, DotAndExplainAndImportance) {
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo exact --out " + tree_),
            0);
  std::string out;
  ASSERT_EQ(RunTool("dot --tree " + tree_, &out), 0);
  EXPECT_NE(out.find("digraph"), std::string::npos);

  ASSERT_EQ(
      RunTool("explain --data " + data_ + " --tree " + tree_ + " --record 3",
          &out),
      0);
  EXPECT_NE(out.find("=>"), std::string::npos);

  ASSERT_EQ(RunTool("importance --tree " + tree_, &out), 0);
  EXPECT_FALSE(out.empty());
}

// Extracts the "accuracy: 0.1234" figure both `eval` and `predict` print.
std::string AccuracyLine(const std::string& out) {
  const size_t at = out.find("accuracy: ");
  EXPECT_NE(at, std::string::npos) << out;
  if (at == std::string::npos) return "";
  return out.substr(at, std::string("accuracy: 0.0000").size());
}

TEST_F(CmptoolTest, PredictRoundTripMatchesEval) {
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp --out " + tree_),
            0);
  std::string eval_out;
  ASSERT_EQ(RunTool("eval --data " + data_ + " --tree " + tree_, &eval_out),
            0);

  const std::string csv = TempPath("predictions.csv");
  std::string predict_out;
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ +
                " --out " + csv,
                &predict_out),
            0);
  // The compiled batch path must reproduce the interpreted eval accuracy
  // digit for digit.
  EXPECT_EQ(AccuracyLine(predict_out), AccuracyLine(eval_out));

  // Header plus one CSV row per record.
  std::ifstream is(csv);
  ASSERT_TRUE(is.good());
  std::string line;
  int64_t lines = 0;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line.substr(0, 31), "record,actual,predicted,correct");
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, 4000);
  std::remove(csv.c_str());

  // Probabilities, top-k, multithreading and ensembles ride the same path.
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ +
                " --probs --top-k 2 --threads 2 --out " + csv,
                &predict_out),
            0);
  EXPECT_EQ(AccuracyLine(predict_out), AccuracyLine(eval_out));
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ + "," +
                tree_ + " --vote prob --out " + csv,
                &predict_out),
            0);
  EXPECT_EQ(AccuracyLine(predict_out), AccuracyLine(eval_out));

  // A top-k beyond the class count is clamped, not an out-of-bounds read.
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ +
                " --top-k 99 --out " + csv,
                &predict_out),
            0);
  EXPECT_EQ(AccuracyLine(predict_out), AccuracyLine(eval_out));
  std::remove(csv.c_str());
}

TEST_F(CmptoolTest, BadInputsFailGracefully) {
  EXPECT_NE(RunTool("train --data /does/not/exist --algo cmp --out " + tree_),
            0);
  EXPECT_NE(RunTool("train --data " + data_ + " --algo bogus --out " + tree_),
            0);
  EXPECT_NE(RunTool("frobnicate"), 0);
  EXPECT_NE(RunTool(""), 0);
}

TEST_F(CmptoolTest, ExitCodesDistinguishFailureKinds) {
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo exact --out " + tree_),
            0);

  // Bad arguments: unknown algorithm, unknown subcommand, missing flags,
  // out-of-range record.
  std::string out;
  EXPECT_EQ(RunTool("train --data " + data_ + " --algo bogus --out " + tree_,
                &out),
            kBadArgs);
  // The unknown-algorithm error lists the registry's names.
  EXPECT_NE(out.find("have:"), std::string::npos) << out;
  EXPECT_NE(out.find("rainforest"), std::string::npos) << out;
  EXPECT_EQ(RunTool("frobnicate"), kBadArgs);
  EXPECT_EQ(RunTool("train --data " + data_), kBadArgs);
  EXPECT_EQ(RunTool("train --data " + data_ + " --algo cmp --stream"
                " --block 0 --out " + tree_),
            kBadArgs);
  EXPECT_EQ(RunTool("explain --data " + data_ + " --tree " + tree_ +
                " --record 99999999"),
            kBadArgs);

  // I/O failures: unreadable inputs.
  EXPECT_EQ(RunTool("train --data /does/not/exist --algo cmp --out " + tree_),
            kIo);
  EXPECT_EQ(RunTool("train --data /does/not/exist --algo cmp --stream"
                " --out " + tree_),
            kIo);
  EXPECT_EQ(RunTool("eval --data " + data_ + " --tree /does/not/exist"),
            kIo);
  EXPECT_EQ(RunTool("show --tree /does/not/exist"), kIo);

  // A truncated table is caught by the scanner's size check at open.
  const std::string truncated = TempPath("truncated.cmpt");
  {
    std::ifstream is(data_, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    const std::string bytes = buffer.str();
    std::ofstream os(truncated, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_EQ(RunTool("train --data " + truncated + " --algo cmp --stream"
                " --out " + tree_),
            kIo);
  std::remove(truncated.c_str());

  // Training failure: the label column holds garbage. The file's size
  // is intact so it opens fine, and the streamed build (which sees raw
  // column bytes, unlike the in-memory loader) must fail cleanly.
  const std::string corrupt = TempPath("corrupt.cmpt");
  {
    std::ifstream is(data_, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    std::string bytes = buffer.str();
    ASSERT_GT(bytes.size(), 4u);
    for (size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
      bytes[i] = '\x7f';
    }
    std::ofstream os(corrupt, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(RunTool("train --data " + corrupt + " --algo cmp --stream"
                " --out " + tree_),
            kTrain);
  std::remove(corrupt.c_str());
}

TEST_F(CmptoolTest, CompileAndBlobPredictFollowTheExitCodeContract) {
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp --out " + tree_),
            0);

  // Success path: compile a blob, then predict from it. The blob's
  // accuracy must match the text tree's digit for digit.
  const std::string blob = TempPath("smoke.cmpb");
  const std::string csv = TempPath("blob_pred.csv");
  std::string out;
  ASSERT_EQ(RunTool("compile --tree " + tree_ + " --out " + blob, &out), 0);
  EXPECT_NE(out.find("compiled 1 tree"), std::string::npos) << out;

  std::string text_out;
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ +
                " --out " + csv,
                &text_out),
            0);
  std::string blob_out;
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + blob +
                " --out " + csv,
                &blob_out),
            0);
  EXPECT_EQ(AccuracyLine(blob_out), AccuracyLine(text_out));

  // An ensemble blob compiles from a comma-separated tree list and
  // predicts through the same path.
  const std::string blob2 = TempPath("smoke2.cmpb");
  ASSERT_EQ(RunTool("compile --tree " + tree_ + "," + tree_ + " --out " +
                blob2),
            0);
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + blob2 +
                " --out " + csv,
                &blob_out),
            0);
  EXPECT_EQ(AccuracyLine(blob_out), AccuracyLine(text_out));

  // Bad arguments: missing flags.
  EXPECT_EQ(RunTool("compile --tree " + tree_), kBadArgs);
  EXPECT_EQ(RunTool("compile --out " + blob), kBadArgs);
  EXPECT_EQ(RunTool("compile"), kBadArgs);

  // I/O failures: unreadable tree, unwritable output, corrupt blob.
  EXPECT_EQ(RunTool("compile --tree /does/not/exist --out " + blob), kIo);
  EXPECT_EQ(RunTool("compile --tree " + tree_ + " --out /no/such/dir/x.cmpb"),
            kIo);
  const std::string corrupt = TempPath("corrupt.cmpb");
  {
    std::ifstream is(blob, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    std::string bytes = buffer.str();
    ASSERT_GT(bytes.size(), 16u);
    bytes[9] ^= '\x5a';  // inside the header, past the magic
    std::ofstream os(corrupt, std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(RunTool("predict --data " + data_ + " --tree " + corrupt +
                " --out " + csv),
            kIo);
  EXPECT_EQ(RunTool("predict --data " + data_ + " --tree /absent.cmpb" +
                " --out " + csv),
            kIo);

  for (const std::string& p : {blob, blob2, csv, corrupt}) {
    std::remove(p.c_str());
  }
}

TEST_F(CmptoolTest, StatsJsonEmitsObserverMetrics) {
  const std::string stats = TempPath("stats.json");
  std::string out;
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp --out " + tree_ +
                " --stats-json " + stats,
                &out),
            0);
  std::ifstream is(stats);
  ASSERT_TRUE(is.good());
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"builder\": \"CMP\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"records\": 4000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"passes\": ["), std::string::npos) << json;
  EXPECT_NE(json.find("\"scan_seconds\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"frontier_fresh\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tree_nodes\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos) << json;
  std::remove(stats.c_str());

  // The streamed path feeds the same observer (real I/O bytes included).
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp-b --stream"
                " --block 512 --out " + tree_ + " --stats-json " + stats,
                &out),
            0);
  std::ifstream is2(stats);
  ASSERT_TRUE(is2.good());
  std::ostringstream buffer2;
  buffer2 << is2.rdbuf();
  const std::string json2 = buffer2.str();
  EXPECT_NE(json2.find("\"builder\": \"CMP-B\""), std::string::npos) << json2;
  EXPECT_NE(json2.find("\"bytes_read\""), std::string::npos) << json2;
  std::remove(stats.c_str());
}

std::string Slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

TEST_F(CmptoolTest, BoostTrainsScoresAndCompiles) {
  // Text forest out: the boost knobs parse, the output names the tree
  // count, and the saved file is the multi-tree forest format.
  std::string out;
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo boost --rounds 6"
                " --shrinkage 0.2 --weak-depth 4 --out " + tree_,
                &out),
            0);
  EXPECT_NE(out.find("trees"), std::string::npos) << out;
  EXPECT_EQ(Slurp(tree_).substr(0, 11), "cmp-forest ");

  // Additive forests score through --vote prob (majority voting over
  // the pseudo-count leaves is NOT the boosted model).
  const std::string csv = TempPath("boost_pred.csv");
  std::string text_out;
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + tree_ +
                " --vote prob --out " + csv,
                &text_out),
            0);

  // Straight-to-blob training compiles the same forest; the blob path
  // must reproduce the text path's accuracy digit for digit.
  const std::string blob = TempPath("boost.cmpb");
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo boost --rounds 6"
                " --shrinkage 0.2 --weak-depth 4 --out " + blob,
                &out),
            0);
  std::string blob_out;
  ASSERT_EQ(RunTool("predict --data " + data_ + " --tree " + blob +
                " --vote prob --out " + csv,
                &blob_out),
            0);
  EXPECT_EQ(AccuracyLine(blob_out), AccuracyLine(text_out));

  // compile accepts the forest text file and produces the same blob.
  const std::string blob2 = TempPath("boost2.cmpb");
  ASSERT_EQ(RunTool("compile --tree " + tree_ + " --out " + blob2), 0);
  EXPECT_EQ(Slurp(blob2), Slurp(blob));

  // eval and show accept the forest too: eval scores the average-prob
  // vote (same accuracy line as predict --vote prob), show prints one
  // section per member tree.
  std::string eval_out;
  ASSERT_EQ(RunTool("eval --data " + data_ + " --tree " + tree_,
                &eval_out),
            0);
  EXPECT_EQ(AccuracyLine(eval_out), AccuracyLine(text_out));
  std::string show_out;
  ASSERT_EQ(RunTool("show --tree " + tree_, &show_out), 0);
  EXPECT_NE(show_out.find("=== tree 1/6 ==="), std::string::npos);
  EXPECT_NE(show_out.find("=== tree 6/6 ==="), std::string::npos);

  for (const std::string& p : {csv, blob, blob2}) std::remove(p.c_str());
}

TEST_F(CmptoolTest, StreamTrainRefitRoundTrip) {
  const std::string sidecar = TempPath("stream.cmps");
  const std::string refit_data = TempPath("refit.cmpt");
  const std::string refit_tree = TempPath("refit.tree");
  const std::string stats = TempPath("stream_stats.json");

  // cmp-stream trains, saves the sketch sidecar, and the new observer
  // fields land in --stats-json.
  std::string out;
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp-stream --out " +
                tree_ + " --sidecar " + sidecar + " --stats-json " + stats,
                &out),
            0);
  EXPECT_NE(out.find("sketch sidecar"), std::string::npos) << out;
  const std::string json = Slurp(stats);
  EXPECT_NE(json.find("\"builder\": \"CMP-stream\""), std::string::npos);
  EXPECT_NE(json.find("\"sketch_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"refit_leaves_regrown\""), std::string::npos);

  // In-memory and out-of-core ingestion produce the same tree bytes.
  const std::string mem_tree = Slurp(tree_);
  ASSERT_FALSE(mem_tree.empty());
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp-stream --stream"
                " --block 333 --threads 3 --out " + tree_),
            0);
  EXPECT_EQ(Slurp(tree_), mem_tree);

  // Refit with drifted data: exit 0, updated tree + sidecar written.
  ASSERT_EQ(RunTool("gen --function F7 --records 4000 --seed 6 --out " +
                refit_data),
            0);
  ASSERT_EQ(RunTool("refit --data " + refit_data + " --tree " + tree_ +
                " --sidecar " + sidecar + " --out " + refit_tree +
                " --stats-json " + stats,
                &out),
            0);
  EXPECT_NE(out.find("regrown"), std::string::npos) << out;
  EXPECT_NE(Slurp(stats).find("\"refit_leaves_regrown\""),
            std::string::npos);
  EXPECT_FALSE(Slurp(refit_tree).empty());

  // The refit tree still evaluates.
  ASSERT_EQ(
      RunTool("eval --data " + refit_data + " --tree " + refit_tree, &out),
      0);
  EXPECT_NE(out.find("accuracy"), std::string::npos);

  for (const std::string& p : {sidecar, refit_data, refit_tree, stats}) {
    std::remove(p.c_str());
  }
}

TEST_F(CmptoolTest, StreamAndRefitFlagValidation) {
  const std::string sidecar = TempPath("val.cmps");
  std::string out;

  // Unsupported combination: cmp-stream is single-process by contract.
  EXPECT_EQ(RunTool("train --data " + data_ + " --algo cmp-stream"
                " --workers 2 --out " + tree_,
                &out),
            kBadArgs);
  EXPECT_NE(out.find("incompatible with --workers"), std::string::npos)
      << out;

  // Bad sketch capacity and bad block size are usage errors.
  EXPECT_EQ(RunTool("train --data " + data_ + " --algo cmp-stream"
                " --sketch-capacity 2 --out " + tree_),
            kBadArgs);
  EXPECT_EQ(RunTool("train --data " + data_ + " --algo cmp-stream --stream"
                " --block 0 --out " + tree_),
            kBadArgs);

  // Unreadable input follows the I/O exit code on both paths.
  EXPECT_EQ(RunTool("train --data /does/not/exist --algo cmp-stream"
                " --out " + tree_),
            kIo);
  EXPECT_EQ(RunTool("train --data /does/not/exist --algo cmp-stream"
                " --stream --out " + tree_),
            kIo);

  // Refit requires a single tree: a boosted forest is rejected with a
  // clear message.
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo boost --rounds 3"
                " --out " + tree_),
            0);
  EXPECT_EQ(RunTool("refit --data " + data_ + " --tree " + tree_ +
                " --sidecar " + sidecar + " --out " + tree_ + ".out",
                &out),
            kBadArgs);
  EXPECT_NE(out.find("boosted ensembles cannot be refit"),
            std::string::npos)
      << out;

  // Refit on a tree without a matching sidecar: the sidecar is missing
  // (I/O), and a bad threshold is a usage error.
  ASSERT_EQ(RunTool("train --data " + data_ + " --algo cmp-stream --out " +
                tree_ + " --sidecar " + sidecar),
            0);
  EXPECT_EQ(RunTool("refit --data " + data_ + " --tree " + tree_ +
                " --sidecar /does/not/exist.cmps --out " + tree_ + ".out"),
            kIo);
  EXPECT_EQ(RunTool("refit --data " + data_ + " --tree " + tree_ +
                " --sidecar " + sidecar + " --out " + tree_ + ".out"
                " --drift-threshold 1.5"),
            kBadArgs);
  // Missing required flags fall back to usage.
  EXPECT_EQ(RunTool("refit --data " + data_ + " --tree " + tree_), kBadArgs);
  std::remove(sidecar.c_str());
  std::remove((tree_ + ".out").c_str());
}

TEST_F(CmptoolTest, GenDriftFlags) {
  const std::string drifted = TempPath("drifted.cmpt");
  std::string out;
  ASSERT_EQ(RunTool("gen --function F2 --records 2000 --seed 5"
                " --drift-at 1000 --drift-function F7 --out " + drifted,
                &out),
            0);
  EXPECT_NE(out.find("2000 records"), std::string::npos);

  // Covariates are the stationary stream's: same schema, same size.
  ASSERT_EQ(RunTool("info --data " + drifted, &out), 0);
  EXPECT_NE(out.find("2000 records"), std::string::npos);
  EXPECT_NE(out.find("salary"), std::string::npos);

  // Both drift flags are required together; the index must be in range;
  // the drift function must parse.
  EXPECT_EQ(RunTool("gen --function F2 --records 2000 --drift-at 500"
                " --out " + drifted),
            kBadArgs);
  EXPECT_EQ(RunTool("gen --function F2 --records 2000 --drift-function F7"
                " --out " + drifted),
            kBadArgs);
  EXPECT_EQ(RunTool("gen --function F2 --records 2000 --drift-at 5000"
                " --drift-function F7 --out " + drifted),
            kBadArgs);
  EXPECT_EQ(RunTool("gen --function F2 --records 2000 --drift-at 500"
                " --drift-function F77 --out " + drifted),
            kBadArgs);

  // --skip splits one seeded stream into an exact prefix + suffix.
  const std::string tail = TempPath("tail.cmpt");
  ASSERT_EQ(RunTool("gen --function F2 --records 2000 --seed 5 --skip 1500"
                " --out " + tail,
                &out),
            0);
  EXPECT_NE(out.find("500 records"), std::string::npos);
  EXPECT_EQ(RunTool("gen --function F2 --records 2000 --skip 2500 --out " +
                tail),
            kBadArgs);
  EXPECT_EQ(RunTool("gen --function F2 --records 2000 --skip -1 --out " +
                tail),
            kBadArgs);
  std::remove(tail.c_str());
  std::remove(drifted.c_str());
}

TEST_F(CmptoolTest, KernelFlagSelectsTierAndRejectsUnknown) {
  // --kernel scalar and --kernel auto must produce byte-identical trees
  // (the bit-identical-trees contract, CLI edition).
  ASSERT_EQ(RunTool("train --data " + data_ +
                " --algo cmp-b --kernel scalar --out " + tree_),
            0);
  const std::string scalar_tree = Slurp(tree_);
  ASSERT_FALSE(scalar_tree.empty());
  ASSERT_EQ(RunTool("train --data " + data_ +
                " --algo cmp-b --kernel auto --out " + tree_),
            0);
  EXPECT_EQ(Slurp(tree_), scalar_tree);

  // The selected tier lands in --stats-json as kernel_isa.
  const std::string stats = TempPath("kernel_stats.json");
  ASSERT_EQ(RunTool("train --data " + data_ +
                " --algo cmp-b --kernel scalar --out " + tree_ +
                " --stats-json " + stats),
            0);
  EXPECT_NE(Slurp(stats).find("\"kernel_isa\": \"scalar\""),
            std::string::npos);
  std::remove(stats.c_str());

  // An unknown tier is a usage error, reported before any work runs.
  std::string out;
  EXPECT_EQ(RunTool("train --data " + data_ +
                " --algo cmp-b --kernel bogus --out " + tree_,
                &out),
            kBadArgs);
  EXPECT_NE(out.find("unknown kernel tier 'bogus'"), std::string::npos)
      << out;
  // So is the removed SSE2 tier.
  EXPECT_EQ(RunTool("train --data " + data_ +
                " --algo cmp-b --kernel sse2 --out " + tree_,
                &out),
            kBadArgs);
  EXPECT_NE(out.find("unknown kernel tier 'sse2'"), std::string::npos)
      << out;
}

}  // namespace
