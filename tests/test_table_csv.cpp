#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/csv.h"
#include "util/table.h"

namespace procon::util {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t("Demo");
  t.set_header({"App", "Period"});
  t.add_row({"A", "300"});
  t.add_row({"B", "358.33"});
  const std::string s = t.render();
  EXPECT_NE(s.find("Demo"), std::string::npos);
  EXPECT_NE(s.find("App"), std::string::npos);
  EXPECT_NE(s.find("358.33"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, PadsRaggedRows) {
  Table t("");
  t.set_header({"a", "b", "c"});
  t.add_row({"x"});
  const std::string s = t.render();
  // Every rendered line must have the same width.
  std::istringstream is(s);
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(Table, CsvEscaping) {
  Table t("");
  t.set_header({"name", "note"});
  t.add_row({"x,y", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(CsvWriter, WritesFile) {
  const std::string path = ::testing::TempDir() + "/procon_test.csv";
  {
    CsvWriter w(path);
    w.write_row({"a", "b"});
    const std::vector<double> vals{1.5, 2.25};
    w.write_numeric_row("row", vals, 2);
  }
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "a,b\nrow,1.50,2.25\n");
  std::remove(path.c_str());
}

TEST(CsvWriter, BadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_procon/x.csv"), std::runtime_error);
}

}  // namespace
}  // namespace procon::util
