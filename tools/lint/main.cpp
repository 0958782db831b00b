// procon_lint CLI — see lint/lint.h for the contract families.
//
//   procon_lint [options] <file>...
//     --list-rules             print the markdown rule table and exit
//     --disable=ID[,ID...]     switch rules off
//     --warm-annotation=NAME   warm-path marker macro (default
//                              PROCON_WARM_PATH)
//
// Exit status: 0 when every file lints clean, 1 on any finding, 2 on usage
// or I/O errors. Findings go to stdout as `file:line: [rule] message`.
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lint.h"

namespace {

void split_csv(std::string_view list, std::vector<std::string>& out) {
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string_view::npos) comma = list.size();
    if (comma > start) out.emplace_back(list.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  procon::lint::Options opts;
  std::vector<std::string> files;
  bool list_rules = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg.rfind("--disable=", 0) == 0) {
      split_csv(arg.substr(10), opts.disabled);
    } else if (arg.rfind("--warm-annotation=", 0) == 0) {
      opts.warm_annotation = std::string(arg.substr(18));
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: procon_lint [--list-rules] [--disable=ID,...] "
                   "[--warm-annotation=NAME]\n"
                   "                   <file>...\n");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "procon_lint: unknown option '%s'\n",
                   std::string(arg).c_str());
      return 2;
    } else {
      files.emplace_back(arg);
    }
  }

  for (const std::string& id : opts.disabled) {
    if (!procon::lint::is_rule_id(id)) {
      std::fprintf(stderr, "procon_lint: --disable names unknown rule '%s'\n",
                   id.c_str());
      return 2;
    }
  }

  if (list_rules) {
    std::fputs(procon::lint::render_rule_table().c_str(), stdout);
    return 0;
  }
  if (files.empty()) {
    std::fprintf(stderr, "procon_lint: no input files (try --help)\n");
    return 2;
  }

  std::size_t total = 0;
  for (const std::string& file : files) {
    try {
      const auto findings = procon::lint::lint_file(file, opts);
      for (const auto& f : findings) {
        std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());
      }
      total += findings.size();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  if (total != 0) {
    std::fprintf(stderr, "procon_lint: %zu finding(s) across %zu file(s)\n",
                 total, files.size());
    return 1;
  }
  return 0;
}
