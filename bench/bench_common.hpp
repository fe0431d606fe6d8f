// Shared helpers for the figure/table reproduction harnesses.
#pragma once

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"

namespace sgs::bench {

// A flag the bench never read is a typo, not a default: names each one on
// stderr and returns true, so main() exits 2 before running anything.
inline bool reject_unknown_flags(const CliArgs& args) {
  const std::vector<std::string> unknown = args.unused();
  for (const std::string& flag : unknown) {
    std::fprintf(stderr, "unknown flag --%s (try --help)\n", flag.c_str());
  }
  return !unknown.empty();
}

// Fixed-width ASCII table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  Table& row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }

  void print(std::ostream& os = std::cout) const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& r : rows_) {
      for (std::size_t c = 0; c < r.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], r[c].size());
      }
    }
    auto line = [&] {
      os << "  +";
      for (std::size_t w : width) os << std::string(w + 2, '-') << "+";
      os << "\n";
    };
    auto print_row = [&](const std::vector<std::string>& cells) {
      os << "  |";
      for (std::size_t c = 0; c < width.size(); ++c) {
        const std::string& v = c < cells.size() ? cells[c] : "";
        os << " " << std::setw(static_cast<int>(width[c])) << v << " |";
      }
      os << "\n";
    };
    line();
    print_row(headers_);
    line();
    for (const auto& r : rows_) print_row(r);
    line();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 2) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec) << v;
  return os.str();
}

inline std::string fmt_ratio(double v, int prec = 1) { return fmt(v, prec) + "x"; }

inline void print_header(const std::string& title, const std::string& paper_note) {
  std::cout << "\n==== " << title << " ====\n";
  if (!paper_note.empty()) std::cout << "  paper: " << paper_note << "\n";
}

}  // namespace sgs::bench
