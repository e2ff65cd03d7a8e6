#include "geo/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/flags.hpp"
#include "util/value_parse.hpp"

namespace dtn::geo {

std::int32_t Trace::node_count() const {
  std::int32_t max_id = -1;
  for (const auto& s : samples) max_id = std::max(max_id, s.node);
  return max_id + 1;
}

double Trace::duration() const {
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  for (const auto& s : samples) {
    if (first) {
      lo = hi = s.time;
      first = false;
    } else {
      lo = std::min(lo, s.time);
      hi = std::max(hi, s.time);
    }
  }
  return hi - lo;
}

void Trace::sort() {
  std::sort(samples.begin(), samples.end(), [](const TraceSample& a, const TraceSample& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.node < b.node;
  });
}

Trace parse_trace(const std::string& content) {
  Trace trace;
  std::istringstream in(content);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string text = line.substr(0, line.find('#'));
    std::replace_if(
        text.begin(), text.end(), [](char c) { return c == '\t' || c == '\r'; }, ' ');
    const std::vector<std::string> fields = util::split_fields(text);
    if (fields.empty()) continue;  // blank/comment-only line
    TraceSample s;
    // Exactly "time node x y" with an integer node id: no silent split of
    // "2.5" into node 2 and x 0.5, no ignored trailing field.
    if (fields.size() != 4 || !util::parse_value(fields[0], s.time) ||
        !util::parse_value(fields[1], s.node) || !util::parse_value(fields[2], s.pos.x) ||
        !util::parse_value(fields[3], s.pos.y)) {
      throw std::runtime_error("trace: malformed line " + std::to_string(lineno) +
                               ": '" + line + "'");
    }
    if (s.node < 0) {
      throw std::runtime_error("trace: negative node id at line " + std::to_string(lineno));
    }
    trace.samples.push_back(s);
  }
  trace.sort();
  return trace;
}

Trace read_trace(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("trace: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_trace(buf.str());
}

bool write_trace(const std::string& path, const Trace& trace) {
  Trace sorted = trace;
  sorted.sort();
  std::ofstream f(path);
  if (!f) return false;
  f << "# time node x y\n";
  for (const auto& s : sorted.samples) {
    // Shortest round-trip text: read_trace(write_trace(t)) is bit-exact.
    f << util::format_value(s.time) << ' ' << s.node << ' ' << util::format_value(s.pos.x)
      << ' ' << util::format_value(s.pos.y) << '\n';
  }
  return f.good();
}

}  // namespace dtn::geo
