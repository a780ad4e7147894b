#include "util/flat_records.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <utility>

namespace als {

namespace {

// Field order of a written row; the reader accepts any order.
constexpr std::pair<const char*, std::string BenchRecord::*> kStringFields[] = {
    {"tool", &BenchRecord::tool},       {"layer", &BenchRecord::layer},
    {"metric", &BenchRecord::metric},   {"unit", &BenchRecord::unit},
    {"better", &BenchRecord::better},   {"backend", &BenchRecord::backend},
    {"circuit", &BenchRecord::circuit}};
constexpr std::size_t kStrings = std::size(kStringFields);
constexpr std::size_t kBudget = kStrings, kValue = kStrings + 1;

std::size_t fieldIndex(std::string_view key) {
  for (std::size_t i = 0; i < kStrings; ++i) {
    if (key == kStringFields[i].first) return i;
  }
  return key == "budget" ? kBudget : key == "value" ? kValue : kValue + 1;
}

std::vector<double> sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& what) {
    error = what + " at offset " + std::to_string(pos);
    return false;
  }
  bool atEnd() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    return pos == text.size();
  }
  bool peek(char c) { return !atEnd() && text[pos] == c; }
  bool expect(char c) {
    if (!peek(c)) return fail(std::string("expected '") + c + "'");
    ++pos;
    return true;
  }
  bool parseString(std::string* out) {
    if (!expect('"')) return false;
    out->clear();
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\' && pos < text.size()) {
        char e = text[pos++];  // the writer escapes only ", \, \n and \t
        c = e == 'n' ? '\n' : e == 't' ? '\t' : e;
      }
      out->push_back(c);
    }
    return expect('"');
  }
  bool parseNumber(double* out) {
    atEnd();
    const char* start = text.data() + pos;
    char* end = nullptr;
    errno = 0;
    *out = std::strtod(start, &end);
    if (end == start || errno == ERANGE) return fail("bad number");
    pos += static_cast<std::size_t>(end - start);
    return true;
  }
  bool parseRow(BenchRecord* row) {
    if (!expect('{')) return false;
    unsigned seen = 0;
    do {
      std::string key;
      if (!parseString(&key) || !expect(':')) return false;
      const std::size_t field = fieldIndex(key);
      if (field > kValue) return fail("unknown field '" + key + "'");
      if (seen & (1u << field)) return fail("repeated field '" + key + "'");
      seen |= 1u << field;
      double v = 0.0;
      if (field < kStrings) {
        if (!parseString(&(row->*kStringFields[field].second))) return false;
      } else if (!parseNumber(&v)) {
        return false;
      } else if (field == kValue) {
        row->value = v;
      } else if (!(v >= 0.0 && v < 1e15) || v != std::floor(v)) {
        return fail("budget is not a count");
      } else {
        row->budget = static_cast<std::size_t>(v);
      }
    } while (peek(',') && expect(','));
    if (!expect('}')) return false;
    if (seen != (1u << (kValue + 1)) - 1) return fail("row lacks a field");
    if (row->better != "lower" && row->better != "higher") {
      return fail("better is neither lower nor higher");
    }
    return true;
  }
};

void appendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? "\\n" : c == '\t' ? "\\t" : std::string(1, c);
  }
}

}  // namespace

Tier tierOf(const BenchRecord& row) {
  std::string_view u = row.unit;
  if (u == "x") return Tier::Tight;
  if (u == "s" || u == "ms" || u == "us" || u.ends_with("/s")) return Tier::Loose;
  return Tier::Exact;
}

const char* tierName(Tier tier) {
  return tier == Tier::Exact ? "exact" : tier == Tier::Tight ? "tight" : "loose";
}

std::string rowKey(const BenchRecord& row) {
  return row.tool + " " + row.layer + " " + row.metric + " " + row.backend +
         " x " + row.circuit + " @" + std::to_string(row.budget);
}

double RowSamples::median() const {
  if (values.empty()) return 0.0;
  std::vector<double> d = sorted(values);
  const std::size_t n = d.size();
  return n % 2 == 1 ? d[n / 2] : (d[n / 2 - 1] + d[n / 2]) / 2.0;
}

double RowSamples::quartileSpread() const {
  const long ld = static_cast<long>(values.size());
  if (ld < 2) return 0.0;
  std::vector<double> d = sorted(values);
  // statistics.quantiles' default 'exclusive' method, n = 4.
  auto quartile = [&](long i) {
    const long m = ld + 1;
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (d[j - 1] * static_cast<double>(4 - delta) +
            d[j] * static_cast<double>(delta)) / 4.0;
  };
  return quartile(3) - quartile(1);
}

std::map<std::string, RowSamples> groupRows(const std::vector<BenchRecord>& rows) {
  std::map<std::string, RowSamples> out;
  for (const BenchRecord& row : rows) {
    auto [it, fresh] = out.try_emplace(rowKey(row), RowSamples{row, {}});
    it->second.values.push_back(row.value);
  }
  return out;
}

bool parseFlatRecords(std::string_view text, std::vector<BenchRecord>& out,
                      std::string& error) {
  Parser p{text, 0, {}};
  bool ok = p.expect('[');
  if (ok && !p.peek(']')) {
    do {
      BenchRecord row;
      ok = p.parseRow(&row);
      if (ok) out.push_back(std::move(row));
    } while (ok && p.peek(',') && p.expect(','));
  }
  ok = ok && p.expect(']');
  if (ok && !p.atEnd()) ok = p.fail("trailing text");
  error = std::move(p.error);
  return ok;
}

bool loadFlatRecords(const std::string& path, std::vector<BenchRecord>& out,
                     std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open '" + path + "'";
    return false;
  }
  const std::string text{std::istreambuf_iterator<char>(in), {}};
  if (!parseFlatRecords(text, out, error)) {
    error = path + ": " + error;
    return false;
  }
  return true;
}

std::string formatFlatRecords(const std::vector<BenchRecord>& rows) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const char* sep = "  {";
    for (const auto& [name, member] : kStringFields) {
      (out += sep) += "\"" + std::string(name) + "\": \"";
      appendEscaped(out, rows[i].*member);
      out += '"';
      sep = ", ";
    }
    char value[40];  // shortest text that reads back to the same double
    *std::to_chars(value, value + sizeof value - 1, rows[i].value).ptr = '\0';
    out += ", \"budget\": " + std::to_string(rows[i].budget) +
           ", \"value\": " + value + (i + 1 < rows.size() ? "},\n" : "}\n");
  }
  return out + "]\n";
}

bool writeFlatRecords(const std::string& path,
                      const std::vector<BenchRecord>& rows, std::string& error) {
  std::ofstream out(path, std::ios::trunc);
  if (!(out << formatFlatRecords(rows)) || !out.flush()) {
    error = "cannot write '" + path + "'";
    return false;
  }
  return true;
}

}  // namespace als
