// Machine-readable perf output shared by the bench binaries (schema 2).
//
// Each bench run writes one JSON document (BENCH_micro.json from
// micro_kernels, BENCH_runtime.json from fig6b + fig7, BENCH_scale.json from
// fig8_scale, BENCH_serving.json from fig9_serving):
//
//   {
//     "schema": 2,
//     "git_rev": "c1c30dc",
//     "hardware_threads": 8,
//     "benchmarks": [
//       {"name": "...", "wall_seconds": 0.012, "threads": 8,
//        "metrics": {"hit_ratio": 0.62, "speedup_vs_serial": 3.9}},
//       ...
//     ]
//   }
//
// Every record carries its name, wall time and thread count. Everything else
// a bench measures is a named entry of `metrics`; a key that is absent was
// not recorded. Which keys CI gates, in which direction and why is data:
// bench/gates.txt, evaluated by bench/bench_gates.h.
//
// read_bench_json() is the one strict parser every consumer goes through: it
// throws, naming the key, on a missing required key, a malformed number or a
// document of another schema, so baseline diffs fail loudly on schema drift.
#pragma once

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/support/parallel.h"

namespace trimcaching::bench {

using Metrics = std::map<std::string, double>;

struct JsonRecord {
  std::string name;
  double wall_seconds = 0.0;
  std::size_t threads = 1;  ///< thread (or worker) count the measurement used
  Metrics metrics;          ///< recorded values by key; absent = not recorded
};

/// Git revision baked in at configure time (CMake), "unknown" otherwise.
inline const char* git_revision() {
#ifdef TRIMCACHING_GIT_REV
  return TRIMCACHING_GIT_REV;
#else
  return "unknown";
#endif
}

inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

/// Writes the records to `path`; failures only warn (perf output must never
/// fail a bench run).
inline void write_bench_json(const std::string& path,
                             const std::vector<JsonRecord>& records) {
  std::ostringstream out;
  out.precision(9);
  out << "{\n  \"schema\": 2,\n  \"git_rev\": \"" << json_escape(git_revision())
      << "\",\n  \"hardware_threads\": " << trimcaching::support::hardware_threads()
      << ",\n  \"benchmarks\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    out << (i == 0 ? "" : ",") << "\n    {\"name\": \"" << json_escape(r.name)
        << "\", \"wall_seconds\": " << r.wall_seconds << ", \"threads\": " << r.threads
        << ", \"metrics\": {";
    const char* separator = "";
    for (const auto& [key, value] : r.metrics) {
      out << separator << "\"" << json_escape(key) << "\": " << value;
      separator = ", ";
    }
    out << "}}";
  }
  out << "\n  ]\n}\n";
  std::ofstream file(path);
  if (!file || !(file << out.str())) {
    std::cerr << "warning: could not write " << path << "\n";
    return;
  }
  std::cout << "[written " << path << "]\n";
}

namespace detail {

/// Cursor over the write_bench_json() grammar: objects, arrays, strings and
/// numbers (no booleans, no nulls). Not a general JSON parser.
class JsonScanner {
 public:
  JsonScanner(const std::string& text, const std::string& path)
      : text_(text), path_(path) {}

  void skip_space() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  /// Skips whitespace; true when the next character is `c`.
  bool peek(char c) {
    skip_space();
    return pos_ < text_.size() && text_[pos_] == c;
  }
  bool consume(char c) {
    if (!peek(c)) return false;
    ++pos_;
    return true;
  }
  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        c = text_[pos_++];
        if (c == 'n') c = '\n';
      }
      out += c;
    }
    expect('"');
    return out;
  }

  /// The number at the cursor; `key` names it in the error.
  double number(const std::string& key) {
    skip_space();
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) fail("malformed number for \"" + key + "\"");
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  /// Reads `{"key": value, ...}`, handing each key to `on_member`, which
  /// must consume the value.
  template <typename OnMember>
  void object(OnMember&& on_member) {
    expect('{');
    if (consume('}')) return;
    do {
      const std::string key = string();
      expect(':');
      on_member(key);
    } while (consume(','));
    expect('}');
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("read_bench_json: " + path_ + ": " + what +
                             " at offset " + std::to_string(pos_));
  }

 private:
  const std::string& text_;
  const std::string& path_;
  std::size_t pos_ = 0;
};

}  // namespace detail

/// Parses a write_bench_json() document back into records keyed by name.
/// The document must declare "schema": 2, and every record must carry name,
/// wall_seconds, threads and metrics and nothing else; violations throw
/// std::runtime_error naming the key.
inline std::map<std::string, JsonRecord> read_bench_json(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("read_bench_json: cannot open " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();

  // Records are validated after the whole document parsed, so a document of
  // another schema reports its schema, not its first unfamiliar key.
  struct RawRecord {
    std::optional<std::string> name;
    std::map<std::string, double> fields;
    std::optional<Metrics> metrics;
  };
  detail::JsonScanner in(text, path);
  std::optional<double> schema;
  std::vector<RawRecord> raw;
  in.object([&](const std::string& key) {
    if (key == "benchmarks") {
      in.expect('[');
      if (in.consume(']')) return;
      do {
        RawRecord& record = raw.emplace_back();
        in.object([&](const std::string& field) {
          if (field == "name") {
            record.name = in.string();
          } else if (field == "metrics") {
            record.metrics.emplace();
            in.object([&](const std::string& metric) {
              (*record.metrics)[metric] = in.number(metric);
            });
          } else {
            record.fields[field] = in.number(field);
          }
        });
      } while (in.consume(','));
      in.expect(']');
    } else if (in.peek('"')) {
      (void)in.string();
    } else {
      const double value = in.number(key);
      if (key == "schema") schema = value;
    }
  });

  if (!schema || *schema != 2) {
    throw std::runtime_error("read_bench_json: " + path +
                             " does not declare \"schema\": 2 (schema drift?)");
  }
  std::map<std::string, JsonRecord> out;
  for (RawRecord& record : raw) {
    const std::string label = record.name ? "record '" + *record.name + "'" : "a record";
    const auto drift = [&](const std::string& what) {
      return std::runtime_error("read_bench_json: " + label + " in " + path + " " +
                                what + " (schema drift?)");
    };
    const auto required = [&](const std::string& key) {
      const auto it = record.fields.find(key);
      if (it == record.fields.end()) throw drift("is missing required key '" + key + "'");
      const double value = it->second;
      record.fields.erase(it);
      return value;
    };
    if (!record.name) throw drift("is missing required key 'name'");
    if (!record.metrics) throw drift("is missing required key 'metrics'");
    JsonRecord parsed{*record.name, required("wall_seconds"),
                      static_cast<std::size_t>(required("threads")),
                      std::move(*record.metrics)};
    if (!record.fields.empty()) {
      throw drift("has key '" + record.fields.begin()->first + "' outside metrics");
    }
    out[parsed.name] = std::move(parsed);
  }
  if (out.empty()) {
    throw std::runtime_error("read_bench_json: no benchmark records in " + path);
  }
  return out;
}

/// Like write_bench_json, but records already present in `path` (from other
/// bench binaries sharing the document, e.g. fig6b and fig7 both feeding
/// BENCH_runtime.json) are kept unless this run re-records them by name.
/// A missing or unreadable document is simply (re)written.
inline void merge_bench_json(const std::string& path,
                             const std::vector<JsonRecord>& records) {
  std::vector<JsonRecord> merged;
  try {
    std::map<std::string, JsonRecord> existing = read_bench_json(path);
    for (const JsonRecord& record : records) existing.erase(record.name);
    merged.reserve(existing.size() + records.size());
    for (auto& [name, record] : existing) merged.push_back(std::move(record));
  } catch (const std::exception&) {
    // No mergeable document: start fresh.
  }
  merged.insert(merged.end(), records.begin(), records.end());
  write_bench_json(path, merged);
}

}  // namespace trimcaching::bench
