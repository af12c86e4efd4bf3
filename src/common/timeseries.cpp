#include "common/timeseries.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <set>

#include "common/error.hpp"
#include "common/json.hpp"

namespace bwlab::live {

int TimeSeries::key_index(const std::string& key) const {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it == keys.end() || *it != key) return -1;
  return static_cast<int>(it - keys.begin());
}

double TimeSeries::value(std::size_t sample, int key) const {
  if (key < 0 || sample >= values.size()) return 0;
  const std::vector<double>& row = values[sample];
  const auto k = static_cast<std::size_t>(key);
  return k < row.size() ? row[k] : 0;
}

double TimeSeries::value(std::size_t sample, const std::string& key) const {
  return value(sample, key_index(key));
}

double TimeSeries::last(const std::string& key) const {
  return empty() ? 0 : value(size() - 1, key);
}

double TimeSeries::rate(std::size_t sample, int key) const {
  if (sample == 0 || sample >= size() || key < 0) return 0;
  const double dt = times[sample] - times[sample - 1];
  if (dt <= 0) return 0;
  return (value(sample, key) - value(sample - 1, key)) / dt;
}

double TimeSeries::rate(std::size_t sample, const std::string& key) const {
  return rate(sample, key_index(key));
}

double TimeSeries::last_rate(const std::string& key) const {
  return empty() ? 0 : rate(size() - 1, key_index(key));
}

std::vector<int> TimeSeries::ranks() const {
  std::set<int> out;
  for (const std::string& k : keys) {
    if (k.rfind("rank.", 0) != 0) continue;
    const std::size_t dot = k.find('.', 5);
    if (dot == std::string::npos) continue;
    try {
      out.insert(std::stoi(k.substr(5, dot - 5)));
    } catch (...) {
      // not a rank.<N>.* key; ignore
    }
  }
  return {out.begin(), out.end()};
}

std::string rank_key(int rank, const std::string& what) {
  return "rank." + std::to_string(rank) + "." + what;
}

void write_timeseries_file(const std::string& path, const TimeSeries& ts,
                           const std::string& app,
                           const std::string& git_sha) {
  std::ofstream os(path);
  BWLAB_REQUIRE(os.good(), "cannot open timeseries output file '" << path
                                                                  << "'");
  json::write(os, TimeSeriesFile{app, git_sha, ts});
  os << '\n';
  BWLAB_REQUIRE(os.good(), "failed writing timeseries to '" << path << "'");
}

TimeSeriesFile parse_timeseries_file(std::istream& is) {
  return json::read<TimeSeriesFile>(json::parse(is));
}

TimeSeriesFile read_timeseries_file(const std::string& path) {
  std::ifstream is(path);
  BWLAB_REQUIRE(is.good(), "cannot open timeseries file '" << path << "'");
  return parse_timeseries_file(is);
}

}  // namespace bwlab::live
