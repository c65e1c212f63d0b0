#include "obs/monitor.hpp"

#include <fstream>
#include <ostream>

namespace cats::obs {

Monitor::Monitor(Config config, StatsSource stats)
    : config_(config), stats_(std::move(stats)) {
  start_time_ = std::chrono::steady_clock::now();
}

Monitor::~Monitor() { stop(); }

void Monitor::start() {
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = false;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    start_time_ = std::chrono::steady_clock::now();
  }
  thread_ = std::thread([this] { run(); });
}

void Monitor::stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
}

void Monitor::run() {
  // One sample right away so short runs still produce a baseline row, then
  // one per interval until stop() is requested; a final sample on the way
  // out captures the tail of the run.
  sample_now();
  while (true) {
    std::unique_lock<std::mutex> lock(stop_mutex_);
    if (stop_cv_.wait_for(lock, config_.interval,
                          [this] { return stop_requested_; })) {
      break;
    }
    lock.unlock();
    sample_now();
  }
  sample_now();
}

void Monitor::sample_now() {
  // The source runs outside the sample mutex: a tree walk inside it can
  // take a while on a big tree and must not block concurrent series()
  // readers.
  Snapshot snap = stats_();
  const auto now = std::chrono::steady_clock::now();

  std::lock_guard<std::mutex> lock(mutex_);
  const double t_s =
      std::chrono::duration<double>(now - start_time_).count();
  if (counter_names_.empty() && gauge_names_.empty()) {
    // First sample fixes the column schema.
    for (const auto& [name, value] : snap.counters) {
      (void)value;
      counter_names_.push_back(name);
    }
    for (const auto& [name, value] : snap.gauges) {
      (void)value;
      gauge_names_.push_back(name);
    }
  }

  Sample s;
  s.t_s = t_s;
  s.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    s.counters.push_back(i < snap.counters.size() ? snap.counters[i].second
                                                  : 0);
  }
  s.interval_s = have_last_ ? t_s - last_t_s_ : 0.0;
  s.rates.resize(s.counters.size(), 0.0);
  if (have_last_ && s.interval_s > 0) {
    for (std::size_t i = 0; i < s.counters.size(); ++i) {
      const std::uint64_t prev =
          i < last_counters_.size() ? last_counters_[i] : 0;
      // Counters are monotone except across an explicit quiescent reset;
      // clamp so a reset between samples shows as 0 rather than underflow.
      const std::uint64_t delta =
          s.counters[i] >= prev ? s.counters[i] - prev : 0;
      s.rates[i] = static_cast<double>(delta) / s.interval_s;
    }
  }
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    s.gauges.push_back(snap.gauges[i].second);
  }

  last_counters_ = s.counters;
  last_t_s_ = t_s;
  have_last_ = true;
  samples_.push_back(std::move(s));
  while (samples_.size() > config_.capacity) samples_.pop_front();
}

std::vector<std::string> Monitor::counter_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counter_names_;
}

std::vector<std::string> Monitor::gauge_names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauge_names_;
}

std::vector<Monitor::Sample> Monitor::series() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<Sample>(samples_.begin(), samples_.end());
}

std::size_t Monitor::sample_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_.size();
}

void Monitor::write_csv(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << "t_s,interval_s";
  for (const auto& name : counter_names_) os << ',' << name;
  for (const auto& name : counter_names_) os << ',' << name << "_per_sec";
  for (const auto& name : gauge_names_) os << ',' << name;
  os << '\n';
  for (const Sample& s : samples_) {
    os << s.t_s << ',' << s.interval_s;
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      os << ',' << (i < s.counters.size() ? s.counters[i] : 0);
    }
    for (std::size_t i = 0; i < counter_names_.size(); ++i) {
      os << ',' << (i < s.rates.size() ? s.rates[i] : 0.0);
    }
    for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
      os << ',' << (i < s.gauges.size() ? s.gauges[i] : 0.0);
    }
    os << '\n';
  }
}

bool Monitor::write_csv_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_csv(out);
  return static_cast<bool>(out);
}

}  // namespace cats::obs
