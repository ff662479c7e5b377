// Statistics, the report printer, spans, and process hygiene (temp dirs,
// watchdog, leftover inspection).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <set>
#include <sstream>

#include "perfbench/bench.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::size_t count_above(const std::vector<double>& values, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [threshold](double v) { return v > threshold; }));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// --- Report -------------------------------------------------------------------

void Report::add_median(const std::string& name, const std::string& unit,
                        std::vector<double> repeats, const std::string& note) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.value = quantile(repeats, 0.5);
  m.repeats = std::move(repeats);
  m.note = note;
  metrics_.push_back(std::move(m));
}

void Report::add_percentile(const std::string& name, const std::string& unit,
                            const std::vector<double>& samples, double q,
                            const std::string& note) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.value = quantile(samples, q);
  std::ostringstream detail;
  detail << "p" << q * 100 << " of n=" << samples.size() << ", "
         << count_above(samples, m.value) << " beyond";
  if (!note.empty()) detail << "; " << note;
  m.note = detail.str();
  metrics_.push_back(std::move(m));
}

void Report::add_value(const std::string& name, const std::string& unit,
                       double value, std::size_t samples,
                       const std::string& note) {
  Metric m;
  m.name = name;
  m.unit = unit;
  m.value = value;
  std::ostringstream detail;
  detail << "n=" << samples;
  if (!note.empty()) detail << "; " << note;
  m.note = detail.str();
  metrics_.push_back(std::move(m));
}

const Metric* Report::find(const std::string& name) const {
  for (const auto& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

void Report::print(const std::string& prefix) const {
  for (const auto& m : metrics_) {
    std::cout << "metric " << prefix << m.name << " = " << std::setprecision(6)
              << m.value << ' ' << m.unit;
    if (!m.repeats.empty()) {
      std::cout << " (median of " << m.repeats.size()
                << " repeats, q1=" << quantile(m.repeats, 0.25)
                << ", q3=" << quantile(m.repeats, 0.75) << ")";
    }
    if (!m.note.empty()) std::cout << " [" << m.note << ']';
    std::cout << '\n';
  }
}

// --- Tally ----------------------------------------------------------------------

void Tally::merge(const Tally& other) {
  sent += other.sent;
  ok += other.ok;
  for (const auto& [status, count] : other.refused) refused[status] += count;
  transport_errors += other.transport_errors;
  mismatches += other.mismatches;
}

std::string Tally::str() const {
  std::ostringstream out;
  out << "sent=" << sent << " ok=" << ok;
  for (const auto& [status, count] : refused) out << ' ' << status << '=' << count;
  out << " transport_errors=" << transport_errors
      << " mismatches=" << mismatches;
  return out.str();
}

// --- spans ------------------------------------------------------------------------

double SpanLog::mean_us(const char* name) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& span : spans_) {
    if (std::string_view(span.name) != name) continue;
    sum += static_cast<double>(span.end_ns - span.start_ns);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) / 1e3 : 0.0;
}

void SpanLog::append(const SpanLog& other) {
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

void write_spans(const std::filesystem::path& path, const SpanLog& log) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  out << "name\tstart_ns\tend_ns\tparent\trequest\n";
  for (const auto& span : log.spans())
    out << span.name << '\t' << span.start_ns << '\t' << span.end_ns << '\t'
        << span.parent << '\t' << span.request << '\n';
  if (!out) throw std::runtime_error("cannot write spans to " + path.string());
}

// --- hygiene ------------------------------------------------------------------------

std::filesystem::path scratch_root() {
  return std::filesystem::current_path() / ".bench_build" / "perfbench-tmp";
}

TempDir::TempDir(const std::filesystem::path& base) {
  static std::atomic<unsigned> counter{0};
  std::filesystem::create_directories(base);
  path_ = base / ("run-" + std::to_string(::getpid()) + "-" +
                  std::to_string(counter.fetch_add(1)));
  std::filesystem::remove_all(path_);
  std::filesystem::create_directory(path_);
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
  // Leave no empty parent behind either (fails harmlessly if not empty).
  std::filesystem::remove(path_.parent_path(), ignored);
}

Watchdog::Watchdog(std::chrono::seconds limit)
    : thread_([this, limit](std::stop_token stop) {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!wake_.wait_for(lock, stop, limit, [] { return false; }) &&
            !stop.stop_requested()) {
          std::fprintf(stderr,
                       "perfbench: watchdog: run exceeded %lld s, aborting\n",
                       static_cast<long long>(limit.count()));
          std::fflush(stderr);
          std::_Exit(124);
        }
      }) {}

Watchdog::~Watchdog() {
  thread_.request_stop();
  thread_.join();
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::string Leftovers::str() const {
  std::ostringstream out;
  out << "extra_threads=" << extra_threads << " children=" << children
      << " listening_sockets=" << listening_sockets
      << " temp_entries=" << temp_entries;
  return out.str();
}

namespace {

std::set<std::string> socket_inodes_of_self() {
  std::set<std::string> inodes;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const auto target = std::filesystem::read_symlink(entry.path(), ec);
    if (ec) continue;
    const std::string text = target.string();
    if (text.rfind("socket:[", 0) == 0)
      inodes.insert(text.substr(8, text.size() - 9));
  }
  return inodes;
}

std::size_t listening_among(const std::set<std::string>& inodes,
                            const char* table) {
  std::ifstream in(table);
  std::string line;
  std::getline(in, line);  // header
  std::size_t n = 0;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string sl, local, remote, state, queues, timer, retr, uid, timeout, inode;
    fields >> sl >> local >> remote >> state >> queues >> timer >> retr >> uid >>
        timeout >> inode;
    if (state == "0A" && inodes.count(inode) > 0) ++n;
  }
  return n;
}

}  // namespace

Leftovers inspect_leftovers(std::size_t allowed_threads) {
  Leftovers out;
  std::size_t threads = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++threads;
  out.extra_threads = threads > 1 + allowed_threads ? threads - 1 - allowed_threads : 0;

  // Children: every process whose parent pid (field 4 of stat) is ours.
  const pid_t self = ::getpid();
  for (const auto& entry : std::filesystem::directory_iterator("/proc")) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos)
      continue;
    std::ifstream stat(entry.path() / "stat");
    std::string text;
    std::getline(stat, text);
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(text.substr(close + 1));
    std::string state;
    long ppid = 0;
    if (fields >> state >> ppid && ppid == self) ++out.children;
  }
  const auto inodes = socket_inodes_of_self();
  out.listening_sockets =
      listening_among(inodes, "/proc/net/tcp") + listening_among(inodes, "/proc/net/tcp6");

  std::error_code ec;
  if (std::filesystem::exists(scratch_root(), ec)) {
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator(scratch_root()))
      ++out.temp_entries;
  }
  return out;
}

}  // namespace perfbench
