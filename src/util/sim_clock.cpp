#include "util/sim_clock.h"

#include <array>
#include <stdexcept>

namespace eum::util {

namespace {

constexpr std::array<int, 12> kDaysPerMonth = {31, 28, 31, 30, 31, 30,
                                               31, 31, 30, 31, 30, 31};
constexpr std::array<const char*, 12> kMonthNames = {"Jan", "Feb", "Mar", "Apr",
                                                     "May", "Jun", "Jul", "Aug",
                                                     "Sep", "Oct", "Nov", "Dec"};

void validate(const Date& date) {
  // The simulation calendar covers 2014-2015, neither of which is a leap year.
  if (date.year != 2014 && date.year != 2015) {
    throw std::out_of_range{"Date: year outside simulated range [2014, 2015]"};
  }
  if (date.month < 1 || date.month > 12) throw std::out_of_range{"Date: bad month"};
  if (date.day < 1 || date.day > kDaysPerMonth[static_cast<std::size_t>(date.month - 1)]) {
    throw std::out_of_range{"Date: bad day"};
  }
}

}  // namespace

int day_index(const Date& date) {
  validate(date);
  int days = (date.year - 2014) * 365;
  for (int m = 1; m < date.month; ++m) {
    days += kDaysPerMonth[static_cast<std::size_t>(m - 1)];
  }
  return days + date.day - 1;
}

Date date_from_day_index(int day_idx) {
  if (day_idx < 0 || day_idx >= 730) {
    throw std::out_of_range{"date_from_day_index: index outside [0, 730)"};
  }
  Date date;
  date.year = 2014 + day_idx / 365;
  int remaining = day_idx % 365;
  date.month = 1;
  for (const int len : kDaysPerMonth) {
    if (remaining < len) break;
    remaining -= len;
    ++date.month;
  }
  date.day = remaining + 1;
  return date;
}

SimTime start_of(const Date& date) { return SimTime{static_cast<std::int64_t>(day_index(date)) * 86400}; }

std::string to_string(const Date& date) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%04d-%02d-%02d", date.year, date.month, date.day);
  return buf;
}

std::string month_name(int month) {
  if (month < 1 || month > 12) throw std::out_of_range{"month_name: month must be 1..12"};
  return kMonthNames[static_cast<std::size_t>(month - 1)];
}

SimClock::Subscription SimClock::subscribe(std::function<void()> callback) const {
  const std::scoped_lock lock{subscribers_mutex_};
  const Subscription subscription = next_subscription_++;
  subscribers_.emplace_back(subscription, std::move(callback));
  subscriber_count_.store(subscribers_.size(), std::memory_order_relaxed);
  return subscription;
}

void SimClock::unsubscribe(Subscription subscription) const noexcept {
  // Taking the lock waits out a notification in flight.
  const std::scoped_lock lock{subscribers_mutex_};
  std::erase_if(subscribers_, [subscription](const auto& s) { return s.first == subscription; });
  subscriber_count_.store(subscribers_.size(), std::memory_order_relaxed);
}

void SimClock::notify_subscribers() const noexcept {
  const std::scoped_lock lock{subscribers_mutex_};
  for (const auto& subscriber : subscribers_) subscriber.second();
}

}  // namespace eum::util
