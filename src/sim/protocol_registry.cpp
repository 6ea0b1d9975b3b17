#include "sim/protocol_registry.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace bsub::sim {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

namespace {

std::string field_name(std::string_view protocol, std::string_view key) {
  return std::string(protocol) + "." + std::string(key);
}

}  // namespace

ProtocolSpec ProtocolSpec::parse(std::string_view spec) {
  ProtocolSpec out;
  const std::size_t colon = spec.find(':');
  out.name = std::string(spec.substr(0, colon));
  if (out.name.empty()) {
    throw util::ConfigError("protocol spec has an empty name", "protocol",
                            "spec must be name[:key=value,...]");
  }
  if (colon == std::string_view::npos) return out;

  std::string_view rest = spec.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw util::ConfigError("malformed parameter '" + std::string(item) +
                                  "' in protocol spec '" + std::string(spec) +
                                  "'",
                              out.name, "parameters must be key=value");
    }
    const std::string_view key = item.substr(0, eq);
    for (const auto& [seen, _] : out.params) {
      if (iequals(seen, key)) {
        throw util::ConfigError("duplicate parameter '" + std::string(key) +
                                    "' in protocol spec '" + std::string(spec) +
                                    "'",
                                field_name(out.name, key),
                                "each key may appear once");
      }
    }
    out.params.emplace_back(std::string(key), std::string(item.substr(eq + 1)));
  }
  return out;
}

std::string ProtocolSpec::str() const {
  std::string out = name;
  for (std::size_t i = 0; i < params.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += params[i].first;
    out += '=';
    out += params[i].second;
  }
  return out;
}

ProtocolParams::ProtocolParams(const ProtocolSpec& spec)
    : name_(spec.name), params_(spec.params),
      consumed_(spec.params.size(), false) {}

const std::string* ProtocolParams::find(std::string_view key) {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (iequals(params_[i].first, key)) {
      consumed_[i] = true;
      return &params_[i].second;
    }
  }
  return nullptr;
}

bool ProtocolParams::get_bool(std::string_view key, bool fallback) {
  const std::string* v = find(key);
  if (v == nullptr) return fallback;
  if (*v == "1" || iequals(*v, "true") || iequals(*v, "on")) return true;
  if (*v == "0" || iequals(*v, "false") || iequals(*v, "off")) return false;
  throw util::ConfigError("parameter '" + std::string(key) + "' = '" + *v +
                              "' is not a boolean",
                          field_name(name_, key), "expected 0/1/true/false");
}

std::uint64_t ProtocolParams::get_u64(std::string_view key,
                                      std::uint64_t fallback,
                                      std::uint64_t min_value) {
  const std::string* v = find(key);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE ||
      v->front() == '-') {
    throw util::ConfigError("parameter '" + std::string(key) + "' = '" + *v +
                                "' is not an unsigned integer",
                            field_name(name_, key),
                            "expected a base-10 unsigned integer");
  }
  if (parsed < min_value) {
    throw util::ConfigError("parameter '" + std::string(key) + "' = '" + *v +
                                "' is below the accepted domain",
                            field_name(name_, key),
                            "value must be >= " + std::to_string(min_value));
  }
  return parsed;
}

std::uint32_t ProtocolParams::get_u32(std::string_view key,
                                      std::uint32_t fallback,
                                      std::uint32_t min_value) {
  const std::uint64_t v = get_u64(key, fallback, min_value);
  if (v > 0xFFFFFFFFull) {
    throw util::ConfigError("parameter '" + std::string(key) +
                                "' overflows 32 bits",
                            field_name(name_, key), "value must fit uint32");
  }
  return static_cast<std::uint32_t>(v);
}

double ProtocolParams::get_double(std::string_view key, double fallback,
                                  double min_value) {
  const std::string* v = find(key);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE ||
      parsed != parsed || parsed - parsed != 0.0) {
    throw util::ConfigError("parameter '" + std::string(key) + "' = '" + *v +
                                "' is not a finite number",
                            field_name(name_, key),
                            "expected a finite decimal number");
  }
  if (parsed < min_value) {
    throw util::ConfigError("parameter '" + std::string(key) + "' = '" + *v +
                                "' is below the accepted domain",
                            field_name(name_, key),
                            "value must be >= " + std::to_string(min_value));
  }
  return parsed;
}

std::string ProtocolParams::get_string(std::string_view key,
                                       std::string_view fallback) {
  const std::string* v = find(key);
  return v == nullptr ? std::string(fallback) : *v;
}

void ProtocolParams::finish() const {
  std::string unknown;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (consumed_[i]) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += params_[i].first;
  }
  if (!unknown.empty()) {
    throw util::ConfigError("protocol '" + name_ +
                                "' does not accept parameter(s): " + unknown,
                            name_, "remove the unknown parameter(s)");
  }
}

void ProtocolParams::reject(std::string_view key,
                            std::string_view constraint) const {
  throw util::ConfigError("parameter '" + std::string(key) +
                              "' of protocol '" + name_ +
                              "' is outside the accepted domain",
                          field_name(name_, key), std::string(constraint));
}

void ProtocolRegistry::add(Entry entry) {
  auto check = [&](const std::string& spelling) {
    if (find(spelling) != nullptr) {
      throw util::ConfigError("protocol name '" + spelling +
                                  "' is already registered",
                              "protocol", "names and aliases must be unique");
    }
  };
  check(entry.name);
  for (const std::string& a : entry.aliases) check(a);
  entries_.push_back(std::move(entry));
}

const ProtocolRegistry::Entry* ProtocolRegistry::find(
    std::string_view name) const {
  for (const Entry& e : entries_) {
    if (iequals(e.name, name)) return &e;
    for (const std::string& a : e.aliases) {
      if (iequals(a, name)) return &e;
    }
  }
  return nullptr;
}

std::unique_ptr<Protocol> ProtocolRegistry::make(std::string_view spec) const {
  return make(ProtocolSpec::parse(spec));
}

std::unique_ptr<Protocol> ProtocolRegistry::make(
    const ProtocolSpec& spec) const {
  const Entry* entry = find(spec.name);
  if (entry == nullptr) {
    throw util::ConfigError("unknown protocol '" + spec.name + "'", "protocol",
                            "registered protocols: " + names());
  }
  ProtocolParams params(spec);
  std::unique_ptr<Protocol> protocol = entry->factory(params);
  params.finish();
  return protocol;
}

std::string ProtocolRegistry::names() const {
  std::string out;
  for (const Entry& e : entries_) {
    if (!out.empty()) out += ", ";
    out += e.name;
  }
  return out;
}

}  // namespace bsub::sim
