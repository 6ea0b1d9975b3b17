// Name-keyed protocol factory: one table enumerating every routing
// implementation behind the sim::Protocol interface, so a protocol is
// selected at runtime by spec string instead of wired ad hoc at each call
// site (simulator runs, the trace runner, the bsub_node daemon, the scale
// CLI, and the matrix harness all resolve protocols here).
//
// A spec is `name` or `name:key=value[,key=value...]` — e.g. "push",
// "spray:copies=8", "bsub:df=0.5,merge=a". Names and parameter keys are
// case-insensitive on lookup; the registered key is the protocol's
// canonical `Protocol::name()` string (so a constructed protocol always
// reports the key it was registered under). Every failure — unknown name,
// unknown or duplicate parameter, out-of-domain value — is a typed
// util::ConfigError naming the offending field, never a silent default.
//
// The registry itself is a pure mechanism with no protocol dependencies;
// the concrete tables are populated by the layers that own the
// implementations (routing::register_baseline_protocols,
// core::register_bsub_protocol) and aggregated by
// core::make_protocol_registry().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/protocol.h"
#include "util/errors.h"

namespace bsub::sim {

/// ASCII case-insensitive equality: how names, parameter keys and keyword
/// values in protocol specs are compared.
bool iequals(std::string_view a, std::string_view b);

/// A parsed protocol spec: the protocol name plus its key=value parameters
/// in spec order. Parsing is purely syntactic — name resolution and value
/// validation happen at construction time against the registry entry.
struct ProtocolSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;

  /// Parses `name[:key=value[,key=value...]]`. Throws util::ConfigError on
  /// an empty name, a parameter without '=', an empty key, or a key given
  /// twice (keys compare case-insensitively).
  static ProtocolSpec parse(std::string_view spec);

  /// Canonical round-trip form: `name:key=value,...` (or just `name`).
  std::string str() const;
};

/// Typed accessor over a spec's parameters, handed to factories. Each
/// getter consumes its key; finish() rejects any key the factory never
/// asked about, so a typo'd parameter fails loudly instead of silently
/// running the default configuration.
class ProtocolParams {
 public:
  explicit ProtocolParams(const ProtocolSpec& spec);

  const std::string& protocol() const { return name_; }

  /// Typed getters; each returns `fallback` when the key is absent and
  /// throws util::ConfigError (field "<protocol>.<key>") when the value
  /// does not parse or violates the stated domain.
  bool get_bool(std::string_view key, bool fallback);
  std::uint32_t get_u32(std::string_view key, std::uint32_t fallback,
                        std::uint32_t min_value = 0);
  std::uint64_t get_u64(std::string_view key, std::uint64_t fallback,
                        std::uint64_t min_value = 0);
  /// Finite double; `min_value` is inclusive.
  double get_double(std::string_view key, double fallback, double min_value);
  std::string get_string(std::string_view key, std::string_view fallback);

  /// Throws util::ConfigError listing every parameter no getter consumed.
  void finish() const;

  /// Error helper for factory-side domain checks (e.g. an enum value the
  /// getters cannot express): a ConfigError on field "<protocol>.<key>".
  [[noreturn]] void reject(std::string_view key,
                           std::string_view constraint) const;

 private:
  const std::string* find(std::string_view key);

  std::string name_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<bool> consumed_;
};

/// The name-keyed factory table.
class ProtocolRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Protocol>(ProtocolParams&)>;

  struct Entry {
    /// Canonical key; must equal what the constructed protocol's name()
    /// reports (the round-trip suite asserts this for every entry).
    std::string name;
    /// Extra lookup spellings (e.g. "bsub" for "B-SUB").
    std::vector<std::string> aliases;
    /// One-line human description for --help output and reports.
    std::string summary;
    Factory factory;
  };

  /// Registers an entry. Throws util::ConfigError if the name or an alias
  /// collides with an already-registered spelling.
  void add(Entry entry);

  /// Looks up a name or alias (case-insensitive); nullptr when absent.
  const Entry* find(std::string_view name) const;

  /// Parses `spec`, resolves the entry, and constructs the protocol.
  /// Throws util::ConfigError for an unknown name (the message lists every
  /// registered name) or any parameter failure.
  std::unique_ptr<Protocol> make(std::string_view spec) const;
  std::unique_ptr<Protocol> make(const ProtocolSpec& spec) const;

  /// Entries in registration order.
  const std::vector<Entry>& entries() const { return entries_; }

  /// Comma-separated canonical names, for error messages and usage text.
  std::string names() const;

 private:
  std::vector<Entry> entries_;
};

}  // namespace bsub::sim
