#include "src/stats/registry.hh"

#include <cstring>

#include "src/util/logging.hh"

namespace kilo::stats
{

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Counter: return "counter";
      case Kind::Gauge: return "gauge";
      case Kind::Histogram: return "histogram";
    }
    KILO_PANIC("unknown stats::Kind");
}

const Snapshot::Entry *
Snapshot::find(std::string_view name) const
{
    for (const auto &e : entries) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

double
Snapshot::value(std::string_view name) const
{
    const Entry *e = find(name);
    return e ? e->value.asDouble() : 0.0;
}

namespace
{

/** The naming scheme of src/stats/DESIGN.md: [a-z][a-z0-9_]*, with
 *  no "__" run and no trailing '_'. */
bool
snakeCase(const std::string &s)
{
    if (s.empty() || s[0] < 'a' || s[0] > 'z' || s.back() == '_' ||
        s.find("__") != std::string::npos)
        return false;
    for (char c : s)
        if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
              c == '_'))
            return false;
    return true;
}

} // anonymous namespace

void
Registry::add(Def def)
{
    KILO_ASSERT(snakeCase(def.name),
                "stat name '%s' is not lower_snake_case",
                def.name.c_str());
    for (const auto &existing : defs_) {
        if (existing.name == def.name) {
            KILO_PANIC("stat '%s' registered twice "
                       "(\"%s\" vs \"%s\")",
                       def.name.c_str(),
                       existing.description.c_str(),
                       def.description.c_str());
        }
    }
    defs_.push_back(std::move(def));
}

void
Registry::counter(std::string name, std::string description,
                  uint64_t *src, Row row)
{
    KILO_ASSERT(src != nullptr, "null counter source for '%s'",
                name.c_str());
    Def def;
    def.name = std::move(name);
    def.description = std::move(description);
    def.kind = Kind::Counter;
    def.inRow = row == Row::Yes;
    def.integer = true;
    def.counter = src;
    add(std::move(def));
}

void
Registry::gauge(std::string name, std::string description,
                std::function<double()> fn, Row row)
{
    Def def;
    def.name = std::move(name);
    def.description = std::move(description);
    def.kind = Kind::Gauge;
    def.inRow = row == Row::Yes;
    def.integer = false;
    def.realGauge = std::move(fn);
    add(std::move(def));
}

void
Registry::gaugeInt(std::string name, std::string description,
                   std::function<uint64_t()> fn, Row row)
{
    Def def;
    def.name = std::move(name);
    def.description = std::move(description);
    def.kind = Kind::Gauge;
    def.inRow = row == Row::Yes;
    def.integer = true;
    def.intGauge = std::move(fn);
    add(std::move(def));
}

void
Registry::histogram(std::string name, std::string description,
                    Histogram *hist)
{
    KILO_ASSERT(hist != nullptr, "null histogram for '%s'",
                name.c_str());
    Def def;
    def.name = std::move(name);
    def.description = std::move(description);
    def.kind = Kind::Histogram;
    def.inRow = false;
    def.integer = true;
    def.hist = hist;
    add(std::move(def));
}

Value
Registry::read(const Def &def)
{
    switch (def.kind) {
      case Kind::Counter:
        return Value::ofInt(*def.counter);
      case Kind::Gauge:
        return def.integer ? Value::ofInt(def.intGauge())
                           : Value::ofReal(def.realGauge());
      case Kind::Histogram:
        return Value::ofInt(def.hist->samples());
    }
    KILO_PANIC("unknown stats::Kind");
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    snap.entries.reserve(defs_.size());
    for (const auto &def : defs_) {
        Snapshot::Entry e;
        e.name = def.name;
        e.kind = def.kind;
        e.inRow = def.inRow;
        e.value = read(def);
        snap.entries.push_back(std::move(e));
    }
    return snap;
}

uint64_t
Registry::foldValues(uint64_t h) const
{
    constexpr uint64_t prime = 1099511628211ull;
    for (const auto &def : defs_) {
        Value v = read(def);
        uint64_t bits;
        if (v.real) {
            double d = v.d;
            std::memcpy(&bits, &d, sizeof(bits));
        } else {
            bits = v.u;
        }
        h = (h ^ bits) * prime;
    }
    return h;
}

void
Registry::reset() const
{
    for (const auto &def : defs_) {
        switch (def.kind) {
          case Kind::Counter:
            *def.counter = 0;
            break;
          case Kind::Histogram:
            // In place: bucket width and count survive the reset.
            def.hist->reset();
            break;
          case Kind::Gauge:
            break;
        }
    }
}

} // namespace kilo::stats
