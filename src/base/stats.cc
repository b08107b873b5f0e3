#include "stats.hh"

#include <algorithm>
#include <iomanip>

#include "logging.hh"

namespace chex
{
namespace stats
{

Histogram::Histogram(double min, double max, size_t num_buckets)
    : _min(min), _max(max), _buckets(num_buckets, 0)
{
    chex_assert(max > min && num_buckets > 0, "bad histogram range");
}

void
Histogram::sample(double v, uint64_t count)
{
    if (_count == 0) {
        _minSample = v;
        _maxSample = v;
    } else {
        _minSample = std::min(_minSample, v);
        _maxSample = std::max(_maxSample, v);
    }
    _count += count;
    _sum += v * static_cast<double>(count);

    if (v < _min) {
        _underflow += count;
    } else if (v > _max) {
        _overflow += count;
    } else {
        double width = (_max - _min) / static_cast<double>(_buckets.size());
        auto idx = static_cast<size_t>((v - _min) / width);
        if (idx >= _buckets.size())
            idx = _buckets.size() - 1;
        _buckets[idx] += count;
    }
}

double
Histogram::bucketLow(size_t i) const
{
    double width = (_max - _min) / static_cast<double>(_buckets.size());
    return _min + width * static_cast<double>(i);
}

double
Histogram::bucketHigh(size_t i) const
{
    return bucketLow(i + 1);
}

void
Histogram::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _underflow = 0;
    _overflow = 0;
    _count = 0;
    _sum = 0.0;
    _minSample = 0.0;
    _maxSample = 0.0;
}

StatGroup::StatGroup(std::string name) : _name(std::move(name))
{
}

void
StatGroup::addScalar(const std::string &name, const std::string &desc,
                     Scalar &stat)
{
    chex_assert(!scalars.count(name) && !formulas.count(name),
                "duplicate stat name");
    scalars[name] = {&stat, desc};
}

void
StatGroup::addFormula(const std::string &name, const std::string &desc,
                      Formula f)
{
    chex_assert(!scalars.count(name) && !formulas.count(name),
                "duplicate stat name");
    auto &entry = formulas[name];
    entry.formula = std::move(f);
    entry.desc = desc;
}

void
StatGroup::addHistogram(const std::string &name, const std::string &desc,
                        Histogram &stat)
{
    chex_assert(!histograms.count(name), "duplicate histogram name");
    histograms[name] = {&stat, desc};
}

void
StatGroup::addChild(StatGroup *child)
{
    chex_assert(child != nullptr, "null stat child");
    children.push_back(child);
}

const Scalar *
StatGroup::findScalar(const std::string &name) const
{
    auto it = scalars.find(name);
    return it == scalars.end() ? nullptr : it->second.stat;
}

const StatGroup::FormulaEntry *
StatGroup::findFormula(const std::string &name) const
{
    auto it = formulas.find(name);
    return it == formulas.end() ? nullptr : &it->second;
}

double
StatGroup::get(const std::string &dotted_path) const
{
    auto dot = dotted_path.find('.');
    if (dot == std::string::npos) {
        if (const Scalar *s = findScalar(dotted_path))
            return s->value();
        if (const FormulaEntry *f = findFormula(dotted_path))
            return f->formula();
        chex_panic("stat '%s' not found in group '%s'",
                   dotted_path.c_str(), _name.c_str());
    }
    std::string head = dotted_path.substr(0, dot);
    std::string rest = dotted_path.substr(dot + 1);
    for (const StatGroup *child : children) {
        if (child->name() == head)
            return child->get(rest);
    }
    chex_panic("stat group '%s' not found in group '%s'", head.c_str(),
               _name.c_str());
}

bool
StatGroup::has(const std::string &dotted_path) const
{
    auto dot = dotted_path.find('.');
    if (dot == std::string::npos) {
        return findScalar(dotted_path) != nullptr ||
               findFormula(dotted_path) != nullptr;
    }
    std::string head = dotted_path.substr(0, dot);
    std::string rest = dotted_path.substr(dot + 1);
    for (const StatGroup *child : children) {
        if (child->name() == head)
            return child->has(rest);
    }
    return false;
}

void
StatGroup::resetAll()
{
    for (auto &[name, entry] : scalars)
        entry.stat->reset();
    for (auto &[name, entry] : histograms)
        entry.stat->reset();
    for (StatGroup *child : children)
        child->resetAll();
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    std::string base = prefix.empty() ? _name : prefix + "." + _name;
    for (const auto &[name, entry] : scalars) {
        os << base << "." << name << " = " << entry.stat->count()
           << "   # " << entry.desc << "\n";
    }
    for (const auto &[name, entry] : formulas) {
        os << base << "." << name << " = " << entry.formula()
           << "   # " << entry.desc << "\n";
    }
    for (const auto &[name, entry] : histograms) {
        const Histogram &h = *entry.stat;
        os << base << "." << name << "::count = " << h.count()
           << "   # " << entry.desc << "\n";
        os << base << "." << name << "::mean = " << h.mean() << "\n";
        os << base << "." << name << "::min = " << h.minSample() << "\n";
        os << base << "." << name << "::max = " << h.maxSample() << "\n";
    }
    for (const StatGroup *child : children)
        child->dump(os, base);
}

json::Value
StatGroup::toJson() const
{
    json::Value obj = json::Value::object();
    // Exact integer counts: json::Value keeps uint64 values exact,
    // so counters survive the 2^53 double-precision cliff in dumps.
    for (const auto &[name, entry] : scalars)
        obj.set(name, entry.stat->count());
    for (const auto &[name, entry] : formulas)
        obj.set(name, entry.formula());
    for (const auto &[name, entry] : histograms) {
        const Histogram &h = *entry.stat;
        obj.set(name, json::Value::object()
                          .set("count", h.count())
                          .set("sum", h.sum())
                          .set("mean", h.mean())
                          .set("min", h.minSample())
                          .set("max", h.maxSample()));
    }
    for (const StatGroup *child : children)
        obj.set(child->name(), child->toJson());
    return obj;
}

void
StatGroup::dumpJson(std::ostream &os) const
{
    json::Value root = json::Value::object();
    root.set(_name, toJson());
    root.write(os, 2);
}

} // namespace stats
} // namespace chex
