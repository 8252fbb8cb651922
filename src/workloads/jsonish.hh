/**
 * @file
 * Minimal deterministic JSON reader.
 *
 * Just enough JSON for the repository's declarative inputs: trace
 * tables (workloads/trace.hh) and scenario specs (scenario/spec.hh).
 * Parses the full value grammar (objects, arrays, strings with the
 * standard escapes, numbers, true/false/null) into a small DOM with
 * object keys held in a sorted std::map, so iteration order — and
 * therefore everything built from a parsed document — is
 * deterministic and independent of key order in the input. Numbers
 * keep their source text (checked finite at parse time): consumers
 * read them with the shared field parsers (workloads/fields.hh), so
 * a JSON count is as exact as a text one.
 *
 * Parse errors throw leo::FatalError with a line/column message.
 * This is an offline input reader, not a wire-format codec: no
 * streaming, no \u surrogate pairs (non-BMP escapes are rejected),
 * and documents are expected to be small.
 */

#ifndef LEO_WORKLOADS_JSONISH_HH
#define LEO_WORKLOADS_JSONISH_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace leo::workloads::jsonish
{

/** Discriminator for Value. */
enum class Kind
{
    Null,
    Bool,
    Number,
    String,
    Array,
    Object
};

/**
 * One parsed JSON value. Plain tree; copyable; accessors check the
 * kind and throw leo::FatalError on mismatch so callers get input
 * errors, not undefined behavior.
 */
class Value
{
  public:
    Value() = default;

    /** @return This value's kind. */
    Kind kind() const { return kind_; }

    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** @return The boolean payload (kind must be Bool). */
    bool asBool() const;
    /** @return A number's source text, exactly as written (kind must
     *  be Number). Read it with the workloads/fields.hh parsers,
     *  which own the range checks, so a count never passes through
     *  a double. */
    const std::string &numberText() const;
    /** @return The string payload (kind must be String). */
    const std::string &asString() const;
    /** @return The elements (kind must be Array). */
    const std::vector<Value> &items() const;
    /** @return The members, key-sorted (kind must be Object). */
    const std::map<std::string, Value> &members() const;

    /** @return Whether an object member with this key exists. */
    bool has(const std::string &key) const;
    /** @return The member (kind must be Object; key must exist). */
    const Value &at(const std::string &key) const;

    /** Factory helpers used by the parser. */
    static Value makeNull();
    static Value makeBool(bool b);
    static Value makeNumber(std::string text);
    static Value makeString(std::string s);
    static Value makeArray(std::vector<Value> items);
    static Value makeObject(std::map<std::string, Value> members);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    /** String payload, or a number's source text. */
    std::string string_;
    std::vector<Value> items_;
    std::map<std::string, Value> members_;
};

/**
 * Parse one JSON document.
 *
 * @param text The whole document; trailing whitespace allowed,
 *             trailing garbage rejected.
 * @return The root value.
 * @throws leo::FatalError on any syntax error.
 */
Value parse(const std::string &text);

} // namespace leo::workloads::jsonish

#endif // LEO_WORKLOADS_JSONISH_HH
